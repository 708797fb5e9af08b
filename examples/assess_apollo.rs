//! The paper's headline experiment: generate the Apollo-scale corpus,
//! run the full ISO 26262 Part-6 assessment at ASIL-D, and print
//! Tables 1–3, Figure 3, and the fourteen observations.
//!
//! Run with: `cargo run --release --example assess_apollo [scale]`
//! where `scale` ∈ (0, 1] scales the corpus (default 0.25; 1.0 is the
//! full ≈220k-LOC corpus and takes a few minutes in debug builds).

use adsafe::corpus::{generate, ApolloSpec};
use adsafe::{assess_corpus, render, AssessmentOptions};

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.25);
    let report_path = std::env::args().nth(2);
    let full = ApolloSpec::paper_scale();
    let spec = if (scale - 1.0).abs() < 1e-9 {
        full
    } else {
        ApolloSpec {
            modules: full.modules.iter().map(|m| m.scaled(scale)).collect(),
            seed: full.seed,
        }
    };

    eprintln!("generating corpus at scale {scale} ...");
    let files = generate(&spec);
    let total_lines: usize = files.iter().map(|f| f.text.lines().count()).sum();
    eprintln!("  {} files, {} lines", files.len(), total_lines);

    eprintln!("measuring YOLO coverage (Figure 5) for the unit-testing section ...");
    let (_, coverage) = adsafe::experiments::fig5_yolo_coverage();

    eprintln!("running assessment (parse + metrics + 30 checks) ...");
    let options = AssessmentOptions {
        coverage: Some(coverage),
        ..AssessmentOptions::default()
    };
    let report = assess_corpus(&files, options);

    println!("{}", render::table1(&report).to_ascii());
    println!("{}", render::table2(&report).to_ascii());
    println!("{}", render::table3(&report).to_ascii());
    if let Some(t) = render::coverage_table(&report) {
        println!("{}", t.to_ascii());
    }
    println!("{}", render::fig3(&report).to_ascii(48));

    println!("== Observations ==");
    print!("{}", render::observations_text(&report));

    if let Some(path) = report_path {
        std::fs::write(&path, render::full_report_markdown(&report))
            .unwrap_or_else(|e| eprintln!("cannot write {path}: {e}"));
        eprintln!("full Markdown report written to {path}");
    }

    println!();
    println!(
        "Summary: {} findings, {} of 25 topics blocking at {}, compliance ratio {:.0}%",
        report.diagnostics.len(),
        report.compliance.blocking_count(),
        report.compliance.asil,
        report.compliance.compliance_ratio() * 100.0
    );
}
