//! Observation 10, made actionable: list the exact coverage obligations
//! the real-scenario tests leave open in the YOLO corpus, and propose
//! MC/DC test vectors for an uncovered decision.
//!
//! Run with: `cargo run --release --example coverage_gaps`

use adsafe::corpus::yolo::{harness_with_drivers, real_scenarios, YOLO_FILES};
use adsafe::coverage::{suggest_mcdc_pair, summarize_gaps};

fn main() {
    let h = harness_with_drivers();
    let (log, _) = h.run(&real_scenarios());

    println!("== Outstanding coverage obligations per file ==\n");
    let mut total = adsafe::coverage::GapSummary::default();
    for (path, gaps) in h.file_gaps(&log) {
        if !YOLO_FILES.iter().any(|(p, _)| *p == path) {
            continue;
        }
        let s = summarize_gaps(&gaps);
        total.statements += s.statements;
        total.branches += s.branches;
        total.cases += s.cases;
        total.conditions += s.conditions;
        println!(
            "{path:20} {:3} statements, {:3} branch edges, {:2} cases, {:3} MC/DC conditions",
            s.statements, s.branches, s.cases, s.conditions
        );
    }
    println!(
        "\ntotal: {} statements, {} branch edges, {} cases, {} conditions still open",
        total.statements, total.branches, total.cases, total.conditions
    );

    // A concrete MC/DC suggestion: the im2col bounds check
    // `r < 0 || c < 0 || r >= height || c >= width` has four conditions.
    println!("\n== Suggested MC/DC vectors for the im2col bounds decision ==");
    let eval = |v: &[bool]| v[0] || v[1] || v[2] || v[3];
    for cond in 0..4 {
        if let Some(s) = suggest_mcdc_pair(&[], 4, cond, eval) {
            println!(
                "  condition {}: test with {:?} then {:?}",
                cond, s.vector_a, s.vector_b
            );
        }
    }
    println!(
        "\nEach pair flips exactly one condition while holding the rest fixed\n\
         (the others false, since any true OR-term masks the rest)."
    );
}
