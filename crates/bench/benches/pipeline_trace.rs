//! P0 — the pipeline perf baseline: runs the full assessment over the
//! test-scale Apollo corpus under tracing and writes the per-phase wall
//! times as `BENCH_pipeline.json` (schema `adsafe-bench-pipeline/1`).
//!
//! The committed copy at the repository root is the baseline CI
//! regresses against via `adsafe trace-compare` (fail at >2× per
//! phase, 1 ms noise floor). Regenerate it with:
//!
//! ```text
//! cargo bench -p adsafe-bench --bench pipeline_trace -- BENCH_pipeline.json
//! ```

use adsafe::corpus::{generate, ApolloSpec};
use adsafe::trace::bench::BenchBaseline;
use adsafe::{assess_corpus, AssessmentOptions};

/// Runs over the fastest of this many runs, discarding warm-up noise.
const RUNS: usize = 3;

fn main() {
    // Criterion-style invocations pass `--bench`/filter args; the only
    // operand we honour is an output path.
    let out_path = std::env::args()
        .skip(1)
        .find(|a| a.ends_with(".json"))
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());

    let spec = ApolloSpec::test_scale();
    let files = generate(&spec);
    eprintln!(
        "pipeline_trace: assessing {} generated files x{RUNS} ...",
        files.len()
    );

    let mut best: Option<BenchBaseline> = None;
    for run in 0..RUNS {
        let report = assess_corpus(&files, AssessmentOptions::default());
        let b = BenchBaseline::from_summary(&report.trace);
        eprintln!(
            "  run {}: {:.2} ms total, {} phases, {} faults",
            run + 1,
            b.total_ms,
            b.phases.len(),
            report.faults.len()
        );
        if best.as_ref().is_none_or(|prev| b.total_ms < prev.total_ms) {
            best = Some(b);
        }
    }
    let best = best.expect("RUNS > 0");
    let json = best.to_json();
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("pipeline_trace: cannot write {out_path}: {e}");
        std::process::exit(3);
    }
    println!("{json}");
    eprintln!("pipeline_trace: baseline written to {out_path}");
}
