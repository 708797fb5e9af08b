//! Query-engine perf baseline: compiles the bundled five-rule pack
//! repeatedly (front-end throughput) and runs the full assessment over
//! the test-scale Apollo corpus with the default rules (natives plus
//! the bundled pack), then writes the native-vs-query phase split and
//! VM counters as `BENCH_query.json`
//! (schema `adsafe-bench-pipeline/1`, so `adsafe trace-compare` gates
//! it with the standard 2x comparator).
//!
//! Regenerate the committed baseline with:
//!
//! ```text
//! cargo bench -p adsafe-bench --bench query_throughput -- BENCH_query.json
//! ```

use adsafe::corpus::{generate, ApolloSpec};
use adsafe::rulequery::RulePack;
use adsafe::trace::bench::BenchBaseline;
use adsafe::{assess_corpus, AssessmentOptions};
use std::time::Instant;

/// Best-of runs, discarding warm-up noise.
const RUNS: usize = 3;
/// Pack compilations per front-end timing loop.
const COMPILES: usize = 200;

fn compile_pack() -> RulePack {
    let pack = RulePack::builtin();
    assert!(pack.faults.is_empty(), "{:?}", pack.faults);
    assert_eq!(pack.rules.len(), 5);
    pack
}

fn main() {
    let out_path = std::env::args()
        .skip(1)
        .find(|a| a.ends_with(".json"))
        .unwrap_or_else(|| "BENCH_query.json".to_string());

    let files = generate(&ApolloSpec::test_scale());
    eprintln!(
        "query_throughput: {COMPILES} pack compiles + {} files x{RUNS} assessments ...",
        files.len()
    );

    // Front end: lex + parse + typecheck + bytecode for 5 rules.
    let start = Instant::now();
    for _ in 0..COMPILES {
        std::hint::black_box(compile_pack());
    }
    let compile_ms = start.elapsed().as_secs_f64() * 1000.0;

    // Back end: the pipeline's native/query phase split and VM effort.
    let mut best: Option<(f64, f64, f64, u64, u64)> = None;
    for run in 0..RUNS {
        let report = assess_corpus(&files, AssessmentOptions::default());
        let phase_ms = |name: &str| report.trace.phase_ms(name).unwrap_or(0.0);
        let total_ms = report.trace.total_us as f64 / 1000.0;
        let native_ms = phase_ms("checks.native");
        let query_ms = phase_ms("checks.query");
        let steps = report.trace.counter("query.vm.steps");
        let bundled = &adsafe::query::bundled_rules().rules;
        let diags = report
            .diagnostics
            .iter()
            .filter(|d| bundled.iter().any(|r| r.id == d.check_id))
            .count() as u64;
        eprintln!(
            "  run {}: {total_ms:.2} ms total, native {native_ms:.2} ms, \
             query {query_ms:.2} ms, {steps} VM steps, {diags} query findings",
            run + 1
        );
        if best.as_ref().is_none_or(|(t, ..)| total_ms < *t) {
            best = Some((total_ms, native_ms, query_ms, steps, diags));
        }
    }
    let (total_ms, native_ms, query_ms, steps, diags) = best.expect("RUNS > 0");

    let baseline = BenchBaseline {
        phases: vec![
            ("query.compile".to_string(), compile_ms),
            ("checks.native".to_string(), native_ms),
            ("checks.query".to_string(), query_ms),
        ],
        total_ms,
        // Deterministic counters only: VM effort and finding counts
        // repeat exactly run-to-run, so drift here is a real change.
        counters: vec![
            ("query.diags".to_string(), diags),
            ("query.pack.compiles".to_string(), COMPILES as u64),
            ("query.rules".to_string(), 5),
            ("query.vm.steps".to_string(), steps),
        ],
    };
    let json = baseline.to_json();
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("query_throughput: cannot write {out_path}: {e}");
        std::process::exit(3);
    }
    println!("{json}");
    eprintln!("query_throughput: baseline written to {out_path}");
}
