//! F4 — paper Figure 4: the `scale_bias_gpu` CUDA excerpt and the
//! findings that make CUDA intrinsically at odds with ISO 26262
//! (pointers, dynamic device memory). Prints the findings, then
//! benchmarks the CUDA rules, the native rules and a whole assessment
//! on the excerpt.

use adsafe::checkers::{default_checks, run_checks, AnalysisSet};
use adsafe::corpus::yolo::SCALE_BIAS_CU;
use adsafe::experiments::fig4_findings;
use adsafe::Assessment;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    println!("Figure 4 exhibit — findings on scale_bias_gpu:");
    for f in fig4_findings() {
        println!("  {f}");
    }
    println!();

    let mut set = AnalysisSet::new();
    set.add("perception", "scale_bias.cu", SCALE_BIAS_CU);
    let cx = set.context();
    let mut g = c.benchmark_group("fig4");
    // The CUDA rules are native (closed-source calls) and bundled
    // `.aq` rules (the rest), so they are timed as an assessment runs
    // them, filtered to their ids.
    const CUDA_RULES: [&str; 4] = [
        "cuda-kernel-pointer",
        "cuda-alloc-balance",
        "cuda-launch-unchecked",
        "cuda-closed-source-lib",
    ];
    g.bench_function("cuda_rules_on_excerpt", |b| {
        b.iter(|| {
            let mut a = Assessment::new();
            a.add_file("perception", "scale_bias.cu", SCALE_BIAS_CU);
            let report = a.run();
            report
                .diagnostics
                .into_iter()
                .filter(|d| CUDA_RULES.contains(&d.check_id))
                .count()
        })
    });
    // The native rules alone, run over a parsed analysis set.
    g.bench_function("native_checks_on_excerpt", |b| {
        let checks = default_checks();
        b.iter(|| run_checks(&checks, &cx))
    });
    // Every rule — natives and the bundled pack — as an assessment
    // runs them, end to end from source text.
    g.bench_function("assessment_on_excerpt", |b| {
        b.iter(|| {
            let mut a = Assessment::new();
            a.add_file("perception", "scale_bias.cu", SCALE_BIAS_CU);
            a.run().diagnostics.len()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
