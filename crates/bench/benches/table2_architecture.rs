//! T2 — paper Table 2 (ISO 26262-6 Table 3): architectural-design
//! verdicts (component size, interfaces, cohesion, coupling). Prints the
//! regenerated table, then benchmarks the architecture-metric stage
//! (module metrics + cohesion + coupling) in isolation.

use adsafe::checkers::AnalysisSet;
use adsafe::corpus::{generate, ApolloSpec};
use adsafe::metrics::module_metrics;
use adsafe::{assess_corpus, render, AssessmentOptions};
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let spec = {
        let full = ApolloSpec::paper_scale();
        ApolloSpec {
            modules: full.modules.iter().map(|m| m.scaled(0.1)).collect(),
            seed: full.seed,
        }
    };
    let files = generate(&spec);
    let report = assess_corpus(&files, AssessmentOptions::default());
    println!("{}", render::table2(&report).to_ascii());

    // Pre-parse once; benchmark only the metric aggregation.
    let mut set = AnalysisSet::new();
    for f in &files {
        set.add(&f.module, &f.path, &f.text);
    }
    let cx = set.context();
    let mut g = c.benchmark_group("table2");
    g.sample_size(10);
    g.bench_function("module_metrics_all", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            for m in cx.modules() {
                let files: Vec<_> = cx
                    .module_entries(m)
                    .into_iter()
                    .map(|e| (e.file, e.unit))
                    .collect();
                out.push(module_metrics(m, &files));
            }
            out
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
