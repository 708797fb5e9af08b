//! F3 — paper Figure 3: per-module LOC, function counts, and the
//! cyclomatic-complexity histogram (554 functions over CC 10 at paper
//! scale). Prints the figure, then benchmarks the Lizard-equivalent
//! stage (parse + complexity) per module.

use adsafe::corpus::{generate, ApolloSpec};
use adsafe::lang::parse_source;
use adsafe::metrics::cyclomatic_complexity;
use adsafe::{assess_corpus, render, AssessmentOptions};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

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
    println!("{}", render::fig3(&report).to_ascii(40));
    println!(
        "functions over CC 10: {} (paper-scale spec calibrates to 554)\n",
        report.evidence.functions_over_cc10
    );

    let perception: Vec<_> = files
        .iter()
        .filter(|f| f.module == "perception")
        .cloned()
        .collect();
    let mut g = c.benchmark_group("fig3");
    g.sample_size(10);
    g.bench_function("parse_and_cc_perception", |b| {
        b.iter_batched(
            || perception.clone(),
            |files| {
                let mut total = 0u64;
                for f in &files {
                    let parsed = parse_source(adsafe::lang::FileId(0), &f.text);
                    for func in parsed.unit.functions() {
                        total += u64::from(cyclomatic_complexity(func));
                    }
                }
                total
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
