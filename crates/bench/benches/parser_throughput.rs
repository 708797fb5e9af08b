//! Front-end throughput: lexing and error-tolerant parsing of generated
//! industrial-shaped C++ — the cost floor under every static analysis in
//! the paper (220k LOC must be parseable in seconds, as Lizard is).

use adsafe::corpus::{generate, ApolloSpec};
use adsafe::lang::{lexer::lex, parse_source, preprocess::preprocess, FileId};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

fn bench(c: &mut Criterion) {
    let spec = {
        let full = ApolloSpec::paper_scale();
        ApolloSpec {
            modules: full.modules.iter().map(|m| m.scaled(0.05)).collect(),
            seed: full.seed,
        }
    };
    let files = generate(&spec);
    let blob: String = files
        .iter()
        .map(|f| f.text.as_str())
        .collect::<Vec<_>>()
        .join("\n");
    let bytes = blob.len() as u64;
    println!(
        "parser throughput corpus: {} bytes, {} files",
        bytes,
        files.len()
    );

    let mut g = c.benchmark_group("frontend");
    g.sample_size(10);
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("preprocess", |b| b.iter(|| preprocess(FileId(0), &blob)));
    g.bench_function("lex", |b| {
        let pre = preprocess(FileId(0), &blob);
        b.iter(|| lex(FileId(0), &pre.text))
    });
    g.bench_function("parse_full", |b| b.iter(|| parse_source(FileId(0), &blob)));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
