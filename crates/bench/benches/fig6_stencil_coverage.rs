//! F6 — paper Figure 6: stmt/branch coverage of the CUDA stencils after
//! cuda4cpu-style translation. Prints the figure, then benchmarks the
//! translator and the instrumented stencil execution.

use adsafe::corpus::{cuda_to_cpu, yolo::STENCIL_CU};
use adsafe::coverage::{CoverageHarness, TestCase, Value};
use adsafe::experiments::fig6_stencil_coverage;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let fig = fig6_stencil_coverage();
    println!("{}", fig.to_ascii(40));

    let mut g = c.benchmark_group("fig6");
    g.bench_function("cuda_to_cpu_translation", |b| {
        b.iter(|| cuda_to_cpu(STENCIL_CU))
    });

    let translated = cuda_to_cpu(STENCIL_CU);
    let mut h = CoverageHarness::new();
    h.add_file("stencil_cpu.c", &translated.source);
    h.add_file(
        "driver.c",
        "float run2d(int h, int w) {\n\
         float* in = malloc(h * w * 4);\n\
         float* out = malloc(h * w * 4);\n\
         for (int i = 0; i < h * w; i++) { in[i] = (i % 7) * 1.0f; }\n\
         stencil2d_kernel_cpu(in, out, h, w, 0.5f, 0.125f, 0, 1, 1, w, h);\n\
         float r = out[w + 1];\n\
         free(in); free(out);\n\
         return r;\n}",
    );
    h.link();
    g.bench_function("instrumented_2d_stencil_16x16", |b| {
        let t = vec![TestCase::new(
            "2d",
            "run2d",
            vec![Value::Int(16), Value::Int(16)],
        )];
        b.iter(|| h.run(&t))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
