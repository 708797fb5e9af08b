//! F8 — paper Figure 8: (a) CUTLASS vs cuBLAS over GEMM shapes and
//! (b) ISAAC vs cuDNN over conv workloads. Prints the modeled relative-
//! performance series, then measures the real-kernel analogue: naive vs
//! tiled vs autotuned GEMM across sizes, and direct vs im2col conv.

use adsafe::experiments::{fig8a, fig8b};
use adsafe::gpu::{kernels, GemmTuner, TuneMode};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn bench(c: &mut Criterion) {
    let a = fig8a();
    println!("{}", a.to_ascii(36));
    let b_fig = fig8b();
    println!("{}", b_fig.to_ascii(36));

    let mut g = c.benchmark_group("fig8_gemm_measured");
    g.sample_size(10);
    for size in [64usize, 128, 192] {
        let a_m: Vec<f32> = (0..size * size).map(|i| (i % 13) as f32).collect();
        let b_m: Vec<f32> = (0..size * size).map(|i| (i % 7) as f32).collect();
        let mut c_m = vec![0.0f32; size * size];
        g.bench_with_input(BenchmarkId::new("naive", size), &size, |bch, &s| {
            bch.iter(|| kernels::gemm_naive(s, s, s, &a_m, &b_m, &mut c_m))
        });
        g.bench_with_input(BenchmarkId::new("tiled32", size), &size, |bch, &s| {
            bch.iter(|| kernels::gemm_tiled(s, s, s, &a_m, &b_m, &mut c_m, 32))
        });
        g.bench_with_input(BenchmarkId::new("autotuned", size), &size, |bch, &s| {
            let mut tuner = GemmTuner::new(TuneMode::CostModel);
            bch.iter(|| tuner.gemm(s, s, s, &a_m, &b_m, &mut c_m))
        });
    }
    g.finish();

    let mut g = c.benchmark_group("fig8_conv_measured");
    g.sample_size(10);
    let shape = kernels::ConvShape {
        batch: 1,
        in_c: 8,
        in_h: 32,
        in_w: 32,
        out_c: 16,
        ksize: 3,
        stride: 1,
        pad: 1,
    };
    let input: Vec<f32> = (0..shape.input_len()).map(|i| (i % 9) as f32).collect();
    let weights: Vec<f32> = (0..shape.weight_len()).map(|i| (i % 5) as f32).collect();
    let mut out = vec![0.0f32; shape.output_len()];
    g.bench_function("direct", |b| {
        b.iter(|| kernels::conv2d_direct(&shape, &input, &weights, &mut out))
    });
    g.bench_function("im2col_gemm_tiled", |b| {
        b.iter(|| kernels::conv2d_im2col(&shape, &input, &weights, &mut out, 32))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
