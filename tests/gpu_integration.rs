//! Integration of the GPU substrate: emulator vs native kernels, device
//! memory semantics, the YOLO pipeline across backends, and the
//! perf-model invariants the Figure 7/8 claims rest on.

use adsafe::gpu::{
    kernels, launch, launch_phased, synthetic_frame, Backend, DeviceContext, Dim3, GemmTuner,
    Phase, TuneMode, YoloNet,
};
use adsafe::perfmodel::{self, GemmShape, Library};

#[test]
fn emulated_gemm_matches_native() {
    // A straightforward CUDA-style GEMM on the emulator must equal the
    // native kernel.
    let (m, n, k) = (9usize, 7usize, 5usize);
    let a: Vec<f32> = (0..m * k).map(|i| (i % 4) as f32 - 1.5).collect();
    let b: Vec<f32> = (0..k * n).map(|i| (i % 3) as f32).collect();
    let mut c_native = vec![0.0f32; m * n];
    kernels::gemm_naive(m, n, k, &a, &b, &mut c_native);

    let mut c_emu = vec![0.0f32; m * n];
    launch(Dim3::xy(n as u32, m as u32), 1u32, |ctx| {
        let col = ctx.block_idx.x as usize;
        let row = ctx.block_idx.y as usize;
        let mut acc = 0.0f32;
        for p in 0..k {
            acc += a[row * k + p] * b[p * n + col];
        }
        c_emu[row * n + col] = acc;
    });
    assert_eq!(c_native, c_emu);
}

#[test]
fn phased_tiled_gemm_matches_native() {
    // Shared-memory tiling via the phased launcher (the __syncthreads
    // pattern) must agree with the native tiled GEMM.
    const T: usize = 4;
    let (m, n, k) = (8usize, 8usize, 8usize);
    let a: Vec<f32> = (0..m * k).map(|i| ((i * 5) % 7) as f32).collect();
    let b: Vec<f32> = (0..k * n).map(|i| ((i * 3) % 5) as f32).collect();
    let mut expected = vec![0.0f32; m * n];
    kernels::gemm_tiled(m, n, k, &a, &b, &mut expected, T);

    let mut c = vec![0.0f32; m * n];
    struct Shared {
        a_tile: [f32; T * T],
        b_tile: [f32; T * T],
        acc: [f32; T * T],
    }
    launch_phased(
        Dim3::xy((n / T) as u32, (m / T) as u32),
        Dim3::xy(T as u32, T as u32),
        || Shared {
            a_tile: [0.0; T * T],
            b_tile: [0.0; T * T],
            acc: [0.0; T * T],
        },
        |ctx, s: &mut Shared, phase| {
            let tx = ctx.thread_idx.x as usize;
            let ty = ctx.thread_idx.y as usize;
            let row = ctx.block_idx.y as usize * T + ty;
            let col = ctx.block_idx.x as usize * T + tx;
            let tiles = k / T;
            // Phases alternate load (even) / accumulate (odd); after the
            // last accumulate phase, write out.
            let step = phase / 2;
            if step < tiles {
                if phase % 2 == 0 {
                    s.a_tile[ty * T + tx] = a[row * k + step * T + tx];
                    s.b_tile[ty * T + tx] = b[(step * T + ty) * n + col];
                } else {
                    for p in 0..T {
                        s.acc[ty * T + tx] += s.a_tile[ty * T + p] * s.b_tile[p * T + tx];
                    }
                }
                Phase::Continue
            } else {
                c[row * n + col] = s.acc[ty * T + tx];
                Phase::Done
            }
        },
    );
    for (i, (x, y)) in expected.iter().zip(&c).enumerate() {
        assert!((x - y).abs() < 1e-4, "mismatch at {i}: {x} vs {y}");
    }
}

#[test]
fn device_memory_figure4_pattern_observable() {
    // The paper's Figure 4 pattern (alloc, copy in, launch, copy out)
    // leaves an observable allocation/transfer trail.
    let dev = DeviceContext::new();
    let host: Vec<f32> = (0..64).map(|i| i as f32).collect();
    {
        let mut d = dev.alloc_from(&host);
        let biases = dev.alloc_from(&[2.0f32; 4]);
        launch(4u32, 16u32, |ctx| {
            let i = ctx.global_x();
            d.as_mut_slice()[i] *= biases.as_slice()[i / 16];
        });
        let mut out = vec![0.0f32; 64];
        d.copy_to_host(&mut out);
        assert_eq!(out[10], 20.0);
    }
    let s = dev.stats();
    assert_eq!(s.allocs, 2);
    assert_eq!(s.frees, 2);
    assert_eq!(s.h2d_transfers, 2);
    assert_eq!(s.d2h_transfers, 1);
    assert_eq!(s.live_bytes, 0);
}

#[test]
fn yolo_backends_agree_and_detect() {
    let net = YoloNet::tiny(3, 64, 3, 5, 11);
    let img = synthetic_frame(3, 64, 32, 32, 3);
    let d_naive = net.detect(&img, Backend::Naive, -1e9);
    let d_tiled = net.detect(&img, Backend::Tiled, -1e9);
    let d_tuned = net.detect(&img, Backend::Autotuned, -1e9);
    assert!(!d_naive.is_empty());
    assert_eq!(d_naive.len(), d_tiled.len());
    assert_eq!(d_naive.len(), d_tuned.len());
    assert_eq!(d_naive[0].x, d_tiled[0].x);
    assert_eq!(d_naive[0].y, d_tuned[0].y);
}

#[test]
fn tuner_prefers_larger_tiles_for_larger_problems() {
    let mut t = GemmTuner::new(TuneMode::CostModel);
    let small = t.tile_for(16, 16, 16);
    let large = t.tile_for(1024, 1024, 1024);
    assert!(large >= small);
}

#[test]
fn perf_model_crossover_structure() {
    // Figure 7/8 structure: GPU >> CPU; open ≈ closed on GPU; the
    // ISAAC advantage concentrates on irregular shapes.
    let regular = GemmShape {
        m: 256,
        n: 4096,
        k: 1152,
    };
    let irregular = GemmShape {
        m: 16,
        n: 60_000,
        k: 64,
    };
    let cpu_gpu = Library::OpenBlas.gemm_time_s(&regular) / Library::CuBlas.gemm_time_s(&regular);
    assert!(cpu_gpu > 20.0, "CPU/GPU = {cpu_gpu}");
    let open_closed =
        Library::Cutlass.gemm_time_s(&regular) / Library::CuBlas.gemm_time_s(&regular);
    assert!(
        (0.8..1.4).contains(&open_closed),
        "open/closed = {open_closed}"
    );
    let isaac_reg =
        Library::CuDnn.conv_time_s(&regular, false) / Library::Isaac.conv_time_s(&regular, false);
    let isaac_irr =
        Library::CuDnn.conv_time_s(&irregular, true) / Library::Isaac.conv_time_s(&irregular, true);
    assert!(
        isaac_irr > isaac_reg,
        "input-aware tuning must pay off more on irregular shapes: {isaac_irr} vs {isaac_reg}"
    );
}

#[test]
fn measured_tiled_beats_naive_on_large_gemm() {
    // The real-kernel counterpart of Figure 8a's story: blocking wins.
    let s = 192usize;
    let a: Vec<f32> = (0..s * s).map(|i| (i % 13) as f32).collect();
    let b: Vec<f32> = (0..s * s).map(|i| (i % 7) as f32).collect();
    let mut c = vec![0.0f32; s * s];
    let t_naive = {
        let start = std::time::Instant::now();
        kernels::gemm_naive(s, s, s, &a, &b, &mut c);
        start.elapsed()
    };
    let t_tiled = {
        let start = std::time::Instant::now();
        kernels::gemm_tiled(s, s, s, &a, &b, &mut c, 32);
        start.elapsed()
    };
    // Debug builds are noisy; only require that tiling is not a big loss.
    assert!(
        t_tiled.as_secs_f64() < t_naive.as_secs_f64() * 2.0,
        "tiled {t_tiled:?} vs naive {t_naive:?}"
    );
    let _ = perfmodel::gemm_sweep();
}

#[test]
fn brook_api_is_clean() {
    // The paper's research direction (Brook Auto): a kernel dialect with
    // no pointers and no dynamic memory. The same scale_bias computation
    // written against a Brook-style C API produces zero findings from
    // the pointer/dynamic-memory/CUDA rules — contrast with the Figure 4
    // CUDA excerpt, which produces many.
    const BROOK_STYLE: &str = "\
typedef int Stream;\n\
float stream_get(Stream s, int i);\n\
void stream_set(Stream s, int i, float v);\n\
void scale_bias_brook(Stream output, Stream biases, int batch, int n,\n\
                      int size) {\n\
  for (int b = 0; b < batch; b++) {\n\
    for (int f = 0; f < n; f++) {\n\
      for (int o = 0; o < size; o++) {\n\
        int i = (b * n + f) * size + o;\n\
        stream_set(output, i, stream_get(output, i) * stream_get(biases, f));\n\
      }\n\
    }\n\
  }\n\
}\n";
    // The pointer, dynamic-memory and CUDA rules, native and bundled
    // alike, as an assessment runs them.
    const RISKY: [&str; 5] = [
        "misra-21.3-dynamic-memory",
        "cuda-kernel-pointer",
        "cuda-alloc-balance",
        "cuda-launch-unchecked",
        "defensive-pointer-param",
    ];
    let risky_findings = |path: &str, src: &str| {
        let mut a = adsafe::Assessment::new();
        a.add_file("perception", path, src);
        let report = a.run();
        report
            .diagnostics
            .into_iter()
            .filter(|d| RISKY.contains(&d.check_id))
            .collect::<Vec<_>>()
    };
    let findings = risky_findings("scale_bias_brook.c", BROOK_STYLE);
    assert!(
        findings.is_empty(),
        "Brook-style code must be clean: {findings:?}"
    );

    // The CUDA excerpt, through the same rules, is not.
    let cuda_findings = risky_findings("scale_bias.cu", adsafe::corpus::yolo::SCALE_BIAS_CU);
    assert!(
        cuda_findings.len() >= 4,
        "CUDA contrast: {}",
        cuda_findings.len()
    );

    // And the Rust-native Brook stream agrees with the raw kernel.
    let data: Vec<f32> = (0..24).map(|i| i as f32).collect();
    let out = adsafe::gpu::brook::scale_bias_brook(
        &adsafe::gpu::Stream::from_slice(&data),
        &adsafe::gpu::Stream::from_slice(&[2.0, 3.0, 4.0]),
        2,
        3,
    );
    let mut expected = data.clone();
    adsafe::gpu::kernels::scale_bias(&mut expected, &[2.0, 3.0, 4.0], 2, 3, 4);
    assert_eq!(out.to_vec(), expected);
}

#[test]
fn kernel_missing_barrier_faults_within_budget() {
    // A reduction kernel in which thread 0 waits for data that thread 1
    // never publishes: thread 1 keeps spinning at the barrier, so on
    // hardware the block would hang. The budgeted launcher must turn
    // that hang into a fault, within the configured phase budget.
    use adsafe::gpu::{launch_phased_budgeted, LaunchFault};

    let budget = 64u64;
    let fault = launch_phased_budgeted(
        1u32,
        4u32,
        budget,
        || vec![0.0f32; 4],
        |ctx, shared: &mut Vec<f32>, phase| {
            let tid = ctx.thread_rank();
            if tid == 1 {
                // Never converges: always asks for one more phase.
                Phase::Continue
            } else {
                shared[tid] = phase as f32;
                if phase >= 1 {
                    Phase::Done
                } else {
                    Phase::Continue
                }
            }
        },
    )
    .expect_err("kernel with a spinning thread must fault, not hang");
    match fault {
        // Threads 0,2,3 exit at phase 1 while thread 1 continues: the
        // emulator reports the barrier divergence at that phase — well
        // inside the budget.
        LaunchFault::BarrierDivergence {
            phase,
            continuing,
            exited,
            ..
        } => {
            assert!(phase < budget);
            assert_eq!(continuing, 1);
            assert_eq!(exited, 3);
        }
        LaunchFault::BarrierDeadlock { budget: b, .. } => assert_eq!(b, budget),
    }
}

#[test]
fn uniform_spin_reports_deadlock_at_budget() {
    use adsafe::gpu::{launch_phased_budgeted, LaunchFault};
    let fault = launch_phased_budgeted(2u32, 8u32, 32, || 0u32, |_, _, _| Phase::Continue)
        .expect_err("uniformly spinning block must be declared deadlocked");
    assert!(matches!(
        fault,
        LaunchFault::BarrierDeadlock { budget: 32, .. }
    ));
}
