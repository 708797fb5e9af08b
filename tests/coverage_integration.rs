//! Integration of the coverage engine with the corpora: the Figure 5
//! and Figure 6 experiments end-to-end, plus cross-checks between the
//! interpreter and the native Rust kernels.

use adsafe::corpus::yolo::{harness_with_drivers, real_scenarios};
use adsafe::corpus::{cuda_to_cpu, yolo::STENCIL_CU};
use adsafe::coverage::{CoverageHarness, TestCase, Value};
use adsafe::experiments::{fig5_yolo_coverage, fig6_stencil_coverage};

#[test]
fn fig5_matches_paper_shape_and_order() {
    let (fig, avg) = fig5_yolo_coverage();
    // Paper averages 83/75/61: same ordering, all incomplete.
    assert!(avg.statement_pct > avg.branch_pct, "{avg:?}");
    assert!(avg.branch_pct > avg.mcdc_pct, "{avg:?}");
    assert!(
        avg.statement_pct < 100.0 && avg.statement_pct > 60.0,
        "{avg:?}"
    );
    assert!((50.0..100.0).contains(&avg.branch_pct), "{avg:?}");
    assert!((30.0..90.0).contains(&avg.mcdc_pct), "{avg:?}");
    // Per-file minima well below the average (paper: 19/37/10).
    for (name, series) in &fig.series {
        let min = series.iter().cloned().fold(f64::MAX, f64::min);
        assert!(min < 60.0, "{name} min = {min}");
    }
}

#[test]
fn fig5_more_tests_more_coverage() {
    let h = harness_with_drivers();
    let all = real_scenarios();
    let (one, _) = h.measure(&all[..1]);
    let (full, _) = h.measure(&all);
    let total = |cov: &[adsafe::coverage::AggregateCoverage]| -> f64 {
        cov.iter().map(|c| c.statement_pct(false)).sum()
    };
    assert!(total(&full) > total(&one), "coverage must grow with tests");
}

#[test]
fn fig6_stencils_run_and_stay_incomplete() {
    let fig = fig6_stencil_coverage();
    for (name, values) in &fig.series {
        for (label, v) in fig.labels.iter().zip(values) {
            assert!(*v >= 45.0, "{label} {name} executed most code, got {v}");
            assert!(
                *v < 100.0,
                "{label} {name} must miss the halo path, got {v}"
            );
        }
    }
}

#[test]
fn translated_stencil_matches_native_kernel() {
    // The CUDA-translated interpreted stencil and the native Rust
    // stencil2d agree on every interior cell.
    let (h, w) = (6usize, 5usize);
    let input: Vec<f32> = (0..h * w).map(|i| (i % 7) as f32).collect();
    let mut expected = vec![0.0f32; h * w];
    adsafe::gpu::kernels::stencil2d(h, w, &input, &mut expected, 0.5, 0.125);

    let translated = cuda_to_cpu(STENCIL_CU);
    let mut harness = CoverageHarness::new();
    harness.add_file("stencil_cpu.c", &translated.source);
    harness.add_file(
        "probe.c",
        "float probe(int h, int w, int y, int x) {\n\
         float* in = malloc(h * w * 4);\n\
         float* out = malloc(h * w * 4);\n\
         for (int i = 0; i < h * w; i++) { in[i] = (i % 7) * 1.0f; }\n\
         stencil2d_kernel_cpu(in, out, h, w, 0.5f, 0.125f, 0, 1, 1, w, h);\n\
         float r = out[y * w + x];\n\
         free(in); free(out);\n\
         return r;\n}",
    );
    harness.link();
    for y in 0..h {
        for x in 0..w {
            let (_, outcomes) = harness.measure(&[TestCase::new(
                "probe",
                "probe",
                vec![
                    Value::Int(h as i64),
                    Value::Int(w as i64),
                    Value::Int(y as i64),
                    Value::Int(x as i64),
                ],
            )]);
            let got = outcomes[0].result.as_ref().expect("probe runs").as_f64() as f32;
            assert!(
                (got - expected[y * w + x]).abs() < 1e-4,
                "cell ({y},{x}): interpreted {got} vs native {}",
                expected[y * w + x]
            );
        }
    }
}

#[test]
fn scenario_failures_do_not_poison_the_run() {
    let h = harness_with_drivers();
    let mut tests = real_scenarios();
    tests.push(TestCase::new("bogus entry", "no_such_function", vec![]));
    let (cov, outcomes) = h.measure(&tests);
    assert!(outcomes.last().unwrap().result.is_err());
    assert!(outcomes[..outcomes.len() - 1]
        .iter()
        .all(|o| o.result.is_ok()));
    assert!(!cov.is_empty());
}

#[test]
fn mcdc_is_never_above_branch_per_file() {
    let (fig, _) = fig5_yolo_coverage();
    let branch = &fig.series[1].1;
    let mcdc = &fig.series[2].1;
    for (i, label) in fig.labels.iter().enumerate() {
        assert!(
            mcdc[i] <= branch[i] + 1e-9,
            "{label}: MC/DC {} > branch {}",
            mcdc[i],
            branch[i]
        );
    }
}

#[test]
fn tight_loop_terminates_with_step_limit_fault() {
    // A watchdog-style guard rail: a runaway loop in analysed code must
    // surface as `StepLimit`, not hang the assessment.
    use adsafe::coverage::{Interp, InterpError, Limits, Program};
    use adsafe::lang::{parse_source, SourceMap};

    let src = "int spin(int n) {\n\
               int acc = 0;\n\
               while (1) { acc = acc + n; }\n\
               return acc;\n\
               }\n";
    let mut sm = SourceMap::new();
    let id = sm.add_file("spin.c", src);
    let parsed = parse_source(id, sm.file(id).text());
    let program = Program::from_units(&[&parsed.unit]);
    let mut interp = Interp::new(&program).with_limits(Limits {
        max_steps: 10_000,
        max_depth: 96,
    });
    let err = interp
        .call("spin", vec![adsafe::coverage::Value::Int(1)])
        .expect_err("tight loop must hit the step budget");
    assert!(matches!(err, InterpError::StepLimit), "got {err}");
}

#[test]
fn deep_recursion_terminates_with_stack_overflow_fault() {
    use adsafe::coverage::{Interp, InterpError, Limits, Program};
    use adsafe::lang::{parse_source, SourceMap};

    let src = "int dive(int n) { return dive(n + 1); }\n";
    let mut sm = SourceMap::new();
    let id = sm.add_file("dive.c", src);
    let parsed = parse_source(id, sm.file(id).text());
    let program = Program::from_units(&[&parsed.unit]);
    let mut interp = Interp::new(&program).with_limits(Limits {
        max_steps: 10_000_000,
        max_depth: 64,
    });
    let err = interp
        .call("dive", vec![adsafe::coverage::Value::Int(0)])
        .expect_err("unbounded recursion must hit the depth budget");
    assert!(matches!(err, InterpError::StackOverflow), "got {err}");
}

#[test]
fn bounded_recursion_within_budget_succeeds() {
    // The guard rails must not fire on well-behaved code: the same
    // budgets admit a recursion that stays within depth.
    use adsafe::coverage::{Interp, Limits, Program, Value};
    use adsafe::lang::{parse_source, SourceMap};

    let src = "int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }\n";
    let mut sm = SourceMap::new();
    let id = sm.add_file("fact.c", src);
    let parsed = parse_source(id, sm.file(id).text());
    let program = Program::from_units(&[&parsed.unit]);
    let mut interp = Interp::new(&program).with_limits(Limits {
        max_steps: 10_000,
        max_depth: 64,
    });
    let v = interp
        .call("fact", vec![Value::Int(10)])
        .expect("bounded recursion passes");
    assert_eq!(v.as_i64(), 3_628_800);
}
