//! The YOLO-mini coverage corpus: darknet-style C sources (in the
//! interpretable mini-C subset) plus the real-scenario test set, i.e.
//! the inputs to the paper's Figure 5 experiment.
//!
//! The paper ran "several real-scenario tests" over Apollo's object
//! detection (YOLO) and measured low coverage (averages 83/75/61% for
//! statement/branch/MC-DC; minima 19/37/10%) because inference-only
//! scenarios never reach training paths, alternative layer configs, or
//! error handling. The corpus reproduces that structure: each file
//! contains both the hot inference path and the cold paths real YOLO
//! carries along.

use adsafe_coverage::{CoverageHarness, TestCase, Value};

/// One source file of the YOLO-mini corpus: `(file name, text)`.
pub const YOLO_FILES: [(&str, &str); 10] = [
    (
        "activations.c",
        include_str!("../assets/yolo/activations.c"),
    ),
    ("blas.c", include_str!("../assets/yolo/blas.c")),
    ("gemm.c", include_str!("../assets/yolo/gemm.c")),
    ("im2col.c", include_str!("../assets/yolo/im2col.c")),
    ("col2im.c", include_str!("../assets/yolo/col2im.c")),
    (
        "convolutional.c",
        include_str!("../assets/yolo/convolutional.c"),
    ),
    ("maxpool.c", include_str!("../assets/yolo/maxpool.c")),
    ("box.c", include_str!("../assets/yolo/box.c")),
    ("region.c", include_str!("../assets/yolo/region.c")),
    ("network.c", include_str!("../assets/yolo/network.c")),
];

/// Additional utility files linked but reported separately.
pub const YOLO_SUPPORT_FILES: [(&str, &str); 2] = [
    ("image.c", include_str!("../assets/yolo/image.c")),
    ("utils.c", include_str!("../assets/yolo/utils.c")),
];

/// The paper's Figure 4 CUDA excerpt (checker exhibit).
pub const SCALE_BIAS_CU: &str = include_str!("../assets/cuda/scale_bias.cu");

/// The Figure 6 stencil CUDA kernels.
pub const STENCIL_CU: &str = include_str!("../assets/cuda/stencil.cu");

/// Builds a linked coverage harness over the full YOLO-mini corpus.
pub fn harness() -> CoverageHarness {
    let mut h = CoverageHarness::new();
    for (path, text) in YOLO_FILES.iter().chain(YOLO_SUPPORT_FILES.iter()) {
        h.add_file(path, text);
    }
    h.link();
    h
}

/// The real-scenario test set: end-to-end detections over synthetic
/// frames at different object positions/sizes/thresholds, plus the
/// handful of direct calls an integration suite would add.
pub fn real_scenarios() -> Vec<TestCase> {
    let mut tests = vec![
        TestCase::new(
            "detect centered object",
            "detect_scene",
            vec![
                Value::Int(16),
                Value::Int(8),
                Value::Int(8),
                Value::Int(3),
                Value::Int(3),
                Value::Float(0.1),
            ],
        ),
        TestCase::new(
            "detect off-center object",
            "detect_scene",
            vec![
                Value::Int(16),
                Value::Int(3),
                Value::Int(12),
                Value::Int(2),
                Value::Int(3),
                Value::Float(0.12),
            ],
        ),
        TestCase::new(
            "detect with high threshold (no detections)",
            "detect_scene",
            vec![
                Value::Int(16),
                Value::Int(8),
                Value::Int(8),
                Value::Int(3),
                Value::Int(3),
                Value::Float(0.99),
            ],
        ),
        TestCase::new(
            "detect large object",
            "detect_scene",
            vec![
                Value::Int(16),
                Value::Int(8),
                Value::Int(8),
                Value::Int(7),
                Value::Int(3),
                Value::Float(0.08),
            ],
        ),
    ];
    // A few direct calls, as an integrator's smoke tests would add.
    tests.push(TestCase::new(
        "iou of overlapping boxes",
        "box_iou_pair",
        vec![],
    ));
    tests.push(TestCase::new("col2im smoke", "col2im_smoke", vec![]));
    tests
}

/// Extra entry points the scenario tests use (kept out of the measured
/// files so they don't distort coverage).
pub const SCENARIO_DRIVERS: &str = "\
float box_iou_pair() {\n\
    float* a = malloc(16);\n\
    float* b = malloc(16);\n\
    a[0] = 0.5f; a[1] = 0.5f; a[2] = 0.4f; a[3] = 0.4f;\n\
    b[0] = 0.6f; b[1] = 0.5f; b[2] = 0.4f; b[3] = 0.4f;\n\
    float r = box_iou(a, b);\n\
    free(a); free(b);\n\
    return r;\n\
}\n\
int col2im_smoke() {\n\
    float* data = malloc(16);\n\
    for (int i = 0; i < 4; i++) { data[i] = 1.0f; }\n\
    return col2im_checksum(data, 4);\n\
}\n";

/// Harness with the scenario drivers linked in.
pub fn harness_with_drivers() -> CoverageHarness {
    let mut h = CoverageHarness::new();
    for (path, text) in YOLO_FILES.iter().chain(YOLO_SUPPORT_FILES.iter()) {
        h.add_file(path, text);
    }
    h.add_file("scenario_drivers.c", SCENARIO_DRIVERS);
    h.link();
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsafe_lang::{parse_source, FileId};

    #[test]
    fn all_files_parse_cleanly() {
        for (path, text) in YOLO_FILES.iter().chain(YOLO_SUPPORT_FILES.iter()) {
            let parsed = parse_source(FileId(0), text);
            assert_eq!(parsed.unit.recovery_count, 0, "{path} has opaque regions");
            assert!(
                !parsed.unit.functions().is_empty(),
                "{path} has no functions"
            );
        }
    }

    #[test]
    fn scenarios_execute_successfully() {
        let h = harness_with_drivers();
        let (_, outcomes) = h.measure(&real_scenarios());
        for o in &outcomes {
            assert!(
                o.result.is_ok(),
                "scenario `{}` failed: {:?}",
                o.name,
                o.result
            );
        }
    }

    #[test]
    fn centered_object_is_detected() {
        let h = harness_with_drivers();
        let (_, outcomes) = h.measure(&real_scenarios()[..1]);
        let n = outcomes[0].result.as_ref().unwrap().as_i64();
        assert!(n >= 1, "expected at least one detection, got {n}");
    }

    #[test]
    fn coverage_profile_matches_paper_shape() {
        // Figure 5: averages 83/75/61 (stmt/branch/MCDC), minima 19/37/10.
        let h = harness_with_drivers();
        let (cov, _) = h.measure(&real_scenarios());
        let measured: Vec<_> = cov
            .iter()
            .filter(|c| YOLO_FILES.iter().any(|(p, _)| *p == c.label))
            .collect();
        assert_eq!(measured.len(), YOLO_FILES.len());
        let avg = |f: &dyn Fn(&&adsafe_coverage::AggregateCoverage) -> f64| {
            measured.iter().map(&f).sum::<f64>() / measured.len() as f64
        };
        let stmt_avg = avg(&|c| c.statement_pct(true));
        let branch_avg = avg(&|c| c.branch_pct(true));
        let mcdc_avg = avg(&|c| c.mcdc_pct(true));
        // The paper's qualitative result: incomplete, ordered
        // stmt > branch > MC/DC, with MC/DC clearly lowest.
        assert!(stmt_avg < 100.0, "stmt avg = {stmt_avg}");
        assert!((60.0..=95.0).contains(&stmt_avg), "stmt avg = {stmt_avg}");
        assert!(
            (50.0..=90.0).contains(&branch_avg),
            "branch avg = {branch_avg}"
        );
        assert!((30.0..=80.0).contains(&mcdc_avg), "mcdc avg = {mcdc_avg}");
        assert!(stmt_avg > branch_avg, "{stmt_avg} vs {branch_avg}");
        assert!(branch_avg > mcdc_avg, "{branch_avg} vs {mcdc_avg}");
        // Minima: at least one file far below average (the paper's
        // 19%/37%/10% files).
        let stmt_min = measured
            .iter()
            .map(|c| c.statement_pct(true))
            .fold(f64::MAX, f64::min);
        assert!(stmt_min < 50.0, "stmt min = {stmt_min}");
    }

    #[test]
    fn figure4_excerpt_is_cuda() {
        let parsed = parse_source(FileId(0), SCALE_BIAS_CU);
        assert!(adsafe_lang::cuda::is_cuda_unit(&parsed.unit));
        assert_eq!(adsafe_lang::cuda::kernels(&parsed.unit).len(), 1);
    }
}
