//! Series generators for the paper's performance figures.

use crate::library::{GemmShape, Library};
use crate::workloads::{conv_suites, gemm_dnn_shapes, gemm_sweep, yolo_layers, ConvWorkload};

/// One named series point.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// X label (shape or workload name).
    pub label: String,
    /// Y value.
    pub value: f64,
}

/// Figure 7: end-to-end object-detection time per implementation, in
/// milliseconds, summed over the YOLO layer stack.
pub fn fig7_detection_times() -> Vec<Point> {
    let layers = yolo_layers();
    let impls: [(&str, Library, bool); 6] = [
        ("cuBLAS (closed, GPU)", Library::CuBlas, false),
        ("cuDNN (closed, GPU)", Library::CuDnn, true),
        ("CUTLASS (open, GPU)", Library::Cutlass, false),
        ("ISAAC (open, GPU)", Library::Isaac, true),
        ("ATLAS (open, CPU)", Library::Atlas, false),
        ("OpenBLAS (open, CPU)", Library::OpenBlas, false),
    ];
    impls
        .iter()
        .map(|(name, lib, conv_path)| {
            let total_s: f64 = layers
                .iter()
                .map(|l| {
                    if *conv_path {
                        lib.conv_time_s(&l.gemm, l.irregular)
                    } else {
                        lib.gemm_time_s(&l.gemm)
                    }
                })
                .sum();
            Point {
                label: name.to_string(),
                value: total_s * 1e3,
            }
        })
        .collect()
}

/// Figure 8a: CUTLASS performance relative to cuBLAS (1.0 = parity) over
/// the square sweep plus DNN shapes.
pub fn fig8a_cutlass_vs_cublas() -> Vec<Point> {
    let mut shapes: Vec<(String, GemmShape)> = gemm_sweep()
        .into_iter()
        .map(|s| (format!("sgemm-{}", s.m), s))
        .collect();
    shapes.extend(
        gemm_dnn_shapes()
            .into_iter()
            .map(|s| (format!("dnn-{}x{}x{}", s.m, s.n, s.k), s)),
    );
    shapes
        .into_iter()
        .map(|(label, s)| Point {
            label,
            value: Library::CuBlas.gemm_time_s(&s) / Library::Cutlass.gemm_time_s(&s),
        })
        .collect()
}

/// Figure 8b: ISAAC performance relative to cuDNN (1.0 = parity) over
/// the domain conv suites.
pub fn fig8b_isaac_vs_cudnn() -> Vec<Point> {
    conv_suites()
        .into_iter()
        .map(
            |ConvWorkload {
                 name,
                 gemm,
                 irregular,
             }| Point {
                label: name,
                value: Library::CuDnn.conv_time_s(&gemm, irregular)
                    / Library::Isaac.conv_time_s(&gemm, irregular),
            },
        )
        .collect()
}

/// Summary statistics of a relative-performance series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesSummary {
    /// Geometric mean of values.
    pub geomean: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

/// Summarises a series (empty series → all 1.0).
pub fn summarize(points: &[Point]) -> SeriesSummary {
    if points.is_empty() {
        return SeriesSummary {
            geomean: 1.0,
            min: 1.0,
            max: 1.0,
        };
    }
    let log_sum: f64 = points.iter().map(|p| p.value.max(1e-12).ln()).sum();
    SeriesSummary {
        geomean: (log_sum / points.len() as f64).exp(),
        min: points.iter().map(|p| p.value).fold(f64::MAX, f64::min),
        max: points.iter().map(|p| p.value).fold(f64::MIN, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_shape_open_matches_closed_cpu_far_behind() {
        let pts = fig7_detection_times();
        assert_eq!(pts.len(), 6);
        let get = |needle: &str| {
            pts.iter()
                .find(|p| p.label.contains(needle))
                .unwrap_or_else(|| panic!("{needle} missing"))
                .value
        };
        let cublas = get("cuBLAS");
        let cutlass = get("CUTLASS");
        let cudnn = get("cuDNN");
        let isaac = get("ISAAC");
        let atlas = get("ATLAS");
        let openblas = get("OpenBLAS");
        // Open GPU libraries competitive with closed ones (within ~35%).
        assert!(
            cutlass / cublas < 1.35,
            "CUTLASS {cutlass} vs cuBLAS {cublas}"
        );
        assert!(isaac / cudnn < 1.35, "ISAAC {isaac} vs cuDNN {cudnn}");
        // CPU BLAS about two orders of magnitude slower.
        assert!(atlas / cublas > 30.0, "ATLAS {atlas}");
        assert!(openblas / cublas > 30.0, "OpenBLAS {openblas}");
        assert!(openblas < atlas, "OpenBLAS beats ATLAS on modern CPUs");
    }

    #[test]
    fn fig8a_band_holds() {
        let pts = fig8a_cutlass_vs_cublas();
        assert!(pts.len() >= 16);
        let s = summarize(&pts);
        assert!((0.8..=1.1).contains(&s.geomean), "geomean = {}", s.geomean);
        assert!(s.min >= 0.7, "min = {}", s.min);
        assert!(s.max <= 1.25, "max = {}", s.max);
    }

    #[test]
    fn fig8b_isaac_wins_some_loses_some() {
        let pts = fig8b_isaac_vs_cudnn();
        assert!(pts.len() >= 10);
        let wins = pts.iter().filter(|p| p.value > 1.0).count();
        assert!(wins >= 2, "ISAAC should win somewhere, wins = {wins}");
        assert!(wins < pts.len(), "cuDNN should win somewhere");
        let s = summarize(&pts);
        assert!(
            (0.85..=1.15).contains(&s.geomean),
            "geomean = {}",
            s.geomean
        );
    }

    #[test]
    fn series_are_deterministic() {
        assert_eq!(fig7_detection_times(), fig7_detection_times());
        assert_eq!(fig8a_cutlass_vs_cublas(), fig8a_cutlass_vs_cublas());
        assert_eq!(fig8b_isaac_vs_cudnn(), fig8b_isaac_vs_cudnn());
    }

    #[test]
    fn summarize_empty() {
        let s = summarize(&[]);
        assert_eq!(s.geomean, 1.0);
    }
}
