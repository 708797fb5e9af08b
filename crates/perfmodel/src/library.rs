//! Library models: shape-dependent efficiency curves for the closed- and
//! open-source GEMM/convolution libraries the paper compares.
//!
//! Calibration targets come from the published relative-performance
//! results the paper cites: CUTLASS sustains a large fraction of cuBLAS
//! across GEMM shapes (Figure 8a), ISAAC is competitive with — and on
//! some input shapes faster than — cuDNN (Figure 8b, per Tillet & Cox
//! SC'17), and CPU BLAS trails the GPU libraries by two orders of
//! magnitude on DNN workloads (Figure 7).

use crate::device::DeviceModel;

/// A GEMM problem: `C(m×n) = A(m×k) · B(k×n)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Rows of A/C.
    pub m: usize,
    /// Columns of B/C.
    pub n: usize,
    /// Inner dimension.
    pub k: usize,
}

impl GemmShape {
    /// Square shape.
    pub fn square(s: usize) -> Self {
        GemmShape { m: s, n: s, k: s }
    }

    /// Multiply-accumulate FLOPs.
    pub fn flops(&self) -> u64 {
        2 * (self.m as u64) * (self.n as u64) * (self.k as u64)
    }

    /// Bytes moved (A + B + C, single precision, one pass).
    pub fn bytes(&self) -> u64 {
        4 * ((self.m * self.k) as u64 + (self.k * self.n) as u64 + (self.m * self.n) as u64)
    }

    /// Smallest dimension (drives tiling efficiency).
    pub fn min_dim(&self) -> usize {
        self.m.min(self.n).min(self.k)
    }
}

/// Deterministic per-shape jitter in `[-1, 1]` so curves have the
/// benchmark-to-benchmark variation real measurements show.
fn jitter(seed: u64) -> f64 {
    let x = seed
        .wrapping_mul(0x9E3779B97F4A7C15)
        .wrapping_add(0xD1B54A32D192ED03);
    let y = (x ^ (x >> 31)).wrapping_mul(0xBF58476D1CE4E5B9);
    ((y >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
}

/// The libraries of the paper's Figure 7/8 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Library {
    /// NVIDIA cuBLAS (closed source).
    CuBlas,
    /// NVIDIA CUTLASS (open source).
    Cutlass,
    /// NVIDIA cuDNN (closed source).
    CuDnn,
    /// ISAAC input-aware autotuner (open source).
    Isaac,
    /// NVIDIA TensorRT (closed source).
    TensorRt,
    /// ATLAS CPU BLAS (open source).
    Atlas,
    /// OpenBLAS CPU BLAS (open source).
    OpenBlas,
}

impl Library {
    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Library::CuBlas => "cuBLAS",
            Library::Cutlass => "CUTLASS",
            Library::CuDnn => "cuDNN",
            Library::Isaac => "ISAAC",
            Library::TensorRt => "TensorRT",
            Library::Atlas => "ATLAS",
            Library::OpenBlas => "OpenBLAS",
        }
    }

    /// Whether the library ships source (Observation 12 hinges on this).
    pub fn is_open_source(&self) -> bool {
        matches!(
            self,
            Library::Cutlass | Library::Isaac | Library::Atlas | Library::OpenBlas
        )
    }

    /// The device this library runs on.
    pub fn device(&self) -> DeviceModel {
        match self {
            Library::Atlas | Library::OpenBlas => DeviceModel::desktop_cpu(),
            _ => DeviceModel::datacenter_gpu(),
        }
    }

    /// Fraction of device peak sustained on a GEMM of `shape`.
    pub fn gemm_efficiency(&self, shape: &GemmShape) -> f64 {
        // Size factor: small problems underutilise every library.
        let size = shape.min_dim() as f64;
        let util = (size / (size + 192.0)).min(1.0);
        let seed = (shape.m as u64) << 40 | (shape.n as u64) << 20 | shape.k as u64;
        let base = match self {
            Library::CuBlas => 0.92,
            // CUTLASS: "performance comparable to cuBLAS" — slightly
            // below on average, occasionally ahead on odd shapes.
            Library::Cutlass => 0.87 + 0.06 * jitter(seed),
            Library::CuDnn => 0.90,
            // ISAAC is input-aware: better on skinny/odd shapes where
            // fixed-tile libraries fall off.
            Library::Isaac => {
                let skinny = if shape.min_dim() * 4 < shape.m.max(shape.n).max(shape.k) {
                    0.08
                } else {
                    0.0
                };
                0.86 + skinny + 0.05 * jitter(seed ^ 0xABCD)
            }
            Library::TensorRt => 0.94,
            Library::Atlas => 0.55 + 0.04 * jitter(seed ^ 0x11),
            Library::OpenBlas => 0.65 + 0.04 * jitter(seed ^ 0x22),
        };
        (base * util).clamp(0.01, 1.0)
    }

    /// Modeled GEMM execution time in seconds.
    pub fn gemm_time_s(&self, shape: &GemmShape) -> f64 {
        let dev = self.device();
        dev.time_s(shape.flops(), shape.bytes(), self.gemm_efficiency(shape))
    }

    /// Fraction of device peak sustained on a convolution (modeled via
    /// its im2col GEMM shape plus a lowering overhead factor).
    pub fn conv_efficiency(&self, gemm: &GemmShape, irregular: bool) -> f64 {
        let mut eff = self.gemm_efficiency(gemm);
        match self {
            // cuDNN has specialised conv kernels: small bonus on regular
            // shapes, less so on irregular ones.
            Library::CuDnn => {
                eff *= if irregular { 0.92 } else { 1.05 };
            }
            // ISAAC's autotuning pays off most on irregular shapes.
            Library::Isaac => {
                eff *= if irregular { 1.12 } else { 0.97 };
            }
            _ => {
                eff *= 0.95; // generic im2col lowering cost
            }
        }
        eff.clamp(0.01, 1.0)
    }

    /// Modeled convolution time in seconds for the given lowered GEMM.
    pub fn conv_time_s(&self, gemm: &GemmShape, irregular: bool) -> f64 {
        let dev = self.device();
        dev.time_s(
            gemm.flops(),
            gemm.bytes(),
            self.conv_efficiency(gemm, irregular),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_source_classification_matches_paper_taxonomy() {
        assert!(!Library::CuBlas.is_open_source());
        assert!(!Library::CuDnn.is_open_source());
        assert!(!Library::TensorRt.is_open_source());
        assert!(Library::Cutlass.is_open_source());
        assert!(Library::Isaac.is_open_source());
        assert!(Library::OpenBlas.is_open_source());
    }

    #[test]
    fn cutlass_competitive_with_cublas_fig8a() {
        // Across a GEMM sweep, CUTLASS/cuBLAS relative perf stays in a
        // tight band around 1 (the Figure 8a shape).
        for s in [256, 512, 1024, 2048, 4096] {
            let shape = GemmShape::square(s);
            let rel = Library::CuBlas.gemm_time_s(&shape) / Library::Cutlass.gemm_time_s(&shape);
            assert!((0.75..=1.15).contains(&rel), "size {s}: rel = {rel}");
        }
    }

    #[test]
    fn isaac_competitive_with_cudnn_fig8b() {
        let mut wins = 0;
        let shapes = [
            (
                GemmShape {
                    m: 64,
                    n: 12544,
                    k: 576,
                },
                false,
            ),
            (
                GemmShape {
                    m: 256,
                    n: 784,
                    k: 2304,
                },
                false,
            ),
            (
                GemmShape {
                    m: 32,
                    n: 100_000,
                    k: 128,
                },
                true,
            ),
            (
                GemmShape {
                    m: 512,
                    n: 196,
                    k: 4608,
                },
                true,
            ),
            (
                GemmShape {
                    m: 16,
                    n: 50_000,
                    k: 64,
                },
                true,
            ),
        ];
        for (g, irregular) in &shapes {
            let rel = Library::CuDnn.conv_time_s(g, *irregular)
                / Library::Isaac.conv_time_s(g, *irregular);
            assert!((0.7..=1.4).contains(&rel), "rel = {rel}");
            if rel > 1.0 {
                wins += 1;
            }
        }
        assert!(wins >= 1, "ISAAC should win some shapes (input-aware)");
        assert!(wins < shapes.len(), "cuDNN should win some shapes too");
    }

    #[test]
    fn cpu_is_orders_of_magnitude_slower_fig7() {
        let shape = GemmShape {
            m: 256,
            n: 12544,
            k: 1152,
        }; // a YOLO layer
        let gpu = Library::CuBlas.gemm_time_s(&shape);
        let cpu = Library::OpenBlas.gemm_time_s(&shape);
        let ratio = cpu / gpu;
        assert!(ratio > 30.0, "CPU/GPU ratio = {ratio}");
    }

    #[test]
    fn small_problems_underutilise() {
        let small = GemmShape::square(32);
        let big = GemmShape::square(4096);
        assert!(Library::CuBlas.gemm_efficiency(&small) < Library::CuBlas.gemm_efficiency(&big));
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        for s in 0..200u64 {
            let j = jitter(s);
            assert!((-1.0..=1.0).contains(&j));
            assert_eq!(j, jitter(s));
        }
    }

    #[test]
    fn flops_and_bytes() {
        let s = GemmShape { m: 2, n: 3, k: 4 };
        assert_eq!(s.flops(), 48);
        assert_eq!(s.bytes(), 4 * (8 + 12 + 6));
        assert_eq!(s.min_dim(), 2);
    }
}
