//! Crossover analysis: at what problem size does the GPU overtake the
//! CPU? The paper's Figure 7 shows the CPU two orders of magnitude
//! behind *on DNN-scale kernels*; the full picture the roofline model
//! exposes is that below a certain size, kernel-launch overhead makes
//! the CPU the faster device — the reason AD frameworks batch small
//! operators before offloading them.

use crate::library::{GemmShape, Library};

/// One crossover sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossoverPoint {
    /// Square GEMM dimension.
    pub size: usize,
    /// GPU (cuBLAS) time in microseconds.
    pub gpu_us: f64,
    /// CPU (OpenBLAS) time in microseconds.
    pub cpu_us: f64,
}

impl CrossoverPoint {
    /// Whether the GPU wins at this size.
    pub fn gpu_wins(&self) -> bool {
        self.gpu_us < self.cpu_us
    }
}

/// Sweeps square GEMMs from `lo` to `hi` (doubling) and reports the
/// GPU/CPU times at each size.
pub fn gemm_crossover_sweep(lo: usize, hi: usize) -> Vec<CrossoverPoint> {
    let mut out = Vec::new();
    let mut s = lo.max(1);
    while s <= hi {
        let shape = GemmShape::square(s);
        out.push(CrossoverPoint {
            size: s,
            gpu_us: Library::CuBlas.gemm_time_s(&shape) * 1e6,
            cpu_us: Library::OpenBlas.gemm_time_s(&shape) * 1e6,
        });
        s *= 2;
    }
    out
}

/// The smallest swept size at which the GPU wins, if any.
pub fn gpu_break_even(points: &[CrossoverPoint]) -> Option<usize> {
    points.iter().find(|p| p.gpu_wins()).map(|p| p.size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_wins_tiny_gpu_wins_large() {
        let sweep = gemm_crossover_sweep(4, 4096);
        assert!(
            !sweep.first().unwrap().gpu_wins(),
            "launch overhead dominates at 4x4"
        );
        assert!(sweep.last().unwrap().gpu_wins(), "GPU must win at 4096");
    }

    #[test]
    fn break_even_exists_and_is_plausible() {
        let sweep = gemm_crossover_sweep(4, 4096);
        let be = gpu_break_even(&sweep).expect("crossover exists");
        assert!(
            (16..=1024).contains(&be),
            "break-even at {be} is outside the plausible band"
        );
    }

    #[test]
    fn sweep_is_monotone_in_size() {
        let sweep = gemm_crossover_sweep(8, 2048);
        for w in sweep.windows(2) {
            assert!(w[1].size == w[0].size * 2);
            assert!(w[1].gpu_us >= w[0].gpu_us);
            assert!(w[1].cpu_us >= w[0].cpu_us);
        }
    }
}
