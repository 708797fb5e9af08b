//! Input-aware auto-tuning (the ISAAC analogue).
//!
//! ISAAC [Tillet & Cox, SC'17] generates and selects kernels per input
//! shape. The stand-in here selects a GEMM tile size per `(m, n, k)` by
//! timing candidates on the actual input (or, in `CostModel` mode, by an
//! analytic cache-aware cost model), and memoises the decision — the
//! "input-aware" property the paper's Figure 8(b) comparison relies on.

use crate::kernels::{gemm_naive, gemm_tiled};
use std::collections::HashMap;
use std::time::Instant;

/// Candidate tile sizes explored by the tuner.
pub const TILE_CANDIDATES: [usize; 5] = [8, 16, 32, 64, 128];

/// How the tuner scores candidates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TuneMode {
    /// Time each candidate on the real input (slow first call, exact).
    Measure,
    /// Use an analytic cache-aware cost model (instant, approximate).
    CostModel,
}

/// A tuned GEMM dispatcher with a per-shape decision cache.
#[derive(Debug)]
pub struct GemmTuner {
    mode: TuneMode,
    cache: HashMap<(usize, usize, usize), usize>,
    /// Cache capacity in floats for the cost model (L2-ish).
    cache_floats: usize,
}

impl GemmTuner {
    /// Creates a tuner.
    pub fn new(mode: TuneMode) -> Self {
        GemmTuner {
            mode,
            cache: HashMap::new(),
            cache_floats: 256 * 1024,
        }
    }

    /// Tile chosen for a shape, tuning on first use.
    pub fn tile_for(&mut self, m: usize, n: usize, k: usize) -> usize {
        if let Some(&t) = self.cache.get(&(m, n, k)) {
            return t;
        }
        let t = match self.mode {
            TuneMode::CostModel => {
                adsafe_trace::counter("gpu.autotune.tuned_shapes").incr();
                self.cost_model_tile(m, n, k)
            }
            TuneMode::Measure => self.measure_tile(m, n, k),
        };
        self.cache.insert((m, n, k), t);
        t
    }

    /// Runs the tuned GEMM.
    pub fn gemm(&mut self, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        let tile = self.tile_for(m, n, k);
        gemm_tiled(m, n, k, a, b, c, tile);
    }

    /// Number of shapes tuned so far.
    pub fn tuned_shapes(&self) -> usize {
        self.cache.len()
    }

    /// Analytic choice: the largest candidate whose working set
    /// (one A tile + one B tile + one C tile) fits the modeled cache,
    /// clamped to the problem size.
    fn cost_model_tile(&self, m: usize, n: usize, k: usize) -> usize {
        let max_dim = m.max(n).max(k);
        let mut best = TILE_CANDIDATES[0];
        for &t in &TILE_CANDIDATES {
            if t > max_dim.next_power_of_two() {
                break;
            }
            let working_set = 3 * t * t;
            if working_set <= self.cache_floats {
                best = t;
            }
        }
        best
    }

    fn measure_tile(&self, m: usize, n: usize, k: usize) -> usize {
        let _sp = adsafe_trace::span_with(
            "gpu.autotune.measure",
            "gpu",
            vec![("shape", format!("{m}x{n}x{k}"))],
        );
        adsafe_trace::counter("gpu.autotune.tuned_shapes").incr();
        // Time candidates on a synthetic input of the right shape.
        let a: Vec<f32> = (0..m * k).map(|i| (i % 13) as f32).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 7) as f32).collect();
        let mut c = vec![0.0f32; m * n];
        let mut best = (TILE_CANDIDATES[0], f64::MAX);
        for &t in &TILE_CANDIDATES {
            if t > m.max(n).max(k) * 2 {
                continue;
            }
            let start = Instant::now();
            gemm_tiled(m, n, k, &a, &b, &mut c, t);
            let dt = start.elapsed().as_secs_f64();
            if dt < best.1 {
                best = (t, dt);
            }
        }
        best.0
    }
}

/// Convenience: untuned naive GEMM for baselines.
pub fn gemm_reference(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_naive(m, n, k, a, b, c);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decisions_are_memoised() {
        let mut t = GemmTuner::new(TuneMode::CostModel);
        let t1 = t.tile_for(64, 64, 64);
        let t2 = t.tile_for(64, 64, 64);
        assert_eq!(t1, t2);
        assert_eq!(t.tuned_shapes(), 1);
        t.tile_for(128, 128, 128);
        assert_eq!(t.tuned_shapes(), 2);
    }

    #[test]
    fn cost_model_is_input_aware() {
        let mut t = GemmTuner::new(TuneMode::CostModel);
        let small = t.tile_for(8, 8, 8);
        let large = t.tile_for(512, 512, 512);
        assert!(small <= 16, "small problems pick small tiles, got {small}");
        assert!(large >= 32, "large problems pick large tiles, got {large}");
    }

    #[test]
    fn tuned_gemm_is_correct() {
        let (m, n, k) = (17, 11, 23);
        let a: Vec<f32> = (0..m * k).map(|i| (i % 5) as f32 - 2.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i % 3) as f32).collect();
        let mut c_ref = vec![0.0; m * n];
        let mut c_tuned = vec![0.0; m * n];
        gemm_reference(m, n, k, &a, &b, &mut c_ref);
        let mut tuner = GemmTuner::new(TuneMode::CostModel);
        tuner.gemm(m, n, k, &a, &b, &mut c_tuned);
        for (x, y) in c_ref.iter().zip(&c_tuned) {
            assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn measured_mode_returns_valid_candidate() {
        let mut t = GemmTuner::new(TuneMode::Measure);
        let tile = t.tile_for(32, 32, 32);
        assert!(TILE_CANDIDATES.contains(&tile));
    }
}
