//! A YOLO-style object-detection pipeline (the paper's perception
//! workload): a small darknet-like backbone of conv → bias → leaky-ReLU
//! → maxpool stages followed by a 1×1 detection head, with selectable
//! GEMM backends so the paper's Figure 7 comparison (closed-source
//! cuBLAS/cuDNN vs open-source CUTLASS/ISAAC vs CPU BLAS) can be
//! replayed on real code.

use crate::autotune::{GemmTuner, TuneMode};
use crate::kernels::{add_bias, conv2d_im2col, leaky_relu, maxpool2x2, ConvShape};

/// Which GEMM/conv implementation powers the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Naive triple loop (the unoptimised baseline).
    Naive,
    /// Fixed-tile blocked GEMM — the CUTLASS analogue.
    Tiled,
    /// Input-aware autotuned GEMM — the ISAAC analogue.
    Autotuned,
}

impl Backend {
    /// All backends, for sweeps.
    pub const ALL: [Backend; 3] = [Backend::Naive, Backend::Tiled, Backend::Autotuned];

    /// Display name matching the paper's library taxonomy.
    pub fn name(&self) -> &'static str {
        match self {
            Backend::Naive => "naive",
            Backend::Tiled => "tiled (CUTLASS-like)",
            Backend::Autotuned => "autotuned (ISAAC-like)",
        }
    }
}

/// One convolutional stage.
#[derive(Debug, Clone)]
struct ConvLayer {
    shape: ConvShape,
    weights: Vec<f32>,
    biases: Vec<f32>,
    pool: bool,
}

/// A detection produced by the head.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Grid cell x.
    pub x: usize,
    /// Grid cell y.
    pub y: usize,
    /// Class index.
    pub class: usize,
    /// Confidence score.
    pub score: f32,
}

/// The network.
#[derive(Debug, Clone)]
pub struct YoloNet {
    layers: Vec<ConvLayer>,
    input_c: usize,
    input_hw: usize,
    classes: usize,
}

/// Deterministic pseudo-random weight in [-0.5, 0.5).
fn det_weight(seed: u64, i: usize) -> f32 {
    let x = seed
        .wrapping_add(i as u64)
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (((x >> 33) & 0xFFFF) as f32 / 65536.0) - 0.5
}

impl YoloNet {
    /// Builds a tiny-YOLO-like net: `depth` conv+pool stages then a 1×1
    /// head with `classes + 1` filters. `input_hw` must be divisible by
    /// `2^depth`.
    ///
    /// # Panics
    /// Panics if `input_hw` is not divisible by `2^depth`.
    pub fn tiny(input_c: usize, input_hw: usize, depth: usize, classes: usize, seed: u64) -> Self {
        assert!(
            input_hw.is_multiple_of(1 << depth),
            "input {input_hw} not divisible by 2^{depth}"
        );
        let mut layers = Vec::new();
        let mut c = input_c;
        let mut hw = input_hw;
        let mut filters = 8;
        for l in 0..depth {
            let shape = ConvShape {
                batch: 1,
                in_c: c,
                in_h: hw,
                in_w: hw,
                out_c: filters,
                ksize: 3,
                stride: 1,
                pad: 1,
            };
            let weights = (0..shape.weight_len())
                .map(|i| det_weight(seed + l as u64, i))
                .collect();
            let biases = (0..filters)
                .map(|i| det_weight(seed ^ (0xbead + l as u64), i))
                .collect();
            layers.push(ConvLayer {
                shape,
                weights,
                biases,
                pool: true,
            });
            c = filters;
            hw /= 2;
            filters = (filters * 2).min(64);
        }
        // 1×1 detection head: classes + objectness.
        let head = ConvShape {
            batch: 1,
            in_c: c,
            in_h: hw,
            in_w: hw,
            out_c: classes + 1,
            ksize: 1,
            stride: 1,
            pad: 0,
        };
        let weights = (0..head.weight_len())
            .map(|i| det_weight(seed ^ 0xdead, i))
            .collect();
        let biases = (0..classes + 1)
            .map(|i| det_weight(seed ^ 0xfeed, i))
            .collect();
        layers.push(ConvLayer {
            shape: head,
            weights,
            biases,
            pool: false,
        });
        YoloNet {
            layers,
            input_c,
            input_hw,
            classes,
        }
    }

    /// Total multiply-accumulate FLOPs of one inference.
    pub fn flops(&self) -> u64 {
        self.layers.iter().map(|l| l.shape.flops()).sum()
    }

    /// Output grid side length.
    pub fn grid(&self) -> usize {
        self.layers.last().expect("net has layers").shape.out_h()
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Expected input length.
    pub fn input_len(&self) -> usize {
        self.input_c * self.input_hw * self.input_hw
    }

    /// Runs inference, returning the raw head tensor.
    ///
    /// # Panics
    /// Panics if `image.len() != self.input_len()`.
    pub fn forward(&self, image: &[f32], backend: Backend) -> Vec<f32> {
        assert_eq!(image.len(), self.input_len(), "input size");
        let mut tuner = GemmTuner::new(TuneMode::CostModel);
        let mut cur = image.to_vec();
        for layer in &self.layers {
            let s = &layer.shape;
            let mut out = vec![0.0f32; s.output_len()];
            match backend {
                Backend::Naive => conv2d_im2col(s, &cur, &layer.weights, &mut out, 0),
                Backend::Tiled => conv2d_im2col(s, &cur, &layer.weights, &mut out, 32),
                Backend::Autotuned => {
                    let tile =
                        tuner.tile_for(s.out_c, s.out_h() * s.out_w(), s.in_c * s.ksize * s.ksize);
                    conv2d_im2col(s, &cur, &layer.weights, &mut out, tile);
                }
            }
            let size = s.out_h() * s.out_w();
            add_bias(&mut out, &layer.biases, 1, s.out_c, size);
            leaky_relu(&mut out, 0.1);
            if layer.pool {
                let mut pooled = vec![0.0f32; s.out_c * size / 4];
                maxpool2x2(s.out_c, s.out_h(), s.out_w(), &out, &mut pooled);
                cur = pooled;
            } else {
                cur = out;
            }
        }
        cur
    }

    /// Runs inference and decodes grid-cell detections above `threshold`.
    pub fn detect(&self, image: &[f32], backend: Backend, threshold: f32) -> Vec<Detection> {
        let head = self.forward(image, backend);
        let g = self.grid();
        let mut out = Vec::new();
        for y in 0..g {
            for x in 0..g {
                let obj = head[y * g + x]; // channel 0 = objectness
                if obj <= threshold {
                    continue;
                }
                let (mut best_c, mut best_s) = (0usize, f32::MIN);
                for cl in 0..self.classes {
                    let s = head[((cl + 1) * g + y) * g + x];
                    if s > best_s {
                        best_s = s;
                        best_c = cl;
                    }
                }
                out.push(Detection {
                    x,
                    y,
                    class: best_c,
                    score: obj,
                });
            }
        }
        out.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out
    }
}

/// Deterministic synthetic camera frame with a bright blob at
/// `(cx, cy)` — the scenario generator for the coverage and perf tests.
pub fn synthetic_frame(c: usize, hw: usize, cx: usize, cy: usize, seed: u64) -> Vec<f32> {
    let mut img = vec![0.0f32; c * hw * hw];
    for ch in 0..c {
        for y in 0..hw {
            for x in 0..hw {
                let noise = det_weight(seed + ch as u64, y * hw + x) * 0.1;
                let dx = x as f32 - cx as f32;
                let dy = y as f32 - cy as f32;
                let blob = (-(dx * dx + dy * dy) / 18.0).exp();
                img[(ch * hw + y) * hw + x] = blob + noise;
            }
        }
    }
    img
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> YoloNet {
        YoloNet::tiny(3, 32, 2, 4, 42)
    }

    #[test]
    fn construction_and_shapes() {
        let n = net();
        assert_eq!(n.grid(), 8);
        assert_eq!(n.input_len(), 3 * 32 * 32);
        assert!(n.flops() > 100_000);
        assert_eq!(n.classes(), 4);
    }

    #[test]
    fn backends_agree_bitwise_close() {
        let n = net();
        let img = synthetic_frame(3, 32, 16, 16, 7);
        let naive = n.forward(&img, Backend::Naive);
        let tiled = n.forward(&img, Backend::Tiled);
        let tuned = n.forward(&img, Backend::Autotuned);
        assert_eq!(naive.len(), tiled.len());
        for i in 0..naive.len() {
            assert!((naive[i] - tiled[i]).abs() < 1e-3, "tiled differs at {i}");
            assert!((naive[i] - tuned[i]).abs() < 1e-3, "tuned differs at {i}");
        }
    }

    #[test]
    fn inference_is_deterministic() {
        let n = net();
        let img = synthetic_frame(3, 32, 10, 20, 1);
        let a = n.forward(&img, Backend::Tiled);
        let b = n.forward(&img, Backend::Tiled);
        assert_eq!(a, b);
    }

    #[test]
    fn detections_sorted_and_thresholded() {
        let n = net();
        let img = synthetic_frame(3, 32, 16, 16, 7);
        let dets = n.detect(&img, Backend::Tiled, -1e9);
        assert!(!dets.is_empty());
        for w in dets.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        let none = n.detect(&img, Backend::Tiled, 1e9);
        assert!(none.is_empty());
    }

    #[test]
    fn different_seeds_different_nets() {
        let a = YoloNet::tiny(3, 32, 2, 4, 1);
        let b = YoloNet::tiny(3, 32, 2, 4, 2);
        let img = synthetic_frame(3, 32, 16, 16, 7);
        assert_ne!(
            a.forward(&img, Backend::Naive),
            b.forward(&img, Backend::Naive)
        );
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_geometry_panics() {
        let _ = YoloNet::tiny(3, 30, 2, 4, 1);
    }
}
