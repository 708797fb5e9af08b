//! Workload suites: the GEMM shapes and convolution layers behind the
//! paper's Figures 7 and 8 (YOLO layers, a square GEMM sweep, and
//! DeepBench-style named suites from several application domains).

use crate::library::GemmShape;

/// A named convolution workload, already lowered to its im2col GEMM.
#[derive(Debug, Clone)]
pub struct ConvWorkload {
    /// Workload name (e.g. `"vision/resnet-conv3"`).
    pub name: String,
    /// Lowered GEMM shape (`out_c × (out_h·out_w) × (in_c·k·k)`).
    pub gemm: GemmShape,
    /// Whether the shape is irregular (skinny/odd — favours autotuning).
    pub irregular: bool,
}

/// The YOLOv2-like layer stack the paper's object-detection case study
/// exercises, as im2col GEMMs for a 416×416 input.
pub fn yolo_layers() -> Vec<ConvWorkload> {
    // (out_c, out_hw, in_c, k)
    let layers: [(usize, usize, usize, usize); 9] = [
        (32, 416, 3, 3),
        (64, 208, 32, 3),
        (128, 104, 64, 3),
        (64, 104, 128, 1),
        (128, 104, 64, 3),
        (256, 52, 128, 3),
        (512, 26, 256, 3),
        (1024, 13, 512, 3),
        (425, 13, 1024, 1),
    ];
    layers
        .iter()
        .enumerate()
        .map(|(i, &(oc, hw, ic, k))| ConvWorkload {
            name: format!("yolo/conv{}", i + 1),
            gemm: GemmShape {
                m: oc,
                n: hw * hw,
                k: ic * k * k,
            },
            irregular: k == 1 || oc % 32 != 0,
        })
        .collect()
}

/// Square GEMM sweep for Figure 8a.
pub fn gemm_sweep() -> Vec<GemmShape> {
    [128, 256, 384, 512, 768, 1024, 1536, 2048, 3072, 4096]
        .iter()
        .map(|&s| GemmShape::square(s))
        .collect()
}

/// Rectangular GEMM shapes common in DNN inference (skinny/tall cases
/// where input-aware tuning matters), also part of Figure 8a's sweep.
pub fn gemm_dnn_shapes() -> Vec<GemmShape> {
    vec![
        GemmShape {
            m: 64,
            n: 173_056,
            k: 27,
        },
        GemmShape {
            m: 512,
            n: 676,
            k: 4608,
        },
        GemmShape {
            m: 1024,
            n: 169,
            k: 9216,
        },
        GemmShape {
            m: 35,
            n: 8457,
            k: 4096,
        },
        GemmShape {
            m: 3072,
            n: 128,
            k: 1024,
        },
        GemmShape {
            m: 5124,
            n: 9124,
            k: 2048,
        },
    ]
}

/// DeepBench-style conv suites by domain, for Figure 8b's x-axis.
pub fn conv_suites() -> Vec<ConvWorkload> {
    let mut out = Vec::new();
    let mut add = |name: &str, m: usize, n: usize, k: usize, irregular: bool| {
        out.push(ConvWorkload {
            name: name.to_string(),
            gemm: GemmShape { m, n, k },
            irregular,
        });
    };
    // vision
    add("vision/vgg-conv1", 64, 50_176, 27, false);
    add("vision/vgg-conv3", 256, 3_136, 1_152, false);
    add("vision/resnet-conv2", 64, 3_136, 576, false);
    add("vision/resnet-conv5", 512, 49, 4_608, true);
    // speech
    add("speech/ds2-conv1", 32, 79_200, 410, true);
    add("speech/ds2-conv2", 32, 39_600, 800, true);
    // ocr / seq
    add("ocr/crnn-conv4", 512, 6_400, 2_304, false);
    add("ocr/crnn-conv6", 512, 1_536, 4_608, true);
    // scientific / generic
    add("sci/stencil-gemm", 96, 16_384, 147, true);
    add("sci/spectral", 384, 4_096, 768, false);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yolo_stack_shapes() {
        let layers = yolo_layers();
        assert_eq!(layers.len(), 9);
        // First layer: 32 filters over 3×3×3 patches of a 416×416 map.
        assert_eq!(
            layers[0].gemm,
            GemmShape {
                m: 32,
                n: 416 * 416,
                k: 27
            }
        );
        // Head is 1×1 conv → k = in_c.
        assert_eq!(layers[8].gemm.k, 1024);
        assert!(layers[3].irregular, "1x1 conv counts as irregular");
        // Total workload is in the GFLOP range (real YOLO scale).
        let total: u64 = layers.iter().map(|l| l.gemm.flops()).sum();
        assert!(total > 5_000_000_000, "total = {total}");
    }

    #[test]
    fn sweeps_are_sorted_and_nonempty() {
        let sweep = gemm_sweep();
        assert_eq!(sweep.len(), 10);
        assert!(sweep.windows(2).all(|w| w[0].m < w[1].m));
        assert!(!gemm_dnn_shapes().is_empty());
    }

    #[test]
    fn conv_suites_cover_domains() {
        let suites = conv_suites();
        assert!(suites.len() >= 10);
        for prefix in ["vision/", "speech/", "ocr/", "sci/"] {
            assert!(
                suites.iter().any(|w| w.name.starts_with(prefix)),
                "missing {prefix}"
            );
        }
        assert!(suites.iter().any(|w| w.irregular));
        assert!(suites.iter().any(|w| !w.irregular));
    }
}
