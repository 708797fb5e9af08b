//! The compute kernels of the object-detection pipeline, in Rust.
//!
//! These are the "open-source library" stand-ins of the paper's case
//! study (§3.3.1): a naive reference GEMM, a register/cache-tiled GEMM
//! (the CUTLASS analogue), im2col + GEMM convolution (the cuDNN/ISAAC
//! lowering), direct convolution, the 2D stencil of Figure 6, and
//! the pointwise layers YOLO needs (bias, leaky ReLU, maxpool, softmax).
//!
//! All kernels operate on row-major `f32` slices and have exhaustive
//! cross-checks in the test suite (tiled == naive, im2col == direct).

/// Reference GEMM: `C = A·B`, `A` is `m×k`, `B` is `k×n`, `C` is `m×n`.
///
/// # Panics
/// Panics if slice lengths do not match the given dimensions.
pub fn gemm_naive(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "A shape");
    assert_eq!(b.len(), k * n, "B shape");
    assert_eq!(c.len(), m * n, "C shape");
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// Tiled GEMM (CUTLASS-style register/cache blocking) with tile size
/// `tile`; falls back to cleanup loops on ragged edges.
///
/// # Panics
/// Panics if slice lengths do not match the given dimensions or `tile`
/// is zero.
pub fn gemm_tiled(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32], tile: usize) {
    assert!(tile > 0, "tile must be positive");
    assert_eq!(a.len(), m * k, "A shape");
    assert_eq!(b.len(), k * n, "B shape");
    assert_eq!(c.len(), m * n, "C shape");
    c.fill(0.0);
    let mut i0 = 0;
    while i0 < m {
        let i1 = (i0 + tile).min(m);
        let mut p0 = 0;
        while p0 < k {
            let p1 = (p0 + tile).min(k);
            let mut j0 = 0;
            while j0 < n {
                let j1 = (j0 + tile).min(n);
                for i in i0..i1 {
                    for p in p0..p1 {
                        let av = a[i * k + p];
                        let brow = &b[p * n + j0..p * n + j1];
                        let crow = &mut c[i * n + j0..i * n + j1];
                        for (cv, bv) in crow.iter_mut().zip(brow) {
                            *cv += av * bv;
                        }
                    }
                }
                j0 = j1;
            }
            p0 = p1;
        }
        i0 = i1;
    }
}

/// Convolution problem geometry (NCHW, square kernel).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvShape {
    /// Batch size.
    pub batch: usize,
    /// Input channels.
    pub in_c: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Output channels (filters).
    pub out_c: usize,
    /// Kernel size (square).
    pub ksize: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub pad: usize,
}

impl ConvShape {
    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.pad - self.ksize) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.pad - self.ksize) / self.stride + 1
    }

    /// Elements in the input tensor.
    pub fn input_len(&self) -> usize {
        self.batch * self.in_c * self.in_h * self.in_w
    }

    /// Elements in the weight tensor.
    pub fn weight_len(&self) -> usize {
        self.out_c * self.in_c * self.ksize * self.ksize
    }

    /// Elements in the output tensor.
    pub fn output_len(&self) -> usize {
        self.batch * self.out_c * self.out_h() * self.out_w()
    }

    /// Multiply-accumulate count (for perf models).
    pub fn flops(&self) -> u64 {
        2 * (self.batch * self.out_c * self.out_h() * self.out_w()) as u64
            * (self.in_c * self.ksize * self.ksize) as u64
    }
}

/// Direct convolution (reference).
///
/// # Panics
/// Panics on shape mismatches.
pub fn conv2d_direct(shape: &ConvShape, input: &[f32], weights: &[f32], output: &mut [f32]) {
    assert_eq!(input.len(), shape.input_len(), "input shape");
    assert_eq!(weights.len(), shape.weight_len(), "weight shape");
    assert_eq!(output.len(), shape.output_len(), "output shape");
    let (oh, ow) = (shape.out_h(), shape.out_w());
    for b in 0..shape.batch {
        for oc in 0..shape.out_c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0f32;
                    for ic in 0..shape.in_c {
                        for ky in 0..shape.ksize {
                            for kx in 0..shape.ksize {
                                let iy = oy * shape.stride + ky;
                                let ix = ox * shape.stride + kx;
                                let (iy, ix) = (
                                    iy as isize - shape.pad as isize,
                                    ix as isize - shape.pad as isize,
                                );
                                if iy < 0
                                    || ix < 0
                                    || iy >= shape.in_h as isize
                                    || ix >= shape.in_w as isize
                                {
                                    continue;
                                }
                                let iv = input[((b * shape.in_c + ic) * shape.in_h + iy as usize)
                                    * shape.in_w
                                    + ix as usize];
                                let wv = weights[((oc * shape.in_c + ic) * shape.ksize + ky)
                                    * shape.ksize
                                    + kx];
                                acc += iv * wv;
                            }
                        }
                    }
                    output[((b * shape.out_c + oc) * oh + oy) * ow + ox] = acc;
                }
            }
        }
    }
}

/// im2col unrolling: expands one image into a `(in_c·k·k) × (out_h·out_w)`
/// column matrix (darknet's `im2col_cpu`).
pub fn im2col(shape: &ConvShape, image: &[f32], cols: &mut [f32]) {
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let rows = shape.in_c * shape.ksize * shape.ksize;
    assert_eq!(cols.len(), rows * oh * ow, "cols shape");
    for r in 0..rows {
        let kx = r % shape.ksize;
        let ky = (r / shape.ksize) % shape.ksize;
        let ic = r / (shape.ksize * shape.ksize);
        for oy in 0..oh {
            for ox in 0..ow {
                let iy = (oy * shape.stride + ky) as isize - shape.pad as isize;
                let ix = (ox * shape.stride + kx) as isize - shape.pad as isize;
                let v =
                    if iy < 0 || ix < 0 || iy >= shape.in_h as isize || ix >= shape.in_w as isize {
                        0.0
                    } else {
                        image[(ic * shape.in_h + iy as usize) * shape.in_w + ix as usize]
                    };
                cols[r * (oh * ow) + oy * ow + ox] = v;
            }
        }
    }
}

/// Convolution via im2col + GEMM (the cuDNN/ISAAC lowering).
///
/// `tile == 0` selects the naive GEMM; otherwise the tiled GEMM.
pub fn conv2d_im2col(
    shape: &ConvShape,
    input: &[f32],
    weights: &[f32],
    output: &mut [f32],
    tile: usize,
) {
    let (oh, ow) = (shape.out_h(), shape.out_w());
    let rows = shape.in_c * shape.ksize * shape.ksize;
    let mut cols = vec![0.0f32; rows * oh * ow];
    let image_len = shape.in_c * shape.in_h * shape.in_w;
    let out_image_len = shape.out_c * oh * ow;
    for b in 0..shape.batch {
        let image = &input[b * image_len..(b + 1) * image_len];
        im2col(shape, image, &mut cols);
        let out = &mut output[b * out_image_len..(b + 1) * out_image_len];
        if tile == 0 {
            gemm_naive(shape.out_c, oh * ow, rows, weights, &cols, out);
        } else {
            gemm_tiled(shape.out_c, oh * ow, rows, weights, &cols, out, tile);
        }
    }
}

/// 5-point 2D stencil (Figure 6's 2D kernel): `out = center·cw +
/// (N+S+E+W)·nw`, borders copied.
pub fn stencil2d(h: usize, w: usize, input: &[f32], output: &mut [f32], cw: f32, nw: f32) {
    assert_eq!(input.len(), h * w);
    assert_eq!(output.len(), h * w);
    output.copy_from_slice(input);
    for y in 1..h.saturating_sub(1) {
        for x in 1..w.saturating_sub(1) {
            let c = input[y * w + x];
            let nsum = input[(y - 1) * w + x]
                + input[(y + 1) * w + x]
                + input[y * w + x - 1]
                + input[y * w + x + 1];
            output[y * w + x] = c * cw + nsum * nw;
        }
    }
}

/// Scales each filter's outputs by its bias factor — the paper's
/// Figure 4 `scale_bias` kernel.
pub fn scale_bias(output: &mut [f32], biases: &[f32], batch: usize, n: usize, size: usize) {
    assert_eq!(output.len(), batch * n * size);
    assert_eq!(biases.len(), n);
    for b in 0..batch {
        for f in 0..n {
            for o in 0..size {
                output[(b * n + f) * size + o] *= biases[f];
            }
        }
    }
}

/// Adds a per-filter bias (darknet `add_bias`).
pub fn add_bias(output: &mut [f32], biases: &[f32], batch: usize, n: usize, size: usize) {
    assert_eq!(output.len(), batch * n * size);
    assert_eq!(biases.len(), n);
    for b in 0..batch {
        for f in 0..n {
            for o in 0..size {
                output[(b * n + f) * size + o] += biases[f];
            }
        }
    }
}

/// Leaky ReLU activation (YOLO's default).
pub fn leaky_relu(data: &mut [f32], alpha: f32) {
    for v in data {
        if *v < 0.0 {
            *v *= alpha;
        }
    }
}

/// 2×2 max-pooling with stride 2 over NCHW data.
pub fn maxpool2x2(c: usize, h: usize, w: usize, input: &[f32], output: &mut [f32]) {
    let (oh, ow) = (h / 2, w / 2);
    assert_eq!(input.len(), c * h * w);
    assert_eq!(output.len(), c * oh * ow);
    for ch in 0..c {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut m = f32::MIN;
                for dy in 0..2 {
                    for dx in 0..2 {
                        m = m.max(input[(ch * h + oy * 2 + dy) * w + ox * 2 + dx]);
                    }
                }
                output[(ch * oh + oy) * ow + ox] = m;
            }
        }
    }
}

/// In-place softmax over a slice.
pub fn softmax(data: &mut [f32]) {
    if data.is_empty() {
        return;
    }
    let max = data.iter().copied().fold(f32::MIN, f32::max);
    let mut sum = 0.0f32;
    for v in data.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in data {
            *v /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f32> {
        (0..n).map(|i| ((i * 7 + 3) % 11) as f32 - 5.0).collect()
    }

    fn assert_close(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < 1e-3, "mismatch at {i}: {x} vs {y}");
        }
    }

    #[test]
    fn gemm_identity() {
        let a = vec![1.0, 0.0, 0.0, 1.0]; // I2
        let b = vec![3.0, 4.0, 5.0, 6.0];
        let mut c = vec![0.0; 4];
        gemm_naive(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, b);
    }

    #[test]
    fn gemm_known_product() {
        // [1 2; 3 4] · [5 6; 7 8] = [19 22; 43 50]
        let a = vec![1.0, 2.0, 3.0, 4.0];
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut c = vec![0.0; 4];
        gemm_naive(2, 2, 2, &a, &b, &mut c);
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn tiled_matches_naive_on_ragged_shapes() {
        for (m, n, k, tile) in [(7, 5, 9, 4), (16, 16, 16, 8), (1, 13, 3, 4), (5, 1, 7, 16)] {
            let a = seq(m * k);
            let b = seq(k * n);
            let mut c1 = vec![0.0; m * n];
            let mut c2 = vec![0.0; m * n];
            gemm_naive(m, n, k, &a, &b, &mut c1);
            gemm_tiled(m, n, k, &a, &b, &mut c2, tile);
            assert_close(&c1, &c2);
        }
    }

    fn small_shape() -> ConvShape {
        ConvShape {
            batch: 2,
            in_c: 3,
            in_h: 8,
            in_w: 8,
            out_c: 4,
            ksize: 3,
            stride: 1,
            pad: 1,
        }
    }

    #[test]
    fn conv_shapes() {
        let s = small_shape();
        assert_eq!(s.out_h(), 8);
        assert_eq!(s.out_w(), 8);
        assert!(s.flops() > 0);
        let s2 = ConvShape {
            stride: 2,
            pad: 0,
            ..s
        };
        assert_eq!(s2.out_h(), 3);
    }

    #[test]
    fn im2col_gemm_matches_direct() {
        let s = small_shape();
        let input = seq(s.input_len());
        let weights = seq(s.weight_len());
        let mut direct = vec![0.0; s.output_len()];
        let mut viacols0 = vec![0.0; s.output_len()];
        let mut viacols8 = vec![0.0; s.output_len()];
        conv2d_direct(&s, &input, &weights, &mut direct);
        conv2d_im2col(&s, &input, &weights, &mut viacols0, 0);
        conv2d_im2col(&s, &input, &weights, &mut viacols8, 8);
        assert_close(&direct, &viacols0);
        assert_close(&direct, &viacols8);
    }

    #[test]
    fn strided_unpadded_conv_matches() {
        let s = ConvShape {
            batch: 1,
            in_c: 2,
            in_h: 9,
            in_w: 7,
            out_c: 3,
            ksize: 3,
            stride: 2,
            pad: 0,
        };
        let input = seq(s.input_len());
        let weights = seq(s.weight_len());
        let mut direct = vec![0.0; s.output_len()];
        let mut via = vec![0.0; s.output_len()];
        conv2d_direct(&s, &input, &weights, &mut direct);
        conv2d_im2col(&s, &input, &weights, &mut via, 4);
        assert_close(&direct, &via);
    }

    #[test]
    fn stencil2d_center_formula() {
        let (h, w) = (4, 4);
        let input: Vec<f32> = (0..16).map(|i| i as f32).collect();
        let mut out = vec![0.0; 16];
        stencil2d(h, w, &input, &mut out, 0.5, 0.125);
        // interior cell (1,1)=5: neighbours 1,9,4,6 → 0.5*5 + 0.125*20 = 5.0
        assert_eq!(out[5], 5.0);
        // border copied
        assert_eq!(out[0], 0.0);
        assert_eq!(out[3], 3.0);
    }

    #[test]
    fn scale_and_add_bias() {
        let mut out = vec![1.0f32; 2 * 2 * 3];
        scale_bias(&mut out, &[2.0, 3.0], 2, 2, 3);
        assert_eq!(&out[0..3], &[2.0, 2.0, 2.0]);
        assert_eq!(&out[3..6], &[3.0, 3.0, 3.0]);
        add_bias(&mut out, &[1.0, 0.0], 2, 2, 3);
        assert_eq!(&out[0..3], &[3.0, 3.0, 3.0]);
        assert_eq!(&out[3..6], &[3.0, 3.0, 3.0]);
    }

    #[test]
    fn leaky_relu_behaviour() {
        let mut v = vec![-2.0, 0.0, 3.0];
        leaky_relu(&mut v, 0.1);
        assert_eq!(v, vec![-0.2, 0.0, 3.0]);
    }

    #[test]
    fn maxpool_picks_max() {
        let input = vec![
            1.0, 2.0, 5.0, 6.0, //
            3.0, 4.0, 7.0, 8.0, //
            0.0, 0.0, 1.0, 0.0, //
            0.0, 9.0, 0.0, 0.0,
        ];
        let mut out = vec![0.0; 4];
        maxpool2x2(1, 4, 4, &input, &mut out);
        assert_eq!(out, vec![4.0, 8.0, 9.0, 1.0]);
    }

    #[test]
    fn softmax_normalises() {
        let mut v = vec![1.0, 2.0, 3.0];
        softmax(&mut v);
        let sum: f32 = v.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(v[2] > v[1] && v[1] > v[0]);
        let mut empty: Vec<f32> = vec![];
        softmax(&mut empty);
    }
}
