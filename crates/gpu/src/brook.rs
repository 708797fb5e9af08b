//! A Brook-Auto-style certification-friendly kernel API.
//!
//! The paper's way out of Observations 3/4 is Brook Auto [Trompouki &
//! Kosmidis, DAC'18]: a GPU programming model that, "in the same way
//! that MISRA C constrains C", removes the certification-hostile
//! features — no pointers exposed to the programmer, no dynamic memory
//! after initialisation, sizes known statically — without giving up the
//! stream-programming expressiveness. This module is that model:
//!
//! * [`Stream`] — a fixed-size, bounds-checked value container created
//!   once at init; no reallocation, no aliasing, no pointer arithmetic;
//! * kernels are pure element-wise / gather functions passed to typed
//!   combinators ([`map`], [`zip_map`], [`gather2d`], [`reduce`]);
//! * launch geometry is derived from stream shapes — no `<<<...>>>`
//!   mismatch class of bugs.
//!
//! The guarantees are by construction, checkable at compile time: the
//! API appears in source with zero findings from the `adsafe-checkers`
//! CUDA rules (see the `brook_api_is_clean` test and the
//! `examples/misra_check` exhibit for the CUDA contrast).

/// A fixed-length stream of `f32` values (Brook's core abstraction).
///
/// Created once with a statically known length; elements are accessed
/// only through checked indices or the combinators below.
#[derive(Debug, Clone, PartialEq)]
pub struct Stream {
    data: Vec<f32>,
    width: usize,
    height: usize,
}

impl Stream {
    /// A 1-D stream of `len` zeros.
    ///
    /// # Panics
    /// Panics if `len == 0` — streams have static non-zero extents.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "streams have non-zero static size");
        Stream {
            data: vec![0.0; len],
            width: len,
            height: 1,
        }
    }

    /// A 2-D stream of `height × width` zeros.
    ///
    /// # Panics
    /// Panics if either extent is zero.
    pub fn new2d(height: usize, width: usize) -> Self {
        assert!(width > 0 && height > 0, "streams have non-zero static size");
        Stream {
            data: vec![0.0; width * height],
            width,
            height,
        }
    }

    /// Builds a stream from existing data (the only ingress point —
    /// the analogue of `streamRead`).
    ///
    /// # Panics
    /// Panics if `data` is empty.
    pub fn from_slice(data: &[f32]) -> Self {
        assert!(!data.is_empty(), "streams have non-zero static size");
        Stream {
            data: data.to_vec(),
            width: data.len(),
            height: 1,
        }
    }

    /// Reshapes into 2-D.
    ///
    /// # Panics
    /// Panics if `height * width` differs from the stream length.
    pub fn reshape(mut self, height: usize, width: usize) -> Self {
        assert_eq!(
            height * width,
            self.data.len(),
            "reshape must preserve length"
        );
        self.width = width;
        self.height = height;
        self
    }

    /// Element count.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the stream is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Width (x extent).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height (y extent).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Checked element read (the analogue of a gather fetch).
    ///
    /// # Panics
    /// Panics on out-of-range coordinates — fail-fast rather than UB.
    pub fn at(&self, y: usize, x: usize) -> f32 {
        assert!(
            y < self.height && x < self.width,
            "stream access out of range"
        );
        self.data[y * self.width + x]
    }

    /// Copies the stream out to host data (the analogue of
    /// `streamWrite`).
    pub fn to_vec(&self) -> Vec<f32> {
        self.data.clone()
    }
}

/// Element-wise kernel: `out[i] = f(in[i])`.
pub fn map(input: &Stream, f: impl Fn(f32) -> f32) -> Stream {
    Stream {
        data: input.data.iter().map(|&v| f(v)).collect(),
        width: input.width,
        height: input.height,
    }
}

/// Element-wise two-input kernel: `out[i] = f(a[i], b[i])`.
///
/// # Panics
/// Panics if the shapes differ (no silent broadcasting).
pub fn zip_map(a: &Stream, b: &Stream, f: impl Fn(f32, f32) -> f32) -> Stream {
    assert_eq!(a.width, b.width, "stream widths differ");
    assert_eq!(a.height, b.height, "stream heights differ");
    Stream {
        data: a.data.iter().zip(&b.data).map(|(&x, &y)| f(x, y)).collect(),
        width: a.width,
        height: a.height,
    }
}

/// 2-D gather kernel: for every output coordinate the kernel receives a
/// bounds-checked fetch closure — the certification-friendly substitute
/// for raw pointer arithmetic in stencils/convolutions.
pub fn gather2d(
    input: &Stream,
    f: impl Fn(usize, usize, &dyn Fn(isize, isize) -> f32) -> f32,
) -> Stream {
    let (h, w) = (input.height, input.width);
    let mut out = Stream::new2d(h, w);
    for y in 0..h {
        for x in 0..w {
            let fetch = |dy: isize, dx: isize| -> f32 {
                let yy = y as isize + dy;
                let xx = x as isize + dx;
                if yy < 0 || xx < 0 || yy >= h as isize || xx >= w as isize {
                    0.0 // zero-padded halo, statically safe
                } else {
                    input.data[yy as usize * w + xx as usize]
                }
            };
            out.data[y * w + x] = f(y, x, &fetch);
        }
    }
    out
}

/// Reduction kernel.
pub fn reduce(input: &Stream, init: f32, f: impl Fn(f32, f32) -> f32) -> f32 {
    input.data.iter().fold(init, |acc, &v| f(acc, v))
}

/// The paper's Figure 4 `scale_bias` computation, expressed in the
/// Brook-Auto style: no pointers, no `cudaMalloc`, no launch geometry —
/// and therefore nothing for the CUDA checkers to flag.
pub fn scale_bias_brook(output: &Stream, biases: &Stream, batch: usize, n: usize) -> Stream {
    let size = output.len() / (batch * n);
    assert_eq!(output.len(), batch * n * size, "shape mismatch");
    assert_eq!(biases.len(), n, "one bias per filter");
    let mut out = output.clone();
    for b in 0..batch {
        for f in 0..n {
            for o in 0..size {
                let i = (b * n + f) * size + o;
                out.data[i] *= biases.data[f];
            }
        }
    }
    out
}

/// The 5-point stencil in Brook style (contrast with the Figure 6 CUDA
/// kernel: same computation, no pointers, no halo flag — the halo is
/// part of the fetch semantics).
pub fn stencil2d_brook(input: &Stream, cw: f32, nw: f32) -> Stream {
    gather2d(input, |y, x, fetch| {
        let h = input.height();
        let w = input.width();
        if y == 0 || x == 0 || y == h - 1 || x == w - 1 {
            fetch(0, 0)
        } else {
            fetch(0, 0) * cw + (fetch(-1, 0) + fetch(1, 0) + fetch(0, -1) + fetch(0, 1)) * nw
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_shape() {
        let s = Stream::new2d(3, 4);
        assert_eq!(s.len(), 12);
        assert_eq!((s.height(), s.width()), (3, 4));
        assert!(!s.is_empty());
        let r = Stream::from_slice(&[1.0, 2.0, 3.0, 4.0]).reshape(2, 2);
        assert_eq!(r.at(1, 0), 3.0);
    }

    #[test]
    #[should_panic(expected = "non-zero static size")]
    fn zero_size_rejected() {
        let _ = Stream::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_fails_fast() {
        let s = Stream::new(4);
        let _ = s.at(0, 9);
    }

    #[test]
    fn map_zip_reduce() {
        let a = Stream::from_slice(&[1.0, 2.0, 3.0]);
        let b = Stream::from_slice(&[10.0, 20.0, 30.0]);
        let doubled = map(&a, |v| v * 2.0);
        assert_eq!(doubled.to_vec(), vec![2.0, 4.0, 6.0]);
        let sum = zip_map(&doubled, &b, |x, y| x + y);
        assert_eq!(sum.to_vec(), vec![12.0, 24.0, 36.0]);
        assert_eq!(reduce(&sum, 0.0, |acc, v| acc + v), 72.0);
    }

    #[test]
    #[should_panic(expected = "widths differ")]
    fn shape_mismatch_rejected() {
        let a = Stream::new(3);
        let b = Stream::new(4);
        let _ = zip_map(&a, &b, |x, _| x);
    }

    #[test]
    fn scale_bias_matches_raw_kernel() {
        let (batch, n, size) = (2usize, 3usize, 4usize);
        let data: Vec<f32> = (0..batch * n * size).map(|i| i as f32).collect();
        let biases = [2.0f32, 3.0, 4.0];
        // Raw-kernel reference.
        let mut expected = data.clone();
        crate::kernels::scale_bias(&mut expected, &biases, batch, n, size);
        // Brook version.
        let out = scale_bias_brook(
            &Stream::from_slice(&data),
            &Stream::from_slice(&biases),
            batch,
            n,
        );
        assert_eq!(out.to_vec(), expected);
    }

    #[test]
    fn stencil_matches_raw_kernel() {
        let (h, w) = (5usize, 6usize);
        let data: Vec<f32> = (0..h * w).map(|i| (i % 7) as f32).collect();
        let mut expected = vec![0.0f32; h * w];
        crate::kernels::stencil2d(h, w, &data, &mut expected, 0.5, 0.125);
        let out = stencil2d_brook(&Stream::from_slice(&data).reshape(h, w), 0.5, 0.125);
        assert_eq!(out.to_vec(), expected);
    }

    #[test]
    fn gather_halo_is_zero_padded() {
        let s = Stream::from_slice(&[1.0, 1.0, 1.0, 1.0]).reshape(2, 2);
        let sums = gather2d(&s, |_, _, fetch| {
            fetch(-1, 0) + fetch(1, 0) + fetch(0, -1) + fetch(0, 1)
        });
        // Corner cells see two in-bounds neighbours (1+1) + two zeros.
        assert_eq!(sums.at(0, 0), 2.0);
    }
}
