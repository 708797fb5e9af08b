//! Device-memory emulation: explicit host↔device buffers and an
//! allocation tracker.
//!
//! Mirrors the CUDA memory model the paper's Figure 4 illustrates — the
//! programmer maintains *two* sets of pointers (host and device) and
//! moves data with explicit copies. The [`DeviceContext`] tracker records
//! allocations, frees, and transfers so analyses and tests can observe
//! exactly the behaviours (dynamic allocation, alloc/free imbalance)
//! that ISO 26262 recommends against.

use std::cell::RefCell;
use std::rc::Rc;

/// Counters shared by all buffers of one emulated device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceStats {
    /// `cudaMalloc`-equivalent calls.
    pub allocs: u64,
    /// `cudaFree`-equivalent events (buffer drops).
    pub frees: u64,
    /// Bytes currently allocated.
    pub live_bytes: u64,
    /// Peak bytes allocated.
    pub peak_bytes: u64,
    /// Host→device transfers.
    pub h2d_transfers: u64,
    /// Device→host transfers.
    pub d2h_transfers: u64,
    /// Total bytes transferred either direction.
    pub transferred_bytes: u64,
}

/// An emulated GPU device: owns allocation statistics.
#[derive(Debug, Clone, Default)]
pub struct DeviceContext {
    stats: Rc<RefCell<DeviceStats>>,
}

impl DeviceContext {
    /// Creates a fresh device.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> DeviceStats {
        *self.stats.borrow()
    }

    /// Allocates a zero-initialised device buffer of `len` `f32`s
    /// (`cudaMalloc` + `cudaMemset`).
    pub fn alloc(&self, len: usize) -> DeviceBuffer {
        let bytes = (len * 4) as u64;
        {
            let mut s = self.stats.borrow_mut();
            s.allocs += 1;
            s.live_bytes += bytes;
            s.peak_bytes = s.peak_bytes.max(s.live_bytes);
        }
        DeviceBuffer {
            data: vec![0.0; len],
            stats: self.stats.clone(),
        }
    }

    /// Allocates and fills from host data (`cudaMalloc` + `cudaMemcpy`).
    pub fn alloc_from(&self, host: &[f32]) -> DeviceBuffer {
        let mut b = self.alloc(host.len());
        b.copy_from_host(host);
        b
    }
}

/// A device-resident `f32` buffer.
#[derive(Debug)]
pub struct DeviceBuffer {
    data: Vec<f32>,
    stats: Rc<RefCell<DeviceStats>>,
}

impl DeviceBuffer {
    /// Host→device copy (`cudaMemcpyHostToDevice`).
    ///
    /// # Panics
    /// Panics if lengths differ — mirroring the memory corruption a
    /// mismatched `cudaMemcpy` would cause.
    pub fn copy_from_host(&mut self, host: &[f32]) {
        assert_eq!(host.len(), self.data.len(), "H2D size mismatch");
        self.data.copy_from_slice(host);
        let mut s = self.stats.borrow_mut();
        s.h2d_transfers += 1;
        s.transferred_bytes += (host.len() * 4) as u64;
    }

    /// Device→host copy (`cudaMemcpyDeviceToHost`).
    ///
    /// # Panics
    /// Panics if lengths differ.
    pub fn copy_to_host(&self, host: &mut [f32]) {
        assert_eq!(host.len(), self.data.len(), "D2H size mismatch");
        host.copy_from_slice(&self.data);
        let mut s = self.stats.borrow_mut();
        s.d2h_transfers += 1;
        s.transferred_bytes += (host.len() * 4) as u64;
    }

    /// Device-side view (what a kernel would receive as a pointer).
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable device-side view.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Length in elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl Drop for DeviceBuffer {
    fn drop(&mut self) {
        let mut s = self.stats.borrow_mut();
        s.frees += 1;
        s.live_bytes = s.live_bytes.saturating_sub((self.data.len() * 4) as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_balance_tracked() {
        let dev = DeviceContext::new();
        {
            let _a = dev.alloc(100);
            let _b = dev.alloc(50);
            let s = dev.stats();
            assert_eq!(s.allocs, 2);
            assert_eq!(s.frees, 0);
            assert_eq!(s.live_bytes, 600);
        }
        let s = dev.stats();
        assert_eq!(s.frees, 2);
        assert_eq!(s.live_bytes, 0);
        assert_eq!(s.peak_bytes, 600);
    }

    #[test]
    fn transfers_roundtrip() {
        let dev = DeviceContext::new();
        let host = vec![1.0f32, 2.0, 3.0];
        let buf = dev.alloc_from(&host);
        let mut back = vec![0.0f32; 3];
        buf.copy_to_host(&mut back);
        assert_eq!(back, host);
        let s = dev.stats();
        assert_eq!(s.h2d_transfers, 1);
        assert_eq!(s.d2h_transfers, 1);
        assert_eq!(s.transferred_bytes, 24);
    }

    #[test]
    #[should_panic(expected = "H2D size mismatch")]
    fn mismatched_copy_panics() {
        let dev = DeviceContext::new();
        let mut buf = dev.alloc(2);
        buf.copy_from_host(&[1.0, 2.0, 3.0]);
    }

    #[test]
    fn kernel_style_usage() {
        // The scale_bias_gpu pattern from the paper's Figure 4.
        let dev = DeviceContext::new();
        let batch = 2;
        let n = 3;
        let size = 4;
        let host_out: Vec<f32> = (0..batch * n * size).map(|i| i as f32).collect();
        let biases = [2.0f32, 3.0, 4.0];
        let mut d_out = dev.alloc_from(&host_out);
        let d_biases = dev.alloc_from(&biases);
        // Emulated kernel: output[(b*n + f)*size + o] *= biases[f]
        crate::launch::launch((size as u32, n as u32, batch as u32), 1u32, |ctx| {
            let o = ctx.block_idx.x as usize;
            let f = ctx.block_idx.y as usize;
            let b = ctx.block_idx.z as usize;
            let idx = (b * n + f) * size + o;
            let bias = d_biases.as_slice()[f];
            d_out.as_mut_slice()[idx] *= bias;
        });
        let mut out = vec![0.0f32; host_out.len()];
        d_out.copy_to_host(&mut out);
        assert_eq!(out[0], 0.0);
        assert_eq!(out[size], host_out[size] * 3.0); // filter 1
        assert_eq!(out[2 * size], host_out[2 * size] * 4.0); // filter 2
    }
}
