//! CUDA-style launch geometry: `dim3` grids and blocks, and the
//! per-thread context (`blockIdx`/`threadIdx`/`blockDim`/`gridDim`).

/// A 3-component extent, like CUDA's `dim3`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Dim3 {
    /// X extent.
    pub x: u32,
    /// Y extent.
    pub y: u32,
    /// Z extent.
    pub z: u32,
}

impl Dim3 {
    /// A 1-D extent.
    pub fn new(x: u32) -> Self {
        Dim3 { x, y: 1, z: 1 }
    }

    /// A 2-D extent.
    pub fn xy(x: u32, y: u32) -> Self {
        Dim3 { x, y, z: 1 }
    }

    /// A 3-D extent.
    pub fn xyz(x: u32, y: u32, z: u32) -> Self {
        Dim3 { x, y, z }
    }

    /// Total element count `x·y·z`.
    pub fn count(&self) -> u64 {
        u64::from(self.x) * u64::from(self.y) * u64::from(self.z)
    }

    /// Iterates all `(x, y, z)` coordinates in row-major (z-outer) order.
    pub fn iter(&self) -> impl Iterator<Item = Dim3> + '_ {
        let (x, y, z) = (self.x, self.y, self.z);
        (0..z).flat_map(move |zz| {
            (0..y).flat_map(move |yy| (0..x).map(move |xx| Dim3::xyz(xx, yy, zz)))
        })
    }
}

impl From<u32> for Dim3 {
    fn from(x: u32) -> Self {
        Dim3::new(x)
    }
}

impl From<(u32, u32)> for Dim3 {
    fn from((x, y): (u32, u32)) -> Self {
        Dim3::xy(x, y)
    }
}

impl From<(u32, u32, u32)> for Dim3 {
    fn from((x, y, z): (u32, u32, u32)) -> Self {
        Dim3::xyz(x, y, z)
    }
}

/// The execution context visible to one emulated CUDA thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadCtx {
    /// `blockIdx`.
    pub block_idx: Dim3,
    /// `threadIdx`.
    pub thread_idx: Dim3,
    /// `blockDim`.
    pub block_dim: Dim3,
    /// `gridDim`.
    pub grid_dim: Dim3,
}

impl ThreadCtx {
    /// `blockIdx.x * blockDim.x + threadIdx.x`.
    pub fn global_x(&self) -> usize {
        (self.block_idx.x * self.block_dim.x + self.thread_idx.x) as usize
    }

    /// `blockIdx.y * blockDim.y + threadIdx.y`.
    pub fn global_y(&self) -> usize {
        (self.block_idx.y * self.block_dim.y + self.thread_idx.y) as usize
    }

    /// Flat thread id within the block.
    pub fn thread_rank(&self) -> usize {
        (self.thread_idx.z * self.block_dim.y * self.block_dim.x
            + self.thread_idx.y * self.block_dim.x
            + self.thread_idx.x) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_and_conversions() {
        assert_eq!(Dim3::new(8).count(), 8);
        assert_eq!(Dim3::xy(4, 3).count(), 12);
        assert_eq!(Dim3::xyz(2, 3, 4).count(), 24);
        assert_eq!(Dim3::from(5), Dim3::new(5));
        assert_eq!(Dim3::from((2, 3)), Dim3::xy(2, 3));
        assert_eq!(Dim3::from((2, 3, 4)), Dim3::xyz(2, 3, 4));
    }

    #[test]
    fn iter_covers_all_coords() {
        let d = Dim3::xyz(2, 2, 2);
        let coords: Vec<Dim3> = d.iter().collect();
        assert_eq!(coords.len(), 8);
        assert_eq!(coords[0], Dim3::xyz(0, 0, 0));
        assert_eq!(coords[1], Dim3::xyz(1, 0, 0));
        assert_eq!(coords[7], Dim3::xyz(1, 1, 1));
    }

    #[test]
    fn global_indices() {
        // Coordinates use explicit xyz with z = 0 (xy() is an *extent*
        // constructor whose z defaults to 1).
        let ctx = ThreadCtx {
            block_idx: Dim3::xyz(2, 1, 0),
            thread_idx: Dim3::xyz(3, 4, 0),
            block_dim: Dim3::xy(16, 8),
            grid_dim: Dim3::xy(4, 4),
        };
        assert_eq!(ctx.global_x(), 2 * 16 + 3);
        assert_eq!(ctx.global_y(), 8 + 4);
        assert_eq!(ctx.thread_rank(), 4 * 16 + 3);
    }
}
