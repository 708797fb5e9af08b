//! # adsafe-gpu — CUDA-on-CPU execution layer and open-source kernels
//!
//! The substrate for the paper's GPU experiments:
//!
//! * [`launch`]/[`launch_phased`] — a cuda4cpu-style grid/block/thread
//!   emulator with `__syncthreads` semantics (Figure 6's methodology:
//!   "modified the code in such a way that it runs in the CPU");
//! * [`device`] — explicit host↔device buffers with an allocation
//!   tracker (the Figure 4 memory-management pattern, observable);
//! * [`kernels`] — GEMM (naive/tiled), im2col convolution, 2D/3D
//!   stencils, and YOLO's pointwise layers, all cross-validated;
//! * [`autotune`] — an ISAAC-like input-aware GEMM tuner;
//! * [`yolo`] — a darknet-style detection pipeline with selectable
//!   backends, powering the Figure 7 comparison.
//!
//! ```
//! use adsafe_gpu::{launch, Dim3};
//!
//! let mut data = vec![0.0f32; 64];
//! launch(Dim3::new(4), Dim3::new(16), |ctx| {
//!     data[ctx.global_x()] = ctx.global_x() as f32 * 2.0;
//! });
//! assert_eq!(data[10], 20.0);
//! ```

#![warn(missing_docs)]

pub mod autotune;
pub mod brook;
pub mod device;
pub mod dim;
pub mod kernels;
pub mod launch;
pub mod yolo;

pub use autotune::{GemmTuner, TuneMode};
pub use brook::Stream;
pub use device::{DeviceBuffer, DeviceContext, DeviceStats};
pub use dim::{Dim3, ThreadCtx};
pub use kernels::ConvShape;
pub use launch::{
    launch, launch_phased, launch_phased_budgeted, LaunchFault, LaunchTracker, Phase, PhasedStats,
};
pub use yolo::{synthetic_frame, Backend, Detection, YoloNet};
