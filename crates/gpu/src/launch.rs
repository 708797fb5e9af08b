//! Kernel launch emulation (the cuda4cpu substitute).
//!
//! Two launch modes cover the CUDA semantics the analysed kernels use:
//!
//! * [`launch`] — barrier-free kernels: every (block, thread) runs the
//!   closure once, serially and deterministically.
//! * [`launch_phased`] — kernels with `__syncthreads()`: the kernel body
//!   is expressed as *phases*; within each phase all threads of a block
//!   run to the barrier before any thread enters the next phase, and
//!   per-block `__shared__` memory is materialised per block. Serial
//!   phase execution is observably equivalent to barrier-synchronised
//!   execution for data-race-free kernels.

use crate::dim::{Dim3, ThreadCtx};

/// Launches a barrier-free kernel over `grid × block`.
///
/// Deterministic: blocks and threads run in row-major order.
pub fn launch<F>(grid: impl Into<Dim3>, block: impl Into<Dim3>, mut kernel: F)
where
    F: FnMut(&ThreadCtx),
{
    let grid = grid.into();
    let block = block.into();
    let _sp = adsafe_trace::span("gpu.launch", "gpu");
    adsafe_trace::counter("gpu.launch.launches").incr();
    adsafe_trace::counter("gpu.launch.threads").add(grid.count() * block.count());
    for b in grid.iter() {
        for t in block.iter() {
            let ctx = ThreadCtx {
                block_idx: b,
                thread_idx: t,
                block_dim: block,
                grid_dim: grid,
            };
            kernel(&ctx);
        }
    }
}

/// Control value a phased kernel returns from each phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Run another phase after the barrier.
    Continue,
    /// This thread is done.
    Done,
}

/// Launches a kernel with `__syncthreads` semantics.
///
/// `make_shared` allocates the block's `__shared__` state. The kernel is
/// called as `kernel(ctx, shared, phase)` and returns [`Phase::Continue`]
/// while it has more phases; the barrier sits between phases. All threads
/// of a block observe the same phase number, exactly like code structured
/// around `__syncthreads()` calls.
pub fn launch_phased<S, MS, F>(
    grid: impl Into<Dim3>,
    block: impl Into<Dim3>,
    mut make_shared: MS,
    mut kernel: F,
) where
    MS: FnMut() -> S,
    F: FnMut(&ThreadCtx, &mut S, usize) -> Phase,
{
    let grid = grid.into();
    let block = block.into();
    for b in grid.iter() {
        let mut shared = make_shared();
        let mut phase = 0usize;
        loop {
            let mut any_continue = false;
            for t in block.iter() {
                let ctx = ThreadCtx {
                    block_idx: b,
                    thread_idx: t,
                    block_dim: block,
                    grid_dim: grid,
                };
                if kernel(&ctx, &mut shared, phase) == Phase::Continue {
                    any_continue = true;
                }
            }
            if !any_continue {
                break;
            }
            phase += 1;
        }
    }
}

/// Abnormal termination of a budgeted phased launch.
///
/// Both variants are the emulator's rendering of the classic
/// `__syncthreads` failure modes: a kernel that would hang the device
/// (threads spinning forever between barriers) and a kernel where the
/// threads of a block disagree about reaching the barrier at all
/// (undefined behaviour on real hardware).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchFault {
    /// A thread never stopped returning [`Phase::Continue`]: the phase
    /// budget ran out with the block still spinning at the barrier.
    BarrierDeadlock {
        /// Block that deadlocked.
        block: Dim3,
        /// The configured phase budget.
        budget: u64,
    },
    /// Within one phase, some threads of a block reached the barrier
    /// ([`Phase::Continue`]) while others exited ([`Phase::Done`]) —
    /// a barrier not reached by all threads of the block.
    BarrierDivergence {
        /// Block in which the divergence occurred.
        block: Dim3,
        /// Phase index at which it occurred.
        phase: u64,
        /// Threads that reached the barrier.
        continuing: u64,
        /// Threads that exited instead.
        exited: u64,
    },
}

impl std::fmt::Display for LaunchFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchFault::BarrierDeadlock { block, budget } => write!(
                f,
                "barrier deadlock: block {block:?} still at the barrier after {budget} phases"
            ),
            LaunchFault::BarrierDivergence {
                block,
                phase,
                continuing,
                exited,
            } => write!(
                f,
                "barrier divergence: block {block:?} phase {phase}: \
                 {continuing} thread(s) at the barrier, {exited} exited"
            ),
        }
    }
}

impl std::error::Error for LaunchFault {}

/// Statistics from a completed budgeted phased launch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhasedStats {
    /// Barrier phases executed, summed over blocks.
    pub phases: u64,
    /// Kernel-body invocations (threads × phases).
    pub thread_steps: u64,
}

/// [`launch_phased`] with a per-block phase budget and barrier-fault
/// detection: terminates with a [`LaunchFault`] instead of hanging.
///
/// A block may run at most `max_phases` phases; a block still returning
/// [`Phase::Continue`] at the budget is reported as a barrier deadlock
/// (on hardware, the `__syncthreads` loop would spin forever). A phase
/// in which only *some* threads of the block reach the barrier is
/// reported as barrier divergence. Blocks before the faulting one have
/// already executed — callers treat side effects as partial evidence.
pub fn launch_phased_budgeted<S, MS, F>(
    grid: impl Into<Dim3>,
    block: impl Into<Dim3>,
    max_phases: u64,
    mut make_shared: MS,
    mut kernel: F,
) -> Result<PhasedStats, LaunchFault>
where
    MS: FnMut() -> S,
    F: FnMut(&ThreadCtx, &mut S, usize) -> Phase,
{
    let grid = grid.into();
    let block = block.into();
    let _sp = adsafe_trace::span("gpu.launch_phased", "gpu");
    adsafe_trace::counter("gpu.launch.launches").incr();
    let barrier_waits = adsafe_trace::counter("gpu.launch.barrier_phases");
    let mut stats = PhasedStats::default();
    for b in grid.iter() {
        let mut shared = make_shared();
        let mut phase = 0u64;
        loop {
            let mut continuing = 0u64;
            let mut exited = 0u64;
            for t in block.iter() {
                let ctx = ThreadCtx {
                    block_idx: b,
                    thread_idx: t,
                    block_dim: block,
                    grid_dim: grid,
                };
                match kernel(&ctx, &mut shared, phase as usize) {
                    Phase::Continue => continuing += 1,
                    Phase::Done => exited += 1,
                }
                stats.thread_steps += 1;
            }
            stats.phases += 1;
            if continuing == 0 {
                break;
            }
            // Threads held at the barrier between phases.
            barrier_waits.add(continuing);
            if exited > 0 {
                return Err(LaunchFault::BarrierDivergence {
                    block: b,
                    phase,
                    continuing,
                    exited,
                });
            }
            phase += 1;
            if phase >= max_phases {
                return Err(LaunchFault::BarrierDeadlock {
                    block: b,
                    budget: max_phases,
                });
            }
        }
    }
    Ok(stats)
}

/// Launch statistics, mirroring what a CUDA profiler would report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaunchStats {
    /// Kernel launches performed.
    pub launches: u64,
    /// Total emulated threads executed.
    pub threads: u64,
}

/// A counting wrapper around [`launch`] for tests/reporting.
#[derive(Debug, Default)]
pub struct LaunchTracker {
    stats: LaunchStats,
}

impl LaunchTracker {
    /// Creates a tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Launches and counts.
    pub fn launch<F>(&mut self, grid: impl Into<Dim3>, block: impl Into<Dim3>, kernel: F)
    where
        F: FnMut(&ThreadCtx),
    {
        let grid = grid.into();
        let block = block.into();
        self.stats.launches += 1;
        self.stats.threads += grid.count() * block.count();
        launch(grid, block, kernel);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> LaunchStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_visits_every_thread_once() {
        let mut hits = vec![0u32; 64];
        launch(4u32, 16u32, |ctx| {
            hits[ctx.global_x()] += 1;
        });
        assert!(hits.iter().all(|&h| h == 1));
    }

    #[test]
    fn launch_2d() {
        let (w, h) = (8usize, 4usize);
        let mut img = vec![0.0f32; w * h];
        launch((4u32, 2u32), (2u32, 2u32), |ctx| {
            let x = ctx.global_x();
            let y = ctx.global_y();
            img[y * w + x] = (x + y) as f32;
        });
        assert_eq!(img[0], 0.0);
        assert_eq!(img[3 * w + 7], 10.0);
    }

    #[test]
    fn phased_kernel_sees_barrier_semantics() {
        // Phase 0: every thread writes shared[tid]; phase 1: every thread
        // reads its neighbour. Without the barrier this would read
        // uninitialised data for threads later in the order.
        const N: usize = 8;
        let mut out = [0.0f32; N];
        launch_phased(
            1u32,
            N as u32,
            || vec![0.0f32; N],
            |ctx, shared: &mut Vec<f32>, phase| {
                let tid = ctx.thread_rank();
                match phase {
                    0 => {
                        shared[tid] = tid as f32;
                        Phase::Continue
                    }
                    _ => {
                        out[tid] = shared[(tid + 1) % N];
                        Phase::Done
                    }
                }
            },
        );
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, ((i + 1) % N) as f32);
        }
    }

    #[test]
    fn phased_runs_fresh_shared_per_block() {
        let mut sums = vec![0.0f32; 2];
        launch_phased(
            2u32,
            4u32,
            || 0.0f32,
            |ctx, shared: &mut f32, phase| match phase {
                0 => {
                    *shared += 1.0;
                    Phase::Continue
                }
                _ => {
                    if ctx.thread_rank() == 0 {
                        sums[ctx.block_idx.x as usize] = *shared;
                    }
                    Phase::Done
                }
            },
        );
        assert_eq!(sums, vec![4.0, 4.0]);
    }

    #[test]
    fn budgeted_launch_passes_well_formed_kernel() {
        const N: usize = 8;
        let mut out = [0.0f32; N];
        let stats = launch_phased_budgeted(
            1u32,
            N as u32,
            16,
            || vec![0.0f32; N],
            |ctx, shared: &mut Vec<f32>, phase| {
                let tid = ctx.thread_rank();
                match phase {
                    0 => {
                        shared[tid] = tid as f32;
                        Phase::Continue
                    }
                    _ => {
                        out[tid] = shared[(tid + 1) % N];
                        Phase::Done
                    }
                }
            },
        )
        .expect("well-formed kernel must pass");
        assert_eq!(stats.phases, 2);
        assert_eq!(stats.thread_steps, 2 * N as u64);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, ((i + 1) % N) as f32);
        }
    }

    #[test]
    fn budgeted_launch_detects_barrier_deadlock() {
        // Thread 0 never stops spinning at the barrier: on hardware the
        // block would hang forever. The budget converts that to a fault.
        let fault = launch_phased_budgeted(
            1u32,
            4u32,
            10,
            || (),
            |_ctx, _shared, _phase| Phase::Continue,
        )
        .expect_err("spinning kernel must fault");
        match fault {
            LaunchFault::BarrierDeadlock { budget, .. } => assert_eq!(budget, 10),
            other => panic!("expected deadlock, got {other}"),
        }
    }

    #[test]
    fn budgeted_launch_detects_barrier_divergence() {
        // Thread 3 exits in phase 0 while the rest hit the barrier —
        // a __syncthreads not reached by all threads of the block.
        let fault = launch_phased_budgeted(
            1u32,
            4u32,
            10,
            || (),
            |ctx, _shared: &mut (), phase| {
                if ctx.thread_rank() == 3 || phase == 1 {
                    Phase::Done
                } else {
                    Phase::Continue
                }
            },
        )
        .expect_err("divergent kernel must fault");
        match fault {
            LaunchFault::BarrierDivergence {
                phase,
                continuing,
                exited,
                ..
            } => {
                assert_eq!(phase, 0);
                assert_eq!(continuing, 3);
                assert_eq!(exited, 1);
            }
            other => panic!("expected divergence, got {other}"),
        }
    }

    #[test]
    fn tracker_counts() {
        let mut tr = LaunchTracker::new();
        tr.launch(2u32, 32u32, |_| {});
        tr.launch(1u32, 8u32, |_| {});
        assert_eq!(
            tr.stats(),
            LaunchStats {
                launches: 2,
                threads: 72
            }
        );
    }
}
