//! # adsafe-pool — a zero-dependency self-scheduling thread pool
//!
//! The assessment pipeline fans per-file and per-module tasks (one task
//! per file, then one per module) out over cores with
//! [`Pool::map`]: every task runs under
//! `catch_unwind` (preserving the pipeline's fault-isolation
//! semantics), and results come back **indexed by input position**, so
//! callers can merge them in stable input order no matter which worker
//! ran what. In the spirit of the vendored `crates/shims`, this crate
//! is std-only — the build environment has no crates.io access.
//!
//! Scheduling is self-scheduling over one shared cursor: each worker
//! claims the next unclaimed input index with an atomic `fetch_add`
//! until the items run out, so a worker that finishes early simply
//! claims more. With one worker (the pipeline's library default) no
//! threads are spawned at all: tasks run inline on the calling thread,
//! in input order — which is what keeps thread-local machinery (trace
//! spans, failpoints) visible to serial callers and tests.
//!
//! Worker threads carry their own thread-local trace scopes; after the
//! scope joins, each worker hands back its events, counter increments
//! and allocated bytes, and the calling thread absorbs them via
//! [`adsafe_trace::absorb`], so the caller's scope still observes the
//! whole parallel run — its events and its exact numbers.
//!
//! For resident services the crate also provides [`Executor`]: a
//! long-lived bounded-queue thread pool with backpressure
//! (`pool.queue_depth` gauge, `pool.tasks_rejected` counter) and
//! graceful drain-on-shutdown — see [`executor`].

#![warn(missing_docs)]

pub mod executor;

pub use executor::Executor;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The result of one task: `Err` carries the panic payload of a task
/// that unwound, exactly as `std::panic::catch_unwind` reports it.
pub type TaskResult<R> = std::thread::Result<R>;

/// A finished task: its result and the span events it recorded.
type Done<R> = (TaskResult<R>, Vec<adsafe_trace::SpanEvent>);

/// A fixed-width self-scheduling pool.
///
/// `Pool` is cheap to construct (it owns no threads); threads are
/// spawned per [`map`](Pool::map) call via `std::thread::scope`, so
/// borrows from the caller's stack flow into tasks without `'static`
/// bounds.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// Creates a pool with `jobs` workers. `jobs == 0` resolves to the
    /// machine's available parallelism (falling back to 1 if unknown),
    /// read once per process: on Linux the query reads cgroup files,
    /// about 0.1 ms that a warm daemon request would pay every time.
    pub fn new(jobs: usize) -> Self {
        static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        let workers = if jobs == 0 {
            *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        } else {
            jobs
        };
        Pool { workers }
    }

    /// Number of workers tasks will be spread over.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item, returning per-item results in input
    /// order. Each task runs under `catch_unwind`; a panicking task
    /// yields `Err(payload)` at its index without disturbing others.
    ///
    /// With one worker (or one item) everything runs inline on the
    /// calling thread in input order. Otherwise `min(workers, items)`
    /// scoped threads claim the tasks from a shared cursor, and each
    /// worker's trace scope (events, counters, allocations) is absorbed
    /// into the caller's after the join.
    pub fn map<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<TaskResult<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        if self.workers <= 1 || items.len() <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, item)| catch_unwind(AssertUnwindSafe(|| f(i, item))))
                .collect();
        }
        self.map_parallel(items, f)
    }

    fn map_parallel<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<TaskResult<R>>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n_workers = self.workers.min(items.len());
        // Items move out of their slot exactly once, by whichever
        // worker claimed the index; results land at the same index.
        let slots: Vec<Mutex<Option<T>>> =
            items.into_iter().map(|it| Mutex::new(Some(it))).collect();
        let results: Vec<Mutex<Option<Done<R>>>> =
            (0..slots.len()).map(|_| Mutex::new(None)).collect();
        // The next unclaimed index: each worker takes one at a time.
        let cursor = AtomicUsize::new(0);

        let handbacks: Mutex<Vec<(usize, adsafe_trace::Handback)>> = Mutex::new(Vec::new());
        // Workers inherit the caller's allocation-billing phase tag so
        // parallel work stays attributed to the phase that fanned out
        // (see `adsafe_trace::alloc`); worker thread-locals start at 0.
        let parent_phase = adsafe_trace::alloc::current_phase();
        std::thread::scope(|scope| {
            let mut spawned = Vec::with_capacity(n_workers);
            for w in 0..n_workers {
                let f = &f;
                let slots = &slots;
                let results = &results;
                let cursor = &cursor;
                let handbacks = &handbacks;
                spawned.push(scope.spawn(move || {
                    adsafe_trace::alloc::set_current_phase(parent_phase);
                    let trace_scope = adsafe_trace::mark();
                    {
                        let _span = adsafe_trace::span_with(
                            "pool.worker",
                            "pool",
                            vec![("worker", w.to_string())],
                        );
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            if i >= slots.len() {
                                break;
                            }
                            let item = slots[i]
                                .lock()
                                .unwrap()
                                .take()
                                .expect("each index is claimed exactly once");
                            let r = catch_unwind(AssertUnwindSafe(|| f(i, item)));
                            // Taking each task's events out of the
                            // worker's buffer keeps that buffer's
                            // growth, which is billed to the run, the
                            // same however the tasks were split.
                            let events = adsafe_trace::drain_from(&trace_scope);
                            *results[i].lock().unwrap() = Some((r, events));
                        }
                    }
                    handbacks.lock().unwrap().push((w, trace_scope.hand_back()));
                }));
            }
            // The scope waits only for the closures; a join also waits for
            // the thread's exit, where the allocator hands its arena back
            // for the next round's workers (else they open new arenas).
            for worker in spawned {
                if let Err(payload) = worker.join() {
                    std::panic::resume_unwind(payload);
                }
            }
        });

        // Re-home worker scopes onto the calling thread, in worker
        // order, then each task's events in input order, so absorption
        // is deterministic.
        let mut collected = handbacks.into_inner().unwrap();
        collected.sort_by_key(|(w, _)| *w);
        for (_, handback) in collected {
            adsafe_trace::absorb(handback);
        }

        results
            .into_iter()
            .map(|slot| {
                let (r, events) = slot
                    .into_inner()
                    .unwrap()
                    .expect("every index was claimed and completed");
                adsafe_trace::absorb(events.into());
                r
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn zero_jobs_resolves_to_available_parallelism() {
        assert!(Pool::new(0).workers() >= 1);
        assert_eq!(Pool::new(3).workers(), 3);
    }

    #[test]
    fn map_returns_results_in_input_order() {
        for jobs in [1, 2, 4, 8] {
            let pool = Pool::new(jobs);
            let items: Vec<usize> = (0..50).collect();
            let out = pool.map(items, |i, x| {
                assert_eq!(i, x);
                x * 2
            });
            let values: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(values, (0..50).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_panicking_task_is_isolated_at_its_index() {
        for jobs in [1, 4] {
            let pool = Pool::new(jobs);
            let out = pool.map((0..10).collect::<Vec<usize>>(), |_, x| {
                if x == 3 {
                    panic!("task bug");
                }
                x
            });
            for (i, r) in out.iter().enumerate() {
                assert_eq!(r.is_err(), i == 3, "index {i}");
            }
        }
    }

    #[test]
    fn single_worker_runs_inline_and_in_order() {
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let pool = Pool::new(1);
        pool.map((0..8).collect::<Vec<usize>>(), |i, _| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(i);
        });
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn all_tasks_complete_under_unbalanced_load() {
        let done = AtomicUsize::new(0);
        let pool = Pool::new(4);
        pool.map((0..64).collect::<Vec<usize>>(), |_, x| {
            // Front-load the work so workers finish out of step.
            if x % 8 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            done.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(done.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn workers_inherit_the_callers_allocation_phase_tag() {
        let slot = adsafe_trace::alloc::phase_index("pool-test-phase");
        assert_ne!(slot, 0, "registry has room in tests");
        let prev = adsafe_trace::alloc::set_current_phase(slot);
        let pool = Pool::new(4);
        let out = pool.map((0..16).collect::<Vec<usize>>(), |_, _| {
            adsafe_trace::alloc::current_phase()
        });
        adsafe_trace::alloc::set_current_phase(prev);
        for r in out {
            assert_eq!(r.unwrap(), slot, "every worker bills the parent phase");
        }
    }

    #[test]
    fn worker_spans_are_absorbed_into_the_caller_trace() {
        let m = adsafe_trace::mark();
        let pool = Pool::new(4);
        pool.map((0..16).collect::<Vec<usize>>(), |i, _| {
            let _s = adsafe_trace::span_with("pool.task", "pool", vec![("i", i.to_string())]);
        });
        let events = adsafe_trace::drain_from(&m);
        let tasks = events.iter().filter(|e| e.name == "pool.task").count();
        let workers = events.iter().filter(|e| e.name == "pool.worker").count();
        assert_eq!(tasks, 16);
        assert!((1..=4).contains(&workers), "workers={workers}");
    }

    #[test]
    fn worker_counter_increments_land_in_the_callers_scope() {
        let name = "test.pool.task_increments";
        let m = adsafe_trace::mark();
        Pool::new(4).map((0..16).collect::<Vec<u64>>(), |_, x| {
            adsafe_trace::counter(name).add(x);
        });
        let counters = m.counters();
        let got = counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert_eq!(got, Some((0..16).sum()), "{counters:?}");
        drop(adsafe_trace::drain_from(&m));
    }
}
