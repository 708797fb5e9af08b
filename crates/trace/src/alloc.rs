//! Phase-attributed allocation profiling: a `#[global_allocator]`
//! wrapper over [`std::alloc::System`] that bills every heap
//! allocation to the pipeline phase that made it.
//!
//! The workspace deliberately vendors no allocator or profiler crates,
//! so the instrument is built from the same primitives the rest of the
//! trace plane uses: lock-free `AtomicU64`s, and a fixed table of
//! per-phase slots indexed by a thread-local tag the span stack
//! maintains (see `span.rs`: `cat == "phase"` spans push their
//! stripped name — `parse`, `checks.native`, `render`, … — and restore
//! the previous tag on drop, including during panic unwinding).
//! `adsafe-pool` workers inherit the spawning thread's tag at task
//! start, so allocations made inside `pool.map` are billed to the
//! phase that fanned out.
//!
//! # Per-thread counter shards
//!
//! The additive counters live in a fixed table of `SHARDS`
//! cache-line-aligned shards. Each thread picks a shard once, from a
//! const-initialised thread-local index handed out round-robin, and
//! from then on adds only to its own shard: bytes freed, the 64 log₂
//! size-class buckets, and each phase's allocations and bytes. Two
//! threads share a shard only when more than `SHARDS` of them have
//! allocated, and even then the counters stay exact (they are
//! atomics); the shards only keep concurrent threads off each other's
//! cache lines. Readers — [`stats`], [`total_allocated`],
//! [`phase_stats`], [`publish_metrics`] — sum the shards. Every
//! allocation is billed to exactly one phase slot, so the per-phase
//! allocs/bytes pairs are the only allocation counters: summed over
//! all slots they are the [`MemStats`] totals and the size-class
//! histogram's count and sum.
//!
//! The live level cannot be sharded: a block is often freed by a
//! different thread than the one that allocated it, and the
//! high-water mark of a sum is not the sum of per-shard high-water
//! marks. So the live level (`LEVEL`) stays one global atomic, and
//! with it the global peak and the per-phase "peak live during phase"
//! readings, which therefore keep their exact meaning. The peaks are
//! loaded first and written (`fetch_max`) only when the live level
//! exceeds them, so outside a growth spurt they are read-shared lines,
//! not bounced ones.
//!
//! # The hooks allocate nothing
//!
//! Everything touched on the alloc/dealloc path is a static with a
//! `const` constructor: a heap allocation inside the hooks would
//! recurse into the allocator. This is why the metrics *registry*
//! (mutex + `BTreeMap`) is never consulted from the hot path — phase
//! *names* live in a mutex-guarded table touched only when a phase
//! span opens (rare, and on normal code), while the hooks see only
//! `usize` slot and shard indices read via `try_with` (safe during
//! thread-local teardown, when allocations still occur).
//!
//! # Cost, and the determinism contract
//!
//! Profiling defaults **off**: each hook then costs a single relaxed
//! atomic load. When on, the traced benchmark run
//! (`paperbench --trace 1`) reports the cost as
//! `trace.alloc_overhead_ratio`, a warm assessment's wall time with
//! profiling on over the same run with it off. With process-global
//! counters its median was 2.41; with the shards it is 1.43 (2-vCPU
//! VM, seeds 7-9; see DESIGN.md §14). When enabled (`--mem-profile`, the daemon, the
//! frontend bench), the numbers feed only observability surfaces —
//! `--mem-profile` tables, the flame view, `/metrics`, `/healthz`, the
//! flight recorder, and `adsafe top`. They never enter the
//! deterministic report, which must stay byte-identical with profiling
//! on or off and at any `--jobs` (see DESIGN.md §14 and the
//! determinism matrix in `tests/parallel_pipeline.rs`).

use crate::metrics::{bucket_of, gauge, labeled, HistogramSnapshot, BUCKETS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// The instrumented allocator. Declare it as the global allocator in a
/// binary (or an integration-test crate) to activate the hooks:
///
/// ```text
/// #[global_allocator]
/// static ALLOC: adsafe_trace::alloc::CountingAlloc = adsafe_trace::alloc::CountingAlloc;
/// ```
///
/// Until [`set_profiling`]`(true)` is called the wrapper forwards to
/// [`System`] with one relaxed load of overhead per call.
pub struct CountingAlloc;

/// Master switch; default off so un-instrumented runs pay one relaxed
/// load per allocator call and nothing else.
static PROFILING: AtomicBool = AtomicBool::new(false);

/// Fixed capacity of the per-phase slot table. Slot 0 is the untagged
/// catch-all ("other"); a run registers ~6 phases, so 32 is generous.
/// Registration past the capacity falls back to slot 0 rather than
/// allocating — the hooks must stay allocation-free.
const MAX_PHASES: usize = 32;

/// Number of counter shards. Comfortably above the threads that
/// allocate at once in the CLI or the daemon (pool workers plus
/// connection handlers on small hosts); the table costs ~17 KB.
const SHARDS: usize = 16;

/// One phase's additive accumulators within a shard; both words share
/// a cache line so a billed allocation touches one phase line.
struct PhaseCounts {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

/// One thread group's counters, aligned so no two shards share a
/// cache line. `repr(C)` with `phases` first puts every 16-byte
/// [`PhaseCounts`] at a 16-byte offset, so none straddles two lines.
#[repr(C, align(64))]
struct Shard {
    phases: [PhaseCounts; MAX_PHASES],
    buckets: [AtomicU64; BUCKETS],
    freed: AtomicU64,
}

impl Shard {
    const fn new() -> Self {
        Shard {
            phases: [const {
                PhaseCounts {
                    allocs: AtomicU64::new(0),
                    bytes: AtomicU64::new(0),
                }
            }; MAX_PHASES],
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            freed: AtomicU64::new(0),
        }
    }
}

static SHARD_TABLE: [Shard; SHARDS] = [const { Shard::new() }; SHARDS];

/// Next shard to hand out; threads take them round-robin.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

/// The global live level and its high-water mark. They share one
/// aligned line: every hook writes `live`, and an allocation then
/// reads `peak` from the line it already owns.
#[repr(align(64))]
struct Level {
    live: AtomicU64,
    peak: AtomicU64,
}

static LEVEL: Level = Level {
    live: AtomicU64::new(0),
    peak: AtomicU64::new(0),
};

/// Per phase: the highest *global* live level observed while an
/// allocation was billed to it — a "peak RSS during phase" reading,
/// not a per-phase live ledger (frees are not phase-attributed; the
/// thread freeing a buffer often isn't the phase that allocated it).
#[repr(align(64))]
struct PhasePeaks([AtomicU64; MAX_PHASES]);

static PHASE_PEAKS: PhasePeaks = PhasePeaks([const { AtomicU64::new(0) }; MAX_PHASES]);

/// Registered phase names; index `i` owns slot `i + 1`. Locked only
/// when a phase span opens or a snapshot is taken — never in the
/// allocator hooks.
static PHASE_NAMES: Mutex<Vec<String>> = Mutex::new(Vec::new());

thread_local! {
    /// The slot every allocation on this thread is billed to. Const
    /// init keeps first touch allocation-free, and `Cell<usize>` has
    /// no destructor to register.
    static CURRENT_PHASE: Cell<usize> = const { Cell::new(0) };

    /// This thread's shard index plus one; 0 until the first billed
    /// allocation picks one.
    static SHARD: Cell<usize> = const { Cell::new(0) };
}

/// This thread's counter shard. A thread whose thread-locals are
/// already torn down bills shard 0.
#[inline]
fn shard() -> &'static Shard {
    let i = SHARD
        .try_with(|s| match s.get() {
            0 => {
                let i = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
                s.set(i + 1);
                i
            }
            n => n - 1,
        })
        .unwrap_or(0);
    // `% SHARDS` lets the compiler drop the bounds check: the hooks
    // must not panic.
    &SHARD_TABLE[i % SHARDS]
}

/// Sum of one counter across every shard.
fn sum_shards(field: impl Fn(&Shard) -> &AtomicU64) -> u64 {
    SHARD_TABLE
        .iter()
        .map(|s| field(s).load(Ordering::Relaxed))
        .sum()
}

/// Sum of one per-phase counter across every phase of every shard.
fn sum_phases(field: impl Fn(&PhaseCounts) -> &AtomicU64) -> u64 {
    SHARD_TABLE
        .iter()
        .flat_map(|s| &s.phases)
        .map(|p| field(p).load(Ordering::Relaxed))
        .sum()
}

/// Raises `peak` to `live` if it is lower; a plain load when it isn't.
#[inline]
fn raise(peak: &AtomicU64, live: u64) {
    if live > peak.load(Ordering::Relaxed) {
        peak.fetch_max(live, Ordering::Relaxed);
    }
}

/// Enables or disables allocation profiling process-wide; returns the
/// previous state. Counts accumulate monotonically while enabled —
/// read deltas of [`stats`]/[`phase_stats`] to scope a window.
pub fn set_profiling(on: bool) -> bool {
    PROFILING.swap(on, Ordering::Relaxed)
}

/// Whether allocation profiling is currently enabled.
pub fn profiling() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Registers `name` (idempotently) and returns its slot index for
/// [`set_current_phase`]. Returns slot 0 once the fixed table is full.
pub fn phase_index(name: &str) -> usize {
    let mut names = PHASE_NAMES.lock().expect("phase name table poisoned");
    if let Some(i) = names.iter().position(|n| n == name) {
        return i + 1;
    }
    if names.len() + 1 >= MAX_PHASES {
        return 0;
    }
    names.push(name.to_string());
    names.len()
}

/// This thread's current billing slot (0 = untagged).
pub fn current_phase() -> usize {
    CURRENT_PHASE.try_with(Cell::get).unwrap_or(0)
}

/// Sets this thread's billing slot and returns the previous one, so
/// callers (the span stack, pool workers) can restore it.
pub fn set_current_phase(slot: usize) -> usize {
    CURRENT_PHASE
        .try_with(|c| c.replace(if slot < MAX_PHASES { slot } else { 0 }))
        .unwrap_or(0)
}

/// Point-in-time totals from the instrumented allocator. All zeros
/// unless a [`CountingAlloc`] is installed *and* profiling is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemStats {
    /// Total bytes requested from the allocator while profiling.
    pub allocated_bytes: u64,
    /// Total bytes returned to the allocator while profiling.
    pub freed_bytes: u64,
    /// Currently live (allocated − freed) bytes.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes`.
    pub peak_live_bytes: u64,
    /// Number of allocation calls (reallocs count once).
    pub alloc_count: u64,
    /// Log₂ size-class distribution of allocation sizes.
    pub size_classes: HistogramSnapshot,
}

/// Snapshot of the global allocator totals.
pub fn stats() -> MemStats {
    let size_classes = HistogramSnapshot {
        buckets: std::array::from_fn(|b| sum_shards(|s| &s.buckets[b])),
        count: sum_phases(|p| &p.allocs),
        sum: sum_phases(|p| &p.bytes),
    };
    MemStats {
        allocated_bytes: size_classes.sum,
        freed_bytes: sum_shards(|s| &s.freed),
        live_bytes: live_bytes(),
        peak_live_bytes: peak_live_bytes(),
        alloc_count: size_classes.count,
        size_classes,
    }
}

/// Total bytes allocated so far (monotonic while profiling); the
/// single-value read the per-request delta in `adsafe-serve` uses.
pub fn total_allocated() -> u64 {
    sum_phases(|p| &p.bytes)
}

/// Currently live bytes.
pub fn live_bytes() -> u64 {
    LEVEL.live.load(Ordering::Relaxed)
}

/// High-water mark of live bytes.
pub fn peak_live_bytes() -> u64 {
    LEVEL.peak.load(Ordering::Relaxed)
}

/// Resets the peak-live high-water mark to the current live level, so
/// a long-lived process (or a bench run) can scope the peak to a
/// window. Totals are never reset.
pub fn reset_peak() {
    LEVEL.peak.store(live_bytes(), Ordering::Relaxed);
}

/// One phase's allocation totals, as reported by [`phase_stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseMem {
    /// Phase name as the span stack registered it (`parse`,
    /// `checks.native`, …); `other` is the untagged catch-all.
    pub name: String,
    /// Allocation calls billed to the phase.
    pub allocs: u64,
    /// Bytes billed to the phase.
    pub bytes: u64,
    /// Highest global live level observed during the phase.
    pub peak_live: u64,
}

/// Per-phase totals, untagged catch-all first, then phases in
/// registration order. Monotonic while profiling; callers wanting a
/// single run's bill diff two snapshots (`peak_live` maxes rather
/// than adds, so the delta keeps the later snapshot's value).
pub fn phase_stats() -> Vec<PhaseMem> {
    let names = PHASE_NAMES.lock().expect("phase name table poisoned");
    let mut out = Vec::with_capacity(names.len() + 1);
    for (slot, name) in
        std::iter::once("other").chain(names.iter().map(String::as_str)).enumerate()
    {
        out.push(PhaseMem {
            name: name.to_string(),
            allocs: sum_shards(|s| &s.phases[slot].allocs),
            bytes: sum_shards(|s| &s.phases[slot].bytes),
            peak_live: PHASE_PEAKS.0[slot].load(Ordering::Relaxed),
        });
    }
    out
}

/// The increase from `before` to `after` per phase (new phases count
/// from zero); phases with no allocations in the window are omitted.
/// `peak_live` is not additive — the delta carries `after`'s value.
pub fn phase_delta(before: &[PhaseMem], after: &[PhaseMem]) -> Vec<PhaseMem> {
    after
        .iter()
        .filter_map(|a| {
            let b = before.iter().find(|b| b.name == a.name);
            let allocs = a.allocs - b.map_or(0, |b| b.allocs);
            let bytes = a.bytes - b.map_or(0, |b| b.bytes);
            (allocs > 0).then(|| PhaseMem {
                name: a.name.clone(),
                allocs,
                bytes,
                peak_live: a.peak_live,
            })
        })
        .collect()
}

/// Publishes the allocator totals into the metrics registry —
/// `mem.live_bytes` / `mem.peak_bytes` gauges plus one
/// `mem.phase{phase="…"}` bytes gauge per registered phase — so
/// `/metrics` exports them in both the text and Prometheus formats.
/// Call before rendering; gauges, not counters, because the registry
/// mirrors a level the allocator owns.
pub fn publish_metrics() {
    gauge("mem.live_bytes").set(live_bytes());
    gauge("mem.peak_bytes").set(peak_live_bytes());
    for p in phase_stats() {
        gauge(&labeled("mem.phase", &[("phase", &p.name)])).set(p.bytes);
    }
}

/// Billing hook for one successful allocation of `size` bytes.
#[inline]
fn on_alloc(size: usize) {
    if !PROFILING.load(Ordering::Relaxed) {
        return;
    }
    let size = size as u64;
    let slot = CURRENT_PHASE
        .try_with(Cell::get)
        .unwrap_or(0)
        .min(MAX_PHASES - 1);
    let s = shard();
    s.buckets[bucket_of(size)].fetch_add(1, Ordering::Relaxed);
    s.phases[slot].allocs.fetch_add(1, Ordering::Relaxed);
    s.phases[slot].bytes.fetch_add(size, Ordering::Relaxed);
    let live = LEVEL.live.fetch_add(size, Ordering::Relaxed) + size;
    raise(&LEVEL.peak, live);
    raise(&PHASE_PEAKS.0[slot], live);
}

/// Billing hook for one deallocation of `size` bytes. Saturating: a
/// block allocated before profiling was enabled must not wrap the
/// live gauge when freed after.
#[inline]
fn on_dealloc(size: usize) {
    if !PROFILING.load(Ordering::Relaxed) {
        return;
    }
    let size = size as u64;
    shard().freed.fetch_add(size, Ordering::Relaxed);
    let mut cur = LEVEL.live.load(Ordering::Relaxed);
    loop {
        let next = cur.saturating_sub(size);
        match LEVEL
            .live
            .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

// SAFETY: every method forwards verbatim to `System`, which upholds
// the `GlobalAlloc` contract; the hooks touch only static atomics and
// const-initialised thread-locals, so they cannot allocate, panic, or
// otherwise re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            on_dealloc(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The unit tests exercise the bookkeeping by calling the hooks
    // directly: the test binary does not install `CountingAlloc` (the
    // workspace-level integration tests do), so real allocations are
    // invisible here and the arithmetic can be asserted exactly.

    /// Serialises tests that flip the global `PROFILING` switch.
    static PROFILING_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn hooks_are_inert_until_enabled() {
        let _l = PROFILING_LOCK.lock().unwrap();
        let before = stats();
        on_alloc(4096);
        on_dealloc(4096);
        assert_eq!(stats(), before, "disabled hooks must not count");
    }

    #[test]
    fn totals_live_and_peak_track_alloc_free_pairs() {
        let _l = PROFILING_LOCK.lock().unwrap();
        let prev = set_profiling(true);
        let before = stats();
        on_alloc(1000);
        on_alloc(24);
        on_dealloc(1000);
        let after = stats();
        set_profiling(prev);
        assert_eq!(after.allocated_bytes - before.allocated_bytes, 1024);
        assert_eq!(after.freed_bytes - before.freed_bytes, 1000);
        assert_eq!(after.alloc_count - before.alloc_count, 2);
        assert!(after.peak_live_bytes >= before.live_bytes + 1024);
        assert!(after.size_classes.count > before.size_classes.count);
    }

    #[test]
    fn dealloc_saturates_instead_of_wrapping() {
        let _l = PROFILING_LOCK.lock().unwrap();
        let prev = set_profiling(true);
        // Free a block "allocated before profiling was enabled": far
        // larger than anything the sibling tests leave live.
        on_dealloc(1 << 40);
        let live = live_bytes();
        set_profiling(prev);
        assert_eq!(live, 0, "live gauge must saturate at zero");
    }

    #[test]
    fn phase_attribution_bills_the_current_tag() {
        let _l = PROFILING_LOCK.lock().unwrap();
        let idx = phase_index("test.alloc.phase_a");
        assert!(idx > 0, "registration must find a free slot");
        assert_eq!(phase_index("test.alloc.phase_a"), idx, "idempotent");
        let prev_phase = set_current_phase(idx);
        let prev = set_profiling(true);
        let before = phase_stats();
        on_alloc(512);
        let after = phase_stats();
        set_profiling(prev);
        set_current_phase(prev_phase);
        let d = phase_delta(&before, &after);
        assert_eq!(d.len(), 1, "only the tagged phase changed: {d:?}");
        assert_eq!(d[0].name, "test.alloc.phase_a");
        assert_eq!(d[0].allocs, 1);
        assert_eq!(d[0].bytes, 512);
        assert!(d[0].peak_live > 0);
    }

    #[test]
    fn untagged_allocations_land_in_other() {
        let _l = PROFILING_LOCK.lock().unwrap();
        let prev_phase = set_current_phase(0);
        let prev = set_profiling(true);
        let before = phase_stats();
        on_alloc(64);
        let after = phase_stats();
        set_profiling(prev);
        set_current_phase(prev_phase);
        let d = phase_delta(&before, &after);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].name, "other");
    }

    #[test]
    fn publish_metrics_exports_gauges() {
        let _l = PROFILING_LOCK.lock().unwrap();
        let _r = crate::metrics::registry_lock();
        let idx = phase_index("test.alloc.publish");
        let prev_phase = set_current_phase(idx);
        let prev = set_profiling(true);
        on_alloc(2048);
        publish_metrics();
        set_profiling(prev);
        set_current_phase(prev_phase);
        let gauges = crate::metrics::gauge_snapshot();
        assert!(gauges.contains_key("mem.live_bytes"), "{gauges:?}");
        assert!(gauges.contains_key("mem.peak_bytes"), "{gauges:?}");
        let key = labeled("mem.phase", &[("phase", "test.alloc.publish")]);
        assert!(gauges.get(&key).is_some_and(|&v| v >= 2048), "{gauges:?}");
    }

    #[test]
    fn concurrent_threads_sum_exactly_across_shards() {
        const THREADS: usize = 8;
        /// Threads are pinned to this many shards, and billed to this
        /// many phase tags, so threads `t` and `t + 4` add to the same
        /// counters at once while the totals still span shards.
        const USED_SHARDS: usize = 2;
        const PHASES: usize = 4;
        const OPS: usize = 20_000;
        /// Thread `t`'s `i`-th request size: spans zero through
        /// several log₂ classes.
        fn size(t: usize, i: usize) -> u64 {
            (((t * 7919 + i * 104_729) % 70_001) >> (i % 9)) as u64
        }
        // Each thread allocates every size and, after each odd op,
        // frees the block from the op before — so its own running
        // live level never drops below zero and the global gauge
        // never saturates.
        let freed = |t: usize, i: usize| (i % 2 == 1).then(|| size(t, i - 1));
        let name = |p: usize| format!("test.alloc.shard_phase{p}");

        let _l = PROFILING_LOCK.lock().unwrap();
        let slots: Vec<usize> = (0..PHASES).map(|p| phase_index(&name(p))).collect();
        assert!(
            slots.iter().all(|&s| s > 0),
            "registration must find free slots: {slots:?}"
        );
        let prev = set_profiling(true);
        let before = stats();
        let phases_before = phase_stats();
        // The barrier releases all threads at once, so their hook calls
        // overlap instead of running one thread after another.
        let start = std::sync::Barrier::new(THREADS);
        let thread_peaks: Vec<u64> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (start, slot) = (&start, slots[t % PHASES]);
                    scope.spawn(move || {
                        set_current_phase(slot);
                        SHARD.with(|s| s.set(t % USED_SHARDS + 1));
                        start.wait();
                        let (mut live, mut peak) = (0u64, 0u64);
                        for i in 0..OPS {
                            on_alloc(size(t, i) as usize);
                            live += size(t, i);
                            peak = peak.max(live);
                            if let Some(f) = freed(t, i) {
                                on_dealloc(f as usize);
                                live -= f;
                            }
                        }
                        peak
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let after = stats();
        let phases_after = phase_stats();
        set_profiling(prev);

        let mut frees = 0u64;
        let mut buckets = [0u64; BUCKETS];
        let mut phase_bytes = [0u64; PHASES];
        for t in 0..THREADS {
            for i in 0..OPS {
                buckets[bucket_of(size(t, i))] += 1;
                phase_bytes[t % PHASES] += size(t, i);
                frees += freed(t, i).unwrap_or(0);
            }
        }
        let bytes: u64 = phase_bytes.iter().sum();
        let allocs = (THREADS * OPS) as u64;
        assert_eq!(after.allocated_bytes - before.allocated_bytes, bytes);
        assert_eq!(after.freed_bytes - before.freed_bytes, frees);
        assert_eq!(after.alloc_count - before.alloc_count, allocs);
        assert_eq!(after.size_classes.count - before.size_classes.count, allocs);
        assert_eq!(after.size_classes.sum - before.size_classes.sum, bytes);
        for (b, &want) in buckets.iter().enumerate() {
            let got = after.size_classes.buckets[b] - before.size_classes.buckets[b];
            assert_eq!(got, want, "size class {b}");
        }
        assert_eq!(after.live_bytes - before.live_bytes, bytes - frees);
        let max_thread_peak = thread_peaks.into_iter().max().unwrap();
        assert!(
            after.peak_live_bytes >= before.live_bytes + max_thread_peak,
            "peak {} below a single thread's live level {max_thread_peak}",
            after.peak_live_bytes
        );
        let d = phase_delta(&phases_before, &phases_after);
        assert_eq!(d.len(), PHASES, "only the tagged phases changed: {d:?}");
        for (p, &want) in phase_bytes.iter().enumerate() {
            let got = d.iter().find(|m| m.name == name(p)).expect("phase billed");
            assert_eq!(got.allocs, (THREADS / PHASES * OPS) as u64, "{}", got.name);
            assert_eq!(got.bytes, want, "{}", got.name);
        }
    }

    #[test]
    fn set_current_phase_returns_previous_and_rejects_out_of_range() {
        let prev = set_current_phase(3);
        assert_eq!(set_current_phase(MAX_PHASES + 7), 3);
        assert_eq!(current_phase(), 0, "out-of-range tags fall back to untagged");
        set_current_phase(prev);
    }
}
