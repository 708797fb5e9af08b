//! Hierarchical wall-clock spans with RAII guards, and the per-thread
//! trace scope every per-run number is read from.
//!
//! Each thread carries its own span stack and event buffer, so
//! concurrent assessment runs (e.g. parallel tests) never interleave
//! events. A [`SpanGuard`] records its span when dropped — including
//! during panic unwinding, which is what keeps the stack well-formed
//! when a checker panics under `catch_unwind`: the inner guards drop
//! first, so every exit matches the innermost open span. The buffer
//! also totals this thread's counter increments; with the allocation
//! profiler's per-thread table (`alloc.rs`) that makes a [`Mark`]'s
//! scope: everything recorded on the thread since, and nothing else.

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Process-wide trace epoch: all timestamps are microseconds since the
/// first span of the process.
static EPOCH: OnceLock<Instant> = OnceLock::new();

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Cap on buffered events per thread; beyond it events are counted in
/// the `trace.events.dropped` counter instead of buffered, so a
/// long-lived thread that never drains cannot grow without bound.
const EVENT_CAP: usize = 1 << 20;

/// Microseconds since the process trace epoch.
pub fn now_us() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name, e.g. `"phase.parse"` or `"check.misra-15.1-goto"`.
    pub name: String,
    /// Category (Chrome trace `cat` field), e.g. `"phase"`, `"checks"`.
    pub cat: &'static str,
    /// Start, µs since the process trace epoch.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// Nesting depth at which the span ran (0 = top level).
    pub depth: usize,
    /// Small per-process thread id (not the OS tid).
    pub tid: u64,
    /// Key/value annotations (Chrome trace `args`).
    pub args: Vec<(&'static str, String)>,
}

impl SpanEvent {
    /// End timestamp, µs since the epoch.
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }
}

struct OpenSpan {
    name: String,
    cat: &'static str,
    start_us: u64,
    args: Vec<(&'static str, String)>,
    /// Allocation-billing tag this span displaced (`cat == "phase"`
    /// spans only): restored when the span closes, so nested phases
    /// bill to the innermost one and panics/leaked guards repair the
    /// tag along with the stack.
    prev_phase: Option<usize>,
}

struct ThreadTrace {
    tid: u64,
    stack: Vec<OpenSpan>,
    events: Vec<SpanEvent>,
    /// Increments made on (or absorbed into) this thread, per counter
    /// name: bounded by the registered names, however often they move.
    counters: Counts,
}

/// Counter increments per name, sorted by name. A sorted vector, not
/// a tree: its allocations depend only on how many names it has held,
/// never on the order they arrived in, so a phase that adds a name
/// bills the same allocations however a pool's tasks fell to its
/// workers (whose names are absorbed worker by worker).
#[derive(Debug, Clone, Default)]
struct Counts(Vec<(&'static str, u64)>);

impl Counts {
    fn add(&mut self, name: &'static str, n: u64) {
        match self.0.binary_search_by_key(&name, |&(k, _)| k) {
            Ok(i) => self.0[i].1 += n,
            Err(i) => self.0.insert(i, (name, n)),
        }
    }

    fn get(&self, name: &str) -> u64 {
        self.0
            .binary_search_by_key(&name, |&(k, _)| k)
            .map_or(0, |i| self.0[i].1)
    }
}

impl ThreadTrace {
    fn tally(&mut self, name: &'static str, n: u64) {
        self.counters.add(name, n);
    }

    /// Buffers `ev`, or counts it in `trace.events.dropped` past the
    /// cap. The buffer is already borrowed here, so the drop is billed
    /// to it directly rather than through [`crate::Counter::add`].
    fn push(&mut self, ev: SpanEvent) {
        if self.events.len() < EVENT_CAP {
            self.events.push(ev);
        } else {
            let dropped = crate::metrics::counter("trace.events.dropped");
            dropped.value.fetch_add(1, Ordering::Relaxed);
            self.tally(dropped.name, 1);
        }
    }
}

thread_local! {
    static TRACE: RefCell<ThreadTrace> = RefCell::new(ThreadTrace {
        tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
        stack: Vec::new(),
        events: Vec::new(),
        counters: Counts::default(),
    });
}

/// Adds `n` to this thread's total for counter `name` (see
/// [`crate::Counter::add`]). A thread tearing down its thread-locals
/// keeps only the registry's count.
pub(crate) fn tally_counter(name: &'static str, n: u64) {
    let _ = TRACE.try_with(|t| t.borrow_mut().tally(name, n));
}

/// RAII guard for one open span; records the span when dropped.
///
/// Guards are expected to drop in LIFO order (Rust scoping guarantees
/// this unless a guard is deliberately leaked). If inner guards *were*
/// leaked, dropping an outer guard closes the leaked spans too, so the
/// recorded stream is always well-formed.
#[must_use = "a span guard records its span when dropped"]
#[derive(Debug)]
pub struct SpanGuard {
    /// Stack length right after this span was pushed.
    token: usize,
}

/// Opens a span. Prefer stable, dot-separated names
/// (`phase.component`, `check.<rule-id>`).
pub fn span(name: impl Into<String>, cat: &'static str) -> SpanGuard {
    span_with(name, cat, Vec::new())
}

/// Opens a span with key/value annotations.
pub fn span_with(
    name: impl Into<String>,
    cat: &'static str,
    args: Vec<(&'static str, String)>,
) -> SpanGuard {
    let start_us = now_us();
    let name = name.into();
    // Phase spans double as allocation-billing scopes: the profiler's
    // thread-local tag points at this phase until the span closes.
    // Registration is idempotent and cheap relative to opening a
    // phase (a handful per run).
    let prev_phase = (cat == "phase").then(|| {
        let stripped = name.strip_prefix("phase.").unwrap_or(&name);
        crate::alloc::set_current_phase(crate::alloc::phase_index(stripped))
    });
    let token = TRACE.with(|t| {
        let mut t = t.borrow_mut();
        t.stack.push(OpenSpan {
            name,
            cat,
            start_us,
            args,
            prev_phase,
        });
        t.stack.len()
    });
    SpanGuard { token }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let end = now_us();
        TRACE.with(|t| {
            let t = &mut *t.borrow_mut();
            // Close leaked inner spans (if any), then this span. After
            // this loop the stack is exactly as it was before we opened.
            while t.stack.len() >= self.token {
                let open = t.stack.pop().expect("stack length checked");
                if let Some(prev) = open.prev_phase {
                    // Unwinds in LIFO order even when inner guards
                    // leaked: each pop restores the tag its push saved.
                    crate::alloc::set_current_phase(prev);
                }
                let ev = SpanEvent {
                    name: open.name,
                    cat: open.cat,
                    start_us: open.start_us,
                    dur_us: end.saturating_sub(open.start_us),
                    depth: t.stack.len(),
                    tid: t.tid,
                    args: open.args,
                };
                t.push(ev);
            }
        });
    }
}

/// A scope opened on this thread. Everything recorded on the thread
/// after the mark — span events, counter increments, allocations while
/// profiling — plus what is handed back into it ([`absorb`]) belongs to
/// the scope, and nothing else does. Scopes nest: an inner scope's
/// numbers count in the outer one too, but its drained events do only
/// once handed back. A mark belongs to its thread: it is not `Send`.
#[must_use = "a mark scopes the trace recorded after it"]
#[derive(Debug)]
pub struct Mark {
    events: usize,
    counters: Counts,
    alloc: crate::alloc::Tally,
    _thread: PhantomData<*const ()>,
}

/// Opens a scope at this thread's current position. Pass it to
/// [`drain_from`] for its events and read its numbers with
/// [`Mark::counters`] and [`Mark::phase_mem`].
pub fn mark() -> Mark {
    let (events, counters) = TRACE.with(|t| {
        let t = t.borrow();
        (t.events.len(), t.counters.clone())
    });
    Mark {
        events,
        counters,
        alloc: crate::alloc::tally(),
        _thread: PhantomData,
    }
}

impl Mark {
    /// Counter increments made in this scope, `(name, n)` sorted by
    /// name; counters that did not move are left out.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.counters_since()
            .0
            .into_iter()
            .map(|(name, n)| (name.to_string(), n))
            .collect()
    }

    /// This scope's increments of the counters that moved.
    fn counters_since(&self) -> Counts {
        TRACE.with(|t| {
            let t = t.borrow();
            let since = t
                .counters
                .0
                .iter()
                .map(|&(name, now)| (name, now - self.counters.get(name)));
            Counts(since.filter(|&(_, n)| n > 0).collect())
        })
    }

    /// Allocations billed in this scope, per phase; empty unless a
    /// [`crate::alloc::CountingAlloc`] is installed and profiling was on.
    pub fn phase_mem(&self) -> Vec<crate::alloc::PhaseMem> {
        crate::alloc::phase_mem(&crate::alloc::tally_since(&self.alloc))
    }

    /// Closes a worker thread's scope: drains its events and takes its
    /// counter and allocation totals, for the spawning thread to
    /// [`absorb`].
    pub fn hand_back(self) -> Handback {
        // Read first, so the handback's own bookkeeping is not billed.
        let alloc = crate::alloc::tally_since(&self.alloc);
        Handback {
            events: drain_from(&self),
            counters: self.counters_since(),
            alloc,
        }
    }
}

/// Removes and returns this thread's events recorded since `mark`.
///
/// If an earlier drain already consumed past `mark` (e.g. nested
/// collection scopes), everything still buffered is returned.
pub fn drain_from(mark: &Mark) -> Vec<SpanEvent> {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let at = mark.events.min(t.events.len());
        // Unlike `split_off`, keeps the buffer's capacity for the
        // thread's next scope and allocates only what it returns.
        t.events.drain(at..).collect()
    })
}

/// Number of spans currently open on this thread.
pub fn open_depth() -> usize {
    TRACE.with(|t| t.borrow().stack.len())
}

/// What a worker thread recorded in its scope, handed to the spawning
/// thread: its span events, counter increments and allocations.
#[derive(Debug)]
pub struct Handback {
    events: Vec<SpanEvent>,
    counters: Counts,
    alloc: crate::alloc::Tally,
}

/// Bare span events, with no counter increments or allocations.
impl From<Vec<SpanEvent>> for Handback {
    fn from(events: Vec<SpanEvent>) -> Self {
        Handback {
            events,
            counters: Counts::default(),
            alloc: Default::default(),
        }
    }
}

/// Adds a [`Handback`] to this thread's scope: a worker's (as
/// `adsafe-pool` does after each join), or an inner scope's drained
/// events. Events keep their original `tid`, so per-thread nesting
/// invariants still hold; the per-thread event cap applies.
pub fn absorb(handback: Handback) {
    TRACE.with(|t| {
        let t = &mut *t.borrow_mut();
        for ev in handback.events {
            t.push(ev);
        }
        for (name, n) in handback.counters.0 {
            t.tally(name, n);
        }
    });
    crate::alloc::absorb_tally(&handback.alloc);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_record_in_close_order() {
        let m = mark();
        {
            let _a = span("a", "t");
            {
                let _b = span("b", "t");
            }
            let _c = span("c", "t");
        }
        let ev = drain_from(&m);
        let names: Vec<&str> = ev.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["b", "c", "a"]);
        assert_eq!(ev[0].depth, 1);
        assert_eq!(ev[2].depth, 0);
        // Children are contained in the parent's interval.
        assert!(ev[0].start_us >= ev[2].start_us);
        assert!(ev[0].end_us() <= ev[2].end_us());
    }

    #[test]
    fn panic_unwinding_closes_inner_spans() {
        let m = mark();
        let depth_before = open_depth();
        let r = std::panic::catch_unwind(|| {
            let _outer = span("outer", "t");
            let _inner = span("inner", "t");
            panic!("checker bug");
        });
        assert!(r.is_err());
        assert_eq!(open_depth(), depth_before, "unwinding left spans open");
        let ev = drain_from(&m);
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].name, "inner");
        assert_eq!(ev[1].name, "outer");
    }

    #[test]
    fn leaked_inner_guard_is_repaired_by_outer_drop() {
        let m = mark();
        {
            let _outer = span("outer", "t");
            let inner = span("leaked", "t");
            std::mem::forget(inner);
        }
        assert_eq!(open_depth(), 0);
        let ev = drain_from(&m);
        assert_eq!(ev.len(), 2);
        assert!(ev.iter().any(|e| e.name == "leaked"));
    }

    #[test]
    fn absorbed_events_keep_their_tid_and_join_the_local_buffer() {
        let m = mark();
        {
            let _local = span("local", "t");
        }
        let worker = std::thread::scope(|s| {
            s.spawn(|| {
                let wm = mark();
                {
                    let _w = span("worker", "t");
                }
                wm.hand_back()
            })
            .join()
            .unwrap()
        });
        let worker_tid = worker.events[0].tid;
        absorb(worker);
        let ev = drain_from(&m);
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].name, "local");
        assert_eq!(ev[1].name, "worker");
        assert_eq!(ev[1].tid, worker_tid);
        assert_ne!(ev[0].tid, ev[1].tid);
    }

    #[test]
    fn phase_spans_drive_the_allocation_billing_tag() {
        let m = mark();
        let outside = crate::alloc::current_phase();
        let parse_idx;
        let native_idx;
        {
            let _p = span("phase.test_span_parse", "phase");
            parse_idx = crate::alloc::current_phase();
            assert_eq!(parse_idx, crate::alloc::phase_index("test_span_parse"));
            assert_ne!(parse_idx, outside);
            {
                // Nested phases bill to the innermost.
                let _q = span("phase.test_span_parse.inner", "phase");
                native_idx = crate::alloc::current_phase();
                assert_ne!(native_idx, parse_idx);
                // Non-phase spans leave the tag alone.
                let _r = span("file.x", "parse");
                assert_eq!(crate::alloc::current_phase(), native_idx);
            }
            assert_eq!(
                crate::alloc::current_phase(),
                parse_idx,
                "inner close restores"
            );
        }
        assert_eq!(
            crate::alloc::current_phase(),
            outside,
            "outer close restores"
        );
        drain_from(&m);
    }

    #[test]
    fn panic_unwinding_restores_the_billing_tag() {
        let m = mark();
        let outside = crate::alloc::current_phase();
        let r = std::panic::catch_unwind(|| {
            let _p = span("phase.test_span_panic", "phase");
            let _inner = span("phase.test_span_panic.inner", "phase");
            panic!("checker bug");
        });
        assert!(r.is_err());
        assert_eq!(
            crate::alloc::current_phase(),
            outside,
            "unwinding left a stale tag"
        );
        drain_from(&m);
    }

    #[test]
    fn a_scope_counts_only_its_own_threads_increments() {
        let name = "test.span.scoped_counter";
        let start = std::sync::Barrier::new(2);
        let per_thread: Vec<Vec<(String, u64)>> = std::thread::scope(|s| {
            let workers: Vec<_> = [3u64, 5]
                .into_iter()
                .map(|n| {
                    let start = &start;
                    s.spawn(move || {
                        let m = mark();
                        start.wait();
                        for _ in 0..1000 {
                            crate::counter(name).add(n);
                        }
                        m.counters()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        assert_eq!(per_thread[0], [(name.to_string(), 3000)]);
        assert_eq!(per_thread[1], [(name.to_string(), 5000)]);
        assert!(crate::counter(name).get() >= 8000, "the registry sees both");
    }

    #[test]
    fn handed_back_counters_join_the_callers_scope() {
        let name = "test.span.handed_back";
        let m = mark();
        crate::counter(name).add(1);
        let worker = std::thread::scope(|s| {
            s.spawn(|| {
                let wm = mark();
                crate::counter(name).add(10);
                wm.hand_back()
            })
            .join()
            .unwrap()
        });
        assert_eq!(m.counters(), [(name.to_string(), 1)]);
        absorb(worker);
        assert_eq!(m.counters(), [(name.to_string(), 11)]);
    }

    #[test]
    fn an_inner_scope_hands_its_events_back_to_the_outer_one() {
        let outer = mark();
        {
            let _a = span("before", "t");
        }
        let inner = mark();
        {
            let _b = span("inner", "t");
        }
        crate::counter("test.span.nested").incr();
        let inner_events = drain_from(&inner);
        assert_eq!(inner_events.len(), 1);
        assert_eq!(inner_events[0].name, "inner");
        assert_eq!(
            outer.counters(),
            inner.counters(),
            "numbers count in both scopes"
        );
        absorb(inner_events.into());
        let all: Vec<String> = drain_from(&outer).into_iter().map(|e| e.name).collect();
        assert_eq!(all, ["before", "inner"]);
        assert!(
            drain_from(&mark()).is_empty(),
            "the drains left the buffer empty"
        );
    }

    #[test]
    fn args_ride_on_the_event() {
        let m = mark();
        {
            let _s = span_with("f", "t", vec![("path", "a.cc".to_string())]);
        }
        let ev = drain_from(&m);
        assert_eq!(ev[0].args, vec![("path", "a.cc".to_string())]);
    }
}
