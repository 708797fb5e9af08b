//! # adsafe-trace — self-observability for the assessment toolchain
//!
//! The paper's assessment is a measurement exercise (Lizard metrics,
//! RapiCover coverage, cuda4cpu timing); this crate lets the toolchain
//! measure *itself*. Zero dependencies, std only.
//!
//! Three layers:
//!
//! * **Spans** ([`span`], [`span_with`]) — hierarchical wall-clock spans
//!   with RAII guards over thread-local span stacks. Closed spans are
//!   buffered per thread; a [`mark`] opens one run's scope, from which
//!   [`drain_from`] takes its events and [`Mark::counters`] /
//!   [`Mark::phase_mem`] its own counter increments and allocations,
//!   exact whatever else the process runs. Exportable as Chrome
//!   trace-event JSON ([`chrome`]) —
//!   loadable in `chrome://tracing` / Perfetto — or as an in-terminal
//!   flame summary ([`flame`]).
//! * **Metrics** ([`counter`], [`histogram`]) — a global registry of
//!   named monotonic counters (lock-free increments, each also billed
//!   to the incrementing thread's scope) and log₂-scale histograms.
//!   Names follow the `phase.component.metric` convention (see
//!   DESIGN.md §7).
//! * **Summaries** ([`TraceSummary`]) — per-phase wall time, slowest
//!   files and rules, and counter totals distilled from one run's
//!   scope; [`bench`] serialises phase timings as the
//!   `BENCH_pipeline.json` perf baseline CI regresses against.
//! * **Allocation profiling** ([`alloc`]) — an opt-in
//!   `#[global_allocator]` wrapper ([`CountingAlloc`]) billing every
//!   heap allocation to the phase span active on the allocating
//!   thread: totals, live/peak gauges, a size-class histogram, and
//!   per-phase tables for `--mem-profile`, `/metrics`, and the
//!   frontend benchmark (see DESIGN.md §14).
//!
//! ```
//! let m = adsafe_trace::mark();
//! {
//!     let _outer = adsafe_trace::span("phase.parse", "phase");
//!     let _inner = adsafe_trace::span("parse.file", "parse");
//! }
//! let events = adsafe_trace::drain_from(&m);
//! assert_eq!(events.len(), 2);
//! // Inner spans close (and are recorded) first.
//! assert_eq!(events[0].name, "parse.file");
//! assert_eq!(events[1].depth, 0);
//! ```

#![warn(missing_docs)]

pub mod alloc;
pub mod bench;
pub mod chrome;
pub mod flame;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod span;
pub mod summary;

pub use alloc::{CountingAlloc, MemStats, PhaseMem};
pub use metrics::{
    counter, gauge, gauge_snapshot, histogram, histogram_snapshot, labeled, render_prometheus,
    render_text, Counter, Gauge, Histogram, HistogramSnapshot,
};
pub use recorder::{FlightRecorder, PhaseTiming, RequestRecord};
pub use span::{
    absorb, drain_from, mark, now_us, span, span_with, Handback, Mark, SpanEvent, SpanGuard,
};
pub use summary::{PhaseTime, TraceSummary};
