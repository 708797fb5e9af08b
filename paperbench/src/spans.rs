//! The traced run's span recorder. Spans live in the benchmark's own
//! memory — the program under test is not instrumented — and are
//! written out once, as Chrome trace JSON, when the run ends.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span: a timed call into a layer, or one workload
/// operation wrapping such calls.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span (0 for a root).
    pub parent: u64,
    /// Workload operation the span belongs to (0 for the layer walk).
    pub op: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Chrome trace track: the client or caller that made the call.
    pub track: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1000.0
    }
}

/// Thread-safe span store shared by every caller of a traced run.
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` under a span named `name`; `f` receives the new span's
    /// id so it can open children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        op: u64,
        track: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_us = self.now_us();
        let out = f(id);
        let end_us = self.now_us();
        self.spans
            .lock()
            .expect("span store poisoned by a panicking caller")
            .push(Span {
                id,
                parent,
                op,
                name,
                start_us,
                end_us,
                track,
            });
        out
    }

    /// Every span recorded so far, in close order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking caller")
            .clone()
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Chrome trace-event JSON: one complete (`ph: "X"`) event per
    /// span, with parent and operation ids in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut spans = self.spans();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"paperbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
                s.name,
                s.start_us,
                s.end_us - s.start_us,
                s.track,
                s.id,
                s.parent,
                s.op
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// Where a call sits in the trace: the recorder (absent in untraced
/// runs, which then pay nothing for the hooks), the enclosing span,
/// the operation and the caller's track.
#[derive(Clone, Copy)]
pub struct Site<'r> {
    pub rec: Option<&'r Recorder>,
    pub parent: u64,
    pub op: u64,
    pub track: u64,
}

impl<'r> Site<'r> {
    pub const UNTRACED: Site<'static> = Site {
        rec: None,
        parent: 0,
        op: 0,
        track: 0,
    };

    /// A root site for a traced (or, with `None`, untraced) caller.
    pub fn root(rec: Option<&'r Recorder>, op: u64, track: u64) -> Site<'r> {
        Site {
            rec,
            parent: 0,
            op,
            track,
        }
    }

    /// Runs `f` under a span named `name` when tracing; `f` gets the
    /// site its own calls nest under.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce(Site<'r>) -> R) -> R {
        match self.rec {
            Some(r) => r.span(name, self.parent, self.op, self.track, |id| {
                f(Site {
                    parent: id,
                    ..*self
                })
            }),
            None => f(*self),
        }
    }
}
