//! The daemon proper: accept loop, bounded request queue, endpoint
//! handlers, and graceful shutdown.
//!
//! One [`Server`] owns a non-blocking accept thread and an
//! [`Executor`] of handler workers. Accepted connections are submitted
//! to the executor's bounded queue; when the queue is full the accept
//! thread itself answers `503` + a queue-depth-derived `Retry-After`
//! (a few hundred bytes of work — backpressure must stay cheap when
//! the system is loaded). Admitted connections are **keep-alive**: one
//! worker serves requests off the connection in a loop until the
//! client opts out, the per-connection request cap is reached, a fatal
//! error occurs, or a [`DeadlineReader`] budget trips (idle expiry →
//! clean close; request deadline or slow-loris floor → `408` + close).
//!
//! Request handlers run under `catch_unwind`, mirroring the
//! pipeline's fault isolation one level up: a panicking handler
//! produces a `500` with a fault summary, and the worker — and every
//! other in-flight request — keeps going. Assessments themselves
//! already contain checker panics as degraded-report faults, so a
//! `500` here means the *serving* layer broke, which the integration
//! tests exercise through the `serve.request` failpoint.
//!
//! [`Server::stop`] (the CLI's SIGTERM path) stops admission, drains
//! queued and in-flight requests through [`Executor::shutdown`], then
//! flushes the facts store's dirty entries to its disk backing.

use crate::conn::{DeadlineReader, ReadBudget, Trip};
use crate::fsutil::{ingest, SourceIndex};
use crate::http::{self, ReadError, Request, Response};
use adsafe::fault::failpoints;
use adsafe::iso26262::Asil;
use adsafe::{render, Assessment, AssessmentOptions, MemoryFactsStore};
use adsafe_ledger::{Ledger, RunRecord};
use adsafe_pool::Executor;
use adsafe_trace::json::{write_escaped, Json};
use adsafe_trace::{labeled, FlightRecorder, PhaseTiming, RequestRecord};
use std::collections::{HashMap, VecDeque};
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`127.0.0.1:7026` by default; port `0` lets the
    /// OS pick — tests read the real port from [`Server::addr`]).
    pub addr: String,
    /// Pipeline workers per assessment (`0` = one per core).
    pub jobs: usize,
    /// Concurrent request handlers.
    pub handlers: usize,
    /// Bounded request queue capacity; beyond it, `503`.
    pub queue_capacity: usize,
    /// Disk backing for the resident facts store (`None` = memory-only).
    pub cache_dir: Option<PathBuf>,
    /// Max requests served per connection before the daemon closes it
    /// (`0` = unlimited). Bounds how long one client can hold a worker.
    pub keep_alive_max: usize,
    /// Max quiet time between requests on a kept-alive connection
    /// before it is closed cleanly (zero disables).
    pub idle_timeout: Duration,
    /// Max wall time for one request to arrive in full, and the write
    /// timeout for its response (zero disables the read deadline).
    pub request_timeout: Duration,
    /// Minimum sustained bytes/second a started request must deliver
    /// (after a grace period) before it is dropped as a slow-loris
    /// client (`0` disables).
    pub min_byte_rate: u64,
    /// Resident facts store byte budget; above it, least-recently-used
    /// entries are evicted (dirty ones demote to the disk cache).
    /// `0` = unbounded.
    pub store_budget: u64,
    /// Flight-recorder capacity: how many completed requests the
    /// in-memory ring (`GET /requests`, `GET /trace/recent`) retains
    /// before evicting oldest-first. Clamped to at least 1.
    pub recorder_cap: usize,
    /// User query-rule pack (a `.aq` file or a directory of them)
    /// loaded at startup and evaluated after the default rules (natives
    /// and the bundled pack) on every `/assess`. `None` = default rules
    /// only.
    pub rules: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7026".into(),
            jobs: 0,
            handlers: 2,
            queue_capacity: 32,
            cache_dir: None,
            keep_alive_max: 64,
            idle_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(10),
            min_byte_rate: 128,
            store_budget: 0,
            recorder_cap: 256,
            rules: None,
        }
    }
}

/// How long `/requests` and `/metrics` wait for responses already
/// written to be recorded (normally microseconds; the bound covers a
/// handler that died in between).
const SETTLE_WAIT: Duration = Duration::from_secs(1);

/// What the daemon did over its lifetime, returned by [`Server::stop`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests fully parsed and routed.
    pub requests: u64,
    /// Dirty facts entries flushed to disk during shutdown.
    pub flushed_entries: usize,
}

/// State shared between the accept thread, handler workers, and the
/// owning [`Server`] handle.
struct Shared {
    store: Arc<MemoryFactsStore>,
    jobs: usize,
    queue_capacity: usize,
    keep_alive_max: usize,
    budget: ReadBudget,
    /// Shared with every connection's [`DeadlineReader`], so draining
    /// reclaims idle keep-alive connections within one poll slice.
    stop: Arc<AtomicBool>,
    requests: AtomicU64,
    /// Human-readable summary of the most recent contained fault (a
    /// handler panic or a degraded assessment), surfaced by `/healthz`.
    last_fault: Mutex<Option<String>>,
    last_degraded: AtomicBool,
    /// One open [`Ledger`] per assessed corpus root, so sequence
    /// numbers are allocated race-free within this process (cross-
    /// process writers still interleave safely at the append level,
    /// but may race sequence allocation — a documented limitation).
    ledgers: Mutex<HashMap<PathBuf, Arc<Ledger>>>,
    /// One resident [`SourceIndex`] per assessed corpus root: what a
    /// warm `/assess` reuses instead of reading and hashing the tree.
    /// Requests on one root take turns ingesting; the lock is held for
    /// the walk only.
    sources: Mutex<HashMap<PathBuf, Arc<Mutex<SourceIndex>>>>,
    /// In-memory mirror of the last [`FlightRecorder::capacity`] runs
    /// appended by this process, in append order across all corpora —
    /// what `GET /runs` serves. Older runs stay in each corpus ledger.
    runs: Mutex<VecDeque<RunRecord>>,
    /// Ring of completed-request records — the `/requests` access log
    /// and `/trace/recent` trace source.
    recorder: FlightRecorder,
    /// Responses written so far (a failed write counts) ...
    written: AtomicU64,
    /// ... and how many of those have their flight-recorder row and
    /// latency samples recorded; `settled` wakes whoever waits on it.
    recorded: Mutex<u64>,
    settled: Condvar,
    /// Connection ID allocator (1-based; doubles as the Chrome trace
    /// `tid` track in `/trace/recent`).
    next_conn: AtomicU64,
    /// User query-rule pack loaded once at startup (empty when the
    /// daemon was started without `--rules`); shared by every `/assess`
    /// and listed by `GET /rules` after the default rules.
    rules: Arc<adsafe::rulequery::RulePack>,
}

/// The short endpoint key used as the `endpoint` label on
/// `serve.latency` series and accepted by `/requests?endpoint=`.
fn endpoint_key(path: &str) -> &'static str {
    match path {
        "/assess" => "assess",
        "/invalidate" => "invalidate",
        "/metrics" => "metrics",
        "/healthz" => "healthz",
        "/requests" => "requests",
        "/rules" => "rules",
        "/trace/recent" => "trace",
        p if p == "/runs" || p.starts_with("/runs/") => "runs",
        _ => "other",
    }
}

impl Shared {
    /// The open ledger for a corpus root, opening (and caching) it on
    /// first use. `None` if the ledger directory cannot be created.
    fn ledger_for(&self, root: &PathBuf) -> Option<Arc<Ledger>> {
        let mut map = self.ledgers.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(l) = map.get(root) {
            return Some(Arc::clone(l));
        }
        let dir = Ledger::dir_for_cache(&root.join(".adsafe-cache"));
        let ledger = Arc::new(Ledger::open(&dir).ok()?);
        map.insert(root.clone(), Arc::clone(&ledger));
        Some(ledger)
    }

    /// Total text bytes of the resident sources, over every root.
    fn resident_bytes(&self) -> u64 {
        let indexes: Vec<_> = self
            .sources
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect();
        indexes
            .iter()
            .map(|i| i.lock().unwrap_or_else(|e| e.into_inner()).bytes())
            .sum()
    }

    /// The resident source index of a corpus root, empty on first use.
    fn sources_for(&self, root: &Path) -> Arc<Mutex<SourceIndex>> {
        let mut map = self.sources.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(root.to_path_buf()).or_default())
    }

    /// Waits, at most [`SETTLE_WAIT`], until every response already
    /// written has its row and latency samples recorded, so a client
    /// that reads `/requests` or `/metrics` right after a response sees
    /// it counted.
    fn await_recorded(&self) {
        let written = self.written.load(Ordering::SeqCst);
        let deadline = Instant::now() + SETTLE_WAIT;
        let mut recorded = self.recorded.lock().unwrap_or_else(|e| e.into_inner());
        while *recorded < written {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return;
            }
            recorded = match self.settled.wait_timeout(recorded, left) {
                Ok((guard, _)) => guard,
                Err(e) => e.into_inner().0,
            };
        }
    }

    /// Mirrors an appended run for `GET /runs`, oldest out first.
    fn remember_run(&self, record: RunRecord) {
        let mut runs = self.runs.lock().unwrap_or_else(|e| e.into_inner());
        if runs.len() == self.recorder.capacity() {
            runs.pop_front();
        }
        runs.push_back(record);
    }
}

/// A running daemon. Dropping it (or calling [`stop`](Server::stop))
/// shuts down gracefully: admission stops, in-flight and queued
/// requests drain, dirty facts flush to disk.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<usize>>,
}

impl Server {
    /// Binds `config.addr` and starts serving. Fails only on bind
    /// errors (address in use, bad address).
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        // A resident daemon always profiles memory: the gauges on
        // /metrics and /healthz and the per-request allocation deltas
        // in the flight recorder are part of its observability surface.
        // (No-op counting unless the binary installs a `CountingAlloc`,
        // as the `adsafe` CLI does.)
        adsafe_trace::alloc::set_profiling(true);
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            store: Arc::new(MemoryFactsStore::open_budgeted(
                config.cache_dir.as_deref(),
                config.store_budget,
            )),
            jobs: config.jobs,
            queue_capacity: config.queue_capacity,
            keep_alive_max: config.keep_alive_max,
            budget: ReadBudget {
                idle_timeout: config.idle_timeout,
                request_timeout: config.request_timeout,
                min_byte_rate: config.min_byte_rate,
            },
            stop: Arc::new(AtomicBool::new(false)),
            requests: AtomicU64::new(0),
            last_fault: Mutex::new(None),
            last_degraded: AtomicBool::new(false),
            ledgers: Mutex::new(HashMap::new()),
            sources: Mutex::new(HashMap::new()),
            runs: Mutex::new(VecDeque::new()),
            recorder: FlightRecorder::new(config.recorder_cap),
            written: AtomicU64::new(0),
            recorded: Mutex::new(0),
            settled: Condvar::new(),
            next_conn: AtomicU64::new(0),
            rules: Arc::new(match config.rules.as_deref() {
                Some(p) => adsafe::query::load_rule_pack(&adsafe::query::resolve_rules_arg(p)),
                None => adsafe::rulequery::RulePack::empty(),
            }),
        });
        let exec = Executor::new(config.handlers, config.queue_capacity);
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("adsafe-accept".into())
                .spawn(move || accept_loop(listener, exec, &shared))
                .expect("spawning the accept thread")
        };
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (with the OS-assigned port when the config
    /// asked for port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Asks the daemon to stop admitting work; returns immediately.
    pub fn request_stop(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
    }

    /// Graceful shutdown: stops admission, drains queued and in-flight
    /// requests, flushes the facts store, and returns lifetime stats.
    pub fn stop(mut self) -> ServeStats {
        self.request_stop();
        let flushed = self.accept.take().map_or(0, |h| h.join().unwrap_or(0));
        ServeStats {
            requests: self.shared.requests.load(Ordering::SeqCst),
            flushed_entries: flushed,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.request_stop();
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// Accepts until asked to stop, then drains and flushes. Returns the
/// number of facts entries flushed to disk.
fn accept_loop(listener: TcpListener, exec: Executor, shared: &Arc<Shared>) -> usize {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let _ = stream.set_nonblocking(false);
                // Responses are small and latency-bound: flush segments
                // as written instead of Nagle-batching them.
                let _ = stream.set_nodelay(true);
                // Read pacing belongs to the connection's
                // DeadlineReader; the socket-level timeout guards only
                // the write side against a peer that stops draining.
                if !shared.budget.request_timeout.is_zero() {
                    let _ = stream.set_write_timeout(Some(shared.budget.request_timeout));
                }
                // A clone shares the fd, so the 503 path can still
                // answer after the rejected job (owning the original)
                // is dropped.
                let reject_stream = stream.try_clone().ok();
                let shared_job = Arc::clone(shared);
                let job = move |wait_us| handle_connection(stream, &shared_job, wait_us);
                if exec.try_submit(job).is_err() {
                    adsafe_trace::counter("serve.rejected").incr();
                    if let Some(mut s) = reject_stream {
                        let depth = exec.queue_depth();
                        let retry = exec.retry_hint_secs();
                        let resp = Response::json(
                            503,
                            format!(
                                "{{\"error\":\"assessment queue full\",\
                                 \"queue_depth\":{depth},\"retry_after_s\":{retry}}}\n"
                            ),
                        )
                        .with_header("Retry-After", retry.to_string());
                        let _ = http::write_response(&mut s, &resp);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // Drain: every admitted request completes before the flush, so the
    // disk cache sees the final state of the store.
    exec.shutdown();
    shared.store.flush()
}

/// One connection: serve requests in a keep-alive loop — parse, route
/// under panic containment, respond — until the client opts out, the
/// request cap is hit, a budget trips, or a fatal error ends it.
fn handle_connection(stream: TcpStream, shared: &Arc<Shared>, queue_wait_us: u64) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed) + 1;
    let conn_start_us = adsafe_trace::now_us();
    // The submit→start delta of this connection's executor job, billed
    // to the first request as its `queue_wait` phase.
    let mut queue_wait_us = Some(queue_wait_us);
    let deadline = DeadlineReader::new(read_half, Arc::clone(&shared.stop), shared.budget);
    let mut reader = BufReader::new(deadline);
    let mut writer = stream;
    let mut served: usize = 0;
    loop {
        reader.get_mut().begin_request();
        let t0 = Instant::now();
        let req = match http::read_request(&mut reader) {
            Ok(req) => req,
            Err(ReadError::Closed) => return,
            Err(ReadError::Io(_)) => {
                // A budget trip surfaces as TimedOut; anything else is
                // a genuine socket failure.
                match reader.get_ref().trip() {
                    Some(Trip::Idle) => {
                        // The normal end of a keep-alive connection:
                        // the client just had nothing more to say.
                        adsafe_trace::counter("serve.idle_closes").incr();
                    }
                    Some(Trip::Deadline) => {
                        adsafe_trace::counter("serve.request_timeouts").incr();
                        let resp =
                            Response::text(408, "request did not complete within the deadline\n");
                        let _ = http::write_response(&mut writer, &resp);
                    }
                    Some(Trip::SlowLoris) => {
                        adsafe_trace::counter("serve.slowloris_drops").incr();
                        let resp =
                            Response::text(408, "request bytes arrived below the minimum rate\n");
                        let _ = http::write_response(&mut writer, &resp);
                    }
                    None => {
                        adsafe_trace::counter("serve.io_errors").incr();
                    }
                }
                return;
            }
            Err(ReadError::Parse(e)) => {
                // After a framing error the rest of the byte stream is
                // unparseable noise; answer and close.
                adsafe_trace::counter("serve.http_errors").incr();
                let resp = Response::text(e.status(), format!("{}\n", e.detail()));
                let _ = http::write_response(&mut writer, &resp);
                return;
            }
        };
        served += 1;
        if served > 1 {
            adsafe_trace::counter("serve.keepalive.reuses").incr();
        }
        shared.requests.fetch_add(1, Ordering::SeqCst);
        adsafe_trace::counter("serve.requests").incr();
        // Service time starts once the request has fully arrived —
        // client think-time between keep-alive requests is not billed
        // to the request record or the latency series.
        let req_start_us = adsafe_trace::now_us();
        // The request's trace scope: its phase spans (the pipeline's,
        // handed back by `assess`, render and write) and the bytes its
        // handler and pool workers allocate (0 when no CountingAlloc
        // is installed).
        let scope = adsafe_trace::mark();
        let mut panicked = false;
        let mut spent: Spent = None;
        let resp = {
            let _span = adsafe_trace::span_with(
                "serve.request",
                "serve",
                vec![("method", req.method.clone()), ("path", req.path.clone())],
            );
            match catch_unwind(AssertUnwindSafe(|| route(&req, shared, &mut spent))) {
                Ok(resp) => resp,
                Err(payload) => {
                    // The serving layer broke — not the pipeline, which
                    // contains its own faults. Leave no armed failpoint
                    // behind on this worker thread.
                    failpoints::clear_all();
                    let msg = adsafe::fault::panic_message(&*payload);
                    adsafe_trace::counter("serve.panics").incr();
                    panicked = true;
                    let summary = format!("handler panic on {} {}: {msg}", req.method, req.path);
                    *shared.last_fault.lock().unwrap_or_else(|e| e.into_inner()) =
                        Some(summary.clone());
                    Response::text(
                        500,
                        format!(
                            "DEGRADED: 1 fault(s) contained (serve 1); worst severity: critical\n  \
                             [critical] serve `{}`: panic: {msg}; request aborted\n",
                            req.path
                        ),
                    )
                }
            }
        };
        // Persist only when everyone agrees: client preference, the
        // request cap, no handler panic (its connection state is
        // suspect), and the daemon not draining.
        let keep = req.wants_keep_alive()
            && !panicked
            && (shared.keep_alive_max == 0 || served < shared.keep_alive_max)
            && !shared.stop.load(Ordering::SeqCst);
        let status = resp.status.to_string();
        adsafe_trace::counter(&labeled("serve.status", &[("code", &status)])).incr();
        let wrote = {
            let _write = adsafe_trace::span("phase.write", "phase");
            http::write_response_conn(&mut writer, &resp, keep)
        };
        shared.written.fetch_add(1, Ordering::SeqCst);
        let end_us = adsafe_trace::now_us();
        adsafe_trace::histogram("serve.request_us").record(t0.elapsed().as_micros() as u64);
        // Per-endpoint×status SLO series (service time, µs).
        let endpoint = req.path.split('?').next().unwrap_or("").to_string();
        adsafe_trace::histogram(&labeled(
            "serve.latency",
            &[("endpoint", endpoint_key(&endpoint)), ("status", &status)],
        ))
        .record(end_us.saturating_sub(req_start_us));
        // Flight-record the completed request: the record is built
        // whole after the response write, so a connection that dies
        // mid-request leaves nothing behind. Phases cover queue-wait
        // (the executor's submit→start delta, billed to the first
        // request) and every phase span of the request's scope. The
        // drain also keeps this long-lived thread's buffer from
        // growing per request; the bytes are read before it, so the
        // record's own bookkeeping is not billed to the request.
        let alloc_bytes = scope.phase_mem().iter().map(|p| p.bytes).sum();
        let mut phases: Vec<PhaseTiming> = adsafe_trace::drain_from(&scope)
            .into_iter()
            .filter(|e| e.cat == "phase")
            .map(|e| PhaseTiming {
                name: e.name.strip_prefix("phase.").unwrap_or(&e.name).to_string(),
                start_us: e.start_us,
                dur_us: e.dur_us,
            })
            .collect();
        if let Some(wait) = queue_wait_us.take() {
            let start_us = conn_start_us.saturating_sub(wait);
            phases.push(PhaseTiming {
                name: "queue_wait".into(),
                start_us,
                dur_us: wait,
            });
        }
        phases.sort_by_key(|p| p.start_us);
        let start_us = phases
            .first()
            .map_or(req_start_us, |p| p.start_us.min(req_start_us));
        shared.recorder.record(RequestRecord {
            seq: 0,
            run_id: resp
                .header("X-Adsafe-Run-Id")
                .unwrap_or_default()
                .to_string(),
            method: req.method.clone(),
            endpoint,
            status: resp.status,
            conn_id,
            reuse: (served - 1) as u64,
            start_us,
            total_us: end_us.saturating_sub(start_us),
            alloc_bytes,
            phases,
        });
        *shared.recorded.lock().unwrap_or_else(|e| e.into_inner()) += 1;
        shared.settled.notify_all();
        // The handler's leftovers die after the row is recorded: the
        // client already has its response, and no phase waits on them.
        drop(spent);
        if wrote.is_err() {
            adsafe_trace::counter("serve.write_errors").incr();
            return;
        }
        if !keep {
            return;
        }
    }
}

/// What a handler hands back beside its response for the connection
/// loop to drop once the response is written and the request recorded:
/// freeing a finished run's report and sources takes milliseconds that
/// belong to no phase of the request.
type Spent = Option<Box<dyn std::any::Any>>;

fn route(req: &Request, shared: &Arc<Shared>, spent: &mut Spent) -> Response {
    let path = req.path.split('?').next().unwrap_or("");
    match (req.method.as_str(), path) {
        ("POST", "/assess") => assess(req, shared, spent),
        ("POST", "/invalidate") => invalidate(req, shared),
        ("GET", "/metrics") => metrics(req, shared),
        ("GET", "/healthz") => healthz(shared),
        ("GET", "/requests") => requests_log(req, shared),
        ("GET", "/trace/recent") => trace_recent(shared),
        ("GET", "/runs") => runs_index(shared),
        ("GET", "/rules") => rules_listing(shared),
        ("GET", p) if p.starts_with("/runs/") => runs_one(p.trim_start_matches("/runs/"), shared),
        (_, "/assess") | (_, "/invalidate") => {
            Response::text(405, "method not allowed\n").with_header("Allow", "POST")
        }
        (_, "/metrics")
        | (_, "/healthz")
        | (_, "/runs")
        | (_, "/requests")
        | (_, "/rules")
        | (_, "/trace/recent") => {
            Response::text(405, "method not allowed\n").with_header("Allow", "GET")
        }
        (_, p) if p.starts_with("/runs/") => {
            Response::text(405, "method not allowed\n").with_header("Allow", "GET")
        }
        _ => Response::text(404, "not found\n"),
    }
}

/// `GET /metrics[?format=prometheus]`: the stable adsafe text dump by
/// default; the Prometheus exposition format on request.
fn metrics(req: &Request, shared: &Arc<Shared>) -> Response {
    shared.await_recorded();
    // Refresh the allocator gauges (mem.live_bytes, mem.peak_bytes,
    // mem.phase{phase=…}) and the resident source bytes so both
    // exposition formats see current data. The store keeps its own
    // gauges current.
    adsafe_trace::alloc::publish_metrics();
    adsafe_trace::gauge("ingest.resident_bytes").set(shared.resident_bytes());
    match query_param(&req.path, "format") {
        Some("prometheus") => Response {
            status: 200,
            headers: vec![(
                "Content-Type".into(),
                "text/plain; version=0.0.4; charset=utf-8".into(),
            )],
            body: adsafe_trace::render_prometheus().into_bytes(),
        },
        Some(other) => Response::text(
            400,
            format!("unknown metrics format `{other}` (try prometheus)\n"),
        ),
        None => Response::text(200, adsafe_trace::render_text()),
    }
}

/// `GET /requests[?status=200&endpoint=assess&last=50]`: the flight
/// recorder's retained records as a JSONL access log, oldest first.
/// `endpoint` matches either the short key (`assess`) or the literal
/// path (`/assess`); `last` truncates to the most recent N rows after
/// filtering.
fn requests_log(req: &Request, shared: &Arc<Shared>) -> Response {
    shared.await_recorded();
    let status: Option<u16> = match query_param(&req.path, "status") {
        Some(s) => match s.parse() {
            Ok(v) => Some(v),
            Err(_) => return Response::text(400, "`status` must be a status code\n"),
        },
        None => None,
    };
    let endpoint = query_param(&req.path, "endpoint");
    let last: Option<usize> = match query_param(&req.path, "last") {
        Some(s) => match s.parse() {
            Ok(v) => Some(v),
            Err(_) => return Response::text(400, "`last` must be a non-negative integer\n"),
        },
        None => None,
    };
    let mut rows: Vec<RequestRecord> = shared
        .recorder
        .snapshot()
        .into_iter()
        .filter(|r| status.is_none_or(|s| r.status == s))
        .filter(|r| endpoint.is_none_or(|e| r.endpoint == e || endpoint_key(&r.endpoint) == e))
        .collect();
    if let Some(n) = last {
        if rows.len() > n {
            rows.drain(..rows.len() - n);
        }
    }
    let mut body = String::with_capacity(rows.len() * 192);
    for r in &rows {
        body.push_str(&r.to_json_line());
        body.push('\n');
    }
    Response {
        status: 200,
        headers: vec![("Content-Type".into(), "application/x-ndjson".into())],
        body: body.into_bytes(),
    }
}

/// `GET /trace/recent`: the flight recorder re-emitted as a Chrome
/// trace-event document — one `tid` track per connection, one complete
/// event per request with its phases nested under it. Loads directly
/// in `chrome://tracing` / Perfetto.
fn trace_recent(shared: &Arc<Shared>) -> Response {
    Response::json(200, shared.recorder.to_chrome_json())
}

/// The value of `name` in the request path's query string, if present.
fn query_param<'a>(path: &'a str, name: &str) -> Option<&'a str> {
    let query = path.split_once('?')?.1;
    query.split('&').find_map(|kv| {
        let (k, v) = kv.split_once('=')?;
        (k == name).then_some(v)
    })
}

/// `POST /assess` body: `{"dir": "<corpus>", "asil": "D", "jobs": 4,
/// "failpoints": [{"site": "...", "action": "panic"|"delay", "ms": 50}]}`.
/// Only `dir` is required. The response body is the deterministic
/// report markdown; outcome metadata rides in `X-Adsafe-*` headers.
/// The run's report and assessment go to `spent`, dropped after the
/// write.
fn assess(req: &Request, shared: &Arc<Shared>, spent: &mut Spent) -> Response {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Response::text(400, "body is not UTF-8\n");
    };
    let json = match Json::parse(body) {
        Ok(j) => j,
        Err(e) => return Response::text(400, format!("bad JSON body: {e}\n")),
    };
    let Some(dir) = json.get("dir").and_then(Json::as_str) else {
        return Response::text(400, "missing required string field `dir`\n");
    };
    let asil = match json.get("asil") {
        None => Asil::D,
        Some(v) => match v.as_str().and_then(Asil::from_level) {
            Some(a) => a,
            None => return Response::text(400, "`asil` must be A|B|C|D|QM\n"),
        },
    };
    let jobs = match json.get("jobs") {
        None => shared.jobs,
        Some(v) => match v.as_f64() {
            Some(n) if n >= 0.0 && n.fract() == 0.0 => n as usize,
            _ => return Response::text(400, "`jobs` must be a non-negative integer\n"),
        },
    };

    // Failpoint injection (tests only in practice, but harmless to
    // expose: failpoints are inert unless a request arms them, and
    // they are thread-local to this worker for this request).
    let mut armed: Vec<failpoints::Armed> = Vec::new();
    if let Some(fps) = json.get("failpoints").and_then(Json::as_arr) {
        for fp in fps {
            let Some(site) = fp.get("site").and_then(Json::as_str) else {
                return Response::text(400, "failpoint needs a `site`\n");
            };
            let action = match fp.get("action").and_then(Json::as_str) {
                Some("panic") => failpoints::Action::Panic("injected by request".into()),
                Some("delay") => {
                    let ms = fp.get("ms").and_then(Json::as_f64).unwrap_or(100.0);
                    failpoints::Action::Delay(Duration::from_millis(ms as u64))
                }
                _ => return Response::text(400, "failpoint `action` must be panic|delay\n"),
            };
            armed.push(failpoints::Armed::new(site, action));
        }
    }
    // The serving layer's own failpoint: a panic armed here escapes to
    // the connection-level catch_unwind (→ 500), unlike checker
    // failpoints, which the pipeline contains (→ 200, degraded).
    failpoints::hit("serve.request");

    let root = PathBuf::from(dir);
    if !root.is_dir() {
        return Response::text(400, format!("`{dir}` is not a directory\n"));
    }
    let mut assessment = Assessment::new();
    let ingested = {
        let _ingest = adsafe_trace::span("phase.ingest", "phase");
        let index = shared.sources_for(&root);
        let mut index = index.lock().unwrap_or_else(|e| e.into_inner());
        ingest(&root, &mut index, &mut assessment)
    };
    if ingested.found == 0 {
        shared
            .sources
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&root);
        return Response::text(400, format!("no C/C++/CUDA sources under `{dir}`\n"));
    }
    // Pack-loading faults from startup repeat on every request that
    // uses the pack: each response's fault list stands alone.
    let (ledger, (run_id, seq, digest)) = {
        let _ledger = adsafe_trace::span("phase.ledger", "phase");
        let ledger = shared.ledger_for(&root);
        let reserved = crate::reserve_run(&mut assessment, ledger.as_deref(), &shared.rules.faults);
        (ledger, reserved)
    };
    let assessment = assessment.with_options(AssessmentOptions {
        asil,
        jobs,
        store: Some(Arc::clone(&shared.store)),
        run_id: run_id.clone(),
        rules: Some(Arc::clone(&shared.rules)),
        ..AssessmentOptions::default()
    });
    let mut report = assessment.run();
    drop(armed);
    // The run drained its span events into the report; hand them back
    // to the request's scope, whose flight-recorder row breaks out the
    // pipeline phases. The response needs none of them.
    adsafe_trace::absorb(std::mem::take(&mut report.trace.events).into());
    let exit_code = crate::exit_code_for(&report);
    if let Some(l) = &ledger {
        let _ledger = adsafe_trace::span("phase.ledger", "phase");
        let record = RunRecord::from_report(
            &report,
            &run_id,
            seq,
            &root.display().to_string(),
            &digest,
            assessment.sources().len() as u64,
            exit_code,
        );
        if l.append(&record).is_ok() {
            adsafe_trace::counter("ledger.appends").incr();
            shared.remember_run(record);
        } else {
            adsafe_trace::counter("ledger.append_errors").incr();
        }
    }

    // Eviction pressure is daemon observability, not assessment
    // outcome: the fault surfaces on /healthz (and the store.evictions
    // counter), never in the report — whose bytes must stay identical
    // to the CLI's regardless of cache pressure.
    if let Some(evicted) = shared.store.take_eviction_fault() {
        *shared.last_fault.lock().unwrap_or_else(|e| e.into_inner()) = Some(evicted.to_string());
    }
    shared
        .last_degraded
        .store(report.degraded, Ordering::SeqCst);
    if let Some(worst) = report.faults.iter().map(|f| f.to_string()).last() {
        *shared.last_fault.lock().unwrap_or_else(|e| e.into_inner()) = Some(worst);
    }
    adsafe_trace::counter("serve.assessments").incr();

    // Digest of the per-request trace: the run's counters, which
    // distinguish cold from warm and serial from parallel requests.
    let mut digest_input = String::new();
    for (name, v) in &report.trace.counters {
        digest_input.push_str(name);
        digest_input.push('=');
        digest_input.push_str(&v.to_string());
        digest_input.push('\n');
    }
    let digest = format!(
        "{:016x}",
        adsafe::content_hash("serve.trace", &digest_input)
    );

    let body = {
        let _render = adsafe_trace::span("phase.render", "phase");
        render::deterministic_report_markdown(&report).into_bytes()
    };
    let mut resp = Response {
        status: 200,
        headers: vec![("Content-Type".into(), "text/markdown; charset=utf-8".into())],
        body,
    }
    .with_header("X-Adsafe-Exit-Code", exit_code.to_string())
    .with_header("X-Adsafe-Degraded", report.degraded.to_string())
    .with_header(
        "X-Adsafe-Cache-Hits",
        report.trace.counter("cache.hits").to_string(),
    )
    .with_header("X-Adsafe-Trace-Digest", digest);
    if !run_id.is_empty() {
        resp = resp.with_header("X-Adsafe-Run-Id", run_id);
    }
    *spent = Some(Box::new((report, assessment)));
    resp
}

/// `GET /runs`: summaries of the runs this daemon appended most
/// recently — as many as the flight recorder keeps requests
/// (`--recorder-cap`) — oldest first, as a JSON array. Older runs stay
/// in each corpus ledger (`adsafe history`).
fn runs_index(shared: &Arc<Shared>) -> Response {
    use std::fmt::Write as _;
    let runs = shared.runs.lock().unwrap_or_else(|e| e.into_inner());
    let mut out = String::from("[");
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"run\":");
        write_escaped(&mut out, &r.run);
        out.push_str(",\"corpus_root\":");
        write_escaped(&mut out, &r.corpus_root);
        let _ = write!(
            out,
            ",\"seq\":{},\"exit_code\":{},\"degraded\":{},\"files\":{},\"blocking\":{}}}",
            r.seq,
            r.exit_code,
            r.degraded,
            r.files,
            r.blocking_count()
        );
    }
    out.push(']');
    Response::json(200, out)
}

/// `GET /rules`: every rule this daemon evaluates on `/assess`, in
/// [`adsafe::query::rule_inventory`] order (natives, bundled pack, the
/// loaded user pack) — with ids, scopes, ISO references, and any
/// contained pack-loading faults. The order is stable across requests.
fn rules_listing(shared: &Arc<Shared>) -> Response {
    use std::fmt::Write as _;
    let mut out = String::from("{\"rules\":[");
    for (i, r) in adsafe::query::rule_inventory(&shared.rules)
        .iter()
        .enumerate()
    {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"id\":");
        write_escaped(&mut out, r.id);
        let _ = write!(
            out,
            ",\"origin\":\"{}\",\"scope\":\"{}\",\"iso\":[",
            r.origin(),
            r.scope.name()
        );
        for (j, iso) in r.iso.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            write_escaped(&mut out, iso);
        }
        out.push_str("],\"desc\":");
        write_escaped(&mut out, r.desc);
        out.push('}');
    }
    out.push_str("],\"pack_faults\":[");
    for (i, f) in shared.rules.faults.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"file\":");
        write_escaped(&mut out, &f.file);
        let _ = write!(out, ",\"line\":{},\"detail\":", f.line);
        write_escaped(&mut out, &f.detail);
        out.push('}');
    }
    out.push_str("]}");
    Response::json(200, out)
}

/// `GET /runs/<ref>`: the full ledger record of one run — matched by
/// run ID, unique ID prefix, or sequence number — as JSON.
fn runs_one(reference: &str, shared: &Arc<Shared>) -> Response {
    let runs = shared.runs.lock().unwrap_or_else(|e| e.into_inner());
    let seq: Option<u64> = reference.parse().ok();
    let matches: Vec<&RunRecord> = runs
        .iter()
        .filter(|r| Some(r.seq) == seq || r.run.starts_with(reference))
        .collect();
    match matches.as_slice() {
        [one] => Response::json(200, one.to_json_line()),
        [] => Response::text(404, format!("no run matches `{reference}`\n")),
        many => Response::text(
            409,
            format!(
                "`{reference}` is ambiguous ({} runs match); use more digits\n",
                many.len()
            ),
        ),
    }
}

/// `POST /invalidate` body: `{"paths": ["a.cc", …]}` or
/// `{"all": true}`. Drops resident (and backing disk) facts and the
/// resident sources of those files, so the next assessment reads and
/// re-analyses them from source. `dropped` counts facts entries.
fn invalidate(req: &Request, shared: &Arc<Shared>) -> Response {
    let Ok(body) = std::str::from_utf8(&req.body) else {
        return Response::text(400, "body is not UTF-8\n");
    };
    let json = match Json::parse(body) {
        Ok(j) => j,
        Err(e) => return Response::text(400, format!("bad JSON body: {e}\n")),
    };
    let dropped = if matches!(json.get("all"), Some(Json::Bool(true))) {
        shared
            .sources
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        shared.store.invalidate_all()
    } else if let Some(arr) = json.get("paths").and_then(Json::as_arr) {
        let mut paths = Vec::with_capacity(arr.len());
        for p in arr {
            match p.as_str() {
                Some(s) => paths.push(s.to_string()),
                None => return Response::text(400, "`paths` must be an array of strings\n"),
            }
        }
        let indexes: Vec<_> = shared
            .sources
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect();
        for index in indexes {
            let mut index = index.lock().unwrap_or_else(|e| e.into_inner());
            for p in &paths {
                index.forget(Path::new(p));
            }
        }
        shared.store.invalidate_paths(&paths)
    } else {
        return Response::text(400, "need `paths` (array) or `all`: true\n");
    };
    Response::json(200, format!("{{\"dropped\":{dropped}}}"))
}

/// `GET /healthz`: readiness plus the degradation state of the most
/// recent assessment.
fn healthz(shared: &Arc<Shared>) -> Response {
    let status = if shared.stop.load(Ordering::SeqCst) {
        "draining"
    } else {
        "ok"
    };
    let last_fault = shared
        .last_fault
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    let mut out = String::from("{");
    out.push_str(&format!("\"status\":\"{status}\""));
    out.push_str(&format!(
        ",\"requests\":{}",
        shared.requests.load(Ordering::SeqCst)
    ));
    out.push_str(&format!(
        ",\"queue_depth\":{}",
        adsafe_trace::gauge("pool.queue_depth").get()
    ));
    out.push_str(&format!(",\"queue_capacity\":{}", shared.queue_capacity));
    out.push_str(&format!(",\"store_entries\":{}", shared.store.len()));
    out.push_str(&format!(",\"store_bytes\":{}", shared.store.bytes()));
    out.push_str(&format!(",\"store_budget\":{}", shared.store.budget()));
    out.push_str(&format!(
        ",\"store_memo_bytes\":{}",
        shared.store.memo_bytes()
    ));
    out.push_str(&format!(
        ",\"ingest_resident_bytes\":{}",
        shared.resident_bytes()
    ));
    out.push_str(&format!(
        ",\"store_evictions\":{}",
        adsafe_trace::counter("store.evictions").get()
    ));
    out.push_str(&format!(",\"keep_alive_max\":{}", shared.keep_alive_max));
    out.push_str(&format!(",\"recorder_len\":{}", shared.recorder.len()));
    out.push_str(&format!(",\"recorder_cap\":{}", shared.recorder.capacity()));
    out.push_str(&format!(
        ",\"recorder_evicted\":{}",
        shared.recorder.evicted()
    ));
    out.push_str(&format!(
        ",\"mem_live\":{}",
        adsafe_trace::alloc::live_bytes()
    ));
    out.push_str(&format!(
        ",\"mem_peak\":{}",
        adsafe_trace::alloc::peak_live_bytes()
    ));
    out.push_str(&format!(
        ",\"last_degraded\":{}",
        shared.last_degraded.load(Ordering::SeqCst)
    ));
    out.push_str(",\"last_fault\":");
    match last_fault {
        Some(f) => write_escaped(&mut out, &f),
        None => out.push_str("null"),
    }
    out.push('}');
    Response::json(200, out)
}
