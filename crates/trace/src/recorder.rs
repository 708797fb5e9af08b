//! Bounded in-memory flight recorder for completed requests.
//!
//! A serving daemon needs per-request history — which endpoint, which
//! status, how long each phase took — without unbounded growth and
//! without a write-side lock on the request hot path worth worrying
//! about. [`FlightRecorder`] is a FIFO ring of [`RequestRecord`]s
//! behind one short mutexed push per *completed* request: records are
//! built fully off-lock and inserted whole, so a reader can never
//! observe a half-written record (a connection that dies mid-request
//! simply never records). When the ring is full the oldest record is
//! evicted first; `recorded() − len()` records have scrolled away.
//!
//! Two export shapes serve the daemon's telemetry endpoints: one JSON
//! line per record ([`RequestRecord::to_json_line`], the `/requests`
//! access log) and a Chrome trace-event document re-emitted through
//! [`crate::chrome`] ([`FlightRecorder::to_chrome_json`], the
//! `/trace/recent` endpoint) where each connection becomes a `tid`
//! track and each request a complete event with its phases nested
//! under it.

use crate::chrome;
use crate::json::write_escaped;
use crate::span::SpanEvent;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One timed slice of a request (queue-wait, parse, checks, metrics,
/// render, write, …), in µs since the process trace epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTiming {
    /// Phase name, e.g. `"parse"` or `"queue_wait"`.
    pub name: String,
    /// Start, µs since the process trace epoch.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
}

/// One completed request, recorded at response close.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestRecord {
    /// Monotonic sequence number assigned by the recorder (1-based);
    /// strictly increasing in ring order, so FIFO eviction is visible
    /// as a contiguous low-end gap.
    pub seq: u64,
    /// Ledger run ID (`r000042-1a2b3c4d`), empty for endpoints that do
    /// not reserve a run.
    pub run_id: String,
    /// HTTP method.
    pub method: String,
    /// Request path without the query string, e.g. `/assess`.
    pub endpoint: String,
    /// Response status code.
    pub status: u16,
    /// Server-assigned connection ID (1-based).
    pub conn_id: u64,
    /// Zero-based index of this request on its connection; > 0 means
    /// the request rode a kept-alive connection.
    pub reuse: u64,
    /// Request start, µs since the process trace epoch.
    pub start_us: u64,
    /// Total request wall time in µs (read → response written).
    pub total_us: u64,
    /// Heap bytes the request allocated: its handler thread and the
    /// pool workers it fanned out to, read from the request's trace
    /// scope, so overlapping requests never see each other's bytes
    /// (0 when memory profiling is off).
    pub alloc_bytes: u64,
    /// Phase breakdown, ordered by start time.
    pub phases: Vec<PhaseTiming>,
}

impl RequestRecord {
    /// Serialises the record as one line of JSON (no trailing newline)
    /// — the `/requests` JSONL access-log row.
    pub fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(160 + self.phases.len() * 48);
        let _ = write!(out, "{{\"seq\":{},\"run\":", self.seq);
        write_escaped(&mut out, &self.run_id);
        out.push_str(",\"method\":");
        write_escaped(&mut out, &self.method);
        out.push_str(",\"endpoint\":");
        write_escaped(&mut out, &self.endpoint);
        let _ = write!(
            out,
            ",\"status\":{},\"conn\":{},\"reuse\":{},\"start_us\":{},\"total_us\":{},\
             \"alloc_bytes\":{},\"phases\":[",
            self.status, self.conn_id, self.reuse, self.start_us, self.total_us, self.alloc_bytes
        );
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":");
            write_escaped(&mut out, &p.name);
            let _ = write!(
                out,
                ",\"start_us\":{},\"dur_us\":{}}}",
                p.start_us, p.dur_us
            );
        }
        out.push_str("]}");
        out
    }

    /// The record as span events: one parent covering the request and
    /// one child per phase, all on the connection's `tid` track.
    fn to_span_events(&self) -> Vec<SpanEvent> {
        let mut events = Vec::with_capacity(1 + self.phases.len());
        events.push(SpanEvent {
            name: format!("{} {}", self.method, self.endpoint),
            cat: "serve",
            start_us: self.start_us,
            dur_us: self.total_us,
            depth: 0,
            tid: self.conn_id,
            args: vec![
                ("run", self.run_id.clone()),
                ("status", self.status.to_string()),
                ("reuse", self.reuse.to_string()),
                ("seq", self.seq.to_string()),
            ],
        });
        for p in &self.phases {
            events.push(SpanEvent {
                name: p.name.clone(),
                cat: "serve.phase",
                start_us: p.start_us,
                dur_us: p.dur_us,
                depth: 1,
                tid: self.conn_id,
                args: Vec::new(),
            });
        }
        events
    }
}

/// Bounded FIFO ring of completed-request records.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Mutex<VecDeque<RequestRecord>>,
    cap: usize,
    recorded: AtomicU64,
    evicted: AtomicU64,
}

impl FlightRecorder {
    /// A recorder keeping at most `cap` records (minimum 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        FlightRecorder {
            ring: Mutex::new(VecDeque::with_capacity(cap)),
            cap,
            recorded: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// Appends a completed record, evicting the oldest when full.
    /// Assigns and returns the record's sequence number. The sequence
    /// is taken under the ring lock, so ring order and `seq` order
    /// always agree even with concurrent recorders. The ring holds a
    /// record for `cap` requests, so its phase list is stored without
    /// spare capacity: one collected in place from a request's drained
    /// span events keeps a buffer sized for every span.
    pub fn record(&self, mut record: RequestRecord) -> u64 {
        record.phases.shrink_to_fit();
        let mut ring = self.ring.lock().expect("flight recorder poisoned");
        let seq = self.recorded.fetch_add(1, Ordering::Relaxed) + 1;
        record.seq = seq;
        if ring.len() == self.cap {
            ring.pop_front();
            self.evicted.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
        seq
    }

    /// Copies the ring oldest-first.
    pub fn snapshot(&self) -> Vec<RequestRecord> {
        let ring = self.ring.lock().expect("flight recorder poisoned");
        ring.iter().cloned().collect()
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("flight recorder poisoned").len()
    }

    /// Whether the ring holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum records held.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total records ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Records evicted to make room.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Re-emits the ring as a Chrome trace-event JSON document via the
    /// [`crate::chrome`] exporter: per record, one complete event for
    /// the request (args carry run ID, status, reuse index, seq) with
    /// its phases as nested events, tracked per connection via `tid`.
    /// The output loads in `chrome://tracing` and passes
    /// [`chrome::validate`].
    pub fn to_chrome_json(&self) -> String {
        let events: Vec<SpanEvent> = self
            .snapshot()
            .iter()
            .flat_map(RequestRecord::to_span_events)
            .collect();
        chrome::to_chrome_json(&events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn rec(endpoint: &str, status: u16, conn: u64) -> RequestRecord {
        RequestRecord {
            seq: 0,
            run_id: if endpoint == "/assess" {
                "r000001-00c0ffee".into()
            } else {
                String::new()
            },
            method: "GET".into(),
            endpoint: endpoint.into(),
            status,
            conn_id: conn,
            reuse: 2,
            start_us: 1000,
            total_us: 250,
            alloc_bytes: 65536,
            phases: vec![
                PhaseTiming {
                    name: "queue_wait".into(),
                    start_us: 1000,
                    dur_us: 40,
                },
                PhaseTiming {
                    name: "write".into(),
                    start_us: 1200,
                    dur_us: 50,
                },
            ],
        }
    }

    #[test]
    fn records_are_held_without_spare_phase_capacity() {
        let fr = FlightRecorder::new(2);
        let mut r = rec("/assess", 200, 1);
        r.phases.reserve(5000);
        fr.record(r);
        let ring = fr.ring.lock().unwrap();
        assert_eq!(ring[0].phases.capacity(), ring[0].phases.len());
    }

    #[test]
    fn eviction_is_fifo_and_seq_is_contiguous() {
        let fr = FlightRecorder::new(4);
        for i in 0..6 {
            fr.record(rec("/assess", 200, i));
        }
        assert_eq!(fr.len(), 4);
        assert_eq!(fr.capacity(), 4);
        assert_eq!(fr.recorded(), 6);
        assert_eq!(fr.evicted(), 2);
        let snap = fr.snapshot();
        let seqs: Vec<u64> = snap.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, [3, 4, 5, 6], "oldest records evicted first");
        assert_eq!(
            snap[0].conn_id, 2,
            "records keep their payload through the ring"
        );
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let fr = FlightRecorder::new(0);
        assert_eq!(fr.capacity(), 1);
        fr.record(rec("/healthz", 200, 1));
        fr.record(rec("/healthz", 200, 2));
        assert_eq!(fr.len(), 1);
        assert_eq!(fr.snapshot()[0].conn_id, 2);
    }

    #[test]
    fn json_line_round_trips() {
        let fr = FlightRecorder::new(8);
        fr.record(rec("/assess", 200, 7));
        let line = fr.snapshot()[0].to_json_line();
        assert!(!line.contains('\n'), "JSONL rows are single lines: {line}");
        let doc = Json::parse(&line).expect("row parses");
        assert_eq!(doc.get("seq").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            doc.get("run").and_then(Json::as_str),
            Some("r000001-00c0ffee")
        );
        assert_eq!(doc.get("endpoint").and_then(Json::as_str), Some("/assess"));
        assert_eq!(doc.get("status").and_then(Json::as_f64), Some(200.0));
        assert_eq!(doc.get("conn").and_then(Json::as_f64), Some(7.0));
        assert_eq!(doc.get("reuse").and_then(Json::as_f64), Some(2.0));
        assert_eq!(doc.get("alloc_bytes").and_then(Json::as_f64), Some(65536.0));
        let phases = doc
            .get("phases")
            .and_then(Json::as_arr)
            .expect("phases array");
        assert_eq!(phases.len(), 2);
        assert_eq!(
            phases[0].get("name").and_then(Json::as_str),
            Some("queue_wait")
        );
        assert_eq!(phases[1].get("dur_us").and_then(Json::as_f64), Some(50.0));
    }

    #[test]
    fn chrome_reemission_validates_with_phase_children() {
        let fr = FlightRecorder::new(8);
        fr.record(rec("/assess", 200, 1));
        fr.record(rec("/metrics", 200, 2));
        let text = fr.to_chrome_json();
        // 2 records × (1 parent + 2 phases).
        assert_eq!(chrome::validate(&text).expect("validator-clean"), 6);
        let doc = Json::parse(&text).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(
            events[0].get("name").and_then(Json::as_str),
            Some("GET /assess")
        );
        assert_eq!(
            events[0]
                .get("args")
                .and_then(|a| a.get("run"))
                .and_then(Json::as_str),
            Some("r000001-00c0ffee")
        );
        assert_eq!(
            events[1].get("name").and_then(Json::as_str),
            Some("queue_wait")
        );
        assert_eq!(
            events[1].get("cat").and_then(Json::as_str),
            Some("serve.phase")
        );
        // Connections map onto tid tracks.
        assert_eq!(events[0].get("tid").and_then(Json::as_f64), Some(1.0));
        assert_eq!(events[3].get("tid").and_then(Json::as_f64), Some(2.0));
    }

    #[test]
    fn empty_recorder_exports_a_valid_empty_trace() {
        let fr = FlightRecorder::new(4);
        assert!(fr.is_empty());
        assert_eq!(chrome::validate(&fr.to_chrome_json()).unwrap(), 0);
    }
}
