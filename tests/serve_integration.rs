//! End-to-end tests of the `adsafe serve` daemon over real TCP:
//! CLI/HTTP report byte-identity, warm-request incrementality, fault
//! isolation (500 without killing the daemon), queue backpressure
//! (503 + recovery), keep-alive connection lifecycle (reuse, request
//! cap, idle expiry, stall → 408), invalidation, shutdown write-back —
//! plus property tests of the HTTP codec (folding, chunked bodies,
//! size limits, parser totality, pipelined keep-alive streams).
//!
//! Counters and the metrics registry are process-global, so every
//! server test serialises on [`serve_lock`].

use adsafe_serve::http::{self, Response};
use adsafe_serve::{ServeConfig, Server};
use proptest::prelude::*;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

fn serve_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!("adsafe-serve-test-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Writes a small two-module corpus and returns its root.
fn corpus_dir(tag: &str) -> PathBuf {
    let root = temp_dir(tag);
    let files: [(&str, &str); 3] = [
        (
            "perception/track.cc",
            "int g_tracks;\n\
             int Update(int* state, int delta) {\n\
               if (delta < 0) return -1;\n\
               g_tracks = g_tracks + 1;\n\
               *state = *state + delta;\n\
               return 0;\n\
             }\n",
        ),
        (
            "control/pid.cc",
            "static int s_calls;\n\
             int Step(int err) {\n\
               s_calls = s_calls + 1;\n\
               if (err < 0) { return -err; }\n\
               return err;\n\
             }\n",
        ),
        ("control/pid.h", "int Step(int err);\n"),
    ];
    for (rel, text) in files {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    }
    root
}

const CORPUS_FILES: u64 = 3;

fn start_server(config: ServeConfig) -> Server {
    Server::start(ServeConfig { addr: "127.0.0.1:0".into(), ..config }).expect("bind 127.0.0.1:0")
}

/// One round-trip request over a fresh connection.
fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream
        .write_all(&http::encode_request(method, path, &[], body.as_bytes()))
        .expect("send request");
    let mut reader = BufReader::new(stream);
    match http::read_response(&mut reader) {
        Ok(resp) => resp,
        Err(e) => panic!("reading response to {method} {path}: {e:?}"),
    }
}

fn assess_body(dir: &Path, extra: &str) -> String {
    format!("{{\"dir\":\"{}\"{extra}}}", dir.display())
}

/// Value of `counter <name> N` in a `/metrics` body (0 if absent).
fn metrics_counter(metrics: &str, name: &str) -> u64 {
    let prefix = format!("counter {name} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .map_or(0, |v| v.parse().expect("counter value"))
}

#[test]
fn http_report_is_byte_identical_to_the_cli_report() {
    let _g = serve_lock();
    let corpus = corpus_dir("cli-parity");
    let report_path = corpus.join("cli-report.md");

    // CLI baseline: serial, uncached, report to a file.
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_adsafe"))
        .args([
            "assess",
            &corpus.display().to_string(),
            "--jobs",
            "1",
            "--no-cache",
            "-q",
            "--report",
            &report_path.display().to_string(),
        ])
        .output()
        .expect("running the adsafe CLI");
    let cli_exit = status.status.code().expect("CLI exit code");
    let full = std::fs::read_to_string(&report_path).expect("CLI report written");
    // `--report` appends the trace summary to the deterministic body.
    let cli_det = full
        .split("\n## Trace summary")
        .next()
        .expect("report has a deterministic prefix");

    let server = start_server(ServeConfig::default());
    for jobs in [1, 0] {
        let resp = request(
            server.addr(),
            "POST",
            "/assess",
            &assess_body(&corpus, &format!(",\"jobs\":{jobs}")),
        );
        assert_eq!(resp.status, 200, "jobs={jobs}: {}", resp.body_text());
        assert_eq!(
            resp.body_text(),
            cli_det,
            "HTTP report must be byte-identical to the CLI report at jobs={jobs}"
        );
        assert_eq!(
            resp.header("x-adsafe-exit-code"),
            Some(cli_exit.to_string().as_str()),
            "daemon and CLI must agree on the exit-code contract"
        );
        assert_eq!(resp.header("x-adsafe-degraded"), Some("false"));
        assert!(resp.header("x-adsafe-trace-digest").is_some_and(|d| d.len() == 16));
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&corpus);
}

#[test]
fn warm_second_request_does_zero_parse_work() {
    let _g = serve_lock();
    let corpus = corpus_dir("warm");
    let server = start_server(ServeConfig::default());
    let addr = server.addr();

    let cold = request(addr, "POST", "/assess", &assess_body(&corpus, ""));
    assert_eq!(cold.status, 200, "{}", cold.body_text());
    assert_eq!(cold.header("x-adsafe-cache-hits"), Some("0"));
    let parsed_after_cold =
        metrics_counter(&request(addr, "GET", "/metrics", "").body_text(), "parse.tier1.files");

    let warm = request(addr, "POST", "/assess", &assess_body(&corpus, ""));
    assert_eq!(warm.status, 200);
    assert_eq!(
        warm.header("x-adsafe-cache-hits"),
        Some(CORPUS_FILES.to_string().as_str()),
        "every file must resolve from the resident store"
    );
    let parsed_after_warm =
        metrics_counter(&request(addr, "GET", "/metrics", "").body_text(), "parse.tier1.files");
    assert_eq!(
        parsed_after_warm, parsed_after_cold,
        "the warm request must do zero parse-phase work"
    );
    assert_eq!(warm.body, cold.body, "cold and warm reports must be byte-identical");
    assert_ne!(
        warm.header("x-adsafe-trace-digest"),
        cold.header("x-adsafe-trace-digest"),
        "the per-request trace digest distinguishes cold from warm work"
    );
    server.stop();
    let _ = std::fs::remove_dir_all(&corpus);
}

#[test]
fn handler_panic_answers_500_and_the_daemon_survives() {
    let _g = serve_lock();
    let corpus = corpus_dir("panic");
    let server = start_server(ServeConfig::default());
    let addr = server.addr();

    // A serve-layer panic escapes the handler → 500 with a fault
    // summary.
    let broken = request(
        addr,
        "POST",
        "/assess",
        &assess_body(&corpus, ",\"failpoints\":[{\"site\":\"serve.request\",\"action\":\"panic\"}]"),
    );
    assert_eq!(broken.status, 500);
    let text = broken.body_text();
    assert!(text.contains("DEGRADED: 1 fault(s) contained"), "{text}");
    assert!(text.contains("panic"), "{text}");

    // The daemon — and the worker that panicked — keeps serving.
    let next = request(addr, "POST", "/assess", &assess_body(&corpus, ""));
    assert_eq!(next.status, 200, "daemon must survive a handler panic");
    assert_eq!(next.header("x-adsafe-degraded"), Some("false"));

    // /healthz surfaces the contained fault.
    let health = request(addr, "GET", "/healthz", "").body_text();
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    assert!(health.contains("handler panic on POST /assess"), "{health}");

    // By contrast, a *checker* panic is the pipeline's to contain: the
    // request still answers 200, degraded. (Serial jobs so the
    // thread-local failpoint is visible to the checker.)
    let degraded = request(
        addr,
        "POST",
        "/assess",
        &assess_body(
            &corpus,
            ",\"jobs\":1,\"failpoints\":[{\"site\":\"pipeline::check\",\"action\":\"panic\"}]",
        ),
    );
    assert_eq!(degraded.status, 200, "contained checker faults are not server errors");
    assert_eq!(degraded.header("x-adsafe-degraded"), Some("true"));
    server.stop();
    let _ = std::fs::remove_dir_all(&corpus);
}

#[test]
fn full_queue_answers_503_and_recovers_after_drain() {
    let _g = serve_lock();
    let corpus = corpus_dir("backpressure");
    let server = start_server(ServeConfig {
        handlers: 1,
        queue_capacity: 1,
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let slow_body = assess_body(
        &corpus,
        ",\"jobs\":1,\"failpoints\":[{\"site\":\"serve.request\",\"action\":\"delay\",\"ms\":900}]",
    );
    let plain_body = assess_body(&corpus, ",\"jobs\":1");

    // c1 occupies the single worker for ~900ms.
    let mut c1 = TcpStream::connect(addr).unwrap();
    c1.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    c1.write_all(&http::encode_request("POST", "/assess", &[], slow_body.as_bytes())).unwrap();
    std::thread::sleep(Duration::from_millis(200)); // worker picked c1 up

    // c2 fills the queue (capacity 1).
    let mut c2 = TcpStream::connect(addr).unwrap();
    c2.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    c2.write_all(&http::encode_request("POST", "/assess", &[], plain_body.as_bytes())).unwrap();
    std::thread::sleep(Duration::from_millis(100)); // accept loop queued c2

    // c3 overflows → 503 with a queue-depth-derived Retry-After,
    // answered by the accept loop.
    let rejected = request(addr, "POST", "/assess", &plain_body);
    assert_eq!(rejected.status, 503, "{}", rejected.body_text());
    let retry: u64 = rejected
        .header("retry-after")
        .expect("503 carries Retry-After")
        .parse()
        .expect("Retry-After is integral seconds");
    assert!((1..=30).contains(&retry), "hint stays within the clamp: {retry}");
    let body = rejected.body_text();
    assert!(body.contains("\"queue_depth\":"), "{body}");
    assert!(
        body.contains(&format!("\"retry_after_s\":{retry}")),
        "body and header must agree: {body}"
    );

    // The admitted requests complete.
    let r1 = http::read_response(&mut BufReader::new(c1)).expect("c1 response");
    assert_eq!(r1.status, 200);
    let r2 = http::read_response(&mut BufReader::new(c2)).expect("c2 response");
    assert_eq!(r2.status, 200);

    // The client's retry after the drain succeeds.
    let retried = request(addr, "POST", "/assess", &plain_body);
    assert_eq!(retried.status, 200, "retry after drain must succeed");
    server.stop();
    let _ = std::fs::remove_dir_all(&corpus);
}

/// Sends `wire` on an open stream and reads one response.
fn round_trip(stream: &mut TcpStream, wire: &[u8]) -> Response {
    stream.write_all(wire).expect("send request");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    http::read_response(&mut reader).expect("read response")
}

/// True once `stream` reaches EOF (the server closed its end).
fn reaches_eof(stream: &mut TcpStream) -> bool {
    use std::io::Read;
    let mut probe = [0u8; 64];
    loop {
        match stream.read(&mut probe) {
            Ok(0) => return true,
            Ok(_) => continue, // residual bytes of an unread response
            Err(_) => return false,
        }
    }
}

#[test]
fn keep_alive_serves_many_requests_then_caps_the_connection() {
    let _g = serve_lock();
    let server = start_server(ServeConfig { keep_alive_max: 3, ..ServeConfig::default() });
    let addr = server.addr();
    let reuses_before = {
        let m = request(addr, "GET", "/metrics", "").body_text();
        metrics_counter(&m, "serve.keepalive.reuses")
    };

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let wire = http::encode_request("GET", "/healthz", &[], b"");
    for n in 1..=3 {
        let resp = round_trip(&mut stream, &wire);
        assert_eq!(resp.status, 200, "request {n} on the shared connection");
        let expected = if n < 3 { "keep-alive" } else { "close" };
        assert_eq!(
            resp.header("connection"),
            Some(expected),
            "request {n}/3 against a cap of 3"
        );
    }
    assert!(reaches_eof(&mut stream), "server closes at the request cap");

    let reuses_after = {
        let m = request(addr, "GET", "/metrics", "").body_text();
        metrics_counter(&m, "serve.keepalive.reuses")
    };
    assert!(
        reuses_after >= reuses_before + 2,
        "requests 2 and 3 rode the same connection ({reuses_before} -> {reuses_after})"
    );
    server.stop();
}

#[test]
fn connection_close_and_http10_clients_get_one_shot_connections() {
    let _g = serve_lock();
    let server = start_server(ServeConfig::default());
    let addr = server.addr();

    // Explicit opt-out on HTTP/1.1.
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let resp = round_trip(
        &mut s,
        &http::encode_request("GET", "/healthz", &[("Connection", "close")], b""),
    );
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("connection"), Some("close"));
    assert!(reaches_eof(&mut s));

    // HTTP/1.0 defaults to close without the opt-in.
    let mut s10 = TcpStream::connect(addr).unwrap();
    s10.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let resp = round_trip(&mut s10, b"GET /healthz HTTP/1.0\r\n\r\n");
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("connection"), Some("close"));
    assert!(reaches_eof(&mut s10));
    server.stop();
}

#[test]
fn idle_keep_alive_connections_expire_cleanly() {
    let _g = serve_lock();
    let server = start_server(ServeConfig {
        idle_timeout: Duration::from_millis(200),
        ..ServeConfig::default()
    });
    let addr = server.addr();
    let idle_before = {
        let m = request(addr, "GET", "/metrics", "").body_text();
        metrics_counter(&m, "serve.idle_closes")
    };

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let resp = round_trip(&mut stream, &http::encode_request("GET", "/healthz", &[], b""));
    assert_eq!(resp.header("connection"), Some("keep-alive"));
    // Then say nothing: the server closes without writing anything.
    assert!(reaches_eof(&mut stream), "idle expiry is a clean close, not an error response");

    let idle_after = {
        let m = request(addr, "GET", "/metrics", "").body_text();
        metrics_counter(&m, "serve.idle_closes")
    };
    assert!(idle_after > idle_before, "idle close must be counted");
    server.stop();
}

#[test]
fn a_stalled_request_answers_408_and_closes() {
    let _g = serve_lock();
    let server = start_server(ServeConfig {
        request_timeout: Duration::from_millis(300),
        ..ServeConfig::default()
    });
    let addr = server.addr();

    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    // Half a request line, then silence: the request started (so this
    // is not idle expiry) but can never complete.
    stream.write_all(b"POST /assess HTT").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let resp = http::read_response(&mut reader).expect("408 response");
    assert_eq!(resp.status, 408);
    assert_eq!(resp.header("connection"), Some("close"));
    assert!(reaches_eof(&mut stream));

    let m = request(addr, "GET", "/metrics", "").body_text();
    assert!(metrics_counter(&m, "serve.request_timeouts") >= 1);
    server.stop();
}

#[test]
fn invalidate_drops_resident_facts_for_changed_paths() {
    let _g = serve_lock();
    let corpus = corpus_dir("invalidate");
    let server = start_server(ServeConfig::default());
    let addr = server.addr();

    let cold = request(addr, "POST", "/assess", &assess_body(&corpus, ""));
    assert_eq!(cold.status, 200);
    // The daemon keys facts by the path it ingested: the absolute file
    // path under the corpus root.
    let changed = corpus.join("control/pid.cc");
    let resp = request(
        addr,
        "POST",
        "/invalidate",
        &format!("{{\"paths\":[\"{}\"]}}", changed.display()),
    );
    assert_eq!(resp.status, 200);
    assert_eq!(resp.body_text(), "{\"dropped\":1}");

    let warm = request(addr, "POST", "/assess", &assess_body(&corpus, ""));
    assert_eq!(
        warm.header("x-adsafe-cache-hits"),
        Some((CORPUS_FILES - 1).to_string().as_str()),
        "only the invalidated path re-analyses"
    );

    let all = request(addr, "POST", "/invalidate", "{\"all\":true}");
    assert_eq!(all.body_text(), format!("{{\"dropped\":{CORPUS_FILES}}}"));
    let refilled = request(addr, "POST", "/assess", &assess_body(&corpus, ""));
    assert_eq!(refilled.header("x-adsafe-cache-hits"), Some("0"));

    let bad = request(addr, "POST", "/invalidate", "{\"nope\":1}");
    assert_eq!(bad.status, 400);
    server.stop();
    let _ = std::fs::remove_dir_all(&corpus);
}

#[test]
fn graceful_shutdown_flushes_the_facts_store_to_disk() {
    let _g = serve_lock();
    let corpus = corpus_dir("flush");
    let cache_dir = temp_dir("flush-cache");
    let config = || ServeConfig { cache_dir: Some(cache_dir.clone()), ..ServeConfig::default() };

    let server = start_server(config());
    let addr = server.addr();
    let cold = request(addr, "POST", "/assess", &assess_body(&corpus, ""));
    assert_eq!(cold.status, 200);
    // Write-back is lazy: no facts entries on disk until shutdown.
    let entries_on_disk = || {
        std::fs::read_dir(&cache_dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name() != "meta.json")
            .count() as u64
    };
    assert_eq!(entries_on_disk(), 0, "requests must not pay disk-write latency");
    let stats = server.stop();
    assert_eq!(stats.requests, 1);
    assert_eq!(stats.flushed_entries as u64, CORPUS_FILES, "drain flushes every dirty entry");
    assert_eq!(entries_on_disk(), CORPUS_FILES);

    // A fresh daemon (fresh process, same disk cache) starts warm.
    let server2 = start_server(config());
    let warm = request(server2.addr(), "POST", "/assess", &assess_body(&corpus, ""));
    assert_eq!(
        warm.header("x-adsafe-cache-hits"),
        Some(CORPUS_FILES.to_string().as_str()),
        "the flushed cache must warm the next daemon"
    );
    assert_eq!(warm.body, cold.body);
    server2.stop();
    let _ = std::fs::remove_dir_all(&corpus);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Entries a restarted daemon promotes from its disk cache are keyed by
/// path like fresh ones: invalidating a path drops the promoted entry
/// and its disk copy, so the next request re-analyses that file instead
/// of replaying stale facts.
#[test]
fn invalidate_reaches_entries_promoted_from_disk() {
    let _g = serve_lock();
    let corpus = corpus_dir("promoted");
    let cache_dir = temp_dir("promoted-cache");
    let config = || ServeConfig { cache_dir: Some(cache_dir.clone()), ..ServeConfig::default() };
    let server = start_server(config());
    assert_eq!(request(server.addr(), "POST", "/assess", &assess_body(&corpus, "")).status, 200);
    assert_eq!(server.stop().flushed_entries as u64, CORPUS_FILES);

    let server = start_server(config());
    let addr = server.addr();
    let promoted = request(addr, "POST", "/assess", &assess_body(&corpus, ""));
    assert_eq!(promoted.header("x-adsafe-cache-hits"), Some(CORPUS_FILES.to_string().as_str()));
    let changed = corpus.join("control/pid.cc");
    let resp = request(
        addr,
        "POST",
        "/invalidate",
        &format!("{{\"paths\":[\"{}\"]}}", changed.display()),
    );
    assert_eq!(resp.body_text(), "{\"dropped\":1}");
    let warm = request(addr, "POST", "/assess", &assess_body(&corpus, ""));
    assert_eq!(
        warm.header("x-adsafe-cache-hits"),
        Some((CORPUS_FILES - 1).to_string().as_str()),
        "the invalidated path re-analyses; its disk entry is gone too"
    );
    assert_eq!(warm.body, promoted.body);
    server.stop();
    let _ = std::fs::remove_dir_all(&corpus);
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn healthz_and_routing_basics() {
    let _g = serve_lock();
    let server = start_server(ServeConfig { queue_capacity: 7, ..ServeConfig::default() });
    let addr = server.addr();

    let health = request(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    let text = health.body_text();
    assert!(text.contains("\"status\":\"ok\""), "{text}");
    assert!(text.contains("\"queue_capacity\":7"), "{text}");

    let metrics = request(addr, "GET", "/metrics", "");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body_text().starts_with("# adsafe-metrics/1\n"));

    assert_eq!(request(addr, "GET", "/nope", "").status, 404);
    let wrong_method = request(addr, "GET", "/assess", "");
    assert_eq!(wrong_method.status, 405);
    assert_eq!(wrong_method.header("allow"), Some("POST"));
    assert_eq!(request(addr, "POST", "/assess", "{not json").status, 400);
    assert_eq!(request(addr, "POST", "/assess", "{\"jobs\":1}").status, 400);
    server.stop();
}

#[test]
fn every_assessment_gets_a_run_id_and_a_ledger_record() {
    let _g = serve_lock();
    let corpus = corpus_dir("ledger");
    let server = start_server(ServeConfig::default());
    let addr = server.addr();

    let first = request(addr, "POST", "/assess", &assess_body(&corpus, ""));
    let second = request(addr, "POST", "/assess", &assess_body(&corpus, ""));
    assert_eq!((first.status, second.status), (200, 200));
    let id1 = first.header("x-adsafe-run-id").expect("run ID header").to_string();
    let id2 = second.header("x-adsafe-run-id").expect("run ID header").to_string();
    assert_ne!(id1, id2, "every run gets a fresh ID");
    // Run IDs never leak into the deterministic report body.
    assert!(!first.body_text().contains(&id1));

    // The ledger records are served back over HTTP and show no drift
    // between two identical runs.
    let index = request(addr, "GET", "/runs", "");
    assert_eq!(index.status, 200);
    let listing = index.body_text();
    assert!(listing.contains(&id1) && listing.contains(&id2), "{listing}");

    let fetch = |id: &str| {
        let one = request(addr, "GET", &format!("/runs/{id}"), "");
        assert_eq!(one.status, 200, "GET /runs/{id}");
        adsafe_ledger::RunRecord::from_json(&one.body_text()).expect("served record parses")
    };
    let (r1, r2) = (fetch(&id1), fetch(&id2));
    assert_eq!(r1.corpus_digest, r2.corpus_digest);
    assert!(!adsafe_ledger::RunDiff::between(&r1, &r2).has_drift());
    assert_eq!(request(addr, "GET", "/runs/r999999-00000000", "").status, 404);

    // A corpus mutation that flips a verdict is visible as drift
    // between the served records.
    std::fs::write(
        corpus.join("control/pid.cc"),
        "int Step(int err) {\n\
           if (err < 0) { int err = 1; return err; }\n\
           return err;\n\
         }\n",
    )
    .unwrap();
    let third = request(addr, "POST", "/assess", &assess_body(&corpus, ""));
    assert_eq!(third.status, 200);
    let r3 = fetch(third.header("x-adsafe-run-id").expect("run ID header"));
    let drift = adsafe_ledger::RunDiff::between(&r2, &r3);
    assert!(drift.has_drift(), "shadowing must flip a verdict:\n{}", drift.render());
    assert!(drift.verdict_flips.iter().any(|f| f.key == "t8r4" && f.regressed));

    // The Prometheus exposition serves the same registry.
    let prom = request(addr, "GET", "/metrics?format=prometheus", "");
    assert_eq!(prom.status, 200);
    assert!(prom
        .header("content-type")
        .is_some_and(|t| t.starts_with("text/plain; version=0.0.4")));
    let text = prom.body_text();
    assert!(text.contains("# TYPE adsafe_serve_assessments counter"), "{text}");
    assert_eq!(request(addr, "GET", "/metrics?format=xml", "").status, 400);

    // /healthz surfaces the facts-store gauges.
    let health = request(addr, "GET", "/healthz", "").body_text();
    assert!(health.contains("\"store_bytes\":"), "{health}");

    server.stop();
    let _ = std::fs::remove_dir_all(&corpus);
}

#[test]
fn flight_recorder_serves_the_access_log_and_trace() {
    let _g = serve_lock();
    let corpus = corpus_dir("telemetry");
    let server = start_server(ServeConfig::default());
    let addr = server.addr();

    // Traffic mix: two assessments over one keep-alive connection (the
    // second row must show reuse > 0), plus a 404 and a healthz.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let wire = http::encode_request("POST", "/assess", &[], assess_body(&corpus, "").as_bytes());
    let first = round_trip(&mut stream, &wire);
    let second = round_trip(&mut stream, &wire);
    assert_eq!((first.status, second.status), (200, 200));
    let run_id = second.header("x-adsafe-run-id").expect("run ID header").to_string();
    drop(stream);
    assert_eq!(request(addr, "GET", "/nope", "").status, 404);
    assert_eq!(request(addr, "GET", "/healthz", "").status, 200);

    // /requests: JSONL, every row parses, schema fields present.
    let log = request(addr, "GET", "/requests", "");
    assert_eq!(log.status, 200);
    assert_eq!(log.header("content-type"), Some("application/x-ndjson"));
    let rows: Vec<adsafe::trace::json::Json> = log
        .body_text()
        .lines()
        .map(|l| adsafe::trace::json::Json::parse(l).expect("every access-log row parses"))
        .collect();
    assert!(rows.len() >= 4, "assess x2 + 404 + healthz: {} rows", rows.len());
    let field = |row: &adsafe::trace::json::Json, k: &str| {
        row.get(k).and_then(|v| v.as_f64()).unwrap_or_else(|| panic!("row field {k}"))
    };
    let mut prev_seq = 0.0;
    for row in &rows {
        let seq = field(row, "seq");
        assert!(seq > prev_seq, "seq strictly increases oldest-first");
        prev_seq = seq;
        assert!(field(row, "total_us") >= 0.0);
        row.get("endpoint").and_then(|v| v.as_str()).expect("endpoint field");
    }
    // The keep-alive assess row carries its reuse index and run ID —
    // and that run ID resolves in the ledger (`adsafe history` parity).
    let reused = rows
        .iter()
        .find(|r| {
            r.get("run").and_then(|v| v.as_str()) == Some(run_id.as_str())
                && field(r, "reuse") > 0.0
        })
        .expect("second keep-alive assess row records reuse > 0");
    assert_eq!(field(reused, "status") as u16, 200);
    let resolved = request(addr, "GET", &format!("/runs/{run_id}"), "");
    assert_eq!(resolved.status, 200, "/requests run IDs resolve in the run ledger");
    // Assess rows break the pipeline phases out; parse/render among them.
    let phases: Vec<String> = reused
        .get("phases")
        .and_then(|p| p.as_arr())
        .expect("phases array")
        .iter()
        .filter_map(|p| p.get("name").and_then(|n| n.as_str()).map(str::to_string))
        .collect();
    for want in ["parse", "render", "write"] {
        assert!(phases.iter().any(|p| p == want), "phase {want} in {phases:?}");
    }

    // Filters: by status, by endpoint, last-N; bad values answer 400.
    let only_404 = request(addr, "GET", "/requests?status=404", "");
    assert!(!only_404.body_text().is_empty());
    for line in only_404.body_text().lines() {
        let row = adsafe::trace::json::Json::parse(line).unwrap();
        assert_eq!(field(&row, "status") as u16, 404, "{line}");
    }
    let only_assess = request(addr, "GET", "/requests?endpoint=assess", "");
    assert!(only_assess.body_text().lines().count() >= 2);
    let last_one = request(addr, "GET", "/requests?last=1", "");
    assert_eq!(last_one.body_text().lines().count(), 1);
    assert_eq!(request(addr, "GET", "/requests?status=banana", "").status, 400);
    assert_eq!(request(addr, "GET", "/requests?last=x", "").status, 400);

    // /trace/recent: the same ring as Chrome trace-event JSON, valid
    // per the validator the CLI's --trace-out path uses.
    let trace = request(addr, "GET", "/trace/recent", "");
    assert_eq!(trace.status, 200);
    adsafe::trace::chrome::validate(&trace.body_text()).expect("Chrome trace validates");
    assert!(trace.body_text().contains("\"POST /assess\""), "parent events name the request");

    // Per-endpoint SLO histograms: labeled series in both formats.
    let metrics = request(addr, "GET", "/metrics", "").body_text();
    let slo = metrics
        .lines()
        .find(|l| l.starts_with("hist serve.latency{endpoint=\"assess\",status=\"200\"} count "))
        .expect("labeled assess latency histogram");
    assert!(slo.contains(" p999 "), "text format reports p999: {slo}");
    assert!(
        metrics.lines().any(|l| l.starts_with("hist pool.queue_wait count ")
            && !l.starts_with("hist pool.queue_wait count 0 ")),
        "queue-wait histogram is populated: {metrics}"
    );
    let prom = request(addr, "GET", "/metrics?format=prometheus", "").body_text();
    assert!(
        prom.contains("adsafe_serve_latency_bucket{endpoint=\"assess\",status=\"200\",le="),
        "{prom}"
    );
    assert!(prom.contains("adsafe_serve_status{code=\"200\"}"), "{prom}");

    // /healthz reports the ring's fill level.
    let health = request(addr, "GET", "/healthz", "").body_text();
    assert!(health.contains("\"recorder_len\":"), "{health}");
    assert!(health.contains("\"recorder_cap\":256"), "{health}");

    // Wrong methods on the telemetry endpoints are 405, not 404.
    assert_eq!(request(addr, "POST", "/requests", "").status, 405);
    assert_eq!(request(addr, "POST", "/trace/recent", "").status, 405);

    server.stop();
    let _ = std::fs::remove_dir_all(&corpus);
}

// ---------------------------------------------------------------------
// HTTP codec properties: the parser must accept everything the encoder
// produces and never panic on anything else.

fn parse_bytes(bytes: &[u8]) -> Result<http::Request, http::ReadError> {
    http::read_request(&mut BufReader::new(bytes))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → parse is the identity on method, path, headers, body.
    #[test]
    fn request_round_trips_through_the_codec(
        use_post in 0u8..2,
        path_tail in "[a-z0-9/]{0,20}",
        name_tail in "[a-z0-9-]{0,10}",
        value in "[!-~]{0,30}",
        body in proptest::collection::vec(0u8..255, 0..200),
    ) {
        let method = if use_post == 1 { "POST" } else { "GET" };
        let path = format!("/{path_tail}");
        let name = format!("x{name_tail}");
        let wire = http::encode_request(method, &path, &[(&name, &value)], &body);
        let req = parse_bytes(&wire).expect("own encoding must parse");
        prop_assert_eq!(req.method, method);
        prop_assert_eq!(req.path, path);
        prop_assert_eq!(req.header(&name), Some(value.as_str()));
        prop_assert_eq!(req.body, body);
    }

    /// obs-fold continuation lines join into one space-separated value.
    #[test]
    fn folded_headers_parse_to_the_joined_value(
        parts in proptest::collection::vec("[!-~]{1,12}", 1..5),
    ) {
        let mut wire = b"GET /metrics HTTP/1.1\r\nX-Folded: ".to_vec();
        wire.extend_from_slice(parts[0].as_bytes());
        for p in &parts[1..] {
            wire.extend_from_slice(b"\r\n ");
            wire.extend_from_slice(p.as_bytes());
        }
        wire.extend_from_slice(b"\r\n\r\n");
        let req = parse_bytes(&wire).expect("folded header must parse");
        let joined = parts.join(" ");
        prop_assert_eq!(req.header("x-folded"), Some(joined.as_str()));
    }

    /// Any chunking of a body decodes back to the same bytes.
    #[test]
    fn chunked_bodies_decode_to_the_original(
        body in proptest::collection::vec(0u8..255, 0..300),
        chunk in 1usize..17,
    ) {
        let mut wire = b"POST /assess HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        for piece in body.chunks(chunk) {
            wire.extend_from_slice(format!("{:x}\r\n", piece.len()).as_bytes());
            wire.extend_from_slice(piece);
            wire.extend_from_slice(b"\r\n");
        }
        wire.extend_from_slice(b"0\r\n\r\n");
        let req = parse_bytes(&wire).expect("chunked body must parse");
        prop_assert_eq!(req.body, body);
    }

    /// Oversized declared bodies answer 413, not memory exhaustion.
    #[test]
    fn oversized_bodies_are_rejected_with_413(extra in 1u64..1_000_000) {
        let wire = format!(
            "POST /assess HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            http::MAX_BODY_BYTES as u64 + extra
        );
        match parse_bytes(wire.as_bytes()) {
            Err(http::ReadError::Parse(e)) => prop_assert_eq!(e.status(), 413),
            other => prop_assert!(false, "expected 413, got {:?}", other),
        }
    }

    /// The parser is total: arbitrary bytes produce a result, never a
    /// panic (malformed input maps to 400/413 or a clean close).
    #[test]
    fn parser_never_panics_on_arbitrary_bytes(
        raw in proptest::collection::vec(0u8..255, 0..400),
    ) {
        let _ = parse_bytes(&raw);
    }

    /// ... including byte soup spliced after a valid-looking prefix,
    /// which exercises the header/body framing paths harder.
    #[test]
    fn parser_never_panics_after_a_valid_prefix(
        tail in proptest::collection::vec(0u8..255, 0..200),
    ) {
        let mut wire = b"POST /assess HTTP/1.1\r\n".to_vec();
        wire.extend_from_slice(&tail);
        let _ = parse_bytes(&wire);
    }

    /// Keep-alive framing: any sequence of encoded requests parses
    /// back request-by-request from one byte stream, each with the
    /// right body — the property a persistent connection rests on.
    #[test]
    fn pipelined_requests_parse_back_to_back(
        bodies in proptest::collection::vec(
            proptest::collection::vec(0u8..255, 0..120),
            1..6,
        ),
    ) {
        let mut wire = Vec::new();
        for (i, body) in bodies.iter().enumerate() {
            wire.extend_from_slice(&http::encode_request(
                "POST",
                &format!("/assess/{i}"),
                &[],
                body,
            ));
        }
        let mut reader = BufReader::new(&wire[..]);
        for (i, body) in bodies.iter().enumerate() {
            let req = http::read_request(&mut reader)
                .unwrap_or_else(|e| panic!("request {i} must parse: {e:?}"));
            prop_assert_eq!(req.path, format!("/assess/{i}"));
            prop_assert_eq!(&req.body, body);
            prop_assert!(req.wants_keep_alive());
        }
        prop_assert!(
            matches!(http::read_request(&mut reader), Err(http::ReadError::Closed)),
            "after the last pipelined request the stream ends cleanly"
        );
    }

    /// Totality across request boundaries: however many valid requests
    /// precede the soup, parsing them then hitting the soup never
    /// panics — the parse error stays contained to the soup request.
    #[test]
    fn parser_never_panics_on_soup_between_pipelined_requests(
        valid in 0usize..4,
        soup in proptest::collection::vec(0u8..255, 1..160),
    ) {
        let mut wire = Vec::new();
        for _ in 0..valid {
            wire.extend_from_slice(&http::encode_request("GET", "/healthz", &[], b""));
        }
        wire.extend_from_slice(&soup);
        let mut reader = BufReader::new(&wire[..]);
        for i in 0..valid {
            let req = http::read_request(&mut reader)
                .unwrap_or_else(|e| panic!("request {i} before the soup must parse: {e:?}"));
            prop_assert_eq!(req.path, "/healthz");
        }
        // The soup itself: any outcome but a panic.
        let _ = http::read_request(&mut reader);
    }
}
