//! The chaos harness: `adsafe serve` under deterministic socket fault
//! injection (see `crates/chaos` and DESIGN.md §11).
//!
//! Every scenario drives real TCP traffic through a seeded
//! [`ChaosProxy`] into a real daemon and holds four invariants:
//!
//! 1. **No panic escapes** — `serve.panics` stays zero through every
//!    storm; the daemon answers normal requests afterwards.
//! 2. **Well-formed or silent** — everything a client reads back
//!    parses as a complete HTTP response; otherwise the connection
//!    ends in a clean close, never a half-written head.
//! 3. **Faults are observable** — every fault the proxy injects is
//!    counted under `chaos.*` in the same `/metrics` registry as the
//!    server-side counters it provoked.
//! 4. **Determinism survives pressure** — `POST /assess` bodies stay
//!    byte-identical to the CLI report throughout, including under
//!    facts-store eviction.
//!
//! Scenarios are replayable: each is fully described by its seed (the
//! plan maps `(seed, accept index) → fault` as a pure function), so a
//! failure message naming a seed is a complete reproduction recipe.
//!
//! The scenarios run concurrently. Each proxy counts its own accepted
//! connections, so no test diffs the process-wide `chaos.connections`
//! counter. `serve.panics` is process-wide too: the storm test's
//! check holds only because no test in this binary provokes a handler
//! panic, and none may.

use adsafe_chaos::{ChaosPlan, ChaosProxy, FaultKind};
use adsafe_serve::http::{self, ReadError, Response};
use adsafe_serve::{ServeConfig, Server};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "adsafe-chaos-test-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A small two-module corpus (same shape as the serve tests use).
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

/// The deterministic report for `corpus`, straight from the CLI — the
/// golden bytes every served 200 must reproduce.
fn cli_golden_report(corpus: &Path) -> String {
    let report_path = corpus.join("golden.md");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_adsafe"))
        .args([
            "assess",
            &corpus.display().to_string(),
            "--jobs",
            "1",
            "--no-cache",
            "--no-ledger",
            "-q",
            "--report",
            &report_path.display().to_string(),
        ])
        .output()
        .expect("running the adsafe CLI");
    assert!(out.status.code().is_some(), "CLI must exit normally");
    let full = std::fs::read_to_string(&report_path).expect("CLI report written");
    let _ = std::fs::remove_file(&report_path);
    full.split("\n## Trace summary")
        .next()
        .expect("deterministic prefix")
        .to_string()
}

/// One round-trip on a fresh, un-proxied connection (for golden checks
/// and metrics reads that must not themselves be chaos-afflicted).
fn direct(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(&http::encode_request(method, path, &[], body.as_bytes()))
        .expect("send request");
    let mut reader = BufReader::new(stream);
    http::read_response(&mut reader).unwrap_or_else(|e| panic!("{method} {path}: {e:?}"))
}

fn metrics_counter(metrics: &str, name: &str) -> u64 {
    let prefix = format!("counter {name} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .map_or(0, |v| v.parse().expect("counter value"))
}

/// A hardened-but-fast daemon config for chaos runs: budgets tight
/// enough that hostile connections die in well under a second.
fn chaos_config() -> ServeConfig {
    ServeConfig {
        handlers: 2,
        keep_alive_max: 8,
        idle_timeout: Duration::from_millis(400),
        request_timeout: Duration::from_millis(1_500),
        min_byte_rate: 256,
        ..ServeConfig::default()
    }
}

/// Drives one proxied connection with a small request script and
/// checks invariant 2: every readable response is well-formed (and no
/// 200 ever carries corrupted report bytes); everything else is a
/// close. Returns the number of well-formed responses read.
fn drive_connection(
    proxy_addr: SocketAddr,
    scenario: &str,
    requests: &[Vec<u8>],
    golden: &str,
) -> usize {
    let Ok(mut stream) = TcpStream::connect(proxy_addr) else {
        return 0;
    };
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut well_formed = 0;
    for wire in requests {
        if stream.write_all(wire).is_err() || stream.flush().is_err() {
            // The proxy (or server) already gave up on us — fine.
            break;
        }
        match http::read_response(&mut reader) {
            Ok(resp) => {
                assert_ne!(
                    resp.status, 500,
                    "{scenario}: socket chaos must never surface as a handler panic"
                );
                if resp.status == 200
                    && resp.header("content-type") == Some("text/markdown; charset=utf-8")
                {
                    assert_eq!(
                        resp.body_text(),
                        golden,
                        "{scenario}: a 200 report must carry the exact golden bytes"
                    );
                }
                well_formed += 1;
                if resp.header("connection") == Some("close") {
                    break;
                }
            }
            // A clean close or a torn connection both end the script;
            // what must never happen is a *malformed* response, which
            // read_response reports as Parse.
            Err(ReadError::Closed) | Err(ReadError::Io(_)) => break,
            Err(ReadError::Parse(e)) => {
                panic!("{scenario}: server wrote a malformed response: {e:?}")
            }
        }
    }
    well_formed
}

/// The client scripts a chaos connection cycles through: an
/// assessment, a health probe, and a chunked-body assessment (the
/// frame most interesting to tear).
fn scripts(corpus: &Path) -> Vec<Vec<Vec<u8>>> {
    let body = format!("{{\"dir\":\"{}\",\"jobs\":1}}", corpus.display());
    let assess = http::encode_request("POST", "/assess", &[], body.as_bytes());
    let health = http::encode_request("GET", "/healthz", &[], b"");
    let metrics = http::encode_request("GET", "/metrics", &[], b"");
    let mut chunked = b"POST /assess HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
    for piece in body.as_bytes().chunks(7) {
        chunked.extend_from_slice(format!("{:x}\r\n", piece.len()).as_bytes());
        chunked.extend_from_slice(piece);
        chunked.extend_from_slice(b"\r\n");
    }
    chunked.extend_from_slice(b"0\r\n\r\n");
    vec![
        vec![assess.clone(), health.clone()],
        vec![health, metrics],
        vec![chunked, assess],
    ]
}

#[test]
fn twenty_seeded_storms_leave_the_daemon_sound() {
    let corpus = corpus_dir("storm");
    let golden = cli_golden_report(&corpus);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..chaos_config()
    })
    .expect("bind");
    let addr = server.addr();
    let panics_before = {
        let m = direct(addr, "GET", "/metrics", "").body_text();
        metrics_counter(&m, "serve.panics")
    };

    let scripts = scripts(&corpus);
    let mut responses = 0usize;
    let mut proxied = 0u64;
    for seed in 1..=20u64 {
        let proxy = ChaosProxy::start(addr, ChaosPlan::new(seed)).expect("proxy");
        for (i, script) in scripts.iter().enumerate() {
            responses += drive_connection(
                proxy.addr(),
                &format!("seed {seed}, connection {i}"),
                script,
                &golden,
            );
        }
        proxied += proxy.connections();
        proxy.stop();
    }
    assert!(responses > 0, "some traffic must survive the storms");

    // Invariant 3: the injected faults are visible in /metrics, right
    // next to the server-side counters they provoked.
    let metrics = direct(addr, "GET", "/metrics", "").body_text();
    assert_eq!(
        proxied,
        20 * scripts.len() as u64,
        "every proxied connection is counted"
    );
    for fault in [
        "chaos.fault.clean",
        "chaos.fault.abort",
        "chaos.fault.soup",
        "chaos.fault.reset",
    ] {
        assert!(
            metrics_counter(&metrics, fault) > 0,
            "20 seeds x 3 connections must exercise {fault}:\n{metrics}"
        );
    }

    // Invariant 1: nothing panicked, and the daemon still serves the
    // golden bytes on a clean connection.
    assert_eq!(
        metrics_counter(&metrics, "serve.panics"),
        panics_before,
        "socket chaos must never reach a handler panic"
    );
    let after = direct(
        addr,
        "POST",
        "/assess",
        &format!("{{\"dir\":\"{}\"}}", corpus.display()),
    );
    assert_eq!(after.status, 200);
    assert_eq!(
        after.body_text(),
        golden,
        "the daemon is unharmed after 20 storms"
    );
    let health = direct(addr, "GET", "/healthz", "").body_text();
    assert!(health.contains("\"status\":\"ok\""), "{health}");

    server.stop();
    let _ = std::fs::remove_dir_all(&corpus);
}

#[test]
fn torn_chunked_frames_never_reach_the_pipeline() {
    let corpus = corpus_dir("torn-chunk");
    let golden = cli_golden_report(&corpus);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..chaos_config()
    })
    .expect("bind");
    let addr = server.addr();

    // Tear the chunked request at offsets that land mid-head, on the
    // chunk-size line, and inside chunk data.
    let chunked = &scripts(&corpus)[2][0];
    let head_len = b"POST /assess HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".len();
    for cut in [
        5,
        head_len - 2,
        head_len + 1,
        head_len + 4,
        chunked.len() - 3,
    ] {
        let proxy = ChaosProxy::start(addr, ChaosPlan::fixed(FaultKind::AbortAfter { bytes: cut }))
            .expect("proxy");
        drive_connection(
            proxy.addr(),
            &format!("chunked tear at byte {cut}"),
            std::slice::from_ref(chunked),
            &golden,
        );
        proxy.stop();
    }

    // The tear surfaced as a 4xx/close, never as a served assessment
    // of a truncated body: the daemon still produces golden bytes.
    let after = direct(
        addr,
        "POST",
        "/assess",
        &format!("{{\"dir\":\"{}\"}}", corpus.display()),
    );
    assert_eq!((after.status, after.body_text()), (200, golden));
    server.stop();
    let _ = std::fs::remove_dir_all(&corpus);
}

#[test]
fn reset_storms_and_slow_drips_are_contained() {
    let corpus = corpus_dir("reset");
    let golden = cli_golden_report(&corpus);
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..chaos_config()
    })
    .expect("bind");
    let addr = server.addr();
    let drops_before = {
        let m = direct(addr, "GET", "/metrics", "").body_text();
        metrics_counter(&m, "serve.slowloris_drops")
    };

    // A burst of connections that RST at various points.
    let health = http::encode_request("GET", "/healthz", &[], b"");
    for bytes in [0usize, 3, 10, 26, 200] {
        let proxy = ChaosProxy::start(addr, ChaosPlan::fixed(FaultKind::ResetAfter { bytes }))
            .expect("proxy");
        drive_connection(
            proxy.addr(),
            &format!("reset after {bytes}"),
            std::slice::from_ref(&health),
            &golden,
        );
        proxy.stop();
    }

    // A slow-drip client dies to the byte-rate floor (2 B/s against a
    // 256 B/s minimum), not by pinning a worker forever.
    let proxy = ChaosProxy::start(addr, ChaosPlan::fixed(FaultKind::SlowDrip { delay_ms: 40 }))
        .expect("proxy");
    drive_connection(
        proxy.addr(),
        "slow drip",
        std::slice::from_ref(&health),
        &golden,
    );
    proxy.stop();
    let m = direct(addr, "GET", "/metrics", "").body_text();
    assert!(
        metrics_counter(&m, "serve.slowloris_drops") > drops_before
            || metrics_counter(&m, "serve.request_timeouts") > 0,
        "the drip must die to a read budget, not run to completion:\n{m}"
    );

    let after = direct(
        addr,
        "POST",
        "/assess",
        &format!("{{\"dir\":\"{}\"}}", corpus.display()),
    );
    assert_eq!((after.status, after.body_text()), (200, golden));
    server.stop();
    let _ = std::fs::remove_dir_all(&corpus);
}

#[test]
fn flight_recorder_stays_coherent_through_a_seeded_storm() {
    let corpus = corpus_dir("recorder-storm");
    let golden = cli_golden_report(&corpus);
    // A deliberately tiny ring so the storm overruns it many times
    // over and FIFO eviction is the common case, not the edge case.
    let cap = 8usize;
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        recorder_cap: cap,
        ..chaos_config()
    })
    .expect("bind");
    let addr = server.addr();

    let scripts = scripts(&corpus);
    for seed in 100..=110u64 {
        let proxy = ChaosProxy::start(addr, ChaosPlan::new(seed)).expect("proxy");
        for (i, script) in scripts.iter().enumerate() {
            drive_connection(
                proxy.addr(),
                &format!("seed {seed}, connection {i}"),
                script,
                &golden,
            );
        }
        proxy.stop();
    }

    // Invariant: no half-written records. Every row the ring serves
    // parses as complete JSON with the full schema, even though the
    // requests behind them were torn, reset, and slow-dripped.
    let log = direct(addr, "GET", "/requests", "");
    assert_eq!(log.status, 200);
    let rows: Vec<adsafe::trace::json::Json> = log
        .body_text()
        .lines()
        .map(|l| {
            adsafe::trace::json::Json::parse(l)
                .unwrap_or_else(|e| panic!("half-written access-log row: {e}\n{l}"))
        })
        .collect();
    assert!(
        !rows.is_empty() && rows.len() <= cap,
        "ring holds at most {cap}: {}",
        rows.len()
    );
    let seq = |row: &adsafe::trace::json::Json| {
        row.get("seq").and_then(|v| v.as_f64()).expect("seq field") as u64
    };
    for row in &rows {
        for k in [
            "run", "method", "endpoint", "status", "conn", "reuse", "total_us",
        ] {
            assert!(row.get(k).is_some(), "row missing {k}");
        }
    }

    // FIFO eviction: rows are the *newest* records, seqs contiguous
    // oldest-first, and the arithmetic recorded − retained = evicted
    // holds against /healthz's tallies.
    for pair in rows.windows(2) {
        assert_eq!(seq(&pair[1]), seq(&pair[0]) + 1, "contiguous FIFO window");
    }
    // The newest seq seen so far, then the tallies *after* it: the
    // eviction counter must already account for everything that seq
    // implies was pushed out of an 8-slot ring.
    let last_seq = rows.last().map(seq).expect("ring is non-empty");
    let health = direct(addr, "GET", "/healthz", "").body_text();
    let field = |name: &str| -> u64 {
        health
            .split(&format!("\"{name}\":"))
            .nth(1)
            .and_then(|s| s.split(&[',', '}'][..]).next())
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("healthz reports {name}: {health}"))
    };
    assert!(
        health.contains(&format!("\"recorder_cap\":{cap}")),
        "{health}"
    );
    assert!(
        field("recorder_evicted") >= last_seq.saturating_sub(cap as u64),
        "evicted tally accounts for everything pushed out of the ring: \
         evicted {} against seq {last_seq}",
        field("recorder_evicted")
    );

    // The trace view of the same ring is valid Chrome trace JSON.
    let trace = direct(addr, "GET", "/trace/recent", "");
    assert_eq!(trace.status, 200);
    adsafe::trace::chrome::validate(&trace.body_text())
        .expect("post-storm /trace/recent passes the Chrome validator");

    // And the daemon is unharmed: golden bytes on a clean connection.
    let after = direct(
        addr,
        "POST",
        "/assess",
        &format!("{{\"dir\":\"{}\"}}", corpus.display()),
    );
    assert_eq!((after.status, after.body_text()), (200, golden));
    server.stop();
    let _ = std::fs::remove_dir_all(&corpus);
}

#[test]
fn store_eviction_under_memory_pressure_never_changes_report_bytes() {
    let corpus = corpus_dir("pressure");
    let cache_dir = temp_dir("pressure-cache");
    // A budget far below what the corpus's facts occupy resident, so
    // every round evicts; large enough to hold any single entry.
    let budget: u64 = 2048;
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        store_budget: budget,
        cache_dir: Some(cache_dir.clone()),
        ..chaos_config()
    })
    .expect("bind");
    let addr = server.addr();
    let evictions_before = {
        let m = direct(addr, "GET", "/metrics", "").body_text();
        metrics_counter(&m, "store.evictions")
    };

    let body = format!("{{\"dir\":\"{}\",\"jobs\":1}}", corpus.display());
    for round in 0..4 {
        // Mutate one file each round: fresh content hashes keep new
        // entries flowing into the budgeted store.
        std::fs::write(
            corpus.join("perception/track.cc"),
            format!(
                "int g_tracks;\n\
                 int Update(int* state, int delta) {{\n\
                   if (delta < {round}) return -1;\n\
                   g_tracks = g_tracks + 1;\n\
                   *state = *state + delta;\n\
                   return 0;\n\
                 }}\n"
            ),
        )
        .unwrap();
        let golden = cli_golden_report(&corpus);
        let first = direct(addr, "POST", "/assess", &body);
        let second = direct(addr, "POST", "/assess", &body);
        assert_eq!(first.status, 200, "round {round}");
        assert_eq!(
            first.body_text(),
            golden,
            "round {round}: served report must match the CLI under eviction pressure"
        );
        assert_eq!(
            second.body_text(),
            golden,
            "round {round}: repeat request stays byte-identical whatever got evicted"
        );
    }

    let metrics = direct(addr, "GET", "/metrics", "").body_text();
    let evictions = metrics_counter(&metrics, "store.evictions") - evictions_before;
    assert!(
        evictions > 0,
        "the budget must have forced evictions:\n{metrics}"
    );
    assert!(metrics_counter(&metrics, "store.evicted_bytes") > 0);

    // /healthz surfaces the pressure: bytes within budget, the budget
    // itself, and the eviction tally.
    let health = direct(addr, "GET", "/healthz", "").body_text();
    assert!(
        health.contains(&format!("\"store_budget\":{budget}")),
        "{health}"
    );
    let store_bytes: u64 = health
        .split("\"store_bytes\":")
        .nth(1)
        .and_then(|s| s.split(&[',', '}'][..]).next())
        .and_then(|s| s.parse().ok())
        .expect("healthz reports store_bytes");
    let store_entries: u64 = health
        .split("\"store_entries\":")
        .nth(1)
        .and_then(|s| s.split(&[',', '}'][..]).next())
        .and_then(|s| s.parse().ok())
        .expect("healthz reports store_entries");
    assert!(
        store_bytes <= budget || store_entries == 1,
        "the store respects its budget (or holds one oversized entry): \
         {store_bytes} bytes in {store_entries} entries against {budget}\n{health}"
    );
    assert!(health.contains("\"store_evictions\":"), "{health}");
    assert!(
        health.contains("facts store evicted"),
        "the eviction fault surfaces on the daemon's health, not in reports: {health}"
    );

    server.stop();
    let _ = std::fs::remove_dir_all(&corpus);
    let _ = std::fs::remove_dir_all(&cache_dir);
}
