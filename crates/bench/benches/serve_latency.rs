//! Serve-path perf baseline: cold vs warm `POST /assess` latency —
//! keep-alive against per-request connections — tail latency under 32
//! concurrent clients in both modes, and a `rejected_503` saturation
//! point, written as `BENCH_serve.json` (schema `adsafe-bench-serve/2`).
//!
//! The bench materialises the test-scale Apollo corpus on disk, runs
//! an in-process `adsafe-serve` daemon, and talks to it over real TCP
//! — the same path the CI smoke job and a production client exercise.
//!
//! Alongside the rich document it emits a `*_gate.json` twin in the
//! `adsafe-bench-pipeline/1` schema (latency headlines as phases), so
//! `adsafe trace-compare` gates serve latency with the same 2×
//! comparator and noise floor the pipeline baseline uses. Regenerate
//! both committed baselines with:
//!
//! ```text
//! cargo bench -p adsafe-bench --bench serve_latency -- BENCH_serve.json
//! ```

use adsafe::corpus::{generate, ApolloSpec};
use adsafe_serve::http;
use adsafe_serve::{ServeConfig, Server};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const CONCURRENT_CLIENTS: usize = 32;
const REQUESTS_PER_CLIENT: usize = 4;
/// Warm latency is the fastest of this many repeats.
const WARM_RUNS: usize = 5;

/// One request per fresh connection (the pre-keep-alive client shape),
/// honouring 503 backpressure like a production client.
fn post_assess(addr: SocketAddr, body: &str) -> http::Response {
    loop {
        let mut stream = TcpStream::connect(addr).expect("connect to bench server");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        stream
            .write_all(&http::encode_request(
                "POST",
                "/assess",
                &[("Connection", "close")],
                body.as_bytes(),
            ))
            .expect("send assess request");
        let resp = http::read_response(&mut BufReader::new(stream)).expect("read assess response");
        if resp.status == 503 {
            // Backpressure: honour Retry-After like a production client.
            std::thread::sleep(Duration::from_millis(100));
            continue;
        }
        assert_eq!(resp.status, 200, "{}", resp.body_text());
        return resp;
    }
}

/// `n` requests over ONE persistent connection; returns per-request
/// latencies. Panics if the server closes early (the bench stays under
/// the request cap).
fn keepalive_session(addr: SocketAddr, body: &str, n: usize) -> Vec<f64> {
    let mut stream = TcpStream::connect(addr).expect("connect to bench server");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let wire = http::encode_request("POST", "/assess", &[], body.as_bytes());
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let t0 = Instant::now();
        stream.write_all(&wire).expect("send assess request");
        let resp = http::read_response(&mut reader).expect("read assess response");
        assert_eq!(
            resp.status,
            200,
            "keep-alive request {i}: {}",
            resp.body_text()
        );
        out.push(t0.elapsed().as_secs_f64() * 1000.0);
        assert_eq!(
            resp.header("connection"),
            Some("keep-alive"),
            "request {i} must ride the persistent connection"
        );
    }
    out
}

/// One non-retrying request: returns the status (200 or 503) — the
/// saturation probe must *count* rejections, not wait them out.
fn probe(addr: SocketAddr, body: &str) -> u16 {
    let mut stream = TcpStream::connect(addr).expect("connect to saturation server");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
        .write_all(&http::encode_request(
            "POST",
            "/assess",
            &[],
            body.as_bytes(),
        ))
        .expect("send probe");
    http::read_response(&mut BufReader::new(stream))
        .expect("read probe response")
        .status
}

fn quantiles(latencies: &mut [f64]) -> (f64, f64) {
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let q = |q: f64| {
        let idx = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len()) - 1;
        latencies[idx]
    };
    (q(0.50), q(0.99))
}

/// Tail latencies for `clients` concurrent clients making
/// `REQUESTS_PER_CLIENT` requests each, either over one persistent
/// connection per client or a fresh connection per request.
fn concurrent_latencies(addr: SocketAddr, body: &str, keepalive: bool) -> (f64, f64) {
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONCURRENT_CLIENTS)
            .map(|_| {
                scope.spawn(move || {
                    if keepalive {
                        keepalive_session(addr, body, REQUESTS_PER_CLIENT)
                    } else {
                        let mut mine = Vec::with_capacity(REQUESTS_PER_CLIENT);
                        for _ in 0..REQUESTS_PER_CLIENT {
                            let t0 = Instant::now();
                            let _ = post_assess(addr, body);
                            mine.push(t0.elapsed().as_secs_f64() * 1000.0);
                        }
                        mine
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    quantiles(&mut latencies)
}

fn main() {
    let out_path = std::env::args()
        .skip(1)
        .find(|a| a.ends_with(".json"))
        .unwrap_or_else(|| "BENCH_serve.json".to_string());
    let gate_path = format!("{}_gate.json", out_path.trim_end_matches(".json"));

    // Materialise the corpus: the daemon ingests from a directory.
    let corpus_root =
        std::env::temp_dir().join(format!("adsafe-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&corpus_root);
    let files = generate(&ApolloSpec::test_scale());
    for f in &files {
        let path = corpus_root.join(&f.path);
        std::fs::create_dir_all(path.parent().expect("corpus paths have parents"))
            .expect("create corpus dirs");
        std::fs::write(path, &f.text).expect("write corpus file");
    }
    eprintln!(
        "serve_latency: corpus of {} files at {}",
        files.len(),
        corpus_root.display()
    );

    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        handlers: 4,
        queue_capacity: 2 * CONCURRENT_CLIENTS,
        // Room for a client's whole session plus slack; the bench must
        // never trip its own cap.
        keep_alive_max: 4 * REQUESTS_PER_CLIENT,
        ..ServeConfig::default()
    })
    .expect("bind bench server");
    let addr = server.addr();
    let body = format!("{{\"dir\":\"{}\"}}", corpus_root.display());

    // Cold: first request parses everything.
    let t0 = Instant::now();
    let cold = post_assess(addr, &body);
    let cold_ms = t0.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(
        cold.header("x-adsafe-cache-hits"),
        Some("0"),
        "first request must be cold"
    );

    // Warm, fresh connection per request: pays connect + teardown.
    let mut warm_close_ms = f64::MAX;
    for _ in 0..WARM_RUNS {
        let t0 = Instant::now();
        let warm = post_assess(addr, &body);
        warm_close_ms = warm_close_ms.min(t0.elapsed().as_secs_f64() * 1000.0);
        assert_eq!(
            warm.header("x-adsafe-cache-hits"),
            Some(files.len().to_string().as_str()),
            "repeat requests must be fully warm"
        );
        assert_eq!(
            warm.body, cold.body,
            "cold and warm reports must be byte-identical"
        );
    }

    // Warm, keep-alive: the same requests down one connection.
    let warm_keepalive_ms = keepalive_session(addr, &body, WARM_RUNS)
        .into_iter()
        .fold(f64::MAX, f64::min);

    // Tail latency under concurrency, both connection disciplines.
    let (close_p50_ms, close_p99_ms) = concurrent_latencies(addr, &body, false);
    let (ka_p50_ms, ka_p99_ms) = concurrent_latencies(addr, &body, true);
    let keepalive_reuses = adsafe::trace::counter("serve.keepalive.reuses").get();

    let stats = server.stop();

    // Saturation: a deliberately small daemon (1 handler, queue of 4)
    // and growing one-shot bursts until the shed path rejects — the
    // committed `rejected_503` characterises where backpressure starts.
    let sat_server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        handlers: 1,
        queue_capacity: 4,
        ..ServeConfig::default()
    })
    .expect("bind saturation server");
    let sat_addr = sat_server.addr();
    let _ = probe(sat_addr, &body); // warm its store so probes are uniform
    let mut saturation_clients = 0usize;
    let mut rejected_503 = 0usize;
    for burst in [2usize, 4, 8, 16, 32] {
        let rejected: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..burst)
                .map(|_| scope.spawn(|| u32::from(probe(sat_addr, &body) == 503)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread") as usize)
                .sum()
        });
        if rejected > 0 {
            saturation_clients = burst;
            rejected_503 = rejected;
            break;
        }
    }
    sat_server.stop();
    let _ = std::fs::remove_dir_all(&corpus_root);

    let json = format!(
        "{{\n  \"schema\": \"adsafe-bench-serve/2\",\n  \"files\": {},\n  \
         \"cold_ms\": {cold_ms:.2},\n  \
         \"warm_close_ms\": {warm_close_ms:.2},\n  \
         \"warm_keepalive_ms\": {warm_keepalive_ms:.2},\n  \
         \"concurrent_clients\": {CONCURRENT_CLIENTS},\n  \
         \"requests\": {},\n  \
         \"close\": {{\"p50_ms\": {close_p50_ms:.2}, \"p99_ms\": {close_p99_ms:.2}}},\n  \
         \"keepalive\": {{\"p50_ms\": {ka_p50_ms:.2}, \"p99_ms\": {ka_p99_ms:.2}}},\n  \
         \"keepalive_reuses\": {keepalive_reuses},\n  \
         \"saturation\": {{\"clients\": {saturation_clients}, \"rejected_503\": {rejected_503}}}\n}}\n",
        files.len(),
        stats.requests,
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("serve_latency: cannot write {out_path}: {e}");
        std::process::exit(3);
    }

    // The gate twin: stable latency headlines as pipeline/1 phases so
    // `adsafe trace-compare` applies its 2× comparator unchanged. The
    // p99 tails and the close-mode quantiles stay out of the gate —
    // single spiky requests under full concurrency swing them well
    // past any honest noise floor — but remain in the rich document.
    let gate = adsafe::trace::bench::BenchBaseline {
        phases: vec![
            ("serve.cold".to_string(), cold_ms),
            ("serve.warm.close".to_string(), warm_close_ms),
            ("serve.warm.keepalive".to_string(), warm_keepalive_ms),
            ("serve.p50.keepalive".to_string(), ka_p50_ms),
        ],
        total_ms: cold_ms + warm_close_ms + warm_keepalive_ms + ka_p50_ms,
        counters: vec![
            ("files".to_string(), files.len() as u64),
            ("requests".to_string(), stats.requests),
            ("keepalive_reuses".to_string(), keepalive_reuses),
            ("saturation_clients".to_string(), saturation_clients as u64),
            ("rejected_503".to_string(), rejected_503 as u64),
        ],
    };
    if let Err(e) = std::fs::write(&gate_path, gate.to_json()) {
        eprintln!("serve_latency: cannot write {gate_path}: {e}");
        std::process::exit(3);
    }
    print!("{json}");
    eprintln!("serve_latency: baseline written to {out_path}, gate to {gate_path}");
}
