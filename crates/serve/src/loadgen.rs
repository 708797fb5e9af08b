//! `adsafe loadgen`: a keep-alive load driver for the daemon.
//!
//! N concurrent clients each hold one persistent connection and pump
//! `POST /assess` requests at a target daemon (an external `--addr`,
//! or an in-process [`Server`] the driver spins up over the given
//! corpus). Per-request service latencies land in one shared
//! [`adsafe_trace::Histogram`] and are reported as interpolated
//! p50/p99/p999 estimates ([`HistogramSnapshot::quantile_estimate`]
//! — the same estimator `/metrics` and `adsafe top` use), alongside
//! the 503 saturation knee: growing one-shot bursts against a
//! deliberately small daemon (1 handler, queue of 4) until the shed
//! path first rejects. The whole run serialises as `BENCH_load.json`
//! (schema `adsafe-bench-load/1`).
//!
//! A client honours backpressure the way a production caller would: a
//! `503` is counted, the `Retry-After` hint is respected (clamped for
//! test speed), and the request is retried on a fresh connection.

use crate::http;
use crate::{ServeConfig, Server};
use adsafe_trace::{Histogram, HistogramSnapshot};
use std::io::{BufReader, Write as _};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Tuning for one [`run_loadgen`] campaign.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Corpus directory the assessments run over.
    pub corpus: PathBuf,
    /// Target daemon; `None` starts an in-process server over the
    /// corpus (4 handlers, queue sized to the client count).
    pub addr: Option<String>,
    /// Concurrent keep-alive clients.
    pub clients: usize,
    /// Requests per client.
    pub requests: usize,
    /// Pipeline workers for the in-process server (`0` = auto).
    pub jobs: usize,
    /// Skip the saturation-knee probe (the knee needs its own small
    /// in-process daemon, so it only runs when `addr` is `None`).
    pub skip_knee: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            corpus: PathBuf::new(),
            addr: None,
            clients: 8,
            requests: 8,
            jobs: 0,
            skip_knee: false,
        }
    }
}

/// What one campaign measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Concurrent clients.
    pub clients: usize,
    /// Requests per client.
    pub requests_per_client: usize,
    /// Successful (200) requests measured.
    pub completed: u64,
    /// 503 rejections absorbed (and retried) during the campaign.
    pub rejected_503: u64,
    /// Latency histogram of the successful requests (µs).
    pub latency: HistogramSnapshot,
    /// Burst size at which the shed path first rejected (0 = the probe
    /// never saw a 503, or the knee was skipped).
    pub knee_clients: usize,
    /// Rejections inside that first shedding burst.
    pub knee_rejected: u64,
}

impl LoadReport {
    /// Serialises the report as the `adsafe-bench-load/1` document.
    pub fn to_json(&self) -> String {
        let q = |p: f64| self.latency.quantile_estimate(p) as f64 / 1000.0;
        format!(
            "{{\n  \"schema\": \"adsafe-bench-load/1\",\n  \
             \"clients\": {},\n  \
             \"requests_per_client\": {},\n  \
             \"completed\": {},\n  \
             \"rejected_503\": {},\n  \
             \"p50_ms\": {:.2},\n  \"p99_ms\": {:.2},\n  \"p999_ms\": {:.2},\n  \
             \"saturation\": {{\"clients\": {}, \"rejected_503\": {}}}\n}}\n",
            self.clients,
            self.requests_per_client,
            self.completed,
            self.rejected_503,
            q(0.50),
            q(0.99),
            q(0.999),
            self.knee_clients,
            self.knee_rejected,
        )
    }
}

/// One keep-alive client: pumps `n` requests, reconnecting after a
/// 503, a server-side close, or an I/O hiccup. Returns `Err` only
/// after exhausting its failure budget (a daemon that vanished).
fn client_session(
    addr: &str,
    body: &str,
    n: usize,
    hist: &Histogram,
    rejected: &AtomicU64,
) -> Result<(), String> {
    let mut remaining = n;
    let mut failures = 0u32;
    while remaining > 0 {
        if failures > 50 {
            return Err(format!(
                "client gave up after {failures} connection failures"
            ));
        }
        let Ok(mut stream) = TcpStream::connect(addr) else {
            failures += 1;
            std::thread::sleep(Duration::from_millis(20));
            continue;
        };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
        let Ok(read_half) = stream.try_clone() else {
            failures += 1;
            continue;
        };
        let mut reader = BufReader::new(read_half);
        let wire = http::encode_request("POST", "/assess", &[], body.as_bytes());
        // Pump requests down this connection until it ends.
        loop {
            let t0 = std::time::Instant::now();
            if stream.write_all(&wire).is_err() {
                failures += 1;
                break;
            }
            let resp = match http::read_response(&mut reader) {
                Ok(r) => r,
                Err(_) => {
                    failures += 1;
                    break;
                }
            };
            if resp.status == 503 {
                rejected.fetch_add(1, Ordering::Relaxed);
                // Honour Retry-After like a production client, clamped
                // so a test-scale campaign stays fast.
                let hint = resp
                    .header("retry-after")
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(1);
                std::thread::sleep(Duration::from_millis((hint * 50).min(500)));
                break;
            }
            if resp.status != 200 {
                return Err(format!(
                    "unexpected status {}: {}",
                    resp.status,
                    resp.body_text()
                ));
            }
            failures = 0;
            hist.record(t0.elapsed().as_micros() as u64);
            remaining -= 1;
            if remaining == 0 {
                return Ok(());
            }
            if resp.header("connection") != Some("keep-alive") {
                break; // server is closing (cap reached / draining)
            }
        }
    }
    Ok(())
}

/// One non-retrying probe: returns the status (the knee must *count*
/// rejections, not wait them out).
fn probe(addr: &str, body: &str) -> Result<u16, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("probe connect: {e}"))?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    stream
        .write_all(&http::encode_request(
            "POST",
            "/assess",
            &[("Connection", "close")],
            body.as_bytes(),
        ))
        .map_err(|e| format!("probe send: {e}"))?;
    http::read_response(&mut BufReader::new(stream))
        .map(|r| r.status)
        .map_err(|e| format!("probe read: {e:?}"))
}

/// Runs one campaign: warm the target, fan out the keep-alive clients,
/// then (in-process mode) find the 503 knee against a small saturation
/// daemon.
pub fn run_loadgen(cfg: &LoadgenConfig) -> Result<LoadReport, String> {
    if !cfg.corpus.is_dir() {
        return Err(format!("`{}` is not a directory", cfg.corpus.display()));
    }
    if cfg.clients == 0 || cfg.requests == 0 {
        return Err("need at least 1 client and 1 request per client".into());
    }
    let body = format!("{{\"dir\":\"{}\"}}", cfg.corpus.display());

    // Target: external daemon, or an in-process server sized so the
    // campaign measures latency rather than its own queue cap.
    let own_server = match &cfg.addr {
        Some(_) => None,
        None => Some(
            Server::start(ServeConfig {
                addr: "127.0.0.1:0".into(),
                jobs: cfg.jobs,
                handlers: 4,
                queue_capacity: (2 * cfg.clients).max(32),
                keep_alive_max: 0,
                ..ServeConfig::default()
            })
            .map_err(|e| format!("cannot start in-process server: {e}"))?,
        ),
    };
    let addr = match &cfg.addr {
        Some(a) => a.clone(),
        None => own_server
            .as_ref()
            .expect("started above")
            .addr()
            .to_string(),
    };

    // Warm: the first assessment parses the corpus; every measured
    // request after it should be store-warm.
    match probe(&addr, &body)? {
        200 | 503 => {}
        s => return Err(format!("warm-up request answered {s}")),
    }

    let hist = Histogram::default();
    let rejected = AtomicU64::new(0);
    let errors: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|_| {
                let (addr, body) = (addr.as_str(), body.as_str());
                let (hist, rejected) = (&hist, &rejected);
                scope.spawn(move || client_session(addr, body, cfg.requests, hist, rejected))
            })
            .collect();
        handles
            .into_iter()
            .filter_map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client panicked".into()))
                    .err()
            })
            .collect()
    });
    if let Some(e) = errors.first() {
        return Err(format!("{} client(s) failed; first: {e}", errors.len()));
    }
    if let Some(s) = own_server {
        s.stop();
    }

    // The knee: growing one-shot bursts against a deliberately tiny
    // daemon until backpressure first rejects. External daemons are
    // left alone — deliberately saturating production is an opt-in
    // a load *measurement* tool should not make.
    let mut knee_clients = 0usize;
    let mut knee_rejected = 0u64;
    if cfg.addr.is_none() && !cfg.skip_knee {
        let sat = Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            jobs: 1,
            handlers: 1,
            queue_capacity: 4,
            ..ServeConfig::default()
        })
        .map_err(|e| format!("cannot start saturation server: {e}"))?;
        let sat_addr = sat.addr().to_string();
        let _ = probe(&sat_addr, &body)?; // warm its store
        for burst in [2usize, 4, 8, 16, 32] {
            let rejections: u64 = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..burst)
                    .map(|_| {
                        let (a, b) = (sat_addr.as_str(), body.as_str());
                        scope.spawn(move || u64::from(probe(a, b) == Ok(503)))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap_or(0)).sum()
            });
            if rejections > 0 {
                knee_clients = burst;
                knee_rejected = rejections;
                break;
            }
        }
        sat.stop();
    }

    let latency = hist.snapshot();
    Ok(LoadReport {
        clients: cfg.clients,
        requests_per_client: cfg.requests,
        completed: latency.count,
        rejected_503: rejected.load(Ordering::Relaxed),
        latency,
        knee_clients,
        knee_rejected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_serialises_quantile_estimates() {
        let hist = Histogram::default();
        for i in 0..100 {
            hist.record(4096 + i * 40); // bucket 13: [4096, 8191]
        }
        let report = LoadReport {
            clients: 4,
            requests_per_client: 25,
            completed: 100,
            rejected_503: 3,
            latency: hist.snapshot(),
            knee_clients: 8,
            knee_rejected: 2,
        };
        let json = report.to_json();
        let doc = adsafe_trace::json::Json::parse(&json).expect("report is valid JSON");
        assert_eq!(
            doc.get("schema").and_then(|v| v.as_str()),
            Some("adsafe-bench-load/1")
        );
        assert_eq!(doc.get("completed").and_then(|v| v.as_f64()), Some(100.0));
        let p50 = doc.get("p50_ms").and_then(|v| v.as_f64()).unwrap();
        let p999 = doc.get("p999_ms").and_then(|v| v.as_f64()).unwrap();
        // Interpolated estimates: inside the bucket and ordered — the
        // bound answer would pin both to 8.191ms.
        assert!(p50 > 4.0 && p50 < 8.2, "p50 = {p50}");
        assert!(p999 > p50 && p999 < 8.2, "p999 = {p999}");
        let sat = doc.get("saturation").unwrap();
        assert_eq!(sat.get("clients").and_then(|v| v.as_f64()), Some(8.0));
    }

    #[test]
    fn rejects_bad_config() {
        let cfg = LoadgenConfig {
            corpus: PathBuf::from("/no/such/dir"),
            ..Default::default()
        };
        assert!(run_loadgen(&cfg).is_err());
        let cfg = LoadgenConfig {
            corpus: std::env::temp_dir(),
            clients: 0,
            ..Default::default()
        };
        assert!(run_loadgen(&cfg).is_err());
    }
}
