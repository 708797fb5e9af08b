//! `adsafe top`: a polling terminal dashboard over a live daemon.
//!
//! Zero dependencies: the client rides the crate's own [`http`] codec,
//! the redraw is a plain ANSI clear (`ESC[2J ESC[H`), and the data
//! sources are the two endpoints every daemon already serves —
//! `GET /metrics` (the stable `adsafe-metrics/1` text dump) and
//! `GET /healthz`. Rendering is a pure function over two parsed
//! snapshots ([`render_dashboard`]), so the frame layout is unit-
//! testable without a socket; [`run_top`] owns the fetch/sleep loop.

use crate::http;
use adsafe_trace::json::Json;
use std::collections::BTreeMap;
use std::io::{BufReader, Write as _};
use std::net::TcpStream;
use std::time::Duration;

/// One parsed `/metrics` text dump.
#[derive(Debug, Default, Clone)]
pub struct MetricsSnapshot {
    /// Counter name (full registry key, labels included) → value.
    pub counters: BTreeMap<String, u64>,
    /// Gauge name → level.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram lines in dump order.
    pub hists: Vec<HistLine>,
}

/// One `hist` line of the `/metrics` text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistLine {
    /// Full registry key, labels included.
    pub name: String,
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Interpolated quantile estimates as rendered by the daemon.
    pub p50: u64,
    /// 99th percentile estimate.
    pub p99: u64,
    /// 99.9th percentile estimate.
    pub p999: u64,
}

/// Parses the `adsafe-metrics/1` text format. Unknown line shapes are
/// skipped, not errors — the dashboard must keep working against a
/// daemon one format revision ahead.
pub fn parse_metrics_text(text: &str) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("counter ") {
            if let Some((name, v)) = rest.rsplit_once(' ') {
                if let Ok(v) = v.parse() {
                    snap.counters.insert(name.to_string(), v);
                }
            }
        } else if let Some(rest) = line.strip_prefix("gauge ") {
            if let Some((name, v)) = rest.rsplit_once(' ') {
                if let Ok(v) = v.parse() {
                    snap.gauges.insert(name.to_string(), v);
                }
            }
        } else if let Some(rest) = line.strip_prefix("hist ") {
            // `hist <name> count C sum S p50 A p99 B p999 D` — split at
            // the ` count ` marker so a labeled name survives intact.
            let Some((name, nums)) = rest.split_once(" count ") else {
                continue;
            };
            let fields: Vec<&str> = nums.split_whitespace().collect();
            let num = |key: &str| -> Option<u64> {
                fields
                    .iter()
                    .position(|f| *f == key)
                    .and_then(|i| fields.get(i + 1))
                    .and_then(|v| v.parse().ok())
            };
            let (Some(sum), Some(p50), Some(p99), Some(p999)) =
                (num("sum"), num("p50"), num("p99"), num("p999"))
            else {
                continue;
            };
            let Some(count) = fields.first().and_then(|v| v.parse().ok()) else {
                continue;
            };
            snap.hists.push(HistLine {
                name: name.to_string(),
                count,
                sum,
                p50,
                p99,
                p999,
            });
        }
    }
    snap
}

/// Splits a labeled registry key into its base name and label pairs.
/// `serve.latency{endpoint="assess",status="200"}` →
/// `("serve.latency", [("endpoint","assess"), ("status","200")])`.
/// Escapes are left as-is (the dashboard's labels never contain them).
pub fn split_labels(key: &str) -> (&str, Vec<(String, String)>) {
    let Some((base, rest)) = key.split_once('{') else {
        return (key, Vec::new());
    };
    let inner = rest.trim_end_matches('}');
    let mut labels = Vec::new();
    for pair in inner.split(',') {
        if let Some((k, v)) = pair.split_once("=\"") {
            labels.push((k.to_string(), v.trim_end_matches('"').to_string()));
        }
    }
    (base, labels)
}

/// Formats a byte count with a short unit for the memory panel.
fn fmt_bytes(b: u64) -> String {
    match b {
        0..=1023 => format!("{b}B"),
        1024..=1048575 => format!("{:.1}KiB", b as f64 / 1024.0),
        1048576..=1073741823 => format!("{:.1}MiB", b as f64 / 1048576.0),
        _ => format!("{:.2}GiB", b as f64 / 1073741824.0),
    }
}

/// Formats µs as a human latency (`850µs`, `12.4ms`, `3.21s`).
fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    } else if us >= 1_000 {
        format!("{:.1}ms", us as f64 / 1_000.0)
    } else {
        format!("{us}µs")
    }
}

/// Renders one dashboard frame (no ANSI codes — the caller owns the
/// clear/redraw). `prev` with the seconds since it was taken enables
/// the req/s rate; `health` is the parsed `/healthz` document.
pub fn render_dashboard(
    addr: &str,
    cur: &MetricsSnapshot,
    prev: Option<(&MetricsSnapshot, f64)>,
    health: &Json,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(2048);
    let counter = |name: &str| cur.counters.get(name).copied().unwrap_or(0);
    let health_num = |key: &str| {
        health
            .get(key)
            .and_then(Json::as_f64)
            .map_or(0, |v| v as u64)
    };
    let status = health
        .get("status")
        .and_then(Json::as_str)
        .unwrap_or("unreachable");
    let requests = counter("serve.requests");
    let rate = prev
        .filter(|(_, secs)| *secs > 0.0)
        .map(|(p, secs)| {
            let before = p.counters.get("serve.requests").copied().unwrap_or(0);
            requests.saturating_sub(before) as f64 / secs
        })
        .map_or(String::new(), |r| format!("  ({r:.1}/s)"));
    let _ = writeln!(
        out,
        "adsafe top — {addr}   status {status}   requests {requests}{rate}"
    );
    let _ = writeln!(
        out,
        "queue {}/{}   keep-alive reuses {}   recorder {}/{} (evicted {})",
        cur.gauges.get("pool.queue_depth").copied().unwrap_or(0),
        health_num("queue_capacity"),
        counter("serve.keepalive.reuses"),
        health_num("recorder_len"),
        health_num("recorder_cap"),
        health_num("recorder_evicted"),
    );
    let _ = writeln!(
        out,
        "store {} entries, {} bytes (budget {}), evictions {}",
        health_num("store_entries"),
        health_num("store_bytes"),
        health_num("store_budget"),
        counter("store.evictions"),
    );

    // Memory panel: the allocator gauges the daemon publishes on
    // /metrics (all zero until a binary with a CountingAlloc serves
    // an assessment — then live/peak plus the per-phase breakdown).
    let mem_live = cur.gauges.get("mem.live_bytes").copied().unwrap_or(0);
    let mem_peak = cur.gauges.get("mem.peak_bytes").copied().unwrap_or(0);
    if mem_live > 0 || mem_peak > 0 {
        let _ = writeln!(
            out,
            "mem live {}   peak {}",
            fmt_bytes(mem_live),
            fmt_bytes(mem_peak)
        );
        let phases: Vec<String> = cur
            .gauges
            .iter()
            .filter(|(k, _)| k.starts_with("mem.phase{"))
            .map(|(k, v)| {
                let (_, labels) = split_labels(k);
                let phase = labels
                    .iter()
                    .find(|(n, _)| n == "phase")
                    .map_or("?".to_string(), |(_, p)| p.clone());
                format!("{phase}={}", fmt_bytes(*v))
            })
            .collect();
        if !phases.is_empty() {
            let _ = writeln!(out, "mem by phase: {}", phases.join("  "));
        }
    }

    // Status code mix and chaos-visible fault counters, enumerated by
    // label/prefix because both families are created dynamically.
    let codes: Vec<String> = cur
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("serve.status{"))
        .map(|(k, v)| {
            let (_, labels) = split_labels(k);
            let code = labels
                .iter()
                .find(|(n, _)| n == "code")
                .map_or("?".to_string(), |(_, c)| c.clone());
            format!("{code}={v}")
        })
        .collect();
    if !codes.is_empty() {
        let _ = writeln!(out, "status codes: {}", codes.join("  "));
    }
    let faults: Vec<String> = cur
        .counters
        .iter()
        .filter(|(k, v)| k.starts_with("chaos.") && **v > 0)
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    if !faults.is_empty() {
        let _ = writeln!(out, "chaos faults: {}", faults.join("  "));
    }

    // Per-endpoint×status SLO table from the labeled latency series.
    let mut rows: Vec<(String, String, &HistLine)> = cur
        .hists
        .iter()
        .filter_map(|h| {
            let (base, labels) = split_labels(&h.name);
            if base != "serve.latency" {
                return None;
            }
            let get = |name: &str| {
                labels
                    .iter()
                    .find(|(k, _)| k == name)
                    .map_or("?".to_string(), |(_, v)| v.clone())
            };
            Some((get("endpoint"), get("status"), h))
        })
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
    if !rows.is_empty() {
        let _ = writeln!(
            out,
            "\n{:<12} {:>6} {:>8} {:>9} {:>9} {:>9}",
            "endpoint", "status", "count", "p50", "p99", "p999"
        );
        for (endpoint, status, h) in rows {
            let _ = writeln!(
                out,
                "{endpoint:<12} {status:>6} {:>8} {:>9} {:>9} {:>9}",
                h.count,
                fmt_us(h.p50),
                fmt_us(h.p99),
                fmt_us(h.p999),
            );
        }
    }
    if let Some(qw) = cur.hists.iter().find(|h| h.name == "pool.queue_wait") {
        let _ = writeln!(
            out,
            "\npool.queue_wait: count {}  p50 {}  p99 {}  p999 {}",
            qw.count,
            fmt_us(qw.p50),
            fmt_us(qw.p99),
            fmt_us(qw.p999),
        );
    }
    out
}

/// One `GET` over a fresh connection; 200 bodies only.
pub fn fetch(addr: &str, path: &str) -> Result<String, String> {
    let mut stream =
        TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .map_err(|e| format!("socket setup: {e}"))?;
    stream
        .write_all(&http::encode_request(
            "GET",
            path,
            &[("Connection", "close")],
            b"",
        ))
        .map_err(|e| format!("cannot send GET {path}: {e}"))?;
    let resp = http::read_response(&mut BufReader::new(stream))
        .map_err(|e| format!("bad response for GET {path}: {e:?}"))?;
    if resp.status != 200 {
        return Err(format!("GET {path} answered {}", resp.status));
    }
    Ok(resp.body_text())
}

/// The polling loop behind `adsafe top`: fetch `/metrics` + `/healthz`
/// every `interval`, clear the terminal, render. `iterations` of 0
/// polls until the process is killed; a finite count (used by CI and
/// tests) stops after that many frames. Errors on the *first* poll are
/// fatal (the daemon is unreachable); later errors render as a banner
/// and the loop keeps trying, so a daemon restart does not kill an
/// attached dashboard.
pub fn run_top(addr: &str, interval: Duration, iterations: u64) -> Result<(), String> {
    let mut prev: Option<MetricsSnapshot> = None;
    let mut frame: u64 = 0;
    loop {
        let fetched = fetch(addr, "/metrics").and_then(|m| fetch(addr, "/healthz").map(|h| (m, h)));
        match fetched {
            Ok((metrics_text, health_text)) => {
                let cur = parse_metrics_text(&metrics_text);
                let health =
                    Json::parse(&health_text).map_err(|e| format!("bad /healthz JSON: {e}"))?;
                let dash = render_dashboard(
                    addr,
                    &cur,
                    prev.as_ref().map(|p| (p, interval.as_secs_f64())),
                    &health,
                );
                // Clear screen + home, then the frame.
                print!("\x1b[2J\x1b[H{dash}");
                let _ = std::io::stdout().flush();
                prev = Some(cur);
            }
            Err(e) if frame == 0 => return Err(e),
            Err(e) => {
                println!("\x1b[2J\x1b[Hadsafe top — {addr}   [poll failed: {e}]");
                let _ = std::io::stdout().flush();
            }
        }
        frame += 1;
        if iterations != 0 && frame >= iterations {
            return Ok(());
        }
        std::thread::sleep(interval);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DUMP: &str = "\
# adsafe-metrics/1
counter serve.keepalive.reuses 12
counter serve.requests 40
counter serve.status{code=\"200\"} 38
counter serve.status{code=\"503\"} 2
counter store.evictions 1
gauge pool.queue_depth 3
gauge mem.live_bytes 10485760
gauge mem.peak_bytes 47185920
gauge mem.phase{phase=\"parse\"} 31457280
gauge mem.phase{phase=\"checks\"} 2097152
hist pool.queue_wait count 40 sum 80000 p50 1500 p99 4000 p999 4100
hist serve.latency{endpoint=\"assess\",status=\"200\"} count 38 sum 266000 p50 6500 p99 12000 p999 12800
hist serve.request_us count 40 sum 280000 p50 6600 p99 12500 p999 13000
";

    #[test]
    fn parses_counters_gauges_and_labeled_hists() {
        let snap = parse_metrics_text(DUMP);
        assert_eq!(snap.counters["serve.requests"], 40);
        assert_eq!(snap.counters["serve.status{code=\"503\"}"], 2);
        assert_eq!(snap.gauges["pool.queue_depth"], 3);
        assert_eq!(snap.hists.len(), 3);
        let lat = &snap.hists[1];
        assert_eq!(
            lat.name,
            "serve.latency{endpoint=\"assess\",status=\"200\"}"
        );
        assert_eq!((lat.count, lat.p50, lat.p999), (38, 6500, 12800));
    }

    #[test]
    fn split_labels_extracts_pairs() {
        let (base, labels) = split_labels("serve.latency{endpoint=\"assess\",status=\"200\"}");
        assert_eq!(base, "serve.latency");
        assert_eq!(
            labels,
            vec![
                ("endpoint".to_string(), "assess".to_string()),
                ("status".to_string(), "200".to_string())
            ]
        );
        assert_eq!(split_labels("plain.name"), ("plain.name", Vec::new()));
    }

    #[test]
    fn dashboard_renders_slo_rows_and_rates() {
        let cur = parse_metrics_text(DUMP);
        let mut before = cur.clone();
        before.counters.insert("serve.requests".to_string(), 30);
        let health = Json::parse(
            "{\"status\":\"ok\",\"queue_capacity\":32,\"store_entries\":5,\
             \"store_bytes\":1000,\"store_budget\":0,\"recorder_len\":40,\
             \"recorder_cap\":256,\"recorder_evicted\":0}",
        )
        .unwrap();
        let dash = render_dashboard("127.0.0.1:7026", &cur, Some((&before, 2.0)), &health);
        assert!(dash.contains("status ok"), "{dash}");
        assert!(dash.contains("requests 40  (5.0/s)"), "{dash}");
        assert!(dash.contains("queue 3/32"), "{dash}");
        assert!(dash.contains("recorder 40/256"), "{dash}");
        assert!(dash.contains("mem live 10.0MiB   peak 45.0MiB"), "{dash}");
        // Gauge keys sort alphabetically, so checks precedes parse.
        assert!(
            dash.contains("mem by phase: checks=2.0MiB  parse=30.0MiB"),
            "{dash}"
        );
        assert!(dash.contains("status codes: 200=38  503=2"), "{dash}");
        assert!(dash.contains("assess"), "{dash}");
        assert!(dash.contains("6.5ms"), "{dash}");
        assert!(dash.contains("12.8ms"), "{dash}");
        assert!(dash.contains("pool.queue_wait: count 40"), "{dash}");
        assert!(!dash.contains('\x1b'), "frame itself carries no ANSI codes");
    }

    #[test]
    fn dashboard_survives_missing_series() {
        let empty = MetricsSnapshot::default();
        let health = Json::parse("{\"status\":\"ok\"}").unwrap();
        let dash = render_dashboard("x", &empty, None, &health);
        assert!(dash.contains("requests 0"), "{dash}");
        assert!(
            !dash.contains("endpoint"),
            "no SLO table without latency series"
        );
        assert!(
            !dash.contains("mem live"),
            "no memory panel without allocator gauges"
        );
    }
}
