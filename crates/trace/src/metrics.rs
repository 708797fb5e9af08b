//! Global registry of named counters, gauges, and log₂-scale histograms.
//!
//! Counters are monotonic `AtomicU64`s: increments from any number of
//! worker threads are lock-free and never lose updates. Gauges are
//! settable `AtomicU64`s for instantaneous levels (queue depths, open
//! connections). The registry itself is a mutex-guarded map consulted
//! only on first lookup of a name; callers on hot paths hold the
//! returned [`Counter`]/[`Gauge`] handle.
//!
//! Metric names follow the `phase.component.metric` convention
//! (`parse.lexer.tokens`, `gpu.launch.barrier_phases`, …); snapshots
//! are returned sorted by name so rendered output is deterministic.
//! [`render_text`] exports the whole registry in a stable line-oriented
//! text format (the `adsafe serve` `/metrics` endpoint's body).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonic counter.
#[derive(Debug)]
pub struct Counter {
    pub(crate) value: AtomicU64,
    /// The registry name, under which per-thread trace scopes
    /// (`span.rs`) total this counter's increments. Registered
    /// counters live as long as the process, so their names do too.
    pub(crate) name: &'static str,
}

impl Counter {
    /// Adds `n` to the process-wide value and to the calling thread's
    /// trace scope, so a run reads back exactly its own increments.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
        crate::span::tally_counter(self.name, n);
    }

    /// Adds 1.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current process-wide value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous level (queue depth, resident entries, open
/// connections): settable, unlike the monotonic [`Counter`].
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the level.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n` to the level.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n` from the level (saturating at zero under races).
    pub fn sub(&self, n: u64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets: values up to 2⁶³ land in a bucket.
pub(crate) const BUCKETS: usize = 64;

/// The log₂ bucket `v` lands in: its bit length (0 for `v == 0`),
/// clamped to the last bucket. Shared with the allocation profiler's
/// per-thread size-class counters (`alloc.rs`).
#[inline]
pub(crate) fn bucket_of(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// A histogram with log₂-scale buckets (bucket *b* counts values whose
/// bit length is *b*, i.e. `2^(b-1) ≤ v < 2^b`; bucket 0 counts zeros).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram. `const` so a histogram can live in a
    /// `static` without lazy initialisation.
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Immutable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (bucket *b* ⇔ bit length *b*).
    pub buckets: [u64; BUCKETS],
    /// Total recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile (`q` in 0..=1).
    /// Log-scale resolution: the answer is exact to within 2×. The
    /// last bucket also absorbs values of bit length > 63, so its
    /// honest bound is `u64::MAX` — which keeps the documented
    /// `quantile_estimate ≤ quantile_bound` invariant when every
    /// sample saturates into it.
    pub fn quantile_bound(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return if b == 0 {
                    0
                } else if b >= BUCKETS - 1 {
                    u64::MAX
                } else {
                    (1u64 << b) - 1
                };
            }
        }
        u64::MAX
    }

    /// The `q`-quantile estimated by linear interpolation *inside* the
    /// log₂ bucket holding it. [`quantile_bound`](Self::quantile_bound)
    /// answers with the bucket's upper bound, which overstates tail
    /// quantiles by up to 2×; this interpolates between the bucket's
    /// bounds by the quantile's rank within the bucket, assuming the
    /// recorded values spread uniformly across it — the estimate every
    /// reported quantile (`/metrics`, `adsafe top`, the load bench)
    /// uses. Always ≥ the bucket's lower bound and ≤ `quantile_bound`.
    pub fn quantile_estimate(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            let before = seen;
            seen += n;
            if seen >= target {
                if b == 0 {
                    return 0;
                }
                let lo = 1u64 << (b - 1);
                // The last bucket also absorbs values of bit length
                // > 63, so its honest upper bound is u64::MAX.
                let hi = if b >= BUCKETS - 1 {
                    u64::MAX
                } else {
                    (1u64 << b) - 1
                };
                // Rank of the target within this bucket, in (0, 1].
                // Saturate: the top bucket's width rounds up to 2⁶³
                // in f64, which would overflow a plain add.
                let frac = (target - before) as f64 / n as f64;
                return lo.saturating_add(((hi - lo) as f64 * frac) as u64).min(hi);
            }
        }
        u64::MAX
    }
}

/// Canonical registry key for a labeled metric: `name{k="v",k2="v2"}`
/// with labels sorted by key and values escaped (`\` → `\\`, `"` →
/// `\"`, newline → `\n` — the Prometheus label-value escapes, so the
/// label block can be re-emitted verbatim in the exposition format).
/// Labeled series live in the same registry as unlabeled ones; the key
/// is the identity, so the same `(name, labels)` always resolves to
/// the same handle. [`render_text`] prints the key verbatim;
/// [`render_prometheus`] splits it back into `name{labels}` samples.
pub fn labeled(name: &str, labels: &[(&str, &str)]) -> String {
    let mut labels: Vec<(&str, &str)> = labels.to_vec();
    labels.sort_by(|a, b| a.0.cmp(b.0));
    let mut out = String::with_capacity(name.len() + labels.len() * 16);
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// The counter named `name`, creating it on first use. Hold the handle
/// on hot paths rather than re-looking it up per increment.
pub fn counter(name: &str) -> Arc<Counter> {
    let mut map = registry()
        .counters
        .lock()
        .expect("counter registry poisoned");
    match map.get(name) {
        Some(c) => Arc::clone(c),
        None => {
            let name: &'static str = Box::leak(name.into());
            let c = Arc::new(Counter {
                value: AtomicU64::new(0),
                name,
            });
            map.insert(name.to_string(), Arc::clone(&c));
            c
        }
    }
}

/// The gauge named `name`, creating it on first use.
pub fn gauge(name: &str) -> Arc<Gauge> {
    let mut map = registry().gauges.lock().expect("gauge registry poisoned");
    match map.get(name) {
        Some(g) => Arc::clone(g),
        None => {
            let g = Arc::new(Gauge::default());
            map.insert(name.to_string(), Arc::clone(&g));
            g
        }
    }
}

/// The histogram named `name`, creating it on first use.
pub fn histogram(name: &str) -> Arc<Histogram> {
    let mut map = registry()
        .histograms
        .lock()
        .expect("histogram registry poisoned");
    match map.get(name) {
        Some(h) => Arc::clone(h),
        None => {
            let h = Arc::new(Histogram::default());
            map.insert(name.to_string(), Arc::clone(&h));
            h
        }
    }
}

/// All counters and their current values, sorted by name.
fn counter_snapshot() -> BTreeMap<String, u64> {
    let map = registry()
        .counters
        .lock()
        .expect("counter registry poisoned");
    map.iter().map(|(k, v)| (k.clone(), v.get())).collect()
}

/// All gauges and their current levels, sorted by name.
pub fn gauge_snapshot() -> BTreeMap<String, u64> {
    let map = registry().gauges.lock().expect("gauge registry poisoned");
    map.iter().map(|(k, v)| (k.clone(), v.get())).collect()
}

/// All histograms' snapshots, sorted by name.
pub fn histogram_snapshot() -> BTreeMap<String, HistogramSnapshot> {
    let map = registry()
        .histograms
        .lock()
        .expect("histogram registry poisoned");
    map.iter().map(|(k, v)| (k.clone(), v.snapshot())).collect()
}

/// Renders the whole registry in a stable text format: one
/// space-separated line per metric, sorted by kind then name, so two
/// snapshots of the same state are byte-identical. Histograms render
/// their count, sum, and interpolated p50/p99/p999 estimates
/// ([`HistogramSnapshot::quantile_estimate`]). Labeled series print
/// their full registry key (`name{k="v"}`) verbatim; unlabeled lines
/// are unchanged from earlier format revisions.
///
/// ```text
/// # adsafe-metrics/1
/// counter cache.hits 12
/// counter serve.status{code="200"} 9
/// gauge pool.queue_depth 3
/// hist serve.request_us count 4 sum 81236 p50 14210 p99 29833 p999 31460
/// ```
pub fn render_text() -> String {
    use std::fmt::Write as _;
    let mut out = String::from("# adsafe-metrics/1\n");
    for (name, v) in counter_snapshot() {
        let _ = writeln!(out, "counter {name} {v}");
    }
    for (name, v) in gauge_snapshot() {
        let _ = writeln!(out, "gauge {name} {v}");
    }
    for (name, h) in histogram_snapshot() {
        let _ = writeln!(
            out,
            "hist {name} count {} sum {} p50 {} p99 {} p999 {}",
            h.count,
            h.sum,
            h.quantile_estimate(0.5),
            h.quantile_estimate(0.99),
            h.quantile_estimate(0.999)
        );
    }
    out
}

/// Splits a registry key into its base name and optional label block
/// (the inner `k="v",…` text, braces stripped). Keys without `{` are
/// fully the base name.
fn split_key(key: &str) -> (&str, Option<&str>) {
    match key.split_once('{') {
        Some((base, rest)) => (base, Some(rest.trim_end_matches('}'))),
        None => (key, None),
    }
}

/// Groups registry entries by base metric name so every labeled series
/// of a family emits under a single `# TYPE` line (Prometheus requires
/// a metric's samples to be contiguous and typed once).
fn group_by_base<V>(entries: BTreeMap<String, V>) -> BTreeMap<String, Vec<(Option<String>, V)>> {
    let mut grouped: BTreeMap<String, Vec<(Option<String>, V)>> = BTreeMap::new();
    for (key, v) in entries {
        let (base, labels) = split_key(&key);
        grouped
            .entry(base.to_string())
            .or_default()
            .push((labels.map(str::to_string), v));
    }
    grouped
}

/// Renders the whole registry in the Prometheus text exposition format
/// (version 0.0.4). Metric names map `phase.component.metric` →
/// `adsafe_phase_component_metric` (every character outside
/// `[a-zA-Z0-9_]` becomes `_`, and everything gains the `adsafe_`
/// prefix). Registry keys built with [`labeled`] re-emit their label
/// block verbatim — only the base name is sanitised — and every series
/// of a family shares one `# TYPE` line. Counters and gauges emit one
/// sample per series; log₂ histograms emit the standard cumulative
/// `_bucket` series (one `le` per non-empty bit-length bucket, upper
/// bound `2^b − 1`, plus `le="+Inf"`), `_sum`, and `_count`, with any
/// series labels ahead of `le`. Output for unlabeled registries is
/// byte-identical to earlier revisions.
pub fn render_prometheus() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (kind, snapshot) in [("counter", counter_snapshot()), ("gauge", gauge_snapshot())] {
        for (base, series) in group_by_base(snapshot) {
            let n = prometheus_name(&base);
            let _ = writeln!(out, "# TYPE {n} {kind}");
            for (labels, v) in series {
                let labels = labels.map(|l| format!("{{{l}}}")).unwrap_or_default();
                let _ = writeln!(out, "{n}{labels} {v}");
            }
        }
    }
    for (base, series) in group_by_base(histogram_snapshot()) {
        let n = prometheus_name(&base);
        let _ = writeln!(out, "# TYPE {n} histogram");
        for (labels, h) in series {
            // A labeled series prefixes its labels ahead of `le`:
            // `name_bucket{endpoint="assess",le="1023"}`.
            let pre = labels
                .as_deref()
                .map(|l| format!("{l},"))
                .unwrap_or_default();
            let suffix = labels
                .as_deref()
                .map(|l| format!("{{{l}}}"))
                .unwrap_or_default();
            let mut cumulative = 0u64;
            for (b, &count) in h.buckets.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                cumulative += count;
                // Bucket b holds values of bit length b: upper bound 2^b−1
                // (bucket 0 holds only zeros, bound 0).
                let le = if b == 0 { 0 } else { (1u64 << b) - 1 };
                let _ = writeln!(out, "{n}_bucket{{{pre}le=\"{le}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{n}_bucket{{{pre}le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{n}_sum{suffix} {}", h.sum);
            let _ = writeln!(out, "{n}_count{suffix} {}", h.count);
        }
    }
    out
}

/// Maps a registry metric name onto the Prometheus grammar.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("adsafe_");
    for c in name.chars() {
        out.push(if c.is_ascii_alphanumeric() || c == '_' {
            c
        } else {
            '_'
        });
    }
    out
}

/// Serialises the tests that write to the process-global registry, so
/// a test rendering it twice never sees another test's writes land in
/// between.
#[cfg(test)]
pub(crate) fn registry_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let _r = registry_lock();
        let c = counter("test.metrics.counter_a");
        let base = c.get();
        c.add(3);
        c.incr();
        assert_eq!(c.get(), base + 4);
        // Same name → same counter.
        assert_eq!(counter("test.metrics.counter_a").get(), base + 4);
    }

    #[test]
    fn concurrent_increments_never_lose_updates() {
        let _r = registry_lock();
        let name = "test.metrics.concurrent";
        let base = counter(name).get();
        let threads = 8;
        let per_thread = 10_000u64;
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                std::thread::spawn(move || {
                    let c = counter(name);
                    for _ in 0..per_thread {
                        c.incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter(name).get(), base + threads as u64 * per_thread);
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        let h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 1030);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[11], 1); // 1024
        assert!(s.mean() > 200.0);
        assert_eq!(s.quantile_bound(0.5), 3);
        assert_eq!(s.quantile_bound(1.0), 2047);
    }

    #[test]
    fn gauges_are_settable_and_saturate() {
        let _r = registry_lock();
        let g = gauge("test.metrics.gauge_a");
        g.set(5);
        assert_eq!(g.get(), 5);
        g.add(3);
        g.sub(2);
        assert_eq!(g.get(), 6);
        g.sub(100);
        assert_eq!(g.get(), 0, "sub saturates at zero");
        // Same name → same gauge.
        assert_eq!(gauge("test.metrics.gauge_a").get(), 0);
    }

    #[test]
    fn render_text_is_stable_and_complete() {
        let _r = registry_lock();
        counter("test.metrics.render_c").add(2);
        gauge("test.metrics.render_g").set(7);
        histogram("test.metrics.render_h").record(100);
        let a = render_text();
        let b = render_text();
        assert_eq!(a, b, "same state renders byte-identically");
        assert!(a.starts_with("# adsafe-metrics/1\n"), "{a}");
        assert!(a.contains("counter test.metrics.render_c 2"), "{a}");
        assert!(a.contains("gauge test.metrics.render_g 7"), "{a}");
        assert!(
            a.lines()
                .any(|l| l.starts_with("hist test.metrics.render_h count ")),
            "{a}"
        );
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let _r = registry_lock();
        counter("test.metrics.prom-c").add(4);
        gauge("test.metrics.prom_g").set(9);
        let h = histogram("test.metrics.prom_h");
        h.record(0);
        h.record(3);
        h.record(3);
        h.record(1000);
        let text = render_prometheus();
        assert_eq!(text, render_prometheus(), "stable across renders");
        // Dots and dashes both map to underscores, with the adsafe_ prefix.
        assert!(
            text.contains("# TYPE adsafe_test_metrics_prom_c counter"),
            "{text}"
        );
        assert!(text.contains("adsafe_test_metrics_prom_c 4"), "{text}");
        assert!(
            text.contains("# TYPE adsafe_test_metrics_prom_g gauge"),
            "{text}"
        );
        assert!(text.contains("adsafe_test_metrics_prom_g 9"), "{text}");
        // Histogram: cumulative buckets at bit-length bounds.
        assert!(
            text.contains("# TYPE adsafe_test_metrics_prom_h histogram"),
            "{text}"
        );
        assert!(
            text.contains("adsafe_test_metrics_prom_h_bucket{le=\"0\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("adsafe_test_metrics_prom_h_bucket{le=\"3\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("adsafe_test_metrics_prom_h_bucket{le=\"1023\"} 4"),
            "{text}"
        );
        assert!(
            text.contains("adsafe_test_metrics_prom_h_bucket{le=\"+Inf\"} 4"),
            "{text}"
        );
        assert!(
            text.contains("adsafe_test_metrics_prom_h_sum 1006"),
            "{text}"
        );
        assert!(
            text.contains("adsafe_test_metrics_prom_h_count 4"),
            "{text}"
        );
        // Cumulative monotonicity across every histogram in the dump.
        let mut last: Option<(String, u64)> = None;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let (metric, rest) = line.split_once("_bucket{").unwrap();
            let v: u64 = rest.split(' ').nth(1).unwrap().parse().unwrap();
            if let Some((m, prev)) = &last {
                if m == metric {
                    assert!(v >= *prev, "cumulative counts must not decrease: {line}");
                }
            }
            last = Some((metric.to_string(), v));
        }
    }

    #[test]
    fn quantile_estimate_interpolates_within_bucket() {
        let h = Histogram::default();
        // 100 values spread across bucket 11 ([1024, 2047]).
        for i in 0..100 {
            h.record(1024 + i * 10);
        }
        let s = h.snapshot();
        let p50 = s.quantile_estimate(0.5);
        let p999 = s.quantile_estimate(0.999);
        // The bound answer collapses everything to 2047; the estimate
        // must sit inside the bucket and order its quantiles.
        assert_eq!(s.quantile_bound(0.5), 2047);
        assert!((1024..=2047).contains(&p50), "p50 = {p50}");
        assert!((1024..=2047).contains(&p999), "p999 = {p999}");
        assert!(p50 < p999, "p50 {p50} must undercut p999 {p999}");
        // Uniform spread: p50 lands near the bucket midpoint.
        assert!((1400..=1700).contains(&p50), "p50 = {p50}");
        // Estimates never exceed the bound.
        for q in [0.5, 0.9, 0.99, 0.999, 1.0] {
            assert!(s.quantile_estimate(q) <= s.quantile_bound(q), "q = {q}");
        }
    }

    #[test]
    fn quantile_estimate_edge_buckets() {
        let empty = Histogram::default().snapshot();
        assert_eq!(empty.quantile_estimate(0.99), 0);
        let h = Histogram::default();
        h.record(0);
        h.record(0);
        assert_eq!(h.snapshot().quantile_estimate(0.99), 0, "zeros stay zero");
        let top = Histogram::default();
        top.record(u64::MAX);
        let est = top.snapshot().quantile_estimate(1.0);
        assert!(est >= 1u64 << 62, "top bucket reaches the u64 range: {est}");
    }

    #[test]
    fn quantile_estimate_single_sample_stays_in_its_bucket() {
        let h = Histogram::default();
        h.record(100); // bucket 7: [64, 127]
        let s = h.snapshot();
        for q in [0.0, 0.5, 0.99, 1.0] {
            let est = s.quantile_estimate(q);
            assert!((64..=127).contains(&est), "q = {q}: {est}");
            assert!(est <= s.quantile_bound(q), "q = {q}");
        }
    }

    #[test]
    fn quantile_estimate_saturated_top_bucket_never_overflows() {
        // Every sample in the open-ended top bucket: interpolation must
        // saturate at u64::MAX rather than wrap (the bucket's f64 width
        // rounds up to 2⁶³).
        let h = Histogram::default();
        for _ in 0..50 {
            h.record(u64::MAX);
        }
        let s = h.snapshot();
        let p50 = s.quantile_estimate(0.5);
        let p999 = s.quantile_estimate(0.999);
        assert!(p50 >= 1u64 << 62, "p50 inside the top bucket: {p50}");
        assert!(p50 <= p999, "quantiles stay ordered: {p50} vs {p999}");
        assert_eq!(s.quantile_estimate(1.0), u64::MAX);
        assert_eq!(s.quantile_bound(1.0), u64::MAX);
    }

    #[test]
    fn quantile_estimate_empty_is_zero_for_all_q() {
        let empty = Histogram::default().snapshot();
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(empty.quantile_estimate(q), 0);
            assert_eq!(empty.quantile_bound(q), 0);
        }
    }

    /// Inverse of [`labeled`]'s value escaping, for the round-trip
    /// property below: parses an `k="v",k2="v2"` block back into pairs.
    fn parse_label_block(block: &str) -> Option<Vec<(String, String)>> {
        let mut out = Vec::new();
        let mut chars = block.chars();
        loop {
            let mut key = String::new();
            loop {
                match chars.next()? {
                    '=' => break,
                    c => key.push(c),
                }
            }
            if chars.next()? != '"' {
                return None;
            }
            let mut val = String::new();
            loop {
                match chars.next()? {
                    '\\' => match chars.next()? {
                        '\\' => val.push('\\'),
                        '"' => val.push('"'),
                        'n' => val.push('\n'),
                        _ => return None, // bare escape: not a valid encoding
                    },
                    '"' => break,
                    c => val.push(c),
                }
            }
            out.push((key, val));
            match chars.next() {
                Some(',') => continue,
                None => return Some(out),
                _ => return None,
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        /// Registry keys must decode back to exactly the label values
        /// they were built from — quotes, backslashes, newlines, and
        /// `{`/`}`/`=`/`,` inside values included — and must not
        /// depend on the caller's label order. A failure here means
        /// the Prometheus exposition emits a corrupt label block.
        #[test]
        fn labeled_round_trips_hostile_values(
            a in "[ -~\n]{0,24}",
            b in r#"["\\x,}]{0,12}"#,
        ) {
            let key = labeled("m", &[("ka", a.as_str()), ("kb", b.as_str())]);
            proptest::prop_assert_eq!(
                labeled("m", &[("kb", b.as_str()), ("ka", a.as_str())]),
                key.clone(),
                "label order must not matter"
            );
            let (base, block) = split_key(&key);
            proptest::prop_assert_eq!(base, "m");
            let parsed = parse_label_block(block.expect("labeled always writes a block"));
            proptest::prop_assert_eq!(
                parsed,
                Some(vec![("ka".to_string(), a), ("kb".to_string(), b)])
            );
        }
    }

    #[test]
    fn labeled_keys_are_canonical_and_escaped() {
        let _r = registry_lock();
        assert_eq!(
            labeled(
                "serve.latency",
                &[("status", "200"), ("endpoint", "assess")]
            ),
            "serve.latency{endpoint=\"assess\",status=\"200\"}",
            "labels sort by key"
        );
        assert_eq!(
            labeled("m", &[("k", "a\"b\\c\nd")]),
            "m{k=\"a\\\"b\\\\c\\nd\"}",
            "values escape quote, backslash, newline"
        );
        // Same labels in any order → same registry handle.
        let a = counter(&labeled("test.metrics.lbl", &[("x", "1"), ("y", "2")]));
        a.add(5);
        let b = counter(&labeled("test.metrics.lbl", &[("y", "2"), ("x", "1")]));
        assert_eq!(b.get(), 5);
    }

    #[test]
    fn prometheus_renders_labeled_series_under_one_type_line() {
        let _r = registry_lock();
        counter(&labeled("test.metrics.plabel", &[("endpoint", "assess")])).add(3);
        counter(&labeled("test.metrics.plabel", &[("endpoint", "healthz")])).add(1);
        let h = histogram(&labeled("test.metrics.plabelh", &[("endpoint", "assess")]));
        h.record(100);
        h.record(900);
        let text = render_prometheus();
        assert_eq!(
            text.matches("# TYPE adsafe_test_metrics_plabel counter")
                .count(),
            1,
            "one TYPE line for the family: {text}"
        );
        assert!(
            text.contains("adsafe_test_metrics_plabel{endpoint=\"assess\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("adsafe_test_metrics_plabel{endpoint=\"healthz\"} 1"),
            "{text}"
        );
        // Histogram series carry their labels ahead of `le`.
        assert!(
            text.contains("adsafe_test_metrics_plabelh_bucket{endpoint=\"assess\",le=\"127\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("adsafe_test_metrics_plabelh_bucket{endpoint=\"assess\",le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("adsafe_test_metrics_plabelh_sum{endpoint=\"assess\"} 1000"),
            "{text}"
        );
        assert!(
            text.contains("adsafe_test_metrics_plabelh_count{endpoint=\"assess\"} 2"),
            "{text}"
        );
    }

    #[test]
    fn render_text_prints_labeled_keys_verbatim() {
        let _r = registry_lock();
        counter(&labeled("test.metrics.tlabel", &[("code", "200")])).add(2);
        let text = render_text();
        assert!(
            text.contains("counter test.metrics.tlabel{code=\"200\"} 2"),
            "{text}"
        );
    }
}
