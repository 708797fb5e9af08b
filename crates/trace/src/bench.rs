//! `BENCH_pipeline.json`: the perf baseline format and regression gate.
//!
//! `adsafe-bench`'s `pipeline_trace` bench distils a [`TraceSummary`]
//! into a small JSON document of per-phase wall times. The document is
//! committed as the repository's perf baseline; CI re-runs the bench
//! and fails when any phase regresses beyond a factor (2× by default)
//! via [`BenchBaseline::regressions`] / `adsafe trace-compare`.

use crate::json::{write_escaped, Json};
use crate::summary::TraceSummary;
use std::fmt::Write as _;

/// Schema tag written into every baseline document.
pub const SCHEMA: &str = "adsafe-bench-pipeline/1";

/// Phases faster than this are noise, not signal: they are never
/// flagged as regressions (a 0.2 ms phase doubling is jitter).
pub const NOISE_FLOOR_MS: f64 = 1.0;

/// Per-phase wall times of one pipeline run.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchBaseline {
    /// (phase name, wall ms), in execution order.
    pub phases: Vec<(String, f64)>,
    /// Whole-run wall ms.
    pub total_ms: f64,
    /// Counters worth tracking alongside timings (files, diagnostics…).
    pub counters: Vec<(String, u64)>,
}

/// One phase that slowed beyond the allowed factor.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Phase name.
    pub phase: String,
    /// Baseline wall ms.
    pub baseline_ms: f64,
    /// Current wall ms.
    pub current_ms: f64,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "phase `{}` regressed {:.1}x: {:.2} ms -> {:.2} ms",
            self.phase,
            self.current_ms / self.baseline_ms.max(f64::MIN_POSITIVE),
            self.baseline_ms,
            self.current_ms
        )
    }
}

impl BenchBaseline {
    /// Distils a run's [`TraceSummary`] into a baseline.
    pub fn from_summary(s: &TraceSummary) -> Self {
        BenchBaseline {
            phases: s
                .phases
                .iter()
                .map(|p| (p.name.clone(), p.wall_us as f64 / 1000.0))
                .collect(),
            total_ms: s.total_us as f64 / 1000.0,
            counters: s.counters.clone(),
        }
    }

    /// Serialises the baseline as JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "{{\n  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(out, "  \"total_ms\": {:.3},", self.total_ms);
        out.push_str("  \"phases\": {");
        for (i, (name, ms)) in self.phases.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            write_escaped(&mut out, name);
            let _ = write!(out, ": {ms:.3}");
        }
        out.push_str("\n  },\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            write_escaped(&mut out, name);
            let _ = write!(out, ": {v}");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parses a baseline document, checking the schema tag.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text)?;
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != SCHEMA {
            return Err(format!(
                "unsupported baseline schema `{schema}` (want `{SCHEMA}`)"
            ));
        }
        let total_ms = doc
            .get("total_ms")
            .and_then(Json::as_f64)
            .ok_or("missing `total_ms`")?;
        let phases = doc
            .get("phases")
            .and_then(Json::as_obj)
            .ok_or("missing `phases` object")?
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|ms| (k.clone(), ms))
                    .ok_or_else(|| format!("phase `{k}` is not a number"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let counters = doc
            .get("counters")
            .and_then(Json::as_obj)
            .map(|m| {
                m.iter()
                    .filter_map(|(k, v)| v.as_f64().map(|n| (k.clone(), n as u64)))
                    .collect()
            })
            .unwrap_or_default();
        Ok(BenchBaseline {
            phases,
            total_ms,
            counters,
        })
    }

    /// Phases present in exactly one of `self` (the baseline) and
    /// `current`, each reported as a named difference. A phase that
    /// disappears from the run (or appears out of nowhere) used to be
    /// silently skipped by [`regressions`](Self::regressions); callers
    /// like `adsafe trace-compare` surface these by name so a renamed
    /// or dropped phase is a visible, deliberate baseline update.
    /// Counters are deliberately *not* compared — new instrumentation
    /// (e.g. `pool.*`/`cache.*`) must not fail the gate.
    pub fn phase_differences(&self, current: &Self) -> Vec<String> {
        let mut out = Vec::new();
        for (name, ms) in &self.phases {
            if !current.phases.iter().any(|(n, _)| n == name) {
                out.push(format!(
                    "phase `{name}` ({ms:.2} ms in baseline) is missing from the current run"
                ));
            }
        }
        for (name, ms) in &current.phases {
            if !self.phases.iter().any(|(n, _)| n == name) {
                out.push(format!(
                    "phase `{name}` ({ms:.2} ms in current run) is missing from the baseline"
                ));
            }
        }
        out
    }

    /// Phases of `current` that run more than `factor`× slower than in
    /// `self`. Phases under [`NOISE_FLOOR_MS`] in the baseline are held
    /// to the floor×factor bar instead, so microsecond phases cannot
    /// produce spurious failures. Phases missing on either side are
    /// not regressions — [`phase_differences`](Self::phase_differences)
    /// reports those by name.
    pub fn regressions(&self, current: &Self, factor: f64) -> Vec<Regression> {
        let mut out = Vec::new();
        for (name, cur_ms) in &current.phases {
            let Some((_, base_ms)) = self.phases.iter().find(|(n, _)| n == name) else {
                continue;
            };
            let bar = base_ms.max(NOISE_FLOOR_MS) * factor;
            if *cur_ms > bar {
                out.push(Regression {
                    phase: name.clone(),
                    baseline_ms: *base_ms,
                    current_ms: *cur_ms,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::PhaseTime;

    fn baseline(pairs: &[(&str, f64)]) -> BenchBaseline {
        BenchBaseline {
            phases: pairs.iter().map(|(n, ms)| (n.to_string(), *ms)).collect(),
            total_ms: pairs.iter().map(|(_, ms)| ms).sum(),
            counters: vec![("parse.files".to_string(), 42)],
        }
    }

    #[test]
    fn json_round_trips() {
        let b = baseline(&[("parse", 12.5), ("checks", 3.25)]);
        let parsed = BenchBaseline::parse(&b.to_json()).unwrap();
        assert_eq!(parsed.phases.len(), 2);
        assert!((parsed.total_ms - b.total_ms).abs() < 1e-6);
        assert_eq!(parsed.counters, b.counters);
    }

    #[test]
    fn parse_rejects_wrong_schema() {
        assert!(BenchBaseline::parse(r#"{"schema":"other/9","total_ms":1,"phases":{}}"#).is_err());
    }

    #[test]
    fn regression_gate_fires_beyond_factor() {
        let base = baseline(&[("parse", 10.0), ("checks", 5.0), ("tiny", 0.01)]);
        let ok = baseline(&[("parse", 18.0), ("checks", 9.9), ("tiny", 0.5)]);
        assert!(base.regressions(&ok, 2.0).is_empty());
        let bad = baseline(&[("parse", 25.0), ("checks", 4.0)]);
        let r = base.regressions(&bad, 2.0);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].phase, "parse");
        assert!(r[0].to_string().contains("2.5x"), "{}", r[0]);
    }

    #[test]
    fn phase_set_differences_are_reported_by_name() {
        let base = baseline(&[("parse", 10.0), ("checks", 5.0)]);
        let cur = baseline(&[("parse", 10.0), ("metrics", 2.0)]);
        let diffs = base.phase_differences(&cur);
        assert_eq!(diffs.len(), 2);
        assert!(diffs[0].contains("`checks`") && diffs[0].contains("missing from the current run"));
        assert!(diffs[1].contains("`metrics`") && diffs[1].contains("missing from the baseline"));
        assert!(base.phase_differences(&base).is_empty());
    }

    #[test]
    fn new_counters_do_not_affect_comparison() {
        let base = baseline(&[("parse", 10.0)]);
        let mut cur = baseline(&[("parse", 10.0)]);
        cur.counters.push(("pool.steals".to_string(), 7));
        cur.counters.push(("cache.hits".to_string(), 11));
        assert!(base.regressions(&cur, 2.0).is_empty());
        assert!(base.phase_differences(&cur).is_empty());
    }

    #[test]
    fn noise_floor_suppresses_microsecond_phases() {
        let base = baseline(&[("tiny", 0.05)]);
        // 0.05 ms -> 1.5 ms is 30x, but under the 2 ms (floor×factor) bar.
        let cur = baseline(&[("tiny", 1.5)]);
        assert!(base.regressions(&cur, 2.0).is_empty());
        let really_bad = baseline(&[("tiny", 2.5)]);
        assert_eq!(base.regressions(&really_bad, 2.0).len(), 1);
    }

    #[test]
    fn from_summary_converts_units() {
        let s = TraceSummary {
            total_us: 1500,
            phases: vec![PhaseTime {
                name: "parse".into(),
                wall_us: 1000,
            }],
            ..TraceSummary::default()
        };
        let b = BenchBaseline::from_summary(&s);
        assert_eq!(b.phases, vec![("parse".to_string(), 1.0)]);
        assert!((b.total_ms - 1.5).abs() < 1e-9);
    }
}
