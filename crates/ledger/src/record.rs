//! The self-describing per-run record appended to the ledger.
//!
//! One [`RunRecord`] captures everything needed to compare two
//! assessments without re-running either: identity (run ID, corpus
//! digest, ruleset fingerprint), outcome (exit code, degradation tier,
//! fault summary), performance (per-phase wall clock, cache hit/store
//! counts), and the complete compliance surface — every Table 1/3/8
//! verdict and every observation. Records serialise to a single JSON
//! line (`RunRecord::to_json_line`) and parse back losslessly
//! (`RunRecord::from_json`), which is what the round-trip proptest in
//! `tests/ledger_integration.rs` pins.

use adsafe::AssessmentReport;
use adsafe_trace::json::{write_escaped, Json};
use std::fmt::Write as _;

/// Schema tag carried by every ledger line.
pub const LEDGER_SCHEMA: &str = "adsafe-ledger/1";

/// One compliance-table verdict, flattened for storage.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictRow {
    /// ISO 26262-6 table number (1, 3, or 8).
    pub table: u8,
    /// Row number within the table.
    pub row: u8,
    /// Topic name (display only; `table`+`row` is the join key).
    pub topic: String,
    /// Measured status (`compliant`, `partial`, `non-compliant`, `n/a`).
    pub status: String,
    /// Effort class to close the gap.
    pub effort: String,
    /// Whether the row blocks certification at the assessed ASIL.
    pub blocking: bool,
}

impl VerdictRow {
    /// The `table`+`row` join key (`t1r3`), stable across runs.
    pub fn key(&self) -> String {
        format!("t{}r{}", self.table, self.row)
    }

    /// Ordinal badness of a status for drift direction: `compliant`
    /// and `n/a` are 0, `partial` 1, `non-compliant` 2.
    pub fn status_rank(status: &str) -> u8 {
        match status {
            "partial" => 1,
            "non-compliant" => 2,
            _ => 0,
        }
    }
}

/// One assessment run, fully described.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The run ID (`r000007-5f2a91cd`); unique within one ledger.
    pub run: String,
    /// Monotonic sequence number within the ledger.
    pub seq: u64,
    /// Root directory of the assessed corpus.
    pub corpus_root: String,
    /// Digest folded over every file's content hash, in file order.
    pub corpus_digest: String,
    /// Number of source files assessed.
    pub files: u64,
    /// Ruleset/version/schema fingerprint of the assessing build.
    pub fingerprint: String,
    /// Target ASIL.
    pub asil: String,
    /// The CLI exit-code contract value (0–5) for this run.
    pub exit_code: i32,
    /// Whether any fault cost evidence.
    pub degraded: bool,
    /// Worst rung of the degradation ladder any file descended to:
    /// `full`, `resync`, `token`, or `dropped`.
    pub tier: String,
    /// Whole-run wall time in µs.
    pub total_us: u64,
    /// Per-phase wall time in µs, in execution order.
    pub phases: Vec<(String, u64)>,
    /// Fault counts per phase.
    pub fault_counts: Vec<(String, u64)>,
    /// Worst fault severity, if any fault was contained.
    pub worst_severity: Option<String>,
    /// Facts-cache hits attributable to this run.
    pub cache_hits: u64,
    /// Facts-cache stores attributable to this run.
    pub cache_stores: u64,
    /// All 25 table verdicts, in table order.
    pub verdicts: Vec<VerdictRow>,
    /// The fourteen observations: (number, holds).
    pub observations: Vec<(u8, bool)>,
    /// Compliance-relevant evidence scalars (name, value), sorted by
    /// name. Count metrics use their ISO presence threshold in
    /// [`crate::diff`]; ratios are compared by delta.
    pub metrics: Vec<(String, f64)>,
}

impl RunRecord {
    /// Distils a finished assessment into a ledger record.
    pub fn from_report(
        report: &AssessmentReport,
        run: &str,
        seq: u64,
        corpus_root: &str,
        corpus_digest: &str,
        files: u64,
        exit_code: i32,
    ) -> RunRecord {
        let e = &report.evidence;
        let mut metrics = vec![
            ("blocking_count".to_string(), report.compliance.blocking_count() as f64),
            ("compliance_ratio".to_string(), report.compliance.compliance_ratio()),
            ("dynamic_alloc_sites".to_string(), e.dynamic_alloc_sites as f64),
            ("functions_over_cc10".to_string(), e.functions_over_cc10 as f64),
            ("functions_over_cc20".to_string(), e.functions_over_cc20 as f64),
            ("functions_over_cc50".to_string(), e.functions_over_cc50 as f64),
            ("global_definitions".to_string(), e.global_definitions as f64),
            ("goto_count".to_string(), e.goto_count as f64),
            ("misra_violations".to_string(), e.misra_violations as f64),
            ("recursive_functions".to_string(), e.recursive_functions as f64),
            ("total_functions".to_string(), e.total_functions as f64),
            ("total_loc".to_string(), e.total_loc as f64),
            ("validation_ratio".to_string(), e.validation_ratio),
        ];
        metrics.sort_by(|a, b| a.0.cmp(&b.0));
        RunRecord {
            run: run.to_string(),
            seq,
            corpus_root: corpus_root.to_string(),
            corpus_digest: corpus_digest.to_string(),
            files,
            fingerprint: adsafe::ruleset_fingerprint(),
            asil: report.compliance.asil.to_string(),
            exit_code,
            degraded: report.degraded,
            tier: degradation_tier(report).to_string(),
            total_us: report.trace.total_us,
            phases: report
                .trace
                .phases
                .iter()
                .map(|p| (p.name.clone(), p.wall_us))
                .collect(),
            fault_counts: report
                .faults
                .counts_by_phase()
                .into_iter()
                .map(|(p, n)| (p.name().to_string(), n as u64))
                .collect(),
            worst_severity: report.faults.worst().map(|s| s.name().to_string()),
            cache_hits: report.trace.counter("cache.hits"),
            cache_stores: report.trace.counter("cache.stores"),
            verdicts: report
                .compliance
                .verdicts
                .iter()
                .map(|v| VerdictRow {
                    table: v.topic.table.part6_number(),
                    row: v.topic.row,
                    topic: v.topic.name.to_string(),
                    status: v.status.to_string(),
                    effort: v.effort.to_string(),
                    blocking: v.is_blocking(),
                })
                .collect(),
            observations: report.observations.iter().map(|o| (o.number, o.holds)).collect(),
            metrics,
        }
    }

    /// Number of blocking verdict rows.
    pub fn blocking_count(&self) -> usize {
        self.verdicts.iter().filter(|v| v.blocking).count()
    }

    /// The named metric's value, if recorded.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Serialises the record as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut o = String::from("{\"schema\":");
        write_escaped(&mut o, LEDGER_SCHEMA);
        let str_field = |o: &mut String, k: &str, v: &str| {
            o.push(',');
            write_escaped(o, k);
            o.push(':');
            write_escaped(o, v);
        };
        str_field(&mut o, "run", &self.run);
        let _ = write!(o, ",\"seq\":{}", self.seq);
        str_field(&mut o, "corpus_root", &self.corpus_root);
        str_field(&mut o, "corpus_digest", &self.corpus_digest);
        let _ = write!(o, ",\"files\":{}", self.files);
        str_field(&mut o, "fingerprint", &self.fingerprint);
        str_field(&mut o, "asil", &self.asil);
        let _ = write!(o, ",\"exit_code\":{}", self.exit_code);
        let _ = write!(o, ",\"degraded\":{}", self.degraded);
        str_field(&mut o, "tier", &self.tier);
        let _ = write!(o, ",\"total_us\":{}", self.total_us);
        o.push_str(",\"phases\":{");
        for (i, (name, us)) in self.phases.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            write_escaped(&mut o, name);
            let _ = write!(o, ":{us}");
        }
        o.push_str("},\"faults\":{");
        for (i, (name, n)) in self.fault_counts.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            write_escaped(&mut o, name);
            let _ = write!(o, ":{n}");
        }
        o.push('}');
        match &self.worst_severity {
            Some(w) => str_field(&mut o, "worst_severity", w),
            None => o.push_str(",\"worst_severity\":null"),
        }
        let _ = write!(o, ",\"cache_hits\":{}", self.cache_hits);
        let _ = write!(o, ",\"cache_stores\":{}", self.cache_stores);
        o.push_str(",\"verdicts\":[");
        for (i, v) in self.verdicts.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(o, "{{\"table\":{},\"row\":{},\"topic\":", v.table, v.row);
            write_escaped(&mut o, &v.topic);
            o.push_str(",\"status\":");
            write_escaped(&mut o, &v.status);
            o.push_str(",\"effort\":");
            write_escaped(&mut o, &v.effort);
            let _ = write!(o, ",\"blocking\":{}}}", v.blocking);
        }
        o.push_str("],\"observations\":[");
        for (i, (n, holds)) in self.observations.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let _ = write!(o, "[{n},{holds}]");
        }
        o.push_str("],\"metrics\":{");
        for (i, (name, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            write_escaped(&mut o, name);
            // `{}` on f64 prints the shortest representation that
            // parses back to the same value — lossless round-trip.
            let _ = write!(o, ":{v}");
        }
        o.push_str("}}");
        o
    }

    /// Parses one ledger line. Total: any malformed input is an `Err`
    /// with a reason, never a panic (proptested over byte soup).
    pub fn from_json(line: &str) -> Result<RunRecord, String> {
        let doc = Json::parse(line)?;
        let schema = doc.get("schema").and_then(Json::as_str).unwrap_or("");
        if schema != LEDGER_SCHEMA {
            return Err(format!("unsupported ledger schema `{schema}` (want `{LEDGER_SCHEMA}`)"));
        }
        let s = |k: &str| -> Result<String, String> {
            doc.get(k)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field `{k}`"))
        };
        let n = |k: &str| -> Result<f64, String> {
            doc.get(k).and_then(Json::as_f64).ok_or_else(|| format!("missing number field `{k}`"))
        };
        let b = |k: &str| -> Result<bool, String> {
            match doc.get(k) {
                Some(Json::Bool(v)) => Ok(*v),
                _ => Err(format!("missing bool field `{k}`")),
            }
        };
        let pairs = |k: &str| -> Result<Vec<(String, u64)>, String> {
            Ok(doc
                .get(k)
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("missing object field `{k}`"))?
                .iter()
                .filter_map(|(name, v)| v.as_f64().map(|x| (name.clone(), x as u64)))
                .collect())
        };
        let mut verdicts = Vec::new();
        for v in doc
            .get("verdicts")
            .and_then(Json::as_arr)
            .ok_or("missing array field `verdicts`")?
        {
            verdicts.push(VerdictRow {
                table: v.get("table").and_then(Json::as_f64).ok_or("verdict missing `table`")?
                    as u8,
                row: v.get("row").and_then(Json::as_f64).ok_or("verdict missing `row`")? as u8,
                topic: v
                    .get("topic")
                    .and_then(Json::as_str)
                    .ok_or("verdict missing `topic`")?
                    .to_string(),
                status: v
                    .get("status")
                    .and_then(Json::as_str)
                    .ok_or("verdict missing `status`")?
                    .to_string(),
                effort: v
                    .get("effort")
                    .and_then(Json::as_str)
                    .ok_or("verdict missing `effort`")?
                    .to_string(),
                blocking: matches!(v.get("blocking"), Some(Json::Bool(true))),
            });
        }
        let mut observations = Vec::new();
        for pair in doc
            .get("observations")
            .and_then(Json::as_arr)
            .ok_or("missing array field `observations`")?
        {
            let arr = pair.as_arr().ok_or("observation is not a pair")?;
            let (Some(num), Some(Json::Bool(holds))) =
                (arr.first().and_then(Json::as_f64), arr.get(1))
            else {
                return Err("observation pair is malformed".to_string());
            };
            observations.push((num as u8, *holds));
        }
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("missing object field `metrics`")?
            .iter()
            .filter_map(|(name, v)| v.as_f64().map(|x| (name.clone(), x)))
            .collect();
        Ok(RunRecord {
            run: s("run")?,
            seq: n("seq")? as u64,
            corpus_root: s("corpus_root")?,
            corpus_digest: s("corpus_digest")?,
            files: n("files")? as u64,
            fingerprint: s("fingerprint")?,
            asil: s("asil")?,
            exit_code: n("exit_code")? as i32,
            degraded: b("degraded")?,
            tier: s("tier")?,
            total_us: n("total_us")? as u64,
            phases: pairs("phases")?,
            fault_counts: pairs("faults")?,
            worst_severity: doc
                .get("worst_severity")
                .and_then(Json::as_str)
                .map(str::to_string),
            cache_hits: n("cache_hits")? as u64,
            cache_stores: n("cache_stores")? as u64,
            verdicts,
            observations,
            metrics,
        })
    }
}

/// The worst degradation-ladder rung any file descended to during the
/// run, read off the fault log's recovery actions.
pub fn degradation_tier(report: &AssessmentReport) -> &'static str {
    use adsafe::Recovery;
    let mut tier = "full";
    for f in report.faults.iter() {
        tier = match (tier, f.recovery) {
            (_, Recovery::Dropped) => return "dropped",
            ("full" | "resync", Recovery::TokenMetrics | Recovery::FallbackDefault) => "token",
            ("full", Recovery::ResyncParse) => "resync",
            (t, _) => t,
        };
    }
    tier
}

/// Note: `phases` round-trips through a JSON object, which sorts keys —
/// [`RunRecord::from_json`] therefore returns phases in name order, not
/// execution order. Comparisons in [`crate::diff`] join by name, so
/// this is invisible to every consumer; the round-trip test normalises
/// order before comparing.
#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn sample(seq: u64) -> RunRecord {
        RunRecord {
            run: format!("r{seq:06}-deadbeef"),
            seq,
            corpus_root: "/tmp/corpus".into(),
            corpus_digest: "0123456789abcdef".into(),
            files: 9,
            fingerprint: "f00dfeed".into(),
            asil: "ASIL-D".into(),
            exit_code: 1,
            degraded: false,
            tier: "full".into(),
            total_us: 12_345,
            phases: vec![
                ("assess".into(), 300),
                ("checks".into(), 4000),
                ("metrics".into(), 100),
                ("parse".into(), 8000),
            ],
            fault_counts: vec![("parse".into(), 1)],
            worst_severity: Some("info".into()),
            cache_hits: 0,
            cache_stores: 9,
            verdicts: vec![VerdictRow {
                table: 1,
                row: 1,
                topic: "Enforcement of low complexity".into(),
                status: "non-compliant".into(),
                effort: "significant".into(),
                blocking: true,
            }],
            observations: vec![(1, true), (2, false)],
            metrics: vec![
                ("goto_count".into(), 0.0),
                ("validation_ratio".into(), 0.3125),
            ],
        }
    }

    #[test]
    fn json_line_round_trips() {
        let r = sample(3);
        let line = r.to_json_line();
        assert!(!line.contains('\n'), "record must be a single line");
        let back = RunRecord::from_json(&line).expect("round trip");
        assert_eq!(back, r);
    }

    #[test]
    fn parse_is_total_on_garbage() {
        for bad in ["", "{", "null", "{\"schema\":\"other/1\"}", "[1,2]", "{\"schema\":\"adsafe-ledger/1\"}"] {
            assert!(RunRecord::from_json(bad).is_err(), "{bad:?} must not parse");
        }
        // A truncated real line is an error, never a panic.
        let full = sample(1).to_json_line();
        for cut in [1, full.len() / 2, full.len() - 1] {
            assert!(RunRecord::from_json(&full[..cut]).is_err());
        }
    }

    #[test]
    fn verdict_status_ranks_order_badness() {
        assert!(VerdictRow::status_rank("compliant") < VerdictRow::status_rank("partial"));
        assert!(VerdictRow::status_rank("partial") < VerdictRow::status_rank("non-compliant"));
        assert_eq!(VerdictRow::status_rank("n/a"), 0);
    }
}
