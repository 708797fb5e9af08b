//! Renders assessment results as the paper's tables and figures.

use crate::pipeline::AssessmentReport;
use adsafe_iso26262::TableId;
use adsafe_report::{Figure, Table};

/// Renders one of the three compliance tables with measured verdicts.
pub fn compliance_table(report: &AssessmentReport, table: TableId) -> Table {
    let mut t = Table::new(
        table.title(),
        &[
            "#", "Topic", "A", "B", "C", "D", "Status", "Effort", "Evidence",
        ],
    );
    for v in report.compliance.table(table) {
        let lv = v.topic.levels;
        t.row_owned(vec![
            v.topic.row.to_string(),
            v.topic.name.to_string(),
            lv[0].notation().to_string(),
            lv[1].notation().to_string(),
            lv[2].notation().to_string(),
            lv[3].notation().to_string(),
            v.status.to_string(),
            v.effort.to_string(),
            v.evidence.clone(),
        ]);
    }
    t
}

/// Paper Table 1 (ISO 26262-6 Table 1) with verdicts.
pub fn table1(report: &AssessmentReport) -> Table {
    compliance_table(report, TableId::CodingGuidelines)
}

/// Paper Table 2 (ISO 26262-6 Table 3) with verdicts.
pub fn table2(report: &AssessmentReport) -> Table {
    compliance_table(report, TableId::ArchitecturalDesign)
}

/// Paper Table 3 (ISO 26262-6 Table 8) with verdicts.
pub fn table3(report: &AssessmentReport) -> Table {
    compliance_table(report, TableId::UnitDesign)
}

/// Figure 3: per-module LOC, function count, and complexity bars.
pub fn fig3(report: &AssessmentReport) -> Figure {
    let mut f = Figure::new(
        "Figure 3",
        "Complexity, LOC, and number of functions in Apollo modules",
    );
    let labels: Vec<&str> = report.modules.iter().map(|m| m.name.as_str()).collect();
    f.labels(&labels);
    f.series(
        "LOC",
        report.modules.iter().map(|m| m.loc.nloc as f64).collect(),
    );
    f.series(
        "functions",
        report
            .modules
            .iter()
            .map(|m| m.histogram.total as f64)
            .collect(),
    );
    f.series(
        "CC > 10",
        report
            .modules
            .iter()
            .map(|m| m.histogram.over_10 as f64)
            .collect(),
    );
    f.series(
        "CC > 20",
        report
            .modules
            .iter()
            .map(|m| m.histogram.over_20 as f64)
            .collect(),
    );
    f.series(
        "CC > 50",
        report
            .modules
            .iter()
            .map(|m| m.histogram.over_50 as f64)
            .collect(),
    );
    f
}

/// The fourteen observations as numbered prose (only those that hold).
pub fn observations_text(report: &AssessmentReport) -> String {
    let mut out = String::new();
    for o in &report.observations {
        if o.holds {
            out.push_str(&format!("Observation {}. {}\n", o.number, o.text));
        }
    }
    out
}

/// Renders the structural-coverage verdicts (when coverage was measured)
/// as a table — the §3.2 judgement of Figure 5's numbers.
pub fn coverage_table(report: &AssessmentReport) -> Option<Table> {
    let cov = report.evidence.coverage.as_ref()?;
    let gpu = report.evidence.gpu.kernel_count > 0;
    let verdicts = adsafe_iso26262::judge_coverage(cov, report.compliance.asil, gpu);
    let mut t = Table::new(
        "Structural coverage vs ISO 26262-6 / IEC 61508 (100% reference)",
        &["Metric", "Required", "Measured", "Status", "Effort"],
    );
    for v in verdicts {
        t.row_owned(vec![
            v.metric.name().to_string(),
            v.required.notation().to_string(),
            format!("{:.0}%", v.measured_pct),
            v.status.to_string(),
            v.effort.to_string(),
        ]);
    }
    Some(t)
}

/// Renders the complete assessment as a single Markdown document:
/// summary, the three compliance tables, coverage (if measured), the
/// observations that hold, the finding counts per rule, and the trace
/// digest.
pub fn full_report_markdown(report: &AssessmentReport) -> String {
    let mut out = deterministic_report_markdown(report);
    out.push('\n');
    out.push_str(&trace_summary(report));
    out
}

/// [`full_report_markdown`] minus the trailing trace digest — every
/// section that depends only on the assessed code, none that depend on
/// wall time. Two runs over the same corpus render byte-identical
/// output here regardless of worker count (`AssessmentOptions::jobs`)
/// or cache state; the pipeline's determinism tests and the CI
/// jobs-matrix gate compare exactly this document.
pub fn deterministic_report_markdown(report: &AssessmentReport) -> String {
    let mut out = String::new();
    out.push_str("# ISO 26262 Part-6 Adherence Assessment\n\n");
    out.push_str(&format!(
        "- target: **{}**\n- code: {} NLOC, {} functions, {} modules\n\
         - findings: {}\n- blocking topics: {} of 25\n- compliance ratio: {:.0}%\n\n",
        report.compliance.asil,
        report.evidence.total_loc,
        report.evidence.total_functions,
        report.evidence.module_count(),
        report.diagnostics.len(),
        report.compliance.blocking_count(),
        report.compliance.compliance_ratio() * 100.0
    ));
    out.push_str(&table1(report).to_markdown());
    out.push('\n');
    out.push_str(&table2(report).to_markdown());
    out.push('\n');
    out.push_str(&table3(report).to_markdown());
    out.push('\n');
    if let Some(t) = coverage_table(report) {
        out.push_str(&t.to_markdown());
        out.push('\n');
    }
    out.push_str("## Observations\n\n");
    for o in &report.observations {
        if o.holds {
            out.push_str(&format!("**Observation {}.** {}\n\n", o.number, o.text));
        }
    }
    out.push_str("## Findings by rule\n\n| Rule | Findings |\n|---|---|\n");
    let mut counts: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for d in &report.diagnostics {
        *counts.entry(d.check_id).or_insert(0) += 1;
    }
    for (rule, n) in counts {
        out.push_str(&format!("| `{rule}` | {n} |\n"));
    }
    if !report.faults.is_empty() {
        out.push('\n');
        out.push_str(&fault_summary(report));
    }
    out
}

/// Renders the run's self-observability digest: per-phase wall time,
/// the top-10 slowest files, and the top-10 slowest checker rules.
pub fn trace_summary(report: &AssessmentReport) -> String {
    let t = &report.trace;
    let mut out = String::new();
    out.push_str("## Trace summary\n\n");
    if !report.run_id.is_empty() {
        out.push_str(&format!("- run: {}\n", report.run_id));
    }
    out.push_str(&format!(
        "- total wall time: {:.1} ms\n",
        t.total_us as f64 / 1000.0
    ));
    for p in &t.phases {
        out.push_str(&format!(
            "- phase {}: {:.1} ms\n",
            p.name,
            p.wall_us as f64 / 1000.0
        ));
    }
    if !t.slowest_files.is_empty() {
        out.push_str("\n### Slowest files\n\n| File | Time (ms) |\n|---|---|\n");
        for (path, us) in &t.slowest_files {
            out.push_str(&format!("| `{path}` | {:.2} |\n", *us as f64 / 1000.0));
        }
    }
    if !t.slowest_rules.is_empty() {
        out.push_str("\n### Slowest rules\n\n| Rule | Time (ms) |\n|---|---|\n");
        for (rule, us) in &t.slowest_rules {
            out.push_str(&format!("| `{rule}` | {:.2} |\n", *us as f64 / 1000.0));
        }
    }
    out
}

/// Renders the fault log: degradation banner, counts per phase, worst
/// severity, and the individual faults. Empty string for a clean run.
pub fn fault_summary(report: &AssessmentReport) -> String {
    if report.faults.is_empty() {
        return String::new();
    }
    let mut out = String::new();
    out.push_str("## Fault log\n\n");
    if report.degraded {
        out.push_str(
            "**Degraded assessment**: some evidence was recovered through \
             lower tiers of the degradation ladder or lost.\n\n",
        );
    }
    let worst = report
        .faults
        .worst()
        .expect("non-empty log has a worst severity");
    out.push_str(&format!(
        "- faults contained: {}\n- worst severity: {}\n",
        report.faults.len(),
        worst.name()
    ));
    for (phase, n) in report.faults.counts_by_phase() {
        out.push_str(&format!("- {}: {}\n", phase.name(), n));
    }
    out.push('\n');
    for f in &report.faults {
        out.push_str(&format!("- {f}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Assessment;

    fn report() -> AssessmentReport {
        let mut a = Assessment::new();
        a.add_file(
            "control",
            "control/pid.cc",
            "int g_mode;\nint Clamp(int v) { if (v > 100) return 100; return v; }\n",
        );
        a.run()
    }

    #[test]
    fn tables_render_with_verdicts() {
        let r = report();
        let t1 = table1(&r);
        assert_eq!(t1.rows.len(), 8);
        assert!(t1.to_ascii().contains("Enforcement of low complexity"));
        let t2 = table2(&r);
        assert_eq!(t2.rows.len(), 7);
        let t3 = table3(&r);
        assert_eq!(t3.rows.len(), 10);
        assert!(t3.to_ascii().contains("No unconditional jumps"));
        // Recommendation notation appears.
        assert!(t1.to_ascii().contains("++"));
    }

    #[test]
    fn fig3_has_all_series() {
        let r = report();
        let f = fig3(&r);
        assert_eq!(f.series.len(), 5);
        assert_eq!(f.labels, vec!["control"]);
        assert!(f.to_csv().contains("LOC"));
    }

    #[test]
    fn observations_text_mentions_globals() {
        let r = report();
        let text = observations_text(&r);
        assert!(text.contains("Observation 7"), "{text}");
    }

    #[test]
    fn coverage_table_requires_measurement() {
        let r = report();
        assert!(coverage_table(&r).is_none(), "no coverage measured");
        let mut a = Assessment::new().with_options(crate::pipeline::AssessmentOptions {
            coverage: Some(adsafe_iso26262::CoverageEvidence {
                statement_pct: 83.0,
                branch_pct: 75.0,
                mcdc_pct: 61.0,
            }),
            ..Default::default()
        });
        a.add_file("m", "a.cc", "int f() { return 1; }");
        let r2 = a.run();
        let t = coverage_table(&r2).expect("coverage measured");
        let md = t.to_markdown();
        assert!(md.contains("83%"));
        assert!(md.contains("MC/DC"));
    }

    #[test]
    fn full_markdown_report_is_complete() {
        let r = report();
        let md = full_report_markdown(&r);
        assert!(md.starts_with("# ISO 26262"));
        assert!(md.contains("## Observations"));
        assert!(md.contains("## Findings by rule"));
        assert!(md.contains("design-global-variable"));
        assert!(md.contains("Modeling/coding guidelines"));
        assert!(md.contains("compliance ratio"));
        // Clean run: no fault section.
        assert!(!md.contains("## Fault log"));
        assert_eq!(fault_summary(&r), "");
    }

    #[test]
    fn run_id_lands_in_trace_summary_only() {
        let mut a = Assessment::new().with_options(crate::pipeline::AssessmentOptions {
            run_id: "r000009-cafef00d".into(),
            ..Default::default()
        });
        a.add_file("m", "a.cc", "int f() { return 1; }");
        let r = a.run();
        assert!(
            !deterministic_report_markdown(&r).contains("r000009"),
            "run ID must never reach the byte-compared deterministic report"
        );
        assert!(trace_summary(&r).contains("- run: r000009-cafef00d"));
        assert!(full_report_markdown(&r).contains("- run: r000009-cafef00d"));
    }

    #[test]
    fn fault_summary_renders_degradation() {
        let mut a = Assessment::new();
        a.add_file("m", "bad.cc", "int ; ] ) } = 5 +;\nint h() { return 2; }\n");
        let r = a.run();
        assert!(r.degraded);
        let s = fault_summary(&r);
        assert!(s.contains("Degraded assessment"), "{s}");
        assert!(s.contains("worst severity: degraded"), "{s}");
        assert!(s.contains("parse: 1"), "{s}");
        assert!(s.contains("bad.cc"), "{s}");
        let md = full_report_markdown(&r);
        assert!(md.contains("## Fault log"));
    }
}
