//! Coverage report computation: statement, branch, and MC/DC percentages
//! per function and per file — the numbers plotted in the paper's
//! Figures 5 and 6.

use crate::mcdc::covered_conditions;
use crate::probes::{CoverageLog, FunctionProbes};

/// Coverage results for one function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionCoverage {
    /// Qualified function name.
    pub name: String,
    /// Statements executed.
    pub stmts_hit: usize,
    /// Total statements.
    pub stmts_total: usize,
    /// Branch edges taken.
    pub branches_hit: usize,
    /// Total branch edges.
    pub branches_total: usize,
    /// MC/DC conditions covered.
    pub conditions_covered: usize,
    /// Total MC/DC conditions.
    pub conditions_total: usize,
    /// Whether the function was entered at all.
    pub called: bool,
}

fn pct(hit: usize, total: usize) -> f64 {
    if total == 0 {
        100.0
    } else {
        100.0 * hit as f64 / total as f64
    }
}

impl FunctionCoverage {
    /// Statement coverage percentage (100 when there is nothing to cover).
    pub fn statement_pct(&self) -> f64 {
        pct(self.stmts_hit, self.stmts_total)
    }

    /// Branch coverage percentage.
    pub fn branch_pct(&self) -> f64 {
        pct(self.branches_hit, self.branches_total)
    }

    /// MC/DC coverage percentage.
    pub fn mcdc_pct(&self) -> f64 {
        pct(self.conditions_covered, self.conditions_total)
    }
}

/// Computes coverage of one function from its probe universe and the log.
pub fn function_coverage(probes: &FunctionProbes, log: &CoverageLog) -> FunctionCoverage {
    let stmts_hit = probes
        .statements
        .iter()
        .filter(|s| log.stmt_hits.contains_key(s))
        .count();
    let mut branches_hit = 0usize;
    let mut conditions_covered = 0usize;
    for (decision, leaves) in &probes.decisions {
        if let Some((t, f)) = log.branch_hits.get(decision) {
            branches_hit += *t as usize + *f as usize;
        }
        if let Some(records) = log.decision_records.get(decision) {
            conditions_covered += covered_conditions(records, leaves.len());
        }
    }
    branches_hit += probes
        .case_labels
        .iter()
        .filter(|c| log.case_hits.contains_key(c))
        .count();
    FunctionCoverage {
        name: probes.name.clone(),
        stmts_hit,
        stmts_total: probes.statements.len(),
        branches_hit,
        branches_total: probes.branch_edges(),
        conditions_covered,
        conditions_total: probes.condition_count(),
        called: stmts_hit > 0,
    }
}

/// Coverage aggregated over a set of functions (e.g. one file).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AggregateCoverage {
    /// Aggregate label (file or module name).
    pub label: String,
    /// Per-function results.
    pub functions: Vec<FunctionCoverage>,
}

impl AggregateCoverage {
    /// Sums a field over functions; excludes never-called functions when
    /// `exclude_uncalled` (the paper "excluded all those functions that
    /// were not called").
    fn totals(&self, exclude_uncalled: bool) -> (usize, usize, usize, usize, usize, usize) {
        let mut t = (0, 0, 0, 0, 0, 0);
        for f in &self.functions {
            if exclude_uncalled && !f.called {
                continue;
            }
            t.0 += f.stmts_hit;
            t.1 += f.stmts_total;
            t.2 += f.branches_hit;
            t.3 += f.branches_total;
            t.4 += f.conditions_covered;
            t.5 += f.conditions_total;
        }
        t
    }

    /// Statement coverage percentage.
    pub fn statement_pct(&self, exclude_uncalled: bool) -> f64 {
        let t = self.totals(exclude_uncalled);
        pct(t.0, t.1)
    }

    /// Branch coverage percentage.
    pub fn branch_pct(&self, exclude_uncalled: bool) -> f64 {
        let t = self.totals(exclude_uncalled);
        pct(t.2, t.3)
    }

    /// MC/DC coverage percentage.
    pub fn mcdc_pct(&self, exclude_uncalled: bool) -> f64 {
        let t = self.totals(exclude_uncalled);
        pct(t.4, t.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Interp, Program};
    use crate::probes::enumerate_probes;
    use crate::value::Value;
    use adsafe_lang::{parse_source, FileId};

    fn coverage_of(src: &str, calls: &[(&str, Vec<Value>)]) -> AggregateCoverage {
        let parsed = parse_source(FileId(0), src);
        let prog = Program::from_units(&[&parsed.unit]);
        let mut it = Interp::new(&prog);
        for (entry, args) in calls {
            it.call(entry, args.clone()).expect("run ok");
        }
        let functions = parsed
            .unit
            .functions()
            .iter()
            .map(|f| function_coverage(&enumerate_probes(f), &it.log))
            .collect();
        AggregateCoverage {
            label: "t.c".into(),
            functions,
        }
    }

    const ABS: &str = "int iabs(int x) { if (x < 0) { return -x; } return x; }";

    #[test]
    fn one_sided_test_gives_partial_branch() {
        let agg = coverage_of(ABS, &[("iabs", vec![Value::Int(5)])]);
        let f = &agg.functions[0];
        assert_eq!(f.branches_total, 2);
        assert_eq!(f.branches_hit, 1);
        assert!(f.statement_pct() < 100.0); // `return -x` not executed
        assert_eq!(f.mcdc_pct(), 0.0); // condition never flipped
    }

    #[test]
    fn two_sided_test_gives_full_coverage() {
        let agg = coverage_of(
            ABS,
            &[
                ("iabs", vec![Value::Int(5)]),
                ("iabs", vec![Value::Int(-5)]),
            ],
        );
        let f = &agg.functions[0];
        assert_eq!(f.statement_pct(), 100.0);
        assert_eq!(f.branch_pct(), 100.0);
        assert_eq!(f.mcdc_pct(), 100.0);
    }

    #[test]
    fn mcdc_stricter_than_branch() {
        // Decision with && : branch coverage achievable with 2 tests,
        // MC/DC of both conditions needs the right 3.
        let src = "int f(int a, int b) { if (a > 0 && b > 0) { return 1; } return 0; }";
        let partial = coverage_of(
            src,
            &[
                ("f", vec![Value::Int(1), Value::Int(1)]), // T,T → true
                ("f", vec![Value::Int(0), Value::Int(1)]), // F,masked → false
            ],
        );
        let f = &partial.functions[0];
        assert_eq!(f.branch_pct(), 100.0);
        assert_eq!(f.conditions_covered, 1); // only `a` independent so far
        let full = coverage_of(
            src,
            &[
                ("f", vec![Value::Int(1), Value::Int(1)]),
                ("f", vec![Value::Int(0), Value::Int(1)]),
                ("f", vec![Value::Int(1), Value::Int(0)]),
            ],
        );
        assert_eq!(full.functions[0].mcdc_pct(), 100.0);
    }

    #[test]
    fn uncalled_functions_excluded_on_request() {
        let src = "int used(int x) { return x; }\nint unused(int x) { if (x) return 1; return 0; }";
        let agg = coverage_of(src, &[("used", vec![Value::Int(1)])]);
        assert_eq!(agg.statement_pct(true), 100.0);
        assert!(agg.statement_pct(false) < 100.0);
    }

    #[test]
    fn switch_branches_counted() {
        let src = "int f(int x) { switch (x) { case 1: return 10; case 2: return 20; default: return 0; } }";
        let one = coverage_of(src, &[("f", vec![Value::Int(1)])]);
        assert_eq!(one.functions[0].branches_total, 3);
        assert_eq!(one.functions[0].branches_hit, 1);
        let all = coverage_of(
            src,
            &[
                ("f", vec![Value::Int(1)]),
                ("f", vec![Value::Int(2)]),
                ("f", vec![Value::Int(7)]),
            ],
        );
        assert_eq!(all.functions[0].branch_pct(), 100.0);
    }

    #[test]
    fn empty_function_is_fully_covered_when_called() {
        let agg = coverage_of("void f() {}", &[]);
        // No probes at all → 100% by convention, but uncalled.
        assert_eq!(agg.functions[0].statement_pct(), 100.0);
        assert!(!agg.functions[0].called);
    }
}
