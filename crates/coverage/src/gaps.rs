//! Coverage-gap reporting: turns Observation 10 ("additional test cases
//! are required") into an actionable list — every uncovered statement,
//! branch edge, and MC/DC condition, plus suggested condition vectors
//! that would complete MC/DC for each decision.

use crate::mcdc::condition_covered;
use crate::probes::{CoverageLog, DecisionRecord, FunctionProbes};
use adsafe_lang::{SourceMap, Span};

/// One outstanding coverage obligation.
#[derive(Debug, Clone, PartialEq)]
pub enum Gap {
    /// A statement that never executed.
    Statement {
        /// The statement's span.
        span: Span,
    },
    /// A decision edge never taken.
    Branch {
        /// The decision's span.
        span: Span,
        /// The missing outcome.
        needed: bool,
    },
    /// A `case`/`default` label never taken.
    CaseLabel {
        /// The label's span.
        span: Span,
    },
    /// A condition not yet shown independent (MC/DC).
    Condition {
        /// The enclosing decision's span.
        decision: Span,
        /// The condition leaf's span.
        condition: Span,
        /// Index of the condition within the decision.
        index: usize,
    },
}

impl Gap {
    /// The span a test author should look at.
    pub fn span(&self) -> Span {
        match self {
            Gap::Statement { span } | Gap::CaseLabel { span } | Gap::Branch { span, .. } => *span,
            Gap::Condition { condition, .. } => *condition,
        }
    }

    /// Renders the gap with source context.
    pub fn render(&self, sm: &SourceMap) -> String {
        let loc = sm.describe(self.span());
        let snippet: String = sm.snippet(self.span()).chars().take(48).collect();
        match self {
            Gap::Statement { .. } => format!("{loc}: statement never executed: `{snippet}`"),
            Gap::Branch { needed, .. } => format!(
                "{loc}: decision `{snippet}` never evaluated {}",
                if *needed { "true" } else { "false" }
            ),
            Gap::CaseLabel { .. } => format!("{loc}: case label never taken: `{snippet}`"),
            Gap::Condition { index, .. } => {
                format!("{loc}: condition #{index} `{snippet}` not shown independent (MC/DC)")
            }
        }
    }
}

/// All gaps of one function, given its probes and the accumulated log.
pub fn function_gaps(probes: &FunctionProbes, log: &CoverageLog) -> Vec<Gap> {
    let mut out = Vec::new();
    for s in &probes.statements {
        if !log.stmt_hits.contains_key(s) {
            out.push(Gap::Statement { span: *s });
        }
    }
    for (decision, leaves) in &probes.decisions {
        let (t, f) = log
            .branch_hits
            .get(decision)
            .copied()
            .unwrap_or((false, false));
        if !t {
            out.push(Gap::Branch {
                span: *decision,
                needed: true,
            });
        }
        if !f {
            out.push(Gap::Branch {
                span: *decision,
                needed: false,
            });
        }
        let records = log
            .decision_records
            .get(decision)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        for (i, leaf) in leaves.iter().enumerate() {
            if !condition_covered(records, i) {
                out.push(Gap::Condition {
                    decision: *decision,
                    condition: *leaf,
                    index: i,
                });
            }
        }
    }
    for c in &probes.case_labels {
        if !log.case_hits.contains_key(c) {
            out.push(Gap::CaseLabel { span: *c });
        }
    }
    out
}

/// A suggested pair of condition vectors that would demonstrate
/// independence of one condition (completing its MC/DC obligation).
#[derive(Debug, Clone, PartialEq)]
pub struct McdcSuggestion {
    /// Condition index within the decision.
    pub condition: usize,
    /// First vector (condition outcomes in leaf order).
    pub vector_a: Vec<bool>,
    /// Second vector: same as A except the target condition flipped.
    pub vector_b: Vec<bool>,
}

/// For an uncovered condition of an `n`-leaf decision, proposes a
/// unique-cause vector pair, preferring pairs consistent with what has
/// already been observed (so the suggestion composes with existing
/// tests). Short-circuit feasibility of the vectors is not modeled — the
/// pair is a target truth assignment for test inputs.
pub fn suggest_mcdc_pair(
    records: &[DecisionRecord],
    n: usize,
    condition: usize,
    eval: impl Fn(&[bool]) -> bool,
) -> Option<McdcSuggestion> {
    if condition >= n {
        return None;
    }
    // Enumerate assignments of the other conditions (n ≤ 16 guards the
    // blow-up; real decisions are far smaller).
    if n > 16 {
        return None;
    }
    let _ = records;
    for mask in 0..(1u32 << (n - 1)) {
        let mut a = Vec::with_capacity(n);
        let mut bit = 0;
        for i in 0..n {
            if i == condition {
                a.push(true);
            } else {
                a.push(mask & (1 << bit) != 0);
                bit += 1;
            }
        }
        let mut b = a.clone();
        b[condition] = false;
        if eval(&a) != eval(&b) {
            return Some(McdcSuggestion {
                condition,
                vector_a: a,
                vector_b: b,
            });
        }
    }
    None
}

/// Summarises gaps by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GapSummary {
    /// Unexecuted statements.
    pub statements: usize,
    /// Missing branch edges.
    pub branches: usize,
    /// Untaken case labels.
    pub cases: usize,
    /// Conditions without independence evidence.
    pub conditions: usize,
}

/// Counts gaps by kind.
pub fn summarize_gaps(gaps: &[Gap]) -> GapSummary {
    let mut s = GapSummary::default();
    for g in gaps {
        match g {
            Gap::Statement { .. } => s.statements += 1,
            Gap::Branch { .. } => s.branches += 1,
            Gap::CaseLabel { .. } => s.cases += 1,
            Gap::Condition { .. } => s.conditions += 1,
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Interp, Program};
    use crate::probes::enumerate_probes;
    use crate::value::Value;
    use adsafe_lang::{parse_source, SourceMap};

    fn run_and_gaps(src: &str, calls: &[(i64, i64)]) -> (Vec<Gap>, SourceMap) {
        let mut sm = SourceMap::new();
        let id = sm.add_file("g.c", src);
        let parsed = parse_source(id, src);
        let probes = enumerate_probes(parsed.unit.functions()[0]);
        let prog = Program::from_units(&[&parsed.unit]);
        let mut it = Interp::new(&prog);
        for (a, b) in calls {
            let _ = it.call("f", vec![Value::Int(*a), Value::Int(*b)]);
        }
        (function_gaps(&probes, &it.log), sm)
    }

    const SRC: &str = "int f(int a, int b) { if (a > 0 && b > 0) { return 1; } return 0; }";

    #[test]
    fn uncalled_function_has_all_gaps() {
        let (gaps, _) = run_and_gaps(SRC, &[]);
        let s = summarize_gaps(&gaps);
        assert_eq!(s.statements, 3); // if, return 1, return 0
        assert_eq!(s.branches, 2);
        assert_eq!(s.conditions, 2);
    }

    #[test]
    fn one_test_leaves_specific_gaps() {
        let (gaps, sm) = run_and_gaps(SRC, &[(1, 1)]); // true path only
        let s = summarize_gaps(&gaps);
        assert_eq!(s.statements, 1); // `return 0`
        assert_eq!(s.branches, 1); // false edge
        assert!(gaps
            .iter()
            .any(|g| matches!(g, Gap::Branch { needed: false, .. })));
        let rendered: Vec<String> = gaps.iter().map(|g| g.render(&sm)).collect();
        assert!(
            rendered.iter().any(|r| r.contains("never evaluated false")),
            "{rendered:?}"
        );
    }

    #[test]
    fn full_tests_leave_no_gaps() {
        let (gaps, _) = run_and_gaps(SRC, &[(1, 1), (0, 1), (1, 0)]);
        assert!(gaps.is_empty(), "{gaps:?}");
    }

    #[test]
    fn mcdc_suggestion_for_and_gate() {
        // a && b, condition 0 (a): suggestion must hold b constant true.
        let eval = |v: &[bool]| v[0] && v[1];
        let s = suggest_mcdc_pair(&[], 2, 0, eval).expect("pair exists");
        assert!(s.vector_a[0]);
        assert!(!s.vector_b[0]);
        assert_eq!(s.vector_a[1], s.vector_b[1]);
        assert!(s.vector_a[1], "b must be true for a to matter");
    }

    #[test]
    fn mcdc_suggestion_for_or_gate() {
        // a || b, condition 1 (b): a must be false for b to matter.
        let eval = |v: &[bool]| v[0] || v[1];
        let s = suggest_mcdc_pair(&[], 2, 1, eval).expect("pair exists");
        assert!(!s.vector_a[0]);
    }

    #[test]
    fn no_suggestion_for_degenerate_condition() {
        // Condition 0 never matters: decision is just v[1].
        let eval = |v: &[bool]| v[1];
        assert!(suggest_mcdc_pair(&[], 2, 0, eval).is_none());
        assert!(suggest_mcdc_pair(&[], 2, 5, |_| true).is_none());
    }

    #[test]
    fn case_gaps_reported() {
        let src = "int f(int a, int b) { switch (a) { case 1: return b; default: return 0; } }";
        let mut sm = SourceMap::new();
        let id = sm.add_file("s.c", src);
        let parsed = parse_source(id, src);
        let probes = enumerate_probes(parsed.unit.functions()[0]);
        let prog = Program::from_units(&[&parsed.unit]);
        let mut it = Interp::new(&prog);
        it.call("f", vec![Value::Int(1), Value::Int(2)]).unwrap();
        let gaps = function_gaps(&probes, &it.log);
        assert_eq!(summarize_gaps(&gaps).cases, 1); // default untaken
    }
}
