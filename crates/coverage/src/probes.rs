//! Static probe enumeration: before running any test, the instrumenter
//! walks each function and enumerates every coverage obligation —
//! executable statements, branch edges, and MC/DC conditions — so the
//! report can divide *hit* by *total*.

use adsafe_lang::ast::{BinOp, Expr, ExprKind, FunctionDef, Stmt, StmtKind, UnOp};
use adsafe_lang::visit::walk_stmts;
use adsafe_lang::Span;
use std::collections::HashMap;

/// Identifies a decision (a boolean control-flow condition) by its span.
pub type DecisionId = Span;

/// The static probe universe of one function.
#[derive(Debug, Clone, Default)]
pub struct FunctionProbes {
    /// Qualified function name.
    pub name: String,
    /// Spans of all executable statements.
    pub statements: Vec<Span>,
    /// All boolean decisions (span) with their condition-leaf spans in
    /// evaluation order.
    pub decisions: Vec<(DecisionId, Vec<Span>)>,
    /// Spans of `case`/`default` labels (each is one branch edge).
    pub case_labels: Vec<Span>,
}

impl FunctionProbes {
    /// Total branch edges: two per decision plus one per case label.
    pub fn branch_edges(&self) -> usize {
        self.decisions.len() * 2 + self.case_labels.len()
    }

    /// Total MC/DC condition obligations.
    pub fn condition_count(&self) -> usize {
        self.decisions.iter().map(|(_, c)| c.len()).sum()
    }
}

/// Collects the condition leaves of a decision expression: the maximal
/// non-logical subexpressions under `&&`/`||`/`!`.
pub fn condition_leaves(e: &Expr) -> Vec<Span> {
    let mut out = Vec::new();
    fn rec(e: &Expr, out: &mut Vec<Span>) {
        match &e.kind {
            ExprKind::Binary {
                op: BinOp::LogAnd | BinOp::LogOr,
                lhs,
                rhs,
            } => {
                rec(lhs, out);
                rec(rhs, out);
            }
            ExprKind::Unary {
                op: UnOp::Not,
                expr,
            } => rec(expr, out),
            _ => out.push(e.span),
        }
    }
    rec(e, &mut out);
    out
}

/// Whether a statement kind counts as executable for statement coverage.
fn is_executable(s: &Stmt) -> bool {
    !matches!(
        s.kind,
        StmtKind::Block(_)
            | StmtKind::Empty
            | StmtKind::Label(..)
            | StmtKind::Case(_)
            | StmtKind::Default
            | StmtKind::Opaque
    )
}

/// Enumerates the probes of one function.
pub fn enumerate_probes(func: &FunctionDef) -> FunctionProbes {
    let mut p = FunctionProbes {
        name: func.sig.qualified_name.clone(),
        ..Default::default()
    };
    walk_stmts(func, |s| {
        if is_executable(s) {
            p.statements.push(s.span);
        }
        match &s.kind {
            StmtKind::If { cond, .. }
            | StmtKind::While { cond, .. }
            | StmtKind::DoWhile { cond, .. } => {
                p.decisions.push((cond.span, condition_leaves(cond)));
            }
            StmtKind::For { cond: Some(c), .. } => {
                p.decisions.push((c.span, condition_leaves(c)));
            }
            StmtKind::Switch { body, .. } => {
                for st in &body.stmts {
                    if matches!(st.kind, StmtKind::Case(_) | StmtKind::Default) {
                        p.case_labels.push(st.span);
                    }
                }
            }
            _ => {}
        }
    });
    // Ternary operators are decisions too.
    crate::probes::walk_ternaries(func, |t| {
        if let ExprKind::Ternary { cond, .. } = &t.kind {
            p.decisions.push((cond.span, condition_leaves(cond)));
        }
    });
    p
}

/// Walks every ternary expression in a function.
pub fn walk_ternaries(func: &FunctionDef, mut f: impl FnMut(&Expr)) {
    adsafe_lang::visit::walk_exprs(func, |e| {
        if matches!(e.kind, ExprKind::Ternary { .. }) {
            f(e);
        }
    });
}

/// One recorded evaluation of a decision: the outcome of each condition
/// leaf (`None` = masked / not evaluated due to short-circuit) and the
/// decision outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Condition outcomes in leaf order.
    pub conditions: Vec<Option<bool>>,
    /// Final decision outcome.
    pub outcome: bool,
}

/// Dynamic coverage state accumulated over test runs.
#[derive(Debug, Clone, Default)]
pub struct CoverageLog {
    /// Hit statements (span → hit count).
    pub stmt_hits: HashMap<Span, u64>,
    /// Decision outcomes observed (span → (true_seen, false_seen)).
    pub branch_hits: HashMap<DecisionId, (bool, bool)>,
    /// Case labels taken.
    pub case_hits: HashMap<Span, u64>,
    /// Full evaluation history per decision, for MC/DC.
    pub decision_records: HashMap<DecisionId, Vec<DecisionRecord>>,
}

impl CoverageLog {
    /// Records a statement execution.
    pub fn hit_stmt(&mut self, span: Span) {
        *self.stmt_hits.entry(span).or_insert(0) += 1;
    }

    /// Records a decision outcome with its condition vector.
    pub fn hit_decision(&mut self, id: DecisionId, rec: DecisionRecord) {
        let e = self.branch_hits.entry(id).or_insert((false, false));
        if rec.outcome {
            e.0 = true;
        } else {
            e.1 = true;
        }
        let records = self.decision_records.entry(id).or_default();
        // Bound the history to keep MC/DC analysis cheap on hot loops.
        if records.len() < 4096 && !records.contains(&rec) {
            records.push(rec);
        }
    }

    /// Records a case label being taken.
    pub fn hit_case(&mut self, span: Span) {
        *self.case_hits.entry(span).or_insert(0) += 1;
    }

    /// Merges another log into this one.
    pub fn merge(&mut self, other: &CoverageLog) {
        for (s, n) in &other.stmt_hits {
            *self.stmt_hits.entry(*s).or_insert(0) += n;
        }
        for (d, (t, f)) in &other.branch_hits {
            let e = self.branch_hits.entry(*d).or_insert((false, false));
            e.0 |= t;
            e.1 |= f;
        }
        for (s, n) in &other.case_hits {
            *self.case_hits.entry(*s).or_insert(0) += n;
        }
        for (d, recs) in &other.decision_records {
            let mine = self.decision_records.entry(*d).or_default();
            for r in recs {
                if mine.len() < 4096 && !mine.contains(r) {
                    mine.push(r.clone());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsafe_lang::{parse_source, FileId};

    fn probes(src: &str) -> FunctionProbes {
        let p = parse_source(FileId(0), src);
        enumerate_probes(p.unit.functions()[0])
    }

    #[test]
    fn counts_statements_and_decisions() {
        let p = probes("int f(int x) { int a = 1; if (x > 0 && a > 0) { a = 2; } return a; }");
        // decl, if, assign, return
        assert_eq!(p.statements.len(), 4);
        assert_eq!(p.decisions.len(), 1);
        assert_eq!(p.decisions[0].1.len(), 2); // two leaves under &&
        assert_eq!(p.branch_edges(), 2);
        assert_eq!(p.condition_count(), 2);
    }

    #[test]
    fn loops_are_decisions() {
        let p = probes("void f(int n) { while (n > 0) n--; for (int i = 0; i < n; i++) {} do n++; while (n < 3); }");
        assert_eq!(p.decisions.len(), 3);
    }

    #[test]
    fn switch_cases_are_edges() {
        let p = probes(
            "void f(int x) { switch (x) { case 1: break; case 2: break; default: break; } }",
        );
        assert_eq!(p.case_labels.len(), 3);
        assert_eq!(p.branch_edges(), 3);
    }

    #[test]
    fn ternary_is_a_decision() {
        let p = probes("int f(int a) { return a > 0 ? a : -a; }");
        assert_eq!(p.decisions.len(), 1);
    }

    #[test]
    fn not_operator_descends_to_leaf() {
        let p = probes("int f(int a, int b) { if (!(a > 0) || b) return 1; return 0; }");
        assert_eq!(p.decisions[0].1.len(), 2);
    }

    #[test]
    fn log_merge_and_hits() {
        let mut a = CoverageLog::default();
        let s = Span::new(FileId(0), 0, 1);
        let d = Span::new(FileId(0), 2, 3);
        a.hit_stmt(s);
        a.hit_decision(
            d,
            DecisionRecord {
                conditions: vec![Some(true)],
                outcome: true,
            },
        );
        let mut b = CoverageLog::default();
        b.hit_stmt(s);
        b.hit_decision(
            d,
            DecisionRecord {
                conditions: vec![Some(false)],
                outcome: false,
            },
        );
        a.merge(&b);
        assert_eq!(a.stmt_hits[&s], 2);
        assert_eq!(a.branch_hits[&d], (true, true));
        assert_eq!(a.decision_records[&d].len(), 2);
    }
}
