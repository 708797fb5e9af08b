//! Defensive-programming analysis (paper §3.1.4, Observation 6; ISO
//! 26262-6 Table 1 row 4): do functions validate their inputs, and do
//! callers handle return values?

use crate::diag::{Diagnostic, Severity};
use crate::{Check, CheckContext};
use adsafe_lang::ast::{Expr, ExprKind, FunctionDef, StmtKind, UnOp};
use adsafe_lang::visit::{walk_exprs, walk_stmts};
use std::collections::HashSet;

/// Calls whose return value encodes an error and must be checked.
pub const MUST_CHECK_FNS: &[&str] = &[
    "malloc",
    "calloc",
    "realloc",
    "fopen",
    "fread",
    "fwrite",
    "cudaMalloc",
    "cudaMemcpy",
    "cudaFree",
    "cudaDeviceSynchronize",
    "cudaGetLastError",
    "cudaStreamCreate",
];

/// Pointer parameters must be null-checked before being dereferenced.
#[derive(Debug, Default, Clone, Copy)]
pub struct PointerParamCheck;

/// Names mentioned in any condition expression within the function.
fn condition_tested_names(f: &FunctionDef) -> HashSet<String> {
    let mut names = HashSet::new();
    let record = |e: &Expr, names: &mut HashSet<String>| {
        collect_idents(e, names);
    };
    walk_stmts(f, |s| match &s.kind {
        StmtKind::If { cond, .. }
        | StmtKind::While { cond, .. }
        | StmtKind::DoWhile { cond, .. }
        | StmtKind::Switch { cond, .. } => record(cond, &mut names),
        StmtKind::For { cond: Some(c), .. } => record(c, &mut names),
        _ => {}
    });
    // Assertion-style calls also count as validation.
    walk_exprs(f, |e| {
        if let ExprKind::Call { callee, args } = &e.kind {
            if let ExprKind::Ident(n) = &callee.kind {
                let n = n.rsplit("::").next().unwrap_or(n);
                if matches!(
                    n,
                    "assert" | "CHECK" | "CHECK_NOTNULL" | "DCHECK" | "ACHECK"
                ) {
                    for a in args {
                        collect_idents(a, &mut names);
                    }
                }
            }
        }
        if let ExprKind::Ternary { cond, .. } = &e.kind {
            collect_idents(cond, &mut names);
        }
    });
    names
}

fn collect_idents(e: &Expr, out: &mut HashSet<String>) {
    match &e.kind {
        ExprKind::Ident(n) => {
            out.insert(n.clone());
        }
        ExprKind::Unary { expr, .. } => collect_idents(expr, out),
        ExprKind::Binary { lhs, rhs, .. } => {
            collect_idents(lhs, out);
            collect_idents(rhs, out);
        }
        ExprKind::Member { base, .. } => collect_idents(base, out),
        ExprKind::Index { base, index } => {
            collect_idents(base, out);
            collect_idents(index, out);
        }
        ExprKind::Call { args, .. } => {
            for a in args {
                collect_idents(a, out);
            }
        }
        ExprKind::Cast { expr, .. } => collect_idents(expr, out),
        _ => {}
    }
}

/// Pointer-typed parameter names dereferenced (`*p`, `p[i]`, `p->f`)
/// anywhere in the body.
fn dereferenced_params(f: &FunctionDef) -> Vec<(String, adsafe_lang::Span)> {
    let ptr_params: HashSet<&str> = f
        .sig
        .params
        .iter()
        .filter(|p| p.ty.is_pointer_like())
        .filter_map(|p| p.name.as_deref())
        .collect();
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    walk_exprs(f, |e| {
        let target = match &e.kind {
            ExprKind::Unary {
                op: UnOp::Deref,
                expr,
            } => Some(expr),
            ExprKind::Index { base, .. } => Some(base),
            ExprKind::Member {
                base, arrow: true, ..
            } => Some(base),
            _ => None,
        };
        if let Some(t) = target {
            if let ExprKind::Ident(n) = &t.kind {
                if ptr_params.contains(n.as_str()) && seen.insert(n.clone()) {
                    out.push((n.clone(), e.span));
                }
            }
        }
    });
    out
}

impl Check for PointerParamCheck {
    fn id(&self) -> &'static str {
        "defensive-pointer-param"
    }
    fn description(&self) -> &'static str {
        "pointer parameters shall be validated before dereference"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table1.Row4"]
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (_, f) in cx.functions() {
            let tested = condition_tested_names(f);
            for (name, span) in dereferenced_params(f) {
                if !tested.contains(&name) {
                    out.push(
                        Diagnostic::new(
                            self.id(),
                            Severity::Warning,
                            span,
                            format!("pointer parameter `{name}` dereferenced without validation"),
                        )
                        .in_function(&f.sig.qualified_name),
                    );
                }
            }
        }
        out
    }
}

/// Return values of error-reporting calls must be used.
#[derive(Debug, Default, Clone, Copy)]
pub struct UncheckedCallCheck;

impl Check for UncheckedCallCheck {
    fn id(&self) -> &'static str {
        "defensive-unchecked-return"
    }
    fn description(&self) -> &'static str {
        "callers shall handle all return values of called functions"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table1.Row4"]
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (_, f) in cx.functions() {
            // A must-check call used directly as an expression statement
            // discards its status.
            walk_stmts(f, |s| {
                if let StmtKind::Expr(e) = &s.kind {
                    if let ExprKind::Call { .. } = &e.kind {
                        if let Some(name) = e.callee_name() {
                            if MUST_CHECK_FNS.contains(&name) {
                                out.push(
                                    Diagnostic::new(
                                        self.id(),
                                        Severity::Warning,
                                        e.span,
                                        format!("return value of `{name}` is discarded"),
                                    )
                                    .in_function(&f.sig.qualified_name),
                                );
                            }
                        }
                    }
                }
            });
        }
        out
    }
}

/// Per-function input-validation facts, cacheable per file: whether the
/// function has named parameters at all and whether it tests at least
/// one of them. [`validation_ratio`] is their aggregation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidationFacts {
    /// The function has at least one named parameter.
    pub has_named_params: bool,
    /// At least one named parameter appears in a condition/assertion.
    pub validates: bool,
}

/// Measures [`ValidationFacts`] for one function.
pub fn validation_facts(f: &FunctionDef) -> ValidationFacts {
    let names: Vec<&str> = f
        .sig
        .params
        .iter()
        .filter_map(|p| p.name.as_deref())
        .collect();
    if names.is_empty() {
        return ValidationFacts::default();
    }
    let tested = condition_tested_names(f);
    ValidationFacts {
        has_named_params: true,
        validates: names.iter().any(|n| tested.contains(*n)),
    }
}

/// Summary statistic: fraction of functions that validate at least one of
/// their parameters (the paper reports defensive programming is absent).
pub fn validation_ratio(cx: &CheckContext<'_>) -> f64 {
    let mut with_params = 0usize;
    let mut validating = 0usize;
    for (_, f) in cx.functions() {
        let v = validation_facts(f);
        if !v.has_named_params {
            continue;
        }
        with_params += 1;
        if v.validates {
            validating += 1;
        }
    }
    if with_params == 0 {
        1.0
    } else {
        validating as f64 / with_params as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalysisSet;

    fn ctx_run(check: &dyn Check, src: &str) -> Vec<Diagnostic> {
        let mut set = AnalysisSet::new();
        set.add("m", "t.cc", src);
        check.run(&set.context())
    }

    #[test]
    fn unchecked_deref_flagged() {
        let d = ctx_run(&PointerParamCheck, "float head(float* p) { return p[0]; }");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("`p`"));
    }

    #[test]
    fn null_checked_deref_clean() {
        let d = ctx_run(
            &PointerParamCheck,
            "float head(float* p) { if (p == 0) return 0.0f; return p[0]; }",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn assert_counts_as_validation() {
        let d = ctx_run(
            &PointerParamCheck,
            "float head(float* p) { assert(p); return *p; }",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn arrow_deref_flagged() {
        let d = ctx_run(
            &PointerParamCheck,
            "struct Obj { int id; };\nint get_id(Obj* o) { return o->id; }",
        );
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn non_pointer_params_ignored() {
        let d = ctx_run(&PointerParamCheck, "int f(int a) { return a + 1; }");
        assert!(d.is_empty());
    }

    #[test]
    fn discarded_cuda_status_flagged() {
        let d = ctx_run(
            &UncheckedCallCheck,
            "void f(void* p, int n) { cudaMalloc(&p, n); }",
        );
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn checked_status_clean() {
        let d = ctx_run(
            &UncheckedCallCheck,
            "int f(void* p, int n) { if (cudaMalloc(&p, n) != 0) return -1; return 0; }",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn validation_ratio_measures() {
        let mut set = AnalysisSet::new();
        set.add(
            "m",
            "t.cc",
            "int checked(int a) { if (a < 0) return 0; return a; }\n\
             int unchecked(int a) { return a * 2; }",
        );
        let cx = set.context();
        let r = validation_ratio(&cx);
        assert!((r - 0.5).abs() < 1e-12, "r = {r}");
    }
}
