//! Defensive-programming facts (paper §3.1.4, Observation 6; ISO
//! 26262-6 Table 1 row 4): which names a function's conditions test,
//! and do functions validate their inputs? Unvalidated pointer
//! dereferences and discarded return values are the bundled
//! `defensive-pointer-param` and `defensive-unchecked-return` rules.

use crate::CheckContext;
use adsafe_lang::ast::{Expr, ExprKind, FunctionDef, StmtKind};
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

/// Names mentioned in any condition expression within the function.
pub fn condition_tested_names(f: &FunctionDef) -> HashSet<String> {
    let mut names = HashSet::new();
    walk_stmts(f, |s| match &s.kind {
        StmtKind::If { cond, .. }
        | StmtKind::While { cond, .. }
        | StmtKind::DoWhile { cond, .. }
        | StmtKind::Switch { cond, .. }
        | StmtKind::For {
            cond: Some(cond), ..
        } => collect_idents(cond, &mut names),
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

/// Measures [`ValidationFacts`] for one function, given its
/// [`condition_tested_names`].
pub fn validation_facts(f: &FunctionDef, tested: &HashSet<String>) -> ValidationFacts {
    let names: Vec<&str> = f
        .sig
        .params
        .iter()
        .filter_map(|p| p.name.as_deref())
        .collect();
    if names.is_empty() {
        return ValidationFacts::default();
    }
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
        let v = validation_facts(f, &condition_tested_names(f));
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

    #[test]
    fn assert_counts_as_validation() {
        let mut set = AnalysisSet::new();
        set.add(
            "m",
            "t.cc",
            "float head(float* p) { assert(p); return *p; }",
        );
        let cx = set.context();
        let (_, f) = cx.functions().next().unwrap();
        let tested = condition_tested_names(f);
        assert!(tested.contains("p"));
        assert!(validation_facts(f, &tested).validates);
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
