//! Additional MISRA C:2012-inspired expression-level rules: octal
//! constants (rule 7.1), side effects in the right-hand operands of
//! `&&`/`||` (rule 13.5), and multiple declarators per declaration
//! (Dir 4.x / readability).

use crate::diag::{Diagnostic, Severity};
use crate::{Check, CheckContext};
use adsafe_lang::ast::{BinOp, Expr, ExprKind, StmtKind, UnOp};
use adsafe_lang::visit::{walk_exprs, walk_stmts};

/// MISRA 7.1: octal constants shall not be used (`052` reads as 42).
#[derive(Debug, Default, Clone, Copy)]
pub struct OctalLiteralCheck;

impl Check for OctalLiteralCheck {
    fn id(&self) -> &'static str {
        "misra-7.1-octal"
    }
    fn description(&self) -> &'static str {
        "octal constants shall not be used"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table1.Row2"]
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        // The AST normalises literal values, so the parse records the
        // octal spellings while it lexes.
        cx.entries
            .iter()
            .flat_map(|e| &e.unit.octal_literals)
            .map(|o| {
                Diagnostic::new(
                    self.id(),
                    Severity::Warning,
                    o.span,
                    format!("octal constant `{}`", o.lexeme),
                )
            })
            .collect()
    }
}

fn has_side_effect(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Assign { .. } | ExprKind::New { .. } | ExprKind::Delete { .. } => true,
        ExprKind::Unary { op, .. } => matches!(
            op,
            UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec
        ),
        ExprKind::Call { .. } | ExprKind::KernelLaunch { .. } => true, // conservatively
        ExprKind::Binary { lhs, rhs, .. } => has_side_effect(lhs) || has_side_effect(rhs),
        ExprKind::Ternary { cond, then_expr, else_expr } => {
            has_side_effect(cond) || has_side_effect(then_expr) || has_side_effect(else_expr)
        }
        ExprKind::Cast { expr, .. } => has_side_effect(expr),
        ExprKind::Index { base, index } => has_side_effect(base) || has_side_effect(index),
        ExprKind::Member { base, .. } => has_side_effect(base),
        _ => false,
    }
}

/// MISRA 13.5: the right-hand operand of `&&`/`||` shall not contain
/// side effects (it may never evaluate).
#[derive(Debug, Default, Clone, Copy)]
pub struct ShortCircuitSideEffectCheck;

impl Check for ShortCircuitSideEffectCheck {
    fn id(&self) -> &'static str {
        "misra-13.5-side-effect"
    }
    fn description(&self) -> &'static str {
        "no side effects in the RHS of && / ||"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table8.Row8"]
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (_, f) in cx.functions() {
            walk_exprs(f, |e| {
                if let ExprKind::Binary { op, rhs, .. } = &e.kind {
                    if matches!(op, BinOp::LogAnd | BinOp::LogOr) && has_side_effect(rhs) {
                        out.push(
                            Diagnostic::new(
                                self.id(),
                                Severity::Warning,
                                rhs.span,
                                "right operand of a short-circuit operator has side effects",
                            )
                            .in_function(&f.sig.qualified_name),
                        );
                    }
                }
            });
        }
        out
    }
}

/// Readability rule: one declarator per declaration statement
/// (`int a, b, *p;` hides the pointer among the ints).
#[derive(Debug, Default, Clone, Copy)]
pub struct MultipleDeclaratorsCheck;

impl Check for MultipleDeclaratorsCheck {
    fn id(&self) -> &'static str {
        "misra-decl-one-per-stmt"
    }
    fn description(&self) -> &'static str {
        "one declarator per declaration statement"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table1.Row7"]
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (_, f) in cx.functions() {
            walk_stmts(f, |s| {
                if let StmtKind::Decl(vars) = &s.kind {
                    if vars.len() > 1 {
                        out.push(
                            Diagnostic::new(
                                self.id(),
                                Severity::Info,
                                s.span,
                                format!("{} declarators in one statement", vars.len()),
                            )
                            .in_function(&f.sig.qualified_name),
                        );
                    }
                }
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalysisSet;

    fn run(check: &dyn Check, src: &str) -> Vec<Diagnostic> {
        let mut set = AnalysisSet::new();
        set.add("m", "t.cc", src);
        check.run(&set.context())
    }

    #[test]
    fn octal_flagged_decimal_and_hex_clean() {
        let d = run(&OctalLiteralCheck, "int a = 052; int b = 52; int c = 0x52; int z = 0;");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("052"));
    }

    #[test]
    fn octal_with_suffix_flagged() {
        let d = run(&OctalLiteralCheck, "unsigned a = 017u;");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn side_effect_in_rhs_flagged() {
        let d = run(
            &ShortCircuitSideEffectCheck,
            "int f(int a, int b) { if (a > 0 && b++ > 0) { return b; } return 0; }",
        );
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn call_in_rhs_flagged_conservatively() {
        let d = run(
            &ShortCircuitSideEffectCheck,
            "int ready();\nint f(int a) { return a > 0 || ready(); }",
        );
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn pure_rhs_clean() {
        let d = run(
            &ShortCircuitSideEffectCheck,
            "int f(int a, int b) { return a > 0 && b < 10; }",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn lhs_side_effect_not_flagged_by_this_rule() {
        // 13.5 targets the RHS; LHS always evaluates.
        let d = run(
            &ShortCircuitSideEffectCheck,
            "int f(int a, int b) { return a++ > 0 && b < 10; }",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn multiple_declarators_flagged() {
        let d = run(&MultipleDeclaratorsCheck, "void f() { int a = 1, b = 2; int c = 3; }");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("2 declarators"));
    }
}
