//! Strong-typing analysis (paper §3.1.3, Observation 5; ISO 26262-6
//! Table 8 row 7): a heuristic implicit-narrowing detector. The
//! explicit-cast census (Table 1 row 3) is the bundled
//! `typing-explicit-cast` rule over cast `site` rows.

use crate::diag::{Diagnostic, Severity};
use crate::{Check, CheckContext};
use adsafe_lang::ast::{ExprKind, StmtKind, TypeRef};
use adsafe_lang::visit::{walk_exprs, walk_stmts};

/// Rank of an arithmetic type for narrowing detection; `None` when the
/// type is not a recognised arithmetic type.
fn numeric_rank(ty: &TypeRef) -> Option<u8> {
    if ty.is_pointer_like() {
        return None;
    }
    let r = match ty.name.as_str() {
        "bool" => 1,
        "char" | "signed char" | "unsigned char" | "int8_t" | "uint8_t" => 2,
        "short" | "unsigned short" | "int16_t" | "uint16_t" => 3,
        "int" | "unsigned" | "unsigned int" | "int32_t" | "uint32_t" => 4,
        "long" | "unsigned long" | "long long" | "unsigned long long" | "int64_t" | "uint64_t"
        | "size_t" => 5,
        "float" => 6,
        "double" | "long double" => 7,
        _ => return None,
    };
    Some(r)
}

/// Heuristic implicit-conversion detector: local declarations whose
/// initialiser has a visibly wider type (float literal into int, wider
/// local into narrower local).
#[derive(Debug, Default, Clone, Copy)]
pub struct ImplicitConversionCheck;

impl Check for ImplicitConversionCheck {
    fn id(&self) -> &'static str {
        "typing-implicit-conversion"
    }
    fn description(&self) -> &'static str {
        "no implicit narrowing type conversions"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table8.Row7"]
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (_, f) in cx.functions() {
            // Track declared types of locals for assignment analysis.
            let mut local_types: std::collections::HashMap<String, TypeRef> =
                std::collections::HashMap::new();
            for p in &f.sig.params {
                if let Some(n) = &p.name {
                    local_types.insert(n.clone(), p.ty.clone());
                }
            }
            walk_stmts(f, |s| {
                if let StmtKind::Decl(vars) = &s.kind {
                    for v in vars {
                        local_types.insert(v.name.clone(), v.ty.clone());
                        if let (Some(init), Some(target)) = (&v.init, numeric_rank(&v.ty)) {
                            if let Some(source) = expr_rank(init, &local_types) {
                                if source > target {
                                    out.push(
                                        Diagnostic::new(
                                            self.id(),
                                            Severity::Warning,
                                            v.span,
                                            format!(
                                                "implicit narrowing initialisation of `{}: {}`",
                                                v.name,
                                                v.ty.display()
                                            ),
                                        )
                                        .in_function(&f.sig.qualified_name),
                                    );
                                }
                            }
                        }
                    }
                }
            });
            walk_exprs(f, |e| {
                if let ExprKind::Assign {
                    op: adsafe_lang::ast::AssignOp::Assign,
                    lhs,
                    rhs,
                } = &e.kind
                {
                    if let ExprKind::Ident(name) = &lhs.kind {
                        if let Some(target_ty) = local_types.get(name) {
                            if let (Some(target), Some(source)) =
                                (numeric_rank(target_ty), expr_rank(rhs, &local_types))
                            {
                                if source > target {
                                    out.push(
                                        Diagnostic::new(
                                            self.id(),
                                            Severity::Warning,
                                            e.span,
                                            format!(
                                                "implicit narrowing assignment to `{name}: {}`",
                                                target_ty.display()
                                            ),
                                        )
                                        .in_function(&f.sig.qualified_name),
                                    );
                                }
                            }
                        }
                    }
                }
            });
        }
        out
    }
}

/// Best-effort rank of an expression's type.
fn expr_rank(
    e: &adsafe_lang::ast::Expr,
    locals: &std::collections::HashMap<String, TypeRef>,
) -> Option<u8> {
    match &e.kind {
        // Integer literals rank by the smallest type that holds the value,
        // so idiomatic `short s = 0;` does not count as narrowing.
        ExprKind::IntLit(v) => Some(match v.unsigned_abs() {
            0..=127 => 2,
            128..=32_767 => 3,
            32_768..=2_147_483_647 => 4,
            _ => 5,
        }),
        // The AST does not retain the `f` suffix; rank literals as
        // `float` so idiomatic `float x = 0.5f;` is not flagged. The
        // interesting narrowings (float→int, double variable→float)
        // involve a typed operand and are still detected.
        ExprKind::FloatLit(_) => Some(6),
        ExprKind::BoolLit(_) => Some(1),
        ExprKind::Ident(n) => locals.get(n).and_then(numeric_rank),
        ExprKind::Binary { op, lhs, rhs } if !op.is_comparison() && !op.is_logical() => {
            let l = expr_rank(lhs, locals)?;
            let r = expr_rank(rhs, locals)?;
            Some(l.max(r))
        }
        ExprKind::Binary { .. } => Some(1), // comparisons yield bool
        ExprKind::Cast { ty, .. } => numeric_rank(ty),
        ExprKind::Unary { expr, .. } => expr_rank(expr, locals),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalysisSet;

    fn diags(check: &dyn Check, src: &str) -> Vec<Diagnostic> {
        let mut set = AnalysisSet::new();
        set.add("m", "t.cc", src);
        check.run(&set.context())
    }

    #[test]
    fn narrowing_init_flagged() {
        let d = diags(&ImplicitConversionCheck, "void f(double d) { int x = d; }");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("narrowing initialisation"));
    }

    #[test]
    fn float_literal_into_int_flagged() {
        let d = diags(&ImplicitConversionCheck, "void f() { int x = 1.5; }");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn widening_is_fine() {
        let d = diags(&ImplicitConversionCheck, "void f(int i) { double x = i; }");
        assert!(d.is_empty());
    }

    #[test]
    fn narrowing_assignment_flagged() {
        let d = diags(
            &ImplicitConversionCheck,
            "void f(float wide) { short s = 0; s = wide; }",
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("assignment"));
    }

    #[test]
    fn explicit_cast_suppresses_implicit_finding() {
        let d = diags(
            &ImplicitConversionCheck,
            "void f(double d) { int x = (int)d; }",
        );
        // cast ranks as int → no narrowing finding here
        assert!(d.is_empty());
    }

    #[test]
    fn comparison_yields_bool_rank() {
        let d = diags(
            &ImplicitConversionCheck,
            "void f(double a, double b) { bool x = a > b; }",
        );
        assert!(d.is_empty());
    }
}
