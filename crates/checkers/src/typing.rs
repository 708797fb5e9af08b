//! Strong-typing analysis (paper §3.1.3, Observation 5; ISO 26262-6
//! Table 8 row 7): a heuristic implicit-narrowing detector, the policy
//! behind the `narrowing-*` sites of the bundled
//! `typing-implicit-conversion` rule. The explicit-cast census (Table 1
//! row 3) is the bundled `typing-explicit-cast` rule over cast `site`
//! rows.

use adsafe_lang::ast::{AssignOp, Expr, ExprKind, FunctionDef, StmtKind, TypeRef};
use adsafe_lang::visit::{walk_exprs, walk_stmts};
use adsafe_lang::Span;
use std::collections::HashMap;

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

/// One implicit narrowing in a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Narrowing {
    /// An assignment (`true`) or a declaration's initialiser (`false`).
    pub assignment: bool,
    /// The declarator, or the whole assignment expression.
    pub span: Span,
    /// The target as `name: type`, its type as declared.
    pub target: String,
}

/// Every implicit narrowing in `f`: local declarations whose
/// initialiser, and plain assignments to a local or parameter whose
/// right-hand side, has a visibly wider arithmetic type (a float literal
/// into an int, a wider local into a narrower one). Initialisations come
/// first, in statement order, then assignments, in expression order. An
/// initialiser sees the declarations before it, its own included; an
/// assignment sees each name's last declaration in the body.
pub fn narrowings(f: &FunctionDef) -> Vec<Narrowing> {
    let mut out = Vec::new();
    let mut locals: HashMap<&str, &TypeRef> = f
        .sig
        .params
        .iter()
        .filter_map(|p| Some((p.name.as_deref()?, &p.ty)))
        .collect();
    walk_stmts(f, |s| {
        if let StmtKind::Decl(vars) = &s.kind {
            for v in vars {
                locals.insert(&v.name, &v.ty);
                let Some((init, target)) = v.init.as_ref().zip(numeric_rank(&v.ty)) else {
                    continue;
                };
                if expr_rank(init, &locals).is_some_and(|source| source > target) {
                    out.push(Narrowing {
                        assignment: false,
                        span: v.span,
                        target: format!("{}: {}", v.name, v.ty.display()),
                    });
                }
            }
        }
    });
    walk_exprs(f, |e| {
        let ExprKind::Assign {
            op: AssignOp::Assign,
            lhs,
            rhs,
        } = &e.kind
        else {
            return;
        };
        let ExprKind::Ident(name) = &lhs.kind else {
            return;
        };
        let Some(ty) = locals.get(name.as_str()) else {
            return;
        };
        if let (Some(target), Some(source)) = (numeric_rank(ty), expr_rank(rhs, &locals)) {
            if source > target {
                out.push(Narrowing {
                    assignment: true,
                    span: e.span,
                    target: format!("{name}: {}", ty.display()),
                });
            }
        }
    });
    out
}

/// Best-effort rank of an expression's type, its names looked up in
/// `locals`.
fn expr_rank(e: &Expr, locals: &HashMap<&str, &TypeRef>) -> Option<u8> {
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
        ExprKind::Ident(n) => locals.get(n.as_str()).and_then(|t| numeric_rank(t)),
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

    /// `(assignment, target)` of every narrowing in the first function
    /// of `src`.
    fn found(src: &str) -> Vec<(bool, String)> {
        let parsed = adsafe_lang::parse_source(adsafe_lang::FileId(0), src);
        narrowings(parsed.unit.functions()[0])
            .into_iter()
            .map(|n| (n.assignment, n.target))
            .collect()
    }

    #[test]
    fn narrowing_init_flagged() {
        assert_eq!(
            found("void f(double d) { int x = d; }"),
            [(false, "x: int".to_string())]
        );
    }

    #[test]
    fn float_literal_into_int_flagged() {
        assert_eq!(found("void f() { int x = 1.5; }").len(), 1);
    }

    #[test]
    fn widening_is_fine() {
        assert!(found("void f(int i) { double x = i; }").is_empty());
    }

    #[test]
    fn narrowing_assignment_flagged() {
        assert_eq!(
            found("void f(float wide) { short s = 0; s = wide; }"),
            [(true, "s: short".to_string())]
        );
    }

    #[test]
    fn explicit_cast_suppresses_implicit_finding() {
        // cast ranks as int → no narrowing finding here
        assert!(found("void f(double d) { int x = (int)d; }").is_empty());
    }

    #[test]
    fn comparison_yields_bool_rank() {
        assert!(found("void f(double a, double b) { bool x = a > b; }").is_empty());
    }

    #[test]
    fn assignments_see_each_name_last_declaration() {
        assert_eq!(
            found("void f() { int n = 0; n = w; double w = 2.0; }"),
            [(true, "n: int".to_string())]
        );
    }
}
