//! AST walking utilities.
//!
//! [`Visitor`] is a classic pre-order visitor with default methods that
//! recurse; override only what you need. [`walk_exprs`] and
//! [`walk_stmts`] are closure-based helpers for one-off traversals.

use crate::ast::*;

/// Pre-order AST visitor. Default implementations recurse into children;
/// override the hooks you care about and call the `walk_*` free functions
/// to continue recursion (or don't, to prune).
pub trait Visitor<'ast> {
    /// Called for every declaration.
    fn visit_decl(&mut self, decl: &'ast Decl) {
        walk_decl(self, decl);
    }
    /// Called for every function definition (including methods).
    fn visit_function(&mut self, func: &'ast FunctionDef) {
        walk_function(self, func);
    }
    /// Called for every statement.
    fn visit_stmt(&mut self, stmt: &'ast Stmt) {
        walk_stmt(self, stmt);
    }
    /// Called for every expression.
    fn visit_expr(&mut self, expr: &'ast Expr) {
        walk_expr(self, expr);
    }
    /// Called for every variable declaration (global, local, field, param
    /// declarations are *not* included — visit the function signature).
    fn visit_var(&mut self, var: &'ast VarDecl) {
        if let Some(init) = &var.init {
            self.visit_expr(init);
        }
    }
}

/// Recurses into the children of `decl`.
pub fn walk_decl<'ast, V: Visitor<'ast> + ?Sized>(v: &mut V, decl: &'ast Decl) {
    match decl {
        Decl::Function(f) => v.visit_function(f),
        Decl::Var(var) => v.visit_var(var),
        Decl::Record(r) => {
            for f in &r.fields {
                v.visit_var(f);
            }
            for m in &r.methods {
                v.visit_function(m);
            }
        }
        Decl::Namespace(ns) => {
            for d in &ns.decls {
                v.visit_decl(d);
            }
        }
        Decl::Prototype(_)
        | Decl::Enum(_)
        | Decl::Typedef(_)
        | Decl::Using(..)
        | Decl::Opaque(_) => {}
    }
}

/// Recurses into the body of `func`.
pub fn walk_function<'ast, V: Visitor<'ast> + ?Sized>(v: &mut V, func: &'ast FunctionDef) {
    for s in &func.body.stmts {
        v.visit_stmt(s);
    }
}

/// Recurses into the children of `stmt`.
pub fn walk_stmt<'ast, V: Visitor<'ast> + ?Sized>(v: &mut V, stmt: &'ast Stmt) {
    match &stmt.kind {
        StmtKind::Expr(e) => v.visit_expr(e),
        StmtKind::Decl(vars) => {
            for var in vars {
                v.visit_var(var);
            }
        }
        StmtKind::Block(b) => {
            for s in &b.stmts {
                v.visit_stmt(s);
            }
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            v.visit_expr(cond);
            v.visit_stmt(then_branch);
            if let Some(e) = else_branch {
                v.visit_stmt(e);
            }
        }
        StmtKind::While { cond, body } => {
            v.visit_expr(cond);
            v.visit_stmt(body);
        }
        StmtKind::DoWhile { body, cond } => {
            v.visit_stmt(body);
            v.visit_expr(cond);
        }
        StmtKind::For {
            init,
            cond,
            step,
            body,
        } => {
            if let Some(i) = init {
                v.visit_stmt(i);
            }
            if let Some(c) = cond {
                v.visit_expr(c);
            }
            if let Some(s) = step {
                v.visit_expr(s);
            }
            v.visit_stmt(body);
        }
        StmtKind::Switch { cond, body } => {
            v.visit_expr(cond);
            for s in &body.stmts {
                v.visit_stmt(s);
            }
        }
        StmtKind::Case(e) => v.visit_expr(e),
        StmtKind::Return(Some(e)) => v.visit_expr(e),
        StmtKind::Label(_, inner) => v.visit_stmt(inner),
        StmtKind::Try { body, catches } => {
            for s in &body.stmts {
                v.visit_stmt(s);
            }
            for (_, h) in catches {
                for s in &h.stmts {
                    v.visit_stmt(s);
                }
            }
        }
        StmtKind::Return(None)
        | StmtKind::Break
        | StmtKind::Continue
        | StmtKind::Goto(_)
        | StmtKind::Default
        | StmtKind::Empty
        | StmtKind::Opaque => {}
    }
}

/// Recurses into the children of `expr`.
pub fn walk_expr<'ast, V: Visitor<'ast> + ?Sized>(v: &mut V, expr: &'ast Expr) {
    match &expr.kind {
        ExprKind::Unary { expr: e, .. } => v.visit_expr(e),
        ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
            v.visit_expr(lhs);
            v.visit_expr(rhs);
        }
        ExprKind::Ternary {
            cond,
            then_expr,
            else_expr,
        } => {
            v.visit_expr(cond);
            v.visit_expr(then_expr);
            v.visit_expr(else_expr);
        }
        ExprKind::Call { callee, args } => {
            v.visit_expr(callee);
            for a in args {
                v.visit_expr(a);
            }
        }
        ExprKind::KernelLaunch {
            callee,
            config,
            args,
        } => {
            v.visit_expr(callee);
            for c in config {
                v.visit_expr(c);
            }
            for a in args {
                v.visit_expr(a);
            }
        }
        ExprKind::Index { base, index } => {
            v.visit_expr(base);
            v.visit_expr(index);
        }
        ExprKind::Member { base, .. } => v.visit_expr(base),
        ExprKind::Cast { expr: e, .. } | ExprKind::SizeOf(e) => v.visit_expr(e),
        ExprKind::New { args, array, .. } => {
            for a in args {
                v.visit_expr(a);
            }
            if let Some(n) = array {
                v.visit_expr(n);
            }
        }
        ExprKind::Delete { expr: e, .. } => v.visit_expr(e),
        ExprKind::Throw(Some(e)) => v.visit_expr(e),
        ExprKind::InitList(items) => {
            for i in items {
                v.visit_expr(i);
            }
        }
        ExprKind::IntLit(_)
        | ExprKind::FloatLit(_)
        | ExprKind::StrLit(_)
        | ExprKind::CharLit(_)
        | ExprKind::BoolLit(_)
        | ExprKind::Null
        | ExprKind::This
        | ExprKind::Ident(_)
        | ExprKind::Throw(None)
        | ExprKind::Opaque => {}
    }
}

/// Applies `f` to every expression reachable from `func`'s body (pre-order).
pub fn walk_exprs<'ast>(func: &'ast FunctionDef, mut f: impl FnMut(&'ast Expr)) {
    struct W<'a, F> {
        f: &'a mut F,
    }
    impl<'ast, F: FnMut(&'ast Expr)> Visitor<'ast> for W<'_, F> {
        fn visit_expr(&mut self, expr: &'ast Expr) {
            (self.f)(expr);
            walk_expr(self, expr);
        }
    }
    let mut w = W { f: &mut f };
    walk_function(&mut w, func);
}

/// Applies `f` to every statement reachable from `func`'s body (pre-order).
pub fn walk_stmts<'ast>(func: &'ast FunctionDef, mut f: impl FnMut(&'ast Stmt)) {
    struct W<'a, F> {
        f: &'a mut F,
    }
    impl<'ast, F: FnMut(&'ast Stmt)> Visitor<'ast> for W<'_, F> {
        fn visit_stmt(&mut self, stmt: &'ast Stmt) {
            (self.f)(stmt);
            walk_stmt(self, stmt);
        }
    }
    let mut w = W { f: &mut f };
    walk_function(&mut w, func);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_source;
    use crate::source::FileId;

    fn first_fn(src: &str) -> FunctionDef {
        parse_source(FileId(0), src).unit.functions()[0].clone()
    }

    #[test]
    fn walk_exprs_reaches_nested() {
        let f = first_fn("int f(int a) { if (a > 0) { return a * (a + 1); } return 0; }");
        let mut count = 0;
        walk_exprs(&f, |_| count += 1);
        // a > 0, a, 0, a * (a+1), a, a+1, a, 1, 0 — at least 8 expression nodes
        assert!(count >= 8, "only {count} exprs visited");
    }

    #[test]
    fn walk_stmts_reaches_loop_bodies() {
        let f = first_fn("void f() { for (;;) { while (1) { break; } } }");
        let mut kinds = Vec::new();
        walk_stmts(&f, |s| kinds.push(std::mem::discriminant(&s.kind)));
        assert!(kinds.len() >= 4);
    }

    #[test]
    fn visitor_prunes_when_not_recursing() {
        struct CountTop {
            n: usize,
        }
        impl Visitor<'_> for CountTop {
            fn visit_stmt(&mut self, _s: &Stmt) {
                self.n += 1;
                // no recursion
            }
        }
        let f = first_fn("void f() { { { ; } } }");
        let mut v = CountTop { n: 0 };
        walk_function(&mut v, &f);
        assert_eq!(v.n, 1);
    }
}
