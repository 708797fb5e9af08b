//! Scope-aware symbol analysis over function bodies.
//!
//! Builds a scope tree per function, recording every local declaration,
//! parameter, and identifier use. This powers the checkers that need
//! name-resolution-ish facts: shadowing, variable-name reuse,
//! uninitialised-before-use, and global-variable access.

use crate::ast::*;
use std::collections::{HashMap, HashSet};

/// A variable's declaration site within a function.
#[derive(Debug, Clone)]
pub struct LocalVar {
    /// Variable name.
    pub name: String,
    /// Declared type.
    pub ty: TypeRef,
    /// Whether it had an initialiser (or is a parameter).
    pub initialized: bool,
    /// Depth of the scope it was declared in (0 = function scope).
    pub scope_depth: usize,
    /// Whether this declaration shadows an outer declaration of the same name.
    pub shadows: bool,
    /// Source span of the declarator.
    pub span: crate::source::Span,
}

/// An identifier use that could not be resolved to a local or parameter —
/// a candidate global/namespace-scope access.
#[derive(Debug, Clone)]
pub struct UnresolvedUse {
    /// The identifier (qualified text as written).
    pub name: String,
    /// Where it was used.
    pub span: crate::source::Span,
}

/// A read of a local variable that may happen before any assignment.
#[derive(Debug, Clone)]
pub struct MaybeUninitRead {
    /// Variable name.
    pub name: String,
    /// Where the suspicious read occurs.
    pub span: crate::source::Span,
}

/// Result of symbol analysis for one function.
#[derive(Debug, Clone, Default)]
pub struct FunctionSymbols {
    /// Every local declaration (excluding parameters), in source order.
    pub locals: Vec<LocalVar>,
    /// Parameter names.
    pub params: Vec<String>,
    /// Identifier uses not matching any local/param in scope.
    pub unresolved: Vec<UnresolvedUse>,
    /// Locals read before any possible initialisation.
    pub maybe_uninit_reads: Vec<MaybeUninitRead>,
    /// Number of declarations that shadow an outer binding.
    pub shadow_count: usize,
}

/// Analyses `func`, producing its [`FunctionSymbols`].
pub fn analyze_function(func: &FunctionDef) -> FunctionSymbols {
    let mut a = Analyzer {
        out: FunctionSymbols::default(),
        scopes: vec![HashMap::new()],
    };
    for p in &func.sig.params {
        if let Some(name) = &p.name {
            a.out.params.push(name.clone());
            a.scopes[0].insert(name.clone(), VarState { initialized: true });
        }
    }
    for s in &func.body.stmts {
        a.stmt(s);
    }
    a.out
}

#[derive(Debug, Clone, Copy)]
struct VarState {
    initialized: bool,
}

struct Analyzer {
    out: FunctionSymbols,
    scopes: Vec<HashMap<String, VarState>>,
}

impl Analyzer {
    fn declared_in_outer(&self, name: &str) -> bool {
        self.scopes.iter().any(|s| s.contains_key(name))
    }

    fn lookup_mut(&mut self, name: &str) -> Option<&mut VarState> {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(v) = scope.get_mut(name) {
                return Some(v);
            }
        }
        None
    }

    fn declare(&mut self, var: &VarDecl) {
        let shadows = self.declared_in_outer(&var.name);
        if shadows {
            self.out.shadow_count += 1;
        }
        let initialized = var.init.is_some() || !var.ty.array_dims.is_empty() && var.init.is_some();
        let initialized = initialized || var.init.is_some();
        self.out.locals.push(LocalVar {
            name: var.name.clone(),
            ty: var.ty.clone(),
            initialized: var.init.is_some(),
            scope_depth: self.scopes.len() - 1,
            shadows,
            span: var.span,
        });
        if let Some(init) = &var.init {
            self.expr(init, false);
        }
        let _ = initialized;
        self.scopes
            .last_mut()
            .expect("scope stack never empty")
            .insert(
                var.name.clone(),
                VarState {
                    initialized: var.init.is_some(),
                },
            );
    }

    fn push(&mut self) {
        self.scopes.push(HashMap::new());
    }

    fn pop(&mut self) {
        if self.scopes.len() > 1 {
            self.scopes.pop();
        }
    }

    fn block(&mut self, b: &Block) {
        self.push();
        for s in &b.stmts {
            self.stmt(s);
        }
        self.pop();
    }

    fn stmt(&mut self, s: &Stmt) {
        match &s.kind {
            StmtKind::Expr(e) => self.expr(e, false),
            StmtKind::Decl(vars) => {
                for v in vars {
                    self.declare(v);
                }
            }
            StmtKind::Block(b) => self.block(b),
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond, false);
                self.push();
                self.stmt(then_branch);
                self.pop();
                if let Some(e) = else_branch {
                    self.push();
                    self.stmt(e);
                    self.pop();
                }
            }
            StmtKind::While { cond, body } => {
                self.expr(cond, false);
                self.push();
                self.stmt(body);
                self.pop();
            }
            StmtKind::DoWhile { body, cond } => {
                self.push();
                self.stmt(body);
                self.pop();
                self.expr(cond, false);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.push();
                if let Some(i) = init {
                    self.stmt(i);
                }
                if let Some(c) = cond {
                    self.expr(c, false);
                }
                if let Some(st) = step {
                    self.expr(st, false);
                }
                self.stmt(body);
                self.pop();
            }
            StmtKind::Switch { cond, body } => {
                self.expr(cond, false);
                self.block(body);
            }
            StmtKind::Case(e) => self.expr(e, false),
            StmtKind::Return(Some(e)) => self.expr(e, false),
            StmtKind::Label(_, inner) => self.stmt(inner),
            StmtKind::Try { body, catches } => {
                self.block(body);
                for (_, h) in catches {
                    self.block(h);
                }
            }
            _ => {}
        }
    }

    /// `writing` is true when the expression is the target of an assignment
    /// (so a bare identifier is a write, not a read).
    fn expr(&mut self, e: &Expr, writing: bool) {
        match &e.kind {
            ExprKind::Ident(name) => {
                if writing {
                    if let Some(v) = self.lookup_mut(name) {
                        v.initialized = true;
                        return;
                    }
                } else {
                    let mut uninit = false;
                    if let Some(v) = self.lookup_mut(name) {
                        if !v.initialized {
                            uninit = true;
                            // Report once.
                            v.initialized = true;
                        }
                        if uninit {
                            self.out.maybe_uninit_reads.push(MaybeUninitRead {
                                name: name.clone(),
                                span: e.span,
                            });
                        }
                        return;
                    }
                }
                // Not a local: candidate global.
                self.out.unresolved.push(UnresolvedUse {
                    name: name.clone(),
                    span: e.span,
                });
            }
            ExprKind::Assign { op, lhs, rhs } => {
                self.expr(rhs, false);
                // Compound assignment reads then writes.
                let reads_first = !matches!(op, AssignOp::Assign);
                if reads_first {
                    self.expr(lhs, false);
                }
                self.expr(lhs, true);
            }
            ExprKind::Unary { op, expr } => {
                match op {
                    UnOp::AddrOf => {
                        // Taking the address may initialise via out-param;
                        // be conservative: treat as write.
                        self.expr(expr, true);
                    }
                    UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec => {
                        self.expr(expr, false);
                        self.expr(expr, true);
                    }
                    _ => self.expr(expr, false),
                }
            }
            ExprKind::Binary { lhs, rhs, .. } => {
                self.expr(lhs, false);
                self.expr(rhs, false);
            }
            ExprKind::Ternary {
                cond,
                then_expr,
                else_expr,
            } => {
                self.expr(cond, false);
                self.expr(then_expr, false);
                self.expr(else_expr, false);
            }
            ExprKind::Call { callee, args } => {
                if !matches!(callee.kind, ExprKind::Ident(_)) {
                    self.expr(callee, false);
                }
                for a in args {
                    // An argument that is `&x` may initialise x (handled by
                    // AddrOf above).
                    self.expr(a, false);
                }
            }
            ExprKind::KernelLaunch {
                callee,
                config,
                args,
            } => {
                if !matches!(callee.kind, ExprKind::Ident(_)) {
                    self.expr(callee, false);
                }
                for c in config {
                    self.expr(c, false);
                }
                for a in args {
                    self.expr(a, false);
                }
            }
            ExprKind::Index { base, index } => {
                self.expr(base, writing);
                self.expr(index, false);
            }
            ExprKind::Member { base, .. } => self.expr(base, writing),
            ExprKind::Cast { expr, .. } | ExprKind::SizeOf(expr) => self.expr(expr, false),
            ExprKind::New { args, array, .. } => {
                for a in args {
                    self.expr(a, false);
                }
                if let Some(n) = array {
                    self.expr(n, false);
                }
            }
            ExprKind::Delete { expr, .. } => self.expr(expr, false),
            ExprKind::Throw(Some(inner)) => self.expr(inner, false),
            ExprKind::InitList(items) => {
                for i in items {
                    self.expr(i, false);
                }
            }
            _ => {}
        }
    }
}

/// Collects the set of global variable names declared across units,
/// for distinguishing "unresolved" uses that are truly globals.
pub fn global_names(units: &[&TranslationUnit]) -> HashSet<String> {
    let mut out = HashSet::new();
    for u in units {
        for g in u.global_vars() {
            out.insert(g.name.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_source;
    use crate::source::FileId;

    fn analyze(src: &str) -> FunctionSymbols {
        let parsed = parse_source(FileId(0), src);
        let f = parsed.unit.functions()[0].clone();
        analyze_function(&f)
    }

    #[test]
    fn params_and_locals_recorded() {
        let s = analyze("int f(int a, int b) { int c = a + b; return c; }");
        assert_eq!(s.params, vec!["a", "b"]);
        assert_eq!(s.locals.len(), 1);
        assert!(s.locals[0].initialized);
        assert_eq!(s.shadow_count, 0);
    }

    #[test]
    fn shadowing_detected() {
        let s = analyze("int f(int a) { int x = 1; { int x = 2; a += x; } return x; }");
        assert_eq!(s.shadow_count, 1);
        assert!(s.locals.iter().any(|l| l.shadows));
    }

    #[test]
    fn param_shadowing_detected() {
        let s = analyze("int f(int a) { int a = 3; return a; }");
        assert_eq!(s.shadow_count, 1);
    }

    #[test]
    fn uninit_read_detected() {
        let s = analyze("int f() { int x; int y = x + 1; return y; }");
        assert_eq!(s.maybe_uninit_reads.len(), 1);
        assert_eq!(s.maybe_uninit_reads[0].name, "x");
    }

    #[test]
    fn write_before_read_is_fine() {
        let s = analyze("int f() { int x; x = 3; return x; }");
        assert!(s.maybe_uninit_reads.is_empty());
    }

    #[test]
    fn addrof_counts_as_initialisation() {
        let s = analyze("void g(int*); int f() { int x; g(&x); return x; }");
        assert!(s.maybe_uninit_reads.is_empty());
    }

    #[test]
    fn compound_assign_reads_first() {
        let s = analyze("int f() { int x; x += 1; return x; }");
        assert_eq!(s.maybe_uninit_reads.len(), 1);
    }

    #[test]
    fn unresolved_globals_listed() {
        let s = analyze("int f() { return g_counter + 1; }");
        assert!(s.unresolved.iter().any(|u| u.name == "g_counter"));
    }

    #[test]
    fn qualified_globals_unresolved() {
        // An out-of-class static member definition is a global named
        // `Cls::count`; its qualified uses are global accesses.
        let s = analyze("void f() { Cls::count++; }");
        assert!(s.unresolved.iter().any(|u| u.name == "Cls::count"));
    }

    #[test]
    fn callee_names_not_unresolved() {
        let s = analyze("int f() { return helper(1); }");
        assert!(!s.unresolved.iter().any(|u| u.name == "helper"));
    }

    #[test]
    fn global_names_collection() {
        let p1 = parse_source(FileId(0), "int g1; static float g2;");
        let p2 = parse_source(FileId(1), "namespace n { int g3; }");
        let names = global_names(&[&p1.unit, &p2.unit]);
        assert!(names.contains("g1"));
        assert!(names.contains("g2"));
        assert!(names.contains("g3"));
    }
}
