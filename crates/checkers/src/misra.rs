//! MISRA C:2012-inspired language-subset rules (paper §3.1.2,
//! Observation 2). Rule ids follow the MISRA numbering of the closest
//! corresponding guideline; these are the representative structural rules
//! that a full 143-rule MISRA checker would automate the same way.

use crate::diag::{Diagnostic, Severity};
use crate::{Check, CheckContext};
use adsafe_lang::ast::{BinOp, Decl, ExprKind, RecordKind, StmtKind};
use adsafe_lang::visit::{walk_exprs, walk_stmts};

/// Function names that are dynamic-memory API (MISRA C:2012 rule 21.3
/// bans the stdlib ones; the CUDA ones are their device-side analogues).
pub const DYNAMIC_MEMORY_FNS: &[&str] = &[
    "malloc", "calloc", "realloc", "free", "aligned_alloc", "strdup",
    "cudaMalloc", "cudaMallocManaged", "cudaMallocHost", "cudaMallocPitch",
    "cudaFree", "cudaFreeHost",
];

/// MISRA 15.1: `goto` shall not be used.
#[derive(Debug, Default, Clone, Copy)]
pub struct GotoCheck;

impl Check for GotoCheck {
    fn id(&self) -> &'static str {
        "misra-15.1-goto"
    }
    fn description(&self) -> &'static str {
        "goto statements (unconditional jumps) shall not be used"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table1.Row2", "Part6.Table8.Row9"]
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (_, f) in cx.functions() {
            walk_stmts(f, |s| {
                if let StmtKind::Goto(label) = &s.kind {
                    out.push(
                        Diagnostic::new(
                            self.id(),
                            Severity::Violation,
                            s.span,
                            format!("unconditional jump `goto {label}`"),
                        )
                        .in_function(&f.sig.qualified_name),
                    );
                }
            });
        }
        out
    }
}

/// MISRA 21.3 / ISO 26262-6 Table 8 row 2: no dynamic memory after init.
#[derive(Debug, Default, Clone, Copy)]
pub struct DynamicMemoryCheck;

impl Check for DynamicMemoryCheck {
    fn id(&self) -> &'static str {
        "misra-21.3-dynamic-memory"
    }
    fn description(&self) -> &'static str {
        "no dynamic objects or variables (malloc/new/cudaMalloc)"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table8.Row2", "Part6.Table8.Row6"]
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (_, f) in cx.functions() {
            walk_exprs(f, |e| match &e.kind {
                ExprKind::Call { .. } => {
                    if let Some(name) = e.callee_name() {
                        if DYNAMIC_MEMORY_FNS.contains(&name) {
                            out.push(
                                Diagnostic::new(
                                    self.id(),
                                    Severity::Violation,
                                    e.span,
                                    format!("dynamic memory API `{name}` used"),
                                )
                                .in_function(&f.sig.qualified_name),
                            );
                        }
                    }
                }
                ExprKind::New { ty, array, .. } => {
                    let what = if array.is_some() { "new[]" } else { "new" };
                    out.push(
                        Diagnostic::new(
                            self.id(),
                            Severity::Violation,
                            e.span,
                            format!("dynamic allocation `{what} {}`", ty.name),
                        )
                        .in_function(&f.sig.qualified_name),
                    );
                }
                ExprKind::Delete { array, .. } => {
                    let what = if *array { "delete[]" } else { "delete" };
                    out.push(
                        Diagnostic::new(
                            self.id(),
                            Severity::Violation,
                            e.span,
                            format!("dynamic deallocation `{what}`"),
                        )
                        .in_function(&f.sig.qualified_name),
                    );
                }
                _ => {}
            });
        }
        out
    }
}

/// MISRA 12.3: the comma operator should not be used.
#[derive(Debug, Default, Clone, Copy)]
pub struct CommaOperatorCheck;

impl Check for CommaOperatorCheck {
    fn id(&self) -> &'static str {
        "misra-12.3-comma"
    }
    fn description(&self) -> &'static str {
        "the comma operator should not be used"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table1.Row2"]
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (_, f) in cx.functions() {
            walk_exprs(f, |e| {
                if let ExprKind::Binary { op: BinOp::Comma, .. } = &e.kind {
                    out.push(
                        Diagnostic::new(self.id(), Severity::Warning, e.span, "comma operator used")
                            .in_function(&f.sig.qualified_name),
                    );
                }
            });
        }
        out
    }
}

/// MISRA 19.2: the `union` keyword should not be used.
#[derive(Debug, Default, Clone, Copy)]
pub struct UnionCheck;

impl Check for UnionCheck {
    fn id(&self) -> &'static str {
        "misra-19.2-union"
    }
    fn description(&self) -> &'static str {
        "unions should not be used"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table1.Row3"]
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        fn scan(decls: &[Decl], id: &'static str, out: &mut Vec<Diagnostic>) {
            for d in decls {
                match d {
                    Decl::Record(r) if r.kind == RecordKind::Union => {
                        out.push(Diagnostic::new(
                            id,
                            Severity::Warning,
                            r.span,
                            format!("union `{}` declared", r.name),
                        ));
                    }
                    Decl::Namespace(ns) => scan(&ns.decls, id, out),
                    _ => {}
                }
            }
        }
        for e in &cx.entries {
            scan(&e.unit.decls, self.id(), &mut out);
        }
        out
    }
}

/// MISRA 16.4: every switch shall have a default label.
#[derive(Debug, Default, Clone, Copy)]
pub struct SwitchDefaultCheck;

impl Check for SwitchDefaultCheck {
    fn id(&self) -> &'static str {
        "misra-16.4-switch-default"
    }
    fn description(&self) -> &'static str {
        "every switch statement shall have a default label"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table1.Row4"]
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (_, f) in cx.functions() {
            walk_stmts(f, |s| {
                if let StmtKind::Switch { body, .. } = &s.kind {
                    let has_default =
                        body.stmts.iter().any(|st| matches!(st.kind, StmtKind::Default));
                    if !has_default {
                        out.push(
                            Diagnostic::new(
                                self.id(),
                                Severity::Warning,
                                s.span,
                                "switch without default label",
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

/// MISRA 2.1: a project shall not contain unreachable code. Detects
/// statements directly following an unconditional `return`/`break`/
/// `continue`/`goto` within the same block (ignoring labels, which are
/// jump targets).
#[derive(Debug, Default, Clone, Copy)]
pub struct UnreachableCodeCheck;

impl Check for UnreachableCodeCheck {
    fn id(&self) -> &'static str {
        "misra-2.1-unreachable"
    }
    fn description(&self) -> &'static str {
        "no unreachable code"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table1.Row1"]
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (_, f) in cx.functions() {
            walk_stmts(f, |s| {
                let stmts: &[adsafe_lang::ast::Stmt] = match &s.kind {
                    StmtKind::Block(b) => &b.stmts,
                    _ => return,
                };
                let mut terminated = false;
                for st in stmts {
                    if terminated {
                        // A label (or case/default) is reachable by jump.
                        if matches!(
                            st.kind,
                            StmtKind::Label(..) | StmtKind::Case(_) | StmtKind::Default
                        ) {
                            terminated = false;
                            continue;
                        }
                        out.push(
                            Diagnostic::new(
                                self.id(),
                                Severity::Warning,
                                st.span,
                                "statement is unreachable",
                            )
                            .in_function(&f.sig.qualified_name),
                        );
                        break; // one finding per block is enough
                    }
                    terminated = matches!(
                        st.kind,
                        StmtKind::Return(_)
                            | StmtKind::Break
                            | StmtKind::Continue
                            | StmtKind::Goto(_)
                    );
                }
            });
            // Also the function body itself.
            let mut terminated = false;
            for st in &f.body.stmts {
                if terminated {
                    if matches!(st.kind, StmtKind::Label(..)) {
                        terminated = false;
                        continue;
                    }
                    out.push(
                        Diagnostic::new(
                            self.id(),
                            Severity::Warning,
                            st.span,
                            "statement is unreachable",
                        )
                        .in_function(&f.sig.qualified_name),
                    );
                    break;
                }
                terminated = matches!(
                    st.kind,
                    StmtKind::Return(_) | StmtKind::Break | StmtKind::Continue | StmtKind::Goto(_)
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalysisSet;

    fn diags_for(check: &dyn Check, src: &str) -> Vec<Diagnostic> {
        let mut set = AnalysisSet::new();
        set.add("m", "t.cc", src);
        let cx = set.context();
        check.run(&cx)
    }

    #[test]
    fn goto_flagged() {
        let d = diags_for(&GotoCheck, "void f(int x) { if (x) goto out; out: return; }");
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("goto out"));
        assert_eq!(d[0].severity, Severity::Violation);
    }

    #[test]
    fn goto_free_clean() {
        assert!(diags_for(&GotoCheck, "void f() { return; }").is_empty());
    }

    #[test]
    fn dynamic_memory_flagged() {
        let d = diags_for(
            &DynamicMemoryCheck,
            "void f(int n) { float* a = (float*)malloc(n * 4); float* b = new float[n]; \
             cudaMalloc((void**)&a, n); free(a); delete[] b; }",
        );
        // malloc, new[], cudaMalloc, free, delete[]
        assert_eq!(d.len(), 5);
    }

    #[test]
    fn comma_operator_flagged() {
        let d = diags_for(&CommaOperatorCheck, "void f(int a, int b) { a = 1, b = 2; }");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn union_flagged() {
        let d = diags_for(&UnionCheck, "union U { int i; float f; };");
        assert_eq!(d.len(), 1);
        assert!(diags_for(&UnionCheck, "struct S { int i; };").is_empty());
    }

    #[test]
    fn switch_default() {
        let with = "void f(int x) { switch (x) { case 1: break; default: break; } }";
        let without = "void f(int x) { switch (x) { case 1: break; case 2: break; } }";
        assert!(diags_for(&SwitchDefaultCheck, with).is_empty());
        assert_eq!(diags_for(&SwitchDefaultCheck, without).len(), 1);
    }

    #[test]
    fn unreachable_after_return() {
        let d = diags_for(&UnreachableCodeCheck, "int f() { return 1; int dead = 2; }");
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn label_after_return_is_reachable() {
        let d = diags_for(
            &UnreachableCodeCheck,
            "int f(int x) { if (x) goto out; return 0; out: return 1; }",
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
