//! Established-design-principle checks (paper §3.1.5, Observation 7; ISO
//! 26262-6 Table 1 row 5, Table 8 row 5): global-variable usage and
//! exception-handling discipline.

use crate::diag::{Diagnostic, Severity};
use crate::{Check, CheckContext};
use adsafe_lang::ast::{ExprKind, Storage, StmtKind};
use adsafe_lang::symbols::analyze_function;
use adsafe_lang::visit::walk_stmts;

/// Flags every file-scope (global) variable definition, excluding
/// `const`/`constexpr` configuration constants which the standard permits.
#[derive(Debug, Default, Clone, Copy)]
pub struct GlobalVariableCheck;

impl Check for GlobalVariableCheck {
    fn id(&self) -> &'static str {
        "design-global-variable"
    }
    fn description(&self) -> &'static str {
        "avoid global variables or justify their usage"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table1.Row5", "Part6.Table8.Row5"]
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for e in &cx.entries {
            for g in e.unit.global_vars() {
                if g.ty.is_const {
                    continue;
                }
                // `extern` declarations are uses of a definition elsewhere;
                // count definitions only so totals are not doubled.
                if g.storage == Storage::Extern {
                    continue;
                }
                out.push(Diagnostic::new(
                    self.id(),
                    Severity::Warning,
                    g.span,
                    format!("global variable `{}: {}` defined", g.name, g.ty.display()),
                ));
            }
        }
        out
    }
}

/// Flags uses of globals from within functions (the testability cost the
/// paper highlights: value ranges become hard to determine).
#[derive(Debug, Default, Clone, Copy)]
pub struct GlobalUseCheck;

impl Check for GlobalUseCheck {
    fn id(&self) -> &'static str {
        "design-global-use"
    }
    fn description(&self) -> &'static str {
        "functions reading/writing globals are hard to validate"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table1.Row5"]
    }
    fn scope(&self) -> crate::CheckScope {
        crate::CheckScope::Program
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (_, f) in cx.functions() {
            let syms = analyze_function(f);
            let mut seen = std::collections::HashSet::new();
            for u in &syms.unresolved {
                if cx.global_names.contains(&u.name) && seen.insert(u.name.clone()) {
                    out.push(
                        Diagnostic::new(
                            self.id(),
                            Severity::Info,
                            u.span,
                            format!("function accesses global `{}`", u.name),
                        )
                        .in_function(&f.sig.qualified_name),
                    );
                }
            }
        }
        out
    }
}

/// Exception-handling discipline: `throw` without any enclosing or
/// sibling `try` in the same translation unit is a latent `terminate()`.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExceptionDisciplineCheck;

impl Check for ExceptionDisciplineCheck {
    fn id(&self) -> &'static str {
        "design-exception-discipline"
    }
    fn description(&self) -> &'static str {
        "exceptions shall be caught; throw without try/catch risks terminate"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table1.Row5"]
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for e in &cx.entries {
            let mut unit_has_try = false;
            for f in e.unit.functions() {
                walk_stmts(f, |s| {
                    if matches!(s.kind, StmtKind::Try { .. }) {
                        unit_has_try = true;
                    }
                });
            }
            for f in e.unit.functions() {
                let mut throws = Vec::new();
                adsafe_lang::visit::walk_exprs(f, |x| {
                    if matches!(x.kind, ExprKind::Throw(_)) {
                        throws.push(x.span);
                    }
                });
                if !unit_has_try {
                    for span in throws {
                        out.push(
                            Diagnostic::new(
                                self.id(),
                                Severity::Warning,
                                span,
                                "throw with no try/catch in this unit",
                            )
                            .in_function(&f.sig.qualified_name),
                        );
                    }
                }
            }
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
    fn global_definition_flagged() {
        let d = run(&GlobalVariableCheck, "int g_state;\nstatic float g_rate = 0.5f;\n");
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn const_global_permitted() {
        let d = run(&GlobalVariableCheck, "const int kMaxSize = 128;\n");
        assert!(d.is_empty());
    }

    #[test]
    fn extern_declaration_not_double_counted() {
        let d = run(&GlobalVariableCheck, "extern int g_other;\n");
        assert!(d.is_empty());
    }

    #[test]
    fn global_use_flagged_once_per_function() {
        let d = run(
            &GlobalUseCheck,
            "int g;\nint f() { g = g + 1; return g; }\nint h() { return 0; }",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].function.as_deref(), Some("f"));
    }

    #[test]
    fn throw_without_try_flagged() {
        let d = run(
            &ExceptionDisciplineCheck,
            "void f(int x) { if (x < 0) throw x; }",
        );
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn throw_with_try_clean() {
        let d = run(
            &ExceptionDisciplineCheck,
            "void f(int x) { try { if (x < 0) throw x; } catch (int e) { } }",
        );
        assert!(d.is_empty());
    }
}
