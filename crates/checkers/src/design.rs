//! Established-design-principle checks (paper §3.1.5, Observation 7; ISO
//! 26262-6 Table 1 row 5): global-variable use and exception-handling
//! discipline. Global definitions (Table 8 row 5) are the bundled
//! `design-global-variable` rule.

use crate::diag::{Diagnostic, Severity};
use crate::{Check, CheckContext};
use adsafe_lang::ast::{ExprKind, StmtKind};
use adsafe_lang::symbols::analyze_function;
use adsafe_lang::visit::walk_stmts;

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
