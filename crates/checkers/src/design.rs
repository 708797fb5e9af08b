//! Established-design-principle checks (paper §3.1.5, Observation 7; ISO
//! 26262-6 Table 1 row 5): global-variable use. Global definitions
//! (Table 8 row 5) and exception-handling discipline are the bundled
//! `design-global-variable` and `design-exception-discipline` rules.

use crate::diag::{Diagnostic, Severity};
use crate::{Check, CheckContext};
use adsafe_lang::symbols::analyze_function;

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
}
