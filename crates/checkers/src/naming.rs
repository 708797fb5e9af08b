//! Naming-convention checks (paper §3.1.8, Observation 9; ISO 26262-6
//! Table 1 row 8), following the Google C++ style guide conventions that
//! Apollo adopts: types `UpperCamelCase`, functions `UpperCamelCase` (or
//! `lower_snake` for C-linkage utilities), variables `lower_snake`,
//! member fields `lower_snake_` with trailing underscore, constants
//! `kUpperCamel`, enumerators `kUpperCamel` or `UPPER_SNAKE`, macros
//! `UPPER_SNAKE`. Variable naming is checked here; type and macro naming
//! are the bundled `naming-type` and `naming-macro` rules over the
//! `misnamed-*` sites the facts walk records with [`classify`].

use crate::diag::{Diagnostic, Severity};
use crate::{Check, CheckContext};
use adsafe_lang::ast::StmtKind;
use adsafe_lang::visit::walk_stmts;

/// Case classes a name can fall into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NameCase {
    /// `UpperCamelCase`.
    UpperCamel,
    /// `lower_snake_case`.
    LowerSnake,
    /// `lower_snake_case_` with trailing underscore (member fields).
    LowerSnakeTrailing,
    /// `UPPER_SNAKE_CASE`.
    UpperSnake,
    /// `kUpperCamel` constant style.
    KConstant,
    /// Anything else (mixed, leading underscore, ...).
    Other,
}

/// Classifies `name` into its [`NameCase`].
pub fn classify(name: &str) -> NameCase {
    if name.is_empty() {
        return NameCase::Other;
    }
    let has_underscore_inner = name.trim_end_matches('_').contains('_');
    let first = name.chars().next().expect("non-empty");
    let all_upper = name
        .chars()
        .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_');
    let all_lower = name
        .chars()
        .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    if name.starts_with('k')
        && name.len() > 1
        && name.chars().nth(1).is_some_and(|c| c.is_ascii_uppercase())
        && !name.contains('_')
    {
        return NameCase::KConstant;
    }
    if all_upper && first.is_ascii_uppercase() {
        return NameCase::UpperSnake;
    }
    if all_lower && first.is_ascii_lowercase() {
        if name.ends_with('_') {
            return NameCase::LowerSnakeTrailing;
        }
        return NameCase::LowerSnake;
    }
    if first.is_ascii_uppercase() && !has_underscore_inner && !name.ends_with('_') {
        return NameCase::UpperCamel;
    }
    NameCase::Other
}

/// Local variables and parameters must be `lower_snake_case`.
#[derive(Debug, Default, Clone, Copy)]
pub struct VariableNamingCheck;

impl Check for VariableNamingCheck {
    fn id(&self) -> &'static str {
        "naming-variable"
    }
    fn description(&self) -> &'static str {
        "variables shall be lower_snake_case"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table1.Row8"]
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (_, f) in cx.functions() {
            walk_stmts(f, |s| {
                if let StmtKind::Decl(vars) = &s.kind {
                    for v in vars {
                        let case = classify(&v.name);
                        let ok = matches!(case, NameCase::LowerSnake)
                            || (v.ty.is_const && matches!(case, NameCase::KConstant));
                        if !ok {
                            out.push(
                                Diagnostic::new(
                                    self.id(),
                                    Severity::Info,
                                    v.span,
                                    format!("variable `{}` is not lower_snake_case", v.name),
                                )
                                .in_function(&f.sig.qualified_name),
                            );
                        }
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
    fn classify_cases() {
        assert_eq!(classify("ObjectTracker"), NameCase::UpperCamel);
        assert_eq!(classify("frame_count"), NameCase::LowerSnake);
        assert_eq!(classify("frame_count_"), NameCase::LowerSnakeTrailing);
        assert_eq!(classify("MAX_SIZE"), NameCase::UpperSnake);
        assert_eq!(classify("kMaxSize"), NameCase::KConstant);
        assert_eq!(classify("mixed_Case"), NameCase::Other);
        assert_eq!(classify(""), NameCase::Other);
    }

    #[test]
    fn bad_variable_flagged() {
        let d = run(&VariableNamingCheck, "void f() { int FrameCount = 0; }");
        assert_eq!(d.len(), 1);
        let ok = run(&VariableNamingCheck, "void f() { int frame_count = 0; }");
        assert!(ok.is_empty());
    }

    #[test]
    fn k_constant_allowed_for_const() {
        let ok = run(&VariableNamingCheck, "void f() { const int kLimit = 9; }");
        assert!(ok.is_empty(), "{ok:?}");
    }
}
