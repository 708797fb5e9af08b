//! Naming-convention checks (paper §3.1.8, Observation 9; ISO 26262-6
//! Table 1 row 8), following the Google C++ style guide conventions that
//! Apollo adopts: types `UpperCamelCase`, functions `UpperCamelCase` (or
//! `lower_snake` for C-linkage utilities), variables `lower_snake`,
//! member fields `lower_snake_` with trailing underscore, constants
//! `kUpperCamel`, enumerators `kUpperCamel` or `UPPER_SNAKE`, macros
//! `UPPER_SNAKE`.

use crate::diag::{Diagnostic, Severity};
use crate::{Check, CheckContext};
use adsafe_lang::ast::{Decl, StmtKind};
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

/// Type, class, struct, enum, and alias names must be `UpperCamelCase`.
#[derive(Debug, Default, Clone, Copy)]
pub struct TypeNamingCheck;

impl Check for TypeNamingCheck {
    fn id(&self) -> &'static str {
        "naming-type"
    }
    fn description(&self) -> &'static str {
        "type names shall be UpperCamelCase"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table1.Row8"]
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        fn scan(decls: &[Decl], id: &'static str, out: &mut Vec<Diagnostic>) {
            for d in decls {
                match d {
                    Decl::Record(r)
                        if !r.name.is_empty() && classify(&r.name) != NameCase::UpperCamel =>
                    {
                        out.push(Diagnostic::new(
                            id,
                            Severity::Warning,
                            r.span,
                            format!("type `{}` is not UpperCamelCase", r.name),
                        ));
                    }
                    Decl::Enum(e)
                        if !e.name.is_empty() && classify(&e.name) != NameCase::UpperCamel =>
                    {
                        out.push(Diagnostic::new(
                            id,
                            Severity::Warning,
                            e.span,
                            format!("enum `{}` is not UpperCamelCase", e.name),
                        ));
                    }
                    Decl::Typedef(t)
                        if !t.name.is_empty()
                        // C-style `*_t` typedefs are conventional and allowed.
                        && classify(&t.name) != NameCase::UpperCamel && !t.name.ends_with("_t") =>
                    {
                        out.push(Diagnostic::new(
                            id,
                            Severity::Info,
                            t.span,
                            format!("alias `{}` is not UpperCamelCase", t.name),
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

/// Macro names must be `UPPER_SNAKE_CASE`.
#[derive(Debug, Default, Clone, Copy)]
pub struct MacroNamingCheck;

impl Check for MacroNamingCheck {
    fn id(&self) -> &'static str {
        "naming-macro"
    }
    fn description(&self) -> &'static str {
        "macros shall be UPPER_SNAKE_CASE"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table1.Row8"]
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for m in cx.entries.iter().flat_map(|e| &e.unit.macros) {
            // Include guards end with `_` and are fine.
            let case = classify(&m.name);
            if !matches!(case, NameCase::UpperSnake) && !m.name.ends_with('_') {
                out.push(Diagnostic::new(
                    self.id(),
                    Severity::Info,
                    m.span,
                    format!("macro `{}` is not UPPER_SNAKE_CASE", m.name),
                ));
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
    fn bad_type_name_flagged() {
        let d = run(&TypeNamingCheck, "struct object_tracker { int x; };");
        assert_eq!(d.len(), 1);
        let ok = run(&TypeNamingCheck, "struct ObjectTracker { int x; };");
        assert!(ok.is_empty());
    }

    #[test]
    fn c_style_typedef_allowed() {
        let d = run(&TypeNamingCheck, "typedef unsigned int frame_id_t;");
        assert!(d.is_empty());
    }

    #[test]
    fn enum_name_checked() {
        let d = run(&TypeNamingCheck, "enum class drive_mode { kIdle };");
        assert_eq!(d.len(), 1);
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

    #[test]
    fn macro_names_checked() {
        let d = run(
            &MacroNamingCheck,
            "#define MAX_N 10\n#define badMacro 1\n#define GUARD_H_\n",
        );
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("badMacro"));
        assert!(run(&MacroNamingCheck, "int x;").is_empty());
    }
}
