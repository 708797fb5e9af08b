//! Style-guide checks (paper §3.1.7, Observation 8; ISO 26262-6 Table 1
//! row 7). The rules mirror the Google C++ style guide subset that
//! `cpplint` automates: line length, whitespace discipline, brace
//! placement, and header include guards.

use crate::diag::{Diagnostic, Severity};
use crate::{Check, CheckContext};
use adsafe_lang::Span;

/// Maximum line length permitted by the Google C++ style guide.
pub const MAX_LINE_LEN: usize = 80;

/// Line-level whitespace and length rules.
#[derive(Debug, Default, Clone, Copy)]
pub struct LineStyleCheck;

impl Check for LineStyleCheck {
    fn id(&self) -> &'static str {
        "style-line"
    }
    fn description(&self) -> &'static str {
        "line length <= 80, no tabs, no trailing whitespace"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table1.Row7"]
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for e in &cx.entries {
            let mut offset = 0u32;
            for (n, line) in e.file.lines() {
                let span = Span::new(e.file.id(), offset, offset + line.len() as u32);
                if line.len() > MAX_LINE_LEN {
                    out.push(Diagnostic::new(
                        self.id(),
                        Severity::Warning,
                        span,
                        format!("line {n} is {} chars (> {MAX_LINE_LEN})", line.len()),
                    ));
                }
                if line.contains('\t') {
                    out.push(Diagnostic::new(
                        self.id(),
                        Severity::Warning,
                        span,
                        format!("line {n} contains a tab character"),
                    ));
                }
                if line.ends_with(' ') {
                    out.push(Diagnostic::new(
                        self.id(),
                        Severity::Info,
                        span,
                        format!("line {n} has trailing whitespace"),
                    ));
                }
                offset += line.len() as u32 + 1;
            }
            if !e.file.text().is_empty() && !e.file.text().ends_with('\n') {
                let end = e.file.text().len() as u32;
                out.push(Diagnostic::new(
                    self.id(),
                    Severity::Info,
                    Span::new(e.file.id(), end, end),
                    "file does not end with a newline",
                ));
            }
        }
        out
    }
}

/// Indentation must be a multiple of two spaces (Google style).
#[derive(Debug, Default, Clone, Copy)]
pub struct IndentationCheck;

impl Check for IndentationCheck {
    fn id(&self) -> &'static str {
        "style-indent"
    }
    fn description(&self) -> &'static str {
        "indentation shall be a multiple of two spaces"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table1.Row7"]
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for e in &cx.entries {
            let mut offset = 0u32;
            for (n, line) in e.file.lines() {
                let indent = line.len() - line.trim_start_matches(' ').len();
                let rest = line.trim_start();
                // Continuation lines starting with an operator are exempt
                // (they are aligned, not indented).
                let exempt = rest.starts_with("//")
                    || rest.starts_with('*')
                    || rest.is_empty()
                    || rest.starts_with(':')
                    || rest.starts_with("&&")
                    || rest.starts_with("||");
                if !exempt && indent % 2 != 0 {
                    out.push(Diagnostic::new(
                        self.id(),
                        Severity::Info,
                        Span::new(e.file.id(), offset, offset + line.len() as u32),
                        format!("line {n}: indentation of {indent} is not a multiple of 2"),
                    ));
                }
                offset += line.len() as u32 + 1;
            }
        }
        out
    }
}

/// Opening braces attach to the statement (`if (x) {`), not their own line.
#[derive(Debug, Default, Clone, Copy)]
pub struct BraceStyleCheck;

impl Check for BraceStyleCheck {
    fn id(&self) -> &'static str {
        "style-brace"
    }
    fn description(&self) -> &'static str {
        "opening braces go on the same line as the statement"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table1.Row7"]
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for e in &cx.entries {
            let mut offset = 0u32;
            let mut prev_nonblank_code = false;
            for (n, line) in e.file.lines() {
                let t = line.trim();
                if t == "{" && prev_nonblank_code {
                    out.push(Diagnostic::new(
                        self.id(),
                        Severity::Info,
                        Span::new(e.file.id(), offset, offset + line.len() as u32),
                        format!("line {n}: opening brace on its own line"),
                    ));
                }
                if !t.is_empty() && !t.starts_with("//") {
                    prev_nonblank_code =
                        !t.ends_with('{') && !t.ends_with('}') && !t.ends_with(';');
                }
                offset += line.len() as u32 + 1;
            }
        }
        out
    }
}

/// Header files must have an include guard or `#pragma once`.
#[derive(Debug, Default, Clone, Copy)]
pub struct IncludeGuardCheck;

impl Check for IncludeGuardCheck {
    fn id(&self) -> &'static str {
        "style-include-guard"
    }
    fn description(&self) -> &'static str {
        "headers shall have include guards"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table1.Row7"]
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for e in &cx.entries {
            let path = e.file.path();
            if !(path.ends_with(".h") || path.ends_with(".hpp") || path.ends_with(".cuh")) {
                continue;
            }
            let text = e.file.text();
            let guarded = text.contains("#pragma once")
                || (text.contains("#ifndef") && text.contains("#define"));
            if !guarded {
                out.push(Diagnostic::new(
                    self.id(),
                    Severity::Warning,
                    Span::new(e.file.id(), 0, 0),
                    format!("header `{path}` lacks an include guard"),
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

    fn run_on(check: &dyn Check, path: &str, src: &str) -> Vec<Diagnostic> {
        let mut set = AnalysisSet::new();
        set.add("m", path, src);
        check.run(&set.context())
    }

    #[test]
    fn long_line_flagged() {
        let long = format!("int x; // {}\n", "y".repeat(90));
        let d = run_on(&LineStyleCheck, "a.cc", &long);
        assert!(d.iter().any(|x| x.message.contains("> 80")));
    }

    #[test]
    fn tab_and_trailing_ws_flagged() {
        let d = run_on(&LineStyleCheck, "a.cc", "\tint x; \nint y;\n");
        assert!(d.iter().any(|x| x.message.contains("tab")));
        assert!(d.iter().any(|x| x.message.contains("trailing")));
    }

    #[test]
    fn missing_final_newline_flagged() {
        let d = run_on(&LineStyleCheck, "a.cc", "int x;");
        assert!(d.iter().any(|x| x.message.contains("newline")));
    }

    #[test]
    fn clean_file_passes_line_check() {
        let d = run_on(&LineStyleCheck, "a.cc", "int x;\nint y;\n");
        assert!(d.is_empty());
    }

    #[test]
    fn odd_indent_flagged() {
        let d = run_on(&IndentationCheck, "a.cc", "void f() {\n   int x = 1;\n}\n");
        assert_eq!(d.len(), 1);
        let ok = run_on(&IndentationCheck, "a.cc", "void f() {\n  int x = 1;\n}\n");
        assert!(ok.is_empty());
    }

    #[test]
    fn allman_brace_flagged() {
        let d = run_on(&BraceStyleCheck, "a.cc", "void f()\n{\n  int x;\n}\n");
        assert_eq!(d.len(), 1);
        let ok = run_on(&BraceStyleCheck, "a.cc", "void f() {\n  int x;\n}\n");
        assert!(ok.is_empty());
    }

    #[test]
    fn include_guard_required_for_headers_only() {
        let bad = run_on(&IncludeGuardCheck, "a.h", "int f();\n");
        assert_eq!(bad.len(), 1);
        let good = run_on(
            &IncludeGuardCheck,
            "a.h",
            "#ifndef A_H_\n#define A_H_\nint f();\n#endif\n",
        );
        assert!(good.is_empty());
        let pragma = run_on(&IncludeGuardCheck, "a.h", "#pragma once\nint f();\n");
        assert!(pragma.is_empty());
        let source = run_on(&IncludeGuardCheck, "a.cc", "int f() { return 0; }\n");
        assert!(source.is_empty());
    }
}
