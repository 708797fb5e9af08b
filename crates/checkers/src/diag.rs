//! Diagnostics emitted by checks.

use adsafe_lang::{SourceMap, Span};
use std::fmt;

/// How serious a finding is with respect to ISO 26262 adherence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational: a measured fact, not necessarily a violation.
    Info,
    /// A deviation that needs justification under the target ASIL.
    Warning,
    /// A construct highly-recommended against at the target ASIL.
    Violation,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Violation => "violation",
        };
        f.write_str(s)
    }
}

/// A single finding from a check.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Id of the check that produced this (e.g. `"misra-15.1-goto"`).
    pub check_id: &'static str,
    /// Severity of the finding.
    pub severity: Severity,
    /// Where in the source the finding anchors.
    pub span: Span,
    /// Human-readable message.
    pub message: String,
    /// Enclosing function (qualified), if applicable.
    pub function: Option<String>,
}

impl Diagnostic {
    /// Creates a diagnostic.
    pub fn new(
        check_id: &'static str,
        severity: Severity,
        span: Span,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic { check_id, severity, span, message: message.into(), function: None }
    }

    /// Attaches the enclosing function name.
    pub fn in_function(mut self, name: impl Into<String>) -> Self {
        self.function = Some(name.into());
        self
    }

    /// Renders as `path:line:col severity [check] message`.
    pub fn render(&self, sm: &SourceMap) -> String {
        format!(
            "{} {} [{}] {}",
            sm.describe(self.span),
            self.severity,
            self.check_id,
            self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsafe_lang::FileId;

    #[test]
    fn severity_ordering() {
        assert!(Severity::Info < Severity::Warning);
        assert!(Severity::Warning < Severity::Violation);
    }

    #[test]
    fn render_includes_location_and_id() {
        let mut sm = SourceMap::new();
        let id = sm.add_file("mod/a.c", "int x;\ngoto y;\n");
        let d = Diagnostic::new(
            "misra-15.1-goto",
            Severity::Violation,
            Span::new(id, 7, 11),
            "goto used",
        )
        .in_function("f");
        let r = d.render(&sm);
        assert!(r.contains("mod/a.c:2:1"), "{r}");
        assert!(r.contains("misra-15.1-goto"));
        assert!(r.contains("violation"));
        assert_eq!(d.function.as_deref(), Some("f"));
    }

    #[test]
    fn diag_eq_and_display() {
        assert_eq!(format!("{}", Severity::Info), "info");
        assert_eq!(format!("{}", Severity::Violation), "violation");
        let empty = Span::new(FileId(0), 0, 0);
        let a = Diagnostic::new("x", Severity::Info, empty, "m");
        let b = Diagnostic::new("x", Severity::Info, empty, "m");
        assert_eq!(a, b);
    }
}
