//! Diagnostics emitted by checks.

use adsafe_lang::{SourceMap, Span};
use std::collections::HashMap;
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
        Diagnostic {
            check_id,
            severity,
            span,
            message: message.into(),
            function: None,
        }
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

/// Sorts `diags` into the canonical report order — by rule id, then
/// file, then start offset — stably, as
/// `sort_by_key(|d| (d.check_id, d.span.file, d.span.start))` would. The
/// rule ids are ranked once, so the sort compares packed integers
/// instead of strings; the findings then move into place by swaps, so
/// the only scratch is one 16-byte key per finding.
pub fn sort_canonical(diags: &mut [Diagnostic]) {
    let mut ids: Vec<&'static str> = Vec::new();
    let mut slots: HashMap<&'static str, u64> = HashMap::new();
    let mut last: Option<(&'static str, u64)> = None;
    // (id slot, file) and (start, index): the index breaks ties, so the
    // unstable sort keeps equal keys in emission order.
    let mut keys: Vec<(u64, u64)> = Vec::with_capacity(diags.len());
    for (i, d) in diags.iter().enumerate() {
        // Findings of one rule arrive in runs: compare by address first.
        let slot = match last {
            Some((prev, slot)) if std::ptr::eq(prev, d.check_id) => slot,
            _ => *slots.entry(d.check_id).or_insert_with(|| {
                ids.push(d.check_id);
                ids.len() as u64 - 1
            }),
        };
        last = Some((d.check_id, slot));
        keys.push((
            slot << 32 | u64::from(d.span.file.0),
            u64::from(d.span.start) << 32 | i as u64,
        ));
    }
    let mut by_id: Vec<usize> = (0..ids.len()).collect();
    by_id.sort_unstable_by_key(|&s| ids[s]);
    let mut rank = vec![0u64; ids.len()];
    for (r, &s) in by_id.iter().enumerate() {
        rank[s] = r as u64;
    }
    for key in &mut keys {
        key.0 = rank[(key.0 >> 32) as usize] << 32 | (key.0 & 0xffff_ffff);
    }
    keys.sort_unstable();
    // Position `k` takes the finding at `keys[k]`'s index: follow each
    // cycle of the permutation, marking finished positions.
    const DONE: u64 = u64::MAX;
    for i in 0..keys.len() {
        let mut at = i;
        while keys[at].1 != DONE {
            let from = (keys[at].1 & 0xffff_ffff) as usize;
            keys[at].1 = DONE;
            if from == i {
                break;
            }
            diags.swap(at, from);
            at = from;
        }
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
    fn canonical_sort_is_the_stable_key_sort() {
        // Equal ids at distinct addresses, equal keys with distinct
        // messages, and ids whose order differs from first appearance.
        let ids: [&'static str; 4] = [
            "b-rule",
            "a-rule",
            String::from("b-rule").leak(),
            "a-rule-2",
        ];
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        for len in [0, 1, 2, 7, 64, 500] {
            let mut diags: Vec<Diagnostic> = (0..len)
                .map(|i| {
                    let at = next(5) as u32;
                    let span = Span::new(FileId(next(3) as u32), at, at + 1);
                    Diagnostic::new(ids[next(4) as usize], Severity::Info, span, format!("m{i}"))
                })
                .collect();
            let mut reference = diags.clone();
            reference.sort_by_key(|d| (d.check_id, d.span.file, d.span.start));
            sort_canonical(&mut diags);
            assert_eq!(diags, reference, "len {len}");
        }
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
