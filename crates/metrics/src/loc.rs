//! Line-of-code metrics: physical lines, non-blank non-comment lines
//! (NLOC), and comment density, per file and per span.

use adsafe_lang::preprocess::preprocess;
use adsafe_lang::{FileId, SourceFile, Span};

/// Line counts for a file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LocCounts {
    /// Total physical lines.
    pub physical: usize,
    /// Lines containing at least one code token (after comment/directive
    /// stripping) — the "NLOC" figure tools like Lizard report.
    pub nloc: usize,
    /// Lines containing (part of) a comment.
    pub comment: usize,
    /// Blank lines.
    pub blank: usize,
    /// Preprocessor directive lines.
    pub directive: usize,
}

impl LocCounts {}

/// Counts lines in a source file.
pub fn count_file(file: &SourceFile) -> LocCounts {
    let pre = preprocess(file.id(), file.text());
    let mut c = LocCounts {
        physical: file.line_count(),
        ..LocCounts::default()
    };
    let clean_lines: Vec<&str> = pre.text.split('\n').collect();
    for (i, (_, raw)) in file.lines().enumerate() {
        let clean = clean_lines.get(i).copied().unwrap_or("");
        let raw_trim = raw.trim();
        let clean_trim = clean.trim();
        let had_comment = raw.contains("//")
            || raw.contains("/*")
            || raw.contains("*/")
            || (raw_trim.starts_with('*') && clean_trim.is_empty() && !raw_trim.is_empty());
        if raw_trim.is_empty() {
            c.blank += 1;
        } else if raw_trim.starts_with('#') {
            c.directive += 1;
        } else if !clean_trim.is_empty() {
            c.nloc += 1;
            if had_comment {
                c.comment += 1;
            }
        } else if had_comment || !raw_trim.is_empty() {
            c.comment += 1;
        }
    }
    c
}

/// Number of non-blank lines covered by `span` within `file` — used for
/// function-length metrics.
pub fn span_nloc(file: &SourceFile, span: Span) -> usize {
    debug_assert_eq!(file.id(), span.file, "span from a different file");
    let text = file.text();
    let start = (span.start as usize).min(text.len());
    let end = (span.end as usize).min(text.len());
    text[start..end]
        .lines()
        .filter(|l| !l.trim().is_empty())
        .count()
}

/// Convenience: line counts straight from text.
pub fn count_text(text: &str) -> LocCounts {
    let mut sm = adsafe_lang::SourceMap::new();
    let id = sm.add_file("<text>", text);
    let _ = FileId(0);
    count_file(sm.file(id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_mixed_file() {
        let src = "\
// header comment
#include <stdio.h>

int main() { // entry
    return 0; /* done */
}
";
        let c = count_text(src);
        assert_eq!(c.physical, 6);
        assert_eq!(c.blank, 1);
        assert_eq!(c.directive, 1);
        assert_eq!(c.nloc, 3); // int main, return, }
        assert_eq!(c.comment, 3); // header line + the two inline-comment code lines
    }

    #[test]
    fn pure_comment_lines() {
        let c = count_text("// a\n// b\nint x;\n");
        assert_eq!(c.nloc, 1);
        assert_eq!(c.comment, 2);
    }

    #[test]
    fn block_comment_spanning_lines() {
        let c = count_text("/*\n multi\n line\n*/\nint x;\n");
        assert_eq!(c.nloc, 1);
        assert_eq!(c.comment, 4);
    }

    #[test]
    fn empty_text() {
        let c = count_text("");
        assert_eq!(c.nloc, 0);
    }

    #[test]
    fn span_nloc_counts_nonblank() {
        let mut sm = adsafe_lang::SourceMap::new();
        let id = sm.add_file("a.c", "int f() {\n\n  return 1;\n}\n");
        let f = sm.file(id);
        let span = Span::new(id, 0, f.text().len() as u32);
        assert_eq!(span_nloc(f, span), 3);
    }
}
