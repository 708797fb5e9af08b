//! Lightweight preprocessor pass.
//!
//! Industrial analysis tools such as Lizard do not run a full C
//! preprocessor; they strip comments, splice continuation lines, record
//! directives, and resolve conditional-compilation blocks with a simple
//! "take the first branch" policy. This module does the same:
//!
//! * comments are blanked out (newlines preserved, so spans and line
//!   numbers stay valid);
//! * `\`-continuations are spliced (replaced by spaces);
//! * every directive line is blanked;
//! * `#if/#ifdef/#ifndef` conditionals keep their first branch, except
//!   that `#ifdef NAME` / `#ifndef NAME` are evaluated against the macro
//!   table accumulated so far (so include guards behave correctly);
//! * object- and function-like macro definitions are recorded in
//!   [`PpInfo`] (names and parameter lists) but never expanded.

use crate::source::{FileId, Span};
use crate::token::PpKind;
use std::collections::HashMap;

/// A recorded macro definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacroDef {
    /// Macro name.
    pub name: String,
    /// Parameter names for function-like macros; `None` for object-like.
    pub params: Option<Vec<String>>,
    /// Replacement text (trimmed).
    pub body: String,
    /// Location of the directive line.
    pub span: Span,
}

/// Everything the preprocessor pass learned about one file.
#[derive(Debug, Clone, Default)]
pub struct PpInfo {
    /// All macro definitions, in order.
    pub macros: Vec<MacroDef>,
}

/// Result of preprocessing: cleaned text (same length as the input) plus
/// the harvested [`PpInfo`].
#[derive(Debug, Clone)]
pub struct Preprocessed {
    /// Text with comments/directives/inactive branches blanked out.
    /// Byte-for-byte the same length as the input, so spans into it are
    /// valid spans into the original file.
    pub text: String,
    /// Harvested macro definitions.
    pub info: PpInfo,
}

/// Runs the preprocessor pass over `src` (registered as `file`).
pub fn preprocess(file: FileId, src: &str) -> Preprocessed {
    let mut info = PpInfo::default();
    let text = process_directives(file, &strip_comments(src), &mut info);
    Preprocessed { text, info }
}

/// Replaces comments with spaces, preserving newlines and total length.
fn strip_comments(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match b {
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if i + 1 < bytes.len() && bytes[i + 1] == b'*' => {
                out.extend_from_slice(b"  ");
                i += 2;
                while i < bytes.len() {
                    if bytes[i] == b'*' && i + 1 < bytes.len() && bytes[i + 1] == b'/' {
                        out.extend_from_slice(b"  ");
                        i += 2;
                        break;
                    }
                    out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            b'"' | b'\'' => {
                // Copy string/char literals verbatim so `//` inside them
                // is not treated as a comment.
                let quote = b;
                out.push(b);
                i += 1;
                while i < bytes.len() {
                    let c = bytes[i];
                    out.push(c);
                    i += 1;
                    if c == b'\\' && i < bytes.len() {
                        out.push(bytes[i]);
                        i += 1;
                    } else if c == quote || c == b'\n' {
                        break;
                    }
                }
            }
            _ => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).expect("comment stripping preserves UTF-8")
}

fn directive_kind(name: &str) -> PpKind {
    match name {
        "include" => PpKind::Include,
        "define" => PpKind::Define,
        "undef" => PpKind::Undef,
        "if" => PpKind::If,
        "ifdef" => PpKind::Ifdef,
        "ifndef" => PpKind::Ifndef,
        "elif" => PpKind::Elif,
        "else" => PpKind::Else,
        "endif" => PpKind::Endif,
        "pragma" => PpKind::Pragma,
        "error" => PpKind::Error,
        "warning" => PpKind::Warning,
        "line" => PpKind::Line,
        _ => PpKind::Other,
    }
}

#[derive(Debug, Clone, Copy)]
struct CondFrame {
    /// Whether the enclosing context is active.
    parent_active: bool,
    /// Whether any branch of this conditional has been taken yet.
    taken: bool,
    /// Whether the current branch is active.
    active: bool,
}

/// Blanks directive lines and inactive conditional branches; records
/// macro definitions into `info`. Output has the same byte length as the input.
fn process_directives(file: FileId, src: &str, info: &mut PpInfo) -> String {
    let mut defined: HashMap<String, ()> = HashMap::new();
    let mut out = String::with_capacity(src.len());
    let mut stack: Vec<CondFrame> = Vec::new();
    let mut offset = 0usize;

    // Iterate physical lines, honouring `\` continuations for directives.
    let lines: Vec<&str> = src.split_inclusive('\n').collect();
    let mut li = 0usize;
    while li < lines.len() {
        let line = lines[li];
        let line_start = offset;
        let trimmed = line.trim_start();
        let active = stack.last().map(|f| f.active).unwrap_or(true);

        if trimmed.starts_with('#') {
            // Gather continuation lines into one logical directive.
            let mut logical = String::from(line.trim_end_matches(['\n', '\r']));
            let mut consumed = 1usize;
            while logical.ends_with('\\') && li + consumed < lines.len() {
                logical.pop();
                logical.push(' ');
                logical.push_str(lines[li + consumed].trim_end_matches(['\n', '\r']));
                consumed += 1;
            }
            let mut blanked_len = 0usize;
            for l in &lines[li..li + consumed] {
                blanked_len += l.len();
            }
            let span = Span::new(file, line_start as u32, (line_start + blanked_len) as u32);
            let body = logical.trim_start().trim_start_matches('#').trim_start();
            let name: String = body
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            let kind = directive_kind(&name);
            let rest = body[name.len()..].trim();

            match kind {
                PpKind::Ifdef | PpKind::Ifndef | PpKind::If => {
                    let cond = match kind {
                        PpKind::Ifdef => defined.contains_key(first_word(rest)),
                        PpKind::Ifndef => !defined.contains_key(first_word(rest)),
                        // `#if`: cannot evaluate general expressions; policy
                        // is "take the first branch" except literal `0`.
                        _ => first_word(rest) != "0",
                    };
                    stack.push(CondFrame {
                        parent_active: active,
                        taken: cond,
                        active: active && cond,
                    });
                }
                PpKind::Elif => {
                    if let Some(f) = stack.last_mut() {
                        if f.taken {
                            f.active = false;
                        } else {
                            f.taken = true;
                            f.active = f.parent_active;
                        }
                    }
                }
                PpKind::Else => {
                    if let Some(f) = stack.last_mut() {
                        f.active = f.parent_active && !f.taken;
                        f.taken = true;
                    }
                }
                PpKind::Endif => {
                    stack.pop();
                }
                PpKind::Define if active => {
                    if let Some(m) = parse_define(rest, span) {
                        defined.insert(m.name.clone(), ());
                        info.macros.push(m);
                    }
                }
                PpKind::Undef if active => {
                    defined.remove(first_word(rest));
                }
                _ => {}
            }
            // Blank all physical lines of the directive.
            for l in &lines[li..li + consumed] {
                push_blanked(&mut out, l);
            }
            offset += blanked_len;
            li += consumed;
        } else if !active {
            push_blanked(&mut out, line);
            offset += line.len();
            li += 1;
        } else {
            out.push_str(line);
            offset += line.len();
            li += 1;
        }
    }
    debug_assert_eq!(out.len(), src.len());
    out
}

/// Blanks `line` byte for byte (newlines kept): a multi-byte character
/// becomes as many spaces as it has bytes, so later spans stay put.
fn push_blanked(out: &mut String, line: &str) {
    out.extend(line.bytes().map(|b| if b == b'\n' { '\n' } else { ' ' }));
}

fn first_word(s: &str) -> &str {
    let s = s.trim_start();
    let end = s
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    &s[..end]
}

fn parse_define(rest: &str, span: Span) -> Option<MacroDef> {
    let rest = rest.trim_start();
    let name = first_word(rest);
    if name.is_empty() {
        return None;
    }
    let after = &rest[name.len()..];
    if let Some(stripped) = after.strip_prefix('(') {
        // Function-like: parameters up to the matching `)`.
        let close = stripped.find(')')?;
        let params: Vec<String> = stripped[..close]
            .split(',')
            .map(|p| p.trim().to_string())
            .filter(|p| !p.is_empty())
            .collect();
        Some(MacroDef {
            name: name.to_string(),
            params: Some(params),
            body: stripped[close + 1..].trim().to_string(),
            span,
        })
    } else {
        Some(MacroDef {
            name: name.to_string(),
            params: None,
            body: after.trim().to_string(),
            span,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pp(src: &str) -> Preprocessed {
        preprocess(FileId(0), src)
    }

    #[test]
    fn strips_line_and_block_comments() {
        let p = pp("int a; // trailing\nint /*mid*/ b;\n");
        assert!(p.text.contains("int a;"));
        assert!(!p.text.contains("trailing"));
        assert!(!p.text.contains("mid"));
        assert!(p.text.contains("int         b;"));
        assert_eq!(p.text.len(), "int a; // trailing\nint /*mid*/ b;\n".len());
    }

    #[test]
    fn block_comment_preserves_newlines() {
        let p = pp("a/*x\ny*/b\n");
        assert_eq!(p.text.matches('\n').count(), 2);
        assert!(p.text.starts_with('a'));
    }

    #[test]
    fn comment_markers_in_strings_kept() {
        let p = pp("const char* s = \"// not a comment\";\n");
        assert!(p.text.contains("// not a comment"));
    }

    #[test]
    fn records_includes_and_defines() {
        let p =
            pp("#include <stdio.h>\n#include \"my.h\"\n#define N 10\n#define SQ(x) ((x)*(x))\n");
        assert_eq!(p.info.macros.len(), 2);
        assert_eq!(p.info.macros[0].params, None);
        let sq = &p.info.macros[1];
        assert_eq!(sq.name, "SQ");
        assert_eq!(sq.params.as_deref(), Some(&["x".to_string()][..]));
        assert_eq!(sq.body, "((x)*(x))");
    }

    #[test]
    fn include_guard_keeps_body() {
        let src = "#ifndef H_\n#define H_\nint x;\n#endif\n";
        let p = pp(src);
        assert!(p.text.contains("int x;"));
    }

    #[test]
    fn if_zero_suppresses_branch() {
        let src = "#if 0\nint dead;\n#else\nint live;\n#endif\n";
        let p = pp(src);
        assert!(!p.text.contains("dead"));
        assert!(p.text.contains("live"));
    }

    #[test]
    fn if_one_takes_first_branch() {
        let src = "#if FEATURE\nint first;\n#else\nint second;\n#endif\n";
        let p = pp(src);
        assert!(p.text.contains("first"));
        assert!(!p.text.contains("second"));
    }

    #[test]
    fn ifdef_uses_macro_table() {
        let src = "#define HAVE_X\n#ifdef HAVE_X\nint yes;\n#endif\n#ifdef NO_X\nint no;\n#endif\n";
        let p = pp(src);
        assert!(p.text.contains("yes"));
        assert!(!p.text.contains("no"));
    }

    #[test]
    fn continuation_lines_spliced() {
        let src = "#define LONG \\\n  value\nint a;\n";
        let p = pp(src);
        let m = &p.info.macros[0];
        assert_eq!(m.name, "LONG");
        assert_eq!(m.body, "value");
        assert!(p.text.contains("int a;"));
        assert_eq!(p.text.len(), src.len());
    }

    #[test]
    fn nested_conditionals() {
        let src = "#ifdef A\n#ifdef B\nint ab;\n#endif\nint a;\n#endif\nint always;\n";
        let p = pp(src);
        assert!(!p.text.contains("ab"));
        assert!(!p.text.contains("int a;"));
        assert!(p.text.contains("always"));
    }

    #[test]
    fn multi_byte_text_in_disabled_and_directive_lines_keeps_spans() {
        let src = "#if 0\nbad \u{fffd} byte\n#endif // \u{fffd}\n\
                   #define M \"\u{fffd}\"\nint after;\n";
        let p = pp(src);
        assert_eq!(p.text.len(), src.len());
        let at = src.find("int after;").unwrap();
        assert_eq!(&p.text[at..at + 10], "int after;");
        assert!(!p.text.contains('\u{fffd}'));
    }

    #[test]
    fn output_length_always_matches_input() {
        for src in [
            "",
            "int x;",
            "/* unterminated",
            "// only comment",
            "#define A 1\n#if A\nx\n#endif",
        ] {
            assert_eq!(pp(src).text.len(), src.len(), "src={src:?}");
        }
    }
}
