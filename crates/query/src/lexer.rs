//! Total lexer for the `.aq` rule-query language.
//!
//! The lexer never fails: unknown bytes and unterminated strings become
//! [`TokenKind::Error`] tokens the parser reports with a line number and
//! recovers past. Comments run from `#` to end of line. Every token
//! carries the 1-based line it starts on so pack diagnostics can name
//! `file:line` without a source map.

/// One lexical token kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (keywords are contextual).
    Ident(String),
    /// Double-quoted string literal, unescaped.
    Str(String),
    /// Integer literal (optionally negative).
    Int(i64),
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `->`
    Arrow,
    /// `==`
    EqEq,
    /// `!=`
    Ne,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// Anything the language has no token for; payload describes it.
    Error(String),
    /// End of input.
    Eof,
}

/// A token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// 1-based line the token starts on.
    pub line: u32,
}

/// Lexes `src` completely; the last token is always [`TokenKind::Eof`].
pub fn lex(src: &str) -> Vec<Token> {
    let bytes = src.as_bytes();
    let mut out = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    while i < bytes.len() {
        let c = bytes[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'#' => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    i += 1;
                }
            }
            b'{' => {
                out.push(Token {
                    kind: TokenKind::LBrace,
                    line,
                });
                i += 1;
            }
            b'}' => {
                out.push(Token {
                    kind: TokenKind::RBrace,
                    line,
                });
                i += 1;
            }
            b'(' => {
                out.push(Token {
                    kind: TokenKind::LParen,
                    line,
                });
                i += 1;
            }
            b')' => {
                out.push(Token {
                    kind: TokenKind::RParen,
                    line,
                });
                i += 1;
            }
            b',' => {
                out.push(Token {
                    kind: TokenKind::Comma,
                    line,
                });
                i += 1;
            }
            b'=' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(Token {
                    kind: TokenKind::EqEq,
                    line,
                });
                i += 2;
            }
            b'!' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(Token {
                    kind: TokenKind::Ne,
                    line,
                });
                i += 2;
            }
            b'<' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(Token {
                    kind: TokenKind::Le,
                    line,
                });
                i += 2;
            }
            b'>' if bytes.get(i + 1) == Some(&b'=') => {
                out.push(Token {
                    kind: TokenKind::Ge,
                    line,
                });
                i += 2;
            }
            b'<' => {
                out.push(Token {
                    kind: TokenKind::Lt,
                    line,
                });
                i += 1;
            }
            b'>' => {
                out.push(Token {
                    kind: TokenKind::Gt,
                    line,
                });
                i += 1;
            }
            b'-' if bytes.get(i + 1) == Some(&b'>') => {
                out.push(Token {
                    kind: TokenKind::Arrow,
                    line,
                });
                i += 2;
            }
            b'-' if bytes.get(i + 1).is_some_and(|b| b.is_ascii_digit()) => {
                let (kind, next) = lex_int(src, i + 1, true);
                out.push(Token { kind, line });
                i = next;
            }
            b'"' => {
                let (kind, next, newlines) = lex_string(src, i);
                out.push(Token { kind, line });
                line += newlines;
                i = next;
            }
            c if c.is_ascii_digit() => {
                let (kind, next) = lex_int(src, i, false);
                out.push(Token { kind, line });
                i = next;
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                out.push(Token {
                    kind: TokenKind::Ident(src[start..i].to_string()),
                    line,
                });
            }
            other => {
                // Consume the whole UTF-8 scalar so the next iteration
                // lands on a character boundary.
                let ch_len = utf8_len(other);
                let end = (i + ch_len).min(bytes.len());
                out.push(Token {
                    kind: TokenKind::Error(format!(
                        "unexpected character `{}`",
                        String::from_utf8_lossy(&bytes[i..end])
                    )),
                    line,
                });
                i = end;
            }
        }
    }
    out.push(Token {
        kind: TokenKind::Eof,
        line,
    });
    out
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b >= 0xf0 => 4,
        b if b >= 0xe0 => 3,
        b if b >= 0xc0 => 2,
        _ => 1,
    }
}

fn lex_int(src: &str, digits_at: usize, negative: bool) -> (TokenKind, usize) {
    let bytes = src.as_bytes();
    let mut i = digits_at;
    while i < bytes.len() && bytes[i].is_ascii_digit() {
        i += 1;
    }
    let text = &src[digits_at..i];
    let kind = match text.parse::<i64>() {
        Ok(v) => TokenKind::Int(if negative { -v } else { v }),
        Err(_) => TokenKind::Error(format!("integer literal `{text}` out of range")),
    };
    (kind, i)
}

/// Lexes a string literal starting at the opening quote. Returns the
/// token, the index past the closing quote, and how many newlines were
/// consumed (strings may not span lines; a newline ends the error token).
fn lex_string(src: &str, open: usize) -> (TokenKind, usize, u32) {
    let bytes = src.as_bytes();
    let mut i = open + 1;
    let mut text = String::new();
    while i < bytes.len() {
        match bytes[i] {
            b'"' => return (TokenKind::Str(text), i + 1, 0),
            b'\n' => {
                return (
                    TokenKind::Error("unterminated string literal".to_string()),
                    i,
                    0,
                )
            }
            b'\\' => match bytes.get(i + 1) {
                Some(b'"') => {
                    text.push('"');
                    i += 2;
                }
                Some(b'\\') => {
                    text.push('\\');
                    i += 2;
                }
                Some(b'n') => {
                    text.push('\n');
                    i += 2;
                }
                Some(b't') => {
                    text.push('\t');
                    i += 2;
                }
                Some(other) => {
                    return (
                        TokenKind::Error(format!(
                            "unknown escape `\\{}` in string",
                            *other as char
                        )),
                        i + 2,
                        0,
                    )
                }
                None => break,
            },
            _ => {
                let ch_len = utf8_len(bytes[i]);
                let end = (i + ch_len).min(bytes.len());
                text.push_str(&String::from_utf8_lossy(&bytes[i..end]));
                i = end;
            }
        }
    }
    (
        TokenKind::Error("unterminated string literal".to_string()),
        i,
        0,
    )
}

/// Escapes `text` for re-emission as a `.aq` string literal.
pub fn escape_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            other => out.push(other),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_the_issue_example() {
        let ks = kinds("function where cc > 10 and exits > 1 -> warn iso(t4r1)");
        assert_eq!(ks[0], TokenKind::Ident("function".into()));
        assert!(ks.contains(&TokenKind::Gt));
        assert!(ks.contains(&TokenKind::Arrow));
        assert_eq!(*ks.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn string_escapes_round_trip() {
        for text in [
            "plain",
            "with \"quotes\"",
            "tab\tand\nnewline",
            "back\\slash",
        ] {
            let lit = escape_string(text);
            let toks = lex(&lit);
            assert_eq!(toks[0].kind, TokenKind::Str(text.to_string()), "{lit}");
        }
    }

    #[test]
    fn unterminated_string_is_an_error_token_not_a_panic() {
        let ks = kinds("rule \"oops\n");
        assert!(ks.iter().any(|k| matches!(k, TokenKind::Error(_))));
        assert_eq!(*ks.last().unwrap(), TokenKind::Eof);
    }

    #[test]
    fn lines_are_tracked() {
        let toks = lex("rule\n\nfunction");
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 3);
    }

    #[test]
    fn negative_ints_and_arrows_disambiguate() {
        assert_eq!(kinds("-3")[0], TokenKind::Int(-3));
        assert_eq!(kinds("->")[0], TokenKind::Arrow);
    }

    #[test]
    fn total_on_arbitrary_bytes() {
        let soup = "\u{00e9}\u{4e16}\\ @ $ %% `tick` 999999999999999999999999";
        let toks = lex(soup);
        assert_eq!(*toks.last().map(|t| &t.kind).unwrap(), TokenKind::Eof);
    }
}
