//! Tokenizer for preprocessed C/C++/CUDA source.
//!
//! The lexer operates on the output of [`crate::preprocess::preprocess`]
//! (comments and directives already blanked), is total (never fails — any
//! unexpected byte becomes part of the previous recovery or is skipped),
//! and records enough to rebuild lexemes from spans.

use crate::ast::OctalLiteral;
use crate::source::{FileId, Span};
use crate::token::{Kw, Punct, Token, TokenKind};

/// Lexes `text` (belonging to `file`) into a token vector terminated by a
/// single [`TokenKind::Eof`] token.
pub fn lex(file: FileId, text: &str) -> Vec<Token> {
    Lexer {
        file,
        text: text.as_bytes(),
        pos: 0,
    }
    .run()
}

/// The integer literals among `toks` (lexed from `text`) spelled in
/// octal: a leading `0`, more than one digit, all decimal digits once
/// `u`/`l` suffixes are trimmed.
pub(crate) fn octal_literals(text: &str, toks: &[Token]) -> Vec<OctalLiteral> {
    toks.iter()
        .filter(|t| t.kind == TokenKind::IntLit)
        .filter_map(|t| {
            let lexeme = &text[t.span.start as usize..t.span.end as usize];
            let digits = lexeme.trim_end_matches(['u', 'U', 'l', 'L']);
            let octal = digits.len() > 1
                && digits.starts_with('0')
                && digits.bytes().all(|b| b.is_ascii_digit());
            octal.then(|| OctalLiteral {
                span: t.span,
                lexeme: lexeme.to_string(),
            })
        })
        .collect()
}

struct Lexer<'a> {
    file: FileId,
    text: &'a [u8],
    pos: usize,
}

impl<'a> Lexer<'a> {
    fn run(mut self) -> Vec<Token> {
        let mut out = Vec::new();
        while self.pos < self.text.len() {
            self.skip_ws();
            if self.pos >= self.text.len() {
                break;
            }
            let start = self.pos;
            let kind = self.next_kind();
            match kind {
                Some(kind) => {
                    out.push(Token::new(
                        kind,
                        Span::new(self.file, start as u32, self.pos as u32),
                    ));
                }
                None => {
                    // Unknown byte: skip it. The lexer is total.
                    self.pos += 1;
                }
            }
        }
        let end = self.text.len() as u32;
        out.push(Token::new(TokenKind::Eof, Span::new(self.file, end, end)));
        out
    }

    fn skip_ws(&mut self) {
        while self.pos < self.text.len() && self.text[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self, n: usize) -> u8 {
        *self.text.get(self.pos + n).unwrap_or(&0)
    }

    fn next_kind(&mut self) -> Option<TokenKind> {
        let b = self.text[self.pos];
        match b {
            b'a'..=b'z' | b'A'..=b'Z' | b'_' => Some(self.ident_or_keyword()),
            b'0'..=b'9' => Some(self.number()),
            b'.' if self.peek(1).is_ascii_digit() => Some(self.number()),
            b'"' => Some(self.string_lit(b'"')),
            b'\'' => Some(self.string_lit(b'\'')),
            _ => self.punct().map(TokenKind::Punct),
        }
    }

    fn ident_or_keyword(&mut self) -> TokenKind {
        let start = self.pos;
        while self.pos < self.text.len()
            && (self.text[self.pos].is_ascii_alphanumeric() || self.text[self.pos] == b'_')
        {
            self.pos += 1;
        }
        let word = std::str::from_utf8(&self.text[start..self.pos]).unwrap_or("");
        // String literal prefixes: L"...", u8"...", R"(...)" etc.
        if (word == "L" || word == "u" || word == "U" || word == "u8")
            && (self.peek(0) == b'"' || self.peek(0) == b'\'')
        {
            let quote = self.peek(0);
            return self.string_lit(quote);
        }
        match Kw::from_str(word) {
            Some(k) => TokenKind::Keyword(k),
            None => TokenKind::Ident,
        }
    }

    fn number(&mut self) -> TokenKind {
        let start = self.pos;
        let mut is_float = false;
        if self.peek(0) == b'0' && matches!(self.peek(1), b'x' | b'X') {
            self.pos += 2;
            while self.peek(0).is_ascii_hexdigit() {
                self.pos += 1;
            }
        } else if self.peek(0) == b'0' && matches!(self.peek(1), b'b' | b'B') {
            self.pos += 2;
            while matches!(self.peek(0), b'0' | b'1') {
                self.pos += 1;
            }
        } else {
            while self.peek(0).is_ascii_digit() {
                self.pos += 1;
            }
            if self.peek(0) == b'.' {
                is_float = true;
                self.pos += 1;
                while self.peek(0).is_ascii_digit() {
                    self.pos += 1;
                }
            }
            if matches!(self.peek(0), b'e' | b'E') {
                let mut ahead = 1;
                if matches!(self.peek(1), b'+' | b'-') {
                    ahead = 2;
                }
                if self.peek(ahead).is_ascii_digit() {
                    is_float = true;
                    self.pos += ahead;
                    while self.peek(0).is_ascii_digit() {
                        self.pos += 1;
                    }
                }
            }
        }
        // Suffixes: u, l, ul, ll, ull, f, ...
        while matches!(self.peek(0), b'u' | b'U' | b'l' | b'L' | b'f' | b'F') {
            if matches!(self.peek(0), b'f' | b'F') && self.pos > start {
                is_float = true;
            }
            self.pos += 1;
        }
        let _ = start;
        if is_float {
            TokenKind::FloatLit
        } else {
            TokenKind::IntLit
        }
    }

    fn string_lit(&mut self, quote: u8) -> TokenKind {
        // self.pos is at the opening quote.
        self.pos += 1;
        while self.pos < self.text.len() {
            let c = self.text[self.pos];
            self.pos += 1;
            if c == b'\\' && self.pos < self.text.len() {
                self.pos += 1;
            } else if c == quote || c == b'\n' {
                break;
            }
        }
        if quote == b'"' {
            TokenKind::StrLit
        } else {
            TokenKind::CharLit
        }
    }

    fn punct(&mut self) -> Option<Punct> {
        use Punct::*;
        let (p, len) = match (self.peek(0), self.peek(1), self.peek(2)) {
            (b'<', b'<', b'<') => (TripleLt, 3),
            (b'>', b'>', b'>') => (TripleGt, 3),
            (b'<', b'<', b'=') => (ShlAssign, 3),
            (b'>', b'>', b'=') => (ShrAssign, 3),
            (b'.', b'.', b'.') => (Ellipsis, 3),
            (b'-', b'>', b'*') => (ArrowStar, 3),
            (b'-', b'>', _) => (Arrow, 2),
            (b'+', b'+', _) => (PlusPlus, 2),
            (b'-', b'-', _) => (MinusMinus, 2),
            (b'&', b'&', _) => (AmpAmp, 2),
            (b'|', b'|', _) => (PipePipe, 2),
            (b'<', b'=', _) => (Le, 2),
            (b'>', b'=', _) => (Ge, 2),
            (b'=', b'=', _) => (EqEq, 2),
            (b'!', b'=', _) => (Ne, 2),
            (b'<', b'<', _) => (Shl, 2),
            (b'>', b'>', _) => (Shr, 2),
            (b'+', b'=', _) => (PlusAssign, 2),
            (b'-', b'=', _) => (MinusAssign, 2),
            (b'*', b'=', _) => (StarAssign, 2),
            (b'/', b'=', _) => (SlashAssign, 2),
            (b'%', b'=', _) => (PercentAssign, 2),
            (b'&', b'=', _) => (AmpAssign, 2),
            (b'|', b'=', _) => (PipeAssign, 2),
            (b'^', b'=', _) => (CaretAssign, 2),
            (b':', b':', _) => (ColonColon, 2),
            (b'.', b'*', _) => (DotStar, 2),
            (b'(', ..) => (LParen, 1),
            (b')', ..) => (RParen, 1),
            (b'{', ..) => (LBrace, 1),
            (b'}', ..) => (RBrace, 1),
            (b'[', ..) => (LBracket, 1),
            (b']', ..) => (RBracket, 1),
            (b';', ..) => (Semi, 1),
            (b',', ..) => (Comma, 1),
            (b'.', ..) => (Dot, 1),
            (b'+', ..) => (Plus, 1),
            (b'-', ..) => (Minus, 1),
            (b'*', ..) => (Star, 1),
            (b'/', ..) => (Slash, 1),
            (b'%', ..) => (Percent, 1),
            (b'&', ..) => (Amp, 1),
            (b'|', ..) => (Pipe, 1),
            (b'^', ..) => (Caret, 1),
            (b'~', ..) => (Tilde, 1),
            (b'!', ..) => (Bang, 1),
            (b'<', ..) => (Lt, 1),
            (b'>', ..) => (Gt, 1),
            (b'=', ..) => (Assign, 1),
            (b'?', ..) => (Question, 1),
            (b':', ..) => (Colon, 1),
            (b'@', ..) => (At, 1),
            _ => return None,
        };
        self.pos += len;
        Some(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::TokenKind::{
        CharLit, Eof, FloatLit, Ident, IntLit, Keyword, Punct as PunctTok, StrLit,
    };

    fn kinds(src: &str) -> Vec<TokenKind> {
        lex(FileId(0), src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn lexes_declaration() {
        assert_eq!(
            kinds("int x = 42;"),
            vec![
                Keyword(Kw::Int),
                Ident,
                PunctTok(Punct::Assign),
                IntLit,
                PunctTok(Punct::Semi),
                Eof
            ]
        );
    }

    #[test]
    fn lexes_numbers() {
        assert_eq!(
            kinds("0x1F 0b101 123u 45ull")[..4],
            [IntLit, IntLit, IntLit, IntLit]
        );
        assert_eq!(
            kinds("1.5 2e10 3.0f .5")[..4],
            [FloatLit, FloatLit, FloatLit, FloatLit]
        );
        // `e` without exponent digits is not a float marker.
        assert_eq!(kinds("5")[0], IntLit);
    }

    #[test]
    fn lexes_strings_and_chars() {
        assert_eq!(
            kinds(r#""hello \"x\"" 'c' L"wide""#)[..3],
            [StrLit, CharLit, StrLit]
        );
    }

    #[test]
    fn lexes_cuda_launch_delimiters() {
        let k = kinds("k<<<grid, block>>>(a);");
        assert_eq!(k[0], Ident);
        assert_eq!(k[1], PunctTok(Punct::TripleLt));
        assert_eq!(k[5], PunctTok(Punct::TripleGt));
    }

    #[test]
    fn maximal_munch_operators() {
        assert_eq!(
            kinds("a <<= b >>= c << d >> e <= f >= g")
                .iter()
                .filter(|k| matches!(k, PunctTok(_)))
                .count(),
            6
        );
        assert_eq!(kinds("x->y")[1], PunctTok(Punct::Arrow));
        assert_eq!(kinds("a::b")[1], PunctTok(Punct::ColonColon));
        assert_eq!(kinds("...")[0], PunctTok(Punct::Ellipsis));
    }

    #[test]
    fn cuda_keywords() {
        assert_eq!(kinds("__global__ void k()")[0], Keyword(Kw::CudaGlobal));
        assert_eq!(
            kinds("__shared__ float s[256];")[0],
            Keyword(Kw::CudaShared)
        );
    }

    #[test]
    fn unknown_bytes_are_skipped() {
        let k = kinds("a $ b");
        assert_eq!(k, vec![Ident, Ident, Eof]);
    }

    #[test]
    fn spans_recover_lexemes() {
        let src = "float alpha = 1.5f;";
        let toks = lex(FileId(0), src);
        let texts: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind != Eof)
            .map(|t| &src[t.span.start as usize..t.span.end as usize])
            .collect();
        assert_eq!(texts, vec!["float", "alpha", "=", "1.5f", ";"]);
    }

    #[test]
    fn eof_always_last_and_only_once() {
        for src in ["", "x", "((("] {
            let toks = lex(FileId(0), src);
            assert_eq!(toks.last().unwrap().kind, Eof);
            assert_eq!(toks.iter().filter(|t| t.kind == Eof).count(), 1);
        }
    }
}
