//! Token-only metric estimation: the bottom tier of the degradation
//! ladder.
//!
//! When a file cannot be parsed at all (the parser panicked, or the
//! content is so mangled that the AST would be a single opaque blob),
//! the assessment still needs *some* evidence from it — "every file
//! contributes" is a core robustness guarantee. This module recovers
//! Lizard-style figures from the token stream alone: NLOC, an estimated
//! function count, and an estimated total cyclomatic complexity from
//! branch tokens. The lexer is total, so this tier cannot fail on any
//! UTF-8 input (non-UTF-8 bytes are lossily replaced by the caller).

use crate::cyclomatic::ComplexityHistogram;
use crate::module::ModuleMetrics;
use adsafe_lang::lexer::lex;
use adsafe_lang::preprocess::preprocess;
use adsafe_lang::token::{Kw, Punct, TokenKind};
use adsafe_lang::FileId;

/// Metrics recovered from tokens alone, without a parse.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TokenEstimate {
    /// Total physical lines.
    pub physical: usize,
    /// Lines carrying at least one code token (Lizard's NLOC).
    pub nloc: usize,
    /// Number of code tokens.
    pub token_count: usize,
    /// Estimated function definitions: top-level `...) {` sequences.
    pub est_functions: usize,
    /// Estimated total cyclomatic complexity: one per estimated
    /// function plus one per branch keyword / short-circuit operator.
    pub est_cyclomatic: u32,
}

impl TokenEstimate {
    /// Mean complexity per estimated function (whole estimate if no
    /// function boundary was recognisable).
    pub fn mean_cyclomatic(&self) -> u32 {
        match (self.est_cyclomatic as usize).checked_div(self.est_functions) {
            None => self.est_cyclomatic,
            Some(per_fn) => per_fn.max(1) as u32,
        }
    }
}

/// Estimates metrics for `text` from its token stream alone.
///
/// Comments and directives are stripped first so NLOC matches what
/// [`crate::loc::count_file`] would report for a parseable file.
pub fn token_estimate(file: FileId, text: &str) -> TokenEstimate {
    let pre = preprocess(file, text);
    let tokens = lex(file, &pre.text);

    // Byte offsets of line starts, for span → line mapping.
    let mut line_starts: Vec<u32> = vec![0];
    for (i, b) in pre.text.bytes().enumerate() {
        if b == b'\n' {
            line_starts.push(i as u32 + 1);
        }
    }
    let line_of = |off: u32| match line_starts.binary_search(&off) {
        Ok(i) => i,
        Err(i) => i - 1,
    };

    let mut est = TokenEstimate {
        physical: if text.is_empty() {
            0
        } else {
            text.lines().count()
        },
        ..TokenEstimate::default()
    };

    let mut code_lines = vec![false; line_starts.len()];
    let mut depth: usize = 0;
    let mut prev_kind: Option<TokenKind> = None;
    let mut branch_tokens: u32 = 0;

    for t in &tokens {
        if t.kind == TokenKind::Eof {
            break;
        }
        est.token_count += 1;
        let first = line_of(t.span.start);
        let last = line_of(t.span.end.saturating_sub(1).max(t.span.start));
        for flag in &mut code_lines[first..=last] {
            *flag = true;
        }
        match t.kind {
            TokenKind::Punct(Punct::LBrace) => {
                if depth == 0 && prev_kind == Some(TokenKind::Punct(Punct::RParen)) {
                    est.est_functions += 1;
                }
                depth += 1;
            }
            TokenKind::Punct(Punct::RBrace) => depth = depth.saturating_sub(1),
            TokenKind::Keyword(Kw::If | Kw::For | Kw::While | Kw::Case | Kw::Catch)
            | TokenKind::Punct(Punct::AmpAmp | Punct::PipePipe | Punct::Question) => {
                branch_tokens += 1;
            }
            _ => {}
        }
        prev_kind = Some(t.kind);
    }

    est.nloc = code_lines.iter().filter(|&&c| c).count();
    est.est_cyclomatic = est.est_functions.max(1) as u32 + branch_tokens;
    est
}

/// Folds a token-only estimate for an unparseable file into a module's
/// metrics so the file still contributes NLOC/CC evidence.
///
/// The estimate is attributed as `est_functions` pseudo-functions of
/// mean complexity (at least one when any complexity was seen) in the
/// module's histogram, so they reach the function count and the CC
/// bands of Figure 3 and the evidence; they add no parameters, so the
/// interface size stays a mean over parsed functions. The absorbed-file
/// counter records how much of the module's evidence came in degraded.
pub fn absorb_estimate(m: &mut ModuleMetrics, est: &TokenEstimate) {
    m.file_count += 1;
    m.absorbed_files += 1;
    m.loc.physical += est.physical;
    m.loc.nloc += est.nloc;
    let per_fn = est.mean_cyclomatic();
    for _ in 0..est
        .est_functions
        .max(if est.est_cyclomatic > 0 { 1 } else { 0 })
    {
        m.histogram.add(per_fn);
    }
}

/// Builds a `ModuleMetrics` from estimates only (module where *no* file
/// parsed).
pub fn module_from_estimates(name: &str, ests: &[TokenEstimate]) -> ModuleMetrics {
    let mut m = ModuleMetrics {
        name: name.to_string(),
        file_count: 0,
        loc: crate::loc::LocCounts::default(),
        histogram: ComplexityHistogram::default(),
        parsed_functions: 0,
        global_count: 0,
        mean_params: 0.0,
        cohesion: 1.0,
        absorbed_files: 0,
    };
    for est in ests {
        absorb_estimate(&mut m, est);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsafe_lang::SourceMap;

    fn est(text: &str) -> TokenEstimate {
        let mut sm = SourceMap::new();
        let id = sm.add_file("t.cc", text);
        token_estimate(id, text)
    }

    #[test]
    fn clean_file_counts_match_intent() {
        let e = est("int f(int x) {\n  if (x > 0 && x < 9) return 1;\n  return 0;\n}\n");
        assert_eq!(e.physical, 4);
        assert_eq!(e.nloc, 4);
        assert_eq!(e.est_functions, 1);
        // 1 (function) + if + && = 3, same as the parsed CC.
        assert_eq!(e.est_cyclomatic, 3);
    }

    #[test]
    fn comments_and_directives_excluded_from_nloc() {
        let e = est("#include <x.h>\n// comment only\nint g; /* c */\n\n");
        assert_eq!(e.nloc, 1);
        assert!(e.token_count >= 3); // int g ;
    }

    #[test]
    fn total_on_garbage_input() {
        let e = est("\u{fffd}\u{fffd} int { ) ((( \u{1F600} broken\x07");
        assert!(e.token_count > 0);
        assert!(e.est_cyclomatic >= 1);
    }

    #[test]
    fn estimates_survive_brace_deletion() {
        // A file whose braces were corrupted away still yields NLOC and
        // branch-based complexity.
        let e = est("void f(int x)\n  if (x) x++;\n  while (x) x--;\n");
        assert_eq!(e.nloc, 3);
        assert_eq!(e.est_functions, 0);
        // 1 (floor) + if + while.
        assert_eq!(e.est_cyclomatic, 3);
    }

    #[test]
    fn absorb_adds_pseudo_functions() {
        let mut m = module_from_estimates("m", &[]);
        assert_eq!(m.file_count, 0);
        let e = est("int f() { return 1; }\nint g(int x) { if (x) return x; return 0; }\n");
        assert_eq!(e.est_functions, 2);
        absorb_estimate(&mut m, &e);
        assert_eq!(m.file_count, 1);
        assert_eq!(m.absorbed_files, 1);
        assert_eq!(m.loc.nloc, 2);
        assert_eq!(m.histogram.total, 2);
        assert_eq!(m.parsed_functions, 0);
    }
}
