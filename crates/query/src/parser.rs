//! Resilient recursive-descent parser for `.aq` rule packs.
//!
//! The parser is total: any byte sequence yields a (possibly empty)
//! list of [`RuleDecl`]s plus a list of [`ParseError`]s — it never
//! panics. A malformed rule is reported with the line it failed on and
//! the parser resynchronises to the next top-level `rule` keyword, so
//! one bad rule never takes down the rest of the pack. An empty or
//! comment-only pack is simply zero rules and zero errors.

use crate::ast::{Arm, CmpOp, Expr, RuleDecl, Selector, SeverityKw};
use crate::lexer::{lex, Token, TokenKind};

/// One parse failure, anchored to a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line the failure was detected on.
    pub line: u32,
    /// Human-readable description.
    pub detail: String,
}

/// Parses a whole pack source. Returns every rule that parsed plus
/// every error encountered; the two lists are independent.
pub fn parse_pack(src: &str) -> (Vec<RuleDecl>, Vec<ParseError>) {
    let toks = lex(src);
    let mut p = Parser { toks, pos: 0 };
    let mut rules = Vec::new();
    let mut errors = Vec::new();
    loop {
        match p.peek() {
            TokenKind::Eof => break,
            TokenKind::Ident(kw) if kw == "rule" => match p.rule() {
                Ok(r) => rules.push(r),
                Err(e) => {
                    errors.push(e);
                    p.sync_to_next_rule();
                }
            },
            other => {
                errors.push(ParseError {
                    line: p.line(),
                    detail: format!("expected `rule`, found {}", describe(other)),
                });
                p.sync_to_next_rule();
            }
        }
    }
    (rules, errors)
}

fn describe(k: &TokenKind) -> String {
    match k {
        TokenKind::Ident(n) => format!("`{n}`"),
        TokenKind::Str(_) => "a string literal".to_string(),
        TokenKind::Int(v) => format!("`{v}`"),
        TokenKind::LBrace => "`{`".to_string(),
        TokenKind::RBrace => "`}`".to_string(),
        TokenKind::LParen => "`(`".to_string(),
        TokenKind::RParen => "`)`".to_string(),
        TokenKind::Comma => "`,`".to_string(),
        TokenKind::Arrow => "`->`".to_string(),
        TokenKind::EqEq => "`==`".to_string(),
        TokenKind::Ne => "`!=`".to_string(),
        TokenKind::Le => "`<=`".to_string(),
        TokenKind::Ge => "`>=`".to_string(),
        TokenKind::Lt => "`<`".to_string(),
        TokenKind::Gt => "`>`".to_string(),
        TokenKind::Error(msg) => msg.clone(),
        TokenKind::Eof => "end of input".to_string(),
    }
}

struct Parser {
    toks: Vec<Token>,
    pos: usize,
}

type PResult<T> = Result<T, ParseError>;

impl Parser {
    fn peek(&self) -> &TokenKind {
        &self.toks[self.pos.min(self.toks.len() - 1)].kind
    }

    fn line(&self) -> u32 {
        self.toks[self.pos.min(self.toks.len() - 1)].line
    }

    fn bump(&mut self) -> TokenKind {
        let t = self.toks[self.pos.min(self.toks.len() - 1)].kind.clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, detail: impl Into<String>) -> PResult<T> {
        Err(ParseError {
            line: self.line(),
            detail: detail.into(),
        })
    }

    fn expect(&mut self, want: &TokenKind, what: &str) -> PResult<()> {
        if self.peek() == want {
            self.bump();
            Ok(())
        } else {
            self.err(format!("expected {what}, found {}", describe(self.peek())))
        }
    }

    /// The selector the next token names, if it names one.
    fn selector(&self) -> Option<Selector> {
        match self.peek() {
            TokenKind::Ident(kw) => [
                Selector::Function,
                Selector::Global,
                Selector::File,
                Selector::Site,
            ]
            .into_iter()
            .find(|s| s.keyword() == kw),
            _ => None,
        }
    }

    fn expect_string(&mut self, what: &str) -> PResult<String> {
        match self.peek().clone() {
            TokenKind::Str(s) => {
                self.bump();
                Ok(s)
            }
            other => self.err(format!("expected {what}, found {}", describe(&other))),
        }
    }

    /// Skips to the next top-level `rule` keyword (brace depth 0) so a
    /// malformed rule does not swallow its successors.
    fn sync_to_next_rule(&mut self) {
        // Leave the failing token behind first, or an error *on* a
        // `rule` keyword would loop forever.
        if !matches!(self.peek(), TokenKind::Eof) {
            self.bump();
        }
        let mut depth = 0i32;
        loop {
            match self.peek() {
                TokenKind::Eof => return,
                TokenKind::LBrace => {
                    depth += 1;
                    self.bump();
                }
                TokenKind::RBrace => {
                    depth = (depth - 1).max(0);
                    self.bump();
                }
                TokenKind::Ident(kw) if kw == "rule" && depth == 0 => return,
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn rule(&mut self) -> PResult<RuleDecl> {
        let line = self.line();
        self.bump(); // `rule`
        let id = self.expect_string("a rule id string after `rule`")?;
        if id.is_empty() {
            return self.err("rule id must not be empty");
        }
        self.expect(&TokenKind::LBrace, "`{` after the rule id")?;

        let mut desc = None;
        let mut iso: Vec<String> = Vec::new();
        // Header clauses in any order, then the query.
        loop {
            match self.peek().clone() {
                TokenKind::Ident(kw) if kw == "desc" => {
                    self.bump();
                    if desc.is_some() {
                        return self.err("duplicate `desc` clause");
                    }
                    desc = Some(self.expect_string("a string after `desc`")?);
                }
                TokenKind::Ident(kw) if kw == "iso" => {
                    self.bump();
                    iso.push(self.iso_ref()?);
                    while self.peek() == &TokenKind::Comma {
                        self.bump();
                        iso.push(self.iso_ref()?);
                    }
                }
                _ => break,
            }
        }

        // One or more arms; a selector keyword after an arm opens the
        // next one.
        let mut arms = vec![self.arm(&mut iso)?];
        while self.selector().is_some() {
            arms.push(self.arm(&mut iso)?);
        }
        self.expect(&TokenKind::RBrace, "`}` closing the rule")?;
        Ok(RuleDecl {
            id,
            line,
            desc,
            iso,
            arms,
        })
    }

    /// One arm: `selector [in module] [where] -> severity [iso(...)]
    /// [message]`. Arrow-form ISO refs join the rule's `iso`.
    fn arm(&mut self, iso: &mut Vec<String>) -> PResult<Arm> {
        let Some(selector) = self.selector() else {
            return self.err(format!(
                "expected a selector (`function`, `global`, `file`, `site`), found {}",
                describe(self.peek())
            ));
        };
        self.bump();

        // `in module "x"` and `where <expr>` in either order, each once.
        let mut module = None;
        let mut where_expr = None;
        loop {
            match self.peek().clone() {
                TokenKind::Ident(kw) if kw == "in" => {
                    self.bump();
                    if module.is_some() {
                        return self.err("duplicate `in module` filter");
                    }
                    match self.peek().clone() {
                        TokenKind::Ident(m) if m == "module" => {
                            self.bump();
                        }
                        other => {
                            return self.err(format!(
                                "expected `module` after `in`, found {}",
                                describe(&other)
                            ))
                        }
                    }
                    module = Some(self.expect_string("a module name string")?);
                }
                TokenKind::Ident(kw) if kw == "where" => {
                    self.bump();
                    if where_expr.is_some() {
                        return self.err("duplicate `where` clause");
                    }
                    where_expr = Some(self.expr()?);
                }
                _ => break,
            }
        }

        self.expect(&TokenKind::Arrow, "`->` before the severity")?;
        let severity = match self.peek().clone() {
            TokenKind::Ident(kw) if kw == "info" => SeverityKw::Info,
            TokenKind::Ident(kw) if kw == "warn" => SeverityKw::Warn,
            TokenKind::Ident(kw) if kw == "violation" => SeverityKw::Violation,
            other => {
                return self.err(format!(
                    "expected a severity (`info`, `warn`, `violation`), found {}",
                    describe(&other)
                ))
            }
        };
        self.bump();

        // Optional arrow-form `iso(...)` and/or a message string, in
        // either order (the ISSUE example writes `-> warn iso(t4r1)`).
        let mut message = None;
        loop {
            match self.peek().clone() {
                TokenKind::Ident(kw) if kw == "iso" => {
                    self.bump();
                    self.expect(&TokenKind::LParen, "`(` after `iso`")?;
                    iso.push(self.iso_ref()?);
                    while self.peek() == &TokenKind::Comma {
                        self.bump();
                        iso.push(self.iso_ref()?);
                    }
                    self.expect(&TokenKind::RParen, "`)` closing `iso(`")?;
                }
                TokenKind::Str(s) => {
                    self.bump();
                    if message.is_some() {
                        return self.err("duplicate message string");
                    }
                    message = Some(s);
                }
                _ => break,
            }
        }
        Ok(Arm {
            selector,
            module,
            where_expr,
            severity,
            message,
        })
    }

    /// One ISO reference: either the `t<N>r<M>` shorthand (normalised
    /// to `Part6.Table<N>.Row<M>`) or a full string literal.
    fn iso_ref(&mut self) -> PResult<String> {
        match self.peek().clone() {
            TokenKind::Str(s) => {
                self.bump();
                Ok(s)
            }
            TokenKind::Ident(short) => {
                if let Some(full) = expand_iso_shorthand(&short) {
                    self.bump();
                    Ok(full)
                } else {
                    self.err(format!(
                        "invalid ISO reference `{short}` (want `t<table>r<row>` or a full string)"
                    ))
                }
            }
            other => self.err(format!(
                "expected an ISO reference, found {}",
                describe(&other)
            )),
        }
    }

    // ----- expressions ------------------------------------------------

    fn expr(&mut self) -> PResult<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.and_expr()?;
        while matches!(self.peek(), TokenKind::Ident(kw) if kw == "or") {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> PResult<Expr> {
        let mut lhs = self.not_expr()?;
        while matches!(self.peek(), TokenKind::Ident(kw) if kw == "and") {
            self.bump();
            let rhs = self.not_expr()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> PResult<Expr> {
        if matches!(self.peek(), TokenKind::Ident(kw) if kw == "not") {
            self.bump();
            let inner = self.not_expr()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> PResult<Expr> {
        let lhs = self.primary()?;
        let op = match self.peek() {
            TokenKind::EqEq => CmpOp::Eq,
            TokenKind::Ne => CmpOp::Ne,
            TokenKind::Lt => CmpOp::Lt,
            TokenKind::Le => CmpOp::Le,
            TokenKind::Gt => CmpOp::Gt,
            TokenKind::Ge => CmpOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.primary()?;
        Ok(Expr::Cmp(op, Box::new(lhs), Box::new(rhs)))
    }

    fn primary(&mut self) -> PResult<Expr> {
        match self.peek().clone() {
            TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            TokenKind::Str(s) => {
                self.bump();
                Ok(Expr::Str(s))
            }
            TokenKind::Ident(kw) if kw == "true" => {
                self.bump();
                Ok(Expr::Bool(true))
            }
            TokenKind::Ident(kw) if kw == "false" => {
                self.bump();
                Ok(Expr::Bool(false))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen, "`)`")?;
                Ok(e)
            }
            TokenKind::Ident(name) => {
                // Reserved words are never fields — catching them here
                // gives a better message than "unknown field `where`".
                // `module` is NOT reserved in expression position: it is
                // a schema field on every selector (`in module "x"` is
                // only special directly after the selector keyword).
                // Nor is `function`, a `site` field: selector keywords
                // only open a query, never an expression.
                if matches!(
                    name.as_str(),
                    "rule"
                        | "desc"
                        | "iso"
                        | "where"
                        | "in"
                        | "and"
                        | "or"
                        | "not"
                        | "info"
                        | "warn"
                        | "violation"
                        | "global"
                        | "file"
                        | "site"
                ) {
                    return self.err(format!("`{name}` is a keyword, not a field"));
                }
                self.bump();
                Ok(Expr::Field(name))
            }
            other => self.err(format!(
                "expected an expression, found {}",
                describe(&other)
            )),
        }
    }
}

/// `t8r10` → `Part6.Table8.Row10`.
fn expand_iso_shorthand(short: &str) -> Option<String> {
    let rest = short.strip_prefix('t')?;
    let r = rest.find('r')?;
    let (table, row) = (&rest[..r], &rest[r + 1..]);
    let table: u32 = table.parse().ok()?;
    let row: u32 = row.parse().ok()?;
    Some(format!("Part6.Table{table}.Row{row}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::pretty_pack;

    const GOOD: &str = r#"
# A comment-rich pack.
rule "apollo-complexity" {
  desc "perception stays simple"
  iso t4r1
  function where cc > 10 and returns > 1 in module "perception" -> warn "cc {cc}"
}
"#;

    #[test]
    fn parses_the_motivating_example() {
        let (rules, errs) = parse_pack(GOOD);
        assert_eq!(errs, vec![]);
        assert_eq!(rules.len(), 1);
        let r = &rules[0];
        assert_eq!(r.id, "apollo-complexity");
        assert_eq!(r.iso, vec!["Part6.Table4.Row1".to_string()]);
        assert_eq!(r.arms.len(), 1);
        assert_eq!(r.arms[0].module.as_deref(), Some("perception"));
        assert_eq!(r.arms[0].severity, SeverityKw::Warn);
        assert!(r.arms[0].where_expr.is_some());
    }

    #[test]
    fn empty_and_comment_only_packs_are_zero_rules_zero_errors() {
        for src in ["", "   \n\t\n", "# just a comment\n# another\n"] {
            let (rules, errs) = parse_pack(src);
            assert!(rules.is_empty(), "{src:?}");
            assert!(errs.is_empty(), "{src:?}");
        }
    }

    #[test]
    fn malformed_rule_reports_line_and_spares_neighbours() {
        let src = "rule \"good-a\" { function -> info }\n\
                   rule \"bad\" { function -> }\n\
                   rule \"good-b\" { global -> warn }\n";
        let (rules, errs) = parse_pack(src);
        assert_eq!(
            rules.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(),
            vec!["good-a", "good-b"]
        );
        assert_eq!(errs.len(), 1);
        assert_eq!(errs[0].line, 2);
    }

    #[test]
    fn arrow_iso_form_merges_with_clause_form() {
        let src = "rule \"r\" { iso t1r1 function -> warn iso(t8r1, \"Part6.Table9.Row9\") }";
        let (rules, errs) = parse_pack(src);
        assert!(errs.is_empty(), "{errs:?}");
        assert_eq!(
            rules[0].iso,
            vec![
                "Part6.Table1.Row1",
                "Part6.Table8.Row1",
                "Part6.Table9.Row9"
            ]
        );
    }

    #[test]
    fn pretty_round_trips_the_good_pack() {
        let (rules, _) = parse_pack(GOOD);
        let printed = pretty_pack(&rules);
        let (reparsed, errs) = parse_pack(&printed);
        assert!(
            errs.is_empty(),
            "pretty output must re-parse: {printed}\n{errs:?}"
        );
        // `line` is positional metadata, not part of the rule's meaning.
        let strip = |mut rs: Vec<RuleDecl>| {
            for r in &mut rs {
                r.line = 0;
            }
            rs
        };
        assert_eq!(strip(rules), strip(reparsed));
    }

    #[test]
    fn where_and_module_commute() {
        let a = parse_pack("rule \"r\" { function in module \"m\" where cc > 1 -> info }").0;
        let b = parse_pack("rule \"r\" { function where cc > 1 in module \"m\" -> info }").0;
        assert_eq!(a, b);
    }

    #[test]
    fn arms_parse_in_order_and_pretty_print_one_per_line() {
        let src = "rule \"r\" {\n  site where kind == \"a\" -> violation \"A {text}\"\n  \
                   site where kind == \"b\" -> warn iso(t1r3)\n  site -> info\n}";
        let (rules, errs) = parse_pack(src);
        assert!(errs.is_empty(), "{errs:?}");
        let arms = &rules[0].arms;
        assert_eq!(arms.len(), 3);
        let sev: Vec<SeverityKw> = arms.iter().map(|a| a.severity).collect();
        assert_eq!(
            sev,
            [SeverityKw::Violation, SeverityKw::Warn, SeverityKw::Info]
        );
        assert_eq!(rules[0].iso, vec!["Part6.Table1.Row3".to_string()]);
        assert_eq!(
            rules[0].to_string(),
            "rule \"r\" {\n  iso \"Part6.Table1.Row3\"\n  \
             site where kind == \"a\" -> violation \"A {text}\"\n  \
             site where kind == \"b\" -> warn\n  site -> info\n}\n"
        );
    }

    #[test]
    fn total_on_token_soup() {
        let (_, errs) = parse_pack("} ) rule rule \"x\" { -> -> } ( \"dangling");
        assert!(!errs.is_empty());
    }
}
