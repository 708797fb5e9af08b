//! AST for the `.aq` rule-query language, plus the canonical
//! pretty-printer.
//!
//! The pretty-printer is part of the language contract: for every AST
//! the parser can produce, `parse(pretty(ast))` yields an identical
//! AST (pinned by a proptest). It prints the canonical clause order —
//! `desc`, `iso`, then one `selector [in module] [where] -> severity
//! [message]` line per arm — regardless of the order the source used.

use crate::lexer::escape_string;
use std::fmt;

/// What kind of fact rows a query ranges over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selector {
    /// One row per function definition.
    Function,
    /// One row per file-scope variable.
    Global,
    /// One row per source file.
    File,
    /// One row per recorded construct occurrence (`goto`, `switch`, …).
    Site,
}

impl Selector {
    /// Keyword spelling.
    pub fn keyword(self) -> &'static str {
        match self {
            Selector::Function => "function",
            Selector::Global => "global",
            Selector::File => "file",
            Selector::Site => "site",
        }
    }
}

/// Severity keyword on the arrow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeverityKw {
    /// `info`
    Info,
    /// `warn`
    Warn,
    /// `violation`
    Violation,
}

impl SeverityKw {
    /// Keyword spelling.
    pub fn keyword(self) -> &'static str {
        match self {
            SeverityKw::Info => "info",
            SeverityKw::Warn => "warn",
            SeverityKw::Violation => "violation",
        }
    }
}

/// Comparison operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Operator spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A `where` expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// String literal.
    Str(String),
    /// `true` / `false`.
    Bool(bool),
    /// Schema field reference.
    Field(String),
    /// `not e`
    Not(Box<Expr>),
    /// `a and b`
    And(Box<Expr>, Box<Expr>),
    /// `a or b`
    Or(Box<Expr>, Box<Expr>),
    /// `a OP b`
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
}

// Binding strength, loosest first: or < and < not < cmp < primary.
fn precedence(e: &Expr) -> u8 {
    match e {
        Expr::Or(..) => 1,
        Expr::And(..) => 2,
        Expr::Not(..) => 3,
        Expr::Cmp(..) => 4,
        _ => 5,
    }
}

fn write_expr(f: &mut fmt::Formatter<'_>, e: &Expr, min: u8) -> fmt::Result {
    let p = precedence(e);
    if p < min {
        write!(f, "(")?;
    }
    match e {
        Expr::Int(v) => write!(f, "{v}")?,
        Expr::Str(s) => write!(f, "{}", escape_string(s))?,
        Expr::Bool(b) => write!(f, "{b}")?,
        Expr::Field(n) => write!(f, "{n}")?,
        Expr::Not(inner) => {
            write!(f, "not ")?;
            write_expr(f, inner, 3)?;
        }
        Expr::And(a, b) => {
            // Left-associative: the right operand must bind tighter.
            write_expr(f, a, 2)?;
            write!(f, " and ")?;
            write_expr(f, b, 3)?;
        }
        Expr::Or(a, b) => {
            write_expr(f, a, 1)?;
            write!(f, " or ")?;
            write_expr(f, b, 2)?;
        }
        Expr::Cmp(op, a, b) => {
            // Comparisons do not chain: both sides must be primaries.
            write_expr(f, a, 5)?;
            write!(f, " {} ", op.symbol())?;
            write_expr(f, b, 5)?;
        }
    }
    if p < min {
        write!(f, ")")?;
    }
    Ok(())
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_expr(f, self, 0)
    }
}

/// One arm of a rule: `selector [in module] [where] -> severity
/// [message]`. A row yields at most one finding, from the first arm
/// whose predicate matches it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arm {
    /// Row selector (every arm of a rule names the same one).
    pub selector: Selector,
    /// `in module "<name>"` filter, if present.
    pub module: Option<String>,
    /// `where` predicate, if present (absent means every row matches).
    pub where_expr: Option<Expr>,
    /// Arrow severity.
    pub severity: SeverityKw,
    /// Message template, if present.
    pub message: Option<String>,
}

impl fmt::Display for Arm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.selector.keyword())?;
        if let Some(m) = &self.module {
            write!(f, " in module {}", escape_string(m))?;
        }
        if let Some(e) = &self.where_expr {
            write!(f, " where {e}")?;
        }
        write!(f, " -> {}", self.severity.keyword())?;
        if let Some(msg) = &self.message {
            write!(f, " {}", escape_string(msg))?;
        }
        Ok(())
    }
}

/// One parsed `rule "<id>" { ... }` declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleDecl {
    /// Rule identifier (the diagnostic `check_id`).
    pub id: String,
    /// 1-based line of the `rule` keyword (for pack diagnostics).
    pub line: u32,
    /// `desc` clause, if present.
    pub desc: Option<String>,
    /// Normalised ISO refs (`t4r1` → `Part6.Table4.Row1`), in source
    /// order, from the `iso` clause and/or the arrow `iso(...)` form.
    pub iso: Vec<String>,
    /// The query's arms, in source order; at least one.
    pub arms: Vec<Arm>,
}

impl fmt::Display for RuleDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "rule {} {{", escape_string(&self.id))?;
        if let Some(desc) = &self.desc {
            writeln!(f, "  desc {}", escape_string(desc))?;
        }
        if !self.iso.is_empty() {
            let refs: Vec<String> = self.iso.iter().map(|r| escape_string(r)).collect();
            writeln!(f, "  iso {}", refs.join(", "))?;
        }
        for arm in &self.arms {
            writeln!(f, "  {arm}")?;
        }
        writeln!(f, "}}")
    }
}

/// Pretty-prints a whole pack, one blank line between rules.
pub fn pretty_pack(rules: &[RuleDecl]) -> String {
    rules
        .iter()
        .map(|r| r.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_parenthesises_only_where_needed() {
        // (a or b) and c — the `or` needs parens under `and`.
        let e = Expr::And(
            Box::new(Expr::Or(
                Box::new(Expr::Field("multi_exit".into())),
                Box::new(Expr::Field("is_gpu".into())),
            )),
            Box::new(Expr::Field("validates".into())),
        );
        assert_eq!(e.to_string(), "(multi_exit or is_gpu) and validates");
        // a and (b or c) — right operand of `and` also needs parens.
        let e = Expr::And(
            Box::new(Expr::Field("validates".into())),
            Box::new(Expr::Or(
                Box::new(Expr::Field("multi_exit".into())),
                Box::new(Expr::Field("is_gpu".into())),
            )),
        );
        assert_eq!(e.to_string(), "validates and (multi_exit or is_gpu)");
        // a and b or c stays flat.
        let e = Expr::Or(
            Box::new(Expr::And(
                Box::new(Expr::Field("a".into())),
                Box::new(Expr::Field("b".into())),
            )),
            Box::new(Expr::Field("c".into())),
        );
        assert_eq!(e.to_string(), "a and b or c");
    }

    #[test]
    fn cmp_operands_in_not_need_parens() {
        let e = Expr::Not(Box::new(Expr::And(
            Box::new(Expr::Field("a".into())),
            Box::new(Expr::Field("b".into())),
        )));
        assert_eq!(e.to_string(), "not (a and b)");
    }
}
