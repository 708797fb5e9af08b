//! Typechecker: validates a parsed rule against the fact schema before
//! compilation.
//!
//! Checks performed:
//! - every field reference resolves in the selector's schema table;
//! - comparisons are homogeneous (`int OP int`; `str`/`bool` only
//!   `==`/`!=`);
//! - `and`/`or`/`not` operands and the whole `where` expression are
//!   boolean;
//! - message-template placeholders (`{field}`) name schema fields;
//! - every arm of a rule names the same selector, and only the last arm
//!   may omit `where` (an earlier one would shadow every later arm);
//! - the rule's evaluation scope is derived: referencing a field in
//!   [`schema::PROGRAM_SCOPE_FIELDS`] (e.g. `recursive`) in any arm
//!   promotes the rule from per-file to whole-program evaluation.

use crate::ast::{CmpOp, Expr, RuleDecl, Selector};
use crate::schema::{self, Ty};

/// One template piece after validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TemplatePart {
    /// Literal text.
    Lit(String),
    /// A field substitution, by row index.
    Field(u16),
}

/// The typechecker's result: everything compilation needs to know that
/// is not already in the AST.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckedRule {
    /// True if any arm needs whole-program context.
    pub program_scope: bool,
    /// The validated message template of each arm, in arm order.
    pub templates: Vec<Vec<TemplatePart>>,
}

/// Typechecks `rule`. Errors are plain strings; callers prefix the
/// rule id and source line. A rule of several arms names the failing
/// one.
pub fn check(rule: &RuleDecl) -> Result<CheckedRule, String> {
    if rule.arms.is_empty() {
        return Err("a rule needs at least one arm".to_string());
    }
    let mut program_scope = false;
    let templates = (0..rule.arms.len())
        .map(|i| {
            check_arm(rule, i, &mut program_scope).map_err(|e| match rule.arms.len() {
                1 => e,
                _ => format!("arm {}: {e}", i + 1),
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(CheckedRule {
        program_scope,
        templates,
    })
}

/// Typechecks arm `i` of `rule`, returning its message template.
fn check_arm(
    rule: &RuleDecl,
    i: usize,
    program_scope: &mut bool,
) -> Result<Vec<TemplatePart>, String> {
    let (arm, sel) = (&rule.arms[i], rule.arms[0].selector);
    if arm.selector != sel {
        return Err(format!(
            "selects `{}` rows, arm 1 `{}` rows (all arms of a rule share one selector)",
            arm.selector.keyword(),
            sel.keyword()
        ));
    }
    if arm.where_expr.is_none() && i + 1 < rule.arms.len() {
        return Err(
            "has no `where`, so it shadows every later arm (only the last arm may omit it)"
                .to_string(),
        );
    }
    if let Some(e) = &arm.where_expr {
        let ty = type_of(sel, e, program_scope)?;
        if ty != Ty::Bool {
            return Err(format!("`where` must be a boolean expression, found {ty}"));
        }
    }
    match &arm.message {
        Some(msg) => parse_template(sel, msg, program_scope),
        None => Ok(vec![TemplatePart::Lit(format!(
            "query rule `{}` matched",
            rule.id
        ))]),
    }
}

fn type_of(sel: Selector, e: &Expr, program_scope: &mut bool) -> Result<Ty, String> {
    match e {
        Expr::Int(_) => Ok(Ty::Int),
        Expr::Str(_) => Ok(Ty::Str),
        Expr::Bool(_) => Ok(Ty::Bool),
        Expr::Field(name) => {
            let (_, ty) = schema::lookup(sel, name).ok_or_else(|| {
                format!(
                    "unknown field `{}` for selector `{}` (have: {})",
                    name,
                    sel.keyword(),
                    schema::field_names(sel)
                )
            })?;
            if schema::PROGRAM_SCOPE_FIELDS.contains(&name.as_str()) {
                *program_scope = true;
            }
            Ok(ty)
        }
        Expr::Not(inner) => {
            let ty = type_of(sel, inner, program_scope)?;
            if ty != Ty::Bool {
                return Err(format!("`not` needs a boolean operand, found {ty}"));
            }
            Ok(Ty::Bool)
        }
        Expr::And(a, b) | Expr::Or(a, b) => {
            let word = if matches!(e, Expr::And(..)) {
                "and"
            } else {
                "or"
            };
            for side in [a, b] {
                let ty = type_of(sel, side, program_scope)?;
                if ty != Ty::Bool {
                    return Err(format!("`{word}` needs boolean operands, found {ty}"));
                }
            }
            Ok(Ty::Bool)
        }
        Expr::Cmp(op, a, b) => {
            let ta = type_of(sel, a, program_scope)?;
            let tb = type_of(sel, b, program_scope)?;
            if ta != tb {
                return Err(format!("cannot compare {ta} with {tb}"));
            }
            let ordered = matches!(op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge);
            if ordered && ta != Ty::Int {
                return Err(format!(
                    "`{}` needs integer operands, found {ta} (only `==`/`!=` compare {ta})",
                    op.symbol()
                ));
            }
            Ok(Ty::Bool)
        }
    }
}

/// Parses `{field}` placeholders; `{{` and `}}` escape literal braces.
fn parse_template(
    sel: Selector,
    msg: &str,
    program_scope: &mut bool,
) -> Result<Vec<TemplatePart>, String> {
    let mut parts = Vec::new();
    let mut lit = String::new();
    let mut chars = msg.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '{' if chars.peek() == Some(&'{') => {
                chars.next();
                lit.push('{');
            }
            '}' if chars.peek() == Some(&'}') => {
                chars.next();
                lit.push('}');
            }
            '}' => return Err("unmatched `}` in message (use `}}` for a literal)".to_string()),
            '{' => {
                let mut name = String::new();
                loop {
                    match chars.next() {
                        Some('}') => break,
                        Some(c) if c.is_ascii_alphanumeric() || c == '_' => name.push(c),
                        Some(c) => return Err(format!("invalid character `{c}` in `{{{name}`")),
                        None => return Err(format!("unclosed placeholder `{{{name}`")),
                    }
                }
                let (idx, _) = schema::lookup(sel, &name).ok_or_else(|| {
                    format!(
                        "message placeholder `{{{}}}` is not a `{}` field (have: {})",
                        name,
                        sel.keyword(),
                        schema::field_names(sel)
                    )
                })?;
                if schema::PROGRAM_SCOPE_FIELDS.contains(&name.as_str()) {
                    *program_scope = true;
                }
                if !lit.is_empty() {
                    parts.push(TemplatePart::Lit(std::mem::take(&mut lit)));
                }
                parts.push(TemplatePart::Field(idx));
            }
            other => lit.push(other),
        }
    }
    if !lit.is_empty() {
        parts.push(TemplatePart::Lit(lit));
    }
    Ok(parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_pack;

    fn one(src: &str) -> RuleDecl {
        let (rules, errs) = parse_pack(src);
        assert!(errs.is_empty(), "{errs:?}");
        rules.into_iter().next().unwrap()
    }

    #[test]
    fn accepts_typed_comparisons_and_derives_scope() {
        let r = one(
            "rule \"r\" { function where cc > 10 and name != \"main\" -> warn \"{name}: {cc}\" }",
        );
        let c = check(&r).unwrap();
        assert!(!c.program_scope);
        let r = one("rule \"r\" { function where recursive -> violation }");
        assert!(check(&r).unwrap().program_scope);
    }

    #[test]
    fn rejects_type_errors_with_field_inventory() {
        let r = one("rule \"r\" { function where cc > \"ten\" -> warn }");
        assert!(check(&r)
            .unwrap_err()
            .contains("cannot compare int with str"));
        let r = one("rule \"r\" { function where bogus -> warn }");
        let err = check(&r).unwrap_err();
        assert!(err.contains("unknown field `bogus`"), "{err}");
        assert!(err.contains("multi_exit"), "inventory listed: {err}");
        let r = one("rule \"r\" { function where name < \"z\" -> warn }");
        assert!(check(&r).unwrap_err().contains("integer operands"));
        let r = one("rule \"r\" { function where cc -> warn }");
        assert!(check(&r).unwrap_err().contains("boolean"));
    }

    #[test]
    fn template_placeholders_typecheck_and_escape() {
        let r = one("rule \"r\" { function -> warn \"{{literal}} {name} has {returns}\" }");
        let c = check(&r).unwrap();
        assert_eq!(c.templates[0].len(), 4, "{:?}", c.templates);
        assert_eq!(
            c.templates[0][0],
            TemplatePart::Lit("{literal} ".to_string())
        );
        let r = one("rule \"r\" { function -> warn \"{nope}\" }");
        assert!(check(&r).unwrap_err().contains("placeholder"));
        let r = one("rule \"r\" { function -> warn \"{name\" }");
        assert!(check(&r).unwrap_err().contains("unclosed"));
    }

    #[test]
    fn site_fields_typecheck_and_function_is_a_field() {
        let r = one(
            "rule \"r\" { site where kind == \"switch\" and count == 0 and function != \"\" \
             -> warn \"{kind} in {function}\" }",
        );
        assert!(!check(&r).unwrap().program_scope);
        let r = one("rule \"r\" { site where name == \"x\" -> warn }");
        let err = check(&r).unwrap_err();
        assert!(
            err.contains("unknown field `name` for selector `site`"),
            "{err}"
        );
        assert!(err.contains("kind, text, count, module, function"), "{err}");
    }

    #[test]
    fn default_message_names_the_rule() {
        let r = one("rule \"my-rule\" { file -> info }");
        let c = check(&r).unwrap();
        assert_eq!(
            c.templates,
            vec![vec![TemplatePart::Lit(
                "query rule `my-rule` matched".into()
            )]]
        );
    }

    #[test]
    fn arms_share_a_selector_and_only_the_last_may_omit_where() {
        let r = one("rule \"r\" { site where kind == \"a\" -> warn function -> info }");
        let err = check(&r).unwrap_err();
        assert!(err.starts_with("arm 2: selects `function` rows"), "{err}");
        let r = one("rule \"r\" { site -> warn site where kind == \"a\" -> info }");
        let err = check(&r).unwrap_err();
        assert!(err.starts_with("arm 1: has no `where`"), "{err}");
        let r = one("rule \"r\" { site where kind == \"a\" -> warn site -> info \"{text}\" }");
        assert_eq!(check(&r).unwrap().templates.len(), 2);
        let r =
            one("rule \"r\" { function where cc > 1 -> warn function where count > 1 -> info }");
        assert!(check(&r)
            .unwrap_err()
            .starts_with("arm 2: unknown field `count`"));
    }

    #[test]
    fn any_arm_reading_program_facts_scopes_the_rule() {
        let r =
            one("rule \"r\" { function where cc > 10 -> warn function where recursive -> info }");
        assert!(check(&r).unwrap().program_scope);
    }
}
