//! Compiled rules and rule packs.
//!
//! A [`CompiledRule`] is a fully lowered query: interned `'static` id
//! (`Diagnostic` demands a `&'static str` check id), ISO refs, and per
//! arm a bytecode predicate, severity and message template.
//! [`RulePack::from_sources`] turns `.aq` source files into rules with
//! *containment* semantics: every malformed rule, type
//! error, or duplicate id becomes a [`PackFault`] naming file and
//! line, and loading proceeds with the remaining rules — a bad pack
//! degrades to a smaller pack, never to a failed run.

use crate::ast::{RuleDecl, Selector, SeverityKw};
use crate::bytecode::Program;
use crate::compile::compile_predicate;
use crate::parser::parse_pack;
use crate::rows::Row;
use crate::typeck::{self, TemplatePart};
use crate::vm;
use adsafe_checkers::{CheckScope, Diagnostic, Severity};
use std::collections::HashSet;
use std::sync::{Mutex, OnceLock};

/// Interns a string into the process-lifetime pool, so query rules can
/// satisfy the `&'static str` ids diagnostics require. The pool
/// deduplicates, so repeated pack loads (e.g. one per daemon request)
/// leak each distinct id/description at most once.
pub fn intern_static(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let mut pool = POOL
        .get_or_init(|| Mutex::new(HashSet::new()))
        .lock()
        .unwrap();
    if let Some(&existing) = pool.get(s) {
        return existing;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    pool.insert(leaked);
    leaked
}

fn intern_refs(refs: &[String]) -> &'static [&'static str] {
    // The slice itself is leaked per call; bounded by pack-load count ×
    // rules per pack, and deduplicated loads dominate in practice.
    let v: Vec<&'static str> = refs.iter().map(|r| intern_static(r)).collect();
    Box::leak(v.into_boxed_slice())
}

/// One compiled arm: its predicate, severity and message template.
#[derive(Debug, Clone)]
pub struct CompiledArm {
    /// Compiled predicate.
    pub program: Program,
    /// Diagnostic severity.
    pub severity: Severity,
    /// Message template.
    pub template: Vec<TemplatePart>,
}

/// A fully compiled query rule.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// Diagnostic check id.
    pub id: &'static str,
    /// One-line description (`desc` clause, or a default).
    pub desc: &'static str,
    /// ISO 26262-6 table rows evidenced.
    pub iso: &'static [&'static str],
    /// Row selector, shared by every arm.
    pub selector: Selector,
    /// File or whole-program evaluation.
    pub scope: CheckScope,
    /// The arms, in source order: a row's finding comes from the first
    /// whose predicate matches.
    pub arms: Vec<CompiledArm>,
    /// The declaration (kept for `rules explain` pretty-printing).
    pub decl: RuleDecl,
}

impl CompiledRule {
    /// Compiles one typechecked declaration.
    pub fn compile(decl: &RuleDecl) -> Result<CompiledRule, String> {
        let checked = typeck::check(decl)?;
        let arms = decl
            .arms
            .iter()
            .zip(checked.templates)
            .map(|(arm, template)| {
                Ok(CompiledArm {
                    program: compile_predicate(arm)?,
                    severity: match arm.severity {
                        SeverityKw::Info => Severity::Info,
                        SeverityKw::Warn => Severity::Warning,
                        SeverityKw::Violation => Severity::Violation,
                    },
                    template,
                })
            })
            .collect::<Result<_, String>>()?;
        let scope = if checked.program_scope {
            CheckScope::Program
        } else {
            CheckScope::File
        };
        let desc = match &decl.desc {
            Some(d) => intern_static(d),
            None => intern_static(&format!("query rule `{}`", decl.id)),
        };
        Ok(CompiledRule {
            id: intern_static(&decl.id),
            desc,
            iso: intern_refs(&decl.iso),
            selector: decl.arms[0].selector,
            scope,
            arms,
            decl: decl.clone(),
        })
    }

    /// Evaluates the rule over `rows`, returning matching diagnostics
    /// (row order, at most one per row) and the number of VM
    /// instructions executed.
    pub fn eval_rows(&self, rows: &[Row<'_>]) -> (Vec<Diagnostic>, u64) {
        let mut steps = 0u64;
        let mut out = Vec::new();
        let mut regs = Vec::new();
        for row in rows {
            let matched = self
                .arms
                .iter()
                .find(|arm| vm::eval(&arm.program, row, &mut regs, &mut steps));
            if let Some(arm) = matched {
                let msg = vm::render_template(&arm.template, row);
                let mut d = Diagnostic::new(self.id, arm.severity, row.span(), msg);
                if let Some(f) = row.function() {
                    d = d.in_function(f);
                }
                out.push(d);
            }
        }
        (out, steps)
    }
}

/// One contained pack-loading failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackFault {
    /// Pack file the fault names (label passed to `from_sources`).
    pub file: String,
    /// 1-based line, or 0 when the fault is not line-anchored.
    pub line: u32,
    /// What went wrong.
    pub detail: String,
}

/// A loaded rule pack: the rules that survived, plus every fault.
#[derive(Debug, Clone, Default)]
pub struct RulePack {
    /// Compiled rules, in pack-file then declaration order.
    pub rules: Vec<CompiledRule>,
    /// Contained loading faults.
    pub faults: Vec<PackFault>,
}

impl RulePack {
    /// A pack with no rules and no faults.
    pub fn empty() -> Self {
        RulePack::default()
    }

    /// Loads rules from `(label, source)` pairs in order. `reserved`
    /// ids (the native and bundled rule sets) and ids already claimed by
    /// an earlier rule are rejected per rule, with a fault, so a pack
    /// can never shadow a default rule or double-count a query rule.
    pub fn from_sources(sources: &[(String, String)], reserved: &[&str]) -> Self {
        let mut pack = RulePack::empty();
        let mut taken: HashSet<String> = reserved.iter().map(|s| s.to_string()).collect();
        for (label, text) in sources {
            let (decls, errors) = parse_pack(text);
            for e in errors {
                pack.faults.push(PackFault {
                    file: label.clone(),
                    line: e.line,
                    detail: e.detail,
                });
            }
            for decl in decls {
                if taken.contains(&decl.id) {
                    let built_in = reserved.contains(&decl.id.as_str());
                    pack.faults.push(PackFault {
                        file: label.clone(),
                        line: decl.line,
                        detail: if built_in {
                            format!(
                                "rule id `{}` collides with a built-in rule; skipped",
                                decl.id
                            )
                        } else {
                            format!("duplicate rule id `{}`; skipped", decl.id)
                        },
                    });
                    continue;
                }
                match CompiledRule::compile(&decl) {
                    Ok(rule) => {
                        taken.insert(decl.id.clone());
                        pack.rules.push(rule);
                    }
                    Err(detail) => pack.faults.push(PackFault {
                        file: label.clone(),
                        line: decl.line,
                        detail: format!("rule `{}`: {detail}", decl.id),
                    }),
                }
            }
        }
        pack
    }

    /// The bundled pack: rules of the default set written as queries.
    /// Loaded with no reserved ids — its ids are the ones reserved
    /// against user packs.
    pub fn builtin() -> Self {
        let pack =
            RulePack::from_sources(&[("<builtin>".to_string(), BUILTIN_PACK.to_string())], &[]);
        debug_assert!(
            pack.faults.is_empty(),
            "bundled pack must load clean: {:?}",
            pack.faults
        );
        pack
    }
}

/// Source of the bundled pack.
pub const BUILTIN_PACK: &str = include_str!("../rules/builtin.aq");

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_dedupes_and_outlives() {
        let a = intern_static("some-rule-id");
        let b = intern_static(&String::from("some-rule-id"));
        assert!(std::ptr::eq(a, b));
    }

    #[test]
    fn builtin_pack_compiles_clean_with_five_parity_rules() {
        let pack = RulePack::builtin();
        assert!(pack.faults.is_empty(), "{:?}", pack.faults);
        let ids: Vec<&str> = pack.rules.iter().map(|r| r.id).collect();
        assert_eq!(
            ids,
            vec![
                "misra-15.5-multi-exit",
                "misra-17.2-recursion",
                "structure-function-length",
                "structure-nesting-depth",
                "structure-param-count",
                "misra-17.1-variadic",
                "design-global-variable",
                "cuda-kernel-pointer",
                "cuda-alloc-balance",
                "cuda-launch-unchecked",
                "misra-15.1-goto",
                "misra-12.3-comma",
                "misra-19.2-union",
                "misra-16.4-switch-default",
                "misra-7.1-octal",
                "misra-decl-one-per-stmt",
                "misra-2.1-unreachable",
                "misra-13.5-side-effect",
                "design-exception-discipline",
                "defensive-unchecked-return",
                "defensive-pointer-param",
                "misra-21.3-dynamic-memory",
                "typing-explicit-cast",
                "naming-type",
                "naming-macro",
            ]
        );
        // Recursion reads the call graph; the rest are file-scoped.
        for r in &pack.rules {
            let want = if r.id == "misra-17.2-recursion" {
                CheckScope::Program
            } else {
                CheckScope::File
            };
            assert_eq!(r.scope, want, "{}", r.id);
            assert!(!r.iso.is_empty(), "{}", r.id);
            assert!(r.iso[0].starts_with("Part6.Table"), "{}", r.id);
        }
    }

    #[test]
    fn duplicate_and_native_collisions_are_faults_not_errors() {
        let src = "rule \"typing-explicit-cast\" { function -> warn }\n\
                   rule \"fresh\" { function -> warn }\n\
                   rule \"fresh\" { global -> info }\n";
        let pack = RulePack::from_sources(
            &[("pack.aq".to_string(), src.to_string())],
            &["typing-explicit-cast"],
        );
        assert_eq!(pack.rules.len(), 1);
        assert_eq!(pack.rules[0].id, "fresh");
        assert_eq!(pack.faults.len(), 2);
        assert!(pack.faults[0]
            .detail
            .contains("collides with a built-in rule"));
        assert!(pack.faults[1].detail.contains("duplicate rule id"));
        assert_eq!(pack.faults[1].line, 3);
    }

    #[test]
    fn first_matching_arm_wins_and_a_row_yields_one_finding() {
        use crate::rows::SiteRow;
        use adsafe_lang::{FileId, Span};
        let src = "rule \"casts\" {\n\
                   site where kind == \"const_cast\" -> violation \"{kind} to `{text}`\"\n\
                   site where text == \"int\" -> warn \"to int\"\n\
                   site -> info \"other {kind}\"\n}\n";
        let pack = RulePack::from_sources(&[("p.aq".to_string(), src.to_string())], &[]);
        assert!(pack.faults.is_empty(), "{:?}", pack.faults);
        let rule = &pack.rules[0];
        assert_eq!((rule.selector, rule.arms.len()), (Selector::Site, 3));
        let row = |kind, text| {
            Row::Site(SiteRow {
                kind,
                text,
                count: 0,
                module: "m",
                function: None,
                span: Span::new(FileId(0), 0, 1),
            })
        };
        let rows = [
            row("const_cast", "int"),
            row("static_cast", "int"),
            row("static_cast", "long"),
        ];
        let (diags, _) = rule.eval_rows(&rows);
        let got: Vec<(Severity, &str)> = diags
            .iter()
            .map(|d| (d.severity, d.message.as_str()))
            .collect();
        assert_eq!(
            got,
            [
                (Severity::Violation, "const_cast to `int`"),
                (Severity::Warning, "to int"),
                (Severity::Info, "other static_cast"),
            ]
        );
    }

    #[test]
    fn type_errors_are_contained_per_rule() {
        let src = "rule \"bad-type\" { function where name > 3 -> warn }\n\
                   rule \"good\" { function where cc > 3 -> warn }\n";
        let pack = RulePack::from_sources(&[("p.aq".to_string(), src.to_string())], &[]);
        assert_eq!(pack.rules.len(), 1);
        assert_eq!(pack.faults.len(), 1);
        assert!(pack.faults[0].detail.contains("bad-type"));
    }
}
