//! Query rules: the bundled pack, rows from facts, the per-file
//! evaluation pass, the rule inventory, pack discovery and loading, and
//! fault mapping.
//!
//! Every query rule is evaluated over [`FileFacts`] records — the same
//! records the incremental cache replays — so a warm-cache run never
//! reparses a file just to answer a query. [`rows_from_facts`] is the
//! only row builder: the pipeline, `adsafe rules check` (which runs the
//! pipeline) and the daemon all go through it. The bundled pack
//! ([`bundled_rules`]) is part of the default rule set; user packs load
//! next to it and can take neither a native nor a bundled id.

use crate::facts::FileFacts;
use crate::fault::{
    failpoints, panic_message, Fault, FaultCause, FaultPhase, FaultSeverity, Recovery,
};
use adsafe_checkers::{default_checks, CheckScope, Diagnostic};
use adsafe_lang::{FileId, Span};
use adsafe_query::{
    CompiledRule, FileRow, FunctionRow, GlobalRow, PackFault, Row, RulePack, Selector,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// The bundled pack ([`adsafe_query::BUILTIN_PACK`]), compiled once per
/// process. Its rules run in every assessment, after the natives and
/// before any user pack.
pub fn bundled_rules() -> &'static RulePack {
    static BUNDLED: OnceLock<RulePack> = OnceLock::new();
    BUNDLED.get_or_init(RulePack::builtin)
}

/// The query rules an assessment runs, in order: the bundled pack, then
/// the user pack's rules.
pub fn query_rules(user: Option<&RulePack>) -> impl Iterator<Item = &CompiledRule> {
    bundled_rules().rules.iter().chain(user.into_iter().flat_map(|p| &p.rules))
}

/// Builds the rows `selector` ranges over for one file, from its facts
/// record. `recursive` is the whole-program recursive-function set
/// (qualified names) — only consulted by the `recursive` field.
pub fn rows_from_facts(
    selector: Selector,
    id: FileId,
    module: &str,
    facts: &FileFacts,
    recursive: &[String],
) -> Vec<Row> {
    match selector {
        Selector::Function => facts
            .functions
            .iter()
            .map(|f| {
                let m = &f.metrics;
                FunctionRow {
                    name: &m.name,
                    qualified: &m.qualified_name,
                    module,
                    cc: m.cyclomatic,
                    nloc: m.nloc,
                    params: m.param_count,
                    nesting: m.max_nesting,
                    returns: m.return_count,
                    multi_exit: m.multi_exit,
                    gotos: m.goto_count,
                    stmts: m.stmt_count,
                    is_gpu: m.is_gpu,
                    is_kernel: f.is_kernel,
                    ptr_params: f.ptr_params,
                    alloc_calls: f.alloc_calls,
                    uninit_reads: f.unit.maybe_uninit_reads,
                    shadowed: f.unit.shadowed_declarations,
                    pointer_uses: f.unit.pointer_uses,
                    alloc_sites: f.unit.dynamic_alloc_sites,
                    opaque_stmts: f.unit.opaque_stmts,
                    has_named_params: f.validation.has_named_params,
                    validates: f.validation.validates,
                    recursive: recursive.contains(&m.qualified_name),
                    span: Span::new(id, f.sig_start, f.sig_end),
                }
                .into_row()
            })
            .collect(),
        Selector::Global => facts
            .globals
            .iter()
            .map(|g| {
                GlobalRow {
                    name: &g.name,
                    module,
                    is_const: g.is_const,
                    is_extern: g.is_extern,
                    span: Span::new(id, 0, 0),
                }
                .into_row()
            })
            .collect(),
        Selector::File => vec![FileRow {
            module,
            physical: facts.loc.physical,
            nloc: facts.loc.nloc,
            comment: facts.loc.comment,
            blank: facts.loc.blank,
            directive: facts.loc.directive,
            recovery: facts.recovery_count,
            functions: facts.functions.len(),
            globals: facts.globals.len(),
            span: Span::new(id, 0, 0),
        }
        .into_row()],
    }
}

/// One query rule's outcome on one file: its findings and VM steps, or
/// the message of a contained panic.
pub type RuleOutcome = Result<(Vec<Diagnostic>, u64), String>;

/// Evaluates `rules` over one file's facts, in order, building each
/// selector's rows at most once. `recursive` is the whole-program
/// recursive-function set; typeck keeps file-scope rules from reading
/// it, so one pass serves both scopes. Each rule runs under its own
/// panic containment (failpoint `pipeline::query::<id>`), `check.<id>`
/// span and `checks.query` timing.
pub fn eval_file(
    rules: &[&CompiledRule],
    id: FileId,
    module: &str,
    facts: &FileFacts,
    recursive: &[String],
) -> Vec<RuleOutcome> {
    let mut rows: [Option<Vec<Row>>; 3] = [None, None, None];
    rules
        .iter()
        .map(|rule| {
            let _sp = adsafe_trace::span(format!("check.{}", rule.id), "checks");
            let t0 = adsafe_trace::now_us();
            let out = catch_unwind(AssertUnwindSafe(|| {
                if failpoints::armed() > 0 {
                    failpoints::hit(&format!("pipeline::query::{}", rule.id));
                }
                let rows = rows[rule.selector as usize].get_or_insert_with(|| {
                    rows_from_facts(rule.selector, id, module, facts, recursive)
                });
                rule.eval_rows(rows)
            }))
            .map_err(|payload| panic_message(&*payload));
            adsafe_trace::histogram(&adsafe_trace::labeled("checks.query", &[("rule", rule.id)]))
                .record(adsafe_trace::now_us().saturating_sub(t0));
            out
        })
        .collect()
}

/// One rule of the assessed set, as the rule inventory lists it.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo<'a> {
    /// Rule id.
    pub id: &'static str,
    /// File or whole-program evaluation.
    pub scope: CheckScope,
    /// ISO 26262-6 table rows evidenced.
    pub iso: &'static [&'static str],
    /// One-line description.
    pub desc: &'static str,
    /// The compiled query; `None` for a native checker.
    pub query: Option<&'a CompiledRule>,
}

impl RuleInfo<'_> {
    /// `"native"` or `"query"`.
    pub fn origin(&self) -> &'static str {
        if self.query.is_some() {
            "query"
        } else {
            "native"
        }
    }
}

/// Every rule an assessment with the user pack `user` runs: the natives
/// in registry order, then the bundled pack, then `user`'s rules.
pub fn rule_inventory(user: &RulePack) -> Vec<RuleInfo<'_>> {
    let natives = default_checks().into_iter().map(|c| RuleInfo {
        id: c.id(),
        scope: c.scope(),
        iso: c.iso_refs(),
        desc: c.description(),
        query: None,
    });
    let queries = query_rules(Some(user)).map(|r| RuleInfo {
        id: r.id,
        scope: r.scope,
        iso: r.iso,
        desc: r.desc,
        query: Some(r),
    });
    natives.chain(queries).collect()
}

/// Finds rule-pack files for a corpus root: `ROOT/.adsafe-rules/*.aq`,
/// sorted by file name for deterministic load order.
pub fn discover_rule_paths(root: &Path) -> Vec<PathBuf> {
    let dir = root.join(".adsafe-rules");
    if dir.is_dir() {
        resolve_rules_arg(&dir)
    } else {
        Vec::new()
    }
}

/// Resolves a `--rules` argument: a single pack file is used as-is, a
/// directory contributes its `*.aq` files in sorted order.
pub fn resolve_rules_arg(path: &Path) -> Vec<PathBuf> {
    if !path.is_dir() {
        return vec![path.to_path_buf()];
    }
    let mut out: Vec<PathBuf> = std::fs::read_dir(path)
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| entry.path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("aq"))
        .collect();
    out.sort();
    out
}

/// Rule ids a user pack can never take: the natives, then the bundled
/// pack.
pub fn reserved_rule_ids() -> Vec<&'static str> {
    let natives = default_checks().into_iter().map(|c| c.id());
    natives.chain(bundled_rules().rules.iter().map(|r| r.id)).collect()
}

/// Loads a user rule pack from explicit paths. Unreadable files become
/// [`PackFault`]s (line 0); parse/type/collision faults come back from
/// the pack loader per rule. Native and bundled ids are reserved.
pub fn load_rule_pack(paths: &[PathBuf]) -> RulePack {
    let mut sources = Vec::new();
    let mut io_faults = Vec::new();
    for path in paths {
        let label = path.display().to_string();
        match std::fs::read_to_string(path) {
            Ok(text) => sources.push((label, text)),
            Err(e) => io_faults.push(PackFault {
                file: label,
                line: 0,
                detail: format!("unreadable pack file: {e}"),
            }),
        }
    }
    let mut pack = RulePack::from_sources(&sources, &reserved_rule_ids());
    // Unreadable files surface first: they are discovered first.
    io_faults.append(&mut pack.faults);
    pack.faults = io_faults;
    pack
}

/// Maps one contained pack-loading failure onto the fault taxonomy:
/// Info severity (no evidence affected), `Noted` recovery — the run
/// proceeds with the remaining rules.
pub fn pack_fault(pf: &PackFault) -> Fault {
    Fault {
        phase: FaultPhase::Checks,
        path: pf.file.clone(),
        severity: FaultSeverity::Info,
        cause: FaultCause::RulePackInvalid { line: pf.line, detail: pf.detail.clone() },
        recovery: Recovery::Noted,
        run_id: String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::extract_facts;
    use crate::{Assessment, AssessmentReport};
    use adsafe_checkers::{AnalysisSet, Severity};
    use adsafe_query::rows::layout_matches_schema;
    use adsafe_query::Value;

    const SRC: &str = "\
const int kMax = 4;\n\
int counter;\n\
__global__ void kern(int* p, float* q) { p[0] = (int)q[0]; }\n\
int pick(int a) { if (a > 0) { return a; } return -a; }\n";

    /// `(id, module, facts)` of every file in `set`, in order.
    fn facts_of(set: &AnalysisSet) -> Vec<(FileId, String, FileFacts)> {
        set.parsed()
            .map(|(id, module, parsed)| {
                (*id, module.to_string(), extract_facts(&set.sm, *id, parsed))
            })
            .collect()
    }

    fn demo_rows(selector: Selector) -> Vec<Row> {
        let mut set = AnalysisSet::new();
        set.add("demo", "demo/demo.cu", SRC);
        facts_of(&set)
            .iter()
            .flat_map(|(id, m, f)| rows_from_facts(selector, *id, m, f, &[]))
            .collect()
    }

    /// Assesses one file `t.cc` and returns the report.
    fn assess(src: &str) -> AssessmentReport {
        let mut a = Assessment::new();
        a.add_file("m", "t.cc", src);
        a.run()
    }

    /// `(severity, message)` of every finding of rule `id` on `src`.
    fn findings(id: &str, src: &str) -> Vec<(Severity, String)> {
        assess(src)
            .diagnostics_for(id)
            .into_iter()
            .map(|d| (d.severity, d.message.clone()))
            .collect()
    }

    #[test]
    fn every_selector_matches_its_schema_layout() {
        for sel in [Selector::Function, Selector::Global, Selector::File] {
            let rows = demo_rows(sel);
            assert!(!rows.is_empty(), "{sel:?}");
            for row in &rows {
                layout_matches_schema(sel, row).unwrap();
            }
        }
    }

    #[test]
    fn function_rows_carry_metrics_and_anchors() {
        let rows = demo_rows(Selector::Function);
        let pick = rows
            .iter()
            .find(|r| r.vals[0] == Value::Str("pick".into()))
            .expect("pick present");
        assert_eq!(pick.vals[7], Value::Int(2), "two returns");
        assert_eq!(pick.vals[8], Value::Bool(true), "multi-exit");
        assert_eq!(pick.function.as_deref(), Some("pick"));
        assert!(pick.span.start < pick.span.end, "anchored at the signature");
        let kern = rows
            .iter()
            .find(|r| r.vals[0] == Value::Str("kern".into()))
            .expect("kernel present");
        assert_eq!(kern.vals[12], Value::Bool(true), "is_kernel");
        assert_eq!(kern.vals[13], Value::Int(2), "ptr_params");
    }

    #[test]
    fn global_rows_see_constness() {
        let rows = demo_rows(Selector::Global);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].vals[0], Value::Str("kMax".into()));
        assert_eq!(rows[0].vals[2], Value::Bool(true));
        assert_eq!(rows[1].vals[2], Value::Bool(false));
        assert!(rows.iter().all(|r| r.function.is_none()));
    }

    #[test]
    fn recursive_set_feeds_the_recursive_field() {
        let mut set = AnalysisSet::new();
        set.add("m", "m/a.cc", "int odd(int n) { if (n == 0) return 0; return odd(n - 1); }\n");
        let (id, module, facts) = facts_of(&set).remove(0);
        let cold = rows_from_facts(Selector::Function, id, &module, &facts, &[]);
        let hot =
            rows_from_facts(Selector::Function, id, &module, &facts, &["odd".to_string()]);
        let idx = adsafe_query::schema::lookup(Selector::Function, "recursive").unwrap().0;
        assert_eq!(cold[0].vals[idx as usize], Value::Bool(false));
        assert_eq!(hot[0].vals[idx as usize], Value::Bool(true));
    }

    #[test]
    fn multi_exit_flagged() {
        assert_eq!(
            findings("misra-15.5-multi-exit", "int f(int x) { if (x) return 1; return 0; }"),
            [(Severity::Warning, "function `f` has 2 return statements / early exits".into())]
        );
        assert!(findings("misra-15.5-multi-exit", "int f(int x) { return x; }").is_empty());
    }

    #[test]
    fn recursion_flagged() {
        let src = "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }";
        assert_eq!(
            findings("misra-17.2-recursion", src),
            [(Severity::Violation, "function `fib` participates in recursion".into())]
        );
    }

    #[test]
    fn long_function_flagged() {
        let body: String = (0..120).map(|i| format!("  x += {i};\n")).collect();
        let src = format!("int f(int x) {{\n{body}  return x;\n}}\n");
        assert_eq!(
            findings("structure-function-length", &src),
            [(Severity::Warning, "function `f` is 123 lines (limit 100)".into())]
        );
    }

    #[test]
    fn short_function_clean() {
        assert!(findings("structure-function-length", "int f() { return 1; }").is_empty());
    }

    #[test]
    fn deep_nesting_flagged() {
        let src = "void f(int x) { if (x) { if (x) { if (x) { if (x) { if (x) { if (x) { x++; } } } } } } }";
        assert_eq!(
            findings("structure-nesting-depth", src),
            [(Severity::Warning, "function `f` nests 6 levels deep (limit 5)".into())]
        );
        let ok = "void f(int x) { if (x) { if (x) { x++; } } }";
        assert!(findings("structure-nesting-depth", ok).is_empty());
    }

    #[test]
    fn wide_interface_flagged() {
        assert_eq!(
            findings(
                "structure-param-count",
                "int f(int a, int b, int c, int d, int e, int g, int h) { return a; }",
            ),
            [(Severity::Info, "function `f` takes 7 parameters (limit 6)".into())]
        );
        assert!(findings("structure-param-count", "int f(int a, int b) { return a; }").is_empty());
    }

    #[test]
    fn unreadable_pack_is_a_contained_fault() {
        let pack = load_rule_pack(&[PathBuf::from("/nonexistent/rules.aq")]);
        assert!(pack.rules.is_empty());
        assert_eq!(pack.faults.len(), 1);
        assert!(pack.faults[0].detail.contains("unreadable"));
        let f = pack_fault(&pack.faults[0]);
        assert_eq!(f.severity, FaultSeverity::Info);
        assert_eq!(f.recovery, Recovery::Noted);
        assert!(f.to_string().contains("rule pack invalid"));
    }

    #[test]
    fn native_ids_are_reserved() {
        let reserved = reserved_rule_ids();
        assert!(reserved.contains(&"misra-15.1-goto"));
        assert!(reserved.contains(&"misra-15.5-multi-exit"), "bundled ids too");
        assert_eq!(reserved.len(), default_checks().len() + bundled_rules().rules.len());
    }

    #[test]
    fn inventory_lists_natives_then_bundled_then_user() {
        let user = RulePack::from_sources(
            &[("u.aq".into(), "rule \"team-wide\" { function where params > 3 -> info }".into())],
            &reserved_rule_ids(),
        );
        let inv = rule_inventory(&user);
        let natives = default_checks().len();
        assert_eq!(inv.len(), natives + 5 + 1);
        assert!(inv[..natives].iter().all(|r| r.origin() == "native"));
        assert!(inv[natives..].iter().all(|r| r.origin() == "query"));
        assert_eq!(inv[0].id, "misra-15.1-goto");
        assert_eq!(inv[natives].id, "misra-15.5-multi-exit");
        assert_eq!(inv.last().unwrap().id, "team-wide");
    }

    #[test]
    fn eval_file_returns_one_outcome_per_rule() {
        let mut set = AnalysisSet::new();
        set.add("m", "m/a.cc", "int g(int x) { if (x) return 1; return 0; }\nint h() { return 7; }\n");
        let (id, module, facts) = facts_of(&set).remove(0);
        let rules: Vec<&CompiledRule> = bundled_rules().rules.iter().collect();
        let out = eval_file(&rules, id, &module, &facts, &["g".to_string()]);
        let diags: Vec<Vec<Diagnostic>> = out.into_iter().map(|o| o.unwrap().0).collect();
        let counts: Vec<usize> = diags.iter().map(Vec::len).collect();
        assert_eq!(counts, [1, 1, 0, 0, 0], "multi-exit and recursion fire on `g` only");
        assert_eq!(diags[0][0].message, "function `g` has 2 return statements / early exits");
        assert_eq!(diags[0][0].function.as_deref(), Some("g"));
        assert_eq!(diags[1][0].message, "function `g` participates in recursion");
    }
}
