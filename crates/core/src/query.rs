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
    CompiledRule, FileRow, FunctionRow, GlobalRow, PackFault, Row, RulePack, Selector, SiteRow,
};
use adsafe_trace::Histogram;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

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
    bundled_rules()
        .rules
        .iter()
        .chain(user.into_iter().flat_map(|p| &p.rules))
}

/// Fingerprint of a user pack's rules, for the resident store's memos:
/// equal for packs that compile the same declarations in the same
/// order. Stable within a process only (memos never leave it).
pub(crate) fn pack_fingerprint(pack: Option<&RulePack>) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::hash::DefaultHasher::new();
    for rule in pack.into_iter().flat_map(|p| &p.rules) {
        format!("{:?}", rule.decl).hash(&mut h);
    }
    h.finish()
}

/// Builds the rows `selector` ranges over for one file, from its facts
/// record. The rows borrow the record's strings. `recursive` is the
/// whole-program recursive-function set (qualified names, sorted, as
/// [`adsafe_lang::CallGraph::recursive_functions`] returns it) — only
/// consulted by the `recursive` field.
pub fn rows_from_facts<'a>(
    selector: Selector,
    id: FileId,
    module: &'a str,
    facts: &'a FileFacts,
    recursive: &[String],
) -> Vec<Row<'a>> {
    debug_assert!(
        recursive.windows(2).all(|w| w[0] < w[1]),
        "recursive set must be sorted"
    );
    match selector {
        Selector::Function => facts
            .functions
            .iter()
            .map(|f| {
                let m = &f.metrics;
                Row::Function(FunctionRow {
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
                    recursive: recursive.binary_search(&m.qualified_name).is_ok(),
                    variadic: f.variadic,
                    unbalanced_alloc: f.unbalanced_alloc,
                    launches: f.launches,
                    error_query: f.error_query,
                    kernel_ptrs: f.kernel_ptrs,
                    kernel_ptr_names: &f.kernel_ptr_names,
                    span: Span::new(id, f.sig_start, f.sig_end),
                })
            })
            .collect(),
        Selector::Global => facts
            .globals
            .iter()
            .map(|g| {
                Row::Global(GlobalRow {
                    name: &g.name,
                    module,
                    is_const: g.is_const,
                    is_extern: g.is_extern,
                    ty: &g.ty,
                    span: Span::new(id, g.start, g.end),
                })
            })
            .collect(),
        Selector::File => vec![Row::File(FileRow {
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
        })],
        Selector::Site => facts
            .sites
            .iter()
            .map(|s| {
                Row::Site(SiteRow {
                    kind: s.kind,
                    text: &s.text,
                    count: s.count,
                    module,
                    function: s
                        .function
                        .and_then(|f| facts.functions.get(f as usize))
                        .map(|f| f.metrics.qualified_name.as_str()),
                    span: Span::new(id, s.start, s.end),
                })
            })
            .collect(),
    }
}

/// One query rule's outcome on one file: its findings and VM steps, or
/// the message of a contained panic.
pub type RuleOutcome = Result<(Vec<Diagnostic>, u64), String>;

/// The query rules one run evaluates, each with its
/// `checks.query{rule=…}` timing histogram resolved once for the run
/// rather than once per file.
pub struct QueryPass<'r> {
    rules: Vec<&'r CompiledRule>,
    timings: Vec<Arc<Histogram>>,
}

impl<'r> QueryPass<'r> {
    /// Resolves the timing histogram of every rule in `rules`.
    pub fn new(rules: Vec<&'r CompiledRule>) -> Self {
        let timings = rules
            .iter()
            .map(|r| {
                adsafe_trace::histogram(&adsafe_trace::labeled("checks.query", &[("rule", r.id)]))
            })
            .collect();
        QueryPass { rules, timings }
    }

    /// The rules, in evaluation order.
    pub fn rules(&self) -> &[&'r CompiledRule] {
        &self.rules
    }

    /// The pass over this pass's rules from position `from` on.
    pub fn tail(&self, from: usize) -> QueryPass<'r> {
        QueryPass {
            rules: self.rules[from..].to_vec(),
            timings: self.timings[from..].to_vec(),
        }
    }

    /// Evaluates every rule over one file's facts, in order, building
    /// each selector's rows at most once, under a `query.rows` span of
    /// their own: no rule's time includes a row build. `recursive` is
    /// the sorted whole-program recursive-function set; typeck keeps
    /// file-scope rules from reading it, so one pass serves both scopes.
    /// Each rule runs under its own panic containment (failpoint
    /// `pipeline::query::<id>`), `check.<id>` span and one
    /// `checks.query` observation; a panic while building rows is a
    /// fault of the rule that needed them.
    pub fn eval_file(
        &self,
        id: FileId,
        module: &str,
        facts: &FileFacts,
        recursive: &[String],
    ) -> Vec<RuleOutcome> {
        let mut rows: [Option<Vec<Row<'_>>>; 4] = [None, None, None, None];
        self.rules
            .iter()
            .zip(&self.timings)
            .map(|(rule, timing)| {
                let slot = &mut rows[rule.selector as usize];
                if slot.is_none() {
                    let _sp = adsafe_trace::span("query.rows", "checks");
                    *slot = Some(
                        catch_unwind(AssertUnwindSafe(|| {
                            rows_from_facts(rule.selector, id, module, facts, recursive)
                        }))
                        .map_err(|payload| panic_message(&*payload))?,
                    );
                }
                let rows = slot.as_deref().unwrap_or_default();
                let _sp = adsafe_trace::span(format!("check.{}", rule.id), "checks");
                let t0 = adsafe_trace::now_us();
                let out = catch_unwind(AssertUnwindSafe(|| {
                    if failpoints::armed() > 0 {
                        failpoints::hit(&format!("pipeline::query::{}", rule.id));
                    }
                    rule.eval_rows(rows)
                }))
                .map_err(|payload| panic_message(&*payload));
                timing.record(adsafe_trace::now_us().saturating_sub(t0));
                out
            })
            .collect()
    }
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
    natives
        .chain(bundled_rules().rules.iter().map(|r| r.id))
        .collect()
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
        cause: FaultCause::RulePackInvalid {
            line: pf.line,
            detail: pf.detail.clone(),
        },
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
int pick(int a) { if (a > 0) { return a; } return -a; }\n\
void hop(int a) { switch (a) { case 0: goto out; } out: return; }\n\
union Raw { int i; float f; };\n";

    /// `(id, module, facts)` of every file in `set`, in order.
    fn facts_of(set: &AnalysisSet) -> Vec<(FileId, String, FileFacts)> {
        set.parsed()
            .map(|(id, module, parsed)| {
                (*id, module.to_string(), extract_facts(&set.sm, *id, parsed))
            })
            .collect()
    }

    fn demo_rows(selector: Selector) -> Vec<Row<'static>> {
        let mut set = AnalysisSet::new();
        set.add("demo", "demo/demo.cu", SRC);
        let facts: &'static [_] = facts_of(&set).leak();
        facts
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
        for sel in [
            Selector::Function,
            Selector::Global,
            Selector::File,
            Selector::Site,
        ] {
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
            .find(|r| r.get(0) == Some(Value::Str("pick")))
            .expect("pick present");
        assert_eq!(pick.get(7), Some(Value::Int(2)), "two returns");
        assert_eq!(pick.get(8), Some(Value::Bool(true)), "multi-exit");
        assert_eq!(pick.function(), Some("pick"));
        assert!(
            pick.span().start < pick.span().end,
            "anchored at the signature"
        );
        let kern = rows
            .iter()
            .find(|r| r.get(0) == Some(Value::Str("kern")))
            .expect("kernel present");
        assert_eq!(kern.get(12), Some(Value::Bool(true)), "is_kernel");
        assert_eq!(kern.get(13), Some(Value::Int(2)), "ptr_params");
    }

    #[test]
    fn global_rows_see_constness() {
        let rows = demo_rows(Selector::Global);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].get(0), Some(Value::Str("kMax")));
        assert_eq!(rows[0].get(2), Some(Value::Bool(true)));
        assert_eq!(rows[1].get(2), Some(Value::Bool(false)));
        assert_eq!(rows[1].get(4), Some(Value::Str("int")), "declared type");
        let decl = SRC.find("int counter").unwrap() as u32;
        assert_eq!(rows[1].span().start, decl, "anchored at the declaration");
        assert!(rows.iter().all(|r| r.function().is_none()));
    }

    #[test]
    fn site_rows_carry_kind_text_count_and_function() {
        use Value::{Int, Str};
        let rows = demo_rows(Selector::Site);
        let got: Vec<_> = rows
            .iter()
            .map(|r| (r.get(0), r.get(1), r.get(2), r.function()))
            .collect();
        assert_eq!(
            got,
            [
                (
                    Some(Str("unvalidated-deref")),
                    Some(Str("p")),
                    Some(Int(0)),
                    Some("kern")
                ),
                (
                    Some(Str("c-style-cast")),
                    Some(Str("int")),
                    Some(Int(0)),
                    Some("kern")
                ),
                (
                    Some(Str("unvalidated-deref")),
                    Some(Str("q")),
                    Some(Int(0)),
                    Some("kern")
                ),
                (
                    Some(Str("switch")),
                    Some(Str("")),
                    Some(Int(0)),
                    Some("hop")
                ),
                (
                    Some(Str("goto")),
                    Some(Str("out")),
                    Some(Int(0)),
                    Some("hop")
                ),
                (Some(Str("union")), Some(Str("Raw")), Some(Int(0)), None),
            ]
        );
        assert_eq!(rows[3].get(4), Some(Value::Str("hop")));
        assert_eq!(
            rows[5].get(4),
            Some(Value::Str("")),
            "a file-scope site has no function"
        );
        let goto = SRC.find("goto out").unwrap() as u32;
        assert_eq!(rows[4].span().start, goto, "anchored at the statement");
    }

    #[test]
    fn recursive_set_feeds_the_recursive_field() {
        let mut set = AnalysisSet::new();
        set.add(
            "m",
            "m/a.cc",
            "int odd(int n) { if (n == 0) return 0; return odd(n - 1); }\n",
        );
        let (id, module, facts) = facts_of(&set).remove(0);
        let cold = rows_from_facts(Selector::Function, id, &module, &facts, &[]);
        let hot = rows_from_facts(
            Selector::Function,
            id,
            &module,
            &facts,
            &["odd".to_string()],
        );
        let idx = adsafe_query::schema::lookup(Selector::Function, "recursive")
            .unwrap()
            .0;
        assert_eq!(cold[0].get(idx), Some(Value::Bool(false)));
        assert_eq!(hot[0].get(idx), Some(Value::Bool(true)));
    }

    #[test]
    fn multi_exit_flagged() {
        assert_eq!(
            findings(
                "misra-15.5-multi-exit",
                "int f(int x) { if (x) return 1; return 0; }"
            ),
            [(
                Severity::Warning,
                "function `f` has 2 return statements / early exits".into()
            )]
        );
        assert!(findings("misra-15.5-multi-exit", "int f(int x) { return x; }").is_empty());
    }

    #[test]
    fn recursion_flagged() {
        let src = "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); }";
        assert_eq!(
            findings("misra-17.2-recursion", src),
            [(
                Severity::Violation,
                "function `fib` participates in recursion".into()
            )]
        );
    }

    #[test]
    fn long_function_flagged() {
        let body: String = (0..120).map(|i| format!("  x += {i};\n")).collect();
        let src = format!("int f(int x) {{\n{body}  return x;\n}}\n");
        assert_eq!(
            findings("structure-function-length", &src),
            [(
                Severity::Warning,
                "function `f` is 123 lines (limit 100)".into()
            )]
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
            [(
                Severity::Warning,
                "function `f` nests 6 levels deep (limit 5)".into()
            )]
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
            [(
                Severity::Info,
                "function `f` takes 7 parameters (limit 6)".into()
            )]
        );
        assert!(findings("structure-param-count", "int f(int a, int b) { return a; }").is_empty());
    }

    #[test]
    fn dynamic_memory_flagged() {
        let src = "void f(int n) { float* a = (float*)malloc(n * 4); float* b = new float[n]; \
                   cudaMalloc((void**)&a, n); free(a); delete[] b; int* c = new int; delete c; }";
        let v = Severity::Violation;
        assert_eq!(
            findings("misra-21.3-dynamic-memory", src),
            [
                (v, "dynamic memory API `malloc` used".into()),
                (v, "dynamic allocation `new[] float`".into()),
                (v, "dynamic memory API `cudaMalloc` used".into()),
                (v, "dynamic memory API `free` used".into()),
                (v, "dynamic deallocation `delete[]`".into()),
                (v, "dynamic allocation `new int`".into()),
                (v, "dynamic deallocation `delete`".into()),
            ]
        );
    }

    #[test]
    fn counts_all_cast_kinds() {
        let src = "void f(double d, const int* cp, B* b) { int a = (int)d; \
                   long l = static_cast<long>(d); void* p = reinterpret_cast<void*>(&a); \
                   int* w = const_cast<int*>(cp); D* x = dynamic_cast<D*>(b); }";
        assert_eq!(
            findings("typing-explicit-cast", src),
            [
                (Severity::Warning, "C-style cast to `int`".into()),
                (Severity::Warning, "static_cast to `long`".into()),
                (Severity::Violation, "reinterpret_cast to `void*`".into()),
                (Severity::Violation, "const_cast to `int*`".into()),
                (Severity::Warning, "dynamic_cast to `D*`".into()),
            ]
        );
    }

    #[test]
    fn no_casts_clean() {
        assert!(findings("typing-explicit-cast", "int f(int a) { return a + 1; }").is_empty());
    }

    #[test]
    fn bad_type_name_flagged() {
        assert_eq!(
            findings("naming-type", "struct object_tracker { int x; };"),
            [(
                Severity::Warning,
                "type `object_tracker` is not UpperCamelCase".into()
            )]
        );
        assert!(findings("naming-type", "struct ObjectTracker { int x; };").is_empty());
    }

    #[test]
    fn c_style_typedef_allowed() {
        assert!(findings("naming-type", "typedef unsigned int frame_id_t;").is_empty());
        assert_eq!(
            findings("naming-type", "typedef unsigned int frame_id;"),
            [(
                Severity::Info,
                "alias `frame_id` is not UpperCamelCase".into()
            )]
        );
    }

    #[test]
    fn enum_name_checked() {
        assert_eq!(
            findings("naming-type", "enum class drive_mode { kIdle };"),
            [(
                Severity::Warning,
                "enum `drive_mode` is not UpperCamelCase".into()
            )]
        );
    }

    #[test]
    fn macro_names_checked() {
        assert_eq!(
            findings(
                "naming-macro",
                "#define MAX_N 10\n#define badMacro 1\n#define GUARD_H_\n"
            ),
            [(
                Severity::Info,
                "macro `badMacro` is not UPPER_SNAKE_CASE".into()
            )]
        );
        assert!(findings("naming-macro", "int x;").is_empty());
    }

    #[test]
    fn variadic_flagged() {
        assert_eq!(
            findings(
                "misra-17.1-variadic",
                "int log_msg(const char* fmt, ...) { return 0; }"
            ),
            [(Severity::Warning, "function `log_msg` is variadic".into())]
        );
        assert!(findings("misra-17.1-variadic", "int f(int a) { return a; }").is_empty());
    }

    #[test]
    fn global_definition_flagged() {
        let d = assess("int g_state;\nstatic float g_rate = 0.5f;\n");
        let d = d.diagnostics_for("design-global-variable");
        let got: Vec<(&str, Option<&str>)> = d
            .iter()
            .map(|d| (d.message.as_str(), d.function.as_deref()))
            .collect();
        assert_eq!(
            got,
            [
                ("global variable `g_state: int` defined", None),
                ("global variable `g_rate: float` defined", None),
            ]
        );
        assert_eq!(
            (d[0].span.start, d[0].span.end),
            (0, 11),
            "anchored at the declarator"
        );
    }

    #[test]
    fn const_global_permitted() {
        assert!(findings("design-global-variable", "const int kMaxSize = 128;\n").is_empty());
    }

    #[test]
    fn extern_declaration_not_double_counted() {
        assert!(findings("design-global-variable", "extern int g_other;\n").is_empty());
    }

    #[test]
    fn kernel_pointer_params_flagged() {
        let src = "__global__ void k(float* out, const float* in, int n) { out[0] = in[0]; }";
        assert_eq!(
            findings("cuda-kernel-pointer", src),
            [(
                Severity::Warning,
                "kernel `k` takes 2 raw pointer parameter(s): out, in".into()
            )]
        );
        // An unnamed pointer parameter is not listed, and a host
        // function's pointers are not a kernel's.
        let src = "__global__ void k(float* out, int*) {}\nvoid h(float* p) {}";
        assert_eq!(
            findings("cuda-kernel-pointer", src),
            [(
                Severity::Warning,
                "kernel `k` takes 1 raw pointer parameter(s): out".into()
            )]
        );
    }

    #[test]
    fn kernel_without_pointers_clean() {
        assert!(findings("cuda-kernel-pointer", "__global__ void k(int n) { }").is_empty());
    }

    #[test]
    fn unbalanced_alloc_flagged() {
        let src = "void f(float* h, int n) { float* d; cudaMalloc((void**)&d, n); \
                   cudaMemcpy(d, h, n, 0); }";
        assert_eq!(
            findings("cuda-alloc-balance", src),
            [(
                Severity::Warning,
                "function `f` has 1 device allocation(s) and fewer frees".into()
            )]
        );
    }

    #[test]
    fn balanced_alloc_clean() {
        let src = "void f(int n) { float* d; cudaMalloc((void**)&d, n); cudaFree(d); }";
        assert!(findings("cuda-alloc-balance", src).is_empty());
    }

    #[test]
    fn unchecked_launch_flagged() {
        let src = "__global__ void k(float* x) {}\nvoid h(float* x) { k<<<1, 32>>>(x); }";
        assert_eq!(
            findings("cuda-launch-unchecked", src),
            [(
                Severity::Warning,
                "function `h` launches 1 kernel(s) without querying errors".into()
            )]
        );
        let ok = "__global__ void k(float* x) {}\n\
                  void h(float* x) { k<<<1, 32>>>(x); cudaGetLastError(); }";
        assert!(findings("cuda-launch-unchecked", ok).is_empty());
    }

    #[test]
    fn goto_flagged() {
        let src = "void f(int x) { if (x) goto out; out: return; }";
        assert_eq!(
            findings("misra-15.1-goto", src),
            [(Severity::Violation, "unconditional jump `goto out`".into())]
        );
        let report = assess(src);
        assert_eq!(
            report.diagnostics_for("misra-15.1-goto")[0]
                .function
                .as_deref(),
            Some("f")
        );
    }

    #[test]
    fn goto_free_clean() {
        assert!(findings("misra-15.1-goto", "void f() { return; }").is_empty());
    }

    #[test]
    fn comma_operator_flagged() {
        assert_eq!(
            findings("misra-12.3-comma", "void f(int a, int b) { a = 1, b = 2; }"),
            [(Severity::Warning, "comma operator used".into())]
        );
    }

    #[test]
    fn union_flagged() {
        assert_eq!(
            findings("misra-19.2-union", "union U { int i; float f; };"),
            [(Severity::Warning, "union `U` declared".into())]
        );
        assert!(findings("misra-19.2-union", "struct S { int i; };").is_empty());
    }

    #[test]
    fn switch_default() {
        let with = "void f(int x) { switch (x) { case 1: break; default: break; } }";
        let without = "void f(int x) { switch (x) { case 1: break; case 2: break; } }";
        assert!(findings("misra-16.4-switch-default", with).is_empty());
        assert_eq!(
            findings("misra-16.4-switch-default", without),
            [(Severity::Warning, "switch without default label".into())]
        );
    }

    #[test]
    fn octal_flagged_decimal_and_hex_clean() {
        assert_eq!(
            findings(
                "misra-7.1-octal",
                "int a = 052; int b = 52; int c = 0x52; int z = 0;"
            ),
            [(Severity::Warning, "octal constant `052`".into())]
        );
    }

    #[test]
    fn octal_with_suffix_flagged() {
        assert_eq!(
            findings("misra-7.1-octal", "unsigned a = 017u;"),
            [(Severity::Warning, "octal constant `017u`".into())]
        );
    }

    #[test]
    fn multiple_declarators_flagged() {
        assert_eq!(
            findings(
                "misra-decl-one-per-stmt",
                "void f() { int a = 1, b = 2; int c = 3; }"
            ),
            [(Severity::Info, "2 declarators in one statement".into())]
        );
    }

    #[test]
    fn unreachable_after_return() {
        assert_eq!(
            findings(
                "misra-2.1-unreachable",
                "int f() { return 1; int dead = 2; }"
            ),
            [(Severity::Warning, "statement is unreachable".into())]
        );
    }

    #[test]
    fn label_after_return_is_reachable() {
        let src = "int f(int x) { if (x) goto out; return 0; out: return 1; }";
        assert!(findings("misra-2.1-unreachable", src).is_empty());
    }

    #[test]
    fn side_effect_in_rhs_flagged() {
        let src = "int f(int a, int b) { if (a > 0 && b++ > 0) { return b; } return 0; }";
        assert_eq!(
            findings("misra-13.5-side-effect", src),
            [(
                Severity::Warning,
                "right operand of a short-circuit operator has side effects".into()
            )]
        );
    }

    #[test]
    fn call_in_rhs_flagged_conservatively() {
        let src = "int ready();\nint f(int a) { return a > 0 || ready(); }";
        assert_eq!(findings("misra-13.5-side-effect", src).len(), 1);
    }

    #[test]
    fn pure_rhs_clean() {
        let src = "int f(int a, int b) { return a > 0 && b < 10; }";
        assert!(findings("misra-13.5-side-effect", src).is_empty());
    }

    #[test]
    fn lhs_side_effect_not_flagged_by_this_rule() {
        // 13.5 targets the RHS; the LHS always evaluates.
        let src = "int f(int a, int b) { return a++ > 0 && b < 10; }";
        assert!(findings("misra-13.5-side-effect", src).is_empty());
    }

    #[test]
    fn throw_without_try_flagged() {
        assert_eq!(
            findings(
                "design-exception-discipline",
                "void f(int x) { if (x < 0) throw x; }"
            ),
            [(
                Severity::Warning,
                "throw with no try/catch in this unit".into()
            )]
        );
    }

    #[test]
    fn throw_with_try_clean() {
        let src = "void f(int x) { try { if (x < 0) throw x; } catch (int e) { } }";
        assert!(findings("design-exception-discipline", src).is_empty());
    }

    #[test]
    fn unchecked_deref_flagged() {
        assert_eq!(
            findings(
                "defensive-pointer-param",
                "float head(float* p) { return p[0]; }"
            ),
            [(
                Severity::Warning,
                "pointer parameter `p` dereferenced without validation".into()
            )]
        );
    }

    #[test]
    fn null_checked_deref_clean() {
        let src = "float head(float* p) { if (p == 0) return 0.0f; return p[0]; }";
        assert!(findings("defensive-pointer-param", src).is_empty());
    }

    #[test]
    fn assert_counts_as_validation() {
        let src = "float head(float* p) { assert(p); return *p; }";
        assert!(findings("defensive-pointer-param", src).is_empty());
    }

    #[test]
    fn arrow_deref_flagged() {
        let src = "struct Obj { int id; };\nint get_id(Obj* o) { return o->id; }";
        assert_eq!(findings("defensive-pointer-param", src).len(), 1);
    }

    #[test]
    fn non_pointer_params_ignored() {
        let src = "int f(int a) { return a + 1; }";
        assert!(findings("defensive-pointer-param", src).is_empty());
    }

    #[test]
    fn discarded_cuda_status_flagged() {
        assert_eq!(
            findings(
                "defensive-unchecked-return",
                "void f(void* p, int n) { cudaMalloc(&p, n); }"
            ),
            [(
                Severity::Warning,
                "return value of `cudaMalloc` is discarded".into()
            )]
        );
    }

    #[test]
    fn checked_status_clean() {
        let src = "int f(void* p, int n) { if (cudaMalloc(&p, n) != 0) return -1; return 0; }";
        assert!(findings("defensive-unchecked-return", src).is_empty());
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
        assert!(
            reserved.contains(&"misra-15.5-multi-exit"),
            "bundled ids too"
        );
        assert_eq!(
            reserved.len(),
            default_checks().len() + bundled_rules().rules.len()
        );
    }

    #[test]
    fn inventory_lists_natives_then_bundled_then_user() {
        let user = RulePack::from_sources(
            &[(
                "u.aq".into(),
                "rule \"team-wide\" { function where params > 3 -> info }".into(),
            )],
            &reserved_rule_ids(),
        );
        let inv = rule_inventory(&user);
        let natives = default_checks().len();
        assert_eq!(inv.len(), natives + bundled_rules().rules.len() + 1);
        assert!(inv[..natives].iter().all(|r| r.origin() == "native"));
        assert!(inv[natives..].iter().all(|r| r.origin() == "query"));
        assert_eq!(inv[0].id, "typing-implicit-conversion");
        assert_eq!(inv[natives].id, "misra-15.5-multi-exit");
        assert_eq!(inv.last().unwrap().id, "team-wide");
    }

    #[test]
    fn eval_file_returns_one_outcome_per_rule() {
        let mut set = AnalysisSet::new();
        set.add(
            "m",
            "m/a.cc",
            "int g(int x) { if (x) return 1; return 0; }\nint h() { return 7; }\n",
        );
        let (id, module, facts) = facts_of(&set).remove(0);
        let pass = QueryPass::new(bundled_rules().rules.iter().collect());
        let out = pass.eval_file(id, &module, &facts, &["g".to_string()]);
        let diags: Vec<Vec<Diagnostic>> = out.into_iter().map(|o| o.unwrap().0).collect();
        let counts: Vec<usize> = diags.iter().map(Vec::len).collect();
        assert_eq!(
            counts,
            [1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
            "multi-exit and recursion fire on `g` only"
        );
        assert_eq!(
            diags[0][0].message,
            "function `g` has 2 return statements / early exits"
        );
        assert_eq!(diags[0][0].function.as_deref(), Some("g"));
        assert_eq!(
            diags[1][0].message,
            "function `g` participates in recursion"
        );
    }
}
