//! Per-file analysis facts: everything the pipeline needs from one
//! source file, extracted once after parsing and cacheable on disk.
//!
//! [`FileFacts`] is the unit of incrementality. For a *fresh* file the
//! pipeline parses it and calls [`extract_facts`]; for a *cached* file
//! it deserialises the same record from `.adsafe-cache/` (or shares the
//! decoded record a resident store holds) and skips the parse entirely.
//! Everything cross-file — the call graph, global-use diagnostics,
//! query-rule rows, module metrics, the ISO 26262-6 Table 8 unit
//! statistics, the validation ratio, GPU evidence — is derived from
//! facts records, for fresh and cached files alike, through the
//! `*_from_facts` functions below: by the run itself, or by an earlier
//! run over the same files whose results a resident store memoised
//! ([`crate::store`]). Fresh and warm runs therefore produce
//! byte-identical reports by construction: the exact same assembly code
//! runs over the exact same inputs.
//!
//! The serialised form (`adsafe-facts/7`) is hand-written JSON. It is
//! read back in one pass straight from the bytes, with no intermediate
//! JSON tree, and the reader accepts only the exact shape
//! [`FileFacts::to_json`] writes: keys in writer order, no whitespace,
//! canonical integers and escapes. Anything else — even JSON that
//! means the same record — is an error, so the cache layer treats the
//! entry as corrupt and falls back to the cold path with a
//! [`crate::FaultCause::CacheCorrupt`] fault.

use adsafe_checkers::defensive::{
    condition_tested_names, validation_facts, ValidationFacts, MUST_CHECK_FNS,
};
use adsafe_checkers::misra::DYNAMIC_MEMORY_FNS;
use adsafe_checkers::naming::{classify, NameCase};
use adsafe_checkers::unit_design::{FunctionUnitFacts, UnitDesignStats};
use adsafe_checkers::{Diagnostic, Severity};
use adsafe_lang::ast::{
    BinOp, CastKind, Decl, Expr, ExprKind, FunctionDef, RecordKind, Stmt, StmtKind, Storage, UnOp,
};
use adsafe_lang::callgraph::callee_names;
use adsafe_lang::cuda::CudaApiKind;
use adsafe_lang::symbols::analyze_function;
use adsafe_lang::visit::{walk_expr, walk_function, walk_stmt, Visitor};
use adsafe_lang::{CallGraph, FileId, ParsedFile, SourceMap, Span};
use adsafe_metrics::{
    count_file, function_metrics, FunctionMetrics, LocCounts, ModuleMetrics, ModuleTally,
};
use adsafe_trace::json::write_escaped;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Version tag of the serialised facts record. Bump on any schema
/// change: it participates in the cache fingerprint, so old entries are
/// invalidated wholesale instead of being misread.
pub const FACTS_SCHEMA: &str = "adsafe-facts/7";

/// One file-scope variable definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalFacts {
    /// Variable name.
    pub name: String,
    /// Whether the declared type is `const`.
    pub is_const: bool,
    /// Whether the storage class is `extern`.
    pub is_extern: bool,
    /// Declarator span start (byte offset).
    pub start: u32,
    /// Declarator span end (byte offset).
    pub end: u32,
    /// The declared type as written (`TypeRef::display`).
    pub ty: String,
}

/// Everything the cross-file assemblies need from one function.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionFacts {
    /// Structural metrics (complexity, NLOC, exits, …).
    pub metrics: FunctionMetrics,
    /// Signature span start (byte offset).
    pub sig_start: u32,
    /// Signature span end (byte offset).
    pub sig_end: u32,
    /// Callee names in walk order, duplicates kept — replays the call
    /// graph via [`CallGraph::from_functions`].
    pub callees: Vec<String>,
    /// First unresolved use per name, in source order:
    /// `(name, span_start, span_end)` — feeds `design-global-use` and
    /// module cohesion.
    pub unresolved: Vec<(String, u32, u32)>,
    /// Per-function ISO 26262-6 Table 8 contributions.
    pub unit: FunctionUnitFacts,
    /// Whether this is a `__global__` CUDA kernel.
    pub is_kernel: bool,
    /// Pointer-like parameter count (GPU evidence).
    pub ptr_params: usize,
    /// CUDA allocation API call sites (GPU evidence).
    pub alloc_calls: usize,
    /// Device allocation calls outnumber frees.
    pub unbalanced_alloc: bool,
    /// Kernel-launch expressions (`<<<…>>>`) in the body.
    pub launches: usize,
    /// Whether the body calls a CUDA error query (`cudaGetLastError`, …).
    pub error_query: bool,
    /// A kernel's named pointer-like parameters, joined `", "`; empty
    /// for a function that is not a kernel. Unlike `ptr_params`, an
    /// unnamed parameter does not count.
    pub kernel_ptr_names: String,
    /// How many names `kernel_ptr_names` holds.
    pub kernel_ptrs: usize,
    /// Whether the parameter list ends in `...`.
    pub variadic: bool,
    /// Input-validation facts (defensive-programming ratio).
    pub validation: ValidationFacts,
}

/// The `kind`s a [`SiteFacts`] can have. A `multi-decl` is a declaration
/// statement in a function body with two or more declarators; a `union`
/// is declared at file or namespace scope. An `unreachable` site is the
/// first statement of a block that follows an unconditional jump; a
/// `short-circuit` site is a right operand of `&&` or `||` with side
/// effects; a `discarded-call` is an expression statement calling one of
/// [`MUST_CHECK_FNS`]; an `unvalidated-deref` is the first dereference
/// of a named pointer parameter that no condition tests. Every `throw`
/// is a site, and so is every call to one of [`DYNAMIC_MEMORY_FNS`]
/// (`memory-api`), every `new`, `new[]`, `delete` and `delete[]`, and
/// every explicit cast, one kind per cast syntax. A `misnamed-*` site is
/// a type, enum, alias or macro whose name breaks the naming convention
/// [`classify`] judges.
pub const SITE_KINDS: [&str; 26] = [
    "goto",
    "comma",
    "switch",
    "multi-decl",
    "union",
    "octal",
    "unreachable",
    "short-circuit",
    "throw",
    "discarded-call",
    "unvalidated-deref",
    "memory-api",
    "new",
    "new[]",
    "delete",
    "delete[]",
    "c-style-cast",
    "static_cast",
    "reinterpret_cast",
    "const_cast",
    "dynamic_cast",
    "functional-cast",
    "misnamed-type",
    "misnamed-enum",
    "misnamed-alias",
    "misnamed-macro",
];

/// One construct occurrence, anchored where a finding on it points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteFacts {
    /// One of [`SITE_KINDS`].
    pub kind: &'static str,
    /// Span start (byte offset).
    pub start: u32,
    /// Span end (byte offset).
    pub end: u32,
    /// Index of the enclosing function in [`FileFacts::functions`];
    /// `None` at file scope (unions, octal constants, misnamed
    /// declarations and macros).
    pub function: Option<u32>,
    /// Goto label, union name, octal lexeme, discarded or dynamic-memory
    /// callee, dereferenced parameter, allocated type, cast target type
    /// or misnamed name; empty otherwise.
    pub text: String,
    /// A switch's `default` labels directly in its body, a statement's
    /// declarators, or for a `throw` the `try` statements in the file's
    /// functions; else 0.
    pub count: usize,
}

impl SiteFacts {
    fn new(kind: &'static str, at: Span, function: Option<u32>, text: &str, count: usize) -> Self {
        SiteFacts {
            kind,
            start: at.start,
            end: at.end,
            function,
            text: text.to_string(),
            count,
        }
    }
}

/// The complete cacheable record for one source file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FileFacts {
    /// Parser error-recovery regions (0 for a clean tier-1 parse).
    pub recovery_count: usize,
    /// Line counts.
    pub loc: LocCounts,
    /// File-scope variables.
    pub globals: Vec<GlobalFacts>,
    /// Per-function facts, in definition order.
    pub functions: Vec<FunctionFacts>,
    /// Construct occurrences, in source order.
    pub sites: Vec<SiteFacts>,
    /// File-local diagnostics: the findings of every
    /// [`adsafe_checkers::CheckScope::File`] native, in registry order,
    /// then of every file-scoped bundled query rule, in pack order,
    /// written by the file's task before the record leaves it.
    /// Cross-file rule diagnostics and user-pack findings are *not*
    /// part of the record (nor of its cache entry): a run derives them
    /// from facts, or replays what a resident store memoised beside the
    /// record.
    pub diags: Vec<Diagnostic>,
}

/// A facts record in pipeline position: `(file, module, facts)`.
pub type FactsRecord<'a> = (FileId, &'a str, &'a FileFacts);

/// Extracts [`FileFacts`] (minus diagnostics) from a parsed file.
pub fn extract_facts(sm: &SourceMap, id: FileId, parsed: &ParsedFile) -> FileFacts {
    let file = sm.file(id);
    let globals = parsed
        .unit
        .global_vars()
        .iter()
        .map(|g| GlobalFacts {
            name: g.name.clone(),
            is_const: g.ty.is_const,
            is_extern: g.storage == Storage::Extern,
            start: g.span.start,
            end: g.span.end,
            ty: g.ty.display(),
        })
        .collect();
    let mut sites = Vec::new();
    let mut tries = 0;
    let functions = parsed
        .unit
        .functions()
        .into_iter()
        .enumerate()
        .map(|(i, f)| {
            let tested = condition_tested_names(f);
            tries += function_sites(f, i as u32, &tested, &mut sites);
            let syms = analyze_function(f);
            let mut seen = HashSet::new();
            let unresolved = syms
                .unresolved
                .iter()
                .filter(|u| seen.insert(u.name.clone()))
                .map(|u| (u.name.clone(), u.span.start, u.span.end))
                .collect();
            let cuda = adsafe_lang::cuda::profile_function(f);
            let named_ptrs: Vec<&str> = if f.sig.quals.cuda_global {
                f.sig
                    .params
                    .iter()
                    .filter(|p| p.ty.is_pointer_like())
                    .filter_map(|p| p.name.as_deref())
                    .collect()
            } else {
                Vec::new()
            };
            FunctionFacts {
                metrics: function_metrics(file, f),
                sig_start: f.sig.span.start,
                sig_end: f.sig.span.end,
                callees: callee_names(f).into_iter().map(str::to_string).collect(),
                unresolved,
                unit: adsafe_checkers::unit_design::function_unit_facts(f),
                is_kernel: f.sig.quals.cuda_global,
                ptr_params: f
                    .sig
                    .params
                    .iter()
                    .filter(|p| p.ty.is_pointer_like())
                    .count(),
                alloc_calls: cuda.alloc_calls(),
                unbalanced_alloc: cuda.unbalanced_alloc(),
                launches: cuda.kernel_launches,
                error_query: cuda
                    .api_calls
                    .iter()
                    .any(|c| c.kind == CudaApiKind::ErrorQuery),
                kernel_ptr_names: named_ptrs.join(", "),
                kernel_ptrs: named_ptrs.len(),
                variadic: f.sig.variadic,
                validation: validation_facts(f, &tested),
            }
        })
        .collect();
    for s in sites.iter_mut().filter(|s| s.kind == "throw") {
        s.count = tries;
    }
    decl_sites(&parsed.unit.decls, &mut sites);
    let octals = &parsed.unit.octal_literals;
    sites.extend(
        octals
            .iter()
            .map(|o| SiteFacts::new("octal", o.span, None, &o.lexeme, 0)),
    );
    // Macros are UPPER_SNAKE_CASE; an include guard ends in `_`.
    sites.extend(
        parsed
            .unit
            .macros
            .iter()
            .filter(|m| classify(&m.name) != NameCase::UpperSnake && !m.name.ends_with('_'))
            .map(|m| SiteFacts::new("misnamed-macro", m.span, None, &m.name, 0)),
    );
    sites.sort_by_key(|s| s.start);
    FileFacts {
        recovery_count: parsed.unit.recovery_count,
        loc: count_file(file),
        globals,
        functions,
        sites,
        diags: Vec::new(),
    }
}

/// Appends the sites in the body of `f`, function `index` of its file,
/// in one pre-order walk over its statements and expressions, and
/// returns how many `try` statements the body holds. `tested` holds the
/// names the function's conditions test.
fn function_sites(
    f: &FunctionDef,
    index: u32,
    tested: &HashSet<String>,
    out: &mut Vec<SiteFacts>,
) -> usize {
    struct Sites<'a, 'o> {
        function: Option<u32>,
        out: &'o mut Vec<SiteFacts>,
        /// Named pointer parameters no condition tests and no site
        /// dereferences yet.
        untested: HashSet<&'a str>,
        tries: usize,
    }
    impl Sites<'_, '_> {
        fn push(&mut self, kind: &'static str, at: Span, text: &str, count: usize) {
            self.out
                .push(SiteFacts::new(kind, at, self.function, text, count));
        }
        /// Records the first statement of `stmts` that follows an
        /// unconditional jump with no jump target in between. A label
        /// is a target; so are `case` and `default` in a `nested` block,
        /// but not at the top of a function body.
        fn unreachable(&mut self, stmts: &[Stmt], nested: bool) {
            let mut after_jump = false;
            for st in stmts {
                let target = match st.kind {
                    StmtKind::Label(..) => true,
                    StmtKind::Case(_) | StmtKind::Default => nested,
                    _ => false,
                };
                if after_jump && !target {
                    return self.push("unreachable", st.span, "", 0);
                }
                after_jump = matches!(
                    st.kind,
                    StmtKind::Return(_) | StmtKind::Break | StmtKind::Continue | StmtKind::Goto(_)
                );
            }
        }
    }
    impl<'ast> Visitor<'ast> for Sites<'_, '_> {
        fn visit_stmt(&mut self, s: &'ast Stmt) {
            match &s.kind {
                StmtKind::Goto(label) => self.push("goto", s.span, label, 0),
                StmtKind::Switch { body, .. } => {
                    let defaults = body
                        .stmts
                        .iter()
                        .filter(|s| matches!(s.kind, StmtKind::Default))
                        .count();
                    self.push("switch", s.span, "", defaults);
                }
                StmtKind::Decl(vars) if vars.len() > 1 => {
                    self.push("multi-decl", s.span, "", vars.len());
                }
                StmtKind::Block(b) => self.unreachable(&b.stmts, true),
                StmtKind::Expr(e) if matches!(e.kind, ExprKind::Call { .. }) => {
                    if let Some(name) = e.callee_name().filter(|n| MUST_CHECK_FNS.contains(n)) {
                        self.push("discarded-call", e.span, name, 0);
                    }
                }
                StmtKind::Try { .. } => self.tries += 1,
                _ => {}
            }
            walk_stmt(self, s);
        }
        fn visit_expr(&mut self, e: &'ast Expr) {
            match &e.kind {
                ExprKind::Binary {
                    op: BinOp::Comma, ..
                } => self.push("comma", e.span, "", 0),
                ExprKind::Binary {
                    op: BinOp::LogAnd | BinOp::LogOr,
                    rhs,
                    ..
                } if has_side_effect(rhs) => self.push("short-circuit", rhs.span, "", 0),
                ExprKind::Throw(_) => self.push("throw", e.span, "", 0),
                ExprKind::Call { .. } => {
                    if let Some(name) = e.callee_name().filter(|n| DYNAMIC_MEMORY_FNS.contains(n)) {
                        self.push("memory-api", e.span, name, 0);
                    }
                }
                ExprKind::New { ty, array, .. } => {
                    let kind = if array.is_some() { "new[]" } else { "new" };
                    self.push(kind, e.span, &ty.name, 0);
                }
                ExprKind::Delete { array, .. } => {
                    self.push(if *array { "delete[]" } else { "delete" }, e.span, "", 0);
                }
                ExprKind::Cast { kind, ty, .. } => {
                    let kind = match kind {
                        CastKind::CStyle => "c-style-cast",
                        CastKind::Static => "static_cast",
                        CastKind::Reinterpret => "reinterpret_cast",
                        CastKind::Const => "const_cast",
                        CastKind::Dynamic => "dynamic_cast",
                        CastKind::Functional => "functional-cast",
                    };
                    self.push(kind, e.span, &ty.display(), 0);
                }
                ExprKind::Unary {
                    op: UnOp::Deref,
                    expr: target,
                }
                | ExprKind::Index { base: target, .. }
                | ExprKind::Member {
                    base: target,
                    arrow: true,
                    ..
                } => {
                    if let ExprKind::Ident(n) = &target.kind {
                        if self.untested.remove(n.as_str()) {
                            self.push("unvalidated-deref", e.span, n, 0);
                        }
                    }
                }
                _ => {}
            }
            walk_expr(self, e);
        }
    }
    let untested = f
        .sig
        .params
        .iter()
        .filter(|p| p.ty.is_pointer_like())
        .filter_map(|p| p.name.as_deref())
        .filter(|n| !tested.contains(*n))
        .collect();
    let mut sites = Sites {
        function: Some(index),
        out,
        untested,
        tries: 0,
    };
    sites.unreachable(&f.body.stmts, false);
    walk_function(&mut sites, f);
    sites.tries
}

/// Whether evaluating `e` may have a side effect: an assignment,
/// increment, decrement, allocation or call (conservatively) anywhere in
/// it.
fn has_side_effect(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Assign { .. }
        | ExprKind::New { .. }
        | ExprKind::Delete { .. }
        | ExprKind::Call { .. }
        | ExprKind::KernelLaunch { .. } => true,
        ExprKind::Unary { op, .. } => matches!(
            op,
            UnOp::PreInc | UnOp::PreDec | UnOp::PostInc | UnOp::PostDec
        ),
        ExprKind::Binary { lhs, rhs, .. } => has_side_effect(lhs) || has_side_effect(rhs),
        ExprKind::Ternary {
            cond,
            then_expr,
            else_expr,
        } => has_side_effect(cond) || has_side_effect(then_expr) || has_side_effect(else_expr),
        ExprKind::Cast { expr, .. } => has_side_effect(expr),
        ExprKind::Index { base, index } => has_side_effect(base) || has_side_effect(index),
        ExprKind::Member { base, .. } => has_side_effect(base),
        _ => false,
    }
}

/// Appends a site for every union declared in `decls` or, recursively,
/// in a namespace among them, and for every named record, enum and
/// alias there that is not UpperCamelCase (a C-style `*_t` alias is
/// conventional).
fn decl_sites(decls: &[Decl], out: &mut Vec<SiteFacts>) {
    let misnamed = |name: &str| !name.is_empty() && classify(name) != NameCase::UpperCamel;
    for d in decls {
        match d {
            Decl::Record(r) => {
                if r.kind == RecordKind::Union {
                    out.push(SiteFacts::new("union", r.span, None, &r.name, 0));
                }
                if misnamed(&r.name) {
                    out.push(SiteFacts::new("misnamed-type", r.span, None, &r.name, 0));
                }
            }
            Decl::Enum(e) if misnamed(&e.name) => {
                out.push(SiteFacts::new("misnamed-enum", e.span, None, &e.name, 0));
            }
            Decl::Typedef(t) if misnamed(&t.name) && !t.name.ends_with("_t") => {
                out.push(SiteFacts::new("misnamed-alias", t.span, None, &t.name, 0));
            }
            Decl::Namespace(ns) => decl_sites(&ns.decls, out),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------
// Cross-file assemblies. Each mirrors one piece of the serial pipeline
// exactly; the invariants are pinned by tests against the originals.
// ---------------------------------------------------------------------

/// Replays the whole-program call graph from facts records. Node names
/// borrow the records' qualified names.
pub fn call_graph<'a>(records: &[FactsRecord<'a>]) -> CallGraph<'a> {
    CallGraph::from_functions(records.iter().flat_map(|&(_, _, facts)| {
        facts.functions.iter().map(|f| {
            (
                f.metrics.qualified_name.as_str(),
                f.callees.iter().map(String::as_str),
            )
        })
    }))
}

/// Cross-module call edges (`Evidence::coupling_edges`) over `graph`,
/// which [`call_graph`] built from these `records`. A qualified name
/// that two files define counts in the module of the last one.
pub fn coupling_edges(records: &[FactsRecord<'_>], graph: &CallGraph<'_>) -> usize {
    debug_assert_eq!(
        graph.def_nodes().len(),
        records
            .iter()
            .map(|(_, _, facts)| facts.functions.len())
            .sum::<usize>(),
        "graph must come from call_graph(records)"
    );
    let mut modules: Vec<&str> = Vec::new();
    let mut module_of = vec![0usize; graph.len()];
    let mut def_nodes = graph.def_nodes().iter();
    for &(_, module, facts) in records {
        let m = modules
            .iter()
            .position(|&x| x == module)
            .unwrap_or_else(|| {
                modules.push(module);
                modules.len() - 1
            });
        for &node in def_nodes.by_ref().take(facts.functions.len()) {
            module_of[node] = m;
        }
    }
    adsafe_metrics::coupling_edges(graph, &module_of)
}

/// All file-scope variable names across the program (unfiltered, as in
/// `adsafe_lang::symbols::global_names`).
pub fn global_names<'a>(records: &[FactsRecord<'a>]) -> HashSet<&'a str> {
    records
        .iter()
        .flat_map(|&(_, _, facts)| facts.globals.iter().map(|g| g.name.as_str()))
        .collect()
}

/// `design-global-use` diagnostics from facts — same order and content
/// as `GlobalUseCheck::run` over the whole-program context.
pub fn global_use_diags(records: &[FactsRecord<'_>], globals: &HashSet<&str>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (id, _, facts) in records {
        for f in &facts.functions {
            for (name, start, end) in &f.unresolved {
                if globals.contains(name.as_str()) {
                    out.push(
                        Diagnostic::new(
                            "design-global-use",
                            Severity::Info,
                            Span::new(*id, *start, *end),
                            format!("function accesses global `{name}`"),
                        )
                        .in_function(&f.metrics.qualified_name),
                    );
                }
            }
        }
    }
    out
}

/// Module metrics from facts — the same numbers (and the same
/// `metrics.module` span) as `adsafe_metrics::module_metrics` over the
/// parsed files, folded straight from the records.
pub fn module_metrics_from_facts(name: &str, files: &[&FileFacts]) -> ModuleMetrics {
    let _sp = adsafe_trace::span_with(
        "metrics.module",
        "metrics",
        vec![("module", name.to_string())],
    );
    let mut tally = ModuleTally::default();
    for facts in files {
        tally.file(&facts.loc, facts.globals.iter().map(|g| g.name.as_str()));
    }
    for f in files.iter().flat_map(|facts| &facts.functions) {
        tally.function(
            f.metrics.cyclomatic,
            f.metrics.param_count,
            f.unresolved.iter().map(|(n, _, _)| n.as_str()),
        );
    }
    tally.finish(name)
}

/// ISO 26262-6 Table 8 statistics from facts — same numbers as
/// `adsafe_checkers::unit_design_stats` over the whole-program context,
/// except `implicit_conversions`, which stays 0: the pipeline counts
/// the `typing-implicit-conversion` rule's diagnostics instead, as it
/// does for explicit casts. `recursive` is the sorted recursive-function
/// set ([`CallGraph::recursive_functions`]).
pub fn unit_stats_from_facts(records: &[FactsRecord<'_>], recursive: &[String]) -> UnitDesignStats {
    debug_assert!(
        recursive.windows(2).all(|w| w[0] < w[1]),
        "recursive set must be sorted"
    );
    let mut s = UnitDesignStats::default();
    for (_, _, facts) in records {
        s.opaque_regions += facts.recovery_count;
        s.global_definitions += facts
            .globals
            .iter()
            .filter(|g| !g.is_const && !g.is_extern)
            .count();
        for f in &facts.functions {
            s.function_count += 1;
            if f.metrics.multi_exit {
                s.multi_exit_functions += 1;
            }
            s.goto_count += f.metrics.goto_count;
            if recursive.binary_search(&f.metrics.qualified_name).is_ok() {
                s.recursive_functions += 1;
            }
            s.maybe_uninit_reads += f.unit.maybe_uninit_reads;
            s.shadowed_declarations += f.unit.shadowed_declarations;
            s.pointer_uses += f.unit.pointer_uses;
            s.dynamic_alloc_sites += f.unit.dynamic_alloc_sites;
            s.opaque_regions += f.unit.opaque_stmts;
        }
    }
    s
}

/// Fraction of functions validating at least one parameter — same value
/// as `adsafe_checkers::defensive::validation_ratio`.
pub fn validation_ratio_from_facts(records: &[FactsRecord<'_>]) -> f64 {
    let mut with_params = 0usize;
    let mut validating = 0usize;
    for (_, _, facts) in records {
        for f in &facts.functions {
            if !f.validation.has_named_params {
                continue;
            }
            with_params += 1;
            if f.validation.validates {
                validating += 1;
            }
        }
    }
    if with_params == 0 {
        1.0
    } else {
        validating as f64 / with_params as f64
    }
}

// ---------------------------------------------------------------------
// Serialisation (hand-written JSON, read back by a cursor that accepts
// only the writer's exact shape).
// ---------------------------------------------------------------------

/// The interned rule-id table: serialised diagnostics name their rule
/// by string, deserialisation maps it back to the `&'static str` the
/// live registry or the bundled pack uses. An unknown id means the
/// entry was written by an incompatible build → corrupt.
fn check_id_for(name: &str) -> Option<&'static str> {
    static IDS: OnceLock<HashMap<&'static str, &'static str>> = OnceLock::new();
    IDS.get_or_init(|| {
        crate::query::reserved_rule_ids()
            .into_iter()
            .map(|id| (id, id))
            .collect()
    })
    .get(name)
    .copied()
}

impl FileFacts {
    /// Serialises to the `adsafe-facts/6` JSON form. Diagnostic spans
    /// drop their [`FileId`] — [`from_json`](Self::from_json) binds them
    /// to the loading run's file.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        let _ = write!(out, "\"schema\":");
        write_escaped(&mut out, FACTS_SCHEMA);
        let _ = write!(
            out,
            ",\"recovery\":{},\"loc\":[{},{},{},{},{}]",
            self.recovery_count,
            self.loc.physical,
            self.loc.nloc,
            self.loc.comment,
            self.loc.blank,
            self.loc.directive
        );
        out.push_str(",\"globals\":[");
        for (i, g) in self.globals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            write_escaped(&mut out, &g.name);
            let _ = write!(
                out,
                ",{},{},{},{},",
                g.is_const, g.is_extern, g.start, g.end
            );
            write_escaped(&mut out, &g.ty);
            out.push(']');
        }
        out.push_str("],\"functions\":[");
        for (i, f) in self.functions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_function(&mut out, f);
        }
        out.push_str("],\"sites\":[");
        for (i, s) in self.sites.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(out, "{sep}[\"{}\",{},{},", s.kind, s.start, s.end);
            let _ = match s.function {
                Some(f) => write!(out, "{f},"),
                None => write!(out, "null,"),
            };
            write_escaped(&mut out, &s.text);
            let _ = write!(out, ",{}]", s.count);
        }
        out.push_str("],\"diags\":[");
        for (i, d) in self.diags.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            write_escaped(&mut out, d.check_id);
            out.push(',');
            write_escaped(&mut out, &d.severity.to_string());
            let _ = write!(out, ",{},{},", d.span.start, d.span.end);
            write_escaped(&mut out, &d.message);
            out.push(',');
            match &d.function {
                Some(f) => write_escaped(&mut out, f),
                None => out.push_str("null"),
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }

    /// Parses a record in exactly the shape [`to_json`](Self::to_json)
    /// writes, rebinding all spans to `file`. Any other byte string —
    /// inserted whitespace, reordered or duplicated keys, `1.0` for an
    /// integer, a non-canonical escape, trailing bytes — is an error,
    /// which the cache reports as a corrupt entry. Accepted input
    /// therefore re-encodes to the same bytes.
    pub fn from_json(text: &str, file: FileId) -> Result<FileFacts, String> {
        let mut r = Reader { src: text, pos: 0 };
        if r.then(r#"{"schema":"#, Reader::str)? != FACTS_SCHEMA {
            return Err("schema mismatch".to_string());
        }
        // Fields are read in writer order: a struct expression
        // evaluates its fields in the order they are written.
        let facts = FileFacts {
            recovery_count: r.then(r#","recovery":"#, Reader::int)?,
            loc: LocCounts {
                physical: r.then(r#","loc":["#, Reader::int)?,
                nloc: r.then(",", Reader::int)?,
                comment: r.then(",", Reader::int)?,
                blank: r.then(",", Reader::int)?,
                directive: r.then(",", Reader::int)?,
            },
            globals: r.then(r#"],"globals":"#, |r| r.list(&mut Vec::new(), read_global))?,
            functions: {
                let (mut names, mut unres) = (Vec::new(), Vec::new());
                r.then(r#","functions":"#, |r| {
                    r.list(&mut Vec::new(), |r| {
                        read_function(r, &mut names, &mut unres)
                    })
                })?
            },
            sites: r.then(r#","sites":"#, |r| r.list(&mut Vec::new(), read_site))?,
            diags: r.then(r#","diags":"#, |r| {
                r.list(&mut Vec::new(), |r| read_diag(r, file))
            })?,
        };
        let functions = facts.functions.len() as u32;
        if facts
            .sites
            .iter()
            .any(|s| s.function.is_some_and(|f| f >= functions))
        {
            return Err("a site names no function of the record".to_string());
        }
        r.lit("}")?;
        if r.pos != text.len() {
            return Err(format!("trailing bytes at byte {}", r.pos));
        }
        Ok(facts)
    }
}

fn write_function(out: &mut String, f: &FunctionFacts) {
    out.push('{');
    out.push_str("\"name\":");
    write_escaped(out, &f.metrics.name);
    out.push_str(",\"qual\":");
    write_escaped(out, &f.metrics.qualified_name);
    let _ = write!(
        out,
        ",\"cc\":{},\"nloc\":{},\"params\":{},\"nest\":{},\"returns\":{},\"multi\":{},\
         \"goto\":{},\"stmts\":{},\"gpu\":{},\"sig\":[{},{}]",
        f.metrics.cyclomatic,
        f.metrics.nloc,
        f.metrics.param_count,
        f.metrics.max_nesting,
        f.metrics.return_count,
        f.metrics.multi_exit,
        f.metrics.goto_count,
        f.metrics.stmt_count,
        f.metrics.is_gpu,
        f.sig_start,
        f.sig_end
    );
    out.push_str(",\"callees\":[");
    for (i, c) in f.callees.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(out, c);
    }
    out.push_str("],\"unres\":[");
    for (i, (n, s, e)) in f.unresolved.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        write_escaped(out, n);
        let _ = write!(out, ",{s},{e}]");
    }
    let _ = write!(
        out,
        "],\"uninit\":{},\"shadow\":{},\"ptr\":{},\"dyn\":{},\"opaque\":{},\
         \"kernel\":{},\"kptr\":{},\"alloc\":{},\"cuda\":[{},{},{},{},",
        f.unit.maybe_uninit_reads,
        f.unit.shadowed_declarations,
        f.unit.pointer_uses,
        f.unit.dynamic_alloc_sites,
        f.unit.opaque_stmts,
        f.is_kernel,
        f.ptr_params,
        f.alloc_calls,
        f.unbalanced_alloc,
        f.launches,
        f.error_query,
        f.kernel_ptrs,
    );
    write_escaped(out, &f.kernel_ptr_names);
    let _ = write!(
        out,
        "],\"vararg\":{},\"named\":{},\"validates\":{}}}",
        f.variadic, f.validation.has_named_params, f.validation.validates
    );
}

fn read_global(r: &mut Reader<'_>) -> Result<GlobalFacts, String> {
    let g = GlobalFacts {
        name: r.then("[", Reader::string)?,
        is_const: r.then(",", Reader::boolean)?,
        is_extern: r.then(",", Reader::boolean)?,
        start: r.then(",", Reader::int)?,
        end: r.then(",", Reader::int)?,
        ty: r.then(",", Reader::string)?,
    };
    if g.start > g.end {
        return Err("inverted global span".to_string());
    }
    r.lit("]")?;
    Ok(g)
}

/// Reads one [`write_function`] object. `names` and `unres` are scratch
/// buffers shared by every function of the record.
fn read_function(
    r: &mut Reader<'_>,
    names: &mut Vec<String>,
    unres: &mut Vec<(String, u32, u32)>,
) -> Result<FunctionFacts, String> {
    let metrics = FunctionMetrics {
        name: r.then(r#"{"name":"#, Reader::string)?,
        qualified_name: r.then(r#","qual":"#, Reader::string)?,
        cyclomatic: r.then(r#","cc":"#, Reader::int)?,
        nloc: r.then(r#","nloc":"#, Reader::int)?,
        param_count: r.then(r#","params":"#, Reader::int)?,
        max_nesting: r.then(r#","nest":"#, Reader::int)?,
        return_count: r.then(r#","returns":"#, Reader::int)?,
        multi_exit: r.then(r#","multi":"#, Reader::boolean)?,
        goto_count: r.then(r#","goto":"#, Reader::int)?,
        stmt_count: r.then(r#","stmts":"#, Reader::int)?,
        is_gpu: r.then(r#","gpu":"#, Reader::boolean)?,
    };
    let (sig_start, sig_end) = r.span(r#","sig":["#)?;
    let f = FunctionFacts {
        metrics,
        sig_start,
        sig_end,
        callees: r.then(r#"],"callees":"#, |r| r.list(names, Reader::string))?,
        unresolved: r.then(r#","unres":"#, |r| {
            r.list(unres, |r| {
                let name = r.then("[", Reader::string)?;
                let (start, end) = r.span(",")?;
                r.lit("]")?;
                Ok((name, start, end))
            })
        })?,
        unit: FunctionUnitFacts {
            maybe_uninit_reads: r.then(r#","uninit":"#, Reader::int)?,
            shadowed_declarations: r.then(r#","shadow":"#, Reader::int)?,
            pointer_uses: r.then(r#","ptr":"#, Reader::int)?,
            dynamic_alloc_sites: r.then(r#","dyn":"#, Reader::int)?,
            opaque_stmts: r.then(r#","opaque":"#, Reader::int)?,
        },
        is_kernel: r.then(r#","kernel":"#, Reader::boolean)?,
        ptr_params: r.then(r#","kptr":"#, Reader::int)?,
        alloc_calls: r.then(r#","alloc":"#, Reader::int)?,
        // The per-function CUDA facts ride in one array: most functions
        // have none, and keys would cost more than the values.
        unbalanced_alloc: r.then(r#","cuda":["#, Reader::boolean)?,
        launches: r.then(",", Reader::int)?,
        error_query: r.then(",", Reader::boolean)?,
        kernel_ptrs: r.then(",", Reader::int)?,
        kernel_ptr_names: r.then(",", Reader::string)?,
        variadic: r.then(r#"],"vararg":"#, Reader::boolean)?,
        validation: ValidationFacts {
            has_named_params: r.then(r#","named":"#, Reader::boolean)?,
            validates: r.then(r#","validates":"#, Reader::boolean)?,
        },
    };
    r.lit("}")?;
    Ok(f)
}

fn read_site(r: &mut Reader<'_>) -> Result<SiteFacts, String> {
    let kind = r.then("[", Reader::str)?;
    let kind = SITE_KINDS
        .into_iter()
        .find(|k| *k == kind)
        .ok_or("unknown site kind")?;
    let (start, end) = r.span(",")?;
    let function = if r.eat(",null") {
        None
    } else {
        Some(r.then(",", Reader::int)?)
    };
    let (text, count) = (r.then(",", Reader::string)?, r.then(",", Reader::int)?);
    r.lit("]")?;
    Ok(SiteFacts {
        kind,
        start,
        end,
        function,
        text,
        count,
    })
}

fn read_diag(r: &mut Reader<'_>, file: FileId) -> Result<Diagnostic, String> {
    let id = r.then("[", Reader::str)?;
    let check_id = check_id_for(&id).ok_or_else(|| format!("unknown check id `{id}`"))?;
    let severity = match &*r.then(",", Reader::str)? {
        "info" => Severity::Info,
        "warning" => Severity::Warning,
        "violation" => Severity::Violation,
        _ => return Err("bad severity".to_string()),
    };
    let (start, end) = r.span(",")?;
    let span = Span::new(file, start, end);
    let message = r.then(",", Reader::string)?;
    r.lit(",")?;
    let function = if r.eat("null") {
        None
    } else {
        Some(r.string()?)
    };
    r.lit("]")?;
    Ok(Diagnostic {
        check_id,
        severity,
        span,
        message,
        function,
    })
}

/// A cursor over one serialised record. It accepts only the bytes the
/// writer produces: no whitespace, unsigned decimal integers without
/// leading zeros, and strings escaped exactly as [`write_escaped`] does.
struct Reader<'a> {
    src: &'a str,
    pos: usize,
}

impl<'a> Reader<'a> {
    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes());
        if hit {
            self.pos += lit.len();
        }
        hit
    }

    fn lit(&mut self, lit: &str) -> Result<(), String> {
        if self.eat(lit) {
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.pos))
        }
    }

    /// Expects `lit`, then reads the value that follows it.
    fn then<T>(
        &mut self,
        lit: &str,
        read: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        self.lit(lit)?;
        read(self)
    }

    /// Reads `[item,item,…]` into a vector of exactly its length: a
    /// decoded record may stay resident in a facts store, charged at
    /// its encoded length, so it carries no growth slack. `scratch`
    /// absorbs the growth instead and can be reused.
    fn list<T>(
        &mut self,
        scratch: &mut Vec<T>,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.lit("[")?;
        scratch.clear();
        if !self.eat("]") {
            loop {
                scratch.push(item(self)?);
                if self.eat("]") {
                    break;
                }
                self.lit(",")?;
            }
        }
        let mut out = Vec::with_capacity(scratch.len());
        out.append(scratch);
        Ok(out)
    }

    /// Expects `lit`, then reads `start,end` with `start <= end`.
    fn span(&mut self, lit: &str) -> Result<(u32, u32), String> {
        let at = self.pos;
        let (start, end) = (self.then(lit, Reader::int)?, self.then(",", Reader::int)?);
        if start > end {
            return Err(format!("inverted span at byte {at}"));
        }
        Ok((start, end))
    }

    fn boolean(&mut self) -> Result<bool, String> {
        if self.eat("true") {
            Ok(true)
        } else if self.eat("false") {
            Ok(false)
        } else {
            Err(format!("expected bool at byte {}", self.pos))
        }
    }

    /// An unsigned decimal integer, parsed exactly into the caller's
    /// type; overflow is an error, not a rounding.
    fn int<T: TryFrom<u64>>(&mut self) -> Result<T, String> {
        let start = self.pos;
        let digits = self.src.as_bytes()[start..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        let text = &self.src[start..start + digits];
        if digits == 0 || (digits > 1 && text.starts_with('0')) {
            return Err(format!("expected integer at byte {start}"));
        }
        self.pos += digits;
        text.bytes()
            .try_fold(0u64, |n, d| {
                n.checked_mul(10)?.checked_add(u64::from(d - b'0'))
            })
            .and_then(|n| T::try_from(n).ok())
            .ok_or_else(|| format!("integer out of range at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.str().map(Cow::into_owned)
    }

    /// A string value: borrowed from the input when it holds no escape
    /// (the common case), unescaped into an exactly sized copy
    /// otherwise.
    fn str(&mut self) -> Result<Cow<'a, str>, String> {
        let b = self.src.as_bytes();
        let open = self.pos;
        if b.get(open) != Some(&b'"') {
            return Err(format!("expected string at byte {open}"));
        }
        let mut out = String::new();
        let (mut run, mut i) = (open + 1, open + 1);
        loop {
            match b.get(i) {
                Some(b'"') => break,
                Some(b'\\') => {
                    out.push_str(&self.src[run..i]);
                    let (c, len) =
                        unescape(&b[i..]).ok_or_else(|| format!("bad escape at byte {i}"))?;
                    out.push(c);
                    i += len;
                    run = i;
                }
                Some(&c) if c >= 0x20 => i += 1,
                _ => return Err(format!("unterminated string at byte {open}")),
            }
        }
        self.pos = i + 1;
        if run == open + 1 {
            return Ok(Cow::Borrowed(&self.src[run..i]));
        }
        out.push_str(&self.src[run..i]);
        out.shrink_to_fit();
        Ok(Cow::Owned(out))
    }
}

/// Decodes the escape at the start of `b` if it is one [`write_escaped`]
/// emits — `\"`, `\\`, `\n`, `\r`, `\t`, or `\u00xx` (lower-case hex)
/// for any other control character — with its length in bytes.
fn unescape(b: &[u8]) -> Option<(char, usize)> {
    let hex = |d: &u8| match d {
        b'0'..=b'9' => Some(d - b'0'),
        b'a'..=b'f' => Some(d - b'a' + 10),
        _ => None,
    };
    let c = match *b.get(1)? {
        b'"' => '"',
        b'\\' => '\\',
        b'n' => '\n',
        b'r' => '\r',
        b't' => '\t',
        b'u' if b.get(2..4)? == b"00" => {
            let c = char::from(hex(b.get(4)?)? * 16 + hex(b.get(5)?)?);
            let canonical = c < ' ' && !matches!(c, '\n' | '\r' | '\t');
            return canonical.then_some((c, 6));
        }
        _ => return None,
    };
    Some((c, 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsafe_checkers::{default_checks, AnalysisSet, Check, CheckContext, CheckScope};

    /// The tree decoder [`FileFacts::from_json`] replaced, kept as the
    /// differential reference: it parses a generic [`Json`] tree, then
    /// copies the fields out by key, so it tolerates whitespace, any key
    /// order, duplicate keys and integral floats.
    mod reference {
        use super::super::*;
        use adsafe_trace::json::Json;

        pub(super) fn from_json(text: &str, file: FileId) -> Result<FileFacts, String> {
            let v = Json::parse(text)?;
            if v.get("schema").and_then(Json::as_str) != Some(FACTS_SCHEMA) {
                return Err("schema mismatch".to_string());
            }
            let loc_arr = req_arr(&v, "loc")?;
            if loc_arr.len() != 5 {
                return Err("loc arity".to_string());
            }
            let loc = LocCounts {
                physical: as_usize(&loc_arr[0])?,
                nloc: as_usize(&loc_arr[1])?,
                comment: as_usize(&loc_arr[2])?,
                blank: as_usize(&loc_arr[3])?,
                directive: as_usize(&loc_arr[4])?,
            };
            let globals = read_all(req_arr(&v, "globals")?, |g| {
                let t = g.as_arr().ok_or("global not an array")?;
                if t.len() != 6 {
                    return Err("global arity".to_string());
                }
                let (start, end) = (as_u32(&t[3])?, as_u32(&t[4])?);
                if start > end {
                    return Err("inverted global span".to_string());
                }
                Ok(GlobalFacts {
                    name: req_str_v(&t[0])?,
                    is_const: as_bool(&t[1])?,
                    is_extern: as_bool(&t[2])?,
                    start,
                    end,
                    ty: req_str_v(&t[5])?,
                })
            })?;
            let functions = read_all(req_arr(&v, "functions")?, read_function)?;
            let sites = read_all(req_arr(&v, "sites")?, |s| {
                let t = s.as_arr().ok_or("site not an array")?;
                if t.len() != 6 {
                    return Err("site arity".to_string());
                }
                let kind = req_str_v(&t[0])?;
                let kind = SITE_KINDS
                    .into_iter()
                    .find(|k| *k == kind)
                    .ok_or("unknown site kind")?;
                let function = match &t[3] {
                    Json::Null => None,
                    n => Some(as_u32(n)?),
                };
                Ok(SiteFacts {
                    kind,
                    start: as_u32(&t[1])?,
                    end: as_u32(&t[2])?,
                    function,
                    text: req_str_v(&t[4])?,
                    count: as_usize(&t[5])?,
                })
            })?;
            let diags = read_all(req_arr(&v, "diags")?, |d| {
                let t = d.as_arr().ok_or("diag not an array")?;
                if t.len() != 6 {
                    return Err("diag arity".to_string());
                }
                let id_name = req_str_v(&t[0])?;
                let check_id = check_id_for(&id_name)
                    .ok_or_else(|| format!("unknown check id `{id_name}`"))?;
                let severity = match t[1].as_str() {
                    Some("info") => Severity::Info,
                    Some("warning") => Severity::Warning,
                    Some("violation") => Severity::Violation,
                    _ => return Err("bad severity".to_string()),
                };
                let span = Span::new(file, as_u32(&t[2])?, as_u32(&t[3])?);
                let mut diag = Diagnostic::new(check_id, severity, span, req_str_v(&t[4])?);
                match &t[5] {
                    Json::Null => {}
                    Json::Str(s) => diag = diag.in_function(s),
                    _ => return Err("bad diag function".to_string()),
                }
                Ok(diag)
            })?;
            Ok(FileFacts {
                recovery_count: req_usize(&v, "recovery")?,
                loc,
                globals,
                functions,
                sites,
                diags,
            })
        }

        fn read_function(v: &Json) -> Result<FunctionFacts, String> {
            let sig = req_arr(v, "sig")?;
            if sig.len() != 2 {
                return Err("sig arity".to_string());
            }
            let callees = read_all(req_arr(v, "callees")?, req_str_v)?;
            let cuda = req_arr(v, "cuda")?;
            if cuda.len() != 5 {
                return Err("cuda arity".to_string());
            }
            let unresolved = read_all(req_arr(v, "unres")?, |u| {
                let t = u.as_arr().ok_or("unres not an array")?;
                if t.len() != 3 {
                    return Err("unres arity".to_string());
                }
                Ok((req_str_v(&t[0])?, as_u32(&t[1])?, as_u32(&t[2])?))
            })?;
            Ok(FunctionFacts {
                metrics: FunctionMetrics {
                    name: req_str(v, "name")?,
                    qualified_name: req_str(v, "qual")?,
                    cyclomatic: req_u32(v, "cc")?,
                    nloc: req_usize(v, "nloc")?,
                    param_count: req_usize(v, "params")?,
                    max_nesting: req_usize(v, "nest")?,
                    return_count: req_usize(v, "returns")?,
                    multi_exit: req_bool(v, "multi")?,
                    goto_count: req_usize(v, "goto")?,
                    stmt_count: req_usize(v, "stmts")?,
                    is_gpu: req_bool(v, "gpu")?,
                },
                sig_start: as_u32(&sig[0])?,
                sig_end: as_u32(&sig[1])?,
                callees,
                unresolved,
                unit: FunctionUnitFacts {
                    maybe_uninit_reads: req_usize(v, "uninit")?,
                    shadowed_declarations: req_usize(v, "shadow")?,
                    pointer_uses: req_usize(v, "ptr")?,
                    dynamic_alloc_sites: req_usize(v, "dyn")?,
                    opaque_stmts: req_usize(v, "opaque")?,
                },
                is_kernel: req_bool(v, "kernel")?,
                ptr_params: req_usize(v, "kptr")?,
                alloc_calls: req_usize(v, "alloc")?,
                unbalanced_alloc: as_bool(&cuda[0])?,
                launches: as_usize(&cuda[1])?,
                error_query: as_bool(&cuda[2])?,
                kernel_ptrs: as_usize(&cuda[3])?,
                kernel_ptr_names: req_str_v(&cuda[4])?,
                variadic: req_bool(v, "vararg")?,
                validation: ValidationFacts {
                    has_named_params: req_bool(v, "named")?,
                    validates: req_bool(v, "validates")?,
                },
            })
        }

        fn read_all<T>(
            arr: &[Json],
            read: impl Fn(&Json) -> Result<T, String>,
        ) -> Result<Vec<T>, String> {
            let mut out = Vec::with_capacity(arr.len());
            for v in arr {
                out.push(read(v)?);
            }
            Ok(out)
        }

        fn req_arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
            v.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("missing array `{key}`"))
        }

        fn req_str(v: &Json, key: &str) -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string `{key}`"))
        }

        fn req_str_v(v: &Json) -> Result<String, String> {
            v.as_str()
                .map(str::to_string)
                .ok_or_else(|| "expected string".to_string())
        }

        fn req_usize(v: &Json, key: &str) -> Result<usize, String> {
            v.get(key)
                .ok_or_else(|| format!("missing number `{key}`"))
                .and_then(as_usize)
        }

        fn req_u32(v: &Json, key: &str) -> Result<u32, String> {
            v.get(key)
                .ok_or_else(|| format!("missing number `{key}`"))
                .and_then(as_u32)
        }

        fn req_bool(v: &Json, key: &str) -> Result<bool, String> {
            match v.get(key) {
                Some(Json::Bool(b)) => Ok(*b),
                _ => Err(format!("missing bool `{key}`")),
            }
        }

        fn as_bool(v: &Json) -> Result<bool, String> {
            match v {
                Json::Bool(b) => Ok(*b),
                _ => Err("expected bool".to_string()),
            }
        }

        fn as_usize(v: &Json) -> Result<usize, String> {
            let n = v.as_f64().ok_or("expected number")?;
            if n < 0.0 || n.fract() != 0.0 || n > u64::MAX as f64 {
                return Err("expected non-negative integer".to_string());
            }
            Ok(n as usize)
        }

        fn as_u32(v: &Json) -> Result<u32, String> {
            let n = as_usize(v)?;
            u32::try_from(n).map_err(|_| "integer out of range".to_string())
        }
    }

    const SRC_A: &str = "int g_total;\n\
        int rec(int n) { if (n <= 0) return 0; return rec(n - 1); }\n\
        int use_g(int* p) { if (p) { g_total += *p; } return g_total; }\n";
    const SRC_B: &str = "const int kMax = 9;\n\
        __global__ void scale(float* d, int n) { d[0] = (float)n; }\n\
        void driver(int x) { int u; int y = u + x; { int y = 2; (void)y; } }\n\
        void narrow(double d) { int k = d; (void)k; }\n\
        union Bits { int i; float f; };\n\
        void jump(int x) { int a = 1, b = 010; switch (x) { case 1: goto out; } a = 2, b = 3; out: return; }\n\
        int guard(int* p, int n) { if (n && n++) throw n; cudaFree(p); return *p; n = 0; }\n\
        #define badMacro 1\n\
        struct raw_buf { int n; }; typedef int count_t; typedef raw_buf buf_alias;\n\
        void mem() { int* p = new int[2]; delete[] p; p = static_cast<int*>(malloc(4)); }\n";

    fn corpus() -> AnalysisSet {
        let mut set = AnalysisSet::new();
        set.add("control", "control/a.cc", SRC_A);
        set.add("control", "control/b.cu", SRC_B);
        set
    }

    fn facts_of(set: &AnalysisSet) -> Vec<(FileId, String, FileFacts)> {
        set.parsed()
            .map(|(id, module, parsed)| {
                (*id, module.to_string(), extract_facts(&set.sm, *id, parsed))
            })
            .collect()
    }

    fn records(facts: &[(FileId, String, FileFacts)]) -> Vec<FactsRecord<'_>> {
        facts
            .iter()
            .map(|(id, m, f)| (*id, m.as_str(), f))
            .collect()
    }

    #[test]
    fn graph_and_globals_replay_the_serial_path() {
        let set = corpus();
        let cx = set.context();
        let facts = facts_of(&set);
        let recs = records(&facts);
        let g = call_graph(&recs);
        assert_eq!(g.names(), cx.graph.names());
        assert_eq!(g.recursive_functions(), cx.graph.recursive_functions());
        for n in cx.graph.names() {
            assert_eq!(g.callees(n), cx.graph.callees(n), "callees of {n}");
        }
        let expected: HashSet<&str> = cx.global_names.iter().map(String::as_str).collect();
        assert_eq!(global_names(&recs), expected);
    }

    #[test]
    fn program_scoped_diags_replay_the_rules() {
        let set = corpus();
        let cx = set.context();
        let facts = facts_of(&set);
        let recs = records(&facts);
        let globals = global_names(&recs);
        for check in default_checks() {
            if check.scope() != CheckScope::Program {
                continue;
            }
            let expected = check.run(&cx);
            let got = match check.id() {
                "design-global-use" => global_use_diags(&recs, &globals),
                other => panic!("unexpected program-scoped rule {other}"),
            };
            assert_eq!(got, expected, "rule {}", check.id());
        }
    }

    /// Each construct occurrence is one site, in source order, with its
    /// enclosing function, text and count; a site naming a function the
    /// record lacks makes the record corrupt.
    #[test]
    fn sites_record_each_occurrence_in_source_order() {
        let set = corpus();
        let facts = facts_of(&set);
        let b = &facts[1].2;
        let got: Vec<(&str, Option<&str>, &str, usize)> = b
            .sites
            .iter()
            .map(|s| {
                let f = s
                    .function
                    .map(|i| b.functions[i as usize].metrics.name.as_str());
                (s.kind, f, s.text.as_str(), s.count)
            })
            .collect();
        assert_eq!(
            got,
            [
                ("unvalidated-deref", Some("scale"), "d", 0),
                ("c-style-cast", Some("scale"), "float", 0),
                ("c-style-cast", Some("driver"), "void", 0),
                ("c-style-cast", Some("narrow"), "void", 0),
                ("union", None, "Bits", 0),
                ("multi-decl", Some("jump"), "", 2),
                ("octal", None, "010", 0),
                ("switch", Some("jump"), "", 0),
                ("goto", Some("jump"), "out", 0),
                ("comma", Some("jump"), "", 0),
                ("short-circuit", Some("guard"), "", 0),
                ("throw", Some("guard"), "", 0),
                ("discarded-call", Some("guard"), "cudaFree", 0),
                ("memory-api", Some("guard"), "cudaFree", 0),
                ("unvalidated-deref", Some("guard"), "p", 0),
                ("unreachable", Some("guard"), "", 0),
                ("misnamed-macro", None, "badMacro", 0),
                ("misnamed-type", None, "raw_buf", 0),
                ("misnamed-alias", None, "buf_alias", 0),
                ("new[]", Some("mem"), "int", 0),
                ("delete[]", Some("mem"), "", 0),
                ("static_cast", Some("mem"), "int*", 0),
                ("memory-api", Some("mem"), "malloc", 0),
            ]
        );
        let orphan = FileFacts {
            sites: vec![SiteFacts {
                function: Some(0),
                ..b.sites[1].clone()
            }],
            ..FileFacts::default()
        };
        assert!(FileFacts::from_json(&orphan.to_json(), FileId(0)).is_err());
    }

    #[test]
    fn module_metrics_match_the_parse_based_path() {
        let set = corpus();
        let cx = set.context();
        let facts = facts_of(&set);
        let pairs: Vec<_> = cx.entries.iter().map(|e| (e.file, e.unit)).collect();
        let legacy = adsafe_metrics::module_metrics("control", &pairs);
        let files: Vec<&FileFacts> = facts.iter().map(|(_, _, f)| f).collect();
        let from_facts = module_metrics_from_facts("control", &files);
        assert_eq!(format!("{legacy:?}"), format!("{from_facts:?}"));
    }

    /// A parameter or local that shadows a module global is not an
    /// access to it: `f1` touches only `h` and `f2` only `g`, so they
    /// share nothing — on the facts path and the AST reference alike.
    #[test]
    fn shadowing_bindings_do_not_count_toward_cohesion() {
        let mut set = AnalysisSet::new();
        set.add(
            "m",
            "m/a.cc",
            "int g; int h;\n\
             void f1(int g) { g = 1; h = g; }\n\
             void f2() { int h = 0; g = h; }\n",
        );
        let cx = set.context();
        let pairs: Vec<_> = cx.entries.iter().map(|e| (e.file, e.unit)).collect();
        assert_eq!(adsafe_metrics::module_metrics("m", &pairs).cohesion, 0.0);
        let facts = facts_of(&set);
        let files: Vec<&FileFacts> = facts.iter().map(|(_, _, f)| f).collect();
        assert_eq!(module_metrics_from_facts("m", &files).cohesion, 0.0);
    }

    #[test]
    fn unit_stats_and_validation_match() {
        let set = corpus();
        let cx = set.context();
        let facts = facts_of(&set);
        let recs = records(&facts);
        let reference = adsafe_checkers::unit_design_stats(&cx);
        assert_eq!(
            UnitDesignStats {
                implicit_conversions: reference.implicit_conversions,
                ..unit_stats_from_facts(&recs, &cx.graph.recursive_functions())
            },
            reference
        );
        // The pipeline counts the rule's own findings instead.
        let findings = adsafe_checkers::typing::ImplicitConversionCheck.run(&cx);
        assert_eq!((reference.implicit_conversions, findings.len()), (1, 1));
        let legacy = adsafe_checkers::defensive::validation_ratio(&cx);
        let got = validation_ratio_from_facts(&recs);
        assert!((legacy - got).abs() < 1e-15, "{legacy} vs {got}");
    }

    /// `set`'s records with every file-local rule's real diagnostics
    /// attached — the natives', then the bundled file-scoped queries' —
    /// encoded.
    fn entries_with_diags(set: &AnalysisSet) -> Vec<(FileId, FileFacts, String)> {
        let cx = set.context();
        let queries = crate::query::QueryPass::new(
            crate::query::bundled_rules()
                .rules
                .iter()
                .filter(|r| r.scope == CheckScope::File)
                .collect(),
        );
        facts_of(set)
            .into_iter()
            .enumerate()
            .map(|(i, (id, module, mut facts))| {
                let entry = cx.entries[i];
                for check in default_checks() {
                    if check.scope() == CheckScope::File {
                        facts
                            .diags
                            .extend(check.run(&CheckContext::file_local(&set.sm, entry)));
                    }
                }
                let found: Vec<Diagnostic> = queries
                    .eval_file(id, &module, &facts, &[])
                    .into_iter()
                    .flat_map(|outcome| outcome.expect("no rule panics").0)
                    .collect();
                facts.diags.extend(found);
                let json = facts.to_json();
                (id, facts, json)
            })
            .collect()
    }

    fn sample_entries() -> Vec<(FileId, FileFacts, String)> {
        entries_with_diags(&corpus())
    }

    #[test]
    fn json_round_trip_is_lossless() {
        for (id, facts, json) in sample_entries() {
            assert!(!facts.diags.is_empty());
            let back = FileFacts::from_json(&json, id).expect("round trip parses");
            assert_eq!(back, facts);
            assert_eq!(back.to_json(), json);
        }
    }

    /// Every vector and string of a decoded record is exactly sized:
    /// the resident store charges a record its encoded length.
    #[test]
    fn decoded_records_carry_no_growth_slack() {
        let mut facts = FileFacts::default();
        facts.globals.push(GlobalFacts {
            name: "tab\there \"q\" \u{1}".into(),
            is_const: false,
            is_extern: true,
            start: 3,
            end: 9,
            ty: "const char\t*".into(),
        });
        for (_, f, _) in sample_entries() {
            let base = facts.functions.len() as u32;
            facts.sites.extend(f.sites.into_iter().map(|mut s| {
                s.function = s.function.map(|i| i + base);
                s
            }));
            facts.functions.extend(f.functions);
            facts.diags.extend(f.diags.into_iter().map(|mut d| {
                d.span.file = FileId(0);
                d
            }));
        }
        let back = FileFacts::from_json(&facts.to_json(), FileId(0)).unwrap();
        assert_eq!(back, facts);
        assert_eq!(back.globals.capacity(), back.globals.len());
        assert_eq!(back.globals[0].name.capacity(), back.globals[0].name.len());
        assert_eq!(back.globals[0].ty.capacity(), back.globals[0].ty.len());
        assert_eq!(back.functions.capacity(), back.functions.len());
        assert_eq!(back.diags.capacity(), back.diags.len());
        assert!(!back.sites.is_empty());
        assert_eq!(back.sites.capacity(), back.sites.len());
        for site in &back.sites {
            assert_eq!(site.text.capacity(), site.text.len());
        }
        for f in &back.functions {
            assert_eq!(f.callees.capacity(), f.callees.len());
            assert_eq!(f.unresolved.capacity(), f.unresolved.len());
            assert_eq!(f.metrics.name.capacity(), f.metrics.name.len());
            assert_eq!(f.kernel_ptr_names.capacity(), f.kernel_ptr_names.len());
        }
        for d in &back.diags {
            assert_eq!(d.message.capacity(), d.message.len());
        }
    }

    #[test]
    fn corrupt_records_are_rejected_not_panicked() {
        let set = corpus();
        let (id, _, facts) = &facts_of(&set)[0];
        let good = facts.to_json();
        for bad in [
            "",
            "{",
            "{}",
            "null",
            r#"{"schema":"other/9"}"#,
            &good.replace("\"recovery\"", "\"recoverz\""),
            &good.replace(FACTS_SCHEMA, "adsafe-facts/0"),
            &good.replace(r#""recovery":0"#, r#""recovery":99999999999999999999"#),
            &good.replace(r#""sig":["#, r#""sig":[4294967296"#),
        ] {
            assert!(
                FileFacts::from_json(bad, *id).is_err(),
                "accepted: {bad:.40}"
            );
        }
        // Shapes the tree decoder accepted but the writer never produces:
        // each is now a corrupt entry, re-analysed instead of trusted.
        let (head, body) = good.split_at(1);
        let unclosed = &good[..good.len() - 1];
        for bad in [
            format!("{head} {body}"),
            good.replace(',', ", "),
            format!("{good}\n"),
            format!(
                r#"{},"recovery":0}}"#,
                unclosed.replacen(r#","recovery":0"#, "", 1)
            ),
            good.replacen(r#""recovery":0"#, r#""recovery":1.0"#, 1),
            good.replacen(r#""recovery":0"#, r#""recovery":00"#, 1),
            good.replacen(r#""recovery":0"#, r#""recovery":0,"recovery":0"#, 1),
            good.replacen("adsafe-facts/7", r"adsafe-facts\/7", 1),
            good.replacen(r#"{"name":"rec""#, r#"{"name":"\u0072ec""#, 1),
        ] {
            assert!(
                reference::from_json(&bad, *id).is_ok(),
                "reference rejected: {bad:.60}"
            );
            assert!(
                FileFacts::from_json(&bad, *id).is_err(),
                "accepted: {bad:.60}"
            );
        }
        // Unknown rule id → corrupt, not a bogus static str.
        let mut with_diag = facts.clone();
        with_diag.diags.push(Diagnostic::new(
            "misra-15.1-goto",
            Severity::Violation,
            Span::new(*id, 0, 1),
            "x",
        ));
        let tampered = with_diag.to_json().replace("misra-15.1-goto", "not-a-rule");
        assert!(FileFacts::from_json(&tampered, *id).is_err());
    }

    /// Asserts the cursor decoder and the tree reference decode `entry`
    /// to equal records, and that the record re-encodes to `entry`.
    fn assert_decoders_agree(entry: &str) {
        let new =
            FileFacts::from_json(entry, FileId(3)).unwrap_or_else(|e| panic!("{e}: {entry:.80}"));
        assert_eq!(reference::from_json(entry, FileId(3)).as_ref(), Ok(&new));
        assert_eq!(new.to_json(), entry);
    }

    /// The entries an assessment writes to its disk cache for the files
    /// `add` registers.
    fn cache_entries(tag: &str, add: impl FnOnce(&mut crate::Assessment)) -> Vec<String> {
        let dir =
            std::env::temp_dir().join(format!("adsafe-facts-entries-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut a = crate::Assessment::new().with_options(crate::AssessmentOptions {
            cache_dir: Some(dir.clone()),
            ..crate::AssessmentOptions::default()
        });
        add(&mut a);
        a.run();
        let mut entries: Vec<String> = std::fs::read_dir(&dir)
            .expect("cache dir written")
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "json") && !p.ends_with("meta.json"))
            .map(|p| std::fs::read_to_string(p).expect("entry readable"))
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        entries.sort();
        entries
    }

    /// Cache entries for the generated test-scale corpus, written once.
    fn generated_entries() -> &'static [String] {
        static ENTRIES: OnceLock<Vec<String>> = OnceLock::new();
        ENTRIES.get_or_init(|| {
            let files = adsafe_corpus::generate(&adsafe_corpus::ApolloSpec::test_scale());
            cache_entries("generated", |a| {
                for f in &files {
                    a.add_file(&f.module, &f.path, &f.text);
                }
            })
        })
    }

    #[test]
    fn decoder_matches_the_reference_on_generated_cache_entries() {
        let entries = generated_entries();
        assert!(entries.len() > 4, "{} entries", entries.len());
        assert!(entries.iter().any(|e| !e.ends_with(r#""diags":[]}"#)));
        for entry in entries {
            assert_decoders_agree(entry);
        }
    }

    /// Fault-injected files mostly parse degraded, and the pipeline
    /// caches only clean parses, so their records are built here:
    /// resync-parsed facts with every file-local rule's findings.
    #[test]
    fn decoder_matches_the_reference_on_fault_injected_records() {
        use adsafe_corpus::faultinject::{corrupt, Corruption};
        let files = adsafe_corpus::generate(&adsafe_corpus::ApolloSpec::test_scale());
        let mut resynced = 0;
        for kind in Corruption::ALL {
            let mut set = AnalysisSet::new();
            for f in files.iter().take(6) {
                let bytes = corrupt(7, kind, &f.path, &f.text);
                set.add(&f.module, &f.path, &String::from_utf8_lossy(&bytes));
            }
            let entries = entries_with_diags(&set);
            assert!(
                entries.iter().any(|(_, f, _)| !f.diags.is_empty()),
                "{}: no file-local diagnostics",
                kind.name()
            );
            for (_, facts, entry) in &entries {
                resynced += usize::from(facts.recovery_count > 0);
                assert_decoders_agree(entry);
            }
        }
        assert!(resynced > 0, "no record carries recovery regions");
    }

    /// Every strict prefix of an entry is rejected, and a single-byte
    /// change is either rejected or decodes to exactly what the tree
    /// reference decodes — and re-encodes to the changed bytes.
    fn check_prefix_and_mutation(entry: &str, at: usize, byte: u8) -> Result<(), String> {
        if let Some(prefix) = entry.get(..at) {
            if FileFacts::from_json(prefix, FileId(0)).is_ok() {
                return Err(format!("accepted the {at}-byte prefix"));
            }
        }
        let mut bytes = entry.as_bytes().to_vec();
        bytes[at] = byte;
        let Ok(mutated) = String::from_utf8(bytes) else {
            return Ok(());
        };
        if let Ok(new) = FileFacts::from_json(&mutated, FileId(0)) {
            if reference::from_json(&mutated, FileId(0)).as_ref() != Ok(&new) {
                return Err(format!("byte {at} := {byte:#04x}: reference disagrees"));
            }
            if new.to_json() != mutated {
                return Err(format!("byte {at} := {byte:#04x}: re-encodes differently"));
            }
        }
        Ok(())
    }

    #[test]
    fn every_prefix_and_structural_mutation_of_the_samples_is_safe() {
        for (_, _, entry) in sample_entries() {
            for at in 0..entry.len() {
                for byte in *b" 0.-\"\\,:[]{}en" {
                    check_prefix_and_mutation(&entry, at, byte).unwrap();
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        #[test]
        fn prefixes_and_byte_mutations_never_slip_past_the_reference(
            pick in 0usize..1 << 16,
            at in 0usize..1 << 24,
            byte in 0u8..128,
        ) {
            let entries = generated_entries();
            let entry = &entries[pick % entries.len()];
            let at = at % entry.len();
            if let Err(e) = check_prefix_and_mutation(entry, at, byte) {
                return Err(proptest::TestCaseError::fail(e));
            }
        }
    }
}
