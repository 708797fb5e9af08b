//! Per-file analysis facts: everything the pipeline needs from one
//! source file, extracted once after parsing and cacheable on disk.
//!
//! [`FileFacts`] is the unit of incrementality. For a *fresh* file the
//! pipeline parses it and calls [`extract_facts`]; for a *cached* file
//! it deserialises the same record from `.adsafe-cache/` (or shares the
//! decoded record a resident store holds) and skips the parse entirely.
//! Everything cross-file — the call graph, global-use diagnostics,
//! query-rule rows, module metrics, the ISO 26262-6 Table 8 unit
//! statistics, the validation ratio, GPU evidence — is *always*
//! recomputed from facts records, for fresh and cached files alike,
//! through the `*_from_facts` functions below. Fresh and warm runs
//! therefore produce byte-identical reports by construction: they run
//! the exact same assembly code over the exact same inputs.
//!
//! The serialised form (`adsafe-facts/1`) is hand-written JSON parsed
//! back with [`adsafe_trace::json::Json`]; any structural mismatch is
//! surfaced as an error so the cache layer can fall back to the cold
//! path with a [`crate::FaultCause::CacheCorrupt`] fault.

use adsafe_checkers::defensive::ValidationFacts;
use adsafe_checkers::unit_design::{FunctionUnitFacts, UnitDesignStats};
use adsafe_checkers::{Check, CheckContext, Diagnostic, FileEntry, Severity};
use adsafe_lang::ast::Storage;
use adsafe_lang::symbols::analyze_function;
use adsafe_lang::visit::walk_exprs;
use adsafe_lang::{CallGraph, FileId, ParsedFile, SourceMap, Span};
use adsafe_metrics::{
    count_file, function_metrics, ComplexityHistogram, FunctionMetrics, LocCounts,
    ModuleMetrics, TouchedGlobals,
};
use adsafe_trace::json::{write_escaped, Json};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Version tag of the serialised facts record. Bump on any schema
/// change: it participates in the cache fingerprint, so old entries are
/// invalidated wholesale instead of being misread.
pub const FACTS_SCHEMA: &str = "adsafe-facts/1";

/// One file-scope variable definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalFacts {
    /// Variable name.
    pub name: String,
    /// Whether the declared type is `const`.
    pub is_const: bool,
    /// Whether the storage class is `extern`.
    pub is_extern: bool,
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
    /// Distinct identifier expressions, sorted — feeds module cohesion.
    pub idents: Vec<String>,
    /// First unresolved use per name, in source order:
    /// `(name, span_start, span_end)` — feeds `design-global-use`.
    pub unresolved: Vec<(String, u32, u32)>,
    /// Per-function ISO 26262-6 Table 8 contributions.
    pub unit: FunctionUnitFacts,
    /// Whether this is a `__global__` CUDA kernel.
    pub is_kernel: bool,
    /// Pointer-like parameter count (GPU evidence).
    pub ptr_params: usize,
    /// CUDA allocation API call sites (GPU evidence).
    pub alloc_calls: usize,
    /// Input-validation facts (defensive-programming ratio).
    pub validation: ValidationFacts,
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
    /// Implicit narrowing conversions (Table 8 row 7), measured
    /// file-locally at extraction time.
    pub implicit_conversions: usize,
    /// File-local diagnostics: every [`adsafe_checkers::CheckScope::File`]
    /// rule's findings plus the preprocessor macro-naming pass, in
    /// rule-registry order. Cross-file rule diagnostics are *not*
    /// stored — they are recomputed from facts.
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
        })
        .collect();
    let functions = parsed
        .unit
        .functions()
        .into_iter()
        .map(|f| {
            let mut idents: BTreeSet<String> = BTreeSet::new();
            walk_exprs(f, |e| {
                if let adsafe_lang::ast::ExprKind::Ident(n) = &e.kind {
                    if !idents.contains(n.as_str()) {
                        idents.insert(n.clone());
                    }
                }
            });
            let syms = analyze_function(f);
            let mut seen = HashSet::new();
            let unresolved = syms
                .unresolved
                .iter()
                .filter(|u| seen.insert(u.name.clone()))
                .map(|u| (u.name.clone(), u.span.start, u.span.end))
                .collect();
            FunctionFacts {
                metrics: function_metrics(file, f),
                sig_start: f.sig.span.start,
                sig_end: f.sig.span.end,
                callees: adsafe_lang::callgraph::callee_names(f),
                idents: idents.into_iter().collect(),
                unresolved,
                unit: adsafe_checkers::unit_design::function_unit_facts(f),
                is_kernel: f.sig.quals.cuda_global,
                ptr_params: f.sig.params.iter().filter(|p| p.ty.is_pointer_like()).count(),
                alloc_calls: adsafe_lang::cuda::profile_function(f).alloc_calls(),
                validation: adsafe_checkers::defensive::validation_facts(f),
            }
        })
        .collect();
    let entry = FileEntry { file, unit: &parsed.unit, module: "" };
    let implicit_conversions = adsafe_checkers::typing::ImplicitConversionCheck
        .run(&CheckContext::file_local(sm, entry))
        .len();
    FileFacts {
        recovery_count: parsed.unit.recovery_count,
        loc: count_file(file),
        globals,
        functions,
        implicit_conversions,
        diags: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// Cross-file assemblies. Each mirrors one piece of the serial pipeline
// exactly; the invariants are pinned by tests against the originals.
// ---------------------------------------------------------------------

/// Replays the whole-program call graph from facts records.
pub fn call_graph(records: &[FactsRecord<'_>]) -> CallGraph {
    let defs: Vec<(String, Vec<String>)> = records
        .iter()
        .flat_map(|(_, _, facts)| {
            facts
                .functions
                .iter()
                .map(|f| (f.metrics.qualified_name.clone(), f.callees.clone()))
        })
        .collect();
    CallGraph::from_functions(&defs)
}

/// All file-scope variable names across the program (unfiltered, as in
/// `adsafe_lang::symbols::global_names`).
pub fn global_names(records: &[FactsRecord<'_>]) -> HashSet<String> {
    records
        .iter()
        .flat_map(|(_, _, facts)| facts.globals.iter().map(|g| g.name.clone()))
        .collect()
}

/// `design-global-use` diagnostics from facts — same order and content
/// as `GlobalUseCheck::run` over the whole-program context.
pub fn global_use_diags(
    records: &[FactsRecord<'_>],
    globals: &HashSet<String>,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (id, _, facts) in records {
        for f in &facts.functions {
            for (name, start, end) in &f.unresolved {
                if globals.contains(name) {
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
/// `metrics.module` span and counter) as `adsafe_metrics::module_metrics`
/// over the parsed files.
pub fn module_metrics_from_facts(name: &str, files: &[&FileFacts]) -> ModuleMetrics {
    let _sp = adsafe_trace::span_with(
        "metrics.module",
        "metrics",
        vec![("module", name.to_string())],
    );
    adsafe_trace::counter("metrics.module.files").add(files.len() as u64);
    let mut loc = LocCounts::default();
    let mut functions: Vec<FunctionMetrics> = Vec::new();
    let mut histogram = ComplexityHistogram::default();
    let mut global_count = 0usize;
    let mut global_index: HashMap<&str, usize> = HashMap::new();

    for facts in files {
        loc.physical += facts.loc.physical;
        loc.nloc += facts.loc.nloc;
        loc.comment += facts.loc.comment;
        loc.blank += facts.loc.blank;
        loc.directive += facts.loc.directive;
        for g in &facts.globals {
            global_count += 1;
            let next = global_index.len();
            global_index.entry(g.name.as_str()).or_insert(next);
        }
        for f in &facts.functions {
            histogram.add(f.metrics.cyclomatic);
            functions.push(f.metrics.clone());
        }
    }

    let mut touched = TouchedGlobals::new(global_index.len());
    for f in files.iter().flat_map(|facts| &facts.functions) {
        touched.push(f.idents.iter().filter_map(|n| global_index.get(n.as_str()).copied()));
    }
    let cohesion = touched.cohesion();

    let mean_params = if functions.is_empty() {
        0.0
    } else {
        functions.iter().map(|f| f.param_count).sum::<usize>() as f64 / functions.len() as f64
    };

    ModuleMetrics {
        name: name.to_string(),
        file_count: files.len(),
        loc,
        functions,
        histogram,
        global_count,
        mean_params,
        cohesion,
        absorbed_files: 0,
    }
}

/// ISO 26262-6 Table 8 statistics from facts — same numbers as
/// `adsafe_checkers::unit_design_stats` over the whole-program context.
pub fn unit_stats_from_facts(records: &[FactsRecord<'_>], graph: &CallGraph) -> UnitDesignStats {
    let mut s = UnitDesignStats::default();
    let recursive = graph.recursive_functions();
    for (_, _, facts) in records {
        s.opaque_regions += facts.recovery_count;
        s.global_definitions += facts
            .globals
            .iter()
            .filter(|g| !g.is_const && !g.is_extern)
            .count();
        s.implicit_conversions += facts.implicit_conversions;
        for f in &facts.functions {
            s.function_count += 1;
            if f.metrics.multi_exit {
                s.multi_exit_functions += 1;
            }
            s.goto_count += f.metrics.goto_count;
            if recursive.contains(&f.metrics.qualified_name) {
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
// Serialisation (hand-written JSON; parsed back with trace::json).
// ---------------------------------------------------------------------

/// The interned rule-id table: serialised diagnostics name their rule
/// by string, deserialisation maps it back to the `&'static str` the
/// live registry uses. An unknown id means the entry was written by an
/// incompatible build → corrupt.
fn check_id_for(name: &str) -> Option<&'static str> {
    static IDS: OnceLock<HashMap<String, &'static str>> = OnceLock::new();
    IDS.get_or_init(|| {
        let mut m: HashMap<String, &'static str> = HashMap::new();
        for c in adsafe_checkers::default_checks() {
            m.insert(c.id().to_string(), c.id());
        }
        m.insert("naming-macro".to_string(), "naming-macro");
        m
    })
    .get(name)
    .copied()
}

impl FileFacts {
    /// Serialises to the `adsafe-facts/1` JSON form. Diagnostic spans
    /// drop their [`FileId`] — [`from_json`](Self::from_json) binds them
    /// to the loading run's file.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push('{');
        let _ = write!(out, "\"schema\":");
        write_escaped(&mut out, FACTS_SCHEMA);
        let _ = write!(
            out,
            ",\"recovery\":{},\"loc\":[{},{},{},{},{}],\"implicit\":{}",
            self.recovery_count,
            self.loc.physical,
            self.loc.nloc,
            self.loc.comment,
            self.loc.blank,
            self.loc.directive,
            self.implicit_conversions
        );
        out.push_str(",\"globals\":[");
        for (i, g) in self.globals.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            write_escaped(&mut out, &g.name);
            let _ = write!(out, ",{},{}]", g.is_const, g.is_extern);
        }
        out.push_str("],\"functions\":[");
        for (i, f) in self.functions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_function(&mut out, f);
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

    /// Parses a serialised record, rebinding all spans to `file`.
    pub fn from_json(text: &str, file: FileId) -> Result<FileFacts, String> {
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
            if t.len() != 3 {
                return Err("global arity".to_string());
            }
            Ok(GlobalFacts {
                name: req_str_v(&t[0])?,
                is_const: as_bool(&t[1])?,
                is_extern: as_bool(&t[2])?,
            })
        })?;
        let functions = read_all(req_arr(&v, "functions")?, read_function)?;
        let diags = read_all(req_arr(&v, "diags")?, |d| {
            let t = d.as_arr().ok_or("diag not an array")?;
            if t.len() != 6 {
                return Err("diag arity".to_string());
            }
            let id_name = req_str_v(&t[0])?;
            let check_id =
                check_id_for(&id_name).ok_or_else(|| format!("unknown check id `{id_name}`"))?;
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
            implicit_conversions: req_usize(&v, "implicit")?,
            diags,
        })
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
    out.push_str("],\"idents\":[");
    for (i, n) in f.idents.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_escaped(out, n);
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
         \"kernel\":{},\"kptr\":{},\"alloc\":{},\"named\":{},\"validates\":{}}}",
        f.unit.maybe_uninit_reads,
        f.unit.shadowed_declarations,
        f.unit.pointer_uses,
        f.unit.dynamic_alloc_sites,
        f.unit.opaque_stmts,
        f.is_kernel,
        f.ptr_params,
        f.alloc_calls,
        f.validation.has_named_params,
        f.validation.validates
    );
}

fn read_function(v: &Json) -> Result<FunctionFacts, String> {
    let sig = req_arr(v, "sig")?;
    if sig.len() != 2 {
        return Err("sig arity".to_string());
    }
    let callees = read_all(req_arr(v, "callees")?, req_str_v)?;
    let idents = read_all(req_arr(v, "idents")?, req_str_v)?;
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
        idents,
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
        validation: ValidationFacts {
            has_named_params: req_bool(v, "named")?,
            validates: req_bool(v, "validates")?,
        },
    })
}

/// Reads every element of `arr` into a vector of exactly `arr.len()`:
/// a decoded record may stay resident in a facts store, charged at its
/// encoded length, so it carries no growth slack.
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
    v.get(key).and_then(Json::as_arr).ok_or_else(|| format!("missing array `{key}`"))
}

fn req_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string `{key}`"))
}

fn req_str_v(v: &Json) -> Result<String, String> {
    v.as_str().map(str::to_string).ok_or_else(|| "expected string".to_string())
}

fn req_usize(v: &Json, key: &str) -> Result<usize, String> {
    v.get(key)
        .ok_or_else(|| format!("missing number `{key}`"))
        .and_then(as_usize)
}

fn req_u32(v: &Json, key: &str) -> Result<u32, String> {
    v.get(key).ok_or_else(|| format!("missing number `{key}`")).and_then(as_u32)
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

#[cfg(test)]
mod tests {
    use super::*;
    use adsafe_checkers::{default_checks, AnalysisSet, CheckScope};

    const SRC_A: &str = "int g_total;\n\
        int rec(int n) { if (n <= 0) return 0; return rec(n - 1); }\n\
        int use_g(int* p) { if (p) { g_total += *p; } return g_total; }\n";
    const SRC_B: &str = "const int kMax = 9;\n\
        __global__ void scale(float* d, int n) { d[0] = (float)n; }\n\
        void driver(int x) { int u; int y = u + x; { int y = 2; (void)y; } }\n";

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
        facts.iter().map(|(id, m, f)| (*id, m.as_str(), f)).collect()
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
        assert_eq!(global_names(&recs), cx.global_names);
    }

    #[test]
    fn program_scoped_diags_replay_the_rules() {
        let set = corpus();
        let cx = set.context();
        let facts = facts_of(&set);
        let recs = records(&facts);
        for check in default_checks() {
            if check.scope() != CheckScope::Program {
                continue;
            }
            let expected = check.run(&cx);
            let got = match check.id() {
                "design-global-use" => global_use_diags(&recs, &cx.global_names),
                other => panic!("unexpected program-scoped rule {other}"),
            };
            assert_eq!(got, expected, "rule {}", check.id());
        }
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

    #[test]
    fn unit_stats_and_validation_match() {
        let set = corpus();
        let cx = set.context();
        let facts = facts_of(&set);
        let recs = records(&facts);
        assert_eq!(
            unit_stats_from_facts(&recs, &cx.graph),
            adsafe_checkers::unit_design_stats(&cx)
        );
        let legacy = adsafe_checkers::defensive::validation_ratio(&cx);
        let got = validation_ratio_from_facts(&recs);
        assert!((legacy - got).abs() < 1e-15, "{legacy} vs {got}");
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let set = corpus();
        let cx = set.context();
        for (i, (id, _, mut facts)) in facts_of(&set).into_iter().enumerate() {
            // Attach some real diagnostics to exercise diag serde.
            let entry = cx.entries[i];
            for check in default_checks() {
                if check.scope() == CheckScope::File {
                    facts
                        .diags
                        .extend(check.run(&CheckContext::file_local(&set.sm, entry)));
                }
            }
            let json = facts.to_json();
            let back = FileFacts::from_json(&json, id).expect("round trip parses");
            assert_eq!(back, facts);
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
            &good.replace("adsafe-facts/1", "adsafe-facts/0"),
        ] {
            assert!(FileFacts::from_json(bad, *id).is_err(), "accepted: {bad:.40}");
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
}
