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
//! The serialised form (`adsafe-facts/2`) is hand-written JSON. It is
//! read back in one pass straight from the bytes, with no intermediate
//! JSON tree, and the reader accepts only the exact shape
//! [`FileFacts::to_json`] writes: keys in writer order, no whitespace,
//! canonical integers and escapes. Anything else — even JSON that
//! means the same record — is an error, so the cache layer treats the
//! entry as corrupt and falls back to the cold path with a
//! [`crate::FaultCause::CacheCorrupt`] fault.

use adsafe_checkers::defensive::ValidationFacts;
use adsafe_checkers::unit_design::{FunctionUnitFacts, UnitDesignStats};
use adsafe_checkers::{Diagnostic, Severity};
use adsafe_lang::ast::Storage;
use adsafe_lang::symbols::analyze_function;
use adsafe_lang::visit::walk_exprs;
use adsafe_lang::{CallGraph, FileId, ParsedFile, SourceMap, Span};
use adsafe_metrics::{
    count_file, function_metrics, ComplexityHistogram, FunctionMetrics, LocCounts,
    ModuleMetrics, TouchedGlobals,
};
use adsafe_trace::json::write_escaped;
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::OnceLock;

/// Version tag of the serialised facts record. Bump on any schema
/// change: it participates in the cache fingerprint, so old entries are
/// invalidated wholesale instead of being misread.
pub const FACTS_SCHEMA: &str = "adsafe-facts/2";

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
    FileFacts {
        recovery_count: parsed.unit.recovery_count,
        loc: count_file(file),
        globals,
        functions,
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
/// `adsafe_checkers::unit_design_stats` over the whole-program context,
/// except `implicit_conversions`, which stays 0: the pipeline counts
/// the `typing-implicit-conversion` rule's diagnostics instead, as it
/// does for explicit casts.
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
// Serialisation (hand-written JSON, read back by a cursor that accepts
// only the writer's exact shape).
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
    /// Serialises to the `adsafe-facts/2` JSON form. Diagnostic spans
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
                    r.list(&mut Vec::new(), |r| read_function(r, &mut names, &mut unres))
                })?
            },
            diags: r.then(r#","diags":"#, |r| r.list(&mut Vec::new(), |r| read_diag(r, file)))?,
        };
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

fn read_global(r: &mut Reader<'_>) -> Result<GlobalFacts, String> {
    let g = GlobalFacts {
        name: r.then("[", Reader::string)?,
        is_const: r.then(",", Reader::boolean)?,
        is_extern: r.then(",", Reader::boolean)?,
    };
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
        idents: r.then(r#","idents":"#, |r| r.list(names, Reader::string))?,
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
        validation: ValidationFacts {
            has_named_params: r.then(r#","named":"#, Reader::boolean)?,
            validates: r.then(r#","validates":"#, Reader::boolean)?,
        },
    };
    r.lit("}")?;
    Ok(f)
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
    let function = if r.eat("null") { None } else { Some(r.string()?) };
    r.lit("]")?;
    Ok(Diagnostic { check_id, severity, span, message, function })
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
            .try_fold(0u64, |n, d| n.checked_mul(10)?.checked_add(u64::from(d - b'0')))
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
                    let (c, len) = unescape(&b[i..])
                        .ok_or_else(|| format!("bad escape at byte {i}"))?;
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
                diags,
            })
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
    }

    const SRC_A: &str = "int g_total;\n\
        int rec(int n) { if (n <= 0) return 0; return rec(n - 1); }\n\
        int use_g(int* p) { if (p) { g_total += *p; } return g_total; }\n";
    const SRC_B: &str = "const int kMax = 9;\n\
        __global__ void scale(float* d, int n) { d[0] = (float)n; }\n\
        void driver(int x) { int u; int y = u + x; { int y = 2; (void)y; } }\n\
        void narrow(double d) { int k = d; (void)k; }\n";

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
        let reference = adsafe_checkers::unit_design_stats(&cx);
        assert_eq!(
            UnitDesignStats {
                implicit_conversions: reference.implicit_conversions,
                ..unit_stats_from_facts(&recs, &cx.graph)
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
    /// attached, encoded.
    fn entries_with_diags(set: &AnalysisSet) -> Vec<(FileId, FileFacts, String)> {
        let cx = set.context();
        facts_of(set)
            .into_iter()
            .enumerate()
            .map(|(i, (id, _, mut facts))| {
                let entry = cx.entries[i];
                for check in default_checks() {
                    if check.scope() == CheckScope::File {
                        facts
                            .diags
                            .extend(check.run(&CheckContext::file_local(&set.sm, entry)));
                    }
                }
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
        });
        for (_, f, _) in sample_entries() {
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
        assert_eq!(back.functions.capacity(), back.functions.len());
        assert_eq!(back.diags.capacity(), back.diags.len());
        for f in &back.functions {
            assert_eq!(f.callees.capacity(), f.callees.len());
            assert_eq!(f.idents.capacity(), f.idents.len());
            assert_eq!(f.unresolved.capacity(), f.unresolved.len());
            assert_eq!(f.metrics.name.capacity(), f.metrics.name.len());
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
            assert!(FileFacts::from_json(bad, *id).is_err(), "accepted: {bad:.40}");
        }
        // Shapes the tree decoder accepted but the writer never produces:
        // each is now a corrupt entry, re-analysed instead of trusted.
        let (head, body) = good.split_at(1);
        let unclosed = &good[..good.len() - 1];
        for bad in [
            format!("{head} {body}"),
            good.replace(',', ", "),
            format!("{good}\n"),
            format!(r#"{},"recovery":0}}"#, unclosed.replacen(r#","recovery":0"#, "", 1)),
            good.replacen(r#""recovery":0"#, r#""recovery":1.0"#, 1),
            good.replacen(r#""recovery":0"#, r#""recovery":00"#, 1),
            good.replacen(r#""recovery":0"#, r#""recovery":0,"recovery":0"#, 1),
            good.replacen("adsafe-facts/2", r"adsafe-facts\/2", 1),
            good.replacen(r#"{"name":"rec""#, r#"{"name":"\u0072ec""#, 1),
        ] {
            assert!(reference::from_json(&bad, *id).is_ok(), "reference rejected: {bad:.60}");
            assert!(FileFacts::from_json(&bad, *id).is_err(), "accepted: {bad:.60}");
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
        let new = FileFacts::from_json(entry, FileId(3))
            .unwrap_or_else(|e| panic!("{e}: {entry:.80}"));
        assert_eq!(reference::from_json(entry, FileId(3)).as_ref(), Ok(&new));
        assert_eq!(new.to_json(), entry);
    }

    /// The entries an assessment writes to its disk cache for the files
    /// `add` registers.
    fn cache_entries(tag: &str, add: impl FnOnce(&mut crate::Assessment)) -> Vec<String> {
        let dir = std::env::temp_dir()
            .join(format!("adsafe-facts-entries-{}-{tag}", std::process::id()));
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
        let Ok(mutated) = String::from_utf8(bytes) else { return Ok(()) };
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
