//! The assessment pipeline: source files in, compliance report out.
//!
//! This is the paper's methodology as an API: parse the whole code base,
//! run metrics and checkers, assemble [`Evidence`], judge it against ISO
//! 26262 Part 6 at a target ASIL, and synthesise the observations.
//!
//! The pipeline is *fault-isolated*: every file, every checker rule, and
//! every phase runs under panic containment, and anything that goes
//! wrong is recorded in the report's [`FaultLog`] instead of aborting
//! the run. Files that cannot be parsed cleanly descend a three-tier
//! degradation ladder:
//!
//! 1. **Full parse** — the normal path; no fault recorded.
//! 2. **Resync parse** — the error-tolerant parser skipped opaque
//!    regions (`recovery_count > 0`); the file's evidence is complete
//!    but approximate, recorded as a `ParseResync` fault.
//! 3. **Token-only metrics** — the parser panicked; NLOC and a
//!    cyclomatic estimate are recovered from the token stream alone and
//!    absorbed into the owning module's metrics.
//!
//! A report produced through any tier below 1 carries
//! [`AssessmentReport::degraded`]` == true`.
//!
//! ## Parallelism and incrementality
//!
//! The parse and metrics phases parallelise per file / per module, and
//! the checks phase runs one task per file — every file-local native
//! rule over that file while its AST is still in cache — on the
//! work-stealing [`Pool`] ([`AssessmentOptions::jobs`]; the default of
//! 1 runs everything inline on the caller thread). Query rules run in
//! one facts-row pass per file on the caller thread. With
//! [`AssessmentOptions::cache_dir`] set, per-file
//! [`FileFacts`](crate::facts::FileFacts) records are reused across
//! runs keyed by content hash, skipping parse, file-local checks, and
//! metrics extraction for unchanged files. Reports are byte-identical
//! across worker counts and cache states by construction: results merge
//! in stable file order before the canonical diagnostic sort, and every
//! cross-file quantity is recomputed from facts on every run (see
//! [`crate::facts`]).

use crate::cache::{content_hash, CacheLookup, FactsCache, FactsStore};
use crate::facts::{self, FactsRecord, FileFacts};
use crate::store::MemoryFactsStore;
use crate::fault::{
    failpoints, panic_message, Fault, FaultCause, FaultLog, FaultPhase, FaultSeverity, Recovery,
};
use adsafe_checkers::{
    default_checks, run_one_check, Check, CheckContext, CheckScope, Diagnostic, FileEntry,
};
use adsafe_iso26262::{
    assess, observations, Asil, ComplianceReport, Evidence, GpuEvidence, Observation,
};
use adsafe_lang::{CallGraph, FileId, ParsedFile, SourceMap};
use adsafe_metrics::{module_from_estimates, token_estimate, ModuleMetrics, TokenEstimate};
use adsafe_pool::Pool;
use adsafe_trace::TraceSummary;
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Wall-clock budgets for the analysis phases.
///
/// A phase that overruns its deadline is cut short between items; the
/// items not reached fall down the degradation ladder (parse, metrics)
/// or are skipped (checks), each recorded as a fault. `None` disables
/// the deadline — the default, since assessment is usually batch work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budgets {
    /// Deadline applied to each phase (parse, checks, metrics)
    /// independently.
    pub phase_deadline: Option<Duration>,
}

impl Budgets {
    fn budget_ms(&self) -> u64 {
        self.phase_deadline.map_or(0, |d| d.as_millis() as u64)
    }
}

/// One phase's deadline, shareable across workers: a single phase-start
/// [`Instant`] (so every worker measures from the same origin) plus an
/// atomic first-tripper flag, so the `DeadlineExceeded` fault is
/// recorded exactly once per phase no matter how many workers observe
/// the overrun concurrently.
#[derive(Debug)]
struct PhaseDeadline {
    start: Instant,
    limit: Option<Duration>,
    tripped: AtomicBool,
}

impl PhaseDeadline {
    fn new(budgets: &Budgets) -> Self {
        PhaseDeadline {
            start: Instant::now(),
            limit: budgets.phase_deadline,
            tripped: AtomicBool::new(false),
        }
    }

    fn exceeded(&self) -> bool {
        self.limit.is_some_and(|d| self.start.elapsed() > d)
    }

    /// True for exactly one caller: the one that gets to record the
    /// phase's `DeadlineExceeded` fault.
    fn trip_once(&self) -> bool {
        self.exceeded()
            && self
                .tripped
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
    }
}

/// Inputs the analyser cannot derive from source (supplied by the
/// integrator, as in a real assessment).
#[derive(Debug, Clone)]
pub struct AssessmentOptions {
    /// Target ASIL (the paper uses ASIL-D for the whole AD pipeline).
    pub asil: Asil,
    /// Whether the deployment defines scheduling properties.
    pub has_scheduling_policy: bool,
    /// Structural coverage results to fold in, if measured.
    pub coverage: Option<adsafe_iso26262::CoverageEvidence>,
    /// Wall-clock budgets for the analysis phases.
    pub budgets: Budgets,
    /// Worker threads for the parse/checks/metrics phases. `1` (the
    /// default) runs everything inline on the caller thread — exactly
    /// the serial pipeline; `0` means one worker per available core.
    pub jobs: usize,
    /// Directory for the incremental facts cache. `None` (the default)
    /// disables caching. Ignored when [`store`](Self::store) is set.
    pub cache_dir: Option<PathBuf>,
    /// A resident in-memory facts store shared across runs (the
    /// `adsafe serve` daemon's warm state). Takes precedence over
    /// [`cache_dir`](Self::cache_dir); the store decides its own disk
    /// backing and write-back policy.
    pub store: Option<std::sync::Arc<MemoryFactsStore>>,
    /// Ledger run ID for this assessment, threaded into the root span,
    /// every fault record, and the report. Empty (the default) means
    /// the run has no ledger identity; nothing references it.
    pub run_id: String,
    /// A user rule pack, evaluated after the native set and the bundled
    /// pack. `None` (the default) runs those two alone. The bundled
    /// rules feed compliance evidence like native ones do; a user pack
    /// cannot take a native or bundled id (see
    /// [`crate::query::load_rule_pack`]), so its findings join the
    /// report without moving a verdict. No query finding enters the
    /// facts cache.
    pub rules: Option<std::sync::Arc<adsafe_query::RulePack>>,
}

impl Default for AssessmentOptions {
    fn default() -> Self {
        AssessmentOptions {
            asil: Asil::D,
            has_scheduling_policy: false,
            coverage: None,
            budgets: Budgets::default(),
            jobs: 1,
            cache_dir: None,
            store: None,
            run_id: String::new(),
            rules: None,
        }
    }
}

/// The full output of one assessment run.
#[derive(Debug)]
pub struct AssessmentReport {
    /// Assembled quantitative evidence.
    pub evidence: Evidence,
    /// Per-topic verdicts for the three Part-6 tables.
    pub compliance: ComplianceReport,
    /// The fourteen synthesised observations.
    pub observations: Vec<Observation>,
    /// Per-module metrics (Figure 3's data).
    pub modules: Vec<ModuleMetrics>,
    /// Every diagnostic, sorted by check then position.
    pub diagnostics: Vec<Diagnostic>,
    /// Every fault contained during the run.
    pub faults: FaultLog,
    /// Whether any fault cost evidence: the report is still valid but
    /// rests on partially estimated or incomplete measurements.
    pub degraded: bool,
    /// Self-observability: per-phase wall time, slowest files and
    /// rules, counter deltas, and the raw span events of this run.
    pub trace: TraceSummary,
    /// The ledger run ID this report was produced under (empty when
    /// the run was not recorded).
    pub run_id: String,
}

impl AssessmentReport {
    /// Diagnostics of one check.
    pub fn diagnostics_for(&self, check_id: &str) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.check_id == check_id).collect()
    }
}

/// One source file queued for assessment.
#[derive(Debug, Clone)]
struct RawFile {
    module: String,
    path: String,
    text: String,
}

/// Per-file result of the parse phase, produced by one (possibly
/// worker-side) task and merged on the caller thread in file order.
struct ParseOutcome {
    kind: ParseKind,
    faults: Vec<Fault>,
    estimate: Option<TokenEstimate>,
    hash: u64,
    cache_ok: bool,
}

enum ParseKind {
    /// Parsed this run; facts extracted, diagnostics pending.
    Fresh(Box<ParsedFile>, FileFacts),
    /// Served from the facts cache; diagnostics included, their spans
    /// not yet bound to this run's `FileId`.
    Cached(Arc<FileFacts>),
    /// Tier 3: token-only estimate (carried in `estimate`).
    Estimated,
    /// Tier 4: nothing recoverable.
    Dropped,
}

/// A file that survived parsing (fresh or cached) in pipeline position.
struct LoadedFile {
    file_idx: usize,
    id: FileId,
    facts: Arc<FileFacts>,
    parsed: Option<Box<ParsedFile>>, // `Some` iff fresh
    hash: u64,
    cache_ok: bool,
}

/// The assessment driver. Add files, then [`Assessment::run`].
#[derive(Debug, Default)]
pub struct Assessment {
    files: Vec<RawFile>,
    ingest_faults: Vec<Fault>,
    options: AssessmentOptions,
}

impl Assessment {
    /// Creates an empty assessment with default options (ASIL-D).
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the options.
    pub fn with_options(mut self, options: AssessmentOptions) -> Self {
        self.options = options;
        self
    }

    /// Adds one source file under a module.
    pub fn add_file(&mut self, module: &str, path: &str, text: &str) -> &mut Self {
        self.push_file(module, path, text.to_string())
    }

    fn push_file(&mut self, module: &str, path: &str, text: String) -> &mut Self {
        self.files.push(RawFile { module: module.to_string(), path: path.to_string(), text });
        self
    }

    /// Adds one source file from raw bytes. Invalid UTF-8 is replaced
    /// lossily and recorded as an ingest fault — the file still flows
    /// through the full ladder rather than being rejected.
    pub fn add_file_bytes(&mut self, module: &str, path: &str, bytes: &[u8]) -> &mut Self {
        let text = String::from_utf8_lossy(bytes);
        if let std::borrow::Cow::Owned(_) = text {
            let replaced = text.chars().filter(|&c| c == '\u{fffd}').count();
            self.ingest_faults.push(Fault {
                phase: FaultPhase::Ingest,
                path: path.to_string(),
                severity: FaultSeverity::Degraded,
                cause: FaultCause::NonUtf8 { replaced },
                recovery: Recovery::ResyncParse,
                run_id: String::new(),
            });
        }
        self.push_file(module, path, text.into_owned())
    }

    /// Records a fault observed before the pipeline ran (e.g. a torn
    /// ledger line noticed while reserving the run ID). The fault rides
    /// on the report exactly like an ingest fault.
    pub fn add_fault(&mut self, fault: Fault) -> &mut Self {
        self.ingest_faults.push(fault);
        self
    }

    /// Runs metrics, checkers, and the compliance engine with per-item
    /// panic containment. Never panics on any input; every contained
    /// failure is in the returned report's `faults`.
    ///
    /// The whole run executes under an `assessment.run` trace span with
    /// one `phase.*` span per pipeline phase and one `parse.file` span
    /// per input; the drained events become the report's
    /// [`AssessmentReport::trace`] summary. Worker-side spans are
    /// absorbed into the caller's buffer when `jobs > 1`.
    pub fn run(&self) -> AssessmentReport {
        let counters_before = adsafe_trace::counter_snapshot();
        let mem_before = adsafe_trace::alloc::phase_stats();
        let trace_mark = adsafe_trace::mark();
        let run_span = if self.options.run_id.is_empty() {
            adsafe_trace::span("assessment.run", "run")
        } else {
            adsafe_trace::span_with(
                "assessment.run",
                "run",
                vec![("run_id", self.options.run_id.clone())],
            )
        };

        let mut log = FaultLog::new();
        log.set_run_id(&self.options.run_id);
        for f in &self.ingest_faults {
            log.push(f.clone());
        }
        let budgets = self.options.budgets;
        let pool = Pool::new(self.options.jobs);
        adsafe_trace::counter("pool.workers").add(pool.workers() as u64);
        // Facts reuse: a shared resident store when the caller provides
        // one (the serve daemon), else a per-run disk cache.
        let disk_cache = match (&self.options.store, &self.options.cache_dir) {
            (None, Some(dir)) => Some(FactsCache::open(dir)),
            _ => None,
        };
        let cache: Option<&dyn FactsStore> = match &self.options.store {
            Some(s) => Some(s.as_ref()),
            None => disk_cache.as_ref().map(|c| c as &dyn FactsStore),
        };
        // A cache that could not be brought up (unwritable directory,
        // clobbered meta.json, …) is an accelerator loss, not an
        // evidence loss: note it and fall through to cold analysis.
        if let Some(detail) = cache.and_then(|c| c.disabled_detail()) {
            adsafe_trace::counter("cache.disabled").incr();
            log.push(Fault {
                phase: FaultPhase::Ingest,
                path: self
                    .options
                    .cache_dir
                    .as_deref()
                    .map_or_else(|| "facts-store".to_string(), |d| d.display().to_string()),
                severity: FaultSeverity::Info,
                cause: FaultCause::CacheCorrupt { detail },
                recovery: Recovery::Noted,
                run_id: String::new(),
            });
        }

        // Phase 1: parse, descending the ladder per file. File ids are
        // assigned serially (so they are identical run-to-run and
        // across worker counts); the per-file work fans out.
        let phase_span = adsafe_trace::span("phase.parse", "phase");
        let mut sm = SourceMap::new();
        let ids: Vec<FileId> =
            self.files.iter().map(|rf| sm.add_file(&rf.path, &rf.text)).collect();
        let sm = sm;
        let deadline = PhaseDeadline::new(&budgets);
        let outcomes = pool.map((0..self.files.len()).collect(), |_, i| {
            parse_one(&sm, ids[i], &self.files[i], &deadline, &budgets, cache)
        });

        let mut loaded: Vec<LoadedFile> = Vec::new();
        let mut estimates: Vec<(String, TokenEstimate)> = Vec::new();
        for (i, res) in outcomes.into_iter().enumerate() {
            match res {
                Ok(o) => {
                    for f in o.faults {
                        log.push(f);
                    }
                    if let Some(est) = o.estimate {
                        estimates.push((self.files[i].module.clone(), est));
                    }
                    let (facts, parsed) = match o.kind {
                        ParseKind::Fresh(p, facts) => (Arc::new(facts), Some(p)),
                        ParseKind::Cached(facts) => (facts, None),
                        ParseKind::Estimated | ParseKind::Dropped => continue,
                    };
                    loaded.push(LoadedFile {
                        file_idx: i,
                        id: ids[i],
                        facts,
                        parsed,
                        hash: o.hash,
                        cache_ok: o.cache_ok,
                    });
                }
                Err(payload) => {
                    // The task itself panicked outside its internal
                    // containment — treat as an unrecoverable file.
                    adsafe_trace::counter("parse.dropped.files").incr();
                    log.push(Fault {
                        phase: FaultPhase::Parse,
                        path: self.files[i].path.clone(),
                        severity: FaultSeverity::Lost,
                        cause: classify_panic(&panic_message(&*payload)),
                        recovery: Recovery::Dropped,
                        run_id: String::new(),
                    });
                }
            }
        }
        note_phase_overrun(&mut log, FaultPhase::Parse, deadline.start, &budgets);
        drop(phase_span);

        // Facts records in stable file order — the single source for
        // every cross-file assembly below, fresh and cached alike.
        let records: Vec<FactsRecord<'_>> = loaded
            .iter()
            .map(|l| (l.id, self.files[l.file_idx].module.as_str(), &*l.facts))
            .collect();

        // Phase 2: checkers, one pool task per fresh file with per-rule
        // isolation. Rule gates (failpoints, deadline) run on the
        // caller thread first so a gated rule is skipped wholesale.
        let phase_span = adsafe_trace::span("phase.checks", "phase");
        // Native/query sub-phases are *always* emitted, pack or no
        // pack: the report's phase set must not depend on options, or
        // `adsafe trace-compare` would flag a missing phase instead of
        // a regression.
        let native_span = adsafe_trace::span("phase.checks.native", "phase");
        let graph = facts::call_graph(&records);
        let globals = facts::global_names(&records);
        let checks = default_checks();
        let query_rules: Vec<&adsafe_query::CompiledRule> =
            crate::query::query_rules(self.options.rules.as_deref()).collect();
        let deadline = PhaseDeadline::new(&budgets);
        let mut skipped: HashSet<&'static str> = HashSet::new();
        let mut deadline_cut = false;
        let rule_ids = checks.iter().map(|c| c.id()).chain(query_rules.iter().map(|r| r.id));
        for id in rule_ids {
            if !deadline_cut && deadline.exceeded() {
                deadline_cut = true;
                log.push(Fault {
                    phase: FaultPhase::Checks,
                    path: id.to_string(),
                    severity: FaultSeverity::Degraded,
                    cause: FaultCause::DeadlineExceeded { budget_ms: budgets.budget_ms() },
                    recovery: Recovery::SkippedItem,
                    run_id: String::new(),
                });
            }
            if deadline_cut {
                skipped.insert(id);
                continue;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| {
                failpoints::hit("pipeline::check");
                failpoints::hit(&format!("pipeline::check::{id}"));
            })) {
                log.push(check_fault(id.to_string(), &panic_message(&*payload)));
                skipped.insert(id);
            }
        }

        // One task per fresh file (cached files carry their file-local
        // diagnostics in the facts record): every non-gated file-local
        // rule in registry order over one file-local context, then the
        // macro-naming pass, so the file's AST stays in cache across
        // all of its rules. A task's diagnostics come out in the order
        // cached entries replay them, so they are the file's cache
        // write-back bucket as they stand.
        let file_rules: Vec<&dyn Check> = checks
            .iter()
            .map(|c| c.as_ref())
            .filter(|c| c.scope() == CheckScope::File && !skipped.contains(c.id()))
            .collect();
        let fresh: Vec<usize> =
            (0..loaded.len()).filter(|&li| loaded[li].parsed.is_some()).collect();
        let results = pool.map(fresh.clone(), |_, li| {
            let l = &loaded[li];
            let parsed = l.parsed.as_deref().expect("only fresh files are checked");
            let file = &self.files[l.file_idx];
            let entry =
                FileEntry { file: sm.file(l.id), unit: &parsed.unit, module: &file.module };
            let cx = CheckContext::file_local(&sm, entry);
            let mut diags = Vec::new();
            let mut faults = Vec::new();
            for &check in &file_rules {
                match run_one_check(&Failpointed { check, path: &file.path }, &cx) {
                    Ok(d) => diags.extend(d),
                    Err(e) => faults.push(check_fault(e.check_id.to_string(), &e.message)),
                }
            }
            let _sp = adsafe_trace::span("check.naming-macro", "checks");
            match catch_unwind(AssertUnwindSafe(|| {
                adsafe_checkers::naming::check_macros(&parsed.pp)
            })) {
                Ok(d) => diags.extend(d),
                Err(payload) => {
                    faults.push(check_fault(file.path.clone(), &panic_message(&*payload)))
                }
            }
            (diags, faults)
        });

        let mut diagnostics: Vec<Diagnostic> = Vec::new();
        // Cache write-back: only fully-clean fresh files (tier-1 parse,
        // no rule fault) from a run where no rule was gated or cut — a
        // cached entry must replay the complete file-local rule set,
        // and recoverable faults (resync, panics) must recur on warm
        // runs rather than being papered over.
        let write_back = cache.is_some() && skipped.is_empty();
        let mut buckets: Vec<(usize, Vec<Diagnostic>)> = Vec::new();
        for (li, res) in fresh.into_iter().zip(results) {
            match res {
                Ok((diags, faults)) => {
                    if write_back && loaded[li].cache_ok && faults.is_empty() {
                        buckets.push((li, diags.clone()));
                    }
                    diagnostics.extend(diags);
                    for f in faults {
                        log.push(f);
                    }
                }
                Err(payload) => {
                    let path = self.files[loaded[li].file_idx].path.clone();
                    log.push(check_fault(path, &panic_message(&*payload)));
                }
            }
        }

        // Program-scoped native rules run once, from facts, on the
        // caller thread — they need the whole program, not one file.
        // The set is pinned by a test in adsafe-checkers; a future
        // program-scoped rule must be given a facts replay here.
        for c in &checks {
            if c.scope() != CheckScope::Program || skipped.contains(c.id()) {
                continue;
            }
            let id = c.id();
            let _sp = adsafe_trace::span(format!("check.{id}"), "checks");
            let result = catch_unwind(AssertUnwindSafe(|| match id {
                "design-global-use" => facts::global_use_diags(&records, &globals),
                _ => Vec::new(),
            }));
            match result {
                Ok(diags) => {
                    adsafe_trace::counter(&format!("checks.rule.{id}.diags"))
                        .add(diags.len() as u64);
                    diagnostics.extend(diags);
                }
                Err(payload) => log.push(check_fault(id.to_string(), &panic_message(&*payload))),
            }
        }

        // Cached files replay their stored file-local diagnostics —
        // filtered by `skipped` so a gated rule stays silent on warm
        // runs too. This is the one place cached diagnostics enter a
        // run, so it is where their spans are bound to this run's
        // `FileId`: a resident record keeps the ids of the run that
        // built it.
        for l in &loaded {
            if l.parsed.is_none() {
                diagnostics.extend(
                    l.facts.diags.iter().filter(|d| !skipped.contains(d.check_id)).map(|d| {
                        let mut d = d.clone();
                        d.span.file = l.id;
                        d
                    }),
                );
            }
        }
        drop(native_span);

        // Query rules, evaluated from facts — fresh and cached files
        // alike, no reparse — in one pass per file that builds each
        // selector's rows once and runs every non-gated rule over them.
        // The pass runs on the caller thread: it is cheap (≈8 ms for the
        // bundled pack over the paper-scale corpus), and one more round
        // of scoped pool threads per run made the allocator open fresh
        // arenas, raising a repeated cold run's peak RSS by ~100 MB.
        // Query diagnostics join the report and the evidence, but never
        // the cache write-back buckets: they are recomputed every run.
        let query_span = adsafe_trace::span("phase.checks.query", "phase");
        let recursive = graph.recursive_functions();
        let live: Vec<&adsafe_query::CompiledRule> =
            query_rules.into_iter().filter(|r| !skipped.contains(r.id)).collect();
        let mut per_rule = vec![0u64; live.len()];
        let mut steps_total = 0u64;
        for l in &loaded {
            let file = &self.files[l.file_idx];
            let outcomes =
                crate::query::eval_file(&live, l.id, &file.module, &l.facts, &recursive);
            for (qi, outcome) in outcomes.into_iter().enumerate() {
                match outcome {
                    Ok((diags, steps)) => {
                        steps_total += steps;
                        per_rule[qi] += diags.len() as u64;
                        diagnostics.extend(diags);
                    }
                    Err(msg) => {
                        log.push(check_fault(format!("{} on {}", live[qi].id, file.path), &msg))
                    }
                }
            }
        }
        adsafe_trace::counter("query.vm.steps").add(steps_total);
        for (rule, n) in live.iter().zip(per_rule) {
            adsafe_trace::counter(&format!("checks.rule.{}.diags", rule.id)).add(n);
        }
        drop(query_span);

        // One canonical order for the *complete* list — per-file tasks,
        // program-scoped rules, cached replays, and query rules — so
        // repeated runs over the same corpus render byte-identical
        // reports regardless of worker count or cache state. The sort
        // is stable, and no two merge sources share a (rule, file)
        // group, so within-group emission order is preserved exactly.
        diagnostics.sort_by_key(|d| (d.check_id, d.span.file, d.span.start));
        adsafe_trace::counter("checks.diagnostics").add(diagnostics.len() as u64);
        note_phase_overrun(&mut log, FaultPhase::Checks, deadline.start, &budgets);
        drop(phase_span);

        if let Some(c) = cache {
            for (li, diags) in buckets {
                let l = &loaded[li];
                let entry = Arc::new(FileFacts { diags, ..FileFacts::clone(&l.facts) });
                c.store_shared(l.hash, &self.files[l.file_idx].path, entry);
            }
        }

        // Phase 3: module metrics from facts, isolated per module, with
        // token-only fallback so a module never vanishes from Figure 3.
        let phase_span = adsafe_trace::span("phase.metrics", "phase");
        let deadline = PhaseDeadline::new(&budgets);
        let mut seen = HashSet::new();
        let mut module_order: Vec<&str> = Vec::new();
        for l in &loaded {
            let m = self.files[l.file_idx].module.as_str();
            if seen.insert(m) {
                module_order.push(m);
            }
        }
        let module_results = pool.map(module_order.clone(), |_, m| {
            if deadline.exceeded() {
                return Err(FaultCause::DeadlineExceeded { budget_ms: budgets.budget_ms() });
            }
            catch_unwind(AssertUnwindSafe(|| {
                failpoints::hit(&format!("pipeline::metrics::{m}"));
                let files: Vec<&FileFacts> = loaded
                    .iter()
                    .filter(|l| self.files[l.file_idx].module == m)
                    .map(|l| &*l.facts)
                    .collect();
                facts::module_metrics_from_facts(m, &files)
            }))
            .map_err(|payload| classify_panic(&panic_message(&*payload)))
        });
        let mut modules: Vec<ModuleMetrics> = Vec::new();
        for (m, res) in module_order.iter().zip(module_results) {
            let flat = match res {
                Ok(inner) => inner,
                Err(payload) => Err(classify_panic(&panic_message(&*payload))),
            };
            match flat {
                Ok(mm) => modules.push(mm),
                Err(cause) => {
                    let ests: Vec<TokenEstimate> = loaded
                        .iter()
                        .filter(|l| self.files[l.file_idx].module == *m)
                        .filter_map(|l| {
                            catch_unwind(AssertUnwindSafe(|| {
                                token_estimate(l.id, sm.file(l.id).text())
                            }))
                            .ok()
                        })
                        .collect();
                    modules.push(module_from_estimates(m, &ests));
                    log.push(Fault {
                        phase: FaultPhase::Metrics,
                        path: m.to_string(),
                        severity: FaultSeverity::Degraded,
                        cause,
                        recovery: Recovery::TokenMetrics,
                        run_id: String::new(),
                    });
                }
            }
        }
        // Absorb tier-3 files into their modules' metrics.
        for (module, est) in &estimates {
            match modules.iter_mut().find(|m| &m.name == module) {
                Some(m) => adsafe_metrics::absorb_estimate(m, est),
                None => modules.push(module_from_estimates(module, &[*est])),
            }
        }
        note_phase_overrun(&mut log, FaultPhase::Metrics, deadline.start, &budgets);
        drop(phase_span);

        // Phase 4: evidence assembly and compliance judgement, with a
        // conservative-default fallback (critical fault) if it panics.
        let phase_span = adsafe_trace::span("phase.assess", "phase");
        let unit = catch_unwind(AssertUnwindSafe(|| {
            failpoints::hit("pipeline::assess");
            facts::unit_stats_from_facts(&records, &graph)
        }))
        .unwrap_or_else(|payload| {
            log.push(Fault {
                phase: FaultPhase::Assess,
                path: "unit-design-stats".to_string(),
                severity: FaultSeverity::Critical,
                cause: classify_panic(&panic_message(&*payload)),
                recovery: Recovery::FallbackDefault,
                run_id: String::new(),
            });
            adsafe_checkers::UnitDesignStats::default()
        });
        let evidence = catch_unwind(AssertUnwindSafe(|| {
            self.assemble_evidence(&records, &graph, &modules, &unit, &diagnostics)
        }))
        .unwrap_or_else(|payload| {
            log.push(Fault {
                phase: FaultPhase::Assess,
                path: "evidence".to_string(),
                severity: FaultSeverity::Critical,
                cause: classify_panic(&panic_message(&*payload)),
                recovery: Recovery::FallbackDefault,
                run_id: String::new(),
            });
            Evidence {
                total_loc: modules.iter().map(|m| m.loc.nloc).sum(),
                coverage: self.options.coverage,
                ..Evidence::default()
            }
        });
        let compliance = catch_unwind(AssertUnwindSafe(|| assess(&evidence, self.options.asil)))
            .unwrap_or_else(|payload| {
                log.push(Fault {
                    phase: FaultPhase::Assess,
                    path: "compliance".to_string(),
                    severity: FaultSeverity::Critical,
                    cause: classify_panic(&panic_message(&*payload)),
                    recovery: Recovery::FallbackDefault,
                    run_id: String::new(),
                });
                ComplianceReport { asil: self.options.asil, verdicts: Vec::new() }
            });
        let observations = catch_unwind(AssertUnwindSafe(|| observations(&evidence)))
            .unwrap_or_else(|payload| {
                log.push(Fault {
                    phase: FaultPhase::Assess,
                    path: "observations".to_string(),
                    severity: FaultSeverity::Critical,
                    cause: classify_panic(&panic_message(&*payload)),
                    recovery: Recovery::FallbackDefault,
                    run_id: String::new(),
                });
                Vec::new()
            });

        drop(phase_span);
        drop(run_span);
        let events = adsafe_trace::drain_from(trace_mark);
        let counters_after = adsafe_trace::counter_snapshot();
        let mut trace = TraceSummary::from_events(
            events,
            adsafe_trace::counter_delta(&counters_before, &counters_after),
        );
        // Per-phase allocation delta of this run (empty unless a
        // `CountingAlloc` is installed with profiling on — the phase
        // spans above drove the billing tags).
        trace.phase_mem =
            adsafe_trace::alloc::phase_delta(&mem_before, &adsafe_trace::alloc::phase_stats());

        let degraded = log.degrades_report();
        AssessmentReport {
            evidence,
            compliance,
            observations,
            modules,
            diagnostics,
            faults: log,
            degraded,
            trace,
            run_id: self.options.run_id.clone(),
        }
    }

    fn assemble_evidence(
        &self,
        records: &[FactsRecord<'_>],
        graph: &CallGraph,
        modules: &[ModuleMetrics],
        unit: &adsafe_checkers::UnitDesignStats,
        diagnostics: &[Diagnostic],
    ) -> Evidence {
        let count = |id: &str| diagnostics.iter().filter(|d| d.check_id == id).count();
        let misra_ids = [
            "misra-15.1-goto",
            "misra-15.5-multi-exit",
            "misra-17.2-recursion",
            "misra-21.3-dynamic-memory",
            "misra-12.3-comma",
            "misra-19.2-union",
            "misra-16.4-switch-default",
            "misra-2.1-unreachable",
            "misra-17.1-variadic",
            "misra-7.1-octal",
            "misra-13.5-side-effect",
            "misra-decl-one-per-stmt",
        ];
        let misra_violations: usize = misra_ids.iter().map(|id| count(id)).sum();
        let style_findings = count("style-line")
            + count("style-indent")
            + count("style-brace")
            + count("style-include-guard");
        let naming_findings =
            count("naming-type") + count("naming-variable") + count("naming-macro");

        // GPU evidence from the per-function facts.
        let mut gpu = GpuEvidence {
            language_subset_available: false,
            coverage_tool_available: false,
            ..GpuEvidence::default()
        };
        for (_, _, facts) in records {
            for f in &facts.functions {
                if f.is_kernel {
                    gpu.kernel_count += 1;
                    gpu.kernel_pointer_params += f.ptr_params;
                }
                gpu.device_alloc_sites += f.alloc_calls;
            }
        }
        gpu.closed_source_calls = count("cuda-closed-source-lib");

        // Architecture metrics.
        let mean_cohesion = if modules.is_empty() {
            1.0
        } else {
            modules.iter().map(|m| m.cohesion).sum::<f64>() / modules.len() as f64
        };
        let module_of: HashMap<String, String> = records
            .iter()
            .flat_map(|(_, module, facts)| {
                facts
                    .functions
                    .iter()
                    .map(move |f| (f.metrics.qualified_name.clone(), module.to_string()))
            })
            .collect();
        let coupling_edges: usize =
            adsafe_metrics::coupling(graph, &module_of).values().sum();
        let total_functions: usize = modules.iter().map(|m| m.function_count()).sum();
        let mean_interface_params = if modules.is_empty() {
            0.0
        } else {
            modules.iter().map(|m| m.mean_params * m.function_count() as f64).sum::<f64>()
                / total_functions.max(1) as f64
        };

        Evidence {
            total_loc: modules.iter().map(|m| m.loc.nloc).sum(),
            total_functions,
            functions_over_cc10: modules.iter().map(|m| m.functions_over(10)).sum(),
            functions_over_cc20: modules.iter().map(|m| m.functions_over(20)).sum(),
            functions_over_cc50: modules.iter().map(|m| m.functions_over(50)).sum(),
            module_locs: modules.iter().map(|m| (m.name.clone(), m.loc.nloc)).collect(),
            misra_violations,
            explicit_casts: count("typing-explicit-cast"),
            implicit_conversions: unit.implicit_conversions,
            validation_ratio: facts::validation_ratio_from_facts(records),
            unchecked_calls: count("defensive-unchecked-return"),
            global_definitions: unit.global_definitions,
            style_findings,
            naming_findings,
            mean_cohesion,
            coupling_edges,
            mean_interface_params,
            hierarchical_structure: true,
            has_scheduling_policy: self.options.has_scheduling_policy,
            uses_interrupts: false,
            multi_exit_pct: unit.multi_exit_pct(),
            dynamic_alloc_sites: unit.dynamic_alloc_sites,
            maybe_uninit_reads: unit.maybe_uninit_reads,
            shadowed_declarations: unit.shadowed_declarations,
            pointer_uses: unit.pointer_uses,
            opaque_regions: unit.opaque_regions,
            global_access_functions: count("design-global-use"),
            goto_count: unit.goto_count,
            recursive_functions: unit.recursive_functions,
            gpu,
            coverage: self.options.coverage,
        }
    }
}

/// The per-file parse task: cache lookup, parse + facts extraction
/// under panic containment, degradation ladder on failure. Runs on a
/// worker when `jobs > 1`, inline otherwise; all counters are global,
/// and trace spans are absorbed back into the caller's buffer.
fn parse_one(
    sm: &SourceMap,
    id: FileId,
    rf: &RawFile,
    deadline: &PhaseDeadline,
    budgets: &Budgets,
    cache: Option<&dyn FactsStore>,
) -> ParseOutcome {
    let _file_span =
        adsafe_trace::span_with("parse.file", "parse", vec![("path", rf.path.clone())]);
    let text = sm.file(id).text();
    let mut out = ParseOutcome {
        kind: ParseKind::Dropped,
        faults: Vec::new(),
        estimate: None,
        hash: 0,
        cache_ok: false,
    };
    if deadline.exceeded() {
        if deadline.trip_once() {
            out.faults.push(Fault {
                phase: FaultPhase::Parse,
                path: rf.path.clone(),
                severity: FaultSeverity::Degraded,
                cause: FaultCause::DeadlineExceeded { budget_ms: budgets.budget_ms() },
                recovery: Recovery::TokenMetrics,
                run_id: String::new(),
            });
        }
        // Past the deadline: token-only estimation (cheap, total)
        // keeps every remaining file contributing evidence.
        if let Ok(est) = catch_unwind(AssertUnwindSafe(|| token_estimate(id, text))) {
            adsafe_trace::counter("parse.tier3.files").incr();
            out.estimate = Some(est);
            out.kind = ParseKind::Estimated;
        }
        return out;
    }
    if let Some(c) = cache {
        out.hash = content_hash(&rf.path, text);
        match c.load_at(out.hash, id, &rf.path) {
            CacheLookup::Hit(facts) => {
                adsafe_trace::counter("parse.cached.files").incr();
                out.kind = ParseKind::Cached(facts);
                return out;
            }
            CacheLookup::Corrupt(detail) => {
                // Cold path from here on; the entry was evicted and a
                // clean one will be written back after checks.
                out.faults.push(Fault {
                    phase: FaultPhase::Parse,
                    path: rf.path.clone(),
                    severity: FaultSeverity::Info,
                    cause: FaultCause::CacheCorrupt { detail },
                    recovery: Recovery::Noted,
                    run_id: String::new(),
                });
            }
            CacheLookup::Miss => {}
        }
    }
    let parsed = catch_unwind(AssertUnwindSafe(|| {
        failpoints::hit("pipeline::parse_file");
        failpoints::hit(&format!("pipeline::parse_file::{}", rf.path));
        let p = adsafe_lang::parse_source(id, text);
        let facts = facts::extract_facts(sm, id, &p);
        (p, facts)
    }));
    match parsed {
        Ok((p, facts)) => {
            let regions = p.unit.recovery_count;
            if regions > 0 {
                adsafe_trace::counter("parse.tier2.files").incr();
                out.faults.push(Fault {
                    phase: FaultPhase::Parse,
                    path: rf.path.clone(),
                    severity: FaultSeverity::Degraded,
                    cause: FaultCause::ParseResync { regions },
                    recovery: Recovery::ResyncParse,
                    run_id: String::new(),
                });
            } else {
                adsafe_trace::counter("parse.tier1.files").incr();
                out.cache_ok = true;
            }
            out.kind = ParseKind::Fresh(Box::new(p), facts);
        }
        Err(payload) => {
            let cause = classify_panic(&panic_message(&*payload));
            match catch_unwind(AssertUnwindSafe(|| token_estimate(id, text))) {
                Ok(est) => {
                    adsafe_trace::counter("parse.tier3.files").incr();
                    out.estimate = Some(est);
                    out.kind = ParseKind::Estimated;
                    out.faults.push(Fault {
                        phase: FaultPhase::Parse,
                        path: rf.path.clone(),
                        severity: FaultSeverity::Degraded,
                        cause,
                        recovery: Recovery::TokenMetrics,
                        run_id: String::new(),
                    });
                }
                Err(payload2) => {
                    let _ = payload2;
                    adsafe_trace::counter("parse.dropped.files").incr();
                    out.faults.push(Fault {
                        phase: FaultPhase::Parse,
                        path: rf.path.clone(),
                        severity: FaultSeverity::Lost,
                        cause,
                        recovery: Recovery::Dropped,
                        run_id: String::new(),
                    });
                }
            }
        }
    }
    out
}

/// Records how far past its budget a phase actually ran.
///
/// Deadlines are only consulted *between* items, so a slow item can
/// carry a phase well past its deadline without any record of the
/// magnitude. This notes the overrun as a `{phase}.budget.overrun_ms`
/// counter and a `Timeout`-severity fault comparing actual against
/// budgeted milliseconds. `Timeout` sits below `Degraded`, so the
/// report's evidence is not marked degraded by the note alone. Always
/// called on the caller thread, once per phase — workers only ever
/// record the `DeadlineExceeded` item fault (at most once, via the
/// shared [`PhaseDeadline`]).
fn note_phase_overrun(
    log: &mut FaultLog,
    phase: FaultPhase,
    phase_start: Instant,
    budgets: &Budgets,
) {
    let Some(deadline) = budgets.phase_deadline else { return };
    let elapsed = phase_start.elapsed();
    if elapsed <= deadline {
        return;
    }
    let budget_ms = deadline.as_millis() as u64;
    let actual_ms = elapsed.as_millis() as u64;
    adsafe_trace::counter(&format!("{}.budget.overrun_ms", phase.name()))
        .add(actual_ms.saturating_sub(budget_ms));
    log.push(Fault {
        phase,
        path: format!("{}-phase-budget", phase.name()),
        severity: FaultSeverity::Timeout,
        cause: FaultCause::DeadlineOverrun { budget_ms, actual_ms },
        recovery: Recovery::Noted,
        run_id: String::new(),
    });
}

/// An injected failpoint panic keeps its identity in the fault log.
fn classify_panic(msg: &str) -> FaultCause {
    if msg.starts_with("failpoint `") {
        FaultCause::Injected(msg.to_string())
    } else {
        FaultCause::Panic(msg.to_string())
    }
}

/// A rule lost to a contained panic: a degraded checks-phase fault
/// whose cause keeps a failpoint's identity.
fn check_fault(path: String, msg: &str) -> Fault {
    Fault {
        phase: FaultPhase::Checks,
        path,
        severity: FaultSeverity::Degraded,
        cause: classify_panic(msg),
        recovery: Recovery::SkippedItem,
        run_id: String::new(),
    }
}

/// A file-local rule that first fires the failpoint
/// `pipeline::check::<id>::<path>`, inside the rule's own containment
/// in [`run_one_check`], so an injected fault costs one (rule, file).
struct Failpointed<'a> {
    check: &'a dyn Check,
    path: &'a str,
}

impl Check for Failpointed<'_> {
    fn id(&self) -> &'static str {
        self.check.id()
    }
    fn description(&self) -> &'static str {
        self.check.description()
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        self.check.iso_refs()
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        failpoints::hit(&format!("pipeline::check::{}::{}", self.check.id(), self.path));
        self.check.run(cx)
    }
}

/// Convenience: assess a generated Apollo-like corpus.
pub fn assess_corpus(
    files: &[adsafe_corpus::GeneratedFile],
    options: AssessmentOptions,
) -> AssessmentReport {
    let mut a = Assessment::new().with_options(options);
    for f in files {
        a.add_file(&f.module, &f.path, &f.text);
    }
    a.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsafe_iso26262::{Status, TableId};

    fn small_report() -> AssessmentReport {
        let mut a = Assessment::new();
        a.add_file(
            "perception",
            "perception/track.cc",
            "int g_tracks;\n\
             int Update(int* state, int delta) {\n\
               if (delta < 0) return -1;\n\
               g_tracks = g_tracks + 1;\n\
               *state = *state + delta;\n\
               return (int)(*state * 1.5f);\n\
             }\n",
        );
        a.add_file(
            "perception",
            "perception/detect.cu",
            adsafe_corpus::yolo::SCALE_BIAS_CU,
        );
        a.run()
    }

    #[test]
    fn evidence_reflects_the_code() {
        let r = small_report();
        assert_eq!(r.evidence.global_definitions, 1);
        assert!(r.evidence.explicit_casts >= 1);
        assert!(r.evidence.multi_exit_pct > 0.0);
        assert_eq!(r.evidence.gpu.kernel_count, 1);
        assert_eq!(r.evidence.gpu.kernel_pointer_params, 2);
        assert!(r.evidence.gpu.device_alloc_sites >= 2);
        assert!(r.evidence.pointer_uses > 0);
        assert_eq!(r.modules.len(), 1);
    }

    #[test]
    fn clean_run_is_fault_free() {
        let r = small_report();
        assert!(r.faults.is_empty(), "{:?}", r.faults);
        assert!(!r.degraded);
    }

    #[test]
    fn compliance_report_has_25_verdicts() {
        let r = small_report();
        assert_eq!(r.compliance.verdicts.len(), 25);
        assert_eq!(r.observations.len(), 14);
        // Dynamic device memory → unit-design row 2 non-compliant with
        // research-class effort (CUDA intrinsic).
        let row2 = &r.compliance.table(TableId::UnitDesign)[1];
        assert_eq!(row2.status, Status::NonCompliant);
        assert_eq!(row2.effort, adsafe_iso26262::Effort::Research);
    }

    #[test]
    fn observation_4_holds_for_cuda_code() {
        let r = small_report();
        let obs4 = &r.observations[3];
        assert!(obs4.holds);
        assert!(obs4.text.contains("CUDA"));
    }

    #[test]
    fn diagnostics_queryable() {
        let r = small_report();
        assert!(!r.diagnostics_for("misra-21.3-dynamic-memory").is_empty());
        assert!(r.diagnostics_for("made-up-check").is_empty());
    }

    #[test]
    fn corpus_assessment_smoke() {
        let spec = adsafe_corpus::ApolloSpec::test_scale();
        let files = adsafe_corpus::generate(&spec);
        let r = assess_corpus(&files, AssessmentOptions::default());
        assert!(r.evidence.total_functions > 100);
        assert!(r.evidence.functions_over_cc10 >= spec.total_over_10());
        assert!(r.compliance.blocking_count() > 0);
    }

    #[test]
    fn resynced_file_degrades_but_contributes() {
        let mut a = Assessment::new();
        a.add_file("m", "good.cc", "int f() { return 1; }\n");
        // Mangled enough that the parser must resynchronise.
        a.add_file("m", "bad.cc", "int ; ] ) } = 5 +;\nint h() { return 2; }\n");
        let r = a.run();
        assert!(r.degraded);
        assert!(r.faults.iter().any(|f| {
            f.path == "bad.cc"
                && matches!(f.cause, FaultCause::ParseResync { .. })
                && f.recovery == Recovery::ResyncParse
        }));
        // Both files are in the module metrics.
        assert_eq!(r.modules.len(), 1);
        assert_eq!(r.modules[0].file_count, 2);
    }

    #[test]
    fn injected_parse_panic_falls_to_token_metrics() {
        let _g = failpoints::Armed::new(
            "pipeline::parse_file::m/a.cc",
            failpoints::Action::Panic("parser bug".into()),
        );
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut a = Assessment::new();
        a.add_file("m", "m/a.cc", "int f() { if (f()) return 1; return 0; }\n");
        a.add_file("m", "m/b.cc", "int g() { return 2; }\n");
        let r = a.run();
        std::panic::set_hook(prev);
        assert!(r.degraded);
        let f = r
            .faults
            .iter()
            .find(|f| f.path == "m/a.cc")
            .expect("fault for panicked file");
        assert_eq!(f.recovery, Recovery::TokenMetrics);
        assert!(matches!(f.cause, FaultCause::Injected(_)));
        // The panicked file still contributes NLOC via tier 3.
        let m = &r.modules[0];
        assert_eq!(m.file_count, 2);
        assert_eq!(m.absorbed_files, 1);
        assert!(m.loc.nloc >= 2);
    }

    #[test]
    fn non_utf8_input_is_ingestible() {
        let mut a = Assessment::new();
        a.add_file_bytes("m", "weird.cc", b"int f() { return 1; }\n\xff\xfe\x00junk\n");
        let r = a.run();
        assert!(r.degraded);
        assert!(r.faults.iter().any(|f| {
            f.phase == FaultPhase::Ingest && matches!(f.cause, FaultCause::NonUtf8 { .. })
        }));
        assert_eq!(r.modules[0].file_count, 1);
    }

    #[test]
    fn parse_deadline_sends_remaining_files_to_tier3() {
        let _g = failpoints::Armed::new(
            "pipeline::parse_file",
            failpoints::Action::Delay(Duration::from_millis(25)),
        );
        let mut a = Assessment::new().with_options(AssessmentOptions {
            budgets: Budgets { phase_deadline: Some(Duration::from_millis(10)) },
            ..AssessmentOptions::default()
        });
        for i in 0..4 {
            a.add_file("m", &format!("f{i}.cc"), "int f() { return 1; }\n");
        }
        let r = a.run();
        assert!(r.degraded);
        assert!(r
            .faults
            .iter()
            .any(|f| matches!(f.cause, FaultCause::DeadlineExceeded { .. })));
        // Every file still contributes evidence.
        assert_eq!(r.modules[0].file_count, 4);
        assert!(r.modules[0].absorbed_files >= 1);
    }
}
