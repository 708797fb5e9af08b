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
//! [`Assessment`] holds the ingested text, in its [`SourceMap`] under
//! add-order `FileId`s; `run` borrows it. The text is shared: a source
//! added with [`Assessment::add_source`] keeps the buffer its caller
//! holds resident. A file's content hash (facts-cache key,
//! corpus-digest input) is computed at most once — at decode for a
//! [`DecodedSource`], otherwise by [`Assessment::content_hashes`] or
//! the cache lookup.
//!
//! ## Parallelism and incrementality
//!
//! A run has two rounds on the self-scheduling [`Pool`]
//! ([`AssessmentOptions::jobs`]; the default of 1 runs everything inline
//! on the caller thread): one task per file, then one per module. A
//! file's task looks up the facts cache; on a miss it parses the file,
//! extracts its facts, runs every non-gated file-local native rule over
//! the tree, and drops the tree, so it returns one complete
//! [`FileFacts`](crate::facts::FileFacts) record and no AST leaves it.
//! After the natives, the task runs every non-gated file-scoped query
//! rule over the fresh facts record: the bundled `.aq` pack's, whose
//! findings the record carries with every other built-in file-scope
//! finding, then the user pack's, whose findings travel beside it. A
//! record served from cache gets only the user pack's file-scoped
//! rules. Rule gates (failpoints, the checks deadline) are decided
//! once, before the file round. Program-scoped natives
//! (`design-global-use`) and program-scoped query rules (the bundled
//! `misra-17.2-recursion`, any the user pack has) then run from facts on
//! the caller thread. With [`AssessmentOptions::cache_dir`] set, records
//! are reused across runs keyed by content hash, skipping parse,
//! file-local checks (native and bundled), and metrics extraction for
//! unchanged files.
//!
//! A resident [`MemoryFactsStore`] ([`AssessmentOptions::store`]) also
//! memoises what is derived from the records, so a warm run re-derives
//! only what changed: a record's user-pack findings (keyed by pack
//! fingerprint and module), and the whole-program results — the
//! cross-file findings, module metrics, unit statistics and the other
//! cross-file evidence inputs — in one slot per file set, reused when
//! every file's content hash and the pack match. Memos serve only runs
//! that gate no rule, arm no failpoint and set no deadline, and the
//! program slot only clean input (no tier-2/3 file, no ingest fault).
//! Every `phase.*` span opens either way.
//!
//! Reports are byte-identical across worker counts, cache and memo
//! states by construction: results merge in stable file order before
//! the canonical diagnostic sort, and every cross-file quantity is
//! derived from facts by the same code, in this run or in the run that
//! memoised it over the same files (see [`crate::facts`]).

use crate::cache::{
    content_hash, decode_lossy, CacheLookup, DecodedSource, FactsCache, FactsStore,
};
use crate::facts::{self, FactsRecord, FileFacts};
use crate::fault::{
    failpoints, panic_message, Fault, FaultCause, FaultLog, FaultPhase, FaultSeverity, Recovery,
};
use crate::query::QueryPass;
use crate::store::{CrossFile, MemoryFactsStore, ProgramMemo};
use adsafe_checkers::{
    default_checks, run_one_check, Check, CheckContext, CheckScope, Diagnostic, FileEntry,
    UnitDesignStats,
};
use adsafe_iso26262::{
    assess, observations, Asil, ComplianceReport, Evidence, GpuEvidence, Observation,
};
use adsafe_lang::{CallGraph, FileId, SourceMap};
use adsafe_metrics::{module_from_estimates, token_estimate, ModuleMetrics, TokenEstimate};
use adsafe_pool::Pool;
use adsafe_trace::TraceSummary;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
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
    /// Worker threads for the file and module rounds. `1` (the
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
    /// report without moving a verdict. A user pack's findings never
    /// enter the facts cache: a run with a cache directory evaluates
    /// them from facts every time, as it does the program-scoped rules;
    /// a resident [`store`](Self::store) memoises them beside its
    /// records and in its program slot.
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
    /// rules, counters, and the raw span events of this run.
    pub trace: TraceSummary,
    /// The ledger run ID this report was produced under (empty when
    /// the run was not recorded).
    pub run_id: String,
}

impl AssessmentReport {
    /// Diagnostics of one check.
    pub fn diagnostics_for(&self, check_id: &str) -> Vec<&Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.check_id == check_id)
            .collect()
    }
}

/// Per-file ingest state beside the file's text in the source map.
#[derive(Debug)]
struct RawFile {
    module: String,
    hash: OnceLock<u64>, // `content_hash(path, text)`, given or on first need
}

/// Per-file result of the file round, produced by one (possibly
/// worker-side) task and merged on the caller thread in file order.
#[derive(Default)]
struct FileOutcome {
    /// The file's complete record, fresh or cached; `None` for a file
    /// that fell to tier 3 (`estimate`) or was dropped.
    facts: Option<Arc<FileFacts>>,
    estimate: Option<TokenEstimate>,
    /// Parse-phase faults.
    faults: Vec<Fault>,
    /// Faults of the task's rule part, logged after the rule gates'.
    check_faults: Vec<Fault>,
    /// A fresh tier-1 record, fit for write-back if no rule failed.
    cache_ok: bool,
    /// The user pack's file-scoped findings on the record (`None` when
    /// the pack has no file-scoped rule or the file has no record).
    user: Option<Arc<Vec<Diagnostic>>>,
    /// Whether `user` was evaluated here (not replayed from a memo).
    user_fresh: bool,
    /// Faults of the user pack's file-scoped rules.
    user_faults: Vec<Fault>,
}

/// The rules a file task runs, decided once per run.
struct FileRules<'a> {
    /// The non-gated file-local natives, in registry order.
    natives: Vec<&'a dyn Check>,
    /// The non-gated file-scoped query rules: the bundled pack's, then
    /// the user pack's.
    queries: QueryPass<'a>,
    /// How many of `queries` are bundled: their findings go in the
    /// record.
    bundled: usize,
    /// The user pack's part of `queries`, for a record served from
    /// cache.
    user: QueryPass<'a>,
    /// The resident store and the user pack's fingerprint, when the run
    /// may use the store's memos.
    memo: Option<(&'a MemoryFactsStore, u64)>,
}

/// A run's whole-program results: replayed from the resident store's
/// program slot, or derived from the run's facts records.
enum Program<'a> {
    Memo(Arc<ProgramMemo>),
    Fresh(Box<FreshProgram<'a>>),
}

/// The inputs and findings of a whole-program pass over facts.
struct FreshProgram<'a> {
    /// Facts records in stable file order — the single source for every
    /// cross-file assembly, fresh and cached alike.
    records: Vec<FactsRecord<'a>>,
    graph: CallGraph<'a>,
    /// The sorted recursive-function set, from the graph's one Tarjan
    /// pass.
    recursive: Vec<String>,
    /// Program-scoped findings, in emission order.
    diags: Vec<Diagnostic>,
}

/// A file that survived parsing (fresh or cached) in pipeline position,
/// with its file-local diagnostics in its record.
struct LoadedFile {
    file_idx: usize,
    id: FileId,
    facts: Arc<FileFacts>,
}

/// The assessment driver. Add files, then [`Assessment::run`].
#[derive(Debug, Default)]
pub struct Assessment {
    sources: SourceMap,
    files: Vec<RawFile>,
    faults: Vec<Fault>, // `add_fault`'s, ahead of `ingest_faults`
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
        self.push_file(module, path, Arc::new(text.to_string()), OnceLock::new(), 0)
    }

    /// Adds one source file from raw bytes, copying valid UTF-8 once.
    /// Invalid UTF-8 is replaced lossily and recorded as an ingest
    /// fault — the file still flows through the full ladder rather
    /// than being rejected.
    pub fn add_file_bytes(&mut self, module: &str, path: &str, bytes: &[u8]) -> &mut Self {
        let (text, replaced) = decode_lossy(bytes.to_vec());
        self.push_file(module, path, Arc::new(text), OnceLock::new(), replaced)
    }

    /// Adds an already decoded and hashed source under a module. Its
    /// text is shared, not copied, and its hash is not recomputed; a
    /// lossy decode records the same ingest fault
    /// [`add_file_bytes`](Self::add_file_bytes) would, on every add.
    pub fn add_source(&mut self, module: &str, source: &DecodedSource) -> &mut Self {
        let DecodedSource {
            path,
            text,
            hash,
            replaced,
        } = source;
        self.push_file(
            module,
            path,
            Arc::clone(text),
            OnceLock::from(*hash),
            *replaced,
        )
    }

    fn push_file(
        &mut self,
        module: &str,
        path: &str,
        text: Arc<String>,
        hash: OnceLock<u64>,
        replaced: usize,
    ) -> &mut Self {
        if replaced > 0 {
            self.ingest_faults.push(Fault {
                phase: FaultPhase::Ingest,
                path: path.to_string(),
                severity: FaultSeverity::Degraded,
                cause: FaultCause::NonUtf8 { replaced },
                recovery: Recovery::ResyncParse,
                run_id: String::new(),
            });
        }
        self.sources.add_shared(path, text);
        self.files.push(RawFile {
            module: module.to_string(),
            hash,
        });
        self
    }

    /// The ingested sources in add order (a file's `FileId` is its
    /// position): the map [`run`](Self::run)'s diagnostics render against.
    pub fn sources(&self) -> &SourceMap {
        &self.sources
    }

    /// Every file's `content_hash(path, text)` in add order, for the
    /// corpus digest; computed at most once, shared with cache lookups.
    pub fn content_hashes(&self) -> Vec<u64> {
        (0..self.files.len()).map(|i| self.file_hash(i)).collect()
    }

    fn file_hash(&self, i: usize) -> u64 {
        *self.files[i].hash.get_or_init(|| {
            let file = &self.sources.files()[i];
            content_hash(file.path(), file.text())
        })
    }

    /// Records a fault observed before the pipeline ran (e.g. a torn
    /// ledger line noticed while reserving the run ID). Such faults lead
    /// the report's log in the order recorded, ahead of ingest faults.
    pub fn add_fault(&mut self, fault: Fault) -> &mut Self {
        self.faults.push(fault);
        self
    }

    /// Runs metrics, checkers, and the compliance engine with per-item
    /// panic containment. Never panics on any input; every contained
    /// failure is in the returned report's `faults`.
    ///
    /// The whole run executes under an `assessment.run` trace span with
    /// one `phase.*` span per pipeline phase and one `parse.file` span
    /// per input; the drained events become the report's
    /// [`AssessmentReport::trace`] summary, with the counter
    /// increments and allocations of the run's own trace scope. Worker
    /// scopes are absorbed into the caller's when `jobs > 1`.
    pub fn run(&self) -> AssessmentReport {
        let scope = adsafe_trace::mark();
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
        for f in self.faults.iter().chain(&self.ingest_faults) {
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

        // Phase 1: one task per file, descending the ladder. File ids
        // were assigned in add order (so they are identical run-to-run
        // and across worker counts); the per-file work fans out, and
        // each task returns its file's complete record.
        let phase_span = adsafe_trace::span("phase.parse", "phase");
        // Rule gates (failpoints, the checks deadline) are decided once,
        // on the caller thread, before the file round, over native and
        // query ids alike, so a gated rule is skipped wholesale. Their
        // faults join the log after the parse faults.
        let checks = default_checks();
        let gate_deadline = PhaseDeadline::new(&budgets);
        let mut skipped: HashSet<&'static str> = HashSet::new();
        let mut gate_faults: Vec<Fault> = Vec::new();
        let mut deadline_cut = false;
        let query_rules = crate::query::query_rules(self.options.rules.as_deref());
        let rule_ids = checks
            .iter()
            .map(|c| c.id())
            .chain(query_rules.map(|r| r.id));
        for id in rule_ids {
            if !deadline_cut && gate_deadline.exceeded() {
                deadline_cut = true;
                gate_faults.push(Fault {
                    phase: FaultPhase::Checks,
                    path: id.to_string(),
                    severity: FaultSeverity::Degraded,
                    cause: FaultCause::DeadlineExceeded {
                        budget_ms: budgets.budget_ms(),
                    },
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
                gate_faults.push(check_fault(id.to_string(), &panic_message(&*payload)));
                skipped.insert(id);
            }
        }
        let natives: Vec<&dyn Check> = checks
            .iter()
            .map(|c| c.as_ref())
            .filter(|c| c.scope() == CheckScope::File && !skipped.contains(c.id()))
            .collect();
        // The file-scoped query rules run in the file task too: the
        // bundled pack's findings are cached with the record like a
        // native's, the user pack's are memoised beside it by a resident
        // store. The program-scoped rules run after the round (phase 2).
        let user = self.options.rules.as_deref();
        let (file_queries, run_queries): (Vec<_>, Vec<_>) = crate::query::query_rules(user)
            .filter(|r| !skipped.contains(r.id))
            .partition(|r| r.scope == CheckScope::File);
        let bundled = crate::query::query_rules(None)
            .filter(|r| r.scope == CheckScope::File && !skipped.contains(r.id))
            .count();
        // The store's memos serve only runs that gate no rule, arm no
        // failpoint and set no deadline: their results are then a
        // function of the files and the pack alone.
        let memo = self.options.store.as_deref().filter(|_| {
            skipped.is_empty() && failpoints::armed() == 0 && budgets.phase_deadline.is_none()
        });
        let pack = memo.map_or(0, |_| crate::query::pack_fingerprint(user));
        let queries = QueryPass::new(file_queries);
        let rules = FileRules {
            natives,
            user: queries.tail(bundled),
            queries,
            bundled,
            memo: memo.map(|s| (s, pack)),
        };

        let sm = &self.sources;
        let deadline = PhaseDeadline::new(&budgets);
        let outcomes = pool.map((0..self.files.len()).collect(), |_, i| {
            self.analyse_file(i, &deadline, &budgets, cache, &rules)
        });

        // Every file-local diagnostic enters the run here, from its
        // record and its user-pack findings: filtered by `skipped`, so a
        // gated rule stays silent in every cache state, and bound to this
        // run's `FileId` (a resident record or memo keeps the ids of the
        // run that built it). Write-back stores only fully-clean fresh
        // records (tier-1 parse, no rule fault) from runs that gated no
        // rule: an entry must replay the complete rule set, and
        // recoverable faults must recur. A memo is kept on the same
        // terms.
        let write_back = if skipped.is_empty() { cache } else { None };
        let mut loaded: Vec<LoadedFile> = Vec::new();
        let mut estimates: Vec<(String, TokenEstimate)> = Vec::new();
        let mut check_faults: Vec<Fault> = Vec::new();
        let mut diagnostics: Vec<Diagnostic> = Vec::new();
        for (i, res) in outcomes.into_iter().enumerate() {
            let path = sm.files()[i].path();
            let o = match res {
                Ok(o) => o,
                Err(payload) => {
                    // The task itself panicked outside its internal
                    // containment — treat as an unrecoverable file.
                    adsafe_trace::counter("parse.dropped.files").incr();
                    log.push(Fault {
                        phase: FaultPhase::Parse,
                        path: path.to_string(),
                        severity: FaultSeverity::Lost,
                        cause: classify_panic(&panic_message(&*payload)),
                        recovery: Recovery::Dropped,
                        run_id: String::new(),
                    });
                    continue;
                }
            };
            for f in o.faults {
                log.push(f);
            }
            if let Some(est) = o.estimate {
                estimates.push((self.files[i].module.clone(), est));
            }
            let Some(facts) = o.facts else { continue };
            if let Some(c) = write_back.filter(|_| o.cache_ok && o.check_faults.is_empty()) {
                c.store_shared(self.file_hash(i), path, Arc::clone(&facts));
            }
            if let (Some((store, pack)), Some(user)) = (rules.memo, &o.user) {
                if o.user_fresh && o.user_faults.is_empty() {
                    store.store_file_memo(
                        self.file_hash(i),
                        pack,
                        &self.files[i].module,
                        user.clone(),
                    );
                }
            }
            check_faults.extend(o.check_faults.into_iter().chain(o.user_faults));
            let id = sm.files()[i].id();
            let user = o.user.as_deref().map_or(&[][..], Vec::as_slice);
            diagnostics.extend(
                facts
                    .diags
                    .iter()
                    .chain(user)
                    .filter(|d| !skipped.contains(d.check_id))
                    .map(|d| {
                        let mut d = d.clone();
                        d.span.file = id;
                        d
                    }),
            );
            loaded.push(LoadedFile {
                file_idx: i,
                id,
                facts,
            });
        }
        note_phase_overrun(&mut log, FaultPhase::Parse, deadline.start, &budgets);
        drop(phase_span);
        for f in gate_faults.into_iter().chain(check_faults) {
            log.push(f);
        }

        // The program slot serves clean input only: every file parsed at
        // tier 1 or served from cache, and no ingest fault. A run that
        // derives its results keeps them there if no fault joins the log
        // from here to the end of the program pass.
        let clean = self.ingest_faults.is_empty()
            && loaded.len() == self.files.len()
            && loaded.iter().all(|l| l.facts.recovery_count == 0);
        let slot = memo.filter(|_| clean).map(|s| {
            let (set, digest) = self.program_keys();
            (s, set, digest)
        });
        let faults_before = log.len();

        // Phase 2: the whole-program checks. Native/query sub-phases
        // are *always* emitted, pack or no pack, memo or none: the
        // report's phase set must not depend on options or store state,
        // or `adsafe trace-compare` would flag a missing phase instead of
        // a regression.
        let phase_span = adsafe_trace::span("phase.checks", "phase");
        let checks_start = Instant::now();
        let native_span = adsafe_trace::span("phase.checks.native", "phase");
        let memo_hit = slot.and_then(|(s, set, digest)| s.program_memo(set, digest, pack));
        let mut program = match memo_hit {
            Some(m) => {
                diagnostics.extend(m.diags.iter().cloned());
                Program::Memo(m)
            }
            None => {
                let records: Vec<FactsRecord<'_>> = loaded
                    .iter()
                    .map(|l| (l.id, self.files[l.file_idx].module.as_str(), &*l.facts))
                    .collect();
                let graph = facts::call_graph(&records);
                let mut p = FreshProgram {
                    records,
                    graph,
                    recursive: Vec::new(),
                    diags: Vec::new(),
                };
                p.native_rules(&checks, &skipped, &mut log);
                Program::Fresh(Box::new(p))
            }
        };
        drop(native_span);

        // The query rules the file round did not run — the program-scoped
        // ones, bundled and user — evaluated from facts, fresh and cached
        // files alike, no reparse. These findings join the report and the
        // evidence, but never a facts record: they need the whole
        // program.
        let query_span = adsafe_trace::span("phase.checks.query", "phase");
        if let Program::Fresh(p) = &mut program {
            p.query_rules(run_queries, &loaded, &self.files, sm, &mut log);
            // A run that keeps its findings in a slot replays a copy.
            if slot.is_some() {
                diagnostics.extend(p.diags.iter().cloned());
            } else {
                diagnostics.append(&mut p.diags);
            }
        }
        drop(query_span);

        // One canonical order for the *complete* list — file-local
        // records, program-scoped rules, and the remaining query rules — so
        // repeated runs over the same corpus render byte-identical
        // reports regardless of worker count or cache state. The sort
        // is stable, and no two merge sources share a (rule, file)
        // group, so within-group emission order is preserved exactly.
        adsafe_checkers::sort_canonical(&mut diagnostics);
        adsafe_trace::counter("checks.diagnostics").add(diagnostics.len() as u64);
        note_phase_overrun(&mut log, FaultPhase::Checks, checks_start, &budgets);
        drop(phase_span);

        // Phase 3: module metrics from facts, isolated per module, with
        // token-only fallback so a module never vanishes from Figure 3.
        let phase_span = adsafe_trace::span("phase.metrics", "phase");
        let deadline = PhaseDeadline::new(&budgets);
        let mut modules = match &program {
            Program::Memo(m) => {
                let files = m.modules.iter().map(|m| m.file_count as u64).sum();
                adsafe_trace::counter("metrics.module.files").add(files);
                m.modules.clone()
            }
            Program::Fresh(_) => self.module_round(&pool, &loaded, &deadline, &budgets, &mut log),
        };
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
        let unit = assess_step(
            &mut log,
            "unit-design-stats",
            || {
                failpoints::hit("pipeline::assess");
                match &program {
                    Program::Memo(m) => m.unit.clone(),
                    Program::Fresh(p) => facts::unit_stats_from_facts(&p.records, &p.recursive),
                }
            },
            UnitDesignStats::default,
        );
        let mut cross = None;
        let evidence = assess_step(
            &mut log,
            "evidence",
            || {
                let c = match &program {
                    Program::Memo(m) => m.cross.clone(),
                    Program::Fresh(p) => cross_file(&p.records, &p.graph),
                };
                let evidence = self.assemble_evidence(&modules, &unit, &c, &diagnostics);
                cross = Some(c);
                evidence
            },
            || Evidence {
                total_loc: modules.iter().map(|m| m.loc.nloc).sum(),
                coverage: self.options.coverage,
                ..Evidence::default()
            },
        );
        let asil = self.options.asil;
        let compliance = assess_step(
            &mut log,
            "compliance",
            || assess(&evidence, asil),
            || ComplianceReport {
                asil,
                verdicts: Vec::new(),
            },
        );
        let observations = assess_step(
            &mut log,
            "observations",
            || observations(&evidence),
            Vec::new,
        );

        // A fault-free pass keeps its results for the next run over the
        // same files.
        if let (Program::Fresh(p), Some((store, set, digest)), Some(cross)) = (program, slot, cross)
        {
            if log.len() == faults_before {
                let memo = ProgramMemo {
                    diags: p.diags,
                    modules: modules.clone(),
                    unit: unit.clone(),
                    cross,
                };
                store.store_program_memo(set, digest, pack, memo);
            }
        }
        // The run's records, graph and cache handles die inside its
        // last phase: its time includes them.
        drop(loaded);
        drop(disk_cache);
        drop(phase_span);
        drop(run_span);
        // Read first, so the summary's own bookkeeping is not billed to
        // the run. Empty unless a `CountingAlloc` is installed with
        // profiling on; the phase spans above drove the billing tags.
        let phase_mem = scope.phase_mem();
        let mut trace =
            TraceSummary::from_events(adsafe_trace::drain_from(&scope), scope.counters());
        trace.phase_mem = phase_mem;

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
        modules: &[ModuleMetrics],
        unit: &UnitDesignStats,
        cross: &CrossFile,
        diagnostics: &[Diagnostic],
    ) -> Evidence {
        // Findings per rule id, in one pass over the list `run` sorted
        // by rule id.
        let per_rule: Vec<(&str, usize)> = diagnostics
            .chunk_by(|a, b| a.check_id == b.check_id)
            .map(|group| (group[0].check_id, group.len()))
            .collect();
        let count = |id: &str| {
            per_rule
                .iter()
                .find(|(r, _)| *r == id)
                .map_or(0, |&(_, n)| n)
        };
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

        let gpu = GpuEvidence {
            closed_source_calls: count("cuda-closed-source-lib"),
            language_subset_available: false,
            coverage_tool_available: false,
            ..cross.gpu.clone()
        };

        // Architecture metrics.
        let mean_cohesion = if modules.is_empty() {
            1.0
        } else {
            modules.iter().map(|m| m.cohesion).sum::<f64>() / modules.len() as f64
        };
        let parsed_functions: usize = modules.iter().map(|m| m.parsed_functions).sum();
        let mean_interface_params = if modules.is_empty() {
            0.0
        } else {
            modules
                .iter()
                .map(|m| m.mean_params * m.parsed_functions as f64)
                .sum::<f64>()
                / parsed_functions.max(1) as f64
        };

        Evidence {
            total_loc: modules.iter().map(|m| m.loc.nloc).sum(),
            total_functions: modules.iter().map(|m| m.histogram.total).sum(),
            functions_over_cc10: modules.iter().map(|m| m.histogram.over_10).sum(),
            functions_over_cc20: modules.iter().map(|m| m.histogram.over_20).sum(),
            functions_over_cc50: modules.iter().map(|m| m.histogram.over_50).sum(),
            module_locs: modules
                .iter()
                .map(|m| (m.name.clone(), m.loc.nloc))
                .collect(),
            misra_violations,
            explicit_casts: count("typing-explicit-cast"),
            implicit_conversions: count("typing-implicit-conversion"),
            validation_ratio: cross.validation_ratio,
            unchecked_calls: count("defensive-unchecked-return"),
            global_definitions: unit.global_definitions,
            style_findings,
            naming_findings,
            mean_cohesion,
            coupling_edges: cross.coupling_edges,
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

    /// Keys of this run's program slot: its file set (the ordered paths
    /// and modules), and the set's digest with every file's content
    /// hash.
    fn program_keys(&self) -> (u64, u64) {
        use std::hash::{Hash, Hasher};
        let mut set = std::hash::DefaultHasher::new();
        for (file, raw) in self.sources.files().iter().zip(&self.files) {
            (file.path(), &raw.module).hash(&mut set);
        }
        let mut digest = set.clone();
        self.content_hashes().hash(&mut digest);
        (set.finish(), digest.finish())
    }

    /// Phase 3's pool round: one task per module, folding its facts
    /// records under panic containment, with token-only fallback for a
    /// module whose task fails or misses the deadline. Counts
    /// `metrics.module.files` over the folded modules.
    fn module_round(
        &self,
        pool: &Pool,
        loaded: &[LoadedFile],
        deadline: &PhaseDeadline,
        budgets: &Budgets,
        log: &mut FaultLog,
    ) -> Vec<ModuleMetrics> {
        let sm = &self.sources;
        let mut seen = HashSet::new();
        let mut module_order: Vec<&str> = Vec::new();
        for l in loaded {
            let m = self.files[l.file_idx].module.as_str();
            if seen.insert(m) {
                module_order.push(m);
            }
        }
        let module_results = pool.map(module_order.clone(), |_, m| {
            if deadline.exceeded() {
                return Err(FaultCause::DeadlineExceeded {
                    budget_ms: budgets.budget_ms(),
                });
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
        // The file tally is counted here, on the caller: a module task
        // touches no counter, so no worker's counter storage depends on
        // how many modules it happened to claim.
        let mut module_files = 0u64;
        let mut modules: Vec<ModuleMetrics> = Vec::new();
        for (m, res) in module_order.iter().zip(module_results) {
            let flat = match res {
                Ok(inner) => inner,
                Err(payload) => Err(classify_panic(&panic_message(&*payload))),
            };
            match flat {
                Ok(mm) => {
                    module_files += mm.file_count as u64;
                    modules.push(mm);
                }
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
        adsafe_trace::counter("metrics.module.files").add(module_files);
        modules
    }

    /// The user pack's file-scoped findings on a record served from
    /// cache: the resident memo's when it holds them, else evaluated
    /// here.
    fn user_findings(&self, out: &mut FileOutcome, i: usize, facts: &FileFacts, rules: &FileRules) {
        if rules.user.rules().is_empty() {
            return;
        }
        let module = &self.files[i].module;
        if let Some((store, pack)) = rules.memo {
            if let Some(diags) = store.file_memo(self.file_hash(i), pack, module) {
                out.user = Some(diags);
                return;
            }
        }
        let file = &self.sources.files()[i];
        let outcomes = file_queries(&rules.user, file.id(), module, facts, file.path());
        let (diags, faults) = split_outcomes(outcomes);
        out.user = Some(Arc::new(diags));
        out.user_fresh = true;
        out.user_faults = faults;
    }

    /// The per-file task: cache lookup; else parse + facts extraction
    /// under panic containment, descending the degradation ladder on
    /// failure, then every native of `rules` over the tree, which dies
    /// here, then every query rule of `rules` over the facts record.
    /// A record served from cache gets only the user pack's rules, or
    /// their memoised findings. Runs on a worker when `jobs > 1`, inline
    /// otherwise; the worker's trace scope (spans, counters,
    /// allocations) is absorbed back into the caller's.
    fn analyse_file(
        &self,
        i: usize,
        deadline: &PhaseDeadline,
        budgets: &Budgets,
        cache: Option<&dyn FactsStore>,
        rules: &FileRules,
    ) -> FileOutcome {
        let sm = &self.sources;
        let file = &sm.files()[i];
        let (id, path, text) = (file.id(), file.path(), file.text());
        let _file_span =
            adsafe_trace::span_with("parse.file", "parse", vec![("path", path.to_string())]);
        let mut out = FileOutcome::default();
        if deadline.exceeded() {
            if deadline.trip_once() {
                out.faults.push(Fault {
                    phase: FaultPhase::Parse,
                    path: path.to_string(),
                    severity: FaultSeverity::Degraded,
                    cause: FaultCause::DeadlineExceeded {
                        budget_ms: budgets.budget_ms(),
                    },
                    recovery: Recovery::TokenMetrics,
                    run_id: String::new(),
                });
            }
            // Past the deadline: token-only estimation (cheap, total)
            // keeps every remaining file contributing evidence.
            if let Ok(est) = catch_unwind(AssertUnwindSafe(|| token_estimate(id, text))) {
                adsafe_trace::counter("parse.tier3.files").incr();
                out.estimate = Some(est);
            }
            return out;
        }
        if let Some(c) = cache {
            match c.load_at(self.file_hash(i), id, path) {
                CacheLookup::Hit(facts) => {
                    adsafe_trace::counter("parse.cached.files").incr();
                    self.user_findings(&mut out, i, &facts, rules);
                    out.facts = Some(facts);
                    return out;
                }
                CacheLookup::Corrupt(detail) => {
                    // Cold path from here on; the entry was evicted and a
                    // clean one will be written back after the task.
                    out.faults.push(Fault {
                        phase: FaultPhase::Parse,
                        path: path.to_string(),
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
            failpoints::hit(&format!("pipeline::parse_file::{path}"));
            let p = adsafe_lang::parse_source(id, text);
            let facts = facts::extract_facts(sm, id, &p);
            (p, facts)
        }));
        match parsed {
            Ok((p, mut facts)) => {
                let regions = p.unit.recovery_count;
                if regions > 0 {
                    adsafe_trace::counter("parse.tier2.files").incr();
                    out.faults.push(Fault {
                        phase: FaultPhase::Parse,
                        path: path.to_string(),
                        severity: FaultSeverity::Degraded,
                        cause: FaultCause::ParseResync { regions },
                        recovery: Recovery::ResyncParse,
                        run_id: String::new(),
                    });
                } else {
                    adsafe_trace::counter("parse.tier1.files").incr();
                    out.cache_ok = true;
                }
                // A panic outside rule containment keeps the file's
                // facts, costs its diagnostics, and names the file.
                let module = &self.files[i].module;
                let record = &facts;
                let checked = catch_unwind(AssertUnwindSafe(move || {
                    let mut diags = Vec::new();
                    let mut faults = Vec::new();
                    let entry = FileEntry {
                        file,
                        unit: &p.unit,
                        module,
                    };
                    let cx = CheckContext::file_local(sm, entry);
                    for &check in &rules.natives {
                        match run_one_check(&Failpointed { check, path }, &cx) {
                            Ok(d) => diags.extend(d),
                            Err(e) => faults.push(check_fault(e.check_id.to_string(), &e.message)),
                        }
                    }
                    drop(p);
                    let mut outcomes = file_queries(&rules.queries, id, module, record, path);
                    let user = split_outcomes(outcomes.split_off(rules.bundled));
                    let (found, failed) = split_outcomes(outcomes);
                    diags.extend(found);
                    faults.extend(failed);
                    (diags, faults, user)
                }));
                match checked {
                    Ok((diags, faults, (user, user_faults))) => {
                        facts.diags = diags;
                        out.check_faults = faults;
                        if !rules.user.rules().is_empty() {
                            if rules.memo.is_some() {
                                adsafe_trace::counter("store.memo.file.misses").incr();
                            }
                            out.user = Some(Arc::new(user));
                            out.user_fresh = true;
                            out.user_faults = user_faults;
                        }
                    }
                    Err(payload) => out
                        .check_faults
                        .push(check_fault(path.to_string(), &panic_message(&*payload))),
                }
                out.facts = Some(Arc::new(facts));
            }
            Err(payload) => {
                let cause = classify_panic(&panic_message(&*payload));
                match catch_unwind(AssertUnwindSafe(|| token_estimate(id, text))) {
                    Ok(est) => {
                        adsafe_trace::counter("parse.tier3.files").incr();
                        out.estimate = Some(est);
                        out.faults.push(Fault {
                            phase: FaultPhase::Parse,
                            path: path.to_string(),
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
                            path: path.to_string(),
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
    let Some(deadline) = budgets.phase_deadline else {
        return;
    };
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
        cause: FaultCause::DeadlineOverrun {
            budget_ms,
            actual_ms,
        },
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

/// Runs one assess-phase step under panic containment. A panic costs the
/// step: it is logged as a critical fault naming `path`, and the step
/// yields `fallback()`, a conservative default.
fn assess_step<T>(
    log: &mut FaultLog,
    path: &str,
    step: impl FnOnce() -> T,
    fallback: impl FnOnce() -> T,
) -> T {
    catch_unwind(AssertUnwindSafe(step)).unwrap_or_else(|payload| {
        log.push(Fault {
            phase: FaultPhase::Assess,
            path: path.to_string(),
            severity: FaultSeverity::Critical,
            cause: classify_panic(&panic_message(&*payload)),
            recovery: Recovery::FallbackDefault,
            run_id: String::new(),
        });
        fallback()
    })
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

/// Runs the file-scoped query rules of `pass` over one file's record:
/// each rule's findings, in pass order, or its contained failure as a
/// fault naming the rule and `path`. Counts `checks.rule.<id>.diags`
/// and `query.vm.steps`. File-scoped rules read no recursive set.
fn file_queries(
    pass: &QueryPass<'_>,
    id: FileId,
    module: &str,
    facts: &FileFacts,
    path: &str,
) -> Vec<Result<Vec<Diagnostic>, Fault>> {
    if pass.rules().is_empty() {
        return Vec::new();
    }
    let mut steps = 0;
    let outcomes = pass.eval_file(id, module, facts, &[]);
    let out = pass
        .rules()
        .iter()
        .zip(outcomes)
        .map(|(rule, outcome)| match outcome {
            Ok((d, n)) => {
                steps += n;
                adsafe_trace::counter(&format!("checks.rule.{}.diags", rule.id))
                    .add(d.len() as u64);
                Ok(d)
            }
            Err(msg) => Err(check_fault(format!("{} on {path}", rule.id), &msg)),
        })
        .collect();
    adsafe_trace::counter("query.vm.steps").add(steps);
    out
}

/// The findings and the faults of [`file_queries`] outcomes, in order.
fn split_outcomes(outcomes: Vec<Result<Vec<Diagnostic>, Fault>>) -> (Vec<Diagnostic>, Vec<Fault>) {
    let mut diags = Vec::new();
    let mut faults = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(d) => diags.extend(d),
            Err(f) => faults.push(f),
        }
    }
    (diags, faults)
}

/// The cross-file evidence inputs over `graph`, which
/// [`facts::call_graph`] built from these `records`.
fn cross_file(records: &[FactsRecord<'_>], graph: &CallGraph<'_>) -> CrossFile {
    let mut gpu = GpuEvidence::default();
    for (_, _, facts) in records {
        for f in &facts.functions {
            if f.is_kernel {
                gpu.kernel_count += 1;
                gpu.kernel_pointer_params += f.ptr_params;
            }
            gpu.device_alloc_sites += f.alloc_calls;
        }
    }
    CrossFile {
        coupling_edges: facts::coupling_edges(records, graph),
        validation_ratio: facts::validation_ratio_from_facts(records),
        gpu,
    }
}

impl FreshProgram<'_> {
    /// Program-scoped native rules, once, from facts, on the caller
    /// thread — they need the whole program, not one file. The set is
    /// pinned by a test in adsafe-checkers; a future program-scoped
    /// rule must be given a facts replay here.
    fn native_rules(
        &mut self,
        checks: &[Box<dyn Check>],
        skipped: &HashSet<&str>,
        log: &mut FaultLog,
    ) {
        let globals = facts::global_names(&self.records);
        for c in checks {
            if c.scope() != CheckScope::Program || skipped.contains(c.id()) {
                continue;
            }
            let id = c.id();
            let _sp = adsafe_trace::span(format!("check.{id}"), "checks");
            let result = catch_unwind(AssertUnwindSafe(|| match id {
                "design-global-use" => facts::global_use_diags(&self.records, &globals),
                _ => Vec::new(),
            }));
            match result {
                Ok(diags) => {
                    adsafe_trace::counter(&format!("checks.rule.{id}.diags"))
                        .add(diags.len() as u64);
                    self.diags.extend(diags);
                }
                Err(payload) => log.push(check_fault(id.to_string(), &panic_message(&*payload))),
            }
        }
    }

    /// The program-scoped query rules `rules`, in one pass per file that
    /// builds each selector's borrowed rows once, with the recursive set
    /// from the graph's one Tarjan pass (which also feeds the Table 8
    /// unit statistics). The pass runs on the caller thread: one more
    /// round of scoped pool threads per run made the allocator open
    /// fresh arenas, raising a repeated cold run's peak RSS by ~100 MB.
    fn query_rules(
        &mut self,
        rules: Vec<&adsafe_query::CompiledRule>,
        loaded: &[LoadedFile],
        files: &[RawFile],
        sm: &SourceMap,
        log: &mut FaultLog,
    ) {
        self.recursive = self.graph.recursive_functions();
        let live = QueryPass::new(rules);
        let mut per_rule = vec![0u64; live.rules().len()];
        let mut steps_total = 0u64;
        for l in loaded {
            let module = &files[l.file_idx].module;
            let outcomes = live.eval_file(l.id, module, &l.facts, &self.recursive);
            for (qi, outcome) in outcomes.into_iter().enumerate() {
                match outcome {
                    Ok((diags, steps)) => {
                        steps_total += steps;
                        per_rule[qi] += diags.len() as u64;
                        self.diags.extend(diags);
                    }
                    Err(msg) => {
                        let path = sm.file(l.id).path();
                        log.push(check_fault(
                            format!("{} on {}", live.rules()[qi].id, path),
                            &msg,
                        ))
                    }
                }
            }
        }
        adsafe_trace::counter("query.vm.steps").add(steps_total);
        for (rule, n) in live.rules().iter().zip(per_rule) {
            adsafe_trace::counter(&format!("checks.rule.{}.diags", rule.id)).add(n);
        }
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
        failpoints::hit(&format!(
            "pipeline::check::{}::{}",
            self.check.id(),
            self.path
        ));
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

    /// A tier-3 file's estimated functions count toward the evidence's
    /// function total and CC bands and Figure 3's bars; the interface
    /// size stays a mean over the parsed functions.
    #[test]
    fn tier3_estimates_reach_function_and_cc_counts() {
        let _g = failpoints::Armed::new(
            "pipeline::parse_file::m/a.cc",
            failpoints::Action::Panic("parser bug".into()),
        );
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        // One estimated function: 1 + 12 branch tokens = CC 13.
        let busy: String = (0..12).map(|i| format!("if (x > {i}) x--; ")).collect();
        let mut a = Assessment::new();
        a.add_file(
            "m",
            "m/a.cc",
            &format!("int busy(int x) {{ {busy}return x; }}\n"),
        );
        a.add_file("m", "m/b.cc", "int g(int y, int z) { return y + z; }\n");
        let r = a.run();
        std::panic::set_hook(prev);
        assert_eq!(r.modules[0].absorbed_files, 1);
        let e = &r.evidence;
        assert_eq!(
            (
                e.total_functions,
                e.functions_over_cc10,
                e.functions_over_cc20,
                e.functions_over_cc50
            ),
            (2, 1, 0, 0)
        );
        assert_eq!(e.mean_interface_params, 2.0);
        let fig = crate::render::fig3(&r);
        let bar = |name: &str| {
            fig.series
                .iter()
                .find(|(n, _)| n == name)
                .unwrap()
                .1
                .clone()
        };
        assert_eq!(
            (bar("functions"), bar("CC > 10"), bar("CC > 20")),
            (vec![2.0], vec![1.0], vec![0.0])
        );
    }

    #[test]
    fn non_utf8_input_is_ingestible() {
        let mut a = Assessment::new();
        a.add_file_bytes(
            "m",
            "weird.cc",
            b"int f() { return 1; }\n\xff\xfe\x00junk\n",
        );
        // U+FFFD on a disabled line keeps its three bytes: tier 1 parse.
        a.add_file_bytes(
            "m",
            "pp.cc",
            b"#if 0\n\xff\n#endif\nint g() { return 2; }\n",
        );
        let r = a.run();
        assert!(r.degraded);
        assert!(r.faults.iter().any(|f| {
            f.phase == FaultPhase::Ingest && matches!(f.cause, FaultCause::NonUtf8 { .. })
        }));
        assert!(r
            .faults
            .iter()
            .all(|f| f.path != "pp.cc" || f.phase == FaultPhase::Ingest));
        assert_eq!(
            (r.modules[0].file_count, r.modules[0].absorbed_files),
            (2, 0)
        );
    }

    #[test]
    fn parse_deadline_sends_remaining_files_to_tier3() {
        let _g = failpoints::Armed::new(
            "pipeline::parse_file",
            failpoints::Action::Delay(Duration::from_millis(25)),
        );
        let mut a = Assessment::new().with_options(AssessmentOptions {
            budgets: Budgets {
                phase_deadline: Some(Duration::from_millis(10)),
            },
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
