//! Determinism and incrementality guarantees of the parallel pipeline:
//! reports must be byte-identical across worker counts and cache
//! states, warm cache runs must actually skip work, and every cache
//! invalidation path (content change, fingerprint change, corruption)
//! must fall back to a correct cold analysis.
//!
//! Counter assertions read each report's own trace scope, so these
//! tests run concurrently with no lock; `tests/run_isolation.rs` pins
//! that concurrent runs report exactly their solo numbers. Only the
//! speedup assertion needs the cores to itself (see [`cpu_lock`]).

use adsafe::render::deterministic_report_markdown;
use adsafe::trace::alloc;
use adsafe::{Assessment, AssessmentOptions, AssessmentReport, FaultCause, FaultSeverity};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Instrumented allocator for the memory-determinism test below; it
/// counts nothing until that test flips profiling on.
#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Held by the tests that assess the test-scale corpus: the speedup
/// assertion times wall clock, so the other heavy runs wait for it.
fn cpu_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_cache_dir(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "adsafe-parallel-test-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A small but representative source set: C++, CUDA, a header, rule
/// findings across several checkers, and two modules.
fn sample_files() -> Vec<(&'static str, &'static str, String)> {
    vec![
        (
            "perception",
            "perception/track.cc",
            "int g_tracks;\n\
             int Update(int* state, int delta) {\n\
               if (delta < 0) return -1;\n\
               g_tracks = g_tracks + 1;\n\
               *state = *state + delta;\n\
               return (int)(*state * 1.5f);\n\
             }\n"
                .to_string(),
        ),
        (
            "perception",
            "perception/detect.cu",
            adsafe::corpus::yolo::SCALE_BIAS_CU.to_string(),
        ),
        (
            "perception",
            "perception/track.h",
            "#ifndef WRONG_GUARD_H\n#define WRONG_GUARD_H\nint Update(int* state, int delta);\n#endif\n".to_string(),
        ),
        (
            "control",
            "control/pid.cc",
            "static int s_calls;\n\
             int Step(int err) {\n\
               int out = 0;\n\
               s_calls = s_calls + 1;\n\
               switch (err) { case 0: out = 0; break; case 1: out = 1; break; }\n\
               goto done;\n\
             done:\n\
               return out;\n\
             }\n"
                .to_string(),
        ),
        (
            "control",
            "control/loop.cc",
            "int Recur(int n) { if (n <= 0) return 0; return Recur(n - 1) + 1; }\n\
             int Helper(int n) { return Recur(n); }\n"
                .to_string(),
        ),
        (
            "control",
            "control/alloc.cc",
            "void* Grab(unsigned long n);\n\
             int Fill(int n) {\n\
               int* p = (int*)Grab((unsigned long)(n * 4));\n\
               if (!p) return -1;\n\
               p[0] = 010;\n\
               return p[0];\n\
             }\n"
                .to_string(),
        ),
    ]
}

fn assess_samples(files: usize, options: AssessmentOptions) -> AssessmentReport {
    let mut a = Assessment::new().with_options(options);
    for (module, path, text) in sample_files().into_iter().take(files) {
        a.add_file(module, path, &text);
    }
    a.run()
}

#[test]
fn reports_byte_identical_across_worker_counts() {
    let _g = cpu_lock();
    let spec = adsafe::corpus::ApolloSpec::test_scale();
    let corpus = adsafe::corpus::generate(&spec);
    let run = |jobs: usize| {
        adsafe::assess_corpus(
            &corpus,
            AssessmentOptions {
                jobs,
                ..AssessmentOptions::default()
            },
        )
    };
    let serial = run(1);
    let baseline = deterministic_report_markdown(&serial);
    for jobs in [4, 8, 0] {
        let r = run(jobs);
        assert_eq!(
            deterministic_report_markdown(&r),
            baseline,
            "report differs at jobs={jobs}"
        );
        assert_eq!(
            r.diagnostics, serial.diagnostics,
            "diagnostics differ at jobs={jobs}"
        );
        assert_eq!(
            format!("{:?}", r.modules),
            format!("{:?}", serial.modules),
            "module metrics differ at jobs={jobs}"
        );
    }
}

#[test]
fn degraded_input_reports_are_invariant_across_workers_and_cache_states() {
    let _g = cpu_lock();
    let corpus = adsafe::corpus::generate(&adsafe::corpus::ApolloSpec::test_scale());
    let victim = corpus
        .iter()
        .find(|f| f.path.ends_with(".cc") && f.text.len() > 2_000)
        .expect("test corpus has a mid-sized .cc file");
    // One corrupted copy per corruption kind, each under its own path.
    let corrupted = adsafe::corpus::faultinject::corrupt_all(11, victim);
    let run = |jobs: usize, cache_dir: Option<PathBuf>| {
        let mut a = Assessment::new().with_options(AssessmentOptions {
            jobs,
            cache_dir,
            ..AssessmentOptions::default()
        });
        for f in &corpus {
            a.add_file(&f.module, &f.path, &f.text);
        }
        for c in &corrupted {
            a.add_file_bytes(
                &c.module,
                &format!("{}.{}.cc", c.path, c.kind.name()),
                &c.bytes,
            );
        }
        a.run()
    };
    let files = (corpus.len() + corrupted.len()) as u64;
    let reference = run(1, None);
    assert!(reference.degraded && !reference.faults.is_empty());
    let expected = deterministic_report_markdown(&reference);
    for jobs in [1, 2] {
        let dir = temp_cache_dir(&format!("degraded-j{jobs}"));
        let cold = run(jobs, Some(dir.clone()));
        let warm = run(jobs, Some(dir.clone()));
        let uncached = run(jobs, None);
        // Degraded files are never written back, so the warm run
        // re-parses them and hits every other file.
        let stored = cold.trace.counter("cache.stores");
        assert!(
            stored < files,
            "jobs {jobs}: a degraded file was written back"
        );
        assert_eq!(warm.trace.counter("cache.hits"), stored, "jobs {jobs}");
        for (state, r) in [("cold", &cold), ("warm", &warm), ("no cache", &uncached)] {
            assert_eq!(
                deterministic_report_markdown(r),
                expected,
                "jobs {jobs}, {state}"
            );
            assert_eq!(
                r.faults, reference.faults,
                "jobs {jobs}, {state}: fault log"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn warm_cache_run_skips_every_file_and_renders_identically() {
    let dir = temp_cache_dir("warm");
    let opts = || AssessmentOptions {
        cache_dir: Some(dir.clone()),
        ..AssessmentOptions::default()
    };
    let n = sample_files().len() as u64;
    let cold = assess_samples(usize::MAX, opts());
    assert_eq!(cold.trace.counter("cache.misses"), n);
    assert_eq!(cold.trace.counter("cache.stores"), n);
    let warm = assess_samples(usize::MAX, opts());
    assert_eq!(
        warm.trace.counter("cache.hits"),
        n,
        "warm run must hit every file"
    );
    assert_eq!(warm.trace.counter("parse.cached.files"), n);
    assert_eq!(
        warm.trace.counter("parse.tier1.files"),
        0,
        "warm run must not re-parse"
    );
    assert_eq!(
        deterministic_report_markdown(&warm),
        deterministic_report_markdown(&cold)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn content_change_invalidates_only_the_changed_file() {
    let dir = temp_cache_dir("content");
    let opts = || AssessmentOptions {
        cache_dir: Some(dir.clone()),
        ..AssessmentOptions::default()
    };
    let n = sample_files().len() as u64;
    let cold = assess_samples(usize::MAX, opts());
    // Re-assess with one file's text changed.
    let mut a = Assessment::new().with_options(opts());
    for (i, (module, path, text)) in sample_files().into_iter().enumerate() {
        if i == 0 {
            a.add_file(module, path, &format!("{text}int g_extra;\n"));
        } else {
            a.add_file(module, path, &text);
        }
    }
    let r = a.run();
    assert_eq!(r.trace.counter("cache.hits"), n - 1);
    assert_eq!(r.trace.counter("cache.misses"), 1);
    assert_eq!(
        r.trace.counter("parse.tier1.files"),
        1,
        "only the changed file re-parses"
    );
    // The new global shows up in the evidence even though every other
    // file came from the cache.
    assert_eq!(
        r.evidence.global_definitions,
        cold.evidence.global_definitions + 1
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fingerprint_mismatch_invalidates_the_whole_cache() {
    let dir = temp_cache_dir("fingerprint");
    let opts = || AssessmentOptions {
        cache_dir: Some(dir.clone()),
        ..AssessmentOptions::default()
    };
    let n = sample_files().len() as u64;
    let _cold = assess_samples(usize::MAX, opts());
    // A cache written by a different rule set / build.
    std::fs::write(
        dir.join("meta.json"),
        "{\"schema\":\"adsafe-cache/1\",\"fingerprint\":\"0000000000000000\"}",
    )
    .unwrap();
    let r = assess_samples(usize::MAX, opts());
    assert_eq!(
        r.trace.counter("cache.hits"),
        0,
        "stale fingerprint must not serve entries"
    );
    assert_eq!(r.trace.counter("cache.misses"), n);
    assert_eq!(
        r.trace.counter("cache.stores"),
        n,
        "wiped cache is repopulated"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_cache_entry_recovers_via_cold_path() {
    let dir = temp_cache_dir("corrupt");
    let opts = || AssessmentOptions {
        cache_dir: Some(dir.clone()),
        ..AssessmentOptions::default()
    };
    let cold = assess_samples(usize::MAX, opts());
    // Truncate one entry mid-JSON.
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "json") && !p.ends_with("meta.json"))
        .expect("cache entries were written");
    std::fs::write(&entry, "{\"schema\":\"adsafe-facts/1\",\"loc\":[1,").unwrap();
    let r = assess_samples(usize::MAX, opts());
    // The corruption is logged as an Info fault and re-analysed from
    // source — never a panic, never a degraded report.
    assert_eq!(r.trace.counter("cache.corrupt"), 1);
    let fault = r
        .faults
        .iter()
        .find(|f| matches!(f.cause, FaultCause::CacheCorrupt { .. }))
        .expect("corrupt entry must be logged");
    assert_eq!(fault.severity, FaultSeverity::Info);
    assert!(
        !r.degraded,
        "a corrupt cache entry must not degrade the report"
    );
    assert_eq!(
        r.diagnostics, cold.diagnostics,
        "cold-path recovery must reproduce the cold analysis"
    );
    // The bad entry was evicted and rewritten: next run is fully warm.
    let warm = assess_samples(usize::MAX, opts());
    assert_eq!(warm.trace.counter("cache.corrupt"), 0);
    assert_eq!(
        warm.trace.counter("cache.hits"),
        sample_files().len() as u64
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cache reader accepts only the exact bytes the writer produces:
/// an entry that still parses as JSON but was reformatted (one space
/// after its opening brace) is corrupt, re-analysed and rewritten —
/// never trusted.
#[test]
fn reformatted_cache_entry_is_reanalysed_and_rewritten() {
    let dir = temp_cache_dir("reformatted");
    let opts = || AssessmentOptions {
        cache_dir: Some(dir.clone()),
        ..AssessmentOptions::default()
    };
    let cold = assess_samples(usize::MAX, opts());
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "json") && !p.ends_with("meta.json"))
        .expect("cache entries were written");
    let text = std::fs::read_to_string(&entry).unwrap();
    let reformatted = text.replacen('{', "{ ", 1);
    std::fs::write(&entry, &reformatted).unwrap();
    let r = assess_samples(usize::MAX, opts());
    assert_eq!(r.trace.counter("cache.corrupt"), 1);
    assert_eq!(r.faults.len(), 1, "{:?}", r.faults);
    let fault = r.faults.iter().next().expect("one fault");
    assert!(
        matches!(fault.cause, FaultCause::CacheCorrupt { .. }),
        "{fault:?}"
    );
    assert_eq!(fault.severity, FaultSeverity::Info);
    assert!(!r.degraded);
    // Same report as the cold run, plus the one logged fault.
    assert_eq!(
        deterministic_report_markdown(&r),
        format!(
            "{}\n{}",
            deterministic_report_markdown(&cold),
            adsafe::render::fault_summary(&r)
        )
    );
    assert_eq!(
        std::fs::read_to_string(&entry).unwrap(),
        text,
        "entry rewritten clean"
    );
    let warm = assess_samples(usize::MAX, opts());
    assert_eq!(warm.trace.counter("cache.corrupt"), 0);
    assert_eq!(
        warm.trace.counter("cache.hits"),
        sample_files().len() as u64
    );
    assert_eq!(
        deterministic_report_markdown(&warm),
        deterministic_report_markdown(&cold)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unusable_cache_dir_falls_through_to_cold_analysis() {
    // Occupy the cache path with a regular file: `create_dir_all` fails
    // even for root (which bypasses permission bits on read-only dirs).
    let path = temp_cache_dir("unusable");
    std::fs::write(&path, "not a directory").unwrap();
    let baseline = assess_samples(usize::MAX, AssessmentOptions::default());
    let r = assess_samples(
        usize::MAX,
        AssessmentOptions {
            cache_dir: Some(path.clone()),
            ..AssessmentOptions::default()
        },
    );
    assert_eq!(r.trace.counter("cache.disabled"), 1);
    let fault = r
        .faults
        .iter()
        .find(|f| matches!(f.cause, FaultCause::CacheCorrupt { .. }))
        .expect("unusable cache dir must be logged as a fault");
    assert_eq!(fault.severity, FaultSeverity::Info);
    assert!(
        !r.degraded,
        "a lost accelerator must not degrade the report"
    );
    // Same analysis as a cache-less run; only the fault log differs.
    assert_eq!(
        r.diagnostics, baseline.diagnostics,
        "cold fall-through must reproduce the cache-less analysis"
    );
    assert_eq!(
        format!("{:?}", r.modules),
        format!("{:?}", baseline.modules)
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn shared_store_makes_repeat_runs_warm() {
    let store = std::sync::Arc::new(adsafe::MemoryFactsStore::open(None));
    let opts = || AssessmentOptions {
        store: Some(store.clone()),
        ..AssessmentOptions::default()
    };
    let n = sample_files().len() as u64;
    let cold = assess_samples(usize::MAX, opts());
    assert_eq!(cold.trace.counter("cache.misses"), n);
    assert_eq!(cold.trace.counter("cache.stores"), n);
    let warm = assess_samples(usize::MAX, opts());
    assert_eq!(
        warm.trace.counter("cache.hits"),
        n,
        "resident store must serve every file"
    );
    assert_eq!(
        warm.trace.counter("parse.tier1.files"),
        0,
        "warm run must not re-parse"
    );
    assert_eq!(
        deterministic_report_markdown(&warm),
        deterministic_report_markdown(&cold)
    );
}

#[test]
fn memory_profiling_never_changes_report_bytes() {
    let _g = cpu_lock();
    let spec = adsafe::corpus::ApolloSpec::test_scale();
    let corpus = adsafe::corpus::generate(&spec);
    let run = |jobs: usize| {
        adsafe::assess_corpus(
            &corpus,
            AssessmentOptions {
                jobs,
                ..AssessmentOptions::default()
            },
        )
    };
    alloc::set_profiling(false);
    let baseline = deterministic_report_markdown(&run(1));
    // The determinism contract (DESIGN.md §14): allocation profiling is
    // a pure observer. Toggling it — serial or parallel — must leave
    // the deterministic report byte-identical, while profiling runs
    // still attribute allocations to pipeline phases.
    for (profiling, jobs) in [(false, 4), (true, 1), (true, 4)] {
        let prev = alloc::set_profiling(profiling);
        let r = run(jobs);
        alloc::set_profiling(prev);
        if profiling {
            assert!(
                r.trace
                    .phase_mem
                    .iter()
                    .any(|p| p.name == "parse" && p.bytes > 0),
                "profiling on must bill parse-phase allocations, got {:?}",
                r.trace.phase_mem
            );
        } else {
            assert!(
                r.trace.phase_mem.is_empty(),
                "profiling off must record nothing, got {:?}",
                r.trace.phase_mem
            );
        }
        assert_eq!(
            deterministic_report_markdown(&r),
            baseline,
            "report bytes differ at profiling={profiling} jobs={jobs}"
        );
    }
}

/// A warm run that derives its whole-program results (from a cache
/// directory) allocates in `checks.query`, `assess` and `metrics` in
/// proportion to findings, modules and files, never per function: query
/// rows borrow their strings from the facts records, the whole-program
/// assemblies (recursion, coupling, per-rule counts) work on indices,
/// and module metrics tally functions in place. A warm resident-store
/// run replays those results from its program slot, within the same
/// bounds.
#[test]
fn warm_query_and_assess_allocations_do_not_scale_with_functions() {
    let _g = cpu_lock();
    let mut corpus = adsafe::corpus::generate(&adsafe::corpus::ApolloSpec::test_scale());
    // Many small functions no query rule flags: one allocation per
    // function would break the bounds below several times over.
    corpus.push(adsafe::corpus::GeneratedFile {
        module: "clean".into(),
        path: "clean/clean.cc".into(),
        text: (0..2000)
            .map(|i| format!("int clean_{i}(int x) {{ return x + {i}; }}\n"))
            .collect(),
    });
    let dir = temp_cache_dir("warm-allocs");
    let store = std::sync::Arc::new(adsafe::MemoryFactsStore::open(None));
    let derive = AssessmentOptions {
        jobs: 1,
        cache_dir: Some(dir.clone()),
        ..AssessmentOptions::default()
    };
    let replay = AssessmentOptions {
        jobs: 1,
        store: Some(store),
        ..AssessmentOptions::default()
    };
    let warm_run = |opts: &AssessmentOptions| {
        adsafe::assess_corpus(&corpus, opts.clone());
        let prev = alloc::set_profiling(true);
        let warm = adsafe::assess_corpus(&corpus, opts.clone());
        alloc::set_profiling(prev);
        warm
    };
    let (warm, replayed) = (warm_run(&derive), warm_run(&replay));
    let _ = std::fs::remove_dir_all(&dir);
    let files = corpus.len() as u64;
    assert_eq!(
        warm.trace.counter("cache.hits"),
        files,
        "the run must be warm"
    );
    assert_eq!(
        replayed.trace.counter("store.memo.program.hits"),
        1,
        "the slot must serve"
    );
    let functions = warm.evidence.total_functions as u64;
    // A warm run replays the bundled file-scoped rules' findings; only
    // the program-scoped ones evaluate in `checks.query`.
    let rules: Vec<_> = adsafe::query::bundled_rules()
        .rules
        .iter()
        .filter(|r| r.scope == adsafe::checkers::CheckScope::Program)
        .collect();
    let query_diags: u64 = rules
        .iter()
        .map(|r| warm.diagnostics_for(r.id).len() as u64)
        .sum();
    let allocs = |phase: &str| {
        warm.trace
            .phase_mem
            .iter()
            .find(|p| p.name == phase)
            .map_or(0, |p| p.allocs)
    };
    let (query, assess, metrics) = (allocs("checks.query"), allocs("assess"), allocs("metrics"));
    // Two per finding (message, enclosing function), a few per (rule,
    // file) (span name, findings list, rows), and a constant.
    let query_bound = 2 * query_diags + 4 * rules.len() as u64 * files + 64;
    let assess_bound = 4 * files + 256;
    // A few per module (span, record list, name, global index, cohesion
    // rows), list growth per file, and a constant.
    let metrics_bound = 16 * warm.modules.len() as u64 + 2 * files + 64;
    assert!(
        2 * query_bound.max(assess_bound).max(metrics_bound) < functions,
        "the corpus must dwarf the bounds with functions ({functions})"
    );
    assert!(
        query > 0 && query <= query_bound,
        "checks.query: {query} allocs > {query_bound}"
    );
    assert!(
        assess > 0 && assess <= assess_bound,
        "assess: {assess} allocs > {assess_bound}"
    );
    assert!(
        metrics > 0 && metrics <= metrics_bound,
        "metrics: {metrics} allocs > {metrics_bound}"
    );
    let replayed_allocs = |phase: &str| {
        replayed
            .trace
            .phase_mem
            .iter()
            .find(|p| p.name == phase)
            .map_or(0, |p| p.allocs)
    };
    for (phase, bound) in [
        ("checks.query", query_bound),
        ("assess", assess_bound),
        ("metrics", metrics_bound),
    ] {
        let n = replayed_allocs(phase);
        assert!(n <= bound, "replayed {phase}: {n} allocs > {bound}");
    }
}

/// A warm run — from a cache directory or from a resident store —
/// replays every bundled file-scoped rule's findings from the facts
/// records: it emits no `check.<id>` span for one. From a cache
/// directory it evaluates only the program-scoped `misra-17.2-recursion`
/// and the user pack's rules; a resident store also replays those, from
/// its file memos and program slot, and evaluates no rule at all. Its
/// report bytes equal a cold run's, with and without a user pack, at
/// jobs 1 and 2.
#[test]
fn warm_runs_evaluate_only_program_scope_and_user_pack_rules() {
    use adsafe::checkers::CheckScope;
    use adsafe::rulequery::RulePack;
    use std::sync::Arc;
    let file_scoped: Vec<&str> = adsafe::query::bundled_rules()
        .rules
        .iter()
        .filter(|r| r.scope == CheckScope::File)
        .map(|r| r.id)
        .collect();
    assert_eq!(file_scoped.len(), 28);
    let team = Arc::new(RulePack::from_sources(
        &[(
            "team.aq".into(),
            "rule \"team-multi\" { function where multi_exit -> info }".into(),
        )],
        &adsafe::query::reserved_rule_ids(),
    ));
    let n = sample_files().len() as u64;
    for jobs in [1, 2] {
        for pack in [None, Some(team.clone())] {
            let opts = || AssessmentOptions {
                jobs,
                rules: pack.clone(),
                ..AssessmentOptions::default()
            };
            let cold = deterministic_report_markdown(&assess_samples(usize::MAX, opts()));
            let dir = temp_cache_dir("warm-rules");
            let store = Arc::new(adsafe::MemoryFactsStore::open(None));
            let warm_opts = [
                (
                    "cache-dir",
                    AssessmentOptions {
                        cache_dir: Some(dir.clone()),
                        ..opts()
                    },
                ),
                (
                    "resident",
                    AssessmentOptions {
                        store: Some(store),
                        ..opts()
                    },
                ),
            ];
            for (label, warm_opts) in warm_opts {
                let what = format!("{label} at jobs {jobs}, pack {}", pack.is_some());
                assess_samples(usize::MAX, warm_opts.clone());
                let warm = assess_samples(usize::MAX, warm_opts);
                assert_eq!(warm.trace.counter("cache.hits"), n, "{what}: not warm");
                let evaluated: std::collections::BTreeSet<&str> = warm
                    .trace
                    .events
                    .iter()
                    .filter_map(|e| e.name.strip_prefix("check."))
                    .collect();
                for id in &file_scoped {
                    assert!(!evaluated.contains(id), "{what}: re-evaluated {id}");
                }
                if label == "resident" {
                    assert!(evaluated.is_empty(), "{what}: {evaluated:?}");
                    assert_eq!(warm.trace.counter("store.memo.program.hits"), 1, "{what}");
                } else {
                    assert!(
                        evaluated.contains("misra-17.2-recursion"),
                        "{what}: {evaluated:?}"
                    );
                    assert_eq!(evaluated.contains("team-multi"), pack.is_some(), "{what}");
                }
                assert!(
                    !warm.diagnostics_for("misra-17.2-recursion").is_empty(),
                    "{what}"
                );
                assert!(
                    !warm.diagnostics_for("cuda-kernel-pointer").is_empty(),
                    "{what}"
                );
                assert_eq!(deterministic_report_markdown(&warm), cold, "{what}");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A user-pack rule over `site` rows reads occurrence facts that the
/// cache replays, so its findings — spans and enclosing functions
/// included — are the same cold, warm from a cache directory and warm
/// from a resident store, at jobs 1 and 2.
#[test]
fn site_rules_in_a_user_pack_match_across_cache_states() {
    use adsafe::rulequery::RulePack;
    use std::sync::Arc;
    let pack = Arc::new(RulePack::from_sources(
        &[(
            "team.aq".into(),
            "rule \"team-bare-switch\" { site where kind == \"switch\" and count == 0 \
             -> info \"switch in {function} lacks a default\" }"
                .into(),
        )],
        &adsafe::query::reserved_rule_ids(),
    ));
    assert!(pack.faults.is_empty(), "{:?}", pack.faults);
    let n = sample_files().len() as u64;
    for jobs in [1, 2] {
        let opts = || AssessmentOptions {
            jobs,
            rules: Some(pack.clone()),
            ..AssessmentOptions::default()
        };
        let findings = |r: &AssessmentReport| -> Vec<adsafe::checkers::Diagnostic> {
            r.diagnostics_for("team-bare-switch")
                .into_iter()
                .cloned()
                .collect()
        };
        let cold = findings(&assess_samples(usize::MAX, opts()));
        assert_eq!(cold.len(), 1, "jobs {jobs}: {cold:?}");
        assert_eq!(cold[0].message, "switch in Step lacks a default");
        assert_eq!(cold[0].function.as_deref(), Some("Step"));
        let dir = temp_cache_dir("site-rules");
        let store = std::sync::Arc::new(adsafe::MemoryFactsStore::open(None));
        let warm_opts = [
            (
                "cache-dir",
                AssessmentOptions {
                    cache_dir: Some(dir.clone()),
                    ..opts()
                },
            ),
            (
                "resident",
                AssessmentOptions {
                    store: Some(store),
                    ..opts()
                },
            ),
        ];
        for (label, warm_opts) in warm_opts {
            assess_samples(usize::MAX, warm_opts.clone());
            let warm = assess_samples(usize::MAX, warm_opts);
            assert_eq!(
                warm.trace.counter("cache.hits"),
                n,
                "{label} at jobs {jobs}: not warm"
            );
            assert_eq!(findings(&warm), cold, "{label} at jobs {jobs}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A run has one pool round over files (inside `phase.parse`) and one
/// over modules (inside `phase.metrics`), cold and warm alike: every
/// round spawns exactly one worker 0.
#[test]
fn cold_and_warm_runs_have_one_file_round_and_one_module_round() {
    let dir = temp_cache_dir("rounds");
    let opts = || AssessmentOptions {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        ..AssessmentOptions::default()
    };
    let rounds = |r: &AssessmentReport| -> Vec<String> {
        let events = &r.trace.events;
        events
            .iter()
            .filter(|e| {
                e.name == "pool.worker" && e.args.iter().any(|(k, v)| *k == "worker" && v == "0")
            })
            .map(|w| {
                events
                    .iter()
                    .find(|p| {
                        p.cat == "phase" && p.start_us <= w.start_us && w.end_us() <= p.end_us()
                    })
                    .map_or_else(|| "no phase".to_string(), |p| p.name.clone())
            })
            .collect()
    };
    let cold = assess_samples(usize::MAX, opts());
    let warm = assess_samples(usize::MAX, opts());
    assert_eq!(
        warm.trace.counter("cache.hits"),
        sample_files().len() as u64
    );
    for (run, r) in [("cold", &cold), ("warm", &warm)] {
        assert_eq!(rounds(r), ["phase.parse", "phase.metrics"], "{run} run");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn file_round_speeds_up_with_workers() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 4 {
        eprintln!("skipping speedup assertion: only {cores} core(s) available");
        return;
    }
    let _g = cpu_lock();
    let spec = adsafe::corpus::ApolloSpec::test_scale();
    let corpus = adsafe::corpus::generate(&spec);
    let phase_us = |r: &AssessmentReport, name: &str| {
        r.trace
            .phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.wall_us)
    };
    // Best-of-3 per configuration to shave scheduler noise.
    let best = |jobs: usize| {
        (0..3)
            .map(|_| {
                let r = adsafe::assess_corpus(
                    &corpus,
                    AssessmentOptions {
                        jobs,
                        ..AssessmentOptions::default()
                    },
                );
                phase_us(&r, "parse")
            })
            .min()
            .unwrap()
    };
    let serial = best(1);
    let parallel = best(4);
    assert!(
        parallel * 2 <= serial,
        "file round: jobs=4 took {parallel}µs vs jobs=1 {serial}µs (need ≥2x)"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any worker count over any prefix of the sample set produces
    /// exactly the serial analysis — diagnostics, modules, evidence.
    #[test]
    fn any_worker_count_matches_serial(jobs in 0usize..9, files in 1usize..7) {
        let serial = assess_samples(files, AssessmentOptions::default());
        let parallel = assess_samples(
            files,
            AssessmentOptions { jobs, ..AssessmentOptions::default() },
        );
        prop_assert_eq!(&parallel.diagnostics, &serial.diagnostics);
        prop_assert_eq!(
            deterministic_report_markdown(&parallel),
            deterministic_report_markdown(&serial)
        );
    }
}
