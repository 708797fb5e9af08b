//! The resident store's derived-result memos: user-pack findings per
//! file and the whole-program results per file set. A run that uses
//! them must report exactly what a fresh cold run reports — the
//! deterministic bytes and every diagnostic, spans included — across
//! edits, renames, deletions, invalidation, alternating packs and
//! module remappings, at jobs 1 and 2; and its counters must show it
//! re-derived only what changed.

use adsafe::render::deterministic_report_markdown;
use adsafe::rulequery::RulePack;
use adsafe::{Assessment, AssessmentOptions, AssessmentReport, MemoryFactsStore};
use std::sync::Arc;
use std::time::Duration;

/// One source file: `(module, path, text)`.
type File = (String, String, String);

/// A small generated tree (every module, a few files each) plus files
/// that exercise recursion, globals and a user pack's rules.
fn corpus() -> Vec<File> {
    let full = adsafe::corpus::ApolloSpec::paper_scale();
    let spec = adsafe::corpus::ApolloSpec {
        modules: full.modules.iter().map(|m| m.scaled(0.02)).collect(),
        seed: full.seed,
    };
    let mut files: Vec<File> = adsafe::corpus::generate(&spec)
        .into_iter()
        .map(|f| (f.module, f.path, f.text))
        .collect();
    files.push((
        "control".into(),
        "control/loop.cc".into(),
        "int g_ticks;\nint Recur(int n) { if (n <= 0) return 0; g_ticks++; return Recur(n - 1) + 1; }\n\
         int Helper(int n) { return Recur(n); }\n"
            .into(),
    ));
    files
}

fn pack(rules: &str) -> Arc<RulePack> {
    let pack = RulePack::from_sources(
        &[("team.aq".into(), rules.into())],
        &adsafe::query::reserved_rule_ids(),
    );
    assert!(pack.faults.is_empty(), "{:?}", pack.faults);
    Arc::new(pack)
}

/// A pack with file-scoped rules over every selector and a
/// program-scoped rule.
fn pack_a() -> Arc<RulePack> {
    pack(
        "rule \"team-multi\" { function where multi_exit -> info \"{name} in {module}\" }\n\
          rule \"team-globals\" { global where not is_const -> warn }\n\
          rule \"team-switch\" { site where kind == \"switch\" and count == 0 -> info }\n\
          rule \"team-files\" { file where nloc > 50 -> info }\n\
          rule \"team-recursive\" { function where recursive -> violation }\n",
    )
}

fn pack_b() -> Arc<RulePack> {
    pack("rule \"team-wide\" { function where params > 2 -> info \"{name}\" }\n")
}

fn run(files: &[File], options: AssessmentOptions) -> AssessmentReport {
    let mut a = Assessment::new().with_options(options);
    for (module, path, text) in files {
        a.add_file(module, path, text);
    }
    a.run()
}

/// Runs `files` on `store` and cold, and asserts the two agree.
fn resident_matches_cold(
    files: &[File],
    store: &Arc<MemoryFactsStore>,
    rules: &Arc<RulePack>,
    jobs: usize,
    what: &str,
) -> AssessmentReport {
    let opts = AssessmentOptions {
        jobs,
        rules: Some(rules.clone()),
        ..AssessmentOptions::default()
    };
    let cold = run(files, opts.clone());
    let resident = run(
        files,
        AssessmentOptions {
            store: Some(store.clone()),
            ..opts
        },
    );
    assert_eq!(
        deterministic_report_markdown(&resident),
        deterministic_report_markdown(&cold),
        "{what}: report bytes at jobs {jobs}"
    );
    assert_eq!(
        resident.diagnostics, cold.diagnostics,
        "{what}: diagnostics at jobs {jobs}"
    );
    resident
}

fn counter(r: &AssessmentReport, name: &str) -> u64 {
    r.trace.counter(name)
}

#[test]
fn memo_runs_match_fresh_cold_runs() {
    let (a, b) = (pack_a(), pack_b());
    for jobs in [1, 2] {
        let store = Arc::new(MemoryFactsStore::open(None));
        let mut files = corpus();
        let n = files.len() as u64;
        let check = |files: &[File], rules: &Arc<RulePack>, what: &str| {
            resident_matches_cold(files, &store, rules, jobs, what)
        };

        check(&files, &a, "first run");
        let r = check(&files, &a, "unchanged");
        assert_eq!(counter(&r, "store.memo.program.hits"), 1, "unchanged");
        assert_eq!(counter(&r, "store.memo.file.hits"), n, "unchanged");

        // An edit that adds a global use and a recursive function.
        files[0]
            .2
            .push_str("int g_edit;\nint Spin(int k) { g_edit = k; return k ? Spin(k - 1) : 0; }\n");
        let r = check(&files, &a, "one-file edit");
        assert_eq!(counter(&r, "store.memo.program.misses"), 1, "one-file edit");
        check(&files, &a, "after the edit");

        let renamed = format!("{}.renamed.cc", files[1].1);
        files[1].1 = renamed;
        check(&files, &a, "rename");

        let gone = files.remove(2);
        files.push((
            gone.0.clone(),
            format!("{}/added.cc", gone.0),
            format!("// added\n{}", gone.2),
        ));
        check(&files, &a, "delete+add");

        let path = files[3].1.clone();
        assert_eq!(store.invalidate_paths(&[path]), 1);
        let r = check(&files, &a, "invalidate one path");
        assert_eq!(
            counter(&r, "store.memo.program.misses"),
            1,
            "invalidation drops the slot"
        );
        store.invalidate_all();
        assert_eq!(store.memo_bytes(), 0, "invalidate-all drops every memo");
        check(&files, &a, "invalidate all");

        for (rules, what) in [(&b, "pack b"), (&a, "pack a again"), (&b, "pack b again")] {
            let r = check(&files, rules, what);
            assert_eq!(counter(&r, "store.memo.program.misses"), 1, "{what}");
        }

        // The same files under another module mapping, then back.
        let flat: Vec<File> = files
            .iter()
            .map(|(_, p, t)| ("flat".to_string(), p.clone(), t.clone()))
            .collect();
        check(&flat, &b, "flat mapping");
        let r = check(&flat, &b, "flat mapping, unchanged");
        assert_eq!(
            counter(&r, "store.memo.program.hits"),
            1,
            "flat mapping, unchanged"
        );
        let r = check(&files, &b, "module mapping restored");
        assert_eq!(
            counter(&r, "store.memo.program.hits"),
            1,
            "each file set keeps its slot"
        );
    }
}

/// An unchanged warm run replays every user-pack finding and the whole
/// program pass; a one-file edit evaluates the user pack's file-scoped
/// rules on exactly the changed file and re-derives the program pass.
#[test]
fn counters_pin_what_a_warm_run_rederives() {
    let store = Arc::new(MemoryFactsStore::open(None));
    let rules = pack_a();
    let opts = || AssessmentOptions {
        store: Some(store.clone()),
        rules: Some(rules.clone()),
        ..AssessmentOptions::default()
    };
    let mut files = corpus();
    let n = files.len() as u64;
    let evaluated = |r: &AssessmentReport, id: &str| {
        r.trace
            .events
            .iter()
            .filter(|e| e.name == format!("check.{id}"))
            .count()
    };

    let cold = run(&files, opts());
    assert_eq!(counter(&cold, "store.memo.file.misses"), n);
    assert_eq!(counter(&cold, "store.memo.program.misses"), 1);
    assert_eq!(evaluated(&cold, "team-multi"), n as usize);

    let warm = run(&files, opts());
    assert_eq!(counter(&warm, "store.memo.file.hits"), n);
    assert_eq!(counter(&warm, "store.memo.file.misses"), 0);
    assert_eq!(counter(&warm, "store.memo.program.hits"), 1);
    for id in [
        "team-multi",
        "team-recursive",
        "misra-17.2-recursion",
        "design-global-use",
    ] {
        assert_eq!(
            evaluated(&warm, id),
            0,
            "{id} re-evaluated on an unchanged run"
        );
    }
    assert!(!warm.diagnostics_for("team-recursive").is_empty());
    assert!(warm
        .trace
        .events
        .iter()
        .any(|e| e.name == "phase.checks.query"));

    files[4]
        .2
        .push_str("int Extra(int x) { if (x) return 1; return 0; }\n");
    let edit = run(&files, opts());
    assert_eq!(counter(&edit, "cache.misses"), 1);
    assert_eq!(counter(&edit, "store.memo.file.misses"), 1);
    assert_eq!(counter(&edit, "store.memo.file.hits"), n - 1);
    assert_eq!(
        evaluated(&edit, "team-multi"),
        1,
        "file rules on exactly the changed file"
    );
    assert_eq!(counter(&edit, "store.memo.program.misses"), 1);
    assert_eq!(
        evaluated(&edit, "team-recursive"),
        n as usize,
        "the program pass re-derives"
    );
    assert!(store.memo_bytes() > 0 && store.memo_bytes() < store.bytes());
}

/// A run that gates a rule, arms a failpoint, sets a deadline or takes
/// in a degraded file never consults the memos; its report still equals
/// a cold run's.
#[test]
fn unsafe_runs_bypass_the_memos() {
    let store = Arc::new(MemoryFactsStore::open(None));
    let rules = pack_a();
    let opts = || AssessmentOptions {
        store: Some(store.clone()),
        rules: Some(rules.clone()),
        ..AssessmentOptions::default()
    };
    let files = corpus();
    run(&files, opts());
    let bypassed = |r: &AssessmentReport, what: &str| {
        for name in [
            "store.memo.file.hits",
            "store.memo.program.hits",
            "store.memo.program.misses",
        ] {
            assert_eq!(counter(r, name), 0, "{what}: {name}");
        }
    };

    let deadline = AssessmentOptions {
        budgets: adsafe::Budgets {
            phase_deadline: Some(Duration::from_secs(600)),
        },
        ..opts()
    };
    let r = run(&files, deadline);
    bypassed(&r, "deadline");

    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = {
        let _fp = adsafe::fault::failpoints::Armed::new(
            "pipeline::check::misra-15.1-goto",
            adsafe::fault::failpoints::Action::Panic("gated".into()),
        );
        run(&files, opts())
    };
    std::panic::set_hook(prev);
    bypassed(&r, "gated rule");
    assert!(r.diagnostics_for("misra-15.1-goto").is_empty());

    let mut degraded = files.clone();
    degraded.push((
        "m".into(),
        "m/bad.cc".into(),
        "int ; ] ) } = 5 +;\nint h() { return 2; }\n".into(),
    ));
    let cold = run(
        &degraded,
        AssessmentOptions {
            store: None,
            ..opts()
        },
    );
    let r = run(&degraded, opts());
    assert_eq!(
        counter(&r, "store.memo.program.hits") + counter(&r, "store.memo.program.misses"),
        0
    );
    assert_eq!(
        deterministic_report_markdown(&r),
        deterministic_report_markdown(&cold)
    );

    // The store still serves a clean run afterwards.
    let r = run(&files, opts());
    assert_eq!(counter(&r, "store.memo.program.hits"), 1);
}
