//! Deterministic fault-injection harness for the assessment pipeline.
//!
//! Two families of scenarios, both seeded and reproducible:
//!
//! * **Corruption scenarios** — corpus files corrupted by
//!   `adsafe-corpus::faultinject` (truncation, brace deletion, byte
//!   flips, non-UTF-8 noise) are fed through the full pipeline.
//! * **Failpoint scenarios** — named points inside the pipeline are
//!   armed with panics or delays through `adsafe::fault::failpoints`.
//!
//! Every scenario must satisfy the containment contract: no panic
//! escapes `Assessment::run`, the report renders, `degraded` is true,
//! and the fault log is non-empty.

use adsafe::corpus::faultinject::{corrupt, Corruption};
use adsafe::corpus::{generate, ApolloSpec, GeneratedFile};
use adsafe::fault::failpoints::{self, Action};
use adsafe::render::full_report_markdown;
use adsafe::{Assessment, AssessmentOptions, AssessmentReport, Budgets};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Once, OnceLock};
use std::time::Duration;

/// Silence contained panics (they are the point of these tests), but
/// keep printing panics raised by the harness's own assertions.
fn quiet_panics() {
    static QUIET: Once = Once::new();
    QUIET.call_once(|| {
        std::panic::set_hook(Box::new(|info| {
            let from_harness = info
                .location()
                .is_some_and(|l| l.file().ends_with("fault_injection.rs"));
            if from_harness {
                eprintln!("{info}");
            }
        }))
    });
}

/// One mid-sized generated corpus file to corrupt, plus its module.
fn victim() -> &'static GeneratedFile {
    static VICTIM: OnceLock<GeneratedFile> = OnceLock::new();
    VICTIM.get_or_init(|| {
        let files = generate(&ApolloSpec::test_scale());
        files
            .into_iter()
            .find(|f| f.path.ends_with(".cc") && f.text.len() > 2_000)
            .expect("test corpus has a mid-sized .cc file")
    })
}

/// Runs the pipeline under containment assertions only: no panic may
/// escape `Assessment::run`, and the report must render.
fn contained_run(
    name: &str,
    options: AssessmentOptions,
    build: impl FnOnce(&mut Assessment),
) -> (AssessmentReport, String) {
    quiet_panics();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut a = Assessment::new().with_options(options);
        a.add_file(
            "healthy",
            "healthy/base.cc",
            "int Base(int x) { return x + 1; }\n",
        );
        build(&mut a);
        let report = a.run();
        let rendered = full_report_markdown(&report);
        (report, rendered)
    }));
    match outcome {
        Ok(pair) => pair,
        Err(_) => panic!("scenario `{name}`: a panic escaped the pipeline"),
    }
}

/// Runs one scenario end to end and enforces the full contract:
/// containment, non-empty fault log, degraded report, rendered fault
/// section, and survival of the healthy module's evidence.
fn run_scenario(
    name: &str,
    options: AssessmentOptions,
    build: impl FnOnce(&mut Assessment),
) -> AssessmentReport {
    let (report, rendered) = contained_run(name, options, build);
    assert!(
        !report.faults.is_empty(),
        "scenario `{name}`: fault log is empty"
    );
    assert!(
        report.degraded,
        "scenario `{name}`: report not marked degraded"
    );
    assert!(
        rendered.contains("## Fault log"),
        "scenario `{name}`: rendered report lacks the fault section"
    );
    // The healthy file's evidence always survives.
    assert!(
        report.modules.iter().any(|m| m.name == "healthy"),
        "scenario `{name}`: healthy module lost"
    );
    report
}

/// 16 corruption scenarios: every corruption kind × four base seeds,
/// each applied to a real generated corpus file.
///
/// The error-tolerant parser legitimately absorbs some corruptions
/// without losing evidence (e.g. a truncation that lands near a
/// declaration boundary), so each scenario walks a deterministic seed
/// chain until the corruption actually costs evidence. Containment is
/// asserted on *every* attempt; the degradation contract on the first
/// degrading one.
#[test]
fn corruption_scenarios_degrade_but_never_escape() {
    let v = victim();
    let mut scenarios = 0usize;
    for kind in Corruption::ALL {
        for base_seed in 0..4u64 {
            let name = format!("{}#{}", kind.name(), base_seed);
            let mut degraded_report = None;
            for attempt in 0..12u64 {
                let seed = base_seed + 1000 * attempt;
                let bytes = corrupt(seed, kind, &v.path, &v.text);
                let (report, rendered) = contained_run(&name, AssessmentOptions::default(), |a| {
                    a.add_file_bytes(&v.module, &v.path, &bytes);
                });
                if report.degraded && report.faults.iter().any(|f| f.path == v.path) {
                    assert!(
                        rendered.contains("## Fault log"),
                        "scenario `{name}`: rendered report lacks the fault section"
                    );
                    degraded_report = Some(report);
                    break;
                }
            }
            let report = degraded_report
                .unwrap_or_else(|| panic!("scenario `{name}`: no seed in the chain cost evidence"));
            assert!(report.modules.iter().any(|m| m.name == "healthy"));
            scenarios += 1;
        }
    }
    assert_eq!(scenarios, 16);
}

#[test]
fn failpoint_parse_panic_any_file() {
    let _g = failpoints::Armed::new("pipeline::parse_file", Action::Panic("injected".into()));
    let v = victim();
    let r = run_scenario("parse-panic-any", AssessmentOptions::default(), |a| {
        a.add_file(&v.module, &v.path, &v.text);
    });
    // Panic self-disarms: exactly one file was hit, the rest parsed.
    assert_eq!(r.faults.len(), 1);
}

#[test]
fn failpoint_parse_panic_targeted_file() {
    let v = victim();
    let _g = failpoints::Armed::new(
        &format!("pipeline::parse_file::{}", v.path),
        Action::Panic("targeted parser bug".into()),
    );
    let r = run_scenario("parse-panic-targeted", AssessmentOptions::default(), |a| {
        a.add_file(&v.module, &v.path, &v.text);
    });
    let f = r
        .faults
        .iter()
        .find(|f| f.path == v.path)
        .expect("targeted fault");
    assert_eq!(f.recovery, adsafe::Recovery::TokenMetrics);
    // Tier 3 kept the file contributing: its module exists with
    // absorbed (token-estimated) evidence.
    let m = r
        .modules
        .iter()
        .find(|m| m.name == v.module)
        .expect("module survives");
    assert_eq!(m.absorbed_files, 1);
    assert!(m.loc.nloc > 0);
}

#[test]
fn failpoint_checker_panic_generic() {
    let _g = failpoints::Armed::new("pipeline::check", Action::Panic("rule bug".into()));
    let r = run_scenario("check-panic-any", AssessmentOptions::default(), |a| {
        a.add_file(
            "m",
            "m/a.cc",
            "int g;\nint f() { goto x; x: return (int)1.5; }\n",
        );
    });
    assert!(r
        .faults
        .iter()
        .any(|f| f.phase == adsafe::FaultPhase::Checks));
    // Only one rule was lost; the rest still produced diagnostics.
    assert!(!r.diagnostics.is_empty());
}

#[test]
fn failpoint_checker_panic_targeted_rule_keeps_other_rules() {
    let _g = failpoints::Armed::new(
        "pipeline::check::misra-15.1-goto",
        Action::Panic("goto rule bug".into()),
    );
    let r = run_scenario("check-panic-targeted", AssessmentOptions::default(), |a| {
        a.add_file(
            "m",
            "m/a.cc",
            "int g;\nint f() { goto x; x: return (int)1.5; }\n",
        );
    });
    // The armed rule produced no diagnostics but was logged.
    assert!(r.diagnostics_for("misra-15.1-goto").is_empty());
    assert!(r.faults.iter().any(|f| f.path == "misra-15.1-goto"));
    // Unrelated rules still fired on the same file.
    assert!(!r.diagnostics_for("typing-explicit-cast").is_empty());
}

/// A recursive, multi-exit, goto-bearing file: program- and
/// file-scoped rules both fire on it.
const GATED_SRC: &str = "int odd(int n) { if (n == 0) return 0; return odd(n - 1); }\n\
int jump(int x) { if (x) goto out; out: return x; }\n";

/// Cache entries (everything but `meta.json`) under `dir`.
fn cache_entries(dir: &std::path::Path) -> usize {
    std::fs::read_dir(dir)
        .map(|d| {
            d.flatten()
                .filter(|e| e.file_name() != "meta.json" && e.path().is_file())
                .count()
        })
        .unwrap_or(0)
}

#[test]
fn failpoint_gates_a_bundled_rule_like_a_native_one() {
    let _g = failpoints::Armed::new(
        "pipeline::check::misra-17.2-recursion",
        Action::Panic("recursion rule bug".into()),
    );
    let dir = std::env::temp_dir().join(format!("adsafe-gate-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = AssessmentOptions {
        cache_dir: Some(dir.clone()),
        ..AssessmentOptions::default()
    };
    let r = run_scenario("bundled-gate", options, |a| {
        a.add_file("m", "m/a.cc", GATED_SRC);
    });
    let f = r
        .faults
        .iter()
        .find(|f| f.path == "misra-17.2-recursion")
        .expect("gate fault");
    assert_eq!(f.phase, adsafe::FaultPhase::Checks);
    assert!(r.diagnostics_for("misra-17.2-recursion").is_empty());
    // Other rules still fired.
    assert_eq!(r.diagnostics_for("misra-15.5-multi-exit").len(), 1);
    assert_eq!(r.diagnostics_for("misra-15.1-goto").len(), 1);
    // A gated rule blocks cache write-back, whichever kind it is.
    assert_eq!(cache_entries(&dir), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checks_deadline_cuts_bundled_rules_like_natives() {
    // Every rule gate sleeps, so the checks phase overruns its budget
    // part-way through the four natives (8 ms each against 20 ms); the
    // bundled rules gate after them.
    let _g = failpoints::Armed::new("pipeline::check", Action::Delay(Duration::from_millis(8)));
    let options = AssessmentOptions {
        budgets: Budgets {
            phase_deadline: Some(Duration::from_millis(20)),
        },
        ..AssessmentOptions::default()
    };
    let r = run_scenario("checks-deadline", options, |a| {
        a.add_file("m", "m/a.cc", GATED_SRC);
    });
    assert!(r
        .faults
        .iter()
        .any(|f| f.phase == adsafe::FaultPhase::Checks
            && matches!(f.cause, adsafe::FaultCause::DeadlineExceeded { .. })));
    for rule in &adsafe::query::bundled_rules().rules {
        assert!(
            r.diagnostics_for(rule.id).is_empty(),
            "{} ran past the cut",
            rule.id
        );
    }
}

#[test]
fn query_rule_panic_costs_one_rule_on_one_file() {
    // A panic action fires once: the rule dies on the first file only.
    let _g = failpoints::Armed::new(
        "pipeline::query::misra-15.5-multi-exit",
        Action::Panic("query rule bug".into()),
    );
    let dir = std::env::temp_dir().join(format!("adsafe-query-panic-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = AssessmentOptions {
        cache_dir: Some(dir.clone()),
        ..AssessmentOptions::default()
    };
    let r = run_scenario("query-panic", options, |a| {
        a.add_file("m", "m/a.cc", GATED_SRC);
        a.add_file("m", "m/b.cc", GATED_SRC);
    });
    let f = r
        .faults
        .iter()
        .find(|f| f.phase == adsafe::FaultPhase::Checks)
        .expect("fault");
    assert_eq!(f.path, "misra-15.5-multi-exit on healthy/base.cc");
    assert!(matches!(f.cause, adsafe::FaultCause::Injected(_)));
    // The rule survived on the other files; other rules on every file.
    assert_eq!(r.diagnostics_for("misra-15.5-multi-exit").len(), 2);
    assert_eq!(r.diagnostics_for("misra-17.2-recursion").len(), 2);
    // The bundled rule ran in the file task, so its fault keeps that
    // file out of the cache, as a native's does; the others are stored.
    let entry = |path: &str| {
        dir.join(format!(
            "{:016x}.json",
            adsafe::content_hash(path, GATED_SRC)
        ))
    };
    assert!(entry("m/a.cc").exists() && entry("m/b.cc").exists());
    assert_eq!(cache_entries(&dir), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn native_rule_panic_in_a_file_task_costs_one_rule_on_one_file() {
    // Failpoints are thread-local, so the per-file tasks must run on
    // this thread: jobs 1 (the default).
    let src = format!("{GATED_SRC}int tabbed(float v) {{\treturn 0; }}\n");
    let _g = failpoints::Armed::new(
        "pipeline::check::style-line::m/a.cc",
        Action::Panic("line rule bug".into()),
    );
    let dir = std::env::temp_dir().join(format!("adsafe-file-task-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = AssessmentOptions {
        cache_dir: Some(dir.clone()),
        ..AssessmentOptions::default()
    };
    let r = run_scenario("file-task-panic", options, |a| {
        a.add_file("m", "m/a.cc", &src);
        a.add_file("m", "m/b.cc", &src);
    });
    let faults: Vec<_> = r
        .faults
        .iter()
        .filter(|f| f.phase == adsafe::FaultPhase::Checks)
        .collect();
    assert_eq!(faults.len(), 1, "{faults:?}");
    assert_eq!(faults[0].path, "style-line");
    assert!(
        matches!(faults[0].cause, adsafe::FaultCause::Injected(_)),
        "{:?}",
        faults[0]
    );
    // File ids follow insertion order, after `healthy/base.cc`.
    let (a, b) = (adsafe::lang::FileId(1), adsafe::lang::FileId(2));
    // The rule survived on the other file ...
    let tabs = r.diagnostics_for("style-line");
    assert_eq!(tabs.len(), 1);
    assert_eq!(tabs[0].span.file, b);
    // ... and every other rule survived on the armed file.
    assert!(r
        .diagnostics_for("misra-15.1-goto")
        .iter()
        .any(|d| d.span.file == a));
    assert!(r
        .diagnostics_for("misra-15.5-multi-exit")
        .iter()
        .any(|d| d.span.file == a));
    // The armed file lost a rule, so it is not written back; the
    // others are.
    let entry = |path: &str| dir.join(format!("{:016x}.json", adsafe::content_hash(path, &src)));
    assert!(!entry("m/a.cc").exists());
    assert!(entry("m/b.cc").exists());
    assert_eq!(cache_entries(&dir), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn macro_rule_panic_costs_one_rule_on_one_file() {
    // `naming-macro` is a bundled file-scoped rule: its failpoint fires
    // once, inside its own containment in the first file's task (jobs
    // 1, since failpoints are thread-local), and the fault names the
    // rule and the file.
    let src = "#define badMacro 1\nint cast(float v) { return (int)v; }\n";
    let _g = failpoints::Armed::new(
        "pipeline::query::naming-macro",
        Action::Panic("macro rule bug".into()),
    );
    let r = run_scenario("macro-rule-panic", AssessmentOptions::default(), |a| {
        a.add_file("m", "m/a.cc", src);
        a.add_file("m", "m/b.cc", src);
    });
    let faults: Vec<_> = r
        .faults
        .iter()
        .filter(|f| f.phase == adsafe::FaultPhase::Checks)
        .collect();
    assert_eq!(faults.len(), 1, "{faults:?}");
    assert_eq!(faults[0].path, "naming-macro on healthy/base.cc");
    assert!(
        matches!(faults[0].cause, adsafe::FaultCause::Injected(_)),
        "{:?}",
        faults[0]
    );
    // File ids follow insertion order, after `healthy/base.cc`.
    let (a, b) = (adsafe::lang::FileId(1), adsafe::lang::FileId(2));
    let macros = r.diagnostics_for("naming-macro");
    let files: Vec<_> = macros.iter().map(|d| d.span.file).collect();
    assert_eq!(files, [a, b]);
    assert!(r
        .diagnostics_for("typing-explicit-cast")
        .iter()
        .any(|d| d.span.file == a));
}

#[test]
fn failpoint_metrics_panic_falls_back_to_estimates() {
    let _g = failpoints::Armed::new("pipeline::metrics::m", Action::Panic("metrics bug".into()));
    let r = run_scenario("metrics-panic", AssessmentOptions::default(), |a| {
        a.add_file("m", "m/a.cc", "int f() { if (f()) return 1; return 0; }\n");
    });
    let m = r
        .modules
        .iter()
        .find(|m| m.name == "m")
        .expect("module present");
    // Whole module fell to token estimation, but kept its NLOC.
    assert_eq!(m.absorbed_files, m.file_count);
    assert!(m.loc.nloc > 0);
    assert!(r
        .faults
        .iter()
        .any(|f| f.phase == adsafe::FaultPhase::Metrics));
}

#[test]
fn failpoint_assess_panic_yields_conservative_defaults() {
    let _g = failpoints::Armed::new("pipeline::assess", Action::Panic("stats bug".into()));
    let r = run_scenario("assess-panic", AssessmentOptions::default(), |a| {
        a.add_file("m", "m/a.cc", "int f() { return 1; }\n");
    });
    assert_eq!(r.faults.worst(), Some(adsafe::FaultSeverity::Critical));
    assert!(r
        .faults
        .iter()
        .any(|f| f.phase == adsafe::FaultPhase::Assess));
}

#[test]
fn failpoint_delay_trips_parse_deadline() {
    let _g = failpoints::Armed::new(
        "pipeline::parse_file",
        Action::Delay(Duration::from_millis(30)),
    );
    let options = AssessmentOptions {
        budgets: Budgets {
            phase_deadline: Some(Duration::from_millis(10)),
        },
        ..AssessmentOptions::default()
    };
    let r = run_scenario("parse-deadline", options, |a| {
        for i in 0..3 {
            a.add_file("m", &format!("m/f{i}.cc"), "int f() { return 1; }\n");
        }
    });
    assert!(r
        .faults
        .iter()
        .any(|f| matches!(f.cause, adsafe::FaultCause::DeadlineExceeded { .. })));
    // Files past the deadline still contributed through tier 3.
    let m = r
        .modules
        .iter()
        .find(|m| m.name == "m")
        .expect("module present");
    assert_eq!(m.file_count, 3);
    assert!(m.absorbed_files >= 1);
}

#[test]
fn failpoint_combined_parse_and_check_faults_accumulate() {
    let v = victim();
    let _g1 = failpoints::Armed::new(
        &format!("pipeline::parse_file::{}", v.path),
        Action::Panic("parser bug".into()),
    );
    let _g2 = failpoints::Armed::new(
        "pipeline::check::misra-15.5-multi-exit",
        Action::Panic("rule bug".into()),
    );
    let r = run_scenario("combined", AssessmentOptions::default(), |a| {
        a.add_file(&v.module, &v.path, &v.text);
    });
    assert!(r
        .faults
        .iter()
        .any(|f| f.phase == adsafe::FaultPhase::Parse));
    assert!(r
        .faults
        .iter()
        .any(|f| f.phase == adsafe::FaultPhase::Checks));
    assert!(r.faults.len() >= 2);
    assert_eq!(
        r.faults.counts_by_phase().len(),
        2,
        "parse and checks each contribute a count bucket"
    );
}

/// The containment contract also holds when *every* input is hostile:
/// all four corruptions of the same file assessed together.
#[test]
fn all_corruptions_at_once_still_produce_a_report() {
    let v = victim();
    let r = run_scenario("all-corruptions", AssessmentOptions::default(), |a| {
        for (i, c) in adsafe::corpus::corrupt_all(11, v).into_iter().enumerate() {
            a.add_file_bytes(&c.module, &format!("{}.v{}", c.path, i), &c.bytes);
        }
    });
    assert!(r.faults.len() >= 2);
    assert!(
        r.evidence.total_loc > 0,
        "degraded evidence still carries NLOC"
    );
}
