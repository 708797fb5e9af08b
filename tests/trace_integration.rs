//! Integration tests for the observability layer (`adsafe-trace`) as
//! wired through the assessment pipeline:
//!
//! * every phase and checker rule gets a span, and the recorded stream
//!   is well-formed (properly nested) even when a checker panics under
//!   `catch_unwind`;
//! * the Chrome trace-event export round-trips through a JSON parser
//!   and passes the format validator;
//! * concurrent counter increments never lose updates (property test);
//! * phase budget overruns are recorded with their magnitude as a
//!   `Timeout` fault that does not degrade the report;
//! * the fault summary renders byte-identically across repeated runs.

use adsafe::fault::failpoints::{self, Action};
use adsafe::trace::{chrome, json::Json, SpanEvent};
use adsafe::{render, Assessment, AssessmentOptions, Budgets, FaultCause, FaultSeverity, Recovery};
use proptest::prelude::*;
use std::time::Duration;

fn small_assessment() -> Assessment {
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
        "control",
        "control/pid.cc",
        "int Clamp(int v) { if (v > 100) return 100; return v; }\n",
    );
    a
}

/// Every pair of spans on one thread is either disjoint or one contains
/// the other — the defining property of a well-formed trace.
fn assert_well_formed(events: &[SpanEvent]) {
    for (i, a) in events.iter().enumerate() {
        for b in &events[i + 1..] {
            if a.tid != b.tid {
                continue;
            }
            // Order by start; on equal starts the longer span is the
            // container (µs resolution makes equal starts common).
            let (first, second) = if (a.start_us, std::cmp::Reverse(a.dur_us))
                <= (b.start_us, std::cmp::Reverse(b.dur_us))
            {
                (a, b)
            } else {
                (b, a)
            };
            let disjoint = second.start_us >= first.end_us();
            let contained = second.end_us() <= first.end_us();
            assert!(
                disjoint || contained,
                "spans overlap without nesting: {} [{}, {}) vs {} [{}, {})",
                first.name,
                first.start_us,
                first.end_us(),
                second.name,
                second.start_us,
                second.end_us()
            );
        }
    }
}

#[test]
fn pipeline_emits_phase_file_and_rule_spans() {
    let r = small_assessment().run();
    let t = &r.trace;
    let phase_names: Vec<&str> = t.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(
        phase_names,
        [
            "parse",
            "checks.native",
            "checks.query",
            "checks",
            "metrics",
            "assess"
        ]
    );
    assert!(t.total_us > 0);
    // The checks.* sub-phases nest inside checks: only the top-level
    // phases partition the run, so only they may be summed against it.
    let top_level: u64 = t
        .phases
        .iter()
        .filter(|p| !p.name.contains('.'))
        .map(|p| p.wall_us)
        .sum();
    assert!(t.total_us >= top_level, "run span shorter than its phases");
    assert_eq!(t.slowest_files.len(), 2);
    assert!(t
        .slowest_files
        .iter()
        .any(|(p, _)| p == "perception/track.cc"));
    // Every registered checker ran under its own span.
    let rule_spans: Vec<&str> = t.slowest_rules.iter().map(|(r, _)| r.as_str()).collect();
    assert!(!rule_spans.is_empty());
    let n_rules = t
        .events
        .iter()
        .filter(|e| e.name.starts_with("check."))
        .map(|e| e.name.as_str())
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    // One span name per native and bundled rule.
    assert_eq!(
        n_rules,
        adsafe::checkers::default_checks().len() + adsafe::query::bundled_rules().rules.len()
    );
    assert_well_formed(&t.events);
    // Counter deltas picked up the per-tier file counts.
    assert!(t.counter("parse.tier1.files") >= 2);
}

/// A file's query rows are built under their own `query.rows` span,
/// never inside a rule's `check.*` span: the first rule of each
/// selector is not billed the build.
#[test]
fn no_rule_span_encloses_a_row_build() {
    let r = small_assessment().run();
    let events = &r.trace.events;
    let rows: Vec<&SpanEvent> = events.iter().filter(|e| e.name == "query.rows").collect();
    assert!(!rows.is_empty(), "row builds are traced");
    for build in rows {
        // A span deeper than a check span it lies within runs inside it.
        let enclosing = events.iter().find(|c| {
            c.name.starts_with("check.")
                && c.tid == build.tid
                && c.depth < build.depth
                && c.start_us <= build.start_us
                && build.end_us() <= c.end_us()
        });
        assert!(enclosing.is_none(), "{enclosing:?} encloses {build:?}");
    }
    assert_well_formed(events);
}

#[test]
fn trace_stays_well_formed_when_a_checker_panics() {
    let _g = failpoints::Armed::new(
        "pipeline::check::misra-15.1-goto",
        Action::Panic("rule bug".into()),
    );
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let r = small_assessment().run();
    std::panic::set_hook(prev);
    assert!(r.faults.iter().any(|f| f.path == "misra-15.1-goto"));
    assert_eq!(
        adsafe::trace::span::open_depth(),
        0,
        "panic leaked open spans"
    );
    let phase_names: Vec<&str> = r.trace.phases.iter().map(|p| p.name.as_str()).collect();
    assert_eq!(
        phase_names,
        [
            "parse",
            "checks.native",
            "checks.query",
            "checks",
            "metrics",
            "assess"
        ]
    );
    assert_well_formed(&r.trace.events);
}

#[test]
fn chrome_export_round_trips_through_the_parser() {
    let r = small_assessment().run();
    let text = r.trace.to_chrome_json();
    let n = chrome::validate(&text).expect("valid Chrome trace");
    assert_eq!(n, r.trace.events.len());
    // Spot-check the document shape beyond what the validator covers.
    let doc = Json::parse(&text).expect("parses as JSON");
    assert_eq!(
        doc.get("displayTimeUnit").and_then(Json::as_str),
        Some("ms")
    );
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    let run = events
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("assessment.run"))
        .expect("run span exported");
    assert_eq!(run.get("ph").and_then(Json::as_str), Some("X"));
    let file = events
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("parse.file"))
        .expect("file span exported");
    assert!(file
        .get("args")
        .and_then(|a| a.get("path"))
        .and_then(Json::as_str)
        .is_some());
}

#[test]
fn phase_overrun_is_noted_with_magnitude() {
    // One slow file: the deadline check between files never fires, so
    // only the end-of-phase overrun note can record the slip.
    let _g = failpoints::Armed::new(
        "pipeline::parse_file",
        Action::Delay(Duration::from_millis(30)),
    );
    let mut a = Assessment::new().with_options(AssessmentOptions {
        budgets: Budgets {
            phase_deadline: Some(Duration::from_millis(5)),
        },
        ..AssessmentOptions::default()
    });
    a.add_file("m", "slow.cc", "int f() { return 1; }\n");
    let r = a.run();
    let fault = r
        .faults
        .iter()
        .find(|f| f.severity == FaultSeverity::Timeout)
        .expect("overrun noted as a Timeout fault");
    assert_eq!(fault.recovery, Recovery::Noted);
    let FaultCause::DeadlineOverrun {
        budget_ms,
        actual_ms,
    } = fault.cause
    else {
        panic!("wrong cause: {:?}", fault.cause);
    };
    assert_eq!(budget_ms, 5);
    assert!(actual_ms >= 30, "overrun magnitude lost: {actual_ms} ms");
    // A note alone must not mark the evidence degraded.
    assert!(!r.degraded, "{:?}", r.faults);
    assert!(r.trace.counter("parse.budget.overrun_ms") >= 25);
}

#[test]
fn fault_summary_is_byte_identical_across_runs() {
    let build = || {
        let mut a = Assessment::new();
        a.add_file("m", "bad.cc", "int ; ] ) } = 5 +;\nint h() { return 2; }\n");
        a.add_file("m", "worse.cc", "template < { ) ;;; ]\n");
        a.add_file_bytes("n", "weird.cc", b"int f() { return 1; }\n\xff\xfe");
        a.add_file("n", "ok.cc", "int g() { return 3; }\n");
        a
    };
    let r1 = build().run();
    let r2 = build().run();
    assert!(r1.degraded);
    assert_eq!(render::fault_summary(&r1), render::fault_summary(&r2));
    assert_eq!(
        r1.diagnostics, r2.diagnostics,
        "diagnostic order is canonical"
    );
    // The phase counts come out in phase order, not discovery order.
    let s = render::fault_summary(&r1);
    let ingest = s.find("- ingest:").expect("ingest count");
    let parse = s.find("- parse:").expect("parse count");
    assert!(ingest < parse, "{s}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Counter increments are atomic: N threads adding M each always
    /// sum to exactly N*M more than before, never less.
    #[test]
    fn concurrent_counter_increments_never_lose_updates(
        threads in 2usize..6,
        per_thread in 100u64..2000u64,
    ) {
        let c = adsafe::trace::counter("trace.test.concurrent");
        let before = c.get();
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                std::thread::spawn(move || {
                    let c = adsafe::trace::counter("trace.test.concurrent");
                    for _ in 0..per_thread {
                        c.incr();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        prop_assert_eq!(c.get() - before, threads as u64 * per_thread);
    }
}
