//! End-to-end tests of the assessment run ledger: JSON round-trip
//! totality (proptested), torn-line tolerance (a crash mid-append
//! costs one line, never the ledger, and surfaces as a non-degrading
//! Info fault), and the history/diff golden flow over three synthetic
//! runs — two identical, one with a deliberately flipped verdict.

use adsafe::{
    Assessment, AssessmentOptions, Fault, FaultCause, FaultPhase, FaultSeverity, Recovery,
};
use adsafe_ledger::{
    corpus_digest, history_table, Ledger, RunDiff, RunRecord, VerdictRow, LEDGER_FILE,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "adsafe-ledger-test-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// A small corpus with no shadowed variable names, so Table 8 row 4
/// starts compliant and [`MUTATED_CORPUS`] can flip it.
const BASE_CORPUS: [(&str, &str, &str); 2] = [
    (
        "perception",
        "perception/track.cc",
        "int g_tracks;\n\
         int Update(int* state, int delta) {\n\
           if (delta < 0) return -1;\n\
           g_tracks = g_tracks + 1;\n\
           *state = *state + delta;\n\
           return 0;\n\
         }\n",
    ),
    (
        "control",
        "control/pid.cc",
        "int Step(int err) {\n\
           if (err < 0) { return -err; }\n\
           return err;\n\
         }\n",
    ),
];

/// Same corpus with one inner declaration shadowing `err` — the
/// smallest edit that flips "No multiple use of variable names".
const MUTATED_CORPUS: [(&str, &str, &str); 2] = [
    BASE_CORPUS[0],
    (
        "control",
        "control/pid.cc",
        "int Step(int err) {\n\
           if (err < 0) { int err = 1; return err; }\n\
           return err;\n\
         }\n",
    ),
];

fn exit_code(report: &adsafe::AssessmentReport) -> i32 {
    match (report.degraded, report.compliance.blocking_count() > 0) {
        (false, false) => 0,
        (false, true) => 1,
        (true, false) => 4,
        (true, true) => 5,
    }
}

/// Assesses `sources` under the ledger's identity and appends the
/// resulting record, mirroring what `adsafe assess` does.
fn record_run(ledger: &Ledger, sources: &[(&str, &str, &str)]) -> RunRecord {
    let mut assessment = Assessment::new();
    for (module, path, text) in sources {
        assessment.add_file_bytes(module, path, text.as_bytes());
    }
    let digest = corpus_digest(&assessment.content_hashes());
    let (run, seq) = ledger.reserve(&digest);
    let options = AssessmentOptions {
        run_id: run.clone(),
        ..AssessmentOptions::default()
    };
    let report = assessment.with_options(options).run();
    let record = RunRecord::from_report(
        &report,
        &run,
        seq,
        "test-corpus",
        &digest,
        sources.len() as u64,
        exit_code(&report),
    );
    ledger.append(&record).expect("ledger append");
    // Return the record as the ledger will read it back: phases are
    // stored as a JSON object, so they round-trip in name order (the
    // diff joins phases by name, making the reorder invisible there).
    RunRecord::from_json(&record.to_json_line()).expect("own record parses")
}

#[test]
fn identical_runs_differ_only_in_identity_and_timing() {
    let ledger = Ledger::open(&temp_dir("identical")).unwrap();
    let a = record_run(&ledger, &BASE_CORPUS);
    let b = record_run(&ledger, &BASE_CORPUS);

    assert_ne!(a.run, b.run, "run IDs must be unique");
    assert_eq!(a.seq + 1, b.seq);
    assert_eq!(a.corpus_digest, b.corpus_digest);

    // Every field except identity and wall clock is byte-for-byte
    // reproducible across back-to-back runs of an unchanged corpus.
    let mut b_normalised = b.clone();
    b_normalised.run = a.run.clone();
    b_normalised.seq = a.seq;
    b_normalised.total_us = a.total_us;
    b_normalised.phases = a.phases.clone();
    assert_eq!(a, b_normalised);

    let diff = RunDiff::between(&a, &b);
    assert!(
        !diff.has_drift(),
        "identical corpora must not drift:\n{}",
        diff.render()
    );
    assert!(diff.same_corpus && diff.same_ruleset);

    // And the ledger file reads both records back verbatim.
    let (records, torn) = ledger.read_all();
    assert!(torn.is_empty());
    assert_eq!(records, vec![a, b]);
}

#[test]
fn flipped_verdict_is_drift_and_shows_in_history() {
    let ledger = Ledger::open(&temp_dir("drift")).unwrap();
    let r1 = record_run(&ledger, &BASE_CORPUS);
    let r2 = record_run(&ledger, &BASE_CORPUS);
    let r3 = record_run(&ledger, &MUTATED_CORPUS);

    let clean = RunDiff::between(&r1, &r2);
    assert!(!clean.has_drift());

    let drifted = RunDiff::between(&r2, &r3);
    assert!(
        !drifted.same_corpus,
        "mutation must change the corpus digest"
    );
    assert!(
        drifted.has_drift(),
        "shadowing must flip a verdict:\n{}",
        drifted.render()
    );
    assert!(drifted.has_regression());
    let flip = drifted
        .verdict_flips
        .iter()
        .find(|f| f.key == "t8r4")
        .expect("Table 8 row 4 (no multiple use of variable names) flips");
    assert_eq!(flip.from, "compliant");
    assert!(flip.regressed);
    let rendered = drifted.render();
    assert!(
        rendered.contains("t8r4") && rendered.contains("REGRESSED"),
        "{rendered}"
    );

    // History: three rows, drift column flags only the last one.
    let (records, _) = ledger.read_all();
    let table = history_table(&records, usize::MAX);
    let lines: Vec<&str> = table.lines().collect();
    assert_eq!(lines.len(), 4, "header + 3 runs:\n{table}");
    assert!(
        lines[1].ends_with("-"),
        "first run has no predecessor:\n{table}"
    );
    assert!(
        lines[2].ends_with("none"),
        "identical rerun shows no drift:\n{table}"
    );
    assert!(
        lines[3].contains("regressed"),
        "mutated run is flagged:\n{table}"
    );
    // `--last 2` keeps the header plus the two most recent rows.
    assert_eq!(history_table(&records, 2).lines().count(), 3);
}

#[test]
fn torn_final_line_is_skipped_and_reported_as_info_fault() {
    let dir = temp_dir("torn");
    let ledger = Ledger::open(&dir).unwrap();
    let first = record_run(&ledger, &BASE_CORPUS);

    // A crash mid-append leaves a truncated line with no newline.
    use std::io::Write as _;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join(LEDGER_FILE))
        .unwrap();
    f.write_all(b"{\"schema\":\"adsafe-ledger/1\",\"run\":\"r0000")
        .unwrap();
    drop(f);

    let reopened = Ledger::open(&dir).unwrap();
    assert_eq!(reopened.torn_lines().len(), 1, "the torn tail is detected");
    let (records, torn) = reopened.read_all();
    assert_eq!(
        records,
        vec![first.clone()],
        "intact records survive the tear"
    );
    assert_eq!(torn.len(), 1);

    // The tear surfaces as an Info fault that does not degrade the
    // assessment (same construction as adsafe_serve::reserve_run).
    let torn_fault = Fault {
        phase: FaultPhase::Ingest,
        path: dir.join(LEDGER_FILE).display().to_string(),
        severity: FaultSeverity::Info,
        cause: FaultCause::LedgerTorn {
            detail: format!("line {}: {}", torn[0].line, torn[0].detail),
        },
        recovery: Recovery::Noted,
        run_id: String::new(),
    };
    let mut assessment = Assessment::new();
    assessment.add_fault(torn_fault);
    for (module, path, text) in &BASE_CORPUS {
        assessment.add_file_bytes(module, path, text.as_bytes());
    }
    let report = assessment.run();
    assert!(
        !report.degraded,
        "an Info-severity tear must not cost evidence"
    );
    assert!(
        report
            .faults
            .iter()
            .any(|f| matches!(f.cause, FaultCause::LedgerTorn { .. })),
        "the tear is on the fault log"
    );

    // Appending after the tear self-heals: the new record is intact.
    let next = record_run(&reopened, &BASE_CORPUS);
    let (after, torn_after) = reopened.read_all();
    assert_eq!(after, vec![first, next]);
    assert_eq!(
        torn_after.len(),
        1,
        "the torn line stays skipped, nothing else is lost"
    );
}

/// A long history costs `open` only its tail: a 2,000-run ledger of
/// real records reopens one past its highest sequence number, and a
/// torn final line keeps its absolute line number; `read_all` still
/// sees every line.
#[test]
fn long_ledger_reopens_from_its_tail() {
    use adsafe_ledger::{run_id, TAIL_BYTES};
    use std::io::Write as _;
    let dir = temp_dir("long");
    let first = record_run(&Ledger::open(&dir).unwrap(), &BASE_CORPUS);
    let mut text = String::new();
    for seq in 1..=2000 {
        let copy = RunRecord {
            run: run_id(seq, &first.corpus_digest),
            seq,
            ..first.clone()
        };
        text.push_str(&copy.to_json_line());
        text.push('\n');
    }
    assert!(
        text.len() as u64 > 4 * TAIL_BYTES,
        "history outgrows the window"
    );
    std::fs::write(dir.join(LEDGER_FILE), &text).unwrap();

    let reopened = Ledger::open(&dir).unwrap();
    assert!(reopened.torn_lines().is_empty());
    assert_eq!(reopened.reserve(&first.corpus_digest).1, 2001);

    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join(LEDGER_FILE))
        .unwrap();
    f.write_all(b"{\"schema\":\"adsafe-ledger/1\",\"run\":\"r002001-")
        .unwrap();
    drop(f);
    let torn_open = Ledger::open(&dir).unwrap();
    assert_eq!(torn_open.torn_lines().len(), 1);
    assert_eq!(
        torn_open.torn_lines()[0].line,
        2001,
        "the tear keeps its line number"
    );
    let next = record_run(&torn_open, &BASE_CORPUS);
    assert_eq!(next.seq, 2001, "the torn line lends no sequence number");
    assert_eq!(torn_open.resolve("2001").unwrap(), next);
    let (records, torn) = torn_open.read_all();
    assert_eq!((records.len(), torn.len(), torn[0].line), (2001, 1, 2001));
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `to_json_line` → `from_json` is the identity on any record whose
    /// map-like fields (phases, fault counts, metrics) are sorted and
    /// unique-keyed — which `from_report` guarantees — including
    /// strings that need escaping. Numeric fields stay below 2^53
    /// because JSON numbers travel through f64.
    #[test]
    fn record_json_round_trips(
        counts in (0u64..(1u64 << 53), 0u64..100_000, 0u64..(1u64 << 40), 0u64..(1u64 << 30)),
        idents in ("[ -~]{0,24}", "[ -~]{0,40}", "[0-9a-f]{16,16}", "[ -~]{0,24}"),
        flags in (0i32..6, 0u8..2, 0u8..2),
        phase_names in proptest::collection::vec("[a-z.]{1,12}", 0..5),
        phase_times in proptest::collection::vec(0u64..(1u64 << 40), 5..6),
        metric_names in proptest::collection::vec("[a-z_]{1,16}", 0..6),
        metric_values in proptest::collection::vec(-1.0e9..1.0e9f64, 6..7),
        verdict_bits in proptest::collection::vec(
            (1u8..9, 1u8..11, "[ -~]{0,16}", 0u8..4, 0u8..2), 0..8),
        obs_bits in proptest::collection::vec((1u8..15, 0u8..2), 0..6),
    ) {
        let (seq, files, total_us, cache) = counts;
        let (run, root, digest, fingerprint) = idents;
        let (exit, degraded_bit, severity_bit) = flags;
        let unique_sorted = |names: Vec<String>| -> Vec<String> {
            let mut v = names;
            v.sort();
            v.dedup();
            v
        };
        let phases: Vec<(String, u64)> = unique_sorted(phase_names)
            .into_iter()
            .zip(phase_times.iter().copied())
            .collect();
        let metrics: Vec<(String, f64)> = unique_sorted(metric_names)
            .into_iter()
            .zip(metric_values.iter().copied())
            .collect();
        let status_of = |r: u8| ["compliant", "partial", "non-compliant", "n/a"][r as usize];
        let record = RunRecord {
            run,
            seq,
            corpus_root: root,
            corpus_digest: digest,
            files,
            fingerprint,
            asil: "ASIL-D".to_string(),
            exit_code: exit,
            degraded: degraded_bit == 1,
            tier: "full".to_string(),
            total_us,
            phases: phases.clone(),
            fault_counts: phases, // any sorted unique-keyed map will do
            worst_severity: (severity_bit == 1).then(|| "warn".to_string()),
            cache_hits: cache,
            cache_stores: cache / 2,
            verdicts: verdict_bits
                .into_iter()
                .map(|(table, row, topic, rank, blocking)| VerdictRow {
                    table,
                    row,
                    topic,
                    status: status_of(rank).to_string(),
                    effort: "moderate".to_string(),
                    blocking: blocking == 1,
                })
                .collect(),
            observations: obs_bits.into_iter().map(|(n, h)| (n, h == 1)).collect(),
            metrics,
        };
        let line = record.to_json_line();
        prop_assert!(!line.contains('\n'), "a record is exactly one line");
        let parsed = RunRecord::from_json(&line)
            .map_err(|e| TestCaseError::Fail(format!("{e}\nline: {line}")))?;
        prop_assert_eq!(&parsed, &record);
        // Serialisation is stable: a reparsed record prints identically.
        prop_assert_eq!(parsed.to_json_line(), line);
    }

    /// `from_json` is total on printable-ASCII soup: garbage is an
    /// `Err`, never a panic.
    #[test]
    fn from_json_never_panics(line in "[ -~]{0,200}") {
        let _ = RunRecord::from_json(&line);
    }
}
