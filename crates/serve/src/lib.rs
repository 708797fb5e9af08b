//! # adsafe-serve — the resident assessment daemon
//!
//! `adsafe serve` keeps the expensive parts of an assessment — the
//! facts cache, the string interner, the thread pool — alive across
//! runs, turning the CLI's cold-start cost into a one-time price. A
//! repeated `POST /assess` over an unchanged corpus does **zero**
//! parse-phase work: every file resolves against the resident
//! [`MemoryFactsStore`](adsafe::MemoryFactsStore), and the response
//! body is byte-identical to what `adsafe assess` prints, because both
//! render [`deterministic_report_markdown`](adsafe::render::deterministic_report_markdown)
//! over the same pipeline.
//!
//! The daemon is std-only like everything else in the workspace: the
//! HTTP/1.1 codec lives in [`http`] (defensive, property-tested, never
//! panics on wire input), and requests flow accept-loop → bounded
//! queue → [`adsafe_pool::Executor`] workers. Connections are
//! **keep-alive** by default: one connection serves many requests, up
//! to a per-connection cap, under the idle/deadline/byte-rate budgets
//! enforced by [`conn::DeadlineReader`] (a slow-loris client cannot
//! pin a worker). A full queue answers `503` with a queue-depth-derived
//! `Retry-After` instead of buffering unboundedly; a handler panic
//! answers `500` with a fault summary, closes that connection, and the
//! daemon keeps serving; the resident facts store degrades under a
//! byte budget by evicting least-recently-used entries (dirty ones
//! demote to the disk cache first) rather than growing without bound.
//! Graceful shutdown (SIGTERM / ctrl-c in the CLI) drains in-flight
//! requests — reclaiming even idle keep-alive connections within a
//! poll slice — flushes the facts store's dirty entries to the disk
//! cache, and exits under the CLI's 0–5 exit-code contract. See
//! DESIGN.md §9 and §11.
//!
//! Endpoints: `POST /assess`, `GET /metrics` (`?format=prometheus`
//! for the exposition format), `GET /healthz`, `POST /invalidate`,
//! `GET /runs`, `GET /runs/<id>`, `GET /requests` (the flight
//! recorder's JSONL access log, filterable by `?status=`/`?endpoint=`),
//! `GET /trace/recent` (the same ring as Chrome trace-event JSON) —
//! curl examples in README.md §Serving and §Watching a live daemon.
//! Every assessment — served or CLI — appends one record to the
//! corpus's run ledger (`.adsafe-cache/ledger/`, see DESIGN.md §10)
//! and carries its run ID in the `X-Adsafe-Run-Id` header; the same
//! run IDs appear in `/requests` rows, correlating the access log with
//! `adsafe history`. Telemetry plane: DESIGN.md §12.

#![warn(missing_docs)]

pub mod conn;
pub mod fsutil;
pub mod http;
pub mod loadgen;
pub mod server;
pub mod top;

pub use server::{ServeConfig, ServeStats, Server};

/// The step `adsafe assess` and `POST /assess` share between ingest and
/// run: records the pack's load faults, then one Info (non-degrading)
/// fault per torn ledger line not yet reported through this `ledger`,
/// on `assessment`, and reserves the run ID
/// from the corpus digest of its content hashes. Returns `(run_id, seq,
/// digest)`; `("", 0, "")` without a ledger.
pub fn reserve_run(
    assessment: &mut adsafe::Assessment,
    ledger: Option<&adsafe_ledger::Ledger>,
    pack_faults: &[adsafe::rulequery::PackFault],
) -> (String, u64, String) {
    for pf in pack_faults {
        assessment.add_fault(adsafe::query::pack_fault(pf));
    }
    let Some(ledger) = ledger else {
        return (String::new(), 0, String::new());
    };
    for torn in ledger.report_torn_lines() {
        assessment.add_fault(adsafe::Fault {
            phase: adsafe::FaultPhase::Ingest,
            path: ledger.file().display().to_string(),
            severity: adsafe::FaultSeverity::Info,
            cause: adsafe::FaultCause::LedgerTorn {
                detail: format!("line {}: {}", torn.line, torn.detail),
            },
            recovery: adsafe::Recovery::Noted,
            run_id: String::new(),
        });
    }
    let digest = adsafe_ledger::corpus_digest(&assessment.content_hashes());
    let (run_id, seq) = ledger.reserve(&digest);
    (run_id, seq, digest)
}

/// Exit codes shared by the CLI and the daemon's `X-Adsafe-Exit-Code`
/// header (documented in README.md; scripts rely on them).
pub mod exit {
    /// Assessment ran clean, no blocking topics.
    pub const OK: i32 = 0;
    /// Assessment ran clean, blocking topics found.
    pub const BLOCKING: i32 = 1;
    /// Usage error (bad arguments / bad request).
    pub const USAGE: i32 = 2;
    /// I/O error (unreadable inputs, unwritable report).
    pub const IO: i32 = 3;
    /// Degraded assessment, no blocking topics.
    pub const DEGRADED: i32 = 4;
    /// Degraded assessment with blocking topics.
    pub const DEGRADED_BLOCKING: i32 = 5;
}

/// Folds a report's outcome into the 0–5 exit-code contract.
pub fn exit_code_for(report: &adsafe::AssessmentReport) -> i32 {
    let blocking = report.compliance.blocking_count() > 0;
    match (report.degraded, blocking) {
        (false, false) => exit::OK,
        (false, true) => exit::BLOCKING,
        (true, false) => exit::DEGRADED,
        (true, true) => exit::DEGRADED_BLOCKING,
    }
}
