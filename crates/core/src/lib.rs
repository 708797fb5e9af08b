//! # adsafe — ISO 26262 Part-6 adherence assessment for AD software
//!
//! A Rust reproduction of *"Assessing the Adherence of an Industrial
//! Autonomous Driving Framework to ISO 26262 Software Guidelines"*
//! (Tabani et al., DAC 2019): a full assessment toolchain — C/C++/CUDA
//! front-end, software metrics, MISRA-style checkers, structural
//! coverage (statement/branch/MC-DC), CUDA-on-CPU execution, GPU-library
//! performance models — plus an Apollo-scale synthetic corpus, wired
//! into the paper's methodology: measure, judge against the Part-6
//! recommendation tables at ASIL-D, and report the gaps.
//!
//! ## Quickstart
//!
//! ```
//! use adsafe::{Assessment, AssessmentOptions};
//! use adsafe::iso26262::{Status, TableId};
//!
//! let mut a = Assessment::new();
//! a.add_file(
//!     "control",
//!     "control/brake.cc",
//!     "int g_brake_state;\n\
//!      int Apply(int force) { if (force < 0) return -1; g_brake_state = force; return 0; }\n",
//! );
//! let report = a.run();
//! // Global variable + multi-exit function → two Part-6 findings.
//! let unit = report.compliance.table(TableId::UnitDesign);
//! assert_ne!(unit[0].status, Status::Compliant); // multiple exits
//! assert_ne!(unit[4].status, Status::Compliant); // global variables
//! ```
//!
//! Every paper table and figure has a regeneration entry point in
//! [`experiments`]; the Criterion benches in `adsafe-bench` wrap them.

#![warn(missing_docs)]

pub mod cache;
pub mod experiments;
pub mod facts;
pub mod fault;
pub mod pipeline;
pub mod query;
pub mod render;
pub mod store;

pub use adsafe_trace::TraceSummary;
pub use cache::{
    content_hash, ruleset_fingerprint, CacheLookup, DecodedSource, FactsCache, FactsStore,
};
pub use fault::{Fault, FaultCause, FaultLog, FaultPhase, FaultSeverity, Recovery};
pub use pipeline::{assess_corpus, Assessment, AssessmentOptions, AssessmentReport, Budgets};
pub use store::MemoryFactsStore;

/// Re-export: zero-dependency self-scheduling thread pool.
pub use adsafe_pool as pool;

/// Re-export: structured tracing & metrics registry.
pub use adsafe_trace as trace;

/// Re-export: rule engine.
pub use adsafe_checkers as checkers;
/// Re-export: corpora.
pub use adsafe_corpus as corpus;
/// Re-export: structural coverage.
pub use adsafe_coverage as coverage;
/// Re-export: GPU emulation & kernels.
pub use adsafe_gpu as gpu;
/// Re-export: standard model & compliance engine.
pub use adsafe_iso26262 as iso26262;
/// Re-export: language front-end.
pub use adsafe_lang as lang;
/// Re-export: software metrics.
pub use adsafe_metrics as metrics;
/// Re-export: performance models.
pub use adsafe_perfmodel as perfmodel;
/// Re-export: typed rule-query language and VM.
pub use adsafe_query as rulequery;
/// Re-export: tables & figures.
pub use adsafe_report as report;
