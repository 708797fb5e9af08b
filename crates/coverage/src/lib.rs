//! # adsafe-coverage — structural coverage measurement (RapiCover stand-in)
//!
//! Executes the mini-C subset through an instrumented interpreter and
//! reports **statement**, **branch**, and **MC/DC** coverage — the three
//! metrics of the paper's §3.2 (Figure 5: YOLO CPU code) and §3.3
//! (Figure 6: CUDA stencils translated to the CPU).
//!
//! MC/DC uses unique-cause with masking; see [`mcdc`].
//!
//! ```
//! use adsafe_coverage::{CoverageHarness, TestCase, Value};
//!
//! let mut h = CoverageHarness::new();
//! h.add_file("abs.c", "int iabs(int x) { if (x < 0) { return -x; } return x; }");
//! h.link();
//! let (cov, outcomes) = h.measure(&[
//!     TestCase::new("positive", "iabs", vec![Value::Int(4)]),
//!     TestCase::new("negative", "iabs", vec![Value::Int(-4)]),
//! ]);
//! assert!(outcomes.iter().all(|o| o.result.is_ok()));
//! assert_eq!(cov[0].branch_pct(true), 100.0);
//! ```

#![warn(missing_docs)]

pub mod gaps;
pub mod harness;
pub mod interp;
pub mod mcdc;
pub mod probes;
pub mod report;
pub mod value;

pub use gaps::{function_gaps, suggest_mcdc_pair, summarize_gaps, Gap, GapSummary, McdcSuggestion};
pub use harness::{CoverageHarness, TestCase, TestOutcome};
pub use interp::{Interp, InterpError, Limits, Program};
pub use probes::{enumerate_probes, CoverageLog, FunctionProbes};
pub use report::{function_coverage, AggregateCoverage, FunctionCoverage};
pub use value::Value;
