//! # adsafe-metrics — software metrics for ISO 26262 assessment
//!
//! The measurement engine behind the paper's Figure 3 and the
//! architectural-design rows of Tables 1–2: cyclomatic complexity (Lizard
//! semantics), line counts, per-function structure metrics, and
//! module-level aggregation with cohesion/coupling.
//!
//! ```
//! use adsafe_lang::{parse_source, SourceMap};
//! use adsafe_metrics::{cyclomatic_complexity, ComplexityBand};
//!
//! let mut sm = SourceMap::new();
//! let id = sm.add_file("f.c", "int f(int x) { if (x > 0 && x < 9) return 1; return 0; }");
//! let parsed = parse_source(id, sm.file(id).text());
//! let cc = cyclomatic_complexity(parsed.unit.functions()[0]);
//! assert_eq!(cc, 3); // if + &&
//! assert_eq!(ComplexityBand::of(cc), ComplexityBand::Low);
//! ```

#![warn(missing_docs)]

pub mod cyclomatic;
pub mod function;
pub mod loc;
pub mod module;
pub mod token_estimate;

pub use cyclomatic::{cyclomatic_complexity, ComplexityBand, ComplexityHistogram};
pub use function::{function_metrics, FunctionMetrics};
pub use loc::{count_file, count_text, span_nloc, LocCounts};
pub use module::{coupling_edges, module_metrics, ModuleMetrics, ModuleTally, TouchedGlobals};
pub use token_estimate::{absorb_estimate, module_from_estimates, token_estimate, TokenEstimate};
