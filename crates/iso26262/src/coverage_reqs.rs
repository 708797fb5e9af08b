//! Structural-coverage requirements at the software unit level.
//!
//! The paper (§3.2): "While ISO 26262 does not specify a particular
//! coverage figure, its parent standard, IEC 61508, recommends 100%
//! coverage for all metrics. In ISO 26262, either branch or code
//! statement are highly recommended ('++') for all ASIL." MC/DC is
//! additionally highly recommended at ASIL-D (ISO 26262-6 Table 12).
//! This module encodes those recommendations and judges measured
//! coverage against them.

use crate::asil::{Asil, Recommendation};
use crate::compliance::{Effort, Status};
use crate::evidence::CoverageEvidence;

/// A structural-coverage metric at the unit level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoverageMetric {
    /// Statement coverage.
    Statement,
    /// Branch coverage.
    Branch,
    /// Modified condition/decision coverage.
    Mcdc,
}

impl CoverageMetric {
    /// All metrics in table order.
    pub const ALL: [CoverageMetric; 3] = [
        CoverageMetric::Statement,
        CoverageMetric::Branch,
        CoverageMetric::Mcdc,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            CoverageMetric::Statement => "statement coverage",
            CoverageMetric::Branch => "branch coverage",
            CoverageMetric::Mcdc => "MC/DC",
        }
    }

    /// Recommendation at `asil` (ISO 26262-6 Table 12; the paper's
    /// reading: statement/branch `++` at every ASIL, MC/DC `++` at D).
    pub fn recommendation(self, asil: Asil) -> Recommendation {
        match (self, asil) {
            (_, Asil::Qm) => Recommendation::NotRequired,
            (CoverageMetric::Statement, _) | (CoverageMetric::Branch, _) => {
                Recommendation::HighlyRecommended
            }
            (CoverageMetric::Mcdc, Asil::D) => Recommendation::HighlyRecommended,
            (CoverageMetric::Mcdc, _) => Recommendation::Recommended,
        }
    }

    /// Measured percentage of this metric from the evidence.
    pub fn measured(self, cov: &CoverageEvidence) -> f64 {
        match self {
            CoverageMetric::Statement => cov.statement_pct,
            CoverageMetric::Branch => cov.branch_pct,
            CoverageMetric::Mcdc => cov.mcdc_pct,
        }
    }
}

/// Verdict for one coverage metric.
#[derive(Debug, Clone)]
pub struct CoverageVerdict {
    /// The metric.
    pub metric: CoverageMetric,
    /// Recommendation strength at the assessed ASIL.
    pub required: Recommendation,
    /// Measured percentage.
    pub measured_pct: f64,
    /// Compliance status against the 100% reference (IEC 61508).
    pub status: Status,
    /// Effort class: writing tests is engineering work, not research —
    /// except for GPU code, where no qualified tool exists (Obs 11).
    pub effort: Effort,
}

/// The coverage target used for judging (IEC 61508's recommendation).
pub const TARGET_PCT: f64 = 100.0;

/// Judges measured coverage at `asil`. `gpu_code` marks that the subject
/// includes GPU kernels, where coverage *tooling* itself is the gap.
pub fn judge_coverage(cov: &CoverageEvidence, asil: Asil, gpu_code: bool) -> Vec<CoverageVerdict> {
    CoverageMetric::ALL
        .iter()
        .map(|&metric| {
            let measured_pct = metric.measured(cov);
            let status = if measured_pct >= TARGET_PCT {
                Status::Compliant
            } else if measured_pct >= 90.0 {
                Status::PartiallyCompliant
            } else {
                Status::NonCompliant
            };
            let effort = if status == Status::Compliant {
                Effort::None
            } else if gpu_code {
                Effort::Research
            } else {
                Effort::Moderate
            };
            CoverageVerdict {
                metric,
                required: metric.recommendation(asil),
                measured_pct,
                status,
                effort,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_fig5() -> CoverageEvidence {
        CoverageEvidence {
            statement_pct: 83.0,
            branch_pct: 75.0,
            mcdc_pct: 61.0,
        }
    }

    #[test]
    fn recommendations_match_paper_reading() {
        for asil in Asil::TABLE_LEVELS {
            assert_eq!(
                CoverageMetric::Statement.recommendation(asil),
                Recommendation::HighlyRecommended
            );
            assert_eq!(
                CoverageMetric::Branch.recommendation(asil),
                Recommendation::HighlyRecommended
            );
        }
        assert_eq!(
            CoverageMetric::Mcdc.recommendation(Asil::D),
            Recommendation::HighlyRecommended
        );
        assert_eq!(
            CoverageMetric::Mcdc.recommendation(Asil::B),
            Recommendation::Recommended
        );
        assert_eq!(
            CoverageMetric::Mcdc.recommendation(Asil::Qm),
            Recommendation::NotRequired
        );
    }

    #[test]
    fn paper_numbers_fail_everywhere() {
        let v = judge_coverage(&paper_fig5(), Asil::D, false);
        assert_eq!(v.len(), 3);
        for verdict in &v {
            assert_eq!(verdict.status, Status::NonCompliant, "{:?}", verdict.metric);
            assert_eq!(verdict.effort, Effort::Moderate);
        }
    }

    #[test]
    fn gpu_code_elevates_effort_to_research() {
        let v = judge_coverage(&paper_fig5(), Asil::D, true);
        assert!(v.iter().all(|x| x.effort == Effort::Research), "Obs 11");
    }

    #[test]
    fn full_coverage_is_compliant() {
        let full = CoverageEvidence {
            statement_pct: 100.0,
            branch_pct: 100.0,
            mcdc_pct: 100.0,
        };
        let v = judge_coverage(&full, Asil::D, true);
        assert!(v.iter().all(|x| x.status == Status::Compliant));
        assert!(v.iter().all(|x| x.effort == Effort::None));
    }

    #[test]
    fn near_target_is_partial() {
        let near = CoverageEvidence {
            statement_pct: 95.0,
            branch_pct: 92.0,
            mcdc_pct: 90.0,
        };
        let v = judge_coverage(&near, Asil::C, false);
        assert!(v.iter().all(|x| x.status == Status::PartiallyCompliant));
    }

    #[test]
    fn metric_names() {
        assert_eq!(CoverageMetric::Mcdc.name(), "MC/DC");
        assert_eq!(CoverageMetric::Statement.measured(&paper_fig5()), 83.0);
    }
}
