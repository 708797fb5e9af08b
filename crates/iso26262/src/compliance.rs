//! The compliance engine: turns measured [`Evidence`] into per-topic
//! verdicts against a target ASIL, reproducing the judgement structure of
//! the paper's Tables 1–3 discussion.

use crate::asil::{Asil, Recommendation};
use crate::evidence::Evidence;
use crate::tables::{Topic, ARCHITECTURAL_DESIGN, CODING_GUIDELINES, UNIT_DESIGN};

/// Compliance status of one topic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Status {
    /// Fully adheres to the recommendation.
    Compliant,
    /// Mostly adheres; residual findings need justification.
    PartiallyCompliant,
    /// Does not adhere.
    NonCompliant,
    /// The topic does not apply (e.g. graphical modeling for C/C++).
    NotApplicable,
}

impl std::fmt::Display for Status {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Status::Compliant => "compliant",
            Status::PartiallyCompliant => "partial",
            Status::NonCompliant => "non-compliant",
            Status::NotApplicable => "n/a",
        };
        f.write_str(s)
    }
}

/// The paper's effort taxonomy for closing a gap: issues solvable "with
/// limited software engineering effort" versus those that are "much
/// deeper and require research innovations".
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Effort {
    /// Already met; nothing to do.
    None,
    /// Limited/moderate software-engineering effort (e.g. adopt MISRA C).
    Moderate,
    /// Significant redesign/recoding (e.g. lowering complexity).
    Significant,
    /// Requires research innovation (e.g. certifiable GPU language).
    Research,
}

impl std::fmt::Display for Effort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Effort::None => "none",
            Effort::Moderate => "moderate",
            Effort::Significant => "significant",
            Effort::Research => "research",
        };
        f.write_str(s)
    }
}

/// Verdict for one table row.
#[derive(Debug, Clone)]
pub struct TopicVerdict {
    /// The judged topic.
    pub topic: &'static Topic,
    /// Recommendation strength at the assessed ASIL.
    pub required: Recommendation,
    /// Measured status.
    pub status: Status,
    /// Effort class to close the gap.
    pub effort: Effort,
    /// Quantitative evidence sentence.
    pub evidence: String,
}

impl TopicVerdict {
    /// Whether this row blocks certification at the assessed ASIL: a
    /// highly-recommended technique that is not (at least partially) met.
    pub fn is_blocking(&self) -> bool {
        self.required == Recommendation::HighlyRecommended && self.status == Status::NonCompliant
    }
}

/// A complete assessment against one ASIL.
#[derive(Debug, Clone)]
pub struct ComplianceReport {
    /// The target ASIL (the paper uses ASIL-D).
    pub asil: Asil,
    /// Verdicts for all 25 rows of the three tables, in table order.
    pub verdicts: Vec<TopicVerdict>,
}

impl ComplianceReport {
    /// Verdicts of one table.
    pub fn table(&self, table: crate::tables::TableId) -> Vec<&TopicVerdict> {
        self.verdicts
            .iter()
            .filter(|v| v.topic.table == table)
            .collect()
    }

    /// Number of blocking rows (highly recommended + non-compliant).
    pub fn blocking_count(&self) -> usize {
        self.verdicts.iter().filter(|v| v.is_blocking()).count()
    }

    /// Fraction of applicable rows that are compliant.
    pub fn compliance_ratio(&self) -> f64 {
        let applicable: Vec<_> = self
            .verdicts
            .iter()
            .filter(|v| v.status != Status::NotApplicable)
            .collect();
        if applicable.is_empty() {
            return 1.0;
        }
        applicable
            .iter()
            .filter(|v| v.status == Status::Compliant)
            .count() as f64
            / applicable.len() as f64
    }
}

/// Assesses `evidence` against `asil`, producing verdicts for every row
/// of the three Part-6 tables.
pub fn assess(evidence: &Evidence, asil: Asil) -> ComplianceReport {
    let mut verdicts = Vec::with_capacity(25);
    for t in &CODING_GUIDELINES {
        verdicts.push(judge_coding(t, evidence, asil));
    }
    for t in &ARCHITECTURAL_DESIGN {
        verdicts.push(judge_architecture(t, evidence, asil));
    }
    for t in &UNIT_DESIGN {
        verdicts.push(judge_unit(t, evidence, asil));
    }
    ComplianceReport { asil, verdicts }
}

fn pct(n: usize, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        100.0 * n as f64 / d as f64
    }
}

fn verdict(
    topic: &'static Topic,
    asil: Asil,
    status: Status,
    effort: Effort,
    evidence: String,
) -> TopicVerdict {
    TopicVerdict {
        topic,
        required: topic.at(asil),
        status,
        effort,
        evidence,
    }
}

fn judge_coding(t: &'static Topic, e: &Evidence, asil: Asil) -> TopicVerdict {
    match t.row {
        1 => {
            let over = e.functions_over_cc10;
            let share = pct(over, e.total_functions);
            let (status, effort) = if over == 0 {
                (Status::Compliant, Effort::None)
            } else if share < 2.0 {
                (Status::PartiallyCompliant, Effort::Significant)
            } else {
                (Status::NonCompliant, Effort::Significant)
            };
            verdict(
                t,
                asil,
                status,
                effort,
                format!(
                    "{over} of {} functions exceed cyclomatic complexity 10 ({share:.1}%); {} exceed 20, {} exceed 50",
                    e.total_functions, e.functions_over_cc20, e.functions_over_cc50
                ),
            )
        }
        2 => {
            let cpu_bad = e.misra_violations > 0;
            let gpu_gap = e.gpu.kernel_count > 0 && !e.gpu.language_subset_available;
            let (status, effort) = match (cpu_bad, gpu_gap) {
                (false, false) => (Status::Compliant, Effort::None),
                (true, false) => (Status::NonCompliant, Effort::Moderate),
                (_, true) => (Status::NonCompliant, Effort::Research),
            };
            verdict(
                t,
                asil,
                status,
                effort,
                format!(
                    "{} MISRA-subset findings; {} GPU kernels with {}certifiable GPU language subset",
                    e.misra_violations,
                    e.gpu.kernel_count,
                    if e.gpu.language_subset_available { "a " } else { "no " }
                ),
            )
        }
        3 => {
            let total = e.explicit_casts + e.implicit_conversions;
            let (status, effort) = if total == 0 {
                (Status::Compliant, Effort::None)
            } else {
                (Status::NonCompliant, Effort::Moderate)
            };
            verdict(
                t,
                asil,
                status,
                effort,
                format!(
                    "{} explicit casts and {} implicit narrowing conversions",
                    e.explicit_casts, e.implicit_conversions
                ),
            )
        }
        4 => {
            let (status, effort) = if e.validation_ratio > 0.9 && e.unchecked_calls == 0 {
                (Status::Compliant, Effort::None)
            } else if e.validation_ratio > 0.5 {
                (Status::PartiallyCompliant, Effort::Moderate)
            } else {
                (Status::NonCompliant, Effort::Moderate)
            };
            verdict(
                t,
                asil,
                status,
                effort,
                format!(
                    "{:.0}% of functions validate parameters; {} unchecked error-returning calls",
                    e.validation_ratio * 100.0,
                    e.unchecked_calls
                ),
            )
        }
        5 => {
            let (status, effort) = if e.global_definitions == 0 {
                (Status::Compliant, Effort::None)
            } else {
                (Status::NonCompliant, Effort::Moderate)
            };
            verdict(
                t,
                asil,
                status,
                effort,
                format!(
                    "{} non-const global variables defined",
                    e.global_definitions
                ),
            )
        }
        6 => verdict(
            t,
            asil,
            Status::NotApplicable,
            Effort::None,
            "code is C/C++/CUDA; graphical modeling not used".to_string(),
        ),
        7 => {
            let (status, effort) = if e.style_findings == 0 {
                (Status::Compliant, Effort::None)
            } else if pct(e.style_findings, e.total_loc.max(1)) < 1.0 {
                (Status::PartiallyCompliant, Effort::Moderate)
            } else {
                (Status::NonCompliant, Effort::Moderate)
            };
            verdict(
                t,
                asil,
                status,
                effort,
                format!("{} style findings", e.style_findings),
            )
        }
        _ => {
            let (status, effort) = if e.naming_findings == 0 {
                (Status::Compliant, Effort::None)
            } else if pct(e.naming_findings, e.total_functions.max(1)) < 5.0 {
                (Status::PartiallyCompliant, Effort::Moderate)
            } else {
                (Status::NonCompliant, Effort::Moderate)
            };
            verdict(
                t,
                asil,
                status,
                effort,
                format!("{} naming findings", e.naming_findings),
            )
        }
    }
}

/// Maximum component size considered "restricted" (NLOC). The standard
/// sets no number; this mirrors common automotive practice.
pub const MAX_COMPONENT_NLOC: usize = 10_000;

fn judge_architecture(t: &'static Topic, e: &Evidence, asil: Asil) -> TopicVerdict {
    match t.row {
        1 => {
            let (status, effort) = if e.hierarchical_structure {
                (Status::Compliant, Effort::None)
            } else {
                (Status::PartiallyCompliant, Effort::Moderate)
            };
            verdict(
                t,
                asil,
                status,
                effort,
                format!("{} modules organised hierarchically", e.module_count()),
            )
        }
        2 => {
            let largest = e.largest_module_loc();
            let (status, effort) = if largest <= MAX_COMPONENT_NLOC {
                (Status::Compliant, Effort::None)
            } else if largest <= 2 * MAX_COMPONENT_NLOC {
                (Status::PartiallyCompliant, Effort::Moderate)
            } else {
                (Status::NonCompliant, Effort::Significant)
            };
            verdict(
                t,
                asil,
                status,
                effort,
                format!(
                    "largest module is {largest} NLOC (limit {MAX_COMPONENT_NLOC}); modules range {}–{} NLOC",
                    e.module_locs.iter().map(|(_, l)| *l).min().unwrap_or(0),
                    largest
                ),
            )
        }
        3 => {
            let (status, effort) = if e.mean_interface_params <= 4.0 {
                (Status::Compliant, Effort::None)
            } else if e.mean_interface_params <= 6.0 {
                (Status::PartiallyCompliant, Effort::Moderate)
            } else {
                (Status::NonCompliant, Effort::Moderate)
            };
            verdict(
                t,
                asil,
                status,
                effort,
                format!(
                    "mean interface size {:.1} parameters",
                    e.mean_interface_params
                ),
            )
        }
        4 => {
            let (status, effort) = if e.mean_cohesion >= 0.5 {
                (Status::Compliant, Effort::None)
            } else if e.mean_cohesion >= 0.2 {
                (Status::PartiallyCompliant, Effort::Significant)
            } else {
                (Status::NonCompliant, Effort::Significant)
            };
            verdict(
                t,
                asil,
                status,
                effort,
                format!("mean cohesion {:.2}", e.mean_cohesion),
            )
        }
        5 => {
            let budget = e.module_count().saturating_mul(8).max(1);
            let (status, effort) = if e.coupling_edges <= budget {
                (Status::Compliant, Effort::None)
            } else if e.coupling_edges <= 2 * budget {
                (Status::PartiallyCompliant, Effort::Significant)
            } else {
                (Status::NonCompliant, Effort::Significant)
            };
            verdict(
                t,
                asil,
                status,
                effort,
                format!(
                    "{} cross-module call edges (budget {budget})",
                    e.coupling_edges
                ),
            )
        }
        6 => {
            let (status, effort) = if e.has_scheduling_policy {
                (Status::Compliant, Effort::None)
            } else {
                (Status::NonCompliant, Effort::Moderate)
            };
            verdict(
                t,
                asil,
                status,
                effort,
                "scheduling properties supplied by integrator".into(),
            )
        }
        _ => {
            let (status, effort) = if e.uses_interrupts {
                (Status::NonCompliant, Effort::Moderate)
            } else {
                (Status::Compliant, Effort::None)
            };
            verdict(
                t,
                asil,
                status,
                effort,
                if e.uses_interrupts {
                    "direct interrupt use found"
                } else {
                    "no direct interrupt use"
                }
                .into(),
            )
        }
    }
}

fn judge_unit(t: &'static Topic, e: &Evidence, asil: Asil) -> TopicVerdict {
    let zero_based = |count: usize, what: &str, effort: Effort| -> (Status, Effort, String) {
        if count == 0 {
            (Status::Compliant, Effort::None, format!("no {what}"))
        } else {
            (Status::NonCompliant, effort, format!("{count} {what}"))
        }
    };
    match t.row {
        1 => {
            let (status, effort) = if e.multi_exit_pct == 0.0 {
                (Status::Compliant, Effort::None)
            } else if e.multi_exit_pct < 10.0 {
                (Status::PartiallyCompliant, Effort::Moderate)
            } else {
                (Status::NonCompliant, Effort::Moderate)
            };
            verdict(
                t,
                asil,
                status,
                effort,
                format!(
                    "{:.0}% of functions have multiple exit points",
                    e.multi_exit_pct
                ),
            )
        }
        2 => {
            // GPU dynamic allocation is intrinsic to CUDA → research-class.
            let effort = if e.gpu.device_alloc_sites > 0 {
                Effort::Research
            } else {
                Effort::Moderate
            };
            let (status, effort2, ev) =
                zero_based(e.dynamic_alloc_sites, "dynamic allocation sites", effort);
            verdict(t, asil, status, effort2, ev)
        }
        3 => {
            let (s, ef, ev) = zero_based(
                e.maybe_uninit_reads,
                "possibly-uninitialised reads",
                Effort::Moderate,
            );
            verdict(t, asil, s, ef, ev)
        }
        4 => {
            let (s, ef, ev) = zero_based(
                e.shadowed_declarations,
                "shadowed declarations",
                Effort::Moderate,
            );
            verdict(t, asil, s, ef, ev)
        }
        5 => {
            let (status, effort) = if e.global_definitions == 0 {
                (Status::Compliant, Effort::None)
            } else if e.global_definitions <= 10 {
                (Status::PartiallyCompliant, Effort::Moderate)
            } else {
                (Status::NonCompliant, Effort::Moderate)
            };
            verdict(
                t,
                asil,
                status,
                effort,
                format!("{} global variables", e.global_definitions),
            )
        }
        6 => {
            let per_fn = if e.total_functions == 0 {
                0.0
            } else {
                e.pointer_uses as f64 / e.total_functions as f64
            };
            let effort = if e.gpu.kernel_pointer_params > 0 {
                Effort::Research
            } else {
                Effort::Moderate
            };
            let (status, effort) = if e.pointer_uses == 0 {
                (Status::Compliant, Effort::None)
            } else if per_fn <= 1.0 {
                (Status::PartiallyCompliant, effort)
            } else {
                (Status::NonCompliant, effort)
            };
            verdict(
                t,
                asil,
                status,
                effort,
                format!(
                    "{} pointer uses ({per_fn:.1} per function); {} kernel pointer params",
                    e.pointer_uses, e.gpu.kernel_pointer_params
                ),
            )
        }
        7 => {
            let (s, ef, ev) = zero_based(
                e.implicit_conversions,
                "implicit narrowing conversions",
                Effort::Moderate,
            );
            verdict(t, asil, s, ef, ev)
        }
        8 => {
            let hidden = e.opaque_regions + e.global_access_functions;
            let (status, effort) = if hidden == 0 {
                (Status::Compliant, Effort::None)
            } else {
                (Status::PartiallyCompliant, Effort::Moderate)
            };
            verdict(
                t,
                asil,
                status,
                effort,
                format!(
                    "{} unanalysable regions; {} functions route data through globals",
                    e.opaque_regions, e.global_access_functions
                ),
            )
        }
        9 => {
            let (s, ef, ev) = zero_based(e.goto_count, "unconditional jumps", Effort::Moderate);
            verdict(t, asil, s, ef, ev)
        }
        _ => {
            let (s, ef, ev) = zero_based(
                e.recursive_functions,
                "recursive functions",
                Effort::Moderate,
            );
            verdict(t, asil, s, ef, ev)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tables::TableId;

    fn clean_evidence() -> Evidence {
        Evidence {
            total_loc: 1000,
            total_functions: 50,
            validation_ratio: 1.0,
            mean_cohesion: 0.8,
            mean_interface_params: 3.0,
            hierarchical_structure: true,
            has_scheduling_policy: true,
            module_locs: vec![("m".into(), 1000)],
            ..Evidence::default()
        }
    }

    #[test]
    fn clean_code_is_fully_compliant() {
        let r = assess(&clean_evidence(), Asil::D);
        assert_eq!(r.verdicts.len(), 25);
        assert_eq!(r.blocking_count(), 0);
        assert!(
            r.compliance_ratio() > 0.99,
            "ratio = {}",
            r.compliance_ratio()
        );
    }

    #[test]
    fn apollo_like_evidence_matches_paper_verdicts() {
        // Numbers shaped like the paper's Apollo findings.
        let e = Evidence {
            total_loc: 220_000,
            total_functions: 8_000,
            functions_over_cc10: 554,
            functions_over_cc20: 120,
            functions_over_cc50: 12,
            module_locs: vec![
                ("perception".into(), 60_000),
                ("planning".into(), 35_000),
                ("routing".into(), 8_000),
            ],
            misra_violations: 3_000,
            explicit_casts: 1_400,
            implicit_conversions: 400,
            validation_ratio: 0.1,
            unchecked_calls: 200,
            global_definitions: 900,
            style_findings: 0,
            naming_findings: 0,
            mean_cohesion: 0.3,
            coupling_edges: 120,
            mean_interface_params: 3.4,
            hierarchical_structure: true,
            has_scheduling_policy: false,
            uses_interrupts: false,
            multi_exit_pct: 41.0,
            dynamic_alloc_sites: 2_500,
            maybe_uninit_reads: 60,
            shadowed_declarations: 300,
            pointer_uses: 20_000,
            opaque_regions: 40,
            global_access_functions: 200,
            goto_count: 25,
            recursive_functions: 6,
            gpu: crate::evidence::GpuEvidence {
                kernel_count: 40,
                kernel_pointer_params: 110,
                device_alloc_sites: 300,
                closed_source_calls: 150,
                language_subset_available: false,
                coverage_tool_available: false,
            },
            coverage: Some(crate::evidence::CoverageEvidence {
                statement_pct: 83.0,
                branch_pct: 75.0,
                mcdc_pct: 61.0,
            }),
        };
        let r = assess(&e, Asil::D);
        // Paper: complexity, language subset, typing, defensive, globals
        // all fail; style & naming pass; graphical rep n/a.
        let t1 = r.table(TableId::CodingGuidelines);
        assert_eq!(t1[0].status, Status::NonCompliant); // complexity
        assert_eq!(t1[0].effort, Effort::Significant);
        assert_eq!(t1[1].status, Status::NonCompliant); // subsets
        assert_eq!(t1[1].effort, Effort::Research); // GPU gap dominates
        assert_eq!(t1[2].status, Status::NonCompliant); // typing
        assert_eq!(t1[3].status, Status::NonCompliant); // defensive
        assert_eq!(t1[4].status, Status::NonCompliant); // globals
        assert_eq!(t1[5].status, Status::NotApplicable); // graphical
        assert_eq!(t1[6].status, Status::Compliant); // style (Obs 8)
        assert_eq!(t1[7].status, Status::Compliant); // naming (Obs 9)
                                                     // Table 2: size non-compliant (60k module), Obs 13.
        let t2 = r.table(TableId::ArchitecturalDesign);
        assert_eq!(t2[1].status, Status::NonCompliant);
        // Table 3: all ten rows fail at least partially (Obs 14).
        let t3 = r.table(TableId::UnitDesign);
        assert!(t3.iter().all(|v| v.status != Status::Compliant));
        assert_eq!(t3[0].status, Status::NonCompliant); // 41% multi-exit
        assert_eq!(t3[1].effort, Effort::Research); // CUDA dynamic memory
        assert_eq!(t3[5].effort, Effort::Research); // CUDA pointers
        assert!(r.blocking_count() >= 8, "blocking = {}", r.blocking_count());
    }

    #[test]
    fn asil_a_relaxes_requirements() {
        let mut e = clean_evidence();
        e.pointer_uses = 10;
        let d = assess(&e, Asil::D);
        let a = assess(&e, Asil::A);
        let row6_d = &d.table(TableId::UnitDesign)[5];
        let row6_a = &a.table(TableId::UnitDesign)[5];
        assert_eq!(row6_d.required, Recommendation::HighlyRecommended);
        assert_eq!(row6_a.required, Recommendation::NotRequired);
    }

    #[test]
    fn blocking_requires_highly_recommended() {
        let mut e = clean_evidence();
        e.recursive_functions = 3; // row 10: "+" at A/B, "++" at C/D
        let b = assess(&e, Asil::B);
        let d = assess(&e, Asil::D);
        let vb = &b.table(TableId::UnitDesign)[9];
        let vd = &d.table(TableId::UnitDesign)[9];
        assert!(!vb.is_blocking());
        assert!(vd.is_blocking());
    }

    #[test]
    fn status_display() {
        assert_eq!(Status::PartiallyCompliant.to_string(), "partial");
        assert_eq!(Effort::Research.to_string(), "research");
    }
}
