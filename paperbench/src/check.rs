//! The known-answer check every timed operation must pass. The
//! reference is the generator's plan, not the analyser: the counts come
//! from the corpus spec, the verdicts and observations from the paper.

use adsafe::corpus::ApolloSpec;
use adsafe::iso26262::{Status, TableId};
use adsafe::AssessmentReport;

/// What an assessment of the seeded corpus must report.
#[derive(Debug, Clone, Copy)]
pub struct Expected {
    /// Functions the plan puts above cyclomatic complexity 10 (554).
    pub functions_over_cc10: usize,
    /// File-scope variables the plan declares (1550).
    pub global_definitions: usize,
}

/// Table 1 (coding guidelines) as the paper reports it: rows 1–5
/// non-compliant, row 6 not applicable, rows 7–8 compliant.
const TABLE1: [Status; 8] = [
    Status::NonCompliant,
    Status::NonCompliant,
    Status::NonCompliant,
    Status::NonCompliant,
    Status::NonCompliant,
    Status::NotApplicable,
    Status::Compliant,
    Status::Compliant,
];

/// The paper's observations that follow from code alone (10 needs a
/// coverage run).
const OBSERVATIONS: [u8; 13] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14];

impl Expected {
    pub fn from_spec(spec: &ApolloSpec) -> Expected {
        Expected {
            functions_over_cc10: spec.total_over_10(),
            global_definitions: spec.modules.iter().map(|m| m.globals).sum(),
        }
    }

    /// `Ok` when `report` is an undegraded assessment with the planned
    /// counts, the paper's Table 1 verdicts and its observations.
    pub fn verify(&self, report: &AssessmentReport) -> Result<(), String> {
        if report.degraded {
            return Err(format!("degraded report: {} fault(s)", report.faults.len()));
        }
        let e = &report.evidence;
        if e.functions_over_cc10 != self.functions_over_cc10 {
            return Err(format!(
                "functions_over_cc10 = {}, plan says {}",
                e.functions_over_cc10, self.functions_over_cc10
            ));
        }
        if e.global_definitions != self.global_definitions {
            return Err(format!(
                "global_definitions = {}, plan says {}",
                e.global_definitions, self.global_definitions
            ));
        }
        let t1: Vec<Status> = report
            .compliance
            .table(TableId::CodingGuidelines)
            .iter()
            .map(|v| v.status)
            .collect();
        if t1 != TABLE1 {
            return Err(format!("Table 1 statuses {t1:?}, paper says {TABLE1:?}"));
        }
        for n in OBSERVATIONS {
            if !report.observations.iter().any(|o| o.number == n && o.holds) {
                return Err(format!("observation {n} does not hold"));
            }
        }
        Ok(())
    }
}
