//! The paper's fourteen numbered observations, synthesised from measured
//! [`Evidence`]. Each observation carries the condition under which the
//! paper's statement holds for the assessed code base, so the generated
//! report states only what the measurements support.

use crate::evidence::Evidence;

/// One synthesised observation.
#[derive(Debug, Clone)]
pub struct Observation {
    /// Paper observation number (1–14).
    pub number: u8,
    /// Whether the measurements support the observation for this code.
    pub holds: bool,
    /// The observation text, instantiated with measured numbers.
    pub text: String,
}

/// Generates all fourteen observations from `evidence`.
pub fn observations(e: &Evidence) -> Vec<Observation> {
    let mut out = Vec::with_capacity(14);
    let mut push = |number: u8, holds: bool, text: String| {
        out.push(Observation {
            number,
            holds,
            text,
        });
    };

    push(
        1,
        e.functions_over_cc10 > 0,
        format!(
            "AD frameworks present a high complexity in terms of cyclomatic complexity: \
             {} functions exceed CC 10 ({} exceed 20, {} exceed 50).",
            e.functions_over_cc10, e.functions_over_cc20, e.functions_over_cc50
        ),
    );
    push(
        2,
        e.misra_violations > 0,
        format!(
            "The CPU part is not programmed according to any safety-related guideline: \
             {} MISRA-subset findings. Moderate effort can make the code adhere to a \
             language subset like MISRA C.",
            e.misra_violations
        ),
    );
    push(
        3,
        e.gpu.kernel_count > 0 && !e.gpu.language_subset_available,
        format!(
            "No guideline or language subset exists for GPU code to facilitate code \
             safety assessment ({} CUDA kernels in this code base).",
            e.gpu.kernel_count
        ),
    );
    push(
        4,
        e.gpu.kernel_pointer_params > 0 || e.gpu.device_alloc_sites > 0,
        format!(
            "CUDA code intrinsically uses features not recommended in ISO 26262: \
             {} raw-pointer kernel parameters and {} device allocation sites.",
            e.gpu.kernel_pointer_params, e.gpu.device_alloc_sites
        ),
    );
    push(
        5,
        e.explicit_casts > 0,
        format!(
            "C/C++ weak typing in practice: {} explicit castings observed, confronting \
             the strong-typing requirement.",
            e.explicit_casts
        ),
    );
    push(
        6,
        e.validation_ratio < 0.5,
        format!(
            "Defensive programming techniques are not used: only {:.0}% of functions \
             validate their inputs; {} error-returning calls are unchecked. Limited \
             effort can add this.",
            e.validation_ratio * 100.0,
            e.unchecked_calls
        ),
    );
    push(
        7,
        e.global_definitions > 0,
        format!(
            "AD software uses global variables ({} definitions), requiring elimination \
             or complex argumentation to support their use.",
            e.global_definitions
        ),
    );
    push(
        8,
        e.style_findings == 0,
        if e.style_findings == 0 {
            "AD software follows style guides: the code validates against the Google \
             C++ style checks."
                .to_string()
        } else {
            format!(
                "Style guide adherence is incomplete: {} findings.",
                e.style_findings
            )
        },
    );
    push(
        9,
        e.naming_findings == 0,
        if e.naming_findings == 0 {
            "AD software adheres to naming conventions: types, functions, variables, \
             and macros follow the adopted guidelines."
                .to_string()
        } else {
            format!("Naming conventions violated {} times.", e.naming_findings)
        },
    );
    let cov = e.coverage;
    push(
        10,
        cov.map(|c| c.statement_pct < 100.0 || c.branch_pct < 100.0 || c.mcdc_pct < 100.0)
            .unwrap_or(false),
        match cov {
            Some(c) => format!(
                "Code coverage for AD software is low with available tests: statement \
                 {:.0}%, branch {:.0}%, MC/DC {:.0}%. Additional test cases are \
                 required to reach (preferably) 100%.",
                c.statement_pct, c.branch_pct, c.mcdc_pct
            ),
            None => "Code coverage was not measured.".to_string(),
        },
    );
    push(
        11,
        e.gpu.kernel_count > 0 && !e.gpu.coverage_tool_available,
        "Tool support in the real-time domain to measure code coverage of GPU code is \
         very limited; no qualified GPU coverage tool exists."
            .to_string(),
    );
    push(
        12,
        e.gpu.closed_source_calls > 0,
        format!(
            "Heterogeneous AD software makes extensive use of performance-optimized \
             closed-source CUDA libraries ({} call sites), which hampers assessing \
             compliance against ISO 26262.",
            e.gpu.closed_source_calls
        ),
    );
    push(
        13,
        e.largest_module_loc() > crate::compliance::MAX_COMPONENT_NLOC,
        format!(
            "AD frameworks do not comply with architectural-design principles such as \
             restricted component size: the largest module is {} NLOC. Compliance is \
             achievable with non-negligible effort.",
            e.largest_module_loc()
        ),
    );
    let unit_issues = e.multi_exit_pct > 0.0
        || e.dynamic_alloc_sites > 0
        || e.maybe_uninit_reads > 0
        || e.shadowed_declarations > 0
        || e.global_definitions > 0
        || e.pointer_uses > 0
        || e.implicit_conversions > 0
        || e.goto_count > 0
        || e.recursive_functions > 0;
    push(
        14,
        unit_issues,
        format!(
            "The AD software does not comply with the unit design and implementation \
             principles: {:.0}% multi-exit functions, {} dynamic allocations, {} \
             goto statements, {} recursive functions, {} pointer uses.",
            e.multi_exit_pct,
            e.dynamic_alloc_sites,
            e.goto_count,
            e.recursive_functions,
            e.pointer_uses
        ),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evidence::{CoverageEvidence, GpuEvidence};

    #[test]
    fn all_fourteen_generated_in_order() {
        let obs = observations(&Evidence::default());
        assert_eq!(obs.len(), 14);
        for (i, o) in obs.iter().enumerate() {
            assert_eq!(o.number as usize, i + 1);
            assert!(!o.text.is_empty());
        }
    }

    #[test]
    fn clean_code_observations_mostly_do_not_hold() {
        let e = Evidence {
            validation_ratio: 1.0,
            ..Evidence::default()
        };
        let obs = observations(&e);
        assert!(!obs[0].holds); // no complexity problem
        assert!(!obs[1].holds); // no MISRA findings
        assert!(obs[7].holds); // style *does* hold (it's a positive obs)
        assert!(obs[8].holds); // naming positive
        assert!(!obs[13].holds); // unit design clean
    }

    #[test]
    fn apollo_like_evidence_triggers_paper_observations() {
        let e = Evidence {
            total_functions: 8000,
            functions_over_cc10: 554,
            misra_violations: 100,
            explicit_casts: 1400,
            validation_ratio: 0.1,
            global_definitions: 900,
            multi_exit_pct: 41.0,
            dynamic_alloc_sites: 10,
            pointer_uses: 100,
            goto_count: 5,
            recursive_functions: 2,
            module_locs: vec![("perception".into(), 60_000)],
            gpu: GpuEvidence {
                kernel_count: 40,
                kernel_pointer_params: 110,
                device_alloc_sites: 300,
                closed_source_calls: 150,
                ..GpuEvidence::default()
            },
            coverage: Some(CoverageEvidence {
                statement_pct: 83.0,
                branch_pct: 75.0,
                mcdc_pct: 61.0,
            }),
            ..Evidence::default()
        };
        let obs = observations(&e);
        for n in [1, 2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 14] {
            assert!(obs[n - 1].holds, "observation {n} should hold");
        }
        assert!(obs[0].text.contains("554"));
        assert!(obs[4].text.contains("1400"));
        assert!(obs[9].text.contains("83"));
        assert!(obs[12].text.contains("60000"));
    }
}
