//! End-to-end integration: the Apollo-scale corpus flows through the
//! whole toolchain (generator → parser → metrics → checkers → ISO 26262
//! engine) and reproduces the paper's aggregate findings.

use adsafe::corpus::{generate, ApolloSpec};
use adsafe::iso26262::{Effort, Recommendation, Status, TableId};
use adsafe::{assess_corpus, render, AssessmentOptions};

fn spec() -> ApolloSpec {
    ApolloSpec::test_scale()
}

#[test]
fn corpus_parses_without_recovery() {
    let files = generate(&spec());
    for f in &files {
        let parsed = adsafe::lang::parse_source(adsafe::lang::FileId(0), &f.text);
        assert_eq!(parsed.unit.recovery_count, 0, "opaque region in {}", f.path);
    }
}

#[test]
fn full_assessment_reproduces_paper_verdicts() {
    let files = generate(&spec());
    let report = assess_corpus(&files, AssessmentOptions::default());

    // Table 1 verdicts match the paper's qualitative findings.
    let t1 = report.compliance.table(TableId::CodingGuidelines);
    assert_eq!(t1[0].status, Status::NonCompliant, "Obs 1: high complexity");
    assert_eq!(t1[0].effort, Effort::Significant);
    assert_eq!(
        t1[1].status,
        Status::NonCompliant,
        "Obs 2/3: no language subset"
    );
    assert_eq!(
        t1[1].effort,
        Effort::Research,
        "GPU subset gap is research-class"
    );
    assert_eq!(t1[2].status, Status::NonCompliant, "Obs 5: weak typing");
    assert_eq!(
        t1[3].status,
        Status::NonCompliant,
        "Obs 6: no defensive programming"
    );
    assert_eq!(
        t1[4].status,
        Status::NonCompliant,
        "Obs 7: global variables"
    );
    assert_eq!(
        t1[5].status,
        Status::NotApplicable,
        "graphical representation"
    );
    assert_eq!(
        t1[6].status,
        Status::Compliant,
        "Obs 8: style guides followed"
    );
    assert_eq!(
        t1[7].status,
        Status::Compliant,
        "Obs 9: naming conventions followed"
    );

    // Table 2: at test scale modules fit the size limit; Obs 13 is
    // exercised at paper scale by the iso26262 unit tests and the
    // assess_apollo bench. Here we only require the row to be judged.
    let t2 = report.compliance.table(TableId::ArchitecturalDesign);
    assert!(!t2[1].evidence.is_empty(), "size row carries evidence");

    // Table 3: every unit-design topic has findings (Obs 14).
    let t3 = report.compliance.table(TableId::UnitDesign);
    for v in &t3 {
        assert_ne!(
            v.status,
            Status::Compliant,
            "row {} `{}` should have findings",
            v.topic.row,
            v.topic.name
        );
    }
    // CUDA-rooted rows need research, not just engineering.
    assert_eq!(t3[1].effort, Effort::Research, "dynamic device memory");
    assert_eq!(t3[5].effort, Effort::Research, "pointers in kernels");
}

#[test]
fn observations_match_the_paper() {
    let files = generate(&spec());
    let report = assess_corpus(&files, AssessmentOptions::default());
    let holds: Vec<u8> = report
        .observations
        .iter()
        .filter(|o| o.holds)
        .map(|o| o.number)
        .collect();
    // All of the paper's code-derivable observations hold; 10 requires a
    // coverage run and 13 requires full-scale module sizes (both covered
    // by their own experiments/tests).
    for n in [1u8, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 14] {
        assert!(
            holds.contains(&n),
            "observation {n} should hold; got {holds:?}"
        );
    }
}

#[test]
fn calibration_statistics_match_spec() {
    let s = spec();
    let files = generate(&s);
    let report = assess_corpus(&files, AssessmentOptions::default());
    // Banded complexity counts are constructive: CC > 10 exactly matches.
    assert_eq!(
        report.evidence.functions_over_cc10,
        s.total_over_10(),
        "calibrated CC>10 count"
    );
    // Globals: exactly as specified.
    let expected_globals: usize = s.modules.iter().map(|m| m.globals).sum();
    assert_eq!(report.evidence.global_definitions, expected_globals);
    // Casts: at least the planned number (checker counts each).
    let expected_casts: usize = s.modules.iter().map(|m| m.casts).sum();
    assert!(
        report.evidence.explicit_casts >= expected_casts,
        "{} < {expected_casts}",
        report.evidence.explicit_casts
    );
    // Multi-exit fraction lands near perception's 41% / corpus mean ~0.3.
    assert!(
        (20.0..=50.0).contains(&report.evidence.multi_exit_pct),
        "multi-exit = {}",
        report.evidence.multi_exit_pct
    );
    // GPU: kernels only in perception, all with pointer params.
    let expected_kernels: usize = s.modules.iter().map(|m| m.cuda_kernels).sum();
    assert_eq!(report.evidence.gpu.kernel_count, expected_kernels);
    assert_eq!(
        report.evidence.gpu.kernel_pointer_params,
        2 * expected_kernels
    );
    assert!(report.evidence.gpu.device_alloc_sites >= 2 * expected_kernels);
    assert!(report.evidence.gpu.closed_source_calls >= expected_kernels);
}

#[test]
fn figure3_renders_all_modules() {
    let files = generate(&spec());
    let report = assess_corpus(&files, AssessmentOptions::default());
    let fig = render::fig3(&report);
    assert_eq!(fig.labels.len(), 9, "nine Apollo modules");
    assert!(fig.labels.contains(&"perception".to_string()));
    // Perception dominates LOC, as in the paper.
    let loc = &fig.series[0].1;
    let p = fig.labels.iter().position(|l| l == "perception").unwrap();
    assert_eq!(
        loc[p],
        loc.iter().cloned().fold(f64::MIN, f64::max),
        "perception is the largest module"
    );
    let tables = [
        render::table1(&report),
        render::table2(&report),
        render::table3(&report),
    ];
    assert_eq!(
        tables[0].rows.len() + tables[1].rows.len() + tables[2].rows.len(),
        25
    );
}

#[test]
fn asil_scaling_relaxes_low_levels() {
    let files = generate(&spec());
    let d = assess_corpus(&files, AssessmentOptions::default());
    let a = assess_corpus(
        &files,
        AssessmentOptions {
            asil: adsafe::iso26262::Asil::A,
            ..AssessmentOptions::default()
        },
    );
    assert!(a.compliance.blocking_count() < d.compliance.blocking_count());
    // Pointer row is `o` at ASIL-A.
    let row6 = &a.compliance.table(TableId::UnitDesign)[5];
    assert_eq!(row6.required, Recommendation::NotRequired);
}

#[test]
fn cross_module_coupling_measured() {
    let files = generate(&spec());
    let report = assess_corpus(&files, AssessmentOptions::default());
    // Every module after perception bridges into it: 8 edges.
    assert_eq!(
        report.evidence.coupling_edges, 8,
        "one bridge edge per downstream module"
    );
}
