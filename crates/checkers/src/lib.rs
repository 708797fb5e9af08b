//! # adsafe-checkers — rule engine for ISO 26262 software guidelines
//!
//! Static checks over the [`adsafe_lang`] AST covering the guideline
//! families the paper assesses Apollo against: the native rules (global
//! use and Google-style layout), the policy the facts walk consults for
//! the bundled rules (MISRA-style language subset, strong typing,
//! defensive programming, naming, CUDA-specific rules), and the
//! quantified unit-design statistics of ISO 26262-6 Table 8.
//!
//! ```
//! use adsafe_checkers::{AnalysisSet, default_checks};
//!
//! let mut set = AnalysisSet::new();
//! set.add("demo", "demo.cc", "int g;\nint f() { return g; }\n");
//! let cx = set.context();
//! let diags: Vec<_> = default_checks()
//!     .iter()
//!     .flat_map(|c| c.run(&cx))
//!     .collect();
//! assert!(diags.iter().any(|d| d.check_id == "design-global-use"));
//! ```

#![warn(missing_docs)]

pub mod context;
pub mod cuda_rules;
pub mod defensive;
pub mod design;
pub mod diag;
pub mod misra;
pub mod naming;
pub mod style;
pub mod typing;
pub mod unit_design;

pub use context::{AnalysisSet, CheckContext, FileEntry};
pub use diag::{sort_canonical, Diagnostic, Severity};
pub use unit_design::{unit_design_stats, UnitDesignStats};

/// How much of the program a rule needs to see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckScope {
    /// The rule only reads `cx.entries` — it can run over a
    /// [`CheckContext::file_local`] context, one file at a time, which
    /// is what lets the pipeline run every such rule in one task per
    /// file and cache its diagnostics per file.
    File,
    /// The rule reads cross-file state (`cx.graph`,
    /// `cx.global_names`) and must see the whole program at once.
    Program,
}

impl CheckScope {
    /// `"file"` or `"program"`.
    pub fn name(self) -> &'static str {
        match self {
            CheckScope::File => "file",
            CheckScope::Program => "program",
        }
    }
}

/// A static-analysis rule.
///
/// Checks are stateless: all inputs come from the [`CheckContext`], all
/// outputs are [`Diagnostic`]s. `iso_refs` ties each rule to the ISO
/// 26262-6 table rows it provides evidence for (e.g.
/// `"Part6.Table8.Row9"`), which is how the compliance engine in
/// `adsafe-iso26262` aggregates findings into verdicts.
pub trait Check: Send + Sync {
    /// Stable rule identifier, e.g. `"design-global-use"`.
    fn id(&self) -> &'static str;
    /// One-line description of what the rule requires.
    fn description(&self) -> &'static str;
    /// ISO 26262-6 table rows this rule evidences.
    fn iso_refs(&self) -> &'static [&'static str];
    /// Runs the rule over the context.
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic>;
    /// How much of the program the rule needs (default: one file).
    fn scope(&self) -> CheckScope {
        CheckScope::File
    }
}

/// The full default rule set, in a stable order.
pub fn default_checks() -> Vec<Box<dyn Check>> {
    vec![
        // design principles
        Box::new(design::GlobalUseCheck),
        // style
        Box::new(style::LineStyleCheck),
        Box::new(style::IndentationCheck),
        Box::new(style::BraceStyleCheck),
    ]
}

/// Runs every check in `checks` and returns all diagnostics, ordered by
/// check then by source position.
///
/// File-major: every [`CheckScope::File`] rule runs over one entry's
/// [`CheckContext::file_local`] context before the next entry, so each
/// file's tree is walked by all of its rules while it is still in
/// cache; [`CheckScope::Program`] rules then see the whole context.
/// A file-scoped rule's per-file outputs concatenate to its
/// whole-context output, so the sorted result equals running each rule
/// over `cx` in turn.
pub fn run_checks(checks: &[Box<dyn Check>], cx: &CheckContext<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for e in &cx.entries {
        let local = CheckContext::file_local(cx.sm, *e);
        for c in checks.iter().filter(|c| c.scope() == CheckScope::File) {
            out.extend(c.run(&local));
        }
    }
    for c in checks.iter().filter(|c| c.scope() == CheckScope::Program) {
        out.extend(c.run(cx));
    }
    sort_canonical(&mut out);
    out
}

/// A rule that panicked instead of returning diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckFailure {
    /// The failing rule's id.
    pub check_id: &'static str,
    /// The panic message.
    pub message: String,
}

/// Runs one check with panic containment: a rule that panics yields
/// `Err` with its panic message instead of unwinding into the caller.
///
/// Each execution runs under a `check.<rule-id>` trace span (the
/// per-rule timings behind the report's "slowest rules" list), and the
/// rule's finding count lands in the `checks.rule.<rule-id>.diags`
/// counter.
pub fn run_one_check(
    check: &dyn Check,
    cx: &CheckContext<'_>,
) -> Result<Vec<Diagnostic>, CheckFailure> {
    let _sp = adsafe_trace::span(format!("check.{}", check.id()), "checks");
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check.run(cx))).map_err(
        |payload| CheckFailure {
            check_id: check.id(),
            message: payload_message(&*payload),
        },
    );
    if let Ok(diags) = &result {
        adsafe_trace::counter(&format!("checks.rule.{}.diags", check.id())).add(diags.len() as u64);
    }
    result
}

fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_unique_ids() {
        let checks = default_checks();
        let mut ids: Vec<&str> = checks.iter().map(|c| c.id()).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before, "duplicate check ids");
        assert_eq!(before, 4, "rule set size");
    }

    #[test]
    fn only_graph_and_global_rules_are_program_scoped() {
        let program: Vec<&str> = default_checks()
            .iter()
            .filter(|c| c.scope() == CheckScope::Program)
            .map(|c| c.id())
            .collect();
        assert_eq!(program, ["design-global-use"]);
    }

    #[test]
    fn file_scoped_rules_agree_with_file_local_contexts() {
        // Running a File-scoped rule over per-file contexts and
        // concatenating must equal running it over the full context —
        // the invariant the one-task-per-file checks phase rests on.
        let mut set = AnalysisSet::new();
        set.add(
            "m",
            "a.cc",
            "int g;\nint f(int* p) { if (*p) goto x; x: return (int)1.5; }\n",
        );
        set.add("m", "b.cc", "void helper(float* q) { *q = 1.0f; }\n");
        let cx = set.context();
        for check in default_checks() {
            if check.scope() != CheckScope::File {
                continue;
            }
            let whole = check.run(&cx);
            let sharded: Vec<Diagnostic> = cx
                .entries
                .iter()
                .flat_map(|e| check.run(&CheckContext::file_local(cx.sm, *e)))
                .collect();
            assert_eq!(whole, sharded, "rule {} is not file-local", check.id());
        }
    }

    #[test]
    fn every_check_has_iso_refs_and_description() {
        for c in default_checks() {
            assert!(!c.description().is_empty(), "{} lacks description", c.id());
            assert!(!c.iso_refs().is_empty(), "{} lacks ISO refs", c.id());
            for r in c.iso_refs() {
                assert!(r.starts_with("Part6.Table"), "{} has odd ref {r}", c.id());
            }
        }
    }

    #[test]
    fn run_checks_is_sorted_and_complete() {
        let mut set = AnalysisSet::new();
        set.add(
            "m",
            "t.cc",
            "int g;\nint f(int* p) {\n\tg = 2;\n   if (*p) goto x; x: free(p); return (int)1.5; }\n",
        );
        let cx = set.context();
        let checks = default_checks();
        let diags = run_checks(&checks, &cx);
        assert!(diags.iter().any(|d| d.check_id == "style-line"));
        assert!(diags.iter().any(|d| d.check_id == "style-indent"));
        assert!(diags.iter().any(|d| d.check_id == "design-global-use"));
        let mut sorted = diags.clone();
        sorted.sort_by_key(|d| (d.check_id, d.span.file, d.span.start));
        assert_eq!(diags, sorted);
    }

    #[test]
    fn file_major_run_checks_equals_rule_major_reference() {
        let mut set = AnalysisSet::new();
        set.add(
            "m",
            "a.cc",
            "int g;\nint f(int* p) { if (*p) goto x; g = 2; x: return (int)1.5; }\n",
        );
        set.add(
            "m",
            "b.cc",
            "extern int g;\nvoid h(float* q) { g = 3; *q = 1.0f; }\n",
        );
        set.add("n", "c.cu", "__global__ void k(float* x) { x[0] = 010; }\n");
        let cx = set.context();
        let checks = default_checks();
        let mut reference: Vec<Diagnostic> = checks.iter().flat_map(|c| c.run(&cx)).collect();
        reference.sort_by_key(|d| (d.check_id, d.span.file, d.span.start));
        let got = run_checks(&checks, &cx);
        assert!(
            got.iter()
                .filter(|d| d.check_id == "design-global-use")
                .count()
                >= 2
        );
        assert_eq!(got, reference);
    }

    struct PanickingCheck;

    impl Check for PanickingCheck {
        fn id(&self) -> &'static str {
            "test-panicking-rule"
        }
        fn description(&self) -> &'static str {
            "always panics"
        }
        fn iso_refs(&self) -> &'static [&'static str] {
            &["Part6.Table1.Row1"]
        }
        fn run(&self, _cx: &CheckContext<'_>) -> Vec<Diagnostic> {
            panic!("rule bug: index out of range")
        }
    }

    #[test]
    fn isolated_run_contains_a_panicking_rule() {
        let mut set = AnalysisSet::new();
        set.add("m", "t.cc", "int g;\nint f() { goto x; x: return 1; }\n");
        let cx = set.context();
        let checks = default_checks();
        let clean = run_checks(&checks, &cx);
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let failure = run_one_check(&PanickingCheck, &cx).expect_err("the panic is contained");
        // Rules run after the contained panic are unaffected.
        let mut diags: Vec<Diagnostic> = Vec::new();
        for c in &checks {
            diags.extend(run_one_check(c.as_ref(), &cx).expect("healthy rules never fail"));
        }
        std::panic::set_hook(prev);
        assert_eq!(failure.check_id, "test-panicking-rule");
        assert!(failure.message.contains("index out of range"));
        diags.sort_by_key(|d| (d.check_id, d.span.file, d.span.start));
        assert_eq!(diags, clean);
    }
}
