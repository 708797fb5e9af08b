//! Measured evidence feeding the compliance assessment.
//!
//! [`Evidence`] is deliberately a plain bag of numbers: the measurement
//! crates (`adsafe-metrics`, `adsafe-checkers`, `adsafe-coverage`)
//! produce it, this crate judges it. That keeps the standard model free
//! of analysis dependencies and makes the engine easy to test.

/// GPU-specific evidence (paper Observations 3, 4, 11, 12).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GpuEvidence {
    /// Number of `__global__` kernels.
    pub kernel_count: usize,
    /// Raw-pointer parameters across kernels.
    pub kernel_pointer_params: usize,
    /// Device allocation sites (`cudaMalloc` family).
    pub device_alloc_sites: usize,
    /// Calls into closed-source GPU libraries (cuBLAS/cuDNN/TensorRT).
    pub closed_source_calls: usize,
    /// Whether a certification-friendly GPU language subset is in use
    /// (e.g. Brook Auto). No standard subset exists for CUDA (Obs. 3).
    pub language_subset_available: bool,
    /// Whether a qualified GPU code-coverage tool is available (Obs. 11).
    pub coverage_tool_available: bool,
}

/// Structural-coverage evidence (paper Figures 5–6), in percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoverageEvidence {
    /// Statement coverage, 0–100.
    pub statement_pct: f64,
    /// Branch coverage, 0–100.
    pub branch_pct: f64,
    /// MC/DC coverage, 0–100.
    pub mcdc_pct: f64,
}

/// Everything the compliance engine judges. Field groups map to the
/// paper's sections; see each field's doc for the table row it feeds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Evidence {
    // -- size & complexity (Table 1 row 1, Table 3 row 2, Figure 3) --
    /// Total non-comment lines of code.
    pub total_loc: usize,
    /// Total function definitions.
    pub total_functions: usize,
    /// Functions with cyclomatic complexity > 10.
    pub functions_over_cc10: usize,
    /// Functions with cyclomatic complexity > 20.
    pub functions_over_cc20: usize,
    /// Functions with cyclomatic complexity > 50.
    pub functions_over_cc50: usize,
    /// `(module, nloc)` pairs.
    pub module_locs: Vec<(String, usize)>,

    // -- language subset & typing (Table 1 rows 2–3) --
    /// Findings from the MISRA-style subset rules.
    pub misra_violations: usize,
    /// Explicit casts (paper: >1,400 in Apollo).
    pub explicit_casts: usize,
    /// Implicit narrowing conversions detected.
    pub implicit_conversions: usize,

    // -- defensive & design (Table 1 rows 4–5) --
    /// Fraction of functions with parameters that validate at least one
    /// parameter, 0–1.
    pub validation_ratio: f64,
    /// Calls whose error-encoding return value is discarded.
    pub unchecked_calls: usize,
    /// Non-const global variable definitions (paper: ≈900 in perception).
    pub global_definitions: usize,

    // -- style & naming (Table 1 rows 7–8) --
    /// Style-guide findings.
    pub style_findings: usize,
    /// Naming-convention findings.
    pub naming_findings: usize,

    // -- architecture (Table 3 / paper Table 2) --
    /// Mean module cohesion 0–1.
    pub mean_cohesion: f64,
    /// Distinct cross-module call edges.
    pub coupling_edges: usize,
    /// Mean function parameter count (interface size proxy).
    pub mean_interface_params: f64,
    /// Whether the code base exhibits a hierarchical component structure
    /// (modules → files → functions with no cross-layer leaks).
    pub hierarchical_structure: bool,
    /// Whether scheduling of components is specified (not derivable from
    /// source; supplied by the integrator).
    pub has_scheduling_policy: bool,
    /// Whether interrupts are used directly.
    pub uses_interrupts: bool,

    // -- unit design (Table 8 / paper Table 3) --
    /// Percentage (0–100) of functions with multiple exits (paper: 41%).
    pub multi_exit_pct: f64,
    /// Dynamic allocation/deallocation sites.
    pub dynamic_alloc_sites: usize,
    /// Reads of possibly-uninitialised variables.
    pub maybe_uninit_reads: usize,
    /// Declarations shadowing outer names.
    pub shadowed_declarations: usize,
    /// Pointer uses (params, derefs, pointer locals).
    pub pointer_uses: usize,
    /// Unanalysable (opaque) regions — hidden-flow proxy.
    pub opaque_regions: usize,
    /// Functions whose data flows through global variables (hidden data
    /// flow in the ISO 26262-6 Table 8 row 8 sense).
    pub global_access_functions: usize,
    /// `goto` statements.
    pub goto_count: usize,
    /// Functions participating in recursion.
    pub recursive_functions: usize,

    // -- GPU & coverage --
    /// GPU evidence.
    pub gpu: GpuEvidence,
    /// CPU structural coverage, if measured.
    pub coverage: Option<CoverageEvidence>,
}

impl Evidence {
    /// Largest module size in NLOC, or 0 with no modules.
    pub fn largest_module_loc(&self) -> usize {
        self.module_locs.iter().map(|(_, l)| *l).max().unwrap_or(0)
    }

    /// Number of modules.
    pub fn module_count(&self) -> usize {
        self.module_locs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn largest_module() {
        let mut e = Evidence::default();
        assert_eq!(e.largest_module_loc(), 0);
        e.module_locs = vec![
            ("a".into(), 5_000),
            ("b".into(), 60_000),
            ("c".into(), 20_000),
        ];
        assert_eq!(e.largest_module_loc(), 60_000);
        assert_eq!(e.module_count(), 3);
    }
}
