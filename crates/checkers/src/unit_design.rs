//! Quantified unit-design statistics: the ten rows of ISO 26262-6
//! Table 8 (paper Table 3 and §3.5), measured over a whole analysis
//! context. The paper reports e.g. "41% of the functions in the object
//! detection module have several exit points" and "≈900 globals in the
//! perception module" — [`UnitDesignStats`] produces exactly those
//! numbers for any code base.

use crate::CheckContext;
use adsafe_lang::ast::{ExprKind, StmtKind, Storage};
use adsafe_lang::symbols::analyze_function;
use adsafe_lang::visit::{walk_exprs, walk_stmts};

/// Aggregate statistics for the ten ISO 26262-6 Table 8 topics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitDesignStats {
    /// Total functions analysed.
    pub function_count: usize,
    /// Row 1: functions with multiple entry/exit points.
    pub multi_exit_functions: usize,
    /// Row 2: dynamic allocation/deallocation sites (malloc/new/cudaMalloc…).
    pub dynamic_alloc_sites: usize,
    /// Row 3: reads of possibly-uninitialised locals.
    pub maybe_uninit_reads: usize,
    /// Row 4: declarations shadowing an outer binding (name reuse).
    pub shadowed_declarations: usize,
    /// Row 5: non-const global variable definitions.
    pub global_definitions: usize,
    /// Row 6: pointer operations (derefs, arrow access, pointer params).
    pub pointer_uses: usize,
    /// Row 7: implicit narrowing conversions detected.
    pub implicit_conversions: usize,
    /// Row 8: opaque/unanalysable regions (hidden data/control flow proxy).
    pub opaque_regions: usize,
    /// Row 9: unconditional jumps (goto).
    pub goto_count: usize,
    /// Row 10: functions participating in recursion.
    pub recursive_functions: usize,
}

impl UnitDesignStats {
    /// Percentage of functions with multiple exit points (paper: 41% in
    /// object detection).
    pub fn multi_exit_pct(&self) -> f64 {
        if self.function_count == 0 {
            0.0
        } else {
            100.0 * self.multi_exit_functions as f64 / self.function_count as f64
        }
    }
}

/// The per-function slice of [`UnitDesignStats`]: everything that can
/// be measured from one function body alone, with no cross-file
/// context. The incremental pipeline extracts these once per file and
/// caches them; [`unit_design_stats`] is their aggregation plus the
/// cross-file parts (recursion via the call graph, implicit
/// conversions, file-level globals/opaque regions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FunctionUnitFacts {
    /// Row 3: reads of possibly-uninitialised locals.
    pub maybe_uninit_reads: usize,
    /// Row 4: declarations shadowing an outer binding.
    pub shadowed_declarations: usize,
    /// Row 6: pointer operations (params, derefs, arrow access, local
    /// pointer declarations).
    pub pointer_uses: usize,
    /// Row 2: dynamic allocation/deallocation sites.
    pub dynamic_alloc_sites: usize,
    /// Row 8 contribution: opaque statements inside the body.
    pub opaque_stmts: usize,
}

/// Measures the file-independent Table 8 contributions of one function.
pub fn function_unit_facts(f: &adsafe_lang::ast::FunctionDef) -> FunctionUnitFacts {
    let mut u = FunctionUnitFacts::default();
    let syms = analyze_function(f);
    u.maybe_uninit_reads = syms.maybe_uninit_reads.len();
    u.shadowed_declarations = syms.shadow_count;

    u.pointer_uses += f
        .sig
        .params
        .iter()
        .filter(|p| p.ty.is_pointer_like())
        .count();
    walk_exprs(f, |x| match &x.kind {
        ExprKind::Unary {
            op: adsafe_lang::ast::UnOp::Deref,
            ..
        }
        | ExprKind::Member { arrow: true, .. } => u.pointer_uses += 1,
        ExprKind::New { .. } | ExprKind::Delete { .. } => u.dynamic_alloc_sites += 1,
        ExprKind::Call { .. } => {
            if let Some(name) = x.callee_name() {
                if crate::misra::DYNAMIC_MEMORY_FNS.contains(&name) {
                    u.dynamic_alloc_sites += 1;
                }
            }
        }
        _ => {}
    });
    walk_stmts(f, |st| {
        if matches!(st.kind, StmtKind::Decl(_)) {
            // Local pointer declarations also count as pointer use.
            if let StmtKind::Decl(vars) = &st.kind {
                u.pointer_uses += vars.iter().filter(|v| v.ty.is_pointer_like()).count();
            }
        }
        if matches!(st.kind, StmtKind::Opaque) {
            u.opaque_stmts += 1;
        }
    });
    u
}

/// Measures [`UnitDesignStats`] over every file in the context.
pub fn unit_design_stats(cx: &CheckContext<'_>) -> UnitDesignStats {
    let mut s = UnitDesignStats::default();
    let recursive = cx.graph.recursive_functions();

    for e in &cx.entries {
        s.opaque_regions += e.unit.recovery_count;
        s.global_definitions += e
            .unit
            .global_vars()
            .iter()
            .filter(|g| !g.ty.is_const && g.storage != Storage::Extern)
            .count();
    }

    s.implicit_conversions = cx
        .functions()
        .map(|(_, f)| crate::typing::narrowings(f).len())
        .sum();

    for (entry, f) in cx.functions() {
        s.function_count += 1;
        let m = adsafe_metrics::function_metrics(entry.file, f);
        if m.multi_exit {
            s.multi_exit_functions += 1;
        }
        s.goto_count += m.goto_count;
        if recursive.contains(&f.sig.qualified_name) {
            s.recursive_functions += 1;
        }
        let u = function_unit_facts(f);
        s.maybe_uninit_reads += u.maybe_uninit_reads;
        s.shadowed_declarations += u.shadowed_declarations;
        s.pointer_uses += u.pointer_uses;
        s.dynamic_alloc_sites += u.dynamic_alloc_sites;
        s.opaque_regions += u.opaque_stmts;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalysisSet;

    fn stats(src: &str) -> UnitDesignStats {
        let mut set = AnalysisSet::new();
        set.add("m", "t.cc", src);
        let cx = set.context();
        unit_design_stats(&cx)
    }

    #[test]
    fn empty_code_is_clean() {
        let s = stats("void f() {}");
        assert_eq!(s.function_count, 1);
        assert_eq!(
            s,
            UnitDesignStats {
                function_count: 1,
                ..UnitDesignStats::default()
            }
        );
        assert_eq!(s.multi_exit_pct(), 0.0);
    }

    #[test]
    fn multi_exit_percentage() {
        let s = stats(
            "int a(int x) { if (x) return 1; return 0; }\n\
             int b(int x) { return x; }\n\
             int c(int x) { return x + 1; }\n\
             int d(int x) { if (x < 0) return -1; return x; }",
        );
        assert_eq!(s.function_count, 4);
        assert_eq!(s.multi_exit_functions, 2);
        assert!((s.multi_exit_pct() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn dynamic_and_pointer_and_goto() {
        let s = stats(
            "void f(float* p, int n) { float* q = new float[n]; *p = q[0]; \
             if (n) goto out; out: delete[] q; }",
        );
        assert_eq!(s.dynamic_alloc_sites, 2); // new + delete
        assert!(s.pointer_uses >= 3); // param p, deref *p, local q
        assert_eq!(s.goto_count, 1);
    }

    #[test]
    fn globals_uninit_shadow_recursion() {
        let s = stats(
            "int g_total;\n\
             int rec(int n) { if (n <= 0) return 0; return rec(n - 1); }\n\
             int f() { int u; int x = u; { int x = 2; g_total += x; } return x; }",
        );
        assert_eq!(s.global_definitions, 1);
        assert_eq!(s.maybe_uninit_reads, 1);
        assert_eq!(s.shadowed_declarations, 1);
        assert_eq!(s.recursive_functions, 1);
    }

    #[test]
    fn implicit_conversions_counted() {
        let s = stats("void f(double d) { int x = d; }");
        assert_eq!(s.implicit_conversions, 1);
    }
}
