//! MISRA C:2012-inspired language-subset rules (paper §3.1.2,
//! Observation 2). Rule ids follow the MISRA numbering of the closest
//! corresponding guideline; these are the representative structural rules
//! that a full 143-rule MISRA checker would automate the same way. Only
//! dynamic memory (rule 21.3) is native: the per-occurrence ones (`goto`,
//! the comma operator, unions, `switch` without `default`, octal
//! constants, unreachable code, side effects after `&&`/`||`) are
//! bundled `.aq` rules over `site` rows.

use crate::diag::{Diagnostic, Severity};
use crate::{Check, CheckContext};
use adsafe_lang::ast::ExprKind;
use adsafe_lang::visit::walk_exprs;

/// Function names that are dynamic-memory API (MISRA C:2012 rule 21.3
/// bans the stdlib ones; the CUDA ones are their device-side analogues).
pub const DYNAMIC_MEMORY_FNS: &[&str] = &[
    "malloc",
    "calloc",
    "realloc",
    "free",
    "aligned_alloc",
    "strdup",
    "cudaMalloc",
    "cudaMallocManaged",
    "cudaMallocHost",
    "cudaMallocPitch",
    "cudaFree",
    "cudaFreeHost",
];

/// MISRA 21.3 / ISO 26262-6 Table 8 row 2: no dynamic memory after init.
#[derive(Debug, Default, Clone, Copy)]
pub struct DynamicMemoryCheck;

impl Check for DynamicMemoryCheck {
    fn id(&self) -> &'static str {
        "misra-21.3-dynamic-memory"
    }
    fn description(&self) -> &'static str {
        "no dynamic objects or variables (malloc/new/cudaMalloc)"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table8.Row2", "Part6.Table8.Row6"]
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (_, f) in cx.functions() {
            walk_exprs(f, |e| match &e.kind {
                ExprKind::Call { .. } => {
                    if let Some(name) = e.callee_name() {
                        if DYNAMIC_MEMORY_FNS.contains(&name) {
                            out.push(
                                Diagnostic::new(
                                    self.id(),
                                    Severity::Violation,
                                    e.span,
                                    format!("dynamic memory API `{name}` used"),
                                )
                                .in_function(&f.sig.qualified_name),
                            );
                        }
                    }
                }
                ExprKind::New { ty, array, .. } => {
                    let what = if array.is_some() { "new[]" } else { "new" };
                    out.push(
                        Diagnostic::new(
                            self.id(),
                            Severity::Violation,
                            e.span,
                            format!("dynamic allocation `{what} {}`", ty.name),
                        )
                        .in_function(&f.sig.qualified_name),
                    );
                }
                ExprKind::Delete { array, .. } => {
                    let what = if *array { "delete[]" } else { "delete" };
                    out.push(
                        Diagnostic::new(
                            self.id(),
                            Severity::Violation,
                            e.span,
                            format!("dynamic deallocation `{what}`"),
                        )
                        .in_function(&f.sig.qualified_name),
                    );
                }
                _ => {}
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalysisSet;

    fn diags_for(check: &dyn Check, src: &str) -> Vec<Diagnostic> {
        let mut set = AnalysisSet::new();
        set.add("m", "t.cc", src);
        let cx = set.context();
        check.run(&cx)
    }

    #[test]
    fn dynamic_memory_flagged() {
        let d = diags_for(
            &DynamicMemoryCheck,
            "void f(int n) { float* a = (float*)malloc(n * 4); float* b = new float[n]; \
             cudaMalloc((void**)&a, n); free(a); delete[] b; }",
        );
        // malloc, new[], cudaMalloc, free, delete[]
        assert_eq!(d.len(), 5);
    }
}
