//! GPU/CUDA-specific rules (paper §3.3 Observations 11–12): the
//! closed-source library dependencies that hamper compliance
//! assessment. The per-function CUDA rules of Observation 4 (kernel
//! pointer parameters, unbalanced device allocation, unchecked
//! launches) are bundled `.aq` rules over the facts records.

use crate::diag::{Diagnostic, Severity};
use crate::{Check, CheckContext};
use adsafe_lang::visit::walk_exprs;

/// Known closed-source GPU libraries (paper Figure 2 taxonomy).
pub const CLOSED_SOURCE_LIBS: &[(&str, &str)] = &[
    ("cudnn", "cuDNN"),
    ("cublas", "cuBLAS"),
    ("nvinfer", "TensorRT"),
    ("tensorrt", "TensorRT"),
    ("cufft", "cuFFT"),
    ("cusparse", "cuSPARSE"),
];

/// Calls into closed-source GPU libraries (Observation 12): these cannot
/// be assessed against ISO 26262 without vendor cooperation.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClosedSourceLibCheck;

impl Check for ClosedSourceLibCheck {
    fn id(&self) -> &'static str {
        "cuda-closed-source-lib"
    }
    fn description(&self) -> &'static str {
        "closed-source GPU libraries hamper ISO 26262 compliance assessment"
    }
    fn iso_refs(&self) -> &'static [&'static str] {
        &["Part6.Table1.Row2"]
    }
    fn run(&self, cx: &CheckContext<'_>) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        for (_, f) in cx.functions() {
            walk_exprs(f, |e| {
                if let Some(name) = e.callee_name() {
                    let lower = name.to_ascii_lowercase();
                    for (prefix, lib) in CLOSED_SOURCE_LIBS {
                        if lower.starts_with(prefix) {
                            out.push(
                                Diagnostic::new(
                                    self.id(),
                                    Severity::Info,
                                    e.span,
                                    format!("call to closed-source {lib} API `{name}`"),
                                )
                                .in_function(&f.sig.qualified_name),
                            );
                            break;
                        }
                    }
                }
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::AnalysisSet;

    fn run(check: &dyn Check, src: &str) -> Vec<Diagnostic> {
        let mut set = AnalysisSet::new();
        set.add("perception", "k.cu", src);
        check.run(&set.context())
    }

    #[test]
    fn closed_source_calls_flagged() {
        let d = run(
            &ClosedSourceLibCheck,
            "void f() { cublasSgemm(0); cudnnConvolutionForward(0); my_gemm(0); }",
        );
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|x| x.message.contains("cuBLAS")));
        assert!(d.iter().any(|x| x.message.contains("cuDNN")));
    }
}
