//! CUDA → CPU source translation (the cuda4cpu substitute).
//!
//! The paper's Figure 6 methodology: "we modified the code in such a way
//! that it runs in the CPU or emulates the CUDA API in the CPU", then
//! applied ordinary coverage tools. This module does the same
//! mechanically: each `__global__` kernel becomes a plain C function
//! taking explicit `blockIdx_*`/`threadIdx_*` arguments, plus a `*_cpu`
//! driver that loops the former launch geometry. The result is in the
//! interpretable mini-C subset, so `adsafe-coverage` can measure it.

use adsafe_lang::{parse_source, FileId};

/// A translated kernel: name and parameter list (for driver generation).
#[derive(Debug, Clone)]
pub struct TranslatedKernel {
    /// Original kernel name.
    pub name: String,
    /// Name of the generated CPU driver (`<name>_cpu`).
    pub driver: String,
}

/// Result of translating one CUDA file.
#[derive(Debug, Clone)]
pub struct Translated {
    /// The generated C source.
    pub source: String,
    /// Kernels found and translated.
    pub kernels: Vec<TranslatedKernel>,
}

/// Built-in index variables a kernel body may reference.
const DIMS: [&str; 4] = ["blockIdx", "threadIdx", "blockDim", "gridDim"];
const AXES: [&str; 3] = ["x", "y", "z"];

/// Translates CUDA source into CPU-executable C.
///
/// Kernels are located with the real parser (so qualifiers, parameter
/// lists, and body extents are exact); the body text then has its
/// `blockIdx.x`-style accesses rewritten to plain identifiers. 2-D
/// launch geometry (x and y) is looped by the driver; z is fixed to 0.
pub fn cuda_to_cpu(src: &str) -> Translated {
    let parsed = parse_source(FileId(0), src);
    let mut out = String::new();
    out.push_str("/* Auto-translated from CUDA by adsafe (cuda4cpu-style). */\n\n");
    let mut kernels = Vec::new();
    for f in parsed.unit.functions() {
        if !f.sig.quals.cuda_global {
            continue;
        }
        let body_span = f.body.span;
        let body = &src[body_span.start as usize..body_span.end as usize];
        let body = rewrite_builtins(body);
        let params: Vec<(String, String)> = f
            .sig
            .params
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let name = p.name.clone().unwrap_or_else(|| format!("arg{i}"));
                let mut ty = p.ty.name.clone();
                for _ in 0..p.ty.ptr_depth {
                    ty.push('*');
                }
                (ty, name)
            })
            .collect();
        let name = &f.sig.name;
        // Kernel as a plain function with explicit geometry parameters.
        let mut sig_params: Vec<String> = params.iter().map(|(t, n)| format!("{t} {n}")).collect();
        for d in DIMS {
            for a in &AXES[..2] {
                sig_params.push(format!("int {d}_{a}"));
            }
        }
        out.push_str(&format!("void {name}({})\n", sig_params.join(", ")));
        out.push_str(&body);
        out.push_str("\n\n");
        // Driver looping the launch geometry.
        let driver = format!("{name}_cpu");
        let mut drv_params: Vec<String> = params.iter().map(|(t, n)| format!("{t} {n}")).collect();
        drv_params.push("int grid_x".into());
        drv_params.push("int grid_y".into());
        drv_params.push("int block_x".into());
        drv_params.push("int block_y".into());
        out.push_str(&format!("void {driver}({}) {{\n", drv_params.join(", ")));
        out.push_str("    for (int bx = 0; bx < grid_x; bx++) {\n");
        out.push_str("        for (int by = 0; by < grid_y; by++) {\n");
        out.push_str("            for (int tx = 0; tx < block_x; tx++) {\n");
        out.push_str("                for (int ty = 0; ty < block_y; ty++) {\n");
        let mut args: Vec<String> = params.iter().map(|(_, n)| n.clone()).collect();
        args.extend(
            [
                "bx", "by", "tx", "ty", "block_x", "block_y", "grid_x", "grid_y",
            ]
            .iter()
            .map(|s| s.to_string()),
        );
        out.push_str(&format!(
            "                    {name}({});\n",
            args.join(", ")
        ));
        out.push_str("                }\n            }\n        }\n    }\n}\n\n");
        kernels.push(TranslatedKernel {
            name: name.clone(),
            driver,
        });
    }
    Translated {
        source: out,
        kernels,
    }
}

fn rewrite_builtins(body: &str) -> String {
    let mut s = body.to_string();
    for d in DIMS {
        for a in AXES {
            s = s.replace(&format!("{d}.{a}"), &format!("{d}_{a}"));
        }
    }
    // z axes are not looped by the 2-D driver; pin them to safe values.
    s = s.replace("blockIdx_z", "0");
    s = s.replace("threadIdx_z", "0");
    s = s.replace("blockDim_z", "1");
    s = s.replace("gridDim_z", "1");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsafe_coverage::{CoverageHarness, TestCase, Value};

    const STENCIL_CU: &str = include_str!("../assets/cuda/stencil.cu");

    #[test]
    fn finds_both_stencil_kernels() {
        let t = cuda_to_cpu(STENCIL_CU);
        assert_eq!(t.kernels.len(), 2);
        assert_eq!(t.kernels[0].name, "stencil2d_kernel");
        assert_eq!(t.kernels[0].driver, "stencil2d_kernel_cpu");
        assert!(t.source.contains("int blockIdx_x"));
        assert!(!t.source.contains("blockIdx.x"));
        assert!(!t.source.contains("__global__"));
    }

    #[test]
    fn translated_code_parses_cleanly() {
        let t = cuda_to_cpu(STENCIL_CU);
        let parsed = parse_source(FileId(0), &t.source);
        assert_eq!(parsed.unit.recovery_count, 0, "{}", t.source);
        assert_eq!(parsed.unit.functions().len(), 4); // 2 kernels + 2 drivers
    }

    #[test]
    fn translated_stencil_computes_correctly() {
        let t = cuda_to_cpu(STENCIL_CU);
        let mut h = CoverageHarness::new();
        h.add_file("stencil_cpu.c", &t.source);
        h.add_file(
            "driver.c",
            "float run2d(int h, int w) {\n\
             float* in = malloc(h * w * 4);\n\
             float* out = malloc(h * w * 4);\n\
             for (int i = 0; i < h * w; i++) { in[i] = i * 1.0f; }\n\
             stencil2d_kernel_cpu(in, out, h, w, 0.5f, 0.125f, 0, 1, 1, w, h);\n\
             float r = out[1 * w + 1];\n\
             free(in); free(out);\n\
             return r;\n}",
        );
        h.link();
        let (cov, outcomes) = h.measure(&[TestCase::new(
            "2d interior",
            "run2d",
            vec![Value::Int(4), Value::Int(4)],
        )]);
        assert!(outcomes[0].result.is_ok(), "{:?}", outcomes[0].result);
        // cell (1,1) of a 4x4 ramp: 0.5*5 + 0.125*(1+9+4+6) = 5.0
        assert_eq!(outcomes[0].result.as_ref().unwrap().as_f64(), 5.0);
        // The halo branch was not taken → branch coverage < 100%.
        let stencil_cov = &cov[0];
        assert!(stencil_cov.branch_pct(true) < 100.0);
        assert!(stencil_cov.statement_pct(true) > 30.0);
    }
}
