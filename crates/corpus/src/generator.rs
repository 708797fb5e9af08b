//! The synthetic-code generator: produces parseable C++/CUDA source with
//! *constructively known* metric properties (cyclomatic complexity, exit
//! structure, casts, globals, gotos, recursion), so a corpus can be
//! calibrated to published aggregate statistics and the measurement
//! pipeline can be validated against ground truth.

use crate::writer::CodeWriter;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Complexity band a generated function targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Band {
    /// CC 1–10.
    Low,
    /// CC 11–20.
    Moderate,
    /// CC 21–50.
    Risky,
    /// CC > 50.
    Unstable,
}

impl Band {
    /// The decision-count range targeted by this band (CC = decisions + 1).
    pub fn decision_range(self) -> (u32, u32) {
        // CC = decisions + 1.
        match self {
            Band::Low => (1, 8),
            Band::Moderate => (10, 19),
            Band::Risky => (20, 45),
            Band::Unstable => (50, 64),
        }
    }
}

/// Plan for one generated function; every field maps to a measurable
/// property.
#[derive(Debug, Clone)]
pub struct FunctionPlan {
    /// Function name (snake or Camel; generator uses Google-style Camel).
    pub name: String,
    /// Decision points to embed (cyclomatic complexity − 1).
    pub decisions: u32,
    /// Whether to add an early `return` (multiple exit points).
    pub multi_exit: bool,
    /// Explicit casts to embed.
    pub casts: u32,
    /// Whether to embed a `goto`-based cleanup path.
    pub has_goto: bool,
    /// Whether to read a variable before initialising it.
    pub uninit: bool,
    /// Whether to shadow an outer local in an inner scope.
    pub shadow: bool,
    /// A global variable name the body should touch.
    pub uses_global: Option<String>,
}

impl FunctionPlan {
    /// A minimal plan with the given name and decision count.
    pub fn basic(name: impl Into<String>, decisions: u32) -> Self {
        FunctionPlan {
            name: name.into(),
            decisions,
            multi_exit: false,
            casts: 0,
            has_goto: false,
            uninit: false,
            shadow: false,
            uses_global: None,
        }
    }

    /// The cyclomatic complexity this plan produces.
    pub fn cyclomatic(&self) -> u32 {
        self.decisions + 1
    }
}

/// Emits one function according to `plan`. The body uses only `if` and
/// `for` decisions (one decision each), so CC is exactly
/// `plan.decisions + 1`.
pub fn gen_function(w: &mut CodeWriter, plan: &FunctionPlan, rng: &mut SmallRng) {
    w.open(&format!("int {}(int count, float scale) {{", plan.name));
    w.line("int acc = 0;");
    w.line("float rate = scale * 0.5f;");
    let mut remaining = plan.decisions;
    if plan.multi_exit {
        // Early exit consumes one decision.
        w.open("if (count < 0) {");
        w.line("return -1;");
        w.close("}");
        remaining = remaining.saturating_sub(1);
    }
    if plan.has_goto {
        // The goto's guard consumes one decision (emitted near the end).
        remaining = remaining.saturating_sub(1);
    }
    if plan.uninit {
        w.line("int stale;");
        w.line("acc += stale;");
    }
    if let Some(g) = &plan.uses_global {
        w.line(&format!("{g} = {g} + 1;"));
    }
    if plan.shadow {
        w.line("int depth = count;");
        w.open("{");
        w.line("int depth = 0;");
        w.line("acc += depth;");
        w.close("}");
        w.line("acc += depth;");
    }
    // Spend remaining decisions: loops with nested ifs, a switch, or a
    // while chain — deterministic mix.
    let mut i = 0u32;
    while remaining > 0 {
        let take = rng.gen_range(1..=remaining.min(4));
        if (i + take) % 7 == 3 && take >= 2 {
            // A switch: each case label is one decision. Odd takes omit
            // the default label (a real-world MISRA 16.4 violation).
            w.open("switch (acc % 7) {");
            for j in 0..take {
                w.line(&format!("case {j}:"));
                w.line(&format!("  acc += {};", j + 1));
                w.line("  break;");
            }
            if take % 2 == 0 {
                w.line("default:");
                w.line("  acc -= 1;");
            }
            w.close("}");
            remaining -= take;
            i += take;
            continue;
        }
        match (i + take) % 3 {
            0 => {
                // A for loop (1 decision) holding take-1 ifs.
                w.open(&format!("for (int i{i} = 0; i{i} < 13; i{i}++) {{"));
                for j in 0..take - 1 {
                    w.open(&format!("if (acc % {} == {}) {{", j + 2, j % 2));
                    w.line(&format!("acc += i{i} + {j};"));
                    w.close("}");
                }
                w.line("acc += 1;");
                w.close("}");
            }
            1 => {
                for j in 0..take {
                    w.open(&format!("if (acc > {}) {{", 3 * (i + j) + 1));
                    w.line(&format!("acc += {};", j + 1));
                    w.close("}");
                }
            }
            _ => {
                // A while loop (1 decision) plus take-1 ifs after it.
                w.open(&format!("while (acc > {} + 40) {{", i + 2));
                w.line("acc -= acc / 2 + 1;");
                w.close("}");
                for j in 0..take - 1 {
                    w.open(&format!("if (rate > {}.0f) {{", j));
                    w.line("acc -= 1;");
                    w.close("}");
                }
            }
        }
        remaining -= take;
        i += take;
    }
    for c in 0..plan.casts {
        match c % 3 {
            0 => w.line(&format!("acc += (int)(rate * {c}.0f);")),
            1 => w.line(&format!("rate += static_cast<float>(acc + {c});")),
            _ => w.line(&format!("acc += (int)scale + {c};")),
        }
    }
    if plan.casts > 0 {
        // Cast-heavy code also narrows implicitly (Table 8 row 7).
        w.line("int approx = rate;");
        w.line("acc += approx;");
    }
    if plan.has_goto {
        w.open("if (acc > 100000) {");
        w.line("goto cleanup;");
        w.close("}");
        w.line("acc += count;");
        w.line("cleanup:");
        w.line("acc += 0;");
    }
    w.line("return acc;");
    w.close("}");
    w.line("");
}

/// Emits a mutually recursive pair (`EvenHop`/`OddHop` style).
pub fn gen_recursive_pair(w: &mut CodeWriter, base: &str) {
    w.line(&format!("int {base}Down(int n);"));
    w.open(&format!("int {base}Up(int n) {{"));
    w.open("if (n <= 0) {");
    w.line("return 0;");
    w.close("}");
    w.line(&format!("return {base}Down(n - 1) + 1;"));
    w.close("}");
    w.open(&format!("int {base}Down(int n) {{"));
    w.open("if (n <= 0) {");
    w.line("return 0;");
    w.close("}");
    w.line(&format!("return {base}Up(n - 1) + 1;"));
    w.close("}");
    w.line("");
}

/// Emits a CUDA kernel plus its host wrapper (the paper's Figure 4
/// pattern: pointer parameters, `cudaMalloc`, explicit copies, launch).
pub fn gen_cuda_kernel(w: &mut CodeWriter, name: &str) {
    // Signatures are wrapped to keep every line within the style guide's
    // 80-column limit (Apollo itself is style-clean — paper Obs. 8).
    w.line(&format!(
        "__global__ void {name}_kernel(float* output, float* biases,"
    ));
    w.open("                              int n, int size) {");
    w.line("int offset = blockIdx.x * blockDim.x + threadIdx.x;");
    w.line("int filter = blockIdx.y;");
    w.open("if (offset < size) {");
    w.line("output[filter * size + offset] *= biases[filter];");
    w.close("}");
    w.close("}");
    w.line("");
    w.line(&format!(
        "void {name}_gpu(float* output, float* biases, int batch,"
    ));
    w.open("              int n, int size) {");
    w.line("float* d_output;");
    w.line("float* d_biases;");
    w.line("cudaMalloc((void**)&d_output, batch * n * size * 4);");
    w.line("cudaMalloc((void**)&d_biases, n * 4);");
    w.line("cudaMemcpy(d_output, output, batch * n * size * 4,");
    w.line("          cudaMemcpyHostToDevice);");
    w.line("cudaMemcpy(d_biases, biases, n * 4, cudaMemcpyHostToDevice);");
    w.line(&format!(
        "{name}_kernel<<<n, 256>>>(d_output, d_biases, n, size);"
    ));
    w.line("cublasSgemm(0, d_output, d_biases, n, size);");
    w.line("cudaMemcpy(output, d_output, batch * n * size * 4,");
    w.line("          cudaMemcpyDeviceToHost);");
    w.close("}");
    w.line("");
}

/// Emits a filler utility function with roughly `lines` lines. With
/// `multi_exit` it gains an early-return guard (CC 2); otherwise CC 1.
pub fn gen_filler(w: &mut CodeWriter, name: &str, lines: usize, multi_exit: bool) {
    w.open(&format!("int {name}(int base) {{"));
    w.line("int value = base;");
    if multi_exit {
        w.open("if (base < 0) {");
        w.line("return -1;");
        w.close("}");
    }
    for i in 0..lines.saturating_sub(3) {
        w.line(&format!("value = value * 31 + {i};"));
    }
    w.line("return value;");
    w.close("}");
    w.line("");
}

/// Deterministic generator RNG from a seed and a stream label.
pub fn rng_for(seed: u64, stream: &str) -> SmallRng {
    let mut h = seed;
    for b in stream.bytes() {
        h = h.wrapping_mul(0x100000001B3).wrapping_add(u64::from(b));
    }
    SmallRng::seed_from_u64(h)
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsafe_lang::{parse_source, FileId, SourceMap};
    use adsafe_metrics::{cyclomatic_complexity, function_metrics};

    fn parse_and_first_metrics(src: &str) -> adsafe_metrics::FunctionMetrics {
        let mut sm = SourceMap::new();
        let id = sm.add_file("g.cc", src);
        let parsed = parse_source(id, src);
        let funcs = parsed.unit.functions();
        assert!(!funcs.is_empty(), "generated code must parse:\n{src}");
        function_metrics(sm.file(id), funcs[0])
    }

    #[test]
    fn generated_cc_matches_plan_exactly() {
        for decisions in [0u32, 1, 5, 10, 19, 25, 45, 60] {
            let mut rng = rng_for(7, "cc");
            let plan = FunctionPlan::basic(format!("Probe{decisions}"), decisions);
            let mut w = CodeWriter::new();
            gen_function(&mut w, &plan, &mut rng);
            let src = w.finish();
            let parsed = parse_source(FileId(0), &src);
            let cc = cyclomatic_complexity(parsed.unit.functions()[0]);
            assert_eq!(cc, plan.cyclomatic(), "decisions={decisions}\n{src}");
        }
    }

    #[test]
    fn multi_exit_flag_respected() {
        let mut rng = rng_for(1, "me");
        let mut plan = FunctionPlan::basic("EarlyOut", 5);
        plan.multi_exit = true;
        let mut w = CodeWriter::new();
        gen_function(&mut w, &plan, &mut rng);
        let m = parse_and_first_metrics(&w.finish());
        assert!(m.multi_exit);
        assert_eq!(m.cyclomatic, 6);

        let mut w2 = CodeWriter::new();
        let plan2 = FunctionPlan::basic("SingleOut", 5);
        gen_function(&mut w2, &plan2, &mut rng_for(1, "me2"));
        let m2 = parse_and_first_metrics(&w2.finish());
        assert!(!m2.multi_exit);
    }

    #[test]
    fn goto_and_casts_emitted() {
        let mut plan = FunctionPlan::basic("Casty", 3);
        plan.casts = 4;
        plan.has_goto = true;
        let mut w = CodeWriter::new();
        gen_function(&mut w, &plan, &mut rng_for(3, "gc"));
        let src = w.finish();
        let m = parse_and_first_metrics(&src);
        assert_eq!(m.goto_count, 1);
        // The goto guard is budgeted out of the decision count, so CC
        // still equals decisions + 1.
        assert_eq!(m.cyclomatic, 3 + 1);
        // Exactly the planned number of cast expressions.
        let parsed = parse_source(FileId(0), &src);
        let mut casts = 0;
        adsafe_lang::visit::walk_exprs(parsed.unit.functions()[0], |e| {
            if matches!(e.kind, adsafe_lang::ast::ExprKind::Cast { .. }) {
                casts += 1;
            }
        });
        assert_eq!(casts, 4);
    }

    #[test]
    fn recursive_pair_is_recursive() {
        let mut w = CodeWriter::new();
        gen_recursive_pair(&mut w, "Hop");
        let src = w.finish();
        let parsed = parse_source(FileId(0), &src);
        let g = adsafe_lang::CallGraph::build(&[&parsed.unit]);
        assert_eq!(g.recursive_functions().len(), 2, "{src}");
    }

    #[test]
    fn cuda_kernel_parses_as_cuda() {
        let mut w = CodeWriter::new();
        gen_cuda_kernel(&mut w, "scale_bias");
        let src = w.finish();
        let parsed = parse_source(FileId(0), &src);
        assert!(adsafe_lang::cuda::is_cuda_unit(&parsed.unit), "{src}");
        assert_eq!(adsafe_lang::cuda::kernels(&parsed.unit).len(), 1);
    }

    #[test]
    fn filler_hits_line_budget() {
        let mut w = CodeWriter::new();
        gen_filler(&mut w, "Pad", 20, false);
        let src = w.finish();
        assert!(
            (19..=23).contains(&src.lines().count()),
            "{}",
            src.lines().count()
        );
        let m = parse_and_first_metrics(&src);
        assert_eq!(m.cyclomatic, 1);
        assert!(!m.multi_exit);
        let mut w2 = CodeWriter::new();
        gen_filler(&mut w2, "PadExit", 12, true);
        let m2 = parse_and_first_metrics(&w2.finish());
        assert!(m2.multi_exit);
        assert_eq!(m2.cyclomatic, 2);
    }

    #[test]
    fn rng_streams_are_independent_and_stable() {
        let a1: u64 = rng_for(9, "alpha").gen();
        let a2: u64 = rng_for(9, "alpha").gen();
        let b: u64 = rng_for(9, "beta").gen();
        assert_eq!(a1, a2);
        assert_ne!(a1, b);
    }
}
