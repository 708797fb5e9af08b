//! Apollo-scale corpus specification and assembly.
//!
//! The paper measured Baidu Apollo: >220k LOC across the AD pipeline
//! modules, 554 functions above cyclomatic complexity 10, >1,400
//! explicit casts, ≈900 globals in perception, 41% multi-exit functions
//! in object detection. Apollo itself is a moving target and far too
//! large to vendor; instead [`ApolloSpec::paper_scale`] encodes those
//! published aggregates and the generator emits a synthetic code base
//! with exactly those measurable properties, so every analysis in the
//! paper runs end-to-end. The substitution is documented in DESIGN.md.

use crate::generator::{
    gen_cuda_kernel, gen_filler, gen_function, gen_recursive_pair, rng_for, Band, FunctionPlan,
};
use crate::writer::CodeWriter;
use rand::Rng;

/// Per-module generation targets.
#[derive(Debug, Clone)]
pub struct ModuleSpec {
    /// Module name (also the namespace).
    pub name: String,
    /// Target total lines (approximate; padded with filler functions).
    pub loc: usize,
    /// Number of source files to spread the module over.
    pub files: usize,
    /// Functions with CC 11–20.
    pub moderate: usize,
    /// Functions with CC 21–50.
    pub risky: usize,
    /// Functions with CC > 50.
    pub unstable: usize,
    /// Non-const global variables.
    pub globals: usize,
    /// Explicit cast expressions.
    pub casts: usize,
    /// `goto`-using functions.
    pub gotos: usize,
    /// Mutually recursive function pairs.
    pub recursive_pairs: usize,
    /// Fraction of functions with multiple exit points.
    pub multi_exit_frac: f64,
    /// CUDA kernels (with host wrappers).
    pub cuda_kernels: usize,
    /// Functions reading an uninitialised local.
    pub uninit: usize,
    /// Functions shadowing a local.
    pub shadows: usize,
}

impl ModuleSpec {
    /// Functions above CC 10 (the paper's Figure 3 bar).
    pub fn over_10(&self) -> usize {
        self.moderate + self.risky + self.unstable
    }

    /// Scales every count by `f` (for fast test corpora).
    pub fn scaled(&self, f: f64) -> ModuleSpec {
        let s = |v: usize| ((v as f64 * f).round() as usize).max(if v > 0 { 1 } else { 0 });
        ModuleSpec {
            name: self.name.clone(),
            loc: s(self.loc),
            files: s(self.files).max(1),
            moderate: s(self.moderate),
            risky: s(self.risky),
            unstable: s(self.unstable),
            globals: s(self.globals),
            casts: s(self.casts),
            gotos: s(self.gotos),
            recursive_pairs: s(self.recursive_pairs),
            multi_exit_frac: self.multi_exit_frac,
            cuda_kernels: s(self.cuda_kernels),
            uninit: s(self.uninit),
            shadows: s(self.shadows),
        }
    }
}

/// The whole-corpus specification.
#[derive(Debug, Clone)]
pub struct ApolloSpec {
    /// Per-module specs.
    pub modules: Vec<ModuleSpec>,
    /// Generation seed.
    pub seed: u64,
}

impl ApolloSpec {
    /// The calibration matching the paper's published aggregates:
    /// ≈220k LOC total, 554 functions over CC 10, >1,400 casts, ≈900
    /// globals in perception, 41% multi-exit in perception (object
    /// detection), CUDA kernels only in perception.
    pub fn paper_scale() -> Self {
        let m = |name: &str,
                 loc: usize,
                 files: usize,
                 moderate: usize,
                 risky: usize,
                 unstable: usize,
                 globals: usize,
                 casts: usize,
                 multi_exit_frac: f64,
                 cuda: usize| ModuleSpec {
            name: name.to_string(),
            loc,
            files,
            moderate,
            risky,
            unstable,
            globals,
            casts,
            gotos: (moderate / 12).max(1),
            recursive_pairs: if loc > 15_000 { 1 } else { 0 },
            multi_exit_frac,
            cuda_kernels: cuda,
            uninit: (moderate / 10).max(1),
            shadows: (moderate / 6).max(1),
        };
        ApolloSpec {
            modules: vec![
                m("perception", 60_000, 40, 110, 52, 8, 900, 420, 0.41, 12),
                m("planning", 35_000, 24, 60, 26, 4, 150, 260, 0.32, 0),
                m("prediction", 20_000, 14, 38, 15, 2, 80, 140, 0.30, 0),
                m("localization", 18_000, 12, 30, 13, 2, 60, 120, 0.28, 0),
                m("map", 30_000, 20, 46, 21, 3, 120, 160, 0.30, 0),
                m("routing", 8_000, 6, 14, 5, 1, 30, 60, 0.25, 0),
                m("control", 15_000, 10, 27, 11, 2, 70, 110, 0.30, 0),
                m("canbus", 10_000, 8, 16, 7, 1, 40, 70, 0.26, 0),
                m("common", 24_000, 16, 28, 11, 1, 100, 130, 0.28, 0),
            ],
            seed: 0x26262,
        }
    }

    /// A small corpus (~1/20 scale) for tests.
    pub fn test_scale() -> Self {
        let full = Self::paper_scale();
        ApolloSpec {
            modules: full.modules.iter().map(|m| m.scaled(0.05)).collect(),
            seed: full.seed,
        }
    }

    /// Total functions above CC 10 across modules (paper: 554).
    pub fn total_over_10(&self) -> usize {
        self.modules.iter().map(|m| m.over_10()).sum()
    }
}

/// One generated source file.
#[derive(Debug, Clone)]
pub struct GeneratedFile {
    /// Module the file belongs to.
    pub module: String,
    /// Path (e.g. `perception/perception_03.cc`).
    pub path: String,
    /// Source text.
    pub text: String,
}

/// Generates the corpus for `spec`.
pub fn generate(spec: &ApolloSpec) -> Vec<GeneratedFile> {
    let mut out = Vec::new();
    let hub = spec.modules.first().map(|m| m.name.clone());
    for (i, module) in spec.modules.iter().enumerate() {
        // Downstream modules consume the hub module's outputs (as the AD
        // pipeline consumes perception), creating the cross-module call
        // edges ISO 26262-6 Table 3 row 5 restricts.
        let upstream = if i > 0 { hub.as_deref() } else { None };
        out.extend(generate_module(module, spec.seed, upstream));
    }
    out
}

fn generate_module(m: &ModuleSpec, seed: u64, upstream: Option<&str>) -> Vec<GeneratedFile> {
    let mut rng = rng_for(seed, &m.name);
    let mut files = Vec::with_capacity(m.files + 1);

    // Build the full function-plan list first, then distribute to files.
    let mut plans: Vec<FunctionPlan> = Vec::new();
    let band_plan = |band: Band, idx: usize, rng: &mut rand::rngs::SmallRng| {
        let (lo, hi) = band.decision_range();
        let decisions = rng.gen_range(lo..=hi);
        FunctionPlan::basic(format!("{}Fn{idx}", camel(&m.name)), decisions)
    };
    let mut idx = 0usize;
    for _ in 0..m.moderate {
        plans.push(band_plan(Band::Moderate, idx, &mut rng));
        idx += 1;
    }
    for _ in 0..m.risky {
        plans.push(band_plan(Band::Risky, idx, &mut rng));
        idx += 1;
    }
    for _ in 0..m.unstable {
        plans.push(band_plan(Band::Unstable, idx, &mut rng));
        idx += 1;
    }
    // Low-complexity bulk: enough to make the banded functions a small
    // minority, as in real code (roughly 12 low per moderate+).
    let low_count = (plans.len() * 12).max(20);
    for _ in 0..low_count {
        plans.push(band_plan(Band::Low, idx, &mut rng));
        idx += 1;
    }

    // Decorate plans with the remaining properties.
    let n = plans.len();
    let multi_exit_count = (n as f64 * m.multi_exit_frac).round() as usize;
    // Spread multi-exit across the list deterministically.
    let mut decorated = 0usize;
    let mut i = 0usize;
    while decorated < multi_exit_count && i < n {
        plans[i].multi_exit = true;
        decorated += 1;
        i += (n / multi_exit_count.max(1)).max(1);
    }
    // Top up any shortfall caused by the stride walking off the end.
    for p in plans.iter_mut() {
        if decorated >= multi_exit_count {
            break;
        }
        if !p.multi_exit {
            p.multi_exit = true;
            decorated += 1;
        }
    }
    for (j, p) in plans.iter_mut().enumerate() {
        if j < m.gotos {
            p.has_goto = true;
        }
    }
    for (j, p) in plans.iter_mut().rev().enumerate() {
        if j < m.uninit {
            p.uninit = true;
        } else if j < m.uninit + m.shadows {
            p.shadow = true;
        }
    }
    // Casts: spread over the first functions, 3 per function.
    let mut casts_left = m.casts;
    for p in plans.iter_mut() {
        if casts_left == 0 {
            break;
        }
        let take = casts_left.min(3) as u32;
        p.casts = take;
        casts_left -= take as usize;
    }
    // Globals: declared per file; some functions touch them.
    let globals_per_file = m.globals / m.files;
    let globals_extra = m.globals % m.files;

    let plans_per_file = plans.len().div_ceil(m.files);
    let mut plan_chunks = plans.chunks(plans_per_file);
    let mut global_idx = 0usize;
    for f in 0..m.files {
        let mut w = CodeWriter::new();
        w.line(&format!(
            "// Module {} — generated Apollo-scale corpus file {f}.",
            m.name
        ));
        w.line("#include <cmath>");
        w.line("#include <cstdint>");
        w.line("");
        w.open(&format!("namespace apollo {{ namespace {} {{", m.name));
        w.line("");
        let gcount = globals_per_file + usize::from(f < globals_extra);
        let mut file_globals = Vec::with_capacity(gcount);
        for _ in 0..gcount {
            let g = format!("g_{}_state_{global_idx}", m.name);
            w.line(&format!("int {g} = 0;"));
            file_globals.push(g);
            global_idx += 1;
        }
        w.line("");
        if f == 0 && m.recursive_pairs > 0 {
            for r in 0..m.recursive_pairs {
                gen_recursive_pair(&mut w, &format!("{}Walk{r}", camel(&m.name)));
            }
        }
        if f == 0 {
            if let Some(up) = upstream {
                let up_fn = format!("{}Fn0", camel(up));
                w.line(&format!("int {up_fn}(int count, float scale);"));
                w.open(&format!(
                    "int {}Bridge(int count, float scale) {{",
                    camel(&m.name)
                ));
                w.line(&format!("return {up_fn}(count, scale) + 1;"));
                w.close("}");
                w.line("");
            }
        }
        if let Some(chunk) = plan_chunks.next() {
            for (k, p) in chunk.iter().enumerate() {
                let mut p = p.clone();
                // Roughly half the functions touch a module global
                // (drives the cohesion metric).
                if !file_globals.is_empty() && k % 2 == 0 {
                    p.uses_global = Some(file_globals[k % file_globals.len()].clone());
                }
                gen_function(&mut w, &p, &mut rng);
            }
        }
        // Pad toward the per-file LOC budget with low-complexity filler.
        let budget = m.loc / m.files;
        let mut pad = 0usize;
        let stride = (1.0 / m.multi_exit_frac.max(0.01)).round() as usize;
        while w.lines() + 12 < budget {
            // Filler functions carry the module's multi-exit fraction too,
            // so padding does not dilute the Table-8 row-1 statistic.
            let me = pad.is_multiple_of(stride.max(1));
            gen_filler(&mut w, &format!("{}Util{f}_{pad}", camel(&m.name)), 10, me);
            pad += 1;
        }
        w.close(&format!("}} }} // namespace apollo::{}", m.name));
        files.push(GeneratedFile {
            module: m.name.clone(),
            path: format!("{}/{}_{:02}.cc", m.name, m.name, f),
            text: w.finish(),
        });
    }
    // CUDA kernels go into dedicated .cu files (file-scope, no namespace,
    // like real CUDA code).
    for k in 0..m.cuda_kernels {
        let mut w = CodeWriter::new();
        w.line(&format!("// CUDA kernel {k} of module {}.", m.name));
        w.line("#include <cuda_runtime.h>");
        w.line("");
        gen_cuda_kernel(&mut w, &format!("{}_op{k}", m.name));
        files.push(GeneratedFile {
            module: m.name.clone(),
            path: format!("{}/cuda/{}_op{k}.cu", m.name, m.name),
            text: w.finish(),
        });
    }
    files
}

fn camel(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut upper = true;
    for ch in s.chars() {
        if ch == '_' {
            upper = true;
        } else if upper {
            out.extend(ch.to_uppercase());
            upper = false;
        } else {
            out.push(ch);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsafe_lang::parse_source;
    use adsafe_lang::SourceMap;
    use adsafe_metrics::cyclomatic_complexity;

    #[test]
    fn paper_scale_totals() {
        let spec = ApolloSpec::paper_scale();
        assert_eq!(
            spec.total_over_10(),
            554,
            "Figure 3: 554 functions over CC 10"
        );
        let total_loc: usize = spec.modules.iter().map(|m| m.loc).sum();
        assert!(total_loc >= 220_000, "paper: >220k LOC, spec {total_loc}");
        let total_casts: usize = spec.modules.iter().map(|m| m.casts).sum();
        assert!(
            total_casts > 1_400,
            "paper: >1,400 casts, spec {total_casts}"
        );
        let perception = &spec.modules[0];
        assert_eq!(perception.globals, 900, "paper: ≈900 globals in perception");
        assert!((perception.multi_exit_frac - 0.41).abs() < 1e-9);
        assert!(perception.cuda_kernels > 0);
        assert!(spec.modules[1..].iter().all(|m| m.cuda_kernels == 0));
    }

    #[test]
    fn scaled_spec_shrinks() {
        let spec = ApolloSpec::test_scale();
        assert!(spec.total_over_10() < 100);
        assert!(spec.modules.iter().all(|m| m.files >= 1));
    }

    #[test]
    fn generated_module_parses_and_matches_bands() {
        let m = ModuleSpec {
            name: "control".into(),
            loc: 1_500,
            files: 2,
            moderate: 4,
            risky: 2,
            unstable: 1,
            globals: 7,
            casts: 9,
            gotos: 2,
            recursive_pairs: 1,
            multi_exit_frac: 0.4,
            cuda_kernels: 1,
            uninit: 1,
            shadows: 1,
        };
        let files = generate_module(&m, 99, Some("perception"));
        assert_eq!(files.len(), 3); // 2 .cc + 1 .cu
        let mut sm = SourceMap::new();
        let mut moderate = 0;
        let mut risky = 0;
        let mut unstable = 0;
        let mut globals = 0;
        for f in &files {
            let id = sm.add_file(&f.path, &f.text);
            let parsed = parse_source(id, &f.text);
            assert_eq!(parsed.unit.recovery_count, 0, "clean parse of {}", f.path);
            globals += parsed.unit.global_vars().len();
            for func in parsed.unit.functions() {
                let cc = cyclomatic_complexity(func);
                match cc {
                    11..=20 => moderate += 1,
                    21..=50 => risky += 1,
                    51.. => unstable += 1,
                    _ => {}
                }
            }
        }
        assert_eq!(moderate, m.moderate);
        assert_eq!(risky, m.risky);
        assert_eq!(unstable, m.unstable);
        assert_eq!(globals, m.globals);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = ApolloSpec::test_scale();
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.path, y.path);
            assert_eq!(x.text, y.text);
        }
    }

    #[test]
    fn camel_case_helper() {
        assert_eq!(camel("perception"), "Perception");
        assert_eq!(camel("can_bus"), "CanBus");
    }
}
