//! Module-level aggregation: the per-module numbers behind the paper's
//! Figure 3 (LOC, function counts, complexity histogram) and Table 2
//! (architectural design: component size, interface size, cohesion,
//! coupling).

use crate::cyclomatic::ComplexityHistogram;
use crate::function::{function_metrics, FunctionMetrics};
use crate::loc::{count_file, LocCounts};
use adsafe_lang::ast::TranslationUnit;
use adsafe_lang::visit::walk_exprs;
use adsafe_lang::{CallGraph, SourceFile};
use std::collections::HashMap;

/// Aggregated metrics for one software module (e.g. `perception`).
#[derive(Debug, Clone)]
pub struct ModuleMetrics {
    /// Module name.
    pub name: String,
    /// Number of source files.
    pub file_count: usize,
    /// Line counts summed over files.
    pub loc: LocCounts,
    /// Metrics for every function, in discovery order.
    pub functions: Vec<FunctionMetrics>,
    /// Complexity histogram over all functions.
    pub histogram: ComplexityHistogram,
    /// Number of file-scope variables (globals) declared in the module.
    pub global_count: usize,
    /// Mean parameters per function (interface size proxy).
    pub mean_params: f64,
    /// LCOM-style cohesion in `[0, 1]`: 1 means every pair of functions
    /// shares at least one accessed module global; 0 means none do.
    pub cohesion: f64,
    /// Files whose evidence came from token-only estimation (degraded
    /// tier) rather than a parse. Always `<= file_count`.
    pub absorbed_files: usize,
}

impl ModuleMetrics {
    /// Total number of functions.
    pub fn function_count(&self) -> usize {
        self.functions.len()
    }

    /// Functions with complexity strictly above `threshold`.
    pub fn functions_over(&self, threshold: u32) -> usize {
        self.functions.iter().filter(|f| f.cyclomatic > threshold).count()
    }
}

/// Computes module metrics over `(file, unit)` pairs belonging to one module.
pub fn module_metrics(name: &str, files: &[(&SourceFile, &TranslationUnit)]) -> ModuleMetrics {
    let _sp = adsafe_trace::span_with(
        "metrics.module",
        "metrics",
        vec![("module", name.to_string())],
    );
    adsafe_trace::counter("metrics.module.files").add(files.len() as u64);
    let mut loc = LocCounts::default();
    let mut functions = Vec::new();
    let mut histogram = ComplexityHistogram::default();
    let mut global_count = 0usize;
    let mut global_index: HashMap<&str, usize> = HashMap::new();

    for (file, unit) in files {
        let c = count_file(file);
        loc.physical += c.physical;
        loc.nloc += c.nloc;
        loc.comment += c.comment;
        loc.blank += c.blank;
        loc.directive += c.directive;
        for g in unit.global_vars() {
            global_count += 1;
            let next = global_index.len();
            global_index.entry(g.name.as_str()).or_insert(next);
        }
        for f in unit.functions() {
            let m = function_metrics(file, f);
            histogram.add(m.cyclomatic);
            functions.push(m);
        }
    }

    // Cohesion: for each function, the set of module globals it touches;
    // cohesion = fraction of function pairs sharing at least one global.
    let mut touched = TouchedGlobals::new(global_index.len());
    for (_, unit) in files {
        for f in unit.functions() {
            let mut row = Vec::new();
            walk_exprs(f, |e| {
                if let adsafe_lang::ast::ExprKind::Ident(n) = &e.kind {
                    row.extend(global_index.get(n.as_str()));
                }
            });
            touched.push(row);
        }
    }
    let cohesion = touched.cohesion();

    let mean_params = if functions.is_empty() {
        0.0
    } else {
        functions.iter().map(|f| f.param_count).sum::<usize>() as f64 / functions.len() as f64
    };

    ModuleMetrics {
        name: name.to_string(),
        file_count: files.len(),
        loc,
        functions,
        histogram,
        global_count,
        mean_params,
        cohesion,
        absorbed_files: 0,
    }
}

/// Which module globals each function touches, one bitset row per
/// function over the module's indexed global names — the input of
/// LCOM-style pairwise cohesion. Functions that touch no global share
/// nothing with any other, so they are counted but get no row.
#[derive(Debug, Clone)]
pub struct TouchedGlobals {
    words: usize,
    functions: usize,
    rows: Vec<u64>,
}

impl TouchedGlobals {
    /// An empty set of rows over a module with `globals` distinct
    /// global names, indexed `0..globals`.
    pub fn new(globals: usize) -> Self {
        TouchedGlobals { words: globals.div_ceil(64), functions: 0, rows: Vec::new() }
    }

    /// Adds one function touching the globals at `indices` (each below
    /// the `globals` given to [`new`](Self::new); repeats are fine).
    pub fn push(&mut self, indices: impl IntoIterator<Item = usize>) {
        self.functions += 1;
        let mut indices = indices.into_iter().peekable();
        if indices.peek().is_none() {
            return;
        }
        let start = self.rows.len();
        self.rows.resize(start + self.words, 0);
        for i in indices {
            self.rows[start + i / 64] |= 1 << (i % 64);
        }
    }

    /// The fraction of function pairs sharing at least one accessed
    /// global (1.0 when there are fewer than two functions). Pairs are
    /// counted over every function, empty rows included.
    pub fn cohesion(&self) -> f64 {
        let n = self.functions;
        if n < 2 {
            return 1.0;
        }
        let mut share = 0usize;
        if self.words > 0 {
            let rows: Vec<&[u64]> = self.rows.chunks_exact(self.words).collect();
            for (i, a) in rows.iter().enumerate() {
                share += rows[i + 1..]
                    .iter()
                    .filter(|b| a.iter().zip(b.iter()).any(|(x, y)| x & y != 0))
                    .count();
            }
        }
        share as f64 / (n * (n - 1) / 2) as f64
    }
}

/// Inter-module coupling: number of distinct call edges between functions
/// of *different* modules, per module pair. `module_of` maps a qualified
/// function name to its module.
pub fn coupling(
    graph: &CallGraph,
    module_of: &HashMap<String, String>,
) -> HashMap<(String, String), usize> {
    let mut out: HashMap<(String, String), usize> = HashMap::new();
    for name in graph.names() {
        let Some(from_mod) = module_of.get(name) else { continue };
        let Some(callees) = graph.callees(name) else { continue };
        for callee in callees {
            let Some(to_mod) = module_of.get(callee) else { continue };
            if from_mod != to_mod {
                *out.entry((from_mod.clone(), to_mod.clone())).or_insert(0) += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use adsafe_lang::{parse_source, SourceMap};
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn module_from(srcs: &[(&str, &str)]) -> ModuleMetrics {
        let mut sm = SourceMap::new();
        let parsed: Vec<_> = srcs
            .iter()
            .map(|(path, text)| {
                let id = sm.add_file(*path, *text);
                (id, parse_source(id, text))
            })
            .collect();
        let pairs: Vec<(&SourceFile, &TranslationUnit)> =
            parsed.iter().map(|(id, p)| (sm.file(*id), &p.unit)).collect();
        module_metrics("test", &pairs)
    }

    #[test]
    fn aggregates_files() {
        let m = module_from(&[
            ("a.cc", "int f() { return 1; }\nint g_a;\n"),
            ("b.cc", "int g(int x) { if (x) return 1; return 0; }\n"),
        ]);
        assert_eq!(m.file_count, 2);
        assert_eq!(m.function_count(), 2);
        assert_eq!(m.global_count, 1);
        assert_eq!(m.histogram.total, 2);
        assert_eq!(m.loc.nloc, 3);
    }

    #[test]
    fn functions_over_threshold() {
        let deep = (0..12)
            .map(|i| format!("if (x > {i}) {{ x--; }}"))
            .collect::<Vec<_>>()
            .join(" ");
        let src = format!("void busy(int x) {{ {deep} }} void calm() {{}}");
        let m = module_from(&[("a.cc", src.as_str())]);
        assert_eq!(m.functions_over(10), 1);
        assert_eq!(m.functions_over(20), 0);
    }

    #[test]
    fn cohesion_shared_globals() {
        // Both functions touch g → cohesion 1.
        let m = module_from(&[(
            "a.cc",
            "int g;\nvoid f1() { g = 1; }\nvoid f2() { g = 2; }\n",
        )]);
        assert!((m.cohesion - 1.0).abs() < 1e-12);
        // Disjoint globals → cohesion 0.
        let m2 = module_from(&[(
            "a.cc",
            "int g1; int g2;\nvoid f1() { g1 = 1; }\nvoid f2() { g2 = 2; }\n",
        )]);
        assert_eq!(m2.cohesion, 0.0);
    }

    /// The definition, pair by pair: the reference the bitset kernel
    /// must reproduce bit for bit.
    fn naive_cohesion(sets: &[Vec<usize>]) -> f64 {
        let sets: Vec<std::collections::HashSet<usize>> =
            sets.iter().map(|s| s.iter().copied().collect()).collect();
        let n = sets.len();
        if n < 2 {
            return 1.0;
        }
        let (mut share, mut pairs) = (0usize, 0usize);
        for i in 0..n {
            for j in (i + 1)..n {
                pairs += 1;
                if !sets[i].is_disjoint(&sets[j]) {
                    share += 1;
                }
            }
        }
        share as f64 / pairs as f64
    }

    fn kernel_cohesion(globals: usize, sets: &[Vec<usize>]) -> f64 {
        let mut t = TouchedGlobals::new(globals);
        for s in sets {
            t.push(s.iter().copied());
        }
        t.cohesion()
    }

    #[test]
    fn cohesion_kernel_edge_cases() {
        assert_eq!(kernel_cohesion(0, &[]), 1.0);
        assert_eq!(kernel_cohesion(3, &[vec![1]]), 1.0);
        assert_eq!(kernel_cohesion(0, &[vec![], vec![]]), 0.0);
        assert_eq!(kernel_cohesion(2, &[vec![], vec![0], vec![0, 0]]), 1.0 / 3.0);
        // Globals past the first word share only within their word.
        let wide = [vec![130], vec![2, 130], vec![66], vec![]];
        assert_eq!(kernel_cohesion(131, &wide), naive_cohesion(&wide));
        assert_eq!(kernel_cohesion(131, &wide), 1.0 / 6.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn cohesion_kernel_matches_the_pairwise_definition(
            globals in 1usize..200,
            raw in vec(vec(0usize..1000, 0..4), 0..30),
        ) {
            let sets: Vec<Vec<usize>> =
                raw.iter().map(|s| s.iter().map(|i| i % globals).collect()).collect();
            prop_assert_eq!(
                kernel_cohesion(globals, &sets).to_bits(),
                naive_cohesion(&sets).to_bits()
            );
        }
    }

    #[test]
    fn coupling_counts_cross_module_edges() {
        let mut sm = SourceMap::new();
        let a = sm.add_file("a.cc", "void detect() { plan(); plan2(); }");
        let b = sm.add_file("b.cc", "void plan() {} void plan2() { plan(); }");
        let pa = parse_source(a, sm.file(a).text());
        let pb = parse_source(b, sm.file(b).text());
        let graph = CallGraph::build(&[&pa.unit, &pb.unit]);
        let mut module_of = HashMap::new();
        module_of.insert("detect".to_string(), "perception".to_string());
        module_of.insert("plan".to_string(), "planning".to_string());
        module_of.insert("plan2".to_string(), "planning".to_string());
        let c = coupling(&graph, &module_of);
        assert_eq!(c[&("perception".to_string(), "planning".to_string())], 2);
        assert_eq!(c.len(), 1, "intra-module edge must not appear");
    }
}
