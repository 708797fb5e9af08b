//! Module-level aggregation: the per-module numbers behind the paper's
//! Figure 3 (LOC, function counts, complexity histogram) and Table 2
//! (architectural design: component size, interface size, cohesion,
//! coupling).

use crate::cyclomatic::{cyclomatic_complexity, ComplexityHistogram};
use crate::loc::{count_file, LocCounts};
use adsafe_lang::ast::TranslationUnit;
use adsafe_lang::symbols::analyze_function;
use adsafe_lang::{CallGraph, SourceFile};
use std::collections::HashMap;

/// Aggregated metrics for one software module (e.g. `perception`).
/// Functions are tallied, never stored: the histogram answers Figure 3's
/// function count and CC bands, and `mean_params` the interface size.
#[derive(Debug, Clone)]
pub struct ModuleMetrics {
    /// Module name.
    pub name: String,
    /// Number of source files.
    pub file_count: usize,
    /// Line counts summed over files.
    pub loc: LocCounts,
    /// Complexity tally over every function: parsed functions and the
    /// pseudo-functions of token-only estimates alike. `total` is the
    /// module's function count, `over_10`/`over_20`/`over_50` its
    /// Figure 3 bands.
    pub histogram: ComplexityHistogram,
    /// Functions that came from a parse; the weight of `mean_params`
    /// (estimates have no parameters to count).
    pub parsed_functions: usize,
    /// Number of file-scope variables (globals) declared in the module.
    pub global_count: usize,
    /// Mean parameters per parsed function (interface size proxy).
    pub mean_params: f64,
    /// LCOM-style cohesion in `[0, 1]`: 1 means every pair of functions
    /// shares at least one accessed module global; 0 means none do.
    pub cohesion: f64,
    /// Files whose evidence came from token-only estimation (degraded
    /// tier) rather than a parse. Always `<= file_count`.
    pub absorbed_files: usize,
}

/// Folds one module's files into [`ModuleMetrics`], the single tally
/// behind both [`module_metrics`] and the facts-record path: add every
/// file's lines and globals first, then every function, so a function
/// touching a global declared in a later file still shares it.
#[derive(Debug, Default)]
pub struct ModuleTally<'a> {
    loc: LocCounts,
    files: usize,
    global_count: usize,
    global_index: HashMap<&'a str, usize>,
    histogram: ComplexityHistogram,
    params: usize,
    touched: Option<TouchedGlobals>,
}

impl<'a> ModuleTally<'a> {
    /// Adds one file's line counts and file-scope variable names.
    pub fn file(&mut self, loc: &LocCounts, globals: impl IntoIterator<Item = &'a str>) {
        debug_assert!(self.touched.is_none(), "every file precedes every function");
        self.files += 1;
        self.loc.physical += loc.physical;
        self.loc.nloc += loc.nloc;
        self.loc.comment += loc.comment;
        self.loc.blank += loc.blank;
        self.loc.directive += loc.directive;
        for g in globals {
            self.global_count += 1;
            let next = self.global_index.len();
            self.global_index.entry(g).or_insert(next);
        }
    }

    /// Adds one parsed function: its complexity, its parameter count,
    /// and the names it uses without a local or parameter binding.
    pub fn function<'n>(
        &mut self,
        cc: u32,
        params: usize,
        unresolved: impl Iterator<Item = &'n str>,
    ) {
        self.histogram.add(cc);
        self.params += params;
        let globals = self.global_index.len();
        let index = &self.global_index;
        self.touched
            .get_or_insert_with(|| TouchedGlobals::new(globals))
            .push(unresolved.filter_map(|n| index.get(n).copied()));
    }

    /// The module's metrics.
    pub fn finish(self, name: &str) -> ModuleMetrics {
        let parsed_functions = self.histogram.total;
        ModuleMetrics {
            name: name.to_string(),
            file_count: self.files,
            loc: self.loc,
            histogram: self.histogram,
            parsed_functions,
            global_count: self.global_count,
            mean_params: if parsed_functions == 0 {
                0.0
            } else {
                self.params as f64 / parsed_functions as f64
            },
            cohesion: self.touched.map_or(1.0, |t| t.cohesion()),
            absorbed_files: 0,
        }
    }
}

/// Computes module metrics over `(file, unit)` pairs belonging to one
/// module: the AST reference of the facts-record path.
pub fn module_metrics(name: &str, files: &[(&SourceFile, &TranslationUnit)]) -> ModuleMetrics {
    let _sp = adsafe_trace::span_with(
        "metrics.module",
        "metrics",
        vec![("module", name.to_string())],
    );
    let mut tally = ModuleTally::default();
    for (file, unit) in files {
        tally.file(&count_file(file), unit.global_vars().into_iter().map(|g| g.name.as_str()));
    }
    for (_, unit) in files {
        for f in unit.functions() {
            let syms = analyze_function(f);
            tally.function(
                cyclomatic_complexity(f),
                f.sig.params.len(),
                syms.unresolved.iter().map(|u| u.name.as_str()),
            );
        }
    }
    tally.finish(name)
}

/// Which module globals each function touches, one sparse row per
/// function over the module's indexed global names — the input of
/// LCOM-style pairwise cohesion. Functions that touch no global share
/// nothing with any other, so they are counted but get no row. Memory
/// is linear in the (function, global) incidences, here and in
/// [`cohesion`](Self::cohesion).
#[derive(Debug, Clone)]
pub struct TouchedGlobals {
    globals: usize,
    functions: usize,
    /// Each row's global indices, row after row.
    incidences: Vec<usize>,
    /// Row `r` is `incidences[row_offsets[r]..row_offsets[r + 1]]`.
    row_offsets: Vec<usize>,
}

impl TouchedGlobals {
    /// An empty set of rows over a module with `globals` distinct
    /// global names, indexed `0..globals`.
    pub fn new(globals: usize) -> Self {
        TouchedGlobals { globals, functions: 0, incidences: Vec::new(), row_offsets: vec![0] }
    }

    /// Adds one function touching the globals at `indices` (each below
    /// the `globals` given to [`new`](Self::new); repeats are fine).
    pub fn push(&mut self, indices: impl IntoIterator<Item = usize>) {
        self.functions += 1;
        let start = self.incidences.len();
        self.incidences.extend(indices);
        if self.incidences.len() > start {
            self.row_offsets.push(self.incidences.len());
        }
    }

    /// The fraction of function pairs sharing at least one accessed
    /// global (1.0 when there are fewer than two functions). Pairs are
    /// counted over every function, empty rows included.
    ///
    /// No pair is tested: each row's partners are the union of the
    /// posting sets (the rows touching each global) of its globals, so
    /// summing every union's size less the row itself counts each
    /// sharing pair twice. A global touched by more than 1/64 of the
    /// rows keeps its postings as a bitset over rows, the rest as index
    /// lists, so postings stay linear in the incidences: at most
    /// `64 * incidences / rows` globals are dense, with `rows / 64`
    /// words each.
    pub fn cohesion(&self) -> f64 {
        let n = self.functions;
        if n < 2 {
            return 1.0;
        }
        let rows = self.row_offsets.len() - 1;
        let row = |r: usize| &self.incidences[self.row_offsets[r]..self.row_offsets[r + 1]];
        // Posting lists by global, rows in ascending order.
        let mut posting_offsets = vec![0usize; self.globals + 1];
        for &g in &self.incidences {
            posting_offsets[g + 1] += 1;
        }
        for g in 0..self.globals {
            posting_offsets[g + 1] += posting_offsets[g];
        }
        let mut fill = posting_offsets.clone();
        let mut postings = vec![0usize; self.incidences.len()];
        for r in 0..rows {
            for &g in row(r) {
                postings[fill[g]] = r;
                fill[g] += 1;
            }
        }
        let posting = |g: usize| &postings[posting_offsets[g]..posting_offsets[g + 1]];
        // Bitsets for the dense globals only.
        let words = rows.div_ceil(64);
        let mut dense_bits = Vec::new();
        let dense_slot: Vec<Option<usize>> = (0..self.globals)
            .map(|g| {
                (posting(g).len() * 64 > rows).then(|| {
                    let start = dense_bits.len();
                    dense_bits.resize(start + words, 0u64);
                    for &r in posting(g) {
                        dense_bits[start + r / 64] |= 1 << (r % 64);
                    }
                    start
                })
            })
            .collect();
        let mut union = vec![0u64; words];
        let mut twice_shared = 0usize;
        for r in 0..rows {
            for &g in row(r) {
                match dense_slot[g] {
                    Some(start) => {
                        for (u, b) in union.iter_mut().zip(&dense_bits[start..]) {
                            *u |= b;
                        }
                    }
                    None => {
                        for &other in posting(g) {
                            union[other / 64] |= 1 << (other % 64);
                        }
                    }
                }
            }
            let size: usize = union.iter().map(|w| w.count_ones() as usize).sum();
            twice_shared += size - 1;
            union.fill(0);
        }
        (twice_shared / 2) as f64 / (n * (n - 1) / 2) as f64
    }
}

/// Inter-module coupling: number of distinct call edges between functions
/// of *different* modules. `module_of[i]` is node `i`'s module, as any
/// index that is equal exactly for nodes of the same module.
pub fn coupling_edges(graph: &CallGraph<'_>, module_of: &[usize]) -> usize {
    (0..graph.len())
        .map(|i| graph.successors(i).iter().filter(|&&j| module_of[i] != module_of[j]).count())
        .sum()
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
        assert_eq!(m.histogram.total, 2);
        assert_eq!(m.parsed_functions, 2);
        assert_eq!(m.global_count, 1);
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
        assert_eq!(m.histogram.over_10, 1);
        assert_eq!(m.histogram.over_20, 0);
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

    /// The definition, pair by pair over dense bitset rows: the loop
    /// the posting-set kernel replaced, kept as its reference.
    fn pair_loop_cohesion(globals: usize, sets: &[Vec<usize>]) -> f64 {
        let n = sets.len();
        if n < 2 {
            return 1.0;
        }
        let words = globals.div_ceil(64);
        let rows: Vec<Vec<u64>> = sets
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| {
                let mut row = vec![0u64; words];
                for &i in s {
                    row[i / 64] |= 1 << (i % 64);
                }
                row
            })
            .collect();
        let mut share = 0usize;
        for (i, a) in rows.iter().enumerate() {
            share += rows[i + 1..]
                .iter()
                .filter(|b| a.iter().zip(b.iter()).any(|(x, y)| x & y != 0))
                .count();
        }
        share as f64 / (n * (n - 1) / 2) as f64
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
        assert_eq!(kernel_cohesion(131, &wide), pair_loop_cohesion(131, &wide));
        assert_eq!(kernel_cohesion(131, &wide), 1.0 / 6.0);
        // One global every row touches: every pair shares, across words.
        let everyone: Vec<Vec<usize>> = (0..130).map(|i| vec![0, 1 + i % 70]).collect();
        assert_eq!(kernel_cohesion(71, &everyone), 1.0);
        // Many identical rows beside rows with no global.
        let mut twins = vec![vec![5, 9]; 100];
        twins.extend(vec![vec![]; 30]);
        assert_eq!(kernel_cohesion(10, &twins).to_bits(), pair_loop_cohesion(10, &twins).to_bits());
    }

    /// Rows with a dense global (touched by every row at `dense == 3`,
    /// every other row at 2, every fourth at 1), `copies` repeats of
    /// one row, and empty rows, over enough rows and globals to cross
    /// word boundaries both ways.
    fn structured_rows(
        globals: usize,
        raw: &[Vec<usize>],
        dense: (u8, usize),
        copies: (usize, usize),
    ) -> Vec<Vec<usize>> {
        let mut sets: Vec<Vec<usize>> =
            raw.iter().map(|s| s.iter().map(|i| i % globals).collect()).collect();
        if let Some(row) = sets.get(copies.0 % sets.len().max(1)).cloned() {
            sets.extend(std::iter::repeat_n(row, copies.1));
        }
        let (share, pick) = dense;
        if share > 0 {
            let every = 1 << (3 - share);
            for s in sets.iter_mut().step_by(every) {
                s.push(pick % globals);
            }
        }
        sets
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn cohesion_kernel_matches_the_pairwise_definition(
            globals in 1usize..300,
            raw in vec(vec(0usize..1000, 0..5), 0..150),
            dense in (0u8..4, 0usize..1000),
            copies in (0usize..1000, 0usize..100),
        ) {
            let sets = structured_rows(globals, &raw, dense, copies);
            prop_assert_eq!(
                kernel_cohesion(globals, &sets).to_bits(),
                pair_loop_cohesion(globals, &sets).to_bits()
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
        assert_eq!(graph.names(), ["detect", "plan", "plan2"]);
        // detect → plan and detect → plan2 cross; plan2 → plan does not.
        assert_eq!(coupling_edges(&graph, &[0, 1, 1]), 2);
        assert_eq!(coupling_edges(&graph, &[0, 0, 0]), 0);
        assert_eq!(coupling_edges(&graph, &[0, 1, 2]), 3);
    }
}
