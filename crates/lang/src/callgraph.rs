//! Name-based call graph over a set of translation units, with Tarjan SCC
//! computation for recursion detection (ISO 26262-6 Table 8 row 10 / MISRA
//! C:2012 rule 17.2).
//!
//! Nodes are indices whose names borrow from what the graph was built
//! over (the ASTs, or cached facts records), so building a graph copies
//! no string; edges are sorted, deduplicated index lists.

use crate::ast::{ExprKind, FunctionDef, TranslationUnit};
use crate::visit::walk_exprs;
use std::collections::HashMap;

/// Raw callee names of one function, in expression-walk order with
/// duplicates preserved. This is the per-function input [`CallGraph`]
/// resolution consumes; callers that cache per-file analysis results
/// persist exactly this list so [`CallGraph::from_functions`] can
/// replay graph construction without re-parsing.
pub fn callee_names(f: &FunctionDef) -> Vec<&str> {
    let mut callees = Vec::new();
    walk_exprs(f, |e| {
        if matches!(
            e.kind,
            ExprKind::Call { .. } | ExprKind::KernelLaunch { .. }
        ) {
            if let Some(name) = e.callee_name() {
                callees.push(name);
            }
        }
    });
    callees
}

/// The unqualified tail of a (possibly `::`-qualified) name.
fn simple(name: &str) -> &str {
    name.rsplit("::").next().unwrap_or(name)
}

/// A call graph: nodes are function names, edges are direct calls.
#[derive(Debug, Default, Clone)]
pub struct CallGraph<'a> {
    names: Vec<&'a str>,
    index: HashMap<&'a str, usize>,
    /// Node of each definition, in definition order (a name defined
    /// twice maps both definitions to its first node).
    def_nodes: Vec<usize>,
    /// Node `i`'s callees are `targets[offsets[i]..offsets[i + 1]]`,
    /// sorted and deduplicated.
    offsets: Vec<usize>,
    targets: Vec<usize>,
    /// Calls to functions not defined in the analysed units (externals).
    external_calls: HashMap<&'a str, usize>,
}

impl<'a> CallGraph<'a> {
    /// Builds a call graph over the given translation units.
    ///
    /// Resolution is by unqualified name: `ns::f` defines both `ns::f` and
    /// `f` as candidate targets, matching how a linker-less static analysis
    /// has to operate.
    pub fn build(units: &[&'a TranslationUnit]) -> Self {
        let defs: Vec<(&'a str, Vec<&'a str>)> = units
            .iter()
            .flat_map(|&u| u.functions())
            .map(|f| (f.sig.qualified_name.as_str(), callee_names(f)))
            .collect();
        Self::from_functions(
            defs.iter()
                .map(|(name, callees)| (*name, callees.iter().copied())),
        )
    }

    /// Builds a call graph from per-function `(qualified_name, raw
    /// callees)` facts, replaying exactly the resolution [`build`]
    /// performs on freshly parsed units. Entries must appear in unit /
    /// definition order with callees as produced by [`callee_names`];
    /// the incremental pipeline feeds this from cached per-file facts.
    /// `defs` is walked twice, so its iterator must be cheap to clone.
    ///
    /// [`build`]: CallGraph::build
    pub fn from_functions<I, C>(defs: I) -> Self
    where
        I: IntoIterator<Item = (&'a str, C)>,
        I::IntoIter: Clone,
        C: IntoIterator<Item = &'a str>,
    {
        let defs = defs.into_iter();
        let mut g = CallGraph::default();
        // Pass 1: nodes, in first-definition order.
        for (name, _) in defs.clone() {
            let next = g.names.len();
            let node = *g.index.entry(name).or_insert(next);
            if node == next {
                g.names.push(name);
            }
            g.def_nodes.push(node);
        }
        // Pass 2: the nodes each distinct callee tail resolves to. Only
        // called tails get an entry, so most nodes cost one lookup.
        let mut by_simple: HashMap<&'a str, Vec<usize>> = HashMap::new();
        let mut calls: Vec<(usize, &'a str)> = Vec::new();
        for (&from, (_, callees)) in g.def_nodes.iter().zip(defs) {
            for callee in callees {
                by_simple.entry(simple(callee)).or_default();
                calls.push((from, callee));
            }
        }
        if !by_simple.is_empty() {
            for (i, name) in g.names.iter().enumerate() {
                if let Some(targets) = by_simple.get_mut(simple(name)) {
                    targets.push(i);
                }
            }
        }
        // Pass 3: edges, as one sorted, deduplicated pair list.
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (from, callee) in calls {
            let targets = &by_simple[simple(callee)];
            if targets.is_empty() {
                *g.external_calls.entry(callee).or_insert(0) += 1;
            }
            edges.extend(targets.iter().map(|&t| (from, t)));
        }
        edges.sort_unstable();
        edges.dedup();
        g.offsets = (0..=g.names.len())
            .map(|i| edges.partition_point(|&(from, _)| from < i))
            .collect();
        g.targets = edges.into_iter().map(|(_, t)| t).collect();
        g
    }

    /// Number of function nodes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Function names in insertion order.
    pub fn names(&self) -> &[&'a str] {
        &self.names
    }

    /// Node of each definition [`from_functions`] was given, in order.
    ///
    /// [`from_functions`]: CallGraph::from_functions
    pub fn def_nodes(&self) -> &[usize] {
        &self.def_nodes
    }

    /// Node `i`'s direct callees, as sorted node indices.
    pub fn successors(&self, i: usize) -> &[usize] {
        &self.targets[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Direct callees of `name` (qualified), if the node exists.
    pub fn callees(&self, name: &str) -> Option<Vec<&'a str>> {
        let i = *self.index.get(name)?;
        let mut v: Vec<&str> = self.successors(i).iter().map(|&j| self.names[j]).collect();
        v.sort_unstable();
        Some(v)
    }

    /// Calls whose target is not defined in the analysed units, with counts.
    pub fn external_calls(&self) -> &HashMap<&'a str, usize> {
        &self.external_calls
    }

    /// Names of all functions that participate in recursion: members of a
    /// non-trivial strongly connected component, or direct self-callers.
    /// Sorted. One iterative Tarjan pass (no stack overflow on deep
    /// graphs), with no allocation per component.
    pub fn recursive_functions(&self) -> Vec<String> {
        let n = self.len();
        let mut order = vec![usize::MAX; n];
        let mut lowlink = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        // DFS frames: (node, position of its next edge in `targets`).
        let mut frames: Vec<(usize, usize)> = Vec::new();
        let mut visited = 0usize;
        let mut out = Vec::new();
        for start in 0..n {
            // A node without callees is in no cycle, and starting a
            // search there discovers nothing.
            if order[start] != usize::MAX || self.successors(start).is_empty() {
                continue;
            }
            frames.push((start, self.offsets[start]));
            while let Some(&mut (v, ref mut ei)) = frames.last_mut() {
                if order[v] == usize::MAX {
                    order[v] = visited;
                    lowlink[v] = visited;
                    visited += 1;
                    stack.push(v);
                    on_stack[v] = true;
                }
                if *ei < self.offsets[v + 1] {
                    let w = self.targets[*ei];
                    *ei += 1;
                    if order[w] == usize::MAX {
                        frames.push((w, self.offsets[w]));
                    } else if on_stack[w] {
                        lowlink[v] = lowlink[v].min(order[w]);
                    }
                    continue;
                }
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == order[v] {
                    let root = stack
                        .iter()
                        .rposition(|&w| w == v)
                        .expect("stack invariant");
                    let scc = &stack[root..];
                    if scc.len() > 1 || self.successors(v).binary_search(&v).is_ok() {
                        out.extend(scc.iter().map(|&w| self.names[w].to_string()));
                    }
                    for &w in scc {
                        on_stack[w] = false;
                    }
                    stack.truncate(root);
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_source;
    use crate::source::FileId;

    fn graph(srcs: &[&str]) -> CallGraph<'static> {
        let parsed = srcs
            .iter()
            .enumerate()
            .map(|(i, s)| parse_source(FileId(i as u32), s))
            .collect::<Vec<_>>()
            .leak();
        let units: Vec<&TranslationUnit> = parsed.iter().map(|p| &p.unit).collect();
        CallGraph::build(&units)
    }

    #[test]
    fn direct_recursion_detected() {
        let g = graph(&["int fact(int n) { if (n <= 1) return 1; return n * fact(n - 1); }"]);
        assert_eq!(g.recursive_functions(), vec!["fact".to_string()]);
    }

    #[test]
    fn mutual_recursion_detected() {
        let g = graph(&[
            "int is_even(int n);\nint is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); }\n\
             int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); }",
        ]);
        let rec = g.recursive_functions();
        assert_eq!(rec.len(), 2);
        assert!(rec.contains(&"is_even".to_string()));
        assert!(rec.contains(&"is_odd".to_string()));
    }

    #[test]
    fn non_recursive_clean() {
        let g = graph(&["int a() { return 1; } int b() { return a(); } int c() { return b(); }"]);
        assert!(g.recursive_functions().is_empty());
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn cross_unit_edges() {
        let g = graph(&["void detect() { track(); }", "void track() { detect(); }"]);
        let rec = g.recursive_functions();
        assert_eq!(rec.len(), 2);
    }

    #[test]
    fn external_calls_recorded() {
        let g = graph(&["void f() { cudaMalloc(0, 4); printf(\"x\"); printf(\"y\"); }"]);
        assert_eq!(g.external_calls()["cudaMalloc"], 1);
        assert_eq!(g.external_calls()["printf"], 2);
    }

    #[test]
    fn qualified_name_resolution() {
        let g = graph(&["namespace a { void f() {} }\nvoid g() { a::f(); }"]);
        assert_eq!(g.callees("g").unwrap(), vec!["a::f"]);
    }

    #[test]
    fn kernel_launch_creates_edge() {
        let g = graph(&["__global__ void k(float* x) {}\nvoid h(float* x) { k<<<1, 32>>>(x); }"]);
        assert_eq!(g.callees("h").unwrap(), vec!["k"]);
    }

    #[test]
    fn from_functions_replays_build_exactly() {
        let srcs = [
            "namespace a { void f() { g(); } }\nvoid g() { a::f(); printf(\"x\"); }",
            "void h() { h(); g(); unknown(); }",
        ];
        let parsed: Vec<_> = srcs
            .iter()
            .enumerate()
            .map(|(i, s)| parse_source(FileId(i as u32), s))
            .collect();
        let units: Vec<&TranslationUnit> = parsed.iter().map(|p| &p.unit).collect();
        let built = CallGraph::build(&units);
        let defs: Vec<(String, Vec<String>)> = units
            .iter()
            .flat_map(|u| u.functions())
            .map(|f| {
                let callees = callee_names(f).into_iter().map(str::to_string).collect();
                (f.sig.qualified_name.clone(), callees)
            })
            .collect();
        let replayed = CallGraph::from_functions(
            defs.iter()
                .map(|(name, callees)| (name.as_str(), callees.iter().map(String::as_str))),
        );
        assert_eq!(built.names(), replayed.names());
        assert_eq!(built.external_calls(), replayed.external_calls());
        assert_eq!(built.recursive_functions(), replayed.recursive_functions());
        for name in built.names() {
            assert_eq!(built.callees(name), replayed.callees(name));
        }
    }
}
