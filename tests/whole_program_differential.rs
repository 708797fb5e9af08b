//! Differential test for the whole-program assemblies a run builds from
//! facts records: the call graph replayed from facts equals the one
//! built over the ASTs (names, callees, external calls, recursive set);
//! the coupling count equals a reference computed with owned
//! `String` module maps, both directly and in the pipeline's evidence;
//! every query row answers every schema field with its declared type;
//! and module cohesion, read from each function's unresolved names,
//! differs from the rule that counted every identifier naming a module
//! global only where a local or parameter shadows that global. Runs on
//! the examples corpus, on test-scale generated corpora at several
//! seeds, and on a corpus per fault-injection corruption kind.

use adsafe::checkers::AnalysisSet;
use adsafe::corpus::faultinject::{corrupt, Corruption};
use adsafe::corpus::{generate, ApolloSpec};
use adsafe::facts::{self, FactsRecord, FileFacts};
use adsafe::lang::ast::ExprKind;
use adsafe::lang::symbols::analyze_function;
use adsafe::lang::visit::walk_exprs;
use adsafe::lang::{CallGraph, FileId, SourceFile, TranslationUnit};
use adsafe::metrics::{module_metrics, TouchedGlobals};
use adsafe::rulequery::schema::{self, Ty};
use adsafe::rulequery::{Selector, Value};
use adsafe::{Assessment, AssessmentOptions};
use std::collections::{BTreeSet, HashMap};
use std::path::Path;

/// `(module, path, bytes)` per file, in ingest order.
type Corpus = Vec<(String, String, Vec<u8>)>;

/// The repository's examples corpus, grouped into modules by top-level
/// directory like the CLI's ingest.
fn examples_corpus() -> Corpus {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let mut entries: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                walk(&path, out);
            } else if matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("c" | "cc" | "cpp" | "cxx" | "cu" | "h" | "hpp" | "cuh")
            ) {
                out.push(path);
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples-corpus");
    let mut paths = Vec::new();
    walk(&root, &mut paths);
    paths
        .into_iter()
        .map(|p| {
            let rel = p.strip_prefix(&root).unwrap();
            let module = rel
                .components()
                .next()
                .unwrap()
                .as_os_str()
                .to_string_lossy();
            (
                module.into_owned(),
                rel.display().to_string(),
                std::fs::read(&p).unwrap(),
            )
        })
        .collect()
}

fn generated(seed: u64) -> Corpus {
    generate(&ApolloSpec {
        seed,
        ..ApolloSpec::test_scale()
    })
    .into_iter()
    .map(|f| (f.module, f.path, f.text.into_bytes()))
    .collect()
}

/// The seed-1 corpus with every third file corrupted by `kind`.
fn corrupted(kind: Corruption) -> Corpus {
    generate(&ApolloSpec {
        seed: 1,
        ..ApolloSpec::test_scale()
    })
    .into_iter()
    .enumerate()
    .map(|(i, f)| {
        let bytes = if i % 3 == 0 {
            corrupt(7, kind, &f.path, &f.text)
        } else {
            f.text.into_bytes()
        };
        (f.module, f.path, bytes)
    })
    .collect()
}

/// Reference coupling: an owned `qualified name → module` map where the
/// last defining file wins, and one owned module pair per cross-module
/// callee edge.
fn reference_coupling(records: &[FactsRecord<'_>], graph: &CallGraph<'_>) -> usize {
    let module_of: HashMap<String, String> = records
        .iter()
        .flat_map(|(_, module, facts)| {
            facts
                .functions
                .iter()
                .map(move |f| (f.metrics.qualified_name.clone(), module.to_string()))
        })
        .collect();
    let mut pairs: HashMap<(String, String), usize> = HashMap::new();
    for name in graph.names() {
        let from = &module_of[*name];
        for callee in graph.callees(name).unwrap() {
            let to = &module_of[callee];
            if from != to {
                *pairs.entry((from.clone(), to.clone())).or_insert(0) += 1;
            }
        }
    }
    pairs.values().sum()
}

/// Checks one module's cohesion against the rule that counted every
/// `Ident` expression naming a module global, shadowed or not. Per
/// function, the globals read from the unresolved names must be those
/// identifiers minus names the function binds itself; any other gap is a
/// use `analyze_function` misses. The two cohesions may then differ only
/// in a module where some function shadows a global.
fn check_cohesion(label: &str, module: &str, files: &[(&SourceFile, &TranslationUnit)]) {
    let mut index: HashMap<&str, usize> = HashMap::new();
    for (_, unit) in files {
        for g in unit.global_vars() {
            let next = index.len();
            index.entry(g.name.as_str()).or_insert(next);
        }
    }
    let mut by_ident = TouchedGlobals::new(index.len());
    let mut shadowed = false;
    for f in files.iter().flat_map(|(_, unit)| unit.functions()) {
        let mut idents = BTreeSet::new();
        walk_exprs(f, |e| {
            if let ExprKind::Ident(n) = &e.kind {
                idents.extend(index.get_key_value(n.as_str()).map(|(k, _)| *k));
            }
        });
        let syms = analyze_function(f);
        let unresolved: BTreeSet<&str> = syms
            .unresolved
            .iter()
            .filter_map(|u| index.get_key_value(u.name.as_str()).map(|(k, _)| *k))
            .collect();
        let name = &f.sig.qualified_name;
        assert!(
            unresolved.is_subset(&idents),
            "{label}: {name} resolves a use it never names"
        );
        for gap in idents.difference(&unresolved) {
            shadowed = true;
            assert!(
                syms.params
                    .iter()
                    .chain(syms.locals.iter().map(|l| &l.name))
                    .any(|b| b == gap),
                "{label}: {name} uses global `{gap}` but its unresolved names miss it"
            );
        }
        by_ident.push(idents.iter().map(|n| index[n]));
    }
    let cohesion = module_metrics(module, files).cohesion;
    assert!(
        shadowed || cohesion.to_bits() == by_ident.cohesion().to_bits(),
        "{label}: {module} cohesion {cohesion} vs {} with no shadowed global",
        by_ident.cohesion()
    );
}

fn ty_of(v: Value<'_>) -> Ty {
    match v {
        Value::Int(_) => Ty::Int,
        Value::Bool(_) => Ty::Bool,
        Value::Str(_) => Ty::Str,
    }
}

/// Runs every differential check on `corpus`; returns the reference
/// coupling so callers can insist the corpus exercises it.
fn check(label: &str, corpus: &Corpus) -> usize {
    let mut set = AnalysisSet::new();
    for (module, path, bytes) in corpus {
        set.add(module, path, &String::from_utf8_lossy(bytes));
    }
    let facts: Vec<(FileId, &str, FileFacts)> = set
        .parsed()
        .map(|(id, module, parsed)| (*id, module, facts::extract_facts(&set.sm, *id, parsed)))
        .collect();
    let records: Vec<FactsRecord<'_>> = facts.iter().map(|(id, m, f)| (*id, *m, f)).collect();
    let units: Vec<&TranslationUnit> = set.parsed().map(|(_, _, p)| &p.unit).collect();

    // Call graph: facts replay against the AST build.
    let built = CallGraph::build(&units);
    let replayed = facts::call_graph(&records);
    assert!(!built.is_empty(), "{label}: no functions");
    assert_eq!(replayed.names(), built.names(), "{label}: node names");
    for name in built.names() {
        assert_eq!(
            replayed.callees(name),
            built.callees(name),
            "{label}: callees of {name}"
        );
    }
    assert_eq!(
        replayed.external_calls(),
        built.external_calls(),
        "{label}: external calls"
    );
    let recursive = built.recursive_functions();
    assert_eq!(
        replayed.recursive_functions(),
        recursive,
        "{label}: recursive set"
    );
    assert!(
        recursive.windows(2).all(|w| w[0] < w[1]),
        "{label}: recursive set sorted"
    );

    // Cohesion: facts path against the AST reference bit for bit, and
    // against the identifier rule up to shadowing.
    let mut modules: Vec<&str> = records.iter().map(|(_, m, _)| *m).collect();
    modules.dedup();
    for module in modules {
        let files: Vec<(&SourceFile, &TranslationUnit)> = set
            .parsed()
            .filter(|(_, m, _)| *m == module)
            .map(|(id, _, p)| (set.sm.file(*id), &p.unit))
            .collect();
        let mine: Vec<&FileFacts> = records
            .iter()
            .filter(|(_, m, _)| *m == module)
            .map(|(_, _, f)| *f)
            .collect();
        assert_eq!(
            facts::module_metrics_from_facts(module, &mine)
                .cohesion
                .to_bits(),
            module_metrics(module, &files).cohesion.to_bits(),
            "{label}: {module} cohesion"
        );
        check_cohesion(label, module, &files);
    }

    // Coupling: index-based count against the owned-map reference, and
    // the pipeline's evidence against both.
    let reference = reference_coupling(&records, &built);
    assert_eq!(
        facts::coupling_edges(&records, &replayed),
        reference,
        "{label}: coupling"
    );
    let mut a = Assessment::new().with_options(AssessmentOptions {
        jobs: 1,
        cache_dir: None,
        ..AssessmentOptions::default()
    });
    for (module, path, bytes) in corpus {
        a.add_file_bytes(module, path, bytes);
    }
    let report = a.run();
    assert_eq!(
        report.evidence.coupling_edges, reference,
        "{label}: evidence coupling"
    );
    assert_eq!(
        report.evidence.recursive_functions,
        recursive.len(),
        "{label}: Table 8 row 10"
    );

    // Rows: every field of every row has the schema's type, and nothing
    // answers past the schema's end.
    for sel in [
        Selector::Function,
        Selector::Global,
        Selector::File,
        Selector::Site,
    ] {
        let fields = schema::fields(sel);
        for &(id, module, f) in &records {
            let rows = adsafe::query::rows_from_facts(sel, id, module, f, &recursive);
            let expected = match sel {
                Selector::Function => f.functions.len(),
                Selector::Global => f.globals.len(),
                Selector::File => 1,
                Selector::Site => f.sites.len(),
            };
            assert_eq!(rows.len(), expected, "{label}: {sel:?} rows");
            for row in &rows {
                for (i, (name, ty)) in fields.iter().enumerate() {
                    let v = row
                        .get(i as u16)
                        .unwrap_or_else(|| panic!("{label}: {name} missing"));
                    assert_eq!(ty_of(v), *ty, "{label}: {sel:?} field {name}");
                }
                assert_eq!(
                    row.get(fields.len() as u16),
                    None,
                    "{label}: {sel:?} past the end"
                );
            }
            if sel == Selector::Function {
                let idx = schema::lookup(sel, "recursive").unwrap().0;
                let flagged = rows
                    .iter()
                    .filter(|r| r.get(idx) == Some(Value::Bool(true)))
                    .count();
                let expected = f
                    .functions
                    .iter()
                    .filter(|x| recursive.contains(&x.metrics.qualified_name))
                    .count();
                assert_eq!(flagged, expected, "{label}: recursive field");
            }
        }
    }
    reference
}

#[test]
fn examples_corpus_assemblies_match_the_references() {
    check("examples-corpus", &examples_corpus());
}

#[test]
fn generated_corpora_assemblies_match_the_references() {
    for seed in [1, 2, 3, 5, 8, 0x26262] {
        let coupling = check(&format!("seed {seed}"), &generated(seed));
        assert!(
            coupling > 0,
            "seed {seed}: the generator's hub module must couple"
        );
    }
}

#[test]
fn corrupted_corpora_assemblies_match_the_references() {
    for kind in Corruption::ALL {
        check(kind.name(), &corrupted(kind));
    }
}
