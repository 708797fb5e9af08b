//! Shared analysis context handed to every check.

use adsafe_lang::ast::TranslationUnit;
use adsafe_lang::{CallGraph, SourceFile, SourceMap};
use std::collections::HashSet;

/// One analysed file: its source, parse tree, and owning module.
#[derive(Debug, Clone, Copy)]
pub struct FileEntry<'a> {
    /// The source file.
    pub file: &'a SourceFile,
    /// Its parse tree.
    pub unit: &'a TranslationUnit,
    /// The software module it belongs to (e.g. `"perception"`).
    pub module: &'a str,
}

/// Everything a [`crate::Check`] can look at: all files, the cross-file
/// call graph, and the set of global variable names.
#[derive(Debug)]
pub struct CheckContext<'a> {
    /// Source map resolving spans.
    pub sm: &'a SourceMap,
    /// All files under analysis.
    pub entries: Vec<FileEntry<'a>>,
    /// Whole-program call graph.
    pub graph: CallGraph<'a>,
    /// Names of all file-scope variables across the program.
    pub global_names: HashSet<String>,
}

impl<'a> CheckContext<'a> {
    /// Builds the context, deriving the call graph and global-name set.
    pub fn new(sm: &'a SourceMap, entries: Vec<FileEntry<'a>>) -> Self {
        let units: Vec<&TranslationUnit> = entries.iter().map(|e| e.unit).collect();
        let graph = CallGraph::build(&units);
        let global_names = adsafe_lang::symbols::global_names(&units);
        CheckContext {
            sm,
            entries,
            graph,
            global_names,
        }
    }

    /// A context over a single file, with no cross-file state (empty
    /// call graph, empty global-name set). The pipeline builds one per
    /// file, in that file's task, and runs every
    /// [`CheckScope::File`](crate::CheckScope::File) rule over it:
    /// file-scoped rules only look at `entries`, so skipping
    /// graph/global derivation keeps the task cheap. Program-scoped
    /// rules must never see one of these.
    pub fn file_local(sm: &'a SourceMap, entry: FileEntry<'a>) -> Self {
        CheckContext {
            sm,
            entries: vec![entry],
            graph: CallGraph::default(),
            global_names: HashSet::new(),
        }
    }

    /// Iterates `(entry, function)` over every function definition.
    pub fn functions(
        &self,
    ) -> impl Iterator<Item = (FileEntry<'a>, &'a adsafe_lang::ast::FunctionDef)> + '_ {
        self.entries
            .iter()
            .flat_map(|e| e.unit.functions().into_iter().map(move |f| (*e, f)))
    }

    /// Entries belonging to a given module.
    pub fn module_entries(&self, module: &str) -> Vec<FileEntry<'a>> {
        self.entries
            .iter()
            .copied()
            .filter(|e| e.module == module)
            .collect()
    }

    /// Distinct module names, in first-seen order.
    pub fn modules(&self) -> Vec<&'a str> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for e in &self.entries {
            if seen.insert(e.module) {
                out.push(e.module);
            }
        }
        out
    }
}

/// Owns sources and parse trees so a [`CheckContext`] can borrow them;
/// convenient for tests and small pipelines.
#[derive(Debug, Default)]
pub struct AnalysisSet {
    /// The source map.
    pub sm: SourceMap,
    // Module names are interned: one shared `Arc<str>` per module
    // instead of one `String` clone per file in the hot add loop.
    parsed: Vec<(
        adsafe_lang::FileId,
        std::sync::Arc<str>,
        adsafe_lang::ParsedFile,
    )>,
}

impl AnalysisSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a file under `module` and parses it.
    pub fn add(&mut self, module: &str, path: &str, text: &str) {
        let id = self.sm.add_file(path, text);
        let parsed = adsafe_lang::parse_source(id, self.sm.file(id).text());
        self.parsed
            .push((id, adsafe_lang::intern::intern(module), parsed));
    }

    /// Adds a file whose parse the caller performed itself (for example
    /// under panic containment). `id` must come from `self.sm.add_file`.
    pub fn add_parsed(
        &mut self,
        module: &str,
        id: adsafe_lang::FileId,
        parsed: adsafe_lang::ParsedFile,
    ) {
        self.parsed
            .push((id, adsafe_lang::intern::intern(module), parsed));
    }

    /// Builds the check context over everything added so far.
    pub fn context(&self) -> CheckContext<'_> {
        let entries = self
            .parsed
            .iter()
            .map(|(id, module, parsed)| FileEntry {
                file: self.sm.file(*id),
                unit: &parsed.unit,
                module,
            })
            .collect();
        CheckContext::new(&self.sm, entries)
    }

    /// Access to the parsed files (id, module, parse result).
    pub fn parsed(
        &self,
    ) -> impl Iterator<Item = (&adsafe_lang::FileId, &str, &adsafe_lang::ParsedFile)> {
        self.parsed.iter().map(|(id, m, p)| (id, &**m, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_builds_graph_and_globals() {
        let mut set = AnalysisSet::new();
        set.add(
            "perception",
            "a.cc",
            "int g_count;\nvoid detect() { track(); }",
        );
        set.add("perception", "b.cc", "void track() {}");
        let cx = set.context();
        assert_eq!(cx.entries.len(), 2);
        assert!(cx.global_names.contains("g_count"));
        assert_eq!(cx.graph.callees("detect").unwrap(), vec!["track"]);
        assert_eq!(cx.functions().count(), 2);
        assert_eq!(cx.modules(), vec!["perception"]);
        assert_eq!(cx.module_entries("perception").len(), 2);
        assert!(cx.module_entries("planning").is_empty());
    }
}
