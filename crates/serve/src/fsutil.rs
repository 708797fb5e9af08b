//! Source ingest shared by the CLI and the daemon: `adsafe assess`,
//! `adsafe rules check` and `POST /assess` all load a tree through
//! [`ingest_dir`], so every front door sees the same file set, module
//! grouping and bytes — and records the same corpus digest.

use adsafe::Assessment;
use std::path::{Path, PathBuf};

/// File extensions the assessment ingests.
pub const SOURCE_EXTENSIONS: [&str; 8] = ["c", "cc", "cpp", "cxx", "cu", "h", "hpp", "cuh"];

/// Collects every C/C++/CUDA source under `root`, depth-first in
/// sorted directory order — the stable enumeration both determinism
/// gates (CLI vs HTTP byte-identity) rely on.
pub fn collect_sources(root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(root) else { return };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path
            .extension()
            .and_then(|e| e.to_str())
            .is_some_and(|e| SOURCE_EXTENSIONS.contains(&e))
        {
            out.push(path);
        }
    }
}

/// What [`ingest_dir`] found under a corpus root.
#[derive(Debug)]
pub struct Ingested {
    /// Sources [`collect_sources`] found.
    pub found: usize,
    /// Sources that could not be read (the rest were added), in order.
    pub unreadable: Vec<(PathBuf, std::io::Error)>,
}

/// Adds every readable source under `root` ([`collect_sources`] order)
/// to `assessment` under its [`module_of`] module. Each file is read
/// once; the assessment decodes it (lossily, with an ingest fault for
/// invalid UTF-8), keeps the one copy of its text, and hashes it at
/// most once. Unreadable files are skipped and reported.
pub fn ingest_dir(root: &Path, assessment: &mut Assessment) -> Ingested {
    let mut files = Vec::new();
    collect_sources(root, &mut files);
    let mut ingested = Ingested { found: files.len(), unreadable: Vec::new() };
    for f in files {
        match std::fs::read(&f) {
            Ok(bytes) => {
                assessment.add_file_bytes(&module_of(root, &f), &f.display().to_string(), &bytes);
            }
            Err(e) => ingested.unreadable.push((f, e)),
        }
    }
    ingested
}

/// Maps a file to its module: the top-level directory under `root`,
/// mirroring how the paper treats Apollo's module tree.
pub fn module_of(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .ok()
        .and_then(|rel| rel.components().next())
        .and_then(|c| c.as_os_str().to_str())
        .filter(|c| !c.contains('.'))
        .unwrap_or("root")
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_is_the_top_level_directory() {
        let root = Path::new("/corpus");
        assert_eq!(module_of(root, Path::new("/corpus/perception/a.cc")), "perception");
        assert_eq!(module_of(root, Path::new("/corpus/top.cc")), "root");
        assert_eq!(module_of(Path::new("/x"), Path::new("/y/a.cc")), "root");
    }
}
