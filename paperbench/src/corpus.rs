//! Inputs: the seeded paper-scale corpus, the directory it is written
//! to, the single-function edits the `edit` and `serve` workloads
//! apply, and the query-rule pack the daemon loads.

use adsafe::corpus::{generate, ApolloSpec, GeneratedFile};
use std::fs;
use std::path::{Path, PathBuf};

/// The corpus spec for `seed`: the paper-scale calibration with the
/// seed swapped in (the default seed, `0x26262`, is the paper's).
pub fn spec(seed: u64) -> ApolloSpec {
    ApolloSpec {
        seed,
        ..ApolloSpec::paper_scale()
    }
}

/// Generates the in-memory corpus for `seed`.
pub fn files(seed: u64) -> Vec<GeneratedFile> {
    generate(&spec(seed))
}

/// A directory the benchmark owns, removed with everything in it —
/// the corpus and the `.adsafe-cache/` and ledger the CLI path and the
/// daemon write under the assessed root — when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `<dir of the benchmark executable>/paperbench-work-<pid>-<tag>`:
    /// inside the build directory, so nothing lands in the source tree.
    pub fn create(tag: &str) -> std::io::Result<WorkDir> {
        let exe = std::env::current_exe()?;
        let base = exe.parent().unwrap_or(Path::new("."));
        let path = base.join(format!("paperbench-work-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path)?;
        Ok(WorkDir {
            path: path.canonicalize()?,
        })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Writes the corpus under `root` (one subdirectory per module).
pub fn write_tree(root: &Path, files: &[GeneratedFile]) -> std::io::Result<()> {
    for f in files {
        let path = root.join(&f.path);
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, &f.text)?;
    }
    Ok(())
}

/// One on-disk source file as the CLI and the daemon read it:
/// `(module, path, bytes)`, in their stable file order.
pub type Source = (String, String, Vec<u8>);

/// Reads the tree under `root` exactly as `adsafe assess` and the
/// daemon's `/assess` do.
pub fn read_tree(root: &Path) -> std::io::Result<Vec<Source>> {
    let mut paths = Vec::new();
    adsafe_serve::fsutil::collect_sources(root, &mut paths);
    let mut out = Vec::with_capacity(paths.len());
    for p in &paths {
        let bytes = fs::read(p)?;
        out.push((
            adsafe_serve::fsutil::module_of(root, p),
            p.display().to_string(),
            bytes,
        ));
    }
    Ok(out)
}

/// SplitMix64: the benchmark's own seeded choices.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE5_E4B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The line every generated function body opens with; an edit rewrites
/// the float literal in one occurrence of it.
const EDIT_SITE: &str = "float rate = scale * 0.5f;";

/// Single-function edits over a pristine corpus. Edit `n` changes the
/// float literal on one function's `rate` line to a value unique to
/// `n`. That gives the file a new content hash but leaves every count
/// the assessment reports unchanged: the literal stays a float literal
/// of the same type in the same expression.
pub struct Editor {
    seed: u64,
    /// `(file index, number of edit sites)` for every editable file.
    sites: Vec<(usize, usize)>,
    pristine: Vec<GeneratedFile>,
}

impl Editor {
    pub fn new(seed: u64, pristine: &[GeneratedFile]) -> Editor {
        let sites = pristine
            .iter()
            .enumerate()
            .map(|(i, f)| (i, f.text.matches(EDIT_SITE).count()))
            .filter(|&(_, n)| n > 0)
            .collect();
        Editor {
            seed,
            sites,
            pristine: pristine.to_vec(),
        }
    }

    /// Edit `n`: the corpus-relative path of the file it rewrites and
    /// the file's new text (the pristine text plus this one edit).
    pub fn edit(&self, n: u64) -> (&str, String) {
        let h = mix(self.seed ^ mix(n));
        let (idx, count) = self.sites[(h % self.sites.len() as u64) as usize];
        let which = ((h >> 32) % count as u64) as usize;
        let file = &self.pristine[idx];
        let at = file
            .text
            .match_indices(EDIT_SITE)
            .nth(which)
            .map(|(i, _)| i)
            .expect("site exists");
        let mut text = String::with_capacity(file.text.len() + 16);
        text.push_str(&file.text[..at]);
        text.push_str(&format!(
            "float rate = scale * 0.5{:07}f;",
            n % 10_000_000 + 1
        ));
        text.push_str(&file.text[at + EDIT_SITE.len()..]);
        (&file.path, text)
    }
}

/// The bundled rule pack with every rule id prefixed by `bench.`.
/// Loaded as shipped, its ids collide with the native rules they
/// mirror and the pack loader skips all five, so the daemon would carry
/// the query layer without ever running its VM; renamed, each request
/// evaluates all five rules.
pub fn bench_rule_pack() -> String {
    adsafe::rulequery::BUILTIN_PACK.replace("rule \"", "rule \"bench.")
}
