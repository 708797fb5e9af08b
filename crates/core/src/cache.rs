//! Incremental artifact cache: per-file [`FileFacts`](crate::facts::FileFacts)
//! records keyed by content hash, persisted under `.adsafe-cache/`.
//!
//! ## Key and invalidation
//!
//! An entry's file name is the FNV-1a 64-bit hash of `path + '\0' + text`
//! (the *post-ingest* text, after lossy UTF-8 replacement — so a byte
//! change, a rename, or a different lossy decode all miss). The path is
//! part of the key because some rule messages embed path-derived names
//! (e.g. the expected include-guard macro).
//!
//! The whole cache carries a *fingerprint* in `meta.json`: a hash over
//! every native rule id and description, the bundled query pack's text,
//! the crate version, and the facts schema tag. When the fingerprint of
//! the running binary differs — a rule was added, reworded, or
//! re-thresholded, or the schema changed — the directory is wiped and
//! rebuilt rather than partially trusted.
//!
//! ## Fault behaviour
//!
//! The cache is an accelerator, never a correctness dependency: any I/O
//! error degrades to a miss, and a syntactically present but unreadable
//! entry is reported as [`CacheLookup::Corrupt`] so the pipeline can
//! log a [`crate::FaultCause::CacheCorrupt`] fault and re-analyse from
//! source. Counters: `cache.hits`, `cache.misses`, `cache.corrupt`,
//! `cache.stores`.

use crate::facts::{FileFacts, FACTS_SCHEMA};
use adsafe_lang::FileId;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Result of a cache lookup for one file.
#[derive(Debug)]
pub enum CacheLookup {
    /// A valid entry was found: skip parse, checks, and metrics
    /// extraction for this file. The record may be shared with a
    /// resident store (and with other runs), so its diagnostic spans
    /// can name another run's `FileId`: a consumer that emits them
    /// rebinds each span to its own file.
    Hit(Arc<FileFacts>),
    /// No entry (or the cache is disabled/unusable).
    Miss,
    /// An entry exists but cannot be trusted; the payload says why.
    Corrupt(String),
}

/// Anything the pipeline can reuse per-file facts from: the on-disk
/// [`FactsCache`], or the resident
/// [`MemoryFactsStore`](crate::store::MemoryFactsStore) an
/// `adsafe serve` daemon keeps warm across requests. Implementations
/// must be callable from parallel parse workers (`&self`, `Sync`).
pub trait FactsStore: Sync {
    /// Looks up the facts for `hash`. A record decoded from disk has
    /// its diagnostic spans bound to `file`; a resident record is
    /// returned as stored, spans and all (see [`CacheLookup::Hit`]).
    fn load(&self, hash: u64, file: FileId) -> CacheLookup;

    /// [`load`](Self::load) for the source file at `path`. Stores that
    /// keep a path → hash index record `path` against an entry they
    /// promote from a backing disk cache, so targeted invalidation
    /// finds it; the default ignores `path`.
    fn load_at(&self, hash: u64, file: FileId, path: &str) -> CacheLookup {
        let _ = path;
        self.load(hash, file)
    }

    /// Records the facts for `hash` (best-effort; failures are
    /// silent). `path` lets stores keep a path → hash index for
    /// targeted invalidation; the disk cache ignores it.
    fn store_entry(&self, hash: u64, path: &str, facts: &FileFacts);

    /// [`store_entry`](Self::store_entry) for a record the caller
    /// already holds shared: a resident store keeps the `Arc` itself
    /// instead of copying the record.
    fn store_shared(&self, hash: u64, path: &str, facts: Arc<FileFacts>) {
        self.store_entry(hash, path, &facts);
    }

    /// If the store could not be brought up (unwritable directory,
    /// clobbered `meta.json`, …), the reason — the pipeline logs it as
    /// a non-degrading `CacheCorrupt` fault and runs cold.
    fn disabled_detail(&self) -> Option<String> {
        None
    }
}

/// An open (or soft-failed) on-disk facts cache.
#[derive(Debug)]
pub struct FactsCache {
    dir: PathBuf,
    /// `Some(why)` when the directory could not be set up; every
    /// operation then degrades to a miss/no-op.
    disabled: Option<String>,
}

/// FNV-1a 64-bit over `bytes`, seeded with `state` (chainable).
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(PRIME);
    }
    state
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Content-hash key for one file: path and post-ingest text.
pub fn content_hash(path: &str, text: &str) -> u64 {
    let h = fnv1a(FNV_OFFSET, path.as_bytes());
    let h = fnv1a(h, &[0]);
    fnv1a(h, text.as_bytes())
}

/// Fingerprint of the analysing build: the rules that run (natives and
/// the bundled pack), crate version, facts schema. Two builds with equal
/// fingerprints produce interchangeable facts records.
pub fn ruleset_fingerprint() -> String {
    fingerprint_with(adsafe_query::BUILTIN_PACK)
}

/// [`ruleset_fingerprint`] with `bundled` standing in for the bundled
/// pack's source text.
fn fingerprint_with(bundled: &str) -> String {
    let mut h = FNV_OFFSET;
    for c in adsafe_checkers::default_checks() {
        h = fnv1a(h, c.id().as_bytes());
        h = fnv1a(h, &[0]);
        h = fnv1a(h, c.description().as_bytes());
        h = fnv1a(h, b"\n");
    }
    h = fnv1a(h, bundled.as_bytes());
    h = fnv1a(h, &[0]);
    h = fnv1a(h, env!("CARGO_PKG_VERSION").as_bytes());
    h = fnv1a(h, &[0]);
    h = fnv1a(h, FACTS_SCHEMA.as_bytes());
    format!("{h:016x}")
}

impl FactsCache {
    /// Opens (creating if needed) the cache at `dir`, wiping it when
    /// the stored fingerprint does not match this build. Never fails:
    /// an unusable directory degrades every operation to a miss/no-op,
    /// with the reason surfaced through
    /// [`disabled_detail`](FactsStore::disabled_detail) so the
    /// pipeline can log a non-degrading `CacheCorrupt` fault instead
    /// of silently running cold.
    pub fn open(dir: &Path) -> FactsCache {
        let fingerprint = ruleset_fingerprint();
        if let Err(e) = fs::create_dir_all(dir) {
            return FactsCache {
                dir: dir.to_path_buf(),
                disabled: Some(format!("cannot create cache dir: {e}")),
            };
        }
        let meta_path = dir.join("meta.json");
        let stored = fs::read_to_string(&meta_path).ok().and_then(|text| {
            let v = adsafe_trace::json::Json::parse(&text).ok()?;
            Some(v.get("fingerprint")?.as_str()?.to_string())
        });
        if stored.as_deref() != Some(fingerprint.as_str()) {
            // Fingerprint changed (or first run): every entry is stale.
            if let Ok(entries) = fs::read_dir(dir) {
                for e in entries.flatten() {
                    if e.path().extension().is_some_and(|x| x == "json") {
                        let _ = fs::remove_file(e.path());
                    }
                }
            }
            let mut meta = String::from("{\"schema\":\"adsafe-cache/1\",\"fingerprint\":");
            adsafe_trace::json::write_escaped(&mut meta, &fingerprint);
            meta.push('}');
            if let Err(e) = fs::write(&meta_path, meta) {
                return FactsCache {
                    dir: dir.to_path_buf(),
                    disabled: Some(format!("cannot write meta.json: {e}")),
                };
            }
        }
        FactsCache { dir: dir.to_path_buf(), disabled: None }
    }

    fn entry_path(&self, hash: u64) -> PathBuf {
        self.dir.join(format!("{hash:016x}.json"))
    }

    /// Looks up the entry for `hash`, rebinding diagnostic spans to
    /// `file`. Emits the `cache.hits`/`cache.misses`/`cache.corrupt`
    /// counter for the outcome.
    pub fn load(&self, hash: u64, file: FileId) -> CacheLookup {
        if self.disabled.is_some() {
            adsafe_trace::counter("cache.misses").incr();
            return CacheLookup::Miss;
        }
        let path = self.entry_path(hash);
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(_) => {
                adsafe_trace::counter("cache.misses").incr();
                return CacheLookup::Miss;
            }
        };
        match FileFacts::from_json(&text, file) {
            Ok(facts) => {
                adsafe_trace::counter("cache.hits").incr();
                CacheLookup::Hit(Arc::new(facts))
            }
            Err(detail) => {
                adsafe_trace::counter("cache.corrupt").incr();
                // Drop the bad entry so the re-analysed facts can be
                // written back cleanly.
                let _ = fs::remove_file(&path);
                CacheLookup::Corrupt(detail)
            }
        }
    }

    /// Writes the entry for `hash` (atomically: temp file + rename).
    /// Emits `cache.stores` on success; failures are silent — the next
    /// run simply misses.
    pub fn store(&self, hash: u64, facts: &FileFacts) {
        if self.write_json(hash, &facts.to_json()) {
            adsafe_trace::counter("cache.stores").incr();
        }
    }

    /// Writes an already-serialised entry (the memory store's lazy
    /// write-back path). Emits `cache.writeback` on success.
    pub fn store_raw(&self, hash: u64, json: &str) -> bool {
        let ok = self.write_json(hash, json);
        if ok {
            adsafe_trace::counter("cache.writeback").incr();
        }
        ok
    }

    fn write_json(&self, hash: u64, json: &str) -> bool {
        if self.disabled.is_some() {
            return false;
        }
        let tmp = self.dir.join(format!(".tmp-{}-{hash:016x}", std::process::id()));
        if fs::write(&tmp, json).is_ok() && fs::rename(&tmp, self.entry_path(hash)).is_ok() {
            true
        } else {
            let _ = fs::remove_file(&tmp);
            false
        }
    }

    /// Removes the entry for `hash`, if present.
    pub fn evict(&self, hash: u64) {
        if self.disabled.is_none() {
            let _ = fs::remove_file(self.entry_path(hash));
        }
    }
}

impl FactsStore for FactsCache {
    fn load(&self, hash: u64, file: FileId) -> CacheLookup {
        FactsCache::load(self, hash, file)
    }

    fn store_entry(&self, hash: u64, _path: &str, facts: &FileFacts) {
        FactsCache::store(self, hash, facts);
    }

    fn disabled_detail(&self) -> Option<String> {
        self.disabled.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!(
            "adsafe-cache-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn hash_differs_on_path_and_content() {
        let a = content_hash("a.cc", "int x;");
        assert_ne!(a, content_hash("b.cc", "int x;"));
        assert_ne!(a, content_hash("a.cc", "int y;"));
        assert_eq!(a, content_hash("a.cc", "int x;"));
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = temp_dir("roundtrip");
        let cache = FactsCache::open(&dir);
        let facts = FileFacts { recovery_count: 2, ..FileFacts::default() };
        let h = content_hash("m/a.cc", "text");
        cache.store(h, &facts);
        match cache.load(h, FileId(0)) {
            CacheLookup::Hit(f) => assert_eq!(*f, facts),
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(matches!(
            cache.load(h ^ 1, FileId(0)),
            CacheLookup::Miss
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_reported_and_evicted() {
        let dir = temp_dir("corrupt");
        let cache = FactsCache::open(&dir);
        let h = content_hash("m/a.cc", "text");
        fs::write(dir.join(format!("{h:016x}.json")), "{not json").unwrap();
        assert!(matches!(cache.load(h, FileId(0)), CacheLookup::Corrupt(_)));
        // The bad entry was evicted → second lookup is a plain miss.
        assert!(matches!(cache.load(h, FileId(0)), CacheLookup::Miss));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn occupied_cache_path_disables_with_detail() {
        // A regular file where the cache dir should be: create_dir_all
        // fails for any user (unlike a read-only dir, which root
        // bypasses), standing in for every unwritable-dir failure.
        let path = temp_dir("occupied");
        fs::write(&path, "not a directory").unwrap();
        let cache = FactsCache::open(&path);
        let detail = cache.disabled_detail().expect("unusable cache reports why");
        assert!(detail.contains("cannot create cache dir"), "{detail}");
        // Every operation degrades to a miss/no-op, never an error.
        let h = content_hash("m/a.cc", "text");
        cache.store(h, &FileFacts::default());
        assert!(matches!(cache.load(h, FileId(0)), CacheLookup::Miss));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn readonly_cache_dir_disables_with_detail() {
        use std::os::unix::fs::PermissionsExt;
        let dir = temp_dir("readonly");
        fs::create_dir_all(&dir).unwrap();
        fs::set_permissions(&dir, fs::Permissions::from_mode(0o555)).unwrap();
        // Root ignores permission bits; only assert when the kernel
        // actually enforces them.
        let enforced = fs::write(dir.join(".probe"), "x").is_err();
        if enforced {
            let cache = FactsCache::open(&dir);
            let detail = cache.disabled_detail().expect("read-only dir must disable");
            assert!(detail.contains("meta.json"), "{detail}");
        }
        fs::set_permissions(&dir, fs::Permissions::from_mode(0o755)).unwrap();
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn store_raw_round_trips_and_evicts() {
        let dir = temp_dir("raw");
        let cache = FactsCache::open(&dir);
        let facts = FileFacts { recovery_count: 1, ..FileFacts::default() };
        let h = content_hash("m/raw.cc", "text");
        assert!(cache.store_raw(h, &facts.to_json()));
        match cache.load(h, FileId(0)) {
            CacheLookup::Hit(f) => assert_eq!(*f, facts),
            other => panic!("expected hit, got {other:?}"),
        }
        cache.evict(h);
        assert!(matches!(cache.load(h, FileId(0)), CacheLookup::Miss));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_mismatch_wipes_entries() {
        let dir = temp_dir("fingerprint");
        let cache = FactsCache::open(&dir);
        let h = content_hash("m/a.cc", "text");
        cache.store(h, &FileFacts::default());
        // Simulate a cache written by a different rule set.
        fs::write(
            dir.join("meta.json"),
            "{\"schema\":\"adsafe-cache/1\",\"fingerprint\":\"deadbeef\"}",
        )
        .unwrap();
        let cache2 = FactsCache::open(&dir);
        assert!(matches!(cache2.load(h, FileId(0)), CacheLookup::Miss));
        // meta.json was rewritten with the current fingerprint.
        let meta = fs::read_to_string(dir.join("meta.json")).unwrap();
        assert!(meta.contains(&ruleset_fingerprint()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fingerprint_covers_the_bundled_rule_text() {
        assert_eq!(fingerprint_with(adsafe_query::BUILTIN_PACK), ruleset_fingerprint());
        let retuned = adsafe_query::BUILTIN_PACK.replace("nloc > 100", "nloc > 120");
        assert_ne!(retuned, adsafe_query::BUILTIN_PACK);
        assert_ne!(fingerprint_with(&retuned), ruleset_fingerprint());
    }

    /// A cache written by the build that still ran the five rules as
    /// native checkers: its entry replays a native `misra-15.5-multi-exit`
    /// finding. The fingerprint differs, so the directory is wiped on
    /// open and the run carries exactly one finding per multi-exit
    /// function — never the replayed copy next to the query's.
    #[test]
    fn native_twin_cache_is_wiped_not_replayed() {
        const SRC: &str = "int f(int x) {\n  if (x) return 1;\n  return 0;\n}\n";
        const PARENT_META: &str =
            "{\"schema\":\"adsafe-cache/1\",\"fingerprint\":\"6e91dc5a2e42952f\"}";
        const PARENT_ENTRY: &str = r#"{"schema":"adsafe-facts/1","recovery":0,"loc":[4,4,0,0,0],"implicit":0,"globals":[],"functions":[{"name":"f","qual":"f","cc":2,"nloc":4,"params":1,"nest":1,"returns":2,"multi":true,"goto":0,"stmts":3,"gpu":false,"sig":[0,12],"callees":[],"idents":["x"],"unres":[],"uninit":0,"shadow":0,"ptr":0,"dyn":0,"opaque":0,"kernel":false,"kptr":0,"alloc":0,"named":true,"validates":true}],"diags":[["misra-15.5-multi-exit","warning",0,12,"function `f` has 2 return statements / early exits","f"]]}"#;
        let dir = temp_dir("native-twin");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("meta.json"), PARENT_META).unwrap();
        let entry = dir.join(format!("{:016x}.json", content_hash("m/a.cc", SRC)));
        fs::write(&entry, PARENT_ENTRY).unwrap();
        assert_ne!(ruleset_fingerprint(), "6e91dc5a2e42952f");

        let run = || {
            let mut a = crate::Assessment::new().with_options(crate::AssessmentOptions {
                cache_dir: Some(dir.clone()),
                ..crate::AssessmentOptions::default()
            });
            a.add_file("m", "m/a.cc", SRC);
            a.run()
        };
        for pass in ["wiped", "warm"] {
            let report = run();
            // A replayed entry naming a retired native id would surface
            // as a corrupt-entry fault; a wiped cache leaves none.
            assert!(report.faults.is_empty(), "{pass}: {:?}", report.faults);
            let multi = report.diagnostics_for("misra-15.5-multi-exit");
            assert_eq!(multi.len(), 1, "{pass}: {multi:?}");
            assert_eq!(multi[0].function.as_deref(), Some("f"));
            let stored = fs::read_to_string(&entry).unwrap();
            assert!(!stored.contains("misra-15.5-multi-exit"), "{pass}: {stored}");
        }
        let meta = fs::read_to_string(dir.join("meta.json")).unwrap();
        assert!(meta.contains(&ruleset_fingerprint()));
        let _ = fs::remove_dir_all(&dir);
    }
}
