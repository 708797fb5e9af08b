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
//! The cache is an accelerator, never a correctness dependency: an
//! entry that cannot be opened or read is a miss. An entry that can be
//! read but is not exactly what
//! [`FileFacts::to_json`](crate::facts::FileFacts::to_json) writes —
//! invalid UTF-8, truncated, reformatted, reordered, or from another
//! schema — is reported as [`CacheLookup::Corrupt`] and evicted, so the
//! pipeline logs a [`crate::FaultCause::CacheCorrupt`] fault,
//! re-analyses the file from source and writes a clean entry back.
//! Counters: `cache.hits`, `cache.misses`, `cache.corrupt`,
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

/// One source file as ingest leaves it: its path, its text after lossy
/// UTF-8 decoding (shared, so a clone copies no bytes), that text's
/// [`content_hash`], and how many replacement characters the decode
/// left. Only [`DecodedSource::decode`] builds one, so the hash always
/// matches the path and text it travels with. A caller that keeps
/// sources resident hands the same value to every
/// [`Assessment::add_source`](crate::Assessment::add_source).
#[derive(Debug, Clone)]
pub struct DecodedSource {
    pub(crate) path: String,
    pub(crate) text: Arc<String>,
    pub(crate) hash: u64,
    pub(crate) replaced: usize,
}

impl DecodedSource {
    /// Decodes `bytes` read from `path` and hashes the result. Valid
    /// UTF-8 is taken over without a copy.
    pub fn decode(path: &str, bytes: Vec<u8>) -> Self {
        let (text, replaced) = decode_lossy(bytes);
        let hash = content_hash(path, &text);
        DecodedSource {
            path: path.to_string(),
            text: Arc::new(text),
            hash,
            replaced,
        }
    }

    /// Length of the decoded text in bytes.
    pub fn text_len(&self) -> usize {
        self.text.len()
    }

    /// Whether [`decode`](Self::decode) of `bytes` under this path
    /// would give this source: it decoded without replacement from
    /// exactly these bytes. A re-read that passes needs no new copy
    /// and no hash.
    pub fn decodes_from(&self, bytes: &[u8]) -> bool {
        self.replaced == 0 && self.text.as_bytes() == bytes
    }
}

/// `bytes` as text, with each invalid UTF-8 sequence replaced by
/// U+FFFD, and the number of U+FFFD in the result (0 when `bytes` was
/// valid, which is then moved, not copied).
pub(crate) fn decode_lossy(bytes: Vec<u8>) -> (String, usize) {
    match String::from_utf8(bytes) {
        Ok(text) => (text, 0),
        Err(e) => {
            let text = String::from_utf8_lossy(e.as_bytes()).into_owned();
            let replaced = text.chars().filter(|&c| c == '\u{fffd}').count();
            (text, replaced)
        }
    }
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
        FactsCache {
            dir: dir.to_path_buf(),
            disabled: None,
        }
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
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                adsafe_trace::counter("cache.misses").incr();
                return CacheLookup::Miss;
            }
        };
        let decoded = String::from_utf8(bytes)
            .map_err(|e| format!("entry is not UTF-8: {}", e.utf8_error()))
            .and_then(|text| FileFacts::from_json(&text, file));
        match decoded {
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
        let tmp = self
            .dir
            .join(format!(".tmp-{}-{hash:016x}", std::process::id()));
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
    fn a_decoded_source_knows_its_own_bytes() {
        let valid = DecodedSource::decode("m/a.cc", b"int x;\n".to_vec());
        assert_eq!(valid.hash, content_hash("m/a.cc", "int x;\n"));
        assert!(valid.decodes_from(b"int x;\n"));
        assert!(!valid.decodes_from(b"int y;\n"));
        // A lossy decode never matches: not its raw bytes (invalid), and
        // not its replaced text either, which would decode cleanly.
        let lossy = DecodedSource::decode("m/b.cc", b"int \xff;\n".to_vec());
        assert_eq!(lossy.replaced, 1);
        assert!(!lossy.decodes_from(b"int \xff;\n"));
        assert!(!lossy.decodes_from("int \u{fffd};\n".as_bytes()));
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
        let facts = FileFacts {
            recovery_count: 2,
            ..FileFacts::default()
        };
        let h = content_hash("m/a.cc", "text");
        cache.store(h, &facts);
        match cache.load(h, FileId(0)) {
            CacheLookup::Hit(f) => assert_eq!(*f, facts),
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(matches!(cache.load(h ^ 1, FileId(0)), CacheLookup::Miss));
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
    fn non_utf8_entry_is_corrupt_not_a_silent_miss() {
        let dir = temp_dir("non-utf8");
        let cache = FactsCache::open(&dir);
        let h = content_hash("m/a.cc", "text");
        fs::write(dir.join(format!("{h:016x}.json")), [0xFF; 16]).unwrap();
        match cache.load(h, FileId(0)) {
            CacheLookup::Corrupt(detail) => assert!(detail.contains("UTF-8"), "{detail}"),
            other => panic!("expected corrupt, got {other:?}"),
        }
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
        let facts = FileFacts {
            recovery_count: 1,
            ..FileFacts::default()
        };
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
        assert_eq!(
            fingerprint_with(adsafe_query::BUILTIN_PACK),
            ruleset_fingerprint()
        );
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
            // The rewritten entry holds the bundled rule's own finding.
            let stored = fs::read_to_string(&entry).unwrap();
            assert_eq!(
                stored.matches("misra-15.5-multi-exit").count(),
                1,
                "{pass}: {stored}"
            );
        }
        let meta = fs::read_to_string(dir.join("meta.json")).unwrap();
        assert!(meta.contains(&ruleset_fingerprint()));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A cache written by the build whose records carried an `idents`
    /// list beside `unres`: the `adsafe-facts/3` reader would reject its
    /// entries, but the fingerprint differs, so the directory is wiped
    /// on open and the run rewrites the entry without the key.
    #[test]
    fn idents_cache_is_wiped_not_replayed() {
        const SRC: &str = "int g;\nint f(int x) {\n  if (x) return g;\n  return 0;\n}\n";
        const PARENT_META: &str =
            "{\"schema\":\"adsafe-cache/1\",\"fingerprint\":\"5ac691959c63e097\"}";
        const PARENT_ENTRY: &str = r#"{"schema":"adsafe-facts/2","recovery":0,"loc":[5,5,0,0,0],"globals":[["g",false,false]],"functions":[{"name":"f","qual":"f","cc":2,"nloc":4,"params":1,"nest":1,"returns":2,"multi":true,"goto":0,"stmts":3,"gpu":false,"sig":[7,19],"callees":[],"idents":["g","x"],"unres":[["g",38,39]],"uninit":0,"shadow":0,"ptr":0,"dyn":0,"opaque":0,"kernel":false,"kptr":0,"alloc":0,"named":true,"validates":true}],"diags":[["design-global-variable","warning",0,5,"global variable `g: int` defined",null]]}"#;
        let dir = temp_dir("idents");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("meta.json"), PARENT_META).unwrap();
        let entry = dir.join(format!("{:016x}.json", content_hash("m/a.cc", SRC)));
        fs::write(&entry, PARENT_ENTRY).unwrap();
        assert_ne!(ruleset_fingerprint(), "5ac691959c63e097");

        let mut a = crate::Assessment::new().with_options(crate::AssessmentOptions {
            cache_dir: Some(dir.clone()),
            ..crate::AssessmentOptions::default()
        });
        a.add_file("m", "m/a.cc", SRC);
        let report = a.run();
        // A replayed entry would fail the reader as a corrupt-entry fault.
        assert!(report.faults.is_empty(), "{:?}", report.faults);
        assert_eq!(report.trace.counter("cache.stores"), 1);
        let stored = fs::read_to_string(&entry).unwrap();
        assert!(
            stored.starts_with(&format!(r#"{{"schema":"{FACTS_SCHEMA}""#)),
            "{stored}"
        );
        assert!(!stored.contains("\"idents\""), "{stored}");
        assert!(stored.contains(r#""unres":[["g",38,39]]"#), "{stored}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A cache written by the `adsafe-facts/3` build, whose global
    /// records carried no span or type: the fingerprint differs, so the
    /// directory is wiped on open, and the run rewrites the entry with
    /// the declaration's span and type and exactly one
    /// `design-global-variable` finding, anchored at the declaration.
    #[test]
    fn facts3_cache_is_wiped_not_replayed() {
        const SRC: &str = "int g;\nint f(int x) {\n  if (x) return g;\n  return 0;\n}\n";
        const PARENT_META: &str =
            "{\"schema\":\"adsafe-cache/1\",\"fingerprint\":\"5ac690959c63dee4\"}";
        const PARENT_ENTRY: &str = r#"{"schema":"adsafe-facts/3","recovery":0,"loc":[5,5,0,0,0],"globals":[["g",false,false]],"functions":[{"name":"f","qual":"f","cc":2,"nloc":4,"params":1,"nest":1,"returns":2,"multi":true,"goto":0,"stmts":3,"gpu":false,"sig":[7,19],"callees":[],"unres":[["g",38,39]],"uninit":0,"shadow":0,"ptr":0,"dyn":0,"opaque":0,"kernel":false,"kptr":0,"alloc":0,"named":true,"validates":true}],"diags":[["design-global-variable","warning",0,5,"global variable `g: int` defined",null]]}"#;
        let dir = temp_dir("facts3");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("meta.json"), PARENT_META).unwrap();
        let entry = dir.join(format!("{:016x}.json", content_hash("m/a.cc", SRC)));
        fs::write(&entry, PARENT_ENTRY).unwrap();
        assert_ne!(ruleset_fingerprint(), "5ac690959c63dee4");

        for pass in ["wiped", "warm"] {
            let mut a = crate::Assessment::new().with_options(crate::AssessmentOptions {
                cache_dir: Some(dir.clone()),
                ..crate::AssessmentOptions::default()
            });
            a.add_file("m", "m/a.cc", SRC);
            let report = a.run();
            // A replayed entry would fail the reader as a corrupt-entry fault.
            assert!(report.faults.is_empty(), "{pass}: {:?}", report.faults);
            let globals = report.diagnostics_for("design-global-variable");
            assert_eq!(globals.len(), 1, "{pass}: {globals:?}");
            assert_eq!(
                (globals[0].span.start, globals[0].span.end),
                (0, 5),
                "{pass}"
            );
            assert_eq!(
                globals[0].message, "global variable `g: int` defined",
                "{pass}"
            );
            let stored = fs::read_to_string(&entry).unwrap();
            assert!(
                stored.starts_with(&format!(r#"{{"schema":"{FACTS_SCHEMA}""#)),
                "{stored}"
            );
            assert!(
                stored.contains(r#""globals":[["g",false,false,0,5,"int"]]"#),
                "{stored}"
            );
            assert_eq!(
                stored.matches("design-global-variable").count(),
                1,
                "{pass}: {stored}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A cache written by the `adsafe-facts/4` build, whose records
    /// carried no construct sites and whose diagnostics held the native
    /// goto and switch findings: the fingerprint differs, so the
    /// directory is wiped on open, and the run rewrites the entry with
    /// its sites and exactly one finding of each rule, now from the
    /// bundled pack.
    #[test]
    fn facts4_cache_is_wiped_not_replayed() {
        const SRC: &str =
            "int f(int x) {\n  switch (x) { case 1: return 1; }\n  goto out;\nout:\n  return 0;\n}\n";
        const PARENT_META: &str =
            "{\"schema\":\"adsafe-cache/1\",\"fingerprint\":\"08dc5f8c2e7565c0\"}";
        const PARENT_ENTRY: &str = r#"{"schema":"adsafe-facts/4","recovery":0,"loc":[6,6,0,0,0],"globals":[],"functions":[{"name":"f","qual":"f","cc":2,"nloc":6,"params":1,"nest":1,"returns":2,"multi":true,"goto":1,"stmts":6,"gpu":false,"sig":[0,12],"callees":[],"unres":[],"uninit":0,"shadow":0,"ptr":0,"dyn":0,"opaque":0,"kernel":false,"kptr":0,"alloc":0,"cuda":[false,0,false,0,""],"vararg":false,"named":true,"validates":true}],"diags":[["misra-15.1-goto","violation",52,61,"unconditional jump `goto out`","f"],["misra-16.4-switch-default","warning",17,49,"switch without default label","f"],["misra-15.5-multi-exit","warning",0,12,"function `f` has 2 return statements / early exits","f"]]}"#;
        let dir = temp_dir("facts4");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("meta.json"), PARENT_META).unwrap();
        let entry = dir.join(format!("{:016x}.json", content_hash("m/a.cc", SRC)));
        fs::write(&entry, PARENT_ENTRY).unwrap();
        assert_ne!(ruleset_fingerprint(), "08dc5f8c2e7565c0");

        for pass in ["wiped", "warm"] {
            let mut a = crate::Assessment::new().with_options(crate::AssessmentOptions {
                cache_dir: Some(dir.clone()),
                ..crate::AssessmentOptions::default()
            });
            a.add_file("m", "m/a.cc", SRC);
            let report = a.run();
            // A replayed entry would fail the reader as a corrupt-entry fault.
            assert!(report.faults.is_empty(), "{pass}: {:?}", report.faults);
            for id in ["misra-15.1-goto", "misra-16.4-switch-default"] {
                assert_eq!(report.diagnostics_for(id).len(), 1, "{pass}: {id}");
            }
            let stored = fs::read_to_string(&entry).unwrap();
            assert!(
                stored.starts_with(&format!(r#"{{"schema":"{FACTS_SCHEMA}""#)),
                "{stored}"
            );
            assert!(
                stored.contains(r#""sites":[["switch",17,49,0,"",0],["goto",52,61,0,"out",0]]"#),
                "{stored}"
            );
            assert_eq!(
                stored.matches("misra-15.1-goto").count(),
                1,
                "{pass}: {stored}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A cache written by the `adsafe-facts/5` build, whose record
    /// carried none of the five newer site kinds and whose diagnostics
    /// held the native `defensive-unchecked-return` finding: the
    /// fingerprint differs, so the directory is wiped on open, and the
    /// run rewrites the entry with its `discarded-call` site and exactly
    /// one finding of the rule, now from the bundled pack.
    #[test]
    fn facts5_cache_is_wiped_not_replayed() {
        const SRC: &str = "void f(void* p, int n) {\n  cudaMalloc(&p, n);\n}\n";
        const PARENT_META: &str =
            "{\"schema\":\"adsafe-cache/1\",\"fingerprint\":\"32a5eb444bcef02e\"}";
        const PARENT_ENTRY: &str = r#"{"schema":"adsafe-facts/5","recovery":0,"loc":[3,3,0,0,0],"globals":[],"functions":[{"name":"f","qual":"f","cc":1,"nloc":3,"params":2,"nest":0,"returns":0,"multi":false,"goto":0,"stmts":1,"gpu":false,"sig":[0,22],"callees":["cudaMalloc"],"unres":[],"uninit":0,"shadow":0,"ptr":1,"dyn":1,"opaque":0,"kernel":false,"kptr":1,"alloc":1,"cuda":[true,0,false,0,""],"vararg":false,"named":true,"validates":false}],"sites":[],"diags":[["misra-21.3-dynamic-memory","violation",27,44,"dynamic memory API `cudaMalloc` used","f"],["defensive-unchecked-return","warning",27,44,"return value of `cudaMalloc` is discarded","f"],["cuda-alloc-balance","warning",0,22,"function `f` has 1 device allocation(s) and fewer frees","f"]]}"#;
        let dir = temp_dir("facts5");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("meta.json"), PARENT_META).unwrap();
        let entry = dir.join(format!("{:016x}.json", content_hash("m/a.cc", SRC)));
        fs::write(&entry, PARENT_ENTRY).unwrap();
        assert_ne!(ruleset_fingerprint(), "32a5eb444bcef02e");

        for pass in ["wiped", "warm"] {
            let mut a = crate::Assessment::new().with_options(crate::AssessmentOptions {
                cache_dir: Some(dir.clone()),
                ..crate::AssessmentOptions::default()
            });
            a.add_file("m", "m/a.cc", SRC);
            let report = a.run();
            assert!(report.faults.is_empty(), "{pass}: {:?}", report.faults);
            let found = report.diagnostics_for("defensive-unchecked-return");
            assert_eq!(found.len(), 1, "{pass}");
            assert_eq!(
                found[0].message,
                "return value of `cudaMalloc` is discarded"
            );
            let stored = fs::read_to_string(&entry).unwrap();
            assert!(
                stored.starts_with(&format!(r#"{{"schema":"{FACTS_SCHEMA}""#)),
                "{stored}"
            );
            assert!(
                stored.contains(
                    r#""sites":[["discarded-call",27,44,0,"cudaMalloc",0],["memory-api",27,44,0,"cudaMalloc",0]]"#
                ),
                "{stored}"
            );
            assert_eq!(
                stored.matches("defensive-unchecked-return").count(),
                1,
                "{pass}: {stored}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A cache written by the `adsafe-facts/6` build, whose record
    /// carried no dynamic-memory or cast site and whose diagnostics held
    /// the native `misra-21.3-dynamic-memory` and `typing-explicit-cast`
    /// findings: the fingerprint differs, so the directory is wiped on
    /// open, and the run rewrites the entry with its `memory-api` and
    /// `c-style-cast` sites and the same findings, now from the bundled
    /// pack.
    #[test]
    fn facts6_cache_is_wiped_not_replayed() {
        const SRC: &str = "int f(double d) {\n  free(malloc(4));\n  return (int)d;\n}\n";
        const PARENT_META: &str =
            "{\"schema\":\"adsafe-cache/1\",\"fingerprint\":\"50f1e366ffde9b9f\"}";
        const PARENT_ENTRY: &str = r#"{"schema":"adsafe-facts/6","recovery":0,"loc":[4,4,0,0,0],"globals":[],"functions":[{"name":"f","qual":"f","cc":1,"nloc":4,"params":1,"nest":0,"returns":1,"multi":false,"goto":0,"stmts":2,"gpu":false,"sig":[0,15],"callees":["free","malloc"],"unres":[],"uninit":0,"shadow":0,"ptr":0,"dyn":2,"opaque":0,"kernel":false,"kptr":0,"alloc":0,"cuda":[false,0,false,0,""],"vararg":false,"named":true,"validates":false}],"sites":[],"diags":[["misra-21.3-dynamic-memory","violation",20,35,"dynamic memory API `free` used","f"],["misra-21.3-dynamic-memory","violation",25,34,"dynamic memory API `malloc` used","f"],["typing-explicit-cast","warning",46,52,"C-style cast to `int`","f"]]}"#;
        let dir = temp_dir("facts6");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("meta.json"), PARENT_META).unwrap();
        let entry = dir.join(format!("{:016x}.json", content_hash("m/a.cc", SRC)));
        fs::write(&entry, PARENT_ENTRY).unwrap();
        assert_ne!(ruleset_fingerprint(), "50f1e366ffde9b9f");

        for pass in ["wiped", "warm"] {
            let mut a = crate::Assessment::new().with_options(crate::AssessmentOptions {
                cache_dir: Some(dir.clone()),
                ..crate::AssessmentOptions::default()
            });
            a.add_file("m", "m/a.cc", SRC);
            let report = a.run();
            assert!(report.faults.is_empty(), "{pass}: {:?}", report.faults);
            let messages = |id| -> Vec<String> {
                report
                    .diagnostics_for(id)
                    .into_iter()
                    .map(|d| d.message.clone())
                    .collect()
            };
            assert_eq!(
                messages("misra-21.3-dynamic-memory"),
                [
                    "dynamic memory API `free` used",
                    "dynamic memory API `malloc` used"
                ],
                "{pass}"
            );
            assert_eq!(
                messages("typing-explicit-cast"),
                ["C-style cast to `int`"],
                "{pass}"
            );
            let stored = fs::read_to_string(&entry).unwrap();
            assert!(
                stored.starts_with(&format!(r#"{{"schema":"{FACTS_SCHEMA}""#)),
                "{stored}"
            );
            assert!(
                stored.contains(
                    r#""sites":[["memory-api",20,35,0,"free",0],["memory-api",25,34,0,"malloc",0],["c-style-cast",46,52,0,"int",0]]"#
                ),
                "{stored}"
            );
            for id in ["misra-21.3-dynamic-memory", "typing-explicit-cast"] {
                let want = if id == "typing-explicit-cast" { 1 } else { 2 };
                assert_eq!(stored.matches(id).count(), want, "{pass}: {stored}");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A cache written by the `adsafe-facts/7` build, whose record
    /// carried no closed-source call, narrowing, misnamed-variable or
    /// unguarded-header site and whose diagnostics held the native
    /// findings of those four rules: the fingerprint differs, so the
    /// directory is wiped on open, and the run rewrites the entry with
    /// the four sites and the same findings, now from the bundled pack.
    #[test]
    fn facts7_cache_is_wiped_not_replayed() {
        const SRC: &str =
            "int f(double d) {\n  int Bad = d;\n  cublasCreate(0);\n  return Bad;\n}\n";
        const PARENT_META: &str =
            "{\"schema\":\"adsafe-cache/1\",\"fingerprint\":\"fd3b9c2a35c49472\"}";
        const PARENT_ENTRY: &str = r#"{"schema":"adsafe-facts/7","recovery":0,"loc":[5,5,0,0,0],"globals":[],"functions":[{"name":"f","qual":"f","cc":1,"nloc":5,"params":1,"nest":0,"returns":1,"multi":false,"goto":0,"stmts":3,"gpu":false,"sig":[0,15],"callees":["cublasCreate"],"unres":[],"uninit":0,"shadow":0,"ptr":0,"dyn":0,"opaque":0,"kernel":false,"kptr":0,"alloc":0,"cuda":[false,0,false,0,""],"vararg":false,"named":true,"validates":false}],"sites":[],"diags":[["typing-implicit-conversion","warning",20,31,"implicit narrowing initialisation of `Bad: int`","f"],["style-include-guard","warning",0,0,"header `./m/a.h` lacks an include guard",null],["naming-variable","info",20,31,"variable `Bad` is not lower_snake_case","f"],["cuda-closed-source-lib","info",35,50,"call to closed-source cuBLAS API `cublasCreate`","f"]]}"#;
        const FINDINGS: [(&str, &str); 4] = [
            (
                "cuda-closed-source-lib",
                "call to closed-source cuBLAS API `cublasCreate`",
            ),
            ("naming-variable", "variable `Bad` is not lower_snake_case"),
            (
                "style-include-guard",
                "header `./m/a.h` lacks an include guard",
            ),
            (
                "typing-implicit-conversion",
                "implicit narrowing initialisation of `Bad: int`",
            ),
        ];
        let dir = temp_dir("facts7");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("meta.json"), PARENT_META).unwrap();
        let entry = dir.join(format!("{:016x}.json", content_hash("./m/a.h", SRC)));
        fs::write(&entry, PARENT_ENTRY).unwrap();
        assert_ne!(ruleset_fingerprint(), "fd3b9c2a35c49472");

        for pass in ["wiped", "warm"] {
            let mut a = crate::Assessment::new().with_options(crate::AssessmentOptions {
                cache_dir: Some(dir.clone()),
                ..crate::AssessmentOptions::default()
            });
            a.add_file("m", "./m/a.h", SRC);
            let report = a.run();
            assert!(report.faults.is_empty(), "{pass}: {:?}", report.faults);
            let found: Vec<(&str, &str)> = report
                .diagnostics
                .iter()
                .map(|d| (d.check_id, d.message.as_str()))
                .collect();
            assert_eq!(found, FINDINGS, "{pass}");
            let stored = fs::read_to_string(&entry).unwrap();
            assert!(
                stored.starts_with(&format!(r#"{{"schema":"{FACTS_SCHEMA}""#)),
                "{stored}"
            );
            assert!(
                stored.contains(
                    r#""sites":[["unguarded-header",0,0,null,"./m/a.h",0],["misnamed-variable",20,31,0,"Bad",0],["narrowing-init",20,31,0,"Bad: int",0],["cublas-call",35,50,0,"cublasCreate",0]]"#
                ),
                "{stored}"
            );
            for (id, _) in FINDINGS {
                assert_eq!(stored.matches(id).count(), 1, "{pass}: {stored}");
            }
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
