//! Resident in-memory facts store for long-lived assessment services.
//!
//! The on-disk [`FactsCache`](crate::cache::FactsCache) makes *cold
//! process starts* cheap; this store makes *warm requests* cheap. An
//! `adsafe serve` daemon keeps one [`MemoryFactsStore`] alive across
//! requests, so a repeated `POST /assess` over an unchanged corpus
//! performs zero parse-phase work: every file resolves to a resident
//! entry keyed by content hash.
//!
//! Entries are held decoded, as shared `Arc<FileFacts>` records: a
//! resident hit is an `Arc::clone` under the read lock, with no copy
//! and no decode. A record's diagnostic spans keep whatever `FileId`
//! the run that built it assigned; the pipeline rebinds them to the
//! current run's `FileId` in the one place cached diagnostics enter a
//! run (the replay loop), on the clones it makes anyway. JSON now
//! appears only at the disk boundary: promotion decodes with
//! `FileFacts::from_json` (and its validation), write-back and
//! eviction demotion encode with `FileFacts::to_json`. Memory and disk
//! therefore no longer share a decoder; their parity — the same
//! report and the same diagnostics, spans included, from a resident
//! hit as from a disk round trip — is pinned by a differential test
//! (`tests/query_integration.rs`).
//!
//! With a backing directory ([`MemoryFactsStore::open`] with
//! `Some(dir)`), misses fall through to the disk cache (promoting hits
//! into memory) and new entries are written back **lazily**: they stay
//! dirty in memory until [`flush`](MemoryFactsStore::flush), which the
//! server calls on graceful shutdown — requests never pay disk-write
//! latency.
//!
//! A secondary path → hash index supports targeted invalidation
//! (`POST /invalidate`): dropping a path removes the resident entry
//! *and* evicts the disk entry, so the next request re-analyses from
//! source. Entries promoted from disk carry the path they were looked
//! up under ([`FactsStore::load_at`]), so invalidation finds them too.
//!
//! With a byte budget ([`MemoryFactsStore::open_budgeted`]), the store
//! degrades gracefully under memory pressure instead of growing
//! without bound: crossing the watermark evicts least-recently-used
//! entries (dirty ones are demoted to the disk backing first, so no
//! warm-start data is lost) until the store is back under budget. An
//! entry's size is its encoded JSON length, measured once at insert —
//! the bytes the disk cache stores; a decoded record takes about 1.1×
//! that on the heap at paper scale. Evictions are counted in
//! `store.evictions`, released bytes in `store.evicted_bytes`, and
//! summarised as a non-degrading Info [`Fault`](crate::Fault) via
//! [`take_eviction_fault`] (MemoryFactsStore::take_eviction_fault) —
//! which the daemon surfaces through `/healthz`, *not* the assessment
//! report: report bytes must stay a function of the assessed code
//! alone, never of how much other traffic the store has absorbed.
//!
//! ## Derived-result memos
//!
//! Next to the facts, the store keeps two results derived from them, so
//! a warm run re-derives only what changed:
//!
//! - **Per file**, an entry carries the user pack's file-scoped findings
//!   on its record, keyed by (pack fingerprint, module). A run replays
//!   them like the record's own `diags`.
//! - **Per file set** (the ordered paths and modules of a run), one
//!   slot holds the whole-program results: the cross-file findings,
//!   module metrics, unit statistics and the other evidence inputs that
//!   need every file. A run reuses the slot when its (path, module,
//!   content hash) digest and pack fingerprint match.
//!
//! Memos are not responses: every run still replays, sorts, judges and
//! renders. Their bytes count toward the budget (program slots go
//! first under pressure; a file memo goes with its entry), and
//! invalidation drops them with the facts. Lookups count
//! `store.memo.{file,program}.{hits,misses}`.

use crate::cache::{CacheLookup, FactsCache, FactsStore};
use crate::facts::FileFacts;
use crate::fault::{Fault, FaultCause, FaultPhase, FaultSeverity, Recovery};
use adsafe_checkers::{Diagnostic, UnitDesignStats};
use adsafe_iso26262::GpuEvidence;
use adsafe_lang::FileId;
use adsafe_metrics::ModuleMetrics;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

/// One resident entry: the decoded facts, their encoded JSON length
/// (the entry's size for byte accounting), whether it still needs
/// writing back to the disk cache, and when it was last used (a
/// logical-clock stamp driving LRU eviction; atomic so hits under the
/// read lock can refresh recency without write-lock contention).
#[derive(Debug)]
struct Entry {
    path: String,
    facts: Arc<FileFacts>,
    size: u64,
    dirty: bool,
    last_use: AtomicU64,
    memo: Option<FileMemo>,
}

/// The user pack's file-scoped findings on one entry's record.
#[derive(Debug)]
struct FileMemo {
    pack: u64,
    module: String,
    diags: Arc<Vec<Diagnostic>>,
    size: u64,
}

/// The whole-program results of one run, as a program slot keeps them.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProgramMemo {
    /// `design-global-use` and program-scoped query findings, with the
    /// `FileId`s of the run that built them (a slot is only reused for
    /// the same ordered files, so they hold).
    pub diags: Vec<Diagnostic>,
    /// Module metrics, in module order.
    pub modules: Vec<ModuleMetrics>,
    /// ISO 26262-6 Table 8 statistics.
    pub unit: UnitDesignStats,
    /// The other cross-file evidence inputs.
    pub cross: CrossFile,
}

/// Evidence inputs that need every file: cross-module call edges, the
/// validation ratio and the per-function GPU sums.
#[derive(Debug, Clone, Default)]
pub(crate) struct CrossFile {
    pub coupling_edges: usize,
    pub validation_ratio: f64,
    /// Kernel count, kernel pointer parameters and device allocation
    /// sites; the other fields stay default.
    pub gpu: GpuEvidence,
}

/// One file set's program slot.
#[derive(Debug)]
struct ProgramSlot {
    digest: u64,
    pack: u64,
    memo: Arc<ProgramMemo>,
    size: u64,
    last_use: u64,
}

/// Heap estimate of a findings list: each record plus its strings.
fn diags_size(diags: &[Diagnostic]) -> u64 {
    let text: usize = diags
        .iter()
        .map(|d| d.message.len() + d.function.as_ref().map_or(0, String::len))
        .sum();
    (std::mem::size_of_val(diags) + text) as u64
}

impl ProgramMemo {
    fn size(&self) -> u64 {
        let modules: usize = self.modules.iter().map(|m| m.name.len()).sum();
        diags_size(&self.diags)
            + (self.modules.len() * std::mem::size_of::<ModuleMetrics>() + modules) as u64
            + std::mem::size_of::<ProgramMemo>() as u64
    }
}

/// A thread-safe facts store resident in process memory, with optional
/// lazy write-back to an on-disk [`FactsCache`] and an optional LRU
/// byte budget.
#[derive(Debug)]
pub struct MemoryFactsStore {
    entries: RwLock<HashMap<u64, Entry>>,
    /// Program slots by file-set key. Locked after `entries` whenever
    /// both are held.
    programs: Mutex<HashMap<u64, ProgramSlot>>,
    disk: Option<FactsCache>,
    /// Total bytes resident — entries' encoded-JSON lengths plus memo
    /// estimates — maintained incrementally (always mutated under the
    /// `entries` write lock, so it tracks the maps exactly). Backs
    /// `/healthz` and the budget, making resident growth visible before
    /// it hurts.
    bytes: AtomicU64,
    /// The memos' share of `bytes` (the `store.memo.bytes` gauge).
    memo_bytes: AtomicU64,
    /// Byte budget; `0` means unbounded. Crossing it evicts program
    /// slots, then LRU entries, until `bytes <= budget`.
    budget: u64,
    /// Logical clock stamping entry use; monotonic per store.
    clock: AtomicU64,
    /// Entries evicted since the last [`take_eviction_fault`]
    /// (Self::take_eviction_fault) drain.
    evicted_entries: AtomicU64,
    /// Bytes released since the last drain.
    evicted_bytes: AtomicU64,
}

impl MemoryFactsStore {
    /// Creates a store, backed by the disk cache at `dir` when given
    /// (misses fall through, dirty entries flush there on
    /// [`flush`](Self::flush)); memory-only otherwise. Unbounded — see
    /// [`open_budgeted`](Self::open_budgeted) for the LRU byte budget.
    pub fn open(dir: Option<&Path>) -> MemoryFactsStore {
        Self::open_budgeted(dir, 0)
    }

    /// [`open`](Self::open) with an LRU byte budget: whenever resident
    /// bytes (entries' encoded JSON lengths and memo estimates) exceed
    /// `budget`, program slots and then least-recently-used entries are
    /// evicted (dirty ones demoted to disk first) until the store is
    /// back under. `0` means unbounded.
    pub fn open_budgeted(dir: Option<&Path>, budget: u64) -> MemoryFactsStore {
        MemoryFactsStore {
            entries: RwLock::new(HashMap::new()),
            programs: Mutex::new(HashMap::new()),
            disk: dir.map(FactsCache::open),
            bytes: AtomicU64::new(0),
            memo_bytes: AtomicU64::new(0),
            budget,
            clock: AtomicU64::new(0),
            evicted_entries: AtomicU64::new(0),
            evicted_bytes: AtomicU64::new(0),
        }
    }

    /// The configured byte budget (`0` = unbounded).
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Next logical-clock stamp for an entry use.
    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Evicts until resident bytes are within budget: program slots
    /// first, least recently used first, then entries the same way,
    /// never evicting `keep` (the entry whose insertion triggered the
    /// sweep — evicting it would thrash the very request being served).
    /// Dirty victims are demoted to the disk backing (best effort) so
    /// warm-start data survives the pressure. Callers hold the `entries`
    /// write lock.
    fn enforce_budget(&self, map: &mut HashMap<u64, Entry>, keep: u64) {
        if self.budget == 0 || self.bytes.load(Ordering::Relaxed) <= self.budget {
            return;
        }
        let mut released = self.shed_programs(None);
        let mut evicted = 0u64;
        while self.bytes.load(Ordering::Relaxed) > self.budget && map.len() > 1 {
            let victim = map
                .iter()
                .filter(|(h, _)| **h != keep)
                .min_by_key(|(_, e)| e.last_use.load(Ordering::Relaxed))
                .map(|(h, _)| *h);
            let Some(h) = victim else { break };
            let Some(e) = map.remove(&h) else { break };
            if e.dirty {
                if let Some(d) = &self.disk {
                    let _ = d.store_raw(h, &e.facts.to_json());
                }
            }
            released += self.release(&e);
            evicted += 1;
        }
        if evicted > 0 {
            self.evicted_entries.fetch_add(evicted, Ordering::Relaxed);
            adsafe_trace::counter("store.evictions").add(evicted);
        }
        if released > 0 {
            self.evicted_bytes.fetch_add(released, Ordering::Relaxed);
            adsafe_trace::counter("store.evicted_bytes").add(released);
        }
    }

    /// Evicts program slots other than `keep`, least recently used
    /// first, while resident bytes exceed the budget; returns the bytes
    /// released.
    fn shed_programs(&self, keep: Option<u64>) -> u64 {
        let mut programs = self.programs.lock().expect("facts store poisoned");
        let mut released = 0;
        while self.bytes.load(Ordering::Relaxed) > self.budget {
            let victim = programs
                .iter()
                .filter(|(k, _)| Some(**k) != keep)
                .min_by_key(|(_, slot)| slot.last_use)
                .map(|(k, _)| *k);
            let Some(slot) = victim.and_then(|k| programs.remove(&k)) else {
                break;
            };
            self.uncharge(slot.size, slot.size);
            released += slot.size;
        }
        released
    }

    /// Uncharges an entry that left the map, memo included; returns its
    /// bytes.
    fn release(&self, e: &Entry) -> u64 {
        let memo = e.memo.as_ref().map_or(0, |m| m.size);
        self.uncharge(e.size + memo, memo);
        e.size + memo
    }

    /// Takes `bytes` off the total, `memo` of them off the memos' share.
    fn uncharge(&self, bytes: u64, memo: u64) {
        self.bytes.fetch_sub(bytes, Ordering::Relaxed);
        self.memo_bytes.fetch_sub(memo, Ordering::Relaxed);
    }

    /// Adds `bytes` to the total, `memo` of them to the memos' share.
    fn charge(&self, bytes: u64, memo: u64) {
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.memo_bytes.fetch_add(memo, Ordering::Relaxed);
    }

    /// Drains the eviction tally accumulated since the last call into
    /// a non-degrading Info [`Fault`], or `None` when nothing was
    /// evicted. The daemon routes this to its observability surfaces
    /// (`/healthz`, the fault gauge) — deliberately *not* into the
    /// assessment report, whose bytes must depend only on the assessed
    /// corpus.
    pub fn take_eviction_fault(&self) -> Option<Fault> {
        let entries = self.evicted_entries.swap(0, Ordering::Relaxed);
        let bytes = self.evicted_bytes.swap(0, Ordering::Relaxed);
        if entries == 0 {
            return None;
        }
        Some(Fault {
            phase: FaultPhase::Ingest,
            path: "facts-store".to_string(),
            severity: FaultSeverity::Info,
            cause: FaultCause::StoreEvicted {
                entries: entries as usize,
                bytes,
            },
            recovery: Recovery::Noted,
            run_id: String::new(),
        })
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.entries.read().expect("facts store poisoned").len()
    }

    /// Total resident size: the entries' encoded JSON lengths, each
    /// measured once at insert, plus the memos' heap estimates.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// The memos' share of [`bytes`](Self::bytes).
    pub fn memo_bytes(&self) -> u64 {
        self.memo_bytes.load(Ordering::Relaxed)
    }

    /// Re-points the size gauges at the current entry count and byte
    /// totals. Callers hold the write lock, so the set is coherent.
    fn set_gauges(&self, entries: usize) {
        let memo = self.memo_bytes.load(Ordering::Relaxed);
        adsafe_trace::gauge("store.entries").set(entries as u64);
        adsafe_trace::gauge("store.facts.entries").set(entries as u64);
        adsafe_trace::gauge("store.facts.bytes").set(self.bytes.load(Ordering::Relaxed) - memo);
        adsafe_trace::gauge("store.memo.bytes").set(memo);
    }

    /// Inserts `facts` for `hash` (displacing any previous entry),
    /// charges its encoded size — measured before the write lock is
    /// taken — and sweeps the budget.
    fn insert(&self, hash: u64, path: &str, facts: Arc<FileFacts>, dirty: bool) {
        let size = facts.to_json().len() as u64;
        let mut map = self.entries.write().expect("facts store poisoned");
        let entry = Entry {
            path: path.to_string(),
            facts,
            size,
            dirty,
            last_use: AtomicU64::new(self.tick()),
            memo: None,
        };
        if let Some(old) = map.insert(hash, entry) {
            self.release(&old);
        }
        self.charge(size, 0);
        self.enforce_budget(&mut map, hash);
        self.set_gauges(map.len());
    }

    /// The user-pack findings memoised on the entry for `hash`, if they
    /// were made by the pack `pack` under `module`.
    pub(crate) fn file_memo(
        &self,
        hash: u64,
        pack: u64,
        module: &str,
    ) -> Option<Arc<Vec<Diagnostic>>> {
        let map = self.entries.read().expect("facts store poisoned");
        let hit = map
            .get(&hash)
            .and_then(|e| e.memo.as_ref())
            .filter(|m| m.pack == pack && m.module == module)
            .map(|m| Arc::clone(&m.diags));
        let outcome = if hit.is_some() { "hits" } else { "misses" };
        adsafe_trace::counter(&format!("store.memo.file.{outcome}")).incr();
        hit
    }

    /// Memoises `diags`, the findings of the pack `pack` under `module`,
    /// on the entry for `hash`, displacing any earlier memo; a no-op
    /// when no entry is resident.
    pub(crate) fn store_file_memo(
        &self,
        hash: u64,
        pack: u64,
        module: &str,
        diags: Arc<Vec<Diagnostic>>,
    ) {
        let size = diags_size(&diags) + module.len() as u64;
        let mut map = self.entries.write().expect("facts store poisoned");
        let Some(e) = map.get_mut(&hash) else { return };
        let memo = FileMemo {
            pack,
            module: module.to_string(),
            diags,
            size,
        };
        if let Some(old) = e.memo.replace(memo) {
            self.uncharge(old.size, old.size);
        }
        self.charge(size, size);
        self.enforce_budget(&mut map, hash);
        self.set_gauges(map.len());
    }

    /// The program slot of the file set `set`, if it was made from the
    /// same files (`digest`) by the pack `pack`.
    pub(crate) fn program_memo(
        &self,
        set: u64,
        digest: u64,
        pack: u64,
    ) -> Option<Arc<ProgramMemo>> {
        let mut programs = self.programs.lock().expect("facts store poisoned");
        let hit = programs
            .get_mut(&set)
            .filter(|s| s.digest == digest && s.pack == pack)
            .map(|s| {
                s.last_use = self.tick();
                Arc::clone(&s.memo)
            });
        let outcome = if hit.is_some() { "hits" } else { "misses" };
        adsafe_trace::counter(&format!("store.memo.program.{outcome}")).incr();
        hit
    }

    /// Keeps `memo` as the program slot of the file set `set`, made
    /// from the files `digest` by the pack `pack`, displacing the set's
    /// earlier slot. Under budget pressure a slot displaces only other
    /// slots, never facts; one that still does not fit is not kept.
    pub(crate) fn store_program_memo(&self, set: u64, digest: u64, pack: u64, memo: ProgramMemo) {
        let size = memo.size();
        let map = self.entries.write().expect("facts store poisoned");
        let slot = ProgramSlot {
            digest,
            pack,
            memo: Arc::new(memo),
            size,
            last_use: self.tick(),
        };
        {
            let mut programs = self.programs.lock().expect("facts store poisoned");
            if let Some(old) = programs.insert(set, slot) {
                self.uncharge(old.size, old.size);
            }
        }
        self.charge(size, size);
        if self.budget > 0 {
            let released = self.shed_programs(Some(set));
            if self.bytes.load(Ordering::Relaxed) > self.budget {
                let mut programs = self.programs.lock().expect("facts store poisoned");
                if programs.remove(&set).is_some() {
                    self.uncharge(size, size);
                }
            }
            if released > 0 {
                self.evicted_bytes.fetch_add(released, Ordering::Relaxed);
                adsafe_trace::counter("store.evicted_bytes").add(released);
            }
        }
        self.set_gauges(map.len());
    }

    /// Drops every program slot. Callers hold the `entries` write lock.
    fn drop_programs(&self) {
        let mut programs = self.programs.lock().expect("facts store poisoned");
        for (_, slot) in programs.drain() {
            self.uncharge(slot.size, slot.size);
        }
    }

    /// Whether no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops the resident (and backing disk) entries for every path in
    /// `paths`, with their memos, and every program slot; returns how
    /// many resident entries were dropped.
    pub fn invalidate_paths(&self, paths: &[String]) -> usize {
        let mut map = self.entries.write().expect("facts store poisoned");
        let victims: Vec<u64> = map
            .iter()
            .filter(|(_, e)| paths.contains(&e.path))
            .map(|(h, _)| *h)
            .collect();
        self.drop_programs();
        for h in &victims {
            if let Some(e) = map.remove(h) {
                self.release(&e);
            }
            if let Some(d) = &self.disk {
                d.evict(*h);
            }
        }
        adsafe_trace::counter("store.invalidated").add(victims.len() as u64);
        self.set_gauges(map.len());
        victims.len()
    }

    /// Drops every resident entry and memo and evicts each entry's
    /// backing disk entry; returns how many resident entries were
    /// dropped.
    pub fn invalidate_all(&self) -> usize {
        let mut map = self.entries.write().expect("facts store poisoned");
        let n = map.len();
        self.drop_programs();
        for (h, _) in map.drain() {
            if let Some(d) = &self.disk {
                d.evict(h);
            }
        }
        self.bytes.store(0, Ordering::Relaxed);
        self.memo_bytes.store(0, Ordering::Relaxed);
        adsafe_trace::counter("store.invalidated").add(n as u64);
        self.set_gauges(0);
        n
    }

    /// Writes every dirty entry back to the backing disk cache (no-op
    /// when memory-only); returns how many entries were written. The
    /// server calls this while draining on graceful shutdown.
    pub fn flush(&self) -> usize {
        let Some(disk) = &self.disk else { return 0 };
        let mut map = self.entries.write().expect("facts store poisoned");
        let mut written = 0;
        for (hash, entry) in map.iter_mut() {
            if entry.dirty && disk.store_raw(*hash, &entry.facts.to_json()) {
                entry.dirty = false;
                written += 1;
            }
        }
        written
    }
}

impl FactsStore for MemoryFactsStore {
    /// [`load_at`](FactsStore::load_at) with no path: an entry it
    /// promotes from disk is not found by path invalidation.
    fn load(&self, hash: u64, file: FileId) -> CacheLookup {
        self.load_at(hash, file, "")
    }

    fn load_at(&self, hash: u64, file: FileId, path: &str) -> CacheLookup {
        {
            let map = self.entries.read().expect("facts store poisoned");
            if let Some(e) = map.get(&hash) {
                // Refresh recency under the read lock: a hit must not
                // leave the entry looking LRU-stale.
                e.last_use.store(self.tick(), Ordering::Relaxed);
                adsafe_trace::counter("cache.hits").incr();
                adsafe_trace::counter("store.memory_hits").incr();
                return CacheLookup::Hit(Arc::clone(&e.facts));
            }
        }
        match &self.disk {
            // The disk cache emits its own hit/miss/corrupt counters.
            Some(disk) => match disk.load(hash, file) {
                CacheLookup::Hit(facts) => {
                    self.insert(hash, path, Arc::clone(&facts), false);
                    CacheLookup::Hit(facts)
                }
                other => other,
            },
            None => {
                adsafe_trace::counter("cache.misses").incr();
                CacheLookup::Miss
            }
        }
    }

    fn store_entry(&self, hash: u64, path: &str, facts: &FileFacts) {
        self.store_shared(hash, path, Arc::new(facts.clone()));
    }

    fn store_shared(&self, hash: u64, path: &str, facts: Arc<FileFacts>) {
        self.insert(hash, path, facts, true);
        adsafe_trace::counter("cache.stores").incr();
    }

    fn disabled_detail(&self) -> Option<String> {
        self.disk.as_ref().and_then(FactsStore::disabled_detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::content_hash;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!(
            "adsafe-store-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn memory_round_trip_and_invalidate() {
        let store = MemoryFactsStore::open(None);
        let facts = FileFacts {
            recovery_count: 3,
            ..FileFacts::default()
        };
        let h = content_hash("m/a.cc", "text");
        store.store_entry(h, "m/a.cc", &facts);
        assert_eq!(store.len(), 1);
        match store.load(h, FileId(7)) {
            CacheLookup::Hit(f) => assert_eq!(*f, facts),
            other => panic!("expected hit, got {other:?}"),
        }
        assert!(matches!(store.load(h ^ 1, FileId(0)), CacheLookup::Miss));
        assert_eq!(store.invalidate_paths(&["m/other.cc".to_string()]), 0);
        assert_eq!(store.invalidate_paths(&["m/a.cc".to_string()]), 1);
        assert!(store.is_empty());
        assert!(matches!(store.load(h, FileId(0)), CacheLookup::Miss));
    }

    #[test]
    fn resident_hits_share_one_record() {
        let store = MemoryFactsStore::open(None);
        let h = content_hash("m/a.cc", "text");
        store.store_entry(
            h,
            "m/a.cc",
            &FileFacts {
                recovery_count: 1,
                ..FileFacts::default()
            },
        );
        let load = |file| match store.load(h, file) {
            CacheLookup::Hit(f) => f,
            other => panic!("expected hit, got {other:?}"),
        };
        // A hit is a refcount bump: no copy, no decode, whatever the
        // caller's FileId.
        assert!(Arc::ptr_eq(&load(FileId(0)), &load(FileId(5))));
        let shared = Arc::new(FileFacts::default());
        store.store_shared(h, "m/a.cc", Arc::clone(&shared));
        assert!(
            Arc::ptr_eq(&load(FileId(1)), &shared),
            "a shared store keeps the caller's Arc"
        );
    }

    #[test]
    fn byte_accounting_tracks_inserts_and_drops() {
        let store = MemoryFactsStore::open(None);
        assert_eq!(store.bytes(), 0);
        let a = FileFacts {
            recovery_count: 1,
            ..FileFacts::default()
        };
        let b = FileFacts {
            recovery_count: 22,
            ..FileFacts::default()
        };
        let h = content_hash("m/a.cc", "x");
        store.store_entry(h, "m/a.cc", &a);
        assert_eq!(store.bytes(), a.to_json().len() as u64);
        // Replacing an entry charges the delta, not the sum.
        store.store_entry(h, "m/a.cc", &b);
        assert_eq!(store.bytes(), b.to_json().len() as u64);
        let h2 = content_hash("m/b.cc", "y");
        store.store_entry(h2, "m/b.cc", &a);
        assert_eq!(
            store.bytes(),
            (a.to_json().len() + b.to_json().len()) as u64
        );
        store.invalidate_paths(&["m/a.cc".to_string()]);
        assert_eq!(store.bytes(), a.to_json().len() as u64);
        store.invalidate_all();
        assert_eq!(store.bytes(), 0);
    }

    #[test]
    fn flush_writes_back_and_disk_promotes() {
        let dir = temp_dir("flush");
        let facts = FileFacts::default();
        let h = content_hash("m/b.cc", "text");
        {
            let store = MemoryFactsStore::open(Some(&dir));
            store.store_entry(h, "m/b.cc", &facts);
            // Lazy write-back: nothing on disk until flush.
            assert!(matches!(
                FactsCache::open(&dir).load(h, FileId(0)),
                CacheLookup::Miss
            ));
            assert_eq!(store.flush(), 1);
            assert_eq!(store.flush(), 0, "clean entries are not rewritten");
        }
        // A fresh store (fresh process) promotes the disk entry, under
        // the path it was looked up by.
        let store2 = MemoryFactsStore::open(Some(&dir));
        assert!(matches!(
            store2.load_at(h, FileId(2), "m/b.cc"),
            CacheLookup::Hit(_)
        ));
        assert_eq!(store2.len(), 1, "disk hit was promoted into memory");
        assert_eq!(store2.invalidate_paths(&["m/b.cc".to_string()]), 1);
        assert!(
            matches!(store2.load(h, FileId(2)), CacheLookup::Miss),
            "the disk entry goes with the promoted one"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalidate_evicts_the_disk_entry_too() {
        let dir = temp_dir("evict");
        let store = MemoryFactsStore::open(Some(&dir));
        let h = content_hash("m/c.cc", "text");
        store.store_entry(h, "m/c.cc", &FileFacts::default());
        store.flush();
        assert_eq!(store.invalidate_paths(&["m/c.cc".to_string()]), 1);
        assert!(
            matches!(store.load(h, FileId(0)), CacheLookup::Miss),
            "neither memory nor disk may resurrect an invalidated path"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_budget_evicts_least_recently_used_first() {
        let facts = FileFacts {
            recovery_count: 9,
            ..FileFacts::default()
        };
        let entry_len = facts.to_json().len() as u64;
        // Room for exactly two entries.
        let store = MemoryFactsStore::open_budgeted(None, 2 * entry_len);
        let (ha, hb, hc) = (
            content_hash("m/a.cc", "a"),
            content_hash("m/b.cc", "b"),
            content_hash("m/c.cc", "c"),
        );
        store.store_entry(ha, "m/a.cc", &facts);
        store.store_entry(hb, "m/b.cc", &facts);
        assert_eq!(store.bytes(), 2 * entry_len);
        assert!(
            store.take_eviction_fault().is_none(),
            "within budget: no eviction"
        );
        // Touch `a` so `b` is the LRU entry when `c` forces a sweep.
        assert!(matches!(store.load(ha, FileId(0)), CacheLookup::Hit(_)));
        store.store_entry(hc, "m/c.cc", &facts);
        assert!(
            store.bytes() <= store.budget(),
            "sweep must restore the watermark"
        );
        assert!(
            matches!(store.load(hb, FileId(0)), CacheLookup::Miss),
            "LRU entry evicted"
        );
        assert!(
            matches!(store.load(ha, FileId(0)), CacheLookup::Hit(_)),
            "recently used survives"
        );
        assert!(
            matches!(store.load(hc, FileId(0)), CacheLookup::Hit(_)),
            "newest never evicted"
        );
        let fault = store.take_eviction_fault().expect("eviction recorded");
        assert_eq!(fault.severity, FaultSeverity::Info);
        assert_eq!(fault.recovery, Recovery::Noted);
        assert!(matches!(
            fault.cause,
            FaultCause::StoreEvicted { entries: 1, .. }
        ));
        assert!(
            store.take_eviction_fault().is_none(),
            "tally drains on take"
        );
    }

    #[test]
    fn evicted_dirty_entries_demote_to_the_disk_backing() {
        let dir = temp_dir("demote");
        let facts = FileFacts {
            recovery_count: 4,
            ..FileFacts::default()
        };
        let entry_len = facts.to_json().len() as u64;
        let store = MemoryFactsStore::open_budgeted(Some(&dir), entry_len);
        let (ha, hb) = (content_hash("m/a.cc", "a"), content_hash("m/b.cc", "b"));
        store.store_entry(ha, "m/a.cc", &facts);
        store.store_entry(hb, "m/b.cc", &facts); // evicts dirty `a`
        assert!(store.bytes() <= entry_len);
        // The demoted entry is gone from memory but survives on disk:
        // loading it promotes it back instead of a cold miss.
        assert!(matches!(store.load(ha, FileId(1)), CacheLookup::Hit(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_single_oversized_entry_is_kept() {
        let facts = FileFacts {
            recovery_count: 7,
            ..FileFacts::default()
        };
        let store = MemoryFactsStore::open_budgeted(None, 1);
        let h = content_hash("m/big.cc", "x");
        store.store_entry(h, "m/big.cc", &facts);
        // Evicting the only entry would thrash the request being
        // served; the budget is enforced as soon as a second arrives.
        assert!(matches!(store.load(h, FileId(0)), CacheLookup::Hit(_)));
    }

    fn finding(message: &str) -> Diagnostic {
        let span = adsafe_lang::Span::new(FileId(0), 0, 1);
        Diagnostic::new("team-rule", adsafe_checkers::Severity::Info, span, message)
    }

    #[test]
    fn file_memos_key_by_pack_and_module_and_go_with_their_entry() {
        let store = MemoryFactsStore::open(None);
        let h = content_hash("m/a.cc", "text");
        let diags = Arc::new(vec![finding("one")]);
        store.store_file_memo(h, 1, "m", Arc::clone(&diags));
        assert_eq!(store.memo_bytes(), 0, "no entry, no memo");
        store.store_entry(h, "m/a.cc", &FileFacts::default());
        let facts_bytes = store.bytes();
        store.store_file_memo(h, 1, "m", Arc::clone(&diags));
        assert!(store.memo_bytes() > 0);
        assert_eq!(store.bytes(), facts_bytes + store.memo_bytes());
        assert!(Arc::ptr_eq(
            &store.file_memo(h, 1, "m").expect("hit"),
            &diags
        ));
        assert!(store.file_memo(h, 2, "m").is_none(), "another pack");
        assert!(store.file_memo(h, 1, "n").is_none(), "another module");
        // A memo for another pack displaces the first.
        store.store_file_memo(h, 2, "m", Arc::new(vec![finding("two"), finding("three")]));
        assert!(store.file_memo(h, 1, "m").is_none());
        assert_eq!(store.file_memo(h, 2, "m").expect("hit").len(), 2);
        assert_eq!(store.invalidate_paths(&["m/a.cc".to_string()]), 1);
        assert_eq!((store.bytes(), store.memo_bytes()), (0, 0));
    }

    #[test]
    fn program_slots_key_by_file_set_and_drop_on_invalidation() {
        let store = MemoryFactsStore::open(None);
        let memo = ProgramMemo {
            diags: vec![finding("g")],
            ..ProgramMemo::default()
        };
        store.store_program_memo(7, 70, 1, memo.clone());
        store.store_program_memo(8, 80, 1, memo.clone());
        assert_eq!(store.bytes(), store.memo_bytes());
        assert_eq!(store.program_memo(7, 70, 1).expect("hit").diags, memo.diags);
        assert!(store.program_memo(7, 71, 1).is_none(), "another digest");
        assert!(store.program_memo(7, 70, 2).is_none(), "another pack");
        assert!(
            store.program_memo(8, 80, 1).is_some(),
            "each file set keeps its slot"
        );
        // A new digest replaces the set's slot and its bytes.
        let before = store.memo_bytes();
        store.store_program_memo(7, 71, 1, memo.clone());
        assert_eq!(store.memo_bytes(), before);
        assert!(store.program_memo(7, 70, 1).is_none());
        assert_eq!(store.invalidate_paths(&[]), 0);
        assert!(
            store.program_memo(7, 71, 1).is_none(),
            "invalidation drops every slot"
        );
        assert_eq!(store.memo_bytes(), 0);
    }

    #[test]
    fn budget_pressure_sheds_program_slots_before_facts() {
        let facts = FileFacts {
            recovery_count: 9,
            ..FileFacts::default()
        };
        let entry_len = facts.to_json().len() as u64;
        let memo = ProgramMemo {
            diags: vec![finding("g")],
            ..ProgramMemo::default()
        };
        let slot_len = memo.size();
        let store = MemoryFactsStore::open_budgeted(None, 2 * entry_len + slot_len);
        let (ha, hb, hc) = (
            content_hash("m/a.cc", "a"),
            content_hash("m/b.cc", "b"),
            content_hash("m/c.cc", "c"),
        );
        store.store_entry(ha, "m/a.cc", &facts);
        store.store_entry(hb, "m/b.cc", &facts);
        store.store_program_memo(1, 10, 0, memo.clone());
        assert!(store.program_memo(1, 10, 0).is_some(), "fits exactly");
        // A second slot displaces the older one, never facts.
        store.store_program_memo(2, 20, 0, memo.clone());
        assert!(store.program_memo(1, 10, 0).is_none());
        assert!(store.program_memo(2, 20, 0).is_some());
        assert!(store.bytes() <= store.budget());
        assert_eq!(store.len(), 2);
        // A slot that does not fit even alone is not kept.
        let big = ProgramMemo {
            diags: vec![finding(&"x".repeat(4096))],
            ..ProgramMemo::default()
        };
        store.store_program_memo(3, 30, 0, big);
        assert!(store.program_memo(3, 30, 0).is_none());
        assert_eq!(store.len(), 2);
        // New facts shed the slots before any entry.
        store.store_program_memo(2, 20, 0, memo.clone());
        store.store_entry(hc, "m/c.cc", &facts);
        assert!(store.program_memo(2, 20, 0).is_none());
        assert_eq!(store.memo_bytes(), 0);
        assert_eq!(
            store.len(),
            3,
            "{} bytes of {}",
            store.bytes(),
            store.budget()
        );
    }

    #[test]
    fn disabled_backing_dir_is_surfaced() {
        let path = temp_dir("disabled");
        std::fs::write(&path, "not a directory").unwrap();
        let store = MemoryFactsStore::open(Some(&path));
        assert!(store.disabled_detail().is_some());
        // Memory side still works.
        let h = content_hash("m/d.cc", "x");
        store.store_entry(h, "m/d.cc", &FileFacts::default());
        assert!(matches!(store.load(h, FileId(0)), CacheLookup::Hit(_)));
        let _ = std::fs::remove_file(&path);
    }
}
