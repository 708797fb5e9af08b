//! Source ingest shared by the CLI and the daemon: `adsafe assess`,
//! `adsafe rules check` and `POST /assess` all load a tree through
//! [`ingest`], so every front door sees the same file set, module
//! grouping and bytes — and records the same corpus digest.
//!
//! The daemon keeps one [`SourceIndex`] per corpus root across
//! requests: every file's decoded text and content hash, with the stat
//! fields it was read under. A warm request then walks the tree and
//! stats each file; a file whose stat still matches, and whose last
//! change predates the scan that read it by [`RACY_MARGIN`], is handed
//! to the assessment without being read or hashed again. Any other file
//! is read; if its bytes are the ones its resident source was decoded
//! from (a `touch`, or a file changed too recently to trust its stat),
//! that source is kept without a copy or a hash. The CLI ingests
//! through the same code with a fresh index ([`ingest_dir`]).

use adsafe::{Assessment, DecodedSource};
use std::collections::HashMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// File extensions the assessment ingests.
pub const SOURCE_EXTENSIONS: [&str; 8] = ["c", "cc", "cpp", "cxx", "cu", "h", "hpp", "cuh"];

/// Collects every C/C++/CUDA source under `root`, depth-first in
/// sorted directory order — the stable enumeration both determinism
/// gates (CLI vs HTTP byte-identity) rely on. Symlinks are followed.
pub fn collect_sources(root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(root) else {
        return;
    };
    let mut entries: Vec<_> = entries
        .flatten()
        .map(|e| (e.path(), e.file_type()))
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    for (path, kind) in entries {
        // The entry's own type costs no stat; only a symlink needs one
        // to learn what it points at.
        let is_dir = match kind {
            Ok(kind) if !kind.is_symlink() => kind.is_dir(),
            _ => path.is_dir(),
        };
        if is_dir {
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

/// What [`ingest`] found under a corpus root.
#[derive(Debug)]
pub struct Ingested {
    /// Sources [`collect_sources`] found.
    pub found: usize,
    /// Sources that could not be read (the rest were added), in order.
    pub unreadable: Vec<(PathBuf, std::io::Error)>,
    /// Sources read from disk; the rest came from the index.
    pub files_read: usize,
    /// Bytes read from disk.
    pub bytes_read: u64,
}

/// How long before the scan that read a file its last change must lie
/// for a matching stat to prove the file unchanged. A write within the
/// same timestamp tick as the read leaves the stat as it was; the
/// margin covers the coarsest tick of a supported filesystem (2 s on
/// FAT) and the coarse kernel clock file times are taken from. This is
/// git's "racy clean" rule, measured against the scan's start.
pub const RACY_MARGIN: Duration = Duration::from_secs(2);

/// The stat fields a resident source is validated against. A content
/// change moves `len` or `mtime`; `ctime` also moves when a writer
/// restores the old mtime (`touch -d`, `File::set_modified`), which
/// cannot be faked; a write-then-rename moves `ino`; another mount
/// moves `dev`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FileStamp {
    len: u64,
    /// Last modification, nanoseconds since the Unix epoch.
    mtime_ns: i64,
    /// Last status change, nanoseconds since the Unix epoch.
    ctime_ns: i64,
    ino: u64,
    dev: u64,
}

impl FileStamp {
    /// The stamp of `meta`.
    #[cfg(unix)]
    fn of(meta: &std::fs::Metadata) -> FileStamp {
        use std::os::unix::fs::MetadataExt;
        let ns = |s: i64, n: i64| s.saturating_mul(1_000_000_000).saturating_add(n);
        FileStamp {
            len: meta.len(),
            mtime_ns: ns(meta.mtime(), meta.mtime_nsec()),
            ctime_ns: ns(meta.ctime(), meta.ctime_nsec()),
            ino: meta.ino(),
            dev: meta.dev(),
        }
    }

    /// The stamp of `meta`: length and modification time only, so
    /// every file's last change counts as its mtime.
    #[cfg(not(unix))]
    fn of(meta: &std::fs::Metadata) -> FileStamp {
        let mtime_ns = meta.modified().map_or(i64::MAX, epoch_ns);
        FileStamp {
            len: meta.len(),
            mtime_ns,
            ctime_ns: mtime_ns,
            ino: 0,
            dev: 0,
        }
    }

    /// Whether a file that stats as `now` may reuse a source recorded
    /// under this stamp by a scan that started at `scan_ns`: the stamp
    /// is unchanged, and the file's last change came at least
    /// [`RACY_MARGIN`] before that scan began.
    fn still_proves(&self, scan_ns: i64, now: &FileStamp) -> bool {
        let changed_ns = self.mtime_ns.max(self.ctime_ns);
        self == now && changed_ns.saturating_add(RACY_MARGIN.as_nanos() as i64) < scan_ns
    }
}

/// `t` in nanoseconds since the Unix epoch (negative before it).
fn epoch_ns(t: SystemTime) -> i64 {
    match t.duration_since(UNIX_EPOCH) {
        Ok(d) => d.as_nanos().try_into().unwrap_or(i64::MAX),
        Err(e) => -(e.duration().as_nanos().try_into().unwrap_or(i64::MAX)),
    }
}

/// A source as the index holds it: what was read, under which stat,
/// by the scan that started when.
#[derive(Debug)]
struct Resident {
    stamp: FileStamp,
    scan_ns: i64,
    source: DecodedSource,
}

/// The resident sources of one corpus root, by path: what a warm
/// [`ingest`] reuses instead of reading. Holds each file's text, about
/// the size of the tree on disk.
#[derive(Debug, Default)]
pub struct SourceIndex {
    entries: HashMap<PathBuf, Resident>,
    /// Read buffer for files that have a resident source: a re-read
    /// that finds the same bytes keeps that source and allocates
    /// nothing.
    scratch: Vec<u8>,
    /// Total text bytes of the resident sources.
    bytes: u64,
}

impl SourceIndex {
    /// Drops the resident source of `path`, so the next ingest reads
    /// it. Returns whether one was resident.
    pub fn forget(&mut self, path: &Path) -> bool {
        let gone = self.entries.remove(path);
        if let Some(r) = &gone {
            self.bytes -= r.source.text_len() as u64;
        }
        gone.is_some()
    }

    /// Total text bytes of the resident sources.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// Adds every readable source under `root` ([`collect_sources`] order)
/// to `assessment` under its [`module_of`] module, reusing what `index`
/// proves unchanged and reading the rest. A file is read at most once:
/// opened, stat'ed before the read (a write racing the read then shows
/// in the next scan's stat), then — unless the bytes match its resident
/// source — decoded (lossily, with an ingest fault for invalid UTF-8)
/// and hashed. Unreadable files are skipped and reported. Afterwards
/// `index` holds exactly the sources just added. Counts
/// `ingest.files_read` and `ingest.bytes_read`.
pub fn ingest(root: &Path, index: &mut SourceIndex, assessment: &mut Assessment) -> Ingested {
    let scan_ns = epoch_ns(SystemTime::now());
    let mut files = Vec::new();
    collect_sources(root, &mut files);
    let mut ingested = Ingested {
        found: files.len(),
        unreadable: Vec::new(),
        files_read: 0,
        bytes_read: 0,
    };
    let mut previous = std::mem::take(&mut index.entries);
    for f in files {
        let prior = previous.remove(&f);
        let proven = prior.as_ref().is_some_and(|r| {
            std::fs::metadata(&f).is_ok_and(|m| r.stamp.still_proves(r.scan_ns, &FileStamp::of(&m)))
        });
        let resident = match prior {
            Some(r) if proven => r,
            prior => match read_source(&f, scan_ns, prior, &mut index.scratch) {
                Ok((r, read)) => {
                    ingested.files_read += 1;
                    ingested.bytes_read += read;
                    r
                }
                Err(e) => {
                    ingested.unreadable.push((f, e));
                    continue;
                }
            },
        };
        assessment.add_source(&module_of(root, &f), &resident.source);
        index.entries.insert(f, resident);
    }
    index.bytes = index
        .entries
        .values()
        .map(|r| r.source.text_len() as u64)
        .sum();
    adsafe_trace::counter("ingest.files_read").add(ingested.files_read as u64);
    adsafe_trace::counter("ingest.bytes_read").add(ingested.bytes_read);
    ingested
}

/// Reads one source, stamped with the stat taken on the open file
/// before the read, and returns it with the bytes read. Bytes that
/// `prior` (the file's resident source) decoded from keep `prior`'s
/// text and hash; others are decoded and hashed.
fn read_source(
    path: &Path,
    scan_ns: i64,
    prior: Option<Resident>,
    scratch: &mut Vec<u8>,
) -> std::io::Result<(Resident, u64)> {
    let mut file = std::fs::File::open(path)?;
    let stamp = FileStamp::of(&file.metadata()?);
    let decode = |bytes| DecodedSource::decode(&path.display().to_string(), bytes);
    let (source, read) = match prior {
        Some(prior) => {
            scratch.clear();
            file.read_to_end(scratch)?;
            let same = prior.source.decodes_from(scratch);
            (
                if same {
                    prior.source
                } else {
                    decode(scratch.to_vec())
                },
                scratch.len(),
            )
        }
        None => {
            let mut bytes = Vec::with_capacity(stamp.len as usize);
            file.read_to_end(&mut bytes)?;
            let read = bytes.len();
            (decode(bytes), read)
        }
    };
    Ok((
        Resident {
            stamp,
            scan_ns,
            source,
        },
        read as u64,
    ))
}

/// [`ingest`] with a fresh index: reads every source. The CLI's path.
pub fn ingest_dir(root: &Path, assessment: &mut Assessment) -> Ingested {
    ingest(root, &mut SourceIndex::default(), assessment)
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
        assert_eq!(
            module_of(root, Path::new("/corpus/perception/a.cc")),
            "perception"
        );
        assert_eq!(module_of(root, Path::new("/corpus/top.cc")), "root");
        assert_eq!(module_of(Path::new("/x"), Path::new("/y/a.cc")), "root");
    }

    const SEC: i64 = 1_000_000_000;
    /// When the scan that recorded the synthetic stamps started.
    const SCAN: i64 = 1_700_000_000 * SEC;

    /// A stamp whose file last changed at `changed_ns`.
    fn stamp(changed_ns: i64) -> FileStamp {
        FileStamp {
            len: 120,
            mtime_ns: changed_ns,
            ctime_ns: changed_ns,
            ino: 7,
            dev: 3,
        }
    }

    #[test]
    fn an_unchanged_old_stamp_proves_the_file() {
        let old = stamp(SCAN - 60 * SEC);
        assert!(old.still_proves(SCAN, &old));
        let just_out = stamp(SCAN - RACY_MARGIN.as_nanos() as i64 - 1);
        assert!(just_out.still_proves(SCAN, &just_out));
    }

    #[test]
    fn a_change_inside_the_margin_of_the_recording_scan_is_racy() {
        // The file may have been written again in the same timestamp
        // tick after it was read: an equal stat proves nothing.
        for changed in [
            SCAN - RACY_MARGIN.as_nanos() as i64,
            SCAN - SEC,
            SCAN,
            SCAN + SEC,
        ] {
            let racy = stamp(changed);
            assert!(
                !racy.still_proves(SCAN, &racy),
                "changed at scan{:+} ns",
                changed - SCAN
            );
        }
        // ctime alone counts: an mtime set back into the past does not
        // make a fresh write old.
        let set_back = FileStamp {
            mtime_ns: SCAN - 60 * SEC,
            ..stamp(SCAN - SEC)
        };
        assert!(!set_back.still_proves(SCAN, &set_back));
    }

    #[test]
    fn every_stat_field_that_moved_forces_a_read() {
        let old = stamp(SCAN - 60 * SEC);
        let moved = [
            FileStamp { len: 121, ..old },
            FileStamp {
                mtime_ns: old.mtime_ns + 1,
                ..old
            },
            FileStamp {
                ctime_ns: old.ctime_ns + 1,
                ..old
            },
            FileStamp { ino: 8, ..old },
            FileStamp { dev: 4, ..old },
        ];
        for now in moved {
            assert!(!old.still_proves(SCAN, &now), "{now:?}");
        }
    }

    #[test]
    fn ingest_reads_each_source_once_and_tracks_the_tree() {
        let root = std::env::temp_dir().join(format!("adsafe-fsutil-index-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("m")).unwrap();
        std::fs::write(root.join("m/a.cc"), "int a;\n").unwrap();
        std::fs::write(root.join("m/b.cc"), b"int b;\n\xff\n").unwrap();
        let mut index = SourceIndex::default();
        let mut first = Assessment::new();
        let got = ingest(&root, &mut index, &mut first);
        assert_eq!((got.found, got.files_read, got.bytes_read), (2, 2, 7 + 9));
        assert_eq!(index.entries.len(), 2);
        let mut fresh = Assessment::new();
        ingest_dir(&root, &mut fresh);
        assert_eq!(first.content_hashes(), fresh.content_hashes());

        // Files this young are racily clean: read again, same hashes.
        let mut again = Assessment::new();
        let got = ingest(&root, &mut index, &mut again);
        assert_eq!(got.files_read, 2);
        assert_eq!(again.content_hashes(), fresh.content_hashes());

        // A deleted file leaves the index; a forgotten one is read.
        std::fs::remove_file(root.join("m/a.cc")).unwrap();
        assert!(index.forget(&root.join("m/b.cc")));
        let got = ingest(&root, &mut index, &mut Assessment::new());
        assert_eq!((got.found, got.files_read, index.entries.len()), (1, 1, 1));
        let _ = std::fs::remove_dir_all(&root);
    }
}
