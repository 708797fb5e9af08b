//! The append-only JSONL ledger and its run-ID allocator.
//!
//! One ledger lives in `.adsafe-cache/ledger/runs.jsonl` under the
//! assessed corpus; each assessment appends exactly one line. Run IDs
//! are deterministic — a monotonic sequence number (one past the
//! highest already on disk) plus a content-hash salt over the corpus
//! digest and sequence — so identical corpora on identical histories
//! mint identical IDs, with no wall clock and no randomness anywhere.
//!
//! The reader is total: a torn final line (a crash mid-append) or any
//! other unparseable line is *skipped and reported*, never a panic and
//! never cause to refuse subsequent appends — the ledger keeps
//! accepting history even when one line is lost.
//!
//! Opening reads only the tail: the next sequence number comes from
//! the last [`TAIL_LINES`] lines within the last [`TAIL_BYTES`] of the
//! file, and only the final line is checked for a tear, so a run's
//! ledger cost does not grow with history. [`Ledger::read_all`] (and
//! with it `resolve`, `adsafe history` and `adsafe diff`) still scans
//! every line and reports every torn one.

use crate::record::RunRecord;
use adsafe::content_hash;
use std::fs;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// File name of the ledger inside its directory.
pub const LEDGER_FILE: &str = "runs.jsonl";

/// Subdirectory of the facts-cache directory that holds the ledger.
/// Kept apart from the cache's `*.json` entries so a ruleset-mismatch
/// wipe (which removes only `*.json` in the cache root) never touches
/// run history.
pub const LEDGER_SUBDIR: &str = "ledger";

/// How many trailing lines [`Ledger::open`] scans for the highest
/// sequence number. Appends through one `Ledger` are serialised, but
/// reservations can reach the file out of order (concurrent handlers,
/// a crash between reserve and append); the window only has to cover
/// the reservations in flight at once.
pub const TAIL_LINES: usize = 64;

/// The most bytes [`Ledger::open`] reads from the end of `runs.jsonl`
/// (64 records of about 4 KiB). When the last [`TAIL_LINES`] lines do
/// not fit, the whole lines that do are scanned.
pub const TAIL_BYTES: u64 = 256 * 1024;

/// The writer's line prefix up to the run ID, which precedes `seq`.
const LINE_PREFIX: &[u8] = b"{\"schema\":\"adsafe-ledger/1\",\"run\":\"";

/// A note about one skipped (torn or garbage) ledger line.
#[derive(Debug, Clone, PartialEq)]
pub struct TornLine {
    /// 1-based line number in `runs.jsonl`.
    pub line: usize,
    /// Why the line did not parse.
    pub detail: String,
}

/// An open run ledger: a directory, an append file, and the next
/// sequence number.
#[derive(Debug)]
pub struct Ledger {
    dir: PathBuf,
    next_seq: AtomicU64,
    torn: Option<TornLine>,
    /// Whether [`report_torn_lines`](Self::report_torn_lines) has
    /// handed out `torn`.
    torn_reported: AtomicBool,
    /// Held across an append's trailing-newline check and its write, so
    /// two appends through one `Ledger` cannot both insert a separator.
    append_lock: Mutex<()>,
}

impl Ledger {
    /// Opens (creating if needed) the ledger in `dir`, reading at most
    /// [`TAIL_BYTES`] from the end of the file whatever its length. The
    /// next sequence number is one past the highest `seq` of the last
    /// [`TAIL_LINES`] lines. Only the final line is checked for a tear
    /// (a crash tears only the last append; the next append moves that
    /// line mid-file after it was reported once): if it does not parse
    /// it is collected into [`torn_lines`](Self::torn_lines), under its
    /// absolute line number, for the caller to surface as an Info fault.
    pub fn open(dir: &Path) -> std::io::Result<Ledger> {
        fs::create_dir_all(dir)?;
        let (last_seq, torn) = match fs::File::open(dir.join(LEDGER_FILE)) {
            Ok(mut f) => scan_tail(&mut f)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (None, None),
            Err(e) => return Err(e),
        };
        let next_seq = AtomicU64::new(last_seq.map_or(1, |m| m + 1));
        Ok(Ledger {
            dir: dir.to_path_buf(),
            next_seq,
            torn,
            torn_reported: AtomicBool::new(false),
            append_lock: Mutex::new(()),
        })
    }

    /// The conventional ledger directory for a corpus cache directory.
    pub fn dir_for_cache(cache_dir: &Path) -> PathBuf {
        cache_dir.join(LEDGER_SUBDIR)
    }

    /// The directory this ledger lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the JSONL file.
    pub fn file(&self) -> PathBuf {
        self.dir.join(LEDGER_FILE)
    }

    /// The torn final line found while opening, if any. Torn lines
    /// earlier in the file are reported by [`read_all`](Self::read_all).
    pub fn torn_lines(&self) -> &[TornLine] {
        self.torn.as_slice()
    }

    /// [`torn_lines`](Self::torn_lines) for the first caller only. The
    /// run that reports a tear appends after it, which moves the tear
    /// mid-file where the next `open` no longer sees it; a daemon that
    /// keeps this `Ledger` open reports it once as well, not on every
    /// request.
    pub fn report_torn_lines(&self) -> &[TornLine] {
        if self.torn_reported.swap(true, Ordering::SeqCst) {
            &[]
        } else {
            self.torn.as_slice()
        }
    }

    /// Mints the next run ID: `r{seq:06}-{salt:08x}`, where the salt is
    /// the content hash of the corpus digest and the sequence number.
    /// Each call consumes one sequence number.
    pub fn reserve(&self, corpus_digest: &str) -> (String, u64) {
        let seq = self.next_seq.fetch_add(1, Ordering::SeqCst);
        (run_id(seq, corpus_digest), seq)
    }

    /// Appends one record as a single line. The write is a single
    /// `write_all` of `line + "\n"`, so a crash can tear at most the
    /// final line — which the reader skips by design. If the file does
    /// not currently end in a newline (a previous append was torn), a
    /// newline is inserted first so the torn garbage stays confined to
    /// its own line instead of corrupting this record too. Appends
    /// through one `Ledger` are serialised, so concurrent handlers
    /// cannot each insert that newline.
    pub fn append(&self, record: &RunRecord) -> std::io::Result<()> {
        let mut line = record.to_json_line();
        line.push('\n');
        let _held = self.append_lock.lock().unwrap_or_else(|e| e.into_inner());
        let mut f = fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(self.file())?;
        if f.metadata()?.len() > 0 {
            let mut last = [0u8; 1];
            f.seek(SeekFrom::End(-1))?;
            f.read_exact(&mut last)?;
            if last != [b'\n'] {
                line.insert(0, '\n');
            }
        }
        f.write_all(line.as_bytes())
    }

    /// Reads every parseable record (in file order) plus notes for any
    /// lines that were skipped. Total on any file state.
    pub fn read_all(&self) -> (Vec<RunRecord>, Vec<TornLine>) {
        read_lines(&self.file())
    }

    /// Resolves a run reference — a full run ID, a unique run-ID
    /// prefix, or a bare sequence number — against the ledger.
    pub fn resolve(&self, reference: &str) -> Result<RunRecord, String> {
        let (records, _) = self.read_all();
        if let Ok(seq) = reference.parse::<u64>() {
            if let Some(r) = records.iter().find(|r| r.seq == seq) {
                return Ok(r.clone());
            }
        }
        let matches: Vec<&RunRecord> = records
            .iter()
            .filter(|r| r.run.starts_with(reference))
            .collect();
        match matches.len() {
            1 => Ok(matches[0].clone()),
            0 => Err(format!(
                "no run matches `{reference}` in {}",
                self.file().display()
            )),
            n => Err(format!(
                "`{reference}` is ambiguous ({n} runs match); use more digits"
            )),
        }
    }
}

/// Builds the deterministic run ID for a (sequence, corpus digest).
pub fn run_id(seq: u64, corpus_digest: &str) -> String {
    let salt = content_hash(corpus_digest, &seq.to_string()) as u32;
    format!("r{seq:06}-{salt:08x}")
}

/// Folds per-file content hashes (in stable file order) into one
/// 16-hex-digit corpus digest. Order-sensitive on purpose: renaming a
/// file changes the corpus.
pub fn corpus_digest(file_hashes: &[u64]) -> String {
    let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
    for h in file_hashes {
        for b in h.to_le_bytes() {
            acc ^= u64::from(b);
            acc = acc.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{acc:016x}")
}

/// The full scan behind [`Ledger::read_all`]: every line is parsed,
/// and every one that does not parse is reported.
fn read_lines(path: &Path) -> (Vec<RunRecord>, Vec<TornLine>) {
    let Ok(bytes) = fs::read(path) else {
        return (Vec::new(), Vec::new());
    };
    let mut records = Vec::new();
    let mut torn = Vec::new();
    for (i, line) in bytes.split(|&b| b == b'\n').enumerate() {
        if is_blank(line) {
            continue;
        }
        match parse_line(line) {
            Ok(r) => records.push(r),
            Err(detail) => torn.push(TornLine {
                line: i + 1,
                detail,
            }),
        }
    }
    (records, torn)
}

fn is_blank(line: &[u8]) -> bool {
    line.iter().all(u8::is_ascii_whitespace)
}

/// Parses one line (without its `\n`) into a record.
fn parse_line(line: &[u8]) -> Result<RunRecord, String> {
    let line = line.strip_suffix(b"\r").unwrap_or(line);
    let text = std::str::from_utf8(line).map_err(|e| format!("invalid UTF-8: {e}"))?;
    RunRecord::from_json(text)
}

/// A line's `seq` without parsing the record: the writer puts it right
/// after the run ID. A line in another layout is parsed in full; one
/// that does not parse has no sequence number.
fn seq_of(line: &[u8]) -> Option<u64> {
    let fast = line.strip_prefix(LINE_PREFIX).and_then(|rest| {
        let at = rest.windows(8).position(|w| w == b"\",\"seq\":")?;
        let digits = &rest[at + 8..];
        let end = digits.iter().position(|b| !b.is_ascii_digit())?;
        if end == 0 || digits[end] != b',' {
            return None;
        }
        std::str::from_utf8(&digits[..end]).ok()?.parse().ok()
    });
    fast.or_else(|| parse_line(line).ok().map(|r| r.seq))
}

/// Reads the last [`TAIL_BYTES`] of the ledger and returns the highest
/// `seq` over its last [`TAIL_LINES`] whole lines, with the final line
/// validated in full: a final line that does not parse is returned as
/// torn (numbered from the start of the file) and lends no `seq`.
fn scan_tail(f: &mut fs::File) -> std::io::Result<(Option<u64>, Option<TornLine>)> {
    let len = f.metadata()?.len();
    let mut start = len.saturating_sub(TAIL_BYTES);
    let mut window = read_range(f, start, len)?;
    if start > 0 && !window.contains(&b'\n') {
        // The final line alone outgrows the window: read the whole file.
        start = 0;
        window = read_range(f, 0, len)?;
    }
    // A window that starts mid-file starts mid-line: drop that piece.
    let skip = if start == 0 {
        0
    } else {
        window
            .iter()
            .position(|&b| b == b'\n')
            .map_or(window.len(), |i| i + 1)
    };
    let lines: Vec<&[u8]> = window[skip..].split(|&b| b == b'\n').collect();
    let mut tail = lines
        .iter()
        .enumerate()
        .rev()
        .filter(|(_, line)| !is_blank(line));
    let Some((final_index, final_line)) = tail.next() else {
        return Ok((None, None));
    };
    let mut last_seq = tail
        .take(TAIL_LINES - 1)
        .filter_map(|(_, line)| seq_of(line))
        .max();
    let torn = match parse_line(final_line) {
        Ok(r) => {
            last_seq = last_seq.max(Some(r.seq));
            None
        }
        Err(detail) => {
            // Each line before the final one in the window ends in a newline.
            let before = count_newlines(f, start + skip as u64)?;
            Some(TornLine {
                line: before + final_index + 1,
                detail,
            })
        }
    };
    Ok((last_seq, torn))
}

fn read_range(f: &mut fs::File, start: u64, end: u64) -> std::io::Result<Vec<u8>> {
    f.seek(SeekFrom::Start(start))?;
    let mut bytes = Vec::with_capacity((end - start) as usize);
    f.take(end - start).read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// Newlines in the first `end` bytes of the file: the line number a
/// torn final line keeps. Read only when there is a tear to report.
fn count_newlines(f: &mut fs::File, end: u64) -> std::io::Result<usize> {
    Ok(read_range(f, 0, end)?
        .iter()
        .filter(|&&b| b == b'\n')
        .count())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::VerdictRow;

    fn temp_dir(tag: &str) -> PathBuf {
        use std::sync::atomic::AtomicU32;
        static N: AtomicU32 = AtomicU32::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let d = std::env::temp_dir().join(format!(
            "adsafe-ledger-test-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn record(seq: u64, digest: &str) -> RunRecord {
        RunRecord {
            run: run_id(seq, digest),
            seq,
            corpus_root: "corpus".into(),
            corpus_digest: digest.into(),
            files: 1,
            fingerprint: "fp".into(),
            asil: "ASIL-D".into(),
            exit_code: 0,
            degraded: false,
            tier: "full".into(),
            total_us: 10,
            phases: vec![("parse".into(), 5)],
            fault_counts: Vec::new(),
            worst_severity: None,
            cache_hits: 0,
            cache_stores: 1,
            verdicts: vec![VerdictRow {
                table: 1,
                row: 1,
                topic: "t".into(),
                status: "compliant".into(),
                effort: "none".into(),
                blocking: false,
            }],
            observations: vec![(1, false)],
            metrics: vec![("goto_count".into(), 0.0)],
        }
    }

    #[test]
    fn run_ids_are_deterministic_and_distinct() {
        assert_eq!(run_id(1, "d"), run_id(1, "d"));
        assert_ne!(run_id(1, "d"), run_id(2, "d"));
        assert_ne!(run_id(1, "d"), run_id(1, "e"));
        assert!(run_id(7, "d").starts_with("r000007-"));
    }

    #[test]
    fn corpus_digest_is_order_sensitive() {
        assert_eq!(corpus_digest(&[1, 2]), corpus_digest(&[1, 2]));
        assert_ne!(corpus_digest(&[1, 2]), corpus_digest(&[2, 1]));
        assert_eq!(corpus_digest(&[]).len(), 16);
    }

    #[test]
    fn append_and_reopen_continues_the_sequence() {
        let dir = temp_dir("seq");
        let ledger = Ledger::open(&dir).unwrap();
        let (id1, seq1) = ledger.reserve("d");
        assert_eq!(seq1, 1);
        ledger.append(&record(seq1, "d")).unwrap();
        let (_, seq2) = ledger.reserve("d");
        assert_eq!(seq2, 2);
        ledger.append(&record(seq2, "d")).unwrap();
        // A fresh open (fresh process) resumes after the highest seq.
        let reopened = Ledger::open(&dir).unwrap();
        let (records, torn) = reopened.read_all();
        assert_eq!(records.len(), 2);
        assert!(torn.is_empty());
        assert_eq!(reopened.reserve("d").1, 3);
        // Resolution by seq, full id, and unique prefix.
        assert_eq!(reopened.resolve("1").unwrap().run, id1);
        assert_eq!(reopened.resolve(&id1).unwrap().seq, 1);
        assert_eq!(reopened.resolve(&id1[..8]).unwrap().seq, 1);
        assert!(reopened.resolve("r9").is_err());
        assert!(reopened.resolve("r0000").is_err(), "ambiguous prefix");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_is_skipped_not_fatal() {
        let dir = temp_dir("torn");
        let ledger = Ledger::open(&dir).unwrap();
        ledger.append(&record(1, "d")).unwrap();
        // Simulate a crash mid-append: half a record, no newline.
        let half = record(2, "d").to_json_line();
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(ledger.file())
            .unwrap();
        f.write_all(&half.as_bytes()[..half.len() / 2]).unwrap();
        drop(f);
        let reopened = Ledger::open(&dir).unwrap();
        assert_eq!(reopened.torn_lines().len(), 1);
        assert_eq!(reopened.torn_lines()[0].line, 2);
        let (records, torn) = reopened.read_all();
        assert_eq!(records.len(), 1, "the good line survives");
        assert_eq!(torn.len(), 1);
        // The sequence resumes after the last *parseable* record, and a
        // fresh append confines the torn garbage to its own line.
        let (id, seq) = reopened.reserve("d");
        assert_eq!(seq, 2);
        let mut next = record(seq, "d");
        next.run = id;
        reopened.append(&next).unwrap();
        let (records, torn) = reopened.read_all();
        assert_eq!(records.len(), 2, "new record is intact after the tear");
        assert_eq!(torn.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_appends_leave_no_blank_line() {
        use std::sync::{Arc, Barrier};
        let dir = temp_dir("concurrent");
        let ledger = Arc::new(Ledger::open(&dir).unwrap());
        let storm = |base: u64| {
            let start = Arc::new(Barrier::new(8));
            let handles: Vec<_> = (0..8u64)
                .map(|t| {
                    let (ledger, start) = (Arc::clone(&ledger), Arc::clone(&start));
                    std::thread::spawn(move || {
                        start.wait();
                        for i in 0..25 {
                            ledger.append(&record(base + t * 25 + i, "d")).unwrap();
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        };
        let blank_lines = || {
            fs::read_to_string(ledger.file())
                .unwrap()
                .matches("\n\n")
                .count()
        };
        storm(1);
        let (records, torn) = ledger.read_all();
        assert_eq!((records.len(), torn.len(), blank_lines()), (200, 0, 0));
        // After a tear every appender sees a missing newline at once;
        // exactly one of them may insert it.
        let half = record(0, "d").to_json_line();
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(ledger.file())
            .unwrap();
        f.write_all(&half.as_bytes()[..half.len() / 2]).unwrap();
        drop(f);
        storm(201);
        let (records, torn) = ledger.read_all();
        assert_eq!((records.len(), torn.len(), blank_lines()), (400, 1, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    /// Writes `records` as a ledger file in one go.
    fn write_ledger(dir: &Path, records: impl IntoIterator<Item = RunRecord>) -> PathBuf {
        fs::create_dir_all(dir).unwrap();
        let mut text = String::new();
        for r in records {
            text.push_str(&r.to_json_line());
            text.push('\n');
        }
        let file = dir.join(LEDGER_FILE);
        fs::write(&file, text).unwrap();
        file
    }

    #[test]
    fn long_ledger_reopens_one_past_the_highest_seq() {
        let dir = temp_dir("long");
        let file = write_ledger(&dir, (1..=2000).map(|s| record(s, "d")));
        assert!(
            fs::metadata(&file).unwrap().len() > 2 * TAIL_BYTES,
            "longer than the window"
        );
        let ledger = Ledger::open(&dir).unwrap();
        assert!(ledger.torn_lines().is_empty());
        assert_eq!(ledger.reserve("d").1, 2001);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_order_appends_reuse_no_sequence_number() {
        let dir = temp_dir("reverse");
        write_ledger(&dir, (1..=100).map(|s| record(s, "d")));
        let ledger = Ledger::open(&dir).unwrap();
        let reserved: Vec<u64> = (0..8).map(|_| ledger.reserve("d").1).collect();
        assert_eq!(reserved, (101..=108).collect::<Vec<_>>());
        for &seq in reserved.iter().rev() {
            ledger.append(&record(seq, "d")).unwrap();
        }
        let reopened = Ledger::open(&dir).unwrap();
        let next = reopened.reserve("d").1;
        assert!(
            reserved.iter().all(|&s| s < next),
            "{next} reuses one of {reserved:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_before_the_window_is_left_to_read_all() {
        let dir = temp_dir("garbage");
        let file = write_ledger(&dir, (1..=1000).map(|s| record(s, "d")));
        assert!(
            fs::metadata(&file).unwrap().len() > TAIL_BYTES,
            "longer than the window"
        );
        let mut text = fs::read_to_string(&file).unwrap();
        text.insert_str(
            0,
            "not json\n{\"schema\":\"adsafe-ledger/1\",\"run\":\"r0\n",
        );
        fs::write(&file, text).unwrap();
        let ledger = Ledger::open(&dir).unwrap();
        assert!(ledger.torn_lines().is_empty(), "{:?}", ledger.torn_lines());
        assert_eq!(ledger.reserve("d").1, 1001);
        let (records, torn) = ledger.read_all();
        assert_eq!(records.len(), 1000);
        assert_eq!(torn.iter().map(|t| t.line).collect::<Vec<_>>(), [1, 2]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_final_line_keeps_its_line_number_past_the_window() {
        let dir = temp_dir("torn-long");
        let file = write_ledger(&dir, (1..=2000).map(|s| record(s, "d")));
        let half = record(2001, "d").to_json_line();
        let mut f = fs::OpenOptions::new().append(true).open(&file).unwrap();
        f.write_all(&half.as_bytes()[..half.len() / 2]).unwrap();
        drop(f);
        let ledger = Ledger::open(&dir).unwrap();
        assert_eq!(ledger.torn_lines().len(), 1);
        assert_eq!(ledger.torn_lines()[0].line, 2001);
        assert_eq!(ledger.report_torn_lines(), ledger.torn_lines());
        assert!(ledger.report_torn_lines().is_empty(), "reported once");
        assert_eq!(ledger.reserve("d").1, 2001, "the torn line lends no seq");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn seq_is_read_from_the_prefix_or_a_full_parse() {
        let line = record(42, "d").to_json_line();
        assert_eq!(seq_of(line.as_bytes()), Some(42));
        // Another layout of the same record falls back to a full parse.
        let spaced = line.replacen("\"seq\":42", "\"seq\": 42", 1);
        assert_eq!(seq_of(spaced.as_bytes()), Some(42));
        assert_eq!(seq_of(&line.as_bytes()[..30]), None);
        assert_eq!(seq_of(b"garbage"), None);
    }

    #[test]
    fn final_line_longer_than_the_window_is_still_checked() {
        let dir = temp_dir("huge-line");
        let file = write_ledger(&dir, (1..=3).map(|s| record(s, "d")));
        let mut f = fs::OpenOptions::new().append(true).open(&file).unwrap();
        f.write_all(&vec![b'x'; TAIL_BYTES as usize + 10]).unwrap();
        drop(f);
        let ledger = Ledger::open(&dir).unwrap();
        assert_eq!(ledger.torn_lines().len(), 1);
        assert_eq!(ledger.torn_lines()[0].line, 4);
        assert_eq!(ledger.reserve("d").1, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_reads_empty() {
        let dir = temp_dir("empty");
        let ledger = Ledger::open(&dir).unwrap();
        let (records, torn) = ledger.read_all();
        assert!(records.is_empty() && torn.is_empty());
        assert_eq!(ledger.reserve("d").1, 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
