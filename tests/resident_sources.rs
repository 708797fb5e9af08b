//! The daemon's resident sources against a real filesystem and clock:
//! a warm `/assess` reads exactly the files whose stat changed (or that
//! changed too recently for an equal stat to prove anything), and every
//! report equals a fresh in-process assessment of the tree as it is on
//! disk.
//!
//! The read counts come from the process-wide `ingest.files_read` and
//! `ingest.bytes_read` counters on `/metrics`, so this binary holds a
//! single test: nothing else in the process ingests while it runs.

use adsafe::render::deterministic_report_markdown;
use adsafe::Assessment;
use adsafe_serve::fsutil::{collect_sources, module_of, RACY_MARGIN};
use adsafe_serve::http::{self, Response};
use adsafe_serve::{ServeConfig, Server};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream
        .write_all(&http::encode_request(method, path, &[], body.as_bytes()))
        .expect("send request");
    http::read_response(&mut BufReader::new(stream)).expect("read response")
}

/// Value of `counter <name> N` on `/metrics` (0 before the first add).
fn counter(addr: SocketAddr, name: &str) -> u64 {
    let prefix = format!("counter {name} ");
    request(addr, "GET", "/metrics", "")
        .body_text()
        .lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .map_or(0, |v| v.parse().expect("counter value"))
}

/// `adsafe assess --no-cache` of the tree as it is now, rendered the
/// way the daemon renders its body: every file read afresh.
fn fresh_report(root: &Path) -> String {
    let mut files = Vec::new();
    collect_sources(root, &mut files);
    let mut a = Assessment::new();
    for f in &files {
        let bytes = std::fs::read(f).expect("read source");
        a.add_file_bytes(&module_of(root, f), &f.display().to_string(), &bytes);
    }
    deterministic_report_markdown(&a.run())
}

/// Waits until every change made so far lies more than the racy margin
/// before the next scan, so what that scan reads is trusted afterwards.
fn settle() {
    std::thread::sleep(RACY_MARGIN + Duration::from_millis(100));
}

fn len(path: &Path) -> u64 {
    std::fs::metadata(path).unwrap().len()
}

struct Daemon {
    addr: SocketAddr,
    root: PathBuf,
    files: u64,
}

impl Daemon {
    /// One `/assess`: checks the body against a fresh assessment and
    /// returns (files read, bytes read, cache hits, body).
    fn assess(&self) -> (u64, u64, u64, String) {
        let (files0, bytes0) = (
            counter(self.addr, "ingest.files_read"),
            counter(self.addr, "ingest.bytes_read"),
        );
        let body = format!("{{\"dir\":\"{}\"}}", self.root.display());
        let resp = request(self.addr, "POST", "/assess", &body);
        assert_eq!(resp.status, 200, "{}", resp.body_text());
        let hits = resp.header("x-adsafe-cache-hits").unwrap().parse().unwrap();
        let text = resp.body_text();
        assert_eq!(
            text,
            fresh_report(&self.root),
            "report equals a fresh assessment"
        );
        let files = counter(self.addr, "ingest.files_read") - files0;
        let bytes = counter(self.addr, "ingest.bytes_read") - bytes0;
        (files, bytes, hits, text)
    }
}

#[test]
fn a_warm_request_reads_only_what_changed() {
    let root = std::env::temp_dir().join(format!("adsafe-resident-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let sources: [(&str, &[u8]); 5] = [
        (
            "control/pid.cc",
            b"static int s_calls;\nint Step(int err) {\n  return err;\n}\n",
        ),
        ("control/pid.h", b"int Step(int err);\n"),
        (
            "perception/track.cc",
            b"int Update(int d) {\n  if (d < 0) return -1;\n  return d;\n}\n",
        ),
        ("perception/old.cc", b"int Old() { return 1; }\n"),
        ("perception/raw.cc", b"int Raw();\n\xff\xfe\n"),
    ];
    for (rel, text) in sources {
        let path = root.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(path, text).unwrap();
    }
    let total: u64 = sources.iter().map(|(_, t)| t.len() as u64).sum();
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    };
    let server = Server::start(config).expect("bind 127.0.0.1:0");
    let d = Daemon {
        addr: server.addr(),
        root: root.clone(),
        files: sources.len() as u64,
    };
    let pid = root.join("control/pid.cc");
    let track = root.join("perception/track.cc");
    let raw = root.join("perception/raw.cc");
    settle();

    // Cold: every file is read once. Warm: none is, and the lossy
    // file's ingest fault is in both reports alike.
    let (files, bytes, hits, cold) = d.assess();
    assert_eq!((files, bytes, hits), (d.files, total, 0));
    assert!(cold.contains("invalid UTF-8"), "{cold}");
    let (files, bytes, hits, warm) = d.assess();
    assert_eq!(
        (files, bytes, hits),
        (0, 0, d.files),
        "an unchanged tree reads nothing"
    );
    assert_eq!(warm, cold);

    // A touch moves the stat but not the content: one read, all hits.
    std::fs::File::options()
        .write(true)
        .open(&pid)
        .unwrap()
        .set_modified(SystemTime::now())
        .unwrap();
    settle();
    let (files, bytes, hits, _) = d.assess();
    assert_eq!((files, bytes, hits), (1, len(&pid), d.files));

    // A write-then-rename edit reads exactly the new file.
    let tmp = root.join("control/pid.cc.tmp");
    let edit = "int Step(int err) {\n  if (err < 0) { int err = 1; return err; }\n}\n";
    std::fs::write(&tmp, edit).unwrap();
    std::fs::rename(&tmp, &pid).unwrap();
    settle();
    let (files, bytes, hits, edited) = d.assess();
    assert_eq!((files, bytes, hits), (1, len(&pid), d.files - 1));
    assert_ne!(edited, warm, "the edit shows in the report");

    // A same-length rewrite in place right after a request is picked
    // up: the fresh content misses the facts cache. Read that close to
    // its change, the file is racily clean, so the next scan that
    // starts a margin later reads it once more; after that, nothing.
    let before = std::fs::read(&track).unwrap();
    let after = String::from_utf8(before.clone())
        .unwrap()
        .replace("return -1;", "return -2;");
    assert_eq!(after.len(), before.len());
    std::fs::write(&track, &after).unwrap();
    let (files, bytes, hits, _) = d.assess();
    assert_eq!((files, bytes, hits), (1, len(&track), d.files - 1));
    settle();
    let (files, bytes, hits, _) = d.assess();
    assert_eq!(
        (files, bytes, hits),
        (1, len(&track), d.files),
        "racily clean: read again"
    );
    assert_eq!(d.assess().0, 0);

    // A deleted file leaves the report; a new file is read and joins it.
    std::fs::remove_file(root.join("perception/old.cc")).unwrap();
    let new = root.join("perception/new.cc");
    std::fs::write(&new, "int New(int x) { return x + 1; }\n").unwrap();
    settle();
    let (files, bytes, hits, _) = d.assess();
    assert_eq!((files, bytes, hits), (1, len(&new), d.files - 1));

    // /invalidate drops the resident source with the facts: the path is
    // read and analysed again. The lossy file's fault survives it.
    let body = format!("{{\"paths\":[\"{}\"]}}", raw.display());
    assert_eq!(
        request(d.addr, "POST", "/invalidate", &body).body_text(),
        "{\"dropped\":1}"
    );
    let (files, bytes, hits, last) = d.assess();
    assert_eq!((files, bytes, hits), (1, len(&raw), d.files - 1));
    assert!(last.contains("invalid UTF-8"), "{last}");
    assert_eq!(
        request(d.addr, "POST", "/invalidate", "{\"all\":true}").status,
        200
    );
    let (files, _, hits, _) = d.assess();
    assert_eq!(
        (files, hits),
        (d.files, 0),
        "invalidating all reads the whole tree"
    );

    server.stop();
    let _ = std::fs::remove_dir_all(&root);
}
