//! The three workloads: set-up, the closed operation loop, and the
//! checks each operation's output must pass.
//!
//! - `cold`: `adsafe assess --no-cache` — one caller, `Assessment::run`
//!   plus the deterministic report over the in-memory corpus, jobs 0,
//!   native rules only.
//! - `edit`: `adsafe assess` with a warm on-disk cache — each operation
//!   rewrites one file with a new single-function edit, reads the tree,
//!   re-assesses it and appends to the run ledger.
//! - `serve`: one keep-alive client POSTs `/assess` to an in-process
//!   daemon with its default config and a five-rule query pack; one
//!   request in ten first applies an edit by write-then-rename.
//!
//! Each workload has a single caller, so the host probe taken before
//! every operation runs while the program under test is idle: it times
//! the host, never the program's own load.

use crate::check::Expected;
use crate::client::{assess_body, Client};
use crate::corpus::{self, Editor, Source, WorkDir};
use crate::host::{self, Probe};
use crate::spans::{Recorder, Site};
use crate::stats;
use adsafe::render::deterministic_report_markdown;
use adsafe::{Assessment, AssessmentOptions, AssessmentReport};
use adsafe_ledger::{corpus_digest, Ledger, RunRecord};
use adsafe_serve::{ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Cold,
    Edit,
    Serve,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Cold, Kind::Edit, Kind::Serve];

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::Cold => "cold",
            Kind::Edit => "edit",
            Kind::Serve => "serve",
        }
    }

    /// The latency limit an operation must meet to count toward
    /// `slo_ratio`.
    pub fn slo_ms(self) -> f64 {
        match self {
            Kind::Cold => 1500.0,
            Kind::Edit => 500.0,
            Kind::Serve => 1500.0,
        }
    }
}

/// The outcome of one timed operation.
pub struct Sample {
    pub ms: f64,
    /// The host probe taken just before it.
    pub probe_ms: f64,
    pub result: Result<(), String>,
}

/// Every operation of one closed-loop run, in completion order.
pub struct OpLog {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
}

impl OpLog {
    /// The run's host-speed scale: the reference probe time over the
    /// run's median probe. A host slowdown stretches the operations and
    /// the probes alike and cancels out of a scaled timing; a change to
    /// the program moves only the operations.
    pub fn host_scale(&self) -> f64 {
        let probes: Vec<f64> = self.samples.iter().map(|s| s.probe_ms).collect();
        host::REFERENCE_PROBE_MS / stats::median(&probes)
    }

    /// Operation latencies in ms, scaled to the reference host speed.
    pub fn scaled_ms(&self) -> Vec<f64> {
        let scale = self.host_scale();
        self.samples.iter().map(|s| s.ms * scale).collect()
    }
}

/// A workload after set-up, ready for timed operations.
pub enum Prepared {
    Cold(Cold),
    Edit(Edit),
    Serve(Serve),
}

pub struct Cold {
    assessment: Assessment,
    expected: Expected,
    reference: String,
}

pub struct Edit {
    _dir: WorkDir,
    root: PathBuf,
    editor: Editor,
    expected: Expected,
    reference: String,
    next_edit: AtomicU64,
}

pub struct Serve {
    // Field order is drop order: the daemon stops before its corpus
    // directory is removed.
    server: Server,
    _dir: WorkDir,
    root: PathBuf,
    pack: PathBuf,
    seed: u64,
    editor: Editor,
    expected: Expected,
    reference: Vec<u8>,
}

/// The daemon configuration the benchmark runs: the shipped defaults
/// with an OS-assigned port and a query pack.
fn serve_config(pack: &Path) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        rules: Some(pack.to_path_buf()),
        ..ServeConfig::default()
    }
}

/// Sets up `kind` over the corpus for `seed`: generate it, write it out
/// where the workload reads from disk, and warm the cache or daemon.
/// The reference output every operation is compared against comes from
/// the warm-up.
pub fn prepare(kind: Kind, seed: u64, round: usize) -> Result<Prepared, String> {
    let spec = corpus::spec(seed);
    let expected = Expected::from_spec(&spec);
    let files = adsafe::corpus::generate(&spec);
    match kind {
        Kind::Cold => {
            let mut assessment = Assessment::new().with_options(AssessmentOptions {
                jobs: 0,
                ..AssessmentOptions::default()
            });
            for f in &files {
                assessment.add_file(&f.module, &f.path, &f.text);
            }
            let report = assessment.run();
            expected
                .verify(&report)
                .map_err(|e| format!("cold warm-up: {e}"))?;
            let reference = deterministic_report_markdown(&report);
            Ok(Prepared::Cold(Cold {
                assessment,
                expected,
                reference,
            }))
        }
        Kind::Edit => {
            let dir = WorkDir::create(&format!("edit-{round}")).map_err(io("work dir"))?;
            let root = dir.path().join("corpus");
            corpus::write_tree(&root, &files).map_err(io("writing the corpus"))?;
            // The first run fills the cache; the second is the warm
            // reference every edit must reproduce byte for byte.
            assess_like_cli(&root, Site::UNTRACED)?;
            let (report, reference) = assess_like_cli(&root, Site::UNTRACED)?;
            expected
                .verify(&report)
                .map_err(|e| format!("edit warm-up: {e}"))?;
            let editor = Editor::new(seed, &files);
            Ok(Prepared::Edit(Edit {
                _dir: dir,
                root,
                editor,
                expected,
                reference,
                next_edit: AtomicU64::new(0),
            }))
        }
        Kind::Serve => {
            let dir = WorkDir::create(&format!("serve-{round}")).map_err(io("work dir"))?;
            let root = dir.path().join("corpus");
            corpus::write_tree(&root, &files).map_err(io("writing the corpus"))?;
            let pack = dir.path().join("rules").join("bench.aq");
            std::fs::create_dir_all(pack.parent().expect("has a parent"))
                .map_err(io("rules dir"))?;
            std::fs::write(&pack, corpus::bench_rule_pack())
                .map_err(io("writing the rule pack"))?;
            let server = Server::start(serve_config(&pack)).map_err(io("starting the daemon"))?;
            let mut client = Client::new(server.addr());
            let body = assess_body(&root);
            // Cold request fills the resident store; the warm one is
            // the reference.
            checked_reply(&mut client, &body)?;
            let reference = checked_reply(&mut client, &body)?;
            let editor = Editor::new(seed, &files);
            Ok(Prepared::Serve(Serve {
                server,
                _dir: dir,
                root,
                pack,
                seed,
                editor,
                expected,
                reference,
            }))
        }
    }
}

fn io(what: &'static str) -> impl Fn(std::io::Error) -> String {
    move |e| format!("{what}: {e}")
}

impl Prepared {
    /// Runs operations in a closed loop for `seconds` from one caller:
    /// the next operation starts when the previous one returns, after a
    /// host probe taken while the program is idle.
    pub fn run_loop(&self, seconds: f64, rec: Option<&Recorder>) -> OpLog {
        let start = Instant::now();
        let mut samples = Vec::new();
        let mut client = match self {
            Prepared::Serve(s) => Some(Client::new(s.server.addr())),
            _ => None,
        };
        let mut probe = Probe::new();
        let mut op = 0;
        while start.elapsed().as_secs_f64() < seconds {
            op += 1;
            let probe_ms = probe.sample();
            let t0 = Instant::now();
            let outcome = Site::root(rec, op, 1).span("op", |site| match self {
                Prepared::Cold(c) => c.op(site),
                Prepared::Edit(e) => e.op(site),
                Prepared::Serve(s) => s.op(client.as_mut().expect("serve client"), site, op),
            });
            let ms = t0.elapsed().as_secs_f64() * 1000.0;
            samples.push(Sample {
                ms,
                probe_ms,
                result: outcome(),
            });
        }
        OpLog {
            samples,
            wall_s: start.elapsed().as_secs_f64(),
        }
    }

    /// The end-of-run check. For `serve`, whose reference came from the
    /// daemon rather than a report the benchmark checked, one more
    /// request after the loop and the set-up reference must both equal
    /// an in-process assessment of the final on-disk state, which must
    /// pass the known-answer check. Other workloads checked their
    /// reference at set-up and everything else per operation.
    pub fn final_check(&self) -> Option<Result<(), String>> {
        match self {
            Prepared::Serve(s) => Some(s.final_check()),
            Prepared::Cold(_) | Prepared::Edit(_) => None,
        }
    }
}

/// What an operation hands back to the loop: the check of its output,
/// run after the clock stops so checking never counts as latency.
type Outcome<'a> = Box<dyn FnOnce() -> Result<(), String> + 'a>;

impl Cold {
    fn op<'a>(&'a self, site: Site) -> Outcome<'a> {
        let report = site.span("pipeline.run", |_| self.assessment.run());
        let md = site.span("render.report", |_| deterministic_report_markdown(&report));
        Box::new(move || {
            self.expected.verify(&report)?;
            same_report(md.as_bytes(), self.reference.as_bytes())
        })
    }
}

impl Edit {
    fn op<'a>(&'a self, site: Site) -> Outcome<'a> {
        let n = self.next_edit.fetch_add(1, Ordering::Relaxed);
        let (path, text) = self.editor.edit(n);
        let written = site.span("fs.write_edit", |_| {
            std::fs::write(self.root.join(path), text)
        });
        if let Err(e) = written {
            return Box::new(move || Err(format!("writing the edit: {e}")));
        }
        let assessed = assess_like_cli(&self.root, site);
        Box::new(move || {
            let (report, md) = assessed?;
            self.expected.verify(&report)?;
            same_report(md.as_bytes(), self.reference.as_bytes())
        })
    }
}

impl Serve {
    fn op<'a>(&'a self, client: &mut Client, site: Site, op: u64) -> Outcome<'a> {
        if corpus::mix(self.seed ^ op.wrapping_mul(0x51_7cc1_b727_220a)).is_multiple_of(10) {
            if let Err(e) = site.span("fs.write_edit", |_| self.apply_edit(op)) {
                return Box::new(move || Err(format!("writing the edit: {e}")));
            }
        }
        let body = assess_body(&self.root);
        let reply = site.span("serve.request", |_| checked_reply(client, &body));
        Box::new(move || same_report(&reply?, &self.reference))
    }

    /// Applies edit `n` by write-then-rename, so the daemon reads either
    /// the old or the new file, never a torn one.
    fn apply_edit(&self, n: u64) -> std::io::Result<()> {
        let (path, text) = self.editor.edit(n);
        let target = self.root.join(path);
        let tmp = target.with_extension("bench-tmp");
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, &target)
    }

    fn final_check(&self) -> Result<(), String> {
        let mut client = Client::new(self.server.addr());
        let body = checked_reply(&mut client, &assess_body(&self.root))?;
        let sources = corpus::read_tree(&self.root).map_err(io("reading the corpus"))?;
        let pack = adsafe::query::load_rule_pack(&adsafe::query::resolve_rules_arg(&self.pack));
        let mut a = Assessment::new().with_options(AssessmentOptions {
            jobs: 0,
            rules: Some(Arc::new(pack.clone())),
            ..AssessmentOptions::default()
        });
        for pf in &pack.faults {
            a.add_fault(adsafe::query::pack_fault(pf));
        }
        add_sources(&mut a, &sources);
        let report = a.run();
        self.expected.verify(&report)?;
        let md = deterministic_report_markdown(&report);
        same_report(&body, md.as_bytes())?;
        same_report(&self.reference, md.as_bytes())
    }
}

fn add_sources(a: &mut Assessment, sources: &[Source]) {
    for (module, path, bytes) in sources {
        a.add_file_bytes(module, path, bytes);
    }
}

fn same_report(got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        let at = got
            .iter()
            .zip(want)
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(want.len()));
        Err(format!(
            "report bytes differ from the reference at byte {at} ({} vs {} bytes)",
            got.len(),
            want.len()
        ))
    }
}

/// POSTs `/assess` and checks the reply is a 200 with an undegraded
/// report. Returns the body.
fn checked_reply(client: &mut Client, body: &str) -> Result<Vec<u8>, String> {
    let reply = client
        .request("POST", "/assess", body)
        .map_err(io("POST /assess"))?;
    if reply.status != 200 {
        return Err(format!("POST /assess answered {}", reply.status));
    }
    if reply.header("X-Adsafe-Degraded") != Some("false") {
        return Err("POST /assess returned a degraded report".into());
    }
    Ok(reply.body)
}

/// One `adsafe assess <root>` with its defaults: read the tree, open
/// the run ledger, assess at jobs 0 with the on-disk facts cache under
/// `<root>/.adsafe-cache`, append the run record, render the report.
pub fn assess_like_cli(root: &Path, site: Site) -> Result<(AssessmentReport, String), String> {
    let sources = site
        .span("fs.read_tree", |_| corpus::read_tree(root))
        .map_err(io("reading the corpus"))?;
    let hashes: Vec<u64> = sources
        .iter()
        .map(|(_, path, bytes)| adsafe::content_hash(path, &String::from_utf8_lossy(bytes)))
        .collect();
    let cache_dir = root.join(".adsafe-cache");
    let ledger =
        Ledger::open(&Ledger::dir_for_cache(&cache_dir)).map_err(io("opening the ledger"))?;
    let digest = corpus_digest(&hashes);
    let (run_id, seq) = ledger.reserve(&digest);
    let pack = adsafe::query::load_rule_pack(&adsafe::query::discover_rule_paths(root));
    let mut a = Assessment::new().with_options(AssessmentOptions {
        jobs: 0,
        cache_dir: Some(cache_dir),
        run_id: run_id.clone(),
        rules: Some(Arc::new(pack)),
        ..AssessmentOptions::default()
    });
    add_sources(&mut a, &sources);
    let report = site.span("pipeline.run", |_| a.run());
    let record = RunRecord::from_report(
        &report,
        &run_id,
        seq,
        &root.display().to_string(),
        &digest,
        sources.len() as u64,
        adsafe_serve::exit_code_for(&report),
    );
    site.span("ledger.append", |_| ledger.append(&record))
        .map_err(io("appending to the ledger"))?;
    let md = site.span("render.report", |_| deterministic_report_markdown(&report));
    Ok((report, md))
}
