//! The `adsafe` command-line tool: assess a C/C++/CUDA source tree
//! against ISO 26262 Part-6 software guidelines.
//!
//! ```text
//! adsafe assess <dir> [--asil A|B|C|D] [--report out.md] [--diagnostics]
//!                     [--jobs N] [--no-cache] [--cache-dir PATH] [--rules PATH]
//!                     [--no-ledger] [--trace-out t.json] [--profile]
//!                     [--mem-profile] [-v] [-q]
//! adsafe serve [--addr HOST:PORT] [--jobs N] [--handlers N] [--queue N]
//!              [--cache-dir PATH] [--keep-alive-max N] [--idle-timeout MS]
//!              [--request-timeout MS] [--min-byte-rate B/S]
//!              [--store-budget BYTES[k|m]] [--recorder-cap N]
//!              [--rules PATH]  # resident HTTP daemon
//! adsafe top [--addr HOST:PORT] [--interval MS] [--count N]  # live dashboard
//! adsafe loadgen <dir> [--clients N] [--requests N] [--addr HOST:PORT]
//!                [--jobs N] [--out PATH] [--no-knee]  # keep-alive load driver
//! adsafe history [<dir>] [--last N] [--cache-dir PATH]  # run ledger
//! adsafe diff [<dir>] <run-a> <run-b> [--cache-dir PATH] # drift gate
//! adsafe check <file> [<file>...]          # rule findings only
//! adsafe rules list|explain <id>|check <dir> [--rules PATH] [--only ID]
//!                                          # rule inventory & query packs
//! adsafe gen --out DIR [--loc N] [--seed S] # synthetic Apollo-shaped corpus
//! adsafe tables                            # print the Part-6 tables
//! adsafe trace-compare <baseline> <current> # perf regression gate
//! adsafe <dir> [flags...]                  # implicit `assess`
//! ```
//!
//! Files are grouped into modules by their top-level directory, mirroring
//! how the paper treats Apollo's module tree.
//!
//! Performance flags (see DESIGN.md §8): `--jobs N` fans the per-file
//! and per-module rounds out over N pool workers (`0` =
//! one per core; default `0` for `assess`), and the incremental facts
//! cache at `<dir>/.adsafe-cache/` — on by default, relocated with
//! `--cache-dir PATH`, disabled with `--no-cache` (combining the two
//! is a usage error) — lets warm runs skip parse, file-local checks,
//! and metrics extraction for unchanged files. Reports are
//! byte-identical either way.
//!
//! `adsafe serve` (see DESIGN.md §9 and §11) keeps the facts store and
//! thread pool resident behind an HTTP/1.1 keep-alive interface
//! (`POST /assess`, `GET /metrics`, `GET /healthz`, `POST /invalidate`
//! — curl examples in README.md). Connection lifecycle knobs:
//! `--keep-alive-max` caps requests per connection (0 = unlimited),
//! `--idle-timeout` / `--request-timeout` bound quiet and in-flight
//! time (milliseconds, 0 disables), `--min-byte-rate` drops slow-loris
//! clients, and `--store-budget` bounds the resident facts store
//! (bytes, with `k`/`m` suffixes; 0 = unbounded) by LRU eviction.
//! `--recorder-cap` sizes the flight recorder's ring (completed
//! requests retained for `GET /requests` and `GET /trace/recent`;
//! default 256). `adsafe top` polls a daemon's `/metrics` + `/healthz`
//! into a refreshing terminal dashboard, and `adsafe loadgen` drives
//! keep-alive load at one (or at an in-process server over `<dir>`),
//! writing interpolated p50/p99/p999 and the 503 saturation knee to
//! `BENCH_load.json`. See DESIGN.md §12.
//! SIGTERM / ctrl-c drains in-flight requests — including idle
//! keep-alive connections — and flushes the facts store before
//! exiting.
//!
//! Observability flags (see DESIGN.md §7): `--trace-out` writes the
//! run's spans as Chrome trace-event JSON (loadable in
//! `chrome://tracing` / Perfetto), `--profile` prints per-phase wall
//! times, the top-10 slowest files and rules, an in-terminal flame
//! summary and, last, the share of the process's wall time from `main`
//! entry to exit that no phase claims, `-v` additionally dumps the
//! run's counters, and `-q` suppresses everything except the verdict
//! line and fault summary.
//! `--mem-profile` (see DESIGN.md §14) turns on the instrumented
//! allocator and prints a per-phase allocation table — allocation
//! count, bytes allocated, peak live bytes during the phase, and bytes
//! per assessed line — plus the process-wide size-class histogram.
//! Profiling never changes report bytes: memory numbers ride the trace
//! summary, never the deterministic report.
//!
//! Every assessment appends one record to the corpus's run ledger
//! (`<cache-dir>/ledger/runs.jsonl`, see DESIGN.md §10) unless
//! `--no-ledger` is given; `adsafe history` lists past runs and
//! `adsafe diff <a> <b>` compares two of them, exiting 1 when any
//! table verdict or paper observation flipped so CI can gate on
//! compliance drift. `--no-cache` skips the facts cache but still
//! writes the ledger.
//!
//! Exit codes (documented in README.md; scripts rely on them):
//!
//! | code | meaning |
//! |-----:|---------|
//! | 0 | assessment ran clean, no blocking topics |
//! | 1 | assessment ran clean, blocking topics (or `check` findings) |
//! | 2 | usage error (bad arguments) |
//! | 3 | I/O error (unreadable inputs, unwritable report) |
//! | 4 | degraded assessment, no blocking topics |
//! | 5 | degraded assessment with blocking topics |

use adsafe::iso26262::Asil;
use adsafe::{render, Assessment, AssessmentOptions};
use adsafe_ledger::{Ledger, RunDiff, RunRecord};
use adsafe_serve::exit_code_for;
use adsafe_serve::fsutil::ingest_dir;
use adsafe_serve::{ServeConfig, Server};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};

/// The instrumented allocator (DESIGN.md §14). Counting is off until
/// `--mem-profile` (or the serve daemon) flips it on; when off the
/// only cost per allocation is one relaxed atomic load.
#[global_allocator]
static ALLOC: adsafe::trace::alloc::CountingAlloc = adsafe::trace::alloc::CountingAlloc;

/// When `main` was entered, µs since the trace epoch: the start of the
/// wall time `--profile` splits into phases and the unclaimed rest.
static MAIN_ENTRY_US: std::sync::OnceLock<u64> = std::sync::OnceLock::new();

const EXIT_OK: i32 = adsafe_serve::exit::OK;
const EXIT_BLOCKING: i32 = adsafe_serve::exit::BLOCKING;
const EXIT_USAGE: i32 = adsafe_serve::exit::USAGE;
const EXIT_IO: i32 = adsafe_serve::exit::IO;
const EXIT_DEGRADED: i32 = adsafe_serve::exit::DEGRADED;
const EXIT_DEGRADED_BLOCKING: i32 = adsafe_serve::exit::DEGRADED_BLOCKING;

fn main() {
    MAIN_ENTRY_US.get_or_init(adsafe::trace::now_us);
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("assess") => cmd_assess(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("history") => cmd_history(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("rules") => cmd_rules(&args[1..]),
        Some("gen") => cmd_gen(&args[1..]),
        Some("tables") => cmd_tables(),
        Some("trace-compare") => cmd_trace_compare(&args[1..]),
        Some("top") => cmd_top(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        // Implicit assess: `adsafe --profile --trace-out t.json <dir>`.
        _ if args.iter().any(|a| Path::new(a).is_dir()) => cmd_assess(&args),
        _ => {
            eprintln!(
                "usage:\n  adsafe assess <dir> [--asil A|B|C|D] [--report out.md] [--diagnostics]\n  \
                 {:17}[--jobs N] [--no-cache] [--cache-dir PATH] [--no-ledger]\n  \
                 {:17}[--rules PATH] [--trace-out t.json] [--profile] [--mem-profile] [-v] [-q]\n  \
                 adsafe serve [--addr HOST:PORT] [--jobs N] [--handlers N] [--queue N]\n  \
                 {:13}[--cache-dir PATH] [--keep-alive-max N] [--idle-timeout MS]\n  \
                 {:13}[--request-timeout MS] [--min-byte-rate B/S] [--store-budget BYTES[k|m]]\n  \
                 {:13}[--recorder-cap N] [--rules PATH]\n  \
                 adsafe top [--addr HOST:PORT] [--interval MS] [--count N]\n  \
                 adsafe loadgen <dir> [--clients N] [--requests N] [--addr HOST:PORT]\n  \
                 {:15}[--jobs N] [--out PATH] [--no-knee]\n  \
                 adsafe history [<dir>] [--last N] [--cache-dir PATH]\n  \
                 adsafe diff [<dir>] <run-a> <run-b> [--cache-dir PATH]\n  \
                 adsafe check <file> [<file>...]\n  \
                 adsafe rules list|explain <id>|check <dir> [--rules PATH] [--only ID]\n  \
                 adsafe gen --out DIR [--loc N] [--seed S]\n  adsafe tables\n  \
                 adsafe trace-compare <baseline.json> <current.json>",
                "", "", "", "", "", ""
            );
            EXIT_USAGE
        }
    };
    std::process::exit(code);
}

/// Prints the one-line fault summary (count per phase, worst severity)
/// that scripts grep for, plus the detailed fault list.
fn print_fault_summary(report: &adsafe::AssessmentReport) {
    if report.faults.is_empty() {
        return;
    }
    let per_phase: Vec<String> = report
        .faults
        .counts_by_phase()
        .into_iter()
        .map(|(phase, n)| format!("{} {}", phase.name(), n))
        .collect();
    let worst = report.faults.worst().map(|s| s.name()).unwrap_or("none");
    println!(
        "DEGRADED: {} fault(s) contained ({}); worst severity: {}",
        report.faults.len(),
        per_phase.join(", "),
        worst
    );
    for f in &report.faults {
        // `correlated` appends the run ID so a fault line can be traced
        // back to its ledger record; plain `Display` stays run-free to
        // keep the deterministic report byte-stable.
        println!("  {}", f.correlated());
    }
}

fn cmd_assess(args: &[String]) -> i32 {
    let mut dir: Option<&str> = None;
    let mut asil = Asil::D;
    let mut report_path: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut show_diagnostics = false;
    let mut profile = false;
    let mut mem_profile = false;
    let mut verbose = false;
    let mut quiet = false;
    let mut jobs = 0usize; // 0 = one worker per core
    let mut use_cache = true;
    let mut use_ledger = true;
    let mut cache_dir_override: Option<PathBuf> = None;
    let mut rules_arg: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--rules" => {
                i += 1;
                match args.get(i) {
                    Some(p) => rules_arg = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("assess: --rules needs a pack file or directory");
                        return EXIT_USAGE;
                    }
                }
            }
            "--jobs" | "-j" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) => jobs = n,
                    None => {
                        eprintln!("assess: --jobs needs a worker count (0 = auto)");
                        return EXIT_USAGE;
                    }
                }
            }
            "--no-cache" => use_cache = false,
            "--no-ledger" => use_ledger = false,
            "--cache-dir" => {
                i += 1;
                match args.get(i) {
                    Some(p) => cache_dir_override = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("assess: --cache-dir needs a path");
                        return EXIT_USAGE;
                    }
                }
            }
            "--asil" => {
                i += 1;
                match args.get(i).and_then(|s| Asil::from_level(s)) {
                    Some(a) => asil = a,
                    None => {
                        eprintln!("assess: --asil needs A|B|C|D|QM");
                        return EXIT_USAGE;
                    }
                }
            }
            "--report" => {
                i += 1;
                report_path = args.get(i).cloned();
                if report_path.is_none() {
                    eprintln!("assess: --report needs a path");
                    return EXIT_USAGE;
                }
            }
            "--trace-out" => {
                i += 1;
                trace_out = args.get(i).cloned();
                if trace_out.is_none() {
                    eprintln!("assess: --trace-out needs a path");
                    return EXIT_USAGE;
                }
            }
            "--diagnostics" => show_diagnostics = true,
            "--profile" => profile = true,
            "--mem-profile" => mem_profile = true,
            "-v" | "--verbose" => verbose = true,
            "-q" | "--quiet" => quiet = true,
            other if !other.starts_with('-') && dir.is_none() => dir = Some(other),
            other => {
                eprintln!("assess: unknown option `{other}`");
                return EXIT_USAGE;
            }
        }
        i += 1;
    }
    if !use_cache && cache_dir_override.is_some() {
        eprintln!("assess: --no-cache and --cache-dir are mutually exclusive");
        return EXIT_USAGE;
    }
    let Some(dir) = dir else {
        eprintln!("assess: missing <dir>");
        return EXIT_USAGE;
    };
    let root = PathBuf::from(dir);
    if !root.is_dir() {
        eprintln!("assess: `{dir}` is not a directory");
        return EXIT_USAGE;
    }

    // The CLI's own phases (ingest, ledger), outside the run's scope.
    let cli_scope = adsafe::trace::mark();
    let mut assessment = Assessment::new();
    let ingested = {
        let _ingest = adsafe::trace::span("phase.ingest", "phase");
        ingest_dir(&root, &mut assessment)
    };
    if ingested.found == 0 {
        eprintln!("assess: no C/C++/CUDA sources under `{dir}`");
        return EXIT_IO;
    }
    if !quiet {
        eprintln!(
            "assessing {} files under {dir} at {asil} ...",
            ingested.found
        );
    }
    // Non-UTF-8 content is the pipeline's problem (it records an ingest
    // fault and degrades), not a reason to skip; unreadable files are.
    for (f, e) in &ingested.unreadable {
        eprintln!("  skipping unreadable {}: {e}", f.display());
    }
    if assessment.sources().is_empty() {
        eprintln!(
            "assess: none of the {} sources could be read",
            ingested.found
        );
        return EXIT_IO;
    }

    // Query-rule packs: an explicit `--rules` path wins; otherwise any
    // `ROOT/.adsafe-rules/*.aq` packs load automatically. Pack faults
    // are Info-severity and never block the run.
    let rule_paths = match &rules_arg {
        Some(p) => adsafe::query::resolve_rules_arg(p),
        None => adsafe::query::discover_rule_paths(&root),
    };
    let pack = adsafe::query::load_rule_pack(&rule_paths);
    if !quiet && !pack.rules.is_empty() {
        eprintln!(
            "loaded {} query rule(s) from {} pack file(s)",
            pack.rules.len(),
            rule_paths.len()
        );
    }

    // The ledger lives under the cache directory but is independent of
    // the facts cache: `--no-cache` still records the run.
    let base_cache_dir = cache_dir_override
        .clone()
        .unwrap_or_else(|| root.join(".adsafe-cache"));
    let (ledger, (run_id, seq, digest)) = {
        let _ledger = adsafe::trace::span("phase.ledger", "phase");
        let ledger = use_ledger
            .then(|| Ledger::open(&Ledger::dir_for_cache(&base_cache_dir)))
            .and_then(|r| match r {
                Ok(l) => Some(l),
                Err(e) => {
                    eprintln!("assess: ledger disabled ({e})");
                    None
                }
            });
        let reserved = adsafe_serve::reserve_run(&mut assessment, ledger.as_ref(), &pack.faults);
        (ledger, reserved)
    };

    let cache_dir = use_cache.then(|| base_cache_dir.clone());
    let assessment = assessment.with_options(AssessmentOptions {
        asil,
        jobs,
        cache_dir,
        run_id: run_id.clone(),
        rules: Some(std::sync::Arc::new(pack)),
        ..AssessmentOptions::default()
    });
    if mem_profile {
        adsafe::trace::alloc::set_profiling(true);
    }
    let report = assessment.run();

    let exit_code = exit_code_for(&report);
    if let Some(l) = &ledger {
        let _ledger = adsafe::trace::span("phase.ledger", "phase");
        let record = RunRecord::from_report(
            &report,
            &run_id,
            seq,
            &root.display().to_string(),
            &digest,
            assessment.sources().len() as u64,
            exit_code,
        );
        match l.append(&record) {
            Ok(()) => {
                if !quiet {
                    eprintln!("run {run_id} recorded in {}", l.file().display());
                }
            }
            Err(e) => eprintln!("assess: cannot append to run ledger: {e}"),
        }
    }

    if show_diagnostics {
        for d in &report.diagnostics {
            println!("{} [{}] {}", d.severity, d.check_id, d.message);
        }
        println!();
    }
    if !quiet {
        println!("{}", render::table1(&report).to_ascii());
        println!("{}", render::table2(&report).to_ascii());
        println!("{}", render::table3(&report).to_ascii());
        print!("{}", render::observations_text(&report));
        println!();
    }
    println!(
        "{} findings; {} of 25 topics blocking at {}; compliance ratio {:.0}%",
        report.diagnostics.len(),
        report.compliance.blocking_count(),
        report.compliance.asil,
        report.compliance.compliance_ratio() * 100.0
    );
    print_fault_summary(&report);
    if profile {
        print_profile(&report);
    }
    if mem_profile {
        print_mem_profile(&report);
    }
    if verbose {
        println!("\ncounters:");
        for (name, v) in &report.trace.counters {
            println!("  {name} = {v}");
        }
    }
    if let Some(path) = trace_out {
        match std::fs::write(&path, report.trace.to_chrome_json()) {
            Ok(()) => {
                if !quiet {
                    eprintln!("chrome trace written to {path}");
                }
            }
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return EXIT_IO;
            }
        }
    }
    if let Some(path) = report_path {
        match std::fs::write(&path, render::full_report_markdown(&report)) {
            Ok(()) => eprintln!("report written to {path}"),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                return EXIT_IO;
            }
        }
    }
    if profile {
        let cli_phases = adsafe::trace::drain_from(&cli_scope);
        let claimed = claimed_us(report.trace.events.iter().chain(&cli_phases));
        // Freeing the run is part of the wall time, claimed by no phase.
        drop((report, assessment, ledger));
        print_unclaimed(claimed);
    }
    exit_code
}

/// Wall time covered by at least one `phase` span, nested or
/// overlapping phases counted once.
fn claimed_us<'a>(events: impl Iterator<Item = &'a adsafe::trace::SpanEvent>) -> u64 {
    let mut spans: Vec<(u64, u64)> = events
        .filter(|e| e.cat == "phase")
        .map(|e| (e.start_us, e.end_us()))
        .collect();
    spans.sort_unstable();
    let (mut claimed, mut reach) = (0, 0);
    for (start, end) in spans {
        claimed += end.saturating_sub(start.max(reach));
        reach = reach.max(end);
    }
    claimed
}

/// The last `--profile` line: the share of the wall time from `main`
/// entry until now that no phase claims.
fn print_unclaimed(claimed_us: u64) {
    let entry = MAIN_ENTRY_US.get().copied().unwrap_or(0);
    let wall = adsafe::trace::now_us().saturating_sub(entry).max(1);
    let unclaimed = wall.saturating_sub(claimed_us);
    println!(
        "unclaimed share {:.3} ({:.1} ms of {:.1} ms from main entry to exit in no phase)",
        unclaimed as f64 / wall as f64,
        unclaimed as f64 / 1000.0,
        wall as f64 / 1000.0
    );
}

/// Opens the ledger for `history`/`diff` without writing to it:
/// refuses to invent a directory when none exists yet.
fn open_ledger_readonly(dir: &Path, cache_dir: Option<&Path>) -> Result<Ledger, String> {
    let base = cache_dir
        .map(Path::to_path_buf)
        .unwrap_or_else(|| dir.join(".adsafe-cache"));
    let ledger_dir = Ledger::dir_for_cache(&base);
    if !ledger_dir.join(adsafe_ledger::LEDGER_FILE).is_file() {
        return Err(format!(
            "no run ledger at {} (run `adsafe assess {}` first)",
            ledger_dir.display(),
            dir.display()
        ));
    }
    Ledger::open(&ledger_dir).map_err(|e| format!("cannot open {}: {e}", ledger_dir.display()))
}

/// `adsafe history [<dir>] [--last N]`: list the corpus's recorded
/// runs, most recent last, with a drift marker against each run's
/// predecessor.
fn cmd_history(args: &[String]) -> i32 {
    let mut dir: Option<String> = None;
    let mut last = usize::MAX;
    let mut cache_dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--last" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n > 0 => last = n,
                    _ => {
                        eprintln!("history: --last needs a positive count");
                        return EXIT_USAGE;
                    }
                }
            }
            "--cache-dir" => {
                i += 1;
                match args.get(i) {
                    Some(p) => cache_dir = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("history: --cache-dir needs a path");
                        return EXIT_USAGE;
                    }
                }
            }
            other if !other.starts_with('-') && dir.is_none() => dir = Some(other.to_string()),
            other => {
                eprintln!("history: unknown option `{other}`");
                return EXIT_USAGE;
            }
        }
        i += 1;
    }
    let dir = PathBuf::from(dir.unwrap_or_else(|| ".".to_string()));
    let ledger = match open_ledger_readonly(&dir, cache_dir.as_deref()) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("history: {e}");
            return EXIT_IO;
        }
    };
    let (records, torn) = ledger.read_all();
    for t in &torn {
        eprintln!("history: skipping torn line {}: {}", t.line, t.detail);
    }
    listing(|out| {
        if records.is_empty() {
            writeln!(out, "no recorded runs")?;
        } else {
            write!(out, "{}", adsafe_ledger::history_table(&records, last))?;
        }
        Ok(EXIT_OK)
    })
}

/// `adsafe diff [<dir>] <run-a> <run-b>`: compare two recorded runs.
/// Exits 1 when any table verdict or paper observation flipped between
/// them — the compliance-drift gate CI hangs off — and 0 when only
/// run IDs, timings, or nothing at all changed.
fn cmd_diff(args: &[String]) -> i32 {
    let mut positional: Vec<String> = Vec::new();
    let mut cache_dir: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cache-dir" => {
                i += 1;
                match args.get(i) {
                    Some(p) => cache_dir = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("diff: --cache-dir needs a path");
                        return EXIT_USAGE;
                    }
                }
            }
            other if !other.starts_with('-') => positional.push(other.to_string()),
            other => {
                eprintln!("diff: unknown option `{other}`");
                return EXIT_USAGE;
            }
        }
        i += 1;
    }
    // `<dir>` is optional: three positionals mean the first is the
    // corpus root, two mean the current directory.
    let (dir, ref_a, ref_b) = match positional.len() {
        2 => (
            PathBuf::from("."),
            positional[0].clone(),
            positional[1].clone(),
        ),
        3 if Path::new(&positional[0]).is_dir() => (
            PathBuf::from(&positional[0]),
            positional[1].clone(),
            positional[2].clone(),
        ),
        _ => {
            eprintln!(
                "diff: need [<dir>] <run-a> <run-b> (sequence number, run ID, or unique prefix)"
            );
            return EXIT_USAGE;
        }
    };
    let ledger = match open_ledger_readonly(&dir, cache_dir.as_deref()) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("diff: {e}");
            return EXIT_IO;
        }
    };
    let (a, b) = match (ledger.resolve(&ref_a), ledger.resolve(&ref_b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("diff: {e}");
            return EXIT_USAGE;
        }
    };
    let diff = RunDiff::between(&a, &b);
    listing(|out| {
        write!(out, "{}", diff.render())?;
        Ok(i32::from(diff.has_drift()))
    })
}

/// Runs a listing command's output through locked, buffered stdout.
/// A reader that leaves early (`adsafe rules list | head -3`) ends the
/// listing quietly with exit 0; any other write error is an I/O exit.
fn listing(print: impl FnOnce(&mut dyn Write) -> std::io::Result<i32>) -> i32 {
    let mut out = std::io::BufWriter::new(std::io::stdout().lock());
    match print(&mut out).and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => EXIT_OK,
        Err(e) => {
            eprintln!("cannot write to stdout: {e}");
            EXIT_IO
        }
    }
}

/// Set by the SIGINT/SIGTERM handler; `cmd_serve` polls it.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_shutdown_signal(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Installs `on_shutdown_signal` for SIGINT (2) and SIGTERM (15) via
/// the raw `signal(2)` syscall wrapper — std links libc but exposes no
/// signal API, and this workspace vendors no external crates.
fn install_shutdown_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(2, on_shutdown_signal);
        signal(15, on_shutdown_signal);
    }
}

/// Parses a byte size with an optional `k`/`m`/`g` suffix
/// (case-insensitive): `512k` → 524288, `8m` → 8388608.
fn parse_byte_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (digits, mult) = match s.chars().last()? {
        'k' | 'K' => (&s[..s.len() - 1], 1024u64),
        'm' | 'M' => (&s[..s.len() - 1], 1024 * 1024),
        'g' | 'G' => (&s[..s.len() - 1], 1024 * 1024 * 1024),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok()?.checked_mul(mult)
}

/// `adsafe serve`: run the resident assessment daemon until SIGTERM or
/// ctrl-c, then drain in-flight requests and flush the facts store.
fn cmd_serve(args: &[String]) -> i32 {
    let mut config = ServeConfig::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                match args.get(i) {
                    Some(a) => config.addr = a.clone(),
                    None => {
                        eprintln!("serve: --addr needs HOST:PORT");
                        return EXIT_USAGE;
                    }
                }
            }
            "--jobs" | "-j" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) => config.jobs = n,
                    None => {
                        eprintln!("serve: --jobs needs a worker count (0 = auto)");
                        return EXIT_USAGE;
                    }
                }
            }
            "--handlers" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n > 0 => config.handlers = n,
                    _ => {
                        eprintln!("serve: --handlers needs a positive count");
                        return EXIT_USAGE;
                    }
                }
            }
            "--queue" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n > 0 => config.queue_capacity = n,
                    _ => {
                        eprintln!("serve: --queue needs a positive capacity");
                        return EXIT_USAGE;
                    }
                }
            }
            "--cache-dir" => {
                i += 1;
                match args.get(i) {
                    Some(p) => config.cache_dir = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("serve: --cache-dir needs a path");
                        return EXIT_USAGE;
                    }
                }
            }
            "--keep-alive-max" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) => config.keep_alive_max = n,
                    None => {
                        eprintln!("serve: --keep-alive-max needs a request count (0 = unlimited)");
                        return EXIT_USAGE;
                    }
                }
            }
            "--idle-timeout" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(ms) => config.idle_timeout = std::time::Duration::from_millis(ms),
                    None => {
                        eprintln!("serve: --idle-timeout needs milliseconds (0 = disabled)");
                        return EXIT_USAGE;
                    }
                }
            }
            "--request-timeout" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(ms) => config.request_timeout = std::time::Duration::from_millis(ms),
                    None => {
                        eprintln!("serve: --request-timeout needs milliseconds (0 = disabled)");
                        return EXIT_USAGE;
                    }
                }
            }
            "--min-byte-rate" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(rate) => config.min_byte_rate = rate,
                    None => {
                        eprintln!("serve: --min-byte-rate needs bytes/second (0 = disabled)");
                        return EXIT_USAGE;
                    }
                }
            }
            "--store-budget" => {
                i += 1;
                match args.get(i).and_then(|s| parse_byte_size(s)) {
                    Some(bytes) => config.store_budget = bytes,
                    None => {
                        eprintln!(
                            "serve: --store-budget needs a byte size like 8m, 512k, or 1048576 \
                             (0 = unbounded)"
                        );
                        return EXIT_USAGE;
                    }
                }
            }
            "--recorder-cap" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n > 0 => config.recorder_cap = n,
                    _ => {
                        eprintln!("serve: --recorder-cap needs a positive record count");
                        return EXIT_USAGE;
                    }
                }
            }
            "--rules" => {
                i += 1;
                match args.get(i) {
                    Some(p) => config.rules = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("serve: --rules needs a pack file or directory");
                        return EXIT_USAGE;
                    }
                }
            }
            other => {
                eprintln!("serve: unknown option `{other}`");
                return EXIT_USAGE;
            }
        }
        i += 1;
    }
    let server = match Server::start(config.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot bind {}: {e}", config.addr);
            return EXIT_IO;
        }
    };
    eprintln!(
        "adsafe serve listening on {} ({} handler(s), queue {}, cache {}, \
         keep-alive max {}, store budget {})",
        server.addr(),
        config.handlers,
        config.queue_capacity,
        config
            .cache_dir
            .as_deref()
            .map_or_else(|| "memory-only".to_string(), |d| d.display().to_string()),
        if config.keep_alive_max == 0 {
            "unlimited".to_string()
        } else {
            config.keep_alive_max.to_string()
        },
        if config.store_budget == 0 {
            "unbounded".to_string()
        } else {
            format!("{} bytes", config.store_budget)
        }
    );
    install_shutdown_handlers();
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("serve: shutdown requested; draining in-flight requests ...");
    let stats = server.stop();
    eprintln!(
        "serve: drained; {} request(s) served, {} facts entr(ies) flushed",
        stats.requests, stats.flushed_entries
    );
    EXIT_OK
}

/// `adsafe top`: a refreshing terminal dashboard over a live daemon's
/// `/metrics` + `/healthz` — queue depth, keep-alive reuse, flight
/// recorder fill, store pressure, status mix, chaos fault counters,
/// and the per-endpoint p50/p99/p999 SLO table. Without `--addr` it
/// polls the address `adsafe serve` binds by default.
fn cmd_top(args: &[String]) -> i32 {
    let mut addr = ServeConfig::default().addr;
    let mut interval_ms: u64 = 2000;
    let mut count: u64 = 0;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                match args.get(i) {
                    Some(a) => addr = a.clone(),
                    None => {
                        eprintln!("top: --addr needs HOST:PORT");
                        return EXIT_USAGE;
                    }
                }
            }
            "--interval" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(ms) if ms > 0 => interval_ms = ms,
                    _ => {
                        eprintln!("top: --interval needs positive milliseconds");
                        return EXIT_USAGE;
                    }
                }
            }
            "--count" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(n) => count = n,
                    None => {
                        eprintln!("top: --count needs a frame count (0 = forever)");
                        return EXIT_USAGE;
                    }
                }
            }
            other => {
                eprintln!("top: unknown option `{other}`");
                return EXIT_USAGE;
            }
        }
        i += 1;
    }
    match adsafe_serve::top::run_top(&addr, std::time::Duration::from_millis(interval_ms), count) {
        Ok(()) => EXIT_OK,
        Err(e) => {
            eprintln!("top: {e}");
            EXIT_IO
        }
    }
}

/// `adsafe loadgen`: drive keep-alive load at a daemon (an external
/// `--addr`, or an in-process server over `<dir>`), then report
/// interpolated p50/p99/p999 service latency and the 503 saturation
/// knee as `adsafe-bench-load/1` JSON.
fn cmd_loadgen(args: &[String]) -> i32 {
    let mut cfg = adsafe_serve::loadgen::LoadgenConfig::default();
    let mut out = PathBuf::from("BENCH_load.json");
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--clients" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n > 0 => cfg.clients = n,
                    _ => {
                        eprintln!("loadgen: --clients needs a positive count");
                        return EXIT_USAGE;
                    }
                }
            }
            "--requests" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n > 0 => cfg.requests = n,
                    _ => {
                        eprintln!("loadgen: --requests needs a positive per-client count");
                        return EXIT_USAGE;
                    }
                }
            }
            "--addr" => {
                i += 1;
                match args.get(i) {
                    Some(a) => cfg.addr = Some(a.clone()),
                    None => {
                        eprintln!("loadgen: --addr needs HOST:PORT");
                        return EXIT_USAGE;
                    }
                }
            }
            "--jobs" | "-j" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) => cfg.jobs = n,
                    None => {
                        eprintln!("loadgen: --jobs needs a worker count (0 = auto)");
                        return EXIT_USAGE;
                    }
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out = PathBuf::from(p),
                    None => {
                        eprintln!("loadgen: --out needs a path");
                        return EXIT_USAGE;
                    }
                }
            }
            "--no-knee" => cfg.skip_knee = true,
            other if cfg.corpus.as_os_str().is_empty() && Path::new(other).is_dir() => {
                cfg.corpus = PathBuf::from(other);
            }
            other => {
                eprintln!("loadgen: unknown option or missing corpus dir: `{other}`");
                return EXIT_USAGE;
            }
        }
        i += 1;
    }
    if cfg.corpus.as_os_str().is_empty() {
        eprintln!("loadgen: missing <dir> (the corpus to assess under load)");
        return EXIT_USAGE;
    }
    eprintln!(
        "loadgen: {} client(s) x {} request(s) against {} ...",
        cfg.clients,
        cfg.requests,
        cfg.addr.as_deref().unwrap_or("an in-process server")
    );
    let report = match adsafe_serve::loadgen::run_loadgen(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return EXIT_IO;
        }
    };
    let json = report.to_json();
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("loadgen: cannot write {}: {e}", out.display());
        return EXIT_IO;
    }
    print!("{json}");
    let q = |p: f64| report.latency.quantile_estimate(p) as f64 / 1000.0;
    eprintln!(
        "loadgen: {} ok, {} x 503; p50 {:.2} ms, p99 {:.2} ms, p999 {:.2} ms; \
         knee at {} client(s); wrote {}",
        report.completed,
        report.rejected_503,
        q(0.50),
        q(0.99),
        q(0.999),
        report.knee_clients,
        out.display()
    );
    EXIT_OK
}

/// Prints the `--profile` digest: per-phase wall time, slowest files
/// and rules, and the flame summary.
fn print_profile(report: &adsafe::AssessmentReport) {
    let t = &report.trace;
    println!("\nprofile ({:.1} ms total):", t.total_us as f64 / 1000.0);
    for p in &t.phases {
        println!(
            "  phase {:<8} {:>9.2} ms",
            p.name,
            p.wall_us as f64 / 1000.0
        );
    }
    if !t.slowest_files.is_empty() {
        println!("slowest files:");
        for (path, us) in &t.slowest_files {
            println!("  {:>9.2} ms  {path}", *us as f64 / 1000.0);
        }
    }
    if !t.slowest_rules.is_empty() {
        println!("slowest rules:");
        for (rule, us) in &t.slowest_rules {
            println!("  {:>9.2} ms  {rule}", *us as f64 / 1000.0);
        }
    }
    println!("\n{}", t.flame());
}

/// Short human byte unit for the `--mem-profile` table.
fn human_bytes(b: u64) -> String {
    match b {
        0..=1023 => format!("{b} B"),
        1024..=1048575 => format!("{:.1} KiB", b as f64 / 1024.0),
        1048576..=1073741823 => format!("{:.1} MiB", b as f64 / 1048576.0),
        _ => format!("{:.2} GiB", b as f64 / 1073741824.0),
    }
}

/// Prints the `--mem-profile` digest: process totals, the per-phase
/// allocation table (allocs, bytes, peak live during the phase, bytes
/// per assessed line), and the allocation size-class profile.
fn print_mem_profile(report: &adsafe::AssessmentReport) {
    let stats = adsafe::trace::alloc::stats();
    println!(
        "\nmemory profile: {} alloc(s), {} allocated, {} live, peak {}",
        stats.alloc_count,
        human_bytes(stats.allocated_bytes),
        human_bytes(stats.live_bytes),
        human_bytes(stats.peak_live_bytes),
    );
    let loc = report.evidence.total_loc.max(1) as f64;
    println!(
        "  {:<14} {:>10} {:>12} {:>12} {:>11}",
        "phase", "allocs", "bytes", "peak live", "bytes/LOC"
    );
    for p in &report.trace.phase_mem {
        println!(
            "  {:<14} {:>10} {:>12} {:>12} {:>11.1}",
            p.name,
            p.allocs,
            human_bytes(p.bytes),
            human_bytes(p.peak_live),
            p.bytes as f64 / loc,
        );
    }
    let sc = &stats.size_classes;
    if sc.count > 0 {
        println!(
            "allocation sizes: mean {}, p50 <= {}, p99 <= {}",
            human_bytes(sc.mean() as u64),
            human_bytes(sc.quantile_bound(0.50)),
            human_bytes(sc.quantile_bound(0.99)),
        );
    }
}

/// `adsafe trace-compare <baseline.json> <current.json>`: the CI perf
/// gate. Exits 1 when any phase regresses beyond 2× the baseline
/// (subject to the noise floor, see `adsafe_trace::bench`) — or when a
/// phase present on one side is missing from the other, since a
/// disappeared phase is a structural change the ratio check would
/// silently skip over. `pool.*` and `cache.*` counters differ between
/// serial and parallel runs by design and are never compared.
fn cmd_trace_compare(args: &[String]) -> i32 {
    let (Some(base_path), Some(cur_path)) = (args.first(), args.get(1)) else {
        eprintln!("trace-compare: need <baseline.json> <current.json>");
        return EXIT_USAGE;
    };
    let read = |p: &str| -> Result<adsafe::trace::bench::BenchBaseline, (i32, String)> {
        let text =
            std::fs::read_to_string(p).map_err(|e| (EXIT_IO, format!("cannot read {p}: {e}")))?;
        adsafe::trace::bench::BenchBaseline::parse(&text)
            .map_err(|e| (EXIT_USAGE, format!("cannot parse {p}: {e}")))
    };
    let (base, cur) = match (read(base_path), read(cur_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err((code, msg)), _) | (_, Err((code, msg))) => {
            eprintln!("trace-compare: {msg}");
            return code;
        }
    };
    let differences = base.phase_differences(&cur);
    for d in &differences {
        println!("DIFFERENCE: {d}");
    }
    let regressions = base.regressions(&cur, 2.0);
    for r in &regressions {
        println!("REGRESSION: {r}");
    }
    if !differences.is_empty() {
        return EXIT_BLOCKING;
    }
    if regressions.is_empty() {
        println!(
            "trace-compare: {} phase(s) within 2.0x of baseline (total {:.2} ms -> {:.2} ms)",
            cur.phases.len(),
            base.total_ms,
            cur.total_ms
        );
        EXIT_OK
    } else {
        EXIT_BLOCKING
    }
}

fn cmd_check(args: &[String]) -> i32 {
    if args.is_empty() {
        eprintln!("check: missing <file>");
        return EXIT_USAGE;
    }
    let mut assessment = Assessment::new();
    for f in args {
        match std::fs::read(f) {
            Ok(bytes) => {
                assessment.add_file_bytes("input", f, &bytes);
            }
            Err(e) => {
                eprintln!("check: cannot read {f}: {e}");
                return EXIT_IO;
            }
        }
    }
    let report = assessment.run();
    for d in &report.diagnostics {
        println!("{} [{}] {}", d.severity, d.check_id, d.message);
    }
    println!("{} findings", report.diagnostics.len());
    print_fault_summary(&report);
    if report.degraded {
        if report.diagnostics.is_empty() {
            EXIT_DEGRADED
        } else {
            EXIT_DEGRADED_BLOCKING
        }
    } else {
        i32::from(!report.diagnostics.is_empty())
    }
}

/// Loads the user rule pack for the `rules` subcommands: `--rules PATH`
/// loads a pack file or a directory of `*.aq` files; without it the
/// `.adsafe-rules` packs under `root` (when given) are discovered.
fn load_cli_pack(rules: Option<&Path>, root: Option<&Path>) -> adsafe::rulequery::RulePack {
    let paths = match rules {
        Some(p) => adsafe::query::resolve_rules_arg(p),
        None => root
            .map(adsafe::query::discover_rule_paths)
            .unwrap_or_default(),
    };
    adsafe::query::load_rule_pack(&paths)
}

/// Prints contained pack-loading faults to stderr; the run proceeds
/// with whatever rules survived.
fn print_pack_faults(pack: &adsafe::rulequery::RulePack) {
    for f in &pack.faults {
        if f.line == 0 {
            eprintln!("rules: {}: {}", f.file, f.detail);
        } else {
            eprintln!("rules: {}:{}: {}", f.file, f.line, f.detail);
        }
    }
}

/// `adsafe rules <list|explain|check>`: enumerate, inspect, and run the
/// rule set — native checkers plus query rules from `.aq` packs.
fn cmd_rules(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("list") => cmd_rules_list(&args[1..]),
        Some("explain") => cmd_rules_explain(&args[1..]),
        Some("check") => cmd_rules_check(&args[1..]),
        Some(other) => {
            eprintln!("rules: unknown subcommand `{other}` (want list, explain, or check)");
            EXIT_USAGE
        }
        None => {
            eprintln!("rules: missing subcommand (list, explain, or check)");
            EXIT_USAGE
        }
    }
}

/// Flags shared by the `rules` subcommands; positional arguments land
/// in `positional`.
struct RulesFlags {
    rules: Option<PathBuf>,
    only: Option<String>,
    positional: Vec<String>,
}

fn parse_rules_flags(args: &[String]) -> Result<RulesFlags, i32> {
    let mut rules: Option<PathBuf> = None;
    let mut only: Option<String> = None;
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--rules" => {
                i += 1;
                match args.get(i) {
                    Some(p) => rules = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("rules: --rules needs a pack file or directory");
                        return Err(EXIT_USAGE);
                    }
                }
            }
            "--only" => {
                i += 1;
                match args.get(i) {
                    Some(id) => only = Some(id.clone()),
                    None => {
                        eprintln!("rules: --only needs a rule id");
                        return Err(EXIT_USAGE);
                    }
                }
            }
            other if !other.starts_with('-') => positional.push(other.to_string()),
            other => {
                eprintln!("rules: unknown option `{other}`");
                return Err(EXIT_USAGE);
            }
        }
        i += 1;
    }
    Ok(RulesFlags {
        rules,
        only,
        positional,
    })
}

/// `adsafe rules list`: one stable line per rule — origin, scope, id,
/// ISO references, description — in inventory order: natives, then the
/// bundled pack, then user packs.
fn cmd_rules_list(args: &[String]) -> i32 {
    let RulesFlags {
        rules, positional, ..
    } = match parse_rules_flags(args) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let root = positional.first().map(PathBuf::from);
    let pack = load_cli_pack(rules.as_deref(), root.as_deref());
    print_pack_faults(&pack);
    let inventory = adsafe::query::rule_inventory(&pack);
    listing(|out| {
        for r in &inventory {
            writeln!(
                out,
                "{:<7} {:<8} {:<34} {:<24} {}",
                r.origin(),
                r.scope.name(),
                r.id,
                r.iso.join(","),
                r.desc
            )?;
        }
        let queries = inventory.iter().filter(|r| r.query.is_some()).count();
        writeln!(
            out,
            "{} native rule(s), {queries} query rule(s)",
            inventory.len() - queries
        )?;
        Ok(EXIT_OK)
    })
}

/// `adsafe rules explain <id>`: full detail for one rule. Query rules
/// additionally print the canonical source form and the compiled
/// bytecode disassembly, arm by arm when the rule has several.
fn cmd_rules_explain(args: &[String]) -> i32 {
    let RulesFlags {
        rules, positional, ..
    } = match parse_rules_flags(args) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let Some(id) = positional.first() else {
        eprintln!("rules: explain needs a rule id");
        return EXIT_USAGE;
    };
    let pack = load_cli_pack(rules.as_deref(), Some(Path::new(".")));
    print_pack_faults(&pack);
    let inventory = adsafe::query::rule_inventory(&pack);
    let Some(r) = inventory.iter().find(|r| r.id == id.as_str()) else {
        eprintln!("rules: no rule named `{id}` (try `adsafe rules list`)");
        return EXIT_USAGE;
    };
    listing(|out| {
        writeln!(out, "rule:   {}", r.id)?;
        writeln!(out, "origin: {}", r.origin())?;
        writeln!(out, "scope:  {}", r.scope.name())?;
        writeln!(out, "iso:    {}", r.iso.join(", "))?;
        writeln!(out, "desc:   {}", r.desc)?;
        if let Some(q) = r.query {
            writeln!(out, "\nsource:\n{}", q.decl)?;
            if let [arm] = &q.arms[..] {
                writeln!(out, "bytecode:\n{}", arm.program)?;
            } else {
                for (i, (arm, src)) in q.arms.iter().zip(&q.decl.arms).enumerate() {
                    writeln!(out, "arm {}: {src}\nbytecode:\n{}", i + 1, arm.program)?;
                }
            }
        }
        Ok(EXIT_OK)
    })
}

/// `adsafe rules check <dir>`: run the assessment pipeline over a source
/// tree — native rules, the bundled pack, and any user pack — and print
/// its rendered diagnostics (only rule `--only ID`'s when given) in the
/// canonical deterministic order. No cache, no ledger.
fn cmd_rules_check(args: &[String]) -> i32 {
    let RulesFlags {
        rules,
        only,
        positional,
    } = match parse_rules_flags(args) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let Some(dir) = positional.first() else {
        eprintln!("rules: check needs a <dir>");
        return EXIT_USAGE;
    };
    let root = PathBuf::from(dir);
    if !root.is_dir() {
        eprintln!("rules: `{dir}` is not a directory");
        return EXIT_USAGE;
    }
    let mut assessment = Assessment::new();
    let ingested = ingest_dir(&root, &mut assessment);
    if ingested.found == 0 {
        eprintln!("rules: no C/C++/CUDA sources under `{dir}`");
        return EXIT_IO;
    }
    let pack = load_cli_pack(rules.as_deref(), Some(&root));
    print_pack_faults(&pack);
    for (f, e) in &ingested.unreadable {
        eprintln!("  skipping unreadable {}: {e}", f.display());
    }
    let assessment = assessment.with_options(AssessmentOptions {
        rules: Some(std::sync::Arc::new(pack)),
        ..AssessmentOptions::default()
    });
    let report = assessment.run();
    let mut n = 0;
    for d in &report.diagnostics {
        if only.as_deref().is_none_or(|id| id == d.check_id) {
            println!("{}", d.render(assessment.sources()));
            n += 1;
        }
    }
    println!("{n} findings");
    EXIT_OK
}

/// `adsafe gen --out DIR [--loc N] [--seed S]`: writes the calibrated
/// Apollo-shaped synthetic corpus to DIR, scaled to roughly N total
/// lines (default: the paper-scale ≈220k).
fn cmd_gen(args: &[String]) -> i32 {
    let mut out: Option<PathBuf> = None;
    let mut loc: usize = 0; // 0 = paper scale, unscaled
    let mut seed: Option<u64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out = Some(PathBuf::from(p)),
                    None => {
                        eprintln!("gen: --out needs a directory");
                        return EXIT_USAGE;
                    }
                }
            }
            "--loc" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n > 0 => loc = n,
                    _ => {
                        eprintln!("gen: --loc needs a positive line count");
                        return EXIT_USAGE;
                    }
                }
            }
            "--seed" => {
                i += 1;
                match args.get(i).and_then(|s| s.parse::<u64>().ok()) {
                    Some(s) => seed = Some(s),
                    None => {
                        eprintln!("gen: --seed needs an integer");
                        return EXIT_USAGE;
                    }
                }
            }
            other => {
                eprintln!("gen: unknown option `{other}`");
                return EXIT_USAGE;
            }
        }
        i += 1;
    }
    let Some(out) = out else {
        eprintln!("gen: missing --out DIR");
        return EXIT_USAGE;
    };
    let base = adsafe::corpus::ApolloSpec::paper_scale();
    let base_loc: usize = base.modules.iter().map(|m| m.loc).sum();
    let factor = if loc == 0 {
        1.0
    } else {
        loc as f64 / base_loc as f64
    };
    let spec = adsafe::corpus::ApolloSpec {
        modules: base.modules.iter().map(|m| m.scaled(factor)).collect(),
        seed: seed.unwrap_or(base.seed),
    };
    let files = adsafe::corpus::generate(&spec);
    let mut lines = 0usize;
    for gf in &files {
        let path = out.join(&gf.path);
        if let Some(parent) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("gen: cannot create {}: {e}", parent.display());
                return EXIT_IO;
            }
        }
        if let Err(e) = std::fs::write(&path, &gf.text) {
            eprintln!("gen: cannot write {}: {e}", path.display());
            return EXIT_IO;
        }
        lines += gf.text.lines().count();
    }
    println!(
        "generated {} files, {} lines ({} modules, seed {}) under {}",
        files.len(),
        lines,
        spec.modules.len(),
        spec.seed,
        out.display()
    );
    EXIT_OK
}

fn cmd_tables() -> i32 {
    listing(|out| {
        for table in [
            adsafe::iso26262::TableId::CodingGuidelines,
            adsafe::iso26262::TableId::ArchitecturalDesign,
            adsafe::iso26262::TableId::UnitDesign,
        ] {
            writeln!(
                out,
                "{} (paper Table {})",
                table.title(),
                table.paper_number()
            )?;
            for t in adsafe::iso26262::all_topics().filter(|t| t.table == table) {
                let lv = t.levels;
                writeln!(
                    out,
                    "  {:2}) {:<75} {:>2} {:>2} {:>2} {:>2}",
                    t.row,
                    t.name,
                    lv[0].notation(),
                    lv[1].notation(),
                    lv[2].notation(),
                    lv[3].notation()
                )?;
            }
            writeln!(out)?;
        }
        Ok(EXIT_OK)
    })
}
