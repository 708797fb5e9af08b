//! `paperbench`: adsafe's end-to-end benchmark on the paper-scale
//! corpus (seed `0x26262` by default: 162 files, ~245k lines).
//!
//! ```text
//! paperbench --workload cold|edit|serve [--seed N] [--seconds S] [--trace 0|1]
//! paperbench --steadiness RUNS [--workload W] [--seconds S]
//! ```
//!
//! A timed run (`--trace 0`) sets the workload up several times,
//! runs its closed loop for `S` seconds, checks every operation's
//! output against known answers, and prints the end-to-end metrics.
//! Timings are scaled to a reference host speed by a probe taken
//! before every operation (see `host`); the unscaled figures are
//! printed above the result. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//!
//! A traced run (`--trace 1`) walks every layer's public entry points
//! under spans, runs the workload loop half untraced and half traced,
//! prints the per-layer metrics the same way, and writes the spans as
//! Chrome trace JSON next to the executable.
//!
//! `--steadiness RUNS` re-runs this executable `RUNS` times per
//! workload (seeds 1..=RUNS) and prints each end-to-end metric's
//! median, quartiles and spread (interquartile range over median).
//!
//! Everything the benchmark writes goes into a directory next to its
//! executable and is removed before it exits.

mod check;
mod client;
mod corpus;
mod host;
mod layers;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;
use workloads::{Kind, OpLog, Prepared};

/// The shipped `adsafe` binary installs the counting allocator; so does
/// the benchmark, or the daemon's always-on profiling would be a no-op
/// here and the benchmark would measure a different program.
#[global_allocator]
static ALLOC: adsafe::trace::alloc::CountingAlloc = adsafe::trace::alloc::CountingAlloc;

/// Set-ups per timed run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;

const DEFAULT_SEED: u64 = 0x26262;

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    steadiness: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        steadiness: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                args.workload =
                    Some(Kind::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => args.seed = parse_u64(value()?)?,
            "--seconds" => {
                args.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds must be positive")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--steadiness" => {
                args.steadiness = Some(parse_u64(value()?)? as usize).filter(|&n| n >= 2);
                if args.steadiness.is_none() {
                    return Err("--steadiness needs at least 2 runs".into());
                }
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    if args.workload.is_none() && args.steadiness.is_none() {
        return Err("--workload cold|edit|serve is required".into());
    }
    Ok(args)
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|_| format!("`{s}` is not a number"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("paperbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.steadiness, args.workload) {
        (Some(runs), only) => steadiness(runs, only, args.seconds),
        (None, Some(kind)) if args.trace => traced(kind, args.seed, args.seconds),
        (None, Some(kind)) => timed(kind, args.seed, args.seconds),
        (None, None) => unreachable!("parse_args requires a workload"),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("paperbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Files and lines of the corpus for `seed`.
fn corpus_size(seed: u64) -> (usize, usize) {
    let files = corpus::files(seed);
    (
        files.len(),
        files.iter().map(|f| f.text.lines().count()).sum(),
    )
}

/// Operation counts of a run, with the end-of-run check counted as one
/// more operation where the workload has one.
struct Tally {
    attempted: usize,
    failed: usize,
}

impl Tally {
    fn of(logs: &[&OpLog], final_check: Option<&Result<(), String>>) -> Tally {
        let mut errors: Vec<&str> = Vec::new();
        let mut attempted = 0;
        for log in logs {
            attempted += log.samples.len();
            errors.extend(
                log.samples
                    .iter()
                    .filter_map(|s| s.result.as_ref().err())
                    .map(String::as_str),
            );
        }
        if let Some(f) = final_check {
            attempted += 1;
            errors.extend(f.as_ref().err().map(String::as_str));
        }
        for e in errors.iter().take(5) {
            eprintln!("paperbench: operation failed: {e}");
        }
        Tally {
            attempted,
            failed: errors.len(),
        }
    }
}

/// The result line: the last line of standard output.
fn print_result(tally: &Tally, metrics: &[(&str, f64, &str)]) {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0,
        tally.attempted,
        tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() {
            format!("{value}")
        } else {
            "null".into()
        };
        out.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    out.push_str("}}");
    println!("{out}");
}

/// Sets the workload up `SETUP_ROUNDS` times, keeping the last; returns
/// it with the median set-up time in seconds, scaled to the reference
/// host speed by a probe taken before each round.
fn set_up(kind: Kind, seed: u64) -> Result<(Prepared, f64), String> {
    let mut times = Vec::with_capacity(SETUP_ROUNDS);
    let mut probes = Vec::with_capacity(SETUP_ROUNDS);
    let mut probe = host::Probe::new();
    let mut prepared = None;
    for round in 0..SETUP_ROUNDS {
        // The previous round's daemon and directory go before the next
        // round's clock starts.
        drop(prepared.take());
        probes.push(probe.sample());
        let t0 = Instant::now();
        prepared = Some(workloads::prepare(kind, seed, round)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let scale = host::REFERENCE_PROBE_MS / stats::median(&probes);
    println!("setup_s rounds: {times:.3?} (unscaled), host scale {scale:.4}");
    Ok((
        prepared.expect("SETUP_ROUNDS > 0"),
        stats::median(&times) * scale,
    ))
}

/// A timed run: the end-to-end metrics.
fn timed(kind: Kind, seed: u64, seconds: f64) -> Result<(), String> {
    let calib_start = host::calibrate();
    let (prepared, setup_s) = set_up(kind, seed)?;
    let log = prepared.run_loop(seconds, None);
    // Read before the end-of-run check, whose in-process assessment is
    // the benchmark's work, not the workload's.
    let peak_rss = peak_rss_mb();
    let final_check = prepared.final_check();
    drop(prepared);
    let calib_end = host::calibrate();

    let tally = Tally::of(&[&log], final_check.as_ref());
    let scale = log.host_scale();
    let ms = log.scaled_ms();
    // The latency limit is what a caller waits, so it applies unscaled.
    let correct = log.samples.iter().filter(|s| s.result.is_ok());
    let ok_in_slo = correct.clone().filter(|s| s.ms <= kind.slo_ms()).count();
    let correct = correct.count();
    let (tail, pct, n) = stats::tail(&ms);
    let raw_ms: Vec<f64> = log.samples.iter().map(|s| s.ms).collect();
    let (files, loc) = corpus_size(seed);
    println!(
        "paperbench {} seed {seed:#x}: {files} files, {loc} lines; {n} operations in {:.1} s",
        kind.name(),
        log.wall_s
    );
    println!(
        "latency_tail_ms is p{pct} over {n} samples (limit {} ms)",
        kind.slo_ms()
    );
    println!(
        "error_ratio = {} ({} of {})",
        tally.failed as f64 / tally.attempted as f64,
        tally.failed,
        tally.attempted
    );
    println!("host.calib_ms start {calib_start:.3} end {calib_end:.3}");
    println!(
        "host scale {scale:.4} (reference probe {} ms); unscaled: p50 {:.3} ms, tail {:.3} ms, {:.4} ops/s",
        host::REFERENCE_PROBE_MS,
        stats::median(&raw_ms),
        stats::tail(&raw_ms).0,
        correct as f64 / log.wall_s
    );
    print_result(
        &tally,
        &[
            ("latency_p50_ms", stats::median(&ms), "ms"),
            ("latency_tail_ms", tail, "ms"),
            (
                "throughput_ops_s",
                correct as f64 / (log.wall_s * scale),
                "1/s",
            ),
            (
                "slo_ratio",
                ok_in_slo as f64 / ms.len().max(1) as f64,
                "ratio",
            ),
            ("peak_rss_mb", peak_rss, "MB"),
            ("setup_s", setup_s, "s"),
        ],
    );
    Ok(())
}

/// A traced run: the per-layer metrics.
fn traced(kind: Kind, seed: u64, seconds: f64) -> Result<(), String> {
    let calib_start = host::calibrate();
    let rec = spans::Recorder::new();
    // The walk runs before set-up: it toggles allocation profiling,
    // which the `serve` daemon must own once it starts.
    let layer_metrics = layers::walk(seed, &rec)?;
    let prepared = workloads::prepare(kind, seed, 0)?;
    let untraced = prepared.run_loop(seconds / 2.0, None);
    let traced = prepared.run_loop(seconds / 2.0, Some(&rec));
    let final_check = prepared.final_check();
    drop(prepared);
    let calib_end = host::calibrate();

    let tally = Tally::of(&[&untraced, &traced], final_check.as_ref());
    let p50 = |log: &OpLog| stats::median(&log.scaled_ms());
    let overhead = p50(&traced) / p50(&untraced);

    let trace_path = std::env::current_exe()
        .map_err(|e| format!("locating the executable: {e}"))?
        .with_file_name(format!("paperbench-trace-{}.json", kind.name()));
    let chrome = rec.to_chrome_json();
    adsafe::trace::json::Json::parse(&chrome)
        .map_err(|e| format!("trace JSON does not parse: {e}"))?;
    std::fs::write(&trace_path, &chrome)
        .map_err(|e| format!("writing {}: {e}", trace_path.display()))?;
    println!(
        "paperbench {} seed {seed:#x}: traced run, {} spans written to {}",
        kind.name(),
        rec.spans().len(),
        trace_path.display()
    );
    println!("host.calib_ms start {calib_start:.3} end {calib_end:.3}");

    let mut metrics: Vec<(&str, f64, &str)> = layer_metrics
        .iter()
        .map(|m| (m.name, m.value, m.unit))
        .collect();
    metrics.push(("bench.trace_overhead_ratio", overhead, "ratio"));
    metrics.push(("host.calib_ms", (calib_start + calib_end) / 2.0, "ms"));
    print_result(&tally, &metrics);
    Ok(())
}

/// End-to-end metric names, in output order.
const END_TO_END: [&str; 6] = [
    "latency_p50_ms",
    "latency_tail_ms",
    "throughput_ops_s",
    "slo_ratio",
    "peak_rss_mb",
    "setup_s",
];

/// Runs this executable `runs` times per workload on unchanged code and
/// prints each end-to-end metric's median, quartiles and spread.
fn steadiness(runs: usize, only: Option<Kind>, seconds: f64) -> Result<(), String> {
    use adsafe::trace::json::Json;
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let kinds: Vec<Kind> = only.map_or(Kind::ALL.to_vec(), |k| vec![k]);
    for kind in kinds {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); END_TO_END.len()];
        let mut all_correct = true;
        for seed in 1..=runs as u64 {
            let out = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    kind.name(),
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .args(["--trace", "0"])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("running {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let result = Json::parse(last)
                .map_err(|e| format!("{} seed {seed}: no result line ({e})", kind.name()))?;
            all_correct &= matches!(result.get("correct"), Some(Json::Bool(true)));
            for (i, name) in END_TO_END.iter().enumerate() {
                let v = result
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"));
                values[i].push(v.and_then(Json::as_f64).unwrap_or(f64::NAN));
            }
            eprintln!("steadiness {} seed {seed}: {last}", kind.name());
        }
        println!(
            "{} over {runs} runs of {seconds} s (all correct: {all_correct})",
            kind.name()
        );
        println!(
            "  {:<18} {:>12} {:>12} {:>12} {:>8}",
            "metric", "q1", "median", "q3", "spread"
        );
        for (name, vs) in END_TO_END.iter().zip(&values) {
            let [q1, q2, q3] = stats::quartiles(vs);
            println!(
                "  {name:<18} {q1:>12.4} {q2:>12.4} {q3:>12.4} {:>8.4}",
                (q3 - q1) / q2
            );
        }
    }
    Ok(())
}
