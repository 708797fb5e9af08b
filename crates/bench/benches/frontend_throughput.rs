//! Frontend throughput at Apollo scale: lex, parse, and facts
//! extraction over the full ≈220k-LOC paper-scale corpus (seed
//! `0x26262`), with the instrumented allocator measuring bytes
//! allocated per line and the peak live footprint. Writes
//! `BENCH_frontend.json` (schema `adsafe-bench-frontend/1`) plus a
//! `BENCH_frontend_gate.json` twin in the `adsafe-bench-pipeline/1`
//! schema `adsafe trace-compare` parses — the CI gate covers the three
//! stage times and the `bytes_per_loc` pseudo-phase at the same 2×
//! factor.
//!
//! The corpus is generated in memory and never touches disk, so bench
//! runs are self-cleaning by construction. Regenerate the committed
//! baselines with:
//!
//! ```text
//! cargo bench -p adsafe-bench --bench frontend_throughput -- BENCH_frontend.json
//! ```

use adsafe::corpus::{generate, ApolloSpec};
use adsafe::lang::{lexer, parse_source, SourceMap};
use adsafe::trace::alloc;
use adsafe::trace::bench::BenchBaseline;
use std::time::Instant;

/// The run billed is the fastest of this many, discarding warm-up.
const RUNS: usize = 3;

/// Counting allocator: every measurement below is real allocator
/// traffic, not an estimate.
#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// One full frontend pass over the corpus: per-stage wall ms and
/// allocated bytes, plus the peak live watermark across the pass.
struct Pass {
    lex_ms: f64,
    parse_ms: f64,
    facts_ms: f64,
    lex_bytes: u64,
    parse_bytes: u64,
    facts_bytes: u64,
    peak_live: u64,
}

impl Pass {
    fn total_ms(&self) -> f64 {
        self.lex_ms + self.parse_ms + self.facts_ms
    }

    fn total_bytes(&self) -> u64 {
        self.lex_bytes + self.parse_bytes + self.facts_bytes
    }
}

fn main() {
    let out_path = std::env::args()
        .skip(1)
        .find(|a| a.ends_with(".json"))
        .unwrap_or_else(|| "BENCH_frontend.json".to_string());

    alloc::set_profiling(true);
    let spec = ApolloSpec::paper_scale();
    let files = generate(&spec);
    let loc: u64 = files.iter().map(|f| f.text.lines().count() as u64).sum();
    eprintln!(
        "frontend_throughput: {} files, {loc} lines (seed {:#x}) x{RUNS} ...",
        files.len(),
        spec.seed
    );

    let mut sm = SourceMap::new();
    let ids: Vec<_> = files
        .iter()
        .map(|f| sm.add_file(&f.path, &f.text))
        .collect();

    let mut best: Option<Pass> = None;
    for run in 0..RUNS {
        alloc::reset_peak();

        let b0 = alloc::total_allocated();
        let t0 = Instant::now();
        let mut tokens = 0usize;
        for (f, &id) in files.iter().zip(&ids) {
            tokens += lexer::lex(id, &f.text).len();
        }
        let lex_ms = t0.elapsed().as_secs_f64() * 1000.0;
        let lex_bytes = alloc::total_allocated().saturating_sub(b0);

        let b1 = alloc::total_allocated();
        let t1 = Instant::now();
        let parsed: Vec<_> = files
            .iter()
            .zip(&ids)
            .map(|(f, &id)| parse_source(id, &f.text))
            .collect();
        let parse_ms = t1.elapsed().as_secs_f64() * 1000.0;
        let parse_bytes = alloc::total_allocated().saturating_sub(b1);

        let b2 = alloc::total_allocated();
        let t2 = Instant::now();
        let mut functions = 0usize;
        for (p, &id) in parsed.iter().zip(&ids) {
            functions += adsafe::facts::extract_facts(&sm, id, p).functions.len();
        }
        let facts_ms = t2.elapsed().as_secs_f64() * 1000.0;
        let facts_bytes = alloc::total_allocated().saturating_sub(b2);

        let pass = Pass {
            lex_ms,
            parse_ms,
            facts_ms,
            lex_bytes,
            parse_bytes,
            facts_bytes,
            peak_live: alloc::peak_live_bytes(),
        };
        eprintln!(
            "  run {}: lex {:.0} ms, parse {:.0} ms, facts {:.0} ms; \
             {} tokens, {} functions, {:.1} bytes/line, peak {} MiB",
            run + 1,
            pass.lex_ms,
            pass.parse_ms,
            pass.facts_ms,
            tokens,
            functions,
            pass.total_bytes() as f64 / loc as f64,
            pass.peak_live / (1024 * 1024),
        );
        if best
            .as_ref()
            .is_none_or(|prev| pass.total_ms() < prev.total_ms())
        {
            best = Some(pass);
        }
    }
    let best = best.expect("RUNS > 0");

    let loc_per_s = |ms: f64| {
        if ms > 0.0 {
            loc as f64 / (ms / 1000.0)
        } else {
            0.0
        }
    };
    let bytes_per_loc = best.total_bytes() as f64 / loc.max(1) as f64;
    let json = format!(
        "{{\n  \"schema\": \"adsafe-bench-frontend/1\",\n  \
         \"loc\": {loc},\n  \"files\": {},\n  \"seed\": {},\n  \
         \"lex_ms\": {:.3},\n  \"parse_ms\": {:.3},\n  \"facts_ms\": {:.3},\n  \
         \"lex_loc_per_s\": {:.0},\n  \"parse_loc_per_s\": {:.0},\n  \
         \"facts_loc_per_s\": {:.0},\n  \
         \"alloc_bytes\": {},\n  \"bytes_per_loc\": {:.1},\n  \
         \"peak_live_bytes\": {}\n}}\n",
        files.len(),
        spec.seed,
        best.lex_ms,
        best.parse_ms,
        best.facts_ms,
        loc_per_s(best.lex_ms),
        loc_per_s(best.parse_ms),
        loc_per_s(best.facts_ms),
        best.total_bytes(),
        bytes_per_loc,
        best.peak_live,
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("frontend_throughput: cannot write {out_path}: {e}");
        std::process::exit(3);
    }

    // The gate twin: stage times as phases plus `bytes_per_loc` as a
    // pseudo-phase, so one `adsafe trace-compare` run gates both the
    // throughput and the allocation footprint at the same 2× factor.
    let gate = BenchBaseline {
        phases: vec![
            ("lex".to_string(), best.lex_ms),
            ("parse".to_string(), best.parse_ms),
            ("facts".to_string(), best.facts_ms),
            ("bytes_per_loc".to_string(), bytes_per_loc),
        ],
        total_ms: best.total_ms(),
        counters: vec![("frontend.loc".to_string(), loc)],
    };
    let gate_path = format!("{}_gate.json", out_path.trim_end_matches(".json"));
    if let Err(e) = std::fs::write(&gate_path, gate.to_json()) {
        eprintln!("frontend_throughput: cannot write {gate_path}: {e}");
        std::process::exit(3);
    }
    println!("{json}");
    eprintln!("frontend_throughput: baselines written to {out_path} and {gate_path}");
}
