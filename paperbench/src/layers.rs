//! The traced run's layer walk: every layer's public entry points,
//! called from here under spans over the seeded corpus, each timing
//! turned into a named per-layer metric.

use crate::client::{assess_body, Client};
use crate::corpus::{self, WorkDir};
use crate::spans::{Recorder, Site};
use crate::stats::median;
use adsafe::cache::{CacheLookup, FactsCache, FactsStore};
use adsafe::checkers::{default_checks, run_checks, CheckContext, FileEntry};
use adsafe::facts::{self, FactsRecord, FileFacts};
use adsafe::iso26262::Asil;
use adsafe::lang::{lexer, parse_source, FileId, ParsedFile, SourceMap};
use adsafe::pool::Pool;
use adsafe::render::deterministic_report_markdown;
use adsafe::rulequery::RulePack;
use adsafe::trace::alloc;
use adsafe::trace::json::Json;
use adsafe::{Assessment, AssessmentOptions, MemoryFactsStore};
use adsafe_ledger::{Ledger, RunRecord};
use adsafe_serve::{ServeConfig, Server};
use std::sync::Arc;

/// One named figure with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Warm daemon requests timed per traced run.
const SERVE_REQUESTS: usize = 16;
/// Repeats of the calls too short to time once.
const REPEATS: usize = 5;

const MB: f64 = 1024.0 * 1024.0;

/// Walks every layer over the corpus for `seed`, recording spans in
/// `rec`, and returns the per-layer metrics. Leaves allocation
/// profiling off.
pub fn walk(seed: u64, rec: &Recorder) -> Result<Vec<Metric>, String> {
    let site = Site::root(Some(rec), 0, 0);
    let mut out = Vec::new();
    let mut put = |name, value, unit| out.push(Metric { name, value, unit });
    let total_ms = |name: &str| rec.durations_ms(name).iter().sum::<f64>();
    let median_ms = |name: &str| median(&rec.durations_ms(name));

    let spec = corpus::spec(seed);
    let files = adsafe::corpus::generate(&spec);
    let loc: usize = files.iter().map(|f| f.text.lines().count()).sum();
    let mut sm = SourceMap::new();
    let ids: Vec<FileId> = files
        .iter()
        .map(|f| sm.add_file(&f.path, &f.text))
        .collect();

    // adsafe-lang: serial lex and parse, then the same pass again with
    // the allocator counting, every parse tree held to the end as the
    // pipeline holds them.
    let lex_all = || {
        files
            .iter()
            .zip(&ids)
            .map(|(f, &id)| lexer::lex(id, &f.text).len())
            .sum::<usize>()
    };
    let parse_all = || {
        files
            .iter()
            .zip(&ids)
            .map(|(f, &id)| parse_source(id, &f.text))
            .collect::<Vec<_>>()
    };
    let tokens = site.span("lang.lex", |_| lex_all());
    let parsed: Vec<ParsedFile> = site.span("lang.parse", |_| parse_all());
    alloc::set_profiling(true);
    alloc::reset_peak();
    let (live0, bytes0) = (alloc::live_bytes(), alloc::total_allocated());
    std::hint::black_box(lex_all());
    let held = std::hint::black_box(parse_all());
    let (bytes, peak) = (
        alloc::total_allocated() - bytes0,
        alloc::peak_live_bytes().saturating_sub(live0),
    );
    drop(held);
    alloc::set_profiling(false);
    put("lang.lex_ms", total_ms("lang.lex"), "ms");
    put("lang.parse_ms", total_ms("lang.parse"), "ms");
    put("lang.tokens", tokens as f64, "count");
    put(
        "lang.alloc_bytes_per_loc",
        bytes as f64 / loc as f64,
        "B/LOC",
    );
    put("lang.peak_live_mb", peak as f64 / MB, "MB");

    // facts: extract, then the cache's JSON encoding both ways.
    let facts: Vec<FileFacts> = site.span("facts.extract", |_| {
        parsed
            .iter()
            .zip(&ids)
            .map(|(p, &id)| facts::extract_facts(&sm, id, p))
            .collect()
    });
    let jsons: Vec<String> = site.span("facts.encode", |_| {
        facts.iter().map(FileFacts::to_json).collect()
    });
    let decoded = site.span("facts.decode", |_| {
        jsons
            .iter()
            .zip(&ids)
            .filter(|(j, &id)| FileFacts::from_json(j, id).is_ok())
            .count()
    });
    if decoded != files.len() {
        return Err(format!(
            "facts decode failed on {} of {} files",
            files.len() - decoded,
            files.len()
        ));
    }
    put("facts.extract_ms", total_ms("facts.extract"), "ms");
    put("facts.encode_ms", total_ms("facts.encode"), "ms");
    put("facts.decode_ms", total_ms("facts.decode"), "ms");
    put(
        "facts.json_bytes",
        jsons.iter().map(String::len).sum::<usize>() as f64,
        "bytes",
    );

    // cache: a cold pass (every lookup misses, every file is stored),
    // then a warm pass over the same keys.
    let work = WorkDir::create("layers").map_err(|e| format!("work dir: {e}"))?;
    let hashes: Vec<u64> = files
        .iter()
        .map(|f| adsafe::content_hash(&f.path, &f.text))
        .collect();
    let cache = FactsCache::open(&work.path().join("cache"));
    let (mut hits, mut misses) = (0usize, 0usize);
    let mut tally = |l: CacheLookup| match l {
        CacheLookup::Hit(_) => hits += 1,
        CacheLookup::Miss | CacheLookup::Corrupt(_) => misses += 1,
    };
    for (i, (&h, &id)) in hashes.iter().zip(&ids).enumerate() {
        tally(FactsStore::load(&cache, h, id));
        site.span("cache.store", |_| {
            cache.store_entry(h, &files[i].path, &facts[i])
        });
    }
    site.span("cache.load", |_| {
        for (&h, &id) in hashes.iter().zip(&ids) {
            tally(FactsStore::load(&cache, h, id));
        }
    });
    put("cache.load_ms", total_ms("cache.load"), "ms");
    put("cache.store_ms", median_ms("cache.store"), "ms");
    put("cache.hits", hits as f64, "count");
    put("cache.misses", misses as f64, "count");

    // store: the daemon's resident store, loaded serially with
    // profiling off, then from `nproc` threads with it on.
    let store = MemoryFactsStore::open(None);
    for (i, &h) in hashes.iter().enumerate() {
        store.store_entry(h, &files[i].path, &facts[i]);
    }
    site.span("store.load", |_| {
        for (&h, &id) in hashes.iter().zip(&ids) {
            std::hint::black_box(store.load(h, id));
        }
    });
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    alloc::set_profiling(true);
    site.span("store.load_profiled", |_| {
        std::thread::scope(|s| {
            for t in 0..threads {
                let (store, hashes, ids) = (&store, &hashes, &ids);
                s.spawn(move || {
                    for i in (t..hashes.len()).step_by(threads) {
                        std::hint::black_box(store.load(hashes[i], ids[i]));
                    }
                });
            }
        })
    });
    alloc::set_profiling(false);
    put("store.load_ms", total_ms("store.load"), "ms");
    put(
        "store.load_profiled_ms",
        total_ms("store.load_profiled"),
        "ms",
    );
    put("store.bytes", store.bytes() as f64, "bytes");

    // adsafe-checkers: the native rule set over the whole program.
    let entries: Vec<FileEntry> = parsed
        .iter()
        .zip(&ids)
        .zip(&files)
        .map(|((p, &id), f)| FileEntry {
            file: sm.file(id),
            unit: &p.unit,
            module: &f.module,
        })
        .collect();
    let cx = CheckContext::new(&sm, entries);
    let checks = default_checks();
    let native = site.span("checkers.native", |_| run_checks(&checks, &cx));
    put("checkers.native_ms", total_ms("checkers.native"), "ms");
    put("checkers.diagnostics", native.len() as f64, "count");

    // adsafe-query: compile the bundled pack, evaluate it over rows
    // built from the facts records, as the pipeline does.
    let pack = site.span("query.compile", |_| RulePack::builtin());
    let records: Vec<FactsRecord> = ids
        .iter()
        .zip(&files)
        .zip(&facts)
        .map(|((&id, f), x)| (id, f.module.as_str(), x))
        .collect();
    let recursive = facts::call_graph(&records).recursive_functions();
    let query_diags = site.span("query.eval", |_| {
        let mut n = 0;
        for rule in &pack.rules {
            let scope_set: &[String] = if rule.scope == adsafe::checkers::CheckScope::Program {
                &recursive
            } else {
                &[]
            };
            for &(id, module, x) in &records {
                let rows = adsafe::query::rows_from_facts(rule.selector, id, module, x, scope_set);
                n += rule.eval_rows(&rows).0.len();
            }
        }
        n
    });
    put("query.compile_ms", total_ms("query.compile"), "ms");
    put("query.eval_ms", total_ms("query.eval"), "ms");
    put("query.diagnostics", query_diags as f64, "count");

    // adsafe-metrics: one module summary per module.
    let modules: Vec<&str> = spec.modules.iter().map(|m| m.name.as_str()).collect();
    site.span("metrics.module", |_| {
        for m in &modules {
            let mine: Vec<&FileFacts> = files
                .iter()
                .zip(&facts)
                .filter(|(f, _)| f.module == *m)
                .map(|(_, x)| x)
                .collect();
            std::hint::black_box(facts::module_metrics_from_facts(m, &mine));
        }
    });
    put("metrics.module_ms", total_ms("metrics.module"), "ms");
    drop(cx);
    drop(parsed);

    // pipeline: cold, warm from a resident store, warm with profiling.
    let mut cold = Assessment::new().with_options(AssessmentOptions {
        jobs: 0,
        ..AssessmentOptions::default()
    });
    let resident = Arc::new(MemoryFactsStore::open(None));
    let mut warm = Assessment::new().with_options(AssessmentOptions {
        jobs: 0,
        store: Some(Arc::clone(&resident)),
        ..AssessmentOptions::default()
    });
    for f in &files {
        cold.add_file(&f.module, &f.path, &f.text);
        warm.add_file(&f.module, &f.path, &f.text);
    }
    let report = site.span("pipeline.cold_run", |_| cold.run());
    crate::check::Expected::from_spec(&spec).verify(&report)?;
    warm.run();
    for _ in 0..REPEATS {
        site.span("pipeline.warm_run", |_| warm.run());
    }
    alloc::set_profiling(true);
    for _ in 0..REPEATS {
        site.span("pipeline.warm_run_profiled", |_| warm.run());
    }
    alloc::set_profiling(false);
    let warm_ms = median_ms("pipeline.warm_run");
    let warm_profiled_ms = median_ms("pipeline.warm_run_profiled");
    put("pipeline.cold_run_ms", total_ms("pipeline.cold_run"), "ms");
    put("pipeline.warm_run_ms", warm_ms, "ms");
    put("pipeline.warm_run_profiled_ms", warm_profiled_ms, "ms");
    put(
        "trace.alloc_overhead_ratio",
        warm_profiled_ms / warm_ms,
        "ratio",
    );

    // adsafe-iso26262: the compliance judgement alone is microseconds,
    // so time a batch and report one call.
    const JUDGEMENTS: usize = 200;
    site.span("iso26262.assess", |_| {
        for _ in 0..JUDGEMENTS {
            std::hint::black_box(adsafe::iso26262::assess(&report.evidence, Asil::D));
        }
    });
    put(
        "iso26262.assess_ms",
        total_ms("iso26262.assess") / JUDGEMENTS as f64,
        "ms",
    );

    // render: the deterministic report, the control that should not move.
    let md = site.span("render.report", |_| deterministic_report_markdown(&report));
    put("render.report_ms", total_ms("render.report"), "ms");
    put("render.report_bytes", md.len() as f64, "bytes");

    // adsafe-pool: the parse fan-out at one worker and at `nproc`.
    let parse_with = |jobs: usize| {
        let pool = Pool::new(jobs);
        pool.map((0..files.len()).collect(), |_, i| {
            drop(std::hint::black_box(parse_source(ids[i], &files[i].text)))
        })
    };
    site.span("pool.parse_jobs1", |_| parse_with(1));
    site.span("pool.parse_jobs0", |_| parse_with(0));
    put(
        "pool.parse_speedup",
        total_ms("pool.parse_jobs1") / total_ms("pool.parse_jobs0"),
        "ratio",
    );

    // adsafe-ledger: appends of one run record.
    let ledger = Ledger::open(&work.path().join("ledger")).map_err(|e| format!("ledger: {e}"))?;
    let record = RunRecord::from_report(
        &report,
        "r000001-bench",
        1,
        "corpus",
        "digest",
        files.len() as u64,
        1,
    );
    for _ in 0..REPEATS {
        site.span("ledger.append", |_| ledger.append(&record))
            .map_err(|e| format!("ledger append: {e}"))?;
    }
    put("ledger.append_ms", median_ms("ledger.append"), "ms");

    // adsafe-serve: warm requests to a fresh daemon, timed from the
    // client; the daemon's own view comes from its `/requests` rows.
    let root = work.path().join("corpus");
    corpus::write_tree(&root, &files).map_err(|e| format!("writing the corpus: {e}"))?;
    let pack_path = work.path().join("bench.aq");
    std::fs::write(&pack_path, corpus::bench_rule_pack())
        .map_err(|e| format!("writing the pack: {e}"))?;
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        rules: Some(pack_path),
        ..ServeConfig::default()
    })
    .map_err(|e| format!("starting the daemon: {e}"))?;
    let mut client = Client::new(server.addr());
    let body = assess_body(&root);
    for i in 0..=SERVE_REQUESTS {
        let reply = site.span(
            if i == 0 {
                "serve.cold_request"
            } else {
                "serve.request"
            },
            |_| client.request("POST", "/assess", &body),
        );
        match reply {
            Ok(r) if r.status == 200 => {}
            Ok(r) => return Err(format!("POST /assess answered {}", r.status)),
            Err(e) => return Err(format!("POST /assess: {e}")),
        }
    }
    let rows = client
        .request("GET", "/requests?endpoint=assess", "")
        .map_err(|e| format!("GET /requests: {e}"))?
        .body;
    drop(client);
    server.stop();
    alloc::set_profiling(false);
    let (queue, write, alloc_mb) = request_rows(&String::from_utf8_lossy(&rows));
    let served = rec.durations_ms("serve.request");
    let request_ms = median(&served);
    let quarter = (served.len() / 4).max(1);
    put("serve.request_ms", request_ms, "ms");
    put("serve.overhead_ms", request_ms - warm_profiled_ms, "ms");
    put("serve.queue_wait_ms", median(&queue), "ms");
    put("serve.write_ms", median(&write), "ms");
    put("serve.alloc_mb_per_request", median(&alloc_mb), "MB");
    put(
        "serve.latency_drift",
        median(&served[served.len() - quarter..]) / median(&served[..quarter]),
        "ratio",
    );
    Ok(out)
}

/// Per warm request in the daemon's `/requests` log: queue wait and
/// response write (ms) and allocated MB. The first row, the cold
/// request, is skipped; a request without a `queue_wait` phase (any
/// but a connection's first) waited 0 ms.
fn request_rows(jsonl: &str) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (mut queue, mut write, mut alloc_mb) = (Vec::new(), Vec::new(), Vec::new());
    for line in jsonl.lines().filter(|l| !l.trim().is_empty()).skip(1) {
        let Ok(row) = Json::parse(line) else { continue };
        let phase_ms = |name: &str| {
            row.get("phases")
                .and_then(Json::as_arr)
                .and_then(|ps| {
                    ps.iter()
                        .find(|p| p.get("name").and_then(Json::as_str) == Some(name))
                })
                .and_then(|p| p.get("dur_us").and_then(Json::as_f64))
                .map_or(0.0, |us| us / 1000.0)
        };
        queue.push(phase_ms("queue_wait"));
        write.push(phase_ms("write"));
        alloc_mb.push(row.get("alloc_bytes").and_then(Json::as_f64).unwrap_or(0.0) / MB);
    }
    (queue, write, alloc_mb)
}
