//! End-to-end integration of the query-rule subsystem: the bundled
//! rules reproduce the retired native checkers' findings (exact counts
//! and rendered findings recorded from them) on both the per-file pass
//! and the pipeline, byte-identical reports across worker counts and
//! cache states with packs active, pack-fault containment, and parser
//! robustness properties. The native checkers' pipeline findings are
//! pinned against a rule-major reference on the same sources, and a
//! resident facts store's replay against a cold run and a disk-cache
//! round trip.

use adsafe::checkers::{default_checks, AnalysisSet, CheckScope, Diagnostic, Severity};
use adsafe::corpus::{corrupt, generate, ApolloSpec, Corruption};
use adsafe::facts::{self, FactsRecord};
use adsafe::lang::SourceMap;
use adsafe::rulequery::ast::{CmpOp, Expr};
use adsafe::rulequery::{parse_pack, pretty_pack, RuleDecl, RulePack, Selector, SeverityKw};
use adsafe::{render, Assessment, AssessmentOptions, AssessmentReport, MemoryFactsStore};
use proptest::prelude::*;
use std::sync::Arc;

/// A file that makes the nesting-depth and param-count rules fire —
/// the generated corpus exercises the other three bundled rules.
fn stress_source() -> String {
    let mut s = String::from(
        "int deep(int a, int b, int c, int d, int e, int f, int g) {\n\
         \x20 if (a) { if (b) { if (c) { if (d) { if (e) { if (f) { g = 1; } } } } } }\n\
         \x20 return g;\n}\n\
         int big(int x) {\n",
    );
    for i in 0..105 {
        s.push_str(&format!("  x = x + {i};\n"));
    }
    s.push_str("  return x;\n}\n");
    s
}

fn corpus_sources() -> Vec<(String, String, String)> {
    let mut out: Vec<(String, String, String)> = generate(&ApolloSpec::test_scale())
        .into_iter()
        .map(|f| (f.module, f.path, f.text))
        .collect();
    out.push(("stress".into(), "stress/stress.cc".into(), stress_source()));
    out
}

/// Integer literals spelled every way MISRA 7.1 cares about, in code,
/// in a directive, and in a disabled region; the directive's macro name
/// is one the macro-naming pass flags.
const EDGE_SOURCE: &str = "#define fileMode 0755\n\
int f(int x) { return x + 010 + 017u + 0 + 00 + 08 + 0x1F + 0L; }\n\
float g() { return 0.5f + 01.5; }\n\
#if 0\nint dead = 012;\n#endif\n";

/// [`corpus_sources`] plus [`EDGE_SOURCE`], clean and then under each
/// `faultinject` corruption (invalid UTF-8 replaced lossily, as the
/// pipeline ingests it).
fn source_sets() -> Vec<(&'static str, Vec<(String, String, String)>)> {
    let mut clean = corpus_sources();
    clean.push(("stress".into(), "stress/edge.cc".into(), EDGE_SOURCE.into()));
    let mut sets = vec![("clean", clean.clone())];
    for kind in Corruption::ALL {
        let corrupted = clean
            .iter()
            .map(|(module, path, text)| {
                let bytes = corrupt(7, kind, path, text);
                (module.clone(), path.clone(), String::from_utf8_lossy(&bytes).into_owned())
            })
            .collect();
        sets.push((kind.name(), corrupted));
    }
    sets
}

/// Parses `sources` into a set numbered like the pipeline numbers them.
/// A file whose parse or facts extraction panics is left out, as the
/// pipeline leaves it out of the checks (it falls to token-only
/// metrics).
fn analysis_set(sources: &[(String, String, String)]) -> AnalysisSet {
    let mut set = AnalysisSet::new();
    for (module, path, text) in sources {
        let id = set.sm.add_file(path, text);
        let sm = &set.sm;
        let parsed = std::panic::catch_unwind(|| {
            let parsed = adsafe::lang::parse_source(id, sm.file(id).text());
            facts::extract_facts(sm, id, &parsed);
            parsed
        });
        if let Ok(parsed) = parsed {
            set.add_parsed(module, id, parsed);
        }
    }
    set
}

/// `misra-7.1-octal` reads the literals recorded during the parse's
/// lex; a second preprocess + lex of every file finds the same ones.
#[test]
fn octal_rule_matches_a_second_lex() {
    for (name, sources) in source_sets() {
        let set = analysis_set(&sources);
        let mut relexed = Vec::new();
        for (&id, _, _) in set.parsed() {
            let pre = adsafe::lang::preprocess::preprocess(id, set.sm.file(id).text());
            for t in adsafe::lang::lexer::lex(id, &pre.text) {
                let lexeme = &pre.text[t.span.start as usize..t.span.end as usize];
                let digits = lexeme.trim_end_matches(['u', 'U', 'l', 'L']);
                if t.kind == adsafe::lang::token::TokenKind::IntLit
                    && digits.len() > 1
                    && digits.starts_with('0')
                    && digits.bytes().all(|b| b.is_ascii_digit())
                {
                    relexed.push(Diagnostic::new(
                        "misra-7.1-octal",
                        Severity::Warning,
                        t.span,
                        format!("octal constant `{lexeme}`"),
                    ));
                }
            }
        }
        if name == "clean" {
            assert_eq!(relexed.len(), 4, "010, 017u, 00 and 08");
        }
        let rule = default_checks().into_iter().find(|c| c.id() == "misra-7.1-octal").unwrap();
        assert_eq!(rule.run(&set.context()), relexed, "{name}");
    }
}

/// The pipeline's native findings — one task per file, program-scoped
/// rules replayed from facts — equal a rule-major reference: each
/// native rule over the whole-program context, plus the macro-naming
/// pass, canonically sorted. At several worker counts, on clean and
/// corrupted sources.
#[test]
fn pipeline_native_findings_equal_a_rule_major_reference() {
    let checks = default_checks();
    let canonical = |d: &Diagnostic| (d.check_id, d.span.file, d.span.start);
    for (name, sources) in source_sets() {
        let set = analysis_set(&sources);
        let cx = set.context();
        let mut reference: Vec<Diagnostic> = checks.iter().flat_map(|c| c.run(&cx)).collect();
        for (_, _, parsed) in set.parsed() {
            reference.extend(adsafe::checkers::naming::check_macros(&parsed.pp));
        }
        reference.sort_by_key(canonical);
        if name == "clean" {
            assert!(reference.iter().any(|d| d.check_id == "naming-macro"));
        }
        for jobs in [1, 2, 4] {
            let mut a =
                Assessment::new().with_options(AssessmentOptions { jobs, ..Default::default() });
            for (module, path, text) in &sources {
                a.add_file(module, path, text);
            }
            let report = a.run();
            let native: Vec<Diagnostic> = report
                .diagnostics
                .into_iter()
                .filter(|d| checks.iter().any(|c| c.id() == d.check_id))
                .collect();
            assert!(native == reference, "{name} at jobs {jobs}");
        }
    }
}

/// A resident store hands back the records an earlier run built, whose
/// diagnostic spans still name that run's `FileId`s; the pipeline's
/// replay must rebind them. With one file prepended, every cached
/// file's id shifts, and a warm run from the resident store must equal
/// both a cold run and a warm run from the disk cache (a JSON round
/// trip): diagnostics, spans included, and report bytes. Report bytes
/// alone would not catch a missed rebinding — a stale id can leave the
/// rendered report unchanged while the diagnostics differ. Runs on
/// [`corpus_sources`] clean and with every third file under each
/// `faultinject` corruption, so cached replays mix with files that
/// re-parse (a degraded file is never cached).
#[test]
fn resident_replay_rebinds_file_ids() {
    let run = |sources: &[(String, String, String)],
               jobs: usize,
               cache_dir: Option<std::path::PathBuf>,
               store: Option<&Arc<MemoryFactsStore>>| {
        let mut a = Assessment::new().with_options(AssessmentOptions {
            jobs,
            cache_dir,
            store: store.cloned(),
            ..AssessmentOptions::default()
        });
        for (module, path, text) in sources {
            a.add_file(module, path, text);
        }
        a.run()
    };
    let memory_hits = |r: &AssessmentReport| {
        r.trace.counters.iter().find(|(n, _)| n == "store.memory_hits").map_or(0, |(_, v)| *v)
    };
    let first: (String, String, String) =
        ("aaa".into(), "aaa/first.cc".into(), "int First(int x) { return x; }\n".into());
    let mut sets = vec![("clean", corpus_sources())];
    for kind in Corruption::ALL {
        let mut sources = corpus_sources();
        for (_, path, text) in sources.iter_mut().step_by(3) {
            let bytes = corrupt(7, kind, path, text);
            *text = String::from_utf8_lossy(&bytes).into_owned();
        }
        sets.push((kind.name(), sources));
    }
    for (name, sources) in sets {
        let shifted: Vec<_> =
            std::iter::once(first.clone()).chain(sources.iter().cloned()).collect();
        for jobs in [1, 0] {
            let cold = run(&shifted, jobs, None, None);
            let cold_bytes = render::deterministic_report_markdown(&cold);

            let dir = std::env::temp_dir()
                .join(format!("adsafe-rebind-{}-{name}-{jobs}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            run(&sources, jobs, Some(dir.clone()), None);
            let disk = run(&shifted, jobs, Some(dir.clone()), None);
            let _ = std::fs::remove_dir_all(&dir);

            let store = Arc::new(MemoryFactsStore::open(None));
            run(&sources, jobs, None, Some(&store));
            let resident = run(&shifted, jobs, None, Some(&store));
            // Only this test in the binary uses a resident store, so the
            // global counter delta is this run's.
            assert!(memory_hits(&resident) > 0, "{name} at jobs {jobs}: no resident replay");

            for (label, warm) in [("disk", &disk), ("resident", &resident)] {
                assert!(
                    warm.diagnostics == cold.diagnostics,
                    "{name} at jobs {jobs}: {label} replay diagnostics differ from cold"
                );
                assert!(
                    render::deterministic_report_markdown(warm) == cold_bytes,
                    "{name} at jobs {jobs}: {label} replay report differs from cold"
                );
            }
        }
    }
}

/// The pipeline's file numbering for [`corpus_sources`], for rendering.
fn corpus_source_map() -> SourceMap {
    let mut sm = SourceMap::new();
    for (_, path, text) in corpus_sources() {
        sm.add_file(path, text);
    }
    sm
}

/// What the retired native checkers reported on [`corpus_sources`]:
/// `(id, finding count, first finding rendered with its function)`.
const NATIVE_FINDINGS: [(&str, usize, &str); 5] = [
    (
        "misra-15.5-multi-exit",
        185,
        "perception/perception_00.cc:32:3 warning [misra-15.5-multi-exit] function \
         `PerceptionWalk0Up` has 2 return statements / early exits \
         | fn=Some(\"apollo::perception::PerceptionWalk0Up\")",
    ),
    (
        "misra-17.2-recursion",
        12,
        "perception/perception_00.cc:32:3 violation [misra-17.2-recursion] function \
         `PerceptionWalk0Up` participates in recursion \
         | fn=Some(\"apollo::perception::PerceptionWalk0Up\")",
    ),
    (
        "structure-function-length",
        16,
        "perception/perception_00.cc:523:3 warning [structure-function-length] function \
         `PerceptionFn8` is 142 lines (limit 100) | fn=Some(\"apollo::perception::PerceptionFn8\")",
    ),
    (
        "structure-nesting-depth",
        1,
        "stress/stress.cc:1:1 warning [structure-nesting-depth] function `deep` nests 6 \
         levels deep (limit 5) | fn=Some(\"deep\")",
    ),
    (
        "structure-param-count",
        1,
        "stress/stress.cc:1:1 info [structure-param-count] function `deep` takes 7 \
         parameters (limit 6) | fn=Some(\"deep\")",
    ),
];

/// Asserts that `diags` (in canonical order) holds exactly the recorded
/// native findings for each bundled rule id.
fn assert_native_findings(diags: &[&Diagnostic], sm: &SourceMap) {
    for (id, count, first) in NATIVE_FINDINGS {
        let mine: Vec<&&Diagnostic> = diags.iter().filter(|d| d.check_id == id).collect();
        assert_eq!(mine.len(), count, "{id}");
        assert_eq!(format!("{} | fn={:?}", mine[0].render(sm), mine[0].function), first);
    }
}

/// The bundled pack, evaluated by the per-file pass over facts, yields
/// exactly what the native checkers it replaced reported — counts,
/// rendered findings and function attribution — and each rule carries
/// the native checker's description and ISO references.
#[test]
fn builtin_pack_matches_native_checkers_byte_for_byte() {
    let pack = RulePack::builtin();
    assert!(pack.faults.is_empty(), "bundled pack must load clean: {:?}", pack.faults);
    let meta: Vec<(&str, CheckScope, &[&str], &str)> =
        pack.rules.iter().map(|r| (r.id, r.scope, r.iso, r.desc)).collect();
    assert_eq!(
        meta,
        [
            ("misra-15.5-multi-exit", CheckScope::File, &["Part6.Table8.Row1"][..],
             "functions shall have a single point of exit at the end"),
            ("misra-17.2-recursion", CheckScope::Program, &["Part6.Table8.Row10"][..],
             "no direct or indirect recursion"),
            ("structure-function-length", CheckScope::File, &["Part6.Table3.Row2"][..],
             "functions shall be of restricted size"),
            ("structure-nesting-depth", CheckScope::File, &["Part6.Table1.Row1"][..],
             "statement nesting shall be limited"),
            ("structure-param-count", CheckScope::File, &["Part6.Table3.Row3"][..],
             "interfaces (parameter lists) shall be of restricted size"),
        ]
    );

    let mut set = AnalysisSet::new();
    for (module, path, text) in corpus_sources() {
        set.add(&module, &path, &text);
    }
    let facts: Vec<_> = set
        .parsed()
        .map(|(id, module, parsed)| (*id, module, facts::extract_facts(&set.sm, *id, parsed)))
        .collect();
    let records: Vec<FactsRecord> = facts.iter().map(|(id, m, f)| (*id, *m, f)).collect();
    let recursive = facts::call_graph(&records).recursive_functions();
    let rules: Vec<_> = pack.rules.iter().collect();
    let mut diags = Vec::new();
    for (id, module, f) in &records {
        for outcome in adsafe::query::eval_file(&rules, *id, module, f, &recursive) {
            diags.extend(outcome.expect("no rule panics").0);
        }
    }
    diags.sort_by_key(|d| (d.check_id, d.span.file, d.span.start));
    let refs: Vec<&Diagnostic> = diags.iter().collect();
    assert_native_findings(&refs, &set.sm);
}

/// A pack of `q-` prefixed clones of the bundled rules, loaded the way
/// the CLI loads user packs (native and bundled ids reserved).
const MIRROR_PACK: &str = r#"
rule "q-multi-exit" {
  iso t8r1
  function where multi_exit
  -> warn "function `{name}` has {returns} return statements / early exits"
}
rule "q-recursion" {
  iso t8r10
  function where recursive
  -> violation "function `{name}` participates in recursion"
}
rule "q-function-length" {
  iso t3r2
  function where nloc > 100
  -> warn "function `{name}` is {nloc} lines (limit 100)"
}
rule "q-nesting-depth" {
  iso t1r1
  function where nesting > 5
  -> warn "function `{name}` nests {nesting} levels deep (limit 5)"
}
rule "q-param-count" {
  iso t3r3
  function where params > 6
  -> info "function `{name}` takes {params} parameters (limit 6)"
}
"#;

fn mirror_pack() -> RulePack {
    let reserved = adsafe::query::reserved_rule_ids();
    let pack = RulePack::from_sources(&[("mirror.aq".into(), MIRROR_PACK.into())], &reserved);
    assert!(pack.faults.is_empty(), "{:?}", pack.faults);
    assert_eq!(pack.rules.len(), 5);
    pack
}

fn run_report(
    jobs: usize,
    rules: Option<Arc<RulePack>>,
    cache_dir: Option<std::path::PathBuf>,
) -> adsafe::AssessmentReport {
    let mut a = Assessment::new().with_options(AssessmentOptions {
        jobs,
        rules,
        cache_dir,
        ..AssessmentOptions::default()
    });
    for (module, path, text) in corpus_sources() {
        a.add_file(&module, &path, &text);
    }
    a.run()
}

/// Through the pipeline (what `adsafe assess` runs), the bundled rules
/// report exactly the retired native checkers' findings, and a user
/// pack's `q-` clones of them report the same findings under their own
/// ids.
#[test]
fn pipeline_query_rules_mirror_native_findings() {
    let report = run_report(2, Some(Arc::new(mirror_pack())), None);
    let sm = corpus_source_map();
    let diags: Vec<&Diagnostic> = report.diagnostics.iter().collect();
    assert_native_findings(&diags, &sm);
    let mirror_ids = [
        ("misra-15.5-multi-exit", "q-multi-exit"),
        ("misra-17.2-recursion", "q-recursion"),
        ("structure-function-length", "q-function-length"),
        ("structure-nesting-depth", "q-nesting-depth"),
        ("structure-param-count", "q-param-count"),
    ];
    let renamed: Vec<Diagnostic> = report
        .diagnostics
        .iter()
        .filter_map(|d| {
            let (bundled, _) = mirror_ids.iter().find(|(_, q)| *q == d.check_id)?;
            let mut d = d.clone();
            d.check_id = bundled;
            Some(d)
        })
        .collect();
    let renamed: Vec<&Diagnostic> = renamed.iter().collect();
    assert_native_findings(&renamed, &sm);
}

/// With a pack active, the deterministic report is byte-identical
/// across worker counts and across cold/warm cache states.
#[test]
fn query_reports_are_deterministic_across_jobs_and_cache() {
    let pack = Arc::new(mirror_pack());
    let serial = run_report(1, Some(Arc::clone(&pack)), None);
    let parallel = run_report(4, Some(Arc::clone(&pack)), None);
    assert_eq!(
        render::deterministic_report_markdown(&serial),
        render::deterministic_report_markdown(&parallel),
        "worker count leaked into the report"
    );

    let dir = std::env::temp_dir().join(format!("adsafe-query-it-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cold = run_report(4, Some(Arc::clone(&pack)), Some(dir.clone()));
    let warm = run_report(2, Some(Arc::clone(&pack)), Some(dir.clone()));
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        render::deterministic_report_markdown(&cold),
        render::deterministic_report_markdown(&warm),
        "cache state leaked into the report"
    );
    assert_eq!(
        render::deterministic_report_markdown(&serial),
        render::deterministic_report_markdown(&cold),
        "cache-backed run diverged from the in-memory run"
    );
}

/// User query rules are report-side only: enabling a pack must not
/// change the compliance verdicts (evidence counts native and bundled
/// ids, which a user pack cannot take).
#[test]
fn query_rules_never_move_compliance_verdicts() {
    let without = run_report(2, None, None);
    let with = run_report(2, Some(Arc::new(mirror_pack())), None);
    assert_eq!(
        without.compliance.blocking_count(),
        with.compliance.blocking_count()
    );
    assert_eq!(
        render::table1(&without).to_ascii(),
        render::table1(&with).to_ascii()
    );
}

/// An empty or comment-only pack is a clean no-rules result, not an
/// error.
#[test]
fn empty_and_comment_only_packs_load_clean() {
    for src in ["", "\n\n", "# nothing but commentary\n# and more\n"] {
        let pack = RulePack::from_sources(&[("empty.aq".into(), src.into())], &[]);
        assert!(pack.rules.is_empty(), "{src:?}");
        assert!(pack.faults.is_empty(), "{src:?}");
    }
}

/// A malformed declaration is skipped with a fault naming file and
/// line; the surviving rules still run and the report is NOT degraded.
#[test]
fn malformed_pack_degrades_to_surviving_rules() {
    let src = "\
rule \"q-good\" { function where multi_exit -> warn \"multi-exit `{name}`\" }\n\
rule \"q-broken\" { function where nosuchfield > 3 -> warn }\n\
rule \"q-also-good\" { function where params > 6 -> info \"params {params}\" }\n";
    let pack = RulePack::from_sources(&[("team.aq".into(), src.into())], &[]);
    let ids: Vec<&str> = pack.rules.iter().map(|r| r.id).collect();
    assert_eq!(ids, ["q-good", "q-also-good"]);
    assert_eq!(pack.faults.len(), 1);
    assert_eq!(pack.faults[0].file, "team.aq");
    assert_eq!(pack.faults[0].line, 2);

    let fault = adsafe::query::pack_fault(&pack.faults[0]);
    let mut a = Assessment::new().with_options(AssessmentOptions {
        rules: Some(Arc::new(pack)),
        ..AssessmentOptions::default()
    });
    a.add_fault(fault);
    for (module, path, text) in corpus_sources() {
        a.add_file(&module, &path, &text);
    }
    let report = a.run();
    assert!(!report.degraded, "an invalid pack must not degrade the run");
    assert!(report.diagnostics.iter().any(|d| d.check_id == "q-good"));
    assert!(report.faults.iter().any(|f| f.to_string().contains("rule pack invalid at line 2")));
}

/// Duplicate ids and collisions with reserved ids — native and bundled
/// alike — are skipped with distinct fault messages.
#[test]
fn duplicate_and_native_colliding_ids_are_skipped() {
    let src = "\
rule \"misra-15.1-goto\" { function where gotos > 0 -> warn }\n\
rule \"misra-15.5-multi-exit\" { function where multi_exit -> warn }\n\
rule \"q-dup\" { function where is_gpu -> info }\n\
rule \"q-dup\" { function where is_kernel -> info }\n";
    let pack = RulePack::from_sources(
        &[("p.aq".into(), src.into())],
        &adsafe::query::reserved_rule_ids(),
    );
    assert_eq!(pack.rules.len(), 1);
    assert_eq!(pack.rules[0].id, "q-dup");
    assert_eq!(pack.faults.len(), 3);
    assert!(pack.faults[0].detail.contains("collides with a built-in rule"), "native id");
    assert!(pack.faults[1].detail.contains("collides with a built-in rule"), "bundled id");
    assert!(pack.faults[2].detail.contains("duplicate rule id"));
}

/// Query rules touching `recursive` are program-scoped; the rest are
/// file-scoped.
#[test]
fn recursive_predicate_lowers_to_program_scope() {
    let pack = mirror_pack();
    let by_id: Vec<(&str, CheckScope)> = pack.rules.iter().map(|r| (r.id, r.scope)).collect();
    for (id, scope) in by_id {
        let expected =
            if id == "q-recursion" { CheckScope::Program } else { CheckScope::File };
        assert_eq!(scope, expected, "{id}");
    }
}

// ---------------------------------------------------------------------
// Parser robustness properties.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The pack parser is total on arbitrary printable bytes: it never
    /// panics, and every error carries a plausible 1-based line.
    #[test]
    fn query_parser_is_total_on_byte_soup(src in "[ -~\n\t]{0,300}") {
        let (_, errors) = parse_pack(&src);
        let lines = src.lines().count().max(1) as u32;
        for e in errors {
            prop_assert!(e.line >= 1 && e.line <= lines, "line {} of {}", e.line, lines);
        }
    }

    /// Totality on keyword soup, which stresses the recovery sync
    /// points harder than uniform ASCII.
    #[test]
    fn query_parser_is_total_on_keyword_soup(
        toks in proptest::collection::vec(
            prop_oneof![
                Just("rule"), Just("{"), Just("}"), Just("->"), Just("where"),
                Just("desc"), Just("iso"), Just("function"), Just("global"),
                Just("file"), Just("in"), Just("module"), Just("and"), Just("or"),
                Just("not"), Just("=="), Just("\"x\""), Just("42"), Just("t8r1"),
                Just("warn"), Just("violation"), Just("("), Just(")"),
            ],
            0..60,
        )
    ) {
        let src = toks.join(" ");
        let _ = parse_pack(&src);
    }
}

/// Deterministic xorshift64* generator for the round-trip property —
/// seeds come from proptest so failures shrink to a seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn gen_expr(rng: &mut Rng, sel: Selector, depth: usize) -> Expr {
    let fields = adsafe::rulequery::schema::fields(sel);
    let field = |rng: &mut Rng| fields[rng.below(fields.len())].0.to_string();
    let primary = |rng: &mut Rng| match rng.below(4) {
        0 => Expr::Int(rng.next() as i64 % 1000),
        1 => Expr::Str(format!("s{}", rng.below(10))),
        2 => Expr::Bool(rng.below(2) == 0),
        _ => Expr::Field(field(rng)),
    };
    let choice = if depth == 0 { rng.below(2) } else { rng.below(5) };
    match choice {
        0 => Expr::Field(field(rng)),
        1 => {
            const OPS: [CmpOp; 6] =
                [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
            Expr::Cmp(
                OPS[rng.below(OPS.len())],
                Box::new(primary(rng)),
                Box::new(primary(rng)),
            )
        }
        2 => Expr::Not(Box::new(gen_expr(rng, sel, depth - 1))),
        3 => Expr::And(
            Box::new(gen_expr(rng, sel, depth - 1)),
            Box::new(gen_expr(rng, sel, depth - 1)),
        ),
        _ => Expr::Or(
            Box::new(gen_expr(rng, sel, depth - 1)),
            Box::new(gen_expr(rng, sel, depth - 1)),
        ),
    }
}

fn gen_rule(rng: &mut Rng, i: usize) -> RuleDecl {
    let selector =
        [Selector::Function, Selector::Global, Selector::File][rng.below(3)];
    RuleDecl {
        id: format!("gen-rule-{i}"),
        line: 0,
        desc: (rng.below(2) == 0).then(|| format!("generated rule {i}")),
        iso: (0..rng.below(3))
            .map(|_| format!("Part6.Table{}.Row{}", 1 + rng.below(8), 1 + rng.below(10)))
            .collect(),
        selector,
        module: (rng.below(3) == 0).then(|| format!("mod{}", rng.below(4))),
        where_expr: (rng.below(4) != 0).then(|| gen_expr(rng, selector, 2)),
        severity: [SeverityKw::Info, SeverityKw::Warn, SeverityKw::Violation][rng.below(3)],
        message: (rng.below(2) == 0).then(|| format!("finding {{{}}} #{i}", "name")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// parse → pretty → parse is the identity on generated ASTs: the
    /// pretty-printer is a faithful canonical form of the language.
    #[test]
    fn pretty_printed_packs_round_trip(seed in 0u64..u64::MAX, n in 1usize..4) {
        let mut rng = Rng(seed);
        let rules: Vec<RuleDecl> = (0..n).map(|i| gen_rule(&mut rng, i)).collect();
        let printed = pretty_pack(&rules);
        let (mut reparsed, errors) = parse_pack(&printed);
        prop_assert!(errors.is_empty(), "errors {errors:?} in:\n{printed}");
        for r in &mut reparsed {
            r.line = 0;
        }
        prop_assert_eq!(&reparsed, &rules, "round-trip drift through:\n{}", printed);
        // And the printed form is itself a fixed point.
        let again = pretty_pack(&reparsed);
        prop_assert_eq!(again, printed);
    }
}
