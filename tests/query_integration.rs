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
use adsafe::rulequery::{parse_pack, pretty_pack, Arm, RuleDecl, RulePack, Selector, SeverityKw};
use adsafe::{render, Assessment, AssessmentOptions, MemoryFactsStore};
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

/// `(module, path, text)` per file, in ingest order.
type Sources = Vec<(String, String, String)>;

fn corpus_sources() -> Sources {
    let mut out: Sources = generate(&ApolloSpec::test_scale())
        .into_iter()
        .map(|f| (f.module, f.path, f.text))
        .collect();
    out.push(("stress".into(), "stress/stress.cc".into(), stress_source()));
    out
}

/// Integer literals spelled every way MISRA 7.1 cares about, in code,
/// in a directive, and in a disabled region; the directive's macro name
/// is one `naming-macro` flags.
const EDGE_SOURCE: &str = "#define fileMode 0755\n\
int f(int x) { return x + 010 + 017u + 0 + 00 + 08 + 0x1F + 0L; }\n\
float g() { return 0.5f + 01.5; }\n\
#if 0\nint dead = 012;\n#endif\n";

/// Declarations the five rules ported from native checkers judge: a
/// variadic function, kernels with named, unnamed and no pointer
/// parameters, balanced and unbalanced device allocation, checked and
/// unchecked launches, and globals of every storage kind.
const PORTED_SOURCE: &str = "int g_count;\n\
static float* g_buf = 0;\n\
const int kLimit = 8;\n\
extern int g_other;\n\
namespace ns { unsigned long g_ticks; }\n\
int log_msg(const char* fmt, ...) { return 0; }\n\
__global__ void fill(float* out, const float*, int n) { out[0] = 1.0f; }\n\
__global__ void tick(int n) { }\n\
void leak(int n) { float* d; cudaMalloc((void**)&d, n); fill<<<1, 32>>>(d, d, n); }\n\
void tidy(int n) {\n\
  float* d; cudaMalloc((void**)&d, n); fill<<<1, 32>>>(d, d, n);\n\
  cudaGetLastError(); cudaFree(d);\n\
}\n";

/// Construct occurrences the site rules judge: `goto`, the comma
/// operator (in a statement and in a `for` header), switches with a
/// `default`, without one, and with one only in an inner block,
/// multi-declarator statements in a body and at file scope (the latter
/// not flagged), and unions at file and namespace scope and inside a
/// class (the latter not flagged). `tail` adds code after a `return`,
/// `break` or `goto` in nested blocks and at the top level, with a
/// label, `case` or `default` making what follows reachable again;
/// side effects in the right operand of `&&` and `||`, directly and
/// nested in a ternary, cast or index; a `throw` in a file with no
/// `try`; must-check calls discarded and used; and pointer parameters
/// dereferenced through `*p`, `p[i]` and `p->m`, tested and untested.
const SITE_SOURCE: &str = "int a, b;\n\
union Word { int i; float f; };\n\
namespace hw { union Reg { unsigned raw; int bits; }; }\n\
class Packet { public: union Payload { int i; float f; }; int n; };\n\
int route(int x, int y) {\n\
  int lo = 0, hi = 10, mid;\n\
  for (int i = 0, j = 9; i < j; i++, j--) { lo = lo + i; }\n\
  switch (x) { case 0: lo = 1; break; default: break; }\n\
  switch (y) { case 1: { default: hi = 2; } break; }\n\
  switch (x) { case 2: break; }\n\
  lo = 1, hi = 2;\n\
  if (x < 0) goto fail;\n\
  return lo + hi;\n\
fail:\n\
  return -1;\n\
}\n\
int step();\n\
int tail(int x, int* p, int* q, int* r, int* s, int* t, int* u, Packet* pk, Packet* pv) {\n\
  if (!q) return 0;\n\
  assert(s);\n\
  if (x > 0) { return 1; x = 2; }\n\
  while (x) { x--; break; x++; }\n\
  if (x) { goto done; x = 4; }\n\
  if (x) { goto next; next: x = 5; }\n\
  switch (x) { case 5: { x = 1; break; case 6: x = 2; break; default: x = 3; } }\n\
  switch (x) { case 7: { x = 1; break; x = 2; } }\n\
  if (x && x++) x = 6;\n\
  if (x || step()) x = 7;\n\
  if (x && (x > 1 ? x-- : 0)) x = 8;\n\
  if (x || (int)step()) x = 9;\n\
  if (x && t[x++]) x = 10;\n\
  if (x++ && x > 1) x = 11;\n\
  cudaMalloc(&p, 4);\n\
  fopen(\"log\", \"r\");\n\
  if (cudaMalloc(&p, 4) != 0) return -1;\n\
  int st = cudaGetLastError();\n\
  x = *p + q[0] + s[0] + *u + r[1] + r[2] + pk->n;\n\
  if (pv) x = pv->n;\n\
  if (x < 0) throw x;\n\
done:\n\
  x = x + 1;\n\
  return x;\n\
  x = 12;\n\
}\n";

/// Every message form of the dynamic-memory, cast and naming rules:
/// `malloc`, `calloc` and `free`, `new`, `new[]`, `delete` and
/// `delete[]`, every named cast, a C-style and a functional one
/// (`int(d)`), records, enums and aliases named both ways (a `*_t`
/// alias included) at file and namespace scope, and macros in
/// `UPPER_SNAKE`, lower case and an include guard's trailing `_`.
const FORMS_SOURCE: &str = "#define MAX_LEN 8\n\
#define maxLen 8\n\
#define FORMS_H_\n\
struct packet_t { int n; };\n\
struct Packet { int n; };\n\
enum class drive_mode { kIdle };\n\
enum class DriveMode { kRun };\n\
typedef unsigned int frame_id_t;\n\
typedef int frame_count;\n\
typedef int FrameCount;\n\
namespace ns { struct inner_type { int x; }; enum Mode { kOn }; }\n\
int forms(double d, const int* cp, Packet* b) {\n\
  int* p = (int*)malloc(4 * sizeof(int));\n\
  int* q = new int;\n\
  int* r = new int[4];\n\
  float* f = static_cast<float*>(calloc(2, 4));\n\
  long l = reinterpret_cast<long>(p);\n\
  int* w = const_cast<int*>(cp);\n\
  Packet* pk = dynamic_cast<Packet*>(b);\n\
  int k = int(d);\n\
  free(p);\n\
  delete q;\n\
  delete[] r;\n\
  return k + (int)l;\n\
}\n";

/// Closed-source library calls of every library, through a plain call,
/// a member call and a kernel launch, with a lookalike that is not one;
/// implicit narrowings by initialisation and by assignment, beside a
/// widening, a comparison and a redeclared name that an assignment
/// resolves against its last declaration; and locals named both ways,
/// a `kConstant` among them, `const` and not.
const LIBS_SOURCE: &str = "int infer(float* x, double d, int n, Engine& eng) {\n\
  int k = d;\n\
  short s = 0;\n\
  s = d;\n\
  float f = 0.5;\n\
  f = d + 1;\n\
  double w = n;\n\
  bool b = d > 1.0;\n\
  int late = 0;\n\
  late = wide;\n\
  double wide = 2.0;\n\
  int v = 0;\n\
  { double v = 1.0; w = v; }\n\
  v = 2.5;\n\
  int FrameCount = 0;\n\
  int frame_total = 1;\n\
  const int kLimit = 4;\n\
  int kBad = 1;\n\
  cublasSgemm(0); cudnnConvolutionForward(0); nvinferCreate(0);\n\
  TensorRTBuild(0); cufftExecC2C(0); CUSPARSE_create(0); my_gemm(0);\n\
  cublas_gemm_kernel<<<1, 32>>>(x, n);\n\
  eng.cudnnDestroy(0);\n\
  int err = cudaGetLastError();\n\
  return k + s + err;\n\
}\n";

/// A header with no include guard.
const HEADER_SOURCE: &str = "int api_version();\n";

/// A `throw` in a file whose `try` is in another function: no finding.
const GUARDED_SOURCE: &str = "int step();\n\
void guard() { try { step(); } catch (int e) { } }\n\
void raise(int x) { if (x < 0) throw x; }\n";

/// [`corpus_sources`] plus [`EDGE_SOURCE`], [`PORTED_SOURCE`],
/// [`SITE_SOURCE`], [`GUARDED_SOURCE`], [`FORMS_SOURCE`],
/// [`LIBS_SOURCE`] and three headers — unguarded, guarded and
/// `#pragma once` — clean and then under each
/// `faultinject` corruption (invalid UTF-8 replaced lossily, as the
/// pipeline ingests it).
fn source_sets() -> Vec<(&'static str, Sources)> {
    let mut clean = corpus_sources();
    clean.push(("stress".into(), "stress/edge.cc".into(), EDGE_SOURCE.into()));
    clean.push((
        "stress".into(),
        "stress/ported.cu".into(),
        PORTED_SOURCE.into(),
    ));
    clean.push((
        "stress".into(),
        "stress/sites.cc".into(),
        SITE_SOURCE.into(),
    ));
    clean.push((
        "stress".into(),
        "stress/guarded.cc".into(),
        GUARDED_SOURCE.into(),
    ));
    clean.push((
        "stress".into(),
        "stress/forms.cc".into(),
        FORMS_SOURCE.into(),
    ));
    clean.push(("stress".into(), "stress/libs.cu".into(), LIBS_SOURCE.into()));
    for (path, text) in [
        ("stress/api.h", HEADER_SOURCE.to_string()),
        (
            "stress/guarded.hpp",
            format!("#ifndef GUARDED_HPP_\n#define GUARDED_HPP_\n{HEADER_SOURCE}#endif\n"),
        ),
        ("stress/once.cuh", format!("#pragma once\n{HEADER_SOURCE}")),
    ] {
        clean.push(("stress".into(), path.into(), text));
    }
    let mut sets = vec![("clean", clean.clone())];
    for kind in Corruption::ALL {
        let corrupted = clean
            .iter()
            .map(|(module, path, text)| {
                let bytes = corrupt(7, kind, path, text);
                (
                    module.clone(),
                    path.clone(),
                    String::from_utf8_lossy(&bytes).into_owned(),
                )
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

/// `misra-7.1-octal` reads the octal sites recorded during the parse's
/// lex; a second preprocess + lex of every file finds the same ones as
/// the pipeline reports.
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
        let mut a = Assessment::new();
        for (module, path, text) in &sources {
            a.add_file(module, path, text);
        }
        let report = a.run();
        let octal: Vec<&Diagnostic> = report.diagnostics_for("misra-7.1-octal");
        assert_eq!(octal, relexed.iter().collect::<Vec<_>>(), "{name}");
    }
}

/// The pipeline's native findings — one task per file, program-scoped
/// rules replayed from facts — equal a rule-major reference: each
/// native rule over the whole-program context, canonically sorted. At several worker counts, on clean and
/// corrupted sources.
#[test]
fn pipeline_native_findings_equal_a_rule_major_reference() {
    let checks = default_checks();
    let canonical = |d: &Diagnostic| (d.check_id, d.span.file, d.span.start);
    for (name, sources) in source_sets() {
        let set = analysis_set(&sources);
        let cx = set.context();
        let mut reference: Vec<Diagnostic> = checks.iter().flat_map(|c| c.run(&cx)).collect();
        reference.sort_by_key(canonical);
        if name == "clean" {
            assert!(reference.iter().any(|d| d.check_id == "style-line"));
        }
        for jobs in [1, 2, 4] {
            let mut a = Assessment::new().with_options(AssessmentOptions {
                jobs,
                ..Default::default()
            });
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
    let first: (String, String, String) = (
        "aaa".into(),
        "aaa/first.cc".into(),
        "int First(int x) { return x; }\n".into(),
    );
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
        let shifted: Vec<_> = std::iter::once(first.clone())
            .chain(sources.iter().cloned())
            .collect();
        for jobs in [1, 0] {
            let cold = run(&shifted, jobs, None, None);
            let cold_bytes = render::deterministic_report_markdown(&cold);

            let dir = std::env::temp_dir().join(format!(
                "adsafe-rebind-{}-{name}-{jobs}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            run(&sources, jobs, Some(dir.clone()), None);
            let disk = run(&shifted, jobs, Some(dir.clone()), None);
            let _ = std::fs::remove_dir_all(&dir);

            let store = Arc::new(MemoryFactsStore::open(None));
            run(&sources, jobs, None, Some(&store));
            let resident = run(&shifted, jobs, None, Some(&store));
            // Only this test in the binary uses a resident store, so the
            // global counter delta is this run's.
            assert!(
                resident.trace.counter("store.memory_hits") > 0,
                "{name} at jobs {jobs}: no resident replay"
            );

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
        assert_eq!(
            format!("{} | fn={:?}", mine[0].render(sm), mine[0].function),
            first
        );
    }
}

/// The bundled pack, evaluated by the per-file pass over facts, yields
/// exactly what the native checkers it replaced reported — counts,
/// rendered findings and function attribution — and each rule carries
/// the native checker's description and ISO references.
#[test]
fn builtin_pack_matches_native_checkers_byte_for_byte() {
    let pack = RulePack::builtin();
    assert!(
        pack.faults.is_empty(),
        "bundled pack must load clean: {:?}",
        pack.faults
    );
    let meta: Vec<(&str, CheckScope, &[&str], &str)> = pack
        .rules
        .iter()
        .map(|r| (r.id, r.scope, r.iso, r.desc))
        .collect();
    assert_eq!(
        meta,
        [
            (
                "misra-15.5-multi-exit",
                CheckScope::File,
                &["Part6.Table8.Row1"][..],
                "functions shall have a single point of exit at the end"
            ),
            (
                "misra-17.2-recursion",
                CheckScope::Program,
                &["Part6.Table8.Row10"][..],
                "no direct or indirect recursion"
            ),
            (
                "structure-function-length",
                CheckScope::File,
                &["Part6.Table3.Row2"][..],
                "functions shall be of restricted size"
            ),
            (
                "structure-nesting-depth",
                CheckScope::File,
                &["Part6.Table1.Row1"][..],
                "statement nesting shall be limited"
            ),
            (
                "structure-param-count",
                CheckScope::File,
                &["Part6.Table3.Row3"][..],
                "interfaces (parameter lists) shall be of restricted size"
            ),
            (
                "misra-17.1-variadic",
                CheckScope::File,
                &["Part6.Table1.Row2"][..],
                "variadic functions shall not be defined"
            ),
            (
                "design-global-variable",
                CheckScope::File,
                &["Part6.Table1.Row5", "Part6.Table8.Row5"][..],
                "avoid global variables or justify their usage"
            ),
            (
                "cuda-kernel-pointer",
                CheckScope::File,
                &["Part6.Table8.Row6", "Part6.Table1.Row2"][..],
                "CUDA kernels take raw pointers, contrary to limited-pointer-use guidance"
            ),
            (
                "cuda-alloc-balance",
                CheckScope::File,
                &["Part6.Table8.Row2"][..],
                "device allocations shall be freed (cudaMalloc/cudaFree balance)"
            ),
            (
                "cuda-launch-unchecked",
                CheckScope::File,
                &["Part6.Table1.Row4"][..],
                "kernel launches shall be followed by an error check"
            ),
            (
                "misra-15.1-goto",
                CheckScope::File,
                &["Part6.Table1.Row2", "Part6.Table8.Row9"][..],
                "goto statements (unconditional jumps) shall not be used"
            ),
            (
                "misra-12.3-comma",
                CheckScope::File,
                &["Part6.Table1.Row2"][..],
                "the comma operator should not be used"
            ),
            (
                "misra-19.2-union",
                CheckScope::File,
                &["Part6.Table1.Row3"][..],
                "unions should not be used"
            ),
            (
                "misra-16.4-switch-default",
                CheckScope::File,
                &["Part6.Table1.Row4"][..],
                "every switch statement shall have a default label"
            ),
            (
                "misra-7.1-octal",
                CheckScope::File,
                &["Part6.Table1.Row2"][..],
                "octal constants shall not be used"
            ),
            (
                "misra-decl-one-per-stmt",
                CheckScope::File,
                &["Part6.Table1.Row7"][..],
                "one declarator per declaration statement"
            ),
            (
                "misra-2.1-unreachable",
                CheckScope::File,
                &["Part6.Table1.Row1"][..],
                "no unreachable code"
            ),
            (
                "misra-13.5-side-effect",
                CheckScope::File,
                &["Part6.Table8.Row8"][..],
                "no side effects in the RHS of && / ||"
            ),
            (
                "design-exception-discipline",
                CheckScope::File,
                &["Part6.Table1.Row5"][..],
                "exceptions shall be caught; throw without try/catch risks terminate"
            ),
            (
                "defensive-unchecked-return",
                CheckScope::File,
                &["Part6.Table1.Row4"][..],
                "callers shall handle all return values of called functions"
            ),
            (
                "defensive-pointer-param",
                CheckScope::File,
                &["Part6.Table1.Row4"][..],
                "pointer parameters shall be validated before dereference"
            ),
            (
                "misra-21.3-dynamic-memory",
                CheckScope::File,
                &["Part6.Table8.Row2", "Part6.Table8.Row6"][..],
                "no dynamic objects or variables (malloc/new/cudaMalloc)"
            ),
            (
                "typing-explicit-cast",
                CheckScope::File,
                &["Part6.Table1.Row3"][..],
                "explicit type casts weaken strong typing and require review"
            ),
            (
                "naming-type",
                CheckScope::File,
                &["Part6.Table1.Row8"][..],
                "type names shall be UpperCamelCase"
            ),
            (
                "naming-macro",
                CheckScope::File,
                &["Part6.Table1.Row8"][..],
                "macros shall be UPPER_SNAKE_CASE"
            ),
            (
                "cuda-closed-source-lib",
                CheckScope::File,
                &["Part6.Table1.Row2"][..],
                "closed-source GPU libraries hamper ISO 26262 compliance assessment"
            ),
            (
                "typing-implicit-conversion",
                CheckScope::File,
                &["Part6.Table8.Row7"][..],
                "no implicit narrowing type conversions"
            ),
            (
                "naming-variable",
                CheckScope::File,
                &["Part6.Table1.Row8"][..],
                "variables shall be lower_snake_case"
            ),
            (
                "style-include-guard",
                CheckScope::File,
                &["Part6.Table1.Row7"][..],
                "headers shall have include guards"
            ),
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
    let pass = adsafe::query::QueryPass::new(pack.rules.iter().collect());
    let mut diags = Vec::new();
    for (id, module, f) in &records {
        for outcome in pass.eval_file(*id, module, f, &recursive) {
            diags.extend(outcome.expect("no rule panics").0);
        }
    }
    diags.sort_by_key(|d| (d.check_id, d.span.file, d.span.start));
    let refs: Vec<&Diagnostic> = diags.iter().collect();
    assert_native_findings(&refs, &set.sm);
}

/// The twenty-four bundled rules that were native checkers until their
/// `.aq` ports were proven equal to them: five function and global
/// rules, eleven site rules, four multi-arm site rules, then four site
/// rules over one body or one file.
const PORTED_IDS: [&str; 24] = [
    "misra-17.1-variadic",
    "cuda-kernel-pointer",
    "cuda-alloc-balance",
    "cuda-launch-unchecked",
    "design-global-variable",
    "misra-15.1-goto",
    "misra-12.3-comma",
    "misra-16.4-switch-default",
    "misra-19.2-union",
    "misra-7.1-octal",
    "misra-decl-one-per-stmt",
    "misra-2.1-unreachable",
    "misra-13.5-side-effect",
    "design-exception-discipline",
    "defensive-unchecked-return",
    "defensive-pointer-param",
    "misra-21.3-dynamic-memory",
    "typing-explicit-cast",
    "naming-type",
    "naming-macro",
    "cuda-closed-source-lib",
    "typing-implicit-conversion",
    "naming-variable",
    "style-include-guard",
];

/// What the retired native checkers reported on each of
/// [`source_sets`]: the finding count per rule of [`PORTED_IDS`], and an
/// FNV-1a digest of all their findings, each rendered with its
/// enclosing function as [`rendered`] renders it, in that rule order.
/// The first eleven rules' findings on `stress/sites.cc` and
/// `stress/guarded.cc` (the `design-global-variable` ones from
/// `int a, b;` included) came from the bundled rules when those files
/// joined or grew, after the rules' natives were retired; the last five
/// rules' came from their natives, and so did the last four rules',
/// `stress/forms.cc` included. The one `design-global-variable`
/// finding each that `stress/forms.cc` adds under `byte-flips` and
/// `non-utf8-noise` (a declaration the parser's recovery turns global)
/// came from the bundled rule when that file joined, and so did the
/// twelve, fourteen and four such findings `stress/libs.cu` adds under
/// `delete-braces`, `byte-flips` and `non-utf8-noise`. The last four
/// rules' findings came from their natives, on every file. Two fixes
/// re-recorded three rows from the bundled rules: `int(d)` in
/// `stress/forms.cc` became a functional cast, one more
/// `typing-explicit-cast` finding on `clean` and `non-utf8-noise`, and
/// code after a jump directly in a `switch` body became unreachable,
/// five more `misra-2.1-unreachable` findings each on `delete-braces`
/// and `byte-flips`.
const PORTED_FINDINGS: [(&str, [usize; 24], u64); 5] = [
    (
        "clean",
        [
            1, 2, 3, 2, 84, 12, 2, 110, 2, 4, 2, 5, 5, 1, 11, 6, 14, 87, 4, 2, 9, 32, 2, 1,
        ],
        0x568b7c420687f414,
    ),
    (
        "truncate",
        [
            1, 1, 2, 1, 84, 12, 2, 45, 2, 0, 2, 4, 5, 0, 6, 5, 5, 72, 4, 2, 1, 24, 0, 1,
        ],
        0x19d7213993440532,
    ),
    (
        "delete-braces",
        [
            1, 0, 2, 1, 151, 2, 41, 13, 1, 4, 0, 35, 0, 0, 9, 0, 5, 10, 1, 2, 1, 2, 43, 1,
        ],
        0x8a5f7bb062a78337,
    ),
    (
        "byte-flips",
        [
            1, 1, 1, 3, 161, 0, 81, 22, 2, 47, 3, 15, 0, 0, 5, 0, 6, 11, 4, 1, 1, 1, 74, 3,
        ],
        0xed10e422f1abffe7,
    ),
    (
        "non-utf8-noise",
        [
            1, 2, 2, 2, 88, 10, 2, 89, 2, 4, 2, 6, 5, 1, 9, 4, 13, 68, 4, 1, 8, 24, 2, 3,
        ],
        0x31ae54d488034718,
    ),
];

/// The retired natives' first finding per rule of [`PORTED_IDS`] on the
/// clean set.
const PORTED_FIRST: [&str; 24] = [
    "stress/ported.cu:6:1 warning [misra-17.1-variadic] function `log_msg` is variadic \
     | fn=Some(\"log_msg\")",
    "perception/cuda/perception_op0.cu:4:1 warning [cuda-kernel-pointer] kernel \
     `perception_op0_kernel` takes 2 raw pointer parameter(s): output, biases \
     | fn=Some(\"perception_op0_kernel\")",
    "perception/cuda/perception_op0.cu:13:1 warning [cuda-alloc-balance] function \
     `perception_op0_gpu` has 2 device allocation(s) and fewer frees \
     | fn=Some(\"perception_op0_gpu\")",
    "perception/cuda/perception_op0.cu:13:1 warning [cuda-launch-unchecked] function \
     `perception_op0_gpu` launches 1 kernel(s) without querying errors \
     | fn=Some(\"perception_op0_gpu\")",
    "perception/perception_00.cc:7:3 warning [design-global-variable] global variable \
     `g_perception_state_0: int` defined | fn=None",
    "perception/perception_00.cc:87:7 violation [misra-15.1-goto] unconditional jump \
     `goto cleanup` | fn=Some(\"apollo::perception::PerceptionFn0\")",
    "stress/sites.cc:7:31 warning [misra-12.3-comma] comma operator used | fn=Some(\"route\")",
    "perception/perception_00.cc:52:5 warning [misra-16.4-switch-default] switch without \
     default label | fn=Some(\"apollo::perception::PerceptionFn0\")",
    "stress/sites.cc:2:1 warning [misra-19.2-union] union `Word` declared | fn=None",
    "stress/edge.cc:2:27 warning [misra-7.1-octal] octal constant `010` | fn=None",
    "stress/sites.cc:6:1 info [misra-decl-one-per-stmt] 3 declarators in one statement \
     | fn=Some(\"route\")",
    "stress/sites.cc:21:24 warning [misra-2.1-unreachable] statement is unreachable \
     | fn=Some(\"tail\")",
    "stress/sites.cc:27:10 warning [misra-13.5-side-effect] right operand of a short-circuit \
     operator has side effects | fn=Some(\"tail\")",
    "stress/sites.cc:39:12 warning [design-exception-discipline] throw with no try/catch in \
     this unit | fn=Some(\"tail\")",
    "perception/cuda/perception_op0.cu:17:3 warning [defensive-unchecked-return] return value \
     of `cudaMalloc` is discarded | fn=Some(\"perception_op0_gpu\")",
    "perception/cuda/perception_op0.cu:9:5 warning [defensive-pointer-param] pointer parameter \
     `output` dereferenced without validation | fn=Some(\"perception_op0_kernel\")",
    "perception/cuda/perception_op0.cu:17:3 violation [misra-21.3-dynamic-memory] dynamic memory \
     API `cudaMalloc` used | fn=Some(\"perception_op0_gpu\")",
    "perception/perception_00.cc:81:12 warning [typing-explicit-cast] C-style cast to `int` \
     | fn=Some(\"apollo::perception::PerceptionFn0\")",
    "stress/forms.cc:4:1 warning [naming-type] type `packet_t` is not UpperCamelCase | fn=None",
    "stress/edge.cc:1:1 info [naming-macro] macro `fileMode` is not UPPER_SNAKE_CASE | fn=None",
    "perception/cuda/perception_op0.cu:23:3 info [cuda-closed-source-lib] call to closed-source \
     cuBLAS API `cublasSgemm` | fn=Some(\"perception_op0_gpu\")",
    "perception/perception_00.cc:84:5 warning [typing-implicit-conversion] implicit narrowing \
     initialisation of `approx: int` | fn=Some(\"apollo::perception::PerceptionFn0\")",
    "stress/libs.cu:15:1 info [naming-variable] variable `FrameCount` is not lower_snake_case \
     | fn=Some(\"infer\")",
    "stress/api.h:1:1 warning [style-include-guard] header `stress/api.h` lacks an include guard \
     | fn=None",
];

/// Every finding of rule `id` in `report`, rendered with its enclosing
/// function.
fn rendered(report: &adsafe::AssessmentReport, sm: &SourceMap, id: &str) -> Vec<String> {
    report
        .diagnostics_for(id)
        .into_iter()
        .map(|d| format!("{} | fn={:?}", d.render(sm), d.function))
        .collect()
}

/// FNV-1a over `lines`, each terminated by a newline.
fn digest(lines: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in lines.iter().flat_map(|l| l.bytes().chain([b'\n'])) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The twenty-four bundled rules ported from native checkers report exactly
/// what the natives did — rendered findings, spans and enclosing
/// functions included — on the clean sources and under every
/// `faultinject` corruption, serial and at one worker per core. The
/// snapshot was recorded from the natives after a differential run
/// showed the `.aq` ports equal to them on these sets.
#[test]
fn ported_rules_reproduce_the_native_findings() {
    let sets = source_sets();
    assert_eq!(sets.len(), PORTED_FINDINGS.len());
    for ((name, sources), (want_name, counts, want_digest)) in sets.into_iter().zip(PORTED_FINDINGS)
    {
        assert_eq!(name, want_name);
        for jobs in [1, 0] {
            let mut a = Assessment::new().with_options(AssessmentOptions {
                jobs,
                ..Default::default()
            });
            for (module, path, text) in &sources {
                a.add_file(module, path, text);
            }
            let report = a.run();
            let mut all = Vec::new();
            for (i, id) in PORTED_IDS.into_iter().enumerate() {
                let mine = rendered(&report, a.sources(), id);
                assert_eq!(mine.len(), counts[i], "{id} on {name} at jobs {jobs}");
                if name == "clean" {
                    assert_eq!(mine[0], PORTED_FIRST[i], "{id} at jobs {jobs}");
                }
                all.extend(mine);
            }
            assert_eq!(digest(&all), want_digest, "{name} at jobs {jobs}");
        }
    }
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

fn corpus_assessment(
    jobs: usize,
    rules: Option<Arc<RulePack>>,
    cache_dir: Option<std::path::PathBuf>,
) -> Assessment {
    let mut a = Assessment::new().with_options(AssessmentOptions {
        jobs,
        rules,
        cache_dir,
        ..AssessmentOptions::default()
    });
    for (module, path, text) in corpus_sources() {
        a.add_file(&module, &path, &text);
    }
    a
}

fn run_report(
    jobs: usize,
    rules: Option<Arc<RulePack>>,
    cache_dir: Option<std::path::PathBuf>,
) -> adsafe::AssessmentReport {
    corpus_assessment(jobs, rules, cache_dir).run()
}

/// Through the pipeline (what `adsafe assess` runs), the bundled rules
/// report exactly the retired native checkers' findings, and a user
/// pack's `q-` clones of them report the same findings under their own
/// ids.
#[test]
fn pipeline_query_rules_mirror_native_findings() {
    let assessment = corpus_assessment(2, Some(Arc::new(mirror_pack())), None);
    let report = assessment.run();
    let sm = assessment.sources();
    let diags: Vec<&Diagnostic> = report.diagnostics.iter().collect();
    assert_native_findings(&diags, sm);
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
    assert_native_findings(&renamed, sm);
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
    // The same cache replays under a run without the pack: the records
    // hold the bundled rules' findings, never a user pack's.
    let bare_warm = run_report(1, None, Some(dir.clone()));
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
    assert_eq!(
        bare_warm.trace.counter("cache.hits"),
        corpus_sources().len() as u64
    );
    assert_eq!(
        render::deterministic_report_markdown(&bare_warm),
        render::deterministic_report_markdown(&run_report(1, None, None)),
        "a pack's findings leaked into the cache"
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
    assert!(report
        .faults
        .iter()
        .any(|f| f.to_string().contains("rule pack invalid at line 2")));
}

/// A rule whose arms name different selectors, or whose `where`-less
/// arm is not the last, is skipped with a fault naming file and line;
/// the pack's other rules, a multi-arm one included, still run.
#[test]
fn malformed_arms_degrade_to_surviving_rules() {
    let src = "\
rule \"q-mixed\" {\n  site where kind == \"goto\" -> warn\n  function where cc > 3 -> info\n}\n\
rule \"q-shadowed\" {\n  function -> warn\n  function where cc > 3 -> info\n}\n\
rule \"q-arms\" {\n  function where cc > 10 -> warn \"cc {cc}\"\n  \
function where multi_exit -> info \"exits {returns}\"\n}\n";
    let pack = RulePack::from_sources(&[("team.aq".into(), src.into())], &[]);
    let ids: Vec<&str> = pack.rules.iter().map(|r| r.id).collect();
    assert_eq!(ids, ["q-arms"]);
    let at: Vec<(&str, u32)> = pack
        .faults
        .iter()
        .map(|f| (f.file.as_str(), f.line))
        .collect();
    assert_eq!(at, [("team.aq", 1), ("team.aq", 5)]);

    let faults: Vec<_> = pack.faults.iter().map(adsafe::query::pack_fault).collect();
    let mut a = Assessment::new().with_options(AssessmentOptions {
        rules: Some(Arc::new(pack)),
        ..AssessmentOptions::default()
    });
    for f in faults {
        a.add_fault(f);
    }
    for (module, path, text) in corpus_sources() {
        a.add_file(&module, &path, &text);
    }
    let report = a.run();
    assert!(!report.degraded, "an invalid pack must not degrade the run");
    let found = report.diagnostics_for("q-arms");
    assert!(found.iter().any(|d| d.message.starts_with("cc ")));
    assert!(found.iter().any(|d| d.message.starts_with("exits ")));
    for line in [1, 5] {
        let needle = format!("rule pack invalid at line {line}");
        assert!(
            report
                .faults
                .iter()
                .any(|f| f.to_string().contains(&needle)),
            "{needle}"
        );
    }
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
    assert!(
        pack.faults[0]
            .detail
            .contains("collides with a built-in rule"),
        "native id"
    );
    assert!(
        pack.faults[1]
            .detail
            .contains("collides with a built-in rule"),
        "bundled id"
    );
    assert!(pack.faults[2].detail.contains("duplicate rule id"));
}

/// Query rules touching `recursive` are program-scoped; the rest are
/// file-scoped.
#[test]
fn recursive_predicate_lowers_to_program_scope() {
    let pack = mirror_pack();
    let by_id: Vec<(&str, CheckScope)> = pack.rules.iter().map(|r| (r.id, r.scope)).collect();
    for (id, scope) in by_id {
        let expected = if id == "q-recursion" {
            CheckScope::Program
        } else {
            CheckScope::File
        };
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
    let choice = if depth == 0 {
        rng.below(2)
    } else {
        rng.below(5)
    };
    match choice {
        0 => Expr::Field(field(rng)),
        1 => {
            const OPS: [CmpOp; 6] = [
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
            ];
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

/// A rule of one to three arms over one selector; every arm but the
/// last carries a `where`, as the typechecker demands.
fn gen_rule(rng: &mut Rng, i: usize) -> RuleDecl {
    let selector = [
        Selector::Function,
        Selector::Global,
        Selector::File,
        Selector::Site,
    ][rng.below(4)];
    let n = 1 + rng.below(3);
    RuleDecl {
        id: format!("gen-rule-{i}"),
        line: 0,
        desc: (rng.below(2) == 0).then(|| format!("generated rule {i}")),
        iso: (0..rng.below(3))
            .map(|_| format!("Part6.Table{}.Row{}", 1 + rng.below(8), 1 + rng.below(10)))
            .collect(),
        arms: (0..n)
            .map(|a| Arm {
                selector,
                module: (rng.below(3) == 0).then(|| format!("mod{}", rng.below(4))),
                where_expr: (a + 1 < n || rng.below(4) != 0).then(|| gen_expr(rng, selector, 2)),
                severity: [SeverityKw::Info, SeverityKw::Warn, SeverityKw::Violation][rng.below(3)],
                message: (rng.below(2) == 0).then(|| format!("finding {{{}}} #{i}", "name")),
            })
            .collect(),
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
