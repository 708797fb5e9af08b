//! Test harness: runs scenario tests over a multi-file program and
//! produces per-file coverage aggregates — the workflow behind the
//! paper's Figure 5 (YOLO files × statement/branch/MC-DC bars).

use crate::interp::{Interp, InterpError, Limits, Program};
use crate::probes::{enumerate_probes, CoverageLog};
use crate::report::{function_coverage, AggregateCoverage};
use crate::value::Value;
use adsafe_lang::{parse_source, FileId, SourceMap};

/// A scenario test: call `entry` with `args`.
#[derive(Debug, Clone)]
pub struct TestCase {
    /// Human-readable scenario name.
    pub name: String,
    /// Entry function.
    pub entry: String,
    /// Arguments.
    pub args: Vec<Value>,
}

impl TestCase {
    /// Creates a test case.
    pub fn new(name: impl Into<String>, entry: impl Into<String>, args: Vec<Value>) -> Self {
        TestCase {
            name: name.into(),
            entry: entry.into(),
            args,
        }
    }
}

/// A multi-file program under coverage measurement.
#[derive(Debug)]
pub struct CoverageHarness {
    sm: SourceMap,
    files: Vec<(FileId, adsafe_lang::ParsedFile)>,
    program: Program,
    limits: Limits,
}

/// Outcome of running one test case.
#[derive(Debug, Clone)]
pub struct TestOutcome {
    /// Scenario name.
    pub name: String,
    /// Result value or failure.
    pub result: Result<Value, InterpError>,
}

impl CoverageHarness {
    /// Creates an empty harness.
    pub fn new() -> Self {
        CoverageHarness {
            sm: SourceMap::new(),
            files: Vec::new(),
            program: Program::default(),
            limits: Limits::default(),
        }
    }

    /// Overrides interpreter limits.
    pub fn with_limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Adds a source file; call [`CoverageHarness::link`] after the last.
    pub fn add_file(&mut self, path: &str, text: &str) {
        let id = self.sm.add_file(path, text);
        let parsed = parse_source(id, self.sm.file(id).text());
        self.files.push((id, parsed));
    }

    /// Builds the executable program from all added files.
    pub fn link(&mut self) {
        let units: Vec<&adsafe_lang::TranslationUnit> =
            self.files.iter().map(|(_, p)| &p.unit).collect();
        self.program = Program::from_units(&units);
    }

    /// Runs the tests, returning the merged coverage log and per-test
    /// outcomes. Tests that fail still contribute the coverage they
    /// accumulated before failing.
    pub fn run(&self, tests: &[TestCase]) -> (CoverageLog, Vec<TestOutcome>) {
        let mut log = CoverageLog::default();
        let mut outcomes = Vec::with_capacity(tests.len());
        for t in tests {
            let mut interp = Interp::new(&self.program).with_limits(self.limits);
            let result = interp.call(&t.entry, t.args.clone());
            log.merge(&interp.log);
            outcomes.push(TestOutcome {
                name: t.name.clone(),
                result,
            });
        }
        (log, outcomes)
    }

    /// Per-file coverage aggregates from a log.
    pub fn file_coverage(&self, log: &CoverageLog) -> Vec<AggregateCoverage> {
        self.files
            .iter()
            .map(|(id, parsed)| AggregateCoverage {
                label: self.sm.file(*id).path().to_string(),
                functions: parsed
                    .unit
                    .functions()
                    .iter()
                    .map(|f| function_coverage(&enumerate_probes(f), log))
                    .collect(),
            })
            .collect()
    }

    /// Convenience: run tests and return `(file coverage, outcomes)`.
    pub fn measure(&self, tests: &[TestCase]) -> (Vec<AggregateCoverage>, Vec<TestOutcome>) {
        let (log, outcomes) = self.run(tests);
        (self.file_coverage(&log), outcomes)
    }

    /// Outstanding coverage obligations per file (path, gaps), computed
    /// against the harness's own parse trees so probe spans line up with
    /// the log.
    pub fn file_gaps(&self, log: &CoverageLog) -> Vec<(String, Vec<crate::gaps::Gap>)> {
        self.files
            .iter()
            .map(|(id, parsed)| {
                let mut gaps = Vec::new();
                for f in parsed.unit.functions() {
                    gaps.extend(crate::gaps::function_gaps(&enumerate_probes(f), log));
                }
                (self.sm.file(*id).path().to_string(), gaps)
            })
            .collect()
    }
}

impl Default for CoverageHarness {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_file_calls_and_per_file_reports() {
        let mut h = CoverageHarness::new();
        h.add_file(
            "math.c",
            "float relu(float x) { if (x > 0.0f) { return x; } return 0.0f; }",
        );
        h.add_file(
            "net.c",
            "float forward(float x) { return relu(x) + relu(-x); }",
        );
        h.link();
        let (cov, outcomes) = h.measure(&[TestCase::new(
            "positive input",
            "forward",
            vec![Value::Float(2.0)],
        )]);
        assert!(outcomes[0].result.is_ok());
        assert_eq!(cov.len(), 2);
        let math = &cov[0];
        // relu saw both a positive and a non-positive input → full.
        assert_eq!(math.statement_pct(true), 100.0);
        assert_eq!(math.branch_pct(true), 100.0);
        assert_eq!(math.mcdc_pct(true), 100.0);
    }

    #[test]
    fn failing_test_still_contributes_coverage() {
        let mut h = CoverageHarness::new();
        h.add_file(
            "a.c",
            "float f(int n) { float a[2]; a[0] = 1.0f; return a[n]; }",
        );
        h.link();
        let (cov, outcomes) = h.measure(&[TestCase::new("oob", "f", vec![Value::Int(9)])]);
        assert!(outcomes[0].result.is_err());
        assert!(cov[0].functions[0].stmts_hit > 0);
    }

    #[test]
    fn multiple_tests_accumulate() {
        let mut h = CoverageHarness::new();
        h.add_file(
            "a.c",
            "int sign(int x) { if (x > 0) return 1; if (x < 0) return -1; return 0; }",
        );
        h.link();
        let partial = h
            .measure(&[TestCase::new("pos", "sign", vec![Value::Int(1)])])
            .0;
        assert!(partial[0].branch_pct(true) < 100.0);
        let full = h
            .measure(&[
                TestCase::new("pos", "sign", vec![Value::Int(1)]),
                TestCase::new("neg", "sign", vec![Value::Int(-1)]),
                TestCase::new("zero", "sign", vec![Value::Int(0)]),
            ])
            .0;
        assert_eq!(full[0].branch_pct(true), 100.0);
        assert_eq!(full[0].mcdc_pct(true), 100.0);
    }
}
