//! Known answers written outside the code: one annotated source per
//! rule under `tests/conformance/`, named after the rule it exercises,
//! with non-compliant and compliant cases side by side in the style of
//! a MISRA guideline's own examples. Every line a finding must anchor
//! on carries `// expect: <rule-id>`, once per finding. The findings of
//! every rule that has a file, over all the files, must match the
//! annotations exactly, both ways, serial and at one worker per core,
//! cold and replayed from a warm cache.

use adsafe::{Assessment, AssessmentOptions, AssessmentReport};
use std::path::PathBuf;

/// `(file name, text)` of every conformance file, sorted by name.
fn conformance_files() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/conformance");
    let mut files: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("tests/conformance exists")
        .map(|e| e.unwrap().path())
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).unwrap())
        })
        .collect();
    files.sort();
    files
}

/// The rule a conformance file exercises: its name without extension.
fn rule_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(stem, _)| stem)
}

/// `(path, line, rule)` of every `// expect:` annotation.
fn annotations(files: &[(String, String)]) -> Vec<(String, usize, String)> {
    let mut out = Vec::new();
    for (name, text) in files {
        for (i, line) in text.lines().enumerate() {
            if let Some((_, ids)) = line.split_once("// expect:") {
                for id in ids.split(',') {
                    out.push((format!("conformance/{name}"), i + 1, id.trim().to_string()));
                }
            }
        }
    }
    out.sort();
    out
}

/// `(path, line, rule)` of every finding of a rule in `rules`.
fn findings(
    a: &Assessment,
    report: &AssessmentReport,
    rules: &[&str],
) -> Vec<(String, usize, String)> {
    let mut out: Vec<(String, usize, String)> = report
        .diagnostics
        .iter()
        .filter(|d| rules.contains(&d.check_id))
        .map(|d| {
            // `path:line:col severity [rule] message`
            let rendered = d.render(a.sources());
            let mut parts = rendered.splitn(3, ':');
            let path = parts.next().unwrap().to_string();
            let line = parts.next().unwrap().parse().unwrap();
            (path, line, d.check_id.to_string())
        })
        .collect();
    out.sort();
    out
}

#[test]
fn findings_match_the_conformance_annotations() {
    let files = conformance_files();
    assert!(!files.is_empty());
    let rules: Vec<&str> = files.iter().map(|(name, _)| rule_of(name)).collect();
    let known = adsafe::query::reserved_rule_ids();
    for rule in &rules {
        assert!(known.contains(rule), "`{rule}` names no rule");
    }
    let want = annotations(&files);
    for rule in &rules {
        assert!(
            want.iter().any(|(_, _, r)| r == rule),
            "{rule}: no non-compliant case"
        );
    }
    for jobs in [1, 0] {
        let cache =
            std::env::temp_dir().join(format!("adsafe-conformance-{}-{jobs}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache);
        for pass in ["cold", "warm"] {
            let mut a = Assessment::new().with_options(AssessmentOptions {
                jobs,
                cache_dir: Some(cache.clone()),
                ..AssessmentOptions::default()
            });
            for (name, text) in &files {
                a.add_file("conformance", &format!("conformance/{name}"), text);
            }
            let report = a.run();
            let cached = report.trace.counter("parse.cached.files");
            let replayed = if pass == "warm" {
                files.len() as u64
            } else {
                0
            };
            assert_eq!(cached, replayed, "{pass} at jobs {jobs}");
            let got = findings(&a, &report, &rules);
            let missing: Vec<_> = want.iter().filter(|w| !got.contains(w)).collect();
            let unexpected: Vec<_> = got.iter().filter(|g| !want.contains(g)).collect();
            assert!(
                got == want,
                "{pass} at jobs {jobs}: missing {missing:?}, unexpected {unexpected:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&cache);
    }
}
