//! Run isolation: every number an assessment reports belongs to that
//! run. Four threads assess four different corpora at the same time,
//! with no lock between them, and each report's counters and per-phase
//! allocations must equal what the same corpus reports when assessed
//! alone — at one worker and at two.

use adsafe::corpus::{ApolloSpec, GeneratedFile};
use adsafe::trace::alloc;
use adsafe::{AssessmentOptions, AssessmentReport};
use std::sync::Barrier;

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Four test-scale corpora that differ in seed and in module count, so
/// every counter a run reports has a different value per corpus.
fn corpora() -> Vec<Vec<GeneratedFile>> {
    (0..4)
        .map(|i| {
            let mut spec = ApolloSpec::test_scale();
            spec.seed += i as u64;
            spec.modules.truncate(spec.modules.len() - i);
            adsafe::corpus::generate(&spec)
        })
        .collect()
}

fn assess(corpus: &[GeneratedFile], jobs: usize) -> AssessmentReport {
    adsafe::assess_corpus(
        corpus,
        AssessmentOptions {
            jobs,
            ..AssessmentOptions::default()
        },
    )
}

/// Each corpus assessed on a fresh thread, one after another.
fn solo(corpora: &[Vec<GeneratedFile>], jobs: usize) -> Vec<AssessmentReport> {
    corpora
        .iter()
        .map(|c| std::thread::scope(|s| s.spawn(|| assess(c, jobs)).join().unwrap()))
        .collect()
}

/// Every corpus assessed on its own fresh thread, all released at once.
fn together(corpora: &[Vec<GeneratedFile>], jobs: usize) -> Vec<AssessmentReport> {
    let start = Barrier::new(corpora.len());
    std::thread::scope(|s| {
        let runs: Vec<_> = corpora
            .iter()
            .map(|c| {
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    assess(c, jobs)
                })
            })
            .collect();
        runs.into_iter().map(|r| r.join().unwrap()).collect()
    })
}

#[test]
fn concurrent_assessments_report_their_solo_counters() {
    let corpora = corpora();
    for jobs in [1, 2] {
        let alone: Vec<_> = solo(&corpora, jobs)
            .into_iter()
            .map(|r| r.trace.counters)
            .collect();
        for (i, c) in alone.iter().enumerate() {
            assert!(
                c.iter()
                    .any(|(name, n)| name == "parse.tier1.files" && *n > 0),
                "corpus {i} parses something: {c:?}"
            );
        }
        for round in 0..2 {
            for (i, r) in together(&corpora, jobs).iter().enumerate() {
                assert_eq!(
                    r.trace.counters, alone[i],
                    "corpus {i}, jobs {jobs}, round {round}: counters differ from the solo run"
                );
            }
        }
    }
}

#[test]
fn concurrent_assessments_report_their_solo_allocations() {
    // Only this test flips the process-wide switch, and only on.
    alloc::set_profiling(true);
    let corpora = corpora();
    for jobs in [1, 2] {
        // The first runs initialise lazy statics and register counter
        // and phase names; which run pays for that is a race.
        drop(together(&corpora, jobs));
        let alone = solo(&corpora, jobs);
        let concurrent = together(&corpora, jobs);
        for (i, (a, c)) in alone.iter().zip(&concurrent).enumerate() {
            let names = |r: &AssessmentReport| {
                r.trace
                    .phase_mem
                    .iter()
                    .map(|p| p.name.clone())
                    .collect::<Vec<_>>()
            };
            assert_eq!(
                names(c),
                names(a),
                "corpus {i}, jobs {jobs}: phase rows differ"
            );
            assert!(
                names(a).iter().any(|n| n == "parse"),
                "corpus {i}: {:?}",
                names(a)
            );
            for (sp, cp) in a.trace.phase_mem.iter().zip(&c.trace.phase_mem) {
                for (what, solo, got) in [
                    ("allocs", sp.allocs, cp.allocs),
                    ("bytes", sp.bytes, cp.bytes),
                ] {
                    assert!(
                        solo.abs_diff(got) * 100 <= solo,
                        "corpus {i}, jobs {jobs}, phase {}: {what} {got} vs solo {solo}",
                        sp.name
                    );
                }
            }
        }
    }
}
