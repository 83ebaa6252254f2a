//! Incremental-vs-rebuild differential: appending events to a live
//! [`TuningSession`] and re-tuning must be **bit-identical** to rebuilding
//! a fresh session from the concatenated log — across delta granularities
//! and under `GRIDTUNER_THREADS` = 1, 2 and 8.
//!
//! The worker count is swept in-process via
//! [`gridtuner_par::set_max_threads`] (the env var is read once and
//! cached). Only one `#[test]` here sets the override: it is global, so
//! the other test runs under whatever count the sweep has reached, and
//! asserts only what holds at every count. See `TESTING.md`.

use gridtuner_engine::{EngineConfig, PartitionKind, SearchStrategy, TuneReport, TuningSession};
use gridtuner_testkit::Scenario;

fn config_for(sc: &Scenario) -> EngineConfig {
    sc.engine_config(SearchStrategy::BruteForce)
}

/// Everything a tune decides, with floats as bits: the selected side, its
/// error, and the full probe trajectory.
fn fingerprint(r: &TuneReport) -> (u32, u64, Vec<(u32, u64)>) {
    (
        r.outcome.side,
        r.outcome.error.to_bits(),
        r.outcome
            .probes
            .iter()
            .map(|&(s, e)| (s, e.to_bits()))
            .collect(),
    )
}

/// One from-scratch run: the whole log in a single ingest.
fn run_rebuild(sc: &Scenario, parallel: bool) -> (u32, u64, Vec<(u32, u64)>) {
    let mut session = TuningSession::new(config_for(sc), sc.model_fn()).unwrap();
    session.ingest(&sc.events).unwrap();
    let report = if parallel {
        session.tune_parallel()
    } else {
        session.tune()
    }
    .unwrap();
    assert_eq!(report.alpha_full_scans, 1, "rebuild scans the log once");
    fingerprint(&report)
}

/// The same log fed in `chunks` slices, re-tuning after every slice (a
/// mid-stream tune must not disturb the next delta).
fn run_incremental(sc: &Scenario, chunks: usize, parallel: bool) -> (u32, u64, Vec<(u32, u64)>) {
    let mut session = TuningSession::new(config_for(sc), sc.model_fn()).unwrap();
    let n = sc.events.len();
    assert!(n >= chunks, "scenario too small to slice");
    let mut report = None;
    let mut start = 0;
    for i in 0..chunks {
        let end = if i + 1 == chunks {
            n
        } else {
            n * (i + 1) / chunks
        };
        session.ingest(&sc.events[start..end]).unwrap();
        report = Some(
            if parallel {
                session.tune_parallel()
            } else {
                session.tune()
            }
            .unwrap(),
        );
        start = end;
    }
    let report = report.unwrap();
    assert_eq!(report.alpha_full_scans, 1, "only the first ingest scans");
    assert_eq!(
        report.alpha_delta_scans as usize,
        chunks - 1,
        "each append is one delta scan, never a rebuild"
    );
    fingerprint(&report)
}

#[test]
fn incremental_retune_is_bit_identical_to_rebuild_across_thread_counts() {
    let scenarios: Vec<Scenario> = [5u64, 77, 2024]
        .iter()
        .map(|&s| Scenario::generate(s))
        .collect();
    for sc in &scenarios {
        let seed = sc.params.seed;
        let expect = run_rebuild(sc, false);
        for chunks in [2usize, 3, 5] {
            assert_eq!(
                run_incremental(sc, chunks, false),
                expect,
                "sequential incremental diverged (seed {seed}, {chunks} chunks)"
            );
        }
        for threads in [1usize, 2, 8] {
            gridtuner_par::set_max_threads(threads);
            assert_eq!(
                run_rebuild(sc, true),
                expect,
                "parallel rebuild diverged (seed {seed}, {threads} threads)"
            );
            assert_eq!(
                run_incremental(sc, 3, true),
                expect,
                "parallel incremental diverged (seed {seed}, {threads} threads)"
            );
        }
    }
}

/// The quadtree search's per-leaf memo lives for one search: a re-search
/// after an ingest must score every leaf against the new α field, exactly
/// as a fresh session over both batches does.
#[test]
fn quadtree_research_after_ingest_matches_a_fresh_session() {
    let sc = Scenario::generate(77);
    let (first, second) = sc.events.split_at(sc.events.len() / 2);
    let mut live = TuningSession::new(config_for(&sc), sc.model_fn()).unwrap();
    live.ingest(first).unwrap();
    let before = live.tune_partition(PartitionKind::QuadTree).unwrap();
    live.ingest(second).unwrap();
    let mut after = live.tune_partition(PartitionKind::QuadTree).unwrap();

    let mut fresh = TuningSession::new(config_for(&sc), sc.model_fn()).unwrap();
    fresh.ingest(first).unwrap();
    fresh.ingest(second).unwrap();
    let want = fresh.tune_partition(PartitionKind::QuadTree).unwrap();

    // The one field allowed to differ: the live session's analytic model
    // memo survives the ingest, so its re-tune serves probes from it.
    assert!(after.uniform.model_memo_hits > want.uniform.model_memo_hits);
    after.uniform.model_memo_hits = want.uniform.model_memo_hits;
    assert_eq!(after, want);
    assert_ne!(
        before.expression_error.to_bits(),
        want.expression_error.to_bits(),
        "the second batch must move the α field, or this test shows nothing"
    );
}
