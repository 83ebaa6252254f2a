//! Concurrent sessions do not bleed into each other. Four
//! [`TuningSession`]s run at once on four threads:
//!
//! * a brute-force tune with a bootstrap, through `tune_parallel`;
//! * an iterative tune, through `tune`;
//! * a quadtree search, through `tune_partition`;
//! * a second copy of the first.
//!
//! Each must return a report `==` to the same session run alone, compared
//! as a whole struct. The sessions share the process — the worker pool,
//! the `obs` registry — so this holds only while every report field is a
//! function of the session's own inputs.

use gridtuner_engine::{
    BootstrapConfig, EngineConfig, PartitionKind, PartitionReport, SearchStrategy, TuneReport,
    TuningSession,
};
use gridtuner_testkit::{Scenario, ScenarioParams};
use std::sync::Barrier;

#[derive(Debug, Clone, Copy)]
enum Job {
    BruteBootstrap,
    Iterative,
    QuadTree,
}

const JOBS: [Job; 4] = [
    Job::BruteBootstrap,
    Job::Iterative,
    Job::QuadTree,
    Job::BruteBootstrap,
];

#[derive(Debug, PartialEq)]
enum Outcome {
    Tune(TuneReport),
    Partition(PartitionReport),
}

fn scenario() -> Scenario {
    Scenario::from_params(ScenarioParams {
        seed: 2022,
        days: 8,
        events_per_day: 120,
        hotspots: 3,
        budget_side: 16,
        max_side: 12,
        slot_of_day: 16,
        weekdays_only: false,
        model_coef: 0.5,
    })
}

fn run(sc: &Scenario, job: Job) -> Outcome {
    let strategy = match job {
        Job::Iterative => SearchStrategy::Iterative { init: 6, bound: 2 },
        Job::BruteBootstrap | Job::QuadTree => SearchStrategy::BruteForce,
    };
    let config = EngineConfig {
        bootstrap: matches!(job, Job::BruteBootstrap).then(|| BootstrapConfig::new(8, 7)),
        ..sc.engine_config(strategy)
    };
    let mut session = TuningSession::new(config, sc.model_fn()).unwrap();
    session.ingest(&sc.events).unwrap();
    match job {
        Job::BruteBootstrap => Outcome::Tune(session.tune_parallel().unwrap()),
        Job::Iterative => Outcome::Tune(session.tune().unwrap()),
        Job::QuadTree => {
            Outcome::Partition(session.tune_partition(PartitionKind::QuadTree).unwrap())
        }
    }
}

#[test]
fn concurrent_sessions_report_exactly_their_solo_runs() {
    let sc = scenario();
    let solo: Vec<Outcome> = JOBS.iter().map(|&job| run(&sc, job)).collect();
    let barrier = Barrier::new(JOBS.len());
    let (sc, barrier) = (&sc, &barrier);
    let concurrent: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = JOBS
            .iter()
            .map(|&job| {
                scope.spawn(move || {
                    barrier.wait();
                    run(sc, job)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, (got, want)) in concurrent.iter().zip(&solo).enumerate() {
        assert_eq!(
            got, want,
            "session {i} ({:?}) differs from its solo run",
            JOBS[i]
        );
    }
}
