//! Cross-thread determinism matrix: the same tuning run and the same
//! reductions must be **bit-identical** under `GRIDTUNER_THREADS` = 1, 2
//! and 8.
//!
//! The worker count is swept in-process via
//! [`gridtuner_par::set_max_threads`] (the env var is read once and
//! cached). This file holds exactly one `#[test]` on purpose: the override
//! is global, and a second concurrently-running test in the same binary
//! would observe it mid-sweep.

use gridtuner_engine::{SearchStrategy, TuningSession};
use gridtuner_testkit::Scenario;

/// One full pipeline run at the current worker count: a parallel
/// brute-force session tune plus the two reduction primitives on scenario
/// data.
fn run_pipeline(scenario: &Scenario, values: &[f64]) -> (u32, u64, Vec<(u32, u64)>, u64, Vec<u32>) {
    let config = scenario.engine_config(SearchStrategy::BruteForce);
    let mut session = TuningSession::new(config, scenario.model_fn()).unwrap();
    session.ingest(&scenario.events).unwrap();
    let result = session.tune_parallel().unwrap();
    let probes: Vec<(u32, u64)> = result
        .outcome
        .probes
        .iter()
        .map(|&(s, e)| (s, e.to_bits()))
        .collect();
    let sum = gridtuner_par::par_sum(values, |x| (x * 1.000001).sin()).to_bits();
    let acc = gridtuner_par::par_accumulate(values, 13, |i, x, buf| {
        buf[i % 13] += *x as f32;
    })
    .iter()
    .map(|v| v.to_bits())
    .collect();
    (
        result.outcome.side,
        result.outcome.error.to_bits(),
        probes,
        sum,
        acc,
    )
}

#[test]
fn thread_matrix_is_bit_identical() {
    let scenarios: Vec<Scenario> = [11u64, 42, 1234]
        .iter()
        .map(|&s| Scenario::generate(s))
        .collect();
    let values: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).cos()).collect();
    let baseline: Vec<_> = scenarios
        .iter()
        .map(|sc| run_pipeline(sc, &values))
        .collect();
    for threads in [1usize, 2, 8] {
        gridtuner_par::set_max_threads(threads);
        for (sc, expect) in scenarios.iter().zip(&baseline) {
            let got = run_pipeline(sc, &values);
            assert_eq!(
                &got, expect,
                "pipeline diverged at GRIDTUNER_THREADS={threads} (seed {})",
                sc.params.seed
            );
        }
    }
}
