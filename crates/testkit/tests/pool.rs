//! Persistent-pool determinism matrix: every `par_*` primitive and the
//! probe-level α-prefetch pipeline must be **bit-identical** to the
//! single-threaded inline path under `GRIDTUNER_THREADS` = 1, 2 and 8.
//!
//! Two claims are pinned here, on top of the legacy thread matrix in
//! `determinism.rs`:
//!
//! 1. the pooled dispatch path (persistent parked workers, oversubscribed
//!    task queue, dynamic claiming) recombines results in exactly the
//!    inline order for all four primitives — `par_map`, `par_sum`,
//!    `par_accumulate` and `par_chunks_mut`;
//! 2. the engine's probe pipeline (`EngineConfig::pipeline`) is
//!    bit-invisible: a tune with the α prefetcher overlapping probes must
//!    select the same side with the same error bits and the same probe
//!    decomposition as a tune with the pipeline disabled, at every worker
//!    count.
//!
//! This file holds exactly one `#[test]` on purpose:
//! [`gridtuner_par::set_max_threads`] is a global override, and a second
//! concurrently-running test in the same binary would observe it
//! mid-sweep.

use gridtuner_engine::SearchStrategy;
use gridtuner_engine::{EngineConfig, TuningSession};
use gridtuner_testkit::Scenario;

/// All four primitives over the same inputs, results reduced to bits.
fn run_primitives(values: &[f64]) -> (Vec<u64>, u64, Vec<u32>, Vec<u64>) {
    let mapped: Vec<u64> = gridtuner_par::par_map(values, |x| (x * 1.7).tanh().to_bits());
    let sum = gridtuner_par::par_sum(values, |x| (x * 0.999_983).sin()).to_bits();
    let acc: Vec<u32> = gridtuner_par::par_accumulate(values, 17, |i, x, buf| {
        buf[i % 17] += *x as f32;
    })
    .iter()
    .map(|v| v.to_bits())
    .collect();
    let mut chunks = vec![0.0f64; values.len()];
    gridtuner_par::par_chunks_mut(&mut chunks, 9, |c, slice| {
        for (i, v) in slice.iter_mut().enumerate() {
            *v = ((c * 9 + i) as f64).sqrt() * values[(c * 9 + i) % values.len()];
        }
    });
    let chunk_bits = chunks.iter().map(|v| v.to_bits()).collect();
    (mapped, sum, acc, chunk_bits)
}

/// One engine tune with the pipeline toggled, reduced to bits.
fn run_tune(scenario: &Scenario, pipeline: bool) -> (u32, u64, Vec<(u32, u64)>) {
    let (lo, hi) = scenario.params.side_range();
    let cfg = EngineConfig::builder()
        .hgrid_budget_side(scenario.params.budget_side)
        .side_range(lo, hi)
        .strategy(SearchStrategy::BruteForce)
        .alpha_window(scenario.window)
        .clock(scenario.clock)
        .pipeline(pipeline)
        .build()
        .expect("scenario config is valid");
    let model = scenario.model_fn();
    let mut session = TuningSession::new(cfg, model).expect("validated above");
    session
        .ingest(&scenario.events)
        .expect("scenario events are finite");
    let report = session.tune_parallel().expect("infallible model leg");
    let probes = report
        .outcome
        .probes
        .iter()
        .map(|&(s, e)| (s, e.to_bits()))
        .collect();
    (report.outcome.side, report.outcome.error.to_bits(), probes)
}

#[test]
fn pool_and_pipeline_match_inline_bit_for_bit() {
    let scenario = Scenario::generate(77);
    let values: Vec<f64> = (0..1777).map(|i| (i as f64 * 0.173).cos() + 1.5).collect();

    // Baseline: pure inline path, pipeline off.
    gridtuner_par::set_max_threads(1);
    let prim_ref = run_primitives(&values);
    let tune_ref = run_tune(&scenario, false);

    for threads in [1usize, 2, 8] {
        gridtuner_par::set_max_threads(threads);
        assert_eq!(
            run_primitives(&values),
            prim_ref,
            "a par_* primitive diverged from inline at {threads} threads"
        );
        for pipeline in [false, true] {
            assert_eq!(
                run_tune(&scenario, pipeline),
                tune_ref,
                "tune diverged at {threads} threads (pipeline={pipeline})"
            );
        }
    }
}
