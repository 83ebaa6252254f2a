//! Invariant-layer smoke: drives the hot paths that carry the
//! `check-invariants` runtime assertions (Lemma III.1 per cell, α-field
//! mass conservation, Theorem II.1), so that
//! `cargo test -p gridtuner-testkit --features check-invariants` actually
//! executes every gated assertion. Without the feature this is a plain
//! (and still useful) end-to-end smoke test.

use gridtuner_core::errors::{evaluate_errors, ErrorSample};
use gridtuner_engine::{SearchStrategy, TuningSession};
use gridtuner_spatial::{CountMatrix, Partition};
use gridtuner_testkit::Scenario;
use rand::Rng;

#[test]
fn tuning_hot_path_upholds_gated_invariants() {
    for seed in 0..8u64 {
        let sc = Scenario::generate(seed);
        for strategy in [
            SearchStrategy::BruteForce,
            SearchStrategy::Ternary,
            SearchStrategy::Iterative { init: 3, bound: 2 },
        ] {
            let mut session =
                TuningSession::new(sc.engine_config(strategy), sc.model_fn()).unwrap();
            session.ingest(&sc.events).unwrap();
            // Under `check-invariants` every probe asserts Lemma III.1 on
            // each MGrid and the α derivation asserts mass conservation;
            // the one-scan rule is the report's counter.
            let result = session.tune().unwrap();
            assert_eq!(result.alpha_full_scans, 1);
            let (lo, hi) = sc.params.side_range();
            assert!((lo..=hi).contains(&result.outcome.side));
        }
    }
}

#[test]
fn empirical_error_estimator_upholds_theorem_ii1() {
    for seed in 0..8u64 {
        let sc = Scenario::generate(seed);
        let mut rng = sc.rng(0x1271);
        let part = Partition::for_budget(sc.params.max_side.max(2), sc.params.budget_side);
        let samples: Vec<ErrorSample> = (0..2)
            .map(|_| ErrorSample {
                predicted_mgrid: CountMatrix::from_vec(
                    part.mgrid_side(),
                    (0..part.n()).map(|_| rng.gen_range(0.0..10.0)).collect(),
                )
                .unwrap(),
                actual_hgrid: CountMatrix::from_vec(
                    part.hgrid_spec().side(),
                    (0..part.total_hgrids())
                        .map(|_| rng.gen_range(0..4u32) as f64)
                        .collect(),
                )
                .unwrap(),
            })
            .collect();
        // Under `check-invariants` the estimator itself asserts the bound.
        let report = evaluate_errors(&samples, &part).unwrap();
        assert!(report.real <= report.upper_bound() + 1e-9 * (1.0 + report.upper_bound()));
    }
}
