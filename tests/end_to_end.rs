//! End-to-end pipeline: synthetic city → session ingest (α estimation) →
//! tune over the upper bound with a real (retrained-per-n) predictor →
//! sane partition.

use gridtuner::core::alpha::AlphaWindow;
use gridtuner::datagen::{City, DataSplit};
use gridtuner::engine::{EngineConfig, ModelErrorSource, SearchStrategy, TuningSession};
use gridtuner::predict::{CityModelError, HistoricalAverage, Predictor};
use gridtuner::spatial::Event;
use rand::{rngs::StdRng, SeedableRng};

fn small_city() -> City {
    City::xian().scaled(0.02)
}

fn split() -> DataSplit {
    DataSplit {
        train_days: (0, 14),
        val_days: (14, 16),
        test_day: 16,
    }
}

fn model_oracle() -> impl ModelErrorSource {
    CityModelError::new(small_city(), split(), 5, || {
        Box::new(HistoricalAverage::new()) as Box<dyn Predictor>
    })
    .with_max_eval_slots(12)
}

/// A session over two weeks of the small city's 8:00 history, sides
/// 1..=20 on a 32×32 HGrid budget, with a real (retrained-per-n) model leg.
fn session(history_seed: u64, strategy: SearchStrategy) -> TuningSession<impl ModelErrorSource> {
    let city = small_city();
    let mut rng = StdRng::seed_from_u64(history_seed);
    let events: Vec<Event> = city.sample_history_events(16, 0..14, &mut rng);
    let config = EngineConfig {
        hgrid_budget_side: 32,
        side_range: (1, 20),
        strategy,
        alpha_window: AlphaWindow {
            slot_of_day: 16,
            day_start: 0,
            day_end: 14,
            weekdays_only: true,
        },
        clock: *city.clock(),
        ..EngineConfig::default()
    };
    let mut session = TuningSession::new(config, model_oracle()).unwrap();
    session.ingest(&events).unwrap();
    session
}

#[test]
fn tuner_produces_interior_optimum_on_uneven_city() {
    let result = session(1, SearchStrategy::BruteForce).tune().unwrap();
    // The optimum must be strictly inside the range: the error curve is
    // U-shaped (Sec. III-C).
    assert!(
        result.outcome.side > 1 && result.outcome.side < 20,
        "boundary optimum at side {}",
        result.outcome.side
    );
    assert_eq!(result.partition.mgrid_side(), result.outcome.side);
    assert!(result.partition.total_hgrids() >= 32 * 32);
}

#[test]
fn upper_bound_oracle_decomposition_is_consistent() {
    let mut session = session(2, SearchStrategy::BruteForce);
    let report = session.tune().unwrap();
    for side in [2u32, 8, 16] {
        let (_, e) = *report.outcome.probes.iter().find(|p| p.0 == side).unwrap();
        let expr = session.expression_error(side).unwrap();
        let model = session.model_error(side).unwrap();
        assert!(
            (e - (expr + model)).abs() < 1e-6,
            "decomposition broken at side {side}"
        );
        assert!(expr >= 0.0 && model >= 0.0);
    }
    // Monotone legs (the paper's core tension).
    assert!(session.expression_error(2).unwrap() > session.expression_error(16).unwrap());
    assert!(session.model_error(16).unwrap() > session.model_error(2).unwrap());
}

#[test]
fn heuristic_searches_close_to_brute_force_end_to_end() {
    let bf = session(3, SearchStrategy::BruteForce).tune().unwrap();
    let it = session(3, SearchStrategy::Iterative { init: 16, bound: 4 })
        .tune()
        .unwrap();
    assert!(
        it.outcome.error <= bf.outcome.error * 1.10,
        "iterative {} vs brute {}",
        it.outcome.error,
        bf.outcome.error
    );
    assert!(it.outcome.evals < bf.outcome.evals);
}
