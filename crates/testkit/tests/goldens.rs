//! Golden regressions for the paper-style end-to-end runs.
//!
//! One golden per preset city (NYC / Chengdu / Xi'an, scaled down so the
//! suite stays in CI budget): the tuning optimum and its error
//! decomposition, the α-cache counters, and the dispatch case-study
//! metrics under the Polar dispatcher at the tuned partition. The whole
//! pipeline runs through the engine's [`TuningSession`] — the snapshots
//! double as the refactor-inertness gate for the session migration.
//!
//! First run (or `UPDATE_GOLDENS=1`) writes `tests/goldens/<city>.json`
//! at the repo root; later runs compare against the checked-in file with
//! a 1e-9 relative float tolerance. See `TESTING.md`.

use gridtuner_core::alpha::AlphaWindow;
use gridtuner_datagen::{City, TripGenerator};
use gridtuner_dispatch::{DemandView, FleetConfig, Order, Polar, SimConfig};
use gridtuner_engine::{BootstrapConfig, EngineConfig, SearchStrategy, TuningSession};
use gridtuner_testkit::{check_golden, Json};
use rand::{rngs::StdRng, SeedableRng};

/// Scale factor applied to the city volumes (NYC: 282k → ~560 events/day).
const SCALE: f64 = 0.002;
/// HGrid budget side for the goldens (paper: 128; scaled down with volume).
const BUDGET_SIDE: u32 = 32;
/// Searched MGrid side range (paper: 4..=76).
const SIDE_RANGE: (u32, u32) = (2, 24);
/// History days feeding the α estimate.
const HISTORY_DAYS: u32 = 14;
/// Analytic model-error slope: `n·MAE ≈ coef·s²`.
const MODEL_COEF: f64 = 0.05;
/// Bootstrap replicates for the uncertainty block (the acceptance bar).
const REPLICATES: u32 = 32;

fn golden_for_city(city: City, seed: u64) -> Json {
    let city = city.scaled(SCALE);
    let window = AlphaWindow {
        slot_of_day: 16,
        day_start: 0,
        day_end: HISTORY_DAYS,
        weekdays_only: true,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let events = city.sample_history_events(window.slot_of_day, 0..HISTORY_DAYS, &mut rng);
    let model = |s: u32| MODEL_COEF * (s * s) as f64;
    let config = EngineConfig {
        clock: *city.clock(),
        // Master seed = the city seed, so the whole block replays from
        // the one number already pinned in the test.
        bootstrap: Some(BootstrapConfig::new(REPLICATES, seed)),
        sim: Some(SimConfig {
            fleet: FleetConfig {
                n_drivers: 60,
                ..FleetConfig::default()
            },
            ..SimConfig::for_geo(*city.geo())
        }),
        hgrid_budget_side: BUDGET_SIDE,
        side_range: SIDE_RANGE,
        strategy: SearchStrategy::BruteForce,
        alpha_window: window,
        ..EngineConfig::default()
    };
    let mut session = TuningSession::new(config, model).expect("golden config is valid");
    session
        .ingest(&events)
        .expect("synthetic events are finite");
    let result = session.tune_parallel().expect("analytic model leg");
    let side = result.outcome.side;
    let uncertainty = result
        .uncertainty
        .as_ref()
        .expect("bootstrap config set above");

    // Error decomposition at the optimum, served from the session's own
    // α cache (same inputs → same digest as a fresh oracle).
    let expression = session
        .expression_error(side)
        .expect("α field from finite events");
    let model_err = MODEL_COEF * (side * side) as f64;

    // Dispatch case study: one day of trips, Polar dispatcher, demand
    // predicted as the city's mean field on the tuned MGrid lattice.
    let partition = result.partition;
    let trips = TripGenerator::default().trips_for_day(&city, HISTORY_DAYS, &mut rng);
    let orders = Order::from_trips(&trips);
    let sim = session.simulator().expect("sim config set above");
    let mspec = partition.mgrid_spec();
    let mut demand = |slot| {
        let pred = city.mean_field(mspec, slot);
        DemandView::from_mgrid(&pred, &partition)
    };
    let outcome = sim.run(&orders, &mut Polar::new(), &mut demand);

    Json::obj(vec![
        ("city", Json::Str(city.name().to_string())),
        ("scale", Json::Num(SCALE)),
        ("history_events", Json::Num(events.len() as f64)),
        (
            "tuning",
            Json::obj(vec![
                ("optimal_side", Json::Num(side as f64)),
                ("upper_bound", Json::Num(result.outcome.error)),
                ("expression_error", Json::Num(expression)),
                ("model_error", Json::Num(model_err)),
                ("evals", Json::Num(result.outcome.evals as f64)),
                ("alpha_rescans", Json::Num(result.alpha_full_scans as f64)),
                ("alpha_digest_len", Json::Num(session.digest_len() as f64)),
            ]),
        ),
        (
            "uncertainty",
            Json::obj(vec![
                ("replicates", Json::Num(uncertainty.replicates as f64)),
                ("seed", Json::Num(uncertainty.seed as f64)),
                (
                    "confidence_set",
                    Json::Arr(
                        uncertainty
                            .confidence_set
                            .iter()
                            .map(|&s| Json::Num(s as f64))
                            .collect(),
                    ),
                ),
                (
                    "distinct_argmins",
                    Json::Num(uncertainty.distinct_argmins as f64),
                ),
                ("verdict", Json::Str(uncertainty.verdict.name().to_string())),
            ]),
        ),
        (
            "dispatch",
            Json::obj(vec![
                ("served", Json::Num(outcome.served as f64)),
                ("total_orders", Json::Num(outcome.total_orders as f64)),
                ("revenue", Json::Num(outcome.revenue)),
                ("travel_km", Json::Num(outcome.travel_km)),
                ("unified_cost", Json::Num(outcome.unified_cost)),
            ]),
        ),
    ])
}

fn check_city(city: City, seed: u64, name: &str) {
    let computed = golden_for_city(city, seed);
    check_golden(
        name,
        &computed,
        gridtuner_testkit::golden::DEFAULT_TOLERANCE,
    )
    .unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn nyc_golden() {
    check_city(City::nyc(), 0x6e7963, "nyc");
}

#[test]
fn chengdu_golden() {
    check_city(City::chengdu(), 0x636475, "chengdu");
}

#[test]
fn xian_golden() {
    check_city(City::xian(), 0x7869616e, "xian");
}
