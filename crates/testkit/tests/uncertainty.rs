//! Bootstrap thread-matrix determinism: a B=32 bootstrap tune on the NYC
//! golden setup must be **bit-identical** across `GRIDTUNER_THREADS` = 1,
//! 2 and 8, with the α-prefetch pipeline on or off, and between
//! `tune_parallel` (replicates as worker-pool tasks) and the sequential
//! `tune` (replicates in order on the caller) — for the *full* confidence
//! set, the per-replicate argmins and error bits, the probe dispersion and
//! the verdict, not just the point argmin. An odd B = 5 leaves a remainder
//! in the replicate task split. The replicates' pmf tables live in
//! layers over the session memo, so the session memo must end a
//! bootstrap tune exactly as large as a tune without one.
//!
//! This file holds exactly one `#[test]` on purpose:
//! [`gridtuner_par::set_max_threads`] is a global override, and a second
//! concurrently-running test in the same binary would observe it
//! mid-sweep (same discipline as `pool.rs`).

use gridtuner_core::alpha::AlphaWindow;
use gridtuner_datagen::City;
use gridtuner_engine::SearchStrategy;
use gridtuner_engine::{EngineConfig, StabilityVerdict, TuningSession, UncertaintyReport};
use rand::{rngs::StdRng, SeedableRng};

/// NYC golden constants (see `goldens.rs`), bootstrap at the acceptance
/// bar of B = 32.
const SCALE: f64 = 0.002;
const BUDGET_SIDE: u32 = 32;
const SIDE_RANGE: (u32, u32) = (2, 24);
const HISTORY_DAYS: u32 = 14;
const MODEL_COEF: f64 = 0.05;
const REPLICATES: u32 = 32;
/// An odd B: the replicate task split has a remainder.
const ODD_REPLICATES: u32 = 5;
const BOOT_SEED: u64 = 0x6e7963;

/// The uncertainty report reduced to comparable bits.
#[derive(Debug, PartialEq)]
struct Bits {
    confidence_set: Vec<u32>,
    argmins: Vec<u32>,
    errors: Vec<u64>,
    dispersion: Vec<(u32, u32, u64, u64, u64, u64)>,
    verdict: StabilityVerdict,
    distinct: u32,
}

fn bits(u: &UncertaintyReport) -> Bits {
    Bits {
        confidence_set: u.confidence_set.clone(),
        argmins: u.replicate_argmins.clone(),
        errors: u.replicate_errors.iter().map(|e| e.to_bits()).collect(),
        dispersion: u
            .dispersion
            .iter()
            .map(|d| {
                (
                    d.side,
                    d.samples,
                    d.mean.to_bits(),
                    d.std_dev.to_bits(),
                    d.min.to_bits(),
                    d.max.to_bits(),
                )
            })
            .collect(),
        verdict: u.verdict,
        distinct: u.distinct_argmins,
    }
}

/// What one tune leaves behind: the uncertainty bits (when bootstrapped)
/// and the session pmf memo's `(entries, retained_f64s)`.
#[derive(Debug, PartialEq)]
struct Run {
    bits: Option<Bits>,
    memo: (usize, usize),
}

fn run(replicates: Option<u32>, pipeline: bool, parallel: bool) -> Run {
    let city = City::nyc().scaled(SCALE);
    let window = AlphaWindow {
        slot_of_day: 16,
        day_start: 0,
        day_end: HISTORY_DAYS,
        weekdays_only: true,
    };
    let mut rng = StdRng::seed_from_u64(BOOT_SEED);
    let events = city.sample_history_events(window.slot_of_day, 0..HISTORY_DAYS, &mut rng);
    let mut builder = EngineConfig::builder()
        .hgrid_budget_side(BUDGET_SIDE)
        .side_range(SIDE_RANGE.0, SIDE_RANGE.1)
        .strategy(SearchStrategy::BruteForce)
        .alpha_window(window)
        .clock(*city.clock())
        .pipeline(pipeline);
    if let Some(b) = replicates {
        builder = builder.bootstrap(b, BOOT_SEED);
    }
    let cfg = builder.build().expect("golden config is valid");
    let model = |s: u32| MODEL_COEF * (s * s) as f64;
    let mut session = TuningSession::new(cfg, model).expect("validated above");
    session
        .ingest(&events)
        .expect("synthetic events are finite");
    let report = match parallel {
        true => session.tune_parallel(),
        false => session.tune(),
    }
    .expect("analytic model leg");
    let memo = session.alpha_cache().expect("tuned").pmf_memo();
    Run {
        bits: report.uncertainty.as_ref().map(bits),
        memo: (memo.entries(), memo.retained_f64s()),
    }
}

#[test]
fn bootstrap_is_bit_identical_across_the_thread_matrix() {
    // Baselines: single worker, pipeline off, sequential tune.
    gridtuner_par::set_max_threads(1);
    let plain = run(None, false, false);
    assert!(
        plain.memo.0 > 0,
        "the point tune must warm the session memo"
    );
    let references = [REPLICATES, ODD_REPLICATES].map(|b| (b, run(Some(b), false, false)));
    for (b, reference) in &references {
        let bits = reference.bits.as_ref().expect("bootstrap was configured");
        assert_eq!(bits.argmins.len(), *b as usize);
        assert_eq!(bits.errors.len(), *b as usize);
        assert_eq!(
            reference.memo, plain.memo,
            "B={b}: the replicates grew the session pmf memo"
        );
    }
    for threads in [1usize, 2, 8] {
        gridtuner_par::set_max_threads(threads);
        for pipeline in [false, true] {
            for parallel in [false, true] {
                for (b, reference) in &references {
                    let got = run(Some(*b), pipeline, parallel);
                    assert_eq!(
                        &got, reference,
                        "B={b} diverged at {threads} threads \
                         (pipeline={pipeline}, parallel={parallel})"
                    );
                }
            }
        }
    }
}
