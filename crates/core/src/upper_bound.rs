//! Algorithm 3: `UpperBound(n, N, X, Model)` — the quantity the search
//! algorithms minimise.
//!
//! For an MGrid side `s` (`n = s²`), the upper bound of the total real
//! error is
//!
//! ```text
//! e(s) = n·MAE(f)  +  Σ_i Σ_j E_e(i, j)
//! ```
//!
//! The first term is supplied by a [`ModelErrorSource`] (training a
//! prediction model for side `s` and measuring its MGrid-level MAE —
//! Eq. 20); the second is computed analytically from the α field estimated
//! on the partition's HGrid lattice (Sec. III-B), via
//! [`AlphaFieldCache::expression_error`]. The engine's `TuningSession`
//! adds the two legs per probe.
//!
//! [`AlphaFieldCache::expression_error`]:
//!     crate::alpha_cache::AlphaFieldCache::expression_error

use crate::error::CoreError;

/// The model leg of Algorithm 3, typed and fallible — the model leg
/// of the engine's session API. `HistoricalAverage`-backed city models,
/// the nn predictors, and testkit's synthetic oracles all plug in through
/// this one trait, as do plain `FnMut(u32) -> f64` closures; failures
/// surface as [`CoreError::Model`] instead of panicking mid-search.
pub trait ModelErrorSource {
    /// Total model error at MGrid side `s`, or a typed failure.
    fn model_error(&mut self, mgrid_side: u32) -> Result<f64, CoreError>;

    /// Whether the source reads the ingested event log. When true, a data
    /// delta invalidates the session's per-side model-error memo; analytic
    /// sources (the default) keep their memo across ingests.
    fn data_dependent(&self) -> bool {
        false
    }
}

impl<F: FnMut(u32) -> f64> ModelErrorSource for F {
    fn model_error(&mut self, mgrid_side: u32) -> Result<f64, CoreError> {
        Ok(self(mgrid_side))
    }
}

/// A thread-safe model-error source: probes through `&self`, so a
/// parallel brute-force sweep can evaluate many sides concurrently.
pub trait SyncModelErrorSource: Sync {
    /// Total model error at MGrid side `s`, or a typed failure.
    fn model_error_sync(&self, mgrid_side: u32) -> Result<f64, CoreError>;

    /// See [`ModelErrorSource::data_dependent`].
    fn data_dependent(&self) -> bool {
        false
    }
}

impl<F: Fn(u32) -> f64 + Sync> SyncModelErrorSource for F {
    fn model_error_sync(&self, mgrid_side: u32) -> Result<f64, CoreError> {
        Ok(self(mgrid_side))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alpha::AlphaWindow;
    use crate::alpha_cache::AlphaFieldCache;
    use crate::search::try_brute_force;
    use gridtuner_spatial::{Event, Partition, Point, SlotClock};

    /// Events concentrated in one corner of the map, every day at slot 0.
    fn corner_events(days: u32, per_day: usize) -> Vec<Event> {
        let mut out = Vec::new();
        for d in 0..days {
            for i in 0..per_day {
                let f = i as f64 / per_day as f64;
                out.push(Event::new(
                    Point::new(0.05 + 0.1 * f, 0.05 + 0.07 * ((i * 7) % 10) as f64 / 10.0),
                    d * 24 * 60,
                ));
            }
        }
        out
    }

    fn cache(events: &[Event]) -> AlphaFieldCache {
        let window = AlphaWindow {
            slot_of_day: 0,
            day_start: 0,
            day_end: 7,
            weekdays_only: false,
        };
        AlphaFieldCache::new(events, &SlotClock::default(), &window)
    }

    /// The expression leg at side `s` on a 16×16 HGrid budget.
    fn expr(cache: &AlphaFieldCache, side: u32) -> f64 {
        cache
            .expression_error(&Partition::for_budget(side, 16))
            .unwrap()
    }

    #[test]
    fn upper_bound_is_sum_of_legs() {
        let cache = cache(&corner_events(7, 40));
        let mut model = |s: u32| (s * s) as f64 * 0.1;
        let outcome =
            try_brute_force(|s| Ok(expr(&cache, s) + model.model_error(s)?), 1, 8).unwrap();
        let (side, total) = (outcome.side, outcome.error);
        assert_eq!(
            total.to_bits(),
            (expr(&cache, side) + model(side)).to_bits()
        );
        assert!(
            expr(&cache, 4) > 0.0,
            "concentrated events must have expression error"
        );
    }

    #[test]
    fn expression_leg_decreases_and_model_leg_increases() {
        let cache = cache(&corner_events(7, 60));
        let mut model = |s: u32| (s * s) as f64 * 0.5;
        let e_coarse = expr(&cache, 1);
        let e_fine = expr(&cache, 16);
        assert!(
            e_coarse > e_fine,
            "expression: coarse {e_coarse} fine {e_fine}"
        );
        assert!(model.model_error(16).unwrap() > model.model_error(1).unwrap());
    }

    #[test]
    fn induced_curve_is_u_shaped() {
        // With a linear-in-n model error and a concentrated α field, e(s)
        // must dip somewhere strictly inside the range (the paper's
        // decrease-then-increase claim, Sec. III-C). The model-error slope
        // is chosen so the right edge (where the expression error vanishes
        // because m = 1) is clearly worse than the interior.
        let cache = cache(&corner_events(7, 200));
        let model = |s: u32| (s * s) as f64 * 2.0;
        let curve: Vec<f64> = (1..=16)
            .map(|s| expr(&cache, s) + model.model_error_sync(s).unwrap())
            .collect();
        let min_idx = curve
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert!(
            min_idx > 0 && min_idx < curve.len() - 1,
            "minimum at the boundary: idx={min_idx}, curve={curve:?}"
        );
    }

    #[test]
    fn partition_for_respects_budget() {
        for side in [1u32, 4, 16, 24, 76] {
            let p = Partition::for_budget(side, 128);
            assert!(p.total_hgrids() >= 128 * 128, "side {side}");
            assert_eq!(p.mgrid_side(), side);
        }
    }
}
