//! Seeded scenario generation with structural shrinking.
//!
//! A [`Scenario`] is everything an oracle pair needs to run: a synthetic
//! city-like event log (hotspots + background noise, some events outside
//! the α window or the unit square to exercise the filters), the slot
//! clock, the α-estimation window, an analytic model-error curve and the
//! side range to search. Everything derives deterministically from a
//! [`ScenarioParams`] value, which itself derives from a single `u64`
//! seed — so a failure report only ever needs to quote the seed (or, after
//! shrinking, the full parameter record).
//!
//! Shrinking is structural, not byte-level: [`ScenarioParams::shrink_candidates`]
//! proposes smaller parameter records (fewer days, fewer events, fewer
//! hotspots, narrower side range, smaller HGrid budget), and the engine
//! greedily re-runs the failing check on each candidate. Because the data
//! is *regenerated from the params*, every shrunk counterexample is
//! self-contained and replayable.

use gridtuner_core::alpha::AlphaWindow;
use gridtuner_engine::{EngineConfig, SearchStrategy};
use gridtuner_spatial::{Event, Point, SlotClock};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The full parameter record a scenario is generated from.
///
/// Every field is drawn from the seed by [`ScenarioParams::from_seed`];
/// the `Debug` form of this struct is the canonical reproducer in
/// divergence reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioParams {
    /// Root seed; also salts the event-sampling RNG.
    pub seed: u64,
    /// History days in the log (1..=8).
    pub days: u32,
    /// Events per matching (day, slot) pair (1..=120).
    pub events_per_day: u32,
    /// Demand hotspots (1..=4); more hotspots → lumpier α field.
    pub hotspots: u32,
    /// HGrid budget lattice side `√N` (8 or 16 — small enough that the
    /// O(mK³) naive expression error stays affordable).
    pub budget_side: u32,
    /// Upper end of the searched MGrid side range (2..=12).
    pub max_side: u32,
    /// Slot-of-day the α window averages over.
    pub slot_of_day: u32,
    /// Whether the α window masks out weekends.
    pub weekdays_only: bool,
    /// Slope of the analytic model-error curve `n ↦ coef·n`.
    pub model_coef: f64,
}

impl ScenarioParams {
    /// Draws a parameter record from a root seed.
    pub fn from_seed(seed: u64) -> Self {
        // Mix the seed before drawing so consecutive seeds do not produce
        // correlated parameter records.
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ce9_a6c0_d15c_0b5e);
        ScenarioParams {
            seed,
            days: rng.gen_range(1..=8u32),
            events_per_day: rng.gen_range(1..=120u32),
            hotspots: rng.gen_range(1..=4u32),
            budget_side: if rng.gen_bool(0.5) { 8 } else { 16 },
            max_side: rng.gen_range(2..=12u32),
            slot_of_day: rng.gen_range(0..48u32),
            weekdays_only: rng.gen_bool(0.5),
            model_coef: rng.gen_range(0.0..2.0f64),
        }
    }

    /// The inclusive MGrid side range the scenario's searches cover.
    pub fn side_range(&self) -> (u32, u32) {
        (1, self.max_side)
    }

    /// Structurally smaller variants of `self`, largest reduction first.
    ///
    /// The differential engine retries a failing check on each candidate
    /// and recurses on the first that still fails, so the order here is a
    /// greedy descent: halve the big knobs before nudging the small ones.
    pub fn shrink_candidates(&self) -> Vec<ScenarioParams> {
        let mut out = Vec::new();
        let mut push = |p: ScenarioParams| {
            if p != *self {
                out.push(p);
            }
        };
        push(ScenarioParams {
            days: (self.days / 2).max(1),
            ..*self
        });
        push(ScenarioParams {
            events_per_day: (self.events_per_day / 2).max(1),
            ..*self
        });
        push(ScenarioParams {
            hotspots: 1,
            ..*self
        });
        push(ScenarioParams {
            budget_side: 8,
            ..*self
        });
        push(ScenarioParams {
            max_side: (self.max_side / 2).max(2),
            ..*self
        });
        push(ScenarioParams {
            max_side: self.max_side.saturating_sub(1).max(2),
            ..*self
        });
        push(ScenarioParams {
            weekdays_only: false,
            ..*self
        });
        push(ScenarioParams {
            model_coef: 0.0,
            ..*self
        });
        push(ScenarioParams {
            days: self.days.saturating_sub(1).max(1),
            ..*self
        });
        push(ScenarioParams {
            events_per_day: self.events_per_day.saturating_sub(1).max(1),
            ..*self
        });
        out
    }
}

/// A fully materialised test scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The record this scenario was generated from.
    pub params: ScenarioParams,
    /// The synthetic event log (window hits, off-slot noise, and a few
    /// out-of-square strays).
    pub events: Vec<Event>,
    /// The slot clock shared by all derived estimates.
    pub clock: SlotClock,
    /// The α-estimation window.
    pub window: AlphaWindow,
}

impl Scenario {
    /// Generates the scenario for a root seed.
    pub fn generate(seed: u64) -> Self {
        Scenario::from_params(ScenarioParams::from_seed(seed))
    }

    /// Materialises a scenario from an explicit parameter record — the
    /// replay path for shrunk counterexamples.
    pub fn from_params(params: ScenarioParams) -> Self {
        let clock = SlotClock::default();
        let window = AlphaWindow {
            slot_of_day: params.slot_of_day,
            day_start: 0,
            day_end: params.days,
            weekdays_only: params.weekdays_only,
        };
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0x00e5_11fe_c0de_cafe);
        // Hotspot centres and spreads.
        let spots: Vec<(f64, f64, f64)> = (0..params.hotspots)
            .map(|_| {
                (
                    rng.gen_range(0.05..0.95),
                    rng.gen_range(0.05..0.95),
                    rng.gen_range(0.02..0.2),
                )
            })
            .collect();
        let minutes_per_slot = 24 * 60 / clock.slots_per_day();
        let mut events = Vec::new();
        for day in 0..params.days {
            for i in 0..params.events_per_day {
                let loc = if rng.gen_bool(0.8) {
                    // Hotspot draw: triangular-ish spread around the centre.
                    let (cx, cy, s) = spots[rng.gen_range(0..spots.len())];
                    let dx = s * (rng.gen_range(0.0..1.0) + rng.gen_range(0.0..1.0) - 1.0);
                    let dy = s * (rng.gen_range(0.0..1.0) + rng.gen_range(0.0..1.0) - 1.0);
                    Point::new(cx + dx, cy + dy).clamp_unit()
                } else {
                    Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0))
                };
                let minute_in_slot = rng.gen_range(0..minutes_per_slot);
                let minute = day * 24 * 60 + params.slot_of_day * minutes_per_slot + minute_in_slot;
                events.push(Event::new(loc, minute));
                // Off-window noise: same day, a different slot. The α
                // estimate must ignore these.
                if i % 5 == 0 {
                    let other_slot = (params.slot_of_day + 1 + rng.gen_range(0..46u32)) % 48;
                    let noise_minute = day * 24 * 60 + other_slot * minutes_per_slot;
                    events.push(Event::new(
                        Point::new(rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)),
                        noise_minute,
                    ));
                }
            }
            // A stray outside the unit square: every grid-binning path must
            // drop it, and drop it consistently.
            events.push(Event::new(
                Point::new(1.0 + rng.gen_range(0.0..0.5), rng.gen_range(0.0..1.0)),
                day * 24 * 60 + params.slot_of_day * minutes_per_slot,
            ));
        }
        Scenario {
            params,
            events,
            clock,
            window,
        }
    }

    /// A derived RNG for per-check sampling, decorrelated from the event
    /// stream and from other checks via `salt`.
    pub fn rng(&self, salt: u64) -> StdRng {
        StdRng::seed_from_u64(self.params.seed.rotate_left(17) ^ salt)
    }

    /// The analytic model-error leg `s ↦ coef·s²` — cheap, `Sync`, and
    /// strictly increasing in `n`, so the induced upper-bound curve has the
    /// paper's decrease-then-increase shape when the α field is lumpy.
    pub fn model_fn(&self) -> impl Fn(u32) -> f64 + Sync + Copy {
        let coef = self.params.model_coef;
        move |s: u32| coef * (s * s) as f64
    }

    /// The scenario's session configuration — HGrid budget, side range,
    /// α window and clock — under `strategy`, with the engine's defaults
    /// for everything else.
    pub fn engine_config(&self, strategy: SearchStrategy) -> EngineConfig {
        EngineConfig {
            hgrid_budget_side: self.params.budget_side,
            side_range: self.params.side_range(),
            strategy,
            alpha_window: self.window,
            clock: self.clock,
            ..EngineConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Scenario::generate(7);
        let b = Scenario::generate(7);
        assert_eq!(a.params, b.params);
        assert_eq!(a.events.len(), b.events.len());
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!(x.loc, y.loc);
            assert_eq!(x.minute, y.minute);
        }
    }

    #[test]
    fn distinct_seeds_differ() {
        let a = Scenario::generate(1);
        let b = Scenario::generate(2);
        assert_ne!(a.params, b.params);
    }

    #[test]
    fn shrink_candidates_are_strictly_structurally_smaller_or_equal() {
        let p = ScenarioParams::from_seed(99);
        for c in p.shrink_candidates() {
            assert_ne!(c, p);
            assert!(c.days <= p.days);
            assert!(c.events_per_day <= p.events_per_day);
            assert!(c.max_side <= p.max_side);
            assert!(c.max_side >= 2);
            assert!(c.days >= 1);
        }
    }

    #[test]
    fn replay_from_params_matches_generate() {
        let s = Scenario::generate(123);
        let replay = Scenario::from_params(s.params);
        assert_eq!(s.events.len(), replay.events.len());
        assert_eq!(s.window, replay.window);
    }

    #[test]
    fn events_include_window_hits() {
        let s = Scenario::generate(5);
        let hits = s
            .events
            .iter()
            .filter(|e| {
                e.loc.in_unit_square()
                    && s.clock.slot_of_day(e.slot(&s.clock)) == s.params.slot_of_day
            })
            .count();
        assert!(hits > 0, "scenario must put events inside the α window");
    }
}
