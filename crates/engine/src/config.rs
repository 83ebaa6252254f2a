//! The unified, validated engine configuration.
//!
//! One struct holds the search, [`AlphaWindow`], [`SimConfig`] and
//! `FleetConfig` (which travels inside the sim config) knobs: a session is
//! constructed from a single [`EngineConfig`], and every invariant is
//! checked once, up front, by the builder — returning a typed
//! [`EngineError::Config`] instead of panicking mid-pipeline.

use crate::error::EngineError;
use crate::uncertainty::BootstrapConfig;
use gridtuner_core::alpha::AlphaWindow;
use gridtuner_core::error::CoreError;
use gridtuner_core::search::{
    try_brute_force, try_iterative_method, try_ternary_search, SearchOutcome,
};
use gridtuner_dispatch::SimConfig;
use gridtuner_spatial::SlotClock;

/// Which search algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchStrategy {
    /// Exhaustive scan (always optimal, `O(√N)` model trainings).
    BruteForce,
    /// Algorithm 4 (`O(log √N)` model trainings).
    Ternary,
    /// Algorithm 5 with the given start point and search bound.
    Iterative {
        /// Initial MGrid side (paper default: 16 ≈ 2 km grids).
        init: u32,
        /// Search boundary `b`.
        bound: u32,
    },
}

impl SearchStrategy {
    /// Runs this strategy's `try_*` searcher over `probe` on `lo..=hi`.
    pub(crate) fn run(
        self,
        probe: impl FnMut(u32) -> Result<f64, CoreError>,
        lo: u32,
        hi: u32,
    ) -> Result<SearchOutcome, CoreError> {
        match self {
            SearchStrategy::BruteForce => try_brute_force(probe, lo, hi),
            SearchStrategy::Ternary => try_ternary_search(probe, lo, hi),
            SearchStrategy::Iterative { init, bound } => {
                try_iterative_method(probe, lo, hi, init, bound)
            }
        }
    }
}

/// Everything a [`TuningSession`](crate::TuningSession) needs to know.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// `√N`: side of the HGrid budget lattice (paper: 128).
    pub hgrid_budget_side: u32,
    /// Inclusive range of MGrid sides to search (paper: 4..=76).
    pub side_range: (u32, u32),
    /// Search algorithm.
    pub strategy: SearchStrategy,
    /// α-estimation window.
    pub alpha_window: AlphaWindow,
    /// The slot clock events are binned with.
    pub clock: SlotClock,
    /// Dispatch-simulation parameters, when the session drives the
    /// downstream case study (fleet config included).
    pub sim: Option<SimConfig>,
    /// Probe-level pipelining: overlap `alpha.derive` for probe `k+1`
    /// with `expression_error` for probe `k` on brute-force sweeps. The
    /// derived-field cache is a pure memo, so prefetching it is
    /// bit-invisible; disable to prove it (the testkit does).
    pub pipeline: bool,
    /// Bootstrap uncertainty: when set, every tune follows its search
    /// with B seeded replicate tunes and reports a confidence set over
    /// the side plus a stability verdict.
    pub bootstrap: Option<BootstrapConfig>,
}

impl Default for EngineConfig {
    /// The paper's setup: `√N = 128`, sides `4..=76`, the Iterative Method
    /// from side 16 with bound 4, the default α window and clock, pipeline
    /// on, no simulator and no bootstrap.
    fn default() -> Self {
        EngineConfig {
            hgrid_budget_side: 128,
            side_range: (4, 76),
            strategy: SearchStrategy::Iterative { init: 16, bound: 4 },
            alpha_window: AlphaWindow::default(),
            clock: SlotClock::default(),
            sim: None,
            pipeline: true,
            bootstrap: None,
        }
    }
}

impl EngineConfig {
    /// Starts a builder pre-loaded with the paper's defaults.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            cfg: EngineConfig::default(),
        }
    }

    /// Checks every cross-field invariant. Sessions call this once at
    /// construction; the builder calls it on `build`.
    pub fn validate(&self) -> Result<(), EngineError> {
        let (lo, hi) = self.side_range;
        if lo < 1 || lo > hi {
            return Err(EngineError::Config(format!(
                "invalid side range [{lo}, {hi}]"
            )));
        }
        if self.hgrid_budget_side == 0 {
            return Err(EngineError::Config(
                "HGrid budget side must be positive".into(),
            ));
        }
        // Iterative's `init` is deliberately NOT range-checked: Algorithm 5
        // clamps it into [lo, hi] (its documented contract), so an
        // out-of-range start is a valid way to say "start at the edge".
        if let SearchStrategy::Iterative { bound, .. } = self.strategy {
            if bound < 1 {
                return Err(EngineError::Config(
                    "iterative search bound must be at least 1".into(),
                ));
            }
        }
        let w = &self.alpha_window;
        if w.day_start > w.day_end {
            return Err(EngineError::Config(format!(
                "α window days reversed: [{}, {})",
                w.day_start, w.day_end
            )));
        }
        if w.slot_of_day >= self.clock.slots_per_day() {
            return Err(EngineError::Config(format!(
                "α window slot-of-day {} outside the clock's {} slots",
                w.slot_of_day,
                self.clock.slots_per_day()
            )));
        }
        if let Some(boot) = &self.bootstrap {
            if boot.replicates < 1 {
                return Err(EngineError::Config(
                    "bootstrap must run at least one replicate".into(),
                ));
            }
        }
        if let Some(sim) = &self.sim {
            if sim.fleet.n_drivers == 0 {
                return Err(EngineError::Config(
                    "fleet must have at least one driver".into(),
                ));
            }
            if sim.fleet.speed_km_per_min.is_nan() || sim.fleet.speed_km_per_min <= 0.0 {
                return Err(EngineError::Config(format!(
                    "driving speed must be positive, got {}",
                    sim.fleet.speed_km_per_min
                )));
            }
            if sim.fleet.max_wait_min.is_nan() || sim.fleet.max_wait_min < 0.0 {
                return Err(EngineError::Config(format!(
                    "wait cap must be non-negative, got {}",
                    sim.fleet.max_wait_min
                )));
            }
            if sim.unserved_penalty_km.is_nan() || sim.unserved_penalty_km < 0.0 {
                return Err(EngineError::Config(format!(
                    "unserved-order penalty must be non-negative, got {}",
                    sim.unserved_penalty_km
                )));
            }
        }
        Ok(())
    }
}

/// Builder for [`EngineConfig`]; `build` validates.
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// `√N`: side of the HGrid budget lattice.
    pub fn hgrid_budget_side(mut self, side: u32) -> Self {
        self.cfg.hgrid_budget_side = side;
        self
    }

    /// Inclusive MGrid side range to search.
    pub fn side_range(mut self, lo: u32, hi: u32) -> Self {
        self.cfg.side_range = (lo, hi);
        self
    }

    /// Search algorithm.
    pub fn strategy(mut self, strategy: SearchStrategy) -> Self {
        self.cfg.strategy = strategy;
        self
    }

    /// α-estimation window.
    pub fn alpha_window(mut self, window: AlphaWindow) -> Self {
        self.cfg.alpha_window = window;
        self
    }

    /// Slot clock.
    pub fn clock(mut self, clock: SlotClock) -> Self {
        self.cfg.clock = clock;
        self
    }

    /// Dispatch-simulation parameters (fleet travels inside).
    pub fn sim(mut self, sim: SimConfig) -> Self {
        self.cfg.sim = Some(sim);
        self
    }

    /// Enables or disables the probe-level α-prefetch pipeline
    /// (default on; results are bit-identical either way).
    pub fn pipeline(mut self, on: bool) -> Self {
        self.cfg.pipeline = on;
        self
    }

    /// Enables bootstrap uncertainty: `replicates` seeded replicate
    /// tunes after every search, reported as a confidence set.
    pub fn bootstrap(mut self, replicates: u32, seed: u64) -> Self {
        self.cfg.bootstrap = Some(BootstrapConfig::new(replicates, seed));
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<EngineConfig, EngineError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridtuner_dispatch::FleetConfig;
    use gridtuner_spatial::GeoBounds;

    #[test]
    fn default_config_mirrors_the_paper() {
        // Sec. VI-A: a 128×128 HGrid budget, sides 4..=76, and the
        // iterative method started at 16 with bound 4.
        let cfg = EngineConfig::default();
        assert_eq!(cfg.hgrid_budget_side, 128);
        assert_eq!(cfg.side_range, (4, 76));
        assert_eq!(
            cfg.strategy,
            SearchStrategy::Iterative { init: 16, bound: 4 }
        );
    }

    #[test]
    fn default_mirrors_the_legacy_tuner_config() {
        // The rest of the default is what the pre-engine tuner ran with:
        // the default α window, the pipelined sweep, and no simulator or
        // bootstrap stage. It validates as is.
        let cfg = EngineConfig::default();
        assert_eq!(cfg.alpha_window, AlphaWindow::default());
        assert!(cfg.pipeline);
        assert!(cfg.sim.is_none() && cfg.bootstrap.is_none());
        cfg.validate().unwrap();
    }

    #[test]
    fn builder_rejects_reversed_ranges() {
        let err = EngineConfig::builder()
            .side_range(10, 2)
            .build()
            .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("side range"), "{err}");
    }

    #[test]
    fn builder_accepts_out_of_range_iterative_start_but_rejects_zero_bound() {
        // Algorithm 5 clamps `init` into the range, so this is valid...
        EngineConfig::builder()
            .side_range(2, 8)
            .strategy(SearchStrategy::Iterative { init: 16, bound: 4 })
            .build()
            .unwrap();
        // ...while a zero bound can never terminate a comparison step.
        let err = EngineConfig::builder()
            .side_range(2, 8)
            .strategy(SearchStrategy::Iterative { init: 4, bound: 0 })
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(err.to_string().contains("bound"), "{err}");
    }

    #[test]
    fn builder_rejects_bad_fleet() {
        let err = EngineConfig::builder()
            .side_range(2, 24)
            .strategy(SearchStrategy::BruteForce)
            .sim(SimConfig {
                fleet: FleetConfig {
                    n_drivers: 0,
                    ..FleetConfig::default()
                },
                geo: GeoBounds::xian(),
                unserved_penalty_km: 10.0,
            })
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("driver"), "{err}");
    }

    #[test]
    fn builder_rejects_zero_bootstrap_replicates() {
        let err = EngineConfig {
            bootstrap: Some(BootstrapConfig::new(0, 1)),
            ..EngineConfig::default()
        }
        .validate()
        .unwrap_err();
        assert_eq!(err.exit_code(), 2);
        assert!(err.to_string().contains("replicate"), "{err}");
        let ok = EngineConfig::builder().bootstrap(32, 2022).build().unwrap();
        assert_eq!(ok.bootstrap, Some(BootstrapConfig::new(32, 2022)));
    }

    #[test]
    fn builder_accepts_the_paper_setup() {
        let cfg = EngineConfig::builder()
            .hgrid_budget_side(128)
            .side_range(4, 76)
            .strategy(SearchStrategy::Iterative { init: 16, bound: 4 })
            .build()
            .unwrap();
        assert_eq!(cfg.side_range, (4, 76));
    }
}
