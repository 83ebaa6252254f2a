//! The tuning session: the engine's stateful front door.
//!
//! A [`TuningSession`] owns the ingested event log, the one-pass
//! [`AlphaFieldCache`], the per-side model-error memo and the observability
//! root of the run. The tune flow is the explicit stage pipeline
//! ingest → alpha → search → report; every stage is recorded and every
//! failure surfaces as a typed [`EngineError`].
//!
//! **Incremental re-tune.** Appending events with [`ingest`] after a tune
//! does *not* rebuild the pipeline: the delta goes through
//! [`AlphaFieldCache::append`] (one partial scan, `O(|delta|)`), the
//! derived α memo is invalidated only if the delta touched the window, and
//! the model-error memo survives unless the model source declares itself
//! data-dependent. The resulting session is **bit-identical** to one built
//! from scratch on the concatenated log — the testkit pins this down
//! across thread counts.
//!
//! [`ingest`]: TuningSession::ingest

use crate::config::{EngineConfig, SearchStrategy};
use crate::error::EngineError;
use crate::stage::{StageKind, StageRecord};
use crate::uncertainty::{run_bootstrap, Replicates, UncertaintyReport};
use gridtuner_core::alpha_cache::AlphaFieldCache;
use gridtuner_core::error::CoreError;
use gridtuner_core::search::{try_brute_force_parallel, SearchOutcome};
use gridtuner_core::upper_bound::{ModelErrorSource, SyncModelErrorSource};
use gridtuner_obs as obs;
use gridtuner_spatial::{Event, Partition};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// What one [`TuningSession::ingest`] call did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestReport {
    /// Events appended to the session log.
    pub ingested: usize,
    /// How many of them entered the α window's digest.
    pub matched: usize,
    /// Whether the delta invalidated derived α fields (and, for
    /// data-dependent models, the model-error memo).
    pub invalidated: bool,
    /// Session log size after the append.
    pub total_events: usize,
}

/// Outcome of one tune: the winning partition plus the search trace and
/// the cache counters that certify how the work was done. Every field is
/// a deterministic function of the session's inputs and history; the
/// process-wide kernel and pool counters live in the `obs` registry.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneReport {
    /// The selected partition (MGrid side = `outcome.side`).
    pub partition: Partition,
    /// The search trace (selected side, error, evaluation count, probes).
    pub outcome: SearchOutcome,
    /// Full event-log passes the α cache performed (the invariant: 1 for
    /// the session's lifetime, however many tunes and probes ran).
    pub alpha_full_scans: u64,
    /// Delta (append-only) passes — one per matching [`ingest`] call.
    ///
    /// [`ingest`]: TuningSession::ingest
    pub alpha_delta_scans: u64,
    /// Probes served from the per-side model-error memo during this tune —
    /// the incremental re-tune dividend.
    pub model_memo_hits: usize,
    /// Bootstrap confidence set and stability verdict — present when the
    /// session config enables [`bootstrap`](EngineConfig::bootstrap).
    pub uncertainty: Option<UncertaintyReport>,
}

/// Runs `search` with a pipeline thread warming the α-derivation memo one
/// probe ahead: while the main path evaluates `expression_error` for probe
/// `k`, the prefetcher drives `alpha.derive` for probes `k+1, k+2, …`.
/// [`AlphaFieldCache::alpha`] is a pure, memoised derivation, so warming
/// it cannot change any bit of any probe — the sequential fallback
/// (`pipeline: false`) produces identical results, which the testkit pins.
/// Only worthwhile when the probe schedule is known up front (brute
/// force); adaptive searches skip it.
fn with_alpha_prefetch<T>(
    cache: &AlphaFieldCache,
    budget: u32,
    sides: std::ops::RangeInclusive<u32>,
    enabled: bool,
    search: impl FnOnce() -> T,
) -> T {
    if !enabled || gridtuner_par::max_threads() <= 1 {
        return search();
    }
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            for side in sides {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                obs::counter!("engine.prefetched_alphas").inc();
                let _ = cache.alpha(Partition::for_budget(side, budget).hgrid_spec());
            }
        });
        let out = search();
        stop.store(true, Ordering::Relaxed);
        out
    })
}

/// Runs `f`, turning a panic — a pool worker's, re-raised on this thread,
/// or the caller's own — into a typed [`EngineError::Internal`] naming
/// `stage`, instead of tearing down the caller.
fn contain_panics<T>(stage: &str, f: impl FnOnce() -> T) -> Result<T, EngineError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("non-string panic payload");
        EngineError::Internal(format!("{stage} worker panicked: {message}"))
    })
}

/// The per-side model-error memo, immune to lock poisoning (it only ever
/// holds finished values).
#[derive(Default)]
struct ModelMemo(Mutex<HashMap<u32, f64>>);

impl ModelMemo {
    fn lock(&self) -> MutexGuard<'_, HashMap<u32, f64>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The model error at `side`, computed by `leg` and stored on a miss;
    /// the flag says whether the memo served it. Concurrent misses on one
    /// side may each run `leg`; a deterministic leg gives them one value,
    /// so it does not matter which insert lands.
    fn get_or_compute(
        &self,
        side: u32,
        leg: impl FnOnce(u32) -> Result<f64, CoreError>,
    ) -> Result<(f64, bool), CoreError> {
        // Bind the lookup first: a guard living in a `match` scrutinee
        // would still be held in the miss arm.
        let cached = self.lock().get(&side).copied();
        match cached {
            Some(m) => Ok((m, true)),
            None => {
                let m = leg(side)?;
                self.lock().insert(side, m);
                Ok((m, false))
            }
        }
    }

    /// [`get_or_compute`](Self::get_or_compute)'s value alone.
    fn value(
        &self,
        side: u32,
        leg: impl FnOnce(u32) -> Result<f64, CoreError>,
    ) -> Result<f64, CoreError> {
        self.get_or_compute(side, leg).map(|(m, _)| m)
    }
}

/// One probe of Algorithm 3's bound, shared by every search: the side's
/// [`Partition`] expression error from the α cache plus its memoised model
/// error.
struct Probe<'a> {
    cache: &'a AlphaFieldCache,
    memo: &'a ModelMemo,
    budget: u32,
    /// Probes whose model leg the memo served.
    memo_hits: AtomicUsize,
}

impl Probe<'_> {
    fn eval(
        &self,
        side: u32,
        leg: impl FnOnce(u32) -> Result<f64, CoreError>,
    ) -> Result<f64, CoreError> {
        let _span = obs::span!("probe", side = side);
        obs::counter!("tune.probes").inc();
        let part = Partition::for_budget(side, self.budget);
        let expr = self.cache.expression_error(&part)?;
        let (model_err, hit) = self.memo.get_or_compute(side, leg)?;
        if hit {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
        }
        let total = expr + model_err;
        obs::event!(
            "probe",
            side = side,
            expression_error = expr,
            model_error = model_err,
            total = total,
        );
        Ok(total)
    }
}

/// A stateful tuning run: dataset handle, α cache, model-error memo and
/// stage log in one place. Create with [`TuningSession::new`], feed with
/// [`ingest`](Self::ingest), run with [`tune`](Self::tune).
pub struct TuningSession<S> {
    config: EngineConfig,
    events: Vec<Event>,
    cache: Option<AlphaFieldCache>,
    model: S,
    model_memo: ModelMemo,
    stages: Vec<StageRecord>,
}

impl<S> TuningSession<S> {
    /// Validates `config` and opens an empty session around `model`.
    pub fn new(config: EngineConfig, model: S) -> Result<Self, EngineError> {
        config.validate()?;
        Ok(TuningSession {
            config,
            events: Vec::new(),
            cache: None,
            model,
            model_memo: ModelMemo::default(),
            stages: Vec::new(),
        })
    }

    /// The session's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The ingested event log, in ingestion order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Every stage executed so far, in order.
    pub fn stages(&self) -> &[StageRecord] {
        &self.stages
    }

    /// Events that survived the α window filter (0 before the first scan).
    pub fn digest_len(&self) -> usize {
        self.cache.as_ref().map_or(0, |c| c.digest_len())
    }

    /// The α cache, once the alpha stage has run.
    pub fn alpha_cache(&self) -> Option<&AlphaFieldCache> {
        self.cache.as_ref()
    }

    /// The model-error source.
    pub fn model(&self) -> &S {
        &self.model
    }

    /// Number of sides with a memoised model error.
    pub fn memoised_sides(&self) -> usize {
        self.model_memo.lock().len()
    }

    /// Hands out a dispatch simulator for the configured case study.
    pub fn simulator(&mut self) -> Result<gridtuner_dispatch::Simulator, EngineError> {
        let sim = self.config.sim.ok_or_else(|| {
            EngineError::Config(
                "no dispatch configuration: set EngineConfig::builder().sim(...)".into(),
            )
        })?;
        self.stages.push(StageRecord::new(
            StageKind::Dispatch,
            sim.fleet.n_drivers,
            format!("simulator with {} drivers", sim.fleet.n_drivers),
        ));
        Ok(gridtuner_dispatch::Simulator::new(sim))
    }

    /// The α cache, built on first use — the partition-refinement search
    /// shares the session's single-scan cache through this.
    pub(crate) fn cache_handle(&mut self) -> Result<&AlphaFieldCache, EngineError> {
        self.ensure_cache();
        self.cache
            .as_ref()
            .ok_or_else(|| EngineError::Internal("α cache missing after the alpha stage".into()))
    }

    /// Appends a stage record (crate-internal: stages defined outside this
    /// module, like the partition search, log through this).
    pub(crate) fn push_stage(&mut self, record: StageRecord) {
        self.stages.push(record);
    }

    /// The α stage: build the cache on first use (the session's single
    /// full scan), serve it afterwards. Returns whether this call built it.
    fn ensure_cache(&mut self) -> bool {
        if self.cache.is_some() {
            return false;
        }
        self.cache = Some(AlphaFieldCache::new(
            &self.events,
            &self.config.clock,
            &self.config.alpha_window,
        ));
        true
    }

    /// The one tune body behind [`tune`](Self::tune) and
    /// [`tune_parallel`](Self::tune_parallel), which differ only in how
    /// they map work: the α stage, then `search` over the shared [`Probe`]
    /// — with the α prefetcher when `prefetch` and the config's `pipeline`
    /// allow, panics contained — then the uncertainty stage and the
    /// report.
    fn tune_with(
        &mut self,
        prefetch: bool,
        search: impl FnOnce(&Probe<'_>, &mut S) -> Result<SearchOutcome, CoreError>,
        replicates: impl FnOnce(
            &Replicates<'_>,
            &ModelMemo,
            &mut S,
        ) -> Vec<Result<SearchOutcome, CoreError>>,
    ) -> Result<TuneReport, EngineError> {
        let (lo, hi) = self.config.side_range;
        let _span = obs::span!("tune", lo = lo, hi = hi, events = self.events.len());
        let built = self.ensure_cache();
        self.stages.push(StageRecord::new(
            StageKind::Alpha,
            self.digest_len(),
            if built {
                "digest built (full scan)"
            } else {
                "digest served from cache"
            },
        ));
        let budget = self.config.hgrid_budget_side;
        let prefetch = prefetch && self.config.pipeline;
        let cache = self
            .cache
            .as_ref()
            .ok_or_else(|| EngineError::Internal("α cache missing after the alpha stage".into()))?;
        let probe = Probe {
            cache,
            memo: &self.model_memo,
            budget,
            memo_hits: AtomicUsize::new(0),
        };
        let model = &mut self.model;
        let outcome = contain_panics("tune", || {
            with_alpha_prefetch(cache, budget, lo..=hi, prefetch, || search(&probe, model))
        })??;
        let memo_hits = probe.memo_hits.into_inner();
        // The uncertainty stage, when configured: `replicates` maps the B
        // replicate tunes, serving their model leg from the model memo
        // (see the module docs of [`crate::uncertainty`]).
        let uncertainty = match self.config.bootstrap {
            None => None,
            Some(boot) => {
                let (events, config, memo) = (&self.events, &self.config, &self.model_memo);
                let model = &mut self.model;
                let pmf = cache.shared_pmf();
                Some(contain_panics("uncertainty", || {
                    run_bootstrap(events, config, pmf, boot, &outcome, |reps| {
                        replicates(reps, memo, model)
                    })
                })??)
            }
        };
        self.report(outcome, memo_hits, uncertainty)
    }

    /// The report stage: records the search (and uncertainty) stages and
    /// assembles the [`TuneReport`].
    fn report(
        &mut self,
        outcome: SearchOutcome,
        memo_hits: usize,
        uncertainty: Option<UncertaintyReport>,
    ) -> Result<TuneReport, EngineError> {
        obs::gauge!("tune.selected_side").set(f64::from(outcome.side));
        self.stages.push(StageRecord::new(
            StageKind::Search,
            outcome.evals,
            format!("{} unique evaluations", outcome.evals),
        ));
        if let Some(u) = &uncertainty {
            self.stages.push(StageRecord::new(
                StageKind::Uncertainty,
                u.replicates as usize,
                format!(
                    "{} replicates, {}-side confidence set, verdict {}",
                    u.replicates,
                    u.confidence_set.len(),
                    u.verdict
                ),
            ));
        }
        let cache = self.cache.as_ref().ok_or_else(|| {
            EngineError::Internal("α cache missing after the search stage".into())
        })?;
        let report = TuneReport {
            partition: Partition::for_budget(outcome.side, self.config.hgrid_budget_side),
            outcome,
            alpha_full_scans: cache.full_scans(),
            alpha_delta_scans: cache.delta_scans(),
            model_memo_hits: memo_hits,
            uncertainty,
        };
        self.stages.push(StageRecord::new(
            StageKind::Report,
            1,
            format!(
                "side {} selected ({} memo hits)",
                report.outcome.side, report.model_memo_hits
            ),
        ));
        Ok(report)
    }
}

impl<S: ModelErrorSource> TuningSession<S> {
    /// Appends `events` to the session log.
    ///
    /// The first ingest (or the first [`tune`](Self::tune)) performs the
    /// session's one full α scan; every later ingest is an `O(|delta|)`
    /// append that invalidates only what the delta actually touched.
    /// Events with non-finite coordinates are rejected as
    /// [`EngineError::Data`] before anything is mutated.
    pub fn ingest(&mut self, events: &[Event]) -> Result<IngestReport, EngineError> {
        let _span = obs::span!("ingest", events = events.len());
        for (i, e) in events.iter().enumerate() {
            if !e.loc.x.is_finite() || !e.loc.y.is_finite() {
                return Err(EngineError::Data(format!(
                    "event {i} has a non-finite coordinate ({}, {})",
                    e.loc.x, e.loc.y
                )));
            }
        }
        let matched = match &mut self.cache {
            None => {
                self.events.extend_from_slice(events);
                let cache = AlphaFieldCache::new(
                    &self.events,
                    &self.config.clock,
                    &self.config.alpha_window,
                );
                let matched = cache.digest_len();
                self.cache = Some(cache);
                matched
            }
            Some(cache) => {
                let matched = cache.append(events, &self.config.clock, &self.config.alpha_window);
                self.events.extend_from_slice(events);
                matched
            }
        };
        // A data-dependent model reads the whole log, window or not: any
        // delta dirties its memo. Analytic sources keep theirs.
        let model_dirty = !events.is_empty() && self.model.data_dependent();
        if model_dirty {
            self.model_memo.lock().clear();
        }
        let invalidated = matched > 0 || model_dirty;
        self.stages.push(StageRecord::new(
            StageKind::Ingest,
            events.len(),
            format!("{matched} of {} events entered the α window", events.len()),
        ));
        Ok(IngestReport {
            ingested: events.len(),
            matched,
            invalidated,
            total_events: self.events.len(),
        })
    }

    /// Runs the configured search over Algorithm 3's bound: each probe
    /// adds the expression error of the side's [`Partition`] (served from
    /// the α cache) to the memoised model error. Bit-identical to running
    /// the same `try_*` searcher over a closure that estimates α directly
    /// from the events on every probe.
    pub fn tune(&mut self) -> Result<TuneReport, EngineError> {
        let (lo, hi) = self.config.side_range;
        let strategy = self.config.strategy;
        // Only brute force has a schedule known up front to prefetch
        // against; adaptive searches run unpipelined.
        let prefetch = matches!(strategy, SearchStrategy::BruteForce);
        self.tune_with(
            prefetch,
            |probe, model| strategy.run(|side| probe.eval(side, |s| model.model_error(s)), lo, hi),
            |reps, memo, model| {
                let mut leg = |side| memo.value(side, |s| model.model_error(s));
                reps.indices()
                    .into_iter()
                    .map(|r| reps.run(r, &mut leg))
                    .collect()
            },
        )
    }

    /// Memoised model error at one side (outside a search).
    pub fn model_error(&mut self, side: u32) -> Result<f64, EngineError> {
        let (m, _) = self
            .model_memo
            .get_or_compute(side, |s| self.model.model_error(s))?;
        Ok(m)
    }

    /// Expression error at one side, served from the α cache (building it
    /// on first use). Routes through the batched kernel and the session's
    /// pmf memo, so a post-tune decomposition query is nearly free.
    pub fn expression_error(&mut self, side: u32) -> Result<f64, EngineError> {
        self.ensure_cache();
        let budget = self.config.hgrid_budget_side;
        let part = Partition::for_budget(side, budget);
        match self.cache.as_ref() {
            None => Ok(0.0),
            Some(cache) => Ok(cache.expression_error(&part)?),
        }
    }
}

impl<S: SyncModelErrorSource> TuningSession<S> {
    /// Brute-force over the side range with probes spread across the
    /// worker pool, then bootstrap replicates (when configured) run as
    /// pool tasks. Deterministic: identical to [`tune`](Self::tune) under
    /// [`SearchStrategy::BruteForce`] with the same model values, for any
    /// `GRIDTUNER_THREADS`.
    pub fn tune_parallel(&mut self) -> Result<TuneReport, EngineError> {
        let (lo, hi) = self.config.side_range;
        self.tune_with(
            true,
            |probe, model| {
                let model = &*model;
                try_brute_force_parallel(
                    &|side| probe.eval(side, |s| model.model_error_sync(s)),
                    lo,
                    hi,
                )
            },
            |reps, memo, model| {
                let model = &*model;
                gridtuner_par::par_map(&reps.indices(), |&r| {
                    reps.run(r, &mut |side| {
                        memo.value(side, |s| model.model_error_sync(s))
                    })
                })
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridtuner_core::alpha::AlphaWindow;
    use gridtuner_core::search::{try_brute_force, try_iterative_method, try_ternary_search};
    use gridtuner_spatial::Point;

    fn skewed_events(n: usize, days: u32) -> Vec<Event> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut out = Vec::new();
        for d in 0..days {
            for i in 0..n {
                let (x, y) = if i % 2 == 0 {
                    (
                        0.2 + 0.2 * (unit() + unit()) / 2.0,
                        0.2 + 0.2 * (unit() + unit()) / 2.0,
                    )
                } else {
                    (unit(), unit())
                };
                out.push(Event::new(Point::new(x, y), d * 24 * 60 + (i % 30) as u32));
            }
        }
        out
    }

    fn cfg(strategy: SearchStrategy) -> EngineConfig {
        EngineConfig::builder()
            .hgrid_budget_side(64)
            .side_range(2, 20)
            .strategy(strategy)
            .alpha_window(AlphaWindow {
                slot_of_day: 0,
                day_start: 0,
                day_end: 7,
                weekdays_only: false,
            })
            .build()
            .unwrap()
    }

    fn model(s: u32) -> f64 {
        (s * s) as f64 * 1.5
    }

    /// The legacy tuner pipeline, spelled out: α re-estimated from the raw
    /// log at every probe, fed to the `search::try_*` searchers with no
    /// cache. The session's cached, memoised path must agree bit for bit.
    #[test]
    fn session_tune_matches_legacy_gridtuner_bitwise() {
        use gridtuner_core::estimate_alpha;
        use gridtuner_core::expression::try_partition_expression_error;
        let events = skewed_events(600, 7);
        for strategy in [
            SearchStrategy::BruteForce,
            SearchStrategy::Ternary,
            SearchStrategy::Iterative { init: 16, bound: 4 },
        ] {
            let config = cfg(strategy);
            // Algorithm 3 with no cache: α re-estimated from the raw log and
            // a per-call pmf table on every probe.
            let probe = |side: u32| {
                let part = Partition::for_budget(side, config.hgrid_budget_side);
                let alpha = estimate_alpha(
                    &events,
                    part.hgrid_spec(),
                    &config.clock,
                    &config.alpha_window,
                );
                Ok(try_partition_expression_error(&alpha, &part, None)? + model(side))
            };
            let (lo, hi) = config.side_range;
            let direct = match strategy {
                SearchStrategy::BruteForce => try_brute_force(probe, lo, hi),
                SearchStrategy::Ternary => try_ternary_search(probe, lo, hi),
                SearchStrategy::Iterative { init, bound } => {
                    try_iterative_method(probe, lo, hi, init, bound)
                }
            }
            .unwrap();
            let mut session = TuningSession::new(config, model).unwrap();
            session.ingest(&events).unwrap();
            let report = session.tune().unwrap();
            assert_eq!(report.outcome.side, direct.side, "{strategy:?}");
            assert_eq!(
                report.outcome.error.to_bits(),
                direct.error.to_bits(),
                "{strategy:?}"
            );
            assert_eq!(report.outcome.probes, direct.probes, "{strategy:?}");
            assert_eq!(report.alpha_full_scans, 1);
        }
    }

    #[test]
    fn result_partition_matches_selected_side() {
        let mut session = TuningSession::new(cfg(SearchStrategy::BruteForce), model).unwrap();
        session.ingest(&skewed_events(600, 7)).unwrap();
        let report = session.tune().unwrap();
        assert_eq!(report.partition.mgrid_side(), report.outcome.side);
        assert!(report.partition.total_hgrids() >= 64 * 64);
    }

    #[test]
    fn all_strategies_land_near_brute_force() {
        let events = skewed_events(1_200, 7);
        let tune = |strategy| {
            let mut session = TuningSession::new(cfg(strategy), model).unwrap();
            session.ingest(&events).unwrap();
            session.tune().unwrap().outcome
        };
        let bf = tune(SearchStrategy::BruteForce);
        let tern = tune(SearchStrategy::Ternary);
        let iter = tune(SearchStrategy::Iterative { init: 16, bound: 4 });
        // Heuristics land near the optimum but are not guaranteed to hit it
        // (the paper's Table IV reports 52–96% hit probabilities and ≥ 97%
        // optimal ratios); 10% headroom accommodates the jagged tail.
        assert!(tern.error <= bf.error * 1.10);
        assert!(iter.error <= bf.error * 1.10);
        // And use strictly fewer model trainings.
        assert!(tern.evals < bf.evals);
        assert!(iter.evals < bf.evals);
    }

    #[test]
    fn incremental_ingest_matches_rebuild_bitwise() {
        let all = skewed_events(400, 7);
        let (old, delta) = all.split_at(900);
        let mk = || TuningSession::new(cfg(SearchStrategy::BruteForce), model);
        let mut incremental = mk().unwrap();
        incremental.ingest(old).unwrap();
        incremental.tune().unwrap(); // warm every memo, then perturb
        let ingest = incremental.ingest(delta).unwrap();
        assert!(ingest.matched > 0);
        assert!(ingest.invalidated);
        let re = incremental.tune().unwrap();
        let mut fresh = mk().unwrap();
        fresh.ingest(&all).unwrap();
        let scratch = fresh.tune().unwrap();
        assert_eq!(re.outcome.side, scratch.outcome.side);
        assert_eq!(re.outcome.error.to_bits(), scratch.outcome.error.to_bits());
        assert_eq!(re.outcome.probes, scratch.outcome.probes);
        // The incremental session never rescanned the full log...
        assert_eq!(re.alpha_full_scans, 1);
        assert_eq!(re.alpha_delta_scans, 1);
        // ...and served every model probe from the memo (analytic source).
        assert_eq!(re.model_memo_hits, re.outcome.evals);
    }

    #[test]
    fn parallel_tune_matches_sequential() {
        let events = skewed_events(500, 7);
        let mut seq = TuningSession::new(cfg(SearchStrategy::BruteForce), model).unwrap();
        seq.ingest(&events).unwrap();
        let s = seq.tune().unwrap();
        let mut par = TuningSession::new(cfg(SearchStrategy::BruteForce), model).unwrap();
        par.ingest(&events).unwrap();
        let p = par.tune_parallel().unwrap();
        assert_eq!(p.outcome.side, s.outcome.side);
        assert_eq!(p.outcome.error.to_bits(), s.outcome.error.to_bits());
        assert_eq!(p.outcome.probes, s.outcome.probes);
        // The α-cache invariant: one event-log pass regardless of probes.
        assert_eq!(s.alpha_full_scans, 1);
        assert_eq!(p.alpha_full_scans, 1);
    }

    #[test]
    fn tune_report_exposes_expression_kernel_counters() {
        let events = skewed_events(400, 7);
        let mut session = TuningSession::new(cfg(SearchStrategy::BruteForce), model).unwrap();
        session.ingest(&events).unwrap();
        let first = session.tune().unwrap();
        let memo = |s: &TuningSession<_>| {
            let m = s.alpha_cache().expect("tune built the α cache").pmf_memo();
            (m.misses(), m.hits())
        };
        // Every probe sweeps the full HGrid lattice through the kernel,
        // which builds its pmf tables into the session's own memo.
        let (built, first_hits) = memo(&session);
        assert!(built > 0, "{first:?}");
        // Quantised α rates recur across probes, so the memo serves hits
        // within the very first tune...
        assert!(first_hits > 0, "{first:?}");
        // ...and serves the warm re-tune, which still answers
        // bit-identically.
        let second = session.tune().unwrap();
        assert!(memo(&session).1 > first_hits, "{second:?}");
        assert_eq!(
            second.outcome.error.to_bits(),
            first.outcome.error.to_bits()
        );
    }

    #[test]
    fn bootstrap_tune_reports_a_confidence_set() {
        use crate::uncertainty::BootstrapConfig;
        let events = skewed_events(400, 7);
        let config = EngineConfig {
            bootstrap: Some(BootstrapConfig::new(8, 7)),
            ..cfg(SearchStrategy::BruteForce)
        };
        let mut session = TuningSession::new(config, model).unwrap();
        session.ingest(&events).unwrap();
        let report = session.tune().unwrap();
        let unc = report.uncertainty.as_ref().expect("bootstrap was enabled");
        assert_eq!(unc.replicates, 8);
        assert_eq!(unc.replicate_argmins.len(), 8);
        assert_eq!(unc.replicate_errors.len(), 8);
        assert_eq!(unc.point_side, report.outcome.side);
        assert!(
            unc.confidence_set.contains(&report.outcome.side),
            "confidence set {:?} must contain the point estimate {}",
            unc.confidence_set,
            report.outcome.side
        );
        assert!(unc.confidence_set.windows(2).all(|w| w[0] < w[1]));
        // Replicates share the session's warm pmf memo, so the stage
        // must add hits to it beyond those of the same tune without a
        // bootstrap.
        let memo_hits = |s: &TuningSession<_>| {
            s.alpha_cache()
                .expect("tune built the α cache")
                .pmf_memo()
                .hits()
        };
        let mut plain = TuningSession::new(cfg(SearchStrategy::BruteForce), model).unwrap();
        plain.ingest(&events).unwrap();
        plain.tune().unwrap();
        assert!(memo_hits(&session) > memo_hits(&plain), "{unc:?}");
        // Every probed side carries a full dispersion row under brute
        // force (every replicate probes every side).
        assert!(unc.dispersion.iter().all(|d| d.samples == 8));
        let kinds: Vec<StageKind> = session.stages().iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                StageKind::Ingest,
                StageKind::Alpha,
                StageKind::Search,
                StageKind::Uncertainty,
                StageKind::Report
            ]
        );
    }

    #[test]
    fn bootstrap_is_deterministic_and_parallel_path_agrees() {
        use crate::uncertainty::BootstrapConfig;
        let events = skewed_events(300, 7);
        let config = EngineConfig {
            bootstrap: Some(BootstrapConfig::new(6, 2022)),
            ..cfg(SearchStrategy::BruteForce)
        };
        let run_seq = || {
            let mut s = TuningSession::new(config, model).unwrap();
            s.ingest(&events).unwrap();
            s.tune().unwrap()
        };
        let a = run_seq();
        let b = run_seq();
        assert_eq!(a.uncertainty, b.uncertainty, "same seed, same bits");
        let mut par = TuningSession::new(config, model).unwrap();
        par.ingest(&events).unwrap();
        let p = par.tune_parallel().unwrap();
        let (ua, up) = (a.uncertainty.unwrap(), p.uncertainty.unwrap());
        assert_eq!(ua.confidence_set, up.confidence_set);
        assert_eq!(ua.replicate_argmins, up.replicate_argmins);
        for (x, y) in ua.replicate_errors.iter().zip(&up.replicate_errors) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert_eq!(ua.verdict, up.verdict);
    }

    #[test]
    fn non_finite_events_are_a_data_error() {
        let mut session = TuningSession::new(cfg(SearchStrategy::BruteForce), model).unwrap();
        let bad = vec![Event::new(Point::new(f64::NAN, 0.5), 0)];
        let err = session.ingest(&bad).unwrap_err();
        assert_eq!(err.exit_code(), 3, "{err}");
        assert_eq!(session.events().len(), 0, "rejected delta must not land");
    }

    #[test]
    fn invalid_config_is_rejected_at_session_open() {
        let cfg = EngineConfig {
            side_range: (10, 2),
            ..EngineConfig::default()
        };
        let err = TuningSession::new(cfg, model).map(|_| ()).unwrap_err();
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn model_failures_propagate_as_internal() {
        struct Failing;
        impl ModelErrorSource for Failing {
            fn model_error(&mut self, side: u32) -> Result<f64, CoreError> {
                Err(CoreError::Model {
                    side,
                    message: "synthetic failure".into(),
                })
            }
        }
        let mut session = TuningSession::new(cfg(SearchStrategy::BruteForce), Failing).unwrap();
        session.ingest(&skewed_events(50, 7)).unwrap();
        let err = session.tune().unwrap_err();
        assert_eq!(err.exit_code(), 4, "{err}");
        assert!(err.to_string().contains("synthetic failure"), "{err}");
    }

    #[test]
    fn stages_run_in_pipeline_order() {
        let events = skewed_events(200, 7);
        let mut session = TuningSession::new(cfg(SearchStrategy::Ternary), model).unwrap();
        session.ingest(&events).unwrap();
        session.tune().unwrap();
        let kinds: Vec<StageKind> = session.stages().iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                StageKind::Ingest,
                StageKind::Alpha,
                StageKind::Search,
                StageKind::Report
            ]
        );
    }

    #[test]
    fn simulator_requires_a_sim_config() {
        let mut session = TuningSession::<fn(u32) -> f64>::new(
            cfg(SearchStrategy::BruteForce),
            model as fn(u32) -> f64,
        )
        .unwrap();
        let err = session.simulator().map(|_| ()).unwrap_err();
        assert_eq!(err.exit_code(), 2);
        let sim = gridtuner_dispatch::SimConfig::for_geo(gridtuner_spatial::GeoBounds::xian());
        let mut with_sim = TuningSession::new(
            EngineConfig {
                sim: Some(sim),
                ..cfg(SearchStrategy::BruteForce)
            },
            model as fn(u32) -> f64,
        )
        .unwrap();
        with_sim.simulator().unwrap();
        assert_eq!(
            with_sim.stages().last().map(|s| s.kind),
            Some(StageKind::Dispatch)
        );
    }
}
