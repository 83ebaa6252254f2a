//! The four workloads and the unit of work they share: one *decision*, i.e.
//! what `gridtuner tune` does once its input exists — a fresh
//! `TuningSession`, `ingest(history)`, then the workload's tune call.

use crate::trace::{Traced, Tracer};
use gridtuner_datagen::{City, DataSplit};
use gridtuner_engine::{
    AlphaWindow, EngineConfig, EngineError, ModelErrorSource, PartitionKind, PartitionLayout,
    PartitionReport, SearchStrategy, SyncModelErrorSource, TuneReport, TuningSession,
};
use gridtuner_obs::json::Val;
use gridtuner_obs::metrics::counter;
use gridtuner_predict::{CityModelError, HistoricalAverage, Predictor};
use gridtuner_spatial::Event;
use rand::{rngs::StdRng, SeedableRng};

/// HGrid budget side `√N` (paper default).
pub const BUDGET: u32 = 128;
/// Candidate MGrid sides (paper default).
pub const SIDES: (u32, u32) = (4, 76);
/// Bootstrap replicates of `bootstrap-xian`.
pub const REPLICATES: u32 = 4;
/// The CLI's adaptive search.
const ITERATIVE: SearchStrategy = SearchStrategy::Iterative { init: 16, bound: 4 };

/// The analytic model leg of `tune_bench`: cheap, so the expression side
/// of the bound carries the work.
pub fn analytic(side: u32) -> f64 {
    f64::from(side * side) * 0.05
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    BruteNyc,
    ModelChengdu,
    BootstrapXian,
    QuadtreeChengdu,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::BruteNyc,
        Kind::ModelChengdu,
        Kind::BootstrapXian,
        Kind::QuadtreeChengdu,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::BruteNyc => "brute-nyc",
            Kind::ModelChengdu => "model-chengdu",
            Kind::BootstrapXian => "bootstrap-xian",
            Kind::QuadtreeChengdu => "quadtree-chengdu",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    fn city(self) -> City {
        match self {
            Kind::BruteNyc => City::nyc(),
            Kind::ModelChengdu | Kind::QuadtreeChengdu => City::chengdu(),
            Kind::BootstrapXian => City::xian(),
        }
    }

    fn strategy(self) -> SearchStrategy {
        match self {
            Kind::BruteNyc | Kind::BootstrapXian => SearchStrategy::BruteForce,
            Kind::ModelChengdu | Kind::QuadtreeChengdu => ITERATIVE,
        }
    }

    /// Whether the decision runs a stage after the 1-D tune (the bootstrap
    /// or the partition search); its twin is the same decision without it.
    pub fn has_stage(self) -> bool {
        matches!(self, Kind::BootstrapXian | Kind::QuadtreeChengdu)
    }
}

/// Which variant of a workload's decision to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    /// The measured decision (prefetch pipeline on, pool at its ceiling).
    Timed,
    /// The correctness reference: sequential `tune()` with the pipeline
    /// off (the caller pins the pool to one worker).
    Reference,
    /// The timed decision without its stage (bootstrap / partition search).
    Twin,
}

/// One workload's generated input. The program sees only `events`.
pub struct Workload {
    pub kind: Kind,
    pub seed: u64,
    city: City,
    pub events: Vec<Event>,
}

impl Workload {
    /// Full paper volume (`scale 1`), history drawn for the default α
    /// window from `seed`.
    pub fn generate(kind: Kind, seed: u64) -> Workload {
        let city = kind.city();
        let window = AlphaWindow::default();
        let mut rng = StdRng::seed_from_u64(seed);
        let events = city.sample_history_events(
            window.slot_of_day,
            window.day_start..window.day_end,
            &mut rng,
        );
        Workload {
            kind,
            seed,
            city,
            events,
        }
    }

    pub fn clock(&self) -> &gridtuner_spatial::SlotClock {
        self.city.clock()
    }

    fn config(&self, path: Path) -> Result<EngineConfig, EngineError> {
        let mut builder = EngineConfig::builder()
            .hgrid_budget_side(BUDGET)
            .side_range(SIDES.0, SIDES.1)
            .strategy(self.kind.strategy())
            .alpha_window(AlphaWindow::default())
            .clock(*self.city.clock())
            .pipeline(path != Path::Reference);
        if self.kind == Kind::BootstrapXian && path != Path::Twin {
            builder = builder.bootstrap(REPLICATES, self.seed);
        }
        builder.build()
    }

    /// The CLI's model leg, seeded from the workload seed.
    fn city_model(&self) -> CityModelError<fn() -> Box<dyn Predictor>> {
        let split = DataSplit {
            train_days: (0, 28),
            val_days: (28, 30),
            test_day: 30,
        };
        let factory: fn() -> Box<dyn Predictor> = || Box::new(HistoricalAverage::new());
        CityModelError::new(self.city.clone(), split, self.seed, factory).with_max_eval_slots(24)
    }
}

/// What a decision decided, in the form correctness is judged on: every
/// field is a deterministic function of the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    pub side: u32,
    pub error_bits: u64,
    pub probes: Vec<(u32, u64)>,
    pub confidence_set: Vec<u32>,
    pub replicate_argmins: Vec<u32>,
    /// Quadtree leaves as `(row0, col0, size)`.
    pub layout: Vec<(usize, usize, usize)>,
    pub n_regions: usize,
    pub bound_bits: u64,
}

/// FNV-1a over a sequence of words: a compact, stable digest for the long
/// fields of a [`Decision`].
fn fnv64(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

impl Decision {
    fn new(report: &TuneReport, partition: Option<&PartitionReport>) -> Decision {
        let outcome = &report.outcome;
        let (confidence_set, replicate_argmins) = match &report.uncertainty {
            Some(u) => (u.confidence_set.clone(), u.replicate_argmins.clone()),
            None => (Vec::new(), Vec::new()),
        };
        let (layout, n_regions, bound) = match partition {
            Some(p) => {
                let leaves = match &p.layout {
                    PartitionLayout::QuadTree(q) => q
                        .leaves()
                        .iter()
                        .map(|l| (l.row0, l.col0, l.size))
                        .collect(),
                    _ => Vec::new(),
                };
                (leaves, p.n_regions, p.bound)
            }
            None => (Vec::new(), report.partition.n(), outcome.error),
        };
        Decision {
            side: outcome.side,
            error_bits: outcome.error.to_bits(),
            probes: outcome
                .probes
                .iter()
                .map(|&(s, e)| (s, e.to_bits()))
                .collect(),
            confidence_set,
            replicate_argmins,
            layout,
            n_regions,
            bound_bits: bound.to_bits(),
        }
    }

    /// The digest recorded in `expected.json` and in result files.
    pub fn summary(&self) -> Val {
        let ints = |v: &[u32]| Val::Arr(v.iter().map(|&x| Val::from(u64::from(x))).collect());
        Val::obj(vec![
            ("side", Val::from(u64::from(self.side))),
            ("error", Val::from(f64::from_bits(self.error_bits))),
            ("error_bits", Val::from(format!("{:016x}", self.error_bits))),
            ("probes", Val::from(self.probes.len() as u64)),
            (
                "probes_fnv",
                Val::from(format!(
                    "{:016x}",
                    fnv64(self.probes.iter().flat_map(|&(s, e)| [u64::from(s), e]))
                )),
            ),
            ("confidence_set", ints(&self.confidence_set)),
            ("replicate_argmins", ints(&self.replicate_argmins)),
            ("n_regions", Val::from(self.n_regions as u64)),
            ("bound", Val::from(f64::from_bits(self.bound_bits))),
            ("bound_bits", Val::from(format!("{:016x}", self.bound_bits))),
            (
                "layout_fnv",
                Val::from(format!(
                    "{:016x}",
                    fnv64(
                        self.layout
                            .iter()
                            .flat_map(|&(r, c, s)| [r as u64, c as u64, s as u64])
                    )
                )),
            ),
        ])
    }
}

/// A named field of [`Counts`].
pub type CountField = (&'static str, fn(&Counts) -> u64);

/// Work counts of one decision, read through public accessors and `obs`
/// counter deltas. Those named in [`Counts::EXACT`] depend on the input
/// alone; the rest move with the schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub window_events: u64,
    pub full_scans: u64,
    pub probes: u64,
    pub replicate_probes: u64,
    pub cell_evals: u64,
    pub dedup_hits: u64,
    pub pmf_builds: u64,
    pub pmf_hits: u64,
    pub pmf_retained_f64s: u64,
    pub lock_waits: u64,
    pub dispatches: u64,
    pub replicates: u64,
    pub partition_evals: u64,
    pub partition_splits: u64,
    pub partition_merges: u64,
}

impl Counts {
    /// Counts that must repeat exactly across decisions and runs at any
    /// worker count (`pmf_builds` only at one worker, checked apart).
    pub const EXACT: [CountField; 10] = [
        ("window_events", |c| c.window_events),
        ("full_scans", |c| c.full_scans),
        ("probes", |c| c.probes),
        ("replicate_probes", |c| c.replicate_probes),
        ("cell_evals", |c| c.cell_evals),
        ("dedup_hits", |c| c.dedup_hits),
        ("replicates", |c| c.replicates),
        ("partition_evals", |c| c.partition_evals),
        ("partition_splits", |c| c.partition_splits),
        ("partition_merges", |c| c.partition_merges),
    ];
}

/// Process-global kernel and pool counters, snapshot before a decision so
/// its deltas can be read after (one decision runs at a time).
struct Global {
    cell_evals: u64,
    dedup_hits: u64,
    dispatches: u64,
}

impl Global {
    fn snapshot() -> Global {
        Global {
            cell_evals: counter("expr.cell_evals").get(),
            dedup_hits: counter("expr.dedup_hits").get(),
            dispatches: counter("par.dispatches").get(),
        }
    }
}

pub struct Outcome {
    pub decision: Decision,
    pub counts: Counts,
}

fn outcome<S>(
    session: &TuningSession<S>,
    report: &TuneReport,
    partition: Option<&PartitionReport>,
    base: Global,
) -> Outcome {
    let now = Global::snapshot();
    let cache = session.alpha_cache();
    let memo = cache.map(|c| c.pmf_memo());
    let unc = report.uncertainty.as_ref();
    let counts = Counts {
        window_events: session.digest_len() as u64,
        full_scans: report.alpha_full_scans,
        probes: report.outcome.probes.len() as u64,
        replicate_probes: unc.map_or(0, |u| {
            u.dispersion.iter().map(|d| u64::from(d.samples)).sum()
        }),
        cell_evals: now.cell_evals - base.cell_evals,
        dedup_hits: now.dedup_hits - base.dedup_hits,
        pmf_builds: memo.map_or(0, |m| m.misses()),
        pmf_hits: memo.map_or(0, |m| m.hits()),
        pmf_retained_f64s: memo.map_or(0, |m| m.retained_f64s() as u64),
        lock_waits: memo.map_or(0, |m| m.lock_waits()),
        dispatches: now.dispatches - base.dispatches,
        replicates: unc.map_or(0, |u| u64::from(u.replicates)),
        partition_evals: partition.map_or(0, |p| p.evals as u64),
        partition_splits: partition.map_or(0, |p| p.splits as u64),
        partition_merges: partition.map_or(0, |p| p.merges as u64),
    };
    Outcome {
        decision: Decision::new(report, partition),
        counts,
    }
}

/// Ingest, then `tune()` or `tune_partition(QuadTree)`: the sequential
/// entry points, over any model leg.
fn run_seq<M: ModelErrorSource>(
    w: &Workload,
    config: EngineConfig,
    model: M,
    partition: bool,
    tracer: Option<&Tracer>,
) -> Result<Outcome, EngineError> {
    let base = Global::snapshot();
    let mut session = TuningSession::new(config, model)?;
    Tracer::maybe(tracer, "engine.ingest", || session.ingest(&w.events))?;
    let (report, part) = Tracer::maybe(tracer, "engine.tune", || {
        if partition {
            let p = session.tune_partition(PartitionKind::QuadTree)?;
            Ok::<_, EngineError>((p.uniform.clone(), Some(p)))
        } else {
            Ok((session.tune()?, None))
        }
    })?;
    Ok(outcome(&session, &report, part.as_ref(), base))
}

/// Ingest, then `tune_parallel()`.
fn run_par<M: ModelErrorSource + SyncModelErrorSource>(
    w: &Workload,
    config: EngineConfig,
    model: M,
    tracer: Option<&Tracer>,
) -> Result<Outcome, EngineError> {
    let base = Global::snapshot();
    let mut session = TuningSession::new(config, model)?;
    Tracer::maybe(tracer, "engine.ingest", || session.ingest(&w.events))?;
    let report = Tracer::maybe(tracer, "engine.tune", || session.tune_parallel())?;
    Ok(outcome(&session, &report, None, base))
}

/// Runs one decision of `w` on a fresh session. With a tracer, the model
/// leg is wrapped so its calls record spans inside the real tune.
pub fn decide(w: &Workload, path: Path, tracer: Option<&Tracer>) -> Result<Outcome, EngineError> {
    let config = w.config(path)?;
    let quadtree = w.kind == Kind::QuadtreeChengdu && path != Path::Twin;
    match (w.kind, path) {
        (Kind::ModelChengdu, _) => run_seq(
            w,
            config,
            Traced::new(w.city_model(), tracer),
            false,
            tracer,
        ),
        (Kind::QuadtreeChengdu, _) | (_, Path::Reference) => run_seq(
            w,
            config,
            Traced::new(analytic as fn(u32) -> f64, tracer),
            quadtree,
            tracer,
        ),
        (Kind::BruteNyc | Kind::BootstrapXian, _) => run_par(
            w,
            config,
            Traced::new(analytic as fn(u32) -> f64, tracer),
            tracer,
        ),
    }
}
