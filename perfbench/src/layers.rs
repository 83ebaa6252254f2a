//! The traced run: per-layer numbers from spans the benchmark records
//! around public calls, a one-worker replay that splits the α derivation
//! from the expression kernel, twin decisions that isolate the bootstrap
//! and partition-search stages, and the exact-count check.

use crate::host::{median, range};
use crate::trace::{self_times, totals, Tracer};
use crate::workload::{
    analytic, decide, Counts, Kind, Outcome, Path, Workload, BUDGET, REPLICATES, SIDES,
};
use gridtuner_core::alpha_cache::AlphaFieldCache;
use gridtuner_core::resample_events;
use gridtuner_engine::AlphaWindow;
use gridtuner_obs::json::Val;
use gridtuner_obs::metrics::counter;
use gridtuner_spatial::Partition;
use std::time::Instant;

/// Largest share of the one-worker decision wall the unattributed
/// residual may take before the layer split is flagged as incomplete.
const RESIDUAL_BOUND: f64 = 0.10;

/// Decisions run in the traced run, and how many failed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one decision: an `Err` or a decision that differs from the
    /// reference is a failure.
    pub fn check(&mut self, got: &Result<Outcome, String>, reference: &Outcome) -> bool {
        self.attempted += 1;
        let ok = matches!(got, Ok(o) if o.decision == reference.decision);
        if !ok {
            self.failed += 1;
            match got {
                Ok(_) => eprintln!("perfbench: decision differs from the reference"),
                Err(e) => eprintln!("perfbench: decision failed: {e}"),
            }
        }
        ok
    }
}

pub fn run_decision(w: &Workload, path: Path, tracer: Option<&Tracer>) -> Result<Outcome, String> {
    decide(w, path, tracer).map_err(|e| format!("{} error: {e}", e.kind()))
}

/// One decision recorded under a fresh decision id: its wall and spans.
struct Traced {
    id: u32,
    wall_ms: f64,
    ingest_ms: f64,
    tune_ms: f64,
    model_ms: f64,
    model_calls: usize,
    /// Sides in the order the model leg was asked for them.
    model_order: Vec<u32>,
    outcome: Result<Outcome, String>,
}

fn traced_decision(w: &Workload, path: Path, tracer: &Tracer) -> Traced {
    let id = tracer.begin_decision();
    let t = Instant::now();
    let outcome = tracer.span("decision", 0, || run_decision(w, path, Some(tracer)));
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let spans = tracer.decision_spans(id);
    let (model_ms, model_calls) = totals(&spans, "predict.model");
    Traced {
        id,
        wall_ms,
        ingest_ms: totals(&spans, "engine.ingest").0,
        tune_ms: totals(&spans, "engine.tune").0,
        model_ms,
        model_calls,
        model_order: spans
            .iter()
            .filter(|s| s.name == "predict.model")
            .map(|s| s.side)
            .collect(),
        outcome,
    }
}

fn timed_ms(w: &Workload, path: Path) -> (f64, Result<Outcome, String>) {
    let t = Instant::now();
    let o = run_decision(w, path, None);
    (t.elapsed().as_secs_f64() * 1e3, o)
}

/// Replay of one decision's α and kernel work on fresh caches, one call
/// at a time, in probe order.
#[derive(Default)]
struct Replay {
    scan_ms: f64,
    derive_ms: f64,
    kernel_ms: f64,
    resample_ms: f64,
    boot_scan_ms: f64,
    derived_sides: u64,
    cell_evals: u64,
    /// `(side, expression error bits)` of the session-cache probes.
    point: Vec<(u32, u64)>,
}

fn sweep(
    cache: &AlphaFieldCache,
    sides: &[u32],
    tracer: &Tracer,
) -> Result<Vec<(u32, u64)>, String> {
    let mut out = Vec::with_capacity(sides.len());
    for &side in sides {
        let part = Partition::for_budget(side, BUDGET);
        let spec = part.hgrid_spec();
        tracer.span("alpha.derive", side, || cache.alpha(spec));
        let e = tracer
            .span("kernel", side, || cache.expression_error(&part))
            .map_err(|e| format!("replay kernel at side {side}: {e}"))?;
        out.push((side, e.to_bits()));
    }
    Ok(out)
}

fn replay(w: &Workload, order: &[u32], tracer: &Tracer) -> Result<Replay, String> {
    let id = tracer.begin_decision();
    let window = AlphaWindow::default();
    let cells0 = counter("expr.cell_evals").get();
    let cache = tracer.span("alpha.scan", 0, || {
        AlphaFieldCache::new(&w.events, w.clock(), &window)
    });
    let point = sweep(&cache, order, tracer)?;
    let mut derived = cache.derived_sides() as u64;
    if w.kind == Kind::BootstrapXian {
        let all: Vec<u32> = (SIDES.0..=SIDES.1).collect();
        for r in 0..u64::from(REPLICATES) {
            let events = tracer.span("boot.resample", 0, || resample_events(&w.events, w.seed, r));
            let rep = tracer.span("boot.scan", 0, || {
                AlphaFieldCache::with_shared_pmf(&events, w.clock(), &window, cache.shared_pmf())
            });
            sweep(&rep, &all, tracer)?;
            derived += rep.derived_sides() as u64;
        }
    }
    let spans = tracer.decision_spans(id);
    Ok(Replay {
        scan_ms: totals(&spans, "alpha.scan").0,
        derive_ms: totals(&spans, "alpha.derive").0,
        kernel_ms: totals(&spans, "kernel").0,
        resample_ms: totals(&spans, "boot.resample").0,
        boot_scan_ms: totals(&spans, "boot.scan").0,
        derived_sides: derived,
        cell_evals: counter("expr.cell_evals").get() - cells0,
        point,
    })
}

/// The one-worker pass: a traced decision, its twin, and the replay.
struct Solo {
    decision: Traced,
    twin: Option<Traced>,
    replay: Replay,
    counts: Counts,
}

fn solo_pass(
    w: &Workload,
    tracer: &Tracer,
    reference: &Outcome,
    tally: &mut Tally,
) -> Result<Solo, String> {
    let decision = traced_decision(w, Path::Timed, tracer);
    tally.check(&decision.outcome, reference);
    let counts = decision.outcome.as_ref().map_err(String::clone)?.counts;
    let twin = match w.kind.has_stage() {
        true => {
            let t = traced_decision(w, Path::Twin, tracer);
            t.outcome.as_ref().map_err(String::clone)?;
            Some(t)
        }
        false => None,
    };
    // Probe order: brute force walks the range; adaptive searches probe in
    // the order their model calls were made (one call per unique side).
    let order: Vec<u32> = match w.kind {
        Kind::BruteNyc | Kind::BootstrapXian => (SIDES.0..=SIDES.1).collect(),
        Kind::ModelChengdu | Kind::QuadtreeChengdu => decision
            .model_order
            .iter()
            .take(counts.probes as usize)
            .copied()
            .collect(),
    };
    let replay = replay(w, &order, tracer)?;
    // With the analytic leg, each replayed kernel value plus the model
    // term must rebuild the session's probe totals bit for bit: the replay
    // redid the same work.
    if w.kind != Kind::ModelChengdu {
        let mut rebuilt: Vec<(u32, u64)> = replay
            .point
            .iter()
            .map(|&(s, e)| (s, (f64::from_bits(e) + analytic(s)).to_bits()))
            .collect();
        rebuilt.sort_unstable();
        if rebuilt != reference.decision.probes {
            return Err("the replay does not rebuild the session's probe values".into());
        }
    }
    Ok(Solo {
        decision,
        twin,
        replay,
        counts,
    })
}

fn expression_error_ns() -> u64 {
    gridtuner_obs::span::span_stats()
        .into_iter()
        .find(|(name, _)| *name == "expression_error")
        .map_or(0, |(_, st)| st.total_ns)
}

/// Kernel time of a whole decision, from the program's own
/// `expression_error` spans: the partition search's candidate
/// evaluations run inside the session, where no replay reaches them.
/// Recording is on for this one decision only.
fn search_kernel_ms(w: &Workload, reference: &Outcome, tally: &mut Tally) -> Result<f64, String> {
    let before = expression_error_ns();
    gridtuner_obs::enable();
    let got = run_decision(w, Path::Timed, None);
    gridtuner_obs::disable();
    tally.check(&got, reference);
    got?;
    Ok((expression_error_ns() - before) as f64 / 1e6)
}

/// Input-determined counts must repeat exactly; returns the mismatches.
fn exact_mismatches(all: &[Counts], solo: &[Counts], replays: &[&Replay]) -> Vec<String> {
    let checks = Counts::EXACT
        .iter()
        .map(|&(name, get)| (name, all.iter().map(get).collect::<Vec<_>>()))
        .chain([
            (
                "pmf_builds at 1 worker",
                solo.iter().map(|c| c.pmf_builds).collect(),
            ),
            (
                "replay cell_evals",
                replays.iter().map(|r| r.cell_evals).collect(),
            ),
        ]);
    checks
        .filter(|(_, vals)| vals.windows(2).any(|p| p[0] != p[1]))
        .map(|(name, vals)| format!("{name} {vals:?}"))
        .collect()
}

pub struct TraceResult {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub tally: Tally,
    /// Whether every input-determined count repeated exactly.
    pub counts_exact: bool,
    pub detail: Val,
}

pub fn traced_run(
    w: &Workload,
    seconds: f64,
    reference: &Outcome,
    spans_out: Option<&str>,
) -> Result<TraceResult, String> {
    let tracer = Tracer::new();
    let nproc = gridtuner_par::max_threads();
    let mut tally = Tally::default();

    // Pass at the pool ceiling: traced, untraced and twin decisions
    // interleaved, so drift on a shared host hits all three alike.
    let mut traced = Vec::new();
    let mut untraced = Vec::new();
    let mut twins = Vec::new();
    let mut all_counts = Vec::new();
    let t0 = Instant::now();
    while traced.len() < 2 || t0.elapsed().as_secs_f64() < seconds {
        let d = traced_decision(w, Path::Timed, &tracer);
        if tally.check(&d.outcome, reference) {
            all_counts.extend(d.outcome.as_ref().map(|o| o.counts));
        }
        traced.push(d);
        let (ms, o) = timed_ms(w, Path::Timed);
        if tally.check(&o, reference) {
            all_counts.extend(o.map(|o| o.counts));
        }
        untraced.push(ms);
        if w.kind.has_stage() {
            let (ms, o) = timed_ms(w, Path::Twin);
            o?;
            twins.push(ms);
        }
    }
    let pool_workers = gridtuner_par::pool_workers();

    // One-worker passes, twice, for the layer split and the exact counts.
    gridtuner_par::set_max_threads(1);
    let solos: Result<Vec<Solo>, String> = (0..2)
        .map(|_| solo_pass(w, &tracer, reference, &mut tally))
        .collect();
    let search_kernel = match w.kind {
        Kind::QuadtreeChengdu => search_kernel_ms(w, reference, &mut tally),
        _ => Ok(0.0),
    };
    gridtuner_par::set_max_threads(nproc);
    let solos = solos?;
    // Kernel time of the partition evaluations: the program's own
    // `expression_error` spans over the decision, less the replayed 1-D
    // probes.
    let search_kernel1 = match w.kind {
        Kind::QuadtreeChengdu => search_kernel? - solos[0].replay.kernel_ms,
        _ => 0.0,
    };
    if let Some(path) = spans_out {
        tracer
            .write_jsonl(path)
            .map_err(|e| format!("writing spans to {path}: {e}"))?;
    }

    let solo_counts: Vec<Counts> = solos.iter().map(|s| s.counts).collect();
    all_counts.extend(&solo_counts);
    let replays: Vec<&Replay> = solos.iter().map(|s| &s.replay).collect();
    let mismatches = exact_mismatches(&all_counts, &solo_counts, &replays);
    for m in &mismatches {
        eprintln!("perfbench: input-determined count differs between decisions: {m}");
    }

    let c = all_counts[0];
    let med = |f: &dyn Fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let mean = |f: &dyn Fn(&Solo) -> f64| solos.iter().map(f).sum::<f64>() / solos.len() as f64;
    let tune_nproc = med(&|d| d.tune_ms);
    let model_calls = med(&|d| d.model_calls as f64);
    let model_ms = med(&|d| d.model_ms);
    let untraced_ms = median(&untraced);
    let stage_ms = if w.kind.has_stage() {
        untraced_ms - median(&twins)
    } else {
        0.0
    };
    let only = |kind: Kind, v: f64| if w.kind == kind { v } else { 0.0 };

    // One-worker layer split. Each stage's model calls are charged to the
    // model row, so the partition search keeps only its own work.
    let ingest1 = mean(&|s| s.decision.ingest_ms);
    let tune1 = mean(&|s| s.decision.tune_ms);
    let wall1 = mean(&|s| s.decision.wall_ms);
    let model1 = mean(&|s| s.decision.model_ms);
    let derive1 = mean(&|s| s.replay.derive_ms);
    let kernel1 = mean(&|s| s.replay.kernel_ms);
    let resample1 = mean(&|s| s.replay.resample_ms);
    let boot_scan1 = mean(&|s| s.replay.boot_scan_ms);
    let search1 = match w.kind {
        Kind::QuadtreeChengdu => mean(&|s| {
            let t = s.twin.as_ref().expect("quadtree has a twin");
            (s.decision.tune_ms - s.decision.model_ms) - (t.tune_ms - t.model_ms)
        }),
        _ => 0.0,
    };
    let residual1 = tune1 - (derive1 + kernel1 + model1 + resample1 + boot_scan1 + search1);
    let rows = [
        ("engine::session ingest (α scan)", ingest1),
        ("core::alpha_cache derive", derive1),
        ("core::expr_kernel", kernel1),
        ("predict (model leg)", model1),
        ("core::resample + replicate scans", resample1 + boot_scan1),
        ("core::expr_kernel (partition evals)", search_kernel1),
        ("engine::partition_search (own)", search1 - search_kernel1),
        ("core::search residual", residual1),
        ("decision overhead", wall1 - ingest1 - tune1),
    ];
    eprintln!(
        "[perfbench] {} layer split at 1 worker (decision {:.1} ms, tune {:.1} ms):",
        w.kind.name(),
        wall1,
        tune1
    );
    for (name, ms) in rows {
        eprintln!("  {name:<34} {ms:>10.2} ms {:>6.1}%", 100.0 * ms / wall1);
    }
    // The layer each workload was chosen to stress must carry the largest
    // share; the bootstrap's is its whole stage, measured by the twin.
    let (predicted, dominant) = match w.kind {
        Kind::BootstrapXian => (
            "engine::uncertainty stage",
            if stage_ms > untraced_ms - stage_ms {
                "engine::uncertainty stage"
            } else {
                "the point tune"
            },
        ),
        kind => (
            match kind {
                Kind::ModelChengdu => "predict (model leg)",
                Kind::QuadtreeChengdu => "core::expr_kernel (partition evals)",
                _ => "core::expr_kernel",
            },
            rows.iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .map_or("", |r| r.0),
        ),
    };
    eprintln!(
        "[perfbench] dominant layer: {dominant} (predicted {predicted}){}",
        if dominant == predicted {
            ""
        } else {
            " — prediction NOT confirmed"
        }
    );
    let flagged = residual1.abs() > RESIDUAL_BOUND * wall1;
    if flagged {
        eprintln!(
            "perfbench: FLAG layer split leaves {residual1:.1} ms of {wall1:.1} ms unattributed \
             (bound {:.0}%)",
            RESIDUAL_BOUND * 100.0
        );
    }
    let self_ms = self_times(&tracer.decision_spans(traced[0].id));

    let speedup = mean(&|s| s.decision.tune_ms) / tune_nproc;
    let (lw_lo, lw_hi) = range(
        &traced
            .iter()
            .filter_map(|d| d.outcome.as_ref().ok())
            .map(|o| o.counts.lock_waits as f64)
            .collect::<Vec<_>>(),
    );
    let (pb_lo, pb_hi) = range(
        &traced
            .iter()
            .filter_map(|d| d.outcome.as_ref().ok())
            .map(|o| o.counts.pmf_builds as f64)
            .collect::<Vec<_>>(),
    );
    let s1 = &solo_counts[0];
    let reuse = s1.pmf_hits as f64 / (s1.pmf_hits + s1.pmf_builds).max(1) as f64;
    let replay_cells = solos[0].replay.cell_evals.max(1) as f64;
    let evals = c.partition_evals as f64;

    let metrics = vec![
        ("engine.ingest_ms", med(&|d| d.ingest_ms), "ms"),
        ("engine.tune_ms", tune_nproc, "ms"),
        ("alpha.scan_ms", mean(&|s| s.replay.scan_ms), "ms"),
        ("alpha.digest_events", c.window_events as f64, "count"),
        ("alpha.full_scans", c.full_scans as f64, "count"),
        ("alpha.derive_ms", derive1, "ms"),
        (
            "alpha.derived_sides",
            solos[0].replay.derived_sides as f64,
            "count",
        ),
        ("kernel.ms", kernel1, "ms"),
        ("kernel.cell_evals", c.cell_evals as f64, "count"),
        (
            "kernel.dedup_ratio",
            c.dedup_hits as f64 / c.cell_evals.max(1) as f64,
            "ratio",
        ),
        ("kernel.pmf_builds", s1.pmf_builds as f64, "count"),
        ("kernel.pmf_reuse_ratio", reuse, "ratio"),
        ("kernel.ns_per_cell", kernel1 * 1e6 / replay_cells, "ns"),
        (
            "kernel.pmf_retained_mb",
            c.pmf_retained_f64s as f64 * 8.0 / 1e6,
            "MB",
        ),
        (
            "search.probes",
            (c.probes + c.replicate_probes) as f64,
            "count",
        ),
        ("search.residual_ms", residual1, "ms"),
        ("model.calls", model_calls, "count"),
        ("model.ms", model_ms, "ms"),
        ("model.ms_per_call", model_ms / model_calls.max(1.0), "ms"),
        ("par.workers", pool_workers as f64, "count"),
        ("par.dispatches", c.dispatches as f64, "count"),
        (
            "par.lock_waits",
            med(&|d| {
                d.outcome
                    .as_ref()
                    .map_or(0.0, |o| o.counts.lock_waits as f64)
            }),
            "count",
        ),
        ("par.speedup_vs_1t", speedup, "x"),
        ("par.efficiency", speedup / nproc as f64, "ratio"),
        ("boot.replicates", c.replicates as f64, "count"),
        ("boot.stage_ms", only(Kind::BootstrapXian, stage_ms), "ms"),
        ("boot.resample_ms", resample1, "ms"),
        ("boot.scan_ms", boot_scan1, "ms"),
        ("partition.evals", evals, "count"),
        ("partition.splits", c.partition_splits as f64, "count"),
        ("partition.merges", c.partition_merges as f64, "count"),
        (
            "partition.search_ms",
            only(Kind::QuadtreeChengdu, stage_ms),
            "ms",
        ),
        (
            "partition.ms_per_eval",
            only(Kind::QuadtreeChengdu, stage_ms / evals),
            "ms",
        ),
        ("partition.kernel_ms", search_kernel1, "ms"),
        (
            "trace.overhead_pct",
            100.0 * (med(&|d| d.wall_ms) - untraced_ms) / untraced_ms,
            "%",
        ),
    ];
    let detail = Val::obj(vec![
        ("traced_decisions", Val::from(traced.len() as u64)),
        ("untraced_decisions", Val::from(untraced.len() as u64)),
        ("twin_decisions", Val::from(twins.len() as u64)),
        (
            "layer_split_1w_ms",
            Val::obj(rows.iter().map(|&(n, ms)| (n, Val::from(ms))).collect()),
        ),
        ("layer_split_flagged", Val::from(flagged)),
        ("dominant_layer", Val::from(dominant)),
        ("dominant_predicted", Val::from(predicted)),
        (
            "self_ms_first_traced",
            Val::obj(self_ms.iter().map(|(&n, &ms)| (n, Val::from(ms))).collect()),
        ),
        (
            "contention",
            Val::obj(vec![
                ("lock_waits_min", Val::from(lw_lo)),
                ("lock_waits_max", Val::from(lw_hi)),
                ("pmf_builds_nproc_min", Val::from(pb_lo)),
                ("pmf_builds_nproc_max", Val::from(pb_hi)),
            ]),
        ),
        (
            "exact_counts",
            Val::obj(
                Counts::EXACT
                    .iter()
                    .map(|(n, get)| (*n, Val::from(get(&c))))
                    .chain([("pmf_builds_1w", Val::from(s1.pmf_builds))])
                    .collect(),
            ),
        ),
        (
            "exact_count_mismatches",
            Val::Arr(mismatches.iter().map(|m| Val::from(m.as_str())).collect()),
        ),
    ]);
    Ok(TraceResult {
        metrics,
        tally,
        counts_exact: mismatches.is_empty(),
        detail,
    })
}
