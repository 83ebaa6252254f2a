//! The partition-refinement search: Theorem II.1's bound minimised over
//! non-square partitions.
//!
//! The 1-D searches ([`TuningSession::tune`]) walk the square family
//! `n = s²`. This stage widens the family while keeping the bound exact:
//! every candidate is a [`SpatialPartition`] (HGrid-aligned, so the α
//! field and the batched kernel are reused unchanged), its expression leg
//! is the per-region kernel sweep, and its model leg is interpolated from
//! the square-side model curve at the candidate's region count.
//!
//! Three searches, selected by [`PartitionKind`]:
//!
//! * **uniform** — no refinement: the 1-D winner's [`Partition`]
//!   re-evaluated through the same sweep, so its bound re-adds to the 1-D
//!   bound bit for bit;
//! * **rect** — a deterministic hill-climb over `(nx, ny)` region counts,
//!   seeded at the 1-D winner `(s*, s*)`, stepping one count at a time
//!   within the configured side range;
//! * **quadtree** — greedy split/merge refinement: split the leaf with the
//!   largest per-region unevenness contribution `D_α` (the decomposition's
//!   refinement signal), merge sibling quads whose merged bound improves,
//!   under a **region cap** equal to the 1-D winner's `n` — so the final
//!   quadtree never uses more regions than the uniform optimum it is
//!   compared against.
//!
//! Every choice is deterministically tie-broken (contribution descending,
//! then row-major corner order; strict `<` on bounds keeps the first
//! candidate in enumeration order on ties), so the search is reproducible
//! across worker counts like everything else in the engine.
//!
//! [`Partition`]: gridtuner_spatial::Partition

use crate::error::EngineError;
use crate::session::{TuneReport, TuningSession};
use crate::stage::{StageKind, StageRecord};
use gridtuner_core::dalpha::region_d_alpha;
use gridtuner_core::expression::try_region_expression_errors;
use gridtuner_core::upper_bound::ModelErrorSource;
use gridtuner_obs as obs;
use gridtuner_spatial::{QuadLeaf, QuadTreePartition, RectGrid, RegionId, SpatialPartition};
use std::collections::HashMap;

/// Which partition family [`TuningSession::tune_partition`] searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionKind {
    /// The paper's square layout (no refinement on top of the 1-D search).
    Uniform,
    /// Independent x/y region counts, hill-climbed from the 1-D winner.
    Rect,
    /// Quadtree leaves, refined by split/merge under a region cap.
    QuadTree,
}

impl PartitionKind {
    /// Parses the CLI spelling (`uniform` | `rect` | `quadtree`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "uniform" => Some(PartitionKind::Uniform),
            "rect" => Some(PartitionKind::Rect),
            "quadtree" => Some(PartitionKind::QuadTree),
            _ => None,
        }
    }

    /// Short stable label (reports, goldens, span attributes).
    pub fn name(self) -> &'static str {
        match self {
            PartitionKind::Uniform => "uniform",
            PartitionKind::Rect => "rect",
            PartitionKind::QuadTree => "quadtree",
        }
    }
}

impl std::fmt::Display for PartitionKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The geometry the search settled on.
#[derive(Debug, Clone, PartialEq)]
pub enum PartitionLayout {
    /// Square `side × side` MGrids.
    Uniform {
        /// MGrid side `s` (regions `= s²`).
        side: u32,
    },
    /// `nx × ny` rectangular region blocks.
    Rect {
        /// Region columns.
        nx: u32,
        /// Region rows.
        ny: u32,
    },
    /// The refined quadtree itself (leaf layout carries the geometry).
    QuadTree(QuadTreePartition),
}

/// Outcome of a partition search: the refined partition's bound
/// decomposition next to the 1-D uniform baseline it started from.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionReport {
    /// Which family was searched.
    pub kind: PartitionKind,
    /// The winning geometry.
    pub layout: PartitionLayout,
    /// Regions in the winning partition.
    pub n_regions: usize,
    /// Expression-error leg of the winning bound.
    pub expression_error: f64,
    /// Model-error leg (interpolated at `n_regions` for non-square counts).
    pub model_error: f64,
    /// The Theorem II.1 upper bound (`expression_error + model_error`).
    pub bound: f64,
    /// Accepted quadtree splits (0 for uniform/rect).
    pub splits: usize,
    /// Accepted quadtree merges (0 for uniform/rect).
    pub merges: usize,
    /// Candidate partitions whose bound was evaluated.
    pub evals: usize,
    /// The region budget the search ran under (the 1-D winner's `n`).
    pub region_cap: usize,
    /// The full 1-D uniform tune this search started from — the
    /// comparison baseline, bit-identical to a plain
    /// [`tune`](TuningSession::tune).
    pub uniform: TuneReport,
}

impl PartitionReport {
    /// The uniform baseline's bound (`e(s*)` of the 1-D search).
    pub fn uniform_bound(&self) -> f64 {
        self.uniform.outcome.error
    }

    /// The uniform baseline's region count `n = s*²`.
    pub fn uniform_regions(&self) -> usize {
        self.uniform.partition.n()
    }

    /// The acceptance predicate of the refinement: bound no worse than the
    /// best uniform `n`, at equal or fewer regions.
    pub fn improves_on_uniform(&self) -> bool {
        self.bound <= self.uniform_bound() && self.n_regions <= self.uniform_regions()
    }
}

/// Integer square root (floor), exact for any region count.
fn isqrt(n: usize) -> u32 {
    let n = n as u64;
    let mut s = (n as f64).sqrt() as u64;
    while (s + 1).saturating_mul(s + 1) <= n {
        s += 1;
    }
    while s.saturating_mul(s) > n {
        s -= 1;
    }
    s as u32
}

/// The expression error of every leaf one quadtree search has evaluated,
/// keyed by the leaf's geometry. A leaf's term depends only on the α field
/// and its cells, and the lattice is fixed for the search, so a value is
/// reused by every later candidate holding the same leaf. Scoped to one
/// search: α cannot change under the `&mut` session borrow it runs in.
type LeafErrors = HashMap<QuadLeaf, f64>;

/// Split/merge (or hill-climb) steps before the search gives up.
const MAX_REFINE_ITERS: usize = 64;
/// Highest-`D_α` regions offered to the split evaluator per iteration.
const SPLIT_CANDIDATES: usize = 4;

impl<S: ModelErrorSource> TuningSession<S> {
    /// The `PartitionSearch` stage: runs the configured 1-D tune (the
    /// baseline — bit-identical to [`tune`](Self::tune)), then refines
    /// within the requested partition family. See the module docs for the
    /// three searches.
    pub fn tune_partition(&mut self, kind: PartitionKind) -> Result<PartitionReport, EngineError> {
        let uniform = self.tune()?;
        let _span = obs::span!("partition_search", side = uniform.outcome.side);
        let report = match kind {
            PartitionKind::Uniform => self.uniform_report(uniform)?,
            PartitionKind::Rect => self.rect_search(uniform)?,
            PartitionKind::QuadTree => self.quadtree_search(uniform)?,
        };
        self.push_stage(StageRecord::new(
            StageKind::PartitionSearch,
            report.evals,
            format!(
                "{}: {} regions (cap {}), bound {:.6} vs uniform {:.6}, \
                 {} splits, {} merges",
                report.kind,
                report.n_regions,
                report.region_cap,
                report.bound,
                report.uniform_bound(),
                report.splits,
                report.merges,
            ),
        ));
        Ok(report)
    }

    /// Model leg at an arbitrary region count: the session's per-side memo
    /// bracketed by the two nearest squares `s₁² ≤ R ≤ (s₁+1)²` and
    /// interpolated linearly in `n` — exact for model curves linear in n
    /// (the analytic sources the goldens use), a monotone estimate
    /// otherwise.
    fn region_model_error(&mut self, n_regions: usize) -> Result<f64, EngineError> {
        let s1 = isqrt(n_regions.max(1)).max(1);
        let n1 = (s1 as usize).pow(2);
        if n1 == n_regions.max(1) {
            return self.model_error(s1);
        }
        let s2 = s1 + 1;
        let n2 = (s2 as usize).pow(2);
        let lo = self.model_error(s1)?;
        let hi = self.model_error(s2)?;
        let t = (n_regions - n1) as f64 / (n2 - n1) as f64;
        Ok(lo + t * (hi - lo))
    }

    /// Both legs of the bound for one candidate partition.
    fn partition_legs<P: SpatialPartition + Sync>(
        &mut self,
        partition: &P,
    ) -> Result<(f64, f64), EngineError> {
        let expr = self.cache_handle()?.expression_error(partition)?;
        let model = self.region_model_error(partition.n_regions())?;
        Ok((expr, model))
    }

    /// Both legs of the bound for one quadtree candidate. Only the leaves
    /// missing from `leaf_errors` go through the kernel; the total is then
    /// folded over every leaf's value in `RegionId` order with
    /// [`gridtuner_par::par_sum`] — the blocking and lane association of
    /// the full sweep's `par_sum_with`, so the bits equal a full
    /// [`expression_error`](gridtuner_core::AlphaFieldCache::expression_error).
    fn quadtree_legs(
        &mut self,
        q: &QuadTreePartition,
        leaf_errors: &mut LeafErrors,
    ) -> Result<(f64, f64), EngineError> {
        let fresh: Vec<RegionId> = (0..q.n_regions())
            .map(RegionId)
            .filter(|&r| !leaf_errors.contains_key(&q.leaf(r)))
            .collect();
        if !fresh.is_empty() {
            let cache = self.cache_handle()?;
            let alpha = cache.alpha(q.hgrid_spec());
            let values = try_region_expression_errors(&alpha, q, &fresh, Some(cache.pmf_memo()))?;
            leaf_errors.extend(fresh.iter().map(|&r| q.leaf(r)).zip(values));
        }
        let values: Vec<f64> = q
            .leaves()
            .iter()
            .map(|leaf| leaf_errors.get(leaf).copied())
            .collect::<Option<_>>()
            .ok_or_else(|| EngineError::Internal("quadtree leaf left unevaluated".into()))?;
        let expr = gridtuner_par::par_sum(&values, |&v| v);
        let model = self.region_model_error(q.n_regions())?;
        Ok((expr, model))
    }

    fn uniform_report(&mut self, uniform: TuneReport) -> Result<PartitionReport, EngineError> {
        let side = uniform.outcome.side;
        let (expr, model) = self.partition_legs(&uniform.partition)?;
        let n_regions = uniform.partition.n_regions();
        Ok(PartitionReport {
            kind: PartitionKind::Uniform,
            layout: PartitionLayout::Uniform { side },
            n_regions,
            expression_error: expr,
            model_error: model,
            bound: expr + model,
            splits: 0,
            merges: 0,
            evals: 1,
            region_cap: n_regions,
            uniform,
        })
    }

    /// Deterministic hill-climb over `(nx, ny)` from the 1-D winner:
    /// evaluate the four single-count neighbours each round, move to the
    /// strictly best one, stop at a local minimum. Evaluated pairs are
    /// memoised so re-visits are free.
    fn rect_search(&mut self, uniform: TuneReport) -> Result<PartitionReport, EngineError> {
        let budget = self.config().hgrid_budget_side;
        let (lo, hi) = self.config().side_range;
        let start = uniform.outcome.side.clamp(lo, hi);
        let mut memo: HashMap<(u32, u32), (f64, f64)> = HashMap::new();
        let mut evals = 0usize;
        let seed = self.partition_legs(&RectGrid::for_budget(start, start, budget))?;
        memo.insert((start, start), seed);
        evals += 1;
        let mut best = (start, start);
        let mut best_legs = seed;
        for _ in 0..MAX_REFINE_ITERS {
            let (nx, ny) = best;
            let neighbours = [
                (nx.wrapping_sub(1), ny),
                (nx + 1, ny),
                (nx, ny.wrapping_sub(1)),
                (nx, ny + 1),
            ];
            let mut choice = best;
            let mut choice_legs = best_legs;
            for &(cx, cy) in &neighbours {
                if cx < lo || cx > hi || cy < lo || cy > hi {
                    continue;
                }
                let legs = match memo.get(&(cx, cy)) {
                    Some(&l) => l,
                    None => {
                        let l = self.partition_legs(&RectGrid::for_budget(cx, cy, budget))?;
                        memo.insert((cx, cy), l);
                        evals += 1;
                        l
                    }
                };
                // Strict `<`: ties keep the earlier candidate in the fixed
                // neighbour order — deterministic.
                if legs.0 + legs.1 < choice_legs.0 + choice_legs.1 {
                    choice = (cx, cy);
                    choice_legs = legs;
                }
            }
            if choice == best {
                break;
            }
            best = choice;
            best_legs = choice_legs;
        }
        let grid = RectGrid::for_budget(best.0, best.1, budget);
        Ok(PartitionReport {
            kind: PartitionKind::Rect,
            layout: PartitionLayout::Rect {
                nx: best.0,
                ny: best.1,
            },
            n_regions: grid.n_regions(),
            expression_error: best_legs.0,
            model_error: best_legs.1,
            bound: best_legs.0 + best_legs.1,
            splits: 0,
            merges: 0,
            evals,
            region_cap: (hi as usize).pow(2),
            uniform,
        })
    }

    /// Greedy quadtree refinement under the uniform winner's region cap:
    /// seed with the best uniform-depth tree whose region count fits the
    /// cap, then repeatedly (a) split the highest-`D_α` splittable leaf
    /// whose split improves the bound, falling back to (b) the best
    /// bound-improving sibling merge, until neither improves. Every
    /// candidate is scored through one [`LeafErrors`] memo, so a split runs
    /// the kernel on its four new leaves and a merge on its one.
    fn quadtree_search(&mut self, uniform: TuneReport) -> Result<PartitionReport, EngineError> {
        let budget = self.config().hgrid_budget_side;
        let cap = uniform.partition.n().max(1);
        let mut leaf_errors = LeafErrors::new();
        let mut evals = 0usize;
        let mut best: Option<(QuadTreePartition, (f64, f64))> = None;
        for depth in 0u32.. {
            if 4usize.checked_pow(depth).is_none_or(|r| r > cap) {
                break;
            }
            let Some(q) = QuadTreePartition::uniform_depth(budget, depth) else {
                break;
            };
            let legs = self.quadtree_legs(&q, &mut leaf_errors)?;
            evals += 1;
            let better = best
                .as_ref()
                .is_none_or(|(_, b)| legs.0 + legs.1 < b.0 + b.1);
            if better {
                best = Some((q, legs));
            }
        }
        let (mut best_q, mut best_legs) = best.ok_or_else(|| {
            EngineError::Internal("quadtree seeding produced no candidate".into())
        })?;
        let mut splits = 0usize;
        let mut merges = 0usize;
        for _ in 0..MAX_REFINE_ITERS {
            let mut stepped = false;
            // (a) Split the highest-contribution leaves, first improvement
            // wins. A split adds 3 regions; respect the cap.
            if best_q.n_regions() + 3 <= cap {
                let alpha = self.cache_handle()?.alpha(best_q.hgrid_spec());
                let contrib = region_d_alpha(&alpha, &best_q)?;
                let mut order: Vec<usize> = (0..best_q.n_regions())
                    .filter(|&r| best_q.leaf(RegionId(r)).size > 1 && contrib[r] > 0.0)
                    .collect();
                order.sort_by(|&a, &b| {
                    contrib[b]
                        .partial_cmp(&contrib[a])
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then_with(|| {
                            let (la, lb) = (best_q.leaf(RegionId(a)), best_q.leaf(RegionId(b)));
                            (la.row0, la.col0).cmp(&(lb.row0, lb.col0))
                        })
                });
                for &r in order.iter().take(SPLIT_CANDIDATES) {
                    let Some(cand) = best_q.split(RegionId(r)) else {
                        continue;
                    };
                    let legs = self.quadtree_legs(&cand, &mut leaf_errors)?;
                    evals += 1;
                    if legs.0 + legs.1 < best_legs.0 + best_legs.1 {
                        best_q = cand;
                        best_legs = legs;
                        splits += 1;
                        stepped = true;
                        break;
                    }
                }
            }
            // (b) No improving split: try the best improving sibling merge
            // (frees 3 regions for a later, better-placed split).
            if !stepped {
                let mut choice: Option<(QuadTreePartition, (f64, f64))> = None;
                for (row0, col0, size) in best_q.merge_candidates() {
                    let Some(cand) = best_q.merge_at(row0, col0, size) else {
                        continue;
                    };
                    let legs = self.quadtree_legs(&cand, &mut leaf_errors)?;
                    evals += 1;
                    let improves = legs.0 + legs.1 < best_legs.0 + best_legs.1;
                    let beats_choice = choice
                        .as_ref()
                        .is_none_or(|(_, c)| legs.0 + legs.1 < c.0 + c.1);
                    if improves && beats_choice {
                        choice = Some((cand, legs));
                    }
                }
                if let Some((cand, legs)) = choice {
                    best_q = cand;
                    best_legs = legs;
                    merges += 1;
                    stepped = true;
                }
            }
            if !stepped {
                break;
            }
        }
        let n_regions = best_q.n_regions();
        Ok(PartitionReport {
            kind: PartitionKind::QuadTree,
            layout: PartitionLayout::QuadTree(best_q),
            n_regions,
            expression_error: best_legs.0,
            model_error: best_legs.1,
            bound: best_legs.0 + best_legs.1,
            splits,
            merges,
            evals,
            region_cap: cap,
            uniform,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
    use crate::config::SearchStrategy;
    use gridtuner_core::alpha::AlphaWindow;
    use gridtuner_spatial::{Event, Point};

    fn hotspot_events(n: usize, days: u32) -> Vec<Event> {
        // Strongly non-uniform: most mass in one corner plus a thin
        // background — the regime where adaptive partitions win.
        let mut state = 0xDEAD_BEEF_CAFE_F00Du64;
        let mut unit = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut out = Vec::new();
        for d in 0..days {
            for i in 0..n {
                let (x, y) = if i % 4 != 0 {
                    (0.05 + 0.15 * unit(), 0.05 + 0.15 * unit())
                } else {
                    (unit(), unit())
                };
                out.push(Event::new(Point::new(x, y), d * 24 * 60 + (i % 30) as u32));
            }
        }
        out
    }

    fn cfg() -> EngineConfig {
        EngineConfig::builder()
            .hgrid_budget_side(16)
            .side_range(2, 12)
            .strategy(SearchStrategy::BruteForce)
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
        (s * s) as f64 * 0.4
    }

    type TestSession = TuningSession<fn(u32) -> f64>;

    fn session() -> TestSession {
        let mut s = TuningSession::new(cfg(), model as fn(u32) -> f64).unwrap();
        s.ingest(&hotspot_events(300, 7)).unwrap();
        s
    }

    #[test]
    fn kind_parse_roundtrips() {
        for kind in [
            PartitionKind::Uniform,
            PartitionKind::Rect,
            PartitionKind::QuadTree,
        ] {
            assert_eq!(PartitionKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(PartitionKind::parse("hex"), None);
    }

    #[test]
    fn isqrt_is_exact() {
        for n in 0usize..2000 {
            let s = isqrt(n) as usize;
            assert!(s * s <= n && (s + 1) * (s + 1) > n, "n={n} s={s}");
        }
    }

    #[test]
    fn region_model_leg_interpolates_linearly_in_n() {
        let mut s = session();
        // Linear-in-n model: interpolation is exact at every region count,
        // and square counts take the exact (non-interpolated) leg.
        for regions in [1usize, 2, 3, 4, 5, 9, 12, 17, 100] {
            let got = s.region_model_error(regions).unwrap();
            assert!(
                (got - 0.4 * regions as f64).abs() < 1e-9,
                "R={regions}: {got}"
            );
        }
        assert_eq!(
            s.region_model_error(9).unwrap().to_bits(),
            model(3).to_bits()
        );
    }

    #[test]
    fn uniform_partition_report_mirrors_the_1d_tune() {
        let mut s = session();
        let report = s.tune_partition(PartitionKind::Uniform).unwrap();
        assert_eq!(report.kind, PartitionKind::Uniform);
        assert_eq!(report.n_regions, report.uniform.partition.n());
        // The trait-dispatched decomposition re-adds to the 1-D winner's
        // bound bit for bit: same expression sweep, same memoised model
        // value, same addition.
        assert_eq!(
            report.bound.to_bits(),
            report.uniform.outcome.error.to_bits()
        );
        assert!(report.improves_on_uniform());
        assert_eq!((report.splits, report.merges), (0, 0));
        let stage = s
            .stages()
            .iter()
            .find(|r| r.kind == StageKind::PartitionSearch)
            .expect("partition stage recorded");
        assert!(stage.detail.contains("uniform"), "{}", stage.detail);
    }

    #[test]
    fn rect_search_never_loses_to_its_seed() {
        let mut s = session();
        let report = s.tune_partition(PartitionKind::Rect).unwrap();
        assert_eq!(report.kind, PartitionKind::Rect);
        let PartitionLayout::Rect { nx, ny } = report.layout else {
            panic!("rect search must return a rect layout");
        };
        assert_eq!(report.n_regions, (nx as usize) * (ny as usize));
        // The climb starts at (s*, s*) and only moves on strict
        // improvement, so the final bound is ≤ the square seed's bound
        // evaluated through the same trait path.
        let budget = s.config().hgrid_budget_side;
        let side = report.uniform.outcome.side;
        let seed = RectGrid::for_budget(side, side, budget);
        let seed_expr = s.alpha_cache().unwrap().expression_error(&seed).unwrap();
        let seed_bound = seed_expr + model(side);
        assert!(
            report.bound <= seed_bound + 1e-12,
            "bound {} vs seed {seed_bound}",
            report.bound
        );
        assert!(report.evals >= 1);
    }

    #[test]
    fn quadtree_search_respects_cap_and_beats_uniform_on_hotspots() {
        let mut s = session();
        let report = s.tune_partition(PartitionKind::QuadTree).unwrap();
        assert_eq!(report.kind, PartitionKind::QuadTree);
        assert_eq!(report.region_cap, report.uniform.partition.n());
        assert!(
            report.n_regions <= report.region_cap,
            "{} regions over cap {}",
            report.n_regions,
            report.region_cap
        );
        let PartitionLayout::QuadTree(q) = &report.layout else {
            panic!("quadtree search must return a quadtree layout");
        };
        assert_eq!(q.n_regions(), report.n_regions);
        assert!((report.expression_error + report.model_error - report.bound).abs() < 1e-15);
        // On a hotspot field the adaptive tree must do at least as well as
        // the best uniform n, at equal or fewer regions — the tentpole's
        // acceptance predicate.
        assert!(
            report.improves_on_uniform(),
            "bound {} regions {} vs uniform {} regions {}",
            report.bound,
            report.n_regions,
            report.uniform_bound(),
            report.uniform_regions()
        );
    }

    #[test]
    fn quadtree_search_is_deterministic() {
        let run = || {
            let mut s = session();
            s.tune_partition(PartitionKind::QuadTree).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.bound.to_bits(), b.bound.to_bits());
        assert_eq!(a.layout, b.layout);
        assert_eq!((a.splits, a.merges, a.evals), (b.splits, b.merges, b.evals));
    }
}
