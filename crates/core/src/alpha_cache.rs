//! One-pass α-field derivation: the tuning hot path's cache.
//!
//! Every probe of the search algorithms (Algorithms 4/5) needs the α field
//! on the probed partition's HGrid lattice. [`estimate_alpha`] rescans the
//! **entire** event log per call — `O(|events|)` work that repeats per
//! probe even though the (window, clock) filter never changes during a
//! tuning run.
//!
//! [`AlphaFieldCache`] does the log scan **once**, at construction: it
//! filters the log down to the window's matching (day, slot) pairs and
//! keeps only those events' locations, in log order (the *digest*). The
//! digest is typically a tiny fraction of the log (one slot-of-day out of
//! 48, one month of days), so deriving α for a probed lattice is
//! `O(|digest| + side²)` — independent of the log size — and each derived
//! matrix is memoised per lattice side, so repeated probes of the same
//! side (brute-force + reporting paths) are free.
//!
//! Because the digest preserves event order and the binning loop performs
//! the same additions in the same order as [`estimate_alpha`], the derived
//! matrix is **bit-identical** to the direct estimate — a property the
//! test suite pins down for random events, windows and sides. (A
//! block-aggregation scheme over a single finest lattice was considered
//! and rejected: the paper's budget rule `q = ⌈√N / s⌉` produces lattice
//! sides that do not divide one another, so exact aggregation is
//! impossible in general.)

use crate::alpha::AlphaWindow;
use crate::error::CoreError;
use crate::expr_kernel::PmfMemo;
use crate::expression::try_partition_expression_error;
use gridtuner_obs as obs;
use gridtuner_spatial::{CountMatrix, Event, GridSpec, Point, SlotClock, SpatialPartition};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The α-field cache: one event-log pass at construction, `O(digest)`
/// derivation per lattice side afterwards, memoised per side.
///
/// Thread-safe: [`alpha`](AlphaFieldCache::alpha) takes `&self` and may be
/// called concurrently (e.g. from a parallel brute-force sweep).
pub struct AlphaFieldCache {
    /// Locations of the events matching the window, in event-log order.
    digest: Vec<Point>,
    /// Number of matching days (the averaging denominator); 0 disables.
    n_days: usize,
    /// Derived α matrices, keyed by lattice side. `Arc` so callers can
    /// work on a field without holding the lock (or cloning the data).
    derived: Mutex<HashMap<u32, Arc<CountMatrix>>>,
    /// Full event-log scans performed (1 after construction, ever). A
    /// per-instance counter; the global `alpha.rescans` registry metric
    /// aggregates across caches.
    full_scans: obs::metrics::Counter,
    /// Delta (append-only) scans performed since construction.
    delta_scans: obs::metrics::Counter,
    /// Cross-probe Poisson-table cache for the batched expression-error
    /// kernel. A pure function of the rate, so it survives [`append`]
    /// (unlike the derived-field memo) and incremental re-tunes inherit a
    /// warm cache. Held behind an `Arc` so sibling caches — e.g. the
    /// bootstrap-replicate caches of the uncertainty stage — can share
    /// one warm memo: sharing is bit-invisible because hit and miss
    /// paths produce identical tables.
    ///
    /// [`append`]: AlphaFieldCache::append
    pmf_memo: Arc<PmfMemo>,
}

/// Marks which global slots a window matches, for O(1) membership checks
/// during a scan — the filter [`estimate_alpha`] applies, factored out so
/// the construction pass and the delta pass use the same code.
///
/// [`estimate_alpha`]: crate::alpha::estimate_alpha
fn matching_slots(days: &[u32], clock: &SlotClock, window: &AlphaWindow) -> Vec<bool> {
    let max_slot = days
        .iter()
        .map(|&d| clock.slot_at(d, window.slot_of_day).index())
        .max()
        .unwrap_or(0); // callers guard against empty windows
    let mut matching = vec![false; max_slot + 1];
    for &d in days {
        matching[clock.slot_at(d, window.slot_of_day).index()] = true;
    }
    matching
}

impl AlphaFieldCache {
    /// Builds the cache with a single pass over `events`.
    pub fn new(events: &[Event], clock: &SlotClock, window: &AlphaWindow) -> Self {
        Self::with_shared_pmf(events, clock, window, Arc::new(PmfMemo::default()))
    }

    /// Builds the cache sharing an existing Poisson-table memo instead of
    /// starting a cold one — the bootstrap-replicate path, where every
    /// replicate's rates heavily overlap the point-estimate tune's.
    /// Bit-invisible relative to [`new`](Self::new): memo entries are a
    /// pure function of the rate.
    pub fn with_shared_pmf(
        events: &[Event],
        clock: &SlotClock,
        window: &AlphaWindow,
        pmf_memo: Arc<PmfMemo>,
    ) -> Self {
        let _scan = obs::span!("alpha.scan", events = events.len());
        obs::counter!("alpha.rescans").inc();
        let days = window.days(clock);
        let mut digest = Vec::new();
        if !days.is_empty() {
            // Mark matching global slots for O(1) membership checks —
            // mirrors estimate_alpha exactly.
            let matching = matching_slots(&days, clock, window);
            for e in events {
                let s = e.slot(clock).index();
                if s < matching.len() && matching[s] && e.loc.in_unit_square() {
                    digest.push(e.loc);
                }
            }
        }
        let full_scans = obs::metrics::Counter::new();
        full_scans.inc();
        AlphaFieldCache {
            digest,
            n_days: days.len(),
            derived: Mutex::new(HashMap::new()),
            full_scans,
            delta_scans: obs::metrics::Counter::new(),
            pmf_memo,
        }
    }

    /// Appends a delta of new events — the incremental-ingestion hot path.
    ///
    /// Scans **only** `events` (the delta), pushing the locations that
    /// match the window onto the digest. Because the window filter is
    /// per-event and the digest preserves log order, the digest after
    /// appending a delta is bit-identical to rebuilding the cache from the
    /// concatenated log — provided `clock` and `window` are the ones the
    /// cache was built with, and the delta follows the original log in
    /// log order (the session API enforces both).
    ///
    /// Returns the number of delta events that matched the window. When
    /// that is non-zero the derived-field memo is invalidated (every
    /// lattice side's α changes); otherwise all memoised fields stay valid
    /// and re-tuning is a pure cache hit.
    pub fn append(&mut self, events: &[Event], clock: &SlotClock, window: &AlphaWindow) -> usize {
        let _scan = obs::span!("alpha.delta_scan", events = events.len());
        self.delta_scans.inc();
        obs::counter!("alpha.delta_scans").inc();
        let days = window.days(clock);
        if days.is_empty() {
            return 0;
        }
        let matching = matching_slots(&days, clock, window);
        let before = self.digest.len();
        for e in events {
            let s = e.slot(clock).index();
            if s < matching.len() && matching[s] && e.loc.in_unit_square() {
                self.digest.push(e.loc);
            }
        }
        let matched = self.digest.len() - before;
        if matched > 0 {
            self.lock_derived().clear();
        }
        matched
    }

    /// The derived-field memo, immune to lock poisoning: a panic in a
    /// sibling thread must not cascade into every later probe (the map
    /// holds only finished, immutable matrices, so the data is never
    /// half-written).
    fn lock_derived(&self) -> MutexGuard<'_, HashMap<u32, Arc<CountMatrix>>> {
        self.derived.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The α field on `spec`'s lattice — bit-identical to
    /// [`estimate_alpha`] over the original log, without touching it.
    /// Memoised per side; the lock is held only for map access, so
    /// concurrent probes of different sides derive in parallel.
    pub fn alpha(&self, spec: GridSpec) -> Arc<CountMatrix> {
        if let Some(m) = self.lock_derived().get(&spec.side()) {
            obs::counter!("alpha.cache_hits").inc();
            return Arc::clone(m);
        }
        obs::counter!("alpha.derives").inc();
        let m = {
            let _derive = obs::span!("alpha.derive", side = spec.side());
            Arc::new(self.derive(spec))
        };
        Arc::clone(self.lock_derived().entry(spec.side()).or_insert(m))
    }

    /// Runs `f` against the α field on `spec`'s lattice. The memo lock is
    /// released before `f` runs.
    pub fn with_alpha<T>(&self, spec: GridSpec, f: impl FnOnce(&CountMatrix) -> T) -> T {
        f(&self.alpha(spec))
    }

    /// Total expression error for any [`SpatialPartition`] — the paper's
    /// square [`Partition`](gridtuner_spatial::Partition) included — with
    /// the α field served from this cache's per-side memo (all partitions
    /// are HGrid-aligned, so the lattice side is the whole key) and the
    /// Poisson tables from the cache's cross-probe [`PmfMemo`]; per-region
    /// `K` never enters either cache's key, so every layout shares both
    /// caches. The probe hot path. Thread-safe, like
    /// [`alpha`](Self::alpha); the note in the [`append`](Self::append)
    /// docs applies to the pmf memo too (it is never invalidated: its
    /// entries depend only on the rate).
    pub fn expression_error<P: SpatialPartition + Sync>(
        &self,
        partition: &P,
    ) -> Result<f64, CoreError> {
        let alpha = self.alpha(partition.hgrid_spec());
        try_partition_expression_error(&alpha, partition, Some(&*self.pmf_memo))
    }

    /// The cross-probe Poisson-table cache.
    pub fn pmf_memo(&self) -> &PmfMemo {
        &self.pmf_memo
    }

    /// A shareable handle to the Poisson-table cache, for building sibling
    /// caches via [`with_shared_pmf`](Self::with_shared_pmf).
    pub fn shared_pmf(&self) -> Arc<PmfMemo> {
        Arc::clone(&self.pmf_memo)
    }

    fn derive(&self, spec: GridSpec) -> CountMatrix {
        let mut alpha = CountMatrix::zeros(spec.side());
        if self.n_days == 0 {
            return alpha;
        }
        #[cfg(feature = "check-invariants")]
        let mut binned = 0usize;
        for p in &self.digest {
            if let Some(cell) = spec.cell_of(p) {
                *alpha.get_mut(cell) += 1.0;
                #[cfg(feature = "check-invariants")]
                {
                    binned += 1;
                }
            }
        }
        #[cfg(feature = "check-invariants")]
        {
            // Mass conservation: digest locations are inside the unit
            // square by construction, so every one lands in exactly one
            // cell of any lattice, and the pre-scaling cell totals are
            // exact small-integer sums.
            assert_eq!(
                binned,
                self.digest.len(),
                "alpha-field mass leak: {binned} of {} digest events binned on side {}",
                self.digest.len(),
                spec.side()
            );
            let total: f64 = alpha.as_slice().iter().sum();
            assert!(
                (total - binned as f64).abs() < 1e-6,
                "alpha-field mass drift on side {}: {total} != {binned}",
                spec.side()
            );
        }
        alpha.scale(1.0 / self.n_days as f64);
        alpha
    }

    /// Number of events that survived the window filter.
    pub fn digest_len(&self) -> usize {
        self.digest.len()
    }

    /// Full event-log scans performed since construction — always 1; the
    /// counter exists so benchmarks can assert the invariant end-to-end.
    /// A thin shim over the per-instance metrics counter (the global
    /// registry tracks the cross-cache total as `alpha.rescans`).
    pub fn full_scans(&self) -> u64 {
        self.full_scans.get()
    }

    /// Delta (append-only) scans performed since construction.
    pub fn delta_scans(&self) -> u64 {
        self.delta_scans.get()
    }

    /// Number of distinct lattice sides derived so far.
    pub fn derived_sides(&self) -> usize {
        self.lock_derived().len()
    }
}

/// Convenience: the cache-derived α for a one-shot (events, spec) pair —
/// equivalent to [`crate::alpha::estimate_alpha`] (used in tests and docs).
pub fn cached_alpha(
    events: &[Event],
    spec: GridSpec,
    clock: &SlotClock,
    window: &AlphaWindow,
) -> CountMatrix {
    let cache = AlphaFieldCache::new(events, clock, window);
    cache.derive(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alpha::estimate_alpha;
    use gridtuner_spatial::Point;

    fn clock() -> SlotClock {
        SlotClock::default()
    }

    fn window(day_end: u32) -> AlphaWindow {
        AlphaWindow {
            slot_of_day: 0,
            day_start: 0,
            day_end,
            weekdays_only: false,
        }
    }

    fn scattered_events(n: usize, days: u32) -> Vec<Event> {
        (0..n)
            .map(|i| {
                Event::new(
                    Point::new((i as f64 * 0.6180339) % 1.0, (i as f64 * 0.3141592) % 1.0),
                    (i as u32 % days) * 24 * 60 + (i as u32 % 40),
                )
            })
            .collect()
    }

    #[test]
    fn cache_matches_direct_estimate_bitwise() {
        let events = scattered_events(500, 5);
        let c = clock();
        let w = window(5);
        let cache = AlphaFieldCache::new(&events, &c, &w);
        for side in [1u32, 2, 3, 7, 16, 33, 128, 130] {
            let direct = estimate_alpha(&events, GridSpec::new(side), &c, &w);
            let derived = cache.alpha(GridSpec::new(side));
            assert_eq!(
                direct.as_slice(),
                derived.as_slice(),
                "side {side}: cache must be bit-identical"
            );
        }
        assert_eq!(cache.full_scans(), 1);
        assert_eq!(cache.derived_sides(), 8);
    }

    #[test]
    fn repeated_probes_hit_the_memo() {
        let events = scattered_events(100, 3);
        let cache = AlphaFieldCache::new(&events, &clock(), &window(3));
        let a = cache.alpha(GridSpec::new(8));
        let b = cache.alpha(GridSpec::new(8));
        assert_eq!(a.as_slice(), b.as_slice());
        assert_eq!(cache.derived_sides(), 1);
    }

    #[test]
    fn empty_window_yields_zero_fields() {
        let events = scattered_events(50, 2);
        let w = AlphaWindow {
            slot_of_day: 0,
            day_start: 4,
            day_end: 4,
            weekdays_only: false,
        };
        let cache = AlphaFieldCache::new(&events, &clock(), &w);
        assert_eq!(cache.digest_len(), 0);
        assert_eq!(cache.alpha(GridSpec::new(4)).total(), 0.0);
    }

    #[test]
    fn digest_drops_non_matching_slots() {
        // Events at slot 1 must not enter a slot-0 window's digest.
        let events = vec![
            Event::new(Point::new(0.5, 0.5), 0),  // slot 0: kept
            Event::new(Point::new(0.5, 0.5), 45), // slot 1: dropped
        ];
        let cache = AlphaFieldCache::new(&events, &clock(), &window(1));
        assert_eq!(cache.digest_len(), 1);
    }

    #[test]
    fn with_alpha_avoids_cloning() {
        let events = scattered_events(200, 4);
        let cache = AlphaFieldCache::new(&events, &clock(), &window(4));
        let total = cache.with_alpha(GridSpec::new(9), |a| a.total());
        let direct = estimate_alpha(&events, GridSpec::new(9), &clock(), &window(4)).total();
        assert_eq!(total, direct);
    }

    #[test]
    fn append_matches_rebuild_bitwise() {
        let all = scattered_events(400, 5);
        let (old, delta) = all.split_at(250);
        let c = clock();
        let w = window(5);
        let mut cache = AlphaFieldCache::new(old, &c, &w);
        cache.alpha(GridSpec::new(9)); // warm the memo — append must invalidate it
        let matched = cache.append(delta, &c, &w);
        assert!(matched > 0, "delta must contain matching events");
        let rebuilt = AlphaFieldCache::new(&all, &c, &w);
        for side in [1u32, 4, 9, 17, 64] {
            assert_eq!(
                cache.alpha(GridSpec::new(side)).as_slice(),
                rebuilt.alpha(GridSpec::new(side)).as_slice(),
                "side {side}: append must equal rebuild bit-for-bit"
            );
        }
        // One full pass ever; the delta went through the cheap path.
        assert_eq!(cache.full_scans(), 1);
        assert_eq!(cache.delta_scans(), 1);
    }

    #[test]
    fn append_of_non_matching_events_keeps_the_memo() {
        let events = scattered_events(200, 3);
        let c = clock();
        let w = window(3);
        let mut cache = AlphaFieldCache::new(&events, &c, &w);
        let before = cache.alpha(GridSpec::new(6));
        // Slot 1 of day 0 never matches a slot-0 window.
        let delta = vec![Event::new(Point::new(0.5, 0.5), 45)];
        assert_eq!(cache.append(&delta, &c, &w), 0);
        assert_eq!(cache.derived_sides(), 1, "memo must survive a no-op delta");
        let after = cache.alpha(GridSpec::new(6));
        assert_eq!(before.as_slice(), after.as_slice());
    }

    #[test]
    fn expression_error_matches_direct_sweep_bitwise() {
        use crate::expression::try_partition_expression_error;
        use gridtuner_spatial::Partition;
        let events = scattered_events(400, 5);
        let cache = AlphaFieldCache::new(&events, &clock(), &window(5));
        for side in [1u32, 3, 8] {
            let part = Partition::for_budget(side, 16);
            let via_cache = cache.expression_error(&part).unwrap();
            let direct = cache
                .with_alpha(part.hgrid_spec(), |a| {
                    try_partition_expression_error(a, &part, None)
                })
                .unwrap();
            assert_eq!(
                via_cache.to_bits(),
                direct.to_bits(),
                "side {side}: memoised sweep drifted"
            );
        }
    }

    #[test]
    fn pmf_memo_survives_appends_and_serves_re_tunes() {
        use gridtuner_spatial::Partition;
        let all = scattered_events(400, 5);
        let (old, delta) = all.split_at(250);
        let c = clock();
        let w = window(5);
        let mut cache = AlphaFieldCache::new(old, &c, &w);
        let part = Partition::for_budget(4, 16);
        cache.expression_error(&part).unwrap();
        let warm_entries = cache.pmf_memo().entries();
        assert!(warm_entries > 0, "sweep must populate the pmf memo");
        assert!(cache.append(delta, &c, &w) > 0);
        // The derived-field memo was invalidated; the pmf memo was not.
        assert_eq!(cache.derived_sides(), 0);
        assert_eq!(cache.pmf_memo().entries(), warm_entries);
        // And the re-tune matches a from-scratch cache bit for bit.
        let rebuilt = AlphaFieldCache::new(&all, &c, &w);
        assert_eq!(
            cache.expression_error(&part).unwrap().to_bits(),
            rebuilt.expression_error(&part).unwrap().to_bits()
        );
    }

    #[test]
    fn shared_pmf_is_bit_invisible() {
        use gridtuner_spatial::Partition;
        let events = scattered_events(300, 4);
        let c = clock();
        let w = window(4);
        let cold = AlphaFieldCache::new(&events, &c, &w);
        let part = Partition::for_budget(5, 16);
        let cold_err = cold.expression_error(&part).unwrap();
        // A sibling sharing the (now warm) memo must produce the same
        // bits it would have produced with a cold memo of its own.
        let sibling = AlphaFieldCache::with_shared_pmf(&events, &c, &w, cold.shared_pmf());
        assert!(Arc::ptr_eq(&cold.shared_pmf(), &sibling.shared_pmf()));
        let warm_err = sibling.expression_error(&part).unwrap();
        assert_eq!(cold_err.to_bits(), warm_err.to_bits());
    }

    #[test]
    fn concurrent_probes_are_safe() {
        let events = scattered_events(300, 4);
        let cache = AlphaFieldCache::new(&events, &clock(), &window(4));
        let sides: Vec<u32> = (1..=16).collect();
        let totals = gridtuner_par::par_map(&sides, |&s| cache.alpha(GridSpec::new(s)).total());
        // Mass is resolution-invariant: every derived field carries the
        // same total.
        for t in &totals {
            assert!((t - totals[0]).abs() < 1e-9);
        }
        assert_eq!(cache.full_scans(), 1);
    }
}
