//! City presets and the generation API.
//!
//! A [`City`] bundles a spatial [`IntensityField`], a [`TemporalProfile`],
//! a daily order volume and the geographic bounds, and can generate:
//!
//! * gridded count series at any resolution (for model training) —
//!   [`City::sample_count_series`];
//! * point events for single slots or whole days (for α estimation and the
//!   dispatch case study) — [`City::sample_slot_events`] /
//!   [`City::sample_day_events`];
//! * the *analytic* mean field `α` at any resolution —
//!   [`City::mean_field`] — handy when an experiment wants the
//!   noise-free ground truth instead of the paper's historical estimate.
//!
//! The presets are calibrated to the paper's datasets: test-day volumes of
//! ≈282k (NYC), ≈239k (Chengdu), ≈110k (Xi'an) and spatial unevenness
//! ordered NYC > Chengdu > Xi'an (Sec. V-C: "orders in NYC are more evenly
//! distributed than in Chengdu" refers to *expression error being larger in
//! NYC*; Fig. 10 and Appendix B establish the unevenness ordering we use).

use crate::intensity::IntensityField;
use crate::sampling::{sample_negative_binomial, PreparedRows};
use crate::temporal::TemporalProfile;
use gridtuner_spatial::{
    CountMatrix, CountSeries, Event, GeoBounds, GridSpec, Point, SlotClock, SlotId,
};
use rand::Rng;

/// Train/validation/test day split (paper Sec. V-A, rescaled to a synthetic
/// horizon: 8 weeks of training history, one validation week, one test day).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataSplit {
    /// Training days (half-open).
    pub train_days: (u32, u32),
    /// Validation days (half-open).
    pub val_days: (u32, u32),
    /// The single test day.
    pub test_day: u32,
}

impl Default for DataSplit {
    fn default() -> Self {
        DataSplit {
            train_days: (0, 56),
            val_days: (56, 63),
            test_day: 63,
        }
    }
}

impl DataSplit {
    /// Total horizon in days (test day inclusive).
    pub fn horizon_days(&self) -> u32 {
        self.test_day + 1
    }
}

/// A synthetic city: where and when events happen, and how many.
///
/// Two misspecification knobs (both off by default, and bit-identical to
/// the plain Poisson/stationary path when off) let the robustness harness
/// break the tuner's modeling assumptions on purpose:
///
/// * [`City::with_overdispersion`] — counts become negative binomial with
///   `Var = μ + φ·μ²` instead of Poisson;
/// * [`City::with_drift`] — hotspots translate by a fixed vector per day,
///   so the sampled events diverge from the stationary
///   [`City::mean_field`] as the horizon grows.
#[derive(Debug, Clone, PartialEq)]
pub struct City {
    name: String,
    geo: GeoBounds,
    intensity: IntensityField,
    temporal: TemporalProfile,
    daily_volume: f64,
    clock: SlotClock,
    /// Count overdispersion φ (0 = exact Poisson).
    overdispersion: f64,
    /// Per-day hotspot translation `(dx, dy)` (zero = stationary).
    drift: (f64, f64),
}

impl City {
    /// Builds a custom city.
    pub fn custom(
        name: impl Into<String>,
        geo: GeoBounds,
        intensity: IntensityField,
        temporal: TemporalProfile,
        daily_volume: f64,
    ) -> Self {
        assert!(daily_volume > 0.0, "daily volume must be positive");
        City {
            name: name.into(),
            geo,
            intensity,
            temporal,
            daily_volume,
            clock: SlotClock::default(),
            overdispersion: 0.0,
            drift: (0.0, 0.0),
        }
    }

    /// NYC-like preset: a dominant Manhattan-style spine with dense
    /// hotspots — the most unevenly distributed of the three.
    pub fn nyc() -> Self {
        let intensity = IntensityField::new()
            .road(Point::new(0.38, 0.12), Point::new(0.52, 0.95), 0.035, 3.0)
            .hotspot(Point::new(0.46, 0.62), 0.040, 2.5)
            .hotspot(Point::new(0.42, 0.35), 0.030, 1.5)
            .hotspot(Point::new(0.80, 0.45), 0.030, 0.6)
            .background(0.45);
        City::custom(
            "nyc",
            GeoBounds::nyc(),
            intensity,
            TemporalProfile::taxi_default(48).with_weekend_factor(0.85),
            282_255.0,
        )
    }

    /// Chengdu-like preset: a strong city core with sub-centers — less
    /// uneven than NYC.
    pub fn chengdu() -> Self {
        let intensity = IntensityField::new()
            .hotspot(Point::new(0.50, 0.50), 0.130, 2.0)
            .hotspot(Point::new(0.30, 0.65), 0.070, 0.7)
            .hotspot(Point::new(0.68, 0.40), 0.070, 0.7)
            .hotspot(Point::new(0.45, 0.25), 0.060, 0.5)
            .background(1.1);
        City::custom(
            "chengdu",
            GeoBounds::chengdu(),
            intensity,
            TemporalProfile::taxi_default(48).with_weekend_factor(0.9),
            238_868.0,
        )
    }

    /// Xi'an-like preset: one broad central blob over a strong background —
    /// the most evenly distributed and the smallest volume.
    pub fn xian() -> Self {
        let intensity = IntensityField::new()
            .hotspot(Point::new(0.50, 0.50), 0.220, 1.0)
            .background(1.6);
        City::custom(
            "xian",
            GeoBounds::xian(),
            intensity,
            TemporalProfile::taxi_default(48).with_weekend_factor(0.9),
            109_753.0,
        )
    }

    /// All three presets, in the paper's order.
    pub fn all_presets() -> Vec<City> {
        vec![City::nyc(), City::chengdu(), City::xian()]
    }

    /// Preset names accepted by [`City::by_name`], in the paper's order.
    pub const PRESET_NAMES: [&'static str; 3] = ["nyc", "chengdu", "xian"];

    /// Looks up a preset by name (case-insensitive). The shared front door
    /// for every CLI-style `--city` argument.
    pub fn by_name(name: &str) -> Result<City, UnknownCity> {
        match name.to_ascii_lowercase().as_str() {
            "nyc" => Ok(City::nyc()),
            "chengdu" => Ok(City::chengdu()),
            "xian" => Ok(City::xian()),
            _ => Err(UnknownCity {
                name: name.to_string(),
            }),
        }
    }

    /// City name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Geographic bounds.
    pub fn geo(&self) -> &GeoBounds {
        &self.geo
    }

    /// The slot clock (48 × 30-minute slots).
    pub fn clock(&self) -> &SlotClock {
        &self.clock
    }

    /// Expected weekday volume.
    pub fn daily_volume(&self) -> f64 {
        self.daily_volume
    }

    /// The spatial intensity field.
    pub fn intensity(&self) -> &IntensityField {
        &self.intensity
    }

    /// Returns a copy with the daily volume multiplied by `scale` — the
    /// knob the harness uses for `--quick` runs.
    pub fn scaled(mut self, scale: f64) -> Self {
        assert!(scale > 0.0, "scale must be positive");
        self.daily_volume *= scale;
        self
    }

    /// Returns a copy whose counts are overdispersed: negative binomial
    /// with `Var = μ + φ·μ²`. `φ = 0` restores the exact Poisson path,
    /// bit-for-bit on any fixed seed.
    pub fn with_overdispersion(mut self, phi: f64) -> Self {
        assert!(
            phi >= 0.0 && phi.is_finite(),
            "overdispersion must be finite and non-negative"
        );
        self.overdispersion = phi;
        self
    }

    /// Returns a copy whose hotspots translate by `(dx, dy)` per day —
    /// the train/test drift knob. Event locations on day `d` are drawn
    /// from the intensity shifted by `(d·dx, d·dy)` while
    /// [`City::mean_field`] keeps reporting the stationary day-0 field, so
    /// the model's assumption is deliberately wrong. `(0, 0)` restores the
    /// stationary path, bit-for-bit on any fixed seed.
    pub fn with_drift(mut self, dx: f64, dy: f64) -> Self {
        assert!(dx.is_finite() && dy.is_finite(), "drift must be finite");
        self.drift = (dx, dy);
        self
    }

    /// The overdispersion knob φ (0 = exact Poisson).
    pub fn overdispersion(&self) -> f64 {
        self.overdispersion
    }

    /// The per-day drift knob `(dx, dy)` (zero = stationary).
    pub fn drift(&self) -> (f64, f64) {
        self.drift
    }

    /// One count draw with the city's dispersion setting (`φ = 0` consumes
    /// exactly the Poisson stream).
    fn draw_count<R: Rng + ?Sized>(&self, rng: &mut R, mean: f64) -> u64 {
        sample_negative_binomial(rng, mean, self.overdispersion)
    }

    /// The intensity field events on `day` are drawn from: the base field
    /// when drift is off, a per-day translated copy otherwise.
    fn drifted_intensity(&self, day: u32) -> std::borrow::Cow<'_, IntensityField> {
        if self.drift == (0.0, 0.0) {
            std::borrow::Cow::Borrowed(&self.intensity)
        } else {
            let d = day as f64;
            std::borrow::Cow::Owned(self.intensity.shifted(self.drift.0 * d, self.drift.1 * d))
        }
    }

    /// Expected total events in a global slot.
    pub fn expected_slot_total(&self, slot: SlotId) -> f64 {
        self.daily_volume * self.temporal.slot_factor(&self.clock, slot)
    }

    /// Per-cell spatial shares on `spec` (sums to 1). `O(side² ·
    /// components)`; callers looping over slots should compute this once.
    pub fn cell_weights(&self, spec: GridSpec) -> Vec<f64> {
        self.intensity.cell_weights(spec)
    }

    /// The analytic mean field for one slot: expected events per cell.
    pub fn mean_field(&self, spec: GridSpec, slot: SlotId) -> CountMatrix {
        let weights = self.cell_weights(spec);
        self.mean_field_with(&weights, spec, slot)
    }

    /// [`City::mean_field`] with precomputed weights.
    pub fn mean_field_with(&self, weights: &[f64], spec: GridSpec, slot: SlotId) -> CountMatrix {
        assert_eq!(weights.len(), spec.n_cells(), "weights/spec mismatch");
        let total = self.expected_slot_total(slot);
        CountMatrix::from_vec(spec.side(), weights.iter().map(|w| w * total).collect())
            .expect("weights length checked above")
    }

    /// Samples a gridded count series for slots `0..n_slots`: one count
    /// draw per (slot, cell) — Poisson, or negative binomial under the
    /// overdispersion knob; per-day shifted weights under the drift knob.
    /// This is the model-training view of the city.
    ///
    /// Poisson draws come from means prepared once per (slot total, cell)
    /// and reused by every slot with the same total (under drift, only
    /// within a day); the counts are bit-identical to one
    /// [`sample_poisson`](crate::sample_poisson) call per draw.
    pub fn sample_count_series<R: Rng + ?Sized>(
        &self,
        spec: GridSpec,
        n_slots: usize,
        rng: &mut R,
    ) -> CountSeries {
        let base_weights = self.cell_weights(spec);
        let mut day_weights: Option<(u32, Vec<f64>)> = None;
        let mut prepared = PreparedRows::default();
        let mut series = CountSeries::zeros(spec.side(), n_slots);
        for t in 0..n_slots {
            let slot = SlotId(t as u32);
            let total = self.expected_slot_total(slot);
            let weights: &[f64] = if self.drift == (0.0, 0.0) {
                &base_weights
            } else {
                let day = self.clock.day_of(slot);
                if day_weights.as_ref().map(|(d, _)| *d) != Some(day) {
                    let w = self.drifted_intensity(day).cell_weights(spec);
                    day_weights = Some((day, w));
                    prepared.clear();
                }
                match &day_weights {
                    Some((_, w)) => w,
                    None => &base_weights, // not reachable: set just above
                }
            };
            let out = series.slot_mut(slot);
            if self.overdispersion == 0.0 {
                for (o, p) in out.iter_mut().zip(prepared.row(weights, total)) {
                    *o = p.sample(rng) as f64;
                }
            } else {
                // Each draw mixes its own Gamma rate: nothing to prepare.
                for (o, &w) in out.iter_mut().zip(weights) {
                    *o = self.draw_count(rng, w * total) as f64;
                }
            }
        }
        series
    }

    /// Samples point events for one slot: draws the slot count (Poisson,
    /// or negative binomial under the overdispersion knob) with i.i.d.
    /// locations from the (possibly day-drifted) intensity and uniform
    /// minutes in the slot.
    pub fn sample_slot_events<R: Rng + ?Sized>(&self, slot: SlotId, rng: &mut R) -> Vec<Event> {
        let total = self.expected_slot_total(slot);
        let n = self.draw_count(rng, total);
        let intensity = self.drifted_intensity(self.clock.day_of(slot));
        let start = self.clock.minute_of_slot(slot);
        let span = self.clock.slot_minutes();
        (0..n)
            .map(|_| Event::new(intensity.sample_point(rng), start + rng.gen_range(0..span)))
            .collect()
    }

    /// Samples point events for every slot of one day.
    pub fn sample_day_events<R: Rng + ?Sized>(&self, day: u32, rng: &mut R) -> Vec<Event> {
        let mut out = Vec::new();
        for s in 0..self.clock.slots_per_day() {
            out.extend(self.sample_slot_events(self.clock.slot_at(day, s), rng));
        }
        out
    }

    /// Samples the α-estimation history: events at `slot_of_day` for each
    /// day in `days` — the cheap substitute for storing months of full-day
    /// logs.
    pub fn sample_history_events<R: Rng + ?Sized>(
        &self,
        slot_of_day: u32,
        days: std::ops::Range<u32>,
        rng: &mut R,
    ) -> Vec<Event> {
        let mut out = Vec::new();
        for d in days {
            out.extend(self.sample_slot_events(self.clock.slot_at(d, slot_of_day), rng));
        }
        out
    }
}

/// [`City::by_name`] was asked for a preset that does not exist.
#[derive(Debug, Clone, PartialEq)]
pub struct UnknownCity {
    /// The name that was requested.
    pub name: String,
}

impl std::fmt::Display for UnknownCity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown city {:?} (expected one of: {})",
            self.name,
            City::PRESET_NAMES.join(", ")
        )
    }
}

impl std::error::Error for UnknownCity {}

#[cfg(test)]
mod tests {
    use super::*;
    use gridtuner_core::dalpha::d_alpha;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn by_name_resolves_presets_and_rejects_unknowns() {
        assert_eq!(City::by_name("nyc").unwrap().name(), "nyc");
        assert_eq!(City::by_name("Chengdu").unwrap().name(), "chengdu");
        assert_eq!(City::by_name("XIAN").unwrap().name(), "xian");
        let err = City::by_name("gotham").unwrap_err();
        assert_eq!(err.name, "gotham");
        let msg = err.to_string();
        for name in City::PRESET_NAMES {
            assert!(msg.contains(name), "{msg} should list {name}");
        }
    }

    #[test]
    fn preset_volumes_match_paper() {
        assert_eq!(City::nyc().daily_volume(), 282_255.0);
        assert_eq!(City::chengdu().daily_volume(), 238_868.0);
        assert_eq!(City::xian().daily_volume(), 109_753.0);
    }

    #[test]
    fn unevenness_ordering_nyc_chengdu_xian() {
        // Compare D_α of the normalized spatial shares (volume-independent).
        let spec = GridSpec::new(32);
        let d = |c: &City| {
            let w = c.cell_weights(spec);
            d_alpha(&CountMatrix::from_vec(32, w).unwrap())
        };
        let (n, c, x) = (d(&City::nyc()), d(&City::chengdu()), d(&City::xian()));
        assert!(
            n > c && c > x,
            "unevenness: nyc={n:.3} chengdu={c:.3} xian={x:.3}"
        );
    }

    #[test]
    fn expected_slot_total_follows_profile() {
        let city = City::xian().scaled(0.1);
        let clock = *city.clock();
        let morning = city.expected_slot_total(clock.slot_at(0, 17));
        let night = city.expected_slot_total(clock.slot_at(0, 8));
        assert!(morning > 2.0 * night);
        // Whole-day total equals the daily volume on a weekday.
        let day_total: f64 = (0..48)
            .map(|s| city.expected_slot_total(clock.slot_at(0, s)))
            .sum();
        assert!((day_total - city.daily_volume()).abs() / city.daily_volume() < 1e-9);
    }

    #[test]
    fn sampled_counts_match_means() {
        let city = City::chengdu().scaled(0.02);
        let spec = GridSpec::new(8);
        let mut rng = StdRng::seed_from_u64(17);
        let series = city.sample_count_series(spec, 48, &mut rng);
        let expected: f64 = (0..48).map(|s| city.expected_slot_total(SlotId(s))).sum();
        let got: f64 = (0..48).map(|s| series.slot_total(SlotId(s))).sum();
        assert!(
            (got - expected).abs() / expected < 0.05,
            "expected {expected}, sampled {got}"
        );
    }

    #[test]
    fn slot_events_count_matches_mean() {
        let city = City::nyc().scaled(0.01);
        let mut rng = StdRng::seed_from_u64(5);
        let slot = city.clock().slot_at(0, 16);
        let expect = city.expected_slot_total(slot);
        let n: usize = (0..20)
            .map(|_| city.sample_slot_events(slot, &mut rng).len())
            .sum();
        let mean = n as f64 / 20.0;
        assert!((mean - expect).abs() / expect < 0.1, "{mean} vs {expect}");
        // Minutes fall inside the slot.
        for e in city.sample_slot_events(slot, &mut rng) {
            assert!(e.minute >= 16 * 30 && e.minute < 17 * 30);
        }
    }

    #[test]
    fn day_events_cover_all_slots() {
        let city = City::xian().scaled(0.005);
        let mut rng = StdRng::seed_from_u64(8);
        let events = city.sample_day_events(2, &mut rng);
        assert!(!events.is_empty());
        for e in &events {
            assert_eq!(city.clock().day_of(e.slot(city.clock())), 2);
            assert!(e.loc.in_unit_square());
        }
    }

    #[test]
    fn history_events_only_at_requested_slot() {
        let city = City::xian().scaled(0.01);
        let mut rng = StdRng::seed_from_u64(4);
        let events = city.sample_history_events(16, 0..5, &mut rng);
        for e in &events {
            assert_eq!(city.clock().slot_of_day(e.slot(city.clock())), 16);
        }
    }

    #[test]
    fn mean_field_scales_with_weights() {
        let city = City::chengdu().scaled(0.1);
        let spec = GridSpec::new(4);
        let slot = SlotId(16);
        let field = city.mean_field(spec, slot);
        assert!((field.total() - city.expected_slot_total(slot)).abs() < 1e-6);
    }

    #[test]
    fn zero_knobs_are_bit_identical_to_the_poisson_path() {
        // φ=0 and drift=(0,0) must reproduce the untouched city's streams
        // exactly — same seed, same bits.
        let base = City::nyc().scaled(0.01);
        let knobbed = base.clone().with_overdispersion(0.0).with_drift(0.0, 0.0);
        assert_eq!(base, knobbed);
        let slot = base.clock().slot_at(3, 16);
        let mut a = StdRng::seed_from_u64(21);
        let mut b = StdRng::seed_from_u64(21);
        let ea = base.sample_slot_events(slot, &mut a);
        let eb = knobbed.sample_slot_events(slot, &mut b);
        assert_eq!(ea.len(), eb.len());
        for (x, y) in ea.iter().zip(&eb) {
            assert_eq!(x.loc.x.to_bits(), y.loc.x.to_bits());
            assert_eq!(x.loc.y.to_bits(), y.loc.y.to_bits());
            assert_eq!(x.minute, y.minute);
        }
        let mut a = StdRng::seed_from_u64(22);
        let mut b = StdRng::seed_from_u64(22);
        let sa = base.sample_count_series(GridSpec::new(4), 48, &mut a);
        let sb = knobbed.sample_count_series(GridSpec::new(4), 48, &mut b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn overdispersion_inflates_count_variance() {
        let base = City::xian().scaled(0.002);
        let phi = 1.0;
        let over = base.clone().with_overdispersion(phi);
        assert_eq!(over.overdispersion(), phi);
        let slot = base.clock().slot_at(0, 16);
        let mu = base.expected_slot_total(slot);
        let draws = 3_000usize;
        let var_of = |city: &City, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let counts: Vec<f64> = (0..draws)
                .map(|_| city.sample_slot_events(slot, &mut rng).len() as f64)
                .collect();
            let m = counts.iter().sum::<f64>() / draws as f64;
            counts.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (draws - 1) as f64
        };
        let v_poisson = var_of(&base, 33);
        let v_over = var_of(&over, 33);
        // Poisson: Var ≈ μ. Overdispersed: Var ≈ μ + φμ², far larger here.
        assert!((v_poisson - mu).abs() / mu < 0.25, "{v_poisson} vs μ={mu}");
        assert!(
            v_over > 0.5 * (mu + phi * mu * mu),
            "v_over={v_over}, want ≳ {}",
            mu + phi * mu * mu
        );
    }

    #[test]
    fn drift_moves_events_in_the_expected_direction() {
        // A pure-hotspot city drifting +x: later days' mean x must grow.
        let intensity = IntensityField::new().hotspot(Point::new(0.3, 0.5), 0.05, 1.0);
        let city = City::custom(
            "drifty",
            GeoBounds::xian(),
            intensity,
            TemporalProfile::taxi_default(48),
            2_000.0,
        )
        .with_drift(0.02, 0.0);
        assert_eq!(city.drift(), (0.02, 0.0));
        let mean_x = |day: u32, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let events = city.sample_history_events(16, day..day + 1, &mut rng);
            assert!(!events.is_empty());
            events.iter().map(|e| e.loc.x).sum::<f64>() / events.len() as f64
        };
        let early = mean_x(0, 51);
        let late = mean_x(10, 51);
        // 10 days × 0.02/day = 0.2 expected shift; allow sampling slack.
        assert!(
            late - early > 0.15,
            "mean x day0={early:.3} day10={late:.3}"
        );
        // Day 0 matches the undrifted field exactly (shift is d·dx = 0).
        let still = city.clone().with_drift(0.0, 0.0);
        let mut a = StdRng::seed_from_u64(60);
        let mut b = StdRng::seed_from_u64(60);
        let slot = city.clock().slot_at(0, 16);
        assert_eq!(
            city.sample_slot_events(slot, &mut a),
            still.sample_slot_events(slot, &mut b)
        );
    }

    #[test]
    fn default_split_is_consistent() {
        let s = DataSplit::default();
        assert!(s.train_days.1 <= s.val_days.0);
        assert!(s.val_days.1 <= s.test_day);
        assert_eq!(s.horizon_days(), 64);
    }
}
