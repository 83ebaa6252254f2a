//! Exact Poisson (and overdispersed negative-binomial) sampling.
//!
//! Two Poisson regimes: Knuth's sequential inversion for small means
//! (expected `O(λ)` uniforms, exact) and Hörmann's PTRS transformed
//! rejection for `λ ≥ 10` (expected `O(1)` uniforms, exact). Implemented
//! here rather than pulled from `rand_distr` to keep the dependency set to
//! the allowed list.
//!
//! [`sample_negative_binomial`] layers a Gamma–Poisson mixture on top for
//! the robustness harness's overdispersion knob: `Var = μ + φ·μ²`, with
//! `φ = 0` dispatching straight to [`sample_poisson`] so the knob's off
//! position is bit-identical to the Poisson seed path.
//!
//! A count series draws from few distinct means many times over, so
//! [`sample_poisson`] is split into `PreparedPoisson::new(λ)` (the
//! per-mean constants) and `.sample(rng)` (the draw), and
//! `City::sample_count_series` keeps one prepared row per distinct slot
//! total in a `PreparedRows` map. There is still one Knuth and one PTRS
//! body, so both paths draw the same bits.

use gridtuner_core::poisson::ln_factorial;
use rand::Rng;
use std::collections::HashMap;

/// Threshold between the inversion and rejection regimes.
const PTRS_THRESHOLD: f64 = 10.0;

/// Draws one sample from `Pois(lambda)`. Exact for all `lambda ≥ 0`.
pub fn sample_poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    PreparedPoisson::new(lambda).sample(rng)
}

/// A Poisson mean with its per-mean constants computed once: Knuth's
/// `e^{-λ}` limit, or PTRS's `ln λ`, `a`, `b`, `1/α` and `v_r`. Drawing
/// from a prepared mean consumes exactly the uniforms, and returns exactly
/// the count, that [`sample_poisson`] would at the same mean — it *is*
/// `sample_poisson`'s body, split at the point where the first uniform is
/// drawn.
#[derive(Debug)]
pub(crate) enum PreparedPoisson {
    /// `λ = 0`: the point mass at zero, drawn without a uniform.
    Zero,
    /// Knuth's multiplication method for `0 < λ < 10`: count uniforms
    /// until their product drops to `limit = e^{-λ}`.
    Knuth { limit: f64 },
    /// Hörmann's PTRS ("Poisson Transformed Rejection with Squeeze") for
    /// `λ ≥ 10`.
    Ptrs {
        lambda: f64,
        ln_lambda: f64,
        a: f64,
        b: f64,
        inv_alpha: f64,
        v_r: f64,
    },
}

impl PreparedPoisson {
    /// Prepares `Pois(lambda)`; panics unless `lambda` is finite and
    /// non-negative.
    pub(crate) fn new(lambda: f64) -> Self {
        assert!(
            lambda >= 0.0 && lambda.is_finite(),
            "Poisson mean must be finite and non-negative, got {lambda}"
        );
        if lambda == 0.0 {
            return PreparedPoisson::Zero;
        }
        if lambda < PTRS_THRESHOLD {
            return PreparedPoisson::Knuth {
                limit: (-lambda).exp(),
            };
        }
        let b = 0.931 + 2.53 * lambda.sqrt();
        PreparedPoisson::Ptrs {
            lambda,
            ln_lambda: lambda.ln(),
            a: -0.059 + 0.024_83 * b,
            b,
            inv_alpha: 1.123_9 + 1.132_8 / (b - 3.4),
            v_r: 0.927_7 - 3.622_4 / (b - 2.0),
        }
    }

    /// Draws one count.
    pub(crate) fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        match *self {
            PreparedPoisson::Zero => 0,
            PreparedPoisson::Knuth { limit } => {
                let mut k = 0u64;
                let mut p = 1.0f64;
                loop {
                    p *= rng.gen::<f64>();
                    if p <= limit {
                        return k;
                    }
                    k += 1;
                }
            }
            PreparedPoisson::Ptrs {
                lambda,
                ln_lambda,
                a,
                b,
                inv_alpha,
                v_r,
            } => loop {
                let u = rng.gen::<f64>() - 0.5;
                let v = rng.gen::<f64>();
                let us = 0.5 - u.abs();
                let k = ((2.0 * a / us + b) * u + lambda + 0.43).floor();
                if us >= 0.07 && v <= v_r {
                    return k as u64;
                }
                if k < 0.0 || (us < 0.013 && v > us) {
                    continue;
                }
                // `ln_factorial(k)` is `ln_gamma(k + 1)`, bit for bit, for
                // every `k` a `u64` count can hold.
                if (v * inv_alpha / (a / (us * us) + b)).ln()
                    <= k * ln_lambda - lambda - ln_factorial(k as u64)
                {
                    return k as u64;
                }
            },
        }
    }
}

/// At most this many prepared means (~14 MiB) are kept per count series.
/// Past it, each slot's row is prepared into one scratch row, which costs
/// what the per-draw path did.
const PREPARED_BUDGET: usize = 1 << 18;

/// The prepared means of the rows `weights · total` of one count series,
/// keyed by the bits of `total`. Valid while `weights` stays the same:
/// [`clear`](Self::clear) whenever it changes.
#[derive(Debug, Default)]
pub(crate) struct PreparedRows {
    rows: HashMap<u64, Vec<PreparedPoisson>>,
    kept: usize,
    scratch: Vec<PreparedPoisson>,
}

impl PreparedRows {
    /// `PreparedPoisson::new(w * total)` for every `w` in `weights`.
    pub(crate) fn row(&mut self, weights: &[f64], total: f64) -> &[PreparedPoisson] {
        let prepare = |w: &f64| PreparedPoisson::new(w * total);
        let key = total.to_bits();
        if !self.rows.contains_key(&key) && self.kept + weights.len() <= PREPARED_BUDGET {
            self.kept += weights.len();
            self.rows.insert(key, weights.iter().map(prepare).collect());
        }
        match self.rows.get(&key) {
            Some(row) => row,
            None => {
                self.scratch.clear();
                self.scratch.extend(weights.iter().map(prepare));
                &self.scratch
            }
        }
    }

    /// Forgets every row: the weights changed.
    pub(crate) fn clear(&mut self) {
        self.rows.clear();
        self.kept = 0;
    }
}

/// Draws one overdispersed count with mean `mean` and variance
/// `mean + phi·mean²` — a negative binomial realised as the Gamma–Poisson
/// mixture `Pois(G)`, `G ~ Gamma(shape = 1/φ, scale = φ·mean)`.
///
/// `phi = 0` is the Poisson limit and is dispatched to [`sample_poisson`]
/// directly, consuming exactly the same uniforms — the knob's off
/// position changes no bit of any seeded stream.
pub fn sample_negative_binomial<R: Rng + ?Sized>(rng: &mut R, mean: f64, phi: f64) -> u64 {
    assert!(
        phi >= 0.0 && phi.is_finite(),
        "overdispersion must be finite and non-negative, got {phi}"
    );
    if phi == 0.0 || mean == 0.0 {
        return sample_poisson(rng, mean);
    }
    let shape = 1.0 / phi;
    let rate = sample_gamma(rng, shape) * phi * mean;
    sample_poisson(rng, rate)
}

/// Marsaglia–Tsang squeeze sampler for `Gamma(shape, 1)`; shapes below 1
/// are boosted via `G(a) = G(a + 1) · U^{1/a}`.
fn sample_gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    debug_assert!(shape > 0.0 && shape.is_finite());
    if shape < 1.0 {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        return sample_gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = sample_standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v = v * v * v;
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        if u < 1.0 - 0.0331 * x * x * x * x {
            return d * v;
        }
        if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// One standard normal via Box–Muller (the cosine branch).
fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn stats(lambda: f64, n: usize, seed: u64) -> (f64, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let samples: Vec<f64> = (0..n)
            .map(|_| sample_poisson(&mut rng, lambda) as f64)
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        (mean, var)
    }

    #[test]
    fn zero_mean_is_always_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(sample_poisson(&mut rng, 0.0), 0);
        }
    }

    #[test]
    fn knuth_regime_mean_and_variance() {
        for &lambda in &[0.3, 1.0, 4.2, 9.5] {
            let (mean, var) = stats(lambda, 60_000, 11);
            let se = (lambda / 60_000.0f64).sqrt();
            assert!((mean - lambda).abs() < 5.0 * se, "λ={lambda}: mean={mean}");
            assert!(
                (var - lambda).abs() < 0.05 * lambda + 5.0 * se,
                "λ={lambda}: var={var}"
            );
        }
    }

    #[test]
    fn ptrs_regime_mean_and_variance() {
        for &lambda in &[10.0, 42.0, 300.0, 5_000.0] {
            let (mean, var) = stats(lambda, 60_000, 23);
            let rel = (mean - lambda).abs() / lambda;
            assert!(rel < 0.01, "λ={lambda}: mean={mean}");
            assert!(
                (var - lambda).abs() / lambda < 0.05,
                "λ={lambda}: var={var}"
            );
        }
    }

    #[test]
    fn ptrs_matches_knuth_distribution_at_threshold() {
        // Both regimes at λ≈10 (9.99 takes Knuth, 10.01 takes PTRS) should
        // produce statistically indistinguishable tails; compare empirical
        // P(X ≤ 10).
        let n = 120_000;
        let mut rng = StdRng::seed_from_u64(5);
        let below_knuth = (0..n)
            .filter(|_| sample_poisson(&mut rng, 9.99) <= 10)
            .count() as f64
            / n as f64;
        let below_ptrs = (0..n)
            .filter(|_| sample_poisson(&mut rng, 10.01) <= 10)
            .count() as f64
            / n as f64;
        assert!(
            (below_knuth - below_ptrs).abs() < 0.01,
            "{below_knuth} vs {below_ptrs}"
        );
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = StdRng::seed_from_u64(99);
        let mut b = StdRng::seed_from_u64(99);
        for &lambda in &[0.5, 3.0, 77.0] {
            assert_eq!(
                sample_poisson(&mut a, lambda),
                sample_poisson(&mut b, lambda)
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_mean_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        sample_poisson(&mut rng, -1.0);
    }

    #[test]
    #[should_panic(expected = "Poisson mean must be finite and non-negative, got NaN")]
    fn prepared_rows_check_every_distinct_mean() {
        let mut rows = PreparedRows::default();
        assert_eq!(rows.row(&[0.25, 0.75], 8.0).len(), 2);
        rows.row(&[0.25, 0.75], f64::NAN);
    }

    #[test]
    fn negative_binomial_zero_phi_is_bit_identical_to_poisson() {
        // The knob's off position must consume exactly the Poisson stream.
        for &mean in &[0.0, 0.7, 4.2, 25.0] {
            let mut nb = StdRng::seed_from_u64(314);
            let mut po = StdRng::seed_from_u64(314);
            for _ in 0..200 {
                assert_eq!(
                    sample_negative_binomial(&mut nb, mean, 0.0),
                    sample_poisson(&mut po, mean),
                    "φ=0 diverged from the Poisson path at μ={mean}"
                );
            }
            // The underlying generators must also be in lockstep afterwards.
            assert_eq!(nb.gen::<u64>(), po.gen::<u64>());
        }
    }

    #[test]
    fn negative_binomial_mean_and_variance() {
        let n = 60_000;
        for &(mean, phi) in &[(4.0, 0.5), (20.0, 0.25), (50.0, 0.1)] {
            let mut rng = StdRng::seed_from_u64(77);
            let samples: Vec<f64> = (0..n)
                .map(|_| sample_negative_binomial(&mut rng, mean, phi) as f64)
                .collect();
            let m = samples.iter().sum::<f64>() / n as f64;
            let var = samples.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (n - 1) as f64;
            let expected_var = mean + phi * mean * mean;
            assert!((m - mean).abs() / mean < 0.02, "μ={mean} φ={phi}: mean={m}");
            assert!(
                (var - expected_var).abs() / expected_var < 0.08,
                "μ={mean} φ={phi}: var={var} want≈{expected_var}"
            );
        }
    }

    #[test]
    fn negative_binomial_determinism_per_seed() {
        let mut a = StdRng::seed_from_u64(404);
        let mut b = StdRng::seed_from_u64(404);
        for _ in 0..100 {
            assert_eq!(
                sample_negative_binomial(&mut a, 12.0, 0.3),
                sample_negative_binomial(&mut b, 12.0, 0.3)
            );
        }
    }

    #[test]
    #[should_panic(expected = "overdispersion")]
    fn negative_phi_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        sample_negative_binomial(&mut rng, 1.0, -0.1);
    }
}
