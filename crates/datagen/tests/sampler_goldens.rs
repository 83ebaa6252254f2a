//! Bit-identity goldens for the count sampler.
//!
//! The digests below were recorded from the per-draw sampler (every draw
//! recomputing its own Knuth / PTRS constants) before the prepared-mean
//! path existed. The prepared path must reproduce every one of them: same
//! counts, and the same number of uniforms consumed, so a seeded stream
//! never shifts.

use gridtuner_datagen::{sample_poisson, City};
use gridtuner_spatial::{CountSeries, GridSpec, SlotId};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// FNV-1a over a sequence of words.
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

fn series_digest(series: &CountSeries) -> u64 {
    fnv64((0..series.n_slots()).flat_map(|t| {
        series
            .slot(SlotId(t as u32))
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    }))
}

/// Digest of the first `N` draws at `lambda`, followed by the generator's
/// next word (which pins how many uniforms the draws consumed).
fn draw_digest(lambda: f64) -> u64 {
    const N: usize = 2_000;
    let mut rng = StdRng::seed_from_u64(0x5eed);
    let mut words: Vec<u64> = (0..N).map(|_| sample_poisson(&mut rng, lambda)).collect();
    words.push(rng.gen::<u64>());
    fnv64(words)
}

const DRAW_GOLDENS: [(f64, u64); 7] = [
    (0.0, 0x2070_0c87_86a0_ad3a),
    (5e-324, 0x2677_3734_5928_9460),
    (1e-3, 0x0211_ee90_eaf3_381f),
    (9.999999, 0x1a33_cc3b_a671_fbfa),
    (10.0, 0xdefb_ad54_f8b3_356f),
    (1e3, 0xde86_44d2_0522_8385),
    (1e8, 0x06cc_beaf_04ca_e74e),
];

#[test]
fn poisson_draws_match_recorded_digests() {
    let got: Vec<(f64, u64)> = DRAW_GOLDENS
        .iter()
        .map(|&(lambda, _)| (lambda, draw_digest(lambda)))
        .collect();
    assert_eq!(got, DRAW_GOLDENS, "Poisson draw digests moved");
}

/// One week of slots: both the weekday and the weekend slot totals recur,
/// and at side 64 the prepared rows outgrow their memory budget, so the
/// cached and the uncached prepare paths are both exercised.
const HORIZON: usize = 7 * 48;

fn knobbed(name: &str, knob: &str) -> City {
    let city = City::by_name(name).unwrap();
    match knob {
        "plain" => city,
        "overdispersed" => city.with_overdispersion(0.3),
        "drift" => city.with_drift(0.01, -0.005),
        other => unreachable!("unknown knob {other}"),
    }
}

const SERIES_GOLDENS: [(&str, &str, u32, u64); 36] = [
    ("nyc", "plain", 1, 0x1b9f_4eb7_5427_0b10),
    ("nyc", "plain", 4, 0xfb77_8a3e_2e26_1078),
    ("nyc", "plain", 16, 0x54a8_a688_f061_4175),
    ("nyc", "plain", 64, 0x95e6_02b3_20d6_d14a),
    ("nyc", "overdispersed", 1, 0x1d68_b7eb_24b1_f4a2),
    ("nyc", "overdispersed", 4, 0x7351_cb44_4c7c_94c6),
    ("nyc", "overdispersed", 16, 0xea06_467a_efc3_7deb),
    ("nyc", "overdispersed", 64, 0xd051_cafd_cb55_333e),
    ("nyc", "drift", 1, 0x1b9f_4eb7_5427_0b10),
    ("nyc", "drift", 4, 0x6fe7_3c97_37d8_0ff1),
    ("nyc", "drift", 16, 0x1203_ff60_b1aa_a4d1),
    ("nyc", "drift", 64, 0x70ad_1147_8738_5b9b),
    ("chengdu", "plain", 1, 0x2e36_ef9e_d0ad_f74d),
    ("chengdu", "plain", 4, 0x4df7_cf0e_b9e1_cdd7),
    ("chengdu", "plain", 16, 0x4600_a350_3869_d6e3),
    ("chengdu", "plain", 64, 0x7d3b_09be_879b_e426),
    ("chengdu", "overdispersed", 1, 0x4dd9_50f1_c536_31c1),
    ("chengdu", "overdispersed", 4, 0x1171_ffbe_5383_5c76),
    ("chengdu", "overdispersed", 16, 0xa7bb_0dbb_317e_7e15),
    ("chengdu", "overdispersed", 64, 0xb010_5d6a_de7c_f504),
    ("chengdu", "drift", 1, 0x2e36_ef9e_d0ad_f74d),
    ("chengdu", "drift", 4, 0x5809_7ba1_fed2_8663),
    ("chengdu", "drift", 16, 0xe6ff_51a1_336e_92fd),
    ("chengdu", "drift", 64, 0xb15e_facf_894a_b178),
    ("xian", "plain", 1, 0x6ca2_3d36_5718_ad84),
    ("xian", "plain", 4, 0x652d_8f83_0839_7c6c),
    ("xian", "plain", 16, 0xcff3_2bb6_819c_80c8),
    ("xian", "plain", 64, 0xa633_defb_4fc7_18a8),
    ("xian", "overdispersed", 1, 0xd111_99d5_2282_7a3b),
    ("xian", "overdispersed", 4, 0xbf5c_dde1_87b5_23c8),
    ("xian", "overdispersed", 16, 0x4ba7_26e3_da2a_5b18),
    ("xian", "overdispersed", 64, 0x6edd_1f71_a416_2bde),
    ("xian", "drift", 1, 0x6ca2_3d36_5718_ad84),
    ("xian", "drift", 4, 0xac76_f4f0_604d_dc5f),
    ("xian", "drift", 16, 0xb915_4812_c55b_866c),
    ("xian", "drift", 64, 0xfb9a_f58d_a2db_4b23),
];

#[test]
fn count_series_match_recorded_digests() {
    let got: Vec<(&str, &str, u32, u64)> = SERIES_GOLDENS
        .iter()
        .map(|&(name, knob, side, _)| {
            let city = knobbed(name, knob);
            let mut rng = StdRng::seed_from_u64(u64::from(side) * 1_000 + 17);
            let series = city.sample_count_series(GridSpec::new(side), HORIZON, &mut rng);
            (name, knob, side, series_digest(&series))
        })
        .collect();
    assert_eq!(got, SERIES_GOLDENS, "count series digests moved");
}
