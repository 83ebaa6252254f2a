//! Poisson machinery: stable pmf ranges and exact sampling, single draws
//! and a whole count series (the model leg's sampling step).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gridtuner_core::poisson::{mass_window, poisson_pmf_into};
use gridtuner_datagen::{sample_poisson, City};
use gridtuner_spatial::GridSpec;
use rand::{rngs::StdRng, SeedableRng};
use std::time::Duration;

fn bench_poisson(c: &mut Criterion) {
    let mut g = c.benchmark_group("poisson");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    for lambda in [5.0f64, 500.0, 50_000.0] {
        g.bench_with_input(
            BenchmarkId::new("pmf_mass_window", lambda as u64),
            &lambda,
            |b, &l| {
                let mut buf = Vec::new();
                b.iter(|| {
                    let (lo, hi) = mass_window(l, 0);
                    poisson_pmf_into(l, lo, hi, &mut buf);
                    buf.last().copied()
                })
            },
        );
    }
    for lambda in [0.5f64, 8.0, 1_000.0] {
        g.bench_with_input(
            BenchmarkId::new("sample_1k", format!("{lambda}")),
            &lambda,
            |b, &l| {
                let mut rng = StdRng::seed_from_u64(3);
                b.iter(|| {
                    let mut acc = 0u64;
                    for _ in 0..1_000 {
                        acc += sample_poisson(&mut rng, l);
                    }
                    acc
                })
            },
        );
    }
    // One model-leg series: Chengdu at side 16 over 30 days of slots.
    let chengdu = City::chengdu();
    g.bench_function("count_series/chengdu_s16_30d", |b| {
        let mut rng = StdRng::seed_from_u64(7);
        b.iter(|| {
            chengdu
                .sample_count_series(GridSpec::new(16), 30 * 48, &mut rng)
                .n_slots()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_poisson);
criterion_main!(benches);
