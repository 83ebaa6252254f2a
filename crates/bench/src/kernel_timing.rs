//! Robust timing of the expression-error kernel pair.
//!
//! Both `tune_bench` (which writes the committed `BENCH_tune.json`
//! baseline) and `bench_check` (which gates against it) time the same
//! two sweeps — the pre-batching per-cell hot loop vs the batched
//! workspace + pmf-memo path — over the same probed sides and the same
//! warm α cache. The ratio between two long, separately-timed blocks
//! wobbles double-digit percent on a busy host, which is useless for a
//! sentinel with a 15% tolerance; this helper interleaves the two
//! kernels *per side* (≈ms granularity, so machine-speed drift lands on
//! both sides of the ratio equally) and keeps the per-kernel minimum
//! across `reps` passes — the classic robust timing statistic.
//!
//! [`time_simd`] applies the same discipline to a different axis: the
//! *same* sweep under the AVX2 backend vs its bit-identical scalar
//! emulation (toggled via [`gridtuner_core::set_simd_enabled`]). The
//! workload is the per-cell sweep on purpose — every call builds fresh
//! pmf tables, so the vectorised fill/fold actually runs instead of
//! being served from the cross-probe pmf memo.

use gridtuner_core::alpha_cache::AlphaFieldCache;
use gridtuner_spatial::Partition;
use gridtuner_testkit::reference::expression_error_percell;
use std::time::Instant;

/// Minima over `reps` interleaved passes, plus the (bit-compared
/// elsewhere) totals each kernel produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTiming {
    pub percell_ms: f64,
    pub batched_ms: f64,
    pub percell_total: f64,
    pub batched_total: f64,
}

impl KernelTiming {
    pub fn speedup(&self) -> f64 {
        self.percell_ms / self.batched_ms.max(1e-9)
    }
}

/// Times both kernels over `probed` sides against a warm `cache`.
///
/// Each pass walks the sides once, timing the per-cell and the batched
/// evaluation of the *same* partition back-to-back; per-kernel pass
/// totals are accumulated and the minimum across passes is kept.
pub fn time_kernels(
    cache: &AlphaFieldCache,
    probed: &[u32],
    budget: u32,
    reps: usize,
) -> KernelTiming {
    let mut out = KernelTiming {
        percell_ms: f64::INFINITY,
        batched_ms: f64::INFINITY,
        percell_total: 0.0,
        batched_total: 0.0,
    };
    for _ in 0..reps.max(1) {
        let mut percell_ms = 0.0f64;
        let mut batched_ms = 0.0f64;
        let mut percell_total = 0.0f64;
        let mut batched_total = 0.0f64;
        for &s in probed {
            let part = Partition::for_budget(s, budget);
            let t = Instant::now();
            percell_total += cache.with_alpha(part.hgrid_spec(), |alpha| {
                expression_error_percell(alpha, &part)
            });
            percell_ms += t.elapsed().as_secs_f64() * 1e3;
            let t = Instant::now();
            batched_total += cache
                .expression_error(&part)
                .expect("α field from finite synthetic events");
            batched_ms += t.elapsed().as_secs_f64() * 1e3;
        }
        if percell_ms < out.percell_ms {
            out.percell_ms = percell_ms;
            out.percell_total = percell_total;
        }
        if batched_ms < out.batched_ms {
            out.batched_ms = batched_ms;
            out.batched_total = batched_total;
        }
    }
    out
}

/// Minima over `reps` interleaved passes of the same sweep under the
/// vector backend vs its scalar emulation, plus the totals each produced
/// (bit-compared by the callers — identity is the whole point).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimdTiming {
    pub vector_ms: f64,
    pub scalar_ms: f64,
    pub vector_total: f64,
    pub scalar_total: f64,
    /// Whether the host has AVX2 — i.e. whether the vector side actually
    /// ran vector code. When false both sides are the scalar emulation
    /// and the speedup is ≈1 by construction — gates must self-skip
    /// instead of failing.
    pub avx2: bool,
}

impl SimdTiming {
    pub fn speedup(&self) -> f64 {
        self.scalar_ms / self.vector_ms.max(1e-9)
    }
}

/// Times the per-cell expression sweep over `probed` sides under the
/// vector backend and under forced scalar emulation, interleaved per
/// side with the per-backend minimum kept across `reps` passes.
///
/// The backend is flipped with [`gridtuner_core::set_simd_enabled`] and
/// restored afterwards; flipping it mid-process is safe because both
/// backends share the canonical 4-lane association and produce
/// identical bits.
pub fn time_simd(cache: &AlphaFieldCache, probed: &[u32], budget: u32, reps: usize) -> SimdTiming {
    let prev = gridtuner_core::simd_enabled();
    let avx2 = gridtuner_core::simd::avx2_available();
    let mut out = SimdTiming {
        vector_ms: f64::INFINITY,
        scalar_ms: f64::INFINITY,
        vector_total: 0.0,
        scalar_total: 0.0,
        avx2,
    };
    for _ in 0..reps.max(1) {
        let mut vector_ms = 0.0f64;
        let mut scalar_ms = 0.0f64;
        let mut vector_total = 0.0f64;
        let mut scalar_total = 0.0f64;
        for &s in probed {
            let part = Partition::for_budget(s, budget);
            gridtuner_core::set_simd_enabled(true);
            let t = Instant::now();
            vector_total += cache.with_alpha(part.hgrid_spec(), |alpha| {
                expression_error_percell(alpha, &part)
            });
            vector_ms += t.elapsed().as_secs_f64() * 1e3;
            gridtuner_core::set_simd_enabled(false);
            let t = Instant::now();
            scalar_total += cache.with_alpha(part.hgrid_spec(), |alpha| {
                expression_error_percell(alpha, &part)
            });
            scalar_ms += t.elapsed().as_secs_f64() * 1e3;
        }
        if vector_ms < out.vector_ms {
            out.vector_ms = vector_ms;
            out.vector_total = vector_total;
        }
        if scalar_ms < out.scalar_ms {
            out.scalar_ms = scalar_ms;
            out.scalar_total = scalar_total;
        }
    }
    gridtuner_core::set_simd_enabled(prev);
    out
}
