//! The 4-lane `f64` vector the expression kernel is written over.
//!
//! The hot kernels (the stride-4 pmf recurrence in [`crate::poisson`], the
//! checkpoint folds in [`crate::expr_kernel`]) step four independent lanes
//! at a time. [`F64x4`] is plain Rust: every operation is one IEEE 754
//! binary64 operation per lane, written out lane by lane, which leaves the
//! compiler free to vectorise it for whatever target it builds for.
//!
//! **The determinism argument.** The bits come from the *association*, not
//! from the instruction set. Each lane op is a correctly rounded binary64
//! add, sub, mul or div, so any vectorisation of it yields the same bits;
//! FMA contraction is never applied to Rust `f64` arithmetic, so `mom` is
//! always a mul then an add. The only cross-lane operation is
//! [`F64x4::hsum`], the fixed tree `(l0 + l1) + (l2 + l3)`. A kernel body
//! built from these ops therefore has exactly one possible result, which
//! the testkit's `pmf-lanes-vs-per-entry-reference` pair checks against an
//! entry-at-a-time transcription of the same association.

use std::ops::{Add, Div, Mul, Sub};

/// A 4-lane vector of `f64`. Lane order is memory order: [`F64x4::load`]
/// from a slice puts `slice[0]` in lane 0.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct F64x4(pub(crate) [f64; 4]);

impl F64x4 {
    /// All lanes zero.
    pub(crate) const ZERO: F64x4 = F64x4([0.0; 4]);

    /// Broadcast `x` into all lanes.
    #[inline(always)]
    pub(crate) fn splat(x: f64) -> F64x4 {
        F64x4([x; 4])
    }

    /// Load lanes from `src[0..4]`. Panics if `src` is shorter.
    #[inline(always)]
    pub(crate) fn load(src: &[f64]) -> F64x4 {
        F64x4([src[0], src[1], src[2], src[3]])
    }

    /// Store lanes to `dst[0..4]`. Panics if `dst` is shorter.
    #[inline(always)]
    pub(crate) fn store(self, dst: &mut [f64]) {
        dst[..4].copy_from_slice(&self.0);
    }

    /// Gather `table[idx[j]]` into lane `j`. Panics if an index is out of
    /// bounds.
    #[inline(always)]
    pub(crate) fn gather(table: &[f64], idx: [usize; 4]) -> F64x4 {
        F64x4([table[idx[0]], table[idx[1]], table[idx[2]], table[idx[3]]])
    }

    /// The integers `k0, k0+1, k0+2, k0+3` as `f64` (exact for `k < 2⁵³`).
    #[inline(always)]
    pub(crate) fn ramp(k0: u64) -> F64x4 {
        F64x4([k0 as f64, (k0 + 1) as f64, (k0 + 2) as f64, (k0 + 3) as f64])
    }

    /// The canonical horizontal sum: the balanced tree
    /// `(l0 + l1) + (l2 + l3)`. Every lane-folded value in the kernels
    /// (checkpoint states, block partials, prefix reads) reduces through
    /// this exact association.
    #[inline(always)]
    pub(crate) fn hsum(self) -> f64 {
        (self.0[0] + self.0[1]) + (self.0[2] + self.0[3])
    }
}

macro_rules! lane_wise {
    ($trait:ident, $method:ident, $op:tt) => {
        impl $trait for F64x4 {
            type Output = F64x4;

            #[inline(always)]
            fn $method(self, rhs: F64x4) -> F64x4 {
                F64x4([
                    self.0[0] $op rhs.0[0],
                    self.0[1] $op rhs.0[1],
                    self.0[2] $op rhs.0[2],
                    self.0[3] $op rhs.0[3],
                ])
            }
        }
    };
}

lane_wise!(Add, add, +);
lane_wise!(Sub, sub, -);
lane_wise!(Mul, mul, *);
lane_wise!(Div, div, /);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hsum_uses_the_canonical_tree() {
        let v = F64x4([1.0e16, 1.0, -1.0e16, 1.0]);
        // (1e16 + 1) + (-1e16 + 1) — the flat left-to-right fold would
        // give a different answer; the tree is the canonical one.
        assert_eq!(
            v.hsum().to_bits(),
            ((1.0e16f64 + 1.0) + (-1.0e16 + 1.0)).to_bits()
        );
    }
}
