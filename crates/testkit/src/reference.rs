//! Slow, single-threaded reference sweeps for the expression error.
//!
//! The production sweep, [`try_partition_expression_error`], runs the
//! batched kernel over the worker pool. The functions here recompute the
//! same total on one thread, so the differential checks, the property
//! suites and `kernel_timing`'s per-cell baseline have an independent
//! oracle to compare it with:
//!
//! * [`expression_error_seq`] — the square [`Partition`] swept MGrid by
//!   MGrid, without going through [`SpatialPartition`], in the production
//!   sweep's fixed [`gridtuner_par::SUM_BLOCK`] association — equal to the
//!   production sweep **bit for bit**;
//! * [`region_expression_error_seq`] — the same for any
//!   [`SpatialPartition`], region by region;
//! * [`expression_error_percell`] — the pre-batching sweep: one
//!   [`expression_error_windowed`] call per distinct rate per MGrid, summed
//!   in cell order. A different association, so it agrees with the batched
//!   sweep to reassociation tolerance, not bitwise;
//! * [`pmf_lanes_reference`] and [`fold_lanes_reference`] — the kernel's
//!   four-lane pmf fill and `(cum, mom)` fold, transcribed one entry at a
//!   time. Same association, so equal to `poisson_pmf_into` and
//!   `PmfTable` **bit for bit**.
//!
//! [`try_partition_expression_error`]:
//!     gridtuner_core::expression::try_partition_expression_error

use gridtuner_core::error::CoreError;
use gridtuner_core::expr_kernel::{ExprWorkspace, PmfMemo};
use gridtuner_core::expression::expression_error_windowed;
use gridtuner_core::poisson::poisson_pmf;
use gridtuner_spatial::{CellId, CountMatrix, Partition, RegionId, SpatialPartition};
use std::collections::HashMap;

/// Folds per-item values in fixed [`gridtuner_par::SUM_BLOCK`]-sized
/// blocks — each with the canonical 4-lane in-block association
/// `par_sum_with` uses — then sums the block partials in order.
fn block_sum<T>(items: &[T], mut value: impl FnMut(&T) -> f64) -> f64 {
    let mut partials = Vec::with_capacity(items.len().div_ceil(gridtuner_par::SUM_BLOCK).max(1));
    for block in items.chunks(gridtuner_par::SUM_BLOCK) {
        let mut lanes = [0.0f64; 4];
        for (i, item) in block.iter().enumerate() {
            lanes[i % 4] += value(item);
        }
        partials.push((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]));
    }
    partials.iter().sum()
}

/// Rejects a field on the wrong lattice or with a non-finite or negative
/// rate, as the production sweep does.
fn check_field(alpha: &CountMatrix, lattice_side: u32) -> Result<(), CoreError> {
    if alpha.side() != lattice_side {
        return Err(CoreError::Data(format!(
            "alpha field must live on the partition's HGrid lattice \
             (field side {}, lattice side {lattice_side})",
            alpha.side()
        )));
    }
    match alpha
        .as_slice()
        .iter()
        .position(|a| !a.is_finite() || *a < 0.0)
    {
        Some(i) => Err(CoreError::Data(format!(
            "α field has a non-finite or negative value {} at cell {i}",
            alpha.as_slice()[i]
        ))),
        None => Ok(()),
    }
}

/// Sequential square sweep: the batched kernel on one thread over the
/// MGrids of `partition`, cells in [`Partition::hgrid_iter`] order. Panics
/// on a lattice mismatch or an invalid α value.
pub fn expression_error_seq(alpha: &CountMatrix, partition: &Partition) -> f64 {
    if let Err(e) = check_field(alpha, partition.hgrid_spec().side()) {
        panic!("{e}");
    }
    let memo = PmfMemo::default();
    let mut ws = ExprWorkspace::new();
    let mgrids: Vec<CellId> = partition.mgrid_spec().cells().collect();
    block_sum(&mgrids, |&mcell| {
        ws.mgrid_error_trusted(partition.hgrid_iter(mcell).map(|h| alpha.get(h)), &memo)
    })
}

/// Sequential sweep over any [`SpatialPartition`], regions in dense id
/// order.
pub fn region_expression_error_seq<P: SpatialPartition>(
    alpha: &CountMatrix,
    partition: &P,
) -> Result<f64, CoreError> {
    check_field(alpha, partition.hgrid_spec().side())?;
    let memo = PmfMemo::default();
    let mut ws = ExprWorkspace::new();
    let mut buf = Vec::new();
    let regions: Vec<RegionId> = (0..partition.n_regions()).map(RegionId).collect();
    Ok(block_sum(&regions, |&rid| {
        partition.region_cells_into(rid, &mut buf);
        ws.mgrid_error_trusted(buf.iter().map(|&h| alpha.get(h)), &memo)
    }))
}

/// The pre-batching square sweep: one [`expression_error_windowed`] call
/// per distinct rate per MGrid (a per-MGrid memo), summed in cell order on
/// one thread. Panics on a lattice mismatch.
pub fn expression_error_percell(alpha: &CountMatrix, partition: &Partition) -> f64 {
    assert_eq!(
        alpha.side(),
        partition.hgrid_spec().side(),
        "alpha field must live on the partition's HGrid lattice"
    );
    partition
        .mgrid_spec()
        .cells()
        .map(|mcell| {
            let alphas: Vec<f64> = partition
                .hgrids_of(mcell)
                .into_iter()
                .map(|h| alpha.get(h))
                .collect();
            let m = alphas.len();
            if m <= 1 {
                return 0.0;
            }
            let total: f64 = alphas.iter().sum();
            let mut memo: HashMap<u64, f64> = HashMap::new();
            alphas
                .iter()
                .map(|&a| {
                    *memo
                        .entry(a.to_bits())
                        .or_insert_with(|| expression_error_windowed(a, (total - a).max(0.0), m))
                })
                .sum::<f64>()
        })
        .sum()
}

/// `PmfTable`'s fold-checkpoint stride: every this many entries the four
/// lanes fold down into the scalar base.
const FOLD_STRIDE: usize = 64;

/// The pmf of `Pois(lambda)` over `lo..=hi`, one entry at a time in the
/// stride-4 recurrence of `poisson_pmf_into`: the four entries on each side
/// of the clamped mode by the direct log formula, then
/// `p(k) = p(k−4)·λ⁴ ∕ ((k−3)(k−2))((k−1)k)` upward and
/// `p(k) = p(k+4)·((k+4)(k+3))((k+2)(k+1)) ∕ λ⁴` downward.
pub fn pmf_lanes_reference(lambda: f64, lo: u64, hi: u64) -> Vec<f64> {
    let len = (hi - lo + 1) as usize;
    let mut out = vec![0.0; len];
    if lambda == 0.0 {
        if lo == 0 {
            out[0] = 1.0;
        }
        return out;
    }
    let anchor = ((lambda.floor() as u64).clamp(lo, hi) - lo) as usize;
    let lam4 = (lambda * lambda) * (lambda * lambda);
    let seeds = anchor.saturating_sub(4)..(anchor + 4).min(len);
    for i in seeds.clone() {
        out[i] = poisson_pmf(lambda, lo + i as u64);
    }
    for i in seeds.end..len {
        let k = |d: u64| (lo + i as u64 - d) as f64;
        out[i] = out[i - 4] * lam4 / ((k(3) * k(2)) * (k(1) * k(0)));
    }
    for i in (0..seeds.start).rev() {
        let k = |d: u64| (lo + i as u64 + d) as f64;
        out[i] = out[i + 4] * ((k(4) * k(3)) * (k(2) * k(1))) / lam4;
    }
    out
}

/// The windowed totals `(Σ P(k), Σ k·P(k))` of a pmf over `lo..`, one entry
/// at a time in `PmfTable`'s fold: entry `j` accumulates into
/// `lanes[j % 4]`, and every [`FOLD_STRIDE`] entries the lanes fold down
/// `(l₀+l₁)+(l₂+l₃)` into a scalar base.
pub fn fold_lanes_reference(lo: u64, pmf: &[f64]) -> (f64, f64) {
    let tree = |l: [f64; 4]| (l[0] + l[1]) + (l[2] + l[3]);
    let (mut base_c, mut base_s) = (0.0, 0.0);
    let (mut cum, mut mom) = ([0.0f64; 4], [0.0f64; 4]);
    for (j, &p) in pmf.iter().enumerate() {
        cum[j % 4] += p;
        mom[j % 4] += (lo + j as u64) as f64 * p;
        if (j + 1) % FOLD_STRIDE == 0 {
            base_c += tree(cum);
            base_s += tree(mom);
            (cum, mom) = ([0.0; 4], [0.0; 4]);
        }
    }
    (base_c + tree(cum), base_s + tree(mom))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridtuner_core::expression::try_partition_expression_error;

    fn uneven_field(side: u32) -> CountMatrix {
        let mut alpha = CountMatrix::zeros(side);
        for r in 0..side as usize {
            for c in 0..side as usize {
                // Quantised like a real estimate (count / days), with
                // plenty of repeats for the dedup path.
                alpha.as_mut_slice()[r * side as usize + c] = ((r * 13 + c * 7) % 9) as f64 / 5.0;
            }
        }
        alpha
    }

    #[test]
    fn parallel_seq_and_percell_paths_agree() {
        let p = Partition::new(4, 6);
        let alpha = uneven_field(24);
        let par = try_partition_expression_error(&alpha, &p, None).unwrap();
        let seq = expression_error_seq(&alpha, &p);
        // The parallel sweep replicates the sequential association exactly.
        assert_eq!(par.to_bits(), seq.to_bits(), "par {par} vs seq {seq}");
        let regions = region_expression_error_seq(&alpha, &p).unwrap();
        assert_eq!(par.to_bits(), regions.to_bits());
        // The pre-batching per-cell loop agrees to reassociation tolerance.
        let percell = expression_error_percell(&alpha, &p);
        assert!(
            (par - percell).abs() <= 1e-9 * percell.max(1.0),
            "batched {par} vs per-cell {percell}"
        );
    }

    #[test]
    fn references_reject_invalid_fields() {
        let p = Partition::new(2, 2);
        let mut alpha = CountMatrix::zeros(4);
        alpha.as_mut_slice()[5] = f64::NAN;
        match region_expression_error_seq(&alpha, &p).unwrap_err() {
            CoreError::Data(msg) => assert!(msg.contains("cell 5"), "{msg}"),
            other => panic!("expected Data, got {other:?}"),
        }
        let mismatched = CountMatrix::zeros(5);
        assert!(region_expression_error_seq(&mismatched, &p).is_err());
        let caught = std::panic::catch_unwind(|| expression_error_seq(&mismatched, &p));
        assert!(caught.is_err(), "square reference must reject the lattice");
    }
}
