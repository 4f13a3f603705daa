//! The reusable lockstep-SIMD engine layer shared by every DP-motif
//! kernel with an executed vector fast path (`bsw`, `phmm`, `spoa`,
//! `abea`).
//!
//! What lives here is the machinery that PR 4 originally built privately
//! inside `bsw_simd.rs` and that every later port needs verbatim:
//!
//! - **lane geometry** ([`LANES`]) — the modelled 16-bit AVX2 vector
//!   width every SoA lane array is sized to;
//! - **precision laddering** ([`MAX_I16_PARAM`], [`RETIRE_LIMIT`],
//!   [`fits_i16`]) — the i16 overflow-watch contract: parameters are
//!   bounded so a single cell update moves a value by at most
//!   `MAX_I16_PARAM`, which means a watch against `RETIRE_LIMIT` fires
//!   *before* any wraparound and the lane can be retired to an exact
//!   wider-integer rerun while its last stored values are still exact;
//! - **slot accounting** ([`BatchReport`]) — scalar-vs-vector cell-slot
//!   counts, the dead-slot fraction and lane-retirement gauges surfaced
//!   through `Kernel::gauges` and the experiment reports;
//! - **lockstep grouping** ([`order_by_key`], [`inverse_order`],
//!   [`group_slices`]) — length-sorted lane assignment (the paper's
//!   dead-slot mitigation) plus the inverse permutation to scatter
//!   per-lane results back to input order.
//!
//! The bit-identity discipline the ladder exists to serve: integer
//! engines must produce *exactly* the scalar kernel's scores (overflow
//! retires to an exact i32 rerun before precision is lost), and f32
//! engines must preserve the scalar expression tree and evaluation order
//! so every intermediate rounds identically. Differential proptests in
//! `tests/dp_engines_diff.rs` (and `gb-poa`'s `poa_engines_diff.rs`)
//! enforce this per kernel.

/// Number of lanes in the modelled vector (16-bit AVX2 lanes = 16).
pub const LANES: usize = 16;

/// Largest scoring-parameter magnitude the i16 engines accept. Chosen so
/// one cell update can move a value by at most this much, making
/// [`RETIRE_LIMIT`] detection catch overflow *before* any wraparound.
pub const MAX_I16_PARAM: i32 = 8_192;

/// Values at or above this retire the lane to the exact i32 ladder.
/// The value itself is still exact when detected: the previous watch
/// passed below the limit and one update moves at most [`MAX_I16_PARAM`],
/// so nothing has wrapped yet.
pub const RETIRE_LIMIT: i16 = (i16::MAX as i32 - MAX_I16_PARAM) as i16;

/// Whether every scoring magnitude in `values` fits the i16 ladder
/// contract (`[0, MAX_I16_PARAM]`). Kernels with out-of-range parameters
/// must run their exact wider-integer engine for the whole batch.
pub fn fits_i16(values: &[i32]) -> bool {
    values.iter().all(|&v| (0..=MAX_I16_PARAM).contains(&v))
}

/// Outcome of executing a batch of alignments in SIMD lockstep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Cells a scalar execution would compute (sum of per-task cells).
    pub scalar_cells: u64,
    /// Cell-update slots consumed by the lockstep execution
    /// (`lanes x max-cells` per batch group).
    pub vector_cells: u64,
    /// Number of lane-batches executed.
    pub batches: u64,
    /// Lanes the i16 SIMD engine retired to the i32 scalar ladder
    /// (always 0 for the i32 lockstep reference and the analytic model).
    pub retired_lanes: u64,
}

impl BatchReport {
    /// The over-compute factor: vectorized cell updates relative to
    /// scalar (the paper reports 2.2x for bsw with 16-lane AVX2).
    pub fn overcompute(&self) -> f64 {
        if self.scalar_cells == 0 {
            return 1.0;
        }
        self.vector_cells as f64 / self.scalar_cells as f64
    }

    /// Fraction of vector cell slots that did no useful work (lane
    /// imbalance waste): `1 - scalar/vector`. Zero for an empty batch.
    pub fn dead_slot_fraction(&self) -> f64 {
        if self.vector_cells == 0 {
            return 0.0;
        }
        1.0 - self.scalar_cells as f64 / self.vector_cells as f64
    }

    /// Folds another report's counts into this one.
    pub fn merge(&mut self, other: &BatchReport) {
        self.scalar_cells += other.scalar_cells;
        self.vector_cells += other.vector_cells;
        self.batches += other.batches;
        self.retired_lanes += other.retired_lanes;
    }
}

/// Task-index order for lockstep lane assignment: identity, or sorted by
/// `key` (the paper's dead-slot mitigation groups similarly-sized tasks
/// into the same vector batch).
pub fn order_by_key<K: Ord>(n: usize, sort: bool, key: impl Fn(usize) -> K) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if sort {
        order.sort_by_key(|&i| key(i));
    }
    order
}

/// Inverse permutation of `order`: `inv[order[k]] == k`. Used to scatter
/// per-lane results (produced in sorted order) back to input order.
pub fn inverse_order(order: &[usize]) -> Vec<usize> {
    let mut inv = vec![0usize; order.len()];
    for (k, &i) in order.iter().enumerate() {
        inv[i] = k;
    }
    inv
}

/// Splits an order into lockstep groups of at most `width` lanes,
/// preserving order within and across groups.
pub fn group_slices(order: &[usize], width: usize) -> impl Iterator<Item = &[usize]> {
    assert!(width > 0, "lane width must be positive");
    order.chunks(width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retire_limit_leaves_one_update_of_headroom() {
        assert_eq!(RETIRE_LIMIT as i32 + MAX_I16_PARAM, i16::MAX as i32);
    }

    #[test]
    fn fits_i16_bounds() {
        assert!(fits_i16(&[0, 1, MAX_I16_PARAM]));
        assert!(!fits_i16(&[-1]));
        assert!(!fits_i16(&[MAX_I16_PARAM + 1]));
        assert!(fits_i16(&[]));
    }

    #[test]
    fn report_ratios() {
        let r = BatchReport {
            scalar_cells: 75,
            vector_cells: 100,
            batches: 2,
            retired_lanes: 1,
        };
        assert!((r.overcompute() - 100.0 / 75.0).abs() < 1e-12);
        assert!((r.dead_slot_fraction() - 0.25).abs() < 1e-12);
        let mut total = BatchReport::default();
        assert_eq!(total.overcompute(), 1.0);
        assert_eq!(total.dead_slot_fraction(), 0.0);
        total.merge(&r);
        total.merge(&r);
        assert_eq!(total.scalar_cells, 150);
        assert_eq!(total.batches, 4);
        assert_eq!(total.retired_lanes, 2);
    }

    #[test]
    fn ordering_helpers_roundtrip() {
        let lens = [5usize, 1, 9, 3];
        let order = order_by_key(lens.len(), true, |i| lens[i]);
        assert_eq!(order, vec![1, 3, 0, 2]);
        let inv = inverse_order(&order);
        for (k, &i) in order.iter().enumerate() {
            assert_eq!(inv[i], k);
        }
        let ident = order_by_key(lens.len(), false, |i| lens[i]);
        assert_eq!(ident, vec![0, 1, 2, 3]);
        let groups: Vec<&[usize]> = group_slices(&order, 3).collect();
        assert_eq!(groups, vec![&order[..3], &order[3..]]);
    }
}
