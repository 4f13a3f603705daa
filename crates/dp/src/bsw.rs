//! Banded Smith-Waterman with affine gaps — the **bsw** kernel.
//!
//! This is the seed-extension computation of BWA-MEM(2) and the pairwise
//! scoring core of GATK: local alignment of a read segment against a
//! reference segment, restricted to a diagonal band, with early
//! termination (Z-drop) when the alignment quality collapses. The module
//! also provides the *inter-sequence batched* execution mode the paper
//! analyzes: many alignments run in SIMD lockstep, where lane imbalance
//! (length differences and early exits) causes redundant cell updates —
//! the 2.2x over-compute reported for the AVX2 implementation.

use gb_core::seq::DnaSeq;
use gb_uarch::probe::{addr_of, NullProbe, Probe};

/// Scoring parameters for Smith-Waterman alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwParams {
    /// Score for a matching base pair (positive).
    pub match_score: i32,
    /// Penalty for a mismatching pair (positive; subtracted).
    pub mismatch: i32,
    /// Gap-open penalty `q` (positive).
    pub gap_open: i32,
    /// Gap-extend penalty `e` (positive).
    pub gap_extend: i32,
    /// Half-width of the diagonal band; `None` computes the full matrix.
    pub band: Option<usize>,
    /// Early-exit threshold: abort when the best score of a row drops
    /// more than this below the global best (`None` disables).
    pub zdrop: Option<i32>,
}

impl Default for SwParams {
    /// BWA-MEM defaults: match 1, mismatch 4, gap open 6, gap extend 1,
    /// band 100, zdrop 100.
    fn default() -> SwParams {
        SwParams {
            match_score: 1,
            mismatch: 4,
            gap_open: 6,
            gap_extend: 1,
            band: Some(100),
            zdrop: Some(100),
        }
    }
}

/// Result of one Smith-Waterman alignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwResult {
    /// Best local alignment score.
    pub score: i32,
    /// Query position (exclusive) where the best score was reached.
    pub query_end: usize,
    /// Target position (exclusive) where the best score was reached.
    pub target_end: usize,
    /// Number of DP cells actually computed (the paper's per-task work
    /// measure).
    pub cells: u64,
    /// Whether the Z-drop early exit fired.
    pub zdropped: bool,
}

/// Aligns `query` against `target` with the given parameters.
///
/// # Examples
///
/// ```
/// use gb_core::seq::DnaSeq;
/// use gb_dp::bsw::{banded_sw, SwParams};
/// let q: DnaSeq = "ACGTACGT".parse()?;
/// let t: DnaSeq = "GGACGTACGTGG".parse()?;
/// let r = banded_sw(&q, &t, &SwParams::default());
/// assert_eq!(r.score, 8); // 8 matches x 1
/// # Ok::<(), gb_core::error::Error>(())
/// ```
pub fn banded_sw(query: &DnaSeq, target: &DnaSeq, params: &SwParams) -> SwResult {
    banded_sw_probed(query, target, params, &mut NullProbe)
}

/// [`banded_sw`] with instrumentation: every H/E/F cell update reports its
/// loads, stores and ALU work to `probe`.
// PANIC-FREE: DP-row indices are clamped to `1..=n` by the band limits
// (`lo >= 1`, `hi <= n`) and the rows are allocated with `n + 1` slots;
// `q[i - 1]`/`t[j - 1]` follow from `i <= m`, `j <= n`.
pub fn banded_sw_probed<P: Probe>(
    query: &DnaSeq,
    target: &DnaSeq,
    params: &SwParams,
    probe: &mut P,
) -> SwResult {
    let q = query.as_codes();
    let t = target.as_codes();
    let (m, n) = (q.len(), t.len());
    if m == 0 || n == 0 {
        return SwResult::default();
    }
    let band = params.band.unwrap_or(usize::MAX);

    // Row-wise DP over the query; `h[j]`/`e[j]` hold the previous row.
    // Cells outside the previous row's band `[prev_lo, prev_hi]` are
    // stale and must read as 0 (out-of-band H) / gap-impossible (E).
    let mut h = vec![0i32; n + 1];
    let mut e = vec![0i32; n + 1];
    let mut best = SwResult::default();
    let mut cells = 0u64;
    let (mut prev_lo, mut prev_hi) = (0usize, n); // row 0 is all zeros

    for i in 1..=m {
        // Band limits on this row (diagonal band around i == j scaled by
        // sequence-length ratio, as BWA-MEM does for unequal lengths).
        let center = i * n / m;
        let lo = center.saturating_sub(band).max(1);
        let hi = center.saturating_add(band).min(n);
        if lo > hi {
            break;
        }
        // Strict band check: j == prev_lo - 1 was *not* computed in the
        // previous row and may hold stale values from older rows.
        let in_prev = |j: usize| j >= prev_lo && j <= prev_hi;
        let mut h_diag = if in_prev(lo - 1) { h[lo - 1] } else { 0 };
        let mut f = 0i32;
        let mut row_best = 0i32;
        for j in lo..=hi {
            cells += 1;
            probe.load(addr_of(&h[j]), 4);
            probe.load(addr_of(&e[j]), 4);
            let valid = in_prev(j);
            let h_up = if valid { h[j] } else { 0 };
            let e_in = if valid { e[j] } else { 0 };
            let s = if q[i - 1] == t[j - 1] {
                params.match_score
            } else {
                -params.mismatch
            };
            let mut score = h_diag + s;
            score = score.max(e_in).max(f).max(0);
            h_diag = h_up;
            h[j] = score;
            probe.store(addr_of(&h[j]), 4);
            // Gap state updates for the next row / next column.
            e[j] = (score - params.gap_open).max(e_in) - params.gap_extend;
            f = (score - params.gap_open).max(f) - params.gap_extend;
            probe.store(addr_of(&e[j]), 4);
            probe.int_ops(10);
            probe.branch(score > row_best);
            if score > row_best {
                row_best = score;
            }
            if score > best.score {
                best.score = score;
                best.query_end = i;
                best.target_end = j;
            }
        }
        prev_lo = lo;
        prev_hi = hi;
        if let Some(z) = params.zdrop {
            probe.branch(row_best + z < best.score);
            if row_best + z < best.score {
                best.zdropped = true;
                break;
            }
        }
    }
    best.cells = cells;
    best
}

/// Full-matrix (unbanded, no early exit) reference implementation.
pub fn full_sw(query: &DnaSeq, target: &DnaSeq, params: &SwParams) -> SwResult {
    let p = SwParams {
        band: None,
        zdrop: None,
        ..*params
    };
    banded_sw(query, target, &p)
}

/// A single alignment task in a batch.
#[derive(Debug, Clone)]
pub struct SwTask {
    /// The query sequence.
    pub query: DnaSeq,
    /// The target sequence.
    pub target: DnaSeq,
}

// `BatchReport` moved to the shared engine layer when spoa/abea joined
// the lockstep framework; re-exported here so existing callers keep
// their import path.
pub use crate::lockstep::BatchReport;

/// Executes `tasks` in lockstep batches of `lanes` (the inter-sequence
/// vectorization model of BWA-MEM2): a batch retires only when its longest
/// task finishes, so every shorter lane burns idle cell slots.
///
/// `sort_by_len` enables the length-sorting mitigation the paper
/// describes (inputs sorted before lane assignment).
///
/// Delegates to the executed lockstep engine
/// ([`crate::bsw_batch::run_lockstep_width`]) so the Fig. 3 slot counts
/// come from one code path: per vector step every lane — active, masked
/// or idle — burns one slot, which reproduces the old analytic
/// `lanes x max-cells` bound exactly (each lane computes one cell per
/// step, so a group runs for `max-cells` steps).
pub fn run_batch(
    tasks: &[SwTask],
    params: &SwParams,
    lanes: usize,
    sort_by_len: bool,
) -> (Vec<SwResult>, BatchReport) {
    assert!(lanes > 0, "lanes must be positive");
    crate::bsw_batch::run_lockstep_width(tasks, params, lanes, sort_by_len)
}

impl gb_substrate::Codec for SwTask {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        gb_substrate::Codec::encode(&self.query, e);
        gb_substrate::Codec::encode(&self.target, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<SwTask> {
        Some(SwTask {
            query: gb_substrate::Codec::decode(d)?,
            target: gb_substrate::Codec::decode(d)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_core::rng::Rng;

    fn seq(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    fn params() -> SwParams {
        SwParams {
            band: None,
            zdrop: None,
            ..SwParams::default()
        }
    }

    /// Textbook O(nm) affine-gap local alignment with explicit matrices.
    fn reference_sw(q: &[u8], t: &[u8], p: &SwParams) -> i32 {
        let (m, n) = (q.len(), t.len());
        let neg = i32::MIN / 4;
        let mut hm = vec![vec![0i32; n + 1]; m + 1];
        let mut em = vec![vec![neg; n + 1]; m + 1];
        let mut fm = vec![vec![neg; n + 1]; m + 1];
        let mut best = 0;
        for i in 1..=m {
            for j in 1..=n {
                em[i][j] = (em[i - 1][j].max(hm[i - 1][j] - p.gap_open)) - p.gap_extend;
                fm[i][j] = (fm[i][j - 1].max(hm[i][j - 1] - p.gap_open)) - p.gap_extend;
                let s = if q[i - 1] == t[j - 1] {
                    p.match_score
                } else {
                    -p.mismatch
                };
                hm[i][j] = (hm[i - 1][j - 1] + s).max(em[i][j]).max(fm[i][j]).max(0);
                best = best.max(hm[i][j]);
            }
        }
        best
    }

    #[test]
    fn perfect_match_scores_length() {
        let q = seq("ACGTACGTAC");
        let r = full_sw(&q, &q, &params());
        assert_eq!(r.score, 10);
        assert_eq!(r.query_end, 10);
        assert_eq!(r.cells, 100);
    }

    #[test]
    fn matches_reference_on_pseudorandom_pairs() {
        for pair_seed in 0..12u64 {
            let mut rng = Rng::seed_from_u64(pair_seed);
            let mut gen =
                |len: usize| -> Vec<u8> { (0..len).map(|_| rng.gen_range(0..4u8)).collect() };
            let q = gen(40 + (pair_seed as usize * 7) % 30);
            let t = gen(50 + (pair_seed as usize * 11) % 40);
            let got = full_sw(
                &DnaSeq::from_codes_unchecked(q.clone()),
                &DnaSeq::from_codes_unchecked(t.clone()),
                &params(),
            );
            assert_eq!(
                got.score,
                reference_sw(&q, &t, &params()),
                "seed {pair_seed}"
            );
        }
    }

    #[test]
    fn gap_alignment_uses_affine_costs() {
        // Query = a long non-repetitive target with a 3-base deletion:
        // bridging the gap (matches - open - 3*extend) beats either flank.
        let mut rng = Rng::seed_from_u64(5);
        let t: DnaSeq = (0..40).map(|_| rng.gen_range(0..4u8)).collect();
        let mut q_codes = t.as_codes().to_vec();
        q_codes.drain(18..21);
        let q = DnaSeq::from_codes_unchecked(q_codes);
        let r = full_sw(&q, &t, &params());
        assert_eq!(r.score, 37 - 6 - 3);
    }

    #[test]
    fn wide_band_equals_full_matrix() {
        let q = seq("ACGGTTACAGGATCCAGTACGTTGCA");
        let t = seq("ACGGTTACCGGATCAGTACGTTGCAA");
        let full = full_sw(&q, &t, &params());
        let banded = banded_sw(
            &q,
            &t,
            &SwParams {
                band: Some(1000),
                zdrop: None,
                ..params()
            },
        );
        assert_eq!(full.score, banded.score);
    }

    #[test]
    fn narrow_band_computes_fewer_cells() {
        let q = seq("ACGGTTACAGGATCCAGTACGTTGCAACGGTTACAGG");
        let t = q.clone();
        let full = full_sw(&q, &t, &params());
        let banded = banded_sw(
            &q,
            &t,
            &SwParams {
                band: Some(3),
                zdrop: None,
                ..params()
            },
        );
        assert!(banded.cells < full.cells / 2);
        // Identical sequences: the optimum lies on the diagonal, so even a
        // narrow band finds it.
        assert_eq!(banded.score, full.score);
    }

    #[test]
    fn zdrop_aborts_dissimilar_pairs() {
        // A good prefix followed by garbage triggers the early exit.
        let q = seq("ACGTACGTACGTACGTCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCCC");
        let t = seq("ACGTACGTACGTACGTGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGGG");
        let r = banded_sw(
            &q,
            &t,
            &SwParams {
                band: None,
                zdrop: Some(5),
                ..params()
            },
        );
        assert!(r.zdropped);
        let nor = banded_sw(
            &q,
            &t,
            &SwParams {
                band: None,
                zdrop: None,
                ..params()
            },
        );
        assert!(r.cells < nor.cells);
        assert_eq!(r.score, nor.score); // best score was reached before the drop
    }

    #[test]
    fn batch_overcompute_at_least_one() {
        let tasks: Vec<SwTask> = (0..40)
            .map(|i| {
                let len = 20 + (i * 13) % 120;
                let codes: Vec<u8> = (0..len).map(|j| ((i + j * 3) % 4) as u8).collect();
                let q = DnaSeq::from_codes_unchecked(codes);
                SwTask {
                    target: q.clone(),
                    query: q,
                }
            })
            .collect();
        let (res, rep) = run_batch(&tasks, &params(), 16, false);
        assert_eq!(res.len(), 40);
        assert!(rep.overcompute() >= 1.0);
        assert_eq!(rep.batches, 3);
        // Sorting by length reduces over-compute.
        let (_, sorted) = run_batch(&tasks, &params(), 16, true);
        assert!(sorted.overcompute() <= rep.overcompute());
    }

    #[test]
    fn probe_counts_cell_traffic() {
        use gb_uarch::mix::MixProbe;
        let q = seq("ACGTACGTAC");
        let mut probe = MixProbe::new();
        let r = banded_sw_probed(&q, &q, &params(), &mut probe);
        assert_eq!(probe.mix().loads, 2 * r.cells);
        assert_eq!(probe.mix().stores, 2 * r.cells);
    }

    #[test]
    fn empty_inputs_are_zero() {
        let e = DnaSeq::new();
        let q = seq("ACGT");
        assert_eq!(banded_sw(&e, &q, &params()).score, 0);
        assert_eq!(banded_sw(&q, &e, &params()).cells, 0);
    }
}
