//! Smith-Waterman traceback: recovering the alignment path as a CIGAR.
//!
//! The bsw *kernel* only needs scores (BWA-MEM extends seeds and keeps
//! the best end-points), but the surrounding tools emit alignments, so a
//! full affine-gap traceback belongs in the library. This variant stores
//! per-cell direction flags (the ksw approach) and walks them back from
//! the best cell.

use crate::bsw::{SwParams, SwResult};
use gb_core::cigar::{Cigar, CigarOp};
use gb_core::seq::DnaSeq;

/// An alignment with its path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SwAlignment {
    /// Score and end-points (as from the scoring-only kernel).
    pub result: SwResult,
    /// 0-based inclusive start of the alignment on the query.
    pub query_start: usize,
    /// 0-based inclusive start on the target.
    pub target_start: usize,
    /// The alignment path (M/I/D; I consumes query, D consumes target).
    pub cigar: Cigar,
}

// Direction flags per cell.
const H_STOP: u8 = 0;
const H_DIAG: u8 = 1;
const H_FROM_E: u8 = 2;
const H_FROM_F: u8 = 3;
const E_OPEN: u8 = 4; // E[i][j] opened from H[i-1][j] (vs extended)
const F_OPEN: u8 = 8; // F[i][j] opened from H[i][j-1]

/// Local alignment with full traceback (full matrix — use for bounded
/// sequence lengths; memory is `O(m*n)` bytes).
///
/// # Examples
///
/// ```
/// use gb_core::seq::DnaSeq;
/// use gb_dp::bsw::SwParams;
/// use gb_dp::traceback::sw_align;
/// let q: DnaSeq = "ACGTACGT".parse()?;
/// let t: DnaSeq = "TTACGTACGTTT".parse()?;
/// let a = sw_align(&q, &t, &SwParams::default());
/// assert_eq!(a.cigar.to_string(), "8M");
/// assert_eq!(a.target_start, 2);
/// # Ok::<(), gb_core::error::Error>(())
/// ```
pub fn sw_align(query: &DnaSeq, target: &DnaSeq, params: &SwParams) -> SwAlignment {
    let q = query.as_codes();
    let t = target.as_codes();
    let (m, n) = (q.len(), t.len());
    if m == 0 || n == 0 {
        return SwAlignment {
            result: SwResult::default(),
            query_start: 0,
            target_start: 0,
            cigar: Cigar::new(),
        };
    }
    let neg = i32::MIN / 4;
    let mut h_prev = vec![0i32; n + 1];
    let mut e_prev = vec![neg; n + 1];
    let mut flags = vec![0u8; (m + 1) * (n + 1)];
    let mut best = SwResult::default();

    for i in 1..=m {
        let mut h_cur = vec![0i32; n + 1];
        let mut e_cur = vec![neg; n + 1];
        let mut f = neg;
        for j in 1..=n {
            let idx = i * (n + 1) + j;
            // E: vertical gap (consumes query).
            let e_open = h_prev[j] - params.gap_open;
            let e_ext = e_prev[j];
            let e = e_open.max(e_ext) - params.gap_extend;
            if e_open >= e_ext {
                flags[idx] |= E_OPEN;
            }
            e_cur[j] = e;
            // F: horizontal gap (consumes target).
            let f_open = h_cur[j - 1] - params.gap_open;
            let f_ext = f;
            let fv = f_open.max(f_ext) - params.gap_extend;
            if f_open >= f_ext {
                flags[idx] |= F_OPEN;
            }
            f = fv;
            // H.
            let s = if q[i - 1] == t[j - 1] {
                params.match_score
            } else {
                -params.mismatch
            };
            let diag = h_prev[j - 1] + s;
            let (mut hv, mut dir) = (0i32, H_STOP);
            if diag > hv {
                hv = diag;
                dir = H_DIAG;
            }
            if e > hv {
                hv = e;
                dir = H_FROM_E;
            }
            if fv > hv {
                hv = fv;
                dir = H_FROM_F;
            }
            flags[idx] |= dir;
            h_cur[j] = hv;
            if hv > best.score {
                best.score = hv;
                best.query_end = i;
                best.target_end = j;
            }
        }
        h_prev = h_cur;
        e_prev = e_cur;
        best.cells += n as u64;
    }

    // Walk back from the best cell.
    #[derive(PartialEq, Clone, Copy)]
    enum State {
        H,
        E,
        F,
    }
    let mut steps: Vec<CigarOp> = Vec::new();
    let (mut i, mut j) = (best.query_end, best.target_end);
    let mut state = State::H;
    while i > 0 && j > 0 {
        let flag = flags[i * (n + 1) + j];
        match state {
            State::H => match flag & 3 {
                H_DIAG => {
                    steps.push(CigarOp::Match);
                    i -= 1;
                    j -= 1;
                }
                H_FROM_E => state = State::E,
                H_FROM_F => state = State::F,
                _ => break, // H_STOP: local alignment start
            },
            State::E => {
                steps.push(CigarOp::Ins);
                let opened = flag & E_OPEN != 0;
                i -= 1;
                if opened {
                    state = State::H;
                }
            }
            State::F => {
                steps.push(CigarOp::Del);
                let opened = flag & F_OPEN != 0;
                j -= 1;
                if opened {
                    state = State::H;
                }
            }
        }
    }
    steps.reverse();
    let mut cigar = Cigar::new();
    for op in steps {
        cigar.push(1, op);
    }
    SwAlignment {
        result: best,
        query_start: i,
        target_start: j,
        cigar,
    }
}

/// Recomputes the alignment score implied by a traceback — the invariant
/// `rescore(sw_align(..)) == banded_sw(..).score` that tests rely on.
///
/// # Panics
///
/// Panics if the CIGAR walks outside either sequence.
pub fn rescore(query: &DnaSeq, target: &DnaSeq, a: &SwAlignment, params: &SwParams) -> i32 {
    let mut score = 0i32;
    let (mut qi, mut ti) = (a.query_start, a.target_start);
    let mut prev: Option<CigarOp> = None;
    for &(len, op) in a.cigar.ops() {
        for _ in 0..len {
            match op {
                CigarOp::Match => {
                    score += if query.code_at(qi) == target.code_at(ti) {
                        params.match_score
                    } else {
                        -params.mismatch
                    };
                    qi += 1;
                    ti += 1;
                }
                CigarOp::Ins => {
                    score -= if prev == Some(CigarOp::Ins) {
                        params.gap_extend
                    } else {
                        params.gap_open + params.gap_extend
                    };
                    qi += 1;
                }
                CigarOp::Del => {
                    score -= if prev == Some(CigarOp::Del) {
                        params.gap_extend
                    } else {
                        params.gap_open + params.gap_extend
                    };
                    ti += 1;
                }
                CigarOp::SoftClip => qi += 1,
            }
            prev = Some(op);
        }
    }
    score
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsw::full_sw;
    use gb_core::rng::Rng;

    fn params() -> SwParams {
        SwParams {
            band: None,
            zdrop: None,
            ..SwParams::default()
        }
    }

    fn seq(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    #[test]
    fn identity_alignment() {
        let q = seq("ACGGTTACA");
        let a = sw_align(&q, &q, &params());
        assert_eq!(a.cigar.to_string(), "9M");
        assert_eq!(a.query_start, 0);
        assert_eq!(a.result.score, 9);
    }

    #[test]
    fn deletion_recovered() {
        let mut rng = Rng::seed_from_u64(3);
        let t: DnaSeq = (0..40).map(|_| rng.gen_range(0..4u8)).collect();
        let mut q_codes = t.as_codes().to_vec();
        q_codes.drain(18..21);
        let q = DnaSeq::from_codes_unchecked(q_codes);
        let a = sw_align(&q, &t, &params());
        assert_eq!(a.cigar.to_string(), "18M3D19M");
        assert_eq!(rescore(&q, &t, &a, &params()), a.result.score);
    }

    #[test]
    fn insertion_recovered() {
        let mut rng = Rng::seed_from_u64(9);
        let t: DnaSeq = (0..40).map(|_| rng.gen_range(0..4u8)).collect();
        let mut q_codes = t.as_codes().to_vec();
        q_codes.insert(20, (q_codes[20] + 1) % 4);
        q_codes.insert(20, (q_codes[19] + 2) % 4);
        let q = DnaSeq::from_codes_unchecked(q_codes);
        let a = sw_align(&q, &t, &params());
        assert!(a.cigar.to_string().contains("2I"), "cigar {}", a.cigar);
        assert_eq!(rescore(&q, &t, &a, &params()), a.result.score);
    }

    #[test]
    fn score_matches_scoring_only_kernel() {
        let mut rng = Rng::seed_from_u64(17);
        for _case in 0..20 {
            let qlen = rng.gen_range(30..70usize);
            let q: DnaSeq = (0..qlen).map(|_| rng.gen_range(0..4u8)).collect();
            let tlen = rng.gen_range(30..80usize);
            let t: DnaSeq = (0..tlen).map(|_| rng.gen_range(0..4u8)).collect();
            let a = sw_align(&q, &t, &params());
            assert_eq!(a.result.score, full_sw(&q, &t, &params()).score);
            assert_eq!(
                rescore(&q, &t, &a, &params()),
                a.result.score,
                "q={q} t={t}"
            );
        }
    }

    #[test]
    fn cigar_spans_match_endpoints() {
        let q = seq("ACGTACGGTTAC");
        let t = seq("GGACGTACGTTACGG");
        let a = sw_align(&q, &t, &params());
        assert_eq!(a.query_start + a.cigar.query_len(), a.result.query_end);
        assert_eq!(a.target_start + a.cigar.ref_len(), a.result.target_end);
    }

    #[test]
    fn empty_inputs() {
        let a = sw_align(&DnaSeq::new(), &seq("ACGT"), &params());
        assert!(a.cigar.is_empty());
        assert_eq!(a.result.score, 0);
    }
}
