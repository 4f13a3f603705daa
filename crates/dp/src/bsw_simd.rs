//! i16 struct-of-arrays SIMD engine for inter-sequence banded SW.
//!
//! This is the executed counterpart of BWA-MEM2's 16-bit AVX2 bsw: one
//! alignment per lane, all lanes' current cells computed per vector step
//! over contiguous `[i16; LANES]` lane arrays. The hot loop is written so
//! LLVM autovectorizes it on stable Rust (fixed-width arrays, saturating
//! i16 ops, no branches); per-lane gather/scatter and the rare
//! bookkeeping branches (best-score improvement, row turnover, lane
//! retirement) stay scalar.
//!
//! **Precision ladder** (BWA-MEM2's 8/16/32-bit laddering, top two rungs):
//! a lane whose H score reaches [`RETIRE_LIMIT`] is retired from the
//! vector and re-run from scratch with the exact i32 scalar kernel
//! ([`banded_sw`]); parameter sets that don't fit i16 at all
//! ([`params_fit_i16`]) drop the whole group to the i32 lockstep engine.
//!
//! **Bit-identity.** With all scoring parameters in `[0, MAX_I16_PARAM]`:
//! every stored H is `< RETIRE_LIMIT` (larger values retire before the
//! store), so `h_diag + s <= 24574 + 8192 < i16::MAX` never saturates;
//! and E/F are bounded below by `-(gap_open + gap_extend) >= -16384`
//! because each update takes `max(score - open, prev) - extend` with
//! `score >= 0`. Every intermediate therefore stays exactly representable
//! in i16, and the engine's scores, end positions, Z-drop decisions and
//! cell counts are bit-identical to [`banded_sw`].

use crate::bsw::{banded_sw_probed, BatchReport, SwParams, SwResult, SwTask};
use crate::bsw_batch::{self, length_order, LANES};
use gb_uarch::probe::{NullProbe, Probe};

// The ladder constants moved to the shared engine layer when spoa joined
// the i16 lockstep framework; re-exported so existing callers keep their
// import path.
pub use crate::lockstep::{MAX_I16_PARAM, RETIRE_LIMIT};

/// Whether a parameter set is eligible for the i16 engine. All four
/// scoring magnitudes must be in `[0, MAX_I16_PARAM]`; anything else
/// (including the negative values the type allows) runs on the i32
/// lockstep engine instead.
pub fn params_fit_i16(params: &SwParams) -> bool {
    crate::lockstep::fits_i16(&[
        params.match_score,
        params.mismatch,
        params.gap_open,
        params.gap_extend,
    ])
}

/// The branchless vector core: one cell update for all [`LANES`] lanes.
/// Inactive lanes have quiesced inputs (zeros) and compute a harmless 0.
/// Saturating ops map to `paddsw`/`psubsw`/`pmaxsw`; they never actually
/// saturate under the invariants above, so results stay exact.
#[inline(always)]
// The parameter list mirrors the kernel's SIMD register set; bundling
// them into a struct defeats the per-array aliasing analysis.
#[allow(clippy::too_many_arguments)]
// PANIC-FREE: all lane and column indices are bounded by `LANES` and the
// padded row length fixed at group setup.
// xtask: hot
fn step_vector(
    h_diag: &mut [i16; LANES],
    f_gap: &mut [i16; LANES],
    row_best: &mut [i16; LANES],
    sv: &[i16; LANES],
    h_up: &[i16; LANES],
    e_in: &[i16; LANES],
    score: &mut [i16; LANES],
    e_out: &mut [i16; LANES],
    qo: i16,
    qe: i16,
) -> bool {
    let mut hot = 0i16;
    for l in 0..LANES {
        let sc = h_diag[l]
            .saturating_add(sv[l])
            .max(e_in[l])
            .max(f_gap[l])
            .max(0);
        let open = sc.saturating_sub(qo);
        score[l] = sc;
        e_out[l] = open.max(e_in[l]).saturating_sub(qe);
        f_gap[l] = open.max(f_gap[l]).saturating_sub(qe);
        h_diag[l] = h_up[l];
        row_best[l] = row_best[l].max(sc);
        hot |= (sc >= RETIRE_LIMIT) as i16;
    }
    hot != 0
}

/// Executes up to [`LANES`] tasks on the i16 SoA engine; returns per-lane
/// results (bit-identical to [`crate::bsw::banded_sw`]) plus slot counts.
/// The probe is told one SIMD op (and one lockstep branch) per vector
/// step, matching the i32 lockstep engine's accounting; retired lanes
/// replay their scalar cell traffic.
// PANIC-FREE: the assert is the documented group-width precondition;
// row/lane indices are bounded by the padded lengths fixed at setup.
pub fn simd_group_probed<P: Probe>(
    tasks: &[SwTask],
    params: &SwParams,
    probe: &mut P,
) -> (Vec<SwResult>, BatchReport) {
    assert!(tasks.len() <= LANES, "at most {LANES} tasks per SIMD group");
    if !params_fit_i16(params) {
        // Ladder top: out-of-range parameters run the exact i32 lockstep.
        return bsw_batch::lockstep_group_probed(tasks, params, probe);
    }
    let band = params.band.unwrap_or(usize::MAX);
    let ms = params.match_score as i16;
    let neg_mm = -(params.mismatch as i16);
    let qo = params.gap_open as i16;
    let qe = params.gap_extend as i16;

    struct Lane<'a> {
        q: &'a [u8],
        t: &'a [u8],
        h: Vec<i16>,
        e: Vec<i16>,
        prev_lo: usize,
        prev_hi: usize,
        row: usize,
        lo: usize,
        hi: usize,
        col: usize,
        /// `q[row - 1]`, cached at row turnover.
        qc: u8,
        result: SwResult,
    }

    let nlanes = tasks.len();
    let mut lanes: Vec<Lane> = tasks
        .iter()
        .map(|task| {
            let q = task.query.as_codes();
            let t = task.target.as_codes();
            let n = t.len();
            Lane {
                q,
                t,
                h: vec![0; n + 1],
                e: vec![0; n + 1],
                prev_lo: 0,
                prev_hi: n,
                row: 0,
                lo: 1,
                hi: 0,
                col: 1,
                qc: 0,
                result: SwResult::default(),
            }
        })
        .collect();

    // SoA hot state; slots past `nlanes` stay quiesced (zero) forever.
    let mut h_diag = [0i16; LANES];
    let mut f_gap = [0i16; LANES];
    let mut row_best = [0i16; LANES];
    let mut best = [0i16; LANES];
    let mut sv = [0i16; LANES];
    let mut h_up = [0i16; LANES];
    let mut e_in = [0i16; LANES];
    let mut score = [0i16; LANES];
    let mut e_out = [0i16; LANES];
    let mut active = [false; LANES];
    let mut retired = [false; LANES];

    // Quiesces a lane's vector slots so it computes a harmless 0 — and
    // can never false-trigger retirement — on every later step.
    macro_rules! quiesce {
        ($l:expr) => {{
            let l = $l;
            active[l] = false;
            h_diag[l] = 0;
            f_gap[l] = 0;
            sv[l] = 0;
            h_up[l] = 0;
            e_in[l] = 0;
        }};
    }

    /// Moves a lane to its next row: band limits, stale-cell zeroing (the
    /// per-cell `in_prev` check of the scalar kernel, hoisted to row
    /// turnover), diagonal seed and cached query base. Returns the new
    /// `h_diag`, or `None` when the lane is exhausted.
    #[inline]
    // PANIC-FREE: band clamps keep `lo >= 1` and `hi <= n` against rows
    // allocated with `n + 1` slots.
    // xtask: hot
    fn advance_row(lane: &mut Lane, band: usize) -> Option<i16> {
        lane.row += 1;
        let (m, n) = (lane.q.len(), lane.t.len());
        if lane.row > m {
            return None;
        }
        let center = lane.row * n / m;
        lane.lo = center.saturating_sub(band).max(1);
        lane.hi = center.saturating_add(band).min(n);
        if lane.lo > lane.hi {
            return None;
        }
        // Cells of this row's band not covered by the previous row's band
        // are stale: zero them once here instead of branching per cell.
        for j in lane.lo..lane.prev_lo.min(lane.hi + 1) {
            lane.h[j] = 0;
            lane.e[j] = 0;
        }
        for j in (lane.prev_hi + 1).max(lane.lo)..=lane.hi {
            lane.h[j] = 0;
            lane.e[j] = 0;
        }
        let h_diag = if (lane.prev_lo..=lane.prev_hi).contains(&(lane.lo - 1)) {
            lane.h[lane.lo - 1]
        } else {
            0
        };
        lane.qc = lane.q[lane.row - 1];
        lane.col = lane.lo;
        Some(h_diag)
    }

    // Prime each non-empty lane's first row.
    for l in 0..nlanes {
        let lane = &mut lanes[l];
        if lane.q.is_empty() || lane.t.is_empty() {
            continue;
        }
        if let Some(hd) = advance_row(lane, band) {
            h_diag[l] = hd;
            active[l] = true;
        }
    }

    let mut retired_count = 0u64;
    loop {
        // Gather: per-lane loads into the lane arrays.
        let mut any_active = false;
        for l in 0..nlanes {
            if !active[l] {
                continue;
            }
            any_active = true;
            let lane = &lanes[l];
            let j = lane.col;
            sv[l] = if lane.t[j - 1] == lane.qc { ms } else { neg_mm };
            h_up[l] = lane.h[j];
            e_in[l] = lane.e[j];
        }
        if !any_active {
            break;
        }

        let any_hot = step_vector(
            &mut h_diag,
            &mut f_gap,
            &mut row_best,
            &sv,
            &h_up,
            &e_in,
            &mut score,
            &mut e_out,
            qo,
            qe,
        );
        probe.simd_ops(1);
        probe.branch(true);

        if any_hot {
            // Rare: retire overflowing lanes to the i32 ladder.
            for l in 0..nlanes {
                if active[l] && score[l] >= RETIRE_LIMIT {
                    quiesce!(l);
                    retired[l] = true;
                    retired_count += 1;
                }
            }
        }

        // Scatter + bookkeeping.
        for l in 0..nlanes {
            if !active[l] {
                continue;
            }
            let lane = &mut lanes[l];
            let j = lane.col;
            let sc = score[l];
            lane.h[j] = sc;
            lane.e[j] = e_out[l];
            lane.result.cells += 1;
            if sc > best[l] {
                best[l] = sc;
                lane.result.score = sc as i32;
                lane.result.query_end = lane.row;
                lane.result.target_end = j;
            }
            lane.col = j + 1;
            if lane.col > lane.hi {
                // Row turnover: Z-drop check, then advance.
                lane.prev_lo = lane.lo;
                lane.prev_hi = lane.hi;
                let dropped = match params.zdrop {
                    Some(z) => (row_best[l] as i32) + z < lane.result.score,
                    None => false,
                };
                if dropped {
                    lane.result.zdropped = true;
                    quiesce!(l);
                } else {
                    match advance_row(lane, band) {
                        Some(hd) => {
                            h_diag[l] = hd;
                            f_gap[l] = 0;
                            row_best[l] = 0;
                        }
                        None => quiesce!(l),
                    }
                }
            }
        }
    }

    // Precision ladder: retired lanes re-run from scratch on the exact
    // i32 scalar kernel (their partial i16 state is discarded).
    for l in 0..nlanes {
        if retired[l] {
            lanes[l].result = banded_sw_probed(&tasks[l].query, &tasks[l].target, params, probe);
        }
    }

    // Slot accounting, computed analytically from final cell counts: a
    // lane occupies one slot per vector step and runs for exactly its
    // cell count, so a group burns `LANES x max-cells` slots — the same
    // bound the i32 lockstep engine counts by execution.
    let results: Vec<SwResult> = lanes.into_iter().map(|l| l.result).collect();
    let scalar_cells: u64 = results.iter().map(|r| r.cells).sum();
    let max_cells = results.iter().map(|r| r.cells).max().unwrap_or(0);
    let report = BatchReport {
        scalar_cells,
        vector_cells: LANES as u64 * max_cells,
        batches: 1,
        retired_lanes: retired_count,
    };
    (results, report)
}

/// Runs an arbitrary task list through i16 SIMD groups of [`LANES`],
/// optionally length-sorted first (the paper's dead-slot mitigation).
pub fn run_simd(
    tasks: &[SwTask],
    params: &SwParams,
    sort_by_len: bool,
) -> (Vec<SwResult>, BatchReport) {
    run_simd_probed(tasks, params, sort_by_len, &mut NullProbe)
}

/// [`run_simd`] with instrumentation.
pub fn run_simd_probed<P: Probe>(
    tasks: &[SwTask],
    params: &SwParams,
    sort_by_len: bool,
    probe: &mut P,
) -> (Vec<SwResult>, BatchReport) {
    let order = length_order(tasks, sort_by_len);
    // Gather the issue-ordered batch once, up front: the group loop then
    // slices it directly instead of re-cloning LANES tasks per group.
    let sorted: Vec<SwTask> = order.iter().map(|&i| tasks[i].clone()).collect();
    let mut results = vec![SwResult::default(); tasks.len()];
    let mut total = BatchReport::default();
    for (g, batch) in sorted.chunks(LANES).enumerate() {
        let (rs, rep) = simd_group_probed(batch, params, probe);
        for (&idx, r) in order[g * LANES..].iter().zip(rs) {
            results[idx] = r;
        }
        total.merge(&rep);
    }
    (results, total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bsw::{banded_sw, run_batch};
    use gb_core::rng::Rng;
    use gb_core::seq::DnaSeq;

    fn tasks(n: usize, seed: u64) -> Vec<SwTask> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let qlen = rng.gen_range(20..170usize);
                let q: Vec<u8> = (0..qlen).map(|_| rng.gen_range(0..4u8)).collect();
                let t: Vec<u8> = if rng.gen_range(0..10) < 8 {
                    q.iter()
                        .map(|&c| (c + u8::from(rng.gen_range(0..100) < 2)) % 4)
                        .collect()
                } else {
                    let tlen = rng.gen_range(20..170usize);
                    (0..tlen).map(|_| rng.gen_range(0..4u8)).collect()
                };
                SwTask {
                    query: DnaSeq::from_codes_unchecked(q),
                    target: DnaSeq::from_codes_unchecked(t),
                }
            })
            .collect()
    }

    fn assert_identical(ts: &[SwTask], params: &SwParams, got: &[SwResult]) {
        for (task, r) in ts.iter().zip(got) {
            let scalar = banded_sw(&task.query, &task.target, params);
            assert_eq!(*r, scalar);
        }
    }

    #[test]
    fn simd_is_bit_identical_to_scalar() {
        let ts = tasks(48, 29);
        let params = SwParams::default();
        for sort in [false, true] {
            let (results, _) = run_simd(&ts, &params, sort);
            assert_identical(&ts, &params, &results);
        }
    }

    #[test]
    fn simd_report_matches_lockstep_reference() {
        let ts = tasks(48, 31);
        let params = SwParams::default();
        let (_, simd) = run_simd(&ts, &params, false);
        let (_, reference) = run_batch(&ts, &params, LANES, false);
        assert_eq!(simd.scalar_cells, reference.scalar_cells);
        assert_eq!(simd.vector_cells, reference.vector_cells);
        assert_eq!(simd.batches, reference.batches);
        assert_eq!(simd.retired_lanes, 0);
    }

    #[test]
    fn sorting_reduces_dead_slots() {
        let ts = tasks(64, 37);
        let params = SwParams::default();
        let (_, unsorted) = run_simd(&ts, &params, false);
        let (_, sorted) = run_simd(&ts, &params, true);
        assert!(sorted.dead_slot_fraction() <= unsorted.dead_slot_fraction());
    }

    #[test]
    fn overflow_retires_to_i32_ladder() {
        // A long self-alignment with a huge match score crosses
        // RETIRE_LIMIT quickly; the laddered result must still be exact.
        let len = 400usize;
        let codes: Vec<u8> = (0..len).map(|i| (i % 4) as u8).collect();
        let q = DnaSeq::from_codes_unchecked(codes);
        let ts = vec![SwTask {
            query: q.clone(),
            target: q,
        }];
        let params = SwParams {
            match_score: 100,
            band: None,
            zdrop: None,
            ..SwParams::default()
        };
        assert!(params_fit_i16(&params));
        let (results, rep) = run_simd(&ts, &params, false);
        assert_eq!(rep.retired_lanes, 1);
        assert_eq!(results[0].score, 100 * len as i32);
        assert_identical(&ts, &params, &results);
    }

    #[test]
    fn oversized_params_fall_back_to_i32_lockstep() {
        let ts = tasks(20, 41);
        let params = SwParams {
            match_score: 50_000,
            ..SwParams::default()
        };
        assert!(!params_fit_i16(&params));
        let (results, rep) = run_simd(&ts, &params, false);
        assert_identical(&ts, &params, &results);
        assert_eq!(rep.retired_lanes, 0);
    }

    #[test]
    fn empty_and_partial_groups() {
        let params = SwParams::default();
        let (r, rep) = run_simd(&[], &params, false);
        assert!(r.is_empty());
        assert_eq!(rep, BatchReport::default());
        let mut one = tasks(1, 43);
        one.push(SwTask {
            query: DnaSeq::new(),
            target: DnaSeq::new(),
        });
        let (r, rep) = run_simd(&one, &params, false);
        assert_eq!(r.len(), 2);
        assert_eq!(r[1], SwResult::default());
        assert_eq!(rep.vector_cells, r[0].cells * LANES as u64);
    }
}
