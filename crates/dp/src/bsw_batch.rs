//! Inter-sequence vectorized Smith-Waterman: the actual lockstep kernel.
//!
//! BWA-MEM2's AVX2 bsw assigns one alignment per SIMD lane and computes
//! all lanes' cell `(i, j)` in lockstep; lanes whose sequences are shorter
//! or whose Z-drop fired are masked off but still occupy their slot until
//! the whole batch retires. [`crate::bsw::run_batch`] *models* that
//! execution from scalar runs; this module *implements* it —
//! struct-of-arrays state, one loop iteration per cell position across
//! all lanes — and must produce bit-identical scores to the scalar
//! kernel, while its slot counting reproduces the Fig. 3 over-compute.

use crate::bsw::{BatchReport, SwParams, SwResult, SwTask};
use gb_uarch::probe::{NullProbe, Probe};

// Lane geometry moved to the shared engine layer; re-exported so
// existing callers keep their import path.
pub use crate::lockstep::LANES;

/// Executes up to [`LANES`] tasks in true lockstep; returns per-lane
/// results plus the slot counts.
///
/// All lanes advance through cell positions together: position `(i, j)`
/// is computed for every *active* lane before any lane moves on. A lane
/// deactivates when its matrix (or band) is exhausted or its Z-drop
/// fires; the batch runs until every lane is done.
/// The probe is told one SIMD op per vector step.
pub fn lockstep_group_probed<P: Probe>(
    tasks: &[SwTask],
    params: &SwParams,
    probe: &mut P,
) -> (Vec<SwResult>, BatchReport) {
    lockstep_group_width_probed(tasks, params, LANES, probe)
}

/// [`lockstep_group_probed`] generalized to an arbitrary vector width
/// (used by [`crate::bsw::run_batch`] to reproduce lane counts other than
/// the AVX2 default, e.g. the Fig. 3 8-lane row).
// PANIC-FREE: the asserts are documented preconditions on group width
// (config-time constants), not data-dependent paths.
pub fn lockstep_group_width_probed<P: Probe>(
    tasks: &[SwTask],
    params: &SwParams,
    lanes_width: usize,
    probe: &mut P,
) -> (Vec<SwResult>, BatchReport) {
    assert!(lanes_width > 0, "lanes must be positive");
    assert!(
        tasks.len() <= lanes_width,
        "at most {lanes_width} tasks per lockstep group"
    );
    let band = params.band.unwrap_or(usize::MAX);

    struct Lane<'a> {
        q: &'a [u8],
        t: &'a [u8],
        h: Vec<i32>,
        e: Vec<i32>,
        prev_lo: usize,
        prev_hi: usize,
        // Current row state.
        row: usize,
        lo: usize,
        hi: usize,
        col: usize,
        h_diag: i32,
        f: i32,
        row_best: i32,
        result: SwResult,
        active: bool,
    }

    let mut lanes: Vec<Lane> = tasks
        .iter()
        .map(|task| {
            let q = task.query.as_codes();
            let t = task.target.as_codes();
            let n = t.len();
            let active = !q.is_empty() && !t.is_empty();
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
                h_diag: 0,
                f: 0,
                row_best: 0,
                result: SwResult::default(),
                active,
            }
        })
        .collect();

    // Prime each lane's first row.
    for lane in lanes.iter_mut().filter(|l| l.active) {
        advance_row(lane, band, params);
    }

    let mut report = BatchReport {
        batches: 1,
        ..BatchReport::default()
    };
    loop {
        let mut any_active = false;
        for lane in lanes.iter_mut() {
            if !lane.active {
                continue;
            }
            any_active = true;
            step_cell(lane, params);
            report.scalar_cells += 1;
            if lane.col > lane.hi {
                finish_row(lane, params, band);
            }
        }
        if !any_active {
            break;
        }
        // Every vector step burns one slot per lane, active or not.
        report.vector_cells += lanes_width as u64;
        probe.simd_ops(1);
        probe.branch(true);
    }
    let results = lanes.into_iter().map(|l| l.result).collect();
    return (results, report);

    // PANIC-FREE: `h[lo - 1]` is guarded by `lo >= 1` and rows hold
    // `n + 1` slots, so the band clamp keeps every index in range.
    // xtask: hot
    fn advance_row(lane: &mut Lane, band: usize, _params: &SwParams) {
        lane.row += 1;
        let (m, n) = (lane.q.len(), lane.t.len());
        if lane.row > m {
            lane.active = false;
            return;
        }
        let center = lane.row * n / m;
        lane.lo = center.saturating_sub(band).max(1);
        lane.hi = center.saturating_add(band).min(n);
        if lane.lo > lane.hi {
            lane.active = false;
            return;
        }
        lane.h_diag = if (lane.prev_lo..=lane.prev_hi).contains(&(lane.lo - 1)) {
            lane.h[lane.lo - 1]
        } else {
            0
        };
        lane.f = 0;
        lane.row_best = 0;
        lane.col = lane.lo;
    }

    // PANIC-FREE: `j` stays within the clamped band `[lo, hi]`, and the
    // query/target reads subtract 1 from indices that start at 1.
    // xtask: hot
    fn step_cell(lane: &mut Lane, params: &SwParams) {
        let j = lane.col;
        let i = lane.row;
        let valid = j >= lane.prev_lo && j <= lane.prev_hi;
        let h_up = if valid { lane.h[j] } else { 0 };
        let e_in = if valid { lane.e[j] } else { 0 };
        let s = if lane.q[i - 1] == lane.t[j - 1] {
            params.match_score
        } else {
            -params.mismatch
        };
        let mut score = lane.h_diag + s;
        score = score.max(e_in).max(lane.f).max(0);
        lane.h_diag = h_up;
        lane.h[j] = score;
        lane.e[j] = (score - params.gap_open).max(e_in) - params.gap_extend;
        lane.f = (score - params.gap_open).max(lane.f) - params.gap_extend;
        lane.result.cells += 1;
        if score > lane.row_best {
            lane.row_best = score;
        }
        if score > lane.result.score {
            lane.result.score = score;
            lane.result.query_end = i;
            lane.result.target_end = j;
        }
        lane.col += 1;
    }

    // xtask: hot
    fn finish_row(lane: &mut Lane, params: &SwParams, band: usize) {
        lane.prev_lo = lane.lo;
        lane.prev_hi = lane.hi;
        if let Some(z) = params.zdrop {
            if lane.row_best + z < lane.result.score {
                lane.result.zdropped = true;
                lane.active = false;
                return;
            }
        }
        advance_row(lane, band, params);
    }
}

/// Runs an arbitrary task list through lockstep groups of [`LANES`],
/// optionally length-sorted first (the paper's mitigation).
pub fn run_lockstep(
    tasks: &[SwTask],
    params: &SwParams,
    sort_by_len: bool,
) -> (Vec<SwResult>, BatchReport) {
    run_lockstep_width(tasks, params, LANES, sort_by_len)
}

/// Length-sort order over task indices: the paper's mitigation assigns
/// similarly-sized alignments to the same lockstep group.
pub(crate) fn length_order(tasks: &[SwTask], sort_by_len: bool) -> Vec<usize> {
    crate::lockstep::order_by_key(tasks.len(), sort_by_len, |i| {
        tasks[i].query.len() + tasks[i].target.len()
    })
}

/// [`run_lockstep`] generalized to an arbitrary lane width.
pub fn run_lockstep_width(
    tasks: &[SwTask],
    params: &SwParams,
    lanes_width: usize,
    sort_by_len: bool,
) -> (Vec<SwResult>, BatchReport) {
    let order = length_order(tasks, sort_by_len);
    // Same gather-once idiom as `bsw_simd::run_simd_probed`: one upfront
    // batch allocation, zero allocations inside the group loop.
    let sorted: Vec<SwTask> = order.iter().map(|&i| tasks[i].clone()).collect();
    let mut results = vec![SwResult::default(); tasks.len()];
    let mut total = BatchReport::default();
    for (g, batch) in sorted.chunks(lanes_width).enumerate() {
        let (rs, rep) = lockstep_group_width_probed(batch, params, lanes_width, &mut NullProbe);
        for (&idx, r) in order[g * lanes_width..].iter().zip(rs) {
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
                // Mix of noisy copies and unrelated targets.
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

    #[test]
    fn lockstep_scores_match_scalar_exactly() {
        let ts = tasks(40, 11);
        let params = SwParams::default();
        let (results, _) = run_lockstep(&ts, &params, false);
        for (task, r) in ts.iter().zip(&results) {
            let scalar = banded_sw(&task.query, &task.target, &params);
            assert_eq!(r.score, scalar.score);
            assert_eq!(r.query_end, scalar.query_end);
            assert_eq!(r.target_end, scalar.target_end);
            assert_eq!(r.cells, scalar.cells);
            assert_eq!(r.zdropped, scalar.zdropped);
        }
    }

    #[test]
    fn lockstep_slot_count_shows_overcompute() {
        let ts = tasks(48, 13);
        let params = SwParams::default();
        let (_, rep) = run_lockstep(&ts, &params, false);
        assert!(rep.overcompute() > 1.1, "overcompute {}", rep.overcompute());
        let (_, sorted) = run_lockstep(&ts, &params, true);
        assert!(sorted.overcompute() <= rep.overcompute());
    }

    #[test]
    fn lockstep_agrees_with_the_analytic_model_on_cells() {
        // run_batch now delegates here, so the old analytic model
        // (`lanes x max-cells` per group) and the executed lockstep must
        // agree exactly: a lane computes one cell per vector step, so a
        // group runs for max-cells steps and burns lanes slots per step.
        let ts = tasks(16, 17);
        let params = SwParams {
            zdrop: None,
            ..SwParams::default()
        };
        let (model_res, model) = run_batch(&ts, &params, LANES, false);
        let (real_res, real) = run_lockstep(&ts, &params, false);
        assert_eq!(model, real);
        assert_eq!(model_res, real_res);
        // The executed slot count equals the analytic bound: the longest
        // lane's cell count times the vector width.
        let max_cells = real_res.iter().map(|r| r.cells).max().unwrap();
        assert_eq!(real.vector_cells, max_cells * LANES as u64);
    }

    #[test]
    fn empty_and_partial_groups() {
        let params = SwParams::default();
        let (r, rep) = run_lockstep(&[], &params, false);
        assert!(r.is_empty());
        assert_eq!(rep.scalar_cells, 0);
        let one = tasks(1, 19);
        let (r, rep) = run_lockstep(&one, &params, false);
        assert_eq!(r.len(), 1);
        // A single lane still burns all LANES slots per step.
        assert_eq!(rep.vector_cells, rep.scalar_cells * LANES as u64);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn oversized_group_panics() {
        let ts = tasks(17, 23);
        let _ = lockstep_group_probed(&ts, &SwParams::default(), &mut NullProbe);
    }
}
