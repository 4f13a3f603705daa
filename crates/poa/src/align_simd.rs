//! The i16 row-sweep SIMD engine for sequence-to-graph alignment —
//! spoa's port onto the `gb_dp::lockstep` engine layer.
//!
//! The scalar aligner ([`crate::align::align_to_graph`]) walks the
//! `(graph rows) x (read positions)` matrix cell by cell, scanning each
//! cell's graph predecessors inline. The data dependency between rows is
//! graph-shaped, so unlike `bsw` the kernel cannot batch *independent*
//! alignments into lockstep lanes without per-cell gathers across lanes
//! whose predecessor rows differ (which benchmarks slower than scalar).
//! Instead this engine vectorizes *within* one alignment, over the read
//! dimension `j` — the same choice production SPOA makes with its SSE/AVX
//! row kernels:
//!
//! - the per-cell predecessor scan is restructured into full-row passes
//!   (one fused diagonal + vertical max sweep per predecessor), each a
//!   branchless unit-stride i16 sweep LLVM autovectorizes; the fill is
//!   *value-only* — no trace matrices — because the traceback can replay
//!   the scalar candidate scan against stored values (the scan's winner
//!   is always the first candidate attaining the cell's final value);
//! - the row is finished by the inherently sequential left-gap scan;
//! - scores are narrowed to saturating i16 under the lockstep precision
//!   ladder ([`gb_dp::lockstep::MAX_I16_PARAM`] bounds the per-update
//!   movement, a per-row watch against
//!   [`gb_dp::lockstep::RETIRE_LIMIT`] fires *before* any wraparound),
//!   and an alignment whose watch fires is retired wholesale to the exact
//!   i32 scalar engine.
//!
//! **Bit-identity.** For every cell the candidate comparison order is
//! exactly the scalar engine's (`pred1`-diag, `pred1`-up, `pred2`-diag,
//! …, left; all strict `>`), the first diagonal candidate always beats
//! the initialization sentinel on both engines, and all i16 arithmetic is
//! exact below the retire watch — so scores, traceback steps and cell
//! counts are identical to the scalar engine on every input (enforced by
//! `tests/poa_engines_diff.rs`).

use crate::align::{align_to_graph_probed, AlignStep, GraphAlignment, PoaParams};
use crate::graph::PoaGraph;
use gb_core::seq::DnaSeq;
use gb_dp::lockstep::{fits_i16, BatchReport, LANES, RETIRE_LIMIT};
use gb_dp::DpEngine;
use gb_uarch::probe::{addr_of, NullProbe, Probe};

/// Aligns `seq` to `graph` on the requested engine. The [`BatchReport`]
/// carries the SIMD engine's slot accounting (row padding waste and
/// ladder retirements); the scalar engine returns an empty report.
pub fn align_to_graph_engine_probed<P: Probe>(
    graph: &PoaGraph,
    seq: &DnaSeq,
    params: &PoaParams,
    engine: DpEngine,
    probe: &mut P,
) -> (GraphAlignment, BatchReport) {
    match engine {
        DpEngine::Scalar => (
            align_to_graph_probed(graph, seq, params, probe),
            BatchReport::default(),
        ),
        DpEngine::Simd => align_to_graph_simd_probed(graph, seq, params, probe),
    }
}

/// The i16 row-sweep SIMD aligner: bit-identical to
/// [`crate::align::align_to_graph`], retiring to it when the precision
/// ladder fires.
///
/// # Panics
///
/// Panics if the graph is empty or the sequence is empty (as the scalar
/// engine does).
pub fn align_to_graph_simd(
    graph: &PoaGraph,
    seq: &DnaSeq,
    params: &PoaParams,
) -> (GraphAlignment, BatchReport) {
    align_to_graph_simd_probed(graph, seq, params, &mut NullProbe)
}

/// [`align_to_graph_simd`] with instrumentation (per-row vector-op and
/// row-traffic records, matching the lockstep engines' convention).
// PANIC-FREE: the emptiness asserts are the documented API contract
// (same as the scalar engine).
pub fn align_to_graph_simd_probed<P: Probe>(
    graph: &PoaGraph,
    seq: &DnaSeq,
    params: &PoaParams,
    probe: &mut P,
) -> (GraphAlignment, BatchReport) {
    assert!(!graph.is_empty(), "cannot align to an empty graph");
    assert!(!seq.is_empty(), "cannot align an empty sequence");
    let n = seq.len();
    let v = graph.topo_order().len();
    let lane_cols = n.div_ceil(LANES) * LANES;

    // Whole-alignment i32 fallback: parameters outside the ladder
    // contract, or a leading-gap row that is born past the watch.
    if !fits_i16(&[params.match_score, params.mismatch, params.gap])
        || (n as i32) * params.gap >= i32::from(RETIRE_LIMIT)
    {
        let r = align_to_graph_probed(graph, seq, params, probe);
        let report = BatchReport {
            scalar_cells: r.cells,
            vector_cells: r.cells,
            batches: 1,
            retired_lanes: 1,
        };
        return (r, report);
    }

    match align_i16(graph, seq, params, probe) {
        Some(r) => {
            let report = BatchReport {
                scalar_cells: r.cells,
                vector_cells: (v * lane_cols) as u64,
                batches: 1,
                retired_lanes: 0,
            };
            (r, report)
        }
        None => {
            // Watch fired: retire the whole alignment to the exact i32
            // engine. The vector slots spent before abandoning are
            // charged to the report.
            let r = align_to_graph_probed(graph, seq, params, probe);
            let report = BatchReport {
                scalar_cells: r.cells,
                vector_cells: (v * lane_cols) as u64,
                batches: 1,
                retired_lanes: 1,
            };
            (r, report)
        }
    }
}

/// The i16 matrix fill + traceback. Returns `None` when the retire watch
/// fires (a stored magnitude reached [`RETIRE_LIMIT`]).
// PANIC-FREE: row/lane indices are bounded by `lane_cols` (a multiple of
// LANES covering `n`) and `rank_of` rows `<= v`, as in the scalar engine.
fn align_i16<P: Probe>(
    graph: &PoaGraph,
    seq: &DnaSeq,
    params: &PoaParams,
    probe: &mut P,
) -> Option<GraphAlignment> {
    let order = graph.topo_order();
    let n = seq.len();
    let v = order.len();
    let s = seq.as_codes();

    let mut rank_of = vec![0usize; graph.num_nodes()];
    for (r, &id) in order.iter().enumerate() {
        rank_of[id] = r + 1;
    }

    let width = n + 1;
    let m16 = params.match_score as i16;
    let neg_mm16 = -(params.mismatch as i16);
    let g16 = params.gap as i16;

    // Value-only fill: no trace arrays. The scalar scan's winner is
    // always the *first* candidate (in scan order) that attains the
    // cell's final value — every earlier candidate is strictly smaller —
    // so the traceback below re-derives each visited cell's move by
    // replaying the candidate scan against stored values. That keeps the
    // row passes pure i16 max sweeps (2 bytes/cell of write traffic per
    // predecessor instead of value + pred + kind) and drops two
    // matrix-sized allocations.
    let mut h = vec![0i16; (v + 1) * width];

    // Virtual start row: leading insertions. `n * gap` is below the
    // watch (pre-checked by the caller), so these fit exactly.
    for (j, cell) in h[..width].iter_mut().enumerate() {
        *cell = -((j as i32) * params.gap) as i16;
    }

    let lane_steps = (n.div_ceil(LANES)) as u64;
    let mut pred_rows: Vec<usize> = Vec::new();
    // Per-row substitution scores, hoisted out of the predecessor passes
    // so those are pure i16 sweeps (the u8 base compare would otherwise
    // keep LLVM from emitting `paddsw`/`psubsw`/`pmaxsw` for them).
    let mut sub_row = vec![0i16; n];
    // Decay ramp for the left-gap carry pass: ramp[l] = (l + 1) * gap.
    // Entries actually read satisfy l + 1 <= min(LANES, n), so they are
    // exact (`n * gap < RETIRE_LIMIT`); the clamp only touches unread
    // tail entries when `n < LANES`.
    let ramp: Vec<i16> = (0..LANES)
        .map(|l| ((l as i32 + 1) * params.gap).min(i32::from(i16::MAX)) as i16)
        .collect();
    for (r0, &id) in order.iter().enumerate() {
        let row = r0 + 1;
        let node = graph.node(id);
        let base = node.base;
        pred_rows.clear();
        if node.in_edges.is_empty() {
            pred_rows.push(0);
        } else {
            pred_rows.extend(node.in_edges.iter().map(|&(p, _)| rank_of[p]));
        }
        for (sb, &code) in sub_row.iter_mut().zip(s.iter()) {
            *sb = if base == code { m16 } else { neg_mm16 };
        }

        let (done, cur_all) = h.split_at_mut(row * width);
        let cur = &mut cur_all[..width];

        // Column 0: graph-only path. The first candidate always beats the
        // sentinel (every stored value is above the watch floor), exactly
        // as the scalar engine's first compare against `i32::MIN / 4`.
        let mut best0 = i16::MIN;
        for &pr in &pred_rows {
            let cand = done[pr * width].saturating_sub(g16);
            if cand > best0 {
                best0 = cand;
            }
        }
        cur[0] = best0;

        // Row passes — one fused max sweep per predecessor. Values only:
        // max is order-insensitive, and the traceback recovers the scalar
        // scan's winner (pred[0] diag, pred[0] up, pred[1] diag, …, left)
        // as the first candidate equal to the stored value. The first
        // diagonal seeds the row unconditionally — on both engines it
        // always beats the initialization sentinel.
        let p0 = pred_rows[0];
        let p0_row = &done[p0 * width..p0 * width + width];
        probe.load(addr_of(&p0_row[0]), 2);
        for (((c, &a), &b), &sb) in cur[1..=n]
            .iter_mut()
            .zip(p0_row[..n].iter())
            .zip(p0_row[1..=n].iter())
            .zip(sub_row.iter())
        {
            *c = a.saturating_add(sb).max(b.saturating_sub(g16));
        }
        for &pr in &pred_rows[1..] {
            let pr_row = &done[pr * width..pr * width + width];
            probe.load(addr_of(&pr_row[0]), 2);
            for (((c, &a), &b), &sb) in cur[1..=n]
                .iter_mut()
                .zip(pr_row[..n].iter())
                .zip(pr_row[1..=n].iter())
                .zip(sub_row.iter())
            {
                *c = (*c).max(a.saturating_add(sb)).max(b.saturating_sub(g16));
            }
        }
        probe.simd_ops(pred_rows.len() as u64 * lane_steps);

        // Left-gap propagation: f[j] = max(b[j], f[j-1] - gap), split
        // into a block scan. First a sequential scan *within* each
        // LANES-wide block (short independent dependency chains the CPU
        // overlaps), then one carry pass that injects each block's
        // incoming prefix with a precomputed decay ramp — a branchless
        // splat-sub-max sweep per block. Exact and equal to the plain
        // sequential scan: the caller pre-checked
        // `n * gap < RETIRE_LIMIT`, so every ramp decay fits i16, every
        // stored value is >= -32766 (watch-bounded source minus one
        // ladder param), and a candidate that saturates at the i16 rail
        // is therefore strictly below every stored value and can never
        // change a max.
        for block in cur[1..=n].chunks_mut(LANES) {
            for j in 1..block.len() {
                block[j] = block[j].max(block[j - 1].saturating_sub(g16));
            }
        }
        let mut carry = cur[0];
        for block in cur[1..=n].chunks_mut(LANES) {
            for (cell, &dec) in block.iter_mut().zip(ramp.iter()) {
                *cell = (*cell).max(carry.saturating_sub(dec));
            }
            carry = block[block.len() - 1];
        }
        probe.simd_ops(2 * lane_steps);

        // Retire watch over the finished row, as a vector max/min
        // reduction. Any stored magnitude at or past the watch is still
        // exact (one update moves a value by at most `MAX_I16_PARAM` from
        // a checked source), but the *next* row could wrap — so the whole
        // alignment retires now.
        let mut row_max = i16::MIN;
        let mut row_min = i16::MAX;
        for &cell in cur.iter() {
            row_max = row_max.max(cell);
            row_min = row_min.min(cell);
        }
        let hot = row_max >= RETIRE_LIMIT || row_min <= -RETIRE_LIMIT;
        probe.store(addr_of(&cur[n]), 2);
        probe.branch(hot);
        if hot {
            return None;
        }
    }

    // Best sink at full sequence consumption — same first-best tie rule
    // as the scalar engine.
    let mut best_row = 0usize;
    for (r0, &id) in order.iter().enumerate() {
        if graph.node(id).out_edges.is_empty() {
            let row = r0 + 1;
            if best_row == 0 || h[row * width + n] > h[best_row * width + n] {
                best_row = row;
            }
        }
    }
    let best_score = i32::from(h[best_row * width + n]);

    // Traceback by candidate replay: at each visited cell, rerun the
    // scalar engine's candidate scan (pred[0] diag, pred[0] up, pred[1]
    // diag, …, left) against the stored values and take the *first*
    // candidate equal to the cell's value — every candidate before the
    // scan's winner is strictly smaller, so this is exactly the move the
    // strict-`>` scan recorded. All arithmetic repeats the fill's i16
    // saturating ops, so the replay is exact even at the i16 rails.
    let mut steps = Vec::new();
    let (mut row, mut j) = (best_row, n);
    'cell: while row != 0 || j != 0 {
        if row == 0 {
            // Virtual start row: only leading insertions remain.
            steps.push(AlignStep::Insert { pos: j - 1 });
            j -= 1;
            continue;
        }
        let id = order[row - 1];
        let node = graph.node(id);
        let base = node.base;
        pred_rows.clear();
        if node.in_edges.is_empty() {
            pred_rows.push(0);
        } else {
            pred_rows.extend(node.in_edges.iter().map(|&(p, _)| rank_of[p]));
        }
        let val = h[row * width + j];
        for &pr in &pred_rows {
            if j > 0 {
                let sub = if base == s[j - 1] { m16 } else { neg_mm16 };
                if h[pr * width + j - 1].saturating_add(sub) == val {
                    steps.push(AlignStep::Aligned {
                        node: id,
                        pos: j - 1,
                    });
                    row = pr;
                    j -= 1;
                    continue 'cell;
                }
            }
            if h[pr * width + j].saturating_sub(g16) == val {
                steps.push(AlignStep::Delete { node: id });
                row = pr;
                continue 'cell;
            }
        }
        // No graph candidate attained the value, so the left gap won (at
        // `j == 0` some predecessor always matches — column 0 is filled
        // from exactly these candidates).
        steps.push(AlignStep::Insert { pos: j - 1 });
        j -= 1;
    }
    steps.reverse();
    Some(GraphAlignment {
        score: best_score,
        steps,
        cells: (v * n) as u64,
    })
}

/// Engine-dispatched [`crate::align::add_sequence`]: aligns on the
/// requested engine, merges the alignment into the graph, and folds the
/// engine's slot accounting into `report`.
pub fn add_sequence_engine(
    graph: &mut PoaGraph,
    seq: &DnaSeq,
    params: &PoaParams,
    engine: DpEngine,
    report: &mut BatchReport,
) -> GraphAlignment {
    add_sequence_engine_probed(graph, seq, params, engine, report, &mut NullProbe)
}

/// [`add_sequence_engine`] with instrumentation.
pub fn add_sequence_engine_probed<P: Probe>(
    graph: &mut PoaGraph,
    seq: &DnaSeq,
    params: &PoaParams,
    engine: DpEngine,
    report: &mut BatchReport,
    probe: &mut P,
) -> GraphAlignment {
    if graph.is_empty() {
        *graph = PoaGraph::from_seq(seq);
        return GraphAlignment {
            score: seq.len() as i32 * params.match_score,
            steps: (0..seq.len())
                .map(|pos| AlignStep::Aligned { node: pos, pos })
                .collect(),
            cells: 0,
        };
    }
    graph.ensure_topo();
    let (alignment, r) = align_to_graph_engine_probed(graph, seq, params, engine, probe);
    report.merge(&r);
    crate::align::merge_alignment(graph, seq, &alignment, &|_| 1);
    graph.ensure_topo();
    alignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::align::add_sequence;
    use gb_dp::lockstep::MAX_I16_PARAM;

    fn seq(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    fn assert_bit_identical(a: &GraphAlignment, b: &GraphAlignment) {
        assert_eq!(a.score, b.score);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.cells, b.cells);
    }

    /// A branchy graph: backbone plus variant reads merged in.
    fn branchy_graph() -> PoaGraph {
        let p = PoaParams::default();
        let mut g = PoaGraph::from_seq(&seq("ACGTACGGTTACGTAGGCAT"));
        for r in [
            "ACCTACGGTTACGTAGGCAT",
            "ACGTACGGTACGTAGGCAT",
            "ACGTACGGTTTACGTAGCAT",
        ] {
            add_sequence(&mut g, &seq(r), &p);
        }
        g
    }

    #[test]
    fn simd_matches_scalar_on_chain_and_branchy_graphs() {
        let p = PoaParams::default();
        let chain = PoaGraph::from_seq(&seq("ACGTACGT"));
        let branchy = branchy_graph();
        for g in [&chain, &branchy] {
            for q in [
                "ACGTACGT",
                "ACGTCGT",
                "ACCTACGA",
                "TTTT",
                "ACGTACGGTTACGTAGGCAT",
            ] {
                let scalar = crate::align::align_to_graph(g, &seq(q), &p);
                let (simd, report) = align_to_graph_simd(g, &seq(q), &p);
                assert_bit_identical(&scalar, &simd);
                assert_eq!(report.retired_lanes, 0, "{q}");
                assert_eq!(report.scalar_cells, scalar.cells);
                assert!(report.vector_cells >= report.scalar_cells);
            }
        }
    }

    #[test]
    fn forced_overflow_retires_to_scalar() {
        // match_score at the ladder bound: three consecutive matches push
        // the score past RETIRE_LIMIT, so the watch must fire and the
        // retired rerun must still be bit-identical.
        let p = PoaParams {
            match_score: MAX_I16_PARAM,
            mismatch: 4,
            gap: 8,
        };
        let g = PoaGraph::from_seq(&seq("ACGTACGT"));
        let q = seq("ACGTACGT");
        let scalar = crate::align::align_to_graph(&g, &q, &p);
        assert!(scalar.score >= i32::from(RETIRE_LIMIT));
        let (simd, report) = align_to_graph_simd(&g, &q, &p);
        assert_bit_identical(&scalar, &simd);
        assert_eq!(report.retired_lanes, 1);
    }

    #[test]
    fn oversized_params_fall_back_to_scalar() {
        let p = PoaParams {
            match_score: MAX_I16_PARAM + 1,
            mismatch: 4,
            gap: 8,
        };
        let g = PoaGraph::from_seq(&seq("ACGTACGT"));
        let q = seq("ACGTCGT");
        let scalar = crate::align::align_to_graph(&g, &q, &p);
        let (simd, report) = align_to_graph_simd(&g, &q, &p);
        assert_bit_identical(&scalar, &simd);
        assert_eq!(report.retired_lanes, 1);
        assert_eq!(report.vector_cells, report.scalar_cells);
    }

    #[test]
    fn deep_leading_gap_is_born_retired() {
        // n * gap past the watch: the virtual start row itself would
        // overflow i16, so the engine must pre-route to scalar.
        let p = PoaParams {
            match_score: 5,
            mismatch: 4,
            gap: 8_000,
        };
        let g = PoaGraph::from_seq(&seq("ACGT"));
        let q = seq("ACGTACGT"); // 8 * 8000 > RETIRE_LIMIT
        let scalar = crate::align::align_to_graph(&g, &q, &p);
        let (simd, report) = align_to_graph_simd(&g, &q, &p);
        assert_bit_identical(&scalar, &simd);
        assert_eq!(report.retired_lanes, 1);
    }

    #[test]
    fn engine_dispatch_builds_identical_graphs() {
        let p = PoaParams::default();
        let reads = [
            "ACGTACGGTTACGTAGGCAT",
            "ACCTACGGTTACGTAGGCAT",
            "ACGTACGGTACGTAGGCAT",
        ];
        let mut g_scalar = PoaGraph::new();
        let mut g_simd = PoaGraph::new();
        let mut rep_scalar = BatchReport::default();
        let mut rep_simd = BatchReport::default();
        for r in reads {
            let a = add_sequence_engine(
                &mut g_scalar,
                &seq(r),
                &p,
                DpEngine::Scalar,
                &mut rep_scalar,
            );
            let b = add_sequence_engine(&mut g_simd, &seq(r), &p, DpEngine::Simd, &mut rep_simd);
            assert_bit_identical(&a, &b);
        }
        assert_eq!(g_scalar.num_nodes(), g_simd.num_nodes());
        assert_eq!(g_scalar.total_edge_weight(), g_simd.total_edge_weight());
        assert_eq!(rep_scalar, BatchReport::default());
        assert_eq!(rep_simd.batches, 2); // first read seeds the graph
        assert_eq!(rep_simd.retired_lanes, 0);
    }

    #[test]
    fn probe_records_vector_ops() {
        use gb_uarch::mix::MixProbe;
        let p = PoaParams::default();
        let g = PoaGraph::from_seq(&seq("ACGTACGT"));
        let mut probe = MixProbe::new();
        let (r, _) = align_to_graph_simd_probed(&g, &seq("ACGTACGT"), &p, &mut probe);
        assert!(probe.mix().simd_ops > 0);
        assert!(
            probe.mix().simd_ops < r.cells,
            "vector ops must be fewer than cells"
        );
    }
}
