//! Anchor chaining — the **chain** kernel.
//!
//! Minimap2's chaining stage groups co-linear seed matches (anchors) into
//! candidate overlaps with a 1-D dynamic program: each anchor looks back
//! at up to `max_pred` previous anchors (default 25) and picks the parent
//! maximizing `score(j) + alpha(j,i) - beta(j,i)`, where `alpha` counts
//! newly matched bases and `beta` penalizes diagonal drift. The
//! input-dependent predecessor scan is what makes the kernel's
//! data-parallelism irregular (paper Table III).

use gb_datagen::anchors::{Anchor, AnchorSet};
use gb_uarch::probe::{addr_of, NullProbe, Probe};

/// Chaining parameters (minimap2 defaults, scaled for read overlap).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChainParams {
    /// How many predecessors each anchor examines (minimap2 `--max-chain-iter`
    /// style bound; default 25).
    pub max_pred: usize,
    /// Maximum distance between chainable anchors on either sequence
    /// (minimap2 `-r`, default 5000).
    pub max_dist: u32,
    /// Maximum diagonal drift between chainable anchors (minimap2
    /// bandwidth, default 500).
    pub max_band: u32,
    /// Average seed length used in the gap-cost term.
    pub avg_seed_len: f64,
    /// Minimum score for a chain to be reported.
    pub min_chain_score: i32,
}

impl Default for ChainParams {
    fn default() -> ChainParams {
        ChainParams {
            max_pred: 25,
            max_dist: 5000,
            max_band: 500,
            avg_seed_len: 15.0,
            min_chain_score: 40,
        }
    }
}

/// One chained overlap candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chain {
    /// Chain score.
    pub score: i32,
    /// Indices (into the task's anchor list) of the chained anchors, in
    /// increasing target order.
    pub anchors: Vec<usize>,
}

impl Chain {
    /// Number of anchors in the chain.
    pub fn len(&self) -> usize {
        self.anchors.len()
    }

    /// Whether the chain is empty (never returned by the kernel).
    pub fn is_empty(&self) -> bool {
        self.anchors.is_empty()
    }
}

/// Result of chaining one anchor set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainResult {
    /// Chains sorted by decreasing score.
    pub chains: Vec<Chain>,
    /// Predecessor comparisons performed (the per-task work measure).
    pub comparisons: u64,
}

/// Chains `task`, returning all chains above the score threshold.
///
/// # Examples
///
/// ```
/// use gb_datagen::anchors::{Anchor, AnchorSet};
/// use gb_dp::chain::{chain_anchors, ChainParams};
/// // A perfect diagonal of anchors chains into one overlap.
/// let anchors: Vec<Anchor> = (0..20)
///     .map(|i| Anchor { target_pos: 100 + i * 20, query_pos: 500 + i * 20, length: 15 })
///     .collect();
/// let r = chain_anchors(&AnchorSet::new(anchors), &ChainParams::default());
/// assert_eq!(r.chains[0].len(), 20);
/// ```
pub fn chain_anchors(task: &AnchorSet, params: &ChainParams) -> ChainResult {
    chain_anchors_probed(task, params, &mut NullProbe)
}

/// [`chain_anchors`] with instrumentation.
// PANIC-FREE: predecessor scans index score/anchor slots with `j < i`
// inside `for i in 0..anchors.len()`.
pub fn chain_anchors_probed<P: Probe>(
    task: &AnchorSet,
    params: &ChainParams,
    probe: &mut P,
) -> ChainResult {
    let a = &task.anchors;
    let n = a.len();
    let mut score = vec![0i32; n];
    let mut parent = vec![usize::MAX; n];
    let mut comparisons = 0u64;

    for i in 0..n {
        let wi = a[i].length as i32;
        let mut best = wi;
        let mut best_parent = usize::MAX;
        let lo = i.saturating_sub(params.max_pred);
        for j in (lo..i).rev() {
            comparisons += 1;
            probe.load(addr_of(&a[j]), 12);
            probe.load(addr_of(&score[j]), 4);
            probe.int_ops(8);
            let gain = match pair_score(&a[j], &a[i], params) {
                Some(g) => g,
                None => {
                    probe.branch(false);
                    continue;
                }
            };
            probe.branch(true);
            let s = score[j] + gain;
            if s > best {
                best = s;
                best_parent = j;
            }
        }
        score[i] = best;
        parent[i] = best_parent;
        probe.store(addr_of(&score[i]), 4);
    }

    // Extract chains greedily from the best unused tail, minimap2-style.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(score[i]));
    let mut used = vec![false; n];
    let mut chains = Vec::new();
    for &tail in &order {
        if used[tail] || score[tail] < params.min_chain_score {
            continue;
        }
        let mut nodes = Vec::new();
        let mut cur = tail;
        loop {
            if used[cur] {
                break; // ran into an already-claimed prefix
            }
            used[cur] = true;
            nodes.push(cur);
            if parent[cur] == usize::MAX {
                break;
            }
            cur = parent[cur];
        }
        nodes.reverse();
        if !nodes.is_empty() {
            chains.push(Chain {
                score: score[tail],
                anchors: nodes,
            });
        }
    }
    chains.sort_by_key(|c| std::cmp::Reverse(c.score));
    ChainResult {
        chains,
        comparisons,
    }
}

/// `alpha - beta` for chaining anchor `i` after anchor `j`, or `None` when
/// the pair is unchainable.
// The inner loop's one call: `chain_anchors_probed` is instantiated in the
// caller's crate, which can only inline this with the hint.
#[inline]
fn pair_score(aj: &Anchor, ai: &Anchor, params: &ChainParams) -> Option<i32> {
    let dt = i64::from(ai.target_pos) - i64::from(aj.target_pos);
    let dq = i64::from(ai.query_pos) - i64::from(aj.query_pos);
    if dt <= 0 || dq <= 0 {
        return None; // must be strictly increasing on both sequences
    }
    if dt > i64::from(params.max_dist) || dq > i64::from(params.max_dist) {
        return None;
    }
    let dd = (dt - dq).unsigned_abs();
    if dd > u64::from(params.max_band) {
        return None;
    }
    // alpha: newly matched bases, capped by the seed length.
    let alpha = dt.min(dq).min(i64::from(ai.length)) as f64;
    // beta: minimap2's gap cost 0.01 * avg_seed * |dd| + 0.5 * log2(|dd|).
    let beta = if dd == 0 {
        0.0
    } else {
        0.01 * params.avg_seed_len * dd as f64 + 0.5 * (dd as f64).log2()
    };
    Some((alpha - beta).round() as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(n: u32, step: u32, offset: u32) -> Vec<Anchor> {
        (0..n)
            .map(|i| Anchor {
                target_pos: 100 + i * step,
                query_pos: 100 + offset + i * step,
                length: 15,
            })
            .collect()
    }

    #[test]
    fn perfect_diagonal_chains_fully() {
        let set = AnchorSet::new(diag(30, 20, 1000));
        let r = chain_anchors(&set, &ChainParams::default());
        assert_eq!(r.chains.len(), 1);
        assert_eq!(r.chains[0].len(), 30);
        // Score = w + 29 * min(dt,dq,len) = 15 + 29*15.
        assert_eq!(r.chains[0].score, 15 + 29 * 15);
    }

    #[test]
    fn two_separate_diagonals_give_two_chains() {
        let mut anchors = diag(20, 20, 0);
        anchors.extend((0..20).map(|i| Anchor {
            target_pos: 20_000 + i * 20,
            query_pos: 1_000_000 + i * 20,
            length: 15,
        }));
        let r = chain_anchors(&AnchorSet::new(anchors), &ChainParams::default());
        assert_eq!(r.chains.len(), 2);
        assert_eq!(r.chains[0].len(), 20);
        assert_eq!(r.chains[1].len(), 20);
    }

    #[test]
    fn noise_anchors_are_excluded() {
        let mut anchors = diag(25, 20, 500);
        // Far off-diagonal noise.
        anchors.push(Anchor {
            target_pos: 150,
            query_pos: 999_999,
            length: 15,
        });
        anchors.push(Anchor {
            target_pos: 310,
            query_pos: 5,
            length: 15,
        });
        let r = chain_anchors(&AnchorSet::new(anchors), &ChainParams::default());
        assert_eq!(r.chains[0].len(), 25);
    }

    #[test]
    fn gap_cost_penalizes_drift() {
        let p = ChainParams::default();
        let a = Anchor {
            target_pos: 100,
            query_pos: 100,
            length: 15,
        };
        let on = Anchor {
            target_pos: 200,
            query_pos: 200,
            length: 15,
        };
        let off = Anchor {
            target_pos: 200,
            query_pos: 260,
            length: 15,
        };
        assert!(pair_score(&a, &on, &p).unwrap() > pair_score(&a, &off, &p).unwrap());
    }

    #[test]
    fn unchainable_pairs_are_rejected() {
        let p = ChainParams::default();
        let a = Anchor {
            target_pos: 100,
            query_pos: 100,
            length: 15,
        };
        // Backwards on query.
        assert_eq!(
            pair_score(
                &a,
                &Anchor {
                    target_pos: 200,
                    query_pos: 50,
                    length: 15
                },
                &p
            ),
            None
        );
        // Same position.
        assert_eq!(pair_score(&a, &a, &p), None);
        // Too far.
        assert_eq!(
            pair_score(
                &a,
                &Anchor {
                    target_pos: 100_000,
                    query_pos: 100_000,
                    length: 15
                },
                &p
            ),
            None
        );
        // Excessive drift.
        assert_eq!(
            pair_score(
                &a,
                &Anchor {
                    target_pos: 2000,
                    query_pos: 900,
                    length: 15
                },
                &p
            ),
            None
        );
    }

    #[test]
    fn max_pred_bounds_comparisons() {
        let set = AnchorSet::new(diag(100, 20, 0));
        let p = ChainParams {
            max_pred: 10,
            ..Default::default()
        };
        let r = chain_anchors(&set, &p);
        assert!(r.comparisons <= 100 * 10);
        // Chain still forms through bounded look-back.
        assert_eq!(r.chains[0].len(), 100);
    }

    #[test]
    fn chains_come_out_sorted_by_score() {
        let mut anchors = diag(30, 20, 0);
        anchors.extend((0..5).map(|i| Anchor {
            target_pos: 40_000 + i * 20,
            query_pos: 900_000 + i * 20,
            length: 15,
        }));
        let r = chain_anchors(
            &AnchorSet::new(anchors),
            &ChainParams {
                min_chain_score: 10,
                ..Default::default()
            },
        );
        assert!(r.chains.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn empty_task_is_empty_result() {
        let r = chain_anchors(&AnchorSet::default(), &ChainParams::default());
        assert!(r.chains.is_empty());
        assert_eq!(r.comparisons, 0);
    }

    #[test]
    fn synthetic_tasks_chain_their_diagonal() {
        use gb_datagen::anchors::{synthetic_anchor_sets, AnchorSimConfig};
        let sets = synthetic_anchor_sets(&AnchorSimConfig::default(), 3);
        let p = ChainParams::default();
        let mut found = 0;
        for s in &sets {
            let r = chain_anchors(s, &p);
            if let Some(c) = r.chains.first() {
                // The dominant chain should capture a decent share of the
                // non-noise anchors.
                if c.len() * 2 > s.len() / 2 {
                    found += 1;
                }
            }
        }
        assert!(found > sets.len() / 2, "only {found} tasks chained well");
    }
}
