//! Anchor generation for the chaining kernel.
//!
//! Minimap2's chaining stage consumes *anchors*: seed matches
//! `(target_pos, query_pos, length)` shared between two sequences. This
//! module provides both a faithful generator (minimizer matching between
//! two simulated long reads, exactly how minimap2 finds anchors) and a
//! fast synthetic generator for large parameter sweeps.

use gb_core::rng::Rng;
use gb_core::seq::DnaSeq;

/// One seed match between a target and a query sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Anchor {
    /// End position of the seed on the target read (minimap2's `x`).
    pub target_pos: u32,
    /// End position of the seed on the query read (minimap2's `y`).
    pub query_pos: u32,
    /// Seed length (minimap2's `w`).
    pub length: u32,
}

/// The anchors shared by one read pair — a single chaining task.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AnchorSet {
    /// Anchors sorted by `(target_pos, query_pos)` as chaining requires.
    pub anchors: Vec<Anchor>,
}

impl AnchorSet {
    /// Wraps and sorts a raw anchor list.
    pub fn new(mut anchors: Vec<Anchor>) -> AnchorSet {
        anchors.sort_unstable();
        AnchorSet { anchors }
    }

    /// Number of anchors (the chain kernel's per-task work measure).
    pub fn len(&self) -> usize {
        self.anchors.len()
    }

    /// Whether the task has no anchors.
    pub fn is_empty(&self) -> bool {
        self.anchors.is_empty()
    }
}

/// `(position, packed k-mer)` minimizers of `seq` with window `w`.
///
/// A minimizer is the smallest k-mer (by a hashed order, to avoid
/// poly-A domination) in each window of `w` consecutive k-mers.
///
/// # Panics
///
/// Panics if `k == 0 || k > 32` or `w == 0`.
pub fn minimizers(seq: &DnaSeq, k: usize, w: usize) -> Vec<(u32, u64)> {
    assert!(k > 0 && k <= 32, "k must be in 1..=32");
    assert!(w > 0, "window must be positive");
    let kmers: Vec<(usize, u64)> = seq.kmers(k).collect();
    if kmers.is_empty() {
        return Vec::new();
    }
    let mut out: Vec<(u32, u64)> = Vec::new();
    let n = kmers.len();
    for win_start in 0..n.saturating_sub(w - 1) {
        let window = &kmers[win_start..win_start + w];
        let &(pos, km) = window
            .iter()
            .min_by_key(|&&(_, km)| hash64(km))
            .expect("window is non-empty");
        if out.last() != Some(&(pos as u32, km)) {
            out.push((pos as u32, km));
        }
    }
    if n < w {
        // Short sequence: one minimizer over the whole thing.
        let &(pos, km) = kmers
            .iter()
            .min_by_key(|&&(_, km)| hash64(km))
            .expect("non-empty");
        out.push((pos as u32, km));
    }
    out
}

fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x ^ (x >> 31)
}

/// Computes the anchors between `target` and `query` as matching
/// minimizers — the faithful minimap2-style front-end for chaining.
///
/// # Examples
///
/// ```
/// use gb_core::seq::DnaSeq;
/// use gb_datagen::anchors::anchors_between;
/// let t: DnaSeq = "ACGTACGGTTACGTAGGCATTACGGATCCAGT".parse()?;
/// let anchors = anchors_between(&t, &t, 8, 4);
/// assert!(!anchors.is_empty());
/// // Self-comparison puts every anchor on the main diagonal.
/// assert!(anchors.anchors.iter().any(|a| a.target_pos == a.query_pos));
/// # Ok::<(), gb_core::error::Error>(())
/// ```
pub fn anchors_between(target: &DnaSeq, query: &DnaSeq, k: usize, w: usize) -> AnchorSet {
    let tmins = minimizers(target, k, w);
    let qmins = minimizers(query, k, w);
    let mut qindex: std::collections::HashMap<u64, Vec<u32>> = std::collections::HashMap::new();
    for &(pos, km) in &qmins {
        qindex.entry(km).or_default().push(pos);
    }
    let mut anchors = Vec::new();
    for &(tpos, km) in &tmins {
        if let Some(qs) = qindex.get(&km) {
            for &qpos in qs {
                anchors.push(Anchor {
                    target_pos: tpos + k as u32 - 1,
                    query_pos: qpos + k as u32 - 1,
                    length: k as u32,
                });
            }
        }
    }
    AnchorSet::new(anchors)
}

/// Parameters for [`synthetic_anchor_sets`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnchorSimConfig {
    /// Number of read-pair tasks.
    pub num_pairs: usize,
    /// Mean anchors per task.
    pub mean_anchors: usize,
    /// Seed length reported on each anchor.
    pub seed_len: u32,
    /// Fraction of spurious (off-diagonal) anchors.
    pub noise_fraction: f64,
}

impl Default for AnchorSimConfig {
    fn default() -> AnchorSimConfig {
        AnchorSimConfig {
            num_pairs: 100,
            mean_anchors: 500,
            seed_len: 15,
            noise_fraction: 0.15,
        }
    }
}

/// Generates synthetic chaining tasks: mostly co-linear anchors along a
/// random diagonal (a true overlap) plus off-diagonal noise, with
/// long-tailed per-task anchor counts (the Fig. 4 imbalance source).
pub fn synthetic_anchor_sets(config: &AnchorSimConfig, seed: u64) -> Vec<AnchorSet> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..config.num_pairs)
        .map(|_| {
            // Long-tailed task size: u^3 scaling gives a few big tasks.
            let u: f64 = rng.gen();
            let n = ((config.mean_anchors as f64) * (0.25 + 3.0 * u * u * u)) as usize;
            let n = n.max(2);
            let diag = rng.gen_range(-2000i64..2000);
            let mut anchors = Vec::with_capacity(n);
            let mut t = rng.gen_range(0..500u32);
            for _ in 0..n {
                t += rng.gen_range(5..60);
                let (tp, qp) = if rng.gen::<f64>() < config.noise_fraction {
                    (t, rng.gen_range(0..50_000u32))
                } else {
                    let jitter = rng.gen_range(-20i64..20);
                    let q = i64::from(t) - diag + jitter;
                    (t, q.clamp(0, 1 << 30) as u32)
                };
                anchors.push(Anchor {
                    target_pos: tp,
                    query_pos: qp,
                    length: config.seed_len,
                });
            }
            AnchorSet::new(anchors)
        })
        .collect()
}

impl gb_substrate::Codec for Anchor {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        e.put_u32(self.target_pos);
        e.put_u32(self.query_pos);
        e.put_u32(self.length);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<Anchor> {
        Some(Anchor {
            target_pos: d.get_u32()?,
            query_pos: d.get_u32()?,
            length: d.get_u32()?,
        })
    }
}

impl gb_substrate::Codec for AnchorSet {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        gb_substrate::Codec::encode(&self.anchors, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<AnchorSet> {
        // `new` re-sorts, restoring the sortedness invariant chaining
        // relies on (a no-op for entries this crate encoded).
        Some(AnchorSet::new(gb_substrate::Codec::decode(d)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{Genome, GenomeConfig};

    #[test]
    fn minimizers_are_subset_of_kmers() {
        let g = Genome::generate(
            &GenomeConfig {
                length: 2000,
                ..Default::default()
            },
            1,
        );
        let s = g.contig(0);
        let kmers: std::collections::HashMap<usize, u64> = s.kmers(15).collect();
        for (pos, km) in minimizers(s, 15, 10) {
            assert_eq!(kmers.get(&(pos as usize)), Some(&km));
        }
    }

    #[test]
    fn minimizer_density_near_two_over_w_plus_one() {
        let g = Genome::generate(
            &GenomeConfig {
                length: 50_000,
                repeat_fraction: 0.0,
                ..Default::default()
            },
            2,
        );
        let s = g.contig(0);
        let w = 10;
        let m = minimizers(s, 15, w).len() as f64;
        let expected = 2.0 / (w as f64 + 1.0) * s.len() as f64;
        assert!(
            (m - expected).abs() / expected < 0.25,
            "density {m} vs expected {expected}"
        );
    }

    #[test]
    fn overlapping_reads_share_diagonal_anchors() {
        let g = Genome::generate(
            &GenomeConfig {
                length: 5000,
                ..Default::default()
            },
            3,
        );
        let a = g.contig(0).slice(0, 3000);
        let b = g.contig(0).slice(1000, 4000);
        let anchors = anchors_between(&a, &b, 15, 8);
        assert!(!anchors.is_empty());
        // True overlap diagonal: target - query = 1000.
        let on_diag = anchors
            .anchors
            .iter()
            .filter(|x| i64::from(x.target_pos) - i64::from(x.query_pos) == 1000)
            .count();
        assert!(
            on_diag * 2 > anchors.len(),
            "only {on_diag}/{} anchors on the true diagonal",
            anchors.len()
        );
    }

    #[test]
    fn synthetic_sets_are_sorted_and_long_tailed() {
        let sets = synthetic_anchor_sets(&AnchorSimConfig::default(), 9);
        assert_eq!(sets.len(), 100);
        for s in &sets {
            assert!(s.anchors.windows(2).all(|w| w[0] <= w[1]));
        }
        let sizes: Vec<usize> = sets.iter().map(AnchorSet::len).collect();
        let max = *sizes.iter().max().unwrap() as f64;
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(max / mean > 2.0, "no long tail: max {max}, mean {mean}");
    }

    #[test]
    fn empty_and_short_sequences() {
        let s: DnaSeq = "ACG".parse().unwrap();
        assert!(minimizers(&s, 8, 5).is_empty());
        let t: DnaSeq = "ACGTACGTAA".parse().unwrap();
        // Fewer k-mers than the window: still yields one minimizer.
        assert_eq!(minimizers(&t, 8, 10).len(), 1);
    }
}
