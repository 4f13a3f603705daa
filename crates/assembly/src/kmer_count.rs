//! K-mer counting — the **kmer-cnt** kernel.
//!
//! Flye's first assembly stage counts canonical k-mers across all reads to
//! find the solid k-mers used for repeat graph construction. The kernel is
//! a tight loop of hash-table updates over a table far larger than the
//! LLC, with no spatial locality (a 1–2 byte counter per 64-byte line)
//! and, naively, no temporal overlap — the paper measures it as the most
//! memory-bound kernel of the suite (484 BPKI, 86.6% memory-bound
//! pipeline slots) and suggests touching the table ahead of the updates,
//! since upcoming keys are known in advance.
//!
//! There is one counting routine, and two ways in that differ only in
//! how many keys are gathered before the table sees them:
//!
//! - [`count_kmers`] is **the kernel**: keys go to
//!   [`KmerTable::add_batch`] [`BATCH`] at a time, which reads every home
//!   slot of the batch before updating any, so the misses overlap.
//! - [`count_kmers_prefetched`] takes the window (and a probe) from its
//!   caller: the suite's task is window [`BATCH`] — timed and simulated
//!   alike — and the ablation sweeps it. Window 1, one dependent update
//!   after another, is the **paper-faithful** program, the one the paper
//!   profiled.
//!
//! Both roll the canonical k-mer in O(1) per base
//! ([`DnaSeq::canonical_kmers`]) and build the table once, for the number
//! of k-mers in the input — an upper bound on the distinct ones, and for
//! noisy long reads a tight one — so counting never rehashes.

use crate::kmer_table::{KmerTable, Probing};
use gb_core::seq::DnaSeq;
use gb_uarch::probe::{NullProbe, Probe};

/// Keys the kernel gathers before the table touches and updates them.
pub const BATCH: usize = 32;

/// Parameters for a counting run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KmerCountParams {
    /// K-mer length (Flye uses 15–17; must be `<= 31`).
    pub k: usize,
    /// Probing discipline of the table.
    pub probing: Probing,
    /// Count canonical k-mers (min of forward and reverse complement).
    pub canonical: bool,
}

impl Default for KmerCountParams {
    fn default() -> KmerCountParams {
        KmerCountParams {
            k: 17,
            probing: Probing::Linear,
            canonical: true,
        }
    }
}

/// Summary of a counting run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KmerCountStats {
    /// Total k-mer insertions performed.
    pub kmers_processed: u64,
    /// Distinct k-mers in the table afterwards.
    pub distinct: usize,
    /// Table heap footprint in bytes.
    pub table_bytes: usize,
}

/// Counts all k-mers of `reads` into a fresh table.
///
/// # Examples
///
/// ```
/// use gb_assembly::kmer_count::{count_kmers, KmerCountParams};
/// use gb_core::seq::DnaSeq;
/// let reads: Vec<DnaSeq> = vec!["ACGTACGTAC".parse()?];
/// let p = KmerCountParams { k: 4, ..Default::default() };
/// let (table, stats) = count_kmers(&reads, &p);
/// assert_eq!(stats.kmers_processed, 7);
/// assert!(table.len() <= 7);
/// # Ok::<(), gb_core::error::Error>(())
/// ```
///
/// # Panics
///
/// Panics if `params.k` is 0 or greater than 31.
pub fn count_kmers(reads: &[DnaSeq], params: &KmerCountParams) -> (KmerTable, KmerCountStats) {
    count_kmers_prefetched(reads, params, BATCH, &mut NullProbe)
}

/// [`count_kmers`] with a caller-chosen window: the home slots of `window`
/// k-mers are touched before the first of them is updated, hiding the
/// DRAM latency of the updates (the paper's §IV-F suggestion).
///
/// On the simulated hierarchy this converts demand misses into hits; on
/// real hardware the early touch serves the same role as a prefetch
/// instruction. Windows above [`KmerTable::MAX_BATCH`] are touched in
/// chunks of that size.
///
/// # Panics
///
/// Panics if `window` is 0, or `params.k` is 0 or greater than 31.
// One standalone copy per probe type, as `count_kmers` is in this crate:
// inlined into a caller's task wrappers the loop ran 5–10 % slower.
#[inline(never)]
// PANIC-FREE: the `k` range and window asserts are the documented API
// contract; everything else is iterator-driven.
pub fn count_kmers_prefetched<P: Probe>(
    reads: &[DnaSeq],
    params: &KmerCountParams,
    window: usize,
    probe: &mut P,
) -> (KmerTable, KmerCountStats) {
    let k = params.k;
    assert!(k > 0 && k <= 31, "k must be in 1..=31");
    assert!(window > 0, "prefetch window must be positive");
    let total: usize = reads.iter().map(|r| r.len().saturating_sub(k - 1)).sum();
    // Every k-mer could be distinct: sized for that, the table never grows.
    let mut table = KmerTable::with_capacity(total, params.probing);
    let mut stats = KmerCountStats::default();
    let mut pending: Vec<u64> = Vec::with_capacity(window.min(total));
    let key_ops = if params.canonical {
        CANONICAL_OPS
    } else {
        FORWARD_OPS
    };
    let mut count = |key: u64| {
        probe.int_ops(key_ops);
        pending.push(key);
        stats.kmers_processed += 1;
        if pending.len() == window {
            table.add_batch_probed(&pending, probe);
            pending.clear();
        }
        probe.branch(true);
    };
    for read in reads {
        if params.canonical {
            read.canonical_kmers(k).for_each(|(_, key)| count(key));
        } else {
            read.kmers(k).for_each(|(_, key)| count(key));
        }
    }
    table.add_batch_probed(&pending, probe);
    stats.distinct = table.len();
    stats.table_bytes = table.heap_bytes();
    (table, stats)
}

/// Integer operations the probe is told of per k-mer: rolling the forward
/// word (shift-or, mask), and for a canonical key the reverse-complement
/// word (shift, complement, shift, or) and the minimum (compare, select).
const FORWARD_OPS: u64 = 2;
const CANONICAL_OPS: u64 = FORWARD_OPS + 6;

/// Histogram of counts (`histogram[c]` = number of distinct k-mers seen
/// exactly `c` times, capped at `max_count`), Flye's solid-k-mer
/// selection input.
pub fn count_histogram(table: &KmerTable, max_count: usize) -> Vec<u64> {
    let mut hist = vec![0u64; max_count + 1];
    for (_, v) in table.iter() {
        hist[(v as usize).min(max_count)] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_core::rng::Rng;
    use gb_core::seq::canonical_kmer;
    use std::collections::BTreeMap;

    fn reads(seed: u64, n: usize, len: usize) -> Vec<DnaSeq> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..len).map(|_| rng.gen_range(0..4u8)).collect())
            .collect()
    }

    fn naive_counts(rs: &[DnaSeq], k: usize, canonical: bool) -> BTreeMap<u64, u32> {
        let mut m = BTreeMap::new();
        for r in rs {
            for (_, km) in r.kmers(k) {
                let key = if canonical { canonical_kmer(km, k) } else { km };
                *m.entry(key).or_insert(0) += 1;
            }
        }
        m
    }

    #[test]
    fn counts_match_reference() {
        let rs = reads(3, 20, 200);
        for canonical in [false, true] {
            let p = KmerCountParams {
                k: 9,
                canonical,
                ..Default::default()
            };
            let (table, stats) = count_kmers(&rs, &p);
            let want = naive_counts(&rs, 9, canonical);
            assert_eq!(stats.distinct, want.len());
            let got: BTreeMap<u64, u32> = table.iter().collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn canonical_collapses_strands() {
        let fwd: DnaSeq = "ACGGTTACAGGATCC".parse().unwrap();
        let rev = fwd.reverse_complement();
        let p = KmerCountParams {
            k: 7,
            canonical: true,
            ..Default::default()
        };
        let (t1, _) = count_kmers(std::slice::from_ref(&fwd), &p);
        let (t2, _) = count_kmers(&[rev], &p);
        let a: BTreeMap<u64, u32> = t1.iter().collect();
        let b: BTreeMap<u64, u32> = t2.iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn prefetched_counts_identical() {
        let rs = reads(5, 10, 300);
        let p = KmerCountParams {
            k: 13,
            ..Default::default()
        };
        let (plain, s1) = count_kmers(&rs, &p);
        let (pf, s2) = count_kmers_prefetched(&rs, &p, 16, &mut NullProbe);
        assert_eq!(s1.kmers_processed, s2.kmers_processed);
        let a: BTreeMap<u64, u32> = plain.iter().collect();
        let b: BTreeMap<u64, u32> = pf.iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    fn every_window_matches_the_oracle() {
        for total in [0, 1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 3] {
            for canonical in [false, true] {
                // k = 3 repeats keys inside a batch, k = 11 hardly ever does.
                for k in [3usize, 11] {
                    let rs = reads(total as u64 + 1, 1, total + k - 1);
                    let want = naive_counts(&rs, k, canonical);
                    for probing in [Probing::Linear, Probing::RobinHood] {
                        let p = KmerCountParams {
                            k,
                            probing,
                            canonical,
                        };
                        for window in [1, 2, 31, 32, 33, 64] {
                            let (table, stats) =
                                count_kmers_prefetched(&rs, &p, window, &mut NullProbe);
                            let ctx = format!("total {total} {p:?} window {window}");
                            assert_eq!(stats.kmers_processed, total as u64, "{ctx}");
                            assert_eq!(stats.distinct, want.len(), "{ctx}");
                            let got: BTreeMap<u64, u32> = table.iter().collect();
                            assert_eq!(got, want, "{ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn windows_agree_across_many_reads() {
        // Batches straddle read boundaries; some reads are shorter than k.
        let mut rs = reads(21, 40, 57);
        rs.extend(reads(22, 5, 6));
        rs.extend(reads(23, 3, 9));
        for canonical in [false, true] {
            let p = KmerCountParams {
                k: 9,
                canonical,
                ..Default::default()
            };
            let want = naive_counts(&rs, 9, canonical);
            for window in [1, 5, BATCH, 1000] {
                let (table, stats) = count_kmers_prefetched(&rs, &p, window, &mut NullProbe);
                assert_eq!(
                    stats.kmers_processed,
                    want.values().map(|&c| c as u64).sum()
                );
                assert_eq!(table.iter().collect::<BTreeMap<u64, u32>>(), want);
            }
        }
    }

    #[test]
    fn counting_never_rehashes() {
        // Random 17-mers are all distinct: the worst case for the sizing.
        let rs = reads(13, 10, 500);
        for probing in [Probing::Linear, Probing::RobinHood] {
            let p = KmerCountParams {
                probing,
                ..Default::default()
            };
            let (table, stats) = count_kmers(&rs, &p);
            assert_eq!(stats.distinct as u64, stats.kmers_processed);
            let built = KmerTable::with_capacity(stats.distinct, probing);
            assert_eq!(table.num_slots(), built.num_slots());
        }
    }

    #[test]
    fn the_probe_is_told_a_constant_cost_per_kmer() {
        use gb_uarch::mix::MixProbe;
        let ops = |k: usize, canonical: bool| {
            // 100 poly-A k-mers: one key, whatever `k` and `canonical` are,
            // so the table's share of the operations is the same each time.
            let rs = [DnaSeq::from_codes_unchecked(vec![0; k + 99])];
            let p = KmerCountParams {
                k,
                canonical,
                ..Default::default()
            };
            let mut probe = MixProbe::new();
            let _ = count_kmers_prefetched(&rs, &p, 1, &mut probe);
            probe.mix().int_ops
        };
        // Longer k-mers cost no more to canonicalise.
        assert_eq!(ops(21, true), ops(31, true));
        assert_eq!(
            ops(21, true) - ops(21, false),
            100 * (CANONICAL_OPS - FORWARD_OPS)
        );
    }

    #[test]
    fn prefetch_reduces_simulated_misses() {
        use gb_uarch::cache::CacheProbe;
        let rs = reads(7, 60, 400);
        let p = KmerCountParams {
            k: 17,
            ..Default::default()
        };
        let mut plain_probe = CacheProbe::skylake_like();
        let _ = count_kmers_prefetched(&rs, &p, 1, &mut plain_probe);
        let mut pf_probe = CacheProbe::skylake_like();
        let _ = count_kmers_prefetched(&rs, &p, 32, &mut pf_probe);
        let plain_stats = plain_probe.cache_stats();
        let pf_stats = pf_probe.cache_stats();
        // Demand updates now hit in cache; misses moved to the prefetch
        // touches but the total cannot grow much, and the *update* path
        // (stores) sees better locality. At minimum, not worse overall.
        assert!(
            pf_stats.llc_misses <= plain_stats.llc_misses + plain_stats.llc_misses / 10,
            "prefetch made misses worse: {} vs {}",
            pf_stats.llc_misses,
            plain_stats.llc_misses
        );
    }

    #[test]
    fn histogram_sums_to_distinct() {
        let rs = reads(9, 10, 100);
        let p = KmerCountParams {
            k: 5,
            ..Default::default()
        };
        let (table, stats) = count_kmers(&rs, &p);
        let hist = count_histogram(&table, 10);
        assert_eq!(hist[0], 0);
        let sum: u64 = hist.iter().sum();
        assert_eq!(sum as usize, stats.distinct);
    }

    #[test]
    fn short_reads_contribute_nothing() {
        let p = KmerCountParams {
            k: 17,
            ..Default::default()
        };
        let (_, stats) = count_kmers(&reads(1, 5, 10), &p);
        assert_eq!(stats.kmers_processed, 0);
    }

    #[test]
    #[should_panic(expected = "1..=31")]
    fn oversized_k_panics() {
        let _ = count_kmers(
            &[],
            &KmerCountParams {
                k: 32,
                ..Default::default()
            },
        );
    }
}
