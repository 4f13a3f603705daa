//! Unitig construction: de-novo contig assembly from a k-mer De-Bruijn
//! graph.
//!
//! The dbg kernel re-assembles small regions against a reference; this
//! module provides the reference-free counterpart used by whole-genome
//! assemblers like Flye: build the De-Bruijn graph of all solid read
//! k-mers and emit *unitigs* — maximal non-branching paths — as contigs.

use crate::kmer_count::{count_kmers, KmerCountParams};
use crate::kmer_table::KmerTable;
use gb_core::seq::{canonical_kmer, revcomp_kmer, unpack_kmer, DnaSeq};

/// Parameters for unitig assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitigParams {
    /// K-mer size (`<= 31`).
    pub k: usize,
    /// Minimum count for a k-mer to be *solid* (error filtering).
    pub min_count: u32,
    /// Drop unitigs shorter than this many bases.
    pub min_len: usize,
}

impl Default for UnitigParams {
    fn default() -> UnitigParams {
        UnitigParams {
            k: 21,
            min_count: 2,
            min_len: 63,
        }
    }
}

/// Result of an assembly run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Assembly {
    /// The unitigs, longest first.
    pub contigs: Vec<DnaSeq>,
    /// Solid k-mers in the graph.
    pub solid_kmers: usize,
}

impl Assembly {
    /// Total assembled bases.
    pub fn total_len(&self) -> usize {
        self.contigs.iter().map(DnaSeq::len).sum()
    }

    /// N50: the contig length at which half the assembled bases are in
    /// contigs at least that long (0 for an empty assembly).
    pub fn n50(&self) -> usize {
        let total = self.total_len();
        let mut acc = 0;
        for c in &self.contigs {
            acc += c.len();
            if acc * 2 >= total {
                return c.len();
            }
        }
        0
    }
}

/// Assembles `reads` into unitigs.
///
/// # Examples
///
/// ```
/// use gb_assembly::unitigs::{assemble_unitigs, UnitigParams};
/// use gb_core::seq::DnaSeq;
/// // Two overlapping error-free reads reassemble their union.
/// let a: DnaSeq = "ACGGTTACAGGATCCAGTTACGTACCGGTTAGGACCAGTTACGGATTACAGGAT".parse()?;
/// let reads = vec![a.slice(0, 40), a.slice(10, 55), a.slice(0, 40)];
/// let p = UnitigParams { k: 15, min_count: 1, min_len: 20 };
/// let asm = assemble_unitigs(&reads, &p);
/// let joined = &asm.contigs[0];
/// assert!(joined.len() >= 50);
/// # Ok::<(), gb_core::error::Error>(())
/// ```
///
/// # Panics
///
/// Panics if `params.k` is 0 or greater than 31.
pub fn assemble_unitigs(reads: &[DnaSeq], params: &UnitigParams) -> Assembly {
    assert!(params.k > 0 && params.k <= 31, "k must be in 1..=31");
    let (table, _) = count_kmers(
        reads,
        &KmerCountParams {
            k: params.k,
            canonical: true,
            ..Default::default()
        },
    );
    unitigs_of(&table, params)
}

/// The unitigs of the graph whose canonical k-mer counts are in `table`.
fn unitigs_of(table: &KmerTable, params: &UnitigParams) -> Assembly {
    let k = params.k;
    let solid = |km: u64| -> bool {
        table
            .get(canonical_kmer(km, k))
            .is_some_and(|c| c >= params.min_count)
    };
    let mask = if k == 31 {
        (1u64 << 62) - 1
    } else {
        (1u64 << (2 * k)) - 1
    };
    let succ = |km: u64, b: u64| ((km << 2) | b) & mask;
    let pred = |km: u64, b: u64| (km >> 2) | (b << (2 * (k - 1)));
    let out_degree = |km: u64| (0..4).filter(|&b| solid(succ(km, b))).count();
    let in_degree = |km: u64| (0..4).filter(|&b| solid(pred(km, b))).count();

    // Track visited canonical k-mers.
    let mut visited = KmerTable::with_capacity(table.len(), crate::kmer_table::Probing::Linear);
    let mut contigs: Vec<DnaSeq> = Vec::new();
    // The solid k-mers in key order: seeding the walks in slot order would
    // make the contigs' orientation and order depend on the table's size
    // and probing, not on the reads alone.
    let mut seeds: Vec<u64> = table
        .iter()
        .filter(|&(_, count)| count >= params.min_count)
        .map(|(canon, _)| canon)
        .collect();
    seeds.sort_unstable();
    let solid_kmers = seeds.len();

    let handle = |start: u64, visited: &mut KmerTable, contigs: &mut Vec<DnaSeq>| {
        if !solid(start) || visited.get(canonical_kmer(start, k)).is_some() {
            return;
        }
        // Walk backward while the path is non-branching.
        let mut cur = start;
        let mut steps = 0usize;
        loop {
            if in_degree(cur) != 1 {
                break;
            }
            let b = (0..4).find(|&b| solid(pred(cur, b))).expect("in-degree 1");
            let p = pred(cur, b);
            if out_degree(p) != 1 || visited.get(canonical_kmer(p, k)).is_some() || p == cur {
                break;
            }
            cur = p;
            steps += 1;
            if steps > table.len() {
                break; // cycle guard
            }
        }
        // Walk forward from the path start, emitting bases.
        let mut codes = unpack_kmer(cur, k);
        visited.insert_or_add(canonical_kmer(cur, k), 1);
        let mut node = cur;
        loop {
            if out_degree(node) != 1 {
                break;
            }
            let b = (0..4)
                .find(|&b| solid(succ(node, b)))
                .expect("out-degree 1");
            let nxt = succ(node, b);
            if in_degree(nxt) != 1 || visited.get(canonical_kmer(nxt, k)).is_some() {
                break;
            }
            visited.insert_or_add(canonical_kmer(nxt, k), 1);
            codes.push(b as u8);
            node = nxt;
        }
        if codes.len() >= params.min_len {
            contigs.push(DnaSeq::from_codes_unchecked(codes));
        }
    };

    // Seed walks from every solid k-mer (both orientations).
    for canon in seeds {
        handle(canon, &mut visited, &mut contigs);
        handle(revcomp_kmer(canon, k), &mut visited, &mut contigs);
    }
    contigs.sort_by_key(|c| std::cmp::Reverse(c.len()));
    Assembly {
        contigs,
        solid_kmers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_core::rng::Rng;

    fn random_seq(n: usize, seed: u64) -> DnaSeq {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..4u8)).collect()
    }

    fn shred(genome: &DnaSeq, read_len: usize, step: usize) -> Vec<DnaSeq> {
        let mut reads = Vec::new();
        let mut s = 0;
        while s + read_len <= genome.len() {
            reads.push(genome.slice(s, s + read_len));
            // Second copy so every k-mer is solid at min_count 2.
            reads.push(genome.slice(s, s + read_len));
            s += step;
        }
        // Tail read so the genome end is always covered.
        if genome.len() >= read_len {
            let tail = genome.slice(genome.len() - read_len, genome.len());
            reads.push(tail.clone());
            reads.push(tail);
        }
        reads
    }

    #[test]
    fn error_free_reads_reassemble_the_genome() {
        let genome = random_seq(3000, 42);
        let reads = shred(&genome, 200, 50);
        let asm = assemble_unitigs(&reads, &UnitigParams::default());
        // A random (repeat-free at k=21) genome reassembles into one
        // contig containing the full genome (up to strand).
        assert_eq!(asm.contigs.len(), 1, "contigs: {:?}", asm.contigs.len());
        let c = &asm.contigs[0];
        let ok = c == &genome || c.reverse_complement() == genome;
        assert!(ok, "contig length {} vs genome {}", c.len(), genome.len());
        assert_eq!(asm.n50(), genome.len());
    }

    #[test]
    fn sequencing_errors_are_filtered_by_solidity() {
        let genome = random_seq(2000, 7);
        let mut reads = shred(&genome, 150, 40);
        // Add singleton error reads: their k-mers stay below min_count.
        for i in 0..20 {
            let mut codes = genome.slice(i * 37, i * 37 + 100).into_codes();
            codes[50] = (codes[50] + 1) % 4;
            reads.push(DnaSeq::from_codes_unchecked(codes));
        }
        let asm = assemble_unitigs(&reads, &UnitigParams::default());
        assert_eq!(asm.contigs.len(), 1);
        let c = &asm.contigs[0];
        assert!(c == &genome || c.reverse_complement() == genome);
    }

    #[test]
    fn repeat_breaks_the_assembly() {
        // genome = A . R . B . R . C with repeat R longer than k: the
        // graph branches at R's ends, yielding multiple unitigs.
        let a = random_seq(400, 1);
        let r = random_seq(60, 2);
        let b = random_seq(400, 3);
        let c = random_seq(400, 4);
        let mut codes = Vec::new();
        for part in [&a, &r, &b, &r, &c] {
            codes.extend_from_slice(part.as_codes());
        }
        let genome = DnaSeq::from_codes_unchecked(codes);
        let reads = shred(&genome, 150, 30);
        let asm = assemble_unitigs(&reads, &UnitigParams::default());
        assert!(
            asm.contigs.len() >= 3,
            "repeat should fragment: {}",
            asm.contigs.len()
        );
        assert!(asm.n50() < genome.len());
        // But total assembled sequence still covers most of the genome.
        assert!(asm.total_len() > genome.len() / 2);
    }

    #[test]
    fn coverage_gap_splits_contigs() {
        let genome = random_seq(2000, 9);
        let mut reads = shred(&genome.slice(0, 900), 150, 40);
        reads.extend(shred(&genome.slice(1100, 2000), 150, 40));
        let asm = assemble_unitigs(&reads, &UnitigParams::default());
        assert_eq!(asm.contigs.len(), 2);
    }

    #[test]
    fn contigs_do_not_depend_on_the_table_layout() {
        use crate::kmer_table::Probing;
        // Thirty unrelated fragments, many of equal length: the strand each
        // contig comes out on and the order among equals both follow from
        // which of its k-mers seeds the walk.
        let reads: Vec<DnaSeq> = (0..30)
            .flat_map(|i| shred(&random_seq(200 + 10 * (i % 3), 100 + i as u64), 100, 25))
            .collect();
        let params = UnitigParams::default();
        let want = assemble_unitigs(&reads, &params);
        assert_eq!(want.contigs.len(), 30);
        for probing in [Probing::Linear, Probing::RobinHood] {
            for capacity in [8, 100_000] {
                let mut table = KmerTable::with_capacity(capacity, probing);
                for read in &reads {
                    let keys: Vec<u64> = read.canonical_kmers(params.k).map(|(_, km)| km).collect();
                    table.add_batch(&keys);
                }
                let got = unitigs_of(&table, &params);
                assert_eq!(got, want, "{probing:?} capacity {capacity}");
            }
        }
    }

    #[test]
    fn empty_input_is_empty_assembly() {
        let asm = assemble_unitigs(&[], &UnitigParams::default());
        assert!(asm.contigs.is_empty());
        assert_eq!(asm.n50(), 0);
        assert_eq!(asm.solid_kmers, 0);
    }
}
