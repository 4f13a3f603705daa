//! De-Bruijn graph construction and haplotype assembly — the **dbg**
//! kernel.
//!
//! Variant callers like Platypus and GATK HaplotypeCaller re-assemble the
//! reads aligned to a small reference region into a De-Bruijn graph to
//! correct alignment artifacts: each distinct k-mer becomes a node
//! (tracked in a hash table), adjacent k-mers are linked with
//! read-support-weighted edges, and source-to-sink paths through
//! well-supported edges are the candidate *haplotypes* handed to the
//! pairHMM. If the graph is cyclic (repeats shorter than k), construction
//! restarts with a larger k.

use crate::kmer_table::{KmerTable, Probing};
use gb_core::region::RegionTask;
use gb_core::seq::DnaSeq;
use gb_uarch::probe::{NullProbe, Probe};

/// Parameters for region re-assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbgParams {
    /// Initial k-mer size (Platypus default 15; GATK 10–25 sweep).
    pub k: usize,
    /// Largest k to escalate to before giving up.
    pub max_k: usize,
    /// k increment per escalation.
    pub k_step: usize,
    /// Minimum read support for a non-reference edge to survive pruning.
    pub min_edge_weight: u32,
    /// Cap on enumerated haplotypes per region.
    pub max_haplotypes: usize,
}

impl Default for DbgParams {
    fn default() -> DbgParams {
        DbgParams {
            k: 15,
            max_k: 31,
            k_step: 4,
            min_edge_weight: 2,
            max_haplotypes: 64,
        }
    }
}

/// Result of assembling one region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbgResult {
    /// Candidate haplotypes (always includes the reference haplotype).
    pub haplotypes: Vec<DnaSeq>,
    /// The k that produced an acyclic graph.
    pub k_used: usize,
    /// Distinct k-mers (graph nodes) at the final k.
    pub nodes: usize,
    /// Hash-table lookups performed (the per-task work measure of paper
    /// Table III).
    pub hash_lookups: u64,
    /// How many k values produced cyclic graphs before success.
    pub cycles_hit: u32,
}

/// The graph under construction at one k.
struct Dbg {
    k: usize,
    /// k-mer -> node index.
    table: KmerTable,
    /// Node k-mers by index.
    kmers: Vec<u64>,
    /// `edges[node][base]` = read support for `node -> (node<<2|base)`.
    edges: Vec<[u32; 4]>,
    /// Whether the node/edge lies on the reference path.
    ref_edge: Vec<[bool; 4]>,
    lookups: u64,
}

impl Dbg {
    fn new(k: usize, capacity: usize) -> Dbg {
        Dbg {
            k,
            table: KmerTable::with_capacity(capacity, Probing::Linear),
            kmers: Vec::new(),
            edges: Vec::new(),
            ref_edge: Vec::new(),
            lookups: 0,
        }
    }

    fn node_of<P: Probe>(&mut self, kmer: u64, probe: &mut P) -> usize {
        self.lookups += 1;
        let next = self.kmers.len() as u32;
        let (idx, new) = self.table.get_or_insert_probed(kmer, next, probe);
        if new {
            self.kmers.push(kmer);
            self.edges.push([0; 4]);
            self.ref_edge.push([false; 4]);
        }
        idx as usize
    }

    /// Threads `seq` through the graph, incrementing edge support.
    // PANIC-FREE: edge indices come from `node_of` (which sized the edge
    // arrays) and `i + k - 1 < codes.len()` by the kmers iterator bound.
    fn add_seq<P: Probe>(&mut self, seq: &DnaSeq, weight: u32, is_ref: bool, probe: &mut P) {
        if seq.len() < self.k + 1 {
            return;
        }
        let codes = seq.as_codes();
        let mut prev: Option<usize> = None;
        for (i, kmer) in seq.kmers(self.k) {
            let node = self.node_of(kmer, probe);
            if let Some(p) = prev {
                let base = codes[i + self.k - 1] as usize;
                self.edges[p][base] += weight;
                if is_ref {
                    self.ref_edge[p][base] = true;
                }
            }
            prev = Some(node);
        }
    }

    /// An edge survives pruning if well-supported or on the reference.
    // PANIC-FREE: `node` is a graph index and `base < 4` at every caller.
    fn keep(&self, node: usize, base: usize, min_w: u32) -> bool {
        self.ref_edge[node][base] || self.edges[node][base] >= min_w
    }

    // PANIC-FREE: `node < kmers.len()` at every caller; the shifts are
    // bounded because `k <= 31`.
    fn successor(&self, node: usize, base: usize) -> Option<usize> {
        let mask = if self.k == 31 {
            (1u64 << 62) - 1
        } else {
            (1u64 << (2 * self.k)) - 1
        };
        let next = ((self.kmers[node] << 2) | base as u64) & mask;
        self.table.get(next).map(|i| i as usize)
    }

    /// DFS cycle detection over kept edges.
    // PANIC-FREE: DFS over graph indices `< n`; the explicit stack is
    // non-empty inside the `while let` loop by construction.
    fn has_cycle(&self, min_w: u32) -> bool {
        #[derive(Clone, Copy, PartialEq)]
        enum Color {
            White,
            Gray,
            Black,
        }
        let n = self.kmers.len();
        let mut color = vec![Color::White; n];
        for start in 0..n {
            if color[start] != Color::White {
                continue;
            }
            // Iterative DFS with an explicit edge stack.
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            color[start] = Color::Gray;
            while let Some(&mut (node, ref mut next_base)) = stack.last_mut() {
                if *next_base == 4 {
                    color[node] = Color::Black;
                    stack.pop();
                    continue;
                }
                let base = *next_base;
                *next_base += 1;
                if !self.keep(node, base, min_w) {
                    continue;
                }
                if let Some(succ) = self.successor(node, base) {
                    match color[succ] {
                        Color::Gray => return true,
                        Color::White => {
                            color[succ] = Color::Gray;
                            stack.push((succ, 0));
                        }
                        Color::Black => {}
                    }
                }
            }
        }
        false
    }

    /// Enumerates source-to-sink haplotypes (bounded DFS).
    // PANIC-FREE: stack is checked non-empty by the loop condition; node
    // ids come from `successor`, which only returns resident indices.
    fn haplotypes(
        &self,
        source: usize,
        sink: usize,
        min_w: u32,
        max_count: usize,
        max_len: usize,
    ) -> Vec<DnaSeq> {
        let mut out = Vec::new();
        // Path = starting k-mer + appended bases.
        let start_codes = gb_core::seq::unpack_kmer(self.kmers[source], self.k);
        let mut bases: Vec<u8> = Vec::new();
        let mut stack: Vec<(usize, usize)> = vec![(source, 0)];
        while !stack.is_empty() {
            let depth = stack.len();
            let &mut (node, ref mut next_base) = stack.last_mut().expect("checked non-empty");
            if node == sink && depth > 1 {
                let mut codes = start_codes.clone();
                codes.extend_from_slice(&bases);
                out.push(DnaSeq::from_codes_unchecked(codes));
                if out.len() >= max_count {
                    break;
                }
                stack.pop();
                bases.pop();
                continue;
            }
            if *next_base == 4 || bases.len() >= max_len {
                stack.pop();
                bases.pop();
                continue;
            }
            let base = *next_base;
            *next_base += 1;
            if !self.keep(node, base, min_w) {
                continue;
            }
            if let Some(succ) = self.successor(node, base) {
                stack.push((succ, 0));
                bases.push(base as u8);
            }
        }
        out
    }
}

/// Assembles one region task into candidate haplotypes.
///
/// # Examples
///
/// ```
/// use gb_assembly::dbg::{assemble_region, DbgParams};
/// use gb_core::{region::{Region, RegionTask}, seq::DnaSeq};
/// let ref_seq: DnaSeq = "ACGGTTACAGGATCCAGTACGTTGCAACGGT".parse()?;
/// let task = RegionTask {
///     region: Region::new(0, 0, ref_seq.len()),
///     ref_seq: ref_seq.clone(),
///     reads: vec![],
/// };
/// let r = assemble_region(&task, &DbgParams::default());
/// assert_eq!(r.haplotypes[0], ref_seq); // no reads: reference only
/// # Ok::<(), gb_core::error::Error>(())
/// ```
pub fn assemble_region(task: &RegionTask, params: &DbgParams) -> DbgResult {
    assemble_region_probed(task, params, &mut NullProbe)
}

/// [`assemble_region`] with instrumentation.
// PANIC-FREE: arithmetic on read/ref lengths cannot overflow `usize` for
// in-memory sequences; `k` is clamped to `3..=max_k`.
pub fn assemble_region_probed<P: Probe>(
    task: &RegionTask,
    params: &DbgParams,
    probe: &mut P,
) -> DbgResult {
    let mut cycles_hit = 0u32;
    let mut total_lookups = 0u64;
    let mut k = params.k.max(3);
    loop {
        let capacity = task.ref_seq.len() + task.read_bases() / 4 + 64;
        let mut g = Dbg::new(k, capacity);
        g.add_seq(&task.ref_seq, 1, true, probe);
        for rec in &task.reads {
            g.add_seq(&rec.read.seq, 1, false, probe);
        }
        total_lookups += g.lookups;
        let cyclic = g.has_cycle(params.min_edge_weight);
        if cyclic && k + params.k_step <= params.max_k {
            cycles_hit += 1;
            k += params.k_step;
            continue;
        }
        // Source/sink: first and last reference k-mer.
        let haplotypes = if task.ref_seq.len() >= k && !cyclic {
            let mut kmers = task.ref_seq.kmers(k);
            let first = kmers.next().map(|(_, km)| km);
            let last = task.ref_seq.kmers(k).last().map(|(_, km)| km);
            match (first, last) {
                (Some(f), Some(l)) => {
                    let source = g.table.get(f).expect("ref kmer present") as usize;
                    let sink = g.table.get(l).expect("ref kmer present") as usize;
                    let max_len = task.ref_seq.len() * 2 + 64;
                    let mut haps = g.haplotypes(
                        source,
                        sink,
                        params.min_edge_weight,
                        params.max_haplotypes,
                        max_len,
                    );
                    // Reference haplotype first, then alternates.
                    haps.sort_by_key(|h| (*h != task.ref_seq, h.len()));
                    if haps.first() != Some(&task.ref_seq) {
                        haps.insert(0, task.ref_seq.clone());
                    }
                    haps
                }
                _ => vec![task.ref_seq.clone()],
            }
        } else {
            // Cyclic even at max k, or region shorter than k: fall back to
            // the reference alone (what the callers do).
            vec![task.ref_seq.clone()]
        };
        return DbgResult {
            haplotypes,
            k_used: k,
            nodes: g.kmers.len(),
            hash_lookups: total_lookups,
            cycles_hit,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_core::cigar::{Cigar, CigarOp};
    use gb_core::quality::Phred;
    use gb_core::record::{AlignmentRecord, ReadRecord, Strand};
    use gb_core::region::Region;
    use gb_core::rng::Rng;

    fn mkread(seq: DnaSeq, pos: usize) -> AlignmentRecord {
        let mut cigar = Cigar::new();
        cigar.push(seq.len() as u32, CigarOp::Match);
        let rec = ReadRecord::with_uniform_quality("r", seq, Phred::new(30));
        AlignmentRecord::new(rec, 0, pos, cigar, 60, Strand::Forward).unwrap()
    }

    fn region(ref_seq: &DnaSeq, reads: Vec<AlignmentRecord>) -> RegionTask {
        RegionTask {
            region: Region::new(0, 0, ref_seq.len()),
            ref_seq: ref_seq.clone(),
            reads,
        }
    }

    fn random_ref(len: usize, seed: u64) -> DnaSeq {
        let mut rng = Rng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(0..4u8)).collect()
    }

    #[test]
    fn reference_only_yields_reference_haplotype() {
        let r = random_ref(120, 3);
        let res = assemble_region(&region(&r, vec![]), &DbgParams::default());
        assert_eq!(res.haplotypes, vec![r]);
        assert_eq!(res.cycles_hit, 0);
    }

    #[test]
    fn supported_snv_creates_second_haplotype() {
        let r = random_ref(120, 5);
        // Reads carrying an SNV at position 60 with strong support.
        let mut alt = r.clone().into_codes();
        alt[60] = (alt[60] + 1) % 4;
        let alt = DnaSeq::from_codes_unchecked(alt);
        let reads: Vec<AlignmentRecord> = (0..6)
            .map(|i| mkread(alt.slice(30 + i, 95 + i), 30 + i))
            .collect();
        let res = assemble_region(&region(&r, reads), &DbgParams::default());
        assert!(
            res.haplotypes.len() >= 2,
            "haplotypes: {}",
            res.haplotypes.len()
        );
        assert_eq!(res.haplotypes[0], r);
        // One haplotype must contain the alt base in context.
        let alt_context = alt.slice(45, 76);
        let found = res
            .haplotypes
            .iter()
            .any(|h| h.to_string().contains(&alt_context.to_string()));
        assert!(found, "no haplotype carries the SNV");
    }

    #[test]
    fn unsupported_errors_are_pruned() {
        let r = random_ref(120, 7);
        // One read with a lone error: below min_edge_weight.
        let mut alt = r.clone().into_codes();
        alt[50] = (alt[50] + 2) % 4;
        let alt = DnaSeq::from_codes_unchecked(alt);
        let reads = vec![mkread(alt.slice(20, 90), 20)];
        let res = assemble_region(&region(&r, reads), &DbgParams::default());
        assert_eq!(res.haplotypes, vec![r]);
    }

    #[test]
    fn deletion_haplotype_is_shorter() {
        let r = random_ref(140, 9);
        let mut del = r.clone().into_codes();
        del.drain(60..66);
        let del = DnaSeq::from_codes_unchecked(del);
        let reads: Vec<AlignmentRecord> = (0..5)
            .map(|i| mkread(del.slice(20 + i, 110 + i), 20 + i))
            .collect();
        let res = assemble_region(&region(&r, reads), &DbgParams::default());
        assert!(
            res.haplotypes.iter().any(|h| h.len() == r.len() - 6),
            "{:?}",
            res.haplotypes.iter().map(DnaSeq::len).collect::<Vec<_>>()
        );
    }

    #[test]
    fn tandem_repeat_forces_k_escalation() {
        // A repeat of period 8 puts cycles in any k < 8 graph... but our
        // min k is 15, so use period 20 > 15.
        let unit = random_ref(20, 11);
        let mut codes = Vec::new();
        for _ in 0..4 {
            codes.extend_from_slice(unit.as_codes());
        }
        codes.extend_from_slice(random_ref(40, 13).as_codes());
        let r = DnaSeq::from_codes_unchecked(codes);
        let res = assemble_region(
            &region(&r, vec![]),
            &DbgParams {
                k: 15,
                ..DbgParams::default()
            },
        );
        assert!(
            res.cycles_hit >= 1,
            "expected escalation, cycles_hit = {}",
            res.cycles_hit
        );
        assert!(res.k_used > 15);
        assert_eq!(res.haplotypes[0], r);
    }

    #[test]
    fn lookups_scale_with_read_bases() {
        let r = random_ref(200, 15);
        let few = region(&r, (0..2).map(|i| mkread(r.slice(i, 150 + i), i)).collect());
        let many = region(
            &r,
            (0..20).map(|i| mkread(r.slice(i, 150 + i), i)).collect(),
        );
        let p = DbgParams::default();
        let a = assemble_region(&few, &p);
        let b = assemble_region(&many, &p);
        assert!(b.hash_lookups > a.hash_lookups * 3);
    }

    #[test]
    fn short_region_falls_back_to_reference() {
        let r = random_ref(10, 17);
        let res = assemble_region(&region(&r, vec![]), &DbgParams::default());
        assert_eq!(res.haplotypes, vec![r]);
    }
}
