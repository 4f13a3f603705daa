//! Pileup counting — the **pileup** kernel.
//!
//! Medaka-style neural variant calling starts by parsing every alignment
//! overlapping a reference region and tallying, per reference position,
//! the support for each base on each strand plus insertion/deletion
//! support. The work is CIGAR-walking with random accesses into both the
//! alignment records and the counts array — the source of the kernel's
//! memory stalls in the paper's Fig. 9.

use gb_core::cigar::CigarOp;
use gb_core::record::{AlignmentRecord, Strand};
use gb_core::region::{Region, RegionTask};
use gb_uarch::probe::{addr_of, NullProbe, Probe};

/// Per-position pileup counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PosCounts {
    /// Base support per 2-bit code, forward strand.
    pub base_fwd: [u32; 4],
    /// Base support per 2-bit code, reverse strand.
    pub base_rev: [u32; 4],
    /// Insertions starting after this position (forward strand).
    pub ins_fwd: u32,
    /// Insertions starting after this position (reverse strand).
    pub ins_rev: u32,
    /// Deletions covering this position (forward strand).
    pub del_fwd: u32,
    /// Deletions covering this position (reverse strand).
    pub del_rev: u32,
}

impl PosCounts {
    /// Total read depth (aligned bases + deletions) at this position.
    pub fn depth(&self) -> u32 {
        self.base_fwd.iter().sum::<u32>()
            + self.base_rev.iter().sum::<u32>()
            + self.del_fwd
            + self.del_rev
    }
}

/// The pileup of one region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pileup {
    /// The region these counts cover.
    pub region: Region,
    /// One counter block per reference position in the region.
    pub counts: Vec<PosCounts>,
    /// CIGAR operations walked (the kernel's work measure).
    pub ops_walked: u64,
}

impl Pileup {
    /// Counts at reference position `pos`, or `None` outside the region.
    pub fn at(&self, pos: usize) -> Option<&PosCounts> {
        if self.region.contains(pos) {
            self.counts.get(pos - self.region.start)
        } else {
            None
        }
    }
}

/// Builds the pileup for one region task.
///
/// # Examples
///
/// ```
/// use gb_core::{cigar::Cigar, quality::Phred, record::*, region::*, seq::DnaSeq};
/// use gb_pileup::pileup::count_pileup;
/// let ref_seq: DnaSeq = "ACGTACGT".parse()?;
/// let read = ReadRecord::with_uniform_quality("r", "CGTA".parse()?, Phred::new(30));
/// let aln = AlignmentRecord::new(read, 0, 1, "4M".parse()?, 60, Strand::Forward)?;
/// let task = RegionTask { region: Region::new(0, 0, 8), ref_seq, reads: vec![aln] };
/// let p = count_pileup(&task);
/// assert_eq!(p.at(1).unwrap().base_fwd[1], 1); // C at position 1
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn count_pileup(task: &RegionTask) -> Pileup {
    count_pileup_probed(task, &mut NullProbe)
}

/// [`count_pileup`] with instrumentation.
pub fn count_pileup_probed<P: Probe>(task: &RegionTask, probe: &mut P) -> Pileup {
    let region = task.region;
    let mut counts = vec![PosCounts::default(); region.len()];
    let mut ops_walked = 0u64;
    for rec in &task.reads {
        if !rec.overlaps(region.start, region.end) {
            continue;
        }
        walk_alignment(rec, &region, &mut counts, &mut ops_walked, probe);
    }
    Pileup {
        region,
        counts,
        ops_walked,
    }
}

// PANIC-FREE: `codes[step.query_off]` is in range because CIGAR walks are
// validated against the read length at record construction, and
// `counts[idx]` is guarded by the `region.contains` check above it.
fn walk_alignment<P: Probe>(
    rec: &AlignmentRecord,
    region: &Region,
    counts: &mut [PosCounts],
    ops_walked: &mut u64,
    probe: &mut P,
) {
    let fwd = rec.strand == Strand::Forward;
    let codes = rec.read.seq.as_codes();
    probe.load(addr_of(rec), 32);
    for step in rec.cigar.walk() {
        *ops_walked += 1;
        probe.int_ops(3);
        let ref_pos = rec.pos + step.ref_off;
        if !region.contains(ref_pos) {
            // Insertions anchor to the previous reference position; all
            // other ops simply fall outside.
            probe.branch(false);
            if step.op != CigarOp::Ins || ref_pos != region.end {
                continue;
            }
        }
        probe.branch(true);
        match step.op {
            CigarOp::Match => {
                let base = codes[step.query_off];
                probe.load(addr_of(&codes[step.query_off]), 1);
                let idx = ref_pos - region.start;
                let slot = &mut counts[idx];
                if fwd {
                    slot.base_fwd[base as usize] += 1;
                } else {
                    slot.base_rev[base as usize] += 1;
                }
                probe.store(addr_of(slot), 4);
            }
            CigarOp::Ins => {
                // Anchor at the preceding reference position.
                let anchor = ref_pos.saturating_sub(1);
                if region.contains(anchor) {
                    let slot = &mut counts[anchor - region.start];
                    if fwd {
                        slot.ins_fwd += 1;
                    } else {
                        slot.ins_rev += 1;
                    }
                    probe.store(addr_of(slot), 4);
                }
            }
            CigarOp::Del => {
                let slot = &mut counts[ref_pos - region.start];
                if fwd {
                    slot.del_fwd += 1;
                } else {
                    slot.del_rev += 1;
                }
                probe.store(addr_of(slot), 4);
            }
            CigarOp::SoftClip => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_core::cigar::Cigar;
    use gb_core::quality::Phred;
    use gb_core::record::ReadRecord;
    use gb_core::seq::DnaSeq;

    fn aln(seq: &str, pos: usize, cigar: &str, strand: Strand) -> AlignmentRecord {
        let read =
            ReadRecord::with_uniform_quality("r", seq.parse::<DnaSeq>().unwrap(), Phred::new(30));
        let cig: Cigar = cigar.parse().unwrap();
        AlignmentRecord::new(read, 0, pos, cig, 60, strand).unwrap()
    }

    fn task(reads: Vec<AlignmentRecord>, start: usize, end: usize) -> RegionTask {
        let ref_seq = DnaSeq::from_codes_unchecked(vec![0; end - start]);
        RegionTask {
            region: Region::new(0, start, end),
            ref_seq,
            reads,
        }
    }

    #[test]
    fn simple_match_counts() {
        let t = task(vec![aln("ACGT", 2, "4M", Strand::Forward)], 0, 10);
        let p = count_pileup(&t);
        assert_eq!(p.at(2).unwrap().base_fwd, [1, 0, 0, 0]);
        assert_eq!(p.at(3).unwrap().base_fwd, [0, 1, 0, 0]);
        assert_eq!(p.at(5).unwrap().base_fwd, [0, 0, 0, 1]);
        assert_eq!(p.at(6).unwrap().depth(), 0);
        assert_eq!(p.ops_walked, 4);
    }

    #[test]
    fn strands_tally_separately() {
        let t = task(
            vec![
                aln("AAAA", 0, "4M", Strand::Forward),
                aln("AAAA", 0, "4M", Strand::Reverse),
            ],
            0,
            4,
        );
        let p = count_pileup(&t);
        assert_eq!(p.at(0).unwrap().base_fwd[0], 1);
        assert_eq!(p.at(0).unwrap().base_rev[0], 1);
        assert_eq!(p.at(0).unwrap().depth(), 2);
    }

    #[test]
    fn insertion_anchors_to_previous_position() {
        // 2M 2I 2M: insertion after reference position 4+1 = offset 1.
        let t = task(vec![aln("AACCGG", 4, "2M2I2M", Strand::Forward)], 0, 10);
        let p = count_pileup(&t);
        assert_eq!(p.at(5).unwrap().ins_fwd, 2);
        assert_eq!(p.at(6).unwrap().base_fwd[2], 1); // G after insertion
    }

    #[test]
    fn deletion_covers_positions() {
        let t = task(vec![aln("AAAA", 0, "2M3D2M", Strand::Forward)], 0, 10);
        let p = count_pileup(&t);
        for pos in 2..5 {
            assert_eq!(p.at(pos).unwrap().del_fwd, 1, "pos {pos}");
            assert_eq!(p.at(pos).unwrap().depth(), 1);
        }
        assert_eq!(p.at(5).unwrap().base_fwd[0], 1);
    }

    #[test]
    fn soft_clips_are_skipped() {
        let t = task(vec![aln("CCAAAACC", 3, "2S4M2S", Strand::Forward)], 0, 10);
        let p = count_pileup(&t);
        assert_eq!(p.at(3).unwrap().base_fwd[0], 1);
        assert_eq!(p.at(2).unwrap().depth(), 0);
        assert_eq!(p.at(7).unwrap().depth(), 0);
    }

    #[test]
    fn region_boundary_clips_counts() {
        // Read spans positions 8..16 but region is [10, 14).
        let t = task(vec![aln("AAAAAAAA", 8, "8M", Strand::Forward)], 10, 14);
        let p = count_pileup(&t);
        assert_eq!(p.counts.iter().map(PosCounts::depth).sum::<u32>(), 4);
        assert!(p.at(9).is_none());
        assert!(p.at(14).is_none());
    }

    #[test]
    fn non_overlapping_reads_skipped_entirely() {
        let t = task(vec![aln("AAAA", 50, "4M", Strand::Forward)], 0, 10);
        let p = count_pileup(&t);
        assert_eq!(p.ops_walked, 0);
    }

    #[test]
    fn depth_matches_coverage_on_simulated_data() {
        use gb_datagen::genome::{Genome, GenomeConfig};
        use gb_datagen::reads::{simulate_reads, ReadSimConfig};
        let g = Genome::generate(
            &GenomeConfig {
                length: 5000,
                ..Default::default()
            },
            31,
        );
        let cfg = ReadSimConfig::short(300);
        let reads: Vec<AlignmentRecord> = simulate_reads(&g, &cfg, 32)
            .iter()
            .map(|r| r.to_alignment())
            .collect();
        let t = RegionTask {
            region: Region::new(0, 1000, 3000),
            ref_seq: g.contig(0).slice(1000, 3000),
            reads,
        };
        let p = count_pileup(&t);
        let mean_depth: f64 = p.counts.iter().map(|c| f64::from(c.depth())).sum::<f64>() / 2000.0;
        // 300 reads x 151 bp over 5 kb = ~9x coverage.
        assert!(
            mean_depth > 5.0 && mean_depth < 13.0,
            "mean depth {mean_depth}"
        );
    }
}
