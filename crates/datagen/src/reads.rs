//! Read simulators: Illumina-like short reads and ONT-like long reads.
//!
//! These replace the paper's SRR7733443 human short reads, PacBio
//! *C. elegans* reads and ONT NA12878/*S. aureus* reads. The simulators
//! are aligned-by-construction: each read remembers its true origin, which
//! lets downstream stages build alignment records without running a full
//! mapper, and lets tests verify mapper output.

use crate::genome::Genome;
use gb_core::cigar::{Cigar, CigarOp};
use gb_core::quality::Phred;
use gb_core::record::{AlignmentRecord, ReadRecord, Strand};
use gb_core::rng::Rng;
use gb_core::seq::DnaSeq;

/// Error profile of a simulated sequencing technology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorProfile {
    /// Per-base substitution probability.
    pub sub_rate: f64,
    /// Per-base insertion probability.
    pub ins_rate: f64,
    /// Per-base deletion probability.
    pub del_rate: f64,
}

impl ErrorProfile {
    /// Illumina-like: substitution-dominated, ~0.3% total error.
    pub fn illumina() -> ErrorProfile {
        ErrorProfile {
            sub_rate: 0.002,
            ins_rate: 0.0002,
            del_rate: 0.0002,
        }
    }

    /// ONT-like: 5–15% error with indels prominent; this picks ~9%.
    pub fn nanopore() -> ErrorProfile {
        ErrorProfile {
            sub_rate: 0.03,
            ins_rate: 0.03,
            del_rate: 0.03,
        }
    }

    /// No errors (for exact-match tests).
    pub fn perfect() -> ErrorProfile {
        ErrorProfile {
            sub_rate: 0.0,
            ins_rate: 0.0,
            del_rate: 0.0,
        }
    }

    /// Total per-base error probability.
    pub fn total(&self) -> f64 {
        self.sub_rate + self.ins_rate + self.del_rate
    }
}

/// Configuration of a read simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadSimConfig {
    /// Number of reads to draw.
    pub num_reads: usize,
    /// Mean read length (exact for short reads; mean of a geometric-ish
    /// mixture for long reads when `length_jitter > 0`).
    pub read_len: usize,
    /// Relative length spread in `[0, 1)`: lengths are drawn uniformly
    /// from `read_len * (1 ± jitter)`.
    pub length_jitter: f64,
    /// Error profile applied to each base.
    pub errors: ErrorProfile,
    /// Probability that a read comes from the reverse strand.
    pub revcomp_prob: f64,
}

impl ReadSimConfig {
    /// 151-bp Illumina-like reads (the paper's fmi/bsw datasets).
    pub fn short(num_reads: usize) -> ReadSimConfig {
        ReadSimConfig {
            num_reads,
            read_len: 151,
            length_jitter: 0.0,
            errors: ErrorProfile::illumina(),
            revcomp_prob: 0.5,
        }
    }

    /// Long noisy ONT-like reads (the paper's chain/spoa/abea datasets),
    /// scaled-down default of 3 kb mean length.
    pub fn long(num_reads: usize) -> ReadSimConfig {
        ReadSimConfig {
            num_reads,
            read_len: 3000,
            length_jitter: 0.6,
            errors: ErrorProfile::nanopore(),
            revcomp_prob: 0.5,
        }
    }
}

/// A simulated read with its ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedRead {
    /// The read as a sequencer would emit it.
    pub record: ReadRecord,
    /// Contig of origin.
    pub ref_id: usize,
    /// True 0-based start on the contig.
    pub true_pos: usize,
    /// True strand.
    pub strand: Strand,
    /// CIGAR describing the read against the reference (forward
    /// orientation, before any reverse-complementing).
    pub true_cigar: Cigar,
}

impl SimulatedRead {
    /// Converts the ground truth into an [`AlignmentRecord`] (a perfect
    /// mapper's output), with the stored read strand-corrected as in BAM.
    pub fn to_alignment(&self) -> AlignmentRecord {
        let mut read = self.record.clone();
        if self.strand == Strand::Reverse {
            let quals: Vec<Phred> = read.quals().iter().rev().copied().collect();
            read = ReadRecord::new(read.name.clone(), read.seq.reverse_complement(), quals)
                .expect("lengths preserved by reversal");
        }
        AlignmentRecord::new(
            read,
            self.ref_id,
            self.true_pos,
            self.true_cigar.clone(),
            60,
            self.strand,
        )
        .expect("simulator CIGAR matches read length")
    }
}

/// Draws `config.num_reads` reads from `genome`, deterministically from
/// `seed`.
///
/// # Examples
///
/// ```
/// use gb_datagen::genome::{Genome, GenomeConfig};
/// use gb_datagen::reads::{simulate_reads, ReadSimConfig};
/// let g = Genome::generate(&GenomeConfig { length: 20_000, ..Default::default() }, 1);
/// let reads = simulate_reads(&g, &ReadSimConfig::short(100), 2);
/// assert_eq!(reads.len(), 100);
/// // Indel errors can shift lengths by a base or two around the target.
/// assert!(reads.iter().all(|r| (145..=157).contains(&r.record.len())));
/// ```
pub fn simulate_reads(genome: &Genome, config: &ReadSimConfig, seed: u64) -> Vec<SimulatedRead> {
    let mut rng = Rng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(config.num_reads);
    for i in 0..config.num_reads {
        out.push(simulate_one(genome, config, i, &mut rng));
    }
    out
}

fn simulate_one(
    genome: &Genome,
    config: &ReadSimConfig,
    idx: usize,
    rng: &mut Rng,
) -> SimulatedRead {
    let jitter = config.length_jitter.clamp(0.0, 0.99);
    let min_len = ((config.read_len as f64) * (1.0 - jitter)).max(20.0) as usize;
    let max_len = ((config.read_len as f64) * (1.0 + jitter)) as usize;
    let target_len = if max_len > min_len {
        rng.gen_range(min_len..=max_len)
    } else {
        min_len
    };

    // Pick a contig long enough, weighted by length.
    let total: usize = genome.contigs().iter().map(|c| c.len()).sum();
    let mut pick = rng.gen_range(0..total);
    let mut ref_id = 0;
    for (ci, c) in genome.contigs().iter().enumerate() {
        if pick < c.len() {
            ref_id = ci;
            break;
        }
        pick -= c.len();
    }
    let contig = genome.contig(ref_id);
    let span = target_len.min(contig.len());
    let start = if contig.len() > span {
        rng.gen_range(0..=contig.len() - span)
    } else {
        0
    };

    // Walk the reference span applying errors; build read + CIGAR.
    let mut codes = Vec::with_capacity(span + 8);
    let mut cigar = Cigar::new();
    let mut rpos = start;
    let end = start + span;
    while rpos < end {
        let e: f64 = rng.gen();
        if e < config.errors.del_rate {
            cigar.push(1, CigarOp::Del);
            rpos += 1;
        } else if e < config.errors.del_rate + config.errors.ins_rate {
            codes.push(rng.gen_range(0..4u8));
            cigar.push(1, CigarOp::Ins);
        } else {
            let base = contig.code_at(rpos);
            let b = if e < config.errors.del_rate + config.errors.ins_rate + config.errors.sub_rate
            {
                // Substitution to a different base.
                (base + rng.gen_range(1..4u8)) % 4
            } else {
                base
            };
            codes.push(b);
            cigar.push(1, CigarOp::Match);
            rpos += 1;
        }
    }
    if codes.is_empty() {
        // Degenerate all-deleted read; emit one matched base.
        codes.push(contig.code_at(start));
        cigar = Cigar::new();
        cigar.push(1, CigarOp::Match);
    }

    // Qualities: high in the middle, decaying toward the 3' end like real
    // Illumina profiles; long reads get a flat noisy quality.
    let n = codes.len();
    let quals: Vec<Phred> = (0..n)
        .map(|p| {
            let base_q = if config.errors.total() < 0.01 {
                37.0
            } else {
                12.0
            };
            let decay = if config.errors.total() < 0.01 {
                12.0 * (p as f64 / n as f64)
            } else {
                0.0
            };
            let noise: f64 = rng.gen_range(-2.0..2.0);
            Phred::new((base_q - decay + noise).clamp(2.0, 41.0) as u8)
        })
        .collect();

    let strand = if rng.gen::<f64>() < config.revcomp_prob {
        Strand::Reverse
    } else {
        Strand::Forward
    };
    let fwd_seq = DnaSeq::from_codes_unchecked(codes);
    let (seq, quals) = match strand {
        Strand::Forward => (fwd_seq, quals),
        Strand::Reverse => (
            fwd_seq.reverse_complement(),
            quals.into_iter().rev().collect(),
        ),
    };
    let record = ReadRecord::new(format!("read{idx}"), seq, quals).expect("same lengths");
    SimulatedRead {
        record,
        ref_id,
        true_pos: start,
        strand,
        true_cigar: cigar,
    }
}

/// A simulated paired-end fragment: two reads from opposite ends of one
/// insert, inner-facing (Illumina FR orientation).
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedPair {
    /// Forward-strand mate (5' end of the insert).
    pub r1: SimulatedRead,
    /// Reverse-strand mate (3' end of the insert).
    pub r2: SimulatedRead,
    /// True insert (outer fragment) length.
    pub insert_len: usize,
}

/// Draws paired-end fragments: each pair shares an insert of
/// `insert_mean ± insert_sd` (uniform window), with `config.read_len`
/// mates at either end.
///
/// # Panics
///
/// Panics if the genome's first contig is shorter than the maximum
/// insert.
pub fn simulate_pairs(
    genome: &Genome,
    config: &ReadSimConfig,
    insert_mean: usize,
    insert_sd: usize,
    seed: u64,
) -> Vec<SimulatedPair> {
    let mut rng = Rng::seed_from_u64(seed);
    let contig = genome.contig(0);
    let max_insert = insert_mean + 2 * insert_sd;
    assert!(
        contig.len() > max_insert,
        "contig shorter than the maximum insert"
    );
    let mut out = Vec::with_capacity(config.num_reads / 2);
    for i in 0..config.num_reads / 2 {
        let lo = insert_mean
            .saturating_sub(2 * insert_sd)
            .max(config.read_len);
        let insert_len = rng.gen_range(lo..=max_insert);
        let start = rng.gen_range(0..contig.len() - insert_len);
        // Each mate is simulated over exactly its end of the insert, so
        // the simulator's forced start-0 pins it there.
        let one = |src_start: usize, revcomp: bool, which: &str, rng: &mut Rng| {
            let src = contig.slice(src_start, src_start + config.read_len);
            let sub_genome = Genome::from_contigs(vec![src]);
            let cfg = ReadSimConfig {
                num_reads: 1,
                length_jitter: 0.0,
                revcomp_prob: if revcomp { 1.0 } else { 0.0 },
                ..*config
            };
            let mut r = simulate_reads(&sub_genome, &cfg, rng.gen()).remove(0);
            r.true_pos += src_start; // back to genome coordinates
            r.record.name = format!("pair{i}/{which}");
            r
        };
        let r1 = one(start, false, "1", &mut rng);
        let r2 = one(start + insert_len - config.read_len, true, "2", &mut rng);
        out.push(SimulatedPair { r1, r2, insert_len });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::GenomeConfig;

    fn genome() -> Genome {
        Genome::generate(
            &GenomeConfig {
                length: 30_000,
                ..Default::default()
            },
            11,
        )
    }

    #[test]
    fn deterministic() {
        let g = genome();
        let a = simulate_reads(&g, &ReadSimConfig::short(20), 5);
        let b = simulate_reads(&g, &ReadSimConfig::short(20), 5);
        assert_eq!(a, b);
    }

    #[test]
    fn perfect_reads_match_reference() {
        let g = genome();
        let cfg = ReadSimConfig {
            errors: ErrorProfile::perfect(),
            revcomp_prob: 0.0,
            ..ReadSimConfig::short(50)
        };
        for r in simulate_reads(&g, &cfg, 9) {
            let refpart = g
                .contig(r.ref_id)
                .slice(r.true_pos, r.true_pos + r.record.len());
            assert_eq!(r.record.seq, refpart);
        }
    }

    #[test]
    fn reverse_reads_match_after_revcomp() {
        let g = genome();
        let cfg = ReadSimConfig {
            errors: ErrorProfile::perfect(),
            revcomp_prob: 1.0,
            ..ReadSimConfig::short(20)
        };
        for r in simulate_reads(&g, &cfg, 13) {
            assert_eq!(r.strand, Strand::Reverse);
            let refpart = g
                .contig(r.ref_id)
                .slice(r.true_pos, r.true_pos + r.record.len());
            assert_eq!(r.record.seq.reverse_complement(), refpart);
        }
    }

    #[test]
    fn error_rate_in_expected_range() {
        let g = genome();
        let cfg = ReadSimConfig {
            revcomp_prob: 0.0,
            ..ReadSimConfig::long(40)
        };
        let reads = simulate_reads(&g, &cfg, 21);
        let mut errs = 0usize;
        let mut bases = 0usize;
        for r in &reads {
            for (len, op) in r.true_cigar.ops() {
                bases += *len as usize;
                if *op != CigarOp::Match {
                    errs += *len as usize;
                }
            }
            // Matches can still be substitutions; compare directly.
            let mut q = 0;
            let mut p = r.true_pos;
            for (len, op) in r.true_cigar.ops() {
                for _ in 0..*len {
                    match op {
                        CigarOp::Match => {
                            if r.record.seq.code_at(q) != g.contig(r.ref_id).code_at(p) {
                                errs += 1;
                            }
                            q += 1;
                            p += 1;
                        }
                        CigarOp::Ins | CigarOp::SoftClip => q += 1,
                        CigarOp::Del => p += 1,
                    }
                }
            }
        }
        let rate = errs as f64 / bases as f64;
        assert!(rate > 0.04 && rate < 0.16, "long-read error rate {rate}");
    }

    #[test]
    fn cigar_consumes_read_exactly() {
        let g = genome();
        for r in simulate_reads(&g, &ReadSimConfig::long(30), 3) {
            assert_eq!(r.true_cigar.query_len(), r.record.len());
            let align = r.to_alignment();
            assert!(align.end() <= g.contig(r.ref_id).len() + 1);
        }
    }

    #[test]
    fn paired_ends_bracket_their_insert() {
        let g = genome();
        let cfg = ReadSimConfig {
            errors: ErrorProfile::perfect(),
            ..ReadSimConfig::short(40) // 20 pairs
        };
        let pairs = simulate_pairs(&g, &cfg, 400, 50, 31);
        assert_eq!(pairs.len(), 20);
        for p in &pairs {
            assert!(
                (300..=500).contains(&p.insert_len),
                "insert {}",
                p.insert_len
            );
            assert_eq!(p.r1.strand, Strand::Forward);
            assert_eq!(p.r2.strand, Strand::Reverse);
            // Outer distance equals the insert.
            let outer = p.r2.true_pos + p.r2.true_cigar.ref_len() - p.r1.true_pos;
            assert_eq!(outer, p.insert_len);
            // Error-free mates match the reference at their positions.
            let c = g.contig(p.r1.ref_id);
            assert_eq!(p.r1.record.seq, c.slice(p.r1.true_pos, p.r1.true_pos + 151));
            assert_eq!(
                p.r2.record.seq.reverse_complement(),
                c.slice(p.r2.true_pos, p.r2.true_pos + 151)
            );
        }
    }

    #[test]
    fn pairs_are_deterministic() {
        let g = genome();
        let cfg = ReadSimConfig::short(10);
        assert_eq!(
            simulate_pairs(&g, &cfg, 300, 30, 7),
            simulate_pairs(&g, &cfg, 300, 30, 7)
        );
    }

    #[test]
    fn alignment_record_is_strand_corrected() {
        let g = genome();
        let cfg = ReadSimConfig {
            errors: ErrorProfile::perfect(),
            revcomp_prob: 1.0,
            ..ReadSimConfig::short(10)
        };
        for r in simulate_reads(&g, &cfg, 17) {
            let a = r.to_alignment();
            let refpart = g.contig(a.ref_id).slice(a.pos, a.end());
            assert_eq!(a.read.seq, refpart);
        }
    }
}
