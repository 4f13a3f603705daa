//! Building region tasks: the (reference window, aligned reads) work units
//! consumed by the dbg, phmm and pileup kernels.

use crate::genome::Genome;
use crate::reads::{simulate_reads, ReadSimConfig, SimulatedRead};
use crate::variants::{inject_variants, DiploidSample, VariantConfig};
use gb_core::record::AlignmentRecord;
use gb_core::region::{Region, RegionTask};
use gb_core::rng::Rng;

/// Configuration for [`build_region_tasks`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionSimConfig {
    /// Window length per task (the paper's dbg/phmm regions are
    /// ~100–1000 bases; pileup uses 100 kb).
    pub region_len: usize,
    /// Mean sequencing coverage (the paper's datasets are 30–50x).
    pub coverage: f64,
    /// Read simulation parameters.
    pub reads: ReadSimConfig,
    /// Variants injected into the sample before sequencing.
    pub variants: VariantConfig,
    /// Fraction of reads concentrated into random hotspot regions,
    /// reproducing the per-task work imbalance of the paper's Fig. 4
    /// (phmm regions vary by up to 1000x).
    pub hotspot_fraction: f64,
}

impl Default for RegionSimConfig {
    fn default() -> RegionSimConfig {
        RegionSimConfig {
            region_len: 500,
            coverage: 30.0,
            reads: ReadSimConfig::short(0), // num_reads derived from coverage
            variants: VariantConfig::default(),
            hotspot_fraction: 0.1,
        }
    }
}

/// A generated variant-calling workload: the reference, the diploid truth
/// and the per-region tasks.
#[derive(Debug, Clone)]
pub struct RegionWorkload {
    /// The reference genome the tasks are defined on.
    pub genome: Genome,
    /// The sample the reads came from (haplotypes + truth set).
    pub sample: DiploidSample,
    /// One task per reference window, in genome order.
    pub tasks: Vec<RegionTask>,
}

/// Simulates a diploid sample over `genome` and buckets the resulting
/// alignments into fixed-width region tasks.
///
/// Reads are drawn from the two sample haplotypes but *placed* at their
/// reference coordinates (alignment-by-construction with all-match
/// CIGARs); the base-level differences the CIGAR does not describe are
/// exactly the alignment artifacts the dbg kernel re-assembles to find.
///
/// # Examples
///
/// ```
/// use gb_datagen::genome::{Genome, GenomeConfig};
/// use gb_datagen::regions::{build_region_tasks, RegionSimConfig};
/// let g = Genome::generate(&GenomeConfig { length: 20_000, ..Default::default() }, 1);
/// let w = build_region_tasks(&g, &RegionSimConfig::default(), 2);
/// assert_eq!(w.tasks.len(), 40);
/// assert!(w.tasks.iter().any(|t| !t.reads.is_empty()));
/// ```
pub fn build_region_tasks(genome: &Genome, config: &RegionSimConfig, seed: u64) -> RegionWorkload {
    let mut rng = Rng::seed_from_u64(seed);
    let reference = genome.contig(0);
    let sample = inject_variants(reference, &config.variants, rng.gen());

    // Sequence both haplotypes at half coverage each.
    let total_bases = (reference.len() as f64 * config.coverage) as usize;
    let read_len = config.reads.read_len.max(1);
    let num_reads = (total_bases / read_len).max(1);
    let mut alignments: Vec<AlignmentRecord> = Vec::with_capacity(num_reads);
    for (hi, hap) in sample.haplotypes().iter().enumerate() {
        let hap_genome = Genome::from_contigs(vec![(*hap).clone()]);
        let cfg = ReadSimConfig {
            num_reads: num_reads / 2,
            ..config.reads
        };
        let mut sims = simulate_reads(&hap_genome, &cfg, rng.gen());
        // Hotspot skew: re-home a fraction of reads to a few hot windows.
        let n_hot = 3usize;
        let hots: Vec<usize> = (0..n_hot)
            .map(|_| rng.gen_range(0..hap.len().saturating_sub(read_len).max(1)))
            .collect();
        for s in sims.iter_mut() {
            if rng.gen::<f64>() < config.hotspot_fraction {
                let h = hots[rng.gen_range(0..n_hot)];
                let jitter = rng.gen_range(0..200usize);
                s.true_pos = (h + jitter).min(hap.len().saturating_sub(s.record.len()));
            }
        }
        for s in &sims {
            alignments.push(haplotype_read_to_alignment(s, hi, reference.len()));
        }
    }

    // Bucket alignments into windows.
    let regions = Region::tile(0, reference.len(), config.region_len);
    let mut tasks: Vec<RegionTask> = regions
        .iter()
        .map(|&region| RegionTask {
            region,
            ref_seq: reference.slice(region.start, region.end),
            reads: Vec::new(),
        })
        .collect();
    for a in alignments {
        let idx = a.pos / config.region_len;
        if let Some(t) = tasks.get_mut(idx) {
            t.reads.push(a);
        }
    }
    RegionWorkload {
        genome: genome.clone(),
        sample,
        tasks,
    }
}

/// Places a haplotype-simulated read at its (approximate) reference
/// coordinate with an all-match CIGAR, like a mapper that smooths over
/// small indels.
fn haplotype_read_to_alignment(
    sim: &SimulatedRead,
    hap_index: usize,
    ref_len: usize,
) -> AlignmentRecord {
    let mut a = sim.to_alignment();
    // Haplotype coordinates drift from reference coordinates by the net
    // indel length upstream; for the small indel rates used here the
    // drift is bounded by a few tens of bases, which the region bucketing
    // tolerates. Clamp within the reference.
    a.pos = a.pos.min(ref_len.saturating_sub(1));
    let mut cigar = gb_core::cigar::Cigar::new();
    cigar.push(a.read.len() as u32, gb_core::cigar::CigarOp::Match);
    a.cigar = cigar;
    a.read.name = format!("{}_h{}", a.read.name, hap_index);
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::GenomeConfig;

    fn workload() -> RegionWorkload {
        let g = Genome::generate(
            &GenomeConfig {
                length: 30_000,
                ..Default::default()
            },
            5,
        );
        build_region_tasks(&g, &RegionSimConfig::default(), 6)
    }

    #[test]
    fn coverage_is_roughly_right() {
        let w = workload();
        let total_read_bases: usize = w.tasks.iter().map(RegionTask::read_bases).sum();
        let cov = total_read_bases as f64 / 30_000.0;
        assert!(cov > 15.0 && cov < 45.0, "coverage {cov}");
    }

    #[test]
    fn reads_land_in_their_region() {
        let w = workload();
        for t in &w.tasks {
            for r in &t.reads {
                assert!(r.pos >= t.region.start && r.pos < t.region.end);
            }
        }
    }

    #[test]
    fn hotspots_create_imbalance() {
        let g = Genome::generate(
            &GenomeConfig {
                length: 50_000,
                ..Default::default()
            },
            7,
        );
        let cfg = RegionSimConfig {
            hotspot_fraction: 0.4,
            ..Default::default()
        };
        let w = build_region_tasks(&g, &cfg, 8);
        let sizes: Vec<usize> = w.tasks.iter().map(|t| t.reads.len()).collect();
        let max = *sizes.iter().max().unwrap() as f64;
        let mean = sizes.iter().sum::<usize>() as f64 / sizes.len() as f64;
        assert!(
            max / mean > 3.0,
            "imbalance too small: max {max}, mean {mean}"
        );
    }

    #[test]
    fn deterministic() {
        let g = Genome::generate(
            &GenomeConfig {
                length: 10_000,
                ..Default::default()
            },
            1,
        );
        let a = build_region_tasks(&g, &RegionSimConfig::default(), 3);
        let b = build_region_tasks(&g, &RegionSimConfig::default(), 3);
        assert_eq!(a.tasks.len(), b.tasks.len());
        for (x, y) in a.tasks.iter().zip(&b.tasks) {
            assert_eq!(x.reads.len(), y.reads.len());
        }
    }
}
