//! The **pileup** kernel: per-region base/indel counting (paper §III,
//! from Medaka).

use super::{KernelId, KernelMeta, KernelSpec, TaskOut};
use crate::dataset::{seeds, DatasetSize};
use gb_core::record::AlignmentRecord;
use gb_core::region::{Region, RegionTask};
use gb_datagen::genome::{Genome, GenomeConfig};
use gb_datagen::reads::{simulate_reads, ReadSimConfig};
use gb_dp::DpEngine;
use gb_pileup::pileup::count_pileup_probed;
use gb_uarch::probe::Probe;
use std::sync::Arc;

/// Region width per task (the paper's 100-kilobase Medaka windows,
/// scaled to the synthetic genome).
const REGION_LEN: usize = 100_000;

/// Deterministic build product of the pileup prepare phase: the
/// alignments bucketed into 100-kb counting regions.
pub struct PileupSubstrate {
    tasks: Vec<RegionTask>,
}

impl gb_substrate::Codec for PileupSubstrate {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        gb_substrate::Codec::encode(&self.tasks, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<PileupSubstrate> {
        Some(PileupSubstrate {
            tasks: gb_substrate::Codec::decode(d)?,
        })
    }
}

/// Prepared pileup workload: alignments bucketed into fixed windows.
pub struct PileupKernel {
    sub: Arc<PileupSubstrate>,
}

impl KernelSpec for PileupKernel {
    type Substrate = PileupSubstrate;

    const META: KernelMeta = KernelMeta {
        id: KernelId::Pileup,
        name: "pileup",
        source_tool: "Medaka",
        pipeline: "de-novo assembly / polishing",
        motif: "record parsing, random access",
        granularity: Some(("genome region", "# record lookups")),
        cpu: true,
        work_unit: "pileup_ops",
        mlp_hint: 3.0,
        substrate_seed: seeds::GENOME ^ seeds::LONG_READS,
        uarch_budget: 1,
        engine_aware: false,
    };

    fn instantiate(sub: Arc<PileupSubstrate>, _engine: DpEngine) -> PileupKernel {
        PileupKernel { sub }
    }

    fn num_tasks(&self) -> usize {
        self.sub.tasks.len()
    }

    // PANIC-FREE: callers keep `i < num_tasks()`, the documented
    // `KernelSpec::task` contract.
    fn task<P: Probe>(&self, i: usize, probe: &mut P) -> TaskOut {
        let p = count_pileup_probed(&self.sub.tasks[i], probe);
        TaskOut {
            checksum: p.counts.iter().step_by(97).fold(p.ops_walked, |acc, c| {
                acc.wrapping_mul(31).wrapping_add(u64::from(c.depth()))
            }),
            work: p.ops_walked,
            ..TaskOut::default()
        }
    }

    /// Simulates ONT-like long-read alignments across the genome and
    /// tiles them into 100-kb counting regions.
    fn build_substrate(size: DatasetSize) -> PileupSubstrate {
        let genome_len = match size {
            DatasetSize::Tiny => 120_000,
            DatasetSize::Small => 1_200_000,
            DatasetSize::Large => 12_000_000,
        };
        let genome = Genome::generate(
            &GenomeConfig {
                length: genome_len,
                ..Default::default()
            },
            seeds::GENOME,
        );
        let coverage = 25usize;
        let mean_len = 3000usize;
        let num_reads = genome_len * coverage / mean_len;
        let cfg = ReadSimConfig {
            num_reads,
            ..ReadSimConfig::long(0)
        };
        let alignments: Vec<AlignmentRecord> = simulate_reads(&genome, &cfg, seeds::LONG_READS)
            .iter()
            .map(|r| r.to_alignment())
            .collect();
        let contig = genome.contig(0);
        let tasks = Region::tile(0, genome_len, REGION_LEN)
            .into_iter()
            .map(|region| {
                let reads = alignments
                    .iter()
                    .filter(|a| a.overlaps(region.start, region.end))
                    .cloned()
                    .collect();
                RegionTask {
                    region,
                    ref_seq: contig.slice(region.start, region.end),
                    reads,
                }
            })
            .collect();
        PileupSubstrate { tasks }
    }
}

impl PileupKernel {
    /// The region tasks (shared with the nn-variant front-end).
    pub fn tasks(&self) -> &[RegionTask] {
        &self.sub.tasks
    }
}

impl std::fmt::Debug for PileupKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PileupKernel")
            .field("regions", &self.sub.tasks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{run_parallel, run_serial};

    #[test]
    fn deterministic_across_threads() {
        let k = PileupKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        assert_eq!(run_serial(&k).checksum, run_parallel(&k, 4).checksum);
        assert_eq!(k.num_tasks(), 2);
    }

    #[test]
    fn coverage_lands_in_regions() {
        let k = PileupKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        assert!(k.task_work(0) > 100_000, "work {}", k.task_work(0));
    }
}
