//! The **nn-variant** kernel: neural variant calling (paper §III, from
//! Clair).

use super::{KernelId, KernelMeta, KernelSpec, TaskOut};
use crate::dataset::{seeds, DatasetSize};
use gb_core::record::AlignmentRecord;
use gb_core::region::{Region, RegionTask};
use gb_datagen::genome::{Genome, GenomeConfig};
use gb_datagen::reads::{simulate_reads, ReadSimConfig};
use gb_dp::DpEngine;
use gb_nn::variant_caller::{VariantCaller, VariantCallerConfig};
use gb_pileup::feature::{clair_tensor, ClairTensor};
use gb_pileup::pileup::count_pileup;
use gb_uarch::probe::Probe;
use std::sync::Arc;

/// Deterministic build product of the nn-variant prepare phase: the
/// initialized network weights and the candidate tensors.
pub struct NnVariantSubstrate {
    model: VariantCaller,
    tensors: Vec<ClairTensor>,
}

impl gb_substrate::Codec for NnVariantSubstrate {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        gb_substrate::Codec::encode(&self.model, e);
        gb_substrate::Codec::encode(&self.tensors, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<NnVariantSubstrate> {
        Some(NnVariantSubstrate {
            model: gb_substrate::Codec::decode(d)?,
            tensors: gb_substrate::Codec::decode(d)?,
        })
    }
}

/// Prepared nn-variant workload: Clair tensors for candidate positions.
pub struct NnVariantKernel {
    sub: Arc<NnVariantSubstrate>,
}

impl KernelSpec for NnVariantKernel {
    type Substrate = NnVariantSubstrate;

    const META: KernelMeta = KernelMeta {
        id: KernelId::NnVariant,
        name: "nn-variant",
        source_tool: "Clair",
        pipeline: "reference-guided assembly",
        motif: "RNN inference",
        granularity: None,
        cpu: false,
        work_unit: "flops",
        mlp_hint: 4.0,
        substrate_seed: seeds::GENOME ^ (seeds::LONG_READS ^ 0xC1A1) ^ (seeds::WEIGHTS ^ 0xC1),
        uarch_budget: 3,
        engine_aware: false,
    };

    fn instantiate(sub: Arc<NnVariantSubstrate>, _engine: DpEngine) -> NnVariantKernel {
        NnVariantKernel { sub }
    }

    fn num_tasks(&self) -> usize {
        self.sub.tensors.len()
    }

    // PANIC-FREE: callers keep `i < num_tasks()`, the documented
    // `KernelSpec::task` contract.
    fn task<P: Probe>(&self, i: usize, probe: &mut P) -> TaskOut {
        let call = self.sub.model.call_probed(&self.sub.tensors[i], probe);
        TaskOut {
            checksum: call
                .zygosity_probs
                .iter()
                .chain(&call.type_probs)
                .chain(&call.alt_probs)
                .fold(0u64, |acc, &p| {
                    acc.wrapping_mul(31).wrapping_add((p * 1e6) as u64)
                }),
            work: self.task_work(i),
            ..TaskOut::default()
        }
    }

    /// Multiply-accumulates per call: a constant of the network.
    fn task_work(&self, _i: usize) -> u64 {
        self.sub.model.flops_per_call()
    }

    /// Builds the full pre-processing chain: simulate long-read
    /// alignments, pileup-count them, and cut candidate tensors at
    /// regularly spaced reference positions (the paper's "first 10,000 /
    /// 500,000 reference positions" datasets).
    fn build_substrate(size: DatasetSize) -> NnVariantSubstrate {
        let num_candidates = match size {
            DatasetSize::Tiny => 5,
            DatasetSize::Small => 150,
            DatasetSize::Large => 1_500,
        };
        let genome_len = 100_000;
        let genome = Genome::generate(
            &GenomeConfig {
                length: genome_len,
                ..Default::default()
            },
            seeds::GENOME,
        );
        let cfg = ReadSimConfig {
            num_reads: genome_len * 20 / 3000,
            ..ReadSimConfig::long(0)
        };
        let alignments: Vec<AlignmentRecord> =
            simulate_reads(&genome, &cfg, seeds::LONG_READS ^ 0xC1A1)
                .iter()
                .map(|r| r.to_alignment())
                .collect();
        let contig = genome.contig(0).clone();
        let task = RegionTask {
            region: Region::new(0, 0, genome_len),
            ref_seq: contig.clone(),
            reads: alignments,
        };
        let pile = count_pileup(&task);
        let step = (genome_len - 200) / num_candidates;
        let tensors = (0..num_candidates)
            .map(|i| clair_tensor(&pile, &contig, 100 + i * step))
            .collect();
        let model = VariantCaller::new(&VariantCallerConfig::default(), seeds::WEIGHTS ^ 0xC1);
        NnVariantSubstrate { model, tensors }
    }
}

impl std::fmt::Debug for NnVariantKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NnVariantKernel")
            .field("candidates", &self.sub.tensors.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{run_parallel, run_serial};

    #[test]
    fn deterministic_across_threads() {
        let k = NnVariantKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        assert_eq!(run_serial(&k).checksum, run_parallel(&k, 2).checksum);
        assert_eq!(k.num_tasks(), 5);
    }

    #[test]
    fn tensors_are_populated() {
        let k = NnVariantKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        let nonzero = k
            .sub
            .tensors
            .iter()
            .filter(|t| t.data.iter().any(|&v| v != 0.0))
            .count();
        assert!(nonzero >= 4, "only {nonzero} populated tensors");
    }
}
