//! The **nn-base** kernel: neural basecalling (paper §III, from Bonito).

use super::{KernelId, KernelMeta, KernelSpec, TaskOut};
use crate::dataset::{seeds, DatasetSize};
use gb_core::rng::Rng;
use gb_datagen::genome::{Genome, GenomeConfig};
use gb_datagen::signal::{simulate_signal, PoreModel, SignalSimConfig};
use gb_dp::DpEngine;
use gb_nn::basecaller::{Basecaller, BasecallerConfig};
use gb_simt::exec::GpuKernelReport;
use gb_simt::kernels::{bonito_like_layers, model_nn_base_gpu, GemmGpuParams};
use gb_uarch::probe::Probe;
use std::sync::Arc;

/// Deterministic build product of the nn-base prepare phase: the
/// initialized network weights and the signal chunks to infer.
pub struct NnBaseSubstrate {
    model: Basecaller,
    chunks: Vec<Vec<f32>>,
}

impl gb_substrate::Codec for NnBaseSubstrate {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        gb_substrate::Codec::encode(&self.model, e);
        gb_substrate::Codec::encode(&self.chunks, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<NnBaseSubstrate> {
        Some(NnBaseSubstrate {
            model: gb_substrate::Codec::decode(d)?,
            chunks: gb_substrate::Codec::decode(d)?,
        })
    }
}

/// Prepared nn-base workload: signal chunks ready for inference.
pub struct NnBaseKernel {
    sub: Arc<NnBaseSubstrate>,
}

impl KernelSpec for NnBaseKernel {
    type Substrate = NnBaseSubstrate;

    const META: KernelMeta = KernelMeta {
        id: KernelId::NnBase,
        name: "nn-base",
        source_tool: "Bonito",
        pipeline: "basecalling",
        motif: "dense CNN inference (GPU)",
        granularity: None,
        cpu: false,
        work_unit: "flops",
        mlp_hint: 4.0,
        substrate_seed: seeds::WEIGHTS ^ seeds::GENOME ^ (seeds::SIGNALS ^ 0xBA5E),
        uarch_budget: 1,
        engine_aware: false,
    };

    fn instantiate(sub: Arc<NnBaseSubstrate>, _engine: DpEngine) -> NnBaseKernel {
        NnBaseKernel { sub }
    }

    fn num_tasks(&self) -> usize {
        self.sub.chunks.len()
    }

    /// Infers one chunk and CTC-decodes it.
    // PANIC-FREE: callers keep `i < num_tasks()`, the documented
    // `KernelSpec::task` contract.
    fn task<P: Probe>(&self, i: usize, probe: &mut P) -> TaskOut {
        let posteriors = self
            .sub
            .model
            .forward_chunk_probed(&self.sub.chunks[i], probe);
        let decoded = gb_nn::ctc::greedy_decode(&posteriors);
        TaskOut {
            checksum: decoded
                .as_codes()
                .iter()
                .fold(decoded.len() as u64, |acc, &c| {
                    acc.wrapping_mul(7).wrapping_add(u64::from(c))
                }),
            work: self.task_work(i),
            ..TaskOut::default()
        }
    }

    /// Multiply-accumulates per chunk: a constant of the network.
    fn task_work(&self, _i: usize) -> u64 {
        self.sub.model.flops_per_chunk()
    }

    /// Simulates raw nanopore signal and splits it into the model's
    /// 4,000-sample chunks.
    fn build_substrate(size: DatasetSize) -> NnBaseSubstrate {
        let num_chunks = match size {
            DatasetSize::Tiny => 2,
            DatasetSize::Small => 30,
            DatasetSize::Large => 300,
        };
        let config = BasecallerConfig::default();
        let model = Basecaller::new(&config, seeds::WEIGHTS);
        let genome = Genome::generate(
            &GenomeConfig {
                length: 200_000,
                ..Default::default()
            },
            seeds::GENOME,
        );
        let pore = PoreModel::r9_like();
        let mut rng = Rng::seed_from_u64(seeds::SIGNALS ^ 0xBA5E);
        let contig = genome.contig(0);
        let mut chunks = Vec::with_capacity(num_chunks);
        let mut raw_pool: Vec<f32> = Vec::new();
        while chunks.len() < num_chunks {
            if raw_pool.len() < config.chunk_size {
                let start = rng.gen_range(0..contig.len() - 2000);
                let seq = contig.slice(start, start + 2000);
                let sig = simulate_signal(&seq, &pore, &SignalSimConfig::default(), rng.gen());
                raw_pool.extend(sig.raw);
                continue;
            }
            chunks.push(raw_pool.drain(..config.chunk_size).collect());
        }
        NnBaseSubstrate { model, chunks }
    }
}

impl NnBaseKernel {
    /// Runs the SIMT model of this network's layers (Tables IV–V).
    pub fn gpu_report(&self) -> GpuKernelReport {
        let c = self.sub.model.config();
        let layers = bonito_like_layers(c.chunk_size, c.stride, c.channels, c.blocks, c.kernel);
        model_nn_base_gpu(
            &layers,
            &GemmGpuParams::default(),
            gb_simt::GpuConfig::default(),
        )
    }
}

impl std::fmt::Debug for NnBaseKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NnBaseKernel")
            .field("chunks", &self.sub.chunks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{run_parallel, run_serial};

    #[test]
    fn deterministic_across_threads() {
        let k = NnBaseKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        assert_eq!(run_serial(&k).checksum, run_parallel(&k, 2).checksum);
    }

    #[test]
    fn gpu_report_is_regular() {
        let k = NnBaseKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        let r = k.gpu_report();
        assert_eq!(r.branch_efficiency, 1.0);
        assert!(r.occupancy > 0.8);
    }
}
