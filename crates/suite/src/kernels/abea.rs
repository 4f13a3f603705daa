//! The **abea** kernel: adaptive banded event alignment (paper §III,
//! from Nanopolish/f5c).
//!
//! Two execution engines ([`DpEngine`]): the paper-faithful scalar mode
//! resolves each band cell's neighbors by `(event, k-mer)` search and
//! recomputes the pore-model `ln` per cell; the SIMD mode runs the
//! contiguous-band f32 engine (`gb_dp::abea::align_events_simd`) —
//! padded band rows, anchor-delta neighbor shifts and hoisted emission
//! parameters — with bit-identical scores, alignments and band walks,
//! so the two engines produce the same run checksum.

use super::{slot_gauges, KernelId, KernelMeta, KernelSpec, TaskOut};
use crate::dataset::{seeds, DatasetSize};
use gb_core::rng::Rng;
use gb_core::seq::DnaSeq;
use gb_datagen::genome::{Genome, GenomeConfig};
use gb_datagen::signal::{simulate_signal, Event, PoreModel, SignalSimConfig};
use gb_dp::abea::{align_events_engine_probed, AbeaParams};
use gb_dp::lockstep::BatchReport;
use gb_dp::DpEngine;
use gb_simt::exec::GpuKernelReport;
use gb_simt::kernels::{model_abea_gpu, AbeaGpuParams};
use gb_uarch::probe::Probe;
use std::sync::Arc;

/// Deterministic build product of the abea prepare phase: the simulated
/// signal reads and the pore model they were drawn from.
pub struct AbeaSubstrate {
    reads: Vec<(Vec<Event>, DnaSeq)>,
    model: PoreModel,
}

impl gb_substrate::Codec for AbeaSubstrate {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        gb_substrate::Codec::encode(&self.reads, e);
        gb_substrate::Codec::encode(&self.model, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<AbeaSubstrate> {
        Some(AbeaSubstrate {
            reads: gb_substrate::Codec::decode(d)?,
            model: gb_substrate::Codec::decode(d)?,
        })
    }
}

/// Prepared abea workload: raw-signal reads with their reference spans.
pub struct AbeaKernel {
    sub: Arc<AbeaSubstrate>,
    params: AbeaParams,
    engine: DpEngine,
}

impl KernelSpec for AbeaKernel {
    type Substrate = AbeaSubstrate;

    const META: KernelMeta = KernelMeta {
        id: KernelId::Abea,
        name: "abea",
        source_tool: "Nanopolish/f5c",
        pipeline: "de-novo assembly / polishing",
        motif: "adaptive banded DP, floating point",
        granularity: Some(("read", "# band cells")),
        cpu: true,
        work_unit: "cells",
        mlp_hint: 4.0,
        substrate_seed: seeds::GENOME ^ seeds::SIGNALS,
        uarch_budget: 2,
        engine_aware: true,
    };

    fn instantiate(sub: Arc<AbeaSubstrate>, engine: DpEngine) -> AbeaKernel {
        AbeaKernel {
            sub,
            params: AbeaParams::default(),
            engine,
        }
    }

    fn num_tasks(&self) -> usize {
        self.sub.reads.len()
    }

    // PANIC-FREE: callers keep `i < num_tasks()`, the documented
    // `KernelSpec::task` contract.
    fn task<P: Probe>(&self, i: usize, probe: &mut P) -> TaskOut {
        let (events, seq) = &self.sub.reads[i];
        let Some(r) = align_events_engine_probed(
            events,
            seq,
            &self.sub.model,
            &self.params,
            self.engine,
            probe,
        ) else {
            return TaskOut::default();
        };
        let slots = if self.engine == DpEngine::Simd {
            // The adaptive band allocates `n_bands x bandwidth` slots per
            // read but only the offsets inside the matrix are swept.
            let n_kmers = seq.len().saturating_sub(gb_datagen::signal::PORE_K - 1);
            let n_bands = (events.len() + n_kmers + 2) as u64;
            BatchReport {
                scalar_cells: r.cells,
                vector_cells: n_bands * self.params.bandwidth as u64,
                batches: 1,
                retired_lanes: 0,
            }
        } else {
            BatchReport::default()
        };
        TaskOut {
            checksum: r.cells.wrapping_add((r.score * -8.0) as u64),
            work: r.cells,
            slots,
        }
    }

    /// Band-slot efficiency of the vector sweep: the dead-slot fraction
    /// is the edge waste of the banding itself. Retired lanes are
    /// structurally zero for this engine (f32 needs no precision ladder)
    /// — exported so the compare gate can pin that invariant.
    fn gauges(&self, slots: &BatchReport) -> Vec<(String, f64)> {
        slot_gauges(
            self.engine,
            "abea.dead_slot_fraction",
            "abea.simd_retired_lanes",
            slots,
        )
    }

    /// Simulates FAST5-like signal reads over reference segments of
    /// varying length. The read set is identical for both engines; abea
    /// vectorizes *within* each band (anti-diagonal lanes), so the task
    /// shape is one read per task on either engine.
    fn build_substrate(size: DatasetSize) -> AbeaSubstrate {
        let num_reads = match size {
            DatasetSize::Tiny => 5,
            DatasetSize::Small => 80,
            DatasetSize::Large => 800,
        };
        let genome = Genome::generate(
            &GenomeConfig {
                length: 400_000,
                ..Default::default()
            },
            seeds::GENOME,
        );
        let model = PoreModel::r9_like();
        let mut rng = Rng::seed_from_u64(seeds::SIGNALS);
        let contig = genome.contig(0);
        let reads = (0..num_reads)
            .map(|_| {
                let len = rng.gen_range(800..=3000usize);
                let start = rng.gen_range(0..contig.len() - len);
                let seq = contig.slice(start, start + len);
                let sig = simulate_signal(&seq, &model, &SignalSimConfig::default(), rng.gen());
                (sig.events, seq)
            })
            .collect();
        AbeaSubstrate { reads, model }
    }
}

impl AbeaKernel {
    /// Runs the SIMT model over this workload (paper Tables IV–V).
    pub fn gpu_report(&self) -> GpuKernelReport {
        model_abea_gpu(
            &self.sub.reads,
            &AbeaGpuParams::default(),
            gb_simt::GpuConfig::default(),
        )
    }
}

impl std::fmt::Debug for AbeaKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AbeaKernel")
            .field("reads", &self.sub.reads.len())
            .field("engine", &self.engine.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{run_parallel, run_serial};

    #[test]
    fn deterministic_across_threads() {
        let k = AbeaKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        assert_eq!(run_serial(&k).checksum, run_parallel(&k, 4).checksum);
        assert!(run_serial(&k).checksum != 0);
    }

    #[test]
    fn gpu_report_is_low_occupancy() {
        let k = AbeaKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        let r = k.gpu_report();
        assert!(r.occupancy < 0.5);
        assert!(r.warp_efficiency < 1.0);
    }

    #[test]
    fn engines_agree_on_checksum() {
        let scalar = AbeaKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        let simd = AbeaKernel::prepare(DatasetSize::Tiny, DpEngine::Simd);
        assert_eq!(scalar.num_tasks(), simd.num_tasks());
        assert_eq!(
            run_serial(&scalar).checksum,
            run_parallel(&simd, 4).checksum
        );
    }

    #[test]
    fn simd_gauges_report_band_efficiency() {
        let simd = AbeaKernel::prepare(DatasetSize::Tiny, DpEngine::Simd);
        let gauges = simd.gauges(&run_serial(&simd).slots);
        let get = |name: &str| {
            gauges
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        let dead = get("abea.dead_slot_fraction");
        assert!((0.0..1.0).contains(&dead), "dead slots {dead}");
        assert_eq!(get("abea.simd_retired_lanes"), 0.0);
    }
}
