//! The **fmi** kernel: SMEM search over an FM-index (paper §III, from
//! BWA-MEM2).

use super::{KernelId, KernelMeta, KernelSpec, TaskOut};
use crate::dataset::{seeds, DatasetSize};
use gb_core::seq::DnaSeq;
use gb_datagen::genome::{Genome, GenomeConfig};
use gb_datagen::reads::{simulate_reads, ReadSimConfig};
use gb_dp::DpEngine;
use gb_fmi::bidir::BiIndex;
use gb_fmi::smem::{collect_smems_probed, SmemConfig};
use gb_uarch::probe::{Probe, Tee};
use std::sync::Arc;

/// Deterministic build product of the fmi prepare phase: the
/// bidirectional index and the simulated read set. Cacheable — rebuilding
/// from `(size, seed)` or decoding a stored copy yields bit-identical
/// contents.
pub struct FmiSubstrate {
    index: BiIndex,
    reads: Vec<DnaSeq>,
}

impl gb_substrate::Codec for FmiSubstrate {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        gb_substrate::Codec::encode(&self.index, e);
        gb_substrate::Codec::encode(&self.reads, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<FmiSubstrate> {
        Some(FmiSubstrate {
            index: gb_substrate::Codec::decode(d)?,
            reads: gb_substrate::Codec::decode(d)?,
        })
    }
}

/// Prepared fmi workload: a bidirectional index plus reads to seed.
pub struct FmiKernel {
    sub: Arc<FmiSubstrate>,
    config: SmemConfig,
}

impl KernelSpec for FmiKernel {
    type Substrate = FmiSubstrate;

    const META: KernelMeta = KernelMeta {
        id: KernelId::Fmi,
        name: "fmi",
        source_tool: "BWA-MEM2",
        pipeline: "reference-guided assembly",
        motif: "index lookup (irregular memory)",
        granularity: Some(("read", "# Occ table lookups")),
        cpu: true,
        work_unit: "occ_lookups",
        mlp_hint: 1.6,
        substrate_seed: seeds::GENOME ^ seeds::SHORT_READS,
        uarch_budget: 60,
        engine_aware: false,
    };

    fn instantiate(sub: Arc<FmiSubstrate>, _engine: DpEngine) -> FmiKernel {
        FmiKernel {
            sub,
            config: SmemConfig::default(),
        }
    }

    fn num_tasks(&self) -> usize {
        self.sub.reads.len()
    }

    // PANIC-FREE: callers keep `i < num_tasks()`, the documented
    // `KernelSpec::task` contract.
    fn task<P: Probe>(&self, i: usize, probe: &mut P) -> TaskOut {
        // Work is Occ-table lookups: every load the search reports,
        // counted in front of the caller's probe in the same run.
        let mut counted = Tee(LoadCount(0), probe);
        let smems = collect_smems_probed(
            &self.sub.index,
            &self.sub.reads[i],
            &self.config,
            &mut counted,
        );
        TaskOut {
            checksum: smems
                .iter()
                .map(|m| (m.end - m.start) as u64 ^ u64::from(m.interval.s).rotate_left(17))
                .fold(0, u64::wrapping_add),
            work: counted.0 .0,
            ..TaskOut::default()
        }
    }

    /// Builds the index and simulates the read set.
    ///
    /// The reference is sized so the index working set exceeds the
    /// modelled LLC (as the paper's ~10 GB human FM-index dwarfs an 8 MB
    /// LLC), which is what makes the kernel memory-bound.
    fn build_substrate(size: DatasetSize) -> FmiSubstrate {
        let (genome_len, num_reads) = match size {
            DatasetSize::Tiny => (100_000, 50),
            DatasetSize::Small => (8_000_000, 2_000),
            DatasetSize::Large => (24_000_000, 20_000),
        };
        let genome = Genome::generate(
            &GenomeConfig {
                length: genome_len,
                ..Default::default()
            },
            seeds::GENOME,
        );
        let reads = simulate_reads(
            &genome,
            &ReadSimConfig::short(num_reads),
            seeds::SHORT_READS,
        )
        .into_iter()
        .map(|r| r.record.seq)
        .collect();
        let index = BiIndex::build(&genome.concat());
        FmiSubstrate { index, reads }
    }
}

/// Counts the loads a run reports and nothing else.
struct LoadCount(u64);

impl Probe for LoadCount {
    #[inline(always)]
    fn load(&mut self, _addr: u64, _bytes: u32) {
        self.0 += 1;
    }
}

impl std::fmt::Debug for FmiKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FmiKernel")
            .field("reads", &self.sub.reads.len())
            .field("index_bytes", &self.sub.index.heap_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{run_parallel, run_serial};

    #[test]
    fn tiny_runs_and_is_deterministic() {
        let k = FmiKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        let a = run_serial(&k);
        let b = run_parallel(&k, 4);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.tasks, 50);
        assert!(a.checksum != 0);
    }

    #[test]
    fn task_work_is_the_mix_probes_load_count() {
        let k = FmiKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        assert!(k.task_work(0) > 100, "a 151-bp read needs many occ lookups");
        for i in 0..k.num_tasks() {
            let mut mix = gb_uarch::mix::MixProbe::new();
            let out = k.task(i, &mut mix);
            assert_eq!(out.work, mix.mix().loads, "read {i}");
            assert_eq!(out.work, k.task_work(i), "read {i}");
        }
    }
}
