//! The **kmer-cnt** kernel: canonical k-mer counting (paper §III, from
//! Flye).

use super::{KernelId, KernelMeta, KernelSpec, TaskOut};
use crate::dataset::{seeds, DatasetSize};
use gb_assembly::kmer_count::{count_kmers_prefetched, KmerCountParams, BATCH};
use gb_core::seq::DnaSeq;
use gb_datagen::genome::{Genome, GenomeConfig};
use gb_datagen::reads::{simulate_reads, ReadSimConfig};
use gb_dp::DpEngine;
use gb_uarch::probe::Probe;
use std::sync::Arc;

/// Deterministic build product of the kmer-cnt prepare phase: the
/// simulated long reads, pre-split into counting shards.
pub struct KmerCntSubstrate {
    shards: Vec<Vec<DnaSeq>>,
}

impl gb_substrate::Codec for KmerCntSubstrate {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        gb_substrate::Codec::encode(&self.shards, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<KmerCntSubstrate> {
        Some(KmerCntSubstrate {
            shards: gb_substrate::Codec::decode(d)?,
        })
    }
}

/// Prepared kmer-cnt workload: long reads split into counting shards.
///
/// Each task counts one shard into a private table (the sharded layout
/// multithreaded counters use); shards are sized so the table working set
/// exceeds the modelled LLC, as the paper's ~8 GB table does.
pub struct KmerCntKernel {
    sub: Arc<KmerCntSubstrate>,
    params: KmerCountParams,
}

impl KernelSpec for KmerCntKernel {
    type Substrate = KmerCntSubstrate;

    const META: KernelMeta = KernelMeta {
        id: KernelId::KmerCnt,
        name: "kmer-cnt",
        source_tool: "Flye",
        pipeline: "de-novo assembly / polishing",
        motif: "hash-table update (irregular memory)",
        granularity: None,
        cpu: true,
        work_unit: "kmers",
        mlp_hint: 2.5,
        substrate_seed: seeds::GENOME ^ seeds::LONG_READS,
        uarch_budget: 1,
        engine_aware: false,
    };

    fn instantiate(sub: Arc<KmerCntSubstrate>, _engine: DpEngine) -> KmerCntKernel {
        KmerCntKernel {
            sub,
            params: KmerCountParams::default(),
        }
    }

    fn num_tasks(&self) -> usize {
        self.sub.shards.len()
    }

    /// Counts one shard with the table's [`BATCH`]-key early touch — on
    /// the simulated path too, so the hierarchy is fed the program that
    /// is timed (the paper's one-update-at-a-time pattern is window 1 of
    /// the ablation).
    // PANIC-FREE: callers keep `i < num_tasks()`, the documented
    // `KernelSpec::task` contract.
    fn task<P: Probe>(&self, i: usize, probe: &mut P) -> TaskOut {
        let (table, stats) =
            count_kmers_prefetched(&self.sub.shards[i], &self.params, BATCH, probe);
        TaskOut {
            checksum: stats.kmers_processed.wrapping_add(table.len() as u64),
            work: self.task_work(i),
            ..TaskOut::default()
        }
    }

    /// K-mers in the shard: known from the read lengths.
    // PANIC-FREE: as `task`.
    fn task_work(&self, i: usize) -> u64 {
        self.sub.shards[i]
            .iter()
            .map(|r| r.len().saturating_sub(self.params.k - 1) as u64)
            .sum()
    }

    /// Simulates a long-read set and splits it into per-task shards.
    fn build_substrate(size: DatasetSize) -> KmerCntSubstrate {
        let (total_bases, shard_bases) = match size {
            DatasetSize::Tiny => (400_000usize, 200_000usize),
            DatasetSize::Small => (16_000_000, 2_000_000),
            DatasetSize::Large => (64_000_000, 2_000_000),
        };
        let genome = Genome::generate(
            &GenomeConfig {
                length: total_bases / 8,
                ..Default::default()
            },
            seeds::GENOME,
        );
        let cfg = ReadSimConfig {
            num_reads: total_bases / 3000,
            ..ReadSimConfig::long(0)
        };
        let reads = simulate_reads(&genome, &cfg, seeds::LONG_READS);
        let mut shards: Vec<Vec<DnaSeq>> = Vec::new();
        let mut cur: Vec<DnaSeq> = Vec::new();
        let mut cur_bases = 0usize;
        for r in reads {
            cur_bases += r.record.len();
            cur.push(r.record.seq);
            if cur_bases >= shard_bases {
                shards.push(std::mem::take(&mut cur));
                cur_bases = 0;
            }
        }
        if !cur.is_empty() {
            shards.push(cur);
        }
        KmerCntSubstrate { shards }
    }
}

impl std::fmt::Debug for KmerCntKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KmerCntKernel")
            .field("shards", &self.sub.shards.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{run_parallel, run_serial};

    #[test]
    fn deterministic_across_threads() {
        let k = KmerCntKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        assert_eq!(run_serial(&k).checksum, run_parallel(&k, 4).checksum);
        assert_eq!(k.num_tasks(), 2);
    }

    #[test]
    fn shard_tables_exceed_llc_at_small() {
        // The characterization depends on the table busting the 8 MB LLC.
        let k = KmerCntKernel::prepare(DatasetSize::Small, DpEngine::Scalar);
        let (table, _) = gb_assembly::kmer_count::count_kmers(&k.sub.shards[0], &k.params);
        assert!(
            table.heap_bytes() > 8 << 20,
            "table only {} bytes",
            table.heap_bytes()
        );
    }
}
