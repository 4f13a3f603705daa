//! The **dbg** kernel: De-Bruijn re-assembly of variant-calling regions
//! (paper §III, from Platypus).

use super::{KernelId, KernelMeta, KernelSpec, TaskOut};
use crate::dataset::{seeds, DatasetSize};
use gb_assembly::dbg::{assemble_region_probed, DbgParams};
use gb_core::region::RegionTask;
use gb_datagen::genome::{Genome, GenomeConfig};
use gb_datagen::regions::{build_region_tasks, RegionSimConfig};
use gb_dp::DpEngine;
use gb_uarch::probe::Probe;
use std::sync::Arc;

/// Deterministic build product of the dbg prepare phase: the simulated
/// re-assembly windows with their aligned reads.
pub struct DbgSubstrate {
    tasks: Vec<RegionTask>,
}

impl gb_substrate::Codec for DbgSubstrate {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        gb_substrate::Codec::encode(&self.tasks, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<DbgSubstrate> {
        Some(DbgSubstrate {
            tasks: gb_substrate::Codec::decode(d)?,
        })
    }
}

/// Prepared dbg workload: one task per reference window with its aligned
/// reads.
pub struct DbgKernel {
    sub: Arc<DbgSubstrate>,
    params: DbgParams,
}

impl KernelSpec for DbgKernel {
    type Substrate = DbgSubstrate;

    const META: KernelMeta = KernelMeta {
        id: KernelId::Dbg,
        name: "dbg",
        source_tool: "Platypus",
        pipeline: "reference-guided assembly",
        motif: "graph construction + hash table",
        granularity: Some(("genome region", "# hash table lookups")),
        cpu: true,
        work_unit: "hash_lookups",
        mlp_hint: 4.0,
        substrate_seed: seeds::GENOME ^ seeds::REGIONS,
        uarch_budget: 20,
        engine_aware: false,
    };

    fn instantiate(sub: Arc<DbgSubstrate>, _engine: DpEngine) -> DbgKernel {
        DbgKernel {
            sub,
            params: DbgParams::default(),
        }
    }

    fn num_tasks(&self) -> usize {
        self.sub.tasks.len()
    }

    // PANIC-FREE: callers keep `i < num_tasks()`, the documented
    // `KernelSpec::task` contract.
    fn task<P: Probe>(&self, i: usize, probe: &mut P) -> TaskOut {
        let r = assemble_region_probed(&self.sub.tasks[i], &self.params, probe);
        TaskOut {
            checksum: r.haplotypes.len() as u64 * 1000
                + r.hash_lookups % 997
                + u64::from(r.cycles_hit) * 7,
            work: r.hash_lookups,
            ..TaskOut::default()
        }
    }

    /// Simulates a diploid short-read sample over a reference and buckets
    /// it into 500-base re-assembly windows.
    fn build_substrate(size: DatasetSize) -> DbgSubstrate {
        let genome_len = match size {
            DatasetSize::Tiny => 20_000,
            DatasetSize::Small => 200_000,
            DatasetSize::Large => 2_000_000,
        };
        let genome = Genome::generate(
            &GenomeConfig {
                length: genome_len,
                ..Default::default()
            },
            seeds::GENOME,
        );
        let workload = build_region_tasks(&genome, &RegionSimConfig::default(), seeds::REGIONS);
        DbgSubstrate {
            tasks: workload.tasks,
        }
    }
}

impl std::fmt::Debug for DbgKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbgKernel")
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
        let k = DbgKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        assert_eq!(run_serial(&k).checksum, run_parallel(&k, 4).checksum);
        assert_eq!(k.num_tasks(), 40); // 20 kb / 500 b windows
    }

    #[test]
    fn some_region_produces_alternate_haplotypes() {
        let k = DbgKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        let with_alts = (0..k.num_tasks())
            .filter(|&i| {
                gb_assembly::dbg::assemble_region(&k.sub.tasks[i], &k.params)
                    .haplotypes
                    .len()
                    > 1
            })
            .count();
        assert!(with_alts > 0, "no region assembled an alternate haplotype");
    }
}
