//! The **chain** kernel: minimap2 anchor chaining (paper §III).

use super::{KernelId, KernelMeta, KernelSpec, TaskOut};
use crate::dataset::{seeds, DatasetSize};
use gb_datagen::anchors::{synthetic_anchor_sets, AnchorSet, AnchorSimConfig};
use gb_dp::chain::{chain_anchors_probed, ChainParams};
use gb_dp::DpEngine;
use gb_uarch::probe::Probe;
use std::sync::Arc;

/// Deterministic build product of the chain prepare phase: the synthetic
/// anchor sets.
pub struct ChainSubstrate {
    tasks: Vec<AnchorSet>,
}

impl gb_substrate::Codec for ChainSubstrate {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        gb_substrate::Codec::encode(&self.tasks, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<ChainSubstrate> {
        Some(ChainSubstrate {
            tasks: gb_substrate::Codec::decode(d)?,
        })
    }
}

/// Prepared chain workload: one anchor set per read pair.
pub struct ChainKernel {
    sub: Arc<ChainSubstrate>,
    params: ChainParams,
}

impl KernelSpec for ChainKernel {
    type Substrate = ChainSubstrate;

    const META: KernelMeta = KernelMeta {
        id: KernelId::Chain,
        name: "chain",
        source_tool: "Minimap2",
        pipeline: "de-novo assembly / polishing",
        motif: "1-D DP, bounded predecessor scan",
        granularity: Some(("read pair", "# input anchors")),
        cpu: true,
        work_unit: "anchors",
        mlp_hint: 4.0,
        substrate_seed: seeds::ANCHORS,
        uarch_budget: 20,
        engine_aware: false,
    };

    fn instantiate(sub: Arc<ChainSubstrate>, _engine: DpEngine) -> ChainKernel {
        ChainKernel {
            sub,
            params: ChainParams::default(),
        }
    }

    fn num_tasks(&self) -> usize {
        self.sub.tasks.len()
    }

    // PANIC-FREE: callers keep `i < num_tasks()`, the documented
    // `KernelSpec::task` contract.
    fn task<P: Probe>(&self, i: usize, probe: &mut P) -> TaskOut {
        let r = chain_anchors_probed(&self.sub.tasks[i], &self.params, probe);
        TaskOut {
            checksum: r
                .chains
                .iter()
                .map(|c| c.score as u64 ^ (c.len() as u64).rotate_left(13))
                .fold(r.comparisons, u64::wrapping_add),
            work: self.task_work(i),
            ..TaskOut::default()
        }
    }

    /// Input anchors: known without chaining them.
    // PANIC-FREE: as `task`.
    fn task_work(&self, i: usize) -> u64 {
        self.sub.tasks[i].len() as u64
    }

    /// Synthesizes overlap tasks with long-tailed anchor counts (the
    /// paper's PacBio *C. elegans* all-vs-all workload shape).
    fn build_substrate(size: DatasetSize) -> ChainSubstrate {
        let num_pairs = match size {
            DatasetSize::Tiny => 20,
            DatasetSize::Small => 1_000,
            DatasetSize::Large => 10_000,
        };
        let cfg = AnchorSimConfig {
            num_pairs,
            mean_anchors: 500,
            ..Default::default()
        };
        ChainSubstrate {
            tasks: synthetic_anchor_sets(&cfg, seeds::ANCHORS),
        }
    }
}

impl std::fmt::Debug for ChainKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChainKernel")
            .field("pairs", &self.sub.tasks.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{run_parallel, run_serial, work_distribution};

    #[test]
    fn deterministic_across_threads() {
        let k = ChainKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        assert_eq!(run_serial(&k).checksum, run_parallel(&k, 4).checksum);
    }

    #[test]
    fn anchor_counts_are_long_tailed() {
        let k = ChainKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        let d = work_distribution(&k);
        assert!(d.imbalance > 1.5, "imbalance {}", d.imbalance);
    }
}
