//! The **phmm** kernel: pair-HMM read-haplotype likelihoods (paper §III,
//! from GATK HaplotypeCaller).
//!
//! Two execution engines ([`DpEngine`]): the scalar mode runs the
//! row-wise f32/f64 forward kernel per pair; the SIMD mode runs the
//! anti-diagonal wavefront f32 engine (`gb_dp::phmm_wavefront`) and
//! orders regions by descending estimated work (longest-processing-time
//! first for the dynamic pool). Per-pair likelihoods are bit-identical,
//! so both engines produce the same run checksum.

use super::{KernelId, KernelMeta, KernelSpec, TaskOut};
use crate::dataset::{seeds, DatasetSize};
use gb_assembly::dbg::{assemble_region, DbgParams};
use gb_core::record::ReadRecord;
use gb_core::seq::DnaSeq;
use gb_datagen::genome::{Genome, GenomeConfig};
use gb_datagen::reads::ReadSimConfig;
use gb_datagen::regions::{build_region_tasks, RegionSimConfig};
use gb_dp::phmm::{forward_likelihood_probed, HmmParams};
use gb_dp::phmm_wavefront::wavefront_likelihood_probed;
use gb_dp::DpEngine;
use gb_uarch::probe::Probe;
use std::sync::Arc;

/// One phmm task: a genome region's reads evaluated against its candidate
/// haplotypes (`|R| x |H|` pairwise likelihoods, paper §III).
pub struct PhmmTask {
    reads: Vec<ReadRecord>,
    haplotypes: Vec<DnaSeq>,
}

impl gb_substrate::Codec for PhmmTask {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        gb_substrate::Codec::encode(&self.reads, e);
        gb_substrate::Codec::encode(&self.haplotypes, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<PhmmTask> {
        Some(PhmmTask {
            reads: gb_substrate::Codec::decode(d)?,
            haplotypes: gb_substrate::Codec::decode(d)?,
        })
    }
}

/// Deterministic build product of the phmm prepare phase: the assembled
/// region tasks in generation order. Engine-independent — the SIMD
/// engine's LPT ordering is a per-run permutation, applied at
/// instantiation.
pub struct PhmmSubstrate {
    tasks: Vec<PhmmTask>,
}

impl gb_substrate::Codec for PhmmSubstrate {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        gb_substrate::Codec::encode(&self.tasks, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<PhmmSubstrate> {
        Some(PhmmSubstrate {
            tasks: gb_substrate::Codec::decode(d)?,
        })
    }
}

/// Prepared phmm workload.
pub struct PhmmKernel {
    sub: Arc<PhmmSubstrate>,
    /// Task issue order: pool task `i` runs substrate task `order[i]`
    /// (identity for the scalar engine, LPT for SIMD).
    order: Vec<usize>,
    params: HmmParams,
    engine: DpEngine,
}

impl PhmmTask {
    /// DP cells of the region's `|R| x |H|` pairwise likelihoods: known
    /// from the lengths alone.
    fn cells(&self) -> u64 {
        let reads: u64 = self.reads.iter().map(|r| r.len() as u64).sum();
        let haps: u64 = self.haplotypes.iter().map(|h| h.len() as u64).sum();
        reads.wrapping_mul(haps)
    }
}

impl PhmmKernel {
    /// The region the pool's task `i` executes.
    // PANIC-FREE: `order` is a permutation of `0..tasks.len()` and
    // callers keep `i < num_tasks()`.
    fn region(&self, i: usize) -> &PhmmTask {
        &self.sub.tasks[self.order[i]]
    }
}

impl KernelSpec for PhmmKernel {
    type Substrate = PhmmSubstrate;

    const META: KernelMeta = KernelMeta {
        id: KernelId::Phmm,
        name: "phmm",
        source_tool: "GATK HaplotypeCaller",
        pipeline: "reference-guided assembly",
        motif: "2-D DP, floating point",
        granularity: Some(("genome region", "# cell updates")),
        cpu: true,
        work_unit: "cells",
        mlp_hint: 4.0,
        substrate_seed: seeds::GENOME ^ (seeds::REGIONS ^ 0x9A),
        uarch_budget: 4,
        engine_aware: true,
    };

    /// The SIMD engine derives its longest-processing-time-first issue
    /// order here: phmm has the paper's worst per-region imbalance
    /// (Fig. 4), so issuing the heaviest regions first stops one of them
    /// landing last and stretching the pool's tail. Checksums are
    /// order-insensitive, so the permutation cannot change results.
    // PANIC-FREE: the sort key indexes `sub.tasks` with members of
    // `0..tasks.len()`.
    fn instantiate(sub: Arc<PhmmSubstrate>, engine: DpEngine) -> PhmmKernel {
        let mut order: Vec<usize> = (0..sub.tasks.len()).collect();
        if engine == DpEngine::Simd {
            order.sort_by_key(|&i| std::cmp::Reverse(sub.tasks[i].cells()));
        }
        PhmmKernel {
            sub,
            order,
            params: HmmParams::default(),
            engine,
        }
    }

    fn num_tasks(&self) -> usize {
        self.sub.tasks.len()
    }

    fn task<P: Probe>(&self, i: usize, probe: &mut P) -> TaskOut {
        let t = self.region(i);
        let mut checksum = 0u64;
        for read in &t.reads {
            for hap in &t.haplotypes {
                // Both engines produce bit-identical likelihoods (see
                // crates/dp/tests/dp_engines_diff.rs), so the checksum
                // contribution is engine-independent.
                let r = match self.engine {
                    DpEngine::Scalar => forward_likelihood_probed(read, hap, &self.params, probe),
                    DpEngine::Simd => wavefront_likelihood_probed(read, hap, &self.params, probe),
                };
                checksum = checksum.wrapping_add((r.log10_likelihood * -16.0) as u64);
            }
        }
        TaskOut {
            checksum,
            work: t.cells(),
            ..TaskOut::default()
        }
    }

    fn task_work(&self, i: usize) -> u64 {
        self.region(i).cells()
    }

    /// Builds the realistic GATK front-to-back input: regions are
    /// simulated, re-assembled with the dbg kernel, and the resulting
    /// haplotypes paired with the region's reads.
    fn build_substrate(size: DatasetSize) -> PhmmSubstrate {
        let genome_len = match size {
            DatasetSize::Tiny => 4_000,
            DatasetSize::Small => 24_000,
            DatasetSize::Large => 240_000,
        };
        let genome = Genome::generate(
            &GenomeConfig {
                length: genome_len,
                ..Default::default()
            },
            seeds::GENOME,
        );
        let cfg = RegionSimConfig {
            region_len: 300,
            coverage: 15.0,
            reads: ReadSimConfig {
                read_len: 100,
                ..ReadSimConfig::short(0)
            },
            ..RegionSimConfig::default()
        };
        let workload = build_region_tasks(&genome, &cfg, seeds::REGIONS ^ 0x9A);
        // GATK trims its haplotype set before the pairHMM; keep the best
        // few so per-region work stays |R| x |H| with small |H|.
        let dbg_params = DbgParams {
            max_haplotypes: 4,
            ..DbgParams::default()
        };
        let tasks: Vec<PhmmTask> = workload
            .tasks
            .into_iter()
            .filter(|t| !t.reads.is_empty())
            .map(|t| {
                let haplotypes = assemble_region(&t, &dbg_params).haplotypes;
                let reads = t.reads.into_iter().map(|a| a.read).collect();
                PhmmTask { reads, haplotypes }
            })
            .collect();
        PhmmSubstrate { tasks }
    }
}

impl std::fmt::Debug for PhmmKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhmmKernel")
            .field("regions", &self.sub.tasks.len())
            .field("engine", &self.engine.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{run_parallel, run_serial, work_distribution};

    #[test]
    fn deterministic_across_threads() {
        let k = PhmmKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        assert!(k.num_tasks() > 10);
        assert_eq!(run_serial(&k).checksum, run_parallel(&k, 4).checksum);
    }

    #[test]
    fn region_work_varies_strongly() {
        // Paper Fig. 4: phmm shows the largest per-task imbalance.
        let k = PhmmKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        let d = work_distribution(&k);
        // 2.26x on the tiny tier's pinned dataset.
        assert!(d.imbalance > 2.0, "{d:?}");
    }

    #[test]
    fn engines_agree_on_checksum() {
        // Per-pair likelihoods are bit-identical across engines and the
        // pool checksum is order-insensitive, so the wavefront engine's
        // LPT task reordering cannot change the result.
        let scalar = PhmmKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        let simd = PhmmKernel::prepare(DatasetSize::Tiny, DpEngine::Simd);
        assert_eq!(scalar.num_tasks(), simd.num_tasks());
        assert_eq!(
            run_serial(&scalar).checksum,
            run_parallel(&simd, 4).checksum
        );
    }

    #[test]
    fn simd_engine_issues_heaviest_region_first() {
        let simd = PhmmKernel::prepare(DatasetSize::Tiny, DpEngine::Simd);
        let works: Vec<u64> = (0..simd.num_tasks()).map(|i| simd.task_work(i)).collect();
        let max = works.iter().copied().max().unwrap();
        assert_eq!(
            works[0], max,
            "LPT order should lead with the max-work region"
        );
    }
}
