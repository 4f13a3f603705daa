//! The **bsw** kernel: banded Smith-Waterman seed extension (paper §III,
//! from BWA-MEM2).
//!
//! Two execution engines ([`DpEngine`]): the paper-faithful scalar mode
//! runs one i32 alignment per pool task (Table III granularity); the SIMD
//! mode length-sorts the pairs, packs them into contiguous 16-lane
//! lockstep groups, and runs each group as one pool task on the i16
//! struct-of-arrays engine (`gb_dp::bsw_simd`) — bit-identical results,
//! so the two engines produce the same run checksum.

use super::{slot_gauges, KernelId, KernelMeta, KernelSpec, TaskOut};
use crate::dataset::{seeds, DatasetSize};
use gb_core::rng::Rng;
use gb_datagen::genome::{Genome, GenomeConfig};
use gb_dp::bsw::{banded_sw_probed, run_batch, BatchReport, SwParams, SwResult, SwTask};
use gb_dp::bsw_batch::{run_lockstep, LANES};
use gb_dp::bsw_simd::{run_simd, simd_group_probed};
use gb_dp::DpEngine;
use gb_uarch::probe::Probe;
use std::sync::Arc;

/// Deterministic build product of the bsw prepare phase: the sequence
/// pairs in generation order. Engine-independent — the SIMD engine's
/// length-sorting happens at instantiation, so both engines (and the
/// unsorted-baseline gauges) share one cached substrate.
pub struct BswSubstrate {
    tasks: Vec<SwTask>,
}

impl gb_substrate::Codec for BswSubstrate {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        gb_substrate::Codec::encode(&self.tasks, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<BswSubstrate> {
        Some(BswSubstrate {
            tasks: gb_substrate::Codec::decode(d)?,
        })
    }
}

/// Prepared bsw workload: query/target pairs of varying length and
/// similarity (the ingredients of the paper's lane-divergence analysis).
pub struct BswKernel {
    sub: Arc<BswSubstrate>,
    /// SIMD engine only: the substrate pairs length-sorted for lockstep
    /// grouping (scalar leaves this empty and runs the substrate order).
    sorted: Vec<SwTask>,
    params: SwParams,
    engine: DpEngine,
    /// SIMD engine only: contiguous `sorted` ranges, one lockstep group
    /// per pool task, issued largest-first so the dynamic pool schedules
    /// longest-processing-time first.
    groups: Vec<std::ops::Range<usize>>,
}

impl KernelSpec for BswKernel {
    type Substrate = BswSubstrate;

    const META: KernelMeta = KernelMeta {
        id: KernelId::Bsw,
        name: "bsw",
        source_tool: "BWA-MEM2",
        pipeline: "reference-guided assembly",
        motif: "2-D banded DP, integer",
        granularity: Some(("seed (sequence pair)", "# cell updates")),
        cpu: true,
        work_unit: "cells",
        mlp_hint: 4.0,
        substrate_seed: seeds::GENOME ^ (seeds::SHORT_READS ^ 0xB5),
        uarch_budget: 60,
        engine_aware: true,
    };

    /// The SIMD engine length-sorts a copy of the pairs into contiguous
    /// lockstep groups here — per-run work, deliberately outside the
    /// substrate so one cache entry serves both engines.
    fn instantiate(sub: Arc<BswSubstrate>, engine: DpEngine) -> BswKernel {
        let mut sorted = Vec::new();
        let mut groups = Vec::new();
        if engine == DpEngine::Simd {
            // Length-sorted batch scheduling: similar-length pairs share a
            // lockstep group, cutting the Fig. 3 dead-slot over-compute.
            sorted = sub.tasks.clone();
            sorted.sort_by_key(|t| t.query.len() + t.target.len());
            let mut start = 0;
            while start < sorted.len() {
                let end = (start + LANES).min(sorted.len());
                groups.push(start..end);
                start = end;
            }
            // Largest (longest-sequence) groups first.
            groups.reverse();
        }
        BswKernel {
            sub,
            sorted,
            params: SwParams::default(),
            engine,
            groups,
        }
    }

    fn num_tasks(&self) -> usize {
        match self.engine {
            DpEngine::Scalar => self.sub.tasks.len(),
            DpEngine::Simd => self.groups.len(),
        }
    }

    // PANIC-FREE: callers keep `i < num_tasks()`, the documented
    // `KernelSpec::task` contract, and `groups` holds ranges of `sorted`.
    fn task<P: Probe>(&self, i: usize, probe: &mut P) -> TaskOut {
        // The per-alignment contribution, wrapping-summed: the pool
        // checksum is order-insensitive, so both engines agree on the
        // run's totals even though SIMD runs 16 pairs per task.
        let mut out = TaskOut::default();
        let mut add = |r: &SwResult| {
            let contribution = (r.score as u64).wrapping_mul(31).wrapping_add(r.cells);
            out.checksum = out.checksum.wrapping_add(contribution);
            out.work += r.cells;
        };
        match self.engine {
            DpEngine::Scalar => {
                let t = &self.sub.tasks[i];
                add(&banded_sw_probed(&t.query, &t.target, &self.params, probe));
            }
            DpEngine::Simd => {
                let group = &self.sorted[self.groups[i].clone()];
                let (results, slots) = simd_group_probed(group, &self.params, probe);
                results.iter().for_each(&mut add);
                out.slots = slots;
            }
        }
        out
    }

    /// Slot efficiency of the length-sorted batch schedule that ran, wired
    /// into metrics/manifests so `compare` can track it. (The unsorted
    /// baseline is a constant of the dataset: `bsw_batch_reports` prints
    /// it.)
    fn gauges(&self, slots: &BatchReport) -> Vec<(String, f64)> {
        slot_gauges(
            self.engine,
            "bsw.dead_slot_fraction.sorted",
            "bsw.simd_retired_lanes",
            slots,
        )
    }

    /// Draws sequence pairs from a synthetic genome: mostly true pairs
    /// (overlapping segments with errors), some unrelated pairs (which
    /// trigger the Z-drop early exit — the paper's divergence source).
    /// The pair set is identical for both engines; only the task shape
    /// differs.
    fn build_substrate(size: DatasetSize) -> BswSubstrate {
        let num_pairs = match size {
            DatasetSize::Tiny => 100,
            DatasetSize::Small => 2_000,
            DatasetSize::Large => 20_000,
        };
        let genome = Genome::generate(
            &GenomeConfig {
                length: 500_000.min(num_pairs * 600),
                ..Default::default()
            },
            seeds::GENOME,
        );
        let contig = genome.contig(0);
        let mut rng = Rng::seed_from_u64(seeds::SHORT_READS ^ 0xB5);
        let mut tasks = Vec::with_capacity(num_pairs);
        for _ in 0..num_pairs {
            // Length-diverse pairs: 60..=400 bases.
            let len = rng.gen_range(60..=400usize);
            let start = rng.gen_range(0..contig.len() - len);
            let target = contig.slice(start, start + len);
            let query = if rng.gen::<f64>() < 0.85 {
                // A noisy copy of the target (0.5% substitutions).
                let codes = target
                    .as_codes()
                    .iter()
                    .map(|&c| {
                        if rng.gen::<f64>() < 0.005 {
                            (c + 1) % 4
                        } else {
                            c
                        }
                    })
                    .collect();
                gb_core::seq::DnaSeq::from_codes_unchecked(codes)
            } else {
                // Unrelated segment: similar length, dissimilar content.
                let s2 = rng.gen_range(0..contig.len() - len);
                contig.slice(s2, s2 + len).reverse_complement()
            };
            tasks.push(SwTask { query, target });
        }
        BswSubstrate { tasks }
    }
}

impl BswKernel {
    /// The inter-sequence batch model at several configurations (Fig. 3):
    /// the analytic max-cells model at 16 lanes unsorted, 16 lanes
    /// length-sorted and 8 lanes unsorted, the executed i32 lockstep
    /// kernel (real per-step lane masking), and the production i16 SoA
    /// SIMD engine unsorted and length-sorted, for the slot-efficiency
    /// delta.
    pub fn batch_reports(&self) -> Vec<(String, BatchReport)> {
        let (tasks, p) = (&self.sub.tasks[..], &self.params);
        let rows = [
            ("16 lanes, unsorted", run_batch(tasks, p, 16, false).1),
            ("16 lanes, length-sorted", run_batch(tasks, p, 16, true).1),
            ("8 lanes, unsorted", run_batch(tasks, p, 8, false).1),
            (
                "16 lanes, executed lockstep",
                run_lockstep(tasks, p, false).1,
            ),
            ("i16 SIMD engine, unsorted", run_simd(tasks, p, false).1),
            ("i16 SIMD engine, length-sorted", run_simd(tasks, p, true).1),
        ];
        rows.into_iter()
            .map(|(label, report)| (label.to_string(), report))
            .collect()
    }
}

impl std::fmt::Debug for BswKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BswKernel")
            .field("pairs", &self.sub.tasks.len())
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
        let k = BswKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        assert_eq!(run_serial(&k).checksum, run_parallel(&k, 4).checksum);
    }

    #[test]
    fn work_is_imbalanced() {
        let k = BswKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        let d = work_distribution(&k);
        assert!(d.imbalance > 1.5, "imbalance {}", d.imbalance);
    }

    #[test]
    fn batch_overcomputes_and_sorting_helps() {
        let rows = BswKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar).batch_reports();
        let (unsorted, sorted) = (rows[0].1, rows[1].1);
        assert!(
            unsorted.overcompute() > 1.2,
            "unsorted {}",
            unsorted.overcompute()
        );
        assert!(sorted.overcompute() < unsorted.overcompute());
    }

    #[test]
    fn engines_agree_on_checksum() {
        // The SIMD engine is bit-identical per alignment and the pool
        // checksum is order-insensitive, so the run checksums match even
        // though the SIMD engine groups 16 pairs per task.
        let scalar = BswKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        let simd = BswKernel::prepare(DatasetSize::Tiny, DpEngine::Simd);
        assert_eq!(scalar.num_tasks(), 100);
        assert_eq!(simd.num_tasks(), 100usize.div_ceil(LANES));
        assert_eq!(
            run_serial(&scalar).checksum,
            run_parallel(&simd, 4).checksum
        );
    }

    #[test]
    fn simd_gauges_show_sorting_gain() {
        let simd = BswKernel::prepare(DatasetSize::Tiny, DpEngine::Simd);
        let slots = run_serial(&simd).slots;
        let rows = simd.batch_reports();
        // The run's fold is the length-sorted schedule `run_simd` models.
        assert_eq!(slots, rows[5].1, "{}", rows[5].0);
        let gauges = simd.gauges(&slots);
        assert_eq!(gauges[0].0, "bsw.dead_slot_fraction.sorted");
        let unsorted = rows[4].1.dead_slot_fraction();
        assert!(unsorted > 0.0, "unsorted dead slots {unsorted}");
        assert!(
            gauges[0].1 < unsorted,
            "sorted {} vs unsorted {unsorted}",
            gauges[0].1
        );
    }
}
