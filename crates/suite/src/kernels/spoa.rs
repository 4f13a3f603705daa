//! The **spoa** kernel: partial-order-alignment consensus windows (paper
//! §III, from Racon).
//!
//! Two execution engines ([`DpEngine`]): the paper-faithful scalar mode
//! scans each cell's graph predecessors inline in i32; the SIMD mode
//! runs the i16 row-sweep engine (`gb_poa::align_simd`) — full-row
//! predecessor passes on the `gb_dp::lockstep` precision ladder, with
//! overflow retiring the alignment to the exact i32 rerun — with
//! bit-identical scores, paths and graphs, so the two engines produce
//! the same run checksum.

use super::{slot_gauges, KernelId, KernelMeta, KernelSpec, TaskOut};
use crate::dataset::{seeds, DatasetSize};
use gb_core::rng::Rng;
use gb_core::seq::DnaSeq;
use gb_datagen::genome::{Genome, GenomeConfig};
use gb_datagen::reads::{simulate_reads, ErrorProfile, ReadSimConfig};
use gb_dp::lockstep::BatchReport;
use gb_dp::DpEngine;
use gb_poa::align::PoaParams;
use gb_poa::consensus::window_consensus_engine_probed;
use gb_uarch::probe::Probe;
use std::sync::Arc;

/// Deterministic build product of the spoa prepare phase: the consensus
/// windows (backbone first, then the noisy reads). Engine-independent —
/// spoa vectorizes *within* each alignment, so both engines consume the
/// same window set.
pub struct SpoaSubstrate {
    windows: Vec<Vec<DnaSeq>>,
}

impl gb_substrate::Codec for SpoaSubstrate {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        gb_substrate::Codec::encode(&self.windows, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<SpoaSubstrate> {
        Some(SpoaSubstrate {
            windows: gb_substrate::Codec::decode(d)?,
        })
    }
}

/// Prepared spoa workload: one consensus window per task (backbone +
/// noisy long reads).
pub struct SpoaKernel {
    sub: Arc<SpoaSubstrate>,
    params: PoaParams,
    engine: DpEngine,
}

impl KernelSpec for SpoaKernel {
    type Substrate = SpoaSubstrate;

    const META: KernelMeta = KernelMeta {
        id: KernelId::Spoa,
        name: "spoa",
        source_tool: "Racon",
        pipeline: "de-novo assembly / polishing",
        motif: "graph-sequence DP",
        granularity: Some(("read chunk window", "# cell updates")),
        cpu: true,
        work_unit: "cells",
        mlp_hint: 3.0,
        substrate_seed: seeds::GENOME ^ (seeds::LONG_READS ^ 0x50A),
        uarch_budget: 3,
        engine_aware: true,
    };

    fn instantiate(sub: Arc<SpoaSubstrate>, engine: DpEngine) -> SpoaKernel {
        SpoaKernel {
            sub,
            params: PoaParams::default(),
            engine,
        }
    }

    fn num_tasks(&self) -> usize {
        self.sub.windows.len()
    }

    // PANIC-FREE: callers keep `i < num_tasks()`, the documented
    // `KernelSpec::task` contract.
    fn task<P: Probe>(&self, i: usize, probe: &mut P) -> TaskOut {
        let (consensus, stats, slots) =
            window_consensus_engine_probed(&self.sub.windows[i], &self.params, self.engine, probe);
        TaskOut {
            checksum: consensus.as_codes().iter().fold(stats.cells, |acc, &c| {
                acc.wrapping_mul(5).wrapping_add(u64::from(c))
            }),
            work: stats.cells,
            slots,
        }
    }

    /// Slot efficiency of the row-sweep engine: vector slots are rows
    /// padded to whole lanes, so the dead-slot fraction is the
    /// read-length padding waste; retired lanes count alignments the
    /// precision ladder sent back to the exact i32 engine.
    fn gauges(&self, slots: &BatchReport) -> Vec<(String, f64)> {
        slot_gauges(
            self.engine,
            "spoa.dead_slot_fraction",
            "spoa.simd_retired_lanes",
            slots,
        )
    }

    /// Builds Racon-like windows: a 200-base backbone and ONT-noise reads
    /// covering it, with depth varying per window (the imbalance source).
    /// The window set is identical for both engines; spoa vectorizes
    /// *within* each alignment (read-dimension row sweeps), so the task
    /// shape is one window per task on either engine.
    fn build_substrate(size: DatasetSize) -> SpoaSubstrate {
        let num_windows = match size {
            DatasetSize::Tiny => 6,
            DatasetSize::Small => 120,
            DatasetSize::Large => 1_200,
        };
        let window_len = 200usize;
        let genome = Genome::generate(
            &GenomeConfig {
                length: window_len * num_windows,
                ..Default::default()
            },
            seeds::GENOME,
        );
        let mut rng = Rng::seed_from_u64(seeds::LONG_READS ^ 0x50A);
        let windows = (0..num_windows)
            .map(|w| {
                let backbone = genome.contig(0).slice(w * window_len, (w + 1) * window_len);
                let depth = rng.gen_range(8..=24usize);
                let g = Genome::from_contigs(vec![backbone.clone()]);
                let cfg = ReadSimConfig {
                    num_reads: depth,
                    read_len: window_len,
                    length_jitter: 0.0,
                    errors: ErrorProfile::nanopore(),
                    revcomp_prob: 0.0,
                };
                let mut reads = vec![backbone];
                reads.extend(
                    simulate_reads(&g, &cfg, rng.gen())
                        .into_iter()
                        .map(|r| r.record.seq),
                );
                reads
            })
            .collect();
        SpoaSubstrate { windows }
    }
}

impl std::fmt::Debug for SpoaKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpoaKernel")
            .field("windows", &self.sub.windows.len())
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
        let k = SpoaKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        assert_eq!(run_serial(&k).checksum, run_parallel(&k, 4).checksum);
    }

    #[test]
    fn consensus_recovers_backbone_closely() {
        let k = SpoaKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        let (consensus, _) = gb_poa::consensus::window_consensus(&k.sub.windows[0], &k.params);
        let backbone = &k.sub.windows[0][0];
        let len_diff = (consensus.len() as i64 - backbone.len() as i64).abs();
        assert!(len_diff < 20, "consensus length diff {len_diff}");
    }

    #[test]
    fn engines_agree_on_checksum() {
        let scalar = SpoaKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        let simd = SpoaKernel::prepare(DatasetSize::Tiny, DpEngine::Simd);
        assert_eq!(scalar.num_tasks(), simd.num_tasks());
        assert_eq!(
            run_serial(&scalar).checksum,
            run_parallel(&simd, 4).checksum
        );
    }

    #[test]
    fn simd_gauges_report_slot_accounting() {
        let simd = SpoaKernel::prepare(DatasetSize::Tiny, DpEngine::Simd);
        let gauges = simd.gauges(&run_serial(&simd).slots);
        let get = |name: &str| {
            gauges
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap()
        };
        let dead = get("spoa.dead_slot_fraction");
        assert!((0.0..1.0).contains(&dead), "dead slots {dead}");
        // Default params fit the i16 ladder and window scores stay far
        // below the watch, so nothing retires on this workload.
        assert_eq!(get("spoa.simd_retired_lanes"), 0.0);
    }
}
