//! The **grm** kernel: genomic relationship matrix (paper §III, from
//! PLINK2).

use super::{KernelId, KernelMeta, KernelSpec, TaskOut};
use crate::dataset::{seeds, DatasetSize};
use gb_core::matrix::Matrix;
use gb_datagen::genotypes::GenotypeMatrix;
use gb_dp::DpEngine;
use gb_popgen::grm::{standardize, Stripe, STRIPE};
use gb_uarch::probe::Probe;
use std::sync::Arc;

/// Deterministic build product of the grm prepare phase: the
/// standardized genotype matrix.
pub struct GrmSubstrate {
    z: Matrix,
}

impl gb_substrate::Codec for GrmSubstrate {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        gb_substrate::Codec::encode(&self.z, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<GrmSubstrate> {
        Some(GrmSubstrate {
            z: gb_substrate::Codec::decode(d)?,
        })
    }
}

/// Prepared grm workload: the standardized genotype matrix.
pub struct GrmKernel {
    sub: Arc<GrmSubstrate>,
}

impl KernelSpec for GrmKernel {
    type Substrate = GrmSubstrate;

    const META: KernelMeta = KernelMeta {
        id: KernelId::Grm,
        name: "grm",
        source_tool: "PLINK2",
        pipeline: "population genomics",
        motif: "dense matrix multiplication",
        granularity: None,
        cpu: true,
        work_unit: "mac_ops",
        mlp_hint: 4.0,
        substrate_seed: seeds::GENOTYPES,
        uarch_budget: 2,
        engine_aware: false,
    };

    fn instantiate(sub: Arc<GrmSubstrate>, _engine: DpEngine) -> GrmKernel {
        GrmKernel { sub }
    }

    /// Tasks are stripes of output rows, the regular-compute parallel
    /// decomposition.
    fn num_tasks(&self) -> usize {
        self.sub.z.rows().div_ceil(STRIPE)
    }

    /// One stripe of output rows, blocked (j outer, stripe rows inner):
    /// each zj row is streamed from memory once per stripe and meets all
    /// of the stripe's rows at once ([`Stripe::dots`]), the way PLINK's
    /// tiled product behaves.
    // PANIC-FREE: `i`/`j` stay below `n` and `k` below `s`, the matrix's
    // own shape; `i - lo < STRIPE`.
    fn task<P: Probe>(&self, stripe: usize, probe: &mut P) -> TaskOut {
        let z = &self.sub.z;
        let (n, s) = z.shape();
        let lo = stripe * STRIPE;
        let hi = (lo + STRIPE).min(n);
        let inv_s = 1.0 / s as f32;
        let rows = Stripe::new(z, lo..hi);
        let mut checksum = 0u64;
        for j in lo..n {
            let zj = z.row(j);
            let dots = rows.dots(zj);
            for i in lo..hi.min(j + 1) {
                let zi = z.row(i);
                // One 8-lane FMA per chunk; zj streamed on the stripe's
                // first row, zi rows resident and re-touched.
                for k in (0..s).step_by(8) {
                    if i == lo {
                        probe.load(gb_uarch::probe::addr_of(&zj[k]), 32);
                    }
                    probe.load(gb_uarch::probe::addr_of(&zi[k]), 32);
                    probe.simd_ops(1);
                }
                probe.int_ops(2);
                probe.branch(true);
                checksum = checksum.wrapping_add((dots[i - lo] * inv_s * 1e3) as i64 as u64);
            }
        }
        TaskOut {
            checksum,
            work: self.task_work(stripe),
            ..TaskOut::default()
        }
    }

    /// Multiply-accumulates of the stripe's share of the upper triangle.
    fn task_work(&self, i: usize) -> u64 {
        let (n, s) = self.sub.z.shape();
        let lo = i * STRIPE;
        let hi = (lo + STRIPE).min(n);
        ((lo..hi).map(|r| n - r).sum::<usize>() * s) as u64
    }

    /// Generates the genotype matrix and standardizes it once (as PLINK
    /// does before the product).
    fn build_substrate(size: DatasetSize) -> GrmSubstrate {
        let (individuals, markers) = match size {
            DatasetSize::Tiny => (64, 500),
            DatasetSize::Small => (512, 4_000),
            DatasetSize::Large => (1_280, 12_000),
        };
        let geno = GenotypeMatrix::generate(individuals, markers, seeds::GENOTYPES);
        GrmSubstrate {
            z: standardize(&geno),
        }
    }
}

impl std::fmt::Debug for GrmKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (n, s) = self.sub.z.shape();
        f.debug_struct("GrmKernel")
            .field("individuals", &n)
            .field("markers", &s)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{run_parallel, run_serial};

    #[test]
    fn deterministic_across_threads() {
        let k = GrmKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        assert_eq!(run_serial(&k).checksum, run_parallel(&k, 4).checksum);
        assert_eq!(k.num_tasks(), 4);
    }

    #[test]
    fn stripes_cover_the_full_product() {
        let k = GrmKernel::prepare(DatasetSize::Tiny, DpEngine::Scalar);
        // Sum of stripe checksums must reflect every (i, j>=i) pair: the
        // stripe work adds up to the upper triangle.
        let total_work: u64 = (0..k.num_tasks()).map(|i| k.task_work(i)).sum();
        let (n, s) = k.sub.z.shape();
        assert_eq!(total_work, (n * (n + 1) / 2 * s) as u64);
    }
}
