//! Genomic Relationship Matrix — the **grm** kernel.
//!
//! PLINK2 computes the `N x N` matrix of average genetic similarity
//! between all pairs of individuals:
//!
//! ```text
//! G_ij = (1/S) * sum_s (x_is - 2 p_s)(x_js - 2 p_s) / (2 p_s (1 - p_s))
//! ```
//!
//! which is the dense product `Z Z^T / S` of the standardized genotype
//! matrix — the suite's only regular-compute, CPU-friendly kernel
//! (87.7% retiring slots in the paper's Fig. 9). The implementation
//! standardizes once, then runs a cache-blocked, optionally multithreaded
//! matrix product over the upper triangle.

use gb_core::matrix::{axpy, Matrix};
use gb_datagen::genotypes::GenotypeMatrix;
use gb_uarch::probe::{addr_of, load_slice, NullProbe, Probe};

/// Parameters of the GRM computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrmParams {
    /// Cache-block edge length in individuals.
    pub block: usize,
    /// Worker threads (1 = serial).
    pub threads: usize,
}

impl Default for GrmParams {
    fn default() -> GrmParams {
        GrmParams {
            block: 32,
            threads: 1,
        }
    }
}

/// Standardizes the genotype matrix: `z = (x - 2p) / sqrt(2p(1-p))`.
///
/// Markers with `p` extremely close to 0 or 1 are zero-weighted (PLINK
/// drops monomorphic sites).
pub fn standardize(geno: &GenotypeMatrix) -> Matrix {
    let (n, s) = (geno.num_individuals(), geno.num_markers());
    let mut z = Matrix::zeros(n, s);
    let scale: Vec<(f32, f32)> = geno
        .freqs()
        .iter()
        .map(|&p| {
            let denom = 2.0 * p * (1.0 - p);
            if denom < 1e-6 {
                (0.0, 0.0)
            } else {
                (2.0 * p, 1.0 / denom.sqrt())
            }
        })
        .collect();
    for i in 0..n {
        let row = geno.row(i);
        let zrow = z.row_mut(i);
        for (j, (&g, &(center, inv))) in row.iter().zip(&scale).enumerate() {
            zrow[j] = (f32::from(g) - center) * inv;
        }
    }
    z
}

/// Rows of one stripe: as many independent dot products as run side by
/// side, one per lane, against each row of `Z`.
pub const STRIPE: usize = 16;

/// Up to [`STRIPE`] rows of `Z`, interleaved marker by marker so that one
/// marker of all of them is one contiguous group of lanes. Missing rows
/// (a stripe cut short by the matrix's edge) are zeros. `s x STRIPE`
/// floats, built per stripe and dropped with it.
pub struct Stripe {
    zt: Vec<f32>,
}

impl Stripe {
    /// Interleaves `rows` of `z`; at most [`STRIPE`] of them are taken.
    // PANIC-FREE: `lane < STRIPE`, the length of every `group`.
    pub fn new(z: &Matrix, rows: std::ops::Range<usize>) -> Stripe {
        let mut zt = vec![0.0f32; z.cols() * STRIPE];
        for (lane, i) in rows.take(STRIPE).enumerate() {
            for (group, &v) in zt.chunks_exact_mut(STRIPE).zip(z.row(i)) {
                group[lane] = v;
            }
        }
        Stripe { zt }
    }

    /// The stripe's rows dotted with `zj`, lane `r` holding row `r`'s.
    /// Every lane adds its `zi[k] * zj[k]` for `k` ascending from 0.0 —
    /// the plain dot product's order, so its bits.
    // xtask: hot
    pub fn dots(&self, zj: &[f32]) -> [f32; STRIPE] {
        let mut acc = [0.0f32; STRIPE];
        for (group, &x) in self.zt.chunks_exact(STRIPE).zip(zj) {
            axpy(&mut acc, x, group);
        }
        acc
    }
}

/// Computes the GRM: standardizes, then [`grm_from_z_probed`].
///
/// # Examples
///
/// ```
/// use gb_datagen::genotypes::GenotypeMatrix;
/// use gb_popgen::grm::{compute_grm_probed, GrmParams};
/// use gb_uarch::probe::NullProbe;
/// let geno = GenotypeMatrix::generate(20, 100, 1);
/// let g = compute_grm_probed(&geno, &GrmParams::default(), &mut NullProbe);
/// assert_eq!(g.shape(), (20, 20));
/// // Symmetric by construction.
/// assert_eq!(g[(3, 7)], g[(7, 3)]);
/// ```
pub fn compute_grm_probed<P: Probe>(
    geno: &GenotypeMatrix,
    params: &GrmParams,
    probe: &mut P,
) -> Matrix {
    grm_from_z_probed(&standardize(geno), params, probe)
}

/// The blocked `Z Z^T / S` product: the upper triangle by stripes of
/// rows, mirrored afterwards. With `params.threads > 1` the rows are
/// dealt out to scoped threads in contiguous runs and only the serial
/// path reports to `probe` (the blocked inner product's loads and
/// multiply-add vector work).
pub fn grm_from_z_probed<P: Probe>(z: &Matrix, params: &GrmParams, probe: &mut P) -> Matrix {
    let n = z.rows();
    let mut g = Matrix::zeros(n, n);
    if params.threads <= 1 {
        fill_rows(z, 0, g.as_mut_slice(), params.block, probe);
    } else {
        let run = n.div_ceil(params.threads);
        std::thread::scope(|scope| {
            let slabs = g.as_mut_slice().chunks_mut((run * n).max(1));
            for (t, slab) in slabs.enumerate() {
                scope.spawn(move || fill_rows(z, t * run, slab, params.block, &mut NullProbe));
            }
        });
    }
    for i in 0..n {
        for j in i + 1..n {
            g[(j, i)] = g[(i, j)];
        }
    }
    g
}

/// Fills `slab` — rows `first..` of the `n`-wide result, whole rows — at
/// and right of the diagonal. Blocks of `block` rows `zj` are the outer
/// loop, so one stays cache-resident while every stripe passes over it.
// PANIC-FREE: `slab` is whole rows of an `n x n` matrix starting at row
// `first`, so `(i - first) * n + j` with `i < last`, `j < n` is inside it.
fn fill_rows<P: Probe>(z: &Matrix, first: usize, slab: &mut [f32], block: usize, probe: &mut P) {
    let (n, s) = z.shape();
    let inv_s = 1.0 / s as f32;
    let last = first + slab.len() / n.max(1);
    let block = block.max(1);
    for jb in (first..n).step_by(block) {
        let jmax = (jb + block).min(n);
        for lo in (first..last.min(jmax)).step_by(STRIPE) {
            let hi = (lo + STRIPE).min(last);
            let stripe = Stripe::new(z, lo..hi);
            for i in lo..hi {
                load_slice(probe, z.row(i));
            }
            for j in jb.max(lo)..jmax {
                load_slice(probe, z.row(j));
                let dots = stripe.dots(z.row(j));
                for i in lo..hi.min(j + 1) {
                    // 8-lane FMA model: one vector op per 8 elements.
                    probe.simd_ops(s.div_ceil(8) as u64);
                    let slot = &mut slab[(i - first) * n + j];
                    *slot = dots[i - lo] * inv_s;
                    probe.store(addr_of(slot), 8);
                    probe.int_ops(4);
                }
            }
        }
    }
}

/// Naive per-element reference straight from the paper's equation.
pub fn naive_grm(geno: &GenotypeMatrix) -> Matrix {
    let (n, s) = (geno.num_individuals(), geno.num_markers());
    let mut g = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            let mut acc = 0.0f64;
            for m in 0..s {
                let p = f64::from(geno.freqs()[m]);
                let denom = 2.0 * p * (1.0 - p);
                if denom < 1e-6 {
                    continue;
                }
                let xi = f64::from(geno.genotype(i, m)) - 2.0 * p;
                let xj = f64::from(geno.genotype(j, m)) - 2.0 * p;
                acc += xi * xj / denom;
            }
            g[(i, j)] = (acc / s as f64) as f32;
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geno() -> GenotypeMatrix {
        GenotypeMatrix::generate(40, 300, 9)
    }

    fn grm(geno: &GenotypeMatrix, block: usize, threads: usize) -> Matrix {
        compute_grm_probed(geno, &GrmParams { block, threads }, &mut NullProbe)
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// The oracle: one serial `acc += zi[k] * zj[k]` chain per entry.
    fn plain_grm(z: &Matrix) -> Matrix {
        let (n, s) = z.shape();
        let mut g = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                let mut acc = 0.0f32;
                for k in 0..s {
                    acc += z[(i, k)] * z[(j, k)];
                }
                g[(i, j)] = acc * (1.0 / s as f32);
            }
        }
        g
    }

    #[test]
    fn every_dot_matches_the_k_ordered_loop_bit_for_bit() {
        // Shapes on and off a multiple of STRIPE, every block size, serial
        // and threaded (more workers than rows included).
        for (n, s) in [(1, 5), (15, 64), (16, 33), (17, 300), (40, 7)] {
            let z = standardize(&GenotypeMatrix::generate(n, s, 7 + n as u64));
            let want = bits(&plain_grm(&z));
            for block in 1..=n + 1 {
                for threads in [1, 2, 3, 64] {
                    let params = GrmParams { block, threads };
                    let got = grm_from_z_probed(&z, &params, &mut NullProbe);
                    assert_eq!(bits(&got), want, "n {n} s {s} {params:?}");
                }
            }
        }
    }

    #[test]
    fn a_short_stripe_pads_with_zero_rows() {
        let z = standardize(&geno());
        let dots = Stripe::new(&z, 38..40).dots(z.row(3));
        assert!(dots[0] != 0.0 && dots[1] != 0.0);
        assert_eq!(dots[2..], [0.0; STRIPE - 2]);
    }

    #[test]
    fn blocked_matches_naive() {
        let g = geno();
        let blocked = grm(&g, 7, 1);
        let naive = naive_grm(&g);
        assert!(
            blocked.max_abs_diff(&naive) < 1e-3,
            "diff {}",
            blocked.max_abs_diff(&naive)
        );
    }

    #[test]
    fn parallel_matches_serial() {
        let g = geno();
        let serial = grm(&g, 16, 1);
        for threads in [2, 3, 8] {
            assert_eq!(bits(&serial), bits(&grm(&g, 16, threads)), "{threads}");
        }
    }

    #[test]
    fn grm_is_symmetric() {
        let m = grm(&geno(), 32, 1);
        let (n, _) = m.shape();
        for i in 0..n {
            for j in 0..n {
                assert_eq!(m[(i, j)], m[(j, i)]);
            }
        }
    }

    #[test]
    fn diagonal_near_one_under_hwe() {
        // Under Hardy-Weinberg, E[(x - 2p)^2] = 2p(1-p), so diagonal
        // entries average ~1.
        let g = GenotypeMatrix::generate(60, 4000, 11);
        let m = grm(&g, 32, 1);
        let mean_diag: f32 = (0..60).map(|i| m[(i, i)]).sum::<f32>() / 60.0;
        assert!((mean_diag - 1.0).abs() < 0.1, "mean diagonal {mean_diag}");
    }

    #[test]
    fn grm_is_positive_semidefinite_quadratic() {
        // G = ZZ^T/S, so v^T G v = |Z^T v|^2 / S >= 0 for any v.
        let m = grm(&geno(), 32, 1);
        let (n, _) = m.shape();
        let v: Vec<f32> = (0..n).map(|i| ((i * 37 % 11) as f32) - 5.0).collect();
        let mut quad = 0.0f64;
        for i in 0..n {
            for j in 0..n {
                quad += f64::from(v[i]) * f64::from(m[(i, j)]) * f64::from(v[j]);
            }
        }
        assert!(quad > -1e-3, "v'Gv = {quad}");
    }

    #[test]
    fn probe_sees_simd_dominated_mix() {
        use gb_uarch::mix::MixProbe;
        let g = geno();
        let mut probe = MixProbe::new();
        let _ = compute_grm_probed(&g, &GrmParams::default(), &mut probe);
        let mix = probe.mix();
        assert!(
            mix.simd_ops > mix.loads,
            "grm must be vector-compute heavy: {mix:?}"
        );
    }

    #[test]
    fn block_size_does_not_change_result() {
        let g = geno();
        assert_eq!(bits(&grm(&g, 1, 1)), bits(&grm(&g, 1000, 1)));
    }
}
