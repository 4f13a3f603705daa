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

use gb_core::matrix::Matrix;
use gb_datagen::genotypes::GenotypeMatrix;
use gb_uarch::probe::{addr_of, NullProbe, Probe};

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

/// Computes the GRM serially with cache blocking.
///
/// # Examples
///
/// ```
/// use gb_datagen::genotypes::GenotypeMatrix;
/// use gb_popgen::grm::{compute_grm, GrmParams};
/// let geno = GenotypeMatrix::generate(20, 100, 1);
/// let g = compute_grm(&geno, &GrmParams::default());
/// assert_eq!(g.shape(), (20, 20));
/// // Symmetric by construction.
/// assert!((g[(3, 7)] - g[(7, 3)]).abs() < 1e-5);
/// ```
pub fn compute_grm(geno: &GenotypeMatrix, params: &GrmParams) -> Matrix {
    compute_grm_probed(geno, params, &mut NullProbe)
}

/// [`compute_grm`] with instrumentation (the blocked inner product's
/// loads and fused multiply-add vector work).
pub fn compute_grm_probed<P: Probe>(
    geno: &GenotypeMatrix,
    params: &GrmParams,
    probe: &mut P,
) -> Matrix {
    let z = standardize(geno);
    if params.threads > 1 {
        grm_from_z_parallel(&z, params)
    } else {
        grm_from_z_probed(&z, params.block, probe)
    }
}

/// The blocked `Z Z^T / S` product (upper triangle mirrored).
pub fn grm_from_z_probed<P: Probe>(z: &Matrix, block: usize, probe: &mut P) -> Matrix {
    let (n, s) = z.shape();
    let block = block.max(1);
    let mut g = Matrix::zeros(n, n);
    let inv_s = 1.0 / s as f32;
    for ib in (0..n).step_by(block) {
        for jb in (ib..n).step_by(block) {
            let imax = (ib + block).min(n);
            let jmax = (jb + block).min(n);
            for i in ib..imax {
                let zi = z.row(i);
                probe.load(addr_of(&zi[0]), (s * 4) as u32);
                let jstart = jb.max(i);
                for j in jstart..jmax {
                    let zj = z.row(j);
                    probe.load(addr_of(&zj[0]), (s * 4) as u32);
                    let mut acc = 0.0f32;
                    for k in 0..s {
                        acc += zi[k] * zj[k];
                    }
                    // 8-lane FMA model: one vector op per 8 elements.
                    probe.simd_ops(s.div_ceil(8) as u64);
                    let v = acc * inv_s;
                    g[(i, j)] = v;
                    g[(j, i)] = v;
                    probe.store(addr_of(&g[(i, j)]), 8);
                    probe.int_ops(4);
                }
            }
        }
    }
    g
}

/// Multithreaded GRM: output row-blocks distributed over scoped threads.
fn grm_from_z_parallel(z: &Matrix, params: &GrmParams) -> Matrix {
    let (n, s) = z.shape();
    let inv_s = 1.0 / s as f32;
    let threads = params.threads.max(1);
    // Each worker produces complete rows i for its stripe (j >= i), which
    // are mirrored in a single pass afterwards.
    let rows: Vec<Vec<f32>> = std::thread::scope(|scope| {
        let chunk = n.div_ceil(threads);
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let z = &z;
                scope.spawn(move || {
                    let lo = (t * chunk).min(n);
                    let hi = ((t + 1) * chunk).min(n);
                    let mut out = Vec::with_capacity(hi - lo);
                    for i in lo..hi {
                        let zi = z.row(i);
                        let mut row = vec![0.0f32; n];
                        for (j, slot) in row.iter_mut().enumerate().skip(i) {
                            let zj = z.row(j);
                            let mut acc = 0.0f32;
                            for k in 0..s {
                                acc += zi[k] * zj[k];
                            }
                            *slot = acc * inv_s;
                        }
                        out.push(row);
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("grm worker panicked"))
            .collect()
    });
    let mut g = Matrix::zeros(n, n);
    for (i, row) in rows.iter().enumerate() {
        for j in i..n {
            g[(i, j)] = row[j];
            g[(j, i)] = row[j];
        }
    }
    g
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

    #[test]
    fn blocked_matches_naive() {
        let g = geno();
        let blocked = compute_grm(
            &g,
            &GrmParams {
                block: 7,
                threads: 1,
            },
        );
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
        let serial = compute_grm(
            &g,
            &GrmParams {
                block: 16,
                threads: 1,
            },
        );
        for threads in [2, 3, 8] {
            let par = compute_grm(&g, &GrmParams { block: 16, threads });
            assert!(serial.max_abs_diff(&par) < 1e-5, "threads {threads}");
        }
    }

    #[test]
    fn grm_is_symmetric() {
        let m = compute_grm(&geno(), &GrmParams::default());
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
        let m = compute_grm(&g, &GrmParams::default());
        let mean_diag: f32 = (0..60).map(|i| m[(i, i)]).sum::<f32>() / 60.0;
        assert!((mean_diag - 1.0).abs() < 0.1, "mean diagonal {mean_diag}");
    }

    #[test]
    fn grm_is_positive_semidefinite_quadratic() {
        // G = ZZ^T/S, so v^T G v = |Z^T v|^2 / S >= 0 for any v.
        let g = geno();
        let m = compute_grm(&g, &GrmParams::default());
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
        let a = compute_grm(
            &g,
            &GrmParams {
                block: 1,
                threads: 1,
            },
        );
        let b = compute_grm(
            &g,
            &GrmParams {
                block: 1000,
                threads: 1,
            },
        );
        assert!(a.max_abs_diff(&b) < 1e-6);
    }
}
