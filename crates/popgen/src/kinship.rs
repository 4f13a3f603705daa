//! Kinship analysis on the GRM.
//!
//! The paper motivates the grm kernel by population studies needing "to
//! account for potential ancestral relationship between individuals";
//! this module implements that downstream step: classifying pairs by
//! their GRM coefficient (the standard KING/PLINK thresholds) and
//! extracting related pairs.

use gb_core::matrix::Matrix;

/// Degree of relatedness inferred from a GRM coefficient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relatedness {
    /// Same sample or identical twins (`g >= 0.9`).
    Duplicate,
    /// Parent-offspring or full siblings (`0.4 <= g < 0.9`).
    FirstDegree,
    /// Half-siblings, grandparents, avuncular (`0.2 <= g < 0.4`).
    SecondDegree,
    /// First cousins and closer-than-random (`0.1 <= g < 0.2`).
    ThirdDegree,
    /// Effectively unrelated (`g < 0.1`).
    Unrelated,
}

impl Relatedness {
    /// Classifies a GRM off-diagonal coefficient.
    pub fn from_coefficient(g: f32) -> Relatedness {
        match g {
            g if g >= 0.9 => Relatedness::Duplicate,
            g if g >= 0.4 => Relatedness::FirstDegree,
            g if g >= 0.2 => Relatedness::SecondDegree,
            g if g >= 0.1 => Relatedness::ThirdDegree,
            _ => Relatedness::Unrelated,
        }
    }
}

/// A related pair extracted from the GRM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelatedPair {
    /// First individual (row index).
    pub a: usize,
    /// Second individual (`a < b`).
    pub b: usize,
    /// Their GRM coefficient.
    pub coefficient: f32,
    /// The inferred degree.
    pub degree: Relatedness,
}

/// Scans the GRM for pairs at least as related as `min_degree` implies
/// (coefficient >= 0.1 for third degree, etc.), sorted by decreasing
/// coefficient.
///
/// # Panics
///
/// Panics if `grm` is not square.
///
/// # Examples
///
/// ```
/// use gb_core::matrix::Matrix;
/// use gb_popgen::kinship::{related_pairs, Relatedness};
/// let mut g = Matrix::zeros(3, 3);
/// for i in 0..3 { g[(i, i)] = 1.0; }
/// g[(0, 2)] = 0.5; g[(2, 0)] = 0.5;
/// let pairs = related_pairs(&g, Relatedness::ThirdDegree);
/// assert_eq!(pairs.len(), 1);
/// assert_eq!(pairs[0].degree, Relatedness::FirstDegree);
/// ```
pub fn related_pairs(grm: &Matrix, min_degree: Relatedness) -> Vec<RelatedPair> {
    let (n, m) = grm.shape();
    assert_eq!(n, m, "GRM must be square");
    let threshold = match min_degree {
        Relatedness::Duplicate => 0.9,
        Relatedness::FirstDegree => 0.4,
        Relatedness::SecondDegree => 0.2,
        Relatedness::ThirdDegree => 0.1,
        Relatedness::Unrelated => f32::MIN,
    };
    let mut out = Vec::new();
    for a in 0..n {
        for b in a + 1..n {
            let g = grm[(a, b)];
            if g >= threshold {
                out.push(RelatedPair {
                    a,
                    b,
                    coefficient: g,
                    degree: Relatedness::from_coefficient(g),
                });
            }
        }
    }
    out.sort_by(|x, y| {
        y.coefficient
            .partial_cmp(&x.coefficient)
            .expect("finite GRM")
    });
    out
}

/// Mean inbreeding-style diagonal excess: `mean(G_ii) - 1`, a population
/// QC statistic (≈0 under Hardy-Weinberg equilibrium).
pub fn mean_diagonal_excess(grm: &Matrix) -> f64 {
    let (n, _) = grm.shape();
    if n == 0 {
        return 0.0;
    }
    let mean: f64 = (0..n).map(|i| f64::from(grm[(i, i)])).sum::<f64>() / n as f64;
    mean - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grm::{compute_grm_probed, GrmParams};
    use gb_datagen::genotypes::GenotypeMatrix;
    use gb_uarch::probe::NullProbe;

    #[test]
    fn classification_thresholds() {
        assert_eq!(Relatedness::from_coefficient(1.0), Relatedness::Duplicate);
        assert_eq!(Relatedness::from_coefficient(0.5), Relatedness::FirstDegree);
        assert_eq!(
            Relatedness::from_coefficient(0.25),
            Relatedness::SecondDegree
        );
        assert_eq!(
            Relatedness::from_coefficient(0.12),
            Relatedness::ThirdDegree
        );
        assert_eq!(Relatedness::from_coefficient(0.01), Relatedness::Unrelated);
        assert_eq!(Relatedness::from_coefficient(-0.2), Relatedness::Unrelated);
    }

    #[test]
    fn random_population_is_unrelated() {
        let geno = GenotypeMatrix::generate(60, 2500, 21);
        let grm = compute_grm_probed(&geno, &GrmParams::default(), &mut NullProbe);
        let pairs = related_pairs(&grm, Relatedness::SecondDegree);
        assert!(
            pairs.is_empty(),
            "random individuals misclassified as related: {pairs:?}"
        );
        // Diagonal behaves under HWE.
        assert!(mean_diagonal_excess(&grm).abs() < 0.1);
    }

    #[test]
    fn planted_duplicate_is_detected() {
        // Plant a twin by duplicating one standardized genotype row, then
        // check the GRM scan flags exactly that pair.
        use crate::grm::{grm_from_z_probed, standardize};
        let geno = GenotypeMatrix::generate(30, 2000, 33);
        let z = standardize(&geno);
        let (n, s) = z.shape();
        let mut z2 = gb_core::matrix::Matrix::zeros(n + 1, s);
        for i in 0..n {
            z2.row_mut(i).copy_from_slice(z.row(i));
        }
        let dup_src = 4usize;
        let row: Vec<f32> = z.row(dup_src).to_vec();
        z2.row_mut(n).copy_from_slice(&row);
        let grm = grm_from_z_probed(&z2, &GrmParams::default(), &mut NullProbe);
        let pairs = related_pairs(&grm, Relatedness::Duplicate);
        assert_eq!(pairs.len(), 1);
        assert_eq!((pairs[0].a, pairs[0].b), (dup_src, n));
        assert!(pairs[0].coefficient > 0.9);
    }

    #[test]
    fn pairs_sorted_by_coefficient() {
        let mut g = Matrix::zeros(4, 4);
        g[(0, 1)] = 0.15;
        g[(1, 0)] = 0.15;
        g[(0, 2)] = 0.55;
        g[(2, 0)] = 0.55;
        g[(1, 3)] = 0.25;
        g[(3, 1)] = 0.25;
        let pairs = related_pairs(&g, Relatedness::ThirdDegree);
        let coeffs: Vec<f32> = pairs.iter().map(|p| p.coefficient).collect();
        assert_eq!(coeffs, vec![0.55, 0.25, 0.15]);
    }
}
