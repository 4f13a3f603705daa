//! Synthetic population genotype matrices for the GRM kernel.
//!
//! Replaces the 1000 Genomes Phase 3 SNV data (2504 individuals,
//! 194K/1.07M markers). Only the matrix *shape* and allele-frequency
//! spectrum matter for the kernel's dense-compute behaviour; both are
//! reproduced here: `p_s` follows a low-frequency-skewed spectrum and each
//! genotype is a binomial(2, p_s) draw.

use gb_core::rng::Rng;

/// A genotype matrix: `individuals x markers` entries in `{0, 1, 2}`
/// (copies of the non-reference allele), plus per-marker allele
/// frequencies.
///
/// # Examples
///
/// ```
/// use gb_datagen::genotypes::GenotypeMatrix;
/// let g = GenotypeMatrix::generate(100, 500, 42);
/// assert_eq!(g.num_individuals(), 100);
/// assert_eq!(g.num_markers(), 500);
/// assert!(g.genotype(0, 0) <= 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GenotypeMatrix {
    individuals: usize,
    markers: usize,
    /// Row-major `individuals x markers`, values 0/1/2.
    data: Vec<u8>,
    /// Per-marker population allele frequency `p_s`.
    freqs: Vec<f32>,
}

impl GenotypeMatrix {
    /// Generates a matrix deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn generate(individuals: usize, markers: usize, seed: u64) -> GenotypeMatrix {
        assert!(
            individuals > 0 && markers > 0,
            "dimensions must be positive"
        );
        let mut rng = Rng::seed_from_u64(seed);
        // Allele-frequency spectrum skewed toward rare variants:
        // p = 0.01 + 0.49 * u^2 keeps p in [0.01, 0.5] with density
        // concentrated at low frequency, like real site-frequency spectra.
        let freqs: Vec<f32> = (0..markers)
            .map(|_| {
                let u: f64 = rng.gen();
                (0.01 + 0.49 * u * u) as f32
            })
            .collect();
        let mut data = vec![0u8; individuals * markers];
        for i in 0..individuals {
            for (s, &p) in freqs.iter().enumerate() {
                let a = u8::from(rng.gen::<f32>() < p);
                let b = u8::from(rng.gen::<f32>() < p);
                data[i * markers + s] = a + b;
            }
        }
        GenotypeMatrix {
            individuals,
            markers,
            data,
            freqs,
        }
    }

    /// Number of individuals (GRM dimension `N`).
    pub fn num_individuals(&self) -> usize {
        self.individuals
    }

    /// Number of SNV markers (`S`).
    pub fn num_markers(&self) -> usize {
        self.markers
    }

    /// Genotype of individual `i` at marker `s` (0, 1 or 2).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn genotype(&self, i: usize, s: usize) -> u8 {
        assert!(i < self.individuals && s < self.markers);
        self.data[i * self.markers + s]
    }

    /// All genotypes of individual `i`.
    // PANIC-FREE: documented precondition assert; the grm kernel iterates
    // `i in 0..individuals`.
    pub fn row(&self, i: usize) -> &[u8] {
        assert!(i < self.individuals);
        &self.data[i * self.markers..(i + 1) * self.markers]
    }

    /// Population allele frequencies per marker.
    pub fn freqs(&self) -> &[f32] {
        &self.freqs
    }

    /// Empirical allele frequency of marker `s` in this sample.
    pub fn empirical_freq(&self, s: usize) -> f64 {
        let sum: u64 = (0..self.individuals)
            .map(|i| u64::from(self.genotype(i, s)))
            .sum();
        sum as f64 / (2.0 * self.individuals as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(
            GenotypeMatrix::generate(10, 20, 1),
            GenotypeMatrix::generate(10, 20, 1)
        );
    }

    #[test]
    fn genotypes_in_range() {
        let g = GenotypeMatrix::generate(50, 100, 2);
        for i in 0..50 {
            for s in 0..100 {
                assert!(g.genotype(i, s) <= 2);
            }
        }
    }

    #[test]
    fn empirical_matches_population_freq() {
        let g = GenotypeMatrix::generate(2000, 20, 3);
        for s in 0..20 {
            let p = f64::from(g.freqs()[s]);
            let e = g.empirical_freq(s);
            assert!((e - p).abs() < 0.05, "marker {s}: pop {p} vs empirical {e}");
        }
    }

    #[test]
    fn spectrum_is_low_frequency_skewed() {
        let g = GenotypeMatrix::generate(2, 5000, 4);
        let rare = g.freqs().iter().filter(|&&p| p < 0.15).count();
        let common = g.freqs().iter().filter(|&&p| p > 0.35).count();
        assert!(rare > common, "rare {rare} vs common {common}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dims_panic() {
        let _ = GenotypeMatrix::generate(0, 10, 0);
    }
}
