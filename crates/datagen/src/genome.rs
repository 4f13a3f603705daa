//! Synthetic reference genomes.
//!
//! Stands in for GRCh38 / chromosome subsets / the *S. aureus* and
//! *C. elegans* references used by the paper's datasets. The generator
//! mixes uniform background sequence with tandem and interspersed repeats
//! so that index structures (FM-index, k-mer tables, minimizers) see
//! realistic multiplicity rather than pure random text.

use gb_core::rng::Rng;
use gb_core::seq::DnaSeq;

/// Parameters for [`Genome::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenomeConfig {
    /// Total bases across all contigs.
    pub length: usize,
    /// Number of contigs the genome is split into.
    pub contigs: usize,
    /// Fraction of bases covered by repeat copies (0 disables repeats).
    pub repeat_fraction: f64,
    /// Length of each repeat unit.
    pub repeat_unit_len: usize,
    /// GC content in `[0, 1]` (0.41 is human-like).
    pub gc_content: f64,
}

impl Default for GenomeConfig {
    fn default() -> GenomeConfig {
        GenomeConfig {
            length: 100_000,
            contigs: 1,
            repeat_fraction: 0.15,
            repeat_unit_len: 300,
            gc_content: 0.41,
        }
    }
}

/// A multi-contig reference genome.
///
/// # Examples
///
/// ```
/// use gb_datagen::genome::{Genome, GenomeConfig};
/// let g = Genome::generate(&GenomeConfig { length: 10_000, ..Default::default() }, 42);
/// assert_eq!(g.total_len(), 10_000);
/// let again = Genome::generate(&GenomeConfig { length: 10_000, ..Default::default() }, 42);
/// assert_eq!(g.contig(0), again.contig(0)); // seeded => reproducible
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Genome {
    contigs: Vec<DnaSeq>,
}

impl Genome {
    /// Generates a genome deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `config.contigs == 0` or `config.length == 0`.
    pub fn generate(config: &GenomeConfig, seed: u64) -> Genome {
        assert!(
            config.contigs > 0 && config.length > 0,
            "genome must be non-empty"
        );
        let mut rng = Rng::seed_from_u64(seed);
        let per = config.length / config.contigs;
        let mut contigs = Vec::with_capacity(config.contigs);
        for ci in 0..config.contigs {
            let len = if ci + 1 == config.contigs {
                config.length - per * ci
            } else {
                per
            };
            contigs.push(generate_contig(len, config, &mut rng));
        }
        Genome { contigs }
    }

    /// Wraps explicit contigs (for tests and examples).
    pub fn from_contigs(contigs: Vec<DnaSeq>) -> Genome {
        Genome { contigs }
    }

    /// Number of contigs.
    pub fn num_contigs(&self) -> usize {
        self.contigs.len()
    }

    /// The sequence of contig `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn contig(&self, i: usize) -> &DnaSeq {
        &self.contigs[i]
    }

    /// All contigs.
    pub fn contigs(&self) -> &[DnaSeq] {
        &self.contigs
    }

    /// Total bases across contigs.
    pub fn total_len(&self) -> usize {
        self.contigs.iter().map(DnaSeq::len).sum()
    }

    /// Concatenation of all contigs (what the FM-index indexes).
    pub fn concat(&self) -> DnaSeq {
        let mut codes = Vec::with_capacity(self.total_len());
        for c in &self.contigs {
            codes.extend_from_slice(c.as_codes());
        }
        DnaSeq::from_codes_unchecked(codes)
    }
}

/// Draws one base code with the configured GC bias.
pub(crate) fn random_base(rng: &mut Rng, gc: f64) -> u8 {
    let r: f64 = rng.gen();
    if r < gc {
        // C or G
        if rng.gen::<bool>() {
            1
        } else {
            2
        }
    } else if rng.gen::<bool>() {
        0
    } else {
        3
    }
}

fn generate_contig(len: usize, config: &GenomeConfig, rng: &mut Rng) -> DnaSeq {
    let mut codes: Vec<u8> = (0..len)
        .map(|_| random_base(rng, config.gc_content))
        .collect();
    // Overlay repeat copies: pick a library of units and paste mutated
    // copies at random positions until the target repeat fraction is met.
    if config.repeat_fraction > 0.0 && len > config.repeat_unit_len * 2 {
        let unit_len = config.repeat_unit_len;
        let n_units = 4.max(len / 50_000);
        let units: Vec<Vec<u8>> = (0..n_units)
            .map(|_| {
                (0..unit_len)
                    .map(|_| random_base(rng, config.gc_content))
                    .collect()
            })
            .collect();
        let target = (len as f64 * config.repeat_fraction) as usize;
        let mut covered = 0;
        while covered < target {
            let unit = &units[rng.gen_range(0..units.len())];
            let pos = rng.gen_range(0..len - unit_len);
            for (i, &b) in unit.iter().enumerate() {
                // 2% divergence between repeat copies.
                codes[pos + i] = if rng.gen::<f64>() < 0.02 {
                    random_base(rng, 0.5)
                } else {
                    b
                };
            }
            covered += unit_len;
        }
    }
    DnaSeq::from_codes_unchecked(codes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let cfg = GenomeConfig {
            length: 5000,
            ..Default::default()
        };
        assert_eq!(Genome::generate(&cfg, 7), Genome::generate(&cfg, 7));
        assert_ne!(Genome::generate(&cfg, 7), Genome::generate(&cfg, 8));
    }

    #[test]
    fn lengths_add_up_across_contigs() {
        let cfg = GenomeConfig {
            length: 10_001,
            contigs: 3,
            ..Default::default()
        };
        let g = Genome::generate(&cfg, 1);
        assert_eq!(g.num_contigs(), 3);
        assert_eq!(g.total_len(), 10_001);
        assert_eq!(g.concat().len(), 10_001);
    }

    #[test]
    fn gc_content_is_respected() {
        let cfg = GenomeConfig {
            length: 200_000,
            repeat_fraction: 0.0,
            gc_content: 0.6,
            ..Default::default()
        };
        let g = Genome::generate(&cfg, 3);
        let gc = g
            .contig(0)
            .as_codes()
            .iter()
            .filter(|&&c| c == 1 || c == 2)
            .count() as f64
            / g.total_len() as f64;
        assert!((gc - 0.6).abs() < 0.01, "gc = {gc}");
    }

    #[test]
    fn repeats_create_duplicate_kmers() {
        let cfg = GenomeConfig {
            length: 50_000,
            repeat_fraction: 0.4,
            ..Default::default()
        };
        let g = Genome::generate(&cfg, 5);
        let mut counts = std::collections::HashMap::new();
        for (_, km) in g.contig(0).kmers(31) {
            *counts.entry(km).or_insert(0u32) += 1;
        }
        let dups = counts.values().filter(|&&c| c > 1).count();
        assert!(dups > 50, "expected repeated 31-mers, got {dups}");
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_length_panics() {
        let _ = Genome::generate(
            &GenomeConfig {
                length: 0,
                ..Default::default()
            },
            0,
        );
    }
}
