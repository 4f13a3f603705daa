//! Variant injection: turning a reference into a diploid sample.
//!
//! The variant-calling kernels (dbg, phmm, nn-variant) need reads that
//! *differ* from the reference in known places. This module injects SNVs
//! and short indels into a reference to create sample haplotypes, keeping
//! the truth set so tests and the nn-variant labeller can check calls.

use gb_core::rng::Rng;
use gb_core::seq::DnaSeq;

/// The kind of an injected variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VariantKind {
    /// Single-nucleotide substitution to `alt` (a 2-bit code).
    Snv {
        /// The alternate base code.
        alt: u8,
    },
    /// Insertion of the given codes after the position.
    Insertion {
        /// Inserted base codes.
        seq: Vec<u8>,
    },
    /// Deletion of `len` reference bases starting at the position.
    Deletion {
        /// Number of deleted bases.
        len: usize,
    },
}

/// Zygosity of an injected variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Zygosity {
    /// Present on both haplotypes.
    Homozygous,
    /// Present on one haplotype only.
    Heterozygous,
}

/// One variant of the truth set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Variant {
    /// 0-based reference position.
    pub pos: usize,
    /// What changed.
    pub kind: VariantKind,
    /// On how many haplotypes.
    pub zygosity: Zygosity,
}

/// Configuration for [`inject_variants`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariantConfig {
    /// Expected SNVs per base (human-like: ~0.001).
    pub snv_rate: f64,
    /// Expected short insertions per base.
    pub ins_rate: f64,
    /// Expected short deletions per base.
    pub del_rate: f64,
    /// Maximum indel length.
    pub max_indel: usize,
    /// Fraction of variants that are heterozygous.
    pub het_fraction: f64,
}

impl Default for VariantConfig {
    fn default() -> VariantConfig {
        VariantConfig {
            snv_rate: 0.001,
            ins_rate: 0.0001,
            del_rate: 0.0001,
            max_indel: 10,
            het_fraction: 0.6,
        }
    }
}

/// A diploid sample: two haplotype sequences plus the variant truth set.
#[derive(Debug, Clone, PartialEq)]
pub struct DiploidSample {
    /// First haplotype (carries all variants).
    pub hap1: DnaSeq,
    /// Second haplotype (carries only homozygous variants).
    pub hap2: DnaSeq,
    /// The injected truth set, sorted by position.
    pub truth: Vec<Variant>,
}

impl DiploidSample {
    /// Both haplotypes as a slice-friendly array.
    pub fn haplotypes(&self) -> [&DnaSeq; 2] {
        [&self.hap1, &self.hap2]
    }
}

/// Injects variants into `reference`, returning the diploid sample.
///
/// # Examples
///
/// ```
/// use gb_datagen::{genome::{Genome, GenomeConfig}, variants::{inject_variants, VariantConfig}};
/// let g = Genome::generate(&GenomeConfig { length: 10_000, ..Default::default() }, 1);
/// let sample = inject_variants(g.contig(0), &VariantConfig::default(), 7);
/// assert!(!sample.truth.is_empty());
/// ```
pub fn inject_variants(reference: &DnaSeq, config: &VariantConfig, seed: u64) -> DiploidSample {
    let mut rng = Rng::seed_from_u64(seed);
    let mut truth = Vec::new();
    let mut pos = 0usize;
    let n = reference.len();
    while pos < n {
        let r: f64 = rng.gen();
        let zyg = if rng.gen::<f64>() < config.het_fraction {
            Zygosity::Heterozygous
        } else {
            Zygosity::Homozygous
        };
        if r < config.snv_rate {
            let refc = reference.code_at(pos);
            let alt = (refc + rng.gen_range(1..4u8)) % 4;
            truth.push(Variant {
                pos,
                kind: VariantKind::Snv { alt },
                zygosity: zyg,
            });
            pos += 1;
        } else if r < config.snv_rate + config.ins_rate {
            let len = rng.gen_range(1..=config.max_indel);
            let seq: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4u8)).collect();
            truth.push(Variant {
                pos,
                kind: VariantKind::Insertion { seq },
                zygosity: zyg,
            });
            pos += 1;
        } else if r < config.snv_rate + config.ins_rate + config.del_rate {
            let len = rng.gen_range(1..=config.max_indel).min(n - pos);
            if len > 0 {
                truth.push(Variant {
                    pos,
                    kind: VariantKind::Deletion { len },
                    zygosity: zyg,
                });
            }
            // Skip past the deleted span so variants never overlap.
            pos += len.max(1);
        } else {
            pos += 1;
        }
    }
    let hap1 = apply_variants(reference, &truth, |_| true);
    let hap2 = apply_variants(reference, &truth, |v| v.zygosity == Zygosity::Homozygous);
    DiploidSample { hap1, hap2, truth }
}

/// Applies the subset of `variants` selected by `select` to `reference`.
pub fn apply_variants(
    reference: &DnaSeq,
    variants: &[Variant],
    select: impl Fn(&Variant) -> bool,
) -> DnaSeq {
    let mut out = Vec::with_capacity(reference.len());
    let mut pos = 0usize;
    for v in variants {
        debug_assert!(v.pos >= pos, "variants must be sorted and non-overlapping");
        while pos < v.pos {
            out.push(reference.code_at(pos));
            pos += 1;
        }
        if !select(v) {
            continue;
        }
        match &v.kind {
            VariantKind::Snv { alt } => {
                out.push(*alt);
                pos += 1;
            }
            VariantKind::Insertion { seq } => {
                out.push(reference.code_at(pos));
                pos += 1;
                out.extend_from_slice(seq);
            }
            VariantKind::Deletion { len } => {
                pos += len;
            }
        }
    }
    while pos < reference.len() {
        out.push(reference.code_at(pos));
        pos += 1;
    }
    DnaSeq::from_codes_unchecked(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genome::{Genome, GenomeConfig};

    fn reference() -> DnaSeq {
        Genome::generate(
            &GenomeConfig {
                length: 50_000,
                ..Default::default()
            },
            5,
        )
        .contig(0)
        .clone()
    }

    #[test]
    fn no_variants_is_identity() {
        let r = reference();
        let s = inject_variants(
            &r,
            &VariantConfig {
                snv_rate: 0.0,
                ins_rate: 0.0,
                del_rate: 0.0,
                ..Default::default()
            },
            1,
        );
        assert_eq!(s.hap1, r);
        assert_eq!(s.hap2, r);
        assert!(s.truth.is_empty());
    }

    #[test]
    fn snv_count_near_rate() {
        let r = reference();
        let s = inject_variants(&r, &VariantConfig::default(), 2);
        let snvs = s
            .truth
            .iter()
            .filter(|v| matches!(v.kind, VariantKind::Snv { .. }))
            .count();
        let expected = r.len() as f64 * 0.001;
        assert!(
            (snvs as f64) > expected * 0.5 && (snvs as f64) < expected * 2.0,
            "snvs {snvs}"
        );
    }

    #[test]
    fn het_variants_only_on_hap1() {
        let r = reference();
        let s = inject_variants(&r, &VariantConfig::default(), 3);
        let het_snv = s.truth.iter().find(|v| {
            v.zygosity == Zygosity::Heterozygous && matches!(v.kind, VariantKind::Snv { .. })
        });
        if let Some(v) = het_snv {
            // hap2 must keep the reference base at the corresponding
            // position; indels before pos shift coordinates, so map it.
            let offset: i64 = s
                .truth
                .iter()
                .take_while(|u| u.pos < v.pos)
                .filter(|u| u.zygosity == Zygosity::Homozygous)
                .map(|u| match &u.kind {
                    VariantKind::Insertion { seq } => seq.len() as i64,
                    VariantKind::Deletion { len } => -(*len as i64),
                    VariantKind::Snv { .. } => 0,
                })
                .sum();
            let h2pos = (v.pos as i64 + offset) as usize;
            assert_eq!(s.hap2.code_at(h2pos), r.code_at(v.pos));
        }
    }

    #[test]
    fn hom_snvs_on_both_haplotypes() {
        let r = reference();
        let cfg = VariantConfig {
            het_fraction: 0.0,
            ins_rate: 0.0,
            del_rate: 0.0,
            ..Default::default()
        };
        let s = inject_variants(&r, &cfg, 4);
        assert_eq!(s.hap1, s.hap2);
        assert_eq!(s.hap1.len(), r.len());
        for v in &s.truth {
            if let VariantKind::Snv { alt } = v.kind {
                assert_eq!(s.hap1.code_at(v.pos), alt);
                assert_ne!(alt, r.code_at(v.pos));
            }
        }
    }

    #[test]
    fn indels_change_length_consistently() {
        let r = reference();
        let cfg = VariantConfig {
            snv_rate: 0.0,
            ins_rate: 0.001,
            del_rate: 0.001,
            het_fraction: 0.0,
            ..Default::default()
        };
        let s = inject_variants(&r, &cfg, 6);
        let delta: i64 = s
            .truth
            .iter()
            .map(|v| match &v.kind {
                VariantKind::Insertion { seq } => seq.len() as i64,
                VariantKind::Deletion { len } => -(*len as i64),
                VariantKind::Snv { .. } => 0,
            })
            .sum();
        assert_eq!(s.hap1.len() as i64, r.len() as i64 + delta);
    }

    #[test]
    fn truth_is_sorted_non_overlapping() {
        let s = inject_variants(&reference(), &VariantConfig::default(), 8);
        for w in s.truth.windows(2) {
            let end0 = match &w[0].kind {
                VariantKind::Deletion { len } => w[0].pos + len,
                _ => w[0].pos + 1,
            };
            assert!(w[1].pos >= end0, "overlap: {:?} then {:?}", w[0], w[1]);
        }
    }
}
