//! Neural variant calling — the **nn-variant** kernel.
//!
//! A Clair-like network: the `33 x 8 x 4` pileup tensor (from
//! `gb-pileup`) is treated as a 33-step sequence of 32 features, run
//! through two bidirectional LSTM layers and fully-connected layers, and
//! projected onto the prediction heads (zygosity, variant type, and
//! alternate base). Weights are seeded-random — the kernel's compute
//! shape, LSTM-recurrence-dominated inference, is what the suite
//! characterizes.

use crate::layers::{softmax, BiLstm, Dense};
use gb_core::matrix::Matrix;
use gb_core::rng::Rng;
use gb_pileup::feature::{ClairTensor, CHANNELS, ENCODINGS, WINDOW};
use gb_uarch::probe::{NullProbe, Probe};

/// Features per window position (8 channels x 4 encodings = 32).
pub const FEATURES: usize = CHANNELS * ENCODINGS;

/// Model hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VariantCallerConfig {
    /// Hidden size of each LSTM direction.
    pub lstm_hidden: usize,
    /// Width of the shared fully-connected layer.
    pub fc_width: usize,
}

impl Default for VariantCallerConfig {
    fn default() -> VariantCallerConfig {
        VariantCallerConfig {
            lstm_hidden: 48,
            fc_width: 96,
        }
    }
}

/// Zygosity call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Zygosity {
    /// Matches the reference on both haplotypes.
    HomRef,
    /// Variant on one haplotype.
    Het,
    /// Variant on both haplotypes.
    HomAlt,
}

/// Variant type call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VariantType {
    /// No variant.
    Reference,
    /// Single-nucleotide variant.
    Snv,
    /// Insertion.
    Insertion,
    /// Deletion.
    Deletion,
}

/// One variant call with calibrated-ish probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct VariantCall {
    /// Candidate position (the tensor's center).
    pub pos: usize,
    /// Zygosity probabilities `[hom-ref, het, hom-alt]`.
    pub zygosity_probs: [f32; 3],
    /// Variant-type probabilities `[ref, snv, ins, del]`.
    pub type_probs: [f32; 4],
    /// Alternate-base probabilities `[A, C, G, T]`.
    pub alt_probs: [f32; 4],
}

impl VariantCall {
    /// The argmax zygosity.
    pub fn zygosity(&self) -> Zygosity {
        match argmax(&self.zygosity_probs) {
            0 => Zygosity::HomRef,
            1 => Zygosity::Het,
            _ => Zygosity::HomAlt,
        }
    }

    /// The argmax variant type.
    pub fn variant_type(&self) -> VariantType {
        match argmax(&self.type_probs) {
            0 => VariantType::Reference,
            1 => VariantType::Snv,
            2 => VariantType::Insertion,
            _ => VariantType::Deletion,
        }
    }

    /// The argmax alternate base (2-bit code).
    pub fn alt_base(&self) -> u8 {
        argmax(&self.alt_probs) as u8
    }
}

fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate() {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

/// The Clair-like network.
#[derive(Debug, Clone)]
pub struct VariantCaller {
    lstm1: BiLstm,
    lstm2: BiLstm,
    fc: Dense,
    head_zygosity: Dense,
    head_type: Dense,
    head_alt: Dense,
    config: VariantCallerConfig,
}

impl VariantCaller {
    /// Builds a model with seeded-random weights.
    pub fn new(config: &VariantCallerConfig, seed: u64) -> VariantCaller {
        let mut rng = Rng::seed_from_u64(seed);
        let h = config.lstm_hidden;
        let lstm1 = BiLstm::new(FEATURES, h, &mut rng);
        let lstm2 = BiLstm::new(2 * h, h, &mut rng);
        let fc = Dense::new(2 * h * 2, config.fc_width, &mut rng);
        VariantCaller {
            lstm1,
            lstm2,
            fc,
            head_zygosity: Dense::new(config.fc_width, 3, &mut rng),
            head_type: Dense::new(config.fc_width, 4, &mut rng),
            head_alt: Dense::new(config.fc_width, 4, &mut rng),
            config: *config,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &VariantCallerConfig {
        &self.config
    }

    /// Multiply-accumulates per call (for the SIMT launch model).
    pub fn flops_per_call(&self) -> u64 {
        let t = WINDOW as u64;
        let per_dir1 = self.lstm1.fwd.flops_per_step();
        let per_dir2 = self.lstm2.fwd.flops_per_step();
        let lstm = t * 2 * (per_dir1 + per_dir2);
        let h = self.config.lstm_hidden as u64;
        let fc = 2 * (4 * h) * self.config.fc_width as u64;
        let heads = 2 * self.config.fc_width as u64 * (3 + 4 + 4);
        lstm + fc + heads
    }

    /// Calls one candidate site.
    pub fn call(&self, tensor: &ClairTensor) -> VariantCall {
        self.call_probed(tensor, &mut NullProbe)
    }

    /// [`VariantCaller::call`] with instrumentation.
    // PANIC-FREE: WINDOW/FEATURES are compile-time tensor dimensions and
    // the summary loops index `h2` inside `rows() x WINDOW`.
    pub fn call_probed<P: Probe>(&self, tensor: &ClairTensor, probe: &mut P) -> VariantCall {
        // Reshape 33 x (8*4) into a feature-major sequence matrix.
        let mut steps = Matrix::zeros(FEATURES, WINDOW);
        for w in 0..WINDOW {
            for f in 0..FEATURES {
                steps[(f, w)] = tensor.data[w * FEATURES + f];
            }
        }
        let h1 = self.lstm1.forward_probed(&steps, probe);
        let h2 = self.lstm2.forward_probed(&h1, probe);
        // Summary vector: first and last timestep states concatenated
        // (Clair pools the bi-LSTM ends).
        let rows = h2.rows();
        let mut summary = Vec::with_capacity(rows * 2);
        for r in 0..rows {
            summary.push(h2[(r, 0)]);
        }
        for r in 0..rows {
            summary.push(h2[(r, WINDOW - 1)]);
        }
        let mut hidden = self.fc.forward_probed(&summary, probe);
        for v in hidden.iter_mut() {
            *v = v.max(0.0); // ReLU
        }
        probe.fp_ops(hidden.len() as u64);
        let mut zyg: [f32; 3] = self
            .head_zygosity
            .forward_probed(&hidden, probe)
            .try_into()
            .expect("3 outputs");
        let mut ty: [f32; 4] = self
            .head_type
            .forward_probed(&hidden, probe)
            .try_into()
            .expect("4 outputs");
        let mut alt: [f32; 4] = self
            .head_alt
            .forward_probed(&hidden, probe)
            .try_into()
            .expect("4 outputs");
        softmax(&mut zyg);
        softmax(&mut ty);
        softmax(&mut alt);
        VariantCall {
            pos: tensor.center,
            zygosity_probs: zyg,
            type_probs: ty,
            alt_probs: alt,
        }
    }

    /// Calls a batch of sites (the kernel's data-parallel loop).
    pub fn call_batch_probed<P: Probe>(
        &self,
        tensors: &[ClairTensor],
        probe: &mut P,
    ) -> Vec<VariantCall> {
        tensors.iter().map(|t| self.call_probed(t, probe)).collect()
    }
}

impl gb_substrate::Codec for VariantCallerConfig {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        e.put_usize(self.lstm_hidden);
        e.put_usize(self.fc_width);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<VariantCallerConfig> {
        Some(VariantCallerConfig {
            lstm_hidden: d.get_usize()?,
            fc_width: d.get_usize()?,
        })
    }
}

impl gb_substrate::Codec for VariantCaller {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        gb_substrate::Codec::encode(&self.lstm1, e);
        gb_substrate::Codec::encode(&self.lstm2, e);
        gb_substrate::Codec::encode(&self.fc, e);
        gb_substrate::Codec::encode(&self.head_zygosity, e);
        gb_substrate::Codec::encode(&self.head_type, e);
        gb_substrate::Codec::encode(&self.head_alt, e);
        gb_substrate::Codec::encode(&self.config, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<VariantCaller> {
        Some(VariantCaller {
            lstm1: gb_substrate::Codec::decode(d)?,
            lstm2: gb_substrate::Codec::decode(d)?,
            fc: gb_substrate::Codec::decode(d)?,
            head_zygosity: gb_substrate::Codec::decode(d)?,
            head_type: gb_substrate::Codec::decode(d)?,
            head_alt: gb_substrate::Codec::decode(d)?,
            config: gb_substrate::Codec::decode(d)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_pileup::feature::TENSOR_LEN;

    fn tensor(fill: impl Fn(usize) -> f32) -> ClairTensor {
        ClairTensor {
            center: 100,
            data: (0..TENSOR_LEN).map(fill).collect(),
        }
    }

    #[test]
    fn outputs_are_probability_simplices() {
        let vc = VariantCaller::new(&VariantCallerConfig::default(), 1);
        let call = vc.call(&tensor(|i| (i % 9) as f32 / 9.0));
        for probs in [
            &call.zygosity_probs[..],
            &call.type_probs[..],
            &call.alt_probs[..],
        ] {
            let sum: f32 = probs.iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
            assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let t = tensor(|i| (i % 5) as f32 / 5.0);
        let a = VariantCaller::new(&VariantCallerConfig::default(), 7).call(&t);
        let b = VariantCaller::new(&VariantCallerConfig::default(), 7).call(&t);
        assert_eq!(a, b);
        let c = VariantCaller::new(&VariantCallerConfig::default(), 8).call(&t);
        assert_ne!(a.zygosity_probs, c.zygosity_probs);
    }

    #[test]
    fn different_tensors_give_different_calls() {
        let vc = VariantCaller::new(&VariantCallerConfig::default(), 3);
        let a = vc.call(&tensor(|_| 0.0));
        let b = vc.call(&tensor(|i| ((i * 13) % 7) as f32 / 7.0));
        assert_ne!(a.zygosity_probs, b.zygosity_probs);
    }

    #[test]
    fn argmax_helpers_work() {
        let call = VariantCall {
            pos: 5,
            zygosity_probs: [0.1, 0.7, 0.2],
            type_probs: [0.1, 0.2, 0.6, 0.1],
            alt_probs: [0.0, 0.0, 0.1, 0.9],
        };
        assert_eq!(call.zygosity(), Zygosity::Het);
        assert_eq!(call.variant_type(), VariantType::Insertion);
        assert_eq!(call.alt_base(), 3);
    }

    #[test]
    fn batch_matches_singles() {
        let vc = VariantCaller::new(&VariantCallerConfig::default(), 5);
        let ts = vec![tensor(|i| i as f32 / 1000.0), tensor(|i| (i % 3) as f32)];
        let batch = vc.call_batch_probed(&ts, &mut NullProbe);
        assert_eq!(batch[0], vc.call(&ts[0]));
        assert_eq!(batch[1], vc.call(&ts[1]));
    }

    #[test]
    fn flops_scale_with_hidden_size() {
        let small = VariantCaller::new(
            &VariantCallerConfig {
                lstm_hidden: 24,
                fc_width: 48,
            },
            1,
        );
        let big = VariantCaller::new(
            &VariantCallerConfig {
                lstm_hidden: 48,
                fc_width: 96,
            },
            1,
        );
        assert!(big.flops_per_call() > small.flops_per_call() * 2);
    }

    #[test]
    fn end_to_end_from_pileup() {
        use gb_core::cigar::Cigar;
        use gb_core::quality::Phred;
        use gb_core::record::{AlignmentRecord, ReadRecord, Strand};
        use gb_core::region::{Region, RegionTask};
        use gb_core::seq::DnaSeq;
        use gb_pileup::feature::clair_tensor;
        use gb_pileup::pileup::count_pileup;
        let ref_seq = DnaSeq::from_codes_unchecked(vec![0u8; 100]);
        let reads: Vec<AlignmentRecord> = (0..8)
            .map(|i| {
                let read = ReadRecord::with_uniform_quality(
                    format!("r{i}"),
                    DnaSeq::from_codes_unchecked(vec![if i % 2 == 0 { 1u8 } else { 0 }; 40]),
                    Phred::new(30),
                );
                let cig: Cigar = "40M".parse().unwrap();
                AlignmentRecord::new(read, 0, 30, cig, 60, Strand::Forward).unwrap()
            })
            .collect();
        let task = RegionTask {
            region: Region::new(0, 0, 100),
            ref_seq: ref_seq.clone(),
            reads,
        };
        let p = count_pileup(&task);
        let t = clair_tensor(&p, &ref_seq, 50);
        let vc = VariantCaller::new(&VariantCallerConfig::default(), 11);
        let call = vc.call(&t);
        assert_eq!(call.pos, 50);
        let sum: f32 = call.zygosity_probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
    }
}
