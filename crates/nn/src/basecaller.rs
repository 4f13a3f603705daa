//! Neural basecalling — the **nn-base** kernel.
//!
//! A Bonito-like convolutional basecaller: raw nanopore current is split
//! into fixed 4,000-sample chunks (making the computation regular, as the
//! paper stresses); each chunk runs through a strided input convolution
//! and a stack of depthwise-separable blocks with swish activations, ends
//! in a 5-way CTC head, and the decoded chunk sequences are stitched
//! together. Weights are seeded-random: the characterization concerns
//! inference compute shape, not basecall accuracy (see DESIGN.md).

use crate::ctc::greedy_decode;
use crate::layers::{softmax, Conv1d, SeparableBlock};
use gb_core::matrix::Matrix;
use gb_core::rng::Rng;
use gb_core::seq::DnaSeq;
use gb_uarch::probe::{NullProbe, Probe};

/// Model hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BasecallerConfig {
    /// Raw samples per chunk (Bonito uses 4000).
    pub chunk_size: usize,
    /// Stride of the input convolution (temporal downsampling).
    pub stride: usize,
    /// Feature channels through the separable stack.
    pub channels: usize,
    /// Number of separable blocks.
    pub blocks: usize,
    /// Kernel width of the separable blocks.
    pub kernel: usize,
}

impl Default for BasecallerConfig {
    /// A scaled-down Bonito: 4000-sample chunks, stride 5, 48 channels,
    /// 5 separable blocks.
    fn default() -> BasecallerConfig {
        BasecallerConfig {
            chunk_size: 4000,
            stride: 5,
            channels: 48,
            blocks: 5,
            kernel: 9,
        }
    }
}

/// The basecaller network.
#[derive(Debug, Clone)]
pub struct Basecaller {
    config: BasecallerConfig,
    stem: Conv1d,
    stack: Vec<SeparableBlock>,
    head: Conv1d,
}

/// Output of basecalling one signal.
#[derive(Debug, Clone, PartialEq)]
pub struct BasecallResult {
    /// The decoded sequence (chunks stitched).
    pub seq: DnaSeq,
    /// Chunks processed.
    pub chunks: usize,
    /// Total multiply-accumulates executed.
    pub flops: u64,
}

impl Basecaller {
    /// Builds a model with seeded-random weights.
    // PANIC-FREE: `bias[BLANK]` indexes a 5-class head built three lines
    // up; model shapes are config constants.
    pub fn new(config: &BasecallerConfig, seed: u64) -> Basecaller {
        let mut rng = Rng::seed_from_u64(seed);
        let stem = Conv1d::new(1, config.channels, config.kernel, config.stride, &mut rng);
        let stack = (0..config.blocks)
            .map(|_| SeparableBlock::new(config.channels, config.channels, config.kernel, &mut rng))
            .collect();
        let mut head = Conv1d::new(config.channels, 5, 1, 1, &mut rng);
        // Untrained weights would let the blank class dominate whole
        // chunks; de-bias it slightly so decoding emits sequences and the
        // CTC path is exercised end-to-end.
        head.bias[crate::ctc::BLANK] -= 1.0;
        Basecaller {
            config: *config,
            stem,
            stack,
            head,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &BasecallerConfig {
        &self.config
    }

    /// Multiply-accumulates needed per chunk — the number the SIMT model
    /// uses to size the GPU launch.
    pub fn flops_per_chunk(&self) -> u64 {
        let t = self.config.chunk_size;
        let t_down = self.stem.out_len(t);
        let mut f = self.stem.flops(t);
        for b in &self.stack {
            f += b.flops(t_down);
        }
        f + self.head.flops(t_down)
    }

    /// Runs the network on one chunk, returning `5 x T'` posteriors.
    // PANIC-FREE: the chunk-size assert is the documented input contract;
    // the softmax loop indexes the 5-row logits matrix it just built.
    pub fn forward_chunk_probed<P: Probe>(&self, chunk: &[f32], probe: &mut P) -> Matrix {
        assert_eq!(chunk.len(), self.config.chunk_size, "chunk size mismatch");
        // Normalize the current (med/mad-style, simplified to mean/std).
        let mean = chunk.iter().sum::<f32>() / chunk.len() as f32;
        let var = chunk.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / chunk.len() as f32;
        let std = var.sqrt().max(1e-3);
        let input = Matrix::from_vec(
            1,
            chunk.len(),
            chunk.iter().map(|v| (v - mean) / std).collect(),
        );
        probe.fp_ops(3 * chunk.len() as u64);

        let mut x = self.stem.forward_probed(&input, probe);
        for v in x.as_mut_slice() {
            *v = crate::layers::swish(*v);
        }
        for block in &self.stack {
            x = block.forward_probed(&x, probe);
        }
        let mut logits = self.head.forward_probed(&x, probe);
        // Column-wise softmax into posteriors.
        let t_out = logits.cols();
        let mut col = [0.0f32; 5];
        for t in 0..t_out {
            for (r, v) in col.iter_mut().enumerate() {
                *v = logits[(r, t)];
            }
            softmax(&mut col);
            for (r, &v) in col.iter().enumerate() {
                logits[(r, t)] = v;
            }
        }
        probe.fp_ops(5 * t_out as u64);
        logits
    }

    /// Basecalls a raw signal: chunk, infer, CTC-decode, stitch.
    ///
    /// The trailing partial chunk is zero-padded, as Bonito does.
    pub fn basecall(&self, raw: &[f32]) -> BasecallResult {
        self.basecall_probed(raw, &mut NullProbe)
    }

    /// [`Basecaller::basecall`] with instrumentation.
    pub fn basecall_probed<P: Probe>(&self, raw: &[f32], probe: &mut P) -> BasecallResult {
        let cs = self.config.chunk_size;
        let mut seq = DnaSeq::new();
        let mut chunks = 0usize;
        for chunk in raw.chunks(cs) {
            let mut buf;
            let chunk = if chunk.len() == cs {
                chunk
            } else {
                buf = chunk.to_vec();
                buf.resize(cs, 0.0);
                &buf
            };
            let posteriors = self.forward_chunk_probed(chunk, probe);
            let part = greedy_decode(&posteriors);
            seq.extend(part.as_codes().iter().copied());
            chunks += 1;
        }
        BasecallResult {
            seq,
            chunks,
            flops: self.flops_per_chunk() * chunks as u64,
        }
    }
}

impl gb_substrate::Codec for BasecallerConfig {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        e.put_usize(self.chunk_size);
        e.put_usize(self.stride);
        e.put_usize(self.channels);
        e.put_usize(self.blocks);
        e.put_usize(self.kernel);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<BasecallerConfig> {
        Some(BasecallerConfig {
            chunk_size: d.get_usize()?,
            stride: d.get_usize()?,
            channels: d.get_usize()?,
            blocks: d.get_usize()?,
            kernel: d.get_usize()?,
        })
    }
}

impl gb_substrate::Codec for Basecaller {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        gb_substrate::Codec::encode(&self.config, e);
        gb_substrate::Codec::encode(&self.stem, e);
        gb_substrate::Codec::encode(&self.stack, e);
        gb_substrate::Codec::encode(&self.head, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<Basecaller> {
        Some(Basecaller {
            config: gb_substrate::Codec::decode(d)?,
            stem: gb_substrate::Codec::decode(d)?,
            stack: gb_substrate::Codec::decode(d)?,
            head: gb_substrate::Codec::decode(d)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BasecallerConfig {
        BasecallerConfig {
            chunk_size: 500,
            stride: 5,
            channels: 16,
            blocks: 2,
            kernel: 5,
        }
    }

    #[test]
    fn posterior_shape_and_simplex() {
        let bc = Basecaller::new(&tiny(), 1);
        let chunk: Vec<f32> = (0..500)
            .map(|i| (i as f32 * 0.1).sin() * 20.0 + 90.0)
            .collect();
        let p = bc.forward_chunk_probed(&chunk, &mut NullProbe);
        assert_eq!(p.shape(), (5, 100));
        for t in 0..100 {
            let sum: f32 = (0..5).map(|r| p[(r, t)]).sum();
            assert!((sum - 1.0).abs() < 1e-4, "t={t} sum={sum}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let chunk: Vec<f32> = (0..500).map(|i| ((i * 7) % 40) as f32 + 70.0).collect();
        let a = Basecaller::new(&tiny(), 9).basecall(&chunk);
        let b = Basecaller::new(&tiny(), 9).basecall(&chunk);
        assert_eq!(a, b);
        let c = Basecaller::new(&tiny(), 10).basecall(&chunk);
        // Different weights essentially always give a different call.
        assert!(a.seq != c.seq || a.seq.is_empty());
    }

    #[test]
    fn chunking_covers_whole_signal() {
        let bc = Basecaller::new(&tiny(), 2);
        let raw: Vec<f32> = (0..1750).map(|i| (i % 100) as f32).collect();
        let r = bc.basecall(&raw);
        assert_eq!(r.chunks, 4); // 500*3 + padded 250
        assert_eq!(r.flops, bc.flops_per_chunk() * 4);
    }

    #[test]
    fn different_signals_give_different_calls() {
        let bc = Basecaller::new(&tiny(), 3);
        let a: Vec<f32> = (0..500)
            .map(|i| (i as f32 * 0.3).sin() * 15.0 + 85.0)
            .collect();
        let b: Vec<f32> = (0..500)
            .map(|i| (i as f32 * 0.11).cos() * 18.0 + 95.0)
            .collect();
        let ra = bc.basecall(&a);
        let rb = bc.basecall(&b);
        assert_ne!(ra.seq, rb.seq);
    }

    #[test]
    fn flops_match_bonito_scale_relationship() {
        let small = Basecaller::new(&tiny(), 1);
        let big = Basecaller::new(
            &BasecallerConfig {
                channels: 32,
                ..tiny()
            },
            1,
        );
        // Pointwise convs dominate: 2x channels ~ 4x flops.
        let ratio = big.flops_per_chunk() as f64 / small.flops_per_chunk() as f64;
        assert!(ratio > 2.5 && ratio < 4.5, "ratio {ratio}");
    }

    #[test]
    fn probe_sees_vector_dominated_mix() {
        use gb_uarch::mix::MixProbe;
        let bc = Basecaller::new(&tiny(), 4);
        let chunk: Vec<f32> = vec![80.0; 500];
        let mut probe = MixProbe::new();
        let _ = bc.forward_chunk_probed(&chunk, &mut probe);
        let mix = probe.mix();
        assert!(
            mix.simd_ops > mix.int_ops,
            "nn-base must be vector-heavy: {mix:?}"
        );
    }
}
