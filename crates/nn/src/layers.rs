//! Neural-network layers for inference.
//!
//! A deliberately small, dependency-free inference library covering what
//! the two neural kernels need: 1-D convolutions (plain, depthwise and
//! separable, as in Bonito's TCS blocks), dense layers, LSTMs
//! (bidirectional, as in Clair), and the usual activations. Activations
//! are `channels x time` matrices ([`Matrix`]).

use gb_core::matrix::Matrix;
use gb_core::rng::Rng;
use gb_uarch::probe::{addr_of, NullProbe, Probe};

/// Xavier-uniform initialization for a `rows x cols` weight matrix.
pub fn xavier(rows: usize, cols: usize, rng: &mut Rng) -> Matrix {
    let limit = (6.0 / (rows + cols) as f64).sqrt() as f32;
    let data = (0..rows * cols)
        .map(|_| rng.gen_range(-limit..limit))
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Sigmoid activation.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

/// Swish activation (`x * sigmoid(x)`), Bonito's nonlinearity.
#[inline]
pub fn swish(x: f32) -> f32 {
    x * sigmoid(x)
}

/// In-place softmax over a slice.
pub fn softmax(xs: &mut [f32]) {
    let max = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    for x in xs.iter_mut() {
        *x /= sum;
    }
}

/// A 1-D convolution.
#[derive(Debug, Clone)]
pub struct Conv1d {
    /// Input channels.
    pub in_ch: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Kernel width.
    pub kernel: usize,
    /// Temporal stride.
    pub stride: usize,
    /// Weights: `out_ch x (in_ch * kernel)`.
    pub weights: Matrix,
    /// Per-output-channel bias.
    pub bias: Vec<f32>,
}

impl Conv1d {
    /// Creates a randomly initialized convolution ("same" padding).
    // PANIC-FREE: odd-kernel assert is a config-time contract (kernel
    // widths come from `BasecallerConfig`, not data).
    pub fn new(in_ch: usize, out_ch: usize, kernel: usize, stride: usize, rng: &mut Rng) -> Conv1d {
        assert!(kernel % 2 == 1, "odd kernels only (same padding)");
        Conv1d {
            in_ch,
            out_ch,
            kernel,
            stride: stride.max(1),
            weights: xavier(out_ch, in_ch * kernel, rng),
            bias: (0..out_ch).map(|_| rng.gen_range(-0.1..0.1)).collect(),
        }
    }

    /// Output length for input length `t`.
    pub fn out_len(&self, t: usize) -> usize {
        t.div_ceil(self.stride)
    }

    /// Applies the convolution to a `in_ch x T` activation.
    pub fn forward(&self, input: &Matrix) -> Matrix {
        self.forward_probed(input, &mut NullProbe)
    }

    /// [`Conv1d::forward`] with instrumentation.
    // PANIC-FREE: the shape assert is the layer contract; `ti - pad` is
    // guarded by `ti < pad` continue, and weight/row indices are bounded
    // by the constructor's shapes.
    pub fn forward_probed<P: Probe>(&self, input: &Matrix, probe: &mut P) -> Matrix {
        assert_eq!(input.rows(), self.in_ch, "channel mismatch");
        let t = input.cols();
        let t_out = self.out_len(t);
        let pad = self.kernel / 2;
        let mut out = Matrix::zeros(self.out_ch, t_out);
        for oc in 0..self.out_ch {
            let w = self.weights.row(oc);
            probe.load(addr_of(&w[0]), (w.len() * 4) as u32);
            for to in 0..t_out {
                let center = to * self.stride;
                let mut acc = self.bias[oc];
                for ic in 0..self.in_ch {
                    let row = input.row(ic);
                    for k in 0..self.kernel {
                        let ti = center + k;
                        if ti < pad || ti - pad >= t {
                            continue;
                        }
                        acc += w[ic * self.kernel + k] * row[ti - pad];
                    }
                }
                out[(oc, to)] = acc;
            }
            probe.simd_ops((t_out * self.in_ch * self.kernel / 8 + 1) as u64);
            probe.load(addr_of(&input.as_slice()[0]), (self.in_ch * t * 4) as u32);
        }
        out
    }

    /// Multiply-accumulate count for an input of length `t`.
    pub fn flops(&self, t: usize) -> u64 {
        (self.out_ch * self.out_len(t) * self.in_ch * self.kernel) as u64 * 2
    }
}

/// A depthwise 1-D convolution (one filter per channel).
#[derive(Debug, Clone)]
pub struct DepthwiseConv1d {
    /// Channel count.
    pub channels: usize,
    /// Kernel width.
    pub kernel: usize,
    /// Weights: `channels x kernel`.
    pub weights: Matrix,
    /// Per-channel bias.
    pub bias: Vec<f32>,
}

impl DepthwiseConv1d {
    /// Creates a randomly initialized depthwise convolution.
    // PANIC-FREE: odd-kernel assert is a config-time contract.
    pub fn new(channels: usize, kernel: usize, rng: &mut Rng) -> DepthwiseConv1d {
        assert!(kernel % 2 == 1, "odd kernels only (same padding)");
        DepthwiseConv1d {
            channels,
            kernel,
            weights: xavier(channels, kernel, rng),
            bias: (0..channels).map(|_| rng.gen_range(-0.1..0.1)).collect(),
        }
    }

    /// Applies the convolution (stride 1, same padding).
    // PANIC-FREE: shape assert is the layer contract; the padding guard
    // keeps `ti - pad < t`.
    pub fn forward_probed<P: Probe>(&self, input: &Matrix, probe: &mut P) -> Matrix {
        assert_eq!(input.rows(), self.channels);
        let t = input.cols();
        let pad = self.kernel / 2;
        let mut out = Matrix::zeros(self.channels, t);
        for c in 0..self.channels {
            let w = self.weights.row(c);
            let row = input.row(c);
            for to in 0..t {
                let mut acc = self.bias[c];
                for (k, &wk) in w.iter().enumerate() {
                    let ti = to + k;
                    if ti < pad || ti - pad >= t {
                        continue;
                    }
                    acc += wk * row[ti - pad];
                }
                out[(c, to)] = acc;
            }
            probe.simd_ops((t * self.kernel / 8 + 1) as u64);
        }
        probe.load(
            addr_of(&input.as_slice()[0]),
            (input.as_slice().len() * 4) as u32,
        );
        out
    }

    /// Multiply-accumulate count for an input of length `t`.
    pub fn flops(&self, t: usize) -> u64 {
        (self.channels * t * self.kernel) as u64 * 2
    }
}

/// Bonito's TCS block: depthwise conv + pointwise conv + swish.
#[derive(Debug, Clone)]
pub struct SeparableBlock {
    /// The depthwise stage.
    pub depthwise: DepthwiseConv1d,
    /// The pointwise (1x1) stage.
    pub pointwise: Conv1d,
}

impl SeparableBlock {
    /// Creates a randomly initialized block.
    pub fn new(in_ch: usize, out_ch: usize, kernel: usize, rng: &mut Rng) -> SeparableBlock {
        SeparableBlock {
            depthwise: DepthwiseConv1d::new(in_ch, kernel, rng),
            pointwise: Conv1d::new(in_ch, out_ch, 1, 1, rng),
        }
    }

    /// Applies depthwise -> pointwise -> swish.
    pub fn forward_probed<P: Probe>(&self, input: &Matrix, probe: &mut P) -> Matrix {
        let mid = self.depthwise.forward_probed(input, probe);
        let mut out = self.pointwise.forward_probed(&mid, probe);
        for v in out.as_mut_slice() {
            *v = swish(*v);
        }
        probe.fp_ops(out.as_slice().len() as u64 * 3);
        out
    }

    /// Multiply-accumulate count for an input of length `t`.
    pub fn flops(&self, t: usize) -> u64 {
        self.depthwise.flops(t) + self.pointwise.flops(t)
    }
}

/// A dense (fully connected) layer.
#[derive(Debug, Clone)]
pub struct Dense {
    /// Weights: `out x in`.
    pub weights: Matrix,
    /// Bias, length `out`.
    pub bias: Vec<f32>,
}

impl Dense {
    /// Creates a randomly initialized dense layer.
    pub fn new(input: usize, output: usize, rng: &mut Rng) -> Dense {
        Dense {
            weights: xavier(output, input, rng),
            bias: (0..output).map(|_| rng.gen_range(-0.1..0.1)).collect(),
        }
    }

    /// `W x + b`.
    // PANIC-FREE: the input-size assert is the layer contract; `bias[o]`
    // has one slot per weight row by construction.
    pub fn forward_probed<P: Probe>(&self, x: &[f32], probe: &mut P) -> Vec<f32> {
        assert_eq!(x.len(), self.weights.cols(), "input size mismatch");
        probe.load(addr_of(&x[0]), (x.len() * 4) as u32);
        let mut out = Vec::with_capacity(self.weights.rows());
        for o in 0..self.weights.rows() {
            let w = self.weights.row(o);
            let mut acc = self.bias[o];
            for (wi, xi) in w.iter().zip(x) {
                acc += wi * xi;
            }
            out.push(acc);
            probe.simd_ops((x.len() / 8 + 1) as u64);
        }
        probe.load(
            addr_of(&self.weights.as_slice()[0]),
            (self.weights.as_slice().len() * 4) as u32,
        );
        out
    }
}

/// A single-direction LSTM layer.
#[derive(Debug, Clone)]
pub struct Lstm {
    /// Input size.
    pub input: usize,
    /// Hidden size.
    pub hidden: usize,
    /// Input weights: `4*hidden x input` (i, f, g, o gate order).
    pub w: Matrix,
    /// Recurrent weights: `4*hidden x hidden`.
    pub u: Matrix,
    /// Gate biases, length `4*hidden`.
    pub bias: Vec<f32>,
}

impl Lstm {
    /// Creates a randomly initialized LSTM.
    pub fn new(input: usize, hidden: usize, rng: &mut Rng) -> Lstm {
        Lstm {
            input,
            hidden,
            w: xavier(4 * hidden, input, rng),
            u: xavier(4 * hidden, hidden, rng),
            // Forget-gate bias +1, the standard stabilization.
            bias: (0..4 * hidden)
                .map(|i| {
                    if i >= hidden && i < 2 * hidden {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect(),
        }
    }

    /// Runs over `steps` (each an input vector), returning all hidden
    /// states as a `hidden x T` matrix. `reverse` iterates the sequence
    /// backwards (for the backward half of a bi-LSTM) while still storing
    /// states at their original positions.
    // PANIC-FREE: the input-feature assert is the layer contract; gate and
    // state indices are bounded by `4 * hidden` fixed in the constructor.
    pub fn forward_probed<P: Probe>(&self, steps: &Matrix, reverse: bool, probe: &mut P) -> Matrix {
        assert_eq!(steps.rows(), self.input, "input feature mismatch");
        let t_len = steps.cols();
        let h = self.hidden;
        let mut hs = Matrix::zeros(h, t_len);
        let mut hstate = vec![0.0f32; h];
        let mut cstate = vec![0.0f32; h];
        let order: Vec<usize> = if reverse {
            (0..t_len).rev().collect()
        } else {
            (0..t_len).collect()
        };
        for t in order {
            let mut gates = self.bias.clone();
            for (g, gate) in gates.iter_mut().enumerate() {
                let wrow = self.w.row(g);
                let mut acc = 0.0f32;
                for i in 0..self.input {
                    acc += wrow[i] * steps[(i, t)];
                }
                let urow = self.u.row(g);
                for (ui, hi) in urow.iter().zip(&hstate) {
                    acc += ui * hi;
                }
                *gate += acc;
            }
            probe.simd_ops((4 * h * (self.input + h) / 8 + 1) as u64);
            probe.load(
                addr_of(&self.w.as_slice()[0]),
                (self.w.as_slice().len() * 4) as u32,
            );
            probe.load(
                addr_of(&self.u.as_slice()[0]),
                (self.u.as_slice().len() * 4) as u32,
            );
            for j in 0..h {
                let i_g = sigmoid(gates[j]);
                let f_g = sigmoid(gates[h + j]);
                let g_g = gates[2 * h + j].tanh();
                let o_g = sigmoid(gates[3 * h + j]);
                cstate[j] = f_g * cstate[j] + i_g * g_g;
                hstate[j] = o_g * cstate[j].tanh();
                hs[(j, t)] = hstate[j];
            }
            probe.fp_ops(10 * h as u64);
        }
        hs
    }

    /// Multiply-accumulate count per timestep.
    pub fn flops_per_step(&self) -> u64 {
        (4 * self.hidden * (self.input + self.hidden)) as u64 * 2
    }
}

/// A bidirectional LSTM: forward and backward halves concatenated.
#[derive(Debug, Clone)]
pub struct BiLstm {
    /// Forward-direction LSTM.
    pub fwd: Lstm,
    /// Backward-direction LSTM.
    pub bwd: Lstm,
}

impl BiLstm {
    /// Creates a randomly initialized bi-LSTM.
    pub fn new(input: usize, hidden: usize, rng: &mut Rng) -> BiLstm {
        BiLstm {
            fwd: Lstm::new(input, hidden, rng),
            bwd: Lstm::new(input, hidden, rng),
        }
    }

    /// Output: `2*hidden x T` (forward states stacked over backward).
    // PANIC-FREE: both halves return `hidden x T` matrices, so the stack
    // loop's `(h + j, ti)` stays inside the `2*hidden x T` output.
    pub fn forward_probed<P: Probe>(&self, steps: &Matrix, probe: &mut P) -> Matrix {
        let f = self.fwd.forward_probed(steps, false, probe);
        let b = self.bwd.forward_probed(steps, true, probe);
        let h = self.fwd.hidden;
        let t = steps.cols();
        let mut out = Matrix::zeros(2 * h, t);
        for j in 0..h {
            for ti in 0..t {
                out[(j, ti)] = f[(j, ti)];
                out[(h + j, ti)] = b[(j, ti)];
            }
        }
        out
    }
}

impl gb_substrate::Codec for Conv1d {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        e.put_usize(self.in_ch);
        e.put_usize(self.out_ch);
        e.put_usize(self.kernel);
        e.put_usize(self.stride);
        gb_substrate::Codec::encode(&self.weights, e);
        gb_substrate::Codec::encode(&self.bias, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<Conv1d> {
        Some(Conv1d {
            in_ch: d.get_usize()?,
            out_ch: d.get_usize()?,
            kernel: d.get_usize()?,
            stride: d.get_usize()?,
            weights: gb_substrate::Codec::decode(d)?,
            bias: gb_substrate::Codec::decode(d)?,
        })
    }
}

impl gb_substrate::Codec for DepthwiseConv1d {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        e.put_usize(self.channels);
        e.put_usize(self.kernel);
        gb_substrate::Codec::encode(&self.weights, e);
        gb_substrate::Codec::encode(&self.bias, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<DepthwiseConv1d> {
        Some(DepthwiseConv1d {
            channels: d.get_usize()?,
            kernel: d.get_usize()?,
            weights: gb_substrate::Codec::decode(d)?,
            bias: gb_substrate::Codec::decode(d)?,
        })
    }
}

impl gb_substrate::Codec for SeparableBlock {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        gb_substrate::Codec::encode(&self.depthwise, e);
        gb_substrate::Codec::encode(&self.pointwise, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<SeparableBlock> {
        Some(SeparableBlock {
            depthwise: gb_substrate::Codec::decode(d)?,
            pointwise: gb_substrate::Codec::decode(d)?,
        })
    }
}

impl gb_substrate::Codec for Dense {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        gb_substrate::Codec::encode(&self.weights, e);
        gb_substrate::Codec::encode(&self.bias, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<Dense> {
        Some(Dense {
            weights: gb_substrate::Codec::decode(d)?,
            bias: gb_substrate::Codec::decode(d)?,
        })
    }
}

impl gb_substrate::Codec for Lstm {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        e.put_usize(self.input);
        e.put_usize(self.hidden);
        gb_substrate::Codec::encode(&self.w, e);
        gb_substrate::Codec::encode(&self.u, e);
        gb_substrate::Codec::encode(&self.bias, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<Lstm> {
        Some(Lstm {
            input: d.get_usize()?,
            hidden: d.get_usize()?,
            w: gb_substrate::Codec::decode(d)?,
            u: gb_substrate::Codec::decode(d)?,
            bias: gb_substrate::Codec::decode(d)?,
        })
    }
}

impl gb_substrate::Codec for BiLstm {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        gb_substrate::Codec::encode(&self.fwd, e);
        gb_substrate::Codec::encode(&self.bwd, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<BiLstm> {
        Some(BiLstm {
            fwd: gb_substrate::Codec::decode(d)?,
            bwd: gb_substrate::Codec::decode(d)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from_u64(42)
    }

    #[test]
    fn softmax_is_a_distribution() {
        let mut xs = vec![1.0, 2.0, 3.0, -1.0];
        softmax(&mut xs);
        let sum: f32 = xs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(xs[2] > xs[1] && xs[1] > xs[0] && xs[0] > xs[3]);
    }

    #[test]
    fn conv_identity_kernel_passes_through() {
        let mut c = Conv1d::new(1, 1, 3, 1, &mut rng());
        c.weights = Matrix::from_vec(1, 3, vec![0.0, 1.0, 0.0]);
        c.bias = vec![0.0];
        let input = Matrix::from_vec(1, 5, vec![1., 2., 3., 4., 5.]);
        let out = c.forward(&input);
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn conv_stride_downsamples() {
        let c = Conv1d::new(2, 4, 5, 3, &mut rng());
        let input = Matrix::zeros(2, 30);
        let out = c.forward(&input);
        assert_eq!(out.shape(), (4, 10));
    }

    #[test]
    fn conv_edges_use_zero_padding() {
        let mut c = Conv1d::new(1, 1, 3, 1, &mut rng());
        c.weights = Matrix::from_vec(1, 3, vec![1.0, 1.0, 1.0]);
        c.bias = vec![0.0];
        let input = Matrix::from_vec(1, 3, vec![1., 1., 1.]);
        let out = c.forward(&input);
        assert_eq!(out.as_slice(), &[2.0, 3.0, 2.0]);
    }

    #[test]
    fn depthwise_keeps_channels_independent() {
        let mut d = DepthwiseConv1d::new(2, 3, &mut rng());
        d.weights = Matrix::from_vec(2, 3, vec![0., 1., 0., 0., 2., 0.]);
        d.bias = vec![0.0, 0.0];
        let input = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let out = d.forward_probed(&input, &mut NullProbe);
        assert_eq!(out.row(0), &[1., 2., 3.]);
        assert_eq!(out.row(1), &[8., 10., 12.]);
    }

    #[test]
    fn dense_matches_manual_product() {
        let mut d = Dense::new(3, 2, &mut rng());
        d.weights = Matrix::from_vec(2, 3, vec![1., 0., 0., 0., 1., 1.]);
        d.bias = vec![0.5, -0.5];
        let out = d.forward_probed(&[2.0, 3.0, 4.0], &mut NullProbe);
        assert_eq!(out, vec![2.5, 6.5]);
    }

    #[test]
    fn lstm_shapes_and_determinism() {
        let l = Lstm::new(8, 16, &mut rng());
        let steps = xavier(8, 10, &mut rng());
        let a = l.forward_probed(&steps, false, &mut NullProbe);
        let b = l.forward_probed(&steps, false, &mut NullProbe);
        assert_eq!(a.shape(), (16, 10));
        assert_eq!(a, b);
        // States are bounded by tanh.
        assert!(a.as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn lstm_state_propagates_information() {
        let l = Lstm::new(2, 8, &mut rng());
        let zeros = Matrix::zeros(2, 6);
        let mut spiked = Matrix::zeros(2, 6);
        spiked[(0, 0)] = 5.0;
        let a = l.forward_probed(&zeros, false, &mut NullProbe);
        let b = l.forward_probed(&spiked, false, &mut NullProbe);
        // The t=0 spike must influence the final state.
        let last_diff: f32 = (0..8).map(|j| (a[(j, 5)] - b[(j, 5)]).abs()).sum();
        assert!(last_diff > 1e-4, "spike vanished: {last_diff}");
    }

    #[test]
    fn bilstm_concatenates_directions() {
        let bl = BiLstm::new(4, 6, &mut rng());
        let steps = xavier(4, 7, &mut rng());
        let out = bl.forward_probed(&steps, &mut NullProbe);
        assert_eq!(out.shape(), (12, 7));
        // Backward half at t=T-1 equals backward LSTM's first processed
        // step; just check the two halves differ.
        let fwd_sum: f32 = (0..6).map(|j| out[(j, 3)].abs()).sum();
        let bwd_sum: f32 = (0..6).map(|j| out[(6 + j, 3)].abs()).sum();
        assert!((fwd_sum - bwd_sum).abs() > 1e-6);
    }

    #[test]
    fn separable_block_runs_and_activates() {
        let s = SeparableBlock::new(8, 16, 5, &mut rng());
        let input = xavier(8, 20, &mut rng());
        let out = s.forward_probed(&input, &mut NullProbe);
        assert_eq!(out.shape(), (16, 20));
        // Swish is bounded below by ~-0.28.
        assert!(out.as_slice().iter().all(|&v| v > -0.3));
    }

    #[test]
    fn flops_counts_are_consistent() {
        let c = Conv1d::new(4, 8, 3, 1, &mut rng());
        assert_eq!(c.flops(10), (8 * 10 * 4 * 3) as u64 * 2);
        let l = Lstm::new(4, 8, &mut rng());
        assert_eq!(l.flops_per_step(), (4 * 8 * 12) as u64 * 2);
    }
}
