//! Neural-network layers for inference.
//!
//! A deliberately small, dependency-free inference library covering what
//! the two neural kernels need: 1-D convolutions (plain, depthwise and
//! separable, as in Bonito's TCS blocks), dense layers, LSTMs
//! (bidirectional, as in Clair), and the usual activations. Activations
//! are `channels x time` matrices ([`Matrix`]).

use gb_core::matrix::{axpy, Matrix};
use gb_core::rng::Rng;
use gb_uarch::probe::{load_slice, Probe};

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

/// Adds one input row's share of a "same"-padded convolution to an output
/// row: `out[to] += taps[k] * row[to * stride + k - pad]` wherever that
/// index falls inside `row`, for `k` ascending — so each output keeps the
/// term order of the scalar loop while the lanes run across outputs.
// PANIC-FREE: `lo < hi` puts `lo * stride + k - pad` in `0..row.len()`
// (the two bounds are that inequality solved for `to`), and `hi` is
// clamped to `out.len()`.
fn add_taps(out: &mut [f32], taps: &[f32], row: &[f32], stride: usize) {
    let pad = taps.len() / 2;
    for (k, &w) in taps.iter().enumerate() {
        let lo = pad.saturating_sub(k).div_ceil(stride);
        let hi = (row.len() + pad)
            .saturating_sub(k)
            .div_ceil(stride)
            .min(out.len());
        if lo >= hi {
            continue;
        }
        let src = &row[lo * stride + k - pad..];
        if stride == 1 {
            axpy(&mut out[lo..hi], w, src);
        } else {
            for (o, &x) in out[lo..hi].iter_mut().zip(src.iter().step_by(stride)) {
                *o += w * x;
            }
        }
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

    /// Applies the convolution to a `in_ch x T` activation: each output
    /// row starts as its bias and gains input channel after input channel.
    // PANIC-FREE: the shape assert is the layer contract; weight, bias and
    // row indices are bounded by the constructor's shapes.
    pub fn forward_probed<P: Probe>(&self, input: &Matrix, probe: &mut P) -> Matrix {
        assert_eq!(input.rows(), self.in_ch, "channel mismatch");
        let t_out = self.out_len(input.cols());
        let mut out = Matrix::zeros(self.out_ch, t_out);
        for oc in 0..self.out_ch {
            let w = self.weights.row(oc);
            load_slice(probe, w);
            let out_row = out.row_mut(oc);
            out_row.fill(self.bias[oc]);
            for ic in 0..self.in_ch {
                let taps = &w[ic * self.kernel..(ic + 1) * self.kernel];
                add_taps(out_row, taps, input.row(ic), self.stride);
            }
            probe.simd_ops((t_out * self.in_ch * self.kernel / 8 + 1) as u64);
            load_slice(probe, input.as_slice());
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
    // PANIC-FREE: shape assert is the layer contract; `bias[c]` has one
    // slot per channel by construction.
    pub fn forward_probed<P: Probe>(&self, input: &Matrix, probe: &mut P) -> Matrix {
        assert_eq!(input.rows(), self.channels);
        let t = input.cols();
        let mut out = Matrix::zeros(self.channels, t);
        for c in 0..self.channels {
            let out_row = out.row_mut(c);
            out_row.fill(self.bias[c]);
            add_taps(out_row, self.weights.row(c), input.row(c), 1);
            probe.simd_ops((t * self.kernel / 8 + 1) as u64);
        }
        load_slice(probe, input.as_slice());
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
    /// Weights, transposed: `in x out`, so one input feeds a contiguous
    /// row of outputs. Encoded as `out x in`.
    wt: Matrix,
    /// Bias, length `out`.
    bias: Vec<f32>,
}

impl Dense {
    /// Creates a randomly initialized dense layer.
    pub fn new(input: usize, output: usize, rng: &mut Rng) -> Dense {
        Dense {
            wt: xavier(output, input, rng).transpose(),
            bias: (0..output).map(|_| rng.gen_range(-0.1..0.1)).collect(),
        }
    }

    /// `W x + b`: the outputs start as the bias and gain one input's
    /// column of `W` at a time.
    // PANIC-FREE: the input-size assert is the layer contract.
    pub fn forward_probed<P: Probe>(&self, x: &[f32], probe: &mut P) -> Vec<f32> {
        assert_eq!(x.len(), self.wt.rows(), "input size mismatch");
        load_slice(probe, x);
        let mut out = self.bias.clone();
        for (i, &xi) in x.iter().enumerate() {
            axpy(&mut out, xi, self.wt.row(i));
        }
        for _ in 0..out.len() {
            probe.simd_ops((x.len() / 8 + 1) as u64);
        }
        load_slice(probe, self.wt.as_slice());
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
    /// Input weights, transposed: `input x 4*hidden` (i, f, g, o gate
    /// order along a row). Encoded as `4*hidden x input`.
    wt: Matrix,
    /// Recurrent weights, transposed: `hidden x 4*hidden`. Encoded as
    /// `4*hidden x hidden`.
    ut: Matrix,
    /// Gate biases, length `4*hidden`.
    bias: Vec<f32>,
}

impl Lstm {
    /// Creates a randomly initialized LSTM.
    pub fn new(input: usize, hidden: usize, rng: &mut Rng) -> Lstm {
        Lstm {
            input,
            hidden,
            wt: xavier(4 * hidden, input, rng).transpose(),
            ut: xavier(4 * hidden, hidden, rng).transpose(),
            // Forget-gate bias +1, the standard stabilization.
            bias: (0..4 * hidden)
                .map(|i| {
                    if (hidden..2 * hidden).contains(&i) {
                        1.0
                    } else {
                        0.0
                    }
                })
                .collect(),
        }
    }

    /// Runs over `steps` (each column an input vector), writing all hidden
    /// states into `hs`, a row-major `hidden x T` block. `reverse`
    /// iterates the sequence backwards (for the backward half of a
    /// bi-LSTM) while still storing states at their original positions.
    ///
    /// The input half of every gate sum, `x_t·W_ih`, does not wait for
    /// the recurrence, so it is taken for all timesteps first; each step
    /// then continues those same sums with `h·W_hh`.
    // PANIC-FREE: the input-feature and output-size asserts are the layer
    // contract; `j * t_len + t` stays inside the `hidden x T` block.
    pub fn forward_probed<P: Probe>(
        &self,
        steps: &Matrix,
        reverse: bool,
        hs: &mut [f32],
        probe: &mut P,
    ) {
        assert_eq!(steps.rows(), self.input, "input feature mismatch");
        let t_len = steps.cols();
        let h = self.hidden;
        assert_eq!(hs.len(), h * t_len, "output size mismatch");
        let mut sums = Matrix::zeros(t_len, 4 * h);
        for t in 0..t_len {
            for i in 0..self.input {
                axpy(sums.row_mut(t), steps[(i, t)], self.wt.row(i));
            }
        }
        let mut hstate = vec![0.0f32; h];
        let mut cstate = vec![0.0f32; h];
        for s in 0..t_len {
            let t = if reverse { t_len - 1 - s } else { s };
            self.step(sums.row_mut(t), &mut hstate, &mut cstate);
            probe.simd_ops((4 * h * (self.input + h) / 8 + 1) as u64);
            load_slice(probe, self.wt.as_slice());
            load_slice(probe, self.ut.as_slice());
            for (j, &hj) in hstate.iter().enumerate() {
                hs[j * t_len + t] = hj;
            }
            probe.fp_ops(10 * h as u64);
        }
    }

    /// One step of the recurrence: `sums` arrives holding `x_t·W_ih`,
    /// gains `h·W_hh` term by term and the bias last, and the gates
    /// update both states in place.
    // xtask: hot
    // PANIC-FREE: `sums` and `bias` hold `4 * hidden` values and both
    // states `hidden`, fixed by the constructor and `forward_probed`.
    fn step(&self, sums: &mut [f32], hstate: &mut [f32], cstate: &mut [f32]) {
        let h = self.hidden;
        for (j, &hj) in hstate.iter().enumerate() {
            axpy(sums, hj, self.ut.row(j));
        }
        for j in 0..h {
            let i_g = sigmoid(self.bias[j] + sums[j]);
            let f_g = sigmoid(self.bias[h + j] + sums[h + j]);
            let g_g = (self.bias[2 * h + j] + sums[2 * h + j]).tanh();
            let o_g = sigmoid(self.bias[3 * h + j] + sums[3 * h + j]);
            cstate[j] = f_g * cstate[j] + i_g * g_g;
            hstate[j] = o_g * cstate[j].tanh();
        }
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
    pub fn forward_probed<P: Probe>(&self, steps: &Matrix, probe: &mut P) -> Matrix {
        let h = self.fwd.hidden;
        let t = steps.cols();
        let mut out = Matrix::zeros(2 * h, t);
        let (top, bottom) = out.as_mut_slice().split_at_mut(h * t);
        self.fwd.forward_probed(steps, false, top, probe);
        self.bwd.forward_probed(steps, true, bottom, probe);
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
        gb_substrate::Codec::encode(&self.wt.transpose(), e);
        gb_substrate::Codec::encode(&self.bias, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<Dense> {
        Some(Dense {
            wt: <Matrix as gb_substrate::Codec>::decode(d)?.transpose(),
            bias: gb_substrate::Codec::decode(d)?,
        })
    }
}

impl gb_substrate::Codec for Lstm {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        e.put_usize(self.input);
        e.put_usize(self.hidden);
        gb_substrate::Codec::encode(&self.wt.transpose(), e);
        gb_substrate::Codec::encode(&self.ut.transpose(), e);
        gb_substrate::Codec::encode(&self.bias, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<Lstm> {
        Some(Lstm {
            input: d.get_usize()?,
            hidden: d.get_usize()?,
            wt: <Matrix as gb_substrate::Codec>::decode(d)?.transpose(),
            ut: <Matrix as gb_substrate::Codec>::decode(d)?.transpose(),
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
    use gb_uarch::mix::MixProbe;
    use gb_uarch::probe::NullProbe;

    fn rng() -> Rng {
        Rng::seed_from_u64(42)
    }

    // The oracles: the loops these layers ran before the lanes went
    // across outputs, one serial `acc += w * x` chain per output. The
    // layers must match them bit for bit, in the debug profile and in
    // `--release`, the one that is timed.

    fn naive_conv1d(c: &Conv1d, input: &Matrix) -> Matrix {
        let t = input.cols();
        let pad = c.kernel / 2;
        let mut out = Matrix::zeros(c.out_ch, c.out_len(t));
        for oc in 0..c.out_ch {
            let w = c.weights.row(oc);
            for to in 0..c.out_len(t) {
                let mut acc = c.bias[oc];
                for ic in 0..c.in_ch {
                    for k in 0..c.kernel {
                        let ti = to * c.stride + k;
                        if ti < pad || ti - pad >= t {
                            continue;
                        }
                        acc += w[ic * c.kernel + k] * input[(ic, ti - pad)];
                    }
                }
                out[(oc, to)] = acc;
            }
        }
        out
    }

    fn naive_depthwise(d: &DepthwiseConv1d, input: &Matrix) -> Matrix {
        let t = input.cols();
        let pad = d.kernel / 2;
        let mut out = Matrix::zeros(d.channels, t);
        for c in 0..d.channels {
            for to in 0..t {
                let mut acc = d.bias[c];
                for (k, &wk) in d.weights.row(c).iter().enumerate() {
                    let ti = to + k;
                    if ti < pad || ti - pad >= t {
                        continue;
                    }
                    acc += wk * input[(c, ti - pad)];
                }
                out[(c, to)] = acc;
            }
        }
        out
    }

    fn naive_dense(d: &Dense, x: &[f32]) -> Vec<f32> {
        (0..d.bias.len())
            .map(|o| {
                let mut acc = d.bias[o];
                for (i, xi) in x.iter().enumerate() {
                    acc += d.wt[(i, o)] * xi;
                }
                acc
            })
            .collect()
    }

    fn naive_lstm(l: &Lstm, steps: &Matrix, reverse: bool) -> Matrix {
        let (t_len, h) = (steps.cols(), l.hidden);
        let mut hs = Matrix::zeros(h, t_len);
        let mut hstate = vec![0.0f32; h];
        let mut cstate = vec![0.0f32; h];
        let mut order: Vec<usize> = (0..t_len).collect();
        if reverse {
            order.reverse();
        }
        for t in order {
            let mut gates = l.bias.clone();
            for (g, gate) in gates.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for i in 0..l.input {
                    acc += l.wt[(i, g)] * steps[(i, t)];
                }
                for (j, hj) in hstate.iter().enumerate() {
                    acc += l.ut[(j, g)] * hj;
                }
                *gate += acc;
            }
            for j in 0..h {
                let i_g = sigmoid(gates[j]);
                let f_g = sigmoid(gates[h + j]);
                let g_g = gates[2 * h + j].tanh();
                let o_g = sigmoid(gates[3 * h + j]);
                cstate[j] = f_g * cstate[j] + i_g * g_g;
                hstate[j] = o_g * cstate[j].tanh();
                hs[(j, t)] = hstate[j];
            }
        }
        hs
    }

    fn run_lstm(l: &Lstm, steps: &Matrix, reverse: bool) -> Matrix {
        let mut hs = Matrix::zeros(l.hidden, steps.cols());
        l.forward_probed(steps, reverse, hs.as_mut_slice(), &mut NullProbe);
        hs
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}");
    }

    #[test]
    fn convolutions_match_the_scalar_loops_bit_for_bit() {
        let mut rng = rng();
        // Kernel 9 over T <= 3 is wider than its input on both sides.
        for stride in [1, 2, 5] {
            for kernel in [1, 3, 9] {
                for t in [1, 2, 3, 7, 8, 41] {
                    for in_ch in [1, 3] {
                        let what = format!("stride {stride} kernel {kernel} t {t} in_ch {in_ch}");
                        let input = xavier(in_ch, t, &mut rng);
                        let c = Conv1d::new(in_ch, 4, kernel, stride, &mut rng);
                        let out = c.forward_probed(&input, &mut NullProbe);
                        assert_eq!(out.shape(), (4, t.div_ceil(stride)), "{what}");
                        assert_same_bits(
                            out.as_slice(),
                            naive_conv1d(&c, &input).as_slice(),
                            &what,
                        );
                        let d = DepthwiseConv1d::new(in_ch, kernel, &mut rng);
                        assert_same_bits(
                            d.forward_probed(&input, &mut NullProbe).as_slice(),
                            naive_depthwise(&d, &input).as_slice(),
                            &what,
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dense_matches_the_scalar_loop_bit_for_bit() {
        let mut rng = rng();
        for (input, output) in [(1, 1), (3, 4), (7, 3), (96, 5), (192, 96)] {
            let d = Dense::new(input, output, &mut rng);
            let x = xavier(1, input, &mut rng);
            assert_same_bits(
                &d.forward_probed(x.as_slice(), &mut NullProbe),
                &naive_dense(&d, x.as_slice()),
                &format!("{input} -> {output}"),
            );
        }
    }

    #[test]
    fn lstm_matches_the_scalar_loops_bit_for_bit() {
        let mut rng = rng();
        // Hidden sizes on and off a multiple of the vector width.
        for hidden in [1, 3, 5, 6, 16] {
            for input in [1, 4, 7] {
                for t_len in [1, 2, 9] {
                    let l = Lstm::new(input, hidden, &mut rng);
                    let steps = xavier(input, t_len, &mut rng);
                    for reverse in [false, true] {
                        assert_same_bits(
                            run_lstm(&l, &steps, reverse).as_slice(),
                            naive_lstm(&l, &steps, reverse).as_slice(),
                            &format!("hidden {hidden} input {input} T {t_len} reverse {reverse}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn conv_of_an_empty_activation_is_empty() {
        let c = Conv1d::new(3, 4, 5, 2, &mut rng());
        let mut probe = MixProbe::new();
        let out = c.forward_probed(&Matrix::zeros(3, 0), &mut probe);
        assert_eq!(out.shape(), (4, 0));
    }

    #[test]
    fn depthwise_of_an_empty_activation_is_empty() {
        let d = DepthwiseConv1d::new(3, 5, &mut rng());
        let mut probe = MixProbe::new();
        let out = d.forward_probed(&Matrix::zeros(3, 0), &mut probe);
        assert_eq!(out.shape(), (3, 0));
        assert_eq!(probe.mix().loads, 0, "no input, no load event");
    }

    #[test]
    fn dense_of_an_empty_vector_is_its_bias() {
        let d = Dense::new(0, 3, &mut rng());
        let mut probe = MixProbe::new();
        assert_eq!(d.forward_probed(&[], &mut probe), d.bias);
        assert_eq!(probe.mix().loads, 0, "no input, no weights, no load event");
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
        let out = c.forward_probed(&input, &mut NullProbe);
        assert_eq!(out.as_slice(), input.as_slice());
    }

    #[test]
    fn conv_stride_downsamples() {
        let c = Conv1d::new(2, 4, 5, 3, &mut rng());
        let input = Matrix::zeros(2, 30);
        let out = c.forward_probed(&input, &mut NullProbe);
        assert_eq!(out.shape(), (4, 10));
    }

    #[test]
    fn conv_edges_use_zero_padding() {
        let mut c = Conv1d::new(1, 1, 3, 1, &mut rng());
        c.weights = Matrix::from_vec(1, 3, vec![1.0, 1.0, 1.0]);
        c.bias = vec![0.0];
        let input = Matrix::from_vec(1, 3, vec![1., 1., 1.]);
        let out = c.forward_probed(&input, &mut NullProbe);
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
        let d = Dense {
            wt: Matrix::from_vec(2, 3, vec![1., 0., 0., 0., 1., 1.]).transpose(),
            bias: vec![0.5, -0.5],
        };
        let out = d.forward_probed(&[2.0, 3.0, 4.0], &mut NullProbe);
        assert_eq!(out, vec![2.5, 6.5]);
    }

    #[test]
    fn transposed_weights_encode_as_they_were_drawn() {
        // The substrate stores `out x in`; the layers hold the transpose.
        let mut e = gb_substrate::Encoder::new();
        gb_substrate::Codec::encode(&Lstm::new(3, 2, &mut rng()), &mut e);
        let mut r = rng();
        let (w, u) = (xavier(8, 3, &mut r), xavier(8, 2, &mut r));
        let mut want = gb_substrate::Encoder::new();
        want.put_usize(3);
        want.put_usize(2);
        gb_substrate::Codec::encode(&w, &mut want);
        gb_substrate::Codec::encode(&u, &mut want);
        gb_substrate::Codec::encode(&vec![0.0f32, 0., 1., 1., 0., 0., 0., 0.], &mut want);
        assert_eq!(e.into_bytes(), want.into_bytes());
    }

    #[test]
    fn lstm_shapes_and_determinism() {
        let l = Lstm::new(8, 16, &mut rng());
        let steps = xavier(8, 10, &mut rng());
        let a = run_lstm(&l, &steps, false);
        let b = run_lstm(&l, &steps, false);
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
        let a = run_lstm(&l, &zeros, false);
        let b = run_lstm(&l, &spiked, false);
        // The t=0 spike must influence the final state.
        let last_diff: f32 = (0..8).map(|j| (a[(j, 5)] - b[(j, 5)]).abs()).sum();
        assert!(last_diff > 1e-4, "spike vanished: {last_diff}");
    }

    #[test]
    fn bilstm_stacks_forward_over_backward() {
        let bl = BiLstm::new(4, 6, &mut rng());
        let steps = xavier(4, 7, &mut rng());
        let out = bl.forward_probed(&steps, &mut NullProbe);
        assert_eq!(out.shape(), (12, 7));
        let (top, bottom) = out.as_slice().split_at(6 * 7);
        assert_eq!(top, run_lstm(&bl.fwd, &steps, false).as_slice());
        assert_eq!(bottom, run_lstm(&bl.bwd, &steps, true).as_slice());
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
