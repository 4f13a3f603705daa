//! Model-based event decoding: a Viterbi basecaller over the pore model.
//!
//! The neural basecaller (**nn-base**) replaces the older HMM-based
//! basecallers; this module implements that classical baseline — Viterbi
//! decoding over the 4096 6-mer states of the pore model — so the suite
//! has a comparator whose accuracy can actually be tested (the neural
//! model ships untrained weights; see DESIGN.md). Each event either
//! *stays* on the current k-mer (over-segmentation) or *steps* to one of
//! its four successors; emissions are the pore model's per-k-mer
//! Gaussians.

use gb_core::seq::DnaSeq;
use gb_datagen::signal::{Event, PoreModel, PORE_K};

/// Decoding parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoreDecoderParams {
    /// Probability that consecutive events sample the same k-mer.
    pub p_stay: f64,
}

impl Default for PoreDecoderParams {
    fn default() -> PoreDecoderParams {
        PoreDecoderParams { p_stay: 0.25 }
    }
}

/// Result of decoding one event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct PoreDecode {
    /// The decoded base sequence.
    pub seq: DnaSeq,
    /// Viterbi path log-likelihood.
    pub log_likelihood: f64,
    /// The k-mer state path (one per event).
    pub path: Vec<u16>,
}

/// Viterbi-decodes `events` into a sequence under `model`.
///
/// Returns `None` for an empty event stream.
///
/// # Examples
///
/// ```
/// use gb_core::seq::DnaSeq;
/// use gb_datagen::signal::{simulate_signal, PoreModel, SignalSimConfig};
/// use gb_nn::pore_decoder::{accuracy, viterbi_decode, PoreDecoderParams};
/// let truth: DnaSeq = "ACGGTTACAGGATCCAGTTACGTACCGGT".parse()?;
/// let model = PoreModel::r9_like();
/// let cfg = SignalSimConfig { split_prob: 0.0, skip_prob: 0.0, ..Default::default() };
/// let sig = simulate_signal(&truth, &model, &cfg, 3);
/// let d = viterbi_decode(&sig.events, &model, &PoreDecoderParams::default()).unwrap();
/// // A clean signal decodes near-perfectly (the first k-mer's leading
/// // bases carry only one emission of evidence, so allow an edit or two).
/// assert!(accuracy(&d.seq, &truth) > 0.93);
/// # Ok::<(), gb_core::error::Error>(())
/// ```
pub fn viterbi_decode(
    events: &[Event],
    model: &PoreModel,
    params: &PoreDecoderParams,
) -> Option<PoreDecode> {
    let n = events.len();
    if n == 0 {
        return None;
    }
    let states = model.len(); // 4096
    let mask = (states - 1) as u64;
    let lp_stay = params.p_stay.clamp(1e-6, 0.999).ln();
    let lp_step = ((1.0 - params.p_stay.clamp(1e-6, 0.999)) / 4.0).ln();

    // Pre-compute emission tables lazily per event.
    let emit = |ev: &Event, s: usize| -> f64 {
        let m = model.get(s as u64);
        let z = f64::from((ev.mean - m.level_mean) / m.level_stdv);
        -f64::from(m.level_stdv.ln()) - 0.918_938_533_204_672_7 - 0.5 * z * z
    };

    let mut dp: Vec<f64> = (0..states).map(|s| emit(&events[0], s)).collect();
    // Backpointers: 0 = stay, 1..=4 = stepped from predecessor with
    // leading base (b-1).
    let mut back = vec![vec![0u8; states]; n];
    for (e, ev) in events.iter().enumerate().skip(1) {
        let mut next = vec![f64::NEG_INFINITY; states];
        for (s, slot) in next.iter_mut().enumerate() {
            // Stay on s.
            let mut best = dp[s] + lp_stay;
            let mut bp = 0u8;
            // Step from each predecessor p where (p << 2 | last) & mask == s.
            let suffix = (s as u64) >> 2;
            for lead in 0..4u64 {
                let p = (suffix | (lead << (2 * (PORE_K - 1)))) & mask;
                let cand = dp[p as usize] + lp_step;
                if cand > best {
                    best = cand;
                    bp = lead as u8 + 1;
                }
            }
            *slot = best + emit(ev, s);
            back[e][s] = bp;
        }
        dp = next;
    }

    // Best terminal state, then backtrack.
    let (mut state, &ll) = dp
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite"))
        .expect("states non-empty");
    let mut path = vec![0u16; n];
    for e in (0..n).rev() {
        path[e] = state as u16;
        if e == 0 {
            break;
        }
        let bp = back[e][state];
        if bp > 0 {
            // We stepped into `state`; the predecessor had the recorded
            // leading base and our leading (k-1)-mer as suffix.
            let lead = u64::from(bp - 1);
            state = (((state as u64) >> 2) | (lead << (2 * (PORE_K - 1)))) as usize;
        }
    }

    // Path -> sequence: first k-mer's bases, then one base per step.
    let mut codes = gb_core::seq::unpack_kmer(u64::from(path[0]), PORE_K);
    for w in path.windows(2) {
        if w[1] != w[0] {
            codes.push((w[1] & 3) as u8);
        }
    }
    Some(PoreDecode {
        seq: DnaSeq::from_codes_unchecked(codes),
        log_likelihood: ll,
        path,
    })
}

/// Base-level accuracy of `decoded` against `truth` (1 - edit distance /
/// truth length), the usual basecaller metric.
pub fn accuracy(decoded: &DnaSeq, truth: &DnaSeq) -> f64 {
    let d = edit_distance(decoded.as_codes(), truth.as_codes());
    1.0 - d as f64 / truth.len().max(1) as f64
}

fn edit_distance(a: &[u8], b: &[u8]) -> usize {
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &x) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &y) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(x != y);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_core::rng::Rng;
    use gb_datagen::signal::{simulate_signal, SignalSimConfig};

    fn truth(n: usize, seed: u64) -> DnaSeq {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..4u8)).collect()
    }

    #[test]
    fn clean_signal_decodes_exactly() {
        let t = truth(120, 5);
        let model = PoreModel::r9_like();
        let cfg = SignalSimConfig {
            split_prob: 0.0,
            skip_prob: 0.0,
            ..Default::default()
        };
        let sig = simulate_signal(&t, &model, &cfg, 6);
        let d = viterbi_decode(&sig.events, &model, &PoreDecoderParams::default()).unwrap();
        assert_eq!(d.seq, t);
        assert_eq!(accuracy(&d.seq, &t), 1.0);
    }

    #[test]
    fn oversegmented_signal_decodes_accurately() {
        let t = truth(200, 7);
        let model = PoreModel::r9_like();
        let cfg = SignalSimConfig {
            split_prob: 0.4,
            skip_prob: 0.0,
            ..Default::default()
        };
        let sig = simulate_signal(&t, &model, &cfg, 8);
        let d = viterbi_decode(&sig.events, &model, &PoreDecoderParams::default()).unwrap();
        let acc = accuracy(&d.seq, &t);
        assert!(acc > 0.95, "accuracy {acc}");
    }

    #[test]
    fn path_is_valid_kmer_walk() {
        let t = truth(100, 9);
        let model = PoreModel::r9_like();
        let sig = simulate_signal(&t, &model, &SignalSimConfig::default(), 10);
        let d = viterbi_decode(&sig.events, &model, &PoreDecoderParams::default()).unwrap();
        for w in d.path.windows(2) {
            let (a, b) = (u64::from(w[0]), u64::from(w[1]));
            let stepped = (a << 2) & 0xFFF | (b & 3);
            assert!(
                b == a || b == stepped,
                "invalid transition {a:03x} -> {b:03x}"
            );
        }
        assert_eq!(d.path.len(), sig.events.len());
    }

    #[test]
    fn empty_events_decode_to_none() {
        let model = PoreModel::r9_like();
        assert!(viterbi_decode(&[], &model, &PoreDecoderParams::default()).is_none());
    }

    #[test]
    fn accuracy_metric_behaves() {
        let a: DnaSeq = "ACGT".parse().unwrap();
        let b: DnaSeq = "ACGA".parse().unwrap();
        assert_eq!(accuracy(&a, &a), 1.0);
        assert!((accuracy(&b, &a) - 0.75).abs() < 1e-9);
    }
}
