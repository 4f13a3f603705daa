//! Nanopore raw-signal simulation.
//!
//! Replaces the paper's FAST5 datasets (Nanopore WGS Consortium NA12878).
//! A nanopore measures ionic current while DNA translocates; the current
//! level depends on the k-mer occupying the pore (k = 6 here, as in the
//! R9.4 pore model used by Nanopolish). The simulator:
//!
//! 1. assigns each 6-mer a deterministic synthetic model level
//!    (mean pA, stdv) via a hash of the k-mer — stable across runs and
//!    processes, like a real pore-model table;
//! 2. emits 5–12 raw samples per k-mer (dwell time), adding Gaussian noise;
//! 3. *over-segments*: with some probability a k-mer is split into two
//!    events, reproducing the up-to-2x event inflation the paper notes as
//!    the reason abea needs adaptive banding.

use gb_core::rng::{splitmix64, Rng};
use gb_core::seq::DnaSeq;

/// Length of the k-mers the pore model is defined over.
pub const PORE_K: usize = 6;

/// Model parameters for one k-mer: expected current level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KmerModel {
    /// Mean current in pA.
    pub level_mean: f32,
    /// Standard deviation of the current in pA.
    pub level_stdv: f32,
}

/// The synthetic pore model: a table of 4^6 = 4096 k-mer levels.
///
/// # Examples
///
/// ```
/// use gb_datagen::signal::PoreModel;
/// let m = PoreModel::r9_like();
/// let level = m.get(0).level_mean;
/// assert!(level >= 60.0 && level <= 130.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PoreModel {
    levels: Vec<KmerModel>,
}

impl PoreModel {
    /// Builds the deterministic R9.4-like model (levels spread over
    /// 60–130 pA, stdv 1–3 pA).
    pub fn r9_like() -> PoreModel {
        let n = 1usize << (2 * PORE_K);
        let levels = (0..n as u64)
            .map(|km| {
                // splitmix64 of the k-mer index: deterministic pseudo-random
                // level assignment, like a real model table.
                let h = splitmix64(km);
                let mean = 60.0 + (h % 70_000) as f32 / 1000.0;
                let stdv = 1.0 + ((h >> 17) % 2_000) as f32 / 1000.0;
                KmerModel {
                    level_mean: mean,
                    level_stdv: stdv,
                }
            })
            .collect();
        PoreModel { levels }
    }

    /// Model entry for the packed 6-mer `kmer`.
    ///
    /// # Panics
    ///
    /// Panics if `kmer >= 4096`.
    #[inline]
    // PANIC-FREE: documented `# Panics` precondition; packed 6-mers are
    // `< 4096` by construction of `pack_kmer`.
    pub fn get(&self, kmer: u64) -> KmerModel {
        self.levels[kmer as usize]
    }

    /// Number of k-mers in the model (4096).
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Always false; the model table is fixed-size.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }
}

/// One segmented event: a run of raw samples summarized by its mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Mean current of the event in pA.
    pub mean: f32,
    /// Standard deviation of the samples in the event.
    pub stdv: f32,
    /// Number of raw samples in the event.
    pub length: u32,
}

/// A simulated nanopore read: the underlying base sequence, its raw signal
/// and the segmented events.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalRead {
    /// The true base sequence that generated the signal.
    pub seq: DnaSeq,
    /// Raw current samples.
    pub raw: Vec<f32>,
    /// Segmented events (over-segmented relative to k-mers).
    pub events: Vec<Event>,
}

/// Configuration of the signal simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignalSimConfig {
    /// Probability a k-mer is split into two events (over-segmentation).
    pub split_prob: f64,
    /// Probability a k-mer produces no event (skip / too-fast
    /// translocation).
    pub skip_prob: f64,
    /// Minimum raw samples per event.
    pub min_dwell: u32,
    /// Maximum raw samples per event.
    pub max_dwell: u32,
}

impl Default for SignalSimConfig {
    fn default() -> SignalSimConfig {
        SignalSimConfig {
            split_prob: 0.35,
            skip_prob: 0.03,
            min_dwell: 4,
            max_dwell: 12,
        }
    }
}

/// Simulates the signal for `seq` under `model`, deterministically from
/// `seed`.
///
/// Sequences shorter than [`PORE_K`] produce an empty signal.
///
/// # Examples
///
/// ```
/// use gb_datagen::signal::{simulate_signal, PoreModel, SignalSimConfig};
/// use gb_core::seq::DnaSeq;
/// let seq: DnaSeq = "ACGTACGTACGTACGT".parse()?;
/// let model = PoreModel::r9_like();
/// let sig = simulate_signal(&seq, &model, &SignalSimConfig::default(), 1);
/// assert!(sig.events.len() >= 10);
/// # Ok::<(), gb_core::error::Error>(())
/// ```
pub fn simulate_signal(
    seq: &DnaSeq,
    model: &PoreModel,
    config: &SignalSimConfig,
    seed: u64,
) -> SignalRead {
    let mut rng = Rng::seed_from_u64(seed);
    let mut raw = Vec::new();
    let mut events = Vec::new();
    for (_, kmer) in seq.kmers(PORE_K) {
        if rng.gen::<f64>() < config.skip_prob {
            continue;
        }
        let n_events = if rng.gen::<f64>() < config.split_prob {
            2
        } else {
            1
        };
        for _ in 0..n_events {
            let km = model.get(kmer);
            let dwell = rng.gen_range(config.min_dwell..=config.max_dwell);
            let mut sum = 0.0f32;
            let mut sumsq = 0.0f32;
            let start = raw.len();
            for _ in 0..dwell {
                let sample = km.level_mean + gaussian(&mut rng) * km.level_stdv;
                raw.push(sample);
                sum += sample;
                sumsq += sample * sample;
            }
            let n = (raw.len() - start) as f32;
            let mean = sum / n;
            let var = (sumsq / n - mean * mean).max(0.0);
            events.push(Event {
                mean,
                stdv: var.sqrt(),
                length: dwell,
            });
        }
    }
    SignalRead {
        seq: seq.clone(),
        raw,
        events,
    }
}

/// Box–Muller standard normal draw.
fn gaussian(rng: &mut Rng) -> f32 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

impl gb_substrate::Codec for KmerModel {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        e.put_f32(self.level_mean);
        e.put_f32(self.level_stdv);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<KmerModel> {
        Some(KmerModel {
            level_mean: d.get_f32()?,
            level_stdv: d.get_f32()?,
        })
    }
}

impl gb_substrate::Codec for PoreModel {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        gb_substrate::Codec::encode(&self.levels, e);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<PoreModel> {
        let levels: Vec<KmerModel> = gb_substrate::Codec::decode(d)?;
        // `get` indexes by packed 6-mer; a table of any other size would
        // panic at query time.
        (levels.len() == 1 << (2 * PORE_K)).then_some(PoreModel { levels })
    }
}

impl gb_substrate::Codec for Event {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        e.put_f32(self.mean);
        e.put_f32(self.stdv);
        e.put_u32(self.length);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<Event> {
        Some(Event {
            mean: d.get_f32()?,
            stdv: d.get_f32()?,
            length: d.get_u32()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> DnaSeq {
        DnaSeq::from_codes_unchecked((0..n).map(|i| ((i * 7 + i / 3) % 4) as u8).collect())
    }

    #[test]
    fn model_is_deterministic_and_bounded() {
        let a = PoreModel::r9_like();
        let b = PoreModel::r9_like();
        assert_eq!(a, b);
        assert_eq!(a.len(), 4096);
        for km in 0..4096u64 {
            let m = a.get(km);
            assert!(m.level_mean >= 60.0 && m.level_mean < 130.0);
            assert!(m.level_stdv >= 1.0 && m.level_stdv < 3.0);
        }
    }

    #[test]
    fn distinct_kmers_get_distinct_levels_mostly() {
        let m = PoreModel::r9_like();
        let mut distinct = std::collections::HashSet::new();
        for km in 0..4096u64 {
            distinct.insert((m.get(km).level_mean * 1000.0) as i64);
        }
        assert!(
            distinct.len() > 3500,
            "levels too collided: {}",
            distinct.len()
        );
    }

    #[test]
    fn oversegmentation_inflates_events() {
        let s = seq(500);
        let model = PoreModel::r9_like();
        let sig = simulate_signal(&s, &model, &SignalSimConfig::default(), 3);
        let kmers = s.len() - PORE_K + 1;
        // ~1.32x inflation expected (1 + 0.35 - 0.03).
        assert!(sig.events.len() as f64 > kmers as f64 * 1.1);
        assert!(sig.events.len() as f64 <= kmers as f64 * 2.0);
    }

    #[test]
    fn event_means_track_model_levels() {
        let s = seq(300);
        let model = PoreModel::r9_like();
        let cfg = SignalSimConfig {
            split_prob: 0.0,
            skip_prob: 0.0,
            ..Default::default()
        };
        let sig = simulate_signal(&s, &model, &cfg, 7);
        let kmers: Vec<u64> = s.kmers(PORE_K).map(|(_, k)| k).collect();
        assert_eq!(sig.events.len(), kmers.len());
        for (ev, km) in sig.events.iter().zip(&kmers) {
            let m = model.get(*km);
            assert!(
                (ev.mean - m.level_mean).abs() < 4.0 * m.level_stdv,
                "event mean {} too far from model {}",
                ev.mean,
                m.level_mean
            );
        }
    }

    #[test]
    fn short_seq_is_empty() {
        let s = seq(4);
        let sig = simulate_signal(&s, &PoreModel::r9_like(), &SignalSimConfig::default(), 1);
        assert!(sig.events.is_empty() && sig.raw.is_empty());
    }

    #[test]
    fn deterministic_per_seed() {
        let s = seq(100);
        let m = PoreModel::r9_like();
        let a = simulate_signal(&s, &m, &SignalSimConfig::default(), 5);
        let b = simulate_signal(&s, &m, &SignalSimConfig::default(), 5);
        assert_eq!(a, b);
    }
}
