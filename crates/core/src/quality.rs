//! Phred base-quality scores.
//!
//! Basecallers attach a quality score to each base; the pairHMM kernel turns
//! these into floating-point emission priors, which is why quality handling
//! lives in the core crate.

/// A Phred-scaled base quality score.
///
/// Quality `q` encodes an error probability of `10^(-q/10)`: Q10 means a 10%
/// chance the base is wrong, Q30 means 0.1%.
///
/// # Examples
///
/// ```
/// use gb_core::quality::Phred;
/// let q = Phred::new(20);
/// assert!((q.error_prob() - 0.01).abs() < 1e-12);
/// assert_eq!(Phred::from_ascii(b'5'), Phred::new(20)); // '5' = 33 + 20
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Phred(u8);

/// The Sanger/Illumina ASCII offset for quality characters.
pub const PHRED_ASCII_OFFSET: u8 = 33;

/// Highest quality representable in the printable FASTQ range.
pub const MAX_PHRED: u8 = 93;

impl Phred {
    /// Creates a quality score, clamping to the printable range `0..=93`.
    pub fn new(q: u8) -> Phred {
        Phred(q.min(MAX_PHRED))
    }

    /// Decodes a FASTQ quality character (offset 33).
    ///
    /// Characters below `!` are treated as Q0.
    pub fn from_ascii(c: u8) -> Phred {
        Phred::new(c.saturating_sub(PHRED_ASCII_OFFSET))
    }

    /// The integer quality value.
    pub fn value(self) -> u8 {
        self.0
    }

    /// The FASTQ quality character.
    pub fn to_ascii(self) -> u8 {
        self.0 + PHRED_ASCII_OFFSET
    }

    /// The probability that the base is an error: `10^(-q/10)`.
    pub fn error_prob(self) -> f64 {
        10f64.powf(-f64::from(self.0) / 10.0)
    }

    /// Converts an error probability into the nearest quality score.
    ///
    /// Probabilities `<= 0` map to [`MAX_PHRED`]; probabilities `>= 1` map
    /// to Q0.
    pub fn from_error_prob(p: f64) -> Phred {
        if p <= 0.0 {
            return Phred(MAX_PHRED);
        }
        if p >= 1.0 {
            return Phred(0);
        }
        let q = (-10.0 * p.log10()).round();
        Phred::new(q.clamp(0.0, f64::from(MAX_PHRED)) as u8)
    }
}

impl std::fmt::Display for Phred {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// Decodes a FASTQ quality string into scores.
pub fn decode_quality_string(s: &[u8]) -> Vec<Phred> {
    s.iter().map(|&c| Phred::from_ascii(c)).collect()
}

/// Encodes quality scores into a FASTQ quality string.
pub fn encode_quality_string(qs: &[Phred]) -> Vec<u8> {
    qs.iter().map(|q| q.to_ascii()).collect()
}

impl gb_substrate::Codec for Phred {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        e.put_u8(self.0);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<Phred> {
        let q = d.get_u8()?;
        (q <= MAX_PHRED).then_some(Phred(q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ascii_round_trip() {
        for q in 0..=MAX_PHRED {
            let p = Phred::new(q);
            assert_eq!(Phred::from_ascii(p.to_ascii()), p);
        }
    }

    #[test]
    fn clamps_out_of_range() {
        assert_eq!(Phred::new(200).value(), MAX_PHRED);
        assert_eq!(Phred::from_ascii(b' ').value(), 0);
    }

    #[test]
    fn error_prob_known_values() {
        assert!((Phred::new(10).error_prob() - 0.1).abs() < 1e-12);
        assert!((Phred::new(30).error_prob() - 0.001).abs() < 1e-12);
    }

    #[test]
    fn from_error_prob_inverts() {
        for q in [0u8, 7, 20, 41, 93] {
            assert_eq!(
                Phred::from_error_prob(Phred::new(q).error_prob()).value(),
                q
            );
        }
        assert_eq!(Phred::from_error_prob(0.0).value(), MAX_PHRED);
        assert_eq!(Phred::from_error_prob(2.0).value(), 0);
    }

    #[test]
    fn quality_string_round_trip() {
        let s = b"!5I~";
        let qs = decode_quality_string(s);
        assert_eq!(encode_quality_string(&qs), s);
        assert_eq!(qs[0].value(), 0);
    }
}
