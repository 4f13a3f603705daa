//! Owned DNA sequences over the 2-bit code alphabet.

use crate::alphabet::{complement_code, decode_code, encode_ascii};
use crate::error::Error;

/// An owned DNA sequence stored as one 2-bit code (`0..=3`) per byte.
///
/// This is the working representation used by every kernel in the suite.
/// The byte-per-base layout (rather than packed 2-bit) matches what
/// BWA-MEM2 / minimap2 use for their inner loops; the packed form lives in
/// [`crate::packed::PackedSeq`] and is used where memory footprint matters
/// (FM-index text, k-mer tables).
///
/// # Examples
///
/// ```
/// use gb_core::seq::DnaSeq;
/// let s: DnaSeq = "ACGT".parse()?;
/// assert_eq!(s.len(), 4);
/// assert_eq!(s.reverse_complement().to_string(), "ACGT");
/// # Ok::<(), gb_core::error::Error>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct DnaSeq {
    codes: Vec<u8>,
}

impl DnaSeq {
    /// Creates an empty sequence.
    pub fn new() -> DnaSeq {
        DnaSeq { codes: Vec::new() }
    }

    /// Creates a sequence from raw 2-bit codes.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidBase`] if any code is `> 3`.
    pub fn from_codes(codes: Vec<u8>) -> Result<DnaSeq, Error> {
        if let Some(pos) = codes.iter().position(|&c| c > 3) {
            return Err(Error::InvalidBase {
                pos,
                byte: codes[pos],
            });
        }
        Ok(DnaSeq { codes })
    }

    /// Creates a sequence from raw 2-bit codes without validating them.
    ///
    /// This is a safe function, but passing codes `> 3` violates the type's
    /// invariant and later operations may panic.
    pub fn from_codes_unchecked(codes: Vec<u8>) -> DnaSeq {
        debug_assert!(codes.iter().all(|&c| c < 4));
        DnaSeq { codes }
    }

    /// Parses an ASCII nucleotide string (case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidBase`] on the first non-`ACGT` byte.
    pub fn from_ascii(ascii: &[u8]) -> Result<DnaSeq, Error> {
        let mut codes = Vec::with_capacity(ascii.len());
        for (pos, &b) in ascii.iter().enumerate() {
            match encode_ascii(b) {
                Some(c) => codes.push(c),
                None => return Err(Error::InvalidBase { pos, byte: b }),
            }
        }
        Ok(DnaSeq { codes })
    }

    /// The number of bases.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the sequence contains no bases.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The 2-bit codes as a slice.
    pub fn as_codes(&self) -> &[u8] {
        &self.codes
    }

    /// Consumes the sequence and returns the underlying code vector.
    pub fn into_codes(self) -> Vec<u8> {
        self.codes
    }

    /// The code at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    // PANIC-FREE: documented `# Panics` bound-check via the slice index;
    // kernel callers index in `0..len()`.
    pub fn code_at(&self, i: usize) -> u8 {
        self.codes[i]
    }

    /// Appends a single code.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `code > 3`.
    pub fn push_code(&mut self, code: u8) {
        debug_assert!(code < 4);
        self.codes.push(code);
    }

    /// A sub-sequence covering `range` (clamped to the sequence length).
    pub fn slice(&self, start: usize, end: usize) -> DnaSeq {
        let end = end.min(self.codes.len());
        let start = start.min(end);
        DnaSeq {
            codes: self.codes[start..end].to_vec(),
        }
    }

    /// The reverse complement of this sequence.
    pub fn reverse_complement(&self) -> DnaSeq {
        DnaSeq {
            codes: self
                .codes
                .iter()
                .rev()
                .map(|&c| complement_code(c))
                .collect(),
        }
    }

    /// ASCII rendering of the sequence (uppercase).
    pub fn to_ascii(&self) -> Vec<u8> {
        self.codes.iter().map(|&c| decode_code(c)).collect()
    }

    /// Iterates over the packed `u64` value of each `k`-mer, 5'→3'.
    ///
    /// Yields `(offset, kmer)` pairs. Returns an empty iterator when
    /// `k == 0`, `k > 32`, or the sequence is shorter than `k`.
    pub fn kmers(&self, k: usize) -> Kmers<'_> {
        Kmers {
            codes: &self.codes,
            k,
            pos: 0,
            cur: 0,
        }
    }

    /// Iterates over the *canonical* form of each `k`-mer, 5'→3': exactly
    /// [`DnaSeq::kmers`] mapped through [`canonical_kmer`], but in O(1) per
    /// k-mer — the forward and the reverse-complement word are rolled
    /// together, one base in at the bottom of the one and at the top of the
    /// other.
    ///
    /// Yields `(offset, canonical_kmer)` pairs; empty when `k == 0`,
    /// `k > 32`, or the sequence is shorter than `k`.
    ///
    /// # Examples
    ///
    /// ```
    /// use gb_core::seq::{canonical_kmer, DnaSeq};
    /// let s: DnaSeq = "GTTTACG".parse()?;
    /// let rolled: Vec<(usize, u64)> = s.canonical_kmers(4).collect();
    /// let mapped: Vec<(usize, u64)> =
    ///     s.kmers(4).map(|(i, km)| (i, canonical_kmer(km, 4))).collect();
    /// assert_eq!(rolled, mapped);
    /// # Ok::<(), gb_core::error::Error>(())
    /// ```
    // PANIC-FREE: the split index is `k - 1 < k <= len`, or 0 on the empty
    // slice an out-of-range `k` is replaced with.
    pub fn canonical_kmers(&self, k: usize) -> CanonicalKmers<'_> {
        // An out-of-range `k` degenerates to 1-mers of the empty sequence.
        let (k, codes) = if (1..=32).contains(&k) && self.codes.len() >= k {
            (k, &self.codes[..])
        } else {
            (1, &[][..])
        };
        let (head, rest) = codes.split_at(k - 1);
        let mut it = CanonicalKmers {
            rest: rest.iter(),
            pos: 0,
            fwd: 0,
            rev: 0,
            mask: u64::MAX >> (64 - 2 * k),
            top: 2 * (k as u32 - 1),
        };
        // Prime both words with the first k-1 bases.
        for &c in head {
            it.roll(c);
        }
        it
    }
}

impl std::str::FromStr for DnaSeq {
    type Err = Error;

    fn from_str(s: &str) -> Result<DnaSeq, Error> {
        DnaSeq::from_ascii(s.as_bytes())
    }
}

impl std::fmt::Display for DnaSeq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for &c in &self.codes {
            write!(f, "{}", decode_code(c) as char)?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for DnaSeq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DnaSeq(\"{self}\")")
    }
}

impl FromIterator<u8> for DnaSeq {
    /// Collects 2-bit codes into a sequence.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if any code is `> 3`.
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> DnaSeq {
        let codes: Vec<u8> = iter.into_iter().collect();
        DnaSeq::from_codes_unchecked(codes)
    }
}

impl Extend<u8> for DnaSeq {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        for c in iter {
            self.push_code(c);
        }
    }
}

/// Iterator over packed `u64` k-mers of a sequence; see [`DnaSeq::kmers`].
#[derive(Debug, Clone)]
pub struct Kmers<'a> {
    codes: &'a [u8],
    k: usize,
    pos: usize,
    cur: u64,
}

impl<'a> Iterator for Kmers<'a> {
    type Item = (usize, u64);

    fn next(&mut self) -> Option<(usize, u64)> {
        if self.k == 0 || self.k > 32 || self.codes.len() < self.k {
            return None;
        }
        if self.pos == 0 {
            // Prime the rolling value with the first k-1 bases.
            for &c in &self.codes[..self.k - 1] {
                self.cur = (self.cur << 2) | u64::from(c);
            }
        }
        let i = self.pos;
        if i + self.k > self.codes.len() {
            return None;
        }
        let mask = if self.k == 32 {
            u64::MAX
        } else {
            (1u64 << (2 * self.k)) - 1
        };
        self.cur = ((self.cur << 2) | u64::from(self.codes[i + self.k - 1])) & mask;
        self.pos += 1;
        Some((i, self.cur))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.k == 0 || self.k > 32 || self.codes.len() < self.k {
            return (0, Some(0));
        }
        let n = self.codes.len() - self.k + 1 - self.pos;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Kmers<'_> {}

/// Iterator over the canonical packed k-mers of a sequence; see
/// [`DnaSeq::canonical_kmers`].
#[derive(Debug, Clone)]
pub struct CanonicalKmers<'a> {
    /// Bases not yet shifted in.
    rest: std::slice::Iter<'a, u8>,
    pos: usize,
    fwd: u64,
    rev: u64,
    mask: u64,
    /// Bit offset of the most significant base, `2 * (k - 1)`.
    top: u32,
}

impl CanonicalKmers<'_> {
    /// Shifts base `c` in: at the bottom of the forward word, and its
    /// complement at the top of the reverse-complement word.
    #[inline]
    fn roll(&mut self, c: u8) {
        let c = u64::from(c);
        self.fwd = ((self.fwd << 2) | c) & self.mask;
        self.rev = (self.rev >> 2) | ((3 - c) << self.top);
    }
}

impl Iterator for CanonicalKmers<'_> {
    type Item = (usize, u64);

    #[inline]
    fn next(&mut self) -> Option<(usize, u64)> {
        let &c = self.rest.next()?;
        self.roll(c);
        let i = self.pos;
        self.pos += 1;
        Some((i, self.fwd.min(self.rev)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.rest.size_hint()
    }
}

impl ExactSizeIterator for CanonicalKmers<'_> {}

/// Packs up to 32 codes into a `u64`, first base in the most significant
/// position (lexicographic order of k-mers equals numeric order).
///
/// # Panics
///
/// Panics if `codes.len() > 32`.
pub fn pack_kmer(codes: &[u8]) -> u64 {
    assert!(codes.len() <= 32, "k-mer longer than 32 bases");
    let mut v = 0u64;
    for &c in codes {
        debug_assert!(c < 4);
        v = (v << 2) | u64::from(c);
    }
    v
}

/// Unpacks a `u64` produced by [`pack_kmer`] back into `k` codes.
// PANIC-FREE: `k <= 32` is the packed-kmer representation invariant, fixed
// at kernel-config time (never data-dependent).
pub fn unpack_kmer(kmer: u64, k: usize) -> Vec<u8> {
    assert!(k <= 32);
    (0..k)
        .map(|i| ((kmer >> (2 * (k - 1 - i))) & 3) as u8)
        .collect()
}

/// The reverse complement of a packed `k`-mer.
// PANIC-FREE: `k` bound is the packed-kmer representation invariant, fixed
// at kernel-config time (never data-dependent).
pub fn revcomp_kmer(kmer: u64, k: usize) -> u64 {
    assert!(k <= 32 && k > 0);
    // Complementing a 2-bit code is `3 - c == !c`. `reverse_bits` reverses
    // the base order but also the two bits inside each base, so swap those
    // back; the k bases then sit at the top of the word.
    const LOW_BITS: u64 = 0x5555_5555_5555_5555;
    let r = (!kmer).reverse_bits();
    let r = ((r >> 1) & LOW_BITS) | ((r & LOW_BITS) << 1);
    r >> (64 - 2 * k)
}

/// The canonical form of a packed k-mer: the smaller of the k-mer and its
/// reverse complement. Used by k-mer counting so both strands collapse to
/// one key.
pub fn canonical_kmer(kmer: u64, k: usize) -> u64 {
    kmer.min(revcomp_kmer(kmer, k))
}

impl gb_substrate::Codec for DnaSeq {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        e.put_bytes(&self.codes);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<DnaSeq> {
        let codes = d.get_bytes()?;
        if codes.iter().any(|&c| c > 3) {
            return None;
        }
        Some(DnaSeq {
            codes: codes.to_vec(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn parse_and_display() {
        let s: DnaSeq = "acgtACGT".parse().unwrap();
        assert_eq!(s.to_string(), "ACGTACGT");
        assert_eq!(s.len(), 8);
    }

    #[test]
    fn parse_rejects_ambiguity() {
        let err = "ACGN".parse::<DnaSeq>().unwrap_err();
        match err {
            Error::InvalidBase { pos, byte } => {
                assert_eq!(pos, 3);
                assert_eq!(byte, b'N');
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn reverse_complement_known() {
        let s: DnaSeq = "AACGT".parse().unwrap();
        assert_eq!(s.reverse_complement().to_string(), "ACGTT");
    }

    #[test]
    fn reverse_complement_is_involution() {
        let s: DnaSeq = "ACGGTTAACCGG".parse().unwrap();
        assert_eq!(s.reverse_complement().reverse_complement(), s);
    }

    #[test]
    fn slice_clamps() {
        let s: DnaSeq = "ACGT".parse().unwrap();
        assert_eq!(s.slice(1, 100).to_string(), "CGT");
        assert_eq!(s.slice(3, 2).to_string(), "");
    }

    #[test]
    fn kmers_roll_correctly() {
        let s: DnaSeq = "ACGTA".parse().unwrap();
        let got: Vec<(usize, u64)> = s.kmers(3).collect();
        let want: Vec<(usize, u64)> = vec![
            (0, pack_kmer(&[0, 1, 2])),
            (1, pack_kmer(&[1, 2, 3])),
            (2, pack_kmer(&[2, 3, 0])),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn kmers_degenerate_cases() {
        let s: DnaSeq = "ACG".parse().unwrap();
        assert_eq!(s.kmers(0).count(), 0);
        assert_eq!(s.kmers(4).count(), 0);
        assert_eq!(s.kmers(33).count(), 0);
        assert_eq!(s.kmers(3).count(), 1);
    }

    #[test]
    fn kmers_k32_masking() {
        let codes = vec![3u8; 40];
        let s = DnaSeq::from_codes(codes).unwrap();
        // All-T 32-mer is u64::MAX; rolling must not overflow into garbage.
        for (_, km) in s.kmers(32) {
            assert_eq!(km, u64::MAX);
        }
        assert_eq!(s.kmers(32).count(), 9);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let codes = vec![0u8, 1, 2, 3, 3, 2, 1, 0];
        assert_eq!(unpack_kmer(pack_kmer(&codes), codes.len()), codes);
    }

    #[test]
    fn revcomp_kmer_matches_seq_revcomp() {
        let s: DnaSeq = "ACGTTGCA".parse().unwrap();
        let packed = pack_kmer(s.as_codes());
        let rc = s.reverse_complement();
        assert_eq!(revcomp_kmer(packed, s.len()), pack_kmer(rc.as_codes()));
    }

    #[test]
    fn revcomp_kmer_matches_the_per_base_loop() {
        fn by_loop(kmer: u64, k: usize) -> u64 {
            let mut out = 0u64;
            let mut v = kmer;
            for _ in 0..k {
                out = (out << 2) | (3 - (v & 3));
                v >>= 2;
            }
            out
        }
        let mut rng = Rng::seed_from_u64(17);
        for k in 1..=32usize {
            for _ in 0..200 {
                // Bits above 2k are garbage on purpose: both ignore them.
                let word = rng.next_u64();
                assert_eq!(
                    revcomp_kmer(word, k),
                    by_loop(word, k),
                    "k={k} word={word:#x}"
                );
            }
            let all_t = u64::MAX >> (64 - 2 * k);
            assert_eq!(revcomp_kmer(all_t, k), 0);
            assert_eq!(revcomp_kmer(0, k), all_t);
        }
    }

    #[test]
    fn canonical_kmers_equal_kmers_mapped_through_canonical_kmer() {
        let mut rng = Rng::seed_from_u64(5);
        for k in [1usize, 2, 15, 17, 31, 32] {
            // Shorter than k, exactly k, and long enough to roll many times.
            for len in [0, k - 1, k, k + 1, 3 * k + 7, 300] {
                let s: DnaSeq = (0..len).map(|_| rng.gen_range(0..4u8)).collect();
                let want: Vec<(usize, u64)> = s
                    .kmers(k)
                    .map(|(i, km)| (i, canonical_kmer(km, k)))
                    .collect();
                let it = s.canonical_kmers(k);
                assert_eq!(it.len(), want.len(), "k={k} len={len}");
                assert_eq!(it.collect::<Vec<_>>(), want, "k={k} len={len}");
            }
        }
        let s: DnaSeq = "ACGT".parse().unwrap();
        assert_eq!(s.canonical_kmers(0).count(), 0);
        assert_eq!(s.canonical_kmers(33).count(), 0);
    }

    #[test]
    fn canonical_is_min_of_pair() {
        let s: DnaSeq = "AAAC".parse().unwrap();
        let km = pack_kmer(s.as_codes());
        assert_eq!(canonical_kmer(km, 4), km); // AAAC < GTTT
        let t: DnaSeq = "GTTT".parse().unwrap();
        assert_eq!(canonical_kmer(pack_kmer(t.as_codes()), 4), km);
    }

    #[test]
    fn from_codes_validates() {
        assert!(DnaSeq::from_codes(vec![0, 1, 4]).is_err());
        assert!(DnaSeq::from_codes(vec![0, 1, 3]).is_ok());
    }
}
