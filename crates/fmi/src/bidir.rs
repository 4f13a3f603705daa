//! Bidirectional FM-index (2BWT) supporting forward and backward pattern
//! extension — the substrate for super-maximal exact match search.
//!
//! BWA-MEM(2) uses an FMD-index over the text plus its reverse complement;
//! the equivalent formulation here indexes the text and its *reverse* with
//! two FM-indexes. A pattern is tracked as a [`BiInterval`]: its
//! suffix-array interval in the forward index together with the interval
//! of the reversed pattern in the reverse index. Both intervals always
//! have the same size, and either end of the pattern can be extended with
//! one `occ_all` lookup.

use crate::index::{FmIndex, SaRange};
use gb_core::seq::DnaSeq;
use gb_uarch::probe::{NullProbe, Probe};

/// A pattern's state in a [`BiIndex`]: `[k, k+s)` is the forward-index
/// interval of the pattern, `[l, l+s)` the reverse-index interval of the
/// reversed pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BiInterval {
    /// Start row in the forward index.
    pub k: u32,
    /// Start row in the reverse index.
    pub l: u32,
    /// Interval size (number of occurrences).
    pub s: u32,
}

impl BiInterval {
    /// Whether the pattern no longer occurs.
    pub fn is_empty(&self) -> bool {
        self.s == 0
    }

    /// The forward-index range.
    pub fn forward_range(&self) -> SaRange {
        SaRange {
            lo: self.k,
            hi: self.k + self.s,
        }
    }
}

/// Two FM-indexes (text and reversed text) enabling bidirectional search.
///
/// # Examples
///
/// ```
/// use gb_core::seq::DnaSeq;
/// use gb_fmi::bidir::BiIndex;
/// let text: DnaSeq = "ACGTACGTGGT".parse()?;
/// let bi = BiIndex::build(&text);
/// let mut iv = bi.init(0); // pattern "A"
/// iv = bi.forward_ext(iv, 1); // pattern "AC"
/// iv = bi.forward_ext(iv, 2); // pattern "ACG"
/// assert_eq!(iv.s, 2);
/// # Ok::<(), gb_core::error::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct BiIndex {
    fwd: FmIndex,
    rev: FmIndex,
    text_len: usize,
}

impl BiIndex {
    /// Builds both component indexes.
    ///
    /// # Panics
    ///
    /// Panics if `text` is empty.
    pub fn build(text: &DnaSeq) -> BiIndex {
        let rev_text: DnaSeq = text.as_codes().iter().rev().copied().collect();
        BiIndex {
            fwd: FmIndex::build(text),
            rev: FmIndex::build(&rev_text),
            text_len: text.len(),
        }
    }

    /// The forward-text index.
    pub fn forward(&self) -> &FmIndex {
        &self.fwd
    }

    /// Combined heap footprint of both indexes.
    pub fn heap_bytes(&self) -> usize {
        self.fwd.heap_bytes() + self.rev.heap_bytes()
    }

    /// The bi-interval of the single-base pattern `c`.
    pub fn init(&self, c: u8) -> BiInterval {
        debug_assert!(c < 4);
        let k = self.fwd.c_of(c);
        let l = self.rev.c_of(c); // identical C tables (same base multiset)
        let hi = if c == 3 {
            self.fwd.len() as u32
        } else {
            self.fwd.c_of(c + 1)
        };
        BiInterval { k, l, s: hi - k }
    }

    /// Extends the pattern on the left with base `c` (pattern becomes
    /// `c · P`).
    pub fn backward_ext(&self, iv: BiInterval, c: u8) -> BiInterval {
        self.backward_ext_probed(iv, c, &mut NullProbe)
    }

    /// [`BiIndex::backward_ext`] with instrumentation.
    pub fn backward_ext_probed<P: Probe>(
        &self,
        iv: BiInterval,
        c: u8,
        probe: &mut P,
    ) -> BiInterval {
        ext(&self.fwd, iv.k, iv.l, iv.s, c, probe)
    }

    /// Extends the pattern on the right with base `c` (pattern becomes
    /// `P · c`).
    pub fn forward_ext(&self, iv: BiInterval, c: u8) -> BiInterval {
        self.forward_ext_probed(iv, c, &mut NullProbe)
    }

    /// [`BiIndex::forward_ext`] with instrumentation.
    pub fn forward_ext_probed<P: Probe>(&self, iv: BiInterval, c: u8, probe: &mut P) -> BiInterval {
        // Symmetric: backward-extend the reversed pattern in the reverse
        // index, swapping the two interval starts.
        let out = ext(&self.rev, iv.l, iv.k, iv.s, c, probe);
        BiInterval {
            k: out.l,
            l: out.k,
            s: out.s,
        }
    }
}

/// Core 2BWT extension on `index`: `a` is the interval start in `index`,
/// `b` the paired start in the other index.
// PANIC-FREE: `c < 4` (debug-asserted) bounds the count arrays, and
// interval arithmetic stays within `0..=n` by the SA-interval invariant.
// xtask: hot
fn ext<P: Probe>(index: &FmIndex, a: u32, b: u32, s: u32, c: u8, probe: &mut P) -> BiInterval {
    debug_assert!(c < 4);
    let (lo_counts, lo_dollar) = index.occ_all_probed(a, probe);
    let (hi_counts, hi_dollar) = index.occ_all_probed(a + s, probe);
    let count_of = |base: usize| hi_counts[base] - lo_counts[base];
    let dollar_in_range = u32::from(hi_dollar && !lo_dollar);
    let mut smaller = dollar_in_range;
    for base in 0..c as usize {
        smaller += count_of(base);
    }
    probe.int_ops(8);
    BiInterval {
        k: index.c_of(c) + lo_counts[c as usize],
        l: b + smaller,
        s: count_of(c as usize),
    }
}

impl gb_substrate::Codec for BiIndex {
    fn encode(&self, e: &mut gb_substrate::Encoder) {
        gb_substrate::Codec::encode(&self.fwd, e);
        gb_substrate::Codec::encode(&self.rev, e);
        e.put_usize(self.text_len);
    }

    fn decode(d: &mut gb_substrate::Decoder) -> Option<BiIndex> {
        Some(BiIndex {
            fwd: gb_substrate::Codec::decode(d)?,
            rev: gb_substrate::Codec::decode(d)?,
            text_len: d.get_usize()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(s: &str) -> DnaSeq {
        s.parse().unwrap()
    }

    fn assert_consistent(bi: &BiIndex, text: &DnaSeq, pat: &DnaSeq, iv: BiInterval) {
        // The forward part must equal a plain backward search of the
        // pattern; the size must equal the occurrence count.
        let direct = bi.forward().search(pat);
        assert_eq!(iv.forward_range(), direct, "pattern {pat}");
        let occ = count_naive(text, pat);
        assert_eq!(iv.s, occ, "pattern {pat}");
    }

    fn count_naive(text: &DnaSeq, pat: &DnaSeq) -> u32 {
        let t = text.as_codes();
        let p = pat.as_codes();
        if p.is_empty() || p.len() > t.len() {
            return 0;
        }
        (0..=t.len() - p.len())
            .filter(|&i| &t[i..i + p.len()] == p)
            .count() as u32
    }

    #[test]
    fn forward_and_backward_agree_with_direct_search() {
        let text = seq("ACGTACGGTTACGTAGGCATTACGGATCCAGTACGT");
        let bi = BiIndex::build(&text);
        // Build "TACG" in all orders of extension.
        // Forward only: T, TA, TAC, TACG.
        let codes = seq("TACG");
        let mut iv = bi.init(codes.code_at(0));
        for i in 1..codes.len() {
            iv = bi.forward_ext(iv, codes.code_at(i));
            assert_consistent(&bi, &text, &codes.slice(0, i + 1), iv);
        }
        // Backward only: G, CG, ACG, TACG.
        let mut iv = bi.init(codes.code_at(3));
        for i in (0..3).rev() {
            iv = bi.backward_ext(iv, codes.code_at(i));
            assert_consistent(&bi, &text, &codes.slice(i, 4), iv);
        }
        // Mixed: start at "C" (index 2), extend right then left.
        let mut iv = bi.init(codes.code_at(2));
        iv = bi.forward_ext(iv, codes.code_at(3)); // "CG"
        iv = bi.backward_ext(iv, codes.code_at(1)); // "ACG"
        iv = bi.backward_ext(iv, codes.code_at(0)); // "TACG"
        assert_consistent(&bi, &text, &codes, iv);
    }

    #[test]
    fn mixed_extensions_on_pseudorandom_text() {
        let codes: Vec<u8> = (0..800usize)
            .map(|i| ((i * 37 + i / 11) % 4) as u8)
            .collect();
        let text = DnaSeq::from_codes_unchecked(codes);
        let bi = BiIndex::build(&text);
        // Take substrings and grow them from the middle outward.
        for start in [3usize, 100, 500] {
            let len = 14;
            let sub = text.slice(start, start + len);
            let mid = len / 2;
            let mut iv = bi.init(sub.code_at(mid));
            let (mut lo, mut hi) = (mid, mid + 1);
            let mut step = 0;
            while lo > 0 || hi < len {
                if step % 2 == 0 && hi < len {
                    iv = bi.forward_ext(iv, sub.code_at(hi));
                    hi += 1;
                } else if lo > 0 {
                    iv = bi.backward_ext(iv, sub.code_at(lo - 1));
                    lo -= 1;
                }
                step += 1;
                assert_consistent(&bi, &text, &sub.slice(lo, hi), iv);
            }
        }
    }

    #[test]
    fn init_covers_each_base() {
        let text = seq("AACCGGTTACGT");
        let bi = BiIndex::build(&text);
        let total: u32 = (0..4u8).map(|c| bi.init(c).s).sum();
        assert_eq!(total as usize, text.len());
        assert_eq!(bi.init(0).s, 3); // three As
    }

    #[test]
    fn vanished_pattern_stays_empty() {
        let text = seq("AAAA");
        let bi = BiIndex::build(&text);
        let iv = bi.init(0);
        let gone = bi.forward_ext(iv, 1); // "AC" absent
        assert!(gone.is_empty());
        let still_gone = bi.backward_ext(gone, 3);
        assert!(still_gone.is_empty());
    }
}
