//! Inexact (bounded-mismatch) backward search.
//!
//! The paper motivates the FM-index partly by its "support for inexact
//! matching (identifying seeds with a small number of edits)". This
//! module implements the classic bounded backtracking search (BWA's
//! original algorithm): backward search that may substitute up to `k`
//! bases, enumerating all suffix-array ranges reachable within the
//! mismatch budget.

use crate::index::{FmIndex, SaRange};
use gb_core::seq::DnaSeq;
use gb_uarch::probe::{NullProbe, Probe};

/// One inexact hit: a suffix-array range and its mismatch count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InexactHit {
    /// Matching suffix-array rows.
    pub range: SaRange,
    /// Substitutions used relative to the pattern.
    pub mismatches: u32,
}

/// Finds every suffix-array range matching `pattern` with at most
/// `max_mismatches` substitutions, fewest-mismatch hits first.
///
/// Ranges are deduplicated: the same range reachable through different
/// substitution choices is reported once at its minimum mismatch count.
///
/// # Examples
///
/// ```
/// use gb_core::seq::DnaSeq;
/// use gb_fmi::{index::FmIndex, inexact::inexact_search};
/// let text: DnaSeq = "ACGTACGTGGTACA".parse()?;
/// let idx = FmIndex::build(&text);
/// // "ACGA" does not occur exactly, but matches "ACGT" with 1 mismatch.
/// let hits = inexact_search(&idx, &"ACGA".parse()?, 1);
/// assert!(hits.iter().all(|h| h.mismatches <= 1));
/// assert!(!hits.is_empty());
/// # Ok::<(), gb_core::error::Error>(())
/// ```
pub fn inexact_search(index: &FmIndex, pattern: &DnaSeq, max_mismatches: u32) -> Vec<InexactHit> {
    inexact_search_probed(index, pattern, max_mismatches, &mut NullProbe)
}

/// [`inexact_search`] with instrumentation.
pub fn inexact_search_probed<P: Probe>(
    index: &FmIndex,
    pattern: &DnaSeq,
    max_mismatches: u32,
    probe: &mut P,
) -> Vec<InexactHit> {
    let mut hits: Vec<InexactHit> = Vec::new();
    let p = pattern.as_codes();
    if p.is_empty() {
        return vec![InexactHit {
            range: index.full_range(),
            mismatches: 0,
        }];
    }
    // Depth-first backtracking from the pattern's end.
    let mut stack: Vec<(usize, SaRange, u32)> = vec![(p.len(), index.full_range(), 0)];
    while let Some((i, range, mm)) = stack.pop() {
        if range.is_empty() {
            continue;
        }
        if i == 0 {
            hits.push(InexactHit {
                range,
                mismatches: mm,
            });
            continue;
        }
        let want = p[i - 1];
        for c in 0..4u8 {
            let cost = u32::from(c != want);
            if mm + cost > max_mismatches {
                probe.branch(false);
                continue;
            }
            probe.branch(true);
            let next = index.backward_ext_probed(range, c, probe);
            if !next.is_empty() {
                stack.push((i - 1, next, mm + cost));
            }
        }
    }
    // Deduplicate ranges, keeping the lowest mismatch count.
    hits.sort_by_key(|h| (h.range.lo, h.range.hi, h.mismatches));
    hits.dedup_by_key(|h| h.range);
    hits.sort_by_key(|h| (h.mismatches, h.range.lo));
    hits
}

/// Text positions of every inexact occurrence, sorted, with their
/// mismatch counts (minimum over alignments at that position).
pub fn inexact_locate_all(
    index: &FmIndex,
    pattern: &DnaSeq,
    max_mismatches: u32,
) -> Vec<(u32, u32)> {
    let mut out: Vec<(u32, u32)> = Vec::new();
    for hit in inexact_search(index, pattern, max_mismatches) {
        for row in hit.range.lo..hit.range.hi {
            out.push((index.locate(row), hit.mismatches));
        }
    }
    out.sort_unstable();
    out.dedup_by_key(|e| e.0);
    out
}

/// Brute-force reference: Hamming-match `pattern` at every text offset.
pub fn naive_inexact(text: &DnaSeq, pattern: &DnaSeq, max_mismatches: u32) -> Vec<(u32, u32)> {
    let t = text.as_codes();
    let p = pattern.as_codes();
    if p.is_empty() || p.len() > t.len() {
        return Vec::new();
    }
    (0..=t.len() - p.len())
        .filter_map(|i| {
            let mm = p.iter().zip(&t[i..]).filter(|(a, b)| a != b).count() as u32;
            (mm <= max_mismatches).then_some((i as u32, mm))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_core::rng::Rng;

    fn pseudo_text(n: usize, seed: u64) -> DnaSeq {
        let mut rng = Rng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0..4u8)).collect()
    }

    #[test]
    fn zero_mismatch_equals_exact_search() {
        let text = pseudo_text(500, 1);
        let idx = FmIndex::build(&text);
        let pat = text.slice(100, 115);
        let inexact = inexact_locate_all(&idx, &pat, 0);
        let exact = idx.locate_all(&pat);
        assert_eq!(inexact.iter().map(|&(p, _)| p).collect::<Vec<_>>(), exact);
        assert!(inexact.iter().all(|&(_, mm)| mm == 0));
    }

    #[test]
    fn matches_naive_hamming_search() {
        let text = pseudo_text(800, 3);
        let idx = FmIndex::build(&text);
        for (start, k) in [(50usize, 1u32), (200, 2), (431, 1), (700, 2)] {
            let mut codes = text.slice(start, start + 14).into_codes();
            codes[4] = (codes[4] + 1) % 4; // plant one mismatch
            let pat = DnaSeq::from_codes_unchecked(codes);
            let got = inexact_locate_all(&idx, &pat, k);
            let want = naive_inexact(&text, &pat, k);
            assert_eq!(got, want, "start {start} k {k}");
            assert!(
                got.iter().any(|&(p, _)| p == start as u32),
                "planted site found"
            );
        }
    }

    #[test]
    fn mismatch_budget_is_respected() {
        let text = pseudo_text(400, 5);
        let idx = FmIndex::build(&text);
        let mut codes = text.slice(60, 76).into_codes();
        codes[3] = (codes[3] + 1) % 4;
        codes[9] = (codes[9] + 2) % 4;
        let pat = DnaSeq::from_codes_unchecked(codes);
        // Two planted mismatches: absent at k=1, present at k=2.
        let k1: Vec<u32> = inexact_locate_all(&idx, &pat, 1)
            .iter()
            .map(|&(p, _)| p)
            .collect();
        let k2: Vec<u32> = inexact_locate_all(&idx, &pat, 2)
            .iter()
            .map(|&(p, _)| p)
            .collect();
        assert!(!k1.contains(&60));
        assert!(k2.contains(&60));
    }

    #[test]
    fn hits_sorted_by_mismatches() {
        let text = pseudo_text(600, 7);
        let idx = FmIndex::build(&text);
        let pat = text.slice(10, 22);
        let hits = inexact_search(&idx, &pat, 2);
        assert!(hits.windows(2).all(|w| w[0].mismatches <= w[1].mismatches));
        assert_eq!(hits[0].mismatches, 0);
    }

    #[test]
    fn empty_pattern_matches_everything() {
        let text = pseudo_text(50, 9);
        let idx = FmIndex::build(&text);
        let hits = inexact_search(&idx, &DnaSeq::new(), 1);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].range.len() as usize, idx.len());
    }
}
