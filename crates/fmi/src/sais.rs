//! Linear-time suffix array construction (SA-IS).
//!
//! The FM-index is built from the suffix array of the reference. BWA-MEM2
//! constructs it with a linear-time algorithm; this module implements
//! SA-IS (Nong, Zhang & Chan, 2009) — induced sorting of LMS substrings
//! with recursion on the reduced problem.

/// Computes the suffix array of `text` (2-bit base codes `0..=3`).
///
/// A unique sentinel smaller than every base is appended internally; the
/// returned array has length `text.len() + 1` and its first entry is
/// always `text.len()` (the sentinel suffix).
///
/// # Examples
///
/// ```
/// use gb_fmi::sais::suffix_array;
/// // banana-like: "ACAACA" -> suffixes sorted
/// let sa = suffix_array(&[0, 1, 0, 0, 1, 0]);
/// assert_eq!(sa[0], 6); // sentinel
/// // Property: suffixes are in sorted order.
/// ```
///
/// # Panics
///
/// Panics if any code is `> 3`.
pub fn suffix_array(text: &[u8]) -> Vec<u32> {
    assert!(text.iter().all(|&c| c < 4), "codes must be 2-bit bases");
    // Shift codes by +1 so 0 is the unique sentinel.
    let mut s: Vec<u32> = Vec::with_capacity(text.len() + 1);
    s.extend(text.iter().map(|&c| u32::from(c) + 1));
    s.push(0);
    sais(&s, 5)
}

/// SA-IS over an integer string `s` that ends with a unique `0` sentinel,
/// with alphabet size `k` (symbols are `0..k`).
fn sais(s: &[u32], k: usize) -> Vec<u32> {
    let n = s.len();
    debug_assert!(n >= 1 && s[n - 1] == 0, "input must end with the sentinel");
    if n == 1 {
        return vec![0];
    }
    if n == 2 {
        return vec![1, 0];
    }

    // 1. Classify suffixes: S-type (true) or L-type (false).
    let mut is_s = vec![false; n];
    is_s[n - 1] = true;
    for i in (0..n - 1).rev() {
        is_s[i] = s[i] < s[i + 1] || (s[i] == s[i + 1] && is_s[i + 1]);
    }
    let is_lms = |i: usize| i > 0 && is_s[i] && !is_s[i - 1];

    // Bucket sizes per symbol.
    let mut bucket = vec![0u32; k];
    for &c in s {
        bucket[c as usize] += 1;
    }
    let bucket_heads = |bucket: &[u32]| -> Vec<u32> {
        let mut heads = vec![0u32; k];
        let mut sum = 0;
        for c in 0..k {
            heads[c] = sum;
            sum += bucket[c];
        }
        heads
    };
    let bucket_tails = |bucket: &[u32]| -> Vec<u32> {
        let mut tails = vec![0u32; k];
        let mut sum = 0;
        for c in 0..k {
            sum += bucket[c];
            tails[c] = sum;
        }
        tails
    };

    const EMPTY: u32 = u32::MAX;

    // Induced sort given the LMS positions in `lms_order` (sorted order of
    // LMS suffixes, or any order on the first pass).
    let induce = |lms_order: &[u32]| -> Vec<u32> {
        let mut sa = vec![EMPTY; n];
        // a) Place LMS suffixes at bucket tails in reverse order.
        let mut tails = bucket_tails(&bucket);
        for &p in lms_order.iter().rev() {
            let c = s[p as usize] as usize;
            tails[c] -= 1;
            sa[tails[c] as usize] = p;
        }
        // b) Induce L-type from left to right.
        let mut heads = bucket_heads(&bucket);
        for i in 0..n {
            let p = sa[i];
            if p != EMPTY && p > 0 {
                let j = (p - 1) as usize;
                if !is_s[j] {
                    let c = s[j] as usize;
                    sa[heads[c] as usize] = p - 1;
                    heads[c] += 1;
                }
            }
        }
        // c) Induce S-type from right to left (overwrites the provisional
        // LMS placements with their final positions).
        let mut tails = bucket_tails(&bucket);
        for i in (0..n).rev() {
            let p = sa[i];
            if p != EMPTY && p > 0 {
                let j = (p - 1) as usize;
                if is_s[j] {
                    let c = s[j] as usize;
                    tails[c] -= 1;
                    sa[tails[c] as usize] = p - 1;
                }
            }
        }
        sa
    };

    // 2. First pass: approximate sort of LMS substrings.
    let lms_positions: Vec<u32> = (0..n).filter(|&i| is_lms(i)).map(|i| i as u32).collect();
    let sa0 = induce(&lms_positions);

    // 3. Extract LMS suffixes in induced order and name LMS substrings.
    let lms_in_order: Vec<u32> = sa0
        .iter()
        .copied()
        .filter(|&p| is_lms(p as usize))
        .collect();
    let mut names = vec![EMPTY; n];
    let mut name: u32 = 0;
    let mut prev: Option<u32> = None;
    for &p in &lms_in_order {
        if let Some(q) = prev {
            if !lms_substr_eq(s, &is_s, q as usize, p as usize) {
                name += 1;
            }
        }
        names[p as usize] = name;
        prev = Some(p);
    }
    let num_names = name + 1;

    // 4. Sort the LMS suffixes: recurse if names collide.
    let sorted_lms: Vec<u32> = if num_names as usize == lms_positions.len() {
        // All distinct: induced order is already the sorted order.
        lms_in_order
    } else {
        // Build the reduced string (names in text order) and recurse.
        let reduced: Vec<u32> = lms_positions.iter().map(|&p| names[p as usize]).collect();
        let sub_sa = sais(&reduced, num_names as usize);
        sub_sa.iter().map(|&r| lms_positions[r as usize]).collect()
    };

    // 5. Final induced sort from the fully sorted LMS suffixes.
    induce(&sorted_lms)
}

/// Compares the LMS substrings starting at `a` and `b` for equality.
fn lms_substr_eq(s: &[u32], is_s: &[bool], a: usize, b: usize) -> bool {
    let n = s.len();
    let is_lms = |i: usize| i > 0 && is_s[i] && !is_s[i - 1];
    if a == b {
        return true;
    }
    let mut i = 0;
    loop {
        let ai = a + i;
        let bi = b + i;
        if ai >= n || bi >= n {
            return false;
        }
        let a_lms = i > 0 && is_lms(ai);
        let b_lms = i > 0 && is_lms(bi);
        if a_lms && b_lms {
            return true;
        }
        if a_lms != b_lms || s[ai] != s[bi] {
            return false;
        }
        i += 1;
    }
}

/// Reference O(n² log n) construction for testing.
pub fn naive_suffix_array(text: &[u8]) -> Vec<u32> {
    let n = text.len();
    let mut idx: Vec<u32> = (0..=n as u32).collect();
    // Slice comparison orders a proper prefix before its extensions, which
    // matches sentinel-terminated suffix ordering (the sentinel is smaller
    // than every base).
    idx.sort_by(|&a, &b| text[a as usize..].cmp(&text[b as usize..]));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use gb_core::rng::Rng;

    fn check(text: &[u8]) {
        assert_eq!(
            suffix_array(text),
            naive_suffix_array(text),
            "text = {text:?}"
        );
    }

    #[test]
    fn empty_and_tiny() {
        check(&[]);
        check(&[0]);
        check(&[3]);
        check(&[0, 0]);
        check(&[1, 0]);
        check(&[0, 1]);
    }

    #[test]
    fn known_small_cases() {
        check(&[0, 1, 0, 0, 1, 0]); // ACAACA
        check(&[3, 2, 1, 0]); // TGCA
        check(&[0, 0, 0, 0, 0]); // AAAAA
        check(&[1, 3, 1, 3, 1, 3]); // CTCTCT
        check(&[2, 0, 3, 3, 0, 2, 0, 3, 3, 0]);
    }

    #[test]
    fn repetitive_structures() {
        // Fibonacci-like string over {A, C}: worst case for naive sorts.
        let mut s = vec![0u8];
        let mut t = vec![0u8, 1];
        for _ in 0..10 {
            let next = [t.clone(), s.clone()].concat();
            s = t;
            t = next;
        }
        check(&t);
    }

    #[test]
    fn pseudo_random_matches_naive() {
        let mut rng = Rng::seed_from_u64(99);
        for len in [10usize, 37, 100, 257, 1000] {
            let text: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4u8)).collect();
            check(&text);
        }
    }

    #[test]
    fn sa_is_a_permutation() {
        let text: Vec<u8> = (0..5000).map(|i| ((i * 31 + i / 7) % 4) as u8).collect();
        let sa = suffix_array(&text);
        assert_eq!(sa.len(), text.len() + 1);
        assert_eq!(sa[0] as usize, text.len());
        let mut seen = vec![false; sa.len()];
        for &p in &sa {
            assert!(!seen[p as usize], "duplicate {p}");
            seen[p as usize] = true;
        }
    }

    #[test]
    #[should_panic(expected = "2-bit")]
    fn rejects_invalid_codes() {
        let _ = suffix_array(&[0, 4]);
    }
}
