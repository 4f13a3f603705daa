//! The suite's one seeded generator. Every input is seeded synthetic data,
//! so this stream *is* the dataset: the outputs for a seed are a contract
//! that holds across hosts, toolchains and releases (pinned by the tests
//! below and by `gb-suite`'s golden checksum tables).
//!
//! SplitMix64 (Steele, Lea & Flood 2014). Method names follow `rand` 0.8,
//! which the call sites were written against.
//!
//! ```
//! use gb_core::rng::Rng;
//! let mut rng = Rng::seed_from_u64(7);
//! let len = rng.gen_range(60..=400usize);
//! let p: f64 = rng.gen();
//! assert!((60..=400).contains(&len) && (0.0..1.0).contains(&p));
//! ```

use std::ops::{Range, RangeInclusive};

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The SplitMix64 output for state `x`: a bijective mix of `x`, usable on
/// its own as a hash of an index.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(GOLDEN);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded generator whose stream is a function of the seed only.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// The generator for `seed`.
    pub fn seed_from_u64(seed: u64) -> Rng {
        Rng {
            state: seed.wrapping_add(GOLDEN),
        }
    }

    /// The next 64 bits of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let z = splitmix64(self.state);
        self.state = self.state.wrapping_add(GOLDEN);
        z
    }

    /// The high half of the next 64 bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A value uniform over the type: all values of an integer, either
    /// `bool`, `[0, 1)` for a float.
    #[inline]
    pub fn gen<T: Standard>(&mut self) -> T {
        T::standard(self)
    }

    /// A value uniform in `low..high` or `low..=high`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    // PANIC-FREE: an empty range is a bug in the caller, not a property
    // of the data.
    #[inline]
    pub fn gen_range<T: Uniform>(&mut self, range: impl SampleRange<T>) -> T {
        let (low, high, inclusive) = range.bounds();
        assert!(
            if inclusive { low <= high } else { low < high },
            "gen_range: empty range"
        );
        T::between(self, low, high, inclusive)
    }
}

/// Types [`Rng::gen`] draws.
pub trait Standard {
    /// One value; see [`Rng::gen`].
    fn standard(rng: &mut Rng) -> Self;
}

/// Types [`Rng::gen_range`] draws.
pub trait Uniform: PartialOrd + Sized {
    /// One value in `[low, high)`, or `[low, high]` when `inclusive`; the
    /// range is not empty.
    fn between(rng: &mut Rng, low: Self, high: Self, inclusive: bool) -> Self;
}

/// The two range shapes [`Rng::gen_range`] accepts.
pub trait SampleRange<T> {
    /// `(low, high, high is included)`.
    fn bounds(self) -> (T, T, bool);
}

impl<T> SampleRange<T> for Range<T> {
    fn bounds(self) -> (T, T, bool) {
        (self.start, self.end, false)
    }
}

impl<T> SampleRange<T> for RangeInclusive<T> {
    fn bounds(self) -> (T, T, bool) {
        let (low, high) = self.into_inner();
        (low, high, true)
    }
}

impl Standard for bool {
    #[inline]
    fn standard(rng: &mut Rng) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

macro_rules! integers {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            #[inline]
            fn standard(rng: &mut Rng) -> $t {
                rng.next_u64() as $t
            }
        }

        impl Uniform for $t {
            #[inline]
            fn between(rng: &mut Rng, low: $t, high: $t, inclusive: bool) -> $t {
                // The span is at most 2^64, so the multiply-shift maps 64
                // random bits onto `0..span` without overflowing u128.
                let span = (high as i128 - low as i128) as u128 + inclusive as u128;
                let offset = (rng.next_u64() as u128 * span) >> 64;
                (low as i128 + offset as i128) as $t
            }
        }
    )*};
}

integers!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! floats {
    ($($t:ty: $unit:ident),*) => {$(
        impl Standard for $t {
            #[inline]
            fn standard(rng: &mut Rng) -> $t {
                $unit(rng)
            }
        }

        impl Uniform for $t {
            #[inline]
            fn between(rng: &mut Rng, low: $t, high: $t, inclusive: bool) -> $t {
                let v = low + (high - low) * $unit(rng);
                // The sum can round up to `high`; a half-open range
                // excludes it.
                if !inclusive && v >= high {
                    high.next_down()
                } else {
                    v
                }
            }
        }
    )*};
}

/// Uniform in `[0, 1)`: the top 53 bits of a draw.
#[inline]
fn unit_f64(rng: &mut Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Uniform in `[0, 1)`: the top 24 bits of a 32-bit draw.
#[inline]
fn unit_f32(rng: &mut Rng) -> f32 {
    (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
}

floats!(f64: unit_f64, f32: unit_f32);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_is_pinned() {
        let first_eight = |seed: u64| -> Vec<u64> {
            let mut rng = Rng::seed_from_u64(seed);
            (0..8).map(|_| rng.next_u64()).collect()
        };
        assert_eq!(
            first_eight(0),
            [
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f,
                0xf88b_b8a8_724c_81ec,
                0x1b39_896a_51a8_749b,
                0x53cb_9f0c_747e_a2ea,
                0x2c82_9abe_1f45_32e1,
                0xc584_133a_c916_ab3c,
                0x3ee5_7890_41c9_8ac3,
            ]
        );
        assert_eq!(
            first_eight(1),
            [
                0xbeeb_8da1_658e_ec67,
                0xf893_a2ee_fb32_555e,
                0x71c1_8690_ee42_c90b,
                0x71bb_54d8_d101_b5b9,
                0xc34d_0bff_9015_0280,
                0xe099_ec6c_d736_3ca5,
                0x85e7_bb0f_1227_8575,
                0x4917_18de_357e_3da8,
            ]
        );
        assert_eq!(
            first_eight(u64::MAX),
            [
                0xe99f_f867_dbf6_82c9,
                0x382f_f84c_b272_81e9,
                0x6d1d_b36c_cba9_82d2,
                0xb4a0_472e_5780_69ae,
                0xd31d_adbd_a438_bb33,
                0xf14f_2cf8_0208_3fa5,
                0x405d_a438_a39e_8064,
                0xc4fe_a708_156e_0c84,
            ]
        );
    }

    /// One draw of every shape the suite calls, 100 000 times over, folded
    /// into a hash taken from the SplitMix64 `StdRng` stand-in this module
    /// replaced: the datasets and goldens made with it still hold.
    #[test]
    fn every_method_draws_what_the_stand_in_drew() {
        let mut r = Rng::seed_from_u64(12345);
        let mut h = 0u64;
        for i in 0..100_000u64 {
            let x: u64 = match i % 12 {
                0 => r.gen::<f64>().to_bits(),
                1 => r.gen::<f32>().to_bits() as u64,
                2 => r.gen::<bool>() as u64,
                3 => r.gen::<u64>(),
                4 => r.gen_range(0..4u8) as u64,
                5 => r.gen_range(60..=400usize) as u64,
                6 => r.gen_range(-2000i64..2000) as u64,
                7 => r.gen_range(5..60u32) as u64,
                8 => r.gen_range(-2.0..2.0f64).to_bits(),
                9 => r.gen_range(-0.1..0.1f32).to_bits() as u64,
                10 => r.gen_range(f64::EPSILON..1.0).to_bits(),
                _ => r.next_u32() as u64,
            };
            h = h.rotate_left(5) ^ x.wrapping_mul(GOLDEN);
        }
        assert_eq!(h, 0x1fdb_39a3_e286_f2b0);
    }

    #[test]
    fn integers_stay_inside_their_range() {
        macro_rules! check {
            ($($t:ty),*) => {$(
                let mut rng = Rng::seed_from_u64(3);
                let (min, max) = (<$t>::MIN, <$t>::MAX);
                let (a, b) = (min / 3 + 1, max / 3 * 2);
                let zero: $t = 0;
                for _ in 0..2_000 {
                    assert!((a..b).contains(&rng.gen_range(a..b)));
                    assert!((a..=b).contains(&rng.gen_range(a..=b)));
                    let _: $t = rng.gen_range(min..=max);
                    assert_eq!(rng.gen_range(a..=a), a);
                    assert_eq!(rng.gen_range(max - 1..max), max - 1);
                    assert_eq!(rng.gen_range(min..=min), min);
                    assert!((0..=1).contains(&rng.gen_range(zero..2)));
                }
            )*};
        }
        check!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

        // The full-width ranges are the identity on the stream.
        let (mut a, mut b) = (Rng::seed_from_u64(9), Rng::seed_from_u64(9));
        for _ in 0..100 {
            let x = b.next_u64();
            assert_eq!(a.gen_range(0..=u64::MAX), x);
            let x = b.next_u64();
            assert_eq!(
                a.gen_range(i64::MIN..=i64::MAX),
                i64::MIN.wrapping_add(x as i64)
            );
        }
        // Both ends of a small range are reached.
        let mut rng = Rng::seed_from_u64(4);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.gen_range(0..4usize)] = true;
        }
        assert_eq!(seen, [true; 4]);
    }

    #[test]
    #[should_panic(expected = "gen_range: empty range")]
    fn an_empty_half_open_range_panics() {
        Rng::seed_from_u64(0).gen_range(5..5usize);
    }

    #[test]
    #[should_panic(expected = "gen_range: empty range")]
    // The reversed range is the input under test.
    #[allow(clippy::reversed_empty_ranges)]
    fn an_empty_inclusive_range_panics() {
        Rng::seed_from_u64(0).gen_range(5..=4i32);
    }

    #[test]
    #[should_panic(expected = "gen_range: empty range")]
    fn a_nan_bound_panics() {
        Rng::seed_from_u64(0).gen_range(0.0..f64::NAN);
    }

    #[test]
    fn unit_floats_lie_in_zero_one() {
        let mut rng = Rng::seed_from_u64(5);
        for _ in 0..100_000 {
            assert!((0.0..1.0).contains(&rng.gen::<f64>()));
            assert!((0.0..1.0).contains(&rng.gen::<f32>()));
        }
    }

    /// A generator about to return the largest `next_u64`: the one input
    /// for which `low + (high - low) * unit` rounds up to `high`.
    fn before_the_largest_output() -> Rng {
        // SplitMix64's output function is a bijection; walk it backwards.
        let unxorshift = |mut z: u64, s: u32| {
            let mut out = z;
            for _ in 0..64 / s {
                z >>= s;
                out ^= z;
            }
            out
        };
        let mut z = unxorshift(u64::MAX, 31);
        z = unxorshift(z.wrapping_mul(0x3196_42b2_d24d_8ec3), 27);
        z = unxorshift(z.wrapping_mul(0x96de_1b17_3f11_9089), 30);
        let rng = Rng {
            state: z.wrapping_sub(GOLDEN),
        };
        assert_eq!(rng.clone().next_u64(), u64::MAX);
        rng
    }

    #[test]
    fn float_ranges_are_half_open() {
        let top = before_the_largest_output;
        assert_eq!(1.0f32 + (top().gen::<f32>()), 2.0, "the case exists");
        assert_eq!(top().gen_range(1.0f32..2.0), 2.0f32.next_down());
        assert_eq!(top().gen_range(-2.0f32..-1.0), (-1.0f32).next_down());
        assert_eq!(top().gen_range(1.0f64..2.0), 2.0f64.next_down());
        assert_eq!(top().gen_range(1.0f32..=2.0), 2.0);
        let mut rng = Rng::seed_from_u64(6);
        for _ in 0..100_000 {
            assert!((1.0..2.0).contains(&rng.gen_range(1.0f32..2.0)));
            assert!((-0.1..0.1).contains(&rng.gen_range(-0.1f64..0.1)));
        }
    }

    #[test]
    fn the_seed_decides_the_stream() {
        let draw = |seed: u64| -> Vec<u64> {
            let mut rng = Rng::seed_from_u64(seed);
            (0..16).map(|_| rng.gen()).collect()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }
}
