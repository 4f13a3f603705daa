//! Offline stand-in for `rand` 0.8: the subset the suite calls
//! (`StdRng`, `SeedableRng::seed_from_u64`, `Rng::{gen, gen_range,
//! gen_bool}`, `RngCore`), with SplitMix64 as `StdRng`.
//!
//! The stream differs from the real ChaCha12 `StdRng`, so datasets and
//! checksums differ from a crates.io build; they are stable across hosts
//! and toolchains, which is what a benchmark needs. `gb-suite`'s
//! `rand_is_offline_stub` test helper recognises this generator by its
//! first output for seed 0.
#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// The core of a random number generator.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    /// A generator whose stream is a function of `state` only.
    fn seed_from_u64(state: u64) -> Self;
}

/// Generators.
pub mod rngs {
    /// SplitMix64 (Steele, Lea & Flood 2014).
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        state: u64,
    }

    const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

    impl super::SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> StdRng {
            StdRng {
                state: state.wrapping_add(GOLDEN),
            }
        }
    }

    impl super::RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(GOLDEN);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    /// One value from the type's standard distribution.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

/// Types `Rng::gen_range` can produce.
pub trait SampleUniform: Sized + PartialOrd {
    /// A value in `[low, high)`, or `[low, high]` when `inclusive`.
    fn sample_between<R: RngCore + ?Sized>(
        rng: &mut R,
        low: Self,
        high: Self,
        inclusive: bool,
    ) -> Self;
}

/// Range types `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    /// One value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    // PANIC-FREE: an empty range is a bug in the caller; `rand` proper panics on it too.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range: empty range");
        T::sample_between(rng, self.start, self.end, false)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    // PANIC-FREE: an empty range is a bug in the caller; `rand` proper panics on it too.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        assert!(low <= high, "gen_range: empty range");
        T::sample_between(rng, low, high, true)
    }
}

/// The user-facing methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A value from the type's standard distribution: uniform over all
    /// values for integers and `bool`, uniform in `[0, 1)` for floats.
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// A value uniform in `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample_single(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

fn unit_f64<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
    (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

fn unit_f32<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
    (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        unit_f64(rng)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        unit_f32(rng)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

impl SampleUniform for f64 {
    fn sample_between<R: RngCore + ?Sized>(rng: &mut R, low: f64, high: f64, _: bool) -> f64 {
        low + (high - low) * unit_f64(rng)
    }
}

impl SampleUniform for f32 {
    fn sample_between<R: RngCore + ?Sized>(rng: &mut R, low: f32, high: f32, _: bool) -> f32 {
        low + (high - low) * unit_f32(rng)
    }
}

macro_rules! integers {
    ($($t:ty),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.next_u64() as $t
            }
        }

        impl SampleUniform for $t {
            fn sample_between<R: RngCore + ?Sized>(
                rng: &mut R,
                low: $t,
                high: $t,
                inclusive: bool,
            ) -> $t {
                // Width of the range minus one fits in u64 for every
                // integer type here; the multiply-shift maps 64 random
                // bits onto it.
                let span = (high as i128 - low as i128) as u128 + inclusive as u128;
                let offset = (rng.next_u64() as u128 * span) >> 64;
                (low as i128 + offset as i128) as $t
            }
        }
    )*};
}

integers!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);
