//! Shared by the integration tests that compare against
//! `golden/task_out.txt`.

/// Whether this build draws the golden's datasets. See `gb_suite`'s
/// `test_support::rand_is_offline_stub`: the stand-in `StdRng` is
/// SplitMix64, which the ChaCha-based one cannot reproduce.
pub fn rand_is_offline_stub() -> bool {
    use rand::{rngs::StdRng, RngCore, SeedableRng};
    let mut z = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(2);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    StdRng::seed_from_u64(0).next_u64() == z
}
