//! Seed handling: every input a workload builds derives from the
//! `--seed` argument through [`splitmix64`].
//!
//! The in-repo `proptest::TestRng::from_seed` forces the low bit of its
//! seed to one, so seeds `2k` and `2k + 1` would generate the same
//! programs. Mixing first makes adjacent seeds independent.

use proptest::TestRng;

/// The SplitMix64 finaliser: a bijective mix of all 64 input bits.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A `proptest` generator for the Kern program fuzzer, seeded through
/// [`splitmix64`] so that adjacent benchmark seeds differ.
pub fn fuzz_rng(seed: u64) -> TestRng {
    TestRng::from_seed(splitmix64(seed))
}

/// A generator for one of the benchmark's own choices (orders, request
/// spellings, samples); distinct `stream` tags give unrelated sequences
/// from the same seed.
pub fn stream_rng(seed: u64, stream: u64) -> TestRng {
    fuzz_rng(seed ^ splitmix64(stream))
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut TestRng, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        xs.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_separates_adjacent_seeds() {
        assert_ne!(splitmix64(0xC10C) | 1, splitmix64(0xC10D) | 1);
        assert_ne!(fuzz_rng(0xC10C).next_u64(), fuzz_rng(0xC10D).next_u64());
        // Without mixing, the shim collapses them.
        assert_eq!(
            TestRng::from_seed(0xC10C).next_u64(),
            TestRng::from_seed(0xC10D).next_u64()
        );
    }

    #[test]
    fn streams_are_deterministic_and_shuffle_all() {
        assert_eq!(stream_rng(5, 1).next_u64(), stream_rng(5, 1).next_u64());
        assert_ne!(stream_rng(5, 1).next_u64(), stream_rng(5, 2).next_u64());
        assert_ne!(stream_rng(4, 1).next_u64(), stream_rng(5, 1).next_u64());
        let mut xs: Vec<u32> = (0..50).collect();
        shuffle(&mut stream_rng(9, 0), &mut xs);
        assert_ne!(xs, (0..50).collect::<Vec<_>>());
        xs.sort();
        assert_eq!(xs, (0..50).collect::<Vec<_>>());
    }
}
