//! Offline stand-in for the `rand` crate.
//!
//! Provides a deterministic SplitMix64-based [`rngs::StdRng`] plus the
//! [`Rng`]/[`SeedableRng`]/[`seq::SliceRandom`] surface the data and
//! workload generators use. Deterministic sequences are the contract here
//! (the workspace's generators are seeded everywhere); statistical quality
//! beyond SplitMix64 is not required.

#![forbid(unsafe_code)]

use std::ops::{Range, RangeInclusive};

/// Raw 64-bit generator.
pub trait RngCore {
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// Construction from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Deterministic RNG from a seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// User-facing sampling helpers, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore + Sized {
    /// Uniform sample from a range (exclusive or inclusive).
    fn gen_range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    /// Bernoulli sample with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        self.gen_f64() < p
    }

    /// Uniform `f64` in `[0, 1)`.
    fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl<T: RngCore> Rng for T {}

/// Marker for types [`Rng::gen_range`] can produce; mirrors rand's
/// `SampleUniform` and exists for the same reason — it disambiguates type
/// inference in expressions like `base + rng.gen_range(-30..=30)`.
pub trait SampleUniform {}

macro_rules! sample_uniform {
    ($($t:ty),*) => {$( impl SampleUniform for $t {} )*};
}
sample_uniform!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// A range that can be sampled uniformly into `T`.
pub trait SampleRange<T> {
    /// Draw one sample.
    fn sample<R: RngCore>(self, rng: &mut R) -> T;
}

fn uniform_below<R: RngCore>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Multiply-shift (Lemire): deterministic, near-uniform, branch-free.
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! sample_int_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + uniform_below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: RngCore>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range");
                let span = (hi as i128 - lo as i128 + 1) as u64;
                (lo as i128 + uniform_below(rng, span) as i128) as $t
            }
        }
    )*};
}
sample_int_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Named RNGs (mirrors `rand::rngs`).
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic SplitMix64 generator standing in for `rand::rngs::StdRng`.
    #[derive(Debug, Clone)]
    pub struct StdRng {
        state: u64,
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            StdRng { state: seed }
        }
    }
}

/// Sequence-related helpers (mirrors `rand::seq`).
pub mod seq {
    use super::{Rng, RngCore};

    /// Random selection from slices.
    pub trait SliceRandom {
        /// Element type.
        type Item;
        /// Uniformly random element, `None` for an empty slice.
        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&Self::Item>;
        /// Fisher–Yates shuffle in place.
        fn shuffle<R: RngCore>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: RngCore>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }

        fn shuffle<R: RngCore>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, rng.gen_range(0..=i));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::seq::SliceRandom;
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x = rng.gen_range(3..10usize);
            assert!((3..10).contains(&x));
            let y = rng.gen_range(-30..=30i32);
            assert!((-30..=30).contains(&y));
            let z = rng.gen_range(100..10_000_000i64);
            assert!((100..10_000_000).contains(&z));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((2000..3000).contains(&hits), "{hits}");
    }

    #[test]
    fn choose_and_shuffle_cover_elements() {
        let mut rng = StdRng::seed_from_u64(9);
        let xs = [1, 2, 3];
        assert!(xs.choose(&mut rng).is_some());
        let empty: [i32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
