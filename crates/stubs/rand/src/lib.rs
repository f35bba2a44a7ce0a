//! Offline stand-in for the `rand` crate (0.8-style API subset).
//!
//! Provides a deterministic `SmallRng` (splitmix64 seeding into
//! xoshiro256**-lite) and just the traits the workspace calls:
//! `SeedableRng::seed_from_u64`, `Rng::{gen_range, gen, gen_bool}` and
//! `seq::SliceRandom::{shuffle, choose}`. Stream values differ from the
//! real crate, but every consumer seeds explicitly and only relies on
//! determinism, not on a specific stream.

#![forbid(unsafe_code)]

use std::ops::Range;

/// Core randomness source: a 64-bit generator.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;

    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Construction from seeds.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// A small, fast, deterministic generator (xoshiro256** core).
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut st = seed;
            let s = [
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
                splitmix64(&mut st),
            ];
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let r = self.s[1]
                .wrapping_mul(5)
                .rotate_left(7)
                .wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            r
        }
    }
}

/// Types `gen_range` can sample uniformly from a half-open range.
pub trait SampleUniform: PartialOrd + Copy {
    fn sample(rng: &mut dyn FnMut() -> u64, range: Range<Self>) -> Self;
}

macro_rules! impl_sample_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample(rng: &mut dyn FnMut() -> u64, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range");
                let span = (range.end as i128 - range.start as i128) as u128;
                // modulo bias is irrelevant for a test/workload generator
                let v = (rng() as u128) % span;
                (range.start as i128 + v as i128) as $t
            }
        }
    )*};
}

impl_sample_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_sample_float {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample(rng: &mut dyn FnMut() -> u64, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "empty range");
                // 53 uniform mantissa bits in [0, 1)
                let unit = (rng() >> 11) as f64 / (1u64 << 53) as f64;
                let (a, b) = (range.start as f64, range.end as f64);
                let v = a + unit * (b - a);
                // guard against rounding up to the excluded endpoint
                if v >= b { range.start } else { v as $t }
            }
        }
    )*};
}

impl_sample_float!(f32, f64);

/// The user-facing sampling interface.
pub trait Rng: RngCore {
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        let mut f = || self.next_u64();
        T::sample(&mut f, range)
    }

    /// A uniform `f64` in `[0, 1)` (the only `gen` form used here).
    fn gen(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        Rng::gen(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    use super::Rng;

    /// Slice shuffling and sampling.
    pub trait SliceRandom {
        type Item;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            // Fisher–Yates
            for i in (1..self.len()).rev() {
                let j = rng.gen_range(0..i + 1);
                self.swap(i, j);
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(rng.gen_range(0..self.len()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::seq::SliceRandom;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.gen_range(0usize..1000), b.gen_range(0usize..1000));
        }
    }

    #[test]
    fn ranges_are_respected() {
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = rng.gen_range(-0.5f64..0.5);
            assert!((-0.5..0.5).contains(&v));
            let n = rng.gen_range(3usize..17);
            assert!((3..17).contains(&n));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut v: Vec<u32> = (0..50).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
