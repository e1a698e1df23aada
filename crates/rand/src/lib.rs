//! A std-only, dependency-free stand-in for the parts of the `rand` crate
//! this workspace uses.
//!
//! The build environment has no access to crates.io, so the workspace
//! replaces the real `rand` with this path crate. Only the API surface the
//! repo actually exercises is provided:
//!
//! * [`rngs::StdRng`] with [`SeedableRng::seed_from_u64`] — here a
//!   xoshiro256++ generator seeded through splitmix64 (the same
//!   construction the real `rand` documents for seeding);
//! * the [`Rng`] extension trait with `gen_bool` and `gen_range`;
//! * [`seq::SliceRandom`] with `choose` and `shuffle` (Fisher–Yates).
//!
//! Streams differ from the real `rand` (seeded runs are reproducible
//! *within* this workspace, not against upstream), which is all the
//! simulator and tests rely on.

#![forbid(unsafe_code)]

/// A source of random 64-bit words.
pub trait RngCore {
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }
}

/// Seedable generators.
pub trait SeedableRng: Sized {
    /// Construct from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Integer types `gen_range` can sample.
pub trait SampleUniform: Copy + PartialOrd {
    /// Widen to `u64` for sampling arithmetic (values are offsets from the
    /// range start, so unsigned is enough).
    fn to_u64(self) -> u64;
    /// Narrow back after sampling; the value is guaranteed in range.
    fn from_u64(v: u64) -> Self;
}

macro_rules! impl_sample_uniform {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn to_u64(self) -> u64 {
                self as u64
            }
            fn from_u64(v: u64) -> Self {
                v as $t
            }
        }
    )*};
}
impl_sample_uniform!(u8, u16, u32, u64, usize);

/// Ranges `gen_range` accepts (`a..b` and `a..=b`).
pub trait SampleRange<T> {
    /// The inclusive `(low, high)` bounds of the range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn bounds(self) -> (T, T);
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    fn bounds(self) -> (T, T) {
        assert!(self.start < self.end, "cannot sample empty range");
        (self.start, T::from_u64(self.end.to_u64() - 1))
    }
}

impl<T: SampleUniform> SampleRange<T> for std::ops::RangeInclusive<T> {
    fn bounds(self) -> (T, T) {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "cannot sample empty range");
        (lo, hi)
    }
}

/// Convenience sampling methods on any [`RngCore`].
pub trait Rng: RngCore {
    /// `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= p <= 1.0`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        // 53 uniform mantissa bits in [0, 1).
        let u = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        u < p
    }

    /// A uniform sample from `range` (`a..b` or `a..=b`).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T: SampleUniform, R: SampleRange<T>>(&mut self, range: R) -> T {
        let (lo, hi) = range.bounds();
        let span = hi.to_u64() - lo.to_u64();
        if span == u64::MAX {
            return T::from_u64(self.next_u64());
        }
        // Unbiased sampling by rejection from the widest multiple of
        // `span + 1` that fits in 64 bits. That zone ends above
        // `u64::MAX - n`, so only a word in the top `n` needs it.
        let n = span + 1;
        loop {
            let v = self.next_u64();
            if v <= u64::MAX - n || v < u64::MAX - (u64::MAX % n) {
                return T::from_u64(lo.to_u64() + v % n);
            }
        }
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Concrete generators.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++ seeded via
    /// splitmix64.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        s: [u64; 4],
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            StdRng {
                s: [
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                    splitmix64(&mut sm),
                ],
            }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

/// Sequence-related sampling helpers.
pub mod seq {
    use super::Rng;

    /// `choose` and `shuffle` on slices.
    pub trait SliceRandom {
        /// The element type.
        type Item;

        /// A uniformly random element, or `None` if empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[rng.gen_range(0..self.len())])
            }
        }

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
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
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn seeded_streams_are_reproducible_and_distinct() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let mut c = StdRng::seed_from_u64(8);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = StdRng::seed_from_u64(1);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let rate = hits as f64 / 100_000.0;
        assert!((rate - 0.3).abs() < 0.01, "rate {rate}");
        assert!(!(0..1000).any(|_| rng.gen_bool(0.0)));
        assert!((0..1000).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn gen_range_is_in_bounds_and_roughly_uniform() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0u32; 6];
        for _ in 0..60_000 {
            let v: usize = rng.gen_range(0..6);
            counts[v] += 1;
        }
        for c in counts {
            assert!((c as i64 - 10_000).abs() < 500, "counts {counts:?}");
        }
        for _ in 0..1000 {
            let v: u32 = rng.gen_range(3..=5);
            assert!((3..=5).contains(&v));
        }
    }

    /// The sampler before its one-division fast path: the rejection zone
    /// computed on every draw.
    fn gen_range_two_divisions(rng: &mut impl RngCore, lo: u64, hi: u64) -> u64 {
        let n = hi - lo + 1;
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = rng.next_u64();
            if v < zone {
                return lo + v % n;
            }
        }
    }

    /// Hands out the given words, then zeros, counting the draws.
    struct Words(Vec<u64>, usize);
    impl RngCore for Words {
        fn next_u64(&mut self) -> u64 {
            self.1 += 1;
            self.0.get(self.1 - 1).copied().unwrap_or(0)
        }
    }

    #[test]
    fn gen_range_accepts_exactly_what_the_two_division_zone_accepts() {
        // Every word the fast path does not settle: the top 2n.
        for n in 1..=70u64 {
            for v in u64::MAX - (2 * n - 1)..=u64::MAX {
                let mut words = Words(vec![v], 0);
                let got: u64 = words.gen_range(0..n);
                let accepted = v < u64::MAX - (u64::MAX % n);
                assert_eq!(words.1 == 1, accepted, "n {n}, word {v:#x}");
                assert_eq!(got, if accepted { v % n } else { 0 }, "n {n}, word {v:#x}");
            }
        }
        // Seeded draws over mixed ranges, some rejecting about half the
        // words: the same values, and the streams stay in step.
        let spans = [
            0,
            1,
            2,
            5,
            6,
            9,
            999,
            u64::MAX / 3,
            u64::MAX / 2 + 1,
            u64::MAX - 1,
        ];
        let mut a = StdRng::seed_from_u64(11);
        let mut b = a.clone();
        for i in 0..1_000_000u64 {
            let lo = i % 4;
            let hi = lo + spans[(i % 10) as usize].min(u64::MAX - lo);
            assert_eq!(
                a.gen_range(lo..=hi),
                gen_range_two_divisions(&mut b, lo, hi),
                "draw {i}"
            );
        }
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn shuffle_and_choose_cover_all_elements() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut v: Vec<u32> = (0..10).collect();
        v.shuffle(&mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.insert(*v.choose(&mut rng).unwrap());
        }
        assert_eq!(seen.len(), 10);
        let empty: [u32; 0] = [];
        assert!(empty.choose(&mut rng).is_none());
    }
}
