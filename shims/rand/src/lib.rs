//! Offline shim for the `rand` 0.8 subset used by this workspace:
//! [`RngCore`], [`Rng`] (`gen`, `gen_range`, `gen_bool`), [`SeedableRng`],
//! and [`distributions::WeightedIndex`].
//!
//! The uniform-range sampling uses plain modulo reduction — fine for
//! simulation workloads where determinism, not cryptographic uniformity,
//! is the requirement.

#![forbid(unsafe_code)]

/// Core random source: 32/64-bit output words.
pub trait RngCore {
    /// The next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64;
    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let bytes = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Sampleable from the "standard" distribution (`rng.gen()`).
pub trait Standard: Sized {
    /// Draws one value.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 random mantissa bits in [0, 1).
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl Standard for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty : $via:ident),*) => {$(
        impl Standard for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.$via() as $t
            }
        }
    )*};
}

impl_standard_int!(u8: next_u32, u16: next_u32, u32: next_u32, u64: next_u64,
                   usize: next_u64, i8: next_u32, i16: next_u32, i32: next_u32,
                   i64: next_u64, isize: next_u64);

/// A range usable with [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// `x % span` for a range of `span` values (`1..=2^64`) with one 64-bit
/// division. Only an inclusive range over all 64-bit values has a span of
/// 2^64, and there every draw is already in range.
#[inline]
fn reduce(x: u64, span: u128) -> u64 {
    match u64::try_from(span) {
        Ok(span) => x % span,
        Err(_) => x,
    }
}

macro_rules! impl_sample_range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                let r = reduce(rng.next_u64(), span);
                (self.start as i128 + i128::from(r)) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let r = reduce(rng.next_u64(), span);
                (lo as i128 + i128::from(r)) as $t
            }
        }
    )*};
}

impl_sample_range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_one<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        self.start + (self.end - self.start) * f64::sample(rng)
    }
}

/// Convenience sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// Draws a value from the standard distribution (uniform bits; floats
    /// in `[0, 1)`).
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draws a value uniformly from `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_one(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A generator constructible from a seed.
pub trait SeedableRng: Sized {
    /// The seed type (a byte array).
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Constructs from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Constructs from a `u64`, expanding it with SplitMix64 like upstream
    /// rand (deterministic; exact constants need not match upstream).
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let bytes = z.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

pub mod distributions {
    //! The `rand::distributions` subset: [`Distribution`] and
    //! [`WeightedIndex`].

    use std::borrow::Borrow;

    use super::{Rng, RngCore};

    /// A distribution sampling values of type `T`.
    pub trait Distribution<T> {
        /// Draws one value.
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// Error constructing a [`WeightedIndex`].
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum WeightedError {
        /// No weights were provided.
        NoItem,
        /// A weight was negative or not finite, or all weights were zero.
        InvalidWeight,
    }

    impl std::fmt::Display for WeightedError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match self {
                Self::NoItem => write!(f, "no weights provided"),
                Self::InvalidWeight => write!(f, "invalid weight"),
            }
        }
    }

    impl std::error::Error for WeightedError {}

    /// Samples indices proportionally to a fixed weight list.
    #[derive(Debug, Clone, PartialEq)]
    pub struct WeightedIndex {
        cumulative: Vec<f64>,
    }

    impl WeightedIndex {
        /// Builds the sampler from weights.
        ///
        /// # Errors
        ///
        /// [`WeightedError`] on an empty, negative, non-finite, or all-zero
        /// weight list.
        pub fn new<I>(weights: I) -> Result<Self, WeightedError>
        where
            I: IntoIterator,
            I::Item: Borrow<f64>,
        {
            let mut cumulative = Vec::new();
            let mut total = 0.0f64;
            for w in weights {
                let w = *w.borrow();
                if !w.is_finite() || w < 0.0 {
                    return Err(WeightedError::InvalidWeight);
                }
                total += w;
                cumulative.push(total);
            }
            if cumulative.is_empty() {
                return Err(WeightedError::NoItem);
            }
            if total <= 0.0 {
                return Err(WeightedError::InvalidWeight);
            }
            Ok(Self { cumulative })
        }
    }

    impl Distribution<usize> for WeightedIndex {
        fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> usize {
            let total = *self.cumulative.last().expect("non-empty by construction");
            let r: f64 = rng.gen::<f64>() * total;
            self.cumulative
                .iter()
                .position(|&c| r < c)
                .unwrap_or(self.cumulative.len() - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::distributions::{Distribution, WeightedIndex};
    use super::*;

    struct Counter(u64);
    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            // Weyl sequence: uniform-ish, deterministic.
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z ^ (z >> 31)
        }
    }

    /// The 64-bit reduction draws what the 128-bit remainder would, for
    /// exclusive and inclusive ranges of every span class.
    #[test]
    fn gen_range_equals_the_128_bit_remainder() {
        let spans: [u128; 6] = [1, 2, 1 << 32, (1 << 63) + 1, u64::MAX as u128, 1 << 64];
        for span in spans {
            let (mut rng, mut reference) = (Counter(11), Counter(11));
            for _ in 0..200 {
                let want = (reference.next_u64() as u128 % span) as u64;
                assert_eq!(reduce(rng.next_u64(), span), want, "span {span}");
            }
            let hi = (span - 1) as u64;
            let (mut rng, mut reference) = (Counter(5), Counter(5));
            for _ in 0..200 {
                let want = (reference.next_u64() as u128 % span) as u64;
                assert_eq!(rng.gen_range(0..=hi), want, "0..={hi}");
                let want = (reference.next_u64() as u128 % span) as u64;
                let got = if hi == u64::MAX {
                    rng.gen_range(0..=u64::MAX)
                } else {
                    rng.gen_range(0..hi + 1)
                };
                assert_eq!(got, want, "0..{hi} + 1");
            }
        }
        let (mut rng, mut reference) = (Counter(9), Counter(9));
        for _ in 0..200 {
            let want = i64::MIN.wrapping_add(reference.next_u64() as i64);
            assert_eq!(rng.gen_range(i64::MIN..=i64::MAX), want);
        }
    }

    #[test]
    fn unit_float_stays_in_range() {
        let mut rng = Counter(7);
        for _ in 0..1000 {
            let f: f64 = rng.gen();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = Counter(3);
        for _ in 0..1000 {
            let v = rng.gen_range(4usize..9);
            assert!((4..9).contains(&v));
            let w = rng.gen_range(2usize..=5);
            assert!((2..=5).contains(&w));
            let x = rng.gen_range(0..3);
            assert!((0..3).contains(&x));
            let f = rng.gen_range(-1.5..2.5f64);
            assert!((-1.5..2.5).contains(&f));
        }
    }

    #[test]
    fn weighted_index_prefers_heavy_weights() {
        let dist = WeightedIndex::new([1.0, 0.0, 9.0]).unwrap();
        let mut rng = Counter(11);
        let mut counts = [0usize; 3];
        for _ in 0..5000 {
            counts[dist.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        assert!(counts[2] > counts[0] * 4, "counts {counts:?}");
        assert!(WeightedIndex::new(std::iter::empty::<f64>()).is_err());
        assert!(WeightedIndex::new([0.0]).is_err());
        assert!(WeightedIndex::new([-1.0]).is_err());
    }
}
