//! Seeded pseudo-random generation: SplitMix64 seeding feeding a
//! xoshiro256++ core.
//!
//! This replaces the `rand` crate for every stochastic element of the
//! simulator. The generator is deterministic (a fixed seed always
//! yields the same sequence), cheap (a few arithmetic ops per draw) and
//! has no global state.
//!
//! # Examples
//!
//! ```
//! use util::rng::Rng64;
//!
//! let mut a = Rng64::seed(42);
//! let mut b = Rng64::seed(42);
//! assert_eq!(a.next_u64(), b.next_u64());
//! ```

/// Advances a SplitMix64 state and returns the next output.
///
/// Used to expand one 64-bit seed into the xoshiro state and useful on
/// its own for hash-mixing.
#[inline]
pub fn split_mix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Collapses a seed plus an ordered label path into one well-mixed
/// 64-bit stream seed.
///
/// This is the stateless counterpart of [`Rng64::fork`]: instead of
/// advancing a shared generator (whose draw order would then depend on
/// simulation event order), callers hash `(seed, labels...)` and get
/// the same value no matter when — or on which thread — they ask.
/// Distinct label paths give decorrelated streams; the same path always
/// gives the same stream.
///
/// # Examples
///
/// ```
/// use util::rng::stream_seed;
///
/// let a = stream_seed(42, &[1, 2, 3]);
/// assert_eq!(a, stream_seed(42, &[1, 2, 3]));
/// assert_ne!(a, stream_seed(42, &[3, 2, 1])); // order matters
/// assert_ne!(a, stream_seed(43, &[1, 2, 3])); // seed matters
/// ```
pub fn stream_seed(seed: u64, labels: &[u64]) -> u64 {
    let mut state = seed;
    let mut h = split_mix64(&mut state);
    for &label in labels {
        state = h ^ label;
        h = split_mix64(&mut state);
    }
    h
}

/// A single uniform `f64` in `[0, 1)` drawn statelessly from a seed and
/// a label path (see [`stream_seed`]). Same precision as
/// [`Rng64::unit_f64`].
#[inline]
pub fn stream_unit(seed: u64, labels: &[u64]) -> f64 {
    (stream_seed(seed, labels) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// An inclusive range `lo..=hi` prepared for repeated bias-free draws
/// ([`Rng64::draw`]). [`Rng64::range_u64`] reduces each raw value with a
/// hardware divide; a prepared range divides once, here, and reduces by
/// multiplying with the 128-bit reciprocal of its span (Lemire, Kaser
/// and Kurz, "Faster Remainder by Direct Computation", 2019: a 128-bit
/// reciprocal gives the exact remainder for every 64-bit value and
/// divisor). Draws are identical value for value. Multiplies pipeline
/// where divides queue, which is what a burst of back-to-back draws
/// (four per PRAM word program) pays for.
///
/// # Examples
///
/// ```
/// use util::rng::{Rng64, UniformRange};
///
/// let window = UniformRange::new(750, 1250);
/// let (mut a, mut b) = (Rng64::seed(7), Rng64::seed(7));
/// for _ in 0..100 {
///     assert_eq!(a.draw(&window), b.range_u64(750, 1250));
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformRange {
    lo: u64,
    /// `hi - lo + 1`, or 0 when the range is all of `u64`.
    span: u64,
    /// `ceil(2^128 / span)`; it wraps to 0 for a span of 1, whose every
    /// remainder is 0.
    recip: u128,
}

impl UniformRange {
    /// Prepares `lo..=hi`, or `None` when `lo > hi`.
    pub fn try_new(lo: u64, hi: u64) -> Option<Self> {
        let span = hi.checked_sub(lo)?.wrapping_add(1);
        let recip = match span {
            0 => 0,
            _ => (u128::MAX / u128::from(span)).wrapping_add(1),
        };
        Some(UniformRange { lo, span, recip })
    }

    /// Prepares `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: u64, hi: u64) -> Self {
        Self::try_new(lo, hi).unwrap_or_else(|| panic!("empty range {lo}..={hi}"))
    }

    /// `v % span` (for a non-zero span): the high 128 bits of the
    /// 256-bit product of `v * recip mod 2^128` and `span`.
    #[inline]
    fn rem(&self, v: u64) -> u64 {
        let low = self.recip.wrapping_mul(u128::from(v));
        let span = u128::from(self.span);
        let high = (low >> 64) * span;
        let carry = (u128::from(low as u64) * span) >> 64;
        ((high + carry) >> 64) as u64
    }
}

/// A xoshiro256++ generator with convenience range/float helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng64 {
    s: [u64; 4],
}

// The raw xoshiro state serializes so snapshot/restore can capture a
// generator mid-stream — a restored generator continues the exact draw
// sequence the original would have produced.
crate::json_struct!(Rng64 { s });

impl Rng64 {
    /// Creates a generator from a 64-bit seed via SplitMix64 expansion.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        // SplitMix64 output is never all-zero across four draws, so the
        // xoshiro state is always valid.
        Rng64 {
            s: [
                split_mix64(&mut sm),
                split_mix64(&mut sm),
                split_mix64(&mut sm),
                split_mix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Derives an independent child generator, labeled by `stream`.
    pub fn fork(&mut self, stream: u64) -> Rng64 {
        let base = self.next_u64();
        Rng64::seed(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform value in `[lo, hi]` (inclusive), bias-free.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        let span = span + 1;
        // Rejection sampling over the largest multiple of `span`: `v`
        // is accepted when the whole `span`-block holding it fits below
        // `u64::MAX`, which is `v < u64::MAX - u64::MAX % span` without
        // a second division per draw.
        loop {
            let v = self.next_u64();
            let r = v % span;
            if (v - r).checked_add(span).is_some() {
                return lo + r;
            }
        }
    }

    /// A draw from a prepared range: exactly the value
    /// [`Self::range_u64`] over the same bounds returns, consuming the
    /// same raw values, with each remainder found by multiplication.
    #[inline]
    pub fn draw(&mut self, range: &UniformRange) -> u64 {
        if range.span == 0 {
            return self.next_u64();
        }
        loop {
            let v = self.next_u64();
            let r = range.rem(v);
            if (v - r).checked_add(range.span).is_some() {
                return range.lo + r;
            }
        }
    }

    /// Uniform `usize` in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or the bounds are not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "bad range {lo}..{hi}"
        );
        let v = lo + self.unit_f64() * (hi - lo);
        // Guard the (theoretically possible) rounding up to `hi`.
        if v >= hi {
            lo
        } else {
            v
        }
    }

    /// Bernoulli draw with probability `p` of `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
        if p >= 1.0 {
            return true;
        }
        self.unit_f64() < p
    }

    /// A vector of `len` uniform bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.range_u64(0, 255) as u8).collect()
    }

    /// Exponential draw with the given `rate` (mean `1 / rate`), via
    /// inversion. The backbone of open-loop Poisson arrival processes:
    /// summing draws at a fixed rate yields Poisson arrival timestamps.
    ///
    /// The result is always finite and strictly positive: `unit_f64`
    /// never returns 1.0, so `ln` never sees zero, and a zero draw is
    /// clamped to the smallest positive double.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not finite and positive.
    pub fn exp_f64(&mut self, rate: f64) -> f64 {
        assert!(
            rate.is_finite() && rate > 0.0,
            "exponential rate must be positive: {rate}"
        );
        let draw = -(1.0 - self.unit_f64()).ln() / rate;
        draw.max(f64::MIN_POSITIVE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prepared_remainders_are_exact() {
        // The reciprocal remainder equals `%` for every span, on values
        // at and around the multiples where a truncation error would
        // show, and on random ones.
        let mut rng = Rng64::seed(11);
        let mut spans = vec![1u64, 2, 3, 7, 501, 3001, 1 << 32, (1 << 63) + 1, u64::MAX];
        spans.extend(
            (0..200)
                .map(|_| rng.next_u64() >> rng.range_u64(0, 63))
                .filter(|&d| d > 0),
        );
        for d in spans {
            let range = UniformRange::new(0, d - 1);
            let q = u64::MAX / d;
            let mut values = vec![0, 1, d - 1, d, d.wrapping_add(1), u64::MAX, u64::MAX - 1];
            values.extend([q * d, q * d - 1, (q / 2) * d, (q / 2) * d + d - 1]);
            values.extend((0..200).map(|_| rng.next_u64()));
            for v in values {
                assert_eq!(range.rem(v), v % d, "{v} % {d}");
            }
        }
    }

    #[test]
    fn prepared_draws_match_range_u64_draw_for_draw() {
        let mut pick = Rng64::seed(5);
        let mut bounds = vec![
            (0, 0),
            (750, 1250),
            (2500, 5500),
            (0, u64::MAX),
            (1, u64::MAX),
        ];
        bounds.extend((0..50).map(|_| {
            let lo = pick.next_u64() >> pick.range_u64(0, 63);
            (
                lo,
                lo.saturating_add(pick.next_u64() >> pick.range_u64(0, 63)),
            )
        }));
        for (lo, hi) in bounds {
            let range = UniformRange::new(lo, hi);
            let (mut a, mut b) = (Rng64::seed(lo ^ hi), Rng64::seed(lo ^ hi));
            for _ in 0..200 {
                assert_eq!(a.draw(&range), b.range_u64(lo, hi), "{lo}..={hi}");
            }
            assert_eq!(a, b, "both consumed the same raw values");
        }
        assert!(UniformRange::try_new(2, 1).is_none());
    }

    #[test]
    fn fixed_seed_fixed_sequence() {
        let mut a = Rng64::seed(1);
        let mut b = Rng64::seed(1);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_known_values() {
        // Reference vector from the SplitMix64 paper implementation.
        let mut s = 1234567u64;
        assert_eq!(split_mix64(&mut s), 6457827717110365317);
        assert_eq!(split_mix64(&mut s), 3203168211198807973);
    }

    #[test]
    fn ranges_hit_both_endpoints() {
        let mut r = Rng64::seed(2);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..10_000 {
            match r.range_u64(5, 8) {
                5 => seen_lo = true,
                8 => seen_hi = true,
                6 | 7 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(seen_lo && seen_hi);
    }

    #[test]
    fn ranges_draw_what_the_two_division_rejection_drew() {
        // The reference: reject `v >= u64::MAX - u64::MAX % span`.
        fn reference(r: &mut Rng64, lo: u64, hi: u64) -> u64 {
            let span = hi - lo + 1;
            let zone = u64::MAX - (u64::MAX % span);
            loop {
                let v = r.next_u64();
                if v < zone {
                    return lo + v % span;
                }
            }
        }
        // Small spans, a span that rejects almost half of all draws, and
        // the boundary spans around it.
        let half = 1u64 << 63;
        for (lo, hi) in [
            (5, 8),
            (2_500, 5_500),
            (750, 1_250),
            (0, half),
            (1, half + 1),
        ] {
            let (mut a, mut b) = (Rng64::seed(lo ^ hi), Rng64::seed(lo ^ hi));
            for _ in 0..2_000 {
                assert_eq!(
                    a.range_u64(lo, hi),
                    reference(&mut b, lo, hi),
                    "{lo}..={hi}"
                );
            }
        }
    }

    #[test]
    fn unit_f64_stays_in_bounds() {
        let mut r = Rng64::seed(3);
        for _ in 0..10_000 {
            let v = r.unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes_are_exact() {
        let mut r = Rng64::seed(4);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    fn stream_seed_is_deterministic_and_label_sensitive() {
        let a = stream_seed(7, &[10, 20]);
        assert_eq!(a, stream_seed(7, &[10, 20]));
        assert_ne!(a, stream_seed(7, &[20, 10]), "label order must matter");
        assert_ne!(a, stream_seed(7, &[10, 21]));
        assert_ne!(a, stream_seed(8, &[10, 20]));
        assert_ne!(a, stream_seed(7, &[10, 20, 0]), "path length must matter");
    }

    #[test]
    fn stream_unit_is_uniform_enough() {
        // Crude decorrelation check: neighbouring label paths should
        // not produce clustered values.
        let mut sum = 0.0;
        let n = 10_000;
        for i in 0..n {
            let v = stream_unit(42, &[1, i, 3]);
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean drifted: {mean}");
    }

    #[test]
    fn exp_draws_match_the_configured_mean() {
        let mut r = Rng64::seed(11);
        let rate = 250.0;
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exp_f64(rate)).sum();
        let mean = sum / n as f64;
        let expected = 1.0 / rate;
        assert!(
            (mean - expected).abs() < expected * 0.05,
            "mean {mean} vs expected {expected}"
        );
        let mut r = Rng64::seed(12);
        assert!((0..10_000).all(|_| r.exp_f64(1e9) > 0.0));
    }

    #[test]
    fn forks_are_reproducible_and_decorrelated() {
        let mut p1 = Rng64::seed(9);
        let mut p2 = Rng64::seed(9);
        let mut c1 = p1.fork(1);
        let mut c2 = p2.fork(1);
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut d = Rng64::seed(9).fork(2);
        assert_ne!(c1.next_u64(), d.next_u64());
    }
}
