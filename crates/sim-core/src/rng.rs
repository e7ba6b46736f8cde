//! Deterministic random-number generation.
//!
//! Every stochastic element of the reproduction (workload data, tDQSCK /
//! tDQSS strobe jitter, address hashing) draws from a [`SimRng`] seeded
//! from the experiment configuration, so any run is exactly repeatable.
//! The generator is the in-tree SplitMix64-seeded xoshiro256++ from
//! [`util::rng`]; nothing here touches external crates or OS entropy.

use util::rng::{Rng64, UniformRange};

/// A seeded random source with convenience helpers.
///
/// # Examples
///
/// ```
/// use sim_core::rng::SimRng;
///
/// let mut a = SimRng::seed(42);
/// let mut b = SimRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // determinism
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: Rng64,
}

// Serializes the raw generator state so snapshots capture a source
// mid-stream: a restored generator continues the exact sequence.
util::json_struct!(SimRng { inner });

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        SimRng {
            inner: Rng64::seed(seed),
        }
    }

    /// Derives an independent child generator, labeled by `stream`.
    ///
    /// Different streams from the same parent are decorrelated, so e.g.
    /// workload-data randomness never perturbs strobe-jitter randomness.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        SimRng {
            inner: self.inner.fork(stream),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform value in `[lo, hi]` (inclusive).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.range_u64(lo, hi)
    }

    /// A draw from a prepared range: the value [`Self::range_u64`] over
    /// the same bounds returns, without its divide.
    #[inline]
    pub fn draw(&mut self, range: &UniformRange) -> u64 {
        self.inner.draw(range)
    }

    /// Uniform `f64` in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.inner.unit_f64()
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or the bounds are not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        self.inner.range_f64(lo, hi)
    }

    /// Bernoulli draw with probability `p` of `true`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.chance(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_streams_are_reproducible() {
        let mut a = SimRng::seed(7);
        let mut b = SimRng::seed(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed(1);
        let mut b = SimRng::seed(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn forked_streams_are_reproducible_and_distinct() {
        let mut parent1 = SimRng::seed(9);
        let mut parent2 = SimRng::seed(9);
        let mut c1 = parent1.fork(1);
        let mut c2 = parent2.fork(1);
        assert_eq!(c1.next_u64(), c2.next_u64());

        let mut parent = SimRng::seed(9);
        let mut x = parent.fork(1);
        let mut parent = SimRng::seed(9);
        let mut y = parent.fork(2);
        assert_ne!(x.next_u64(), y.next_u64());
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = SimRng::seed(3);
        for _ in 0..1000 {
            let v = r.range_u64(10, 20);
            assert!((10..=20).contains(&v));
            let f = r.range_f64(0.75, 1.25);
            assert!((0.75..1.25).contains(&f));
            let u = r.unit_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed(4);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn inverted_range_rejected() {
        SimRng::seed(0).range_u64(5, 4);
    }
}
