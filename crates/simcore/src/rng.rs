//! Deterministic randomness for the simulation.
//!
//! All stochastic model elements (rotational latency, jitter, workload key
//! choice, fault timing) draw from one [`DetRng`], seeded per experiment.
//! Latency models want a handful of distributions; wrapping `SmallRng` here
//! keeps the call sites terse and keeps the `rand` API surface in one place.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Deterministic random source. Same seed ⇒ same stream, always.
#[derive(Clone, Debug)]
pub struct DetRng {
    inner: SmallRng,
}

impl DetRng {
    pub fn new(seed: u64) -> Self {
        DetRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child stream, e.g. one per actor, so that
    /// adding a consumer does not perturb the draws seen by others.
    pub fn fork(&mut self, salt: u64) -> DetRng {
        // Mix the salt through SplitMix64 so forks with small salts differ.
        let mut z = self.inner.random::<u64>() ^ splitmix64(salt);
        z = splitmix64(z);
        DetRng::new(z)
    }

    pub fn u64(&mut self) -> u64 {
        self.inner.random()
    }

    /// Uniform in `[0, n)`. `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.inner.random_range(0..n)
    }

    /// Uniform in `[lo, hi)` as f64.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        self.inner.random_range(lo..hi)
    }

    /// Exponentially distributed with the given mean (Poisson inter-arrival).
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u: f64 = self.inner.random_range(1e-12..1.0);
        -mean * u.ln()
    }

    /// `value` perturbed by up to ±`frac` (e.g. 0.05 for ±5% jitter).
    /// Used to keep latency models from producing lockstep artifacts.
    /// A non-positive `frac` returns the value unperturbed (and draws
    /// nothing, so jitter-free configs stay stream-compatible).
    pub fn jitter(&mut self, value: f64, frac: f64) -> f64 {
        if frac <= 0.0 {
            return value;
        }
        value * (1.0 + self.inner.random_range(-frac..frac))
    }

    /// Bernoulli trial.
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.inner.random_range(0.0..1.0) < p
        }
    }

    /// Pick a uniformly random index into a slice of length `len`.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "index() on empty range");
        self.inner.random_range(0..len)
    }
}

pub(crate) fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..32).filter(|_| a.u64() == b.u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn forks_are_deterministic_and_distinct() {
        let mut root1 = DetRng::new(7);
        let mut root2 = DetRng::new(7);
        let mut f1 = root1.fork(3);
        let mut f2 = root2.fork(3);
        assert_eq!(f1.u64(), f2.u64());

        let mut root3 = DetRng::new(7);
        let mut g = root3.fork(4);
        // Different salt ⇒ (almost surely) different stream.
        let mut root4 = DetRng::new(7);
        let mut h = root4.fork(3);
        assert_ne!(g.u64(), h.u64());
    }

    #[test]
    fn exp_has_roughly_right_mean() {
        let mut r = DetRng::new(9);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exp(5.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "mean={mean}");
    }

    #[test]
    fn jitter_stays_in_band() {
        let mut r = DetRng::new(11);
        for _ in 0..1000 {
            let v = r.jitter(100.0, 0.05);
            assert!((95.0..105.0).contains(&v));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::new(13);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn below_bounds() {
        let mut r = DetRng::new(17);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
        }
    }
}
