//! Deterministic sampling primitives for the closed-loop driver.
//!
//! The vendored `rand` has no distribution support, so the driver carries
//! its own: a counter-friendly splitmix64 stream, exponential and
//! log-normal think times (the two shapes used to model human/device
//! pacing in telco workloads), and the YCSB Zipfian generator for hot-key
//! skew.
//!
//! Everything here is a pure function of its inputs: a virtual client's
//! n-th transaction draws from `Rng64::for_txn(seed, client, n)`, so the
//! sampled keys and think times do not depend on how transactions from
//! different clients interleave in the event loop. That is what makes the
//! determinism guarantee (same seed ⇒ identical per-shard audit trails)
//! robust to incidental scheduling changes.

/// splitmix64 — the finalizer doubles as the shard-routing hash (see
/// `txnkit::shard`), the sequence as a tiny fast PRNG.
#[derive(Clone, Copy, Debug)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    pub fn new(seed: u64) -> Self {
        Rng64 { state: seed }
    }

    /// Stream for one virtual client's n-th transaction: a hash of
    /// (seed, client, n), so streams are independent and order-free.
    pub fn for_txn(seed: u64, client: u64, n: u64) -> Self {
        let mut r = Rng64::new(
            seed ^ client.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ n.wrapping_mul(0xbf58_476d_1ce4_e5b9),
        );
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1) with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in [0, n).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Multiply-shift; bias is negligible for the ranges used here.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Standard normal via Box–Muller.
    pub fn next_gaussian(&mut self) -> f64 {
        let u1 = self.next_f64().max(1e-300);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

/// Client think-time model: how long a virtual client waits between
/// receiving a transaction's response and issuing the next one. In a
/// closed loop this is what turns a client count into an offered load
/// (offered ≈ clients / (think + response)).
#[derive(Clone, Copy, Debug)]
pub enum ThinkTime {
    /// No pacing — clients re-issue immediately (saturation load).
    Zero,
    /// Fixed gap.
    Fixed { ns: u64 },
    /// Memoryless arrivals, `mean_ns` average (Poisson-like per client).
    Exponential { mean_ns: u64 },
    /// Heavy-tailed human pacing: log-normal with the given median and
    /// log-space sigma (sigma ≈ 1.0 matches interactive sessions).
    LogNormal { median_ns: u64, sigma: f64 },
}

impl ThinkTime {
    pub fn sample_ns(self, rng: &mut Rng64) -> u64 {
        match self {
            ThinkTime::Zero => 0,
            ThinkTime::Fixed { ns } => ns,
            ThinkTime::Exponential { mean_ns } => {
                let u = rng.next_f64();
                (-(1.0 - u).ln() * mean_ns as f64) as u64
            }
            ThinkTime::LogNormal { median_ns, sigma } => {
                let z = rng.next_gaussian();
                // Cap at e^6 ≈ 400× the median so one extreme draw cannot
                // park a client for a simulated hour.
                let f = (sigma * z).clamp(-6.0, 6.0).exp();
                (median_ns as f64 * f) as u64
            }
        }
    }
}

/// YCSB-style Zipfian generator over `0..n` with skew `theta` (0.99 is
/// the YCSB default — a few percent of keys draw most of the traffic).
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0 && theta > 0.0 && theta < 1.0);
        let zeta = |count: u64| -> f64 { (1..=count).map(|i| 1.0 / (i as f64).powf(theta)).sum() };
        let zetan = zeta(n);
        let zeta2 = zeta(2.min(n));
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    pub fn sample(&self, rng: &mut Rng64) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1.min(self.n - 1);
        }
        let v = ((self.eta * u - self.eta + 1.0).powf(self.alpha) * self.n as f64) as u64;
        v.min(self.n - 1)
    }

    pub fn universe(&self) -> u64 {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_are_deterministic_and_independent() {
        let a: Vec<u64> = {
            let mut r = Rng64::for_txn(7, 3, 9);
            (0..4).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng64::for_txn(7, 3, 9);
            (0..4).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut c = Rng64::for_txn(7, 3, 10);
        assert_ne!(a[0], c.next_u64());
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = Rng64::new(42);
        let t = ThinkTime::Exponential { mean_ns: 1_000_000 };
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| t.sample_ns(&mut r)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 1_000_000.0).abs() < 50_000.0, "mean {mean}");
    }

    #[test]
    fn lognormal_median_is_close() {
        let mut r = Rng64::new(43);
        let t = ThinkTime::LogNormal {
            median_ns: 2_000_000,
            sigma: 1.0,
        };
        let mut xs: Vec<u64> = (0..10_001).map(|_| t.sample_ns(&mut r)).collect();
        xs.sort_unstable();
        let median = xs[xs.len() / 2] as f64;
        assert!((median - 2_000_000.0).abs() < 200_000.0, "median {median}");
        // And the mean exceeds the median (right skew).
        let mean = xs.iter().sum::<u64>() as f64 / xs.len() as f64;
        assert!(mean > median);
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let z = Zipf::new(10_000, 0.99);
        let mut r = Rng64::new(44);
        let n = 50_000;
        let mut head = 0u64;
        for _ in 0..n {
            let s = z.sample(&mut r);
            assert!(s < 10_000);
            if s < 100 {
                head += 1;
            }
        }
        // Top 1% of keys should draw well over a third of the samples.
        assert!(head * 3 > n, "head draws {head}/{n}");
    }
}
