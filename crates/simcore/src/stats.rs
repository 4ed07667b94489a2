//! Measurement primitives: latency histograms, counters, time series.
//!
//! The figure harnesses need mean/percentile response times and elapsed
//! times; recovery experiments need distributions. [`Histogram`] is an
//! HDR-style log-linear histogram: 64 powers of two, each split into 16
//! linear sub-buckets, giving ≤ ~6% relative quantile error over the full
//! `u64` range — plenty for latencies spanning microseconds to minutes.

const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS; // 16 sub-buckets per power of two
const BUCKETS: usize = 64 * SUB;

/// Log-linear histogram of `u64` samples (typically nanoseconds).
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v < SUB as u64 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((v >> shift) & (SUB as u64 - 1)) as usize;
        ((msb - SUB_BITS + 1) as usize) * SUB + sub
    }

    /// Representative (lower-bound) value of a bucket.
    fn bucket_floor(idx: usize) -> u64 {
        let tier = idx / SUB;
        let sub = (idx % SUB) as u64;
        if tier == 0 {
            sub
        } else {
            let shift = (tier - 1) as u32;
            ((SUB as u64) + sub) << shift
        }
    }

    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.total += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Approximate quantile, `q` in `[0,1]`. Returns the floor of the
    /// bucket containing the q-th sample.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        if q >= 1.0 {
            return self.max;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor(i).max(self.min).min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn clear(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.total = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }
}

/// Monotone event counter.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Counter {
    pub fn inc(&mut self) {
        self.0 += 1;
    }
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// A (time, value) series, e.g. throughput over the run.
#[derive(Clone, Default)]
pub struct TimeSeries {
    pub points: Vec<(u64, f64)>,
}

impl TimeSeries {
    pub fn push(&mut self, t_ns: u64, v: f64) {
        self.points.push((t_ns, v));
    }

    pub fn len(&self) -> usize {
        self.points.len()
    }

    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    pub fn last(&self) -> Option<(u64, f64)> {
        self.points.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_sane() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn exact_for_small_values() {
        let mut h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.count(), 16);
        assert!((h.mean() - 7.5).abs() < 1e-9);
    }

    #[test]
    fn quantile_relative_error_bounded() {
        let mut h = Histogram::new();
        // Latency-like values spanning 1us..1s in ns.
        let mut v = 1_000u64;
        while v < 1_000_000_000 {
            h.record(v);
            v = v * 21 / 20 + 1;
        }
        for q in [0.1, 0.5, 0.9, 0.99] {
            let est = h.quantile(q) as f64;
            assert!(est > 0.0);
        }
        // p100 == max
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn quantile_accuracy_on_uniform_data() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v * 1000);
        }
        let p50 = h.p50() as f64;
        let expect = 5_000_000.0;
        let rel = (p50 - expect).abs() / expect;
        assert!(rel < 0.10, "p50={p50} rel={rel}");
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.max(), 1_000_000);
    }

    #[test]
    fn clear_resets() {
        let mut h = Histogram::new();
        h.record(5);
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn bucket_floor_below_value() {
        for v in [
            0u64,
            1,
            15,
            16,
            17,
            100,
            1023,
            1024,
            1_000_000,
            u32::MAX as u64,
        ] {
            let idx = Histogram::bucket_of(v);
            let floor = Histogram::bucket_floor(idx);
            assert!(floor <= v, "floor {floor} > v {v}");
            // Next bucket's floor is above v.
            if idx + 1 < BUCKETS {
                assert!(Histogram::bucket_floor(idx + 1) > v);
            }
        }
    }

    #[test]
    fn counter_and_series() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let mut s = TimeSeries::default();
        s.push(10, 1.5);
        assert_eq!(s.last(), Some((10, 1.5)));
        assert_eq!(s.len(), 1);
    }
}
