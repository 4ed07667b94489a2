//! Virtual time. The unit is the nanosecond, held in a `u64`: enough for
//! ~584 simulated years, far beyond any experiment here.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// One nanosecond, as a [`SimDuration`] multiplier.
pub const NANOS: u64 = 1;
/// One microsecond in nanoseconds.
pub const MICROS: u64 = 1_000;
/// One millisecond in nanoseconds.
pub const MILLIS: u64 = 1_000_000;
/// One second in nanoseconds.
pub const SECS: u64 = 1_000_000_000;

/// A span of virtual time, in nanoseconds.
///
/// Kept as a plain newtype rather than `std::time::Duration` so arithmetic
/// stays in one integer domain and formatting matches the paper's units
/// (microseconds for RDMA, milliseconds for disk, seconds for elapsed time).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(pub u64);

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * MICROS)
    }
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * MILLIS)
    }
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * SECS)
    }
    /// From a floating-point microsecond count (latency model outputs).
    pub fn from_micros_f64(us: f64) -> Self {
        SimDuration((us * MICROS as f64).round().max(0.0) as u64)
    }

    pub fn as_nanos(self) -> u64 {
        self.0
    }
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / MICROS as f64
    }
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / MILLIS as f64
    }
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / SECS as f64
    }

    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Scale by a dimensionless factor (e.g. load-dependent slowdown).
    pub fn mul_f64(self, k: f64) -> SimDuration {
        SimDuration((self.0 as f64 * k).round().max(0.0) as u64)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", human_ns(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", human_ns(self.0))
    }
}

/// An instant on the virtual clock, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub fn as_nanos(self) -> u64 {
        self.0
    }
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / SECS as f64
    }
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / MILLIS as f64
    }

    /// Time elapsed since `earlier`. Panics in debug builds if `earlier`
    /// is in the future — that is always a scenario bug.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        debug_assert!(earlier.0 <= self.0, "negative elapsed time");
        SimDuration(self.0 - earlier.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", human_ns(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", human_ns(self.0))
    }
}

/// Render a nanosecond count with the most natural unit.
fn human_ns(ns: u64) -> String {
    if ns >= SECS {
        format!("{:.3}s", ns as f64 / SECS as f64)
    } else if ns >= MILLIS {
        format!("{:.3}ms", ns as f64 / MILLIS as f64)
    } else if ns >= MICROS {
        format!("{:.3}us", ns as f64 / MICROS as f64)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_micros(1).0, MICROS);
        assert_eq!(SimDuration::from_millis(2).0, 2 * MILLIS);
        assert_eq!(SimDuration::from_secs(3).0, 3 * SECS);
        assert_eq!(SimDuration::from_micros_f64(1.5).0, 1_500);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_micros(10);
        assert_eq!(t.as_nanos(), 10_000);
        assert_eq!(t.since(SimTime::ZERO), SimDuration::from_micros(10));
    }

    #[test]
    fn negative_float_duration_clamps_to_zero() {
        assert_eq!(SimDuration::from_micros_f64(-4.0), SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_micros(100).mul_f64(1.5);
        assert_eq!(d, SimDuration::from_micros(150));
    }

    #[test]
    fn human_formatting_picks_unit() {
        assert_eq!(format!("{}", SimDuration(500)), "500ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
    }

    #[test]
    fn conversions_to_float() {
        assert!((SimDuration::from_millis(1).as_micros_f64() - 1000.0).abs() < 1e-9);
        assert!((SimDuration::from_secs(1).as_millis_f64() - 1000.0).abs() < 1e-9);
        assert!((SimTime(SECS).as_secs_f64() - 1.0).abs() < 1e-12);
    }
}
