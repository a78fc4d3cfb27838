//! Integer nanosecond time types used throughout the simulator.
//!
//! All simulation time is kept in integer nanoseconds so that event ordering
//! is total and deterministic — floating-point timestamps would make schedule
//! comparison and regression tests fragile.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since step start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeNs(pub u64);

/// A span of simulation time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DurNs(pub u64);

impl TimeNs {
    /// The zero instant (start of a training step).
    pub const ZERO: TimeNs = TimeNs(0);

    /// Largest representable instant; used as an "unreached" sentinel.
    pub const MAX: TimeNs = TimeNs(u64::MAX);

    /// Returns the duration elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: TimeNs) -> DurNs {
        DurNs(self.0.saturating_sub(earlier.0))
    }

    /// Converts to fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Converts to fractional milliseconds (for reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Converts to fractional microseconds (for reporting only).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Returns the later of two instants.
    pub fn max(self, other: TimeNs) -> TimeNs {
        TimeNs(self.0.max(other.0))
    }

    /// Returns the earlier of two instants.
    pub fn min(self, other: TimeNs) -> TimeNs {
        TimeNs(self.0.min(other.0))
    }
}

impl DurNs {
    /// The zero-length duration.
    pub const ZERO: DurNs = DurNs(0);

    /// Builds a duration from fractional seconds, rounding to nanoseconds.
    ///
    /// Negative or non-finite inputs clamp to zero: analytic cost models can
    /// produce tiny negative values from subtraction and those must not poison
    /// the integer clock.
    pub fn from_secs_f64(secs: f64) -> DurNs {
        if !secs.is_finite() || secs <= 0.0 {
            return DurNs(0);
        }
        DurNs((secs * 1e9).round() as u64)
    }

    /// Builds a duration from integer microseconds.
    pub const fn from_micros(us: u64) -> DurNs {
        DurNs(us * 1_000)
    }

    /// Builds a duration from integer milliseconds.
    pub const fn from_millis(ms: u64) -> DurNs {
        DurNs(ms * 1_000_000)
    }

    /// Converts to fractional seconds (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Converts to fractional milliseconds (for reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Converts to fractional microseconds (for reporting only).
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// True when the duration is exactly zero.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: DurNs) -> DurNs {
        DurNs(self.0.max(other.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: DurNs) -> DurNs {
        DurNs(self.0.min(other.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: DurNs) -> DurNs {
        DurNs(self.0.saturating_sub(other.0))
    }
}

impl Add<DurNs> for TimeNs {
    type Output = TimeNs;
    fn add(self, rhs: DurNs) -> TimeNs {
        TimeNs(self.0 + rhs.0)
    }
}

impl AddAssign<DurNs> for TimeNs {
    fn add_assign(&mut self, rhs: DurNs) {
        self.0 += rhs.0;
    }
}

impl Sub<DurNs> for TimeNs {
    type Output = TimeNs;
    fn sub(self, rhs: DurNs) -> TimeNs {
        TimeNs(self.0.saturating_sub(rhs.0))
    }
}

impl Add for DurNs {
    type Output = DurNs;
    fn add(self, rhs: DurNs) -> DurNs {
        DurNs(self.0 + rhs.0)
    }
}

impl AddAssign for DurNs {
    fn add_assign(&mut self, rhs: DurNs) {
        self.0 += rhs.0;
    }
}

impl Sub for DurNs {
    type Output = DurNs;
    fn sub(self, rhs: DurNs) -> DurNs {
        DurNs(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for DurNs {
    fn sub_assign(&mut self, rhs: DurNs) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for DurNs {
    type Output = DurNs;
    fn mul(self, rhs: u64) -> DurNs {
        DurNs(self.0 * rhs)
    }
}

impl Div<u64> for DurNs {
    type Output = DurNs;
    fn div(self, rhs: u64) -> DurNs {
        DurNs(self.0 / rhs)
    }
}

impl Sum for DurNs {
    fn sum<I: Iterator<Item = DurNs>>(iter: I) -> DurNs {
        iter.fold(DurNs::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for TimeNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for DurNs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000_000 {
            write!(f, "{:.1}us", self.as_micros_f64())
        } else {
            write!(f, "{:.3}ms", self.as_millis_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = TimeNs::ZERO + DurNs::from_micros(300);
        assert_eq!(t.0, 300_000);
        assert_eq!(t.since(TimeNs::ZERO), DurNs::from_micros(300));
        assert_eq!(t.since(t + DurNs(1)), DurNs::ZERO);
    }

    #[test]
    fn duration_from_secs_clamps_bad_values() {
        assert_eq!(DurNs::from_secs_f64(-1.0), DurNs::ZERO);
        assert_eq!(DurNs::from_secs_f64(f64::NAN), DurNs::ZERO);
        assert_eq!(DurNs::from_secs_f64(f64::INFINITY), DurNs::ZERO);
        assert_eq!(DurNs::from_secs_f64(1.5e-9), DurNs(2));
    }

    #[test]
    fn duration_sum_and_scale() {
        let parts = [DurNs(10), DurNs(20), DurNs(30)];
        let total: DurNs = parts.iter().copied().sum();
        assert_eq!(total, DurNs(60));
        assert_eq!(total * 2, DurNs(120));
        assert_eq!(total / 3, DurNs(20));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", DurNs::from_micros(250)), "250.0us");
        assert_eq!(format!("{}", DurNs::from_millis(3)), "3.000ms");
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(DurNs(5).saturating_sub(DurNs(9)), DurNs::ZERO);
        assert_eq!(TimeNs(5) - DurNs(9), TimeNs::ZERO);
    }
}
