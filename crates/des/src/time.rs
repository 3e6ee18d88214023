//! Simulation clock type.
//!
//! Time is measured in seconds as an `f64`. `SimTime` wraps the raw value to
//! provide a total order (simulation code never produces NaN; the wrapper
//! enforces this at construction in debug builds) and arithmetic that keeps
//! intent clear at call sites.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in seconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SimTime(f64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0.0);
    /// A time later than every event a simulation can schedule.
    pub const FAR_FUTURE: SimTime = SimTime(f64::INFINITY);

    /// Wraps a raw number of seconds.
    ///
    /// # Panics
    /// Panics (debug builds only) if `secs` is NaN.
    #[inline]
    pub fn new(secs: f64) -> Self {
        debug_assert!(!secs.is_nan(), "SimTime cannot be NaN");
        SimTime(secs)
    }

    /// The raw value in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Elapsed seconds since `earlier` (may be negative if `earlier` is later).
    #[inline]
    pub fn since(self, earlier: SimTime) -> f64 {
        self.0 - earlier.0
    }
}

impl Eq for SimTime {}

impl Ord for SimTime {
    #[inline]
    #[expect(
        clippy::disallowed_methods,
        reason = "SimTime::new rejects NaN only under debug_assert!, so a release \
                  build can carry one; the expect() then turns it into a loud \
                  panic instead of a silent reorder"
    )]
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.partial_cmp(&other.0).expect("SimTime is never NaN")
    }
}

impl PartialOrd for SimTime {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Add<f64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, secs: f64) -> SimTime {
        SimTime::new(self.0 + secs)
    }
}

impl AddAssign<f64> for SimTime {
    #[inline]
    fn add_assign(&mut self, secs: f64) {
        *self = *self + secs;
    }
}

impl Sub for SimTime {
    type Output = f64;
    #[inline]
    fn sub(self, other: SimTime) -> f64 {
        self.0 - other.0
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_total() {
        let a = SimTime::new(1.0);
        let b = SimTime::new(2.0);
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert!(a < SimTime::FAR_FUTURE);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::new(10.0) + 5.0;
        assert_eq!(t.as_secs(), 15.0);
        assert_eq!(t - SimTime::new(10.0), 5.0);
        assert_eq!(t.since(SimTime::ZERO), 15.0);
        let mut u = SimTime::ZERO;
        u += 3.5;
        assert_eq!(u.as_secs(), 3.5);
    }

    #[test]
    fn far_future_not_finite() {
        assert!(!SimTime::FAR_FUTURE.as_secs().is_finite());
        assert!(SimTime::ZERO.as_secs().is_finite());
    }

    #[test]
    fn display_renders_seconds() {
        assert_eq!(SimTime::new(1.5).to_string(), "1.500s");
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)]
    fn nan_rejected() {
        let _ = SimTime::new(f64::NAN);
    }
}
