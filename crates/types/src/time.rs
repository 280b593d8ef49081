//! Simulated time with microsecond resolution.
//!
//! The discrete-event engine advances a single [`SimTime`] clock; all
//! latencies, control intervals and workload timings are [`SimDuration`]s.
//! Microsecond resolution comfortably covers both request service times
//! (hundreds of microseconds) and multi-hour experiment horizons
//! (`u64` microseconds overflow after ~584 000 years).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulated clock, measured in microseconds since the
/// start of the simulation.
///
/// # Examples
///
/// ```
/// use evolve_types::{SimDuration, SimTime};
///
/// let start = SimTime::ZERO;
/// let later = start + SimDuration::from_millis(1_500);
/// assert_eq!(later.as_micros(), 1_500_000);
/// assert_eq!(later - start, SimDuration::from_millis(1_500));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

/// A span of simulated time, measured in microseconds.
///
/// # Examples
///
/// ```
/// use evolve_types::SimDuration;
///
/// let d = SimDuration::from_secs(2) + SimDuration::from_millis(500);
/// assert_eq!(d.as_secs_f64(), 2.5);
/// assert_eq!(d * 2, SimDuration::from_secs(5));
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinite" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after the simulation start.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after the simulation start.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after the simulation start.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Microseconds since the simulation start.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the simulation start as a float.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration since `earlier`, or [`SimDuration::ZERO`] when `earlier`
    /// is in the future (saturating, never panics).
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition; `None` on overflow.
    #[must_use]
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration of `micros` microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration of `millis` milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a duration of `secs` seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration of `mins` minutes.
    #[must_use]
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000_000)
    }

    /// Creates a duration from a float number of seconds, rounding to the
    /// nearest microsecond (half away from zero) and clamping negatives
    /// to zero.
    #[must_use]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        let x = secs * 1e6;
        if x >= u64::MAX as f64 {
            return SimDuration::MAX;
        }
        // Integer rounding instead of `f64::round` — the baseline x86-64
        // target lowers `round` to a libm call, and this sits on the
        // arrival-sampling hot path. Above 2^53 every f64 is an integer.
        if x >= 9_007_199_254_740_992.0 {
            return SimDuration(x as u64);
        }
        let t = x as u64;
        // `x - t` is exact (Sterbenz for t >= 1, trivial for t == 0), so
        // the half-away-from-zero comparison matches `round` bit for bit.
        let frac = x - t as f64;
        SimDuration(if frac >= 0.5 { t + 1 } else { t })
    }

    /// Creates a duration from a float number of seconds, rounding **up**
    /// to the next microsecond (never zero for positive input). Use this
    /// for event deadlines that must make strict forward progress on the
    /// microsecond-resolution clock.
    #[must_use]
    pub fn from_secs_f64_ceil(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        let x = secs * 1e6;
        if x >= u64::MAX as f64 {
            return SimDuration::MAX;
        }
        // Integer ceiling instead of `f64::ceil` (libm call on baseline
        // x86-64); this runs once per finish estimate in the drain loop.
        let t = x as u64;
        SimDuration(if t as f64 == x { t } else { t + 1 })
    }

    /// The duration in whole microseconds.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in fractional milliseconds.
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The duration in fractional seconds.
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// `true` when the duration is zero.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics in debug builds when `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when ordering is not guaranteed.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(self.0 >= rhs.0, "SimTime subtraction went negative");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics when `rhs` is zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}µs", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_millis(5), SimTime::from_micros(5_000));
        assert_eq!(SimTime::from_secs(2), SimTime::from_millis(2_000));
        assert_eq!(SimDuration::from_mins(1), SimDuration::from_secs(60));
    }

    #[test]
    fn time_arithmetic_roundtrips() {
        let a = SimTime::from_secs(10);
        let d = SimDuration::from_millis(250);
        assert_eq!((a + d) - a, d);
        assert_eq!((a + d) - d, a);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(1));
    }

    #[test]
    fn duration_from_secs_f64_handles_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(0.001), SimDuration::from_millis(1));
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
    }

    #[test]
    fn duration_from_secs_f64_matches_libm_rounding() {
        // The integer fast paths must agree with `f64::round`/`f64::ceil`
        // bit for bit — the drain loop's event times depend on it.
        let libm_round = |secs: f64| {
            let micros = (secs * 1e6).round();
            if micros >= u64::MAX as f64 {
                u64::MAX
            } else {
                micros as u64
            }
        };
        let libm_ceil = |secs: f64| {
            let micros = (secs * 1e6).ceil();
            if micros >= u64::MAX as f64 {
                u64::MAX
            } else {
                micros as u64
            }
        };
        // Adversarial cases: exact halves, just-below-half ulp traps,
        // integers, sub-microsecond, around 2^53 and near u64::MAX.
        #[allow(clippy::excessive_precision)] // the ulp below 0.5 µs is the point
        let mut cases = vec![
            0.499_999_999_999_999_94e-6, // largest f64 below 0.5 µs
            0.5e-6,
            1.5e-6,
            2.5e-6,
            1e-7,
            1.0,
            1.000_000_5,
            9_007_199_254.740_992, // 2^53 µs in seconds
            9_007_199_254.740_994,
            1.8e13, // near u64::MAX µs
            f64::MAX,
        ];
        // A deterministic pseudo-random sweep across magnitudes.
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..10_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let mantissa = (x >> 11) as f64 / (1u64 << 53) as f64;
            let scale = 10f64.powi((x % 19) as i32 - 7);
            cases.push(mantissa * scale);
        }
        for secs in cases {
            assert_eq!(
                SimDuration::from_secs_f64(secs).as_micros(),
                libm_round(secs),
                "round mismatch at {secs:e}"
            );
            assert_eq!(
                SimDuration::from_secs_f64_ceil(secs).as_micros(),
                libm_ceil(secs),
                "ceil mismatch at {secs:e}"
            );
        }
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(3);
        assert_eq!(d * 2, SimDuration::from_secs(6));
        assert_eq!(d / 3, SimDuration::from_secs(1));
    }

    #[test]
    fn add_saturates_at_max() {
        assert_eq!(SimTime::MAX + SimDuration::from_secs(1), SimTime::MAX);
        assert_eq!(SimDuration::MAX + SimDuration::from_secs(1), SimDuration::MAX);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_micros(42).to_string(), "42µs");
        assert_eq!(SimDuration::from_millis(42).to_string(), "42.000ms");
        assert_eq!(SimDuration::from_secs(42).to_string(), "42.000s");
        assert_eq!(SimTime::from_millis(1_500).to_string(), "t=1.500s");
    }

    #[test]
    fn ordering_is_chronological() {
        assert!(SimTime::from_secs(1) < SimTime::from_secs(2));
        assert!(SimDuration::from_millis(999) < SimDuration::from_secs(1));
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX.checked_add(SimDuration::from_micros(1)).is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_secs(1)),
            Some(SimTime::from_secs(1))
        );
    }
}
