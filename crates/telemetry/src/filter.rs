//! Smoothing and short-horizon prediction filters.
//!
//! Raw scraped signals (request rate, usage, latency) are noisy; the
//! controllers consume filtered versions. [`Ewma`] is the workhorse
//! smoother and [`HoltLinear`] adds a trend term for one-step-ahead load
//! prediction.

use evolve_types::codec::{Codec, Decoder, Encoder};
use evolve_types::Result;

/// Exponentially-weighted moving average.
///
/// # Examples
///
/// ```
/// use evolve_telemetry::Ewma;
///
/// let mut f = Ewma::new(0.5);
/// f.observe(10.0);
/// f.observe(20.0);
/// assert_eq!(f.value(), Some(15.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    state: Option<f64>,
}

impl Ewma {
    /// Creates a filter with smoothing factor `alpha` in `(0, 1]`; larger
    /// alpha tracks faster, smaller alpha smooths harder.
    ///
    /// # Panics
    ///
    /// Panics when `alpha` is not in `(0, 1]`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "EWMA alpha must be in (0, 1]");
        Ewma { alpha, state: None }
    }

    /// Feeds an observation and returns the updated estimate.
    pub fn observe(&mut self, value: f64) -> f64 {
        let next = match self.state {
            None => value,
            Some(prev) => prev + self.alpha * (value - prev),
        };
        self.state = Some(next);
        next
    }

    /// Current estimate, `None` before the first observation.
    #[must_use]
    pub fn value(&self) -> Option<f64> {
        self.state
    }

    /// Current estimate, or `default` before the first observation.
    #[must_use]
    pub fn value_or(&self, default: f64) -> f64 {
        self.state.unwrap_or(default)
    }

    /// Discards all state.
    pub fn reset(&mut self) {
        self.state = None;
    }
}

impl Codec for Ewma {
    fn encode(&self, enc: &mut Encoder) {
        self.alpha.encode(enc);
        self.state.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(Ewma { alpha: f64::decode(dec)?, state: Option::<f64>::decode(dec)? })
    }
}

/// Holt's double-exponential smoothing: level + trend, with h-step-ahead
/// forecasts. The EVOLVE load predictor uses this to scale *ahead* of
/// diurnal ramps instead of only reacting.
///
/// # Examples
///
/// ```
/// use evolve_telemetry::HoltLinear;
///
/// let mut f = HoltLinear::new(0.5, 0.3);
/// for i in 0..50 {
///     f.observe(2.0 * f64::from(i));
/// }
/// // Forecast 5 steps ahead of t=49: roughly 2*54.
/// let fc = f.forecast(5.0);
/// assert!((fc - 108.0).abs() < 2.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HoltLinear {
    alpha: f64,
    beta: f64,
    level: Option<f64>,
    trend: f64,
}

impl HoltLinear {
    /// Creates a filter with level gain `alpha` and trend gain `beta`,
    /// both in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics when either gain is outside `(0, 1]`.
    #[must_use]
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "Holt alpha must be in (0, 1]");
        assert!(beta > 0.0 && beta <= 1.0, "Holt beta must be in (0, 1]");
        HoltLinear { alpha, beta, level: None, trend: 0.0 }
    }

    /// Feeds an observation (one per fixed control interval).
    pub fn observe(&mut self, value: f64) {
        match self.level {
            None => {
                self.level = Some(value);
                self.trend = 0.0;
            }
            Some(prev_level) => {
                let level = self.alpha * value + (1.0 - self.alpha) * (prev_level + self.trend);
                self.trend = self.beta * (level - prev_level) + (1.0 - self.beta) * self.trend;
                self.level = Some(level);
            }
        }
    }

    /// Smoothed level, `None` before the first observation.
    #[must_use]
    pub fn level(&self) -> Option<f64> {
        self.level
    }

    /// Per-step trend estimate.
    #[must_use]
    pub fn trend(&self) -> f64 {
        self.trend
    }

    /// Forecast `steps` control intervals ahead (0 = smoothed current
    /// value). Returns 0 before the first observation.
    #[must_use]
    pub fn forecast(&self, steps: f64) -> f64 {
        self.level.map_or(0.0, |l| l + self.trend * steps)
    }
}

impl Codec for HoltLinear {
    fn encode(&self, enc: &mut Encoder) {
        self.alpha.encode(enc);
        self.beta.encode(enc);
        self.level.encode(enc);
        self.trend.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(HoltLinear {
            alpha: f64::decode(dec)?,
            beta: f64::decode(dec)?,
            level: Option::<f64>::decode(dec)?,
            trend: f64::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_first_observation_passes_through() {
        let mut f = Ewma::new(0.1);
        assert_eq!(f.value(), None);
        assert_eq!(f.observe(42.0), 42.0);
        assert_eq!(f.value(), Some(42.0));
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut f = Ewma::new(0.3);
        for _ in 0..100 {
            f.observe(5.0);
        }
        assert!((f.value().unwrap() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn ewma_smooths_steps() {
        let mut f = Ewma::new(0.5);
        f.observe(0.0);
        let after_step = f.observe(100.0);
        assert_eq!(after_step, 50.0);
    }

    #[test]
    fn ewma_alpha_one_tracks_exactly() {
        let mut f = Ewma::new(1.0);
        f.observe(1.0);
        f.observe(9.0);
        assert_eq!(f.value(), Some(9.0));
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn ewma_reset_clears_state() {
        let mut f = Ewma::new(0.5);
        f.observe(1.0);
        f.reset();
        assert_eq!(f.value(), None);
        assert_eq!(f.value_or(7.0), 7.0);
    }

    #[test]
    fn holt_tracks_linear_ramp() {
        let mut f = HoltLinear::new(0.5, 0.3);
        for i in 0..200 {
            f.observe(3.0 * f64::from(i) + 10.0);
        }
        // After a long ramp the trend should be ~3 per step.
        assert!((f.trend() - 3.0).abs() < 0.1, "trend {}", f.trend());
        let fc = f.forecast(10.0);
        let actual_future = 3.0 * 209.0 + 10.0;
        assert!((fc - actual_future).abs() < 5.0, "forecast {fc} vs {actual_future}");
    }

    #[test]
    fn holt_forecast_before_data_is_zero() {
        let f = HoltLinear::new(0.5, 0.5);
        assert_eq!(f.forecast(3.0), 0.0);
        assert_eq!(f.level(), None);
    }

    #[test]
    fn holt_constant_input_has_zero_trend() {
        let mut f = HoltLinear::new(0.4, 0.4);
        for _ in 0..50 {
            f.observe(8.0);
        }
        assert!(f.trend().abs() < 1e-9);
        assert!((f.forecast(100.0) - 8.0).abs() < 1e-6);
    }
}
