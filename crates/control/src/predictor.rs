//! Short-horizon load prediction.
//!
//! Reactive control alone lags a fast diurnal ramp by one settling time;
//! EVOLVE therefore feeds a *predicted* load into the horizontal scaler.
//! [`LoadPredictor`] runs Holt's double-exponential smoothing (level +
//! trend) and quotes `forecast(horizon) × (1 + margin)`, clamped
//! non-negative, falling back to the last observation while the filter
//! warms up.

use evolve_types::codec::{Codec, Decoder, Encoder};
use evolve_types::Result;

/// Holt level gain in `(0, 1]`.
const ALPHA: f64 = 0.5;
/// Holt trend gain in `(0, 1]`.
const BETA: f64 = 0.3;
/// How many control periods ahead the forecast looks.
const HORIZON_STEPS: f64 = 2.0;
/// Relative safety margin added on top of the forecast.
const MARGIN: f64 = 0.1;

/// Holt-linear load forecaster with a safety margin: two control periods
/// ahead, plus 10 %.
///
/// # Examples
///
/// ```
/// use evolve_control::LoadPredictor;
///
/// let mut p = LoadPredictor::new();
/// for i in 0..50 {
///     p.observe(10.0 * f64::from(i)); // ramp: +10 per control period
/// }
/// // Forecast 2 periods ahead of t=49 (≈510) plus the 10% margin.
/// let f = p.predicted();
/// assert!(f > 510.0 && f < 600.0, "forecast {f}");
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoadPredictor {
    /// Smoothed level, `None` before the first observation.
    level: Option<f64>,
    /// Per-period trend estimate.
    trend: f64,
    last_observation: Option<f64>,
    observations: u64,
}

impl LoadPredictor {
    /// Creates a predictor with no observations.
    #[must_use]
    pub fn new() -> Self {
        LoadPredictor::default()
    }

    /// Feeds one load observation (e.g. request rate this control period).
    /// Non-finite observations are ignored.
    pub fn observe(&mut self, load: f64) {
        if !load.is_finite() {
            return;
        }
        let load = load.max(0.0);
        match self.level {
            None => {
                self.level = Some(load);
                self.trend = 0.0;
            }
            Some(prev_level) => {
                let level = ALPHA * load + (1.0 - ALPHA) * (prev_level + self.trend);
                self.trend = BETA * (level - prev_level) + (1.0 - BETA) * self.trend;
                self.level = Some(level);
            }
        }
        self.last_observation = Some(load);
        self.observations += 1;
    }

    /// The margin-inflated forecast for the horizon. While fewer than
    /// three observations have arrived, returns the last observation
    /// (with margin) instead of trusting an unwarmed trend; 0 before any
    /// observation.
    #[must_use]
    pub fn predicted(&self) -> f64 {
        let base = if self.observations < 3 {
            self.last_observation.unwrap_or(0.0)
        } else {
            self.raw_forecast()
        };
        base * (1.0 + MARGIN)
    }

    /// The raw (margin-free) forecast: the smoothed level plus the trend
    /// over the horizon, clamped non-negative; 0 before any observation.
    #[must_use]
    pub fn raw_forecast(&self) -> f64 {
        self.level.map_or(0.0, |l| l + self.trend * HORIZON_STEPS).max(0.0)
    }

    /// Per-period trend estimate (positive = load rising).
    #[must_use]
    pub fn trend(&self) -> f64 {
        self.trend
    }
}

impl Codec for LoadPredictor {
    fn encode(&self, enc: &mut Encoder) {
        self.level.encode(enc);
        self.trend.encode(enc);
        self.last_observation.encode(enc);
        self.observations.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(LoadPredictor {
            level: Option::<f64>::decode(dec)?,
            trend: f64::decode(dec)?,
            last_observation: Option::<f64>::decode(dec)?,
            observations: u64::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_predictor_returns_zero() {
        let p = LoadPredictor::new();
        assert_eq!(p.predicted(), 0.0);
        assert_eq!(p.raw_forecast(), 0.0);
    }

    #[test]
    fn warmup_uses_last_observation() {
        let mut p = LoadPredictor::new();
        p.observe(100.0);
        assert!((p.predicted() - 110.0).abs() < 1e-9);
    }

    #[test]
    fn rising_load_is_anticipated() {
        let mut p = LoadPredictor::new();
        for i in 0..100 {
            p.observe(5.0 * f64::from(i));
        }
        // Last observation 495; forecast 2 ahead ≈ 505.
        assert!(p.raw_forecast() > 495.0, "forecast {}", p.raw_forecast());
        assert!(p.trend() > 4.0);
    }

    #[test]
    fn falling_load_forecast_stays_non_negative() {
        let mut p = LoadPredictor::new();
        for i in (0..20).rev() {
            p.observe(f64::from(i));
        }
        assert!(p.predicted() >= 0.0);
    }

    #[test]
    fn margin_inflates_forecast() {
        let mut p = LoadPredictor::new();
        for _ in 0..10 {
            p.observe(100.0);
        }
        assert!((p.raw_forecast() - 100.0).abs() < 1e-6);
        assert!((p.predicted() - 110.0).abs() < 1e-6);
    }

    #[test]
    fn non_finite_observations_ignored() {
        let mut p = LoadPredictor::new();
        p.observe(f64::NAN);
        p.observe(f64::INFINITY);
        assert_eq!(p.predicted(), 0.0);
        p.observe(-5.0); // clamped to 0
        assert_eq!(p.last_observation, Some(0.0));
    }

    #[test]
    fn holt_tracks_linear_ramp() {
        let mut p = LoadPredictor::new();
        for i in 0..200 {
            p.observe(3.0 * f64::from(i) + 10.0);
        }
        // After a long ramp the trend should be ~3 per step.
        assert!((p.trend() - 3.0).abs() < 0.1, "trend {}", p.trend());
        let fc = p.raw_forecast();
        let actual_future = 3.0 * (199.0 + HORIZON_STEPS) + 10.0;
        assert!((fc - actual_future).abs() < 5.0, "forecast {fc} vs {actual_future}");
    }

    #[test]
    fn holt_forecast_before_data_is_zero() {
        let p = LoadPredictor::new();
        assert_eq!(p.raw_forecast(), 0.0);
        assert_eq!(p.level, None);
    }

    #[test]
    fn holt_constant_input_has_zero_trend() {
        let mut p = LoadPredictor::new();
        for _ in 0..50 {
            p.observe(8.0);
        }
        assert!(p.trend().abs() < 1e-9);
        assert!((p.raw_forecast() - 8.0).abs() < 1e-6);
    }
}
