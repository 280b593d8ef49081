//! Short-horizon load prediction.
//!
//! Reactive control alone lags a fast diurnal ramp by one settling time;
//! EVOLVE therefore feeds a *predicted* load into the horizontal scaler.
//! [`LoadPredictor`] wraps Holt double-exponential smoothing with a safety
//! margin: the predictor quotes `forecast(horizon) × (1 + margin)`,
//! clamped non-negative, and falls back to the last observation while the
//! filter warms up.

use evolve_telemetry::HoltLinear;
use evolve_types::codec::{Codec, Decoder, Encoder};
use evolve_types::Result;

/// Holt-linear load forecaster with a safety margin.
///
/// # Examples
///
/// ```
/// use evolve_control::LoadPredictor;
///
/// let mut p = LoadPredictor::new(0.4, 0.2, 3.0, 0.1);
/// for i in 0..50 {
///     p.observe(10.0 * f64::from(i)); // ramp: +10 per control period
/// }
/// // Forecast 3 periods ahead of t=49 (≈520) plus the 10% margin.
/// let f = p.predicted();
/// assert!(f > 520.0 && f < 650.0, "forecast {f}");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPredictor {
    holt: HoltLinear,
    horizon_steps: f64,
    margin: f64,
    last_observation: Option<f64>,
    observations: u64,
}

impl LoadPredictor {
    /// Creates a predictor.
    ///
    /// * `alpha`, `beta` — Holt level/trend gains in `(0, 1]`;
    /// * `horizon_steps` — how many control periods ahead to forecast;
    /// * `margin` — relative safety margin added on top (≥ 0).
    ///
    /// # Panics
    ///
    /// Panics when `horizon_steps` is negative or `margin < 0` (gain
    /// validation is inherited from [`HoltLinear`]).
    #[must_use]
    pub fn new(alpha: f64, beta: f64, horizon_steps: f64, margin: f64) -> Self {
        assert!(horizon_steps >= 0.0, "horizon must be non-negative");
        assert!(margin >= 0.0, "margin must be non-negative");
        LoadPredictor {
            holt: HoltLinear::new(alpha, beta),
            horizon_steps,
            margin,
            last_observation: None,
            observations: 0,
        }
    }

    /// Feeds one load observation (e.g. request rate this control period).
    /// Non-finite observations are ignored.
    pub fn observe(&mut self, load: f64) {
        if !load.is_finite() {
            return;
        }
        let load = load.max(0.0);
        self.holt.observe(load);
        self.last_observation = Some(load);
        self.observations += 1;
    }

    /// The margin-inflated forecast for `horizon_steps` ahead. While fewer
    /// than three observations have arrived, returns the last observation
    /// (with margin) instead of trusting an unwarmed trend; 0 before any
    /// observation.
    #[must_use]
    pub fn predicted(&self) -> f64 {
        let base = if self.observations < 3 {
            self.last_observation.unwrap_or(0.0)
        } else {
            self.holt.forecast(self.horizon_steps).max(0.0)
        };
        base * (1.0 + self.margin)
    }

    /// The raw (margin-free) forecast.
    #[must_use]
    pub fn raw_forecast(&self) -> f64 {
        self.holt.forecast(self.horizon_steps).max(0.0)
    }

    /// The most recent observation.
    #[must_use]
    pub fn last_observation(&self) -> Option<f64> {
        self.last_observation
    }

    /// Per-period trend estimate (positive = load rising).
    #[must_use]
    pub fn trend(&self) -> f64 {
        self.holt.trend()
    }
}

impl Codec for LoadPredictor {
    fn encode(&self, enc: &mut Encoder) {
        self.holt.encode(enc);
        self.horizon_steps.encode(enc);
        self.margin.encode(enc);
        self.last_observation.encode(enc);
        self.observations.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(LoadPredictor {
            holt: HoltLinear::decode(dec)?,
            horizon_steps: f64::decode(dec)?,
            margin: f64::decode(dec)?,
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
        let p = LoadPredictor::new(0.5, 0.3, 2.0, 0.2);
        assert_eq!(p.predicted(), 0.0);
        assert_eq!(p.last_observation(), None);
    }

    #[test]
    fn warmup_uses_last_observation() {
        let mut p = LoadPredictor::new(0.5, 0.3, 5.0, 0.1);
        p.observe(100.0);
        assert!((p.predicted() - 110.0).abs() < 1e-9);
    }

    #[test]
    fn rising_load_is_anticipated() {
        let mut p = LoadPredictor::new(0.5, 0.3, 3.0, 0.0);
        for i in 0..100 {
            p.observe(5.0 * f64::from(i));
        }
        // Last observation 495; forecast 3 ahead ≈ 510.
        assert!(p.predicted() > 495.0, "prediction {}", p.predicted());
        assert!(p.trend() > 4.0);
    }

    #[test]
    fn falling_load_forecast_stays_non_negative() {
        let mut p = LoadPredictor::new(0.8, 0.6, 10.0, 0.0);
        for i in (0..20).rev() {
            p.observe(f64::from(i));
        }
        assert!(p.predicted() >= 0.0);
    }

    #[test]
    fn margin_inflates_forecast() {
        let mut a = LoadPredictor::new(0.5, 0.3, 0.0, 0.0);
        let mut b = LoadPredictor::new(0.5, 0.3, 0.0, 0.5);
        for _ in 0..10 {
            a.observe(100.0);
            b.observe(100.0);
        }
        assert!((a.predicted() - 100.0).abs() < 1e-6);
        assert!((b.predicted() - 150.0).abs() < 1e-6);
        assert!((b.raw_forecast() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn non_finite_observations_ignored() {
        let mut p = LoadPredictor::new(0.5, 0.3, 1.0, 0.0);
        p.observe(f64::NAN);
        p.observe(f64::INFINITY);
        assert_eq!(p.predicted(), 0.0);
        p.observe(-5.0); // clamped to 0
        assert_eq!(p.last_observation(), Some(0.0));
    }
}
