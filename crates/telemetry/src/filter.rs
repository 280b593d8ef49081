//! Smoothing filters.
//!
//! Raw scraped signals (request rate, usage, latency) are noisy; the
//! controllers consume filtered versions. [`Ewma`] is the workhorse
//! smoother.

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

    /// Writes the estimate, but not alpha, which the owner rebuilds.
    pub fn checkpoint(&self, enc: &mut Encoder) {
        self.state.encode(enc);
    }

    /// Overwrites the estimate with one [`checkpoint`](Self::checkpoint)
    /// wrote; alpha stays this filter's own.
    ///
    /// # Errors
    ///
    /// Returns the decoder's error when the bytes are truncated or malformed.
    pub fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<()> {
        self.state = Option::<f64>::decode(dec)?;
        Ok(())
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
    fn ewma_restore_keeps_its_own_alpha() {
        let mut writer = Ewma::new(0.3);
        writer.observe(10.0);
        writer.observe(20.0);
        let mut enc = Encoder::new();
        writer.checkpoint(&mut enc);
        let bytes = enc.into_bytes();
        let mut reader = Ewma::new(0.5);
        reader.restore(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(reader.value(), writer.value());
        // The next step smooths at the reader's alpha, not the writer's.
        let state = writer.value().unwrap();
        assert_eq!(reader.observe(40.0), state + 0.5 * (40.0 - state));
        assert_eq!(writer.observe(40.0), state + 0.3 * (40.0 - state));
    }
}
