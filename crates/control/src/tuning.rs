//! On-line gain adaptation.
//!
//! The Skynet/EVOLVE controllers "adjust [their] parameters on the fly".
//! [`AdaptiveTuner`] is a rule-based adaptor run every control period: it
//! watches the recent error signal, detects **oscillation** (frequent
//! sign changes → the loop gain is too high → shrink `kp`, `ki`) and
//! **sluggishness** (persistent one-sided error → the loop gain is too
//! low → grow `ki`, `kp`), within configured bounds.

use std::collections::VecDeque;

use evolve_types::codec::{Codec, Decoder, Encoder};
use evolve_types::Result;
use serde::{Deserialize, Serialize};

use crate::pid::PidController;

/// Configuration for [`AdaptiveTuner`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveTunerConfig {
    /// Number of recent control periods inspected.
    pub window: usize,
    /// Fraction of sign changes (per window pair) above which the loop is
    /// declared oscillatory.
    pub oscillation_threshold: f64,
    /// Fraction of same-signed, above-deadband errors above which the loop
    /// is declared sluggish.
    pub sluggish_threshold: f64,
    /// Errors with |e| below this are treated as "settled" noise.
    pub deadband: f64,
    /// Multiplicative shrink applied on oscillation (e.g. 0.7).
    pub shrink: f64,
    /// Multiplicative growth applied on sluggishness (e.g. 1.3).
    pub grow: f64,
    /// Lower bound on each gain after adaptation.
    pub min_gain: f64,
    /// Upper bound on each gain after adaptation.
    pub max_gain: f64,
}

impl Default for AdaptiveTunerConfig {
    fn default() -> Self {
        AdaptiveTunerConfig {
            window: 12,
            oscillation_threshold: 0.45,
            sluggish_threshold: 0.8,
            deadband: 0.05,
            shrink: 0.7,
            grow: 1.3,
            min_gain: 0.01,
            max_gain: 50.0,
        }
    }
}

/// What the tuner decided on the latest step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum Adjustment {
    None,
    Shrunk,
    Grew,
}

/// Rule-based on-line gain adaptor.
///
/// # Examples
///
/// ```
/// use evolve_control::{AdaptiveTuner, AdaptiveTunerConfig, PidConfig, PidController};
///
/// let mut pid = PidController::new(PidConfig::new(10.0, 1.0, 0.0));
/// let mut tuner = AdaptiveTuner::new(AdaptiveTunerConfig::default());
/// // Feed an oscillating error; the tuner shrinks the gains.
/// for i in 0..40 {
///     let e = if i % 2 == 0 { 1.0 } else { -1.0 };
///     tuner.observe_and_adapt(e, &mut pid);
/// }
/// assert!(pid.config().kp() < 10.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveTuner {
    config: AdaptiveTunerConfig,
    errors: VecDeque<f64>,
    adaptations: u64,
    cooldown: usize,
}

impl AdaptiveTuner {
    /// Creates a tuner.
    ///
    /// # Panics
    ///
    /// Panics when the window is smaller than 4 or the multipliers do not
    /// bracket 1 (`shrink < 1 < grow`).
    #[must_use]
    pub fn new(config: AdaptiveTunerConfig) -> Self {
        assert!(config.window >= 4, "tuner window must be at least 4");
        assert!(
            config.shrink < 1.0 && config.grow > 1.0,
            "shrink must be < 1 and grow must be > 1"
        );
        assert!(config.min_gain > 0.0 && config.min_gain < config.max_gain);
        AdaptiveTuner { config, errors: VecDeque::new(), adaptations: 0, cooldown: 0 }
    }

    /// Number of gain adjustments applied so far.
    #[must_use]
    pub fn adaptations(&self) -> u64 {
        self.adaptations
    }

    /// Records the latest control error and, when the window justifies it,
    /// rewrites the controller's gains in place. Returns `true` when the
    /// gains changed.
    pub fn observe_and_adapt(&mut self, error: f64, pid: &mut PidController) -> bool {
        let cfg = self.config;
        if self.errors.len() == cfg.window {
            self.errors.pop_front();
        }
        self.errors.push_back(error);
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return false;
        }
        if self.errors.len() < cfg.window {
            return false;
        }

        let adjustment = self.classify();
        let (kp, ki, kd) = (pid.config().kp(), pid.config().ki(), pid.config().kd());
        let clamp = |g: f64| g.clamp(cfg.min_gain, cfg.max_gain);
        let changed = match adjustment {
            Adjustment::Shrunk => {
                pid.set_gains(clamp(kp * cfg.shrink), clamp(ki * cfg.shrink), kd);
                true
            }
            Adjustment::Grew => {
                pid.set_gains(clamp(kp * cfg.grow), clamp(ki * cfg.grow), kd);
                true
            }
            Adjustment::None => false,
        };
        if changed {
            self.adaptations += 1;
            // Let the loop settle under the new gains before re-judging.
            self.cooldown = cfg.window / 2;
        }
        changed
    }

    fn classify(&self) -> Adjustment {
        let cfg = self.config;
        let active: Vec<f64> =
            self.errors.iter().copied().filter(|e| e.abs() > cfg.deadband).collect();
        if active.len() < cfg.window / 2 {
            return Adjustment::None; // mostly settled
        }
        let mut sign_changes = 0usize;
        for w in active.windows(2) {
            if w[0].signum() != w[1].signum() {
                sign_changes += 1;
            }
        }
        let change_rate = sign_changes as f64 / (active.len() - 1).max(1) as f64;
        if change_rate >= cfg.oscillation_threshold {
            return Adjustment::Shrunk;
        }
        // Sluggish: most samples above deadband with the same sign.
        let positive = active.iter().filter(|e| **e > 0.0).count();
        let one_sided = positive.max(active.len() - positive) as f64 / active.len() as f64;
        let coverage = active.len() as f64 / cfg.window as f64;
        if one_sided >= cfg.sluggish_threshold && coverage >= cfg.sluggish_threshold {
            return Adjustment::Grew;
        }
        Adjustment::None
    }
}

impl Codec for AdaptiveTunerConfig {
    fn encode(&self, enc: &mut Encoder) {
        self.window.encode(enc);
        self.oscillation_threshold.encode(enc);
        self.sluggish_threshold.encode(enc);
        self.deadband.encode(enc);
        self.shrink.encode(enc);
        self.grow.encode(enc);
        self.min_gain.encode(enc);
        self.max_gain.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(AdaptiveTunerConfig {
            window: usize::decode(dec)?,
            oscillation_threshold: f64::decode(dec)?,
            sluggish_threshold: f64::decode(dec)?,
            deadband: f64::decode(dec)?,
            shrink: f64::decode(dec)?,
            grow: f64::decode(dec)?,
            min_gain: f64::decode(dec)?,
            max_gain: f64::decode(dec)?,
        })
    }
}

impl Codec for AdaptiveTuner {
    fn encode(&self, enc: &mut Encoder) {
        self.config.encode(enc);
        self.errors.encode(enc);
        self.adaptations.encode(enc);
        self.cooldown.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(AdaptiveTuner {
            config: AdaptiveTunerConfig::decode(dec)?,
            errors: VecDeque::<f64>::decode(dec)?,
            adaptations: u64::decode(dec)?,
            cooldown: usize::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pid::PidConfig;

    fn pid(kp: f64, ki: f64) -> PidController {
        PidController::new(PidConfig::new(kp, ki, 0.0))
    }

    #[test]
    fn oscillation_shrinks_gains() {
        let mut p = pid(8.0, 2.0);
        let mut t = AdaptiveTuner::new(AdaptiveTunerConfig::default());
        for i in 0..60 {
            let e = if i % 2 == 0 { 0.5 } else { -0.5 };
            t.observe_and_adapt(e, &mut p);
        }
        assert!(p.config().kp() < 8.0);
        assert!(p.config().ki() < 2.0);
        assert!(t.adaptations() >= 1);
    }

    #[test]
    fn persistent_error_grows_gains() {
        let mut p = pid(1.0, 0.1);
        let mut t = AdaptiveTuner::new(AdaptiveTunerConfig::default());
        for _ in 0..60 {
            t.observe_and_adapt(0.5, &mut p);
        }
        assert!(p.config().kp() > 1.0);
        assert!(p.config().ki() > 0.1);
    }

    #[test]
    fn settled_loop_is_left_alone() {
        let mut p = pid(3.0, 0.5);
        let mut t = AdaptiveTuner::new(AdaptiveTunerConfig::default());
        for i in 0..60 {
            // Tiny noise inside the deadband.
            let e = if i % 2 == 0 { 0.01 } else { -0.01 };
            t.observe_and_adapt(e, &mut p);
        }
        assert_eq!(p.config().kp(), 3.0);
        assert_eq!(t.adaptations(), 0);
    }

    #[test]
    fn gains_respect_bounds() {
        let cfg = AdaptiveTunerConfig { min_gain: 0.5, max_gain: 2.0, ..Default::default() };
        let mut p = pid(1.9, 1.9);
        let mut t = AdaptiveTuner::new(cfg);
        for _ in 0..200 {
            t.observe_and_adapt(1.0, &mut p); // sluggish forever
        }
        assert!(p.config().kp() <= 2.0);
        let mut p2 = pid(0.6, 0.6);
        let mut t2 = AdaptiveTuner::new(cfg);
        for i in 0..200 {
            t2.observe_and_adapt(if i % 2 == 0 { 1.0 } else { -1.0 }, &mut p2);
        }
        assert!(p2.config().kp() >= 0.5);
    }

    #[test]
    fn cooldown_limits_adaptation_rate() {
        let mut p = pid(1.0, 0.1);
        let mut t = AdaptiveTuner::new(AdaptiveTunerConfig::default());
        let mut changes = 0;
        for _ in 0..24 {
            if t.observe_and_adapt(1.0, &mut p) {
                changes += 1;
            }
        }
        // window=12 fills at step 12, adapts, then cools for 6 steps.
        assert!(changes <= 2, "adapted {changes} times in 24 steps");
    }

    #[test]
    #[should_panic(expected = "window must be at least 4")]
    fn rejects_tiny_window() {
        let cfg = AdaptiveTunerConfig { window: 2, ..Default::default() };
        let _ = AdaptiveTuner::new(cfg);
    }
}
