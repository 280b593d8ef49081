//! On-line gain adaptation.
//!
//! The Skynet/EVOLVE controllers "adjust [their] parameters on the fly".
//! [`AdaptiveTuner`] is a rule-based adaptor run every control period: it
//! watches the recent error signal, detects **oscillation** (frequent
//! sign changes → the loop gain is too high → shrink `kp`, `ki`) and
//! **sluggishness** (persistent one-sided error → the loop gain is too
//! low → grow `ki`, `kp`), within fixed bounds.

use std::collections::VecDeque;

use evolve_types::codec::{Codec, Decoder, Encoder};
use evolve_types::Result;

use crate::pid::PidController;

/// Recent control periods inspected.
const WINDOW: usize = 12;
/// Fraction of sign changes between consecutive active errors at or
/// above which the loop is declared oscillatory.
const OSCILLATION_THRESHOLD: f64 = 0.45;
/// Fraction of same-signed, above-deadband errors at or above which the
/// loop is declared sluggish.
const SLUGGISH_THRESHOLD: f64 = 0.8;
/// Errors with |e| at or below this are treated as "settled" noise.
const DEADBAND: f64 = 0.05;
/// Multiplicative shrink applied on oscillation.
const SHRINK: f64 = 0.7;
/// Multiplicative growth applied on sluggishness.
const GROW: f64 = 1.3;
/// Lower bound on each gain after adaptation.
const MIN_GAIN: f64 = 0.01;
/// Upper bound on each gain after adaptation.
const MAX_GAIN: f64 = 50.0;

/// What the tuner decided on the latest step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
/// use evolve_control::{AdaptiveTuner, PidController};
///
/// let mut pid = PidController::new();
/// pid.set_gains(10.0, 1.0);
/// let mut tuner = AdaptiveTuner::default();
/// // Feed an oscillating error; the tuner shrinks the gains.
/// for i in 0..40 {
///     let e = if i % 2 == 0 { 1.0 } else { -1.0 };
///     tuner.observe_and_adapt(e, &mut pid);
/// }
/// assert!(pid.gains().0 < 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveTuner {
    errors: VecDeque<f64>,
    adaptations: u64,
    cooldown: usize,
}

/// A fresh tuner whose error window has its room from the start: it
/// never grows afterwards.
impl Default for AdaptiveTuner {
    fn default() -> Self {
        AdaptiveTuner { errors: VecDeque::with_capacity(WINDOW), adaptations: 0, cooldown: 0 }
    }
}

impl AdaptiveTuner {
    /// Number of gain adjustments applied so far.
    #[must_use]
    pub fn adaptations(&self) -> u64 {
        self.adaptations
    }

    /// Records the latest control error and, when the window justifies it,
    /// rewrites the controller's gains in place. Returns `true` when the
    /// gains changed.
    pub fn observe_and_adapt(&mut self, error: f64, pid: &mut PidController) -> bool {
        if self.errors.len() == WINDOW {
            self.errors.pop_front();
        }
        self.errors.push_back(error);
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return false;
        }
        if self.errors.len() < WINDOW {
            return false;
        }

        let adjustment = self.classify();
        let (kp, ki) = pid.gains();
        let clamp = |g: f64| g.clamp(MIN_GAIN, MAX_GAIN);
        let changed = match adjustment {
            Adjustment::Shrunk => {
                pid.set_gains(clamp(kp * SHRINK), clamp(ki * SHRINK));
                true
            }
            Adjustment::Grew => {
                pid.set_gains(clamp(kp * GROW), clamp(ki * GROW));
                true
            }
            Adjustment::None => false,
        };
        if changed {
            self.adaptations += 1;
            // Let the loop settle under the new gains before re-judging.
            self.cooldown = WINDOW / 2;
        }
        changed
    }

    fn classify(&self) -> Adjustment {
        // One pass counts the errors above the deadband, the positive ones
        // and the sign changes between consecutive ones.
        let (mut active, mut positive, mut sign_changes) = (0usize, 0usize, 0usize);
        let mut last: Option<f64> = None;
        for e in self.errors.iter().copied().filter(|e| e.abs() > DEADBAND) {
            active += 1;
            positive += usize::from(e > 0.0);
            if last.is_some_and(|last| last.signum() != e.signum()) {
                sign_changes += 1;
            }
            last = Some(e);
        }
        if active < WINDOW / 2 {
            return Adjustment::None; // mostly settled
        }
        let change_rate = sign_changes as f64 / (active - 1).max(1) as f64;
        if change_rate >= OSCILLATION_THRESHOLD {
            return Adjustment::Shrunk;
        }
        // Sluggish: most samples above deadband with the same sign.
        let one_sided = positive.max(active - positive) as f64 / active as f64;
        let coverage = active as f64 / WINDOW as f64;
        if one_sided >= SLUGGISH_THRESHOLD && coverage >= SLUGGISH_THRESHOLD {
            return Adjustment::Grew;
        }
        Adjustment::None
    }
}

impl Codec for AdaptiveTuner {
    fn encode(&self, enc: &mut Encoder) {
        self.errors.encode(enc);
        self.adaptations.encode(enc);
        self.cooldown.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(AdaptiveTuner {
            errors: VecDeque::<f64>::decode(dec)?,
            adaptations: u64::decode(dec)?,
            cooldown: usize::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(kp: f64, ki: f64) -> PidController {
        let mut pid = PidController::new();
        pid.set_gains(kp, ki);
        pid
    }

    #[test]
    fn oscillation_shrinks_gains() {
        let mut p = pid(8.0, 2.0);
        let mut t = AdaptiveTuner::default();
        for i in 0..60 {
            let e = if i % 2 == 0 { 0.5 } else { -0.5 };
            t.observe_and_adapt(e, &mut p);
        }
        assert!(p.gains().0 < 8.0);
        assert!(p.gains().1 < 2.0);
        assert!(t.adaptations() >= 1);
    }

    #[test]
    fn persistent_error_grows_gains() {
        let mut p = pid(1.0, 0.1);
        let mut t = AdaptiveTuner::default();
        for _ in 0..60 {
            t.observe_and_adapt(0.5, &mut p);
        }
        assert!(p.gains().0 > 1.0);
        assert!(p.gains().1 > 0.1);
    }

    #[test]
    fn settled_loop_is_left_alone() {
        let mut p = pid(3.0, 0.5);
        let mut t = AdaptiveTuner::default();
        for i in 0..60 {
            // Tiny noise inside the deadband.
            let e = if i % 2 == 0 { 0.01 } else { -0.01 };
            t.observe_and_adapt(e, &mut p);
        }
        assert_eq!(p.gains().0, 3.0);
        assert_eq!(t.adaptations(), 0);
    }

    #[test]
    fn gains_respect_bounds() {
        let mut p = pid(MAX_GAIN * 0.95, MAX_GAIN * 0.95);
        let mut t = AdaptiveTuner::default();
        for _ in 0..200 {
            t.observe_and_adapt(1.0, &mut p); // sluggish forever
        }
        assert_eq!(p.gains().0, MAX_GAIN);
        assert_eq!(p.gains().1, MAX_GAIN);
        let mut p2 = pid(MIN_GAIN * 1.2, MIN_GAIN * 1.2);
        let mut t2 = AdaptiveTuner::default();
        for i in 0..200 {
            t2.observe_and_adapt(if i % 2 == 0 { 1.0 } else { -1.0 }, &mut p2);
        }
        assert_eq!(p2.gains().0, MIN_GAIN);
        assert_eq!(p2.gains().1, MIN_GAIN);
    }

    #[test]
    fn cooldown_limits_adaptation_rate() {
        let mut p = pid(1.0, 0.1);
        let mut t = AdaptiveTuner::default();
        let mut changes = 0;
        for _ in 0..24 {
            if t.observe_and_adapt(1.0, &mut p) {
                changes += 1;
            }
        }
        // window=12 fills at step 12, adapts, then cools for 6 steps.
        assert!(changes <= 2, "adapted {changes} times in 24 steps");
    }
}
