//! Scalar PID controller with the guards a production control loop needs.
//!
//! The textbook PID `u = kp·e + ki·∫e dt + kd·de/dt` misbehaves in exactly
//! the situations an autoscaler lives in: actuators saturate (a node has
//! finite capacity), the measurement is noisy (scraped tail latency), and
//! the setpoint moves. This implementation adds the standard remedies:
//!
//! * **anti-windup** — the integral term is clamped, and integration is
//!   suspended while the output is saturated in the direction the error
//!   pushes (conditional integration);
//! * **filtered derivative** — the derivative acts on a first-order
//!   low-pass of the error, taming measurement noise;
//! * **output limits** — one control period can neither take more than
//!   half an allocation away nor more than double it;
//! * **integral leak** — the output is applied multiplicatively to the
//!   allocation, so the actuator integrates already; the inner integral
//!   leaks so that zero error means zero adjustment.
//!
//! Every resource dimension of every application runs the same PID; only
//! kp and ki move, rewritten by the [`AdaptiveTuner`](crate::AdaptiveTuner).

use evolve_types::codec::{Codec, Decoder, Encoder};
use evolve_types::Result;

/// Proportional gain a fresh controller starts from.
const INITIAL_KP: f64 = 0.8;
/// Integral gain a fresh controller starts from.
const INITIAL_KI: f64 = 0.15;
/// Derivative gain; the tuner adapts kp and ki only.
pub(crate) const KD: f64 = 0.05;
/// Lowest output: one period may shrink an allocation by half.
const OUT_MIN: f64 = -0.5;
/// Highest output: one period may double an allocation.
const OUT_MAX: f64 = 1.0;
/// The integral accumulator stays within `±INTEGRAL_LIMIT`.
const INTEGRAL_LIMIT: f64 = 2.0;
/// Time constant (seconds) of the derivative's low-pass filter.
const DERIVATIVE_TAU: f64 = 2.0;
/// Per-step multiplicative decay of the integral accumulator. Below 1
/// because the output is applied multiplicatively (an integrating
/// actuator): the outer loop integrates already, so a frozen inner
/// integral at zero error would drift the actuator forever.
const INTEGRAL_LEAK: f64 = 0.8;

/// A discrete-time PID controller.
///
/// Feed the **error** (positive must mean "increase the output") and the
/// elapsed control interval to [`PidController::step`]; the controller
/// returns the relative actuation in `[-0.5, 1.0]`.
///
/// # Examples
///
/// ```
/// use evolve_control::PidController;
///
/// let mut pid = PidController::new();
/// // First step, no derivative yet: kp·e + ki·(e·dt) = 0.8·0.5 + 0.15·0.5.
/// assert!((pid.step(0.5, 1.0) - 0.475).abs() < 1e-12);
/// // A large error saturates at the output limit.
/// assert_eq!(pid.step(5.0, 1.0), 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PidController {
    kp: f64,
    ki: f64,
    integral: f64,
    prev_error: Option<f64>,
    filtered_derivative: f64,
    last_terms: PidTerms,
}

/// The per-term breakdown of one [`PidController::step`] call: what the
/// proportional, integral and derivative paths each contributed, and the
/// clamped output that was actually emitted. Captured during the step
/// itself because the saturated case uses the *candidate* integral, which
/// is not reconstructible from the post-step state.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PidTerms {
    /// Proportional contribution, `kp * error`.
    pub p: f64,
    /// Integral contribution, `ki * candidate_integral`.
    pub i: f64,
    /// Derivative contribution, `kd * filtered_derivative`.
    pub d: f64,
    /// Emitted output after output clamping.
    pub output: f64,
}

impl Codec for PidTerms {
    fn encode(&self, enc: &mut Encoder) {
        self.p.encode(enc);
        self.i.encode(enc);
        self.d.encode(enc);
        self.output.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(PidTerms {
            p: f64::decode(dec)?,
            i: f64::decode(dec)?,
            d: f64::decode(dec)?,
            output: f64::decode(dec)?,
        })
    }
}

impl Default for PidController {
    fn default() -> Self {
        PidController::new()
    }
}

impl PidController {
    /// Creates a controller at the initial gains with no history.
    #[must_use]
    pub fn new() -> Self {
        PidController {
            kp: INITIAL_KP,
            ki: INITIAL_KI,
            integral: 0.0,
            prev_error: None,
            filtered_derivative: 0.0,
            last_terms: PidTerms::default(),
        }
    }

    /// The current proportional and integral gains (the adaptive tuner
    /// moves them; the derivative gain is fixed).
    #[must_use]
    pub fn gains(&self) -> (f64, f64) {
        (self.kp, self.ki)
    }

    /// Replaces kp and ki in place, keeping integral and derivative state.
    /// Used by the adaptive tuner.
    ///
    /// # Panics
    ///
    /// Panics when either gain is negative or non-finite.
    pub fn set_gains(&mut self, kp: f64, ki: f64) {
        assert!(kp >= 0.0 && kp.is_finite(), "kp must be finite and non-negative");
        assert!(ki >= 0.0 && ki.is_finite(), "ki must be finite and non-negative");
        self.kp = kp;
        self.ki = ki;
    }

    /// Term breakdown of the most recent [`step`](Self::step) (all zero
    /// before the first step).
    #[must_use]
    pub fn last_terms(&self) -> PidTerms {
        self.last_terms
    }

    /// Advances the controller by one step.
    ///
    /// `error` is the control error (positive → raise output); `dt_secs`
    /// is the elapsed control interval in seconds. Returns the clamped
    /// actuation.
    ///
    /// # Panics
    ///
    /// Panics when `dt_secs` is not positive or `error` is not finite.
    pub fn step(&mut self, error: f64, dt_secs: f64) -> f64 {
        assert!(dt_secs > 0.0 && dt_secs.is_finite(), "dt must be positive");
        assert!(error.is_finite(), "error must be finite");

        // Derivative on low-pass-filtered error.
        let raw_derivative = match self.prev_error {
            Some(prev) => (error - prev) / dt_secs,
            None => 0.0,
        };
        let alpha = dt_secs / (DERIVATIVE_TAU + dt_secs);
        self.filtered_derivative += alpha * (raw_derivative - self.filtered_derivative);
        self.prev_error = Some(error);

        // Tentative integral update with leak and clamping.
        let candidate_integral = (self.integral * INTEGRAL_LEAK + error * dt_secs)
            .clamp(-INTEGRAL_LIMIT, INTEGRAL_LIMIT);

        let unclamped =
            self.kp * error + self.ki * candidate_integral + KD * self.filtered_derivative;
        let output = unclamped.clamp(OUT_MIN, OUT_MAX);

        // Conditional integration: only accept the integral update when the
        // output is not saturated, or when the error drives the output back
        // inside the limits.
        let saturated_high = unclamped > OUT_MAX && error > 0.0;
        let saturated_low = unclamped < OUT_MIN && error < 0.0;
        if !(saturated_high || saturated_low) {
            self.integral = candidate_integral;
        }

        self.last_terms = PidTerms {
            p: self.kp * error,
            i: self.ki * candidate_integral,
            d: KD * self.filtered_derivative,
            output,
        };
        output
    }

    /// Seeds the controller for **bumpless transfer**: given the error the
    /// next [`step`](Self::step) call will see, back-computes the integral
    /// accumulator so that the step's unclamped output is exactly zero
    /// (hold the current actuation) whenever the required integral fits
    /// inside the integral clamp. The derivative path is zeroed, so the
    /// step after restart does not kick from a phantom error jump.
    ///
    /// With the integral clamp active (|kp·e/ki| beyond the clamp) the
    /// first output is instead bounded by the output limits — callers keep
    /// the [`DegradationGuard`](crate::DegradationGuard) slew clamp as the
    /// hard backstop.
    ///
    /// # Panics
    ///
    /// Panics when `dt_secs` is not positive or `error` is not finite.
    pub fn seed_bumpless(&mut self, error: f64, dt_secs: f64) {
        assert!(dt_secs > 0.0 && dt_secs.is_finite(), "dt must be positive");
        assert!(error.is_finite(), "error must be finite");
        // Matching derivative state: treating `error` as also the previous
        // error makes the next raw derivative zero, and the filtered
        // derivative starts discharged.
        self.prev_error = Some(error);
        self.filtered_derivative = 0.0;
        // The next step computes
        //   candidate = clamp(I·leak + e·dt, -limit, limit)
        //   unclamped = kp·e + ki·candidate + kd·0
        // Solve ki·candidate = -kp·e for the candidate, then invert the
        // (un-clamped) leak update to the stored integral.
        let desired_candidate = if self.ki > 0.0 {
            (-(self.kp / self.ki) * error).clamp(-INTEGRAL_LIMIT, INTEGRAL_LIMIT)
        } else {
            0.0
        };
        self.integral = (desired_candidate - error * dt_secs) / INTEGRAL_LEAK;
    }

    /// Writes the tuned gains and the dynamic state.
    pub fn checkpoint(&self, enc: &mut Encoder) {
        self.kp.encode(enc);
        self.ki.encode(enc);
        self.integral.encode(enc);
        self.prev_error.encode(enc);
        self.filtered_derivative.encode(enc);
        self.last_terms.encode(enc);
    }

    /// Overwrites the gains and the dynamic state with those written by
    /// [`checkpoint`](Self::checkpoint).
    ///
    /// # Errors
    ///
    /// Returns the decoder's error when the bytes are truncated or malformed.
    pub fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<()> {
        self.kp = f64::decode(dec)?;
        self.ki = f64::decode(dec)?;
        self.integral = f64::decode(dec)?;
        self.prev_error = Option::<f64>::decode(dec)?;
        self.filtered_derivative = f64::decode(dec)?;
        self.last_terms = PidTerms::decode(dec)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A controller at the given gains with no history.
    fn pid(kp: f64, ki: f64) -> PidController {
        let mut pid = PidController::new();
        pid.set_gains(kp, ki);
        pid
    }

    #[test]
    fn pure_proportional() {
        let mut p = pid(2.0, 0.0);
        assert_eq!(p.step(0.4, 1.0), 0.8);
        // A constant error has no derivative: still kp·e.
        assert_eq!(p.step(0.4, 1.0), 0.8);
        assert_eq!(pid(2.0, 0.0).step(-0.2, 1.0), -0.4);
    }

    #[test]
    fn integral_accumulates() {
        let mut p = pid(0.0, 1.0);
        assert_eq!(p.step(0.1, 1.0), 0.1);
        // The second step leaks the first: 0.1·0.8 + 0.1.
        assert_eq!(p.step(0.1, 1.0), 0.1 * INTEGRAL_LEAK + 0.1);
        assert_eq!(p.integral, 0.1 * INTEGRAL_LEAK + 0.1);
    }

    #[test]
    fn derivative_responds_to_change() {
        let mut p = pid(0.0, 0.0);
        assert_eq!(p.step(0.0, 1.0), 0.0); // no previous error
        let kick = p.step(2.0, 1.0); // de/dt = 2, filtered by τ = 2 s
        assert_eq!(kick, KD * 2.0 / 3.0);
        let settling = p.step(2.0, 1.0); // error constant: the filter discharges
        assert!(settling > 0.0 && settling < kick, "{settling} after {kick}");
    }

    #[test]
    fn derivative_filter_smooths_noise() {
        // An unfiltered derivative of a ±1 square wave contributes
        // kd·2 every step; the filter must hold it under half of that.
        let mut p = pid(0.0, 0.0);
        let mut max_d: f64 = 0.0;
        for i in 0..50 {
            let noise = if i % 2 == 0 { 1.0 } else { -1.0 };
            max_d = max_d.max(p.step(noise, 1.0).abs());
        }
        assert!(max_d < KD * 2.0 / 2.0, "filtered {max_d}");
    }

    #[test]
    fn output_limits_respected() {
        let mut p = pid(10.0, 0.0);
        assert_eq!(p.step(5.0, 1.0), OUT_MAX);
        assert_eq!(p.step(-5.0, 1.0), OUT_MIN);
    }

    #[test]
    fn anti_windup_stops_integration_when_saturated() {
        let mut p = pid(0.0, 1.0);
        // Saturate hard for many steps: the integral is never accepted.
        for _ in 0..100 {
            assert_eq!(p.step(10.0, 1.0), OUT_MAX);
        }
        assert_eq!(p.integral, 0.0, "integral wound up");
        // Recovery: a negative error pulls output off the rail at once.
        let out = p.step(-10.0, 1.0);
        assert!(out < OUT_MAX);
    }

    #[test]
    fn integral_clamp_bounds_accumulator() {
        // A leaky integral of a unit error would settle at 5; the clamp
        // holds it at 2.
        let mut p = pid(0.0, 0.1);
        for _ in 0..100 {
            p.step(1.0, 1.0);
        }
        assert_eq!(p.integral, INTEGRAL_LIMIT);
    }

    #[test]
    fn integral_leak_decays_to_zero_at_zero_error() {
        let mut p = pid(0.0, 0.1);
        p.step(2.0, 1.0); // integral = 2
        for _ in 0..60 {
            p.step(0.0, 1.0);
        }
        assert!(p.integral.abs() < 1e-5, "integral {}", p.integral);
        // And the output follows the integral to zero.
        assert!(p.step(0.0, 1.0).abs() < 1e-5);
    }

    #[test]
    fn integral_leaks_by_a_fixed_factor_per_step() {
        let mut p = pid(0.0, 1.0);
        p.step(1.0, 1.0);
        p.step(0.0, 1.0);
        assert_eq!(p.integral, INTEGRAL_LEAK);
    }

    #[test]
    fn closed_loop_converges_on_first_order_plant() {
        // Plant: y' = u · y, the multiplicative actuator the controller
        // drives (the allocation grows by its relative output). The
        // controller drives y from 0.5 to the setpoint 1.
        let mut p = PidController::new();
        let mut y: f64 = 0.5;
        let dt = 0.1;
        for _ in 0..2_000 {
            let u = p.step(1.0 - y, dt);
            y += u * y * dt;
        }
        assert!((y - 1.0).abs() < 0.02, "converged to {y}");
    }

    #[test]
    fn set_gains_preserves_state() {
        let mut p = pid(0.0, 1.0);
        p.step(1.0, 1.0);
        p.set_gains(1.0, 1.0);
        // integral survives the retune
        assert_eq!(p.integral, 1.0);
        assert_eq!(p.gains(), (1.0, 1.0));
    }

    #[test]
    fn bumpless_seed_first_output_is_zero() {
        for e in [-0.3, -0.1, 0.0, 0.05, 0.2, 0.37] {
            let mut p = PidController::new();
            p.seed_bumpless(e, 5.0);
            let out = p.step(e, 5.0);
            assert!(out.abs() < 1e-12, "seeded output {out} for error {e}");
        }
    }

    #[test]
    fn bumpless_seed_large_error_stays_within_output_limits() {
        let mut p = PidController::new();
        p.seed_bumpless(5.0, 5.0);
        let out = p.step(5.0, 5.0);
        assert!((OUT_MIN..=OUT_MAX).contains(&out));
    }

    #[test]
    fn bumpless_seed_without_integral_gain() {
        let mut p = pid(2.0, 0.0);
        p.seed_bumpless(0.25, 1.0);
        // Pure P cannot hold: output is kp·e, but derivative kick is absent.
        assert_eq!(p.step(0.25, 1.0), 0.5);
        assert_eq!(p.integral, 0.0);
    }

    #[test]
    fn pid_codec_roundtrip_preserves_behavior() {
        let mut p = pid(1.2, 0.3);
        for i in 0..13 {
            p.step(0.1 * f64::from(i) - 0.4, 0.5);
        }
        let mut enc = Encoder::new();
        p.checkpoint(&mut enc);
        let bytes = enc.into_bytes();
        let mut back = PidController::new();
        back.restore(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(p, back);
        // Identical future trajectory.
        for i in 0..7 {
            let e = 0.2 - 0.05 * f64::from(i);
            assert_eq!(p.step(e, 0.5).to_bits(), back.step(e, 0.5).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "kp must be finite")]
    fn rejects_negative_gains() {
        PidController::new().set_gains(-1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn rejects_zero_dt() {
        PidController::new().step(1.0, 0.0);
    }
}
