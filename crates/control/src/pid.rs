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
//! * **output limits and slew limiting** — allocations can neither go
//!   negative nor jump unboundedly in one control period.

use evolve_types::codec::{Codec, Decoder, Encoder};
use evolve_types::Result;

/// Configuration for a [`PidController`], built fluently.
///
/// # Examples
///
/// ```
/// use evolve_control::PidConfig;
///
/// let cfg = PidConfig::new(1.0, 0.5, 0.1)
///     .with_output_limits(-1.0, 1.0)
///     .with_integral_limits(-0.5, 0.5)
///     .with_derivative_tau(2.0)
///     .with_slew_limit(0.25);
/// assert_eq!(cfg.kp(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PidConfig {
    kp: f64,
    ki: f64,
    kd: f64,
    out_min: f64,
    out_max: f64,
    int_min: f64,
    int_max: f64,
    /// Time constant (seconds) of the derivative low-pass; 0 disables
    /// filtering.
    derivative_tau: f64,
    /// Maximum |Δoutput| per second; infinite disables slew limiting.
    slew_limit: f64,
    /// Per-step multiplicative decay of the integral accumulator in
    /// `(0, 1]`; 1 is the classical non-leaky integrator. A leak below 1
    /// is essential when the output is applied *multiplicatively* (an
    /// integrating actuator): the outer loop integrates already, so a
    /// frozen inner integral at zero error would drift the actuator
    /// forever.
    integral_leak: f64,
}

impl PidConfig {
    /// Creates a configuration with the given gains, unbounded output and
    /// a ±10 integral clamp.
    ///
    /// # Panics
    ///
    /// Panics when any gain is negative or non-finite.
    #[must_use]
    pub fn new(kp: f64, ki: f64, kd: f64) -> Self {
        assert!(kp >= 0.0 && kp.is_finite(), "kp must be finite and non-negative");
        assert!(ki >= 0.0 && ki.is_finite(), "ki must be finite and non-negative");
        assert!(kd >= 0.0 && kd.is_finite(), "kd must be finite and non-negative");
        PidConfig {
            kp,
            ki,
            kd,
            out_min: f64::NEG_INFINITY,
            out_max: f64::INFINITY,
            int_min: -10.0,
            int_max: 10.0,
            derivative_tau: 0.0,
            slew_limit: f64::INFINITY,
            integral_leak: 1.0,
        }
    }

    /// Clamps the controller output to `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics when `min > max`.
    #[must_use]
    pub fn with_output_limits(mut self, min: f64, max: f64) -> Self {
        assert!(min <= max, "output limits inverted");
        self.out_min = min;
        self.out_max = max;
        self
    }

    /// Clamps the integral accumulator to `[min, max]`.
    ///
    /// # Panics
    ///
    /// Panics when `min > max`.
    #[must_use]
    pub fn with_integral_limits(mut self, min: f64, max: f64) -> Self {
        assert!(min <= max, "integral limits inverted");
        self.int_min = min;
        self.int_max = max;
        self
    }

    /// Sets the derivative low-pass time constant in seconds (0 disables).
    ///
    /// # Panics
    ///
    /// Panics when `tau` is negative or non-finite.
    #[must_use]
    pub fn with_derivative_tau(mut self, tau: f64) -> Self {
        assert!(tau >= 0.0 && tau.is_finite(), "derivative tau must be finite and non-negative");
        self.derivative_tau = tau;
        self
    }

    /// Limits |Δoutput| per second of control time.
    ///
    /// # Panics
    ///
    /// Panics when `limit` is not positive.
    #[must_use]
    pub fn with_slew_limit(mut self, limit: f64) -> Self {
        assert!(limit > 0.0, "slew limit must be positive");
        self.slew_limit = limit;
        self
    }

    /// Sets the per-step integral leak in `(0, 1]` (see the field docs).
    ///
    /// # Panics
    ///
    /// Panics when `leak` is outside `(0, 1]`.
    #[must_use]
    pub fn with_integral_leak(mut self, leak: f64) -> Self {
        assert!(leak > 0.0 && leak <= 1.0, "integral leak must be in (0, 1]");
        self.integral_leak = leak;
        self
    }

    /// Proportional gain.
    #[must_use]
    pub fn kp(&self) -> f64 {
        self.kp
    }

    /// Integral gain.
    #[must_use]
    pub fn ki(&self) -> f64 {
        self.ki
    }

    /// Derivative gain.
    #[must_use]
    pub fn kd(&self) -> f64 {
        self.kd
    }
}

/// A discrete-time PID controller.
///
/// Feed the **error** (setpoint − measurement, or whichever orientation the
/// caller uses — positive must mean "increase the output") and the elapsed
/// control interval to [`PidController::step`]; the controller returns the
/// actuation value.
///
/// # Examples
///
/// ```
/// use evolve_control::{PidConfig, PidController};
///
/// let mut pid = PidController::new(PidConfig::new(2.0, 0.0, 0.0));
/// assert_eq!(pid.step(0.5, 1.0), 1.0); // pure P: kp * e
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PidController {
    config: PidConfig,
    integral: f64,
    prev_error: Option<f64>,
    filtered_derivative: f64,
    prev_output: Option<f64>,
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
    /// Emitted output after output clamping and slew limiting.
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

impl PidController {
    /// Creates a controller from a configuration.
    #[must_use]
    pub fn new(config: PidConfig) -> Self {
        PidController {
            config,
            integral: 0.0,
            prev_error: None,
            filtered_derivative: 0.0,
            prev_output: None,
            last_terms: PidTerms::default(),
        }
    }

    /// Current configuration (gains may change under adaptive tuning).
    #[must_use]
    pub fn config(&self) -> &PidConfig {
        &self.config
    }

    /// Replaces the gains in place, keeping integral and derivative state.
    /// Used by the adaptive tuner.
    ///
    /// # Panics
    ///
    /// Panics when any gain is negative or non-finite.
    pub fn set_gains(&mut self, kp: f64, ki: f64, kd: f64) {
        assert!(kp >= 0.0 && kp.is_finite(), "kp must be finite and non-negative");
        assert!(ki >= 0.0 && ki.is_finite(), "ki must be finite and non-negative");
        assert!(kd >= 0.0 && kd.is_finite(), "kd must be finite and non-negative");
        self.config.kp = kp;
        self.config.ki = ki;
        self.config.kd = kd;
    }

    /// Current integral accumulator (for inspection/telemetry).
    #[must_use]
    pub fn integral(&self) -> f64 {
        self.integral
    }

    /// Term breakdown of the most recent [`step`](Self::step) (all zero
    /// before the first step and after a [`reset`](Self::reset)).
    #[must_use]
    pub fn last_terms(&self) -> PidTerms {
        self.last_terms
    }

    /// Advances the controller by one step.
    ///
    /// `error` is the control error (positive → raise output); `dt_secs`
    /// is the elapsed control interval in seconds. Returns the clamped,
    /// slew-limited actuation.
    ///
    /// # Panics
    ///
    /// Panics when `dt_secs` is not positive or `error` is not finite.
    pub fn step(&mut self, error: f64, dt_secs: f64) -> f64 {
        assert!(dt_secs > 0.0 && dt_secs.is_finite(), "dt must be positive");
        assert!(error.is_finite(), "error must be finite");
        let cfg = self.config;

        // Derivative on (optionally low-pass-filtered) error.
        let raw_derivative = match self.prev_error {
            Some(prev) => (error - prev) / dt_secs,
            None => 0.0,
        };
        self.filtered_derivative = if cfg.derivative_tau > 0.0 {
            let alpha = dt_secs / (cfg.derivative_tau + dt_secs);
            self.filtered_derivative + alpha * (raw_derivative - self.filtered_derivative)
        } else {
            raw_derivative
        };
        self.prev_error = Some(error);

        // Tentative integral update with leak and clamping.
        let candidate_integral =
            (self.integral * cfg.integral_leak + error * dt_secs).clamp(cfg.int_min, cfg.int_max);

        let unclamped =
            cfg.kp * error + cfg.ki * candidate_integral + cfg.kd * self.filtered_derivative;
        let clamped = unclamped.clamp(cfg.out_min, cfg.out_max);

        // Conditional integration: only accept the integral update when the
        // output is not saturated, or when the error drives the output back
        // inside the limits.
        let saturated_high = unclamped > cfg.out_max && error > 0.0;
        let saturated_low = unclamped < cfg.out_min && error < 0.0;
        if !(saturated_high || saturated_low) {
            self.integral = candidate_integral;
        }

        // Slew limiting against the previous emitted output.
        let output = match self.prev_output {
            Some(prev) if cfg.slew_limit.is_finite() => {
                let max_delta = cfg.slew_limit * dt_secs;
                clamped.clamp(prev - max_delta, prev + max_delta)
            }
            _ => clamped,
        };
        self.prev_output = Some(output);
        self.last_terms = PidTerms {
            p: cfg.kp * error,
            i: cfg.ki * candidate_integral,
            d: cfg.kd * self.filtered_derivative,
            output,
        };
        output
    }

    /// Clears integral, derivative and slew state, keeping the gains.
    pub fn reset(&mut self) {
        self.integral = 0.0;
        self.prev_error = None;
        self.filtered_derivative = 0.0;
        self.prev_output = None;
        self.last_terms = PidTerms::default();
    }

    /// Seeds the controller for **bumpless transfer**: given the error the
    /// next [`step`](Self::step) call will see, back-computes the integral
    /// accumulator so that the step's unclamped output is exactly zero
    /// (hold the current actuation) whenever the required integral fits
    /// inside the integral clamp. The derivative path is zeroed and the
    /// slew reference cleared, so the step after restart neither kicks from
    /// a phantom error jump nor inherits a stale slew anchor.
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
        let cfg = self.config;
        // Matching derivative state: treating `error` as also the previous
        // error makes the next raw derivative zero, and the filtered
        // derivative starts discharged.
        self.prev_error = Some(error);
        self.filtered_derivative = 0.0;
        self.prev_output = None;
        // The next step computes
        //   candidate = clamp(I·leak + e·dt, int_min, int_max)
        //   unclamped = kp·e + ki·candidate + kd·0
        // Solve ki·candidate = -kp·e for the candidate, then invert the
        // (un-clamped) leak update to the stored integral.
        let desired_candidate = if cfg.ki > 0.0 {
            (-(cfg.kp / cfg.ki) * error).clamp(cfg.int_min, cfg.int_max)
        } else {
            0.0
        };
        self.integral = if cfg.integral_leak > 0.0 {
            (desired_candidate - error * dt_secs) / cfg.integral_leak
        } else {
            0.0
        };
    }

    /// Writes the tuned gains and the dynamic state, but not the limits,
    /// filter constant, slew bound or leak, which the owner rebuilds.
    pub fn checkpoint(&self, enc: &mut Encoder) {
        self.config.kp.encode(enc);
        self.config.ki.encode(enc);
        self.config.kd.encode(enc);
        self.integral.encode(enc);
        self.prev_error.encode(enc);
        self.filtered_derivative.encode(enc);
        self.prev_output.encode(enc);
        self.last_terms.encode(enc);
    }

    /// Overwrites the gains and the dynamic state with those written by
    /// [`checkpoint`](Self::checkpoint); the rest of the configuration is
    /// kept.
    ///
    /// # Errors
    ///
    /// Returns the decoder's error when the bytes are truncated or malformed.
    pub fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<()> {
        self.config.kp = f64::decode(dec)?;
        self.config.ki = f64::decode(dec)?;
        self.config.kd = f64::decode(dec)?;
        self.integral = f64::decode(dec)?;
        self.prev_error = Option::<f64>::decode(dec)?;
        self.filtered_derivative = f64::decode(dec)?;
        self.prev_output = Option::<f64>::decode(dec)?;
        self.last_terms = PidTerms::decode(dec)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_proportional() {
        let mut pid = PidController::new(PidConfig::new(2.0, 0.0, 0.0));
        assert_eq!(pid.step(1.0, 1.0), 2.0);
        assert_eq!(pid.step(-0.5, 1.0), -1.0);
    }

    #[test]
    fn integral_accumulates() {
        let mut pid = PidController::new(PidConfig::new(0.0, 1.0, 0.0));
        assert_eq!(pid.step(1.0, 1.0), 1.0);
        assert_eq!(pid.step(1.0, 1.0), 2.0);
        assert_eq!(pid.step(1.0, 0.5), 2.5);
        assert_eq!(pid.integral(), 2.5);
    }

    #[test]
    fn derivative_responds_to_change() {
        let mut pid = PidController::new(PidConfig::new(0.0, 0.0, 1.0));
        assert_eq!(pid.step(0.0, 1.0), 0.0); // no previous error
        assert_eq!(pid.step(2.0, 1.0), 2.0); // de/dt = 2
        assert_eq!(pid.step(2.0, 1.0), 0.0); // error constant
    }

    #[test]
    fn derivative_filter_smooths_noise() {
        let mut unfiltered = PidController::new(PidConfig::new(0.0, 0.0, 1.0));
        let mut filtered =
            PidController::new(PidConfig::new(0.0, 0.0, 1.0).with_derivative_tau(5.0));
        let mut max_u: f64 = 0.0;
        let mut max_f: f64 = 0.0;
        for i in 0..50 {
            let noise = if i % 2 == 0 { 1.0 } else { -1.0 };
            max_u = max_u.max(unfiltered.step(noise, 1.0).abs());
            max_f = max_f.max(filtered.step(noise, 1.0).abs());
        }
        assert!(max_f < max_u / 2.0, "filtered {max_f} unfiltered {max_u}");
    }

    #[test]
    fn output_limits_respected() {
        let mut pid =
            PidController::new(PidConfig::new(10.0, 0.0, 0.0).with_output_limits(-1.0, 1.0));
        assert_eq!(pid.step(5.0, 1.0), 1.0);
        assert_eq!(pid.step(-5.0, 1.0), -1.0);
    }

    #[test]
    fn anti_windup_stops_integration_when_saturated() {
        let cfg = PidConfig::new(0.0, 1.0, 0.0)
            .with_output_limits(0.0, 1.0)
            .with_integral_limits(-100.0, 100.0);
        let mut pid = PidController::new(cfg);
        // Saturate hard for many steps.
        for _ in 0..100 {
            assert_eq!(pid.step(10.0, 1.0), 1.0);
        }
        // Integral must not have wound far past the saturation point.
        assert!(pid.integral() <= 10.0 + 1e-9, "integral wound up: {}", pid.integral());
        // Recovery: a negative error should pull output off the rail fast.
        let out = pid.step(-10.0, 1.0);
        assert!(out < 1.0);
    }

    #[test]
    fn integral_clamp_bounds_accumulator() {
        let cfg = PidConfig::new(0.0, 1.0, 0.0).with_integral_limits(-2.0, 2.0);
        let mut pid = PidController::new(cfg);
        for _ in 0..100 {
            pid.step(1.0, 1.0);
        }
        assert!(pid.integral() <= 2.0);
    }

    #[test]
    fn integral_leak_decays_to_zero_at_zero_error() {
        let cfg = PidConfig::new(0.0, 1.0, 0.0).with_integral_leak(0.5);
        let mut pid = PidController::new(cfg);
        pid.step(2.0, 1.0); // integral = 2
        for _ in 0..20 {
            pid.step(0.0, 1.0);
        }
        assert!(pid.integral().abs() < 1e-5, "integral {}", pid.integral());
        // And the output follows the integral to zero.
        assert!(pid.step(0.0, 1.0).abs() < 1e-5);
    }

    #[test]
    fn leak_of_one_is_classical_integrator() {
        let cfg = PidConfig::new(0.0, 1.0, 0.0).with_integral_leak(1.0);
        let mut pid = PidController::new(cfg);
        pid.step(1.0, 1.0);
        pid.step(0.0, 1.0);
        assert_eq!(pid.integral(), 1.0);
    }

    #[test]
    fn slew_limit_bounds_output_rate() {
        let cfg = PidConfig::new(10.0, 0.0, 0.0).with_slew_limit(0.5);
        let mut pid = PidController::new(cfg);
        let first = pid.step(0.0, 1.0);
        assert_eq!(first, 0.0);
        let second = pid.step(10.0, 1.0);
        assert!((second - 0.5).abs() < 1e-12, "slew-limited step {second}");
        let third = pid.step(10.0, 1.0);
        assert!((third - 1.0).abs() < 1e-12);
    }

    #[test]
    fn closed_loop_converges_on_first_order_plant() {
        // Plant: y' = (u - y) / tau. Controller drives y to setpoint 1.
        let mut pid =
            PidController::new(PidConfig::new(2.0, 1.0, 0.0).with_output_limits(0.0, 10.0));
        let mut y = 0.0;
        let dt = 0.1;
        let tau = 1.0;
        for _ in 0..400 {
            let u = pid.step(1.0 - y, dt);
            y += (u - y) / tau * dt;
        }
        assert!((y - 1.0).abs() < 0.02, "converged to {y}");
    }

    #[test]
    fn reset_clears_state() {
        let mut pid = PidController::new(PidConfig::new(1.0, 1.0, 1.0));
        pid.step(5.0, 1.0);
        pid.reset();
        assert_eq!(pid.integral(), 0.0);
        assert_eq!(pid.step(0.0, 1.0), 0.0);
    }

    #[test]
    fn set_gains_preserves_state() {
        let mut pid = PidController::new(PidConfig::new(0.0, 1.0, 0.0));
        pid.step(1.0, 1.0);
        pid.set_gains(1.0, 1.0, 0.0);
        // integral survives the retune
        assert_eq!(pid.integral(), 1.0);
        assert_eq!(pid.config().kp(), 1.0);
    }

    #[test]
    fn bumpless_seed_first_output_is_zero() {
        let cfg = crate::multi::base_gains();
        for e in [-0.3, -0.1, 0.0, 0.05, 0.2, 0.37] {
            let mut pid = PidController::new(cfg);
            pid.seed_bumpless(e, 5.0);
            let out = pid.step(e, 5.0);
            assert!(out.abs() < 1e-12, "seeded output {out} for error {e}");
        }
    }

    #[test]
    fn bumpless_seed_large_error_stays_within_output_limits() {
        let cfg = PidConfig::new(0.8, 0.15, 0.05)
            .with_output_limits(-0.5, 1.0)
            .with_integral_limits(-2.0, 2.0)
            .with_integral_leak(0.8);
        let mut pid = PidController::new(cfg);
        pid.seed_bumpless(5.0, 5.0);
        let out = pid.step(5.0, 5.0);
        assert!((-0.5..=1.0).contains(&out));
    }

    #[test]
    fn bumpless_seed_without_integral_gain() {
        let mut pid = PidController::new(PidConfig::new(2.0, 0.0, 0.0));
        pid.seed_bumpless(1.0, 1.0);
        // Pure P cannot hold: output is kp·e, but derivative kick is absent.
        assert_eq!(pid.step(1.0, 1.0), 2.0);
        assert_eq!(pid.integral(), 0.0);
    }

    #[test]
    fn pid_codec_roundtrip_preserves_behavior() {
        let cfg = PidConfig::new(1.2, 0.3, 0.05)
            .with_output_limits(-1.0, 2.0)
            .with_derivative_tau(3.0)
            .with_slew_limit(0.7)
            .with_integral_leak(0.9);
        let mut pid = PidController::new(cfg);
        for i in 0..13 {
            pid.step(0.1 * f64::from(i) - 0.4, 0.5);
        }
        let mut enc = Encoder::new();
        pid.checkpoint(&mut enc);
        let bytes = enc.into_bytes();
        let mut back = PidController::new(cfg);
        back.restore(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(pid, back);
        // Identical future trajectory.
        for i in 0..7 {
            let e = 0.2 - 0.05 * f64::from(i);
            assert_eq!(pid.step(e, 0.5).to_bits(), back.step(e, 0.5).to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "kp must be finite")]
    fn rejects_negative_gains() {
        let _ = PidConfig::new(-1.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "dt must be positive")]
    fn rejects_zero_dt() {
        let mut pid = PidController::new(PidConfig::new(1.0, 0.0, 0.0));
        pid.step(1.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "output limits inverted")]
    fn rejects_inverted_limits() {
        let _ = PidConfig::new(1.0, 0.0, 0.0).with_output_limits(1.0, -1.0);
    }
}
