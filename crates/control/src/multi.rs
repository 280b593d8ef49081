//! The multi-resource MIMO controller — EVOLVE's core extension.
//!
//! A one-dimensional PID can right-size CPU, but real applications bind on
//! different resources at different times (a shuffle-heavy batch stage on
//! network, an ingest service on disk, a resident-set-heavy service on
//! memory). EVOLVE "extends the traditional one-dimensional PID controller
//! to estimate CPU, memory, I/O throughput, and network throughput":
//!
//! 1. one PID per resource dimension computes a relative allocation
//!    adjustment;
//! 2. the shared PLO error is **attributed** across the dimensions by the
//!    on-line [`SensitivityModel`](crate::SensitivityModel) — the resource
//!    that actually binds absorbs most of the error;
//! 3. per-resource step limits keep the actuation safe (memory shrinks
//!    cautiously — taking space away from a resident set causes thrashing
//!    or OOM, unlike throttling a rate resource);
//! 4. a usage floor prevents scale-down below observed demand.
//!
//! The controller emits per-replica allocation **targets**; turning those
//! into vertical resizes and horizontal replica changes is the
//! reconciler's job (in `evolve-core`).

use evolve_types::codec::{Codec, Decoder, Encoder};
use evolve_types::{Resource, ResourceVec, Result};

use crate::model::SensitivityModel;
use crate::pid::{PidController, KD};
use crate::tuning::AdaptiveTuner;

/// Largest relative per-period increase per resource (1.5 = may grow to
/// 2.5× each period).
const MAX_STEP_UP: ResourceVec = ResourceVec::splat(1.5);
/// Largest relative per-period decrease per resource (0.2 = may shrink 20%
/// each period). Memory shrinks at half the rate of the rate resources:
/// taking space from a resident set causes thrashing or OOM.
const MAX_STEP_DOWN: ResourceVec = ResourceVec::new(0.20, 0.10, 0.20, 0.20);
/// Each dimension's allocation stays at or above `usage × (1 + margin_r)`.
/// Memory keeps a much larger margin than the rate resources: its working
/// set can swing with load bursts and running close to it means OOM
/// kills, not queueing.
const USAGE_FLOOR_MARGIN: ResourceVec = ResourceVec::new(0.15, 0.8, 0.15, 0.15);
/// Positive errors below this are treated as zero (hold band above the
/// setpoint): the loop does not chase measurement noise.
const DEADBAND_OVER: f64 = 0.10;
/// Negative errors smaller in magnitude than this are treated as zero.
/// Deliberately wider than [`DEADBAND_OVER`]: shrinking is only worth a
/// disturbance when the service is *clearly* over-provisioned, and an
/// asymmetric band kills the shrink-overshoot limit cycle.
const DEADBAND_UNDER: f64 = 0.35;
/// Idle reclaim: while the PLO is met, a dimension whose pressure
/// (usage/allocation) is below this **and** whose per-request serial time
/// is below [`RECLAIM_SERIAL_SECS`] is decayed toward its usage floor each
/// period. This returns reservation inflated by past violations without
/// waiting for the error to leave the deadband.
const RECLAIM_PRESSURE: f64 = 0.30;
/// See [`RECLAIM_PRESSURE`]: a latency-relevant dimension is left alone
/// even when its throughput pressure is low.
const RECLAIM_SERIAL_SECS: f64 = 0.010;

/// Configuration of a [`MultiResourceController`]: the per-replica range
/// and the two ablation switches. Gains, step limits, floors, deadbands
/// and reclaim thresholds are fixed.
///
/// # Examples
///
/// ```
/// use evolve_control::MultiResourceConfig;
/// use evolve_types::ResourceVec;
///
/// let cfg = MultiResourceConfig::new(
///     ResourceVec::new(100.0, 128.0, 5.0, 5.0),      // floor per replica
///     ResourceVec::new(4000.0, 8192.0, 200.0, 250.0), // ceiling per replica
/// );
/// assert!(cfg.adaptive);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiResourceConfig {
    /// Minimum per-replica allocation.
    pub min_alloc: ResourceVec,
    /// Maximum per-replica allocation (beyond this the reconciler scales
    /// horizontally).
    pub max_alloc: ResourceVec,
    /// Enable on-line gain adaptation.
    pub adaptive: bool,
    /// Restrict control to the CPU dimension (the classical 1-D baseline;
    /// the T5 ablation flips this).
    pub cpu_only: bool,
}

impl MultiResourceConfig {
    /// Creates a multi-resource, adaptive configuration.
    ///
    /// # Panics
    ///
    /// Panics when `min_alloc` has a non-positive component or does not
    /// fit within `max_alloc`.
    #[must_use]
    pub fn new(min_alloc: ResourceVec, max_alloc: ResourceVec) -> Self {
        assert!(
            Resource::ALL.iter().all(|r| min_alloc[*r] > 0.0),
            "min_alloc must be positive in every dimension"
        );
        assert!(min_alloc.fits_within(&max_alloc), "min_alloc must fit within max_alloc");
        MultiResourceConfig { min_alloc, max_alloc, adaptive: true, cpu_only: false }
    }

    /// Disables multi-resource attribution (classical CPU-only PID).
    #[must_use]
    pub fn cpu_only(mut self) -> Self {
        self.cpu_only = true;
        self
    }

    /// Disables on-line gain adaptation (fixed-gain ablation).
    #[must_use]
    pub fn fixed_gains(mut self) -> Self {
        self.adaptive = false;
        self
    }
}

/// One control decision: the new per-replica allocation target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceDecision {
    /// Target per-replica allocation after clamping.
    pub target: ResourceVec,
    /// The attribution used this period (sums to 1).
    pub attribution: ResourceVec,
    /// `true` when the controller wanted more of some resource but hit the
    /// per-replica ceiling — the signal to scale horizontally.
    pub saturated_up: bool,
    /// `true` when every dimension sits at the floor and the error is
    /// comfortably negative — the signal to consider scaling in.
    pub saturated_down: bool,
}

/// Per-application multi-resource adaptive controller.
///
/// # Examples
///
/// ```
/// use evolve_control::{MultiResourceConfig, MultiResourceController};
/// use evolve_types::{Resource, ResourceVec};
///
/// let cfg = MultiResourceConfig::new(
///     ResourceVec::splat(10.0),
///     ResourceVec::splat(10_000.0),
/// );
/// let mut ctl = MultiResourceController::new(cfg);
/// let alloc = ResourceVec::splat(100.0);
/// let usage = ResourceVec::new(99.0, 20.0, 10.0, 10.0); // CPU-bound
/// let d = ctl.step(alloc, usage, 0.5, 1.0); // 50% over latency target
/// assert!(d.target[Resource::Cpu] > alloc[Resource::Cpu]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MultiResourceController {
    config: MultiResourceConfig,
    pids: [PidController; 4],
    tuners: [AdaptiveTuner; 4],
    model: SensitivityModel,
    steps: u64,
    /// When set, the next [`step_with_profile`](Self::step_with_profile)
    /// seeds every per-dimension PID for bumpless transfer against the
    /// error it is about to integrate (see
    /// [`arm_bumpless`](Self::arm_bumpless)).
    bumpless_pending: bool,
}

impl MultiResourceController {
    /// Creates a controller from a configuration.
    #[must_use]
    pub fn new(config: MultiResourceConfig) -> Self {
        MultiResourceController {
            config,
            pids: Default::default(),
            tuners: Default::default(),
            model: SensitivityModel::new(),
            steps: 0,
            bumpless_pending: false,
        }
    }

    /// Arms **bumpless transfer** for the next control period: right
    /// before each per-dimension PID integrates its first post-restart
    /// error, its integral accumulator is back-computed so the resulting
    /// output is "hold the current allocation" (exactly zero adjustment
    /// whenever the required integral fits the clamp). Used after cold
    /// controller reconstruction, where the loop re-engages against a live
    /// actuation it did not produce.
    pub fn arm_bumpless(&mut self) {
        self.bumpless_pending = true;
    }

    /// The configuration in force.
    #[must_use]
    pub fn config(&self) -> &MultiResourceConfig {
        &self.config
    }

    /// The sensitivity model (for telemetry/inspection).
    #[must_use]
    pub fn model(&self) -> &SensitivityModel {
        &self.model
    }

    /// Control periods executed.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Total gain adaptations across the four dimensions.
    #[must_use]
    pub fn adaptations(&self) -> u64 {
        self.tuners.iter().map(AdaptiveTuner::adaptations).sum()
    }

    /// Current gains of the controller for `resource`
    /// (kp, ki, kd) — useful for the adaptation-timeline figure.
    #[must_use]
    pub fn gains_of(&self, resource: Resource) -> (f64, f64, f64) {
        let (kp, ki) = self.pids[resource.index()].gains();
        (kp, ki, KD)
    }

    /// Term breakdown of `resource`'s PID for the most recent control
    /// period (all zero before the first step) — the decision-trace
    /// layer's view into *why* a dimension moved.
    #[must_use]
    pub fn pid_terms(&self, resource: Resource) -> crate::pid::PidTerms {
        self.pids[resource.index()].last_terms()
    }

    /// Executes one control period.
    ///
    /// * `alloc` — current per-replica allocation;
    /// * `usage` — measured per-replica usage;
    /// * `error` — PLO control error, positive = under-provisioned
    ///   (see `evolve_core::control_error`);
    /// * `dt_secs` — elapsed control interval.
    ///
    /// # Panics
    ///
    /// Panics when `dt_secs` is not positive.
    pub fn step(
        &mut self,
        alloc: ResourceVec,
        usage: ResourceVec,
        error: f64,
        dt_secs: f64,
    ) -> ResourceDecision {
        self.step_with_profile(alloc, usage, None, error, dt_secs)
    }

    /// Like [`MultiResourceController::step`], additionally feeding the
    /// per-replica request throughput so the sensitivity model can
    /// decompose request latency into per-resource serial times (see
    /// [`SensitivityModel::observe_with_profile`]).
    ///
    /// # Panics
    ///
    /// Panics when `dt_secs` is not positive.
    pub fn step_with_profile(
        &mut self,
        alloc: ResourceVec,
        usage: ResourceVec,
        per_replica_rps: Option<f64>,
        error: f64,
        dt_secs: f64,
    ) -> ResourceDecision {
        assert!(dt_secs > 0.0, "dt must be positive");
        let cfg = self.config;
        let error = if error.is_finite() { error.clamp(-5.0, 5.0) } else { 1.0 };
        match per_replica_rps {
            Some(rps) => self.model.observe_with_profile(alloc, usage, rps, error),
            None => self.model.observe(alloc, usage, error),
        }
        // Hold inside the deadband: chasing noise around the setpoint
        // produces a limit cycle, not compliance.
        let error = if error >= 0.0 {
            if error < DEADBAND_OVER {
                0.0
            } else {
                error
            }
        } else if -error < DEADBAND_UNDER {
            0.0
        } else {
            error
        };

        let attribution = if cfg.cpu_only {
            ResourceVec::unit(Resource::Cpu, 1.0)
        } else {
            self.model.attribution()
        };

        let mut target = alloc;
        let mut saturated_up = false;
        let mut all_at_floor = true;
        for r in Resource::ALL {
            let i = r.index();
            let share = attribution[r];
            // Scale-up is driven by the attributed share of the error;
            // scale-down (negative error) applies to every dimension so
            // idle resources are returned, but proportionally to *inverse*
            // pressure (don't shrink what is still hot).
            let e_r = if error >= 0.0 {
                error * share
            } else {
                let pressure = self.model.pressure()[r].clamp(0.0, 1.0);
                error * (1.0 - pressure)
            };
            if self.bumpless_pending {
                self.pids[i].seed_bumpless(e_r, dt_secs);
            }
            let u = self.pids[i].step(e_r, dt_secs);
            if cfg.adaptive {
                self.tuners[i].observe_and_adapt(e_r, &mut self.pids[i]);
            }
            let mut factor = (1.0 + u).clamp(1.0 - MAX_STEP_DOWN[r], 1.0 + MAX_STEP_UP[r]);
            // Idle reclaim (see `RECLAIM_PRESSURE`): compliant loop, low
            // pressure, latency-irrelevant dimension → give it back.
            if error <= 0.0
                && self.model.pressure()[r] < RECLAIM_PRESSURE
                && self.model.serial_secs()[r] < RECLAIM_SERIAL_SECS
            {
                factor = factor.min(1.0 - MAX_STEP_DOWN[r]);
            }
            // Usage floor: never shrink below observed demand + margin.
            let next = (alloc[r] * factor).max(usage[r] * (1.0 + USAGE_FLOOR_MARGIN[r]));
            let clamped = next.clamp(cfg.min_alloc[r], cfg.max_alloc[r]);
            if next > cfg.max_alloc[r] + 1e-9 && e_r > 0.0 {
                saturated_up = true;
            }
            if clamped > cfg.min_alloc[r] + 1e-9 {
                all_at_floor = false;
            }
            target[r] = clamped;
        }
        self.bumpless_pending = false;
        self.steps += 1;
        ResourceDecision {
            target,
            attribution,
            saturated_up,
            saturated_down: all_at_floor && error < -0.2,
        }
    }

    /// Writes the controller's state — PIDs, tuners, model, step count —
    /// but not its configuration, which the owner rebuilds.
    pub fn checkpoint(&self, enc: &mut Encoder) {
        for pid in &self.pids {
            pid.checkpoint(enc);
        }
        for tuner in &self.tuners {
            tuner.encode(enc);
        }
        self.model.encode(enc);
        self.steps.encode(enc);
        self.bumpless_pending.encode(enc);
    }

    /// Overwrites the state with one written by
    /// [`checkpoint`](Self::checkpoint); the configuration is kept.
    ///
    /// # Errors
    ///
    /// Returns the decoder's error when the bytes are truncated or malformed.
    pub fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<()> {
        for pid in &mut self.pids {
            pid.restore(dec)?;
        }
        for tuner in &mut self.tuners {
            *tuner = AdaptiveTuner::decode(dec)?;
        }
        self.model = SensitivityModel::decode(dec)?;
        self.steps = u64::decode(dec)?;
        self.bumpless_pending = bool::decode(dec)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MultiResourceConfig {
        MultiResourceConfig::new(ResourceVec::splat(10.0), ResourceVec::splat(100_000.0))
    }

    #[test]
    fn positive_error_grows_bottleneck_resource() {
        let mut ctl = MultiResourceController::new(cfg());
        let alloc = ResourceVec::splat(100.0);
        let usage = ResourceVec::new(99.0, 10.0, 10.0, 10.0);
        let mut last = alloc;
        for _ in 0..5 {
            last = ctl.step(last, usage, 1.0, 1.0).target;
        }
        assert!(last[Resource::Cpu] > 150.0, "cpu grew to {}", last[Resource::Cpu]);
        // Idle dimensions should have grown far less.
        assert!(last[Resource::Memory] < last[Resource::Cpu]);
    }

    #[test]
    fn negative_error_shrinks_idle_resources() {
        let mut ctl = MultiResourceController::new(cfg());
        let alloc = ResourceVec::splat(1_000.0);
        let usage = ResourceVec::splat(50.0); // everything idle
        let mut cur = alloc;
        for _ in 0..20 {
            cur = ctl.step(cur, usage, -0.5, 1.0).target;
        }
        for r in Resource::ALL {
            assert!(cur[r] < 500.0, "{r} did not shrink: {}", cur[r]);
        }
    }

    #[test]
    fn usage_floor_prevents_starving_hot_resource() {
        let mut ctl = MultiResourceController::new(cfg());
        let alloc = ResourceVec::splat(1_000.0);
        // CPU is genuinely used at 900 even though latency is fine.
        let usage = ResourceVec::new(900.0, 50.0, 50.0, 50.0);
        let mut cur = alloc;
        for _ in 0..30 {
            cur = ctl.step(cur, usage, -0.5, 1.0).target;
        }
        assert!(cur[Resource::Cpu] >= 900.0 * 1.15 - 1e-6, "cpu {}", cur[Resource::Cpu]);
        assert!(cur[Resource::Memory] < 200.0);
    }

    #[test]
    fn ceiling_reports_saturation() {
        let mut c = cfg();
        c.max_alloc = ResourceVec::splat(120.0);
        let mut ctl = MultiResourceController::new(c);
        let usage = ResourceVec::new(119.0, 10.0, 10.0, 10.0);
        let mut cur = ResourceVec::splat(100.0);
        let mut saw_saturation = false;
        for _ in 0..10 {
            let d = ctl.step(cur, usage, 2.0, 1.0);
            cur = d.target;
            saw_saturation |= d.saturated_up;
            assert!(cur.fits_within(&ResourceVec::splat(120.0)));
        }
        assert!(saw_saturation);
    }

    #[test]
    fn floor_reports_scale_in_opportunity() {
        let mut c = cfg();
        c.min_alloc = ResourceVec::splat(50.0);
        let mut ctl = MultiResourceController::new(c);
        let usage = ResourceVec::splat(1.0);
        let mut cur = ResourceVec::splat(60.0);
        let mut saw_floor = false;
        for _ in 0..40 {
            let d = ctl.step(cur, usage, -1.0, 1.0);
            cur = d.target;
            saw_floor |= d.saturated_down;
        }
        assert!(saw_floor);
        for r in Resource::ALL {
            assert!((cur[r] - 50.0).abs() < 1e-6);
        }
    }

    #[test]
    fn cpu_only_mode_ignores_other_dimensions() {
        let mut ctl = MultiResourceController::new(cfg().cpu_only());
        let alloc = ResourceVec::splat(100.0);
        // Disk is the real bottleneck, but the 1-D controller can't see it.
        let usage = ResourceVec::new(20.0, 20.0, 99.0, 20.0);
        let d = ctl.step(alloc, usage, 1.0, 1.0);
        assert_eq!(d.attribution, ResourceVec::unit(Resource::Cpu, 1.0));
        assert!(d.target[Resource::Cpu] > 100.0);
        // Disk unchanged apart from the usage floor.
        assert!(d.target[Resource::DiskIo] <= 99.0 * 1.15 + 1e-6);
    }

    #[test]
    fn memory_shrinks_more_cautiously_than_cpu() {
        assert!(MAX_STEP_DOWN[Resource::Memory] < MAX_STEP_DOWN[Resource::Cpu]);
        let mut ctl = MultiResourceController::new(cfg());
        let alloc = ResourceVec::splat(1_000.0);
        let usage = ResourceVec::splat(10.0);
        let d = ctl.step(alloc, usage, -2.0, 1.0);
        // One period: memory may shrink at most 10%, cpu up to 35%.
        assert!(d.target[Resource::Memory] >= 900.0 - 1e-6);
        assert!(d.target[Resource::Cpu] < d.target[Resource::Memory]);
    }

    #[test]
    fn adaptive_mode_adapts_under_oscillation() {
        let mut ctl = MultiResourceController::new(cfg());
        let alloc = ResourceVec::splat(100.0);
        let usage = ResourceVec::splat(90.0);
        for i in 0..60 {
            let e = if i % 2 == 0 { 1.0 } else { -1.0 };
            ctl.step(alloc, usage, e, 1.0);
        }
        assert!(ctl.adaptations() > 0);
        let mut fixed = MultiResourceController::new(cfg().fixed_gains());
        for i in 0..60 {
            let e = if i % 2 == 0 { 1.0 } else { -1.0 };
            fixed.step(alloc, usage, e, 1.0);
        }
        assert_eq!(fixed.adaptations(), 0);
    }

    #[test]
    fn non_finite_error_treated_as_full_violation() {
        let mut ctl = MultiResourceController::new(cfg());
        let alloc = ResourceVec::splat(100.0);
        let usage = ResourceVec::splat(95.0);
        let d = ctl.step(alloc, usage, f64::NAN, 1.0);
        // NaN → error 1.0 → allocations must not shrink.
        for r in Resource::ALL {
            assert!(d.target[r] >= alloc[r] - 1e-9);
        }
    }

    #[test]
    fn steps_are_counted() {
        let mut ctl = MultiResourceController::new(cfg());
        ctl.step(ResourceVec::splat(100.0), ResourceVec::splat(50.0), 0.1, 1.0);
        assert_eq!(ctl.steps(), 1);
        assert_eq!(ctl.model().observations(), 1);
    }

    #[test]
    fn armed_bumpless_first_step_holds_allocation_in_band() {
        // A reconstructed controller re-engaging against a modest error
        // must not slam the actuator: with bumpless seeding the first
        // decision stays at the current allocation (deadband + seeded
        // integral → zero adjustment), modulo the usage floor.
        let mut ctl = MultiResourceController::new(cfg());
        ctl.arm_bumpless();
        let alloc = ResourceVec::splat(1_000.0);
        let usage = ResourceVec::splat(300.0);
        let d = ctl.step(alloc, usage, 0.3, 5.0);
        for r in Resource::ALL {
            assert!(
                (d.target[r] - alloc[r]).abs() < 1e-9,
                "{r} moved to {} on the seeded step",
                d.target[r]
            );
        }
        // The flag is one-shot: the next step controls normally.
        let d2 = ctl.step(alloc, usage, 2.0, 5.0);
        assert!(d2.target[Resource::Cpu] > alloc[Resource::Cpu]);
    }

    #[test]
    fn controller_codec_roundtrip_resumes_identically() {
        let mut ctl = MultiResourceController::new(cfg());
        let mut alloc = ResourceVec::splat(100.0);
        let usage = ResourceVec::new(80.0, 30.0, 10.0, 10.0);
        for i in 0..25 {
            let e = 0.5 - 0.04 * f64::from(i);
            alloc = ctl.step_with_profile(alloc, usage, Some(12.0), e, 5.0).target;
        }
        let mut enc = Encoder::new();
        ctl.checkpoint(&mut enc);
        let bytes = enc.into_bytes();
        let mut back = MultiResourceController::new(cfg());
        let mut dec = Decoder::new(&bytes);
        back.restore(&mut dec).unwrap();
        assert!(dec.is_empty());
        assert_eq!(ctl, back);
        let mut a1 = alloc;
        let mut a2 = alloc;
        for i in 0..10 {
            let e = -0.1 + 0.05 * f64::from(i);
            a1 = ctl.step_with_profile(a1, usage, Some(9.0), e, 5.0).target;
            a2 = back.step_with_profile(a2, usage, Some(9.0), e, 5.0).target;
            assert_eq!(a1, a2, "diverged at resumed step {i}");
        }
    }

    #[test]
    fn closed_loop_converges_on_multi_resource_plant() {
        // Toy plant: latency = max over resources of demand_r / alloc_r,
        // PLO target 1.0. Demands differ per resource.
        let demand = ResourceVec::new(500.0, 200.0, 30.0, 80.0);
        let mut ctl = MultiResourceController::new(cfg());
        let mut alloc = ResourceVec::splat(20.0).max(&ResourceVec::splat(20.0));
        let mut latency = 0.0;
        for _ in 0..200 {
            latency = Resource::ALL
                .iter()
                .map(|r| demand[*r] / alloc[*r].max(1e-9))
                .fold(0.0_f64, f64::max);
            let error = latency - 1.0; // relative error against target 1.0
            let usage = demand.min(&alloc);
            alloc = ctl.step(alloc, usage, error, 1.0).target;
        }
        assert!(latency <= 1.2, "final latency {latency}");
        // And the controller should not have over-provisioned wildly.
        assert!(alloc[Resource::Cpu] < 5_000.0, "cpu alloc {}", alloc[Resource::Cpu]);
    }
}
