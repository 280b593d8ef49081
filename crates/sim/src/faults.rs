//! Deterministic fault injection.
//!
//! A [`FaultPlan`] declares *what* goes wrong — scheduled events plus an
//! optional seeded-stochastic background process — and a [`FaultInjector`]
//! realizes the plan for one run: node crashes are armed as engine events,
//! while scrape blackouts, noisy metric windows and control-plane stalls
//! are interval predicates the control loop consults each tick. All
//! randomness derives from the run seed, so the same plan and seed yield
//! the same fault timeline regardless of how many runs execute in
//! parallel.

use evolve_types::{AppId, Error, NodeId, SimDuration, SimTime};
use evolve_workload::{sample_exponential, sample_lognormal_with, SamplingMode};
pub use evolve_workload::{FaultEvent, FaultKind};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::engine::Simulation;
use crate::observe::AppWindow;

/// Rates for the seeded-stochastic background fault process. Arrivals are
/// Poisson; durations are exponential around the configured means.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StochasticFaults {
    /// Node crashes per hour (a uniformly random node each time).
    pub node_crashes_per_hour: f64,
    /// Mean node downtime.
    pub mean_downtime: SimDuration,
    /// Cluster-wide scrape blackouts per hour.
    pub blackouts_per_hour: f64,
    /// Mean blackout length.
    pub mean_blackout: SimDuration,
    /// Control-plane stalls per hour.
    pub stalls_per_hour: f64,
    /// Mean stall length.
    pub mean_stall: SimDuration,
    /// Controller crash–restarts per hour (state-destroying, instant).
    pub controller_crashes_per_hour: f64,
    /// Actuation black-hole windows per hour (resizes silently dropped).
    pub actuation_drops_per_hour: f64,
    /// Mean length of an actuation black-hole window.
    pub mean_actuation_drop: SimDuration,
}

impl Default for StochasticFaults {
    fn default() -> Self {
        StochasticFaults {
            node_crashes_per_hour: 0.0,
            mean_downtime: SimDuration::from_secs(120),
            blackouts_per_hour: 0.0,
            mean_blackout: SimDuration::from_secs(60),
            stalls_per_hour: 0.0,
            mean_stall: SimDuration::from_secs(30),
            controller_crashes_per_hour: 0.0,
            actuation_drops_per_hour: 0.0,
            mean_actuation_drop: SimDuration::from_secs(45),
        }
    }
}

/// A declarative fault schedule for one experiment run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    scheduled: Vec<FaultEvent>,
    stochastic: Option<StochasticFaults>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    #[must_use]
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// `true` when the plan injects nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.scheduled.is_empty()
            && !self.stochastic.is_some_and(|s| {
                s.node_crashes_per_hour > 0.0
                    || s.blackouts_per_hour > 0.0
                    || s.stalls_per_hour > 0.0
                    || s.controller_crashes_per_hour > 0.0
                    || s.actuation_drops_per_hour > 0.0
            })
    }

    /// Adds an arbitrary scheduled fault.
    ///
    /// # Panics
    ///
    /// Panics when the fault parameters fail [`FaultKind::validate`]
    /// (non-finite cv, fraction outside `(0, 1]`, zero-cycle or
    /// zero-period flap). Use [`FaultPlan::checked_event`] for a
    /// non-panicking variant.
    #[must_use]
    pub fn with_event(self, at: SimTime, kind: FaultKind) -> Self {
        match self.checked_event(at, kind) {
            Ok(plan) => plan,
            Err(e) => panic!("{e}"),
        }
    }

    /// Adds an arbitrary scheduled fault, rejecting invalid parameters
    /// with a typed error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when [`FaultKind::validate`]
    /// rejects the parameters.
    pub fn checked_event(mut self, at: SimTime, kind: FaultKind) -> Result<Self, Error> {
        kind.validate()?;
        self.scheduled.push(FaultEvent { at, kind });
        Ok(self)
    }

    /// Validates every scheduled event against a run horizon: all start
    /// times must fall inside `[0, horizon)`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] naming the first out-of-horizon
    /// event.
    pub fn validate(&self, horizon: SimDuration) -> Result<(), Error> {
        for ev in &self.scheduled {
            ev.kind.validate()?;
            if !ev.starts_within(horizon) {
                return Err(Error::InvalidConfig(format!(
                    "fault {} at {:.1}s starts beyond the {:.1}s horizon",
                    ev.kind.label(),
                    ev.at.as_secs_f64(),
                    horizon.as_secs_f64()
                )));
            }
        }
        Ok(())
    }

    /// Crashes `node` at `at`, recovering after `downtime` when given.
    #[must_use]
    pub fn with_node_crash(self, node: NodeId, at: SimTime, downtime: Option<SimDuration>) -> Self {
        self.with_event(at, FaultKind::NodeCrash { node, downtime })
    }

    /// Blacks out metric scrapes for every app.
    #[must_use]
    pub fn with_scrape_blackout(self, at: SimTime, duration: SimDuration) -> Self {
        self.with_event(at, FaultKind::ScrapeBlackout { app: None, duration })
    }

    /// Blacks out metric scrapes for one app.
    #[must_use]
    pub fn with_app_blackout(self, app: AppId, at: SimTime, duration: SimDuration) -> Self {
        self.with_event(at, FaultKind::ScrapeBlackout { app: Some(app), duration })
    }

    /// Distorts every app's metric windows with lognormal noise.
    #[must_use]
    pub fn with_metric_noise(self, at: SimTime, duration: SimDuration, cv: f64) -> Self {
        self.with_event(at, FaultKind::MetricNoise { app: None, duration, cv })
    }

    /// Stalls the control plane (skipped controller ticks).
    #[must_use]
    pub fn with_control_stall(self, at: SimTime, duration: SimDuration) -> Self {
        self.with_event(at, FaultKind::ControlStall { duration })
    }

    /// Kills and restarts the controller process at `at`, destroying all
    /// in-memory control state.
    #[must_use]
    pub fn with_controller_crash(self, at: SimTime) -> Self {
        self.with_event(at, FaultKind::ControllerCrash)
    }

    /// Black-holes the actuation path: resizes issued during the window
    /// are silently dropped.
    #[must_use]
    pub fn with_actuation_drop(self, at: SimTime, duration: SimDuration) -> Self {
        self.with_event(at, FaultKind::ActuationDrop { duration })
    }

    /// Slows the actuation path: resizes issued during the window reach
    /// the cluster `lag` later.
    #[must_use]
    pub fn with_actuation_delay(
        self,
        at: SimTime,
        duration: SimDuration,
        lag: SimDuration,
    ) -> Self {
        self.with_event(at, FaultKind::ActuationDelay { duration, lag })
    }

    /// Degrades the actuation path: resizes apply to only `fraction` of
    /// each app's replicas.
    ///
    /// # Panics
    ///
    /// Panics when `fraction` is not in `(0, 1]`.
    #[must_use]
    pub fn with_actuation_partial(self, at: SimTime, duration: SimDuration, fraction: f64) -> Self {
        self.with_event(at, FaultKind::ActuationPartial { duration, fraction })
    }

    /// Flaps `node` ready/unready: `cycles` crash/recover pairs spaced
    /// `period` apart starting at `at`.
    ///
    /// # Panics
    ///
    /// Panics when `cycles` is zero or `period` is zero.
    #[must_use]
    pub fn with_node_flap(
        self,
        node: NodeId,
        at: SimTime,
        cycles: u32,
        period: SimDuration,
    ) -> Self {
        self.with_event(at, FaultKind::NodeFlap { node, cycles, period })
    }

    /// Adds a seeded-stochastic background fault process.
    #[must_use]
    pub fn with_stochastic(mut self, config: StochasticFaults) -> Self {
        self.stochastic = Some(config);
        self
    }

    /// The scheduled events (stochastic ones are realized per seed by the
    /// injector).
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.scheduled
    }
}

/// A realized fault timeline for one `(plan, seed)` pair.
///
/// Intervals are half-open: a fault starting at `t` with duration `d` is
/// active for `t <= now < t + d`.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    crashes: Vec<(NodeId, SimTime, Option<SimTime>)>,
    blackouts: Vec<(SimTime, SimTime, Option<AppId>)>,
    noise: Vec<(SimTime, SimTime, Option<AppId>, f64)>,
    stalls: Vec<(SimTime, SimTime)>,
    controller_crashes: Vec<SimTime>,
    act_drops: Vec<(SimTime, SimTime)>,
    act_delays: Vec<(SimTime, SimTime, SimDuration)>,
    act_partials: Vec<(SimTime, SimTime, f64)>,
    noise_rng: ChaCha8Rng,
    sampling: SamplingMode,
}

impl FaultInjector {
    /// Realizes a plan: scheduled events are copied, stochastic ones are
    /// drawn from a dedicated ChaCha8 stream (`seed`-derived, independent
    /// of the engine's stream) over `[0, horizon)`.
    #[must_use]
    pub fn new(plan: &FaultPlan, seed: u64, horizon: SimDuration, node_count: usize) -> Self {
        let mut inj = FaultInjector {
            crashes: Vec::new(),
            blackouts: Vec::new(),
            noise: Vec::new(),
            stalls: Vec::new(),
            controller_crashes: Vec::new(),
            act_drops: Vec::new(),
            act_delays: Vec::new(),
            act_partials: Vec::new(),
            noise_rng: ChaCha8Rng::seed_from_u64(seed ^ 0x4e01_5e00),
            sampling: SamplingMode::default(),
        };
        for ev in &plan.scheduled {
            inj.push(ev.at, &ev.kind);
        }
        if let Some(sto) = plan.stochastic {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xfa17_0001);
            for at in poisson_arrivals(&mut rng, sto.node_crashes_per_hour, horizon) {
                let node = ((rng.gen::<f64>() * node_count as f64) as usize).min(node_count - 1);
                let downtime = exp_duration(&mut rng, sto.mean_downtime);
                inj.push(
                    at,
                    &FaultKind::NodeCrash {
                        node: NodeId::new(node as u32),
                        downtime: Some(downtime),
                    },
                );
            }
            for at in poisson_arrivals(&mut rng, sto.blackouts_per_hour, horizon) {
                let duration = exp_duration(&mut rng, sto.mean_blackout);
                inj.push(at, &FaultKind::ScrapeBlackout { app: None, duration });
            }
            for at in poisson_arrivals(&mut rng, sto.stalls_per_hour, horizon) {
                let duration = exp_duration(&mut rng, sto.mean_stall);
                inj.push(at, &FaultKind::ControlStall { duration });
            }
            // Realized last so that adding controller crashes to a plan
            // leaves the existing node-crash/blackout/stall timelines of
            // the same seed untouched.
            for at in poisson_arrivals(&mut rng, sto.controller_crashes_per_hour, horizon) {
                inj.push(at, &FaultKind::ControllerCrash);
            }
            // Actuation drops realized after controller crashes for the
            // same reason: enabling them leaves every prior class's
            // same-seed timeline unchanged.
            for at in poisson_arrivals(&mut rng, sto.actuation_drops_per_hour, horizon) {
                let duration = exp_duration(&mut rng, sto.mean_actuation_drop);
                inj.push(at, &FaultKind::ActuationDrop { duration });
            }
        }
        inj.crashes.sort_by_key(|&(node, at, _)| (at, node));
        inj.blackouts.sort_by_key(|&(s, e, _)| (s, e));
        inj.noise.sort_by_key(|&(s, e, _, _)| (s, e));
        inj.stalls.sort_unstable();
        inj.controller_crashes.sort_unstable();
        inj.act_drops.sort_unstable();
        inj.act_delays.sort_unstable();
        inj.act_partials.sort_by_key(|&(s, e, _)| (s, e));
        inj
    }

    /// Selects which sampler generation the noise-distortion draws use.
    /// `Legacy` keeps the Box–Muller stream of the pre-batched sampler
    /// bit-for-bit.
    #[must_use]
    pub fn with_sampling(mut self, mode: SamplingMode) -> Self {
        self.sampling = mode;
        self
    }

    fn push(&mut self, at: SimTime, kind: &FaultKind) {
        match *kind {
            FaultKind::NodeCrash { node, downtime } => {
                self.crashes.push((node, at, downtime.map(|d| at + d)));
            }
            FaultKind::ScrapeBlackout { app, duration } => {
                self.blackouts.push((at, at + duration, app));
            }
            FaultKind::MetricNoise { app, duration, cv } => {
                self.noise.push((at, at + duration, app, cv));
            }
            FaultKind::ControlStall { duration } => {
                self.stalls.push((at, at + duration));
            }
            FaultKind::ControllerCrash => {
                self.controller_crashes.push(at);
            }
            FaultKind::ActuationDrop { duration } => {
                self.act_drops.push((at, at + duration));
            }
            FaultKind::ActuationDelay { duration, lag } => {
                self.act_delays.push((at, at + duration, lag));
            }
            FaultKind::ActuationPartial { duration, fraction } => {
                self.act_partials.push((at, at + duration, fraction));
            }
            FaultKind::NodeFlap { node, cycles, period } => {
                // A flap is sugar for `cycles` short crashes: down for the
                // first half of each period, recovered for the second.
                for c in 0..u64::from(cycles) {
                    let fail = at + period * c;
                    self.crashes.push((node, fail, Some(fail + period / 2)));
                }
            }
        }
    }

    /// Schedules the realized node crashes as engine events.
    pub fn arm(&self, sim: &mut Simulation) {
        for &(node, at, recover) in &self.crashes {
            sim.inject_node_failure(node, at, recover);
        }
    }

    /// The realized crash schedule: `(node, fail_at, recover_at)`.
    #[must_use]
    pub fn crash_schedule(&self) -> &[(NodeId, SimTime, Option<SimTime>)] {
        &self.crashes
    }

    /// `false` while a blackout covering `app` is active at `at`.
    #[must_use]
    pub fn scrape_available(&self, app: AppId, at: SimTime) -> bool {
        !self
            .blackouts
            .iter()
            .any(|&(s, e, scope)| s <= at && at < e && scope.is_none_or(|a| a == app))
    }

    /// `true` while a control-plane stall is active at `at`.
    #[must_use]
    pub fn controller_stalled(&self, at: SimTime) -> bool {
        self.stalls.iter().any(|&(s, e)| s <= at && at < e)
    }

    /// The realized controller crash times, sorted ascending.
    #[must_use]
    pub fn controller_crash_schedule(&self) -> &[SimTime] {
        &self.controller_crashes
    }

    /// `true` when a controller crash falls in the half-open interval
    /// `(from, to]`. The runner polls this once per control tick with the
    /// previous tick's time as `from`, so every crash is observed exactly
    /// once even when several ticks were stalled in between.
    #[must_use]
    pub fn controller_crashed_in(&self, from: SimTime, to: SimTime) -> bool {
        self.controller_crashes.iter().any(|&t| from < t && t <= to)
    }

    /// `true` while an actuation black-hole is active at `at`: resizes
    /// issued now are silently dropped.
    #[must_use]
    pub fn actuation_dropped(&self, at: SimTime) -> bool {
        self.act_drops.iter().any(|&(s, e)| s <= at && at < e)
    }

    /// The actuation lag in force at `at`, when any. Overlapping delay
    /// windows take the longest lag (the slowest path wins).
    #[must_use]
    pub fn actuation_lag(&self, at: SimTime) -> Option<SimDuration> {
        self.act_delays.iter().filter(|&&(s, e, _)| s <= at && at < e).map(|&(_, _, lag)| lag).max()
    }

    /// The actuation fraction in force at `at`, when any. Overlapping
    /// partial windows take the smallest fraction (the worst rollout
    /// wins).
    #[must_use]
    pub fn actuation_fraction(&self, at: SimTime) -> Option<f64> {
        self.act_partials
            .iter()
            .filter(|&&(s, e, _)| s <= at && at < e)
            .map(|&(_, _, f)| f)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// The fully realized timeline — scheduled plus drawn stochastic
    /// events — as `FaultEvent`s sorted by start time. Node flaps appear
    /// as their expanded crash/recover pairs; durations are reconstructed
    /// from the realized intervals.
    #[must_use]
    pub fn timeline(&self) -> Vec<FaultEvent> {
        let mut out = Vec::with_capacity(
            self.crashes.len()
                + self.blackouts.len()
                + self.noise.len()
                + self.stalls.len()
                + self.controller_crashes.len()
                + self.act_drops.len()
                + self.act_delays.len()
                + self.act_partials.len(),
        );
        for &(node, at, recover) in &self.crashes {
            let downtime = recover.map(|r| r.saturating_since(at));
            out.push(FaultEvent { at, kind: FaultKind::NodeCrash { node, downtime } });
        }
        for &(s, e, app) in &self.blackouts {
            let kind = FaultKind::ScrapeBlackout { app, duration: e.saturating_since(s) };
            out.push(FaultEvent { at: s, kind });
        }
        for &(s, e, app, cv) in &self.noise {
            let kind = FaultKind::MetricNoise { app, duration: e.saturating_since(s), cv };
            out.push(FaultEvent { at: s, kind });
        }
        for &(s, e) in &self.stalls {
            out.push(FaultEvent {
                at: s,
                kind: FaultKind::ControlStall { duration: e.saturating_since(s) },
            });
        }
        for &at in &self.controller_crashes {
            out.push(FaultEvent { at, kind: FaultKind::ControllerCrash });
        }
        for &(s, e) in &self.act_drops {
            out.push(FaultEvent {
                at: s,
                kind: FaultKind::ActuationDrop { duration: e.saturating_since(s) },
            });
        }
        for &(s, e, lag) in &self.act_delays {
            out.push(FaultEvent {
                at: s,
                kind: FaultKind::ActuationDelay { duration: e.saturating_since(s), lag },
            });
        }
        for &(s, e, fraction) in &self.act_partials {
            out.push(FaultEvent {
                at: s,
                kind: FaultKind::ActuationPartial { duration: e.saturating_since(s), fraction },
            });
        }
        out.sort_by_key(|ev| ev.at);
        out
    }

    /// How many fault intervals are active at `at` (instantaneous
    /// controller crashes never count; a permanent node crash counts from
    /// its fail time onward).
    #[must_use]
    pub fn active_count(&self, at: SimTime) -> usize {
        let crashes =
            self.crashes.iter().filter(|&&(_, s, e)| s <= at && e.is_none_or(|e| at < e)).count();
        let intervals =
            |v: &[(SimTime, SimTime)]| v.iter().filter(|&&(s, e)| s <= at && at < e).count();
        crashes
            + self.blackouts.iter().filter(|&&(s, e, _)| s <= at && at < e).count()
            + self.noise.iter().filter(|&&(s, e, _, _)| s <= at && at < e).count()
            + intervals(&self.stalls)
            + intervals(&self.act_drops)
            + self.act_delays.iter().filter(|&&(s, e, _)| s <= at && at < e).count()
            + self.act_partials.iter().filter(|&&(s, e, _)| s <= at && at < e).count()
    }

    /// The noise CV in force for `app` at `at`, when any.
    #[must_use]
    pub fn noise_cv(&self, app: AppId, at: SimTime) -> Option<f64> {
        self.noise
            .iter()
            .find(|&&(s, e, scope, _)| s <= at && at < e && scope.is_none_or(|a| a == app))
            .map(|&(_, _, _, cv)| cv)
    }

    /// Applies multiplicative lognormal distortion to a freshly scraped
    /// window when a noise fault covers it. Latency, throughput and usage
    /// each get an independent factor.
    pub fn distort_window(&mut self, app: AppId, window: &mut AppWindow) {
        let Some(cv) = self.noise_cv(app, window.at) else {
            return;
        };
        let lat = sample_lognormal_with(self.sampling, &mut self.noise_rng, 1.0, cv);
        let thr = sample_lognormal_with(self.sampling, &mut self.noise_rng, 1.0, cv);
        let usage = sample_lognormal_with(self.sampling, &mut self.noise_rng, 1.0, cv);
        if let Some(p) = window.p99_ms.as_mut() {
            *p *= lat;
        }
        if let Some(m) = window.mean_ms.as_mut() {
            *m *= lat;
        }
        window.throughput_rps *= thr;
        window.usage = window.usage * usage;
    }
}

/// Poisson arrival times over `[0, horizon)` at `per_hour` events/hour.
fn poisson_arrivals(rng: &mut ChaCha8Rng, per_hour: f64, horizon: SimDuration) -> Vec<SimTime> {
    let mut out = Vec::new();
    if per_hour <= 0.0 {
        return out;
    }
    let rate = per_hour / 3600.0;
    let mut t = 0.0;
    loop {
        t += sample_exponential(rng, rate);
        if t >= horizon.as_secs_f64() {
            return out;
        }
        out.push(SimTime::ZERO + SimDuration::from_secs_f64(t));
    }
}

fn exp_duration(rng: &mut ChaCha8Rng, mean: SimDuration) -> SimDuration {
    let mean_s = mean.as_secs_f64().max(1e-9);
    SimDuration::from_secs_f64(sample_exponential(rng, 1.0 / mean_s))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(id: u32) -> AppId {
        AppId::new(id)
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        let inj = FaultInjector::new(&plan, 1, SimDuration::from_mins(10), 4);
        assert!(inj.crash_schedule().is_empty());
        assert!(inj.scrape_available(app(0), SimTime::from_secs(100)));
        assert!(!inj.controller_stalled(SimTime::from_secs(100)));
    }

    #[test]
    fn scheduled_intervals_are_half_open() {
        let plan = FaultPlan::new()
            .with_scrape_blackout(SimTime::from_secs(100), SimDuration::from_secs(50))
            .with_control_stall(SimTime::from_secs(200), SimDuration::from_secs(10));
        assert!(!plan.is_empty());
        let inj = FaultInjector::new(&plan, 1, SimDuration::from_mins(10), 4);
        assert!(inj.scrape_available(app(0), SimTime::from_secs(99)));
        assert!(!inj.scrape_available(app(0), SimTime::from_secs(100)));
        assert!(!inj.scrape_available(app(0), SimTime::from_secs(149)));
        assert!(inj.scrape_available(app(0), SimTime::from_secs(150)));
        assert!(!inj.controller_stalled(SimTime::from_secs(199)));
        assert!(inj.controller_stalled(SimTime::from_secs(205)));
        assert!(!inj.controller_stalled(SimTime::from_secs(210)));
    }

    #[test]
    fn scheduled_controller_crash_is_seen_exactly_once() {
        let plan = FaultPlan::new().with_controller_crash(SimTime::from_secs(300));
        assert!(!plan.is_empty());
        let inj = FaultInjector::new(&plan, 1, SimDuration::from_mins(10), 4);
        assert_eq!(inj.controller_crash_schedule(), &[SimTime::from_secs(300)]);
        // Half-open (from, to]: the tick ending exactly at the crash sees it,
        // the next tick does not see it again.
        assert!(!inj.controller_crashed_in(SimTime::from_secs(290), SimTime::from_secs(295)));
        assert!(inj.controller_crashed_in(SimTime::from_secs(295), SimTime::from_secs(300)));
        assert!(!inj.controller_crashed_in(SimTime::from_secs(300), SimTime::from_secs(305)));
    }

    #[test]
    fn stochastic_controller_crashes_are_deterministic_and_do_not_shift_other_faults() {
        let base = FaultPlan::new()
            .with_stochastic(StochasticFaults { stalls_per_hour: 2.0, ..Default::default() });
        let with_cc = FaultPlan::new().with_stochastic(StochasticFaults {
            stalls_per_hour: 2.0,
            controller_crashes_per_hour: 3.0,
            ..Default::default()
        });
        let horizon = SimDuration::from_mins(120);
        let a = FaultInjector::new(&base, 7, horizon, 4);
        let b = FaultInjector::new(&with_cc, 7, horizon, 4);
        // Enabling controller crashes must not perturb the stall timeline.
        assert_eq!(a.stalls, b.stalls);
        assert!(a.controller_crash_schedule().is_empty());
        assert!(!b.controller_crash_schedule().is_empty());
        // Same seed, same realization.
        let b2 = FaultInjector::new(&with_cc, 7, horizon, 4);
        assert_eq!(b.controller_crash_schedule(), b2.controller_crash_schedule());
    }

    #[test]
    fn app_scoped_blackout_spares_other_apps() {
        let plan = FaultPlan::new().with_app_blackout(
            app(1),
            SimTime::from_secs(10),
            SimDuration::from_secs(10),
        );
        let inj = FaultInjector::new(&plan, 1, SimDuration::from_mins(1), 2);
        assert!(!inj.scrape_available(app(1), SimTime::from_secs(15)));
        assert!(inj.scrape_available(app(0), SimTime::from_secs(15)));
    }

    #[test]
    fn stochastic_realization_is_seed_deterministic() {
        let plan = FaultPlan::new().with_stochastic(StochasticFaults {
            node_crashes_per_hour: 30.0,
            blackouts_per_hour: 20.0,
            stalls_per_hour: 10.0,
            ..Default::default()
        });
        assert!(!plan.is_empty());
        let horizon = SimDuration::from_mins(60);
        let a = FaultInjector::new(&plan, 7, horizon, 4);
        let b = FaultInjector::new(&plan, 7, horizon, 4);
        assert_eq!(a.crash_schedule(), b.crash_schedule());
        assert_eq!(a.blackouts, b.blackouts);
        assert_eq!(a.stalls, b.stalls);
        assert!(!a.crash_schedule().is_empty(), "expected crashes at 30/h over 1h");
        // A different seed realizes a different timeline.
        let c = FaultInjector::new(&plan, 8, horizon, 4);
        assert_ne!(a.crash_schedule(), c.crash_schedule());
        // Crashes target valid nodes and recover after the fail time.
        for &(node, at, recover) in a.crash_schedule() {
            assert!(node.as_usize() < 4);
            assert!(recover.expect("stochastic crashes recover") > at);
        }
    }

    #[test]
    fn actuation_faults_are_half_open_intervals() {
        let plan = FaultPlan::new()
            .with_actuation_drop(SimTime::from_secs(100), SimDuration::from_secs(50))
            .with_actuation_delay(
                SimTime::from_secs(200),
                SimDuration::from_secs(30),
                SimDuration::from_secs(12),
            )
            .with_actuation_partial(SimTime::from_secs(300), SimDuration::from_secs(40), 0.5);
        assert!(!plan.is_empty());
        let inj = FaultInjector::new(&plan, 1, SimDuration::from_mins(10), 4);
        assert!(!inj.actuation_dropped(SimTime::from_secs(99)));
        assert!(inj.actuation_dropped(SimTime::from_secs(100)));
        assert!(inj.actuation_dropped(SimTime::from_secs(149)));
        assert!(!inj.actuation_dropped(SimTime::from_secs(150)));
        assert_eq!(inj.actuation_lag(SimTime::from_secs(199)), None);
        assert_eq!(inj.actuation_lag(SimTime::from_secs(210)), Some(SimDuration::from_secs(12)));
        assert_eq!(inj.actuation_lag(SimTime::from_secs(230)), None);
        assert_eq!(inj.actuation_fraction(SimTime::from_secs(299)), None);
        assert_eq!(inj.actuation_fraction(SimTime::from_secs(320)), Some(0.5));
        assert_eq!(inj.actuation_fraction(SimTime::from_secs(340)), None);
    }

    #[test]
    fn overlapping_actuation_windows_take_the_worst_case() {
        let plan = FaultPlan::new()
            .with_actuation_delay(
                SimTime::from_secs(0),
                SimDuration::from_secs(100),
                SimDuration::from_secs(5),
            )
            .with_actuation_delay(
                SimTime::from_secs(50),
                SimDuration::from_secs(100),
                SimDuration::from_secs(20),
            )
            .with_actuation_partial(SimTime::from_secs(0), SimDuration::from_secs(100), 0.8)
            .with_actuation_partial(SimTime::from_secs(50), SimDuration::from_secs(100), 0.25);
        let inj = FaultInjector::new(&plan, 1, SimDuration::from_mins(10), 4);
        assert_eq!(inj.actuation_lag(SimTime::from_secs(75)), Some(SimDuration::from_secs(20)));
        assert_eq!(inj.actuation_fraction(SimTime::from_secs(75)), Some(0.25));
    }

    #[test]
    fn node_flap_expands_into_crash_recover_pairs() {
        let plan = FaultPlan::new().with_node_flap(
            NodeId::new(2),
            SimTime::from_secs(60),
            3,
            SimDuration::from_secs(20),
        );
        let inj = FaultInjector::new(&plan, 1, SimDuration::from_mins(10), 4);
        let schedule = inj.crash_schedule();
        assert_eq!(schedule.len(), 3);
        for (c, &(node, fail, recover)) in schedule.iter().enumerate() {
            assert_eq!(node, NodeId::new(2));
            assert_eq!(fail, SimTime::from_secs(60 + 20 * c as u64));
            assert_eq!(recover, Some(SimTime::from_secs(70 + 20 * c as u64)));
        }
    }

    #[test]
    fn invalid_fault_parameters_yield_typed_errors() {
        let bad_fraction = FaultPlan::new().checked_event(
            SimTime::from_secs(1),
            FaultKind::ActuationPartial { duration: SimDuration::from_secs(10), fraction: 1.5 },
        );
        assert!(matches!(bad_fraction, Err(Error::InvalidConfig(_))));
        let bad_cv = FaultPlan::new().checked_event(
            SimTime::from_secs(1),
            FaultKind::MetricNoise {
                app: None,
                duration: SimDuration::from_secs(10),
                cv: f64::NAN,
            },
        );
        assert!(matches!(bad_cv, Err(Error::InvalidConfig(_))));
        let bad_cycles = FaultPlan::new().checked_event(
            SimTime::from_secs(1),
            FaultKind::NodeFlap {
                node: NodeId::new(0),
                cycles: 0,
                period: SimDuration::from_secs(5),
            },
        );
        assert!(matches!(bad_cycles, Err(Error::InvalidConfig(_))));
        let bad_period = FaultPlan::new().checked_event(
            SimTime::from_secs(1),
            FaultKind::NodeFlap { node: NodeId::new(0), cycles: 2, period: SimDuration::ZERO },
        );
        assert!(matches!(bad_period, Err(Error::InvalidConfig(_))));
    }

    #[test]
    #[should_panic(expected = "actuation fraction must be in (0, 1]")]
    fn with_actuation_partial_panics_on_bad_fraction() {
        let _ = FaultPlan::new().with_actuation_partial(
            SimTime::from_secs(1),
            SimDuration::from_secs(10),
            0.0,
        );
    }

    #[test]
    fn plan_validate_rejects_out_of_horizon_events() {
        let plan = FaultPlan::new()
            .with_control_stall(SimTime::from_secs(500), SimDuration::from_secs(10));
        assert!(plan.validate(SimDuration::from_secs(600)).is_ok());
        let err = plan.validate(SimDuration::from_secs(400)).unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(_)));
        assert!(err.to_string().contains("control_stall"));
    }

    #[test]
    fn timeline_and_active_count_cover_all_classes() {
        let plan = FaultPlan::new()
            .with_node_crash(
                NodeId::new(0),
                SimTime::from_secs(10),
                Some(SimDuration::from_secs(20)),
            )
            .with_scrape_blackout(SimTime::from_secs(15), SimDuration::from_secs(10))
            .with_actuation_drop(SimTime::from_secs(12), SimDuration::from_secs(6))
            .with_controller_crash(SimTime::from_secs(14));
        let inj = FaultInjector::new(&plan, 1, SimDuration::from_mins(1), 4);
        let timeline = inj.timeline();
        assert_eq!(timeline.len(), 4);
        assert!(timeline.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(
            timeline[0].kind,
            FaultKind::NodeCrash {
                node: NodeId::new(0),
                downtime: Some(SimDuration::from_secs(20))
            }
        );
        // At t=16: crash active, blackout active, drop active; the
        // instantaneous controller crash never counts.
        assert_eq!(inj.active_count(SimTime::from_secs(16)), 3);
        assert_eq!(inj.active_count(SimTime::from_secs(5)), 0);
        assert_eq!(inj.active_count(SimTime::from_secs(40)), 0);
    }

    #[test]
    fn stochastic_actuation_drops_do_not_shift_other_classes() {
        let base = FaultPlan::new().with_stochastic(StochasticFaults {
            stalls_per_hour: 2.0,
            controller_crashes_per_hour: 3.0,
            ..Default::default()
        });
        let with_drops = FaultPlan::new().with_stochastic(StochasticFaults {
            stalls_per_hour: 2.0,
            controller_crashes_per_hour: 3.0,
            actuation_drops_per_hour: 6.0,
            ..Default::default()
        });
        let horizon = SimDuration::from_mins(120);
        let a = FaultInjector::new(&base, 7, horizon, 4);
        let b = FaultInjector::new(&with_drops, 7, horizon, 4);
        assert_eq!(a.stalls, b.stalls);
        assert_eq!(a.controller_crash_schedule(), b.controller_crash_schedule());
        assert!(a.act_drops.is_empty());
        assert!(!b.act_drops.is_empty());
        let b2 = FaultInjector::new(&with_drops, 7, horizon, 4);
        assert_eq!(b.act_drops, b2.act_drops);
    }

    #[test]
    fn noise_distorts_windows_inside_interval_only() {
        let plan = FaultPlan::new().with_metric_noise(
            SimTime::from_secs(50),
            SimDuration::from_secs(50),
            0.5,
        );
        let mut inj = FaultInjector::new(&plan, 3, SimDuration::from_mins(5), 2);
        let base = AppWindow {
            at: SimTime::from_secs(60),
            duration: SimDuration::from_secs(10),
            arrivals: 100,
            completions: 100,
            timeouts: 0,
            shed_requests: 0,
            oom_kills: 0,
            p99_ms: Some(80.0),
            mean_ms: Some(40.0),
            throughput_rps: 10.0,
            usage: evolve_types::ResourceVec::splat(100.0),
            alloc: evolve_types::ResourceVec::ZERO,
            alloc_per_replica: evolve_types::ResourceVec::ZERO,
            running_replicas: 2,
            pending_replicas: 0,
            progress: None,
            projected_makespan_s: None,
        };
        let mut noisy = base.clone();
        inj.distort_window(app(0), &mut noisy);
        assert_ne!(noisy.p99_ms, base.p99_ms);
        assert!(noisy.p99_ms.unwrap() > 0.0);
        let mut outside = AppWindow { at: SimTime::from_secs(150), ..base.clone() };
        let before = outside.clone();
        inj.distort_window(app(0), &mut outside);
        assert_eq!(outside, before);
    }
}
