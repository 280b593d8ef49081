//! Deterministic fault injection.
//!
//! A run's fault schedule is one list of [`FaultEvent`]s — a scenario's
//! `[[fault]]` tables, a fuzzer-drawn schedule or a list built in code —
//! and a [`FaultInjector`] realizes it for one run: node crashes are armed
//! as engine events, while scrape blackouts, noisy metric windows,
//! control-plane stalls and actuation faults are interval predicates the
//! control loop consults each tick. The only randomness is the metric-noise
//! stream, derived from the run seed, so the same schedule and seed yield
//! the same run regardless of how many runs execute in parallel.

use evolve_types::{AppId, NodeId, SimDuration, SimTime};
use evolve_workload::{sample_lognormal_with, SamplingMode};
pub use evolve_workload::{FaultEvent, FaultKind};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::engine::Simulation;
use crate::observe::AppWindow;

/// A fault schedule realized for one run: the events in timeline order,
/// each node flap expanded into its crash/recover pairs.
///
/// Intervals are half-open: a fault starting at `t` with duration `d` is
/// active for `t <= now < t + d`.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    events: Vec<FaultEvent>,
    noise_rng: ChaCha8Rng,
    sampling: SamplingMode,
}

impl FaultInjector {
    /// Realizes `events` for a run with seed `seed`, which seeds the
    /// metric-noise stream (independent of the engine's stream).
    ///
    /// # Panics
    ///
    /// Panics when an event fails [`FaultKind::validate`] (non-finite cv,
    /// fraction outside `(0, 1]`, zero-cycle or zero-period flap).
    #[must_use]
    pub fn new(events: &[FaultEvent], seed: u64) -> Self {
        let mut timeline = Vec::with_capacity(events.len());
        for ev in events {
            if let Err(e) = ev.kind.validate() {
                panic!("{e}");
            }
            match ev.kind {
                // A flap is sugar for `cycles` short crashes: down for the
                // first half of each period, recovered for the second.
                FaultKind::NodeFlap { node, cycles, period } => {
                    timeline.extend((0..u64::from(cycles)).map(|c| FaultEvent {
                        at: ev.at + period * c,
                        kind: FaultKind::NodeCrash { node, downtime: Some(period / 2) },
                    }));
                }
                _ => timeline.push(ev.clone()),
            }
        }
        timeline.sort_by_key(timeline_key);
        FaultInjector {
            events: timeline,
            noise_rng: ChaCha8Rng::seed_from_u64(seed ^ 0x4e01_5e00),
            sampling: SamplingMode::default(),
        }
    }

    /// Selects which sampler generation the noise-distortion draws use.
    /// `Legacy` keeps the Box–Muller stream of the pre-batched sampler
    /// bit-for-bit.
    #[must_use]
    pub fn with_sampling(mut self, mode: SamplingMode) -> Self {
        self.sampling = mode;
        self
    }

    /// Schedules the node crashes as engine events, in timeline order.
    pub fn arm(&self, sim: &mut Simulation) {
        for ev in &self.events {
            if let FaultKind::NodeCrash { node, downtime } = ev.kind {
                sim.inject_node_failure(node, ev.at, downtime.map(|d| ev.at + d));
            }
        }
    }

    /// The realized schedule. It is sorted by start time, then by kind
    /// (node crash, scrape blackout, metric noise, control stall,
    /// controller crash, actuation drop, delay, partial), then by node for
    /// a crash, end time for an interval and end time then lag for a
    /// delay, then by input order. Node flaps appear as their expanded
    /// crash/recover pairs.
    #[must_use]
    pub fn timeline(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The kinds of the faults active at `at`, in timeline order.
    fn active(&self, at: SimTime) -> impl Iterator<Item = &FaultKind> {
        self.events
            .iter()
            .take_while(move |ev| ev.at <= at)
            .filter(move |ev| holds(ev, at))
            .map(|ev| &ev.kind)
    }

    /// `false` while a blackout covering `app` is active at `at`.
    #[must_use]
    pub fn scrape_available(&self, app: AppId, at: SimTime) -> bool {
        !self.active(at).any(|kind| match *kind {
            FaultKind::ScrapeBlackout { app: scope, .. } => scope.is_none_or(|a| a == app),
            _ => false,
        })
    }

    /// `true` while a control-plane stall is active at `at`.
    #[must_use]
    pub fn controller_stalled(&self, at: SimTime) -> bool {
        self.active(at).any(|kind| matches!(kind, FaultKind::ControlStall { .. }))
    }

    /// `true` when a controller crash falls in the half-open interval
    /// `(from, to]`. The runner polls this once per control tick with the
    /// previous tick's time as `from`, so every crash is observed exactly
    /// once even when several ticks were stalled in between.
    #[must_use]
    pub fn controller_crashed_in(&self, from: SimTime, to: SimTime) -> bool {
        self.events
            .iter()
            .any(|ev| ev.kind == FaultKind::ControllerCrash && from < ev.at && ev.at <= to)
    }

    /// `true` while an actuation black-hole is active at `at`: resizes
    /// issued now are silently dropped.
    #[must_use]
    pub fn actuation_dropped(&self, at: SimTime) -> bool {
        self.active(at).any(|kind| matches!(kind, FaultKind::ActuationDrop { .. }))
    }

    /// The actuation lag in force at `at`, when any. Overlapping delay
    /// windows take the longest lag (the slowest path wins).
    #[must_use]
    pub fn actuation_lag(&self, at: SimTime) -> Option<SimDuration> {
        self.active(at)
            .filter_map(|kind| match *kind {
                FaultKind::ActuationDelay { lag, .. } => Some(lag),
                _ => None,
            })
            .max()
    }

    /// The actuation fraction in force at `at`, when any. Overlapping
    /// partial windows take the smallest fraction (the worst rollout
    /// wins).
    #[must_use]
    pub fn actuation_fraction(&self, at: SimTime) -> Option<f64> {
        self.active(at)
            .filter_map(|kind| match *kind {
                FaultKind::ActuationPartial { fraction, .. } => Some(fraction),
                _ => None,
            })
            .min_by(f64::total_cmp)
    }

    /// How many fault intervals are active at `at` (instantaneous
    /// controller crashes never count; a permanent node crash counts from
    /// its fail time onward).
    #[must_use]
    pub fn active_count(&self, at: SimTime) -> usize {
        self.active(at).count()
    }

    /// The noise CV in force for `app` at `at`, when any: the first
    /// covering noise window in timeline order.
    #[must_use]
    pub fn noise_cv(&self, app: AppId, at: SimTime) -> Option<f64> {
        self.active(at).find_map(|kind| match *kind {
            FaultKind::MetricNoise { app: scope, cv, .. } if scope.is_none_or(|a| a == app) => {
                Some(cv)
            }
            _ => None,
        })
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

/// `true` while `ev`, which started at or before `at`, still holds: an
/// interval until its end, a permanent node crash forever, an
/// instantaneous controller crash never.
fn holds(ev: &FaultEvent, at: SimTime) -> bool {
    match ev.kind {
        FaultKind::NodeCrash { downtime, .. } => downtime.is_none_or(|d| at < ev.at + d),
        FaultKind::ControllerCrash | FaultKind::NodeFlap { .. } => false,
        FaultKind::ScrapeBlackout { duration, .. }
        | FaultKind::MetricNoise { duration, .. }
        | FaultKind::ControlStall { duration }
        | FaultKind::ActuationDrop { duration }
        | FaultKind::ActuationDelay { duration, .. }
        | FaultKind::ActuationPartial { duration, .. } => at < ev.at + duration,
    }
}

/// The sort key of [`FaultInjector::timeline`]: start time, kind rank,
/// node, end time, lag.
fn timeline_key(ev: &FaultEvent) -> (SimTime, u8, Option<NodeId>, SimTime, SimDuration) {
    let end = |d: SimDuration| ev.at + d;
    let (rank, node, end, lag) = match ev.kind {
        FaultKind::NodeCrash { node, .. } | FaultKind::NodeFlap { node, .. } => {
            (0, Some(node), ev.at, SimDuration::ZERO)
        }
        FaultKind::ScrapeBlackout { duration, .. } => (1, None, end(duration), SimDuration::ZERO),
        FaultKind::MetricNoise { duration, .. } => (2, None, end(duration), SimDuration::ZERO),
        FaultKind::ControlStall { duration } => (3, None, end(duration), SimDuration::ZERO),
        FaultKind::ControllerCrash => (4, None, ev.at, SimDuration::ZERO),
        FaultKind::ActuationDrop { duration } => (5, None, end(duration), SimDuration::ZERO),
        FaultKind::ActuationDelay { duration, lag } => (6, None, end(duration), lag),
        FaultKind::ActuationPartial { duration, .. } => (7, None, end(duration), SimDuration::ZERO),
    };
    (ev.at, rank, node, end, lag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app(id: u32) -> AppId {
        AppId::new(id)
    }

    fn ev(at: u64, kind: FaultKind) -> FaultEvent {
        FaultEvent { at: SimTime::from_secs(at), kind }
    }

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn empty_plan_injects_nothing() {
        let inj = FaultInjector::new(&[], 1);
        assert!(inj.timeline().is_empty());
        assert!(inj.scrape_available(app(0), SimTime::from_secs(100)));
        assert!(!inj.controller_stalled(SimTime::from_secs(100)));
        assert_eq!(inj.active_count(SimTime::from_secs(100)), 0);
    }

    #[test]
    fn scheduled_intervals_are_half_open() {
        let inj = FaultInjector::new(
            &[
                ev(100, FaultKind::ScrapeBlackout { app: None, duration: secs(50) }),
                ev(200, FaultKind::ControlStall { duration: secs(10) }),
            ],
            1,
        );
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
        let inj = FaultInjector::new(&[ev(300, FaultKind::ControllerCrash)], 1);
        assert_eq!(inj.timeline(), &[ev(300, FaultKind::ControllerCrash)]);
        // Half-open (from, to]: the tick ending exactly at the crash sees it,
        // the next tick does not see it again.
        assert!(!inj.controller_crashed_in(SimTime::from_secs(290), SimTime::from_secs(295)));
        assert!(inj.controller_crashed_in(SimTime::from_secs(295), SimTime::from_secs(300)));
        assert!(!inj.controller_crashed_in(SimTime::from_secs(300), SimTime::from_secs(305)));
    }

    #[test]
    fn app_scoped_blackout_spares_other_apps() {
        let inj = FaultInjector::new(
            &[ev(10, FaultKind::ScrapeBlackout { app: Some(app(1)), duration: secs(10) })],
            1,
        );
        assert!(!inj.scrape_available(app(1), SimTime::from_secs(15)));
        assert!(inj.scrape_available(app(0), SimTime::from_secs(15)));
    }

    #[test]
    fn actuation_faults_are_half_open_intervals() {
        let inj = FaultInjector::new(
            &[
                ev(100, FaultKind::ActuationDrop { duration: secs(50) }),
                ev(200, FaultKind::ActuationDelay { duration: secs(30), lag: secs(12) }),
                ev(300, FaultKind::ActuationPartial { duration: secs(40), fraction: 0.5 }),
            ],
            1,
        );
        assert!(!inj.actuation_dropped(SimTime::from_secs(99)));
        assert!(inj.actuation_dropped(SimTime::from_secs(100)));
        assert!(inj.actuation_dropped(SimTime::from_secs(149)));
        assert!(!inj.actuation_dropped(SimTime::from_secs(150)));
        assert_eq!(inj.actuation_lag(SimTime::from_secs(199)), None);
        assert_eq!(inj.actuation_lag(SimTime::from_secs(210)), Some(secs(12)));
        assert_eq!(inj.actuation_lag(SimTime::from_secs(230)), None);
        assert_eq!(inj.actuation_fraction(SimTime::from_secs(299)), None);
        assert_eq!(inj.actuation_fraction(SimTime::from_secs(320)), Some(0.5));
        assert_eq!(inj.actuation_fraction(SimTime::from_secs(340)), None);
    }

    #[test]
    fn overlapping_actuation_windows_take_the_worst_case() {
        let inj = FaultInjector::new(
            &[
                ev(0, FaultKind::ActuationDelay { duration: secs(100), lag: secs(5) }),
                ev(50, FaultKind::ActuationDelay { duration: secs(100), lag: secs(20) }),
                ev(0, FaultKind::ActuationPartial { duration: secs(100), fraction: 0.8 }),
                ev(50, FaultKind::ActuationPartial { duration: secs(100), fraction: 0.25 }),
            ],
            1,
        );
        assert_eq!(inj.actuation_lag(SimTime::from_secs(75)), Some(secs(20)));
        assert_eq!(inj.actuation_fraction(SimTime::from_secs(75)), Some(0.25));
    }

    #[test]
    fn node_flap_expands_into_crash_recover_pairs() {
        let node = NodeId::new(2);
        let inj = FaultInjector::new(
            &[ev(60, FaultKind::NodeFlap { node, cycles: 3, period: secs(20) })],
            1,
        );
        let expected: Vec<FaultEvent> = (0..3)
            .map(|c| ev(60 + 20 * c, FaultKind::NodeCrash { node, downtime: Some(secs(10)) }))
            .collect();
        assert_eq!(inj.timeline(), &expected[..]);
    }

    #[test]
    fn invalid_fault_parameters_yield_typed_errors() {
        let invalid = [
            FaultKind::ActuationPartial { duration: secs(10), fraction: 1.5 },
            FaultKind::MetricNoise { app: None, duration: secs(10), cv: f64::NAN },
            FaultKind::NodeFlap { node: NodeId::new(0), cycles: 0, period: secs(5) },
            FaultKind::NodeFlap { node: NodeId::new(0), cycles: 2, period: SimDuration::ZERO },
        ];
        for kind in invalid {
            let err = kind.validate().expect_err("invalid parameters");
            assert!(matches!(err, evolve_types::Error::InvalidConfig(_)), "{kind:?}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "actuation fraction must be in (0, 1]")]
    fn invalid_event_panics_in_new() {
        let _ = FaultInjector::new(
            &[ev(1, FaultKind::ActuationPartial { duration: secs(10), fraction: 0.0 })],
            1,
        );
    }

    #[test]
    fn timeline_and_active_count_cover_all_classes() {
        let inj = FaultInjector::new(
            &[
                ev(10, FaultKind::NodeCrash { node: NodeId::new(0), downtime: Some(secs(20)) }),
                ev(15, FaultKind::ScrapeBlackout { app: None, duration: secs(10) }),
                ev(12, FaultKind::ActuationDrop { duration: secs(6) }),
                ev(14, FaultKind::ControllerCrash),
            ],
            1,
        );
        let timeline = inj.timeline();
        assert_eq!(timeline.len(), 4);
        assert!(timeline.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(
            timeline[0].kind,
            FaultKind::NodeCrash { node: NodeId::new(0), downtime: Some(secs(20)) }
        );
        // At t=16: crash active, blackout active, drop active; the
        // instantaneous controller crash never counts.
        assert_eq!(inj.active_count(SimTime::from_secs(16)), 3);
        assert_eq!(inj.active_count(SimTime::from_secs(5)), 0);
        assert_eq!(inj.active_count(SimTime::from_secs(40)), 0);
    }

    #[test]
    fn noise_distorts_windows_inside_interval_only() {
        let mut inj = FaultInjector::new(
            &[ev(50, FaultKind::MetricNoise { app: None, duration: secs(50), cv: 0.5 })],
            3,
        );
        let base = AppWindow {
            at: SimTime::from_secs(60),
            duration: secs(10),
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
