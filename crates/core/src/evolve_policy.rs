//! The EVOLVE policy: multi-resource adaptive PID control with
//! vertical-first, horizontal-on-saturation scaling.

use evolve_control::{
    DegradationGuard, LoadPredictor, MultiResourceConfig, MultiResourceController,
};
use evolve_telemetry::trace::{ControlExplain, PidTermsTrace};
use evolve_telemetry::{Ewma, SlidingQuantile};
use evolve_types::codec::{Codec, Decoder, Encoder};
use evolve_types::{Resource, ResourceVec, Result};

use crate::policy::{control_error, ObservedAppState, PolicyDecision, PolicyInput};

/// Per-replica allocation floor of an EVOLVE-managed app (and of the VPA
/// baseline).
pub(crate) const MIN_ALLOC: ResourceVec = ResourceVec::new(100.0, 256.0, 5.0, 5.0);
/// Per-replica allocation ceiling (the vertical range; beyond it the
/// policy scales horizontally).
pub(crate) const MAX_ALLOC: ResourceVec = ResourceVec::new(8_000.0, 16_384.0, 250.0, 600.0);
/// Replica lower bound.
const MIN_REPLICAS: u32 = 1;
/// Replica upper bound.
pub(crate) const MAX_REPLICAS: u32 = 64;
/// Control ticks to wait between horizontal actions (hysteresis).
const SCALE_COOLDOWN_TICKS: u32 = 3;
/// Fractional safety margin inside the PLO the controller steers to
/// (0.35 → a 100 ms objective is controlled to a 65 ms setpoint).
const TARGET_MARGIN: f64 = 0.35;

/// Per-application EVOLVE controller state.
#[derive(Debug, Clone)]
pub(crate) struct EvolvePolicy {
    controller: MultiResourceController,
    predictor: LoadPredictor,
    /// Smooths the noisy window percentile before the error computation
    /// (a 5 s window holds a few hundred samples; its p99 jitters).
    measured_filter: Ewma,
    /// Recent request rates (one sample per window) — the burstiness
    /// estimate that sizes the peak-provisioning floor.
    rate_history: SlidingQuantile,
    replicas: u32,
    /// Latches the replica count from the first observed window so the
    /// policy starts from the deployment's actual size.
    latched: bool,
    cooldown: u32,
    is_job: bool,
    /// Hold-last-safe / watchdog / re-engagement state for blackouts.
    guard: DegradationGuard,
    /// Per-replica usage from the last fresh window — anchors the
    /// watchdog floor when signals go dark.
    last_usage_pr: ResourceVec,
    /// Trace-only snapshot of the last stepped control cycle. Excluded
    /// from checkpoints: the decision trace is observability, not state.
    last_error: f64,
    last_smoothed: f64,
    last_attribution: ResourceVec,
    last_saturated_up: bool,
    last_saturated_down: bool,
}

impl EvolvePolicy {
    /// Creates the policy for a service (`is_job = false`) or a batch/HPC
    /// job (`is_job = true`, horizontal scaling disabled); `config` sets
    /// the per-replica range and the controller's ablation switches.
    pub(crate) fn new(config: MultiResourceConfig, is_job: bool) -> Self {
        EvolvePolicy {
            controller: MultiResourceController::new(config),
            predictor: LoadPredictor::new(),
            measured_filter: Ewma::new(0.5),
            rate_history: SlidingQuantile::new(24),
            replicas: MIN_REPLICAS,
            latched: false,
            cooldown: 0,
            is_job,
            guard: DegradationGuard::default(),
            last_usage_pr: ResourceVec::ZERO,
            last_error: 0.0,
            last_smoothed: 0.0,
            last_attribution: ResourceVec::ZERO,
            last_saturated_up: false,
            last_saturated_down: false,
        }
    }

    /// This tick's actuation; `None` leaves the app untouched (dark
    /// before any output was recorded, with nothing to hold).
    pub(crate) fn decide(&mut self, input: &PolicyInput<'_>) -> Option<PolicyDecision> {
        let w = input.window;
        let MultiResourceConfig { min_alloc, max_alloc, .. } = *self.controller.config();
        if input.signal.is_degraded() {
            // Signals are dark. Silence is not idleness: the PID is not
            // stepped (integrator frozen), no scale-in happens, and the
            // last-safe per-replica target is held. Once the watchdog
            // trips, the hold decays toward the usage-anchored floor —
            // never below it — so a stale over-allocation cannot persist
            // indefinitely.
            let floor = (self.last_usage_pr * 1.8).min(&max_alloc).max(&min_alloc);
            let held = match self.guard.on_dark(&floor) {
                Some(v) => v,
                // Dark before any output was recorded: hold whatever the
                // stale window reports, or leave the app untouched when
                // even that is unknown.
                None if w.alloc_per_replica.is_zero() => return None,
                None => w.alloc_per_replica,
            };
            return Some(PolicyDecision {
                per_replica: held,
                replicas: self.replicas.max(MIN_REPLICAS),
            });
        }
        if !self.latched {
            let current = w.running_replicas + w.pending_replicas;
            if current > 0 {
                self.replicas = current.max(MIN_REPLICAS);
            }
            self.latched = true;
            // The first window is dominated by container-start queueing
            // (requests that waited for the replicas to boot); acting on
            // it would punish a transient the controller cannot fix.
            return Some(PolicyDecision {
                per_replica: self.guard.on_signal(w.alloc_per_replica),
                replicas: self.replicas,
            });
        }
        let rate = w.arrivals as f64 / input.dt_secs.max(1e-9);
        self.predictor.observe(rate);
        self.rate_history.observe(rate);

        let measured = w.measured_for(&input.app.plo);
        let alloc_pr = w.alloc_per_replica;
        let usage_pr = w.usage_per_replica();

        // No signal (idle window): hold allocations, but allow scale-in on
        // a long-idle service.
        let Some(measured) = measured else {
            if !self.is_job && w.arrivals == 0 && self.replicas > MIN_REPLICAS {
                if self.cooldown > 0 {
                    self.cooldown -= 1;
                } else {
                    self.replicas -= 1;
                    self.cooldown = SCALE_COOLDOWN_TICKS;
                }
            }
            return Some(PolicyDecision {
                per_replica: self.guard.on_signal(alloc_pr),
                replicas: self.replicas,
            });
        };
        self.last_usage_pr = usage_pr;

        let smoothed =
            if measured.is_finite() { self.measured_filter.observe(measured) } else { measured };
        let error = control_error(&input.app.plo, smoothed, TARGET_MARGIN);
        let per_replica_rps = if w.running_replicas > 0 {
            Some(w.throughput_rps / f64::from(w.running_replicas))
        } else {
            None
        };
        let mut decision = self.controller.step_with_profile(
            alloc_pr,
            usage_pr,
            per_replica_rps,
            error,
            input.dt_secs,
        );
        self.last_error = error;
        self.last_smoothed = smoothed;
        self.last_attribution = decision.attribution;
        self.last_saturated_up = decision.saturated_up;
        self.last_saturated_down = decision.saturated_down;
        // Burst headroom: provision for the recently observed peak rate,
        // not the instantaneous one — bursty traffic (MMPP state flips,
        // recurring spikes) would otherwise buy one violating window on
        // every upswing. The floor is usage scaled by the p90/current
        // rate ratio, capped at 4x.
        if !self.is_job && rate > 1e-9 {
            if let Some(p90) = self.rate_history.quantile(0.9) {
                let burst = (p90 / rate).clamp(1.0, 4.0);
                if burst > 1.05 {
                    let floor = (usage_pr * (burst * 1.15)).min(&max_alloc).max(&min_alloc);
                    decision.target = decision.target.max(&floor);
                }
            }
        }

        if !self.is_job {
            // Usage-anchored replica floor: the fewest replicas whose
            // vertical ceiling still fits the measured demand with 80%
            // headroom. Scale-out to the floor is immediate (demand is
            // real); everything else is hysteretic around it.
            let total_usage = usage_pr * f64::from(w.running_replicas.max(1));
            let mut floor_n = 1u32;
            for r in Resource::ALL {
                let cap = max_alloc[r];
                if cap > 0.0 {
                    floor_n = floor_n.max((total_usage[r] * 1.8 / cap).ceil() as u32);
                }
            }
            let floor_n = floor_n.clamp(MIN_REPLICAS, MAX_REPLICAS);
            if self.replicas < floor_n {
                self.replicas = floor_n;
            } else if self.cooldown > 0 {
                self.cooldown -= 1;
            } else if (decision.saturated_up || input.resize_failures > 0 || w.timeouts > 10)
                && error > 0.15
                && self.replicas < MAX_REPLICAS
            {
                // Vertical growth exhausted (ceiling hit or node headroom
                // blocked the resize) or requests are being dropped under
                // a real violation: go horizontal.
                let growth = ((1.0 + error).ceil() as u32).clamp(1, 2);
                self.replicas = (self.replicas + growth).min(MAX_REPLICAS);
                self.cooldown = SCALE_COOLDOWN_TICKS;
            } else if error < -0.1
                && self.predictor.predicted() > rate * 1.5
                && rate > 0.0
                && self.replicas < MAX_REPLICAS
            {
                // Load trending up sharply: scale ahead of the ramp.
                self.replicas += 1;
                self.cooldown = SCALE_COOLDOWN_TICKS;
            } else if error < -0.2 && self.replicas > floor_n {
                // Compliant with slack and above the demand floor: step
                // back down one replica — but only when the survivors'
                // *current* allocation already holds the whole load with
                // 15% headroom, so the drop never opens a capacity hole.
                let survivor_capacity = alloc_pr * f64::from(self.replicas - 1);
                if (total_usage * 1.15).fits_within(&survivor_capacity) {
                    self.replicas -= 1;
                    self.cooldown = SCALE_COOLDOWN_TICKS;
                }
            }
        }

        // Re-engagement after a blackout is slew-limited: the first few
        // fresh outputs may move only a bounded step from the held value.
        Some(PolicyDecision {
            per_replica: self.guard.on_signal(decision.target),
            replicas: self.replicas,
        })
    }

    /// Writes the state, but not the controller's configuration, the
    /// filters' parameters or whether the app is a job, which the manager
    /// rebuilds.
    pub(crate) fn checkpoint(&self, enc: &mut Encoder) {
        self.controller.checkpoint(enc);
        self.predictor.encode(enc);
        self.measured_filter.checkpoint(enc);
        self.rate_history.checkpoint(enc);
        self.replicas.encode(enc);
        self.latched.encode(enc);
        self.cooldown.encode(enc);
        self.guard.checkpoint(enc);
        self.last_usage_pr.encode(enc);
    }

    /// Overwrites the state with one [`checkpoint`](Self::checkpoint)
    /// wrote.
    pub(crate) fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<()> {
        self.controller.restore(dec)?;
        self.predictor = LoadPredictor::decode(dec)?;
        self.measured_filter.restore(dec)?;
        self.rate_history.restore(dec)?;
        self.replicas = u32::decode(dec)?;
        self.latched = bool::decode(dec)?;
        self.cooldown = u32::decode(dec)?;
        self.guard.restore(dec)?;
        self.last_usage_pr = ResourceVec::decode(dec)?;
        Ok(())
    }

    /// Rebuilds working state from the observed cluster after a restart
    /// with no checkpoint.
    pub(crate) fn reconstruct(&mut self, observed: &ObservedAppState) {
        // Level-triggered rebuild: the cluster's current replica count and
        // granted per-replica request are the only trustworthy facts, so
        // they become the hold-last-safe baseline. The guard slew-limits
        // the first few outputs away from that baseline, and the armed
        // bumpless seed makes the PID's first step reproduce the current
        // allocation instead of jumping to an unwarmed setpoint.
        if observed.replicas > 0 {
            self.replicas = observed.replicas.max(MIN_REPLICAS);
        }
        self.latched = true;
        if !observed.alloc_per_replica.is_zero() {
            self.guard.seed_recovery(observed.alloc_per_replica);
            self.last_usage_pr =
                (observed.alloc_per_replica * 0.5).max(&self.controller.config().min_alloc);
        }
        self.controller.arm_bumpless();
    }

    /// The controller internals behind the last decision, for the
    /// decision trace.
    pub(crate) fn explain(&self) -> ControlExplain {
        let mut pid = [PidTermsTrace::default(); 4];
        let mut gains = [(0.0, 0.0, 0.0); 4];
        for r in Resource::ALL {
            let t = self.controller.pid_terms(r);
            pid[r.index()] = PidTermsTrace { p: t.p, i: t.i, d: t.d, output: t.output };
            gains[r.index()] = self.controller.gains_of(r);
        }
        ControlExplain {
            pid,
            gains,
            attribution: self.last_attribution,
            saturated_up: self.last_saturated_up,
            saturated_down: self.last_saturated_down,
            adaptations: self.controller.adaptations(),
            dark_ticks: self.guard.dark_ticks(),
            watchdog_tripped: self.guard.watchdog_tripped(),
            forecast: self.predictor.predicted(),
            raw_forecast: self.predictor.raw_forecast(),
            trend: self.predictor.trend(),
            smoothed: self.last_smoothed,
            error: self.last_error,
        }
    }

    /// Forgets everything, the cluster included (the naive restart).
    pub(crate) fn reset_to_spec(&mut self) {
        // Naive restart: forget everything and trust the constructor
        // defaults. Deliberately does NOT look at the cluster — `latched`
        // is set so the first window is actuated at the spec's initial
        // replica count, demonstrating why level-triggered reconstruction
        // matters.
        let fresh = EvolvePolicy::new(*self.controller.config(), self.is_job);
        *self = fresh;
        self.latched = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Policy, SignalQuality};
    use crate::ManagerKind;
    use evolve_sim::{AppStatus, AppWindow};
    use evolve_types::{AppId, SimDuration, SimTime};
    use evolve_workload::{PloSpec, WorldClass};

    fn config() -> MultiResourceConfig {
        MultiResourceConfig::new(MIN_ALLOC, MAX_ALLOC)
    }

    /// A ceiling just above the saturating windows below.
    fn low_ceiling() -> MultiResourceConfig {
        MultiResourceConfig::new(ResourceVec::splat(100.0), ResourceVec::splat(1_100.0))
    }

    fn status() -> AppStatus {
        AppStatus {
            id: AppId::new(0),
            name: "svc".into(),
            world: WorldClass::Microservice,
            plo: PloSpec::LatencyP99 { target_ms: 100.0 },
            priority: evolve_types::PriorityClass::default(),
        }
    }

    fn window(p99: Option<f64>, arrivals: u64, alloc: f64, usage: f64) -> AppWindow {
        AppWindow {
            at: SimTime::from_secs(10),
            duration: SimDuration::from_secs(5),
            arrivals,
            completions: arrivals,
            timeouts: 0,
            shed_requests: 0,
            oom_kills: 0,
            p99_ms: p99,
            mean_ms: p99.map(|v| v / 2.0),
            throughput_rps: arrivals as f64 / 5.0,
            usage: ResourceVec::splat(usage),
            alloc: ResourceVec::splat(alloc),
            alloc_per_replica: ResourceVec::splat(alloc),
            running_replicas: 1,
            pending_replicas: 0,
            progress: None,
            projected_makespan_s: None,
        }
    }

    #[test]
    fn violation_grows_allocation() {
        let mut p = EvolvePolicy::new(config(), false);
        let st = status();
        let w = window(Some(200.0), 100, 1_000.0, 950.0);
        // First window is the warmup skip; the second must act.
        let first = p
            .decide(&PolicyInput {
                app: &st,
                window: &w,
                dt_secs: 5.0,
                resize_failures: 0,
                signal: SignalQuality::Fresh,
            })
            .expect("decision");
        assert_eq!(first.per_replica, w.alloc_per_replica);
        let d = p
            .decide(&PolicyInput {
                app: &st,
                window: &w,
                dt_secs: 5.0,
                resize_failures: 0,
                signal: SignalQuality::Fresh,
            })
            .expect("decision");
        assert!(d.per_replica.cpu() > 1_000.0, "cpu {}", d.per_replica.cpu());
    }

    #[test]
    fn slack_shrinks_allocation() {
        let mut p = EvolvePolicy::new(config(), false);
        let st = status();
        let mut alloc = 4_000.0;
        for _ in 0..10 {
            let w = window(Some(10.0), 100, alloc, 100.0);
            let d = p
                .decide(&PolicyInput {
                    app: &st,
                    window: &w,
                    dt_secs: 5.0,
                    resize_failures: 0,
                    signal: SignalQuality::Fresh,
                })
                .expect("decision");
            alloc = d.per_replica.cpu();
        }
        assert!(alloc < 2_000.0, "cpu {alloc}");
    }

    #[test]
    fn saturation_triggers_horizontal_scaling() {
        let mut p = EvolvePolicy::new(low_ceiling(), false);
        let st = status();
        let mut replicas = 1;
        for _ in 0..10 {
            let w = window(Some(500.0), 200, 1_090.0, 1_080.0);
            let d = p
                .decide(&PolicyInput {
                    app: &st,
                    window: &w,
                    dt_secs: 5.0,
                    resize_failures: 0,
                    signal: SignalQuality::Fresh,
                })
                .expect("decision");
            replicas = d.replicas;
        }
        assert!(replicas > 1, "expected scale-out, got {replicas}");
    }

    #[test]
    fn jobs_never_scale_horizontally() {
        let mut p = EvolvePolicy::new(low_ceiling(), true);
        p.replicas = 4;
        let st = AppStatus {
            plo: PloSpec::Deadline { deadline: SimDuration::from_secs(100) },
            world: WorldClass::BigData,
            ..status()
        };
        let mut first = None;
        for _ in 0..10 {
            let mut w = window(None, 0, 1_090.0, 1_080.0);
            w.running_replicas = 4;
            w.projected_makespan_s = Some(500.0); // way over deadline
            let d = p
                .decide(&PolicyInput {
                    app: &st,
                    window: &w,
                    dt_secs: 5.0,
                    resize_failures: 0,
                    signal: SignalQuality::Fresh,
                })
                .expect("decision");
            // Replica count never moves for jobs, no matter the pressure.
            assert_eq!(d.replicas, *first.get_or_insert(d.replicas));
        }
    }

    #[test]
    fn idle_service_scales_in() {
        let mut p = EvolvePolicy::new(config(), false);
        p.replicas = 5;
        let st = status();
        let mut replicas = 5;
        for _ in 0..30 {
            let w = window(None, 0, 1_000.0, 0.0);
            let d = p
                .decide(&PolicyInput {
                    app: &st,
                    window: &w,
                    dt_secs: 5.0,
                    resize_failures: 0,
                    signal: SignalQuality::Fresh,
                })
                .expect("decision");
            replicas = d.replicas;
        }
        assert_eq!(replicas, 1);
    }

    #[test]
    fn degraded_signal_holds_last_safe_output() {
        let mut p = EvolvePolicy::new(config(), false);
        p.replicas = 3;
        let st = status();
        let mut w = window(Some(50.0), 200, 1_000.0, 600.0);
        w.running_replicas = 3;
        let mut steady = None;
        for _ in 0..6 {
            steady = p.decide(&PolicyInput {
                app: &st,
                window: &w,
                dt_secs: 5.0,
                resize_failures: 0,
                signal: SignalQuality::Fresh,
            });
        }
        let steady = steady.expect("decision");
        // Blackout: the manager replays the stale window. Usage was 200
        // per replica, so the watchdog floor is 360 cpu — replicas must
        // hold and allocation may never fall below that floor, no matter
        // how long the blackout lasts.
        for _ in 0..20 {
            let d = p
                .decide(&PolicyInput {
                    app: &st,
                    window: &w,
                    dt_secs: 5.0,
                    resize_failures: 0,
                    signal: SignalQuality::Stale,
                })
                .expect("decision");
            assert_eq!(d.replicas, steady.replicas, "no scale-in while dark");
            assert!(d.per_replica.cpu() >= 360.0 - 1e-9, "cpu {}", d.per_replica.cpu());
        }
        assert_eq!(p.guard.dark_ticks(), 20);
        // Re-engagement: the first fresh decision moves a bounded step
        // from the held output, not a cliff.
        let before = p.decide(&PolicyInput {
            app: &st,
            window: &w,
            dt_secs: 5.0,
            resize_failures: 0,
            signal: SignalQuality::Fresh,
        });
        let d = before.expect("decision");
        assert!(d.per_replica.cpu() > 0.0);
        assert_eq!(p.guard.dark_ticks(), 0);
    }

    #[test]
    fn missing_signal_is_not_idleness() {
        // A synthetic empty window (blackout with no cached scrape) must
        // not trigger the idle scale-in path — contrast with
        // `idle_service_scales_in`, where the empty window is a *fresh*
        // measurement.
        let mut p = EvolvePolicy::new(config(), false);
        p.replicas = 5;
        let st = status();
        // p99 of 70 ms sits on the 65 ms setpoint (100 ms PLO, 35%
        // margin): no scale action while fresh, so the blackout starts
        // from exactly 5 replicas.
        let mut warm = window(Some(70.0), 100, 1_000.0, 400.0);
        warm.running_replicas = 5;
        for _ in 0..3 {
            p.decide(&PolicyInput {
                app: &st,
                window: &warm,
                dt_secs: 5.0,
                resize_failures: 0,
                signal: SignalQuality::Fresh,
            });
        }
        let empty = window(None, 0, 0.0, 0.0);
        for _ in 0..30 {
            let d = p
                .decide(&PolicyInput {
                    app: &st,
                    window: &empty,
                    dt_secs: 5.0,
                    resize_failures: 0,
                    signal: SignalQuality::Missing,
                })
                .expect("decision");
            assert_eq!(d.replicas, 5, "silence must not scale the service in");
            assert!(d.per_replica.cpu() > 0.0, "never scale allocation to zero");
        }
    }

    #[test]
    fn ablation_names() {
        // Each EVOLVE kind, named by its label, runs its own ablation.
        for (kind, cpu_only, adaptive) in [
            (ManagerKind::Evolve, false, true),
            (ManagerKind::EvolveCpuOnly, true, true),
            (ManagerKind::EvolveFixedGains, false, false),
        ] {
            let Policy::Evolve(p) = Policy::new(kind, false) else {
                panic!("{} runs no EVOLVE policy", kind.label());
            };
            let cfg = p.controller.config();
            assert_eq!((cfg.cpu_only, cfg.adaptive), (cpu_only, adaptive), "{}", kind.label());
        }
    }
}
