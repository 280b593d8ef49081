//! The resource manager: one policy instance per application, PLO
//! violation accounting, and actuation against the simulated cluster.

use std::collections::{BTreeSet, HashMap};

use evolve_control::{
    ArbiterConfig, ArbiterRequest, ArbitrationOutcome, CapacityArbiter, GrantDecision,
};
use evolve_scheduler::RequeueBackoff;
use evolve_sim::{AppStatus, AppWindow, FaultInjector, Simulation};
use evolve_telemetry::trace::{
    ActuationOutcome, ArbitrationTrace, ControlTrace, TraceEvent, TraceRing,
};
use evolve_telemetry::{PloBound, PloTracker};
use evolve_types::codec::{Decoder, Encoder};
use evolve_types::{
    AppId, Error, PriorityClass, Resource, ResourceVec, Result, SimDuration, SimTime,
};
use evolve_workload::{PloSpec, WorldClass};

use crate::baselines::{HpaPolicy, StaticPolicy, VpaPolicy};
use crate::checkpoint::{AppCheckpoint, ControllerCheckpoint};
use crate::evolve_policy::{EvolvePolicy, EvolvePolicyConfig};
use crate::policy::{
    AutoscalePolicy, ObservedAppState, PolicyDecision, PolicyInput, SignalQuality,
};

/// Which resource-management system runs the cluster.
#[derive(Debug, Clone, PartialEq)]
pub enum ManagerKind {
    /// The paper's system: multi-resource adaptive PID per application.
    Evolve,
    /// EVOLVE with a custom policy configuration (ablations).
    EvolveWith(EvolvePolicyConfig),
    /// Stock Kubernetes: static requests, static replicas.
    KubeStatic,
    /// Threshold HPA on CPU utilization.
    Hpa {
        /// Target CPU utilization in `(0, 1]`.
        target_utilization: f64,
    },
    /// VPA-like percentile vertical scaler.
    Vpa {
        /// Relative headroom above observed usage.
        margin: f64,
    },
}

impl ManagerKind {
    /// A short label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            ManagerKind::Evolve => "evolve".into(),
            ManagerKind::EvolveWith(cfg) => {
                if cfg.cpu_only {
                    "evolve-cpu-only".into()
                } else if cfg.fixed_gains {
                    "evolve-fixed-gains".into()
                } else if !cfg.predictive {
                    "evolve-reactive".into()
                } else {
                    "evolve-custom".into()
                }
            }
            ManagerKind::KubeStatic => "kube-static".into(),
            ManagerKind::Hpa { .. } => "hpa".into(),
            ManagerKind::Vpa { .. } => "vpa".into(),
        }
    }
}

/// Per-application record the manager keeps.
struct ManagedApp {
    policy: Box<dyn AutoscalePolicy>,
    tracker: PloTracker,
    /// The app's identity and PLO as the simulation advertised it at
    /// construction; statuses never change afterwards.
    status: AppStatus,
    /// Failed in-place resizes on the previous tick.
    last_resize_failures: u32,
    /// Last successfully scraped window — replayed (as `Stale`) while a
    /// blackout blocks scrapes.
    last_window: Option<AppWindow>,
    /// Control seconds accumulated while scrapes were dark; folded into
    /// the first post-blackout tick so rates are computed over the real
    /// elapsed time.
    pending_dt: f64,
    /// Consecutive actuations that reported resize failures.
    failure_streak: u32,
    /// Tick index before which an unchanged failing target is suppressed.
    backoff_until: u64,
    /// The decision last actuated (for the retry-backoff comparison).
    last_decision: Option<PolicyDecision>,
}

/// Fraction of its desired per-replica allocation a shed app is squeezed
/// to: enough to stay alive and answer the trickle the bounded shed queue
/// still admits, small enough that shedding actually frees capacity for
/// the granted classes.
const SHED_KEEPALIVE_FRACTION: f64 = 0.05;

/// The control plane: scrapes windows, evaluates PLOs, runs policies and
/// actuates.
pub struct ResourceManager {
    kind: ManagerKind,
    apps: HashMap<AppId, ManagedApp>,
    /// Failed in-place resizes (capacity contention diagnostics).
    resize_failures: u64,
    /// Control ticks executed.
    ticks: u64,
    /// Actuations skipped by the retry-backoff (the target had just
    /// failed and had not changed).
    suppressed_actuations: u64,
    /// Control-tick lookups that referenced an application the manager no
    /// longer tracks (desync between simulation and control plane) — each
    /// one was skipped instead of panicking.
    desynced_apps: u64,
    /// Actuations swallowed by an `ActuationDrop` fault. The controller
    /// believes they succeeded — exactly the silent-failure mode a real
    /// API server outage produces.
    dropped_actuations: u64,
    /// Actuations deferred by an `ActuationDelay` fault.
    delayed_actuations: u64,
    /// Actuations applied to only a fraction of replicas by an
    /// `ActuationPartial` fault.
    partial_actuations: u64,
    /// Delayed actuations waiting for their release time: `(due, app,
    /// decision)`, applied at the start of the first tick at or past
    /// `due`. Push order follows the deterministic app iteration order,
    /// so the queue itself is deterministic.
    pending_actuations: Vec<(SimTime, AppId, PolicyDecision)>,
    /// Cluster-level capacity arbiter; `None` (the default) leaves the
    /// control path exactly as before — per-app decisions actuate
    /// unarbitrated.
    arbiter: Option<CapacityArbiter>,
    /// Outcomes of the most recent arbitration round (empty when the
    /// arbiter is off or the last tick had no decided targets).
    last_arbitration: Vec<ArbitrationOutcome>,
    /// Actuations whose grant was clipped below the policy's request.
    clipped_allocations: u64,
    /// Arbitration rounds that shed an app outright (no actuation).
    shed_decisions: u64,
    /// Distinct apps the arbiter has ever shed.
    shed_app_ids: BTreeSet<AppId>,
    /// Highest starvation age any app reached under arbitration.
    starvation_watermark: u32,
    /// PLO violations recorded from windows in which the app was actively
    /// shedding load (`shed_requests > 0`) — reported separately so a
    /// deliberate brown-out is not mistaken for an uncontrolled one.
    violations_while_shedding: u64,
}

impl std::fmt::Debug for ResourceManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResourceManager")
            .field("kind", &self.kind.label())
            .field("apps", &self.apps.len())
            .finish()
    }
}

impl ResourceManager {
    /// Creates the manager and one policy instance per application in the
    /// simulation.
    #[must_use]
    pub fn new(kind: ManagerKind, sim: &Simulation) -> Self {
        let mut apps = HashMap::new();
        for status in sim.apps() {
            let is_job = status.world != WorldClass::Microservice;
            let initial_replicas = 1;
            let policy: Box<dyn AutoscalePolicy> = match &kind {
                ManagerKind::Evolve => Box::new(EvolvePolicy::new(
                    EvolvePolicyConfig::default(),
                    initial_replicas,
                    is_job,
                )),
                ManagerKind::EvolveWith(cfg) => {
                    Box::new(EvolvePolicy::new(*cfg, initial_replicas, is_job))
                }
                ManagerKind::KubeStatic => Box::new(StaticPolicy),
                ManagerKind::Hpa { target_utilization } => {
                    if is_job {
                        // HPA does not manage jobs; they run statically.
                        Box::new(StaticPolicy)
                    } else {
                        Box::new(HpaPolicy::new(
                            *target_utilization,
                            // HPA keeps the user-provided request; the
                            // runner passes the initial alloc via the
                            // window, so seed with a common default.
                            ResourceVec::new(1_000.0, 1_024.0, 50.0, 50.0),
                            2,
                            64,
                        ))
                    }
                }
                ManagerKind::Vpa { margin } => {
                    if is_job {
                        Box::new(StaticPolicy)
                    } else {
                        Box::new(VpaPolicy::new(
                            *margin,
                            ResourceVec::new(100.0, 256.0, 5.0, 5.0),
                            ResourceVec::new(8_000.0, 16_384.0, 250.0, 600.0),
                            2,
                        ))
                    }
                }
            };
            let bound = if status.plo.upper_bound() { PloBound::Upper } else { PloBound::Lower };
            apps.insert(
                status.id,
                ManagedApp {
                    policy,
                    tracker: PloTracker::new(status.plo.target().max(1e-9), bound),
                    status: status.clone(),
                    last_resize_failures: 0,
                    last_window: None,
                    pending_dt: 0.0,
                    failure_streak: 0,
                    backoff_until: 0,
                    last_decision: None,
                },
            );
        }
        ResourceManager {
            kind,
            apps,
            resize_failures: 0,
            ticks: 0,
            suppressed_actuations: 0,
            desynced_apps: 0,
            dropped_actuations: 0,
            delayed_actuations: 0,
            partial_actuations: 0,
            pending_actuations: Vec::new(),
            arbiter: None,
            last_arbitration: Vec::new(),
            clipped_allocations: 0,
            shed_decisions: 0,
            shed_app_ids: BTreeSet::new(),
            starvation_watermark: 0,
            violations_while_shedding: 0,
        }
    }

    /// Installs a cluster-level capacity arbiter: every subsequent control
    /// tick runs all per-app policy steps first, then arbitrates the
    /// summed demand against ready capacity before anything actuates.
    pub fn set_arbiter(&mut self, config: ArbiterConfig) {
        self.arbiter = Some(CapacityArbiter::new(config));
    }

    /// The installed arbiter, if any.
    #[must_use]
    pub fn arbiter(&self) -> Option<&CapacityArbiter> {
        self.arbiter.as_ref()
    }

    /// Outcomes of the most recent arbitration round (empty when the
    /// arbiter is off).
    #[must_use]
    pub fn last_arbitration(&self) -> &[ArbitrationOutcome] {
        &self.last_arbitration
    }

    /// Actuations whose grant was clipped below the policy's request.
    #[must_use]
    pub fn clipped_allocations(&self) -> u64 {
        self.clipped_allocations
    }

    /// Arbitration rounds that shed an app outright.
    #[must_use]
    pub fn shed_decisions(&self) -> u64 {
        self.shed_decisions
    }

    /// Distinct apps the arbiter has ever shed.
    #[must_use]
    pub fn shed_apps(&self) -> u64 {
        self.shed_app_ids.len() as u64
    }

    /// Highest starvation age any app reached under arbitration.
    #[must_use]
    pub fn starvation_watermark(&self) -> u32 {
        self.starvation_watermark
    }

    /// PLO violations recorded while the violating app was shedding load.
    #[must_use]
    pub fn violations_while_shedding(&self) -> u64 {
        self.violations_while_shedding
    }

    /// Looks up an application's control record, returning the typed
    /// error a desynced id produces (instead of panicking).
    fn managed_mut(apps: &mut HashMap<AppId, ManagedApp>, app: AppId) -> Result<&mut ManagedApp> {
        apps.get_mut(&app).ok_or(Error::UnknownApp(app))
    }

    /// Captures the complete mutable state of the control plane (plus the
    /// scheduler's requeue-backoff ledger, which lives with the runner)
    /// into one deterministic image. Apps are sorted by id so identical
    /// control states always produce identical bytes.
    #[must_use]
    pub fn checkpoint(&self, at: SimTime, backoff: &RequeueBackoff) -> ControllerCheckpoint {
        let mut apps: Vec<(AppId, AppCheckpoint)> = self
            .apps
            .iter()
            .map(|(id, m)| {
                let mut enc = Encoder::new();
                m.policy.checkpoint(&mut enc);
                (
                    *id,
                    AppCheckpoint {
                        policy_blob: enc.into_bytes(),
                        tracker: m.tracker.clone(),
                        last_window: m.last_window.clone(),
                        pending_dt: m.pending_dt,
                        failure_streak: m.failure_streak,
                        backoff_until: m.backoff_until,
                        last_decision: m.last_decision,
                        last_resize_failures: m.last_resize_failures,
                    },
                )
            })
            .collect();
        apps.sort_by_key(|&(id, _)| id);
        ControllerCheckpoint {
            at,
            ticks: self.ticks,
            resize_failures: self.resize_failures,
            suppressed_actuations: self.suppressed_actuations,
            dropped_actuations: self.dropped_actuations,
            delayed_actuations: self.delayed_actuations,
            partial_actuations: self.partial_actuations,
            pending_actuations: self.pending_actuations.clone(),
            apps,
            scheduler_backoff: backoff.clone(),
            arbiter: self.arbiter.clone(),
            clipped_allocations: self.clipped_allocations,
            shed_decisions: self.shed_decisions,
            shed_app_ids: self.shed_app_ids.iter().copied().collect(),
            starvation_watermark: self.starvation_watermark,
            violations_while_shedding: self.violations_while_shedding,
        }
    }

    /// Rebuilds a manager from a checkpoint: constructs fresh policies
    /// (static config comes from `kind` and the workload, exactly as at
    /// boot) and then overwrites every piece of mutable state with the
    /// captured values. A checkpoint taken at the end of tick *t* restores
    /// a manager bit-identical to the live one entering tick *t + 1*.
    /// Returns the manager together with the captured scheduler backoff.
    ///
    /// Checkpointed apps the simulation no longer knows are skipped and
    /// counted in [`ResourceManager::desynced_apps`]; apps the simulation
    /// gained since the capture keep their fresh boot state.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CorruptCheckpoint`] when a policy blob fails to
    /// decode (wrong policy tag, truncation, trailing bytes).
    pub fn restore(
        kind: ManagerKind,
        sim: &Simulation,
        ck: &ControllerCheckpoint,
    ) -> Result<(Self, RequeueBackoff)> {
        let mut mgr = ResourceManager::new(kind, sim);
        mgr.ticks = ck.ticks;
        mgr.resize_failures = ck.resize_failures;
        mgr.suppressed_actuations = ck.suppressed_actuations;
        mgr.dropped_actuations = ck.dropped_actuations;
        mgr.delayed_actuations = ck.delayed_actuations;
        mgr.partial_actuations = ck.partial_actuations;
        mgr.pending_actuations = ck.pending_actuations.clone();
        mgr.arbiter = ck.arbiter.clone();
        mgr.clipped_allocations = ck.clipped_allocations;
        mgr.shed_decisions = ck.shed_decisions;
        mgr.shed_app_ids = ck.shed_app_ids.iter().copied().collect();
        mgr.starvation_watermark = ck.starvation_watermark;
        mgr.violations_while_shedding = ck.violations_while_shedding;
        for (id, app_ck) in &ck.apps {
            let Some(m) = mgr.apps.get_mut(id) else {
                mgr.desynced_apps += 1;
                continue;
            };
            let mut dec = Decoder::new(&app_ck.policy_blob);
            m.policy.restore(&mut dec)?;
            if !dec.is_empty() {
                return Err(Error::CorruptCheckpoint(format!(
                    "{} trailing bytes in policy blob for {id}",
                    dec.remaining()
                )));
            }
            m.tracker = app_ck.tracker.clone();
            m.last_window = app_ck.last_window.clone();
            m.pending_dt = app_ck.pending_dt;
            m.failure_streak = app_ck.failure_streak;
            m.backoff_until = app_ck.backoff_until;
            m.last_decision = app_ck.last_decision;
            m.last_resize_failures = app_ck.last_resize_failures;
        }
        Ok((mgr, ck.scheduler_backoff.clone()))
    }

    /// What the live cluster currently says about each app: replicas that
    /// hold resources and their mean granted request.
    fn observe_apps(sim: &Simulation) -> HashMap<AppId, ObservedAppState> {
        let mut acc: HashMap<AppId, (u32, ResourceVec)> = HashMap::new();
        for pod in sim.cluster().pods() {
            if pod.phase.holds_resources() {
                let e = acc.entry(pod.app()).or_insert((0, ResourceVec::ZERO));
                e.0 += 1;
                e.1 += pod.spec.request;
            }
        }
        acc.into_iter()
            .map(|(id, (n, total))| {
                let per = if n > 0 { total * (1.0 / f64::from(n)) } else { ResourceVec::ZERO };
                (id, ObservedAppState { replicas: n, alloc_per_replica: per })
            })
            .collect()
    }

    /// Cold recovery with no usable checkpoint: boots a fresh manager and
    /// reconstructs each policy's working state **level-triggered** from
    /// the cluster itself — the replicas that currently hold resources and
    /// their granted requests become the hold-last-safe baseline, the
    /// degradation guard slew-limits re-engagement away from it, and the
    /// PID is seeded so its first output reproduces the current actuation
    /// (bumpless transfer) instead of jumping to an unwarmed setpoint.
    #[must_use]
    pub fn cold_reconstruct(kind: ManagerKind, sim: &Simulation) -> Self {
        let mut mgr = ResourceManager::new(kind, sim);
        let observed = Self::observe_apps(sim);
        for (id, m) in &mut mgr.apps {
            if let Some(obs) = observed.get(id) {
                m.policy.reconstruct(obs);
            }
        }
        mgr
    }

    /// The strawman recovery: a fresh manager whose policies actuate
    /// their spec defaults immediately, without observing the cluster —
    /// the restart behaviour of a controller with no recovery logic.
    #[must_use]
    pub fn naive_reset(kind: ManagerKind, sim: &Simulation) -> Self {
        let mut mgr = ResourceManager::new(kind, sim);
        for m in mgr.apps.values_mut() {
            m.policy.reset_to_spec();
        }
        mgr
    }

    /// Ages a restored manager across a recovery gap longer than one
    /// control tick (the checkpoint was stale): the dark seconds are
    /// folded into each app's `pending_dt` so the first post-restart
    /// window computes rates over the real elapsed time, and each policy
    /// re-engages slew-limited from the *current* cluster state rather
    /// than trusting measurements from before the gap.
    pub fn age_after_gap(&mut self, sim: &Simulation, gap_secs: f64) {
        if gap_secs <= 0.0 {
            return;
        }
        let observed = Self::observe_apps(sim);
        for (id, m) in &mut self.apps {
            m.pending_dt += gap_secs;
            if let Some(obs) = observed.get(id) {
                m.policy.reconstruct(obs);
            }
        }
    }

    /// The manager's label for reports.
    #[must_use]
    pub fn label(&self) -> String {
        self.kind.label()
    }

    /// Cumulative failed in-place resizes.
    #[must_use]
    pub fn resize_failures(&self) -> u64 {
        self.resize_failures
    }

    /// The PLO tracker of one application.
    #[must_use]
    pub fn tracker(&self, app: AppId) -> Option<&PloTracker> {
        self.apps.get(&app).map(|a| &a.tracker)
    }

    /// World class of one application.
    #[must_use]
    pub fn world(&self, app: AppId) -> Option<WorldClass> {
        self.apps.get(&app).map(|a| a.status.world)
    }

    /// Actuations skipped by the retry-with-backoff logic.
    #[must_use]
    pub fn suppressed_actuations(&self) -> u64 {
        self.suppressed_actuations
    }

    /// Control-tick lookups that referenced an app the manager does not
    /// track (skipped instead of panicking).
    #[must_use]
    pub fn desynced_apps(&self) -> u64 {
        self.desynced_apps
    }

    /// Actuations silently swallowed by an `ActuationDrop` fault.
    #[must_use]
    pub fn dropped_actuations(&self) -> u64 {
        self.dropped_actuations
    }

    /// Actuations deferred by an `ActuationDelay` fault.
    #[must_use]
    pub fn delayed_actuations(&self) -> u64 {
        self.delayed_actuations
    }

    /// Actuations applied to only part of the fleet by an
    /// `ActuationPartial` fault.
    #[must_use]
    pub fn partial_actuations(&self) -> u64 {
        self.partial_actuations
    }

    /// Delayed actuations still waiting for their release time.
    #[must_use]
    pub fn pending_actuation_count(&self) -> usize {
        self.pending_actuations.len()
    }

    /// Applies every delayed actuation whose release time has arrived.
    /// Late targets are actuated verbatim — the controller moved on
    /// ticks ago, which is precisely the staleness hazard the chaos
    /// oracle watches for. Failures feed the global resize-failure
    /// counter but not the per-app retry backoff: the app's policy
    /// never observed this actuation, so it must not be punished for it.
    fn flush_pending_actuations(&mut self, sim: &mut Simulation) {
        let now = sim.now();
        if self.pending_actuations.is_empty() {
            return;
        }
        let mut still_pending = Vec::with_capacity(self.pending_actuations.len());
        for (due, app, decision) in std::mem::take(&mut self.pending_actuations) {
            if due > now {
                still_pending.push((due, app, decision));
                continue;
            }
            let Some(world) = self.apps.get(&app).map(|m| m.status.world) else {
                self.desynced_apps += 1;
                continue;
            };
            let failures = match world {
                WorldClass::Microservice => sim
                    .set_service_target(app, decision.replicas, decision.per_replica)
                    .unwrap_or(0),
                WorldClass::BigData => sim.set_batch_target(app, decision.per_replica).unwrap_or(0),
                WorldClass::Hpc => sim.set_hpc_target(app, decision.per_replica).unwrap_or(0),
            };
            self.resize_failures += u64::from(failures);
        }
        self.pending_actuations = still_pending;
    }

    /// Control ticks executed so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Runs one control tick: harvest every app's window, account PLO
    /// compliance, run the policy, actuate. Returns the harvested windows
    /// for telemetry.
    pub fn tick(
        &mut self,
        sim: &mut Simulation,
        dt_secs: f64,
    ) -> Vec<(AppId, evolve_sim::AppWindow)> {
        self.tick_with_faults(sim, dt_secs, None)
    }

    /// Like [`ResourceManager::tick`], but consulting a fault injector:
    /// apps under a scrape blackout are *not* harvested (the engine keeps
    /// accumulating; the post-blackout window covers the gap) — their
    /// policies run on the replayed last window marked [`SignalQuality::
    /// Stale`] (or a synthetic empty one marked `Missing`), and no PLO
    /// window is recorded. Fresh windows pass through the injector's
    /// noise distortion. Returns the fresh windows only.
    pub fn tick_with_faults(
        &mut self,
        sim: &mut Simulation,
        dt_secs: f64,
        injector: Option<&mut FaultInjector>,
    ) -> Vec<(AppId, evolve_sim::AppWindow)> {
        self.tick_traced(sim, dt_secs, injector, None)
    }

    /// Like [`ResourceManager::tick_with_faults`], but additionally
    /// pushing one [`ControlTrace`] per managed application into `trace`:
    /// the signal quality, the measurement the policy saw, the actuation
    /// outcome (applied / suppressed / held / no-decision) and — for
    /// policies that implement [`AutoscalePolicy::explain`] — the full
    /// controller internals (PID terms, adaptive gains, predictor
    /// forecast, degradation-guard state).
    pub fn tick_traced(
        &mut self,
        sim: &mut Simulation,
        dt_secs: f64,
        mut injector: Option<&mut FaultInjector>,
        mut trace: Option<&mut TraceRing>,
    ) -> Vec<(AppId, evolve_sim::AppWindow)> {
        if self.arbiter.is_some() {
            return self.tick_arbitrated(sim, dt_secs, injector, trace);
        }
        self.ticks += 1;
        self.flush_pending_actuations(sim);
        let mut windows = Vec::with_capacity(sim.apps().len());
        for i in 0..sim.apps().len() {
            let app = sim.apps()[i].id;
            let now = sim.now();
            let blocked = injector.as_ref().is_some_and(|i| !i.scrape_available(app, now));
            let managed = match Self::managed_mut(&mut self.apps, app) {
                Ok(m) => m,
                // The simulation advertises an app the manager never
                // registered (control-plane desync). Skip it this tick
                // rather than crashing the whole controller.
                Err(_) => {
                    self.desynced_apps += 1;
                    continue;
                }
            };
            let (window, signal, effective_dt) = if blocked {
                managed.pending_dt += dt_secs;
                match managed.last_window.clone() {
                    Some(w) => (w, SignalQuality::Stale, dt_secs),
                    None => (empty_window(now), SignalQuality::Missing, dt_secs),
                }
            } else {
                let Ok(mut w) = sim.take_window(app) else {
                    // The manager tracks an app the simulation no longer
                    // serves windows for — same desync class as an unknown
                    // id: skip and count, never panic.
                    self.desynced_apps += 1;
                    continue;
                };
                if let Some(i) = injector.as_deref_mut() {
                    i.distort_window(app, &mut w);
                }
                let effective_dt = dt_secs + managed.pending_dt;
                managed.pending_dt = 0.0;
                // PLO accounting: only fresh windows that produced a
                // signal — blacked-out windows are simply missing.
                if let Some(measured) = w.measured_for(&managed.status.plo) {
                    // Deadline PLOs: stop counting after the job finished.
                    let skip = matches!(managed.status.plo, PloSpec::Deadline { .. })
                        && w.progress == Some(1.0)
                        && {
                            // Finished: one final window was counted.
                            managed.tracker.windows() > 0 && w.completions == 0 && w.arrivals == 0
                        };
                    if !skip {
                        managed.tracker.record_window(w.at, measured);
                    }
                }
                managed.last_window = Some(w.clone());
                (w, SignalQuality::Fresh, effective_dt)
            };
            let input = PolicyInput {
                app: &managed.status,
                window: &window,
                dt_secs: effective_dt,
                resize_failures: managed.last_resize_failures,
                signal,
            };
            let decision = managed.policy.decide(&input);
            let mut outcome = ActuationOutcome::NoDecision;
            if let Some(decision) = decision {
                // Retry with backoff: re-issuing a target that just
                // failed (and has not materially changed) only hammers a
                // full node. Suppress it for exponentially growing tick
                // counts; any changed target acts immediately.
                let repeat_of_failed = managed.failure_streak > 0
                    && managed.last_decision.is_some_and(|d| decisions_close(&d, &decision));
                if repeat_of_failed && self.ticks < managed.backoff_until {
                    self.suppressed_actuations += 1;
                    outcome = ActuationOutcome::Suppressed;
                } else if injector.as_ref().is_some_and(|i| i.actuation_dropped(now)) {
                    // The resize request vanished between controller and
                    // cluster. The controller has no error to observe, so
                    // it records the decision as landed: no failure
                    // streak, no backoff — it will only notice via the
                    // next window's replica counts.
                    self.dropped_actuations += 1;
                    managed.failure_streak = 0;
                    managed.last_resize_failures = 0;
                    managed.last_decision = Some(decision);
                    outcome = ActuationOutcome::Dropped;
                } else if let Some(lag) = injector.as_ref().and_then(|i| i.actuation_lag(now)) {
                    // Queued behind a slow API path: the target lands at
                    // `now + lag` verbatim, however stale it is by then.
                    self.delayed_actuations += 1;
                    managed.failure_streak = 0;
                    managed.last_resize_failures = 0;
                    managed.last_decision = Some(decision);
                    self.pending_actuations.push((now + lag, app, decision));
                    outcome = ActuationOutcome::Delayed;
                } else {
                    let fraction =
                        injector.as_ref().and_then(|i| i.actuation_fraction(now)).unwrap_or(1.0);
                    if fraction < 1.0 {
                        self.partial_actuations += 1;
                    }
                    let failures = match managed.status.world {
                        WorldClass::Microservice => sim
                            .set_service_target_partial(
                                app,
                                decision.replicas,
                                decision.per_replica,
                                fraction,
                            )
                            .unwrap_or(0),
                        WorldClass::BigData => sim
                            .set_batch_target_partial(app, decision.per_replica, fraction)
                            .unwrap_or(0),
                        WorldClass::Hpc => sim
                            .set_hpc_target_partial(app, decision.per_replica, fraction)
                            .unwrap_or(0),
                    };
                    self.resize_failures += u64::from(failures);
                    let managed = match Self::managed_mut(&mut self.apps, app) {
                        Ok(m) => m,
                        Err(_) => {
                            self.desynced_apps += 1;
                            continue;
                        }
                    };
                    if failures > 0 {
                        managed.failure_streak += 1;
                        managed.backoff_until =
                            self.ticks + (1u64 << managed.failure_streak.min(3));
                    } else {
                        managed.failure_streak = 0;
                    }
                    managed.last_resize_failures = failures;
                    managed.last_decision = Some(decision);
                    // A degraded-signal actuation is a hold-last-safe,
                    // not a control decision on fresh data.
                    outcome = if signal.is_degraded() {
                        ActuationOutcome::Held
                    } else {
                        ActuationOutcome::Applied
                    };
                }
            }
            if let Some(ring) = trace.as_deref_mut() {
                if let Ok(m) = Self::managed_mut(&mut self.apps, app) {
                    let rate_rps = if effective_dt > 0.0 {
                        window.arrivals as f64 / effective_dt
                    } else {
                        f64::NAN
                    };
                    ring.push(TraceEvent::Control(ControlTrace {
                        tick: self.ticks,
                        at: now,
                        app,
                        signal: signal.as_trace(),
                        measured: window.measured_for(&m.status.plo),
                        rate_rps,
                        replicas: window.running_replicas,
                        per_replica: window.alloc_per_replica,
                        outcome,
                        resize_failures: m.last_resize_failures,
                        explain: m.policy.explain().map(Box::new),
                    }));
                }
            }
            if signal == SignalQuality::Fresh {
                windows.push((app, window));
            }
        }
        windows
    }

    /// Runs the actuation chain (retry backoff, injected drop/delay/partial
    /// faults, the in-place resize itself, failure-streak bookkeeping) for
    /// one decided target. Used by the arbitrated tick path; the unarbitrated
    /// path keeps its original inline chain so its operation order — and with
    /// it the golden trace fixture — is untouched. Returns `None` when the
    /// app desynced mid-actuation (the caller skips its trace and window).
    fn actuate_target(
        &mut self,
        sim: &mut Simulation,
        injector: &mut Option<&mut FaultInjector>,
        now: SimTime,
        app: AppId,
        decision: PolicyDecision,
        signal: SignalQuality,
    ) -> Option<ActuationOutcome> {
        let managed = match Self::managed_mut(&mut self.apps, app) {
            Ok(m) => m,
            Err(_) => {
                self.desynced_apps += 1;
                return None;
            }
        };
        let repeat_of_failed = managed.failure_streak > 0
            && managed.last_decision.is_some_and(|d| decisions_close(&d, &decision));
        if repeat_of_failed && self.ticks < managed.backoff_until {
            self.suppressed_actuations += 1;
            return Some(ActuationOutcome::Suppressed);
        }
        if injector.as_ref().is_some_and(|i| i.actuation_dropped(now)) {
            self.dropped_actuations += 1;
            managed.failure_streak = 0;
            managed.last_resize_failures = 0;
            managed.last_decision = Some(decision);
            return Some(ActuationOutcome::Dropped);
        }
        if let Some(lag) = injector.as_ref().and_then(|i| i.actuation_lag(now)) {
            self.delayed_actuations += 1;
            managed.failure_streak = 0;
            managed.last_resize_failures = 0;
            managed.last_decision = Some(decision);
            self.pending_actuations.push((now + lag, app, decision));
            return Some(ActuationOutcome::Delayed);
        }
        let fraction = injector.as_ref().and_then(|i| i.actuation_fraction(now)).unwrap_or(1.0);
        if fraction < 1.0 {
            self.partial_actuations += 1;
        }
        let failures = match managed.status.world {
            WorldClass::Microservice => sim
                .set_service_target_partial(app, decision.replicas, decision.per_replica, fraction)
                .unwrap_or(0),
            WorldClass::BigData => {
                sim.set_batch_target_partial(app, decision.per_replica, fraction).unwrap_or(0)
            }
            WorldClass::Hpc => {
                sim.set_hpc_target_partial(app, decision.per_replica, fraction).unwrap_or(0)
            }
        };
        self.resize_failures += u64::from(failures);
        if failures > 0 {
            managed.failure_streak += 1;
            managed.backoff_until = self.ticks + (1u64 << managed.failure_streak.min(3));
        } else {
            managed.failure_streak = 0;
        }
        managed.last_resize_failures = failures;
        managed.last_decision = Some(decision);
        Some(if signal.is_degraded() { ActuationOutcome::Held } else { ActuationOutcome::Applied })
    }

    /// The arbitrated control tick: every per-app policy step runs first
    /// (scrape, PLO accounting, PID decision), then the summed demand is
    /// arbitrated against ready cluster capacity, and only the granted
    /// targets actuate. Shed apps actuate nothing and have their admission
    /// control flipped to load shedding; clipped apps actuate the scaled
    /// grant and also shed the load their reduced allocation cannot carry.
    fn tick_arbitrated(
        &mut self,
        sim: &mut Simulation,
        dt_secs: f64,
        mut injector: Option<&mut FaultInjector>,
        mut trace: Option<&mut TraceRing>,
    ) -> Vec<(AppId, evolve_sim::AppWindow)> {
        struct Planned {
            app: AppId,
            class: PriorityClass,
            window: AppWindow,
            signal: SignalQuality,
            effective_dt: f64,
            now: SimTime,
            decision: Option<PolicyDecision>,
        }
        self.ticks += 1;
        self.flush_pending_actuations(sim);
        let mut planned: Vec<Planned> = Vec::with_capacity(sim.apps().len());
        // Phase 1: scrape and decide for every app — all PID steps run
        // before any capacity question is asked.
        for i in 0..sim.apps().len() {
            let app = sim.apps()[i].id;
            let now = sim.now();
            let blocked = injector.as_ref().is_some_and(|i| !i.scrape_available(app, now));
            let managed = match Self::managed_mut(&mut self.apps, app) {
                Ok(m) => m,
                Err(_) => {
                    self.desynced_apps += 1;
                    continue;
                }
            };
            let (window, signal, effective_dt) = if blocked {
                managed.pending_dt += dt_secs;
                match managed.last_window.clone() {
                    Some(w) => (w, SignalQuality::Stale, dt_secs),
                    None => (empty_window(now), SignalQuality::Missing, dt_secs),
                }
            } else {
                let Ok(mut w) = sim.take_window(app) else {
                    self.desynced_apps += 1;
                    continue;
                };
                if let Some(i) = injector.as_deref_mut() {
                    i.distort_window(app, &mut w);
                }
                let effective_dt = dt_secs + managed.pending_dt;
                managed.pending_dt = 0.0;
                if let Some(measured) = w.measured_for(&managed.status.plo) {
                    let skip = matches!(managed.status.plo, PloSpec::Deadline { .. })
                        && w.progress == Some(1.0)
                        && {
                            managed.tracker.windows() > 0 && w.completions == 0 && w.arrivals == 0
                        };
                    if !skip {
                        let violated = managed.tracker.record_window(w.at, measured);
                        if violated && w.shed_requests > 0 {
                            self.violations_while_shedding += 1;
                        }
                    }
                }
                managed.last_window = Some(w.clone());
                (w, SignalQuality::Fresh, effective_dt)
            };
            let input = PolicyInput {
                app: &managed.status,
                window: &window,
                dt_secs: effective_dt,
                resize_failures: managed.last_resize_failures,
                signal,
            };
            let decision = managed.policy.decide(&input);
            let class = managed.status.priority;
            planned.push(Planned { app, class, window, signal, effective_dt, now, decision });
        }
        // Phase 2: one cluster-wide arbitration over the decided targets.
        // Apps without a decision this tick keep whatever they hold, so
        // their current allocation is subtracted from the pool as held.
        // Each decided app's demand is its desired total clamped by the
        // growth governor — `demand_cap_ratio ×` what it actually holds,
        // with one replica's request as the cold-start base — so settling
        // PID overshoot does not read as a capacity crunch.
        let cap_ratio = self.arbiter.as_ref().map_or(1.0, |a| a.config().demand_cap_ratio).max(1.0);
        let mut requests: Vec<ArbiterRequest> = Vec::new();
        let mut held = ResourceVec::ZERO;
        for p in &planned {
            match &p.decision {
                Some(d) => {
                    let desired = d.per_replica * f64::from(d.replicas);
                    // Cold start (nothing bound yet) has no allocation to
                    // anchor the governor on; the desire passes through.
                    let requested = if p.window.alloc == ResourceVec::ZERO {
                        desired
                    } else {
                        let cap = (p.window.alloc * cap_ratio).max(&d.per_replica);
                        desired.min(&cap)
                    };
                    requests.push(ArbiterRequest { app: p.app, class: p.class, requested });
                }
                None => held += p.window.alloc,
            }
        }
        let ready = sim.cluster().total_allocatable();
        let arbiter = self.arbiter.as_mut().expect("tick_arbitrated requires an arbiter");
        let outcomes = arbiter.arbitrate(&requests, ready, held);
        let in_crunch = arbiter.state().in_crunch();
        self.starvation_watermark =
            self.starvation_watermark.max(arbiter.state().max_starvation_age());
        let by_app: HashMap<AppId, ArbitrationOutcome> =
            outcomes.iter().map(|o| (o.app, *o)).collect();
        self.last_arbitration = outcomes;
        // Phase 3: actuate under the grants, trace, and emit fresh windows.
        let mut windows = Vec::with_capacity(planned.len());
        for p in planned {
            let mut outcome = ActuationOutcome::NoDecision;
            let mut arb_for_trace: Option<ArbitrationOutcome> = None;
            if let Some(decision) = p.decision {
                let arb = by_app.get(&p.app).copied();
                arb_for_trace = arb;
                match arb.map(|o| o.decision) {
                    Some(GrantDecision::Shed) => {
                        // The app rejects offered load at admission and its
                        // allocation is squeezed to a keep-alive footprint —
                        // a shed grant of zero must actually free capacity,
                        // or the granted classes fight the shed class's
                        // stale pods for the same nodes.
                        self.shed_decisions += 1;
                        self.shed_app_ids.insert(p.app);
                        let _ = sim.set_service_shedding(p.app, true);
                        let squeezed = PolicyDecision {
                            per_replica: decision.per_replica * SHED_KEEPALIVE_FRACTION,
                            replicas: decision.replicas,
                        };
                        if self
                            .actuate_target(sim, &mut injector, p.now, p.app, squeezed, p.signal)
                            .is_none()
                        {
                            continue;
                        }
                        outcome = ActuationOutcome::Shed;
                    }
                    Some(GrantDecision::Clipped(_)) => {
                        let o = arb.expect("clipped grant has an outcome");
                        self.clipped_allocations += 1;
                        let _ = sim.set_service_shedding(p.app, true);
                        // The grant is per-dimension: actuate it directly
                        // (divided across replicas) rather than scaling the
                        // whole desired vector by the scalar fraction.
                        let clipped = PolicyDecision {
                            per_replica: o.granted * (1.0 / f64::from(decision.replicas.max(1))),
                            replicas: decision.replicas,
                        };
                        match self.actuate_target(
                            sim,
                            &mut injector,
                            p.now,
                            p.app,
                            clipped,
                            p.signal,
                        ) {
                            Some(out) => outcome = out,
                            None => continue,
                        }
                    }
                    _ => {
                        // Full grant (or, defensively, a missing outcome):
                        // actuate the policy's own target unmodified.
                        let _ = sim.set_service_shedding(p.app, false);
                        match self.actuate_target(
                            sim,
                            &mut injector,
                            p.now,
                            p.app,
                            decision,
                            p.signal,
                        ) {
                            Some(out) => outcome = out,
                            None => continue,
                        }
                    }
                }
            }
            if let Some(ring) = trace.as_deref_mut() {
                if let Ok(m) = Self::managed_mut(&mut self.apps, p.app) {
                    let rate_rps = if p.effective_dt > 0.0 {
                        p.window.arrivals as f64 / p.effective_dt
                    } else {
                        f64::NAN
                    };
                    ring.push(TraceEvent::Control(ControlTrace {
                        tick: self.ticks,
                        at: p.now,
                        app: p.app,
                        signal: p.signal.as_trace(),
                        measured: p.window.measured_for(&m.status.plo),
                        rate_rps,
                        replicas: p.window.running_replicas,
                        per_replica: p.window.alloc_per_replica,
                        outcome,
                        resize_failures: m.last_resize_failures,
                        explain: m.policy.explain().map(Box::new),
                    }));
                    if let Some(o) = arb_for_trace {
                        ring.push(TraceEvent::Arbitration(ArbitrationTrace {
                            tick: self.ticks,
                            at: p.now,
                            app: o.app,
                            class: o.class.as_str(),
                            requested: o.requested,
                            granted: o.granted,
                            decision: o.decision.as_str(),
                            grant_fraction: o.grant_fraction,
                            starvation_age: o.starvation_age,
                            in_crunch,
                        }));
                    }
                }
            }
            if p.signal == SignalQuality::Fresh {
                windows.push((p.app, p.window));
            }
        }
        windows
    }
}

/// The synthetic stand-in handed to policies when a blackout hides an app
/// that was never successfully scraped.
fn empty_window(at: SimTime) -> AppWindow {
    AppWindow {
        at,
        duration: SimDuration::ZERO,
        arrivals: 0,
        completions: 0,
        timeouts: 0,
        shed_requests: 0,
        oom_kills: 0,
        p99_ms: None,
        mean_ms: None,
        throughput_rps: 0.0,
        usage: ResourceVec::ZERO,
        alloc: ResourceVec::ZERO,
        alloc_per_replica: ResourceVec::ZERO,
        running_replicas: 0,
        pending_replicas: 0,
        progress: None,
        projected_makespan_s: None,
    }
}

/// `true` when two decisions are materially the same actuation (equal
/// replicas, per-replica components within 5%).
fn decisions_close(a: &PolicyDecision, b: &PolicyDecision) -> bool {
    if a.replicas != b.replicas {
        return false;
    }
    Resource::ALL.iter().all(|&r| {
        let (x, y) = (a.per_replica[r], b.per_replica[r]);
        (x - y).abs() <= 0.05 * x.abs().max(y.abs()).max(1e-9)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use evolve_sim::{ClusterConfig, NodeShape, SimulationConfig};
    use evolve_types::{SimDuration, SimTime};
    use evolve_workload::{LoadSpec, RequestClass, ServiceSpec, WorkloadMix};

    fn sim() -> Simulation {
        let class = RequestClass::new(
            "rq",
            ResourceVec::new(20.0, 2.0, 0.1, 0.1),
            0.0,
            SimDuration::from_secs(10),
        );
        let mix = WorkloadMix::new().with_service(
            ServiceSpec::new(
                "svc",
                PloSpec::LatencyP99 { target_ms: 100.0 },
                class,
                ResourceVec::new(2_000.0, 2_048.0, 50.0, 50.0),
            )
            .with_initial_replicas(2),
            LoadSpec::Constant { rate: 50.0 },
        );
        Simulation::new(
            SimulationConfig::default(),
            ClusterConfig::uniform(2, NodeShape::default()),
            &mix,
            1,
        )
    }

    #[test]
    fn manager_registers_all_apps() {
        let s = sim();
        let m = ResourceManager::new(ManagerKind::Evolve, &s);
        assert!(m.tracker(s.apps()[0].id).is_some());
        assert_eq!(m.world(s.apps()[0].id), Some(WorldClass::Microservice));
        assert_eq!(m.label(), "evolve");
    }

    #[test]
    fn tick_records_plo_windows() {
        let mut s = sim();
        // Bind replicas first-fit.
        let pending: Vec<_> = s.cluster().pending_pods().map(|p| p.id).collect();
        for pod in pending {
            let node = s.cluster().nodes()[0].id();
            s.bind_pod(pod, node).unwrap();
        }
        let mut m = ResourceManager::new(ManagerKind::Evolve, &s);
        s.run_until(SimTime::from_secs(10));
        let windows = m.tick(&mut s, 10.0);
        assert_eq!(windows.len(), 1);
        let app = s.apps()[0].id;
        assert_eq!(m.tracker(app).unwrap().windows(), 1);
    }

    #[test]
    fn kind_labels() {
        assert_eq!(ManagerKind::Evolve.label(), "evolve");
        assert_eq!(ManagerKind::KubeStatic.label(), "kube-static");
        assert_eq!(ManagerKind::Hpa { target_utilization: 0.6 }.label(), "hpa");
        assert_eq!(ManagerKind::Vpa { margin: 0.3 }.label(), "vpa");
        assert_eq!(
            ManagerKind::EvolveWith(EvolvePolicyConfig::default().cpu_only()).label(),
            "evolve-cpu-only"
        );
    }
}
