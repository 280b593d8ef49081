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
use evolve_types::codec::{Codec, Decoder, Encoder};
use evolve_types::{
    AppId, Error, PriorityClass, Resource, ResourceVec, Result, SimDuration, SimTime,
};
use evolve_workload::{PloSpec, WorldClass};

use crate::baselines::{HPA_MAX_REPLICAS, VPA_REPLICAS};
use crate::checkpoint::{AppMemory, ControllerCheckpoint};
use crate::counters::ControlCounters;
use crate::evolve_policy::MAX_REPLICAS;
use crate::policy::{ObservedAppState, Policy, PolicyDecision, PolicyInput, SignalQuality};

/// Which resource-management system runs the cluster: EVOLVE, its two
/// ablations, and the three baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ManagerKind {
    /// The paper's system: multi-resource adaptive PID per application.
    Evolve,
    /// EVOLVE restricted to the CPU dimension (the classical 1-D PID).
    EvolveCpuOnly,
    /// EVOLVE without on-line gain adaptation.
    EvolveFixedGains,
    /// Stock Kubernetes: static requests, static replicas.
    KubeStatic,
    /// Threshold HPA on CPU utilization.
    Hpa,
    /// VPA-like percentile vertical scaler.
    Vpa,
}

impl ManagerKind {
    /// A short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ManagerKind::Evolve => "evolve",
            ManagerKind::EvolveCpuOnly => "evolve-cpu-only",
            ManagerKind::EvolveFixedGains => "evolve-fixed-gains",
            ManagerKind::KubeStatic => "kube-static",
            ManagerKind::Hpa => "hpa",
            ManagerKind::Vpa => "vpa",
        }
    }

    /// The most replicas the manager gives a service whose initial count
    /// is lower; 0 for one that keeps every service at its initial count.
    pub(crate) fn replica_ceiling(self) -> u32 {
        match self {
            ManagerKind::Evolve | ManagerKind::EvolveCpuOnly | ManagerKind::EvolveFixedGains => {
                MAX_REPLICAS
            }
            ManagerKind::KubeStatic => 0,
            ManagerKind::Hpa => HPA_MAX_REPLICAS,
            ManagerKind::Vpa => VPA_REPLICAS,
        }
    }
}

/// A checkpoint's header names the kind that wrote it by its
/// discriminant.
impl Codec for ManagerKind {
    fn encode(&self, enc: &mut Encoder) {
        (*self as u8).encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let tag = u8::decode(dec)?;
        [
            ManagerKind::Evolve,
            ManagerKind::EvolveCpuOnly,
            ManagerKind::EvolveFixedGains,
            ManagerKind::KubeStatic,
            ManagerKind::Hpa,
            ManagerKind::Vpa,
        ]
        .into_iter()
        .find(|kind| *kind as u8 == tag)
        .ok_or_else(|| Error::CorruptCheckpoint(format!("unknown manager kind {tag}")))
    }
}

/// Per-application record the manager keeps.
struct ManagedApp {
    policy: Policy,
    /// The app's identity and PLO as the simulation advertised it at
    /// construction; statuses never change afterwards.
    status: AppStatus,
    /// The app's PLO violation ledger.
    tracker: PloTracker,
    memory: AppMemory,
}

impl ManagedApp {
    /// The app's state as bytes: the policy's, then the PLO ledger's
    /// counts — what a restore writes onto a freshly built app.
    fn state(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.policy.checkpoint(&mut enc);
        self.tracker.checkpoint(&mut enc);
        enc.into_bytes()
    }

    /// Overwrites the app's state with bytes [`state`](Self::state) wrote
    /// for an app of the same policy and PLO.
    fn restore(&mut self, state: &[u8]) -> Result<()> {
        let mut dec = Decoder::new(state);
        self.policy.restore(&mut dec)?;
        self.tracker.restore(&mut dec)?;
        if !dec.is_empty() {
            return Err(Error::CorruptCheckpoint(format!(
                "{} trailing bytes in app state",
                dec.remaining()
            )));
        }
        Ok(())
    }
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
    /// Control ticks executed.
    ticks: u64,
    /// Everything the manager skips and counts, and its overload accounting.
    counters: ControlCounters,
    /// Delayed actuations waiting for their release time: `(due, app,
    /// decision)`, applied at the start of the first tick at or past
    /// `due`. Push order follows the deterministic app iteration order,
    /// so the queue itself is deterministic.
    pending_actuations: Vec<(SimTime, AppId, PolicyDecision)>,
    /// Cluster-level capacity arbiter. Without one (the default) the grant
    /// phase of a tick is empty: every decided target actuates as the
    /// policy asked.
    arbiter: Option<CapacityArbiter>,
    /// Outcomes of the most recent arbitration round (empty when the
    /// arbiter is off or the last tick had no decided targets).
    last_arbitration: Vec<ArbitrationOutcome>,
    /// Distinct apps the arbiter has ever shed.
    shed_app_ids: BTreeSet<AppId>,
    /// The last tick's per-app plans, kept for their allocation: the next
    /// tick clears and refills them.
    planned: Vec<Planned>,
    /// A windows vector a caller handed back through
    /// [`ResourceManager::recycle`], which the next tick returns refilled.
    spare_windows: Vec<(AppId, AppWindow)>,
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
            let bound = if status.plo.upper_bound() { PloBound::Upper } else { PloBound::Lower };
            let tracker = PloTracker::new(status.plo.target().max(1e-9), bound);
            let managed = ManagedApp {
                policy: Policy::new(kind, status.world != WorldClass::Microservice),
                status: status.clone(),
                tracker,
                memory: AppMemory::default(),
            };
            apps.insert(status.id, managed);
        }
        ResourceManager {
            kind,
            apps,
            ticks: 0,
            counters: ControlCounters::default(),
            pending_actuations: Vec::new(),
            arbiter: None,
            last_arbitration: Vec::new(),
            shed_app_ids: BTreeSet::new(),
            planned: Vec::new(),
            spare_windows: Vec::new(),
        }
    }

    /// Hands back the windows a tick returned, once read: the next tick
    /// returns them in the same vector instead of a new one.
    pub fn recycle(&mut self, windows: Vec<(AppId, AppWindow)>) {
        self.spare_windows = windows;
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

    /// The skip-and-count and overload counters so far.
    #[must_use]
    pub fn counters(&self) -> ControlCounters {
        self.counters
    }

    /// Distinct apps the arbiter has ever shed.
    #[must_use]
    pub fn shed_apps(&self) -> u64 {
        self.shed_app_ids.len() as u64
    }

    /// Captures the complete mutable state of the control plane (plus the
    /// scheduler's requeue-backoff ledger, which lives with the runner)
    /// into one deterministic image. Apps are sorted by id so identical
    /// control states always produce identical bytes.
    #[must_use]
    pub fn checkpoint(&self, at: SimTime, backoff: &RequeueBackoff) -> ControllerCheckpoint {
        let mut apps: Vec<(AppId, Vec<u8>, AppMemory)> =
            self.apps.iter().map(|(id, m)| (*id, m.state(), m.memory.clone())).collect();
        apps.sort_by_key(|&(id, ..)| id);
        ControllerCheckpoint {
            kind: self.kind,
            at,
            ticks: self.ticks,
            control: self.counters,
            pending_actuations: self.pending_actuations.clone(),
            apps,
            scheduler_backoff: backoff.clone(),
            arbiter: self.arbiter.as_ref().map(|a| a.state().clone()),
            shed_app_ids: self.shed_app_ids.iter().copied().collect(),
        }
    }

    /// Overwrites this manager's state with a checkpoint's. Call it on a
    /// manager fresh from [`new`](Self::new) (and
    /// [`set_arbiter`](Self::set_arbiter), when the run has an arbiter):
    /// the configuration — each policy's, the PLO objectives, the
    /// arbiter's tunables — stays what was built at boot, and every piece
    /// of mutable state becomes the captured one. A checkpoint taken at
    /// the end of tick *t* restores a manager bit-identical to the live one
    /// entering tick *t + 1*. Returns the captured scheduler backoff.
    ///
    /// Checkpointed apps the simulation no longer knows are skipped and
    /// counted in [`ControlCounters::desynced_apps`]; apps the simulation
    /// gained since the capture keep their fresh boot state.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CorruptCheckpoint`] when another kind of manager
    /// wrote the image, the image carries arbiter state and this manager
    /// has no arbiter or the other way round (nothing is restored then),
    /// or an app's state fails to decode (truncation, trailing bytes), in
    /// which case the manager is left part-restored and must be dropped.
    pub fn restore(&mut self, ck: &ControllerCheckpoint) -> Result<RequeueBackoff> {
        if ck.kind != self.kind {
            return Err(Error::CorruptCheckpoint(format!(
                "a {} image cannot restore a {} manager",
                ck.kind.label(),
                self.kind.label()
            )));
        }
        if ck.arbiter.is_some() != self.arbiter.is_some() {
            let has = |yes: bool| if yes { "with" } else { "without" };
            return Err(Error::CorruptCheckpoint(format!(
                "an image {} arbiter state cannot restore a manager {} an arbiter",
                has(ck.arbiter.is_some()),
                has(self.arbiter.is_some())
            )));
        }
        self.ticks = ck.ticks;
        self.counters = ck.control;
        self.pending_actuations = ck.pending_actuations.clone();
        if let (Some(arbiter), Some(state)) = (self.arbiter.as_mut(), &ck.arbiter) {
            arbiter.restore(state.clone());
        }
        self.shed_app_ids = ck.shed_app_ids.iter().copied().collect();
        for (id, state, memory) in &ck.apps {
            let Some(m) = self.apps.get_mut(id) else {
                self.counters.desynced_apps += 1;
                continue;
            };
            m.restore(state)?;
            m.memory = memory.clone();
        }
        Ok(ck.scheduler_backoff.clone())
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

    /// Cold recovery with no usable checkpoint, on a manager fresh from
    /// [`new`](Self::new): reconstructs each policy's working state
    /// **level-triggered** from the cluster itself — the replicas that
    /// currently hold resources and their granted requests become the
    /// hold-last-safe baseline, the degradation guard slew-limits
    /// re-engagement away from it, and the PID is seeded so its first
    /// output reproduces the current actuation (bumpless transfer) instead
    /// of jumping to an unwarmed setpoint.
    pub fn cold_reconstruct(&mut self, sim: &Simulation) {
        let observed = Self::observe_apps(sim);
        for (id, m) in &mut self.apps {
            if let Some(obs) = observed.get(id) {
                m.policy.reconstruct(obs);
            }
        }
    }

    /// The strawman recovery, on a manager fresh from [`new`](Self::new):
    /// its policies actuate their spec defaults immediately, without
    /// observing the cluster — the restart behaviour of a controller with
    /// no recovery logic.
    pub fn naive_reset(&mut self) {
        for m in self.apps.values_mut() {
            m.policy.reset_to_spec();
        }
    }

    /// The manager's label for reports.
    #[must_use]
    pub fn label(&self) -> &'static str {
        self.kind.label()
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
            if !self.apps.contains_key(&app) {
                self.counters.desynced_apps += 1;
                continue;
            }
            let failures =
                sim.set_target(app, decision.replicas, decision.per_replica, 1.0).unwrap_or(0);
            self.counters.resize_failures += u64::from(failures);
        }
        self.pending_actuations = still_pending;
    }

    /// Control ticks executed so far.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// [`ResourceManager::tick_traced`] with no fault injector and no
    /// trace ring.
    pub fn tick(&mut self, sim: &mut Simulation, dt_secs: f64) -> Vec<(AppId, AppWindow)> {
        self.tick_traced(sim, dt_secs, None, None)
    }

    /// Runs one control tick, in three phases over `sim.apps()` order.
    ///
    /// **Decide**: harvest each app's window, account PLO compliance and
    /// run its policy. An app under a scrape blackout is *not* harvested
    /// (the engine keeps accumulating; the post-blackout window covers
    /// the gap): its policy runs on the replayed last window marked
    /// [`SignalQuality::Stale`] (or a synthetic empty one marked
    /// `Missing`) and no PLO window is recorded. Fresh windows pass
    /// through the injector's noise distortion.
    ///
    /// **Grant**: with an arbiter installed, the summed demand of the
    /// decided targets is arbitrated against ready cluster capacity; a
    /// clipped app actuates the scaled grant and sheds the load its
    /// reduced allocation cannot carry, a shed app is squeezed to a
    /// keep-alive footprint. Without one this phase is empty.
    ///
    /// **Actuate**: every decided target goes through retry backoff, the
    /// injected actuation faults and the resize itself. One
    /// [`ControlTrace`] per app goes into `trace`: the signal quality,
    /// the measurement the policy saw, the actuation outcome and — for
    /// the EVOLVE policies — the full controller internals (PID terms, adaptive gains, predictor
    /// forecast, degradation-guard state); an arbitrated target adds its
    /// [`ArbitrationTrace`]. Returns the fresh windows only.
    pub fn tick_traced(
        &mut self,
        sim: &mut Simulation,
        dt_secs: f64,
        mut injector: Option<&mut FaultInjector>,
        mut trace: Option<&mut TraceRing>,
    ) -> Vec<(AppId, AppWindow)> {
        self.ticks += 1;
        self.flush_pending_actuations(sim);
        let now = sim.now();
        let mut planned = std::mem::take(&mut self.planned);
        planned.clear();
        planned.reserve(sim.apps().len());
        // Phase 1: scrape and decide for every app — all PID steps run
        // before any capacity question is asked. `distort_window` is the
        // injector's only stateful call (its noise stream), and it is made
        // here, in app order.
        for i in 0..sim.apps().len() {
            let app = sim.apps()[i].id;
            let blocked = injector.as_ref().is_some_and(|i| !i.scrape_available(app, now));
            let Some(managed) = self.apps.get_mut(&app) else {
                // The simulation advertises an app the manager never
                // registered (control-plane desync). Skip it this tick
                // rather than crashing the whole controller.
                self.counters.desynced_apps += 1;
                continue;
            };
            let memory = &mut managed.memory;
            let (window, signal, effective_dt) = if blocked {
                memory.pending_dt += dt_secs;
                match memory.last_window.clone() {
                    Some(w) => (w, SignalQuality::Stale, dt_secs),
                    None => (empty_window(now), SignalQuality::Missing, dt_secs),
                }
            } else {
                let Ok(mut w) = sim.take_window(app) else {
                    // The manager tracks an app the simulation no longer
                    // serves windows for — same desync class as an unknown
                    // id: skip and count, never panic.
                    self.counters.desynced_apps += 1;
                    continue;
                };
                if let Some(i) = injector.as_deref_mut() {
                    i.distort_window(app, &mut w);
                }
                let effective_dt = dt_secs + memory.pending_dt;
                memory.pending_dt = 0.0;
                // PLO accounting: only fresh windows that produced a
                // signal — blacked-out windows are simply missing.
                if let Some(measured) = w.measured_for(&managed.status.plo) {
                    // Deadline PLOs: stop counting after the job finished
                    // and one final window was counted.
                    let skip = matches!(managed.status.plo, PloSpec::Deadline { .. })
                        && w.progress == Some(1.0)
                        && managed.tracker.windows() > 0
                        && w.completions == 0
                        && w.arrivals == 0;
                    if !skip {
                        let violated = managed.tracker.record_window(measured);
                        if violated && w.shed_requests > 0 {
                            self.counters.violations_while_shedding += 1;
                        }
                    }
                }
                memory.last_window = Some(w.clone());
                (w, SignalQuality::Fresh, effective_dt)
            };
            let input = PolicyInput {
                app: &managed.status,
                window: &window,
                dt_secs: effective_dt,
                resize_failures: memory.last_resize_failures,
                signal,
            };
            let decision = managed.policy.decide(&input);
            let class = managed.status.priority;
            planned.push(Planned {
                app,
                class,
                window,
                signal,
                effective_dt,
                decision,
                grant: None,
            });
        }
        // Phase 2: one cluster-wide arbitration over the decided targets.
        self.arbitrate(sim, &mut planned);
        let in_crunch = self.arbiter.as_ref().is_some_and(|a| a.state().in_crunch());
        // Phase 3: actuate under the grants, trace, and emit fresh windows.
        let mut windows = std::mem::take(&mut self.spare_windows);
        windows.clear();
        windows.reserve(planned.len());
        for p in planned.drain(..) {
            let mut outcome = ActuationOutcome::NoDecision;
            if let Some(decision) = p.decision {
                let mut target = decision;
                if let Some(grant) = p.grant {
                    let _ = sim.set_service_shedding(p.app, grant.is_reduced());
                    match grant.decision {
                        GrantDecision::Full => {}
                        // The grant is per-dimension: actuate it directly
                        // (divided across replicas) rather than scaling the
                        // whole desired vector by the scalar fraction.
                        GrantDecision::Clipped(_) => {
                            self.counters.clipped_allocations += 1;
                            target.per_replica =
                                grant.granted * (1.0 / f64::from(decision.replicas.max(1)));
                        }
                        // The app rejects offered load at admission and its
                        // allocation is squeezed to a keep-alive footprint —
                        // a shed grant of zero must actually free capacity,
                        // or the granted classes fight the shed class's
                        // stale pods for the same nodes.
                        GrantDecision::Shed => {
                            self.counters.shed_decisions += 1;
                            self.shed_app_ids.insert(p.app);
                            target.per_replica = decision.per_replica * SHED_KEEPALIVE_FRACTION;
                        }
                    }
                }
                let Some(actuated) =
                    self.actuate_target(sim, injector.as_deref(), now, p.app, target, p.signal)
                else {
                    continue;
                };
                outcome = if p.grant.is_some_and(|g| g.is_shed()) {
                    ActuationOutcome::Shed
                } else {
                    actuated
                };
            }
            if let (Some(ring), Some(m)) = (trace.as_deref_mut(), self.apps.get(&p.app)) {
                let rate_rps = if p.effective_dt > 0.0 {
                    p.window.arrivals as f64 / p.effective_dt
                } else {
                    f64::NAN
                };
                let explain = m.policy.explain().map(|e| ring.boxed_explain(e));
                ring.push(TraceEvent::Control(ControlTrace {
                    tick: self.ticks,
                    at: now,
                    app: p.app,
                    signal: p.signal.as_trace(),
                    measured: p.window.measured_for(&m.status.plo),
                    rate_rps,
                    replicas: p.window.running_replicas,
                    per_replica: p.window.alloc_per_replica,
                    outcome,
                    resize_failures: m.memory.last_resize_failures,
                    explain,
                }));
                if let Some(o) = p.grant {
                    ring.push(TraceEvent::Arbitration(ArbitrationTrace {
                        tick: self.ticks,
                        at: now,
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
            if p.signal == SignalQuality::Fresh {
                windows.push((p.app, p.window));
            }
        }
        self.planned = planned;
        windows
    }

    /// The grant phase: asks the arbiter, when one is installed, to fit
    /// the decided targets into ready capacity and notes each verdict on
    /// its [`Planned`] entry.
    ///
    /// Apps without a decision this tick keep whatever they hold, so
    /// their current allocation is subtracted from the pool as held.
    /// Each decided app's demand is its desired total clamped by the
    /// growth governor — `demand_cap_ratio ×` what it actually holds,
    /// with one replica's request as the cold-start base — so settling
    /// PID overshoot does not read as a capacity crunch.
    fn arbitrate(&mut self, sim: &Simulation, planned: &mut [Planned]) {
        let Some(arbiter) = self.arbiter.as_mut() else {
            return;
        };
        let cap_ratio = arbiter.config().demand_cap_ratio.max(1.0);
        let mut requests: Vec<ArbiterRequest> = Vec::new();
        let mut held = ResourceVec::ZERO;
        for p in planned.iter() {
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
        let outcomes = arbiter.arbitrate(&requests, sim.cluster().total_allocatable(), held);
        self.counters.starvation_watermark =
            self.counters.starvation_watermark.max(arbiter.state().max_starvation_age());
        // One outcome per request, in request order.
        let mut verdicts = outcomes.iter();
        for p in planned.iter_mut().filter(|p| p.decision.is_some()) {
            p.grant = verdicts.next().copied();
        }
        self.last_arbitration = outcomes;
    }

    /// Runs the actuation chain for one granted target: retry backoff,
    /// injected drop / delay / partial faults, the in-place resize itself,
    /// failure-streak bookkeeping. Returns `None` when the app desynced
    /// (the caller skips its trace and window).
    fn actuate_target(
        &mut self,
        sim: &mut Simulation,
        injector: Option<&FaultInjector>,
        now: SimTime,
        app: AppId,
        decision: PolicyDecision,
        signal: SignalQuality,
    ) -> Option<ActuationOutcome> {
        let Some(memory) = self.apps.get_mut(&app).map(|m| &mut m.memory) else {
            self.counters.desynced_apps += 1;
            return None;
        };
        // Retry with backoff: re-issuing a target that just failed (and
        // has not materially changed) only hammers a full node. Suppress
        // it for exponentially growing tick counts; any changed target
        // acts immediately.
        let repeat_of_failed = memory.failure_streak > 0
            && memory.last_decision.is_some_and(|d| decisions_close(&d, &decision));
        if repeat_of_failed && self.ticks < memory.backoff_until {
            self.counters.suppressed_actuations += 1;
            return Some(ActuationOutcome::Suppressed);
        }
        if injector.is_some_and(|i| i.actuation_dropped(now)) {
            // The resize request vanished between controller and cluster.
            // The controller has no error to observe, so it records the
            // decision as landed: no failure streak, no backoff — it will
            // only notice via the next window's replica counts.
            self.counters.dropped_actuations += 1;
            memory.failure_streak = 0;
            memory.last_resize_failures = 0;
            memory.last_decision = Some(decision);
            return Some(ActuationOutcome::Dropped);
        }
        if let Some(lag) = injector.and_then(|i| i.actuation_lag(now)) {
            // Queued behind a slow API path: the target lands at
            // `now + lag` verbatim, however stale it is by then.
            self.counters.delayed_actuations += 1;
            memory.failure_streak = 0;
            memory.last_resize_failures = 0;
            memory.last_decision = Some(decision);
            self.pending_actuations.push((now + lag, app, decision));
            return Some(ActuationOutcome::Delayed);
        }
        let fraction = injector.and_then(|i| i.actuation_fraction(now)).unwrap_or(1.0);
        if fraction < 1.0 {
            self.counters.partial_actuations += 1;
        }
        let failures =
            sim.set_target(app, decision.replicas, decision.per_replica, fraction).unwrap_or(0);
        self.counters.resize_failures += u64::from(failures);
        if failures > 0 {
            memory.failure_streak += 1;
            memory.backoff_until = self.ticks + (1u64 << memory.failure_streak.min(3));
        } else {
            memory.failure_streak = 0;
        }
        memory.last_resize_failures = failures;
        memory.last_decision = Some(decision);
        // A degraded-signal actuation is a hold-last-safe, not a control
        // decision on fresh data.
        Some(if signal.is_degraded() { ActuationOutcome::Held } else { ActuationOutcome::Applied })
    }
}

/// One app's way through a tick: what the decide phase saw and chose, and
/// the arbiter's verdict on it (`None` when no arbiter is installed or the
/// policy made no decision).
struct Planned {
    app: AppId,
    class: PriorityClass,
    window: AppWindow,
    signal: SignalQuality,
    effective_dt: f64,
    decision: Option<PolicyDecision>,
    grant: Option<ArbitrationOutcome>,
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
    use evolve_types::SimTime;
    use evolve_workload::ScenarioSpec;

    fn sim() -> Simulation {
        let spec = ScenarioSpec::from_toml_str(
            r#"
name = "one-service"
horizon_secs = 60.0

[[service]]
name = "svc"
class = "rq"
demand = [20.0, 2.0, 0.1, 0.1]
demand_cv = 0.0
timeout_secs = 10.0
plo_p99_ms = 100.0
alloc = [2000.0, 2048.0, 50.0, 50.0]
replicas = 2

[service.load]
kind = "constant"
rate = 50.0
"#,
        )
        .expect("a valid scenario");
        let mix = spec.build().mix;
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

    /// Only the header's kind tells the EVOLVE variants' images apart:
    /// their states have one layout.
    #[test]
    fn an_image_restores_only_its_own_evolve_variant() {
        let s = sim();
        let image = ResourceManager::new(ManagerKind::Evolve, &s)
            .checkpoint(SimTime::ZERO, &RequeueBackoff::new());
        let image = ControllerCheckpoint::from_bytes(&image.to_bytes()).expect("decode");
        assert!(ResourceManager::new(ManagerKind::Evolve, &s).restore(&image).is_ok());
        for other in [ManagerKind::EvolveCpuOnly, ManagerKind::EvolveFixedGains] {
            let err = ResourceManager::new(other, &s).restore(&image).unwrap_err();
            assert!(matches!(err, Error::CorruptCheckpoint(_)), "{}: {err}", other.label());
        }
    }

    #[test]
    fn kind_labels() {
        assert_eq!(ManagerKind::Evolve.label(), "evolve");
        assert_eq!(ManagerKind::EvolveCpuOnly.label(), "evolve-cpu-only");
        assert_eq!(ManagerKind::EvolveFixedGains.label(), "evolve-fixed-gains");
        assert_eq!(ManagerKind::KubeStatic.label(), "kube-static");
        assert_eq!(ManagerKind::Hpa.label(), "hpa");
        assert_eq!(ManagerKind::Vpa.label(), "vpa");
    }
}
