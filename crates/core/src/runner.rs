//! The experiment runner: wires a scenario onto a cluster under a chosen
//! manager and scheduler, runs the control loop, and collects the
//! statistics every table and figure reports.

use evolve_control::{ArbiterConfig, ClipReason, GrantDecision};
use evolve_scheduler::{FeasibilityIndex, RequeueBackoff, SchedulerFramework};
use evolve_sim::{
    ArbitrationCheck, ChaosOracle, ClusterConfig, FaultEvent, FaultInjector, FaultKind, NodeShape,
    OracleReport, Simulation, SimulationConfig,
};
use evolve_telemetry::trace::{
    FaultTrace, SpanKind, SpanTrace, TraceConfig, TraceEvent, TraceRing,
};
use evolve_telemetry::{MetricKey, MetricRegistry, UtilizationAccount, UtilizationSummary};
use evolve_types::{AppId, PodId, PriorityClass, ResourceVec, SimDuration, SimTime};
use evolve_workload::{ArbiterSpec, SamplingMode, Scenario, ScenarioSpec, WorldClass};

use crate::counters::ControlCounters;
use crate::manager::{ManagerKind, ResourceManager};

/// Which scheduler profile binds pods.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerProfile {
    /// Stock filter/score profile without preemption.
    KubeDefault,
    /// Stock profile plus priority preemption (EVOLVE's extension).
    Evolve,
    /// Bin-packing consolidation profile.
    Binpack,
}

impl SchedulerProfile {
    fn build(self) -> SchedulerFramework {
        match self {
            SchedulerProfile::KubeDefault => SchedulerFramework::kube_default(),
            SchedulerProfile::Evolve => SchedulerFramework::evolve_default(),
            SchedulerProfile::Binpack => SchedulerFramework::binpack(),
        }
    }
}

/// How the control plane comes back after a
/// [`FaultKind::ControllerCrash`](evolve_sim::FaultKind::ControllerCrash)
/// destroys the in-memory manager mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryStrategy {
    /// Load the most recent [`ControllerCheckpoint`](crate::ControllerCheckpoint)
    /// and resume; with per-tick checkpoints the resumed run is
    /// bit-identical to an uninterrupted one. Falls back to
    /// [`RecoveryStrategy::ColdReconstruct`] when no checkpoint exists or
    /// it fails to decode.
    #[default]
    Restore,
    /// Rebuild level-triggered from the live cluster: current replicas
    /// and granted requests become the hold-last-safe baseline, the PID
    /// re-engages bumplessly and slew-limited.
    ColdReconstruct,
    /// Fresh controller with spec defaults and no observation — the
    /// strawman a controller without recovery logic implements.
    NaiveReset,
}

impl RecoveryStrategy {
    /// A short label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RecoveryStrategy::Restore => "restore",
            RecoveryStrategy::ColdReconstruct => "cold-reconstruct",
            RecoveryStrategy::NaiveReset => "naive-reset",
        }
    }
}

/// Full configuration of one experiment run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload scenario.
    pub scenario: Scenario,
    /// The resource manager under test.
    pub manager: ManagerKind,
    /// The scheduler profile.
    pub scheduler: SchedulerProfile,
    /// Number of (uniform) nodes.
    pub nodes: usize,
    /// Node hardware shape.
    pub node_shape: NodeShape,
    /// Control-loop interval.
    pub control_interval: SimDuration,
    /// RNG seed.
    pub seed: u64,
    /// Record per-tick time series into the registry.
    pub record_series: bool,
    /// Faults injected during the run: the spec's `[[fault]]` list.
    pub faults: Vec<FaultEvent>,
    /// How the control plane recovers from a controller crash.
    pub recovery: RecoveryStrategy,
    /// Control ticks between controller checkpoints (only captured while
    /// a controller crash is armed and `recovery` is `Restore`).
    pub checkpoint_interval_ticks: u32,
    /// Decision-trace capture: ring capacity and optional JSONL dump.
    pub trace: TraceConfig,
    /// Run with the pre-batched (Box–Muller + global-majorant thinning)
    /// sampler streams, reproducing old fixtures bit-for-bit. Deprecated
    /// escape hatch; see DESIGN.md decision 11.
    pub legacy_sampling: bool,
    /// Run the chaos invariant battery ([`ChaosOracle`]) every control
    /// tick and report violations in [`RunOutcome::oracle`]. Off by
    /// default: the headline path pays nothing for the oracle. See
    /// DESIGN.md decision 12.
    pub oracle: bool,
    /// Cluster-level capacity arbitration: every control tick runs all
    /// per-app policy steps first and actuates afterwards; when `Some`,
    /// the summed demand is arbitrated against ready capacity in between
    /// (priority classes, weighted-fair clipping, shedding). `None` (the
    /// default) grants every target in full. See DESIGN.md decision 13.
    pub arbiter: Option<ArbiterConfig>,
    /// Route scheduling cycles through the incremental feasibility index
    /// (`true`, the default) or the naive full node scan (`false`). Both
    /// produce identical plans; the naive path exists as the equivalence
    /// baseline and for benchmarks quantifying the index. See DESIGN.md
    /// decision 14.
    pub indexed_scheduling: bool,
}

impl RunConfig {
    /// Starts a builder from a declarative [`ScenarioSpec`], the one way to
    /// configure a run. The spec's workload, cluster shape (node count and
    /// capacity), arbiter settings and fault schedule are all applied; the
    /// rest starts from the evaluation defaults: 5 s control interval, seed 42,
    /// the EVOLVE scheduler profile for EVOLVE managers and the stock
    /// profile for baselines. To change the cluster, change the spec:
    ///
    /// ```
    /// use evolve_core::{ManagerKind, RunConfig};
    /// use evolve_workload::ScenarioSpec;
    ///
    /// let mut spec = ScenarioSpec::builtin("overload").unwrap();
    /// let config = RunConfig::from_spec(&spec, ManagerKind::Evolve).seed(7).build();
    /// assert_eq!(config.nodes, 4);
    /// assert!(config.arbiter.is_some());
    /// spec.cluster.nodes = 8;
    /// assert_eq!(RunConfig::from_spec(&spec, ManagerKind::Evolve).build().nodes, 8);
    /// ```
    #[must_use]
    pub fn from_spec(spec: &ScenarioSpec, manager: ManagerKind) -> RunConfigBuilder {
        let scheduler = match manager {
            ManagerKind::Evolve | ManagerKind::EvolveWith(_) => SchedulerProfile::Evolve,
            _ => SchedulerProfile::KubeDefault,
        };
        let config = RunConfig {
            scenario: spec.build(),
            manager,
            scheduler,
            nodes: spec.cluster.nodes,
            node_shape: NodeShape { capacity: spec.node_capacity() },
            control_interval: SimDuration::from_secs(5),
            seed: 42,
            record_series: true,
            faults: spec.faults.clone(),
            recovery: RecoveryStrategy::default(),
            checkpoint_interval_ticks: 1,
            trace: TraceConfig::default(),
            legacy_sampling: false,
            oracle: false,
            arbiter: spec.arbiter.as_ref().map(arbiter_from_spec),
            indexed_scheduling: true,
        };
        RunConfigBuilder { config }
    }
}

/// Converts declarative arbiter settings from a [`ScenarioSpec`] into the
/// control crate's [`ArbiterConfig`]. A free function because the
/// workload crate (where the spec lives) cannot depend on the control
/// crate.
#[must_use]
pub fn arbiter_from_spec(spec: &ArbiterSpec) -> ArbiterConfig {
    ArbiterConfig {
        headroom_fraction: spec.headroom_fraction,
        floor_fraction: spec.floor_fraction,
        hysteresis: spec.hysteresis,
        max_recovery_step: spec.max_recovery_step,
        demand_cap_ratio: spec.demand_cap_ratio,
    }
}

/// Fluent construction of a [`RunConfig`]. Obtain one from
/// [`RunConfig::from_spec`]; every setter consumes and returns the
/// builder, and [`build`](RunConfigBuilder::build) yields the finished
/// config.
#[derive(Debug, Clone)]
pub struct RunConfigBuilder {
    config: RunConfig,
}

impl RunConfigBuilder {
    /// Overrides the control-loop interval.
    #[must_use]
    pub fn control_interval(mut self, interval: SimDuration) -> Self {
        self.config.control_interval = interval;
        self
    }

    /// Overrides the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Overrides the scheduler profile.
    #[must_use]
    pub fn scheduler(mut self, scheduler: SchedulerProfile) -> Self {
        self.config.scheduler = scheduler;
        self
    }

    /// Enables or disables per-tick series recording (disabling speeds up
    /// wide sweeps).
    #[must_use]
    pub fn record_series(mut self, record: bool) -> Self {
        self.config.record_series = record;
        self
    }

    /// Selects the controller crash-recovery strategy.
    #[must_use]
    pub fn recovery(mut self, recovery: RecoveryStrategy) -> Self {
        self.config.recovery = recovery;
        self
    }

    /// Overrides the checkpoint cadence (control ticks between captures).
    ///
    /// # Panics
    ///
    /// Panics when zero.
    #[must_use]
    pub fn checkpoint_interval_ticks(mut self, ticks: u32) -> Self {
        assert!(ticks > 0, "checkpoint interval must be at least one tick");
        self.config.checkpoint_interval_ticks = ticks;
        self
    }

    /// Configures decision-trace capture (ring capacity / JSONL dump).
    #[must_use]
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.config.trace = trace;
        self
    }

    /// Selects the pre-batched sampler streams (Box–Muller demand noise,
    /// per-arrival global-majorant thinning). Old golden fixtures
    /// reproduce bit-for-bit under this flag; new runs should leave it
    /// off.
    #[must_use]
    pub fn legacy_sampling(mut self, legacy: bool) -> Self {
        self.config.legacy_sampling = legacy;
        self
    }

    /// Enables the chaos invariant battery: every control tick the
    /// [`ChaosOracle`] checks capacity conservation, pod conservation,
    /// gang atomicity, PID freeze under degraded signals, monotone time
    /// and (when checkpoints are captured) checkpoint→restore
    /// equivalence; violations land in [`RunOutcome::oracle`].
    #[must_use]
    pub fn oracle(mut self, oracle: bool) -> Self {
        self.config.oracle = oracle;
        self
    }

    /// Selects between index-pruned scheduling (`true`, the default) and
    /// the naive full node scan (`false`). Plans are identical either
    /// way; benchmarks flip this to quantify the feasibility index.
    #[must_use]
    pub fn indexed_scheduling(mut self, indexed: bool) -> Self {
        self.config.indexed_scheduling = indexed;
        self
    }

    /// Finishes the builder.
    #[must_use]
    pub fn build(self) -> RunConfig {
        self.config
    }
}

/// Per-application results of a run.
#[derive(Debug, Clone)]
pub struct AppSummary {
    /// The application.
    pub app: AppId,
    /// Name from the workload spec.
    pub name: String,
    /// The world it belongs to.
    pub world: WorldClass,
    /// Its overload priority class.
    pub priority: PriorityClass,
    /// Control windows evaluated against the PLO.
    pub windows: u64,
    /// Windows in violation.
    pub violations: u64,
    /// Mean relative excursion of violating windows.
    pub mean_severity: f64,
    /// Total requests completed (services) / records (batch) /
    /// iterations (HPC).
    pub completions: u64,
    /// Requests dropped on timeout.
    pub timeouts: u64,
    /// OOM kills suffered.
    pub oom_kills: u64,
    /// Requests rejected at admission while the capacity arbiter had the
    /// app shedding load (always zero when the arbiter is off).
    pub shed_requests: u64,
}

impl AppSummary {
    /// Fraction of windows in violation.
    #[must_use]
    pub fn violation_rate(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.violations as f64 / self.windows as f64
        }
    }
}

/// Everything a run produced.
#[derive(Debug)]
pub struct RunOutcome {
    /// The manager label ("evolve", "kube-static", …).
    pub manager: String,
    /// The scenario name.
    pub scenario: String,
    /// Per-application summaries.
    pub apps: Vec<AppSummary>,
    /// Cluster utilization over the run.
    pub utilization: UtilizationSummary,
    /// Batch/HPC job outcomes.
    pub jobs: Vec<evolve_sim::JobOutcome>,
    /// Recorded time series (empty when `record_series` was off).
    pub registry: MetricRegistry,
    /// The manager's skip-and-count and overload counters; its
    /// `desynced_apps` also counts apps the final summary found no PLO
    /// ledger for.
    pub control: ControlCounters,
    /// The chaos oracle's verdict — `Some` only when
    /// [`RunConfig::oracle`] was enabled.
    pub oracle: Option<OracleReport>,
    /// Preemptions executed.
    pub preemptions: u64,
    /// Pod bindings executed.
    pub bindings: u64,
    /// Simulated horizon.
    pub horizon: SimDuration,
    /// Simulation clock when the run ended; always equal to the horizon,
    /// including when the horizon is not a multiple of the control
    /// interval (the final partial window is still simulated).
    pub end_time: SimTime,
    /// Engine events processed (simulator throughput accounting).
    pub events: u64,
    /// Controller restarts performed after injected controller crashes.
    pub controller_restarts: u64,
    /// Scheduler shadow-state pod lookups that found a pod missing from
    /// the cluster table and were skipped instead of panicking.
    pub stale_pod_lookups: u64,
    /// Arrival streams silently truncated by the legacy thinning sampler's
    /// bailout cap (always zero under batched sampling, which skips dead
    /// spans instead of giving up).
    pub thinning_bailouts: u64,
    /// Distinct apps the arbiter ever shed.
    pub shed_apps: u64,
    /// Total requests rejected at admission while shedding, across apps.
    pub shed_requests: u64,
    /// Engine-throughput accounting (what every binary's `perf[…]` line prints).
    pub perf: RunPerf,
    /// The decision trace captured during the run (bounded ring; always
    /// on). Dump it with [`evolve_telemetry::trace::TraceRing::to_jsonl`]
    /// or configure [`TraceConfig::dump_to`] to write it automatically.
    pub trace: TraceRing,
}

/// Engine-throughput accounting for one run, surfaced by the bench
/// binaries and the repo benchmark.
#[derive(Debug, Clone, Copy)]
pub struct RunPerf {
    /// Control ticks executed (stalled ticks included).
    pub ticks: u64,
    /// Wall-clock seconds the run took end to end.
    pub wall_secs: f64,
    /// Simulated seconds advanced per wall-clock second.
    pub sim_secs_per_wall_sec: f64,
    /// Engine events processed (wake-queue replacement makes this smaller
    /// than the naive event count for the same trajectory).
    pub events: u64,
    /// Peak concurrently running pods observed at control ticks.
    pub peak_running_pods: u32,
    /// Metric samples recorded through pre-interned [`MetricKey`]s —
    /// records that skipped the name hash/allocation entirely.
    pub fast_metric_records: u64,
    /// Wall nanoseconds spent in manager control ticks (from the
    /// decision-trace lifecycle spans).
    pub control_wall_ns: u64,
    /// Wall nanoseconds spent in scheduler cycles (from the
    /// decision-trace lifecycle spans).
    pub sched_wall_ns: u64,
    /// Filter-plugin invocations across all scheduler cycles. Under the
    /// naive scan this grows with pending × nodes; under the feasibility
    /// index only non-capacity filters pay it, and only on candidates
    /// whose cached verdict for the pod's class went stale.
    pub filter_evals: u64,
    /// Feasibility-index tree probes across all scheduler cycles (zero
    /// when the index is off). `filter_evals + feasibility_probes` is
    /// the indexed run's total feasibility work, comparable against the
    /// naive run's `filter_evals`.
    pub feasibility_probes: u64,
}

impl RunOutcome {
    /// Total violation windows across applications.
    #[must_use]
    pub fn total_violations(&self) -> u64 {
        self.apps.iter().map(|a| a.violations).sum()
    }

    /// Total evaluated windows across applications.
    #[must_use]
    pub fn total_windows(&self) -> u64 {
        self.apps.iter().map(|a| a.windows).sum()
    }

    /// Aggregate violation rate.
    #[must_use]
    pub fn total_violation_rate(&self) -> f64 {
        let w = self.total_windows();
        if w == 0 {
            0.0
        } else {
            self.total_violations() as f64 / w as f64
        }
    }

    /// Jobs that met their deadline / total jobs.
    #[must_use]
    pub fn deadline_hits(&self) -> (usize, usize) {
        let hits = self.jobs.iter().filter(|j| j.met_deadline()).count();
        (hits, self.jobs.len())
    }

    /// Per-world violation rates `(cloud, bigdata, hpc)`.
    #[must_use]
    pub fn violation_rate_by_world(&self) -> [f64; 3] {
        let mut windows = [0u64; 3];
        let mut violations = [0u64; 3];
        for a in &self.apps {
            let i = match a.world {
                WorldClass::Microservice => 0,
                WorldClass::BigData => 1,
                WorldClass::Hpc => 2,
            };
            windows[i] += a.windows;
            violations[i] += a.violations;
        }
        let mut out = [0.0; 3];
        for i in 0..3 {
            if windows[i] > 0 {
                out[i] = violations[i] as f64 / windows[i] as f64;
            }
        }
        out
    }
}

/// Per-app metric keys, interned once before the control loop so the
/// per-tick recording path neither allocates nor hashes names.
///
/// `p99_ms` stays lazy: non-service apps never report a p99, and eagerly
/// interning it would create an empty series they did not have before.
#[derive(Debug)]
struct AppSeriesKeys {
    p99_name: String,
    p99_ms: Option<MetricKey>,
    rate_rps: MetricKey,
    replicas: MetricKey,
    alloc_cpu: MetricKey,
    usage_cpu: MetricKey,
    timeouts: MetricKey,
}

impl AppSeriesKeys {
    fn new(registry: &mut MetricRegistry, app: AppId) -> Self {
        let prefix = format!("app{}", app.raw());
        AppSeriesKeys {
            p99_name: format!("{prefix}/p99_ms"),
            p99_ms: None,
            rate_rps: registry.key(&format!("{prefix}/rate_rps")),
            replicas: registry.key(&format!("{prefix}/replicas")),
            alloc_cpu: registry.key(&format!("{prefix}/alloc_cpu")),
            usage_cpu: registry.key(&format!("{prefix}/usage_cpu")),
            timeouts: registry.key(&format!("{prefix}/timeouts")),
        }
    }

    /// The (lazily interned) p99 series key.
    fn p99_key(&mut self, registry: &mut MetricRegistry) -> MetricKey {
        match self.p99_ms {
            Some(key) => key,
            None => {
                let key = registry.key(&self.p99_name);
                self.p99_ms = Some(key);
                key
            }
        }
    }
}

/// Cluster-level metric keys, interned once up front.
#[derive(Debug, Clone, Copy)]
struct ClusterSeriesKeys {
    allocated_cpu_share: MetricKey,
    used_cpu_share: MetricKey,
    pods_running: MetricKey,
    pods_pending: MetricKey,
    nodes_ready: MetricKey,
}

impl ClusterSeriesKeys {
    fn new(registry: &mut MetricRegistry) -> Self {
        ClusterSeriesKeys {
            allocated_cpu_share: registry.key("cluster/allocated_cpu_share"),
            used_cpu_share: registry.key("cluster/used_cpu_share"),
            pods_running: registry.key("cluster/pods_running"),
            pods_pending: registry.key("cluster/pods_pending"),
            nodes_ready: registry.key("cluster/nodes_ready"),
        }
    }
}

/// Runs one experiment end to end.
#[derive(Debug)]
pub struct ExperimentRunner {
    config: RunConfig,
}

impl ExperimentRunner {
    /// Creates a runner.
    #[must_use]
    pub fn new(config: RunConfig) -> Self {
        ExperimentRunner { config }
    }

    /// Executes the run to its horizon and collects the outcome.
    #[must_use]
    pub fn run(self) -> RunOutcome {
        let started = std::time::Instant::now();
        let cfg = self.config;
        let cluster_config = ClusterConfig::uniform(cfg.nodes, cfg.node_shape);
        let sampling =
            if cfg.legacy_sampling { SamplingMode::Legacy } else { SamplingMode::Batched };
        let sim_config = SimulationConfig { sampling, ..SimulationConfig::default() };
        let mut sim = Simulation::new(sim_config, cluster_config, &cfg.scenario.mix, cfg.seed);
        let mut manager = ResourceManager::new(cfg.manager.clone(), &sim);
        if let Some(arb) = cfg.arbiter {
            manager.set_arbiter(arb);
        }
        let mut sched = Scheduling::new(cfg.scheduler.build().with_index(cfg.indexed_scheduling));
        let mut registry = MetricRegistry::new();
        let mut util = UtilizationAccount::new(sim.cluster().total_allocatable());
        // Decision trace: always on, bounded by the ring capacity. The
        // ring only *reads* controller and scheduler state, so capture
        // cannot perturb the simulated trajectory.
        let mut trace = TraceRing::new(cfg.trace.capacity);
        let mut control_wall_ns = 0u64;
        let mut sched_wall_ns = 0u64;
        // Lifetime (completions, timeouts, oom, shed) per app.
        let mut totals: std::collections::HashMap<AppId, (u64, u64, u64, u64)> =
            std::collections::HashMap::new();

        let horizon = SimTime::ZERO + cfg.scenario.horizon;
        let dt = cfg.control_interval;

        // Fault injection: realize the schedule once, arm node
        // crash/recovery events on the simulator, and consult the injector
        // tick-by-tick for scrape blackouts, metric noise, control-plane
        // stalls and actuation faults.
        let mut injector = if cfg.faults.is_empty() {
            None
        } else {
            let inj = FaultInjector::new(&cfg.faults, cfg.seed).with_sampling(sampling);
            inj.arm(&mut sim);
            Some(inj)
        };

        // The realized fault timeline goes into the decision trace up front
        // so `trace_explain` can correlate control anomalies with the faults
        // active around them. A run without faults pushes nothing — the
        // trace is unchanged.
        if let Some(inj) = &injector {
            for ev in inj.timeline() {
                trace.push(TraceEvent::Fault(fault_trace(ev)));
            }
        }
        // `faults/active` series key, interned lazily so fault-free runs
        // (the golden fixtures) record exactly the series they always did.
        let faults_active_key = match (&injector, cfg.record_series) {
            (Some(_), true) => Some(registry.key("faults/active")),
            _ => None,
        };

        // The chaos invariant battery: strictly observational (reads the
        // sim/cluster/trace between ticks), so enabling it cannot perturb
        // the simulated trajectory — only slow the run down.
        let mut oracle = if cfg.oracle { Some(ChaosOracle::new()) } else { None };
        let mut newly_bound: Vec<PodId> = Vec::new();

        // Series ids are interned once up front; the per-tick recording
        // path below neither builds strings nor hashes names.
        let cluster_keys =
            if cfg.record_series { Some(ClusterSeriesKeys::new(&mut registry)) } else { None };
        let mut series_keys: std::collections::HashMap<AppId, AppSeriesKeys> = if cfg.record_series
        {
            sim.apps().iter().map(|s| (s.id, AppSeriesKeys::new(&mut registry, s.id))).collect()
        } else {
            std::collections::HashMap::new()
        };

        // Initial scheduling pass so t=0 pods place immediately.
        sched.pass(&mut sim, &mut trace, oracle.as_ref().map(|_| &mut newly_bound));
        if let Some(orc) = oracle.as_mut() {
            orc.check_gang_atomicity(&sim, &newly_bound);
            orc.check_tick(&sim);
            orc.scan_trace(&trace);
        }

        // Crash recovery: checkpoints are captured only while a controller
        // crash is actually armed and the strategy will consume them.
        let crash_armed = cfg.faults.iter().any(|ev| ev.kind == FaultKind::ControllerCrash);
        let capture_checkpoints = crash_armed && cfg.recovery == RecoveryStrategy::Restore;
        let mut checkpoint = if capture_checkpoints {
            Some(manager.checkpoint(SimTime::ZERO, &sched.backoff))
        } else {
            None
        };
        let checkpoint_every = u64::from(cfg.checkpoint_interval_ticks.max(1));
        let mut live_ticks = 0u64;
        let mut last_crash_check = SimTime::ZERO;
        let mut controller_restarts = 0u64;

        let mut window_start = SimTime::ZERO;
        let mut carried_secs = 0.0;
        let mut ticks = 0u64;
        let mut peak_running = 0u32;
        while window_start < horizon {
            ticks += 1;
            // The final window may be truncated when the horizon is not a
            // multiple of the control interval; the manager sees the
            // actual elapsed seconds so per-window rates stay correct.
            let tick_end = (window_start + dt).min(horizon);
            sim.run_until(tick_end);
            // A stalled control plane skips this tick entirely — no
            // scrape, no decisions, no scheduling pass. The skipped
            // seconds carry into the next live tick so per-window rates
            // stay correct.
            if injector.as_ref().is_some_and(|i| i.controller_stalled(tick_end)) {
                carried_secs += (tick_end - window_start).as_secs_f64();
                window_start = tick_end;
                continue;
            }
            let window_secs = (tick_end - window_start).as_secs_f64() + carried_secs;
            carried_secs = 0.0;
            // Controller crash: the in-memory manager (and the scheduler's
            // requeue ledger, which lives in the same process) is
            // destroyed; rebuild it per the configured strategy before
            // this tick's decisions. The check interval is half-open
            // (last check, tick end] and the cursor does not advance
            // through stalled ticks, so every crash is handled exactly
            // once at the first live tick after it.
            if crash_armed
                && injector
                    .as_ref()
                    .is_some_and(|i| i.controller_crashed_in(last_crash_check, tick_end))
            {
                controller_restarts += 1;
                let restored = match cfg.recovery {
                    RecoveryStrategy::Restore => checkpoint.as_ref().and_then(|ck| {
                        ResourceManager::restore(cfg.manager.clone(), &sim, ck)
                            .ok()
                            .map(|mb| (mb, ck.at))
                    }),
                    _ => None,
                };
                match (cfg.recovery, restored) {
                    (RecoveryStrategy::Restore, Some(((m, b), ck_at))) => {
                        manager = m;
                        sched.backoff = b;
                        // With per-tick checkpoints the image is exactly
                        // one window old and the resumed run is
                        // bit-identical; a staler image leaves a gap the
                        // manager must age across (rates over real
                        // elapsed time, slew-limited re-engagement).
                        let gap_extra = (tick_end - ck_at).as_secs_f64() - window_secs;
                        if gap_extra > 1e-9 {
                            manager.age_after_gap(&sim, gap_extra);
                        }
                    }
                    // Restore with no (or corrupt) checkpoint degrades to
                    // cold reconstruction rather than naive reset.
                    (RecoveryStrategy::Restore | RecoveryStrategy::ColdReconstruct, _) => {
                        manager = ResourceManager::cold_reconstruct(cfg.manager.clone(), &sim);
                        sched.backoff = RequeueBackoff::new();
                        // A checkpoint carries the arbiter; the fresh
                        // managers must have it re-installed (empty state:
                        // grant fractions re-learn from the live cluster).
                        if let Some(arb) = cfg.arbiter {
                            manager.set_arbiter(arb);
                        }
                    }
                    (RecoveryStrategy::NaiveReset, _) => {
                        manager = ResourceManager::naive_reset(cfg.manager.clone(), &sim);
                        sched.backoff = RequeueBackoff::new();
                        if let Some(arb) = cfg.arbiter {
                            manager.set_arbiter(arb);
                        }
                    }
                }
            }
            last_crash_check = tick_end;
            let control_started = std::time::Instant::now();
            let windows =
                manager.tick_traced(&mut sim, window_secs, injector.as_mut(), Some(&mut trace));
            let control_ns =
                u64::try_from(control_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            control_wall_ns += control_ns;
            trace.push(TraceEvent::Span(SpanTrace {
                tick: ticks,
                at: tick_end,
                kind: SpanKind::Control,
                wall_ns: control_ns,
            }));
            let sched_started = std::time::Instant::now();
            newly_bound.clear();
            sched.pass(&mut sim, &mut trace, oracle.as_ref().map(|_| &mut newly_bound));
            let sched_ns = u64::try_from(sched_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            sched_wall_ns += sched_ns;
            trace.push(TraceEvent::Span(SpanTrace {
                tick: ticks,
                at: tick_end,
                kind: SpanKind::Sched,
                wall_ns: sched_ns,
            }));
            let record_started = std::time::Instant::now();

            // Utilization accounting: allocation from the cluster, usage
            // from the windows.
            let mut used = ResourceVec::ZERO;
            for (app, w) in &windows {
                used += w.usage;
                let entry = totals.entry(*app).or_insert((0, 0, 0, 0));
                entry.0 += w.completions;
                entry.1 += w.timeouts;
                entry.2 += w.oom_kills;
                entry.3 += w.shed_requests;
            }
            let snap = sim.snapshot();
            peak_running = peak_running.max(snap.pods_running);
            util.record(snap.at, snap.allocated, used.min(&snap.allocatable));

            if let Some(orc) = oracle.as_mut() {
                orc.check_gang_atomicity(&sim, &newly_bound);
                orc.check_tick(&sim);
                orc.scan_trace(&trace);
                // Arbitration invariants: capacity conservation, priority
                // inversion, bounded starvation. The sim crate cannot see
                // control types, so the outcomes are flattened into plain
                // per-app entries here.
                if !manager.last_arbitration().is_empty() {
                    let floor_frac = manager.arbiter().map_or(0.5, |a| a.config().floor_fraction);
                    let entries: Vec<ArbitrationCheck> = manager
                        .last_arbitration()
                        .iter()
                        .map(|o| ArbitrationCheck {
                            app: o.app,
                            class: o.class,
                            requested: o.requested,
                            granted: o.granted,
                            shed: o.is_shed(),
                            slew_limited: matches!(
                                o.decision,
                                GrantDecision::Clipped(ClipReason::SlewLimited)
                            ),
                            below_floor: !(o.requested * floor_frac).fits_within(&o.granted),
                            starvation_age: o.starvation_age,
                        })
                        .collect();
                    orc.check_arbitration(tick_end, &entries, sim.cluster().total_allocatable());
                }
            }
            if let (Some(key), Some(inj)) = (faults_active_key, injector.as_ref()) {
                registry.record_key(key, snap.at, inj.active_count(snap.at) as f64);
            }

            if let Some(ck) = cluster_keys {
                let t = snap.at;
                registry.record_key(ck.allocated_cpu_share, t, {
                    let a = snap.allocatable.cpu();
                    if a > 0.0 {
                        snap.allocated.cpu() / a
                    } else {
                        0.0
                    }
                });
                registry.record_key(ck.used_cpu_share, t, {
                    let a = snap.allocatable.cpu();
                    if a > 0.0 {
                        used.cpu() / a
                    } else {
                        0.0
                    }
                });
                registry.record_key(ck.pods_running, t, f64::from(snap.pods_running));
                registry.record_key(ck.pods_pending, t, f64::from(snap.pods_pending));
                registry.record_key(ck.nodes_ready, t, f64::from(snap.nodes_ready));
                for (app, w) in &windows {
                    let keys = series_keys
                        .entry(*app)
                        .or_insert_with(|| AppSeriesKeys::new(&mut registry, *app));
                    if let Some(p99) = w.p99_ms {
                        let key = keys.p99_key(&mut registry);
                        registry.record_key(key, t, p99);
                    }
                    registry.record_key(keys.rate_rps, t, w.arrivals as f64 / window_secs);
                    registry.record_key(keys.replicas, t, f64::from(w.running_replicas));
                    registry.record_key(keys.alloc_cpu, t, w.alloc.cpu());
                    registry.record_key(keys.usage_cpu, t, w.usage.cpu());
                    registry.record_key(keys.timeouts, t, w.timeouts as f64);
                }
            }
            trace.push(TraceEvent::Span(SpanTrace {
                tick: ticks,
                at: tick_end,
                kind: SpanKind::Record,
                wall_ns: u64::try_from(record_started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            }));
            live_ticks += 1;
            if capture_checkpoints && live_ticks.is_multiple_of(checkpoint_every) {
                let ck = manager.checkpoint(tick_end, &sched.backoff);
                // Checkpoint→restore equivalence: while a crash is armed,
                // every captured image must restore to a manager whose
                // own re-checkpoint is byte-identical — otherwise the
                // post-crash trajectory silently diverges from the
                // uninterrupted one.
                if let Some(orc) = oracle.as_mut() {
                    match ResourceManager::restore(cfg.manager.clone(), &sim, &ck) {
                        Ok((restored, rb)) => {
                            let again = restored.checkpoint(ck.at, &rb);
                            if again.to_bytes() != ck.to_bytes() {
                                orc.record_violation(
                                    tick_end,
                                    "checkpoint_equivalence",
                                    "restored manager re-checkpoints to different bytes".into(),
                                );
                            }
                        }
                        Err(err) => orc.record_violation(
                            tick_end,
                            "checkpoint_equivalence",
                            format!("captured checkpoint failed to restore: {err}"),
                        ),
                    }
                }
                checkpoint = Some(ck);
            }
            window_start = tick_end;
        }
        let utilization = util.finish(sim.now());

        // Final per-app summaries need lifetime counters; accumulate from
        // the trackers plus a final window harvest.
        let mut apps = Vec::with_capacity(sim.apps().len());
        let mut control = manager.counters();
        for status in sim.apps() {
            let (completions, timeouts, oom_kills, shed_requests) =
                totals.get(&status.id).copied().unwrap_or((0, 0, 0, 0));
            // A desynced app (unknown to the restarted manager) still gets
            // a summary from the lifetime counters; its PLO ledger is
            // simply empty rather than the whole report panicking.
            let (windows, violations, mean_severity) = match manager.tracker(status.id) {
                Some(t) => (t.windows(), t.violations(), t.mean_severity()),
                None => {
                    control.desynced_apps += 1;
                    (0, 0, 0.0)
                }
            };
            apps.push(AppSummary {
                app: status.id,
                name: status.name.clone(),
                world: status.world,
                priority: status.priority,
                windows,
                violations,
                mean_severity,
                completions,
                timeouts,
                oom_kills,
                shed_requests,
            });
        }

        let shed_requests_total: u64 = apps.iter().map(|a| a.shed_requests).sum();
        let wall_secs = started.elapsed().as_secs_f64();
        let perf = RunPerf {
            ticks,
            wall_secs,
            sim_secs_per_wall_sec: if wall_secs > 0.0 {
                sim.now().as_secs_f64() / wall_secs
            } else {
                0.0
            },
            events: sim.events_processed(),
            peak_running_pods: peak_running,
            fast_metric_records: registry.fast_path_records(),
            control_wall_ns,
            sched_wall_ns,
            filter_evals: sched.filter_evals,
            feasibility_probes: sched.feasibility_probes,
        };

        // Deterministic JSONL dump (wall-clock excluded): two same-seed
        // runs write byte-identical files.
        if let Some(path) = &cfg.trace.dump {
            if let Err(err) = std::fs::write(path, trace.to_jsonl()) {
                eprintln!("warning: failed to write trace dump {}: {err}", path.display());
            }
        }

        let oracle_report = oracle.map(|o| o.finish(&sim, &trace));

        RunOutcome {
            manager: manager.label(),
            scenario: cfg.scenario.name.clone(),
            apps,
            utilization,
            jobs: sim.job_outcomes(),
            registry,
            control,
            oracle: oracle_report,
            preemptions: sched.preemptions,
            bindings: sched.bindings,
            horizon: cfg.scenario.horizon,
            end_time: sim.now(),
            events: sim.events_processed(),
            controller_restarts,
            stale_pod_lookups: sched.stale_pod_lookups,
            thinning_bailouts: sim.thinning_bailouts(),
            shed_apps: manager.shed_apps(),
            shed_requests: shed_requests_total,
            perf,
            trace,
        }
    }
}

/// Scheduler-side state carried across the passes of one run: the
/// framework, the requeue-backoff ledger, the feasibility index (each
/// pass diffs cluster version counters instead of rebuilding the shadow)
/// and what the passes add up to.
struct Scheduling {
    scheduler: SchedulerFramework,
    backoff: RequeueBackoff,
    index: FeasibilityIndex,
    preemptions: u64,
    bindings: u64,
    stale_pod_lookups: u64,
    filter_evals: u64,
    feasibility_probes: u64,
}

impl Scheduling {
    fn new(scheduler: SchedulerFramework) -> Self {
        Scheduling {
            scheduler,
            backoff: RequeueBackoff::new(),
            index: FeasibilityIndex::new(),
            preemptions: 0,
            bindings: 0,
            stale_pod_lookups: 0,
            filter_evals: 0,
            feasibility_probes: 0,
        }
    }

    /// One scheduling pass: the cycle, then the plan applied to the
    /// simulator (victims first, as the plan's shadow accounting
    /// assumes). Pods that bound are appended to `bound_out`.
    fn pass(
        &mut self,
        sim: &mut Simulation,
        trace: &mut TraceRing,
        mut bound_out: Option<&mut Vec<PodId>>,
    ) {
        let plan = self.scheduler.schedule_cycle_carried(
            sim.cluster(),
            &mut self.backoff,
            &mut self.index,
            sim.now(),
            trace,
        );
        self.stale_pod_lookups += plan.stale_pod_lookups;
        self.filter_evals += plan.filter_evals;
        self.feasibility_probes += plan.index_probes;
        for victim in &plan.preemptions {
            if sim.preempt_pod(*victim).is_ok() {
                self.preemptions += 1;
            }
        }
        for (pod, node) in &plan.bindings {
            if sim.bind_pod(*pod, *node).is_ok() {
                self.bindings += 1;
                if let Some(out) = bound_out.as_deref_mut() {
                    out.push(*pod);
                }
            }
        }
    }
}

/// Flattens one realized fault event into the label/number shape the
/// telemetry crate stores (it must not depend on simulator types).
fn fault_trace(ev: &FaultEvent) -> FaultTrace {
    let (duration_s, node, app) = match &ev.kind {
        FaultKind::NodeCrash { node, downtime } => {
            (downtime.map(|d| d.as_secs_f64()), Some(node.as_usize() as u32), None)
        }
        FaultKind::ScrapeBlackout { app, duration } => (Some(duration.as_secs_f64()), None, *app),
        FaultKind::MetricNoise { app, duration, .. } => (Some(duration.as_secs_f64()), None, *app),
        FaultKind::ControlStall { duration }
        | FaultKind::ActuationDrop { duration }
        | FaultKind::ActuationDelay { duration, .. }
        | FaultKind::ActuationPartial { duration, .. } => {
            (Some(duration.as_secs_f64()), None, None)
        }
        // A realized timeline holds a flap as its expanded crashes.
        FaultKind::ControllerCrash | FaultKind::NodeFlap { .. } => (None, None, None),
    };
    FaultTrace { at: ev.at, kind: ev.kind.label(), duration_s, node, app }
}
