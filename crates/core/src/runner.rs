//! The experiment runner: wires a scenario onto a cluster under a chosen
//! manager and scheduler, runs the control loop, and collects the
//! statistics every table and figure reports.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use evolve_control::{ArbiterConfig, ClipReason, GrantDecision};
use evolve_scheduler::{FeasibilityIndex, RequeueBackoff, SchedulerFramework, SchedulerProfile};
use evolve_sim::{
    ArbitrationCheck, ChaosOracle, ClusterConfig, FaultEvent, FaultInjector, FaultKind, NodeShape,
    OracleReport, Simulation, SimulationConfig,
};
use evolve_telemetry::trace::{
    FaultTrace, SpanKind, SpanTrace, TraceConfig, TraceEvent, TraceRing,
};
use evolve_telemetry::{MetricKey, MetricRegistry, UtilizationAccount, UtilizationSummary};
use evolve_types::{AppId, PodId, PriorityClass, ResourceVec, SimDuration, SimTime};
use evolve_workload::{SamplingMode, Scenario, ScenarioSpec, WorldClass};

use crate::checkpoint::ControllerCheckpoint;
use crate::counters::ControlCounters;
use crate::manager::{ManagerKind, ResourceManager};

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
            ManagerKind::Evolve | ManagerKind::EvolveCpuOnly | ManagerKind::EvolveFixedGains => {
                SchedulerProfile::Evolve
            }
            ManagerKind::KubeStatic | ManagerKind::Hpa | ManagerKind::Vpa => {
                SchedulerProfile::KubeDefault
            }
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
            trace: TraceConfig::default(),
            legacy_sampling: false,
            oracle: false,
            arbiter: spec.arbiter,
            indexed_scheduling: true,
        };
        RunConfigBuilder { config }
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
        ratio(self.violations as f64, self.windows as f64)
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
    /// the cluster table and were skipped instead of panicking (the sum
    /// of every cycle's `SchedulePlan::stale_pod_lookups`; 0 on every
    /// shipped run).
    pub stale_pod_lookups: u64,
    /// Arrival streams silently truncated by the legacy thinning sampler's
    /// bailout cap (always zero under batched sampling, which skips dead
    /// spans instead of giving up).
    pub thinning_bailouts: u64,
    /// Distinct apps the arbiter ever shed.
    pub shed_apps: u64,
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
    /// Wall-clock seconds the run took end to end: its pieces' walls summed.
    pub wall_secs: f64,
    /// Simulated seconds advanced per wall-clock second.
    pub sim_secs_per_wall_sec: f64,
    /// Peak concurrently running pods observed at control ticks.
    pub peak_running_pods: u32,
    /// Metric samples recorded through pre-interned [`MetricKey`]s —
    /// records that skipped the name hash/allocation entirely.
    pub fast_metric_records: u64,
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
        ratio(self.total_violations() as f64, self.total_windows() as f64)
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
        [WorldClass::Microservice, WorldClass::BigData, WorldClass::Hpc].map(|world| {
            let apps = self.apps.iter().filter(|a| a.world == world);
            let (windows, violations) =
                apps.fold((0u64, 0u64), |(w, v), a| (w + a.windows, v + a.violations));
            ratio(violations as f64, windows as f64)
        })
    }
}

/// `part / whole`, or zero when `whole` is not positive.
fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
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
}

/// The cluster-level series, interned once up front in this order.
const CLUSTER_SERIES: [&str; 5] = [
    "cluster/allocated_cpu_share",
    "cluster/used_cpu_share",
    "cluster/pods_running",
    "cluster/pods_pending",
    "cluster/nodes_ready",
];

/// One stage of [`ExperimentRunner::run_with`]: a run is a sequence of
/// contiguous pieces, each of one stage (DESIGN.md decision 17).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Building the simulator, manager, scheduler and recorders.
    Construct,
    /// Advancing the engine to the tick's end; units are events processed.
    RunUntil,
    /// Crash recovery and the control tick (units: windows harvested), or
    /// the end-of-tick checkpoint capture (units: zero).
    ManagerTick,
    /// One scheduling cycle; units are bindings planned.
    SchedulerCycle,
    /// The plan applied to the simulator, victims first; units are pods
    /// bound plus pods evicted.
    Actuate,
    /// The cluster snapshot; one unit.
    Snapshot,
    /// Utilisation, lifetime totals and series; units are records (the
    /// utilisation sample plus every registry record).
    Record,
    /// The chaos oracle's checks, when the oracle is on.
    OracleCheck,
    /// Summaries, the trace dump and the oracle's report.
    Finish,
}

impl Stage {
    /// The stage's span name, `<crate>.<call>`.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Stage::Construct => "core.construct",
            Stage::RunUntil => "sim.run_until",
            Stage::ManagerTick => "core.manager_tick",
            Stage::SchedulerCycle => "scheduler.cycle",
            Stage::Actuate => "sim.actuate",
            Stage::Snapshot => "sim.snapshot",
            Stage::Record => "telemetry.record",
            Stage::OracleCheck => "oracle.check",
            Stage::Finish => "core.finish",
        }
    }
}

/// Sees each piece of a run as it ends: its stage, the control tick it
/// belongs to (0 before the first), its wall time, its units of work and
/// the simulation as the piece left it. The run reads the clock once per
/// piece boundary, so the pieces cover the run with no gap or overlap and
/// their walls sum to [`RunPerf::wall_secs`]; a hook's own time lands in
/// the next piece. `()` and any closure of the five arguments are hooks.
pub trait StageHook {
    /// Called once per piece, in run order.
    fn piece(&mut self, stage: Stage, tick: u64, wall: Duration, units: u64, sim: &Simulation);
}

impl StageHook for () {
    fn piece(&mut self, _: Stage, _: u64, _: Duration, _: u64, _: &Simulation) {}
}

impl<F: FnMut(Stage, u64, Duration, u64, &Simulation)> StageHook for F {
    fn piece(&mut self, stage: Stage, tick: u64, wall: Duration, units: u64, sim: &Simulation) {
        self(stage, tick, wall, units, sim);
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
        self.run_with(&mut ())
    }

    /// [`run`](Self::run), handing `hook` every piece of the run.
    #[must_use]
    pub fn run_with<H: StageHook + ?Sized>(self, hook: &mut H) -> RunOutcome {
        let mut ledger = Ledger::start(hook);
        let cfg = self.config;
        let cluster_config = ClusterConfig::uniform(cfg.nodes, cfg.node_shape);
        let sampling =
            if cfg.legacy_sampling { SamplingMode::Legacy } else { SamplingMode::Batched };
        let sim_config = SimulationConfig { sampling };
        let mut sim = Simulation::new(sim_config, cluster_config, &cfg.scenario.mix, cfg.seed);
        sim.presize(cfg.scenario.horizon, cfg.manager.replica_ceiling());
        let mut manager = boot_manager(&cfg, &sim);
        let scheduler = SchedulerFramework::new(cfg.scheduler).with_index(cfg.indexed_scheduling);
        let mut sched = Scheduling::default();
        let mut registry = MetricRegistry::new();
        let mut util = UtilizationAccount::new(sim.cluster().total_allocatable());
        // Decision trace: always on, bounded by the ring capacity. The
        // ring only *reads* controller and scheduler state, so capture
        // cannot perturb the simulated trajectory.
        let mut trace = TraceRing::new(cfg.trace.capacity);
        // Lifetime (completions, timeouts, oom, shed) per app.
        let mut totals: HashMap<AppId, (u64, u64, u64, u64)> = HashMap::new();

        let horizon = SimTime::ZERO + cfg.scenario.horizon;
        let dt = cfg.control_interval;

        // Fault injection: realize the schedule once, arm node
        // crash/recovery events on the simulator, and consult the injector
        // tick-by-tick for scrape blackouts, metric noise, control-plane
        // stalls and actuation faults.
        let mut injector = (!cfg.faults.is_empty())
            .then(|| FaultInjector::new(&cfg.faults, cfg.seed).with_sampling(sampling));
        // The realized fault timeline goes into the decision trace up front
        // so `trace_explain` can correlate control anomalies with the faults
        // active around them. A run without faults pushes nothing — the
        // trace is unchanged.
        if let Some(inj) = &injector {
            inj.arm(&mut sim);
            for ev in inj.timeline() {
                trace.push(TraceEvent::Fault(fault_trace(ev)));
            }
        }
        // `faults/active` series key, interned lazily so fault-free runs
        // (the golden fixtures) record exactly the series they always did.
        let faults_active_key =
            injector.as_ref().filter(|_| cfg.record_series).map(|_| registry.key("faults/active"));

        // The chaos invariant battery: strictly observational (reads the
        // sim/cluster/trace between ticks), so enabling it cannot perturb
        // the simulated trajectory — only slow the run down.
        let mut oracle = cfg.oracle.then(ChaosOracle::new);
        let mut newly_bound: Vec<PodId> = Vec::new();

        // Series ids are interned once up front; the per-tick recording
        // path below neither builds strings nor hashes names.
        let cluster_keys = cfg.record_series.then(|| CLUSTER_SERIES.map(|name| registry.key(name)));
        let mut series_keys: HashMap<AppId, AppSeriesKeys> = if cfg.record_series {
            sim.apps().iter().map(|s| (s.id, AppSeriesKeys::new(&mut registry, s.id))).collect()
        } else {
            HashMap::new()
        };
        ledger.close(Stage::Construct, 0, 0, &sim);

        // Initial scheduling pass so t=0 pods place immediately.
        let bound_out = oracle.as_ref().map(|_| &mut newly_bound);
        sched.pass(&scheduler, &mut sim, &mut trace, &mut ledger, 0, bound_out);
        if let Some(orc) = oracle.as_mut() {
            check_tick(orc, &sim, &manager, &trace, &newly_bound, SimTime::ZERO);
            ledger.close(Stage::OracleCheck, 0, 0, &sim);
        }

        // Crash recovery: checkpoints are captured, one per live tick, only
        // while a controller crash is actually armed and the strategy will
        // consume them.
        let capture_checkpoints = cfg.recovery == RecoveryStrategy::Restore
            && cfg.faults.iter().any(|ev| ev.kind == FaultKind::ControllerCrash);
        let mut checkpoint = None;
        if capture_checkpoints {
            checkpoint = Some(manager.checkpoint(SimTime::ZERO, &sched.backoff));
            ledger.close(Stage::ManagerTick, 0, 0, &sim);
        }
        let mut last_crash_check = SimTime::ZERO;
        let mut controller_restarts = 0u64;

        let mut window_start = SimTime::ZERO;
        // Seconds since the last live tick's end.
        let mut carried_secs = 0.0;
        let mut ticks = 0u64;
        let mut peak_running = 0u32;
        while window_start < horizon {
            ticks += 1;
            // The final window may be truncated when the horizon is not a
            // multiple of the control interval; the manager sees the
            // actual elapsed seconds so per-window rates stay correct.
            let tick_end = (window_start + dt).min(horizon);
            let events = sim.events_processed();
            sim.run_until(tick_end);
            let stalled = injector.as_ref().is_some_and(|i| i.controller_stalled(tick_end));
            ledger.close(Stage::RunUntil, ticks, sim.events_processed() - events, &sim);
            // A stalled control plane skips this tick entirely — no
            // scrape, no decisions, no scheduling pass. The skipped
            // seconds carry into the next live tick so per-window rates
            // stay correct.
            carried_secs += (tick_end - window_start).as_secs_f64();
            window_start = tick_end;
            if stalled {
                continue;
            }
            let window_secs = std::mem::take(&mut carried_secs);
            // Controller crash: the in-memory manager (and the scheduler's
            // requeue ledger, which lives in the same process) is
            // destroyed; rebuild it per the configured strategy before
            // this tick's decisions. The check interval is half-open
            // (last check, tick end] and the cursor does not advance
            // through stalled ticks, so every crash is handled exactly
            // once at the first live tick after it.
            if injector
                .as_ref()
                .is_some_and(|i| i.controller_crashed_in(last_crash_check, tick_end))
            {
                controller_restarts += 1;
                (manager, sched.backoff) = recover(&cfg, &sim, checkpoint.as_ref());
            }
            last_crash_check = tick_end;
            let windows =
                manager.tick_traced(&mut sim, window_secs, injector.as_mut(), Some(&mut trace));
            let control = ledger.close(Stage::ManagerTick, ticks, windows.len() as u64, &sim);
            trace.push(span(ticks, tick_end, SpanKind::Control, control));
            newly_bound.clear();
            let bound_out = oracle.as_ref().map(|_| &mut newly_bound);
            let scheduling =
                sched.pass(&scheduler, &mut sim, &mut trace, &mut ledger, ticks, bound_out);
            trace.push(span(ticks, tick_end, SpanKind::Sched, scheduling));

            let snap = sim.snapshot();
            let snapshot = ledger.close(Stage::Snapshot, ticks, 1, &sim);
            let records = registry.fast_path_records();
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
            peak_running = peak_running.max(snap.pods_running);
            util.record(snap.at, snap.allocated, used.min(&snap.allocatable));
            if let (Some(key), Some(inj)) = (faults_active_key, injector.as_ref()) {
                registry.record_key(key, snap.at, inj.active_count(snap.at) as f64);
            }

            if let Some(keys) = cluster_keys {
                let t = snap.at;
                let values = [
                    ratio(snap.allocated.cpu(), snap.allocatable.cpu()),
                    ratio(used.cpu(), snap.allocatable.cpu()),
                    f64::from(snap.pods_running),
                    f64::from(snap.pods_pending),
                    f64::from(snap.nodes_ready),
                ];
                for (key, value) in keys.into_iter().zip(values) {
                    registry.record_key(key, t, value);
                }
                for (app, w) in &windows {
                    let keys = series_keys
                        .entry(*app)
                        .or_insert_with(|| AppSeriesKeys::new(&mut registry, *app));
                    if let Some(p99) = w.p99_ms {
                        let key = *keys.p99_ms.get_or_insert_with(|| registry.key(&keys.p99_name));
                        registry.record_key(key, t, p99);
                    }
                    registry.record_key(keys.rate_rps, t, w.arrivals as f64 / window_secs);
                    registry.record_key(keys.replicas, t, f64::from(w.running_replicas));
                    registry.record_key(keys.alloc_cpu, t, w.alloc.cpu());
                    registry.record_key(keys.usage_cpu, t, w.usage.cpu());
                    registry.record_key(keys.timeouts, t, w.timeouts as f64);
                }
            }
            manager.recycle(windows);
            let records = 1 + registry.fast_path_records() - records;
            let recording = ledger.close(Stage::Record, ticks, records, &sim);

            if capture_checkpoints {
                checkpoint = Some(manager.checkpoint(tick_end, &sched.backoff));
                ledger.close(Stage::ManagerTick, ticks, 0, &sim);
            }
            if let Some(orc) = oracle.as_mut() {
                check_tick(orc, &sim, &manager, &trace, &newly_bound, tick_end);
                if let Some(ck) = checkpoint.as_ref().filter(|_| capture_checkpoints) {
                    check_checkpoint(orc, &cfg, &sim, ck);
                }
                ledger.close(Stage::OracleCheck, ticks, 0, &sim);
            }
            // Pushed after the oracle scanned the ring: a full ring then
            // evicts this span, not an event the oracle has not read.
            trace.push(span(ticks, tick_end, SpanKind::Record, snapshot + recording));
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

        // Deterministic JSONL dump (wall-clock excluded): two same-seed
        // runs write byte-identical files.
        if let Some(path) = &cfg.trace.dump {
            if let Err(err) = std::fs::write(path, trace.to_jsonl()) {
                eprintln!("warning: failed to write trace dump {}: {err}", path.display());
            }
        }

        let oracle_report = oracle.map(|o| o.finish(&sim, &trace));
        let jobs = sim.job_outcomes();
        ledger.close(Stage::Finish, ticks, 0, &sim);

        let wall_secs = ledger.total.as_secs_f64();
        let perf = RunPerf {
            ticks,
            wall_secs,
            sim_secs_per_wall_sec: ratio(sim.now().as_secs_f64(), wall_secs),
            peak_running_pods: peak_running,
            fast_metric_records: registry.fast_path_records(),
            filter_evals: sched.filter_evals,
            feasibility_probes: sched.feasibility_probes,
        };

        RunOutcome {
            manager: manager.label().to_owned(),
            scenario: cfg.scenario.name.clone(),
            apps,
            utilization,
            jobs,
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
            perf,
            trace,
        }
    }
}

/// The manager a run boots: its kind's policies and, when the run has
/// one, its arbiter. Every recovery strategy starts from it.
fn boot_manager(cfg: &RunConfig, sim: &Simulation) -> ResourceManager {
    let mut manager = ResourceManager::new(cfg.manager, sim);
    if let Some(arb) = cfg.arbiter {
        manager.set_arbiter(arb);
    }
    manager
}

/// The manager and requeue ledger that replace the ones a controller
/// crash destroyed, rebuilt per `cfg.recovery`.
fn recover(
    cfg: &RunConfig,
    sim: &Simulation,
    checkpoint: Option<&ControllerCheckpoint>,
) -> (ResourceManager, RequeueBackoff) {
    let mut manager = boot_manager(cfg, sim);
    match cfg.recovery {
        RecoveryStrategy::Restore => {
            // The image was captured at the end of the previous live tick
            // (stalled seconds carry into this window), so the resumed run
            // is bit-identical to one that never crashed.
            if let Some(ck) = checkpoint {
                match manager.restore(ck) {
                    Ok(backoff) => return (manager, backoff),
                    // A failed restore may leave the manager part-restored.
                    Err(_) => manager = boot_manager(cfg, sim),
                }
            }
            // Restore with no (or corrupt) checkpoint degrades to cold
            // reconstruction rather than naive reset.
            manager.cold_reconstruct(sim);
        }
        RecoveryStrategy::ColdReconstruct => manager.cold_reconstruct(sim),
        RecoveryStrategy::NaiveReset => manager.naive_reset(),
    }
    (manager, RequeueBackoff::new())
}

/// The oracle's per-pass battery: gang atomicity of the pods the pass
/// bound, the cluster invariants, the trace events since the last scan
/// and, when the arbiter ran, its outcomes.
fn check_tick(
    orc: &mut ChaosOracle,
    sim: &Simulation,
    manager: &ResourceManager,
    trace: &TraceRing,
    newly_bound: &[PodId],
    at: SimTime,
) {
    orc.check_gang_atomicity(sim, newly_bound);
    orc.check_tick(sim);
    orc.scan_trace(trace);
    // Arbitration invariants: capacity conservation, priority inversion,
    // bounded starvation. The sim crate cannot see control types, so the
    // outcomes are flattened into plain per-app entries here.
    if manager.last_arbitration().is_empty() {
        return;
    }
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
            slew_limited: matches!(o.decision, GrantDecision::Clipped(ClipReason::SlewLimited)),
            below_floor: !(o.requested * floor_frac).fits_within(&o.granted),
            starvation_age: o.starvation_age,
        })
        .collect();
    orc.check_arbitration(at, &entries, sim.cluster().total_allocatable());
}

/// Checkpoint→restore equivalence: while a crash is armed, every captured
/// image must restore to a manager whose own re-checkpoint is
/// byte-identical — otherwise the post-crash trajectory silently diverges
/// from the uninterrupted one.
fn check_checkpoint(
    orc: &mut ChaosOracle,
    cfg: &RunConfig,
    sim: &Simulation,
    ck: &ControllerCheckpoint,
) {
    let mut restored = boot_manager(cfg, sim);
    let detail = match restored.restore(ck) {
        Ok(rb) if restored.checkpoint(ck.at, &rb).to_bytes() == ck.to_bytes() => return,
        Ok(_) => "restored manager re-checkpoints to different bytes".into(),
        Err(err) => format!("captured checkpoint failed to restore: {err}"),
    };
    orc.record_violation(ck.at, "checkpoint_equivalence", detail);
}

/// The run's one clock: each [`close`](Ledger::close) ends the piece that
/// began at the previous one, and `total` sums them.
struct Ledger<'h, H: ?Sized> {
    hook: &'h mut H,
    last: Instant,
    total: Duration,
}

impl<'h, H: StageHook + ?Sized> Ledger<'h, H> {
    fn start(hook: &'h mut H) -> Self {
        Ledger { hook, last: Instant::now(), total: Duration::ZERO }
    }

    /// Ends the current piece as `stage`, hands it to the hook and
    /// returns its wall.
    fn close(&mut self, stage: Stage, tick: u64, units: u64, sim: &Simulation) -> Duration {
        let now = Instant::now();
        let wall = now - std::mem::replace(&mut self.last, now);
        self.total += wall;
        self.hook.piece(stage, tick, wall, units, sim);
        wall
    }
}

/// A lifecycle span of the decision trace.
fn span(tick: u64, at: SimTime, kind: SpanKind, wall: Duration) -> TraceEvent {
    let wall_ns = u64::try_from(wall.as_nanos()).unwrap_or(u64::MAX);
    TraceEvent::Span(SpanTrace { tick, at, kind, wall_ns })
}

/// Scheduler-side state carried across the passes of one run: the
/// requeue-backoff ledger, the feasibility index (each pass diffs cluster
/// version counters instead of rebuilding the shadow) and what the passes
/// add up to.
#[derive(Default)]
struct Scheduling {
    backoff: RequeueBackoff,
    index: FeasibilityIndex,
    preemptions: u64,
    bindings: u64,
    stale_pod_lookups: u64,
    filter_evals: u64,
    feasibility_probes: u64,
}

impl Scheduling {
    /// One pass of `scheduler` as two pieces: the cycle, then the plan
    /// applied to the simulator (victims first, as the plan's shadow
    /// accounting assumes). Pods that bound go to `bound_out`. Returns the
    /// pass's wall.
    fn pass<H: StageHook + ?Sized>(
        &mut self,
        scheduler: &SchedulerFramework,
        sim: &mut Simulation,
        trace: &mut TraceRing,
        ledger: &mut Ledger<'_, H>,
        tick: u64,
        mut bound_out: Option<&mut Vec<PodId>>,
    ) -> Duration {
        let plan = scheduler.schedule_cycle_carried(
            sim.cluster(),
            &mut self.backoff,
            &mut self.index,
            sim.now(),
            trace,
        );
        self.stale_pod_lookups += plan.stale_pod_lookups;
        self.filter_evals += plan.filter_evals;
        self.feasibility_probes += plan.index_probes;
        let cycle = ledger.close(Stage::SchedulerCycle, tick, plan.bindings.len() as u64, sim);
        let moved = self.preemptions + self.bindings;
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
        self.backoff.recycle(plan);
        let moved = self.preemptions + self.bindings - moved;
        cycle + ledger.close(Stage::Actuate, tick, moved, sim)
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

#[cfg(test)]
mod tests {
    use super::*;

    /// `(pods created, pod bound)` of a fault-free run of `spec` under
    /// `manager`: the bound as construction leaves the simulation, the
    /// pods as the run does.
    fn pods_against_bound(spec: &ScenarioSpec, manager: ManagerKind) -> (usize, usize) {
        let cfg = RunConfig::from_spec(spec, manager).seed(42).build();
        let (horizon, ceiling) = (cfg.scenario.horizon, manager.replica_ceiling());
        let (mut created, mut bound) = (0, 0);
        let _ = ExperimentRunner::new(cfg).run_with(
            &mut |stage: Stage, _: u64, _: Duration, _: u64, sim: &Simulation| match stage {
                Stage::Construct => bound = sim.pod_bound(horizon, ceiling),
                Stage::Finish => created = sim.cluster().pods().count(),
                _ => {}
            },
        );
        (created, bound)
    }

    /// The presize holds every pod the benchmarked runs create, and is not
    /// more than twice that: a bound grown loose shows here too.
    fn check_pod_bound(spec: &ScenarioSpec, manager: ManagerKind) {
        let (created, bound) = pods_against_bound(spec, manager);
        let run = format!("{} under {}", spec.name, manager.label());
        eprintln!("{run}: created {created} pods, bound {bound}");
        assert!(created <= bound, "{run}: created {created} pods, bound {bound}");
        assert!(bound <= 2 * created, "{run}: bound {bound} for {created} pods");
    }

    fn scale() -> ScenarioSpec {
        ScenarioSpec::cluster_scale(250, 40, SimDuration::from_secs(600))
    }

    #[test]
    fn the_pod_bound_holds_the_headline_under_evolve() {
        check_pod_bound(&ScenarioSpec::headline(1.0), ManagerKind::Evolve);
    }

    #[test]
    fn the_pod_bound_holds_the_headline_under_static_replicas() {
        check_pod_bound(&ScenarioSpec::headline(1.0), ManagerKind::KubeStatic);
    }

    #[test]
    fn the_pod_bound_holds_cluster_scale_under_evolve() {
        check_pod_bound(&scale(), ManagerKind::Evolve);
    }

    #[test]
    fn the_pod_bound_holds_cluster_scale_under_static_replicas() {
        check_pod_bound(&scale(), ManagerKind::KubeStatic);
    }
}
