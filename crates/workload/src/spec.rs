//! Declarative scenario specifications.
//!
//! [`ScenarioSpec`] is the data model behind every workload scenario: the
//! services with their demand vectors, arrival processes and PLOs, the
//! batch/HPC jobs, the cluster shape, the horizon, and (optionally) an
//! arbiter configuration, a fault plan, a capacity-probe ramp and a chaos
//! reproducer's `[repro]` note. A spec can be authored as a TOML file (see
//! EXPERIMENTS.md § Authoring scenarios), loaded with
//! [`ScenarioSpec::from_file`], and turned into a runnable [`Scenario`]
//! with [`ScenarioSpec::build`]. A builtin scenario *is* its checked-in
//! `scenarios/<name>.toml` file, compiled in through [`BUILTINS`] and
//! parsed by [`ScenarioSpec::builtin`]; only [`ScenarioSpec::headline`]
//! and [`ScenarioSpec::cluster_scale`] take parameters, and both start
//! from their file.
//!
//! Parsing never panics: structural problems surface as typed
//! [`ScenarioError`]s with line context, semantic problems (zero demand
//! vectors, allocations no node can host, out-of-range fault targets) as
//! [`ScenarioError::Infeasible`] with a field path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use evolve_types::{AppId, NodeId, PriorityClass, ResourceVec, SimDuration, SimTime};

use crate::apps::PloSpec;
use crate::faults::{FaultEvent, FaultKind};
use crate::scenario::{LoadSpec, Scenario, WorkloadMix};
use crate::toml_mini::{self, Item, Table, Value};
use crate::{BatchJobSpec, HpcJobSpec, RequestClass, ServiceSpec, StageSpec};

/// The reference node capacity a spec is validated against when
/// `[cluster] node_capacity` is not set. Mirrors the simulator's default
/// node shape (asserted by a cross-crate test in `evolve-core`).
pub const DEFAULT_NODE_CAPACITY: ResourceVec = ResourceVec::new(16_000.0, 65_536.0, 500.0, 1_250.0);

/// Why a scenario file could not be loaded.
///
/// Structural errors ([`Syntax`](ScenarioError::Syntax),
/// [`UnknownField`](ScenarioError::UnknownField),
/// [`InvalidValue`](ScenarioError::InvalidValue)) carry the offending
/// line; semantic errors ([`Infeasible`](ScenarioError::Infeasible))
/// carry the field path (`service[2].load.amplitude`).
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The file could not be read.
    Io {
        /// Path passed to [`ScenarioSpec::from_file`].
        path: String,
        /// Operating-system error description.
        detail: String,
    },
    /// The document is not valid (subset-)TOML.
    Syntax {
        /// 1-based line of the offending construct.
        line: usize,
        /// What went wrong.
        detail: String,
    },
    /// A field the schema does not define.
    UnknownField {
        /// 1-based line where the field is set.
        line: usize,
        /// Table the field appeared in (`scenario`, `service[0]`, …).
        table: String,
        /// The unrecognized key.
        field: String,
    },
    /// A required field is absent.
    MissingField {
        /// Table the field is missing from.
        table: String,
        /// The missing key (alternatives separated by ` | `).
        field: String,
    },
    /// A field holds a value of the wrong type or shape.
    InvalidValue {
        /// 1-based line where the field is set.
        line: usize,
        /// Field path (`service[1].demand`).
        field: String,
        /// What was expected.
        detail: String,
    },
    /// The spec is structurally sound but describes a scenario that can
    /// never run (zero demand, allocations no node can host, fault
    /// targets outside the cluster, …).
    Infeasible {
        /// Field path of the offending value.
        field: String,
        /// Why the scenario cannot run.
        detail: String,
    },
    /// [`ScenarioSpec::builtin`] was asked for a name it does not know.
    UnknownScenario {
        /// The requested name.
        name: String,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Io { path, detail } => {
                write!(f, "cannot read scenario file `{path}`: {detail}")
            }
            ScenarioError::Syntax { line, detail } => {
                write!(f, "line {line}: {detail}")
            }
            ScenarioError::UnknownField { line, table, field } => {
                write!(f, "line {line}: unknown field `{field}` in `{table}`")
            }
            ScenarioError::MissingField { table, field } => {
                write!(f, "missing required field `{field}` in `{table}`")
            }
            ScenarioError::InvalidValue { line, field, detail } => {
                write!(f, "line {line}: invalid value for `{field}`: {detail}")
            }
            ScenarioError::Infeasible { field, detail } => {
                write!(f, "infeasible scenario: `{field}`: {detail}")
            }
            ScenarioError::UnknownScenario { name } => {
                write!(
                    f,
                    "unknown builtin scenario `{name}` (available: {})",
                    BUILTINS.map(|(name, _)| name).join(", ")
                )
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Cluster shape the scenario is sized for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Number of worker nodes.
    pub nodes: usize,
    /// Per-node capacity; `None` uses the simulator default
    /// ([`DEFAULT_NODE_CAPACITY`]).
    pub node_capacity: Option<ResourceVec>,
}

/// One latency-critical service: demand distribution, PLO, initial
/// sizing and arrival process.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceEntry {
    /// Service name (unique within the scenario).
    pub name: String,
    /// Request-class label (`cpu-bound`, …), for reports.
    pub class: String,
    /// Mean per-request demand vector.
    pub demand: ResourceVec,
    /// Coefficient of variation of the demand distribution.
    pub demand_cv: f64,
    /// Per-request timeout.
    pub timeout: SimDuration,
    /// The performance objective.
    pub plo: PloSpec,
    /// Initial per-replica allocation.
    pub alloc: ResourceVec,
    /// Initial replica count.
    pub replicas: u32,
    /// Fixed per-replica memory overhead, MiB.
    pub base_memory_mib: f64,
    /// Overload priority class.
    pub priority: PriorityClass,
    /// Arrival process driving the service.
    pub load: LoadSpec,
}

/// One stage of a batch job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageEntry {
    /// Parallel tasks in the stage.
    pub tasks: u32,
    /// Work per task (mcore·s, MiB, MB, MB).
    pub work: ResourceVec,
    /// Records processed per task.
    pub records: u64,
}

/// One staged big-data batch job with its submission time.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchEntry {
    /// Job name.
    pub name: String,
    /// Submission time.
    pub submit_at: SimTime,
    /// Stages executed in order.
    pub stages: Vec<StageEntry>,
    /// The performance objective (deadline or throughput).
    pub plo: PloSpec,
    /// Per-task executor allocation.
    pub task_alloc: ResourceVec,
    /// Maximum tasks in flight.
    pub max_parallel: u32,
    /// Overload priority class.
    pub priority: PriorityClass,
}

/// One gang-scheduled HPC job with its submission time.
#[derive(Debug, Clone, PartialEq)]
pub struct HpcEntry {
    /// Job name.
    pub name: String,
    /// Submission time.
    pub submit_at: SimTime,
    /// Ranks that must run simultaneously.
    pub gang: u32,
    /// Lockstep iterations.
    pub iterations: u32,
    /// Work per rank per iteration.
    pub work: ResourceVec,
    /// Per-rank allocation.
    pub rank_alloc: ResourceVec,
    /// Completion deadline from submission.
    pub deadline: SimDuration,
    /// Overload priority class.
    pub priority: PriorityClass,
}

/// Capacity-arbiter settings, mirroring `evolve_control::ArbiterConfig`
/// field for field (plain data here so `evolve_workload` stays free of a
/// control-plane dependency; `evolve-core` converts).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArbiterSpec {
    /// Fraction of ready capacity held back as reserve.
    pub headroom_fraction: f64,
    /// Grant fraction below which an app counts as starving.
    pub floor_fraction: f64,
    /// Crunch-exit margin.
    pub hysteresis: f64,
    /// Maximum per-tick grant-fraction recovery step.
    pub max_recovery_step: f64,
    /// Demand clamp as a multiple of current actual allocation.
    pub demand_cap_ratio: f64,
}

impl Default for ArbiterSpec {
    fn default() -> Self {
        ArbiterSpec {
            headroom_fraction: 0.10,
            floor_fraction: 0.5,
            hysteresis: 0.10,
            max_recovery_step: 0.25,
            demand_cap_ratio: 2.0,
        }
    }
}

/// A stepwise capacity-probe ramp: offered-load factors from `initial`
/// to `max` in `step` increments, with the knee declared where the
/// service PLO violation rate crosses `threshold`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeSpec {
    /// First offered-load factor.
    pub initial: f64,
    /// Factor increment per ramp step.
    pub step: f64,
    /// Last offered-load factor.
    pub max: f64,
    /// Service violation rate above which a step is unsustainable.
    pub threshold: f64,
    /// Offered request rate at factor 1.0; `None` derives it from the
    /// spec's service loads ([`ScenarioSpec::offered_rps`]).
    pub reference_rps: Option<f64>,
}

/// What a chaos reproducer adds to the scenario that ran: the run seed
/// and the oracle check that fired (the `[repro]` table). Only
/// `chaos_fuzz --replay` reads it; every other consumer of the file runs
/// the scenario as written.
#[derive(Debug, Clone, PartialEq)]
pub struct ReproSpec {
    /// Run seed of the failing case.
    pub seed: u64,
    /// Name of the first oracle check that fired.
    pub violation: String,
}

/// A declarative scenario: everything a run needs, as data.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name used in reports.
    pub name: String,
    /// What the scenario exercises.
    pub description: String,
    /// How long to simulate.
    pub horizon: SimDuration,
    /// Cluster shape.
    pub cluster: ClusterSpec,
    /// Latency-critical services.
    pub services: Vec<ServiceEntry>,
    /// Batch jobs.
    pub batch_jobs: Vec<BatchEntry>,
    /// HPC jobs.
    pub hpc_jobs: Vec<HpcEntry>,
    /// Capacity-arbiter settings, when the scenario wants one.
    pub arbiter: Option<ArbiterSpec>,
    /// Scheduled faults.
    pub faults: Vec<FaultEvent>,
    /// Capacity-probe ramp, for scenarios meant for knee discovery.
    pub probe: Option<ProbeSpec>,
    /// Set when the file is a chaos reproducer.
    pub repro: Option<ReproSpec>,
}

/// Every builtin scenario: the name [`ScenarioSpec::builtin`] accepts and
/// the text of its checked-in `scenarios/<name>.toml`, which is the
/// scenario's only definition. Adding a builtin is a canonical file plus
/// one row here.
pub const BUILTINS: [(&str, &str); 9] = [
    ("headline", include_str!("../../../scenarios/headline.toml")),
    ("single_diurnal", include_str!("../../../scenarios/single_diurnal.toml")),
    ("flash_crowd", include_str!("../../../scenarios/flash_crowd.toml")),
    ("step_response", include_str!("../../../scenarios/step_response.toml")),
    ("load_sweep", include_str!("../../../scenarios/load_sweep.toml")),
    ("bottleneck_rotation", include_str!("../../../scenarios/bottleneck_rotation.toml")),
    ("overload", include_str!("../../../scenarios/overload.toml")),
    ("cluster_scale", include_str!("../../../scenarios/cluster_scale.toml")),
    ("interference", include_str!("../../../scenarios/interference.toml")),
];

impl ScenarioSpec {
    /// Loads and validates a scenario from a TOML file.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Io`] when the file cannot be read, otherwise any
    /// error [`ScenarioSpec::from_toml_str`] reports.
    pub fn from_file(path: impl AsRef<Path>) -> Result<ScenarioSpec, ScenarioError> {
        let path = path.as_ref();
        let src = std::fs::read_to_string(path).map_err(|e| ScenarioError::Io {
            path: path.display().to_string(),
            detail: e.to_string(),
        })?;
        ScenarioSpec::from_toml_str(&src)
    }

    /// Parses and validates a scenario from TOML text. Never panics.
    ///
    /// # Errors
    ///
    /// Typed [`ScenarioError`]s for syntax problems, unknown/missing
    /// fields, wrong value types, and infeasible scenarios.
    pub fn from_toml_str(src: &str) -> Result<ScenarioSpec, ScenarioError> {
        let root = toml_mini::parse(src)?;
        let spec = decode_root(&root)?;
        spec.validate()?;
        Ok(spec)
    }

    /// The builtin spec `name`: its checked-in file (see [`BUILTINS`]),
    /// parsed.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::UnknownScenario`] for unrecognized names.
    pub fn builtin(name: &str) -> Result<ScenarioSpec, ScenarioError> {
        let (_, text) = BUILTINS
            .iter()
            .find(|(builtin, _)| *builtin == name)
            .ok_or_else(|| ScenarioError::UnknownScenario { name: name.to_string() })?;
        ScenarioSpec::from_toml_str(text)
    }

    /// The T1/T2/F4 headline mix (`headline.toml`, 20 nodes) with every
    /// service rate and every batch stage's task count multiplied by
    /// `scale`; the task counts round up.
    ///
    /// # Panics
    ///
    /// Panics when `scale` is not positive.
    #[must_use]
    pub fn headline(scale: f64) -> ScenarioSpec {
        assert!(scale > 0.0, "scale must be positive");
        let mut spec =
            ScenarioSpec::builtin("headline").expect("headline.toml parses").scaled_loads(scale);
        for stage in spec.batch_jobs.iter_mut().flat_map(|job| &mut job.stages) {
            stage.tasks = (f64::from(stage.tasks) * scale).ceil() as u32;
        }
        spec
    }

    /// The T8 scheduler-stress mix on `nodes` nodes with `apps` services,
    /// grown from `cluster_scale.toml` (its 100-node, 10-app instance).
    /// Only the sizing is computed here; the pod shape, loads, PLOs and
    /// the four batch jobs come from the file.
    ///
    /// Sized against the default node shape: each pod requests
    /// (1200 mcore, 4800 MiB, 30, 80), so exactly 12 fit per default
    /// node (CPU- and memory-bound simultaneously) and the cluster
    /// offers `12 × nodes` pod slots. Services take ~40% of the slots
    /// spread over `apps` copies of the file's first service; the four
    /// batch jobs offer `8 × nodes` parallel tasks against the remaining
    /// ~7.2 × nodes slots, so the pending queue never drains and every
    /// control tick reschedules into a nearly-full cluster — the worst
    /// case for a full node rescan and the regime `tab8_cluster_scale`
    /// measures. Batch tasks carry ~5 min of CPU work each, so a 5 s tick
    /// completes ~2% of the running tasks: free slots concentrate on a
    /// small fraction of the nodes while the backlog keeps probing a
    /// cluster that is full everywhere else.
    ///
    /// Intended for `KubeStatic`-style static replica management:
    /// replica counts are chosen here, not by a controller.
    ///
    /// # Panics
    ///
    /// Panics when `nodes` or `apps` is zero.
    #[must_use]
    pub fn cluster_scale(nodes: usize, apps: usize, horizon: SimDuration) -> ScenarioSpec {
        assert!(nodes > 0, "need at least one node");
        assert!(apps > 0, "need at least one service app");
        let mut spec = ScenarioSpec::builtin("cluster_scale").expect("cluster_scale.toml parses");
        let service_pods = (12 * nodes * 2).div_ceil(5); // ~40% of the slots
        let replicas = service_pods.div_ceil(apps) as u32;
        let template = spec.services[0].clone();
        spec.name = format!("cluster-scale-{nodes}n-{apps}a");
        spec.horizon = horizon;
        spec.cluster.nodes = nodes;
        spec.services = (0..apps)
            .map(|i| ServiceEntry { name: format!("svc-{i}"), replicas, ..template.clone() })
            .collect();
        for job in &mut spec.batch_jobs {
            job.max_parallel = (2 * nodes) as u32;
            for stage in &mut job.stages {
                stage.tasks = (50 * nodes) as u32;
            }
        }
        spec
    }

    /// Builds the runnable [`Scenario`] this spec describes. The
    /// cluster/arbiter/fault/probe sections are applied by the run
    /// configuration (`RunConfig::from_spec` in `evolve-core`), not here.
    ///
    /// # Panics
    ///
    /// Panics when a hand-constructed spec violates the invariants
    /// [`ScenarioSpec::validate`] checks; file-loaded specs are always
    /// validated first.
    #[must_use]
    pub fn build(&self) -> Scenario {
        let mut mix = WorkloadMix::new();
        for s in &self.services {
            mix = mix.with_service(
                ServiceSpec::new(
                    s.name.clone(),
                    s.plo,
                    RequestClass::new(s.class.clone(), s.demand, s.demand_cv, s.timeout),
                    s.alloc,
                )
                .with_initial_replicas(s.replicas)
                .with_base_memory(s.base_memory_mib)
                .with_priority(s.priority),
                s.load.clone(),
            );
        }
        for b in &self.batch_jobs {
            let stages =
                b.stages.iter().map(|st| StageSpec::new(st.tasks, st.work, st.records)).collect();
            mix = mix.with_batch_job(
                BatchJobSpec::new(b.name.clone(), stages, b.plo, b.task_alloc, b.max_parallel)
                    .with_priority(b.priority),
                b.submit_at,
            );
        }
        for h in &self.hpc_jobs {
            mix = mix.with_hpc_job(
                HpcJobSpec::new(
                    h.name.clone(),
                    h.gang,
                    h.iterations,
                    h.work,
                    h.rank_alloc,
                    h.deadline,
                )
                .with_priority(h.priority),
                h.submit_at,
            );
        }
        Scenario {
            name: self.name.clone(),
            description: self.description.clone(),
            mix,
            horizon: self.horizon,
        }
    }

    /// A copy with every service arrival rate multiplied by `factor`
    /// (name, jobs and PLOs unchanged) — the capacity-probe ramp step.
    ///
    /// # Panics
    ///
    /// Panics when `factor` is not positive and finite.
    #[must_use]
    pub fn scaled_loads(&self, factor: f64) -> ScenarioSpec {
        assert!(factor.is_finite() && factor > 0.0, "scale factor must be positive");
        let mut out = self.clone();
        for s in &mut out.services {
            s.load = s.load.scaled(factor);
        }
        out
    }

    /// Total mean offered request rate across services (rps).
    #[must_use]
    pub fn offered_rps(&self) -> f64 {
        self.services.iter().map(|s| s.load.mean_rate()).sum()
    }

    /// How many applications the spec declares; app ids count services,
    /// then batch jobs, then HPC jobs.
    #[must_use]
    pub fn app_count(&self) -> usize {
        self.services.len() + self.batch_jobs.len() + self.hpc_jobs.len()
    }

    /// The node capacity this spec is validated against.
    #[must_use]
    pub fn node_capacity(&self) -> ResourceVec {
        self.cluster.node_capacity.unwrap_or(DEFAULT_NODE_CAPACITY)
    }

    /// Checks the semantic invariants [`ScenarioSpec::build`] (and the
    /// downstream spec constructors) rely on.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Infeasible`] with the offending field path.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let cap = self.node_capacity();
        if self.name.is_empty() {
            return Err(infeasible("name", "scenario name must not be empty"));
        }
        if self.horizon.is_zero() {
            return Err(infeasible("horizon_secs", "horizon must be positive"));
        }
        if self.cluster.nodes == 0 {
            return Err(infeasible("cluster.nodes", "cluster needs at least one node"));
        }
        if let Some(nc) = self.cluster.node_capacity {
            if !nc.is_valid() || nc.is_zero() {
                return Err(infeasible(
                    "cluster.node_capacity",
                    "node capacity must be finite, non-negative and non-zero",
                ));
            }
        }
        if self.services.is_empty() && self.batch_jobs.is_empty() && self.hpc_jobs.is_empty() {
            return Err(infeasible("scenario", "declares no services, batch jobs or HPC jobs"));
        }
        for (i, s) in self.services.iter().enumerate() {
            let at = |k: &str| format!("service[{i}].{k}");
            if s.name.is_empty() {
                return Err(infeasible(&at("name"), "service name must not be empty"));
            }
            if s.class.is_empty() {
                return Err(infeasible(&at("class"), "request-class label must not be empty"));
            }
            if !s.demand.is_valid() || s.demand.is_zero() {
                return Err(infeasible(
                    &at("demand"),
                    "per-request demand must be finite, non-negative and non-zero",
                ));
            }
            if !(s.demand_cv.is_finite() && s.demand_cv >= 0.0) {
                return Err(infeasible(&at("demand_cv"), "must be finite and non-negative"));
            }
            if s.timeout.is_zero() {
                return Err(infeasible(&at("timeout_secs"), "timeout must be positive"));
            }
            check_plo(&at("plo"), &s.plo)?;
            check_alloc(&at("alloc"), &s.alloc, &cap)?;
            if s.replicas == 0 {
                return Err(infeasible(&at("replicas"), "must be at least 1"));
            }
            if !(s.base_memory_mib.is_finite() && s.base_memory_mib >= 0.0) {
                return Err(infeasible(&at("base_memory_mib"), "must be finite and non-negative"));
            }
            check_load(&at("load"), &s.load)?;
        }
        for (j, b) in self.batch_jobs.iter().enumerate() {
            let at = |k: &str| format!("batch[{j}].{k}");
            if b.name.is_empty() {
                return Err(infeasible(&at("name"), "job name must not be empty"));
            }
            if b.stages.is_empty() {
                return Err(infeasible(&at("stage"), "batch job needs at least one stage"));
            }
            for (k, st) in b.stages.iter().enumerate() {
                let at = |f: &str| format!("batch[{j}].stage[{k}].{f}");
                if st.tasks == 0 {
                    return Err(infeasible(&at("tasks"), "stage needs at least one task"));
                }
                if !st.work.is_valid() || st.work.is_zero() {
                    return Err(infeasible(
                        &at("work"),
                        "per-task work must be finite, non-negative and non-zero",
                    ));
                }
            }
            check_plo(&at("plo"), &b.plo)?;
            check_alloc(&at("task_alloc"), &b.task_alloc, &cap)?;
            if b.max_parallel == 0 {
                return Err(infeasible(&at("max_parallel"), "must be at least 1"));
            }
        }
        for (k, h) in self.hpc_jobs.iter().enumerate() {
            let at = |f: &str| format!("hpc[{k}].{f}");
            if h.name.is_empty() {
                return Err(infeasible(&at("name"), "job name must not be empty"));
            }
            if h.gang == 0 {
                return Err(infeasible(&at("gang"), "gang size must be at least 1"));
            }
            if h.iterations == 0 {
                return Err(infeasible(&at("iterations"), "must be at least 1"));
            }
            if !h.work.is_valid() {
                return Err(infeasible(&at("work"), "must be finite and non-negative"));
            }
            check_alloc(&at("rank_alloc"), &h.rank_alloc, &cap)?;
            if h.deadline.is_zero() {
                return Err(infeasible(&at("deadline_secs"), "deadline must be positive"));
            }
        }
        if let Some(a) = &self.arbiter {
            let frac = |k: &str, v: f64, hi: f64| -> Result<(), ScenarioError> {
                if v.is_finite() && (0.0..hi).contains(&v) {
                    Ok(())
                } else {
                    Err(infeasible(&format!("arbiter.{k}"), "must be a fraction in [0, 1)"))
                }
            };
            frac("headroom_fraction", a.headroom_fraction, 1.0)?;
            frac("hysteresis", a.hysteresis, 1.0)?;
            if !(a.floor_fraction.is_finite() && (0.0..=1.0).contains(&a.floor_fraction)) {
                return Err(infeasible("arbiter.floor_fraction", "must be in [0, 1]"));
            }
            if !(a.max_recovery_step.is_finite() && a.max_recovery_step > 0.0) {
                return Err(infeasible("arbiter.max_recovery_step", "must be positive"));
            }
            if !(a.demand_cap_ratio.is_finite() && a.demand_cap_ratio >= 1.0) {
                return Err(infeasible("arbiter.demand_cap_ratio", "must be at least 1"));
            }
        }
        if let Some(p) = &self.probe {
            if !(p.initial.is_finite() && p.initial > 0.0) {
                return Err(infeasible("probe.initial", "must be positive"));
            }
            if !(p.step.is_finite() && p.step > 0.0) {
                return Err(infeasible("probe.step", "must be positive"));
            }
            if !(p.max.is_finite() && p.max >= p.initial) {
                return Err(infeasible("probe.max", "must be at least `probe.initial`"));
            }
            if !(p.threshold.is_finite() && p.threshold > 0.0 && p.threshold < 1.0) {
                return Err(infeasible("probe.threshold", "must be in (0, 1)"));
            }
            if let Some(r) = p.reference_rps {
                if !(r.is_finite() && r > 0.0) {
                    return Err(infeasible("probe.reference_rps", "must be positive"));
                }
            }
        }
        let apps = self.app_count();
        for (i, fault) in self.faults.iter().enumerate() {
            let at = |k: &str| format!("fault[{i}].{k}");
            if let Some((key, why)) = fault.kind.invalid_param() {
                return Err(infeasible(&at(key), &why));
            }
            if !fault.starts_within(self.horizon) {
                return Err(infeasible(
                    &at("at_secs"),
                    &format!(
                        "starts at or beyond the {}s horizon, so it would never fire",
                        fmt_secs(self.horizon)
                    ),
                ));
            }
            if let FaultKind::NodeCrash { downtime: Some(d), .. } = fault.kind {
                if d.is_zero() {
                    return Err(infeasible(&at("downtime_secs"), "must be positive"));
                }
            }
            let (node, app, duration) = shared_fields(&fault.kind);
            if let Some(node) = node.filter(|n| n.as_usize() >= self.cluster.nodes) {
                return Err(infeasible(
                    &at("node"),
                    &format!(
                        "node index {} is outside the {}-node cluster",
                        node.as_usize(),
                        self.cluster.nodes
                    ),
                ));
            }
            if let Some(app) = app.filter(|a| a.as_usize() >= apps) {
                return Err(infeasible(
                    &at("app"),
                    &format!("app index {} is outside the scenario's {apps} apps", app.as_usize()),
                ));
            }
            if duration.is_some_and(SimDuration::is_zero) {
                return Err(infeasible(&at("duration_secs"), "must be positive"));
            }
        }
        Ok(())
    }
}

/// The `node`, `app` and `duration_secs` of a fault: the three `[[fault]]`
/// fields more than one kind carries.
fn shared_fields(kind: &FaultKind) -> (Option<NodeId>, Option<AppId>, Option<SimDuration>) {
    match *kind {
        FaultKind::NodeCrash { node, .. } | FaultKind::NodeFlap { node, .. } => {
            (Some(node), None, None)
        }
        FaultKind::ScrapeBlackout { app, duration }
        | FaultKind::MetricNoise { app, duration, .. } => (None, app, Some(duration)),
        FaultKind::ControlStall { duration }
        | FaultKind::ActuationDrop { duration }
        | FaultKind::ActuationDelay { duration, .. }
        | FaultKind::ActuationPartial { duration, .. } => (None, None, Some(duration)),
        FaultKind::ControllerCrash => (None, None, None),
    }
}

fn infeasible(field: &str, detail: &str) -> ScenarioError {
    ScenarioError::Infeasible { field: field.to_string(), detail: detail.to_string() }
}

fn check_plo(field: &str, plo: &PloSpec) -> Result<(), ScenarioError> {
    if plo.target().is_finite() && plo.target() > 0.0 {
        Ok(())
    } else {
        Err(infeasible(field, "PLO target must be positive and finite"))
    }
}

fn check_alloc(field: &str, alloc: &ResourceVec, cap: &ResourceVec) -> Result<(), ScenarioError> {
    if !alloc.is_valid() {
        return Err(infeasible(field, "allocation must be finite and non-negative"));
    }
    if !alloc.fits_within(cap) {
        return Err(ScenarioError::Infeasible {
            field: field.to_string(),
            detail: format!(
                "per-pod allocation {alloc} exceeds node capacity {cap}; no node can ever host it"
            ),
        });
    }
    Ok(())
}

fn check_load(field: &str, load: &LoadSpec) -> Result<(), ScenarioError> {
    let at = |k: &str| format!("{field}.{k}");
    let nonneg = |k: &str, v: f64| -> Result<(), ScenarioError> {
        if v.is_finite() && v >= 0.0 {
            Ok(())
        } else {
            Err(infeasible(&at(k), "must be finite and non-negative"))
        }
    };
    match load {
        LoadSpec::Constant { rate } => nonneg("rate", *rate),
        LoadSpec::Diurnal { base, amplitude, period, phase } => {
            nonneg("base", *base)?;
            if !(amplitude.is_finite() && (0.0..=1.0).contains(amplitude)) {
                return Err(infeasible(&at("amplitude"), "must be in [0, 1]"));
            }
            if period.is_zero() {
                return Err(infeasible(&at("period_secs"), "must be positive"));
            }
            if !phase.is_finite() {
                return Err(infeasible(&at("phase"), "must be finite"));
            }
            Ok(())
        }
        LoadSpec::Ramp { from, to, duration } => {
            nonneg("from", *from)?;
            nonneg("to", *to)?;
            if duration.is_zero() {
                return Err(infeasible(&at("duration_secs"), "must be positive"));
            }
            Ok(())
        }
        LoadSpec::FlashCrowd { base, spike_factor, duration, .. } => {
            nonneg("base", *base)?;
            if !(spike_factor.is_finite() && *spike_factor >= 1.0) {
                return Err(infeasible(&at("spike_factor"), "must be at least 1"));
            }
            if duration.is_zero() {
                return Err(infeasible(&at("duration_secs"), "must be positive"));
            }
            Ok(())
        }
        LoadSpec::Mmpp { low, high, mean_dwell } => {
            nonneg("low", *low)?;
            if !(high.is_finite() && high >= low) {
                return Err(infeasible(&at("high"), "must be at least `low`"));
            }
            if mean_dwell.is_zero() {
                return Err(infeasible(&at("mean_dwell_secs"), "must be positive"));
            }
            Ok(())
        }
        LoadSpec::Trace { points } => {
            if points.is_empty() {
                return Err(infeasible(&at("points"), "trace needs at least one point"));
            }
            for w in points.windows(2) {
                if w[1].0 < w[0].0 {
                    return Err(infeasible(&at("points"), "points must be time-ordered"));
                }
            }
            for (_, r) in points {
                nonneg("points", *r)?;
            }
            Ok(())
        }
    }
}

// ---------------------------------------------------------------------------
// TOML decoding
// ---------------------------------------------------------------------------

/// Tracks which keys of a table have been consumed so leftovers can be
/// reported as [`ScenarioError::UnknownField`].
struct Fields<'a> {
    ctx: String,
    map: BTreeMap<&'a str, (usize, &'a Item)>,
}

impl<'a> Fields<'a> {
    fn new(table: &'a Table, ctx: impl Into<String>) -> Fields<'a> {
        Fields {
            ctx: ctx.into(),
            map: table.entries.iter().map(|(k, (l, i))| (k.as_str(), (*l, i))).collect(),
        }
    }

    fn path(&self, key: &str) -> String {
        format!("{}.{key}", self.ctx)
    }

    fn take(&mut self, key: &str) -> Option<(usize, &'a Item)> {
        self.map.remove(key)
    }

    fn invalid(&self, line: usize, key: &str, detail: impl Into<String>) -> ScenarioError {
        ScenarioError::InvalidValue { line, field: self.path(key), detail: detail.into() }
    }

    fn missing(&self, key: &str) -> ScenarioError {
        ScenarioError::MissingField { table: self.ctx.clone(), field: key.to_string() }
    }

    /// Errors on the first (alphabetically) unconsumed key.
    fn finish(self) -> Result<(), ScenarioError> {
        if let Some((field, (line, _))) = self.map.into_iter().next() {
            return Err(ScenarioError::UnknownField {
                line,
                table: self.ctx,
                field: field.to_string(),
            });
        }
        Ok(())
    }

    fn opt_str(&mut self, key: &str) -> Result<Option<String>, ScenarioError> {
        match self.take(key) {
            None => Ok(None),
            Some((_, Item::Value(Value::Str(s)))) => Ok(Some(s.clone())),
            Some((line, item)) => {
                Err(self.invalid(line, key, format!("expected a string, got {}", item.type_name())))
            }
        }
    }

    fn req_str(&mut self, key: &str) -> Result<String, ScenarioError> {
        self.opt_str(key)?.ok_or_else(|| self.missing(key))
    }

    fn opt_f64(&mut self, key: &str) -> Result<Option<(usize, f64)>, ScenarioError> {
        match self.take(key) {
            None => Ok(None),
            Some((line, Item::Value(v))) => Ok(Some((
                line,
                num(v).ok_or_else(|| {
                    self.invalid(line, key, format!("expected a number, got {}", v.type_name()))
                })?,
            ))),
            Some((line, item)) => {
                Err(self.invalid(line, key, format!("expected a number, got {}", item.type_name())))
            }
        }
    }

    fn req_f64(&mut self, key: &str) -> Result<f64, ScenarioError> {
        Ok(self.opt_f64(key)?.ok_or_else(|| self.missing(key))?.1)
    }

    fn opt_int(&mut self, key: &str, max: u64) -> Result<Option<u64>, ScenarioError> {
        match self.take(key) {
            None => Ok(None),
            Some((line, Item::Value(Value::Int(i)))) => {
                if *i < 0 || u64::try_from(*i).is_ok_and(|u| u > max) {
                    return Err(self.invalid(
                        line,
                        key,
                        format!("expected an integer in 0..={max}"),
                    ));
                }
                Ok(Some(*i as u64))
            }
            Some((line, item)) => Err(self.invalid(
                line,
                key,
                format!("expected an integer, got {}", item.type_name()),
            )),
        }
    }

    fn req_u32(&mut self, key: &str) -> Result<u32, ScenarioError> {
        let v = self.opt_int(key, u64::from(u32::MAX))?.ok_or_else(|| self.missing(key))?;
        Ok(v as u32)
    }

    fn opt_u32(&mut self, key: &str) -> Result<Option<u32>, ScenarioError> {
        Ok(self.opt_int(key, u64::from(u32::MAX))?.map(|v| v as u32))
    }

    fn req_u64(&mut self, key: &str) -> Result<u64, ScenarioError> {
        self.opt_int(key, u64::MAX)?.ok_or_else(|| self.missing(key))
    }

    fn req_usize(&mut self, key: &str) -> Result<usize, ScenarioError> {
        Ok(self
            .opt_int(key, u64::try_from(usize::MAX).unwrap_or(u64::MAX))?
            .ok_or_else(|| self.missing(key))? as usize)
    }

    fn req_node(&mut self, key: &str) -> Result<NodeId, ScenarioError> {
        Ok(NodeId::new(self.req_u32(key)?))
    }

    fn opt_app(&mut self, key: &str) -> Result<Option<AppId>, ScenarioError> {
        Ok(self.opt_u32(key)?.map(AppId::new))
    }

    fn opt_vec4(&mut self, key: &str) -> Result<Option<ResourceVec>, ScenarioError> {
        match self.take(key) {
            None => Ok(None),
            Some((line, Item::Value(Value::Array(items)))) => {
                if items.len() != 4 {
                    return Err(self.invalid(
                        line,
                        key,
                        format!("expected 4 numbers [cpu, mem, disk, net], got {}", items.len()),
                    ));
                }
                let mut out = [0.0; 4];
                for (slot, item) in out.iter_mut().zip(items) {
                    *slot = num(item).ok_or_else(|| {
                        self.invalid(line, key, "expected 4 numbers [cpu, mem, disk, net]")
                    })?;
                }
                Ok(Some(ResourceVec::new(out[0], out[1], out[2], out[3])))
            }
            Some((line, item)) => Err(self.invalid(
                line,
                key,
                format!("expected an array of 4 numbers, got {}", item.type_name()),
            )),
        }
    }

    fn req_vec4(&mut self, key: &str) -> Result<ResourceVec, ScenarioError> {
        self.opt_vec4(key)?.ok_or_else(|| self.missing(key))
    }

    /// Seconds as a duration; emitted/accepted as a float field.
    fn req_secs(&mut self, key: &str) -> Result<SimDuration, ScenarioError> {
        let (line, v) = self.opt_f64(key)?.ok_or_else(|| self.missing(key))?;
        if !(v.is_finite() && v >= 0.0) {
            return Err(self.invalid(line, key, "expected a non-negative number of seconds"));
        }
        Ok(SimDuration::from_secs_f64(v))
    }

    fn opt_secs(&mut self, key: &str) -> Result<Option<SimDuration>, ScenarioError> {
        match self.opt_f64(key)? {
            None => Ok(None),
            Some((line, v)) => {
                if !(v.is_finite() && v >= 0.0) {
                    return Err(self.invalid(
                        line,
                        key,
                        "expected a non-negative number of seconds",
                    ));
                }
                Ok(Some(SimDuration::from_secs_f64(v)))
            }
        }
    }

    fn req_time(&mut self, key: &str) -> Result<SimTime, ScenarioError> {
        Ok(SimTime::ZERO + self.req_secs(key)?)
    }

    fn opt_priority(&mut self, key: &str) -> Result<PriorityClass, ScenarioError> {
        let line = self.map.get(key).map_or(0, |&(line, _)| line);
        match self.opt_str(key)? {
            None => Ok(PriorityClass::default()),
            Some(s) => match s.as_str() {
                "critical" => Ok(PriorityClass::Critical),
                "standard" => Ok(PriorityClass::Standard),
                "preemptible" => Ok(PriorityClass::Preemptible),
                other => Err(self.invalid(
                    line,
                    key,
                    format!(
                        "unknown priority `{other}` (expected critical, standard or preemptible)"
                    ),
                )),
            },
        }
    }

    fn opt_table(&mut self, key: &str) -> Result<Option<&'a Table>, ScenarioError> {
        match self.take(key) {
            None => Ok(None),
            Some((_, Item::Table(t))) => Ok(Some(t)),
            Some((line, item)) => Err(self.invalid(
                line,
                key,
                format!("expected a `[{key}]` table, got {}", item.type_name()),
            )),
        }
    }

    /// A `[[key]]` array of tables; a single `[key]` table counts as one
    /// element.
    fn opt_tables(&mut self, key: &str) -> Result<Vec<&'a Table>, ScenarioError> {
        match self.take(key) {
            None => Ok(Vec::new()),
            Some((_, Item::TableArray(v))) => Ok(v.iter().collect()),
            Some((_, Item::Table(t))) => Ok(vec![t]),
            Some((line, item)) => Err(self.invalid(
                line,
                key,
                format!("expected `[[{key}]]` tables, got {}", item.type_name()),
            )),
        }
    }
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

/// Exactly one of the four PLO fields must be present.
fn decode_plo(f: &mut Fields<'_>) -> Result<PloSpec, ScenarioError> {
    let mut found: Vec<(usize, &'static str, PloSpec)> = Vec::new();
    if let Some((line, v)) = f.opt_f64("plo_p99_ms")? {
        found.push((line, "plo_p99_ms", PloSpec::LatencyP99 { target_ms: v }));
    }
    if let Some((line, v)) = f.opt_f64("plo_mean_ms")? {
        found.push((line, "plo_mean_ms", PloSpec::LatencyMean { target_ms: v }));
    }
    if let Some((line, v)) = f.opt_f64("plo_throughput_rps")? {
        found.push((line, "plo_throughput_rps", PloSpec::Throughput { target_rps: v }));
    }
    if let Some((line, v)) = f.opt_f64("plo_deadline_secs")? {
        if !(v.is_finite() && v > 0.0) {
            return Err(f.invalid(line, "plo_deadline_secs", "expected a positive number"));
        }
        found.push((
            line,
            "plo_deadline_secs",
            PloSpec::Deadline { deadline: SimDuration::from_secs_f64(v) },
        ));
    }
    match found.len() {
        0 => Err(f.missing("plo_p99_ms | plo_mean_ms | plo_throughput_rps | plo_deadline_secs")),
        1 => Ok(found.remove(0).2),
        _ => {
            let (line, key, _) = found[1];
            Err(f.invalid(line, key, "more than one PLO field; specify exactly one"))
        }
    }
}

fn decode_load(table: &Table, ctx: String) -> Result<LoadSpec, ScenarioError> {
    let mut f = Fields::new(table, ctx);
    let kind = f.req_str("kind")?;
    let load = match kind.as_str() {
        "constant" => LoadSpec::Constant { rate: f.req_f64("rate")? },
        "diurnal" => LoadSpec::Diurnal {
            base: f.req_f64("base")?,
            amplitude: f.req_f64("amplitude")?,
            period: f.req_secs("period_secs")?,
            phase: f.req_f64("phase")?,
        },
        "ramp" => LoadSpec::Ramp {
            from: f.req_f64("from")?,
            to: f.req_f64("to")?,
            duration: f.req_secs("duration_secs")?,
        },
        "flash_crowd" => LoadSpec::FlashCrowd {
            base: f.req_f64("base")?,
            spike_factor: f.req_f64("spike_factor")?,
            start: f.req_time("start_secs")?,
            duration: f.req_secs("duration_secs")?,
        },
        "mmpp" => LoadSpec::Mmpp {
            low: f.req_f64("low")?,
            high: f.req_f64("high")?,
            mean_dwell: f.req_secs("mean_dwell_secs")?,
        },
        "trace" => {
            let Some((line, item)) = f.take("points") else {
                return Err(f.missing("points"));
            };
            let Item::Value(Value::Array(raw)) = item else {
                return Err(f.invalid(line, "points", "expected an array of [secs, rate] pairs"));
            };
            let mut points = Vec::with_capacity(raw.len());
            for p in raw {
                let Value::Array(pair) = p else {
                    return Err(f.invalid(line, "points", "expected [secs, rate] pairs"));
                };
                let (Some(t), Some(r)) = (pair.first().and_then(num), pair.get(1).and_then(num))
                else {
                    return Err(f.invalid(line, "points", "expected [secs, rate] pairs"));
                };
                if pair.len() != 2 || !(t.is_finite() && t >= 0.0) {
                    return Err(f.invalid(line, "points", "expected [secs, rate] pairs"));
                }
                points.push((SimTime::ZERO + SimDuration::from_secs_f64(t), r));
            }
            LoadSpec::Trace { points }
        }
        other => {
            return Err(ScenarioError::InvalidValue {
                line: table.line,
                field: f.path("kind"),
                detail: format!(
                    "unknown load kind `{other}` (expected constant, diurnal, ramp, \
                     flash_crowd, mmpp or trace)"
                ),
            });
        }
    };
    f.finish()?;
    Ok(load)
}

fn decode_service(table: &Table, idx: usize) -> Result<ServiceEntry, ScenarioError> {
    let ctx = format!("service[{idx}]");
    let mut f = Fields::new(table, ctx.clone());
    let entry = ServiceEntry {
        name: f.req_str("name")?,
        class: f.req_str("class")?,
        demand: f.req_vec4("demand")?,
        demand_cv: f.req_f64("demand_cv")?,
        timeout: f.req_secs("timeout_secs")?,
        plo: decode_plo(&mut f)?,
        alloc: f.req_vec4("alloc")?,
        replicas: f.opt_u32("replicas")?.unwrap_or(1),
        base_memory_mib: f.opt_f64("base_memory_mib")?.map_or(64.0, |(_, v)| v),
        priority: f.opt_priority("priority")?,
        load: {
            let t = f.opt_table("load")?.ok_or_else(|| f.missing("load"))?;
            decode_load(t, format!("{ctx}.load"))?
        },
    };
    f.finish()?;
    Ok(entry)
}

fn decode_batch(table: &Table, idx: usize) -> Result<BatchEntry, ScenarioError> {
    let ctx = format!("batch[{idx}]");
    let mut f = Fields::new(table, ctx.clone());
    let stages = f
        .opt_tables("stage")?
        .into_iter()
        .enumerate()
        .map(|(k, t)| {
            let mut sf = Fields::new(t, format!("{ctx}.stage[{k}]"));
            let stage = StageEntry {
                tasks: sf.req_u32("tasks")?,
                work: sf.req_vec4("work")?,
                records: sf.req_u64("records")?,
            };
            sf.finish()?;
            Ok(stage)
        })
        .collect::<Result<Vec<_>, ScenarioError>>()?;
    if stages.is_empty() {
        return Err(f.missing("stage"));
    }
    let entry = BatchEntry {
        name: f.req_str("name")?,
        submit_at: f.req_time("submit_secs")?,
        stages,
        plo: decode_plo(&mut f)?,
        task_alloc: f.req_vec4("task_alloc")?,
        max_parallel: f.req_u32("max_parallel")?,
        priority: f.opt_priority("priority")?,
    };
    f.finish()?;
    Ok(entry)
}

fn decode_hpc(table: &Table, idx: usize) -> Result<HpcEntry, ScenarioError> {
    let mut f = Fields::new(table, format!("hpc[{idx}]"));
    let entry = HpcEntry {
        name: f.req_str("name")?,
        submit_at: f.req_time("submit_secs")?,
        gang: f.req_u32("gang")?,
        iterations: f.req_u32("iterations")?,
        work: f.req_vec4("work")?,
        rank_alloc: f.req_vec4("rank_alloc")?,
        deadline: f.req_secs("deadline_secs")?,
        priority: f.opt_priority("priority")?,
    };
    f.finish()?;
    Ok(entry)
}

fn decode_fault(table: &Table, idx: usize) -> Result<FaultEvent, ScenarioError> {
    let ctx = format!("fault[{idx}]");
    let mut f = Fields::new(table, ctx.clone());
    let kind = f.req_str("kind")?;
    let at = f.req_time("at_secs")?;
    let kind = match kind.as_str() {
        "node_crash" => FaultKind::NodeCrash {
            node: f.req_node("node")?,
            downtime: f.opt_secs("downtime_secs")?,
        },
        "scrape_blackout" => FaultKind::ScrapeBlackout {
            app: f.opt_app("app")?,
            duration: f.req_secs("duration_secs")?,
        },
        "metric_noise" => FaultKind::MetricNoise {
            app: f.opt_app("app")?,
            duration: f.req_secs("duration_secs")?,
            cv: f.req_f64("cv")?,
        },
        "control_stall" => FaultKind::ControlStall { duration: f.req_secs("duration_secs")? },
        "controller_crash" => FaultKind::ControllerCrash,
        "actuation_drop" => FaultKind::ActuationDrop { duration: f.req_secs("duration_secs")? },
        "actuation_delay" => FaultKind::ActuationDelay {
            duration: f.req_secs("duration_secs")?,
            lag: f.req_secs("lag_secs")?,
        },
        "actuation_partial" => FaultKind::ActuationPartial {
            duration: f.req_secs("duration_secs")?,
            fraction: f.req_f64("fraction")?,
        },
        "node_flap" => FaultKind::NodeFlap {
            node: f.req_node("node")?,
            cycles: f.req_u32("cycles")?,
            period: f.req_secs("period_secs")?,
        },
        other => {
            return Err(ScenarioError::InvalidValue {
                line: table.line,
                field: format!("{ctx}.kind"),
                detail: format!(
                    "unknown fault kind `{other}` (expected node_crash, scrape_blackout, \
                     metric_noise, control_stall, controller_crash, actuation_drop, \
                     actuation_delay, actuation_partial or node_flap)"
                ),
            });
        }
    };
    f.finish()?;
    // The out-of-range check again, here, because only here is the line known.
    if let Some((key, why)) = kind.invalid_param() {
        let line = table.entries.get(key).map_or(table.line, |&(line, _)| line);
        return Err(ScenarioError::InvalidValue {
            line,
            field: format!("{ctx}.{key}"),
            detail: why,
        });
    }
    Ok(FaultEvent { at, kind })
}

fn decode_root(root: &Table) -> Result<ScenarioSpec, ScenarioError> {
    let mut f = Fields::new(root, "scenario");
    let cluster = match f.opt_table("cluster")? {
        None => ClusterSpec { nodes: 20, node_capacity: None },
        Some(t) => {
            let mut cf = Fields::new(t, "cluster");
            let cluster = ClusterSpec {
                nodes: cf.req_usize("nodes")?,
                node_capacity: cf.opt_vec4("node_capacity")?,
            };
            cf.finish()?;
            cluster
        }
    };
    let arbiter = match f.opt_table("arbiter")? {
        None => None,
        Some(t) => {
            let mut af = Fields::new(t, "arbiter");
            let d = ArbiterSpec::default();
            let spec = ArbiterSpec {
                headroom_fraction: af
                    .opt_f64("headroom_fraction")?
                    .map_or(d.headroom_fraction, |(_, v)| v),
                floor_fraction: af.opt_f64("floor_fraction")?.map_or(d.floor_fraction, |(_, v)| v),
                hysteresis: af.opt_f64("hysteresis")?.map_or(d.hysteresis, |(_, v)| v),
                max_recovery_step: af
                    .opt_f64("max_recovery_step")?
                    .map_or(d.max_recovery_step, |(_, v)| v),
                demand_cap_ratio: af
                    .opt_f64("demand_cap_ratio")?
                    .map_or(d.demand_cap_ratio, |(_, v)| v),
            };
            af.finish()?;
            Some(spec)
        }
    };
    let probe = match f.opt_table("probe")? {
        None => None,
        Some(t) => {
            let mut pf = Fields::new(t, "probe");
            let spec = ProbeSpec {
                initial: pf.req_f64("initial")?,
                step: pf.req_f64("step")?,
                max: pf.req_f64("max")?,
                threshold: pf.opt_f64("threshold")?.map_or(0.10, |(_, v)| v),
                reference_rps: pf.opt_f64("reference_rps")?.map(|(_, v)| v),
            };
            pf.finish()?;
            Some(spec)
        }
    };
    let repro = match f.opt_table("repro")? {
        None => None,
        Some(t) => {
            let mut rf = Fields::new(t, "repro");
            let spec = ReproSpec { seed: rf.req_u64("seed")?, violation: rf.req_str("violation")? };
            rf.finish()?;
            Some(spec)
        }
    };
    let services = f
        .opt_tables("service")?
        .into_iter()
        .enumerate()
        .map(|(i, t)| decode_service(t, i))
        .collect::<Result<Vec<_>, _>>()?;
    let batch_jobs = f
        .opt_tables("batch")?
        .into_iter()
        .enumerate()
        .map(|(i, t)| decode_batch(t, i))
        .collect::<Result<Vec<_>, _>>()?;
    let hpc_jobs = f
        .opt_tables("hpc")?
        .into_iter()
        .enumerate()
        .map(|(i, t)| decode_hpc(t, i))
        .collect::<Result<Vec<_>, _>>()?;
    let faults = f
        .opt_tables("fault")?
        .into_iter()
        .enumerate()
        .map(|(i, t)| decode_fault(t, i))
        .collect::<Result<Vec<_>, _>>()?;
    let spec = ScenarioSpec {
        name: f.req_str("name")?,
        description: f.opt_str("description")?.unwrap_or_default(),
        horizon: f.req_secs("horizon_secs")?,
        cluster,
        services,
        batch_jobs,
        hpc_jobs,
        arbiter,
        faults,
        probe,
        repro,
    };
    f.finish()?;
    Ok(spec)
}

// ---------------------------------------------------------------------------
// TOML emission
// ---------------------------------------------------------------------------

/// Shortest round-trip float formatting (`200` emits as `200.0`), so an
/// emitted file parses back to bit-identical values.
fn fmt_f64(v: f64) -> String {
    format!("{v:?}")
}

fn fmt_secs(d: SimDuration) -> String {
    fmt_f64(d.as_secs_f64())
}

fn fmt_vec4(v: &ResourceVec) -> String {
    let a = v.as_array();
    format!("[{}, {}, {}, {}]", fmt_f64(a[0]), fmt_f64(a[1]), fmt_f64(a[2]), fmt_f64(a[3]))
}

fn fmt_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn emit_plo(out: &mut String, plo: &PloSpec) {
    let line = match plo {
        PloSpec::LatencyP99 { target_ms } => format!("plo_p99_ms = {}", fmt_f64(*target_ms)),
        PloSpec::LatencyMean { target_ms } => format!("plo_mean_ms = {}", fmt_f64(*target_ms)),
        PloSpec::Throughput { target_rps } => {
            format!("plo_throughput_rps = {}", fmt_f64(*target_rps))
        }
        PloSpec::Deadline { deadline } => format!("plo_deadline_secs = {}", fmt_secs(*deadline)),
    };
    let _ = writeln!(out, "{line}");
}

fn emit_priority(out: &mut String, priority: PriorityClass) {
    if priority != PriorityClass::Standard {
        let _ = writeln!(out, "priority = {}", fmt_str(priority.as_str()));
    }
}

fn emit_load(out: &mut String, load: &LoadSpec) {
    let _ = writeln!(out, "\n[service.load]");
    match load {
        LoadSpec::Constant { rate } => {
            let _ = writeln!(out, "kind = \"constant\"\nrate = {}", fmt_f64(*rate));
        }
        LoadSpec::Diurnal { base, amplitude, period, phase } => {
            let _ = writeln!(
                out,
                "kind = \"diurnal\"\nbase = {}\namplitude = {}\nperiod_secs = {}\nphase = {}",
                fmt_f64(*base),
                fmt_f64(*amplitude),
                fmt_secs(*period),
                fmt_f64(*phase)
            );
        }
        LoadSpec::Ramp { from, to, duration } => {
            let _ = writeln!(
                out,
                "kind = \"ramp\"\nfrom = {}\nto = {}\nduration_secs = {}",
                fmt_f64(*from),
                fmt_f64(*to),
                fmt_secs(*duration)
            );
        }
        LoadSpec::FlashCrowd { base, spike_factor, start, duration } => {
            let _ = writeln!(
                out,
                "kind = \"flash_crowd\"\nbase = {}\nspike_factor = {}\nstart_secs = {}\n\
                 duration_secs = {}",
                fmt_f64(*base),
                fmt_f64(*spike_factor),
                fmt_f64(start.as_secs_f64()),
                fmt_secs(*duration)
            );
        }
        LoadSpec::Mmpp { low, high, mean_dwell } => {
            let _ = writeln!(
                out,
                "kind = \"mmpp\"\nlow = {}\nhigh = {}\nmean_dwell_secs = {}",
                fmt_f64(*low),
                fmt_f64(*high),
                fmt_secs(*mean_dwell)
            );
        }
        LoadSpec::Trace { points } => {
            let pts: Vec<String> = points
                .iter()
                .map(|(t, r)| format!("[{}, {}]", fmt_f64(t.as_secs_f64()), fmt_f64(*r)))
                .collect();
            let _ = writeln!(out, "kind = \"trace\"\npoints = [{}]", pts.join(", "));
        }
    }
}

impl ScenarioSpec {
    /// Serializes the spec as canonical TOML: the exact format
    /// [`ScenarioSpec::from_toml_str`] parses back to an equal spec, and
    /// the format of the checked-in `scenarios/*.toml` files.
    #[must_use]
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        let w = &mut out;
        let _ = writeln!(
            w,
            "# EVOLVE declarative scenario (schema: EXPERIMENTS.md \u{a7} Authoring scenarios)."
        );
        let _ = writeln!(w, "name = {}", fmt_str(&self.name));
        let _ = writeln!(w, "description = {}", fmt_str(&self.description));
        let _ = writeln!(w, "horizon_secs = {}", fmt_secs(self.horizon));
        let _ = writeln!(w, "\n[cluster]\nnodes = {}", self.cluster.nodes);
        if let Some(nc) = &self.cluster.node_capacity {
            let _ = writeln!(w, "node_capacity = {}", fmt_vec4(nc));
        }
        if let Some(a) = &self.arbiter {
            let _ = writeln!(
                w,
                "\n[arbiter]\nheadroom_fraction = {}\nfloor_fraction = {}\nhysteresis = {}\n\
                 max_recovery_step = {}\ndemand_cap_ratio = {}",
                fmt_f64(a.headroom_fraction),
                fmt_f64(a.floor_fraction),
                fmt_f64(a.hysteresis),
                fmt_f64(a.max_recovery_step),
                fmt_f64(a.demand_cap_ratio)
            );
        }
        if let Some(p) = &self.probe {
            let _ = writeln!(
                w,
                "\n[probe]\ninitial = {}\nstep = {}\nmax = {}\nthreshold = {}",
                fmt_f64(p.initial),
                fmt_f64(p.step),
                fmt_f64(p.max),
                fmt_f64(p.threshold)
            );
            if let Some(r) = p.reference_rps {
                let _ = writeln!(w, "reference_rps = {}", fmt_f64(r));
            }
        }
        if let Some(r) = &self.repro {
            let _ =
                writeln!(w, "\n[repro]\nseed = {}\nviolation = {}", r.seed, fmt_str(&r.violation));
        }
        for s in &self.services {
            let _ = writeln!(w, "\n[[service]]");
            let _ = writeln!(w, "name = {}", fmt_str(&s.name));
            let _ = writeln!(w, "class = {}", fmt_str(&s.class));
            let _ = writeln!(w, "demand = {}", fmt_vec4(&s.demand));
            let _ = writeln!(w, "demand_cv = {}", fmt_f64(s.demand_cv));
            let _ = writeln!(w, "timeout_secs = {}", fmt_secs(s.timeout));
            emit_plo(w, &s.plo);
            let _ = writeln!(w, "alloc = {}", fmt_vec4(&s.alloc));
            let _ = writeln!(w, "replicas = {}", s.replicas);
            if s.base_memory_mib != 64.0 {
                let _ = writeln!(w, "base_memory_mib = {}", fmt_f64(s.base_memory_mib));
            }
            emit_priority(w, s.priority);
            emit_load(w, &s.load);
        }
        for b in &self.batch_jobs {
            let _ = writeln!(w, "\n[[batch]]");
            let _ = writeln!(w, "name = {}", fmt_str(&b.name));
            let _ = writeln!(w, "submit_secs = {}", fmt_f64(b.submit_at.as_secs_f64()));
            emit_plo(w, &b.plo);
            let _ = writeln!(w, "task_alloc = {}", fmt_vec4(&b.task_alloc));
            let _ = writeln!(w, "max_parallel = {}", b.max_parallel);
            emit_priority(w, b.priority);
            for st in &b.stages {
                let _ = writeln!(w, "\n[[batch.stage]]");
                let _ = writeln!(w, "tasks = {}", st.tasks);
                let _ = writeln!(w, "work = {}", fmt_vec4(&st.work));
                let _ = writeln!(w, "records = {}", st.records);
            }
        }
        for h in &self.hpc_jobs {
            let _ = writeln!(w, "\n[[hpc]]");
            let _ = writeln!(w, "name = {}", fmt_str(&h.name));
            let _ = writeln!(w, "submit_secs = {}", fmt_f64(h.submit_at.as_secs_f64()));
            let _ = writeln!(w, "gang = {}", h.gang);
            let _ = writeln!(w, "iterations = {}", h.iterations);
            let _ = writeln!(w, "work = {}", fmt_vec4(&h.work));
            let _ = writeln!(w, "rank_alloc = {}", fmt_vec4(&h.rank_alloc));
            let _ = writeln!(w, "deadline_secs = {}", fmt_secs(h.deadline));
            emit_priority(w, h.priority);
        }
        for fault in &self.faults {
            let _ = writeln!(w, "\n[[fault]]\nkind = {}", fmt_str(fault.kind.label()));
            let _ = writeln!(w, "at_secs = {}", fmt_f64(fault.at.as_secs_f64()));
            let (node, app, duration) = shared_fields(&fault.kind);
            if let Some(node) = node {
                let _ = writeln!(w, "node = {}", node.as_usize());
            }
            if let Some(app) = app {
                let _ = writeln!(w, "app = {}", app.as_usize());
            }
            if let Some(d) = duration {
                let _ = writeln!(w, "duration_secs = {}", fmt_secs(d));
            }
            match fault.kind {
                FaultKind::NodeCrash { downtime: Some(d), .. } => {
                    let _ = writeln!(w, "downtime_secs = {}", fmt_secs(d));
                }
                FaultKind::MetricNoise { cv, .. } => {
                    let _ = writeln!(w, "cv = {}", fmt_f64(cv));
                }
                FaultKind::ActuationDelay { lag, .. } => {
                    let _ = writeln!(w, "lag_secs = {}", fmt_secs(lag));
                }
                FaultKind::ActuationPartial { fraction, .. } => {
                    let _ = writeln!(w, "fraction = {}", fmt_f64(fraction));
                }
                FaultKind::NodeFlap { cycles, period, .. } => {
                    let _ = writeln!(w, "cycles = {cycles}\nperiod_secs = {}", fmt_secs(period));
                }
                FaultKind::NodeCrash { downtime: None, .. }
                | FaultKind::ScrapeBlackout { .. }
                | FaultKind::ControlStall { .. }
                | FaultKind::ControllerCrash
                | FaultKind::ActuationDrop { .. } => {}
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_covers_all_names() {
        for (name, _) in BUILTINS {
            let spec = ScenarioSpec::builtin(name).unwrap();
            spec.validate().unwrap();
            assert!(!spec.build().mix.is_empty(), "{name} builds empty");
        }
        assert!(matches!(
            ScenarioSpec::builtin("nope"),
            Err(ScenarioError::UnknownScenario { .. })
        ));
    }

    #[test]
    fn overload_spec_carries_arbiter_and_probe() {
        let spec = ScenarioSpec::builtin("overload").unwrap();
        assert!(spec.arbiter.is_some());
        assert!(spec.probe.is_some());
        assert!((spec.offered_rps() - 440.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_loads_multiplies_service_rates_only() {
        let base = ScenarioSpec::builtin("overload").unwrap();
        let scaled = base.scaled_loads(1.5);
        assert!((scaled.offered_rps() - 660.0).abs() < 1e-9);
        assert_eq!(scaled.name, base.name);
        assert_eq!(scaled.batch_jobs, base.batch_jobs);
    }

    #[test]
    fn round_trip_preserves_spec_equality() {
        for (name, _) in BUILTINS {
            let spec = ScenarioSpec::builtin(name).unwrap();
            let parsed = ScenarioSpec::from_toml_str(&spec.to_toml())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(parsed, spec, "{name} does not round-trip");
        }
    }

    #[test]
    fn error_display_is_informative() {
        let errs = [
            ScenarioError::Io { path: "x.toml".into(), detail: "gone".into() },
            ScenarioError::Syntax { line: 3, detail: "bad".into() },
            ScenarioError::UnknownField {
                line: 4,
                table: "service[0]".into(),
                field: "bogus".into(),
            },
            ScenarioError::MissingField { table: "scenario".into(), field: "name".into() },
            ScenarioError::InvalidValue {
                line: 5,
                field: "cluster.nodes".into(),
                detail: "no".into(),
            },
            ScenarioError::Infeasible { field: "service[0].demand".into(), detail: "zero".into() },
            ScenarioError::UnknownScenario { name: "ghost".into() },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
