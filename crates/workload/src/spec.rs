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
//! The schema is written once: each record lists its keys in one field
//! list, and reading ([`ScenarioSpec::from_toml_str`]), writing
//! ([`ScenarioSpec::to_toml`]) and checking ([`ScenarioSpec::validate`])
//! all walk those lists. Parsing never panics: structural problems surface
//! as typed [`ScenarioError`]s with line context, semantic problems (zero
//! demand vectors, allocations no node can host, out-of-range fault
//! targets) as [`ScenarioError::Infeasible`] with a field path.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::mem::discriminant;
use std::path::Path;

use evolve_types::{
    AppId, ArbiterConfig, NodeId, PriorityClass, ResourceVec, SimDuration, SimTime,
};

use crate::apps::PloSpec;
use crate::faults::{FaultEvent, FaultKind};
use crate::scenario::{LoadSpec, Scenario, WorkloadMix};
use crate::toml_mini::{self, Item, Table, Value};
use Absent::{Omitted, Reads, Required};

/// The reference node capacity a spec is validated against when
/// `[cluster] node_capacity` is not set, and the simulator's default
/// node shape: a 16-core / 64 GiB / 500 MB/s disk / 1250 MB/s (10 GbE) node.
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
    pub arbiter: Option<ArbiterConfig>,
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
        let mut spec = ScenarioSpec::BLANK;
        Reader::read(&root, "scenario".into(), String::new(), &mut spec)?;
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

    /// Builds the runnable [`Scenario`] this spec describes: its service,
    /// batch and HPC entries are the workload, as they stand. The
    /// cluster/arbiter/fault/probe sections are applied by the run
    /// configuration (`RunConfig::from_spec` in `evolve-core`), not here.
    ///
    /// # Panics
    ///
    /// Panics with the [`ScenarioError`] of [`ScenarioSpec::validate`] when
    /// the spec breaks a rule, so a spec built in code is held to the same
    /// rules as a file.
    #[must_use]
    pub fn build(&self) -> Scenario {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
        Scenario {
            name: self.name.clone(),
            description: self.description.clone(),
            mix: WorkloadMix {
                services: self.services.clone(),
                batch_jobs: self.batch_jobs.clone(),
                hpc_jobs: self.hpc_jobs.clone(),
            },
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

    /// Checks the semantic invariants [`ScenarioSpec::build`] and the
    /// engine rely on: the rule of every key in its record's field list,
    /// then that no two services share a name and that the spec declares
    /// something to run.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Infeasible`] with the offending field path.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let bounds = Bounds {
            cap: self.node_capacity(),
            nodes: self.cluster.nodes,
            apps: self.app_count(),
            horizon: self.horizon,
        };
        ScenarioSpec::walk(&mut Checker { at: String::new(), bounds }, &mut self.clone())?;
        let mut names = std::collections::BTreeSet::new();
        for (i, service) in self.services.iter().enumerate() {
            if !names.insert(service.name.as_str()) {
                let detail = format!("`{}` already names an earlier service", service.name);
                return Err(ScenarioError::Infeasible {
                    field: format!("service[{i}].name"),
                    detail,
                });
            }
        }
        if self.app_count() == 0 {
            let detail = "declares no services, batch jobs or HPC jobs".into();
            return Err(ScenarioError::Infeasible { field: "scenario".into(), detail });
        }
        Ok(())
    }

    /// Serializes the spec as canonical TOML: the exact format
    /// [`ScenarioSpec::from_toml_str`] parses back to an equal spec, and
    /// the format of the checked-in `scenarios/*.toml` files.
    #[must_use]
    pub fn to_toml(&self) -> String {
        let mut writer = Writer { out: HEADER.into(), header: String::new() };
        let _ = ScenarioSpec::walk(&mut writer, &mut self.clone());
        writer.out
    }
}

const HEADER: &str =
    "# EVOLVE declarative scenario (schema: EXPERIMENTS.md \u{a7} Authoring scenarios).\n";

// ---------------------------------------------------------------------------
// The schema, written once
// ---------------------------------------------------------------------------
//
// Every record lists its keys once, in emission order, in its
// `Record::walk`: each key's type (the field's), what an absent key reads
// as and the rule its value keeps. Three `Schema`s walk the lists: the
// reader fills a record in, the writer prints it and the checker asks
// each rule of it.

type Key = &'static str;
type Res = Result<(), ScenarioError>;

/// A PLO key and the objective its target makes (`None`: none can).
type PloKey = (Key, fn(f64) -> Option<PloSpec>);

/// What walks the field lists.
trait Schema: Sized {
    /// A key holding one value.
    fn key<T: Scalar>(&mut self, key: Key, v: &mut T, absent: Absent<T>, rule: Rule) -> Res;

    /// The variant of a tagged record, named at `key`: one of `kinds`,
    /// each a blank the reader fills in.
    fn kind<T: Clone>(&mut self, _key: Key, _v: &mut T, _kinds: &[(Key, T)]) -> Res {
        Ok(())
    }

    /// An objective: exactly one of `keys`. `name` is its path in checks.
    fn plo(&mut self, name: Key, v: &mut PloSpec, keys: &[PloKey]) -> Res;

    /// A `[key]` sub-table.
    fn table<T: Record>(&mut self, key: Key, v: &mut T, absent: Absent<T>) -> Res;

    /// At least `min` `[[key]]` tables.
    fn tables<T: Record>(&mut self, key: Key, v: &mut Vec<T>, min: usize) -> Res;

    /// A rule across keys of one record, blamed on `key`: only the
    /// checker asks it.
    fn rule(&mut self, _key: Key, _holds: bool, _detail: &'static str) -> Res {
        Ok(())
    }

    /// A rule the record's own type states (`FaultKind::invalid_param`):
    /// the key it blames and why. The reader reports it with the line,
    /// the checker for specs built in code.
    fn param(&mut self, _broken: Option<(Key, String)>) -> Res {
        Ok(())
    }
}

/// A TOML table's worth of keys.
trait Record: Clone + PartialEq {
    /// What the reader starts from before filling the keys in.
    const BLANK: Self;
    /// The field list.
    fn walk<S: Schema>(s: &mut S, r: &mut Self) -> Res;
}

/// An optional table: `Omitted(None)` when absent.
impl<T: Record> Record for Option<T> {
    const BLANK: Self = None;
    fn walk<S: Schema>(s: &mut S, r: &mut Self) -> Res {
        T::walk(s, r.get_or_insert(T::BLANK))
    }
}

/// Whether `v` is absent: at the default the writer leaves out.
fn omitted<T: PartialEq>(absent: &Absent<T>, v: &T) -> bool {
    matches!(absent, Omitted(default) if default == v)
}

/// What an absent key reads as.
enum Absent<T> {
    /// Nothing: the key is required.
    Required,
    /// This value; the writer still writes the key.
    Reads(T),
    /// This value, at which the writer leaves the key out.
    Omitted(T),
}

/// What a value must keep beyond its type. The checker asks it; a break
/// is [`ScenarioError::Infeasible`] at the key's path.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rule {
    /// Nothing.
    Any,
    /// Finite and above zero: a non-empty string, a count of at least
    /// one, a non-zero duration, a non-negative vector that is not zero.
    Positive,
    /// Finite and not negative: a vector's every component, a trace's
    /// every rate (and it has one).
    NonNeg,
    /// Finite.
    Finite,
    /// Finite and at least 1.
    AtLeastOne,
    /// In `[0, 1)`.
    Fraction,
    /// In `[0, 1]`.
    Unit,
    /// In `(0, 1)`.
    OpenUnit,
    /// Inside the spec: an allocation a node can host, a node of the
    /// cluster, an app of the scenario, a time before the horizon.
    Fits,
}

impl Rule {
    /// Whether a number keeps the rule; one that needs the spec's bounds
    /// ([`Rule::Fits`]) does not apply to a bare number.
    fn admits(self, x: f64) -> bool {
        let inside = match self {
            Rule::Any | Rule::Fits => return true,
            Rule::Positive => x > 0.0,
            Rule::NonNeg => x >= 0.0,
            Rule::Finite => true,
            Rule::AtLeastOne => x >= 1.0,
            Rule::Fraction => (0.0..1.0).contains(&x),
            Rule::Unit => (0.0..=1.0).contains(&x),
            Rule::OpenUnit => x > 0.0 && x < 1.0,
        };
        x.is_finite() && inside
    }

    fn detail(self) -> &'static str {
        match self {
            Rule::Any => "",
            Rule::Positive => "must be positive: non-empty, non-zero and finite",
            Rule::NonNeg => "must be finite and non-negative",
            Rule::Finite => "must be finite",
            Rule::AtLeastOne => "must be at least 1",
            Rule::Fraction => "must be a fraction in [0, 1)",
            Rule::Unit => "must be in [0, 1]",
            Rule::OpenUnit => "must be in (0, 1)",
            Rule::Fits => "names an allocation, node, app or time outside the scenario",
        }
    }
}

/// The whole-spec bounds [`Rule::Fits`] compares against.
struct Bounds {
    cap: ResourceVec,
    nodes: usize,
    apps: usize,
    horizon: SimDuration,
}

/// A value one key holds.
trait Scalar: Sized + PartialEq {
    /// The value of a TOML item, or what was expected instead.
    fn read(item: &Item) -> Result<Self, String>;
    /// The value as canonical TOML.
    fn write(&self) -> String;
    /// Whether the value keeps `rule`.
    fn holds(&self, rule: Rule, bounds: &Bounds) -> bool;
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    }
}

impl Scalar for f64 {
    fn read(item: &Item) -> Result<Self, String> {
        let number = if let Item::Value(v) = item { num(v) } else { None };
        number.ok_or_else(|| format!("expected a number, got {}", item.type_name()))
    }
    /// Shortest round-trip formatting (`200` is `200.0`), so a written
    /// file reads back to bit-identical values.
    fn write(&self) -> String {
        format!("{self:?}")
    }
    fn holds(&self, rule: Rule, _: &Bounds) -> bool {
        rule.admits(*self)
    }
}

impl Scalar for String {
    fn read(item: &Item) -> Result<Self, String> {
        match item {
            Item::Value(Value::Str(s)) => Ok(s.clone()),
            _ => Err(format!("expected a string, got {}", item.type_name())),
        }
    }
    fn write(&self) -> String {
        let mut out = String::from('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c => out.push(c),
            }
        }
        out + "\""
    }
    fn holds(&self, rule: Rule, _: &Bounds) -> bool {
        rule.admits(self.len() as f64)
    }
}

/// The unsigned integers a key holds.
trait Int: Copy + PartialEq + ToString + TryFrom<u64> + TryInto<u64> {}
impl Int for u32 {}
impl Int for u64 {}
impl Int for usize {}

impl<T: Int> Scalar for T {
    fn read(item: &Item) -> Result<Self, String> {
        let Item::Value(Value::Int(i)) = item else {
            return Err(format!("expected an integer, got {}", item.type_name()));
        };
        let fits = u64::try_from(*i).ok().and_then(|u| T::try_from(u).ok());
        fits.ok_or_else(|| format!("expected a non-negative integer in range, got {i}"))
    }
    fn write(&self) -> String {
        self.to_string()
    }
    fn holds(&self, rule: Rule, _: &Bounds) -> bool {
        (*self).try_into().is_ok_and(|u: u64| rule.admits(u as f64))
    }
}

/// A node index; it fits when the cluster has the node.
impl Scalar for NodeId {
    fn read(item: &Item) -> Result<Self, String> {
        u32::read(item).map(NodeId::new)
    }
    fn write(&self) -> String {
        self.as_usize().to_string()
    }
    fn holds(&self, rule: Rule, bounds: &Bounds) -> bool {
        rule != Rule::Fits || self.as_usize() < bounds.nodes
    }
}

/// An app index; it fits when the scenario declares the app.
impl Scalar for AppId {
    fn read(item: &Item) -> Result<Self, String> {
        u32::read(item).map(AppId::new)
    }
    fn write(&self) -> String {
        self.as_usize().to_string()
    }
    fn holds(&self, rule: Rule, bounds: &Bounds) -> bool {
        rule != Rule::Fits || self.as_usize() < bounds.apps
    }
}

/// Seconds.
impl Scalar for SimDuration {
    fn read(item: &Item) -> Result<Self, String> {
        match f64::read(item)? {
            secs if secs.is_finite() && secs >= 0.0 => Ok(SimDuration::from_secs_f64(secs)),
            _ => Err("expected a non-negative number of seconds".into()),
        }
    }
    fn write(&self) -> String {
        self.as_secs_f64().write()
    }
    fn holds(&self, rule: Rule, _: &Bounds) -> bool {
        rule.admits(self.as_secs_f64())
    }
}

/// Seconds from the start of the run; it fits before the horizon.
impl Scalar for SimTime {
    fn read(item: &Item) -> Result<Self, String> {
        SimDuration::read(item).map(|d| SimTime::ZERO + d)
    }
    fn write(&self) -> String {
        self.as_secs_f64().write()
    }
    fn holds(&self, rule: Rule, bounds: &Bounds) -> bool {
        rule != Rule::Fits || *self < SimTime::ZERO + bounds.horizon
    }
}

/// `[cpu, mem, disk, net]`; it fits when a node can host it.
impl Scalar for ResourceVec {
    fn read(item: &Item) -> Result<Self, String> {
        let Item::Value(Value::Array(xs)) = item else {
            return Err(format!("expected an array of 4 numbers, got {}", item.type_name()));
        };
        match xs.iter().map(num).collect::<Option<Vec<f64>>>().as_deref() {
            Some(&[cpu, mem, disk, net]) => Ok(ResourceVec::new(cpu, mem, disk, net)),
            _ => Err(format!("expected 4 numbers [cpu, mem, disk, net], got {}", xs.len())),
        }
    }
    fn write(&self) -> String {
        format!("[{}]", self.as_array().map(|x| x.write()).join(", "))
    }
    fn holds(&self, rule: Rule, bounds: &Bounds) -> bool {
        match rule {
            Rule::Fits => self.is_valid() && self.fits_within(&bounds.cap),
            Rule::Positive => self.is_valid() && !self.is_zero(),
            _ => self.as_array().iter().all(|&x| rule.admits(x)),
        }
    }
}

/// `"critical"`, `"standard"` or `"preemptible"`.
impl Scalar for PriorityClass {
    fn read(item: &Item) -> Result<Self, String> {
        let name = String::read(item)?;
        let known = PriorityClass::DESCENDING.into_iter().find(|p| p.as_str() == name);
        known.ok_or_else(|| {
            format!("unknown priority `{name}` (expected one of critical, standard, preemptible)")
        })
    }
    fn write(&self) -> String {
        self.as_str().to_string().write()
    }
    fn holds(&self, _: Rule, _: &Bounds) -> bool {
        true
    }
}

/// A trace's `[[secs, rate], …]`; it keeps a rule when it has a point
/// and every rate keeps the rule.
impl Scalar for Vec<(SimTime, f64)> {
    fn read(item: &Item) -> Result<Self, String> {
        let Item::Value(Value::Array(points)) = item else {
            return Err("expected an array of [secs, rate] pairs".into());
        };
        let point = |p: &Value| match p {
            Value::Array(pair) if pair.len() == 2 => {
                let secs = num(&pair[0]).filter(|t| t.is_finite() && *t >= 0.0)?;
                Some((SimTime::ZERO + SimDuration::from_secs_f64(secs), num(&pair[1])?))
            }
            _ => None,
        };
        let points = points.iter().map(point).collect::<Option<_>>();
        points.ok_or_else(|| "expected [secs, rate] pairs".into())
    }
    fn write(&self) -> String {
        let points: Vec<String> =
            self.iter().map(|(t, rate)| format!("[{}, {}]", t.write(), rate.write())).collect();
        format!("[{}]", points.join(", "))
    }
    fn holds(&self, rule: Rule, _: &Bounds) -> bool {
        !self.is_empty() && self.iter().all(|&(_, rate)| rule.admits(rate))
    }
}

/// An optional value: absent is `None`, which keeps every rule.
impl<T: Scalar> Scalar for Option<T> {
    fn read(item: &Item) -> Result<Self, String> {
        T::read(item).map(Some)
    }
    fn write(&self) -> String {
        self.as_ref().map_or_else(String::new, T::write)
    }
    fn holds(&self, rule: Rule, bounds: &Bounds) -> bool {
        self.as_ref().is_none_or(|v| v.holds(rule, bounds))
    }
}

// ---------------------------------------------------------------------------
// The field lists
// ---------------------------------------------------------------------------

impl Record for ScenarioSpec {
    const BLANK: Self = ScenarioSpec {
        name: String::new(),
        description: String::new(),
        horizon: SimDuration::ZERO,
        cluster: ClusterSpec::BLANK,
        services: Vec::new(),
        batch_jobs: Vec::new(),
        hpc_jobs: Vec::new(),
        arbiter: None,
        faults: Vec::new(),
        probe: None,
        repro: None,
    };
    fn walk<S: Schema>(s: &mut S, spec: &mut Self) -> Res {
        s.key("name", &mut spec.name, Required, Rule::Positive)?;
        s.key("description", &mut spec.description, Reads(String::new()), Rule::Any)?;
        s.key("horizon_secs", &mut spec.horizon, Required, Rule::Positive)?;
        let cluster = ClusterSpec { nodes: 20, node_capacity: None };
        s.table("cluster", &mut spec.cluster, Reads(cluster))?;
        s.table("arbiter", &mut spec.arbiter, Omitted(None))?;
        s.table("probe", &mut spec.probe, Omitted(None))?;
        s.table("repro", &mut spec.repro, Omitted(None))?;
        s.tables("service", &mut spec.services, 0)?;
        s.tables("batch", &mut spec.batch_jobs, 0)?;
        s.tables("hpc", &mut spec.hpc_jobs, 0)?;
        s.tables("fault", &mut spec.faults, 0)
    }
}

impl Record for ClusterSpec {
    const BLANK: Self = ClusterSpec { nodes: 0, node_capacity: None };
    fn walk<S: Schema>(s: &mut S, c: &mut Self) -> Res {
        s.key("nodes", &mut c.nodes, Required, Rule::Positive)?;
        s.key("node_capacity", &mut c.node_capacity, Omitted(None), Rule::Positive)
    }
}

impl Record for ArbiterConfig {
    const BLANK: Self = ArbiterConfig {
        headroom_fraction: 0.0,
        floor_fraction: 0.0,
        hysteresis: 0.0,
        max_recovery_step: 0.0,
        demand_cap_ratio: 0.0,
    };
    fn walk<S: Schema>(s: &mut S, a: &mut Self) -> Res {
        let d = ArbiterConfig::default();
        s.key(
            "headroom_fraction",
            &mut a.headroom_fraction,
            Reads(d.headroom_fraction),
            Rule::Fraction,
        )?;
        s.key("floor_fraction", &mut a.floor_fraction, Reads(d.floor_fraction), Rule::Unit)?;
        s.key("hysteresis", &mut a.hysteresis, Reads(d.hysteresis), Rule::Fraction)?;
        s.key(
            "max_recovery_step",
            &mut a.max_recovery_step,
            Reads(d.max_recovery_step),
            Rule::Positive,
        )?;
        s.key(
            "demand_cap_ratio",
            &mut a.demand_cap_ratio,
            Reads(d.demand_cap_ratio),
            Rule::AtLeastOne,
        )
    }
}

impl Record for ProbeSpec {
    const BLANK: Self =
        ProbeSpec { initial: 0.0, step: 0.0, max: 0.0, threshold: 0.0, reference_rps: None };
    fn walk<S: Schema>(s: &mut S, p: &mut Self) -> Res {
        s.key("initial", &mut p.initial, Required, Rule::Positive)?;
        s.key("step", &mut p.step, Required, Rule::Positive)?;
        s.key("max", &mut p.max, Required, Rule::Finite)?;
        s.rule("max", p.max >= p.initial, "must be at least `initial`")?;
        s.key("threshold", &mut p.threshold, Reads(0.10), Rule::OpenUnit)?;
        s.key("reference_rps", &mut p.reference_rps, Omitted(None), Rule::Positive)
    }
}

impl Record for ReproSpec {
    const BLANK: Self = ReproSpec { seed: 0, violation: String::new() };
    fn walk<S: Schema>(s: &mut S, r: &mut Self) -> Res {
        s.key("seed", &mut r.seed, Required, Rule::Any)?;
        s.key("violation", &mut r.violation, Required, Rule::Any)
    }
}

impl Record for ServiceEntry {
    const BLANK: Self = ServiceEntry {
        name: String::new(),
        class: String::new(),
        demand: ResourceVec::ZERO,
        demand_cv: 0.0,
        timeout: SimDuration::ZERO,
        plo: PloSpec::Throughput { target_rps: 0.0 },
        alloc: ResourceVec::ZERO,
        replicas: 0,
        base_memory_mib: 0.0,
        priority: PriorityClass::Standard,
        load: LoadSpec::BLANK,
    };
    fn walk<S: Schema>(s: &mut S, e: &mut Self) -> Res {
        s.key("name", &mut e.name, Required, Rule::Positive)?;
        s.key("class", &mut e.class, Required, Rule::Positive)?;
        s.key("demand", &mut e.demand, Required, Rule::Positive)?;
        s.key("demand_cv", &mut e.demand_cv, Required, Rule::NonNeg)?;
        s.key("timeout_secs", &mut e.timeout, Required, Rule::Positive)?;
        plo(s, &mut e.plo)?;
        s.key("alloc", &mut e.alloc, Required, Rule::Fits)?;
        s.key("replicas", &mut e.replicas, Reads(1), Rule::Positive)?;
        s.key("base_memory_mib", &mut e.base_memory_mib, Omitted(64.0), Rule::NonNeg)?;
        s.key("priority", &mut e.priority, Omitted(PriorityClass::Standard), Rule::Any)?;
        s.table("load", &mut e.load, Required)
    }
}

/// Exactly one key names the objective and holds its target.
fn plo<S: Schema>(s: &mut S, plo: &mut PloSpec) -> Res {
    let keys: [PloKey; 4] = [
        ("plo_p99_ms", |v| Some(PloSpec::LatencyP99 { target_ms: v })),
        ("plo_mean_ms", |v| Some(PloSpec::LatencyMean { target_ms: v })),
        ("plo_throughput_rps", |v| Some(PloSpec::Throughput { target_rps: v })),
        ("plo_deadline_secs", |v| {
            let deadline = SimDuration::from_secs_f64(v);
            Rule::Positive.admits(v).then_some(PloSpec::Deadline { deadline })
        }),
    ];
    s.plo("plo", plo, &keys)
}

impl Record for LoadSpec {
    const BLANK: Self = LoadSpec::Constant { rate: 0.0 };
    fn walk<S: Schema>(s: &mut S, load: &mut Self) -> Res {
        let (t, d) = (SimTime::ZERO, SimDuration::ZERO);
        let kinds = [
            ("constant", LoadSpec::Constant { rate: 0.0 }),
            ("diurnal", LoadSpec::Diurnal { base: 0.0, amplitude: 0.0, period: d, phase: 0.0 }),
            ("ramp", LoadSpec::Ramp { from: 0.0, to: 0.0, duration: d }),
            (
                "flash_crowd",
                LoadSpec::FlashCrowd { base: 0.0, spike_factor: 0.0, start: t, duration: d },
            ),
            ("mmpp", LoadSpec::Mmpp { low: 0.0, high: 0.0, mean_dwell: d }),
            ("trace", LoadSpec::Trace { points: Vec::new() }),
        ];
        s.kind("kind", load, &kinds)?;
        match load {
            LoadSpec::Constant { rate } => s.key("rate", rate, Required, Rule::NonNeg),
            LoadSpec::Diurnal { base, amplitude, period, phase } => {
                s.key("base", base, Required, Rule::NonNeg)?;
                s.key("amplitude", amplitude, Required, Rule::Unit)?;
                s.key("period_secs", period, Required, Rule::Positive)?;
                s.key("phase", phase, Required, Rule::Finite)
            }
            LoadSpec::Ramp { from, to, duration } => {
                s.key("from", from, Required, Rule::NonNeg)?;
                s.key("to", to, Required, Rule::NonNeg)?;
                s.key("duration_secs", duration, Required, Rule::Positive)
            }
            LoadSpec::FlashCrowd { base, spike_factor, start, duration } => {
                s.key("base", base, Required, Rule::NonNeg)?;
                s.key("spike_factor", spike_factor, Required, Rule::AtLeastOne)?;
                s.key("start_secs", start, Required, Rule::Any)?;
                s.key("duration_secs", duration, Required, Rule::Positive)
            }
            LoadSpec::Mmpp { low, high, mean_dwell } => {
                s.key("low", low, Required, Rule::NonNeg)?;
                s.key("high", high, Required, Rule::Finite)?;
                s.rule("high", *high >= *low, "must be at least `low`")?;
                s.key("mean_dwell_secs", mean_dwell, Required, Rule::Positive)
            }
            LoadSpec::Trace { points } => {
                s.key("points", points, Required, Rule::NonNeg)?;
                let ordered = points.windows(2).all(|w| w[0].0 <= w[1].0);
                s.rule("points", ordered, "points must be time-ordered")
            }
        }
    }
}

impl Record for BatchEntry {
    const BLANK: Self = BatchEntry {
        name: String::new(),
        submit_at: SimTime::ZERO,
        stages: Vec::new(),
        plo: PloSpec::Throughput { target_rps: 0.0 },
        task_alloc: ResourceVec::ZERO,
        max_parallel: 0,
        priority: PriorityClass::Standard,
    };
    fn walk<S: Schema>(s: &mut S, b: &mut Self) -> Res {
        s.key("name", &mut b.name, Required, Rule::Positive)?;
        s.key("submit_secs", &mut b.submit_at, Required, Rule::Any)?;
        plo(s, &mut b.plo)?;
        s.key("task_alloc", &mut b.task_alloc, Required, Rule::Fits)?;
        s.key("max_parallel", &mut b.max_parallel, Required, Rule::Positive)?;
        s.key("priority", &mut b.priority, Omitted(PriorityClass::Standard), Rule::Any)?;
        s.tables("stage", &mut b.stages, 1)
    }
}

impl Record for StageEntry {
    const BLANK: Self = StageEntry { tasks: 0, work: ResourceVec::ZERO, records: 0 };
    fn walk<S: Schema>(s: &mut S, st: &mut Self) -> Res {
        s.key("tasks", &mut st.tasks, Required, Rule::Positive)?;
        s.key("work", &mut st.work, Required, Rule::Positive)?;
        s.key("records", &mut st.records, Required, Rule::Any)
    }
}

impl Record for HpcEntry {
    const BLANK: Self = HpcEntry {
        name: String::new(),
        submit_at: SimTime::ZERO,
        gang: 0,
        iterations: 0,
        work: ResourceVec::ZERO,
        rank_alloc: ResourceVec::ZERO,
        deadline: SimDuration::ZERO,
        priority: PriorityClass::Standard,
    };
    fn walk<S: Schema>(s: &mut S, h: &mut Self) -> Res {
        s.key("name", &mut h.name, Required, Rule::Positive)?;
        s.key("submit_secs", &mut h.submit_at, Required, Rule::Any)?;
        s.key("gang", &mut h.gang, Required, Rule::Positive)?;
        s.key("iterations", &mut h.iterations, Required, Rule::Positive)?;
        s.key("work", &mut h.work, Required, Rule::NonNeg)?;
        s.key("rank_alloc", &mut h.rank_alloc, Required, Rule::Fits)?;
        s.key("deadline_secs", &mut h.deadline, Required, Rule::Positive)?;
        s.key("priority", &mut h.priority, Omitted(PriorityClass::Standard), Rule::Any)
    }
}

/// A fault's kind is its [`FaultKind::label`]; `node` indexes the
/// cluster's nodes and `app` the scenario's apps.
impl Record for FaultEvent {
    const BLANK: Self = FaultEvent { at: SimTime::ZERO, kind: FaultKind::ControllerCrash };
    fn walk<S: Schema>(s: &mut S, f: &mut Self) -> Res {
        let (n, d) = (NodeId::new(0), SimDuration::ZERO);
        let kinds = [
            FaultKind::NodeCrash { node: n, downtime: None },
            FaultKind::ScrapeBlackout { app: None, duration: d },
            FaultKind::MetricNoise { app: None, duration: d, cv: 0.0 },
            FaultKind::ControlStall { duration: d },
            FaultKind::ControllerCrash,
            FaultKind::ActuationDrop { duration: d },
            FaultKind::ActuationDelay { duration: d, lag: d },
            FaultKind::ActuationPartial { duration: d, fraction: 0.0 },
            FaultKind::NodeFlap { node: n, cycles: 0, period: d },
        ];
        s.kind("kind", &mut f.kind, &kinds.map(|k| (k.label(), k)))?;
        s.key("at_secs", &mut f.at, Required, Rule::Fits)?;
        match &mut f.kind {
            FaultKind::NodeCrash { node, downtime } => {
                s.key("node", node, Required, Rule::Fits)?;
                s.key("downtime_secs", downtime, Omitted(None), Rule::Positive)?;
            }
            FaultKind::ScrapeBlackout { app, duration } => {
                s.key("app", app, Omitted(None), Rule::Fits)?;
                s.key("duration_secs", duration, Required, Rule::Positive)?;
            }
            FaultKind::MetricNoise { app, duration, cv } => {
                s.key("app", app, Omitted(None), Rule::Fits)?;
                s.key("duration_secs", duration, Required, Rule::Positive)?;
                s.key("cv", cv, Required, Rule::Any)?;
            }
            FaultKind::ControlStall { duration } | FaultKind::ActuationDrop { duration } => {
                s.key("duration_secs", duration, Required, Rule::Positive)?;
            }
            FaultKind::ControllerCrash => {}
            FaultKind::ActuationDelay { duration, lag } => {
                s.key("duration_secs", duration, Required, Rule::Positive)?;
                s.key("lag_secs", lag, Required, Rule::Any)?;
            }
            FaultKind::ActuationPartial { duration, fraction } => {
                s.key("duration_secs", duration, Required, Rule::Positive)?;
                s.key("fraction", fraction, Required, Rule::Any)?;
            }
            FaultKind::NodeFlap { node, cycles, period } => {
                s.key("node", node, Required, Rule::Fits)?;
                s.key("cycles", cycles, Required, Rule::Any)?;
                s.key("period_secs", period, Required, Rule::Any)?;
            }
        }
        s.param(f.kind.invalid_param())
    }
}

// ---------------------------------------------------------------------------
// The three walkers
// ---------------------------------------------------------------------------

/// Reads a `toml_mini` table into a record. Type and shape errors carry
/// the line, keys left over are [`ScenarioError::UnknownField`] and
/// absent required ones [`ScenarioError::MissingField`].
struct Reader<'a> {
    table: &'a Table,
    /// The table's path in errors (`scenario` for the root).
    ctx: String,
    /// The prefix of its sub-tables' paths (empty for the root).
    sub: String,
    /// Keys not read yet.
    left: BTreeMap<&'a str, (usize, &'a Item)>,
}

impl<'a> Reader<'a> {
    /// Reads `table` into `r`, then rejects the first key (alphabetically)
    /// left over.
    fn read<T: Record>(table: &'a Table, ctx: String, sub: String, r: &mut T) -> Res {
        let left = table.entries.iter().map(|(k, (line, item))| (k.as_str(), (*line, item)));
        let mut reader = Reader { table, ctx, sub, left: left.collect() };
        T::walk(&mut reader, r)?;
        match reader.left.into_iter().next() {
            Some((field, (line, _))) => {
                Err(ScenarioError::UnknownField { line, table: reader.ctx, field: field.into() })
            }
            None => Ok(()),
        }
    }

    /// Reads the sub-table at `path` into `r`.
    fn child<T: Record>(table: &'a Table, path: String, r: &mut T) -> Res {
        let sub = format!("{path}.");
        Reader::read(table, path, sub, r)
    }

    fn invalid(&self, line: usize, key: &str, detail: impl Into<String>) -> ScenarioError {
        let field = format!("{}.{key}", self.ctx);
        ScenarioError::InvalidValue { line, field, detail: detail.into() }
    }

    fn missing(&self, key: &str) -> ScenarioError {
        ScenarioError::MissingField { table: self.ctx.clone(), field: key.into() }
    }

    /// The `[key]` tables of this table: one, or with `array` any number
    /// of `[[key]]` ones.
    fn sub_tables(&mut self, key: &str, array: bool) -> Result<Vec<&'a Table>, ScenarioError> {
        match self.left.remove(key) {
            None => Ok(Vec::new()),
            Some((_, Item::Table(table))) => Ok(vec![table]),
            Some((_, Item::TableArray(tables))) if array => Ok(tables.iter().collect()),
            Some((line, item)) => {
                let want = if array {
                    format!("`[[{key}]]` tables")
                } else {
                    format!("a `[{key}]` table")
                };
                Err(self.invalid(line, key, format!("expected {want}, got {}", item.type_name())))
            }
        }
    }
}

impl Schema for Reader<'_> {
    fn key<T: Scalar>(&mut self, key: Key, v: &mut T, absent: Absent<T>, _: Rule) -> Res {
        *v = match (self.left.remove(key), absent) {
            (Some((line, item)), _) => T::read(item).map_err(|e| self.invalid(line, key, e))?,
            (None, Required) => return Err(self.missing(key)),
            (None, Reads(value) | Omitted(value)) => value,
        };
        Ok(())
    }

    fn kind<T: Clone>(&mut self, key: Key, v: &mut T, kinds: &[(Key, T)]) -> Res {
        let mut name = String::new();
        self.key(key, &mut name, Required, Rule::Any)?;
        let Some((_, blank)) = kinds.iter().find(|(kind, _)| *kind == name) else {
            let names: Vec<&str> = kinds.iter().map(|(kind, _)| *kind).collect();
            let detail = format!("unknown {key} `{name}` (expected one of {})", names.join(", "));
            return Err(self.invalid(self.table.line, key, detail));
        };
        *v = blank.clone();
        Ok(())
    }

    fn plo(&mut self, _: Key, v: &mut PloSpec, keys: &[PloKey]) -> Res {
        let mut found = Vec::new();
        for &(key, make) in keys {
            if let Some((line, item)) = self.left.remove(key) {
                let target = f64::read(item).map_err(|e| self.invalid(line, key, e))?;
                let positive = || self.invalid(line, key, "expected a positive number");
                found.push((line, key, make(target).ok_or_else(positive)?));
            }
        }
        match found[..] {
            [(_, _, plo)] => {
                *v = plo;
                Ok(())
            }
            [_, (line, key, _), ..] => {
                Err(self.invalid(line, key, "more than one PLO field; specify exactly one"))
            }
            [] => {
                Err(self.missing(&keys.iter().map(|(key, _)| *key).collect::<Vec<_>>().join(" | ")))
            }
        }
    }

    fn table<T: Record>(&mut self, key: Key, v: &mut T, absent: Absent<T>) -> Res {
        match (self.sub_tables(key, false)?.pop(), absent) {
            (Some(table), _) => {
                *v = T::BLANK;
                Reader::child(table, format!("{}{key}", self.sub), v)
            }
            (None, Required) => Err(self.missing(key)),
            (None, Reads(value) | Omitted(value)) => {
                *v = value;
                Ok(())
            }
        }
    }

    fn tables<T: Record>(&mut self, key: Key, v: &mut Vec<T>, min: usize) -> Res {
        let tables = self.sub_tables(key, true)?;
        if tables.len() < min {
            return Err(self.missing(key));
        }
        *v = Vec::with_capacity(tables.len());
        for (i, table) in tables.into_iter().enumerate() {
            let mut r = T::BLANK;
            Reader::child(table, format!("{}{key}[{i}]", self.sub), &mut r)?;
            v.push(r);
        }
        Ok(())
    }

    fn param(&mut self, broken: Option<(Key, String)>) -> Res {
        let Some((key, why)) = broken else { return Ok(()) };
        Err(self.invalid(self.table.entries.get(key).map_or(self.table.line, |e| e.0), key, why))
    }
}

/// Writes a record as canonical TOML: `key = value` lines in field-list
/// order, a key at its [`Omitted`] default left out.
struct Writer {
    out: String,
    /// The dotted header of the table being written (`service.load`).
    header: String,
}

impl Writer {
    fn line(&mut self, key: &str, value: &str) -> Res {
        let _ = writeln!(self.out, "{key} = {value}");
        Ok(())
    }

    fn open<T: Record>(&mut self, key: &str, array: bool, r: &mut T) -> Res {
        let outer = std::mem::take(&mut self.header);
        self.header = if outer.is_empty() { key.into() } else { format!("{outer}.{key}") };
        let (open, close) = if array { ("[[", "]]") } else { ("[", "]") };
        let _ = writeln!(self.out, "\n{open}{}{close}", self.header);
        T::walk(self, r)?;
        self.header = outer;
        Ok(())
    }
}

impl Schema for Writer {
    fn key<T: Scalar>(&mut self, key: Key, v: &mut T, absent: Absent<T>, _: Rule) -> Res {
        if omitted(&absent, v) {
            return Ok(());
        }
        self.line(key, &v.write())
    }

    fn kind<T: Clone>(&mut self, key: Key, v: &mut T, kinds: &[(Key, T)]) -> Res {
        let same = |(_, blank): &&(Key, T)| discriminant(blank) == discriminant(v);
        let (name, _) = kinds.iter().find(same).expect("every kind is listed");
        self.line(key, &name.to_string().write())
    }

    fn plo(&mut self, _: Key, v: &mut PloSpec, keys: &[PloKey]) -> Res {
        let same =
            |(_, make): &&PloKey| make(1.0).is_some_and(|p| discriminant(&p) == discriminant(v));
        let (key, _) = keys.iter().find(same).expect("every PLO is listed");
        self.line(key, &v.target().write())
    }

    fn table<T: Record>(&mut self, key: Key, v: &mut T, absent: Absent<T>) -> Res {
        if omitted(&absent, v) {
            return Ok(());
        }
        self.open(key, false, v)
    }

    fn tables<T: Record>(&mut self, key: Key, v: &mut Vec<T>, _: usize) -> Res {
        v.iter_mut().try_for_each(|r| self.open(key, true, r))
    }
}

/// Asks every key's [`Rule`] of a record: a break is
/// [`ScenarioError::Infeasible`] at the key's dotted path.
struct Checker {
    /// The prefix of the current record's paths (`service[2].load.`).
    at: String,
    bounds: Bounds,
}

impl Checker {
    fn enter<T: Record>(&mut self, at: String, r: &mut T) -> Res {
        let outer = std::mem::replace(&mut self.at, at);
        T::walk(self, r)?;
        self.at = outer;
        Ok(())
    }

    fn fail(&self, key: &str, detail: impl Into<String>) -> Res {
        Err(ScenarioError::Infeasible { field: format!("{}{key}", self.at), detail: detail.into() })
    }
}

impl Schema for Checker {
    fn key<T: Scalar>(&mut self, key: Key, v: &mut T, _: Absent<T>, rule: Rule) -> Res {
        self.rule(key, v.holds(rule, &self.bounds), rule.detail())
    }

    fn plo(&mut self, name: Key, v: &mut PloSpec, _: &[PloKey]) -> Res {
        self.rule(name, Rule::Positive.admits(v.target()), "PLO target must be positive and finite")
    }

    fn table<T: Record>(&mut self, key: Key, v: &mut T, absent: Absent<T>) -> Res {
        if omitted(&absent, v) {
            return Ok(());
        }
        self.enter(format!("{}{key}.", self.at), v)
    }

    fn tables<T: Record>(&mut self, key: Key, v: &mut Vec<T>, min: usize) -> Res {
        self.rule(key, v.len() >= min, "needs at least one table")?;
        for (i, r) in v.iter_mut().enumerate() {
            self.enter(format!("{}{key}[{i}].", self.at), r)?;
        }
        Ok(())
    }

    fn rule(&mut self, key: Key, holds: bool, detail: &'static str) -> Res {
        if holds {
            Ok(())
        } else {
            self.fail(key, detail)
        }
    }

    fn param(&mut self, broken: Option<(Key, String)>) -> Res {
        broken.map_or(Ok(()), |(key, why)| self.fail(key, why))
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
