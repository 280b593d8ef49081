//! Integration tests for the declarative scenario layer: every checked-in
//! `scenarios/*.toml` file is in canonical form and is a builtin, the two
//! parametric builtins reproduce the emitters they replaced, and malformed
//! input fails with the right typed [`ScenarioError`] — never a panic.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use evolve_types::{AppId, ArbiterConfig, NodeId, ResourceVec, SimDuration, SimTime};
use evolve_workload::{
    BatchEntry, ClusterSpec, FaultEvent, FaultKind, HpcEntry, LoadSpec, PloSpec, PoissonArrivals,
    PriorityClass, ProbeSpec, ReproSpec, SamplingMode, ScenarioError, ScenarioSpec, ServiceEntry,
    StageEntry, BUILTINS,
};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn scenarios_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios"))
}

/// The text of `tests/schema_coverage.toml`: every record, every key,
/// every load, PLO, priority and fault kind (see [`coverage_spec`]).
const COVERAGE: &str = include_str!("schema_coverage.toml");

fn secs(s: f64) -> SimDuration {
    SimDuration::from_secs_f64(s)
}

fn at(s: f64) -> SimTime {
    SimTime::ZERO + secs(s)
}

fn vec4(cpu: f64, mem: f64, disk: f64, net: f64) -> ResourceVec {
    ResourceVec::new(cpu, mem, disk, net)
}

/// A spec that sets every key the schema has, each optional one away
/// from its default: six services (one per load kind, the three latency
/// and throughput PLOs, all three priorities), a two-stage batch job
/// with a deadline, an HPC gang, and all nine fault kinds, with and
/// without their optional `downtime_secs` / `app`.
fn coverage_spec() -> ScenarioSpec {
    let service =
        |name: &str, plo: PloSpec, priority: PriorityClass, load: LoadSpec| ServiceEntry {
            name: name.into(),
            class: "cpu-bound".into(),
            demand: vec4(20.0, 2.0, 0.01, 0.05),
            demand_cv: 0.6,
            timeout: secs(10.0),
            plo,
            alloc: vec4(2000.0, 4096.0, 50.0, 50.0),
            replicas: 2,
            base_memory_mib: 64.0,
            priority,
            load,
        };
    let p99 = PloSpec::LatencyP99 { target_ms: 100.0 };
    let std = PriorityClass::Standard;
    let fault = |t: f64, kind: FaultKind| FaultEvent { at: at(t), kind };
    ScenarioSpec {
        name: "schema-coverage".into(),
        description: "every key of the schema, \"quoted\" \\ escaped".into(),
        horizon: secs(600.0),
        cluster: ClusterSpec {
            nodes: 4,
            node_capacity: Some(vec4(32000.0, 131072.0, 1000.0, 2500.0)),
        },
        services: vec![
            ServiceEntry {
                replicas: 3,
                base_memory_mib: 96.0,
                ..service("web", p99, PriorityClass::Critical, LoadSpec::Constant { rate: 50.0 })
            },
            service(
                "api",
                PloSpec::LatencyMean { target_ms: 40.0 },
                std,
                LoadSpec::Diurnal { base: 80.0, amplitude: 0.6, period: secs(300.0), phase: 1.5 },
            ),
            service(
                "ingest",
                PloSpec::Throughput { target_rps: 30.0 },
                PriorityClass::Preemptible,
                LoadSpec::Ramp { from: 10.0, to: 60.0, duration: secs(240.0) },
            ),
            service(
                "promo",
                p99,
                std,
                LoadSpec::FlashCrowd {
                    base: 20.0,
                    spike_factor: 4.0,
                    start: at(120.0),
                    duration: secs(30.0),
                },
            ),
            service(
                "bursty",
                p99,
                std,
                LoadSpec::Mmpp { low: 10.0, high: 70.0, mean_dwell: secs(20.0) },
            ),
            service(
                "replay",
                p99,
                std,
                LoadSpec::Trace {
                    points: vec![(at(0.0), 15.0), (at(200.0), 45.0), (at(400.0), 5.0)],
                },
            ),
        ],
        batch_jobs: vec![BatchEntry {
            name: "etl".into(),
            submit_at: at(30.0),
            stages: vec![
                StageEntry { tasks: 8, work: vec4(60000.0, 0.0, 500.0, 0.0), records: 200000 },
                StageEntry { tasks: 4, work: vec4(30000.0, 0.0, 0.0, 250.0), records: 50000 },
            ],
            plo: PloSpec::Deadline { deadline: secs(500.0) },
            task_alloc: vec4(1000.0, 2048.0, 50.0, 50.0),
            max_parallel: 6,
            priority: PriorityClass::Preemptible,
        }],
        hpc_jobs: vec![HpcEntry {
            name: "sim".into(),
            submit_at: at(60.0),
            gang: 4,
            iterations: 20,
            work: vec4(4000.0, 0.0, 0.0, 100.0),
            rank_alloc: vec4(2000.0, 8192.0, 20.0, 200.0),
            deadline: secs(450.0),
            priority: PriorityClass::Critical,
        }],
        arbiter: Some(ArbiterConfig {
            headroom_fraction: 0.15,
            floor_fraction: 0.4,
            hysteresis: 0.05,
            max_recovery_step: 0.3,
            demand_cap_ratio: 2.5,
        }),
        faults: vec![
            fault(50.0, FaultKind::NodeCrash { node: NodeId::new(1), downtime: Some(secs(40.0)) }),
            fault(70.0, FaultKind::NodeCrash { node: NodeId::new(2), downtime: None }),
            fault(
                90.0,
                FaultKind::ScrapeBlackout { app: Some(AppId::new(3)), duration: secs(15.0) },
            ),
            fault(110.0, FaultKind::ScrapeBlackout { app: None, duration: secs(10.0) }),
            fault(
                130.0,
                FaultKind::MetricNoise { app: Some(AppId::new(7)), duration: secs(20.0), cv: 0.3 },
            ),
            fault(150.0, FaultKind::MetricNoise { app: None, duration: secs(25.0), cv: 0.2 }),
            fault(170.0, FaultKind::ControlStall { duration: secs(12.0) }),
            fault(190.0, FaultKind::ControllerCrash),
            fault(210.0, FaultKind::ActuationDrop { duration: secs(18.0) }),
            fault(230.0, FaultKind::ActuationDelay { duration: secs(22.0), lag: secs(6.0) }),
            fault(250.0, FaultKind::ActuationPartial { duration: secs(16.0), fraction: 0.5 }),
            fault(
                270.0,
                FaultKind::NodeFlap { node: NodeId::new(3), cycles: 3, period: secs(8.0) },
            ),
        ],
        probe: Some(ProbeSpec {
            initial: 0.5,
            step: 0.25,
            max: 2.0,
            threshold: 0.05,
            reference_rps: Some(400.0),
        }),
        repro: Some(ReproSpec { seed: 1234, violation: "gang_atomicity".into() }),
    }
}

/// The coverage file parses to the spec built in code, and `to_toml()`
/// re-emits it byte for byte: the pin on every key the checked-in
/// scenarios do not use.
#[test]
fn schema_coverage_is_canonical() {
    let spec = ScenarioSpec::from_toml_str(COVERAGE).unwrap_or_else(|err| panic!("{err}"));
    assert_eq!(spec, coverage_spec());
    assert_eq!(spec.to_toml(), COVERAGE);
}

/// EXPERIMENTS.md § Authoring scenarios names, in backticks, every key
/// and every table header the coverage file sets.
#[test]
fn authoring_guide_names_every_key() {
    let guide = include_str!("../../../EXPERIMENTS.md");
    let start = guide.find("## Authoring scenarios").expect("the guide has the section");
    let section = &guide[start..];
    let section = &section[..section[2..].find("\n## ").map_or(section.len(), |end| end + 2)];
    let mut missing: Vec<&str> = COVERAGE
        .lines()
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .map(|line| line.split(" = ").next().expect("a key or a header"))
        .filter(|name| !section.contains(&format!("`{name}`")))
        .collect();
    missing.dedup();
    assert!(missing.is_empty(), "EXPERIMENTS.md § Authoring scenarios never names {missing:?}");
}

/// The dotted table path a `[header]` / `[[header]]` opens, counting
/// array elements per parent (`service[2].load`, `batch[0].stage[1]`).
fn header_path(header: &str, array: bool, counts: &mut BTreeMap<String, usize>) -> String {
    let comps: Vec<&str> = header.split('.').collect();
    let mut path = String::new();
    for (i, comp) in comps.iter().enumerate() {
        let base = if path.is_empty() { (*comp).to_string() } else { format!("{path}.{comp}") };
        path = if i + 1 == comps.len() && array {
            let n = counts.entry(base.clone()).or_insert(0);
            *n += 1;
            format!("{base}[{}]", *n - 1)
        } else if let Some(n) = counts.get(&base) {
            format!("{base}[{}]", n - 1)
        } else {
            base
        };
    }
    path
}

/// The coverage file with one line replaced by `with` (any number of
/// lines, or none): the line setting `key` in the table at `path` (`""`
/// is the root), or, when `key` is `"[]"`, the header opening that table.
fn edit(path: &str, key: &str, with: &str) -> String {
    let mut counts = BTreeMap::new();
    let mut table = String::new();
    let mut hit = 0;
    let mut out: Vec<&str> = Vec::new();
    for line in COVERAGE.lines() {
        let header = line.strip_prefix("[[").and_then(|h| h.strip_suffix("]]"));
        let header = header.map(|h| (h, true)).or_else(|| {
            line.strip_prefix('[').and_then(|h| h.strip_suffix(']')).map(|h| (h, false))
        });
        let target = match header {
            Some((h, array)) => {
                table = header_path(h, array, &mut counts);
                key == "[]" && table == path
            }
            None => table == path && line.split(" = ").next() == Some(key),
        };
        if target {
            hit += 1;
            out.extend(with.lines());
        } else {
            out.push(line);
        }
    }
    assert_eq!(hit, 1, "`{key}` in `{path}` names {hit} lines");
    out.join("\n") + "\n"
}

/// An error as `"Variant field"` plus `" @line"` where it carries one;
/// `UnknownField` and `MissingField` join table and key with a dot.
fn triple(err: ScenarioError) -> String {
    match err {
        ScenarioError::Syntax { line, .. } => format!("Syntax @{line}"),
        ScenarioError::UnknownField { line, table, field } => {
            format!("UnknownField {table}.{field} @{line}")
        }
        ScenarioError::MissingField { table, field } => format!("MissingField {table}.{field}"),
        ScenarioError::InvalidValue { line, field, .. } => format!("InvalidValue {field} @{line}"),
        ScenarioError::Infeasible { field, .. } => format!("Infeasible {field}"),
        other => format!("{other:?}"),
    }
}

/// One case per place the spec layer rejects input: a one-line edit of
/// the coverage file `(table, key, replacement)` and the error it must
/// keep. Recorded against the per-field decoder, emitter and validator
/// this file was written for; not to be edited.
const SINGLE_DEFECTS: &[(&str, &str, &str, &str)] = &[
    ("", "name", "name = 3", "InvalidValue scenario.name @2"),
    ("", "name", "", "MissingField scenario.name"),
    ("", "name", "name = \"\"", "Infeasible name"),
    ("", "description", "description = 1.0", "InvalidValue scenario.description @3"),
    ("", "horizon_secs", "", "MissingField scenario.horizon_secs"),
    ("", "horizon_secs", "horizon_secs = -5.0", "InvalidValue scenario.horizon_secs @4"),
    ("", "horizon_secs", "horizon_secs = 1e999", "InvalidValue scenario.horizon_secs @4"),
    ("", "horizon_secs", "horizon_secs = \"600\"", "InvalidValue scenario.horizon_secs @4"),
    ("", "horizon_secs", "horizon_secs = 0.0", "Infeasible horizon_secs"),
    ("", "horizon_secs", "horizon_secs = 600.0\nbogus = 1", "UnknownField scenario.bogus @5"),
    ("cluster", "[]", "cluster = 3", "InvalidValue scenario.cluster @6"),
    ("cluster", "nodes", "nodes = -1", "InvalidValue cluster.nodes @7"),
    ("cluster", "nodes", "nodes = 4.0", "InvalidValue cluster.nodes @7"),
    ("cluster", "nodes", "nodes = 0", "Infeasible cluster.nodes"),
    ("cluster", "nodes", "", "MissingField cluster.nodes"),
    ("cluster", "nodes", "nodes = 4\nbogus = 1", "UnknownField cluster.bogus @8"),
    (
        "cluster",
        "node_capacity",
        "node_capacity = [1.0, 2.0]",
        "InvalidValue cluster.node_capacity @8",
    ),
    ("cluster", "node_capacity", "node_capacity = 5.0", "InvalidValue cluster.node_capacity @8"),
    (
        "cluster",
        "node_capacity",
        "node_capacity = [0.0, 0.0, 0.0, 0.0]",
        "Infeasible cluster.node_capacity",
    ),
    (
        "cluster",
        "node_capacity",
        "node_capacity = [-1.0, 1.0, 1.0, 1.0]",
        "Infeasible cluster.node_capacity",
    ),
    (
        "cluster",
        "node_capacity",
        "node_capacity = [1e999, 1.0, 1.0, 1.0]",
        "Infeasible cluster.node_capacity",
    ),
    (
        "cluster",
        "node_capacity",
        "node_capacity = [1000.0, 131072.0, 1000.0, 2500.0]",
        "Infeasible service[0].alloc",
    ),
    (
        "arbiter",
        "headroom_fraction",
        "headroom_fraction = 1.0",
        "Infeasible arbiter.headroom_fraction",
    ),
    (
        "arbiter",
        "headroom_fraction",
        "headroom_fraction = \"x\"",
        "InvalidValue arbiter.headroom_fraction @11",
    ),
    (
        "arbiter",
        "headroom_fraction",
        "headroom_fraction = 0.15\nbogus = 1",
        "UnknownField arbiter.bogus @12",
    ),
    ("arbiter", "floor_fraction", "floor_fraction = 1.5", "Infeasible arbiter.floor_fraction"),
    ("arbiter", "hysteresis", "hysteresis = -0.1", "Infeasible arbiter.hysteresis"),
    (
        "arbiter",
        "max_recovery_step",
        "max_recovery_step = 0.0",
        "Infeasible arbiter.max_recovery_step",
    ),
    (
        "arbiter",
        "demand_cap_ratio",
        "demand_cap_ratio = 0.5",
        "Infeasible arbiter.demand_cap_ratio",
    ),
    ("probe", "initial", "initial = 0.0", "Infeasible probe.initial"),
    ("probe", "initial", "", "MissingField probe.initial"),
    ("probe", "step", "step = 0.0", "Infeasible probe.step"),
    ("probe", "max", "max = 0.4", "Infeasible probe.max"),
    ("probe", "threshold", "threshold = 1.0", "Infeasible probe.threshold"),
    ("probe", "threshold", "threshold = true", "InvalidValue probe.threshold @21"),
    ("probe", "reference_rps", "reference_rps = 0.0", "Infeasible probe.reference_rps"),
    ("probe", "reference_rps", "reference_rps = 400.0\nbogus = 1", "UnknownField probe.bogus @23"),
    ("repro", "seed", "", "MissingField repro.seed"),
    ("repro", "seed", "seed = -1", "InvalidValue repro.seed @25"),
    ("repro", "violation", "violation = 7", "InvalidValue repro.violation @26"),
    ("repro", "violation", "", "MissingField repro.violation"),
    ("repro", "violation", "violation = \"x\"\nbogus = 1", "UnknownField repro.bogus @27"),
    ("service[0]", "name", "name = \"\"", "Infeasible service[0].name"),
    ("service[0]", "name", "", "MissingField service[0].name"),
    ("service[1]", "name", "name = \"web\"", "Infeasible service[1].name"),
    ("service[0]", "class", "class = \"\"", "Infeasible service[0].class"),
    ("service[0]", "demand", "demand = [0.0, 0.0, 0.0, 0.0]", "Infeasible service[0].demand"),
    ("service[0]", "demand", "demand = [-1.0, 2.0, 0.01, 0.05]", "Infeasible service[0].demand"),
    ("service[0]", "demand", "demand = [1e999, 2.0, 0.01, 0.05]", "Infeasible service[0].demand"),
    (
        "service[0]",
        "demand",
        "demand = [20.0, \"x\", 0.01, 0.05]",
        "InvalidValue service[0].demand @31",
    ),
    ("service[0]", "demand", "demand = [20.0, 2.0]", "InvalidValue service[0].demand @31"),
    ("service[0]", "demand", "demand = \"x\"", "InvalidValue service[0].demand @31"),
    ("service[0]", "demand", "", "MissingField service[0].demand"),
    ("service[0]", "demand_cv", "demand_cv = -0.5", "Infeasible service[0].demand_cv"),
    ("service[0]", "demand_cv", "demand_cv = 1e999", "Infeasible service[0].demand_cv"),
    ("service[0]", "demand_cv", "[service.demand_cv]", "InvalidValue service[0].demand_cv @32"),
    ("service[0]", "timeout_secs", "timeout_secs = 0.0", "Infeasible service[0].timeout_secs"),
    (
        "service[0]",
        "timeout_secs",
        "timeout_secs = -1.0",
        "InvalidValue service[0].timeout_secs @33",
    ),
    ("service[0]", "plo_p99_ms", "plo_p99_ms = 0.0", "Infeasible service[0].plo"),
    ("service[0]", "plo_p99_ms", "plo_p99_ms = 1e999", "Infeasible service[0].plo"),
    ("service[0]", "plo_p99_ms", "plo_p99_ms = \"x\"", "InvalidValue service[0].plo_p99_ms @34"),
    (
        "service[0]",
        "plo_p99_ms",
        "",
        "MissingField service[0].plo_p99_ms | plo_mean_ms | plo_throughput_rps | plo_deadline_secs",
    ),
    (
        "service[0]",
        "plo_p99_ms",
        "plo_p99_ms = 100.0\nplo_mean_ms = 50.0",
        "InvalidValue service[0].plo_mean_ms @35",
    ),
    ("service[0]", "alloc", "alloc = [-1.0, 4096.0, 50.0, 50.0]", "Infeasible service[0].alloc"),
    ("service[0]", "alloc", "alloc = [1e9, 4096.0, 50.0, 50.0]", "Infeasible service[0].alloc"),
    ("service[0]", "replicas", "replicas = 0", "Infeasible service[0].replicas"),
    ("service[0]", "replicas", "replicas = 4294967296", "InvalidValue service[0].replicas @36"),
    ("service[0]", "replicas", "replicas = \"3\"", "InvalidValue service[0].replicas @36"),
    (
        "service[0]",
        "base_memory_mib",
        "base_memory_mib = -1.0",
        "Infeasible service[0].base_memory_mib",
    ),
    ("service[0]", "priority", "priority = \"urgent\"", "InvalidValue service[0].priority @38"),
    ("service[0]", "priority", "priority = 3", "InvalidValue service[0].priority @38"),
    (
        "service[0]",
        "priority",
        "priority = \"critical\"\nbogus = 1",
        "UnknownField service[0].bogus @39",
    ),
    ("service[0].load", "[]", "", "MissingField service[0].load"),
    ("service[0].load", "[]", "load = 3", "InvalidValue service[0].load @40"),
    ("service[0].load", "kind", "", "MissingField service[0].load.kind"),
    ("service[0].load", "kind", "kind = \"zigzag\"", "InvalidValue service[0].load.kind @40"),
    ("service[0].load", "kind", "kind = 3", "InvalidValue service[0].load.kind @41"),
    ("service[0].load", "rate", "rate = -1.0", "Infeasible service[0].load.rate"),
    ("service[0].load", "rate", "", "MissingField service[0].load.rate"),
    ("service[0].load", "rate", "rate = 50.0\nbogus = 1", "UnknownField service[0].load.bogus @43"),
    ("service[1]", "plo_mean_ms", "plo_mean_ms = 0.0", "Infeasible service[1].plo"),
    ("service[1].load", "base", "base = -1.0", "Infeasible service[1].load.base"),
    ("service[1].load", "amplitude", "amplitude = 1.5", "Infeasible service[1].load.amplitude"),
    (
        "service[1].load",
        "period_secs",
        "period_secs = 0.0",
        "Infeasible service[1].load.period_secs",
    ),
    (
        "service[1].load",
        "period_secs",
        "period_secs = -1.0",
        "InvalidValue service[1].load.period_secs @58",
    ),
    ("service[1].load", "phase", "phase = 1e999", "Infeasible service[1].load.phase"),
    ("service[1].load", "phase", "", "MissingField service[1].load.phase"),
    ("service[2]", "plo_throughput_rps", "plo_throughput_rps = 0.0", "Infeasible service[2].plo"),
    ("service[2].load", "from", "from = -1.0", "Infeasible service[2].load.from"),
    ("service[2].load", "to", "to = -1.0", "Infeasible service[2].load.to"),
    ("service[2].load", "to", "", "MissingField service[2].load.to"),
    (
        "service[2].load",
        "duration_secs",
        "duration_secs = 0.0",
        "Infeasible service[2].load.duration_secs",
    ),
    ("service[3].load", "base", "base = -1.0", "Infeasible service[3].load.base"),
    (
        "service[3].load",
        "spike_factor",
        "spike_factor = 0.5",
        "Infeasible service[3].load.spike_factor",
    ),
    (
        "service[3].load",
        "start_secs",
        "start_secs = -1.0",
        "InvalidValue service[3].load.start_secs @92",
    ),
    ("service[3].load", "start_secs", "", "MissingField service[3].load.start_secs"),
    (
        "service[3].load",
        "duration_secs",
        "duration_secs = 0.0",
        "Infeasible service[3].load.duration_secs",
    ),
    ("service[4].load", "low", "low = -1.0", "Infeasible service[4].load.low"),
    ("service[4].load", "high", "high = 5.0", "Infeasible service[4].load.high"),
    ("service[4].load", "high", "high = 1e999", "Infeasible service[4].load.high"),
    (
        "service[4].load",
        "mean_dwell_secs",
        "mean_dwell_secs = 0.0",
        "Infeasible service[4].load.mean_dwell_secs",
    ),
    ("service[4].load", "mean_dwell_secs", "", "MissingField service[4].load.mean_dwell_secs"),
    ("service[5].load", "points", "points = []", "Infeasible service[5].load.points"),
    (
        "service[5].load",
        "points",
        "points = [[200.0, 15.0], [0.0, 45.0]]",
        "Infeasible service[5].load.points",
    ),
    ("service[5].load", "points", "points = [[0.0, -15.0]]", "Infeasible service[5].load.points"),
    ("service[5].load", "points", "points = 5.0", "InvalidValue service[5].load.points @123"),
    (
        "service[5].load",
        "points",
        "points = [1.0, 2.0]",
        "InvalidValue service[5].load.points @123",
    ),
    (
        "service[5].load",
        "points",
        "points = [[0.0, \"x\"]]",
        "InvalidValue service[5].load.points @123",
    ),
    (
        "service[5].load",
        "points",
        "points = [[0.0, 1.0, 2.0]]",
        "InvalidValue service[5].load.points @123",
    ),
    (
        "service[5].load",
        "points",
        "points = [[-1.0, 5.0]]",
        "InvalidValue service[5].load.points @123",
    ),
    ("service[5].load", "points", "", "MissingField service[5].load.points"),
    ("batch[0]", "name", "name = \"\"", "Infeasible batch[0].name"),
    ("batch[0]", "submit_secs", "", "MissingField batch[0].submit_secs"),
    ("batch[0]", "submit_secs", "submit_secs = -1.0", "InvalidValue batch[0].submit_secs @127"),
    (
        "batch[0]",
        "plo_deadline_secs",
        "plo_deadline_secs = 0.0",
        "InvalidValue batch[0].plo_deadline_secs @128",
    ),
    (
        "batch[0]",
        "plo_deadline_secs",
        "plo_deadline_secs = -1.0",
        "InvalidValue batch[0].plo_deadline_secs @128",
    ),
    (
        "batch[0]",
        "plo_deadline_secs",
        "plo_deadline_secs = 500.0\nplo_p99_ms = 10.0",
        "InvalidValue batch[0].plo_deadline_secs @128",
    ),
    ("batch[0]", "plo_deadline_secs", "plo_p99_ms = 0.0", "Infeasible batch[0].plo"),
    (
        "batch[0]",
        "task_alloc",
        "task_alloc = [1e9, 2048.0, 50.0, 50.0]",
        "Infeasible batch[0].task_alloc",
    ),
    (
        "batch[0]",
        "task_alloc",
        "task_alloc = [-1.0, 2048.0, 50.0, 50.0]",
        "Infeasible batch[0].task_alloc",
    ),
    ("batch[0]", "max_parallel", "max_parallel = 0", "Infeasible batch[0].max_parallel"),
    ("batch[0]", "max_parallel", "", "MissingField batch[0].max_parallel"),
    ("batch[0]", "priority", "priority = \"urgent\"", "InvalidValue batch[0].priority @131"),
    (
        "batch[0]",
        "priority",
        "priority = \"preemptible\"\nbogus = 1",
        "UnknownField batch[0].bogus @132",
    ),
    ("batch[0].stage[0]", "tasks", "tasks = 0", "Infeasible batch[0].stage[0].tasks"),
    ("batch[0].stage[0]", "tasks", "tasks = -1", "InvalidValue batch[0].stage[0].tasks @134"),
    ("batch[0].stage[0]", "tasks", "", "MissingField batch[0].stage[0].tasks"),
    (
        "batch[0].stage[0]",
        "work",
        "work = [0.0, 0.0, 0.0, 0.0]",
        "Infeasible batch[0].stage[0].work",
    ),
    (
        "batch[0].stage[1]",
        "work",
        "work = [-1.0, 0.0, 0.0, 250.0]",
        "Infeasible batch[0].stage[1].work",
    ),
    ("batch[0].stage[1]", "records", "records = -1", "InvalidValue batch[0].stage[1].records @141"),
    (
        "batch[0].stage[1]",
        "records",
        "records = 1.5",
        "InvalidValue batch[0].stage[1].records @141",
    ),
    ("batch[0].stage[1]", "records", "", "MissingField batch[0].stage[1].records"),
    (
        "batch[0].stage[1]",
        "records",
        "records = 50000\nbogus = 1",
        "UnknownField batch[0].stage[1].bogus @142",
    ),
    ("hpc[0]", "name", "name = \"\"", "Infeasible hpc[0].name"),
    ("hpc[0]", "gang", "gang = 0", "Infeasible hpc[0].gang"),
    ("hpc[0]", "gang", "gang = \"4\"", "InvalidValue hpc[0].gang @146"),
    ("hpc[0]", "iterations", "iterations = 0", "Infeasible hpc[0].iterations"),
    ("hpc[0]", "work", "work = [-1.0, 0.0, 0.0, 100.0]", "Infeasible hpc[0].work"),
    (
        "hpc[0]",
        "rank_alloc",
        "rank_alloc = [1e9, 8192.0, 20.0, 200.0]",
        "Infeasible hpc[0].rank_alloc",
    ),
    ("hpc[0]", "deadline_secs", "deadline_secs = 0.0", "Infeasible hpc[0].deadline_secs"),
    ("hpc[0]", "deadline_secs", "", "MissingField hpc[0].deadline_secs"),
    ("hpc[0]", "priority", "priority = \"critical\"\nbogus = 1", "UnknownField hpc[0].bogus @152"),
    ("fault[0]", "kind", "", "MissingField fault[0].kind"),
    ("fault[0]", "kind", "kind = \"warp\"", "InvalidValue fault[0].kind @153"),
    ("fault[0]", "at_secs", "", "MissingField fault[0].at_secs"),
    ("fault[0]", "at_secs", "at_secs = 600.0", "Infeasible fault[0].at_secs"),
    ("fault[0]", "at_secs", "at_secs = -1.0", "InvalidValue fault[0].at_secs @155"),
    ("fault[0]", "node", "node = 4", "Infeasible fault[0].node"),
    ("fault[0]", "node", "node = -1", "InvalidValue fault[0].node @156"),
    ("fault[0]", "node", "", "MissingField fault[0].node"),
    ("fault[0]", "downtime_secs", "downtime_secs = 0.0", "Infeasible fault[0].downtime_secs"),
    (
        "fault[0]",
        "downtime_secs",
        "downtime_secs = -1.0",
        "InvalidValue fault[0].downtime_secs @157",
    ),
    ("fault[2]", "app", "app = 8", "Infeasible fault[2].app"),
    ("fault[2]", "app", "app = -1", "InvalidValue fault[2].app @167"),
    ("fault[2]", "duration_secs", "duration_secs = 0.0", "Infeasible fault[2].duration_secs"),
    ("fault[2]", "duration_secs", "", "MissingField fault[2].duration_secs"),
    ("fault[4]", "cv", "cv = -0.25", "InvalidValue fault[4].cv @180"),
    ("fault[4]", "cv", "cv = \"x\"", "InvalidValue fault[4].cv @180"),
    ("fault[4]", "cv", "", "MissingField fault[4].cv"),
    (
        "fault[7]",
        "at_secs",
        "at_secs = 190.0\nduration_secs = 9.0",
        "UnknownField fault[7].duration_secs @196",
    ),
    ("fault[9]", "lag_secs", "", "MissingField fault[9].lag_secs"),
    ("fault[9]", "lag_secs", "lag_secs = -1.0", "InvalidValue fault[9].lag_secs @206"),
    ("fault[10]", "fraction", "fraction = 1.5", "InvalidValue fault[10].fraction @212"),
    ("fault[10]", "fraction", "fraction = 0.0", "InvalidValue fault[10].fraction @212"),
    ("fault[11]", "cycles", "cycles = 0", "InvalidValue fault[11].cycles @218"),
    ("fault[11]", "cycles", "cycles = \"two\"", "InvalidValue fault[11].cycles @218"),
    ("fault[11]", "period_secs", "period_secs = 0.0", "InvalidValue fault[11].period_secs @219"),
    ("fault[11]", "period_secs", "", "MissingField fault[11].period_secs"),
    (
        "fault[11]",
        "period_secs",
        "period_secs = 8.0\nbogus = 1",
        "UnknownField fault[11].bogus @220",
    ),
];

/// Every rejection site keeps its `(variant, field, line)`. Three rules
/// no one-line edit of the coverage file reaches take a document of
/// their own, and the rules text cannot reach at all (an empty stage
/// list, a fault parameter out of range in a spec built in code) are
/// asked of `validate()`.
#[test]
fn single_defect_documents_keep_their_error() {
    let mut failures = Vec::new();
    let mut check = |case: String, got: Result<(), ScenarioError>, want: &str| {
        let got = got.map_or_else(triple, |()| "accepted".into());
        if got != want {
            failures.push(format!("{case}: got {got}, want {want}"));
        }
    };
    for &(path, key, with, want) in SINGLE_DEFECTS {
        let got = ScenarioSpec::from_toml_str(&edit(path, key, with)).map(drop);
        check(format!("{path} {key} -> {with:?}"), got, want);
    }
    let documents = [
        (
            "name = \"x\"\ndescription = \"d\"\nhorizon_secs = 60\n\n[cluster]\nnodes = 2\n".into(),
            "Infeasible scenario",
        ),
        ("name = \"x\"\nhorizon_secs = 60\nbatch = 1\n".into(), "InvalidValue scenario.batch @3"),
        (COVERAGE.replace("[[batch.stage]]", "[[batch.step]]"), "MissingField batch[0].stage"),
    ];
    for (doc, want) in documents {
        check(doc.lines().take(3).collect(), ScenarioSpec::from_toml_str(&doc).map(drop), want);
    }
    type Defect = fn(&mut ScenarioSpec);
    let in_code: [(Defect, &str); 5] = [
        (|s| s.batch_jobs[0].stages.clear(), "Infeasible batch[0].stage"),
        (
            |s| {
                s.faults[4].kind =
                    FaultKind::MetricNoise { app: None, duration: secs(1.0), cv: f64::NAN }
            },
            "Infeasible fault[4].cv",
        ),
        (
            |s| {
                s.faults[10].kind =
                    FaultKind::ActuationPartial { duration: secs(1.0), fraction: 1.5 }
            },
            "Infeasible fault[10].fraction",
        ),
        (
            |s| {
                s.faults[11].kind =
                    FaultKind::NodeFlap { node: NodeId::new(3), cycles: 0, period: secs(8.0) }
            },
            "Infeasible fault[11].cycles",
        ),
        (
            |s| {
                s.faults[11].kind = FaultKind::NodeFlap {
                    node: NodeId::new(3),
                    cycles: 3,
                    period: SimDuration::ZERO,
                }
            },
            "Infeasible fault[11].period_secs",
        ),
    ];
    for (i, (break_it, want)) in in_code.into_iter().enumerate() {
        let mut spec = coverage_spec();
        break_it(&mut spec);
        check(format!("in-code case {i}"), spec.validate(), want);
    }
    assert!(failures.is_empty(), "{} cases moved:\n{}", failures.len(), failures.join("\n"));
}

/// Every `scenarios/*.toml`, as `(file stem, text)`, sorted by stem.
fn scenario_files() -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(scenarios_dir())
        .expect("read scenarios/")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "toml"))
        .map(|path| {
            let stem = path.file_stem().expect("file stem").to_string_lossy().into_owned();
            let text = std::fs::read_to_string(&path).expect("read scenario file");
            (stem, text)
        })
        .collect();
    files.sort();
    files
}

/// Every checked-in file parses, and `to_toml()` re-emits it byte for
/// byte: a file is written in the one canonical form the spec layer
/// writes.
#[test]
fn scenarios_are_canonical() {
    for (stem, text) in scenario_files() {
        let spec = ScenarioSpec::from_toml_str(&text).unwrap_or_else(|err| panic!("{stem}: {err}"));
        assert_eq!(spec.to_toml(), text, "{stem}.toml is not in canonical form");
    }
}

/// [`BUILTINS`] lists exactly the files in `scenarios/`.
#[test]
fn builtin_table_matches_the_directory() {
    let mut names: Vec<&str> = BUILTINS.iter().map(|(name, _)| *name).collect();
    names.sort_unstable();
    let stems: Vec<String> = scenario_files().into_iter().map(|(stem, _)| stem).collect();
    assert_eq!(names, stems);
}

fn fnv1a(text: &str) -> u64 {
    text.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `headline(scale)` and `cluster_scale(nodes, apps, horizon)` emit what
/// the Rust emitters they replaced emitted: the FNV-1a digests of
/// `to_toml()` below were taken from those emitters and are not to be
/// regenerated.
#[test]
fn parametric_builtins_reproduce_the_emitters() {
    for (scale, want) in [
        (0.2, 0xdab6_f5d2_584e_d00e_u64),
        (0.5, 0x2536_3a3e_ffa1_00f8),
        (1.0, 0x5ff4_dd64_3614_018f),
        (2.0, 0xa9da_228e_1c99_c6f3),
    ] {
        let got = fnv1a(&ScenarioSpec::headline(scale).to_toml());
        assert_eq!(got, want, "headline({scale}): {got:016x}");
    }
    for (nodes, apps, secs, want) in [
        (12, 4, 60, 0x7bc4_9a31_7bb0_dace_u64),
        (30, 4, 300, 0x568f_a980_ff43_4493),
        (60, 8, 360, 0x8214_74ed_e658_6a2b),
        (100, 4, 600, 0xbcf4_f103_484b_4ec8),
        (250, 40, 600, 0x2f00_d364_9d72_e96a),
        (1_000, 40, 600, 0x87fd_8dea_cf0b_1d8c),
        (5_000, 40, 300, 0x5988_7d05_673b_8e0b),
    ] {
        let spec = ScenarioSpec::cluster_scale(nodes, apps, SimDuration::from_secs(secs));
        let got = fnv1a(&spec.to_toml());
        assert_eq!(got, want, "cluster_scale({nodes}, {apps}, {secs} s): {got:016x}");
    }
}

/// Every load kind draws the same arrival stream under both sampling
/// modes: the count, the legacy bailouts and the FNV-1a digest of the
/// instants (in microseconds) up to 600 s at seed 42 are pinned per
/// service of the coverage spec, one service per load kind.
#[test]
fn every_load_kind_samples_the_same_stream() {
    let want = [
        ("web", SamplingMode::Legacy, 30_019, 0, 0x1ba5_ca41_968e_72a6_u64),
        ("web", SamplingMode::Batched, 30_087, 0, 0x2319_1d54_89d0_5d2a),
        ("api", SamplingMode::Legacy, 48_097, 0, 0x85b7_4c1d_d97f_ea2a),
        ("api", SamplingMode::Batched, 47_794, 0, 0x3b1a_6c57_a151_bae1),
        ("ingest", SamplingMode::Legacy, 30_108, 0, 0xf006_772e_e794_0a65),
        ("ingest", SamplingMode::Batched, 30_157, 0, 0x440a_82b4_0dfe_8d53),
        ("promo", SamplingMode::Legacy, 13_912, 0, 0x482f_de46_4756_cdd5),
        ("promo", SamplingMode::Batched, 13_961, 0, 0xd80b_b16f_2482_8d2f),
        ("bursty", SamplingMode::Legacy, 25_722, 0, 0x60a2_3d86_7f7f_575a),
        ("bursty", SamplingMode::Batched, 25_573, 0, 0xea0d_ff04_9cb9_7e03),
        ("replay", SamplingMode::Legacy, 12_955, 0, 0xbaf4_1a06_15db_5b94),
        ("replay", SamplingMode::Batched, 13_164, 0, 0x3d34_859b_12fc_d887),
    ];
    let spec = coverage_spec();
    let horizon = SimTime::from_secs(600);
    let mut got = Vec::new();
    for service in &spec.services {
        for mode in [SamplingMode::Legacy, SamplingMode::Batched] {
            let mut arrivals = PoissonArrivals::with_mode(service.load.build(), mode);
            let mut rng = ChaCha8Rng::seed_from_u64(42);
            let (mut t, mut count, mut text) = (SimTime::ZERO, 0, String::new());
            while let Some(next) = arrivals.next_after(t, &mut rng) {
                if next > horizon {
                    break;
                }
                writeln!(text, "{}", next.as_micros()).unwrap();
                t = next;
                count += 1;
            }
            got.push((
                service.name.as_str(),
                mode,
                count,
                arrivals.thinning_bailouts(),
                fnv1a(&text),
            ));
        }
    }
    assert_eq!(got, want);
}

#[test]
fn syntax_errors_carry_the_line() {
    let err = ScenarioSpec::from_toml_str("name = \"x\"\n= broken\n").unwrap_err();
    match err {
        ScenarioError::Syntax { line, .. } => assert_eq!(line, 2),
        other => panic!("expected Syntax, got {other}"),
    }
}

#[test]
fn unknown_fields_are_rejected_with_table_context() {
    let toml = "name = \"x\"\ndescription = \"d\"\nhorizon_secs = 60\nbogus = 1\n";
    match ScenarioSpec::from_toml_str(toml).unwrap_err() {
        ScenarioError::UnknownField { table, field, .. } => {
            assert_eq!(table, "scenario");
            assert_eq!(field, "bogus");
        }
        other => panic!("expected UnknownField, got {other}"),
    }
}

#[test]
fn missing_required_fields_are_typed() {
    // No `name`.
    let toml = "description = \"d\"\nhorizon_secs = 60\n";
    match ScenarioSpec::from_toml_str(toml).unwrap_err() {
        ScenarioError::MissingField { table, field } => {
            assert_eq!(table, "scenario");
            assert_eq!(field, "name");
        }
        other => panic!("expected MissingField, got {other}"),
    }
}

/// `single_diurnal` (6 nodes, 1 app, 900 s) with one `[[fault]]` table
/// appended; returns the document and the 1-based line of `key`.
fn with_fault(body: &str, key: &str) -> (String, usize) {
    let toml = ScenarioSpec::builtin("single_diurnal").expect("builtin").to_toml();
    let toml = format!("{toml}\n[[fault]]\n{body}");
    let line = toml.lines().position(|l| l.starts_with(key)).expect("key present") + 1;
    (toml, line)
}

#[test]
fn invalid_values_are_typed() {
    // A valid one-service document with a `priority` line put in; each
    // case is (document, offending field, its 1-based line — `None` for a
    // value that is well-formed but can never run).
    let with_priority = |value: &str| {
        let toml = ScenarioSpec::builtin("single_diurnal").expect("builtin").to_toml();
        let toml =
            toml.replacen("replicas = 2\n", &format!("replicas = 2\npriority = {value}\n"), 1);
        let line = toml.lines().position(|l| l.starts_with("priority")).expect("inserted") + 1;
        (toml, "service[0].priority", Some(line))
    };
    let cases = [
        (
            "name = \"x\"\ndescription = \"d\"\nhorizon_secs = -5\n".to_string(),
            "scenario.horizon_secs",
            Some(3),
        ),
        with_priority("\"urgent\""),
        with_priority("3"),
        // A fault starting at the horizon never fires; app 1 of 1 does not exist.
        (
            with_fault("kind = \"control_stall\"\nat_secs = 900.0\nduration_secs = 5.0\n", "kind")
                .0,
            "fault[0].at_secs",
            None,
        ),
        (
            with_fault(
                "kind = \"scrape_blackout\"\nat_secs = 10.0\napp = 1\nduration_secs = 5.0\n",
                "kind",
            )
            .0,
            "fault[0].app",
            None,
        ),
    ];
    for (toml, want_field, want_line) in cases {
        match (ScenarioSpec::from_toml_str(&toml).unwrap_err(), want_line) {
            (ScenarioError::InvalidValue { line, field, .. }, Some(want_line)) => {
                assert_eq!((field.as_str(), line), (want_field, want_line), "{toml}");
            }
            (ScenarioError::Infeasible { field, .. }, None) => assert_eq!(field, want_field),
            (other, _) => panic!("expected `{want_field}` to be rejected, got {other}"),
        }
    }
}

/// What the chaos reproducer's own reader used to reject, through the one
/// reader there is now: every malformed `[[fault]]` or `[repro]` table is
/// a typed error naming the field, with the line wherever there is one.
#[test]
fn malformed_faults_are_typed_with_the_line() {
    let invalid = |body: &str, key: &str, want_field: &str| {
        let (toml, want_line) = with_fault(body, key);
        match ScenarioSpec::from_toml_str(&toml).unwrap_err() {
            ScenarioError::InvalidValue { line, field, .. } => {
                assert_eq!((field.as_str(), line), (want_field, want_line), "{body}");
            }
            other => panic!("expected InvalidValue for `{want_field}`, got {other}"),
        }
    };
    // Unknown kind: the line is the `[[fault]]` header's.
    invalid("kind = \"warp_core_breach\"\nat_secs = 5.0\n", "[[fault]]", "fault[0].kind");
    // Wrong type.
    invalid(
        "kind = \"node_flap\"\nat_secs = 5.0\nnode = 0\ncycles = \"two\"\nperiod_secs = 4.0\n",
        "cycles",
        "fault[0].cycles",
    );
    invalid("kind = \"node_crash\"\nat_secs = 5.0\nnode = -1\n", "node =", "fault[0].node");
    // Out of range, by `FaultKind`'s own rule.
    invalid(
        "kind = \"actuation_partial\"\nat_secs = 5.0\nduration_secs = 9.0\nfraction = 1.5\n",
        "fraction",
        "fault[0].fraction",
    );
    invalid(
        "kind = \"metric_noise\"\nat_secs = 5.0\nduration_secs = 9.0\ncv = -0.25\n",
        "cv",
        "fault[0].cv",
    );
    invalid(
        "kind = \"node_flap\"\nat_secs = 5.0\nnode = 0\ncycles = 0\nperiod_secs = 4.0\n",
        "cycles",
        "fault[0].cycles",
    );

    let error_of =
        |body: &str| ScenarioSpec::from_toml_str(&with_fault(body, "kind").0).unwrap_err();
    // A missing field (a file cut off inside its last table).
    match error_of("kind = \"actuation_delay\"\nat_secs = 5.0\nduration_secs = 9.0\n") {
        ScenarioError::MissingField { table, field } => {
            assert_eq!((table.as_str(), field.as_str()), ("fault[0]", "lag_secs"));
        }
        other => panic!("expected MissingField, got {other}"),
    }
    // A field the kind does not have.
    match error_of("kind = \"controller_crash\"\nat_secs = 5.0\nduration_secs = 9.0\n") {
        ScenarioError::UnknownField { table, field, .. } => {
            assert_eq!((table.as_str(), field.as_str()), ("fault[0]", "duration_secs"));
        }
        other => panic!("expected UnknownField, got {other}"),
    }
    // `[repro]` needs both of its fields and has no others.
    let stall = "kind = \"control_stall\"\nat_secs = 5.0\nduration_secs = 9.0\n";
    match error_of(&format!("{stall}\n[repro]\nviolation = \"gang_atomicity\"\n")) {
        ScenarioError::MissingField { table, field } => {
            assert_eq!((table.as_str(), field.as_str()), ("repro", "seed"));
        }
        other => panic!("expected MissingField, got {other}"),
    }
    match error_of(&format!("{stall}\n[repro]\nseed = 7\nviolation = \"x\"\nprofile = \"p\"\n")) {
        ScenarioError::UnknownField { table, field, .. } => {
            assert_eq!((table.as_str(), field.as_str()), ("repro", "profile"));
        }
        other => panic!("expected UnknownField, got {other}"),
    }
}

#[test]
fn empty_workload_is_infeasible_not_a_panic() {
    // Structurally fine, but declares nothing to run.
    let toml = "name = \"x\"\ndescription = \"d\"\nhorizon_secs = 60\n\n[cluster]\nnodes = 2\n";
    match ScenarioSpec::from_toml_str(toml).unwrap_err() {
        ScenarioError::Infeasible { field, .. } => assert_eq!(field, "scenario"),
        other => panic!("expected Infeasible, got {other}"),
    }
}

#[test]
fn oversized_allocation_is_infeasible() {
    // A valid builtin, then one service's per-pod allocation inflated
    // past any node: the semantic check must name the offending field.
    let mut spec = ScenarioSpec::builtin("single_diurnal").expect("builtin");
    spec.services[0].alloc = evolve_types::ResourceVec::new(1e9, 1e9, 1e9, 1e9);
    match spec.validate().unwrap_err() {
        ScenarioError::Infeasible { field, .. } => assert!(field.contains("alloc"), "{field}"),
        other => panic!("expected Infeasible, got {other}"),
    }
}

/// A spec built in code is held to the rules a file is: `build()` panics
/// with the [`ScenarioError::Infeasible`] that `validate()` reports, at
/// the broken entry field's path.
#[test]
fn build_panics_with_the_field_path_of_a_broken_entry() {
    type Defect = fn(&mut ScenarioSpec);
    let cases: [(&str, Defect); 6] = [
        ("batch[0].stage", |s| s.batch_jobs[0].stages.clear()),
        ("batch[1].stage[0].tasks", |s| s.batch_jobs[1].stages[0].tasks = 0),
        ("hpc[1].gang", |s| s.hpc_jobs[1].gang = 0),
        ("service[2].replicas", |s| s.services[2].replicas = 0),
        ("service[3].base_memory_mib", |s| s.services[3].base_memory_mib = -1.0),
        ("hpc[0].rank_alloc", |s| s.hpc_jobs[0].rank_alloc = vec4(64_000.0, 1.0, 1.0, 1.0)),
    ];
    for (path, defect) in cases {
        let mut spec = ScenarioSpec::headline(1.0);
        defect(&mut spec);
        let err = spec.validate().unwrap_err();
        assert!(
            matches!(&err, ScenarioError::Infeasible { field, .. } if field == path),
            "{path}: {err}"
        );
        let panic = std::panic::catch_unwind(|| spec.build()).expect_err(path);
        let message = panic.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(*message, err.to_string(), "{path}");
    }
}

#[test]
fn unknown_builtin_name_is_typed() {
    match ScenarioSpec::builtin("nope").unwrap_err() {
        ScenarioError::UnknownScenario { name } => assert_eq!(name, "nope"),
        other => panic!("expected UnknownScenario, got {other}"),
    }
}

/// Truncating a valid document at every character boundary must produce
/// `Err`, never a panic (the parser sees arbitrary prefixes from editors
/// and partial writes).
#[test]
fn truncated_documents_never_panic() {
    for full in [ScenarioSpec::headline(1.0).to_toml(), COVERAGE.to_string()] {
        for end in 0..full.len() {
            if !full.is_char_boundary(end) {
                continue;
            }
            // Any prefix is allowed to parse (a shorter valid doc) or fail
            // with a typed error; what it must not do is panic.
            let _ = ScenarioSpec::from_toml_str(&full[..end]);
        }
    }
}

/// `from_file` on a missing path reports `Io` with the path embedded.
#[test]
fn missing_file_is_an_io_error() {
    match ScenarioSpec::from_file("/nonexistent/evolve/spec.toml").unwrap_err() {
        ScenarioError::Io { path, .. } => assert!(path.contains("nonexistent")),
        other => panic!("expected Io, got {other}"),
    }
}
