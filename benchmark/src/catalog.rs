//! The benchmark's contract in one place: the workloads, every metric's
//! name, unit, direction and bound, and the `BENCHMARK.json` they add up
//! to. The committed `BENCHMARK.json` is this module's output, and a
//! test keeps the two identical.

use evolve::prelude::*;

/// How long one run measures unless `--seconds` says otherwise; also
/// `run_seconds` in `BENCHMARK.json`.
pub const RUN_SECONDS: u32 = 20;

/// One benchmark workload: a scenario, the manager under test, and how
/// many consecutive seeds (`S … S+K−1`) one run cycles through.
pub struct Workload {
    pub name: &'static str,
    /// Why the workload exists, in one line (≤ 200 characters).
    pub why: &'static str,
    pub seeds: u64,
    pub spec: fn() -> ScenarioSpec,
    pub manager: fn() -> ManagerKind,
    /// `cluster_scale` runs keep the EVOLVE scheduler profile under either
    /// manager and record no series, as `perf_macro`'s scaled profile does.
    pub scaled: bool,
}

impl Workload {
    /// The run configuration of one rep. Node count and shape come from
    /// the spec, so the scenario text stored beside the numbers is the
    /// whole workload definition.
    pub fn config(&self, spec: &ScenarioSpec, seed: u64) -> RunConfig {
        let builder = RunConfig::from_spec(spec, (self.manager)()).seed(seed);
        if self.scaled {
            builder.scheduler(SchedulerProfile::Evolve).record_series(false).build()
        } else {
            builder.build()
        }
    }
}

fn scaled_spec(nodes: usize) -> ScenarioSpec {
    ScenarioSpec::cluster_scale(nodes, 40, SimDuration::from_secs(600))
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "headline_evolve",
        why: "the paper's headline mix under EVOLVE on 20 nodes: shallow queues, about nine tenths of wall in the engine's event loop and arrival sampling",
        seeds: 10,
        spec: || ScenarioSpec::headline(1.0),
        manager: || ManagerKind::Evolve,
        scaled: false,
    },
    Workload {
        name: "headline_static",
        why: "the same mix unmanaged (kube-static): queues grow deep and the same events cost four times the wall, so a drain change that only helps shallow queues shows as a loss",
        seeds: 10,
        spec: || ScenarioSpec::headline(1.0),
        manager: || ManagerKind::KubeStatic,
        scaled: false,
    },
    Workload {
        name: "scale1k_churn",
        why: "1 000-node cluster_scale under static replicas: a 12 000-pod fill plus steady churn, about four fifths of wall in scheduler cycles and almost none in the engine",
        seeds: 2,
        spec: || scaled_spec(1_000),
        manager: || ManagerKind::KubeStatic,
        scaled: true,
    },
    Workload {
        name: "ctrl250_evolve",
        why: "250-node cluster_scale under EVOLVE: 40 PID stacks resizing pods every tick make the manager tick the largest share, with the scheduler second",
        seeds: 10,
        spec: || scaled_spec(250),
        manager: || ManagerKind::Evolve,
        scaled: true,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the simulator sees; `bound` is the share of the
/// parent's median by which it may worsen before a change is rejected.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "sim_s_per_wall_s",
        unit: "sim-s/wall-s",
        better: Better::Higher,
        bound: 0.15,
    },
    EndToEnd { name: "peak_rss_mib", unit: "MiB", better: Better::Lower, bound: 0.20 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "plo_compliance_rate", unit: "fraction", better: Better::Higher, bound: 0.02 },
    EndToEnd {
        name: "request_success_share",
        unit: "fraction",
        better: Better::Higher,
        bound: 0.05,
    },
    EndToEnd { name: "alloc_efficiency", unit: "fraction", better: Better::Higher, bound: 0.15 },
];

/// A metric of one layer; no bound. For exact counts the direction is
/// nominal: they exist to be compared for equality.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 44] = [
    layer("sim.engine_share", "fraction", Better::Lower),
    layer("sim.engine_ns_per_event", "ns", Better::Lower),
    layer("sim.events", "count", Better::Lower),
    layer("sim.ps_drain_ns_per_req.depth8", "ns", Better::Lower),
    layer("sim.ps_drain_ns_per_req.depth512", "ns", Better::Lower),
    layer("sim.actuate_share", "fraction", Better::Lower),
    layer("sim.bind_us_per_pod", "us", Better::Lower),
    layer("sim.snapshot_us_p50", "us", Better::Lower),
    layer("workload.arrival_ns_per_arrival", "ns", Better::Lower),
    layer("workload.arrivals", "count", Better::Higher),
    layer("workload.arrival_est_share", "fraction", Better::Lower),
    layer("workload.spec_parse_us", "us", Better::Lower),
    layer("workload.scenario_build_us", "us", Better::Lower),
    layer("core.construct_ms", "ms", Better::Lower),
    layer("core.manager_tick_share", "fraction", Better::Lower),
    layer("core.manager_tick_us_p50", "us", Better::Lower),
    layer("core.manager_tick_us_p99", "us", Better::Lower),
    layer("core.ticks", "count", Better::Higher),
    layer("control.controller_step_ns", "ns", Better::Lower),
    layer("control.arbitrate_us_per_app", "us", Better::Lower),
    layer("telemetry.record_share", "fraction", Better::Lower),
    layer("telemetry.record_ns_per_sample", "ns", Better::Lower),
    layer("telemetry.fast_metric_records", "count", Better::Higher),
    layer("telemetry.quantile_ns_per_insert", "ns", Better::Lower),
    layer("scheduler.cycle_share", "fraction", Better::Lower),
    layer("scheduler.cycle_us_p50", "us", Better::Lower),
    layer("scheduler.cycle_us_p99", "us", Better::Lower),
    layer("scheduler.us_per_bound_pod", "us", Better::Lower),
    layer("scheduler.bindings", "count", Better::Higher),
    layer("scheduler.preemptions", "count", Better::Lower),
    layer("scheduler.feasibility_work_per_pod", "count", Better::Lower),
    layer("scheduler.fill_us_per_pod.n1000", "us", Better::Lower),
    layer("scheduler.fill_us_per_pod.n2000", "us", Better::Lower),
    layer("scheduler.fill_scaling", "ratio", Better::Lower),
    layer("trace.coverage_share", "fraction", Better::Higher),
    layer("trace.overhead_share", "fraction", Better::Lower),
    layer("trace.digest_match", "fraction", Better::Higher),
    layer("host.slow_state_share", "fraction", Better::Lower),
    layer("host.calib_ms_p25", "ms", Better::Lower),
    layer("host.runq_wait_share", "fraction", Better::Lower),
    layer("host.raw_sim_s_per_wall_s_p50", "sim-s/wall-s", Better::Higher),
    layer("host.rep_wall_ms_p50", "ms", Better::Lower),
    layer("host.rep_wall_ms_p90", "ms", Better::Lower),
    layer("host.reps", "count", Better::Higher),
];

/// The unit of a metric of either kind, or `None` for a name the
/// contract does not list.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find_map(|(n, unit)| (n == name).then_some(unit))
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    out.push_str(&format!("  \"workloads\": [\n{}\n  ],\n", workloads.join(",\n")));
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.label(),
                m.bound
            )
        })
        .collect();
    out.push_str(&format!("  \"end_to_end\": [\n{}\n  ],\n", end_to_end.join(",\n")));
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.label()
            )
        })
        .collect();
    out.push_str(&format!("  \"per_layer\": [\n{}\n  ]\n}}\n", per_layer.join(",\n")));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_stay_inside_the_contract() {
        let mut seen = HashSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(valid_name(name), "bad name {name}");
            assert!(seen.insert(name), "name {name} used twice");
        }
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(valid_unit(unit), "bad unit {unit}");
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "why of {} too long", w.name);
            assert!(w.seeds >= 1);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "bound of {} out of range", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s takes the widest bound"
        );
    }

    #[test]
    fn committed_manifest_is_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest_json(), "regenerate with `benchmark/run.sh --manifest`");
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn every_workload_builds_its_configuration_from_its_own_text() {
        for w in &WORKLOADS {
            let text = (w.spec)().to_toml();
            let spec = ScenarioSpec::from_toml_str(&text).expect("emitted text parses back");
            assert_eq!(spec, (w.spec)(), "{}: text round trip changed the spec", w.name);
            let config = w.config(&spec, 7);
            assert_eq!(config.seed, 7);
            assert_eq!(config.nodes, spec.cluster.nodes);
            assert_eq!(config.record_series, !w.scaled);
            assert!(
                config.indexed_scheduling && config.faults.is_empty() && config.arbiter.is_none()
            );
        }
    }
}
