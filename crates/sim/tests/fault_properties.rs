//! Property tests for the fault-injection subsystem: randomized fault
//! schedules realized through the `FaultInjector` and interleaved with
//! scheduling and resize traffic must never corrupt cluster accounting,
//! leave pods on unready nodes, or panic; and the injector's timeline is
//! the schedule, flaps expanded, in its documented order.

use std::cmp::Ordering;
use std::ops::Range;

use evolve_sim::{
    ClusterConfig, FaultEvent, FaultInjector, FaultKind, NodeShape, Simulation, SimulationConfig,
};
use evolve_types::{AppId, NodeId, PodId, ResourceVec, SimDuration, SimTime};
use evolve_workload::{ScenarioSpec, WorkloadMix};
use proptest::prelude::*;

const NODES: usize = 4;
const HORIZON_SECS: u64 = 300;

/// One fault of any kind starting at a second in `at`; a blackout or a
/// noise window covers every app or only app 0.
fn arb_fault(at: Range<u64>) -> impl Strategy<Value = FaultEvent> {
    fn ev(at: u64, kind: FaultKind) -> FaultEvent {
        FaultEvent { at: SimTime::from_secs(at), kind }
    }
    let secs = SimDuration::from_secs;
    let node = |n: u8| NodeId::new(u32::from(n));
    let scope = |scoped: bool| scoped.then_some(AppId::new(0));
    let at = move || at.clone();
    prop_oneof![
        (0u8..NODES as u8, at(), 5u64..120, any::<bool>()).prop_map(
            move |(n, at, downtime, permanent)| {
                let downtime = (!permanent).then_some(secs(downtime));
                ev(at, FaultKind::NodeCrash { node: node(n), downtime })
            }
        ),
        (at(), 5u64..90, any::<bool>()).prop_map(move |(at, d, scoped)| {
            ev(at, FaultKind::ScrapeBlackout { app: scope(scoped), duration: secs(d) })
        }),
        (at(), 5u64..90, 0.05f64..0.8, any::<bool>()).prop_map(move |(at, d, cv, scoped)| {
            ev(at, FaultKind::MetricNoise { app: scope(scoped), duration: secs(d), cv })
        }),
        at().prop_map(|at| ev(at, FaultKind::ControllerCrash)),
        (at(), 5u64..60)
            .prop_map(move |(at, d)| ev(at, FaultKind::ControlStall { duration: secs(d) })),
        (at(), 5u64..60)
            .prop_map(move |(at, d)| ev(at, FaultKind::ActuationDrop { duration: secs(d) })),
        (at(), 5u64..60, 1u64..30).prop_map(move |(at, d, lag)| {
            ev(at, FaultKind::ActuationDelay { duration: secs(d), lag: secs(lag) })
        }),
        (at(), 5u64..60, 0.1f64..1.0).prop_map(move |(at, d, fraction)| {
            ev(at, FaultKind::ActuationPartial { duration: secs(d), fraction })
        }),
        (0u8..NODES as u8, at(), 1u8..5, 4u64..30).prop_map(move |(n, at, cycles, period)| {
            let (cycles, period) = (u32::from(cycles), secs(period));
            ev(at, FaultKind::NodeFlap { node: node(n), cycles, period })
        }),
    ]
}

/// The timeline the injector's former per-kind tables produced: flaps
/// expanded in place, each kind's table sorted by its own key (node for a
/// crash, end time for an interval, end time then lag for a delay), the
/// tables concatenated in kind order, then a stable sort by start time.
fn reference_timeline(faults: &[FaultEvent]) -> Vec<FaultEvent> {
    let mut expanded = Vec::new();
    for ev in faults {
        match ev.kind {
            FaultKind::NodeFlap { node, cycles, period } => {
                for c in 0..u64::from(cycles) {
                    let kind = FaultKind::NodeCrash { node, downtime: Some(period / 2) };
                    expanded.push(FaultEvent { at: ev.at + period * c, kind });
                }
            }
            _ => expanded.push(ev.clone()),
        }
    }
    let end = |ev: &FaultEvent| match ev.kind {
        FaultKind::ScrapeBlackout { duration, .. }
        | FaultKind::MetricNoise { duration, .. }
        | FaultKind::ControlStall { duration }
        | FaultKind::ActuationDrop { duration }
        | FaultKind::ActuationDelay { duration, .. }
        | FaultKind::ActuationPartial { duration, .. } => ev.at + duration,
        _ => ev.at,
    };
    let table_order = |a: &FaultEvent, b: &FaultEvent| -> Ordering {
        let own = match (&a.kind, &b.kind) {
            (FaultKind::NodeCrash { node: x, .. }, FaultKind::NodeCrash { node: y, .. }) => {
                x.cmp(y)
            }
            (
                FaultKind::ActuationDelay { lag: x, .. },
                FaultKind::ActuationDelay { lag: y, .. },
            ) => end(a).cmp(&end(b)).then(x.cmp(y)),
            _ => end(a).cmp(&end(b)),
        };
        a.at.cmp(&b.at).then(own)
    };
    let kinds = [
        "node_crash",
        "scrape_blackout",
        "metric_noise",
        "control_stall",
        "controller_crash",
        "actuation_drop",
        "actuation_delay",
        "actuation_partial",
    ];
    let mut out = Vec::new();
    for label in kinds {
        let mut table: Vec<FaultEvent> =
            expanded.iter().filter(|ev| ev.kind.label() == label).cloned().collect();
        table.sort_by(table_order);
        out.extend(table);
    }
    out.sort_by_key(|ev| ev.at);
    out
}

/// `true` when the realized fault `ev` covers `t`: half-open intervals, a
/// permanent crash from its start on, a controller crash never.
fn covers(ev: &FaultEvent, t: SimTime) -> bool {
    let end = match ev.kind {
        FaultKind::NodeCrash { downtime: None, .. } => return ev.at <= t,
        FaultKind::NodeCrash { downtime: Some(d), .. } => ev.at + d,
        FaultKind::ControllerCrash | FaultKind::NodeFlap { .. } => return false,
        FaultKind::ScrapeBlackout { duration, .. }
        | FaultKind::MetricNoise { duration, .. }
        | FaultKind::ControlStall { duration }
        | FaultKind::ActuationDrop { duration }
        | FaultKind::ActuationDelay { duration, .. }
        | FaultKind::ActuationPartial { duration, .. } => ev.at + duration,
    };
    ev.at <= t && t < end
}

/// A service plus a 2-rank HPC gang, so node crashes hit both lone
/// replicas and partial gangs.
fn workload() -> WorkloadMix {
    let text = r#"
name = "workload"
horizon_secs = 3600.0

[[service]]
name = "svc"
class = "rq"
demand = [15.0, 4.0, 0.5, 0.5]
demand_cv = 0.6
timeout_secs = 8.0
plo_p99_ms = 100.0
alloc = [1500.0, 1536.0, 20.0, 20.0]
replicas = 2

[service.load]
kind = "constant"
rate = 40.0

[[hpc]]
name = "h"
submit_secs = 10.0
gang = 2
iterations = 20
work = [2000.0, 512.0, 5.0, 10.0]
rank_alloc = [2000.0, 1024.0, 10.0, 20.0]
deadline_secs = 600.0
"#;
    ScenarioSpec::from_toml_str(text).expect("a valid scenario").build().mix
}

fn bind_first_fit(sim: &mut Simulation) {
    let pending: Vec<PodId> = sim.cluster().pending_pods().map(|p| p.id).collect();
    for pod in pending {
        let request = sim.cluster().pod(pod).expect("pending pod").spec.request;
        let node =
            sim.cluster().nodes().iter().find(|n| n.can_fit(&request)).map(evolve_sim::Node::id);
        if let Some(node) = node {
            sim.bind_pod(pod, node).expect("first-fit binding");
        }
    }
}

/// No pod may sit on (or hold capacity of) a node that is not ready.
fn assert_no_pods_on_unready_nodes(sim: &Simulation) {
    for node in sim.cluster().nodes() {
        if !node.is_ready() {
            assert!(
                node.pods().is_empty(),
                "unready node {:?} still hosts pods {:?}",
                node.id(),
                node.pods()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn random_fault_plans_preserve_invariants(
        seed in 0u64..1_000,
        faults in prop::collection::vec(arb_fault(1..HORIZON_SECS), 0..16),
    ) {
        let mut sim = Simulation::new(
            SimulationConfig::default(),
            ClusterConfig::uniform(NODES, NodeShape::default()),
            &workload(),
            seed,
        );
        let service = sim.apps()[0].id;
        let mut injector = FaultInjector::new(&faults, seed);
        injector.arm(&mut sim);

        // A 5 s control loop interleaving scheduling and resize traffic
        // with the armed fault schedule.
        let mut now = SimTime::ZERO;
        let mut tick = 0u64;
        while now < SimTime::from_secs(HORIZON_SECS) {
            now += SimDuration::from_secs(5);
            tick += 1;
            sim.run_until(now);
            sim.cluster().check_invariants();
            assert_no_pods_on_unready_nodes(&sim);
            if injector.controller_stalled(now) {
                continue; // stalled control plane: no decisions this tick
            }
            bind_first_fit(&mut sim);
            if injector.scrape_available(service, now) {
                if let Ok(mut w) = sim.take_window(service) {
                    injector.distort_window(service, &mut w);
                    prop_assert!(w.usage.is_valid(), "distorted usage invalid: {:?}", w.usage);
                    prop_assert!(w.alloc.is_valid(), "distorted alloc invalid: {:?}", w.alloc);
                }
            }
            // Periodic resize/scale pressure so crashes interleave with
            // actuation, not just passive load.
            if tick.is_multiple_of(3) {
                let replicas = (tick % 4) as u32 + 1;
                let cpu = 800.0 + (tick % 5) as f64 * 150.0;
                let _ = sim.set_target(
                    service,
                    replicas,
                    ResourceVec::new(cpu, 1_536.0, 20.0, 20.0),
                    1.0,
                );
            }
            sim.cluster().check_invariants();
            assert_no_pods_on_unready_nodes(&sim);
        }
        // Quiet drain: recoveries past the horizon may still be queued.
        sim.run_until(now + SimDuration::from_secs(180));
        sim.cluster().check_invariants();
        assert_no_pods_on_unready_nodes(&sim);
    }

    /// The timeline is the schedule with every flap expanded, in the
    /// order the former per-kind tables gave, and `active_count` counts
    /// the timeline intervals covering each instant. Start times are drawn
    /// from a few seconds so that equal keys, where input order decides,
    /// are common.
    #[test]
    fn timeline_is_the_sorted_expanded_schedule(
        seed in 0u64..1_000,
        faults in prop::collection::vec(arb_fault(1..4), 0..12),
    ) {
        let injector = FaultInjector::new(&faults, seed);
        let timeline = injector.timeline();
        prop_assert_eq!(timeline, &reference_timeline(&faults)[..]);
        for s in 0..150 {
            let t = SimTime::from_secs(s);
            let covering = timeline.iter().filter(|ev| covers(ev, t)).count();
            prop_assert_eq!(injector.active_count(t), covering);
        }
    }
}
