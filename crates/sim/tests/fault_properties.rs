//! Property tests for the fault-injection subsystem: randomized
//! `FaultPlan`s (scheduled and stochastic) realized through the
//! `FaultInjector` and interleaved with scheduling and resize traffic
//! must never corrupt cluster accounting, leave pods on unready nodes,
//! or panic.

use evolve_sim::chaos::plan_from_events;
use evolve_sim::{
    ClusterConfig, FaultEvent, FaultInjector, FaultKind, FaultPlan, NodeShape, Simulation,
    SimulationConfig, StochasticFaults,
};
use evolve_types::{NodeId, PodId, ResourceVec, SimDuration, SimTime};
use evolve_workload::{HpcJobSpec, LoadSpec, PloSpec, RequestClass, ServiceSpec, WorkloadMix};
use proptest::prelude::*;

const NODES: usize = 4;
const HORIZON_SECS: u64 = 300;

fn arb_fault() -> impl Strategy<Value = FaultEvent> {
    fn ev(at: u64, kind: FaultKind) -> FaultEvent {
        FaultEvent { at: SimTime::from_secs(at), kind }
    }
    let secs = SimDuration::from_secs;
    let node = |n: u8| NodeId::new(u32::from(n));
    let at = || 1u64..HORIZON_SECS;
    prop_oneof![
        (0u8..NODES as u8, at(), 5u64..120, any::<bool>()).prop_map(
            move |(n, at, downtime, permanent)| {
                let downtime = (!permanent).then_some(secs(downtime));
                ev(at, FaultKind::NodeCrash { node: node(n), downtime })
            }
        ),
        (at(), 5u64..90).prop_map(move |(at, d)| {
            ev(at, FaultKind::ScrapeBlackout { app: None, duration: secs(d) })
        }),
        (at(), 5u64..90, 0.05f64..0.8).prop_map(move |(at, d, cv)| {
            ev(at, FaultKind::MetricNoise { app: None, duration: secs(d), cv })
        }),
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

fn build_plan(faults: &[FaultEvent], stochastic: bool) -> FaultPlan {
    let mut plan = plan_from_events(faults);
    if stochastic {
        plan = plan.with_stochastic(StochasticFaults {
            node_crashes_per_hour: 30.0,
            mean_downtime: SimDuration::from_secs(60),
            blackouts_per_hour: 40.0,
            stalls_per_hour: 20.0,
            actuation_drops_per_hour: 25.0,
            ..StochasticFaults::default()
        });
    }
    plan
}

/// A service plus a 2-rank HPC gang, so node crashes hit both lone
/// replicas and partial gangs.
fn workload() -> WorkloadMix {
    let class = RequestClass::new(
        "rq",
        ResourceVec::new(15.0, 4.0, 0.5, 0.5),
        0.6,
        SimDuration::from_secs(8),
    );
    WorkloadMix::new()
        .with_service(
            ServiceSpec::new(
                "svc",
                PloSpec::LatencyP99 { target_ms: 100.0 },
                class,
                ResourceVec::new(1_500.0, 1_536.0, 20.0, 20.0),
            )
            .with_initial_replicas(2),
            LoadSpec::Constant { rate: 40.0 },
        )
        .with_hpc_job(
            HpcJobSpec::new(
                "h",
                2,
                20,
                ResourceVec::new(2_000.0, 512.0, 5.0, 10.0),
                ResourceVec::new(2_000.0, 1_024.0, 10.0, 20.0),
                SimDuration::from_secs(600),
            ),
            SimTime::from_secs(10),
        )
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
        faults in prop::collection::vec(arb_fault(), 0..10),
        stochastic in any::<bool>(),
    ) {
        let plan = build_plan(&faults, stochastic);
        let mut sim = Simulation::new(
            SimulationConfig::default(),
            ClusterConfig::uniform(NODES, NodeShape::default()),
            &workload(),
            seed,
        );
        let service = sim.apps()[0].id;
        let mut injector = FaultInjector::new(
            &plan,
            seed,
            SimDuration::from_secs(HORIZON_SECS),
            NODES,
        );
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

    /// The injector's realization is a pure function of (plan, seed):
    /// two injectors built from the same inputs agree on every query.
    #[test]
    fn injector_realization_is_deterministic(
        seed in 0u64..1_000,
        faults in prop::collection::vec(arb_fault(), 0..6),
    ) {
        let plan = build_plan(&faults, true);
        let horizon = SimDuration::from_secs(HORIZON_SECS);
        let a = FaultInjector::new(&plan, seed, horizon, NODES);
        let b = FaultInjector::new(&plan, seed, horizon, NODES);
        prop_assert_eq!(a.crash_schedule(), b.crash_schedule());
        prop_assert_eq!(a.timeline(), b.timeline());
        let app = evolve_types::AppId::new(0);
        for s in (0..HORIZON_SECS).step_by(5) {
            let t = SimTime::from_secs(s);
            prop_assert_eq!(a.scrape_available(app, t), b.scrape_available(app, t));
            prop_assert_eq!(a.controller_stalled(t), b.controller_stalled(t));
            prop_assert_eq!(a.noise_cv(app, t), b.noise_cv(app, t));
            prop_assert_eq!(a.actuation_dropped(t), b.actuation_dropped(t));
            prop_assert_eq!(a.actuation_lag(t), b.actuation_lag(t));
            prop_assert_eq!(a.actuation_fraction(t), b.actuation_fraction(t));
            prop_assert_eq!(a.active_count(t), b.active_count(t));
        }
    }
}
