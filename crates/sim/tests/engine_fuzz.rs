//! Fuzz-style property tests: arbitrary interleavings of scheduling,
//! resizing, preemption, fault injection and time advancement must never
//! panic, corrupt cluster accounting, or lose requests.

use evolve_sim::{ClusterConfig, NodeShape, Simulation, SimulationConfig};
use evolve_types::{NodeId, PodId, ResourceVec, SimDuration, SimTime};
use evolve_workload::{ScenarioSpec, WorkloadMix};
use proptest::prelude::*;

/// One random control action.
#[derive(Debug, Clone, Copy)]
enum Action {
    Advance(u64),
    BindFirstFit,
    PreemptSomeRunning(u8),
    ResizeService(u8),
    ScaleService(u8),
    FailNode(u8),
    RecoverNode(u8),
    Harvest,
}

fn arb_action() -> impl Strategy<Value = Action> {
    prop_oneof![
        (1u64..20).prop_map(Action::Advance),
        Just(Action::BindFirstFit),
        any::<u8>().prop_map(Action::PreemptSomeRunning),
        any::<u8>().prop_map(Action::ResizeService),
        any::<u8>().prop_map(Action::ScaleService),
        (0u8..3).prop_map(Action::FailNode),
        (0u8..3).prop_map(Action::RecoverNode),
        Just(Action::Harvest),
    ]
}

fn mixed_workload() -> WorkloadMix {
    let text = r#"
name = "mixed-workload"
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
kind = "mmpp"
low = 20.0
high = 60.0
mean_dwell_secs = 30.0

[[batch]]
name = "b"
submit_secs = 5.0
plo_deadline_secs = 600.0
task_alloc = [2000.0, 1024.0, 50.0, 20.0]
max_parallel = 3

[[batch.stage]]
tasks = 3
work = [20000.0, 512.0, 200.0, 20.0]
records = 100

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

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn random_interleavings_preserve_invariants(
        seed in 0u64..1_000,
        actions in prop::collection::vec(arb_action(), 1..60),
    ) {
        let mut sim = Simulation::new(
            SimulationConfig::default(),
            ClusterConfig::uniform(3, NodeShape::default()),
            &mixed_workload(),
            seed,
        );
        let service = sim.apps()[0].id;
        let mut now = SimTime::ZERO;
        for action in actions {
            match action {
                Action::Advance(secs) => {
                    now += SimDuration::from_secs(secs);
                    sim.run_until(now);
                }
                Action::BindFirstFit => bind_first_fit(&mut sim),
                Action::PreemptSomeRunning(k) => {
                    let victims: Vec<PodId> = sim
                        .cluster()
                        .pods()
                        .filter(|p| p.is_running())
                        .map(|p| p.id)
                        .collect();
                    if !victims.is_empty() {
                        let victim = victims[k as usize % victims.len()];
                        sim.preempt_pod(victim).expect("preempting a running pod");
                    }
                }
                Action::ResizeService(k) => {
                    let cpu = 500.0 + f64::from(k) * 40.0;
                    let _ = sim.set_target(
                        service,
                        0, // clamped to ≥1 by the engine
                        ResourceVec::new(cpu, 1_024.0, 20.0, 20.0),
                        1.0,
                    );
                }
                Action::ScaleService(k) => {
                    let replicas = u32::from(k % 6) + 1;
                    let _ = sim.set_target(
                        service,
                        replicas,
                        ResourceVec::new(1_500.0, 1_536.0, 20.0, 20.0),
                        1.0,
                    );
                }
                Action::FailNode(n) => {
                    sim.inject_node_failure(
                        NodeId::new(u32::from(n)),
                        now + SimDuration::from_secs(1),
                        None,
                    );
                }
                Action::RecoverNode(n) => {
                    // Recovery is modelled as a failure event with an
                    // immediate recovery timestamp.
                    sim.inject_node_failure(
                        NodeId::new(u32::from(n)),
                        now + SimDuration::from_secs(1),
                        Some(now + SimDuration::from_secs(2)),
                    );
                }
                Action::Harvest => {
                    let w = sim.take_window(service).expect("service window");
                    // Window counters are internally consistent.
                    prop_assert!(w.completions <= w.arrivals + 10_000);
                    prop_assert!(w.usage.is_valid(), "usage invalid: {:?}", w.usage);
                    prop_assert!(w.alloc.is_valid(), "alloc invalid: {:?}", w.alloc);
                }
            }
            sim.cluster().check_invariants();
        }
        // Drain to a quiet horizon: everything must still be consistent.
        sim.run_until(now + SimDuration::from_secs(60));
        sim.cluster().check_invariants();
        for outcome in sim.job_outcomes() {
            if let Some(f) = outcome.finished {
                prop_assert!(f >= outcome.submitted);
            }
        }
    }
}
