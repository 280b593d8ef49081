//! Engine tests for the actuation and failure paths: in-place resizes of
//! batch tasks and HPC ranks, gang pauses on rank loss, preemption of
//! services, and window accounting after churn.

use evolve_sim::{ClusterConfig, NodeShape, Simulation, SimulationConfig};
use evolve_types::{AppId, Error, NodeId, PodId, ResourceVec, SimTime};
use evolve_workload::{ScenarioSpec, WorkloadMix};

fn cluster(nodes: usize) -> ClusterConfig {
    ClusterConfig::uniform(
        nodes,
        NodeShape { capacity: ResourceVec::new(16_000.0, 65_536.0, 500.0, 1_250.0) },
    )
}

/// The workload of a scenario file's `[[service]]`, `[[batch]]` and
/// `[[hpc]]` tables.
fn mix(tables: &str) -> WorkloadMix {
    let text = format!("name = \"test\"\nhorizon_secs = 3600.0\n{tables}");
    ScenarioSpec::from_toml_str(&text).expect("a valid scenario").build().mix
}

/// A two-rank gang: 40 iterations of 4 000 mcore·s per rank at 2 000
/// mcore, 2 s each.
const SOLVER: &str = r#"
[[hpc]]
name = "solver"
submit_secs = 0.0
gang = 2
iterations = 40
work = [4000.0, 512.0, 0.0, 0.0]
rank_alloc = [2000.0, 1024.0, 10.0, 10.0]
deadline_secs = 600.0
"#;

/// Four 30 000 mcore·s tasks at 1 000 mcore on two executors: two waves
/// of two 30 s tasks.
const TWO_WAVES: &str = r#"
[[batch]]
name = "b"
submit_secs = 0.0
plo_deadline_secs = 600.0
task_alloc = [1000.0, 1024.0, 10.0, 10.0]
max_parallel = 2

[[batch.stage]]
tasks = 4
work = [30000.0, 512.0, 0.0, 0.0]
records = 100
"#;

fn bind_all(sim: &mut Simulation) -> usize {
    let pending: Vec<PodId> = sim.cluster().pending_pods().map(|p| p.id).collect();
    let mut bound = 0;
    for pod in pending {
        let request = sim.cluster().pod(pod).unwrap().spec.request;
        let target =
            sim.cluster().nodes().iter().find(|n| n.can_fit(&request)).map(evolve_sim::Node::id);
        if let Some(node) = target {
            sim.bind_pod(pod, node).unwrap();
            bound += 1;
        }
    }
    bound
}

#[test]
fn hpc_resize_speeds_up_iterations() {
    // 40 iterations × 4000 mcore·s at 2000 mcore → 2 s each ≈ 80 s total.
    let mix = mix(SOLVER);
    // Unmanaged run.
    let mut slow = Simulation::new(SimulationConfig::default(), cluster(2), &mix, 5);
    slow.run_until(SimTime::from_secs(1));
    bind_all(&mut slow);
    slow.run_until(SimTime::from_secs(5 * 60));
    let slow_makespan = slow.job_outcomes()[0].makespan_s().expect("finished");

    // Managed run: double the rank allocation shortly after start. Spread
    // the ranks over both nodes so the in-place resize has headroom.
    let mut fast = Simulation::new(SimulationConfig::default(), cluster(2), &mix, 5);
    fast.run_until(SimTime::from_secs(1));
    let pending: Vec<PodId> = fast.cluster().pending_pods().map(|p| p.id).collect();
    for (i, pod) in pending.into_iter().enumerate() {
        fast.bind_pod(pod, NodeId::new(i as u32)).unwrap();
    }
    fast.run_until(SimTime::from_secs(10));
    let app = fast.apps()[0].id;
    let failures =
        fast.set_target(app, 1, ResourceVec::new(8_000.0, 1_024.0, 10.0, 10.0), 1.0).unwrap();
    assert_eq!(failures, 0);
    fast.run_until(SimTime::from_secs(5 * 60));
    let fast_makespan = fast.job_outcomes()[0].makespan_s().expect("finished");
    assert!(
        fast_makespan < 0.5 * slow_makespan,
        "resized {fast_makespan:.1}s vs unmanaged {slow_makespan:.1}s"
    );
}

#[test]
fn hpc_rank_loss_pauses_gang_and_recovers() {
    let mix = mix(r#"
[[hpc]]
name = "solver"
submit_secs = 0.0
gang = 3
iterations = 50
work = [2000.0, 512.0, 0.0, 0.0]
rank_alloc = [2000.0, 1024.0, 10.0, 10.0]
deadline_secs = 600.0
"#);
    let mut sim = Simulation::new(SimulationConfig::default(), cluster(2), &mix, 6);
    sim.run_until(SimTime::from_secs(1));
    bind_all(&mut sim);
    sim.run_until(SimTime::from_secs(20));
    let app = sim.apps()[0].id;
    let before = sim.take_window(app).unwrap();
    let progressed = before.progress.unwrap();
    assert!(progressed > 0.0, "gang should be iterating");
    // Preempt one rank: the gang must stall.
    let rank = sim.cluster().pods().find(|p| p.is_running()).map(|p| p.id).expect("running rank");
    sim.preempt_pod(rank).unwrap();
    sim.run_until(SimTime::from_secs(40));
    let stalled = sim.take_window(app).unwrap();
    assert_eq!(
        stalled.progress.unwrap(),
        progressed,
        "no iteration may complete with a missing rank"
    );
    // The lost rank requeued as pending; rebind and the job finishes.
    assert_eq!(bind_all(&mut sim), 1);
    sim.run_until(SimTime::from_secs(5 * 60));
    assert!(sim.job_outcomes()[0].finished.is_some());
    sim.cluster().check_invariants();
}

#[test]
fn batch_resize_applies_to_running_and_future_tasks() {
    let mix = mix(TWO_WAVES);
    let mut sim = Simulation::new(SimulationConfig::default(), cluster(2), &mix, 7);
    sim.run_until(SimTime::from_secs(1));
    bind_all(&mut sim);
    sim.run_until(SimTime::from_secs(10));
    let app = sim.apps()[0].id;
    // 30 s per task at 1000 mcore; quadruple → 7.5 s.
    let failures =
        sim.set_target(app, 1, ResourceVec::new(4_000.0, 1_024.0, 10.0, 10.0), 1.0).unwrap();
    assert_eq!(failures, 0);
    for step in 3..40u64 {
        sim.run_until(SimTime::from_secs(step * 5));
        bind_all(&mut sim);
    }
    let outcome = sim.job_outcomes()[0];
    let makespan = outcome.makespan_s().expect("finished");
    // Unresized: ~60 s of work in two waves; resized mid-first-wave it
    // must land well under that.
    assert!(makespan < 50.0, "makespan {makespan}");
}

/// `set_target` serves all three worlds. An id the simulation never
/// registered is a typed error, and jobs size themselves: `replicas`
/// means nothing to a batch job or a gang.
#[test]
fn set_target_rejects_unknown_apps_and_jobs_ignore_replicas() {
    let mix = mix(&format!("{TWO_WAVES}{SOLVER}"));
    let run = |replicas: u32| {
        let mut sim = Simulation::new(SimulationConfig::default(), cluster(2), &mix, 11);
        sim.run_until(SimTime::from_secs(1));
        bind_all(&mut sim);
        sim.run_until(SimTime::from_secs(10));
        let target = ResourceVec::new(3_000.0, 1_024.0, 10.0, 10.0);
        let apps: Vec<AppId> = sim.apps().iter().map(|a| a.id).collect();
        assert_eq!(apps.len(), 2);
        for &app in &apps {
            assert_eq!(sim.set_target(app, replicas, target, 1.0), Ok(0));
        }
        let unknown = AppId::new(apps.len() as u32);
        assert_eq!(sim.set_target(unknown, replicas, target, 1.0), Err(Error::UnknownApp(unknown)));
        sim.run_until(SimTime::from_secs(20));
        let windows: Vec<_> = apps.iter().map(|&app| sim.take_window(app).unwrap()).collect();
        assert!(windows.iter().all(|w| (w.alloc_per_replica.cpu() - 3_000.0).abs() < 1.0));
        (sim.cluster().pods().count(), windows)
    };
    assert_eq!(run(1), run(7));
}

#[test]
fn service_preemption_is_replaced_by_deployment() {
    let mix = mix(r#"
[[service]]
name = "svc"
class = "rq"
demand = [20.0, 2.0, 0.0, 0.0]
demand_cv = 0.0
timeout_secs = 10.0
plo_p99_ms = 100.0
alloc = [1000.0, 1024.0, 10.0, 10.0]
replicas = 2

[service.load]
kind = "constant"
rate = 20.0
"#);
    let mut sim = Simulation::new(SimulationConfig::default(), cluster(2), &mix, 8);
    bind_all(&mut sim);
    sim.run_until(SimTime::from_secs(10));
    let victim =
        sim.cluster().pods().find(|p| p.is_running()).map(|p| p.id).expect("running replica");
    sim.preempt_pod(victim).unwrap();
    // A replacement pending pod must exist immediately.
    assert_eq!(sim.cluster().pending_pods().count(), 1);
    bind_all(&mut sim);
    sim.run_until(SimTime::from_secs(30));
    let w = sim.take_window(sim.apps()[0].id).unwrap();
    assert_eq!(w.running_replicas, 2);
    // The killed replica's in-flight requests count as drops.
    assert!(w.timeouts <= 5, "only the in-flight requests die: {}", w.timeouts);
    sim.cluster().check_invariants();
}

#[test]
fn window_alloc_per_replica_reflects_resizes() {
    let mix = mix(r#"
[[service]]
name = "svc"
class = "rq"
demand = [10.0, 2.0, 0.0, 0.0]
demand_cv = 0.0
timeout_secs = 10.0
plo_p99_ms = 100.0
alloc = [1000.0, 1024.0, 10.0, 10.0]
replicas = 3

[service.load]
kind = "constant"
rate = 30.0
"#);
    let mut sim = Simulation::new(SimulationConfig::default(), cluster(2), &mix, 9);
    bind_all(&mut sim);
    sim.run_until(SimTime::from_secs(10));
    let app = sim.apps()[0].id;
    sim.take_window(app).unwrap();
    sim.set_target(app, 3, ResourceVec::new(2_500.0, 2_048.0, 20.0, 20.0), 1.0).unwrap();
    sim.run_until(SimTime::from_secs(20));
    let w = sim.take_window(app).unwrap();
    assert!((w.alloc_per_replica.cpu() - 2_500.0).abs() < 1.0);
    assert!((w.alloc.cpu() - 7_500.0).abs() < 1.0);
}

#[test]
fn events_processed_increases_monotonically() {
    let mix = mix(r#"
[[service]]
name = "svc"
class = "rq"
demand = [10.0, 2.0, 0.0, 0.0]
demand_cv = 0.5
timeout_secs = 10.0
plo_p99_ms = 100.0
alloc = [2000.0, 1024.0, 10.0, 10.0]

[service.load]
kind = "constant"
rate = 100.0
"#);
    let mut sim = Simulation::new(SimulationConfig::default(), cluster(1), &mix, 10);
    bind_all(&mut sim);
    let mut last = 0;
    for step in 1..=5u64 {
        sim.run_until(SimTime::from_secs(step * 5));
        let now = sim.events_processed();
        assert!(now > last, "no progress in step {step}");
        last = now;
    }
}
