//! End-to-end engine tests: services, batch jobs and HPC gangs executing
//! on a simulated cluster with manual (test-driven) scheduling.

use evolve_sim::{ClusterConfig, NodeShape, Simulation, SimulationConfig};
use evolve_types::{NodeId, PodId, ResourceVec, SimTime};
use evolve_workload::{PloSpec, ScenarioSpec, WorkloadMix};

fn small_cluster(nodes: usize) -> ClusterConfig {
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

/// Two replicas of a service with deterministic demands (for exact
/// assertions) under a constant `rate`.
fn service_mix(rate: f64) -> WorkloadMix {
    mix(&format!(
        r#"
[[service]]
name = "svc"
class = "rq"
demand = [20.0, 2.0, 0.1, 0.1]
demand_cv = 0.0
timeout_secs = 10.0
plo_p99_ms = 100.0
alloc = [2000.0, 2048.0, 50.0, 50.0]
replicas = 2

[service.load]
kind = "constant"
rate = {rate:?}
"#
    ))
}

/// Binds every pending pod first-fit onto the cluster.
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
fn service_completes_requests_and_reports_latency() {
    let mix = service_mix(50.0);
    let mut sim = Simulation::new(SimulationConfig::default(), small_cluster(2), &mix, 1);
    assert_eq!(bind_all(&mut sim), 2);
    let app = sim.apps()[0].id;
    // Discard the startup window: requests that arrived before the pods
    // finished starting carry seconds of queue wait.
    sim.run_until(SimTime::from_secs(5));
    sim.take_window(app).unwrap();
    sim.run_until(SimTime::from_secs(30));
    let w = sim.take_window(app).unwrap();
    // 50 rps for 25 s.
    assert!(w.arrivals > 1_000, "arrivals {}", w.arrivals);
    assert!(w.completions > 900, "completions {}", w.completions);
    assert_eq!(w.timeouts, 0);
    assert_eq!(w.running_replicas, 2);
    // 20 mcore·s at 2000 mcore alone ≈ 10ms; light load → low p99.
    let p99 = w.p99_ms.unwrap();
    assert!(p99 < 100.0, "p99 {p99}");
    // CPU usage ≈ 50 rps × 20 mcore·s = 1000 mcores across replicas.
    assert!((w.usage.cpu() - 1_000.0).abs() < 200.0, "cpu usage {}", w.usage.cpu());
    sim.cluster().check_invariants();
}

/// A demand with no drainable component is a valid scenario (only the
/// all-zero vector is rejected) and used to hang the engine: the replica
/// announced its own clock as the next event, the wake there drained
/// nothing, and the same instant was armed again. Such a request now
/// completes inside its admission, so the run ends and its event count is
/// what the arrivals alone account for.
#[test]
fn a_request_with_nothing_to_drain_completes_at_admission() {
    let spec = ScenarioSpec::from_toml_str(
        r#"
name = "memory-only"
description = "requests that hold memory and drain nothing"
horizon_secs = 20.0

[cluster]
nodes = 1

[[service]]
name = "svc"
class = "cache-touch"
demand = [0.0, 2.0, 0.0, 0.0]
demand_cv = 0.0
timeout_secs = 10.0
plo_p99_ms = 100.0
alloc = [1000.0, 1024.0, 50.0, 50.0]
replicas = 1

[service.load]
kind = "constant"
rate = 50.0
"#,
    )
    .expect("a demand with one non-zero component is valid");
    let mix = spec.build().mix;
    let mut sim = Simulation::new(SimulationConfig::default(), small_cluster(1), &mix, 21);
    assert_eq!(bind_all(&mut sim), 1);
    let app = sim.apps()[0].id;
    // The start-up window: what queued while the pod started waited for it.
    sim.run_until(SimTime::from_secs(5));
    let startup = sim.take_window(app).unwrap();
    assert_eq!(startup.completions, startup.arrivals);
    assert!(startup.p99_ms.unwrap() <= 3_000.0, "queued for the 3 s start at most");
    sim.run_until(SimTime::from_secs(20));
    let w = sim.take_window(app).unwrap();
    assert!(w.arrivals > 600, "arrivals {}", w.arrivals);
    assert_eq!((w.completions, w.timeouts), (w.arrivals, 0));
    assert_eq!(w.mean_ms, Some(0.0), "nothing to drain, nothing to wait for");
    let arrivals = startup.arrivals + w.arrivals;
    assert!(
        sim.events_processed() <= 2 * arrivals + 100,
        "{} events for {arrivals} arrivals",
        sim.events_processed()
    );
}

/// The batch side of the same rule: a task whose work has no drainable
/// component is done when its pod starts.
#[test]
fn a_batch_task_with_nothing_to_drain_finishes_when_it_starts() {
    let mix = mix(r#"
[[batch]]
name = "touch"
submit_secs = 0.0
plo_deadline_secs = 300.0
task_alloc = [1000.0, 1024.0, 10.0, 10.0]
max_parallel = 3

[[batch.stage]]
tasks = 3
work = [0.0, 128.0, 0.0, 0.0]
records = 10
"#);
    let mut sim = Simulation::new(SimulationConfig::default(), small_cluster(1), &mix, 22);
    sim.run_until(SimTime::from_secs(1));
    assert_eq!(bind_all(&mut sim), 3);
    sim.run_until(SimTime::from_secs(30));
    assert!(sim.job_outcomes()[0].finished.is_some(), "the job must finish");
    assert!(sim.events_processed() <= 100, "{} events", sim.events_processed());
}

#[test]
fn unbound_service_times_out_requests() {
    let mix = service_mix(20.0);
    let mut sim = Simulation::new(SimulationConfig::default(), small_cluster(1), &mix, 2);
    // Never bind anything: requests must expire in the queue.
    sim.run_until(SimTime::from_secs(30));
    let app = sim.apps()[0].id;
    let w = sim.take_window(app).unwrap();
    assert_eq!(w.completions, 0);
    assert!(w.timeouts > 100, "timeouts {}", w.timeouts);
    // Latency PLO signal must read as a violation.
    let measured = w.measured_for(&PloSpec::LatencyP99 { target_ms: 100.0 }).unwrap();
    assert!(measured > 1e5);
}

#[test]
fn overloaded_service_has_high_tail_latency() {
    // 2000 mcore replica, 20 mcore·s demands → capacity ≈ 100 rps per
    // replica; offer 150 rps on ONE replica.
    let mix = mix(r#"
[[service]]
name = "hot"
class = "rq"
demand = [20.0, 2.0, 0.0, 0.0]
demand_cv = 0.0
timeout_secs = 10.0
plo_p99_ms = 100.0
alloc = [2000.0, 2048.0, 50.0, 50.0]

[service.load]
kind = "constant"
rate = 150.0
"#);
    let mut sim = Simulation::new(SimulationConfig::default(), small_cluster(1), &mix, 3);
    bind_all(&mut sim);
    sim.run_until(SimTime::from_secs(60));
    let w = sim.take_window(sim.apps()[0].id).unwrap();
    // Severely overloaded: timeouts (10s deadline) must appear.
    assert!(w.timeouts > 0, "expected timeouts under overload");
}

#[test]
fn vertical_resize_improves_latency() {
    let mix = service_mix(80.0);
    let mut sim = Simulation::new(SimulationConfig::default(), small_cluster(2), &mix, 4);
    bind_all(&mut sim);
    let app = sim.apps()[0].id;
    sim.run_until(SimTime::from_secs(20));
    let before = sim.take_window(app).unwrap();
    // Double the per-replica allocation in place.
    let failures =
        sim.set_target(app, 2, ResourceVec::new(4_000.0, 4_096.0, 100.0, 100.0), 1.0).unwrap();
    assert_eq!(failures, 0);
    sim.run_until(SimTime::from_secs(40));
    let after = sim.take_window(app).unwrap();
    assert!(
        after.p99_ms.unwrap() < before.p99_ms.unwrap() + 1.0,
        "p99 before {:?} after {:?}",
        before.p99_ms,
        after.p99_ms
    );
    assert!((after.alloc_per_replica.cpu() - 4_000.0).abs() < 1.0);
}

#[test]
fn horizontal_scale_out_creates_and_absorbs() {
    let mix = service_mix(100.0);
    let mut sim = Simulation::new(SimulationConfig::default(), small_cluster(3), &mix, 5);
    bind_all(&mut sim);
    let app = sim.apps()[0].id;
    sim.run_until(SimTime::from_secs(10));
    sim.set_target(app, 5, ResourceVec::new(2_000.0, 2_048.0, 50.0, 50.0), 1.0).unwrap();
    // New pods appear pending and must be bound.
    let newly_bound = bind_all(&mut sim);
    assert_eq!(newly_bound, 3);
    sim.run_until(SimTime::from_secs(30));
    let w = sim.take_window(app).unwrap();
    assert_eq!(w.running_replicas, 5);
    sim.cluster().check_invariants();
}

#[test]
fn graceful_scale_in_loses_no_requests() {
    let mix = service_mix(60.0);
    let mut sim = Simulation::new(SimulationConfig::default(), small_cluster(2), &mix, 6);
    bind_all(&mut sim);
    let app = sim.apps()[0].id;
    sim.run_until(SimTime::from_secs(15));
    sim.take_window(app).unwrap();
    sim.set_target(app, 1, ResourceVec::new(2_000.0, 2_048.0, 50.0, 50.0), 1.0).unwrap();
    sim.run_until(SimTime::from_secs(40));
    let w = sim.take_window(app).unwrap();
    assert_eq!(w.running_replicas, 1);
    assert_eq!(w.timeouts, 0, "graceful drain must not drop requests");
    sim.cluster().check_invariants();
}

#[test]
fn batch_job_runs_stages_and_finishes() {
    let mix = mix(r#"
[[batch]]
name = "etl"
submit_secs = 5.0
plo_deadline_secs = 600.0
task_alloc = [2000.0, 1024.0, 100.0, 100.0]
max_parallel = 4

[[batch.stage]]
tasks = 4
work = [2000.0, 256.0, 50.0, 10.0]
records = 1000

[[batch.stage]]
tasks = 2
work = [1000.0, 256.0, 10.0, 50.0]
records = 500
"#);
    let mut sim = Simulation::new(SimulationConfig::default(), small_cluster(2), &mix, 7);
    // Drive: run, bind whatever appears, repeat.
    for step in 1..=120u64 {
        sim.run_until(SimTime::from_secs(5 * step));
        bind_all(&mut sim);
    }
    let outcomes = sim.job_outcomes();
    assert_eq!(outcomes.len(), 1);
    let o = outcomes[0];
    assert!(o.finished.is_some(), "batch job should finish");
    assert!(o.met_deadline(), "makespan {:?}", o.makespan_s());
    // All 5000 records accounted.
    let w = sim.take_window(sim.apps()[0].id).unwrap();
    assert_eq!(w.progress, Some(1.0));
    sim.cluster().check_invariants();
}

/// Each window is credited with the work done inside it, up to the instant
/// it is harvested: a task that no event reaches between its start and its
/// completion still shows in every window it runs through.
#[test]
fn batch_usage_over_windows_adds_up_to_the_work_done() {
    // Two tasks of 24 000 mcore·s at 2 000 mcore: 12 s each, side by side.
    let mix = mix(r#"
[[batch]]
name = "scan"
submit_secs = 0.0
plo_deadline_secs = 600.0
task_alloc = [2000.0, 1024.0, 100.0, 100.0]
max_parallel = 2

[[batch.stage]]
tasks = 2
work = [24000.0, 256.0, 0.0, 0.0]
records = 100
"#);
    let mut sim = Simulation::new(SimulationConfig::default(), small_cluster(1), &mix, 3);
    let app = sim.apps()[0].id;
    sim.run_until(SimTime::ZERO);
    assert_eq!(bind_all(&mut sim), 2);
    // Started at 3 s, done at 15 s; harvested every 5 s: 2 s, 5 s, 5 s and
    // no second of two 2 000-mcore tasks.
    let mut cpu = Vec::new();
    for step in 1..=4u64 {
        sim.run_until(SimTime::from_secs(5 * step));
        cpu.push(sim.take_window(app).unwrap().usage.cpu());
    }
    let want = [1_600.0, 4_000.0, 4_000.0, 0.0];
    let close = cpu.iter().zip(want).all(|(got, want): (&f64, f64)| (got - want).abs() < 1e-9);
    assert!(close, "CPU usage per window {cpu:?}, want {want:?}");
}

/// A task preempted mid-run did work up to the preemption instant, and the
/// window it is lost in reports that work, not only what it did up to its
/// last event.
#[test]
fn a_preempted_busy_task_reports_its_work_up_to_the_preemption() {
    let mix = one_long_task();
    let mut sim = Simulation::new(SimulationConfig::default(), small_cluster(1), &mix, 9);
    let app = sim.apps()[0].id;
    sim.run_until(SimTime::ZERO);
    assert_eq!(bind_all(&mut sim), 1);
    // Started at 3 s; the first window holds 2 s of it.
    sim.run_until(SimTime::from_secs(5));
    assert!((sim.take_window(app).unwrap().usage.cpu() - 800.0).abs() < 1e-9);
    // Preempted at 8 s, 3 s into the second window, which ends at 10 s.
    sim.run_until(SimTime::from_secs(8));
    let running: Vec<PodId> =
        sim.cluster().pods().filter(|p| p.is_running()).map(|p| p.id).collect();
    sim.preempt_pod(running[0]).unwrap();
    sim.run_until(SimTime::from_secs(10));
    let w = sim.take_window(app).unwrap();
    let cpu_s = w.usage.cpu() * w.duration.as_secs_f64();
    assert!((cpu_s - 6_000.0).abs() < 1e-6, "credited {cpu_s} mcore·s of 3 s × 2 000 mcore");
}

/// A batch job of one task: 60 000 mcore·s at 2 000 mcore, 30 s of work.
fn one_long_task() -> WorkloadMix {
    mix(r#"
[[batch]]
name = "b"
submit_secs = 0.0
plo_deadline_secs = 1800.0
task_alloc = [2000.0, 1024.0, 10.0, 10.0]
max_parallel = 1

[[batch.stage]]
tasks = 1
work = [60000.0, 256.0, 0.0, 0.0]
records = 100
"#)
}

#[test]
fn hpc_gang_waits_for_all_ranks() {
    let mix = mix(r#"
[[hpc]]
name = "solver"
submit_secs = 1.0
gang = 4
iterations = 10
work = [2000.0, 512.0, 0.0, 10.0]
rank_alloc = [2000.0, 1024.0, 10.0, 50.0]
deadline_secs = 600.0
"#);
    let mut sim = Simulation::new(SimulationConfig::default(), small_cluster(2), &mix, 8);
    sim.run_until(SimTime::from_secs(5));
    // Bind only 3 of 4 ranks: no progress may happen.
    let pending: Vec<PodId> = sim.cluster().pending_pods().map(|p| p.id).collect();
    assert_eq!(pending.len(), 4);
    for pod in pending.iter().take(3) {
        sim.bind_pod(*pod, NodeId::new(0)).unwrap();
    }
    sim.run_until(SimTime::from_secs(60));
    let app = sim.apps()[0].id;
    let w = sim.take_window(app).unwrap();
    assert_eq!(w.progress, Some(0.0), "gang must not progress with a missing rank");
    // Bind the last rank: iterations start.
    let last = *pending.last().unwrap();
    sim.bind_pod(last, NodeId::new(1)).unwrap();
    sim.run_until(SimTime::from_secs(120));
    let w = sim.take_window(app).unwrap();
    assert!(w.progress.unwrap() > 0.0);
    // Each iteration: 2000 mcore·s at 2000 mcore ≈ 1 s → 10 iterations
    // finish well within the horizon.
    let outcome = sim.job_outcomes()[0];
    assert!(outcome.finished.is_some());
}

#[test]
fn preempted_batch_task_requeues() {
    let mix = one_long_task();
    let mut sim = Simulation::new(SimulationConfig::default(), small_cluster(1), &mix, 9);
    sim.run_until(SimTime::from_secs(1));
    bind_all(&mut sim);
    sim.run_until(SimTime::from_secs(10)); // task running (needs ~30s)
    let running: Vec<PodId> =
        sim.cluster().pods().filter(|p| p.is_running()).map(|p| p.id).collect();
    assert_eq!(running.len(), 1);
    sim.preempt_pod(running[0]).unwrap();
    // A replacement pod must be pending.
    assert_eq!(sim.cluster().pending_pods().count(), 1);
    bind_all(&mut sim);
    // Work restarts from scratch: needs ~30 more seconds.
    for step in 2..=12u64 {
        sim.run_until(SimTime::from_secs(step * 5));
        bind_all(&mut sim);
    }
    assert!(sim.job_outcomes()[0].finished.is_some());
    sim.cluster().check_invariants();
}

#[test]
fn node_failure_recreates_service_replicas() {
    let mix = service_mix(30.0);
    let mut sim = Simulation::new(SimulationConfig::default(), small_cluster(2), &mix, 10);
    bind_all(&mut sim);
    sim.run_until(SimTime::from_secs(10));
    // Fail node 0 at t=12, recover at t=30.
    sim.inject_node_failure(NodeId::new(0), SimTime::from_secs(12), Some(SimTime::from_secs(30)));
    sim.run_until(SimTime::from_secs(13));
    // Replacement pods pending; bind to the surviving node.
    let pending = bind_all(&mut sim);
    assert!(pending > 0, "replacement replicas expected");
    sim.run_until(SimTime::from_secs(60));
    let w = sim.take_window(sim.apps()[0].id).unwrap();
    assert_eq!(w.running_replicas, 2);
    assert!(sim.cluster().nodes()[0].is_ready(), "node should have recovered");
    sim.cluster().check_invariants();
}

#[test]
fn oom_killed_replica_is_replaced() {
    // Tiny memory allocation + memory-heavy requests → OOM.
    // Long-lived requests with a 600 MiB working set.
    let mix = mix(r#"
[[service]]
name = "leaky"
class = "big"
demand = [5000.0, 600.0, 0.0, 0.0]
demand_cv = 0.0
timeout_secs = 30.0
plo_p99_ms = 1000.0
alloc = [2000.0, 1024.0, 50.0, 50.0]

[service.load]
kind = "constant"
rate = 5.0
"#);
    let mut sim = Simulation::new(SimulationConfig::default(), small_cluster(1), &mix, 11);
    bind_all(&mut sim);
    sim.run_until(SimTime::from_secs(30));
    bind_all(&mut sim); // bind replacements
    sim.run_until(SimTime::from_secs(60));
    let w = sim.take_window(sim.apps()[0].id).unwrap();
    assert!(w.oom_kills > 0, "expected OOM kills");
    sim.cluster().check_invariants();
}

#[test]
fn determinism_under_fixed_seed() {
    let run = |seed: u64| {
        let mix = service_mix(40.0);
        let mut sim = Simulation::new(SimulationConfig::default(), small_cluster(2), &mix, seed);
        bind_all(&mut sim);
        sim.run_until(SimTime::from_secs(30));
        let w = sim.take_window(sim.apps()[0].id).unwrap();
        (w.arrivals, w.completions, w.p99_ms)
    };
    assert_eq!(run(123), run(123));
    assert_ne!(run(123).0, run(456).0);
}

#[test]
fn snapshot_counts_pods() {
    let mix = service_mix(10.0);
    let mut sim = Simulation::new(SimulationConfig::default(), small_cluster(2), &mix, 12);
    let snap = sim.snapshot();
    assert_eq!(snap.pods_running, 0);
    assert_eq!(snap.pods_pending, 2);
    assert_eq!(snap.nodes_ready, 2);
    bind_all(&mut sim);
    sim.run_until(SimTime::from_secs(10));
    let snap = sim.snapshot();
    assert_eq!(snap.pods_running, 2);
    assert_eq!(snap.pods_pending, 0);
    assert!(snap.allocated.cpu() > 0.0);
}

/// One window in which a replica is retired by scale-in and another is
/// OOM-killed: the harvest must still hold what both drained before they
/// went, and count the replacement that waits unbound. The expected values
/// were first generated on the commit before the replica lanes (a per-pod
/// harvest and a per-pod walk of the cluster) and are pinned to the bit;
/// since usage is credited at the harvest instant, the work in flight at
/// 10 s counts in the first window, and the three windows up to 100 s still
/// add up to the 55 255.6 mcore·s they held when it counted in the second.
#[test]
fn oom_kill_and_scale_in_inside_one_window() {
    let alloc = ResourceVec::new(2_000.0, 1_024.0, 50.0, 50.0);
    let mix = mix(r#"
[[service]]
name = "leaky"
class = "big"
demand = [3000.0, 250.0, 3.0, 1.0]
demand_cv = 0.0
timeout_secs = 30.0
plo_p99_ms = 1000.0
alloc = [2000.0, 1024.0, 50.0, 50.0]
replicas = 3

[service.load]
kind = "constant"
rate = 1.5
"#);
    let mut sim = Simulation::new(SimulationConfig::default(), small_cluster(1), &mix, 15);
    assert_eq!(bind_all(&mut sim), 3);
    let app = sim.apps()[0].id;
    sim.run_until(SimTime::from_secs(10));
    let before = sim.take_window(app).unwrap();
    assert_eq!((before.running_replicas, before.pending_replicas, before.oom_kills), (3, 0, 0));
    // Scale in to two: the newest replica is busy, so it drains first.
    sim.set_target(app, 2, alloc, 1.0).unwrap();
    assert_eq!(sim.snapshot().pods_running, 3, "the scaled-in replica is still draining");
    sim.run_until(SimTime::from_millis(12_500));
    assert_eq!(sim.snapshot().pods_running, 2, "and retires once it has");
    // One of the two survivors is then OOM-killed; nobody binds its
    // replacement.
    sim.run_until(SimTime::from_secs(15));
    let w = sim.take_window(app).unwrap();
    assert_eq!((w.running_replicas, w.pending_replicas, w.oom_kills), (1, 1, 1));
    assert_eq!((w.arrivals, w.completions, w.timeouts), (10, 5, 6));
    let bits = |v: ResourceVec| v.as_array().map(f64::to_bits);
    let usage = ResourceVec::new(3629.881135285616, 1064.0, 5.415523333333336, 1.8);
    assert_eq!(bits(w.usage), bits(usage), "usage {:?}", w.usage);
    assert_eq!((bits(w.alloc), bits(w.alloc_per_replica)), (bits(alloc), bits(alloc)));
    sim.cluster().check_invariants();
    sim.run_until(SimTime::from_secs(100));
    let last = sim.take_window(app).unwrap();
    let cpu_s = before.usage.cpu() * 10.0 + w.usage.cpu() * 5.0 + last.usage.cpu() * 85.0;
    assert!((cpu_s - 55_255.600_317_255_7).abs() < 1e-6, "credited {cpu_s} mcore·s in all");
}
