//! End-to-end graceful-degradation regressions: a scrape blackout must
//! never scale a loaded service to zero or into oscillation (the
//! hold-last-safe path), a control-plane stall must skip ticks without
//! corrupting the run, and a node crash must evict onto surviving nodes
//! and recover.

use evolve_core::{ExperimentRunner, ManagerKind, RunConfig};
use evolve_sim::FaultPlan;
use evolve_types::{NodeId, SimDuration, SimTime};
use evolve_workload::ScenarioSpec;

fn faulted_config(horizon_secs: u64, faults: FaultPlan) -> RunConfig {
    let mut spec = ScenarioSpec::builtin("single_diurnal").unwrap();
    spec.horizon = SimDuration::from_secs(horizon_secs);
    spec.cluster.nodes = 4;
    RunConfig::from_spec(&spec, ManagerKind::Evolve).faults(faults).build()
}

/// Pinned regression for the hold-last-safe path: during a 60 s scrape
/// blackout in the middle of steady load, the manager must hold replicas
/// and allocation (no scale-to-zero, no idle scale-in) and re-engage
/// without oscillating afterwards.
#[test]
fn blackout_never_scales_to_zero_or_oscillates() {
    let blackout_start = 180u64;
    let blackout_secs = 60u64;
    let faults = FaultPlan::new().with_scrape_blackout(
        SimTime::from_secs(blackout_start),
        SimDuration::from_secs(blackout_secs),
    );
    let outcome = ExperimentRunner::new(faulted_config(480, faults)).run();
    assert_eq!(outcome.end_time, SimTime::ZERO + SimDuration::from_secs(480));

    let replicas = outcome.registry.series("app0/replicas").expect("replicas series");
    let alloc = outcome.registry.series("app0/alloc_cpu").expect("alloc series");
    // Blackout windows are "simply missing": the series must have a gap.
    let in_blackout =
        |t: f64| t >= blackout_start as f64 && t < (blackout_start + blackout_secs) as f64;
    assert!(
        !replicas.to_points().iter().any(|&(t, _)| in_blackout(t)),
        "blackout windows must not be scraped into the series"
    );
    // From blackout start to the end of the run, the service must never
    // be scaled to zero replicas or zero allocation.
    for (t, v) in replicas.to_points() {
        if t >= blackout_start as f64 {
            assert!(v >= 1.0, "scaled to zero replicas at t={t}: {v}");
        }
    }
    for (t, v) in alloc.to_points() {
        if t >= blackout_start as f64 {
            assert!(v > 0.0, "allocation collapsed at t={t}");
        }
    }
    // Replica level entering the blackout must be held through it: the
    // first post-blackout sample equals the last pre-blackout one.
    let points = replicas.to_points();
    let before = points
        .iter()
        .rev()
        .find(|&&(t, _)| t < blackout_start as f64)
        .expect("pre-blackout sample")
        .1;
    let after = points
        .iter()
        .find(|&&(t, _)| t >= (blackout_start + blackout_secs) as f64)
        .expect("post-blackout sample")
        .1;
    assert_eq!(before, after, "blackout must hold the replica level, not scale in");
    // No oscillation on re-engagement: bounded direction changes in the
    // two minutes after the blackout ends.
    let window_end = (blackout_start + blackout_secs + 120) as f64;
    let post: Vec<f64> = points
        .iter()
        .filter(|&&(t, _)| t >= (blackout_start + blackout_secs) as f64 && t <= window_end)
        .map(|&(_, v)| v)
        .collect();
    let mut flips = 0;
    let mut last_dir = 0i32;
    for pair in post.windows(2) {
        let dir = match pair[1].partial_cmp(&pair[0]) {
            Some(std::cmp::Ordering::Greater) => 1,
            Some(std::cmp::Ordering::Less) => -1,
            _ => 0,
        };
        if dir != 0 {
            if last_dir != 0 && dir != last_dir {
                flips += 1;
            }
            last_dir = dir;
        }
    }
    assert!(flips <= 1, "replica oscillation after blackout: {post:?}");
}

/// A control-plane stall skips whole ticks: no windows are harvested
/// during the stall, and the skipped seconds fold into the next live
/// window so lifetime accounting still adds up.
#[test]
fn control_stall_skips_ticks_without_losing_accounting() {
    let stall_start = 120u64;
    let stall_secs = 30u64; // 6 skipped 5 s ticks
    let faults = FaultPlan::new()
        .with_control_stall(SimTime::from_secs(stall_start), SimDuration::from_secs(stall_secs));
    let outcome = ExperimentRunner::new(faulted_config(300, faults)).run();
    assert_eq!(outcome.end_time, SimTime::ZERO + SimDuration::from_secs(300));

    // The cluster series (recorded only on live ticks) must gap the stall.
    let pods = outcome.registry.series("cluster/pods_running").expect("pods series");
    // The stall interval is half-open [start, end): the tick ending
    // exactly at `end` is live again.
    let stalled = |t: f64| t >= stall_start as f64 && t < (stall_start + stall_secs) as f64;
    assert!(
        !pods.to_points().iter().any(|&(t, _)| stalled(t)),
        "stalled ticks must not run the control loop"
    );
    // 300 s at 5 s ticks = 60 windows minus the 6 stalled ones.
    assert_eq!(outcome.apps[0].windows, 54);
    // The service keeps serving through the stall; completions keep
    // accruing because the first live window covers the stalled span.
    let baseline = ExperimentRunner::new(faulted_config(300, FaultPlan::new())).run();
    let lost = baseline.apps[0].completions as f64 - outcome.apps[0].completions as f64;
    assert!(
        lost.abs() / baseline.apps[0].completions as f64 <= 0.02,
        "stall lost completions: {} vs {}",
        outcome.apps[0].completions,
        baseline.apps[0].completions
    );
}

/// A node crash mid-run evicts onto surviving nodes and, after recovery,
/// the cluster returns to full readiness with the service still placed.
#[test]
fn node_crash_evicts_and_recovers() {
    let faults = FaultPlan::new().with_node_crash(
        NodeId::new(0),
        SimTime::from_secs(120),
        Some(SimDuration::from_secs(60)),
    );
    let outcome = ExperimentRunner::new(faulted_config(360, faults)).run();
    let ready = outcome.registry.series("cluster/nodes_ready").expect("nodes_ready series");
    let points = ready.to_points();
    let min = points.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
    assert_eq!(min, 3.0, "crash must take exactly one node unready");
    let last = points.last().expect("samples").1;
    assert_eq!(last, 4.0, "node must recover to ready");
    // Replicas never collapse: evicted pods requeue and rebind.
    let replicas = outcome.registry.series("app0/replicas").expect("replicas series");
    let tail: Vec<(f64, f64)> =
        replicas.to_points().into_iter().filter(|&(t, _)| t >= 200.0).collect();
    assert!(!tail.is_empty());
    assert!(tail.iter().all(|&(_, v)| v >= 1.0), "service lost all replicas after crash");
}
