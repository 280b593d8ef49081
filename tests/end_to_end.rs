//! Cross-crate integration tests: full experiment runs (workload →
//! simulator → manager → scheduler) on small configurations.

use evolve::prelude::*;
use evolve::workload::{ClusterSpec, LoadSpec, ServiceEntry};

/// One 20 mcore·s-per-request service on 4 nodes: small enough to finish
/// fast in debug builds.
fn one_service(
    name: &str,
    alloc: ResourceVec,
    replicas: u32,
    load: LoadSpec,
    horizon_secs: u64,
) -> ScenarioSpec {
    ScenarioSpec {
        name: name.into(),
        description: String::new(),
        horizon: SimDuration::from_secs(horizon_secs),
        cluster: ClusterSpec { nodes: 4, node_capacity: None },
        services: vec![ServiceEntry {
            name: "svc".into(),
            class: "rq".into(),
            demand: ResourceVec::new(20.0, 2.0, 0.2, 0.2),
            demand_cv: 0.5,
            timeout: SimDuration::from_secs(10),
            plo: PloSpec::LatencyP99 { target_ms: 100.0 },
            alloc,
            replicas,
            base_memory_mib: 64.0,
            priority: PriorityClass::Standard,
            load,
        }],
        batch_jobs: Vec::new(),
        hpc_jobs: Vec::new(),
        arbiter: None,
        faults: Vec::new(),
        probe: None,
        repro: None,
    }
}

/// Two replicas under a ramp to `rate`.
fn tiny_spec(rate: f64, horizon_secs: u64) -> ScenarioSpec {
    let ramp = LoadSpec::Ramp {
        from: rate * 0.3,
        to: rate,
        duration: SimDuration::from_secs(horizon_secs / 2),
    };
    one_service("tiny-ramp", ResourceVec::new(1_000.0, 1_024.0, 25.0, 25.0), 2, ramp, horizon_secs)
}

fn run(manager: ManagerKind, seed: u64) -> RunOutcome {
    ExperimentRunner::new(RunConfig::from_spec(&tiny_spec(120.0, 240), manager).seed(seed).build())
        .run()
}

#[test]
fn evolve_run_completes_and_serves_requests() {
    let outcome = run(ManagerKind::Evolve, 1);
    assert_eq!(outcome.manager, "evolve");
    let svc = &outcome.apps[0];
    assert!(svc.completions > 5_000, "completions {}", svc.completions);
    assert!(svc.windows > 20, "windows {}", svc.windows);
    assert!(outcome.bindings >= 2, "bindings {}", outcome.bindings);
    assert!(outcome.events > 10_000);
}

#[test]
fn evolve_violates_less_than_static_under_ramp() {
    // The static request (1000 mcore) saturates at ~50 rps with 20 mcore·s
    // demands; the ramp ends at 120 rps across 2 replicas, i.e. just past
    // saturation. EVOLVE must adapt; stock Kubernetes must suffer.
    let evolve = run(ManagerKind::Evolve, 2);
    let kube = run(ManagerKind::KubeStatic, 2);
    let ev = evolve.apps[0].violation_rate();
    let kv = kube.apps[0].violation_rate();
    assert!(ev < kv || (ev == 0.0 && kv == 0.0), "evolve rate {ev} should beat static rate {kv}");
    assert!(kv > 0.2, "static baseline should be violating under the ramp, got {kv}");
    assert!(ev < 0.5 * kv, "expected a large gap: evolve {ev} vs static {kv}");
}

#[test]
fn evolve_uses_less_allocation_than_overprovisioned_static() {
    // Over-provision the static service 8×; EVOLVE should deliver the PLO
    // with a much smaller time-averaged reservation.
    let alloc = ResourceVec::new(8_000.0, 8_192.0, 200.0, 200.0);
    let spec = one_service("overprov", alloc, 4, LoadSpec::Constant { rate: 40.0 }, 240);
    let run = |manager| ExperimentRunner::new(RunConfig::from_spec(&spec, manager).seed(3).build());
    let kube = run(ManagerKind::KubeStatic).run();
    let evolve = run(ManagerKind::Evolve).run();
    assert!(
        evolve.utilization.mean_allocated() < 0.75 * kube.utilization.mean_allocated(),
        "evolve allocated {:.3} vs static {:.3}",
        evolve.utilization.mean_allocated(),
        kube.utilization.mean_allocated()
    );
    // The reservation EVOLVE does hold is far better used — this is the
    // "2× utilization" headline claim, measured as used/allocated CPU.
    use evolve::types::Resource;
    let eff_evolve = evolve.utilization.efficiency[Resource::Cpu];
    let eff_kube = kube.utilization.efficiency[Resource::Cpu];
    assert!(
        eff_evolve > 2.0 * eff_kube,
        "cpu efficiency: evolve {eff_evolve:.3} vs static {eff_kube:.3}"
    );
    // And still (almost always) meets the PLO.
    assert!(
        evolve.apps[0].violation_rate() < 0.2,
        "violation rate {:.3}",
        evolve.apps[0].violation_rate()
    );
}

#[test]
fn runs_are_deterministic_per_seed() {
    let a = run(ManagerKind::Evolve, 9);
    let b = run(ManagerKind::Evolve, 9);
    assert_eq!(a.apps[0].completions, b.apps[0].completions);
    assert_eq!(a.apps[0].violations, b.apps[0].violations);
    assert_eq!(a.bindings, b.bindings);
    let c = run(ManagerKind::Evolve, 10);
    assert_ne!(a.apps[0].completions, c.apps[0].completions);
}

#[test]
fn headline_mix_runs_under_evolve() {
    // Shrink the headline scenario so this test stays debug-friendly.
    let mut spec = ScenarioSpec::headline(0.3);
    spec.horizon = SimDuration::from_secs(300);
    spec.cluster.nodes = 12;
    let outcome =
        ExperimentRunner::new(RunConfig::from_spec(&spec, ManagerKind::Evolve).seed(4).build())
            .run();
    assert_eq!(outcome.apps.len(), 11, "6 services + 3 batch + 2 hpc");
    // Every service saw traffic.
    for app in outcome.apps.iter().take(6) {
        assert!(app.windows > 0, "{} never evaluated", app.name);
    }
    // Some batch/HPC work got scheduled alongside.
    assert!(outcome.bindings > 10);
}

#[test]
fn hpa_and_vpa_baselines_run() {
    for manager in [ManagerKind::Hpa, ManagerKind::Vpa] {
        let outcome = run(manager, 5);
        assert!(outcome.apps[0].completions > 1_000, "{:?}", manager);
    }
}
