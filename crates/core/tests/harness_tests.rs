//! Integration tests for the replication harness and control-loop
//! windowing: thread-count-independent aggregates, CI behaviour over
//! multiple seeds, and the final-partial-window regression.

use evolve_core::{ExperimentRunner, Harness, ManagerKind, RunConfig, Summary};
use evolve_sim::{FaultEvent, FaultKind};
use evolve_types::{NodeId, SimDuration, SimTime};
use evolve_workload::ScenarioSpec;

/// A cheap run: the single-service diurnal scenario cut down to a short
/// horizon on a small cluster, no series recording.
fn small_config(manager: ManagerKind, horizon_secs: u64) -> RunConfig {
    let mut spec = ScenarioSpec::builtin("single_diurnal").unwrap();
    spec.horizon = SimDuration::from_secs(horizon_secs);
    spec.cluster.nodes = 4;
    RunConfig::from_spec(&spec, manager).record_series(false).build()
}

fn with_faults(mut config: RunConfig, faults: Vec<FaultEvent>) -> RunConfig {
    config.faults = faults;
    config
}

/// The control loop must simulate the trailing partial window when the
/// horizon is not a multiple of the control interval: 242 s at a 5 s
/// interval is 48 full windows plus one 2 s window.
#[test]
fn final_partial_window_is_simulated() {
    let config = small_config(ManagerKind::Evolve, 242);
    assert_eq!(config.control_interval, SimDuration::from_secs(5));
    let outcome = ExperimentRunner::new(config).run();
    assert_eq!(
        outcome.end_time,
        SimTime::ZERO + SimDuration::from_secs(242),
        "run must end exactly at the horizon, not at the last full window"
    );
    // ceil(242 / 5) = 49 control windows for the single service.
    assert_eq!(outcome.apps.len(), 1);
    assert_eq!(outcome.apps[0].windows, 49);
}

/// A horizon that divides evenly must not gain a spurious extra window.
#[test]
fn exact_horizon_window_count() {
    let outcome = ExperimentRunner::new(small_config(ManagerKind::Evolve, 240)).run();
    assert_eq!(outcome.end_time, SimTime::ZERO + SimDuration::from_secs(240));
    assert_eq!(outcome.apps[0].windows, 48);
}

fn summary_bits(s: &Summary) -> (u64, u64, u64, usize) {
    (s.mean.to_bits(), s.std_dev.to_bits(), s.ci95.to_bits(), s.n)
}

fn ev(at: u64, kind: FaultKind) -> FaultEvent {
    FaultEvent { at: SimTime::from_secs(at), kind }
}

fn secs(s: u64) -> SimDuration {
    SimDuration::from_secs(s)
}

/// A schedule exercising every fault class: node crashes with recovery,
/// scrape blackouts, a metric-noise window and control-plane stalls.
fn mixed_fault_plan() -> Vec<FaultEvent> {
    vec![
        ev(30, FaultKind::NodeCrash { node: NodeId::new(1), downtime: Some(secs(40)) }),
        ev(20, FaultKind::ScrapeBlackout { app: None, duration: secs(15) }),
        ev(60, FaultKind::MetricNoise { app: None, duration: secs(30), cv: 0.3 }),
        ev(80, FaultKind::ControlStall { duration: secs(12) }),
        ev(70, FaultKind::NodeCrash { node: NodeId::new(2), downtime: Some(secs(30)) }),
        ev(95, FaultKind::ScrapeBlackout { app: None, duration: secs(10) }),
        ev(50, FaultKind::ControlStall { duration: secs(6) }),
    ]
}

/// The same (config, seed) matrix must aggregate to byte-identical
/// statistics regardless of how many worker threads execute it — with and
/// without a fault schedule (the injector's noise stream must be a pure
/// function of the seed).
#[test]
fn aggregates_identical_across_thread_counts() {
    let configs = vec![
        small_config(ManagerKind::Evolve, 120),
        small_config(ManagerKind::KubeStatic, 120),
        with_faults(small_config(ManagerKind::Evolve, 120), mixed_fault_plan()),
        with_faults(
            small_config(ManagerKind::Hpa { target_utilization: 0.6 }, 120),
            mixed_fault_plan(),
        ),
    ];
    let seeds = [42u64, 43, 44, 45];
    let serial = Harness::new().with_threads(1).run_matrix(&configs, &seeds);
    let threaded = Harness::new().with_threads(4).run_matrix(&configs, &seeds);
    assert_eq!(serial.len(), threaded.len());
    for (a, b) in serial.iter().zip(&threaded) {
        assert_eq!(a.seeds, b.seeds);
        for (k, (ra, rb)) in a.runs.iter().zip(&b.runs).enumerate() {
            assert_eq!(
                ra.total_violation_rate().to_bits(),
                rb.total_violation_rate().to_bits(),
                "run {k} (seed {}) diverged: {} vs {}",
                a.seeds[k],
                ra.total_violation_rate(),
                rb.total_violation_rate()
            );
        }
        assert_eq!(summary_bits(&a.violation_rate()), summary_bits(&b.violation_rate()));
        assert_eq!(summary_bits(&a.alloc_share()), summary_bits(&b.alloc_share()));
        assert_eq!(summary_bits(&a.used_share()), summary_bits(&b.used_share()));
        assert_eq!(summary_bits(&a.preemptions()), summary_bits(&b.preemptions()));
        let events = |rep: &evolve_core::ReplicatedOutcome| rep.summarize(|r| r.events as f64);
        assert_eq!(summary_bits(&events(a)), summary_bits(&events(b)));
        for (ra, rb) in a.runs.iter().zip(&b.runs) {
            assert_eq!(ra.total_violations(), rb.total_violations());
            assert_eq!(ra.total_windows(), rb.total_windows());
            assert_eq!(ra.events, rb.events);
            assert_eq!(ra.end_time, rb.end_time);
        }
    }
}

/// A schedule exercising the actuation-path fault classes added by the
/// chaos harness: two drop windows, a delay window, a partial-rollout
/// window and a node flap.
fn actuation_fault_plan() -> Vec<FaultEvent> {
    vec![
        ev(25, FaultKind::ActuationDrop { duration: secs(20) }),
        ev(55, FaultKind::ActuationDelay { duration: secs(20), lag: secs(12) }),
        ev(85, FaultKind::ActuationPartial { duration: secs(20), fraction: 0.5 }),
        ev(40, FaultKind::NodeFlap { node: NodeId::new(2), cycles: 3, period: secs(10) }),
        ev(110, FaultKind::ActuationDrop { duration: secs(15) }),
    ]
}

/// Thread-count independence must also hold for the actuation-path fault
/// kinds (drop/delay/partial/flap): the injector's realization and the
/// manager's deferred-actuation queue are pure functions of the seed,
/// never of scheduling order.
#[test]
fn actuation_faults_identical_across_thread_counts() {
    let configs = vec![
        with_faults(small_config(ManagerKind::Evolve, 150), actuation_fault_plan()),
        with_faults(small_config(ManagerKind::Hpa { target_utilization: 0.6 }, 150), {
            actuation_fault_plan()
        }),
    ];
    let seeds = [42u64, 43, 44];
    let serial = Harness::new().with_threads(1).run_matrix(&configs, &seeds);
    let threaded = Harness::new().with_threads(4).run_matrix(&configs, &seeds);
    assert_eq!(serial.len(), threaded.len());
    for (a, b) in serial.iter().zip(&threaded) {
        for (ra, rb) in a.runs.iter().zip(&b.runs) {
            assert_eq!(ra.total_violations(), rb.total_violations());
            assert_eq!(ra.total_windows(), rb.total_windows());
            assert_eq!(ra.events, rb.events);
            assert_eq!(ra.control, rb.control);
            assert_eq!(ra.total_violation_rate().to_bits(), rb.total_violation_rate().to_bits());
        }
        assert_eq!(summary_bits(&a.violation_rate()), summary_bits(&b.violation_rate()));
        assert_eq!(summary_bits(&a.used_share()), summary_bits(&b.used_share()));
    }
    // The faults actually bit: at least one run must have seen a dropped
    // or delayed actuation, or the plan tested nothing.
    let touched =
        serial.iter().flat_map(|rep| rep.runs.iter()).map(|r| r.control).any(|c| {
            c.dropped_actuations > 0 || c.delayed_actuations > 0 || c.partial_actuations > 0
        });
    assert!(touched, "no actuation fault ever fired");
}

/// Over ≥5 seeds a seed-sensitive metric must produce a finite, non-zero
/// confidence interval, and a constant metric a zero-width one.
#[test]
fn ci_width_sanity_over_five_seeds() {
    let seeds = [42u64, 43, 44, 45, 46];
    let rep = Harness::new().run_seeds(&small_config(ManagerKind::Evolve, 120), &seeds);
    assert_eq!(rep.runs.len(), 5);

    let events = rep.summarize(|r| r.events as f64);
    assert_eq!(events.n, 5);
    assert!(events.mean > 0.0);
    assert!(events.ci95.is_finite());
    assert!(events.ci95 > 0.0, "event counts vary across seeds, so the CI must have width");
    // Student-t at n=5 (df=4): CI = t * sd / sqrt(n).
    let expected = 2.776 * events.std_dev / 5f64.sqrt();
    assert!((events.ci95 - expected).abs() < 1e-9 * expected.max(1.0));

    let constant = rep.summarize(|r| r.end_time.as_secs_f64());
    assert_eq!(constant.ci95, 0.0, "a seed-independent metric has zero CI width");
}
