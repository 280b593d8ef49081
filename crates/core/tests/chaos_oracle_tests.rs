//! Integration tests for the chaos harness wiring in the runner: the
//! oracle stays clean on healthy runs (faulted or not), actuation-path
//! faults are counted and traced, and the fault timeline lands in the
//! decision trace and the `faults/active` series.

use evolve_core::{ExperimentRunner, ManagerKind, RecoveryStrategy, RunConfig};
use evolve_sim::chaos::{plan_from_events, random_fault_events};
use evolve_sim::FaultPlan;
use evolve_types::{SimDuration, SimTime};
use evolve_workload::ScenarioSpec;

fn config(horizon_secs: u64, seed: u64) -> RunConfig {
    let mut spec = ScenarioSpec::builtin("single_diurnal").unwrap();
    spec.horizon = SimDuration::from_secs(horizon_secs);
    spec.cluster.nodes = 6;
    RunConfig::from_spec(&spec, ManagerKind::Evolve)
        .seed(seed)
        .record_series(false)
        .oracle(true)
        .build()
}

#[test]
fn oracle_clean_on_fault_free_run() {
    let outcome = ExperimentRunner::new(config(120, 42)).run();
    let report = outcome.oracle.expect("oracle was enabled");
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert!(report.ticks_checked > 0);
    assert_eq!(outcome.control.dropped_actuations, 0);
    assert_eq!(outcome.control.delayed_actuations, 0);
    assert_eq!(outcome.control.partial_actuations, 0);
}

#[test]
fn oracle_is_none_when_disabled() {
    let mut cfg = config(60, 42);
    cfg.oracle = false;
    assert!(ExperimentRunner::new(cfg).run().oracle.is_none());
}

/// Seeded random fault schedules through the full runner must never trip
/// an invariant on main — the same property CI's `experiments` job checks
/// at a larger budget (`chaos_fuzz --seeds 200`).
#[test]
fn oracle_clean_on_random_schedules() {
    for seed in [42u64, 43, 44] {
        let mut cfg = config(120, seed);
        cfg.faults = plan_from_events(&random_fault_events(seed, cfg.scenario.horizon, 6, 1, 4));
        let outcome = ExperimentRunner::new(cfg).run();
        let report = outcome.oracle.expect("oracle was enabled");
        assert!(report.is_clean(), "seed {seed} violations: {:?}", report.violations);
    }
}

/// While a controller crash is armed with Restore recovery, the oracle
/// also exercises checkpoint→restore equivalence every capture — and a
/// healthy controller must pass it.
#[test]
fn checkpoint_equivalence_clean_under_crash() {
    let mut cfg = config(180, 42);
    cfg.faults = FaultPlan::new().with_controller_crash(SimTime::from_secs(90));
    cfg.recovery = RecoveryStrategy::Restore;
    let outcome = ExperimentRunner::new(cfg).run();
    let report = outcome.oracle.expect("oracle was enabled");
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert_eq!(outcome.controller_restarts, 1);
}

/// Actuation faults bite, are counted, and still leave every invariant
/// intact; the injected timeline is visible to `trace_explain` as Fault
/// trace events, and `faults/active` is recorded when series are on.
#[test]
fn actuation_faults_counted_traced_and_clean() {
    let mut cfg = config(180, 42);
    cfg.record_series = true;
    cfg.faults = FaultPlan::new()
        .with_actuation_drop(SimTime::from_secs(30), SimDuration::from_secs(30))
        .with_actuation_delay(
            SimTime::from_secs(80),
            SimDuration::from_secs(30),
            SimDuration::from_secs(15),
        )
        .with_actuation_partial(SimTime::from_secs(130), SimDuration::from_secs(30), 0.5);
    let outcome = ExperimentRunner::new(cfg).run();
    let report = outcome.oracle.as_ref().expect("oracle was enabled");
    assert!(report.is_clean(), "violations: {:?}", report.violations);
    assert!(
        outcome.control.dropped_actuations > 0,
        "the 30 s drop window must swallow at least one actuation"
    );
    assert!(outcome.control.delayed_actuations > 0);
    // Every scheduled fault appears in the decision trace.
    let fault_kinds: Vec<&str> = outcome.trace.faults().map(|f| f.kind).collect();
    assert!(fault_kinds.contains(&"actuation_drop"), "trace faults: {fault_kinds:?}");
    assert!(fault_kinds.contains(&"actuation_delay"));
    assert!(fault_kinds.contains(&"actuation_partial"));
    // The active-fault series exists and peaks at ≥1 inside the windows.
    let series = outcome.registry.series("faults/active").expect("faults/active series");
    let peak = series.to_points().iter().map(|&(_, v)| v).fold(0.0f64, f64::max);
    assert!(peak >= 1.0, "faults/active never rose above zero");
}

/// Fault-free runs must not gain the `faults/active` series — the golden
/// fixtures pin the exact series set of the headline run.
#[test]
fn fault_free_run_has_no_faults_series() {
    let mut cfg = config(60, 42);
    cfg.record_series = true;
    let outcome = ExperimentRunner::new(cfg).run();
    assert!(outcome.registry.series("faults/active").is_none());
    assert_eq!(outcome.trace.faults().count(), 0);
}
