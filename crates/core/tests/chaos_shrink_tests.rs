//! End-to-end proof that the chaos harness catches a real atomicity bug
//! and shrinks its fault schedule to a minimal reproducer.
//!
//! The seeded bug: `EVOLVE_CHAOS_GANG_NO_ROLLBACK` makes the scheduler
//! commit a partially placed gang instead of rolling back (see
//! `SchedulerFramework::place_gang`). This file lives alone in its own
//! test binary because the flag is read from the process environment at
//! scheduler construction; no other test must share the process.

use evolve_core::{ExperimentRunner, ManagerKind, RunConfig};
use evolve_sim::chaos::shrink_events;
use evolve_sim::{FaultEvent, FaultKind, OracleReport};
use evolve_types::{SimDuration, SimTime};
use evolve_workload::{ReproSpec, ScenarioSpec};

/// The interference mix on 8 nodes for 150 s, under `events`.
fn spec_with(events: &[FaultEvent]) -> ScenarioSpec {
    let mut spec = ScenarioSpec::builtin("interference").unwrap();
    spec.horizon = SimDuration::from_secs(150);
    spec.cluster.nodes = 8;
    spec.faults = events.to_vec();
    spec
}

fn run_spec(seed: u64, spec: &ScenarioSpec) -> OracleReport {
    let cfg = RunConfig::from_spec(spec, ManagerKind::Evolve)
        .seed(seed)
        .record_series(false)
        .oracle(true)
        .build();
    ExperimentRunner::new(cfg).run().oracle.expect("oracle was enabled")
}

fn run_case(seed: u64, events: &[FaultEvent]) -> OracleReport {
    run_spec(seed, &spec_with(events))
}

/// The schedule the fuzzer would hand to the shrinker: one control stall
/// that actually provokes the bug (the backlog after the stall forces a
/// gang through the broken partial-placement path) plus three decoy
/// faults landing *after* the violation, which the shrinker must strip.
fn failing_schedule() -> Vec<FaultEvent> {
    vec![
        FaultEvent {
            at: SimTime::from_secs(67),
            kind: FaultKind::ControlStall { duration: SimDuration::from_secs(42) },
        },
        FaultEvent {
            at: SimTime::from_secs(140),
            kind: FaultKind::ScrapeBlackout { app: None, duration: SimDuration::from_secs(8) },
        },
        FaultEvent {
            at: SimTime::from_secs(142),
            kind: FaultKind::MetricNoise {
                app: None,
                duration: SimDuration::from_secs(6),
                cv: 0.2,
            },
        },
        FaultEvent {
            at: SimTime::from_secs(145),
            kind: FaultKind::ActuationDrop { duration: SimDuration::from_secs(4) },
        },
    ]
}

#[test]
fn seeded_gang_bug_is_caught_and_shrunk_to_a_tiny_reproducer() {
    std::env::set_var("EVOLVE_CHAOS_GANG_NO_ROLLBACK", "1");
    let seed = 95;
    let events = failing_schedule();

    // 1. The oracle catches the seeded bug as a gang-atomicity violation.
    let report = run_case(seed, &events);
    assert!(!report.is_clean(), "seeded bug not caught");
    assert!(
        report.failed_checks().iter().any(|c| c == "gang_atomicity"),
        "expected gang_atomicity, got {:?}",
        report.failed_checks()
    );

    // 2. ddmin shrinks the four-event schedule to at most three events
    //    (here: exactly the control stall).
    let minimal = shrink_events(&events, |cand| !run_case(seed, cand).is_clean());
    assert!(minimal.len() <= 3, "shrinker left {} events: {minimal:?}", minimal.len());
    assert!(
        minimal.iter().any(|ev| matches!(ev.kind, FaultKind::ControlStall { .. })),
        "the culprit stall was shrunk away: {minimal:?}"
    );

    // 3. The minimized schedule still reproduces, and the reproducer file
    //    replays the violation from its text alone: no profile lookup,
    //    the scenario, cluster, faults and seed all come out of the TOML.
    let shrunk_report = run_case(seed, &minimal);
    assert!(!shrunk_report.is_clean());
    let violation = shrunk_report.failed_checks().first().cloned().unwrap_or_default();
    let mut written = spec_with(&minimal);
    written.repro = Some(ReproSpec { seed, violation: violation.clone() });
    let text = written.to_toml();

    let loaded = ScenarioSpec::from_toml_str(&text).expect("reproducer loads");
    assert_eq!(loaded, written);
    let repro = loaded.repro.as_ref().expect("[repro] table");
    let replayed = run_spec(repro.seed, &loaded);
    assert!(
        replayed.failed_checks().contains(&violation),
        "reproducer did not replay {violation}: {:?}",
        replayed.failed_checks()
    );
    assert_eq!(replayed, shrunk_report, "the replay is the run that was written down");
}
