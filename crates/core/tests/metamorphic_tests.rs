//! Metamorphic relations of the control tick: pairs of runs whose
//! outcomes must agree for a reason that does not depend on what the
//! outcome is.

use evolve_core::{ExperimentRunner, ManagerKind, RunConfig, RunOutcome};
use evolve_types::{ArbiterConfig, SimDuration};
use evolve_workload::ScenarioSpec;

/// Everything the two runs must agree on: per-app counts, then events,
/// bindings and the bits of the two utilisation means.
fn visible_state(outcome: &RunOutcome) -> (Vec<[u64; 6]>, [u64; 4]) {
    let apps = outcome
        .apps
        .iter()
        .map(|a| [a.windows, a.violations, a.completions, a.timeouts, a.oom_kills, a.shed_requests])
        .collect();
    let cluster = [
        outcome.events,
        outcome.bindings,
        outcome.utilization.mean_used().to_bits(),
        outcome.utilization.mean_allocated().to_bits(),
    ];
    (apps, cluster)
}

/// An arbiter that never clips and never sheds grants every target in
/// full, so installing it must change nothing a run reports. The cluster
/// is four times the spec's, which keeps summed demand far below ready
/// capacity.
#[test]
fn an_arbiter_with_room_to_spare_changes_nothing() {
    let horizon = SimDuration::from_secs(300);
    let specs = [
        ScenarioSpec::headline(0.5),
        ScenarioSpec::builtin("interference").unwrap(),
        ScenarioSpec::cluster_scale(30, 4, horizon),
    ];
    for mut spec in specs {
        spec.horizon = horizon;
        spec.cluster.nodes *= 4;
        let run = |spec: &ScenarioSpec| {
            let config = RunConfig::from_spec(spec, ManagerKind::Evolve).seed(42);
            ExperimentRunner::new(config.record_series(false).build()).run()
        };
        let plain = run(&spec);
        let arbitrated =
            run(&ScenarioSpec { arbiter: Some(ArbiterConfig::default()), ..spec.clone() });
        assert_eq!(
            arbitrated.control.clipped_allocations + arbitrated.control.shed_decisions,
            0,
            "{}: the arbiter was meant to have room to spare",
            spec.name
        );
        assert!(plain.total_windows() > 0 && plain.bindings > 0, "{}: nothing ran", spec.name);
        assert_eq!(visible_state(&arbitrated), visible_state(&plain), "{}", spec.name);
        assert_eq!(arbitrated.control, plain.control, "{}", spec.name);
    }
}
