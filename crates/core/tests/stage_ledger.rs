//! The pieces a `StageHook` sees cover the run: their walls sum to the
//! run's wall time, every tick reports its stages in order, their units
//! add up to the outcome's counters, and watching a run changes nothing
//! it computes.

use std::time::Duration;

use evolve_core::{
    ExperimentRunner, ManagerKind, RecoveryStrategy, RunConfig, RunOutcome, Stage, StageHook,
};
use evolve_sim::{FaultEvent, FaultKind, Simulation};
use evolve_types::{ArbiterConfig, SimDuration, SimTime};
use evolve_workload::ScenarioSpec;

/// Every piece of a run: `(stage, tick, wall, units)`.
#[derive(Default)]
struct Pieces(Vec<(Stage, u64, Duration, u64)>);

impl StageHook for Pieces {
    fn piece(&mut self, stage: Stage, tick: u64, wall: Duration, units: u64, _: &Simulation) {
        self.0.push((stage, tick, wall, units));
    }
}

impl Pieces {
    /// The stages tick `tick` reported, in order.
    fn stages_of(&self, tick: u64) -> Vec<Stage> {
        self.0.iter().filter(|p| p.1 == tick).map(|p| p.0).collect()
    }

    /// The units every piece of `stage` reported, summed.
    fn units_of(&self, stage: Stage) -> u64 {
        self.0.iter().filter(|p| p.0 == stage).map(|p| p.3).sum()
    }

    /// Asserts the pieces cover the run: they open with construction, end
    /// with the finish, and their walls sum exactly to the run's.
    fn assert_cover(&self, outcome: &RunOutcome) {
        assert_eq!(self.0.first().map(|p| p.0), Some(Stage::Construct));
        assert_eq!(self.0.last().map(|p| p.0), Some(Stage::Finish));
        let wall: Duration = self.0.iter().map(|p| p.2).sum();
        assert_eq!(wall.as_secs_f64(), outcome.perf.wall_secs);
    }
}

fn headline() -> RunConfig {
    let mut spec = ScenarioSpec::headline(0.2);
    spec.horizon = SimDuration::from_secs(60);
    RunConfig::from_spec(&spec, ManagerKind::Evolve).build()
}

fn watched(config: RunConfig) -> (RunOutcome, Pieces) {
    let mut pieces = Pieces::default();
    let outcome = ExperimentRunner::new(config).run_with(&mut pieces);
    (outcome, pieces)
}

const LIVE_TICK: [Stage; 6] = [
    Stage::RunUntil,
    Stage::ManagerTick,
    Stage::SchedulerCycle,
    Stage::Actuate,
    Stage::Snapshot,
    Stage::Record,
];

#[test]
fn stage_names_are_the_span_names() {
    let names: Vec<&str> = [
        Stage::Construct,
        Stage::RunUntil,
        Stage::ManagerTick,
        Stage::SchedulerCycle,
        Stage::Actuate,
        Stage::Snapshot,
        Stage::Record,
        Stage::OracleCheck,
        Stage::Finish,
    ]
    .iter()
    .map(|s| s.name())
    .collect();
    assert_eq!(
        names,
        [
            "core.construct",
            "sim.run_until",
            "core.manager_tick",
            "scheduler.cycle",
            "sim.actuate",
            "sim.snapshot",
            "telemetry.record",
            "oracle.check",
            "core.finish",
        ]
    );
}

#[test]
fn pieces_cover_a_plain_run() {
    let (outcome, pieces) = watched(headline());
    pieces.assert_cover(&outcome);
    assert_eq!(pieces.stages_of(0), [Stage::Construct, Stage::SchedulerCycle, Stage::Actuate]);
    assert_eq!(outcome.perf.ticks, 12);
    for tick in 1..=outcome.perf.ticks {
        let mut want = LIVE_TICK.to_vec();
        if tick == outcome.perf.ticks {
            want.push(Stage::Finish);
        }
        assert_eq!(pieces.stages_of(tick), want, "tick {tick}");
    }
    let ticks = pieces.0.iter().filter(|p| p.0 == Stage::RunUntil).count();
    assert_eq!(ticks as u64, outcome.perf.ticks);
    assert_eq!(pieces.units_of(Stage::RunUntil), outcome.events);
    assert_eq!(pieces.units_of(Stage::Actuate), outcome.bindings + outcome.preemptions);
    assert!(pieces.units_of(Stage::ManagerTick) > 0);
    assert!(pieces.units_of(Stage::SchedulerCycle) >= outcome.bindings);
    // One utilisation sample plus the series records, every tick.
    assert_eq!(
        pieces.units_of(Stage::Record),
        outcome.perf.ticks + outcome.perf.fast_metric_records
    );
}

#[test]
fn pieces_cover_a_run_with_faults_an_arbiter_and_the_oracle() {
    let mut config = headline();
    config.faults = vec![
        FaultEvent {
            at: SimTime::from_secs(20),
            kind: FaultKind::ControlStall { duration: SimDuration::from_secs(10) },
        },
        FaultEvent { at: SimTime::from_secs(40), kind: FaultKind::ControllerCrash },
    ];
    config.recovery = RecoveryStrategy::Restore;
    config.arbiter = Some(ArbiterConfig::default());
    config.oracle = true;

    let (outcome, pieces) = watched(config.clone());
    pieces.assert_cover(&outcome);
    // Checkpoints are captured while a crash is armed, and the oracle
    // checks after them.
    let mut live = LIVE_TICK.to_vec();
    live.extend([Stage::ManagerTick, Stage::OracleCheck]);
    let mut stalled = 0;
    for tick in 1..=outcome.perf.ticks {
        let mut stages = pieces.stages_of(tick);
        if tick == outcome.perf.ticks {
            assert_eq!(stages.pop(), Some(Stage::Finish));
        }
        if stages == [Stage::RunUntil] {
            stalled += 1;
        } else {
            assert_eq!(stages, live, "tick {tick}");
        }
    }
    assert_eq!(stalled, 2, "the ticks ending at 20 s and 25 s stall");
    assert_eq!(pieces.units_of(Stage::RunUntil), outcome.events);
    assert_eq!(pieces.units_of(Stage::Actuate), outcome.bindings + outcome.preemptions);

    let plain = ExperimentRunner::new(config).run();
    assert_eq!(outcome.controller_restarts, 1);
    assert_eq!(plain.controller_restarts, outcome.controller_restarts);
    assert_eq!(format!("{:?}", plain.apps), format!("{:?}", outcome.apps));
    assert_eq!(plain.utilization.mean_used().to_bits(), outcome.utilization.mean_used().to_bits());
    assert_eq!(
        plain.utilization.mean_allocated().to_bits(),
        outcome.utilization.mean_allocated().to_bits()
    );
    assert_eq!(plain.events, outcome.events);
    assert_eq!(plain.bindings, outcome.bindings);
    assert_eq!(plain.preemptions, outcome.preemptions);
    assert_eq!(plain.oracle, outcome.oracle);
    assert!(outcome.oracle.as_ref().is_some_and(|r| r.ticks_checked > 0));
}
