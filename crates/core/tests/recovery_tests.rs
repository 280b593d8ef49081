//! Integration tests for controller crash-recovery: checkpoint capture
//! and restore, determinism equivalence (a crash plus restore resumes the
//! exact uninterrupted trajectory), and the safety properties of cold
//! reconstruction (no scale-to-zero, slew-limited re-engagement).

use evolve_core::{
    ControllerCheckpoint, ExperimentRunner, ManagerKind, RecoveryStrategy, ResourceManager,
    RunConfig, RunOutcome,
};
use evolve_scheduler::RequeueBackoff;
use evolve_sim::{ClusterConfig, FaultEvent, FaultKind, NodeShape, Simulation, SimulationConfig};
use evolve_types::{SimDuration, SimTime};
use evolve_workload::ScenarioSpec;
use proptest::prelude::*;

fn base_config(horizon_secs: u64, seed: u64) -> RunConfig {
    let spec = ScenarioSpec::builtin("single_diurnal").unwrap();
    let mut cfg = RunConfig::from_spec(&spec, ManagerKind::Evolve).seed(seed).build();
    cfg.scenario.horizon = SimDuration::from_secs(horizon_secs);
    cfg
}

fn controller_crash_at(secs: u64) -> Vec<FaultEvent> {
    vec![FaultEvent { at: SimTime::from_secs(secs), kind: FaultKind::ControllerCrash }]
}

fn crashed_config(
    horizon_secs: u64,
    seed: u64,
    crash_at: u64,
    recovery: RecoveryStrategy,
) -> RunConfig {
    let mut cfg = base_config(horizon_secs, seed);
    cfg.faults = controller_crash_at(crash_at);
    cfg.recovery = recovery;
    cfg
}

/// An overloaded cluster (1.2× the capacity knee) with the capacity
/// arbiter engaged, optionally crashing the controller mid-run.
fn saturated_config(horizon_secs: u64, seed: u64, crash_at: Option<u64>) -> RunConfig {
    // The overload file carries its 4-node cluster and the arbiter.
    let spec = ScenarioSpec::builtin("overload").unwrap().scaled_loads(1.2);
    let mut cfg = RunConfig::from_spec(&spec, ManagerKind::Evolve).seed(seed).build();
    cfg.scenario.horizon = SimDuration::from_secs(horizon_secs);
    if let Some(t) = crash_at {
        cfg.faults = controller_crash_at(t);
        cfg.recovery = RecoveryStrategy::Restore;
    }
    cfg
}

fn run(cfg: RunConfig) -> RunOutcome {
    ExperimentRunner::new(cfg).run()
}

/// Every recorded series of two runs, compared bit-for-bit. The
/// `faults/active` series is excluded: it describes the injected fault
/// plan itself, which by construction differs between a crashed run and
/// its uninterrupted twin.
fn assert_identical_series(a: &RunOutcome, b: &RunOutcome) {
    let mut names_a: Vec<&str> =
        a.registry.series_names().filter(|n| *n != "faults/active").collect();
    let mut names_b: Vec<&str> =
        b.registry.series_names().filter(|n| *n != "faults/active").collect();
    names_a.sort_unstable();
    names_b.sort_unstable();
    assert_eq!(names_a, names_b, "different series sets");
    for name in names_a {
        let pa = a.registry.series(name).unwrap().to_points();
        let pb = b.registry.series(name).unwrap().to_points();
        assert_eq!(pa.len(), pb.len(), "series {name} lengths differ");
        for (i, (x, y)) in pa.iter().zip(pb.iter()).enumerate() {
            assert_eq!(x.0.to_bits(), y.0.to_bits(), "series {name} sample {i} time differs");
            assert_eq!(x.1.to_bits(), y.1.to_bits(), "series {name} sample {i} value differs");
        }
    }
}

/// A live simulation with the manager ticked a few times, for checkpoint
/// capture tests.
fn warmed_manager(ticks: u32) -> (Simulation, ResourceManager) {
    let scenario = ScenarioSpec::builtin("single_diurnal").unwrap().build();
    let mut sim = Simulation::new(
        SimulationConfig::default(),
        ClusterConfig::uniform(6, NodeShape::default()),
        &scenario.mix,
        7,
    );
    // First-fit bind so the service actually runs.
    let pending: Vec<_> = sim.cluster().pending_pods().map(|p| p.id).collect();
    let node = sim.cluster().nodes()[0].id();
    for pod in pending {
        let _ = sim.bind_pod(pod, node);
    }
    let mut manager = ResourceManager::new(ManagerKind::Evolve, &sim);
    for i in 1..=u64::from(ticks) {
        sim.run_until(SimTime::from_secs(5 * i));
        manager.tick(&mut sim, 5.0);
    }
    (sim, manager)
}

#[test]
fn checkpoint_bytes_round_trip_from_live_state() {
    let (sim, manager) = warmed_manager(8);
    let backoff = RequeueBackoff::new();
    let ck = manager.checkpoint(sim.now(), &backoff);
    assert_eq!(ck.app_count(), 1);
    assert_eq!(ck.ticks(), 8);
    let bytes = ck.to_bytes();
    let back = ControllerCheckpoint::from_bytes(&bytes).expect("decode");
    assert_eq!(back, ck);
    // The byte image is deterministic: capturing the same state twice
    // yields identical bytes.
    assert_eq!(manager.checkpoint(sim.now(), &backoff).to_bytes(), bytes);
}

#[test]
fn restore_resumes_the_exact_trajectory() {
    let (mut sim_a, mut live) = warmed_manager(8);
    let ck = live.checkpoint(sim_a.now(), &RequeueBackoff::new());

    // A second, independent simulation replayed to the same point gives
    // the restored manager an identical world to act on.
    let (mut sim_b, _destroyed) = warmed_manager(8);
    let (mut restored, _backoff) =
        ResourceManager::restore(ManagerKind::Evolve, &sim_b, &ck).expect("restore");

    for i in 9..=16u64 {
        sim_a.run_until(SimTime::from_secs(5 * i));
        sim_b.run_until(SimTime::from_secs(5 * i));
        let wa = live.tick(&mut sim_a, 5.0);
        let wb = restored.tick(&mut sim_b, 5.0);
        assert_eq!(wa, wb, "windows diverged at tick {i}");
    }
    // Identical decisions leave identical checkpoints behind.
    assert_eq!(
        live.checkpoint(sim_a.now(), &RequeueBackoff::new()).to_bytes(),
        restored.checkpoint(sim_b.now(), &RequeueBackoff::new()).to_bytes()
    );
}

/// `desynced_apps` travels in the checkpoint: a restore that had to skip
/// an app the simulation no longer serves still says so after the next
/// crash. (Checkpoint version 3 left the counter out, and the second
/// restore read zero.)
#[test]
fn desync_count_survives_a_second_restore() {
    let one = ScenarioSpec::builtin("single_diurnal").unwrap().build().mix;
    let (spec, load) = one.services()[0].clone();
    let two = one.clone().with_service(spec, load);
    let sim_of = |mix| {
        Simulation::new(
            SimulationConfig::default(),
            ClusterConfig::uniform(6, NodeShape::default()),
            mix,
            7,
        )
    };
    let (sim_one, sim_two) = (sim_of(&one), sim_of(&two));
    let image = ResourceManager::new(ManagerKind::Evolve, &sim_two)
        .checkpoint(SimTime::ZERO, &RequeueBackoff::new());
    assert_eq!(image.app_count(), 2);

    let (first, backoff) =
        ResourceManager::restore(ManagerKind::Evolve, &sim_one, &image).expect("restore");
    assert_eq!(first.counters().desynced_apps, 1);
    let image = first.checkpoint(SimTime::ZERO, &backoff);
    assert_eq!(image.app_count(), 1);
    let image = ControllerCheckpoint::from_bytes(&image.to_bytes()).expect("decode");
    let (second, _) =
        ResourceManager::restore(ManagerKind::Evolve, &sim_one, &image).expect("restore");
    assert_eq!(second.counters().desynced_apps, 1);
}

#[test]
fn corrupt_checkpoint_is_rejected_not_panicking() {
    let (sim, manager) = warmed_manager(4);
    let mut bytes = manager.checkpoint(sim.now(), &RequeueBackoff::new()).to_bytes();
    // Flip a byte somewhere in the middle of the policy state.
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    // Either decodes to a different checkpoint or errors — never panics.
    if let Ok(ck) = ControllerCheckpoint::from_bytes(&bytes) {
        let _ = ResourceManager::restore(ManagerKind::Evolve, &sim, &ck);
    }
    // Truncations must error.
    let full = manager.checkpoint(sim.now(), &RequeueBackoff::new()).to_bytes();
    for cut in [0, 1, 4, full.len() / 2, full.len() - 1] {
        assert!(ControllerCheckpoint::from_bytes(&full[..cut]).is_err(), "cut {cut} accepted");
    }
}

#[test]
fn crash_with_restore_is_bit_identical_to_uninterrupted() {
    let uninterrupted = run(base_config(300, 42));
    let crashed = run(crashed_config(300, 42, 150, RecoveryStrategy::Restore));
    assert_eq!(crashed.controller_restarts, 1);
    assert_eq!(uninterrupted.controller_restarts, 0);
    assert_eq!(crashed.total_windows(), uninterrupted.total_windows());
    assert_eq!(crashed.total_violations(), uninterrupted.total_violations());
    assert_eq!(crashed.control, uninterrupted.control);
    assert_eq!(crashed.preemptions, uninterrupted.preemptions);
    assert_eq!(crashed.bindings, uninterrupted.bindings);
    assert_eq!(crashed.events, uninterrupted.events);
    assert_identical_series(&uninterrupted, &crashed);
}

#[test]
fn cold_reconstruction_recovers_without_collapse() {
    let crash_at = 150u64;
    let outcome = run(crashed_config(360, 42, crash_at, RecoveryStrategy::ColdReconstruct));
    assert_eq!(outcome.controller_restarts, 1);
    assert_eq!(outcome.control.desynced_apps, 0);

    let replicas = outcome.registry.series("app0/replicas").expect("replicas series").to_points();
    let alloc = outcome.registry.series("app0/alloc_cpu").expect("alloc series").to_points();
    assert_eq!(replicas.len(), alloc.len());

    // Never scale-to-zero after the restart.
    for &(t, r) in &replicas {
        if t >= crash_at as f64 {
            assert!(r >= 1.0, "scaled to zero at t={t}");
        }
    }

    // Bumpless transfer: the first post-restart actuation may move the
    // per-replica allocation only a bounded step from the held value
    // (DegradationGuard slew limit, 25% per tick).
    let per_replica: Vec<(f64, f64)> = replicas
        .iter()
        .zip(alloc.iter())
        .filter(|((_, r), _)| *r > 0.0)
        .map(|(&(t, r), &(_, a))| (t, a / r))
        .collect();
    let crash_idx = per_replica
        .iter()
        .position(|&(t, _)| t > crash_at as f64)
        .expect("samples after the crash");
    if crash_idx > 0 {
        let before = per_replica[crash_idx - 1].1;
        let after = per_replica[crash_idx].1;
        if before > 0.0 {
            let ratio = after / before;
            assert!(
                (0.7..=1.3).contains(&ratio),
                "first post-restart step jumped {before} -> {after} (ratio {ratio:.3})"
            );
        }
    }

    // Hold-last-safe: the first few post-restart ticks keep at least half
    // of the pre-crash per-replica allocation (no collapse to spec
    // minimum while the controller re-learns).
    if crash_idx > 0 {
        let before = per_replica[crash_idx - 1].1;
        for &(t, pr) in per_replica.iter().skip(crash_idx).take(3) {
            assert!(
                pr >= before * 0.5,
                "allocation collapsed to {pr} (pre-crash {before}) at t={t}"
            );
        }
    }
}

#[test]
fn naive_reset_restarts_and_diverges() {
    let crashed = run(crashed_config(300, 42, 150, RecoveryStrategy::NaiveReset));
    assert_eq!(crashed.controller_restarts, 1);
    // The naive reset forgets the latched size; its post-crash trajectory
    // must differ from the uninterrupted one (otherwise the strawman
    // demonstrates nothing).
    let uninterrupted = run(base_config(300, 42));
    let a = uninterrupted.registry.series("app0/alloc_cpu").unwrap().to_points();
    let b = crashed.registry.series("app0/alloc_cpu").unwrap().to_points();
    assert_ne!(a, b, "naive reset unexpectedly matched the uninterrupted run");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 5, ..ProptestConfig::default() })]

    #[test]
    fn restore_equivalence_holds_for_any_crash_time(crash_at in 20u64..160, seed in 0u64..3) {
        let seed = 42 + seed;
        let uninterrupted = run(base_config(180, seed));
        let crashed = run(crashed_config(180, seed, crash_at, RecoveryStrategy::Restore));
        prop_assert_eq!(crashed.controller_restarts, 1);
        prop_assert_eq!(crashed.total_windows(), uninterrupted.total_windows());
        prop_assert_eq!(crashed.total_violations(), uninterrupted.total_violations());
        prop_assert_eq!(crashed.events, uninterrupted.events);
        assert_identical_series(&uninterrupted, &crashed);
    }

    #[test]
    fn restore_equivalence_holds_under_saturation(crash_at in 60u64..200, seed in 0u64..3) {
        // Saturated variant: the crunch flag, per-app grant fractions, and
        // starvation ages all live in the checkpoint, so a crash + restore
        // in the middle of a capacity crunch must resume the exact
        // arbitrated trajectory — same sheds, same clips, same series.
        let seed = 42 + seed;
        let uninterrupted = run(saturated_config(240, seed, None));
        let crashed = run(saturated_config(240, seed, Some(crash_at)));
        prop_assert_eq!(crashed.controller_restarts, 1);
        prop_assert!(uninterrupted.control.shed_decisions > 0, "overload run never entered a crunch");
        prop_assert_eq!(crashed.control, uninterrupted.control);
        prop_assert_eq!(crashed.total_windows(), uninterrupted.total_windows());
        prop_assert_eq!(crashed.total_violations(), uninterrupted.total_violations());
        prop_assert_eq!(crashed.events, uninterrupted.events);
        assert_identical_series(&uninterrupted, &crashed);
    }
}
