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
use evolve_types::{ArbiterConfig, Error, SimDuration, SimTime};
use evolve_workload::{ScenarioSpec, ServiceEntry};
use proptest::prelude::*;

fn base_config(horizon_secs: u64, seed: u64) -> RunConfig {
    config_for(ManagerKind::Evolve, horizon_secs, seed)
}

fn config_for(manager: ManagerKind, horizon_secs: u64, seed: u64) -> RunConfig {
    let spec = ScenarioSpec::builtin("single_diurnal").unwrap();
    let mut cfg = RunConfig::from_spec(&spec, manager).seed(seed).build();
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
    warmed(ManagerKind::Evolve, ticks)
}

/// [`warmed_manager`] under any kind of manager.
fn warmed(kind: ManagerKind, ticks: u32) -> (Simulation, ResourceManager) {
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
    let mut manager = ResourceManager::new(kind, &sim);
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
    let mut restored = ResourceManager::new(ManagerKind::Evolve, &sim_b);
    restored.restore(&ck).expect("restore");

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
    let mut spec = ScenarioSpec::builtin("single_diurnal").unwrap();
    let one = spec.build().mix;
    let copy = ServiceEntry { name: "copy".into(), ..spec.services[0].clone() };
    spec.services.push(copy);
    let two = spec.build().mix;
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

    let mut first = ResourceManager::new(ManagerKind::Evolve, &sim_one);
    let backoff = first.restore(&image).expect("restore");
    assert_eq!(first.counters().desynced_apps, 1);
    let image = first.checkpoint(SimTime::ZERO, &backoff);
    assert_eq!(image.app_count(), 1);
    let image = ControllerCheckpoint::from_bytes(&image.to_bytes()).expect("decode");
    let mut second = ResourceManager::new(ManagerKind::Evolve, &sim_one);
    second.restore(&image).expect("restore");
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
        let _ = ResourceManager::new(ManagerKind::Evolve, &sim).restore(&ck);
    }
    // Truncations must error.
    let full = manager.checkpoint(sim.now(), &RequeueBackoff::new()).to_bytes();
    for cut in [0, 1, 4, full.len() / 2, full.len() - 1] {
        assert!(ControllerCheckpoint::from_bytes(&full[..cut]).is_err(), "cut {cut} accepted");
    }
}

/// An image names the state of one kind of policy: restored under
/// another kind it is corrupt, never read as that kind's state.
#[test]
fn a_checkpoint_restores_only_under_its_own_kind() {
    let (sim, manager) = warmed(ManagerKind::Hpa, 8);
    let image = manager.checkpoint(sim.now(), &RequeueBackoff::new());
    let image = ControllerCheckpoint::from_bytes(&image.to_bytes()).expect("decode");
    assert!(ResourceManager::new(ManagerKind::Hpa, &sim).restore(&image).is_ok());
    for other in [ManagerKind::Evolve, ManagerKind::Vpa, ManagerKind::KubeStatic] {
        let err = ResourceManager::new(other, &sim).restore(&image).unwrap_err();
        assert!(matches!(err, Error::CorruptCheckpoint(_)), "{}: {err}", other.label());
    }
}

/// A manager of a 4-node cluster under the overload scenario, with an
/// arbiter of `arbiter`'s tunables when given, ticked `ticks` times.
fn arbitrated(arbiter: Option<ArbiterConfig>, ticks: u32) -> (Simulation, ResourceManager) {
    let scenario = ScenarioSpec::builtin("overload").unwrap().scaled_loads(1.2).build();
    let mut sim = Simulation::new(
        SimulationConfig::default(),
        ClusterConfig::uniform(4, NodeShape::default()),
        &scenario.mix,
        7,
    );
    let pending: Vec<_> = sim.cluster().pending_pods().map(|p| p.id).collect();
    let node = sim.cluster().nodes()[0].id();
    for pod in pending {
        let _ = sim.bind_pod(pod, node);
    }
    let mut manager = ResourceManager::new(ManagerKind::Evolve, &sim);
    if let Some(config) = arbiter {
        manager.set_arbiter(config);
    }
    for i in 1..=u64::from(ticks) {
        sim.run_until(SimTime::from_secs(5 * i));
        manager.tick(&mut sim, 5.0);
    }
    (sim, manager)
}

/// Arbiter state restores only onto a manager that runs an arbiter, and
/// an arbitrated manager takes no image without arbiter state.
#[test]
fn arbiter_state_restores_only_onto_an_arbiter() {
    let config = ScenarioSpec::builtin("overload").unwrap().arbiter.expect("an [arbiter] table");
    let (sim, with) = arbitrated(Some(config), 4);
    let image = with.checkpoint(sim.now(), &RequeueBackoff::new());
    let err = ResourceManager::new(ManagerKind::Evolve, &sim).restore(&image).unwrap_err();
    assert!(matches!(&err, Error::CorruptCheckpoint(m) if m.contains("arbiter")), "{err}");

    let (sim, without) = arbitrated(None, 4);
    let image = without.checkpoint(sim.now(), &RequeueBackoff::new());
    let mut arbitrated_manager = ResourceManager::new(ManagerKind::Evolve, &sim);
    arbitrated_manager.set_arbiter(config);
    let err = arbitrated_manager.restore(&image).unwrap_err();
    assert!(matches!(&err, Error::CorruptCheckpoint(m) if m.contains("arbiter")), "{err}");
}

/// The image holds the arbiter's state, not its tunables: a restore
/// under a run whose `[arbiter]` differs from the writer's keeps the
/// writer's grant fractions, ages and crunch flag and arbitrates with
/// the run's own values.
#[test]
fn a_restored_arbiter_runs_its_own_tunables() {
    let written = ScenarioSpec::builtin("overload").unwrap().arbiter.expect("an [arbiter] table");
    let (sim, writer) = arbitrated(Some(written), 4);
    let image = writer.checkpoint(sim.now(), &RequeueBackoff::new());
    let image = ControllerCheckpoint::from_bytes(&image.to_bytes()).expect("decode");

    let own = ArbiterConfig { headroom_fraction: 0.25, demand_cap_ratio: 3.0, ..written };
    assert_ne!(own, written);
    let mut restored = ResourceManager::new(ManagerKind::Evolve, &sim);
    restored.set_arbiter(own);
    let backoff = restored.restore(&image).expect("restore");
    let (w, r) = (writer.arbiter().unwrap(), restored.arbiter().unwrap());
    assert_eq!(r.config(), &own);
    assert_eq!(r.state(), w.state());
    assert!(r.state().grant_fraction(sim.apps()[0].id).is_some(), "no arbitration state");
    // Nothing of the tunables is in the image: the restored manager
    // writes the writer's bytes.
    assert_eq!(restored.checkpoint(image.at, &backoff).to_bytes(), image.to_bytes());
}

/// Every kind of manager, one test each so the kinds run in parallel:
/// the image carries no configuration, so a restore that rebuilt the
/// wrong variant would only show on a non-default one, and each
/// baseline's state has its own layout.
fn assert_crash_with_restore_matches_uninterrupted(manager: ManagerKind) {
    let uninterrupted = run(config_for(manager, 300, 42));
    let mut crashed = config_for(manager, 300, 42);
    crashed.faults = controller_crash_at(150);
    crashed.recovery = RecoveryStrategy::Restore;
    let crashed = run(crashed);
    assert_eq!(crashed.manager, manager.label());
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
fn crash_with_restore_matches_uninterrupted_evolve() {
    assert_crash_with_restore_matches_uninterrupted(ManagerKind::Evolve);
}

#[test]
fn crash_with_restore_matches_uninterrupted_evolve_cpu_only() {
    assert_crash_with_restore_matches_uninterrupted(ManagerKind::EvolveCpuOnly);
}

#[test]
fn crash_with_restore_matches_uninterrupted_evolve_fixed_gains() {
    assert_crash_with_restore_matches_uninterrupted(ManagerKind::EvolveFixedGains);
}

#[test]
fn crash_with_restore_matches_uninterrupted_kube_static() {
    assert_crash_with_restore_matches_uninterrupted(ManagerKind::KubeStatic);
}

#[test]
fn crash_with_restore_matches_uninterrupted_hpa() {
    assert_crash_with_restore_matches_uninterrupted(ManagerKind::Hpa);
}

#[test]
fn crash_with_restore_matches_uninterrupted_vpa() {
    assert_crash_with_restore_matches_uninterrupted(ManagerKind::Vpa);
}

/// A crash right after a control-plane stall: the image is from the last
/// live tick before the stall, and the stalled seconds carry into the
/// first live window, so the restore resumes exactly where the same
/// stalled run without the crash goes on.
#[test]
fn crash_right_after_a_stall_restores_bit_identically() {
    let stall = FaultEvent {
        at: SimTime::from_secs(100),
        kind: FaultKind::ControlStall { duration: SimDuration::from_secs(20) },
    };
    let mut stalled = base_config(300, 42);
    stalled.faults = vec![stall.clone()];
    let mut crashed = base_config(300, 42);
    crashed.faults = vec![stall, controller_crash_at(120).remove(0)];
    crashed.recovery = RecoveryStrategy::Restore;
    let (stalled, crashed) = (run(stalled), run(crashed));
    assert_eq!(crashed.controller_restarts, 1);
    assert_eq!(crashed.total_windows(), stalled.total_windows());
    assert_eq!(crashed.total_violations(), stalled.total_violations());
    assert_eq!(crashed.control, stalled.control);
    assert_eq!(crashed.events, stalled.events);
    assert_identical_series(&stalled, &crashed);
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
