//! How `evolve-core` applies a declarative scenario: a builtin name or a
//! `scenarios/*.toml` file configures the run's workload, cluster shape
//! and arbiter, and every builtin runs as its file says.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Duration;

use evolve_core::{ExperimentRunner, ManagerKind, RunConfig, RunOutcome, Stage, StageHook};
use evolve_sim::{Pod, Simulation};
use evolve_types::{AppId, SimDuration, SimTime};
use evolve_workload::{ScenarioSpec, BUILTINS};

fn scenario_file(name: &str) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios"))
        .join(format!("{name}.toml"))
}

/// A builtin resolved by name configures the run's cluster shape and
/// arbiter through `RunConfig::from_spec`.
#[test]
fn scenario_named_applies_cluster_and_arbiter() {
    let spec = ScenarioSpec::builtin("overload").expect("builtin resolves");
    let config = RunConfig::from_spec(&spec, ManagerKind::Evolve).build();
    assert_eq!(config.scenario.name, "overload-1.00");
    assert_eq!(config.nodes, 4);
    assert!(config.arbiter.is_some(), "overload spec carries the arbiter");

    let err = ScenarioSpec::builtin("ghost").unwrap_err();
    assert!(err.to_string().contains("ghost"));
}

/// A scenario file loads through the same validated path as the suite.
#[test]
fn scenario_file_loads_checked_in_specs() {
    let spec = ScenarioSpec::from_file(scenario_file("interference")).expect("checked-in file");
    let config = RunConfig::from_spec(&spec, ManagerKind::Evolve).build();
    assert_eq!(config.nodes, 10);
    assert!(config.scenario.name.starts_with("interference"));
}

/// FNV-1a over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The run's counters, every app's window and request tallies and the
/// utilisation summary's bits, folded into one word.
fn run_digest(outcome: &RunOutcome) -> u64 {
    let head = [outcome.events, outcome.bindings, outcome.preemptions];
    let apps = outcome
        .apps
        .iter()
        .flat_map(|a| [a.windows, a.violations, a.completions, a.timeouts, a.shed_requests]);
    let u = &outcome.utilization;
    let shares = [u.allocated_share, u.used_share, u.efficiency];
    let util = shares
        .iter()
        .flat_map(|v| v.as_array().map(f64::to_bits))
        .chain([u.elapsed_secs.to_bits()]);
    fnv1a(head.into_iter().chain(apps).chain(util))
}

/// The apps that had a bound pod at the end of any tick.
#[derive(Default)]
struct Bound(BTreeSet<AppId>);

impl StageHook for Bound {
    fn piece(&mut self, stage: Stage, _: u64, _: Duration, _: u64, sim: &Simulation) {
        if stage == Stage::Actuate {
            self.0.extend(sim.cluster().pods().filter(|p| p.node.is_some()).map(Pod::app));
        }
    }
}

/// How long a builtin runs past its last job submission (or past the
/// start, when it submits none): long enough for the job to bind, short
/// enough that the unmanaged runs' queues stay shallow in a debug build.
const MARGIN: SimDuration = SimDuration::from_secs(60);

/// Every builtin scenario runs as its file says, under the stock
/// scheduler with static replicas and under EVOLVE, seed 42, to at most
/// [`MARGIN`] past its last job submission: each service, at least one batch stage and each gang of the
/// file binds pods, and each run's counters, per-app tallies and
/// utilisation are pinned to one digest. The runs read every field of the
/// service, batch and HPC entries — priorities, base memory, replica
/// counts, gang sizes and submit times — so the way a spec becomes a
/// workload cannot change without a digest changing.
#[test]
fn every_builtin_runs_as_its_file_says() {
    let expected: [(&str, [u64; 2]); 9] = [
        ("headline", [0x89b0_4093_fcd6_6e6d, 0x0117_9871_552b_425e]),
        ("single_diurnal", [0xc6b3_c51f_13ba_ea74, 0x6d86_89bb_444a_b04b]),
        ("flash_crowd", [0x130f_101a_d38b_c1b4, 0x6090_fcb8_840a_8d30]),
        ("step_response", [0x30cb_4b21_e05f_3a1e, 0x2965_3be4_d767_4330]),
        ("load_sweep", [0x9259_8829_2177_aefe, 0x4699_8d81_3d0e_e66e]),
        ("bottleneck_rotation", [0x16b9_7fd2_6c7b_07da, 0xfb4d_6703_2a78_04f0]),
        ("overload", [0x76a5_8f68_463b_50db, 0x7c57_451a_650e_2756]),
        ("cluster_scale", [0xedfd_717f_f770_6bda, 0x9354_9957_1b0f_0798]),
        ("interference", [0x732e_3ea8_c9f8_04e6, 0xf933_911a_348e_c3bc]),
    ];
    let names: Vec<&str> = BUILTINS.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, expected.map(|(name, _)| name), "one pinned row per builtin");
    let run = |name: &'static str| {
        let mut spec = ScenarioSpec::builtin(name).expect("builtin parses");
        let submits = spec.batch_jobs.iter().map(|b| b.submit_at);
        let last = submits.chain(spec.hpc_jobs.iter().map(|h| h.submit_at)).max();
        spec.horizon = spec.horizon.min(last.unwrap_or(SimTime::ZERO) + MARGIN - SimTime::ZERO);
        let (services, batches, gangs) =
            (spec.services.len(), spec.batch_jobs.len(), spec.hpc_jobs.len());
        let digests = [ManagerKind::KubeStatic, ManagerKind::Evolve].map(|manager| {
            let config = RunConfig::from_spec(&spec, manager).seed(42).build();
            let mut bound = Bound::default();
            let outcome = ExperimentRunner::new(config).run_with(&mut bound);
            let bound = |i: usize| bound.0.contains(&AppId::new(i as u32));
            for i in (0..services).chain(services + batches..services + batches + gangs) {
                assert!(bound(i), "{name}/{manager:?}: app {i} never bound");
            }
            let batch_bound = (services..services + batches).any(bound);
            assert!(batches == 0 || batch_bound, "{name}/{manager:?}: no batch stage bound");
            run_digest(&outcome)
        });
        (name, digests)
    };
    // One thread per builtin: the unmanaged runs' deep queues are slow in
    // a debug build.
    let got = std::thread::scope(|scope| {
        let runs = expected.map(|(name, _)| scope.spawn(move || run(name)));
        runs.map(|run| run.join().expect("run panicked"))
    });
    assert_eq!(got, expected, "a builtin's run moved");
}
