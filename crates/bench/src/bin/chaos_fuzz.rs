//! **chaos_fuzz** — randomized fault-schedule fuzzing with automatic
//! shrinking (the FoundationDB simulation-testing loop; DESIGN.md
//! decision 12).
//!
//! Each case draws a seeded random fault schedule over a workload
//! profile, runs it through the normal [`RunConfig::from_spec`] path with
//! the [`ChaosOracle`] invariant battery enabled, and — on any violation —
//! delta-debugs the schedule to a locally minimal one. The reproducer is
//! the scenario that ran, as an ordinary scenario file with the minimal
//! `[[fault]]` list and a `[repro]` table (seed, violated check), written
//! to `experiments_out/chaos_repro.toml`.
//!
//! ```text
//! cargo run --release -p evolve-bench --bin chaos_fuzz -- [--seeds N] [--out DIR]
//! cargo run --release -p evolve-bench --bin chaos_fuzz -- --replay experiments_out/chaos_repro.toml
//! ```
//!
//! Run *i* of the N (default 200) uses seed 42 + *i*, so `--seeds N` is
//! the run count, and `--seeds i+1` reruns the fuzz up to run *i*.
//!
//! Exit status: 0 when every case is clean (or a replay no longer
//! fails), 1 when a violation was found (fuzz) or reproduced (replay),
//! 2 on a usage error or when the replay file does not load.

use std::path::{Path, PathBuf};

use evolve::prelude::*;
use evolve_bench::{usage_exit, BenchArgs};
use evolve_sim::chaos::{random_fault_events, shrink_events};
use evolve_types::SimDuration;
use evolve_workload::ReproSpec;

/// The workload case `case` fuzzes, cycling through four profiles, with
/// the fuzz horizon. Three run on 8 nodes; the overload profile keeps its
/// own 4-node cluster and capacity arbiter (the code path it exists to
/// fuzz): faults then push an already-saturated arbiter through node
/// losses and actuation failures.
fn scenario_for(case: u64, horizon: SimDuration) -> ScenarioSpec {
    let builtin = |name: &str| ScenarioSpec::builtin(name).expect("builtin scenario");
    let on_8_nodes = |mut spec: ScenarioSpec| {
        spec.cluster.nodes = 8;
        spec
    };
    let mut spec = match case % 4 {
        0 => on_8_nodes(builtin("single_diurnal")),
        1 => on_8_nodes(ScenarioSpec::headline(0.2)),
        2 => on_8_nodes(builtin("interference")),
        _ => builtin("overload").scaled_loads(1.5),
    };
    spec.horizon = horizon;
    spec
}

/// Runs `spec` under `faults` with the oracle on and returns its report.
fn run_case(spec: &ScenarioSpec, seed: u64, faults: &[FaultEvent]) -> OracleReport {
    let spec = ScenarioSpec { faults: faults.to_vec(), ..spec.clone() };
    let config = RunConfig::from_spec(&spec, ManagerKind::Evolve)
        .seed(seed)
        .record_series(false)
        .oracle(true)
        .build();
    ExperimentRunner::new(config).run().oracle.expect("oracle was enabled")
}

/// Shrinks a failing schedule and writes the reproducer; returns its
/// path.
fn minimize_and_write(
    spec: &ScenarioSpec,
    seed: u64,
    events: &[FaultEvent],
    violation: &str,
    out_dir: &Path,
) -> PathBuf {
    let faults = shrink_events(events, |cand| !run_case(spec, seed, cand).is_clean());
    // The shrunk schedule may trip a different (earlier) check; record
    // what it actually fires now.
    let report = run_case(spec, seed, &faults);
    let violation =
        report.failed_checks().first().cloned().unwrap_or_else(|| violation.to_string());
    let repro = ScenarioSpec { faults, repro: Some(ReproSpec { seed, violation }), ..spec.clone() };
    let _ = std::fs::create_dir_all(out_dir);
    let path = out_dir.join("chaos_repro.toml");
    if let Err(err) = std::fs::write(&path, repro.to_toml()) {
        eprintln!("warning: failed to write reproducer {}: {err}", path.display());
    }
    path
}

/// Replays a reproducer file; returns the process exit code.
fn replay(path: &str) -> i32 {
    let spec = match ScenarioSpec::from_file(path) {
        Ok(spec) => spec,
        Err(err) => {
            eprintln!("error: {err}");
            return 2;
        }
    };
    let Some(repro) = &spec.repro else {
        eprintln!("error: {path} has no [repro] table (seed, violation) to replay");
        return 2;
    };
    println!(
        "replaying {path}: scenario={} seed={} nodes={} faults={} (expected: {})",
        spec.name,
        repro.seed,
        spec.cluster.nodes,
        spec.faults.len(),
        repro.violation
    );
    let report = run_case(&spec, repro.seed, &spec.faults);
    if report.is_clean() {
        println!(
            "clean: the violation no longer reproduces ({} ticks checked)",
            report.ticks_checked
        );
        0
    } else {
        println!("reproduced {} violation(s):", report.total_violations);
        for v in &report.violations {
            println!("  [{}] {}: {}", v.at, v.check, v.detail);
        }
        1
    }
}

fn main() {
    let args = BenchArgs::parse();
    let rest: Vec<&str> = args.rest.iter().map(String::as_str).collect();
    match (&rest[..], args.seed_count, &args.scenario) {
        (["--replay", path], None, None) => std::process::exit(replay(path)),
        ([], _, None) => {}
        _ => usage_exit("usage: chaos_fuzz [--seeds N] [--out DIR] | --replay FILE"),
    }

    let seeds = args.seeds(200);
    let runs = seeds.len();
    let horizon = SimDuration::from_secs(600);
    println!("chaos_fuzz: {runs} runs, horizon {}s", horizon.as_secs_f64());
    for (i, &seed) in seeds.iter().enumerate() {
        let spec = scenario_for(i as u64, horizon);
        let events = random_fault_events(seed, horizon, spec.cluster.nodes, spec.app_count(), 5);
        let report = run_case(&spec, seed, &events);
        if report.is_clean() {
            if (i + 1).is_multiple_of(25) {
                println!("  {}/{runs} clean", i + 1);
            }
            continue;
        }
        let fired = report.failed_checks().join(", ");
        println!(
            "violation after {i} clean runs: scenario={} seed={seed} checks=[{fired}]",
            spec.name
        );
        println!("shrinking {} events…", events.len());
        let path = minimize_and_write(
            &spec,
            seed,
            &events,
            report.failed_checks().first().map_or("unknown", String::as_str),
            &args.out_dir,
        );
        println!("minimized reproducer written to {}", path.display());
        println!(
            "replay with: chaos_fuzz --replay {} (rerun the fuzz to here: chaos_fuzz --seeds {})",
            path.display(),
            i + 1
        );
        std::process::exit(1);
    }
    println!("all {runs}/{runs} runs clean — no oracle violations");
}
