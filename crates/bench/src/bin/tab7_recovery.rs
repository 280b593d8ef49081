//! **T7 — controller crash recovery.** A controller crash destroys the
//! control plane's in-memory state mid-run; this table compares the
//! recovery strategies — checkpoint restore, level-triggered cold
//! reconstruction, naive reset — against the uninterrupted run, on PLO
//! violation windows after the crash, time to re-enter compliance, and
//! the post-crash replica floor (a good recovery never collapses a
//! running service). Emits `experiments_out/tab7_recovery.csv`.
//!
//! ```text
//! cargo run --release -p evolve-bench --bin tab7_recovery [seed-count]
//! EVOLVE_SMOKE=1 … # short horizon for CI smoke runs
//! ```

use evolve::prelude::*;
use evolve_bench::{replicated_settling, BenchArgs};

/// Violating windows inside `[from, to]`, averaged across seeds. A window
/// violates when its measured p99 exceeds the target **or** it dropped
/// requests: a collapsed service completes nothing, so its p99 of
/// survivors looks clean while every timeout is a violated objective —
/// counting p99 alone would flatter exactly the worst recovery.
fn violations_during(rep: &ReplicatedOutcome, from: u64, to: u64, target_ms: f64) -> Summary {
    let in_range = |t: f64| t >= from as f64 && t <= to as f64;
    let per_run: Vec<f64> = rep
        .runs
        .iter()
        .map(|r| {
            let points = |n: &str| r.registry.series(n).map(|s| s.to_points()).unwrap_or_default();
            let p99 = points("app0/p99_ms");
            let timeouts = points("app0/timeouts");
            let mut bad: std::collections::BTreeSet<u64> = p99
                .iter()
                .filter(|&&(t, v)| in_range(t) && v > target_ms)
                .map(|&(t, _)| t.to_bits())
                .collect();
            bad.extend(
                timeouts
                    .iter()
                    .filter(|&&(t, v)| in_range(t) && v > 0.0)
                    .map(|&(t, _)| t.to_bits()),
            );
            bad.len() as f64
        })
        .collect();
    Summary::from_samples(&per_run)
}

/// Minimum of the replicas series inside `[from, to]`, averaged across
/// seeds (`0` would mean a recovery scaled a running service to zero).
fn min_replicas_during(rep: &ReplicatedOutcome, from: u64, to: u64) -> Summary {
    let per_run: Vec<f64> = rep
        .runs
        .iter()
        .map(|r| {
            r.registry
                .series("app0/replicas")
                .map(|s| {
                    s.to_points()
                        .iter()
                        .filter(|&&(t, _)| t >= from as f64 && t <= to as f64)
                        .map(|&(_, v)| v)
                        .fold(f64::INFINITY, f64::min)
                })
                .filter(|v| v.is_finite())
                .unwrap_or(0.0)
        })
        .collect();
    Summary::from_samples(&per_run)
}

fn main() {
    let args = BenchArgs::parse(5);
    let seeds = &args.seeds;
    let (horizon, crash_at) = if args.smoke { (360u64, 180u64) } else { (900u64, 450u64) };
    let target_ms = 100.0;
    let crash_plan = || FaultPlan::new().with_controller_crash(SimTime::from_secs(crash_at));
    let cases: [(&str, FaultPlan, RecoveryStrategy); 4] = [
        ("uninterrupted", FaultPlan::new(), RecoveryStrategy::Restore),
        ("restore", crash_plan(), RecoveryStrategy::Restore),
        ("cold-reconstruct", crash_plan(), RecoveryStrategy::ColdReconstruct),
        ("naive-reset", crash_plan(), RecoveryStrategy::NaiveReset),
    ];

    let mut table = Table::new(
        ["recovery", "restarts", "re-comply (s)", "viol after crash", "min replicas", "viol rate"]
            .map(String::from)
            .to_vec(),
    );
    let mut csv = String::from(
        "recovery,restarts_mean,recomply_s_mean,recomply_ci,viol_after_mean,viol_after_ci,min_replicas_mean,viol_rate_mean,timeouts_mean\n",
    );
    // The spec supplies the workload and cluster shape; each case still
    // overrides the fault plan and recovery strategy (that is the
    // comparison under test).
    let spec = args.spec("single_diurnal");
    for (name, plan, recovery) in &cases {
        let mut config = RunConfig::from_spec(&spec, ManagerKind::Evolve)
            .faults(plan.clone())
            .recovery(*recovery)
            .build();
        config.scenario.horizon = SimDuration::from_secs(horizon);
        eprintln!("{name}: {} seed(s) …", seeds.len());
        let rep = Harness::new().run_seeds(&config, seeds);
        let restarts = Summary::from_samples(
            &rep.runs.iter().map(|r| r.controller_restarts as f64).collect::<Vec<_>>(),
        );
        let settle =
            replicated_settling(&rep, "app0/p99_ms", SimTime::from_secs(crash_at), target_ms, 3);
        let after = violations_during(&rep, crash_at, horizon, target_ms);
        let floor = min_replicas_during(&rep, crash_at, horizon);
        table.add_row(vec![
            (*name).to_string(),
            format!("{:.0}", restarts.mean),
            settle.settle_display(),
            after.display(1),
            floor.display(1),
            rep.violation_rate().display(3),
        ]);
        csv.push_str(&format!(
            "{name},{:.1},{:.1},{:.1},{:.2},{:.2},{:.1},{:.4},{:.0}\n",
            restarts.mean,
            settle.settle_mean_or_neg(),
            settle.settle.as_ref().map_or(0.0, |s| s.ci95),
            after.mean,
            after.ci95,
            floor.mean,
            rep.violation_rate().mean,
            rep.timeouts().mean,
        ));
    }
    println!(
        "\nT7 — controller crash at t={crash_at} s (PLO p99 ≤ {target_ms:.0} ms, horizon {horizon} s, {} seed(s))\n",
        seeds.len()
    );
    println!("{table}");
    println!("expected shape: checkpoint restore matches the uninterrupted run (per-tick");
    println!("checkpoints make the resumed trajectory bit-identical); cold reconstruction");
    println!("re-attains compliance within a bounded window — it re-engages slew-limited");
    println!("from the observed allocation, never scaling a running service to zero;");
    println!("naive reset is worst: it actuates spec defaults, collapses capacity and");
    println!("re-learns on live traffic.");
    if let Err(err) = write_csv(&args.out_dir, "tab7_recovery", &table.to_csv()) {
        eprintln!("could not write CSV: {err}");
    }
    if let Err(err) = write_csv(&args.out_dir, "tab7_recovery_raw", &csv) {
        eprintln!("could not write CSV: {err}");
    }
}
