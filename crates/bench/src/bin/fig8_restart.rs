//! **F8 — restart timeline.** One latency-critical service under EVOLVE
//! through a controller crash, one trace per recovery strategy: p99
//! latency, replica count and total CPU allocation per control window
//! (first seed). Long-format CSV for plotting the three recoveries
//! against the uninterrupted run. Emits `experiments_out/fig8_restart.csv`.
//!
//! ```text
//! cargo run --release -p evolve-bench --bin fig8_restart [seed-count]
//! EVOLVE_SMOKE=1 … # short horizon for CI smoke runs
//! ```

use evolve::prelude::*;
use evolve_bench::BenchArgs;

fn main() {
    let args = BenchArgs::parse(1);
    let seeds = &args.seeds;
    let smoke = args.smoke;
    let (horizon, crash_at) = if smoke { (360u64, 180u64) } else { (720u64, 360u64) };
    let crash_plan = || FaultPlan::new().with_controller_crash(SimTime::from_secs(crash_at));
    let cases: [(&str, FaultPlan, RecoveryStrategy); 4] = [
        ("uninterrupted", FaultPlan::new(), RecoveryStrategy::Restore),
        ("restore", crash_plan(), RecoveryStrategy::Restore),
        ("cold-reconstruct", crash_plan(), RecoveryStrategy::ColdReconstruct),
        ("naive-reset", crash_plan(), RecoveryStrategy::NaiveReset),
    ];
    let mut csv = String::from("strategy,t_s,p99_ms,replicas,alloc_cpu\n");
    println!(
        "\nF8 — controller crash at t={crash_at} s, horizon {horizon} s (seed {})\n",
        seeds[0]
    );
    println!("{:>18} {:>8} {:>9} {:>9} {:>11}", "strategy", "t (s)", "p99 ms", "replicas", "alloc");
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
        eprintln!("{name} …");
        let rep = Harness::new().run_seeds(&config, seeds);
        let outcome = rep.representative();
        let get = |n: &str| outcome.registry.series(n).map(|s| s.to_points()).unwrap_or_default();
        let p99 = get("app0/p99_ms");
        let replicas = get("app0/replicas");
        let alloc = get("app0/alloc_cpu");
        let find = |col: &[(f64, f64)], t: f64| {
            col.iter().find(|(pt, _)| (pt - t).abs() < 1e-6).map(|(_, v)| *v)
        };
        for (i, (t, r)) in replicas.iter().enumerate() {
            let p = find(&p99, *t);
            let a = find(&alloc, *t).unwrap_or(0.0);
            csv.push_str(&format!(
                "{name},{t:.0},{},{r:.0},{a:.0}\n",
                p.map_or(String::from("nan"), |v| format!("{v:.1}")),
            ));
            // Console preview: every 8th window around the crash only.
            if i % 8 == 0 && *t >= (crash_at as f64 - 60.0) {
                println!(
                    "{name:>18} {t:>8.0} {:>9} {r:>9.0} {a:>11.0}",
                    p.map_or("-".into(), |v| format!("{v:.1}")),
                );
            }
        }
    }
    println!("\nexpected shape: the restore trace overlays the uninterrupted one exactly;");
    println!("cold reconstruction holds the pre-crash allocation and re-converges within a");
    println!("bounded window; naive reset drops replicas to the spec default at the crash,");
    println!("p99 spikes, and the controller re-learns the load from scratch.");
    if let Err(err) = write_csv(&args.out_dir, "fig8_restart", &csv) {
        eprintln!("could not write CSV: {err}");
    }
    println!("CSV: experiments_out/fig8_restart.csv");
}
