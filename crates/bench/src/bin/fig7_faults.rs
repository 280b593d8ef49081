//! **F7 — fault timeline.** One latency-critical service under EVOLVE
//! through a node crash and recovery: p99 latency, replica count, total
//! CPU allocation, ready nodes and pending pods per control window. The
//! plotted trace comes from the first seed; the summary line aggregates
//! all seeds. Emits `experiments_out/fig7_faults.csv`.
//!
//! ```text
//! cargo run --release -p evolve-bench --bin fig7_faults [seed-count]
//! EVOLVE_SMOKE=1 … # short horizon for CI smoke runs
//! ```

use evolve::prelude::*;
use evolve_bench::BenchArgs;

fn main() {
    let args = BenchArgs::parse(5);
    let seeds = &args.seeds;
    let smoke = args.smoke;
    let (horizon, crash_at, downtime) =
        if smoke { (360u64, 120u64, 90u64) } else { (720u64, 240u64, 120u64) };
    // The builtin run is the figure: one node crash on a `horizon`-long
    // trace. A `--scenario` file brings its own `[[fault]]` plan and
    // horizon instead (the horizon capped only in smoke runs).
    let builtin = args.scenario.is_none();
    let mut builder = RunConfig::from_spec(&args.spec("single_diurnal"), ManagerKind::Evolve);
    if builtin {
        builder = builder.faults(FaultPlan::new().with_node_crash(
            NodeId::new(0),
            SimTime::from_secs(crash_at),
            Some(SimDuration::from_secs(downtime)),
        ));
    }
    let mut config = builder.build();
    if builtin || smoke {
        config.scenario.horizon = config.scenario.horizon.min(SimDuration::from_secs(horizon));
    }
    eprintln!(
        "EVOLVE through a node crash at t={crash_at} s ({downtime} s down, {} seed(s)) …",
        seeds.len()
    );
    let rep = Harness::new().run_seeds(&config, seeds);
    let outcome = rep.representative();
    let names = [
        "app0/p99_ms",
        "app0/replicas",
        "app0/alloc_cpu",
        "cluster/nodes_ready",
        "cluster/pods_pending",
    ];
    let csv = outcome.registry.wide_csv(&names);
    if let Err(err) = write_csv(&args.out_dir, "fig7_faults", &csv) {
        eprintln!("could not write CSV: {err}");
    }
    println!(
        "\nF7 — node crash at t={crash_at} s, recovery at t={} s (every 4th window, seed {})\n",
        crash_at + downtime,
        rep.seeds[0]
    );
    println!(
        "{:>8} {:>9} {:>9} {:>11} {:>7} {:>9}",
        "t (s)", "p99 ms", "replicas", "alloc mcore", "ready", "pending"
    );
    let get = |n: &str| outcome.registry.series(n).map(|s| s.to_points()).unwrap_or_default();
    let p99 = get(names[0]);
    let replicas = get(names[1]);
    let alloc = get(names[2]);
    let ready = get(names[3]);
    let pending = get(names[4]);
    for (i, (t, r)) in ready.iter().enumerate() {
        if i % 4 != 0 {
            continue;
        }
        let find =
            |col: &[(f64, f64)]| col.iter().find(|(pt, _)| (pt - t).abs() < 1e-6).map(|(_, v)| *v);
        println!(
            "{t:>8.0} {:>9} {:>9} {:>11} {r:>7.0} {:>9}",
            find(&p99).map_or("-".into(), |v| format!("{v:.1}")),
            find(&replicas).map_or("-".into(), |v| format!("{v:.0}")),
            find(&alloc).map_or("-".into(), |v| format!("{v:.0}")),
            find(&pending).map_or("-".into(), |v| format!("{v:.0}")),
        );
    }
    let viol = rep.violation_rate();
    println!(
        "\nviolation rate across {} seed(s): {} — expected shape: ready nodes dip 6→5 at the\n\
         crash, evicted replicas requeue (pending spike) and rebind on survivors within a few\n\
         control periods, p99 spikes then recovers, and the node's return restores headroom",
        viol.n,
        viol.display(3)
    );
    println!("CSV: experiments_out/fig7_faults.csv");
}
