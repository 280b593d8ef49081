//! **F1 — diurnal timeline.** One latency-critical service through a
//! compressed diurnal day under EVOLVE: offered load, replica count,
//! total CPU allocation, measured CPU usage and p99 latency, per control
//! window. The plotted trace comes from the first seed (reproducible);
//! the summary line aggregates all seeds. Emits
//! `experiments_out/fig1_timeline.csv` and prints a sampled trace.
//!
//! ```text
//! cargo run --release -p evolve-bench --bin fig1_timeline [seed-count]
//! ```

use evolve::prelude::*;
use evolve_bench::BenchArgs;

fn main() {
    let args = BenchArgs::parse(5);
    let seeds = &args.seeds;
    eprintln!("running the diurnal day under EVOLVE ({} seed(s)) …", seeds.len());
    let config = RunConfig::from_spec(&args.spec("single_diurnal"), ManagerKind::Evolve).build();
    let rep = Harness::new().run_seeds(&config, seeds);
    let outcome = rep.representative();
    let names =
        ["app0/rate_rps", "app0/replicas", "app0/alloc_cpu", "app0/usage_cpu", "app0/p99_ms"];
    let csv = outcome.registry.wide_csv(&names);
    if let Err(err) = write_csv(&args.out_dir, "fig1_timeline", &csv) {
        eprintln!("could not write CSV: {err}");
    }
    println!("\nF1 — diurnal timeline (every 6th control window shown, seed {})\n", rep.seeds[0]);
    println!(
        "{:>8} {:>10} {:>9} {:>11} {:>11} {:>9}",
        "t (s)", "rate rps", "replicas", "alloc mcore", "used mcore", "p99 ms"
    );
    let get = |n: &str| outcome.registry.series(n).map(|s| s.to_points()).unwrap_or_default();
    let rate = get(names[0]);
    let replicas = get(names[1]);
    let alloc = get(names[2]);
    let usage = get(names[3]);
    let p99 = get(names[4]);
    for (i, (t, r)) in rate.iter().enumerate() {
        if i % 6 != 0 {
            continue;
        }
        let find =
            |col: &[(f64, f64)]| col.iter().find(|(pt, _)| (pt - t).abs() < 1e-6).map(|(_, v)| *v);
        println!(
            "{t:>8.0} {r:>10.1} {:>9} {:>11} {:>11} {:>9}",
            find(&replicas).map_or("-".into(), |v| format!("{v:.0}")),
            find(&alloc).map_or("-".into(), |v| format!("{v:.0}")),
            find(&usage).map_or("-".into(), |v| format!("{v:.0}")),
            find(&p99).map_or("-".into(), |v| format!("{v:.1}")),
        );
    }
    let viol = rep.violation_rate();
    println!(
        "\nviolation rate across {} seed(s): {} — allocation should track the sinusoidal\n\
         load with a small lead (the Holt predictor) while p99 stays under the 100 ms objective",
        viol.n,
        viol.display(3)
    );
    println!("CSV: experiments_out/fig1_timeline.csv");
}
