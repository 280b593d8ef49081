//! **F2 — step response.** A 4× load step hits one service; measure
//! settling time (back under the 100 ms PLO for 3 consecutive windows)
//! and overshoot, for adaptive vs fixed-gain EVOLVE and the HPA,
//! replicated across seeds (mean ± 95 % CI).
//!
//! ```text
//! cargo run --release -p evolve-bench --bin fig2_step [seed-count]
//! ```

use evolve::prelude::*;
use evolve_bench::{replicated_settling, BenchArgs};
use evolve_core::EvolvePolicyConfig;

fn main() {
    let args = BenchArgs::parse(5);
    let seeds = &args.seeds;
    let step_at = SimTime::from_secs(240); // from scenarios/step_response.toml
    let target_ms = 100.0;
    let variants: Vec<(&str, ManagerKind)> = vec![
        ("evolve adaptive", ManagerKind::Evolve),
        (
            "evolve fixed-gains",
            ManagerKind::EvolveWith(EvolvePolicyConfig::default().fixed_gains()),
        ),
        ("hpa", ManagerKind::Hpa { target_utilization: 0.6 }),
    ];
    // Settling needs the per-tick p99 series, so series stay on.
    let spec = args.spec("step_response");
    let configs: Vec<RunConfig> =
        variants.iter().map(|(_, m)| RunConfig::from_spec(&spec, m.clone()).build()).collect();
    eprintln!("running {} variants × {} seeds …", configs.len(), seeds.len());
    let reps = Harness::new().run_matrix(&configs, seeds);

    let mut table = Table::new(
        ["variant", "settle (s)", "overshoot", "viol rate", "windows"].map(String::from).to_vec(),
    );
    let mut csv = String::from("variant,settle_s_mean,settle_ci,overshoot_mean,overshoot_ci\n");
    for ((label, _), rep) in variants.iter().zip(&reps) {
        let s = replicated_settling(rep, "app0/p99_ms", step_at, target_ms, 3);
        table.add_row(vec![
            (*label).to_string(),
            s.settle_display(),
            format!("{}x", s.overshoot.display(2)),
            rep.violation_rate().display(3),
            format!("{:.0}", rep.summarize(|r| r.total_windows() as f64).mean),
        ]);
        csv.push_str(&format!(
            "{label},{:.1},{:.1},{:.3},{:.3}\n",
            s.settle_mean_or_neg(),
            s.settle.as_ref().map_or(0.0, |v| v.ci95),
            s.overshoot.mean,
            s.overshoot.ci95,
        ));
    }
    println!(
        "\nF2 — response to a 4× load step at t=240 s (PLO: p99 ≤ 100 ms, {} seed(s))\n",
        seeds.len()
    );
    println!("{table}");
    println!("expected shape: adaptive gains settle fastest with the smallest overshoot;");
    println!("fixed gains settle slower (or oscillate); the HPA trails both because it");
    println!("only reacts once CPU-utilization averages move.");
    if let Err(err) = write_csv(&args.out_dir, "fig2_step", &csv) {
        eprintln!("could not write CSV: {err}");
    }
}
