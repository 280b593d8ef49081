//! **F5 — flash crowd.** A 5× spike hits at t=120 s for 150 s. Measure
//! the time to recover the PLO, the worst excursion, and the requests
//! lost, per policy, replicated across seeds (mean ± 95 % CI).
//!
//! ```text
//! cargo run --release -p evolve-bench --bin fig5_flashcrowd [seed-count]
//! ```

use evolve::prelude::*;
use evolve_bench::{replicated_settling, BenchArgs};

fn main() {
    let args = BenchArgs::parse(5);
    let seeds = &args.seeds;
    let spike_at = SimTime::from_secs(120);
    let target_ms = 100.0;
    let managers = [
        ManagerKind::Evolve,
        ManagerKind::Hpa { target_utilization: 0.6 },
        ManagerKind::KubeStatic,
    ];
    // Recovery analysis needs the per-tick p99 series, so series stay on.
    let spec = args.spec("flash_crowd");
    let configs: Vec<RunConfig> =
        managers.iter().map(|m| RunConfig::from_spec(&spec, m.clone()).build()).collect();
    eprintln!("running {} policies × {} seeds …", configs.len(), seeds.len());
    let reps = Harness::new().run_matrix(&configs, seeds);

    let mut table = Table::new(
        ["policy", "recovery (s)", "worst p99", "timeouts", "viol rate"].map(String::from).to_vec(),
    );
    let mut csv = String::from("policy,recovery_s_mean,recovery_ci,overshoot_mean,timeouts_mean\n");
    for rep in &reps {
        let label = rep.manager().to_string();
        let s = replicated_settling(rep, "app0/p99_ms", spike_at, target_ms, 3);
        let timeouts = rep.timeouts();
        table.add_row(vec![
            label.clone(),
            s.settle_display(),
            format!("{:.0} ms", target_ms * (1.0 + s.overshoot.mean)),
            timeouts.display(0),
            rep.violation_rate().display(3),
        ]);
        csv.push_str(&format!(
            "{label},{:.1},{:.1},{:.3},{:.0}\n",
            s.settle_mean_or_neg(),
            s.settle.as_ref().map_or(0.0, |v| v.ci95),
            s.overshoot.mean,
            timeouts.mean,
        ));
    }
    println!(
        "\nF5 — 5× flash crowd at t=120 s (150 s long), PLO p99 ≤ 100 ms, {} seed(s)\n",
        seeds.len()
    );
    println!("{table}");
    println!("expected shape: EVOLVE recovers within a handful of control periods (vertical");
    println!("resize absorbs the first seconds, replicas follow); the HPA needs its");
    println!("utilization averages to move; the static baseline never recovers until the");
    println!("spike ends.");
    if let Err(err) = write_csv(&args.out_dir, "fig5_flashcrowd", &csv) {
        eprintln!("could not write CSV: {err}");
    }
}
