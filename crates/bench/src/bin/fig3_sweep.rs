//! **F3 — violation rate vs offered load.** Sweep the offered load from
//! 20% to 140% of nominal capacity and plot each policy's violation rate
//! (mean ± 95 % CI across seeds). The interesting feature is the
//! *crossover*: where the static baseline collapses while EVOLVE keeps
//! absorbing load by rescaling.
//!
//! ```text
//! cargo run --release -p evolve-bench --bin fig3_sweep [seed-count]
//! ```

use evolve::prelude::*;
use evolve_bench::BenchArgs;

fn main() {
    let args = BenchArgs::parse(5);
    let seeds = &args.seeds;
    let offered = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4];
    let managers = [
        ManagerKind::Evolve,
        ManagerKind::KubeStatic,
        ManagerKind::Hpa { target_utilization: 0.6 },
    ];
    // One config per (load, manager) cell, all fanned out together; each
    // cell scales the spec's load profiles by its offered factor.
    let spec = args.spec("load_sweep");
    let configs: Vec<RunConfig> = offered
        .iter()
        .flat_map(|x| {
            let scaled = spec.scaled_loads(*x);
            managers
                .iter()
                .map(move |m| RunConfig::from_spec(&scaled, m.clone()).record_series(false).build())
        })
        .collect();
    eprintln!(
        "sweeping {} loads × {} policies × {} seeds …",
        offered.len(),
        managers.len(),
        seeds.len()
    );
    let reps = Harness::new().run_matrix(&configs, seeds);

    let mut table = Table::new({
        let mut h = vec!["offered".to_string()];
        h.extend(managers.iter().map(|m| m.label()));
        h
    });
    let mut csv = String::from("offered,evolve,evolve_ci,kube_static,kube_static_ci,hpa,hpa_ci\n");
    let mut cells = reps.iter();
    for x in offered {
        let mut row = vec![format!("{x:.1}")];
        let mut csv_row = format!("{x:.2}");
        for _ in &managers {
            let rep = cells.next().expect("one replicated outcome per cell");
            let rate = rep.violation_rate();
            row.push(rate.display(3));
            csv_row.push_str(&format!(",{:.4},{:.4}", rate.mean, rate.ci95));
        }
        csv.push_str(&csv_row);
        csv.push('\n');
        table.add_row(row);
    }
    println!(
        "\nF3 — violation rate vs offered load (fraction of nominal capacity, {} seed(s))\n",
        seeds.len()
    );
    println!("{table}");
    println!("expected shape: all policies near zero at low load; the static baseline's");
    println!("curve breaks upward first (its fixed request saturates), the HPA next (it");
    println!("scales only on CPU averages), EVOLVE last — and most gently.");
    if let Err(err) = write_csv(&args.out_dir, "fig3_sweep", &csv) {
        eprintln!("could not write CSV: {err}");
    }
}
