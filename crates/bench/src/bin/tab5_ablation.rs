//! **T5 — ablation.** What each piece of the EVOLVE controller buys:
//! full EVOLVE vs CPU-only PID (classical 1-D control) vs fixed gains
//! (no on-line adaptation) vs threshold HPA, on the bottleneck-rotation
//! mix where each service binds on a *different* resource dimension.
//! Replicated across seeds (mean ± 95 % CI).
//!
//! ```text
//! cargo run --release -p evolve-bench --bin tab5_ablation [seed-count]
//! ```

use evolve::prelude::*;
use evolve_bench::BenchArgs;
use evolve_core::EvolvePolicyConfig;

fn main() {
    let args = BenchArgs::parse(5);
    let seeds = &args.seeds;
    let variants: Vec<(&str, ManagerKind)> = vec![
        ("evolve (full)", ManagerKind::Evolve),
        ("evolve cpu-only", ManagerKind::EvolveWith(EvolvePolicyConfig::default().cpu_only())),
        (
            "evolve fixed-gains",
            ManagerKind::EvolveWith(EvolvePolicyConfig::default().fixed_gains()),
        ),
        ("hpa", ManagerKind::Hpa { target_utilization: 0.6 }),
        ("kube-static", ManagerKind::KubeStatic),
    ];
    let spec = args.spec("bottleneck_rotation");
    let configs: Vec<RunConfig> = variants
        .iter()
        .map(|(_, manager)| {
            RunConfig::from_spec(&spec, manager.clone()).record_series(false).build()
        })
        .collect();
    eprintln!("running {} variants × {} seeds …", configs.len(), seeds.len());
    let reps = Harness::new().run_matrix(&configs, seeds);

    // One column per service of the spec (the rotation mix's are
    // cpu-svc, disk-svc, net-svc and mem-svc).
    let services: Vec<&str> = spec.services.iter().map(|s| s.name.as_str()).collect();
    let mut headers = vec!["variant".to_string()];
    headers.extend(services.iter().map(|name| (*name).to_string()));
    headers.extend(["aggregate", "oom kills"].map(String::from));
    let mut table = Table::new(headers);
    for ((label, _), rep) in variants.iter().zip(&reps) {
        let mut row = vec![(*label).to_string()];
        for name in &services {
            let rate = |r: &RunOutcome| {
                r.apps.iter().find(|a| a.name == *name).map_or(0.0, |a| a.violation_rate())
            };
            row.push(rep.summarize(rate).display(3));
        }
        row.push(rep.violation_rate().display(3));
        row.push(
            rep.summarize(|r| r.apps.iter().map(|a| a.oom_kills).sum::<u64>() as f64).display(1),
        );
        table.add_row(row);
    }
    println!(
        "\nT5 — ablation on the bottleneck-rotation mix (violation rate per service, {} seed(s))\n",
        seeds.len()
    );
    println!("{table}");
    println!("expected shape: the CPU-only controller defends cpu-svc but fails the disk/net/");
    println!("mem services (it cannot see their bottleneck); fixed gains oscillate or react");
    println!("sluggishly under the bursty MMPP load; full EVOLVE is lowest across the board.");
    if let Err(err) = write_csv(&args.out_dir, "tab5_ablation", &table.to_csv()) {
        eprintln!("could not write CSV: {err}");
    }
}
