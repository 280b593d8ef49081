//! **F4 — utilization.** Per-resource allocated/used shares on the
//! headline mix for each policy (mean ± 95 % CI across seeds), plus the
//! cluster CPU-share time series (CSV, first seed) that the utilization
//! figure plots.
//!
//! ```text
//! cargo run --release -p evolve-bench --bin fig4_utilization [seed-count]
//! ```

use evolve::prelude::*;
use evolve_bench::BenchArgs;

fn main() {
    let args = BenchArgs::parse(5);
    let seeds = &args.seeds;
    let managers = [
        ManagerKind::Evolve,
        ManagerKind::KubeStatic,
        ManagerKind::Hpa { target_utilization: 0.6 },
    ];
    // The CSV wants the cluster time series, so series stay on.
    let spec = args.spec("headline");
    let configs: Vec<RunConfig> =
        managers.iter().map(|m| RunConfig::from_spec(&spec, m.clone()).build()).collect();
    eprintln!("running {} policies × {} seeds …", configs.len(), seeds.len());
    let reps = Harness::new().run_matrix(&configs, seeds);

    let mut table = Table::new(
        [
            "policy",
            "alloc cpu",
            "alloc mem",
            "alloc disk",
            "alloc net",
            "used cpu",
            "eff cpu",
            "viol rate",
        ]
        .map(String::from)
        .to_vec(),
    );
    for rep in &reps {
        let label = rep.manager().to_string();
        table.add_row(vec![
            label.clone(),
            rep.summarize(|r| r.utilization.allocated_share[Resource::Cpu]).display(3),
            rep.summarize(|r| r.utilization.allocated_share[Resource::Memory]).display(3),
            rep.summarize(|r| r.utilization.allocated_share[Resource::DiskIo]).display(3),
            rep.summarize(|r| r.utilization.allocated_share[Resource::NetIo]).display(3),
            rep.summarize(|r| r.utilization.used_share[Resource::Cpu]).display(3),
            rep.summarize(|r| r.utilization.efficiency[Resource::Cpu]).display(3),
            rep.violation_rate().display(3),
        ]);
        let csv = rep.representative().registry.wide_csv(&[
            "cluster/allocated_cpu_share",
            "cluster/used_cpu_share",
            "cluster/pods_pending",
        ]);
        if let Err(err) = write_csv(&args.out_dir, &format!("fig4_utilization_{label}"), &csv) {
            eprintln!("could not write CSV: {err}");
        }
    }
    println!("\nF4 — time-averaged utilization on the headline mix ({} seed(s))\n", seeds.len());
    println!("{table}");
    println!("the claim under test: EVOLVE converts reservation into useful work — its");
    println!("used/allocated efficiency should be the highest while violations stay lowest.");
}
