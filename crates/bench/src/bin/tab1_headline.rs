//! **T1 — headline comparison.** PLO violations and cluster utilization
//! for EVOLVE vs stock Kubernetes, threshold HPA and a VPA-like vertical
//! scaler, on the converged headline mix (6 dynamic services + 3 batch
//! jobs + 2 HPC gangs on 20 nodes). Each policy is replicated across
//! seeds in parallel and reported as mean ± 95 % CI.
//!
//! ```text
//! cargo run --release -p evolve-bench --bin tab1_headline [seed-count]
//! ```

use evolve::prelude::*;
use evolve_bench::{headline_headers, headline_summary_row, BenchArgs};

fn main() {
    let args = BenchArgs::parse(5);
    let seeds = &args.seeds;
    let managers = [
        ManagerKind::Evolve,
        ManagerKind::KubeStatic,
        ManagerKind::Hpa { target_utilization: 0.6 },
        ManagerKind::Vpa { margin: 0.3 },
    ];
    let spec = args.spec("headline");
    let configs: Vec<RunConfig> = managers
        .iter()
        .map(|m| RunConfig::from_spec(&spec, m.clone()).record_series(false).build())
        .collect();
    eprintln!("running {} policies × {} seeds …", configs.len(), seeds.len());
    let reps = Harness::new().run_matrix(&configs, seeds);

    let mut table = Table::new(headline_headers());
    let mut evolve_rate = None;
    let mut static_rate = None;
    for rep in &reps {
        match rep.manager() {
            "evolve" => evolve_rate = Some(rep.violation_rate().mean),
            "kube-static" => static_rate = Some(rep.violation_rate().mean),
            _ => {}
        }
        table.add_row(headline_summary_row(rep));
    }
    println!(
        "\nT1 — headline: converged mix, 20 nodes, 20 simulated minutes, {} seed(s)\n",
        seeds.len()
    );
    println!("{table}");
    if let (Some(e), Some(k)) = (evolve_rate, static_rate) {
        if e > 0.0 {
            println!("violation-rate improvement over stock Kubernetes: {:.1}x", k / e);
        } else {
            println!("EVOLVE had zero violation windows (stock Kubernetes: {k:.3})");
        }
    }
    if let Err(err) = write_csv(&args.out_dir, "tab1_headline", &table.to_csv()) {
        eprintln!("could not write CSV: {err}");
    }
}
