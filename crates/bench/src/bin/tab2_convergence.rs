//! **T2 — convergence vs silos.** The same workload run (a) converged on
//! one 20-node cluster under EVOLVE, vs (b) split into three dedicated
//! silos (cloud 8 / big-data 6 / HPC 6 nodes) under the same controller.
//! Convergence should match per-world PLO attainment while using the
//! hardware better — idle silo capacity cannot help the busy world.
//! Replicated across seeds; silo runs are paired per seed before
//! aggregation so each seed yields one converged and one silo sample.
//!
//! ```text
//! cargo run --release -p evolve-bench --bin tab2_convergence [seed-count]
//! ```

use evolve::prelude::*;
use evolve_bench::BenchArgs;
use evolve_workload::WorldClass;

/// The headline spec split into per-world silos: each keeps one of its
/// three lists, on its own cluster of 8, 6 and 6 nodes.
fn silo_specs() -> [ScenarioSpec; 3] {
    let silo = |name: &str, nodes: usize| {
        let mut spec = ScenarioSpec::headline(1.0);
        spec.name = format!("silo-{name}");
        spec.description = format!("{name} silo of the headline mix");
        spec.cluster.nodes = nodes;
        spec
    };
    let (mut cloud, mut bigdata, mut hpc) = (silo("cloud", 8), silo("bigdata", 6), silo("hpc", 6));
    cloud.batch_jobs.clear();
    cloud.hpc_jobs.clear();
    bigdata.services.clear();
    bigdata.hpc_jobs.clear();
    hpc.services.clear();
    hpc.batch_jobs.clear();
    [cloud, bigdata, hpc]
}

/// Per-seed aggregate of one deployment: the metrics the table reports.
struct DeploymentSample {
    by_world: [f64; 3],
    deadline_rate: f64,
    alloc_share: f64,
    used_share: f64,
    violation_rate: f64,
}

fn converged_sample(run: &RunOutcome) -> DeploymentSample {
    let (hits, total) = run.deadline_hits();
    DeploymentSample {
        by_world: run.violation_rate_by_world(),
        deadline_rate: if total == 0 { 1.0 } else { hits as f64 / total as f64 },
        alloc_share: run.utilization.mean_allocated(),
        used_share: run.utilization.mean_used(),
        violation_rate: run.total_violation_rate(),
    }
}

/// Combines the three silo runs of one seed into one sample: app windows
/// pool directly; utilization is weighted by silo size.
fn silo_sample(runs: [&RunOutcome; 3], nodes: [usize; 3]) -> DeploymentSample {
    let apps = runs.iter().flat_map(|r| r.apps.iter());
    let mut by_world = [[0u64; 2]; 3];
    for a in apps {
        let i = match a.world {
            WorldClass::Microservice => 0,
            WorldClass::BigData => 1,
            WorldClass::Hpc => 2,
        };
        by_world[i][0] += a.windows;
        by_world[i][1] += a.violations;
    }
    let rate = |w: [u64; 2]| if w[0] == 0 { 0.0 } else { w[1] as f64 / w[0] as f64 };
    let windows: u64 = by_world.iter().map(|w| w[0]).sum();
    let violations: u64 = by_world.iter().map(|w| w[1]).sum();
    let jobs: Vec<_> = runs.iter().flat_map(|r| r.jobs.iter()).collect();
    let hits = jobs.iter().filter(|j| j.met_deadline()).count();
    let nodes_total: usize = nodes.iter().sum();
    let weighted = |f: fn(&RunOutcome) -> f64| {
        runs.iter().zip(nodes).map(|(r, n)| f(r) * n as f64).sum::<f64>() / nodes_total as f64
    };
    DeploymentSample {
        by_world: [rate(by_world[0]), rate(by_world[1]), rate(by_world[2])],
        deadline_rate: if jobs.is_empty() { 1.0 } else { hits as f64 / jobs.len() as f64 },
        alloc_share: weighted(|r| r.utilization.mean_allocated()),
        used_share: weighted(|r| r.utilization.mean_used()),
        violation_rate: if windows == 0 { 0.0 } else { violations as f64 / windows as f64 },
    }
}

fn summary_row(label: &str, samples: &[DeploymentSample], table: &mut Table) {
    let col = |f: fn(&DeploymentSample) -> f64| {
        Summary::from_samples(&samples.iter().map(f).collect::<Vec<_>>())
    };
    table.add_row(vec![
        label.to_string(),
        col(|s| s.by_world[0]).display(3),
        col(|s| s.by_world[1]).display(3),
        col(|s| s.by_world[2]).display(3),
        col(|s| s.deadline_rate).display(2),
        col(|s| s.alloc_share).display(3),
        col(|s| s.used_share).display(3),
    ]);
}

fn main() {
    let args = BenchArgs::parse(5);
    let seeds = args.seeds.clone();
    let harness = Harness::new();
    let mut table = Table::new(
        [
            "deployment",
            "cloud viol",
            "bigdata viol",
            "hpc viol",
            "deadline rate",
            "alloc share",
            "used share",
        ]
        .map(String::from)
        .to_vec(),
    );

    eprintln!("running converged (20 nodes) × {} seeds …", seeds.len());
    let converged_config = RunConfig::from_spec(&args.spec("headline"), ManagerKind::Evolve)
        .record_series(false)
        .build();
    let converged = harness.run_seeds(&converged_config, &seeds);
    let converged_samples: Vec<DeploymentSample> =
        converged.runs.iter().map(converged_sample).collect();
    summary_row("converged-20", &converged_samples, &mut table);

    let silos = silo_specs();
    let silo_nodes = silos.each_ref().map(|spec| spec.cluster.nodes);
    let silo_configs: Vec<RunConfig> = silos
        .iter()
        .map(|spec| RunConfig::from_spec(spec, ManagerKind::Evolve).record_series(false).build())
        .collect();
    eprintln!("running 3 silos × {} seeds …", seeds.len());
    let silo_reps = harness.run_matrix(&silo_configs, &seeds);
    // Pair the three silo runs of each seed into one aggregate sample.
    let silo_samples: Vec<DeploymentSample> = (0..seeds.len())
        .map(|k| {
            silo_sample(
                [&silo_reps[0].runs[k], &silo_reps[1].runs[k], &silo_reps[2].runs[k]],
                silo_nodes,
            )
        })
        .collect();
    summary_row("silos-8/6/6", &silo_samples, &mut table);

    println!(
        "\nT2 — converged cluster vs per-world silos (EVOLVE manager in both, {} seed(s))\n",
        seeds.len()
    );
    println!("{table}");
    let agg = |samples: &[DeploymentSample]| {
        Summary::from_samples(&samples.iter().map(|s| s.violation_rate).collect::<Vec<_>>())
    };
    println!(
        "aggregate violation rate: converged {} vs silos {}",
        agg(&converged_samples).display(3),
        agg(&silo_samples).display(3)
    );
    if let Err(err) = write_csv(&args.out_dir, "tab2_convergence", &table.to_csv()) {
        eprintln!("could not write CSV: {err}");
    }
}
