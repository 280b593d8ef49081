//! **F6 — interference / slack harvesting.** Two latency-critical
//! services colocated with oversized batch and HPC jobs. With priority
//! preemption (the EVOLVE scheduler profile), batch work should harvest
//! slack without breaking the services' PLOs; without preemption the
//! services queue behind batch allocations. Replicated across seeds
//! (mean ± 95 % CI).
//!
//! ```text
//! cargo run --release -p evolve-bench --bin fig6_interference [seed-count]
//! ```

use evolve::prelude::*;
use evolve_bench::BenchArgs;
use evolve_workload::WorldClass;

fn svc_violation_rate(r: &RunOutcome) -> f64 {
    fn svc(r: &RunOutcome) -> impl Iterator<Item = &evolve_core::AppSummary> {
        r.apps.iter().filter(|a| a.world == WorldClass::Microservice)
    }
    let windows: u64 = svc(r).map(|a| a.windows).sum();
    let violations: u64 = svc(r).map(|a| a.violations).sum();
    if windows == 0 {
        0.0
    } else {
        violations as f64 / windows as f64
    }
}

fn main() {
    let args = BenchArgs::parse(5);
    let seeds = &args.seeds;
    let variants: Vec<(&str, ManagerKind, SchedulerProfile)> = vec![
        ("evolve + preemption", ManagerKind::Evolve, SchedulerProfile::Evolve),
        ("evolve, no preemption", ManagerKind::Evolve, SchedulerProfile::KubeDefault),
        ("kube-static", ManagerKind::KubeStatic, SchedulerProfile::KubeDefault),
    ];
    let spec = args.spec("interference");
    let configs: Vec<RunConfig> = variants
        .iter()
        .map(|(_, manager, profile)| {
            RunConfig::from_spec(&spec, manager.clone())
                .scheduler(*profile)
                .record_series(false)
                .build()
        })
        .collect();
    eprintln!("running {} variants × {} seeds …", configs.len(), seeds.len());
    let reps = Harness::new().run_matrix(&configs, seeds);

    let mut table = Table::new(
        [
            "variant",
            "svc viol rate",
            "svc timeouts",
            "jobs finished",
            "deadline rate",
            "used share",
            "preemptions",
        ]
        .map(String::from)
        .to_vec(),
    );
    for ((label, _, _), rep) in variants.iter().zip(&reps) {
        let svc_timeouts = rep.summarize(|r| {
            r.apps
                .iter()
                .filter(|a| a.world == WorldClass::Microservice)
                .map(|a| a.timeouts)
                .sum::<u64>() as f64
        });
        let finished =
            rep.summarize(|r| r.jobs.iter().filter(|j| j.finished.is_some()).count() as f64);
        let total_jobs = rep.representative().jobs.len();
        table.add_row(vec![
            (*label).to_string(),
            rep.summarize(svc_violation_rate).display(3),
            svc_timeouts.display(0),
            format!("{}/{total_jobs}", finished.display(1)),
            rep.deadline_hit_rate().display(2),
            rep.used_share().display(3),
            rep.preemptions().display(1),
        ]);
    }
    println!(
        "\nF6 — colocating latency services with aggressive batch/HPC (10 nodes, {} seed(s))\n",
        seeds.len()
    );
    println!("{table}");
    println!("expected shape: with preemption the services stay compliant and batch still");
    println!("finishes (harvesting slack, losing some work to preemption); without it, the");
    println!("services suffer when batch got there first.");
    if let Err(err) = write_csv(&args.out_dir, "fig6_interference", &table.to_csv()) {
        eprintln!("could not write CSV: {err}");
    }
}
