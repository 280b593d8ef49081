//! The EVOLVE pitch in one run: cloud microservices, big-data batch jobs
//! and gang-scheduled HPC jobs *sharing the same 20 nodes*, with the
//! multi-resource controller defending latency PLOs while batch and HPC
//! work harvest the slack.
//!
//! ```text
//! cargo run --release --example converged_cluster
//! ```

use evolve::prelude::*;

fn main() {
    println!("running the converged headline mix under EVOLVE …");
    let spec = ScenarioSpec::headline(1.0);
    let outcome =
        ExperimentRunner::new(RunConfig::from_spec(&spec, ManagerKind::Evolve).seed(11).build())
            .run();

    let mut per_app = Table::new(
        ["app", "world", "windows", "violations", "rate", "completions", "timeouts"]
            .map(String::from)
            .to_vec(),
    );
    for a in &outcome.apps {
        per_app.add_row(vec![
            a.name.clone(),
            a.world.to_string(),
            a.windows.to_string(),
            a.violations.to_string(),
            format!("{:.3}", a.violation_rate()),
            a.completions.to_string(),
            a.timeouts.to_string(),
        ]);
    }
    println!("\nper-application PLO compliance:\n{per_app}");

    let (hits, total) = outcome.deadline_hits();
    println!("batch/HPC deadlines met: {hits}/{total}");
    for job in &outcome.jobs {
        match job.makespan_s() {
            Some(m) => println!(
                "  {}: finished in {m:.0}s ({})",
                job.job,
                if job.met_deadline() { "on time" } else { "LATE" }
            ),
            None => println!("  {}: did not finish within the horizon", job.job),
        }
    }
    println!(
        "\ncluster utilization: allocated {:.2}, used {:.2} (of capacity), \
         {} preemptions, {} bindings",
        outcome.utilization.mean_allocated(),
        outcome.utilization.mean_used(),
        outcome.preemptions,
        outcome.bindings,
    );
}
