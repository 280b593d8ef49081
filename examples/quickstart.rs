//! Quickstart: run one diurnal day of a latency-critical service under
//! EVOLVE and under stock Kubernetes, and compare PLO compliance and
//! utilization.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use evolve::prelude::*;

fn main() {
    let mut table = Table::new(
        ["policy", "windows", "violations", "violation rate", "alloc share", "used share"]
            .map(String::from)
            .to_vec(),
    );
    let spec = ScenarioSpec::builtin("single_diurnal").expect("builtin scenario");
    for manager in [ManagerKind::Evolve, ManagerKind::KubeStatic] {
        println!("running {} …", manager.label());
        let outcome =
            ExperimentRunner::new(RunConfig::from_spec(&spec, manager).seed(7).build()).run();
        table.add_row(vec![
            outcome.manager.clone(),
            outcome.total_windows().to_string(),
            outcome.total_violations().to_string(),
            format!("{:.3}", outcome.total_violation_rate()),
            format!("{:.3}", outcome.utilization.mean_allocated()),
            format!("{:.3}", outcome.utilization.mean_used()),
        ]);
    }
    println!("\none compressed diurnal day, one service, 6 nodes\n");
    println!("{table}");
    println!("EVOLVE should show far fewer violation windows at a lower allocated share —");
    println!("it right-sizes replicas continuously instead of trusting the static request.");
}
