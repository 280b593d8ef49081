//! Flash-crowd response: a steady service is hit by a 5× request spike.
//! Watch, tick by tick, how each autoscaler reacts — replicas, per-replica
//! CPU, and p99 latency against the 100 ms PLO.
//!
//! ```text
//! cargo run --release --example flash_crowd
//! ```

use evolve::prelude::*;

fn main() {
    let spec = ScenarioSpec::builtin("flash_crowd").expect("builtin scenario");
    for manager in [ManagerKind::Evolve, ManagerKind::Hpa] {
        let outcome =
            ExperimentRunner::new(RunConfig::from_spec(&spec, manager).seed(3).build()).run();
        println!("\n=== {} through a 5× flash crowd (spike at t=120 s) ===", outcome.manager);
        println!("{:>8} {:>10} {:>10} {:>12}", "t (s)", "rate rps", "replicas", "p99 ms");
        let rate = outcome.registry.series("app0/rate_rps");
        let replicas = outcome.registry.series("app0/replicas");
        let p99 = outcome.registry.series("app0/p99_ms");
        if let (Some(rate), Some(replicas), Some(p99)) = (rate, replicas, p99) {
            let p99_points = p99.to_points();
            for (i, ((t, r), (_, n))) in
                rate.to_points().iter().zip(replicas.to_points()).enumerate()
            {
                // Print every 4th tick to keep the trace readable.
                if i % 4 == 0 {
                    let lat = p99_points
                        .iter()
                        .find(|(pt, _)| (pt - t).abs() < 1e-6)
                        .map_or("-".to_string(), |(_, v)| format!("{v:.1}"));
                    println!("{t:>8.0} {r:>10.1} {n:>10.0} {lat:>12}");
                }
            }
        }
        println!(
            "violation windows: {} of {}",
            outcome.total_violations(),
            outcome.total_windows()
        );
    }
    println!("\nEVOLVE reacts within a few control periods (vertical resize is immediate,");
    println!("replicas follow); the HPA waits on CPU-utilization averages and scales later.");
}
