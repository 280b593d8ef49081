//! **T6 — resilience.** Recovery of the PLO after injected faults — a
//! node crash with recovery, a full scrape blackout, and a control-plane
//! stall — for EVOLVE vs the threshold HPA and the static baseline,
//! replicated across seeds. Reports the time to re-enter PLO compliance
//! after the fault lands and the violating windows inside the fault span
//! (fault start → fault end + 120 s of aftermath).
//!
//! ```text
//! cargo run --release -p evolve-bench --bin tab6_resilience [seed-count]
//! EVOLVE_SMOKE=1 … # short horizon for CI smoke runs
//! ```

use evolve::prelude::*;
use evolve_bench::{replicated_settling, BenchArgs};

struct FaultCase {
    name: &'static str,
    plan: FaultPlan,
    fault_at: u64,
    fault_end: u64,
}

/// Violating p99 windows inside `[from, to]`, averaged across seeds.
fn violations_during(rep: &ReplicatedOutcome, from: u64, to: u64, target_ms: f64) -> Summary {
    let per_run: Vec<f64> = rep
        .runs
        .iter()
        .map(|r| {
            r.registry
                .series("app0/p99_ms")
                .map(|s| {
                    s.to_points()
                        .iter()
                        .filter(|&&(t, v)| t >= from as f64 && t <= to as f64 && v > target_ms)
                        .count() as f64
                })
                .unwrap_or(0.0)
        })
        .collect();
    Summary::from_samples(&per_run)
}

fn main() {
    let args = BenchArgs::parse(5);
    let seeds = &args.seeds;
    let (horizon, fault_at) = if args.smoke { (360u64, 120u64) } else { (900u64, 300u64) };
    let target_ms = 100.0;
    let cases = [
        FaultCase {
            name: "node crash (120 s)",
            plan: FaultPlan::new().with_node_crash(
                NodeId::new(0),
                SimTime::from_secs(fault_at),
                Some(SimDuration::from_secs(120)),
            ),
            fault_at,
            fault_end: fault_at + 120,
        },
        FaultCase {
            name: "scrape blackout (90 s)",
            plan: FaultPlan::new()
                .with_scrape_blackout(SimTime::from_secs(fault_at), SimDuration::from_secs(90)),
            fault_at,
            fault_end: fault_at + 90,
        },
        FaultCase {
            name: "control stall (60 s)",
            plan: FaultPlan::new()
                .with_control_stall(SimTime::from_secs(fault_at), SimDuration::from_secs(60)),
            fault_at,
            fault_end: fault_at + 60,
        },
    ];
    let managers = [
        ManagerKind::Evolve,
        ManagerKind::Hpa { target_utilization: 0.6 },
        ManagerKind::KubeStatic,
    ];

    let mut table = Table::new(
        ["fault", "policy", "recovery (s)", "viol in fault", "viol rate", "timeouts"]
            .map(String::from)
            .to_vec(),
    );
    let mut csv = String::from(
        "fault,policy,recovery_s_mean,recovery_ci,viol_in_fault_mean,viol_in_fault_ci,viol_rate_mean,timeouts_mean\n",
    );
    // The spec supplies the workload and cluster shape; each case still
    // injects its own fault.
    let spec = args.spec("single_diurnal");
    for case in &cases {
        let configs: Vec<RunConfig> = managers
            .iter()
            .map(|m| {
                let mut config =
                    RunConfig::from_spec(&spec, m.clone()).faults(case.plan.clone()).build();
                config.scenario.horizon = SimDuration::from_secs(horizon);
                config
            })
            .collect();
        eprintln!("{}: {} policies × {} seeds …", case.name, configs.len(), seeds.len());
        let reps = Harness::new().run_matrix(&configs, seeds);
        for rep in &reps {
            let label = rep.manager().to_string();
            let settle = replicated_settling(
                rep,
                "app0/p99_ms",
                SimTime::from_secs(case.fault_at),
                target_ms,
                3,
            );
            let in_fault = violations_during(rep, case.fault_at, case.fault_end + 120, target_ms);
            let timeouts = rep.timeouts();
            table.add_row(vec![
                case.name.to_string(),
                label.clone(),
                settle.settle_display(),
                in_fault.display(1),
                rep.violation_rate().display(3),
                timeouts.display(0),
            ]);
            csv.push_str(&format!(
                "{},{label},{:.1},{:.1},{:.2},{:.2},{:.4},{:.0}\n",
                case.name.replace(',', ";"),
                settle.settle_mean_or_neg(),
                settle.settle.as_ref().map_or(0.0, |s| s.ci95),
                in_fault.mean,
                in_fault.ci95,
                rep.violation_rate().mean,
                timeouts.mean,
            ));
        }
    }
    println!(
        "\nT6 — resilience under injected faults (PLO p99 ≤ {target_ms:.0} ms, horizon {horizon} s, fault at t={fault_at} s, {} seed(s))\n",
        seeds.len()
    );
    println!("{table}");
    println!("expected shape: EVOLVE re-enters compliance fastest after the node crash");
    println!("(evicted replicas requeue with backoff and the controller re-grows capacity)");
    println!("with fewer violating windows than the HPA or the static baseline; the scrape");
    println!("blackout costs EVOLVE nothing (hold-last-safe keeps the pre-fault allocation,");
    println!("windows are simply missing); the stall only delays actuation by its length.");
    if let Err(err) = write_csv(&args.out_dir, "tab6_resilience", &table.to_csv()) {
        eprintln!("could not write CSV: {err}");
    }
    if let Err(err) = write_csv(&args.out_dir, "tab6_resilience_raw", &csv) {
        eprintln!("could not write CSV: {err}");
    }
}
