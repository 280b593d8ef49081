//! **T8 — cluster-scale end-to-end scheduling.** Full simulation runs
//! (engine, manager, scheduler, telemetry — not isolated cycles like T3)
//! over the slot-packed `cluster_scale` scenario: every node filled to
//! its 12-pod capacity, an oversubscribed batch backlog keeping the
//! pending queue warm, and ~1.2 × nodes placements per control tick.
//! Each grid cell runs twice — naive full-node-scan scheduling and the
//! incremental feasibility index — and reports µs per scheduled pod,
//! feasibility work per pod (filter evaluations + index probes) and the
//! measured reduction factor of the index over the scan.
//!
//! ```text
//! cargo run --release -p evolve-bench --bin tab8_cluster_scale
//! ```
//!
//! `EVOLVE_SMOKE=1` shrinks the grid to 100–250 nodes and a 2-minute
//! horizon so CI's `scale-smoke` job finishes quickly. The naive mode is
//! skipped at 5 000 nodes (its quadratic cost dominates the whole bench);
//! the indexed column still reports, which is the point of the table.

use evolve::prelude::*;
use evolve_bench::{BenchArgs, BASE_SEED};

struct Cell {
    nodes: usize,
    apps: usize,
    mode: &'static str,
    bound: u64,
    us_per_pod: f64,
    evals_per_pod: f64,
    probes_per_pod: f64,
    sim_per_wall: f64,
    peak_running: u32,
}

fn run_cell(nodes: usize, apps: usize, horizon: SimDuration, indexed: bool) -> Cell {
    let spec = ScenarioSpec::cluster_scale(nodes, apps, horizon);
    let cfg = RunConfig::from_spec(&spec, ManagerKind::KubeStatic)
        .scheduler(SchedulerProfile::Evolve)
        .seed(BASE_SEED)
        .record_series(false)
        .indexed_scheduling(indexed)
        .build();
    let outcome = ExperimentRunner::new(cfg).run();
    let bound = outcome.bindings.max(1);
    Cell {
        nodes,
        apps,
        mode: if indexed { "indexed" } else { "naive" },
        bound: outcome.bindings,
        us_per_pod: outcome.perf.sched_wall_ns as f64 / 1e3 / bound as f64,
        evals_per_pod: outcome.perf.filter_evals as f64 / bound as f64,
        probes_per_pod: outcome.perf.feasibility_probes as f64 / bound as f64,
        sim_per_wall: outcome.perf.sim_secs_per_wall_sec,
        peak_running: outcome.perf.peak_running_pods,
    }
}

fn main() {
    let args = BenchArgs::parse(1);
    let smoke = args.smoke;
    // (nodes, service apps, simulated horizon, run the naive baseline?).
    // Naive at 2 500 nodes already costs hundreds of millions of filter
    // evaluations; at 5 000 it would dominate the entire bench, so only
    // the indexed mode runs there.
    let grid: Vec<(usize, usize, u64, bool)> = if smoke {
        vec![(100, 10, 120, true), (250, 10, 120, true)]
    } else {
        vec![
            (100, 10, 600, true),
            (500, 20, 600, true),
            (1_000, 40, 600, true),
            (2_500, 40, 600, true),
            (5_000, 40, 300, false),
        ]
    };
    let mut table = Table::new(
        [
            "nodes",
            "apps",
            "mode",
            "pods bound",
            "µs/pod",
            "evals/pod",
            "probes/pod",
            "reduction",
            "sim-s/wall-s",
            "peak running",
        ]
        .map(String::from)
        .to_vec(),
    );
    for (nodes, apps, horizon_secs, with_naive) in grid {
        let horizon = SimDuration::from_secs(horizon_secs);
        let naive = with_naive.then(|| run_cell(nodes, apps, horizon, false));
        let indexed = run_cell(nodes, apps, horizon, true);
        // Feasibility work per scheduled pod: the naive scan pays filter
        // evaluations only; the index pays (few) filter evaluations plus
        // tree probes. The ratio is the headline reduction.
        let indexed_work = indexed.evals_per_pod + indexed.probes_per_pod;
        for cell in naive.iter().chain(std::iter::once(&indexed)) {
            let reduction = match (cell.mode, &naive) {
                ("indexed", Some(n)) if indexed_work > 0.0 => {
                    format!("{:.1}x", n.evals_per_pod / indexed_work)
                }
                _ => "—".into(),
            };
            table.add_row(vec![
                cell.nodes.to_string(),
                cell.apps.to_string(),
                cell.mode.to_string(),
                cell.bound.to_string(),
                format!("{:.1}", cell.us_per_pod),
                format!("{:.1}", cell.evals_per_pod),
                format!("{:.1}", cell.probes_per_pod),
                reduction,
                format!("{:.0}", cell.sim_per_wall),
                cell.peak_running.to_string(),
            ]);
            eprintln!(
                "{} nodes {}: {} pods bound, {:.1} µs/pod, {:.1} evals/pod, \
                 {:.1} probes/pod, {:.0} sim-s/wall-s",
                cell.nodes,
                cell.mode,
                cell.bound,
                cell.us_per_pod,
                cell.evals_per_pod,
                cell.probes_per_pod,
                cell.sim_per_wall,
            );
        }
    }
    let label = if smoke { " (smoke grid)" } else { "" };
    println!(
        "\nT8 — end-to-end cluster-scale scheduling, naive scan vs feasibility index{label}\n"
    );
    println!("{table}");
    if let Err(err) = write_csv(&args.out_dir, "tab8_cluster_scale", &table.to_csv()) {
        eprintln!("could not write CSV: {err}");
    }
}
