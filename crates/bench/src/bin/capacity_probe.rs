//! **Capacity-discovery probe.** Ramps the offered load of the
//! priority-tiered overload scenario and reports, per system, the maximum
//! sustainable request rate (the knee) and the behaviour past it: for
//! stock Kubernetes and unarbitrated EVOLVE every class's violation rate
//! grows together once capacity runs out, while EVOLVE with the capacity
//! arbiter sheds preemptible work and keeps the critical class flat.
//!
//! Each step runs every system across the seed set, computes the overall
//! and critical-class violation rates (mean ± 95% CI), and the ramp for a
//! system stops counting as sustainable once its overall violation rate
//! exceeds the threshold for `CONSECUTIVE_BAD` consecutive steps. The
//! ramp itself continues to the configured maximum so the past-knee rows
//! land in the CSV.
//!
//! ```text
//! cargo run --release -p evolve-bench --bin capacity_probe [seed-count]
//! EVOLVE_SMOKE=1 … # short horizon / coarse ramp for CI smoke runs
//! ```
//!
//! Writes `experiments_out/capacity_probe.csv`.

use evolve::prelude::*;
use evolve_bench::BenchArgs;
use evolve_workload::{ArbiterSpec, ProbeSpec};

/// A run is sustainable while its service violation rate stays at or
/// below this. Judged on services only: the scenario's batch jobs run
/// with deliberately tight deadlines and violate them even on an idle
/// cluster, which says nothing about the knee.
const SUSTAIN_THRESHOLD: f64 = 0.10;
/// Steps the threshold must be exceeded in a row before the knee is
/// declared (one bad step can be a transient).
const CONSECUTIVE_BAD: usize = 2;

struct System {
    name: &'static str,
    manager: ManagerKind,
    arbiter: Option<ArbiterSpec>,
}

struct ProbeRow {
    offered: f64,
    offered_rps: f64,
    violation_rate: Summary,
    service_rate: Summary,
    critical_rate: Summary,
    shed_requests: Summary,
    clipped: Summary,
    shed_apps: Summary,
    starvation_max: f64,
}

fn class_rate(outcome: &RunOutcome, class: PriorityClass) -> f64 {
    let (viol, wins) = outcome
        .apps
        .iter()
        .filter(|a| a.priority == class)
        .fold((0u64, 0u64), |(v, w), a| (v + a.violations, w + a.windows));
    if wins == 0 {
        0.0
    } else {
        viol as f64 / wins as f64
    }
}

fn service_rate(outcome: &RunOutcome) -> f64 {
    let (viol, wins) = outcome
        .apps
        .iter()
        .filter(|a| a.world == WorldClass::Microservice)
        .fold((0u64, 0u64), |(v, w), a| (v + a.violations, w + a.windows));
    if wins == 0 {
        0.0
    } else {
        viol as f64 / wins as f64
    }
}

fn main() {
    let args = BenchArgs::parse(5);
    let seeds = &args.seeds;
    let smoke = args.smoke;
    // The workload and ramp come from the scenario spec: the builtin
    // overload spec carries a `[probe]` table (its rates sum to 440 rps
    // at `offered = 1.0`, sized to saturate ~4 default nodes around 1.5×
    // once controllers right-size), and `--scenario <file>` swaps in any
    // spec — specs without a probe table fall back to the default ramp.
    let base = args.spec("overload");
    let probe = base.probe.unwrap_or(ProbeSpec {
        initial: 0.6,
        step: 0.2,
        max: 2.2,
        threshold: SUSTAIN_THRESHOLD,
        reference_rps: None,
    });
    let (initial, step, max, horizon_secs) = if smoke {
        (0.5, 0.5, 2.0, 180u64)
    } else {
        (probe.initial, probe.step, probe.max, 480u64)
    };
    let threshold = probe.threshold;
    let reference_rps = probe.reference_rps.unwrap_or_else(|| base.offered_rps());
    let arbiter = base.arbiter.unwrap_or_default();

    let systems = [
        System { name: "kube-static", manager: ManagerKind::KubeStatic, arbiter: None },
        System { name: "evolve", manager: ManagerKind::Evolve, arbiter: None },
        System { name: "evolve+arbiter", manager: ManagerKind::Evolve, arbiter: Some(arbiter) },
    ];

    let harness = Harness::new();
    let mut table = Table::new(
        [
            "offered_factor",
            "offered_rps",
            "system",
            "violation_rate_mean",
            "violation_rate_ci95",
            "service_violation_rate_mean",
            "service_violation_rate_ci95",
            "critical_violation_rate_mean",
            "critical_violation_rate_ci95",
            "shed_requests_mean",
            "clipped_allocations_mean",
            "shed_apps_mean",
            "starvation_watermark_max",
            "sustainable",
        ]
        .iter()
        .map(|s| (*s).to_string())
        .collect(),
    );

    let mut bad_streak = vec![0usize; systems.len()];
    let mut past_knee = vec![false; systems.len()];
    let mut knee_rps = vec![None::<f64>; systems.len()];
    let mut overshoot = 0usize;
    let mut offered = initial;
    while offered <= max + 1e-9 {
        let mut spec = base.scaled_loads(offered);
        spec.horizon = SimDuration::from_secs(horizon_secs);
        let offered_rps = reference_rps * offered;
        for (i, sys) in systems.iter().enumerate() {
            spec.arbiter = sys.arbiter;
            let config =
                RunConfig::from_spec(&spec, sys.manager.clone()).record_series(false).build();
            let rep = harness.run_seeds(&config, seeds);
            let row = ProbeRow {
                offered,
                offered_rps,
                violation_rate: rep.violation_rate(),
                service_rate: rep.summarize(service_rate),
                critical_rate: rep.summarize(|o| class_rate(o, PriorityClass::Critical)),
                shed_requests: rep.summarize(|o| o.shed_requests as f64),
                clipped: rep.summarize(|o| o.control.clipped_allocations as f64),
                shed_apps: rep.summarize(|o| o.shed_apps as f64),
                starvation_max: rep
                    .runs
                    .iter()
                    .map(|o| f64::from(o.control.starvation_watermark))
                    .fold(0.0, f64::max),
            };
            let sustainable = row.service_rate.mean <= threshold;
            if sustainable {
                bad_streak[i] = 0;
                // The knee is the highest offered rate a system sustained
                // before it first went persistently over the threshold.
                if !past_knee[i] {
                    knee_rps[i] = Some(offered_rps);
                }
            } else {
                bad_streak[i] += 1;
                if bad_streak[i] >= CONSECUTIVE_BAD {
                    past_knee[i] = true;
                }
            }
            println!(
                "offered {offered:.2} ({offered_rps:.0} rps) {:>14}: services {} | critical {} | shed {:.0} req / {:.0} clips",
                sys.name,
                row.service_rate.display(3),
                row.critical_rate.display(3),
                row.shed_requests.mean,
                row.clipped.mean,
            );
            table.add_row(vec![
                format!("{:.2}", row.offered),
                format!("{:.1}", row.offered_rps),
                sys.name.to_string(),
                format!("{:.4}", row.violation_rate.mean),
                format!("{:.4}", row.violation_rate.ci95),
                format!("{:.4}", row.service_rate.mean),
                format!("{:.4}", row.service_rate.ci95),
                format!("{:.4}", row.critical_rate.mean),
                format!("{:.4}", row.critical_rate.ci95),
                format!("{:.1}", row.shed_requests.mean),
                format!("{:.1}", row.clipped.mean),
                format!("{:.1}", row.shed_apps.mean),
                format!("{:.0}", row.starvation_max),
                format!("{}", sustainable),
            ]);
        }
        // Keep ramping until every system is persistently past its knee,
        // plus two more steps so the past-knee divergence (critical-class
        // flat under the arbiter, growing without it) lands in the CSV.
        if past_knee.iter().all(|&p| p) {
            overshoot += 1;
            if overshoot > 2 {
                break;
            }
        }
        offered += step;
    }

    println!();
    for (i, sys) in systems.iter().enumerate() {
        match knee_rps[i] {
            Some(k) => println!("{:>14}: max sustainable ≈ {k:.0} rps", sys.name),
            None => println!("{:>14}: never sustainable on this ramp", sys.name),
        }
    }

    let dir = &args.out_dir;
    match write_csv(dir, "capacity_probe", &table.to_csv()) {
        Ok(()) => println!("\nwrote {}/capacity_probe.csv", dir.display()),
        Err(err) => eprintln!("failed to write CSV: {err}"),
    }
}
