//! The paper's tables: `experiments` entries `tab1_headline` …
//! `tab8_cluster_scale`.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use evolve::core::Stage;
use evolve::prelude::*;
use evolve_scheduler::SchedulerFramework;
use evolve_sim::{ClusterConfig, ClusterState, NodeShape, PodKind, PodSpec, Simulation};
use evolve_types::AppId;
use evolve_workload::WorldClass;

use crate::{headline_headers, headline_summary_row, replicated_settling, Ctx, Report, BASE_SEED};

/// **T1 — headline comparison.** PLO violations and cluster utilization
/// for EVOLVE vs stock Kubernetes, threshold HPA and a VPA-like vertical
/// scaler, on the converged headline mix (6 dynamic services + 3 batch
/// jobs + 2 HPC gangs on 20 nodes). Each policy is replicated across
/// seeds in parallel and reported as mean ± 95 % CI.
#[must_use]
pub fn tab1_headline(ctx: &Ctx) -> Report {
    let managers =
        [ManagerKind::Evolve, ManagerKind::KubeStatic, ManagerKind::Hpa, ManagerKind::Vpa];
    let configs: Vec<RunConfig> = managers
        .iter()
        .map(|m| RunConfig::from_spec(ctx.spec(), *m).record_series(false).build())
        .collect();
    let reps = Harness::new().run_matrix(&configs, &ctx.seeds);

    let mut table = Table::new(headline_headers());
    for rep in &reps {
        table.add_row(headline_summary_row(rep));
    }
    let rate = |name: &str| {
        reps.iter().find(|rep| rep.manager() == name).map(|rep| rep.violation_rate().mean)
    };
    let mut r = Report::default();
    let _ = writeln!(
        r.text,
        "\nT1 — headline: converged mix, 20 nodes, 20 simulated minutes, {} seed(s)\n\n{table}",
        ctx.seeds.len()
    );
    if let (Some(e), Some(k)) = (rate("evolve"), rate("kube-static")) {
        let _ = if e > 0.0 {
            writeln!(r.text, "violation-rate improvement over stock Kubernetes: {:.1}x", k / e)
        } else {
            writeln!(r.text, "EVOLVE had zero violation windows (stock Kubernetes: {k:.3})")
        };
    }
    r.file("tab1_headline.csv", table.to_csv());
    r
}

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

/// Per-seed aggregate of one deployment: the metrics T2 reports.
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
    let mut by_world = [[0u64; 2]; 3];
    for a in runs.iter().flat_map(|r| r.apps.iter()) {
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
        by_world: by_world.map(rate),
        deadline_rate: if jobs.is_empty() { 1.0 } else { hits as f64 / jobs.len() as f64 },
        alloc_share: weighted(|r| r.utilization.mean_allocated()),
        used_share: weighted(|r| r.utilization.mean_used()),
        violation_rate: if windows == 0 { 0.0 } else { violations as f64 / windows as f64 },
    }
}

/// **T2 — convergence vs silos.** The same workload run (a) converged on
/// one 20-node cluster under EVOLVE, vs (b) split into three dedicated
/// silos (cloud 8 / big-data 6 / HPC 6 nodes) under the same controller.
/// Convergence should match per-world PLO attainment while using the
/// hardware better — idle silo capacity cannot help the busy world.
/// Replicated across seeds; silo runs are paired per seed before
/// aggregation so each seed yields one converged and one silo sample.
#[must_use]
pub fn tab2_convergence(ctx: &Ctx) -> Report {
    let seeds = &ctx.seeds;
    let harness = Harness::new();
    let converged_config =
        RunConfig::from_spec(ctx.spec(), ManagerKind::Evolve).record_series(false).build();
    let converged: Vec<DeploymentSample> =
        harness.run_seeds(&converged_config, seeds).runs.iter().map(converged_sample).collect();

    let silos = silo_specs();
    let silo_nodes = silos.each_ref().map(|spec| spec.cluster.nodes);
    let silo_configs: Vec<RunConfig> = silos
        .iter()
        .map(|spec| RunConfig::from_spec(spec, ManagerKind::Evolve).record_series(false).build())
        .collect();
    let silo_reps = harness.run_matrix(&silo_configs, seeds);
    // Pair the three silo runs of each seed into one aggregate sample.
    let silos: Vec<DeploymentSample> = (0..seeds.len())
        .map(|k| silo_sample([0, 1, 2].map(|i| &silo_reps[i].runs[k]), silo_nodes))
        .collect();

    let mut table = crate::table(
        "deployment,cloud viol,bigdata viol,hpc viol,deadline rate,alloc share,used share",
    );
    let col = |samples: &[DeploymentSample], f: fn(&DeploymentSample) -> f64| {
        Summary::from_samples(&samples.iter().map(f).collect::<Vec<_>>())
    };
    for (label, samples) in [("converged-20", &converged), ("silos-8/6/6", &silos)] {
        table.add_row(vec![
            label.to_string(),
            col(samples, |s| s.by_world[0]).display(3),
            col(samples, |s| s.by_world[1]).display(3),
            col(samples, |s| s.by_world[2]).display(3),
            col(samples, |s| s.deadline_rate).display(2),
            col(samples, |s| s.alloc_share).display(3),
            col(samples, |s| s.used_share).display(3),
        ]);
    }
    let mut r = Report::default();
    let _ = writeln!(
        r.text,
        "\nT2 — converged cluster vs per-world silos (EVOLVE manager in both, {} seed(s))\n\
         \n{table}",
        seeds.len()
    );
    let _ = writeln!(
        r.text,
        "aggregate violation rate: converged {} vs silos {}",
        col(&converged, |s| s.violation_rate).display(3),
        col(&silos, |s| s.violation_rate).display(3)
    );
    r.file("tab2_convergence.csv", table.to_csv());
    r
}

fn populated_cluster(nodes: usize, fill: f64, pending: usize) -> ClusterState {
    let mut cluster = ClusterState::new(&ClusterConfig::uniform(nodes, NodeShape::default()));
    // Pre-fill each node to `fill` of its CPU with existing pods.
    let per_node = ResourceVec::new(16_000.0 * fill, 16_384.0 * fill, 100.0 * fill, 200.0 * fill);
    for i in 0..nodes {
        let pod = cluster.create_pod(
            PodSpec::new(PodKind::ServiceReplica { app: AppId::new(9_999) }, per_node, 10),
            SimTime::ZERO,
        );
        cluster.bind_pod(pod, cluster.nodes()[i].id()).expect("fits");
    }
    for k in 0..pending {
        cluster.create_pod(
            PodSpec::new(
                PodKind::ServiceReplica { app: AppId::new((k % 50) as u32) },
                ResourceVec::new(1_000.0, 1_024.0, 10.0, 20.0),
                100,
            ),
            SimTime::from_micros(k as u64),
        );
    }
    cluster
}

/// **T3 — scheduler scalability.** Scheduling throughput (pods/s) and
/// per-pod decision latency of the framework as the cluster grows from
/// 100 to 5 000 nodes, for the stock profile and the EVOLVE profile
/// (preemption enabled). This benchmark times real scheduling work (no
/// simulation RNG), so the seed count sets the number of timed
/// repetitions feeding the mean ± 95 % CI.
#[must_use]
pub fn tab3_sched_scale(ctx: &Ctx) -> Report {
    let reps = ctx.seeds.len();
    let mut table = crate::table("profile,nodes,pending,bound,cycle ms,pods/s,µs/pod");
    let pending = 500usize;
    for profile_name in ["kube-default", "evolve"] {
        for nodes in [100, 250, 500, 1_000, 2_500, 5_000] {
            let cluster = populated_cluster(nodes, 0.5, pending);
            let scheduler = match profile_name {
                "kube-default" => SchedulerFramework::kube_default(),
                _ => SchedulerFramework::evolve_default(),
            };
            // Warm-up pass, then `reps` independently timed passes.
            let _ = scheduler.schedule_cycle(&cluster);
            let mut bound = 0usize;
            let samples: Vec<f64> = (0..reps)
                .map(|_| {
                    let start = Instant::now();
                    bound = scheduler.schedule_cycle(&cluster).bindings.len();
                    start.elapsed().as_secs_f64()
                })
                .collect();
            let cycle_s = Summary::from_samples(&samples);
            let cycle_ms =
                Summary::from_samples(&samples.iter().map(|s| s * 1e3).collect::<Vec<_>>());
            table.add_row(vec![
                profile_name.to_string(),
                nodes.to_string(),
                pending.to_string(),
                bound.to_string(),
                cycle_ms.display(2),
                format!("{:.0}", pending as f64 / cycle_s.mean),
                format!("{:.1}", cycle_s.mean / pending as f64 * 1e6),
            ]);
        }
    }
    let mut r = Report::default();
    let _ = writeln!(
        r.text,
        "\nT3 — scheduling one 500-pod cycle on half-full clusters ({reps} timed rep(s))\n\n{table}"
    );
    r.file("tab3_sched_scale.csv", table.to_csv());
    r
}

/// **T5 — ablation.** What each piece of the EVOLVE controller buys:
/// full EVOLVE vs CPU-only PID (classical 1-D control) vs fixed gains
/// (no on-line adaptation) vs threshold HPA, on the bottleneck-rotation
/// mix where each service binds on a *different* resource dimension.
/// Replicated across seeds (mean ± 95 % CI).
#[must_use]
pub fn tab5_ablation(ctx: &Ctx) -> Report {
    let variants: Vec<(&str, ManagerKind)> = vec![
        ("evolve (full)", ManagerKind::Evolve),
        ("evolve cpu-only", ManagerKind::EvolveCpuOnly),
        ("evolve fixed-gains", ManagerKind::EvolveFixedGains),
        ("hpa", ManagerKind::Hpa),
        ("kube-static", ManagerKind::KubeStatic),
    ];
    let spec = ctx.spec();
    let configs: Vec<RunConfig> = variants
        .iter()
        .map(|(_, manager)| RunConfig::from_spec(spec, *manager).record_series(false).build())
        .collect();
    let reps = Harness::new().run_matrix(&configs, &ctx.seeds);

    // One column per service of the spec (the rotation mix's are
    // cpu-svc, disk-svc, net-svc and mem-svc).
    let services: Vec<&str> = spec.services.iter().map(|s| s.name.as_str()).collect();
    let mut headers = vec!["variant".to_string()];
    headers.extend(services.iter().map(|name| (*name).to_string()));
    headers.extend(["aggregate", "oom kills"].map(String::from));
    let mut table = Table::new(headers);
    for ((label, _), rep) in variants.iter().zip(&reps) {
        let mut row = vec![(*label).to_string()];
        for name in &services {
            let rate = |r: &RunOutcome| {
                r.apps.iter().find(|a| a.name == *name).map_or(0.0, |a| a.violation_rate())
            };
            row.push(rep.summarize(rate).display(3));
        }
        row.push(rep.violation_rate().display(3));
        row.push(
            rep.summarize(|r| r.apps.iter().map(|a| a.oom_kills).sum::<u64>() as f64).display(1),
        );
        table.add_row(row);
    }
    let mut r = Report::default();
    let _ = writeln!(
        r.text,
        "\nT5 — ablation on the bottleneck-rotation mix (violation rate per service, {} seed(s))\n\
         \n{table}",
        ctx.seeds.len()
    );
    r.text.push_str(
        "expected shape: the CPU-only controller defends cpu-svc but fails the disk/net/\n\
         mem services (it cannot see their bottleneck); fixed gains oscillate or react\n\
         sluggishly under the bursty MMPP load; full EVOLVE is lowest across the board.\n",
    );
    r.file("tab5_ablation.csv", table.to_csv());
    r
}

/// `(t, v)` points of the run's `series` with `from ≤ t ≤ to` seconds
/// (none when the run did not record the series).
fn points_in(run: &RunOutcome, series: &str, from: u64, to: u64) -> Vec<(f64, f64)> {
    let mut points = run.registry.series(series).map(|s| s.to_points()).unwrap_or_default();
    points.retain(|&(t, _)| t >= from as f64 && t <= to as f64);
    points
}

/// **T6 — resilience.** Recovery of the PLO after injected faults — a
/// node crash with recovery, a full scrape blackout, and a control-plane
/// stall — for EVOLVE vs the threshold HPA and the static baseline,
/// replicated across seeds. Reports the time to re-enter PLO compliance
/// after the fault lands and the violating windows inside the fault span
/// (fault start → fault end + 120 s of aftermath).
#[must_use]
pub fn tab6_resilience(ctx: &Ctx) -> Report {
    let (horizon, fault_at) = (900u64, 300u64);
    let target_ms = 100.0;
    let at = SimTime::from_secs(fault_at);
    let secs = SimDuration::from_secs;
    // (name, fault, fault length in seconds)
    let cases = [
        (
            "node crash (120 s)",
            FaultKind::NodeCrash { node: NodeId::new(0), downtime: Some(secs(120)) },
            120,
        ),
        ("scrape blackout (90 s)", FaultKind::ScrapeBlackout { app: None, duration: secs(90) }, 90),
        ("control stall (60 s)", FaultKind::ControlStall { duration: secs(60) }, 60),
    ];
    let managers = [ManagerKind::Evolve, ManagerKind::Hpa, ManagerKind::KubeStatic];

    let mut table = crate::table("fault,policy,recovery (s),viol in fault,viol rate,timeouts");
    let mut csv = String::from(
        "fault,policy,recovery_s_mean,recovery_ci,viol_in_fault_mean,viol_in_fault_ci,viol_rate_mean,timeouts_mean\n",
    );
    // The spec supplies the workload and cluster shape; each case replaces
    // its fault list with the one fault under test.
    for (name, kind, length) in cases {
        let spec = ScenarioSpec { faults: vec![FaultEvent { at, kind }], ..ctx.spec().clone() };
        let configs: Vec<RunConfig> = managers
            .iter()
            .map(|m| {
                let mut config = RunConfig::from_spec(&spec, *m).build();
                config.scenario.horizon = secs(horizon);
                config
            })
            .collect();
        for rep in &Harness::new().run_matrix(&configs, &ctx.seeds) {
            let label = rep.manager();
            let settle = replicated_settling(rep, "app0/p99_ms", at, target_ms, 3);
            // Violating p99 windows from the fault to 120 s after its end.
            let in_fault = rep.summarize(|r| {
                let window = points_in(r, "app0/p99_ms", fault_at, fault_at + length + 120);
                window.iter().filter(|&&(_, v)| v > target_ms).count() as f64
            });
            let timeouts = rep.timeouts();
            table.add_row(vec![
                name.to_string(),
                label.to_string(),
                settle.settle_display(),
                in_fault.display(1),
                rep.violation_rate().display(3),
                timeouts.display(0),
            ]);
            let _ = writeln!(
                csv,
                "{},{label},{:.1},{:.1},{:.2},{:.2},{:.4},{:.0}",
                name.replace(',', ";"),
                settle.settle_mean_or_neg(),
                settle.settle.as_ref().map_or(0.0, |s| s.ci95),
                in_fault.mean,
                in_fault.ci95,
                rep.violation_rate().mean,
                timeouts.mean,
            );
        }
    }
    let mut r = Report::default();
    let _ = writeln!(
        r.text,
        "\nT6 — resilience under injected faults (PLO p99 ≤ {target_ms:.0} ms, horizon {horizon} s, fault at t={fault_at} s, {} seed(s))\n\
         \n{table}",
        ctx.seeds.len()
    );
    r.text.push_str(
        "expected shape: EVOLVE re-enters compliance fastest after the node crash\n\
         (evicted replicas requeue with backoff and the controller re-grows capacity)\n\
         with fewer violating windows than the HPA or the static baseline; the scrape\n\
         blackout costs EVOLVE nothing (hold-last-safe keeps the pre-fault allocation,\n\
         windows are simply missing); the stall only delays actuation by its length.\n",
    );
    r.file("tab6_resilience.csv", table.to_csv());
    r.file("tab6_resilience_raw.csv", csv);
    r
}

/// T7's and F8's four recovery cases on `spec`, each cut to `horizon`
/// seconds and replicated over `seeds`: the uninterrupted run, then a
/// controller crash at `crash_at` seconds under each recovery strategy.
pub(crate) fn recovery_runs(
    spec: &ScenarioSpec,
    seeds: &[u64],
    crash_at: u64,
    horizon: u64,
) -> Vec<(&'static str, ReplicatedOutcome)> {
    let crash =
        vec![FaultEvent { at: SimTime::from_secs(crash_at), kind: FaultKind::ControllerCrash }];
    let cases = [
        ("uninterrupted", Vec::new(), RecoveryStrategy::Restore),
        ("restore", crash.clone(), RecoveryStrategy::Restore),
        ("cold-reconstruct", crash.clone(), RecoveryStrategy::ColdReconstruct),
        ("naive-reset", crash, RecoveryStrategy::NaiveReset),
    ];
    // The spec supplies the workload and cluster shape; each case replaces
    // the fault list and sets the recovery strategy (that is the comparison
    // under test).
    let configs: Vec<RunConfig> = cases
        .iter()
        .map(|(_, faults, recovery)| {
            let spec = ScenarioSpec { faults: faults.clone(), ..spec.clone() };
            let mut config =
                RunConfig::from_spec(&spec, ManagerKind::Evolve).recovery(*recovery).build();
            config.scenario.horizon = SimDuration::from_secs(horizon);
            config
        })
        .collect();
    cases.iter().map(|case| case.0).zip(Harness::new().run_matrix(&configs, seeds)).collect()
}

/// **T7 — controller crash recovery.** A controller crash destroys the
/// control plane's in-memory state mid-run; this table compares the
/// recovery strategies — checkpoint restore, level-triggered cold
/// reconstruction, naive reset — against the uninterrupted run, on PLO
/// violation windows after the crash, time to re-enter compliance, and
/// the post-crash replica floor (a good recovery never collapses a
/// running service).
#[must_use]
pub fn tab7_recovery(ctx: &Ctx) -> Report {
    let (horizon, crash_at) = (900u64, 450u64);
    let target_ms = 100.0;
    let mut table =
        crate::table("recovery,restarts,re-comply (s),viol after crash,min replicas,viol rate");
    let mut csv = String::from(
        "recovery,restarts_mean,recomply_s_mean,recomply_ci,viol_after_mean,viol_after_ci,min_replicas_mean,viol_rate_mean,timeouts_mean\n",
    );
    for (name, rep) in recovery_runs(ctx.spec(), &ctx.seeds, crash_at, horizon) {
        let restarts = rep.summarize(|r| r.controller_restarts as f64);
        let settle =
            replicated_settling(&rep, "app0/p99_ms", SimTime::from_secs(crash_at), target_ms, 3);
        // A window after the crash violates when its p99 exceeds the
        // target **or** it dropped requests: a collapsed service completes
        // nothing, so its p99 of survivors looks clean while every timeout
        // is a violated objective — counting p99 alone would flatter
        // exactly the worst recovery.
        let after = rep.summarize(|r| {
            let over = |series, limit| {
                points_in(r, series, crash_at, horizon)
                    .into_iter()
                    .filter(move |&(_, v)| v > limit)
                    .map(|(t, _)| t.to_bits())
            };
            let bad: BTreeSet<u64> =
                over("app0/p99_ms", target_ms).chain(over("app0/timeouts", 0.0)).collect();
            bad.len() as f64
        });
        // The replica floor after the crash (`0` would mean a recovery
        // scaled a running service to zero).
        let floor = rep.summarize(|r| {
            let window = points_in(r, "app0/replicas", crash_at, horizon);
            window.iter().map(|&(_, v)| v).reduce(f64::min).unwrap_or(0.0)
        });
        table.add_row(vec![
            name.to_string(),
            format!("{:.0}", restarts.mean),
            settle.settle_display(),
            after.display(1),
            floor.display(1),
            rep.violation_rate().display(3),
        ]);
        let _ = writeln!(
            csv,
            "{name},{:.1},{:.1},{:.1},{:.2},{:.2},{:.1},{:.4},{:.0}",
            restarts.mean,
            settle.settle_mean_or_neg(),
            settle.settle.as_ref().map_or(0.0, |s| s.ci95),
            after.mean,
            after.ci95,
            floor.mean,
            rep.violation_rate().mean,
            rep.timeouts().mean,
        );
    }
    let mut r = Report::default();
    let _ = writeln!(
        r.text,
        "\nT7 — controller crash at t={crash_at} s (PLO p99 ≤ {target_ms:.0} ms, horizon {horizon} s, {} seed(s))\n\
         \n{table}",
        ctx.seeds.len()
    );
    r.text.push_str(
        "expected shape: checkpoint restore matches the uninterrupted run (per-tick\n\
         checkpoints make the resumed trajectory bit-identical); cold reconstruction\n\
         re-attains compliance within a bounded window — it re-engages slew-limited\n\
         from the observed allocation, never scaling a running service to zero;\n\
         naive reset is worst: it actuates spec defaults, collapses capacity and\n\
         re-learns on live traffic.\n",
    );
    r.file("tab7_recovery.csv", table.to_csv());
    r.file("tab7_recovery_raw.csv", csv);
    r
}

/// One T8 run: µs per bound pod, feasibility work per pod, throughput.
struct Cell {
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
    // The wall of the per-tick scheduling passes: the t = 0 pass, which
    // fills the cluster on a cold index, is left out.
    let mut sched = Duration::ZERO;
    let outcome = ExperimentRunner::new(cfg).run_with(
        &mut |stage: Stage, tick: u64, wall: Duration, _: u64, _: &Simulation| {
            if tick > 0 && matches!(stage, Stage::SchedulerCycle | Stage::Actuate) {
                sched += wall;
            }
        },
    );
    let bound = outcome.bindings.max(1) as f64;
    Cell {
        mode: if indexed { "indexed" } else { "naive" },
        bound: outcome.bindings,
        us_per_pod: sched.as_secs_f64() * 1e6 / bound,
        evals_per_pod: outcome.perf.filter_evals as f64 / bound,
        probes_per_pod: outcome.perf.feasibility_probes as f64 / bound,
        sim_per_wall: outcome.perf.sim_secs_per_wall_sec,
        peak_running: outcome.perf.peak_running_pods,
    }
}

/// **T8 — cluster-scale end-to-end scheduling.** Full simulation runs
/// (engine, manager, scheduler, telemetry — not isolated cycles like T3)
/// over the slot-packed `cluster_scale` scenario: every node filled to
/// its 12-pod capacity, an oversubscribed batch backlog keeping the
/// pending queue warm, and ~1.2 × nodes placements per control tick.
/// Each grid cell runs twice — naive full-node-scan scheduling and the
/// incremental feasibility index — and reports µs per scheduled pod,
/// feasibility work per pod (filter evaluations + index probes) and the
/// measured reduction factor of the index over the scan. One seed,
/// [`BASE_SEED`]. The naive mode is skipped at 5 000 nodes (its
/// quadratic cost dominates the whole bench); the indexed column still
/// reports, which is the point of the table.
#[must_use]
pub fn tab8_cluster_scale(_: &Ctx) -> Report {
    // (nodes, service apps, simulated horizon, run the naive baseline?).
    let grid = [
        (100, 10, 600, true),
        (500, 20, 600, true),
        (1_000, 40, 600, true),
        (2_500, 40, 600, true),
        (5_000, 40, 300, false),
    ];
    let mut table = crate::table(
        "nodes,apps,mode,pods bound,µs/pod,evals/pod,probes/pod,reduction,sim-s/wall-s,\
         peak running",
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
                nodes.to_string(),
                apps.to_string(),
                cell.mode.to_string(),
                cell.bound.to_string(),
                format!("{:.1}", cell.us_per_pod),
                format!("{:.1}", cell.evals_per_pod),
                format!("{:.1}", cell.probes_per_pod),
                reduction,
                format!("{:.0}", cell.sim_per_wall),
                cell.peak_running.to_string(),
            ]);
        }
    }
    let mut r = Report::default();
    let _ = writeln!(
        r.text,
        "\nT8 — end-to-end cluster-scale scheduling, naive scan vs feasibility index\n\n{table}"
    );
    r.file("tab8_cluster_scale.csv", table.to_csv());
    r
}
