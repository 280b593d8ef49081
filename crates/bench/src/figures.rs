//! The paper's figures: `experiments` entries `fig1_timeline` …
//! `fig8_restart`.

use std::fmt::Write as _;

use evolve::prelude::*;
use evolve_workload::WorldClass;

use crate::tables::recovery_runs;
use crate::{replicated_settling, Ctx, Report};

/// One column of a printed timeline: series name, header, width and
/// decimals.
type Column = (&'static str, &'static str, usize, usize);

/// The first point of `points` at time `t`.
fn value_at(points: &[(f64, f64)], t: f64) -> Option<f64> {
    points.iter().find(|(pt, _)| (pt - t).abs() < 1e-6).map(|&(_, v)| v)
}

/// Writes `columns` of `outcome` as `<stem>.csv` (every window) and as a
/// text table of every `every`-th window of the `key` column.
fn timeline(
    r: &mut Report,
    stem: &str,
    outcome: &RunOutcome,
    columns: &[Column],
    key: usize,
    every: usize,
) {
    let names: Vec<&str> = columns.iter().map(|c| c.0).collect();
    r.file(&format!("{stem}.csv"), outcome.registry.wide_csv(&names));
    let series: Vec<Vec<(f64, f64)>> = names
        .iter()
        .map(|n| outcome.registry.series(n).map(|s| s.to_points()).unwrap_or_default())
        .collect();
    let _ = write!(r.text, "{:>8}", "t (s)");
    for &(_, header, width, _) in columns {
        let _ = write!(r.text, " {header:>width$}");
    }
    for &(t, _) in series[key].iter().step_by(every) {
        let _ = write!(r.text, "\n{t:>8.0}");
        for (points, &(_, _, width, decimals)) in series.iter().zip(columns) {
            let cell = value_at(points, t).map_or("-".into(), |v| format!("{v:.decimals$}"));
            let _ = write!(r.text, " {cell:>width$}");
        }
    }
    r.text.push('\n');
}

/// **F1 — diurnal timeline.** One latency-critical service through a
/// compressed diurnal day under EVOLVE: offered load, replica count,
/// total CPU allocation, measured CPU usage and p99 latency, per control
/// window. The plotted trace comes from the first seed (reproducible);
/// the summary line aggregates all seeds.
#[must_use]
pub fn fig1_timeline(ctx: &Ctx) -> Report {
    let config = RunConfig::from_spec(ctx.spec(), ManagerKind::Evolve).build();
    let rep = Harness::new().run_seeds(&config, &ctx.seeds);
    let mut r = Report::default();
    let _ = writeln!(
        r.text,
        "\nF1 — diurnal timeline (every 6th control window shown, seed {})\n",
        rep.seeds[0]
    );
    let columns = [
        ("app0/rate_rps", "rate rps", 10, 1),
        ("app0/replicas", "replicas", 9, 0),
        ("app0/alloc_cpu", "alloc mcore", 11, 0),
        ("app0/usage_cpu", "used mcore", 11, 0),
        ("app0/p99_ms", "p99 ms", 9, 1),
    ];
    timeline(&mut r, "fig1_timeline", rep.representative(), &columns, 0, 6);
    let viol = rep.violation_rate();
    let _ = writeln!(
        r.text,
        "\nviolation rate across {} seed(s): {} — allocation should track the sinusoidal\n\
         load with a small lead (the Holt predictor) while p99 stays under the 100 ms objective",
        viol.n,
        viol.display(3)
    );
    r
}

/// **F2 — step response.** A 4× load step hits one service; measure
/// settling time (back under the 100 ms PLO for 3 consecutive windows)
/// and overshoot, for adaptive vs fixed-gain EVOLVE and the HPA,
/// replicated across seeds (mean ± 95 % CI).
#[must_use]
pub fn fig2_step(ctx: &Ctx) -> Report {
    let step_at = SimTime::from_secs(240); // from scenarios/step_response.toml
    let target_ms = 100.0;
    let variants: Vec<(&str, ManagerKind)> = vec![
        ("evolve adaptive", ManagerKind::Evolve),
        ("evolve fixed-gains", ManagerKind::EvolveFixedGains),
        ("hpa", ManagerKind::Hpa),
    ];
    // Settling needs the per-tick p99 series, so series stay on.
    let configs: Vec<RunConfig> =
        variants.iter().map(|(_, m)| RunConfig::from_spec(ctx.spec(), *m).build()).collect();
    let reps = Harness::new().run_matrix(&configs, &ctx.seeds);

    let mut table = crate::table("variant,settle (s),overshoot,viol rate,windows");
    let mut csv = String::from("variant,settle_s_mean,settle_ci,overshoot_mean,overshoot_ci\n");
    for ((label, _), rep) in variants.iter().zip(&reps) {
        let s = replicated_settling(rep, "app0/p99_ms", step_at, target_ms, 3);
        table.add_row(vec![
            (*label).to_string(),
            s.settle_display(),
            format!("{}x", s.overshoot.display(2)),
            rep.violation_rate().display(3),
            format!("{:.0}", rep.summarize(|r| r.total_windows() as f64).mean),
        ]);
        let _ = writeln!(
            csv,
            "{label},{:.1},{:.1},{:.3},{:.3}",
            s.settle_mean_or_neg(),
            s.settle.as_ref().map_or(0.0, |v| v.ci95),
            s.overshoot.mean,
            s.overshoot.ci95,
        );
    }
    let mut r = Report::default();
    let _ = writeln!(
        r.text,
        "\nF2 — response to a 4× load step at t=240 s (PLO: p99 ≤ 100 ms, {} seed(s))\n\n{table}",
        ctx.seeds.len()
    );
    r.text.push_str(
        "expected shape: adaptive gains settle fastest with the smallest overshoot;\n\
         fixed gains settle slower (or oscillate); the HPA trails both because it\n\
         only reacts once CPU-utilization averages move.\n",
    );
    r.file("fig2_step.csv", csv);
    r
}

/// **F3 — violation rate vs offered load.** Sweep the offered load from
/// 20% to 140% of nominal capacity and plot each policy's violation rate
/// (mean ± 95 % CI across seeds). The interesting feature is the
/// *crossover*: where the static baseline collapses while EVOLVE keeps
/// absorbing load by rescaling.
#[must_use]
pub fn fig3_sweep(ctx: &Ctx) -> Report {
    let offered = [0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4];
    let managers = [ManagerKind::Evolve, ManagerKind::KubeStatic, ManagerKind::Hpa];
    // One config per (load, manager) cell, all fanned out together; each
    // cell scales the spec's load profiles by its offered factor.
    let configs: Vec<RunConfig> = offered
        .iter()
        .flat_map(|x| {
            let scaled = ctx.spec().scaled_loads(*x);
            managers
                .iter()
                .map(move |m| RunConfig::from_spec(&scaled, *m).record_series(false).build())
        })
        .collect();
    let reps = Harness::new().run_matrix(&configs, &ctx.seeds);

    let mut headers = vec!["offered".to_string()];
    headers.extend(managers.iter().map(|m| m.label().to_string()));
    let mut table = Table::new(headers);
    let mut csv = String::from("offered,evolve,evolve_ci,kube_static,kube_static_ci,hpa,hpa_ci\n");
    for (x, cells) in offered.iter().zip(reps.chunks(managers.len())) {
        let mut row = vec![format!("{x:.1}")];
        let _ = write!(csv, "{x:.2}");
        for rate in cells.iter().map(ReplicatedOutcome::violation_rate) {
            row.push(rate.display(3));
            let _ = write!(csv, ",{:.4},{:.4}", rate.mean, rate.ci95);
        }
        csv.push('\n');
        table.add_row(row);
    }
    let mut r = Report::default();
    let _ = writeln!(
        r.text,
        "\nF3 — violation rate vs offered load (fraction of nominal capacity, {} seed(s))\n\
         \n{table}",
        ctx.seeds.len()
    );
    r.text.push_str(
        "expected shape: all policies near zero at low load; the static baseline's\n\
         curve breaks upward first (its fixed request saturates), the HPA next (it\n\
         scales only on CPU averages), EVOLVE last — and most gently.\n",
    );
    r.file("fig3_sweep.csv", csv);
    r
}

/// **F4 — utilization.** Per-resource allocated/used shares on the
/// headline mix for each policy (mean ± 95 % CI across seeds), plus the
/// cluster CPU-share time series (CSV per policy, first seed) that the
/// utilization figure plots.
#[must_use]
pub fn fig4_utilization(ctx: &Ctx) -> Report {
    let managers = [ManagerKind::Evolve, ManagerKind::KubeStatic, ManagerKind::Hpa];
    // The CSV wants the cluster time series, so series stay on.
    let configs: Vec<RunConfig> =
        managers.iter().map(|m| RunConfig::from_spec(ctx.spec(), *m).build()).collect();
    let reps = Harness::new().run_matrix(&configs, &ctx.seeds);

    let mut table =
        crate::table("policy,alloc cpu,alloc mem,alloc disk,alloc net,used cpu,eff cpu,viol rate");
    let mut r = Report::default();
    for rep in &reps {
        let label = rep.manager();
        table.add_row(vec![
            label.to_string(),
            rep.summarize(|r| r.utilization.allocated_share[Resource::Cpu]).display(3),
            rep.summarize(|r| r.utilization.allocated_share[Resource::Memory]).display(3),
            rep.summarize(|r| r.utilization.allocated_share[Resource::DiskIo]).display(3),
            rep.summarize(|r| r.utilization.allocated_share[Resource::NetIo]).display(3),
            rep.summarize(|r| r.utilization.used_share[Resource::Cpu]).display(3),
            rep.summarize(|r| r.utilization.efficiency[Resource::Cpu]).display(3),
            rep.violation_rate().display(3),
        ]);
        let csv = rep.representative().registry.wide_csv(&[
            "cluster/allocated_cpu_share",
            "cluster/used_cpu_share",
            "cluster/pods_pending",
        ]);
        r.file(&format!("fig4_utilization_{label}.csv"), csv);
    }
    let _ = writeln!(
        r.text,
        "\nF4 — time-averaged utilization on the headline mix ({} seed(s))\n\n{table}",
        ctx.seeds.len()
    );
    r.text.push_str(
        "the claim under test: EVOLVE converts reservation into useful work — its\n\
         used/allocated efficiency should be the highest while violations stay lowest.\n",
    );
    r
}

/// **F5 — flash crowd.** A 5× spike hits at t=120 s for 150 s. Measure
/// the time to recover the PLO, the worst excursion, and the requests
/// lost, per policy, replicated across seeds (mean ± 95 % CI).
#[must_use]
pub fn fig5_flashcrowd(ctx: &Ctx) -> Report {
    let spike_at = SimTime::from_secs(120);
    let target_ms = 100.0;
    let managers = [ManagerKind::Evolve, ManagerKind::Hpa, ManagerKind::KubeStatic];
    // Recovery analysis needs the per-tick p99 series, so series stay on.
    let configs: Vec<RunConfig> =
        managers.iter().map(|m| RunConfig::from_spec(ctx.spec(), *m).build()).collect();
    let reps = Harness::new().run_matrix(&configs, &ctx.seeds);

    let mut table = crate::table("policy,recovery (s),worst p99,timeouts,viol rate");
    let mut csv = String::from("policy,recovery_s_mean,recovery_ci,overshoot_mean,timeouts_mean\n");
    for rep in &reps {
        let label = rep.manager();
        let s = replicated_settling(rep, "app0/p99_ms", spike_at, target_ms, 3);
        let timeouts = rep.timeouts();
        table.add_row(vec![
            label.to_string(),
            s.settle_display(),
            format!("{:.0} ms", target_ms * (1.0 + s.overshoot.mean)),
            timeouts.display(0),
            rep.violation_rate().display(3),
        ]);
        let _ = writeln!(
            csv,
            "{label},{:.1},{:.1},{:.3},{:.0}",
            s.settle_mean_or_neg(),
            s.settle.as_ref().map_or(0.0, |v| v.ci95),
            s.overshoot.mean,
            timeouts.mean,
        );
    }
    let mut r = Report::default();
    let _ = writeln!(
        r.text,
        "\nF5 — 5× flash crowd at t=120 s (150 s long), PLO p99 ≤ 100 ms, {} seed(s)\n\n{table}",
        ctx.seeds.len()
    );
    r.text.push_str(
        "expected shape: EVOLVE recovers within a handful of control periods (vertical\n\
         resize absorbs the first seconds, replicas follow); the HPA needs its\n\
         utilization averages to move; the static baseline never recovers until the\n\
         spike ends.\n",
    );
    r.file("fig5_flashcrowd.csv", csv);
    r
}

/// **F6 — interference / slack harvesting.** Two latency-critical
/// services colocated with oversized batch and HPC jobs. With priority
/// preemption (the EVOLVE scheduler profile), batch work should harvest
/// slack without breaking the services' PLOs; without preemption the
/// services queue behind batch allocations. Replicated across seeds
/// (mean ± 95 % CI).
#[must_use]
pub fn fig6_interference(ctx: &Ctx) -> Report {
    let variants: Vec<(&str, ManagerKind, SchedulerProfile)> = vec![
        ("evolve + preemption", ManagerKind::Evolve, SchedulerProfile::Evolve),
        ("evolve, no preemption", ManagerKind::Evolve, SchedulerProfile::KubeDefault),
        ("kube-static", ManagerKind::KubeStatic, SchedulerProfile::KubeDefault),
    ];
    let configs: Vec<RunConfig> = variants
        .iter()
        .map(|(_, manager, profile)| {
            RunConfig::from_spec(ctx.spec(), *manager)
                .scheduler(*profile)
                .record_series(false)
                .build()
        })
        .collect();
    let reps = Harness::new().run_matrix(&configs, &ctx.seeds);

    let mut table = crate::table(
        "variant,svc viol rate,svc timeouts,jobs finished,deadline rate,used share,preemptions",
    );
    for ((label, _, _), rep) in variants.iter().zip(&reps) {
        let svc_timeouts = rep.summarize(|r| {
            let services = r.apps.iter().filter(|a| a.world == WorldClass::Microservice);
            services.map(|a| a.timeouts).sum::<u64>() as f64
        });
        let finished =
            rep.summarize(|r| r.jobs.iter().filter(|j| j.finished.is_some()).count() as f64);
        let total_jobs = rep.representative().jobs.len();
        table.add_row(vec![
            (*label).to_string(),
            rep.summarize(|r| r.violation_rate_by_world()[0]).display(3),
            svc_timeouts.display(0),
            format!("{}/{total_jobs}", finished.display(1)),
            rep.deadline_hit_rate().display(2),
            rep.used_share().display(3),
            rep.preemptions().display(1),
        ]);
    }
    let mut r = Report::default();
    let _ = writeln!(
        r.text,
        "\nF6 — colocating latency services with aggressive batch/HPC (10 nodes, {} seed(s))\n\
         \n{table}",
        ctx.seeds.len()
    );
    r.text.push_str(
        "expected shape: with preemption the services stay compliant and batch still\n\
         finishes (harvesting slack, losing some work to preemption); without it, the\n\
         services suffer when batch got there first.\n",
    );
    r.file("fig6_interference.csv", table.to_csv());
    r
}

/// **F7 — fault timeline.** One latency-critical service under EVOLVE
/// through a node crash and recovery: p99 latency, replica count, total
/// CPU allocation, ready nodes and pending pods per control window. The
/// plotted trace comes from the first seed; the summary line aggregates
/// all seeds. A `--scenario` file brings its own `[[fault]]` list and
/// horizon in place of the builtin node crash, and the header names them.
#[must_use]
pub fn fig7_faults(ctx: &Ctx) -> Report {
    let (horizon, crash_at, downtime) = (720u64, 240u64, 120u64);
    let mut spec = ctx.spec().clone();
    if !ctx.from_file {
        spec.faults = vec![FaultEvent {
            at: SimTime::from_secs(crash_at),
            kind: FaultKind::NodeCrash {
                node: NodeId::new(0),
                downtime: Some(SimDuration::from_secs(downtime)),
            },
        }];
    }
    let mut config = RunConfig::from_spec(&spec, ManagerKind::Evolve).build();
    if !ctx.from_file {
        config.scenario.horizon = config.scenario.horizon.min(SimDuration::from_secs(horizon));
    }
    let rep = Harness::new().run_seeds(&config, &ctx.seeds);
    let faults = if !ctx.from_file {
        format!("node crash at t={crash_at} s, recovery at t={} s", crash_at + downtime)
    } else if spec.faults.is_empty() {
        "no faults".to_string()
    } else {
        let each =
            spec.faults.iter().map(|f| format!("{} at t={} s", f.kind.label(), f.at.as_secs_f64()));
        each.collect::<Vec<_>>().join(", ")
    };
    let mut r = Report::default();
    let _ = writeln!(r.text, "\nF7 — {faults} (every 4th window, seed {})\n", rep.seeds[0]);
    let columns = [
        ("app0/p99_ms", "p99 ms", 9, 1),
        ("app0/replicas", "replicas", 9, 0),
        ("app0/alloc_cpu", "alloc mcore", 11, 0),
        ("cluster/nodes_ready", "ready", 7, 0),
        ("cluster/pods_pending", "pending", 9, 0),
    ];
    timeline(&mut r, "fig7_faults", rep.representative(), &columns, 3, 4);
    let viol = rep.violation_rate();
    let _ = write!(r.text, "\nviolation rate across {} seed(s): {}", viol.n, viol.display(3));
    if !ctx.from_file {
        r.text.push_str(
            " — expected shape: ready nodes dip 6→5 at the\n\
             crash, evicted replicas requeue (pending spike) and rebind on survivors within a few\n\
             control periods, p99 spikes then recovers, and the node's return restores headroom",
        );
    }
    r.text.push('\n');
    r
}

/// **F8 — restart timeline.** One latency-critical service under EVOLVE
/// through a controller crash, one trace per recovery strategy: p99
/// latency, replica count and total CPU allocation per control window
/// (first seed). Long-format CSV for plotting the three recoveries
/// against the uninterrupted run.
#[must_use]
pub fn fig8_restart(ctx: &Ctx) -> Report {
    let (horizon, crash_at) = (720u64, 360u64);
    let mut r = Report::default();
    let mut csv = String::from("strategy,t_s,p99_ms,replicas,alloc_cpu\n");
    let _ = writeln!(
        r.text,
        "\nF8 — controller crash at t={crash_at} s, horizon {horizon} s (seed {})\n",
        ctx.seeds[0]
    );
    let _ = writeln!(
        r.text,
        "{:>18} {:>8} {:>9} {:>9} {:>11}",
        "strategy", "t (s)", "p99 ms", "replicas", "alloc"
    );
    for (name, rep) in recovery_runs(ctx.spec(), &ctx.seeds, crash_at, horizon) {
        let registry = &rep.representative().registry;
        let get = |n: &str| registry.series(n).map(|s| s.to_points()).unwrap_or_default();
        let (p99, alloc) = (get("app0/p99_ms"), get("app0/alloc_cpu"));
        for (i, &(t, replicas)) in get("app0/replicas").iter().enumerate() {
            let p = value_at(&p99, t);
            let a = value_at(&alloc, t).unwrap_or(0.0);
            let _ = writeln!(
                csv,
                "{name},{t:.0},{},{replicas:.0},{a:.0}",
                p.map_or(String::from("nan"), |v| format!("{v:.1}")),
            );
            // Console preview: every 8th window around the crash only.
            if i % 8 == 0 && t >= (crash_at as f64 - 60.0) {
                let _ = writeln!(
                    r.text,
                    "{name:>18} {t:>8.0} {:>9} {replicas:>9.0} {a:>11.0}",
                    p.map_or("-".into(), |v| format!("{v:.1}")),
                );
            }
        }
    }
    r.text.push_str(
        "\nexpected shape: the restore trace overlays the uninterrupted one exactly;\n\
         cold reconstruction holds the pre-crash allocation and re-converges within a\n\
         bounded window; naive reset drops replicas to the spec default at the crash,\n\
         p99 spikes, and the controller re-learns the load from scratch.\n",
    );
    r.file("fig8_restart.csv", csv);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    /// With a `--scenario` file, F7 describes the faults that ran, not the
    /// builtin node crash.
    #[test]
    fn fig7_from_a_file_names_the_file_faults() {
        let mut spec = ScenarioSpec::builtin("single_diurnal").unwrap();
        spec.horizon = SimDuration::from_secs(60);
        spec.faults = vec![FaultEvent {
            at: SimTime::from_secs(20),
            kind: FaultKind::ControlStall { duration: SimDuration::from_secs(10) },
        }];
        let ctx = Ctx { seeds: vec![42], scenario: Some(spec), from_file: true };
        let text = fig7_faults(&ctx).text;
        let header = text.lines().find(|l| l.starts_with("F7")).expect("F7 header");
        assert_eq!(header, "F7 — control_stall at t=20 s (every 4th window, seed 42)");
        assert!(!text.contains("node crash") && !text.contains("6→5"), "{text}");
    }
}
