//! Load ramps and scenario sweeps: `experiments` entries
//! `capacity_probe` and `scenario_suite`.

use std::fmt::Write as _;

use evolve::prelude::*;
use evolve_workload::{ProbeSpec, BUILTINS};

use crate::{Ctx, Report};

/// A run is sustainable while its service violation rate stays at or
/// below this (the default ramp's threshold). Judged on services only:
/// the overload scenario's batch jobs run with deliberately tight
/// deadlines and violate them even on an idle cluster, which says
/// nothing about the knee.
const SUSTAIN_THRESHOLD: f64 = 0.10;
/// Steps the threshold must be exceeded in a row before the knee is
/// declared (one bad step can be a transient).
const CONSECUTIVE_BAD: usize = 2;

/// The offered-load factors of a probe ramp: `initial`, `initial + step`,
/// … up to `max`.
fn ramp(probe: &ProbeSpec) -> impl Iterator<Item = f64> {
    let (step, max) = (probe.step, probe.max);
    std::iter::successors(Some(probe.initial), move |o| Some(o + step))
        .take_while(move |o| *o <= max + 1e-9)
}

/// One system's capacity knee on a ramp: the offered rate of the last
/// sustained step before [`CONSECUTIVE_BAD`] bad steps in a row.
#[derive(Default)]
struct Knee {
    bad_streak: usize,
    /// The system has gone persistently over the threshold.
    past: bool,
    rps: Option<f64>,
}

impl Knee {
    fn observe(&mut self, sustained: bool, offered_rps: f64) {
        if sustained {
            self.bad_streak = 0;
            if !self.past {
                self.rps = Some(offered_rps);
            }
        } else {
            self.bad_streak += 1;
            self.past |= self.bad_streak >= CONSECUTIVE_BAD;
        }
    }
}

/// Mean ± CI of the violation rate of the run's services alone.
fn service_rate(rep: &ReplicatedOutcome) -> Summary {
    rep.summarize(|r| r.violation_rate_by_world()[0])
}

/// The violation rate of the run's apps of priority `class`.
fn class_rate(outcome: &RunOutcome, class: PriorityClass) -> f64 {
    let apps = outcome.apps.iter().filter(|a| a.priority == class);
    let (viol, wins) = apps.fold((0u64, 0u64), |(v, w), a| (v + a.violations, w + a.windows));
    if wins == 0 {
        0.0
    } else {
        viol as f64 / wins as f64
    }
}

/// **Capacity-discovery probe.** Ramps the offered load of the
/// priority-tiered overload scenario and reports, per system, the maximum
/// sustainable request rate (the knee) and the behaviour past it: for
/// stock Kubernetes and unarbitrated EVOLVE every class's violation rate
/// grows together once capacity runs out, while EVOLVE with the capacity
/// arbiter sheds preemptible work and keeps the critical class flat.
///
/// The ramp comes from the spec's `[probe]` table (the builtin overload
/// spec's rates sum to 440 rps at `offered = 1.0`, sized to saturate ~4
/// default nodes around 1.5× once controllers right-size); a spec without
/// one gets the default ramp. Each step runs every system across the seed
/// set and computes the overall, service and critical-class violation
/// rates (mean ± 95% CI). The ramp continues until every system is past
/// its knee, plus two steps so the past-knee rows land in the CSV.
#[must_use]
pub fn capacity_probe(ctx: &Ctx) -> Report {
    let base = ctx.spec();
    let probe = base.probe.unwrap_or(ProbeSpec {
        initial: 0.6,
        step: 0.2,
        max: 2.2,
        threshold: SUSTAIN_THRESHOLD,
        reference_rps: None,
    });
    let reference_rps = probe.reference_rps.unwrap_or_else(|| base.offered_rps());
    let systems = [
        ("kube-static", ManagerKind::KubeStatic, None),
        ("evolve", ManagerKind::Evolve, None),
        ("evolve+arbiter", ManagerKind::Evolve, Some(base.arbiter.unwrap_or_default())),
    ];

    let mut table = crate::table(
        "offered_factor,offered_rps,system,violation_rate_mean,violation_rate_ci95,\
         service_violation_rate_mean,service_violation_rate_ci95,critical_violation_rate_mean,\
         critical_violation_rate_ci95,shed_requests_mean,clipped_allocations_mean,shed_apps_mean,\
         starvation_watermark_max,sustainable",
    );
    let mut r = Report::default();
    let mut knees: Vec<Knee> = systems.iter().map(|_| Knee::default()).collect();
    let mut overshoot = 0usize;
    for offered in ramp(&probe) {
        let mut spec = base.scaled_loads(offered);
        spec.horizon = SimDuration::from_secs(480);
        let offered_rps = reference_rps * offered;
        for ((name, manager, arbiter), knee) in systems.iter().zip(&mut knees) {
            spec.arbiter = *arbiter;
            let config = RunConfig::from_spec(&spec, *manager).record_series(false).build();
            let rep = Harness::new().run_seeds(&config, &ctx.seeds);
            let violation_rate = rep.violation_rate();
            let service_rate = service_rate(&rep);
            let critical_rate = rep.summarize(|o| class_rate(o, PriorityClass::Critical));
            let shed_requests =
                rep.summarize(|o| o.apps.iter().map(|a| a.shed_requests).sum::<u64>() as f64);
            let clipped = rep.summarize(|o| o.control.clipped_allocations as f64);
            let starvation_max = rep
                .runs
                .iter()
                .map(|o| f64::from(o.control.starvation_watermark))
                .fold(0.0, f64::max);
            let sustainable = service_rate.mean <= probe.threshold;
            knee.observe(sustainable, offered_rps);
            let _ = writeln!(
                r.text,
                "offered {offered:.2} ({offered_rps:.0} rps) {name:>14}: services {} | critical {} | shed {:.0} req / {:.0} clips",
                service_rate.display(3),
                critical_rate.display(3),
                shed_requests.mean,
                clipped.mean,
            );
            table.add_row(vec![
                format!("{offered:.2}"),
                format!("{offered_rps:.1}"),
                name.to_string(),
                format!("{:.4}", violation_rate.mean),
                format!("{:.4}", violation_rate.ci95),
                format!("{:.4}", service_rate.mean),
                format!("{:.4}", service_rate.ci95),
                format!("{:.4}", critical_rate.mean),
                format!("{:.4}", critical_rate.ci95),
                format!("{:.1}", shed_requests.mean),
                format!("{:.1}", clipped.mean),
                format!("{:.1}", rep.summarize(|o| o.shed_apps as f64).mean),
                format!("{starvation_max:.0}"),
                sustainable.to_string(),
            ]);
        }
        // Keep ramping until every system is persistently past its knee,
        // plus two more steps so the past-knee divergence (critical-class
        // flat under the arbiter, growing without it) lands in the CSV.
        if knees.iter().all(|k| k.past) {
            overshoot += 1;
            if overshoot > 2 {
                break;
            }
        }
    }
    r.text.push('\n');
    for ((name, _, _), knee) in systems.iter().zip(&knees) {
        let _ = match knee.rps {
            Some(k) => writeln!(r.text, "{name:>14}: max sustainable ≈ {k:.0} rps"),
            None => writeln!(r.text, "{name:>14}: never sustainable on this ramp"),
        };
    }
    r.file("capacity_probe.csv", table.to_csv());
    r
}

struct SystemResult {
    system: &'static str,
    violation_rate: Summary,
    service_rate: Summary,
    deadline_rate: Summary,
    used_share: Summary,
    preemptions: Summary,
    sim_per_wall: f64,
    /// Oracle checks any seed's run violated, sorted and deduplicated.
    failed_checks: Vec<String>,
}

struct ScenarioResult {
    file: String,
    name: String,
    apps: usize,
    nodes: usize,
    horizon_secs: f64,
    offered_rps: f64,
    systems: Vec<SystemResult>,
    knee_rps: Option<Option<f64>>,
}

fn run_system(
    spec: &ScenarioSpec,
    manager: ManagerKind,
    label: &'static str,
    seeds: &[u64],
) -> SystemResult {
    let config = RunConfig::from_spec(spec, manager).record_series(false).oracle(true).build();
    let rep = Harness::new().run_seeds(&config, seeds);
    let sim_per_wall = rep.runs.iter().map(|r| r.perf.sim_secs_per_wall_sec).fold(0.0f64, f64::max);
    let mut failed_checks: Vec<String> =
        rep.runs.iter().filter_map(|r| r.oracle.as_ref()).flat_map(|o| o.failed_checks()).collect();
    failed_checks.sort();
    failed_checks.dedup();
    SystemResult {
        system: label,
        violation_rate: rep.violation_rate(),
        service_rate: service_rate(&rep),
        deadline_rate: rep.deadline_hit_rate(),
        used_share: rep.used_share(),
        preemptions: rep.preemptions(),
        sim_per_wall,
        failed_checks,
    }
}

/// The capacity knee of the EVOLVE system on a spec with a `[probe]`
/// table, on the first seed only: the knee column is an overview, the
/// `capacity_probe` entry owns the replicated analysis.
fn probe_knee(spec: &ScenarioSpec, seed: u64) -> Option<f64> {
    let probe = spec.probe.as_ref()?;
    let reference_rps = probe.reference_rps.unwrap_or_else(|| spec.offered_rps());
    let mut knee = Knee::default();
    for offered in ramp(probe) {
        let scaled = spec.scaled_loads(offered);
        let config =
            RunConfig::from_spec(&scaled, ManagerKind::Evolve).record_series(false).build();
        let rep = Harness::new().run_seeds(&config, &[seed]);
        knee.observe(service_rate(&rep).mean <= probe.threshold, reference_rps * offered);
        if knee.past {
            break;
        }
    }
    knee.rps
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// One self-contained HTML page: summary header, a bar-annotated results
/// table, and the stock-vs-EVOLVE verdict per scenario. Deliberately
/// timestamp-free so reruns of identical code produce identical bytes.
fn render_html(results: &[ScenarioResult], seeds: usize) -> String {
    let mut h = String::from(
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
         <title>EVOLVE scenario suite</title>\n<style>\n\
         body{font-family:system-ui,sans-serif;margin:2rem;color:#1a1a2e;max-width:75rem}\n\
         h1{font-size:1.4rem}\n\
         table{border-collapse:collapse;width:100%;font-size:0.85rem}\n\
         th,td{border:1px solid #d0d0e0;padding:0.3rem 0.5rem;text-align:right;\
         white-space:nowrap}\n\
         th{background:#f0f0fa}\ntd.l,th.l{text-align:left}\n\
         tr.evolve{background:#f6fff6}\n\
         .bar{display:inline-block;height:0.7rem;background:#c0392b;vertical-align:middle;\
         margin-right:0.3rem}\n\
         .win{color:#1e7e34;font-weight:600}\n.loss{color:#c0392b}\n\
         p.note{color:#555;font-size:0.85rem}\n</style>\n</head>\n<body>\n",
    );
    let _ = writeln!(h, "<h1>EVOLVE scenario suite — {} scenarios</h1>", results.len());
    let _ = writeln!(
        h,
        "<p class=\"note\">Every checked-in <code>scenarios/*.toml</code>, loaded through the \
         declarative spec parser and replicated over {seeds} seed(s). Violation rate is the \
         fraction of PLO windows violated (lower is better); the knee is the highest offered \
         request rate the EVOLVE system sustained on the spec's probe ramp.</p>",
    );
    h.push_str(
        "<table>\n<tr><th class=\"l\">scenario</th><th class=\"l\">system</th>\
         <th>apps</th><th>nodes</th><th>horizon (s)</th><th>offered rps</th>\
         <th>violation rate</th><th>service viol</th><th>deadline rate</th>\
         <th>used share</th><th>preemptions</th><th>sim-s/wall-s</th>\
         <th>knee (rps)</th></tr>\n",
    );
    for r in results {
        let stock = r.systems.iter().find(|s| s.system == "kube-static");
        for s in &r.systems {
            let evolve_row = s.system != "kube-static";
            let verdict = match (evolve_row, stock) {
                (true, Some(st)) if s.violation_rate.mean <= st.violation_rate.mean => {
                    " <span class=\"win\">&#x2713;</span>"
                }
                (true, Some(_)) => " <span class=\"loss\">&#x2717;</span>",
                _ => "",
            };
            let bar = (s.violation_rate.mean.min(1.0) * 60.0).round();
            let knee = match r.knee_rps {
                Some(Some(k)) if evolve_row => format!("{k:.0}"),
                Some(None) if evolve_row => "none".into(),
                _ => "&mdash;".into(),
            };
            let _ = writeln!(
                h,
                "<tr{}><td class=\"l\">{}</td><td class=\"l\">{}</td><td>{}</td><td>{}</td>\
                 <td>{:.0}</td><td>{:.0}</td>\
                 <td><span class=\"bar\" style=\"width:{bar}px\"></span>{}{verdict}</td>\
                 <td>{}</td><td>{}</td><td>{}</td><td>{}</td><td>{:.0}</td><td>{knee}</td></tr>",
                if evolve_row { " class=\"evolve\"" } else { "" },
                html_escape(&r.name),
                s.system,
                r.apps,
                r.nodes,
                r.horizon_secs,
                r.offered_rps,
                s.violation_rate.display(3),
                s.service_rate.display(3),
                s.deadline_rate.display(2),
                s.used_share.display(3),
                s.preemptions.display(1),
                s.sim_per_wall,
            );
        }
    }
    h.push_str("</table>\n");
    h.push_str(
        "<p class=\"note\">Source files: <code>scenarios/*.toml</code> — authoring reference in \
         EXPERIMENTS.md &sect; Authoring scenarios. Regenerate with \
         <code>cargo run --release -p evolve-bench --bin experiments -- scenario_suite</code>.</p>\n",
    );
    h.push_str("</body>\n</html>\n");
    h
}

/// **Scenario suite.** Sweeps every builtin scenario ([`BUILTINS`], the
/// checked-in `scenarios/*.toml` compiled in, by name) through the
/// declarative loading path: each file is parsed and validated, run
/// under stock Kubernetes (static
/// replicas) and under EVOLVE (plus the capacity arbiter when the spec
/// declares one) with the chaos oracle checking every control tick,
/// replicated across the seed set, and summarized in one cross-scenario
/// CSV plus a self-contained HTML overview — per-scenario violation
/// rates, utilization, simulated-seconds-per-wall-second, and the
/// capacity knee for specs that carry a `[probe]` table.
///
/// The oracle only observes, so no number moves. Fails when any scenario
/// file fails to parse or validate (the typed errors are listed, and
/// nothing runs) or when any run violates an oracle invariant (scenario,
/// system and failed checks) — this is what CI gates on.
#[must_use]
pub fn scenario_suite(ctx: &Ctx) -> Report {
    let seeds = &ctx.seeds;
    let mut r = Report::default();
    let mut builtins = BUILTINS;
    builtins.sort_unstable_by_key(|(name, _)| *name);
    // Parse every file up front; any failure lists its typed error and
    // fails the whole suite before a single run.
    let mut specs = Vec::new();
    let mut failures = Vec::new();
    for (name, text) in builtins {
        let file = format!("{name}.toml");
        match ScenarioSpec::from_toml_str(text) {
            Ok(spec) => specs.push((file, spec)),
            Err(err) => failures.push(format!("  {file}: {err}")),
        }
    }
    if !failures.is_empty() {
        let why = format!("{} scenario file(s) failed to load:\n", failures.len());
        r.failure = Some(why + &failures.join("\n"));
        return r;
    }

    let mut results = Vec::new();
    for (file, spec) in specs {
        let systems = vec![
            run_system(&spec, ManagerKind::KubeStatic, "kube-static", seeds),
            run_system(&spec, ManagerKind::Evolve, "evolve", seeds),
        ];
        results.push(ScenarioResult {
            file,
            name: spec.name.clone(),
            apps: spec.app_count(),
            nodes: spec.cluster.nodes,
            horizon_secs: spec.horizon.as_secs_f64(),
            offered_rps: spec.offered_rps(),
            systems,
            knee_rps: spec.probe.is_some().then(|| probe_knee(&spec, seeds[0])),
        });
    }

    // Cross-scenario CSV: one row per (scenario, system).
    let mut csv = String::from(
        "file,scenario,system,apps,nodes,horizon_s,offered_rps,violation_rate_mean,\
         violation_rate_ci95,service_violation_rate_mean,deadline_rate_mean,used_share_mean,\
         preemptions_mean,sim_s_per_wall_s,knee_rps\n",
    );
    let mut table =
        crate::table("scenario,system,viol rate,svc viol,deadline,used,sim-s/wall-s,knee");
    let mut violations = Vec::new();
    for res in &results {
        for s in &res.systems {
            let knee = match (s.system, res.knee_rps) {
                ("evolve", Some(Some(k))) => format!("{k:.0}"),
                ("evolve", Some(None)) => "none".into(),
                _ => String::new(),
            };
            let _ = writeln!(
                csv,
                "{},{},{},{},{},{:.0},{:.1},{:.4},{:.4},{:.4},{:.4},{:.4},{:.1},{:.0},{knee}",
                res.file,
                res.name,
                s.system,
                res.apps,
                res.nodes,
                res.horizon_secs,
                res.offered_rps,
                s.violation_rate.mean,
                s.violation_rate.ci95,
                s.service_rate.mean,
                s.deadline_rate.mean,
                s.used_share.mean,
                s.preemptions.mean,
                s.sim_per_wall,
            );
            table.add_row(vec![
                res.name.clone(),
                s.system.to_string(),
                s.violation_rate.display(3),
                s.service_rate.display(3),
                s.deadline_rate.display(2),
                s.used_share.display(3),
                format!("{:.0}", s.sim_per_wall),
                if knee.is_empty() { "—".into() } else { knee },
            ]);
            if !s.failed_checks.is_empty() {
                violations.push(format!(
                    "oracle violation: scenario={} system={} checks=[{}]",
                    res.name,
                    s.system,
                    s.failed_checks.join(", ")
                ));
            }
        }
    }
    let _ = writeln!(
        r.text,
        "\nScenario suite — {} scenarios × (kube-static, evolve), {} seed(s)\n\n{table}",
        results.len(),
        seeds.len()
    );
    r.file("scenario_suite.csv", csv);
    r.file("scenario_suite.html", render_html(&results, seeds.len()));
    if !violations.is_empty() {
        r.failure = Some(violations.join("\n"));
    }
    r
}
