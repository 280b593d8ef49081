//! **Scenario suite.** Sweeps every checked-in `scenarios/*.toml` through
//! the declarative loading path: each file is parsed and validated, run
//! under stock Kubernetes (static replicas) and under EVOLVE (plus the
//! capacity arbiter when the spec declares one) with the chaos oracle
//! checking every control tick, replicated across the seed set, and
//! summarized in one cross-scenario CSV plus a self-contained HTML
//! overview — per-scenario violation rates, utilization,
//! simulated-seconds-per-wall-second, and the capacity knee for specs
//! that carry a `[probe]` table.
//!
//! ```text
//! cargo run --release -p evolve-bench --bin scenario_suite [seed-count]
//! cargo run --release -p evolve-bench --bin scenario_suite -- --dir scenarios
//! EVOLVE_SMOKE=1 … # cap horizons at 120 s for CI smoke runs
//! ```
//!
//! The oracle only observes, so no number moves. Exits non-zero when any
//! scenario file fails to parse or validate (the typed errors are listed
//! first, before any run) or when any run violates an oracle invariant
//! (scenario, system and failed checks on stderr) — this is what CI's
//! experiments smoke job gates on. Writes
//! `experiments_out/scenario_suite.csv` and
//! `experiments_out/scenario_suite.html`.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use evolve::prelude::*;
use evolve_bench::BenchArgs;
use evolve_workload::WorldClass;

/// Knee detection: a system is past its knee once its service violation
/// rate exceeds the probe threshold this many ramp steps in a row.
const CONSECUTIVE_BAD: usize = 2;

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

fn run_system(
    spec: &evolve_workload::ScenarioSpec,
    manager: ManagerKind,
    label: &'static str,
    seeds: &[u64],
    horizon_cap: Option<SimDuration>,
) -> SystemResult {
    let mut config = RunConfig::from_spec(spec, manager).record_series(false).oracle(true).build();
    if let Some(cap) = horizon_cap {
        config.scenario.horizon = config.scenario.horizon.min(cap);
    }
    let rep = Harness::new().run_seeds(&config, seeds);
    let sim_per_wall = rep.runs.iter().map(|r| r.perf.sim_secs_per_wall_sec).fold(0.0f64, f64::max);
    let mut failed_checks: Vec<String> =
        rep.runs.iter().filter_map(|r| r.oracle.as_ref()).flat_map(|o| o.failed_checks()).collect();
    failed_checks.sort();
    failed_checks.dedup();
    SystemResult {
        system: label,
        violation_rate: rep.violation_rate(),
        service_rate: rep.summarize(service_rate),
        deadline_rate: rep.deadline_hit_rate(),
        used_share: rep.used_share(),
        preemptions: rep.preemptions(),
        sim_per_wall,
        failed_checks,
    }
}

/// The capacity knee of the EVOLVE system on a spec with a `[probe]`
/// table: the highest offered rate sustained before the service violation
/// rate stayed over the threshold for [`CONSECUTIVE_BAD`] steps. Uses the
/// first seed only — the knee column is an overview, the dedicated
/// `capacity_probe` binary owns the replicated analysis.
fn probe_knee(
    spec: &evolve_workload::ScenarioSpec,
    seeds: &[u64],
    smoke: bool,
    horizon_cap: Option<SimDuration>,
) -> Option<f64> {
    let probe = spec.probe.as_ref()?;
    let (initial, step, max) =
        if smoke { (0.5, 0.5, 2.0) } else { (probe.initial, probe.step, probe.max) };
    let reference_rps = probe.reference_rps.unwrap_or_else(|| spec.offered_rps());
    let seeds = &seeds[..1.min(seeds.len())];
    let mut knee = None;
    let mut bad_streak = 0usize;
    let mut offered = initial;
    while offered <= max + 1e-9 {
        let scaled = spec.scaled_loads(offered);
        let mut config =
            RunConfig::from_spec(&scaled, ManagerKind::Evolve).record_series(false).build();
        if let Some(cap) = horizon_cap {
            config.scenario.horizon = config.scenario.horizon.min(cap);
        }
        let rep = Harness::new().run_seeds(&config, seeds);
        if rep.summarize(service_rate).mean <= probe.threshold {
            bad_streak = 0;
            knee = Some(reference_rps * offered);
        } else {
            bad_streak += 1;
            if bad_streak >= CONSECUTIVE_BAD {
                break;
            }
        }
        offered += step;
    }
    knee
}

fn html_escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;")
}

/// One self-contained HTML page: summary header, a bar-annotated results
/// table, and the stock-vs-EVOLVE verdict per scenario. Deliberately
/// timestamp-free so reruns of identical code produce identical bytes.
fn render_html(results: &[ScenarioResult], seeds: usize, smoke: bool) -> String {
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
         declarative spec parser and replicated over {seeds} seed(s){}. Violation rate is the \
         fraction of PLO windows violated (lower is better); the knee is the highest offered \
         request rate the EVOLVE system sustained on the spec's probe ramp.</p>",
        if smoke { ", horizons capped at 120 s (smoke mode)" } else { "" }
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
         <code>cargo run --release -p evolve-bench --bin scenario_suite</code>.</p>\n",
    );
    h.push_str("</body>\n</html>\n");
    h
}

fn main() -> ExitCode {
    let args = BenchArgs::parse(3);
    let seeds = &args.seeds;
    let dir = args
        .rest
        .iter()
        .position(|a| a == "--dir")
        .and_then(|i| args.rest.get(i + 1))
        .map_or_else(|| PathBuf::from("scenarios"), PathBuf::from);
    let horizon_cap = args.smoke.then(|| SimDuration::from_secs(120));

    // Discover and parse every scenario file up front; any failure lists
    // its typed error and fails the whole suite before a single run.
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(entries) => entries
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|e| e == "toml"))
            .collect(),
        Err(err) => {
            eprintln!("error: cannot read scenario directory {}: {err}", dir.display());
            return ExitCode::FAILURE;
        }
    };
    paths.sort();
    if paths.is_empty() {
        eprintln!("error: no *.toml files in {}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut specs = Vec::new();
    let mut failures = Vec::new();
    for path in &paths {
        match ScenarioSpec::from_file(path) {
            Ok(spec) => specs.push((path.clone(), spec)),
            Err(err) => failures.push((path.clone(), err)),
        }
    }
    if !failures.is_empty() {
        eprintln!("{} scenario file(s) failed to load:", failures.len());
        for (path, err) in &failures {
            eprintln!("  {}: {err}", path.display());
        }
        return ExitCode::FAILURE;
    }
    eprintln!(
        "scenario_suite: {} scenarios from {}, {} seed(s){}",
        specs.len(),
        dir.display(),
        seeds.len(),
        if args.smoke { ", smoke horizons" } else { "" }
    );

    let mut results = Vec::new();
    for (path, spec) in &specs {
        let file = path
            .file_name()
            .map_or_else(|| path.display().to_string(), |f| f.to_string_lossy().into_owned());
        eprintln!(
            "{file}: {} ({} apps, {} nodes) …",
            spec.name,
            spec.services.len() + spec.batch_jobs.len() + spec.hpc_jobs.len(),
            spec.cluster.nodes
        );
        let systems = vec![
            run_system(spec, ManagerKind::KubeStatic, "kube-static", seeds, horizon_cap),
            run_system(spec, ManagerKind::Evolve, "evolve", seeds, horizon_cap),
        ];
        let knee_rps =
            spec.probe.is_some().then(|| probe_knee(spec, seeds, args.smoke, horizon_cap));
        results.push(ScenarioResult {
            file,
            name: spec.name.clone(),
            apps: spec.services.len() + spec.batch_jobs.len() + spec.hpc_jobs.len(),
            nodes: spec.cluster.nodes,
            horizon_secs: horizon_cap
                .map_or(spec.horizon, |cap| spec.horizon.min(cap))
                .as_secs_f64(),
            offered_rps: spec.offered_rps(),
            systems,
            knee_rps,
        });
    }

    // Cross-scenario CSV: one row per (scenario, system).
    let mut csv = String::from(
        "file,scenario,system,apps,nodes,horizon_s,offered_rps,violation_rate_mean,\
         violation_rate_ci95,service_violation_rate_mean,deadline_rate_mean,used_share_mean,\
         preemptions_mean,sim_s_per_wall_s,knee_rps\n",
    );
    let mut table = Table::new(
        ["scenario", "system", "viol rate", "svc viol", "deadline", "used", "sim-s/wall-s", "knee"]
            .map(String::from)
            .to_vec(),
    );
    for r in &results {
        for s in &r.systems {
            let knee = match (s.system, r.knee_rps) {
                ("evolve", Some(Some(k))) => format!("{k:.0}"),
                ("evolve", Some(None)) => "none".into(),
                _ => String::new(),
            };
            let _ = writeln!(
                csv,
                "{},{},{},{},{},{:.0},{:.1},{:.4},{:.4},{:.4},{:.4},{:.4},{:.1},{:.0},{knee}",
                r.file,
                r.name,
                s.system,
                r.apps,
                r.nodes,
                r.horizon_secs,
                r.offered_rps,
                s.violation_rate.mean,
                s.violation_rate.ci95,
                s.service_rate.mean,
                s.deadline_rate.mean,
                s.used_share.mean,
                s.preemptions.mean,
                s.sim_per_wall,
            );
            table.add_row(vec![
                r.name.clone(),
                s.system.to_string(),
                s.violation_rate.display(3),
                s.service_rate.display(3),
                s.deadline_rate.display(2),
                s.used_share.display(3),
                format!("{:.0}", s.sim_per_wall),
                if knee.is_empty() { "—".into() } else { knee },
            ]);
        }
    }
    println!(
        "\nScenario suite — {} scenarios × (kube-static, evolve), {} seed(s)\n",
        results.len(),
        seeds.len()
    );
    println!("{table}");

    if let Err(err) = write_csv(&args.out_dir, "scenario_suite", &csv) {
        eprintln!("could not write CSV: {err}");
        return ExitCode::FAILURE;
    }
    let html = render_html(&results, seeds.len(), args.smoke);
    let html_path = args.out_dir.join("scenario_suite.html");
    if let Err(err) = std::fs::write(&html_path, html) {
        eprintln!("could not write {}: {err}", html_path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}/scenario_suite.csv and {}", args.out_dir.display(), html_path.display());

    let mut clean = true;
    for r in &results {
        for s in r.systems.iter().filter(|s| !s.failed_checks.is_empty()) {
            eprintln!(
                "oracle violation: scenario={} system={} checks=[{}]",
                r.name,
                s.system,
                s.failed_checks.join(", ")
            );
            clean = false;
        }
    }
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
