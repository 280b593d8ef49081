//! **Decision-trace explorer.** Runs the headline scenario with the
//! decision-trace ring dumped to JSONL, then reconstructs the full
//! decision chain — PID term breakdown → degradation-guard verdict →
//! actuation outcome → scheduler placements — for one app around one
//! moment, *from the dump file itself* (proving the JSONL is queryable
//! offline). With no arguments it auto-selects the worst violating
//! control window of the run; pass an app id and a time to aim it.
//!
//! With `--overload` it runs the overload scenario with the capacity
//! arbiter instead, and the timeline gains the arbitration chain
//! (requested → granted → decision) for every arbitrated tick in the
//! window — the first thing to read when a violation coincides with a
//! capacity crunch.
//!
//! ```text
//! cargo run --release -p evolve-bench --bin trace_explain -- [--overload] [--app N] [--at T_S] [--window HALF_S]
//! ```
//!
//! `--scenario <file>` swaps the workload for a declarative spec (the
//! spec's cluster shape and arbiter settings apply; `--overload` is then
//! only a hint for the arbitration legend). Exits 1 when the dump is
//! empty (tracing broken) or the requested app/window has no control
//! records, 2 on an argument it does not read.

use evolve::prelude::*;
use evolve_bench::{usage_exit, BenchArgs, BASE_SEED};
use std::process::ExitCode;

/// One parsed JSONL record: the raw line plus the fields the timeline
/// needs. Parsing is by string scanning — the dump's key order and float
/// format are pinned (see `evolve_telemetry::trace`), and the vendored
/// serde is a no-op stub, so a hand-rolled reader is the honest option.
struct Record {
    line: String,
}

impl Record {
    fn kind(&self) -> &str {
        self.str_field("type").unwrap_or("")
    }

    /// Numeric field value, or `None` when absent or JSON `null`.
    fn num(&self, key: &str) -> Option<f64> {
        let needle = format!("\"{key}\":");
        let rest = &self.line[self.line.find(&needle)? + needle.len()..];
        let end = rest
            .find(|c: char| {
                !(c.is_ascii_digit() || c == '.' || c == '-' || c == '+' || c == 'e' || c == 'E')
            })
            .unwrap_or(rest.len());
        rest[..end].parse().ok()
    }

    /// String field value (first occurrence).
    fn str_field(&self, key: &str) -> Option<&str> {
        let needle = format!("\"{key}\":\"");
        let start = self.line.find(&needle)? + needle.len();
        let rest = &self.line[start..];
        Some(&rest[..rest.find('"')?])
    }

    /// Boolean field value (booleans are bare `true`/`false` in JSON).
    fn bool_field(&self, key: &str) -> Option<bool> {
        let needle = format!("\"{key}\":");
        let rest = &self.line[self.line.find(&needle)? + needle.len()..];
        if rest.starts_with("true") {
            Some(true)
        } else if rest.starts_with("false") {
            Some(false)
        } else {
            None
        }
    }

    /// The raw text of a bracketed array field, e.g. `filtered`.
    fn array(&self, key: &str) -> Option<&str> {
        let needle = format!("\"{key}\":[");
        let start = self.line.find(&needle)? + needle.len() - 1;
        let rest = &self.line[start..];
        let mut depth = 0usize;
        for (i, c) in rest.char_indices() {
            match c {
                '[' => depth += 1,
                ']' => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(&rest[..=i]);
                    }
                }
                _ => {}
            }
        }
        None
    }
}

fn fmt_opt(v: Option<f64>, prec: usize) -> String {
    v.map_or_else(|| "-".into(), |v| format!("{v:.prec$}"))
}

const USAGE: &str = "usage: trace_explain [--overload] [--app N] [--at T_S] [--window HALF_S] \
                     [--scenario FILE] [--out DIR]";

/// The number `value` holds, or a usage error.
fn number<T: std::str::FromStr>(value: Option<&String>) -> T {
    value.and_then(|v| v.parse().ok()).unwrap_or_else(|| usage_exit(USAGE))
}

fn main() -> ExitCode {
    let args = BenchArgs::parse();
    if args.seed_count.is_some() {
        usage_exit(USAGE);
    }
    let mut overload = false;
    let (mut want_app, mut want_t, mut half_window) = (None::<u64>, None::<f64>, 120.0);
    let mut rest = args.rest.iter();
    while let Some(flag) = rest.next() {
        match flag.as_str() {
            "--overload" => overload = true,
            "--app" => want_app = Some(number(rest.next())),
            "--at" => want_t = Some(number(rest.next())),
            "--window" => half_window = number(rest.next()),
            _ => usage_exit(USAGE),
        }
    }

    // The spec carries the cluster shape and (optionally) the arbiter;
    // `from_spec` applies them all. The builtin overload run sits at
    // 1.5× its file's load, at the knee.
    let (spec, label) = match &args.scenario {
        Some(spec) => (spec.clone(), spec.name.replace(['/', ' '], "_")),
        None if overload => (args.spec("overload").scaled_loads(1.5), "overload".to_string()),
        None => (args.spec("headline"), "headline".to_string()),
    };
    let dump_path = args.out_dir.join(format!("trace_{label}.jsonl"));
    if let Some(parent) = dump_path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    let cfg = RunConfig::from_spec(&spec, ManagerKind::Evolve)
        .seed(BASE_SEED)
        .trace(TraceConfig::default().with_capacity(1 << 20).dump_to(&dump_path))
        .build();
    let arbitrated = if cfg.arbiter.is_some() { " (arbitrated)" } else { "" };
    eprintln!("running {label}{arbitrated} scenario (seed {BASE_SEED}) with decision tracing …");
    let outcome = ExperimentRunner::new(cfg).run();
    eprintln!(
        "trace ring: {} events retained, {} dropped; dump: {}",
        outcome.trace.len(),
        outcome.trace.dropped(),
        dump_path.display()
    );

    // Everything below works off the dump file, not the in-memory ring.
    let text = match std::fs::read_to_string(&dump_path) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("cannot read trace dump {}: {err}", dump_path.display());
            return ExitCode::FAILURE;
        }
    };
    let records: Vec<Record> = text.lines().map(|l| Record { line: l.to_string() }).collect();
    if records.is_empty() {
        eprintln!("trace dump is empty — tracing produced no events");
        return ExitCode::FAILURE;
    }
    let controls: Vec<&Record> = records.iter().filter(|r| r.kind() == "control").collect();
    let scheds: Vec<&Record> = records.iter().filter(|r| r.kind() == "sched").collect();
    let deferrals: Vec<&Record> = records.iter().filter(|r| r.kind() == "deferred").collect();
    let faults: Vec<&Record> = records.iter().filter(|r| r.kind() == "fault").collect();
    let arbitrations: Vec<&Record> = records.iter().filter(|r| r.kind() == "arbitration").collect();
    let spans = records.iter().filter(|r| r.kind() == "span").count();
    println!(
        "trace dump: {} control records, {} sched records, {} backoff deferrals, {} arbitrations, \
         {} faults, {} spans",
        controls.len(),
        scheds.len(),
        deferrals.len(),
        arbitrations.len(),
        faults.len(),
        spans
    );

    // Pick the focus: requested app/time, else the control record with
    // the worst positive control error (deepest PLO violation).
    let (app, center) = match (want_app, want_t) {
        (Some(a), Some(t)) => (a, t),
        _ => {
            let worst = controls
                .iter()
                .filter(|r| want_app.is_none_or(|a| r.num("app") == Some(a as f64)))
                .filter_map(|r| {
                    let err = r.num("error")?;
                    Some((r, err))
                })
                .max_by(|a, b| a.1.total_cmp(&b.1));
            match worst {
                Some((r, err)) => {
                    let app = r.num("app").unwrap_or(0.0) as u64;
                    let t = r.num("at_s").unwrap_or(0.0);
                    println!("focus: worst control error {err:.3} — app {app} at t={t:.0} s");
                    (app, t)
                }
                None => {
                    eprintln!("no control records carry an explain block");
                    return ExitCode::FAILURE;
                }
            }
        }
    };
    let (from, to) = (center - half_window, center + half_window);
    println!("\n=== decision timeline: app {app}, t ∈ [{from:.0}, {to:.0}] s ===\n");

    let in_window = |r: &Record| {
        r.num("at_s").is_some_and(|t| t >= from && t <= to) && r.num("app") == Some(app as f64)
    };
    let app_controls: Vec<&&Record> = controls.iter().filter(|r| in_window(r)).collect();
    if app_controls.is_empty() {
        eprintln!("no control records for app {app} in [{from:.0}, {to:.0}] s");
        return ExitCode::FAILURE;
    }

    println!(
        "{:>7} {:>6} {:>8} {:>9} {:>9} {:>5} {:>12} {:>8} {:>26} {:>22} {:>6} {:>4}",
        "t (s)",
        "tick",
        "signal",
        "measured",
        "rate",
        "reps",
        "outcome",
        "error",
        "pid cpu (p/i/d→out)",
        "forecast raw→infl",
        "dark",
        "wdog"
    );
    for r in &app_controls {
        // The pid array holds one {p,i,d,out} object per resource; the
        // first (CPU) is the headline term breakdown.
        let cpu_pid = r.array("pid").map(|a| {
            let obj = Record { line: a[..a.find('}').map_or(a.len(), |i| i + 1)].to_string() };
            (obj.num("p"), obj.num("i"), obj.num("d"), obj.num("out"))
        });
        let pid_txt = cpu_pid.map_or_else(
            || "-".into(),
            |(p, i, d, o)| {
                format!("{}/{}/{}→{}", fmt_opt(p, 2), fmt_opt(i, 2), fmt_opt(d, 2), fmt_opt(o, 2))
            },
        );
        let forecast_txt =
            format!("{}→{}", fmt_opt(r.num("raw_forecast"), 1), fmt_opt(r.num("forecast"), 1));
        println!(
            "{:>7.0} {:>6} {:>8} {:>9} {:>9} {:>5} {:>12} {:>8} {:>26} {:>22} {:>6} {:>4}",
            r.num("at_s").unwrap_or(0.0),
            r.num("tick").map_or_else(|| "-".into(), |t| format!("{t:.0}")),
            r.str_field("signal").unwrap_or("-"),
            fmt_opt(r.num("measured"), 1),
            fmt_opt(r.num("rate_rps"), 1),
            r.num("replicas").map_or_else(|| "-".into(), |v| format!("{v:.0}")),
            r.str_field("outcome").unwrap_or("-"),
            fmt_opt(r.num("error"), 3),
            pid_txt,
            forecast_txt,
            r.num("dark_ticks").map_or_else(|| "-".into(), |v| format!("{v:.0}")),
            r.bool_field("watchdog").map_or("-", |w| if w { "YES" } else { "no" }),
        );
    }

    // Injected faults whose active interval overlaps the window — the
    // first thing to check when the timeline above looks pathological.
    // Node and global faults are shown regardless of app; app-scoped
    // faults only when they hit the focused app.
    let active_faults: Vec<&&Record> = faults
        .iter()
        .filter(|r| {
            let at = r.num("at_s").unwrap_or(0.0);
            let until = at + r.num("duration_s").unwrap_or(0.0);
            at <= to && until >= from && r.num("app").is_none_or(|a| a == app as f64)
        })
        .collect();
    if !active_faults.is_empty() {
        println!("\ninjected faults overlapping the window:");
        for r in &active_faults {
            println!(
                "  t={:>6.0} {:<17} duration {:>6} s node {:>4} app {:>4}",
                r.num("at_s").unwrap_or(0.0),
                r.str_field("kind").unwrap_or("-"),
                fmt_opt(r.num("duration_s"), 0),
                r.num("node").map_or_else(|| "-".into(), |v| format!("{v:.0}")),
                r.num("app").map_or_else(|| "-".into(), |v| format!("{v:.0}")),
            );
        }
    }

    // Capacity-arbitration verdicts for the app in the window: what its
    // controller asked for, what the cluster granted, and why the grant
    // fell short. Only arbitrated runs (`--overload`) emit these.
    let app_arbs: Vec<&&Record> = arbitrations.iter().filter(|r| in_window(r)).collect();
    if !app_arbs.is_empty() {
        println!("\ncapacity arbitration for app {app} in the window:");
        println!(
            "  {:>7} {:>6} {:>12} {:>14} {:>9} {:>7} {:>7}  requested → granted [cpu mcore]",
            "t (s)", "tick", "class", "decision", "fraction", "starve", "crunch"
        );
        for r in &app_arbs {
            let cpu = |key: &str| {
                r.array(key)
                    .and_then(|a| {
                        a.trim_start_matches('[').split(',').next()?.trim().parse::<f64>().ok()
                    })
                    .map_or_else(|| "-".into(), |v| format!("{v:.0}"))
            };
            println!(
                "  {:>7.0} {:>6} {:>12} {:>14} {:>9} {:>7} {:>7}  {} → {}",
                r.num("at_s").unwrap_or(0.0),
                r.num("tick").map_or_else(|| "-".into(), |t| format!("{t:.0}")),
                r.str_field("class").unwrap_or("-"),
                r.str_field("decision").unwrap_or("-"),
                fmt_opt(r.num("grant_fraction"), 3),
                r.num("starvation_age").map_or_else(|| "-".into(), |v| format!("{v:.0}")),
                r.bool_field("in_crunch").map_or("-", |c| if c { "yes" } else { "no" }),
                cpu("requested"),
                cpu("granted"),
            );
        }
    }

    let app_scheds: Vec<&&Record> = scheds.iter().filter(|r| in_window(r)).collect();
    println!("\nscheduler placements for app {app} in the window: {}", app_scheds.len());
    for r in &app_scheds {
        println!(
            "  t={:>6.0} pod {:>5} {:<13} node {:<4} score {:<8} feasible {:<3} filtered {} victims {} backoff {}",
            r.num("at_s").unwrap_or(0.0),
            r.num("pod").map_or_else(|| "-".into(), |v| format!("{v:.0}")),
            r.str_field("outcome").unwrap_or("-"),
            r.num("node").map_or_else(|| "-".into(), |v| format!("{v:.0}")),
            fmt_opt(r.num("score"), 3),
            r.num("feasible").map_or_else(|| "-".into(), |v| format!("{v:.0}")),
            r.array("filtered").unwrap_or("[]"),
            r.array("victims").unwrap_or("[]"),
            r.num("backoff_failures").map_or_else(|| "-".into(), |v| format!("{v:.0}")),
        );
    }

    // Backoff deferrals are one record per cycle for every app's pods: the
    // standing backlog the placements above were scheduled around.
    let held: Vec<&&Record> =
        deferrals.iter().filter(|r| r.num("at_s").is_some_and(|t| t >= from && t <= to)).collect();
    if !held.is_empty() {
        println!("\nheld back by requeue backoff in the window (all apps): {} cycles", held.len());
        for r in &held {
            let pod = |key: &str| r.num(key).map_or_else(|| "-".into(), |v| format!("{v:.0}"));
            println!(
                "  t={:>6.0} cycle {:>5} deferred {:>5} pods, pod {} … pod {}",
                r.num("at_s").unwrap_or(0.0),
                pod("cycle"),
                pod("count"),
                pod("first_pod"),
                pod("last_pod"),
            );
        }
    }

    let arbitration_link =
        if overload { " → capacity arbitration (requested/granted)" } else { "" };
    println!(
        "\nchain: smoothed measurement → control error → PID terms → guard verdict \
         (signal/dark/watchdog){arbitration_link} → actuation outcome → scheduler placement. \
         Full records: {}",
        dump_path.display()
    );
    ExitCode::SUCCESS
}
