//! Shared helpers for the experiment binaries (one per paper table or
//! figure; see EXPERIMENTS.md for the index) and the Criterion benches.

use std::path::PathBuf;

use evolve_core::{ReplicatedOutcome, RunOutcome, Summary};
use evolve_types::SimTime;
use evolve_workload::ScenarioSpec;

/// The first seed every experiment binary replicates from.
pub const BASE_SEED: u64 = 42;

/// The one CLI/environment surface every experiment binary shares.
///
/// Replaces the former scattered helpers (`cli_seed_count`, `seed_list`,
/// `smoke_mode`, `output_dir`) with a single parser:
///
/// * a bare positive-integer argument or `--seeds N` sets the replication
///   count (falling back to `EVOLVE_SEEDS`, then the binary's default);
/// * `--scenario <file>` loads a declarative `scenarios/*.toml` spec
///   through [`ScenarioSpec::from_file`] — a bad file exits with status 2
///   and the typed error on stderr — which [`BenchArgs::spec`] then
///   returns in place of the binary's builtin;
/// * `--out <dir>` (or `EVOLVE_OUT`) overrides where CSV/HTML artifacts
///   land (default `experiments_out/` under the working directory);
/// * `EVOLVE_SMOKE` requests a shortened CI smoke run — the *value*
///   matters, not mere presence: `0`, `false`, `off`, `no` and the empty
///   string disable it;
/// * anything unrecognized is passed through in [`BenchArgs::rest`] for
///   binary-specific flags (`--replay`, series names, …).
#[derive(Debug)]
pub struct BenchArgs {
    /// Seeds to replicate over: `count` consecutive seeds from
    /// [`BASE_SEED`].
    pub seeds: Vec<u64>,
    /// Shortened CI smoke run requested via `EVOLVE_SMOKE`.
    pub smoke: bool,
    /// Declarative scenario loaded from `--scenario <file>`, if given.
    pub scenario: Option<ScenarioSpec>,
    /// The path `--scenario` was loaded from (for labels/logs).
    pub scenario_path: Option<PathBuf>,
    /// Where experiment artifacts land.
    pub out_dir: PathBuf,
    /// Unrecognized arguments, in order.
    pub rest: Vec<String>,
    /// The replication count given explicitly (CLI or `EVOLVE_SEEDS`),
    /// before the binary's default applied. Binaries that reuse the
    /// positional count for something else (fuzz budget, iterations)
    /// read this.
    pub explicit_count: Option<usize>,
}

impl BenchArgs {
    /// Parses the process arguments and environment.
    ///
    /// Exits with status 2 (usage error) on a malformed flag or an
    /// invalid `--scenario` file.
    #[must_use]
    pub fn parse(default_seeds: usize) -> BenchArgs {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match BenchArgs::try_parse(&argv, default_seeds) {
            Ok(args) => args,
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// The fallible core of [`BenchArgs::parse`], separated for tests.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when a flag is malformed or the
    /// `--scenario` file fails to load/validate.
    pub fn try_parse(argv: &[String], default_seeds: usize) -> Result<BenchArgs, String> {
        let parse_count = |s: &str| {
            s.trim()
                .parse::<usize>()
                .ok()
                .filter(|n| *n > 0)
                .ok_or_else(|| format!("`{s}` is not a positive integer"))
        };
        let mut explicit_count = None;
        let mut scenario_path: Option<PathBuf> = None;
        let mut out_flag: Option<PathBuf> = None;
        let mut rest = Vec::new();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) if f.starts_with("--") => (f, Some(v.to_string())),
                _ => (arg.as_str(), None),
            };
            let mut value = |name: &str| -> Result<String, String> {
                match inline.clone() {
                    Some(v) => Ok(v),
                    None => it.next().cloned().ok_or_else(|| format!("{name} requires a value")),
                }
            };
            match flag {
                "--seeds" => explicit_count = Some(parse_count(&value("--seeds")?)?),
                "--scenario" => scenario_path = Some(PathBuf::from(value("--scenario")?)),
                "--out" => out_flag = Some(PathBuf::from(value("--out")?)),
                _ => {
                    // Back-compat: a bare positive integer is the
                    // replication count (first one wins).
                    if explicit_count.is_none() && !arg.starts_with('-') {
                        if let Ok(n) = parse_count(arg) {
                            explicit_count = Some(n);
                            continue;
                        }
                    }
                    rest.push(arg.clone());
                }
            }
        }
        let env_count = std::env::var("EVOLVE_SEEDS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok().filter(|n| *n > 0));
        let explicit_count = explicit_count.or(env_count);
        let count = explicit_count.unwrap_or(default_seeds);
        let scenario = match &scenario_path {
            Some(path) => Some(ScenarioSpec::from_file(path).map_err(|err| err.to_string())?),
            None => None,
        };
        let out_dir = out_flag
            .or_else(|| {
                std::env::var("EVOLVE_OUT").ok().filter(|v| !v.trim().is_empty()).map(PathBuf::from)
            })
            .unwrap_or_else(|| {
                // When invoked via `cargo run -p evolve-bench`, cwd is the
                // workspace root already; fall back gracefully otherwise.
                let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
                dir.push("experiments_out");
                dir
            });
        Ok(BenchArgs {
            seeds: (0..count as u64).map(|i| BASE_SEED + i).collect(),
            smoke: smoke_env(),
            scenario,
            scenario_path,
            out_dir,
            rest,
            explicit_count,
        })
    }

    /// Number of seeds to replicate over.
    #[must_use]
    pub fn seed_count(&self) -> usize {
        self.seeds.len()
    }

    /// The run's scenario: the `--scenario` file if one was given,
    /// otherwise the builtin `default` (see [`evolve_workload::BUILTINS`]).
    ///
    /// # Panics
    ///
    /// Panics when `default` names no builtin.
    #[must_use]
    pub fn spec(&self, default: &str) -> ScenarioSpec {
        match &self.scenario {
            Some(spec) => spec.clone(),
            None => ScenarioSpec::builtin(default).unwrap_or_else(|err| panic!("{err}")),
        }
    }
}

/// `EVOLVE_SMOKE` semantics shared by [`BenchArgs`] and the Criterion
/// benches: the value matters, not mere presence.
fn smoke_env() -> bool {
    match std::env::var("EVOLVE_SMOKE") {
        Ok(v) => {
            let v = v.trim().to_ascii_lowercase();
            !(v.is_empty() || v == "0" || v == "false" || v == "off" || v == "no")
        }
        Err(_) => false,
    }
}

/// Settling analysis of a latency series after a disturbance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Settling {
    /// Seconds from the disturbance until the signal stayed below the
    /// target for `hold` consecutive samples; `None` when it never
    /// settled.
    pub settle_secs: Option<f64>,
    /// Worst excursion above the target after the disturbance (relative,
    /// e.g. 1.5 = 150% above target).
    pub overshoot: f64,
    /// Number of samples inspected.
    pub samples: usize,
}

/// Computes settling time and overshoot of `(seconds, value)` samples
/// after `disturbance_at`, against an upper-bound `target`.
///
/// # Panics
///
/// Panics when `hold` is zero.
#[must_use]
pub fn settling_analysis(
    points: &[(f64, f64)],
    disturbance_at: SimTime,
    target: f64,
    hold: usize,
) -> Settling {
    assert!(hold > 0, "hold must be positive");
    let t0 = disturbance_at.as_secs_f64();
    let after: Vec<(f64, f64)> = points.iter().copied().filter(|(t, _)| *t >= t0).collect();
    let mut overshoot: f64 = 0.0;
    let mut settle_secs = None;
    let mut streak = 0usize;
    for (t, v) in &after {
        overshoot = overshoot.max((v - target) / target);
        if *v <= target {
            streak += 1;
            if streak >= hold && settle_secs.is_none() {
                settle_secs = Some(t - t0);
            }
        } else {
            streak = 0;
            // A later excursion above target invalidates an earlier
            // "settled" verdict only if we had not yet held long enough;
            // classical settling time keeps the first sustained entry.
        }
    }
    Settling { settle_secs, overshoot: overshoot.max(0.0), samples: after.len() }
}

/// One row of the headline comparison, extracted from a run.
#[must_use]
pub fn headline_row(outcome: &RunOutcome) -> Vec<String> {
    let (hits, total) = outcome.deadline_hits();
    vec![
        outcome.manager.clone(),
        outcome.total_windows().to_string(),
        outcome.total_violations().to_string(),
        format!("{:.3}", outcome.total_violation_rate()),
        format!("{:.3}", outcome.utilization.mean_allocated()),
        format!("{:.3}", outcome.utilization.mean_used()),
        format!("{hits}/{total}"),
        outcome.preemptions.to_string(),
    ]
}

/// The headline table's column names (matches [`headline_row`] and
/// [`headline_summary_row`]).
#[must_use]
pub fn headline_headers() -> Vec<String> {
    [
        "policy",
        "windows",
        "violations",
        "viol rate",
        "alloc share",
        "used share",
        "deadlines",
        "preempt",
    ]
    .map(String::from)
    .to_vec()
}

/// One row of the headline comparison aggregated across seeds
/// (mean ± 95 % CI where the spread is meaningful).
#[must_use]
pub fn headline_summary_row(rep: &ReplicatedOutcome) -> Vec<String> {
    vec![
        rep.manager().to_string(),
        format!("{:.0}", rep.summarize(|r| r.total_windows() as f64).mean),
        rep.summarize(|r| r.total_violations() as f64).display(1),
        rep.violation_rate().display(3),
        rep.alloc_share().display(3),
        rep.used_share().display(3),
        rep.deadline_hit_rate().display(2),
        rep.preemptions().display(1),
    ]
}

/// Settling statistics across replicated runs.
#[derive(Debug, Clone)]
pub struct ReplicatedSettling {
    /// Settle-time summary over the runs that settled (`None` when none
    /// did).
    pub settle: Option<Summary>,
    /// How many runs settled.
    pub settled_runs: usize,
    /// Total runs analysed.
    pub runs: usize,
    /// Overshoot summary over all runs.
    pub overshoot: Summary,
}

impl ReplicatedSettling {
    /// Settle time as `mean ± ci (settled/total)`, or `never (0/n)`.
    #[must_use]
    pub fn settle_display(&self) -> String {
        match &self.settle {
            Some(s) => format!("{} ({}/{})", s.display(0), self.settled_runs, self.runs),
            None => format!("never (0/{})", self.runs),
        }
    }

    /// Mean settle seconds for CSV export (−1 when no run settled).
    #[must_use]
    pub fn settle_mean_or_neg(&self) -> f64 {
        self.settle.as_ref().map_or(-1.0, |s| s.mean)
    }
}

/// Runs [`settling_analysis`] on the named series of every replicated
/// run and aggregates: settle time over the runs that settled, overshoot
/// over all runs.
#[must_use]
pub fn replicated_settling(
    rep: &ReplicatedOutcome,
    series: &str,
    disturbance_at: SimTime,
    target: f64,
    hold: usize,
) -> ReplicatedSettling {
    let per_run: Vec<Settling> = rep
        .runs
        .iter()
        .map(|r| {
            let points = r.registry.series(series).map(|s| s.to_points()).unwrap_or_default();
            settling_analysis(&points, disturbance_at, target, hold)
        })
        .collect();
    let settled: Vec<f64> = per_run.iter().filter_map(|s| s.settle_secs).collect();
    let overshoots: Vec<f64> = per_run.iter().map(|s| s.overshoot).collect();
    ReplicatedSettling {
        settle: if settled.is_empty() { None } else { Some(Summary::from_samples(&settled)) },
        settled_runs: settled.len(),
        runs: per_run.len(),
        overshoot: Summary::from_samples(&overshoots),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settling_detects_recovery() {
        let pts = vec![
            (0.0, 50.0),
            (10.0, 300.0), // disturbance at t=10
            (20.0, 250.0),
            (30.0, 120.0),
            (40.0, 90.0),
            (50.0, 80.0),
            (60.0, 85.0),
        ];
        let s = settling_analysis(&pts, SimTime::from_secs(10), 100.0, 2);
        assert_eq!(s.settle_secs, Some(40.0));
        assert!((s.overshoot - 2.0).abs() < 1e-9);
        assert_eq!(s.samples, 6);
    }

    #[test]
    fn settling_none_when_never_recovers() {
        let pts = vec![(0.0, 200.0), (10.0, 220.0), (20.0, 210.0)];
        let s = settling_analysis(&pts, SimTime::ZERO, 100.0, 3);
        assert_eq!(s.settle_secs, None);
        assert!(s.overshoot > 1.0);
    }

    #[test]
    fn settling_requires_hold() {
        // One good sample between violations must not count as settled.
        let pts =
            vec![(0.0, 150.0), (1.0, 90.0), (2.0, 150.0), (3.0, 90.0), (4.0, 80.0), (5.0, 70.0)];
        let s = settling_analysis(&pts, SimTime::ZERO, 100.0, 3);
        assert_eq!(s.settle_secs, Some(5.0));
    }

    #[test]
    fn headers_match_row_width() {
        assert_eq!(headline_headers().len(), 8);
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_string()).collect()
    }

    #[test]
    fn bench_args_default_and_positional_count() {
        let a = BenchArgs::try_parse(&argv(&[]), 5).unwrap();
        assert_eq!(a.seeds, vec![42, 43, 44, 45, 46]);
        assert_eq!(a.explicit_count, None);
        let b = BenchArgs::try_parse(&argv(&["3"]), 5).unwrap();
        assert_eq!(b.seeds, vec![42, 43, 44]);
        assert_eq!(b.explicit_count, Some(3));
    }

    #[test]
    fn bench_args_flags_and_rest_passthrough() {
        let a = BenchArgs::try_parse(
            &argv(&["--seeds", "2", "--out", "/tmp/x", "--replay", "f.json"]),
            5,
        )
        .unwrap();
        assert_eq!(a.seed_count(), 2);
        assert_eq!(a.out_dir, std::path::Path::new("/tmp/x"));
        assert_eq!(a.rest, vec!["--replay", "f.json"]);
        let b = BenchArgs::try_parse(&argv(&["--seeds=4"]), 5).unwrap();
        assert_eq!(b.seed_count(), 4);
    }

    #[test]
    fn bench_args_rejects_bad_values() {
        assert!(BenchArgs::try_parse(&argv(&["--seeds", "zero"]), 5).is_err());
        assert!(BenchArgs::try_parse(&argv(&["--seeds"]), 5).is_err());
        assert!(BenchArgs::try_parse(&argv(&["--scenario", "/no/such/file.toml"]), 5).is_err());
    }

    #[test]
    fn bench_args_loads_scenario_file() {
        // A chaos reproducer is a scenario file: `--scenario` takes it,
        // `[[fault]]` list, `[repro]` table and all.
        let mut written = ScenarioSpec::builtin("overload").unwrap();
        written.faults = vec![evolve_workload::FaultEvent {
            at: SimTime::from_secs(67),
            kind: evolve_workload::FaultKind::NodeFlap {
                node: evolve_types::NodeId::new(3),
                cycles: 2,
                period: evolve_types::SimDuration::from_secs(9),
            },
        }];
        written.repro =
            Some(evolve_workload::ReproSpec { seed: 95, violation: "gang_atomicity".to_string() });
        let dir = std::env::temp_dir().join("evolve_bench_args_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("s.toml");
        std::fs::write(&path, written.to_toml()).unwrap();
        let a = BenchArgs::try_parse(&argv(&["--scenario", path.to_str().unwrap()]), 5).unwrap();
        let spec = a.spec("headline");
        assert_eq!(spec, written);
        assert_eq!(spec.name, "overload-1.00");
        assert_eq!(spec.cluster.nodes, 4);
        assert_eq!(a.scenario_path.as_deref(), Some(path.as_path()));
    }

    #[test]
    fn bench_args_spec_falls_back_to_the_builtin() {
        let a = BenchArgs::try_parse(&argv(&[]), 5).unwrap();
        assert_eq!(a.spec("flash_crowd"), ScenarioSpec::builtin("flash_crowd").unwrap());
    }
}
