//! The paper's tables and figures as plain functions (one per
//! `experiments` entry; see EXPERIMENTS.md for the index), plus the
//! helpers they, the bespoke binaries and the Criterion bench share.

use std::path::PathBuf;

use evolve_core::{ReplicatedOutcome, RunOutcome, Summary, Table};
use evolve_types::SimTime;
use evolve_workload::ScenarioSpec;

pub mod figures;
pub mod suite;
pub mod tables;

/// The first seed every experiment replicates from.
pub const BASE_SEED: u64 = 42;

/// The one command-line surface the `experiments` driver and the
/// bespoke binaries share:
///
/// * `--seeds N` sets the replication count (else the caller's default);
/// * `--scenario <file>` loads a declarative `scenarios/*.toml` spec
///   through [`ScenarioSpec::from_file`], which [`BenchArgs::spec`] then
///   returns in place of the builtin;
/// * `--out <dir>` sets where artifacts land (default `experiments_out`
///   under the working directory);
/// * every other argument is kept, in order, in [`BenchArgs::rest`]: the
///   caller reads what it knows and rejects the remainder.
#[derive(Debug)]
pub struct BenchArgs {
    /// The replication count `--seeds` gave, if any.
    pub seed_count: Option<usize>,
    /// Declarative scenario loaded from `--scenario <file>`, if given.
    pub scenario: Option<ScenarioSpec>,
    /// Where experiment artifacts land.
    pub out_dir: PathBuf,
    /// Unrecognized arguments, in order.
    pub rest: Vec<String>,
}

impl BenchArgs {
    /// Parses the process arguments.
    ///
    /// Exits with status 2 (usage error) on a malformed flag or an
    /// invalid `--scenario` file.
    #[must_use]
    pub fn parse() -> BenchArgs {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        BenchArgs::try_parse(&argv).unwrap_or_else(|msg| usage_exit(&msg))
    }

    /// The fallible core of [`BenchArgs::parse`], separated for tests.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when a flag is malformed or the
    /// `--scenario` file fails to load/validate.
    pub fn try_parse(argv: &[String]) -> Result<BenchArgs, String> {
        let mut args = BenchArgs {
            seed_count: None,
            scenario: None,
            out_dir: PathBuf::from("experiments_out"),
            rest: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) if f.starts_with("--") => (f, Some(v.to_string())),
                _ => (arg.as_str(), None),
            };
            let mut value = || -> Result<String, String> {
                inline
                    .clone()
                    .or_else(|| it.next().cloned())
                    .ok_or_else(|| format!("{flag} requires a value"))
            };
            match flag {
                "--seeds" => {
                    let v = value()?;
                    let n = v.trim().parse::<usize>().ok().filter(|n| *n > 0);
                    args.seed_count =
                        Some(n.ok_or_else(|| format!("`{v}` is not a positive integer"))?);
                }
                "--scenario" => {
                    let spec = ScenarioSpec::from_file(value()?).map_err(|err| err.to_string())?;
                    args.scenario = Some(spec);
                }
                "--out" => args.out_dir = PathBuf::from(value()?),
                _ => args.rest.push(arg.clone()),
            }
        }
        Ok(args)
    }

    /// The seeds to replicate over: `--seeds` (else `default`)
    /// consecutive seeds from [`BASE_SEED`].
    #[must_use]
    pub fn seeds(&self, default: usize) -> Vec<u64> {
        (0..self.seed_count.unwrap_or(default) as u64).map(|i| BASE_SEED + i).collect()
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

/// Prints `msg` as a usage error and exits with status 2.
pub fn usage_exit(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// What the `experiments` driver hands one entry.
#[derive(Debug)]
pub struct Ctx {
    /// Seeds to replicate over, from [`BASE_SEED`]; empty for an entry
    /// that takes none.
    pub seeds: Vec<u64>,
    /// The entry's scenario: the `--scenario` file, else its builtin;
    /// `None` for an entry that has none.
    pub scenario: Option<ScenarioSpec>,
    /// Whether `scenario` came from `--scenario`.
    pub from_file: bool,
}

impl Ctx {
    /// The entry's scenario.
    ///
    /// # Panics
    ///
    /// Panics for an entry that declares no scenario.
    #[must_use]
    pub fn spec(&self) -> &ScenarioSpec {
        self.scenario.as_ref().expect("the entry declares a scenario")
    }
}

/// What one entry produces. The `experiments` driver prints `text`,
/// writes `files` and sets the exit status from `failure`.
#[derive(Debug, Default)]
pub struct Report {
    /// The entry's stdout.
    pub text: String,
    /// Artifacts to write into the output directory: (file name, bytes).
    pub files: Vec<(String, String)>,
    /// Why the entry failed (printed to stderr); `None` when it passed.
    pub failure: Option<String>,
}

impl Report {
    /// Queues `content` to be written as `name` in the output directory.
    pub(crate) fn file(&mut self, name: &str, content: String) {
        self.files.push((name.to_string(), content));
    }
}

/// A table whose columns are the comma-separated names of `csv_header`.
#[must_use]
pub(crate) fn table(csv_header: &str) -> Table {
    Table::new(csv_header.split(',').map(String::from).collect())
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
        let a = BenchArgs::try_parse(&argv(&[])).unwrap();
        assert_eq!(a.seeds(5), vec![42, 43, 44, 45, 46]);
        assert_eq!(a.seed_count, None);
        assert_eq!(a.out_dir, std::path::Path::new("experiments_out"));
        // A bare count is no seed count: it is left for the caller to reject.
        let b = BenchArgs::try_parse(&argv(&["3"])).unwrap();
        assert_eq!(b.seeds(5), vec![42, 43, 44, 45, 46]);
        assert_eq!(b.rest, vec!["3"]);
    }

    #[test]
    fn bench_args_flags_and_rest_passthrough() {
        let a =
            BenchArgs::try_parse(&argv(&["--seeds", "2", "--out", "/tmp/x", "--replay", "f.json"]))
                .unwrap();
        assert_eq!(a.seeds(5), vec![42, 43]);
        assert_eq!(a.out_dir, std::path::Path::new("/tmp/x"));
        assert_eq!(a.rest, vec!["--replay", "f.json"]);
        let b = BenchArgs::try_parse(&argv(&["--seeds=4"])).unwrap();
        assert_eq!(b.seed_count, Some(4));
    }

    #[test]
    fn bench_args_rejects_bad_values() {
        assert!(BenchArgs::try_parse(&argv(&["--seeds", "zero"])).is_err());
        assert!(BenchArgs::try_parse(&argv(&["--seeds", "0"])).is_err());
        assert!(BenchArgs::try_parse(&argv(&["--seeds"])).is_err());
        assert!(BenchArgs::try_parse(&argv(&["--scenario", "/no/such/file.toml"])).is_err());
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
        let a = BenchArgs::try_parse(&argv(&["--scenario", path.to_str().unwrap()])).unwrap();
        let spec = a.spec("headline");
        assert_eq!(spec, written);
        assert_eq!(spec.name, "overload-1.00");
        assert_eq!(spec.cluster.nodes, 4);
    }

    #[test]
    fn bench_args_spec_falls_back_to_the_builtin() {
        let a = BenchArgs::try_parse(&argv(&[])).unwrap();
        assert_eq!(a.spec("flash_crowd"), ScenarioSpec::builtin("flash_crowd").unwrap());
    }
}
