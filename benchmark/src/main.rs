//! The repo's benchmark. One process, one thread, reps back to back: a
//! closed loop with a single client. See `README.md` for the metric and
//! workload definitions and `BENCHMARK.json` for the contract.
//!
//! ```text
//! evolve-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! evolve-benchmark --selfcheck [--seed N] [--seconds S]
//! evolve-benchmark --manifest | --calibrate
//! ```

mod calib;
mod catalog;
mod host;
mod micro;
mod rep;
mod spans;
mod stats;
mod traced;

use calib::CAL_REF;
use catalog::{Better, Workload, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use evolve::prelude::*;
use rep::{fnv1a, pool, timed_rep, RepStats};
use stats::quantile;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str = "usage: evolve-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
       evolve-benchmark --selfcheck [--seed N] [--seconds S]
       evolve-benchmark --manifest | --calibrate";

/// Where a run leaves its numbers, spans and provenance; relative to the
/// repo root, which `run.sh` makes the working directory.
const OUT_DIR: &str = "benchmark/out";

/// Set-up is measured this many times per run (once in this process,
/// the rest in fresh child processes) and the median reported.
const SETUP_SAMPLES: usize = 5;

/// The traced command keeps replaying until it holds this many control
/// ticks, so the p99 of a per-tick span has more than ten samples
/// beyond it.
const MIN_TRACED_TICKS: u64 = 1_200;

/// The traced command replays at most this many of the workload's seeds:
/// its shares and percentiles need ticks, not seeds, and every seed costs
/// it two reps per pass.
const TRACED_SEEDS: usize = 3;

/// Passes of the traced command in which every traced rep is paired with
/// an untraced one (for the digest comparison and the overhead figure).
const COMPANION_PASSES: usize = 3;

#[derive(Debug, PartialEq)]
enum Mode {
    Run,
    SetupProbe,
    Selfcheck,
    Manifest,
    Calibrate,
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        mode: Mode::Run,
        workload: None,
        seed: 42,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
    };
    let mut argv = argv.skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a whole number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                args.seconds = value("a number of seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds needs a number in (0, 600]".to_string())?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                };
            }
            "--setup-probe" => args.mode = Mode::SetupProbe,
            "--selfcheck" => args.mode = Mode::Selfcheck,
            "--manifest" => args.mode = Mode::Manifest,
            "--calibrate" => args.mode = Mode::Calibrate,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn named_workload(args: &Args) -> Result<&'static Workload, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    catalog::workload(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (known: {})", known.join(", "))
    })
}

/// What set-up leaves behind for the measuring phase.
struct Prepared {
    workload: &'static Workload,
    text: String,
    spec: ScenarioSpec,
    /// Statistics of the first, cold rep (seed `S`).
    first: RepStats,
}

/// One measurement of set-up: process start → first rep finished, net of
/// the time spent inside the calibration kernel, with the kernel's wall
/// time on either side of it.
#[derive(Debug, Clone, Copy)]
struct SetupSample {
    raw_s: f64,
    calib_s: f64,
}

impl SetupSample {
    /// Set-up seconds of the reference machine.
    fn scaled(self) -> f64 {
        stats::scaled_wall(self.raw_s, self.calib_s, self.calib_s, CAL_REF)
    }
}

/// Everything a user pays before the first result: build the scenario
/// text, parse it, build the workload mix, and run the first rep of the
/// process (which also pays for whatever the simulator initialises
/// lazily).
fn set_up(
    workload: &'static Workload,
    seed: u64,
    started: Instant,
) -> Result<(Prepared, SetupSample), String> {
    let before = calib::sample();
    let text = (workload.spec)().to_toml();
    let spec = ScenarioSpec::from_toml_str(&text)
        .map_err(|err| format!("{}: scenario text does not parse back: {err}", workload.name))?;
    let (first, _) = timed_rep(workload.config(&spec, seed));
    let raw_s = started.elapsed().as_secs_f64() - before;
    let after = calib::sample();
    let sample = SetupSample { raw_s, calib_s: (before + after) / 2.0 };
    Ok((Prepared { workload, text, spec, first }, sample))
}

/// Measures set-up once more in a fresh process, so lazily initialised
/// state is paid for again.
fn probe_setup(workload: &Workload, seed: u64) -> Result<SetupSample, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--setup-probe", "--workload", workload.name, "--seed", &seed.to_string()])
        .output()
        .map_err(|e| format!("cannot start set-up probe: {e}"))?;
    if !output.status.success() {
        return Err(format!("set-up probe failed: {}", String::from_utf8_lossy(&output.stderr)));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let mut fields = text.split_whitespace().map(str::parse::<f64>);
    match (fields.next(), fields.next()) {
        (Some(Ok(raw_s)), Some(Ok(calib_s))) => Ok(SetupSample { raw_s, calib_s }),
        _ => Err(format!("set-up probe printed `{}`", text.trim())),
    }
}

/// The result of a run as the contract's last line wants it.
struct Report {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Checks the metrics against the names the contract lists for this
    /// kind of run and that every value is finite.
    fn check(&mut self, expected: &[&'static str]) {
        for name in expected {
            match self.metrics.iter().find(|(n, _)| n == name) {
                None => self.problems.push(format!("metric {name} was not measured")),
                Some((_, v)) if !v.is_finite() => {
                    self.problems.push(format!("metric {name} is not finite ({v})"));
                }
                Some(_) => {}
            }
        }
        for (name, _) in &self.metrics {
            if !expected.contains(name) {
                self.problems.push(format!("metric {name} is not in BENCHMARK.json"));
            }
        }
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Accounts for one finished rep: the first rep of a seed becomes its
    /// reference, every later one must reproduce it.
    fn rep(&mut self, reference: &mut Option<RepStats>, stats: RepStats, which: &str) {
        self.attempted += 1;
        match reference {
            None => *reference = Some(stats),
            Some(want) => {
                if let Some(what) = mismatch(want, &stats) {
                    self.failed += 1;
                    self.problems.push(format!("{which}: {what}"));
                }
            }
        }
    }

    /// The one-line JSON object the driver reads.
    fn line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = catalog::unit_of(name).unwrap_or("?");
                // A non-finite value is already a recorded problem; print
                // null so the line stays valid JSON.
                let value = if value.is_finite() { format!("{value}") } else { "null".into() };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints every metric by name with its unit, then the problems, then
    /// the result line, and turns the verdict into the exit code.
    fn finish(&self, out_file: &Path) -> ExitCode {
        for (name, value) in &self.metrics {
            println!("{name:<40} {value:>16.6} {}", catalog::unit_of(name).unwrap_or("?"));
        }
        for problem in &self.problems {
            eprintln!("FAILED: {problem}");
        }
        let line = self.line();
        if let Err(err) = std::fs::write(out_file, format!("{line}\n")) {
            eprintln!("warning: cannot write {}: {err}", out_file.display());
        }
        println!("{line}");
        if self.correct() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes the run's provenance beside its numbers: the exact scenario
/// text, the seed list, how many passes were timed, the calibration
/// reference and the revision `run.sh` found.
fn write_meta(prep: &Prepared, seeds: &[u64], passes: usize, traced: bool, digest: u64) {
    let seed_list: Vec<String> = seeds.iter().map(u64::to_string).collect();
    let revision = std::env::var("EVOLVE_BENCH_GIT_REV").unwrap_or_else(|_| "unknown".into());
    let meta = format!(
        "{{\n  \"workload\": \"{}\",\n  \"traced\": {traced},\n  \"seeds\": [{}],\n  \"passes\": {passes},\n  \"cal_ref_s\": {CAL_REF},\n  \"outcome_digest\": \"{digest:016x}\",\n  \"git_revision\": {},\n  \"scenario_toml\": {}\n}}\n",
        prep.workload.name,
        seed_list.join(", "),
        json_string(&revision),
        json_string(&prep.text),
    );
    let path = out_path(prep.workload, if traced { "traced.meta.json" } else { "meta.json" });
    if let Err(err) = std::fs::write(&path, meta) {
        eprintln!("warning: cannot write {}: {err}", path.display());
    }
}

fn out_path(workload: &Workload, suffix: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!("{}.{suffix}", workload.name))
}

fn seed_list(workload: &Workload, base: u64) -> Vec<u64> {
    (0..workload.seeds).map(|k| base.wrapping_add(k)).collect()
}

/// Compares a rep against the seed's reference; returns what differs.
fn mismatch(reference: &RepStats, got: &RepStats) -> Option<String> {
    if got.digest() != reference.digest() {
        return Some(format!(
            "outcome_digest {:016x} != reference {:016x}",
            got.digest(),
            reference.digest()
        ));
    }
    let exact = [
        ("sim.events", reference.events, got.events),
        ("scheduler.bindings", reference.bindings, got.bindings),
        ("feasibility work", reference.feasibility_work, got.feasibility_work),
    ];
    exact
        .iter()
        .find(|(_, want, got)| want != got)
        .map(|(name, want, got)| format!("{name} {got} != reference {want}"))
}

/// Share of calibration samples taken in the host's slow state: more
/// than 12 % above the fastest sample of the run.
fn slow_state_share(kernel: &[f64]) -> f64 {
    let floor = kernel.iter().copied().fold(f64::INFINITY, f64::min);
    kernel.iter().filter(|c| **c > 1.12 * floor).count() as f64 / kernel.len() as f64
}

fn digest_of(per_seed: &[RepStats]) -> u64 {
    fnv1a(per_seed.iter().map(RepStats::digest))
}

/// The untraced command: every end-to-end metric of one workload.
fn run_untraced(args: &Args, started: Instant) -> Result<ExitCode, String> {
    let workload = named_workload(args)?;
    let (prep, own_setup) = set_up(workload, args.seed, started)?;
    let mut setups = vec![own_setup.scaled()];
    for _ in 1..SETUP_SAMPLES {
        setups.push(probe_setup(workload, args.seed)?.scaled());
    }

    // Seed S already ran as the cold rep of set-up; every other seed's
    // first timed rep becomes its reference. Later reps must reproduce it.
    let seeds = seed_list(workload, args.seed);
    let mut reference: Vec<Option<RepStats>> = vec![None; seeds.len()];
    reference[0] = Some(prep.first.clone());
    let mut report = Report { attempted: 1, failed: 0, problems: Vec::new(), metrics: Vec::new() };

    // Timed passes, pass-major so each seed's samples spread over the
    // whole run, one kernel sample on either side of every rep. The first
    // pass always completes; after it the run stops at `--seconds`, even
    // mid-pass.
    let mut scaled_walls: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let mut raw_walls: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let mut kernel = vec![calib::sample()];
    let timing = Instant::now();
    let mut passes = 0;
    'timing: loop {
        for (k, seed) in seeds.iter().enumerate() {
            if passes > 0 && timing.elapsed().as_secs_f64() >= args.seconds {
                break 'timing;
            }
            let (stats, wall) = timed_rep(workload.config(&prep.spec, *seed));
            let before = kernel[kernel.len() - 1];
            let after = calib::sample();
            kernel.push(after);
            raw_walls[k].push(wall);
            scaled_walls[k].push(stats::scaled_wall(wall, before, after, CAL_REF));
            report.rep(&mut reference[k], stats, &format!("seed {seed} pass {passes}"));
        }
        passes += 1;
    }
    let reference: Vec<RepStats> = reference.into_iter().flatten().collect();

    let horizon = prep.spec.horizon.as_secs_f64();
    let rate = stats::sim_s_per_wall_s(horizon, &stats::fast_wall_by_seed(&scaled_walls));
    let slow_share = slow_state_share(&kernel);
    if slow_share > 0.8 {
        // Not a correctness failure: the numbers are what was measured,
        // but the fast state the estimator looks for was hardly seen.
        eprintln!(
            "warning: sim_s_per_wall_s unresolved: {:.0} % of the run was in the host's slow state",
            slow_share * 100.0
        );
    }
    let pooled = pool(&reference);
    report.metrics = vec![
        ("sim_s_per_wall_s", rate),
        ("peak_rss_mib", host::peak_rss_mib().unwrap_or(f64::NAN)),
        ("setup_s", quantile(&setups, 0.5)),
        ("plo_compliance_rate", pooled.plo_compliance_rate),
        ("request_success_share", pooled.request_success_share),
        ("alloc_efficiency", pooled.alloc_efficiency),
    ];
    let expected: Vec<&'static str> = END_TO_END.iter().map(|m| m.name).collect();
    report.check(&expected);

    let digest = digest_of(&reference);
    let all_raw: Vec<f64> = raw_walls.iter().flatten().copied().collect();
    let raw_median: f64 = raw_walls.iter().map(|w| quantile(w, 0.5)).sum();
    println!("workload {} seeds {seeds:?} passes {passes}", workload.name);
    println!("outcome_digest {digest:016x}");
    println!("host.slow_state_share {slow_share:.3}");
    println!("host.calib_ms_p25 {:.3}", quantile(&kernel, 0.25) * 1e3);
    println!("host.raw_sim_s_per_wall_s_p50 {:.1}", horizon * seeds.len() as f64 / raw_median);
    println!(
        "host.rep_wall_ms p50 {:.1} p90 {:.1} over {} reps",
        quantile(&all_raw, 0.5) * 1e3,
        quantile(&all_raw, 0.9) * 1e3,
        all_raw.len()
    );
    write_meta(&prep, &seeds, passes, false, digest);
    Ok(report.finish(&out_path(workload, "result.json")))
}

/// Sum over the spans named `name` of `f(span index)`.
fn sum_where(spans: &[spans::Span], name: &str, f: impl Fn(usize) -> u64) -> f64 {
    spans.iter().enumerate().filter(|(_, s)| s.name == name).map(|(i, _)| f(i)).sum::<u64>() as f64
}

fn durations_us(spans: &[spans::Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e3).collect()
}

/// The traced command: every per-layer metric of one workload.
fn run_traced(args: &Args, started: Instant) -> Result<ExitCode, String> {
    let workload = named_workload(args)?;
    let (prep, _) = set_up(workload, args.seed, started)?;
    let mut seeds = seed_list(workload, args.seed);
    seeds.truncate(TRACED_SEEDS);
    let mut report = Report { attempted: 1, failed: 0, problems: Vec::new(), metrics: Vec::new() };

    let mut rec = spans::Recorder::new();
    let mut reference: Vec<Option<RepStats>> = vec![None; seeds.len()];
    reference[0] = Some(prep.first.clone());
    let mut untraced_walls: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let mut traced_walls: Vec<Vec<f64>> = vec![Vec::new(); seeds.len()];
    let mut kernel = vec![calib::sample()];
    let (mut ticks, mut traced_reps, mut matched, mut passes) = (0u64, 0u32, 0u32, 0usize);
    let replaying = Instant::now();
    while ticks < MIN_TRACED_TICKS || replaying.elapsed().as_secs_f64() < 0.5 * args.seconds {
        for (k, seed) in seeds.iter().enumerate() {
            let config = workload.config(&prep.spec, *seed);
            if passes < COMPANION_PASSES {
                let (stats, wall) = timed_rep(config.clone());
                untraced_walls[k].push(wall);
                report.rep(&mut reference[k], stats, &format!("seed {seed} pass {passes}"));
            }
            let rep_started = Instant::now();
            let stats = traced::traced_rep(&config, &mut rec, traced_reps);
            traced_walls[k].push(rep_started.elapsed().as_secs_f64());
            kernel.push(calib::sample());
            ticks += stats.ticks;
            traced_reps += 1;
            let failed_before = report.failed;
            report.rep(&mut reference[k], stats, &format!("traced seed {seed} pass {passes}"));
            matched += u32::from(report.failed == failed_before);
        }
        passes += 1;
    }
    let reference: Vec<RepStats> = reference.into_iter().flatten().collect();

    let all = rec.spans();
    let own = spans::self_times_ns(all);
    let self_of = |name: &str| sum_where(all, name, |i| own[i]);
    let duration_of = |name: &str| sum_where(all, name, |i| all[i].duration_ns());
    let count_of = |name: &str| sum_where(all, name, |i| all[i].count);
    let traced_wall = duration_of(traced::REP);
    let layer_self: f64 =
        all.iter().zip(&own).filter(|(s, _)| s.name.contains('.')).map(|(_, ns)| *ns as f64).sum();
    let tick_us = durations_us(all, traced::MANAGER_TICK);
    let cycle_us = durations_us(all, traced::SCHED_CYCLE);
    let sum_over_seeds = |f: fn(&RepStats) -> u64| reference.iter().map(f).sum::<u64>() as f64;
    let bindings = sum_over_seeds(|s| s.bindings);

    let scenario = prep.spec.build();
    let horizon = scenario.horizon.as_secs_f64();
    let (arrival_ns, arrivals) = micro::arrival_sampling(&scenario, args.seed);
    // Mean wall of one traced rep: what the arrivals of one horizon are a
    // share of.
    let wall_per_horizon = traced_wall / f64::from(traced_reps);
    let (parse_us, build_us) = micro::scenario_load_us(&prep.text);
    let fill_1000 = micro::fill_us_per_pod(1_000, args.seed);
    let fill_2000 = micro::fill_us_per_pod(2_000, args.seed);
    let fastest = |walls: &[Vec<f64>]| -> f64 {
        walls.iter().map(|w| w.iter().copied().fold(f64::INFINITY, f64::min)).sum()
    };
    let companions: Vec<f64> = untraced_walls.iter().flatten().copied().collect();
    let raw_median: f64 = untraced_walls.iter().map(|w| quantile(w, 0.5)).sum();
    let runq_wait = host::runq_wait_ns().unwrap_or(0) as f64 / 1e9;

    report.metrics = vec![
        ("sim.engine_share", self_of(traced::RUN_UNTIL) / traced_wall),
        ("sim.engine_ns_per_event", self_of(traced::RUN_UNTIL) / count_of(traced::RUN_UNTIL)),
        ("sim.events", sum_over_seeds(|s| s.events)),
        ("sim.ps_drain_ns_per_req.depth8", micro::ps_drain_ns_per_req(8)),
        ("sim.ps_drain_ns_per_req.depth512", micro::ps_drain_ns_per_req(512)),
        ("sim.actuate_share", self_of(traced::ACTUATE) / traced_wall),
        (
            "sim.bind_us_per_pod",
            duration_of(traced::ACTUATE) / 1e3 / count_of(traced::ACTUATE).max(1.0),
        ),
        ("sim.snapshot_us_p50", quantile(&durations_us(all, traced::SNAPSHOT), 0.5)),
        ("workload.arrival_ns_per_arrival", arrival_ns),
        ("workload.arrivals", arrivals as f64),
        ("workload.arrival_est_share", arrivals as f64 * arrival_ns / wall_per_horizon),
        ("workload.spec_parse_us", parse_us),
        ("workload.scenario_build_us", build_us),
        ("core.construct_ms", quantile(&durations_us(all, traced::CONSTRUCT), 0.5) / 1e3),
        ("core.manager_tick_share", self_of(traced::MANAGER_TICK) / traced_wall),
        ("core.manager_tick_us_p50", quantile(&tick_us, 0.5)),
        ("core.manager_tick_us_p99", quantile(&tick_us, 0.99)),
        ("core.ticks", ticks as f64),
        ("control.controller_step_ns", micro::controller_step_ns()),
        ("control.arbitrate_us_per_app", micro::arbitrate_us_per_app()),
        (
            "telemetry.record_share",
            (self_of(traced::RECORD) + self_of(traced::SNAPSHOT)) / traced_wall,
        ),
        ("telemetry.record_ns_per_sample", duration_of(traced::RECORD) / count_of(traced::RECORD)),
        ("telemetry.fast_metric_records", sum_over_seeds(|s| s.fast_metric_records)),
        ("telemetry.quantile_ns_per_insert", micro::quantile_ns_per_insert()),
        ("scheduler.cycle_share", self_of(traced::SCHED_CYCLE) / traced_wall),
        ("scheduler.cycle_us_p50", quantile(&cycle_us, 0.5)),
        ("scheduler.cycle_us_p99", quantile(&cycle_us, 0.99)),
        (
            "scheduler.us_per_bound_pod",
            duration_of(traced::SCHED_CYCLE) / 1e3 / count_of(traced::SCHED_CYCLE).max(1.0),
        ),
        ("scheduler.bindings", bindings),
        ("scheduler.preemptions", sum_over_seeds(|s| s.preemptions)),
        (
            "scheduler.feasibility_work_per_pod",
            sum_over_seeds(|s| s.feasibility_work) / bindings.max(1.0),
        ),
        ("scheduler.fill_us_per_pod.n1000", fill_1000),
        ("scheduler.fill_us_per_pod.n2000", fill_2000),
        ("scheduler.fill_scaling", fill_2000 / fill_1000),
        ("trace.coverage_share", layer_self / traced_wall),
        ("trace.overhead_share", fastest(&traced_walls) / fastest(&untraced_walls) - 1.0),
        ("trace.digest_match", f64::from(matched) / f64::from(traced_reps)),
        ("host.slow_state_share", slow_state_share(&kernel)),
        ("host.calib_ms_p25", quantile(&kernel, 0.25) * 1e3),
        ("host.runq_wait_share", runq_wait / started.elapsed().as_secs_f64()),
        ("host.raw_sim_s_per_wall_s_p50", horizon * seeds.len() as f64 / raw_median),
        ("host.rep_wall_ms_p50", quantile(&companions, 0.5) * 1e3),
        ("host.rep_wall_ms_p90", quantile(&companions, 0.9) * 1e3),
        ("host.reps", companions.len() as f64),
    ];
    let expected: Vec<&'static str> = PER_LAYER.iter().map(|m| m.name).collect();
    report.check(&expected);
    let coverage = layer_self / traced_wall;
    if coverage < 0.97 {
        report.problems.push(format!("trace.coverage_share {coverage:.4} is below 0.97"));
    }

    let digest = digest_of(&reference);
    println!("workload {} seeds {seeds:?} traced reps {traced_reps}", workload.name);
    println!("outcome_digest {digest:016x}");
    let spans_path = out_path(workload, "spans.jsonl");
    if let Err(err) = spans::write_jsonl(&spans_path, all) {
        eprintln!("warning: cannot write {}: {err}", spans_path.display());
    }
    write_meta(&prep, &seeds, passes, true, digest);
    Ok(report.finish(&out_path(workload, "layers.json")))
}

/// Reads `"name": {"value": X` out of a result line this binary printed.
fn metric_in(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Two full sets of untraced runs of this same binary; prints, per
/// workload and metric, how far the second set's value is worse than the
/// first's beside the bound.
fn selfcheck(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let run = |workload: &Workload| -> Result<String, String> {
        let output = Command::new(&exe)
            .args(["--workload", workload.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .output()
            .map_err(|e| format!("cannot start {}: {e}", workload.name))?;
        let text = String::from_utf8_lossy(&output.stdout);
        let line = text.lines().last().unwrap_or_default().to_string();
        if !output.status.success() {
            return Err(format!("{} failed: {line}", workload.name));
        }
        Ok(line)
    };
    let mut sets = Vec::new();
    for set in 0..2 {
        let mut lines = Vec::new();
        for workload in &WORKLOADS {
            eprintln!("selfcheck: set {set}, {}", workload.name);
            lines.push(run(workload)?);
        }
        sets.push(lines);
    }
    let mut within = true;
    println!(
        "{:<18} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 0", "set 1", "worse by", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for metric in &END_TO_END {
            let first = metric_in(&sets[0][w], metric.name).ok_or("unreadable result line")?;
            let second = metric_in(&sets[1][w], metric.name).ok_or("unreadable result line")?;
            let worse = match metric.better {
                Better::Higher => (first - second) / first,
                Better::Lower => (second - first) / first,
            };
            let verdict = if worse <= metric.bound { "" } else { "  OUTSIDE" };
            within &= worse <= metric.bound;
            println!(
                "{:<18} {:<24} {first:>14.6} {second:>14.6} {:>8.2}% {:>6.0}%{verdict}",
                workload.name,
                metric.name,
                worse * 100.0,
                metric.bound * 100.0
            );
        }
    }
    Ok(if within { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// Prints the kernel's fast-state time: the lower decile of two seconds
/// of samples. This is the number to freeze as `CAL_REF` on new hardware.
fn calibrate() -> ExitCode {
    let started = Instant::now();
    let mut samples = Vec::new();
    while started.elapsed().as_secs_f64() < 2.0 {
        samples.push(calib::sample());
    }
    println!(
        "kernel p10 {:.6} s, p50 {:.6} s over {} samples (CAL_REF is {CAL_REF})",
        quantile(&samples, 0.1),
        quantile(&samples, 0.5),
        samples.len()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(std::env::args()) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.mode {
        Mode::Manifest => {
            print!("{}", catalog::manifest_json());
            Ok(ExitCode::SUCCESS)
        }
        Mode::Calibrate => Ok(calibrate()),
        Mode::Selfcheck => selfcheck(&args),
        Mode::SetupProbe => named_workload(&args)
            .and_then(|workload| set_up(workload, args.seed, started))
            .map(|(_, sample)| {
                println!("{} {}", sample.raw_s, sample.calib_s);
                ExitCode::SUCCESS
            }),
        Mode::Run => std::fs::create_dir_all(OUT_DIR)
            .map_err(|e| format!("cannot create {OUT_DIR}: {e}"))
            .and_then(|()| {
                if args.trace {
                    run_traced(&args, started)
                } else {
                    run_untraced(&args, started)
                }
            }),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("{message}");
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(rest: &[&str]) -> impl Iterator<Item = String> {
        std::iter::once("evolve-benchmark")
            .chain(rest.iter().copied())
            .map(String::from)
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn the_drivers_arguments_parse() {
        let args = parse_args(argv(&[
            "--workload",
            "scale1k_churn",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(args.mode, Mode::Run);
        assert_eq!(args.workload.as_deref(), Some("scale1k_churn"));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 20.0, true));
        assert!(parse_args(argv(&["--trace", "2"])).is_err());
        assert!(parse_args(argv(&["--seconds", "0"])).is_err());
        assert!(parse_args(argv(&["--seed"])).is_err());
        assert!(parse_args(argv(&["--frobnicate"])).is_err());
    }

    #[test]
    fn result_line_carries_exactly_the_listed_metrics() {
        let mut report = Report {
            attempted: 12,
            failed: 0,
            problems: Vec::new(),
            metrics: END_TO_END.iter().map(|m| (m.name, 1.5)).collect(),
        };
        let expected: Vec<&'static str> = END_TO_END.iter().map(|m| m.name).collect();
        report.check(&expected);
        assert!(report.correct(), "{:?}", report.problems);
        let line = report.line();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": {"));
        for metric in &END_TO_END {
            assert_eq!(metric_in(&line, metric.name), Some(1.5));
            assert!(line.contains(&format!("\"unit\": \"{}\"", metric.unit)));
        }

        // A metric the contract does not list, a missing one and a
        // non-finite one each make the run incorrect.
        report.metrics.push(("made.up", 1.0));
        report.check(&expected);
        assert!(!report.correct());
        let mut report = Report {
            attempted: 1,
            failed: 0,
            problems: Vec::new(),
            metrics: vec![("setup_s", f64::NAN)],
        };
        report.check(&["setup_s", "peak_rss_mib"]);
        assert_eq!(report.problems.len(), 2);
        assert!(report.line().contains("\"value\": null"));
    }

    #[test]
    fn mismatch_names_the_counter_that_moved() {
        let base = RepStats {
            events: 10,
            bindings: 2,
            preemptions: 0,
            ticks: 1,
            feasibility_work: 5,
            fast_metric_records: 0,
            mean_used: 0.1,
            mean_allocated: 0.2,
            apps: Vec::new(),
        };
        assert_eq!(mismatch(&base, &base.clone()), None);
        let mut moved = base.clone();
        moved.feasibility_work = 6;
        assert_eq!(mismatch(&base, &moved).as_deref(), Some("feasibility work 6 != reference 5"));
        moved.events = 11;
        assert!(mismatch(&base, &moved).expect("differs").starts_with("outcome_digest"));
    }

    #[test]
    fn slow_state_is_counted_against_the_runs_own_floor() {
        assert_eq!(slow_state_share(&[0.020, 0.021, 0.023, 0.030]), 0.5);
    }

    #[test]
    fn meta_strings_are_escaped() {
        assert_eq!(json_string("a \"b\"\n\\"), "\"a \\\"b\\\"\\n\\\\\"");
    }
}
