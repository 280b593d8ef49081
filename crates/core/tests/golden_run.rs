//! Golden same-seed regression test: pins the complete metric output of
//! four standard runs bit-exactly so performance work on the hot paths
//! (metric interning, incremental quantiles, scratch-buffer reuse) cannot
//! silently change results.
//!
//! A run is first written out whole, as its *dump*: the headline outcome
//! scalars, then every recorded time-series sample as the raw IEEE-754
//! bit pattern of its `(seconds, value)` pair. The committed fixture keeps
//! the dump's header lines as they are (manager, scenario, end time,
//! counters, one line per app and per job, utilisation, one `series
//! <name> len=<n>` line per series), so a structural change reads in a
//! plain diff. The samples become a digest chain, one line per control
//! window in time order:
//!
//! ```text
//! window <i> t=<bits of the window's time> samples=<n> <digest>
//! ```
//!
//! where the digest covers every `(series name, t bits, value bits)`
//! sample of the window and the previous window's digest. Any behavioural
//! drift — an extra tick, a moved sample, a last-ulp float difference —
//! fails the comparison. The failure names the first differing header
//! line and the earliest window that diverged, and prints that window's
//! samples from the run in full.
//!
//! Every run writes its dump to `$CARGO_TARGET_TMPDIR/golden/<fixture>.dump`
//! (`target/tmp/golden/` in a default checkout), whatever the outcome.
//! `golden_diff` (`evolve-bench`) reads two such dumps: to see what a
//! change moved, run this test on the parent commit and on the change and
//! diff the two files.
//!
//! Regenerate (after an *intentional* behaviour change only) with:
//!
//! ```text
//! EVOLVE_BLESS=1 cargo test -p evolve-core --test golden_run
//! ```
//!
//! A re-bless follows the rule in DESIGN.md decision 9: the reference-model
//! test and the analytic oracles of `evolve-sim` green before and after, and
//! the shape of the diff reported from `golden_diff` over the parent's and
//! the change's dumps — every float more than 1e-9 apart and every changed
//! integer traced to its cause. The four fixtures' bits were last blessed
//! when usage became credited at the harvest instant.

use std::fmt::Write as _;
use std::path::PathBuf;

use evolve_core::{ExperimentRunner, ManagerKind, RunConfig, RunOutcome, SchedulerProfile};
use evolve_types::SimDuration;
use evolve_workload::ScenarioSpec;

const HEADLINE: &str = "golden_headline";

fn fixture_path(fixture: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/{fixture}.txt"))
}

fn dump_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("golden/{name}.dump"))
}

/// The standard scenario at a short horizon: the full headline mix
/// (6 services with heterogeneous bottlenecks, batch ETL, an HPC gang)
/// under the EVOLVE manager, long enough to exercise scale-out/in,
/// binding, preemption and the quantile paths.
fn golden_config() -> RunConfig {
    let mut spec = ScenarioSpec::headline(0.5);
    spec.horizon = SimDuration::from_mins(5);
    spec.cluster.nodes = 8;
    RunConfig::from_spec(&spec, ManagerKind::Evolve).seed(42).build()
}

/// A small `cluster_scale`: 60 slot-packed nodes (720 pod slots), 8
/// services and an oversubscribed batch backlog, so the run holds over a
/// thousand pods, a persistent pending queue and task churn — the
/// many-pod harvest, resize, bind and completion paths the 100-pod
/// headline mix never reaches. The horizon is 360 s because unmanaged
/// batch tasks (~5 min of CPU work) first complete near 300 s; a shorter
/// static run would pin the fill only.
fn scale_config(manager: ManagerKind) -> RunConfig {
    let spec = ScenarioSpec::cluster_scale(60, 8, SimDuration::from_secs(360));
    RunConfig::from_spec(&spec, manager).seed(42).scheduler(SchedulerProfile::Evolve).build()
}

/// The headline mix at full load with nobody managing it: `ingest` and
/// `media` back up until single replicas hold several hundred requests
/// (621 at the deepest), the only regime in which the processor-sharing
/// drain's per-request passes dominate and which no other fixture
/// reaches. 11 s is the shortest whole-second horizon at which a service
/// records timeouts (`ingest` 42, `media` 78; none at 10 s), so the run
/// covers the build-up and deadline drops out of a deep set.
fn static_config() -> RunConfig {
    let mut spec = ScenarioSpec::headline(1.0);
    spec.horizon = SimDuration::from_secs(11);
    spec.cluster.nodes = 8;
    RunConfig::from_spec(&spec, ManagerKind::KubeStatic).seed(42).build()
}

/// Serializes everything a run measured, bit-exactly. Floats are dumped
/// as hex bit patterns: two runs produce the same dump iff every sample
/// is the same `f64` down to the last bit.
fn golden_dump(outcome: &RunOutcome) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "manager {}", outcome.manager);
    let _ = writeln!(out, "scenario {}", outcome.scenario);
    let _ = writeln!(out, "end_time {:016x}", outcome.end_time.as_secs_f64().to_bits());
    // Deliberately NOT pinned: `outcome.events` (engine throughput
    // accounting — eliminating provably-stale timer events changes the
    // count without touching any metric) and wall-clock perf numbers.
    let _ = writeln!(out, "preemptions {}", outcome.preemptions);
    let _ = writeln!(out, "bindings {}", outcome.bindings);
    let _ = writeln!(out, "resize_failures {}", outcome.control.resize_failures);
    let _ = writeln!(out, "suppressed_actuations {}", outcome.control.suppressed_actuations);
    for app in &outcome.apps {
        let _ = writeln!(
            out,
            "app {} {} windows={} violations={} severity={:016x} completions={} timeouts={} oom={}",
            app.app.raw(),
            app.name,
            app.windows,
            app.violations,
            app.mean_severity.to_bits(),
            app.completions,
            app.timeouts,
            app.oom_kills,
        );
    }
    for job in &outcome.jobs {
        let _ = writeln!(
            out,
            "job {} app={} submitted={:016x} finished={} deadline_met={}",
            job.job.raw(),
            job.app.raw(),
            job.submitted.as_secs_f64().to_bits(),
            job.finished
                .map_or_else(|| "-".to_owned(), |f| format!("{:016x}", f.as_secs_f64().to_bits())),
            job.met_deadline(),
        );
    }
    let _ = writeln!(
        out,
        "utilization alloc={:016x} used={:016x}",
        outcome.utilization.mean_allocated().to_bits(),
        outcome.utilization.mean_used().to_bits(),
    );
    let names: Vec<String> = outcome.registry.series_names().map(str::to_owned).collect();
    for name in &names {
        let series = outcome.registry.series(name).expect("listed series exists");
        let _ = writeln!(out, "series {name} len={}", series.len());
        for (t, v) in series.to_points() {
            let _ = writeln!(out, "  {:016x} {:016x}", t.to_bits(), v.to_bits());
        }
    }
    out
}

#[test]
fn golden_headline_metrics_are_bit_identical() {
    let outcome = ExperimentRunner::new(golden_config()).run();
    compare_to_fixture(&outcome, HEADLINE, true);
}

#[test]
fn golden_scale_evolve_is_bit_identical() {
    let outcome = ExperimentRunner::new(scale_config(ManagerKind::Evolve)).run();
    compare_to_fixture(&outcome, "golden_scale_evolve", true);
}

#[test]
fn golden_scale_static_is_bit_identical() {
    let outcome = ExperimentRunner::new(scale_config(ManagerKind::KubeStatic)).run();
    compare_to_fixture(&outcome, "golden_scale_static", true);
}

#[test]
fn golden_headline_static_is_bit_identical() {
    let outcome = ExperimentRunner::new(static_config()).run();
    compare_to_fixture(&outcome, "golden_headline_static", true);
}

/// Decision tracing is observational: running the *same* golden config
/// with the trace ring active and a JSONL dump enabled must leave every
/// pinned metric bit-identical to the fixture blessed without it.
#[test]
fn golden_headline_unchanged_by_trace_dump() {
    let jsonl = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden_trace_dump.jsonl");
    let mut config = golden_config();
    config.trace = evolve_telemetry::trace::TraceConfig::default().dump_to(&jsonl);
    let outcome = ExperimentRunner::new(config).run();
    assert!(!outcome.trace.is_empty(), "trace ring captured nothing");
    assert!(std::fs::metadata(&jsonl).is_ok_and(|m| m.len() > 0), "trace dump was not written");
    compare_to_fixture(&outcome, HEADLINE, false);
}

/// Compares a run against its blessed fixture after writing the run's
/// dump. Only the plain golden tests may (re)bless, so a drifting traced
/// run can never overwrite the reference it is checked against; the
/// traced run dumps under its own name, so two tests never write one file.
fn compare_to_fixture(outcome: &RunOutcome, fixture: &str, may_bless: bool) {
    let dump = golden_dump(outcome);
    let name = if may_bless { fixture.to_owned() } else { format!("{fixture}_traced") };
    let dumped = dump_path(&name);
    std::fs::create_dir_all(dumped.parent().expect("dump dir")).expect("mkdir dumps");
    std::fs::write(&dumped, &dump).expect("write dump");
    let path = fixture_path(fixture);
    let blessing = std::env::var("EVOLVE_BLESS").is_ok_and(|v| !v.is_empty() && v != "0");
    if blessing {
        if may_bless {
            std::fs::write(&path, fixture_text(&dump)).expect("write fixture");
        }
        // While re-blessing, secondary comparisons are skipped: test order
        // is arbitrary, so the fresh fixture may not exist yet.
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden fixture {} ({e}); regenerate with EVOLVE_BLESS=1", path.display())
    });
    if let Some(report) = divergence(&dump, &expected) {
        panic!(
            "golden run diverged from fixture {}; this run's dump is {}\n{report}",
            path.display(),
            dumped.display(),
        );
    }
}

/// One sample of a dump: its series and the bits of its `(t, value)`.
#[derive(Clone, Copy)]
struct Sample<'a> {
    series: &'a str,
    t: u64,
    value: u64,
}

/// A dump's header lines, and its samples grouped by time into windows in
/// time order; inside a window the samples keep the dump's series order.
struct Parsed<'a> {
    header: Vec<&'a str>,
    windows: Vec<Vec<Sample<'a>>>,
}

fn parse(dump: &str) -> Parsed<'_> {
    let bits = |hex: &str| u64::from_str_radix(hex, 16).expect("a sample is two hex words");
    let (mut header, mut samples, mut series) = (Vec::new(), Vec::new(), "");
    for line in dump.lines() {
        let Some(sample) = line.strip_prefix("  ") else {
            if let Some(rest) = line.strip_prefix("series ") {
                series = rest.split(' ').next().unwrap_or(rest);
            }
            header.push(line);
            continue;
        };
        let (t, value) = sample.split_once(' ').expect("a sample is two hex words");
        samples.push(Sample { series, t: bits(t), value: bits(value) });
    }
    // Stable, so a window lists its samples in the dump's series order.
    samples.sort_by(|a, b| f64::from_bits(a.t).total_cmp(&f64::from_bits(b.t)));
    let windows = samples.chunk_by(|a, b| a.t == b.t).map(<[Sample]>::to_vec).collect();
    Parsed { header, windows }
}

/// FNV-1a, 64 bit.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The fixture lines of a parsed dump: its header, then one line per
/// window whose digest chains the window's samples onto the previous
/// window's digest.
fn chain(parsed: &Parsed<'_>) -> Vec<String> {
    let mut lines: Vec<String> = parsed.header.iter().map(|&line| line.to_owned()).collect();
    let mut digest = 0u64;
    for (i, window) in parsed.windows.iter().enumerate() {
        let samples = window.iter().flat_map(|s| {
            s.series.bytes().chain([0]).chain(s.t.to_le_bytes()).chain(s.value.to_le_bytes())
        });
        digest = fnv1a(digest.to_le_bytes().into_iter().chain(samples));
        let t = window[0].t;
        lines.push(format!("window {i} t={t:016x} samples={} {digest:016x}", window.len()));
    }
    lines
}

/// What a blessed fixture holds for a dump.
fn fixture_text(dump: &str) -> String {
    chain(&parse(dump)).iter().map(|line| format!("{line}\n")).collect()
}

/// The first index at which two line lists differ, a missing line
/// included.
fn first_difference(got: &[String], want: &[&str]) -> Option<usize> {
    (0..got.len().max(want.len())).find(|&i| got.get(i).map(String::as_str) != want.get(i).copied())
}

/// What separates a run's dump from a fixture, or `None` when they agree
/// bit for bit: the first header line that differs, and the earliest
/// window whose chain line differs with that window's samples from the
/// run in full.
fn divergence(dump: &str, fixture: &str) -> Option<String> {
    let run = parse(dump);
    let got = chain(&run);
    let (got_header, got_windows) = got.split_at(run.header.len());
    let want: Vec<&str> = fixture.lines().collect();
    let (want_header, want_windows) =
        want.split_at(want.iter().position(|l| l.starts_with("window ")).unwrap_or(want.len()));
    let mut report = String::new();
    if let Some(i) = first_difference(got_header, want_header) {
        let run_line = got_header.get(i).map_or("<none>", String::as_str);
        let _ = writeln!(
            report,
            "header line {} differs ({} header lines in the run, {} in the fixture):\n  run:     {run_line}\n  fixture: {}",
            i + 1,
            got_header.len(),
            want_header.len(),
            want_header.get(i).unwrap_or(&"<none>"),
        );
    }
    if let Some(i) = first_difference(got_windows, want_windows) {
        let run_line = got_windows.get(i).map_or("<none>", String::as_str);
        let _ = writeln!(
            report,
            "earliest divergent window is window {i}:\n  run:     {run_line}\n  fixture: {}",
            want_windows.get(i).unwrap_or(&"<none>"),
        );
        match run.windows.get(i) {
            Some(samples) => {
                let t = f64::from_bits(samples[0].t);
                let _ = writeln!(report, "the run's {} samples at t={t} s:", samples.len());
                for s in samples {
                    let value = f64::from_bits(s.value);
                    let _ = writeln!(report, "  {:<36} {value:<24} ({:016x})", s.series, s.value);
                }
            }
            None => {
                let _ = writeln!(report, "the run has {} windows only", run.windows.len());
            }
        }
    }
    (!report.is_empty()).then_some(report)
}

/// A dump in `golden_dump`'s format with one header integer and the given
/// series; nothing is simulated.
fn synthetic_dump(bindings: u32, series: &[(&str, Vec<(f64, f64)>)]) -> String {
    let mut out = format!("manager evolve\nscenario synthetic\nbindings {bindings}\n");
    for (name, points) in series {
        let _ = writeln!(out, "series {name} len={}", points.len());
        for (t, v) in points {
            let _ = writeln!(out, "  {:016x} {:016x}", t.to_bits(), v.to_bits());
        }
    }
    out
}

type Series = Vec<(&'static str, Vec<(f64, f64)>)>;

/// Three series over twelve 5 s windows.
fn synthetic_series() -> Series {
    let names = ["app0/p99_ms", "app0/replicas", "cluster/allocated_cpu_share"];
    let points =
        |k: usize| (0..12).map(move |w| (5.0 * (w + 1) as f64, (k + 1) as f64 / (w + 3) as f64));
    names.iter().enumerate().map(|(k, &name)| (name, points(k).collect())).collect()
}

/// The report for a synthetic run changed by `change`, checked against
/// the fixture blessed from the unchanged one.
fn report_for(change: impl FnOnce(&mut u32, &mut Series)) -> String {
    let (mut bindings, mut series) = (12, synthetic_series());
    let fixture = fixture_text(&synthetic_dump(bindings, &series));
    change(&mut bindings, &mut series);
    divergence(&synthetic_dump(bindings, &series), &fixture).expect("the change is reported")
}

fn next_ulp(v: f64) -> f64 {
    f64::from_bits(v.to_bits() + 1)
}

#[test]
fn an_unchanged_run_matches_its_chain() {
    let dump = synthetic_dump(12, &synthetic_series());
    let fixture = fixture_text(&dump);
    assert_eq!(fixture.lines().count(), 3 + 3 + 12, "header, series lines, windows");
    assert!(fixture
        .lines()
        .nth(6)
        .is_some_and(|l| l.starts_with("window 0 t=4014000000000000 samples=3 ")));
    assert_eq!(divergence(&dump, &fixture), None);
}

#[test]
fn a_one_ulp_change_names_its_window_and_prints_it() {
    let report = report_for(|_, series| series[1].1[7].1 = next_ulp(series[1].1[7].1));
    assert!(report.contains("window 7:"), "{report}");
    assert!(!report.contains("header"), "{report}");
    let changed = next_ulp(2.0 / 10.0);
    let line = report.lines().find(|l| l.trim_start().starts_with("app0/replicas"));
    assert!(line.is_some_and(|l| l.contains(&format!("{:016x}", changed.to_bits()))), "{report}");
    assert!(report.contains("the run's 3 samples at t=40 s"), "{report}");
}

#[test]
fn a_sample_moved_to_another_window_is_reported() {
    let report = report_for(|_, series| series[0].1[3].0 = 25.0);
    assert!(report.contains("window 3:"), "{report}");
    assert!(report.contains("samples=2 "), "{report}");
}

#[test]
fn an_added_series_is_reported_in_the_header() {
    let report = report_for(|_, series| {
        let points = series[0].1.clone();
        series.insert(1, ("app0/rate_rps", points));
    });
    assert!(report.contains("header line 5 differs"), "{report}");
    assert!(report.contains("run:     series app0/rate_rps len=12"), "{report}");
    assert!(report.contains("window 0:"), "{report}");
}

#[test]
fn a_changed_header_integer_is_reported() {
    let report = report_for(|bindings, _| *bindings += 1);
    assert!(report.contains("run:     bindings 13\n  fixture: bindings 12"), "{report}");
    assert!(!report.contains("window"), "{report}");
}

#[test]
fn the_earliest_of_two_changed_windows_is_named() {
    let report = report_for(|_, series| {
        series[2].1[9].1 = next_ulp(series[2].1[9].1);
        series[0].1[5].1 = next_ulp(series[0].1[5].1);
    });
    assert!(report.contains("window 5:"), "{report}");
    assert!(!report.contains("window 9"), "{report}");
}
