//! Golden same-seed regression test: pins the complete metric output of a
//! standard scenario as a bit-exact fixture so performance work on the
//! hot paths (metric interning, incremental quantiles, scratch-buffer
//! reuse) cannot silently change results.
//!
//! The fixture stores every recorded time series sample as the raw IEEE-754
//! bit pattern of its `(seconds, value)` pair, plus the headline outcome
//! scalars. Any behavioural drift — an extra tick, a reordered sample, a
//! last-ulp float difference — fails the comparison.
//!
//! Regenerate (after an *intentional* behaviour change only) with:
//!
//! ```text
//! EVOLVE_BLESS=1 cargo test -p evolve-core --test golden_run
//! ```
//!
//! A re-bless follows the rule in DESIGN.md decision 9: the reference-model
//! test and the analytic oracles of `evolve-sim` green before and after, and
//! the shape of the diff reported from `golden_diff` (`evolve-bench`) —
//! every float more than 1e-9 apart and every changed integer traced to
//! its cause. The four fixtures were last blessed when the replica server
//! became a virtual-time queue.

use std::fmt::Write as _;
use std::path::PathBuf;

use evolve_core::{ExperimentRunner, ManagerKind, RunConfig, RunOutcome, SchedulerProfile};
use evolve_types::SimDuration;
use evolve_workload::ScenarioSpec;

const HEADLINE: &str = "golden_headline.txt";

fn fixture_path(fixture: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(fixture)
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
    compare_to_fixture(&outcome, "golden_scale_evolve.txt", true);
}

#[test]
fn golden_scale_static_is_bit_identical() {
    let outcome = ExperimentRunner::new(scale_config(ManagerKind::KubeStatic)).run();
    compare_to_fixture(&outcome, "golden_scale_static.txt", true);
}

#[test]
fn golden_headline_static_is_bit_identical() {
    let outcome = ExperimentRunner::new(static_config()).run();
    compare_to_fixture(&outcome, "golden_headline_static.txt", true);
}

/// Decision tracing is observational: running the *same* golden config
/// with the trace ring active and a JSONL dump enabled must leave every
/// pinned metric bit-identical to the fixture blessed without it.
#[test]
fn golden_headline_unchanged_by_trace_dump() {
    let dump_path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden_trace_dump.jsonl");
    let mut config = golden_config();
    config.trace = evolve_telemetry::trace::TraceConfig::default().dump_to(&dump_path);
    let outcome = ExperimentRunner::new(config).run();
    assert!(!outcome.trace.is_empty(), "trace ring captured nothing");
    assert!(std::fs::metadata(&dump_path).is_ok_and(|m| m.len() > 0), "trace dump was not written");
    compare_to_fixture(&outcome, HEADLINE, false);
}

/// Compares a run against its blessed fixture; only the plain golden
/// tests may (re)bless, so a drifting traced run can never overwrite the
/// reference it is checked against.
fn compare_to_fixture(outcome: &RunOutcome, fixture: &str, may_bless: bool) {
    let dump = golden_dump(outcome);
    let path = fixture_path(fixture);
    let blessing = std::env::var("EVOLVE_BLESS").is_ok_and(|v| !v.is_empty() && v != "0");
    if blessing {
        if may_bless {
            std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("mkdir fixtures");
            std::fs::write(&path, &dump).expect("write fixture");
        }
        // While re-blessing, secondary comparisons are skipped: test order
        // is arbitrary, so the fresh fixture may not exist yet.
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden fixture {} ({e}); regenerate with EVOLVE_BLESS=1", path.display())
    });
    if dump != expected {
        // Locate the first diverging line for a readable failure.
        let mut first_diff = String::from("<end of file>");
        let mut line_no = 0usize;
        for (i, (got, want)) in dump.lines().zip(expected.lines()).enumerate() {
            if got != want {
                first_diff = format!("line {}: got `{got}`, want `{want}`", i + 1);
                line_no = i + 1;
                break;
            }
        }
        panic!(
            "golden run diverged from fixture {} (dump {} lines, fixture {} lines; first diff at {line_no}): {first_diff}",
            path.display(),
            dump.lines().count(),
            expected.lines().count(),
        );
    }
}
