//! Integration tests for the decision-trace subsystem: same-seed JSONL
//! determinism, decision-chain reconstruction and the guarantee that
//! tracing observes without perturbing results.

use std::path::{Path, PathBuf};

use evolve_core::{ExperimentRunner, ManagerKind, RunConfig};
use evolve_telemetry::trace::{SchedOutcome, SpanKind, TraceConfig};
use evolve_types::SimDuration;
use evolve_workload::ScenarioSpec;

fn tmp(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// The headline mix at a short horizon on 8 nodes: enough load to
/// exercise control decisions, scale-out, gang scheduling and binding.
fn short_headline() -> ScenarioSpec {
    let mut spec = ScenarioSpec::headline(0.5);
    spec.horizon = SimDuration::from_mins(2);
    spec.cluster.nodes = 8;
    spec
}

fn traced_config(dump: &Path) -> RunConfig {
    RunConfig::from_spec(&short_headline(), ManagerKind::Evolve)
        .seed(42)
        .trace(TraceConfig::default().dump_to(dump))
        .build()
}

#[test]
fn same_seed_trace_dumps_are_byte_identical() {
    let a = tmp("trace_same_seed_a.jsonl");
    let b = tmp("trace_same_seed_b.jsonl");
    let _ = ExperimentRunner::new(traced_config(&a)).run();
    let _ = ExperimentRunner::new(traced_config(&b)).run();
    let dump_a = std::fs::read(&a).expect("first dump written");
    let dump_b = std::fs::read(&b).expect("second dump written");
    assert!(!dump_a.is_empty(), "trace dump is empty");
    assert_eq!(dump_a, dump_b, "same-seed trace dumps are not byte-identical");
}

#[test]
fn trace_reconstructs_the_decision_chain() {
    let dump = tmp("trace_chain.jsonl");
    let outcome = ExperimentRunner::new(traced_config(&dump)).run();
    let ring = &outcome.trace;
    assert!(!ring.is_empty(), "ring captured nothing");

    // Control side: per-app decisions with full controller internals.
    let explained = ring.control().filter(|c| c.explain.is_some()).count();
    assert!(explained > 0, "no control record carries an explain block");
    let app_count = outcome.apps.len() as u32;
    for c in ring.control() {
        assert!(c.app.raw() < app_count, "control trace names unknown app {}", c.app.raw());
        if let Some(e) = &c.explain {
            assert!(e.error.is_finite(), "control error is not finite");
            for t in &e.pid {
                assert!(t.output.is_finite(), "PID output is not finite");
            }
        }
    }
    // Ticks are monotone: the ring preserves decision order.
    let ticks: Vec<u64> = ring.control().map(|c| c.tick).collect();
    assert!(ticks.windows(2).all(|w| w[0] <= w[1]), "control ticks out of order");

    // Scheduler side: at least one successful binding with scoring
    // detail, so a violation can be chased from controller decision to
    // placement.
    let bound = ring.sched().filter(|s| matches!(s.outcome, SchedOutcome::Bound { .. })).count();
    assert!(bound > 0, "no pod binding was traced");
    let scored = ring.sched().any(|s| {
        matches!(s.outcome, SchedOutcome::Bound { score: Some(_), .. }) && !s.scores.is_empty()
    });
    assert!(scored, "no traced binding carries per-plugin scores");

    // Lifecycle spans cover all three runner phases.
    for kind in [SpanKind::Control, SpanKind::Sched, SpanKind::Record] {
        assert!(ring.spans().any(|s| s.kind == kind), "no {} span was traced", kind.as_str());
    }
}

#[test]
fn tracing_is_observational_only() {
    // Identical config with tracing disabled vs enabled (with dump):
    // every result the run reports must be bit-identical.
    let dump = tmp("trace_observe.jsonl");
    let base = RunConfig::from_spec(&short_headline(), ManagerKind::Evolve).seed(42);
    let disabled = base.clone().trace(TraceConfig::disabled()).build();
    let enabled = base.trace(TraceConfig::default().dump_to(&dump)).build();
    let off = ExperimentRunner::new(disabled).run();
    let on = ExperimentRunner::new(enabled).run();

    assert_eq!(off.end_time, on.end_time);
    assert_eq!(off.bindings, on.bindings);
    assert_eq!(off.preemptions, on.preemptions);
    assert_eq!(off.total_windows(), on.total_windows());
    assert_eq!(off.total_violations(), on.total_violations());
    assert_eq!(
        off.utilization.mean_allocated().to_bits(),
        on.utilization.mean_allocated().to_bits(),
        "tracing perturbed utilization accounting"
    );
    assert!(off.trace.is_empty(), "disabled ring retained events");
    assert!(!on.trace.is_empty(), "enabled ring captured nothing");
}

/// A standing backlog must not evict the control decisions: `scale1k_churn`
/// holds ≈ 800 pods its requeue backoff defers every cycle, and one record
/// per deferred pod turned the default 16 384-event ring over in ≈ 20
/// cycles. The same shape at a fifth of the nodes, with a fifth of the
/// ring: every app's decision of the last 200 sim-s must still be there.
#[test]
fn a_standing_backlog_keeps_the_control_traces() {
    let spec = ScenarioSpec::cluster_scale(200, 8, SimDuration::from_secs(600));
    let cfg = RunConfig::from_spec(&spec, ManagerKind::KubeStatic)
        .trace(TraceConfig::default().with_capacity(16_384 / 5))
        .record_series(false)
        .seed(42)
        .build();
    let outcome = ExperimentRunner::new(cfg).run();
    let ring = &outcome.trace;
    assert!(ring.dropped() > 0, "the ring was meant to turn over");
    let apps = outcome.apps.len();
    let horizon = outcome.end_time.as_secs_f64();
    for window in 0..40 {
        let at = horizon - 5.0 * f64::from(window);
        let decided = ring.control().filter(|c| c.at.as_secs_f64() == at).count();
        assert_eq!(decided, apps, "control traces of the window ending at {at} s");
    }
    // One deferral record per cycle at most, none of them empty.
    let mut cycles: Vec<u64> = ring.deferred().map(|d| d.cycle).collect();
    assert!(ring.deferred().all(|d| d.count > 0));
    let before = cycles.len();
    cycles.dedup();
    assert!(before > 0 && cycles.len() == before, "one deferral record per cycle");
}
