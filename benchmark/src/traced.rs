//! The run loop of `ExperimentRunner::run` (fault-free path, oracle and
//! arbiter off), replayed from public functions with one span around
//! every call into a layer. It must end in exactly the statistics the
//! untraced rep ends in; `trace.digest_match` holds it to that.

use crate::rep::{AppStats, RepStats};
use crate::spans::{Recorder, SpanId};
use evolve::prelude::*;
use evolve_core::ResourceManager;
use evolve_scheduler::{FeasibilityIndex, RequeueBackoff, SchedulerFramework};
use evolve_sim::{ClusterConfig, Simulation, SimulationConfig};
use evolve_telemetry::UtilizationAccount;
use evolve_types::ResourceVec;
use std::collections::HashMap;
use std::time::Instant;

/// Structural spans: the rep and each control period.
pub const REP: &str = "rep";
pub const TICK: &str = "tick";
/// Layer spans, named `<crate>.<call>`.
pub const CONSTRUCT: &str = "core.construct";
pub const RUN_UNTIL: &str = "sim.run_until";
pub const MANAGER_TICK: &str = "core.manager_tick";
pub const SCHED_CYCLE: &str = "scheduler.cycle";
pub const ACTUATE: &str = "sim.actuate";
pub const SNAPSHOT: &str = "sim.snapshot";
pub const RECORD: &str = "telemetry.record";
pub const FINISH: &str = "core.finish";

/// The per-app series the runner records when `record_series` is on.
struct AppSeriesKeys {
    p99_name: String,
    p99_ms: Option<MetricKey>,
    rate_rps: MetricKey,
    replicas: MetricKey,
    alloc_cpu: MetricKey,
    usage_cpu: MetricKey,
    timeouts: MetricKey,
}

impl AppSeriesKeys {
    fn new(registry: &mut MetricRegistry, app: AppId) -> Self {
        let prefix = format!("app{}", app.raw());
        AppSeriesKeys {
            p99_name: format!("{prefix}/p99_ms"),
            p99_ms: None,
            rate_rps: registry.key(&format!("{prefix}/rate_rps")),
            replicas: registry.key(&format!("{prefix}/replicas")),
            alloc_cpu: registry.key(&format!("{prefix}/alloc_cpu")),
            usage_cpu: registry.key(&format!("{prefix}/usage_cpu")),
            timeouts: registry.key(&format!("{prefix}/timeouts")),
        }
    }
}

struct ClusterSeriesKeys {
    allocated_cpu_share: MetricKey,
    used_cpu_share: MetricKey,
    pods_running: MetricKey,
    pods_pending: MetricKey,
    nodes_ready: MetricKey,
}

/// Scheduler-side state carried across the cycles of one rep.
struct Scheduling {
    framework: SchedulerFramework,
    backoff: RequeueBackoff,
    index: FeasibilityIndex,
    bindings: u64,
    preemptions: u64,
    feasibility_work: u64,
}

impl Scheduling {
    /// One scheduling pass: the cycle, then the plan applied to the
    /// simulator (victims first, as the plan's shadow accounting assumes).
    fn pass(
        &mut self,
        sim: &mut Simulation,
        trace: &mut TraceRing,
        rec: &mut Recorder,
        parent: SpanId,
        rep: u32,
    ) {
        let plan = rec.call(SCHED_CYCLE, parent, rep, || {
            let plan = self.framework.schedule_cycle_carried(
                sim.cluster(),
                &mut self.backoff,
                &mut self.index,
                sim.now(),
                trace,
            );
            let bound = plan.bindings.len() as u64;
            (plan, bound)
        });
        self.feasibility_work += plan.filter_evals + plan.index_probes;
        let (bound, evicted) = rec.call(ACTUATE, parent, rep, || {
            let evicted =
                plan.preemptions.iter().filter(|victim| sim.preempt_pod(**victim).is_ok()).count();
            let bound = plan
                .bindings
                .iter()
                .filter(|(pod, node)| sim.bind_pod(*pod, *node).is_ok())
                .count();
            ((bound as u64, evicted as u64), (bound + evicted) as u64)
        });
        self.bindings += bound;
        self.preemptions += evicted;
    }
}

fn span_event(tick: u64, at: SimTime, kind: SpanKind, started: Instant) -> TraceEvent {
    TraceEvent::Span(SpanTrace {
        tick,
        at,
        kind,
        wall_ns: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
    })
}

fn share(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Runs one traced rep and returns the statistics it ended in.
///
/// # Panics
///
/// Panics when `cfg` asks for something the replay does not model
/// (faults, oracle, arbiter, legacy sampling): the benchmark's workloads
/// use none of them, and silently ignoring one would void the digest
/// comparison.
pub fn traced_rep(cfg: &RunConfig, rec: &mut Recorder, rep: u32) -> RepStats {
    assert!(
        cfg.faults.is_empty() && !cfg.oracle && cfg.arbiter.is_none() && !cfg.legacy_sampling,
        "the traced replay covers the fault-free, unarbitrated path only"
    );
    let root = rec.open(REP, None, rep);

    let built = rec.open(CONSTRUCT, Some(root), rep);
    let mut sim = Simulation::new(
        SimulationConfig::default(),
        ClusterConfig::uniform(cfg.nodes, cfg.node_shape),
        &cfg.scenario.mix,
        cfg.seed,
    );
    let mut manager = ResourceManager::new(cfg.manager.clone(), &sim);
    let framework = match cfg.scheduler {
        SchedulerProfile::KubeDefault => SchedulerFramework::kube_default(),
        SchedulerProfile::Evolve => SchedulerFramework::evolve_default(),
        SchedulerProfile::Binpack => SchedulerFramework::binpack(),
    };
    let mut sched = Scheduling {
        framework: framework.with_index(cfg.indexed_scheduling),
        backoff: RequeueBackoff::new(),
        index: FeasibilityIndex::new(),
        bindings: 0,
        preemptions: 0,
        feasibility_work: 0,
    };
    let mut registry = MetricRegistry::new();
    let mut util = UtilizationAccount::new(sim.cluster().total_allocatable());
    let mut trace = TraceRing::new(cfg.trace.capacity);
    let mut totals: HashMap<AppId, (u64, u64, u64)> = HashMap::new();
    let cluster_keys = cfg.record_series.then(|| ClusterSeriesKeys {
        allocated_cpu_share: registry.key("cluster/allocated_cpu_share"),
        used_cpu_share: registry.key("cluster/used_cpu_share"),
        pods_running: registry.key("cluster/pods_running"),
        pods_pending: registry.key("cluster/pods_pending"),
        nodes_ready: registry.key("cluster/nodes_ready"),
    });
    let mut series_keys: HashMap<AppId, AppSeriesKeys> = if cfg.record_series {
        sim.apps().iter().map(|s| (s.id, AppSeriesKeys::new(&mut registry, s.id))).collect()
    } else {
        HashMap::new()
    };
    rec.close(built, 0);

    // Pods that exist at t = 0 place before the first control period.
    sched.pass(&mut sim, &mut trace, rec, root, rep);

    let horizon = SimTime::ZERO + cfg.scenario.horizon;
    let mut window_start = SimTime::ZERO;
    let mut ticks = 0u64;
    while window_start < horizon {
        ticks += 1;
        let tick = rec.open(TICK, Some(root), rep);
        let tick_end = (window_start + cfg.control_interval).min(horizon);
        let events_before = sim.events_processed();
        rec.call(RUN_UNTIL, tick, rep, || {
            sim.run_until(tick_end);
            ((), sim.events_processed() - events_before)
        });
        let window_secs = (tick_end - window_start).as_secs_f64();

        let control_started = Instant::now();
        let windows = rec.call(MANAGER_TICK, tick, rep, || {
            let windows = manager.tick_traced(&mut sim, window_secs, None, Some(&mut trace));
            let harvested = windows.len() as u64;
            (windows, harvested)
        });
        trace.push(span_event(ticks, tick_end, SpanKind::Control, control_started));

        let sched_started = Instant::now();
        sched.pass(&mut sim, &mut trace, rec, tick, rep);
        trace.push(span_event(ticks, tick_end, SpanKind::Sched, sched_started));

        let record_started = Instant::now();
        let snap = rec.call(SNAPSHOT, tick, rep, || (sim.snapshot(), 1));
        let records_before = registry.fast_path_records();
        let recording = rec.open(RECORD, Some(tick), rep);
        let mut used = ResourceVec::ZERO;
        for (app, w) in &windows {
            used += w.usage;
            let entry = totals.entry(*app).or_insert((0, 0, 0));
            entry.0 += w.completions;
            entry.1 += w.timeouts;
            entry.2 += w.shed_requests;
        }
        util.record(snap.at, snap.allocated, used.min(&snap.allocatable));
        if let Some(ck) = &cluster_keys {
            let t = snap.at;
            let allocatable = snap.allocatable.cpu();
            registry.record_key(
                ck.allocated_cpu_share,
                t,
                share(snap.allocated.cpu(), allocatable),
            );
            registry.record_key(ck.used_cpu_share, t, share(used.cpu(), allocatable));
            registry.record_key(ck.pods_running, t, f64::from(snap.pods_running));
            registry.record_key(ck.pods_pending, t, f64::from(snap.pods_pending));
            registry.record_key(ck.nodes_ready, t, f64::from(snap.nodes_ready));
            for (app, w) in &windows {
                let keys = series_keys
                    .entry(*app)
                    .or_insert_with(|| AppSeriesKeys::new(&mut registry, *app));
                if let Some(p99) = w.p99_ms {
                    let key = *keys.p99_ms.get_or_insert_with(|| registry.key(&keys.p99_name));
                    registry.record_key(key, t, p99);
                }
                registry.record_key(keys.rate_rps, t, w.arrivals as f64 / window_secs);
                registry.record_key(keys.replicas, t, f64::from(w.running_replicas));
                registry.record_key(keys.alloc_cpu, t, w.alloc.cpu());
                registry.record_key(keys.usage_cpu, t, w.usage.cpu());
                registry.record_key(keys.timeouts, t, w.timeouts as f64);
            }
        }
        // One utilization sample plus whatever went through the registry.
        rec.close(recording, 1 + registry.fast_path_records() - records_before);
        trace.push(span_event(ticks, tick_end, SpanKind::Record, record_started));

        window_start = tick_end;
        rec.close(tick, 0);
    }

    let finishing = rec.open(FINISH, Some(root), rep);
    let utilization = util.finish(sim.now());
    let apps = sim
        .apps()
        .iter()
        .map(|status| {
            let (completions, timeouts, shed_requests) =
                totals.get(&status.id).copied().unwrap_or((0, 0, 0));
            let (windows, violations) =
                manager.tracker(status.id).map_or((0, 0), |t| (t.windows(), t.violations()));
            AppStats {
                service: status.world == WorldClass::Microservice,
                windows,
                violations,
                completions,
                timeouts,
                shed_requests,
            }
        })
        .collect();
    let stats = RepStats {
        events: sim.events_processed(),
        bindings: sched.bindings,
        preemptions: sched.preemptions,
        ticks,
        feasibility_work: sched.feasibility_work,
        fast_metric_records: registry.fast_path_records(),
        mean_used: utilization.mean_used(),
        mean_allocated: utilization.mean_allocated(),
        apps,
    };
    // `run()` also hands back the job outcomes, the registry and the trace
    // ring; dropping them here is part of the rep, as it is there.
    drop((sim.job_outcomes(), registry, trace, manager, sim));
    rec.close(finishing, 0);
    rec.close(root, 0);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rep::timed_rep;
    use crate::spans::self_times_ns;

    /// The replay against `ExperimentRunner::run` on two short runs: one
    /// that records series under EVOLVE, one that does not under static
    /// replicas with a pending backlog.
    #[test]
    fn replay_ends_in_the_runners_statistics() {
        let mut headline = ScenarioSpec::headline(0.2);
        headline.horizon = SimDuration::from_secs(60);
        let scale = ScenarioSpec::cluster_scale(12, 4, SimDuration::from_secs(60));
        let configs = [
            RunConfig::from_spec(&headline, ManagerKind::Evolve).seed(3).build(),
            RunConfig::from_spec(&scale, ManagerKind::KubeStatic)
                .scheduler(SchedulerProfile::Evolve)
                .record_series(false)
                .seed(4)
                .build(),
        ];
        for (rep, config) in configs.into_iter().enumerate() {
            let (want, _) = timed_rep(config.clone());
            let mut rec = Recorder::new();
            let got = traced_rep(&config, &mut rec, rep as u32);
            assert_eq!(got, want, "replay of {} drifted from run()", config.scenario.name);
            assert_eq!(got.digest(), want.digest());
            assert!(got.bindings > 0 && got.events > 0 && got.ticks == 12);

            let spans = rec.spans();
            let own = self_times_ns(spans);
            let layers: u64 = spans
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.name.contains('.'))
                .map(|(_, ns)| ns)
                .sum();
            assert!(layers <= spans[0].duration_ns(), "layer self times exceed the rep");
            assert_eq!(spans.iter().filter(|s| s.name == TICK).count(), 12);
            assert!(spans.iter().all(|s| s.rep == rep as u32 && s.end_ns >= s.start_ns));
        }
    }
}
