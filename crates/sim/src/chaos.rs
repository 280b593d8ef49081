//! FoundationDB-style chaos harness: a global invariant battery
//! ([`ChaosOracle`]), seeded random fault schedules
//! ([`random_fault_events`]) and automatic fault-schedule shrinking
//! ([`shrink_events`], ddmin).
//!
//! The oracle is *observational*: it reads the simulation, the cluster and
//! the decision trace between ticks and records violations instead of
//! panicking, so a fuzz driver can harvest a failing schedule, shrink it
//! and write the scenario that ran, with the minimal `[[fault]]` list, to
//! disk as an ordinary scenario file (`ScenarioSpec::to_toml`). All checks
//! are off unless a runner opts in, so the oracle costs nothing on the
//! headline path.

use std::collections::BTreeMap;

use evolve_telemetry::trace::{ActuationOutcome, TraceEvent, TraceRing, TraceSignal};
use evolve_types::{AppId, JobId, NodeId, PodId, PriorityClass, ResourceVec, SimDuration, SimTime};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::engine::Simulation;
use crate::faults::{FaultEvent, FaultKind, FaultPlan};
use crate::pod::PodKind;

/// At most this many violations are stored verbatim; the rest only count.
const MAX_RECORDED: usize = 64;

/// Ticks an app may spend consecutively shed or below its grant floor
/// before [`ChaosOracle::check_arbitration`] flags unbounded starvation.
/// Chosen above any transient the fault battery can cause (node-crash
/// downtimes span tens of ticks; slew-limited ramp-back a handful) so a
/// firing means the arbiter genuinely wedged an app, not that overload
/// lasted a while.
const STARVATION_BOUND: u32 = 128;

/// One app's slice of an arbitration round, flattened to plain data so the
/// oracle never depends on control-crate types. Produced by the runner
/// from the capacity arbiter's outcomes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArbitrationCheck {
    /// The application.
    pub app: AppId,
    /// Its overload priority class.
    pub class: PriorityClass,
    /// Total allocation the app's controller requested.
    pub requested: ResourceVec,
    /// What the arbiter granted.
    pub granted: ResourceVec,
    /// `true` when the app was shed outright (no actuation).
    pub shed: bool,
    /// `true` when the grant was reduced only by the recovery slew limit,
    /// not by capacity pressure.
    pub slew_limited: bool,
    /// `true` when the grant sits below the starvation floor
    /// (`floor_fraction × requested`).
    pub below_floor: bool,
    /// Consecutive arbitrations spent shed or below the floor.
    pub starvation_age: u32,
}

/// One invariant violation observed by the oracle.
#[derive(Debug, Clone, PartialEq)]
pub struct OracleViolation {
    /// Simulated time of the observation.
    pub at: SimTime,
    /// Stable name of the violated check (e.g. `"gang_atomicity"`).
    pub check: String,
    /// Human-readable description of what was observed.
    pub detail: String,
}

/// The oracle's verdict for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OracleReport {
    /// The first [`MAX_RECORDED`] violations, in observation order.
    pub violations: Vec<OracleViolation>,
    /// Total violations observed (may exceed `violations.len()`).
    pub total_violations: u64,
    /// How many per-tick check batteries ran.
    pub ticks_checked: u64,
}

impl OracleReport {
    /// `true` when no invariant was violated.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// The distinct check names that fired, sorted and deduplicated.
    #[must_use]
    pub fn failed_checks(&self) -> Vec<String> {
        let mut names: Vec<String> = self.violations.iter().map(|v| v.check.clone()).collect();
        names.sort();
        names.dedup();
        names
    }
}

/// The invariant battery, checked between control ticks and at end of
/// run. Cluster-side checks read the simulation directly; controller-side
/// checks (PID freeze, checkpoint equivalence) are fed by the runner via
/// [`ChaosOracle::scan_trace`] and [`ChaosOracle::record_violation`].
#[derive(Debug, Default)]
pub struct ChaosOracle {
    report: OracleReport,
    last_now: SimTime,
    /// First-seen rank set per gang job: the conservation baseline.
    gangs: BTreeMap<JobId, Vec<u32>>,
    /// `len + dropped` watermark of the trace ring at the last scan.
    trace_seen: u64,
    /// Scratch: non-terminal ranks per job, rebuilt each tick.
    live_ranks: BTreeMap<JobId, Vec<u32>>,
}

impl ChaosOracle {
    /// A fresh oracle with no observations.
    #[must_use]
    pub fn new() -> Self {
        ChaosOracle::default()
    }

    /// Records a violation found by an external check (runner-side
    /// batteries such as checkpoint→restore equivalence).
    pub fn record_violation(&mut self, at: SimTime, check: &str, detail: String) {
        self.report.total_violations += 1;
        if self.report.violations.len() < MAX_RECORDED {
            self.report.violations.push(OracleViolation { at, check: check.to_string(), detail });
        }
    }

    /// Runs the cluster-side battery: monotone time, per-node capacity
    /// conservation, no pods on unready nodes, and gang-pod conservation
    /// across evict+requeue cycles.
    pub fn check_tick(&mut self, sim: &Simulation) {
        let now = sim.now();
        self.report.ticks_checked += 1;
        if now < self.last_now {
            self.record_violation(
                now,
                "monotone_time",
                format!(
                    "time went backwards: {} -> {}",
                    self.last_now.as_secs_f64(),
                    now.as_secs_f64()
                ),
            );
        }
        self.last_now = now;
        for v in sim.cluster().invariant_violations() {
            self.record_violation(now, "capacity_conservation", v);
        }
        for node in sim.cluster().nodes() {
            if !node.is_ready() && !node.pods().is_empty() {
                self.record_violation(
                    now,
                    "unready_node_hosts_pods",
                    format!("unready node {} still hosts {} pods", node.id(), node.pods().len()),
                );
            }
        }
        self.check_gang_conservation(sim, now);
    }

    /// No rank pod may be lost or duplicated across evict+requeue: an
    /// unfinished gang's non-terminal rank set must equal the set seen
    /// when the gang was created; a finished gang's must be empty.
    fn check_gang_conservation(&mut self, sim: &Simulation, now: SimTime) {
        self.live_ranks.clear();
        let mut live = std::mem::take(&mut self.live_ranks);
        for pod in sim.cluster().pods() {
            if let PodKind::HpcRank { job, rank, .. } = pod.spec.kind {
                if !pod.phase.is_terminal() {
                    live.entry(job).or_default().push(rank);
                }
            }
        }
        for ranks in live.values_mut() {
            ranks.sort_unstable();
        }
        for (&job, ranks) in &live {
            if ranks.windows(2).any(|w| w[0] == w[1]) {
                self.record_violation(
                    now,
                    "gang_pod_duplicated",
                    format!("job {job:?} has duplicate live rank pods: {ranks:?}"),
                );
            }
            match self.gangs.get(&job) {
                None => {
                    self.gangs.insert(job, ranks.clone());
                }
                Some(expected) if expected != ranks => {
                    let detail = format!(
                        "job {job:?} live ranks {ranks:?} != expected {expected:?} (pod lost or leaked)"
                    );
                    self.record_violation(now, "gang_pod_conservation", detail);
                }
                Some(_) => {}
            }
        }
        self.live_ranks = live;
    }

    /// Gang atomicity: if the scheduler bound at least one member of a
    /// gang this cycle, no member of that gang may be left pending — a
    /// rollback must undo the whole placement or none of it.
    pub fn check_gang_atomicity(&mut self, sim: &Simulation, newly_bound: &[PodId]) {
        if newly_bound.is_empty() {
            return;
        }
        let now = sim.now();
        let mut touched: Vec<JobId> = Vec::new();
        for &pod in newly_bound {
            if let Ok(p) = sim.cluster().pod(pod) {
                if let PodKind::HpcRank { job, .. } = p.spec.kind {
                    if !touched.contains(&job) {
                        touched.push(job);
                    }
                }
            }
        }
        if touched.is_empty() {
            return;
        }
        for pod in sim.cluster().pods() {
            if let PodKind::HpcRank { job, rank, .. } = pod.spec.kind {
                if pod.is_pending() && touched.contains(&job) {
                    self.record_violation(
                        now,
                        "gang_atomicity",
                        format!("job {job:?} rank {rank} left pending after a cycle that bound gang members"),
                    );
                }
            }
        }
    }

    /// Scans trace events appended since the last scan for controller
    /// discipline: a decision must never be `Applied` on a stale or
    /// missing signal (the PID must freeze / hold instead).
    pub fn scan_trace(&mut self, trace: &TraceRing) {
        let total = trace.len() as u64 + trace.dropped();
        let new = usize::try_from(total - self.trace_seen).unwrap_or(usize::MAX).min(trace.len());
        self.trace_seen = total;
        for ev in trace.events().skip(trace.len() - new) {
            if let TraceEvent::Control(c) = ev {
                if c.signal != TraceSignal::Fresh && c.outcome == ActuationOutcome::Applied {
                    self.record_violation(
                        c.at,
                        "pid_freeze",
                        format!(
                            "app {:?} applied a decision on a {} signal at tick {}",
                            c.app,
                            c.signal.as_str(),
                            c.tick
                        ),
                    );
                }
            }
        }
    }

    /// Runs the arbitration battery over one round of grant outcomes:
    ///
    /// * **Capacity conservation** — the sum of all grants must fit
    ///   within ready capacity; the arbiter must never promise resources
    ///   the cluster does not have.
    /// * **No priority inversion** — a `Preemptible` app must not hold a
    ///   non-zero grant while any `Critical` app sits below its floor for
    ///   capacity reasons (a `Critical` app ramping back through the slew
    ///   limiter is self-inflicted and excluded).
    /// * **Bounded starvation** — no `Critical` app may stay shed or
    ///   below its floor for more than [`STARVATION_BOUND`] consecutive
    ///   arbitrations.
    pub fn check_arbitration(
        &mut self,
        at: SimTime,
        entries: &[ArbitrationCheck],
        ready_capacity: ResourceVec,
    ) {
        let granted_total: ResourceVec = entries.iter().map(|e| e.granted).sum();
        if !granted_total.fits_within(&ready_capacity) {
            self.record_violation(
                at,
                "arbiter_capacity_conservation",
                format!(
                    "granted total {granted_total:?} exceeds ready capacity {ready_capacity:?}"
                ),
            );
        }
        let critical_starved: Vec<&ArbitrationCheck> = entries
            .iter()
            .filter(|e| {
                e.class == PriorityClass::Critical && e.below_floor && !e.slew_limited && !e.shed
            })
            .collect();
        if !critical_starved.is_empty() {
            for e in entries {
                if e.class == PriorityClass::Preemptible
                    && !e.shed
                    && e.granted != ResourceVec::ZERO
                {
                    self.record_violation(
                        at,
                        "arbiter_priority_inversion",
                        format!(
                            "preemptible app {:?} holds a grant while critical app {:?} is below its floor",
                            e.app, critical_starved[0].app
                        ),
                    );
                }
            }
        }
        for e in entries {
            if e.class == PriorityClass::Critical && e.starvation_age > STARVATION_BOUND {
                self.record_violation(
                    at,
                    "arbiter_bounded_starvation",
                    format!(
                        "critical app {:?} starved for {} consecutive arbitrations (bound {})",
                        e.app, e.starvation_age, STARVATION_BOUND
                    ),
                );
            }
        }
    }

    /// Final battery: one last tick check plus the remaining trace
    /// suffix, then the report.
    #[must_use]
    pub fn finish(mut self, sim: &Simulation, trace: &TraceRing) -> OracleReport {
        self.check_tick(sim);
        self.scan_trace(trace);
        self.report
    }

    /// The report accumulated so far (the run keeps going).
    #[must_use]
    pub fn report(&self) -> &OracleReport {
        &self.report
    }
}

// ---------------------------------------------------------------------
// Fault-schedule shrinking (ddmin)
// ---------------------------------------------------------------------

/// Delta-debugs a failing fault schedule to a locally minimal one:
/// removes event chunks (halves first, then single events), then
/// repeatedly halves durations/lags/cycles. `still_fails` must return
/// `true` when the candidate schedule still reproduces the violation; it
/// is never called with an empty schedule.
pub fn shrink_events<F>(events: &[FaultEvent], mut still_fails: F) -> Vec<FaultEvent>
where
    F: FnMut(&[FaultEvent]) -> bool,
{
    let mut cur: Vec<FaultEvent> = events.to_vec();
    if cur.is_empty() {
        return cur;
    }
    // Phase 1+2: ddmin chunk removal, from halves down to single events.
    let mut chunk = cur.len().div_ceil(2).max(1);
    loop {
        let mut removed = false;
        let mut start = 0;
        while start < cur.len() && cur.len() > 1 {
            let end = (start + chunk).min(cur.len());
            let mut cand = Vec::with_capacity(cur.len() - (end - start));
            cand.extend_from_slice(&cur[..start]);
            cand.extend_from_slice(&cur[end..]);
            if !cand.is_empty() && still_fails(&cand) {
                cur = cand;
                removed = true;
            } else {
                start = end;
            }
        }
        if chunk == 1 {
            if !removed {
                break;
            }
        } else {
            chunk = (chunk / 2).max(1);
        }
    }
    // Phase 3: shorten durations (and lags / flap cycles) greedily.
    for i in 0..cur.len() {
        for _ in 0..32 {
            let Some(smaller) = halved_kind(&cur[i].kind) else {
                break;
            };
            let prev = std::mem::replace(&mut cur[i].kind, smaller);
            if !still_fails(&cur) {
                cur[i].kind = prev;
                break;
            }
        }
    }
    cur
}

/// The next smaller version of a fault, or `None` when it is already at
/// its floor (1 s durations, 1 flap cycle).
fn halved_kind(kind: &FaultKind) -> Option<FaultKind> {
    const FLOOR: SimDuration = SimDuration::from_secs(1);
    let halve = |d: SimDuration| -> Option<SimDuration> { (d > FLOOR).then(|| (d / 2).max(FLOOR)) };
    match *kind {
        FaultKind::NodeCrash { node, downtime: Some(d) } => {
            halve(d).map(|d| FaultKind::NodeCrash { node, downtime: Some(d) })
        }
        FaultKind::NodeCrash { .. } | FaultKind::ControllerCrash => None,
        FaultKind::ScrapeBlackout { app, duration } => {
            halve(duration).map(|duration| FaultKind::ScrapeBlackout { app, duration })
        }
        FaultKind::MetricNoise { app, duration, cv } => {
            halve(duration).map(|duration| FaultKind::MetricNoise { app, duration, cv })
        }
        FaultKind::ControlStall { duration } => {
            halve(duration).map(|duration| FaultKind::ControlStall { duration })
        }
        FaultKind::ActuationDrop { duration } => {
            halve(duration).map(|duration| FaultKind::ActuationDrop { duration })
        }
        FaultKind::ActuationDelay { duration, lag } => halve(duration)
            .map(|duration| FaultKind::ActuationDelay { duration, lag })
            .or_else(|| halve(lag).map(|lag| FaultKind::ActuationDelay { duration, lag })),
        FaultKind::ActuationPartial { duration, fraction } => {
            halve(duration).map(|duration| FaultKind::ActuationPartial { duration, fraction })
        }
        FaultKind::NodeFlap { node, cycles, period } => (cycles > 1)
            .then(|| FaultKind::NodeFlap { node, cycles: (cycles / 2).max(1), period })
            .or_else(|| halve(period).map(|period| FaultKind::NodeFlap { node, cycles, period })),
    }
}

/// Builds a scheduled-only plan from an event list (the shrinker and the
/// replay path both work on plain event lists).
///
/// # Panics
///
/// Panics when an event fails [`FaultKind::validate`]; shrunk events stay
/// valid by construction.
#[must_use]
pub fn plan_from_events(events: &[FaultEvent]) -> FaultPlan {
    events.iter().fold(FaultPlan::new(), |p, ev| p.with_event(ev.at, ev.kind.clone()))
}

// ---------------------------------------------------------------------
// Random fault-plan generation
// ---------------------------------------------------------------------

/// Draws a seeded random scheduled-only fault schedule over `[0,
/// horizon)`: every fault class including the actuation-path kinds, with
/// parameters scaled to the horizon. Deterministic in `seed`.
#[must_use]
pub fn random_fault_events(
    seed: u64,
    horizon: SimDuration,
    nodes: usize,
    apps: usize,
    max_events: usize,
) -> Vec<FaultEvent> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xc4a0_5bad);
    let horizon_s = horizon.as_secs_f64().max(10.0) as u64;
    // The vendored rand stub exposes only `gen::<f64>()`/`gen_range_f64`;
    // integer ranges are derived from the uniform f64 draw.
    let uniform = |rng: &mut ChaCha8Rng, lo: u64, hi: u64| -> u64 {
        let hi = hi.max(lo + 1);
        (lo + (rng.gen::<f64>() * (hi - lo) as f64) as u64).min(hi - 1)
    };
    let count = uniform(&mut rng, 1, max_events.max(1) as u64 + 1) as usize;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let at = SimTime::from_secs(uniform(&mut rng, 1, horizon_s));
        let dur = SimDuration::from_secs(uniform(&mut rng, 5, (horizon_s / 3).max(6)));
        let kind = match uniform(&mut rng, 0, 9) {
            0 => FaultKind::NodeCrash {
                node: NodeId::new(uniform(&mut rng, 0, nodes.max(1) as u64) as u32),
                downtime: if rng.gen_bool(0.8) { Some(dur) } else { None },
            },
            1 => FaultKind::ScrapeBlackout { app: None, duration: dur },
            2 => FaultKind::ScrapeBlackout {
                app: Some(AppId::new(uniform(&mut rng, 0, apps.max(1) as u64) as u32)),
                duration: dur,
            },
            3 => FaultKind::MetricNoise {
                app: None,
                duration: dur,
                cv: rng.gen_range_f64(0.05, 0.8),
            },
            4 => FaultKind::ControlStall { duration: dur },
            5 => FaultKind::ActuationDrop { duration: dur },
            6 => FaultKind::ActuationDelay {
                duration: dur,
                lag: SimDuration::from_secs(uniform(&mut rng, 1, 30)),
            },
            7 => {
                FaultKind::ActuationPartial { duration: dur, fraction: rng.gen_range_f64(0.1, 1.0) }
            }
            _ => FaultKind::NodeFlap {
                node: NodeId::new(uniform(&mut rng, 0, nodes.max(1) as u64) as u32),
                cycles: uniform(&mut rng, 1, 6) as u32,
                period: SimDuration::from_secs(uniform(&mut rng, 4, 40)),
            },
        };
        out.push(FaultEvent { at, kind });
    }
    out.sort_by_key(|ev| ev.at);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use evolve_workload::{ReproSpec, ScenarioSpec};

    fn ev(at: u64, kind: FaultKind) -> FaultEvent {
        FaultEvent { at: SimTime::from_secs(at), kind }
    }

    fn stall(at: u64, dur: u64) -> FaultEvent {
        ev(at, FaultKind::ControlStall { duration: SimDuration::from_secs(dur) })
    }

    #[test]
    fn shrinker_finds_single_culprit() {
        // The "bug" fires iff the schedule contains the stall at t=70.
        let events: Vec<FaultEvent> = (0..16).map(|i| stall(10 + i * 10, 20)).collect();
        let mut calls = 0u32;
        let minimal = shrink_events(&events, |cand| {
            calls += 1;
            cand.iter().any(|e| e.at == SimTime::from_secs(70))
        });
        assert_eq!(minimal.len(), 1);
        assert_eq!(minimal[0].at, SimTime::from_secs(70));
        assert!(calls < 200, "ddmin should need far fewer runs than 2^16");
    }

    #[test]
    fn shrinker_keeps_interacting_pair() {
        // The bug needs both t=30 and t=110 present.
        let events: Vec<FaultEvent> = (0..12).map(|i| stall(10 + i * 10, 40)).collect();
        let minimal = shrink_events(&events, |cand| {
            let has = |t: u64| cand.iter().any(|e| e.at == SimTime::from_secs(t));
            has(30) && has(110)
        });
        assert_eq!(minimal.len(), 2);
    }

    #[test]
    fn shrinker_halves_durations_to_the_floor() {
        let events = vec![stall(10, 64)];
        let minimal = shrink_events(&events, |_| true);
        assert_eq!(minimal.len(), 1);
        let FaultKind::ControlStall { duration } = minimal[0].kind else {
            panic!("kind changed");
        };
        assert_eq!(duration, SimDuration::from_secs(1));
    }

    /// The 10-node, 5-app scenario a schedule is written into, as the
    /// fuzz driver does: the file is the spec that ran plus `[repro]`.
    fn spec_with(horizon: SimDuration, faults: Vec<FaultEvent>) -> ScenarioSpec {
        let mut spec = ScenarioSpec::builtin("interference").unwrap();
        spec.horizon = horizon;
        spec.faults = faults;
        spec.repro = Some(ReproSpec { seed: 1234, violation: "gang_atomicity".to_string() });
        spec
    }

    #[test]
    fn fault_schedules_round_trip_through_scenario_toml() {
        let mut labels = std::collections::BTreeSet::new();
        let (mut scoped, mut permanent) = (false, false);
        for horizon in [SimDuration::from_secs(240), SimDuration::from_secs(600)] {
            for seed in 0..64 {
                let events = random_fault_events(seed, horizon, 10, 5, 12);
                for ev in &events {
                    labels.insert(ev.kind.label());
                    scoped |= matches!(ev.kind, FaultKind::ScrapeBlackout { app: Some(_), .. });
                    permanent |= matches!(ev.kind, FaultKind::NodeCrash { downtime: None, .. });
                }
                let spec = spec_with(horizon, events);
                let toml = spec.to_toml();
                let back = ScenarioSpec::from_toml_str(&toml)
                    .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{toml}"));
                assert_eq!(back, spec, "seed {seed}");
                // Deterministic: serializing again yields the same bytes.
                assert_eq!(back.to_toml(), toml);
            }
        }
        // The generator draws every kind but `controller_crash`, which the
        // ladders below cover.
        assert_eq!(labels.len(), 8, "the generator stopped drawing a kind: {labels:?}");
        assert!(scoped && permanent, "no app-scoped blackout or no permanent crash was drawn");

        // Every step of the shrinker's halving ladder, from odd microsecond
        // values, down to the floor.
        let us = SimDuration::from_micros;
        let at = SimTime::ZERO + us(61_234_567);
        let ladders = [
            FaultKind::NodeCrash { node: NodeId::new(9), downtime: Some(us(40_000_001)) },
            FaultKind::ScrapeBlackout { app: Some(AppId::new(4)), duration: us(15_000_003) },
            FaultKind::MetricNoise { app: Some(AppId::new(0)), duration: us(30_000_007), cv: 0.1 },
            FaultKind::MetricNoise { app: None, duration: us(9_999_999), cv: 0.7 },
            FaultKind::ControlStall { duration: us(12_345_679) },
            FaultKind::ControllerCrash,
            FaultKind::ActuationDrop { duration: us(33_000_001) },
            FaultKind::ActuationDelay { duration: us(20_000_001), lag: us(7_000_001) },
            FaultKind::ActuationPartial { duration: us(18_000_001), fraction: 1.0 / 3.0 },
            FaultKind::NodeFlap { node: NodeId::new(0), cycles: 5, period: us(10_000_001) },
        ];
        for first in ladders {
            let mut rungs = vec![first];
            while let Some(next) = halved_kind(rungs.last().expect("non-empty")) {
                rungs.push(next);
            }
            let events: Vec<FaultEvent> =
                rungs.into_iter().map(|kind| FaultEvent { at, kind }).collect();
            let spec = spec_with(SimDuration::from_secs(600), events);
            let back = ScenarioSpec::from_toml_str(&spec.to_toml()).expect("ladder round trip");
            assert_eq!(back.faults, spec.faults);
        }
    }

    #[test]
    fn random_events_are_seed_deterministic_and_valid() {
        let horizon = SimDuration::from_secs(600);
        let a = random_fault_events(9, horizon, 6, 3, 12);
        let b = random_fault_events(9, horizon, 6, 3, 12);
        assert_eq!(a, b);
        assert!(!a.is_empty() && a.len() <= 12);
        for ev in &a {
            ev.kind.validate().expect("generated faults are valid");
            assert!(ev.at < SimTime::ZERO + horizon);
        }
        let c = random_fault_events(10, horizon, 6, 3, 12);
        assert_ne!(a, c, "different seeds draw different schedules");
        // The generated schedule builds a valid plan.
        let plan = plan_from_events(&a);
        assert!(plan.validate(horizon).is_ok());
    }

    #[test]
    fn oracle_reports_clean_on_untouched_cluster() {
        use crate::{ClusterConfig, NodeShape, Simulation, SimulationConfig};
        let scenario = ScenarioSpec::builtin("single_diurnal").unwrap().build();
        let sim = Simulation::new(
            SimulationConfig::default(),
            ClusterConfig::uniform(4, NodeShape::default()),
            &scenario.mix,
            42,
        );
        let mut oracle = ChaosOracle::new();
        oracle.check_tick(&sim);
        let trace = TraceRing::new(64);
        let report = oracle.finish(&sim, &trace);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert_eq!(report.ticks_checked, 2);
    }

    #[test]
    fn oracle_flags_applied_on_degraded_signal() {
        use evolve_telemetry::trace::ControlTrace;
        use evolve_types::ResourceVec;
        let mut trace = TraceRing::new(16);
        trace.push(TraceEvent::Control(ControlTrace {
            tick: 3,
            at: SimTime::from_secs(15),
            app: AppId::new(0),
            signal: TraceSignal::Stale,
            measured: None,
            rate_rps: 0.0,
            replicas: 2,
            per_replica: ResourceVec::ZERO,
            outcome: ActuationOutcome::Applied,
            resize_failures: 0,
            explain: None,
        }));
        let mut oracle = ChaosOracle::new();
        oracle.scan_trace(&trace);
        assert_eq!(oracle.report().total_violations, 1);
        assert_eq!(oracle.report().violations[0].check, "pid_freeze");
        // Rescanning must not double-count already-seen events.
        oracle.scan_trace(&trace);
        assert_eq!(oracle.report().total_violations, 1);
    }
}
