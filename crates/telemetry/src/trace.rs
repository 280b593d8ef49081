//! Structured decision-trace subsystem.
//!
//! Aggregate outcomes (CSV series, violation counts) say *what* happened;
//! this module records *why*: every control tick emits a [`ControlTrace`]
//! (PID term breakdown, tuner gains, predictor forecast, degradation-guard
//! state, chosen vs suppressed actuation), every scheduler cycle emits
//! [`SchedTrace`] records (per-plugin scores of the chosen node, filter
//! rejections, gang admit/rollback, preemption victims, requeue-backoff
//! state) for the pods it attempts and one [`DeferredTrace`] for those its
//! requeue backoff holds back, and the runner emits [`SpanTrace`] lifecycle
//! spans whose wall timings feed perf accounting.
//!
//! Events land in a bounded [`TraceRing`] — always on, sized by
//! [`TraceConfig::capacity`], oldest-first eviction with a drop counter —
//! and can be dumped as deterministic JSONL. Determinism rules:
//!
//! * fixed key order per record type, floats rendered with Rust's
//!   shortest-roundtrip `{}` formatting (same bits → same text),
//!   non-finite floats rendered as `null`;
//! * wall-clock span durations are kept in memory for perf accounting but
//!   **excluded** from the dump, so two same-seed runs produce
//!   byte-identical JSONL.

use std::collections::VecDeque;
use std::fmt::Write as _;
use std::path::PathBuf;

use evolve_types::{AppId, JobId, NodeId, PodId, ResourceVec, SimTime};

/// Configuration of the decision-trace ring, carried by the runner config.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceConfig {
    /// Maximum events retained; older events are evicted (and counted as
    /// dropped) once the ring is full. `0` disables capture entirely.
    pub capacity: usize,
    /// When set, the runner writes the ring as JSONL to this path at the
    /// end of the run.
    pub dump: Option<PathBuf>,
}

/// The default ring capacity, and the most events a ring reserves room for
/// up front.
const DEFAULT_CAPACITY: usize = 16_384;

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { capacity: DEFAULT_CAPACITY, dump: None }
    }
}

impl TraceConfig {
    /// A config that captures nothing (capacity 0).
    #[must_use]
    pub fn disabled() -> Self {
        TraceConfig { capacity: 0, dump: None }
    }

    /// Sets the ring capacity.
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Requests a JSONL dump of the ring to `path` at the end of the run.
    #[must_use]
    pub fn dump_to(mut self, path: impl Into<PathBuf>) -> Self {
        self.dump = Some(path.into());
        self
    }
}

/// Signal quality of the control window a decision was made on, as seen
/// by the trace (mirrors the core crate's `SignalQuality` without a
/// dependency cycle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceSignal {
    /// A fresh measurement window arrived this tick.
    Fresh,
    /// The last known window was replayed (scrape gap).
    Stale,
    /// No window at all (blackout); the policy ran dark.
    Missing,
}

impl TraceSignal {
    /// Lowercase label used in the JSONL dump.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            TraceSignal::Fresh => "fresh",
            TraceSignal::Stale => "stale",
            TraceSignal::Missing => "missing",
        }
    }
}

/// What happened to the policy's decision this tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActuationOutcome {
    /// The decision was actuated on the cluster.
    Applied,
    /// The decision repeated a recently failed resize and was suppressed
    /// by the retry-backoff.
    Suppressed,
    /// The signal was degraded; the guard held (or floored) the previous
    /// allocation instead of trusting the controller.
    Held,
    /// The policy returned no decision (e.g. static baseline, latch tick).
    NoDecision,
    /// An injected actuation fault silently swallowed the request — the
    /// controller believes it actuated but the cluster never saw it.
    Dropped,
    /// An injected actuation fault deferred the request; it reaches the
    /// cluster after the sampled lag.
    Delayed,
    /// The capacity arbiter shed the app outright: the policy decided, but
    /// nothing was actuated and the app's offered load is rejected at
    /// admission until a later arbitration grants it capacity again.
    Shed,
}

impl ActuationOutcome {
    /// Lowercase label used in the JSONL dump.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ActuationOutcome::Applied => "applied",
            ActuationOutcome::Suppressed => "suppressed",
            ActuationOutcome::Held => "held",
            ActuationOutcome::NoDecision => "no-decision",
            ActuationOutcome::Dropped => "dropped",
            ActuationOutcome::Delayed => "delayed",
            ActuationOutcome::Shed => "shed",
        }
    }
}

/// One PID's term breakdown for the step that produced a decision:
/// the proportional/integral/derivative contributions and the clamped
/// output actually emitted.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PidTermsTrace {
    /// Proportional contribution (`kp * error`).
    pub p: f64,
    /// Integral contribution (`ki * integral`), post conditional
    /// integration.
    pub i: f64,
    /// Derivative contribution (`kd * filtered_derivative`).
    pub d: f64,
    /// Final output after output clamping and slew limiting.
    pub output: f64,
}

/// The controller internals behind one decision — everything the ablation
/// narratives need to explain a scale action.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlExplain {
    /// Per-resource PID term breakdown, indexed like `Resource::ALL`.
    pub pid: [PidTermsTrace; 4],
    /// Per-resource `(kp, ki, kd)` gains after any RLS adaptation.
    pub gains: [(f64, f64, f64); 4],
    /// Error attribution shares used this period (sums to 1).
    pub attribution: ResourceVec,
    /// Controller hit a per-replica ceiling (scale-out signal).
    pub saturated_up: bool,
    /// Every dimension at floor with negative error (scale-in signal).
    pub saturated_down: bool,
    /// Cumulative gain adaptations executed by the tuners.
    pub adaptations: u64,
    /// Consecutive dark (missing-signal) ticks seen by the guard.
    pub dark_ticks: u32,
    /// Whether the degradation watchdog is tripped.
    pub watchdog_tripped: bool,
    /// Margin-inflated load forecast used for predictive scaling.
    pub forecast: f64,
    /// Raw (uninflated) Holt forecast.
    pub raw_forecast: f64,
    /// Current predictor trend estimate (per-second slope).
    pub trend: f64,
    /// Filtered measurement the control error was computed from.
    pub smoothed: f64,
    /// Margin-adjusted control error fed to the PID bank.
    pub error: f64,
}

/// One control-tick decision record for one app.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlTrace {
    /// Control tick index (monotone per run).
    pub tick: u64,
    /// Simulated time of the tick.
    pub at: SimTime,
    /// The app the decision concerns.
    pub app: AppId,
    /// Quality of the measurement window behind the decision.
    pub signal: TraceSignal,
    /// Raw PLO measurement of the window (`None` when nothing measured).
    pub measured: Option<f64>,
    /// Offered load over the window, requests (or work units) per second.
    pub rate_rps: f64,
    /// Replica target of the decision (current replicas when none).
    pub replicas: u32,
    /// Per-replica allocation target of the decision.
    pub per_replica: ResourceVec,
    /// What happened to the decision.
    pub outcome: ActuationOutcome,
    /// Resize failures observed since the last window.
    pub resize_failures: u32,
    /// Controller internals (`None` for policies that expose none).
    /// Boxed: the explain block is ~3× the rest of the record, and most
    /// ring events are spans or baseline decisions without one.
    pub explain: Option<Box<ControlExplain>>,
}

/// Why a pod ended up where it did in one scheduler cycle.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedOutcome {
    /// Bound to a node. `score` is the weighted plugin score of the
    /// chosen node (`None` for gang members and preemption placements,
    /// which are placed by the two-pass/eviction path).
    Bound {
        /// The node the pod was bound to.
        node: NodeId,
        /// Weighted plugin score of the winning node.
        score: Option<f64>,
    },
    /// No feasible node (even after considering preemption).
    Unschedulable,
    /// Gang admission failed and partial placements were rolled back.
    GangRollback,
}

impl SchedOutcome {
    /// Lowercase label used in the JSONL dump.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            SchedOutcome::Bound { .. } => "bound",
            SchedOutcome::Unschedulable => "unschedulable",
            SchedOutcome::GangRollback => "gang-rollback",
        }
    }
}

/// One per-pod scheduling decision record.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedTrace {
    /// Scheduler cycle counter (monotone per run).
    pub cycle: u64,
    /// Simulated time of the cycle.
    pub at: SimTime,
    /// The pod being scheduled.
    pub pod: PodId,
    /// The app the pod belongs to.
    pub app: AppId,
    /// The gang job, for all-or-nothing units.
    pub gang: Option<JobId>,
    /// The decision.
    pub outcome: SchedOutcome,
    /// Per-scorer weighted score of the chosen node (empty when nothing
    /// was chosen or detail was unavailable).
    pub scores: SchedScores,
    /// Nodes the one filter (`node-fits`) rejected on this attempt
    /// (`None` when the attempt did not scan nodes).
    pub filtered: Option<u32>,
    /// Nodes that passed every filter.
    pub feasible: u32,
    /// Pods evicted to make room (preemption path).
    pub victims: Vec<PodId>,
    /// Consecutive scheduling failures recorded by the requeue backoff.
    pub backoff_failures: u32,
}

/// Name of the scheduler's one filter (the `NodeResourcesFit` plugin) in
/// the dump.
const NODE_FITS: &str = "node-fits";

/// The most scorers a scheduler profile weighs, and so the most
/// contributions a [`SchedScores`] holds.
pub const MAX_SCORERS: usize = 3;

/// The chosen node's weighted score contribution per scorer, inline: the
/// profile's scorer names, in the order it sums them, beside one value
/// each. A record owns no buffer, so tracing a placement allocates
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SchedScores {
    names: &'static [&'static str],
    values: [f64; MAX_SCORERS],
}

impl SchedScores {
    /// `names[i]` contributed `values[i]`; values past the names are
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics with more than [`MAX_SCORERS`] names.
    #[must_use]
    pub fn new(names: &'static [&'static str], values: [f64; MAX_SCORERS]) -> Self {
        assert!(names.len() <= MAX_SCORERS, "at most {MAX_SCORERS} scorers");
        SchedScores { names, values }
    }

    /// Whether no scorer is recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// `(name, weighted contribution)` per scorer, in summation order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.names.iter().copied().zip(self.values)
    }
}

/// The pods one scheduler cycle deferred by requeue backoff — not
/// attempted, not penalised further — as one record: a standing backlog
/// would otherwise push a record per pod per cycle and turn the ring over
/// in a few cycles, evicting every control decision with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeferredTrace {
    /// Scheduler cycle counter (monotone per run).
    pub cycle: u64,
    /// Simulated time of the cycle.
    pub at: SimTime,
    /// Pods deferred, a deferred gang's members one by one.
    pub count: u32,
    /// The first pod deferred, in the cycle's visit order.
    pub first: PodId,
    /// The last pod deferred, in the cycle's visit order.
    pub last: PodId,
}

/// Which runner phase a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Manager tick: crash recovery, scrape, policy decisions, actuation.
    Control,
    /// Scheduler cycle + binding/preemption application.
    Sched,
    /// Cluster snapshot + utilisation and metric series recording.
    Record,
}

impl SpanKind {
    /// Lowercase label used in the JSONL dump.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            SpanKind::Control => "control",
            SpanKind::Sched => "sched",
            SpanKind::Record => "record",
        }
    }
}

/// A runner lifecycle span: the wall of the run's stage pieces it covers,
/// excluded from the JSONL dump (determinism rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanTrace {
    /// Control tick index the span belongs to.
    pub tick: u64,
    /// Simulated time of the tick.
    pub at: SimTime,
    /// Phase covered.
    pub kind: SpanKind,
    /// Wall-clock nanoseconds spent (in-memory only, never dumped).
    pub wall_ns: u64,
}

/// One injected fault, realized for this run. Pushed by the runner at
/// run start (one per realized scheduled/stochastic event) so dump
/// consumers can correlate decisions with the faults around them. Fields
/// are plain labels/numbers: telemetry stays independent of the
/// simulator's fault types.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTrace {
    /// When the fault begins.
    pub at: SimTime,
    /// Stable fault-kind label (e.g. `"node_crash"`, `"actuation_drop"`).
    pub kind: &'static str,
    /// Fault length in seconds (`None` for instantaneous or permanent
    /// faults).
    pub duration_s: Option<f64>,
    /// Affected node, for node-scoped faults.
    pub node: Option<u32>,
    /// Affected app, for app-scoped faults (`None` = cluster-wide).
    pub app: Option<AppId>,
}

/// One capacity-arbitration verdict for one app on one control tick.
/// Pushed by the runner after the cluster-level arbiter has reconciled
/// all per-app requests against ready capacity. Class and decision are
/// plain labels so telemetry stays independent of the control crate's
/// types.
#[derive(Debug, Clone, PartialEq)]
pub struct ArbitrationTrace {
    /// Control tick index (monotone per run).
    pub tick: u64,
    /// Simulated time of the tick.
    pub at: SimTime,
    /// The app the verdict concerns.
    pub app: AppId,
    /// Priority-class label (`"critical"`, `"standard"`, `"preemptible"`).
    pub class: &'static str,
    /// Total allocation the app's controller requested.
    pub requested: ResourceVec,
    /// Total allocation the arbiter granted.
    pub granted: ResourceVec,
    /// Decision label (`"full"`, `"oversubscribed"`, `"slew-limited"`,
    /// `"shed"`).
    pub decision: &'static str,
    /// Fraction of the request granted, in `[0, 1]`.
    pub grant_fraction: f64,
    /// Consecutive arbitrations the app has spent shed or below its
    /// starvation floor.
    pub starvation_age: u32,
    /// Whether the cluster was in a capacity crunch on this tick.
    pub in_crunch: bool,
}

/// One entry in the trace ring.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A control-tick decision.
    Control(ControlTrace),
    /// A scheduler placement decision.
    Sched(SchedTrace),
    /// The pods a scheduler cycle deferred by requeue backoff.
    Deferred(DeferredTrace),
    /// A runner lifecycle span.
    Span(SpanTrace),
    /// An injected fault realized for this run.
    Fault(FaultTrace),
    /// A capacity-arbitration verdict.
    Arbitration(ArbitrationTrace),
}

/// Bounded ring of trace events: pushes are O(1), memory is capped at
/// `capacity` events, and overflow evicts the oldest event while counting
/// the drop — tracing can stay always-on without unbounded growth.
#[derive(Debug, Default)]
pub struct TraceRing {
    capacity: usize,
    events: VecDeque<TraceEvent>,
    dropped: u64,
    /// The explain boxes of evicted control records, which
    /// [`TraceRing::boxed_explain`] refills: a full ring turns its boxes
    /// over instead of allocating one per decision. Boxed on purpose: a
    /// box leaves here to become a record's.
    #[allow(clippy::vec_box)]
    spare_explains: Vec<Box<ControlExplain>>,
}

impl TraceRing {
    /// Creates a ring retaining at most `capacity` events. Room for up to
    /// the default capacity (16 384 events) is reserved here, once, so a
    /// run's ring never grows by doubling while it fills; a larger ring
    /// grows past that on demand.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let events = VecDeque::with_capacity(capacity.min(DEFAULT_CAPACITY));
        TraceRing { capacity, events, dropped: 0, spare_explains: Vec::new() }
    }

    /// `explain` boxed for a [`ControlTrace`] of this ring: in the box of a
    /// control record the ring evicted, while it keeps one.
    pub fn boxed_explain(&mut self, explain: ControlExplain) -> Box<ControlExplain> {
        match self.spare_explains.pop() {
            Some(mut spare) => {
                *spare = explain;
                spare
            }
            None => Box::new(explain),
        }
    }

    /// Appends an event, evicting the oldest when full. With capacity 0
    /// every push is counted as dropped and nothing is retained.
    pub fn push(&mut self, event: TraceEvent) {
        if self.capacity == 0 {
            self.dropped += 1;
            return;
        }
        if self.events.len() >= self.capacity {
            if self.dropped == 0 {
                // The ring is full for the first time: room for every box
                // it holds, the most it can hand back before it holds more.
                let boxes = self.control().filter(|c| c.explain.is_some()).count();
                self.spare_explains.reserve(boxes);
            }
            if let Some(TraceEvent::Control(ControlTrace { explain: Some(spare), .. })) =
                self.events.pop_front()
            {
                self.spare_explains.push(spare);
            }
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the ring holds no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events evicted (or rejected, for capacity 0) since creation.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Retained control decisions, oldest first.
    pub fn control(&self) -> impl Iterator<Item = &ControlTrace> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Control(c) => Some(c),
            _ => None,
        })
    }

    /// Retained scheduling decisions, oldest first.
    pub fn sched(&self) -> impl Iterator<Item = &SchedTrace> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Sched(s) => Some(s),
            _ => None,
        })
    }

    /// Retained per-cycle backoff deferrals, oldest first.
    pub fn deferred(&self) -> impl Iterator<Item = &DeferredTrace> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Deferred(d) => Some(d),
            _ => None,
        })
    }

    /// Retained lifecycle spans, oldest first.
    pub fn spans(&self) -> impl Iterator<Item = &SpanTrace> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Span(s) => Some(s),
            _ => None,
        })
    }

    /// Retained injected-fault records, oldest first.
    pub fn faults(&self) -> impl Iterator<Item = &FaultTrace> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Fault(f) => Some(f),
            _ => None,
        })
    }

    /// Retained capacity-arbitration verdicts, oldest first.
    pub fn arbitrations(&self) -> impl Iterator<Item = &ArbitrationTrace> {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Arbitration(a) => Some(a),
            _ => None,
        })
    }

    /// Renders the ring as deterministic JSONL: one event per line,
    /// oldest first, fixed key order, shortest-roundtrip float text,
    /// wall-clock fields excluded. Two same-seed runs produce
    /// byte-identical output.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 160);
        for event in &self.events {
            match event {
                TraceEvent::Control(c) => write_control(&mut out, c),
                TraceEvent::Sched(s) => write_sched(&mut out, s),
                TraceEvent::Deferred(d) => write_deferred(&mut out, d),
                TraceEvent::Span(s) => write_span(&mut out, s),
                TraceEvent::Fault(f) => write_fault(&mut out, f),
                TraceEvent::Arbitration(a) => write_arbitration(&mut out, a),
            }
            out.push('\n');
        }
        out
    }
}

/// Writes a float as a JSON value: shortest-roundtrip text for finite
/// values, `null` for NaN/infinities (which are not valid JSON).
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_opt_f64(out: &mut String, v: Option<f64>) {
    match v {
        Some(v) => push_f64(out, v),
        None => out.push_str("null"),
    }
}

fn push_resource_vec(out: &mut String, v: &ResourceVec) {
    out.push('[');
    for (i, r) in evolve_types::Resource::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_f64(out, v[*r]);
    }
    out.push(']');
}

fn write_control(out: &mut String, c: &ControlTrace) {
    let _ = write!(out, "{{\"type\":\"control\",\"tick\":{},\"at_s\":", c.tick);
    push_f64(out, c.at.as_secs_f64());
    let _ =
        write!(out, ",\"app\":{},\"signal\":\"{}\",\"measured\":", c.app.raw(), c.signal.as_str());
    push_opt_f64(out, c.measured);
    out.push_str(",\"rate_rps\":");
    push_f64(out, c.rate_rps);
    let _ = write!(out, ",\"replicas\":{},\"per_replica\":", c.replicas);
    push_resource_vec(out, &c.per_replica);
    let _ = write!(
        out,
        ",\"outcome\":\"{}\",\"resize_failures\":{},\"explain\":",
        c.outcome.as_str(),
        c.resize_failures
    );
    match &c.explain {
        Some(e) => write_explain(out, e),
        None => out.push_str("null"),
    }
    out.push('}');
}

fn write_explain(out: &mut String, e: &ControlExplain) {
    out.push_str("{\"error\":");
    push_f64(out, e.error);
    out.push_str(",\"smoothed\":");
    push_f64(out, e.smoothed);
    out.push_str(",\"forecast\":");
    push_f64(out, e.forecast);
    out.push_str(",\"raw_forecast\":");
    push_f64(out, e.raw_forecast);
    out.push_str(",\"trend\":");
    push_f64(out, e.trend);
    let _ = write!(
        out,
        ",\"dark_ticks\":{},\"watchdog\":{},\"saturated_up\":{},\"saturated_down\":{},\"adaptations\":{}",
        e.dark_ticks, e.watchdog_tripped, e.saturated_up, e.saturated_down, e.adaptations
    );
    out.push_str(",\"attribution\":");
    push_resource_vec(out, &e.attribution);
    out.push_str(",\"gains\":[");
    for (i, (kp, ki, kd)) in e.gains.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        push_f64(out, *kp);
        out.push(',');
        push_f64(out, *ki);
        out.push(',');
        push_f64(out, *kd);
        out.push(']');
    }
    out.push_str("],\"pid\":[");
    for (i, t) in e.pid.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"p\":");
        push_f64(out, t.p);
        out.push_str(",\"i\":");
        push_f64(out, t.i);
        out.push_str(",\"d\":");
        push_f64(out, t.d);
        out.push_str(",\"out\":");
        push_f64(out, t.output);
        out.push('}');
    }
    out.push_str("]}");
}

fn write_sched(out: &mut String, s: &SchedTrace) {
    let _ = write!(out, "{{\"type\":\"sched\",\"cycle\":{},\"at_s\":", s.cycle);
    push_f64(out, s.at.as_secs_f64());
    let _ = write!(out, ",\"pod\":{},\"app\":{},\"gang\":", s.pod.raw(), s.app.raw());
    match s.gang {
        Some(j) => {
            let _ = write!(out, "{}", j.raw());
        }
        None => out.push_str("null"),
    }
    let _ = write!(out, ",\"outcome\":\"{}\",\"node\":", s.outcome.as_str());
    match &s.outcome {
        SchedOutcome::Bound { node, score } => {
            let _ = write!(out, "{}", node.raw());
            out.push_str(",\"score\":");
            push_opt_f64(out, *score);
        }
        _ => out.push_str("null,\"score\":null"),
    }
    out.push_str(",\"scores\":[");
    for (i, (name, score)) in s.scores.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[\"{name}\",");
        push_f64(out, score);
        out.push(']');
    }
    out.push_str("],\"filtered\":[");
    if let Some(count) = s.filtered {
        let _ = write!(out, "[\"{NODE_FITS}\",{count}]");
    }
    let _ = write!(out, "],\"feasible\":{},\"victims\":[", s.feasible);
    for (i, v) in s.victims.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", v.raw());
    }
    let _ = write!(out, "],\"backoff_failures\":{}}}", s.backoff_failures);
}

fn write_deferred(out: &mut String, d: &DeferredTrace) {
    let _ = write!(out, "{{\"type\":\"deferred\",\"cycle\":{},\"at_s\":", d.cycle);
    push_f64(out, d.at.as_secs_f64());
    let _ = write!(
        out,
        ",\"count\":{},\"first_pod\":{},\"last_pod\":{}}}",
        d.count,
        d.first.raw(),
        d.last.raw()
    );
}

fn write_span(out: &mut String, s: &SpanTrace) {
    // `wall_ns` is deliberately not serialized: wall-clock noise would
    // break byte-identical same-seed dumps.
    let _ = write!(out, "{{\"type\":\"span\",\"tick\":{},\"at_s\":", s.tick);
    push_f64(out, s.at.as_secs_f64());
    let _ = write!(out, ",\"kind\":\"{}\"}}", s.kind.as_str());
}

fn write_arbitration(out: &mut String, a: &ArbitrationTrace) {
    let _ = write!(out, "{{\"type\":\"arbitration\",\"tick\":{},\"at_s\":", a.tick);
    push_f64(out, a.at.as_secs_f64());
    let _ = write!(out, ",\"app\":{},\"class\":\"{}\",\"requested\":", a.app.raw(), a.class);
    push_resource_vec(out, &a.requested);
    out.push_str(",\"granted\":");
    push_resource_vec(out, &a.granted);
    let _ = write!(out, ",\"decision\":\"{}\",\"grant_fraction\":", a.decision);
    push_f64(out, a.grant_fraction);
    let _ = write!(out, ",\"starvation_age\":{},\"in_crunch\":{}}}", a.starvation_age, a.in_crunch);
}

fn write_fault(out: &mut String, f: &FaultTrace) {
    let _ = write!(out, "{{\"type\":\"fault\",\"at_s\":");
    push_f64(out, f.at.as_secs_f64());
    let _ = write!(out, ",\"kind\":\"{}\",\"duration_s\":", f.kind);
    push_opt_f64(out, f.duration_s);
    out.push_str(",\"node\":");
    match f.node {
        Some(n) => {
            let _ = write!(out, "{n}");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"app\":");
    match f.app {
        Some(a) => {
            let _ = write!(out, "{}", a.raw());
        }
        None => out.push_str("null"),
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(tick: u64) -> TraceEvent {
        TraceEvent::Span(SpanTrace {
            tick,
            at: SimTime::from_secs(tick),
            kind: SpanKind::Control,
            wall_ns: 123,
        })
    }

    /// The ring holds its events inline, so every record it keeps costs
    /// what the largest does: a record that grows grows every run's ring.
    #[test]
    fn the_trace_record_cannot_grow() {
        assert!(std::mem::size_of::<TraceEvent>() <= 152, "{}", std::mem::size_of::<TraceEvent>());
    }

    /// A full ring turns its explain boxes over: the box of an evicted
    /// control record carries the next record's explain block.
    #[test]
    fn a_full_ring_hands_back_explain_boxes() {
        let control = |ring: &mut TraceRing, tick: u64| {
            let explain = ring.boxed_explain(ControlExplain {
                pid: [PidTermsTrace::default(); 4],
                gains: [(1.0, 0.1, 0.0); 4],
                attribution: ResourceVec::splat(0.25),
                saturated_up: false,
                saturated_down: false,
                adaptations: tick,
                dark_ticks: 0,
                watchdog_tripped: false,
                forecast: 0.0,
                raw_forecast: 0.0,
                trend: 0.0,
                smoothed: 0.0,
                error: 0.0,
            });
            let at: *const ControlExplain = &*explain;
            ring.push(TraceEvent::Control(ControlTrace {
                tick,
                at: SimTime::from_secs(tick),
                app: AppId::new(0),
                signal: TraceSignal::Fresh,
                measured: None,
                rate_rps: 0.0,
                replicas: 1,
                per_replica: ResourceVec::splat(1.0),
                outcome: ActuationOutcome::Applied,
                resize_failures: 0,
                explain: Some(explain),
            }));
            at
        };
        let mut ring = TraceRing::new(2);
        let first = control(&mut ring, 0);
        control(&mut ring, 1);
        ring.push(span(2)); // evicts tick 0, whose box waits for the next record
        assert_eq!(control(&mut ring, 3), first, "the evicted box was not reused");
        let kept: Vec<u64> =
            ring.control().map(|c| c.explain.as_ref().map_or(0, |e| e.adaptations)).collect();
        assert_eq!(kept, vec![3]);
    }

    #[test]
    fn ring_evicts_oldest_and_counts_drops() {
        let mut ring = TraceRing::new(3);
        for t in 0..5 {
            ring.push(span(t));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let ticks: Vec<u64> = ring.spans().map(|s| s.tick).collect();
        assert_eq!(ticks, vec![2, 3, 4]);
    }

    #[test]
    fn a_large_ring_reserves_the_default_and_grows_past_it() {
        // `trace_explain`'s ring: reserving all of it would take ≈ 160 MB.
        let mut ring = TraceRing::new(1 << 20);
        assert!(ring.events.capacity() >= DEFAULT_CAPACITY);
        assert!(ring.events.capacity() < 2 * DEFAULT_CAPACITY, "reserved the whole ring");
        // Filling it would take as much; twice the reserve shows it grows.
        let past = 2 * DEFAULT_CAPACITY as u64 + 5;
        for t in 0..past {
            ring.push(span(t));
        }
        assert_eq!((ring.len() as u64, ring.dropped()), (past, 0));
        assert_eq!(ring.spans().last().map(|s| s.tick), Some(past - 1));
    }

    #[test]
    fn zero_capacity_ring_retains_nothing() {
        let mut ring = TraceRing::new(0);
        for t in 0..10 {
            ring.push(span(t));
        }
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 10);
        assert_eq!(ring.to_jsonl(), "");
    }

    #[test]
    fn span_jsonl_excludes_wall_clock() {
        let mut ring = TraceRing::new(8);
        ring.push(span(7));
        let line = ring.to_jsonl();
        assert_eq!(line, "{\"type\":\"span\",\"tick\":7,\"at_s\":7,\"kind\":\"control\"}\n");
        assert!(!line.contains("123"), "wall_ns leaked into the dump");
    }

    #[test]
    fn fault_jsonl_is_stable_and_null_safe() {
        let mut ring = TraceRing::new(8);
        ring.push(TraceEvent::Fault(FaultTrace {
            at: SimTime::from_millis(12_500),
            kind: "node_crash",
            duration_s: Some(40.0),
            node: Some(2),
            app: None,
        }));
        ring.push(TraceEvent::Fault(FaultTrace {
            at: SimTime::from_secs(60),
            kind: "actuation_drop",
            duration_s: None,
            node: None,
            app: Some(AppId::new(3)),
        }));
        let dump = ring.to_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(
            lines[0],
            "{\"type\":\"fault\",\"at_s\":12.5,\"kind\":\"node_crash\",\"duration_s\":40,\
             \"node\":2,\"app\":null}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"fault\",\"at_s\":60,\"kind\":\"actuation_drop\",\"duration_s\":null,\
             \"node\":null,\"app\":3}"
        );
        assert_eq!(ring.faults().count(), 2);
    }

    #[test]
    fn control_jsonl_is_stable_and_null_safe() {
        let mut ring = TraceRing::new(8);
        ring.push(TraceEvent::Control(ControlTrace {
            tick: 2,
            at: SimTime::from_millis(2500),
            app: AppId::new(1),
            signal: TraceSignal::Missing,
            measured: None,
            rate_rps: f64::NAN,
            replicas: 3,
            per_replica: ResourceVec::new(500.0, 640.0, 50.0, 50.0),
            outcome: ActuationOutcome::Held,
            resize_failures: 1,
            explain: None,
        }));
        let line = ring.to_jsonl();
        assert_eq!(
            line,
            "{\"type\":\"control\",\"tick\":2,\"at_s\":2.5,\"app\":1,\"signal\":\"missing\",\
             \"measured\":null,\"rate_rps\":null,\"replicas\":3,\
             \"per_replica\":[500,640,50,50],\"outcome\":\"held\",\"resize_failures\":1,\
             \"explain\":null}\n"
        );
    }

    #[test]
    fn sched_jsonl_renders_outcomes() {
        let mut ring = TraceRing::new(8);
        ring.push(TraceEvent::Sched(SchedTrace {
            cycle: 1,
            at: SimTime::from_secs(5),
            pod: PodId::new(9),
            app: AppId::new(0),
            gang: Some(JobId::new(4)),
            outcome: SchedOutcome::Bound { node: NodeId::new(2), score: Some(1.5) },
            scores: SchedScores::new(&["least-allocated"], [0.75, 0.0, 0.0]),
            filtered: Some(3),
            feasible: 5,
            victims: vec![PodId::new(1)],
            backoff_failures: 2,
        }));
        ring.push(TraceEvent::Sched(SchedTrace {
            cycle: 1,
            at: SimTime::from_secs(5),
            pod: PodId::new(10),
            app: AppId::new(0),
            gang: None,
            outcome: SchedOutcome::Unschedulable,
            scores: SchedScores::default(),
            filtered: Some(5),
            feasible: 0,
            victims: Vec::new(),
            backoff_failures: 1,
        }));
        ring.push(TraceEvent::Deferred(DeferredTrace {
            cycle: 1,
            at: SimTime::from_secs(5),
            count: 800,
            first: PodId::new(11),
            last: PodId::new(906),
        }));
        let dump = ring.to_jsonl();
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(
            lines[0],
            "{\"type\":\"sched\",\"cycle\":1,\"at_s\":5,\"pod\":9,\"app\":0,\"gang\":4,\
             \"outcome\":\"bound\",\"node\":2,\"score\":1.5,\"scores\":[[\"least-allocated\",0.75]],\
             \"filtered\":[[\"node-fits\",3]],\"feasible\":5,\"victims\":[1],\"backoff_failures\":2}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"sched\",\"cycle\":1,\"at_s\":5,\"pod\":10,\"app\":0,\"gang\":null,\
             \"outcome\":\"unschedulable\",\"node\":null,\"score\":null,\"scores\":[],\
             \"filtered\":[[\"node-fits\",5]],\"feasible\":0,\"victims\":[],\"backoff_failures\":1}"
        );
        assert_eq!(
            lines[2],
            "{\"type\":\"deferred\",\"cycle\":1,\"at_s\":5,\"count\":800,\"first_pod\":11,\
             \"last_pod\":906}"
        );
        assert_eq!(ring.deferred().count(), 1);
    }

    #[test]
    fn arbitration_jsonl_is_stable() {
        let mut ring = TraceRing::new(8);
        ring.push(TraceEvent::Arbitration(ArbitrationTrace {
            tick: 11,
            at: SimTime::from_millis(55_000),
            app: AppId::new(2),
            class: "standard",
            requested: ResourceVec::new(4000.0, 4096.0, 10.0, 20.0),
            granted: ResourceVec::new(2000.0, 2048.0, 5.0, 10.0),
            decision: "oversubscribed",
            grant_fraction: 0.5,
            starvation_age: 0,
            in_crunch: true,
        }));
        let line = ring.to_jsonl();
        assert_eq!(
            line,
            "{\"type\":\"arbitration\",\"tick\":11,\"at_s\":55,\"app\":2,\"class\":\"standard\",\
             \"requested\":[4000,4096,10,20],\"granted\":[2000,2048,5,10],\
             \"decision\":\"oversubscribed\",\"grant_fraction\":0.5,\"starvation_age\":0,\
             \"in_crunch\":true}\n"
        );
        assert_eq!(ring.arbitrations().count(), 1);
    }

    #[test]
    fn jsonl_is_deterministic_for_identical_rings() {
        let build = || {
            let mut ring = TraceRing::new(16);
            for t in 0..4 {
                ring.push(span(t));
                ring.push(TraceEvent::Control(ControlTrace {
                    tick: t,
                    at: SimTime::from_secs(t * 5),
                    app: AppId::new(0),
                    signal: TraceSignal::Fresh,
                    measured: Some(0.1 + t as f64),
                    rate_rps: 7.25,
                    replicas: 2,
                    per_replica: ResourceVec::splat(100.0),
                    outcome: ActuationOutcome::Applied,
                    resize_failures: 0,
                    explain: Some(Box::new(ControlExplain {
                        pid: [PidTermsTrace { p: 0.1, i: 0.2, d: -0.05, output: 0.25 }; 4],
                        gains: [(0.8, 0.1, 0.05); 4],
                        attribution: ResourceVec::new(0.7, 0.1, 0.1, 0.1),
                        saturated_up: false,
                        saturated_down: false,
                        adaptations: 3,
                        dark_ticks: 0,
                        watchdog_tripped: false,
                        forecast: 8.0,
                        raw_forecast: 7.5,
                        trend: 0.02,
                        smoothed: 0.9,
                        error: 0.12,
                    })),
                }));
            }
            ring
        };
        assert_eq!(build().to_jsonl(), build().to_jsonl());
    }
}
