//! The scheduling cycle: priority queue, gang grouping, filter → score →
//! tentative bind, and preemption.

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};

use evolve_sim::{ClusterState, Node, Pod, PodKind, PodSpec};
use evolve_telemetry::trace::{
    DeferredTrace, SchedOutcome, SchedScores, SchedTrace, TraceEvent, TraceRing, MAX_SCORERS,
};
use evolve_types::codec::{Codec, Decoder, Encoder};
use evolve_types::{Error, JobId, NodeId, PodId, ResourceVec, Result, SimTime};

use crate::index::{fold_best, FeasibilityIndex};
use crate::plugins::{node_fits, NodeView, PodClass, SchedulerProfile};

/// The outcome of one scheduling cycle. The driver must apply
/// `preemptions` (via `Simulation::preempt_pod`) **before** `bindings`
/// (via `Simulation::bind_pod`) — the plan's shadow accounting assumes
/// that order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedulePlan {
    /// Pods to bind, in decision order.
    pub bindings: Vec<(PodId, NodeId)>,
    /// Pods to evict first (preemption victims).
    pub preemptions: Vec<PodId>,
    /// Pods that could not be placed this cycle.
    pub unschedulable: Vec<PodId>,
    /// Pod-table lookups that failed during the cycle (a node's bound set
    /// referenced a pod the table no longer knows) — skipped and counted
    /// instead of panicking, mirroring the manager's `UnknownApp`
    /// handling. Counted whenever the cycle reads a bound set: the
    /// index's sync when it recounts a node's apps, its first census
    /// reader when it re-derives the census a sync left stale (a failed
    /// pod can be counted by both), and the preemption victim scans. The
    /// pod table never drops a pod, so it is 0 on every shipped run.
    pub stale_pod_lookups: u64,
    /// Filter evaluations this cycle. The naive scan pays one per
    /// (pending pod, node) pair; the indexed path evaluates the filter
    /// inside the index and pays none, so this is the numerator of the
    /// index's win.
    pub filter_evals: u64,
    /// Feasibility-index tree nodes visited this cycle (zero on the
    /// naive path). `filter_evals + index_probes` is the indexed cycle's
    /// total feasibility work, comparable against the naive
    /// `filter_evals`.
    pub index_probes: u64,
}

/// Cross-cycle requeue backoff for unschedulable pods.
///
/// A pod that fails to place is retried on the next cycle, then with
/// exponentially growing gaps (1, 2, 4, 4, … cycles, capped) so a full
/// queue of orphans — e.g. everything evicted by a node crash — does not
/// grind every subsequent cycle through hopeless placements. A gang with
/// any backed-off member is deferred as a unit without accruing further
/// penalty. State is pruned to the currently-pending set each cycle, so
/// pods that bind (or die) are forgotten automatically.
#[derive(Debug, Clone, Default)]
pub struct RequeueBackoff {
    cycle: u64,
    /// `(pod, (consecutive failures, first cycle eligible to retry))` of
    /// every pod with a failure on record, in the order they first failed.
    entries: Vec<(PodId, (u32, u64))>,
    /// Pod id → its place in `entries` plus one, 0 for none; each cycle builds
    /// it over its cluster's pods, so an id from a checkpoint never sizes it.
    index: Vec<u32>,
    /// The last cycle's queue, kept for its allocation: the next cycle
    /// clears and refills it.
    queue: UnitQueue,
    /// A plan handed back through [`RequeueBackoff::recycle`]: the next
    /// cycle returns its plan in these vectors.
    spare_plan: SchedulePlan,
    /// The last cycle's failed classes, kept for their allocation.
    failed: Vec<FailedClass>,
}

/// A single pod's class as its placement reads it: app, request bits
/// and, for preemption, priority. A cycle keeps the classes that found no
/// node since its shadow last could have gained capacity: within a cycle
/// the shadow loses capacity with every placement and gains only when
/// victims are claimed or a gang is attempted (a rollback frees what it
/// placed, which need not restore the float bits). So a class that found
/// no node, and no victims, finds none again until then, and its later
/// pods in the cycle fail without another search.
type FailedClass = (u32, [u64; 4], i32);

/// The [`FailedClass`] of a pod.
fn class_of(pod: &Pod) -> FailedClass {
    let request = pod.spec.request.as_array().map(f64::to_bits);
    (pod.spec.kind.app().raw(), request, pod.spec.priority)
}

/// A unit of a cycle's queue: `(priority, created, first pod, gang)`, the
/// gang's job for an HPC gang and `None` for a single pod.
type QueuedUnit = (i32, SimTime, PodId, Option<JobId>);

/// The order a cycle visits its units in: priority descending, then
/// creation ascending, then first pod id. A total order, as no two units
/// share a pod, so the cycle order is fully deterministic.
fn unit_order(a: &QueuedUnit, b: &QueuedUnit) -> Ordering {
    b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
}

/// A cycle's queue in [`unit_order`], built without comparing singles to
/// each other. The singles arrive in `(created, id)` order, the pending
/// queue's, so they are in order already when they share one priority,
/// and dealing them into one bucket per priority, highest first, orders
/// them otherwise; the gangs, a handful, are sorted and merged in. Every
/// vector keeps its allocation from cycle to cycle.
#[derive(Debug, Clone, Default)]
struct UnitQueue {
    /// The units: the singles as they arrive, then in order.
    units: Vec<QueuedUnit>,
    /// Scratch: the singles dealt into their buckets, then the gangs.
    spare: Vec<QueuedUnit>,
    /// `(priority, singles of it)`, then the next free place of its run.
    buckets: Vec<(i32, usize)>,
}

impl UnitQueue {
    /// Empties the queue for the next cycle.
    fn clear(&mut self) {
        self.units.clear();
        self.buckets.clear();
    }

    /// Adds a single pod's unit; singles must arrive in `(created, id)`
    /// order.
    fn push_single(&mut self, unit: QueuedUnit) {
        debug_assert!(self.units.last().is_none_or(|last| (last.1, last.2) < (unit.1, unit.2)));
        match self.buckets.iter_mut().find(|bucket| bucket.0 == unit.0) {
            Some(bucket) => bucket.1 += 1,
            None => self.buckets.push((unit.0, 1)),
        }
        self.units.push(unit);
    }

    /// Orders the singles pushed so far together with `gangs`.
    fn order(&mut self, gangs: impl IntoIterator<Item = QueuedUnit>) {
        const VACANT: QueuedUnit = (0, SimTime::ZERO, PodId::new(0), None);
        let UnitQueue { units, spare, buckets } = self;
        if buckets.len() > 1 {
            buckets.sort_unstable_by_key(|bucket| std::cmp::Reverse(bucket.0));
            let mut start = 0;
            for bucket in buckets.iter_mut() {
                (start, bucket.1) = (start + bucket.1, start);
            }
            spare.clear();
            spare.resize(units.len(), VACANT);
            for unit in units.iter() {
                let bucket = buckets.iter_mut().find(|bucket| bucket.0 == unit.0).expect("counted");
                spare[bucket.1] = *unit;
                bucket.1 += 1;
            }
            std::mem::swap(units, spare);
        }
        spare.clear();
        spare.extend(gangs);
        spare.sort_unstable_by(unit_order);
        // Merge the sorted gangs in from the back, in place: each single
        // moves right by the number of gangs that sort after it.
        let mut singles = units.len();
        units.resize(singles + spare.len(), VACANT);
        for at in (0..units.len()).rev() {
            let Some(gang) = spare.last() else { break };
            units[at] = if singles > 0 && unit_order(&units[singles - 1], gang).is_gt() {
                singles -= 1;
                units[singles]
            } else {
                spare.pop().expect("a gang is left")
            };
        }
    }
}

impl RequeueBackoff {
    /// Fresh state: every pod is eligible immediately.
    #[must_use]
    pub fn new() -> Self {
        RequeueBackoff::default()
    }

    /// Hands back a plan once it has been applied: the next cycle carried
    /// with this ledger returns its plan in the same vectors instead of
    /// new ones.
    pub fn recycle(&mut self, plan: SchedulePlan) {
        self.spare_plan = plan;
    }

    /// An empty plan, in the vectors of the last one handed back.
    fn take_plan(&mut self) -> SchedulePlan {
        let SchedulePlan { mut bindings, mut preemptions, mut unschedulable, .. } =
            std::mem::take(&mut self.spare_plan);
        bindings.clear();
        preemptions.clear();
        unschedulable.clear();
        SchedulePlan { bindings, preemptions, unschedulable, ..SchedulePlan::default() }
    }

    /// Starts the next cycle: forgets every pod that is no longer pending
    /// and indexes the rest. Walks the entries, not the cluster.
    fn begin_cycle(&mut self, cluster: &ClusterState) {
        self.cycle += 1;
        for (pod, _) in &self.entries {
            if let Some(place) = self.index.get_mut(pod.as_usize()) {
                *place = 0;
            }
        }
        self.entries.retain(|(pod, _)| cluster.pod(*pod).is_ok_and(Pod::is_pending));
        // Sized with the pod table, so it grows when that does, not by doubling.
        self.index.reserve(cluster.pod_capacity().saturating_sub(self.index.len()));
        self.index.resize(cluster.pods().count(), 0);
        for (at, (pod, _)) in self.entries.iter().enumerate() {
            self.index[pod.as_usize()] = at as u32 + 1;
        }
    }

    /// `(consecutive failures, first cycle eligible to retry)` of a pod —
    /// `(0, 0)`, eligible at once, for one with no failure on record. The
    /// cycle reads it once per pod, through the index.
    fn held(&self, pod: PodId) -> (u32, u64) {
        let place = self.index.get(pod.as_usize()).map_or(0, |&place| place as usize);
        place.checked_sub(1).map_or((0, 0), |at| self.entries[at].1)
    }

    /// Records a failed placement attempt of one of the cycle's pending
    /// pods, pushes the retry out and returns the new failure count.
    fn record_failure(&mut self, pod: PodId) -> u32 {
        let place = &mut self.index[pod.as_usize()];
        if *place == 0 {
            self.entries.push((pod, (0, 0)));
            *place = self.entries.len() as u32;
        }
        let (failures, retry_at) = &mut self.entries[*place as usize - 1].1;
        *failures += 1;
        let delay = (1u64 << (*failures - 1).min(2)).min(4);
        *retry_at = self.cycle + delay;
        *failures
    }

    /// Consecutive failed attempts recorded for a pod (a scan: a decoded
    /// ledger has no index before its first cycle).
    #[must_use]
    pub fn failures(&self, pod: PodId) -> u32 {
        self.entries.iter().find(|entry| entry.0 == pod).map_or(0, |entry| entry.1 .0)
    }

    /// The entries in ascending pod id, as the checkpoint holds them.
    fn sorted(&self) -> Vec<(PodId, (u32, u64))> {
        let mut entries = self.entries.clone();
        entries.sort_unstable();
        entries
    }
}

/// Same cycle, same entries: neither their order nor the index counts.
impl PartialEq for RequeueBackoff {
    fn eq(&self, other: &Self) -> bool {
        self.cycle == other.cycle && self.sorted() == other.sorted()
    }
}

impl Codec for RequeueBackoff {
    fn encode(&self, enc: &mut Encoder) {
        self.cycle.encode(enc);
        self.entries.len().encode(enc);
        for (pod, (failures, retry_at)) in self.sorted() {
            pod.encode(enc);
            failures.encode(enc);
            retry_at.encode(enc);
        }
    }

    /// Restores the entries alone; they must ascend, as `encode` writes
    /// them, or a pod listed twice would keep two.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let cycle = u64::decode(dec)?;
        let len = usize::decode(dec)?;
        let mut entries: Vec<(PodId, (u32, u64))> = Vec::new();
        for _ in 0..len {
            let entry = (PodId::decode(dec)?, (u32::decode(dec)?, u64::decode(dec)?));
            if entries.last().is_some_and(|last| last.0 >= entry.0) {
                return Err(Error::CorruptCheckpoint(format!("backoff {} out of order", entry.0)));
            }
            entries.push(entry);
        }
        Ok(RequeueBackoff { cycle, entries, ..RequeueBackoff::default() })
    }
}

/// A scheduler running one [`SchedulerProfile`]: the fit filter decides
/// feasibility, the profile's weighted scorers pick the node, priorities
/// order the queue, and preemption (when the profile has it) and gang
/// handling deal with contention and HPC jobs.
#[derive(Debug)]
pub struct SchedulerFramework {
    profile: SchedulerProfile,
    /// Chaos-harness fault seed: when `EVOLVE_CHAOS_GANG_NO_ROLLBACK` is
    /// set in the environment at construction time, a failed gang's first
    /// pass commits whatever ranks it managed to place instead of rolling
    /// back — deliberately breaking gang atomicity so the chaos oracle
    /// and fuzzer can prove they catch it. Never set in production paths.
    break_gang_rollback: bool,
    /// Whether cycles choose nodes through the feasibility index. On by
    /// default; [`with_index(false)`](Self::with_index) selects the naive
    /// scan.
    use_index: bool,
    /// Whether a cycle fails a pod of a class that already found no node
    /// in it without another search. Off only in the reference that the
    /// memo's tests hold it to.
    #[cfg(test)]
    memo: bool,
}

/// `(bindings, preemption victims)` of a successfully placed gang.
type GangPlacement = (Vec<(PodId, NodeId)>, Vec<PodId>);

/// Capture target for one traced placement attempt: the chosen node's
/// per-scorer weighted score contributions, how many nodes passed the
/// filter, and how many it rejected.
#[derive(Debug, Default)]
struct PlacementProbe {
    /// Weighted mean score of the winning node.
    chosen_score: Option<f64>,
    /// Per-scorer weighted contribution of the winning node.
    scores: SchedScores,
    /// Nodes the filter rejected.
    rejected: u32,
    /// Nodes that passed the filter.
    feasible: u32,
}

/// Per-cycle mutable placement context. The index doubles as the cycle's
/// shadow state (free vectors, app spread counts): every tentative
/// place/release/claim flows through it, on both the indexed and the
/// naive path, so the two paths read identical shadow values.
struct Ctx<'a> {
    index: &'a mut FeasibilityIndex,
    /// Filter evaluations so far (see [`SchedulePlan::filter_evals`]).
    filter_evals: u64,
}

impl SchedulerFramework {
    /// A framework running `profile`, through the feasibility index.
    #[must_use]
    pub fn new(profile: SchedulerProfile) -> Self {
        SchedulerFramework {
            profile,
            break_gang_rollback: std::env::var_os("EVOLVE_CHAOS_GANG_NO_ROLLBACK").is_some(),
            use_index: true,
            #[cfg(test)]
            memo: true,
        }
    }

    /// The stock Kubernetes-like profile: fit filter, least-allocated +
    /// balanced-allocation + app spreading, no preemption.
    #[must_use]
    pub fn kube_default() -> Self {
        SchedulerFramework::new(SchedulerProfile::KubeDefault)
    }

    /// The EVOLVE profile: same scorers plus priority preemption (so
    /// latency-critical pods displace batch work under pressure).
    #[must_use]
    pub fn evolve_default() -> Self {
        SchedulerFramework::new(SchedulerProfile::Evolve)
    }

    /// A consolidation (bin-packing) profile.
    #[must_use]
    pub fn binpack() -> Self {
        SchedulerFramework::new(SchedulerProfile::Binpack)
    }

    /// Selects between the feasibility index's tree walks (`true`, the
    /// default) and the naive full node scan (`false`). Both produce
    /// identical plans — the naive path is retained as the equivalence
    /// baseline and for benchmarks quantifying the index's win.
    #[must_use]
    pub fn with_index(mut self, on: bool) -> Self {
        self.use_index = on;
        self
    }

    /// The profile name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.profile.name()
    }

    /// Runs one scheduling cycle over the cluster's pending pods, with
    /// fresh backoff state (every pod eligible), a fresh index and no
    /// tracing.
    #[must_use]
    pub fn schedule_cycle(&self, cluster: &ClusterState) -> SchedulePlan {
        self.cycle_impl(cluster, &mut RequeueBackoff::new(), &mut FeasibilityIndex::new(), None)
    }

    /// Runs one scheduling cycle with state carried across cycles:
    ///
    /// * `backoff` — pods still inside their backoff window are deferred
    ///   (reported unschedulable without another attempt), and fresh
    ///   failures push the next retry out exponentially;
    /// * `index` — instead of rebuilding the shadow from scratch, the
    ///   cycle starts by diffing the cluster's version counters and
    ///   refreshing only nodes that changed since the previous cycle;
    /// * `trace` — every pod the cycle attempts (bound with the chosen
    ///   node's per-scorer scores, unschedulable with the filter's
    ///   rejection count, preempting, or rolled back with its gang) is
    ///   pushed as a [`SchedTrace`] stamped with the simulated time `at`,
    ///   and the pods it defers by backoff as one [`DeferredTrace`] at the
    ///   end of the cycle.
    #[must_use]
    pub fn schedule_cycle_carried(
        &self,
        cluster: &ClusterState,
        backoff: &mut RequeueBackoff,
        index: &mut FeasibilityIndex,
        at: SimTime,
        trace: &mut TraceRing,
    ) -> SchedulePlan {
        self.cycle_impl(cluster, backoff, index, Some((at, trace)))
    }

    fn cycle_impl(
        &self,
        cluster: &ClusterState,
        backoff: &mut RequeueBackoff,
        index: &mut FeasibilityIndex,
        mut trace: Option<(SimTime, &mut TraceRing)>,
    ) -> SchedulePlan {
        let mut plan = backoff.take_plan();
        index.sync(cluster, self.profile);
        let mut ctx = Ctx { index, filter_evals: 0 };
        // Victims already claimed this cycle: their capacity is freed in
        // the shadow exactly once and they may not be chosen again.
        let mut claimed: HashSet<PodId> = HashSet::new();

        // Group pending pods: gangs as units, others individually; order
        // by (priority desc, creation asc).
        backoff.begin_cycle(cluster);
        // BTreeMap: gang visit order must not depend on hash state, or
        // equal-priority units would schedule in a nondeterministic order.
        let mut gangs: BTreeMap<JobId, Vec<&Pod>> = BTreeMap::new();
        let mut queue = std::mem::take(&mut backoff.queue);
        queue.clear();
        let mut failed = std::mem::take(&mut backoff.failed);
        failed.clear();
        #[cfg(test)]
        let memo = self.memo;
        #[cfg(not(test))]
        let memo = true;
        for pod in cluster.pending_pods() {
            match pod.spec.kind {
                PodKind::HpcRank { job, .. } => gangs.entry(job).or_default().push(pod),
                _ => queue.push_single((pod.spec.priority, pod.created, pod.id, None)),
            }
        }
        queue.order(gangs.iter().map(|(&job, members)| {
            let prio = members.iter().map(|p| p.spec.priority).max().unwrap_or(0);
            let created = members.iter().map(|p| p.created).min().unwrap_or_default();
            let first = members.iter().map(|p| p.id).min().unwrap_or(PodId::new(0));
            (prio, created, first, Some(job))
        }));

        let cycle = backoff.cycle;
        // The pods deferred by backoff: how many, the first and the last.
        let at = trace.as_ref().map_or(SimTime::ZERO, |(at, _)| *at);
        let mut deferred: Option<DeferredTrace> = None;
        let mut defer = |pod: PodId| match deferred.as_mut() {
            Some(d) => (d.count, d.last) = (d.count + 1, pod),
            None => deferred = Some(DeferredTrace { cycle, at, count: 1, first: pod, last: pod }),
        };
        // Emits one SchedTrace for a resolved pod, when tracing is on.
        // A plain fn (not a closure) so the borrow of `trace` stays local.
        #[allow(clippy::too_many_arguments)]
        fn emit(
            trace: &mut Option<(SimTime, &mut TraceRing)>,
            cycle: u64,
            pod: &Pod,
            gang: Option<JobId>,
            outcome: SchedOutcome,
            probe: Option<PlacementProbe>,
            victims: Vec<PodId>,
            backoff_failures: u32,
        ) {
            let Some((at, ring)) = trace.as_mut() else { return };
            let filtered = probe.as_ref().map(|p| p.rejected);
            let probe = probe.unwrap_or_default();
            ring.push(TraceEvent::Sched(SchedTrace {
                cycle,
                at: *at,
                pod: pod.id,
                app: pod.spec.kind.app(),
                gang,
                outcome,
                scores: probe.scores,
                filtered,
                feasible: probe.feasible,
                victims,
                backoff_failures,
            }));
        }

        for &(_, _, first, gang) in &queue.units {
            match gang.and_then(|job| gangs.remove(&job)) {
                None => {
                    let (fails, retry_at) = backoff.held(first);
                    if retry_at > cycle {
                        // Inside its backoff window: deferred without
                        // another attempt (and without further penalty),
                        // and without a read of the pod.
                        plan.unschedulable.push(first);
                        defer(first);
                        continue;
                    }
                    let pod = cluster.pod(first).expect("a pending pod is in the table");
                    let class = class_of(pod);
                    let mut probe = trace.is_some().then(PlacementProbe::default);
                    let placed = if memo && failed.contains(&class) {
                        // Its class found no node and no victims earlier
                        // in the cycle: the same failure, traced as the
                        // search that rejects every node, without it.
                        if let Some(p) = probe.as_mut() {
                            p.rejected = cluster.nodes().len() as u32;
                        }
                        None
                    } else {
                        match self.place_one(cluster, &mut ctx, &pod.spec, probe.as_mut()) {
                            Some(node) => Some((node, Vec::new())),
                            None => {
                                debug_assert!(probe.as_ref().is_none_or(|p| p.feasible == 0
                                    && p.rejected as usize == cluster.nodes().len()));
                                // No node fits the class until the shadow
                                // gains capacity: a preemption below
                                // clears the memo again.
                                failed.push(class);
                                if self.profile.preempts() {
                                    self.try_preempt(cluster, &mut ctx, &claimed, pod)
                                } else {
                                    None
                                }
                            }
                        }
                    };
                    match placed {
                        Some((node, victims)) => {
                            if !victims.is_empty() {
                                // The victims' capacity is free in the shadow.
                                failed.clear();
                            }
                            claimed.extend(victims.iter().copied());
                            plan.preemptions.extend(victims.iter().copied());
                            plan.bindings.push((pod.id, node));
                            // A preemptor's node was not scored.
                            let score = probe.as_ref().and_then(|p| p.chosen_score);
                            emit(
                                &mut trace,
                                cycle,
                                pod,
                                None,
                                SchedOutcome::Bound { node, score },
                                probe,
                                victims,
                                fails,
                            );
                        }
                        None => {
                            let fails = backoff.record_failure(pod.id);
                            plan.unschedulable.push(pod.id);
                            emit(
                                &mut trace,
                                cycle,
                                pod,
                                None,
                                SchedOutcome::Unschedulable,
                                probe,
                                Vec::new(),
                                fails,
                            );
                        }
                    }
                }
                Some(members) => {
                    let job = match members[0].spec.kind {
                        PodKind::HpcRank { job, .. } => Some(job),
                        _ => None,
                    };
                    // A bound rank of this job claimed as a preemption
                    // victim earlier in the cycle will be requeued when the
                    // plan applies; binding the rest of the gang in the
                    // same cycle would commit a partial gang (the job stays
                    // paused but holds capacity). Defer the whole unit.
                    let victimized = job.is_some_and(|j| {
                        claimed.iter().any(|id| {
                            matches!(
                                cluster.pod(*id).map(|p| p.spec.kind),
                                Ok(PodKind::HpcRank { job: vj, .. }) if vj == j
                            )
                        })
                    });
                    let held: Vec<(u32, u64)> =
                        members.iter().map(|p| backoff.held(p.id)).collect();
                    // Any backed-off rank defers the whole gang too — a
                    // partial attempt could never bind anyway.
                    if victimized || held.iter().any(|&(_, retry_at)| retry_at > cycle) {
                        for pod in members {
                            plan.unschedulable.push(pod.id);
                            defer(pod.id);
                        }
                        continue;
                    }
                    // A gang may claim victims, and a rollback need not
                    // restore the shadow's float bits.
                    failed.clear();
                    match self.place_gang(cluster, &mut ctx, &mut claimed, &members) {
                        Some((bindings, victims)) => {
                            // Gang admitted: one Bound event per rank; the
                            // preemption victims (if any) ride on the first
                            // rank's event.
                            for (i, (pod_id, node)) in bindings.iter().enumerate() {
                                if let Some(k) = members.iter().position(|p| p.id == *pod_id) {
                                    emit(
                                        &mut trace,
                                        cycle,
                                        members[k],
                                        job,
                                        SchedOutcome::Bound { node: *node, score: None },
                                        None,
                                        if i == 0 { victims.clone() } else { Vec::new() },
                                        held[k].0,
                                    );
                                }
                            }
                            plan.preemptions.extend(victims);
                            plan.bindings.extend(bindings);
                        }
                        None => {
                            for pod in members {
                                let fails = backoff.record_failure(pod.id);
                                plan.unschedulable.push(pod.id);
                                emit(
                                    &mut trace,
                                    cycle,
                                    pod,
                                    job,
                                    SchedOutcome::GangRollback,
                                    None,
                                    Vec::new(),
                                    fails,
                                );
                            }
                        }
                    }
                }
            }
        }
        backoff.queue = queue;
        backoff.failed = failed;
        if let (Some((_, ring)), Some(deferred)) = (trace.as_mut(), deferred) {
            ring.push(TraceEvent::Deferred(deferred));
        }
        plan.stale_pod_lookups = ctx.index.stale_lookups();
        plan.filter_evals = ctx.filter_evals;
        plan.index_probes = ctx.index.probes();
        plan
    }

    /// Places a gang all-or-nothing. The first pass uses free capacity
    /// only; when that fails and preemption is on, a second pass may also
    /// evict strictly-lower-priority pods. Both passes roll the shadow —
    /// and any claimed victims — fully back on failure, so a blocked gang
    /// leaves no trace on later units in the cycle.
    fn place_gang(
        &self,
        cluster: &ClusterState,
        ctx: &mut Ctx<'_>,
        claimed: &mut HashSet<PodId>,
        members: &[&Pod],
    ) -> Option<GangPlacement> {
        // First pass: free capacity only.
        let mut placed: Vec<(PodId, NodeId, PodSpec)> = Vec::new();
        let mut ok = true;
        for pod in members {
            match self.place_one(cluster, ctx, &pod.spec, None) {
                Some(node) => placed.push((pod.id, node, pod.spec)),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            return Some((
                placed.into_iter().map(|(id, node, _)| (id, node)).collect(),
                Vec::new(),
            ));
        }
        if self.break_gang_rollback && !placed.is_empty() {
            // Seeded chaos bug: commit the partial gang instead of rolling
            // back, violating all-or-nothing placement on purpose.
            return Some((
                placed.into_iter().map(|(id, node, _)| (id, node)).collect(),
                Vec::new(),
            ));
        }
        for (_, node, spec) in &placed {
            ctx.index.release(node.as_usize(), spec);
        }
        if !self.profile.preempts() {
            return None;
        }

        // Second pass: allow per-rank preemption of strictly-lower-
        // priority pods. Victims claimed by earlier ranks join `claimed`
        // immediately so two ranks never free the same pod twice.
        placed.clear();
        let mut gang_victims: Vec<(NodeId, Vec<PodId>)> = Vec::new();
        let mut ok = true;
        for pod in members {
            if let Some(node) = self.place_one(cluster, ctx, &pod.spec, None) {
                placed.push((pod.id, node, pod.spec));
            } else if let Some((node, victims)) = self.try_preempt(cluster, ctx, claimed, pod) {
                claimed.extend(victims.iter().copied());
                gang_victims.push((node, victims));
                placed.push((pod.id, node, pod.spec));
            } else {
                ok = false;
                break;
            }
        }
        if ok {
            let victims = gang_victims.into_iter().flat_map(|(_, v)| v).collect();
            return Some((placed.into_iter().map(|(id, node, _)| (id, node)).collect(), victims));
        }
        // Full rollback: undo placements, re-occupy the victims' capacity
        // and un-claim them.
        for (_, node, spec) in &placed {
            ctx.index.release(node.as_usize(), spec);
        }
        for (node, victims) in &gang_victims {
            for v in victims {
                claimed.remove(v);
                match cluster.pod(*v) {
                    Ok(p) => ctx.index.unclaim_victim(
                        cluster,
                        node.as_usize(),
                        p.app().raw(),
                        p.spec.priority,
                        &p.spec.request,
                    ),
                    Err(_) => ctx.index.note_stale(),
                }
            }
        }
        None
    }

    /// Filter + score one pod against the shadowed cluster; commits the
    /// placement into the shadow on success. With a probe attached, the
    /// chosen node's per-scorer scores, the feasible-node count and the
    /// filter's rejection count are captured for the decision trace.
    ///
    /// In indexed mode the choice comes from the feasibility index's
    /// score tree for the pod's class; under `debug_assertions` the naive
    /// full scan runs alongside and the choices are asserted identical
    /// before committing.
    fn place_one(
        &self,
        cluster: &ClusterState,
        ctx: &mut Ctx<'_>,
        spec: &PodSpec,
        mut probe: Option<&mut PlacementProbe>,
    ) -> Option<NodeId> {
        let class = PodClass::from(spec);
        let choice = if self.use_index {
            let choice = self.choose_indexed(cluster, ctx, &class, probe.as_deref_mut());
            #[cfg(debug_assertions)]
            {
                let mut evals = 0u64;
                let naive = self.choose_naive(cluster, ctx.index, &class, &mut evals, None);
                debug_assert_eq!(choice, naive, "indexed placement diverged from the naive scan");
            }
            choice
        } else {
            self.choose_naive(
                cluster,
                ctx.index,
                &class,
                &mut ctx.filter_evals,
                probe.as_deref_mut(),
            )
        };
        let (score, idx) = choice?;
        if let Some(p) = probe {
            // The winner's per-scorer contributions are recomputed here,
            // once, rather than tracked for every candidate on the way.
            let view = NodeView {
                node: &cluster.nodes()[idx],
                free: ctx.index.free(idx),
                app_pods: ctx.index.app_count(idx, class.app.raw()),
            };
            let mut contributions = [0.0; MAX_SCORERS];
            let rescored = self.profile.score(&class, &view, Some(&mut contributions));
            debug_assert_eq!(rescored.to_bits(), score.to_bits(), "scorers must be pure");
            p.scores = SchedScores::new(self.profile.scorer_names(), contributions);
            p.chosen_score = Some(score);
        }
        ctx.index.place(idx, spec);
        Some(NodeId::new(idx as u32))
    }

    /// The historical full scan: every node goes through the filter,
    /// survivors are scored. Kept as the equivalence baseline for the
    /// indexed path.
    fn choose_naive(
        &self,
        cluster: &ClusterState,
        index: &FeasibilityIndex,
        class: &PodClass,
        filter_evals: &mut u64,
        mut probe: Option<&mut PlacementProbe>,
    ) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        for (i, node) in cluster.nodes().iter().enumerate() {
            *filter_evals += 1;
            let free = index.free(i);
            if !node_fits(node.is_ready(), &class.request, &free) {
                if let Some(p) = probe.as_deref_mut() {
                    p.rejected += 1;
                }
                continue;
            }
            if let Some(p) = probe.as_deref_mut() {
                p.feasible += 1;
            }
            let view = NodeView { node, free, app_pods: index.app_count(i, class.app.raw()) };
            fold_best(&mut best, self.profile.score(class, &view, None), i);
        }
        best
    }

    /// The indexed path: the index's score tree for the pod's class gives
    /// the winner and the trace's counts; this side only supplies the
    /// scoring, which the index runs on nodes that fit and whose inputs
    /// changed since they were last scored.
    fn choose_indexed(
        &self,
        cluster: &ClusterState,
        ctx: &mut Ctx<'_>,
        class: &PodClass,
        probe: Option<&mut PlacementProbe>,
    ) -> Option<(f64, usize)> {
        let choice = ctx.index.choose(class, |i, free, app_pods| {
            let view = NodeView { node: &cluster.nodes()[i], free, app_pods };
            self.profile.score(class, &view, None)
        });
        if let Some(p) = probe {
            p.feasible += choice.feasible;
            p.rejected += choice.rejected;
        }
        choice.best
    }

    /// Looks for a node where evicting strictly-lower-priority pods frees
    /// enough room. Chooses the node minimizing evicted priority mass,
    /// then evicts its lowest-priority pods first.
    ///
    /// Bails in O(1) when the cluster's per-priority bound census shows
    /// no pod of strictly lower priority anywhere (victims claimed
    /// earlier this cycle are still bound, so the count never
    /// under-reports). In indexed mode the preempt tree and per-node
    /// census prune the node scan; the per-node victim selection is
    /// shared verbatim with the naive path, and under `debug_assertions`
    /// both paths are asserted to choose identically.
    fn try_preempt(
        &self,
        cluster: &ClusterState,
        ctx: &mut Ctx<'_>,
        claimed: &HashSet<PodId>,
        pod: &Pod,
    ) -> Option<(NodeId, Vec<PodId>)> {
        if cluster.bound_pods_below(pod.spec.priority) == 0 {
            return None;
        }
        let choice = if self.use_index {
            let choice = Self::preempt_choose_indexed(cluster, ctx, claimed, pod);
            #[cfg(debug_assertions)]
            {
                let mut stale = 0u64;
                let naive =
                    Self::preempt_choose_naive(cluster, ctx.index, claimed, pod, &mut stale);
                debug_assert_eq!(choice, naive, "indexed preemption diverged from the naive scan");
            }
            choice
        } else {
            let mut stale = 0u64;
            let choice = Self::preempt_choose_naive(cluster, ctx.index, claimed, pod, &mut stale);
            ctx.index.add_stale(stale);
            choice
        };
        let (_, idx, victims) = choice?;
        // Account the evictions and the placement in the shadow.
        for v in &victims {
            match cluster.pod(*v) {
                Ok(p) => {
                    let (app, priority) = (p.app().raw(), p.spec.priority);
                    ctx.index.claim_victim(cluster, idx, app, priority, &p.spec.request);
                }
                Err(_) => ctx.index.note_stale(),
            }
        }
        ctx.index.place(idx, &pod.spec);
        Some((NodeId::new(idx as u32), victims))
    }

    /// Greedy victim selection on one node: bound, unclaimed, strictly
    /// lower priority, cheapest first, until the pod fits. Shared by the
    /// naive and indexed paths so both choose identical victims.
    fn preempt_on_node(
        cluster: &ClusterState,
        free0: ResourceVec,
        node: &Node,
        claimed: &HashSet<PodId>,
        pod: &Pod,
        stale: &mut u64,
    ) -> Option<(f64, Vec<PodId>)> {
        // Victims: bound pods with lower priority, cheapest first.
        // Pods already claimed by an earlier preemption this cycle
        // are gone in the shadow and may not be double-counted.
        let mut victims: Vec<&Pod> = Vec::new();
        for id in node.pods().iter().filter(|id| !claimed.contains(id)) {
            match cluster.pod(*id) {
                Ok(v) => {
                    if v.spec.priority < pod.spec.priority && v.phase.holds_resources() {
                        victims.push(v);
                    }
                }
                Err(_) => *stale += 1,
            }
        }
        victims.sort_by_key(|v| v.spec.priority);
        let mut free = free0;
        let mut chosen: Vec<PodId> = Vec::new();
        let mut cost = 0.0;
        for v in victims {
            if pod.spec.request.fits_within(&free) {
                break;
            }
            free += v.spec.request;
            chosen.push(v.id);
            cost += f64::from(v.spec.priority) + 1.0;
        }
        (pod.spec.request.fits_within(&free) && !chosen.is_empty()).then_some((cost, chosen))
    }

    /// The historical preemption scan over every ready node.
    fn preempt_choose_naive(
        cluster: &ClusterState,
        index: &FeasibilityIndex,
        claimed: &HashSet<PodId>,
        pod: &Pod,
        stale: &mut u64,
    ) -> Option<(f64, usize, Vec<PodId>)> {
        let mut best: Option<(f64, usize, Vec<PodId>)> = None;
        for (i, node) in cluster.nodes().iter().enumerate() {
            if !node.is_ready() {
                continue;
            }
            if let Some((cost, chosen)) =
                Self::preempt_on_node(cluster, index.free(i), node, claimed, pod, stale)
            {
                if best.as_ref().is_none_or(|(c, _, _)| cost < *c) {
                    best = Some((cost, i, chosen));
                }
            }
        }
        best
    }

    /// The indexed preemption scan: the preempt tree enumerates only
    /// nodes whose free-plus-evictable headroom could fit the pod (a
    /// superset — the margin absorbs incremental float drift), the
    /// per-priority census then drops nodes without enough strictly-
    /// lower-priority mass, and the surviving nodes run the exact shared
    /// victim selection. Ascending candidate order plus the strict `<`
    /// cost comparison preserve the lowest-index tie-break.
    fn preempt_choose_indexed(
        cluster: &ClusterState,
        ctx: &mut Ctx<'_>,
        claimed: &HashSet<PodId>,
        pod: &Pod,
    ) -> Option<(f64, usize, Vec<PodId>)> {
        ctx.index.enumerate_preempt(cluster, &pod.spec.request);
        let mut best: Option<(f64, usize, Vec<PodId>)> = None;
        let mut stale = 0u64;
        for k in 0..ctx.index.candidates().len() {
            let i = ctx.index.candidates()[k];
            if !ctx.index.census_could_free(cluster, i, pod.spec.priority, &pod.spec.request) {
                continue;
            }
            if let Some((cost, chosen)) = Self::preempt_on_node(
                cluster,
                ctx.index.free(i),
                &cluster.nodes()[i],
                claimed,
                pod,
                &mut stale,
            ) {
                if best.as_ref().is_none_or(|(c, _, _)| cost < *c) {
                    best = Some((cost, i, chosen));
                }
            }
        }
        ctx.index.add_stale(stale);
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evolve_sim::{ClusterConfig, NodeShape};
    use evolve_types::{AppId, ResourceVec, SimTime};
    use proptest::{prop_assert, prop_assert_eq};

    fn cluster(nodes: usize, capacity: f64) -> ClusterState {
        ClusterState::new(&ClusterConfig::uniform(
            nodes,
            NodeShape { capacity: ResourceVec::splat(capacity) },
        ))
    }

    /// One cycle with `backoff` carried, a fresh index and no trace kept.
    fn cycle(
        sched: &SchedulerFramework,
        c: &ClusterState,
        backoff: &mut RequeueBackoff,
    ) -> SchedulePlan {
        let (mut index, mut trace) = (FeasibilityIndex::new(), TraceRing::new(0));
        sched.schedule_cycle_carried(c, backoff, &mut index, SimTime::ZERO, &mut trace)
    }

    fn service_pod(cluster: &mut ClusterState, app: u32, request: f64, priority: i32) -> PodId {
        cluster.create_pod(
            PodSpec::new(
                PodKind::ServiceReplica { app: AppId::new(app) },
                ResourceVec::splat(request),
                priority,
            ),
            SimTime::ZERO,
        )
    }

    #[test]
    fn places_pending_pod_on_feasible_node() {
        let mut c = cluster(2, 1000.0);
        let pod = service_pod(&mut c, 0, 100.0, 0);
        let plan = SchedulerFramework::kube_default().schedule_cycle(&c);
        assert_eq!(plan.bindings.len(), 1);
        assert_eq!(plan.bindings[0].0, pod);
        assert!(plan.unschedulable.is_empty());
    }

    #[test]
    fn shadow_accounting_prevents_double_booking() {
        let mut c = cluster(1, 1000.0); // 950 allocatable
        let a = service_pod(&mut c, 0, 600.0, 0);
        let b = service_pod(&mut c, 0, 600.0, 0);
        let plan = SchedulerFramework::kube_default().schedule_cycle(&c);
        assert_eq!(plan.bindings.len(), 1);
        assert_eq!(plan.unschedulable.len(), 1);
        let bound: Vec<PodId> = plan.bindings.iter().map(|(p, _)| *p).collect();
        assert!(bound.contains(&a) ^ bound.contains(&b));
    }

    #[test]
    fn spreading_distributes_replicas() {
        let mut c = cluster(4, 1000.0);
        for _ in 0..4 {
            service_pod(&mut c, 7, 100.0, 0);
        }
        let plan = SchedulerFramework::kube_default().schedule_cycle(&c);
        let nodes: std::collections::HashSet<NodeId> =
            plan.bindings.iter().map(|(_, n)| *n).collect();
        assert_eq!(nodes.len(), 4, "4 replicas should spread over 4 nodes: {plan:?}");
    }

    #[test]
    fn binpack_consolidates() {
        let mut c = cluster(4, 1000.0);
        for app in 0..4 {
            service_pod(&mut c, app, 100.0, 0);
        }
        let plan = SchedulerFramework::binpack().schedule_cycle(&c);
        let nodes: std::collections::HashSet<NodeId> =
            plan.bindings.iter().map(|(_, n)| *n).collect();
        assert_eq!(nodes.len(), 1, "binpack should use one node: {plan:?}");
    }

    #[test]
    fn priority_orders_the_queue() {
        let mut c = cluster(1, 1000.0); // room for one 600 pod
        let low = service_pod(&mut c, 0, 600.0, 10);
        let high = service_pod(&mut c, 1, 600.0, 100);
        let plan = SchedulerFramework::kube_default().schedule_cycle(&c);
        assert_eq!(plan.bindings, vec![(high, NodeId::new(0))]);
        assert_eq!(plan.unschedulable, vec![low]);
    }

    #[test]
    fn preemption_evicts_lower_priority() {
        let mut c = cluster(1, 1000.0);
        let batch = service_pod(&mut c, 0, 800.0, 10);
        c.bind_pod(batch, NodeId::new(0)).unwrap();
        let urgent = service_pod(&mut c, 1, 700.0, 100);
        // Without preemption: unschedulable.
        let plan = SchedulerFramework::kube_default().schedule_cycle(&c);
        assert_eq!(plan.unschedulable, vec![urgent]);
        // With preemption: batch is evicted.
        let plan = SchedulerFramework::evolve_default().schedule_cycle(&c);
        assert_eq!(plan.preemptions, vec![batch]);
        assert_eq!(plan.bindings, vec![(urgent, NodeId::new(0))]);
    }

    #[test]
    fn preemption_never_evicts_equal_or_higher_priority() {
        let mut c = cluster(1, 1000.0);
        let peer = service_pod(&mut c, 0, 800.0, 100);
        c.bind_pod(peer, NodeId::new(0)).unwrap();
        let urgent = service_pod(&mut c, 1, 700.0, 100);
        let plan = SchedulerFramework::evolve_default().schedule_cycle(&c);
        assert!(plan.preemptions.is_empty());
        assert_eq!(plan.unschedulable, vec![urgent]);
    }

    #[test]
    fn two_preemptors_cannot_claim_the_same_victim() {
        let mut c = cluster(1, 1000.0);
        // One big low-priority pod fills the node.
        let victim = service_pod(&mut c, 0, 900.0, 10);
        c.bind_pod(victim, NodeId::new(0)).unwrap();
        // Two high-priority pods each need most of the node: only one can
        // be satisfied even after evicting the victim.
        let a = service_pod(&mut c, 1, 600.0, 100);
        let b = service_pod(&mut c, 2, 600.0, 100);
        let plan = SchedulerFramework::evolve_default().schedule_cycle(&c);
        assert_eq!(plan.preemptions, vec![victim], "victim claimed once: {plan:?}");
        assert_eq!(plan.bindings.len(), 1);
        assert_eq!(plan.unschedulable.len(), 1);
        // The plan must be applicable.
        c.terminate_pod(victim, evolve_sim::PodPhase::Failed("preempted")).unwrap();
        let (pod, node) = plan.bindings[0];
        assert!(pod == a || pod == b);
        c.bind_pod(pod, node).unwrap();
        c.check_invariants();
    }

    #[test]
    fn gang_is_all_or_nothing() {
        let mut c = cluster(2, 1000.0); // 950 allocatable each
                                        // Gang of 4 ranks × 600: only 2 fit (one per node) → nothing binds.
        for rank in 0..4 {
            c.create_pod(
                PodSpec::new(
                    PodKind::HpcRank { app: AppId::new(0), job: JobId::new(9), rank },
                    ResourceVec::splat(600.0),
                    50,
                ),
                SimTime::ZERO,
            );
        }
        let plan = SchedulerFramework::kube_default().schedule_cycle(&c);
        assert!(plan.bindings.is_empty(), "partial gang placement: {plan:?}");
        assert_eq!(plan.unschedulable.len(), 4);
    }

    #[test]
    fn gang_fits_when_cluster_allows() {
        let mut c = cluster(2, 1000.0);
        for rank in 0..4 {
            c.create_pod(
                PodSpec::new(
                    PodKind::HpcRank { app: AppId::new(0), job: JobId::new(9), rank },
                    ResourceVec::splat(400.0),
                    50,
                ),
                SimTime::ZERO,
            );
        }
        let plan = SchedulerFramework::kube_default().schedule_cycle(&c);
        assert_eq!(plan.bindings.len(), 4);
    }

    #[test]
    fn backfill_places_batch_around_blocked_gang() {
        let mut c = cluster(1, 1000.0);
        // Gang that can never fit (2 × 600 on one 950 node).
        for rank in 0..2 {
            c.create_pod(
                PodSpec::new(
                    PodKind::HpcRank { app: AppId::new(0), job: JobId::new(1), rank },
                    ResourceVec::splat(600.0),
                    50,
                ),
                SimTime::ZERO,
            );
        }
        // Low-priority batch task that does fit.
        let batch = c.create_pod(
            PodSpec::new(
                PodKind::BatchTask { app: AppId::new(1), job: JobId::new(2), stage: 0, task: 0 },
                ResourceVec::splat(300.0),
                10,
            ),
            SimTime::ZERO,
        );
        let plan = SchedulerFramework::kube_default().schedule_cycle(&c);
        assert_eq!(plan.bindings, vec![(batch, NodeId::new(0))], "backfill expected");
    }

    #[test]
    fn unready_nodes_are_skipped() {
        let mut c = cluster(2, 1000.0);
        c.set_node_ready(NodeId::new(0), false).unwrap();
        let pod = service_pod(&mut c, 0, 100.0, 0);
        let plan = SchedulerFramework::kube_default().schedule_cycle(&c);
        assert_eq!(plan.bindings, vec![(pod, NodeId::new(1))]);
    }

    #[test]
    fn gang_preempts_lower_priority_without_double_claiming() {
        let mut c = cluster(2, 1000.0); // 950 allocatable each
        let batch_a = service_pod(&mut c, 0, 800.0, 10);
        let batch_b = service_pod(&mut c, 1, 800.0, 10);
        c.bind_pod(batch_a, NodeId::new(0)).unwrap();
        c.bind_pod(batch_b, NodeId::new(1)).unwrap();
        // Gang of 2 ranks × 600: blocked on free capacity, feasible only
        // by evicting one batch pod per node.
        let mut ranks = Vec::new();
        for rank in 0..2 {
            ranks.push(c.create_pod(
                PodSpec::new(
                    PodKind::HpcRank { app: AppId::new(2), job: JobId::new(9), rank },
                    ResourceVec::splat(600.0),
                    50,
                ),
                SimTime::ZERO,
            ));
        }
        // Without preemption the gang stays pending.
        let plan = SchedulerFramework::kube_default().schedule_cycle(&c);
        assert!(plan.bindings.is_empty());
        // With preemption both ranks place, each claiming a distinct
        // victim exactly once.
        let plan = SchedulerFramework::evolve_default().schedule_cycle(&c);
        assert_eq!(plan.bindings.len(), 2, "{plan:?}");
        let mut victims = plan.preemptions.clone();
        victims.sort();
        victims.dedup();
        assert_eq!(victims.len(), plan.preemptions.len(), "victim claimed twice: {plan:?}");
        // The plan must be applicable: evict, then bind.
        for v in &plan.preemptions {
            c.terminate_pod(*v, evolve_sim::PodPhase::Failed("preempted")).unwrap();
        }
        for (pod, node) in &plan.bindings {
            c.bind_pod(*pod, *node).unwrap();
        }
        c.check_invariants();
    }

    #[test]
    fn blocked_gang_preemption_rolls_back_fully() {
        let mut c = cluster(1, 1000.0);
        let batch = service_pod(&mut c, 0, 800.0, 10);
        c.bind_pod(batch, NodeId::new(0)).unwrap();
        // Gang of 2 × 600 can never fit on one 950 node even after
        // evicting the batch pod — the attempt must leave no trace.
        for rank in 0..2 {
            c.create_pod(
                PodSpec::new(
                    PodKind::HpcRank { app: AppId::new(1), job: JobId::new(9), rank },
                    ResourceVec::splat(600.0),
                    50,
                ),
                SimTime::ZERO,
            );
        }
        // A later lower-priority pod that fits next to the *surviving*
        // batch pod must still place, proving the shadow was restored.
        let filler = service_pod(&mut c, 2, 100.0, 5);
        let plan = SchedulerFramework::evolve_default().schedule_cycle(&c);
        assert!(plan.preemptions.is_empty(), "rolled-back preemption leaked: {plan:?}");
        assert_eq!(plan.bindings, vec![(filler, NodeId::new(0))]);
    }

    #[test]
    fn backoff_defers_retries_exponentially() {
        let mut c = cluster(1, 1000.0);
        let blocked = service_pod(&mut c, 0, 2_000.0, 0); // can never fit
        let sched = SchedulerFramework::kube_default();
        let mut backoff = RequeueBackoff::new();
        // Cycle 1: attempted and failed.
        let _ = cycle(&sched, &c, &mut backoff);
        assert_eq!(backoff.failures(blocked), 1);
        // Cycle 2: eligible again (first retry is immediate), fails → 2.
        let _ = cycle(&sched, &c, &mut backoff);
        assert_eq!(backoff.failures(blocked), 2);
        // Cycle 3: inside the 2-cycle window → deferred, no new failure.
        let _ = cycle(&sched, &c, &mut backoff);
        assert_eq!(backoff.failures(blocked), 2);
        // Cycle 4: eligible, fails → 3 (next window is 4 cycles).
        let _ = cycle(&sched, &c, &mut backoff);
        assert_eq!(backoff.failures(blocked), 3);
        for _ in 0..3 {
            let _ = cycle(&sched, &c, &mut backoff);
            assert_eq!(backoff.failures(blocked), 3, "deferred inside the 4-cycle window");
        }
        let _ = cycle(&sched, &c, &mut backoff);
        assert_eq!(backoff.failures(blocked), 4);
    }

    #[test]
    fn backoff_forgets_bound_pods() {
        let mut c = cluster(1, 1000.0);
        let a = service_pod(&mut c, 0, 600.0, 0);
        let b = service_pod(&mut c, 1, 600.0, 0);
        let sched = SchedulerFramework::kube_default();
        let mut backoff = RequeueBackoff::new();
        let plan = cycle(&sched, &c, &mut backoff);
        assert_eq!(plan.bindings.len(), 1);
        let loser = if plan.bindings[0].0 == a { b } else { a };
        assert_eq!(backoff.failures(loser), 1);
        // The loser binds once capacity frees up; its entry is pruned.
        c.terminate_pod(plan.bindings[0].0, evolve_sim::PodPhase::Succeeded).unwrap();
        let plan = cycle(&sched, &c, &mut backoff);
        assert_eq!(plan.bindings.len(), 1);
        c.bind_pod(loser, plan.bindings[0].1).unwrap();
        let _ = cycle(&sched, &c, &mut backoff);
        assert_eq!(backoff.failures(loser), 0, "state must prune once no longer pending");
    }

    #[test]
    fn deferred_gang_member_defers_the_whole_gang() {
        let mut c = cluster(2, 1000.0);
        // Gang of 2 × 600 fits (one rank per node) — but only once one
        // member's backoff window expires.
        let mut ranks = Vec::new();
        for rank in 0..2 {
            ranks.push(c.create_pod(
                PodSpec::new(
                    PodKind::HpcRank { app: AppId::new(0), job: JobId::new(9), rank },
                    ResourceVec::splat(600.0),
                    50,
                ),
                SimTime::ZERO,
            ));
        }
        let sched = SchedulerFramework::kube_default();
        let mut backoff = RequeueBackoff::new();
        backoff.cycle = 10;
        backoff.entries.push((ranks[0], (2, 13))); // eligible at cycle 13
        let plan = cycle(&sched, &c, &mut backoff); // cycle 11
        assert!(plan.bindings.is_empty(), "gang must defer as a unit: {plan:?}");
        assert_eq!(backoff.failures(ranks[0]), 2, "deferral accrues no penalty");
        assert_eq!(backoff.failures(ranks[1]), 0);
        let _ = cycle(&sched, &c, &mut backoff); // cycle 12
        let plan = cycle(&sched, &c, &mut backoff); // cycle 13
        assert_eq!(plan.bindings.len(), 2, "gang places once eligible: {plan:?}");
    }

    /// A carried index keys its score caches by profile: spreading scores
    /// six untouched nodes for the class, and packing with the same index
    /// must not read them.
    #[test]
    fn carried_index_never_serves_another_plugin_set_its_scores() {
        let mut c = cluster(8, 1000.0);
        let anchor = service_pod(&mut c, 0, 100.0, 0);
        c.bind_pod(anchor, NodeId::new(5)).unwrap();
        for _ in 0..2 {
            service_pod(&mut c, 0, 100.0, 0);
        }
        let (mut index, mut trace) = (FeasibilityIndex::new(), TraceRing::new(0));
        let mut carried = |fw: &SchedulerFramework| {
            let mut backoff = RequeueBackoff::new();
            fw.schedule_cycle_carried(&c, &mut backoff, &mut index, SimTime::ZERO, &mut trace)
        };
        let spread = carried(&SchedulerFramework::kube_default());
        assert!(spread.bindings.iter().all(|(_, node)| *node != NodeId::new(5)));
        let packed = carried(&SchedulerFramework::binpack());
        assert!(packed.bindings.iter().all(|(_, node)| *node == NodeId::new(5)), "{packed:?}");
    }

    /// Two frameworks of one profile share a carried index's caches, and
    /// the plan they make from it is the plan a fresh index gives.
    #[test]
    fn one_profile_keeps_a_carried_index_warm() {
        let mut c = cluster(8, 1000.0);
        for app in 0..3 {
            service_pod(&mut c, app, 100.0, 0);
        }
        let (mut index, mut trace) = (FeasibilityIndex::new(), TraceRing::new(0));
        let mut carried = |fw: &SchedulerFramework, c: &ClusterState| {
            let mut backoff = RequeueBackoff::new();
            fw.schedule_cycle_carried(c, &mut backoff, &mut index, SimTime::ZERO, &mut trace)
        };
        let first = carried(&SchedulerFramework::evolve_default(), &c);
        for (pod, node) in first.bindings {
            c.bind_pod(pod, node).unwrap();
        }
        for _ in 0..3 {
            service_pod(&mut c, 0, 100.0, 0);
        }
        let second = SchedulerFramework::evolve_default();
        let warm = carried(&second, &c);
        assert_eq!(index.cached_classes(), 3, "the classes of apps 1 and 2 survive");
        let fresh = second.schedule_cycle(&c);
        assert_eq!(warm.bindings.len(), 3);
        assert_eq!(
            (warm.bindings, warm.preemptions, warm.unschedulable),
            (fresh.bindings, fresh.preemptions, fresh.unschedulable)
        );
    }

    #[test]
    fn empty_cluster_cycle_is_empty() {
        let c = cluster(2, 1000.0);
        let plan = SchedulerFramework::kube_default().schedule_cycle(&c);
        assert_eq!(plan, SchedulePlan::default());
    }

    /// `fw` as the reference the failed-class memo is held to: every
    /// unit goes through `choose` and, on failure, `try_preempt`.
    fn without_memo(fw: SchedulerFramework) -> SchedulerFramework {
        SchedulerFramework { memo: false, ..fw }
    }

    /// A pod whose class failed earlier in the cycle places after a
    /// preemption freed more than its preemptor took: the memo is
    /// cleared when victims are claimed.
    #[test]
    fn a_preemption_clears_the_failed_classes() {
        let mut c = cluster(1, 1000.0); // 950 allocatable
        let batch = service_pod(&mut c, 0, 800.0, 0);
        c.bind_pod(batch, NodeId::new(0)).unwrap();
        // Two pods of one class: the first fits nowhere and preempts the
        // batch pod, which leaves room for the second.
        let first = service_pod(&mut c, 1, 300.0, 5);
        let second = service_pod(&mut c, 1, 300.0, 5);
        for fw in [
            SchedulerFramework::evolve_default(),
            without_memo(SchedulerFramework::evolve_default()),
        ] {
            let plan = fw.schedule_cycle(&c);
            assert_eq!(plan.preemptions, vec![batch]);
            assert_eq!(plan.bindings, vec![(first, NodeId::new(0)), (second, NodeId::new(0))]);
        }
    }

    /// The shapes the memo must not change anything for: bound pods of
    /// low priority to claim, pending singles drawn from few classes (so
    /// classes repeat) on both sides of them, and gangs.
    fn memo_cluster(
        nodes: usize,
        bound: &[(u8, u8)],
        pending: &[(u8, u8, u8, u8)],
    ) -> ClusterState {
        const REQUESTS: [f64; 5] = [120.0, 300.0, 450.0, 700.0, 900.0];
        let request = |r: u8| {
            let cpu = REQUESTS[r as usize % REQUESTS.len()];
            ResourceVec::new(cpu, cpu * 1.5, cpu / 8.0, cpu / 4.0)
        };
        let mut c = cluster(nodes, 1000.0);
        for (i, &(r, prio)) in bound.iter().enumerate() {
            let spec = PodSpec::new(
                PodKind::ServiceReplica { app: AppId::new(7) },
                request(r),
                i32::from(prio % 3),
            );
            let pod = c.create_pod(spec, SimTime::from_micros(i as u64));
            let node = c.nodes().iter().find(|n| n.can_fit(&spec.request)).map(Node::id);
            match node {
                Some(node) => c.bind_pod(pod, node).unwrap(),
                None => c.terminate_pod(pod, evolve_sim::PodPhase::Failed("full")).unwrap(),
            }
        }
        for (i, &(app, r, prio, gang)) in pending.iter().enumerate() {
            let app = AppId::new(u32::from(app % 3));
            // One pod in four is a rank of one of two gangs.
            let kind = match gang % 8 {
                0 | 1 => PodKind::HpcRank {
                    app: AppId::new(10 + u32::from(gang % 2)),
                    job: JobId::new(u64::from(gang % 2)),
                    rank: i as u32,
                },
                _ => PodKind::ServiceReplica { app },
            };
            let spec = PodSpec::new(kind, request(r), i32::from(prio % 6));
            c.create_pod(spec, SimTime::from_micros(100 + i as u64 / 2));
        }
        c
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 128,
            ..proptest::test_runner::ProptestConfig::default()
        })]

        /// Cycles with the failed-class memo make the plans and the trace
        /// events of the reference without it, under every profile: over
        /// three carried cycles, each applied (victims out, bindings in)
        /// before the next, with the backoff ledger and the index carried.
        /// Only the work counters may differ.
        #[test]
        fn failed_classes_change_no_plan_and_no_trace(
            nodes in 1usize..4,
            bound in proptest::collection::vec((0u8..5, 0u8..3), 0..10),
            pending in proptest::collection::vec((0u8..3, 0u8..5, 0u8..6, 0u8..8), 1..28),
            profile in 0u8..3,
        ) {
            let profile = [
                SchedulerProfile::Evolve,
                SchedulerProfile::KubeDefault,
                SchedulerProfile::Binpack,
            ][profile as usize];
            let mut c = memo_cluster(nodes, &bound, &pending);
            let (memo, reference) =
                (SchedulerFramework::new(profile), without_memo(SchedulerFramework::new(profile)));
            let mut sides = [
                (RequeueBackoff::new(), FeasibilityIndex::new()),
                (RequeueBackoff::new(), FeasibilityIndex::new()),
            ];
            for cycle in 0..3u64 {
                let at = SimTime::from_secs(cycle);
                let mut plans = Vec::new();
                let mut events = Vec::new();
                for (fw, (backoff, index)) in [&memo, &reference].into_iter().zip(&mut sides) {
                    let mut trace = TraceRing::new(4_096);
                    let plan = fw.schedule_cycle_carried(&c, backoff, index, at, &mut trace);
                    events.push(trace.events().cloned().collect::<Vec<_>>());
                    plans.push(plan);
                }
                let [with, without] = [&plans[0], &plans[1]];
                let outcome = |p: &SchedulePlan| {
                    (p.bindings.clone(), p.preemptions.clone(), p.unschedulable.clone(), p.stale_pod_lookups)
                };
                proptest::prop_assert_eq!(outcome(with), outcome(without), "cycle {}", cycle);
                proptest::prop_assert_eq!(&events[0], &events[1], "cycle {}", cycle);
                proptest::prop_assert_eq!(&sides[0].0, &sides[1].0, "the ledgers, cycle {}", cycle);
                for victim in &with.preemptions {
                    c.terminate_pod(*victim, evolve_sim::PodPhase::Failed("preempted")).unwrap();
                }
                for (pod, node) in &with.bindings {
                    c.bind_pod(*pod, *node).unwrap();
                }
            }
        }
    }

    /// The ledger as it was before the table: a map by pod id, pruned by
    /// `retain`, encoded in the map's order.
    #[derive(Default)]
    struct MapBackoff {
        cycle: u64,
        state: BTreeMap<PodId, (u32, u64)>,
    }

    impl MapBackoff {
        fn begin_cycle(&mut self, cluster: &ClusterState) {
            self.cycle += 1;
            self.state.retain(|id, _| cluster.pod(*id).is_ok_and(Pod::is_pending));
        }

        fn held(&self, pod: PodId) -> (u32, u64) {
            self.state.get(&pod).copied().unwrap_or((0, 0))
        }

        fn record_failure(&mut self, pod: PodId) -> u32 {
            let entry = self.state.entry(pod).or_insert((0, 0));
            entry.0 += 1;
            let delay = (1u64 << (entry.0 - 1).min(2)).min(4);
            entry.1 = self.cycle + delay;
            entry.0
        }

        fn bytes(&self) -> Vec<u8> {
            let entries: Vec<_> = self.state.iter().map(|(pod, held)| (pod.raw(), *held)).collect();
            backoff_bytes(self.cycle, entries.len(), &entries)
        }
    }

    fn bytes(backoff: &RequeueBackoff) -> Vec<u8> {
        let mut enc = Encoder::new();
        backoff.encode(&mut enc);
        enc.into_bytes()
    }

    fn decoded(bytes: &[u8]) -> Result<RequeueBackoff> {
        RequeueBackoff::decode(&mut Decoder::new(bytes))
    }

    /// Random pod lifecycles and cycles against the map: after every step
    /// the same reads, the same checkpoint bytes, and a decoded copy equal
    /// to the ledger it was written from.
    fn run_backoff_model(ops: Vec<(u8, u64)>) -> std::result::Result<(), String> {
        use evolve_sim::PodPhase;
        let mut c = cluster(2, 1000.0);
        let (mut table, mut model) = (RequeueBackoff::new(), MapBackoff::default());
        for (op, sel) in ops {
            let pick = |pods: Vec<PodId>| {
                (!pods.is_empty()).then(|| pods[(sel % pods.len() as u64) as usize])
            };
            let pending = pick(c.pending_pods().map(|p| p.id).collect());
            let any = pick(c.pods().filter(|p| !p.phase.is_terminal()).map(|p| p.id).collect());
            match op {
                0..=2 => {
                    service_pod(&mut c, 0, 10.0, 0);
                }
                // A pod binds, or dies where it stands: its entry is stale
                // until the next cycle forgets it.
                3 | 4 => {
                    if let Some(pod) = pending {
                        c.bind_pod(pod, NodeId::new((sel % 2) as u32)).expect("10 of 950 fits");
                    }
                }
                5 => {
                    if let Some(pod) = any {
                        c.terminate_pod(pod, PodPhase::Succeeded).expect("not terminal");
                    }
                }
                // A dead pod queues again under its old id, which the index
                // may have known.
                14 => {
                    let dead = c.pods().filter(|p| p.phase.is_terminal()).map(|p| p.id).collect();
                    if let Some(pod) = pick(dead) {
                        c.requeue_pod(pod, SimTime::ZERO).expect("holds nothing");
                    }
                }
                // A cycle, as `cycle_impl` drives the ledger: prune, then one
                // read per pending pod and one write for each that is due and
                // fails to place. One in eight follows a restart, where the
                // ledger comes back from its checkpoint without an index.
                _ => {
                    if op == 6 {
                        table = decoded(&bytes(&table)).expect("own bytes decode");
                    }
                    table.begin_cycle(&c);
                    model.begin_cycle(&c);
                    for (i, pod) in c.pending_pods().map(|p| p.id).enumerate() {
                        let held = table.held(pod);
                        prop_assert_eq!(held, model.held(pod), "held({}) in the cycle", pod);
                        if held.1 <= table.cycle && (sel >> (i % 64)) & 1 == 1 {
                            prop_assert_eq!(table.record_failure(pod), model.record_failure(pod));
                        }
                    }
                }
            }
            let written = bytes(&table);
            prop_assert_eq!(&written, &model.bytes(), "checkpoint bytes differ from the map's");
            let back = decoded(&written).expect("own bytes decode");
            prop_assert_eq!(bytes(&back), written, "a decoded ledger re-encodes differently");
            prop_assert!(back == table, "a decoded ledger is not equal to its source");
            for id in 0..=c.pods().count() as u64 {
                let pod = PodId::new(id);
                prop_assert_eq!(table.held(pod), model.held(pod), "held({})", pod);
                prop_assert_eq!(table.failures(pod), model.held(pod).0, "failures({})", pod);
                prop_assert_eq!(back.failures(pod), model.held(pod).0, "decoded failures({})", pod);
            }
            prop_assert!(table.index.len() <= c.pods().count(), "one index slot per pod issued");
        }
        Ok(())
    }

    proptest::proptest! {
        #[test]
        fn backoff_table_matches_the_map(
            ops in proptest::collection::vec((0u8..15, proptest::prelude::any::<u64>()), 1..300)
        ) {
            run_backoff_model(ops)?;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 256,
            ..proptest::test_runner::ProptestConfig::default()
        })]

        /// Dealing singles into priority buckets and merging the gangs in
        /// gives the comparison sort's order, unit for unit, over any mix
        /// of priorities, creation ties and gangs; a reused queue too.
        #[test]
        fn bucketed_queue_matches_the_comparison_sort(
            cycles in proptest::collection::vec(
                proptest::collection::vec((-2i32..3, 0u64..6, 0u8..4), 0..60),
                1..4,
            ),
        ) {
            let mut queue = UnitQueue::default();
            for units in cycles {
                // Pod `k` is unit `k`'s first pod; one in four is a gang.
                let unit = |(k, &(prio, created, kind)): (usize, &(i32, u64, u8))| {
                    let gang = (kind == 0).then(|| JobId::new(k as u64));
                    (prio, SimTime::from_secs(created), PodId::new(k as u64), gang)
                };
                let all: Vec<QueuedUnit> = units.iter().enumerate().map(unit).collect();
                let mut singles: Vec<QueuedUnit> =
                    all.iter().copied().filter(|u| u.3.is_none()).collect();
                singles.sort_by_key(|u| (u.1, u.2));
                queue.clear();
                for single in singles {
                    queue.push_single(single);
                }
                queue.order(all.iter().copied().filter(|u| u.3.is_some()));
                let mut sorted = all;
                sorted.sort_by(unit_order);
                prop_assert_eq!(&queue.units, &sorted);
            }
        }
    }

    /// `cycle`, a count and `(pod, failures, retry_at)` triples, as the
    /// checkpoint holds them.
    fn backoff_bytes(cycle: u64, count: usize, entries: &[(u64, (u32, u64))]) -> Vec<u8> {
        let mut enc = Encoder::new();
        cycle.encode(&mut enc);
        count.encode(&mut enc);
        for &(pod, (failures, retry_at)) in entries {
            PodId::new(pod).encode(&mut enc);
            failures.encode(&mut enc);
            retry_at.encode(&mut enc);
        }
        enc.into_bytes()
    }

    #[test]
    fn backoff_decode_rejects_what_encode_never_writes() {
        let corrupt = |bytes: &[u8]| matches!(decoded(bytes), Err(Error::CorruptCheckpoint(_)));
        let good = backoff_bytes(7, 2, &[(3, (1, 8)), (9, (2, 9))]);
        assert_eq!(bytes(&decoded(&good).expect("ascending entries")), good);
        assert!(corrupt(&backoff_bytes(7, 2, &[(3, (1, 8)), (3, (2, 9))])), "a pod listed twice");
        assert!(corrupt(&backoff_bytes(7, 2, &[(9, (2, 9)), (3, (1, 8))])), "descending entries");
        assert!(corrupt(&good[..good.len() - 1]), "the last entry cut short");
        assert!(
            corrupt(&backoff_bytes(7, 3, &[(3, (1, 8)), (9, (2, 9))])),
            "fewer entries than said"
        );
        assert!(corrupt(&backoff_bytes(7, usize::MAX, &[])), "a count nothing backs");
    }

    #[test]
    fn backoff_never_sizes_anything_by_a_decoded_pod_id() {
        let mut c = cluster(1, 1000.0);
        let blocked = service_pod(&mut c, 0, 5_000.0, 0);
        let mut backoff =
            decoded(&backoff_bytes(4, 2, &[(0, (3, 9)), (1 << 63, (1, 5))])).expect("well formed");
        assert_eq!(backoff.failures(PodId::new(1 << 63)), 1);
        assert!(backoff.index.is_empty(), "decode builds no index");
        let plan = cycle(&SchedulerFramework::kube_default(), &c, &mut backoff);
        assert_eq!(plan.unschedulable, [blocked], "still inside the restored window");
        assert_eq!((backoff.failures(blocked), backoff.failures(PodId::new(1 << 63))), (3, 0));
        assert_eq!(backoff.index.len(), 1, "the index spans the cluster's pods, not the id read");
        assert_eq!(bytes(&backoff), backoff_bytes(5, 1, &[(0, (3, 9))]));
    }
}
