//! The discrete-event engine.
//!
//! [`Simulation`] owns the cluster, the per-application runtimes and the
//! event heap. The resource manager (in `evolve-core`) drives it in a
//! classic control loop:
//!
//! ```text
//! loop {
//!     sim.run_until(next_control_tick);      // world evolves
//!     let window = sim.take_window(app);     // scrape metrics
//!     …controller decides…
//!     sim.set_target(app, replicas, alloc, 1.0);     // actuate
//!     …scheduler binds pending pods via sim.bind_pod…
//! }
//! ```
//!
//! Everything is deterministic under a fixed seed: the event heap breaks
//! ties by sequence number and all randomness flows from one seeded
//! ChaCha8 stream.

mod batch;
mod hpc;
mod lanes;
#[cfg(test)]
mod lanes_model;
mod service;

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use evolve_types::{AppId, Error, NodeId, PodId, ResourceVec, Result, SimDuration, SimTime};
use evolve_workload::{SamplingMode, WorkloadMix, WorldClass};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::cluster::{ClusterConfig, ClusterState};
use crate::heap;
use crate::observe::{AppStatus, AppWindow, ClusterSnapshot, JobOutcome};
use crate::pod::PodPhase;

pub(crate) use batch::BatchRuntime;
pub(crate) use hpc::HpcRuntime;
pub(crate) use lanes::Replicas;
pub(crate) use service::ServiceRuntime;

/// Container start latency (bind → running).
pub(crate) const POD_START_DELAY: SimDuration = SimDuration::from_secs(3);
/// Maximum queued requests per service while no replica runs.
pub(crate) const SERVICE_QUEUE_CAP: usize = 10_000;
/// Queue bound while a service is in load-shedding mode (capacity clipped
/// by the arbiter): arrivals beyond it are rejected at the front door and
/// counted as shed, not queued.
pub(crate) const SHED_QUEUE_CAP: usize = 64;
/// Coefficient of variation of HPC iteration durations.
pub(crate) const HPC_JITTER_CV: f64 = 0.05;
/// Scheduling priority of service replicas.
pub(crate) const SERVICE_PRIORITY: i32 = 100;
/// Scheduling priority of HPC ranks.
pub(crate) const HPC_PRIORITY: i32 = 50;
/// Scheduling priority of batch tasks.
pub(crate) const BATCH_PRIORITY: i32 = 10;

/// Engine settings: which sampler generation the stochastic streams use.
/// Everything else the engine needs is a constant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimulationConfig {
    /// Which sampler generation the stochastic streams use. `Batched`
    /// (default) is the post-PR-6 ziggurat/windowed stream; `Legacy`
    /// reproduces the pre-PR-6 Box–Muller/thinning stream bit-for-bit.
    pub sampling: SamplingMode,
}

/// Who owns a pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Owner {
    Service(usize),
    Batch(usize),
    Hpc(usize),
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Event {
    ServiceArrival { svc: usize },
    PodStarted { pod: PodId },
    BatchSubmit { idx: usize },
    HpcSubmit { idx: usize },
    HpcIterationDone { idx: usize, version: u64 },
    NodeFail { node: NodeId },
    NodeRecover { node: NodeId },
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct Scheduled {
    at: SimTime,
    seq: u64,
    event: Event,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A pending replica wake-up: the timer a [`crate::ReplicaServer`] set for
/// its next completion or timeout.
#[derive(Debug, Clone, Copy)]
struct WakeEntry {
    at: SimTime,
    seq: u64,
    pod: PodId,
    version: u64,
    /// The pod's slot in its app's table when the timer was set: a hint.
    slot: u32,
}

/// A dense `PodId`-keyed map. Pod ids are handed out sequentially by the
/// cluster, so a `Vec` indexed by raw id replaces hashing on the per-event
/// paths (owner dispatch, wake-queue position tracking).
#[derive(Debug)]
pub(crate) struct PodMap<T> {
    slots: Vec<Option<T>>,
}

impl<T> Default for PodMap<T> {
    fn default() -> Self {
        PodMap { slots: Vec::new() }
    }
}

impl<T: Copy> PodMap<T> {
    pub(crate) fn get(&self, pod: PodId) -> Option<T> {
        self.slots.get(pod.as_usize()).copied().flatten()
    }

    pub(crate) fn insert(&mut self, pod: PodId, value: T) {
        let i = pod.as_usize();
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i] = Some(value);
    }

    pub(crate) fn remove(&mut self, pod: PodId) {
        if let Some(slot) = self.slots.get_mut(pod.as_usize()) {
            *slot = None;
        }
    }

    /// Room for the ids of `pods` pods in all.
    fn reserve(&mut self, pods: usize) {
        self.slots.reserve(pods.saturating_sub(self.slots.len()));
    }
}

/// Whose timer a wake-up is, and so which heap of the [`WakeQueue`] holds
/// it. A pod's owner never changes, so neither does its kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Timer {
    /// A service replica's next completion or timeout: milliseconds away,
    /// moved on every arrival.
    Service,
    /// A batch task's completion: minutes away, set about once.
    Batch,
}

/// Indexed min-heaps of replica wake-ups, one per [`Timer`] kind, at most
/// one entry per pod.
///
/// Replica timers are the highest-churn events in the engine: every
/// admission, drain or resize reschedules the pod's wake-up, and under the
/// plain event heap each reschedule pushed a fresh event while the old one
/// stayed behind as a stale no-op (~16% of all popped events on the
/// headline scenario). Every reschedule carries a freshly bumped version,
/// which proves the pod's previous entry could only have popped as a
/// stale no-op — so it is replaced in place instead.
///
/// Service and batch timers sit in separate heaps, so a service
/// reschedule sifts past the other service timers only, not past the
/// thousands of standing batch timers of a large cluster. Both heaps share
/// one pod → slot index: a pod is only ever in its own kind's heap.
///
/// Entries are keyed by `(at, seq)` with `seq` drawn from the same global
/// counter as the main heap, so keys never tie and taking the smaller of
/// the two roots reproduces one heap's pop order exactly. Each carries the
/// replica-table slot it was set from: the hint its wake-up starts from.
#[derive(Debug, Default)]
struct WakeQueue {
    /// Min-heaps ordered by `(at, seq)`, indexed by [`Timer`].
    heaps: [Vec<WakeEntry>; 2],
    /// Pod → index into its kind's heap.
    pos: PodMap<u32>,
}

impl WakeQueue {
    /// The smallest `(at, seq)` key and the heap it heads, `None` when both
    /// are empty.
    fn peek_key(&self) -> Option<((SimTime, u64), Timer)> {
        let [service, batch] = &self.heaps;
        match (service.first().map(heap::Entry::key), batch.first().map(heap::Entry::key)) {
            (Some(s), Some(b)) if b < s => Some((b, Timer::Batch)),
            (Some(s), _) => Some((s, Timer::Service)),
            (None, b) => b.map(|b| (b, Timer::Batch)),
        }
    }

    /// The earliest entry of one kind, without removing it.
    fn peek(&self, timer: Timer) -> Option<&WakeEntry> {
        self.heaps[timer as usize].first()
    }

    /// Schedules or replaces the pod's wake-up in its kind's heap.
    fn set(&mut self, timer: Timer, entry: WakeEntry) {
        let heap = &mut self.heaps[timer as usize];
        if let Some(i) = self.pos.get(entry.pod) {
            debug_assert!(
                heap.get(i as usize).is_some_and(|e| e.pod == entry.pod),
                "{}'s index points at another entry of its {timer:?} heap",
                entry.pod
            );
            heap[i as usize] = entry;
            heap::resift(heap, &mut self.pos, i as usize);
        } else {
            heap::push(heap, &mut self.pos, entry);
        }
    }

    /// Removes and returns the earliest wake-up of one kind.
    fn pop(&mut self, timer: Timer) -> Option<WakeEntry> {
        let heap = &mut self.heaps[timer as usize];
        if heap.is_empty() {
            return None;
        }
        let e = heap::remove(heap, &mut self.pos, 0);
        self.pos.remove(e.pod);
        Some(e)
    }

    /// Room for the wake-ups of `service` replicas and `batch` tasks, one
    /// each at most, and for the index of `pods` pods in all.
    fn reserve(&mut self, service: usize, batch: usize, pods: usize) {
        for (heap, n) in self.heaps.iter_mut().zip([service, batch]) {
            heap.reserve(n.saturating_sub(heap.len()));
        }
        self.pos.reserve(pods);
    }
}

/// Pop order is strictly `(at, seq)`, so the event trajectory does not
/// depend on the heap's shape.
impl heap::Entry<PodMap<u32>> for WakeEntry {
    type Key = (SimTime, u64);
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
    fn moved(&self, slot: usize, pos: &mut PodMap<u32>) {
        pos.insert(self.pod, slot as u32);
    }
}

/// The discrete-event cluster simulation.
pub struct Simulation {
    pub(crate) config: SimulationConfig,
    pub(crate) cluster: ClusterState,
    pub(crate) now: SimTime,
    heap: BinaryHeap<Reverse<Scheduled>>,
    wakes: WakeQueue,
    seq: u64,
    pub(crate) rng: ChaCha8Rng,
    pub(crate) services: Vec<ServiceRuntime>,
    pub(crate) batches: Vec<BatchRuntime>,
    pub(crate) hpcs: Vec<HpcRuntime>,
    pub(crate) pod_owner: PodMap<Owner>,
    /// (world, runtime index) of every app, indexed by its dense id.
    app_index: Vec<Owner>,
    statuses: Vec<AppStatus>,
    /// Per-pod ceiling applied to every created pod (largest node
    /// allocatable by default — a pod cannot out-grow its node).
    pub(crate) pod_limit: ResourceVec,
    /// Next pre-generated arrival per service (batched sampling mode),
    /// `SimTime::MAX` for none, under a tree of their minimum; merged into
    /// `run_until`'s pop order without round-tripping through the main
    /// heap.
    arrivals: ArrivalSlots,
    /// Reusable drain-outcome buffers for the per-event advance paths
    /// (one wake or arrival at a time ever holds them).
    pub(crate) drain_scratch: crate::perf::DrainOutcome,
    events_processed: u64,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now)
            .field("services", &self.services.len())
            .field("batches", &self.batches.len())
            .field("hpcs", &self.hpcs.len())
            .field("events_processed", &self.events_processed)
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Builds a simulation from a workload mix on a fresh cluster.
    ///
    /// Applications receive dense [`AppId`]s: services first, then batch
    /// jobs, then HPC jobs, in mix order.
    ///
    /// # Panics
    ///
    /// Panics when the mix is empty.
    #[must_use]
    pub fn new(
        config: SimulationConfig,
        cluster_config: ClusterConfig,
        mix: &WorkloadMix,
        seed: u64,
    ) -> Self {
        assert!(!mix.is_empty(), "workload mix must not be empty");
        let cluster = ClusterState::new(&cluster_config);
        let pod_limit = cluster
            .nodes()
            .iter()
            .map(crate::node::Node::allocatable)
            .fold(ResourceVec::ZERO, |acc, a| acc.max(&a));
        let mut sim = Simulation {
            config,
            cluster,
            now: SimTime::ZERO,
            heap: BinaryHeap::new(),
            wakes: WakeQueue::default(),
            seq: 0,
            rng: ChaCha8Rng::seed_from_u64(seed),
            services: Vec::new(),
            batches: Vec::new(),
            hpcs: Vec::new(),
            pod_owner: PodMap::default(),
            app_index: Vec::new(),
            statuses: Vec::new(),
            pod_limit,
            arrivals: ArrivalSlots::new(mix.services().len()),
            drain_scratch: crate::perf::DrainOutcome::default(),
            events_processed: 0,
        };
        let mut next_app = 0u32;
        for (spec, _) in mix.services() {
            let app = AppId::new(next_app);
            next_app += 1;
            sim.statuses.push(AppStatus {
                id: app,
                name: spec.name.clone(),
                world: WorldClass::Microservice,
                plo: spec.plo,
                priority: spec.priority,
            });
            let idx = sim.services.len();
            sim.app_index.push(Owner::Service(idx));
            sim.services.push(ServiceRuntime::new(app, spec, config.sampling));
            // Initial replicas exist from t=0.
            for _ in 0..spec.replicas {
                sim.create_service_pod(idx);
            }
            sim.schedule_next_arrival(idx);
        }
        for (job_idx, spec) in mix.batch_jobs().iter().enumerate() {
            let app = AppId::new(next_app);
            next_app += 1;
            sim.statuses.push(AppStatus {
                id: app,
                name: format!("{}-{job_idx}", spec.name),
                world: WorldClass::BigData,
                plo: spec.plo,
                priority: spec.priority,
            });
            let idx = sim.batches.len();
            sim.app_index.push(Owner::Batch(idx));
            sim.batches.push(BatchRuntime::new(app, job_idx as u64, spec));
            sim.schedule(spec.submit_at, Event::BatchSubmit { idx });
        }
        for (job_idx, spec) in mix.hpc_jobs().iter().enumerate() {
            let app = AppId::new(next_app);
            next_app += 1;
            sim.statuses.push(AppStatus {
                id: app,
                name: format!("{}-{job_idx}", spec.name),
                world: WorldClass::Hpc,
                plo: spec.plo(),
                priority: spec.priority,
            });
            let idx = sim.hpcs.len();
            sim.app_index.push(Owner::Hpc(idx));
            sim.hpcs.push(HpcRuntime::new(app, 1_000 + job_idx as u64, spec));
            sim.schedule(spec.submit_at, Event::HpcSubmit { idx });
        }
        sim
    }

    /// The pods a fault-free run to `horizon` creates when no service runs
    /// more than `replica_ceiling` replicas, or its initial count if that is
    /// more: every service's replicas up to that ceiling, every gang's ranks,
    /// and of each batch job's tasks those its executor pool can start
    /// before the horizon. A pod created again — after a scale-in, a
    /// preemption, a lost node — comes on top.
    #[must_use]
    pub fn pod_bound(&self, horizon: SimDuration, replica_ceiling: u32) -> usize {
        let [services, batches, gangs] = self.pod_bounds(horizon, replica_ceiling);
        services + batches + gangs
    }

    /// [`Simulation::pod_bound`] split by world: service replicas, batch
    /// tasks, HPC ranks.
    fn pod_bounds(&self, horizon: SimDuration, replica_ceiling: u32) -> [usize; 3] {
        let end = SimTime::ZERO + horizon;
        [
            self.services.iter().map(|s| s.replica_bound(replica_ceiling)).sum(),
            self.batches.iter().map(|b| b.pod_bound(end)).sum(),
            self.hpcs.iter().map(|h| h.pod_bound(end)).sum(),
        ]
    }

    /// Gives the run's long-lived tables their final capacity once, from
    /// [`Simulation::pod_bound`]: the pod table and the tables indexed by pod
    /// id, the event heap, each wake-up heap for its own kind's pods, and
    /// each service's replica table. A run that creates more pods grows them
    /// on demand.
    pub fn presize(&mut self, horizon: SimDuration, replica_ceiling: u32) {
        let bounds = self.pod_bounds(horizon, replica_ceiling);
        let pods = bounds.iter().sum();
        self.cluster.reserve_pods(pods);
        self.pod_owner.reserve(pods);
        self.wakes.reserve(bounds[0], bounds[1], pods);
        // Every pod's start, and each job's submission.
        let events = pods + self.batches.len() + self.hpcs.len();
        self.heap.reserve(events.saturating_sub(self.heap.len()));
        for svc in &mut self.services {
            let replicas = svc.replica_bound(replica_ceiling);
            svc.replicas.reserve(replicas);
        }
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed (engine-throughput benchmarking).
    #[must_use]
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Total legacy-thinning bailouts across all services (each one
    /// silenced an arrival stream until the next poll; see
    /// `PoissonArrivals::thinning_bailouts`).
    #[must_use]
    pub fn thinning_bailouts(&self) -> u64 {
        self.services.iter().map(ServiceRuntime::thinning_bailouts).sum()
    }

    /// Read access to the cluster (the scheduler's world view).
    #[must_use]
    pub fn cluster(&self) -> &ClusterState {
        &self.cluster
    }

    /// Identities of all managed applications.
    #[must_use]
    pub fn apps(&self) -> &[AppStatus] {
        &self.statuses
    }

    /// Apps get dense ids at construction, so an id past the end is unknown.
    fn owner(&self, app: AppId) -> Option<Owner> {
        self.app_index.get(app.as_usize()).copied()
    }

    pub(crate) fn schedule(&mut self, at: SimTime, event: Event) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.seq += 1;
        self.heap.push(Reverse(Scheduled { at, seq: self.seq, event }));
    }

    /// Runs the world forward to `to` (inclusive of events at `to`).
    ///
    /// Four queues are merged by `(at, seq)`: the main heap, the wake queue's
    /// two heaps (service and batch timers, the smaller root taken) and the
    /// per-service arrival slots (a dense `SimTime` each, `SimTime::MAX` for
    /// none, their minimum at the root of a tournament tree that each slot
    /// write repairs). Heap and wake `seq`s come from one global counter, so
    /// their keys never collide; arrival slots carry a pseudo-seq of 0, so a
    /// same-instant tie deterministically dispatches the arrival first (and
    /// ties between services break on the lowest service index).
    pub fn run_until(&mut self, to: SimTime) {
        /// Where the next event comes from.
        enum Src {
            Heap,
            Wake(Timer),
            Arrival(usize),
        }
        loop {
            let (at, svc) = self.arrivals.min();
            let mut best = (at < SimTime::MAX).then_some(((at, 0), Src::Arrival(svc)));
            if let Some(h) = self.heap.peek().map(|Reverse(s)| (s.at, s.seq)) {
                if best.as_ref().is_none_or(|(k, _)| h < *k) {
                    best = Some((h, Src::Heap));
                }
            }
            if let Some((w, timer)) = self.wakes.peek_key() {
                if best.as_ref().is_none_or(|(k, _)| w < *k) {
                    best = Some((w, Src::Wake(timer)));
                }
            }
            let Some((key, src)) = best else {
                break;
            };
            if key.0 > to {
                break;
            }
            self.now = key.0.max(self.now);
            self.events_processed += 1;
            match src {
                Src::Wake(timer) => {
                    // Replace-top: leave the entry in place while the
                    // handler runs. The common outcome is that the same
                    // pod reschedules, which rewrites the root key of its
                    // heap and sifts once — instead of a full pop
                    // (sift-down) plus reinsert (sift-up). Every wake
                    // scheduled during handling carries `at >= now` and a
                    // fresh, larger seq, so nothing can displace the root
                    // from below.
                    let e = *self.wakes.peek(timer).expect("peeked");
                    self.handle_wake(e.pod, e.version, e.slot as usize);
                    // Root untouched — stale wake, retired pod, or a
                    // drained-idle replica with nothing to reschedule —
                    // so it must be removed for real.
                    if self
                        .wakes
                        .peek(timer)
                        .is_some_and(|r| r.pod == e.pod && r.at == e.at && r.seq == e.seq)
                    {
                        self.wakes.pop(timer);
                    }
                }
                Src::Heap => {
                    let Reverse(sch) = self.heap.pop().expect("peeked");
                    self.dispatch(sch.event);
                }
                // Rearming the slot (to `SimTime::MAX` when the stream
                // ends) is the one write its tree path needs.
                Src::Arrival(svc) => self.handle_service_arrival(svc),
            }
        }
        if to > self.now {
            self.now = to;
        }
    }

    fn dispatch(&mut self, event: Event) {
        match event {
            Event::ServiceArrival { svc } => self.handle_service_arrival(svc),
            Event::PodStarted { pod } => self.handle_pod_started(pod),
            Event::BatchSubmit { idx } => self.batch_submit(idx),
            Event::HpcSubmit { idx } => self.hpc_submit(idx),
            Event::HpcIterationDone { idx, version } => self.hpc_iteration_done(idx, version),
            Event::NodeFail { node } => self.handle_node_fail(node),
            Event::NodeRecover { node } => {
                let _ = self.cluster.set_node_ready(node, true);
            }
        }
    }

    // ------------------------------------------------------------------
    // Pod lifecycle shared across worlds
    // ------------------------------------------------------------------

    /// Binds a pending pod to a node and schedules its start. This is the
    /// actuation path for scheduler decisions.
    ///
    /// # Errors
    ///
    /// Propagates cluster binding failures (unknown ids, capacity).
    pub fn bind_pod(&mut self, pod: PodId, node: NodeId) -> Result<()> {
        self.cluster.bind_pod(pod, node)?;
        let at = self.now + POD_START_DELAY;
        self.schedule(at, Event::PodStarted { pod });
        Ok(())
    }

    /// Preempts a bound pod (scheduler-driven). Services lose the replica
    /// (the deployment recreates it), batch tasks are requeued with lost
    /// progress, HPC ranks are requeued and the gang pauses.
    ///
    /// # Errors
    ///
    /// Fails when the pod is unknown or not bound.
    pub fn preempt_pod(&mut self, pod: PodId) -> Result<()> {
        if !self.cluster.pod(pod)?.phase.holds_resources() {
            return Err(Error::InvalidState(format!("{pod} is not bound")));
        }
        self.remove_pod(pod, "preempted");
        Ok(())
    }

    /// Schedules a node failure (and optional recovery) — fault injection
    /// for the resilience experiments.
    pub fn inject_node_failure(
        &mut self,
        node: NodeId,
        fail_at: SimTime,
        recover_at: Option<SimTime>,
    ) {
        self.schedule(fail_at.max(self.now), Event::NodeFail { node });
        if let Some(r) = recover_at {
            self.schedule(r.max(self.now), Event::NodeRecover { node });
        }
    }

    fn handle_node_fail(&mut self, node: NodeId) {
        // `set_node_ready` evicts the node's pods and returns them; the
        // owner-specific recovery (replacement pod, task requeue, gang
        // pause + rank requeue) happens here.
        let Ok(victims) = self.cluster.set_node_ready(node, false) else {
            return;
        };
        for pod in victims {
            self.remove_pod(pod, "node failure");
        }
    }

    /// Terminates a bound/pending pod and performs the owner-specific
    /// recovery (replacement pod, task requeue, gang pause).
    pub(crate) fn remove_pod(&mut self, pod: PodId, reason: &'static str) {
        let Some(owner) = self.pod_owner.get(pod) else {
            return;
        };
        match owner {
            Owner::Service(idx) => self.service_pod_lost(idx, pod, reason),
            Owner::Batch(idx) => self.batch_pod_lost(idx, pod, reason),
            Owner::Hpc(idx) => self.hpc_pod_lost(idx, pod, reason),
        }
    }

    fn handle_pod_started(&mut self, pod: PodId) {
        // The pod may have been preempted/killed while starting.
        let Ok(p) = self.cluster.pod(pod) else {
            return;
        };
        if p.phase != PodPhase::Starting {
            return;
        }
        self.cluster.start_pod(pod, self.now).expect("phase checked");
        match self.pod_owner.get(pod) {
            Some(Owner::Service(idx)) => self.service_pod_started(idx, pod),
            Some(Owner::Batch(idx)) => self.batch_pod_started(idx, pod),
            Some(Owner::Hpc(idx)) => self.hpc_pod_started(idx, pod),
            None => {}
        }
    }

    fn handle_wake(&mut self, pod: PodId, version: u64, hint: usize) {
        match self.pod_owner.get(pod) {
            Some(Owner::Service(idx)) => self.service_wake(idx, pod, version, hint),
            Some(Owner::Batch(idx)) => self.batch_wake(idx, pod, version, hint),
            _ => {}
        }
    }

    /// Sets the wake-up of the pod at `slot` of its app's table to its
    /// server's next event; an idle server (`None`) schedules nothing, and the
    /// version its caller just bumped retires whatever timer is still queued.
    /// The caller names the pod's kind: a lookup here would cost every
    /// release of a request.
    pub(crate) fn schedule_wake(
        &mut self,
        timer: Timer,
        pod: PodId,
        slot: usize,
        at: Option<SimTime>,
        version: u64,
    ) {
        debug_assert!(
            matches!(
                (timer, self.pod_owner.get(pod)),
                (Timer::Service, Some(Owner::Service(_))) | (Timer::Batch, Some(Owner::Batch(_)))
            ),
            "a {timer:?} timer for {pod}, owned by {:?}",
            self.pod_owner.get(pod)
        );
        let Some(at) = at else {
            return;
        };
        // Draw from the same seq counter as `schedule` so the merged pop
        // order in `run_until` matches the old single-heap order exactly.
        self.seq += 1;
        let (at, slot) = (at.max(self.now), slot as u32);
        self.wakes.set(timer, WakeEntry { at, seq: self.seq, pod, version, slot });
    }

    /// A controller's per-replica target as every pod of its app gets it:
    /// clamped to `pod_limit` and sanitized, and whether a pod may take it.
    /// A validating resize would ask that of each pod; asked once, only
    /// zero fails, since the clamped target is valid and every engine
    /// pod's limit is `pod_limit`.
    pub(crate) fn clamp_target(&self, per_replica: ResourceVec) -> (ResourceVec, bool) {
        let target = per_replica.min(&self.pod_limit).sanitized();
        (target, !target.is_zero())
    }

    pub(crate) fn schedule_next_arrival(&mut self, svc: usize) {
        let now = self.now;
        let next = self.services[svc].next_arrival(now, &mut self.rng);
        match self.config.sampling {
            // Legacy arrivals round-trip through the main heap so the
            // merged pop order (and thus the fixture) is bit-identical.
            SamplingMode::Legacy => {
                if let Some(at) = next {
                    self.schedule(at, Event::ServiceArrival { svc });
                }
            }
            SamplingMode::Batched => self.arrivals.set(svc, next.unwrap_or(SimTime::MAX)),
        }
    }

    fn handle_service_arrival(&mut self, svc: usize) {
        self.service_arrival(svc);
        self.schedule_next_arrival(svc);
    }

    // ------------------------------------------------------------------
    // Observation API
    // ------------------------------------------------------------------

    /// Harvests and resets the control-window statistics of an
    /// application.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownApp`] for unregistered ids.
    pub fn take_window(&mut self, app: AppId) -> Result<AppWindow> {
        let now = self.now;
        match self.owner(app) {
            Some(Owner::Service(idx)) => Ok(self.service_window(idx, now)),
            Some(Owner::Batch(idx)) => Ok(self.batch_window(idx, now)),
            Some(Owner::Hpc(idx)) => Ok(self.hpc_window(idx, now)),
            None => Err(Error::UnknownApp(app)),
        }
    }

    /// Aggregate cluster state right now.
    #[must_use]
    pub fn snapshot(&self) -> ClusterSnapshot {
        // The pod table is append-only (terminal pods stay for outcome
        // reporting), so counts come from the cluster's maintained phase
        // counters instead of a scan that grows with simulation length.
        let (running, pending) = self.cluster.phase_counts();
        ClusterSnapshot {
            at: self.now,
            allocatable: self.cluster.total_allocatable(),
            allocated: self.cluster.total_allocated(),
            pods_running: running,
            pods_pending: pending,
            nodes_ready: self.cluster.ready_nodes(),
        }
    }

    /// Outcomes of all batch and HPC jobs (finished or not).
    #[must_use]
    pub fn job_outcomes(&self) -> Vec<JobOutcome> {
        let mut out = Vec::new();
        for b in &self.batches {
            out.push(b.outcome());
        }
        for h in &self.hpcs {
            out.push(h.outcome());
        }
        out
    }

    // ------------------------------------------------------------------
    // Actuation API (the controller's knobs)
    // ------------------------------------------------------------------

    /// Sets an application's target allocation: `per_replica` for every
    /// replica (service), task (batch) or rank (HPC), applied in place
    /// where node headroom allows, rewritten on pods still pending, and
    /// used for every pod created afterwards. A service also reconciles
    /// its replica count to `replicas` (scale-out creates pending pods,
    /// scale-in drains the newest replicas gracefully); jobs size
    /// themselves and ignore it. `fraction < 1.0` is a degraded rollout
    /// (chaos `ActuationPartial`): the desired state updates fully but
    /// only that share of the pods is reached, the rest keep their old
    /// allocation. Returns the number of in-place resizes that failed for
    /// lack of node headroom.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownApp`] for unregistered ids.
    pub fn set_target(
        &mut self,
        app: AppId,
        replicas: u32,
        per_replica: ResourceVec,
        fraction: f64,
    ) -> Result<u32> {
        match self.owner(app) {
            Some(Owner::Service(idx)) => {
                Ok(self.service_set_target(idx, replicas, per_replica, fraction))
            }
            Some(Owner::Batch(idx)) => Ok(self.batch_set_target(idx, per_replica, fraction)),
            Some(Owner::Hpc(idx)) => Ok(self.hpc_set_target(idx, per_replica, fraction)),
            None => Err(Error::UnknownApp(app)),
        }
    }

    /// Switches a service's admission control into (or out of) load
    /// shedding: while enabled, arrivals beyond a small backlog (64
    /// requests) are rejected at the front door and counted in
    /// [`AppWindow::shed_requests`] instead of queueing without bound. The capacity arbiter flips this when it
    /// clips or sheds an app; jobs (batch/HPC) have no open-loop arrival
    /// stream, so the call is a no-op for them.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownApp`] for unknown ids.
    pub fn set_service_shedding(&mut self, app: AppId, shedding: bool) -> Result<()> {
        match self.owner(app) {
            Some(Owner::Service(idx)) => {
                self.services[idx].shedding = shedding;
                Ok(())
            }
            Some(_) => Ok(()),
            None => Err(Error::UnknownApp(app)),
        }
    }

    /// The per-pod resource ceiling in force (largest node allocatable).
    #[must_use]
    pub fn pod_limit(&self) -> ResourceVec {
        self.pod_limit
    }
}

impl AppWindow {
    /// Fills the allocation and replica facts of a harvested window.
    fn set_replica_facts(
        &mut self,
        alloc: ResourceVec,
        running: usize,
        waiting: usize,
        desired: ResourceVec,
    ) {
        self.alloc = alloc;
        self.running_replicas = running as u32;
        self.pending_replicas = waiting as u32;
        self.alloc_per_replica =
            if running > 0 { alloc * (1.0 / f64::from(self.running_replicas)) } else { desired };
    }
}

#[cfg(debug_assertions)]
impl Simulation {
    /// Recomputes a window's allocation and replica counts the way the
    /// engine did before the lanes — every pod of the app looked up in the
    /// cluster, in pod-id order — and holds the lanes to it, to the bit.
    fn debug_check_window(&self, window: &AppWindow, pods: impl Iterator<Item = PodId>) {
        let (mut alloc, mut running, mut pending) = (ResourceVec::ZERO, 0u32, 0u32);
        for pod in pods {
            let pod = self.cluster.pod(pod).expect("an app's pod is in the cluster");
            match pod.phase {
                PodPhase::Running => {
                    running += 1;
                    alloc += pod.spec.request;
                }
                PodPhase::Pending | PodPhase::Starting => pending += 1,
                _ => {}
            }
        }
        debug_assert_eq!(
            (
                window.alloc.as_array().map(f64::to_bits),
                window.running_replicas,
                window.pending_replicas
            ),
            (alloc.as_array().map(f64::to_bits), running, pending),
            "replica lanes diverged from the cluster"
        );
    }
}

/// The per-service arrival slots under a tournament tree: each slot's next
/// arrival (`SimTime::MAX` for none) at a leaf, and at every inner node
/// the earliest `(at, service)` below it, so a slot write repairs one
/// leaf-to-root path (O(log S)) and the earliest arrival is the root. The
/// leaves are padded to a power of two with empty slots, and a tie goes
/// to the left child, so the lowest service of equals wins, as in a fold
/// from the first service.
#[derive(Debug, Clone)]
struct ArrivalSlots {
    /// `tree[1]` is the root and `tree[i]`'s children are `tree[2i]` and
    /// `tree[2i + 1]`; the leaves `tree[width..]` are the slots, and
    /// `tree[0]` is unused.
    tree: Vec<(SimTime, u32)>,
    /// Leaves: the services rounded up to a power of two, at least 2.
    width: usize,
}

impl ArrivalSlots {
    /// `services` empty slots.
    fn new(services: usize) -> Self {
        let width = services.next_power_of_two().max(2);
        let mut tree = vec![(SimTime::MAX, 0); 2 * width];
        for (svc, leaf) in tree[width..].iter_mut().enumerate() {
            leaf.1 = svc as u32;
        }
        for i in (1..width).rev() {
            tree[i] = tree[2 * i];
        }
        ArrivalSlots { tree, width }
    }

    /// Sets service `svc`'s next arrival.
    fn set(&mut self, svc: usize, at: SimTime) {
        let mut i = self.width + svc;
        self.tree[i].0 = at;
        while i > 1 {
            i /= 2;
            let (left, right) = (self.tree[2 * i], self.tree[2 * i + 1]);
            self.tree[i] = if right.0 < left.0 { right } else { left };
        }
    }

    /// The earliest arrival as `(at, service)`, the lowest service of
    /// equals; `(SimTime::MAX, 0)` when every slot is empty.
    fn min(&self) -> (SimTime, usize) {
        let (at, svc) = self.tree[1];
        (at, svc as usize)
    }
}

/// `ceil(fraction·n)` clamped to `[0, n]`: how many of `n` replicas a
/// degraded actuation rollout reaches.
pub(crate) fn partial_quota(n: usize, fraction: f64) -> usize {
    if n == 0 || fraction <= 0.0 {
        return 0;
    }
    (((fraction.min(1.0)) * n as f64).ceil() as usize).min(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The merge's minimum as it was folded over `Option<SimTime>` slots.
    fn earliest_of_options(slots: &[Option<SimTime>]) -> Option<(SimTime, usize)> {
        let mut min: Option<(SimTime, usize)> = None;
        for (i, slot) in slots.iter().enumerate() {
            if let Some(at) = *slot {
                if min.is_none_or(|(b, _)| at < b) {
                    min = Some((at, i));
                }
            }
        }
        min
    }

    /// The earliest of dense slots as `(at, service)`, folded from the
    /// first service: the minimum the merge read before the tree.
    fn earliest(slots: &[SimTime]) -> (SimTime, usize) {
        let earlier = |min: (SimTime, usize), (svc, &at)| if at < min.0 { (at, svc) } else { min };
        slots.iter().enumerate().fold((SimTime::MAX, 0), earlier)
    }

    /// A slot draw: one in three is empty, the rest are few distinct
    /// instants, so ties are everywhere.
    fn slot(draw: u64) -> Option<SimTime> {
        (!draw.is_multiple_of(3)).then(|| SimTime::from_millis(draw / 3))
    }

    proptest! {
        /// Few distinct instants over many services: ties everywhere, and
        /// the lowest service must win each, with empty slots in between —
        /// in the dense fold, and in the tree after each of a run of slot
        /// writes (a write of an empty slot is a stream that ended).
        #[test]
        fn dense_arrival_slots_fold_like_the_optional_ones(
            slots in prop::collection::vec(0u64..9, 0..48),
            writes in prop::collection::vec((0usize..64, 0u64..9), 0..64),
        ) {
            let mut optional: Vec<Option<SimTime>> = slots.iter().map(|&s| slot(s)).collect();
            let dense: Vec<SimTime> =
                optional.iter().map(|s| s.unwrap_or(SimTime::MAX)).collect();
            let want = earliest_of_options(&optional).unwrap_or((SimTime::MAX, 0));
            prop_assert_eq!(earliest(&dense), want);
            let mut tree = ArrivalSlots::new(optional.len());
            prop_assert_eq!(tree.min(), (SimTime::MAX, 0), "a new tree has no arrival");
            for (svc, at) in dense.iter().enumerate() {
                tree.set(svc, *at);
            }
            prop_assert_eq!(tree.min(), want);
            if optional.is_empty() {
                return Ok(());
            }
            for (svc, draw) in writes {
                let svc = svc % optional.len();
                optional[svc] = slot(draw);
                tree.set(svc, optional[svc].unwrap_or(SimTime::MAX));
                let want = earliest_of_options(&optional).unwrap_or((SimTime::MAX, 0));
                prop_assert_eq!(tree.min(), want, "after slot {} became {:?}", svc, optional[svc]);
            }
        }

        /// Sets and pops on the two wake heaps against one ordered set: a
        /// pod keeps the kind it was drawn with, a set of a queued pod
        /// replaces its entry, instants are few so equal `at`s meet across
        /// the kinds, and every step's merged minimum, popped entry and
        /// index must agree with the set.
        #[test]
        fn two_wake_heaps_pop_in_one_heaps_order(
            kinds in prop::collection::vec(any::<bool>(), 1..24),
            ops in prop::collection::vec((any::<bool>(), 0usize..24, 0u64..6), 0..300),
        ) {
            let kind =
                |pod: PodId| if kinds[pod.as_usize()] { Timer::Batch } else { Timer::Service };
            let mut queue = WakeQueue::default();
            let mut model = std::collections::BTreeSet::<(SimTime, u64, PodId)>::new();
            let mut queued: Vec<Option<(SimTime, u64)>> = vec![None; kinds.len()];
            for (seq, (is_pop, pod, at)) in (1..).zip(ops) {
                if is_pop {
                    let got = queue.peek_key().map(|(key, timer)| {
                        let e = queue.pop(timer).expect("the peeked heap has a root");
                        ((e.at, e.seq), e.pod, key)
                    });
                    let want = model.pop_first().map(|(at, seq, pod)| ((at, seq), pod, (at, seq)));
                    prop_assert_eq!(got, want, "the pop is the merged root and the set's first");
                    if let Some((_, pod, _)) = want {
                        queued[pod.as_usize()] = None;
                    }
                } else {
                    let pod = PodId::new((pod % kinds.len()) as u64);
                    let at = SimTime::from_millis(at);
                    if let Some((at, seq)) = queued[pod.as_usize()].replace((at, seq)) {
                        model.remove(&(at, seq, pod));
                    }
                    model.insert((at, seq, pod));
                    let slot = pod.raw() as u32;
                    queue.set(kind(pod), WakeEntry { at, seq, pod, version: seq, slot });
                }
                let want = model.first().map(|&(at, seq, pod)| ((at, seq), kind(pod)));
                prop_assert_eq!(queue.peek_key(), want);
                // Every queued pod's index points at its entry in its own
                // kind's heap, and no other pod has one.
                for (pod, key) in queued.iter().enumerate() {
                    let pod = PodId::new(pod as u64);
                    let heap = &queue.heaps[kind(pod) as usize];
                    let entry = queue.pos.get(pod).and_then(|i| heap.get(i as usize));
                    let got = entry.map(|e| (e.pod, e.at, e.seq));
                    prop_assert_eq!(got, key.map(|(at, seq)| (pod, at, seq)));
                }
                let batch = model.iter().filter(|&&(.., pod)| kind(pod) == Timer::Batch).count();
                let lens = queue.heaps.each_ref().map(Vec::len);
                prop_assert_eq!(lens, [model.len() - batch, batch]);
            }
        }
    }

    /// The headline mix on its 20 nodes, bound first-fit every 10 s until
    /// its services, its first batch job (submitted late for it) and its
    /// first HPC gang all run.
    fn running_headline() -> Simulation {
        let mut spec = evolve_workload::ScenarioSpec::headline(0.5);
        spec.batch_jobs[0].submit_at = SimTime::from_secs(190);
        let cluster = ClusterConfig::uniform(20, crate::cluster::NodeShape::default());
        let mut sim = Simulation::new(SimulationConfig::default(), cluster, &spec.build().mix, 42);
        for at in (0..=210).step_by(10) {
            sim.run_until(SimTime::from_secs(at));
            let pending: Vec<PodId> = sim.cluster.pending_pods().map(|p| p.id).collect();
            for pod in pending {
                let request = sim.cluster.pod(pod).expect("pending pod").spec.request;
                let node = sim.cluster.nodes().iter().find(|n| n.can_fit(&request)).map(|n| n.id());
                if let Some(node) = node {
                    sim.bind_pod(pod, node).expect("it fits");
                }
            }
        }
        sim
    }

    /// Everything a second identical actuation could move — the event count
    /// and sequence, every node's version, the wake queue — as text.
    fn actuation_state(sim: &Simulation) -> String {
        let nodes: Vec<u64> =
            (0..sim.cluster.nodes().len()).map(|n| sim.cluster.node_version(n)).collect();
        let wakes: Vec<_> = [Timer::Service, Timer::Batch]
            .into_iter()
            .flat_map(|timer| {
                let heap = sim.wakes.heaps[timer as usize].iter();
                heap.map(move |e| (timer, e.at, e.seq, e.pod, e.version, e.slot))
            })
            .collect();
        format!("{} {} {nodes:?} {wakes:?}", sim.events_processed, sim.seq)
    }

    /// A second `set_target` with the decision the first one applied finds
    /// every pod at its target and changes nothing, down to the next window.
    #[test]
    fn a_repeated_target_changes_nothing() {
        let (mut once, mut twice) = (running_headline(), running_headline());
        let apps: Vec<AppId> = once.apps().iter().map(|a| a.id).collect();
        let mut resized = [0; 3];
        for (&app, status) in apps.iter().zip(once.apps().to_vec()) {
            let window = once.take_window(app).expect("known app");
            assert_eq!(twice.take_window(app).expect("known app"), window);
            // A shrink: every in-place resize fits.
            let (replicas, per_replica) =
                (window.running_replicas.max(1), window.alloc_per_replica * 0.9);
            resized[status.world as usize] += window.running_replicas;
            assert_eq!(once.set_target(app, replicas, per_replica, 1.0), Ok(0));
            assert_eq!(twice.set_target(app, replicas, per_replica, 1.0), Ok(0));
            assert_eq!(twice.set_target(app, replicas, per_replica, 1.0), Ok(0));
        }
        assert!(resized.iter().all(|&n| n > 0), "running pods to resize per world: {resized:?}");
        assert_eq!(actuation_state(&twice), actuation_state(&once));
        let later = once.now() + SimDuration::from_secs(5);
        once.run_until(later);
        twice.run_until(later);
        for &app in &apps {
            assert_eq!(twice.take_window(app), once.take_window(app), "{app}");
        }
        assert_eq!(actuation_state(&twice), actuation_state(&once));
    }
}
