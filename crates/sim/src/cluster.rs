//! Cluster state: the simulated control-plane view.
//!
//! `ClusterState` is the single source of truth for nodes and pods. All
//! mutation (binding, eviction, vertical resize) validates capacity and
//! maintains the accounting invariant `Σ pod requests ≤ allocatable` per
//! node — exactly what a kubelet admission check enforces.

use std::collections::{BTreeMap, BTreeSet};

use evolve_types::{Error, NodeId, PodId, ResourceVec, Result, SimTime};
use evolve_workload::DEFAULT_NODE_CAPACITY;

use crate::node::Node;
use crate::pod::{Pod, PodPhase, PodSpec};

/// Shape of one node class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeShape {
    /// Node hardware capacity.
    pub capacity: ResourceVec,
}

impl Default for NodeShape {
    /// [`DEFAULT_NODE_CAPACITY`]: the node a spec without a capacity assumes.
    fn default() -> Self {
        NodeShape { capacity: DEFAULT_NODE_CAPACITY }
    }
}

/// Cluster construction parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Node shapes; one node is created per entry.
    pub nodes: Vec<NodeShape>,
}

impl ClusterConfig {
    /// `count` identical nodes of the given shape.
    ///
    /// # Panics
    ///
    /// Panics when `count` is zero.
    #[must_use]
    pub fn uniform(count: usize, shape: NodeShape) -> Self {
        assert!(count > 0, "cluster needs at least one node");
        ClusterConfig { nodes: vec![shape; count] }
    }
}

/// Why an in-place resize was refused: `Copy`, worded only as an [`Error`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum ResizeRefusal {
    UnknownPod(PodId),
    NotBound(PodId),
    InvalidRequest,
    OverLimit { requested: ResourceVec, limit: ResourceVec },
    NoHeadroom { node: NodeId, requested: ResourceVec, headroom: ResourceVec },
}

impl From<ResizeRefusal> for Error {
    fn from(refusal: ResizeRefusal) -> Self {
        match refusal {
            ResizeRefusal::UnknownPod(pod) => Error::UnknownPod(pod),
            ResizeRefusal::NotBound(pod) => Error::InvalidState(format!("{pod} is not bound")),
            ResizeRefusal::InvalidRequest => {
                Error::InvalidConfig("resize request must be valid and non-zero".into())
            }
            ResizeRefusal::OverLimit { requested, limit } => {
                Error::InvalidConfig(format!("resize {requested} exceeds limit {limit}"))
            }
            ResizeRefusal::NoHeadroom { node, requested, headroom } => {
                Error::InsufficientCapacity {
                    node,
                    detail: format!("resize to {requested} exceeds headroom {headroom}"),
                }
            }
        }
    }
}

/// The scheduling queue: `(created, id)` of every `Pending` pod in
/// ascending order, in one vector that keeps its allocation. A removal
/// leaves a tombstone, which keeps its key, so the order and the binary
/// search hold; the vector compacts, in order, once tombstones outnumber
/// the living — the scheme of the engine's replica lanes. A pod created or
/// requeued now lies above every key and is pushed unsearched.
#[derive(Debug, Clone, Default)]
struct PendingQueue {
    /// `((created, id), live)`, ascending by key.
    entries: Vec<((SimTime, PodId), bool)>,
    live: usize,
}

impl PendingQueue {
    fn insert(&mut self, key: (SimTime, PodId)) {
        let above_all = self.entries.last().is_none_or(|(last, _)| *last < key);
        match if above_all { Err(self.entries.len()) } else { self.find(key) } {
            Ok(at) => {
                debug_assert!(!self.entries[at].1, "{:?} queued twice", key.1);
                self.entries[at].1 = true;
            }
            Err(at) => self.entries.insert(at, (key, true)),
        }
        self.live += 1;
    }

    fn remove(&mut self, key: (SimTime, PodId)) {
        let Ok(at) = self.find(key) else { return };
        if !std::mem::replace(&mut self.entries[at].1, false) {
            return;
        }
        self.live -= 1;
        if self.entries.len() - self.live > self.live {
            self.entries.retain(|&(_, live)| live);
        }
    }

    fn find(&self, key: (SimTime, PodId)) -> std::result::Result<usize, usize> {
        self.entries.binary_search_by_key(&key, |&(key, _)| key)
    }

    /// The queued keys, ascending.
    fn keys(&self) -> impl Iterator<Item = (SimTime, PodId)> + '_ {
        self.entries.iter().filter(|&&(_, live)| live).map(|&(key, _)| key)
    }
}

/// Live cluster state.
#[derive(Debug, Clone, Default)]
pub struct ClusterState {
    nodes: Vec<Node>,
    /// The pod table: slot `i` holds the pod with id `i`. `create_pod`
    /// hands out ids sequentially from 0 and no pod is ever removed
    /// (terminal pods stay for accounting and requeue), so a lookup is
    /// one bounds-checked index and iteration is ascending pod-id order.
    pods: Vec<Pod>,
    /// Pods currently `Running`, maintained on every phase transition so
    /// snapshots don't rescan the pod table.
    running_count: u32,
    /// Pods currently `Pending` or `Starting`.
    waiting_count: u32,
    /// `(created, id)` of every `Pending` pod, maintained on every phase
    /// transition so the scheduling queue is read in O(pending) instead
    /// of by filtering and sorting the pod table.
    pending: PendingQueue,
    /// Monotone mutation counter, bumped whenever any node's scheduling-
    /// relevant state (allocation, bound set, readiness) changes. The
    /// scheduler's feasibility index diffs against this instead of
    /// rebuilding its per-node mirrors every cycle.
    version: u64,
    /// Per-node mutation counters (same events as `version`, node-scoped).
    node_versions: Vec<u64>,
    /// Per-node bound-set counters: bumped only when a node's
    /// [`Node::pods`] changes (a bind, a release, an eviction), not by a
    /// resize, so the index re-derives app counts only when they can have
    /// moved.
    bound_set_versions: Vec<u64>,
    /// Bound (resource-holding) pod count per priority. Lets the
    /// scheduler bail out of preemption in O(1) when no pod of strictly
    /// lower priority exists anywhere in the cluster.
    bound_by_priority: BTreeMap<i32, u32>,
    /// Ready nodes and their summed allocatable. `set_node_ready` is the
    /// only writer of readiness and refreshes both, so a snapshot reads
    /// them instead of scanning the node list.
    ready_nodes: u32,
    allocatable: ResourceVec,
}

impl ClusterState {
    /// Builds the initial cluster from a configuration.
    #[must_use]
    pub fn new(config: &ClusterConfig) -> Self {
        let nodes: Vec<Node> = config
            .nodes
            .iter()
            .enumerate()
            .map(|(i, shape)| Node::new(NodeId::new(i as u32), shape.capacity))
            .collect();
        let (ready_nodes, allocatable) = Self::ready_totals(&nodes);
        ClusterState {
            node_versions: vec![0; config.nodes.len()],
            bound_set_versions: vec![0; config.nodes.len()],
            nodes,
            pods: Vec::new(),
            running_count: 0,
            waiting_count: 0,
            pending: PendingQueue::default(),
            version: 0,
            bound_by_priority: BTreeMap::new(),
            ready_nodes,
            allocatable,
        }
    }

    /// Ready-node count and summed allocatable, folded in node order: the
    /// float sum every reader of `total_allocatable` has always seen.
    fn ready_totals(nodes: &[Node]) -> (u32, ResourceVec) {
        let ready = nodes.iter().filter(|n| n.is_ready());
        (ready.clone().count() as u32, ready.map(Node::allocatable).sum())
    }

    /// Global mutation counter: changes whenever any node's scheduling-
    /// relevant state changed. Equal versions imply nothing a scheduler
    /// feasibility index mirrors has moved.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Per-node mutation counter (see [`ClusterState::version`]).
    ///
    /// # Panics
    ///
    /// Panics for node indices outside the cluster.
    #[must_use]
    pub fn node_version(&self, node: usize) -> u64 {
        self.node_versions[node]
    }

    /// Per-node bound-set counter: moves whenever the node's
    /// [`Node::pods`] changes, and never for a resize or a readiness flip
    /// that evicts nothing. Equal values mean the same pods are bound
    /// there.
    ///
    /// # Panics
    ///
    /// Panics for node indices outside the cluster.
    #[must_use]
    pub fn bound_set_version(&self, node: usize) -> u64 {
        self.bound_set_versions[node]
    }

    /// Bound (resource-holding) pods with priority strictly below
    /// `priority`, maintained in O(1) per bind/unbind. Zero means
    /// preemption on behalf of a `priority` pod cannot possibly succeed.
    #[must_use]
    pub fn bound_pods_below(&self, priority: i32) -> u64 {
        self.bound_by_priority.range(..priority).map(|(_, c)| u64::from(*c)).sum()
    }

    fn bump_node(&mut self, node: usize) {
        self.version += 1;
        self.node_versions[node] += 1;
    }

    /// [`ClusterState::bump_node`] for a change of the node's bound set.
    fn bump_bound_set(&mut self, node: usize) {
        self.bump_node(node);
        self.bound_set_versions[node] += 1;
    }

    fn census_bind(&mut self, priority: i32) {
        *self.bound_by_priority.entry(priority).or_insert(0) += 1;
    }

    fn census_unbind(&mut self, priority: i32) {
        if let Some(c) = self.bound_by_priority.get_mut(&priority) {
            *c = c.saturating_sub(1);
            if *c == 0 {
                self.bound_by_priority.remove(&priority);
            }
        }
    }

    /// `(running, pending_or_starting)` pod counts, maintained in O(1)
    /// across phase transitions.
    #[must_use]
    pub fn phase_counts(&self) -> (u32, u32) {
        (self.running_count, self.waiting_count)
    }

    /// All nodes.
    #[must_use]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Looks up one node.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownNode`] for ids outside the cluster.
    pub fn node(&self, id: NodeId) -> Result<&Node> {
        self.nodes.get(id.as_usize()).ok_or(Error::UnknownNode(id))
    }

    /// Looks up one pod.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownPod`] when the pod does not exist.
    pub fn pod(&self, id: PodId) -> Result<&Pod> {
        self.pods.get(id.as_usize()).ok_or(Error::UnknownPod(id))
    }

    /// Iterates over all pods in creation (pod-id) order.
    pub fn pods(&self) -> impl Iterator<Item = &Pod> {
        self.pods.iter()
    }

    /// Pods awaiting a scheduling decision, in creation order
    /// (`(created, id)` ascending).
    pub fn pending_pods(&self) -> impl Iterator<Item = &Pod> {
        self.pending.keys().map(|(_, id)| &self.pods[id.as_usize()])
    }

    /// Pods the pod table has room for before it grows. Tables indexed by
    /// pod id outside the engine size themselves from it.
    #[must_use]
    pub fn pod_capacity(&self) -> usize {
        self.pods.capacity()
    }

    /// Room in the pod table, and in the scheduling queue, for `pods` pods
    /// in all.
    pub(crate) fn reserve_pods(&mut self, pods: usize) {
        self.pods.reserve(pods.saturating_sub(self.pods.len()));
        self.pending.entries.reserve(pods.saturating_sub(self.pending.entries.len()));
    }

    /// Creates a pod in `Pending` phase and returns its id.
    pub fn create_pod(&mut self, spec: PodSpec, now: SimTime) -> PodId {
        let id = PodId::new(self.pods.len() as u64);
        self.pods.push(Pod::new(id, spec, now));
        self.waiting_count += 1;
        self.pending.insert((now, id));
        id
    }

    /// Binds a pending pod to a node, reserving its request. The pod moves
    /// to `Starting`; the engine flips it to `Running` after the start
    /// latency.
    ///
    /// # Errors
    ///
    /// Fails when the pod or node is unknown, the pod is not pending, or
    /// the node lacks capacity.
    pub fn bind_pod(&mut self, pod_id: PodId, node_id: NodeId) -> Result<()> {
        let pod = self.pods.get_mut(pod_id.as_usize()).ok_or(Error::UnknownPod(pod_id))?;
        if !pod.is_pending() {
            return Err(Error::InvalidState(format!("{pod_id} is not pending")));
        }
        let request = pod.spec.request;
        let node = self.nodes.get_mut(node_id.as_usize()).ok_or(Error::UnknownNode(node_id))?;
        if !node.can_fit(&request) {
            return Err(Error::InsufficientCapacity {
                node: node_id,
                detail: format!("free {} < request {}", node.free(), request),
            });
        }
        node.bind(pod_id, request);
        pod.node = Some(node_id);
        pod.phase = PodPhase::Starting;
        self.pending.remove((pod.created, pod_id));
        let priority = pod.spec.priority;
        self.bump_bound_set(node_id.as_usize());
        self.census_bind(priority);
        Ok(())
    }

    /// Marks a `Starting` pod as `Running`.
    ///
    /// # Errors
    ///
    /// Fails when the pod is unknown or not starting.
    pub fn start_pod(&mut self, pod_id: PodId, now: SimTime) -> Result<()> {
        let pod = self.pods.get_mut(pod_id.as_usize()).ok_or(Error::UnknownPod(pod_id))?;
        if pod.phase != PodPhase::Starting {
            return Err(Error::InvalidState(format!("{pod_id} is not starting")));
        }
        pod.phase = PodPhase::Running;
        pod.started = Some(now);
        self.waiting_count -= 1;
        self.running_count += 1;
        Ok(())
    }

    /// Terminates a pod, releasing its node reservation.
    ///
    /// # Errors
    ///
    /// Fails when the pod is unknown or already terminal.
    pub fn terminate_pod(&mut self, pod_id: PodId, phase: PodPhase) -> Result<()> {
        assert!(phase.is_terminal(), "terminate_pod needs a terminal phase");
        let pod = self.pods.get_mut(pod_id.as_usize()).ok_or(Error::UnknownPod(pod_id))?;
        if pod.phase.is_terminal() {
            return Err(Error::InvalidState(format!("{pod_id} already terminal")));
        }
        let mut released: Option<(usize, i32)> = None;
        if let Some(node_id) = pod.node.take() {
            if pod.phase.holds_resources() {
                self.nodes[node_id.as_usize()].unbind(pod_id, pod.spec.request);
                released = Some((node_id.as_usize(), pod.spec.priority));
            }
        }
        match pod.phase {
            PodPhase::Running => self.running_count -= 1,
            _ => self.waiting_count -= 1,
        }
        if pod.is_pending() {
            self.pending.remove((pod.created, pod_id));
        }
        pod.phase = phase;
        if let Some((node, priority)) = released {
            self.bump_bound_set(node);
            self.census_unbind(priority);
        }
        Ok(())
    }

    /// Returns a terminated or pending pod to `Pending` (requeue after
    /// preemption or node failure), assigning a fresh creation time so the
    /// queue ordering reflects the requeue.
    ///
    /// # Errors
    ///
    /// Fails when the pod is unknown or still holds resources.
    pub fn requeue_pod(&mut self, pod_id: PodId, now: SimTime) -> Result<()> {
        let pod = self.pods.get_mut(pod_id.as_usize()).ok_or(Error::UnknownPod(pod_id))?;
        if pod.phase.holds_resources() {
            return Err(Error::InvalidState(format!("{pod_id} still bound")));
        }
        if pod.phase.is_terminal() {
            self.waiting_count += 1;
        }
        // A still-pending pod's queue position moves with `created`.
        self.pending.remove((pod.created, pod_id));
        pod.phase = PodPhase::Pending;
        pod.node = None;
        pod.started = None;
        pod.created = now;
        self.pending.insert((now, pod_id));
        Ok(())
    }

    /// Vertically resizes a bound pod's request in place (the in-place pod
    /// resize the EVOLVE controller relies on).
    ///
    /// # Errors
    ///
    /// Fails when the pod is unknown, not bound, the new request exceeds
    /// the pod limit, or the node lacks headroom for the increase.
    pub fn resize_pod(&mut self, pod_id: PodId, new_request: ResourceVec) -> Result<()> {
        self.try_resize(pod_id, new_request).map_err(Error::from)
    }

    /// [`ClusterState::resize_pod`] without the wording: validates the
    /// request against the pod, then resizes through
    /// [`ClusterState::resize_valid`].
    pub(crate) fn try_resize(
        &mut self,
        pod_id: PodId,
        new_request: ResourceVec,
    ) -> std::result::Result<(), ResizeRefusal> {
        let pod = self.pods.get(pod_id.as_usize()).ok_or(ResizeRefusal::UnknownPod(pod_id))?;
        if !pod.phase.holds_resources() {
            return Err(ResizeRefusal::NotBound(pod_id));
        }
        if !new_request.is_valid() || new_request.is_zero() {
            return Err(ResizeRefusal::InvalidRequest);
        }
        if !new_request.fits_within(&pod.spec.limit) {
            return Err(ResizeRefusal::OverLimit { requested: new_request, limit: pod.spec.limit });
        }
        self.resize_valid(pod_id, new_request)
    }

    /// The engine's in-place resize, for a request its caller validated
    /// once for many pods: valid, non-zero and within the pod's limit
    /// (every engine pod's limit is the simulation's `pod_limit`, which
    /// the request is clamped to). Only what differs per pod is checked:
    /// that it is bound, and its node's headroom.
    pub(crate) fn resize_valid(
        &mut self,
        pod_id: PodId,
        new_request: ResourceVec,
    ) -> std::result::Result<(), ResizeRefusal> {
        let pod = self.pods.get_mut(pod_id.as_usize()).ok_or(ResizeRefusal::UnknownPod(pod_id))?;
        if !pod.phase.holds_resources() {
            return Err(ResizeRefusal::NotBound(pod_id));
        }
        debug_assert!(
            new_request.is_valid()
                && !new_request.is_zero()
                && new_request.fits_within(&pod.spec.limit),
            "an unvalidated resize of {pod_id} to {new_request}"
        );
        let node_id = pod.node.expect("bound pod has a node");
        let old_request = pod.spec.request;
        let node = &mut self.nodes[node_id.as_usize()];
        let headroom = node.free() + old_request;
        if !new_request.fits_within(&headroom) {
            return Err(ResizeRefusal::NoHeadroom {
                node: node_id,
                requested: new_request,
                headroom,
            });
        }
        node.adjust(old_request, new_request);
        pod.spec.request = new_request;
        self.bump_node(node_id.as_usize());
        Ok(())
    }

    /// Rewrites the request of a still-pending pod (the deployment updated
    /// its template before the pod was scheduled).
    ///
    /// # Errors
    ///
    /// Fails when the pod is unknown, not pending, or the request is
    /// invalid or exceeds the pod limit.
    pub fn update_pending_request(
        &mut self,
        pod_id: PodId,
        new_request: ResourceVec,
    ) -> Result<()> {
        let pod = self.pods.get_mut(pod_id.as_usize()).ok_or(Error::UnknownPod(pod_id))?;
        if !pod.is_pending() {
            return Err(Error::InvalidState(format!("{pod_id} is not pending")));
        }
        if !new_request.is_valid() || new_request.is_zero() {
            return Err(Error::InvalidConfig("request must be valid and non-zero".into()));
        }
        if !new_request.fits_within(&pod.spec.limit) {
            return Err(Error::InvalidConfig(format!(
                "request {new_request} exceeds limit {}",
                pod.spec.limit
            )));
        }
        pod.spec.request = new_request;
        Ok(())
    }

    /// [`ClusterState::update_pending_request`] for a request validated
    /// as for [`ClusterState::resize_valid`], with one pod lookup: rewrites
    /// the pod's request if it is pending, and returns whether it was.
    pub(crate) fn rewrite_if_pending(&mut self, pod_id: PodId, new_request: ResourceVec) -> bool {
        let Some(pod) = self.pods.get_mut(pod_id.as_usize()).filter(|p| p.is_pending()) else {
            return false;
        };
        debug_assert!(
            new_request.is_valid()
                && !new_request.is_zero()
                && new_request.fits_within(&pod.spec.limit),
            "an unvalidated rewrite of {pod_id} to {new_request}"
        );
        pod.spec.request = new_request;
        true
    }

    /// Marks a node (un)ready. Losing readiness evicts the node's pods in
    /// the same transaction — they are unbound, moved to `Failed`, and
    /// returned so the caller can requeue them — and the node's capacity
    /// leaves the allocatable pool. Recovery never resurrects pods: a node
    /// comes back empty.
    ///
    /// # Errors
    ///
    /// Fails for unknown node ids.
    pub fn set_node_ready(&mut self, node_id: NodeId, ready: bool) -> Result<Vec<PodId>> {
        let node = self.nodes.get_mut(node_id.as_usize()).ok_or(Error::UnknownNode(node_id))?;
        if node.is_ready() == ready {
            return Ok(Vec::new());
        }
        node.set_ready(ready);
        let victims: Vec<PodId> = if ready { Vec::new() } else { node.pods().to_vec() };
        (self.ready_nodes, self.allocatable) = Self::ready_totals(&self.nodes);
        if victims.is_empty() {
            self.bump_node(node_id.as_usize());
        } else {
            self.bump_bound_set(node_id.as_usize());
        }
        for pod_id in &victims {
            let pod = &mut self.pods[pod_id.as_usize()];
            let released = pod.phase.holds_resources().then_some(pod.spec.priority);
            if released.is_some() {
                self.nodes[node_id.as_usize()].unbind(*pod_id, pod.spec.request);
            }
            match pod.phase {
                PodPhase::Running => self.running_count -= 1,
                PodPhase::Pending | PodPhase::Starting => self.waiting_count -= 1,
                _ => {}
            }
            if pod.is_pending() {
                self.pending.remove((pod.created, *pod_id));
            }
            pod.node = None;
            pod.phase = PodPhase::Failed("node unready");
            pod.started = None;
            if let Some(priority) = released {
                self.census_unbind(priority);
            }
        }
        Ok(victims)
    }

    /// Total cluster allocatable capacity (ready nodes only).
    #[must_use]
    pub fn total_allocatable(&self) -> ResourceVec {
        self.allocatable
    }

    /// Nodes that currently accept placements.
    #[must_use]
    pub fn ready_nodes(&self) -> u32 {
        self.ready_nodes
    }

    /// Total reserved requests across ready nodes.
    #[must_use]
    pub fn total_allocated(&self) -> ResourceVec {
        self.nodes.iter().filter(|n| n.is_ready()).map(Node::allocated).sum()
    }

    /// Verifies internal accounting invariants (tests and debug builds).
    ///
    /// # Panics
    ///
    /// Panics when a node's book-kept allocation differs from the sum of
    /// its pods' requests, or exceeds its allocatable capacity.
    pub fn check_invariants(&self) {
        let violations = self.invariant_violations();
        assert!(violations.is_empty(), "cluster invariants violated: {violations:?}");
    }

    /// Non-panicking form of [`ClusterState::check_invariants`]: returns
    /// one description per violated accounting invariant (empty when the
    /// cluster is consistent). The chaos oracle calls this every tick, so
    /// a violation becomes a recorded finding instead of a panic.
    #[must_use]
    pub fn invariant_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut running = 0u32;
        let mut waiting = 0u32;
        let mut by_priority: BTreeMap<i32, u32> = BTreeMap::new();
        let mut pending: BTreeSet<(SimTime, PodId)> = BTreeSet::new();
        // Each node's bound pods from the pod table, ascending.
        let mut bound: Vec<Vec<PodId>> = vec![Vec::new(); self.nodes.len()];
        for (slot, pod) in self.pods.iter().enumerate() {
            if pod.id.as_usize() != slot {
                out.push(format!("pod table slot {slot} holds {}", pod.id));
            }
            match pod.phase {
                PodPhase::Running => running += 1,
                PodPhase::Pending | PodPhase::Starting => waiting += 1,
                _ => {}
            }
            if pod.is_pending() {
                pending.insert((pod.created, pod.id));
            }
            if pod.phase.holds_resources() {
                *by_priority.entry(pod.spec.priority).or_insert(0) += 1;
            }
            if let Some(list) = pod.node.and_then(|node| bound.get_mut(node.as_usize())) {
                list.push(pod.id);
            }
        }
        if (running, waiting) != (self.running_count, self.waiting_count) {
            out.push(format!(
                "maintained phase counts diverged from pod table: ({running}, {waiting}) vs ({}, {})",
                self.running_count, self.waiting_count
            ));
        }
        if !pending.iter().copied().eq(self.pending.keys()) {
            out.push(format!(
                "maintained pending queue diverged from pod table: {pending:?} vs {:?}",
                self.pending.keys().collect::<Vec<_>>()
            ));
        }
        if by_priority != self.bound_by_priority {
            out.push(format!(
                "maintained per-priority bound census diverged from pod table: {by_priority:?} vs {:?}",
                self.bound_by_priority
            ));
        }
        let ready = Self::ready_totals(&self.nodes);
        if ready != (self.ready_nodes, self.allocatable) {
            out.push(format!(
                "maintained ready-node totals diverged from the node list: {ready:?} vs ({}, {:?})",
                self.ready_nodes, self.allocatable
            ));
        }
        for (node, bound) in self.nodes.iter().zip(&bound) {
            if !node.pods().windows(2).all(|pair| pair[0] < pair[1]) {
                out.push(format!("pod list of node {} is not ascending", node.id()));
            }
            if node.pods() != bound.as_slice() {
                out.push(format!(
                    "pod list of node {} diverged from pod table: {:?} vs {bound:?}",
                    node.id(),
                    node.pods()
                ));
            }
            let mut sum = ResourceVec::ZERO;
            for pod_id in node.pods() {
                let pod = &self.pods[pod_id.as_usize()];
                if !pod.phase.holds_resources() {
                    out.push(format!("{pod_id} on node {} but not bound", node.id()));
                }
                sum += pod.spec.request;
            }
            let diff = (sum - node.allocated()).total() + (node.allocated() - sum).total();
            if diff >= 1e-6 {
                out.push(format!(
                    "allocation mismatch on {}: {sum} vs {}",
                    node.id(),
                    node.allocated()
                ));
            }
            if !node.allocated().fits_within(&(node.allocatable() + ResourceVec::splat(1e-6))) {
                out.push(format!("node {} over-allocated", node.id()));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pod::PodKind;
    use evolve_types::AppId;

    fn cluster() -> ClusterState {
        ClusterState::new(&ClusterConfig::uniform(
            2,
            NodeShape { capacity: ResourceVec::splat(1000.0) },
        ))
    }

    fn spec(request: f64) -> PodSpec {
        PodSpec::new(PodKind::ServiceReplica { app: AppId::new(0) }, ResourceVec::splat(request), 0)
    }

    #[test]
    fn create_bind_start_lifecycle() {
        let mut c = cluster();
        let pod = c.create_pod(spec(100.0), SimTime::ZERO);
        assert!(c.pod(pod).unwrap().is_pending());
        c.bind_pod(pod, NodeId::new(0)).unwrap();
        assert_eq!(c.pod(pod).unwrap().phase, PodPhase::Starting);
        c.start_pod(pod, SimTime::from_secs(2)).unwrap();
        assert!(c.pod(pod).unwrap().is_running());
        assert_eq!(c.pod(pod).unwrap().started, Some(SimTime::from_secs(2)));
        c.check_invariants();
    }

    #[test]
    fn bind_rejects_overcommit() {
        let mut c = cluster();
        let a = c.create_pod(spec(900.0), SimTime::ZERO);
        let b = c.create_pod(spec(100.0), SimTime::ZERO);
        c.bind_pod(a, NodeId::new(0)).unwrap();
        let err = c.bind_pod(b, NodeId::new(0)).unwrap_err();
        assert!(matches!(err, Error::InsufficientCapacity { .. }));
        c.bind_pod(b, NodeId::new(1)).unwrap();
        c.check_invariants();
    }

    #[test]
    fn bind_rejects_non_pending() {
        let mut c = cluster();
        let a = c.create_pod(spec(10.0), SimTime::ZERO);
        c.bind_pod(a, NodeId::new(0)).unwrap();
        assert!(c.bind_pod(a, NodeId::new(1)).is_err());
    }

    #[test]
    fn terminate_releases_resources() {
        let mut c = cluster();
        let a = c.create_pod(spec(500.0), SimTime::ZERO);
        c.bind_pod(a, NodeId::new(0)).unwrap();
        c.terminate_pod(a, PodPhase::Succeeded).unwrap();
        assert_eq!(c.nodes()[0].allocated(), ResourceVec::ZERO);
        assert!(c.terminate_pod(a, PodPhase::Succeeded).is_err());
        c.check_invariants();
    }

    #[test]
    fn requeue_after_termination() {
        let mut c = cluster();
        let a = c.create_pod(spec(10.0), SimTime::ZERO);
        c.bind_pod(a, NodeId::new(0)).unwrap();
        c.terminate_pod(a, PodPhase::Failed("preempted")).unwrap();
        c.requeue_pod(a, SimTime::from_secs(5)).unwrap();
        let p = c.pod(a).unwrap();
        assert!(p.is_pending());
        assert_eq!(p.created, SimTime::from_secs(5));
        assert_eq!(p.node, None);
    }

    #[test]
    fn resize_within_headroom() {
        let mut c = cluster();
        let a = c.create_pod(spec(100.0).with_limit(ResourceVec::splat(2_000.0)), SimTime::ZERO);
        c.bind_pod(a, NodeId::new(0)).unwrap();
        c.resize_pod(a, ResourceVec::splat(800.0)).unwrap();
        assert_eq!(c.nodes()[0].allocated(), ResourceVec::splat(800.0));
        // Headroom is 950 total on the node.
        assert!(c.resize_pod(a, ResourceVec::splat(960.0)).is_err());
        // Shrinking always works.
        c.resize_pod(a, ResourceVec::splat(50.0)).unwrap();
        c.check_invariants();
    }

    #[test]
    fn resize_respects_pod_limit() {
        let mut c = cluster();
        let a = c.create_pod(spec(100.0), SimTime::ZERO); // limit 400
        c.bind_pod(a, NodeId::new(0)).unwrap();
        assert!(c.resize_pod(a, ResourceVec::splat(401.0)).is_err());
        assert!(c.resize_pod(a, ResourceVec::splat(400.0)).is_ok());
    }

    #[test]
    fn resize_unbound_pod_fails() {
        let mut c = cluster();
        let a = c.create_pod(spec(100.0), SimTime::ZERO);
        assert!(c.resize_pod(a, ResourceVec::splat(200.0)).is_err());
    }

    /// Each refusal reads as it did when `resize_pod` worded it on the spot,
    /// and a refusal leaves the node's books alone.
    #[test]
    fn resize_refusals_keep_their_text() {
        let mut c = cluster();
        let limit = ResourceVec::splat(2_000.0);
        let bound = c.create_pod(spec(100.0).with_limit(limit), SimTime::ZERO);
        let waiting = c.create_pod(spec(100.0), SimTime::ZERO);
        c.bind_pod(bound, NodeId::new(0)).unwrap();
        let (big, huge) = (ResourceVec::splat(960.0), ResourceVec::splat(2_001.0));
        let headroom = c.nodes()[0].free() + ResourceVec::splat(100.0);
        let cases = [
            (PodId::new(9), big, Error::UnknownPod(PodId::new(9))),
            (waiting, big, Error::InvalidState(format!("{waiting} is not bound"))),
            (
                bound,
                ResourceVec::ZERO,
                Error::InvalidConfig("resize request must be valid and non-zero".into()),
            ),
            (bound, huge, Error::InvalidConfig(format!("resize {huge} exceeds limit {limit}"))),
            (
                bound,
                big,
                Error::InsufficientCapacity {
                    node: NodeId::new(0),
                    detail: format!("resize to {big} exceeds headroom {headroom}"),
                },
            ),
        ];
        for (pod, request, want) in cases {
            let version = c.version();
            assert_eq!(c.resize_pod(pod, request).unwrap_err().to_string(), want.to_string());
            assert!(c.try_resize(pod, request).is_err());
            assert_eq!(c.version(), version, "a refusal changes nothing");
        }
        c.check_invariants();
    }

    #[test]
    fn pending_pods_in_creation_order() {
        let mut c = cluster();
        let a = c.create_pod(spec(1.0), SimTime::from_secs(2));
        let b = c.create_pod(spec(1.0), SimTime::from_secs(1));
        let order: Vec<PodId> = c.pending_pods().map(|p| p.id).collect();
        assert_eq!(order, vec![b, a]);
    }

    #[test]
    fn pending_queue_tracks_lifecycle() {
        let mut c = cluster();
        let queue = |c: &ClusterState| c.pending_pods().map(|p| p.id).collect::<Vec<_>>();
        let a = c.create_pod(spec(1.0), SimTime::from_secs(1));
        let b = c.create_pod(spec(1.0), SimTime::from_secs(1));
        let d = c.create_pod(spec(1.0), SimTime::from_secs(1));
        assert_eq!(queue(&c), vec![a, b, d], "equal creation times order by id");
        // Requeueing a pod that is still pending moves it to the back.
        c.requeue_pod(a, SimTime::from_secs(2)).unwrap();
        assert_eq!(queue(&c), vec![b, d, a]);
        c.bind_pod(b, NodeId::new(0)).unwrap();
        c.terminate_pod(d, PodPhase::Failed("cancelled")).unwrap();
        assert_eq!(queue(&c), vec![a]);
        // Eviction by node failure, then requeue, re-enters the queue.
        c.set_node_ready(NodeId::new(0), false).unwrap();
        assert_eq!(queue(&c), vec![a]);
        c.requeue_pod(b, SimTime::from_secs(3)).unwrap();
        c.requeue_pod(d, SimTime::from_secs(3)).unwrap();
        assert_eq!(queue(&c), vec![a, b, d]);
        c.check_invariants();
    }

    #[test]
    fn totals_skip_unready_nodes() {
        let mut c = cluster();
        let full = c.total_allocatable();
        c.set_node_ready(NodeId::new(1), false).unwrap();
        assert_eq!(c.total_allocatable(), full * 0.5);
    }

    #[test]
    fn unready_node_evicts_and_releases_capacity() {
        let mut c = cluster();
        let a = c.create_pod(spec(100.0), SimTime::ZERO);
        let b = c.create_pod(spec(50.0), SimTime::ZERO);
        c.bind_pod(a, NodeId::new(0)).unwrap();
        c.bind_pod(b, NodeId::new(1)).unwrap();
        c.start_pod(a, SimTime::from_secs(1)).unwrap();
        let victims = c.set_node_ready(NodeId::new(0), false).unwrap();
        assert_eq!(victims, vec![a]);
        assert_eq!(c.nodes()[0].allocated(), ResourceVec::ZERO);
        assert!(c.nodes()[0].pods().is_empty());
        let pod = c.pod(a).unwrap();
        assert!(pod.phase.is_terminal());
        assert_eq!(pod.node, None);
        // The other node's pod is untouched.
        assert_eq!(c.pod(b).unwrap().node, Some(NodeId::new(1)));
        // Repeating the transition is a no-op, and recovery never
        // resurrects evicted pods.
        assert!(c.set_node_ready(NodeId::new(0), false).unwrap().is_empty());
        assert!(c.set_node_ready(NodeId::new(0), true).unwrap().is_empty());
        assert!(c.nodes()[0].pods().is_empty());
        // The victim can be requeued and rescheduled.
        c.requeue_pod(a, SimTime::from_secs(9)).unwrap();
        c.bind_pod(a, NodeId::new(0)).unwrap();
        c.check_invariants();
    }

    #[test]
    fn versions_track_node_mutations() {
        let mut c = cluster();
        let v0 = c.version();
        let a = c.create_pod(spec(100.0), SimTime::ZERO);
        assert_eq!(c.version(), v0, "pod creation touches no node");
        c.bind_pod(a, NodeId::new(0)).unwrap();
        assert!(c.version() > v0);
        assert!(c.node_version(0) > 0);
        assert_eq!(c.node_version(1), 0, "other nodes unversioned");
        let v1 = c.version();
        c.start_pod(a, SimTime::from_secs(1)).unwrap();
        assert_eq!(c.version(), v1, "phase flip changes no allocation");
        c.terminate_pod(a, PodPhase::Succeeded).unwrap();
        assert!(c.version() > v1);
    }

    #[test]
    fn versions_track_resize_and_readiness() {
        let mut c = cluster();
        let a = c.create_pod(spec(100.0).with_limit(ResourceVec::splat(500.0)), SimTime::ZERO);
        c.bind_pod(a, NodeId::new(0)).unwrap();
        let v = c.node_version(0);
        c.resize_pod(a, ResourceVec::splat(200.0)).unwrap();
        assert!(c.node_version(0) > v);
        let v = c.node_version(0);
        c.set_node_ready(NodeId::new(0), false).unwrap();
        assert!(c.node_version(0) > v);
    }

    /// The bound-set counter moves exactly when a node's pod list does: a
    /// bind, a termination and an eviction by readiness loss move it; a
    /// resize, a pending pod's rewrite, a start and a readiness flip that
    /// evicts nothing do not, though some of them move the node version.
    #[test]
    fn bound_set_version_tracks_membership_only() {
        let mut c = cluster();
        let limit = ResourceVec::splat(500.0);
        let a = c.create_pod(spec(100.0).with_limit(limit), SimTime::ZERO);
        let b = c.create_pod(spec(100.0).with_limit(limit), SimTime::ZERO);
        let waiting = c.create_pod(spec(100.0).with_limit(limit), SimTime::ZERO);
        assert_eq!((c.bound_set_version(0), c.bound_set_version(1)), (0, 0));
        // (bound-set, node-version) moves of node 0 since the last call.
        let mut last = (0, 0);
        let mut moved = |c: &ClusterState| {
            let now = (c.bound_set_version(0), c.node_version(0));
            let delta = (now.0 - last.0, now.1 - last.1);
            last = now;
            delta
        };
        c.bind_pod(a, NodeId::new(0)).unwrap();
        assert_eq!(moved(&c), (1, 1), "bind");
        c.bind_pod(b, NodeId::new(0)).unwrap();
        moved(&c);
        c.resize_pod(a, ResourceVec::splat(300.0)).unwrap();
        assert_eq!(moved(&c), (0, 1), "a resize moves the node version only");
        c.update_pending_request(waiting, ResourceVec::splat(50.0)).unwrap();
        assert!(c.rewrite_if_pending(waiting, ResourceVec::splat(60.0)));
        assert_eq!(moved(&c), (0, 0), "a pending rewrite touches no node");
        c.start_pod(a, SimTime::from_secs(1)).unwrap();
        assert_eq!(moved(&c), (0, 0), "a start changes no allocation");
        c.terminate_pod(b, PodPhase::Succeeded).unwrap();
        assert_eq!(moved(&c), (1, 1), "terminate");
        assert_eq!(c.set_node_ready(NodeId::new(0), false).unwrap(), vec![a]);
        assert_eq!(moved(&c), (1, 1), "eviction on readiness loss");
        assert!(c.set_node_ready(NodeId::new(0), true).unwrap().is_empty());
        assert_eq!(moved(&c), (0, 1), "an empty node comes back");
        assert_eq!(c.bound_set_version(1), 0, "the other node never moved");
        c.check_invariants();
    }

    #[test]
    fn bound_priority_census_tracks_lifecycle() {
        let mut c = cluster();
        let lo = c.create_pod(
            PodSpec::new(
                PodKind::ServiceReplica { app: AppId::new(0) },
                ResourceVec::splat(10.0),
                10,
            ),
            SimTime::ZERO,
        );
        let hi = c.create_pod(
            PodSpec::new(
                PodKind::ServiceReplica { app: AppId::new(1) },
                ResourceVec::splat(10.0),
                100,
            ),
            SimTime::ZERO,
        );
        assert_eq!(c.bound_pods_below(100), 0, "pending pods are not bound");
        c.bind_pod(lo, NodeId::new(0)).unwrap();
        c.bind_pod(hi, NodeId::new(1)).unwrap();
        assert_eq!(c.bound_pods_below(100), 1);
        assert_eq!(c.bound_pods_below(11), 1);
        assert_eq!(c.bound_pods_below(10), 0);
        c.check_invariants();
        c.terminate_pod(lo, PodPhase::Succeeded).unwrap();
        assert_eq!(c.bound_pods_below(100), 0);
        // Eviction through node failure also updates the census.
        c.set_node_ready(NodeId::new(1), false).unwrap();
        assert_eq!(c.bound_pods_below(i32::MAX), 0);
        c.check_invariants();
    }

    #[test]
    fn broken_slot_id_correspondence_is_reported() {
        let mut c = cluster();
        c.create_pod(spec(1.0), SimTime::ZERO);
        c.create_pod(spec(1.0), SimTime::ZERO);
        assert!(c.invariant_violations().is_empty());
        c.pods.swap(0, 1);
        let violations = c.invariant_violations();
        assert!(
            violations.iter().any(|v| v == "pod table slot 0 holds pod-1"),
            "slot/id mismatch not reported: {violations:?}"
        );
    }

    #[test]
    fn unknown_ids_error() {
        let mut c = cluster();
        assert!(c.node(NodeId::new(99)).is_err());
        assert!(c.pod(PodId::new(99)).is_err());
        assert!(matches!(c.pod(PodId::new(u64::MAX)), Err(Error::UnknownPod(_))));
        assert!(c.bind_pod(PodId::new(99), NodeId::new(0)).is_err());
        assert!(c.set_node_ready(NodeId::new(99), true).is_err());
    }
}
