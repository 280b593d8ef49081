//! Incremental feasibility index: the scheduler's shadow state,
//! O(log N) candidate enumeration, and per-class score caches.
//!
//! The naive scheduling cycle rescans *and rescores* every node per
//! pending pod — O(P·N) filter and score evaluations per cycle, quadratic
//! in cluster scale. This module keeps the per-cycle shadow (free
//! vectors, per-(node, app) pod counts), a small set of score caches (see
//! below) *and* two flat segment trees over dense node ids whose
//! internal nodes carry both the element-wise **maximum** (prune
//! subtrees where nothing fits) and the element-wise **minimum** of
//! their leaf keys (emit whole subtrees where *everything* fits without
//! descending — the common case on an emptyish cluster):
//!
//! * the **fit tree**, keyed by each ready node's exact shadow-free
//!   vector, answers "which nodes can host `request` right now" by
//!   descending only subtrees whose max-free still fits the request and
//!   whose min-free does not already admit every leaf — O(log N) per
//!   probe when the answer is "none" or "all", O(k·log(N/k)) for k
//!   scattered matches, leaves emitted in ascending node order;
//! * the **preempt tree**, keyed by `free + Σ bound requests` (every
//!   pod the node could conceivably evict) plus a small margin, prunes
//!   preemption to nodes that could free enough capacity at all. A
//!   per-node, per-priority bound-resource census then rejects nodes
//!   whose strictly-lower-priority mass is insufficient before any pod
//!   is inspected.
//!
//! **Exactness contract.** Fit-tree leaves hold the *exact* shadow free
//! vector, so enumeration is equivalent to evaluating the capacity-fit
//! filter on every node — same feasible set, same ascending order,
//! preserving the deterministic lowest-index tie-break bit-for-bit. The
//! preempt tree and census are *supersets* (the margin absorbs the
//! float drift of incremental adds/subtracts), so they only prune nodes
//! the exact per-node victim scan would reject anyway; the scan itself
//! is shared verbatim with the naive path. The framework cross-checks
//! both claims against the naive scan under `debug_assertions`.
//!
//! The index carries across scheduler cycles: [`FeasibilityIndex::sync`]
//! diffs [`ClusterState`] version counters and refreshes only nodes that
//! changed since the last cycle (bound/evicted/resized/ready-flipped),
//! plus nodes tainted by the previous cycle's own tentative placements,
//! instead of rebuilding the shadow from scratch each cycle.
//!
//! **Score caches.** A node's verdict for a pod — the first non-capacity
//! filter that rejects it, or its weighted score — is a pure function of
//! the node, its shadow free vector, the pod's [`PodClass`] and the
//! class's app count on the node (the plugin purity contract), and one
//! placement changes those inputs on exactly one node. Every shadow
//! mutation funnels through `write_leaves`, which appends the node to a
//! change log. Each of up to [`SCORE_CLASSES`] caches remembers the log
//! position it is current to; on use it marks the nodes logged since
//! then stale (all of them when the cache is new, the log was truncated
//! past it, or ≥ N entries are pending) and
//! [`for_each_scored`](FeasibilityIndex::for_each_scored) re-evaluates
//! only the stale nodes among the current candidates. The caller folds
//! the cached verdicts in the same ascending candidate order as a fresh
//! evaluation would, so the choice and its tie-break are bit-identical.

use std::collections::HashMap;

use evolve_sim::{ClusterState, PodSpec};
use evolve_types::ResourceVec;

use crate::plugins::PodClass;

/// Added to superset keys (preempt tree, census check) so incremental
/// float drift can never prune a node the exact scan would accept.
/// Semantically negligible: requests are O(10)–O(10⁴) per dimension.
const PRUNE_MARGIN: f64 = 1e-3;

/// Leaf key of a node that must never be enumerated (unready, or padding
/// past the real node count): nothing fits within negative infinity.
const NEG: ResourceVec = ResourceVec::splat(f64::NEG_INFINITY);

/// Live score caches per index; the least recently used is evicted.
/// Pending queues arrive in per-app runs (a deployment's replicas, a
/// stage's tasks), so a handful of slots covers the interleaving seen in
/// practice; a miss costs about what scoring cost before the cache.
const SCORE_CLASSES: usize = 8;

/// A node's cached evaluation for one pod class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Verdict {
    /// Passed every non-capacity filter; the weighted mean score.
    Score(f64),
    /// Index of the first non-capacity filter that rejected the node.
    RejectedBy(usize),
}

/// Verdicts of every node for one pod class, current to `seen`.
#[derive(Debug, Default)]
struct ClassCache {
    /// [`class_key`] of the class: everything a plugin may read of the
    /// pod.
    key: (u32, [u64; 4]),
    /// Change-log clock this cache has replayed up to.
    seen: u64,
    /// Value of the index's use counter at the last lookup (LRU).
    used: u64,
    /// Per node; `None` marks an entry whose inputs changed since it was
    /// evaluated (or that never was).
    verdicts: Vec<Option<Verdict>>,
}

/// App id and request bits: equal keys give bit-equal plugin inputs.
fn class_key(class: &PodClass) -> (u32, [u64; 4]) {
    (class.app.raw(), class.request.as_array().map(f64::to_bits))
}

/// Incremental scheduler shadow + feasibility structures. Owned by the
/// run driver and threaded through
/// [`SchedulerFramework::schedule_cycle_carried`](crate::SchedulerFramework::schedule_cycle_carried)
/// so the per-node mirrors survive between cycles.
#[derive(Debug, Default)]
pub struct FeasibilityIndex {
    n: usize,
    /// Leaf capacity of both trees (`n.next_power_of_two()`).
    cap: usize,
    /// Shadow free capacity per node (cluster truth ± this cycle's
    /// tentative placements and claims).
    free: Vec<ResourceVec>,
    ready: Vec<bool>,
    /// Per-node app → tentative pod count (spread scoring input).
    app_pods: Vec<HashMap<u32, usize>>,
    /// Per-node bound-resource census, sorted by priority ascending.
    census: Vec<Vec<(i32, ResourceVec)>>,
    /// Sum over all census entries per node (preempt-tree key input).
    census_total: Vec<ResourceVec>,
    /// Fit tree maxima, 1-based heap layout in `[1, 2·cap)`; leaves at
    /// `cap+i`.
    fit_keys: Vec<ResourceVec>,
    /// Fit tree minima, same layout (whole-subtree emission).
    fit_floor: Vec<ResourceVec>,
    /// Preempt tree maxima, same layout.
    preempt_keys: Vec<ResourceVec>,
    /// Preempt tree minima, same layout.
    preempt_floor: Vec<ResourceVec>,
    node_versions_seen: Vec<u64>,
    global_version_seen: u64,
    synced: bool,
    /// Nodes touched by tentative in-cycle operations; unconditionally
    /// refreshed from cluster truth at the next sync (the plan may only
    /// partially apply, so version diffing alone cannot cover them).
    tainted: Vec<u32>,
    taint_flag: Vec<bool>,
    stale_lookups: u64,
    probes: u64,
    candidates: Vec<usize>,
    stack: Vec<usize>,
    /// Nodes whose shadow changed, oldest first; entry `k` happened at
    /// clock `changes_base + k`. Only the newest `n` entries are ever
    /// replayed, so the log is cut back to that whenever it doubles.
    changes: Vec<u32>,
    changes_base: u64,
    caches: Vec<ClassCache>,
    /// Lookup counter stamping [`ClassCache::used`].
    cache_uses: u64,
    /// Identity of the plugin set the caches were evaluated by.
    scored_by: u64,
}

impl FeasibilityIndex {
    /// An empty index; the first [`sync`](Self::sync) performs a full
    /// rebuild.
    #[must_use]
    pub fn new() -> Self {
        FeasibilityIndex::default()
    }

    /// Forces the next [`sync`](Self::sync) to rebuild from scratch.
    /// Call after replacing the cluster wholesale (e.g. restoring a
    /// snapshot), where version counters no longer relate to the mirrors.
    pub fn invalidate(&mut self) {
        self.synced = false;
    }

    /// Brings the mirrors up to date with `cluster` and resets the
    /// per-cycle counters. Cost is O(changed nodes) after the first call.
    /// `scored_by` identifies the plugin set of the calling framework;
    /// when it differs from the previous cycle's, cached verdicts mean
    /// something else and are dropped.
    pub(crate) fn sync(&mut self, cluster: &ClusterState, scored_by: u64) {
        self.stale_lookups = 0;
        self.probes = 0;
        if scored_by != self.scored_by {
            self.caches.clear();
            self.scored_by = scored_by;
        }
        let n = cluster.nodes().len();
        if !self.synced || n != self.n || cluster.version() < self.global_version_seen {
            self.rebuild(cluster);
            return;
        }
        let tainted = std::mem::take(&mut self.tainted);
        for &i in &tainted {
            self.taint_flag[i as usize] = false;
            self.refresh_node(cluster, i as usize);
        }
        self.tainted = tainted;
        self.tainted.clear();
        if cluster.version() != self.global_version_seen {
            for i in 0..n {
                if cluster.node_version(i) != self.node_versions_seen[i] {
                    self.refresh_node(cluster, i);
                }
            }
            self.global_version_seen = cluster.version();
        }
    }

    fn rebuild(&mut self, cluster: &ClusterState) {
        let n = cluster.nodes().len();
        self.n = n;
        self.cap = n.next_power_of_two().max(1);
        self.free = vec![ResourceVec::ZERO; n];
        self.ready = vec![false; n];
        self.app_pods = vec![HashMap::new(); n];
        self.census = vec![Vec::new(); n];
        self.census_total = vec![ResourceVec::ZERO; n];
        self.fit_keys = vec![NEG; 2 * self.cap];
        self.fit_floor = vec![NEG; 2 * self.cap];
        self.preempt_keys = vec![NEG; 2 * self.cap];
        self.preempt_floor = vec![NEG; 2 * self.cap];
        self.node_versions_seen = vec![0; n];
        self.taint_flag = vec![false; n];
        self.tainted.clear();
        for i in 0..n {
            self.refresh_node(cluster, i);
        }
        self.caches.clear();
        self.changes.clear();
        self.global_version_seen = cluster.version();
        self.synced = true;
    }

    /// Re-derives one node's mirrors from cluster truth. Walks the
    /// node's bound-pod set, not the full pod table (the table keeps
    /// terminal pods and grows with simulation length).
    fn refresh_node(&mut self, cluster: &ClusterState, i: usize) {
        let node = &cluster.nodes()[i];
        self.free[i] = node.free();
        self.ready[i] = node.is_ready();
        self.node_versions_seen[i] = cluster.node_version(i);
        let apps = &mut self.app_pods[i];
        apps.clear();
        let census = &mut self.census[i];
        census.clear();
        let mut total = ResourceVec::ZERO;
        for pod_id in node.pods() {
            let Ok(pod) = cluster.pod(*pod_id) else {
                self.stale_lookups += 1;
                continue;
            };
            debug_assert!(pod.phase.holds_resources());
            *apps.entry(pod.app().raw()).or_insert(0) += 1;
            let prio = pod.spec.priority;
            match census.binary_search_by_key(&prio, |(p, _)| *p) {
                Ok(k) => census[k].1 += pod.spec.request,
                Err(k) => census.insert(k, (prio, pod.spec.request)),
            }
            total += pod.spec.request;
        }
        self.census_total[i] = total;
        self.write_leaves(i);
    }

    /// Recomputes both tree leaves (and their root paths) for node `i`
    /// and logs the node as changed. Every mutation of a node's shadow
    /// ends here, which is what makes the change log complete.
    fn write_leaves(&mut self, i: usize) {
        let (fit, preempt) = if self.ready[i] {
            let headroom = self.free[i] + self.census_total[i] + ResourceVec::splat(PRUNE_MARGIN);
            (self.free[i], headroom)
        } else {
            (NEG, NEG)
        };
        set_leaf(&mut self.fit_keys, &mut self.fit_floor, self.cap, i, fit);
        set_leaf(&mut self.preempt_keys, &mut self.preempt_floor, self.cap, i, preempt);
        self.changes.push(i as u32);
        if self.changes.len() >= 2 * self.n {
            let cut = self.changes.len() - self.n;
            self.changes.drain(..cut);
            self.changes_base += cut as u64;
        }
    }

    fn taint(&mut self, i: usize) {
        if !self.taint_flag[i] {
            self.taint_flag[i] = true;
            self.tainted.push(i as u32);
        }
    }

    /// Shadow free capacity of node `i`.
    pub(crate) fn free(&self, i: usize) -> ResourceVec {
        self.free[i]
    }

    /// Tentative pod count of `app` on node `i`.
    pub(crate) fn app_count(&self, i: usize, app: u32) -> usize {
        self.app_pods[i].get(&app).copied().unwrap_or(0)
    }

    /// Commits a tentative placement into the shadow.
    pub(crate) fn place(&mut self, i: usize, spec: &PodSpec) {
        self.free[i] -= spec.request;
        *self.app_pods[i].entry(spec.kind.app().raw()).or_insert(0) += 1;
        self.write_leaves(i);
        self.taint(i);
    }

    /// Rolls a tentative placement back out of the shadow.
    pub(crate) fn release(&mut self, i: usize, spec: &PodSpec) {
        self.free[i] += spec.request;
        if let Some(c) = self.app_pods[i].get_mut(&spec.kind.app().raw()) {
            *c = c.saturating_sub(1);
        }
        self.write_leaves(i);
        self.taint(i);
    }

    /// Accounts a claimed preemption victim: its capacity frees up in
    /// the shadow and leaves the bound census.
    pub(crate) fn claim_victim(&mut self, i: usize, app: u32, priority: i32, req: &ResourceVec) {
        self.free[i] += *req;
        if let Some(c) = self.app_pods[i].get_mut(&app) {
            *c = c.saturating_sub(1);
        }
        if let Ok(k) = self.census[i].binary_search_by_key(&priority, |(p, _)| *p) {
            self.census[i][k].1 -= *req;
        }
        self.census_total[i] -= *req;
        self.write_leaves(i);
        self.taint(i);
    }

    /// Reverses [`claim_victim`](Self::claim_victim) (gang rollback).
    pub(crate) fn unclaim_victim(&mut self, i: usize, app: u32, priority: i32, req: &ResourceVec) {
        self.free[i] -= *req;
        *self.app_pods[i].entry(app).or_insert(0) += 1;
        match self.census[i].binary_search_by_key(&priority, |(p, _)| *p) {
            Ok(k) => self.census[i][k].1 += *req,
            Err(k) => self.census[i].insert(k, (priority, *req)),
        }
        self.census_total[i] += *req;
        self.write_leaves(i);
        self.taint(i);
    }

    /// Fills [`candidates`](Self::candidates) with every node whose
    /// shadow free capacity fits `request` (ready nodes only), ascending.
    pub(crate) fn enumerate_fit(&mut self, request: &ResourceVec) {
        self.probes += enumerate(
            &self.fit_keys,
            &self.fit_floor,
            self.cap,
            self.n,
            request,
            &mut self.stack,
            &mut self.candidates,
        );
    }

    /// Fills [`candidates`](Self::candidates) with a superset of the
    /// nodes where evicting bound pods could make `request` fit,
    /// ascending. Exactness comes from the caller's per-node victim scan.
    pub(crate) fn enumerate_preempt(&mut self, request: &ResourceVec) {
        self.probes += enumerate(
            &self.preempt_keys,
            &self.preempt_floor,
            self.cap,
            self.n,
            request,
            &mut self.stack,
            &mut self.candidates,
        );
    }

    /// The node list produced by the last `enumerate_*` call.
    pub(crate) fn candidates(&self) -> &[usize] {
        &self.candidates
    }

    /// Visits every candidate of the last
    /// [`enumerate_fit`](Self::enumerate_fit), ascending, with its
    /// verdict for `class`. Verdicts come from the class's cache;
    /// `evaluate(node, shadow free, app pods on node)` runs only for
    /// candidates whose inputs changed since they were last evaluated.
    pub(crate) fn for_each_scored(
        &mut self,
        class: &PodClass,
        mut evaluate: impl FnMut(usize, ResourceVec, usize) -> Verdict,
        mut visit: impl FnMut(usize, Verdict),
    ) {
        if self.candidates.is_empty() {
            return;
        }
        let slot = self.current_cache(class);
        let app = class.app.raw();
        let verdicts = &mut self.caches[slot].verdicts;
        for &i in &self.candidates {
            let verdict = match verdicts[i] {
                Some(v) => v,
                None => {
                    let count = self.app_pods[i].get(&app).copied().unwrap_or(0);
                    let v = evaluate(i, self.free[i], count);
                    verdicts[i] = Some(v);
                    v
                }
            };
            visit(i, verdict);
        }
    }

    /// Finds (or creates, evicting the least recently used) the cache
    /// for `class` and marks stale every node logged since it was last
    /// brought up to date. Returns its slot.
    fn current_cache(&mut self, class: &PodClass) -> usize {
        let key = class_key(class);
        let slot = match self.caches.iter().position(|c| c.key == key) {
            Some(slot) => slot,
            None => {
                let slot = if self.caches.len() < SCORE_CLASSES {
                    self.caches.push(ClassCache::default());
                    self.caches.len() - 1
                } else {
                    let lru = self.caches.iter().enumerate().min_by_key(|(_, c)| c.used);
                    lru.expect("SCORE_CLASSES > 0").0
                };
                self.caches[slot].key = key;
                // An empty verdict table is stale as a whole.
                self.caches[slot].verdicts.clear();
                slot
            }
        };
        let clock = self.changes_base + self.changes.len() as u64;
        self.cache_uses += 1;
        let cache = &mut self.caches[slot];
        cache.used = self.cache_uses;
        // Truncation keeps the newest `n` log entries, so a cache fewer
        // than `n` behind finds every change it missed; one further
        // behind has next to nothing left worth keeping.
        if cache.verdicts.len() != self.n || clock - cache.seen >= self.n as u64 {
            cache.verdicts.clear();
            cache.verdicts.resize(self.n, None);
        } else {
            for &i in &self.changes[(cache.seen - self.changes_base) as usize..] {
                cache.verdicts[i as usize] = None;
            }
        }
        cache.seen = clock;
        slot
    }

    /// Whether evicting every bound pod of priority strictly below
    /// `priority` could possibly free room for `request` on node `i`
    /// (superset check; the margin absorbs incremental float drift).
    pub(crate) fn census_could_free(&self, i: usize, priority: i32, request: &ResourceVec) -> bool {
        let mut avail = self.free[i];
        for (p, sum) in &self.census[i] {
            if *p >= priority {
                break;
            }
            avail += *sum;
        }
        request.fits_within(&(avail + ResourceVec::splat(PRUNE_MARGIN)))
    }

    /// Records one failed pod-table lookup (see
    /// [`SchedulePlan::stale_pod_lookups`](crate::SchedulePlan::stale_pod_lookups)).
    pub(crate) fn note_stale(&mut self) {
        self.stale_lookups += 1;
    }

    /// Adds a batch of failed pod-table lookups.
    pub(crate) fn add_stale(&mut self, n: u64) {
        self.stale_lookups += n;
    }

    /// Failed pod-table lookups since the last sync.
    pub(crate) fn stale_lookups(&self) -> u64 {
        self.stale_lookups
    }

    /// Tree-node visits across both trees since the last sync.
    pub(crate) fn probes(&self) -> u64 {
        self.probes
    }

    /// Node count the index currently mirrors.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.n
    }
}

/// Writes `key` at leaf `i` and recomputes the max/min aggregates on its
/// root path.
fn set_leaf(
    maxes: &mut [ResourceVec],
    mins: &mut [ResourceVec],
    cap: usize,
    i: usize,
    key: ResourceVec,
) {
    let mut s = cap + i;
    maxes[s] = key;
    mins[s] = key;
    s >>= 1;
    while s >= 1 {
        maxes[s] = maxes[2 * s].max(&maxes[2 * s + 1]);
        mins[s] = mins[2 * s].min(&mins[2 * s + 1]);
        s >>= 1;
    }
}

/// Pushes every leaf whose key fits `request` into `out`, in ascending
/// node order. Subtrees whose max no longer fits are pruned whole;
/// subtrees whose *min* still fits are emitted whole without descending
/// (padding and unready leaves carry `-inf` keys, so they can never sit
/// inside such a subtree). Returns the number of tree nodes visited (the
/// feasibility-probe count) — O(log N) when the answer is "none" or
/// "all", O(k·log(N/k)) for k scattered matches. Emission itself is a
/// plain index append, not a probe: no capacity comparison happens per
/// emitted leaf.
fn enumerate(
    maxes: &[ResourceVec],
    mins: &[ResourceVec],
    cap: usize,
    n: usize,
    request: &ResourceVec,
    stack: &mut Vec<usize>,
    out: &mut Vec<usize>,
) -> u64 {
    out.clear();
    stack.clear();
    if n == 0 {
        return 0;
    }
    let height = cap.trailing_zeros();
    let mut probes = 0u64;
    stack.push(1);
    while let Some(s) = stack.pop() {
        probes += 1;
        if !request.fits_within(&maxes[s]) {
            continue;
        }
        let h = height - s.ilog2();
        let lo = (s << h) - cap;
        if h == 0 {
            if lo < n {
                out.push(lo);
            }
            continue;
        }
        if request.fits_within(&mins[s]) {
            let hi = lo + (1 << h);
            debug_assert!(hi <= n, "-inf padding floors must block whole-subtree emission");
            out.extend(lo..hi);
            continue;
        }
        // Right child first: the left subtree then resolves fully before
        // the right one, yielding leaves in ascending node order — the
        // order the deterministic lowest-index tie-break depends on.
        stack.push(2 * s + 1);
        stack.push(2 * s);
    }
    probes
}

#[cfg(test)]
mod tests {
    use super::*;
    use evolve_sim::{ClusterConfig, ClusterState, NodeShape, PodKind};
    use evolve_types::{AppId, NodeId, PodId, SimTime};

    fn cluster(nodes: usize) -> ClusterState {
        ClusterState::new(&ClusterConfig::uniform(
            nodes,
            NodeShape { capacity: ResourceVec::splat(1000.0) },
        ))
    }

    fn spec(app: u32, request: f64, priority: i32) -> PodSpec {
        PodSpec::new(
            PodKind::ServiceReplica { app: AppId::new(app) },
            ResourceVec::splat(request),
            priority,
        )
    }

    fn bind(c: &mut ClusterState, app: u32, request: f64, priority: i32, node: u32) -> PodId {
        let id = c.create_pod(spec(app, request, priority), SimTime::ZERO);
        c.bind_pod(id, NodeId::new(node)).unwrap();
        id
    }

    /// Enumeration must equal the linear scan: same nodes, same order.
    fn naive_fit(idx: &FeasibilityIndex, request: &ResourceVec) -> Vec<usize> {
        (0..idx.len()).filter(|&i| idx.ready[i] && request.fits_within(&idx.free(i))).collect()
    }

    #[test]
    fn fit_enumeration_matches_linear_scan() {
        let mut c = cluster(13); // odd count exercises tree padding
        for i in 0..13u32 {
            bind(&mut c, i % 3, (f64::from(i) + 1.0) * 70.0, 10, i);
        }
        c.set_node_ready(NodeId::new(5), false).unwrap();
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c, 1);
        for req in [0.0, 100.0, 400.0, 900.0, 950.0, 2000.0] {
            let request = ResourceVec::splat(req);
            idx.enumerate_fit(&request);
            assert_eq!(idx.candidates(), naive_fit(&idx, &request), "request {req}");
        }
        assert!(idx.probes() > 0);
    }

    #[test]
    fn incremental_sync_matches_rebuild() {
        let mut c = cluster(9);
        for i in 0..9u32 {
            bind(&mut c, i, 100.0 + f64::from(i), 10 + i as i32, i % 9);
        }
        let mut carried = FeasibilityIndex::new();
        carried.sync(&c, 1);
        // Mutate through every hook the cluster versions: bind, terminate,
        // resize, readiness flip.
        let extra = bind(&mut c, 3, 50.0, 99, 2);
        let gone = bind(&mut c, 4, 80.0, 5, 7);
        c.terminate_pod(gone, evolve_sim::PodPhase::Succeeded).unwrap();
        c.set_node_ready(NodeId::new(1), false).unwrap();
        let resized =
            c.create_pod(spec(6, 10.0, 10).with_limit(ResourceVec::splat(400.0)), SimTime::ZERO);
        c.bind_pod(resized, NodeId::new(8)).unwrap();
        c.resize_pod(resized, ResourceVec::splat(300.0)).unwrap();
        let _ = extra;
        carried.sync(&c, 1);
        let mut fresh = FeasibilityIndex::new();
        fresh.sync(&c, 1);
        assert_eq!(carried.free, fresh.free);
        assert_eq!(carried.ready, fresh.ready);
        assert_eq!(carried.census, fresh.census);
        assert_eq!(carried.census_total, fresh.census_total);
        assert_eq!(carried.app_pods, fresh.app_pods);
        assert_eq!(carried.fit_keys, fresh.fit_keys);
        assert_eq!(carried.fit_floor, fresh.fit_floor);
        assert_eq!(carried.preempt_keys, fresh.preempt_keys);
        assert_eq!(carried.preempt_floor, fresh.preempt_floor);
    }

    #[test]
    fn all_feasible_cluster_enumerates_in_constant_probes() {
        // 64 identical empty nodes: the root's min already fits, so the
        // whole leaf range is emitted from a single probe.
        let c = cluster(64);
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c, 1);
        idx.enumerate_fit(&ResourceVec::splat(100.0));
        assert_eq!(idx.candidates(), (0..64).collect::<Vec<_>>());
        assert_eq!(idx.probes(), 1);
    }

    #[test]
    fn tentative_ops_are_reconciled_at_next_sync() {
        let mut c = cluster(4);
        bind(&mut c, 0, 500.0, 10, 0);
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c, 1);
        // A tentative placement the driver then *fails* to apply: no
        // cluster version moves, but the taint list must restore truth.
        let tentative = spec(1, 200.0, 50);
        idx.place(2, &tentative);
        assert_eq!(idx.free(2), ResourceVec::splat(750.0));
        idx.sync(&c, 1);
        assert_eq!(idx.free(2), ResourceVec::splat(950.0));
        assert_eq!(idx.app_count(2, 1), 0);
    }

    #[test]
    fn claim_and_unclaim_round_trip_census() {
        let mut c = cluster(2);
        bind(&mut c, 0, 600.0, 10, 0);
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c, 1);
        let req = ResourceVec::splat(600.0);
        assert!(idx.census_could_free(0, 50, &ResourceVec::splat(900.0)));
        assert!(!idx.census_could_free(0, 10, &ResourceVec::splat(900.0)), "no lower priority");
        idx.claim_victim(0, 0, 10, &req);
        assert_eq!(idx.free(0), ResourceVec::splat(950.0));
        assert!(!idx.census_could_free(0, 50, &ResourceVec::splat(951.0)));
        idx.unclaim_victim(0, 0, 10, &req);
        assert_eq!(idx.free(0), ResourceVec::splat(350.0));
        assert!(idx.census_could_free(0, 50, &ResourceVec::splat(900.0)));
    }

    /// A stand-in for the framework's filter + score pass: pure in its
    /// arguments, distinct per node, rejecting nodes that hold ≥ 2 pods
    /// of the class's app.
    fn evaluate(i: usize, free: ResourceVec, app_pods: usize) -> Verdict {
        if app_pods >= 2 {
            Verdict::RejectedBy(1)
        } else {
            Verdict::Score(free.total() + 1e4 * app_pods as f64 + i as f64)
        }
    }

    fn class(app: u32, request: f64) -> PodClass {
        PodClass { app: AppId::new(app), request: ResourceVec::splat(request) }
    }

    /// Runs the cached pass for `class`, asserts it visits exactly what
    /// evaluating every candidate from scratch yields, and returns how
    /// many candidates it had to re-evaluate.
    fn check_cached_pass(idx: &mut FeasibilityIndex, class: &PodClass) -> usize {
        idx.enumerate_fit(&class.request);
        let expected: Vec<(usize, Verdict)> = idx
            .candidates()
            .iter()
            .map(|&i| (i, evaluate(i, idx.free(i), idx.app_count(i, class.app.raw()))))
            .collect();
        let mut evaluated = 0;
        let mut visited = Vec::new();
        idx.for_each_scored(
            class,
            |i, free, app_pods| {
                evaluated += 1;
                evaluate(i, free, app_pods)
            },
            |i, v| visited.push((i, v)),
        );
        assert_eq!(visited, expected);
        evaluated
    }

    #[test]
    fn log_replay_matches_full_evaluation() {
        let mut c = cluster(16);
        for i in 0..16u32 {
            bind(&mut c, i % 2, 100.0, 10, i);
        }
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c, 1);
        let a = class(0, 50.0);
        assert_eq!(check_cached_pass(&mut idx, &a), 16, "cold cache evaluates every candidate");
        assert_eq!(check_cached_pass(&mut idx, &a), 0, "nothing changed");
        // Every shadow mutation, some hitting the same node twice.
        let pod = spec(0, 50.0, 50);
        idx.place(3, &pod);
        idx.place(3, &pod);
        idx.place(5, &pod);
        idx.release(5, &pod);
        let req = ResourceVec::splat(100.0);
        idx.claim_victim(8, 0, 10, &req);
        idx.claim_victim(10, 0, 10, &req);
        idx.unclaim_victim(10, 0, 10, &req);
        assert_eq!(check_cached_pass(&mut idx, &a), 4, "nodes 3, 5, 8, 10");
        // Cluster-side changes arrive through sync, together with the
        // refresh of the four tainted nodes.
        bind(&mut c, 0, 70.0, 10, 12);
        c.set_node_ready(NodeId::new(14), false).unwrap();
        idx.sync(&c, 1);
        assert_eq!(check_cached_pass(&mut idx, &a), 5, "3, 5, 8, 10, 12; 14 is no candidate");
        c.set_node_ready(NodeId::new(14), true).unwrap();
        idx.sync(&c, 1);
        assert_eq!(check_cached_pass(&mut idx, &a), 1, "node 14 came back empty");
    }

    #[test]
    fn truncated_log_resets_the_cache() {
        let mut c = cluster(4);
        bind(&mut c, 0, 100.0, 10, 0);
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c, 1);
        let (a, b) = (class(0, 50.0), class(1, 50.0));
        assert_eq!(check_cached_pass(&mut idx, &a), 4);
        assert_eq!(check_cached_pass(&mut idx, &b), 4);
        // 3 changes < n: replayed. Both touch node 1 only.
        let pod = spec(0, 50.0, 50);
        for _ in 0..3 {
            idx.place(1, &pod);
        }
        assert_eq!(check_cached_pass(&mut idx, &a), 1);
        // Another 9 push `b` (12 behind) past a truncation of the log.
        for _ in 0..9 {
            idx.release(1, &pod);
            idx.place(1, &pod);
        }
        assert!(idx.changes_base > 0, "log was cut back");
        assert_eq!(check_cached_pass(&mut idx, &b), 4, "too far behind: evaluated afresh");
        assert_eq!(check_cached_pass(&mut idx, &a), 4);
    }

    #[test]
    fn rebuilds_and_foreign_plugin_sets_drop_every_cache() {
        let c = cluster(4);
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c, 1);
        let a = class(0, 50.0);
        check_cached_pass(&mut idx, &a);
        assert_eq!(idx.caches.len(), 1);
        idx.invalidate();
        idx.sync(&c, 1);
        assert!(idx.caches.is_empty(), "invalidate() rebuilds");
        assert_eq!(check_cached_pass(&mut idx, &a), 4);
        idx.sync(&cluster(5), 1);
        assert!(idx.caches.is_empty(), "node count changed");
        assert_eq!(check_cached_pass(&mut idx, &a), 5);
        idx.sync(&cluster(5), 2);
        assert!(idx.caches.is_empty(), "another framework's scores");
    }

    #[test]
    fn evicted_class_comes_back_correct() {
        let mut c = cluster(6);
        bind(&mut c, 0, 100.0, 10, 2);
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c, 1);
        let a = class(0, 50.0);
        assert_eq!(check_cached_pass(&mut idx, &a), 6);
        for app in 1..=SCORE_CLASSES as u32 {
            check_cached_pass(&mut idx, &class(app, 50.0));
        }
        assert_eq!(idx.caches.len(), SCORE_CLASSES);
        let evicted = class_key(&a);
        assert!(idx.caches.iter().all(|c| c.key != evicted), "least recently used class evicted");
        idx.place(4, &spec(0, 50.0, 50));
        assert_eq!(check_cached_pass(&mut idx, &a), 6, "re-admitted cold");
        assert_eq!(check_cached_pass(&mut idx, &class(2, 50.0)), 1, "survivors replay the log");
        // Same app, different request: a class of its own.
        assert_eq!(check_cached_pass(&mut idx, &class(0, 60.0)), 6);
    }

    #[test]
    fn unready_nodes_never_enumerate() {
        let mut c = cluster(3);
        c.set_node_ready(NodeId::new(0), false).unwrap();
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c, 1);
        idx.enumerate_fit(&ResourceVec::ZERO);
        assert_eq!(idx.candidates(), &[1, 2]);
        idx.enumerate_preempt(&ResourceVec::ZERO);
        assert_eq!(idx.candidates(), &[1, 2]);
    }

    #[test]
    fn single_node_tree_works() {
        let c = cluster(1);
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c, 1);
        idx.enumerate_fit(&ResourceVec::splat(900.0));
        assert_eq!(idx.candidates(), &[0]);
        idx.enumerate_fit(&ResourceVec::splat(951.0));
        assert!(idx.candidates().is_empty());
    }
}
