//! Incremental feasibility index: the scheduler's shadow state, per-class
//! score trees that answer "which node wins" in O(log N), and O(log N)
//! preemption-candidate enumeration.
//!
//! The naive scheduling cycle rescans *and rescores* every node per
//! pending pod — O(P·N) filter and score evaluations per cycle, quadratic
//! in cluster scale. This module keeps the per-cycle shadow (free
//! vectors, per-(node, app) pod counts), a small set of per-class score
//! trees (see below) and the **preempt tree**: a flat segment tree over
//! dense node ids keyed by `free + Σ bound requests` (every pod the node
//! could conceivably evict) plus a small margin, whose internal nodes
//! carry the element-wise **maximum** (prune subtrees where nothing
//! fits) and **minimum** (emit whole subtrees where everything fits) of
//! their leaf keys. It prunes preemption to nodes that could free enough
//! capacity at all; a per-node, per-priority bound-resource census then
//! rejects nodes whose strictly-lower-priority mass is insufficient
//! before any pod is inspected.
//!
//! **Exactness contract.** The index evaluates the one filter itself, on
//! the *exact* shadow free vector, with the naive scan's own `node_fits`,
//! so a class's table holds what filtering and scoring every node would
//! yield. The preempt tree and census are *supersets* (the margin
//! absorbs the float drift of incremental adds/subtracts), so they only
//! prune nodes the exact per-node victim scan would reject anyway; the
//! scan itself is shared verbatim with the naive path. The framework cross-checks both claims
//! against the naive scan under `debug_assertions`.
//!
//! The index carries across scheduler cycles: [`FeasibilityIndex::sync`]
//! diffs [`ClusterState`] version counters and refreshes only nodes that
//! changed since the last cycle (bound/evicted/resized/ready-flipped),
//! plus nodes tainted by the previous cycle's own tentative placements,
//! instead of rebuilding the shadow from scratch each cycle. A refresh
//! reads the pod table only for what the change can have moved: the app
//! counts when the node's bound set changed (or the node is tainted), and
//! the census, its total and the preempt-tree leaf not at all — those are
//! marked stale and re-derived, for the stale nodes only, by the first
//! census reader of a cycle that has one (most never do: preemption bails
//! first when no lower-priority pod is bound).
//!
//! **Score trees.** A node's verdict for a pod — rejected by the filter,
//! or its weighted score — is a pure function of the node, its shadow
//! free vector, the pod's [`PodClass`], the class's app count on the node
//! (the scorer purity contract) and the profile, and one placement
//! changes those inputs on exactly one node. Every shadow mutation
//! funnels through `log_change`, which appends the node to a change
//! log. Each of up to [`SCORE_CLASSES`] caches holds every node's verdict
//! under a max tree of the scores and remembers the log position it is
//! current to; on use it re-evaluates the nodes logged since then, each
//! once (all of them when the cache is new, the log was truncated past
//! it, or ≥ N entries are pending), and repairs their root paths.
//!
//! **The record walk.** The naive scan folds the feasible nodes in
//! ascending order with `score > best + 1e-12`. That fold changes `best`
//! only at its *records*: the first feasible node, then each time the
//! leftmost later node whose score exceeds the current record's by more
//! than the tolerance. "Leftmost leaf at or after `from` with key above
//! `t`" is one descent of the max tree, so
//! [`choose`](FeasibilityIndex::choose) follows the chain of records with
//! the fold's own float comparison and ends where the fold ends — same
//! node, same tie-break, bit for bit.

use evolve_sim::{ClusterState, Pod, PodSpec};
use evolve_types::{PodId, ResourceVec};

use crate::plugins::{node_fits, PodClass, SchedulerProfile};

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

/// How far a node's preempt-tree leaf is behind its shadow; ordered, so a
/// node marked twice keeps the greater.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Leaf {
    /// Key and census are current.
    Current,
    /// The census is current; the key is not (free or readiness moved).
    Key,
    /// The census too must be re-derived from the cluster first.
    Census,
}

/// A node's cached evaluation for one pod class.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    /// Passed the filter; the weighted mean score.
    Score(f64),
    /// The node is unready or the request does not fit its shadow free
    /// vector.
    Rejected,
}

/// The score a later node must exceed to displace a best of `best`: a
/// later node wins only when it is better by more than float noise,
/// which is the deterministic lowest-index tie-break. The one place the
/// tolerance is written.
fn bar(best: f64) -> f64 {
    best + 1e-12
}

/// Folds one feasible node into the running best. Nodes must arrive in
/// ascending index order.
pub(crate) fn fold_best(best: &mut Option<(f64, usize)>, score: f64, i: usize) {
    if best.is_none_or(|(b, _)| score > bar(b)) {
        *best = Some((score, i));
    }
}

/// What [`FeasibilityIndex::choose`] found for one pod class.
#[derive(Debug)]
pub(crate) struct Choice {
    /// The winning `(score, node)`: what folding every feasible node in
    /// ascending order with [`fold_best`] yields.
    pub(crate) best: Option<(f64, usize)>,
    /// Nodes that passed the filter.
    pub(crate) feasible: u32,
    /// Nodes the filter rejected.
    pub(crate) rejected: u32,
}

/// Verdicts of every node for one pod class, current to `seen`, under a
/// max tree of the scores.
#[derive(Debug, Default)]
struct ClassCache {
    /// [`class_key`] of the class: everything a scorer may read of the
    /// pod.
    key: (u32, [u64; 4]),
    /// Change-log clock this cache has replayed up to.
    seen: u64,
    /// Value of the index's use counter at the last lookup (LRU).
    used: u64,
    /// Per node.
    verdicts: Vec<Verdict>,
    /// Flat max tree, 1-based heap layout in `[1, 2·cap)`: leaf `cap + i`
    /// is node `i`'s score, `-inf` where the verdict is a rejection and
    /// for padding, so such a leaf is never above any threshold. Empty
    /// from a refill until the class is next asked about.
    tree: Vec<f64>,
    /// Nodes whose verdict is `Rejected`; the rest scored.
    rejected: u32,
}

impl ClassCache {
    /// Evaluates every node afresh in one ascending pass, folding as it
    /// goes, and returns the fold's answer. The tree is left unbuilt: a
    /// class asked about once (more classes in rotation than caches)
    /// costs one pass, like the scan it replaces.
    fn refill(
        &mut self,
        n: usize,
        mut verdict_of: impl FnMut(usize) -> Verdict,
    ) -> Option<(f64, usize)> {
        self.verdicts.clear();
        self.rejected = 0;
        self.tree.clear();
        let mut best = None;
        for i in 0..n {
            let verdict = verdict_of(i);
            self.verdicts.push(verdict);
            match verdict {
                Verdict::Score(score) => fold_best(&mut best, score, i),
                Verdict::Rejected => self.rejected += 1,
            }
        }
        best
    }

    /// Builds the tree over a refilled table, bottom-up, the first time
    /// the class is asked about again.
    fn build(&mut self, cap: usize) {
        self.tree.resize(2 * cap, f64::NEG_INFINITY);
        for (leaf, verdict) in self.tree[cap..].iter_mut().zip(&self.verdicts) {
            if let Verdict::Score(score) = *verdict {
                *leaf = leaf_key(score);
            }
        }
        for s in (1..cap).rev() {
            self.tree[s] = self.tree[2 * s].max(self.tree[2 * s + 1]);
        }
    }

    /// Replaces node `i`'s verdict: tallies, leaf and root path.
    fn set(&mut self, cap: usize, i: usize, verdict: Verdict) {
        if std::mem::replace(&mut self.verdicts[i], verdict) == Verdict::Rejected {
            self.rejected -= 1;
        }
        let mut s = cap + i;
        self.tree[s] = match verdict {
            Verdict::Score(score) => leaf_key(score),
            Verdict::Rejected => {
                self.rejected += 1;
                f64::NEG_INFINITY
            }
        };
        while s > 1 {
            s >>= 1;
            self.tree[s] = self.tree[2 * s].max(self.tree[2 * s + 1]);
        }
    }

    /// The fold's answer, found by following its records: each step asks
    /// the tree for the leftmost later leaf above the current record's
    /// bar. A chain longer than the tree is high (scores climbing with
    /// the node index) is finished as the plain fold over the remaining
    /// leaves, which bounds a query at O(log² N + N) tree reads.
    fn walk(&self, n: usize, cap: usize, probes: &mut u64) -> Option<(f64, usize)> {
        let (mut best, mut from, mut t) = (None, 0, f64::NEG_INFINITY);
        let mut records = 0;
        while let Some(i) = first_above(&self.tree, cap, from, t, probes) {
            let score = self.tree[cap + i];
            best = Some((score, i));
            t = bar(score);
            from = i + 1;
            records += 1;
            if records > cap.trailing_zeros() {
                *probes += (n - from) as u64;
                for j in from..n {
                    fold_best(&mut best, self.tree[cap + j], j);
                }
                break;
            }
        }
        best
    }
}

/// A score as a tree key. Scorers return values in `[0, 1]`; a NaN is the
/// one key the walk and the fold would treat differently (the fold keeps
/// a leading NaN, no threshold is below it), so it is ruled out here.
fn leaf_key(score: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&score), "score {score} outside [0, 1]");
    score
}

/// Leftmost leaf at or after `from` whose key exceeds `t`, adding the
/// tree nodes it reads to `probes`. The root is read first, so "nothing
/// fits" and "nothing beats the record" cost one probe instead of a
/// climb to the root.
fn first_above(tree: &[f64], cap: usize, from: usize, t: f64, probes: &mut u64) -> Option<usize> {
    *probes += 1;
    if from >= cap || tree[1] <= t {
        return None;
    }
    // Climb from the leaf, skipping rightwards over every subtree whose
    // maximum stays at or below `t`.
    let mut s = cap + from;
    loop {
        *probes += 1;
        if tree[s] > t {
            break;
        }
        // A right child ends where its parent ends: step up past it.
        while s & 1 == 1 {
            s >>= 1;
        }
        if s == 0 {
            return None;
        }
        s += 1;
    }
    // Descend to the leftmost leaf above `t`; when the left half has
    // none, the right half holds the subtree's maximum.
    while s < cap {
        *probes += 1;
        s = if tree[2 * s] > t { 2 * s } else { 2 * s + 1 };
    }
    Some(s - cap)
}

/// Pods of `app` in one node's sorted `(app, pods)` list.
fn app_count(apps: &[(u32, u32)], app: u32) -> usize {
    apps.iter().find(|entry| entry.0 == app).map_or(0, |entry| entry.1 as usize)
}

/// The count of `app` in one node's sorted `(app, pods)` list, entered at
/// zero if the app is new to the node.
fn app_slot(apps: &mut Vec<(u32, u32)>, app: u32) -> &mut u32 {
    let k = apps.binary_search_by_key(&app, |entry| entry.0).unwrap_or_else(|k| {
        apps.insert(k, (app, 0));
        k
    });
    &mut apps[k].1
}

/// The index's one pod-table read, of a pod in a node's bound set: `None`,
/// counted in `stale`, for an id the table does not know.
fn bound_pod<'c>(cluster: &'c ClusterState, id: PodId, stale: &mut u64) -> Option<&'c Pod> {
    #[cfg(test)]
    tests::POD_READS.with(|reads| reads.set(reads.get() + 1));
    let pod = cluster.pod(id).ok();
    if pod.is_none() {
        *stale += 1;
    }
    debug_assert!(pod.is_none_or(|pod| pod.phase.holds_resources()));
    pod
}

/// App id and request bits: equal keys give bit-equal scorer inputs.
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
    /// Leaf capacity of every tree (`n.next_power_of_two()`).
    cap: usize,
    /// Shadow free capacity per node (cluster truth ± this cycle's
    /// tentative placements and claims).
    free: Vec<ResourceVec>,
    ready: Vec<bool>,
    /// Per-node `(app, tentative pod count)`, sorted by app (spread
    /// scoring input). A node holds a dozen pods, so a scan of this list
    /// beats hashing the key.
    app_pods: Vec<Vec<(u32, u32)>>,
    /// Per-node bound-resource census, sorted by priority ascending.
    /// Current only where `leaf` is below [`Leaf::Census`]: read it
    /// after [`settle`](Self::settle).
    census: Vec<Vec<(i32, ResourceVec)>>,
    /// Sum over all census entries per node (preempt-tree key input).
    census_total: Vec<ResourceVec>,
    /// Preempt tree maxima, 1-based heap layout in `[1, 2·cap)`; leaves
    /// at `cap+i`. Current only after a [`settle`](Self::settle).
    preempt_keys: Vec<ResourceVec>,
    /// Preempt tree minima, same layout (whole-subtree emission).
    preempt_floor: Vec<ResourceVec>,
    /// Per node, how far its census and leaf are behind.
    leaf: Vec<Leaf>,
    /// The nodes whose `leaf` is not [`Leaf::Current`], each once.
    stale: Vec<u32>,
    node_versions_seen: Vec<u64>,
    /// Per node, the [`ClusterState::bound_set_version`] its app counts
    /// were derived at.
    bound_sets_seen: Vec<u64>,
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
    /// Tree positions of the preempt-tree leaves a
    /// [`settle`](Self::settle) wrote; their root paths are repaired
    /// together when it ends. Empty between settles.
    dirty: Vec<usize>,
    /// Nodes whose shadow changed, oldest first; entry `k` happened at
    /// clock `changes_base + k`. Only the newest `n` entries are ever
    /// replayed, so the log is cut back to that whenever it doubles.
    changes: Vec<u32>,
    changes_base: u64,
    /// Scratch for a replay: the log holds a node once per mutation, a
    /// replay evaluates it once. All false between replays.
    replayed: Vec<bool>,
    caches: Vec<ClassCache>,
    /// Lookup counter stamping [`ClassCache::used`].
    cache_uses: u64,
    /// The profile whose scorers filled the caches; `None` before the
    /// first sync.
    scored_by: Option<SchedulerProfile>,
}

impl FeasibilityIndex {
    /// An empty index; the first `sync` performs a full
    /// rebuild.
    #[must_use]
    pub fn new() -> Self {
        FeasibilityIndex::default()
    }

    /// Brings the mirrors up to date with `cluster` and resets the
    /// per-cycle counters. Cost is O(changed nodes) after the first call,
    /// and a node whose bound set kept its pods costs no pod-table read:
    /// its census is left stale for the next [`settle`](Self::settle).
    /// `profile` is the calling framework's; when it differs from the
    /// previous cycle's, cached scores mean something else and are
    /// dropped.
    pub(crate) fn sync(&mut self, cluster: &ClusterState, profile: SchedulerProfile) {
        self.stale_lookups = 0;
        self.probes = 0;
        if self.scored_by != Some(profile) {
            self.caches.clear();
            self.scored_by = Some(profile);
        }
        let n = cluster.nodes().len();
        if !self.synced || n != self.n || cluster.version() < self.global_version_seen {
            self.rebuild(cluster);
            return;
        }
        // Tentative placements edited a tainted node's app counts, so
        // they are counted afresh whatever the bound set did.
        let tainted = std::mem::take(&mut self.tainted);
        for &i in &tainted {
            self.taint_flag[i as usize] = false;
            self.refresh_node(cluster, i as usize, true);
        }
        self.tainted = tainted;
        self.tainted.clear();
        if cluster.version() != self.global_version_seen {
            for i in 0..n {
                if cluster.node_version(i) != self.node_versions_seen[i] {
                    let moved = cluster.bound_set_version(i) != self.bound_sets_seen[i];
                    self.refresh_node(cluster, i, moved);
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
        self.app_pods = vec![Vec::new(); n];
        self.census = vec![Vec::new(); n];
        self.census_total = vec![ResourceVec::ZERO; n];
        self.preempt_keys = vec![NEG; 2 * self.cap];
        self.preempt_floor = vec![NEG; 2 * self.cap];
        self.leaf = vec![Leaf::Current; n];
        self.stale.clear();
        self.node_versions_seen = vec![0; n];
        self.bound_sets_seen = vec![0; n];
        self.taint_flag = vec![false; n];
        self.replayed = vec![false; n];
        self.tainted.clear();
        for i in 0..n {
            self.refresh_node(cluster, i, true);
        }
        self.caches.clear();
        self.changes.clear();
        self.global_version_seen = cluster.version();
        self.synced = true;
    }

    /// Refreshes one node's mirrors from cluster truth: free vector and
    /// readiness from the `Node`, the app counts from its bound set when
    /// `recount` (the set changed, or tentative placements edited them),
    /// and the census not at all: it is marked stale for
    /// [`settle`](Self::settle).
    fn refresh_node(&mut self, cluster: &ClusterState, i: usize, recount: bool) {
        let node = &cluster.nodes()[i];
        self.free[i] = node.free();
        self.ready[i] = node.is_ready();
        self.node_versions_seen[i] = cluster.node_version(i);
        if recount {
            self.count_apps(cluster, i);
        }
        self.mark(i, Leaf::Census);
        self.log_change(i);
    }

    /// Re-derives node `i`'s app counts in one pass over its bound-pod
    /// set, not the full pod table (the table keeps terminal pods and
    /// grows with simulation length). A node holds a dozen pods over a few
    /// apps, so the list is gathered unsorted and sorted once.
    fn count_apps(&mut self, cluster: &ClusterState, i: usize) {
        self.bound_sets_seen[i] = cluster.bound_set_version(i);
        let apps = &mut self.app_pods[i];
        apps.clear();
        for pod_id in cluster.nodes()[i].pods() {
            let Some(pod) = bound_pod(cluster, *pod_id, &mut self.stale_lookups) else {
                continue;
            };
            let app = pod.app().raw();
            match apps.iter_mut().find(|entry| entry.0 == app) {
                Some(entry) => entry.1 += 1,
                None => apps.push((app, 1)),
            }
        }
        apps.sort_unstable_by_key(|entry| entry.0);
    }

    /// Re-derives node `i`'s census and its total in one pass over the
    /// bound-pod set; every per-priority sum adds in pod order.
    fn take_census(&mut self, cluster: &ClusterState, i: usize) {
        let census = &mut self.census[i];
        census.clear();
        let mut total = ResourceVec::ZERO;
        for pod_id in cluster.nodes()[i].pods() {
            let Some(pod) = bound_pod(cluster, *pod_id, &mut self.stale_lookups) else {
                continue;
            };
            let (priority, request) = (pod.spec.priority, pod.spec.request);
            match census.iter_mut().find(|entry| entry.0 == priority) {
                Some(entry) => entry.1 += request,
                None => census.push((priority, request)),
            }
            total += request;
        }
        census.sort_unstable_by_key(|entry| entry.0);
        self.census_total[i] = total;
    }

    /// Records that node `i`'s leaf is at least `how` far behind.
    fn mark(&mut self, i: usize, how: Leaf) {
        if self.leaf[i] == Leaf::Current {
            self.stale.push(i as u32);
        }
        self.leaf[i] = self.leaf[i].max(how);
    }

    /// Brings every stale node's census and preempt-tree leaf up to date —
    /// the census re-derived from `cluster` where a sync left it stale,
    /// the key recomputed from the current shadow — and repairs their
    /// root paths in one batch. Every reader of the census or the tree
    /// calls it first; with nothing stale it returns at once. The cluster
    /// must be the one the last [`sync`](Self::sync) read: a node's bound
    /// pods are then what they were there.
    fn settle(&mut self, cluster: &ClusterState) {
        if self.stale.is_empty() {
            return;
        }
        let stale = std::mem::take(&mut self.stale);
        for &i in &stale {
            let i = i as usize;
            if self.leaf[i] == Leaf::Census {
                self.take_census(cluster, i);
            }
            self.leaf[i] = Leaf::Current;
            let (s, key) = (self.cap + i, self.preempt_key(i));
            self.preempt_keys[s] = key;
            self.preempt_floor[s] = key;
            self.dirty.push(s);
        }
        self.stale = stale;
        self.stale.clear();
        repair(&mut self.preempt_keys, &mut self.preempt_floor, &mut self.dirty);
    }

    /// Node `i`'s preempt-tree key: everything it could free, or [`NEG`]
    /// when it is unready.
    fn preempt_key(&self, i: usize) -> ResourceVec {
        if self.ready[i] {
            self.free[i] + self.census_total[i] + ResourceVec::splat(PRUNE_MARGIN)
        } else {
            NEG
        }
    }

    /// After an in-cycle mutation of node `i`'s shadow: marks its
    /// preempt-tree key stale and logs the node as changed.
    fn touch(&mut self, i: usize) {
        self.mark(i, Leaf::Key);
        self.log_change(i);
    }

    /// Appends node `i` to the change log. Every mutation of a node's
    /// shadow ends here, which is what makes the log complete.
    fn log_change(&mut self, i: usize) {
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
        app_count(&self.app_pods[i], app)
    }

    /// Commits a tentative placement into the shadow.
    pub(crate) fn place(&mut self, i: usize, spec: &PodSpec) {
        self.free[i] -= spec.request;
        *app_slot(&mut self.app_pods[i], spec.kind.app().raw()) += 1;
        self.touch(i);
        self.taint(i);
    }

    /// Rolls a tentative placement back out of the shadow.
    pub(crate) fn release(&mut self, i: usize, spec: &PodSpec) {
        self.free[i] += spec.request;
        let count = app_slot(&mut self.app_pods[i], spec.kind.app().raw());
        *count = count.saturating_sub(1);
        self.touch(i);
        self.taint(i);
    }

    /// Accounts a claimed preemption victim: its capacity frees up in
    /// the shadow and leaves the bound census.
    pub(crate) fn claim_victim(
        &mut self,
        cluster: &ClusterState,
        i: usize,
        app: u32,
        priority: i32,
        req: &ResourceVec,
    ) {
        self.settle(cluster);
        self.free[i] += *req;
        let count = app_slot(&mut self.app_pods[i], app);
        *count = count.saturating_sub(1);
        if let Ok(k) = self.census[i].binary_search_by_key(&priority, |(p, _)| *p) {
            self.census[i][k].1 -= *req;
        }
        self.census_total[i] -= *req;
        self.touch(i);
        self.taint(i);
    }

    /// Reverses [`claim_victim`](Self::claim_victim) (gang rollback).
    pub(crate) fn unclaim_victim(
        &mut self,
        cluster: &ClusterState,
        i: usize,
        app: u32,
        priority: i32,
        req: &ResourceVec,
    ) {
        self.settle(cluster);
        self.free[i] -= *req;
        *app_slot(&mut self.app_pods[i], app) += 1;
        match self.census[i].binary_search_by_key(&priority, |(p, _)| *p) {
            Ok(k) => self.census[i][k].1 += *req,
            Err(k) => self.census[i].insert(k, (priority, *req)),
        }
        self.census_total[i] += *req;
        self.touch(i);
        self.taint(i);
    }

    /// Fills [`candidates`](Self::candidates) with a superset of the
    /// nodes where evicting bound pods could make `request` fit,
    /// ascending. Exactness comes from the caller's per-node victim scan.
    pub(crate) fn enumerate_preempt(&mut self, cluster: &ClusterState, request: &ResourceVec) {
        self.settle(cluster);
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

    /// The node list produced by the last
    /// [`enumerate_preempt`](Self::enumerate_preempt).
    pub(crate) fn candidates(&self) -> &[usize] {
        &self.candidates
    }

    /// The node the naive scan would pick for `class`, with the counts a
    /// decision trace reports. Verdicts come from the class's cache;
    /// `score(node, shadow free, app pods on node)` runs only for nodes
    /// that fit and whose inputs changed since they were last scored.
    pub(crate) fn choose(
        &mut self,
        class: &PodClass,
        mut score: impl FnMut(usize, ResourceVec, usize) -> f64,
    ) -> Choice {
        let slot = self.cache_slot(class);
        self.cache_uses += 1;
        let (n, cap, app) = (self.n, self.cap, class.app.raw());
        let clock = self.changes_base + self.changes.len() as u64;
        let cache = &mut self.caches[slot];
        cache.used = self.cache_uses;
        let mut verdict_of = |i: usize| {
            if node_fits(self.ready[i], &class.request, &self.free[i]) {
                Verdict::Score(score(i, self.free[i], app_count(&self.app_pods[i], app)))
            } else {
                Verdict::Rejected
            }
        };
        // Truncation keeps the newest `n` log entries, so a cache fewer
        // than `n` behind finds every change it missed; one further
        // behind has next to nothing left worth keeping.
        let best = if cache.verdicts.len() != n || clock - cache.seen >= n as u64 {
            cache.refill(n, verdict_of)
        } else {
            if cache.tree.is_empty() {
                cache.build(cap);
            }
            let missed = &self.changes[(cache.seen - self.changes_base) as usize..];
            for &i in missed {
                if !std::mem::replace(&mut self.replayed[i as usize], true) {
                    cache.set(cap, i as usize, verdict_of(i as usize));
                }
            }
            for &i in missed {
                self.replayed[i as usize] = false;
            }
            cache.walk(n, cap, &mut self.probes)
        };
        cache.seen = clock;
        Choice { best, feasible: n as u32 - cache.rejected, rejected: cache.rejected }
    }

    /// Finds (or creates, evicting the least recently used) the cache
    /// for `class`. Returns its slot.
    fn cache_slot(&mut self, class: &PodClass) -> usize {
        let key = class_key(class);
        if let Some(slot) = self.caches.iter().position(|c| c.key == key) {
            return slot;
        }
        let slot = if self.caches.len() < SCORE_CLASSES {
            self.caches.push(ClassCache::default());
            self.caches.len() - 1
        } else {
            let lru = self.caches.iter().enumerate().min_by_key(|(_, c)| c.used);
            lru.expect("SCORE_CLASSES > 0").0
        };
        self.caches[slot].key = key;
        // An empty verdict table is refilled as a whole.
        self.caches[slot].verdicts.clear();
        slot
    }

    /// Whether evicting every bound pod of priority strictly below
    /// `priority` could possibly free room for `request` on node `i`
    /// (superset check; the margin absorbs incremental float drift).
    pub(crate) fn census_could_free(
        &mut self,
        cluster: &ClusterState,
        i: usize,
        priority: i32,
        request: &ResourceVec,
    ) -> bool {
        self.settle(cluster);
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

    /// Tree-node visits — preempt tree and score trees — since the last
    /// sync.
    pub(crate) fn probes(&self) -> u64 {
        self.probes
    }

    /// Node count the index currently mirrors.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.n
    }

    /// Pod classes with a live score cache.
    #[cfg(test)]
    pub(crate) fn cached_classes(&self) -> usize {
        self.caches.len()
    }
}

/// Recomputes the max/min aggregates above the leaves at tree positions
/// `dirty`, one level at a time: a level's positions, sorted, halve to
/// the next level's parents in ascending order, so each parent is
/// recomputed once, after both of its children are final. The trees end
/// as bit-identical to a per-leaf root-path update, since max and min are
/// exact (the tests hold it to that). Leaves `dirty` empty.
fn repair(maxes: &mut [ResourceVec], mins: &mut [ResourceVec], dirty: &mut Vec<usize>) {
    dirty.sort_unstable();
    // Every position is on one level, so the root is the last one left.
    while dirty.first().is_some_and(|&s| s > 1) {
        let mut parents = 0;
        for k in 0..dirty.len() {
            let s = dirty[k] >> 1;
            if parents == 0 || dirty[parents - 1] != s {
                maxes[s] = maxes[2 * s].max(&maxes[2 * s + 1]);
                mins[s] = mins[2 * s].min(&mins[2 * s + 1]);
                dirty[parents] = s;
                parents += 1;
            }
        }
        dirty.truncate(parents);
    }
    dirty.clear();
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
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;
    use std::cell::Cell;

    thread_local! {
        /// Pod-table reads by the index ([`bound_pod`]) on this thread;
        /// each test runs on a thread of its own.
        pub(super) static POD_READS: Cell<u64> = const { Cell::new(0) };
    }

    fn pod_reads() -> u64 {
        POD_READS.with(Cell::get)
    }

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

    /// A stand-in for a profile's scoring: pure in its arguments and
    /// distinct per node.
    fn evaluate(i: usize, free: ResourceVec, app_pods: usize) -> f64 {
        (free.total() + 1e4 * app_pods as f64 + i as f64) / 1e5
    }

    /// Any one profile: the index only compares it.
    const PROFILE: SchedulerProfile = SchedulerProfile::Evolve;

    fn class(app: u32, request: f64) -> PodClass {
        PodClass { app: AppId::new(app), request: ResourceVec::splat(request) }
    }

    /// What the sequential scan makes of a verdict table: the fold's
    /// winner, the feasible count and the rejection tally.
    fn scan(verdicts: &[Verdict]) -> (Option<(f64, usize)>, u32, u32) {
        let (mut best, mut feasible, mut rejected) = (None, 0, 0);
        for (i, verdict) in verdicts.iter().enumerate() {
            match *verdict {
                Verdict::Score(score) => {
                    feasible += 1;
                    fold_best(&mut best, score, i);
                }
                Verdict::Rejected => rejected += 1,
            }
        }
        (best, feasible, rejected)
    }

    /// Asserts a cache is exactly what evaluating `expected` from scratch
    /// gives: table, tallies and — once built — leaves and every internal
    /// maximum.
    fn assert_cache_holds(cache: &ClassCache, cap: usize, expected: &[Verdict]) {
        assert_eq!(cache.verdicts, expected);
        assert_eq!(cache.rejected, scan(expected).2);
        if cache.tree.is_empty() {
            return; // refilled, not asked about again yet
        }
        for i in 0..cap {
            let key = match expected.get(i) {
                Some(Verdict::Score(score)) => *score,
                _ => f64::NEG_INFINITY,
            };
            assert_eq!(cache.tree[cap + i], key, "leaf {i}");
        }
        for s in 1..cap {
            assert_eq!(cache.tree[s], cache.tree[2 * s].max(cache.tree[2 * s + 1]), "node {s}");
        }
    }

    /// Every node's verdict for `class`, by the linear scan.
    fn naive_verdicts(idx: &FeasibilityIndex, class: &PodClass) -> Vec<Verdict> {
        (0..idx.len())
            .map(|i| {
                if node_fits(idx.ready[i], &class.request, &idx.free(i)) {
                    Verdict::Score(evaluate(i, idx.free(i), idx.app_count(i, class.app.raw())))
                } else {
                    Verdict::Rejected
                }
            })
            .collect()
    }

    /// Runs the cached choice for `class`, asserts winner, counts and the
    /// cache's whole state against the linear scan, and returns how many
    /// nodes it had to re-evaluate.
    fn check_cached_pass(idx: &mut FeasibilityIndex, class: &PodClass) -> usize {
        let expected = naive_verdicts(idx, class);
        let (best, feasible, rejected) = scan(&expected);
        let mut evaluated = 0;
        let choice = idx.choose(class, |i, free, app_pods| {
            evaluated += 1;
            evaluate(i, free, app_pods)
        });
        assert_eq!((choice.best, choice.feasible, choice.rejected), (best, feasible, rejected));
        let key = class_key(class);
        let cache = idx.caches.iter().find(|c| c.key == key).expect("class was just used");
        assert_cache_holds(cache, idx.cap, &expected);
        evaluated
    }

    #[test]
    fn fit_enumeration_matches_linear_scan() {
        let mut c = cluster(13); // odd count exercises tree padding
        for i in 0..13u32 {
            bind(&mut c, i % 3, (f64::from(i) + 1.0) * 70.0, 10, i);
        }
        c.set_node_ready(NodeId::new(5), false).unwrap();
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c, PROFILE);
        // Cold, then warm after a placement: the class table's `Rejected`
        // set is the linear scan's, for every request.
        for req in [0.0, 100.0, 400.0, 900.0, 950.0, 2000.0] {
            let class = class(7, req);
            for _ in 0..2 {
                check_cached_pass(&mut idx, &class);
                let fits: Vec<usize> = (0..13)
                    .filter(|&i| idx.ready[i] && class.request.fits_within(&idx.free(i)))
                    .collect();
                let table =
                    &idx.caches.iter().find(|c| c.key == class_key(&class)).unwrap().verdicts;
                let held: Vec<usize> = (0..13).filter(|&i| table[i] != Verdict::Rejected).collect();
                assert_eq!(held, fits, "request {req}");
                idx.place(9, &spec(7, 10.0, 50));
            }
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
        carried.sync(&c, PROFILE);
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
        carried.sync(&c, PROFILE);
        let mut fresh = FeasibilityIndex::new();
        fresh.sync(&c, PROFILE);
        assert_eq!(carried.free, fresh.free);
        assert_eq!(carried.ready, fresh.ready);
        assert_eq!(carried.app_pods, fresh.app_pods);
        assert_same_census(&mut carried, &mut fresh, &c, "");
    }

    /// Lets a census reader of each index re-derive what its syncs left
    /// stale, then asserts census, totals, both trees and what they
    /// enumerate are equal, bit for bit.
    fn assert_same_census(
        carried: &mut FeasibilityIndex,
        fresh: &mut FeasibilityIndex,
        c: &ClusterState,
        at: &str,
    ) {
        for idx in [&mut *carried, &mut *fresh] {
            idx.enumerate_preempt(c, &ResourceVec::splat(100.0));
            assert!(idx.stale.is_empty() && idx.dirty.is_empty(), "{at}");
            assert!(idx.leaf.iter().all(|&leaf| leaf == Leaf::Current), "{at}");
        }
        assert_eq!(carried.candidates(), fresh.candidates(), "{at}");
        assert_eq!(carried.census, fresh.census, "{at}");
        assert_eq!(carried.census_total, fresh.census_total, "{at}");
        // Both against the pod table, read in id order as a node lists
        // its pods, so every sum adds in the same order.
        let n = c.nodes().len();
        let (mut census, mut totals) = (vec![Vec::new(); n], vec![ResourceVec::ZERO; n]);
        for pod in c.pods().filter(|pod| pod.phase.holds_resources()) {
            let (i, priority) = (pod.node.expect("bound").as_usize(), pod.spec.priority);
            match census[i].iter_mut().find(|entry: &&mut (i32, ResourceVec)| entry.0 == priority) {
                Some(entry) => entry.1 += pod.spec.request,
                None => census[i].push((priority, pod.spec.request)),
            }
            totals[i] += pod.spec.request;
        }
        for list in &mut census {
            list.sort_unstable_by_key(|entry| entry.0);
        }
        assert_eq!(carried.census, census, "{at}");
        assert_eq!(carried.census_total, totals, "{at}");
        assert_eq!(tree_bits(&carried.preempt_keys), tree_bits(&fresh.preempt_keys), "{at}");
        assert_eq!(tree_bits(&carried.preempt_floor), tree_bits(&fresh.preempt_floor), "{at}");
    }

    /// Every node changes between syncs — each pod resized, some nodes
    /// also tainted by tentative placements — so every leaf is rewritten
    /// and every root path repaired in one batch; the carried index must
    /// still be a fresh one, field by field.
    #[test]
    fn incremental_sync_matches_rebuild_when_every_node_changes() {
        let mut c = cluster(11);
        let mut pods = Vec::new();
        for i in 0..22u32 {
            let spec = spec(i % 4, 20.0 + f64::from(i), 10 * (i % 3) as i32);
            let id = c.create_pod(spec.with_limit(ResourceVec::splat(400.0)), SimTime::ZERO);
            c.bind_pod(id, NodeId::new(i % 11)).unwrap();
            pods.push(id);
        }
        let mut carried = FeasibilityIndex::new();
        carried.sync(&c, PROFILE);
        for round in 0..4u32 {
            for (k, &pod) in pods.iter().enumerate() {
                let request = 30.0 + f64::from(round) * 7.5 + k as f64 * 0.25;
                c.resize_pod(pod, ResourceVec::splat(request)).unwrap();
            }
            for i in (round as usize..11).step_by(3) {
                carried.place(i, &spec(9, 5.0, 50));
            }
            carried.sync(&c, PROFILE);
            assert!(carried.dirty.is_empty());
            let mut fresh = FeasibilityIndex::new();
            fresh.sync(&c, PROFILE);
            assert_eq!(carried.free, fresh.free, "round {round}");
            assert_eq!(carried.app_pods, fresh.app_pods, "round {round}");
            // Even rounds leave the census unread, so the next sync finds
            // those nodes stale already.
            if round % 2 == 1 {
                assert_same_census(&mut carried, &mut fresh, &c, &format!("round {round}"));
            }
        }
    }

    /// Syncs after resizes alone read no pod: the free vectors refresh,
    /// the app counts stay, and the census waits, stale, for the first
    /// census reader, which reads each bound pod once. A bind reads the
    /// app counts of its node only; a tainted node's are read again too.
    #[test]
    fn resize_only_syncs_leave_the_census_to_its_first_reader() {
        let mut c = cluster(6);
        let mut pods = Vec::new();
        for i in 0..18u32 {
            let spec = spec(i % 3, 20.0 + f64::from(i), 10 * (i % 2) as i32);
            let id = c.create_pod(spec.with_limit(ResourceVec::splat(400.0)), SimTime::ZERO);
            c.bind_pod(id, NodeId::new(i % 6)).unwrap();
            pods.push(id);
        }
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c, PROFILE);
        let before = pod_reads();
        idx.census_could_free(&c, 0, 5, &ResourceVec::splat(1.0));
        assert_eq!(pod_reads() - before, 18, "a rebuild leaves the census to its first reader");
        for round in 0..3u32 {
            for (k, &pod) in pods.iter().enumerate() {
                let request = 30.0 + f64::from(round) * 5.0 + k as f64 * 0.5;
                c.resize_pod(pod, ResourceVec::splat(request)).unwrap();
            }
            let (census, apps, before) = (idx.census.clone(), idx.app_pods.clone(), pod_reads());
            idx.sync(&c, PROFILE);
            check_cached_pass(&mut idx, &class(0, 50.0));
            assert_eq!(pod_reads(), before, "round {round}: sync and choice read no pod");
            assert_eq!((&idx.census, &idx.app_pods), (&census, &apps), "round {round}");
            assert!(idx.leaf.iter().all(|&leaf| leaf == Leaf::Census), "round {round}");
            assert_eq!(idx.stale.len(), 6, "round {round}: each node listed once");
            let mut fresh = FeasibilityIndex::new();
            fresh.sync(&c, PROFILE);
            assert_eq!(idx.free, fresh.free, "round {round}");
            assert_eq!(idx.app_pods, fresh.app_pods, "round {round}");
            let before = pod_reads();
            assert!(idx.census_could_free(&c, 2, 5, &ResourceVec::splat(1.0)));
            assert_eq!(pod_reads() - before, 18, "round {round}: one read per bound pod");
            idx.census_could_free(&c, 3, 5, &ResourceVec::splat(1.0));
            assert_eq!(pod_reads() - before, 18, "round {round}: and only once");
            assert_same_census(&mut idx, &mut fresh, &c, &format!("round {round}"));
        }
        // A bind moves node 2's bound set, so its four pods are read for
        // the app counts; a placement taints node 4, whose three are read
        // again at the next sync although its bound set stayed.
        bind(&mut c, 1, 10.0, 0, 2);
        idx.place(4, &spec(2, 10.0, 0));
        let before = pod_reads();
        idx.sync(&c, PROFILE);
        assert_eq!(pod_reads() - before, 4 + 3);
        let mut fresh = FeasibilityIndex::new();
        fresh.sync(&c, PROFILE);
        assert_eq!(idx.app_pods, fresh.app_pods);
        assert_same_census(&mut idx, &mut fresh, &c, "after the bind");
    }

    /// Writes `key` at leaf `i` and recomputes the max/min aggregates on
    /// its root path: the per-leaf update [`repair`] batches.
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

    /// A preempt-tree key from a drawn `(tag, value)`: tag 0 is an unready
    /// node's [`NEG`], the rest differ per dimension.
    fn drawn_key((tag, value): (u8, u32)) -> ResourceVec {
        if tag == 0 {
            return NEG;
        }
        let v = f64::from(value);
        ResourceVec::new(v, 1000.0 - v, f64::from(tag) * 0.1, v * 1e-3 + f64::from(tag))
    }

    fn tree_bits(tree: &[ResourceVec]) -> Vec<[u64; 4]> {
        tree.iter().map(|key| key.as_array().map(f64::to_bits)).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig {
            cases: 256,
            ..proptest::test_runner::ProptestConfig::default()
        })]

        /// Leaves written and then repaired together give both trees bit
        /// for bit what a `set_leaf` per write gives: any node count from
        /// one up, powers of two or not, unready leaves among them, and
        /// leaves written more than once.
        #[test]
        fn batched_repair_matches_set_leaf_per_leaf(
            n in 1usize..70,
            initial in proptest::collection::vec((0u8..6, 0u32..1_000), 70..71),
            writes in proptest::collection::vec((0usize..70, 0u8..6, 0u32..1_000), 0..120),
        ) {
            let cap = n.next_power_of_two();
            let (mut maxes, mut mins) = (vec![NEG; 2 * cap], vec![NEG; 2 * cap]);
            for (i, &drawn) in initial.iter().take(n).enumerate() {
                set_leaf(&mut maxes, &mut mins, cap, i, drawn_key(drawn));
            }
            let (mut batched_maxes, mut batched_mins) = (maxes.clone(), mins.clone());
            let mut dirty = Vec::new();
            for &(i, tag, value) in &writes {
                let (i, key) = (i % n, drawn_key((tag, value)));
                set_leaf(&mut maxes, &mut mins, cap, i, key);
                batched_maxes[cap + i] = key;
                batched_mins[cap + i] = key;
                dirty.push(cap + i);
            }
            repair(&mut batched_maxes, &mut batched_mins, &mut dirty);
            proptest::prop_assert!(dirty.is_empty());
            proptest::prop_assert_eq!(tree_bits(&batched_maxes), tree_bits(&maxes));
            proptest::prop_assert_eq!(tree_bits(&batched_mins), tree_bits(&mins));
        }
    }

    #[test]
    fn all_feasible_cluster_enumerates_in_constant_probes() {
        // 64 identical empty nodes, every score tied: the first record is
        // leaf 0 (the root, then the leaf) and one more read of the root
        // shows that nothing beats it.
        let c = cluster(64);
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c, PROFILE);
        let tied = |_, _, _| 0.5;
        assert_eq!(idx.choose(&class(0, 100.0), tied).best, Some((0.5, 0)));
        assert_eq!(idx.probes(), 0, "a cold class folds while it fills");
        let choice = idx.choose(&class(0, 100.0), tied);
        assert_eq!((choice.best, choice.feasible), (Some((0.5, 0)), 64));
        assert_eq!(idx.probes(), 3);
        // A cluster where nothing fits is answered by the root alone.
        assert_eq!(idx.choose(&class(0, 2000.0), tied).best, None);
        let choice = idx.choose(&class(0, 2000.0), tied);
        assert_eq!((choice.best, choice.feasible, choice.rejected), (None, 0, 64));
        assert_eq!(idx.probes(), 4);
    }

    #[test]
    fn tentative_ops_are_reconciled_at_next_sync() {
        let mut c = cluster(4);
        bind(&mut c, 0, 500.0, 10, 0);
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c, PROFILE);
        // A tentative placement the driver then *fails* to apply: no
        // cluster version moves, but the taint list must restore truth.
        let tentative = spec(1, 200.0, 50);
        idx.place(2, &tentative);
        assert_eq!(idx.free(2), ResourceVec::splat(750.0));
        idx.sync(&c, PROFILE);
        assert_eq!(idx.free(2), ResourceVec::splat(950.0));
        assert_eq!(idx.app_count(2, 1), 0);
    }

    #[test]
    fn claim_and_unclaim_round_trip_census() {
        let mut c = cluster(2);
        bind(&mut c, 0, 600.0, 10, 0);
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c, PROFILE);
        let req = ResourceVec::splat(600.0);
        assert!(idx.census_could_free(&c, 0, 50, &ResourceVec::splat(900.0)));
        assert!(!idx.census_could_free(&c, 0, 10, &ResourceVec::splat(900.0)), "no lower priority");
        idx.claim_victim(&c, 0, 0, 10, &req);
        assert_eq!(idx.free(0), ResourceVec::splat(950.0));
        assert!(!idx.census_could_free(&c, 0, 50, &ResourceVec::splat(951.0)));
        idx.unclaim_victim(&c, 0, 0, 10, &req);
        assert_eq!(idx.free(0), ResourceVec::splat(350.0));
        assert!(idx.census_could_free(&c, 0, 50, &ResourceVec::splat(900.0)));
    }

    #[test]
    fn log_replay_matches_full_evaluation() {
        let mut c = cluster(16);
        for i in 0..16u32 {
            bind(&mut c, i % 2, 100.0, 10, i);
        }
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c, PROFILE);
        let a = class(0, 50.0);
        assert_eq!(
            check_cached_pass(&mut idx, &a),
            16,
            "cold cache evaluates every node that fits"
        );
        assert_eq!(check_cached_pass(&mut idx, &a), 0, "nothing changed");
        // Every shadow mutation, some hitting the same node twice.
        let pod = spec(0, 50.0, 50);
        idx.place(3, &pod);
        idx.place(3, &pod);
        idx.place(5, &pod);
        idx.release(5, &pod);
        let req = ResourceVec::splat(100.0);
        idx.claim_victim(&c, 8, 0, 10, &req);
        idx.claim_victim(&c, 10, 0, 10, &req);
        idx.unclaim_victim(&c, 10, 0, 10, &req);
        assert_eq!(check_cached_pass(&mut idx, &a), 4, "nodes 3, 5, 8, 10, once each");
        // Cluster-side changes arrive through sync, together with the
        // refresh of the four tainted nodes.
        bind(&mut c, 0, 70.0, 10, 12);
        c.set_node_ready(NodeId::new(14), false).unwrap();
        idx.sync(&c, PROFILE);
        assert_eq!(check_cached_pass(&mut idx, &a), 5, "3, 5, 8, 10, 12; 14 does not fit");
        c.set_node_ready(NodeId::new(14), true).unwrap();
        idx.sync(&c, PROFILE);
        assert_eq!(check_cached_pass(&mut idx, &a), 1, "node 14 came back empty");
    }

    #[test]
    fn truncated_log_resets_the_cache() {
        let mut c = cluster(4);
        bind(&mut c, 0, 100.0, 10, 0);
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c, PROFILE);
        let (a, b) = (class(0, 50.0), class(1, 50.0));
        assert_eq!(check_cached_pass(&mut idx, &a), 4);
        assert_eq!(check_cached_pass(&mut idx, &b), 4);
        // 3 changes < n: replayed. All touch node 1 only.
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

    /// A rebuild drops every cache, and so does a sync for another
    /// profile; the same profile keeps them.
    #[test]
    fn rebuilds_and_foreign_plugin_sets_drop_every_cache() {
        let mut c = cluster(4);
        bind(&mut c, 0, 100.0, 10, 0);
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c, PROFILE);
        let a = class(0, 50.0);
        check_cached_pass(&mut idx, &a);
        assert_eq!(idx.caches.len(), 1);
        idx.sync(&c, PROFILE);
        assert_eq!(idx.caches.len(), 1, "same profile, same cluster");
        idx.sync(&cluster(4), PROFILE);
        assert!(idx.caches.is_empty(), "an older cluster version rebuilds");
        assert_eq!(check_cached_pass(&mut idx, &a), 4);
        idx.sync(&cluster(5), PROFILE);
        assert!(idx.caches.is_empty(), "node count changed");
        assert_eq!(check_cached_pass(&mut idx, &a), 5);
        idx.sync(&cluster(5), SchedulerProfile::Binpack);
        assert!(idx.caches.is_empty(), "another profile's scores");
    }

    #[test]
    fn evicted_class_comes_back_correct() {
        let mut c = cluster(6);
        bind(&mut c, 0, 100.0, 10, 2);
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c, PROFILE);
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
        idx.sync(&c, PROFILE);
        // Node 0 would win every tie; unready, it is never the winner —
        // not cold, not warm, and not while it is logged as changed.
        let tied = |_, _, _| 0.5;
        let zero = PodClass { app: AppId::new(0), request: ResourceVec::ZERO };
        for _ in 0..3 {
            let choice = idx.choose(&zero, tied);
            assert_eq!((choice.best, choice.feasible, choice.rejected), (Some((0.5, 1)), 2, 1));
            idx.touch(0);
        }
        idx.enumerate_preempt(&c, &ResourceVec::ZERO);
        assert_eq!(idx.candidates(), &[1, 2]);
        // Back up, it wins from the same cache; down again, it is gone.
        c.set_node_ready(NodeId::new(0), true).unwrap();
        idx.sync(&c, PROFILE);
        assert_eq!(idx.choose(&zero, tied).best, Some((0.5, 0)));
        c.set_node_ready(NodeId::new(0), false).unwrap();
        idx.sync(&c, PROFILE);
        assert_eq!(idx.choose(&zero, tied).best, Some((0.5, 1)));
    }

    #[test]
    fn single_node_tree_works() {
        let c = cluster(1);
        let mut idx = FeasibilityIndex::new();
        idx.sync(&c, PROFILE);
        for _ in 0..2 {
            assert_eq!(check_cached_pass(&mut idx, &class(0, 900.0)), 1);
            idx.touch(0);
        }
        assert!(matches!(idx.choose(&class(0, 900.0), evaluate).best, Some((_, 0))));
        for _ in 0..2 {
            assert_eq!(check_cached_pass(&mut idx, &class(0, 951.0)), 0);
            assert_eq!(idx.choose(&class(0, 951.0), evaluate).best, None);
        }
    }

    fn below(rng: &mut ChaCha8Rng, n: usize) -> usize {
        rng.gen::<u64>() as usize % n
    }

    /// Leaf-array shapes the walk must fold like `fold_best` does. `k`
    /// selects the shape; rejected leaves stand for unready nodes, nodes
    /// that do not fit and filtered ones.
    fn leaf_array(shape: usize, n: usize, rng: &mut ChaCha8Rng) -> Vec<Verdict> {
        let only = below(rng, n);
        (0..n)
            .map(|i| {
                let score = match shape {
                    // Anything goes.
                    0 => below(rng, 1 << 20) as f64 / f64::from(1 << 20),
                    // Runs of exact ties over three levels.
                    1 => [0.25, 0.5, 0.75][below(rng, 3)],
                    // Near-ties 4e-13 apart: two steps stay inside the
                    // tolerance, three are just outside it.
                    2 => 0.5 + below(rng, 8) as f64 * 4e-13,
                    // An ascending ladder: every node is a record.
                    3 => (i + 1) as f64 / (n + 1) as f64,
                    // A descending one: only the first is.
                    4 => (n - i) as f64 / (n + 1) as f64,
                    // One feasible leaf.
                    5 if i == only => 0.5,
                    // All `-inf`.
                    _ => return Verdict::Rejected,
                };
                if shape < 5 && below(rng, 4) == 0 {
                    Verdict::Rejected
                } else {
                    Verdict::Score(score)
                }
            })
            .collect()
    }

    #[test]
    fn record_walk_returns_what_the_sequential_fold_returns() {
        let mut rng = ChaCha8Rng::seed_from_u64(19);
        for n in [1usize, 2, 13, 64, 1_000] {
            let cap = n.next_power_of_two();
            for shape in 0..7 {
                let mut verdicts = leaf_array(shape, n, &mut rng);
                let mut cache = ClassCache::default();
                let filled = cache.refill(n, |i| verdicts[i]);
                assert_eq!(filled, scan(&verdicts).0, "refill, n {n} shape {shape}");
                cache.build(cap);
                assert_cache_holds(&cache, cap, &verdicts);
                // Then rewrite leaves one at a time, drawing from every
                // shape, and walk after each.
                for step in 0..n.min(64) {
                    let mut probes = 0;
                    let walked = cache.walk(n, cap, &mut probes);
                    assert_eq!(walked, scan(&verdicts).0, "n {n} shape {shape} step {step}");
                    let i = below(&mut rng, n);
                    verdicts[i] = leaf_array(below(&mut rng, 7), n, &mut rng)[i];
                    cache.set(cap, i, verdicts[i]);
                }
                assert_cache_holds(&cache, cap, &verdicts);
            }
        }
    }

    #[test]
    fn a_score_ladder_is_walked_within_the_bound() {
        // Scores rising with the node index make every node a record:
        // followed to the end, 1 000 descents of ≈ 20 reads each. The
        // walk gives up on the tree once the chain is longer than the
        // tree is high and reads the remaining leaves once.
        let (n, cap) = (1_000usize, 1_024usize);
        let height = u64::from(cap.trailing_zeros());
        let ladder: Vec<Verdict> = (0..n).map(|i| Verdict::Score(i as f64 / n as f64)).collect();
        let mut cache = ClassCache::default();
        cache.refill(n, |i| ladder[i]);
        cache.build(cap);
        let mut probes = 0;
        assert_eq!(cache.walk(n, cap, &mut probes), Some((0.999, 999)));
        assert!(probes <= (height + 1) * (2 * height + 2) + n as u64, "{probes} probes");
        // A ladder no longer than the height never leaves the tree.
        let short: Vec<Verdict> =
            (0..n).map(|i| Verdict::Score((i * 10 / n) as f64 / 10.0)).collect();
        cache.refill(n, |i| short[i]);
        cache.build(cap);
        let mut probes = 0;
        assert_eq!(cache.walk(n, cap, &mut probes), Some((0.9, 900)));
        assert!(probes <= 11 * (2 * height + 2), "{probes} probes");
    }
}
