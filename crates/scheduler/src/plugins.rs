//! Scheduler profiles and the score plugins they weigh.
//!
//! A profile is data: a name, a fixed list of `(Scorer, weight)` pairs and
//! a preemption flag. Every profile has the same one filter — the node is
//! ready and the request fits its shadow free capacity — which the
//! feasibility index evaluates itself. Scorers see a [`NodeView`]: the
//! node plus *shadow* state reflecting the decisions already taken in the
//! current scheduling cycle. Scores are normalized to `[0, 1]`; the
//! profile combines them by weight.

use evolve_sim::{Node, PodSpec};
use evolve_telemetry::trace::MAX_SCORERS;
use evolve_types::{AppId, Resource, ResourceVec};

/// Everything a scorer may read from the pod being placed: the owning
/// application and the resource request. The feasibility index keys its
/// score caches by exactly these fields, so a scorer cannot depend on
/// something the key omits.
#[derive(Debug, Clone, Copy)]
pub struct PodClass {
    /// Owning application.
    pub app: AppId,
    /// Resource request.
    pub request: ResourceVec,
}

impl From<&PodSpec> for PodClass {
    fn from(spec: &PodSpec) -> Self {
        PodClass { app: spec.kind.app(), request: spec.request }
    }
}

/// A node as seen mid-cycle: real state plus shadow adjustments.
#[derive(Debug, Clone, Copy)]
pub struct NodeView<'a> {
    /// The underlying node.
    pub node: &'a Node,
    /// Free capacity after this cycle's tentative placements/preemptions.
    pub free: ResourceVec,
    /// Pods of the candidate pod's application already on the node
    /// (including tentative ones).
    pub app_pods: usize,
}

impl NodeView<'_> {
    /// Shadow-allocated share per resource after hypothetically placing
    /// `request`, each clamped to `[0, 1]`.
    fn shares_with(&self, request: &ResourceVec) -> [f64; 4] {
        let allocatable = self.node.allocatable();
        let share = (allocatable - self.free + *request).ratio(&allocatable);
        Resource::ALL.map(|r| share[r].clamp(0.0, 1.0))
    }
}

/// Mean of the four resource shares.
fn mean(shares: &[f64; 4]) -> f64 {
    shares.iter().sum::<f64>() / 4.0
}

/// The one filter: the node is ready and `request` fits its shadow free
/// capacity. The naive scan asks it of each node, the feasibility index
/// of its mirrors.
pub(crate) fn node_fits(ready: bool, request: &ResourceVec, free: &ResourceVec) -> bool {
    ready && request.fits_within(free)
}

/// A score plugin: a preference in `[0, 1]`, higher is better.
///
/// **Purity contract:** a score is a pure function of the [`PodClass`]
/// and the [`NodeView`]. The feasibility index caches scores per class
/// and profile and re-scores a node only after its view changed.
///
/// Every profile has a scorer that reads the node's post-placement
/// shares, so [`SchedulerProfile::score`] computes them (and their mean)
/// once per node and hands them to each scorer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Scorer {
    /// Prefer the emptiest node (spreading, the Kubernetes
    /// `LeastAllocated` strategy) — leaves headroom for vertical scaling.
    LeastAllocated,
    /// Prefer the fullest node (bin packing, `MostAllocated`) —
    /// consolidates load to free whole nodes.
    MostAllocated,
    /// Prefer nodes where the post-placement allocation is *balanced*
    /// across the four resources (`NodeResourcesBalancedAllocation`) —
    /// avoids stranding one dimension.
    BalancedAllocation,
    /// Spread replicas of the same application across nodes
    /// (topology-spread light) — a node failure then costs one replica,
    /// not all of them.
    SpreadApp,
}

impl Scorer {
    /// Plugin name for decision traces.
    pub(crate) const fn name(self) -> &'static str {
        match self {
            Scorer::LeastAllocated => "least-allocated",
            Scorer::MostAllocated => "most-allocated",
            Scorer::BalancedAllocation => "balanced-allocation",
            Scorer::SpreadApp => "spread-app",
        }
    }

    /// Scores the node for the pod, given the node's shares after
    /// placing the pod ([`NodeView::shares_with`]) and their [`mean`].
    pub(crate) fn score(self, shares: &[f64; 4], mean: f64, view: &NodeView<'_>) -> f64 {
        match self {
            Scorer::LeastAllocated => 1.0 - mean,
            Scorer::MostAllocated => mean,
            Scorer::BalancedAllocation => {
                let var = shares.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / 4.0;
                // Std-dev of shares is at most 0.5 in [0,1]; normalize.
                1.0 - (var.sqrt() * 2.0).min(1.0)
            }
            Scorer::SpreadApp => 1.0 / (1.0 + view.app_pods as f64),
        }
    }
}

/// Which scheduler profile binds pods: a name, weighted scorers and
/// whether priority preemption is on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerProfile {
    /// Stock filter/score profile without preemption.
    KubeDefault,
    /// Stock profile plus priority preemption (EVOLVE's extension).
    Evolve,
    /// Bin-packing consolidation profile.
    Binpack,
}

impl SchedulerProfile {
    /// The profile name, as reports print it.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SchedulerProfile::KubeDefault => "kube-default",
            SchedulerProfile::Evolve => "evolve",
            SchedulerProfile::Binpack => "binpack",
        }
    }

    /// The weighted scorers, in the order their contributions are summed.
    pub(crate) fn scorers(self) -> &'static [(Scorer, f64)] {
        match self {
            SchedulerProfile::KubeDefault | SchedulerProfile::Evolve => &SPREADING,
            SchedulerProfile::Binpack => &BINPACK,
        }
    }

    /// The names of [`SchedulerProfile::scorers`], in the same order: what
    /// a decision trace labels the contributions with.
    pub(crate) fn scorer_names(self) -> &'static [&'static str] {
        match self {
            SchedulerProfile::KubeDefault | SchedulerProfile::Evolve => &SPREADING_NAMES,
            SchedulerProfile::Binpack => &BINPACK_NAMES,
        }
    }

    /// Whether a pod that fits nowhere may evict lower-priority pods.
    pub(crate) fn preempts(self) -> bool {
        self == SchedulerProfile::Evolve
    }

    /// Weighted mean of the scorers for one feasible node: the node's
    /// shares computed once, contributions summed in list order, then
    /// divided by the weight sum. Both placement paths call it, so their
    /// float-operation sequence is identical. Scorer `i`'s weighted share
    /// is written to `contributions[i]`, if given.
    pub(crate) fn score(
        self,
        class: &PodClass,
        view: &NodeView<'_>,
        mut contributions: Option<&mut [f64; MAX_SCORERS]>,
    ) -> f64 {
        let shares = view.shares_with(&class.request);
        let mean = mean(&shares);
        let mut score = 0.0;
        let mut weight = 0.0;
        for (i, &(scorer, w)) in self.scorers().iter().enumerate() {
            let contribution = scorer.score(&shares, mean, view) * w;
            score += contribution;
            weight += w;
            if let Some(c) = contributions.as_deref_mut() {
                c[i] = contribution;
            }
        }
        score / weight
    }
}

/// The spreading profiles' scorers (`kube-default` and `evolve`).
const SPREADING: [(Scorer, f64); 3] =
    [(Scorer::LeastAllocated, 1.0), (Scorer::BalancedAllocation, 1.0), (Scorer::SpreadApp, 0.5)];
/// The bin-packing profile's scorers.
const BINPACK: [(Scorer, f64); 2] =
    [(Scorer::MostAllocated, 1.0), (Scorer::BalancedAllocation, 0.5)];
const SPREADING_NAMES: [&str; 3] = names(&SPREADING);
const BINPACK_NAMES: [&str; 2] = names(&BINPACK);
const _: () = assert!(SPREADING.len() <= MAX_SCORERS && BINPACK.len() <= MAX_SCORERS);

/// The names of a scorer list, built at compile time from the list itself.
const fn names<const N: usize>(scorers: &[(Scorer, f64); N]) -> [&'static str; N] {
    let mut out = [""; N];
    let mut i = 0;
    while i < N {
        out[i] = scorers[i].0.name();
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use evolve_types::NodeId;

    fn node(capacity: f64) -> Node {
        Node::new(NodeId::new(0), ResourceVec::splat(capacity))
    }

    fn pod(request: f64) -> PodClass {
        PodClass { app: AppId::new(0), request: ResourceVec::splat(request) }
    }

    fn view(node: &Node, free: f64, app_pods: usize) -> NodeView<'_> {
        NodeView { node, free: ResourceVec::splat(free), app_pods }
    }

    impl Scorer {
        /// The scorer on its own, each computing the node's shares itself,
        /// as every scorer did before the profile shared them.
        fn alone(self, pod: &PodClass, view: &NodeView<'_>) -> f64 {
            match self {
                Scorer::LeastAllocated => 1.0 - mean(&view.shares_with(&pod.request)),
                Scorer::MostAllocated => mean(&view.shares_with(&pod.request)),
                Scorer::BalancedAllocation => {
                    let shares = view.shares_with(&pod.request);
                    let mean = mean(&shares);
                    let var = shares.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / 4.0;
                    1.0 - (var.sqrt() * 2.0).min(1.0)
                }
                Scorer::SpreadApp => 1.0 / (1.0 + view.app_pods as f64),
            }
        }
    }

    /// A profile's score with the shares computed once is, bit for bit,
    /// the weighted mean of its scorers each computing them alone: the
    /// total and every contribution, over skewed, full, over-full and
    /// empty views and requests of every size.
    #[test]
    fn shared_shares_score_like_each_scorer_alone() {
        let n = Node::new(NodeId::new(0), ResourceVec::new(1000.0, 4096.0, 200.0, 100.0));
        let frees = [
            ResourceVec::new(950.0, 3891.2, 190.0, 95.0),
            ResourceVec::new(10.0, 3000.0, 0.0, 95.0),
            ResourceVec::new(333.3, 1234.5, 66.6, 0.1),
            ResourceVec::new(-5.0, 5000.0, 12.25, 47.0),
            ResourceVec::ZERO,
        ];
        let requests = [
            ResourceVec::new(0.1, 0.1, 0.1, 0.1),
            ResourceVec::new(250.0, 512.0, 5.0, 10.0),
            ResourceVec::new(700.0, 64.0, 150.0, 1.0),
            ResourceVec::new(2000.0, 9000.0, 400.0, 300.0),
        ];
        for profile in
            [SchedulerProfile::KubeDefault, SchedulerProfile::Evolve, SchedulerProfile::Binpack]
        {
            for free in frees {
                for request in requests {
                    for app_pods in [0, 1, 7] {
                        let class = PodClass { app: AppId::new(3), request };
                        let view = NodeView { node: &n, free, app_pods };
                        let mut got = [0.0; MAX_SCORERS];
                        let score = profile.score(&class, &view, Some(&mut got));
                        let (mut want, mut total, mut weight) = ([0.0; MAX_SCORERS], 0.0, 0.0);
                        for (i, &(scorer, w)) in profile.scorers().iter().enumerate() {
                            want[i] = scorer.alone(&class, &view) * w;
                            total += want[i];
                            weight += w;
                        }
                        let bits = |c: [f64; MAX_SCORERS]| c.map(f64::to_bits);
                        assert_eq!(bits(got), bits(want), "{profile:?} {free} {request}");
                        assert_eq!(score.to_bits(), (total / weight).to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn node_fits_checks_shadow_free() {
        let n = node(1000.0);
        let p = pod(100.0);
        assert!(node_fits(n.is_ready(), &p.request, &ResourceVec::splat(100.0)));
        assert!(!node_fits(n.is_ready(), &p.request, &ResourceVec::splat(99.0)));
        assert!(!node_fits(false, &p.request, &ResourceVec::splat(100.0)));
    }

    #[test]
    fn least_allocated_prefers_empty() {
        let n = node(1000.0);
        let p = pod(10.0);
        let empty = Scorer::LeastAllocated.alone(&p, &view(&n, 950.0, 0));
        let full = Scorer::LeastAllocated.alone(&p, &view(&n, 100.0, 0));
        assert!(empty > full);
    }

    #[test]
    fn most_allocated_prefers_full() {
        let n = node(1000.0);
        let p = pod(10.0);
        let empty = Scorer::MostAllocated.alone(&p, &view(&n, 950.0, 0));
        let full = Scorer::MostAllocated.alone(&p, &view(&n, 100.0, 0));
        assert!(full > empty);
    }

    #[test]
    fn least_and_most_are_complementary() {
        let n = node(1000.0);
        let p = pod(50.0);
        let v = view(&n, 400.0, 0);
        let sum = Scorer::LeastAllocated.alone(&p, &v) + Scorer::MostAllocated.alone(&p, &v);
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn balanced_allocation_penalizes_skew() {
        let n = node(1000.0);
        let p = pod(1.0);
        // Balanced: all dimensions equally free.
        let balanced = Scorer::BalancedAllocation.alone(&p, &view(&n, 400.0, 0));
        // Skewed: CPU nearly exhausted, others empty.
        let skew_view =
            NodeView { node: &n, free: ResourceVec::new(10.0, 950.0, 950.0, 950.0), app_pods: 0 };
        let skewed = Scorer::BalancedAllocation.alone(&p, &skew_view);
        assert!(balanced > skewed, "balanced {balanced} skewed {skewed}");
    }

    #[test]
    fn spread_app_prefers_fresh_nodes() {
        let n = node(1000.0);
        let p = pod(1.0);
        assert!(
            Scorer::SpreadApp.alone(&p, &view(&n, 900.0, 0))
                > Scorer::SpreadApp.alone(&p, &view(&n, 900.0, 3))
        );
    }

    #[test]
    fn scores_are_in_unit_interval() {
        let n = node(1000.0);
        let p = pod(500.0);
        for free in [0.0, 100.0, 500.0, 950.0] {
            for plugin in [
                Scorer::LeastAllocated,
                Scorer::MostAllocated,
                Scorer::BalancedAllocation,
                Scorer::SpreadApp,
            ] {
                let s = plugin.alone(&p, &view(&n, free, 1));
                assert!((0.0..=1.0).contains(&s), "{} gave {s}", plugin.name());
            }
        }
    }
}
