//! Filter and score plugins.
//!
//! Plugins see a [`NodeView`]: the node plus *shadow* state reflecting the
//! decisions already taken in the current scheduling cycle. Scores are
//! normalized to `[0, 1]`; the framework combines them by weight.

use evolve_sim::{Node, PodSpec};
use evolve_types::{AppId, Resource, ResourceVec};

/// Everything a plugin may read from the pod being placed: the owning
/// application and the resource request. The feasibility index keys its
/// score caches by exactly these fields, so a plugin cannot depend on
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
    /// `request`.
    fn allocated_share_with(&self, request: &ResourceVec) -> ResourceVec {
        let allocatable = self.node.allocatable();
        (allocatable - self.free + *request).ratio(&allocatable)
    }
}

/// Feasibility check: can this pod run on this node?
///
/// **Purity contract** (shared with [`ScorePlugin`]): the result must be
/// a pure function of the plugin's own configuration and the two
/// arguments. The feasibility index caches verdicts per [`PodClass`] and
/// re-evaluates a node only after its [`NodeView`] inputs changed.
pub trait FilterPlugin: Send + Sync {
    /// Plugin name for diagnostics.
    fn name(&self) -> &'static str;
    /// `true` when the node can host the pod.
    fn feasible(&self, pod: &PodClass, view: &NodeView<'_>) -> bool;
    /// `true` when this filter is *exactly* "the node is ready and the
    /// request fits within shadow free capacity" — the predicate the
    /// feasibility index evaluates itself. The framework only routes a
    /// cycle through the index when its leading filter certifies this;
    /// any other filter must keep the default `false`.
    fn prunes_capacity_fit(&self) -> bool {
        false
    }
}

/// Preference score in `[0, 1]`; higher is better. Bound by the same
/// purity contract as [`FilterPlugin`].
pub trait ScorePlugin: Send + Sync {
    /// Plugin name for diagnostics.
    fn name(&self) -> &'static str;
    /// Scores the node for the pod.
    fn score(&self, pod: &PodClass, view: &NodeView<'_>) -> f64;
}

/// Filter: node is ready and has room for the pod's request
/// (the `NodeResourcesFit` plugin).
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeFits;

impl FilterPlugin for NodeFits {
    fn name(&self) -> &'static str {
        "node-fits"
    }
    fn feasible(&self, pod: &PodClass, view: &NodeView<'_>) -> bool {
        view.node.is_ready() && pod.request.fits_within(&view.free)
    }
    fn prunes_capacity_fit(&self) -> bool {
        true
    }
}

/// Score: prefer the emptiest node (spreading, the Kubernetes
/// `LeastAllocated` strategy) — leaves headroom for vertical scaling.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastAllocated;

impl ScorePlugin for LeastAllocated {
    fn name(&self) -> &'static str {
        "least-allocated"
    }
    fn score(&self, pod: &PodClass, view: &NodeView<'_>) -> f64 {
        let share = view.allocated_share_with(&pod.request);
        let mean = Resource::ALL.iter().map(|r| share[*r].clamp(0.0, 1.0)).sum::<f64>() / 4.0;
        1.0 - mean
    }
}

/// Score: prefer the fullest node (bin packing, `MostAllocated`) —
/// consolidates load to free whole nodes.
#[derive(Debug, Clone, Copy, Default)]
pub struct MostAllocated;

impl ScorePlugin for MostAllocated {
    fn name(&self) -> &'static str {
        "most-allocated"
    }
    fn score(&self, pod: &PodClass, view: &NodeView<'_>) -> f64 {
        let share = view.allocated_share_with(&pod.request);
        Resource::ALL.iter().map(|r| share[*r].clamp(0.0, 1.0)).sum::<f64>() / 4.0
    }
}

/// Score: prefer nodes where the post-placement allocation is *balanced*
/// across the four resources (`NodeResourcesBalancedAllocation`) — avoids
/// stranding one dimension.
#[derive(Debug, Clone, Copy, Default)]
pub struct BalancedAllocation;

impl ScorePlugin for BalancedAllocation {
    fn name(&self) -> &'static str {
        "balanced-allocation"
    }
    fn score(&self, pod: &PodClass, view: &NodeView<'_>) -> f64 {
        let share = view.allocated_share_with(&pod.request);
        let shares = Resource::ALL.map(|r| share[r].clamp(0.0, 1.0));
        let mean = shares.iter().sum::<f64>() / shares.len() as f64;
        let var = shares.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / shares.len() as f64;
        // Std-dev of shares is at most 0.5 in [0,1]; normalize.
        1.0 - (var.sqrt() * 2.0).min(1.0)
    }
}

/// Score: spread replicas of the same application across nodes
/// (topology-spread light) — a node failure then costs one replica, not
/// all of them.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpreadApp;

impl ScorePlugin for SpreadApp {
    fn name(&self) -> &'static str {
        "spread-app"
    }
    fn score(&self, _pod: &PodClass, view: &NodeView<'_>) -> f64 {
        1.0 / (1.0 + view.app_pods as f64)
    }
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

    #[test]
    fn node_fits_checks_shadow_free() {
        let n = node(1000.0);
        let p = pod(100.0);
        assert!(NodeFits.feasible(&p, &view(&n, 100.0, 0)));
        assert!(!NodeFits.feasible(&p, &view(&n, 99.0, 0)));
    }

    #[test]
    fn least_allocated_prefers_empty() {
        let n = node(1000.0);
        let p = pod(10.0);
        let empty = LeastAllocated.score(&p, &view(&n, 950.0, 0));
        let full = LeastAllocated.score(&p, &view(&n, 100.0, 0));
        assert!(empty > full);
    }

    #[test]
    fn most_allocated_prefers_full() {
        let n = node(1000.0);
        let p = pod(10.0);
        let empty = MostAllocated.score(&p, &view(&n, 950.0, 0));
        let full = MostAllocated.score(&p, &view(&n, 100.0, 0));
        assert!(full > empty);
    }

    #[test]
    fn least_and_most_are_complementary() {
        let n = node(1000.0);
        let p = pod(50.0);
        let v = view(&n, 400.0, 0);
        let sum = LeastAllocated.score(&p, &v) + MostAllocated.score(&p, &v);
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn balanced_allocation_penalizes_skew() {
        let n = node(1000.0);
        let p = pod(1.0);
        // Balanced: all dimensions equally free.
        let balanced = BalancedAllocation.score(&p, &view(&n, 400.0, 0));
        // Skewed: CPU nearly exhausted, others empty.
        let skew_view =
            NodeView { node: &n, free: ResourceVec::new(10.0, 950.0, 950.0, 950.0), app_pods: 0 };
        let skewed = BalancedAllocation.score(&p, &skew_view);
        assert!(balanced > skewed, "balanced {balanced} skewed {skewed}");
    }

    #[test]
    fn spread_app_prefers_fresh_nodes() {
        let n = node(1000.0);
        let p = pod(1.0);
        assert!(
            SpreadApp.score(&p, &view(&n, 900.0, 0)) > SpreadApp.score(&p, &view(&n, 900.0, 3))
        );
    }

    #[test]
    fn scores_are_in_unit_interval() {
        let n = node(1000.0);
        let p = pod(500.0);
        for free in [0.0, 100.0, 500.0, 950.0] {
            for plugin in [
                &LeastAllocated as &dyn ScorePlugin,
                &MostAllocated,
                &BalancedAllocation,
                &SpreadApp,
            ] {
                let s = plugin.score(&p, &view(&n, free, 1));
                assert!((0.0..=1.0).contains(&s), "{} gave {s}", plugin.name());
            }
        }
    }
}
