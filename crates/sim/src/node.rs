//! Cluster nodes.

use evolve_types::{NodeId, PodId, ResourceVec};

/// A worker node with multi-resource capacity and request accounting.
///
/// Invariant: the sum of bound pod requests never exceeds
/// [`Node::allocatable`]; all mutation goes through
/// [`crate::ClusterState`], which maintains the invariant.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    id: NodeId,
    capacity: ResourceVec,
    allocatable: ResourceVec,
    allocated: ResourceVec,
    /// The bound pods, ascending: a node holds a few dozen at most, so a
    /// sorted vector that keeps its allocation beats a tree that allocates
    /// a node per bind.
    pods: Vec<PodId>,
    ready: bool,
}

impl Node {
    /// Creates a ready node. `allocatable` is capacity minus a 5% system
    /// reserve, mirroring kubelet's reserved resources.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is invalid or zero.
    #[must_use]
    pub fn new(id: NodeId, capacity: ResourceVec) -> Self {
        assert!(capacity.is_valid() && !capacity.is_zero(), "capacity must be valid, non-zero");
        Node {
            id,
            capacity,
            allocatable: capacity * 0.95,
            allocated: ResourceVec::ZERO,
            pods: Vec::new(),
            ready: true,
        }
    }

    /// The node id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Raw hardware capacity.
    #[must_use]
    pub fn capacity(&self) -> ResourceVec {
        self.capacity
    }

    /// Capacity available to pods (after the system reserve).
    #[must_use]
    pub fn allocatable(&self) -> ResourceVec {
        self.allocatable
    }

    /// Sum of bound pod requests.
    #[must_use]
    pub fn allocated(&self) -> ResourceVec {
        self.allocated
    }

    /// Unreserved headroom.
    #[must_use]
    pub fn free(&self) -> ResourceVec {
        self.allocatable - self.allocated
    }

    /// `true` when `request` fits in the free headroom of a ready node.
    #[must_use]
    pub fn can_fit(&self, request: &ResourceVec) -> bool {
        self.ready && request.fits_within(&self.free())
    }

    /// Pods currently bound here, in ascending id order.
    #[must_use]
    pub fn pods(&self) -> &[PodId] {
        &self.pods
    }

    /// Whether the node accepts placements (false after a failure).
    #[must_use]
    pub fn is_ready(&self) -> bool {
        self.ready
    }

    pub(crate) fn set_ready(&mut self, ready: bool) {
        self.ready = ready;
    }

    pub(crate) fn bind(&mut self, pod: PodId, request: ResourceVec) {
        debug_assert!(self.can_fit(&request), "bind without capacity check");
        self.allocated += request;
        if let Err(at) = self.pods.binary_search(&pod) {
            self.pods.insert(at, pod);
        }
    }

    pub(crate) fn unbind(&mut self, pod: PodId, request: ResourceVec) {
        let found = self.pods.binary_search(&pod);
        debug_assert!(found.is_ok(), "unbinding foreign pod");
        self.allocated -= request;
        if let Ok(at) = found {
            self.pods.remove(at);
        }
    }

    pub(crate) fn adjust(&mut self, old_request: ResourceVec, new_request: ResourceVec) {
        self.allocated = (self.allocated - old_request) + new_request;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        Node::new(NodeId::new(0), ResourceVec::splat(1000.0))
    }

    #[test]
    fn allocatable_reserves_five_percent() {
        let n = node();
        assert_eq!(n.allocatable(), ResourceVec::splat(950.0));
        assert_eq!(n.free(), ResourceVec::splat(950.0));
    }

    #[test]
    fn bind_and_unbind_account() {
        let mut n = node();
        n.bind(PodId::new(1), ResourceVec::splat(400.0));
        assert_eq!(n.free(), ResourceVec::splat(550.0));
        assert!(n.pods().contains(&PodId::new(1)));
        n.unbind(PodId::new(1), ResourceVec::splat(400.0));
        assert_eq!(n.free(), ResourceVec::splat(950.0));
        assert!(n.pods().is_empty());
    }

    #[test]
    fn can_fit_respects_free_space() {
        let mut n = node();
        assert!(n.can_fit(&ResourceVec::splat(950.0)));
        assert!(!n.can_fit(&ResourceVec::splat(951.0)));
        n.bind(PodId::new(1), ResourceVec::splat(900.0));
        assert!(n.can_fit(&ResourceVec::splat(50.0)));
        assert!(!n.can_fit(&ResourceVec::splat(51.0)));
    }

    #[test]
    fn not_ready_node_rejects_fit() {
        let mut n = node();
        n.set_ready(false);
        assert!(!n.can_fit(&ResourceVec::splat(1.0)));
        assert!(!n.is_ready());
    }

    #[test]
    fn adjust_moves_allocation() {
        let mut n = node();
        n.bind(PodId::new(1), ResourceVec::splat(100.0));
        n.adjust(ResourceVec::splat(100.0), ResourceVec::splat(250.0));
        assert_eq!(n.allocated(), ResourceVec::splat(250.0));
    }
}
