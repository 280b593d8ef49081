//! Pod specifications and lifecycle.

use evolve_types::{AppId, JobId, NodeId, PodId, ResourceVec, SimTime};

/// What kind of workload a pod carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PodKind {
    /// One replica of a latency-critical service.
    ServiceReplica {
        /// Owning application.
        app: AppId,
    },
    /// One task of a big-data batch stage.
    BatchTask {
        /// Owning application (the job's manager identity).
        app: AppId,
        /// The job instance.
        job: JobId,
        /// Stage index within the job.
        stage: u32,
        /// Task index within the stage.
        task: u32,
    },
    /// One rank of a gang-scheduled HPC job.
    HpcRank {
        /// Owning application (the job's manager identity).
        app: AppId,
        /// The job instance.
        job: JobId,
        /// Rank index within the gang.
        rank: u32,
    },
}

impl PodKind {
    /// The owning application id.
    #[must_use]
    pub fn app(&self) -> AppId {
        match self {
            PodKind::ServiceReplica { app }
            | PodKind::BatchTask { app, .. }
            | PodKind::HpcRank { app, .. } => *app,
        }
    }
}

/// Desired state of a pod.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PodSpec {
    /// Workload kind and ownership.
    pub kind: PodKind,
    /// Resource request (the reservation the scheduler packs by).
    pub request: ResourceVec,
    /// Resource limit (vertical resizes may not exceed this).
    pub limit: ResourceVec,
    /// Scheduling priority; higher values may preempt lower ones.
    pub priority: i32,
}

impl PodSpec {
    /// Creates a spec with `limit` defaulting to four times the request.
    ///
    /// # Panics
    ///
    /// Panics when the request is invalid or zero.
    #[must_use]
    pub fn new(kind: PodKind, request: ResourceVec, priority: i32) -> Self {
        assert!(request.is_valid() && !request.is_zero(), "request must be valid and non-zero");
        PodSpec { kind, request, limit: request * 4.0, priority }
    }

    /// Overrides the limit.
    ///
    /// # Panics
    ///
    /// Panics when the request does not fit within `limit`.
    #[must_use]
    pub fn with_limit(mut self, limit: ResourceVec) -> Self {
        assert!(self.request.fits_within(&limit), "request must fit within limit");
        self.limit = limit;
        self
    }
}

/// Observed lifecycle phase of a pod.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodPhase {
    /// Created, waiting for a scheduling decision.
    Pending,
    /// Bound to a node, container starting up.
    Starting,
    /// Running and serving work.
    Running,
    /// Completed successfully (jobs only).
    Succeeded,
    /// Terminated with an error (OOM kill, node failure, preemption).
    Failed(&'static str),
}

impl PodPhase {
    /// `true` while the pod still occupies node resources.
    #[must_use]
    pub fn holds_resources(&self) -> bool {
        matches!(self, PodPhase::Starting | PodPhase::Running)
    }

    /// `true` once the pod reached a terminal phase.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        matches!(self, PodPhase::Succeeded | PodPhase::Failed(_))
    }
}

/// A pod instance tracked by the cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Pod {
    /// Unique id.
    pub id: PodId,
    /// Desired state.
    pub spec: PodSpec,
    /// Node the pod is bound to, if any.
    pub node: Option<NodeId>,
    /// Lifecycle phase.
    pub phase: PodPhase,
    /// When the pod object was created.
    pub created: SimTime,
    /// When the pod became `Running`, if it has.
    pub started: Option<SimTime>,
}

impl Pod {
    /// Creates a pending pod.
    #[must_use]
    pub fn new(id: PodId, spec: PodSpec, created: SimTime) -> Self {
        Pod { id, spec, node: None, phase: PodPhase::Pending, created, started: None }
    }

    /// The owning application.
    #[must_use]
    pub fn app(&self) -> AppId {
        self.spec.kind.app()
    }

    /// `true` when the pod is awaiting scheduling.
    #[must_use]
    pub fn is_pending(&self) -> bool {
        self.phase == PodPhase::Pending
    }

    /// `true` when the pod is serving work.
    #[must_use]
    pub fn is_running(&self) -> bool {
        self.phase == PodPhase::Running
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PodSpec {
        PodSpec::new(PodKind::ServiceReplica { app: AppId::new(1) }, ResourceVec::splat(100.0), 0)
    }

    #[test]
    fn default_limit_is_4x_request() {
        let s = spec();
        assert_eq!(s.limit, ResourceVec::splat(400.0));
    }

    #[test]
    fn with_limit_validates() {
        let s = spec().with_limit(ResourceVec::splat(150.0));
        assert_eq!(s.limit, ResourceVec::splat(150.0));
    }

    #[test]
    #[should_panic(expected = "request must fit within limit")]
    fn limit_below_request_rejected() {
        let _ = spec().with_limit(ResourceVec::splat(50.0));
    }

    #[test]
    fn pod_kind_ownership() {
        let app = AppId::new(3);
        let kinds = [
            PodKind::ServiceReplica { app },
            PodKind::BatchTask { app, job: JobId::new(1), stage: 0, task: 2 },
            PodKind::HpcRank { app, job: JobId::new(2), rank: 5 },
        ];
        for k in kinds {
            assert_eq!(k.app(), app);
        }
    }

    #[test]
    fn phase_predicates() {
        assert!(!PodPhase::Pending.holds_resources());
        assert!(PodPhase::Starting.holds_resources());
        assert!(PodPhase::Running.holds_resources());
        assert!(!PodPhase::Succeeded.holds_resources());
        assert!(PodPhase::Succeeded.is_terminal());
        assert!(PodPhase::Failed("oom").is_terminal());
        assert!(!PodPhase::Running.is_terminal());
    }

    #[test]
    fn new_pod_is_pending() {
        let p = Pod::new(PodId::new(1), spec(), SimTime::from_secs(2));
        assert!(p.is_pending());
        assert!(!p.is_running());
        assert_eq!(p.app(), AppId::new(1));
        assert_eq!(p.node, None);
    }
}
