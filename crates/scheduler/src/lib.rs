//! The scheduler of the EVOLVE platform.
//!
//! Mirrors the Kubernetes scheduler the paper extends: pending pods go
//! through a **filter** (the node is ready and the request fits), the
//! feasible nodes are **scored**, the highest scoring node wins, and the
//! binding is handed to the cluster. A [`SchedulerProfile`] is data — a
//! name, a fixed list of weighted scorers and a preemption flag — and the
//! repo runs three of them: `kube-default`, `evolve` (the same scorers
//! plus preemption) and `binpack`. On top of the stock scheduler this
//! crate adds what converged Big-Data/HPC/Cloud scheduling needs:
//!
//! * **priority scheduling with preemption** — latency-critical service
//!   pods may evict batch tasks when the cluster is full;
//! * **gang (all-or-nothing) scheduling** — an HPC job's ranks are placed
//!   together or not at all, with lower-priority work backfilled around a
//!   blocked gang;
//! * shadow accounting so one scheduling cycle makes mutually consistent
//!   decisions before anything is committed.
//!
//! # Examples
//!
//! ```
//! use evolve_scheduler::SchedulerFramework;
//! use evolve_sim::{ClusterConfig, ClusterState, NodeShape, PodKind, PodSpec};
//! use evolve_types::{AppId, ResourceVec, SimTime};
//!
//! let mut cluster = ClusterState::new(&ClusterConfig::uniform(2, NodeShape::default()));
//! let pod = cluster.create_pod(
//!     PodSpec::new(
//!         PodKind::ServiceReplica { app: AppId::new(0) },
//!         ResourceVec::new(1000.0, 1024.0, 10.0, 10.0),
//!         100,
//!     ),
//!     SimTime::ZERO,
//! );
//! let scheduler = SchedulerFramework::kube_default();
//! let plan = scheduler.schedule_cycle(&cluster);
//! assert_eq!(plan.bindings.len(), 1);
//! assert_eq!(plan.bindings[0].0, pod);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod framework;
mod index;
mod plugins;

pub use framework::{RequeueBackoff, SchedulePlan, SchedulerFramework};
pub use index::FeasibilityIndex;
pub use plugins::SchedulerProfile;
