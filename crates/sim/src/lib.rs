//! Discrete-event Kubernetes-like cluster simulator.
//!
//! This crate is the substitution for the paper's real Kubernetes cluster
//! (see DESIGN.md): it reproduces the API surface and the dynamics a
//! resource manager interacts with, so the EVOLVE controllers and
//! schedulers exercise the same code paths they would against a live
//! cluster.
//!
//! * [`Node`], [`Pod`], [`ClusterState`] — nodes with multi-resource
//!   capacities, pods with requests/limits, binding/eviction/vertical
//!   resize with strict accounting invariants.
//! * [`ReplicaServer`] — the performance model: a replica executes its
//!   in-flight requests under multi-resource processor sharing; latency is
//!   governed by the bottleneck dimension, memory overcommit causes
//!   thrashing and ultimately OOM kills.
//! * [`Simulation`] — the event engine: open-loop request arrival per
//!   service, dispatching, batch stage orchestration, HPC gang execution,
//!   pod start latency, metric scraping windows and fault injection.
//!
//! # Examples
//!
//! ```
//! use evolve_sim::{ClusterConfig, Simulation, SimulationConfig};
//! use evolve_workload::ScenarioSpec;
//!
//! let scenario = ScenarioSpec::builtin("single_diurnal").unwrap().build();
//! let mut sim = Simulation::new(
//!     SimulationConfig::default(),
//!     ClusterConfig::uniform(4, Default::default()),
//!     &scenario.mix,
//!     42,
//! );
//! // Nothing is scheduled yet: all pods are pending.
//! assert!(sim.cluster().pending_pods().count() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
mod cluster;
mod engine;
mod faults;
mod heap;
mod node;
mod observe;
mod perf;
mod pod;

pub use chaos::{ArbitrationCheck, ChaosOracle, OracleReport, OracleViolation};
pub use cluster::{ClusterConfig, ClusterState, NodeShape};
pub use engine::{Simulation, SimulationConfig};
pub use faults::{FaultEvent, FaultInjector, FaultKind};
pub use node::Node;
pub use observe::{AppKind, AppStatus, AppWindow, ClusterSnapshot, JobOutcome};
pub use perf::{DrainOutcome, PerfConfig, ReplicaServer};
pub use pod::{Pod, PodKind, PodPhase, PodSpec};
