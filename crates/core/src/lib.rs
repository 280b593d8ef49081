//! EVOLVE's resource manager: the paper's contribution, end to end.
//!
//! Users declare **performance-level objectives** (PLOs) instead of raw
//! resource requests; the manager closes the loop: it scrapes each
//! application's control window from the simulated cluster, computes the
//! PLO error, runs the **multi-resource adaptive PID controller** (from
//! `evolve-control`), and actuates vertical resizes, horizontal replica
//! changes and job-allocation updates through the cluster API. A
//! pluggable scheduler (from `evolve-scheduler`) binds the resulting
//! pods, with priority preemption and gang support.
//!
//! The crate also contains the **baselines** every experiment compares
//! against (stock-Kubernetes static requests, threshold HPA, a VPA-like
//! percentile vertical scaler). Which system runs is the [`ManagerKind`],
//! a closed set: each application's policy is one variant of a
//! crate-private enum, and a [`ControllerCheckpoint`] names the kind in
//! its header and carries each policy's state, never its configuration.
//! Beside them are the [`ExperimentRunner`] that wires
//! workload → cluster → manager → scheduler and collects the summary
//! statistics, and the report helpers that render the tables and CSV
//! series in EXPERIMENTS.md.
//!
//! # Examples
//!
//! ```no_run
//! use evolve_core::{ExperimentRunner, ManagerKind, RunConfig};
//! use evolve_workload::ScenarioSpec;
//!
//! let spec = ScenarioSpec::builtin("single_diurnal").unwrap();
//! let cfg = RunConfig::from_spec(&spec, ManagerKind::Evolve).seed(7).build();
//! let outcome = ExperimentRunner::new(cfg).run();
//! println!("violation rate {:.3}", outcome.total_violation_rate());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baselines;
mod checkpoint;
mod counters;
mod evolve_policy;
mod harness;
mod manager;
mod policy;
mod report;
mod runner;

pub use checkpoint::ControllerCheckpoint;
pub use counters::ControlCounters;
pub use evolve_scheduler::SchedulerProfile;
pub use harness::{Harness, ReplicatedOutcome};
pub use manager::{ManagerKind, ResourceManager};
pub use policy::{control_error, PolicyDecision, SignalQuality};
pub use report::{write_csv, Summary, Table};
pub use runner::{
    AppSummary, ExperimentRunner, RecoveryStrategy, RunConfig, RunConfigBuilder, RunOutcome,
    RunPerf, Stage, StageHook,
};
