//! # EVOLVE — converged Big-Data / HPC / Cloud resource management
//!
//! A from-scratch Rust reproduction of the EVOLVE platform (DATE 2022):
//! performance-level objectives instead of resource requests, a
//! **multi-resource adaptive PID controller** per application, a
//! Kubernetes-style scheduler with priority preemption and gang
//! scheduling, and a discrete-event cluster simulator standing in for the
//! paper's real cluster (see `DESIGN.md` for the substitution map).
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! roof so applications depend on a single `evolve` crate.
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `evolve-types` | time, resources, ids |
//! | [`telemetry`] | `evolve-telemetry` | series, filters, quantiles, PLO tracking |
//! | [`control`] | `evolve-control` | PID, adaptive tuning, MIMO control, models |
//! | [`workload`] | `evolve-workload` | arrival processes, demands, scenarios |
//! | [`sim`] | `evolve-sim` | the cluster simulator |
//! | [`scheduler`] | `evolve-scheduler` | filter/score framework, preemption, gangs |
//! | [`core`] | `evolve-core` | policies, manager, experiment runner |
//!
//! # Quickstart
//!
//! ```no_run
//! use evolve::prelude::*;
//!
//! let spec = ScenarioSpec::builtin("single_diurnal").expect("builtin");
//! let outcome = ExperimentRunner::new(RunConfig::from_spec(&spec, ManagerKind::Evolve).build()).run();
//! println!(
//!     "{}: violation rate {:.3}, mean allocated share {:.2}",
//!     outcome.manager,
//!     outcome.total_violation_rate(),
//!     outcome.utilization.mean_allocated(),
//! );
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use evolve_control as control;
pub use evolve_core as core;
pub use evolve_scheduler as scheduler;
pub use evolve_sim as sim;
pub use evolve_telemetry as telemetry;
pub use evolve_types as types;
pub use evolve_workload as workload;

/// The one-import surface for experiments: every cross-crate type a bench
/// binary, example or integration test typically needs, re-exported flat.
///
/// ```no_run
/// use evolve::prelude::*;
///
/// let mut spec = ScenarioSpec::headline(0.5);
/// spec.cluster.nodes = 8;
/// let rep = Harness::new().run_seeds(
///     &RunConfig::from_spec(&spec, ManagerKind::Evolve).record_series(false).build(),
///     &[42, 43, 44],
/// );
/// println!("violation rate {:.3}", rep.violation_rate().mean);
/// ```
pub mod prelude {
    pub use evolve_control::ArbiterConfig;
    pub use evolve_core::{
        arbiter_from_spec, write_csv, ExperimentRunner, Harness, ManagerKind, RecoveryStrategy,
        ReplicatedOutcome, RunConfig, RunConfigBuilder, RunOutcome, RunPerf, SchedulerProfile,
        Summary, Table,
    };
    pub use evolve_sim::{
        ChaosOracle, FaultEvent, FaultKind, NodeShape, OracleReport, OracleViolation,
    };
    pub use evolve_telemetry::trace::{
        ActuationOutcome, ControlExplain, ControlTrace, FaultTrace, SchedOutcome, SchedTrace,
        SpanKind, SpanTrace, TraceConfig, TraceEvent, TraceRing, TraceSignal,
    };
    pub use evolve_telemetry::{MetricKey, MetricRegistry};
    pub use evolve_types::{
        AppId, JobId, NodeId, PodId, PriorityClass, Resource, ResourceVec, SimDuration, SimTime,
    };
    pub use evolve_workload::{
        PloSpec, Scenario, ScenarioError, ScenarioSpec, WorldClass, BUILTINS,
    };
}
