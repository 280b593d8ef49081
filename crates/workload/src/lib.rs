//! Workload generation for the EVOLVE platform.
//!
//! EVOLVE's thesis is that the Big-Data, HPC and Cloud worlds should share
//! one consolidated infrastructure. This crate provides the synthetic
//! stand-ins for all three (the substitution for the paper's production
//! workloads and traces):
//!
//! * [`LoadSpec`] — constant, diurnal, ramp, flash-crowd,
//!   Markov-modulated (bursty) and trace-playback request rates — and
//!   [`PoissonArrivals`], a non-homogeneous Poisson sampler over the
//!   [`Load`] a spec builds.
//! * [`RequestClass`] — per-request multi-resource demand vectors with
//!   configurable variability, drawn from heavy-tailed distributions.
//! * [`ScenarioSpec`] — the declarative scenario model behind the
//!   checked-in `scenarios/*.toml` files, parsed by a hand-rolled
//!   minimal-TOML reader with typed [`ScenarioError`]s. Those files are
//!   the builtin scenarios each experiment in EXPERIMENTS.md uses
//!   ([`BUILTINS`]).
//! * Application archetypes, one record each from the file to the engine:
//!   [`ServiceEntry`] (latency-critical cloud microservice),
//!   [`BatchEntry`] (staged big-data dataflow job) and [`HpcEntry`]
//!   (gang-scheduled iterative HPC job), with the [`PloSpec`] each
//!   declares.
//! * [`WorkloadMix`] and [`Scenario`] — a validated spec's entries and
//!   horizon, ready to run.
//!
//! # Examples
//!
//! ```
//! use evolve_workload::{LoadSpec, PoissonArrivals};
//! use evolve_types::{SimDuration, SimTime};
//! use rand::SeedableRng;
//! use rand_chacha::ChaCha8Rng;
//!
//! let period = SimDuration::from_secs(3600);
//! let load = LoadSpec::Diurnal { base: 100.0, amplitude: 0.8, period, phase: 0.0 };
//! let mut rng = ChaCha8Rng::seed_from_u64(7);
//! let mut arrivals = PoissonArrivals::new(load.build());
//! let first = arrivals.next_after(SimTime::ZERO, &mut rng).unwrap();
//! assert!(first > SimTime::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apps;
mod arrival;
mod faults;
mod request;
mod sampling;
mod scenario;
mod spec;
mod toml_mini;

pub use apps::{PloSpec, WorldClass};
pub use arrival::{Load, PoissonArrivals};
pub use evolve_types::PriorityClass;
pub use faults::{FaultEvent, FaultKind};
pub use request::{Request, RequestClass};
pub use sampling::{
    sample_exponential, sample_lognormal, sample_lognormal_with, sample_poisson_count,
    sample_standard_normal, LogNormal, SamplingMode,
};
pub use scenario::{LoadSpec, Scenario, WorkloadMix};
pub use spec::{
    BatchEntry, ClusterSpec, HpcEntry, ProbeSpec, ReproSpec, ScenarioError, ScenarioSpec,
    ServiceEntry, StageEntry, BUILTINS, DEFAULT_NODE_CAPACITY,
};
