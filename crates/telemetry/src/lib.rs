//! Metrics pipeline for the EVOLVE platform.
//!
//! The real EVOLVE/Skynet systems scrape Prometheus/cAdvisor metrics at a
//! fixed cadence and feed filtered signals into the resource controllers.
//! This crate reproduces that pipeline for the simulated cluster:
//!
//! * [`TimeSeries`] — bounded time-stamped sample buffers with window
//!   queries, the storage backing every exported metric.
//! * [`Ewma`] — the smoothing filter applied before control decisions.
//! * [`P2Quantile`] and [`SlidingQuantile`] — online tail-latency
//!   estimators (the P² algorithm for O(1)-memory percentiles and an exact
//!   sliding-window variant for validation).
//! * [`PloTracker`] — performance-level-objective accounting: window and
//!   violation counts and their severity.
//! * [`UtilizationAccount`] — time-weighted utilization integrals
//!   (allocated/capacity, used/capacity, used/allocated) per resource.
//! * [`MetricRegistry`] — a string-keyed registry tying the above together
//!   for experiment export, with typed [`MetricKey`] handles on the
//!   recording hot path.
//! * [`trace`] — the structured decision-trace subsystem: bounded rings
//!   of per-tick control/scheduling/lifecycle records, dumpable as
//!   deterministic JSONL.
//!
//! # Examples
//!
//! ```
//! use evolve_telemetry::{P2Quantile, PloTracker, PloBound};
//!
//! let mut p99 = P2Quantile::new(0.99);
//! for i in 0..1000 {
//!     p99.observe(f64::from(i));
//! }
//! assert!(p99.value().unwrap() > 900.0);
//!
//! // A latency PLO of 100ms, evaluated per control window.
//! let mut plo = PloTracker::new(100.0, PloBound::Upper);
//! plo.record_window(80.0);
//! plo.record_window(130.0);
//! assert_eq!(plo.violations(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod filter;
mod plo;
mod quantile;
mod registry;
mod series;
pub mod trace;
mod util;

pub use filter::Ewma;
pub use plo::{PloBound, PloTracker};
pub use quantile::{P2Quantile, SlidingQuantile};
pub use registry::{MetricKey, MetricRegistry};
pub use series::{Sample, TimeSeries};
pub use util::{UtilizationAccount, UtilizationSummary};
