//! Control-theoretic core of EVOLVE.
//!
//! The calibration notes for the paper pin its contribution as a
//! "multi-resource **adaptive** PID autoscaler" in the Skynet lineage:
//! per-application PID controllers map a performance-level-objective (PLO)
//! error to resource allocations, the gains adapt on-line, and the
//! classical one-dimensional controller is extended to drive CPU, memory,
//! disk I/O and network I/O together. This crate implements exactly that
//! stack, independent of any cluster:
//!
//! * [`PidController`] — a production-grade scalar PID: anti-windup
//!   (integral clamping + conditional integration), derivative with
//!   first-order filtering, output limits and a leaky integral. Every
//!   dimension runs the same constants; only kp and ki adapt.
//! * [`AdaptiveTuner`] — on-line gain adaptation: an oscillation detector
//!   shrinks the proportional gain, a sluggishness detector grows the
//!   integral gain ("adjusts its parameters on the fly").
//! * [`RlsModel`] / [`SensitivityModel`] — recursive-least-squares models
//!   that learn, on-line, how performance responds to each resource; they
//!   attribute the PLO error to the resource that actually binds.
//! * [`MultiResourceController`] — the MIMO extension: one PID per
//!   resource dimension, coordinated through the sensitivity model,
//!   producing a full [`evolve_types::ResourceVec`] allocation.
//! * [`LoadPredictor`] — Holt-linear short-horizon load forecasting with a
//!   safety margin, used to scale ahead of ramps.
//! * [`DegradationGuard`] — graceful degradation under lost telemetry:
//!   hold-last-safe output, a watchdog that decays toward a usage-anchored
//!   floor, and slew-limited re-engagement after a blackout.
//! * [`CapacityArbiter`] — cluster-level overload arbitration: when the
//!   sum of per-app requests exceeds ready capacity (minus a headroom
//!   reserve), grants are arbitrated by priority class with weighted-fair
//!   clipping, full shedding of lower classes, hysteresis and slew limits.
//!
//! # Examples
//!
//! ```
//! use evolve_control::PidController;
//!
//! // Latency control: positive error means "too slow, add resources".
//! let mut pid = PidController::new();
//! let out = pid.step(0.3, 1.0);
//! assert!(out > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbiter;
mod degrade;
mod model;
mod multi;
mod pid;
mod predictor;
mod tuning;

pub use arbiter::{
    arbitrate, ArbiterConfig, ArbiterRequest, ArbiterState, ArbitrationOutcome, CapacityArbiter,
    ClipReason, GrantDecision,
};
pub use degrade::DegradationGuard;
pub use model::{RlsModel, SensitivityModel};
pub use multi::{MultiResourceConfig, MultiResourceController, ResourceDecision};
pub use pid::{PidController, PidTerms};
pub use predictor::LoadPredictor;
pub use tuning::AdaptiveTuner;
