//! Core domain types shared by every EVOLVE crate.
//!
//! This crate defines the vocabulary of the platform:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution simulated time,
//!   used by the discrete-event engine and every control loop.
//! * [`Resource`] / [`ResourceVec`] — the four resource dimensions EVOLVE
//!   manages (CPU, memory, disk I/O bandwidth, network I/O bandwidth) and a
//!   small linear-algebra toolkit over them (fit tests, dominant share,
//!   element-wise min/max, saturating arithmetic).
//! * Identifier newtypes ([`NodeId`], [`PodId`], [`AppId`], [`JobId`]) that
//!   make it impossible to hand a pod id to an API expecting a node id.
//! * [`Error`] — the shared error type for fallible platform operations.
//!
//! # Examples
//!
//! ```
//! use evolve_types::{Resource, ResourceVec, SimDuration, SimTime};
//!
//! // A node with 16 cores, 64 GiB, 500 MB/s disk, 1250 MB/s network.
//! let capacity = ResourceVec::new(16_000.0, 65_536.0, 500.0, 1_250.0);
//! // A pod asking for 2 cores and 4 GiB.
//! let request = ResourceVec::new(2_000.0, 4_096.0, 50.0, 100.0);
//! assert!(request.fits_within(&capacity));
//!
//! let t = SimTime::ZERO + SimDuration::from_secs(30);
//! assert_eq!(t.as_secs_f64(), 30.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbiter;
pub mod codec;
mod error;
mod ids;
mod priority;
mod resources;
mod time;

pub use arbiter::ArbiterConfig;
pub use codec::{Codec, Decoder, Encoder};
pub use error::Error;
pub use ids::{AppId, JobId, NodeId, PodId};
pub use priority::PriorityClass;
pub use resources::{Resource, ResourceVec, NUM_RESOURCES};
pub use time::{SimDuration, SimTime};

/// Convenient result alias for fallible EVOLVE operations.
pub type Result<T> = std::result::Result<T, Error>;
