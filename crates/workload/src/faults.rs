//! The fault vocabulary: what can go wrong in a run, as plain data.
//!
//! [`FaultKind`] and [`FaultEvent`] live beside the scenario spec so that
//! a `[[fault]]` table, a fuzzer-drawn schedule and the simulator's fault
//! plan are one type; `evolve-sim` re-exports both and realizes them.

use evolve_types::{AppId, Error, NodeId, SimDuration, SimTime};

/// One kind of injected fault.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// A node goes unready; its pods are evicted and requeued. Recovers
    /// after `downtime` when given, otherwise stays down.
    NodeCrash {
        /// The failing node.
        node: NodeId,
        /// Time until the node rejoins; `None` means permanent.
        downtime: Option<SimDuration>,
    },
    /// Metric scrapes fail: the controller sees no window at all.
    ScrapeBlackout {
        /// Affected app; `None` blacks out every app.
        app: Option<AppId>,
        /// How long scrapes stay dark.
        duration: SimDuration,
    },
    /// Scrapes succeed but the measurements are distorted.
    MetricNoise {
        /// Affected app; `None` distorts every app.
        app: Option<AppId>,
        /// How long windows stay noisy.
        duration: SimDuration,
        /// Coefficient of variation of the multiplicative distortion.
        cv: f64,
    },
    /// The controller misses its ticks entirely (control-plane stall).
    ControlStall {
        /// How long the control plane is down.
        duration: SimDuration,
    },
    /// The controller **process dies** and restarts: unlike a stall, all
    /// in-memory control state (integrators, learned models, backoff
    /// tables) is destroyed at this instant. How the restarted controller
    /// rebuilds state is the runner's recovery strategy.
    ControllerCrash,
    /// Resize/scale requests from the controller are silently dropped:
    /// the reconciler believes it actuated, but the cluster never sees
    /// the request.
    ActuationDrop {
        /// How long the actuation path stays black-holed.
        duration: SimDuration,
    },
    /// Resize/scale requests reach the cluster only after `lag`.
    ActuationDelay {
        /// How long the actuation path stays slow.
        duration: SimDuration,
        /// Delay added to every request issued inside the interval.
        lag: SimDuration,
    },
    /// Resize requests are applied to only a fraction of each app's
    /// replicas (the desired state updates fully; the rollout stalls).
    ActuationPartial {
        /// How long the actuation path stays partial.
        duration: SimDuration,
        /// Fraction of replicas actually resized, in `(0, 1]`.
        fraction: f64,
    },
    /// Fast ready/unready cycling of one node: `cycles` crash/recover
    /// pairs spaced `period` apart (down for the first half of each
    /// period).
    NodeFlap {
        /// The flapping node.
        node: NodeId,
        /// Number of down/up cycles.
        cycles: u32,
        /// Length of one full cycle.
        period: SimDuration,
    },
}

impl FaultKind {
    /// The out-of-range numeric parameter of this fault, when it has one:
    /// the parameter's `[[fault]]` key and why it is rejected. A negative
    /// or non-finite noise `cv`, an actuation `fraction` outside `(0, 1]`,
    /// a flap with zero `cycles` or a zero-length `period`.
    #[must_use]
    pub fn invalid_param(&self) -> Option<(&'static str, String)> {
        match *self {
            FaultKind::MetricNoise { cv, .. } if !cv.is_finite() || cv < 0.0 => {
                Some(("cv", format!("metric-noise cv must be finite and non-negative, got {cv}")))
            }
            FaultKind::ActuationPartial { fraction, .. }
                if !fraction.is_finite() || fraction <= 0.0 || fraction > 1.0 =>
            {
                Some(("fraction", format!("actuation fraction must be in (0, 1], got {fraction}")))
            }
            FaultKind::NodeFlap { cycles: 0, .. } => {
                Some(("cycles", "node flap needs at least one cycle".into()))
            }
            FaultKind::NodeFlap { period, .. } if period.is_zero() => {
                Some(("period_secs", "node flap period must be positive".into()))
            }
            _ => None,
        }
    }

    /// Validates the parameters of this fault kind.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] with the reason
    /// [`FaultKind::invalid_param`] gives.
    pub fn validate(&self) -> Result<(), Error> {
        match self.invalid_param() {
            None => Ok(()),
            Some((_, why)) => Err(Error::InvalidConfig(why)),
        }
    }

    /// Short stable label: the `kind` of a `[[fault]]` table and the name
    /// traces use.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::NodeCrash { .. } => "node_crash",
            FaultKind::ScrapeBlackout { .. } => "scrape_blackout",
            FaultKind::MetricNoise { .. } => "metric_noise",
            FaultKind::ControlStall { .. } => "control_stall",
            FaultKind::ControllerCrash => "controller_crash",
            FaultKind::ActuationDrop { .. } => "actuation_drop",
            FaultKind::ActuationDelay { .. } => "actuation_delay",
            FaultKind::ActuationPartial { .. } => "actuation_partial",
            FaultKind::NodeFlap { .. } => "node_flap",
        }
    }
}

/// A fault scheduled at an absolute time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// When the fault begins.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}
