//! The autoscaling policy a manager runs for each application: a closed
//! set, one variant per kind of controller, and the inputs and outputs
//! every variant shares.

use evolve_control::MultiResourceConfig;
use evolve_sim::{AppStatus, AppWindow};
use evolve_telemetry::trace::{ControlExplain, TraceSignal};
use evolve_types::codec::{Codec, Decoder, Encoder};
use evolve_types::{ResourceVec, Result};
use evolve_workload::PloSpec;

use crate::baselines::{HpaPolicy, VpaPolicy};
use crate::evolve_policy::{EvolvePolicy, MAX_ALLOC, MIN_ALLOC};
use crate::ManagerKind;

/// How trustworthy this tick's window is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SignalQuality {
    /// A fresh scrape landed this tick.
    #[default]
    Fresh,
    /// The scrape failed; `window` replays the last successful one.
    Stale,
    /// The scrape failed and no prior window exists; `window` is a
    /// synthetic placeholder.
    Missing,
}

impl SignalQuality {
    /// `true` when the window is not a fresh measurement — the policy
    /// must not mistake silence for idleness.
    #[must_use]
    pub fn is_degraded(self) -> bool {
        self != SignalQuality::Fresh
    }

    /// The decision-trace equivalent (telemetry cannot depend on this
    /// crate, so the trace layer carries its own mirror enum).
    #[must_use]
    pub fn as_trace(self) -> TraceSignal {
        match self {
            SignalQuality::Fresh => TraceSignal::Fresh,
            SignalQuality::Stale => TraceSignal::Stale,
            SignalQuality::Missing => TraceSignal::Missing,
        }
    }
}

/// Everything a policy sees at one control tick.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PolicyInput<'a> {
    /// The application's identity and PLO.
    pub(crate) app: &'a AppStatus,
    /// The harvested control window.
    pub(crate) window: &'a AppWindow,
    /// Elapsed control interval in seconds.
    pub(crate) dt_secs: f64,
    /// In-place resizes that failed for node headroom on the previous
    /// tick — a signal that vertical growth is blocked and the policy
    /// should scale out instead.
    pub(crate) resize_failures: u32,
    /// Whether `window` is a fresh scrape or a degraded stand-in.
    pub(crate) signal: SignalQuality,
}

/// A policy's actuation for one application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyDecision {
    /// Target per-replica (or per-task / per-rank) allocation.
    pub per_replica: ResourceVec,
    /// Target replica count (ignored for batch/HPC apps, whose
    /// parallelism is fixed by the job spec).
    pub replicas: u32,
}

impl Codec for PolicyDecision {
    fn encode(&self, enc: &mut Encoder) {
        self.per_replica.encode(enc);
        self.replicas.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(PolicyDecision { per_replica: ResourceVec::decode(dec)?, replicas: u32::decode(dec)? })
    }
}

/// What a restarted controller can observe about an application from the
/// live cluster alone: how many replicas actually hold resources right
/// now and what each one was granted. This is the level-triggered
/// baseline a policy reconstructs from when no checkpoint survived the
/// crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ObservedAppState {
    /// Replicas currently holding resources (running or starting).
    pub(crate) replicas: u32,
    /// Mean granted request per such replica.
    pub(crate) alloc_per_replica: ResourceVec,
}

/// One application's autoscaling policy, stateful per application. The
/// variant follows from the [`ManagerKind`] and the app's world; a
/// checkpoint carries only the variant's state, and restores into the
/// policy a fresh manager of the same kind built.
#[derive(Debug)]
// One per app for the whole run: a box would only add a pointer hop.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Policy {
    /// Stock Kubernetes, and the HPA and VPA for jobs: never acts.
    Static,
    /// The threshold HPA on CPU utilization.
    Hpa(HpaPolicy),
    /// The VPA-like vertical scaler.
    Vpa(VpaPolicy),
    /// EVOLVE or one of its ablations.
    Evolve(EvolvePolicy),
}

impl Policy {
    /// The policy `kind` runs for an app; `is_job` for a batch or HPC app.
    pub(crate) fn new(kind: ManagerKind, is_job: bool) -> Self {
        let evolve = MultiResourceConfig::new(MIN_ALLOC, MAX_ALLOC);
        match kind {
            ManagerKind::Evolve => Policy::Evolve(EvolvePolicy::new(evolve, is_job)),
            ManagerKind::EvolveCpuOnly => {
                Policy::Evolve(EvolvePolicy::new(evolve.cpu_only(), is_job))
            }
            ManagerKind::EvolveFixedGains => {
                Policy::Evolve(EvolvePolicy::new(evolve.fixed_gains(), is_job))
            }
            ManagerKind::KubeStatic => Policy::Static,
            // HPA and VPA do not manage jobs; they run statically.
            ManagerKind::Hpa | ManagerKind::Vpa if is_job => Policy::Static,
            ManagerKind::Hpa => Policy::Hpa(HpaPolicy::new()),
            ManagerKind::Vpa => Policy::Vpa(VpaPolicy::new()),
        }
    }

    /// Computes the actuation for this tick; `None` leaves the
    /// application untouched.
    pub(crate) fn decide(&mut self, input: &PolicyInput<'_>) -> Option<PolicyDecision> {
        match self {
            Policy::Static => None,
            Policy::Hpa(p) => Some(p.decide(input)),
            Policy::Vpa(p) => Some(p.decide(input)),
            Policy::Evolve(p) => p.decide(input),
        }
    }

    /// Rebuilds working state from the observed cluster after a crash
    /// with no usable checkpoint (cold reconstruction): `observed`
    /// becomes the hold-last-safe baseline, so the first post-restart
    /// decision does not jerk the allocation.
    pub(crate) fn reconstruct(&mut self, observed: &ObservedAppState) {
        match self {
            Policy::Static => {}
            Policy::Hpa(p) => p.reconstruct(observed),
            Policy::Vpa(p) => p.reconstruct(observed),
            Policy::Evolve(p) => p.reconstruct(observed),
        }
    }

    /// Discards all learned state and returns to the constructor
    /// defaults, ignoring both checkpoint and cluster (the naive-reset
    /// recovery baseline).
    pub(crate) fn reset_to_spec(&mut self) {
        match self {
            Policy::Static | Policy::Vpa(_) => {}
            Policy::Hpa(p) => p.reset_to_spec(),
            Policy::Evolve(p) => p.reset_to_spec(),
        }
    }

    /// The controller internals behind the most recent
    /// [`decide`](Policy::decide) call, for the decision trace; only
    /// EVOLVE has any.
    pub(crate) fn explain(&self) -> Option<ControlExplain> {
        match self {
            Policy::Evolve(p) => Some(p.explain()),
            Policy::Static | Policy::Hpa(_) | Policy::Vpa(_) => None,
        }
    }

    /// Writes the policy's mutable state (none for the static policy).
    pub(crate) fn checkpoint(&self, enc: &mut Encoder) {
        match self {
            Policy::Static => {}
            Policy::Hpa(p) => p.checkpoint(enc),
            Policy::Vpa(p) => p.checkpoint(enc),
            Policy::Evolve(p) => p.checkpoint(enc),
        }
    }

    /// Overwrites the mutable state with what
    /// [`checkpoint`](Policy::checkpoint) wrote for the same variant.
    ///
    /// # Errors
    ///
    /// Returns [`CorruptCheckpoint`](evolve_types::Error::CorruptCheckpoint) when the bytes are truncated
    /// or malformed.
    pub(crate) fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<()> {
        match self {
            Policy::Static => Ok(()),
            Policy::Hpa(p) => p.restore(dec),
            Policy::Vpa(p) => p.restore(dec),
            Policy::Evolve(p) => p.restore(dec),
        }
    }
}

/// The signed relative PLO error against a setpoint pulled `margin`
/// inside the objective, oriented so **positive means
/// under-provisioned** (scale up): latency above the setpoint or
/// throughput below it. `margin = 0.25` controls a 100 ms latency PLO to
/// a 75 ms setpoint, and a 100 rps throughput PLO to 125 rps; `margin =
/// 0` measures against the objective itself. Controlling *to* the PLO
/// would park the loop right on the compliance boundary, where
/// measurement noise turns half the windows into violations.
///
/// Returns 1.0 (full violation) for non-finite measurements — the service
/// produced no valid signal, e.g. every request timed out.
///
/// # Examples
///
/// ```
/// use evolve_core::control_error;
/// use evolve_workload::PloSpec;
///
/// let plo = PloSpec::LatencyP99 { target_ms: 100.0 };
/// assert!(control_error(&plo, 150.0, 0.0) > 0.0);
/// assert!(control_error(&plo, 50.0, 0.0) < 0.0);
/// // 80 ms is inside the objective but over a 75 ms setpoint.
/// assert!(control_error(&plo, 80.0, 0.25) > 0.0);
/// let thr = PloSpec::Throughput { target_rps: 100.0 };
/// assert!(control_error(&thr, 50.0, 0.0) > 0.0);
/// ```
///
/// # Panics
///
/// Panics when `margin` is not in `[0, 1)`.
#[must_use]
pub fn control_error(plo: &PloSpec, measured: f64, margin: f64) -> f64 {
    assert!((0.0..1.0).contains(&margin), "margin must be in [0, 1)");
    if !measured.is_finite() {
        return 1.0;
    }
    let target = plo.target();
    if target <= 0.0 {
        return 0.0;
    }
    if plo.upper_bound() {
        let setpoint = target * (1.0 - margin);
        (measured - setpoint) / setpoint
    } else {
        let setpoint = target * (1.0 + margin);
        (setpoint - measured) / setpoint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evolve_types::SimDuration;

    #[test]
    fn error_orientation_latency() {
        let plo = PloSpec::LatencyP99 { target_ms: 100.0 };
        assert_eq!(control_error(&plo, 100.0, 0.0), 0.0);
        assert_eq!(control_error(&plo, 200.0, 0.0), 1.0);
        assert_eq!(control_error(&plo, 50.0, 0.0), -0.5);
    }

    #[test]
    fn error_orientation_throughput() {
        let plo = PloSpec::Throughput { target_rps: 1000.0 };
        assert_eq!(control_error(&plo, 500.0, 0.0), 0.5);
        assert_eq!(control_error(&plo, 2000.0, 0.0), -1.0);
    }

    #[test]
    fn error_orientation_deadline() {
        let plo = PloSpec::Deadline { deadline: SimDuration::from_secs(100) };
        // Projected makespan 150 s vs 100 s deadline → 50% over.
        assert_eq!(control_error(&plo, 150.0, 0.0), 0.5);
    }

    #[test]
    fn margin_shifts_the_setpoint() {
        let plo = PloSpec::LatencyP99 { target_ms: 100.0 };
        // At 80 ms with a 25% margin (setpoint 75 ms) we are *over*.
        assert!(control_error(&plo, 80.0, 0.25) > 0.0);
        assert!(control_error(&plo, 70.0, 0.25) < 0.0);
        let thr = PloSpec::Throughput { target_rps: 100.0 };
        // At 110 rps with a 25% margin (setpoint 125) we are under.
        assert!(control_error(&thr, 110.0, 0.25) > 0.0);
        assert!(control_error(&thr, 130.0, 0.25) < 0.0);
    }

    #[test]
    #[should_panic(expected = "margin must be in")]
    fn margin_must_be_sub_unit() {
        let plo = PloSpec::LatencyP99 { target_ms: 100.0 };
        let _ = control_error(&plo, 50.0, 1.0);
    }

    #[test]
    fn control_error_orientation() {
        let lat = PloSpec::LatencyP99 { target_ms: 100.0 };
        assert!(control_error(&lat, 150.0, 0.0) > 0.0); // too slow → scale up
        assert!(control_error(&lat, 50.0, 0.0) < 0.0); // fast → scale down
        let thr = PloSpec::Throughput { target_rps: 100.0 };
        assert!(control_error(&thr, 50.0, 0.0) > 0.0); // too little throughput → scale up
        assert!(control_error(&thr, 150.0, 0.0) < 0.0);
    }

    #[test]
    fn non_finite_is_full_violation() {
        let plo = PloSpec::LatencyP99 { target_ms: 100.0 };
        assert_eq!(control_error(&plo, f64::INFINITY, 0.0), 1.0);
        assert_eq!(control_error(&plo, f64::NAN, 0.0), 1.0);
    }
}
