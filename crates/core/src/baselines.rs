//! Baseline autoscalers every experiment compares against. The third,
//! stock Kubernetes, keeps whatever requests the user wrote in force
//! forever: it is [`Policy::Static`](crate::policy::Policy::Static), which
//! has no state.
//!
//! * [`HpaPolicy`] — the Horizontal Pod Autoscaler: fixed per-replica
//!   requests, replica count follows the canonical
//!   `desired = ceil(current × utilization / target)` rule on CPU.
//! * [`VpaPolicy`] — a Vertical-Pod-Autoscaler-like baseline: replica
//!   count fixed, per-replica requests follow a smoothed peak of observed
//!   usage with a safety margin.

use evolve_telemetry::Ewma;
use evolve_types::codec::{Codec, Decoder, Encoder};
use evolve_types::{Resource, ResourceVec, Result};

use crate::evolve_policy::{MAX_ALLOC, MIN_ALLOC};
use crate::policy::{ObservedAppState, PolicyDecision, PolicyInput};

/// The HPA's target CPU utilization (usage/request), the canonical 60%.
const HPA_TARGET_UTILIZATION: f64 = 0.6;
/// The HPA's replica floor.
const HPA_MIN_REPLICAS: u32 = 1;
/// The HPA's replica ceiling.
pub(crate) const HPA_MAX_REPLICAS: u32 = 64;
/// Ticks between two HPA scale-downs: ≈ the 5-minute HPA stabilization
/// window.
const HPA_COOLDOWN_TICKS: u32 = 6;
/// The per-replica request an HPA holds before it latches the user's own
/// from the first window with a replica running.
const HPA_SEED_REQUEST: ResourceVec = ResourceVec::new(1_000.0, 1_024.0, 50.0, 50.0);
/// The replica count an HPA holds before it latches the deployment's own.
const HPA_INITIAL_REPLICAS: u32 = 2;
/// The VPA's safety margin above observed usage (30% headroom).
const VPA_MARGIN: f64 = 0.3;
/// The replicas the VPA holds every service to.
pub(crate) const VPA_REPLICAS: u32 = 2;
/// Smoothing factor of the VPA's peak-usage trackers.
const VPA_PEAK_ALPHA: f64 = 0.3;

/// The Kubernetes Horizontal Pod Autoscaler on CPU utilization.
#[derive(Debug, Clone)]
pub(crate) struct HpaPolicy {
    /// Fixed per-replica allocation; latched from the first observed
    /// window so HPA keeps whatever the user originally requested.
    per_replica: ResourceVec,
    latched: bool,
    replicas: u32,
    /// Ticks remaining before another scale-down is allowed
    /// (HPA's stabilization window).
    down_cooldown: u32,
}

impl HpaPolicy {
    /// Creates an HPA with the canonical 60%-CPU target.
    pub(crate) fn new() -> Self {
        HpaPolicy {
            per_replica: HPA_SEED_REQUEST,
            latched: false,
            replicas: HPA_INITIAL_REPLICAS,
            down_cooldown: 0,
        }
    }

    /// This tick's replica count at the latched per-replica request.
    pub(crate) fn decide(&mut self, input: &PolicyInput<'_>) -> PolicyDecision {
        let w = input.window;
        if self.down_cooldown > 0 {
            self.down_cooldown -= 1;
        }
        if w.running_replicas == 0 {
            return PolicyDecision { per_replica: self.per_replica, replicas: self.replicas };
        }
        if !self.latched {
            // Keep the user's original request and current size.
            if !w.alloc_per_replica.is_zero() {
                self.per_replica = w.alloc_per_replica;
            }
            self.replicas =
                (w.running_replicas + w.pending_replicas).clamp(HPA_MIN_REPLICAS, HPA_MAX_REPLICAS);
            self.latched = true;
        }
        let cpu_request = self.per_replica[Resource::Cpu].max(1e-9);
        let utilization = w.usage_per_replica()[Resource::Cpu] / cpu_request;
        // desired = ceil(current × utilization / target), with a 10%
        // tolerance band exactly like the real HPA.
        let ratio = utilization / HPA_TARGET_UTILIZATION;
        if (ratio - 1.0).abs() > 0.1 {
            let desired = (f64::from(w.running_replicas) * ratio).ceil() as u32;
            let desired = desired.clamp(HPA_MIN_REPLICAS, HPA_MAX_REPLICAS);
            if desired > self.replicas {
                self.replicas = desired;
            } else if desired < self.replicas && self.down_cooldown == 0 {
                // Scale down one step at a time after the stabilization
                // window.
                self.replicas -= 1;
                self.down_cooldown = HPA_COOLDOWN_TICKS;
            }
        }
        PolicyDecision { per_replica: self.per_replica, replicas: self.replicas }
    }

    /// Writes the state.
    pub(crate) fn checkpoint(&self, enc: &mut Encoder) {
        self.per_replica.encode(enc);
        self.latched.encode(enc);
        self.replicas.encode(enc);
        self.down_cooldown.encode(enc);
    }

    /// Overwrites the state with one [`checkpoint`](Self::checkpoint)
    /// wrote.
    pub(crate) fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<()> {
        self.per_replica = ResourceVec::decode(dec)?;
        self.latched = bool::decode(dec)?;
        self.replicas = u32::decode(dec)?;
        self.down_cooldown = u32::decode(dec)?;
        Ok(())
    }

    /// Adopts the observed replicas and request after a restart with no
    /// checkpoint.
    pub(crate) fn reconstruct(&mut self, observed: &ObservedAppState) {
        if !observed.alloc_per_replica.is_zero() {
            self.per_replica = observed.alloc_per_replica;
        }
        if observed.replicas > 0 {
            self.replicas = observed.replicas.clamp(HPA_MIN_REPLICAS, HPA_MAX_REPLICAS);
        }
        self.latched = true;
        // Fresh stabilization window so the restarted HPA does not
        // immediately scale in on one quiet post-restart measurement.
        self.down_cooldown = HPA_COOLDOWN_TICKS;
    }

    /// Forgets the cluster: the next decision actuates the constructor's
    /// size.
    pub(crate) fn reset_to_spec(&mut self) {
        // Keep constructor defaults, skip observation: the next decision
        // actuates the spec's initial size regardless of the cluster.
        self.latched = true;
        self.down_cooldown = 0;
    }
}

/// A VPA-like vertical baseline: requests follow smoothed peak usage,
/// within EVOLVE's per-replica range.
#[derive(Debug, Clone)]
pub(crate) struct VpaPolicy {
    /// Smoothed peak usage per resource.
    peak: [Ewma; 4],
    replicas: u32,
}

impl VpaPolicy {
    /// Creates a VPA-like policy holding [`VPA_REPLICAS`] replicas.
    pub(crate) fn new() -> Self {
        VpaPolicy { peak: [Ewma::new(VPA_PEAK_ALPHA); 4], replicas: VPA_REPLICAS }
    }

    /// This tick's per-replica request at the held replica count.
    pub(crate) fn decide(&mut self, input: &PolicyInput<'_>) -> PolicyDecision {
        let usage = input.window.usage_per_replica();
        let mut target = ResourceVec::ZERO;
        for r in Resource::ALL {
            let peak = &mut self.peak[r.index()];
            // Track upward fast, decay slowly (peak-biased EWMA).
            let current = peak.value_or(0.0);
            if usage[r] > current {
                peak.observe(usage[r]);
                peak.observe(usage[r]); // double-weight upward moves
            } else {
                peak.observe(usage[r]);
            }
            target[r] = peak.value_or(usage[r]) * (1.0 + VPA_MARGIN);
        }
        let target = target.clamp(&MIN_ALLOC, &MAX_ALLOC);
        PolicyDecision { per_replica: target, replicas: self.replicas }
    }

    /// Writes the peak trackers' estimates and the replica count.
    pub(crate) fn checkpoint(&self, enc: &mut Encoder) {
        for peak in &self.peak {
            peak.checkpoint(enc);
        }
        self.replicas.encode(enc);
    }

    /// Overwrites the state with one [`checkpoint`](Self::checkpoint)
    /// wrote.
    pub(crate) fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<()> {
        for peak in &mut self.peak {
            peak.restore(dec)?;
        }
        self.replicas = u32::decode(dec)?;
        Ok(())
    }

    /// Adopts the observed replicas and seeds the peaks from the observed
    /// request after a restart with no checkpoint.
    pub(crate) fn reconstruct(&mut self, observed: &ObservedAppState) {
        if observed.replicas > 0 {
            self.replicas = observed.replicas;
        }
        // Seed the peak trackers from the granted allocation so the first
        // post-restart target is near the current grant rather than the
        // unwarmed default.
        if !observed.alloc_per_replica.is_zero() {
            for r in Resource::ALL {
                self.peak[r.index()].observe(observed.alloc_per_replica[r] / (1.0 + VPA_MARGIN));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Policy, SignalQuality};
    use crate::ManagerKind;
    use evolve_sim::{AppStatus, AppWindow};
    use evolve_types::{AppId, SimDuration, SimTime};
    use evolve_workload::{PloSpec, WorldClass};

    fn status() -> AppStatus {
        AppStatus {
            id: AppId::new(0),
            name: "svc".into(),
            world: WorldClass::Microservice,
            plo: PloSpec::LatencyP99 { target_ms: 100.0 },
            priority: evolve_types::PriorityClass::default(),
        }
    }

    fn window(replicas: u32, cpu_usage_per_replica: f64) -> AppWindow {
        AppWindow {
            at: SimTime::from_secs(10),
            duration: SimDuration::from_secs(5),
            arrivals: 100,
            completions: 100,
            timeouts: 0,
            shed_requests: 0,
            oom_kills: 0,
            p99_ms: Some(50.0),
            mean_ms: Some(25.0),
            throughput_rps: 20.0,
            usage: ResourceVec::new(cpu_usage_per_replica * f64::from(replicas), 256.0, 5.0, 5.0),
            alloc: ResourceVec::splat(1_000.0) * f64::from(replicas),
            alloc_per_replica: ResourceVec::splat(1_000.0),
            running_replicas: replicas,
            pending_replicas: 0,
            progress: None,
            projected_makespan_s: None,
        }
    }

    #[test]
    fn static_policy_never_acts() {
        let mut p = Policy::new(ManagerKind::KubeStatic, false);
        let st = status();
        let w = window(1, 999.0);
        assert_eq!(
            p.decide(&PolicyInput {
                app: &st,
                window: &w,
                dt_secs: 5.0,
                resize_failures: 0,
                signal: SignalQuality::Fresh,
            }),
            None
        );
        // The baselines leave jobs alone too.
        assert!(matches!(Policy::new(ManagerKind::Hpa, true), Policy::Static));
        assert!(matches!(Policy::new(ManagerKind::Vpa, true), Policy::Static));
    }

    #[test]
    fn hpa_scales_up_on_high_utilization() {
        let mut p = HpaPolicy::new();
        let st = status();
        // 90% utilization vs 60% target → desired = ceil(2×1.5) = 3.
        let w = window(2, 900.0);
        let d = p.decide(&PolicyInput {
            app: &st,
            window: &w,
            dt_secs: 5.0,
            resize_failures: 0,
            signal: SignalQuality::Fresh,
        });
        assert_eq!(d.replicas, 3);
        assert_eq!(d.per_replica, ResourceVec::splat(1_000.0));
    }

    #[test]
    fn hpa_scale_down_is_slow() {
        let mut p = HpaPolicy::new();
        let st = status();
        let w = window(6, 60.0); // 6% utilization → wants 1 replica
        let mut replicas = Vec::new();
        for _ in 0..8 {
            let d = p.decide(&PolicyInput {
                app: &st,
                window: &w,
                dt_secs: 5.0,
                resize_failures: 0,
                signal: SignalQuality::Fresh,
            });
            replicas.push(d.replicas);
        }
        // One step down, then frozen by the stabilization window.
        assert_eq!(replicas[0], 5);
        assert!(replicas.iter().all(|r| *r >= 4), "{replicas:?}");
    }

    #[test]
    fn hpa_respects_max() {
        let mut p = HpaPolicy::new();
        let st = status();
        let w = window(60, 1_000.0); // 167% of target → wants 100
        let d = p.decide(&PolicyInput {
            app: &st,
            window: &w,
            dt_secs: 5.0,
            resize_failures: 0,
            signal: SignalQuality::Fresh,
        });
        assert_eq!(d.replicas, HPA_MAX_REPLICAS);
    }

    #[test]
    fn hpa_tolerance_band_holds_steady() {
        let mut p = HpaPolicy::new();
        let st = status();
        let w = window(3, 620.0); // 62% ≈ within 10% of 60%
        let d = p.decide(&PolicyInput {
            app: &st,
            window: &w,
            dt_secs: 5.0,
            resize_failures: 0,
            signal: SignalQuality::Fresh,
        });
        assert_eq!(d.replicas, 3);
    }

    #[test]
    fn vpa_follows_usage_with_margin() {
        let mut p = VpaPolicy::new();
        let st = status();
        let mut last = ResourceVec::ZERO;
        for _ in 0..20 {
            let w = window(2, 800.0);
            let d = p.decide(&PolicyInput {
                app: &st,
                window: &w,
                dt_secs: 5.0,
                resize_failures: 0,
                signal: SignalQuality::Fresh,
            });
            last = d.per_replica;
            assert_eq!(d.replicas, 2);
        }
        // Converges to ~800 × 1.3 on CPU.
        assert!((last.cpu() - 1_040.0).abs() < 100.0, "cpu {}", last.cpu());
    }

    #[test]
    fn vpa_clamps_to_bounds() {
        let mut p = VpaPolicy::new();
        let st = status();
        let w = window(1, 10_000.0);
        let d = p.decide(&PolicyInput {
            app: &st,
            window: &w,
            dt_secs: 5.0,
            resize_failures: 0,
            signal: SignalQuality::Fresh,
        });
        assert!(d.per_replica.fits_within(&MAX_ALLOC));
        assert!(MIN_ALLOC.fits_within(&d.per_replica));
    }
}
