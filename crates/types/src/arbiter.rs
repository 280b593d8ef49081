//! The capacity arbiter's tunables: plain data that both a scenario spec
//! (its `[arbiter]` table) and the control plane's `CapacityArbiter` read.

/// Tunables for the control plane's `CapacityArbiter`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArbiterConfig {
    /// Fraction of ready capacity held back as a scheduling/failover
    /// reserve; the arbiter only hands out `(1 - headroom_fraction)` of
    /// what is ready.
    pub headroom_fraction: f64,
    /// Fraction of an app's request below which a grant counts as
    /// starvation: ages advance while `granted < floor_fraction × requested`
    /// and reset once the grant is back at or above the floor.
    pub floor_fraction: f64,
    /// Crunch-exit margin: once in crunch, the arbiter only relaxes when
    /// total demand fits within `usable × (1 - hysteresis)`.
    pub hysteresis: f64,
    /// Maximum per-tick increase of an app's grant fraction while it
    /// recovers from a clip. Downward moves are never limited — capacity
    /// safety always wins immediately.
    pub max_recovery_step: f64,
    /// Growth governor applied by the caller when it builds arbiter
    /// requests: an app's arbitrated demand is its controller's desired
    /// total clamped to `demand_cap_ratio ×` its *current actual*
    /// allocation (with one replica's request as the cold-start base).
    /// PID transients routinely wish for several times what an app holds;
    /// without the clamp those wish-lists count as demand, trip the crunch
    /// flag on a cluster that is not actually short, and let one settling
    /// app's overshoot starve whole lower classes.
    pub demand_cap_ratio: f64,
}

impl Default for ArbiterConfig {
    fn default() -> Self {
        ArbiterConfig {
            headroom_fraction: 0.10,
            floor_fraction: 0.5,
            hysteresis: 0.10,
            max_recovery_step: 0.25,
            demand_cap_ratio: 2.0,
        }
    }
}
