//! Time-weighted utilization accounting.
//!
//! The headline EVOLVE claim is "≥2× higher utilization than stock
//! Kubernetes at far fewer PLO violations". Utilization must therefore be
//! measured carefully: as *time-weighted* integrals, per resource, at two
//! levels — how much of the cluster's capacity is **allocated** (requests)
//! and how much is actually **used**. Over-provisioning shows up as a high
//! allocated/capacity with low used/allocated ratio.

use evolve_types::{Resource, ResourceVec, SimTime};

/// Accumulates time-weighted allocation and usage against a capacity.
///
/// Call [`UtilizationAccount::record`] at every state change (or scrape)
/// with the *current* totals; the account integrates the previous state
/// over the elapsed interval.
///
/// # Examples
///
/// ```
/// use evolve_telemetry::UtilizationAccount;
/// use evolve_types::{Resource, ResourceVec, SimTime};
///
/// let cap = ResourceVec::splat(100.0);
/// let mut acct = UtilizationAccount::new(cap);
/// acct.record(SimTime::from_secs(0), ResourceVec::splat(50.0), ResourceVec::splat(25.0));
/// acct.record(SimTime::from_secs(10), ResourceVec::splat(50.0), ResourceVec::splat(25.0));
/// let s = acct.summary();
/// assert!((s.allocated_share[Resource::Cpu] - 0.5).abs() < 1e-9);
/// assert!((s.used_share[Resource::Cpu] - 0.25).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct UtilizationAccount {
    capacity: ResourceVec,
    last_at: Option<SimTime>,
    last_allocated: ResourceVec,
    last_used: ResourceVec,
    /// ∫ allocated dt per resource.
    allocated_integral: ResourceVec,
    /// ∫ used dt per resource.
    used_integral: ResourceVec,
    /// Total integrated seconds.
    elapsed_secs: f64,
}

/// Aggregated utilization shares over the recorded horizon.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationSummary {
    /// Time-weighted mean of allocated/capacity per resource.
    pub allocated_share: ResourceVec,
    /// Time-weighted mean of used/capacity per resource.
    pub used_share: ResourceVec,
    /// Time-weighted mean of used/allocated per resource (efficiency of the
    /// reservation; 0 where nothing was allocated).
    pub efficiency: ResourceVec,
    /// Seconds of activity integrated.
    pub elapsed_secs: f64,
}

impl UtilizationSummary {
    /// Mean allocated share across the four resources.
    #[must_use]
    pub fn mean_allocated(&self) -> f64 {
        self.allocated_share.total() / 4.0
    }

    /// Mean used share across the four resources.
    #[must_use]
    pub fn mean_used(&self) -> f64 {
        self.used_share.total() / 4.0
    }
}

impl UtilizationAccount {
    /// Creates an account against a fixed cluster capacity.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` has non-finite or negative components.
    #[must_use]
    pub fn new(capacity: ResourceVec) -> Self {
        assert!(capacity.is_valid(), "capacity must be valid");
        UtilizationAccount {
            capacity,
            last_at: None,
            last_allocated: ResourceVec::ZERO,
            last_used: ResourceVec::ZERO,
            allocated_integral: ResourceVec::ZERO,
            used_integral: ResourceVec::ZERO,
            elapsed_secs: 0.0,
        }
    }

    /// The capacity this account measures against.
    #[must_use]
    pub fn capacity(&self) -> ResourceVec {
        self.capacity
    }

    /// Records the cluster state at `at`: current total allocation
    /// (requests) and current total usage. Integrates the *previous* state
    /// over the interval since the previous record; out-of-order calls are
    /// ignored.
    pub fn record(&mut self, at: SimTime, allocated: ResourceVec, used: ResourceVec) {
        if let Some(prev) = self.last_at {
            if at < prev {
                return;
            }
            let dt = at.saturating_since(prev).as_secs_f64();
            self.allocated_integral += self.last_allocated * dt;
            self.used_integral += self.last_used * dt;
            self.elapsed_secs += dt;
        }
        self.last_at = Some(at);
        self.last_allocated = allocated.sanitized();
        self.last_used = used.sanitized();
    }

    /// Finalizes at `at` (integrating the tail interval) and returns the
    /// summary. Can be called repeatedly; later records continue the
    /// integral.
    pub fn finish(&mut self, at: SimTime) -> UtilizationSummary {
        let (alloc, used) = (self.last_allocated, self.last_used);
        self.record(at, alloc, used);
        self.summary()
    }

    /// The summary over everything integrated so far.
    #[must_use]
    pub fn summary(&self) -> UtilizationSummary {
        let mut allocated_share = ResourceVec::ZERO;
        let mut used_share = ResourceVec::ZERO;
        let mut efficiency = ResourceVec::ZERO;
        if self.elapsed_secs > 0.0 {
            let mean_alloc = self.allocated_integral * (1.0 / self.elapsed_secs);
            let mean_used = self.used_integral * (1.0 / self.elapsed_secs);
            allocated_share = mean_alloc.ratio(&self.capacity);
            used_share = mean_used.ratio(&self.capacity);
            efficiency = mean_used.ratio(&mean_alloc);
            for r in Resource::ALL {
                // Usage can transiently exceed allocation (burst above
                // request); efficiency is capped at 1 for reporting.
                efficiency[r] = efficiency[r].min(1.0);
            }
        }
        UtilizationSummary {
            allocated_share,
            used_share,
            efficiency,
            elapsed_secs: self.elapsed_secs,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn constant_state_integrates_exactly() {
        let mut a = UtilizationAccount::new(ResourceVec::splat(10.0));
        a.record(t(0), ResourceVec::splat(5.0), ResourceVec::splat(2.0));
        a.record(t(100), ResourceVec::splat(5.0), ResourceVec::splat(2.0));
        let s = a.summary();
        assert!((s.mean_allocated() - 0.5).abs() < 1e-9);
        assert!((s.mean_used() - 0.2).abs() < 1e-9);
        assert!((s.efficiency[Resource::Cpu] - 0.4).abs() < 1e-9);
        assert_eq!(s.elapsed_secs, 100.0);
    }

    #[test]
    fn step_change_weighted_by_time() {
        let mut a = UtilizationAccount::new(ResourceVec::splat(10.0));
        a.record(t(0), ResourceVec::splat(0.0), ResourceVec::ZERO);
        a.record(t(50), ResourceVec::splat(10.0), ResourceVec::ZERO);
        a.record(t(100), ResourceVec::splat(10.0), ResourceVec::ZERO);
        // 50s at 0 + 50s at full → mean 0.5.
        let s = a.summary();
        assert!((s.mean_allocated() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn finish_integrates_tail() {
        let mut a = UtilizationAccount::new(ResourceVec::splat(4.0));
        a.record(t(0), ResourceVec::splat(4.0), ResourceVec::splat(4.0));
        let s = a.finish(t(10));
        assert!((s.mean_allocated() - 1.0).abs() < 1e-9);
        assert!((s.mean_used() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_account_is_zero() {
        let a = UtilizationAccount::new(ResourceVec::splat(1.0));
        let s = a.summary();
        assert_eq!(s.mean_allocated(), 0.0);
        assert_eq!(s.elapsed_secs, 0.0);
    }

    #[test]
    fn out_of_order_records_ignored() {
        let mut a = UtilizationAccount::new(ResourceVec::splat(1.0));
        a.record(t(10), ResourceVec::splat(1.0), ResourceVec::splat(1.0));
        a.record(t(5), ResourceVec::splat(0.0), ResourceVec::splat(0.0)); // ignored
        a.record(t(20), ResourceVec::splat(1.0), ResourceVec::splat(1.0));
        let s = a.summary();
        assert!((s.mean_allocated() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn efficiency_capped_at_one() {
        let mut a = UtilizationAccount::new(ResourceVec::splat(10.0));
        // Usage above allocation (bursting).
        a.record(t(0), ResourceVec::splat(2.0), ResourceVec::splat(4.0));
        a.record(t(10), ResourceVec::splat(2.0), ResourceVec::splat(4.0));
        let s = a.summary();
        assert_eq!(s.efficiency[Resource::Cpu], 1.0);
    }

    #[test]
    fn per_resource_independence() {
        let cap = ResourceVec::new(10.0, 100.0, 10.0, 10.0);
        let mut a = UtilizationAccount::new(cap);
        let alloc = ResourceVec::new(5.0, 10.0, 0.0, 10.0);
        a.record(t(0), alloc, ResourceVec::ZERO);
        a.record(t(1), alloc, ResourceVec::ZERO);
        let s = a.summary();
        assert!((s.allocated_share[Resource::Cpu] - 0.5).abs() < 1e-9);
        assert!((s.allocated_share[Resource::Memory] - 0.1).abs() < 1e-9);
        assert_eq!(s.allocated_share[Resource::DiskIo], 0.0);
        assert!((s.allocated_share[Resource::NetIo] - 1.0).abs() < 1e-9);
    }
}
