//! Per-request demand modelling.
//!
//! Every request carries a multi-resource demand vector:
//!
//! | dimension | meaning for one request |
//! |---|---|
//! | CPU | millicore·seconds of compute to drain |
//! | Memory | MiB of working set held while the request is in flight |
//! | Disk I/O | MB to transfer at the replica's disk allocation |
//! | Net I/O | MB to transfer at the replica's network allocation |
//!
//! Demands are sampled log-normally around the class mean with a
//! configurable coefficient of variation — service times in real systems
//! are right-skewed, and the tail is what a p99 PLO fights.

use evolve_types::{AppId, Resource, ResourceVec, SimDuration, SimTime};
use rand::Rng;

use crate::sampling::{LogNormal, SamplingMode};

/// A class of requests with a common demand distribution.
///
/// # Examples
///
/// ```
/// use evolve_workload::{RequestClass, SamplingMode};
/// use evolve_types::{ResourceVec, SimDuration};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// // A CPU-heavy API call: 20 mcore·s compute, 2 MiB working set,
/// // negligible disk, 0.05 MB of network transfer.
/// let class = RequestClass::new(
///     "api",
///     ResourceVec::new(20.0, 2.0, 0.0, 0.05),
///     0.5,
///     SimDuration::from_secs(10),
/// );
/// let mut rng = ChaCha8Rng::seed_from_u64(1);
/// let demand = class.sample_demand_with(SamplingMode::Batched, &mut rng);
/// assert!(demand.cpu() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RequestClass {
    name: String,
    mean_demand: ResourceVec,
    timeout: SimDuration,
    /// Demand multiplier distribution (mean 1.0), with its log-normal
    /// parameters precomputed once instead of per sampled request.
    multiplier: LogNormal,
}

impl RequestClass {
    /// Creates a request class.
    ///
    /// # Panics
    ///
    /// Panics when `mean_demand` is invalid or all-zero, `cv` is negative,
    /// or `timeout` is zero.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        mean_demand: ResourceVec,
        cv: f64,
        timeout: SimDuration,
    ) -> Self {
        assert!(mean_demand.is_valid(), "mean demand must be valid");
        assert!(!mean_demand.is_zero(), "mean demand must be non-zero");
        assert!(!timeout.is_zero(), "timeout must be positive");
        // LogNormal::new validates cv >= 0.
        RequestClass {
            name: name.into(),
            mean_demand,
            timeout,
            multiplier: LogNormal::new(1.0, cv),
        }
    }

    /// The class name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Mean demand per request.
    #[must_use]
    pub fn mean_demand(&self) -> ResourceVec {
        self.mean_demand
    }

    /// Demand coefficient of variation.
    #[must_use]
    pub fn cv(&self) -> f64 {
        self.multiplier.cv()
    }

    /// Per-request timeout.
    #[must_use]
    pub fn timeout(&self) -> SimDuration {
        self.timeout
    }

    /// Samples one request's demand vector. All rate dimensions share one
    /// log-normal multiplier (a "big" request is big everywhere), keeping
    /// per-dimension ratios stable, which is how real request fan-out
    /// behaves. `Batched` draws the multiplier's normal from the ziggurat,
    /// as the engine does; `Legacy` keeps the Box–Muller stream bit for bit.
    pub fn sample_demand_with<R: Rng + ?Sized>(
        &self,
        mode: SamplingMode,
        rng: &mut R,
    ) -> ResourceVec {
        if self.multiplier.cv() == 0.0 {
            return self.mean_demand;
        }
        let multiplier = self.multiplier.sample_with(mode, rng);
        let mut d = self.mean_demand * multiplier;
        // Working set scales much less than compute with request size.
        d[Resource::Memory] = self.mean_demand[Resource::Memory] * multiplier.sqrt();
        d
    }
}

/// One in-flight request instance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Globally unique request id.
    pub id: u64,
    /// The application this request targets.
    pub app: AppId,
    /// Sampled demand for this instance.
    pub demand: ResourceVec,
    /// Arrival time.
    pub arrived: SimTime,
    /// Timeout copied from the class.
    pub timeout: SimDuration,
}

impl Request {
    /// The absolute deadline after which the request counts as timed out.
    #[must_use]
    pub fn deadline(&self) -> SimTime {
        self.arrived + self.timeout
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn class(cv: f64) -> RequestClass {
        RequestClass::new("t", ResourceVec::new(10.0, 4.0, 1.0, 0.5), cv, SimDuration::from_secs(5))
    }

    #[test]
    fn zero_cv_is_deterministic() {
        let c = class(0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(c.sample_demand_with(SamplingMode::Batched, &mut rng), c.mean_demand());
    }

    #[test]
    fn sampled_mean_tracks_class_mean() {
        let c = class(0.8);
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let n = 50_000;
        let total: ResourceVec =
            (0..n).map(|_| c.sample_demand_with(SamplingMode::Batched, &mut rng)).sum();
        let mean = total * (1.0 / f64::from(n));
        assert!((mean.cpu() - 10.0).abs() / 10.0 < 0.05, "cpu mean {}", mean.cpu());
        assert!((mean.disk_io() - 1.0).abs() < 0.05);
    }

    #[test]
    fn demand_ratios_preserved_for_rate_dimensions() {
        let c = class(1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..100 {
            let d = c.sample_demand_with(SamplingMode::Batched, &mut rng);
            // cpu:disk ratio stays 10:1.
            assert!((d.cpu() / d.disk_io() - 10.0).abs() < 1e-9);
        }
    }

    #[test]
    fn memory_scales_sublinearly() {
        let c = class(2.0);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..200 {
            let d = c.sample_demand_with(SamplingMode::Batched, &mut rng);
            let cpu_mult = d.cpu() / 10.0;
            let mem_mult = d.memory() / 4.0;
            if cpu_mult > 1.0 {
                assert!(mem_mult <= cpu_mult + 1e-9);
            }
        }
    }

    #[test]
    fn request_deadline() {
        let r = Request {
            id: 1,
            app: AppId::new(0),
            demand: ResourceVec::splat(1.0),
            arrived: SimTime::from_secs(10),
            timeout: SimDuration::from_secs(5),
        };
        assert_eq!(r.deadline(), SimTime::from_secs(15));
    }

    #[test]
    #[should_panic(expected = "demand must be non-zero")]
    fn rejects_zero_demand() {
        let _ = RequestClass::new("z", ResourceVec::ZERO, 0.5, SimDuration::from_secs(1));
    }
}
