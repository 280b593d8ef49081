//! On-line performance models.
//!
//! "Skynet builds a model on-the-fly to map target PLOs to resources for
//! each application." The model layer here does the equivalent job for
//! EVOLVE: a small recursive-least-squares (RLS) engine learns how the
//! measured performance responds to each resource's allocation, and the
//! [`SensitivityModel`] turns that into an **attribution vector** — which
//! fraction of the PLO error each resource dimension should absorb.

use evolve_types::codec::{Codec, Decoder, Encoder};
use evolve_types::{Resource, ResourceVec, Result, NUM_RESOURCES};

/// Inputs of an [`RlsModel`]: one per resource dimension.
const DIM: usize = NUM_RESOURCES;
/// The RLS forgetting factor in `(0, 1]`; smaller forgets faster.
const LAMBDA: f64 = 0.97;

/// Recursive least squares with exponential forgetting (λ = 0.97) for a
/// linear model `y ≈ w · x` over four inputs.
///
/// # Examples
///
/// ```
/// use evolve_control::RlsModel;
///
/// let mut m = RlsModel::new();
/// // Learn y = 3*x0 + 1*x1 from noiseless samples.
/// for i in 0..200 {
///     let x = [f64::from(i % 10), f64::from((i * 7) % 5), 0.0, 0.0];
///     let y = 3.0 * x[0] + x[1];
///     m.update(&x, y);
/// }
/// let pred = m.predict(&[2.0, 1.0, 0.0, 0.0]);
/// assert!((pred - 7.0).abs() < 0.1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RlsModel {
    /// Weight vector.
    w: [f64; DIM],
    /// Inverse covariance matrix, row-major `DIM × DIM`.
    p: [f64; DIM * DIM],
    updates: u64,
}

impl Default for RlsModel {
    fn default() -> Self {
        RlsModel::new()
    }
}

impl RlsModel {
    /// Creates an untrained model.
    #[must_use]
    pub fn new() -> Self {
        let mut p = [0.0; DIM * DIM];
        for i in 0..DIM {
            p[i * DIM + i] = 1_000.0; // large prior covariance: fast initial learning
        }
        RlsModel { w: [0.0; DIM], p, updates: 0 }
    }

    /// Number of updates applied.
    #[must_use]
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Current weights.
    #[must_use]
    pub fn weights(&self) -> &[f64; DIM] {
        &self.w
    }

    /// Predicts `w · x`.
    #[must_use]
    pub fn predict(&self, x: &[f64; DIM]) -> f64 {
        self.w.iter().zip(x).map(|(w, x)| w * x).sum()
    }

    /// Feeds one `(x, y)` observation. Non-finite inputs are ignored.
    pub fn update(&mut self, x: &[f64; DIM], y: f64) {
        if !y.is_finite() || x.iter().any(|v| !v.is_finite()) {
            return;
        }
        // The scratch lives on the stack: an update allocates nothing.
        let (mut px, mut xp) = ([0.0; DIM], [0.0; DIM]);
        // k = P x / (λ + xᵀ P x)
        for (i, pxi) in px.iter_mut().enumerate() {
            for (j, xj) in x.iter().enumerate() {
                *pxi += self.p[i * DIM + j] * xj;
            }
        }
        let denom = LAMBDA + x.iter().zip(px.iter()).map(|(a, b)| a * b).sum::<f64>();
        if denom.abs() < 1e-12 {
            return;
        }
        // `P x` becomes `k`: nothing reads it after this.
        let mut k = px;
        for v in k.iter_mut() {
            *v /= denom;
        }
        let err = y - self.predict(x);
        for (wi, ki) in self.w.iter_mut().zip(k.iter()) {
            *wi += ki * err;
        }
        // P = (P - k xᵀ P) / λ
        for (j, xpj) in xp.iter_mut().enumerate() {
            for (i, xi) in x.iter().enumerate() {
                *xpj += xi * self.p[i * DIM + j];
            }
        }
        for (i, ki) in k.iter().enumerate() {
            for (j, xpj) in xp.iter().enumerate() {
                self.p[i * DIM + j] = (self.p[i * DIM + j] - ki * xpj) / LAMBDA;
            }
        }
        self.updates += 1;
    }
}

impl Codec for RlsModel {
    fn encode(&self, enc: &mut Encoder) {
        self.w.encode(enc);
        self.p.encode(enc);
        self.updates.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(RlsModel {
            w: <[f64; DIM]>::decode(dec)?,
            p: <[f64; DIM * DIM]>::decode(dec)?,
            updates: u64::decode(dec)?,
        })
    }
}

/// Learns per-resource performance sensitivities and attributes control
/// error across the four resource dimensions.
///
/// Each control period the caller reports the per-replica allocation, the
/// measured per-replica *usage* and the control error. The model combines
/// two signals:
///
/// 1. **pressure** — how close usage runs to allocation in each dimension
///    (a resource at 95% of its allocation is a bottleneck candidate);
/// 2. **learned sensitivity** — an RLS estimate of ∂error/∂(log alloc)
///    per dimension, from the observed history of allocation changes.
///
/// The result of [`SensitivityModel::attribution`] is a non-negative
/// vector summing to 1: the share of the PLO error each resource PID
/// should absorb.
///
/// # Examples
///
/// ```
/// use evolve_control::SensitivityModel;
/// use evolve_types::{Resource, ResourceVec};
///
/// let mut m = SensitivityModel::new();
/// let alloc = ResourceVec::new(1000.0, 1024.0, 100.0, 100.0);
/// // CPU runs hot, everything else is idle.
/// let usage = ResourceVec::new(980.0, 128.0, 5.0, 5.0);
/// m.observe(alloc, usage, 0.4);
/// let attr = m.attribution();
/// assert!(attr[Resource::Cpu] > 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SensitivityModel {
    /// RLS on Δerror vs Δlog-allocation (captures which knob moved the
    /// needle historically).
    rls: RlsModel,
    prev: Option<(ResourceVec, f64)>,
    /// Smoothed pressure per resource.
    pressure: [f64; NUM_RESOURCES],
    /// Smoothed per-request serial time (seconds) per rate resource —
    /// the latency decomposition signal (see `observe_with_profile`).
    serial: [f64; NUM_RESOURCES],
    has_serial: bool,
    observations: u64,
}

impl Default for SensitivityModel {
    fn default() -> Self {
        SensitivityModel::new()
    }
}

impl SensitivityModel {
    /// Creates an untrained model (uniform attribution until data arrives).
    #[must_use]
    pub fn new() -> Self {
        SensitivityModel {
            rls: RlsModel::new(),
            prev: None,
            pressure: [0.0; NUM_RESOURCES],
            serial: [0.0; NUM_RESOURCES],
            has_serial: false,
            observations: 0,
        }
    }

    /// Number of observations fed.
    #[must_use]
    pub fn observations(&self) -> u64 {
        self.observations
    }

    /// Like [`SensitivityModel::observe`], but with the per-replica
    /// request throughput, enabling the **latency decomposition**: the
    /// serial time a request spends on resource `r` is
    /// `usage_r / (throughput × alloc_r)` (work per request over drain
    /// rate). Throughput pressure alone misses a resource whose
    /// *per-request* drain dominates latency while its utilization stays
    /// low — the classic "disk floor" failure of CPU-centric autoscalers.
    pub fn observe_with_profile(
        &mut self,
        alloc: ResourceVec,
        usage: ResourceVec,
        per_replica_rps: f64,
        error: f64,
    ) {
        const SERIAL_ALPHA: f64 = 0.4;
        if per_replica_rps > 1e-9 {
            for r in [Resource::Cpu, Resource::DiskIo, Resource::NetIo] {
                let a = alloc[r];
                if a > 0.0 {
                    let per_request_work = usage[r] / per_replica_rps;
                    let serial = per_request_work / a;
                    let i = r.index();
                    self.serial[i] += SERIAL_ALPHA * (serial - self.serial[i]);
                }
            }
            self.has_serial = true;
        }
        self.observe(alloc, usage, error);
    }

    /// Feeds one control period: the per-replica allocation **in force
    /// during the window**, the measured per-replica usage, and the PLO
    /// control error measured under that allocation (positive →
    /// under-provisioned).
    pub fn observe(&mut self, alloc: ResourceVec, usage: ResourceVec, error: f64) {
        const PRESSURE_ALPHA: f64 = 0.4;
        for r in Resource::ALL {
            let a = alloc[r];
            let p = if a > 0.0 { (usage[r] / a).clamp(0.0, 2.0) } else { 0.0 };
            let i = r.index();
            self.pressure[i] += PRESSURE_ALPHA * (p - self.pressure[i]);
        }
        if let Some((prev_alloc, prev_error)) = self.prev {
            // Δ log-allocation per resource as regressors, Δerror as target.
            let mut dx = [0.0; NUM_RESOURCES];
            let mut any = false;
            for r in Resource::ALL {
                let (a0, a1) = (prev_alloc[r], alloc[r]);
                if a0 > 0.0 && a1 > 0.0 {
                    dx[r.index()] = (a1 / a0).ln();
                    if dx[r.index()].abs() > 1e-9 {
                        any = true;
                    }
                }
            }
            if any {
                self.rls.update(&dx, error - prev_error);
            }
        }
        self.prev = Some((alloc, error));
        self.observations += 1;
    }

    /// Learned ∂error/∂(log alloc) per resource (negative values mean
    /// "growing this resource reduces the error", i.e. the resource
    /// matters).
    #[must_use]
    pub fn learned_sensitivity(&self) -> ResourceVec {
        let w = self.rls.weights();
        ResourceVec::new(w[0], w[1], w[2], w[3])
    }

    /// Smoothed per-request serial time in **seconds** per rate resource
    /// (zero for memory and before any profile observation).
    #[must_use]
    pub fn serial_secs(&self) -> ResourceVec {
        ResourceVec::new(self.serial[0], self.serial[1], self.serial[2], self.serial[3])
    }

    /// Current smoothed pressure (usage/allocation) per resource.
    #[must_use]
    pub fn pressure(&self) -> ResourceVec {
        ResourceVec::new(self.pressure[0], self.pressure[1], self.pressure[2], self.pressure[3])
    }

    /// The attribution vector: non-negative, sums to 1.
    ///
    /// Blends pressure (immediately informative) with learned sensitivity
    /// (authoritative once enough allocation changes were observed). Falls
    /// back to uniform attribution with no data.
    #[must_use]
    pub fn attribution(&self) -> ResourceVec {
        // Pressure contribution: emphasize near-saturation superlinearly.
        let mut score: [f64; NUM_RESOURCES] =
            std::array::from_fn(|i| self.pressure[i].max(0.0).powi(3));
        // Latency decomposition: blend in each rate resource's share of
        // the per-request serial time (dominant when available — it is
        // the direct answer to "which resource makes requests slow?").
        if self.has_serial {
            let total_serial: f64 = self.serial.iter().sum();
            if total_serial > 1e-12 {
                for (sc, serial) in score.iter_mut().zip(&self.serial) {
                    *sc = 0.3 * *sc + 0.7 * (serial / total_serial);
                }
            }
        }
        // Learned contribution: a *negative* weight on Δerror vs Δlog-alloc
        // means adding that resource helps; convert to positive salience.
        if self.rls.updates() >= 8 {
            let w = self.rls.weights();
            let max_mag = w.iter().fold(0.0_f64, |m, v| m.max(v.abs())).max(1e-9);
            for i in 0..NUM_RESOURCES {
                let helpful = (-w[i]).max(0.0) / max_mag;
                score[i] = 0.5 * score[i] + 0.5 * helpful;
            }
        }
        let total: f64 = score.iter().sum();
        if total <= 1e-12 || self.observations == 0 {
            return ResourceVec::splat(1.0 / NUM_RESOURCES as f64);
        }
        // Blend with a uniform floor: every dimension keeps a small share
        // of the error. This is deliberate *exploration* — a latency floor
        // caused by an under-allocated rate resource shows neither
        // pressure nor (until the allocation moves) learnable
        // sensitivity; the floor guarantees the excitation that lets the
        // RLS discover it.
        const EXPLORE: f64 = 0.08;
        let uniform = 1.0 / NUM_RESOURCES as f64;
        ResourceVec::new(
            (1.0 - EXPLORE) * score[0] / total + EXPLORE * uniform,
            (1.0 - EXPLORE) * score[1] / total + EXPLORE * uniform,
            (1.0 - EXPLORE) * score[2] / total + EXPLORE * uniform,
            (1.0 - EXPLORE) * score[3] / total + EXPLORE * uniform,
        )
    }
}

impl Codec for SensitivityModel {
    fn encode(&self, enc: &mut Encoder) {
        self.rls.encode(enc);
        self.prev.encode(enc);
        self.pressure.encode(enc);
        self.serial.encode(enc);
        self.has_serial.encode(enc);
        self.observations.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(SensitivityModel {
            rls: RlsModel::decode(dec)?,
            prev: Option::<(ResourceVec, f64)>::decode(dec)?,
            pressure: <[f64; NUM_RESOURCES]>::decode(dec)?,
            serial: <[f64; NUM_RESOURCES]>::decode(dec)?,
            has_serial: bool::decode(dec)?,
            observations: u64::decode(dec)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rls_learns_linear_function() {
        let mut m = RlsModel::new();
        let mut seed = 1u64;
        for _ in 0..500 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let x = [
                ((seed >> 16) % 100) as f64 / 10.0,
                ((seed >> 24) % 100) as f64 / 10.0,
                ((seed >> 32) % 100) as f64 / 10.0,
                ((seed >> 40) % 100) as f64 / 10.0,
            ];
            let y = 2.0 * x[0] - 1.0 * x[1] + 0.5 * x[2] + 0.25 * x[3];
            m.update(&x, y);
        }
        let w = m.weights();
        assert!((w[0] - 2.0).abs() < 0.05, "w0 {}", w[0]);
        assert!((w[1] + 1.0).abs() < 0.05, "w1 {}", w[1]);
        assert!((w[2] - 0.5).abs() < 0.05, "w2 {}", w[2]);
        assert!((w[3] - 0.25).abs() < 0.05, "w3 {}", w[3]);
    }

    #[test]
    fn rls_forgetting_tracks_drift() {
        let mut m = RlsModel::new();
        let x = [1.0, 0.0, 0.0, 0.0];
        for _ in 0..100 {
            m.update(&x, 1.0);
        }
        assert!((m.predict(&x) - 1.0).abs() < 0.05);
        // The relationship changes; λ = 0.97 forgets the old one within
        // a few hundred updates.
        for _ in 0..200 {
            m.update(&x, 5.0);
        }
        assert!((m.predict(&x) - 5.0).abs() < 0.1);
    }

    #[test]
    fn rls_ignores_non_finite() {
        let mut m = RlsModel::new();
        m.update(&[f64::NAN, 0.0, 0.0, 0.0], 1.0);
        m.update(&[1.0, 0.0, 0.0, 0.0], f64::INFINITY);
        assert_eq!(m.updates(), 0);
    }

    #[test]
    fn untrained_attribution_is_uniform() {
        let m = SensitivityModel::new();
        let a = m.attribution();
        for r in Resource::ALL {
            assert!((a[r] - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn pressure_identifies_bottleneck() {
        let mut m = SensitivityModel::new();
        let alloc = ResourceVec::new(1000.0, 1000.0, 100.0, 100.0);
        let usage = ResourceVec::new(200.0, 100.0, 98.0, 10.0);
        for _ in 0..10 {
            m.observe(alloc, usage, 0.5);
        }
        let attr = m.attribution();
        assert!(attr[Resource::DiskIo] > 0.6, "disk attribution {attr}");
        let sum: f64 = Resource::ALL.iter().map(|r| attr[*r]).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn attribution_is_normalized_and_non_negative() {
        let mut m = SensitivityModel::new();
        let mut alloc = ResourceVec::splat(100.0);
        for i in 0..50 {
            // Vary allocations so the RLS sees excitation.
            alloc[Resource::Cpu] = 100.0 + f64::from(i % 7) * 10.0;
            let usage = alloc * 0.5;
            m.observe(alloc, usage, f64::from(i % 3) * 0.1);
        }
        let attr = m.attribution();
        let mut sum = 0.0;
        for r in Resource::ALL {
            assert!(attr[r] >= 0.0);
            sum += attr[r];
        }
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn learned_sensitivity_finds_effective_resource() {
        let mut m = SensitivityModel::new();
        // Simulate: error falls when CPU allocation grows, other resources
        // are irrelevant. Alternate CPU between two levels; per the
        // `observe` contract the error is the one measured *under* the
        // reported allocation.
        for i in 0..60 {
            let cpu = if i % 2 == 0 { 1000.0 } else { 2000.0 };
            let error = if cpu > 1500.0 { 0.2 } else { 1.0 };
            let alloc = ResourceVec::new(cpu, 512.0, 50.0, 50.0);
            let usage = ResourceVec::new(cpu * 0.9, 100.0, 5.0, 5.0);
            m.observe(alloc, usage, error);
        }
        let s = m.learned_sensitivity();
        // Growing CPU reduced the error → negative weight for CPU.
        assert!(s[Resource::Cpu] < 0.0, "cpu sensitivity {}", s[Resource::Cpu]);
    }
}
