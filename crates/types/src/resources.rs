//! Multi-resource quantities.
//!
//! EVOLVE manages four resource dimensions per node and per pod, following
//! the Skynet/EVOLVE line of work: CPU, memory, disk I/O bandwidth and
//! network I/O bandwidth. [`ResourceVec`] packs one `f64` per dimension with
//! the units fixed by convention:
//!
//! | dimension | unit |
//! |---|---|
//! | [`Resource::Cpu`] | millicores |
//! | [`Resource::Memory`] | MiB |
//! | [`Resource::DiskIo`] | MB/s |
//! | [`Resource::NetIo`] | MB/s |

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Index, IndexMut, Mul, Sub, SubAssign};

/// Number of resource dimensions managed by the platform.
pub const NUM_RESOURCES: usize = 4;

/// One of the four resource dimensions EVOLVE manages.
///
/// # Examples
///
/// ```
/// use evolve_types::Resource;
///
/// for r in Resource::ALL {
///     println!("{r}");
/// }
/// assert_eq!(Resource::Cpu.index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Resource {
    /// Compute, in millicores (1000 = one core).
    Cpu,
    /// Memory, in MiB. Unlike the other three, memory is *space*, not rate.
    Memory,
    /// Disk I/O bandwidth, in MB/s.
    DiskIo,
    /// Network I/O bandwidth, in MB/s.
    NetIo,
}

impl Resource {
    /// All resources, in index order.
    pub const ALL: [Resource; NUM_RESOURCES] =
        [Resource::Cpu, Resource::Memory, Resource::DiskIo, Resource::NetIo];

    /// Position of this resource inside a [`ResourceVec`].
    #[must_use]
    pub const fn index(self) -> usize {
        match self {
            Resource::Cpu => 0,
            Resource::Memory => 1,
            Resource::DiskIo => 2,
            Resource::NetIo => 3,
        }
    }

    /// Short lowercase label used in reports and CSV headers.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            Resource::Cpu => "cpu",
            Resource::Memory => "mem",
            Resource::DiskIo => "disk",
            Resource::NetIo => "net",
        }
    }

    /// Unit string for human-readable output.
    #[must_use]
    pub const fn unit(self) -> &'static str {
        match self {
            Resource::Cpu => "mcores",
            Resource::Memory => "MiB",
            Resource::DiskIo => "MB/s",
            Resource::NetIo => "MB/s",
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A quantity in each of the four resource dimensions.
///
/// `ResourceVec` is used for node capacities, pod requests/limits, measured
/// usage and controller outputs. All operations are element-wise;
/// subtraction saturates at zero so that accounting code can never produce
/// negative availability.
///
/// # Examples
///
/// ```
/// use evolve_types::{Resource, ResourceVec};
///
/// let capacity = ResourceVec::new(8_000.0, 32_768.0, 400.0, 1_000.0);
/// let used = ResourceVec::new(6_000.0, 8_192.0, 100.0, 900.0);
/// let free = capacity - used;
/// assert_eq!(free[Resource::Cpu], 2_000.0);
///
/// // The dominant share identifies the binding resource.
/// let (binding, share) = used.dominant(&capacity);
/// assert_eq!(binding, Resource::NetIo);
/// assert!((share - 0.9).abs() < 1e-12);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ResourceVec([f64; NUM_RESOURCES]);

impl ResourceVec {
    /// The all-zero vector.
    pub const ZERO: ResourceVec = ResourceVec([0.0; NUM_RESOURCES]);

    /// Creates a vector from explicit per-dimension quantities
    /// (cpu millicores, memory MiB, disk MB/s, net MB/s).
    #[must_use]
    pub const fn new(cpu: f64, memory: f64, disk_io: f64, net_io: f64) -> Self {
        ResourceVec([cpu, memory, disk_io, net_io])
    }

    /// Creates a vector with the same quantity in every dimension.
    #[must_use]
    pub const fn splat(value: f64) -> Self {
        ResourceVec([value; NUM_RESOURCES])
    }

    /// A vector that is zero everywhere except `resource`.
    #[must_use]
    pub fn unit(resource: Resource, value: f64) -> Self {
        let mut v = ResourceVec::ZERO;
        v[resource] = value;
        v
    }

    /// CPU millicores.
    #[must_use]
    pub const fn cpu(&self) -> f64 {
        self.0[0]
    }

    /// Memory in MiB.
    #[must_use]
    pub const fn memory(&self) -> f64 {
        self.0[1]
    }

    /// Disk I/O bandwidth in MB/s.
    #[must_use]
    pub const fn disk_io(&self) -> f64 {
        self.0[2]
    }

    /// Network I/O bandwidth in MB/s.
    #[must_use]
    pub const fn net_io(&self) -> f64 {
        self.0[3]
    }

    /// Borrows the raw per-dimension array (index order of [`Resource::ALL`]).
    #[must_use]
    pub const fn as_array(&self) -> &[f64; NUM_RESOURCES] {
        &self.0
    }

    /// `true` when every component fits inside `other` (element-wise `<=`,
    /// with a small epsilon so accounting round-off does not spuriously
    /// reject placements).
    #[must_use]
    pub fn fits_within(&self, other: &ResourceVec) -> bool {
        const EPS: f64 = 1e-9;
        self.0.iter().zip(other.0.iter()).all(|(a, b)| *a <= *b + EPS)
    }

    /// Element-wise maximum.
    #[must_use]
    pub fn max(&self, other: &ResourceVec) -> ResourceVec {
        let mut out = *self;
        for i in 0..NUM_RESOURCES {
            out.0[i] = out.0[i].max(other.0[i]);
        }
        out
    }

    /// Element-wise minimum.
    #[must_use]
    pub fn min(&self, other: &ResourceVec) -> ResourceVec {
        let mut out = *self;
        for i in 0..NUM_RESOURCES {
            out.0[i] = out.0[i].min(other.0[i]);
        }
        out
    }

    /// Clamps every component between the matching components of `lo` and
    /// `hi`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when some `lo` component exceeds `hi`.
    #[must_use]
    pub fn clamp(&self, lo: &ResourceVec, hi: &ResourceVec) -> ResourceVec {
        debug_assert!(lo.fits_within(hi), "clamp bounds inverted");
        self.max(lo).min(hi)
    }

    /// The dominant share of `self` relative to `capacity`: the resource
    /// with the highest `self_r / capacity_r` ratio and that ratio.
    /// Dimensions with zero capacity are skipped; if all capacities are zero
    /// the result is `(Resource::Cpu, 0.0)`.
    #[must_use]
    pub fn dominant(&self, capacity: &ResourceVec) -> (Resource, f64) {
        let mut best = (Resource::Cpu, 0.0_f64);
        for r in Resource::ALL {
            let cap = capacity[r];
            if cap > 0.0 {
                let share = self[r] / cap;
                if share > best.1 {
                    best = (r, share);
                }
            }
        }
        best
    }

    /// Element-wise ratio `self_r / other_r`; dimensions where `other` is
    /// zero yield zero.
    #[must_use]
    pub fn ratio(&self, other: &ResourceVec) -> ResourceVec {
        let mut out = ResourceVec::ZERO;
        for i in 0..NUM_RESOURCES {
            if other.0[i] > 0.0 {
                out.0[i] = self.0[i] / other.0[i];
            }
        }
        out
    }

    /// Sum of all components (dimensionally meaningless, but useful for
    /// tie-breaking and tests).
    #[must_use]
    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }

    /// `true` when every component is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|v| *v == 0.0)
    }

    /// `true` when every component is finite and non-negative — the
    /// invariant expected of capacities, requests and usage.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.0.iter().all(|v| v.is_finite() && *v >= 0.0)
    }

    /// Replaces non-finite or negative components with zero, restoring the
    /// validity invariant after floating-point drift.
    #[must_use]
    pub fn sanitized(&self) -> ResourceVec {
        let mut out = *self;
        for v in &mut out.0 {
            if !v.is_finite() || *v < 0.0 {
                *v = 0.0;
            }
        }
        out
    }
}

impl Index<Resource> for ResourceVec {
    type Output = f64;
    fn index(&self, r: Resource) -> &f64 {
        &self.0[r.index()]
    }
}

impl IndexMut<Resource> for ResourceVec {
    fn index_mut(&mut self, r: Resource) -> &mut f64 {
        &mut self.0[r.index()]
    }
}

impl Add for ResourceVec {
    type Output = ResourceVec;
    fn add(self, rhs: ResourceVec) -> ResourceVec {
        let mut out = self;
        for i in 0..NUM_RESOURCES {
            out.0[i] += rhs.0[i];
        }
        out
    }
}

impl AddAssign for ResourceVec {
    fn add_assign(&mut self, rhs: ResourceVec) {
        *self = *self + rhs;
    }
}

impl Sub for ResourceVec {
    type Output = ResourceVec;
    /// Element-wise subtraction, saturating at zero.
    fn sub(self, rhs: ResourceVec) -> ResourceVec {
        let mut out = self;
        for i in 0..NUM_RESOURCES {
            out.0[i] = (out.0[i] - rhs.0[i]).max(0.0);
        }
        out
    }
}

impl SubAssign for ResourceVec {
    fn sub_assign(&mut self, rhs: ResourceVec) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for ResourceVec {
    type Output = ResourceVec;
    fn mul(self, rhs: f64) -> ResourceVec {
        let mut out = self;
        for v in &mut out.0 {
            *v *= rhs;
        }
        out
    }
}

impl Sum for ResourceVec {
    fn sum<I: Iterator<Item = ResourceVec>>(iter: I) -> ResourceVec {
        iter.fold(ResourceVec::ZERO, |acc, v| acc + v)
    }
}

impl fmt::Display for ResourceVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[cpu={:.0}m mem={:.0}MiB disk={:.1}MB/s net={:.1}MB/s]",
            self.cpu(),
            self.memory(),
            self.disk_io(),
            self.net_io()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(c: f64, m: f64, d: f64, n: f64) -> ResourceVec {
        ResourceVec::new(c, m, d, n)
    }

    #[test]
    fn index_roundtrip() {
        for (i, r) in Resource::ALL.into_iter().enumerate() {
            assert_eq!(r.index(), i);
            assert_eq!(Resource::ALL[r.index()], r);
        }
    }

    #[test]
    fn accessors_match_indexing() {
        let a = v(1.0, 2.0, 3.0, 4.0);
        assert_eq!(a.cpu(), a[Resource::Cpu]);
        assert_eq!(a.memory(), a[Resource::Memory]);
        assert_eq!(a.disk_io(), a[Resource::DiskIo]);
        assert_eq!(a.net_io(), a[Resource::NetIo]);
    }

    #[test]
    fn add_sub_are_elementwise() {
        let a = v(1.0, 2.0, 3.0, 4.0);
        let b = v(10.0, 20.0, 30.0, 40.0);
        assert_eq!(a + b, v(11.0, 22.0, 33.0, 44.0));
        assert_eq!(b - a, v(9.0, 18.0, 27.0, 36.0));
    }

    #[test]
    fn sub_saturates_at_zero() {
        let a = v(1.0, 5.0, 0.0, 2.0);
        let b = v(3.0, 1.0, 1.0, 2.0);
        assert_eq!(a - b, v(0.0, 4.0, 0.0, 0.0));
    }

    #[test]
    fn fits_within_uses_every_dimension() {
        let cap = v(10.0, 10.0, 10.0, 10.0);
        assert!(v(10.0, 10.0, 10.0, 10.0).fits_within(&cap));
        assert!(!v(10.1, 0.0, 0.0, 0.0).fits_within(&cap));
        assert!(!v(0.0, 0.0, 0.0, 10.1).fits_within(&cap));
    }

    #[test]
    fn fits_within_tolerates_round_off() {
        let cap = v(1.0, 1.0, 1.0, 1.0);
        let almost = v(1.0 + 1e-12, 1.0, 1.0, 1.0);
        assert!(almost.fits_within(&cap));
    }

    #[test]
    fn dominant_identifies_binding_resource() {
        let cap = v(1000.0, 1000.0, 100.0, 100.0);
        let used = v(500.0, 100.0, 90.0, 10.0);
        let (r, share) = used.dominant(&cap);
        assert_eq!(r, Resource::DiskIo);
        assert!((share - 0.9).abs() < 1e-12);
    }

    #[test]
    fn dominant_skips_zero_capacity() {
        let cap = v(0.0, 100.0, 0.0, 0.0);
        let used = v(999.0, 50.0, 999.0, 999.0);
        assert_eq!(used.dominant(&cap), (Resource::Memory, 0.5));
    }

    #[test]
    fn dominant_of_zero_capacity_is_cpu_zero() {
        assert_eq!(ResourceVec::splat(5.0).dominant(&ResourceVec::ZERO), (Resource::Cpu, 0.0));
    }

    #[test]
    fn clamp_respects_bounds() {
        let lo = v(1.0, 1.0, 1.0, 1.0);
        let hi = v(5.0, 5.0, 5.0, 5.0);
        assert_eq!(v(0.0, 3.0, 9.0, 5.0).clamp(&lo, &hi), v(1.0, 3.0, 5.0, 5.0));
    }

    #[test]
    fn ratio_handles_zero_denominator() {
        let a = v(4.0, 4.0, 4.0, 4.0);
        let b = v(2.0, 0.0, 8.0, 1.0);
        assert_eq!(a.ratio(&b), v(2.0, 0.0, 0.5, 4.0));
    }

    #[test]
    fn scalar_multiplication() {
        assert_eq!(v(1.0, 2.0, 3.0, 4.0) * 2.0, v(2.0, 4.0, 6.0, 8.0));
    }

    #[test]
    fn sum_of_iterator() {
        let total: ResourceVec = (1..=3).map(|i| ResourceVec::splat(i as f64)).sum();
        assert_eq!(total, ResourceVec::splat(6.0));
    }

    #[test]
    fn validity_and_sanitize() {
        assert!(v(0.0, 1.0, 2.0, 3.0).is_valid());
        let bad = v(-1.0, f64::NAN, f64::INFINITY, 2.0);
        assert!(!bad.is_valid());
        let clean = bad.sanitized();
        assert!(clean.is_valid());
        assert_eq!(clean, v(0.0, 0.0, 0.0, 2.0));
    }

    #[test]
    fn unit_vector_sets_single_dimension() {
        let u = ResourceVec::unit(Resource::NetIo, 7.0);
        assert_eq!(u, v(0.0, 0.0, 0.0, 7.0));
    }

    #[test]
    fn display_is_not_empty() {
        assert!(!v(1.0, 2.0, 3.0, 4.0).to_string().is_empty());
        assert!(!Resource::Cpu.to_string().is_empty());
    }

    #[test]
    fn min_max_elementwise() {
        let a = v(1.0, 9.0, 5.0, 2.0);
        let b = v(3.0, 4.0, 5.0, 1.0);
        assert_eq!(a.max(&b), v(3.0, 9.0, 5.0, 2.0));
        assert_eq!(a.min(&b), v(1.0, 4.0, 5.0, 1.0));
    }
}
