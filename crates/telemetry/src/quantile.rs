//! Online quantile estimation.
//!
//! Tail latency (p95/p99) is the control signal for latency PLOs, so the
//! platform needs cheap online percentile estimates. [`P2Quantile`]
//! implements the classic P² algorithm of Jain & Chlamtac (CACM 1985):
//! five markers, O(1) memory, no sample retention. [`SlidingQuantile`]
//! keeps an exact window and is used where fidelity matters more than
//! memory (per-control-window percentiles) and to validate P² in tests.

use std::collections::VecDeque;

use evolve_types::codec::{Codec, Decoder, Encoder};
use evolve_types::{Error, Result};

/// O(1)-memory streaming quantile estimator (the P² algorithm).
///
/// # Examples
///
/// ```
/// use evolve_telemetry::P2Quantile;
///
/// let mut q = P2Quantile::new(0.5);
/// for v in [5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 0.0] {
///     q.observe(v);
/// }
/// let median = q.value().unwrap();
/// assert!(median > 1.0 && median < 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights.
    q: [f64; 5],
    /// Marker positions (1-based as in the paper).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Desired position increments.
    dn: [f64; 5],
    /// Number of observations seen so far.
    count: usize,
    /// Initial observations until the markers can be seeded; kept sorted
    /// so [`P2Quantile::value`] can index it directly.
    seed: Vec<f64>,
}

impl P2Quantile {
    /// Creates an estimator for the `p`-quantile, `p` in `(0, 1)`.
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `(0, 1)`.
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0, 1)");
        P2Quantile {
            p,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
            seed: Vec::with_capacity(5),
        }
    }

    /// The quantile this estimator tracks.
    #[must_use]
    pub fn quantile(&self) -> f64 {
        self.p
    }

    /// Number of observations fed so far.
    #[must_use]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Feeds one observation.
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        if self.seed.len() < 5 {
            let at = self.seed.partition_point(|v| v.total_cmp(&x).is_lt());
            self.seed.insert(at, x);
            if self.seed.len() == 5 {
                self.q.copy_from_slice(&self.seed);
            }
            return;
        }

        // Locate the cell containing x and clamp extreme markers.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x < self.q[1] {
            0
        } else if x < self.q[2] {
            1
        } else if x < self.q[3] {
            2
        } else if x <= self.q[4] {
            3
        } else {
            self.q[4] = x;
            3
        };

        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        for i in 0..5 {
            self.np[i] += self.dn[i];
        }

        // Adjust interior markers with the piecewise-parabolic formula.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = d.signum();
                let qp = self.parabolic(i, d);
                self.q[i] =
                    if self.q[i - 1] < qp && qp < self.q[i + 1] { qp } else { self.linear(i, d) };
                self.n[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let q = &self.q;
        let n = &self.n;
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// Current estimate; `None` before any observation. With fewer than
    /// five observations, falls back to the exact order statistic of the
    /// seed buffer.
    #[must_use]
    pub fn value(&self) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        if self.seed.len() < 5 {
            // The seed buffer is maintained in sorted order, so the exact
            // order statistic is a direct index — no clone, no re-sort.
            let idx = ((self.seed.len() as f64 - 1.0) * self.p).round() as usize;
            return self.seed.get(idx).copied();
        }
        Some(self.q[2])
    }
}

/// Exact quantiles over a bounded sliding window of recent observations.
///
/// # Examples
///
/// ```
/// use evolve_telemetry::SlidingQuantile;
///
/// let mut q = SlidingQuantile::new(100);
/// for v in 1..=100 {
///     q.observe(f64::from(v));
/// }
/// assert_eq!(q.quantile(0.99), Some(99.0)); // nearest rank
/// assert_eq!(q.quantile(1.0), Some(100.0));
/// assert_eq!(q.quantile(0.5), Some(51.0));
/// ```
#[derive(Debug, Clone)]
pub struct SlidingQuantile {
    window: VecDeque<f64>,
    capacity: usize,
    /// Sorted view of the window, maintained incrementally: each
    /// observation is a binary-search evict + insert instead of a full
    /// clone-and-sort on query.
    sorted: Vec<f64>,
}

impl SlidingQuantile {
    /// Creates an estimator over the last `capacity` observations. The
    /// window is allocated up front for the full capacity.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingQuantile {
            window: VecDeque::with_capacity(capacity),
            capacity,
            sorted: Vec::with_capacity(capacity),
        }
    }

    /// Feeds one observation, evicting the oldest when full.
    pub fn observe(&mut self, x: f64) {
        if self.window.len() == self.capacity {
            let old = self.window.pop_front().expect("window is full");
            let idx = self
                .sorted
                .binary_search_by(|v| v.total_cmp(&old))
                .expect("evicted value present in sorted view");
            self.sorted.remove(idx);
        }
        self.window.push_back(x);
        let at = self.sorted.partition_point(|v| v.total_cmp(&x).is_lt());
        self.sorted.insert(at, x);
    }

    /// Number of observations currently in the window.
    #[must_use]
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// `true` when the window is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// The exact `p`-quantile (nearest-rank) of the window, `None` when
    /// empty. The sorted view is maintained incrementally by
    /// [`SlidingQuantile::observe`], so every query is O(1).
    ///
    /// # Panics
    ///
    /// Panics when `p` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, p: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&p), "quantile must be in [0, 1]");
        if self.sorted.is_empty() {
            return None;
        }
        let idx = ((self.sorted.len() as f64 - 1.0) * p).round() as usize;
        Some(self.sorted[idx])
    }

    /// Mean of the window, `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        if self.window.is_empty() {
            None
        } else {
            Some(self.window.iter().sum::<f64>() / self.window.len() as f64)
        }
    }

    /// Clears the window.
    pub fn clear(&mut self) {
        self.window.clear();
        self.sorted.clear();
    }

    /// Writes the window, but not the capacity, which the owner rebuilds.
    pub fn checkpoint(&self, enc: &mut Encoder) {
        self.window.encode(enc);
    }

    /// Overwrites the window with one [`checkpoint`](Self::checkpoint)
    /// wrote; the capacity stays this estimator's own.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CorruptCheckpoint`] when the bytes are truncated
    /// or malformed, or the window holds more observations than this
    /// estimator's capacity.
    pub fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<()> {
        let window = VecDeque::<f64>::decode(dec)?;
        if window.len() > self.capacity {
            return Err(Error::CorruptCheckpoint(format!(
                "window holds {} observations but capacity is {}",
                window.len(),
                self.capacity
            )));
        }
        self.clear();
        self.window.extend(&window);
        self.sorted.extend(&window);
        self.sorted.sort_by(f64::total_cmp);
        Ok(())
    }
}

/// Equality over the logical state (window contents and capacity); the
/// incrementally-maintained sorted view is derived data and ignored.
impl PartialEq for SlidingQuantile {
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity && self.window == other.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2_empty_is_none() {
        assert_eq!(P2Quantile::new(0.9).value(), None);
    }

    #[test]
    fn p2_small_sample_uses_exact_order_statistic() {
        let mut q = P2Quantile::new(0.5);
        q.observe(3.0);
        q.observe(1.0);
        q.observe(2.0);
        assert_eq!(q.value(), Some(2.0));
        assert_eq!(q.count(), 3);
    }

    #[test]
    fn p2_median_of_uniform_stream() {
        let mut q = P2Quantile::new(0.5);
        // Deterministic pseudo-uniform sequence over [0, 1).
        let mut x = 0.123_f64;
        for _ in 0..10_000 {
            x = (x * 9301.0 + 49297.0) % 1.0;
            q.observe(x);
        }
        let m = q.value().unwrap();
        assert!((m - 0.5).abs() < 0.05, "median {m}");
    }

    #[test]
    fn p2_p99_of_linear_stream() {
        let mut q = P2Quantile::new(0.99);
        for i in 0..100_000 {
            q.observe(f64::from(i % 1000));
        }
        let v = q.value().unwrap();
        assert!((v - 990.0).abs() < 20.0, "p99 {v}");
    }

    #[test]
    fn p2_tracks_min_and_max_markers() {
        let mut q = P2Quantile::new(0.5);
        for v in [5.0, 6.0, 7.0, 8.0, 9.0, -100.0, 100.0] {
            q.observe(v);
        }
        // After clamping, estimate stays within observed range.
        let m = q.value().unwrap();
        assert!((-100.0..=100.0).contains(&m));
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn p2_rejects_bad_quantile() {
        let _ = P2Quantile::new(1.0);
    }

    #[test]
    fn p2_agrees_with_exact_on_large_stream() {
        let mut p2 = P2Quantile::new(0.95);
        let mut exact = SlidingQuantile::new(50_000);
        let mut x = 0.5_f64;
        for _ in 0..50_000 {
            // Log-normal-ish heavy-tailed values.
            x = (x * 1103.0 + 377.0) % 1.0;
            let v = (-(1.0 - x).ln()) * 10.0; // exponential tail
            p2.observe(v);
            exact.observe(v);
        }
        let a = p2.value().unwrap();
        let b = exact.quantile(0.95).unwrap();
        let rel = (a - b).abs() / b;
        assert!(rel < 0.05, "p2 {a} exact {b} rel {rel}");
    }

    #[test]
    fn sliding_quantile_exact_ranks() {
        let mut q = SlidingQuantile::new(10);
        for v in [9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0, 0.0] {
            q.observe(v);
        }
        assert_eq!(q.quantile(0.0), Some(0.0));
        assert_eq!(q.quantile(1.0), Some(9.0));
        assert_eq!(q.quantile(0.5), Some(5.0));
        assert_eq!(q.mean(), Some(4.5));
    }

    #[test]
    fn sliding_quantile_evicts() {
        let mut q = SlidingQuantile::new(3);
        for v in [1.0, 2.0, 3.0, 100.0] {
            q.observe(v);
        }
        assert_eq!(q.len(), 3);
        assert_eq!(q.quantile(0.0), Some(2.0));
    }

    #[test]
    fn sliding_quantile_cache_tracks_new_observations() {
        let mut q = SlidingQuantile::new(4);
        q.observe(1.0);
        q.observe(3.0);
        assert_eq!(q.quantile(1.0), Some(3.0));
        // A repeated query hits the cached sorted view.
        assert_eq!(q.quantile(1.0), Some(3.0));
        // New observations must invalidate it.
        q.observe(5.0);
        assert_eq!(q.quantile(1.0), Some(5.0));
        assert_eq!(q.quantile(0.0), Some(1.0));
        // Eviction refreshes the view too.
        q.observe(2.0);
        q.observe(4.0);
        assert_eq!(q.quantile(1.0), Some(5.0));
        assert_eq!(q.quantile(0.0), Some(2.0));
    }

    #[test]
    fn sliding_quantile_incremental_matches_full_sort_with_duplicates() {
        // Duplicate values stress the binary-search evict path: equal
        // total_cmp keys are bit-identical, so evicting "any" duplicate
        // must still leave the same multiset as a full re-sort would.
        let mut q = SlidingQuantile::new(5);
        let stream = [2.0, 2.0, 1.0, 2.0, 3.0, 2.0, 1.0, 1.0, 2.0, 3.0, -0.0, 0.0];
        for (i, &v) in stream.iter().enumerate() {
            q.observe(v);
            let start = (i + 1).saturating_sub(5);
            let mut expect: Vec<f64> = stream[start..=i].to_vec();
            expect.sort_by(f64::total_cmp);
            for (k, want) in expect.iter().enumerate() {
                let p = if expect.len() == 1 { 0.0 } else { k as f64 / (expect.len() - 1) as f64 };
                assert_eq!(q.quantile(p).unwrap().to_bits(), want.to_bits(), "rank {k} after {i}");
            }
        }
    }

    #[test]
    fn sliding_quantile_restore_keeps_its_own_capacity() {
        let mut writer = SlidingQuantile::new(24);
        for v in 0..30 {
            writer.observe(f64::from(v));
        }
        let mut enc = Encoder::new();
        writer.checkpoint(&mut enc);
        let bytes = enc.into_bytes();
        let mut reader = SlidingQuantile::new(48);
        reader.restore(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(reader.len(), 24);
        assert_eq!(reader.quantile(0.0), Some(6.0));
        assert_eq!(reader.quantile(1.0), Some(29.0));
        // The restored window grows to the reader's 48, not the writer's 24.
        for v in 30..60 {
            reader.observe(f64::from(v));
        }
        assert_eq!(reader.len(), 48);
        assert_eq!(reader.quantile(0.0), Some(12.0));
    }

    #[test]
    fn sliding_quantile_window_beyond_capacity_is_corrupt() {
        let mut writer = SlidingQuantile::new(48);
        for v in 0..30 {
            writer.observe(f64::from(v));
        }
        let mut enc = Encoder::new();
        writer.checkpoint(&mut enc);
        let bytes = enc.into_bytes();
        let mut reader = SlidingQuantile::new(24);
        reader.observe(1.0);
        let err = reader.restore(&mut Decoder::new(&bytes)).unwrap_err();
        assert!(
            matches!(&err, Error::CorruptCheckpoint(m) if m.contains("30 observations")),
            "{err}"
        );
        // A rejected image leaves the estimator as it was.
        assert_eq!(reader.len(), 1);
    }

    #[test]
    fn sliding_quantile_empty_and_clear() {
        let mut q = SlidingQuantile::new(5);
        assert!(q.is_empty());
        assert_eq!(q.quantile(0.5), None);
        assert_eq!(q.mean(), None);
        q.observe(1.0);
        q.clear();
        assert!(q.is_empty());
    }
}
