//! Bounded time-stamped sample buffers.

use std::collections::VecDeque;

use evolve_types::{SimDuration, SimTime};

/// One time-stamped observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// When the observation was made.
    pub at: SimTime,
    /// The observed value.
    pub value: f64,
}

/// A bounded, append-only series of [`Sample`]s.
///
/// The buffer keeps at most `capacity` samples, evicting the oldest; this
/// mirrors the retention window of a scrape-based metrics backend. Samples
/// must be appended in non-decreasing time order.
///
/// # Examples
///
/// ```
/// use evolve_telemetry::TimeSeries;
/// use evolve_types::{SimDuration, SimTime};
///
/// let mut s = TimeSeries::new(100);
/// for i in 0..10 {
///     s.push(SimTime::from_secs(i), i as f64);
/// }
/// assert_eq!(s.last().unwrap().value, 9.0);
/// let recent = s.mean_over(SimDuration::from_secs(3));
/// assert_eq!(recent, Some(7.5)); // samples at t=6,7,8,9
/// ```
#[derive(Debug, Clone, Default)]
pub struct TimeSeries {
    samples: VecDeque<Sample>,
    capacity: usize,
}

impl TimeSeries {
    /// Creates a series retaining at most `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics when `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TimeSeries capacity must be positive");
        TimeSeries { samples: VecDeque::with_capacity(capacity.min(4096)), capacity }
    }

    /// Appends a sample, evicting the oldest when full.
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `at` precedes the last sample's time.
    pub fn push(&mut self, at: SimTime, value: f64) {
        debug_assert!(
            self.samples.back().is_none_or(|s| s.at <= at),
            "samples must be time-ordered"
        );
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(Sample { at, value });
    }

    /// Number of retained samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The most recent sample.
    #[must_use]
    pub fn last(&self) -> Option<Sample> {
        self.samples.back().copied()
    }

    /// The `i`-th retained sample, oldest first.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<Sample> {
        self.samples.get(i).copied()
    }

    /// Iterates over retained samples, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = Sample> + '_ {
        self.samples.iter().copied()
    }

    /// Samples whose timestamp falls within `window` of the latest sample.
    pub fn window(&self, window: SimDuration) -> impl Iterator<Item = Sample> + '_ {
        let cutoff = self.last().map_or(SimTime::ZERO, |s| s.at - window);
        self.samples.iter().copied().filter(move |s| s.at >= cutoff)
    }

    /// Mean of the samples in the trailing `window`; `None` when empty.
    #[must_use]
    pub fn mean_over(&self, window: SimDuration) -> Option<f64> {
        let mut count = 0usize;
        let mut sum = 0.0;
        for s in self.window(window) {
            count += 1;
            sum += s.value;
        }
        (count > 0).then(|| sum / count as f64)
    }

    /// Mean of all retained samples; `None` when empty.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        self.mean_over(SimDuration::MAX)
    }

    /// Exports the series as `(seconds, value)` pairs for CSV emission.
    #[must_use]
    pub fn to_points(&self) -> Vec<(f64, f64)> {
        self.samples.iter().map(|s| (s.at.as_secs_f64(), s.value)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let mut s = TimeSeries::new(10);
        assert!(s.is_empty());
        s.push(SimTime::from_secs(1), 2.0);
        s.push(SimTime::from_secs(2), 4.0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.last().unwrap().value, 4.0);
        assert_eq!(s.mean(), Some(3.0));
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut s = TimeSeries::new(3);
        for i in 0..5u64 {
            s.push(SimTime::from_secs(i), i as f64);
        }
        assert_eq!(s.len(), 3);
        let values: Vec<f64> = s.iter().map(|x| x.value).collect();
        assert_eq!(values, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn window_filters_by_time() {
        let mut s = TimeSeries::new(100);
        for i in 0..10u64 {
            s.push(SimTime::from_secs(i), i as f64);
        }
        // Window of 2s from t=9 keeps t=7,8,9.
        let vals: Vec<f64> = s.window(SimDuration::from_secs(2)).map(|x| x.value).collect();
        assert_eq!(vals, vec![7.0, 8.0, 9.0]);
    }

    #[test]
    fn mean_over_empty_is_none() {
        let s = TimeSeries::new(4);
        assert_eq!(s.mean_over(SimDuration::from_secs(1)), None);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = TimeSeries::new(0);
    }

    #[test]
    fn to_points_exports_seconds() {
        let mut s = TimeSeries::new(4);
        s.push(SimTime::from_millis(1_500), 9.0);
        assert_eq!(s.to_points(), vec![(1.5, 9.0)]);
    }
}
