//! Performance-level-objective (PLO) accounting.
//!
//! Skynet/EVOLVE replace user-provided resource requests with *performance
//! level objectives* — "p99 latency below 100 ms", "throughput above 5 000
//! records/s". The tracker here is the measurement side: each control
//! window contributes one measured value, compared against the target; the
//! tracker accumulates the violation statistics every experiment table
//! reports (violation count and rate, mean severity, worst excursion).

use evolve_types::codec::{Codec, Decoder, Encoder};
use evolve_types::Result;

/// Which side of the target is compliant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PloBound {
    /// Measured value must stay **at or below** the target (latency).
    Upper,
    /// Measured value must stay **at or above** the target (throughput).
    Lower,
}

/// Tracks PLO compliance across control windows.
///
/// # Examples
///
/// ```
/// use evolve_telemetry::{PloBound, PloTracker};
///
/// // Throughput objective: at least 1000 records/s.
/// let mut t = PloTracker::new(1000.0, PloBound::Lower);
/// t.record_window(1200.0);
/// t.record_window(700.0);
/// assert_eq!(t.windows(), 2);
/// assert_eq!(t.violations(), 1);
/// assert!((t.violation_rate() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PloTracker {
    target: f64,
    bound: PloBound,
    windows: u64,
    violations: u64,
    /// Sum of relative excursions beyond the target over violating windows.
    severity_sum: f64,
    /// Worst relative excursion seen.
    worst_severity: f64,
}

impl PloTracker {
    /// Creates a tracker for the given target and bound direction.
    ///
    /// # Panics
    ///
    /// Panics when `target` is not finite and positive.
    #[must_use]
    pub fn new(target: f64, bound: PloBound) -> Self {
        assert!(target.is_finite() && target > 0.0, "PLO target must be positive");
        PloTracker {
            target,
            bound,
            windows: 0,
            violations: 0,
            severity_sum: 0.0,
            worst_severity: 0.0,
        }
    }

    /// The objective's target value.
    #[must_use]
    pub fn target(&self) -> f64 {
        self.target
    }

    /// The objective's bound direction.
    #[must_use]
    pub fn bound(&self) -> PloBound {
        self.bound
    }

    /// Records the measured value of one control window and returns whether
    /// the window violated the objective. Non-finite measurements count as
    /// violations with maximal severity 1.0 (the service produced no valid
    /// signal — e.g. all requests timed out).
    pub fn record_window(&mut self, measured: f64) -> bool {
        self.windows += 1;
        let (violated, severity) = if !measured.is_finite() {
            (true, 1.0)
        } else {
            match self.bound {
                PloBound::Upper => {
                    let v = measured > self.target;
                    (v, if v { (measured - self.target) / self.target } else { 0.0 })
                }
                PloBound::Lower => {
                    let v = measured < self.target;
                    (v, if v { (self.target - measured) / self.target } else { 0.0 })
                }
            }
        };
        if violated {
            self.violations += 1;
            self.severity_sum += severity;
            self.worst_severity = self.worst_severity.max(severity);
        }
        violated
    }

    /// Total control windows evaluated.
    #[must_use]
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Number of violating windows.
    #[must_use]
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Fraction of windows in violation (0 when no windows were recorded).
    #[must_use]
    pub fn violation_rate(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.violations as f64 / self.windows as f64
        }
    }

    /// Mean relative excursion beyond the target across violating windows
    /// (0 when there were no violations).
    #[must_use]
    pub fn mean_severity(&self) -> f64 {
        if self.violations == 0 {
            0.0
        } else {
            self.severity_sum / self.violations as f64
        }
    }

    /// Worst relative excursion beyond the target.
    #[must_use]
    pub fn worst_severity(&self) -> f64 {
        self.worst_severity
    }

    /// Writes the ledger's counts — the tracker's state. The target and
    /// bound are configuration: whoever restores builds the tracker from
    /// the same objective first.
    pub fn checkpoint(&self, enc: &mut Encoder) {
        self.windows.encode(enc);
        self.violations.encode(enc);
        self.severity_sum.encode(enc);
        self.worst_severity.encode(enc);
    }

    /// Overwrites the counts with those [`checkpoint`](Self::checkpoint)
    /// wrote, keeping this tracker's target and bound.
    ///
    /// # Errors
    ///
    /// Returns [`CorruptCheckpoint`](evolve_types::Error::CorruptCheckpoint)
    /// when the bytes run out.
    pub fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<()> {
        self.windows = u64::decode(dec)?;
        self.violations = u64::decode(dec)?;
        self.severity_sum = f64::decode(dec)?;
        self.worst_severity = f64::decode(dec)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_bound_latency_semantics() {
        let mut t = PloTracker::new(100.0, PloBound::Upper);
        assert!(!t.record_window(99.0));
        assert!(t.record_window(150.0));
        assert_eq!(t.violations(), 1);
        assert!((t.mean_severity() - 0.5).abs() < 1e-12);
        assert!((t.worst_severity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lower_bound_throughput_semantics() {
        let mut t = PloTracker::new(1000.0, PloBound::Lower);
        assert!(!t.record_window(1500.0));
        assert!(t.record_window(500.0));
        assert!((t.mean_severity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn exact_target_is_compliant() {
        let mut t = PloTracker::new(100.0, PloBound::Upper);
        assert!(!t.record_window(100.0));
        let mut t = PloTracker::new(100.0, PloBound::Lower);
        assert!(!t.record_window(100.0));
    }

    #[test]
    fn non_finite_measurement_is_max_violation() {
        let mut t = PloTracker::new(100.0, PloBound::Upper);
        assert!(t.record_window(f64::NAN));
        assert_eq!(t.worst_severity(), 1.0);
    }

    #[test]
    fn violation_rate_counts() {
        let mut t = PloTracker::new(10.0, PloBound::Upper);
        for i in 0..10u64 {
            t.record_window(if i % 2 == 0 { 5.0 } else { 20.0 });
        }
        assert_eq!(t.windows(), 10);
        assert_eq!(t.violations(), 5);
        assert!((t.violation_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_tracker_rates_are_zero() {
        let t = PloTracker::new(1.0, PloBound::Upper);
        assert_eq!(t.violation_rate(), 0.0);
        assert_eq!(t.mean_severity(), 0.0);
    }

    #[test]
    #[should_panic(expected = "target must be positive")]
    fn rejects_nonpositive_target() {
        let _ = PloTracker::new(0.0, PloBound::Upper);
    }
}
