//! Property-based tests for the telemetry primitives.

use evolve_telemetry::trace::{SpanKind, SpanTrace, TraceEvent, TraceRing};
use evolve_telemetry::{
    Ewma, P2Quantile, PloBound, PloTracker, SlidingQuantile, UtilizationAccount,
};
use evolve_types::{Resource, ResourceVec, SimTime};
use proptest::prelude::*;

fn arb_values() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.0..1e6f64, 1..300)
}

proptest! {
    #[test]
    fn p2_estimate_within_observed_range(values in arb_values(), p in 0.01..0.99f64) {
        let mut q = P2Quantile::new(p);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for v in &values {
            q.observe(*v);
            lo = lo.min(*v);
            hi = hi.max(*v);
        }
        let est = q.value().unwrap();
        prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9, "estimate {est} outside [{lo}, {hi}]");
    }

    #[test]
    fn sliding_quantile_monotone_in_p(values in arb_values()) {
        let mut q = SlidingQuantile::new(500);
        for v in values {
            q.observe(v);
        }
        let mut prev = f64::NEG_INFINITY;
        for p in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = q.quantile(p).unwrap();
            prop_assert!(v >= prev, "quantile not monotone at p={p}");
            prev = v;
        }
    }

    #[test]
    fn ewma_stays_within_observed_range(values in arb_values(), alpha in 0.01..1.0f64) {
        let mut f = Ewma::new(alpha);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for v in values {
            lo = lo.min(v);
            hi = hi.max(v);
            let out = f.observe(v);
            prop_assert!(out >= lo - 1e-9 && out <= hi + 1e-9);
        }
    }

    #[test]
    fn plo_tracker_counts_are_consistent(
        measurements in prop::collection::vec(0.0..200.0f64, 1..200),
        target in 1.0..100.0f64,
    ) {
        let mut t = PloTracker::new(target, PloBound::Upper);
        let mut expected = 0u64;
        for m in &measurements {
            if *m > target {
                expected += 1;
            }
            t.record_window(*m);
        }
        prop_assert_eq!(t.violations(), expected);
        prop_assert!(t.violation_rate() >= 0.0 && t.violation_rate() <= 1.0);
        prop_assert!(t.worst_severity() >= t.mean_severity() || t.violations() == 0);
    }

    #[test]
    fn trace_ring_memory_stays_bounded(capacity in 0usize..64, pushes in 0u64..500) {
        let mut ring = TraceRing::new(capacity);
        for t in 0..pushes {
            ring.push(TraceEvent::Span(SpanTrace {
                tick: t,
                at: SimTime::from_secs(t),
                kind: SpanKind::Control,
                wall_ns: t,
            }));
        }
        // Retention never exceeds capacity; every overflow is accounted.
        prop_assert!(ring.len() <= capacity);
        prop_assert_eq!(ring.len() as u64 + ring.dropped(), pushes);
        prop_assert_eq!(ring.dropped(), pushes.saturating_sub(capacity as u64));
        // The survivors are exactly the newest events, oldest first.
        let ticks: Vec<u64> = ring.spans().map(|s| s.tick).collect();
        let expected: Vec<u64> = (pushes.saturating_sub(ring.len() as u64)..pushes).collect();
        prop_assert_eq!(ticks, expected);
        // The JSONL dump renders one line per retained event.
        prop_assert_eq!(ring.to_jsonl().lines().count(), ring.len());
    }

    #[test]
    fn utilization_shares_bounded_when_inputs_bounded(
        states in prop::collection::vec(((0.0..100.0f64), (0.0..100.0f64)), 2..50),
    ) {
        let cap = ResourceVec::splat(100.0);
        let mut acct = UtilizationAccount::new(cap);
        for (i, (alloc, used)) in states.iter().enumerate() {
            acct.record(
                SimTime::from_secs(i as u64 * 10),
                ResourceVec::splat(*alloc),
                ResourceVec::splat(*used),
            );
        }
        let s = acct.summary();
        for r in Resource::ALL {
            prop_assert!(s.allocated_share[r] >= 0.0 && s.allocated_share[r] <= 1.0 + 1e-9);
            prop_assert!(s.used_share[r] >= 0.0 && s.used_share[r] <= 1.0 + 1e-9);
            prop_assert!(s.efficiency[r] >= 0.0 && s.efficiency[r] <= 1.0);
        }
    }
}
