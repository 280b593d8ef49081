//! Property-based tests for the control stack: whatever the inputs, the
//! controllers must respect their envelopes.

use evolve_control::{
    arbitrate, ArbiterConfig, ArbiterRequest, ArbiterState, ClipReason, GrantDecision,
    MultiResourceConfig, MultiResourceController, PidController, RlsModel, SensitivityModel,
};
use evolve_types::{AppId, PriorityClass, Resource, ResourceVec};
use proptest::prelude::*;

fn arb_errors() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-10.0..10.0f64, 1..100)
}

/// A fleet of arbiter requests with mixed priority classes and demands
/// spanning well below to well above typical capacity draws.
fn arb_requests() -> impl Strategy<Value = Vec<ArbiterRequest>> {
    prop::collection::vec((0..3u8, 10.0..20_000.0f64, 10.0..40_000.0f64), 1..12).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (class, cpu, mem))| ArbiterRequest {
                app: AppId::new(i as u32),
                class: match class {
                    0 => PriorityClass::Critical,
                    1 => PriorityClass::Standard,
                    _ => PriorityClass::Preemptible,
                },
                requested: ResourceVec::new(cpu, mem, cpu / 10.0, mem / 10.0),
            })
            .collect()
    })
}

fn arb_capacity() -> impl Strategy<Value = ResourceVec> {
    (2_000.0..80_000.0f64, 2_000.0..160_000.0f64)
        .prop_map(|(cpu, mem)| ResourceVec::new(cpu, mem, cpu / 10.0, mem / 10.0))
}

proptest! {
    #[test]
    fn pid_output_respects_limits(errors in arb_errors(), kp in 0.0..50.0f64, ki in 0.0..50.0f64) {
        // Whatever gains the tuner sets, one period neither takes more
        // than half an allocation away nor more than doubles it.
        let mut pid = PidController::new();
        pid.set_gains(kp, ki);
        for e in errors {
            let u = pid.step(e, 1.0);
            prop_assert!((-0.5..=1.0).contains(&u), "output {u} outside [-0.5, 1]");
        }
    }

    #[test]
    fn pid_integral_respects_clamp(errors in arb_errors()) {
        // With ki = 1 the integral term is the clamped accumulator itself.
        let mut pid = PidController::new();
        pid.set_gains(1.0, 1.0);
        for e in errors {
            pid.step(e, 0.5);
            prop_assert!(pid.last_terms().i.abs() <= 2.0 + 1e-12);
        }
    }

    #[test]
    fn pid_output_is_always_finite(errors in arb_errors(), dt in 0.01..100.0f64) {
        let mut pid = PidController::new();
        pid.set_gains(5.0, 2.0);
        for e in errors {
            prop_assert!(pid.step(e, dt).is_finite());
        }
    }

    #[test]
    fn controller_target_stays_in_bounds(
        steps in prop::collection::vec(
            ((-3.0..3.0f64), (0.0..5_000.0f64), (0.0..5_000.0f64)),
            1..60,
        )
    ) {
        let min = ResourceVec::splat(50.0);
        let max = ResourceVec::splat(4_000.0);
        let mut ctl = MultiResourceController::new(MultiResourceConfig::new(min, max));
        let mut alloc = ResourceVec::splat(500.0);
        for (error, cpu_usage, mem_usage) in steps {
            let usage = ResourceVec::new(cpu_usage, mem_usage, cpu_usage / 10.0, mem_usage / 10.0);
            let d = ctl.step(alloc, usage, error, 5.0);
            prop_assert!(d.target.is_valid(), "invalid target {:?}", d.target);
            prop_assert!(min.fits_within(&d.target), "below floor: {:?}", d.target);
            prop_assert!(d.target.fits_within(&max), "above ceiling: {:?}", d.target);
            alloc = d.target;
        }
    }

    #[test]
    fn attribution_is_a_distribution(
        observations in prop::collection::vec(
            ((1.0..10_000.0f64), (0.0..10_000.0f64), (-2.0..2.0f64)),
            1..50,
        )
    ) {
        let mut model = SensitivityModel::new();
        for (alloc, usage, error) in observations {
            model.observe(
                ResourceVec::new(alloc, alloc / 2.0, alloc / 10.0, alloc / 20.0),
                ResourceVec::new(usage, usage / 3.0, usage / 8.0, usage / 30.0),
                error,
            );
            let a = model.attribution();
            let mut sum = 0.0;
            for r in Resource::ALL {
                prop_assert!(a[r] >= -1e-12, "negative attribution {a}");
                sum += a[r];
            }
            prop_assert!((sum - 1.0).abs() < 1e-6, "attribution sum {sum}");
        }
    }

    #[test]
    fn rls_prediction_stays_finite(
        samples in prop::collection::vec(
            ((-100.0..100.0f64), (-100.0..100.0f64), (-1_000.0..1_000.0f64)),
            1..200,
        )
    ) {
        let mut m = RlsModel::new();
        for (x0, x1, y) in samples {
            let x = [x0, x1, x1 - x0, 0.0];
            m.update(&x, y);
            prop_assert!(m.predict(&x).is_finite());
            prop_assert!(m.weights().iter().all(|w| w.is_finite()));
        }
    }

    #[test]
    fn arbiter_conserves_capacity(requests in arb_requests(), capacity in arb_capacity()) {
        // Grants never exceed requests, and their per-dimension sum never
        // exceeds the usable pool — across repeated rounds, so slew
        // recovery and hysteresis are exercised too.
        let config = ArbiterConfig::default();
        let mut state = ArbiterState::default();
        let usable = capacity * (1.0 - config.headroom_fraction);
        for _ in 0..5 {
            let outcomes = arbitrate(&config, &mut state, &requests, capacity, ResourceVec::ZERO);
            prop_assert_eq!(outcomes.len(), requests.len());
            let mut total = ResourceVec::ZERO;
            for (o, req) in outcomes.iter().zip(&requests) {
                for r in Resource::ALL {
                    prop_assert!(
                        o.granted[r] <= req.requested[r] * (1.0 + 1e-9),
                        "grant {:?} exceeds request {:?}", o.granted, req.requested
                    );
                    prop_assert!(o.granted[r] >= 0.0, "negative grant {:?}", o.granted);
                }
                total += o.granted;
            }
            for r in Resource::ALL {
                prop_assert!(
                    total[r] <= usable[r] * (1.0 + 1e-9),
                    "granted {:?} exceeds usable {:?} on {:?}", total, usable, r
                );
            }
        }
    }

    #[test]
    fn arbiter_is_deterministic(requests in arb_requests(), capacity in arb_capacity()) {
        let config = ArbiterConfig::default();
        let mut state_a = ArbiterState::default();
        let mut state_b = ArbiterState::default();
        for _ in 0..4 {
            let a = arbitrate(&config, &mut state_a, &requests, capacity, ResourceVec::ZERO);
            let b = arbitrate(&config, &mut state_b, &requests, capacity, ResourceVec::ZERO);
            prop_assert_eq!(a, b);
            prop_assert_eq!(&state_a, &state_b);
        }
    }

    #[test]
    fn arbiter_sheds_lower_class_before_clipping_higher(
        requests in arb_requests(),
        capacity in arb_capacity(),
    ) {
        // Strict priority: if any app is clipped for capacity, every app of
        // a strictly lower class must be shed outright, never merely clipped.
        let config = ArbiterConfig::default();
        let mut state = ArbiterState::default();
        for _ in 0..3 {
            let outcomes = arbitrate(&config, &mut state, &requests, capacity, ResourceVec::ZERO);
            for clipped in outcomes
                .iter()
                .filter(|o| o.decision == GrantDecision::Clipped(ClipReason::Oversubscribed))
            {
                for lower in outcomes.iter().filter(|o| o.class < clipped.class) {
                    prop_assert_eq!(
                        lower.decision, GrantDecision::Shed,
                        "{:?} app {:?} clipped but lower-class {:?} app {:?} got {:?}",
                        clipped.class, clipped.app, lower.class, lower.app, lower.decision
                    );
                }
            }
        }
    }

    #[test]
    fn arbiter_clip_is_uniform_within_class(
        requests in arb_requests(),
        capacity in arb_capacity(),
    ) {
        // Weighted-fair clipping: from a fresh state (no slew history), all
        // members of the clipped class share the same per-dimension grant
        // ratio — one huge app cannot claim a larger share than its peers.
        let config = ArbiterConfig::default();
        let mut state = ArbiterState::default();
        let outcomes = arbitrate(&config, &mut state, &requests, capacity, ResourceVec::ZERO);
        let clipped: Vec<_> = outcomes
            .iter()
            .filter(|o| o.decision == GrantDecision::Clipped(ClipReason::Oversubscribed))
            .collect();
        for pair in clipped.windows(2) {
            prop_assert_eq!(pair[0].class, pair[1].class);
            for r in Resource::ALL {
                let (ra, rb) = (
                    pair[0].granted[r] / pair[0].requested[r].max(1e-12),
                    pair[1].granted[r] / pair[1].requested[r].max(1e-12),
                );
                prop_assert!(
                    (ra - rb).abs() < 1e-6,
                    "unequal {:?} ratios within class: {ra} vs {rb}", r
                );
            }
        }
    }

    #[test]
    fn closed_loop_never_diverges(kp in 0.1..2.0f64, ki in 0.0..1.0f64, tau in 0.2..5.0f64) {
        // First-order plant under any of these gains must stay bounded
        // thanks to output clamping.
        let mut pid = PidController::new();
        pid.set_gains(kp, ki);
        let mut y = 0.0;
        for _ in 0..500 {
            let u = pid.step(1.0 - y, 0.1);
            y += (u - y) / tau * 0.1;
            prop_assert!(y.is_finite() && y.abs() < 1_000.0, "diverged: {y}");
        }
    }
}
