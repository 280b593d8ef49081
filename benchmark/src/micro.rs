//! Micro-drivers: public entry points the replayed run loop cannot split
//! any further, each timed over a fixed input. Every driver reports the
//! median of [`BATCHES`] batches so one slow-state batch does not set the
//! number.

use crate::stats::quantile;
use evolve::prelude::*;
use evolve_control::{
    arbitrate, ArbiterConfig, ArbiterRequest, ArbiterState, MultiResourceConfig,
    MultiResourceController,
};
use evolve_scheduler::{FeasibilityIndex, RequeueBackoff, SchedulerFramework};
use evolve_sim::{
    ClusterConfig, NodeShape, PerfConfig, ReplicaServer, Simulation, SimulationConfig,
};
use evolve_telemetry::SlidingQuantile;
use evolve_types::ResourceVec;
use evolve_workload::{PoissonArrivals, SamplingMode};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 5;

/// Median over batches of `batch()`'s wall nanoseconds per unit of work,
/// where `batch` returns how many units it did.
fn median_ns_per_unit(mut batch: impl FnMut() -> u64) -> f64 {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let started = Instant::now();
            let units = batch();
            started.elapsed().as_nanos() as f64 / units as f64
        })
        .collect();
    quantile(&samples, 0.5)
}

/// Processor-sharing drain: admit `depth` staggered requests into one
/// replica, then drain them all; nanoseconds per request. Depth 8 is the
/// managed headline's queue, depth 512 the unmanaged one's.
pub fn ps_drain_ns_per_req(depth: usize) -> f64 {
    let alloc = ResourceVec::new(4_000.0, 8_192.0, 200.0, 200.0);
    let far = SimTime::from_secs(3_600);
    let rounds = (40_000 / depth).max(8);
    let mut out = evolve_sim::DrainOutcome::default();
    median_ns_per_unit(|| {
        for _ in 0..rounds {
            let mut replica = ReplicaServer::new(alloc, 64.0, PerfConfig::default(), SimTime::ZERO);
            for i in 0..depth {
                // Staggered demands so completions spread over many drain
                // steps; 1 MiB working sets keep 512 of them under the
                // replica's memory.
                let demand = ResourceVec::new(50.0 + 13.0 * i as f64, 1.0, 0.5, 0.5);
                replica.admit_arrived_into(
                    i as u64,
                    SimTime::ZERO,
                    SimTime::ZERO,
                    far,
                    demand,
                    &mut out,
                );
            }
            replica.advance_into(far, &mut out);
            assert_eq!(out.completed.len(), depth, "every admitted request must complete");
            out.clear();
        }
        (rounds * depth) as u64
    })
}

/// Arrival sampling as the engine drives it: one batched Poisson stream
/// per service of `scenario`, walked to the horizon. Returns
/// `(ns per arrival, arrivals)`.
pub fn arrival_sampling(scenario: &Scenario, seed: u64) -> (f64, u64) {
    let horizon = SimTime::ZERO + scenario.horizon;
    let mut arrivals = 0u64;
    let ns = median_ns_per_unit(|| {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        arrivals = 0;
        for (_, load) in scenario.mix.services() {
            let mut stream = PoissonArrivals::with_mode(load.build(), SamplingMode::Batched);
            let mut at = SimTime::ZERO;
            while let Some(next) = stream.next_after(at, &mut rng) {
                if next > horizon {
                    break;
                }
                arrivals += 1;
                at = next;
            }
        }
        black_box(arrivals).max(1)
    });
    (ns, arrivals)
}

/// `(parse µs, build µs)` of the scenario text the run was made from.
pub fn scenario_load_us(text: &str) -> (f64, f64) {
    let parse = median_ns_per_unit(|| {
        black_box(ScenarioSpec::from_toml_str(text).expect("the run already parsed this text"));
        1
    });
    let spec = ScenarioSpec::from_toml_str(text).expect("the run already parsed this text");
    let build = median_ns_per_unit(|| {
        black_box(spec.build());
        1
    });
    (parse / 1e3, build / 1e3)
}

/// One `MultiResourceController::step` on a fixed four-resource error
/// cycle, nanoseconds.
pub fn controller_step_ns() -> f64 {
    let config = MultiResourceConfig::new(ResourceVec::splat(10.0), ResourceVec::splat(100_000.0));
    let alloc = ResourceVec::new(2_000.0, 4_096.0, 100.0, 200.0);
    let usage = ResourceVec::new(1_800.0, 1_024.0, 20.0, 150.0);
    // Over, under, inside the deadband, on target: the controller never
    // settles into one branch.
    let errors = [0.4, -0.3, 0.02, 0.0];
    let steps = 20_000u64;
    let mut controller = MultiResourceController::new(config);
    median_ns_per_unit(|| {
        for i in 0..steps {
            black_box(controller.step(alloc, usage, errors[(i % 4) as usize], 5.0));
        }
        steps
    })
}

/// Pure `arbitrate()` on a fixed 40-app demand that oversubscribes CPU,
/// microseconds per app.
pub fn arbitrate_us_per_app() -> f64 {
    let classes = [PriorityClass::Critical, PriorityClass::Standard, PriorityClass::Preemptible];
    let requests: Vec<ArbiterRequest> = (0..40u32)
        .map(|i| ArbiterRequest {
            app: AppId::new(i),
            class: classes[(i % 3) as usize],
            requested: ResourceVec::new(6_000.0 + 250.0 * f64::from(i), 8_192.0, 40.0, 100.0),
        })
        .collect();
    let ready = ResourceVec::new(320_000.0, 1_310_720.0, 10_000.0, 25_000.0);
    let config = ArbiterConfig::default();
    let calls = 500u64;
    let mut state = ArbiterState::default();
    let ns = median_ns_per_unit(|| {
        for _ in 0..calls {
            black_box(arbitrate(&config, &mut state, &requests, ready, ResourceVec::ZERO));
        }
        calls * requests.len() as u64
    });
    ns / 1e3
}

/// `SlidingQuantile` ingest with the control loop's read pattern (one
/// p99 read per 64 inserts), nanoseconds per insert.
pub fn quantile_ns_per_insert() -> f64 {
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    let values: Vec<f64> = (0..4_096)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            1.0 + (state >> 11) as f64 / (1u64 << 53) as f64 * 499.0
        })
        .collect();
    let rounds = 10u64;
    median_ns_per_unit(|| {
        for _ in 0..rounds {
            let mut window = SlidingQuantile::new(512);
            let mut tail = 0.0;
            for chunk in values.chunks(64) {
                for v in chunk {
                    window.observe(*v);
                }
                tail += window.quantile(0.99).unwrap_or(0.0);
            }
            black_box(tail);
        }
        rounds * values.len() as u64
    })
}

/// The fill cycle of an empty `cluster_scale` cluster of `nodes` nodes:
/// run the world to t = 30 s without scheduling, so the service replicas
/// and all four batch jobs' tasks are pending, then time one indexed
/// scheduling cycle; microseconds per pod bound. One sample — the cycle
/// cannot be repeated without rebuilding the world.
pub fn fill_us_per_pod(nodes: usize, seed: u64) -> f64 {
    let scenario = Scenario::cluster_scale(nodes, 40, SimDuration::from_secs(600));
    let mut sim = Simulation::new(
        SimulationConfig::default(),
        ClusterConfig::uniform(nodes, NodeShape::default()),
        &scenario.mix,
        seed,
    );
    sim.run_until(SimTime::from_secs(30));
    let scheduler = SchedulerFramework::evolve_default().with_index(true);
    let mut trace = TraceRing::new(TraceConfig::default().capacity);
    let started = Instant::now();
    let plan = scheduler.schedule_cycle_carried(
        sim.cluster(),
        &mut RequeueBackoff::new(),
        &mut FeasibilityIndex::new(),
        sim.now(),
        &mut trace,
    );
    let wall_us = started.elapsed().as_secs_f64() * 1e6;
    assert!(plan.bindings.len() >= 10 * nodes, "the fill cycle must pack most of the cluster");
    wall_us / plan.bindings.len() as f64
}
