//! **Hot-path micro-benchmarks** — the four inner loops that dominate the
//! simulator's profile, benchmarked in isolation so a regression in any
//! one of them is attributable before it shows up in the macro number
//! (sim-s/wall-s of the repo benchmark, `benchmark/run.sh`):
//!
//! * `replica/*` — the processor-sharing queue ([`ReplicaServer::advance`])
//!   at several concurrency levels, the idle replica, and the `next_event`
//!   query (two heap tops).
//! * `quantile/*` — [`SlidingQuantile`] ingest and the incremental
//!   sorted-window percentile read.
//! * `registry/*` — per-record name interning vs. the pre-interned
//!   [`MetricRegistry::record_key`] fast path.
//! * `scheduler/*` — one full `schedule_cycle` in its two shapes: 64 pods
//!   of 20 apps in rotation on 200 nodes, where every pod finds its class
//!   cold (one evaluation pass over the nodes per pod), and the fill of an
//!   empty 1 000-node `cluster_scale`, ≈ 12 000 pods in per-app runs, where
//!   every pod after its class's first is a record walk on a warm tree;
//!   and `backlog_cycle_800_deferred`, the steady state after it: a packed
//!   cluster and 800 pods that cannot place, three cycles in four deferring
//!   them all on one requeue-backoff read each. `score_spreading_250_nodes`
//!   is scoring alone: 16 pods of 16 classes on 250 empty nodes through a
//!   carried index of 8 class caches, so each pod scores every node.
//!   `sync_250_nodes_all_resized` is a control tick's wake as the
//!   scheduler sees it: every one of 4 000 bound pods on 250 nodes resized
//!   in place (untimed), then one carried cycle with one pending pod,
//!   whose sync finds every node's version moved and no bound set changed.
//! * `engine/*` — the engine's two per-replica passes through its public
//!   API, on a bound 100-node `cluster_scale` with 120 replicas per
//!   service: a control tick's harvest (`take_window` of every app) and
//!   the event loop (`run_until` over 5 s of arrivals and wakes). Two more
//!   isolate what one arrival looks up: `arrival_pick_120_replicas` (one
//!   service, 200 rps: the least-loaded of 120 replicas, then that
//!   replica's wake) and `arrival_merge_40_services` (40 services of two
//!   replicas: the earliest of 40 arrival slots after every arrival, one
//!   leaf-to-root path of their tournament tree).
//!   `harvest_7200_busy_tasks/*` harvests 7 200 running batch tasks that
//!   no event reaches: quietly, returning the last pass's sums; in a pass
//!   that credits them from their drain-rate records, after one task of
//!   each job is preempted; and, once the records have run out, from
//!   their servers. `take_window_40_services_10_arrivals` times the
//!   harvests of 40 services of 120 replicas, ten arrivals apart, as
//!   `scale1k_churn` runs them. `set_target_500_tasks_same_request` is a
//!   batch target that every one of 500 running tasks already holds;
//!   `set_target_30_replicas` a service target that moves on every call,
//!   so all 30 running replicas resize in place.
//!   `arrival_beside_7200_batch_timers` is one service at 200 rps on eight
//!   replicas, run 5 s at a time, while 7 200 running batch tasks hold
//!   timers over an hour away: the service's wakes and the standing batch
//!   timers sit in separate heaps, so a service reschedule does not sift
//!   past the batch timers.
//! * `runner/back_to_back_reps` — three whole runs of a 250-node
//!   `cluster_scale` in a row, each built, run for 60 s and dropped, as the
//!   repo benchmark's reps and the `experiments` driver run them: a table
//!   that grows by doubling while a run fills it shows here as the heap
//!   the allocator gives back at one teardown and faults in at the next
//!   run (DESIGN.md decision 16).
//! * `control/*` — T4's control-plane costs: one scalar PID step, one
//!   multi-resource controller decision, an RLS update, the sensitivity
//!   attribution, a P² quantile observation and a PLO window record.
//!
//! ```text
//! cargo bench -p evolve-bench --bench perf
//! cargo bench -p evolve-bench --bench perf -- control   # T4 alone
//! ```

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use evolve_control::{
    MultiResourceConfig, MultiResourceController, PidController, RlsModel, SensitivityModel,
};
use evolve_core::{ExperimentRunner, ManagerKind, RunConfig, SchedulerProfile};
use evolve_scheduler::{FeasibilityIndex, RequeueBackoff, SchedulerFramework};
use evolve_sim::{
    ClusterConfig, ClusterState, DrainOutcome, NodeShape, PerfConfig, PodKind, PodSpec,
    ReplicaServer, Simulation, SimulationConfig,
};
use evolve_telemetry::trace::TraceRing;
use evolve_telemetry::{MetricRegistry, P2Quantile, PloBound, PloTracker, SlidingQuantile};
use evolve_types::{AppId, PodId, ResourceVec, SimDuration, SimTime};
use evolve_workload::{LoadSpec, Scenario, ScenarioSpec};
use std::cell::RefCell;
use std::hint::black_box;

/// Deterministic pseudo-random stream without pulling in an RNG crate —
/// benchmark inputs only need to be fixed and non-degenerate.
fn lcg_stream(n: usize) -> Vec<f64> {
    let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
    (0..n)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Map the top bits to a latency-like range [1, 500) ms.
            1.0 + (state >> 11) as f64 / (1u64 << 53) as f64 * 499.0
        })
        .collect()
}

/// Demand of the `i`-th benchmark request: staggered CPU so completions
/// spread over many drain steps, and disk and net that differ from
/// request to request, so all three remainders stay live and the
/// next-event scan has three quotients to compare.
fn demand(i: usize) -> ResourceVec {
    let cpu = 50.0 + 13.0 * i as f64;
    let disk = 1.0 + 0.55 * ((i * 7) % 64) as f64;
    let net = 0.5 + 0.35 * ((i * 11) % 96) as f64;
    ResourceVec::new(cpu, 8.0, disk, net)
}

fn loaded_replica(inflight: usize) -> ReplicaServer {
    let alloc = ResourceVec::new(4_000.0, 8_192.0, 200.0, 200.0);
    let mut r = ReplicaServer::new(alloc, 64.0, PerfConfig::default(), SimTime::ZERO);
    for i in 0..inflight {
        r.admit(i as u64, SimTime::ZERO, SimTime::from_secs(600), demand(i));
    }
    r
}

fn bench_replica(c: &mut Criterion) {
    let mut group = c.benchmark_group("replica");
    group.sample_size(20);
    for inflight in [4usize, 32, 512] {
        let template = loaded_replica(inflight);
        group.bench_with_input(
            BenchmarkId::new("advance_drain_all", inflight),
            &inflight,
            |b, _| {
                b.iter(|| {
                    let mut r = template.clone();
                    let out = r.advance(SimTime::from_secs(600));
                    black_box(out.completed.len())
                })
            },
        );
    }
    // The engine's pattern on an unmanaged service: every arrival first
    // drains the whole in-flight set up to its own time, joins it, and
    // asks for the next wake-up — 256 arrivals 5 ms apart into a replica
    // already 512 deep.
    let template = loaded_replica(512);
    group.bench_function(BenchmarkId::new("admit_then_drain", 512), |b| {
        let mut out = DrainOutcome::default();
        b.iter(|| {
            let mut r = template.clone();
            for k in 0..256usize {
                let at = SimTime::from_millis(5 * (k as u64 + 1));
                let deadline = SimTime::from_secs(600);
                r.admit_arrived_into(512 + k as u64, at, at, deadline, demand(k % 64), &mut out);
                black_box(r.next_event());
            }
            out.clear();
            black_box(r.inflight_len())
        })
    });
    let template = loaded_replica(16);
    group.bench_function("next_event", |b| {
        let mut r = template.clone();
        b.iter(|| black_box(r.next_event()))
    });
    group.bench_function("advance_idle", |b| {
        let mut r = ReplicaServer::new(
            ResourceVec::new(1_000.0, 1_024.0, 100.0, 100.0),
            64.0,
            PerfConfig::default(),
            SimTime::ZERO,
        );
        let mut t = 1u64;
        b.iter(|| {
            // Monotone clock moves on an empty replica: what the engine
            // pays for a quiescent pod.
            t += 1;
            black_box(r.advance(SimTime::from_micros(t)).completed.len())
        })
    });
    group.finish();
}

fn bench_quantile(c: &mut Criterion) {
    let mut group = c.benchmark_group("quantile");
    group.sample_size(20);
    let values = lcg_stream(4_096);
    group.bench_function("observe_4096_window_512", |b| {
        b.iter(|| {
            let mut q = SlidingQuantile::new(512);
            for v in &values {
                q.observe(*v);
            }
            black_box(q.len())
        })
    });
    group.bench_function("observe_p99_interleaved", |b| {
        // The control-loop pattern: ingest a window's worth of latencies,
        // read the tail once per window.
        b.iter(|| {
            let mut q = SlidingQuantile::new(512);
            let mut acc = 0.0;
            for chunk in values.chunks(64) {
                for v in chunk {
                    q.observe(*v);
                }
                acc += q.quantile(0.99).unwrap_or(0.0);
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_registry(c: &mut Criterion) {
    let mut group = c.benchmark_group("registry");
    group.sample_size(20);
    let names: Vec<String> = (0..8).map(|i| format!("app{i}/p99_ms")).collect();
    group.bench_function("record_by_name_1k", |b| {
        b.iter(|| {
            let mut reg = MetricRegistry::new();
            for t in 0..128u64 {
                for name in &names {
                    // Re-interning per record is the slow name-hashing
                    // path this benchmark compares against the
                    // pre-interned key path below.
                    let key = reg.key(name);
                    reg.record_key(key, SimTime::from_secs(t), t as f64);
                }
            }
            black_box(reg.fast_path_records())
        })
    });
    group.bench_function("record_by_key_1k", |b| {
        b.iter(|| {
            let mut reg = MetricRegistry::new();
            let keys: Vec<_> = names.iter().map(|n| reg.key(n)).collect();
            for t in 0..128u64 {
                for key in &keys {
                    reg.record_key(*key, SimTime::from_secs(t), t as f64);
                }
            }
            black_box(reg.fast_path_records())
        })
    });
    group.finish();
}

/// `nodes` nodes, each holding one filler pod of `filler_cpu` mcore at
/// `filler_priority`, and `pending` one-core pods of priority 100 to place.
fn populated_cluster(
    nodes: usize,
    pending: usize,
    filler_cpu: f64,
    filler_priority: i32,
) -> ClusterState {
    let mut cluster = ClusterState::new(&ClusterConfig::uniform(nodes, NodeShape::default()));
    let filler = ResourceVec::new(filler_cpu, 16_384.0, 100.0, 200.0);
    let filler_kind = PodKind::ServiceReplica { app: AppId::new(9_999) };
    for i in 0..nodes {
        let pod =
            cluster.create_pod(PodSpec::new(filler_kind, filler, filler_priority), SimTime::ZERO);
        cluster.bind_pod(pod, cluster.nodes()[i].id()).expect("fits");
    }
    for k in 0..pending {
        cluster.create_pod(
            PodSpec::new(
                PodKind::ServiceReplica { app: AppId::new((k % 20) as u32) },
                ResourceVec::new(1_000.0, 1_024.0, 10.0, 20.0),
                100,
            ),
            SimTime::from_micros(k as u64),
        );
    }
    cluster
}

fn bench_scheduler(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler");
    group.sample_size(20);
    let cluster = populated_cluster(200, 64, 8_000.0, 10);
    let evolve = SchedulerFramework::evolve_default();
    group.bench_function("schedule_cycle_200n_64p", |b| {
        b.iter(|| black_box(evolve.schedule_cycle(&cluster)))
    });
    // The cycle the repo benchmark's `scheduler.fill_us_per_pod` times:
    // run the world to t = 30 s without scheduling, so the 40 services'
    // replicas and all four batch jobs' tasks are pending, then plan
    // them all. ≈ 6 ms an iteration, hence the two samples.
    let mix = Scenario::cluster_scale(1_000, 40, SimDuration::from_mins(10)).mix;
    let nodes = ClusterConfig::uniform(1_000, NodeShape::default());
    let mut unscheduled = Simulation::new(SimulationConfig::default(), nodes, &mix, 42);
    unscheduled.run_until(SimTime::from_secs(30));
    group.sample_size(2);
    group.bench_function("fill_cycle_1000n", |b| {
        b.iter(|| black_box(evolve.schedule_cycle(unscheduled.cluster())))
    });
    // What is left when the fill is done: every node full of pods no
    // pending one may preempt, and a backlog the carried ledger holds
    // back. After eight cycles each pod retries every fourth.
    let packed = populated_cluster(20, 800, 15_000.0, 100);
    let (mut backoff, mut index) = (RequeueBackoff::new(), FeasibilityIndex::new());
    let mut trace = TraceRing::new(0);
    let mut cycle = || {
        evolve.schedule_cycle_carried(&packed, &mut backoff, &mut index, SimTime::ZERO, &mut trace)
    };
    for _ in 0..8 {
        assert!(cycle().bindings.is_empty());
    }
    group.sample_size(20);
    group.bench_function("backlog_cycle_800_deferred", |b| b.iter(|| black_box(cycle())));
    // Scoring alone: 16 pods of 16 apps on 250 empty nodes through a
    // carried index that keeps 8 class caches, so every pod finds its class
    // evicted and scores all 250 nodes under the spreading profile.
    let mut cluster = populated_cluster(250, 0, 1_000.0, 0);
    for app in 0..16 {
        let request = ResourceVec::new(500.0 + app as f64, 1_024.0, 10.0, 20.0);
        let kind = PodKind::ServiceReplica { app: AppId::new(app) };
        cluster.create_pod(PodSpec::new(kind, request, 0), SimTime::ZERO);
    }
    let spreading = SchedulerFramework::kube_default();
    let mut index = FeasibilityIndex::new();
    group.bench_function("score_spreading_250_nodes", |b| {
        b.iter(|| {
            let mut backoff = RequeueBackoff::new();
            let plan = spreading.schedule_cycle_carried(
                &cluster,
                &mut backoff,
                &mut index,
                SimTime::ZERO,
                &mut trace,
            );
            black_box(plan.bindings.len())
        })
    });
    // 16 pods a node of 40 apps at two priorities, every one resized
    // between two sizes before each cycle; the pending pod fits, so the
    // cycle never asks for preemption.
    let mut cluster = ClusterState::new(&ClusterConfig::uniform(250, NodeShape::default()));
    let base = ResourceVec::new(500.0, 2_048.0, 10.0, 20.0);
    let mut bound = Vec::new();
    for k in 0..250 * 16 {
        let kind = PodKind::ServiceReplica { app: AppId::new((k % 40) as u32) };
        let spec = PodSpec::new(kind, base, 10 * (k % 2) as i32);
        let pod = cluster.create_pod(spec, SimTime::ZERO);
        cluster.bind_pod(pod, cluster.nodes()[k % 250].id()).expect("fits");
        bound.push(pod);
    }
    let kind = PodKind::ServiceReplica { app: AppId::new(0) };
    cluster.create_pod(PodSpec::new(kind, base, 20), SimTime::ZERO);
    let cluster = RefCell::new(cluster);
    let (mut backoff, mut index) = (RequeueBackoff::new(), FeasibilityIndex::new());
    let mut cycle = || {
        let cluster = cluster.borrow();
        evolve.schedule_cycle_carried(&cluster, &mut backoff, &mut index, SimTime::ZERO, &mut trace)
    };
    assert_eq!(cycle().bindings.len(), 1);
    let mut k = 0;
    group.bench_function("sync_250_nodes_all_resized", |b| {
        b.iter_batched(
            || {
                k ^= 1;
                let mut cluster = cluster.borrow_mut();
                for &pod in &bound {
                    cluster.resize_pod(pod, base * (0.9 + 0.1 * k as f64)).expect("fits");
                }
            },
            |()| black_box(cycle().bindings.len()),
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

/// A 100-node `cluster_scale` (4 services × 120 replicas, 4 batch jobs of
/// 200 parallel tasks) run for a minute under kube-static with a
/// scheduling cycle every 5 s: every node packed, a batch backlog pending.
fn bound_cluster_scale() -> Simulation {
    let mix = Scenario::cluster_scale(100, 4, SimDuration::from_mins(10)).mix;
    let cluster = ClusterConfig::uniform(100, NodeShape::default());
    let mut sim = Simulation::new(SimulationConfig::default(), cluster, &mix, 42);
    let scheduler = SchedulerFramework::evolve_default();
    for tick in 1..=12 {
        for (pod, node) in scheduler.schedule_cycle(sim.cluster()).bindings {
            sim.bind_pod(pod, node).expect("the plan fits the cluster it was made for");
        }
        sim.run_until(SimTime::from_secs(5 * tick));
    }
    sim
}

/// A `cluster_scale` of `nodes` nodes and `apps` services without its batch
/// jobs, every service at `rps`, scheduled once and run until the replicas
/// serve: what remains is arrivals and their wakes.
fn serving_services(nodes: usize, apps: usize, rps: f64) -> Simulation {
    let mut spec = ScenarioSpec::cluster_scale(nodes, apps, SimDuration::from_mins(10));
    spec.batch_jobs.clear();
    for service in &mut spec.services {
        service.load = LoadSpec::Constant { rate: rps };
    }
    let cluster = ClusterConfig::uniform(nodes, NodeShape::default());
    let mut sim = Simulation::new(SimulationConfig::default(), cluster, &spec.build().mix, 42);
    for (pod, node) in SchedulerFramework::evolve_default().schedule_cycle(sim.cluster()).bindings {
        sim.bind_pod(pod, node).expect("the plan fits the cluster it was made for");
    }
    sim.run_until(SimTime::from_secs(10));
    assert_eq!(sim.snapshot().pods_pending, 0, "every replica runs");
    sim
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);
    let mut sim = bound_cluster_scale();
    let apps: Vec<AppId> = sim.apps().iter().map(|a| a.id).collect();
    // After the first pass no server has been touched since its last
    // harvest, the case of every batch task between two ticks, and nothing
    // has moved: every harvest after the first is quiet and reads no lane.
    group.bench_function("take_window_all_apps_100n", |b| {
        b.iter(|| {
            for app in &apps {
                black_box(sim.take_window(*app).expect("known app").running_replicas);
            }
        })
    });
    // No scheduler runs here, so the batch tasks drain within 300 s and
    // what stays is 8 arrivals a second, each a pick among 120 replicas,
    // and their wakes.
    let mut until = sim.now();
    group.bench_function("run_until_5s_100n", |b| {
        b.iter(|| {
            until += SimDuration::from_secs(5);
            sim.run_until(until);
            black_box(sim.events_processed())
        })
    });
    // 25 nodes hold one service of 120 replicas; at 200 rps and ≈ 17 ms a
    // request three or four are busy, so a pick passes those and stops.
    // 10 nodes hold 40 services of two: 80 arrivals a second, each followed
    // by one rearm of its slot in the tree over the 40 arrival slots.
    for (name, nodes, apps, rps) in
        [("arrival_pick_120_replicas", 25, 1, 200.0), ("arrival_merge_40_services", 10, 40, 2.0)]
    {
        let mut sim = serving_services(nodes, apps, rps);
        let mut until = sim.now();
        group.bench_function(name, |b| {
            b.iter(|| {
                until += SimDuration::from_secs(1);
                sim.run_until(until);
                black_box(sim.events_processed())
            })
        });
    }
    // `scale1k_churn`'s services between two control ticks: 40 services of
    // 120 replicas at 2 rps, harvested every 5 s, so ten arrivals each on
    // an idle replica come between two harvests. Only the harvests are
    // timed; each is quiet and reads the replicas those arrivals touched.
    let sim = RefCell::new(serving_services(1_000, 40, 2.0));
    let apps: Vec<AppId> = sim.borrow().apps().iter().map(|a| a.id).collect();
    let mut until = sim.borrow().now();
    group.bench_function("take_window_40_services_10_arrivals", |b| {
        b.iter_batched(
            || {
                until += SimDuration::from_secs(5);
                sim.borrow_mut().run_until(until);
            },
            |()| {
                let mut sim = sim.borrow_mut();
                for app in &apps {
                    black_box(sim.take_window(*app).expect("known app").running_replicas);
                }
            },
            BatchSize::PerIteration,
        )
    });
    // 7 200 tasks started at 3 s, each 300 s of CPU, 3.3 s of disk and
    // 0.6 s of network work, and no event between their starts and their
    // completions. Harvested at 4 s, each task's record holds until its
    // disk runs dry at 6.3 s: a harvest before then credits every task
    // from its record, one after it reads every server again.
    // After its first iteration, `record_valid` harvests nothing that moved:
    // every harvest is quiet and returns the sums of the last pass.
    // `one_preempted` takes one task of each job away before each harvest,
    // so each harvest is the pass, and credits the other 7 196 tasks from
    // their records.
    let mut sim = busy_tasks(600, 4, 1_800);
    let apps: Vec<AppId> = sim.apps().iter().map(|a| a.id).collect();
    let harvest = |sim: &mut Simulation| {
        for app in &apps {
            black_box(sim.take_window(*app).expect("known app").usage);
        }
    };
    let mut until = sim.now();
    group.bench_function("harvest_7200_busy_tasks/record_valid", |b| {
        b.iter(|| {
            until += SimDuration::from_millis(1);
            sim.run_until(until);
            harvest(&mut sim);
        })
    });
    let sim = RefCell::new(busy_tasks(600, 4, 1_800));
    let mut tasks: Vec<Vec<PodId>> = apps.iter().map(|_| Vec::new()).collect();
    for pod in sim.borrow().cluster().pods().filter(|pod| pod.is_running()) {
        let job = apps.iter().position(|&app| app == pod.spec.kind.app()).expect("a job's task");
        tasks[job].push(pod.id);
    }
    let mut until = sim.borrow().now();
    group.bench_function("harvest_7200_busy_tasks/one_preempted", |b| {
        b.iter_batched(
            || {
                let mut sim = sim.borrow_mut();
                for tasks in &mut tasks {
                    sim.preempt_pod(tasks.pop().expect("a running task")).expect("it runs");
                }
                until += SimDuration::from_millis(1);
                sim.run_until(until);
            },
            |()| harvest(&mut sim.borrow_mut()),
            BatchSize::PerIteration,
        )
    });
    group.sample_size(1);
    group.bench_function("harvest_7200_busy_tasks/record_expired", |b| {
        b.iter_batched(
            || {
                let mut sim = busy_tasks(600, 4, 1_800);
                sim.run_until(SimTime::from_secs(7));
                sim
            },
            |mut sim| {
                harvest(&mut sim);
                sim
            },
            BatchSize::PerIteration,
        )
    });
    // A controller that holds its target: every running task is already at
    // the request it is asked for.
    let mut sim = busy_tasks(42, 1, 500);
    let app = sim.apps()[0].id;
    let task = sim.cluster().pods().next().expect("a task").spec.request;
    group.sample_size(10);
    group.bench_function("set_target_500_tasks_same_request", |b| {
        b.iter(|| black_box(sim.set_target(app, 0, task, 1.0).expect("known app")))
    });
    // A controller that moves its target every tick: one service of 30
    // running replicas whose per-replica target alternates between two
    // sizes, so every call resizes all 30 in place.
    let mut spec = ScenarioSpec::cluster_scale(10, 1, SimDuration::from_mins(10));
    spec.batch_jobs.clear();
    (spec.services[0].replicas, spec.services[0].load) = (30, LoadSpec::Constant { rate: 50.0 });
    let mut sim = bound_at_start(&spec, SimTime::from_secs(10));
    assert_eq!(sim.snapshot().pods_running, 30, "every replica runs");
    let app = sim.apps()[0].id;
    let request = sim.cluster().pods().next().expect("a replica").spec.request;
    let (targets, mut k) = ([request * 0.9, request], 0);
    group.bench_function("set_target_30_replicas", |b| {
        b.iter(|| {
            k ^= 1;
            black_box(sim.set_target(app, 30, targets[k], 1.0).expect("known app"))
        })
    });
    // The service's arrivals and wakes beside 7 200 batch timers over an hour
    // away: a service reschedule that sifts past the batch timers pays for
    // them here.
    let mut sim = service_beside_tasks();
    let mut until = sim.now();
    group.bench_function("arrival_beside_7200_batch_timers", |b| {
        b.iter(|| {
            until += SimDuration::from_secs(5);
            sim.run_until(until);
            black_box(sim.events_processed())
        })
    });
    group.finish();
}

/// The first `jobs` of `cluster_scale`'s batch jobs on `nodes` nodes
/// without its services, all submitted at 0 s with `parallel` tasks each,
/// bound in one scheduling pass and harvested at 4 s, a second after their
/// tasks started.
fn busy_tasks(nodes: usize, jobs: u32, parallel: u32) -> Simulation {
    let mut spec = ScenarioSpec::cluster_scale(nodes, 1, SimDuration::from_mins(10));
    spec.services.clear();
    spec.batch_jobs.truncate(jobs as usize);
    for job in &mut spec.batch_jobs {
        (job.submit_at, job.max_parallel) = (SimTime::ZERO, parallel);
    }
    let mut sim = bound_at_start(&spec, SimTime::from_secs(4));
    assert_eq!(sim.snapshot().pods_running, jobs * parallel, "every task runs");
    for app in sim.apps().iter().map(|a| a.id).collect::<Vec<_>>() {
        sim.take_window(app).expect("known app");
    }
    sim
}

/// `spec` on its uniform cluster, the pods it holds at 0 s bound in one
/// scheduling pass, run to `until`.
fn bound_at_start(spec: &ScenarioSpec, until: SimTime) -> Simulation {
    let cluster = ClusterConfig::uniform(spec.cluster.nodes, NodeShape::default());
    let mut sim = Simulation::new(SimulationConfig::default(), cluster, &spec.build().mix, 42);
    sim.run_until(SimTime::ZERO);
    for (pod, node) in SchedulerFramework::evolve_default().schedule_cycle(sim.cluster()).bindings {
        sim.bind_pod(pod, node).expect("the plan fits the cluster it was made for");
    }
    sim.run_until(until);
    sim
}

/// 7 200 batch tasks as in `busy_tasks(600, 4, 1_800)`, each with fifteen
/// times the CPU work (75 minutes at its request, so none completes
/// within the bench's ≈ 3 200 s), on 610 nodes beside one `cluster_scale`
/// service of eight replicas at 200 rps, run to 10 s.
fn service_beside_tasks() -> Simulation {
    let mut spec = ScenarioSpec::cluster_scale(610, 1, SimDuration::from_mins(10));
    spec.batch_jobs.truncate(4);
    for job in &mut spec.batch_jobs {
        (job.submit_at, job.max_parallel) = (SimTime::ZERO, 1_800);
        for stage in &mut job.stages {
            let work = stage.work;
            stage.work =
                ResourceVec::new(15.0 * work.cpu(), work.memory(), work.disk_io(), work.net_io());
        }
    }
    let service = &mut spec.services[0];
    (service.replicas, service.load) = (8, LoadSpec::Constant { rate: 200.0 });
    let sim = bound_at_start(&spec, SimTime::from_secs(10));
    assert_eq!(sim.snapshot().pods_running, 8 + 7_200, "every replica and task runs");
    sim
}

fn bench_runner(c: &mut Criterion) {
    let mut group = c.benchmark_group("runner");
    group.sample_size(10);
    let spec = ScenarioSpec::cluster_scale(250, 40, SimDuration::from_secs(60));
    // The repo benchmark's `cluster_scale` profile.
    let config = RunConfig::from_spec(&spec, ManagerKind::KubeStatic)
        .scheduler(SchedulerProfile::Evolve)
        .record_series(false)
        .build();
    group.bench_function("back_to_back_reps", |b| {
        b.iter(|| {
            for _ in 0..3 {
                black_box(ExperimentRunner::new(config.clone()).run());
            }
        })
    });
    group.finish();
}

/// A cyclic error in [-0.5, 0.5): the controllers never settle.
fn error_at(i: u64) -> f64 {
    ((i % 100) as f64 - 50.0) / 100.0
}

fn bench_control(c: &mut Criterion) {
    let mut group = c.benchmark_group("control");
    group.sample_size(20);
    // The PID every resource dimension runs, clamps and leak included.
    let mut pid = PidController::new();
    let mut i = 0u64;
    group.bench_function("pid_step", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(pid.step(black_box(error_at(i)), 5.0))
        })
    });
    let mut ctl = MultiResourceController::new(MultiResourceConfig::new(
        ResourceVec::splat(10.0),
        ResourceVec::splat(100_000.0),
    ));
    let alloc = ResourceVec::new(2_000.0, 2_048.0, 50.0, 50.0);
    let usage = ResourceVec::new(1_800.0, 512.0, 10.0, 45.0);
    group.bench_function("multi_resource_controller_step", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(ctl.step(black_box(alloc), black_box(usage), error_at(i), 5.0))
        })
    });
    let mut rls = RlsModel::new();
    group.bench_function("rls_update_4d", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            let x = [(i % 7) as f64, (i % 11) as f64, (i % 13) as f64, (i % 17) as f64];
            rls.update(black_box(&x), (i % 23) as f64);
        })
    });
    let mut sensitivity = SensitivityModel::new();
    for _ in 0..20 {
        sensitivity.observe(alloc, ResourceVec::new(1_900.0, 512.0, 10.0, 45.0), 0.2);
    }
    group.bench_function("sensitivity_attribution", |b| {
        b.iter(|| black_box(sensitivity.attribution()))
    });
    let mut p2 = P2Quantile::new(0.99);
    group.bench_function("p2_quantile_observe", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            p2.observe(black_box((i % 1_000) as f64));
        })
    });
    let mut tracker = PloTracker::new(100.0, PloBound::Upper);
    group.bench_function("plo_record_window", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            tracker.record_window(black_box((i % 200) as f64));
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_replica,
    bench_quantile,
    bench_registry,
    bench_scheduler,
    bench_engine,
    bench_runner,
    bench_control
);
criterion_main!(benches);
