//! The per-window utilisation law through the whole stack: a scenario
//! file, the engine, a manager and a scheduler, with the work every window
//! credits held to the work done inside that window, integrated here from
//! events the test sees from outside the engine's accounting.
//!
//! A batch task is one work item on one pod. It drains each rate dimension
//! at the pod's allocation — CPU divided by the thrash factor — until that
//! dimension runs dry, and everything that changes those rates is visible
//! from outside: the pod starts (`Pod::started`), its request moves (only
//! inside a control tick), it is preempted (only in a scheduling pass). So
//! the integral of its drain over a window is computed piece by piece, and
//! every batch window must equal it.
//!
//! A service's requests are not visible from outside. With a fixed demand
//! `d` per request its law is checked as conservation instead: the work
//! credited up to a tick lies between `d` times the requests completed and
//! `d` times those that arrived and were not shed.

use std::collections::BTreeMap;

use evolve_core::{ManagerKind, ResourceManager, RunConfig};
use evolve_scheduler::{FeasibilityIndex, RequeueBackoff, SchedulerFramework};
use evolve_sim::{ClusterConfig, PerfConfig, PodKind, PodPhase, Simulation, SimulationConfig};
use evolve_telemetry::trace::TraceRing;
use evolve_types::{AppId, PodId, Resource, ResourceVec, SimDuration, SimTime};
use evolve_workload::ScenarioSpec;

/// The rate dimensions, in the order of the arrays below.
const DIMS: [Resource; 3] = [Resource::Cpu, Resource::DiskIo, Resource::NetIo];

/// One batch task as seen from outside the engine.
struct Task {
    app: AppId,
    /// Work left per rate dimension.
    left: [f64; 3],
    /// Its memory working set, MiB.
    working_set: f64,
    started: SimTime,
    /// The request in force from each instant on, oldest first.
    requests: Vec<(SimTime, ResourceVec)>,
    /// When a scheduling pass took the pod away.
    preempted: Option<SimTime>,
}

impl Task {
    /// What the task drains per second in each dimension under `request`:
    /// the engine's processor-sharing server with one request in flight.
    fn rates(&self, request: ResourceVec) -> [f64; 3] {
        let perf = PerfConfig::default();
        let memory = request[Resource::Memory];
        let thrash = if memory <= 0.0 {
            1.0 + perf.thrash_coeff
        } else if self.working_set <= memory {
            1.0
        } else {
            1.0 + perf.thrash_coeff * (self.working_set / memory - 1.0)
        };
        [request[Resource::Cpu] / thrash, request[Resource::DiskIo], request[Resource::NetIo]]
    }

    /// Drains the task over `[from, to]` and returns what it did there.
    fn drain(&mut self, from: SimTime, to: SimTime) -> [f64; 3] {
        let from = from.max(self.started);
        let to = self.preempted.map_or(to, |p| p.min(to));
        let memory = self.requests[0].1[Resource::Memory];
        let killed =
            memory > 0.0 && self.working_set > PerfConfig::default().oom_threshold * memory;
        if to <= from || killed {
            // Nothing in the window, or OOM-killed at its admission.
            return [0.0; 3];
        }
        // Requests move only at control ticks, which are window edges.
        let at = self.requests.iter().rposition(|(since, _)| *since <= from).unwrap_or(0);
        let rates = self.rates(self.requests[at].1);
        let secs = to.saturating_since(from).as_secs_f64();
        let mut done = [0.0; 3];
        for r in 0..3 {
            done[r] = (rates[r] * secs).min(self.left[r]);
            self.left[r] -= done[r];
        }
        done
    }
}

/// Runs `cluster_scale(4, 1, 600 s)` under `manager` with its service's
/// demand fixed, checking every window of every app.
fn check_utilisation_law(manager: ManagerKind) {
    let mut spec = ScenarioSpec::cluster_scale(4, 1, SimDuration::from_secs(600));
    spec.services[0].demand_cv = 0.0;
    let demand = spec.services[0].demand;
    let cfg = RunConfig::from_spec(&spec, manager).seed(42).build();
    let cluster = ClusterConfig::uniform(cfg.nodes, cfg.node_shape);
    let mut sim =
        Simulation::new(SimulationConfig::default(), cluster, &cfg.scenario.mix, cfg.seed);
    let mut manager = ResourceManager::new(cfg.manager, &sim);
    let framework = SchedulerFramework::new(cfg.scheduler);
    let (mut backoff, mut index, mut trace) =
        (RequeueBackoff::new(), FeasibilityIndex::new(), TraceRing::new(0));
    let mut pass = |sim: &mut Simulation, tasks: &mut BTreeMap<PodId, Task>| {
        let now = sim.now();
        let plan = framework.schedule_cycle_carried(
            sim.cluster(),
            &mut backoff,
            &mut index,
            now,
            &mut trace,
        );
        for victim in &plan.preemptions {
            if sim.preempt_pod(*victim).is_ok() {
                if let Some(task) = tasks.get_mut(victim) {
                    task.preempted = Some(now);
                }
            }
        }
        for (pod, node) in &plan.bindings {
            let _ = sim.bind_pod(*pod, *node);
        }
    };

    let service = sim.apps()[0].id;
    let mut tasks: BTreeMap<PodId, Task> = BTreeMap::new();
    // The service's lifetime totals: credited work, completed, admitted.
    let (mut credited, mut completed, mut admitted) = ([0.0; 3], 0u64, 0u64);
    let (mut batch_windows, mut busy_windows) = (0u32, 0u32);
    pass(&mut sim, &mut tasks);
    let (mut from, dt) = (SimTime::ZERO, cfg.control_interval);
    let horizon = SimTime::ZERO + cfg.scenario.horizon;
    while from < horizon {
        let to = (from + dt).min(horizon);
        sim.run_until(to);
        // Tasks that started since the last tick, with the request they
        // started with: a starting task is never resized.
        for pod in sim.cluster().pods() {
            let (PodKind::BatchTask { app, job, stage, .. }, Some(started)) =
                (pod.spec.kind, pod.started)
            else {
                continue;
            };
            tasks.entry(pod.id).or_insert_with(|| {
                let job = &spec.batch_jobs[job.raw() as usize];
                let work = job.stages[stage as usize].work;
                Task {
                    app,
                    left: DIMS.map(|r| work[r]),
                    working_set: work[Resource::Memory],
                    started,
                    requests: vec![(started, pod.spec.request)],
                    preempted: None,
                }
            });
        }
        let windows = manager.tick(&mut sim, to.saturating_since(from).as_secs_f64());
        for (id, task) in &mut tasks {
            let pod = sim.cluster().pod(*id).expect("a tracked pod stays in the table");
            if pod.phase == PodPhase::Running && task.requests.last().unwrap().1 != pod.spec.request
            {
                task.requests.push((to, pod.spec.request));
            }
        }
        for (app, window) in &windows {
            let secs = window.duration.as_secs_f64();
            let got = DIMS.map(|r| window.usage[r] * secs);
            if *app == service {
                for r in 0..3 {
                    credited[r] += got[r];
                }
                completed += window.completions;
                admitted += window.arrivals - window.shed_requests;
                for (r, dim) in DIMS.into_iter().enumerate() {
                    let (floor, ceiling) =
                        (demand[dim] * completed as f64, demand[dim] * admitted as f64);
                    let slack = 1e-9 * ceiling.max(1.0);
                    assert!(
                        credited[r] >= floor - slack && credited[r] <= ceiling + slack,
                        "service, {dim:?} up to t = {to}: credited {} outside [{floor}, {ceiling}]",
                        credited[r]
                    );
                }
                continue;
            }
            let mut want = [0.0; 3];
            for task in tasks.values_mut().filter(|t| t.app == *app) {
                let done = task.drain(from, to);
                for r in 0..3 {
                    want[r] += done[r];
                }
            }
            batch_windows += 1;
            busy_windows += u32::from(want[0] > 0.0);
            for (r, dim) in DIMS.into_iter().enumerate() {
                let slack = 1e-9 * want[r].max(got[r]).max(1.0);
                assert!(
                    (got[r] - want[r]).abs() <= slack,
                    "app {app}, window ending {to}, {dim:?}: credited {} where {} was done",
                    got[r],
                    want[r]
                );
            }
        }
        pass(&mut sim, &mut tasks);
        from = to;
    }
    assert!(completed > 0 && busy_windows > batch_windows / 2, "the run must exercise both laws");
}

#[test]
fn every_window_credits_the_work_done_inside_it_under_kube_static() {
    check_utilisation_law(ManagerKind::KubeStatic);
}

#[test]
fn every_window_credits_the_work_done_inside_it_under_evolve() {
    check_utilisation_law(ManagerKind::Evolve);
}
