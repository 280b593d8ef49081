//! Service (cloud microservice) execution: open-loop arrivals, replica
//! dispatching, deployment-style replica reconciliation and graceful
//! scale-in.

use std::collections::{BTreeSet, VecDeque};

use evolve_types::{AppId, PodId, ResourceVec, SimTime};
use evolve_workload::{PoissonArrivals, RequestClass, SamplingMode, ServiceEntry};
use rand_chacha::ChaCha8Rng;

use crate::observe::{AppWindow, WindowAccumulator};
use crate::perf::DrainOutcome;
use crate::pod::{PodKind, PodPhase, PodSpec};

use super::{
    Owner, Replicas, Simulation, Timer, SERVICE_PRIORITY, SERVICE_QUEUE_CAP, SHED_QUEUE_CAP,
};

/// Requests a replica's heaps hold from its start, the room their first
/// push would make: the pick reaches a high replica only at a new peak of
/// the service's concurrency, and that request must not allocate.
const FIRST_ROOM: usize = 4;

/// A request waiting because no replica is running.
#[derive(Debug, Clone, Copy)]
struct QueuedRequest {
    id: u64,
    arrived: SimTime,
    deadline: SimTime,
    demand: ResourceVec,
}

/// Runtime state of one managed service.
pub(crate) struct ServiceRuntime {
    pub(crate) app: AppId,
    pub(crate) spec: ServiceEntry,
    /// The demand distribution of the entry's requests.
    class: RequestClass,
    arrivals: PoissonArrivals,
    pub(crate) desired_replicas: u32,
    pub(crate) desired_alloc: ResourceVec,
    /// All non-terminal pods owned by the deployment.
    pub(crate) pods: Vec<PodId>,
    /// Replicas being drained for scale-in. Ordered so that scale-out
    /// revives and window harvesting walk replicas deterministically.
    draining: BTreeSet<PodId>,
    /// The running replicas in pod-id order, each with its server.
    pub(super) replicas: Replicas,
    queue: VecDeque<QueuedRequest>,
    pub(crate) acc: WindowAccumulator,
    /// Load-shedding admission control, toggled by the capacity arbiter
    /// while the app runs capacity-clipped.
    pub(crate) shedding: bool,
    next_req: u64,
}

impl ServiceRuntime {
    pub(crate) fn new(app: AppId, spec: &ServiceEntry, mode: SamplingMode) -> Self {
        ServiceRuntime {
            app,
            class: RequestClass::new(spec.class.clone(), spec.demand, spec.demand_cv, spec.timeout),
            arrivals: PoissonArrivals::with_mode(spec.load.build(), mode),
            desired_replicas: spec.replicas,
            desired_alloc: spec.alloc,
            spec: spec.clone(),
            pods: Vec::new(),
            draining: BTreeSet::new(),
            replicas: Replicas::default(),
            queue: VecDeque::new(),
            acc: WindowAccumulator::default(),
            shedding: false,
            next_req: 0,
        }
    }

    /// The most replicas the service runs when its manager holds it to
    /// `replica_ceiling`, or to the initial count if that is more.
    pub(crate) fn replica_bound(&self, replica_ceiling: u32) -> usize {
        self.spec.replicas.max(replica_ceiling) as usize
    }

    pub(crate) fn next_arrival(&mut self, now: SimTime, rng: &mut ChaCha8Rng) -> Option<SimTime> {
        self.arrivals.next_after(now, rng)
    }

    /// Thinning bailouts recorded by this service's arrival sampler.
    pub(crate) fn thinning_bailouts(&self) -> u64 {
        self.arrivals.thinning_bailouts()
    }
}

impl Simulation {
    /// Creates one pending replica pod for a service.
    pub(crate) fn create_service_pod(&mut self, idx: usize) {
        let (app, request, limit) = {
            let rt = &self.services[idx];
            (rt.app, rt.desired_alloc.min(&self.pod_limit), self.pod_limit)
        };
        let spec = PodSpec::new(PodKind::ServiceReplica { app }, request, SERVICE_PRIORITY)
            .with_limit(limit);
        let pod = self.cluster.create_pod(spec, self.now);
        self.services[idx].pods.push(pod);
        self.pod_owner.insert(pod, Owner::Service(idx));
    }

    /// One request arrives for service `idx`.
    pub(crate) fn service_arrival(&mut self, idx: usize) {
        let now = self.now;
        let mode = self.config.sampling;
        // The pick: the running, non-draining, non-dead replica with the
        // fewest in-flight requests.
        let rt = &mut self.services[idx];
        let target = rt.replicas.pick(&rt.draining);
        // Admission control while capacity-clipped: excess offered load is
        // rejected at the front door once the backlog (the picked
        // replica's in-flight set, or the start-up queue when nothing
        // runs) reaches the shed bound — a small bounded queue instead of
        // an unbounded one. Shed arrivals are counted but never sample
        // demand, queue, complete or time out.
        if rt.shedding {
            let backlog = target.map_or(rt.queue.len(), |(.., inflight)| inflight as usize);
            if backlog >= SHED_QUEUE_CAP {
                rt.acc.arrivals += 1;
                rt.acc.shed += 1;
                return;
            }
        }
        rt.acc.arrivals += 1;
        let demand = rt.class.sample_demand_with(mode, &mut self.rng);
        let deadline = now + rt.class.timeout();
        let id = rt.next_req;
        rt.next_req += 1;
        match target {
            Some((slot, pod, _)) => {
                let mut out = std::mem::take(&mut self.drain_scratch);
                out.clear();
                // The slot the pick found serves admit and the wake reschedule.
                let replicas = &mut self.services[idx].replicas;
                let (had_outcome, next) = replicas.with(slot, |server| {
                    let had = server.admit_arrived_into(id, now, now, deadline, demand, &mut out);
                    (had, server.next_event())
                });
                let oom = out.oom_killed;
                if had_outcome {
                    self.service_process_outcome(idx, pod, &out);
                }
                self.drain_scratch = out;
                if !oom {
                    // The admit cannot retire the pod unless it OOM-killed,
                    // so the slot (and its next event) are still live.
                    let version = self.services[idx].replicas.bump_version(slot);
                    self.schedule_wake(Timer::Service, pod, slot, next, version);
                }
            }
            None => {
                let cap = SERVICE_QUEUE_CAP;
                let rt = &mut self.services[idx];
                if rt.queue.len() >= cap {
                    rt.acc.timeouts += 1; // dropped at the front door
                } else {
                    rt.queue.push_back(QueuedRequest { id, arrived: now, deadline, demand });
                }
            }
        }
    }

    /// A replica finished starting: create its execution state and drain
    /// the waiting queue into it.
    pub(crate) fn service_pod_started(&mut self, idx: usize, pod: PodId) {
        let now = self.now;
        if self.services[idx].draining.contains(&pod) {
            // Scaled in while still starting: retire immediately.
            self.service_retire_pod(idx, pod, PodPhase::Succeeded);
            return;
        }
        let request = self.cluster.pod(pod).expect("started pod exists").spec.request;
        let rt = &mut self.services[idx];
        let mut server = rt.replicas.renewed(request, rt.spec.base_memory_mib, now);
        server.reserve(FIRST_ROOM);
        // Drain the front-door queue.
        let mut oom = false;
        let out = &mut self.drain_scratch;
        while let Some(q) = rt.queue.pop_front() {
            if q.deadline <= now {
                rt.acc.timeouts += 1;
                continue;
            }
            out.clear();
            if server.admit_arrived_into(q.id, now, q.arrived, q.deadline, q.demand, out) {
                for c in &out.completed {
                    rt.acc.record_completion(c.latency);
                }
                rt.acc.timeouts += out.timed_out.len() as u64;
                if out.oom_killed {
                    oom = true;
                    break;
                }
            }
        }
        let next = server.next_event();
        let slot = rt.replicas.insert(pod, Some((request, server)));
        if oom {
            self.service_oom(idx, pod);
            return;
        }
        let version = self.services[idx].replicas.bump_version(slot);
        self.schedule_wake(Timer::Service, pod, slot, next, version);
    }

    /// Timer fired for a replica: advance it and process what happened.
    pub(crate) fn service_wake(&mut self, idx: usize, pod: PodId, version: u64, hint: usize) {
        let now = self.now;
        let replicas = &mut self.services[idx].replicas;
        // One lookup serves the drain, the scale-in check and the wake
        // reschedule.
        let Some(slot) = replicas.wake_slot(pod, version, hint) else {
            return; // the pod has gone, or the timer is stale
        };
        let mut outcome = std::mem::take(&mut self.drain_scratch);
        outcome.clear();
        let next = replicas.with(slot, |server| {
            server.advance_into(now, &mut outcome);
            server.next_event()
        });
        let drained_empty = replicas.is_idle(slot);
        let oom = outcome.oom_killed;
        self.service_process_outcome(idx, pod, &outcome);
        self.drain_scratch = outcome;
        if oom {
            return; // the OOM handler already retired the pod
        }
        // Graceful scale-in: retire once drained.
        if drained_empty && self.services[idx].draining.contains(&pod) {
            self.service_retire_pod(idx, pod, PodPhase::Succeeded);
        } else {
            let version = self.services[idx].replicas.bump_version(slot);
            self.schedule_wake(Timer::Service, pod, slot, next, version);
        }
    }

    fn service_process_outcome(&mut self, idx: usize, pod: PodId, outcome: &DrainOutcome) {
        {
            let rt = &mut self.services[idx];
            for c in &outcome.completed {
                rt.acc.record_completion(c.latency);
            }
            rt.acc.timeouts += outcome.timed_out.len() as u64;
        }
        if outcome.oom_killed {
            self.service_oom(idx, pod);
        }
    }

    /// Out of line and cold: the OOM path must not make the per-wake
    /// outcome handling above too large to inline into its callers.
    #[cold]
    #[inline(never)]
    fn service_oom(&mut self, idx: usize, pod: PodId) {
        self.services[idx].acc.oom_kills += 1;
        self.service_retire_pod(idx, pod, PodPhase::Failed("oom killed"));
        self.reconcile_service(idx);
    }

    /// Removes a replica pod from all runtime maps and terminates it.
    fn service_retire_pod(&mut self, idx: usize, pod: PodId, phase: PodPhase) {
        {
            let rt = &mut self.services[idx];
            // Preserves the work it performed this window.
            rt.replicas.remove(pod, self.now, &mut rt.acc.consumed);
            rt.draining.remove(&pod);
            rt.pods.retain(|p| *p != pod);
        }
        self.pod_owner.remove(pod);
        let _ = self.cluster.terminate_pod(pod, phase);
    }

    /// External loss (preemption, node failure).
    pub(crate) fn service_pod_lost(&mut self, idx: usize, pod: PodId, reason: &'static str) {
        // In-flight requests die with the replica, and what they drained
        // up to this instant is credited first.
        let (rt, now, out) = (&mut self.services[idx], self.now, &mut self.drain_scratch);
        if let Some(slot) = rt.replicas.running_slot(pod) {
            out.clear();
            rt.replicas.with(slot, |s| {
                s.credit_to(now);
                s.kill_into(out);
            });
            rt.acc.timeouts += out.timed_out.len() as u64;
        }
        self.service_retire_pod(idx, pod, PodPhase::Failed(reason));
        self.reconcile_service(idx);
    }

    /// Reconciles the replica count against the desired state, exactly
    /// like a Deployment controller: create pending pods on scale-out,
    /// cancel pending pods and drain the newest running replicas on
    /// scale-in.
    pub(crate) fn reconcile_service(&mut self, idx: usize) {
        let desired = self.services[idx].desired_replicas.max(1) as usize;
        loop {
            // Draining pods stay in `pods` until retired, so the active
            // set is the difference — counted without materializing it.
            let active_len = {
                let rt = &self.services[idx];
                debug_assert!(rt.draining.iter().all(|p| rt.pods.contains(p)));
                rt.pods.len() - rt.draining.len()
            };
            if active_len < desired {
                // Prefer reviving a draining replica over a cold start.
                let revived = {
                    let rt = &mut self.services[idx];
                    let candidate = rt.draining.iter().copied().next();
                    if let Some(p) = candidate {
                        rt.draining.remove(&p);
                        true
                    } else {
                        false
                    }
                };
                if !revived {
                    self.create_service_pod(idx);
                }
            } else if active_len > desired {
                // Cancel pending pods first (free), then drain the newest.
                let rt = &self.services[idx];
                let pending = rt
                    .pods
                    .iter()
                    .rev()
                    .filter(|p| !rt.draining.contains(p))
                    .copied()
                    .find(|p| self.cluster.pod(*p).is_ok_and(|x| x.is_pending()));
                if let Some(p) = pending {
                    self.service_retire_pod(idx, p, PodPhase::Succeeded);
                } else if let Some(p) =
                    rt.pods.iter().rev().find(|p| !rt.draining.contains(p)).copied()
                {
                    self.services[idx].draining.insert(p);
                    // An idle replica can retire immediately.
                    let replicas = &self.services[idx].replicas;
                    if replicas.running_slot(p).is_some_and(|slot| replicas.is_idle(slot)) {
                        self.service_retire_pod(idx, p, PodPhase::Succeeded);
                    }
                } else {
                    break;
                }
            } else {
                break;
            }
        }
    }

    /// Applies a controller decision; returns failed in-place resizes.
    /// `fraction < 1.0` models a degraded actuation path: the desired
    /// state updates fully but the rollout reaches only the first
    /// `ceil(fraction·n)` replicas (by pod-id order).
    pub(crate) fn service_set_target(
        &mut self,
        idx: usize,
        replicas: u32,
        per_replica: ResourceVec,
        fraction: f64,
    ) -> u32 {
        let now = self.now;
        let (target, valid) = self.clamp_target(per_replica);
        self.services[idx].desired_alloc = target;
        self.services[idx].desired_replicas = replicas.max(1);
        let mut failures = 0u32;
        // Resize running replicas in place, walking the table by slot:
        // nothing in the loop adds or removes one (an advance cannot OOM).
        let running = self.services[idx].replicas.running();
        let mut reach = super::partial_quota(running, fraction);
        let mut from = 0;
        while let Some((slot, pod, runs)) = self.services[idx].replicas.next_live(from) {
            debug_assert!(runs, "a service's table holds running replicas only");
            from = slot + 1;
            if reach == 0 {
                break;
            }
            reach -= 1;
            if self.services[idx].replicas.request(slot) == target {
                continue; // already there: reached, and nothing to resize
            }
            if !valid {
                failures += 1;
                continue;
            }
            match self.cluster.resize_valid(pod, target) {
                Ok(()) => {
                    let mut out = std::mem::take(&mut self.drain_scratch);
                    out.clear();
                    let next = self.services[idx].replicas.resize(slot, now, target, &mut out);
                    self.service_process_outcome(idx, pod, &out);
                    self.drain_scratch = out;
                    let version = self.services[idx].replicas.bump_version(slot);
                    self.schedule_wake(Timer::Service, pod, slot, next, version);
                }
                Err(_) => failures += 1,
            }
        }
        // Rewrite pending pods' requests (fraction-limited like the
        // in-place pass when the actuation path is degraded) — if any pod
        // waits at all: a pod has a server exactly while it runs.
        let mut budget = if self.services[idx].pods.len() == running {
            0
        } else if fraction < 1.0 {
            let pending = (0..self.services[idx].pods.len())
                .filter(|&i| {
                    let pod = self.services[idx].pods[i];
                    self.cluster.pod(pod).is_ok_and(|x| x.is_pending())
                })
                .count();
            super::partial_quota(pending, fraction)
        } else {
            usize::MAX
        };
        for i in 0..self.services[idx].pods.len() {
            if budget == 0 {
                break;
            }
            let pod = self.services[idx].pods[i];
            let pending = if valid {
                self.cluster.rewrite_if_pending(pod, target)
            } else {
                self.cluster.pod(pod).is_ok_and(|x| x.is_pending())
            };
            if pending {
                budget -= 1;
            }
        }
        self.reconcile_service(idx);
        failures
    }

    /// Harvests the service's control window.
    pub(crate) fn service_window(&mut self, idx: usize, now: SimTime) -> AppWindow {
        let rt = &mut self.services[idx];
        // Expire queued requests first.
        let before = rt.queue.len();
        rt.queue.retain(|q| q.deadline > now);
        rt.acc.timeouts += (before - rt.queue.len()) as u64;
        // Gather usage and allocation from live replicas.
        let (mem_total, alloc) = rt.replicas.harvest(now, &mut rt.acc.consumed);
        let mut window = rt.acc.harvest(now, mem_total);
        // A pod has a server exactly while it runs; the others wait.
        let (running, pods) = (rt.replicas.running(), rt.pods.len());
        window.set_replica_facts(alloc, running, pods - running, rt.desired_alloc);
        #[cfg(debug_assertions)]
        self.debug_check_window(&window, self.services[idx].pods.iter().copied());
        window
    }
}
