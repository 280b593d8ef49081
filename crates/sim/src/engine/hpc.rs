//! HPC gang execution: all-or-nothing rank scheduling and lockstep
//! iterations that progress at the pace of the slowest rank.

use std::collections::BTreeSet;

use evolve_types::{AppId, JobId, PodId, Resource, ResourceVec, SimDuration, SimTime};
use evolve_workload::{sample_lognormal_with, HpcEntry};

use crate::observe::{AppWindow, JobOutcome, WindowAccumulator};
use crate::pod::{PodKind, PodPhase, PodSpec};

use super::{Event, Owner, Simulation, HPC_JITTER_CV, HPC_PRIORITY};

/// Runtime state of one HPC job.
pub(crate) struct HpcRuntime {
    pub(crate) app: AppId,
    pub(crate) job: JobId,
    pub(crate) spec: HpcEntry,
    started: Option<SimTime>,
    /// All rank pods (stable across requeues).
    pub(crate) pods: Vec<PodId>,
    /// Ranks currently running, in pod-id order (iterated for usage
    /// accounting).
    running: BTreeSet<PodId>,
    pub(crate) iterations_done: u32,
    version: u64,
    iterating: bool,
    pub(crate) finished: Option<SimTime>,
    pub(crate) desired_alloc: ResourceVec,
    pub(crate) acc: WindowAccumulator,
}

impl HpcRuntime {
    pub(crate) fn new(app: AppId, job_raw: u64, spec: &HpcEntry) -> Self {
        HpcRuntime {
            app,
            job: JobId::new(job_raw),
            desired_alloc: spec.rank_alloc,
            spec: spec.clone(),
            started: None,
            pods: Vec::new(),
            running: BTreeSet::new(),
            iterations_done: 0,
            version: 0,
            iterating: false,
            finished: None,
            acc: WindowAccumulator::default(),
        }
    }

    pub(crate) fn progress(&self) -> f64 {
        self.iterations_done as f64 / f64::from(self.spec.iterations.max(1))
    }

    /// Rank pods the job creates up to `end`: its gang, once submitted.
    pub(crate) fn pod_bound(&self, end: SimTime) -> usize {
        if self.spec.submit_at > end {
            0
        } else {
            self.spec.gang as usize
        }
    }

    pub(crate) fn outcome(&self) -> JobOutcome {
        JobOutcome {
            job: self.job,
            app: self.app,
            submitted: self.spec.submit_at,
            finished: self.finished,
            deadline: self.spec.submit_at + self.spec.deadline,
        }
    }
}

impl Simulation {
    /// The job was submitted: create the whole gang as pending pods. The
    /// scheduler must bind them all-or-nothing.
    pub(crate) fn hpc_submit(&mut self, idx: usize) {
        let (app, job, gang, request, limit) = {
            let rt = &self.hpcs[idx];
            (rt.app, rt.job, rt.spec.gang, rt.desired_alloc.min(&self.pod_limit), self.pod_limit)
        };
        for rank in 0..gang {
            let spec = PodSpec::new(PodKind::HpcRank { app, job, rank }, request, HPC_PRIORITY)
                .with_limit(limit);
            let pod = self.cluster.create_pod(spec, self.now);
            self.pod_owner.insert(pod, Owner::Hpc(idx));
            self.hpcs[idx].pods.push(pod);
        }
    }

    /// A rank became running; when the gang is complete, iterations begin.
    pub(crate) fn hpc_pod_started(&mut self, idx: usize, pod: PodId) {
        {
            let rt = &mut self.hpcs[idx];
            rt.running.insert(pod);
            if rt.started.is_none() {
                rt.started = Some(self.now);
            }
        }
        self.hpc_maybe_start_iteration(idx);
    }

    fn hpc_maybe_start_iteration(&mut self, idx: usize) {
        let ready = {
            let rt = &self.hpcs[idx];
            rt.finished.is_none() && !rt.iterating && rt.running.len() as u32 == rt.spec.gang
        };
        if !ready {
            return;
        }
        // Iteration duration: the slowest rank's drain time across all
        // resource dimensions, from the *current* pod allocations.
        let mut secs: f64 = 0.0;
        {
            let rt = &self.hpcs[idx];
            for pod in &rt.running {
                let alloc = self.cluster.pod(*pod).expect("running rank").spec.request;
                for r in [Resource::Cpu, Resource::DiskIo, Resource::NetIo] {
                    let work = rt.spec.work[r];
                    if work > 1e-12 {
                        let rate = alloc[r];
                        secs = if rate <= 1e-12 { f64::INFINITY } else { secs.max(work / rate) };
                    }
                }
            }
        }
        if !secs.is_finite() {
            return; // starved allocation: wait for a resize
        }
        let jitter = sample_lognormal_with(self.config.sampling, &mut self.rng, 1.0, HPC_JITTER_CV);
        let duration = SimDuration::from_secs_f64((secs * jitter).max(1e-6));
        let version = {
            let rt = &mut self.hpcs[idx];
            rt.iterating = true;
            rt.version += 1;
            rt.version
        };
        let at = self.now + duration;
        self.schedule(at, Event::HpcIterationDone { idx, version });
    }

    /// One lockstep iteration finished.
    pub(crate) fn hpc_iteration_done(&mut self, idx: usize, version: u64) {
        let now = self.now;
        let job_done = {
            let rt = &mut self.hpcs[idx];
            if rt.version != version || !rt.iterating || rt.finished.is_some() {
                return;
            }
            rt.iterating = false;
            rt.iterations_done += 1;
            // Usage accounting: the gang consumed one iteration of work on
            // every rank.
            let gang = f64::from(rt.spec.gang);
            let mut work = rt.spec.work * gang;
            work[Resource::Memory] = 0.0;
            rt.acc.consumed += work;
            rt.acc.record_completion(SimDuration::from_secs_f64(0.0));
            rt.iterations_done >= rt.spec.iterations
        };
        if job_done {
            self.hpcs[idx].finished = Some(now);
            for i in 0..self.hpcs[idx].pods.len() {
                let pod = self.hpcs[idx].pods[i];
                if self.cluster.pod(pod).is_ok_and(|p| !p.phase.is_terminal()) {
                    let _ = self.cluster.terminate_pod(pod, PodPhase::Succeeded);
                }
                self.pod_owner.remove(pod);
            }
            self.hpcs[idx].running.clear();
        } else {
            self.hpc_maybe_start_iteration(idx);
        }
    }

    /// External loss of a rank: the gang pauses and the rank requeues;
    /// the interrupted iteration restarts when the gang is whole again.
    pub(crate) fn hpc_pod_lost(&mut self, idx: usize, pod: PodId, reason: &'static str) {
        {
            let rt = &mut self.hpcs[idx];
            rt.running.remove(&pod);
            rt.iterating = false;
            rt.version += 1; // cancels any in-flight iteration event
        }
        let _ = self.cluster.terminate_pod(pod, PodPhase::Failed(reason));
        if self.hpcs[idx].finished.is_none() {
            let _ = self.cluster.requeue_pod(pod, self.now);
        } else {
            self.pod_owner.remove(pod);
        }
    }

    /// Applies a controller decision; returns failed in-place resizes.
    /// `fraction < 1.0` limits the rollout to the first `ceil(fraction·n)`
    /// ranks (degraded actuation path).
    pub(crate) fn hpc_set_target(
        &mut self,
        idx: usize,
        per_rank: ResourceVec,
        fraction: f64,
    ) -> u32 {
        let (target, valid) = self.clamp_target(per_rank);
        self.hpcs[idx].desired_alloc = target;
        let mut failures = 0u32;
        let quota = if fraction < 1.0 {
            super::partial_quota(self.hpcs[idx].pods.len(), fraction)
        } else {
            self.hpcs[idx].pods.len()
        };
        for i in 0..quota {
            let pod = self.hpcs[idx].pods[i];
            // Classify first: the phase borrow must end before the
            // mutating cluster calls below.
            let (bound, request) = match self.cluster.pod(pod).map(|p| (&p.phase, p.spec.request)) {
                Ok((PodPhase::Running | PodPhase::Starting, request)) => (true, request),
                Ok((PodPhase::Pending, request)) => (false, request),
                _ => continue,
            };
            if bound {
                // A rank already at the target is reached: nothing to resize.
                if request != target && !(valid && self.cluster.resize_valid(pod, target).is_ok()) {
                    failures += 1;
                }
            } else if valid {
                self.cluster.rewrite_if_pending(pod, target);
            }
        }
        failures
    }

    /// Harvests the job's control window.
    pub(crate) fn hpc_window(&mut self, idx: usize, now: SimTime) -> AppWindow {
        let mem_total = {
            let rt = &self.hpcs[idx];
            // Ranks hold their requested memory while running.
            rt.running
                .iter()
                .filter_map(|p| self.cluster.pod(*p).ok())
                .map(|p| p.spec.request[Resource::Memory])
                .sum::<f64>()
        };
        let mut window = self.hpcs[idx].acc.harvest(now, mem_total);
        let rt = &self.hpcs[idx];
        let mut alloc = ResourceVec::ZERO;
        let mut pending = 0u32;
        for pod in &rt.pods {
            if let Ok(p) = self.cluster.pod(*pod) {
                match p.phase {
                    PodPhase::Running => alloc += p.spec.request,
                    PodPhase::Pending | PodPhase::Starting => pending += 1,
                    _ => {}
                }
            }
        }
        let running = rt.running.len() as u32;
        window.alloc = alloc;
        window.running_replicas = running;
        window.pending_replicas = pending;
        window.alloc_per_replica =
            if running > 0 { alloc * (1.0 / f64::from(running)) } else { rt.desired_alloc };
        let progress = rt.progress();
        window.progress = Some(progress);
        if let Some(started) = rt.started {
            let elapsed = now.saturating_since(started).as_secs_f64();
            window.projected_makespan_s = match rt.finished {
                Some(f) => Some(f.saturating_since(started).as_secs_f64()),
                None if progress > 1e-6 => Some(elapsed / progress),
                None => None,
            };
        }
        window
    }
}
