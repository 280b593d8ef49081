//! Big-data batch job execution: staged dataflow with a bounded executor
//! pool, task requeue on preemption, and record-throughput accounting.

use std::collections::BTreeMap;

use evolve_types::{AppId, JobId, PodId, Resource, ResourceVec, SimTime};
use evolve_workload::BatchJobSpec;

use crate::observe::{AppWindow, JobOutcome, WindowAccumulator};
use crate::perf::ReplicaServer;
use crate::pod::{PodKind, PodPhase, PodSpec};

use super::{Owner, Simulation};

/// Runtime state of one batch job.
pub(crate) struct BatchRuntime {
    pub(crate) app: AppId,
    pub(crate) job: JobId,
    pub(crate) spec: BatchJobSpec,
    submit_at: SimTime,
    started: Option<SimTime>,
    /// Current stage index.
    stage: usize,
    /// Tasks of the current stage already launched (pods created).
    tasks_launched: u32,
    /// Tasks of the current stage completed.
    tasks_done: u32,
    /// Active pods → task index, in pod-id order (iterated for usage
    /// harvesting, so the order must be deterministic).
    active: BTreeMap<PodId, u32>,
    servers: BTreeMap<PodId, ReplicaServer>,
    wake_version: super::PodMap<u64>,
    pub(crate) records_done: u64,
    records_this_window: u64,
    pub(crate) finished: Option<SimTime>,
    pub(crate) desired_alloc: ResourceVec,
    pub(crate) acc: WindowAccumulator,
    /// Reusable pod-id buffer for the actuation paths.
    scratch: Vec<PodId>,
}

impl BatchRuntime {
    pub(crate) fn new(app: AppId, job_raw: u64, spec: BatchJobSpec, submit_at: SimTime) -> Self {
        let desired_alloc = spec.task_alloc;
        BatchRuntime {
            app,
            job: JobId::new(job_raw),
            spec,
            submit_at,
            started: None,
            stage: 0,
            tasks_launched: 0,
            tasks_done: 0,
            active: BTreeMap::new(),
            servers: BTreeMap::new(),
            wake_version: super::PodMap::default(),
            records_done: 0,
            records_this_window: 0,
            finished: None,
            desired_alloc,
            acc: WindowAccumulator::default(),
            scratch: Vec::new(),
        }
    }

    /// Fraction of the job's records produced so far.
    pub(crate) fn progress(&self) -> f64 {
        let total = self.spec.total_records().max(1);
        self.records_done as f64 / total as f64
    }

    pub(crate) fn outcome(&self) -> JobOutcome {
        let deadline = match self.spec.plo {
            evolve_workload::PloSpec::Deadline { deadline } => self.submit_at + deadline,
            _ => SimTime::MAX,
        };
        JobOutcome {
            job: self.job,
            app: self.app,
            submitted: self.submit_at,
            finished: self.finished,
            deadline,
        }
    }

    fn bump_version(&mut self, pod: PodId) -> u64 {
        let v = self.wake_version.get(pod).unwrap_or(0) + 1;
        self.wake_version.insert(pod, v);
        v
    }
}

impl Simulation {
    /// The job was submitted: launch the first wave of task pods.
    pub(crate) fn batch_submit(&mut self, idx: usize) {
        self.batches[idx].started = Some(self.now);
        self.batch_launch_tasks(idx);
    }

    /// Creates pending task pods up to the executor-pool cap.
    fn batch_launch_tasks(&mut self, idx: usize) {
        loop {
            let (launch, app, request, limit, stage, task) = {
                let rt = &self.batches[idx];
                if rt.finished.is_some() || rt.stage >= rt.spec.stages.len() {
                    break;
                }
                let stage_spec = &rt.spec.stages[rt.stage];
                let can_launch = rt.tasks_launched < stage_spec.tasks
                    && (rt.active.len() as u32) < rt.spec.max_parallel_tasks;
                (
                    can_launch,
                    rt.app,
                    rt.desired_alloc.min(&self.pod_limit),
                    self.pod_limit,
                    rt.stage as u32,
                    rt.tasks_launched,
                )
            };
            if !launch {
                break;
            }
            let job = self.batches[idx].job;
            let spec = PodSpec::new(
                PodKind::BatchTask { app, job, stage, task },
                request,
                self.config.batch_priority,
            )
            .with_limit(limit);
            let pod = self.cluster.create_pod(spec, self.now);
            self.pod_owner.insert(pod, Owner::Batch(idx));
            let rt = &mut self.batches[idx];
            rt.active.insert(pod, task);
            rt.tasks_launched += 1;
        }
    }

    /// A task pod became running: give it its work item.
    pub(crate) fn batch_pod_started(&mut self, idx: usize, pod: PodId) {
        let now = self.now;
        let spec = &self.cluster.pod(pod).expect("started pod").spec;
        let alloc = spec.request;
        let PodKind::BatchTask { stage, .. } = spec.kind else {
            unreachable!("batch pod has batch kind")
        };
        let work = self.batches[idx].spec.stages[stage as usize].work_per_task;
        let mut server = ReplicaServer::new(alloc, 0.0, self.config.perf, now);
        // One work item, no deadline (jobs run to completion).
        let done =
            server.admit(0, now, SimTime::MAX, work).is_some_and(|out| !out.completed.is_empty());
        let next = server.next_event();
        let version = {
            let rt = &mut self.batches[idx];
            rt.servers.insert(pod, server);
            rt.bump_version(pod)
        };
        if done {
            // Nothing to drain: the item completed inside its admission.
            self.batch_task_complete(idx, pod);
        } else if let Some(at) = next {
            self.schedule_wake(pod, at, version);
        }
    }

    /// Task timer fired: has the work item drained?
    pub(crate) fn batch_wake(&mut self, idx: usize, pod: PodId, version: u64) {
        let now = self.now;
        let done = {
            let rt = &mut self.batches[idx];
            if rt.wake_version.get(pod) != Some(version) {
                return;
            }
            let Some(server) = rt.servers.get_mut(&pod) else {
                return;
            };
            let out = server.advance(now);
            !out.completed.is_empty()
        };
        if done {
            self.batch_task_complete(idx, pod);
        } else {
            // Rates may have changed (resize); rearm.
            let (next, version) = {
                let rt = &mut self.batches[idx];
                let next = rt.servers.get_mut(&pod).and_then(ReplicaServer::next_event);
                let version = rt.bump_version(pod);
                (next, version)
            };
            if let Some(at) = next {
                self.schedule_wake(pod, at, version);
            }
        }
    }

    fn batch_task_complete(&mut self, idx: usize, pod: PodId) {
        let now = self.now;
        let started = self.cluster.pod(pod).ok().and_then(|p| p.started);
        self.batch_cleanup_pod(idx, pod);
        let _ = self.cluster.terminate_pod(pod, PodPhase::Succeeded);
        self.pod_owner.remove(pod);
        let stage_finished = {
            let rt = &mut self.batches[idx];
            let stage_spec = rt.spec.stages[rt.stage];
            rt.tasks_done += 1;
            rt.records_done += stage_spec.records_per_task;
            rt.records_this_window += stage_spec.records_per_task;
            if let Some(s) = started {
                rt.acc.record_completion(now.saturating_since(s));
            }
            rt.tasks_done == stage_spec.tasks
        };
        if stage_finished {
            let rt = &mut self.batches[idx];
            rt.stage += 1;
            rt.tasks_launched = 0;
            rt.tasks_done = 0;
            if rt.stage >= rt.spec.stages.len() {
                rt.finished = Some(now);
                return;
            }
        }
        self.batch_launch_tasks(idx);
    }

    /// Removes a pod from the runtime maps, preserving its window usage.
    fn batch_cleanup_pod(&mut self, idx: usize, pod: PodId) {
        let rt = &mut self.batches[idx];
        if let Some(mut server) = rt.servers.remove(&pod) {
            let mut used = server.take_consumed();
            used[Resource::Memory] = 0.0;
            rt.acc.consumed += used;
        }
        rt.wake_version.remove(pod);
        rt.active.remove(&pod);
    }

    /// External loss (preemption, node failure): the task restarts from
    /// scratch on a fresh pending pod.
    pub(crate) fn batch_pod_lost(&mut self, idx: usize, pod: PodId, reason: &str) {
        let task = self.batches[idx].active.get(&pod).copied();
        self.batch_cleanup_pod(idx, pod);
        let _ = self.cluster.terminate_pod(pod, PodPhase::Failed(reason.into()));
        self.pod_owner.remove(pod);
        let Some(task) = task else {
            return;
        };
        if self.batches[idx].finished.is_some() {
            return;
        }
        // Replacement pod for the same task.
        let (app, job, stage, request, limit) = {
            let rt = &self.batches[idx];
            (rt.app, rt.job, rt.stage as u32, rt.desired_alloc.min(&self.pod_limit), self.pod_limit)
        };
        let spec = PodSpec::new(
            PodKind::BatchTask { app, job, stage, task },
            request,
            self.config.batch_priority,
        )
        .with_limit(limit);
        let new_pod = self.cluster.create_pod(spec, self.now);
        self.pod_owner.insert(new_pod, Owner::Batch(idx));
        self.batches[idx].active.insert(new_pod, task);
    }

    /// Applies a controller decision; returns failed in-place resizes.
    /// `fraction < 1.0` limits the rollout to the first `ceil(fraction·n)`
    /// tasks (degraded actuation path).
    pub(crate) fn batch_set_target(
        &mut self,
        idx: usize,
        per_task: ResourceVec,
        fraction: f64,
    ) -> u32 {
        let now = self.now;
        let target = per_task.min(&self.pod_limit).sanitized();
        self.batches[idx].desired_alloc = target;
        let mut failures = 0u32;
        // Reuse the runtime's scratch buffer for both passes; the loop
        // bodies mutate the maps being iterated.
        let mut buf = std::mem::take(&mut self.batches[idx].scratch);
        buf.clear();
        buf.extend(self.batches[idx].servers.keys().copied());
        if fraction < 1.0 {
            buf.truncate(super::partial_quota(buf.len(), fraction));
        }
        for &pod in &buf {
            match self.cluster.resize_pod(pod, target) {
                Ok(()) => {
                    let (next, version) = {
                        let rt = &mut self.batches[idx];
                        let server = rt.servers.get_mut(&pod).expect("running");
                        server.advance(now);
                        server.set_alloc(target);
                        let next = server.next_event();
                        let version = rt.bump_version(pod);
                        (next, version)
                    };
                    if let Some(at) = next {
                        self.schedule_wake(pod, at, version);
                    }
                }
                Err(_) => failures += 1,
            }
        }
        buf.clear();
        buf.extend(self.batches[idx].active.keys().copied());
        if fraction < 1.0 {
            buf.truncate(super::partial_quota(buf.len(), fraction));
        }
        for &pod in &buf {
            if self.cluster.pod(pod).is_ok_and(|x| x.is_pending()) {
                let _ = self.cluster.update_pending_request(pod, target);
            }
        }
        buf.clear();
        self.batches[idx].scratch = buf;
        failures
    }

    /// Harvests the job's control window.
    pub(crate) fn batch_window(&mut self, idx: usize, now: SimTime) -> AppWindow {
        let mut mem_total = 0.0;
        {
            let rt = &mut self.batches[idx];
            for server in rt.servers.values_mut() {
                let mut used = server.take_consumed();
                mem_total += used[Resource::Memory];
                used[Resource::Memory] = 0.0;
                rt.acc.consumed += used;
            }
        }
        let records = std::mem::take(&mut self.batches[idx].records_this_window);
        let mut window = self.batches[idx].acc.harvest(now, mem_total);
        window.throughput_rps = records as f64 / window.duration.as_secs_f64().max(1e-9);
        let rt = &self.batches[idx];
        let mut alloc = ResourceVec::ZERO;
        let mut running = 0u32;
        let mut pending = 0u32;
        for pod in rt.active.keys() {
            if let Ok(p) = self.cluster.pod(*pod) {
                match p.phase {
                    PodPhase::Running => {
                        running += 1;
                        alloc += p.spec.request;
                    }
                    PodPhase::Pending | PodPhase::Starting => pending += 1,
                    _ => {}
                }
            }
        }
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
                // No progress yet: optimistically the job is still
                // "projected on time" until it shows data (avoids wild
                // transients right after submission).
                None => None,
            };
        }
        window
    }
}
