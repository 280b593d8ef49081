//! Big-data batch job execution: staged dataflow with a bounded executor
//! pool, task requeue on preemption, and record-throughput accounting.

use evolve_types::{AppId, JobId, PodId, Resource, ResourceVec, SimTime};
use evolve_workload::{BatchEntry, PloSpec};

use crate::observe::{AppWindow, JobOutcome, WindowAccumulator};
use crate::pod::{PodKind, PodPhase, PodSpec};

use super::{Owner, Replicas, Simulation, Timer, BATCH_PRIORITY};

/// Runtime state of one batch job.
pub(crate) struct BatchRuntime {
    pub(crate) app: AppId,
    pub(crate) job: JobId,
    pub(crate) spec: BatchEntry,
    started: Option<SimTime>,
    /// Current stage index.
    stage: usize,
    /// Tasks of the current stage already launched (pods created).
    tasks_launched: u32,
    /// Tasks of the current stage completed.
    tasks_done: u32,
    /// The active task pods in pod-id order, each with a server once it
    /// runs. Its task index is in the pod's `PodKind::BatchTask`.
    replicas: Replicas,
    pub(crate) records_done: u64,
    records_this_window: u64,
    pub(crate) finished: Option<SimTime>,
    pub(crate) desired_alloc: ResourceVec,
    pub(crate) acc: WindowAccumulator,
}

impl BatchRuntime {
    pub(crate) fn new(app: AppId, job_raw: u64, spec: &BatchEntry) -> Self {
        let mut replicas = Replicas::default();
        replicas.reserve(spec.max_parallel as usize);
        BatchRuntime {
            app,
            job: JobId::new(job_raw),
            desired_alloc: spec.task_alloc,
            spec: spec.clone(),
            started: None,
            stage: 0,
            tasks_launched: 0,
            tasks_done: 0,
            replicas,
            records_done: 0,
            records_this_window: 0,
            finished: None,
            acc: WindowAccumulator::default(),
        }
    }

    /// Fraction of the job's records produced so far.
    pub(crate) fn progress(&self) -> f64 {
        let total = self.spec.total_records().max(1);
        self.records_done as f64 / total as f64
    }

    /// Task pods the job creates up to `end`, each task draining at the
    /// job's request: every slot of the executor pool starts one at
    /// submission and one more per task duration begun before `end` — a
    /// wave more than such tasks can finish, for a manager that grows
    /// their requests — and never more than the stages hold.
    pub(crate) fn pod_bound(&self, end: SimTime) -> usize {
        if self.spec.submit_at > end {
            return 0;
        }
        let tasks = self.spec.stages.iter().map(|s| s.tasks as usize).sum();
        let request = self.spec.task_alloc;
        let shortest = self
            .spec
            .stages
            .iter()
            .map(|s| drain_secs(s.work, request))
            .fold(f64::INFINITY, f64::min);
        let open = end.saturating_since(self.spec.submit_at).as_secs_f64();
        let waves = if shortest > 0.0 { 1.0 + (open / shortest).ceil() } else { f64::INFINITY };
        // A float to integer cast saturates: an endless pool is `usize::MAX`.
        ((f64::from(self.spec.max_parallel) * waves) as usize).min(tasks)
    }

    pub(crate) fn outcome(&self) -> JobOutcome {
        let deadline = match self.spec.plo {
            PloSpec::Deadline { deadline } => self.spec.submit_at + deadline,
            _ => SimTime::MAX,
        };
        JobOutcome {
            job: self.job,
            app: self.app,
            submitted: self.spec.submit_at,
            finished: self.finished,
            deadline,
        }
    }
}

/// Seconds one work item takes alone on a server holding `request`: its
/// slowest rate dimension, +∞ when one it needs has no rate.
fn drain_secs(work: ResourceVec, request: ResourceVec) -> f64 {
    [Resource::Cpu, Resource::DiskIo, Resource::NetIo]
        .into_iter()
        .filter(|&r| work[r] > 0.0)
        .map(|r| work[r] / request[r])
        .fold(0.0, f64::max)
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
                    && (rt.replicas.live() as u32) < rt.spec.max_parallel;
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
            let spec =
                PodSpec::new(PodKind::BatchTask { app, job, stage, task }, request, BATCH_PRIORITY)
                    .with_limit(limit);
            let pod = self.cluster.create_pod(spec, self.now);
            self.pod_owner.insert(pod, Owner::Batch(idx));
            let rt = &mut self.batches[idx];
            rt.replicas.insert(pod, None);
            rt.tasks_launched += 1;
        }
    }

    /// A task pod became running: give it its work item.
    pub(crate) fn batch_pod_started(&mut self, idx: usize, pod: PodId) {
        let now = self.now;
        let spec = &self.cluster.pod(pod).expect("started pod").spec;
        let request = spec.request;
        let PodKind::BatchTask { stage, .. } = spec.kind else {
            unreachable!("batch pod has batch kind")
        };
        let work = self.batches[idx].spec.stages[stage as usize].work;
        let replicas = &mut self.batches[idx].replicas;
        let mut server = replicas.renewed(request, 0.0, now);
        // One work item, no deadline (jobs run to completion).
        let out = &mut self.drain_scratch;
        out.clear();
        server.admit_arrived_into(0, now, now, SimTime::MAX, work, out);
        let done = !out.completed.is_empty();
        let next = server.next_event();
        let slot = replicas.insert(pod, Some((request, server)));
        let version = replicas.bump_version(slot);
        if done {
            // Nothing to drain: the item completed inside its admission.
            self.batch_task_complete(idx, pod);
        } else {
            self.schedule_wake(Timer::Batch, pod, slot, next, version);
        }
    }

    /// Task timer fired: has the work item drained?
    pub(crate) fn batch_wake(&mut self, idx: usize, pod: PodId, version: u64, hint: usize) {
        let now = self.now;
        let replicas = &mut self.batches[idx].replicas;
        let Some(slot) = replicas.wake_slot(pod, version, hint) else {
            return;
        };
        let out = &mut self.drain_scratch;
        out.clear();
        let next = replicas.with(slot, |server| {
            server.advance_into(now, out);
            server.next_event()
        });
        if !out.completed.is_empty() {
            self.batch_task_complete(idx, pod);
        } else {
            // Rates may have changed (resize); rearm.
            let version = replicas.bump_version(slot);
            self.schedule_wake(Timer::Batch, pod, slot, next, version);
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
            rt.records_done += stage_spec.records;
            rt.records_this_window += stage_spec.records;
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

    /// Removes a pod from the runtime table, preserving its window usage;
    /// returns whether it was active.
    fn batch_cleanup_pod(&mut self, idx: usize, pod: PodId) -> bool {
        let rt = &mut self.batches[idx];
        rt.replicas.remove(pod, self.now, &mut rt.acc.consumed)
    }

    /// External loss (preemption, node failure): the task restarts from
    /// scratch on a fresh pending pod.
    pub(crate) fn batch_pod_lost(&mut self, idx: usize, pod: PodId, reason: &'static str) {
        // Read while the pod is certainly there, as `started` is above.
        let kind = self.cluster.pod(pod).map(|p| p.spec.kind);
        let active = self.batch_cleanup_pod(idx, pod);
        let _ = self.cluster.terminate_pod(pod, PodPhase::Failed(reason));
        self.pod_owner.remove(pod);
        if !active || self.batches[idx].finished.is_some() {
            return;
        }
        let Ok(PodKind::BatchTask { task, .. }) = kind else {
            unreachable!("batch pod has batch kind")
        };
        // Replacement pod for the same task.
        let (app, job, stage, request, limit) = {
            let rt = &self.batches[idx];
            (rt.app, rt.job, rt.stage as u32, rt.desired_alloc.min(&self.pod_limit), self.pod_limit)
        };
        let spec =
            PodSpec::new(PodKind::BatchTask { app, job, stage, task }, request, BATCH_PRIORITY)
                .with_limit(limit);
        let new_pod = self.cluster.create_pod(spec, self.now);
        self.pod_owner.insert(new_pod, Owner::Batch(idx));
        self.batches[idx].replicas.insert(new_pod, None);
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
        let (target, valid) = self.clamp_target(per_task);
        self.batches[idx].desired_alloc = target;
        let mut failures = 0u32;
        // Both passes walk the table by slot: nothing in them adds or
        // removes a pod. The first reaches running tasks, the second every
        // active one — and is skipped when none waits for its server.
        let (running, active) = {
            let replicas = &self.batches[idx].replicas;
            (replicas.running(), replicas.live())
        };
        let mut reach = super::partial_quota(running, fraction);
        let mut reach_waiting =
            if active == running { 0 } else { super::partial_quota(active, fraction) };
        let mut from = 0;
        while let Some((slot, pod, runs)) = self.batches[idx].replicas.next_live(from) {
            from = slot + 1;
            // A task already at the target is reached, with nothing to resize.
            if runs && reach > 0 {
                reach -= 1;
                if self.batches[idx].replicas.request(slot) != target {
                    if valid && self.cluster.resize_valid(pod, target).is_ok() {
                        let replicas = &mut self.batches[idx].replicas;
                        let out = &mut self.drain_scratch;
                        out.clear();
                        let next = replicas.resize(slot, now, target, out);
                        let version = replicas.bump_version(slot);
                        self.schedule_wake(Timer::Batch, pod, slot, next, version);
                    } else {
                        failures += 1;
                    }
                }
            }
            if reach_waiting > 0 {
                reach_waiting -= 1;
                if !runs && valid {
                    self.cluster.rewrite_if_pending(pod, target);
                }
            }
        }
        failures
    }

    /// Harvests the job's control window.
    pub(crate) fn batch_window(&mut self, idx: usize, now: SimTime) -> AppWindow {
        let rt = &mut self.batches[idx];
        let (mem_total, alloc) = rt.replicas.harvest(now, &mut rt.acc.consumed);
        let records = std::mem::take(&mut rt.records_this_window);
        let mut window = rt.acc.harvest(now, mem_total);
        window.throughput_rps = records as f64 / window.duration.as_secs_f64().max(1e-9);
        // A task has a server exactly while it runs; the other active ones wait.
        let (running, active) = (rt.replicas.running(), rt.replicas.live());
        window.set_replica_facts(alloc, running, active - running, rt.desired_alloc);
        #[cfg(debug_assertions)]
        {
            let replicas = &self.batches[idx].replicas;
            let active = std::iter::successors(replicas.next_live(0), |&(slot, ..)| {
                replicas.next_live(slot + 1)
            });
            self.debug_check_window(&window, active.map(|(_, pod, _)| pod));
        }
        let rt = &self.batches[idx];
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
