//! Observation types: what the resource manager sees each control window.
//!
//! The engine accumulates per-application statistics between harvests;
//! [`AppWindow`] is the scrape the controller consumes — completions,
//! tail latency, measured usage, current allocation. [`ClusterSnapshot`]
//! and [`JobOutcome`] feed the experiment reports.

use evolve_types::codec::{Codec, Decoder, Encoder};
use evolve_types::{AppId, JobId, PriorityClass, ResourceVec, Result, SimDuration, SimTime};
use evolve_workload::{PloSpec, WorldClass};

/// Static identity of a managed application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppStatus {
    /// The application id.
    pub id: AppId,
    /// Human-readable name from the workload spec.
    pub name: String,
    /// Which world the app belongs to.
    pub world: WorldClass,
    /// The app's performance objective.
    pub plo: PloSpec,
    /// How the capacity arbiter treats the app under cluster overload.
    pub priority: PriorityClass,
}

/// Which execution model an application uses (mirrors
/// [`WorldClass`] but carries engine-specific detail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// Open-loop request service.
    Service,
    /// Staged batch job.
    Batch,
    /// Gang-scheduled HPC job.
    Hpc,
}

/// One control window's measurements for an application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppWindow {
    /// Harvest time (end of window).
    pub at: SimTime,
    /// Window length.
    pub duration: SimDuration,
    /// Requests that arrived in the window (services).
    pub arrivals: u64,
    /// Requests completed in the window.
    pub completions: u64,
    /// Requests dropped on timeout in the window.
    pub timeouts: u64,
    /// Requests rejected at admission while the app ran capacity-clipped
    /// (load shedding) — counted in `arrivals` but never queued, so they
    /// neither complete nor time out.
    pub shed_requests: u64,
    /// OOM kills in the window.
    pub oom_kills: u64,
    /// 99th-percentile latency (ms) of completions; `None` when none
    /// completed.
    pub p99_ms: Option<f64>,
    /// Mean latency (ms) of completions.
    pub mean_ms: Option<f64>,
    /// Completions per second over the window.
    pub throughput_rps: f64,
    /// Measured usage: mean consumption rates over the window (CPU
    /// mcores, disk/net MB/s) with the *current* memory footprint (MiB),
    /// summed across replicas.
    pub usage: ResourceVec,
    /// Current total allocation (sum of running pod requests).
    pub alloc: ResourceVec,
    /// Current per-replica allocation (alloc / running replicas).
    pub alloc_per_replica: ResourceVec,
    /// Replicas currently running.
    pub running_replicas: u32,
    /// Replicas pending or starting.
    pub pending_replicas: u32,
    /// Work fraction complete (jobs only).
    pub progress: Option<f64>,
    /// Projected total makespan in seconds, from progress so far (jobs
    /// only; `None` until progress is measurable).
    pub projected_makespan_s: Option<f64>,
}

impl Codec for AppWindow {
    fn encode(&self, enc: &mut Encoder) {
        self.at.encode(enc);
        self.duration.encode(enc);
        self.arrivals.encode(enc);
        self.completions.encode(enc);
        self.timeouts.encode(enc);
        self.shed_requests.encode(enc);
        self.oom_kills.encode(enc);
        self.p99_ms.encode(enc);
        self.mean_ms.encode(enc);
        self.throughput_rps.encode(enc);
        self.usage.encode(enc);
        self.alloc.encode(enc);
        self.alloc_per_replica.encode(enc);
        self.running_replicas.encode(enc);
        self.pending_replicas.encode(enc);
        self.progress.encode(enc);
        self.projected_makespan_s.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(AppWindow {
            at: SimTime::decode(dec)?,
            duration: SimDuration::decode(dec)?,
            arrivals: u64::decode(dec)?,
            completions: u64::decode(dec)?,
            timeouts: u64::decode(dec)?,
            shed_requests: u64::decode(dec)?,
            oom_kills: u64::decode(dec)?,
            p99_ms: Option::<f64>::decode(dec)?,
            mean_ms: Option::<f64>::decode(dec)?,
            throughput_rps: f64::decode(dec)?,
            usage: ResourceVec::decode(dec)?,
            alloc: ResourceVec::decode(dec)?,
            alloc_per_replica: ResourceVec::decode(dec)?,
            running_replicas: u32::decode(dec)?,
            pending_replicas: u32::decode(dec)?,
            progress: Option::<f64>::decode(dec)?,
            projected_makespan_s: Option::<f64>::decode(dec)?,
        })
    }
}

impl AppWindow {
    /// Per-replica usage (usage / running replicas; zero when none run).
    #[must_use]
    pub fn usage_per_replica(&self) -> ResourceVec {
        if self.running_replicas == 0 {
            ResourceVec::ZERO
        } else {
            self.usage * (1.0 / f64::from(self.running_replicas))
        }
    }

    /// The measured value to compare against the given PLO: p99/mean
    /// latency in ms, throughput in rps, or projected makespan in
    /// seconds. `None` when the window provides no signal (e.g. no
    /// completions for a latency PLO with no arrivals either).
    #[must_use]
    pub fn measured_for(&self, plo: &PloSpec) -> Option<f64> {
        match plo {
            PloSpec::LatencyP99 { .. } => match self.p99_ms {
                Some(v) if self.timeouts == 0 => Some(v),
                // Timeouts poison the window: report a value beyond any
                // completion (the dropped requests were the slowest).
                Some(v) => Some(v.max(1e6)),
                None if self.arrivals > 0 || self.timeouts > 0 => Some(f64::INFINITY),
                None => None,
            },
            PloSpec::LatencyMean { .. } => match self.mean_ms {
                Some(v) if self.timeouts == 0 => Some(v),
                Some(v) => Some(v.max(1e6)),
                None if self.arrivals > 0 || self.timeouts > 0 => Some(f64::INFINITY),
                None => None,
            },
            PloSpec::Throughput { .. } => Some(self.throughput_rps),
            PloSpec::Deadline { .. } => self.projected_makespan_s,
        }
    }
}

/// Aggregate cluster state at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSnapshot {
    /// Snapshot time.
    pub at: SimTime,
    /// Total allocatable capacity (ready nodes).
    pub allocatable: ResourceVec,
    /// Total reserved requests.
    pub allocated: ResourceVec,
    /// Pods currently running.
    pub pods_running: u32,
    /// Pods pending or starting.
    pub pods_pending: u32,
    /// Ready nodes.
    pub nodes_ready: u32,
}

/// Final outcome of one batch or HPC job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOutcome {
    /// The job instance.
    pub job: JobId,
    /// The owning application.
    pub app: AppId,
    /// Submission time.
    pub submitted: SimTime,
    /// Completion time, `None` when unfinished at the horizon.
    pub finished: Option<SimTime>,
    /// The job's deadline (absolute).
    pub deadline: SimTime,
}

impl JobOutcome {
    /// `true` when the job finished before its deadline.
    #[must_use]
    pub fn met_deadline(&self) -> bool {
        self.finished.is_some_and(|f| f <= self.deadline)
    }

    /// Makespan in seconds, when finished.
    #[must_use]
    pub fn makespan_s(&self) -> Option<f64> {
        self.finished.map(|f| f.saturating_since(self.submitted).as_secs_f64())
    }
}

/// Internal per-window accumulator (crate-private mechanics, public type
/// for the engine modules).
#[derive(Debug, Clone, Default)]
pub(crate) struct WindowAccumulator {
    pub arrivals: u64,
    pub completions: u64,
    pub timeouts: u64,
    pub shed: u64,
    pub oom_kills: u64,
    pub latencies_ms: Vec<f64>,
    pub consumed: ResourceVec,
    pub window_start: SimTime,
}

impl WindowAccumulator {
    pub fn record_completion(&mut self, latency: SimDuration) {
        self.completions += 1;
        self.latencies_ms.push(latency.as_millis_f64());
    }

    /// Drains the accumulator into an [`AppWindow`] skeleton (caller fills
    /// allocation/replica fields).
    pub fn harvest(&mut self, now: SimTime, current_memory: f64) -> AppWindow {
        let duration = now.saturating_since(self.window_start);
        let secs = duration.as_secs_f64().max(1e-9);
        let mut lat = std::mem::take(&mut self.latencies_ms);
        // Unstable sort on the raw IEEE-754 bit pattern: for the
        // non-negative, non-NaN latencies this is the exact `total_cmp`
        // order (u64 compares, no temp allocation), and with a total
        // order the sorted sequence is determined by the multiset alone —
        // so the quantiles and the in-order mean sum are bit-identical to
        // the stable comparator sort's.
        lat.sort_unstable_by_key(|l| l.to_bits());
        let p99 = percentile(&lat, 0.99);
        let mean =
            if lat.is_empty() { None } else { Some(lat.iter().sum::<f64>() / lat.len() as f64) };
        let mut usage = self.consumed * (1.0 / secs);
        usage[evolve_types::Resource::Memory] = current_memory;
        let out = AppWindow {
            at: now,
            duration,
            arrivals: self.arrivals,
            completions: self.completions,
            timeouts: self.timeouts,
            shed_requests: self.shed,
            oom_kills: self.oom_kills,
            p99_ms: p99,
            mean_ms: mean,
            throughput_rps: self.completions as f64 / secs,
            usage,
            alloc: ResourceVec::ZERO,
            alloc_per_replica: ResourceVec::ZERO,
            running_replicas: 0,
            pending_replicas: 0,
            progress: None,
            projected_makespan_s: None,
        };
        *self = WindowAccumulator { window_start: now, ..WindowAccumulator::default() };
        // Hand the latency buffer back so steady-state windows record
        // without reallocating.
        lat.clear();
        self.latencies_ms = lat;
        out
    }
}

fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    Some(sorted[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_harvest_computes_stats() {
        let mut acc = WindowAccumulator { window_start: SimTime::ZERO, ..Default::default() };
        acc.arrivals = 5;
        for ms in [10u64, 20, 30, 40] {
            acc.record_completion(SimDuration::from_millis(ms));
        }
        acc.consumed = ResourceVec::new(1_000.0, 0.0, 50.0, 20.0);
        let w = acc.harvest(SimTime::from_secs(10), 256.0);
        assert_eq!(w.completions, 4);
        assert_eq!(w.arrivals, 5);
        assert_eq!(w.mean_ms, Some(25.0));
        assert_eq!(w.p99_ms, Some(40.0));
        assert!((w.throughput_rps - 0.4).abs() < 1e-9);
        assert!((w.usage.cpu() - 100.0).abs() < 1e-9);
        assert_eq!(w.usage.memory(), 256.0);
        // Accumulator reset.
        assert_eq!(acc.completions, 0);
        assert_eq!(acc.window_start, SimTime::from_secs(10));
    }

    #[test]
    fn harvest_carries_shed_requests() {
        let mut acc = WindowAccumulator { window_start: SimTime::ZERO, ..Default::default() };
        acc.arrivals = 10;
        acc.shed = 4;
        for ms in [10u64, 20] {
            acc.record_completion(SimDuration::from_millis(ms));
        }
        let w = acc.harvest(SimTime::from_secs(5), 64.0);
        assert_eq!(w.shed_requests, 4);
        assert_eq!(w.arrivals, 10);
        // Shed requests are not timeouts: they must not poison the
        // latency signal of the requests that were served.
        assert_eq!(w.measured_for(&PloSpec::LatencyP99 { target_ms: 100.0 }), Some(20.0));
        assert_eq!(acc.shed, 0, "accumulator resets after harvest");
    }

    #[test]
    fn measured_for_latency_plos() {
        let mut w = AppWindow {
            at: SimTime::ZERO,
            duration: SimDuration::from_secs(1),
            arrivals: 10,
            completions: 10,
            timeouts: 0,
            shed_requests: 0,
            oom_kills: 0,
            p99_ms: Some(80.0),
            mean_ms: Some(40.0),
            throughput_rps: 10.0,
            usage: ResourceVec::ZERO,
            alloc: ResourceVec::ZERO,
            alloc_per_replica: ResourceVec::ZERO,
            running_replicas: 2,
            pending_replicas: 0,
            progress: None,
            projected_makespan_s: None,
        };
        let p99 = PloSpec::LatencyP99 { target_ms: 100.0 };
        assert_eq!(w.measured_for(&p99), Some(80.0));
        assert_eq!(w.measured_for(&PloSpec::LatencyMean { target_ms: 50.0 }), Some(40.0));
        assert_eq!(w.measured_for(&PloSpec::Throughput { target_rps: 5.0 }), Some(10.0));
        // Timeouts poison the window.
        w.timeouts = 1;
        assert!(w.measured_for(&p99).unwrap() >= 1e6);
        // No completions but arrivals → infinite latency.
        w.p99_ms = None;
        w.timeouts = 0;
        assert_eq!(w.measured_for(&p99), Some(f64::INFINITY));
        // Truly idle window → no signal.
        w.arrivals = 0;
        assert_eq!(w.measured_for(&p99), None);
    }

    #[test]
    fn usage_per_replica_divides() {
        let w = AppWindow {
            at: SimTime::ZERO,
            duration: SimDuration::from_secs(1),
            arrivals: 0,
            completions: 0,
            timeouts: 0,
            shed_requests: 0,
            oom_kills: 0,
            p99_ms: None,
            mean_ms: None,
            throughput_rps: 0.0,
            usage: ResourceVec::splat(100.0),
            alloc: ResourceVec::ZERO,
            alloc_per_replica: ResourceVec::ZERO,
            running_replicas: 4,
            pending_replicas: 0,
            progress: None,
            projected_makespan_s: None,
        };
        assert_eq!(w.usage_per_replica(), ResourceVec::splat(25.0));
    }

    #[test]
    fn job_outcome_deadline() {
        let o = JobOutcome {
            job: JobId::new(1),
            app: AppId::new(1),
            submitted: SimTime::from_secs(10),
            finished: Some(SimTime::from_secs(100)),
            deadline: SimTime::from_secs(120),
        };
        assert!(o.met_deadline());
        assert_eq!(o.makespan_s(), Some(90.0));
        let unfinished = JobOutcome { finished: None, ..o };
        assert!(!unfinished.met_deadline());
        assert_eq!(unfinished.makespan_s(), None);
    }
}
