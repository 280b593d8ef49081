//! Application archetypes for the three converged "worlds".
//!
//! * **Cloud** — [`ServiceSpec`]: a user-facing microservice under an
//!   open-loop request stream with a tail-latency PLO.
//! * **Big-Data** — [`BatchJobSpec`]: a staged dataflow job (think
//!   Spark-style map/shuffle/reduce) with a throughput or deadline PLO.
//! * **HPC** — [`HpcJobSpec`]: a gang of ranks that must be co-scheduled
//!   and iterate in lockstep, with a completion deadline.

use evolve_types::{PriorityClass, ResourceVec, SimDuration};

use crate::request::RequestClass;

/// Which world an application belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorldClass {
    /// Latency-critical cloud microservice.
    Microservice,
    /// Throughput-oriented big-data batch job.
    BigData,
    /// Gang-scheduled high-performance-computing job.
    Hpc,
}

impl std::fmt::Display for WorldClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            WorldClass::Microservice => "cloud",
            WorldClass::BigData => "bigdata",
            WorldClass::Hpc => "hpc",
        })
    }
}

/// A performance-level objective, the user-facing contract that replaces
/// raw resource requests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PloSpec {
    /// 99th-percentile latency at or below `target_ms` milliseconds.
    LatencyP99 {
        /// Target in milliseconds.
        target_ms: f64,
    },
    /// Mean latency at or below `target_ms` milliseconds.
    LatencyMean {
        /// Target in milliseconds.
        target_ms: f64,
    },
    /// Sustained throughput of at least `target_rps` completions/second.
    Throughput {
        /// Target completions per second.
        target_rps: f64,
    },
    /// The job must finish within `deadline` of its submission.
    Deadline {
        /// Allowed makespan.
        deadline: SimDuration,
    },
}

impl PloSpec {
    /// The scalar target of the objective (ms, rps or seconds).
    #[must_use]
    pub fn target(&self) -> f64 {
        match self {
            PloSpec::LatencyP99 { target_ms } | PloSpec::LatencyMean { target_ms } => *target_ms,
            PloSpec::Throughput { target_rps } => *target_rps,
            PloSpec::Deadline { deadline } => deadline.as_secs_f64(),
        }
    }

    /// `true` for objectives where *lower measured values are better*
    /// (latency, makespan).
    #[must_use]
    pub fn upper_bound(&self) -> bool {
        !matches!(self, PloSpec::Throughput { .. })
    }
}

/// A latency-critical cloud microservice.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSpec {
    /// Human-readable name.
    pub name: String,
    /// The performance objective.
    pub plo: PloSpec,
    /// Demand distribution of this service's requests.
    pub request_class: RequestClass,
    /// Fixed per-replica memory overhead (runtime, caches), MiB.
    pub base_memory: f64,
    /// Initial number of replicas.
    pub initial_replicas: u32,
    /// Initial per-replica allocation (what a user would have written as
    /// `requests:` in a pod spec).
    pub initial_alloc: ResourceVec,
    /// How the capacity arbiter treats this service under cluster
    /// overload.
    pub priority: PriorityClass,
}

impl ServiceSpec {
    /// Creates a service spec with one initial replica.
    ///
    /// # Panics
    ///
    /// Panics when `base_memory` is negative or `initial_alloc` is
    /// invalid.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        plo: PloSpec,
        request_class: RequestClass,
        initial_alloc: ResourceVec,
    ) -> Self {
        assert!(initial_alloc.is_valid(), "initial allocation must be valid");
        ServiceSpec {
            name: name.into(),
            plo,
            request_class,
            base_memory: 64.0,
            initial_replicas: 1,
            initial_alloc,
            priority: PriorityClass::default(),
        }
    }

    /// Overrides the overload priority class.
    #[must_use]
    pub fn with_priority(mut self, priority: PriorityClass) -> Self {
        self.priority = priority;
        self
    }

    /// Overrides the per-replica base memory overhead (MiB).
    ///
    /// # Panics
    ///
    /// Panics when negative.
    #[must_use]
    pub fn with_base_memory(mut self, mib: f64) -> Self {
        assert!(mib >= 0.0, "base memory must be non-negative");
        self.base_memory = mib;
        self
    }

    /// Overrides the initial replica count.
    ///
    /// # Panics
    ///
    /// Panics when zero.
    #[must_use]
    pub fn with_initial_replicas(mut self, replicas: u32) -> Self {
        assert!(replicas > 0, "initial replicas must be positive");
        self.initial_replicas = replicas;
        self
    }
}

/// One stage of a big-data job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageSpec {
    /// Number of parallel tasks in the stage.
    pub tasks: u32,
    /// Work per task (same units as request demands: mcore·s, MiB
    /// working set, MB disk, MB net).
    pub work_per_task: ResourceVec,
    /// Records processed per task, for throughput accounting.
    pub records_per_task: u64,
}

impl StageSpec {
    /// Creates a stage.
    ///
    /// # Panics
    ///
    /// Panics when `tasks` is zero or the work vector is invalid/zero.
    #[must_use]
    pub fn new(tasks: u32, work_per_task: ResourceVec, records_per_task: u64) -> Self {
        assert!(tasks > 0, "stage needs at least one task");
        assert!(work_per_task.is_valid() && !work_per_task.is_zero(), "work must be non-zero");
        StageSpec { tasks, work_per_task, records_per_task }
    }

    /// Total records produced by the stage.
    #[must_use]
    pub fn total_records(&self) -> u64 {
        self.records_per_task * u64::from(self.tasks)
    }
}

/// A staged big-data batch job.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchJobSpec {
    /// Human-readable name.
    pub name: String,
    /// Stages executed in order; tasks within a stage run in parallel.
    pub stages: Vec<StageSpec>,
    /// The performance objective (throughput or deadline).
    pub plo: PloSpec,
    /// Per-task executor allocation when run unmanaged (the static
    /// baseline).
    pub task_alloc: ResourceVec,
    /// Maximum tasks in flight at once (executor pool cap).
    pub max_parallel_tasks: u32,
    /// How the capacity arbiter treats this job under cluster overload.
    pub priority: PriorityClass,
}

impl BatchJobSpec {
    /// Creates a batch job.
    ///
    /// # Panics
    ///
    /// Panics when `stages` is empty or `max_parallel_tasks` is zero.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        stages: Vec<StageSpec>,
        plo: PloSpec,
        task_alloc: ResourceVec,
        max_parallel_tasks: u32,
    ) -> Self {
        assert!(!stages.is_empty(), "batch job needs at least one stage");
        assert!(max_parallel_tasks > 0, "parallel task cap must be positive");
        BatchJobSpec {
            name: name.into(),
            stages,
            plo,
            task_alloc,
            max_parallel_tasks,
            priority: PriorityClass::default(),
        }
    }

    /// Overrides the overload priority class.
    #[must_use]
    pub fn with_priority(mut self, priority: PriorityClass) -> Self {
        self.priority = priority;
        self
    }

    /// Total records across all stages.
    #[must_use]
    pub fn total_records(&self) -> u64 {
        self.stages.iter().map(StageSpec::total_records).sum()
    }
}

/// A gang-scheduled HPC job: `gang_size` ranks iterate in lockstep.
#[derive(Debug, Clone, PartialEq)]
pub struct HpcJobSpec {
    /// Human-readable name.
    pub name: String,
    /// Number of ranks that must run simultaneously.
    pub gang_size: u32,
    /// Iterations (synchronization rounds).
    pub iterations: u32,
    /// Work per rank per iteration.
    pub work_per_iteration: ResourceVec,
    /// Per-rank allocation.
    pub rank_alloc: ResourceVec,
    /// Completion deadline from submission.
    pub deadline: SimDuration,
    /// How the capacity arbiter treats this job under cluster overload.
    pub priority: PriorityClass,
}

impl HpcJobSpec {
    /// Creates an HPC job.
    ///
    /// # Panics
    ///
    /// Panics when `gang_size` or `iterations` is zero, or the deadline is
    /// zero.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        gang_size: u32,
        iterations: u32,
        work_per_iteration: ResourceVec,
        rank_alloc: ResourceVec,
        deadline: SimDuration,
    ) -> Self {
        assert!(gang_size > 0, "gang size must be positive");
        assert!(iterations > 0, "iterations must be positive");
        assert!(!deadline.is_zero(), "deadline must be positive");
        HpcJobSpec {
            name: name.into(),
            gang_size,
            iterations,
            work_per_iteration,
            rank_alloc,
            deadline,
            priority: PriorityClass::default(),
        }
    }

    /// Overrides the overload priority class.
    #[must_use]
    pub fn with_priority(mut self, priority: PriorityClass) -> Self {
        self.priority = priority;
        self
    }

    /// The job's PLO expressed as a deadline objective.
    #[must_use]
    pub fn plo(&self) -> PloSpec {
        PloSpec::Deadline { deadline: self.deadline }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evolve_types::SimDuration;

    fn rc() -> RequestClass {
        RequestClass::new(
            "c",
            ResourceVec::new(10.0, 2.0, 0.5, 0.1),
            0.5,
            SimDuration::from_secs(5),
        )
    }

    #[test]
    fn plo_targets_and_bounds() {
        assert_eq!(PloSpec::LatencyP99 { target_ms: 100.0 }.target(), 100.0);
        assert!(PloSpec::LatencyP99 { target_ms: 100.0 }.upper_bound());
        assert!(PloSpec::LatencyMean { target_ms: 10.0 }.upper_bound());
        assert!(!PloSpec::Throughput { target_rps: 500.0 }.upper_bound());
        let d = PloSpec::Deadline { deadline: SimDuration::from_secs(60) };
        assert_eq!(d.target(), 60.0);
        assert!(d.upper_bound());
    }

    #[test]
    fn service_spec_builders() {
        let s = ServiceSpec::new(
            "api",
            PloSpec::LatencyP99 { target_ms: 50.0 },
            rc(),
            ResourceVec::splat(100.0),
        )
        .with_base_memory(256.0)
        .with_initial_replicas(3);
        assert_eq!(s.base_memory, 256.0);
        assert_eq!(s.initial_replicas, 3);
        assert_eq!(s.name, "api");
    }

    #[test]
    fn stage_record_accounting() {
        let st = StageSpec::new(10, ResourceVec::splat(5.0), 1000);
        assert_eq!(st.total_records(), 10_000);
    }

    #[test]
    fn batch_job_totals() {
        let job = BatchJobSpec::new(
            "etl",
            vec![
                StageSpec::new(4, ResourceVec::splat(10.0), 100),
                StageSpec::new(2, ResourceVec::splat(20.0), 50),
            ],
            PloSpec::Throughput { target_rps: 100.0 },
            ResourceVec::splat(500.0),
            8,
        );
        assert_eq!(job.total_records(), 500);
    }

    #[test]
    fn hpc_job_work_and_plo() {
        let job = HpcJobSpec::new(
            "cfd",
            8,
            100,
            ResourceVec::new(1000.0, 512.0, 1.0, 10.0),
            ResourceVec::splat(1000.0),
            SimDuration::from_mins(30),
        );
        assert_eq!(job.plo().target(), 1800.0);
    }

    #[test]
    fn world_class_display() {
        assert_eq!(WorldClass::Microservice.to_string(), "cloud");
        assert_eq!(WorldClass::BigData.to_string(), "bigdata");
        assert_eq!(WorldClass::Hpc.to_string(), "hpc");
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn batch_rejects_empty_stages() {
        let _ = BatchJobSpec::new(
            "x",
            vec![],
            PloSpec::Throughput { target_rps: 1.0 },
            ResourceVec::splat(1.0),
            1,
        );
    }

    #[test]
    #[should_panic(expected = "gang size must be positive")]
    fn hpc_rejects_zero_gang() {
        let _ = HpcJobSpec::new(
            "x",
            0,
            1,
            ResourceVec::splat(1.0),
            ResourceVec::splat(1.0),
            SimDuration::from_secs(1),
        );
    }
}
