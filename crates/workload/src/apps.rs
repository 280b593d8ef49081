//! The vocabulary the three converged "worlds" share: which world an
//! application belongs to ([`WorldClass`]) and the performance objective
//! it declares instead of raw resource requests ([`PloSpec`]). The
//! applications themselves are the scenario's records — a cloud service
//! is a [`ServiceEntry`](crate::ServiceEntry), a big-data job a
//! [`BatchEntry`](crate::BatchEntry), an HPC gang an
//! [`HpcEntry`](crate::HpcEntry) — and the engine runs those records as
//! the file states them.

use evolve_types::SimDuration;

use crate::spec::{BatchEntry, HpcEntry, StageEntry};

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

impl StageEntry {
    /// Records the stage produces: its records per task, for every task.
    #[must_use]
    pub fn total_records(&self) -> u64 {
        self.records * u64::from(self.tasks)
    }
}

impl BatchEntry {
    /// Records the job produces over all its stages.
    #[must_use]
    pub fn total_records(&self) -> u64 {
        self.stages.iter().map(StageEntry::total_records).sum()
    }
}

impl HpcEntry {
    /// The job's PLO: its completion deadline.
    #[must_use]
    pub fn plo(&self) -> PloSpec {
        PloSpec::Deadline { deadline: self.deadline }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;
    use evolve_types::{PriorityClass, ResourceVec, SimTime};

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
    fn stage_record_accounting() {
        let stage = StageEntry { tasks: 10, work: ResourceVec::splat(5.0), records: 1000 };
        assert_eq!(stage.total_records(), 10_000);
    }

    #[test]
    fn batch_job_totals() {
        let job = BatchEntry {
            name: "etl".into(),
            submit_at: SimTime::ZERO,
            stages: vec![
                StageEntry { tasks: 4, work: ResourceVec::splat(10.0), records: 100 },
                StageEntry { tasks: 2, work: ResourceVec::splat(20.0), records: 50 },
            ],
            plo: PloSpec::Throughput { target_rps: 100.0 },
            task_alloc: ResourceVec::splat(500.0),
            max_parallel: 8,
            priority: PriorityClass::Standard,
        };
        assert_eq!(job.total_records(), 500);
    }

    #[test]
    #[should_panic(expected = "`batch[0].stage`: needs at least one table")]
    fn batch_rejects_empty_stages() {
        let mut spec = ScenarioSpec::headline(1.0);
        spec.batch_jobs[0].stages.clear();
        let _ = spec.build();
    }

    #[test]
    fn hpc_job_work_and_plo() {
        let job = HpcEntry {
            name: "cfd".into(),
            submit_at: SimTime::ZERO,
            gang: 8,
            iterations: 100,
            work: ResourceVec::new(1000.0, 512.0, 1.0, 10.0),
            rank_alloc: ResourceVec::splat(1000.0),
            deadline: SimDuration::from_mins(30),
            priority: PriorityClass::Standard,
        };
        assert_eq!(job.plo().target(), 1800.0);
    }

    #[test]
    #[should_panic(expected = "`hpc[0].gang`: must be positive")]
    fn hpc_rejects_zero_gang() {
        let mut spec = ScenarioSpec::headline(1.0);
        spec.hpc_jobs[0].gang = 0;
        let _ = spec.build();
    }

    #[test]
    fn world_class_display() {
        assert_eq!(WorldClass::Microservice.to_string(), "cloud");
        assert_eq!(WorldClass::BigData.to_string(), "bigdata");
        assert_eq!(WorldClass::Hpc.to_string(), "hpc");
    }
}
