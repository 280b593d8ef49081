//! Parallel multi-seed replication harness.
//!
//! One simulation run is one sample; a paper table needs many. The
//! harness fans a set of [`RunConfig`]s × seed list across OS threads
//! (plain `std::thread::scope`, no external dependencies) and reduces
//! each configuration's runs into mean ± 95 % confidence statistics via
//! [`Summary`].
//!
//! Determinism: every (config, seed) job is keyed by its position in the
//! request, workers claim jobs from a shared counter, and results land in
//! positional slots — so the aggregate statistics are **bit-identical
//! regardless of thread count**, and each individual run is reproducible
//! from its seed alone.
//!
//! # Examples
//!
//! ```no_run
//! use evolve_core::{Harness, ManagerKind, RunConfig};
//! use evolve_workload::ScenarioSpec;
//!
//! let spec = ScenarioSpec::builtin("single_diurnal").unwrap();
//! let base = RunConfig::from_spec(&spec, ManagerKind::Evolve).record_series(false).build();
//! let rep = Harness::new().run_seeds(&base, &[42, 43, 44, 45, 46]);
//! let viol = rep.violation_rate();
//! println!("violation rate {:.3} ± {:.3} (n={})", viol.mean, viol.ci95, viol.n);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

use crate::report::Summary;
use crate::runner::{ExperimentRunner, RunConfig, RunOutcome};

/// Fans replicated experiment runs across OS threads.
#[derive(Debug, Clone)]
pub struct Harness {
    threads: usize,
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new()
    }
}

impl Harness {
    /// A harness using all available cores.
    #[must_use]
    pub fn new() -> Self {
        let threads = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Harness { threads }
    }

    /// Overrides the worker-thread count.
    ///
    /// # Panics
    ///
    /// Panics when zero.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker thread");
        self.threads = threads;
        self
    }

    /// Runs `base` once per seed (the config's own seed is ignored) and
    /// aggregates the outcomes.
    ///
    /// # Panics
    ///
    /// Panics when `seeds` is empty or a worker panics.
    #[must_use]
    pub fn run_seeds(&self, base: &RunConfig, seeds: &[u64]) -> ReplicatedOutcome {
        self.run_matrix(std::slice::from_ref(base), seeds)
            .pop()
            .expect("one config in, one replicated outcome out")
    }

    /// Runs every config × every seed and aggregates per config, in
    /// config order.
    ///
    /// # Panics
    ///
    /// Panics when `configs` or `seeds` is empty or a worker panics.
    #[must_use]
    pub fn run_matrix(&self, configs: &[RunConfig], seeds: &[u64]) -> Vec<ReplicatedOutcome> {
        assert!(!configs.is_empty(), "need at least one run config");
        assert!(!seeds.is_empty(), "need at least one seed");
        let job_count = configs.len() * seeds.len();
        let workers = self.threads.min(job_count);
        let next_job = AtomicUsize::new(0);

        let mut results: Vec<(usize, RunOutcome)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let next_job = &next_job;
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let job = next_job.fetch_add(1, Ordering::Relaxed);
                            if job >= job_count {
                                break;
                            }
                            let mut cfg = configs[job / seeds.len()].clone();
                            cfg.seed = seeds[job % seeds.len()];
                            local.push((job, ExperimentRunner::new(cfg).run()));
                        }
                        local
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("harness worker panicked")).collect()
        });
        // Positional order, not completion order: aggregation below must
        // not depend on which thread finished first.
        results.sort_by_key(|(job, _)| *job);

        let mut out = Vec::with_capacity(configs.len());
        let mut results = results.into_iter();
        for _ in configs {
            let runs: Vec<RunOutcome> =
                (0..seeds.len()).map(|_| results.next().expect("all jobs ran").1).collect();
            out.push(ReplicatedOutcome { seeds: seeds.to_vec(), runs });
        }
        // Stderr, not stdout: tables and CSVs stay clean while every
        // binary still reports simulator throughput.
        for rep in &out {
            eprintln!("{}", rep.perf_line());
        }
        out
    }
}

/// The outcomes of one configuration replicated across seeds.
#[derive(Debug)]
pub struct ReplicatedOutcome {
    /// The seeds, in run order.
    pub seeds: Vec<u64>,
    /// One outcome per seed, in the same order as `seeds`.
    pub runs: Vec<RunOutcome>,
}

impl ReplicatedOutcome {
    /// The manager label (identical across runs).
    #[must_use]
    pub fn manager(&self) -> &str {
        &self.representative().manager
    }

    /// The scenario name (identical across runs).
    #[must_use]
    pub fn scenario(&self) -> &str {
        &self.representative().scenario
    }

    /// The first-seed run — the one to use for time-series plots, so a
    /// figure's trace stays reproducible independent of the seed count.
    #[must_use]
    pub fn representative(&self) -> &RunOutcome {
        &self.runs[0]
    }

    /// One-line aggregate of the [`RunOutcome::perf`] blocks: mean
    /// simulated-seconds-per-wall-second plus the summed engine counters.
    /// Every experiment binary surfaces this on stderr (via
    /// [`Harness::run_matrix`]) so a perf regression is visible in any
    /// table or figure run, not only in the dedicated bench.
    #[must_use]
    pub fn perf_line(&self) -> String {
        let simwall = self.summarize(|r| r.perf.sim_secs_per_wall_sec);
        let ticks: u64 = self.runs.iter().map(|r| r.perf.ticks).sum();
        let events: u64 = self.runs.iter().map(|r| r.events).sum();
        let peak = self.runs.iter().map(|r| r.perf.peak_running_pods).max().unwrap_or(0);
        let fast: u64 = self.runs.iter().map(|r| r.perf.fast_metric_records).sum();
        format!(
            "perf[{}/{}]: {:.0} sim-s/wall-s mean over {} run(s); {} ticks, {} events, \
             peak {} running pods, {} fast-path metric records",
            self.manager(),
            self.scenario(),
            simwall.mean,
            self.runs.len(),
            ticks,
            events,
            peak,
            fast,
        )
    }

    /// Mean ± CI of an arbitrary per-run metric, evaluated in seed order.
    #[must_use]
    pub fn summarize(&self, metric: impl Fn(&RunOutcome) -> f64) -> Summary {
        let samples: Vec<f64> = self.runs.iter().map(metric).collect();
        Summary::from_samples(&samples)
    }

    /// Mean ± CI of the aggregate PLO violation rate.
    #[must_use]
    pub fn violation_rate(&self) -> Summary {
        self.summarize(RunOutcome::total_violation_rate)
    }

    /// Mean ± CI of the per-world violation rates `(cloud, bigdata, hpc)`.
    #[must_use]
    pub fn violation_rate_by_world(&self) -> [Summary; 3] {
        [0, 1, 2].map(|w| self.summarize(|r| r.violation_rate_by_world()[w]))
    }

    /// Mean ± CI of the cluster's mean allocated share.
    #[must_use]
    pub fn alloc_share(&self) -> Summary {
        self.summarize(|r| r.utilization.mean_allocated())
    }

    /// Mean ± CI of the cluster's mean used share.
    #[must_use]
    pub fn used_share(&self) -> Summary {
        self.summarize(|r| r.utilization.mean_used())
    }

    /// Mean ± CI of the fraction of batch/HPC jobs that met their
    /// deadline (1.0 for runs without jobs).
    #[must_use]
    pub fn deadline_hit_rate(&self) -> Summary {
        self.summarize(|r| {
            let (hits, total) = r.deadline_hits();
            if total == 0 {
                1.0
            } else {
                hits as f64 / total as f64
            }
        })
    }

    /// Mean ± CI of total completions across apps.
    #[must_use]
    pub fn completions(&self) -> Summary {
        self.summarize(|r| r.apps.iter().map(|a| a.completions).sum::<u64>() as f64)
    }

    /// Mean ± CI of total request timeouts across apps.
    #[must_use]
    pub fn timeouts(&self) -> Summary {
        self.summarize(|r| r.apps.iter().map(|a| a.timeouts).sum::<u64>() as f64)
    }

    /// Mean ± CI of preemptions executed.
    #[must_use]
    pub fn preemptions(&self) -> Summary {
        self.summarize(|r| r.preemptions as f64)
    }
}
