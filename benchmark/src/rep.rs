//! One rep — `ExperimentRunner::new(cfg).run()` — and the simulated
//! statistics it must reproduce exactly.

use evolve::prelude::*;
use std::time::Instant;

/// Per-application counters a rep ends with.
#[derive(Debug, Clone, PartialEq)]
pub struct AppStats {
    pub service: bool,
    pub windows: u64,
    pub violations: u64,
    pub completions: u64,
    pub timeouts: u64,
    pub shed_requests: u64,
}

/// Everything simulated that the benchmark reads from a rep. For a given
/// seed it is exact: a change that only speeds the simulator up leaves
/// every field, and so the digest, untouched.
#[derive(Debug, Clone, PartialEq)]
pub struct RepStats {
    pub events: u64,
    pub bindings: u64,
    pub preemptions: u64,
    pub ticks: u64,
    /// `filter_evals + index_probes` summed over every scheduling cycle.
    pub feasibility_work: u64,
    pub fast_metric_records: u64,
    pub mean_used: f64,
    pub mean_allocated: f64,
    pub apps: Vec<AppStats>,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over the little-endian bytes of `words`.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = FNV_OFFSET;
    for word in words {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
        }
    }
    hash
}

impl RepStats {
    pub fn from_outcome(outcome: &RunOutcome) -> Self {
        RepStats {
            events: outcome.events,
            bindings: outcome.bindings,
            preemptions: outcome.preemptions,
            ticks: outcome.perf.ticks,
            feasibility_work: outcome.perf.filter_evals + outcome.perf.feasibility_probes,
            fast_metric_records: outcome.perf.fast_metric_records,
            mean_used: outcome.utilization.mean_used(),
            mean_allocated: outcome.utilization.mean_allocated(),
            apps: outcome
                .apps
                .iter()
                .map(|a| AppStats {
                    service: a.world == WorldClass::Microservice,
                    windows: a.windows,
                    violations: a.violations,
                    completions: a.completions,
                    timeouts: a.timeouts,
                    shed_requests: a.shed_requests,
                })
                .collect(),
        }
    }

    /// Digest of the simulated trajectory's visible end state.
    pub fn digest(&self) -> u64 {
        let head = [
            self.events,
            self.bindings,
            self.preemptions,
            self.mean_used.to_bits(),
            self.mean_allocated.to_bits(),
        ];
        let apps = self
            .apps
            .iter()
            .flat_map(|a| [a.windows, a.violations, a.completions, a.timeouts, a.shed_requests]);
        fnv1a(head.into_iter().chain(apps))
    }
}

/// Runs one untraced rep. Construction and the release of the outcome
/// are inside the timed interval, so nothing can hide before or after.
pub fn timed_rep(config: RunConfig) -> (RepStats, f64) {
    let started = Instant::now();
    let outcome = ExperimentRunner::new(config).run();
    let stats = RepStats::from_outcome(&outcome);
    drop(outcome);
    (stats, started.elapsed().as_secs_f64())
}

/// The simulated statistics of a seed list, pooled as the end-to-end
/// metrics define them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pooled {
    pub plo_compliance_rate: f64,
    pub request_success_share: f64,
    pub alloc_efficiency: f64,
}

pub fn pool(per_seed: &[RepStats]) -> Pooled {
    let (mut windows, mut violations, mut served, mut refused) = (0u64, 0u64, 0u64, 0u64);
    let mut efficiency = 0.0;
    for stats in per_seed {
        for app in &stats.apps {
            windows += app.windows;
            violations += app.violations;
            if app.service {
                served += app.completions;
                refused += app.timeouts + app.shed_requests;
            }
        }
        efficiency += stats.mean_used / stats.mean_allocated;
    }
    Pooled {
        plo_compliance_rate: 1.0 - violations as f64 / windows as f64,
        request_success_share: served as f64 / (served + refused) as f64,
        alloc_efficiency: efficiency / per_seed.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats() -> RepStats {
        RepStats {
            events: 1_000,
            bindings: 40,
            preemptions: 0,
            ticks: 240,
            feasibility_work: 77,
            fast_metric_records: 5,
            mean_used: 0.25,
            mean_allocated: 0.5,
            apps: vec![
                AppStats {
                    service: true,
                    windows: 100,
                    violations: 10,
                    completions: 900,
                    timeouts: 90,
                    shed_requests: 10,
                },
                AppStats {
                    service: false,
                    windows: 100,
                    violations: 30,
                    completions: 5,
                    timeouts: 0,
                    shed_requests: 0,
                },
            ],
        }
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        // FNV-1a 64 of the empty input and of eight zero bytes.
        assert_eq!(fnv1a([]), 0xcbf2_9ce4_8422_2325);
        let mut h = FNV_OFFSET;
        for _ in 0..8 {
            h = h.wrapping_mul(FNV_PRIME);
        }
        assert_eq!(fnv1a([0]), h);
    }

    #[test]
    fn digest_is_stable_and_sees_every_counter() {
        let base = stats();
        assert_eq!(base.digest(), stats().digest());
        let mut other = stats();
        other.apps[1].timeouts += 1;
        assert_ne!(base.digest(), other.digest());
        let mut other = stats();
        other.mean_used = f64::from_bits(other.mean_used.to_bits() + 1);
        assert_ne!(base.digest(), other.digest());
        // Wall-side counters are not part of the trajectory.
        let mut other = stats();
        other.feasibility_work += 1;
        assert_eq!(base.digest(), other.digest());
    }

    #[test]
    fn pooling_follows_the_metric_definitions() {
        let pooled = pool(&[stats(), stats()]);
        assert!((pooled.plo_compliance_rate - 0.8).abs() < 1e-12);
        // Only the service's requests count: 900 of 1 000.
        assert!((pooled.request_success_share - 0.9).abs() < 1e-12);
        assert!((pooled.alloc_efficiency - 0.5).abs() < 1e-12);
    }
}
