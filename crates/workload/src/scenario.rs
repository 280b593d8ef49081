//! Runnable workloads: [`LoadSpec`] is the one description of a load;
//! [`WorkloadMix`] carries a spec's service, batch and HPC entries to the
//! engine as the file states them; [`Scenario`] bundles a mix with a name
//! and simulation horizon.
//!
//! The scenarios every experiment in EXPERIMENTS.md uses are the
//! checked-in `scenarios/*.toml` files: build one with
//! `ScenarioSpec::builtin(name)?.build()` (see
//! [`BUILTINS`](crate::BUILTINS)); `ScenarioSpec::headline` and
//! `ScenarioSpec::cluster_scale` give the two parametric ones.

use evolve_types::{SimDuration, SimTime};

use crate::arrival::Load;
use crate::spec::{BatchEntry, HpcEntry, ScenarioSpec, ServiceEntry};

/// A service's offered load: one of six rate shapes, made ready to sample
/// with [`LoadSpec::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum LoadSpec {
    /// Constant rate.
    Constant {
        /// Requests per second.
        rate: f64,
    },
    /// Sinusoidal day/night pattern.
    Diurnal {
        /// Mean rate.
        base: f64,
        /// Relative amplitude in `[0, 1]`.
        amplitude: f64,
        /// Pattern period.
        period: SimDuration,
        /// Phase offset in radians.
        phase: f64,
    },
    /// Linear ramp.
    Ramp {
        /// Starting rate.
        from: f64,
        /// Final rate.
        to: f64,
        /// Ramp duration.
        duration: SimDuration,
    },
    /// Flash crowd spike.
    FlashCrowd {
        /// Baseline rate.
        base: f64,
        /// Multiplier during the spike.
        spike_factor: f64,
        /// Spike start.
        start: SimTime,
        /// Spike duration.
        duration: SimDuration,
    },
    /// Two-state Markov-modulated (bursty) traffic.
    Mmpp {
        /// Low-state rate.
        low: f64,
        /// High-state rate.
        high: f64,
        /// Mean dwell per state.
        mean_dwell: SimDuration,
    },
    /// Piecewise-constant trace playback.
    Trace {
        /// Time-ordered `(time, rate)` points.
        points: Vec<(SimTime, f64)>,
    },
}

impl LoadSpec {
    /// The load ready to sample, for
    /// [`PoissonArrivals`](crate::PoissonArrivals).
    ///
    /// # Panics
    ///
    /// Panics when a parameter is out of range: a negative rate (a
    /// constant one must also be finite), an amplitude outside `[0, 1]`,
    /// a non-finite phase (it would poison every rate through `sin`), a
    /// zero period, ramp duration or dwell, a spike factor below 1,
    /// inverted MMPP rates, or an empty or unsorted trace.
    #[must_use]
    pub fn build(&self) -> Load {
        Load::new(self.clone())
    }

    /// The load's long-run mean rate (approximate for MMPP/trace),
    /// used for capacity planning in the experiment harness.
    #[must_use]
    pub fn mean_rate(&self) -> f64 {
        match self {
            LoadSpec::Constant { rate } => *rate,
            LoadSpec::Diurnal { base, .. } => *base,
            LoadSpec::Ramp { from, to, .. } => (from + to) / 2.0,
            LoadSpec::FlashCrowd { base, .. } => *base,
            LoadSpec::Mmpp { low, high, .. } => (low + high) / 2.0,
            LoadSpec::Trace { points } => {
                points.iter().map(|(_, r)| *r).sum::<f64>() / points.len().max(1) as f64
            }
        }
    }

    /// A copy with every rate multiplied by `factor` (timings
    /// unchanged) — the capacity-probe ramp step.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> LoadSpec {
        match self {
            LoadSpec::Constant { rate } => LoadSpec::Constant { rate: rate * factor },
            LoadSpec::Diurnal { base, amplitude, period, phase } => LoadSpec::Diurnal {
                base: base * factor,
                amplitude: *amplitude,
                period: *period,
                phase: *phase,
            },
            LoadSpec::Ramp { from, to, duration } => {
                LoadSpec::Ramp { from: from * factor, to: to * factor, duration: *duration }
            }
            LoadSpec::FlashCrowd { base, spike_factor, start, duration } => LoadSpec::FlashCrowd {
                base: base * factor,
                spike_factor: *spike_factor,
                start: *start,
                duration: *duration,
            },
            LoadSpec::Mmpp { low, high, mean_dwell } => {
                LoadSpec::Mmpp { low: low * factor, high: high * factor, mean_dwell: *mean_dwell }
            }
            LoadSpec::Trace { points } => {
                LoadSpec::Trace { points: points.iter().map(|(t, r)| (*t, r * factor)).collect() }
            }
        }
    }
}

/// A full workload: services under open-loop traffic plus batch and HPC
/// job submissions, each the spec's own entry. Only
/// [`ScenarioSpec::build`] makes one, after validating the spec.
#[derive(Debug, Clone)]
pub struct WorkloadMix {
    pub(crate) services: Vec<ServiceEntry>,
    pub(crate) batch_jobs: Vec<BatchEntry>,
    pub(crate) hpc_jobs: Vec<HpcEntry>,
}

impl WorkloadMix {
    /// The services, each with its load.
    #[must_use]
    pub fn services(&self) -> impl ExactSizeIterator<Item = (&ServiceEntry, &LoadSpec)> {
        self.services.iter().map(|s| (s, &s.load))
    }

    /// The batch jobs; each carries its submission time.
    #[must_use]
    pub fn batch_jobs(&self) -> &[BatchEntry] {
        &self.batch_jobs
    }

    /// The HPC jobs; each carries its submission time.
    #[must_use]
    pub fn hpc_jobs(&self) -> &[HpcEntry] {
        &self.hpc_jobs
    }

    /// Total number of workload entities.
    #[must_use]
    pub fn len(&self) -> usize {
        self.services.len() + self.batch_jobs.len() + self.hpc_jobs.len()
    }

    /// `true` when the mix holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A named workload mix with its simulation horizon.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name used in reports.
    pub name: String,
    /// What the scenario exercises.
    pub description: String,
    /// The workload.
    pub mix: WorkloadMix,
    /// How long to simulate.
    pub horizon: SimDuration,
}

impl Scenario {
    /// **T8 cluster scale**, built from [`ScenarioSpec::cluster_scale`]
    /// (which documents the sizing).
    ///
    /// # Panics
    ///
    /// Panics when `nodes` or `apps` is zero.
    #[must_use]
    pub fn cluster_scale(nodes: usize, apps: usize, horizon: SimDuration) -> Scenario {
        ScenarioSpec::cluster_scale(nodes, apps, horizon).build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evolve_types::{PriorityClass, ResourceVec};

    #[test]
    fn load_specs_build() {
        let specs = [
            LoadSpec::Constant { rate: 5.0 },
            LoadSpec::Diurnal {
                base: 10.0,
                amplitude: 0.5,
                period: SimDuration::from_secs(60),
                phase: 0.0,
            },
            LoadSpec::Ramp { from: 1.0, to: 2.0, duration: SimDuration::from_secs(10) },
            LoadSpec::FlashCrowd {
                base: 1.0,
                spike_factor: 3.0,
                start: SimTime::from_secs(5),
                duration: SimDuration::from_secs(5),
            },
            LoadSpec::Mmpp { low: 1.0, high: 5.0, mean_dwell: SimDuration::from_secs(10) },
            LoadSpec::Trace { points: vec![(SimTime::ZERO, 4.0)] },
        ];
        for spec in specs {
            let load = spec.build();
            assert!(load.max_rate() >= spec.mean_rate() * 0.99, "{spec:?}");
            // Scaling doubles the mean rate for every kind.
            let scaled = spec.scaled(2.0);
            assert!((scaled.mean_rate() - 2.0 * spec.mean_rate()).abs() < 1e-9, "{spec:?}");
        }
    }

    #[test]
    fn mix_carries_the_spec_entries() {
        let spec = ScenarioSpec::headline(1.0);
        let s = spec.build();
        assert_eq!(s.mix.services().len(), 6);
        assert!(s.mix.services().map(|(entry, _)| entry).eq(&spec.services));
        assert!(s.mix.services().all(|(entry, load)| *load == entry.load));
        assert_eq!(s.mix.batch_jobs(), spec.batch_jobs.as_slice());
        assert_eq!(s.mix.hpc_jobs(), spec.hpc_jobs.as_slice());
        assert_eq!(s.mix.len(), 11);
        assert!(!s.mix.is_empty());
    }

    #[test]
    fn headline_scale_multiplies_rates() {
        let a = ScenarioSpec::headline(1.0).build();
        let b = ScenarioSpec::headline(2.0).build();
        assert!((first_rate(&b) / first_rate(&a) - 2.0).abs() < 1e-9);
    }

    /// The first service's mean offered rate.
    fn first_rate(s: &Scenario) -> f64 {
        s.mix.services().next().expect("a service").1.mean_rate()
    }

    fn builtin(name: &str) -> Scenario {
        ScenarioSpec::builtin(name).unwrap().build()
    }

    #[test]
    fn every_preset_is_nonempty_and_named() {
        for (name, _) in crate::BUILTINS {
            let s = builtin(name);
            assert!(!s.mix.is_empty(), "{} empty", s.name);
            assert!(!s.name.is_empty());
            assert!(!s.horizon.is_zero());
        }
    }

    #[test]
    fn bottleneck_rotation_uses_distinct_dominant_resources() {
        let s = builtin("bottleneck_rotation");
        let mut dominants = std::collections::HashSet::new();
        for (svc, _) in s.mix.services() {
            // Normalize against a reference node shape to find the binding
            // dimension of each class.
            let node = ResourceVec::new(16_000.0, 65_536.0, 500.0, 1_250.0);
            let (dom, _) = svc.demand.dominant(&node);
            dominants.insert(dom);
        }
        assert!(dominants.len() >= 3, "expected diverse bottlenecks: {dominants:?}");
    }

    #[test]
    #[should_panic(expected = "scale must be positive")]
    fn headline_rejects_zero_scale() {
        let _ = ScenarioSpec::headline(0.0);
    }

    #[test]
    fn overload_mixes_priority_tiers() {
        let spec = ScenarioSpec::builtin("overload").unwrap();
        let s = spec.scaled_loads(1.5).build();
        let classes: Vec<PriorityClass> = s.mix.services().map(|(svc, _)| svc.priority).collect();
        assert!(classes.contains(&PriorityClass::Critical));
        assert!(classes.contains(&PriorityClass::Standard));
        assert!(classes.contains(&PriorityClass::Preemptible));
        assert_eq!(s.mix.batch_jobs()[0].priority, PriorityClass::Preemptible);
        // Offered load scales linearly with the knob.
        let a = spec.build();
        assert!((first_rate(&s) / first_rate(&a) - 1.5).abs() < 1e-9);
    }
}
