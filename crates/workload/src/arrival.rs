//! Request-rate profiles and arrival-time sampling.
//!
//! A [`LoadProfile`] maps simulated time to an instantaneous request rate;
//! [`PoissonArrivals`] draws actual arrival instants from any profile as a
//! non-homogeneous Poisson process. Profiles cover the dynamics that make
//! autoscaling hard: slow diurnal swings, linear ramps, multiplicative
//! flash crowds, Markov-modulated burstiness and recorded traces.
//!
//! Two generation strategies exist (selected by
//! [`SamplingMode`](crate::SamplingMode)):
//!
//! - **Legacy** — per-request Lewis–Shedler thinning under the *global*
//!   rate majorant, exactly as before PR 6 (bit-identical streams).
//! - **Batched** — time is cut into windows clipped at profile shape
//!   boundaries. High-rate windows draw one Poisson count from the
//!   window's mean rate and spread the instants uniformly; low-rate
//!   windows keep exact thinning but under a *per-window* majorant, which
//!   bounds the rejection rate and removes the legacy sampler's silent
//!   100 000-candidate bailout (reachable when a trace or flash-crowd
//!   majorant vastly exceeds the current rate).

use std::collections::VecDeque;

use evolve_types::{SimDuration, SimTime};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::sampling::{sample_exponential, sample_poisson_count, SamplingMode};

/// A time-varying request-rate function (requests/second).
///
/// Implementations may be stochastic (the MMPP keeps internal state), so
/// `rate_at` takes `&mut self` and an RNG. Callers must query `rate_at`
/// with non-decreasing timestamps; [`LoadProfile::peek_rate`] is the pure
/// read for telemetry.
pub trait LoadProfile: Send {
    /// Instantaneous rate at `at`, in requests/second. May advance
    /// internal state and draw from the RNG (MMPP state switches).
    fn rate_at(&mut self, at: SimTime, rng: &mut dyn rand::RngCore) -> f64;

    /// Pure instantaneous-rate read: never advances state, never draws
    /// from the RNG. Stateful profiles (MMPP) clamp the query to their
    /// last-seen state, so a telemetry peek mid-thinning cannot corrupt
    /// the arrival stream.
    fn peek_rate(&self, at: SimTime) -> f64;

    /// An upper bound on the rate over all time (used as the legacy
    /// thinning majorant; must dominate every value `rate_at` can
    /// return).
    fn max_rate(&self) -> f64;

    /// An upper bound on the rate over `[from, to]` (per-window thinning
    /// majorant). Defaults to the global bound; shaped profiles override
    /// it so acceptance stays bounded inside quiet stretches.
    fn majorant_between(&self, _from: SimTime, _to: SimTime) -> f64 {
        self.max_rate()
    }

    /// Mean rate over `[from, to]` for windowed Poisson-count generation,
    /// or `None` when the profile is stochastic and must be thinned.
    fn mean_rate_between(&self, _from: SimTime, _to: SimTime) -> Option<f64> {
        None
    }

    /// The next rate-shape boundary strictly after `at` (spike edges,
    /// trace steps, ramp ends). Generation windows never span a boundary,
    /// so vectorized counts cannot smear a discontinuity.
    fn boundary_after(&self, _at: SimTime) -> Option<SimTime> {
        None
    }

    /// For *stochastic piecewise-constant* profiles (MMPP): advance the
    /// state machine to `at` and return the current rate plus the end of
    /// its constant-rate segment. The batched sampler then generates this
    /// stretch as an exact homogeneous Poisson process — no thinning, no
    /// rejected candidates — which is both cheaper and statistically
    /// exact. Default `None`: fall back to per-window thinning.
    fn segment_after(
        &mut self,
        _at: SimTime,
        _rng: &mut dyn rand::RngCore,
    ) -> Option<(f64, SimTime)> {
        None
    }
}

/// A constant request rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConstantLoad {
    rate: f64,
}

impl ConstantLoad {
    /// Creates a constant profile of `rate` requests/second.
    ///
    /// # Panics
    ///
    /// Panics when `rate` is negative or non-finite.
    #[must_use]
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate >= 0.0, "rate must be finite and non-negative");
        ConstantLoad { rate }
    }
}

impl LoadProfile for ConstantLoad {
    fn rate_at(&mut self, _at: SimTime, _rng: &mut dyn rand::RngCore) -> f64 {
        self.rate
    }
    fn peek_rate(&self, _at: SimTime) -> f64 {
        self.rate
    }
    fn max_rate(&self) -> f64 {
        self.rate
    }
    fn mean_rate_between(&self, _from: SimTime, _to: SimTime) -> Option<f64> {
        Some(self.rate)
    }
}

/// Number of piecewise-linear cells the diurnal envelope tabulates per
/// period.
const ENVELOPE_CELLS: usize = 256;

/// Precomputed piecewise-linear envelope of one diurnal period: cell-edge
/// rates for lookup + lerp, a prefix integral for window means, and
/// per-cell majorants (chord max plus a curvature pad) that provably
/// dominate the underlying sinusoid.
#[derive(Debug, Clone)]
struct DiurnalEnvelope {
    /// Floored rate at each cell edge (`ENVELOPE_CELLS + 1` entries; the
    /// last equals the first).
    edges: Vec<f64>,
    /// `prefix[i]` = integral (rate·seconds) of the lerped rate over
    /// cells `[0, i)`.
    prefix: Vec<f64>,
    /// Per-cell rate upper bound: `max(edge, edge') + base·amp·(2π/N)²/8`
    /// — the chord maximum padded by the sinusoid's maximum chord
    /// deviation, so it dominates the exact `sin` rate everywhere in the
    /// cell.
    cell_max: Vec<f64>,
    /// Maximum over `cell_max` (the profile's global majorant).
    max: f64,
}

impl DiurnalEnvelope {
    fn build(base: f64, amplitude: f64, period: SimDuration, phase: f64) -> Self {
        let n = ENVELOPE_CELLS;
        let period_secs = period.as_secs_f64();
        let raw = |i: usize| -> f64 {
            let frac = i as f64 / n as f64;
            base * (1.0 + amplitude * (2.0 * std::f64::consts::PI * frac + phase).sin())
        };
        let edges: Vec<f64> = (0..=n).map(|i| raw(i).max(0.0)).collect();
        let h = period_secs / n as f64;
        let mut prefix = Vec::with_capacity(n + 1);
        prefix.push(0.0);
        for i in 0..n {
            let cell = h * (edges[i] + edges[i + 1]) / 2.0;
            prefix.push(prefix[i] + cell);
        }
        // Max deviation of the sinusoid from its chord over one cell is
        // |f''|·h²/8 with |f''| ≤ base·amp·(2π/P)², i.e. independent of
        // the period: base·amp·(2π/N)²/8 ≈ 7.5e-5·base·amp at N = 256.
        let pad = base * amplitude * (2.0 * std::f64::consts::PI / n as f64).powi(2) / 8.0;
        let cell_max: Vec<f64> = (0..n).map(|i| raw(i).max(raw(i + 1)).max(0.0) + pad).collect();
        let max = cell_max.iter().fold(0.0f64, |a, &b| a.max(b));
        DiurnalEnvelope { edges, prefix, cell_max, max }
    }

    /// Integral of the lerped rate over `[0, t)` within one period,
    /// `t ∈ [0, period]`, in rate·seconds.
    fn integral_to(&self, t_secs: f64, period_secs: f64) -> f64 {
        let n = ENVELOPE_CELLS;
        let pos = (t_secs / period_secs * n as f64).clamp(0.0, n as f64);
        let cell = (pos as usize).min(n - 1);
        let frac = pos - cell as f64;
        let h = period_secs / n as f64;
        let r0 = self.edges[cell];
        let r1 = self.edges[cell + 1];
        // Partial trapezoid inside the cell.
        let r_at = r0 + (r1 - r0) * frac;
        self.prefix[cell] + h * frac * (r0 + r_at) / 2.0
    }

    /// Mean rate over `[from, to]` (absolute times), handling period
    /// wrap-around.
    fn mean_between(&self, from: SimTime, to: SimTime, period_secs: f64) -> f64 {
        let a = from.as_secs_f64();
        let b = to.as_secs_f64();
        if b <= a {
            return self.lerp_at(a % period_secs, period_secs);
        }
        let total_per_period = self.prefix[ENVELOPE_CELLS];
        let whole = ((b - a) / period_secs).floor();
        let (ra, rb) = (a % period_secs, (a + (b - a) - whole * period_secs) % period_secs);
        let mut integral = whole * total_per_period;
        if rb >= ra {
            integral += self.integral_to(rb, period_secs) - self.integral_to(ra, period_secs);
        } else {
            integral += total_per_period - self.integral_to(ra, period_secs)
                + self.integral_to(rb, period_secs);
        }
        integral / (b - a)
    }

    /// Lerped rate at a position inside one period.
    fn lerp_at(&self, t_secs: f64, period_secs: f64) -> f64 {
        let n = ENVELOPE_CELLS;
        let pos = (t_secs / period_secs * n as f64).clamp(0.0, n as f64);
        let cell = (pos as usize).min(n - 1);
        let frac = pos - cell as f64;
        self.edges[cell] + (self.edges[cell + 1] - self.edges[cell]) * frac
    }

    /// Upper bound over `[from, to]` (absolute times).
    fn majorant_between(&self, from: SimTime, to: SimTime, period_secs: f64) -> f64 {
        let n = ENVELOPE_CELLS;
        let a = from.as_secs_f64();
        let b = to.as_secs_f64();
        if b - a >= period_secs {
            return self.max;
        }
        let ca = ((a % period_secs) / period_secs * n as f64) as usize % n;
        let cb = ((b % period_secs) / period_secs * n as f64) as usize % n;
        let mut m = 0.0f64;
        let mut c = ca;
        loop {
            m = m.max(self.cell_max[c]);
            if c == cb {
                break;
            }
            c = (c + 1) % n;
        }
        m
    }
}

/// A sinusoidal day/night pattern:
/// `base × (1 + amplitude · sin(2πt/period))`, floored at zero.
///
/// The constructor tabulates a piecewise-linear envelope of one period
/// (`ENVELOPE_CELLS` cells): window means and thinning majorants come
/// from the table instead of per-candidate `sin` calls.
/// [`LoadProfile::max_rate`] stays the analytic peak
/// `base × (1 + amplitude)` — it dominates the sinusoid exactly (the
/// phase only shifts where the peak falls) and keeps the legacy thinning
/// majorant bit-identical to the pre-envelope sampler.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(from = "DiurnalRepr", into = "DiurnalRepr")]
pub struct DiurnalLoad {
    base: f64,
    amplitude: f64,
    period: SimDuration,
    phase: f64,
    env: DiurnalEnvelope,
}

/// Serialized form: the logical parameters; the envelope is re-derived on
/// deserialization.
#[derive(Serialize, Deserialize)]
#[serde(rename = "DiurnalLoad")]
struct DiurnalRepr {
    base: f64,
    amplitude: f64,
    period: SimDuration,
    phase: f64,
}

impl From<DiurnalRepr> for DiurnalLoad {
    fn from(r: DiurnalRepr) -> Self {
        DiurnalLoad::new(r.base, r.amplitude, r.period).with_phase(r.phase)
    }
}

impl From<DiurnalLoad> for DiurnalRepr {
    fn from(d: DiurnalLoad) -> Self {
        DiurnalRepr { base: d.base, amplitude: d.amplitude, period: d.period, phase: d.phase }
    }
}

impl PartialEq for DiurnalLoad {
    fn eq(&self, other: &Self) -> bool {
        self.base == other.base
            && self.amplitude == other.amplitude
            && self.period == other.period
            && self.phase == other.phase
    }
}

impl DiurnalLoad {
    /// Creates a diurnal profile around `base` with relative `amplitude`
    /// in `[0, 1]` and the given `period`.
    ///
    /// # Panics
    ///
    /// Panics when `base < 0`, `amplitude` outside `[0, 1]`, or `period`
    /// is zero.
    #[must_use]
    pub fn new(base: f64, amplitude: f64, period: SimDuration) -> Self {
        assert!(base >= 0.0, "base rate must be non-negative");
        assert!((0.0..=1.0).contains(&amplitude), "amplitude must be in [0, 1]");
        assert!(!period.is_zero(), "period must be positive");
        let env = DiurnalEnvelope::build(base, amplitude, period, 0.0);
        DiurnalLoad { base, amplitude, period, phase: 0.0, env }
    }

    /// Shifts the pattern by `phase` radians (stagger multiple services).
    ///
    /// # Panics
    ///
    /// Panics when `phase` is not finite — a NaN/∞ phase would poison
    /// every downstream rate through `sin`.
    #[must_use]
    pub fn with_phase(mut self, phase: f64) -> Self {
        assert!(phase.is_finite(), "phase must be finite");
        self.phase = phase;
        self.env = DiurnalEnvelope::build(self.base, self.amplitude, self.period, phase);
        self
    }

    fn exact_rate(&self, at: SimTime) -> f64 {
        let x = at.as_secs_f64() / self.period.as_secs_f64();
        let r = self.base
            * (1.0 + self.amplitude * (2.0 * std::f64::consts::PI * x + self.phase).sin());
        r.max(0.0)
    }
}

impl LoadProfile for DiurnalLoad {
    fn rate_at(&mut self, at: SimTime, _rng: &mut dyn rand::RngCore) -> f64 {
        self.exact_rate(at)
    }
    fn peek_rate(&self, at: SimTime) -> f64 {
        self.exact_rate(at)
    }
    fn max_rate(&self) -> f64 {
        self.base * (1.0 + self.amplitude)
    }
    fn majorant_between(&self, from: SimTime, to: SimTime) -> f64 {
        self.env.majorant_between(from, to, self.period.as_secs_f64())
    }
    fn mean_rate_between(&self, from: SimTime, to: SimTime) -> Option<f64> {
        Some(self.env.mean_between(from, to, self.period.as_secs_f64()))
    }
    fn boundary_after(&self, at: SimTime) -> Option<SimTime> {
        // Next envelope cell edge, so per-window majorants stay tight.
        let cell_secs = self.period.as_secs_f64() / ENVELOPE_CELLS as f64;
        let idx = (at.as_secs_f64() / cell_secs).floor() + 1.0;
        Some(SimTime::ZERO + SimDuration::from_secs_f64(idx * cell_secs))
    }
}

/// A linear ramp from `from` to `to` over `duration`, constant afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RampLoad {
    from: f64,
    to: f64,
    duration: SimDuration,
}

impl RampLoad {
    /// Creates a ramp profile.
    ///
    /// # Panics
    ///
    /// Panics when either rate is negative or `duration` is zero.
    #[must_use]
    pub fn new(from: f64, to: f64, duration: SimDuration) -> Self {
        assert!(from >= 0.0 && to >= 0.0, "rates must be non-negative");
        assert!(!duration.is_zero(), "ramp duration must be positive");
        RampLoad { from, to, duration }
    }

    fn rate(&self, at: SimTime) -> f64 {
        let frac = (at.as_secs_f64() / self.duration.as_secs_f64()).min(1.0);
        self.from + (self.to - self.from) * frac
    }
}

impl LoadProfile for RampLoad {
    fn rate_at(&mut self, at: SimTime, _rng: &mut dyn rand::RngCore) -> f64 {
        self.rate(at)
    }
    fn peek_rate(&self, at: SimTime) -> f64 {
        self.rate(at)
    }
    fn max_rate(&self) -> f64 {
        self.from.max(self.to)
    }
    fn majorant_between(&self, from: SimTime, to: SimTime) -> f64 {
        // Linear between the clamped endpoints, so the endpoint max
        // dominates.
        self.rate(from).max(self.rate(to))
    }
    fn mean_rate_between(&self, from: SimTime, to: SimTime) -> Option<f64> {
        // Trapezoid; windows never span the ramp end (see
        // `boundary_after`), where the function stops being linear.
        Some((self.rate(from) + self.rate(to)) / 2.0)
    }
    fn boundary_after(&self, at: SimTime) -> Option<SimTime> {
        let end = SimTime::ZERO + self.duration;
        (at < end).then_some(end)
    }
}

/// A flash crowd: `base` rate, multiplied by `spike_factor` during
/// `[start, start+duration)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlashCrowdLoad {
    base: f64,
    spike_factor: f64,
    start: SimTime,
    duration: SimDuration,
}

impl FlashCrowdLoad {
    /// Creates a flash-crowd profile.
    ///
    /// # Panics
    ///
    /// Panics when `base < 0` or `spike_factor < 1`.
    #[must_use]
    pub fn new(base: f64, spike_factor: f64, start: SimTime, duration: SimDuration) -> Self {
        assert!(base >= 0.0, "base rate must be non-negative");
        assert!(spike_factor >= 1.0, "spike factor must be at least 1");
        FlashCrowdLoad { base, spike_factor, start, duration }
    }

    /// When the spike begins.
    #[must_use]
    pub fn spike_start(&self) -> SimTime {
        self.start
    }

    fn spike_end(&self) -> SimTime {
        self.start + self.duration
    }

    fn rate(&self, at: SimTime) -> f64 {
        if at >= self.start && at < self.spike_end() {
            self.base * self.spike_factor
        } else {
            self.base
        }
    }
}

impl LoadProfile for FlashCrowdLoad {
    fn rate_at(&mut self, at: SimTime, _rng: &mut dyn rand::RngCore) -> f64 {
        self.rate(at)
    }
    fn peek_rate(&self, at: SimTime) -> f64 {
        self.rate(at)
    }
    fn max_rate(&self) -> f64 {
        self.base * self.spike_factor
    }
    fn majorant_between(&self, from: SimTime, to: SimTime) -> f64 {
        if from < self.spike_end() && to >= self.start {
            self.base * self.spike_factor
        } else {
            self.base
        }
    }
    fn mean_rate_between(&self, from: SimTime, to: SimTime) -> Option<f64> {
        // Windows are clipped at the spike edges (`boundary_after`), so
        // the span sits entirely on one side — but integrate exactly
        // anyway for arbitrary callers.
        let a = from.as_secs_f64();
        let b = to.as_secs_f64();
        if b <= a {
            return Some(self.rate(from));
        }
        let s = self.start.as_secs_f64();
        let e = self.spike_end().as_secs_f64();
        let hot = (b.min(e) - a.max(s)).max(0.0);
        let cold = (b - a) - hot;
        Some((cold * self.base + hot * self.base * self.spike_factor) / (b - a))
    }
    fn boundary_after(&self, at: SimTime) -> Option<SimTime> {
        if at < self.start {
            Some(self.start)
        } else if at < self.spike_end() {
            Some(self.spike_end())
        } else {
            None
        }
    }
}

/// A two-state Markov-modulated Poisson process (bursty traffic): the rate
/// alternates between `low_rate` and `high_rate`, with exponentially
/// distributed dwell times in each state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MmppLoad {
    low_rate: f64,
    high_rate: f64,
    mean_dwell: SimDuration,
    /// Current state (false = low).
    in_high: bool,
    /// When the current state expires.
    next_switch: SimTime,
}

impl MmppLoad {
    /// Creates a bursty profile alternating between the two rates with
    /// the given mean state dwell time.
    ///
    /// # Panics
    ///
    /// Panics when rates are negative, inverted, or `mean_dwell` is zero.
    #[must_use]
    pub fn new(low_rate: f64, high_rate: f64, mean_dwell: SimDuration) -> Self {
        assert!(low_rate >= 0.0 && high_rate >= low_rate, "need 0 <= low <= high");
        assert!(!mean_dwell.is_zero(), "mean dwell must be positive");
        MmppLoad { low_rate, high_rate, mean_dwell, in_high: false, next_switch: SimTime::ZERO }
    }
}

impl LoadProfile for MmppLoad {
    fn rate_at(&mut self, at: SimTime, rng: &mut dyn rand::RngCore) -> f64 {
        while at >= self.next_switch {
            self.in_high = !self.in_high;
            let dwell = sample_exponential(rng, 1.0 / self.mean_dwell.as_secs_f64());
            self.next_switch += SimDuration::from_secs_f64(dwell.max(1e-3));
        }
        if self.in_high {
            self.high_rate
        } else {
            self.low_rate
        }
    }
    /// Clamped to the last state `rate_at` advanced to: a telemetry peek
    /// at any timestamp reports the current state's rate without touching
    /// the state machine or the RNG.
    fn peek_rate(&self, _at: SimTime) -> f64 {
        if self.in_high {
            self.high_rate
        } else {
            self.low_rate
        }
    }
    fn max_rate(&self) -> f64 {
        self.high_rate
    }
    fn segment_after(
        &mut self,
        at: SimTime,
        rng: &mut dyn rand::RngCore,
    ) -> Option<(f64, SimTime)> {
        // Same state walk as `rate_at`, so legacy thinning and the exact
        // segment path share one dwell machine (and one RNG draw order).
        while at >= self.next_switch {
            self.in_high = !self.in_high;
            let dwell = sample_exponential(rng, 1.0 / self.mean_dwell.as_secs_f64());
            self.next_switch += SimDuration::from_secs_f64(dwell.max(1e-3));
        }
        let rate = if self.in_high { self.high_rate } else { self.low_rate };
        Some((rate, self.next_switch))
    }
}

/// Piecewise-constant playback of a recorded `(time, rate)` trace; the
/// last rate persists beyond the trace end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceLoad {
    points: Vec<(SimTime, f64)>,
}

impl TraceLoad {
    /// Creates a trace profile from time-ordered `(time, rate)` points.
    ///
    /// # Panics
    ///
    /// Panics when the trace is empty, unsorted, or contains negative
    /// rates.
    #[must_use]
    pub fn new(points: Vec<(SimTime, f64)>) -> Self {
        assert!(!points.is_empty(), "trace must not be empty");
        assert!(points.windows(2).all(|w| w[0].0 <= w[1].0), "trace must be time-ordered");
        assert!(points.iter().all(|(_, r)| *r >= 0.0), "trace rates must be non-negative");
        TraceLoad { points }
    }

    fn rate(&self, at: SimTime) -> f64 {
        match self.points.partition_point(|(t, _)| *t <= at) {
            0 => self.points[0].1,
            n => self.points[n - 1].1,
        }
    }
}

impl LoadProfile for TraceLoad {
    fn rate_at(&mut self, at: SimTime, _rng: &mut dyn rand::RngCore) -> f64 {
        self.rate(at)
    }
    fn peek_rate(&self, at: SimTime) -> f64 {
        self.rate(at)
    }
    fn max_rate(&self) -> f64 {
        self.points.iter().map(|(_, r)| *r).fold(0.0, f64::max)
    }
    fn majorant_between(&self, from: SimTime, to: SimTime) -> f64 {
        // Steps holding in [from, to]: the one in force at `from` plus
        // every step starting inside the span.
        let mut m = self.rate(from);
        let start = self.points.partition_point(|(t, _)| *t <= from);
        for (t, r) in &self.points[start..] {
            if *t > to {
                break;
            }
            m = m.max(*r);
        }
        m
    }
    fn mean_rate_between(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let a = from.as_secs_f64();
        let b = to.as_secs_f64();
        if b <= a {
            return Some(self.rate(from));
        }
        // Piecewise-constant integral across the steps inside the span.
        let mut integral = 0.0;
        let mut cursor = a;
        let mut rate = self.rate(from);
        let start = self.points.partition_point(|(t, _)| *t <= from);
        for (t, r) in &self.points[start..] {
            let ts = t.as_secs_f64();
            if ts >= b {
                break;
            }
            integral += (ts - cursor) * rate;
            cursor = ts;
            rate = *r;
        }
        integral += (b - cursor) * rate;
        Some(integral / (b - a))
    }
    fn boundary_after(&self, at: SimTime) -> Option<SimTime> {
        let idx = self.points.partition_point(|(t, _)| *t <= at);
        self.points.get(idx).map(|(t, _)| *t)
    }
}

/// Generation window length for the batched arrival path.
const ARRIVAL_WINDOW: SimDuration = SimDuration::from_millis(1000);
/// Expected arrivals per window above which the Poisson-count fast path
/// replaces exact thinning.
const WINDOW_COUNT_THRESHOLD: f64 = 4.0;

/// Samples arrival instants from a [`LoadProfile`].
///
/// In [`SamplingMode::Legacy`] every instant comes from Lewis–Shedler
/// thinning under the global majorant (the pre-PR-6 stream, preserved
/// bit-for-bit). In [`SamplingMode::Batched`] (default), deterministic
/// profiles generate per-window Poisson counts above
/// `WINDOW_COUNT_THRESHOLD` expected arrivals and fall back to
/// per-window-majorant thinning below it; stochastic profiles (MMPP)
/// always thin.
///
/// # Examples
///
/// ```
/// use evolve_workload::{ConstantLoad, PoissonArrivals};
/// use evolve_types::SimTime;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut arr = PoissonArrivals::new(Box::new(ConstantLoad::new(50.0)));
/// let mut rng = ChaCha8Rng::seed_from_u64(3);
/// let mut t = SimTime::ZERO;
/// let mut count = 0;
/// while let Some(next) = arr.next_after(t, &mut rng) {
///     if next > SimTime::from_secs(10) { break; }
///     t = next;
///     count += 1;
/// }
/// // ~500 arrivals in 10 s at 50 req/s.
/// assert!(count > 400 && count < 600);
/// ```
pub struct PoissonArrivals {
    profile: Box<dyn LoadProfile>,
    mode: SamplingMode,
    /// Pre-generated instants (batched mode), strictly increasing.
    pending: VecDeque<SimTime>,
    /// Exclusive end of the last generated window (batched mode).
    win_end: SimTime,
    /// Legacy thinning bailouts (100 000 rejected candidates) observed.
    bailouts: u64,
}

impl std::fmt::Debug for PoissonArrivals {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoissonArrivals")
            .field("max_rate", &self.profile.max_rate())
            .field("mode", &self.mode)
            .finish()
    }
}

impl PoissonArrivals {
    /// Creates a sampler over the given profile with the default
    /// (batched) generation mode.
    #[must_use]
    pub fn new(profile: Box<dyn LoadProfile>) -> Self {
        Self::with_mode(profile, SamplingMode::default())
    }

    /// Creates a sampler with an explicit generation mode.
    #[must_use]
    pub fn with_mode(profile: Box<dyn LoadProfile>, mode: SamplingMode) -> Self {
        PoissonArrivals {
            profile,
            mode,
            pending: VecDeque::new(),
            win_end: SimTime::ZERO,
            bailouts: 0,
        }
    }

    /// The next arrival strictly after `after`, or `None` when the profile
    /// rate is (effectively) zero forever.
    pub fn next_after<R: Rng>(&mut self, after: SimTime, rng: &mut R) -> Option<SimTime> {
        match self.mode {
            SamplingMode::Legacy => self.next_after_legacy(after, rng),
            SamplingMode::Batched => self.next_after_batched(after, rng),
        }
    }

    /// Pre-PR-6 global-majorant thinning, preserved bit-for-bit for the
    /// `legacy_sampling` flag.
    fn next_after_legacy<R: Rng>(&mut self, after: SimTime, rng: &mut R) -> Option<SimTime> {
        let majorant = self.profile.max_rate();
        if majorant <= 1e-12 {
            return None;
        }
        let mut t = after;
        // Thinning: candidate gaps at the majorant rate, accept with
        // probability rate(t)/majorant.
        for _ in 0..100_000 {
            let gap = sample_exponential(rng, majorant);
            // Clock resolution is 1µs; guarantee strictly increasing times.
            let gap = SimDuration::from_secs_f64(gap).max(SimDuration::from_micros(1));
            t += gap;
            let r = self.profile.rate_at(t, rng);
            if rng.gen::<f64>() * majorant <= r {
                return Some(t);
            }
        }
        // Pathologically low acceptance; the app goes silent, but the
        // bailout is surfaced on RunOutcome instead of failing silently.
        self.bailouts += 1;
        None
    }

    fn next_after_batched<R: Rng>(&mut self, after: SimTime, rng: &mut R) -> Option<SimTime> {
        loop {
            while let Some(&t) = self.pending.front() {
                if t > after {
                    return Some(t);
                }
                self.pending.pop_front();
            }
            let w0 = self.win_end.max(after);
            // Window end: one window length, clipped at the next shape
            // boundary so counts never smear a discontinuity.
            let mut w1 = w0 + ARRIVAL_WINDOW;
            if let Some(b) = self.profile.boundary_after(w0) {
                if b > w0 {
                    w1 = w1.min(b);
                }
            }
            // Stochastic piecewise-constant profiles (MMPP) expose their
            // current dwell segment: inside it the process is homogeneous
            // Poisson, so sample it exactly — counts + uniform spread at
            // high rate, exponential gaps at low rate — instead of
            // thinning (which rejects ~majorant/rate candidates each).
            if let Some((rate, seg_end)) = self.profile.segment_after(w0, rng) {
                let w1 = w1.min(seg_end.max(w0 + SimDuration::from_micros(1)));
                let span_secs = w1.saturating_since(w0).as_secs_f64();
                let expected = rate * span_secs;
                if expected >= WINDOW_COUNT_THRESHOLD {
                    let n = sample_poisson_count(rng, expected);
                    self.fill_window(w0, w1, n, rng);
                    self.win_end = w1;
                    continue;
                }
                if rate > 1e-12 {
                    // Exact gaps at the segment rate; memoryless, so
                    // restarting from `w0` on the next call is exact.
                    let mut t = w0;
                    loop {
                        let gap = sample_exponential(rng, rate);
                        let gap = SimDuration::from_secs_f64(gap).max(SimDuration::from_micros(1));
                        t += gap;
                        if t >= w1 {
                            break;
                        }
                        if t > after {
                            return Some(t);
                        }
                    }
                }
                self.win_end = w1;
                continue;
            }
            let span_secs = w1.saturating_since(w0).as_secs_f64();
            if let Some(mean) = self.profile.mean_rate_between(w0, w1) {
                let expected = mean * span_secs;
                if expected >= WINDOW_COUNT_THRESHOLD {
                    let n = sample_poisson_count(rng, expected);
                    self.fill_window(w0, w1, n, rng);
                    self.win_end = w1;
                    continue;
                }
            }
            // Exact thinning inside [w0, w1) under the span majorant, so
            // acceptance stays bounded even when the global peak dwarfs
            // the local rate (the legacy bailout scenario).
            let majorant = self.profile.majorant_between(w0, w1);
            if majorant <= 1e-12 {
                self.profile.boundary_after(w0)?; // None: silent forever
                self.win_end = w1;
                continue;
            }
            let mut t = w0;
            loop {
                let gap = sample_exponential(rng, majorant);
                let gap = SimDuration::from_secs_f64(gap).max(SimDuration::from_micros(1));
                t += gap;
                if t >= w1 {
                    break;
                }
                let r = self.profile.rate_at(t, rng);
                if rng.gen::<f64>() * majorant <= r && t > after {
                    return Some(t);
                }
            }
            self.win_end = w1;
        }
    }

    /// Draws `n` instants uniformly in `(w0, w1]`, sorted and separated
    /// by at least the 1µs clock resolution.
    fn fill_window<R: Rng>(&mut self, w0: SimTime, w1: SimTime, n: u64, rng: &mut R) {
        if n == 0 {
            return;
        }
        let span = w1.saturating_since(w0).as_secs_f64();
        let base = self.pending.len();
        for _ in 0..n {
            // 1-u ∈ (0, 1] keeps instants strictly after the window open.
            let u: f64 = rng.gen();
            self.pending.push_back(w0 + SimDuration::from_secs_f64((1.0 - u) * span));
        }
        let tail = self.pending.make_contiguous();
        tail[base..].sort_unstable();
        let min_gap = SimDuration::from_micros(1);
        for i in base.max(1)..tail.len() {
            if tail[i] <= tail[i - 1] {
                tail[i] = tail[i - 1] + min_gap;
            }
        }
    }

    /// The profile's instantaneous rate, as a pure peek: telemetry can
    /// call this at any timestamp without advancing stateful profiles or
    /// consuming RNG state (see [`LoadProfile::peek_rate`]).
    #[must_use]
    pub fn peek_rate(&self, at: SimTime) -> f64 {
        self.profile.peek_rate(at)
    }

    /// How many times legacy thinning gave up after 100 000 rejected
    /// candidates (each bailout silences the stream until the next poll).
    #[must_use]
    pub fn thinning_bailouts(&self) -> u64 {
        self.bailouts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(7)
    }

    fn collect_arrivals(arr: &mut PoissonArrivals, horizon_secs: u64, seed: u64) -> Vec<SimTime> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let horizon = SimTime::from_secs(horizon_secs);
        let mut t = SimTime::ZERO;
        let mut out = Vec::new();
        while let Some(next) = arr.next_after(t, &mut rng) {
            if next > horizon {
                break;
            }
            t = next;
            out.push(next);
        }
        out
    }

    fn count_arrivals(profile: Box<dyn LoadProfile>, horizon_secs: u64, seed: u64) -> usize {
        let mut arr = PoissonArrivals::new(profile);
        collect_arrivals(&mut arr, horizon_secs, seed).len()
    }

    fn count_arrivals_legacy(profile: Box<dyn LoadProfile>, horizon_secs: u64, seed: u64) -> usize {
        let mut arr = PoissonArrivals::with_mode(profile, SamplingMode::Legacy);
        collect_arrivals(&mut arr, horizon_secs, seed).len()
    }

    #[test]
    fn constant_rate_counts_match() {
        let n = count_arrivals(Box::new(ConstantLoad::new(100.0)), 100, 1);
        assert!((9_000..11_000).contains(&n), "arrivals {n}");
    }

    #[test]
    fn constant_rate_counts_match_legacy() {
        let n = count_arrivals_legacy(Box::new(ConstantLoad::new(100.0)), 100, 1);
        assert!((9_000..11_000).contains(&n), "arrivals {n}");
    }

    #[test]
    fn zero_rate_produces_nothing() {
        let mut arr = PoissonArrivals::new(Box::new(ConstantLoad::new(0.0)));
        assert_eq!(arr.next_after(SimTime::ZERO, &mut rng()), None);
        let mut arr =
            PoissonArrivals::with_mode(Box::new(ConstantLoad::new(0.0)), SamplingMode::Legacy);
        assert_eq!(arr.next_after(SimTime::ZERO, &mut rng()), None);
    }

    #[test]
    fn diurnal_peaks_and_troughs() {
        let mut d = DiurnalLoad::new(100.0, 0.5, SimDuration::from_secs(3600));
        let mut r = rng();
        // Peak at period/4, trough at 3·period/4.
        let peak = d.rate_at(SimTime::from_secs(900), &mut r);
        let trough = d.rate_at(SimTime::from_secs(2700), &mut r);
        assert!((peak - 150.0).abs() < 1.0, "peak {peak}");
        assert!((trough - 50.0).abs() < 1.0, "trough {trough}");
        assert!((d.max_rate() - 150.0).abs() < 0.01, "max {}", d.max_rate());
    }

    #[test]
    fn diurnal_full_amplitude_floors_at_zero() {
        let mut d = DiurnalLoad::new(10.0, 1.0, SimDuration::from_secs(100));
        let mut r = rng();
        let trough = d.rate_at(SimTime::from_secs(75), &mut r);
        assert!(trough.abs() < 1e-9);
    }

    #[test]
    fn diurnal_majorant_dominates_exact_rate() {
        let d = DiurnalLoad::new(120.0, 0.8, SimDuration::from_secs(1000)).with_phase(0.9);
        for i in 0..10_000 {
            let t = SimTime::from_millis(i * 250);
            let exact = d.peek_rate(t);
            assert!(d.max_rate() >= exact, "global majorant below rate at {t:?}");
            let span_end = t + SimDuration::from_millis(400);
            assert!(
                d.majorant_between(t, span_end) >= exact - 1e-12,
                "span majorant below rate at {t:?}"
            );
        }
    }

    #[test]
    fn diurnal_envelope_mean_tracks_sinusoid() {
        let d = DiurnalLoad::new(100.0, 0.7, SimDuration::from_secs(400));
        // Over one full period the mean must be ~base.
        let mean = d.mean_rate_between(SimTime::ZERO, SimTime::from_secs(400)).unwrap();
        assert!((mean - 100.0).abs() < 0.1, "mean {mean}");
        // Over the rising quarter the mean must sit well above base.
        let q = d.mean_rate_between(SimTime::from_secs(50), SimTime::from_secs(150)).unwrap();
        assert!(q > 130.0, "quarter mean {q}");
    }

    #[test]
    #[should_panic(expected = "phase must be finite")]
    fn diurnal_rejects_non_finite_phase() {
        let _ = DiurnalLoad::new(10.0, 0.5, SimDuration::from_secs(60)).with_phase(f64::NAN);
    }

    #[test]
    fn ramp_interpolates_then_holds() {
        let mut p = RampLoad::new(10.0, 110.0, SimDuration::from_secs(100));
        let mut r = rng();
        assert_eq!(p.rate_at(SimTime::ZERO, &mut r), 10.0);
        assert!((p.rate_at(SimTime::from_secs(50), &mut r) - 60.0).abs() < 1e-9);
        assert_eq!(p.rate_at(SimTime::from_secs(500), &mut r), 110.0);
    }

    #[test]
    fn flash_crowd_window() {
        let mut p =
            FlashCrowdLoad::new(20.0, 5.0, SimTime::from_secs(100), SimDuration::from_secs(50));
        let mut r = rng();
        assert_eq!(p.rate_at(SimTime::from_secs(99), &mut r), 20.0);
        assert_eq!(p.rate_at(SimTime::from_secs(100), &mut r), 100.0);
        assert_eq!(p.rate_at(SimTime::from_secs(149), &mut r), 100.0);
        assert_eq!(p.rate_at(SimTime::from_secs(150), &mut r), 20.0);
        assert_eq!(p.spike_start(), SimTime::from_secs(100));
    }

    #[test]
    fn mmpp_visits_both_states() {
        let mut p = MmppLoad::new(10.0, 100.0, SimDuration::from_secs(5));
        let mut r = rng();
        let mut seen_low = false;
        let mut seen_high = false;
        for s in 0..200u64 {
            let rate = p.rate_at(SimTime::from_secs(s), &mut r);
            if rate == 10.0 {
                seen_low = true;
            }
            if rate == 100.0 {
                seen_high = true;
            }
        }
        assert!(seen_low && seen_high);
    }

    #[test]
    fn trace_playback_steps() {
        let mut p = TraceLoad::new(vec![
            (SimTime::from_secs(0), 5.0),
            (SimTime::from_secs(10), 50.0),
            (SimTime::from_secs(20), 15.0),
        ]);
        let mut r = rng();
        assert_eq!(p.rate_at(SimTime::from_secs(5), &mut r), 5.0);
        assert_eq!(p.rate_at(SimTime::from_secs(10), &mut r), 50.0);
        assert_eq!(p.rate_at(SimTime::from_secs(99), &mut r), 15.0);
        assert_eq!(p.max_rate(), 50.0);
    }

    #[test]
    fn diurnal_arrival_counts_track_rate() {
        // One full period: total arrivals ≈ base × horizon.
        let n = count_arrivals(
            Box::new(DiurnalLoad::new(50.0, 0.9, SimDuration::from_secs(100))),
            100,
            5,
        );
        assert!((4_000..6_000).contains(&n), "arrivals {n}");
    }

    #[test]
    fn diurnal_arrival_counts_track_rate_legacy() {
        let n = count_arrivals_legacy(
            Box::new(DiurnalLoad::new(50.0, 0.9, SimDuration::from_secs(100))),
            100,
            5,
        );
        assert!((4_000..6_000).contains(&n), "arrivals {n}");
    }

    #[test]
    fn arrivals_are_strictly_increasing() {
        for mode in [SamplingMode::Legacy, SamplingMode::Batched] {
            let mut arr = PoissonArrivals::with_mode(Box::new(ConstantLoad::new(1000.0)), mode);
            let mut r = rng();
            let mut t = SimTime::ZERO;
            for _ in 0..1000 {
                let next = arr.next_after(t, &mut r).unwrap();
                assert!(next > t, "{mode:?}");
                t = next;
            }
        }
    }

    #[test]
    fn deterministic_with_same_seed() {
        for mode in [SamplingMode::Legacy, SamplingMode::Batched] {
            let mut a = PoissonArrivals::with_mode(Box::new(ConstantLoad::new(100.0)), mode);
            let mut b = PoissonArrivals::with_mode(Box::new(ConstantLoad::new(100.0)), mode);
            assert_eq!(
                collect_arrivals(&mut a, 10, 99),
                collect_arrivals(&mut b, 10, 99),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn windowed_counts_match_poisson_moments() {
        // 200 req/s over 200 s: windowed path; mean count ≈ rate·horizon
        // with Poisson dispersion.
        let mut total = 0usize;
        let runs = 20;
        for seed in 0..runs {
            total += count_arrivals(Box::new(ConstantLoad::new(200.0)), 200, seed);
        }
        let mean = total as f64 / runs as f64;
        assert!((mean - 40_000.0).abs() < 300.0, "mean {mean}");
    }

    #[test]
    fn flash_crowd_vectorized_respects_window_edges() {
        // Spike 10× on [100, 150): the vectorized path must confine the
        // elevated density exactly to the spike window.
        let start = SimTime::from_secs(100);
        let dur = SimDuration::from_secs(50);
        let arrivals = {
            let mut arr =
                PoissonArrivals::new(Box::new(FlashCrowdLoad::new(40.0, 10.0, start, dur)));
            collect_arrivals(&mut arr, 300, 11)
        };
        let end = start + dur;
        let before = arrivals.iter().filter(|t| **t < start).count() as f64 / 100.0;
        let during = arrivals.iter().filter(|t| **t >= start && **t < end).count() as f64 / 50.0;
        let after = arrivals.iter().filter(|t| **t >= end).count() as f64 / 150.0;
        assert!((before - 40.0).abs() < 6.0, "pre-spike rate {before}");
        assert!((during - 400.0).abs() < 25.0, "spike rate {during}");
        assert!((after - 40.0).abs() < 6.0, "post-spike rate {after}");
        // Boundary sharpness: the second right before the spike stays at
        // base density, the second right after its end likewise.
        let edge_pre = arrivals
            .iter()
            .filter(|t| **t >= start - SimDuration::from_secs(1) && **t < start)
            .count();
        let edge_post =
            arrivals.iter().filter(|t| **t >= end && **t < end + SimDuration::from_secs(1)).count();
        assert!(edge_pre < 150, "pre-edge leak: {edge_pre} arrivals in 1s at base 40/s");
        assert!(edge_post < 150, "post-edge leak: {edge_post} arrivals in 1s at base 40/s");
    }

    #[test]
    fn trace_with_silent_tail_terminates_without_bailout() {
        // Legacy: max_rate 5000 vs current rate 1e-6 → acceptance 2e-10,
        // 100k candidates exhausted → silent bailout. Batched: the
        // per-window majorant keeps acceptance at 1, no bailout possible.
        let trace = vec![
            (SimTime::from_secs(0), 1e-6),
            (SimTime::from_secs(3600), 5000.0),
            (SimTime::from_secs(3601), 1e-6),
        ];
        let mut arr = PoissonArrivals::new(Box::new(TraceLoad::new(trace.clone())));
        let mut r = rng();
        let next = arr.next_after(SimTime::ZERO, &mut r);
        assert!(next.is_some(), "batched path must find the next arrival");
        assert_eq!(arr.thinning_bailouts(), 0);

        let mut legacy =
            PoissonArrivals::with_mode(Box::new(TraceLoad::new(trace)), SamplingMode::Legacy);
        let mut r = rng();
        let next = legacy.next_after(SimTime::ZERO, &mut r);
        // The legacy sampler bails (surfaced via the counter) — exactly
        // the bug the batched path fixes.
        assert!(next.is_none());
        assert_eq!(legacy.thinning_bailouts(), 1);
    }

    #[test]
    fn peek_rate_does_not_corrupt_mmpp_arrivals() {
        let make =
            || PoissonArrivals::new(Box::new(MmppLoad::new(5.0, 80.0, SimDuration::from_secs(10))));
        // Stream A: arrivals only.
        let mut a = make();
        let arrivals_a = collect_arrivals(&mut a, 120, 21);
        // Stream B: same seed, but telemetry peeks (including
        // non-monotone timestamps) interleaved between arrivals.
        let mut b = make();
        let mut r = ChaCha8Rng::seed_from_u64(21);
        let horizon = SimTime::from_secs(120);
        let mut t = SimTime::ZERO;
        let mut arrivals_b = Vec::new();
        while let Some(next) = b.next_after(t, &mut r) {
            if next > horizon {
                break;
            }
            let _ = b.peek_rate(next + SimDuration::from_secs(1000));
            let _ = b.peek_rate(SimTime::ZERO);
            t = next;
            arrivals_b.push(next);
        }
        assert_eq!(arrivals_a, arrivals_b, "peeking changed the arrival stream");
    }

    #[test]
    fn mmpp_peek_rate_matches_last_seen_state() {
        let mut p = MmppLoad::new(10.0, 100.0, SimDuration::from_secs(5));
        let mut r = rng();
        for s in 0..50u64 {
            let advanced = p.rate_at(SimTime::from_secs(s), &mut r);
            assert_eq!(p.peek_rate(SimTime::from_secs(s)), advanced);
        }
    }

    #[test]
    #[should_panic(expected = "trace must be time-ordered")]
    fn trace_rejects_unsorted() {
        let _ = TraceLoad::new(vec![(SimTime::from_secs(5), 1.0), (SimTime::from_secs(1), 1.0)]);
    }
}
