//! Request rates and arrival-time sampling.
//!
//! A [`Load`] is a [`LoadSpec`] made live: it maps simulated time to an
//! instantaneous request rate, and [`PoissonArrivals`] draws actual
//! arrival instants from it as a non-homogeneous Poisson process. The
//! six kinds cover what makes autoscaling hard: slow diurnal swings,
//! linear ramps, multiplicative flash crowds, Markov-modulated
//! burstiness and recorded traces.
//!
//! Two generation strategies exist (selected by
//! [`SamplingMode`](crate::SamplingMode)):
//!
//! - **Legacy** — per-request Lewis–Shedler thinning under the *global*
//!   rate majorant, exactly as before PR 6 (bit-identical streams).
//! - **Batched** — time is cut into windows clipped at the load's shape
//!   boundaries. High-rate windows draw one Poisson count from the
//!   window's mean rate and spread the instants uniformly; low-rate
//!   windows keep exact thinning but under a *per-window* majorant, which
//!   bounds the rejection rate and removes the legacy sampler's silent
//!   100 000-candidate bailout (reachable when a trace or flash-crowd
//!   majorant vastly exceeds the current rate).

use std::collections::VecDeque;

use evolve_types::{SimDuration, SimTime};
use rand::Rng;

use crate::sampling::{sample_exponential, sample_poisson_count, SamplingMode};
use crate::scenario::LoadSpec;

/// Number of piecewise-linear cells the diurnal envelope tabulates per
/// period.
const ENVELOPE_CELLS: usize = 256;

/// Precomputed piecewise-linear envelope of one diurnal period: cell-edge
/// rates for lookup + lerp, a prefix integral for window means, and
/// per-cell majorants (chord max plus a curvature pad) that provably
/// dominate the underlying sinusoid.
#[derive(Debug, Default)]
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
    /// Maximum over `cell_max` (the envelope's global majorant).
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

/// A [`LoadSpec`] ready to sample: the spec plus what it derives once
/// — the diurnal envelope, and the MMPP's current state and next switch.
/// Built by [`LoadSpec::build`] and consumed by [`PoissonArrivals`].
#[derive(Debug)]
pub struct Load {
    spec: LoadSpec,
    /// One diurnal period tabulated (empty for every other kind): window
    /// means and thinning majorants come from the table instead of
    /// per-candidate `sin` calls.
    env: DiurnalEnvelope,
    /// The MMPP is in its high state.
    in_high: bool,
    /// When the MMPP's current state expires.
    next_switch: SimTime,
}

impl Load {
    /// Checks the spec's parameters, panicking as [`LoadSpec::build`]
    /// documents, and derives the diurnal envelope.
    pub(crate) fn new(spec: LoadSpec) -> Load {
        let mut env = DiurnalEnvelope::default();
        match &spec {
            LoadSpec::Constant { rate } => {
                assert!(rate.is_finite() && *rate >= 0.0, "rate must be finite and non-negative");
            }
            LoadSpec::Diurnal { base, amplitude, period, phase } => {
                assert!(*base >= 0.0, "base rate must be non-negative");
                assert!((0.0..=1.0).contains(amplitude), "amplitude must be in [0, 1]");
                assert!(!period.is_zero(), "period must be positive");
                assert!(phase.is_finite(), "phase must be finite");
                env = DiurnalEnvelope::build(*base, *amplitude, *period, *phase);
            }
            LoadSpec::Ramp { from, to, duration } => {
                assert!(*from >= 0.0 && *to >= 0.0, "rates must be non-negative");
                assert!(!duration.is_zero(), "ramp duration must be positive");
            }
            LoadSpec::FlashCrowd { base, spike_factor, .. } => {
                assert!(*base >= 0.0, "base rate must be non-negative");
                assert!(*spike_factor >= 1.0, "spike factor must be at least 1");
            }
            LoadSpec::Mmpp { low, high, mean_dwell } => {
                assert!(*low >= 0.0 && high >= low, "need 0 <= low <= high");
                assert!(!mean_dwell.is_zero(), "mean dwell must be positive");
            }
            LoadSpec::Trace { points } => {
                assert!(!points.is_empty(), "trace must not be empty");
                assert!(points.windows(2).all(|w| w[0].0 <= w[1].0), "trace must be time-ordered");
                assert!(points.iter().all(|(_, r)| *r >= 0.0), "trace rates must be non-negative");
            }
        }
        Load { spec, env, in_high: false, next_switch: SimTime::ZERO }
    }

    /// The rate at `at`, in requests/second. The MMPP reports the state
    /// it last advanced to; `rate_at` advances it first.
    fn rate(&self, at: SimTime) -> f64 {
        match &self.spec {
            LoadSpec::Constant { rate } => *rate,
            LoadSpec::Diurnal { base, amplitude, period, phase } => {
                let x = at.as_secs_f64() / period.as_secs_f64();
                let r = base * (1.0 + amplitude * (2.0 * std::f64::consts::PI * x + phase).sin());
                r.max(0.0)
            }
            LoadSpec::Ramp { from, to, duration } => {
                let frac = (at.as_secs_f64() / duration.as_secs_f64()).min(1.0);
                from + (to - from) * frac
            }
            LoadSpec::FlashCrowd { base, spike_factor, start, duration } => {
                if at >= *start && at < *start + *duration {
                    base * spike_factor
                } else {
                    *base
                }
            }
            LoadSpec::Mmpp { low, high, .. } => {
                if self.in_high {
                    *high
                } else {
                    *low
                }
            }
            LoadSpec::Trace { points } => match points.partition_point(|(t, _)| *t <= at) {
                0 => points[0].1,
                n => points[n - 1].1,
            },
        }
    }

    /// Instantaneous rate at `at`. Callers query with non-decreasing
    /// timestamps: the MMPP advances its state machine to `at`, drawing
    /// its dwell times from `rng`.
    fn rate_at<R: Rng>(&mut self, at: SimTime, rng: &mut R) -> f64 {
        match self.segment_after(at, rng) {
            Some((rate, _)) => rate,
            None => self.rate(at),
        }
    }

    /// An upper bound on the rate over all time: the legacy thinning
    /// majorant. The diurnal bound is the analytic peak
    /// `base × (1 + amplitude)`, which dominates the sinusoid exactly
    /// (the phase only shifts where the peak falls) and keeps the legacy
    /// stream bit-identical to the pre-envelope sampler.
    pub(crate) fn max_rate(&self) -> f64 {
        match &self.spec {
            LoadSpec::Constant { rate } => *rate,
            LoadSpec::Diurnal { base, amplitude, .. } => base * (1.0 + amplitude),
            LoadSpec::Ramp { from, to, .. } => from.max(*to),
            LoadSpec::FlashCrowd { base, spike_factor, .. } => base * spike_factor,
            LoadSpec::Mmpp { high, .. } => *high,
            LoadSpec::Trace { points } => points.iter().map(|(_, r)| *r).fold(0.0, f64::max),
        }
    }

    /// An upper bound on the rate over `[from, to]`: the per-window
    /// thinning majorant, tight inside quiet stretches of shaped loads.
    fn majorant_between(&self, from: SimTime, to: SimTime) -> f64 {
        match &self.spec {
            LoadSpec::Diurnal { period, .. } => {
                self.env.majorant_between(from, to, period.as_secs_f64())
            }
            // Linear between the clamped endpoints, so the endpoint max
            // dominates.
            LoadSpec::Ramp { .. } => self.rate(from).max(self.rate(to)),
            LoadSpec::FlashCrowd { base, spike_factor, start, duration } => {
                if from < *start + *duration && to >= *start {
                    base * spike_factor
                } else {
                    *base
                }
            }
            LoadSpec::Trace { points } => {
                // Steps holding in [from, to]: the one in force at `from`
                // plus every step starting inside the span.
                let mut m = self.rate(from);
                let start = points.partition_point(|(t, _)| *t <= from);
                for (t, r) in &points[start..] {
                    if *t > to {
                        break;
                    }
                    m = m.max(*r);
                }
                m
            }
            LoadSpec::Constant { .. } | LoadSpec::Mmpp { .. } => self.max_rate(),
        }
    }

    /// Mean rate over `[from, to]` for windowed Poisson-count generation,
    /// or `None` for the MMPP, which is stochastic and sampled per
    /// segment instead.
    fn mean_rate_between(&self, from: SimTime, to: SimTime) -> Option<f64> {
        let a = from.as_secs_f64();
        let b = to.as_secs_f64();
        match &self.spec {
            LoadSpec::Mmpp { .. } => None,
            LoadSpec::Constant { rate } => Some(*rate),
            LoadSpec::Diurnal { period, .. } => {
                Some(self.env.mean_between(from, to, period.as_secs_f64()))
            }
            // Trapezoid; windows never span the ramp end (see
            // `boundary_after`), where the function stops being linear.
            LoadSpec::Ramp { .. } => Some((self.rate(from) + self.rate(to)) / 2.0),
            _ if b <= a => Some(self.rate(from)),
            LoadSpec::FlashCrowd { base, spike_factor, start, duration } => {
                // Windows are clipped at the spike edges (`boundary_after`),
                // so the span sits entirely on one side — but integrate
                // exactly anyway.
                let s = start.as_secs_f64();
                let e = (*start + *duration).as_secs_f64();
                let hot = (b.min(e) - a.max(s)).max(0.0);
                let cold = (b - a) - hot;
                Some((cold * base + hot * base * spike_factor) / (b - a))
            }
            LoadSpec::Trace { points } => {
                // Piecewise-constant integral across the steps inside the
                // span.
                let mut integral = 0.0;
                let mut cursor = a;
                let mut rate = self.rate(from);
                let start = points.partition_point(|(t, _)| *t <= from);
                for (t, r) in &points[start..] {
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
        }
    }

    /// The next rate-shape boundary strictly after `at` (envelope cell
    /// edges, ramp end, spike edges, trace steps). Generation windows
    /// never span a boundary, so vectorized counts cannot smear a
    /// discontinuity.
    fn boundary_after(&self, at: SimTime) -> Option<SimTime> {
        match &self.spec {
            LoadSpec::Diurnal { period, .. } => {
                // Next envelope cell edge, so per-window majorants stay
                // tight.
                let cell_secs = period.as_secs_f64() / ENVELOPE_CELLS as f64;
                let idx = (at.as_secs_f64() / cell_secs).floor() + 1.0;
                Some(SimTime::ZERO + SimDuration::from_secs_f64(idx * cell_secs))
            }
            LoadSpec::Ramp { duration, .. } => {
                let end = SimTime::ZERO + *duration;
                (at < end).then_some(end)
            }
            LoadSpec::FlashCrowd { start, duration, .. } => {
                if at < *start {
                    Some(*start)
                } else if at < *start + *duration {
                    Some(*start + *duration)
                } else {
                    None
                }
            }
            LoadSpec::Trace { points } => {
                let idx = points.partition_point(|(t, _)| *t <= at);
                points.get(idx).map(|(t, _)| *t)
            }
            LoadSpec::Constant { .. } | LoadSpec::Mmpp { .. } => None,
        }
    }

    /// The MMPP's segment at `at`: advances the state machine to `at` and
    /// returns the current rate plus the end of its constant-rate
    /// segment. The batched sampler generates this stretch as an exact
    /// homogeneous Poisson process — no thinning, no rejected candidates.
    /// `None` for every other kind, which is windowed or thinned instead.
    fn segment_after<R: Rng>(&mut self, at: SimTime, rng: &mut R) -> Option<(f64, SimTime)> {
        let LoadSpec::Mmpp { mean_dwell, .. } = &self.spec else {
            return None;
        };
        // One dwell machine (and one RNG draw order) for legacy thinning
        // through `rate_at` and for the exact segment path.
        while at >= self.next_switch {
            self.in_high = !self.in_high;
            let dwell = sample_exponential(rng, 1.0 / mean_dwell.as_secs_f64());
            self.next_switch += SimDuration::from_secs_f64(dwell.max(1e-3));
        }
        Some((self.rate(at), self.next_switch))
    }
}

/// Generation window length for the batched arrival path.
const ARRIVAL_WINDOW: SimDuration = SimDuration::from_millis(1000);
/// Expected arrivals per window above which the Poisson-count fast path
/// replaces exact thinning.
const WINDOW_COUNT_THRESHOLD: f64 = 4.0;

/// Samples arrival instants from a [`Load`].
///
/// In [`SamplingMode::Legacy`] every instant comes from Lewis–Shedler
/// thinning under the global majorant (the pre-PR-6 stream, preserved
/// bit-for-bit). In [`SamplingMode::Batched`] (default), deterministic
/// loads generate per-window Poisson counts above
/// `WINDOW_COUNT_THRESHOLD` expected arrivals and fall back to
/// per-window-majorant thinning below it; the MMPP is sampled exactly,
/// one constant-rate segment at a time.
///
/// # Examples
///
/// ```
/// use evolve_workload::{LoadSpec, PoissonArrivals};
/// use evolve_types::SimTime;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut arr = PoissonArrivals::new(LoadSpec::Constant { rate: 50.0 }.build());
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
#[derive(Debug)]
pub struct PoissonArrivals {
    load: Load,
    mode: SamplingMode,
    /// Pre-generated instants (batched mode), strictly increasing.
    pending: VecDeque<SimTime>,
    /// Exclusive end of the last generated window (batched mode).
    win_end: SimTime,
    /// Legacy thinning bailouts (100 000 rejected candidates) observed.
    bailouts: u64,
}

impl PoissonArrivals {
    /// Creates a sampler over the given load with the default (batched)
    /// generation mode.
    #[must_use]
    pub fn new(load: Load) -> Self {
        Self::with_mode(load, SamplingMode::default())
    }

    /// Creates a sampler with an explicit generation mode.
    #[must_use]
    pub fn with_mode(load: Load, mode: SamplingMode) -> Self {
        PoissonArrivals {
            load,
            mode,
            pending: VecDeque::new(),
            win_end: SimTime::ZERO,
            bailouts: 0,
        }
    }

    /// The next arrival strictly after `after`, or `None` when the load's
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
        let majorant = self.load.max_rate();
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
            let r = self.load.rate_at(t, rng);
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
            if let Some(b) = self.load.boundary_after(w0) {
                if b > w0 {
                    w1 = w1.min(b);
                }
            }
            // The MMPP, stochastic and piecewise-constant, exposes its
            // current dwell segment: inside it the process is homogeneous
            // Poisson, so sample it exactly — counts + uniform spread at
            // high rate, exponential gaps at low rate — instead of
            // thinning (which rejects ~majorant/rate candidates each).
            if let Some((rate, seg_end)) = self.load.segment_after(w0, rng) {
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
            if let Some(mean) = self.load.mean_rate_between(w0, w1) {
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
            let majorant = self.load.majorant_between(w0, w1);
            if majorant <= 1e-12 {
                self.load.boundary_after(w0)?; // None: silent forever
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
                let r = self.load.rate_at(t, rng);
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

    fn constant(rate: f64) -> Load {
        LoadSpec::Constant { rate }.build()
    }

    fn diurnal(base: f64, amplitude: f64, period_secs: u64, phase: f64) -> Load {
        let period = SimDuration::from_secs(period_secs);
        LoadSpec::Diurnal { base, amplitude, period, phase }.build()
    }

    fn trace(points: Vec<(SimTime, f64)>) -> Load {
        LoadSpec::Trace { points }.build()
    }

    fn count_arrivals(load: Load, horizon_secs: u64, seed: u64) -> usize {
        let mut arr = PoissonArrivals::new(load);
        collect_arrivals(&mut arr, horizon_secs, seed).len()
    }

    fn count_arrivals_legacy(load: Load, horizon_secs: u64, seed: u64) -> usize {
        let mut arr = PoissonArrivals::with_mode(load, SamplingMode::Legacy);
        collect_arrivals(&mut arr, horizon_secs, seed).len()
    }

    #[test]
    fn constant_rate_counts_match() {
        let n = count_arrivals(constant(100.0), 100, 1);
        assert!((9_000..11_000).contains(&n), "arrivals {n}");
    }

    #[test]
    fn constant_rate_counts_match_legacy() {
        let n = count_arrivals_legacy(constant(100.0), 100, 1);
        assert!((9_000..11_000).contains(&n), "arrivals {n}");
    }

    #[test]
    fn zero_rate_produces_nothing() {
        let mut arr = PoissonArrivals::new(constant(0.0));
        assert_eq!(arr.next_after(SimTime::ZERO, &mut rng()), None);
        let mut arr = PoissonArrivals::with_mode(constant(0.0), SamplingMode::Legacy);
        assert_eq!(arr.next_after(SimTime::ZERO, &mut rng()), None);
    }

    #[test]
    fn diurnal_peaks_and_troughs() {
        let mut d = diurnal(100.0, 0.5, 3600, 0.0);
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
        let mut d = diurnal(10.0, 1.0, 100, 0.0);
        let mut r = rng();
        let trough = d.rate_at(SimTime::from_secs(75), &mut r);
        assert!(trough.abs() < 1e-9);
    }

    #[test]
    fn diurnal_majorant_dominates_exact_rate() {
        let d = diurnal(120.0, 0.8, 1000, 0.9);
        for i in 0..10_000 {
            let t = SimTime::from_millis(i * 250);
            let exact = d.rate(t);
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
        let d = diurnal(100.0, 0.7, 400, 0.0);
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
        let _ = diurnal(10.0, 0.5, 60, f64::NAN);
    }

    #[test]
    fn ramp_interpolates_then_holds() {
        let mut p =
            LoadSpec::Ramp { from: 10.0, to: 110.0, duration: SimDuration::from_secs(100) }.build();
        let mut r = rng();
        assert_eq!(p.rate_at(SimTime::ZERO, &mut r), 10.0);
        assert!((p.rate_at(SimTime::from_secs(50), &mut r) - 60.0).abs() < 1e-9);
        assert_eq!(p.rate_at(SimTime::from_secs(500), &mut r), 110.0);
    }

    #[test]
    fn flash_crowd_window() {
        let mut p = LoadSpec::FlashCrowd {
            base: 20.0,
            spike_factor: 5.0,
            start: SimTime::from_secs(100),
            duration: SimDuration::from_secs(50),
        }
        .build();
        let mut r = rng();
        assert_eq!(p.rate_at(SimTime::from_secs(99), &mut r), 20.0);
        assert_eq!(p.rate_at(SimTime::from_secs(100), &mut r), 100.0);
        assert_eq!(p.rate_at(SimTime::from_secs(149), &mut r), 100.0);
        assert_eq!(p.rate_at(SimTime::from_secs(150), &mut r), 20.0);
    }

    #[test]
    fn mmpp_visits_both_states() {
        let mut p =
            LoadSpec::Mmpp { low: 10.0, high: 100.0, mean_dwell: SimDuration::from_secs(5) }
                .build();
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
        let mut p = trace(vec![
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
        let n = count_arrivals(diurnal(50.0, 0.9, 100, 0.0), 100, 5);
        assert!((4_000..6_000).contains(&n), "arrivals {n}");
    }

    #[test]
    fn diurnal_arrival_counts_track_rate_legacy() {
        let n = count_arrivals_legacy(diurnal(50.0, 0.9, 100, 0.0), 100, 5);
        assert!((4_000..6_000).contains(&n), "arrivals {n}");
    }

    #[test]
    fn arrivals_are_strictly_increasing() {
        for mode in [SamplingMode::Legacy, SamplingMode::Batched] {
            let mut arr = PoissonArrivals::with_mode(constant(1000.0), mode);
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
            let mut a = PoissonArrivals::with_mode(constant(100.0), mode);
            let mut b = PoissonArrivals::with_mode(constant(100.0), mode);
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
            total += count_arrivals(constant(200.0), 200, seed);
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
            let load =
                LoadSpec::FlashCrowd { base: 40.0, spike_factor: 10.0, start, duration: dur };
            let mut arr = PoissonArrivals::new(load.build());
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
        let points = vec![
            (SimTime::from_secs(0), 1e-6),
            (SimTime::from_secs(3600), 5000.0),
            (SimTime::from_secs(3601), 1e-6),
        ];
        let mut arr = PoissonArrivals::new(trace(points.clone()));
        let mut r = rng();
        let next = arr.next_after(SimTime::ZERO, &mut r);
        assert!(next.is_some(), "batched path must find the next arrival");
        assert_eq!(arr.thinning_bailouts(), 0);

        let mut legacy = PoissonArrivals::with_mode(trace(points), SamplingMode::Legacy);
        let mut r = rng();
        let next = legacy.next_after(SimTime::ZERO, &mut r);
        // The legacy sampler bails (surfaced via the counter) — exactly
        // the bug the batched path fixes.
        assert!(next.is_none());
        assert_eq!(legacy.thinning_bailouts(), 1);
    }

    #[test]
    #[should_panic(expected = "trace must be time-ordered")]
    fn trace_rejects_unsorted() {
        let _ = trace(vec![(SimTime::from_secs(5), 1.0), (SimTime::from_secs(1), 1.0)]);
    }
}
