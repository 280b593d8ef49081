//! Distribution sampling helpers.
//!
//! The approved dependency set includes `rand` but not `rand_distr`, so
//! the non-uniform distributions workloads need (exponential inter-arrival
//! gaps, log-normal service demands, Poisson window counts) are
//! implemented here from uniform variates.
//!
//! Two standard-normal samplers coexist (see [`SamplingMode`]): the
//! original Box–Muller transform (one `ln`, one `sqrt`, one `cos` per
//! draw) and a 128-layer ziggurat (two uniform draws and one compare on
//! the ~97.5% common path, transcendental fallback only in the wedges and
//! the tail). The ziggurat changes the sampled stream for the same RNG
//! state, so the legacy sampler stays available behind
//! `SamplingMode::Legacy` for one release while downstream fixtures
//! migrate.

use std::sync::OnceLock;

use rand::Rng;

/// Selects between the pre-PR-6 samplers and the batched/ziggurat ones.
///
/// The two modes draw *different streams* from the same RNG state: the
/// headline golden fixture is blessed under `Batched`, while `Legacy`
/// reproduces the pre-ziggurat fixture bit-for-bit. `Legacy` is
/// deprecated and will be removed one release after PR 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplingMode {
    /// Box–Muller normals, per-request Lewis–Shedler thinning everywhere.
    Legacy,
    /// Ziggurat normals, windowed Poisson-count arrival generation.
    #[default]
    Batched,
}

/// Samples an exponential variate with the given rate (events per unit).
///
/// # Examples
///
/// ```
/// use evolve_workload::sample_exponential;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(1);
/// let x = sample_exponential(&mut rng, 2.0);
/// assert!(x >= 0.0);
/// ```
///
/// # Panics
///
/// Panics when `rate` is not positive.
pub fn sample_exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive");
    // gen::<f64>() ∈ [0, 1); use 1-u ∈ (0, 1] to avoid ln(0).
    let u: f64 = rng.gen();
    -(1.0 - u).ln() / rate
}

/// Samples a log-normal variate parameterized by its **mean** and
/// coefficient of variation (σ/μ of the resulting distribution).
///
/// A CV of 0 returns the mean deterministically. Uses the legacy
/// Box–Muller normal; hot paths go through [`LogNormal`] with an explicit
/// [`SamplingMode`].
///
/// # Examples
///
/// ```
/// use evolve_workload::sample_lognormal;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(1);
/// let x = sample_lognormal(&mut rng, 10.0, 0.5);
/// assert!(x > 0.0);
/// ```
///
/// # Panics
///
/// Panics when `mean` is not positive or `cv` is negative.
pub fn sample_lognormal<R: Rng + ?Sized>(rng: &mut R, mean: f64, cv: f64) -> f64 {
    LogNormal::new(mean, cv).sample(rng)
}

/// Mode-dispatching variant of [`sample_lognormal`] for engine call sites
/// that honor the `legacy_sampling` run flag.
pub fn sample_lognormal_with<R: Rng + ?Sized>(
    mode: SamplingMode,
    rng: &mut R,
    mean: f64,
    cv: f64,
) -> f64 {
    LogNormal::new(mean, cv).sample_with(mode, rng)
}

/// A log-normal distribution with its `(μ, σ)` parameters precomputed
/// from the `(mean, cv)` parameterization.
///
/// [`sample_lognormal`] re-derives `μ = ln(mean) − σ²/2` and
/// `σ = √ln(1+cv²)` on every call; hot paths that draw from one fixed
/// distribution millions of times (per-request demand sampling) build
/// this once. Samples are bit-identical to [`sample_lognormal`] with the
/// same parameters and the same RNG state.
///
/// # Examples
///
/// ```
/// use evolve_workload::{sample_lognormal, LogNormal};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let dist = LogNormal::new(10.0, 0.5);
/// let mut a = ChaCha8Rng::seed_from_u64(1);
/// let mut b = ChaCha8Rng::seed_from_u64(1);
/// assert_eq!(dist.sample(&mut a), sample_lognormal(&mut b, 10.0, 0.5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mean: f64,
    cv: f64,
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Precomputes the distribution parameters.
    ///
    /// # Panics
    ///
    /// Panics when `mean` is not positive or `cv` is negative.
    #[must_use]
    pub fn new(mean: f64, cv: f64) -> Self {
        assert!(mean > 0.0, "log-normal mean must be positive");
        assert!(cv >= 0.0, "coefficient of variation must be non-negative");
        // For LogNormal(μ, σ): mean = exp(μ + σ²/2), cv² = exp(σ²) - 1.
        let sigma2 = (1.0 + cv * cv).ln();
        LogNormal { mean, cv, mu: mean.ln() - sigma2 / 2.0, sigma: sigma2.sqrt() }
    }

    /// The distribution mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The coefficient of variation.
    #[must_use]
    pub fn cv(&self) -> f64 {
        self.cv
    }

    /// Draws one sample with the legacy Box–Muller normal; a CV of 0
    /// returns the mean deterministically without consuming RNG state.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.cv == 0.0 {
            return self.mean;
        }
        let z = sample_standard_normal_box_muller(rng);
        (self.mu + self.sigma * z).exp()
    }

    /// Draws one sample with the normal sampler selected by `mode`.
    pub fn sample_with<R: Rng + ?Sized>(&self, mode: SamplingMode, rng: &mut R) -> f64 {
        if self.cv == 0.0 {
            return self.mean;
        }
        let z = match mode {
            SamplingMode::Legacy => sample_standard_normal_box_muller(rng),
            SamplingMode::Batched => sample_standard_normal(rng),
        };
        (self.mu + self.sigma * z).exp()
    }
}

/// Box–Muller standard normal (legacy sampler; three transcendentals per
/// draw).
fn sample_standard_normal_box_muller<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Number of ziggurat layers.
const ZIG_LAYERS: usize = 128;
/// Right edge of the base layer (Doornik's ZIGNOR constants for 128
/// layers).
const ZIG_R: f64 = 3.442_619_855_899;
/// Area of each layer.
const ZIG_V: f64 = 9.912_563_035_262_17e-3;

struct ZigTables {
    /// Layer edge abscissae `x[0] > x[1] > … > x[LAYERS] = 0`.
    x: [f64; ZIG_LAYERS + 1],
    /// Rectangle-acceptance ratios `x[i+1] / x[i]`.
    ratio: [f64; ZIG_LAYERS],
}

fn zig_tables() -> &'static ZigTables {
    static TABLES: OnceLock<ZigTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut x = [0.0f64; ZIG_LAYERS + 1];
        let f = (-0.5 * ZIG_R * ZIG_R).exp();
        // Layer 0 is the base strip whose rectangle extends to V/f(R) so
        // that every layer (including the tail mass) has equal area V.
        x[0] = ZIG_V / f;
        x[1] = ZIG_R;
        for i in 2..ZIG_LAYERS {
            let prev = x[i - 1];
            x[i] = (-2.0 * (ZIG_V / prev + (-0.5 * prev * prev).exp()).ln()).sqrt();
        }
        x[ZIG_LAYERS] = 0.0;
        let mut ratio = [0.0f64; ZIG_LAYERS];
        for i in 0..ZIG_LAYERS {
            ratio[i] = x[i + 1] / x[i];
        }
        ZigTables { x, ratio }
    })
}

/// Ziggurat standard normal (Doornik's ZIGNOR layout, 128 layers).
///
/// The common path (~97.5% of draws) costs two uniform draws, one table
/// lookup and one multiply; wedge rejection and the Marsaglia tail
/// (|z| > 3.44) fall back to `exp`/`ln`. Deterministic for a fixed RNG
/// stream, but the stream *differs* from Box–Muller — golden fixtures
/// were re-blessed when this became the default (DESIGN.md decision 11).
///
/// # Examples
///
/// ```
/// use evolve_workload::sample_standard_normal;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(1);
/// let z = sample_standard_normal(&mut rng);
/// assert!(z.is_finite());
/// ```
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let t = zig_tables();
    loop {
        // One u64 supplies the layer index (7 low bits); the f64 draw
        // supplies sign and position within the layer.
        let layer = (rng.gen::<u64>() & 0x7F) as usize;
        let u: f64 = 2.0 * rng.gen::<f64>() - 1.0;
        if u.abs() < t.ratio[layer] {
            return u * t.x[layer];
        }
        if layer == 0 {
            // Marsaglia tail: sample |z| > R from the conditional tail.
            loop {
                let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
                let xt = -u1.ln() / ZIG_R;
                let yt = -u2.ln();
                if 2.0 * yt > xt * xt {
                    return if u < 0.0 { -(ZIG_R + xt) } else { ZIG_R + xt };
                }
            }
        }
        // Wedge: accept with probability proportional to the density gap
        // between the layer's rectangle and the curve.
        let z = u * t.x[layer];
        let f0 = (-0.5 * (t.x[layer] * t.x[layer] - z * z)).exp();
        let f1 = (-0.5 * (t.x[layer + 1] * t.x[layer + 1] - z * z)).exp();
        if f1 + rng.gen::<f64>() * (f0 - f1) < 1.0 {
            return z;
        }
    }
}

/// Samples a Poisson count with the given mean.
///
/// Knuth's product-of-uniforms below λ = 10 and Hörmann's PTRS
/// transformed-rejection above it, so one call stays O(1) at the window
/// means the vectorized arrival generator produces (hundreds).
///
/// # Examples
///
/// ```
/// use evolve_workload::sample_poisson_count;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let mut rng = ChaCha8Rng::seed_from_u64(1);
/// let n = sample_poisson_count(&mut rng, 200.0);
/// assert!(n > 100 && n < 300);
/// ```
pub fn sample_poisson_count<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> u64 {
    if lambda.is_nan() || lambda <= 0.0 {
        return 0;
    }
    if lambda < 10.0 {
        // Knuth: count uniforms until their product drops below e^{-λ}.
        let limit = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0f64;
        loop {
            p *= rng.gen::<f64>();
            if p <= limit {
                return k;
            }
            k += 1;
        }
    }
    // PTRS (Hörmann 1993): transformed rejection with squeeze; ~1.1
    // uniform pairs per sample for any λ ≥ 10.
    let b = 0.931 + 2.53 * lambda.sqrt();
    let a = -0.059 + 0.024_83 * b;
    let inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
    let v_r = 0.9277 - 3.6224 / (b - 2.0);
    let ln_lambda = lambda.ln();
    loop {
        let u = rng.gen::<f64>() - 0.5;
        let v: f64 = rng.gen();
        let us = 0.5 - u.abs();
        let k = ((2.0 * a / us + b) * u + lambda + 0.43).floor();
        if us >= 0.07 && v <= v_r {
            return k as u64;
        }
        if k < 0.0 || (us < 0.013 && v > us) {
            continue;
        }
        if (v * inv_alpha / (a / (us * us) + b)).ln() <= k * ln_lambda - lambda - ln_factorial(k) {
            return k as u64;
        }
    }
}

/// `ln(k!)` via a small table for k ≤ 9 and the Stirling series above.
fn ln_factorial(k: f64) -> f64 {
    const TABLE: [f64; 10] = [
        0.0,
        0.0,
        std::f64::consts::LN_2,
        1.791_759_469_228_055,
        3.178_053_830_347_946,
        4.787_491_742_782_046,
        6.579_251_212_010_101,
        8.525_161_361_065_415,
        10.604_602_902_745_25,
        12.801_827_480_081_469,
    ];
    if k < 10.0 {
        return TABLE[k as usize];
    }
    let n = k;
    // Stirling with the 1/(12n) and 1/(360n³) correction terms; relative
    // error < 1e-12 for n ≥ 10, far below the rejection test's tolerance.
    (n + 0.5) * n.ln() - n + 0.5 * (2.0 * std::f64::consts::PI).ln() + 1.0 / (12.0 * n)
        - 1.0 / (360.0 * n * n * n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut r = rng();
        let n = 100_000;
        let rate = 4.0;
        let mean: f64 = (0..n).map(|_| sample_exponential(&mut r, rate)).sum::<f64>() / n as f64;
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn exponential_is_non_negative() {
        let mut r = rng();
        for _ in 0..1000 {
            assert!(sample_exponential(&mut r, 0.1) >= 0.0);
        }
    }

    #[test]
    fn lognormal_mean_and_cv_match() {
        let mut r = rng();
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_lognormal(&mut r, 50.0, 0.8)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean;
        assert!((mean - 50.0).abs() / 50.0 < 0.02, "mean {mean}");
        assert!((cv - 0.8).abs() < 0.05, "cv {cv}");
    }

    #[test]
    fn lognormal_zero_cv_is_deterministic() {
        let mut r = rng();
        assert_eq!(sample_lognormal(&mut r, 7.0, 0.0), 7.0);
    }

    #[test]
    fn lognormal_is_positive() {
        let mut r = rng();
        for _ in 0..1000 {
            assert!(sample_lognormal(&mut r, 1.0, 2.0) > 0.0);
        }
    }

    #[test]
    fn lognormal_batched_mode_matches_moments() {
        let dist = LogNormal::new(50.0, 0.8);
        let mut r = rng();
        let n = 200_000;
        let samples: Vec<f64> =
            (0..n).map(|_| dist.sample_with(SamplingMode::Batched, &mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean;
        assert!((mean - 50.0).abs() / 50.0 < 0.02, "mean {mean}");
        assert!((cv - 0.8).abs() < 0.05, "cv {cv}");
    }

    #[test]
    fn lognormal_legacy_mode_is_bit_identical_to_sample() {
        let dist = LogNormal::new(12.0, 0.6);
        let mut a = rng();
        let mut b = rng();
        for _ in 0..1000 {
            assert_eq!(
                dist.sample(&mut a).to_bits(),
                dist.sample_with(SamplingMode::Legacy, &mut b).to_bits()
            );
        }
    }

    #[test]
    fn deterministic_under_fixed_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let mut b = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..100 {
            assert_eq!(sample_exponential(&mut a, 1.0), sample_exponential(&mut b, 1.0));
        }
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_zero_rate() {
        let mut r = rng();
        let _ = sample_exponential(&mut r, 0.0);
    }

    #[test]
    fn ziggurat_moments_match_standard_normal() {
        let mut r = rng();
        let n = 400_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut r)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|z| (z - mean) * (z - mean)).sum::<f64>() / n as f64;
        let skew =
            samples.iter().map(|z| (z - mean).powi(3)).sum::<f64>() / n as f64 / var.powf(1.5);
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.01, "var {var}");
        assert!(skew.abs() < 0.02, "skew {skew}");
    }

    #[test]
    fn ziggurat_tail_mass_is_plausible() {
        // P(|Z| > 3.442) ≈ 5.77e-4, so 400k draws yield ~231 tail hits;
        // also checks the tail fallback produces values beyond R.
        let mut r = rng();
        let n = 400_000;
        let tails = (0..n).filter(|_| sample_standard_normal(&mut r).abs() > ZIG_R).count();
        assert!((100..500).contains(&tails), "tail count {tails}");
    }

    #[test]
    fn ziggurat_deterministic_under_fixed_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(77);
        let mut b = ChaCha8Rng::seed_from_u64(77);
        for _ in 0..10_000 {
            assert_eq!(
                sample_standard_normal(&mut a).to_bits(),
                sample_standard_normal(&mut b).to_bits()
            );
        }
    }

    #[test]
    fn poisson_moments_small_lambda() {
        let mut r = rng();
        let lambda = 3.5;
        let n = 200_000;
        let counts: Vec<u64> = (0..n).map(|_| sample_poisson_count(&mut r, lambda)).collect();
        let mean = counts.iter().sum::<u64>() as f64 / n as f64;
        let var = counts.iter().map(|&k| (k as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - lambda).abs() / lambda < 0.02, "mean {mean}");
        assert!((var - lambda).abs() / lambda < 0.03, "var {var}");
    }

    #[test]
    fn poisson_moments_large_lambda() {
        let mut r = rng();
        let lambda = 250.0;
        let n = 100_000;
        let counts: Vec<u64> = (0..n).map(|_| sample_poisson_count(&mut r, lambda)).collect();
        let mean = counts.iter().sum::<u64>() as f64 / n as f64;
        let var = counts.iter().map(|&k| (k as f64 - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - lambda).abs() / lambda < 0.01, "mean {mean}");
        assert!((var - lambda).abs() / lambda < 0.03, "var {var}");
    }

    #[test]
    fn poisson_zero_and_negative_lambda_yield_zero() {
        let mut r = rng();
        assert_eq!(sample_poisson_count(&mut r, 0.0), 0);
        assert_eq!(sample_poisson_count(&mut r, -4.0), 0);
        assert_eq!(sample_poisson_count(&mut r, f64::NAN), 0);
    }

    #[test]
    fn ln_factorial_matches_direct_product() {
        let direct: f64 = (1..=25u64).map(|i| (i as f64).ln()).sum();
        assert!((ln_factorial(25.0) - direct).abs() < 1e-9);
        assert!(
            (ln_factorial(9.0) - (1..=9u64).map(|i| (i as f64).ln()).sum::<f64>()).abs() < 1e-9
        );
    }
}
