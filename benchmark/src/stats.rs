//! Order statistics and the fast-state throughput estimator.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `values`, linearly interpolated
/// between the two nearest order statistics.
///
/// # Panics
///
/// Panics when `values` is empty: every caller has taken at least one
/// sample by construction, so an empty slice is a bug in the benchmark.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (sorted.len() - 1) as f64 * p.clamp(0.0, 1.0);
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The quantile of a seed's scaled rep walls the estimator reads. The
/// host slows down and speeds up at every timescale from milliseconds to
/// minutes; scaling each rep by the calibration samples on either side of
/// it removes part of that, and a low quantile of what is left is the
/// seed's fast-state cost as long as a quarter of its samples were taken
/// near the fast state.
pub const FAST_QUANTILE: f64 = 0.25;

/// A rep's wall time in seconds of the reference machine: the measured
/// wall scaled by how much slower than the frozen reference the
/// calibration kernel ran just before and just after the rep.
pub fn scaled_wall(wall: f64, calib_before: f64, calib_after: f64, cal_ref: f64) -> f64 {
    wall * cal_ref / ((calib_before + calib_after) / 2.0)
}

/// One fast-state wall time per seed: the [`FAST_QUANTILE`] of that
/// seed's own samples. Seeds are never pooled before the quantile,
/// because a cheap seed's slow-state samples would otherwise stand in
/// for an expensive seed's fast-state ones.
pub fn fast_wall_by_seed(walls_by_seed: &[Vec<f64>]) -> Vec<f64> {
    walls_by_seed.iter().map(|walls| quantile(walls, FAST_QUANTILE)).collect()
}

/// Simulated seconds per wall second: every seed simulates one horizon,
/// at its fast-state cost.
pub fn sim_s_per_wall_s(horizon_secs: f64, fast_walls: &[f64]) -> f64 {
    horizon_secs * fast_walls.len() as f64 / fast_walls.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&v, 0.25), 1.75);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn quartiles_are_taken_per_seed_not_pooled() {
        // Seed 0 is cheap, seed 1 is three times dearer; each has one
        // slow-state sample. Pooling all six samples would put the lower
        // quartile at 1.0 and lose seed 1 entirely.
        let walls = vec![vec![1.0, 1.0, 1.5, 1.0, 1.0], vec![3.0, 4.5, 3.0, 3.0, 3.0]];
        assert_eq!(fast_wall_by_seed(&walls), vec![1.0, 3.0]);
    }

    #[test]
    fn calibration_scales_to_the_reference_machine() {
        // Two seeds of 100 sim-s at 0.5 s each: 200 sim-s/wall-s.
        assert!((sim_s_per_wall_s(100.0, &[0.5, 0.5]) - 200.0).abs() < 1e-9);
        // A rep measured while the kernel ran 25 % slower than the
        // reference is credited with the wall it would have taken there.
        let scaled = scaled_wall(0.625, 0.024, 0.026, 0.020);
        assert!((scaled - 0.5).abs() < 1e-12);
    }
}
