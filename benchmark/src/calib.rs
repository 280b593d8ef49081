//! The host-speed calibration kernel: a fixed unit of work that calls no
//! repo code, sampled between reps so a run can tell how fast the host
//! was while it measured.
//!
//! The shared 2-vCPU sandbox slows down and speeds up at every timescale
//! from milliseconds to minutes; the same rep costs up to 1.5× more wall
//! in a slow spell, and so does a pure arithmetic loop (process CPU time
//! rises with wall, so the vCPU itself runs slower — nothing the guest
//! can see or subtract). The kernel is therefore plain arithmetic with
//! independent iterations: one xorshift step and one logarithm, the
//! sampler's inverse-CDF step. Measured against interleaved reps of
//! `headline_evolve` and `ctrl250_evolve`, its slow-down tracked theirs
//! one to one (log-log slope 1.03 and 0.99, correlation 0.89 and 0.87).
//! A kernel built from a binary-heap replace-top and a dependent walk
//! over a 512 KiB table — one long dependency chain — slowed down only
//! 0.6× as much as the reps and left slow runs 9 % slow after scaling.

use std::hint::black_box;
use std::time::Instant;

/// The kernel's fast-state wall time in seconds on the reference machine
/// (the sandbox this benchmark was built on), frozen so that
/// `sim_s_per_wall_s` stays in wall seconds of that machine, uncontended.
/// Re-freeze with `run.sh --calibrate` on new hardware (see README.md).
pub const CAL_REF: f64 = 0.016_7;

const ROUNDS: u32 = 2_400_000;

/// Runs the kernel once and returns its wall time in seconds. Every call
/// does identical work.
pub fn sample() -> f64 {
    let started = Instant::now();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut gaps = 0.0f64;
    for _ in 0..ROUNDS {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let u = ((state >> 11) as f64 + 0.5) * (1.0 / (1u64 << 53) as f64);
        gaps -= u.ln();
    }
    // Exponential gaps of mean 1: a wrong sum means the loop was not run
    // as written, and a timing of it would calibrate nothing.
    let mean = black_box(gaps) / f64::from(ROUNDS);
    assert!((mean - 1.0).abs() < 0.01, "calibration kernel computed mean gap {mean}");
    started.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    #[test]
    fn kernel_runs_and_reports_a_positive_time() {
        assert!(super::sample() > 0.0);
    }
}
