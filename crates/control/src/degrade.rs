//! Graceful degradation under lost or stale telemetry.
//!
//! When metric scrapes go dark the controller must not mistake silence
//! for idleness: the PID integrator is frozen (simply not stepped) and
//! the last-safe output is held. [`DegradationGuard`] implements the
//! policy around that hold:
//!
//! * **hold** — while signals are missing, the previous output is
//!   repeated verbatim;
//! * **watchdog** — after six consecutive dark ticks the
//!   guard stops trusting the held value and decays it toward a
//!   caller-supplied usage-anchored floor (never below it), so a stale
//!   over-allocation does not persist forever;
//! * **re-engagement** — when signals return, the controller's proposed
//!   outputs are slew-limited relative to the held value for a few ticks,
//!   preventing a step change from whatever the PID accumulated against
//!   post-blackout measurements.

use evolve_types::codec::{Codec, Decoder, Encoder};
use evolve_types::{ResourceVec, Result};

/// Dark ticks tolerated before the watchdog starts decaying the held
/// output toward the floor.
const WATCHDOG_TICKS: u32 = 6;
/// Per-tick relative decay toward the floor once the watchdog fires, and
/// the per-tick relative slew bound during re-engagement.
const MAX_STEP: f64 = 0.25;
/// How many fresh ticks stay slew-limited after a blackout.
const REENGAGE_TICKS: u32 = 3;

/// Hold-last-safe / watchdog / slew-limited re-engagement state machine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DegradationGuard {
    dark_ticks: u32,
    reengage_left: u32,
    held: Option<ResourceVec>,
}

impl DegradationGuard {
    /// Consecutive ticks without a usable signal.
    #[must_use]
    pub fn dark_ticks(&self) -> u32 {
        self.dark_ticks
    }

    /// `true` once the watchdog has given up on the held output.
    #[must_use]
    pub fn watchdog_tripped(&self) -> bool {
        self.dark_ticks > WATCHDOG_TICKS
    }

    /// One dark tick: returns the output to hold, or `None` when no
    /// output was ever recorded (the caller falls back to its default).
    /// `floor` is the usage-anchored safe minimum; once the watchdog
    /// trips the held output decays toward it but never below.
    pub fn on_dark(&mut self, floor: &ResourceVec) -> Option<ResourceVec> {
        self.dark_ticks = self.dark_ticks.saturating_add(1);
        let held = self.held?;
        let out = if self.watchdog_tripped() { (held * (1.0 - MAX_STEP)).max(floor) } else { held };
        self.held = Some(out);
        Some(out)
    }

    /// One fresh tick: accepts the controller's proposed output and
    /// returns the (possibly slew-limited) output to apply.
    pub fn on_signal(&mut self, proposed: ResourceVec) -> ResourceVec {
        if self.dark_ticks > 0 {
            self.reengage_left = REENGAGE_TICKS;
            self.dark_ticks = 0;
        }
        let out = match (self.reengage_left, self.held) {
            (n, Some(held)) if n > 0 => {
                self.reengage_left = n - 1;
                let lo = held * (1.0 - MAX_STEP);
                let hi = held * (1.0 + MAX_STEP);
                proposed.clamp(&lo, &hi)
            }
            _ => proposed,
        };
        self.held = Some(out);
        out
    }

    /// Seeds the guard after a controller restart: `held` becomes the
    /// observed current allocation and the full re-engagement window is
    /// armed, so the **first** post-restart [`on_signal`](Self::on_signal)
    /// is already slew-limited to `held · (1 ± 0.25)`. (The normal
    /// path only arms re-engagement on a dark→fresh transition, which a
    /// freshly-constructed guard never sees.)
    pub fn seed_recovery(&mut self, held: ResourceVec) {
        self.held = Some(held);
        self.reengage_left = REENGAGE_TICKS;
        self.dark_ticks = 0;
    }

    /// Writes the guard's state.
    pub fn checkpoint(&self, enc: &mut Encoder) {
        self.dark_ticks.encode(enc);
        self.reengage_left.encode(enc);
        self.held.encode(enc);
    }

    /// Overwrites the state with one written by
    /// [`checkpoint`](Self::checkpoint).
    ///
    /// # Errors
    ///
    /// Returns the decoder's error when the bytes are truncated or malformed.
    pub fn restore(&mut self, dec: &mut Decoder<'_>) -> Result<()> {
        self.dark_ticks = u32::decode(dec)?;
        self.reengage_left = u32::decode(dec)?;
        self.held = Option::<ResourceVec>::decode(dec)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn guard() -> DegradationGuard {
        DegradationGuard::default()
    }

    #[test]
    fn holds_last_output_while_dark() {
        let mut g = guard();
        let out = g.on_signal(ResourceVec::splat(100.0));
        assert_eq!(out, ResourceVec::splat(100.0));
        let floor = ResourceVec::splat(10.0);
        for _ in 0..WATCHDOG_TICKS {
            assert_eq!(g.on_dark(&floor), Some(ResourceVec::splat(100.0)));
        }
        assert!(!g.watchdog_tripped());
    }

    #[test]
    fn dark_without_history_yields_none() {
        let mut g = guard();
        assert_eq!(g.on_dark(&ResourceVec::splat(10.0)), None);
    }

    #[test]
    fn watchdog_decays_to_floor_and_stops() {
        let mut g = guard();
        g.on_signal(ResourceVec::splat(100.0));
        let floor = ResourceVec::splat(60.0);
        let mut last = ResourceVec::splat(100.0);
        for tick in 1..30 {
            let out = g.on_dark(&floor).unwrap();
            if tick <= WATCHDOG_TICKS {
                assert_eq!(out, ResourceVec::splat(100.0), "held before watchdog");
            } else {
                assert!(out.cpu() <= last.cpu(), "monotone decay");
                assert!(out.cpu() >= 60.0 - 1e-9, "never below the floor");
            }
            last = out;
        }
        assert_eq!(last, floor);
        assert!(g.watchdog_tripped());
    }

    #[test]
    fn reengagement_is_slew_limited() {
        let mut g = guard();
        g.on_signal(ResourceVec::splat(100.0));
        let floor = ResourceVec::splat(10.0);
        g.on_dark(&floor);
        g.on_dark(&floor);
        // Controller comes back proposing a wild jump; only ±25% per tick
        // is allowed for the first three fresh ticks.
        let first = g.on_signal(ResourceVec::splat(500.0));
        assert_eq!(first, ResourceVec::splat(125.0));
        let second = g.on_signal(ResourceVec::splat(500.0));
        assert_eq!(second, ResourceVec::splat(156.25));
        let third = g.on_signal(ResourceVec::splat(500.0));
        assert_eq!(third, ResourceVec::splat(195.312_5));
        // After the re-engagement window the proposal passes through.
        let fourth = g.on_signal(ResourceVec::splat(500.0));
        assert_eq!(fourth, ResourceVec::splat(500.0));
        // Downward jumps are limited too.
        g.on_dark(&floor);
        let down = g.on_signal(ResourceVec::splat(1.0));
        assert_eq!(down, ResourceVec::splat(375.0));
    }

    #[test]
    fn seed_recovery_clamps_the_very_first_signal() {
        let mut g = guard();
        g.seed_recovery(ResourceVec::splat(100.0));
        // Without the seed a fresh guard would pass this straight through.
        let first = g.on_signal(ResourceVec::splat(500.0));
        assert_eq!(first, ResourceVec::splat(125.0));
        g.seed_recovery(ResourceVec::splat(100.0));
        let low = g.on_signal(ResourceVec::splat(1.0));
        assert_eq!(low, ResourceVec::splat(75.0));
    }

    #[test]
    fn guard_codec_roundtrip() {
        let mut g = guard();
        g.on_signal(ResourceVec::splat(100.0));
        g.on_dark(&ResourceVec::splat(10.0));
        let mut enc = Encoder::new();
        g.checkpoint(&mut enc);
        let bytes = enc.into_bytes();
        let mut back = guard();
        back.restore(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn dark_counter_resets_on_signal() {
        let mut g = guard();
        g.on_signal(ResourceVec::splat(50.0));
        g.on_dark(&ResourceVec::ZERO);
        g.on_dark(&ResourceVec::ZERO);
        assert_eq!(g.dark_ticks(), 2);
        g.on_signal(ResourceVec::splat(50.0));
        assert_eq!(g.dark_ticks(), 0);
    }
}
