//! The control plane's skip-and-count counters, in one place.

use evolve_types::codec::{Codec, Decoder, Encoder};
use evolve_types::Result;

/// Everything the [`ResourceManager`](crate::ResourceManager) counts
/// instead of failing on, plus its overload accounting. The manager holds
/// one, a [`ControllerCheckpoint`](crate::ControllerCheckpoint) carries it
/// whole (so a restored controller resumes every count), and a run hands
/// it out as [`RunOutcome::control`](crate::RunOutcome::control).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ControlCounters {
    /// Failed in-place resizes (capacity contention).
    pub resize_failures: u64,
    /// Actuations skipped by the retry backoff: the target had just
    /// failed and had not changed.
    pub suppressed_actuations: u64,
    /// Actuations swallowed by an `ActuationDrop` fault. The controller
    /// believes they landed — the silent failure a real API-server outage
    /// produces.
    pub dropped_actuations: u64,
    /// Actuations deferred by an `ActuationDelay` fault.
    pub delayed_actuations: u64,
    /// Actuations an `ActuationPartial` fault applied to only a fraction
    /// of the replicas.
    pub partial_actuations: u64,
    /// Lookups of an application that simulation and control plane no
    /// longer agree on — each skipped instead of panicking.
    pub desynced_apps: u64,
    /// Actuations whose grant the arbiter clipped below the policy's
    /// request (zero without an arbiter).
    pub clipped_allocations: u64,
    /// Arbitration rounds that shed an app outright.
    pub shed_decisions: u64,
    /// Highest starvation age (consecutive arbitrations shed or below the
    /// grant floor) any app reached.
    pub starvation_watermark: u32,
    /// PLO violations recorded from windows in which the app was shedding
    /// load — kept apart so a deliberate brown-out is not mistaken for an
    /// uncontrolled one.
    pub violations_while_shedding: u64,
}

impl Codec for ControlCounters {
    fn encode(&self, enc: &mut Encoder) {
        self.resize_failures.encode(enc);
        self.suppressed_actuations.encode(enc);
        self.dropped_actuations.encode(enc);
        self.delayed_actuations.encode(enc);
        self.partial_actuations.encode(enc);
        self.desynced_apps.encode(enc);
        self.clipped_allocations.encode(enc);
        self.shed_decisions.encode(enc);
        self.starvation_watermark.encode(enc);
        self.violations_while_shedding.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(ControlCounters {
            resize_failures: u64::decode(dec)?,
            suppressed_actuations: u64::decode(dec)?,
            dropped_actuations: u64::decode(dec)?,
            delayed_actuations: u64::decode(dec)?,
            partial_actuations: u64::decode(dec)?,
            desynced_apps: u64::decode(dec)?,
            clipped_allocations: u64::decode(dec)?,
            shed_decisions: u64::decode(dec)?,
            starvation_watermark: u32::decode(dec)?,
            violations_while_shedding: u64::decode(dec)?,
        })
    }
}
