//! Controller checkpoints: the durable image of the control plane.
//!
//! EVOLVE's controller is stateful — PID integrals, derivative filters,
//! RLS model weights, PLO violation ledgers, retry backoffs. A controller
//! process crash destroys all of it, and a restarted controller that
//! starts from scratch re-learns on live traffic (naive reset, the worst
//! recovery). [`ControllerCheckpoint`] captures the complete mutable
//! state of the [`ResourceManager`](crate::ResourceManager) and the
//! scheduler's [`RequeueBackoff`] in one deterministic byte image so a
//! restart can resume mid-thought: same decisions, bit for bit, as if the
//! crash never happened.
//!
//! The image is encoded with the [`Codec`] fixed-layout binary format
//! (the vendored `serde` is an inert stub), led by a magic number, a
//! version byte and the [`ManagerKind`] that wrote it, so foreign, stale
//! or another kind's images are rejected with
//! [`Error::CorruptCheckpoint`] instead of being misinterpreted.

use evolve_control::ArbiterState;
use evolve_scheduler::RequeueBackoff;
use evolve_sim::AppWindow;
use evolve_types::codec::{Codec, Decoder, Encoder};
use evolve_types::{AppId, Error, Result, SimTime};

use crate::counters::ControlCounters;
use crate::policy::PolicyDecision;
use crate::ManagerKind;

/// Magic number leading every serialized checkpoint ("EVCK").
const CHECKPOINT_MAGIC: u32 = 0x4556_434b;
/// Format version; bump on any layout change.
///
/// Version history: 1 — initial layout; 2 — actuation-fault accounting
/// (drop/delay/partial counters and the delayed-actuation queue);
/// 3 — capacity-arbiter state (config + grant fractions + starvation
/// ages) and overload accounting (clip/shed counters, starvation
/// watermark, violations-while-shedding); 4 — every counter travels as
/// one [`ControlCounters`] block, which adds `desynced_apps` (version 3
/// dropped it, so a restore reset the count to zero); 5 — state only: the
/// EVOLVE controller and its tuners no longer write their configuration,
/// which the restoring manager rebuilds from its [`ManagerKind`]; 6 — the
/// header names the [`ManagerKind`] in place of a magic byte per policy,
/// each app is its policy's state and one [`AppMemory`], the PLO ledger
/// keeps no per-window history, and the PIDs and the degradation guard
/// write no configuration; 7 — the PLO ledger writes its counts only
/// (its target and bound come from the app's PLO, as at boot) and the
/// EVOLVE policy no longer counts its scaling actions; 8 — state only,
/// throughout: the PIDs no longer write kd or a slew anchor, the EVOLVE
/// policy's filter and window no longer write their alpha or capacity,
/// its predictor and sensitivity model no longer write their gains,
/// horizon, margin, dimension or forgetting factor, the VPA's peak
/// trackers no longer write their alpha, and the arbiter is its
/// [`ArbiterState`] alone (its tunables come from the run's
/// configuration).
const CHECKPOINT_VERSION: u8 = 8;

/// What the manager remembers about one application between ticks,
/// beside its policy and its PLO ledger: the bookkeeping around scrapes
/// and actuations. The manager runs on it and a checkpoint holds it as is.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct AppMemory {
    /// Last successfully scraped window — replayed (as `Stale`) while a
    /// blackout blocks scrapes.
    pub(crate) last_window: Option<AppWindow>,
    /// Control seconds accumulated while scrapes were dark; folded into
    /// the first post-blackout tick so rates are computed over the real
    /// elapsed time.
    pub(crate) pending_dt: f64,
    /// Consecutive actuations that reported resize failures.
    pub(crate) failure_streak: u32,
    /// Tick index before which an unchanged failing target is suppressed.
    pub(crate) backoff_until: u64,
    /// The decision last actuated (for the retry-backoff comparison).
    pub(crate) last_decision: Option<PolicyDecision>,
    /// Failed in-place resizes on the previous tick.
    pub(crate) last_resize_failures: u32,
}

impl Codec for AppMemory {
    fn encode(&self, enc: &mut Encoder) {
        self.last_window.encode(enc);
        self.pending_dt.encode(enc);
        self.failure_streak.encode(enc);
        self.backoff_until.encode(enc);
        self.last_decision.encode(enc);
        self.last_resize_failures.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        Ok(AppMemory {
            last_window: Option::<AppWindow>::decode(dec)?,
            pending_dt: f64::decode(dec)?,
            failure_streak: u32::decode(dec)?,
            backoff_until: u64::decode(dec)?,
            last_decision: Option::<PolicyDecision>::decode(dec)?,
            last_resize_failures: u32::decode(dec)?,
        })
    }
}

/// A complete, self-describing image of the control plane at one instant.
///
/// Built by [`ResourceManager::checkpoint`](crate::ResourceManager::checkpoint)
/// and consumed by
/// [`ResourceManager::restore`](crate::ResourceManager::restore); the
/// experiment runner captures one every live control tick while a
/// controller crash is armed.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerCheckpoint {
    /// The kind of manager whose state this is.
    pub(crate) kind: ManagerKind,
    /// Simulation time at which the image was captured.
    pub at: SimTime,
    /// Control ticks executed so far.
    pub(crate) ticks: u64,
    /// The manager's skip-and-count and overload counters.
    pub(crate) control: ControlCounters,
    /// Delayed actuations still waiting for their release time.
    pub(crate) pending_actuations: Vec<(SimTime, AppId, PolicyDecision)>,
    /// Per-application state — the bytes of the state restored onto what
    /// the manager builds at boot (the policy's, then the PLO ledger's
    /// counts) and the manager's memory — sorted by [`AppId`] so the byte
    /// image of a given control state is unique (the live map is a
    /// `HashMap`).
    pub(crate) apps: Vec<(AppId, Vec<u8>, AppMemory)>,
    /// The scheduler's requeue-backoff ledger.
    pub(crate) scheduler_backoff: RequeueBackoff,
    /// The capacity arbiter's persistent state, when one is installed.
    pub(crate) arbiter: Option<ArbiterState>,
    /// Distinct apps the arbiter has ever shed, sorted by id.
    pub(crate) shed_app_ids: Vec<AppId>,
}

impl ControllerCheckpoint {
    /// Serializes the checkpoint to its canonical byte image.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        CHECKPOINT_MAGIC.encode(&mut enc);
        CHECKPOINT_VERSION.encode(&mut enc);
        self.kind.encode(&mut enc);
        self.at.encode(&mut enc);
        self.ticks.encode(&mut enc);
        self.control.encode(&mut enc);
        self.pending_actuations.encode(&mut enc);
        self.apps.encode(&mut enc);
        self.scheduler_backoff.encode(&mut enc);
        self.arbiter.encode(&mut enc);
        self.shed_app_ids.encode(&mut enc);
        enc.into_bytes()
    }

    /// Deserializes a checkpoint from bytes produced by
    /// [`ControllerCheckpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::CorruptCheckpoint`] when the magic number or
    /// version does not match, the kind is unknown, the image is
    /// truncated, trailing bytes remain, or any field fails to decode.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut dec = Decoder::new(bytes);
        let magic = u32::decode(&mut dec)?;
        if magic != CHECKPOINT_MAGIC {
            return Err(Error::CorruptCheckpoint(format!(
                "bad magic {magic:#010x}, expected {CHECKPOINT_MAGIC:#010x}"
            )));
        }
        let version = u8::decode(&mut dec)?;
        if version != CHECKPOINT_VERSION {
            return Err(Error::CorruptCheckpoint(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let out = ControllerCheckpoint {
            kind: ManagerKind::decode(&mut dec)?,
            at: SimTime::decode(&mut dec)?,
            ticks: u64::decode(&mut dec)?,
            control: ControlCounters::decode(&mut dec)?,
            pending_actuations: Vec::<(SimTime, AppId, PolicyDecision)>::decode(&mut dec)?,
            apps: Vec::<(AppId, Vec<u8>, AppMemory)>::decode(&mut dec)?,
            scheduler_backoff: RequeueBackoff::decode(&mut dec)?,
            arbiter: Option::<ArbiterState>::decode(&mut dec)?,
            shed_app_ids: Vec::<AppId>::decode(&mut dec)?,
        };
        if !dec.is_empty() {
            return Err(Error::CorruptCheckpoint(format!(
                "{} trailing bytes after checkpoint",
                dec.remaining()
            )));
        }
        Ok(out)
    }

    /// Control ticks the captured manager had executed.
    #[must_use]
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Applications captured in the image.
    #[must_use]
    pub fn app_count(&self) -> usize {
        self.apps.len()
    }

    /// The captured scheduler requeue-backoff ledger.
    #[must_use]
    pub fn scheduler_backoff(&self) -> &RequeueBackoff {
        &self.scheduler_backoff
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_checkpoint_round_trips() {
        let ck = ControllerCheckpoint {
            kind: ManagerKind::Evolve,
            at: SimTime::from_secs(42),
            ticks: 7,
            control: ControlCounters {
                resize_failures: 1,
                suppressed_actuations: 2,
                dropped_actuations: 3,
                delayed_actuations: 4,
                partial_actuations: 5,
                desynced_apps: 6,
                ..ControlCounters::default()
            },
            pending_actuations: Vec::new(),
            apps: Vec::new(),
            scheduler_backoff: RequeueBackoff::new(),
            arbiter: None,
            shed_app_ids: Vec::new(),
        };
        let bytes = ck.to_bytes();
        let back = ControllerCheckpoint::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, ck);
        assert_eq!(back.ticks(), 7);
        assert_eq!(back.app_count(), 0);
    }

    #[test]
    fn arbitrated_checkpoint_round_trips() {
        use evolve_control::{arbitrate, ArbiterConfig, ArbiterRequest};
        use evolve_types::{PriorityClass, ResourceVec};
        // A crunch that clips app 3 and sheds app 7.
        let mut state = ArbiterState::default();
        let requests = [
            ArbiterRequest {
                app: AppId::new(3),
                class: PriorityClass::Critical,
                requested: ResourceVec::splat(800.0),
            },
            ArbiterRequest {
                app: AppId::new(7),
                class: PriorityClass::Preemptible,
                requested: ResourceVec::splat(400.0),
            },
        ];
        let capacity = ResourceVec::splat(600.0);
        arbitrate(&ArbiterConfig::default(), &mut state, &requests, capacity, ResourceVec::ZERO);
        assert!(state.in_crunch());
        let ck = ControllerCheckpoint {
            kind: ManagerKind::Evolve,
            at: SimTime::from_secs(90),
            ticks: 18,
            control: ControlCounters {
                clipped_allocations: 9,
                shed_decisions: 4,
                starvation_watermark: 11,
                violations_while_shedding: 2,
                ..ControlCounters::default()
            },
            pending_actuations: Vec::new(),
            apps: Vec::new(),
            scheduler_backoff: RequeueBackoff::new(),
            arbiter: Some(state),
            shed_app_ids: vec![AppId::new(3), AppId::new(7)],
        };
        let back = ControllerCheckpoint::from_bytes(&ck.to_bytes()).expect("round trip");
        assert_eq!(back, ck);
        assert_eq!(back.arbiter.as_ref().unwrap().starvation_age(AppId::new(7)), 1);
    }

    #[test]
    fn version_4_image_is_rejected() {
        let mut bytes = ControllerCheckpoint {
            kind: ManagerKind::Evolve,
            at: SimTime::ZERO,
            ticks: 0,
            control: ControlCounters::default(),
            pending_actuations: Vec::new(),
            apps: Vec::new(),
            scheduler_backoff: RequeueBackoff::new(),
            arbiter: None,
            shed_app_ids: Vec::new(),
        }
        .to_bytes();
        // The version byte follows the four magic bytes.
        for old in [4, 5, 6, 7] {
            bytes[4] = old;
            let err = ControllerCheckpoint::from_bytes(&bytes).unwrap_err();
            let version = format!("version {old}");
            assert!(matches!(&err, Error::CorruptCheckpoint(m) if m.contains(&version)), "{err}");
        }
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let ck = ControllerCheckpoint {
            kind: ManagerKind::Evolve,
            at: SimTime::ZERO,
            ticks: 0,
            control: ControlCounters::default(),
            pending_actuations: Vec::new(),
            apps: Vec::new(),
            scheduler_backoff: RequeueBackoff::new(),
            arbiter: None,
            shed_app_ids: Vec::new(),
        };
        let mut bytes = ck.to_bytes();
        bytes[0] ^= 0xff;
        let err = ControllerCheckpoint::from_bytes(&bytes).unwrap_err();
        assert!(matches!(err, Error::CorruptCheckpoint(_)), "{err}");
    }

    #[test]
    fn truncation_and_trailing_garbage_are_rejected() {
        let ck = ControllerCheckpoint {
            kind: ManagerKind::Evolve,
            at: SimTime::from_secs(1),
            ticks: 1,
            control: ControlCounters::default(),
            pending_actuations: Vec::new(),
            apps: Vec::new(),
            scheduler_backoff: RequeueBackoff::new(),
            arbiter: None,
            shed_app_ids: Vec::new(),
        };
        let bytes = ck.to_bytes();
        assert!(ControllerCheckpoint::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(ControllerCheckpoint::from_bytes(&longer).is_err());
        // The kind byte follows the version byte.
        let mut unknown_kind = bytes;
        unknown_kind[5] = 6;
        assert!(ControllerCheckpoint::from_bytes(&unknown_kind).is_err());
    }
}
