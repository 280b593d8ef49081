//! Cluster-level capacity arbitration under overload.
//!
//! Per-application PID controllers are deliberately greedy: each one asks
//! for whatever closes *its* PLO error, with no notion of what the cluster
//! can actually deliver. When the sum of those requests exceeds ready
//! schedulable capacity, granting them all just moves the fight into the
//! scheduler, where the outcome is arbitrary (whoever's pod binds first
//! wins) and thrashy. [`CapacityArbiter`] runs *after* all per-app control
//! steps and turns the aggregate into an explicit, priority-aware
//! admission decision:
//!
//! * **headroom reserve** — a configurable fraction of ready capacity is
//!   never handed out, so failover and scheduling churn have room to land;
//! * **strict priority classes** — demand is served class by class
//!   ([`PriorityClass::Critical`] first). A lower class is shed *entirely*
//!   before any higher-class app is clipped;
//! * **weighted-fair clipping** — inside the class that straddles the
//!   capacity edge, grants are scaled down proportionally to each app's
//!   request via per-dimension water-filling: only the dimensions the
//!   class oversubscribes are reduced (each to its own fair ratio), so
//!   one huge app cannot starve its peers and a CPU crunch does not
//!   confiscate anyone's memory;
//! * **hysteresis + slew** — the crunch flag switches on the raw
//!   demand-vs-capacity comparison but only clears once demand drops a
//!   configurable margin *below* capacity, and a previously clipped app's
//!   grant fraction recovers at a bounded per-tick rate. Together these
//!   stop the arbiter from flapping between "crunch" and "fine" on noisy
//!   demand;
//! * **starvation accounting** — every app carries an age counter that
//!   grows while it is shed or held below its floor
//!   (`floor_fraction × requested`) and resets on a healthy grant, so
//!   prolonged starvation is observable and testable.
//!
//! The core is the pure function [`arbitrate`]; [`CapacityArbiter`] wraps
//! it with owned config + state so callers have a single handle. A
//! checkpoint holds the [`ArbiterState`] only: the tunables come from the
//! run's configuration.

use std::collections::BTreeMap;

use evolve_types::codec::{Codec, Decoder, Encoder};
pub use evolve_types::ArbiterConfig;
use evolve_types::{AppId, PriorityClass, Resource, ResourceVec, Result};

/// One application's demand as seen by the arbiter: the *total* allocation
/// its controller wants this tick (per-replica request × replica count).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArbiterRequest {
    /// The requesting application.
    pub app: AppId,
    /// Its overload priority class.
    pub class: PriorityClass,
    /// Total allocation requested across all replicas.
    pub requested: ResourceVec,
}

/// Why a grant came back smaller than the request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClipReason {
    /// The app's class straddles the capacity edge; the grant was scaled
    /// down weighted-fair within the class.
    Oversubscribed,
    /// The request would have been granted, but the app is still ramping
    /// back from an earlier clip and its grant fraction is slew-limited.
    SlewLimited,
}

impl ClipReason {
    /// Short lowercase label used in traces and reports.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            ClipReason::Oversubscribed => "oversubscribed",
            ClipReason::SlewLimited => "slew-limited",
        }
    }
}

/// What the arbiter decided for one app.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GrantDecision {
    /// The full request was granted.
    Full,
    /// The grant was reduced below the request for the stated reason.
    Clipped(ClipReason),
    /// The app receives nothing this tick; its offered load should be shed
    /// at admission rather than queued.
    Shed,
}

impl GrantDecision {
    /// Short lowercase label used in traces and reports.
    #[must_use]
    pub const fn as_str(self) -> &'static str {
        match self {
            GrantDecision::Full => "full",
            GrantDecision::Clipped(reason) => reason.as_str(),
            GrantDecision::Shed => "shed",
        }
    }
}

/// The arbiter's verdict for one application on one control tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArbitrationOutcome {
    /// The application.
    pub app: AppId,
    /// Its overload priority class.
    pub class: PriorityClass,
    /// What the controller asked for (total across replicas).
    pub requested: ResourceVec,
    /// What the arbiter granted.
    pub granted: ResourceVec,
    /// Full grant, clip, or shed.
    pub decision: GrantDecision,
    /// Scalar summary of the grant in `[0, 1]`: the most conservative
    /// per-dimension ratio among the dimensions the app requested (the
    /// grant itself is per-dimension — see `granted`).
    pub grant_fraction: f64,
    /// Consecutive arbitrations this app has spent shed or below its
    /// starvation floor (zero when healthy).
    pub starvation_age: u32,
}

impl ArbitrationOutcome {
    /// `true` when the app was shed outright.
    #[must_use]
    pub fn is_shed(&self) -> bool {
        matches!(self.decision, GrantDecision::Shed)
    }

    /// `true` when the grant is smaller than the request (clipped or shed).
    #[must_use]
    pub fn is_reduced(&self) -> bool {
        !matches!(self.decision, GrantDecision::Full)
    }
}

/// Persistent arbiter memory: per-app grant fractions (for slew),
/// starvation ages, and the crunch hysteresis flag.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ArbiterState {
    grant_fraction: BTreeMap<AppId, f64>,
    starvation_age: BTreeMap<AppId, u32>,
    in_crunch: bool,
}

impl ArbiterState {
    /// `true` while the cluster is in a capacity crunch (set when demand
    /// exceeds usable capacity, cleared with hysteresis).
    #[must_use]
    pub fn in_crunch(&self) -> bool {
        self.in_crunch
    }

    /// Last recorded grant fraction for `app`, if it has arbitration
    /// history.
    #[must_use]
    pub fn grant_fraction(&self, app: AppId) -> Option<f64> {
        self.grant_fraction.get(&app).copied()
    }

    /// Current starvation age for `app` (zero when unknown or healthy).
    #[must_use]
    pub fn starvation_age(&self, app: AppId) -> u32 {
        self.starvation_age.get(&app).copied().unwrap_or(0)
    }

    /// Largest starvation age across all tracked apps.
    #[must_use]
    pub fn max_starvation_age(&self) -> u32 {
        self.starvation_age.values().copied().max().unwrap_or(0)
    }
}

impl Codec for ArbiterState {
    fn encode(&self, enc: &mut Encoder) {
        let fractions: Vec<(AppId, f64)> =
            self.grant_fraction.iter().map(|(k, v)| (*k, *v)).collect();
        let ages: Vec<(AppId, u32)> = self.starvation_age.iter().map(|(k, v)| (*k, *v)).collect();
        fractions.encode(enc);
        ages.encode(enc);
        self.in_crunch.encode(enc);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let fractions = Vec::<(AppId, f64)>::decode(dec)?;
        let ages = Vec::<(AppId, u32)>::decode(dec)?;
        let in_crunch = bool::decode(dec)?;
        Ok(ArbiterState {
            grant_fraction: fractions.into_iter().collect(),
            starvation_age: ages.into_iter().collect(),
            in_crunch,
        })
    }
}

/// What the class pass settled on for one app, before slew: a
/// per-dimension grant ratio (so a clip on the scarce dimension does not
/// also shrink dimensions the class has plenty of) plus the scalar
/// fraction — the most conservative used-dimension ratio — that feeds
/// slew, state, and reporting.
#[derive(Clone, Copy)]
struct DesiredGrant {
    ratio: [f64; evolve_types::NUM_RESOURCES],
    fraction: f64,
    decision: GrantDecision,
}

impl DesiredGrant {
    fn uniform(fraction: f64, decision: GrantDecision) -> Self {
        DesiredGrant { ratio: [fraction; evolve_types::NUM_RESOURCES], fraction, decision }
    }
}

/// Runs one arbitration round: compares aggregate demand against usable
/// capacity and produces a grant for every request, in input order.
///
/// `ready_capacity` is the schedulable capacity of ready nodes; `held` is
/// the total allocation of apps that are *not* participating this round
/// (e.g. blacked-out controllers replaying held outputs) and is subtracted
/// from the usable pool before arbitration.
///
/// Invariants (see the crate's property tests):
///
/// * grants never exceed requests, per dimension;
/// * the per-dimension sum of all grants never exceeds usable capacity;
/// * when an app is clipped for capacity, every app of a strictly lower
///   class is shed.
pub fn arbitrate(
    config: &ArbiterConfig,
    state: &mut ArbiterState,
    requests: &[ArbiterRequest],
    ready_capacity: ResourceVec,
    held: ResourceVec,
) -> Vec<ArbitrationOutcome> {
    let usable = (ready_capacity * (1.0 - config.headroom_fraction.clamp(0.0, 1.0))) - held;
    let demand: ResourceVec = requests.iter().map(|r| r.requested).sum();

    // Crunch flag with hysteresis: enter on the raw comparison, leave only
    // once demand is a full margin below usable.
    if state.in_crunch {
        let exit_at = usable * (1.0 - config.hysteresis.clamp(0.0, 1.0));
        if demand.fits_within(&exit_at) {
            state.in_crunch = false;
        }
    } else if !demand.fits_within(&usable) {
        state.in_crunch = true;
    }

    // Class pass: serve Critical → Standard → Preemptible out of the
    // remaining pool. The first class that does not fit is clipped
    // weighted-fair and everything below it is shed.
    let mut desired: BTreeMap<AppId, DesiredGrant> = BTreeMap::new();
    if state.in_crunch {
        let mut remaining = usable;
        let mut exhausted = false;
        for class in PriorityClass::DESCENDING {
            let members: Vec<&ArbiterRequest> =
                requests.iter().filter(|r| r.class == class).collect();
            if members.is_empty() {
                continue;
            }
            if exhausted {
                for m in &members {
                    desired.insert(m.app, DesiredGrant::uniform(0.0, GrantDecision::Shed));
                }
                continue;
            }
            let class_demand: ResourceVec = members.iter().map(|r| r.requested).sum();
            if class_demand.fits_within(&remaining) {
                for m in &members {
                    desired.insert(m.app, DesiredGrant::uniform(1.0, GrantDecision::Full));
                }
                remaining -= class_demand;
            } else {
                // Water-fill per dimension: only dimensions the class
                // actually oversubscribes are scaled down, each to its own
                // fair ratio. The scalar fraction reported for the app is
                // the most conservative ratio among the dimensions it uses.
                let mut ratio = [1.0_f64; evolve_types::NUM_RESOURCES];
                for r in Resource::ALL {
                    if class_demand[r] > remaining[r] {
                        ratio[r.index()] = if class_demand[r] > 0.0 {
                            remaining[r] / class_demand[r]
                        } else {
                            0.0
                        };
                    }
                }
                for m in &members {
                    let mut gamma = 1.0_f64;
                    for r in Resource::ALL {
                        if m.requested[r] > 0.0 {
                            gamma = gamma.min(ratio[r.index()]);
                        }
                    }
                    desired.insert(
                        m.app,
                        DesiredGrant {
                            ratio,
                            fraction: gamma,
                            decision: GrantDecision::Clipped(ClipReason::Oversubscribed),
                        },
                    );
                }
                exhausted = true;
            }
        }
    }

    // Slew + bookkeeping pass, in input order.
    let mut outcomes = Vec::with_capacity(requests.len());
    let mut next_fraction: BTreeMap<AppId, f64> = BTreeMap::new();
    let mut next_age: BTreeMap<AppId, u32> = BTreeMap::new();
    for req in requests {
        let want = desired
            .get(&req.app)
            .copied()
            .unwrap_or_else(|| DesiredGrant::uniform(1.0, GrantDecision::Full));
        let prev = state.grant_fraction.get(&req.app).copied().unwrap_or(1.0);
        let ceiling = prev + config.max_recovery_step.max(0.0);
        let (fraction, decision, granted) = if want.fraction > ceiling {
            let f = ceiling.min(1.0);
            (f, GrantDecision::Clipped(ClipReason::SlewLimited), req.requested * f)
        } else if matches!(want.decision, GrantDecision::Shed) {
            (0.0, GrantDecision::Shed, ResourceVec::ZERO)
        } else {
            // Per-dimension grant: each dimension keeps its own water-fill
            // ratio, so a clip on the scarce dimension does not also take
            // away dimensions the class has plenty of.
            let mut granted = req.requested;
            for r in Resource::ALL {
                granted[r] *= want.ratio[r.index()];
            }
            (want.fraction, want.decision, granted)
        };
        let shed = matches!(decision, GrantDecision::Shed);

        let floor = req.requested * config.floor_fraction.clamp(0.0, 1.0);
        let starving = shed || !floor.fits_within(&granted);
        let age = if starving {
            state.starvation_age.get(&req.app).copied().unwrap_or(0).saturating_add(1)
        } else {
            0
        };

        next_fraction.insert(req.app, fraction);
        next_age.insert(req.app, age);
        outcomes.push(ArbitrationOutcome {
            app: req.app,
            class: req.class,
            requested: req.requested,
            granted,
            decision,
            grant_fraction: fraction,
            starvation_age: age,
        });
    }

    // Prune departed apps so state (and checkpoints) track the live set.
    state.grant_fraction = next_fraction;
    state.starvation_age = next_age;
    outcomes
}

/// Owned config + state around [`arbitrate`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CapacityArbiter {
    config: ArbiterConfig,
    state: ArbiterState,
}

impl CapacityArbiter {
    /// Creates an arbiter with the given tunables and fresh state.
    #[must_use]
    pub fn new(config: ArbiterConfig) -> Self {
        CapacityArbiter { config, state: ArbiterState::default() }
    }

    /// Replaces the state with a checkpointed one; the tunables stay
    /// those this arbiter was built with.
    pub fn restore(&mut self, state: ArbiterState) {
        self.state = state;
    }

    /// The tunables.
    #[must_use]
    pub fn config(&self) -> &ArbiterConfig {
        &self.config
    }

    /// The persistent state (for checkpointing and inspection).
    #[must_use]
    pub fn state(&self) -> &ArbiterState {
        &self.state
    }

    /// Runs one arbitration round; see [`arbitrate`].
    pub fn arbitrate(
        &mut self,
        requests: &[ArbiterRequest],
        ready_capacity: ResourceVec,
        held: ResourceVec,
    ) -> Vec<ArbitrationOutcome> {
        arbitrate(&self.config, &mut self.state, requests, ready_capacity, held)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u32, class: PriorityClass, cpu: f64) -> ArbiterRequest {
        ArbiterRequest {
            app: AppId::new(id),
            class,
            requested: ResourceVec::new(cpu, cpu, 0.0, 0.0),
        }
    }

    fn cfg() -> ArbiterConfig {
        // No headroom/slew so the raw class logic is visible.
        ArbiterConfig {
            headroom_fraction: 0.0,
            max_recovery_step: 1.0,
            hysteresis: 0.1,
            ..ArbiterConfig::default()
        }
    }

    fn capacity(cpu: f64) -> ResourceVec {
        ResourceVec::new(cpu, cpu, 0.0, 0.0)
    }

    #[test]
    fn under_capacity_everyone_is_granted_in_full() {
        let mut st = ArbiterState::default();
        let reqs =
            [req(0, PriorityClass::Critical, 100.0), req(1, PriorityClass::Preemptible, 100.0)];
        let out = arbitrate(&cfg(), &mut st, &reqs, capacity(1_000.0), ResourceVec::ZERO);
        assert!(out.iter().all(|o| o.decision == GrantDecision::Full));
        assert!(out.iter().all(|o| o.granted == o.requested));
        assert!(!st.in_crunch());
    }

    #[test]
    fn lower_classes_shed_before_higher_are_clipped() {
        let mut st = ArbiterState::default();
        let reqs = [
            req(0, PriorityClass::Critical, 300.0),
            req(1, PriorityClass::Standard, 300.0),
            req(2, PriorityClass::Preemptible, 300.0),
        ];
        // Room for Critical in full and half of Standard; Preemptible must go.
        let out = arbitrate(&cfg(), &mut st, &reqs, capacity(450.0), ResourceVec::ZERO);
        assert!(st.in_crunch());
        assert_eq!(out[0].decision, GrantDecision::Full);
        assert_eq!(out[1].decision, GrantDecision::Clipped(ClipReason::Oversubscribed));
        assert!((out[1].grant_fraction - 0.5).abs() < 1e-12);
        assert_eq!(out[2].decision, GrantDecision::Shed);
        assert_eq!(out[2].granted, ResourceVec::ZERO);
    }

    #[test]
    fn within_class_clipping_is_proportional() {
        let mut st = ArbiterState::default();
        let reqs = [req(0, PriorityClass::Standard, 300.0), req(1, PriorityClass::Standard, 100.0)];
        let out = arbitrate(&cfg(), &mut st, &reqs, capacity(200.0), ResourceVec::ZERO);
        // Both scaled by 200/400 = 0.5.
        assert!((out[0].grant_fraction - 0.5).abs() < 1e-12);
        assert!((out[1].grant_fraction - 0.5).abs() < 1e-12);
        let total: ResourceVec = out.iter().map(|o| o.granted).sum();
        assert!(total.fits_within(&capacity(200.0)));
    }

    #[test]
    fn headroom_is_never_handed_out() {
        let mut st = ArbiterState::default();
        let config = ArbiterConfig { headroom_fraction: 0.2, ..cfg() };
        let reqs = [req(0, PriorityClass::Critical, 1_000.0)];
        let out = arbitrate(&config, &mut st, &reqs, capacity(1_000.0), ResourceVec::ZERO);
        assert!((out[0].grant_fraction - 0.8).abs() < 1e-12);
    }

    #[test]
    fn held_allocations_shrink_the_pool() {
        let mut st = ArbiterState::default();
        let reqs = [req(0, PriorityClass::Critical, 500.0)];
        let out = arbitrate(&cfg(), &mut st, &reqs, capacity(600.0), capacity(400.0));
        // usable = 600 - 400 = 200 → fraction 0.4.
        assert!((out[0].grant_fraction - 0.4).abs() < 1e-12);
    }

    #[test]
    fn crunch_flag_has_hysteresis() {
        let config = cfg();
        let mut st = ArbiterState::default();
        let cap = capacity(1_000.0);
        // Enter crunch.
        arbitrate(
            &config,
            &mut st,
            &[req(0, PriorityClass::Standard, 1_200.0)],
            cap,
            ResourceVec::ZERO,
        );
        assert!(st.in_crunch());
        // Demand back under capacity but inside the hysteresis band: still
        // in crunch.
        arbitrate(
            &config,
            &mut st,
            &[req(0, PriorityClass::Standard, 950.0)],
            cap,
            ResourceVec::ZERO,
        );
        assert!(st.in_crunch());
        // Below the exit threshold (1000 × 0.9 = 900): crunch clears.
        arbitrate(
            &config,
            &mut st,
            &[req(0, PriorityClass::Standard, 850.0)],
            cap,
            ResourceVec::ZERO,
        );
        assert!(!st.in_crunch());
    }

    #[test]
    fn recovery_is_slew_limited_but_cuts_are_immediate() {
        let config = ArbiterConfig { max_recovery_step: 0.25, ..cfg() };
        let mut st = ArbiterState::default();
        let cap = capacity(1_000.0);
        let over = [req(0, PriorityClass::Standard, 2_000.0)];
        let out = arbitrate(&config, &mut st, &over, cap, ResourceVec::ZERO);
        // The cut to 0.5 is applied at once.
        assert!((out[0].grant_fraction - 0.5).abs() < 1e-12);
        // Demand falls far below capacity → full grant is *desired*, but
        // the fraction may only recover by 0.25 per tick.
        let under = [req(0, PriorityClass::Standard, 100.0)];
        let out = arbitrate(&config, &mut st, &under, cap, ResourceVec::ZERO);
        assert_eq!(out[0].decision, GrantDecision::Clipped(ClipReason::SlewLimited));
        assert!((out[0].grant_fraction - 0.75).abs() < 1e-12);
        let out = arbitrate(&config, &mut st, &under, cap, ResourceVec::ZERO);
        assert_eq!(out[0].decision, GrantDecision::Full);
        assert!((out[0].grant_fraction - 1.0).abs() < 1e-12);
    }

    #[test]
    fn starvation_ages_grow_and_reset() {
        let config = cfg();
        let mut st = ArbiterState::default();
        let cap = capacity(300.0);
        let reqs =
            [req(0, PriorityClass::Critical, 300.0), req(1, PriorityClass::Preemptible, 300.0)];
        for round in 1..=3 {
            let out = arbitrate(&config, &mut st, &reqs, cap, ResourceVec::ZERO);
            assert_eq!(out[0].starvation_age, 0, "critical app is healthy");
            assert_eq!(out[1].starvation_age, round, "shed app ages");
        }
        assert_eq!(st.max_starvation_age(), 3);
        // Capacity returns; the shed app ramps back and its age clears once
        // the grant passes the floor.
        let big = capacity(10_000.0);
        let mut ages = Vec::new();
        for _ in 0..6 {
            let out = arbitrate(&config, &mut st, &reqs, big, ResourceVec::ZERO);
            ages.push(out[1].starvation_age);
        }
        assert_eq!(*ages.last().unwrap(), 0);
    }

    #[test]
    fn departed_apps_are_pruned_from_state() {
        let config = cfg();
        let mut st = ArbiterState::default();
        let cap = capacity(100.0);
        arbitrate(
            &config,
            &mut st,
            &[req(7, PriorityClass::Standard, 500.0)],
            cap,
            ResourceVec::ZERO,
        );
        assert!(st.grant_fraction(AppId::new(7)).is_some());
        arbitrate(
            &config,
            &mut st,
            &[req(8, PriorityClass::Standard, 50.0)],
            cap,
            ResourceVec::ZERO,
        );
        assert!(st.grant_fraction(AppId::new(7)).is_none());
        assert!(st.grant_fraction(AppId::new(8)).is_some());
    }

    #[test]
    fn grants_conserve_capacity_per_dimension() {
        let mut st = ArbiterState::default();
        let reqs = [
            ArbiterRequest {
                app: AppId::new(0),
                class: PriorityClass::Standard,
                requested: ResourceVec::new(800.0, 100.0, 10.0, 0.0),
            },
            ArbiterRequest {
                app: AppId::new(1),
                class: PriorityClass::Standard,
                requested: ResourceVec::new(100.0, 900.0, 0.0, 20.0),
            },
        ];
        let cap = ResourceVec::new(500.0, 500.0, 500.0, 500.0);
        let out = arbitrate(&cfg(), &mut st, &reqs, cap, ResourceVec::ZERO);
        let total: ResourceVec = out.iter().map(|o| o.granted).sum();
        assert!(total.fits_within(&cap));
        for o in &out {
            assert!(o.granted.fits_within(&o.requested));
        }
    }

    #[test]
    fn state_codec_roundtrip() {
        let config = cfg();
        let mut st = ArbiterState::default();
        let reqs =
            [req(0, PriorityClass::Critical, 400.0), req(1, PriorityClass::Preemptible, 400.0)];
        arbitrate(&config, &mut st, &reqs, capacity(300.0), ResourceVec::ZERO);
        let mut enc = Encoder::new();
        st.encode(&mut enc);
        let bytes = enc.into_bytes();
        let back = ArbiterState::decode(&mut Decoder::new(&bytes)).unwrap();
        assert_eq!(st, back);
        let mut arb = CapacityArbiter::new(config);
        arb.restore(back);
        assert_eq!(arb.state(), &st);
        assert_eq!(arb.config(), &config);
    }

    #[test]
    fn decision_labels_are_stable() {
        assert_eq!(GrantDecision::Full.as_str(), "full");
        assert_eq!(GrantDecision::Clipped(ClipReason::Oversubscribed).as_str(), "oversubscribed");
        assert_eq!(GrantDecision::Clipped(ClipReason::SlewLimited).as_str(), "slew-limited");
        assert_eq!(GrantDecision::Shed.as_str(), "shed");
    }
}
