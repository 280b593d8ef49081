//! Reference-model test of the one-pass processor-sharing drain.
//!
//! [`three_pass`] is the `ReplicaServer` as it stood before the in-flight
//! set was split hot/cold: one `Vec<InFlight>` walked three times per
//! event (drain, removal from index 0, a next-event scan that divides
//! for every request). Its arithmetic is kept verbatim; only the serde
//! derives, the doc comments and the allocating wrappers are gone. Random
//! operation sequences drive it and the real server side by side, and
//! after every step the two must agree on what left (ids, latencies,
//! order), on the next event, and bit for bit on the working set and the
//! consumed work.

use evolve_sim::{DrainOutcome, PerfConfig, ReplicaServer};
use evolve_types::{Resource, ResourceVec, SimDuration, SimTime};
use proptest::prelude::*;

#[allow(clippy::all, clippy::pedantic)]
mod three_pass {
    use evolve_sim::PerfConfig;
    use evolve_types::{Resource, ResourceVec, SimDuration, SimTime};

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct InFlight {
        id: u64,
        arrived: SimTime,
        deadline: SimTime,
        /// Remaining drainable work (cpu mcore·s, disk MB, net MB); the
        /// memory component is unused here.
        remaining: ResourceVec,
        working_set: f64,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Completion {
        pub id: u64,
        pub latency: SimDuration,
    }

    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct DrainOutcome {
        pub completed: Vec<Completion>,
        pub timed_out: Vec<u64>,
        pub oom_killed: bool,
    }

    #[derive(Debug, Clone)]
    pub struct ReplicaServer {
        alloc: ResourceVec,
        base_memory: f64,
        config: PerfConfig,
        inflight: Vec<InFlight>,
        clock: SimTime,
        consumed: ResourceVec,
        dead: bool,
        cache: Option<NextCache>,
        ws: std::cell::Cell<Option<f64>>,
    }

    #[derive(Debug, Clone, Copy)]
    struct NextCache {
        event: Option<SimTime>,
        rates: ResourceVec,
    }

    impl ReplicaServer {
        pub fn new(alloc: ResourceVec, base_memory: f64, config: PerfConfig, now: SimTime) -> Self {
            assert!(alloc.is_valid(), "allocation must be valid");
            assert!(base_memory >= 0.0, "base memory must be non-negative");
            ReplicaServer {
                alloc,
                base_memory,
                config,
                inflight: Vec::new(),
                clock: now,
                consumed: ResourceVec::ZERO,
                dead: false,
                cache: None,
                ws: std::cell::Cell::new(None),
            }
        }

        pub fn inflight_len(&self) -> usize {
            self.inflight.len()
        }

        pub fn working_set(&self) -> f64 {
            if let Some(ws) = self.ws.get() {
                return ws;
            }
            let ws = self.base_memory + self.inflight.iter().map(|r| r.working_set).sum::<f64>();
            self.ws.set(Some(ws));
            ws
        }

        pub fn is_dead(&self) -> bool {
            self.dead
        }

        pub fn clock(&self) -> SimTime {
            self.clock
        }

        pub fn take_consumed(&mut self) -> ResourceVec {
            let mut out = self.consumed;
            out[Resource::Memory] = self.working_set();
            self.consumed = ResourceVec::ZERO;
            out
        }

        pub fn set_alloc(&mut self, alloc: ResourceVec) {
            self.alloc = alloc.sanitized();
            self.cache = None;
        }

        pub fn thrash_factor(&self) -> f64 {
            let mem = self.alloc[Resource::Memory];
            if mem <= 0.0 {
                return 1.0 + self.config.thrash_coeff;
            }
            let over = self.working_set() / mem;
            // Plain compare instead of `f64::max`: the operands are never
            // NaN, so the value is identical without the NaN-propagation
            // sequence `max` compiles to.
            let excess = over - 1.0;
            1.0 + self.config.thrash_coeff * if excess > 0.0 { excess } else { 0.0 }
        }

        fn over_oom(&self) -> bool {
            let mem = self.alloc[Resource::Memory];
            mem > 0.0 && self.working_set() > self.config.oom_threshold * mem
        }

        pub fn admit_arrived_into(
            &mut self,
            id: u64,
            at: SimTime,
            arrived: SimTime,
            deadline: SimTime,
            demand: ResourceVec,
            out: &mut DrainOutcome,
        ) -> bool {
            assert!(!self.dead, "admitting work to a dead replica");
            assert!(at >= self.clock, "admission in the past");
            // Bring the replica forward first so existing work is accounted
            // under the old concurrency level.
            let before = (out.completed.len(), out.timed_out.len());
            if at > self.clock {
                self.advance_into(at, out);
            }
            let mut remaining = demand;
            remaining[Resource::Memory] = 0.0;
            self.cache = None;
            // Appending extends the memoized left-fold sum by exactly one
            // trailing add — the same float sequence a recompute would run —
            // so the cache updates incrementally instead of invalidating.
            let ws_next = self.ws.get().map(|w| w + demand[Resource::Memory]);
            self.inflight.push(InFlight {
                id,
                arrived: arrived.min(at),
                deadline,
                remaining,
                working_set: demand[Resource::Memory],
            });
            self.ws.set(ws_next);
            if self.over_oom() {
                self.kill_into(out);
                return true;
            }
            out.completed.len() != before.0 || out.timed_out.len() != before.1 || out.oom_killed
        }

        pub fn kill_into(&mut self, out: &mut DrainOutcome) {
            self.dead = true;
            self.cache = None;
            self.ws.set(None);
            out.timed_out.extend(self.inflight.drain(..).map(|r| r.id));
            out.oom_killed = true;
        }

        pub fn next_event(&mut self) -> Option<SimTime> {
            self.fill_cache().event
        }

        fn fill_cache(&mut self) -> NextCache {
            if let Some(c) = self.cache {
                return c;
            }
            let c = self.compute_next();
            self.cache = Some(c);
            c
        }

        fn compute_next(&self) -> NextCache {
            if self.dead || self.inflight.is_empty() {
                return NextCache { event: None, rates: ResourceVec::ZERO };
            }
            let n = self.inflight.len() as f64;
            let rates = self.effective_rates(n);
            const DIMS: [Resource; 3] = [Resource::Cpu, Resource::DiskIo, Resource::NetIo];
            if DIMS.iter().any(|&r| rates[r] <= 1e-12) {
                // A starved dimension: take the careful per-request path.
                let mut best: Option<SimTime> = None;
                for req in &self.inflight {
                    let finish = self.finish_estimate(req, &rates);
                    let event = finish.min(req.deadline);
                    best = Some(match best {
                        None => event,
                        Some(b) => b.min(event),
                    });
                }
                return NextCache { event: best, rates };
            }
            // Fast path (every rate positive, the overwhelming case): reduce
            // the raw per-request drain estimates in seconds and convert to a
            // timestamp once. `ceil` to the microsecond grid, the clock
            // offset, and the deadline min are all monotone, so they commute
            // with the min-reduction — the event is bit-identical to the
            // per-request form, with one rounding per scan instead of one per
            // request and no branches inside the loop.
            let mut best_secs = f64::INFINITY;
            let mut best_deadline = SimTime::MAX;
            for req in &self.inflight {
                let mut secs: f64 = 0.0;
                for r in DIMS {
                    let rem = req.remaining[r];
                    let q = if rem > 1e-12 { rem / rates[r] } else { 0.0 };
                    // Never NaN, so a compare is bit-identical to `max`/`min`
                    // without their NaN-handling instruction sequences.
                    if q > secs {
                        secs = q;
                    }
                }
                if secs < best_secs {
                    best_secs = secs;
                }
                best_deadline = best_deadline.min(req.deadline);
            }
            let finish = self.clock + SimDuration::from_secs_f64_ceil(best_secs);
            NextCache { event: Some(finish.min(best_deadline)), rates }
        }

        pub fn effective_rates(&self, n: f64) -> ResourceVec {
            let thrash = self.thrash_factor();
            let mut rates = self.alloc * (1.0 / n.max(1.0));
            rates[Resource::Cpu] /= thrash;
            rates[Resource::Memory] = 0.0;
            rates
        }

        fn finish_estimate(&self, req: &InFlight, rates: &ResourceVec) -> SimTime {
            let mut secs: f64 = 0.0;
            for r in [Resource::Cpu, Resource::DiskIo, Resource::NetIo] {
                let rem = req.remaining[r];
                if rem > 1e-12 {
                    let rate = rates[r];
                    if rate <= 1e-12 {
                        return SimTime::MAX; // starved: only the deadline frees it
                    }
                    secs = secs.max(rem / rate);
                }
            }
            // Round up to the next microsecond so the drain loop always makes
            // forward progress (a nearest-rounded sub-microsecond estimate
            // would pin the boundary at the current clock).
            self.clock + SimDuration::from_secs_f64_ceil(secs)
        }

        pub fn advance_into(&mut self, to: SimTime, outcome: &mut DrainOutcome) {
            assert!(to >= self.clock, "advance into the past");
            if self.inflight.is_empty() || self.dead {
                // Quiescent replica: O(1) clock move, nothing to drain. The
                // cached next-event (`None`) stays valid — it does not depend
                // on the clock while the in-flight set is empty.
                if self.clock < to {
                    self.clock = to;
                }
                return;
            }
            // Process piecewise: each sub-interval ends at the earliest
            // completion/timeout or at `to`.
            let mut guard = 0usize;
            while self.clock < to && !self.inflight.is_empty() && !self.dead {
                guard += 1;
                assert!(guard < 1_000_000, "drain loop did not converge");
                let NextCache { event, rates } = self.fill_cache();
                let boundary = event.map_or(to, |e| e.min(to));
                let dt = boundary.saturating_since(self.clock).as_secs_f64();
                if dt > 0.0 {
                    // Hoist the per-interval work quantum (same operands, so
                    // bit-identical) and accumulate into a register-resident
                    // copy of `consumed` — the adds happen in the exact same
                    // order, just without round-tripping through memory.
                    let mut consumed = self.consumed;
                    for req in &mut self.inflight {
                        for r in [Resource::Cpu, Resource::DiskIo, Resource::NetIo] {
                            let step = rates[r] * dt;
                            let rem = req.remaining[r];
                            let drained = if step < rem { step } else { rem };
                            req.remaining[r] -= drained;
                            consumed[r] += drained;
                        }
                    }
                    self.consumed = consumed;
                }
                self.clock = boundary;
                // The drain mutated remaining work and the clock; estimates
                // must be recomputed next iteration.
                self.cache = None;
                // Remove finished and timed-out requests at the boundary.
                let clock = self.clock;
                let mut i = 0;
                while i < self.inflight.len() {
                    let req = &self.inflight[i];
                    // Short-circuit per-dimension check: equivalent to
                    // `max_component() <= 1e-9` for the never-NaN remaining
                    // vector, and usually settled by the first compare.
                    let rem = &req.remaining;
                    let done = rem[Resource::Cpu] <= 1e-9
                        && rem[Resource::DiskIo] <= 1e-9
                        && rem[Resource::NetIo] <= 1e-9
                        && rem[Resource::Memory] <= 1e-9;
                    if done {
                        outcome.completed.push(Completion {
                            id: req.id,
                            latency: clock.saturating_since(req.arrived),
                        });
                        self.inflight.swap_remove(i);
                        self.ws.set(None);
                    } else if clock >= req.deadline {
                        outcome.timed_out.push(req.id);
                        self.inflight.swap_remove(i);
                        self.ws.set(None);
                    } else {
                        i += 1;
                    }
                }
            }
            if self.clock < to {
                self.clock = to;
            }
        }
    }
}

/// Demand palettes: repeated entries make exact ties common, zeros leave
/// dimensions without demand, `1e-10` and `3e-12` sit between the scan's
/// `1e-12` cut-off and the removal's `1e-9` one, `7e-13` under both.
const CPU: [f64; 9] = [0.0, 40.0, 40.0, 80.0, 120.0, 400.0, 13.7, 1e-10, 3e-12];
const IO: [f64; 7] = [0.0, 0.0, 0.5, 0.5, 2.0, 7.3, 7e-13];
const WORKING_SET: [f64; 4] = [0.0, 1.0, 1.0, 4.0];
/// Request timeouts; 0 is due at admission, so the next boundary is the
/// clock itself and the drain is skipped (`dt == 0`).
const TIMEOUT_MS: [u64; 6] = [0, 10, 50, 200, 1_000, 30_000];
const ADMIT_GAP_US: [u64; 6] = [0, 0, 1, 137, 5_000, 40_000];
const ADVANCE_GAP_US: [u64; 6] = [0, 1, 250, 10_000, 120_000, 2_000_000];
/// Allocations (cpu, memory, disk, net): healthy, tight on memory (thrash
/// and OOM once the set is deep), small, one starved dimension each, and
/// no memory at all.
const ALLOC: [[f64; 4]; 7] = [
    [4_000.0, 8_192.0, 200.0, 200.0],
    [4_000.0, 1_024.0, 200.0, 200.0],
    [2_000.0, 2_048.0, 100.0, 50.0],
    [0.0, 8_192.0, 200.0, 200.0],
    [4_000.0, 8_192.0, 0.0, 200.0],
    [4_000.0, 8_192.0, 200.0, 0.0],
    [4_000.0, 0.0, 200.0, 200.0],
];

fn alloc(i: u64) -> ResourceVec {
    let [cpu, memory, disk, net] = ALLOC[i as usize % ALLOC.len()];
    ResourceVec::new(cpu, memory, disk, net)
}

fn demand(sel: u64) -> ResourceVec {
    ResourceVec::new(
        CPU[sel as usize % CPU.len()],
        WORKING_SET[(sel >> 8) as usize % WORKING_SET.len()],
        IO[(sel >> 16) as usize % IO.len()],
        IO[(sel >> 24) as usize % IO.len()],
    )
}

/// The real server and the model, driven in lockstep.
struct Pair {
    real: ReplicaServer,
    model: three_pass::ReplicaServer,
    now: SimTime,
    next_id: u64,
    out: DrainOutcome,
    expected: three_pass::DrainOutcome,
}

impl Pair {
    fn new(now: SimTime) -> Self {
        let config = PerfConfig::default();
        Pair {
            real: ReplicaServer::new(alloc(0), 64.0, config, now),
            model: three_pass::ReplicaServer::new(alloc(0), 64.0, config, now),
            now,
            next_id: 0,
            out: DrainOutcome::default(),
            expected: three_pass::DrainOutcome::default(),
        }
    }

    /// Admits one request into both at `self.now`; every fourth one waited
    /// in a front-door queue first (`arrived < at`).
    fn admit(&mut self, demand: ResourceVec, deadline: SimTime, sel: u64) {
        let (id, at) = (self.next_id, self.now);
        self.next_id += 1;
        let waited_ms = if sel.is_multiple_of(4) { (sel >> 2) & 0x3ff } else { 0 };
        let arrived = at - SimDuration::from_millis(waited_ms);
        let had = self.real.admit_arrived_into(id, at, arrived, deadline, demand, &mut self.out);
        let expected =
            self.model.admit_arrived_into(id, at, arrived, deadline, demand, &mut self.expected);
        assert_eq!(had, expected, "admit_arrived_into's return value");
    }

    fn advance(&mut self, to: SimTime) {
        self.now = to;
        self.real.advance_into(to, &mut self.out);
        self.model.advance_into(to, &mut self.expected);
    }

    /// The engine's wake: advance to the announced event exactly. An
    /// event that is already due (a deadline or a zero demand at the
    /// clock) needs the clock to move at all before it is processed.
    fn wake(&mut self) -> bool {
        let Some(at) = self.model.next_event() else {
            return false;
        };
        self.advance(at.max(self.now + SimDuration::from_micros(1)));
        true
    }

    /// Everything observable must agree; then the outcome buffers are
    /// emptied and a dead pair is replaced, as the engine replaces a pod.
    fn check(&mut self) -> Result<(), String> {
        let completed: Vec<(u64, SimDuration)> =
            self.out.completed.iter().map(|c| (c.id, c.latency)).collect();
        let expected: Vec<(u64, SimDuration)> =
            self.expected.completed.iter().map(|c| (c.id, c.latency)).collect();
        prop_assert_eq!(completed, expected, "completions (id, latency) in order");
        prop_assert_eq!(&self.out.timed_out, &self.expected.timed_out, "timeouts in order");
        prop_assert_eq!(self.out.oom_killed, self.expected.oom_killed);
        prop_assert_eq!(self.real.inflight_len(), self.model.inflight_len());
        prop_assert_eq!(self.real.clock(), self.model.clock());
        prop_assert_eq!(self.real.is_dead(), self.model.is_dead());
        prop_assert_eq!(self.real.next_event(), self.model.next_event(), "next_event()");
        prop_assert_eq!(
            self.real.working_set().to_bits(),
            self.model.working_set().to_bits(),
            "working_set() bits"
        );
        self.out.clear();
        self.expected = three_pass::DrainOutcome::default();
        if self.real.is_dead() {
            self.check_consumed()?;
            *self = Pair { next_id: self.next_id, ..Pair::new(self.now) };
        }
        Ok(())
    }

    fn check_consumed(&mut self) -> Result<(), String> {
        let (got, want) = (self.real.take_consumed(), self.model.take_consumed());
        for r in Resource::ALL {
            prop_assert_eq!(got[r].to_bits(), want[r].to_bits(), "take_consumed()[{}] bits", r);
        }
        Ok(())
    }
}

/// One step: (operation, three selectors).
type Op = (u8, u64, u64, u64);

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..16, any::<u64>(), any::<u64>(), any::<u64>()), 1..220)
}

fn timeout(sel: u64) -> SimDuration {
    SimDuration::from_millis(TIMEOUT_MS[sel as usize % TIMEOUT_MS.len()])
}

fn step(pair: &mut Pair, (op, a, b, c): Op) -> Result<(), String> {
    match op {
        // One arrival after a short gap.
        0..=5 => {
            pair.now += SimDuration::from_micros(ADMIT_GAP_US[a as usize % ADMIT_GAP_US.len()]);
            let deadline = pair.now + timeout(c);
            pair.admit(demand(b), deadline, c >> 8);
        }
        // An arrival whose deadline is the next boundary the set will
        // reach with it on board: it times out exactly where another
        // request completes (or completes there itself).
        6 => {
            let far = pair.now + SimDuration::from_secs(30);
            let mut trial = pair.model.clone();
            let mut scratch = three_pass::DrainOutcome::default();
            trial.admit_arrived_into(u64::MAX, pair.now, pair.now, far, demand(b), &mut scratch);
            let deadline = trial.next_event().filter(|_| !trial.is_dead()).unwrap_or(far);
            pair.admit(demand(b), deadline, c >> 8);
        }
        // A burst at one instant, cycling through the palettes: ties.
        7 => {
            for k in 0..16 + a % 150 {
                let deadline = pair.now + timeout(c.wrapping_add(k));
                pair.admit(demand(b.wrapping_add(k.wrapping_mul(0x0101_0101))), deadline, k);
                if pair.real.is_dead() {
                    break;
                }
            }
        }
        8..=10 => {
            let gap = ADVANCE_GAP_US[a as usize % ADVANCE_GAP_US.len()];
            pair.advance(pair.now + SimDuration::from_micros(gap));
        }
        11 => {
            pair.wake();
        }
        12 => {
            pair.real.set_alloc(alloc(a));
            pair.model.set_alloc(alloc(a));
        }
        13 => pair.check_consumed()?,
        14 if a.is_multiple_of(4) => {
            pair.real.kill_into(&mut pair.out);
            pair.model.kill_into(&mut pair.expected);
        }
        14 => {
            pair.wake();
        }
        _ => {
            pair.real.set_alloc(alloc(0));
            pair.model.set_alloc(alloc(0));
        }
    }
    pair.check()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// `prefill` requests are in flight before the first operation, so
    /// about one case in seven starts more than 600 deep and bursts take
    /// others there.
    #[test]
    fn one_pass_drain_matches_three_pass_model(prefill in 0u64..700, ops in arb_ops()) {
        let mut pair = Pair::new(SimTime::ZERO);
        for i in 0..prefill {
            let deadline = SimTime::from_millis(40 * (1 + i % 500));
            pair.admit(demand(i.wrapping_mul(0x0001_0203_0507)), deadline, i);
        }
        pair.check()?;
        for op in ops {
            step(&mut pair, op)?;
        }
        // Run everything out: every boundary of a deep set on the way down.
        pair.real.set_alloc(alloc(0));
        pair.model.set_alloc(alloc(0));
        while pair.wake() {
            pair.check()?;
        }
        prop_assert_eq!(pair.real.inflight_len(), 0);
        pair.check_consumed()?;
    }
}

/// Admits what it takes for the scan to hold a bound made from `first`'s
/// estimate when it reaches `second`: eight requests that are divided
/// unconditionally, `first`, one more large request whose division does
/// not pay (which is when the bound is tightened), then `second`.
fn admit_behind_a_tight_bound(pair: &mut Pair, first: ResourceVec, second: ResourceVec) {
    let far = pair.now + SimDuration::from_secs(60);
    let filler = ResourceVec::new(1e6, 1.0, 9.0, 9.0);
    for _ in 0..8 {
        pair.admit(filler, far, 1);
    }
    pair.admit(first, far, 1);
    pair.admit(filler, far, 1);
    pair.admit(second, far, 1);
}

/// The next-event scan skips a request whose remainder reaches `bound =
/// (best_secs × rate) × (1 + 8ε)`; a bound that came out even two ulps
/// low would skip a request that finishes *before* the running best.
/// Random demands never sit that close, so this test builds the pairs:
/// `big` is the smallest remainder whose estimate rounds up to `k + 1`
/// µs, `small` the double just below it (estimate `k` µs), and `big` is
/// scanned first. The announced event must be `k` µs.
#[test]
fn a_remainder_one_ulp_under_the_best_is_not_skipped() {
    let ceil_us = |secs: f64| SimDuration::from_secs_f64_ceil(secs).as_micros();
    for allocation in [alloc(0), alloc(2)] {
        let probe =
            three_pass::ReplicaServer::new(allocation, 64.0, PerfConfig::default(), SimTime::ZERO);
        let rate = probe.effective_rates(11.0)[Resource::Cpu];
        for k in (1_000u64..40_000).step_by(7) {
            let mut big = k as f64 * 1e-6 * rate;
            while ceil_us(big / rate) > k {
                big = big.next_down();
            }
            while ceil_us(big / rate) <= k {
                big = big.next_up();
            }
            let mut pair = Pair::new(SimTime::ZERO);
            pair.real.set_alloc(allocation);
            pair.model.set_alloc(allocation);
            admit_behind_a_tight_bound(
                &mut pair,
                ResourceVec::new(big, 1.0, 0.0, 0.0),
                ResourceVec::new(big.next_down(), 1.0, 0.0, 0.0),
            );
            assert_eq!(pair.model.next_event(), Some(SimTime::from_micros(k)));
            pair.check().unwrap();
            pair.wake();
            pair.check().unwrap();
        }
    }
}

/// A bound at or under the scan's `1e-12` cut-off must not skip anything:
/// a remainder under the cut-off counts as zero work, so it can reach
/// such a bound and still belong to the request that finishes first.
#[test]
fn a_remainder_under_the_cutoff_is_not_skipped() {
    let mut pair = Pair::new(SimTime::from_secs(1));
    admit_behind_a_tight_bound(
        &mut pair,
        // Estimate 3e-12 / rate > 0; as disk work that is 1.5e-13 MB.
        ResourceVec::new(3e-12, 1.0, 0.0, 0.0),
        // 7e-13 MB of disk is more than that, and no work at all.
        ResourceVec::new(0.0, 1.0, 7e-13, 0.0),
    );
    assert_eq!(pair.model.next_event(), Some(SimTime::from_secs(1)));
    pair.check().unwrap();
    pair.wake();
    pair.check().unwrap();
    assert_eq!(pair.real.inflight_len(), 9);
}
