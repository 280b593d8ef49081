//! Reference-model test of the virtual-time processor-sharing queue.
//!
//! [`one_pass`] is the `ReplicaServer` as it stood before it kept virtual
//! time: every event walks the whole in-flight set, subtracts a step from
//! every remainder and rescans for the next event. Its arithmetic is kept
//! verbatim: serde derives, doc comments, the allocating wrappers and two
//! unused accessors are gone, and one admission rule is added, marked
//! where it is. Random operation sequences drive it and the real server
//! side by side.
//!
//! The two do not round alike, so the comparison is a stated tolerance and
//! not bits: an event may fall on the next microsecond in one of them, and
//! from there the in-flight sets differ for a moment. What must hold:
//!
//! * `clock()`, `is_dead()` and `oom_killed` agree after every step;
//! * every request meets the same fate, completed or timed out, except at
//!   most 0.5 % of them whose completion lay within [`NEAR_US`] of their
//!   deadline;
//! * a completion's latency agrees within [`NEAR_US`];
//! * cumulative `take_consumed()` agrees within 1e-6 relative plus what the
//!   largest allocation delivers in [`NEAR_US`];
//! * `working_set()` agrees within 1e-6 MiB whenever the in-flight counts do.
//!
//! The palettes once held `1e-10`, `3e-12` and `7e-13`. The old server had
//! two cut-offs, `1e-12` in its scan and `1e-9` in its removal, so a
//! request with `1e-10` left on a starved dimension "completed" at
//! whatever boundary came next. The server now has one (`≤ 1e-9` is no
//! work) and such a request waits for its deadline; the entries that sat
//! between the old cut-offs would only pin that accident.

use std::collections::BTreeMap;

use evolve_sim::{DrainOutcome, PerfConfig, ReplicaServer};
use evolve_types::{Resource, ResourceVec, SimDuration, SimTime};
use proptest::prelude::*;

#[allow(clippy::all, clippy::pedantic)]
mod one_pass {
    use evolve_sim::PerfConfig;
    use evolve_types::{Resource, ResourceVec, SimDuration, SimTime};

    const DIMS: [Resource; 3] = [Resource::Cpu, Resource::DiskIo, Resource::NetIo];

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct InFlightHot {
        remaining: [f64; 3],
        deadline: SimTime,
    }

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct InFlightCold {
        id: u64,
        arrived: SimTime,
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
        hot: Vec<InFlightHot>,
        cold: Vec<InFlightCold>,
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
                hot: Vec::new(),
                cold: Vec::new(),
                clock: now,
                consumed: ResourceVec::ZERO,
                dead: false,
                cache: None,
                ws: std::cell::Cell::new(None),
            }
        }

        pub fn inflight_len(&self) -> usize {
            self.hot.len()
        }

        pub fn working_set(&self) -> f64 {
            if let Some(ws) = self.ws.get() {
                return ws;
            }
            let ws = self.base_memory + self.cold.iter().map(|r| r.working_set).sum::<f64>();
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

        fn would_oom(&self, working_set: f64) -> bool {
            let mem = self.alloc[Resource::Memory];
            mem > 0.0 && self.working_set() + working_set > self.config.oom_threshold * mem
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
            // The one change to the old server: a request with nothing to drain
            // completes inside its admission, as it now does in production. It
            // used to stay in flight until the clock next moved, which a wake
            // at the clock itself never did (the engine hang this fixed).
            if DIMS.iter().all(|&r| demand[r] <= 1e-9) && !self.would_oom(demand[Resource::Memory])
            {
                let latency = at.saturating_since(arrived.min(at));
                out.completed.push(Completion { id, latency });
                return true;
            }
            self.cache = None;
            // A held working set is extended by one trailing add instead of
            // being invalidated. That is not the float sequence a recompute
            // would run (see `ws`); it is the sequence the fixtures pin.
            let working_set = demand[Resource::Memory];
            self.ws.set(self.ws.get().map(|w| w + working_set));
            self.hot.push(InFlightHot { remaining: DIMS.map(|r| demand[r]), deadline });
            self.cold.push(InFlightCold { id, arrived: arrived.min(at), working_set });
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
            self.hot.clear();
            out.timed_out.extend(self.cold.drain(..).map(|r| r.id));
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
            if self.dead || self.hot.is_empty() {
                return NextCache { event: None, rates: ResourceVec::ZERO };
            }
            let n = self.hot.len() as f64;
            let rates = self.effective_rates(n);
            let rate = DIMS.map(|r| rates[r]);
            if rate.iter().any(|&r| r <= 1e-12) {
                // A starved dimension: take the careful per-request path.
                let mut best: Option<SimTime> = None;
                for req in &self.hot {
                    let finish = self.finish_estimate(req, &rate);
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
            // request.
            let estimate = |rem: &[f64; 3]| {
                let mut secs: f64 = 0.0;
                for r in 0..3 {
                    let q = if rem[r] > 1e-12 { rem[r] / rate[r] } else { 0.0 };
                    // Never NaN, so a compare is bit-identical to `max`/`min`
                    // without their NaN-handling instruction sequences.
                    if q > secs {
                        secs = q;
                    }
                }
                secs
            };
            let mut best_secs = f64::INFINITY;
            let mut best_deadline = SimTime::MAX;
            // The first few are simply divided: most scans see a handful of
            // requests, and a deep one needs a minimum to start from.
            let (seed, rest) = self.hot.split_at(self.hot.len().min(8));
            for req in seed {
                best_deadline = best_deadline.min(req.deadline);
                let secs = estimate(&req.remaining);
                if secs < best_secs {
                    best_secs = secs;
                }
            }
            // The rest are mostly not divided at all. `bound[r]` is a minimum
            // as work, `secs × rate[r]`, widened by 8 ε to cover its own two
            // roundings, so `bound[r] / rate[r] ≥ secs ≥ best_secs` exactly.
            // Rounded division is monotone, so `remaining[r] ≥ bound[r]` gives
            // `fl(remaining[r] / rate[r]) ≥ best_secs`: the estimate could not
            // have passed the strict `<`. A bound ≤ 1e-12, where the `rem >
            // 1e-12` cut-off decides, counts as +∞. A bound from an earlier,
            // larger minimum still holds, so it is only tightened after a
            // division that did not pay (DESIGN.md decision 9).
            const SLACK: f64 = 1.0 + 8.0 * f64::EPSILON;
            let mut bound = [f64::INFINITY; 3];
            for req in rest {
                best_deadline = best_deadline.min(req.deadline);
                let rem = &req.remaining;
                if (rem[0] >= bound[0]) | (rem[1] >= bound[1]) | (rem[2] >= bound[2]) {
                    continue;
                }
                let secs = estimate(rem);
                if secs < best_secs {
                    best_secs = secs;
                } else {
                    bound = rate.map(|rate| {
                        let b = (best_secs * rate) * SLACK;
                        if b <= 1e-12 {
                            f64::INFINITY
                        } else {
                            b
                        }
                    });
                }
            }
            let finish = self.clock + SimDuration::from_secs_f64_ceil(best_secs);
            NextCache { event: Some(finish.min(best_deadline)), rates }
        }

        fn effective_rates(&self, n: f64) -> ResourceVec {
            let thrash = self.thrash_factor();
            let mut rates = self.alloc * (1.0 / n.max(1.0));
            rates[Resource::Cpu] /= thrash;
            rates[Resource::Memory] = 0.0;
            rates
        }

        fn finish_estimate(&self, req: &InFlightHot, rates: &[f64; 3]) -> SimTime {
            let mut secs: f64 = 0.0;
            for (rem, rate) in req.remaining.into_iter().zip(*rates) {
                if rem > 1e-12 {
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
            if self.hot.is_empty() || self.dead {
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
            while self.clock < to && !self.hot.is_empty() && !self.dead {
                guard += 1;
                assert!(guard < 1_000_000, "drain loop did not converge");
                let NextCache { event, rates } = self.fill_cache();
                let boundary = event.map_or(to, |e| e.min(to));
                let dt = boundary.saturating_since(self.clock).as_secs_f64();
                // Where the removal walk starts and how many requests it has to
                // find; without a drain nothing is known and it walks them all.
                let (mut i, mut leavers) = (0, self.hot.len());
                if dt > 0.0 {
                    // Hoist the per-interval work quantum (same operands, so
                    // bit-identical) and accumulate into a register-resident
                    // copy of `consumed` — the adds happen in the exact same
                    // order, just without round-tripping through memory.
                    let step = DIMS.map(|r| rates[r] * dt);
                    let mut consumed = self.consumed;
                    (i, leavers) = (usize::MAX, 0);
                    for (at, req) in self.hot.iter_mut().enumerate() {
                        // The largest remainder decides whether the request
                        // leaves as done: one compare, whichever dimension is live.
                        let mut left: f64 = 0.0;
                        for r in 0..3 {
                            let rem = req.remaining[r];
                            let drained = if step[r] < rem { step[r] } else { rem };
                            req.remaining[r] = rem - drained;
                            consumed[DIMS[r]] += drained;
                            if req.remaining[r] > left {
                                left = req.remaining[r];
                            }
                        }
                        if left <= 1e-9 || boundary >= req.deadline {
                            i = i.min(at);
                            leavers += 1;
                        }
                    }
                    self.consumed = consumed;
                }
                self.clock = boundary;
                // The drain mutated remaining work and the clock; estimates
                // must be recomputed next iteration.
                self.cache = None;
                // Remove finished and timed-out requests at the boundary: the
                // walk from index 0, minus the prefix and tail where none leave.
                while leavers > 0 && i < self.hot.len() {
                    let req = &self.hot[i];
                    let done = req.remaining.iter().all(|&rem| rem <= 1e-9);
                    if done || boundary >= req.deadline {
                        self.hot.swap_remove(i);
                        let cold = self.cold.swap_remove(i);
                        self.ws.set(None);
                        if done {
                            let latency = boundary.saturating_since(cold.arrived);
                            outcome.completed.push(Completion { id: cold.id, latency });
                        } else {
                            outcome.timed_out.push(cold.id);
                        }
                        leavers -= 1;
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

/// Demand palettes: repeated entries make exact ties common and zeros
/// leave dimensions without demand.
const CPU: [f64; 7] = [0.0, 40.0, 40.0, 80.0, 120.0, 400.0, 13.7];
const IO: [f64; 6] = [0.0, 0.0, 0.5, 0.5, 2.0, 7.3];
const WORKING_SET: [f64; 4] = [0.0, 1.0, 1.0, 4.0];
/// Request timeouts; 0 is due at admission.
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
/// How far apart the two servers may put one event, in microseconds.
const NEAR_US: u64 = 25;

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

/// How a request left, and when.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    Completed { at: SimTime, latency: SimDuration },
    TimedOut,
}

/// One side's books: what left, and the work it reported.
#[derive(Default)]
struct Books {
    fates: BTreeMap<u64, Fate>,
    consumed: ResourceVec,
}

impl Books {
    fn leave(&mut self, id: u64, fate: Fate) {
        assert!(self.fates.insert(id, fate).is_none(), "request {id} left twice");
    }
}

/// The real server and the model, driven in lockstep.
struct Pair {
    real: ReplicaServer,
    model: one_pass::ReplicaServer,
    now: SimTime,
    next_id: u64,
    out: DrainOutcome,
    expected: one_pass::DrainOutcome,
    deadlines: Vec<SimTime>,
    got: Books,
    want: Books,
    /// Requests the two servers disagreed on, all near their deadline.
    flips: usize,
}

impl Pair {
    fn new(now: SimTime) -> Self {
        let config = PerfConfig::default();
        Pair {
            real: ReplicaServer::new(alloc(0), 64.0, config, now),
            model: one_pass::ReplicaServer::new(alloc(0), 64.0, config, now),
            now,
            next_id: 0,
            out: DrainOutcome::default(),
            expected: one_pass::DrainOutcome::default(),
            deadlines: Vec::new(),
            got: Books::default(),
            want: Books::default(),
            flips: 0,
        }
    }

    /// Admits one request into both at `self.now`; every fourth one waited
    /// in a front-door queue first (`arrived < at`).
    fn admit(&mut self, demand: ResourceVec, deadline: SimTime, sel: u64) {
        let (id, at) = (self.next_id, self.now);
        self.next_id += 1;
        self.deadlines.push(deadline);
        let waited_ms = if sel.is_multiple_of(4) { (sel >> 2) & 0x3ff } else { 0 };
        let arrived = at - SimDuration::from_millis(waited_ms);
        self.real.admit_arrived_into(id, at, arrived, deadline, demand, &mut self.out);
        self.model.admit_arrived_into(id, at, arrived, deadline, demand, &mut self.expected);
    }

    fn set_alloc(&mut self, alloc: ResourceVec) {
        self.real.set_alloc(alloc);
        self.model.set_alloc(alloc);
    }

    fn advance(&mut self, to: SimTime) {
        self.now = to;
        self.real.advance_into(to, &mut self.out);
        self.model.advance_into(to, &mut self.expected);
    }

    /// The engine's wake, at whichever server's event comes first. The
    /// model processes an event that is already due only once its clock
    /// moves at all.
    fn wake(&mut self) -> bool {
        let at = match (self.real.next_event(), self.model.next_event()) {
            (Some(a), Some(b)) => a.min(b),
            (a, b) => match a.or(b) {
                Some(at) => at,
                None => return false,
            },
        };
        self.advance(at.max(self.now + SimDuration::from_micros(1)));
        true
    }

    fn take_consumed(&mut self) -> Result<(), String> {
        self.got.consumed += self.real.take_consumed();
        self.want.consumed += self.model.take_consumed();
        for r in [Resource::Cpu, Resource::DiskIo, Resource::NetIo] {
            let (got, want) = (self.got.consumed[r], self.want.consumed[r]);
            let slack = 1e-6 * want + alloc(0)[r] * NEAR_US as f64 / 1e6;
            prop_assert!((got - want).abs() <= slack, "consumed[{}]: {} vs {}", r, got, want);
        }
        Ok(())
    }

    /// What must agree after every step; then the outcome buffers are
    /// booked and emptied, and a dead pair is settled and replaced, as the
    /// engine replaces a pod.
    fn check(&mut self) -> Result<(), String> {
        prop_assert_eq!(self.out.oom_killed, self.expected.oom_killed, "oom_killed");
        prop_assert_eq!(self.real.is_dead(), self.model.is_dead(), "is_dead()");
        prop_assert_eq!(self.real.clock(), self.model.clock(), "clock()");
        let at = self.now;
        for c in self.out.completed.drain(..) {
            self.got.leave(c.id, Fate::Completed { at, latency: c.latency });
        }
        for c in self.expected.completed.drain(..) {
            self.want.leave(c.id, Fate::Completed { at, latency: c.latency });
        }
        for id in self.out.timed_out.drain(..) {
            self.got.leave(id, Fate::TimedOut);
        }
        for id in self.expected.timed_out.drain(..) {
            self.want.leave(id, Fate::TimedOut);
        }
        (self.out.oom_killed, self.expected.oom_killed) = (false, false);
        if self.real.inflight_len() == self.model.inflight_len() {
            let (got, want) = (self.real.working_set(), self.model.working_set());
            prop_assert!((got - want).abs() <= 1e-6, "working_set(): {} vs {}", got, want);
        }
        if self.real.is_dead() {
            self.settle()?;
            *self = Pair { next_id: self.next_id, ..Pair::new(self.now) };
        }
        Ok(())
    }

    /// With nothing in flight on either side, the books must agree.
    fn settle(&mut self) -> Result<(), String> {
        prop_assert_eq!(self.real.inflight_len(), 0);
        prop_assert_eq!(self.model.inflight_len(), 0);
        self.take_consumed()?;
        let ids: Vec<u64> = self.want.fates.keys().copied().collect();
        prop_assert_eq!(&ids, &self.got.fates.keys().copied().collect::<Vec<u64>>(), "who left");
        for id in &ids {
            let deadline =
                self.deadlines[(*id - (self.next_id - self.deadlines.len() as u64)) as usize];
            match (self.got.fates[id], self.want.fates[id]) {
                (Fate::TimedOut, Fate::TimedOut) => {}
                (Fate::Completed { latency: a, .. }, Fate::Completed { latency: b, .. }) => {
                    let apart = a.as_micros().abs_diff(b.as_micros());
                    prop_assert!(apart <= NEAR_US, "request {}: latency {} vs {}", id, a, b);
                }
                (Fate::Completed { at, .. }, Fate::TimedOut)
                | (Fate::TimedOut, Fate::Completed { at, .. }) => {
                    let apart = at.as_micros().abs_diff(deadline.as_micros());
                    prop_assert!(apart <= NEAR_US, "request {}: fates differ {} µs off", id, apart);
                    self.flips += 1;
                }
            }
        }
        prop_assert!(
            200 * self.flips <= ids.len().max(200),
            "{} of {} requests met different fates",
            self.flips,
            ids.len()
        );
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
            let gap = ADMIT_GAP_US[a as usize % ADMIT_GAP_US.len()];
            pair.advance(pair.now + SimDuration::from_micros(gap));
            let deadline = pair.now + timeout(c);
            pair.admit(demand(b), deadline, c >> 8);
        }
        // An arrival whose deadline is the next boundary the set will
        // reach with it on board: it times out exactly where another
        // request completes (or completes there itself).
        6 => {
            let far = pair.now + SimDuration::from_secs(30);
            let mut trial = pair.model.clone();
            let mut scratch = one_pass::DrainOutcome::default();
            trial.admit_arrived_into(u64::MAX, pair.now, pair.now, far, demand(b), &mut scratch);
            let deadline = trial.next_event().filter(|_| !trial.is_dead()).unwrap_or(far);
            pair.admit(demand(b), deadline, c >> 8);
        }
        // A burst at one instant, cycling through the palettes: ties.
        7 => {
            for k in 0..16 + a % 150 {
                let deadline = pair.now + timeout(c.wrapping_add(k));
                pair.admit(demand(b.wrapping_add(k.wrapping_mul(0x0101_0101))), deadline, k);
                if pair.real.is_dead() || pair.model.is_dead() {
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
        12 => pair.set_alloc(alloc(a)),
        13 => pair.take_consumed()?,
        14 if a.is_multiple_of(4) => {
            pair.real.kill_into(&mut pair.out);
            pair.model.kill_into(&mut pair.expected);
        }
        14 => {
            pair.wake();
        }
        _ => pair.set_alloc(alloc(0)),
    }
    pair.check()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// `prefill` requests are in flight before the first operation, so
    /// about one case in seven starts more than 600 deep and bursts take
    /// others there.
    #[test]
    fn virtual_time_queue_matches_the_one_pass_model(prefill in 0u64..700, ops in arb_ops()) {
        let mut pair = Pair::new(SimTime::ZERO);
        for i in 0..prefill {
            let deadline = SimTime::from_millis(40 * (1 + i % 500));
            pair.admit(demand(i.wrapping_mul(0x0001_0203_0507)), deadline, i);
            if pair.real.is_dead() || pair.model.is_dead() {
                break;
            }
        }
        pair.check()?;
        for op in ops {
            step(&mut pair, op)?;
        }
        // Run everything out: every boundary of a deep set on the way down.
        pair.set_alloc(alloc(0));
        while pair.wake() {
            pair.check()?;
        }
        pair.settle()?;
    }
}
