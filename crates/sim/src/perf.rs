//! The multi-resource processor-sharing performance model.
//!
//! Each running pod hosts a [`ReplicaServer`]: its in-flight requests
//! share the pod's allocated resources equally (processor sharing, the
//! standard model for a threaded server). A request carries *drainable*
//! demand on CPU, disk I/O and network I/O — it completes when its slowest
//! component drains — plus a *working set* that occupies memory while the
//! request is in flight.
//!
//! Memory is space, not rate: when the working set exceeds the memory
//! allocation the replica thrashes (CPU drains slower by a configurable
//! factor), and past the OOM threshold the replica is killed. This is the
//! mechanism that makes CPU-only autoscaling fail on memory-bound
//! services (ablation T5) and what the multi-resource controller fixes.
//!
//! All latencies therefore emerge from first principles: queueing (more
//! in-flight → smaller share), multi-resource bottlenecks (whichever
//! dimension is scarcest dominates) and memory pressure.
//!
//! The queue is kept in *virtual time* (DESIGN.md decision 9): with `n`
//! in flight the virtual clock `v` advances by `dt / n`, and every request
//! drains `rate × dv` of each dimension whatever `n` is. While the rates
//! keep their ratios a request's finishing virtual time is a constant, so
//! an event costs a heap operation, not a walk of the in-flight set.

use evolve_types::{Resource, ResourceVec, SimDuration, SimTime};

use crate::heap::{self, Entry};

/// Tunables of the performance model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfConfig {
    /// CPU slowdown per unit of relative memory overcommit: the effective
    /// CPU rate is divided by `1 + thrash_coeff × max(0, ws/alloc − 1)`.
    pub thrash_coeff: f64,
    /// The replica is OOM-killed when `ws > oom_threshold × alloc`.
    pub oom_threshold: f64,
}

impl Default for PerfConfig {
    fn default() -> Self {
        PerfConfig { thrash_coeff: 4.0, oom_threshold: 1.5 }
    }
}

/// The rate dimensions a request drains, in the order of [`Request::rem`].
const DIMS: [Resource; 3] = [Resource::Cpu, Resource::DiskIo, Resource::NetIo];
/// The one cut-off: this much work (mcore·s, MB) or less is no work.
const NO_WORK: f64 = 1e-9;
/// Working sets are summed as integers of 2⁻³² MiB, so the sum is a
/// function of the in-flight set and not of the order it was built in.
const WS_UNIT: f64 = 4_294_967_296.0;
/// [`Request::dpos`] of a request that has no deadline.
const NO_DEADLINE: u32 = u32::MAX;

/// A request being executed; 64 bytes.
#[derive(Debug, Clone, Copy)]
struct Request {
    /// Drainable work (cpu mcore·s, disk MB, net MB) that was left when it
    /// was last written: at admission, a re-key or a credit.
    rem: [f64; 3],
    /// The virtual time at which `rem` will have drained at the rates in
    /// force; +∞ when a starved dimension holds it.
    key: f64,
    arrived: SimTime,
    id: u64,
    /// In [`WS_UNIT`]s.
    working_set: i64,
    /// Where `ReplicaServer::by_deadline` points back at this request.
    dpos: u32,
}

/// A deadline and the index in `ReplicaServer::reqs` of its request.
#[derive(Debug, Clone, Copy)]
struct Deadline {
    at: SimTime,
    req: u32,
}

impl Entry<[Deadline]> for Request {
    type Key = f64;
    fn key(&self) -> f64 {
        self.key
    }
    fn moved(&self, slot: usize, by_deadline: &mut [Deadline]) {
        if self.dpos != NO_DEADLINE {
            by_deadline[self.dpos as usize].req = slot as u32;
        }
    }
}

impl Entry<[Request]> for Deadline {
    type Key = SimTime;
    fn key(&self) -> SimTime {
        self.at
    }
    fn moved(&self, slot: usize, reqs: &mut [Request]) {
        reqs[self.req as usize].dpos = slot as u32;
    }
}

/// What one request drains per unit of virtual time (cpu mcore, disk and
/// net MB/s): the allocation, CPU divided by the thrash factor. Keys are
/// exact only while these hold; whatever changes them re-keys.
#[derive(Debug, Clone, Copy)]
struct Rates {
    per_v: [f64; 3],
    /// `1 / per_v`, +∞ for a dimension without a rate: per-request
    /// arithmetic multiplies.
    inverse: [f64; 3],
}

impl Rates {
    fn new(per_v: [f64; 3]) -> Self {
        let inverse = |rate: f64| if rate > 0.0 { 1.0 / rate } else { f64::INFINITY };
        Rates { per_v, inverse: [inverse(per_v[0]), inverse(per_v[1]), inverse(per_v[2])] }
    }

    /// Virtual time a request with `rem` left needs: its slowest
    /// dimension, +∞ when a dimension with work has no rate at all
    /// (starved: only a deadline or a resize frees it).
    fn span(&self, rem: &[f64; 3]) -> f64 {
        let mut span = 0.0;
        for (rem, inverse) in rem.iter().zip(&self.inverse) {
            // The guard keeps `0 × ∞` out: a key must never be NaN.
            if *rem > NO_WORK && rem * inverse > span {
                span = rem * inverse;
            }
        }
        span
    }
}

/// MiB in [`WS_UNIT`]s, rounded: truncating `x + 0.5` rounds a non-negative
/// `x` without libm's `round`.
fn fixed(mib: f64) -> i64 {
    (mib * WS_UNIT + 0.5) as i64
}

/// A completed request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Request id.
    pub id: u64,
    /// Time in the system (arrival → completion).
    pub latency: SimDuration,
}

/// Result of advancing a replica to a point in time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DrainOutcome {
    /// Requests that finished, with their latencies.
    pub completed: Vec<Completion>,
    /// Requests that hit their deadline and were dropped.
    pub timed_out: Vec<u64>,
    /// The replica exceeded the OOM threshold and must be killed. All
    /// remaining in-flight requests are reported in `timed_out`.
    pub oom_killed: bool,
}

impl DrainOutcome {
    /// Empties the buffers for reuse, keeping their capacity. The engine
    /// threads one scratch outcome through the per-event paths so a wake
    /// that completes requests does not allocate.
    pub fn clear(&mut self) {
        self.completed.clear();
        self.timed_out.clear();
        self.oom_killed = false;
    }
}

/// The execution state of one running pod.
///
/// # Examples
///
/// ```
/// use evolve_sim::{PerfConfig, ReplicaServer};
/// use evolve_types::{ResourceVec, SimDuration, SimTime};
///
/// // 1 core, 1 GiB, 100 MB/s disk and net.
/// let alloc = ResourceVec::new(1_000.0, 1_024.0, 100.0, 100.0);
/// let mut r = ReplicaServer::new(alloc, 64.0, PerfConfig::default(), SimTime::ZERO);
/// // One request: 500 mcore·s of compute → 0.5 s alone on this pod.
/// r.admit(1, SimTime::ZERO, SimTime::from_secs(10),
///         ResourceVec::new(500.0, 8.0, 0.0, 0.0));
/// let next = r.next_event().unwrap();
/// assert_eq!(next, SimTime::from_millis(500));
/// let out = r.advance(next);
/// assert_eq!(out.completed.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct ReplicaServer {
    alloc: ResourceVec,
    config: PerfConfig,
    /// In-flight requests, a min-heap on `key`: the next to complete first.
    reqs: Vec<Request>,
    /// The deadlines of the requests that have one, a min-heap. The two
    /// heaps index each other, so a request that leaves one way is taken
    /// out of the other at once and neither ever holds a stale entry.
    by_deadline: Vec<Deadline>,
    clock: SimTime,
    /// The virtual clock: what a request admitted when the replica last
    /// went idle (or was last re-keyed) would have attained by now, per
    /// unit of rate. It restarts at 0 there, which keeps it small against
    /// its own rounding: a key resolves 2⁻⁵² of `v`, under a nanosecond of
    /// real time even after an hour with hundreds in flight.
    v: f64,
    /// `v` when work in flight was last credited to `consumed`.
    credited: f64,
    rates: Rates,
    /// Cumulative drained work (rate dimensions) for usage accounting.
    consumed: ResourceVec,
    /// Base memory + Σ working sets in flight, in [`WS_UNIT`]s.
    ws: i64,
    dead: bool,
}

impl ReplicaServer {
    /// Creates an idle replica with the given allocation and fixed base
    /// memory footprint (MiB).
    ///
    /// # Panics
    ///
    /// Panics when the allocation is invalid or `base_memory` is negative.
    #[must_use]
    pub fn new(alloc: ResourceVec, base_memory: f64, config: PerfConfig, now: SimTime) -> Self {
        let mut server = ReplicaServer {
            alloc,
            config,
            reqs: Vec::new(),
            by_deadline: Vec::new(),
            clock: now,
            v: 0.0,
            credited: 0.0,
            rates: Rates::new([0.0; 3]),
            consumed: ResourceVec::ZERO,
            ws: 0,
            dead: false,
        };
        server.renew(alloc, base_memory, config, now);
        server
    }

    /// Makes this server the one [`ReplicaServer::new`] builds from the
    /// same arguments, whatever it ran before, keeping the capacity of its
    /// request heaps: a table that retires a pod's server renews it for the
    /// next pod that starts, and the heaps do not grow again.
    ///
    /// # Panics
    ///
    /// Panics when the allocation is invalid or `base_memory` is negative.
    pub fn renew(
        &mut self,
        alloc: ResourceVec,
        base_memory: f64,
        config: PerfConfig,
        now: SimTime,
    ) {
        assert!(alloc.is_valid(), "allocation must be valid");
        assert!(base_memory >= 0.0, "base memory must be non-negative");
        self.reqs.clear();
        self.by_deadline.clear();
        (self.alloc, self.config, self.clock) = (alloc, config, now);
        (self.v, self.credited, self.rates) = (0.0, 0.0, Rates::new([0.0; 3]));
        (self.consumed, self.ws, self.dead) = (ResourceVec::ZERO, fixed(base_memory), false);
        self.rekey_if_rates_moved();
    }

    /// Room for `requests` in flight, each with a deadline, before either
    /// heap grows.
    pub(crate) fn reserve(&mut self, requests: usize) {
        self.reqs.reserve_exact(requests.saturating_sub(self.reqs.len()));
        self.by_deadline.reserve_exact(requests.saturating_sub(self.by_deadline.len()));
    }

    /// Current allocation.
    #[must_use]
    pub fn alloc(&self) -> ResourceVec {
        self.alloc
    }

    /// Number of in-flight requests.
    #[must_use]
    pub fn inflight_len(&self) -> usize {
        self.reqs.len()
    }

    /// Current memory footprint: base + Σ working sets (MiB).
    #[must_use]
    pub fn working_set(&self) -> f64 {
        self.ws as f64 / WS_UNIT
    }

    /// `true` after an OOM kill; a dead replica accepts no work.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// The replica's internal clock (last drain time).
    #[must_use]
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Cumulative drained work since the last [`ReplicaServer::take_consumed`],
    /// with the memory component set to the *current* working set so the
    /// caller can treat the vector as a usage snapshot.
    pub fn take_consumed(&mut self) -> ResourceVec {
        self.credit();
        let mut out = self.consumed;
        out[Resource::Memory] = self.working_set();
        self.consumed = ResourceVec::ZERO;
        out
    }

    /// Applies a vertical resize at the replica's current clock.
    pub fn set_alloc(&mut self, alloc: ResourceVec) {
        self.set_sanitized_alloc(alloc.sanitized());
    }

    /// [`ReplicaServer::set_alloc`] for an allocation already sanitized,
    /// as the engine's targets are, once for all of an app's replicas.
    pub(crate) fn set_sanitized_alloc(&mut self, alloc: ResourceVec) {
        debug_assert!(alloc == alloc.sanitized(), "an unsanitized allocation {alloc}");
        self.alloc = alloc;
        self.rekey_if_rates_moved();
    }

    /// Current effective thrash factor (1 = healthy).
    #[must_use]
    pub fn thrash_factor(&self) -> f64 {
        let (mem, ws) = (self.alloc[Resource::Memory], self.working_set());
        if mem <= 0.0 {
            1.0 + self.config.thrash_coeff
        } else if ws <= mem {
            1.0 // the healthy replica, every event's case, does not divide
        } else {
            1.0 + self.config.thrash_coeff * (ws / mem - 1.0)
        }
    }

    /// Admits a request at `at` (must not precede the replica clock).
    /// Returns an OOM outcome when the new working set crosses the kill
    /// threshold; the engine must then kill the pod.
    ///
    /// # Panics
    ///
    /// Panics when the replica is dead or `at` precedes the clock.
    pub fn admit(
        &mut self,
        id: u64,
        at: SimTime,
        deadline: SimTime,
        demand: ResourceVec,
    ) -> Option<DrainOutcome> {
        let mut pre = DrainOutcome::default();
        self.admit_arrived_into(id, at, at, deadline, demand, &mut pre).then_some(pre)
    }

    /// Allocation-free form of [`ReplicaServer::admit`], with a separate
    /// logical arrival time used for latency accounting — a request that
    /// waited in a front-door queue keeps its original arrival. Outcomes
    /// are pushed into `out` (not cleared first) and the return value says
    /// whether anything was recorded. A request with nothing to drain
    /// completes here, its latency the time it had already queued.
    ///
    /// # Panics
    ///
    /// Panics when the replica is dead or `at` precedes the clock.
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
        let arrived = arrived.min(at);
        let working_set = fixed(demand[Resource::Memory]);
        self.ws = self.ws.wrapping_add(working_set);
        let mem = self.alloc[Resource::Memory];
        if mem > 0.0 && self.working_set() > self.config.oom_threshold * mem {
            self.kill_into(out);
            out.timed_out.push(id);
            return true;
        }
        let rem = DIMS.map(|r| if demand[r] > NO_WORK { demand[r] } else { 0.0 });
        if rem == [0.0; 3] {
            self.ws = self.ws.wrapping_sub(working_set);
            out.completed.push(Completion { id, latency: at.saturating_since(arrived) });
            return true;
        }
        // The newcomer's working set may have moved the thrash factor.
        self.rekey_if_rates_moved();
        let key = self.v + self.rates.span(&rem);
        if key == f64::INFINITY {
            // Starved: `settle` dates its `rem` by the last credit.
            self.credit();
        }
        let req = Request { rem, key, arrived, id, working_set, dpos: NO_DEADLINE };
        let slot = heap::push(&mut self.reqs, &mut self.by_deadline[..], req) as u32;
        if deadline != SimTime::MAX {
            // Landing on its slot writes the request's `dpos`.
            heap::push(
                &mut self.by_deadline,
                &mut self.reqs[..],
                Deadline { at: deadline, req: slot },
            );
        }
        out.completed.len() != before.0 || out.timed_out.len() != before.1 || out.oom_killed
    }

    /// Kills the replica: every in-flight request is dropped and reported
    /// as timed out.
    pub fn kill(&mut self) -> DrainOutcome {
        let mut out = DrainOutcome::default();
        self.kill_into(&mut out);
        out
    }

    /// Allocation-free form of [`ReplicaServer::kill`]: dropped request
    /// ids are appended to `out` and `oom_killed` is set.
    pub fn kill_into(&mut self, out: &mut DrainOutcome) {
        self.credit();
        self.dead = true;
        for req in self.reqs.drain(..) {
            self.ws = self.ws.wrapping_sub(req.working_set);
            out.timed_out.push(req.id);
        }
        self.by_deadline.clear();
        (self.v, self.credited) = (0.0, 0.0);
        out.oom_killed = true;
    }

    /// The absolute time of the next completion or timeout, `None` when
    /// idle. The engine schedules its wake-up here. Two heap tops: the
    /// virtual time the first key is away takes `n` times as long in real
    /// time, rounded up to the microsecond grid so the wake finds it due.
    pub fn next_event(&mut self) -> Option<SimTime> {
        let first = self.reqs.first()?;
        let wait = (first.key - self.v) * self.reqs.len() as f64;
        let finish = self.clock + SimDuration::from_secs_f64_ceil(wait);
        Some(self.by_deadline.first().map_or(finish, |d| finish.min(d.at)))
    }

    /// Credits `consumed` with what request `i` has drained since its `rem`
    /// was written, up to virtual time `v`, and writes what is left. The
    /// virtual time `rem` was written at is not stored: it is `key` less the
    /// span `rem` needs, good to one rounding of `key` — or, for a starved
    /// request, the last credit, which its admission forced.
    fn settle(&mut self, i: usize, v: f64) {
        let req = &mut self.reqs[i];
        let starved = req.key == f64::INFINITY;
        let written = if starved { self.credited } else { req.key - self.rates.span(&req.rem) };
        let attained = v - written;
        for (r, dim) in DIMS.into_iter().enumerate() {
            let drained = (self.rates.per_v[r] * attained).min(req.rem[r]);
            if drained > 0.0 {
                req.rem[r] -= drained;
                self.consumed[dim] += drained;
            }
        }
    }

    /// Credits everything in flight up to the replica's own clock.
    fn credit(&mut self) {
        self.credit_at(self.v);
    }

    /// Credits everything in flight up to virtual time `v`, unless the last
    /// credit already reached it: `v` has not moved since, or a harvest
    /// credited ahead of the clock.
    fn credit_at(&mut self, v: f64) {
        if v > self.credited {
            (0..self.reqs.len()).for_each(|i| self.settle(i, v));
            self.credited = v;
        }
    }

    /// The virtual time at `at` (not before the clock) if nobody leaves on
    /// the way; `None` when idle, where it stands still.
    fn v_at(&self, at: SimTime) -> Option<f64> {
        let us_per_v = 1e6 * self.reqs.len() as f64;
        let elapsed = at.saturating_since(self.clock).as_micros() as f64;
        (!self.reqs.is_empty()).then(|| self.v + elapsed / us_per_v)
    }

    /// Credits the work in flight with what it drains up to `at` without
    /// moving the replica: its clock, `v` and every key stay, so its next
    /// event is what it was. The harvest calls this with its own instant;
    /// nothing may be due before `at` (the engine has processed it).
    pub(crate) fn credit_to(&mut self, at: SimTime) {
        if let Some(v) = self.v_at(at) {
            self.credit_at(v);
        }
    }

    /// [`ReplicaServer::credit_to`] for work that was credited elsewhere:
    /// the requests' records move on to `at`, `consumed` does not.
    pub(crate) fn skip_to(&mut self, at: SimTime) {
        let consumed = self.consumed;
        self.credit_to(at);
        self.consumed = consumed;
    }

    /// What the replica drains per second in each rate dimension (cpu
    /// mcore, disk and net MB/s) while no event reaches it, read right
    /// after a credit to `at`, and the last microsecond that holds for:
    /// the first at which one request runs dry in one dimension, when the
    /// number of requests draining it drops. An idle replica drains nothing
    /// for as long as it stays idle.
    pub(crate) fn drain_rate(&self, at: SimTime) -> ([f64; 3], SimTime) {
        let mut draining = [0usize; 3];
        // Virtual time until the first dimension of a request runs dry.
        let mut dry = f64::INFINITY;
        for req in &self.reqs {
            for (r, draining) in draining.iter_mut().enumerate() {
                if req.rem[r] > 0.0 && self.rates.per_v[r] > 0.0 {
                    *draining += 1;
                    dry = dry.min(req.rem[r] * self.rates.inverse[r]);
                }
            }
        }
        let n = self.reqs.len().max(1) as f64;
        let rate = [0, 1, 2].map(|r| self.rates.per_v[r] * draining[r] as f64 / n);
        // `as` truncates and saturates: down to the microsecond, and an
        // infinite wait is the end of time.
        let until = at.as_micros().saturating_add((dry * n * 1e6) as u64);
        (rate, SimTime::from_micros(until))
    }

    /// Keys hold only while the rates do. When the allocation or the
    /// thrash factor has moved them: credit what was delivered at the old
    /// rates, restart `v`, and give every request its key at the new ones.
    fn rekey_if_rates_moved(&mut self) {
        let mut rates = [self.alloc[DIMS[0]], self.alloc[DIMS[1]], self.alloc[DIMS[2]]];
        let thrash = self.thrash_factor();
        if thrash != 1.0 {
            rates[0] /= thrash;
        }
        if rates == self.rates.per_v {
            return;
        }
        self.credit();
        (self.v, self.credited, self.rates) = (0.0, 0.0, Rates::new(rates));
        for req in &mut self.reqs {
            req.key = self.rates.span(&req.rem);
        }
        heap::heapify(&mut self.reqs, &mut self.by_deadline[..]);
    }

    /// Whether the first request is done at virtual time `v`: no dimension
    /// of it can have more than [`NO_WORK`] left.
    fn done_at(&self, v: f64) -> bool {
        let [cpu, disk, net] = self.rates.per_v;
        let io = if disk > net { disk } else { net };
        let fastest = if cpu > io { cpu } else { io };
        self.reqs.first().is_some_and(|first| (first.key - v) * fastest <= NO_WORK)
    }

    /// Takes out whatever is due at the current clock — done beats timed
    /// out — and settles the rates for those who stay.
    fn reap(&mut self, out: &mut DrainOutcome) {
        let before = self.reqs.len();
        while self.done_at(self.v) {
            let req = self.take(0);
            for (dim, rem) in DIMS.into_iter().zip(req.rem) {
                self.consumed[dim] += rem;
            }
            let latency = self.clock.saturating_since(req.arrived);
            out.completed.push(Completion { id: req.id, latency });
        }
        while self.by_deadline.first().is_some_and(|d| d.at <= self.clock) {
            let i = self.by_deadline[0].req as usize;
            self.settle(i, self.v);
            out.timed_out.push(self.take(i).id);
        }
        if self.reqs.is_empty() {
            (self.v, self.credited) = (0.0, 0.0);
        } else if self.reqs.len() != before {
            self.rekey_if_rates_moved();
        }
    }

    /// Removes request `i` from both heaps and from the working set.
    fn take(&mut self, i: usize) -> Request {
        let dpos = self.reqs[i].dpos;
        if dpos != NO_DEADLINE {
            heap::remove(&mut self.by_deadline, &mut self.reqs[..], dpos as usize);
        }
        let req = heap::remove(&mut self.reqs, &mut self.by_deadline[..], i);
        self.ws = self.ws.wrapping_sub(req.working_set);
        req
    }

    /// Advances the replica to `to`, draining work, completing and timing
    /// out requests along the way.
    ///
    /// # Panics
    ///
    /// Panics when `to` precedes the replica clock.
    pub fn advance(&mut self, to: SimTime) -> DrainOutcome {
        let mut outcome = DrainOutcome::default();
        self.advance_into(to, &mut outcome);
        outcome
    }

    /// Allocation-free form of [`ReplicaServer::advance`]: completions and
    /// timeouts are appended to `out` (not cleared first), so the engine
    /// can reuse one scratch outcome across every wake.
    ///
    /// # Panics
    ///
    /// Panics when `to` precedes the replica clock.
    pub fn advance_into(&mut self, to: SimTime, outcome: &mut DrainOutcome) {
        assert!(to >= self.clock, "advance into the past");
        // Piecewise: `n` is constant up to the earliest completion or
        // timeout, which is where the next piece starts.
        let mut guard = 0usize;
        loop {
            guard += 1;
            assert!(guard < 1_000_000, "drain loop did not converge");
            self.reap(outcome);
            if self.reqs.is_empty() || self.clock >= to {
                break;
            }
            let in_flight = "requests are in flight";
            let (mut boundary, mut v) = (to, self.v_at(to).expect(in_flight));
            if self.done_at(v) || self.by_deadline.first().is_some_and(|d| d.at <= to) {
                // Someone leaves on the way there: that is how far `n` holds.
                boundary = self.next_event().expect(in_flight).min(to);
                v = self.v_at(boundary).expect(in_flight);
            }
            (self.v, self.clock) = (v, boundary);
        }
        self.clock = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alloc() -> ResourceVec {
        ResourceVec::new(1_000.0, 1_024.0, 100.0, 100.0)
    }

    fn server() -> ReplicaServer {
        ReplicaServer::new(alloc(), 64.0, PerfConfig::default(), SimTime::ZERO)
    }

    fn cpu_req(mcore_s: f64) -> ResourceVec {
        ResourceVec::new(mcore_s, 4.0, 0.0, 0.0)
    }

    #[test]
    fn single_cpu_request_latency() {
        let mut r = server();
        r.admit(1, SimTime::ZERO, SimTime::from_secs(60), cpu_req(500.0));
        // 500 mcore·s at 1000 mcore → 0.5 s.
        assert_eq!(r.next_event(), Some(SimTime::from_millis(500)));
        let out = r.advance(SimTime::from_millis(500));
        assert_eq!(out.completed.len(), 1);
        assert_eq!(out.completed[0].latency, SimDuration::from_millis(500));
        assert_eq!(r.inflight_len(), 0);
    }

    #[test]
    fn processor_sharing_halves_rates() {
        let mut r = server();
        r.admit(1, SimTime::ZERO, SimTime::from_secs(60), cpu_req(500.0));
        r.admit(2, SimTime::ZERO, SimTime::from_secs(60), cpu_req(500.0));
        // Two equal requests share the core: both finish at 1.0 s.
        let out = r.advance(SimTime::from_secs(2));
        assert_eq!(out.completed.len(), 2);
        for c in &out.completed {
            assert_eq!(c.latency, SimDuration::from_secs(1));
        }
    }

    #[test]
    fn late_arrival_slows_earlier_request() {
        let mut r = server();
        r.admit(1, SimTime::ZERO, SimTime::from_secs(60), cpu_req(500.0));
        // Second request arrives at 0.25 s; first has 250 mcore·s left and
        // now drains at 500 mcore → finishes at 0.75 s.
        r.admit(2, SimTime::from_millis(250), SimTime::from_secs(60), cpu_req(500.0));
        let out = r.advance(SimTime::from_secs(3));
        let first = out.completed.iter().find(|c| c.id == 1).unwrap();
        assert_eq!(first.latency, SimDuration::from_millis(750));
        // Second: shares 0.25–0.75 (drains 250), alone 0.75–1.0 → 1.0 s.
        let second = out.completed.iter().find(|c| c.id == 2).unwrap();
        assert_eq!(second.latency, SimDuration::from_millis(750));
    }

    #[test]
    fn bottleneck_dimension_dominates() {
        let mut r = server();
        // 100 mcore·s cpu (0.1 s) but 50 MB of disk at 100 MB/s (0.5 s).
        r.admit(1, SimTime::ZERO, SimTime::from_secs(60), ResourceVec::new(100.0, 4.0, 50.0, 0.0));
        let out = r.advance(SimTime::from_secs(1));
        assert_eq!(out.completed[0].latency, SimDuration::from_millis(500));
    }

    #[test]
    fn timeout_drops_request() {
        let mut r = server();
        r.admit(1, SimTime::ZERO, SimTime::from_millis(100), cpu_req(10_000.0));
        assert_eq!(r.next_event(), Some(SimTime::from_millis(100)));
        let out = r.advance(SimTime::from_secs(1));
        assert_eq!(out.timed_out, vec![1]);
        assert_eq!(out.completed.len(), 0);
        assert_eq!(r.inflight_len(), 0);
    }

    #[test]
    fn starved_dimension_times_out() {
        // Zero net allocation but net demand: request can never finish.
        let mut r = ReplicaServer::new(
            ResourceVec::new(1_000.0, 1_024.0, 100.0, 0.0),
            0.0,
            PerfConfig::default(),
            SimTime::ZERO,
        );
        r.admit(1, SimTime::ZERO, SimTime::from_secs(2), ResourceVec::new(10.0, 0.0, 0.0, 5.0));
        assert_eq!(r.next_event(), Some(SimTime::from_secs(2)));
        let out = r.advance(SimTime::from_secs(3));
        assert_eq!(out.timed_out, vec![1]);
    }

    #[test]
    fn thrash_slows_cpu() {
        let cfg = PerfConfig { thrash_coeff: 4.0, oom_threshold: 10.0 };
        // 100 MiB allocation; request working set 150 + base 0 → 1.5×
        // overcommit → thrash factor 1 + 4*0.5 = 3.
        let mut r = ReplicaServer::new(
            ResourceVec::new(1_000.0, 100.0, 100.0, 100.0),
            0.0,
            cfg,
            SimTime::ZERO,
        );
        r.admit(
            1,
            SimTime::ZERO,
            SimTime::from_secs(60),
            ResourceVec::new(1_000.0, 150.0, 0.0, 0.0),
        );
        assert!((r.thrash_factor() - 3.0).abs() < 1e-9);
        let out = r.advance(SimTime::from_secs(10));
        // 1 s of work takes 3 s under thrash.
        assert_eq!(out.completed[0].latency, SimDuration::from_secs(3));
    }

    #[test]
    fn oom_kill_on_admission() {
        let cfg = PerfConfig::default(); // kill at 1.5× of 100 MiB = 150
        let mut r = ReplicaServer::new(
            ResourceVec::new(1_000.0, 100.0, 100.0, 100.0),
            50.0,
            cfg,
            SimTime::ZERO,
        );
        r.admit(1, SimTime::ZERO, SimTime::from_secs(60), ResourceVec::new(10.0, 60.0, 0.0, 0.0));
        assert!(!r.is_dead());
        // +60 MiB → ws = 170 > 150 → OOM.
        let out = r
            .admit(2, SimTime::ZERO, SimTime::from_secs(60), ResourceVec::new(10.0, 60.0, 0.0, 0.0))
            .expect("OOM outcome");
        assert!(out.oom_killed);
        assert!(r.is_dead());
        assert_eq!(out.timed_out.len(), 2);
    }

    #[test]
    fn consumed_tracks_drained_work() {
        let mut r = server();
        r.admit(1, SimTime::ZERO, SimTime::from_secs(60), ResourceVec::new(500.0, 4.0, 10.0, 20.0));
        r.advance(SimTime::from_secs(1));
        let used = r.take_consumed();
        assert!((used.cpu() - 500.0).abs() < 1e-6);
        assert!((used.disk_io() - 10.0).abs() < 1e-6);
        assert!((used.net_io() - 20.0).abs() < 1e-6);
        // Memory reports the current working set (base only, request done).
        assert!((used.memory() - 64.0).abs() < 1e-6);
        // Second take returns zero rate work.
        assert_eq!(r.take_consumed().cpu(), 0.0);
    }

    #[test]
    fn resize_speeds_up_in_place() {
        let mut r = server();
        r.admit(1, SimTime::ZERO, SimTime::from_secs(60), cpu_req(1_000.0));
        // Half way through, double the CPU.
        r.advance(SimTime::from_millis(500));
        r.set_alloc(ResourceVec::new(2_000.0, 1_024.0, 100.0, 100.0));
        let out = r.advance(SimTime::from_secs(5));
        // 500 mcore·s left at 2000 mcore → 0.25 s more → total 0.75 s.
        assert_eq!(out.completed[0].latency, SimDuration::from_millis(750));
    }

    #[test]
    fn idle_replica_has_no_events() {
        let mut r = server();
        assert_eq!(r.next_event(), None);
        let out = r.advance(SimTime::from_secs(5));
        assert!(out.completed.is_empty() && out.timed_out.is_empty());
        assert_eq!(r.clock(), SimTime::from_secs(5));
    }

    #[test]
    fn many_requests_complete_in_fifo_of_size() {
        let mut r = server();
        for i in 0..10 {
            r.admit(i, SimTime::ZERO, SimTime::from_secs(600), cpu_req(100.0 * (i + 1) as f64));
        }
        let out = r.advance(SimTime::from_secs(60));
        assert_eq!(out.completed.len(), 10);
        // Smaller requests finish earlier under PS.
        let mut latencies: Vec<(u64, SimDuration)> =
            out.completed.iter().map(|c| (c.id, c.latency)).collect();
        latencies.sort_by_key(|(id, _)| *id);
        for w in latencies.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    #[should_panic(expected = "admission in the past")]
    fn admission_in_past_panics() {
        let mut r = server();
        r.advance(SimTime::from_secs(1));
        r.admit(1, SimTime::ZERO, SimTime::from_secs(2), cpu_req(1.0));
    }
}
