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

use evolve_types::{Resource, ResourceVec, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Tunables of the performance model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

/// The rate dimensions a request drains, in the order of
/// [`InFlightHot::remaining`].
const DIMS: [Resource; 3] = [Resource::Cpu, Resource::DiskIo, Resource::NetIo];

/// What every drain and next-event scan reads of a request being
/// executed: 32 bytes, two to a cache line.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct InFlightHot {
    /// Remaining drainable work (cpu mcore·s, disk MB, net MB).
    remaining: [f64; 3],
    deadline: SimTime,
}

/// The rest of the request, read when it arrives and when it leaves (and
/// by the working-set fold). Lives at the same index as its hot half.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct InFlightCold {
    id: u64,
    arrived: SimTime,
    working_set: f64,
}

/// A completed request.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Completion {
    /// Request id.
    pub id: u64,
    /// Time in the system (arrival → completion).
    pub latency: SimDuration,
}

/// Result of advancing a replica to a point in time.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplicaServer {
    alloc: ResourceVec,
    base_memory: f64,
    config: PerfConfig,
    /// In-flight requests, split hot/cold: `hot[i]` and `cold[i]` are one
    /// request. The two vectors are pushed, `swap_remove`d and cleared
    /// together, so their order is the order a single vector would have.
    hot: Vec<InFlightHot>,
    cold: Vec<InFlightCold>,
    clock: SimTime,
    /// Cumulative drained work (rate dimensions) for usage accounting.
    consumed: ResourceVec,
    dead: bool,
    /// Memoized next-event time and per-request rates, valid until the
    /// next state mutation (admit/resize/kill/drain). The engine queries
    /// `next_event` right after every drain to reschedule its wake-up, and
    /// the following `advance` needs the very same boundary and rates —
    /// this cache halves the dominant O(n) scan. Derived data: skipped by
    /// serde and rebuilt on demand.
    #[serde(skip)]
    cache: Option<NextCache>,
    /// Memoized working set. Cleared by every removal and recomputed at
    /// the first read after one as `base + Σ` (a left fold in vector
    /// order); while held, each admission extends it by one trailing add,
    /// giving `(base + Σ) + w` where a recompute would give `base + (Σ +
    /// w)`. So `working_set()` depends on whether a removal happened since
    /// the last read, not only on the in-flight set; the fixtures pin that
    /// history, which is why the fold is not made lazy.
    #[serde(skip)]
    ws: std::cell::Cell<Option<f64>>,
}

/// See [`ReplicaServer::cache`].
#[derive(Debug, Clone, Copy)]
struct NextCache {
    event: Option<SimTime>,
    rates: ResourceVec,
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

    /// Current allocation.
    #[must_use]
    pub fn alloc(&self) -> ResourceVec {
        self.alloc
    }

    /// Number of in-flight requests.
    #[must_use]
    pub fn inflight_len(&self) -> usize {
        self.hot.len()
    }

    /// Current memory footprint: base + Σ working sets (MiB).
    #[must_use]
    pub fn working_set(&self) -> f64 {
        if let Some(ws) = self.ws.get() {
            return ws;
        }
        let ws = self.base_memory + self.cold.iter().map(|r| r.working_set).sum::<f64>();
        self.ws.set(Some(ws));
        ws
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
        let mut out = self.consumed;
        out[Resource::Memory] = self.working_set();
        self.consumed = ResourceVec::ZERO;
        out
    }

    /// Applies a vertical resize at the replica's current clock.
    pub fn set_alloc(&mut self, alloc: ResourceVec) {
        self.alloc = alloc.sanitized();
        self.cache = None;
    }

    /// Current effective thrash factor (1 = healthy).
    #[must_use]
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
        self.admit_arrived(id, at, at, deadline, demand)
    }

    /// Like [`ReplicaServer::admit`], but with a separate logical arrival
    /// time used for latency accounting — a request that waited in a
    /// front-door queue keeps its original arrival.
    ///
    /// # Panics
    ///
    /// Panics when the replica is dead or `at` precedes the clock.
    pub fn admit_arrived(
        &mut self,
        id: u64,
        at: SimTime,
        arrived: SimTime,
        deadline: SimTime,
        demand: ResourceVec,
    ) -> Option<DrainOutcome> {
        let mut pre = DrainOutcome::default();
        if self.admit_arrived_into(id, at, arrived, deadline, demand, &mut pre) {
            Some(pre)
        } else {
            None
        }
    }

    /// Allocation-free form of [`ReplicaServer::admit_arrived`]: outcomes
    /// are pushed into `out` (not cleared first) and the return value says
    /// whether anything was recorded.
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
        self.dead = true;
        self.cache = None;
        self.ws.set(None);
        self.hot.clear();
        out.timed_out.extend(self.cold.drain(..).map(|r| r.id));
        out.oom_killed = true;
    }

    /// The absolute time of the next completion or timeout, `None` when
    /// idle. The engine schedules its wake-up here.
    ///
    /// The result is memoized: the engine calls this after every drain to
    /// reschedule, and the subsequent [`ReplicaServer::advance`] reuses
    /// the same boundary and rates instead of rescanning the in-flight
    /// set.
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

    /// Per-request drain rates at concurrency `n` (mcore, MB/s, MB/s),
    /// including the thrash penalty on CPU.
    fn effective_rates(&self, n: f64) -> ResourceVec {
        let thrash = self.thrash_factor();
        let mut rates = self.alloc * (1.0 / n.max(1.0));
        rates[Resource::Cpu] /= thrash;
        rates[Resource::Memory] = 0.0;
        rates
    }

    /// Absolute finish time estimate for one request at current rates.
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
