//! Replica lanes: one application's pods in pod-id order, each running
//! pod's [`ReplicaServer`] beside a small *lane* that mirrors what the
//! per-tick harvest reads, a dense column of in-flight counts, which is
//! all the per-arrival pick reads, and a column of drain-rate records, which
//! credit a busy server no event has reached without reading it. A wake-up
//! brings the slot its timer was set from, and searches only when that is
//! no longer its pod's (DESIGN.md decision 9).

use std::collections::BTreeSet;

use evolve_types::{PodId, Resource, ResourceVec, SimTime};

use crate::perf::{DrainOutcome, PerfConfig, ReplicaServer};

/// In-flight count of a slot no arrival may pick: no server, or a dead one.
const CLOSED: u32 = u32::MAX;

/// What a slot's server drains while no event reaches it.
#[derive(Debug, Clone, Copy)]
struct DrainRecord {
    /// Per second, in the server's rate dimensions (cpu, disk, net).
    rate: [f64; 3],
    /// The last instant `rate` holds for.
    until: SimTime,
}

impl DrainRecord {
    /// Valid for nothing.
    const NONE: DrainRecord = DrainRecord { rate: [0.0; 3], until: SimTime::ZERO };
}

/// What the last full pass of the harvest summed, each a left fold over
/// the running lanes in slot order.
#[derive(Debug, Clone, Copy)]
struct Sums {
    /// The lanes' working sets.
    memory: f64,
    /// The lanes' requests.
    alloc: ResourceVec,
    /// The rates of the records the pass credited unread.
    rate: [f64; 3],
    /// The earliest `until` among those records.
    until: SimTime,
}

impl Default for Sums {
    fn default() -> Self {
        Sums { memory: 0.0, alloc: ResourceVec::ZERO, rate: [0.0; 3], until: SimTime::MAX }
    }
}

/// What the harvest and a wake-up read of a slot.
#[derive(Debug)]
struct Lane {
    pod: PodId,
    /// The pod's request as the cluster holds it: written when the pod
    /// starts and by [`Replicas::resize`].
    request: ResourceVec,
    /// `working_set()` of the server when it was last harvested, which is
    /// what it still is while the lane stays untouched.
    ws: f64,
    /// Wake-timer version, bumped on every reschedule so a stale timer is
    /// recognised.
    version: u64,
    /// `false` once removed: a tombstone keeps its key, so the order and
    /// the binary search hold, until the table compacts.
    live: bool,
    /// The slot has a server: the pod is `Running`.
    running: bool,
    /// A `&mut ReplicaServer` went out since the last harvest. The harvest
    /// credits a touched server from its own state and an untouched one
    /// from its drain-rate record, while the record holds.
    touched: bool,
}

/// One application's pods — services keep their running replicas here,
/// batch jobs every active task, started or not.
#[derive(Debug, Default)]
pub(crate) struct Replicas {
    lanes: Vec<Lane>,
    /// Parallel to `lanes`: `inflight_len()` of the slot's server, or
    /// [`CLOSED`], four bytes a slot. [`Replicas::with`], `insert` and
    /// `remove` (which also compacts it) are its only writers.
    inflight: Vec<u32>,
    /// Parallel to `lanes`, and private: [`Replicas::with`] is the only way
    /// to a `&mut ReplicaServer`, because a lane missing its *touched* mark
    /// would be credited from a record its server no longer keeps to.
    servers: Vec<Option<ReplicaServer>>,
    /// Parallel to `lanes`; only the harvest reads or refreshes a record.
    records: Vec<DrainRecord>,
    /// What the last pass summed, which a quiet harvest returns.
    sums: Sums,
    /// Something the last pass summed may have moved since: the next
    /// harvest is a pass. Set by `insert`, `remove`, `resize`, the first
    /// touch of a server with requests in flight, and a pass that reads a
    /// server busy.
    moved: bool,
    /// While nothing moved: the slots [`Replicas::with`] touched first
    /// since the last harvest, each once.
    touched: Vec<u32>,
    /// Whether the last harvest ran the pass.
    #[cfg(test)]
    passed: bool,
    /// The last harvest: every busy server's work is credited up to here,
    /// by the server itself or by its record.
    harvested: SimTime,
    live: usize,
    running: usize,
    /// Servers of removed pods, kept for their buffers:
    /// [`Replicas::renewed`] hands them to pods that start later.
    retired: Vec<ReplicaServer>,
}

impl Replicas {
    /// Room for `pods` live pods and the tombstones kept beside them until
    /// the table compacts, which it does once they outnumber the living,
    /// and for the servers of as many pods retired.
    pub(crate) fn reserve(&mut self, pods: usize) {
        let slots = (2 * pods + 1).saturating_sub(self.lanes.len());
        self.lanes.reserve(slots);
        self.inflight.reserve(slots);
        self.servers.reserve(slots);
        self.records.reserve(slots);
        self.touched.reserve((2 * pods + 1).saturating_sub(self.touched.len()));
        self.retired.reserve(pods.saturating_sub(self.retired.len()));
    }

    /// Pods in the table.
    pub(crate) fn live(&self) -> usize {
        self.live
    }

    /// Pods with a server, which is exactly the `Running` ones.
    pub(crate) fn running(&self) -> usize {
        self.running
    }

    /// The first pod at or after slot `from`, as `(slot, pod, runs)`. Asked
    /// again with `slot + 1` it walks the pods in pod-id order, and the body
    /// of such a walk may change the table: slots hold while no pod is
    /// added or removed.
    pub(crate) fn next_live(&self, from: usize) -> Option<(usize, PodId, bool)> {
        let mut lanes = self.lanes.iter().enumerate().skip(from);
        lanes.find(|(_, l)| l.live).map(|(slot, l)| (slot, l.pod, l.running))
    }

    /// Slots, tombstones included.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.lanes.len()
    }

    /// Where `pod` is, tombstone or not, or where it would go.
    fn find(&self, pod: PodId) -> Result<usize, usize> {
        self.lanes.binary_search_by_key(&pod, |l| l.pod)
    }

    /// The slot of a pod that has a server.
    pub(crate) fn running_slot(&self, pod: PodId) -> Option<usize> {
        self.find(pod).ok().filter(|&slot| self.lanes[slot].running)
    }

    /// The slot a wake-up is for, unless its pod has gone or a later
    /// reschedule has retired that timer. `hint`, the slot the timer was set
    /// from, is taken while it holds `pod` — a pod has one slot — and
    /// replaced by a search once a compaction or an insert has moved it.
    pub(crate) fn wake_slot(&self, pod: PodId, version: u64, hint: usize) -> Option<usize> {
        let hinted = self.lanes.get(hint).is_some_and(|lane| lane.pod == pod);
        let slot = if hinted { hint } else { self.find(pod).ok()? };
        (self.lanes[slot].running && self.lanes[slot].version == version).then_some(slot)
    }

    /// Retires the slot's wake-up timer and returns the version of the next.
    pub(crate) fn bump_version(&mut self, slot: usize) -> u64 {
        let version = &mut self.lanes[slot].version;
        *version += 1;
        *version
    }

    /// Nothing in flight on the slot's server: it idles, or it is dead and
    /// its requests died with it.
    pub(crate) fn is_idle(&self, slot: usize) -> bool {
        matches!(self.inflight[slot], 0 | CLOSED)
    }

    /// A server for a pod of this table that starts at `now`, as
    /// [`ReplicaServer::new`] builds it: the last one retired here,
    /// renewed, while there is one.
    pub(crate) fn renewed(
        &mut self,
        alloc: ResourceVec,
        base_memory: f64,
        now: SimTime,
    ) -> ReplicaServer {
        match self.retired.pop() {
            Some(mut server) => {
                server.renew(alloc, base_memory, PerfConfig::default(), now);
                server
            }
            None => ReplicaServer::new(alloc, base_memory, PerfConfig::default(), now),
        }
    }

    /// Adds `pod`, or gives a pod already here its server. Pod ids only grow:
    /// a new key usually lies above the last lane's, and is pushed unsearched.
    pub(crate) fn insert(
        &mut self,
        pod: PodId,
        started: Option<(ResourceVec, ReplicaServer)>,
    ) -> usize {
        self.moved = true;
        let above_all = self.lanes.last().is_none_or(|last| last.pod < pod);
        let slot = match if above_all { Err(self.lanes.len()) } else { self.find(pod) } {
            Ok(slot) => slot,
            Err(slot) => {
                let lane = Lane {
                    pod,
                    request: ResourceVec::ZERO,
                    ws: 0.0,
                    version: 0,
                    live: false,
                    running: false,
                    touched: false,
                };
                self.lanes.insert(slot, lane);
                self.inflight.insert(slot, CLOSED);
                self.servers.insert(slot, None);
                self.records.insert(slot, DrainRecord::NONE);
                slot
            }
        };
        let lane = &mut self.lanes[slot];
        debug_assert!(!lane.running, "{pod} started twice");
        self.live += usize::from(!lane.live);
        lane.live = true;
        if let Some((request, server)) = started {
            // Touched: its first harvest reads the server, which no record
            // has credited anything of.
            (lane.request, lane.running, lane.touched) = (request, true, true);
            self.inflight[slot] = in_flight(&server);
            self.servers[slot] = Some(server);
            self.running += 1;
        }
        slot
    }

    /// Takes `pod` out in O(1), folding what its server drained since the
    /// last harvest, up to `now`, into `consumed`. Returns whether it was
    /// here.
    pub(crate) fn remove(&mut self, pod: PodId, now: SimTime, consumed: &mut ResourceVec) -> bool {
        let Ok(slot) = self.find(pod) else {
            return false;
        };
        let lane = &mut self.lanes[slot];
        if !lane.live {
            return false;
        }
        self.moved = true;
        if let Some(mut server) = self.servers[slot].take() {
            if !lane.touched {
                server.skip_to(self.harvested);
            }
            server.credit_to(now);
            credit(&mut server, consumed);
            self.running -= 1;
            self.retired.push(server);
        }
        (lane.live, lane.running, self.inflight[slot]) = (false, false, CLOSED);
        self.live -= 1;
        // Compact once tombstones outnumber the living: O(1) amortised,
        // where shifting a 2 000-task table per completion is not.
        if self.lanes.len() - self.live > self.live {
            let mut live = self.lanes.iter().map(|l| l.live);
            self.servers.retain(|_| live.next().expect("one server slot per lane"));
            let mut live = self.lanes.iter().map(|l| l.live);
            self.inflight.retain(|_| live.next().expect("one count per lane"));
            let mut live = self.lanes.iter().map(|l| l.live);
            self.records.retain(|_| live.next().expect("one record per lane"));
            self.lanes.retain(|l| l.live);
        }
        true
    }

    /// The only way to a `&mut ReplicaServer`: the first call since the
    /// harvest is the slot's first touch; then mirrors the server's
    /// in-flight count when `f` is done with it.
    pub(crate) fn with<R>(&mut self, slot: usize, f: impl FnOnce(&mut ReplicaServer) -> R) -> R {
        if !self.lanes[slot].touched {
            self.first_touch(slot);
        }
        let server = self.servers[slot].as_mut().expect("slot has a server");
        let out = f(server);
        self.inflight[slot] = in_flight(server);
        out
    }

    /// The first touch of a slot since the harvest marks its lane touched;
    /// the server skips what its record credited in the meantime, and the
    /// slot joins `touched`, unless the server had requests in flight,
    /// which moves the sums. Out of line, so that `with`, inlined into
    /// every event, stays small.
    #[inline(never)]
    fn first_touch(&mut self, slot: usize) {
        self.lanes[slot].touched = true;
        self.servers[slot].as_mut().expect("slot has a server").skip_to(self.harvested);
        // Busy since the last harvest: its record was summed, or that pass
        // read it busy, and its working set may move now.
        self.moved |= self.inflight[slot] != 0;
        if !self.moved {
            self.touched.push(slot as u32);
        }
    }

    /// The pod's request as the cluster holds it.
    pub(crate) fn request(&self, slot: usize) -> ResourceVec {
        self.lanes[slot].request
    }

    /// An in-place resize the cluster has accepted: the server is brought
    /// to `now` at its old allocation, and takes the new one together with
    /// the lane's copy of the request. What the advance drained is appended
    /// to `out`; returns the server's next event.
    pub(crate) fn resize(
        &mut self,
        slot: usize,
        now: SimTime,
        request: ResourceVec,
        out: &mut DrainOutcome,
    ) -> Option<SimTime> {
        self.moved = true;
        self.lanes[slot].request = request;
        self.with(slot, |server| {
            server.advance_into(now, out);
            server.set_sanitized_alloc(request);
            server.next_event()
        })
    }

    /// The live replica outside `draining` with the fewest requests in
    /// flight, as `(slot, pod, in flight)`; of equals, the lowest pod id.
    /// One ascending pass over the counts that ends at the first idle
    /// replica: nothing after it has fewer, and an equal loses the tie.
    pub(crate) fn pick(&self, draining: &BTreeSet<PodId>) -> Option<(usize, PodId, u32)> {
        let mut best = None;
        let mut least = CLOSED;
        for (slot, &n) in self.inflight.iter().enumerate() {
            if n < least && (draining.is_empty() || !draining.contains(&self.lanes[slot].pod)) {
                (best, least) = (Some(slot), n);
                if n == 0 {
                    break;
                }
            }
        }
        best.map(|slot| (slot, self.lanes[slot].pod, least))
    }

    /// Folds what every running server drained since the last harvest, up
    /// to `now`, into `consumed` and returns the summed working set and the
    /// summed requests. A touched server, or a busy one whose record has run
    /// out, is credited from its own state and given a new record; an
    /// untouched busy one from its record, unread. Sums over lanes add in
    /// pod-id order.
    ///
    /// A quiet harvest reads only the servers touched since the last one and
    /// returns the last pass's sums: no pod came, went or was resized, each
    /// touched server was idle at its first touch and is idle now, and no
    /// summed record has run out, so a pass would add the same terms in the
    /// same order (DESIGN.md decision 9, "The quiet harvest"). Any other
    /// harvest is one ascending pass over the running pods, which keeps its
    /// sums.
    pub(crate) fn harvest(
        &mut self,
        now: SimTime,
        consumed: &mut ResourceVec,
    ) -> (f64, ResourceVec) {
        let quiet = !self.moved
            && now <= self.sums.until
            && self.touched.iter().all(|&slot| self.inflight[slot as usize] == 0);
        if quiet {
            self.read_touched(now, consumed);
        } else {
            self.pass(now, consumed);
        }
        #[cfg(test)]
        {
            self.passed = !quiet;
        }
        self.touched.clear();
        let secs = now.saturating_since(self.harvested).as_secs_f64();
        let [cpu, disk, net] = self.sums.rate.map(|rate| rate * secs);
        *consumed += ResourceVec::new(cpu, 0.0, disk, net);
        self.harvested = now;
        (self.sums.memory, self.sums.alloc)
    }

    /// Whether the last harvest ran the pass.
    #[cfg(test)]
    pub(crate) fn last_harvest_passed(&self) -> bool {
        self.passed
    }

    /// The harvest's pass: reads every touched server and every busy one
    /// whose record has run out, folds the rest, and keeps the sums. A
    /// server it leaves busy moves them: its record joins the rate sum at
    /// the next harvest.
    fn pass(&mut self, now: SimTime, consumed: &mut ResourceVec) {
        let (mut memory, mut alloc) = (0.0, ResourceVec::ZERO);
        // The summed rate of the servers credited from their records.
        let (mut rate, mut until) = ([0.0; 3], SimTime::MAX);
        let mut read_busy = false;
        let slots = self.lanes.iter_mut().zip(&mut self.records).zip(&self.inflight);
        for (((lane, record), &inflight), server) in slots.zip(&mut self.servers) {
            if !lane.running {
                continue;
            }
            let busy = !matches!(inflight, 0 | CLOSED);
            let touched = std::mem::take(&mut lane.touched);
            if touched || (busy && now > record.until) {
                let skip = (!touched).then_some(self.harvested);
                lane.ws = read(server.as_mut().expect("running"), record, skip, now, consumed);
                read_busy |= busy;
            } else if busy {
                for (sum, rate) in rate.iter_mut().zip(record.rate) {
                    *sum += rate;
                }
                until = until.min(record.until);
            }
            memory += lane.ws;
            alloc += lane.request;
        }
        self.sums = Sums { memory, alloc, rate, until };
        self.moved = read_busy;
    }

    /// The quiet harvest's reads: each touched server, in slot order, as
    /// the pass reads it. Every one idles, so its working set is the one
    /// the last pass summed.
    fn read_touched(&mut self, now: SimTime, consumed: &mut ResourceVec) {
        self.touched.sort_unstable();
        for &slot in &self.touched {
            let slot = slot as usize;
            self.lanes[slot].touched = false;
            let server = self.servers[slot].as_mut().expect("running");
            let ws = read(server, &mut self.records[slot], None, now, consumed);
            debug_assert_eq!(ws.to_bits(), self.lanes[slot].ws.to_bits(), "an idle ws moved");
        }
        #[cfg(debug_assertions)]
        self.check_sums(now);
    }

    /// Re-walks the lanes read-only after a quiet harvest: the kept sums
    /// must have the bits of a fresh fold, every busy server's record must
    /// still hold, and every lane's working set must be its server's.
    #[cfg(debug_assertions)]
    fn check_sums(&self, now: SimTime) {
        let (mut memory, mut alloc) = (0.0, ResourceVec::ZERO);
        let (mut rate, mut until) = ([0.0f64; 3], SimTime::MAX);
        let slots = self.lanes.iter().zip(&self.records).zip(&self.inflight);
        for (((lane, record), &inflight), server) in slots.zip(&self.servers) {
            if !lane.running {
                continue;
            }
            let server = server.as_ref().expect("running");
            debug_assert_eq!(lane.ws.to_bits(), server.working_set().to_bits(), "{}", lane.pod);
            if !matches!(inflight, 0 | CLOSED) {
                debug_assert!(now <= record.until, "{}'s record ran out", lane.pod);
                for (sum, rate) in rate.iter_mut().zip(record.rate) {
                    *sum += rate;
                }
                until = until.min(record.until);
            }
            memory += lane.ws;
            alloc += lane.request;
        }
        let kept = self.sums;
        debug_assert_eq!(kept.memory.to_bits(), memory.to_bits(), "kept memory");
        debug_assert_eq!(
            kept.alloc.as_array().map(f64::to_bits),
            alloc.as_array().map(f64::to_bits),
            "kept alloc"
        );
        debug_assert_eq!(kept.rate.map(f64::to_bits), rate.map(f64::to_bits), "kept rate");
        debug_assert_eq!(kept.until, until, "kept until");
    }
}

/// The in-flight count the column holds for `server`.
fn in_flight(server: &ReplicaServer) -> u32 {
    if server.is_dead() {
        CLOSED
    } else {
        server.inflight_len() as u32
    }
}

/// The harvest's read of a server: an untouched one first skips what its
/// record credited up to `skip`, the last harvest; then the server is
/// credited up to `now` into `consumed` and given a new record. Returns its
/// working set. Out of line, so that the pass keeps its sums in registers.
#[inline(never)]
fn read(
    server: &mut ReplicaServer,
    record: &mut DrainRecord,
    skip: Option<SimTime>,
    now: SimTime,
    consumed: &mut ResourceVec,
) -> f64 {
    if let Some(harvested) = skip {
        server.skip_to(harvested);
    }
    server.credit_to(now);
    let ws = credit(server, consumed);
    let (rate, until) = server.drain_rate(now);
    *record = DrainRecord { rate, until };
    ws
}

/// Moves the rate work `server` drained since it was last asked into
/// `consumed`. Memory is space, not rate: its working set is returned.
fn credit(server: &mut ReplicaServer, consumed: &mut ResourceVec) -> f64 {
    let mut used = server.take_consumed();
    let working_set = std::mem::take(&mut used[Resource::Memory]);
    *consumed += used;
    working_set
}
