//! Model-based test of [`Replicas`], in the style of
//! `tests/pod_table_model.rs`: random operation sequences run against the
//! table and against a `BTreeMap` of servers — the structure the engine
//! used before the lanes — side by side. Both sides apply the same calls to
//! their own copy of each `ReplicaServer`; after every step they must agree
//! on keys, order, counts, lookups, versions and the arrival pick. A harvest
//! must return the bits of the old loops' working set and requests, and the
//! work it credits must agree within 1e-9 with the model's, which credits
//! every busy server from its own state up to the harvest instant where the
//! table reads untouched ones from their drain-rate records.
//! Every wake-up lookup is asked with a set of slot hints — the true slot,
//! the slot the timer was set from (stale once the table compacted or took
//! an insert below it), other pods' slots, slots past the end — and must
//! answer what the search by pod id alone answers.

use std::collections::{BTreeMap, BTreeSet};

use evolve_types::{PodId, Resource, ResourceVec, SimDuration, SimTime};
use proptest::prelude::*;

use super::Replicas;
use crate::perf::{DrainOutcome, PerfConfig, ReplicaServer};

/// A pod of the model: `None` while it waits for its server, then the
/// request the cluster holds for it and the server.
type Model = BTreeMap<PodId, Option<(ResourceVec, ReplicaServer)>>;

/// One step: (operation, selector, size in 0..1, clock advance in ms).
type Op = (u8, u64, f64, u64);

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..28, any::<u64>(), 0.0..1.0f64, 0u64..400), 1..400)
}

fn request(size: f64) -> ResourceVec {
    ResourceVec::new(500.0 + 1_500.0 * size, 256.0 + 512.0 * size, 50.0, 50.0 + 100.0 * size)
}

fn bits(v: ResourceVec) -> [u64; 4] {
    v.as_array().map(f64::to_bits)
}

/// Whether two credited work vectors agree within 1e-9, relative to the
/// larger (and to one unit of work).
fn agree(a: ResourceVec, b: ResourceVec) -> bool {
    a.as_array()
        .iter()
        .zip(b.as_array())
        .all(|(a, b)| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0))
}

/// The harvest as `service_window` and `batch_window` ran it before the
/// lanes, every server credited up to `now` first: every server asked for
/// its usage, then every request summed.
fn model_harvest(
    model: &mut Model,
    now: SimTime,
    consumed: &mut ResourceVec,
) -> (f64, ResourceVec) {
    let mut mem_total = 0.0;
    for (_, server) in model.values_mut().flatten() {
        server.credit_to(now);
        let mut used = server.take_consumed();
        mem_total += used[Resource::Memory];
        used[Resource::Memory] = 0.0;
        *consumed += used;
    }
    let mut alloc = ResourceVec::ZERO;
    for (request, _) in model.values().flatten() {
        alloc += *request;
    }
    (mem_total, alloc)
}

/// The arrival pick as `service_arrival` ran it before the lanes.
fn model_pick(model: &Model, draining: &BTreeSet<PodId>) -> Option<(PodId, u32)> {
    model
        .iter()
        .filter_map(|(pod, slot)| Some((*pod, &slot.as_ref()?.1)))
        .filter(|(pod, s)| !s.is_dead() && !draining.contains(pod))
        .min_by_key(|(pod, s)| (s.inflight_len(), pod.raw()))
        .map(|(pod, s)| (pod, s.inflight_len() as u32))
}

/// The item `sel` selects, if there is any.
fn choose(items: &[PodId], sel: u64) -> Option<PodId> {
    (!items.is_empty()).then(|| items[(sel % items.len() as u64) as usize])
}

/// The slots a wake-up for a pod now at `at` (or gone: `None`) is asked
/// with: right, set long ago, someone else's, and nowhere.
fn hints(table: &Replicas, at: Option<usize>, set_from: Option<usize>, sel: u64) -> Vec<usize> {
    let slots = table.slots();
    let mut hints =
        vec![0, sel as usize % slots.max(1), slots.saturating_sub(1), slots, usize::MAX];
    hints.extend(set_from);
    hints.extend(at.into_iter().flat_map(|at| [at, at + 1, at.saturating_sub(1)]));
    hints
}

fn check_agreement(
    table: &Replicas,
    model: &Model,
    versions: &BTreeMap<PodId, u64>,
    set_from: &BTreeMap<PodId, usize>,
    draining: &BTreeSet<PodId>,
    gone: &[PodId],
    sel: u64,
) -> Result<(), String> {
    let walk = std::iter::successors(table.next_live(0), |&(at, ..)| table.next_live(at + 1));
    let got: Vec<(PodId, bool)> = walk.map(|(_, pod, runs)| (pod, runs)).collect();
    let want: Vec<(PodId, bool)> = model.iter().map(|(pod, s)| (*pod, s.is_some())).collect();
    prop_assert_eq!(&got, &want, "keys, order or running marks differ from the model");
    prop_assert_eq!(table.live(), model.len());
    prop_assert_eq!(table.running(), model.values().flatten().count());
    prop_assert!(table.slots() <= 2 * table.live().max(1), "tombstones outnumber the living");
    prop_assert_eq!(table.next_live(table.slots()), None);
    for (pod, slot) in model {
        let found = table.running_slot(*pod);
        prop_assert_eq!(found.is_some(), slot.is_some(), "running_slot({}) is wrong", pod);
        let version = versions.get(pod).copied().unwrap_or(0);
        for hint in hints(table, found, set_from.get(pod).copied(), sel) {
            // A waiting pod has no timer; a running one has exactly one.
            prop_assert_eq!(table.wake_slot(*pod, version, hint), found, "hint {}", hint);
            prop_assert_eq!(table.wake_slot(*pod, version + 1, hint), None, "hint {}", hint);
        }
        if let (Some(at), Some((_, server))) = (found, slot) {
            prop_assert_eq!(table.next_live(at), Some((at, *pod, true)));
            prop_assert_eq!(table.is_idle(at), server.inflight_len() == 0);
        }
    }
    for pod in gone {
        prop_assert_eq!(table.running_slot(*pod), None, "{} is gone", pod);
        let version = versions.get(pod).copied().unwrap_or(0);
        for hint in hints(table, None, set_from.get(pod).copied(), sel) {
            prop_assert_eq!(table.wake_slot(*pod, version, hint), None, "{} is gone", pod);
        }
    }
    let picked = table.pick(draining);
    if let Some((at, pod, _)) = picked {
        prop_assert_eq!(table.running_slot(pod), Some(at), "the pick's slot is not its pod's");
    }
    let picked = picked.map(|(_, pod, n)| (pod, n));
    prop_assert_eq!(picked, model_pick(model, draining), "the pick differs from the model");
    Ok(())
}

fn server(size: f64, base_memory: f64, now: SimTime) -> ReplicaServer {
    ReplicaServer::new(request(size), base_memory, PerfConfig::default(), now)
}

/// The model's copy of a running pod's request and server.
fn running(model: &mut Model, pod: PodId) -> &mut (ResourceVec, ReplicaServer) {
    model.get_mut(&pod).and_then(Option::as_mut).expect("the pod runs")
}

fn run(ops: Vec<Op>) -> Result<(), String> {
    let mut table = Replicas::default();
    let mut model = Model::new();
    let mut versions: BTreeMap<PodId, u64> = BTreeMap::new();
    // Where each pod's timer was last set from, as a `WakeEntry` keeps it:
    // written when the pod starts and when its version is bumped, and left
    // to go stale under every compaction and insert in between.
    let mut set_from: BTreeMap<PodId, usize> = BTreeMap::new();
    let mut draining: BTreeSet<PodId> = BTreeSet::new();
    let mut gone: Vec<PodId> = Vec::new();
    let (mut table_used, mut model_used) = (ResourceVec::ZERO, ResourceVec::ZERO);
    // Ids only grow, in strides that leave gaps for out-of-order inserts.
    let (mut next_id, mut next_req) = (0u64, 0u64);
    let mut now = SimTime::ZERO;

    for (op, sel, size, gap_ms) in ops {
        now += SimDuration::from_millis(gap_ms);
        let runs: Vec<PodId> =
            model.iter().filter(|(_, s)| s.is_some()).map(|(pod, _)| *pod).collect();
        // The running pod this step is about, and where the table has it.
        let on =
            choose(&runs, sel).map(|pod| (pod, table.running_slot(pod).expect("the pod runs")));
        // A full table turns inserts into removals, so that it churns at a
        // steady size and compacts again and again.
        let op = if op <= 7 && model.len() >= 24 { 9 + (sel % 4) as u8 } else { op };
        match op {
            // Insert above every key (the push), started or waiting.
            0..=5 => {
                next_id += 1 + sel % 3;
                let pod = PodId::new(next_id);
                let started = (op != 0).then(|| (request(size), server(size, 64.0, now)));
                set_from.insert(pod, table.insert(pod, started.clone()));
                model.insert(pod, started);
            }
            // Insert out of order: an id in a gap, never used before.
            6 | 7 => {
                let pod = PodId::new(sel % (next_id + 1));
                if !model.contains_key(&pod) && !gone.contains(&pod) {
                    let started = (op == 6).then(|| (request(size), server(size, 0.0, now)));
                    set_from.insert(pod, table.insert(pod, started.clone()));
                    model.insert(pod, started);
                }
            }
            // A waiting pod starts: its key is already there.
            8 => {
                let waiting: Vec<PodId> =
                    model.iter().filter(|(_, s)| s.is_none()).map(|(pod, _)| *pod).collect();
                if let Some(pod) = choose(&waiting, sel) {
                    let started = Some((request(size), server(size, 0.0, now)));
                    set_from.insert(pod, table.insert(pod, started.clone()));
                    model.insert(pod, started);
                }
            }
            // Remove: oldest, newest, any, and one that is not there.
            9..=13 => {
                let pod = match op {
                    9 | 10 => model.keys().next().copied(),
                    11 => model.keys().next_back().copied(),
                    12 => choose(&model.keys().copied().collect::<Vec<_>>(), sel),
                    _ => gone.last().copied().or(Some(PodId::new(next_id + 7))),
                };
                if let Some(pod) = pod {
                    let was_here = table.remove(pod, now, &mut table_used);
                    let slot = model.remove(&pod);
                    prop_assert_eq!(was_here, slot.is_some(), "remove({}) return value", pod);
                    if let Some(slot) = slot {
                        // The old retire: the server's usage up to now
                        // survives it.
                        if let Some((_, mut server)) = slot {
                            server.credit_to(now);
                            let mut used = server.take_consumed();
                            used[Resource::Memory] = 0.0;
                            model_used += used;
                        }
                        draining.remove(&pod);
                        gone.push(pod);
                    }
                }
            }
            // Admit, through the accessor; a large working set OOM-kills.
            // One in three is a task-like item of up to a minute's CPU, so
            // that a busy server outlives harvests its records credit.
            14..=16 => {
                if let Some((pod, at)) =
                    on.filter(|(pod, _)| !running(&mut model, *pod).1.is_dead())
                {
                    let cpu = if op == 16 { 60_000.0 * size } else { 40.0 + 400.0 * size };
                    let demand = ResourceVec::new(cpu, 900.0 * size * size, 2.0, 8.0 * size);
                    let deadline = now + SimDuration::from_millis(200 + sel % 3_000);
                    next_req += 1;
                    let got = table
                        .with(at, |s| (s.admit(next_req, now, deadline, demand), s.next_event()));
                    let (_, server) = running(&mut model, pod);
                    let want = (server.admit(next_req, now, deadline, demand), server.next_event());
                    prop_assert_eq!(got, want);
                }
            }
            // Advance to now, through the accessor.
            17 | 18 => {
                if let Some((pod, at)) = on {
                    let got = table.with(at, |s| s.advance(now));
                    prop_assert_eq!(got, running(&mut model, pod).1.advance(now));
                }
            }
            // An in-place resize: the server and the request move together.
            19 => {
                if let Some((pod, at)) = on {
                    let mut got = DrainOutcome::default();
                    let next = table.resize(at, now, request(size), &mut got);
                    let (held, server) = running(&mut model, pod);
                    let out = server.advance(now);
                    server.set_alloc(request(size));
                    *held = request(size);
                    prop_assert_eq!((got, next), (out, server.next_event()));
                }
            }
            // Kill, through the accessor, credited up to now first.
            20 => {
                if let Some((pod, at)) = on {
                    let got = table.with(at, |s| {
                        s.credit_to(now);
                        s.kill()
                    });
                    let (_, server) = running(&mut model, pod);
                    server.credit_to(now);
                    prop_assert_eq!(got, server.kill());
                }
            }
            // The draining set changes.
            21 => {
                if let Some((pod, _)) = on {
                    if !draining.remove(&pod) {
                        draining.insert(pod);
                    }
                }
            }
            // A wake-timer version is bumped.
            22 => {
                if let Some((pod, at)) = on {
                    let version = versions.entry(pod).or_insert(0);
                    *version += 1;
                    prop_assert_eq!(table.bump_version(at), *version);
                    set_from.insert(pod, at);
                }
            }
            // Harvest: the working set and requests bit for bit the old
            // loops', the window's work within 1e-9; a new window starts.
            _ => {
                let (got_mem, got_alloc) = table.harvest(now, &mut table_used);
                let (want_mem, want_alloc) = model_harvest(&mut model, now, &mut model_used);
                prop_assert_eq!(got_mem.to_bits(), want_mem.to_bits(), "mem_total");
                prop_assert_eq!(bits(got_alloc), bits(want_alloc), "alloc");
                prop_assert!(agree(table_used, model_used), "window {table_used} vs {model_used}");
                (table_used, model_used) = (ResourceVec::ZERO, ResourceVec::ZERO);
            }
        }
        prop_assert!(agree(table_used, model_used), "consumed {table_used} vs {model_used}");
        check_agreement(&table, &model, &versions, &set_from, &draining, &gone, sel)?;
    }
    // Whatever the sequence left unharvested is still all there.
    let got = table.harvest(now, &mut table_used);
    let want = model_harvest(&mut model, now, &mut model_used);
    prop_assert_eq!((got.0.to_bits(), bits(got.1)), (want.0.to_bits(), bits(want.1)));
    prop_assert!(agree(table_used, model_used), "last window {table_used} vs {model_used}");
    Ok(())
}

/// One replica of the pick test: requests in flight, killed, draining,
/// still waiting for its server.
type PickLane = (u32, bool, bool, bool);

/// The pick alone, on tables the churn above seldom builds: many replicas,
/// few of them idle and those at random slots, several equally loaded,
/// dead and draining ones in between.
fn run_pick(lanes: Vec<PickLane>) -> Result<(), String> {
    let mut table = Replicas::default();
    let mut model = Model::new();
    let mut draining = BTreeSet::new();
    let demand = ResourceVec::new(40.0, 1.0, 0.0, 0.0);
    for (i, (inflight, dead, drains, waits)) in lanes.into_iter().enumerate() {
        let pod = PodId::new(3 * i as u64);
        let started = (!waits).then(|| (request(0.5), server(0.5, 0.0, SimTime::ZERO)));
        let at = table.insert(pod, started.clone());
        model.insert(pod, started);
        if waits {
            continue;
        }
        for id in 0..u64::from(inflight) {
            table.with(at, |s| s.admit(id, SimTime::ZERO, SimTime::MAX, demand));
            running(&mut model, pod).1.admit(id, SimTime::ZERO, SimTime::MAX, demand);
        }
        if dead {
            table.with(at, ReplicaServer::kill);
            running(&mut model, pod).1.kill();
        }
        if drains {
            draining.insert(pod);
        }
        for set in [&BTreeSet::new(), &draining] {
            let picked =
                table.pick(set).map(|(at, pod, n)| (table.running_slot(pod) == Some(at), pod, n));
            let want = model_pick(&model, set).map(|(pod, n)| (true, pod, n));
            prop_assert_eq!(picked, want, "the pick differs from the model");
        }
    }
    Ok(())
}

proptest! {
    #[test]
    fn replicas_match_btreemap_model(ops in arb_ops()) {
        run(ops)?;
    }

    #[test]
    fn pick_matches_model_over_random_counts(
        lanes in prop::collection::vec((0u32..4, 0u8..8, 0u8..6, 0u8..10), 1..130)
    ) {
        // One in eight dead, one in six draining, one in ten waiting.
        run_pick(lanes.into_iter().map(|(n, d, g, w)| (n, d == 0, g == 0, w == 0)).collect())?;
    }
}

/// A hint is a guess: the wake-up takes it only when the lane there is its
/// pod's, whatever else that lane has in common with the right one.
#[test]
fn a_hint_is_checked_against_its_pod() {
    let mut table = Replicas::default();
    let pods: Vec<PodId> = (0..8).map(PodId::new).collect();
    let set_from: Vec<usize> = pods
        .iter()
        .map(|&pod| table.insert(pod, Some((request(0.5), server(0.5, 0.0, SimTime::ZERO)))))
        .collect();
    assert_eq!(set_from, [0, 1, 2, 3, 4, 5, 6, 7]);
    // Every lane runs at version 0, so only the pod tells them apart.
    for (&pod, &at) in pods.iter().zip(&set_from) {
        for hint in 0..10 {
            assert_eq!(table.wake_slot(pod, 0, hint), Some(at), "{pod} asked with {hint}");
        }
    }
    // Five removals compact the table under the three timers still queued.
    let mut used = ResourceVec::ZERO;
    for &pod in &pods[..5] {
        assert!(table.remove(pod, SimTime::ZERO, &mut used));
    }
    assert_eq!(table.slots(), 3, "the table compacted");
    for (now_at, (&pod, &stale)) in pods[5..].iter().zip(&set_from[5..]).enumerate() {
        for hint in [stale, now_at, (now_at + 1) % 3, 3, usize::MAX] {
            assert_eq!(table.wake_slot(pod, 0, hint), Some(now_at), "{pod} asked with {hint}");
            assert_eq!(table.wake_slot(pod, 1, hint), None, "a timer not set yet");
        }
    }
    for (&pod, &stale) in pods[..5].iter().zip(&set_from) {
        assert_eq!(table.wake_slot(pod, 0, stale), None, "{pod} is gone");
    }
}

/// Harvests the table and the model at `ms`: the working set and requests
/// bit for bit, the window's work within 1e-9. Returns whether the table
/// ran the pass.
fn harvest_both(
    table: &mut Replicas,
    model: &mut Model,
    ms: u64,
    used: &mut (ResourceVec, ResourceVec),
) -> bool {
    let now = SimTime::from_millis(ms);
    let (got_mem, got_alloc) = table.harvest(now, &mut used.0);
    let (want_mem, want_alloc) = model_harvest(model, now, &mut used.1);
    assert_eq!(got_mem.to_bits(), want_mem.to_bits(), "mem_total at {ms} ms");
    assert_eq!(bits(got_alloc), bits(want_alloc), "alloc at {ms} ms");
    assert!(agree(used.0, used.1), "window at {ms} ms: {} vs {}", used.0, used.1);
    *used = (ResourceVec::ZERO, ResourceVec::ZERO);
    table.last_harvest_passed()
}

/// Runs `f` on pod `slot`'s server in the table and in the model; both
/// must answer alike. The pods are `0..n` in slot order.
fn on_both<R: PartialEq + std::fmt::Debug>(
    table: &mut Replicas,
    model: &mut Model,
    slot: usize,
    f: impl Fn(&mut ReplicaServer) -> R,
) {
    let got = table.with(slot, &f);
    assert_eq!(got, f(&mut running(model, PodId::new(slot as u64)).1), "slot {slot}");
}

/// Each rule that makes a harvest run the pass, one step each on 120
/// idle servers, with quiet harvests between them; every harvest is held
/// to the model's bits.
#[test]
fn a_quiet_harvest_returns_the_last_pass() {
    let mut table = Replicas::default();
    let mut model = Model::new();
    let mut used = (ResourceVec::ZERO, ResourceVec::ZERO);
    for pod in (0..120).map(PodId::new) {
        let started = Some((request(0.5), server(0.5, 64.0, SimTime::ZERO)));
        table.insert(pod, started.clone());
        model.insert(pod, started);
    }
    assert!(harvest_both(&mut table, &mut model, 1_000, &mut used), "120 pods came");
    let admit = |id, ms, deadline_ms, demand| {
        move |s: &mut ReplicaServer| {
            let deadline = SimTime::from_millis(deadline_ms);
            s.admit(id, SimTime::from_millis(ms), deadline, demand)
        }
    };
    let advance = |ms| move |s: &mut ReplicaServer| s.advance(SimTime::from_millis(ms));

    // Ten admissions, each done well before the next harvest.
    let small = ResourceVec::new(40.0, 100.0, 2.0, 4.0);
    for (id, slot) in (0..10).map(|i| (i, 11 * i as usize + 3)) {
        on_both(&mut table, &mut model, slot, admit(id, 1_100, 4_000, small));
        on_both(&mut table, &mut model, slot, advance(1_500));
    }
    assert!(!harvest_both(&mut table, &mut model, 2_000, &mut used), "ten idle servers: quiet");

    // Two servers busy at the harvest instant: A's work runs dry at
    // 4.1 s, B's outlasts its deadline at 8 s.
    let (a, b) = (20, 40);
    on_both(
        &mut table,
        &mut model,
        a,
        admit(10, 2_100, 60_000, ResourceVec::new(2_500.0, 300.0, 10.0, 0.0)),
    );
    on_both(
        &mut table,
        &mut model,
        b,
        admit(11, 2_100, 8_000, ResourceVec::new(60_000.0, 200.0, 0.0, 0.0)),
    );
    assert!(harvest_both(&mut table, &mut model, 3_000, &mut used), "read busy");
    // Untouched, both join the rate sum.
    assert!(harvest_both(&mut table, &mut model, 3_500, &mut used), "records join the sum");
    // A's record runs out: A is read again, and its new record joins.
    assert!(harvest_both(&mut table, &mut model, 5_000, &mut used), "a record ran out");
    assert!(harvest_both(&mut table, &mut model, 5_500, &mut used), "a record joins the sum");
    assert!(!harvest_both(&mut table, &mut model, 6_000, &mut used), "nothing touched: quiet");

    // B is busy at its first touch, which times its request out.
    on_both(&mut table, &mut model, b, advance(8_500));
    assert!(table.is_idle(b));
    assert!(harvest_both(&mut table, &mut model, 9_000, &mut used), "busy at first touch");
    assert!(!harvest_both(&mut table, &mut model, 9_500, &mut used), "nothing touched: quiet");

    // A resize and a removal, each of an idle server.
    let mut out = DrainOutcome::default();
    table.resize(60, SimTime::from_millis(9_700), request(0.9), &mut out);
    let (held, server) = running(&mut model, PodId::new(60));
    server.advance(SimTime::from_millis(9_700));
    server.set_alloc(request(0.9));
    *held = request(0.9);
    assert!(harvest_both(&mut table, &mut model, 10_000, &mut used), "a resize");
    assert!(table.remove(PodId::new(80), SimTime::from_millis(10_200), &mut used.0));
    let (_, mut server) = model.remove(&PodId::new(80)).flatten().expect("pod 80 ran");
    server.credit_to(SimTime::from_millis(10_200));
    let mut drained = server.take_consumed();
    drained[Resource::Memory] = 0.0;
    used.1 += drained;
    assert!(harvest_both(&mut table, &mut model, 10_500, &mut used), "a removal");
    on_both(&mut table, &mut model, 90, admit(12, 10_600, 20_000, small));
    on_both(&mut table, &mut model, 90, advance(10_900));
    assert!(!harvest_both(&mut table, &mut model, 11_000, &mut used), "one idle server: quiet");
}
