//! Model-based test of `ClusterState`'s pod table: random operation
//! sequences run against the real cluster and a `BTreeMap<PodId, Pod>`
//! model side by side. The model owns the pod-level rules (which phase
//! admits which transition, what each transition writes); the cluster
//! alone decides node-level outcomes (capacity, limits), and the model
//! follows it there. After every step the two must agree on every pod,
//! on iteration order, on the pending queue and on unknown ids.

use std::collections::BTreeMap;

use evolve_sim::{ClusterConfig, ClusterState, NodeShape, Pod, PodKind, PodPhase, PodSpec};
use evolve_types::{AppId, Error, NodeId, PodId, ResourceVec, SimDuration, SimTime};
use proptest::prelude::*;

const NODES: u32 = 3;

/// One step: (operation, pod selector, node selector, request size,
/// clock advance in ms). Selectors are reduced modulo "live ids + 2" so
/// every operation also meets ids just past the end of the table.
type Op = (u8, u64, u32, f64, u64);

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec((0u8..10, any::<u64>(), 0u32..NODES + 1, 20.0..450.0f64, 0u64..3), 1..160)
}

fn unknown_pod<T: std::fmt::Debug>(result: &Result<T, Error>, id: PodId) -> bool {
    matches!(result, Err(Error::UnknownPod(got)) if *got == id)
}

/// The pod-level half of an operation's contract, decided by the model
/// alone: an id past the table is `UnknownPod`, a pod in the wrong phase
/// is `InvalidState`. Returns whether the model admits the operation, in
/// which case only a node-level reason may still fail it.
fn admitted<T: std::fmt::Debug>(
    model: &BTreeMap<PodId, Pod>,
    id: PodId,
    admits: impl Fn(&Pod) -> bool,
    result: &Result<T, Error>,
) -> Result<bool, String> {
    match model.get(&id).map(admits) {
        None => prop_assert!(unknown_pod(result, id), "{:?} for an id past the table", result),
        Some(false) => prop_assert!(matches!(result, Err(Error::InvalidState(_)))),
        Some(true) => return Ok(true),
    }
    Ok(false)
}

fn check_agreement(cluster: &ClusterState, model: &BTreeMap<PodId, Pod>) -> Result<(), String> {
    let table: Vec<&Pod> = cluster.pods().collect();
    let expected: Vec<&Pod> = model.values().collect();
    prop_assert_eq!(&table, &expected, "pods() differs from the model in value or order");
    for (id, pod) in model {
        prop_assert_eq!(cluster.pod(*id).ok(), Some(pod));
    }
    let len = model.len() as u64;
    for raw in [len, len + 1, u64::MAX] {
        let id = PodId::new(raw);
        prop_assert!(unknown_pod(&cluster.pod(id), id), "pod({}) must be UnknownPod", raw);
    }
    let mut queue: Vec<&Pod> = model.values().filter(|p| p.is_pending()).collect();
    queue.sort_by_key(|p| (p.created, p.id));
    let pending: Vec<&Pod> = cluster.pending_pods().collect();
    prop_assert_eq!(&pending, &queue, "pending_pods() order differs from the model");
    prop_assert_eq!(cluster.invariant_violations(), Vec::<String>::new());
    Ok(())
}

proptest! {
    #[test]
    fn pod_table_matches_btreemap_model(ops in arb_ops()) {
        let shape = NodeShape { capacity: ResourceVec::splat(1_000.0) };
        let mut cluster = ClusterState::new(&ClusterConfig::uniform(NODES as usize, shape));
        let mut model: BTreeMap<PodId, Pod> = BTreeMap::new();
        let mut now = SimTime::ZERO;
        check_agreement(&cluster, &model)?;

        for (op, pod_sel, node_sel, size, gap_ms) in ops {
            now += SimDuration::from_millis(gap_ms);
            let id = PodId::new(pod_sel % (model.len() as u64 + 2));
            let node = NodeId::new(node_sel);
            let request = ResourceVec::splat(size);
            match op {
                // Creation is weighted up so sequences build a real table.
                0..=2 => {
                    let spec = PodSpec::new(
                        PodKind::ServiceReplica { app: AppId::new(node_sel) },
                        request,
                        (pod_sel % 3) as i32,
                    );
                    let got = cluster.create_pod(spec, now);
                    let want = PodId::new(model.len() as u64);
                    prop_assert_eq!(got, want, "ids are handed out sequentially");
                    model.insert(want, Pod::new(want, spec, now));
                }
                3 => {
                    let result = cluster.bind_pod(id, node);
                    if admitted(&model, id, Pod::is_pending, &result)? {
                        match result {
                            Ok(()) => {
                                let pod = model.get_mut(&id).expect("admitted");
                                pod.node = Some(node);
                                pod.phase = PodPhase::Starting;
                            }
                            Err(err) => prop_assert!(matches!(
                                err,
                                Error::UnknownNode(_) | Error::InsufficientCapacity { .. }
                            )),
                        }
                    }
                }
                4 => {
                    let result = cluster.start_pod(id, now);
                    if admitted(&model, id, |p| p.phase == PodPhase::Starting, &result)? {
                        prop_assert!(result.is_ok());
                        let pod = model.get_mut(&id).expect("admitted");
                        pod.phase = PodPhase::Running;
                        pod.started = Some(now);
                    }
                }
                5 => {
                    let phase = if pod_sel % 2 == 0 {
                        PodPhase::Succeeded
                    } else {
                        PodPhase::Failed("killed")
                    };
                    let result = cluster.terminate_pod(id, phase.clone());
                    if admitted(&model, id, |p| !p.phase.is_terminal(), &result)? {
                        prop_assert!(result.is_ok());
                        let pod = model.get_mut(&id).expect("admitted");
                        pod.node = None;
                        pod.phase = phase;
                    }
                }
                6 => {
                    let result = cluster.requeue_pod(id, now);
                    if admitted(&model, id, |p| !p.phase.holds_resources(), &result)? {
                        prop_assert!(result.is_ok());
                        let pod = model.get_mut(&id).expect("admitted");
                        *pod = Pod::new(id, pod.spec, now);
                    }
                }
                7 => {
                    let result = cluster.resize_pod(id, request);
                    if admitted(&model, id, |p| p.phase.holds_resources(), &result)? {
                        match result {
                            Ok(()) => model.get_mut(&id).expect("admitted").spec.request = request,
                            Err(err) => prop_assert!(matches!(
                                err,
                                Error::InvalidConfig(_) | Error::InsufficientCapacity { .. }
                            )),
                        }
                    }
                }
                8 => {
                    let result = cluster.update_pending_request(id, request);
                    if admitted(&model, id, Pod::is_pending, &result)? {
                        match result {
                            Ok(()) => model.get_mut(&id).expect("admitted").spec.request = request,
                            Err(err) => prop_assert!(matches!(err, Error::InvalidConfig(_))),
                        }
                    }
                }
                _ => {
                    let ready = pod_sel % 2 == 0;
                    let was_ready = cluster.node(node).map(|n| n.is_ready());
                    let result = cluster.set_node_ready(node, ready);
                    let Ok(was_ready) = was_ready else {
                        prop_assert!(matches!(result, Err(Error::UnknownNode(_))));
                        continue;
                    };
                    let mut victims = result.expect("known node");
                    victims.sort();
                    let mut expected = Vec::new();
                    if was_ready && !ready {
                        for pod in model.values_mut().filter(|p| p.node == Some(node)) {
                            pod.node = None;
                            pod.phase = PodPhase::Failed("node unready");
                            pod.started = None;
                            expected.push(pod.id);
                        }
                    }
                    prop_assert_eq!(victims, expected, "evicted set differs from the model");
                }
            }
            check_agreement(&cluster, &model)?;
        }
    }
}

/// Binds `id` to `node` on both sides.
fn bind_both(cluster: &mut ClusterState, model: &mut BTreeMap<PodId, Pod>, id: PodId, node: u32) {
    cluster.bind_pod(id, NodeId::new(node)).expect("room on the node");
    let pod = model.get_mut(&id).expect("known pod");
    (pod.node, pod.phase) = (Some(NodeId::new(node)), PodPhase::Starting);
}

/// Creates a pod at `now` on both sides.
fn create_both(
    cluster: &mut ClusterState,
    model: &mut BTreeMap<PodId, Pod>,
    now: SimTime,
) -> PodId {
    let spec =
        PodSpec::new(PodKind::ServiceReplica { app: AppId::new(0) }, ResourceVec::splat(20.0), 0);
    let id = cluster.create_pod(spec, now);
    model.insert(id, Pod::new(id, spec, now));
    id
}

/// Binding most of a long queue out of order leaves tombstones that
/// outnumber the queued pods, which forces the queue to compact several
/// times; a pod requeued at the instant a newer pod is created queues
/// before it (same time, lower id), which is an insert below the top
/// of the queue, not a push.
#[test]
fn pending_queue_survives_compaction_and_same_instant_requeues() {
    let shape = NodeShape { capacity: ResourceVec::splat(1_000.0) };
    let mut cluster = ClusterState::new(&ClusterConfig::uniform(NODES as usize, shape));
    let mut model: BTreeMap<PodId, Pod> = BTreeMap::new();
    // Pairs of pods share a creation instant.
    let ids: Vec<PodId> = (0..40)
        .map(|i| create_both(&mut cluster, &mut model, SimTime::from_millis(10 * (i / 2))))
        .collect();
    check_agreement(&cluster, &model).unwrap();
    // 30 of 40 bound in a scattered order: 7 is prime to 40.
    for k in 0..30 {
        bind_both(&mut cluster, &mut model, ids[k * 7 % 40], (k % 3) as u32);
        check_agreement(&cluster, &model).unwrap();
    }
    assert_eq!(cluster.pending_pods().count(), 10);
    // Free three bound pods, then requeue them at the instant a new pod is
    // created: before it and after it.
    let now = SimTime::from_secs(5);
    let freed = [ids[0], ids[7], ids[14]];
    for &id in &freed {
        cluster.terminate_pod(id, PodPhase::Failed("preempted")).unwrap();
        let pod = model.get_mut(&id).expect("known pod");
        (pod.node, pod.phase) = (None, PodPhase::Failed("preempted"));
        check_agreement(&cluster, &model).unwrap();
    }
    cluster.requeue_pod(freed[0], now).unwrap();
    model.insert(freed[0], Pod::new(freed[0], model[&freed[0]].spec, now));
    let newer = create_both(&mut cluster, &mut model, now);
    for &id in &freed[1..] {
        cluster.requeue_pod(id, now).unwrap();
        model.insert(id, Pod::new(id, model[&id].spec, now));
        check_agreement(&cluster, &model).unwrap();
    }
    let tail: Vec<PodId> = cluster.pending_pods().map(|p| p.id).skip(10).collect();
    assert_eq!(tail, vec![freed[0], freed[1], freed[2], newer]);
    // Drain the queue front to back, then refill it past its old length.
    let queued: Vec<PodId> = cluster.pending_pods().map(|p| p.id).collect();
    for (k, id) in queued.into_iter().enumerate() {
        cluster.terminate_pod(id, PodPhase::Succeeded).unwrap();
        model.get_mut(&id).expect("known pod").phase = PodPhase::Succeeded;
        if k % 4 == 0 {
            create_both(&mut cluster, &mut model, now + SimDuration::from_millis(k as u64));
        }
        check_agreement(&cluster, &model).unwrap();
    }
}
