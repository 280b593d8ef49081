//! Property-based tests: a scheduling plan must always be *applicable* —
//! no double-booking, full accounting of every pending pod, and
//! preemptions that strictly respect priority.

use evolve_scheduler::{FeasibilityIndex, RequeueBackoff, SchedulerFramework};
use evolve_sim::{ClusterConfig, ClusterState, NodeShape, PodKind, PodPhase, PodSpec};
use evolve_telemetry::trace::{SchedTrace, TraceRing};
use evolve_types::{AppId, JobId, NodeId, PodId, ResourceVec, SimTime};
use proptest::prelude::*;
use std::collections::HashSet;

/// (app, cpu request, priority, is_gang_member)
type PodGen = (u32, f64, i32, bool);

fn arb_pods() -> impl Strategy<Value = Vec<PodGen>> {
    prop::collection::vec(((0u32..8), (100.0..8_000.0f64), (0i32..100), any::<bool>()), 1..40)
}

fn build_cluster(nodes: usize, pods: &[PodGen]) -> ClusterState {
    let mut cluster = ClusterState::new(&ClusterConfig::uniform(nodes, NodeShape::default()));
    for (i, (app, cpu, priority, gang)) in pods.iter().enumerate() {
        let request = ResourceVec::new(*cpu, cpu * 2.0, cpu / 100.0, cpu / 50.0);
        let kind = if *gang {
            PodKind::HpcRank {
                app: AppId::new(*app),
                job: JobId::new(u64::from(*app)),
                rank: i as u32,
            }
        } else {
            PodKind::ServiceReplica { app: AppId::new(*app) }
        };
        cluster.create_pod(PodSpec::new(kind, request, *priority), SimTime::from_micros(i as u64));
    }
    cluster
}

/// The `k`-th of twelve (app, request) classes — more than the index
/// keeps score caches for. Some share an app, some a request.
fn pool_class(k: usize) -> (u32, ResourceVec) {
    let cpu = [600.0, 900.0, 1_300.0, 2_100.0][k % 4];
    ((k % 5) as u32, ResourceVec::new(cpu, cpu * 2.0, cpu / 100.0, cpu / 50.0))
}

/// One cycle of the class-pool property: the pods to create as
/// `(pool class, priority)` and the cluster mutations to apply first as
/// `(kind, selector)`.
type ClassCycle = (Vec<(usize, i32)>, Vec<(u8, u32)>);

fn arb_class_cycles() -> impl Strategy<Value = Vec<ClassCycle>> {
    let wave = prop::collection::vec(((0usize..12), (0i32..4)), 4..24);
    let mutations = prop::collection::vec(((0u8..4), any::<u32>()), 0..6);
    prop::collection::vec((wave, mutations), 4..7)
}

proptest! {
    #[test]
    fn plan_is_always_applicable(pods in arb_pods(), nodes in 1usize..6) {
        let mut cluster = build_cluster(nodes, &pods);
        let plan = SchedulerFramework::kube_default().schedule_cycle(&cluster);
        // Applying every binding in order must succeed — the shadow
        // accounting promised the capacity exists.
        for (pod, node) in &plan.bindings {
            cluster.bind_pod(*pod, *node).expect("plan binding must be valid");
        }
        cluster.check_invariants();
    }

    #[test]
    fn every_pending_pod_is_accounted_once(pods in arb_pods(), nodes in 1usize..6) {
        let cluster = build_cluster(nodes, &pods);
        let plan = SchedulerFramework::kube_default().schedule_cycle(&cluster);
        let mut seen: HashSet<PodId> = HashSet::new();
        for (pod, _) in &plan.bindings {
            prop_assert!(seen.insert(*pod), "{pod} bound twice");
        }
        for pod in &plan.unschedulable {
            prop_assert!(seen.insert(*pod), "{pod} double-accounted");
        }
        prop_assert_eq!(seen.len(), pods.len());
    }

    #[test]
    fn preemption_plan_is_applicable_and_priority_safe(
        bound in prop::collection::vec(((100.0..6_000.0f64), (0i32..50)), 1..10),
        pending in prop::collection::vec(((100.0..6_000.0f64), (50i32..100)), 1..10),
    ) {
        let mut cluster = ClusterState::new(&ClusterConfig::uniform(2, NodeShape::default()));
        let mut victims_possible: Vec<(PodId, i32)> = Vec::new();
        for (i, (cpu, priority)) in bound.iter().enumerate() {
            let pod = cluster.create_pod(
                PodSpec::new(
                    PodKind::ServiceReplica { app: AppId::new(100) },
                    ResourceVec::new(*cpu, 512.0, 1.0, 1.0),
                    *priority,
                ),
                SimTime::from_micros(i as u64),
            );
            // Bind first-fit; skip if full.
            let target = cluster.nodes().iter().find(|n| {
                n.can_fit(&ResourceVec::new(*cpu, 512.0, 1.0, 1.0))
            }).map(evolve_sim::Node::id);
            if let Some(node) = target {
                cluster.bind_pod(pod, node).expect("fits");
                victims_possible.push((pod, *priority));
            } else {
                // Leave unbound but terminal so it is not pending.
                cluster.terminate_pod(pod, PodPhase::Failed("setup")).expect("terminates");
            }
        }
        let mut max_pending = i32::MIN;
        for (i, (cpu, priority)) in pending.iter().enumerate() {
            cluster.create_pod(
                PodSpec::new(
                    PodKind::ServiceReplica { app: AppId::new(200) },
                    ResourceVec::new(*cpu, 512.0, 1.0, 1.0),
                    *priority,
                ),
                SimTime::from_micros(1_000 + i as u64),
            );
            max_pending = max_pending.max(*priority);
        }
        let plan = SchedulerFramework::evolve_default().schedule_cycle(&cluster);
        // Every victim must have lower priority than the highest pending
        // pod (preemption never evicts peers or superiors).
        for victim in &plan.preemptions {
            let vp = cluster.pod(*victim).expect("victim exists").spec.priority;
            prop_assert!(vp < max_pending, "victim priority {vp} >= max pending {max_pending}");
        }
        // Applying the full plan must succeed: preemptions first.
        for victim in &plan.preemptions {
            cluster.terminate_pod(*victim, PodPhase::Failed("preempted")).expect("evicts");
        }
        for (pod, node) in &plan.bindings {
            cluster.bind_pod(*pod, *node).expect("binding after preemption");
        }
        cluster.check_invariants();
    }

    #[test]
    fn gangs_bind_fully_or_not_at_all(
        gang_size in 1u32..8,
        cpu in 500.0..9_000.0f64,
        nodes in 1usize..4,
    ) {
        let mut cluster = ClusterState::new(&ClusterConfig::uniform(nodes, NodeShape::default()));
        for rank in 0..gang_size {
            cluster.create_pod(
                PodSpec::new(
                    PodKind::HpcRank { app: AppId::new(0), job: JobId::new(7), rank },
                    ResourceVec::new(cpu, 1_024.0, 5.0, 10.0),
                    50,
                ),
                SimTime::ZERO,
            );
        }
        let plan = SchedulerFramework::kube_default().schedule_cycle(&cluster);
        prop_assert!(
            plan.bindings.len() == gang_size as usize || plan.bindings.is_empty(),
            "partial gang: {} of {gang_size}",
            plan.bindings.len()
        );
    }

    /// The feasibility index is an *index*, not a policy: with it on or
    /// off, the cycle must pick placement-identical nodes and identical
    /// preemption victims, in the same order.
    #[test]
    fn indexed_plan_is_identical_to_naive_scan(
        pods in arb_pods(),
        bound in prop::collection::vec(((200.0..5_000.0f64), (0i32..40)), 0..14),
        nodes in 1usize..7,
    ) {
        let mut cluster = build_cluster(nodes, &pods);
        // Pre-bind low-priority filler first-fit so preemption engages.
        for (i, (cpu, priority)) in bound.iter().enumerate() {
            let request = ResourceVec::new(*cpu, 512.0, 1.0, 1.0);
            let pod = cluster.create_pod(
                PodSpec::new(
                    PodKind::ServiceReplica { app: AppId::new(90) },
                    request,
                    *priority,
                ),
                SimTime::from_micros(10_000 + i as u64),
            );
            match cluster.nodes().iter().find(|n| n.can_fit(&request)).map(evolve_sim::Node::id) {
                Some(node) => {
                    cluster.bind_pod(pod, node).expect("fits");
                }
                None => {
                    cluster.terminate_pod(pod, PodPhase::Failed("setup")).expect("terminates");
                }
            }
        }
        let indexed = SchedulerFramework::evolve_default()
            .with_index(true)
            .schedule_cycle(&cluster);
        let naive = SchedulerFramework::evolve_default()
            .with_index(false)
            .schedule_cycle(&cluster);
        prop_assert_eq!(&indexed.bindings, &naive.bindings);
        prop_assert_eq!(&indexed.preemptions, &naive.preemptions);
        prop_assert_eq!(&indexed.unschedulable, &naive.unschedulable);
    }

    /// Carrying one index across cycles (version-diff sync instead of a
    /// rebuild) must stay plan-identical to a naive scan from scratch,
    /// even as bindings, terminations and readiness flips accumulate.
    #[test]
    fn carried_index_matches_naive_across_cycles(
        waves in prop::collection::vec(arb_pods(), 1..4),
        flip in any::<bool>(),
        nodes in 2usize..6,
    ) {
        let mut cluster =
            ClusterState::new(&ClusterConfig::uniform(nodes, NodeShape::default()));
        let indexed_fw = SchedulerFramework::evolve_default().with_index(true);
        let naive_fw = SchedulerFramework::evolve_default().with_index(false);
        let mut index = FeasibilityIndex::new();
        let mut backoff = RequeueBackoff::new();
        let mut trace = TraceRing::new(0);
        for (cycle, wave) in waves.iter().enumerate() {
            for (i, (app, cpu, priority, _)) in wave.iter().enumerate() {
                cluster.create_pod(
                    PodSpec::new(
                        PodKind::ServiceReplica { app: AppId::new(*app) },
                        ResourceVec::new(*cpu, cpu * 2.0, cpu / 100.0, cpu / 50.0),
                        *priority,
                    ),
                    SimTime::from_micros((cycle * 1_000 + i) as u64),
                );
            }
            if flip && cycle == 1 {
                let id = cluster.nodes()[nodes - 1].id();
                cluster.set_node_ready(id, false).expect("flips");
            }
            let at = SimTime::from_micros(cycle as u64);
            let carried =
                indexed_fw.schedule_cycle_carried(&cluster, &mut backoff, &mut index, at, &mut trace);
            // Every unplaced pod is terminated below, so the carried
            // backoff never defers anything and the naive cycle (which
            // starts from fresh backoff) sees the same queue.
            let naive = naive_fw.schedule_cycle(&cluster);
            prop_assert_eq!(&carried.bindings, &naive.bindings);
            prop_assert_eq!(&carried.preemptions, &naive.preemptions);
            prop_assert_eq!(&carried.unschedulable, &naive.unschedulable);
            // Apply the carried plan: victims out, bindings in.
            for victim in &carried.preemptions {
                cluster.terminate_pod(*victim, PodPhase::Failed("preempted")).expect("evicts");
            }
            for (pod, node) in &carried.bindings {
                cluster.bind_pod(*pod, *node).expect("carried plan binding must be valid");
            }
            for pod in &carried.unschedulable {
                cluster.terminate_pod(*pod, PodPhase::Failed("unplaced")).expect("terminates");
            }
            cluster.check_invariants();
        }
    }

    /// Pods drawn from a small pool of classes actually reuse the
    /// index's score caches (the properties above give every pod its own
    /// request, so every pod is its own class). Across carried cycles
    /// with resizes, terminations, readiness flips, retargeted pending
    /// pods, only partially applied plans and node loads so close that
    /// the tolerance decides, the cached path must emit
    /// the same plans *and* the same decision traces — chosen score,
    /// per-scorer contributions, feasible and rejected counts — as the
    /// naive scan from scratch.
    #[test]
    fn cached_scores_match_naive_plans_and_traces(
        cycles in arb_class_cycles(),
        nodes in 3usize..7,
    ) {
        let mut cluster =
            ClusterState::new(&ClusterConfig::uniform(nodes, NodeShape::default()));
        let indexed_fw = SchedulerFramework::evolve_default().with_index(true);
        let naive_fw = SchedulerFramework::evolve_default().with_index(false);
        let mut index = FeasibilityIndex::new();
        let (mut indexed_backoff, mut naive_backoff) = (RequeueBackoff::new(), RequeueBackoff::new());
        // Near-ties, so that the fold's tolerance and not the scores picks
        // the node. Every node binds three pods in its own order and loses
        // the two large ones again, which leaves `allocated` sums that
        // differ in their last bits (scores an ulp or two apart); and the
        // pod that stays is a hair smaller on each later node, so a later
        // node scores ≈ 1e-14 *higher* — inside the tolerance, where
        // only the lowest index may win.
        for node in 0..nodes {
            let ballast = [1_100.1 - 4e-9 * node as f64, 6_733.7, 4_411.3].map(|cpu| {
                let request = ResourceVec::new(cpu, cpu * 1.7, cpu / 70.0, cpu / 30.0);
                let spec = PodSpec::new(PodKind::ServiceReplica { app: AppId::new(9) }, request, 15);
                cluster.create_pod(spec, SimTime::ZERO)
            });
            for k in 0..3 {
                let pod = ballast[(k + node) % 3];
                cluster.bind_pod(pod, NodeId::new(node as u32)).expect("an empty node holds all three");
            }
            for pod in &ballast[1..] {
                cluster.terminate_pod(*pod, PodPhase::Succeeded).expect("bound pods terminate");
            }
        }
        for (cycle, (wave, mutations)) in cycles.iter().enumerate() {
            let at = SimTime::from_micros(cycle as u64 * 1_000);
            for (kind, sel) in mutations {
                let sel = *sel as usize;
                let bound: Vec<PodId> =
                    cluster.pods().filter(|p| p.phase.holds_resources()).map(|p| p.id).collect();
                let pending: Vec<PodId> = cluster.pending_pods().map(|p| p.id).collect();
                match kind {
                    0 if !bound.is_empty() => {
                        let pod = bound[sel % bound.len()];
                        let scale = 0.5 + (sel % 7) as f64 * 0.25;
                        let request = cluster.pod(pod).expect("listed").spec.request * scale;
                        // Growing may not fit the node or the limit.
                        let _ = cluster.resize_pod(pod, request);
                    }
                    1 if !bound.is_empty() => {
                        cluster
                            .terminate_pod(bound[sel % bound.len()], PodPhase::Succeeded)
                            .expect("bound pods terminate");
                    }
                    2 => {
                        let node = NodeId::new((sel % nodes) as u32);
                        let ready = cluster.node(node).expect("in range").is_ready();
                        cluster.set_node_ready(node, !ready).expect("flips");
                    }
                    3 if !pending.is_empty() => {
                        let request = pool_class(sel / 16 % 12).1;
                        // May exceed the pod's limit.
                        let _ = cluster.update_pending_request(pending[sel % pending.len()], request);
                    }
                    _ => {}
                }
            }
            for (i, (class, priority)) in wave.iter().enumerate() {
                let (app, request) = pool_class(*class);
                cluster.create_pod(
                    PodSpec::new(PodKind::ServiceReplica { app: AppId::new(app) }, request, *priority * 10),
                    at + evolve_types::SimDuration::from_micros(i as u64),
                );
            }
            let (mut indexed_trace, mut naive_trace) = (TraceRing::new(4_096), TraceRing::new(4_096));
            let carried = indexed_fw.schedule_cycle_carried(
                &cluster, &mut indexed_backoff, &mut index, at, &mut indexed_trace,
            );
            let naive = naive_fw.schedule_cycle_carried(
                &cluster, &mut naive_backoff, &mut FeasibilityIndex::new(), at, &mut naive_trace,
            );
            prop_assert_eq!(&carried.bindings, &naive.bindings);
            prop_assert_eq!(&carried.preemptions, &naive.preemptions);
            prop_assert_eq!(&carried.unschedulable, &naive.unschedulable);
            let indexed_events: Vec<&SchedTrace> = indexed_trace.sched().collect();
            let naive_events: Vec<&SchedTrace> = naive_trace.sched().collect();
            prop_assert_eq!(indexed_events, naive_events);
            // Victims out, then all but every third binding in: the
            // skipped pods stay pending on nodes the index tainted.
            for victim in &carried.preemptions {
                cluster.terminate_pod(*victim, PodPhase::Failed("preempted")).expect("evicts");
            }
            for (k, (pod, node)) in carried.bindings.iter().enumerate() {
                if k % 3 != 2 {
                    cluster.bind_pod(*pod, *node).expect("carried plan binding must be valid");
                }
            }
            cluster.check_invariants();
        }
    }
}

/// FNV-1a, 64 bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3))
}

/// One seeded cluster for the pin below: twelve default nodes, node 7
/// unready, low-priority batch victims bound across the rest, and a queue
/// of services from a few request classes, batch tasks, an oversized
/// service that only preemption can place and a four-rank gang.
fn pin_cluster() -> ClusterState {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(33);
    let mut cluster = ClusterState::new(&ClusterConfig::uniform(12, NodeShape::default()));
    cluster.set_node_ready(NodeId::new(7), false).expect("node 7 exists");
    let request = |cpu: f64| ResourceVec::new(cpu, cpu * 3.0, cpu / 80.0, cpu / 40.0);
    for i in 0..30u64 {
        let cpu = [2_500.0, 4_000.0, 5_500.0][(rng.gen::<u64>() % 3) as usize];
        let kind =
            PodKind::BatchTask { app: AppId::new(9), job: JobId::new(1), stage: 0, task: i as u32 };
        let pod = cluster.create_pod(PodSpec::new(kind, request(cpu), 10), SimTime::from_micros(i));
        let node = NodeId::new((rng.gen::<u64>() % 12) as u32);
        if cluster.bind_pod(pod, node).is_err() {
            cluster.terminate_pod(pod, PodPhase::Failed("setup")).expect("pending pods terminate");
        }
    }
    for i in 0..24u64 {
        let app = (rng.gen::<u64>() % 4) as u32;
        let cpu = [800.0, 1_600.0, 3_200.0][(rng.gen::<u64>() % 3) as usize];
        let kind = PodKind::ServiceReplica { app: AppId::new(app) };
        cluster.create_pod(PodSpec::new(kind, request(cpu), 100), SimTime::from_micros(100 + i));
    }
    for task in 0..6u32 {
        let kind = PodKind::BatchTask { app: AppId::new(5), job: JobId::new(2), stage: 0, task };
        let cpu = 1_000.0 + 700.0 * f64::from(task);
        cluster.create_pod(PodSpec::new(kind, request(cpu), 20), SimTime::from_micros(200));
    }
    let big = PodKind::ServiceReplica { app: AppId::new(6) };
    cluster.create_pod(PodSpec::new(big, request(12_000.0), 100), SimTime::from_micros(300));
    for rank in 0..4 {
        let kind = PodKind::HpcRank { app: AppId::new(7), job: JobId::new(3), rank };
        cluster.create_pod(PodSpec::new(kind, request(6_000.0), 50), SimTime::from_micros(400));
    }
    cluster
}

/// Every profile, index on and off, over three carried cycles of
/// [`pin_cluster`] (each plan applied before the next cycle, two new
/// services arriving per cycle): a digest of the plans and the decision
/// traces' JSONL, pinned bit for bit.
#[test]
fn profiles_pin_plans_and_traces() {
    let profiles = [
        SchedulerFramework::kube_default,
        SchedulerFramework::evolve_default,
        SchedulerFramework::binpack,
    ];
    let mut digests = Vec::new();
    for profile in profiles {
        for indexed in [true, false] {
            let framework = profile().with_index(indexed);
            let mut cluster = pin_cluster();
            let (mut backoff, mut index) = (RequeueBackoff::new(), FeasibilityIndex::new());
            let mut text = framework.name().to_owned();
            for cycle in 0..3u64 {
                let at = SimTime::from_secs(cycle);
                let mut trace = TraceRing::new(1 << 12);
                let plan = framework.schedule_cycle_carried(
                    &cluster,
                    &mut backoff,
                    &mut index,
                    at,
                    &mut trace,
                );
                text.push_str(&format!("{plan:?}\n"));
                text.push_str(&trace.to_jsonl());
                for victim in &plan.preemptions {
                    cluster.terminate_pod(*victim, PodPhase::Failed("preempted")).expect("evicts");
                }
                for (pod, node) in &plan.bindings {
                    cluster.bind_pod(*pod, *node).expect("plan binding must be valid");
                }
                for app in 0..2 {
                    let kind = PodKind::ServiceReplica { app: AppId::new(app) };
                    let request = ResourceVec::new(1_600.0, 4_800.0, 20.0, 40.0);
                    cluster.create_pod(PodSpec::new(kind, request, 100), at);
                }
            }
            digests.push(format!(
                "{}/{indexed}: {:016x}",
                framework.name(),
                fnv1a(text.as_bytes())
            ));
        }
    }
    let pinned = [
        "kube-default/true: 18344d36441c9dfc",
        "kube-default/false: f6efb5ed2eadfd5a",
        "evolve/true: 052c41e682ce2cc3",
        "evolve/false: c264b246030f2cc5",
        "binpack/true: 654a257306dbf47a",
        "binpack/false: dd96350d2e95cafc",
    ];
    assert_eq!(digests, pinned, "plans or decision traces moved");
}
