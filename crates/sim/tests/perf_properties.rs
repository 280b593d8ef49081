//! Property-based tests for the processor-sharing performance model.

use evolve_sim::{DrainOutcome, PerfConfig, ReplicaServer};
use evolve_types::{Resource, ResourceVec, SimDuration, SimTime};
use proptest::prelude::*;

/// An admission: (offset µs from previous, cpu work, disk work, net work,
/// working set).
type Admission = (u64, f64, f64, f64, f64);

fn arb_admissions() -> impl Strategy<Value = Vec<Admission>> {
    prop::collection::vec(
        (0u64..500_000, 1.0..2_000.0f64, 0.0..50.0f64, 0.0..50.0f64, 0.0..64.0f64),
        1..40,
    )
}

fn big_server() -> ReplicaServer {
    ReplicaServer::new(
        ResourceVec::new(4_000.0, 1_000_000.0, 200.0, 200.0),
        0.0,
        PerfConfig::default(),
        SimTime::ZERO,
    )
}

proptest! {
    #[test]
    fn conservation_every_request_completes_or_times_out(admissions in arb_admissions()) {
        let mut server = big_server();
        let mut t = SimTime::ZERO;
        let mut admitted = 0u64;
        let mut finished = 0usize;
        for (i, (gap, cpu, disk, net, ws)) in admissions.iter().enumerate() {
            t += SimDuration::from_micros(*gap);
            let out = server.admit(
                i as u64,
                t,
                t + SimDuration::from_secs(30),
                ResourceVec::new(*cpu, *ws, *disk, *net),
            );
            admitted += 1;
            if let Some(out) = out {
                finished += out.completed.len() + out.timed_out.len();
                prop_assert!(!out.oom_killed, "memory allocation is huge");
            }
        }
        // Run far past every deadline.
        let out = server.advance(t + SimDuration::from_secs(120));
        finished += out.completed.len() + out.timed_out.len();
        prop_assert_eq!(finished as u64, admitted, "requests leaked");
        prop_assert_eq!(server.inflight_len(), 0);
    }

    #[test]
    fn latency_at_least_ideal_service_time(
        cpu in 10.0..4_000.0f64,
        disk in 0.0..100.0f64,
        net in 0.0..100.0f64,
    ) {
        let alloc = ResourceVec::new(2_000.0, 10_000.0, 100.0, 100.0);
        let mut server = ReplicaServer::new(alloc, 0.0, PerfConfig::default(), SimTime::ZERO);
        server.admit(
            0,
            SimTime::ZERO,
            SimTime::from_secs(600),
            ResourceVec::new(cpu, 1.0, disk, net),
        );
        let out = server.advance(SimTime::from_secs(600));
        prop_assert_eq!(out.completed.len(), 1);
        let ideal = (cpu / 2_000.0).max(disk / 100.0).max(net / 100.0);
        let measured = out.completed[0].latency.as_secs_f64();
        prop_assert!(
            measured >= ideal - 1e-6,
            "measured {measured} below ideal {ideal}"
        );
        // Alone on the replica, it should also be close to ideal.
        prop_assert!(measured <= ideal + 1e-3, "measured {measured} far above ideal {ideal}");
    }

    #[test]
    fn consumed_work_never_exceeds_offered(admissions in arb_admissions()) {
        let mut server = big_server();
        let mut t = SimTime::ZERO;
        let mut offered = ResourceVec::ZERO;
        for (i, (gap, cpu, disk, net, ws)) in admissions.iter().enumerate() {
            t += SimDuration::from_micros(*gap);
            let demand = ResourceVec::new(*cpu, *ws, *disk, *net);
            offered += demand;
            server.admit(i as u64, t, t + SimDuration::from_secs(30), demand);
        }
        server.advance(t + SimDuration::from_secs(120));
        let mut consumed = server.take_consumed();
        consumed[Resource::Memory] = 0.0;
        for r in [Resource::Cpu, Resource::DiskIo, Resource::NetIo] {
            prop_assert!(
                consumed[r] <= offered[r] + 1e-3,
                "{r}: consumed {} offered {}",
                consumed[r],
                offered[r]
            );
        }
    }

    #[test]
    fn clock_is_monotone_under_any_interleaving(
        ops in prop::collection::vec((0u64..1_000_000, any::<bool>()), 1..60),
    ) {
        let mut server = big_server();
        let mut t = SimTime::ZERO;
        let mut id = 0u64;
        for (gap, is_admit) in ops {
            t += SimDuration::from_micros(gap);
            if is_admit {
                server.admit(
                    id,
                    t,
                    t + SimDuration::from_secs(5),
                    ResourceVec::new(100.0, 1.0, 0.0, 0.0),
                );
                id += 1;
            } else {
                server.advance(t);
            }
            prop_assert!(server.clock() <= t + SimDuration::from_micros(1));
            prop_assert!(server.clock() >= t - SimDuration::from_micros(1) || server.inflight_len() > 0);
        }
    }

    #[test]
    fn next_event_is_never_in_the_past(admissions in arb_admissions()) {
        let mut server = big_server();
        let mut t = SimTime::ZERO;
        for (i, (gap, cpu, disk, net, ws)) in admissions.iter().enumerate() {
            t += SimDuration::from_micros(*gap);
            server.admit(
                i as u64,
                t,
                t + SimDuration::from_secs(30),
                ResourceVec::new(*cpu, *ws, *disk, *net),
            );
            if let Some(next) = server.next_event() {
                prop_assert!(next > server.clock(), "event {next:?} not after {:?}", server.clock());
            }
        }
    }
}

/// One step of a server's life: (kind, gap µs, cpu, disk, net, working
/// set). Kinds 0–5 admit, 6–7 advance, 8 resize, 9 kill.
type Step = (u8, u64, f64, f64, f64, f64);

fn arb_steps(kinds: u8) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0..kinds, 0u64..400_000, 1.0..1_500.0f64, 0.0..40.0f64, 0.0..40.0f64, 0.0..120.0f64),
        1..50,
    )
}

/// Applies one step at `t`, its deadline 2 s on; returns what it reported.
fn step(server: &mut ReplicaServer, t: SimTime, i: u64, s: &Step) -> DrainOutcome {
    let (kind, _, cpu, disk, net, ws) = *s;
    let mut out = DrainOutcome::default();
    match kind {
        _ if server.is_dead() => server.advance_into(t, &mut out),
        0..=5 => {
            let demand = ResourceVec::new(cpu, ws, disk, net);
            server.admit_arrived_into(i, t, t, t + SimDuration::from_secs(2), demand, &mut out);
        }
        6 | 7 => server.advance_into(t, &mut out),
        8 => {
            server.advance_into(t, &mut out);
            server.set_alloc(ResourceVec::new(
                200.0 + cpu,
                300.0 + 4.0 * ws,
                5.0 + disk,
                5.0 + net,
            ));
        }
        _ => server.kill_into(&mut out),
    }
    out
}

fn bits(v: ResourceVec) -> [u64; 4] {
    v.as_array().map(f64::to_bits)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// A server renewed after any history — admissions, advances, a
    /// resize, an OOM kill or a kill — runs exactly as one built fresh from
    /// the same arguments: the same completions and timeouts, the same
    /// next event and the same consumed work, bit for bit.
    #[test]
    fn a_renewed_server_is_a_new_server(
        history in arb_steps(10),
        life in arb_steps(9),
        base_memory in 0.0..64.0f64,
        cpu in 300.0..3_000.0f64,
    ) {
        // Little memory, so the history's admissions can OOM-kill it.
        let small = ResourceVec::new(1_000.0, 256.0, 50.0, 50.0);
        let mut renewed = ReplicaServer::new(small, 16.0, PerfConfig::default(), SimTime::ZERO);
        let mut t = SimTime::ZERO;
        for (i, s) in history.iter().enumerate() {
            t += SimDuration::from_micros(s.1);
            step(&mut renewed, t, i as u64, s);
        }
        let _ = renewed.take_consumed();
        let alloc = ResourceVec::new(cpu, 2_048.0, 80.0, 80.0);
        renewed.renew(alloc, base_memory, PerfConfig::default(), t);
        let mut fresh = ReplicaServer::new(alloc, base_memory, PerfConfig::default(), t);
        for (i, s) in life.iter().enumerate() {
            t += SimDuration::from_micros(s.1);
            let id = 1_000 + i as u64;
            prop_assert_eq!(step(&mut renewed, t, id, s), step(&mut fresh, t, id, s), "step {}", i);
            prop_assert_eq!(renewed.next_event(), fresh.next_event(), "step {}", i);
            prop_assert_eq!(renewed.is_dead(), fresh.is_dead());
            prop_assert_eq!(bits(renewed.take_consumed()), bits(fresh.take_consumed()), "step {}", i);
        }
        t += SimDuration::from_secs(5);
        prop_assert_eq!(step(&mut renewed, t, 0, &(6, 0, 0.0, 0.0, 0.0, 0.0)), step(&mut fresh, t, 0, &(6, 0, 0.0, 0.0, 0.0, 0.0)));
        prop_assert_eq!(bits(renewed.take_consumed()), bits(fresh.take_consumed()));
    }
}
