//! Analytic oracles: the replica server judged by queueing theory.
//!
//! One replica under Poisson arrivals is an M/G/1 processor-sharing
//! queue, and theory says what it must do without reference to any stored
//! run: mean sojourn `E[S] / (1 − ρ)` whatever the service distribution
//! (insensitivity), utilisation `ρ`, Little's law on every window, and
//! delivered work equal to the work of what left. The tolerances asserted
//! here are the table in DESIGN.md decision 9 — the contract a change that
//! moves the engine's bits must meet before and after.
//!
//! Run with `--nocapture` for the M/G/1-PS table.

use evolve_sim::{
    ClusterConfig, DrainOutcome, NodeShape, PerfConfig, ReplicaServer, Simulation, SimulationConfig,
};
use evolve_types::{Resource, ResourceVec, SimDuration, SimTime};
use evolve_workload::{sample_exponential, LogNormal, ScenarioSpec};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The replica: 2 000 mcore, memory and I/O far from binding.
const CPU: f64 = 2_000.0;
/// Mean request: 20 mcore·s, so `E[S]` = 10 ms alone on the replica.
const MEAN_DEMAND: f64 = 20.0;
const MEAN_SERVICE_S: f64 = MEAN_DEMAND / CPU;
const SEEDS: u64 = 8;
/// Student t, 7 degrees of freedom, two-sided 95 %.
const T_95: f64 = 2.365;
const WINDOW: SimDuration = SimDuration::from_secs(50);

fn replica() -> ReplicaServer {
    let alloc = ResourceVec::new(CPU, 65_536.0, 1_000.0, 1_000.0);
    ReplicaServer::new(alloc, 64.0, PerfConfig::default(), SimTime::ZERO)
}

/// What one harvest saw, in integer microseconds where it can be.
#[derive(Debug, Default, Clone)]
struct Window {
    span_us: u64,
    completions: u64,
    timeouts: u64,
    /// Σ sojourn of the requests that completed in the window.
    sojourn_us: u128,
    /// Σ time in system of the requests that timed out in the window.
    dropped_us: u128,
    /// ∫ in-flight dt, from `inflight_len()` between consecutive events.
    inflight_us: u128,
    /// Σ age of the requests in flight when the window opened / closed.
    age_open_us: u128,
    age_close_us: u128,
    consumed: ResourceVec,
}

/// A replica driven the way the engine drives one: woken at every event it
/// announces, advanced to every arrival, harvested every [`WINDOW`].
struct Station {
    server: ReplicaServer,
    out: DrainOutcome,
    now: SimTime,
    /// Arrival stamp and CPU demand (mcore·s) by request id.
    admitted: Vec<(SimTime, f64)>,
    /// Σ arrival stamps of the requests in flight.
    inflight_arrived_us: u128,
    window: Window,
    windows: Vec<Window>,
    /// Σ CPU demand of everything that completed, since the start.
    completed_demand: f64,
    /// Σ CPU demand of everything that timed out, since the start.
    dropped_demand: f64,
}

impl Station {
    fn new() -> Self {
        Station {
            server: replica(),
            out: DrainOutcome::default(),
            now: SimTime::ZERO,
            admitted: Vec::new(),
            inflight_arrived_us: 0,
            window: Window::default(),
            windows: Vec::new(),
            completed_demand: 0.0,
            dropped_demand: 0.0,
        }
    }

    fn age_us(&self) -> u128 {
        self.server.inflight_len() as u128 * u128::from(self.now.as_micros())
            - self.inflight_arrived_us
    }

    /// Books what left at `self.now`; a completion must report exactly the
    /// time since its arrival.
    fn collect(&mut self) {
        for c in &self.out.completed {
            let (arrived, demand) = self.admitted[c.id as usize];
            assert_eq!(c.latency, self.now - arrived, "latency of request {}", c.id);
            self.window.completions += 1;
            self.window.sojourn_us += u128::from(c.latency.as_micros());
            self.inflight_arrived_us -= u128::from(arrived.as_micros());
            self.completed_demand += demand;
        }
        for &id in &self.out.timed_out {
            let (arrived, demand) = self.admitted[id as usize];
            self.window.timeouts += 1;
            self.window.dropped_us += u128::from((self.now - arrived).as_micros());
            self.inflight_arrived_us -= u128::from(arrived.as_micros());
            self.dropped_demand += demand;
        }
        self.out.clear();
    }

    /// Advances to `to`, stopping at every event the server announces.
    fn step_to(&mut self, to: SimTime) {
        while self.now < to {
            let next = self.server.next_event().map_or(to, |e| e.min(to));
            assert!(next > self.now, "the server announced an event that is not in the future");
            let dt = (next - self.now).as_micros();
            self.window.inflight_us += self.server.inflight_len() as u128 * u128::from(dt);
            self.window.span_us += dt;
            self.server.advance_into(next, &mut self.out);
            self.now = next;
            self.collect();
        }
    }

    /// Admits a CPU-only request of `cpu` mcore·s with a 1 MiB working set.
    fn admit(&mut self, at: SimTime, timeout: SimDuration, cpu: f64) {
        self.step_to(at);
        let id = self.admitted.len() as u64;
        self.admitted.push((at, cpu));
        let demand = ResourceVec::new(cpu, 1.0, 0.0, 0.0);
        self.inflight_arrived_us += u128::from(at.as_micros());
        self.server.admit_arrived_into(id, at, at, at + timeout, demand, &mut self.out);
        assert!(!self.out.oom_killed, "the replica's memory is far from binding");
        self.collect();
    }

    fn harvest(&mut self, at: SimTime) {
        self.step_to(at);
        let mut w = std::mem::take(&mut self.window);
        w.consumed = self.server.take_consumed();
        w.age_close_us = self.age_us();
        self.window.age_open_us = w.age_close_us;
        self.windows.push(w);
    }

    /// Lets everything in flight leave, then harvests once more.
    fn drain(&mut self) {
        while let Some(next) = self.server.next_event() {
            self.step_to(next);
        }
        assert_eq!(self.server.inflight_len(), 0);
        self.harvest(self.now);
    }

    /// Σ CPU work reported consumed, over every harvest.
    fn consumed(&self) -> f64 {
        self.windows.iter().map(|w| w.consumed.cpu()).sum()
    }
}

/// `arrivals` Poisson arrivals at utilisation `rho`; demands are CPU-only
/// log-normal with mean [`MEAN_DEMAND`] and the given `cv`.
fn mg1_ps(rho: f64, cv: f64, seed: u64, arrivals: usize, timeout: SimDuration) -> Station {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let demand = LogNormal::new(MEAN_DEMAND, cv);
    let rate = rho / MEAN_SERVICE_S;
    let mut station = Station::new();
    let mut t = 0.0;
    let mut harvest_at = SimTime::ZERO + WINDOW;
    for _ in 0..arrivals {
        t += sample_exponential(&mut rng, rate);
        let at = SimTime::from_micros((t * 1e6) as u64);
        while harvest_at <= at {
            station.harvest(harvest_at);
            harvest_at += WINDOW;
        }
        station.admit(at, timeout, demand.sample(&mut rng));
    }
    station
}

/// Mean sojourn in ms over every window but the first (start-up).
fn mean_sojourn_ms(station: &Station) -> f64 {
    let steady = &station.windows[1..];
    let total: u128 = steady.iter().map(|w| w.sojourn_us).sum();
    let n: u64 = steady.iter().map(|w| w.completions).sum();
    total as f64 / n as f64 / 1e3
}

/// `(mean, 95 % half-width)` of the per-seed values.
fn band(values: &[f64]) -> (f64, f64) {
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
    (mean, T_95 * (var / n).sqrt())
}

/// Mean sojourn over [`SEEDS`] seeds against `E[S] / (1 − ρ)`: theory must
/// sit inside the 95 % band, and the band must be narrow enough to mean it.
fn assert_ps_sojourn(rho: f64, cv: f64, arrivals: usize) -> (f64, f64) {
    let far = SimDuration::from_secs(3_600);
    let per_seed: Vec<f64> =
        (0..SEEDS).map(|s| mean_sojourn_ms(&mg1_ps(rho, cv, 1_000 + s, arrivals, far))).collect();
    let (mean, half) = band(&per_seed);
    let theory = MEAN_SERVICE_S * 1e3 / (1.0 - rho);
    println!("rho {rho:<4} cv {cv:<3}  {mean:8.3} ± {half:6.3} ms   theory {theory:8.3} ms");
    assert!(
        (mean - theory).abs() <= half,
        "rho {rho} cv {cv}: mean sojourn {mean:.3} ± {half:.3} ms, theory {theory:.3} ms"
    );
    assert!(half <= 0.12 * theory, "rho {rho} cv {cv}: band ± {half:.3} ms says nothing");
    (mean, half)
}

/// (a) M/G/1-PS mean sojourn over a ρ sweep; the ρ 0.9 point is the
/// insensitivity test's.
#[test]
fn mean_sojourn_is_service_time_over_one_minus_rho() {
    for (rho, arrivals) in [(0.3, 12_000), (0.5, 16_000), (0.7, 30_000)] {
        assert_ps_sojourn(rho, 0.6, arrivals);
    }
}

/// (a), deep queues: ρ 0.95 averages 19 in flight, ρ 0.98 averages 49 and
/// visits several hundred. Minutes in a debug build; CI runs them in
/// release.
#[test]
#[ignore = "long run: cargo test --release -p evolve-sim --test analytic_tests -- --ignored"]
fn mean_sojourn_holds_in_the_deep_queue_regime() {
    assert_ps_sojourn(0.95, 0.6, 1_500_000);
    assert_ps_sojourn(0.98, 0.6, 6_000_000);
}

/// (b) Insensitivity at ρ 0.9: the mean depends on the service
/// distribution only through its mean.
#[test]
fn mean_sojourn_is_insensitive_to_the_service_distribution() {
    let bands: Vec<(f64, f64)> =
        [0.0, 0.6, 1.5].into_iter().map(|cv| assert_ps_sojourn(0.9, cv, 90_000)).collect();
    for (i, a) in bands.iter().enumerate() {
        for b in &bands[i + 1..] {
            assert!((a.0 - b.0).abs() <= a.1 + b.1, "bands {a:?} and {b:?} do not overlap");
        }
    }
}

/// (d) Little's law on every harvested window after start-up. With the
/// ages of what was in flight at the two edges added it is an identity in
/// integer microseconds; without them it holds to the size of those edges.
#[test]
fn littles_law_holds_on_every_window() {
    for (rho, timeout_ms) in [(0.5, 3_600_000), (0.9, 3_600_000), (1.3, 400)] {
        let station = mg1_ps(rho, 0.6, 77, 60_000, SimDuration::from_millis(timeout_ms));
        assert!(station.windows.len() >= 5, "rho {rho}: {} windows", station.windows.len());
        for (i, w) in station.windows.iter().enumerate().skip(1) {
            assert_eq!(w.span_us, WINDOW.as_micros());
            assert_eq!(
                w.inflight_us + w.age_open_us,
                w.sojourn_us + w.dropped_us + w.age_close_us,
                "rho {rho} window {i}: ∫ in-flight dt ≠ Σ time in system"
            );
            let span_s = w.span_us as f64 / 1e6;
            let in_flight = w.inflight_us as f64 / 1e6 / span_s;
            let left = w.completions + w.timeouts;
            let throughput = left as f64 / span_s;
            let sojourn_s = (w.sojourn_us + w.dropped_us) as f64 / 1e6 / left as f64;
            let gap = (in_flight - throughput * sojourn_s).abs() / in_flight;
            assert!(gap <= 0.03, "rho {rho} window {i}: L {in_flight:.4}, gap {gap:.4}");
        }
    }
}

/// (e) Work conservation: a drained replica reports as consumed exactly
/// the demand of what completed plus the part of each timed-out request it
/// got through.
#[test]
fn consumed_work_is_the_work_of_what_left() {
    // No deadlines: every request completes, so consumed = Σ demand.
    let far = SimDuration::from_secs(3_600);
    let mut station = mg1_ps(0.9, 1.5, 5, 40_000, far);
    station.drain();
    let (got, want) = (station.consumed(), station.completed_demand);
    assert_eq!(station.dropped_demand, 0.0);
    assert!((got - want).abs() <= 1e-9 * want, "consumed {got} ≠ completed demand {want}");

    // Overloaded with a deadline: what timed out was credited something
    // between nothing and all of its demand.
    let mut station = mg1_ps(1.3, 0.6, 6, 40_000, SimDuration::from_millis(400));
    station.drain();
    let timeouts: u64 = station.windows.iter().map(|w| w.timeouts).sum();
    assert!(timeouts > 1_000, "the overload must time requests out ({timeouts})");
    let floor = station.completed_demand;
    let ceiling = floor + station.dropped_demand;
    let got = station.consumed();
    assert!(floor * (1.0 - 1e-9) <= got && got <= ceiling, "{floor} ≤ {got} ≤ {ceiling}");
    // The replica is never idle for long at ρ 1.3, so nearly all of its
    // capacity was delivered to someone.
    let capacity = CPU * station.now.as_secs_f64();
    assert!(got >= 0.99 * capacity, "consumed {got} of capacity {capacity}");

    // The credited part of a timed-out request, where it can be worked
    // out by hand: three requests share 2 000 mcore for 1.5 s, two time
    // out there with 1 000 mcore·s each, the third finishes alone.
    let mut server = replica();
    let deadline = SimTime::from_millis(1_500);
    for id in 0..2 {
        server.admit(id, SimTime::ZERO, deadline, ResourceVec::new(5_000.0, 1.0, 0.0, 0.0));
    }
    server.admit(
        2,
        SimTime::ZERO,
        SimTime::from_secs(60),
        ResourceVec::new(3_000.0, 1.0, 2.0, 0.0),
    );
    let out = server.advance(SimTime::from_secs(10));
    assert_eq!((out.timed_out.len(), out.completed.len()), (2, 1));
    // 1 000 mcore·s by 1.5 s, the remaining 2 000 alone in 1 s.
    assert_eq!(out.completed[0].latency, SimDuration::from_millis(2_500));
    let used = server.take_consumed();
    assert!((used.cpu() - 5_000.0).abs() <= 5e-6, "cpu {}", used.cpu());
    assert!((used[Resource::DiskIo] - 2.0).abs() <= 2e-9, "disk {}", used[Resource::DiskIo]);
}

/// (c) Utilisation law, through the engine: one service, one replica,
/// constant demands. The window's `usage.cpu ÷ alloc.cpu` is the offered
/// load — the nominal ρ to 0.5 %, and the load that actually arrived in
/// that window to 0.1 %.
#[test]
fn utilisation_is_the_offered_load() {
    for (rho, seed) in [(0.5, 11), (0.9, 12)] {
        let rate = rho / MEAN_SERVICE_S;
        let text = format!(
            r#"
name = "utilisation"
horizon_secs = 1600.0

[[service]]
name = "svc"
class = "rq"
demand = [{MEAN_DEMAND:?}, 1.0, 0.0, 0.0]
demand_cv = 0.0
timeout_secs = 600.0
plo_p99_ms = 1000.0
alloc = [{CPU:?}, 4096.0, 100.0, 100.0]

[service.load]
kind = "constant"
rate = {rate:?}
"#
        );
        let mix = ScenarioSpec::from_toml_str(&text).expect("a valid scenario").build().mix;
        let cluster = ClusterConfig::uniform(1, NodeShape::default());
        let mut sim = Simulation::new(SimulationConfig::default(), cluster, &mix, seed);
        let pod = sim.cluster().pending_pods().next().expect("one replica").id;
        let node = sim.cluster().nodes()[0].id();
        sim.bind_pod(pod, node).unwrap();
        let app = sim.apps()[0].id;
        // Start-up window: the pod starts, the front-door queue empties.
        sim.run_until(SimTime::from_secs(100));
        sim.take_window(app).unwrap();
        sim.run_until(SimTime::from_secs(1_600));
        let w = sim.take_window(app).unwrap();
        assert_eq!((w.timeouts, w.running_replicas), (0, 1));
        let utilisation = w.usage.cpu() / w.alloc.cpu();
        let arrived = w.arrivals as f64 * MEAN_SERVICE_S / w.duration.as_secs_f64();
        println!("rho {rho}: utilisation {utilisation:.5}, arrived load {arrived:.5}");
        assert!((utilisation / rho - 1.0).abs() <= 0.005, "rho {rho}: utilisation {utilisation}");
        assert!((utilisation / arrived - 1.0).abs() <= 0.001, "{utilisation} vs {arrived}");
    }
}
