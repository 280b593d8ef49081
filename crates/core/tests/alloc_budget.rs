//! A run's steady state allocates nothing. Every table that churns per
//! placement, pod start or control decision keeps its buffers, and every
//! table that grows with the run gets its size before it (DESIGN.md
//! decision 16), so past its warm-up a run twice as long makes exactly as
//! many allocations, reallocations included.
//!
//! Warm-up is the first use of each server, node pod list, latency buffer
//! and index table, and, under EVOLVE, the filling of the decision-trace
//! ring: until it is full the ring keeps every control record's explain
//! box, and after that it hands the evicted ones back.
//!
//! A test-only allocator counts them. It is this binary's global allocator,
//! so the binary holds one test, which makes its runs one after another. It
//! counts per thread: the harness's own threads allocate when they please,
//! and a run is one thread's work.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use evolve_core::{ExperimentRunner, ManagerKind, RunConfig, SchedulerProfile};
use evolve_types::SimDuration;
use evolve_workload::ScenarioSpec;

/// An allocation or reallocation of at least this many bytes is large.
const LARGE: usize = 64 * 1024;

thread_local! {
    /// `(allocations, large allocations)` this thread has made. Constant
    /// initialised and without a destructor, so reading it allocates nothing.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The system allocator, counting.
struct Counting;

fn count(size: usize) {
    // A thread being torn down has no counters left; its allocations are
    // not a run's.
    let _ = COUNTS.try_with(|counts| {
        let (all, large) = counts.get();
        counts.set((all + 1, large + u64::from(size >= LARGE)));
    });
}

// SAFETY: every call goes to `System` with the caller's arguments unchanged;
// the counters are thread-local cells and touch no memory the allocator
// hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract, passed on as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: `ptr` came from `System` through this allocator, and the
        // caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// What building, running and dropping one run makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Made {
    /// Allocations and reallocations.
    all: u64,
    /// Those of them that are large.
    large: u64,
    /// Control records with an explain box that the trace ring retains.
    explained: u64,
}

/// What one run of `spec` to `horizon` at seed 42 makes.
fn made(spec: &ScenarioSpec, manager: ManagerKind, horizon: u64) -> Made {
    let mut spec = spec.clone();
    spec.horizon = SimDuration::from_secs(horizon);
    let cfg = RunConfig::from_spec(&spec, manager);
    let cfg = if spec.name.starts_with("cluster-scale") {
        // As the repo benchmark runs `cluster_scale`, under either manager.
        cfg.scheduler(SchedulerProfile::Evolve).record_series(false).build()
    } else {
        cfg.build()
    };
    let (all, large) = COUNTS.with(Cell::get);
    let outcome = ExperimentRunner::new(cfg).run();
    let explained = outcome.trace.control().filter(|c| c.explain.is_some()).count() as u64;
    drop(outcome);
    let (all_after, large_after) = COUNTS.with(Cell::get);
    let made = Made { all: all_after - all, large: large_after - large, explained };
    eprintln!("{} under {} to {horizon} s: {made:?}", spec.name, manager.label());
    made
}

/// Allocations in all, reallocations included, per run at seed 42, while
/// per-tick buffers were still rebuilt (commit `474d9e0`) and since:
///
/// | run                                       | before | after |
/// |-------------------------------------------|--------|-------|
/// | `headline(0.25)`, EVOLVE, 900 s           | 12 306 | 3 002 |
/// | `headline(0.25)`, EVOLVE, 1 800 s         | 24 446 | 4 982 |
/// | `cluster_scale(50, 10)`, static, 300 s    |  3 557 | 1 615 |
/// | `cluster_scale(50, 10)`, static, 600 s    |  6 196 | 1 679 |
/// | `cluster_scale(50, 10)`, static, 1 200 s  | 11 473 | 1 681 |
/// | `cluster_scale(50, 10)`, static, 2 400 s  | 21 942 | 1 681 |
/// | `cluster_scale(50, 10)`, EVOLVE, 1 200 s  | 46 955 | 4 536 |
/// | `cluster_scale(50, 10)`, EVOLVE, 2 400 s  | 98 352 | 4 536 |
///
/// A `scale1k_churn` rep (`cluster_scale(1 000, 40, 600 s)`) makes
/// ≈ 98.9 k before and ≈ 25.8 k after, nearly all of them warm-up: the
/// first heaps of its servers, its 1 000 node pod lists and the
/// feasibility index's per-node tables.
///
/// `cluster_scale` is past its warm-up at 1 200 s: its batch tasks first
/// complete at ≈ 325 s, so the first retired server and the jobs' latency
/// buffers come after a 300 s run, and under EVOLVE the trace ring fills
/// at ≈ 970 s. The headline's ring is not full at 1 800 s, so its runs
/// differ by exactly the explain boxes the longer one keeps. Its shorter
/// run starts after its last job is submitted: a job's first window
/// interns its series, and each series reserves 64 KiB.
#[test]
fn a_steady_state_allocates_nothing() {
    let headline = ScenarioSpec::headline(0.25);
    let scale = ScenarioSpec::cluster_scale(50, 10, SimDuration::from_secs(600));
    let headline_runs =
        (made(&headline, ManagerKind::Evolve, 900), made(&headline, ManagerKind::Evolve, 1_800));
    let static_runs =
        (made(&scale, ManagerKind::KubeStatic, 300), made(&scale, ManagerKind::KubeStatic, 600));

    // Decision 16: no table of a run grows by doubling while it fills.
    for (name, (once, twice)) in [(&headline.name, headline_runs), (&scale.name, static_runs)] {
        assert!(once.large > 0 && twice.all > once.all, "{name}: nothing to count");
        assert_eq!(twice.large, once.large, "{name}: large allocations at H and at 2H");
    }

    // Past the warm-up, a run twice as long allocates not once more.
    for manager in [ManagerKind::KubeStatic, ManagerKind::Evolve] {
        let (once, twice) = (made(&scale, manager, 1_200), made(&scale, manager, 2_400));
        let label = manager.label();
        assert_eq!(
            twice.all, once.all,
            "{} under {label}: allocations at 1 200 s and 2 400 s",
            scale.name
        );
    }

    // With the ring still filling, the explain boxes it keeps are the only
    // allocations the longer run adds.
    let (once, twice) = headline_runs;
    assert!(twice.explained > once.explained, "the ring filled: pick a longer run");
    assert_eq!(
        twice.all - once.all,
        twice.explained - once.explained,
        "{}: allocations the longer run adds beyond its explain boxes",
        headline.name
    );
}
