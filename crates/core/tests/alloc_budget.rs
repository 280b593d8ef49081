//! Large allocations do not grow with the horizon: every table of a run
//! that reaches 64 KiB — the pod table and those indexed by pod id, the
//! event queues, the replica tables, the trace ring, the scheduler's queue
//! and backoff index — gets its size before the run and never grows by
//! doubling while the run fills it. So a run twice as long makes exactly as
//! many large allocations and reallocations.
//!
//! A test-only allocator counts them. It is this binary's global allocator,
//! so the binary holds one test, which makes its runs one after another.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use evolve_core::{ExperimentRunner, ManagerKind, RunConfig, SchedulerProfile};
use evolve_types::SimDuration;
use evolve_workload::ScenarioSpec;

/// An allocation or reallocation of at least this many bytes is large.
const LARGE: usize = 64 * 1024;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LARGE_ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting.
struct Counting;

fn count(size: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    if size >= LARGE {
        LARGE_ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call goes to `System` with the caller's arguments unchanged;
// the counters are atomics and touch no memory the allocator hands out.
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

/// `(allocations, large allocations)` of building, running and dropping
/// one run of `spec` to `horizon`.
fn allocations(spec: &ScenarioSpec, manager: ManagerKind, horizon: u64) -> (u64, u64) {
    let mut spec = spec.clone();
    spec.horizon = SimDuration::from_secs(horizon);
    let cfg = RunConfig::from_spec(&spec, manager);
    let cfg = if manager == ManagerKind::KubeStatic {
        // As the repo benchmark runs `cluster_scale`.
        cfg.scheduler(SchedulerProfile::Evolve).record_series(false).build()
    } else {
        cfg.build()
    };
    let (all, large) =
        (ALLOCATIONS.load(Ordering::Relaxed), LARGE_ALLOCATIONS.load(Ordering::Relaxed));
    drop(ExperimentRunner::new(cfg).run());
    (ALLOCATIONS.load(Ordering::Relaxed) - all, LARGE_ALLOCATIONS.load(Ordering::Relaxed) - large)
}

/// Allocations in all, per run at seed 42, before the tables were sized
/// once and after:
///
/// | run                                    | before | after  |
/// |----------------------------------------|--------|--------|
/// | `headline(0.25)`, EVOLVE, 900 s        | 12 441 | 12 315 |
/// | `headline(0.25)`, EVOLVE, 1 800 s      | 24 644 | 24 456 |
/// | `cluster_scale(50, 10)`, static, 300 s |  4 466 |  3 560 |
/// | `cluster_scale(50, 10)`, static, 600 s |  7 805 |  6 202 |
///
/// A `scale1k_churn` rep (`cluster_scale(1 000, 40, 600 s)`) makes ≈ 102.2 k
/// before and ≈ 98.8 k after. Before, the longer headline run made 76 large
/// ones against 75 and the longer `cluster_scale` run 7 against 6.
///
/// The headline's shorter run starts after its last job is submitted: a
/// job's first window interns its series, and each series reserves 64 KiB.
#[test]
fn large_allocations_do_not_grow_with_the_horizon() {
    let headline = ScenarioSpec::headline(0.25);
    let scale = ScenarioSpec::cluster_scale(50, 10, SimDuration::from_secs(600));
    for (spec, manager, horizon) in
        [(&headline, ManagerKind::Evolve, 900), (&scale, ManagerKind::KubeStatic, 300)]
    {
        let (all, large) = allocations(spec, manager, horizon);
        let (all_twice, large_twice) = allocations(spec, manager, 2 * horizon);
        eprintln!("{}: {all} then {all_twice} allocations", spec.name);
        assert!(large > 0 && all_twice > all, "{}: nothing to count", spec.name);
        assert_eq!(
            large_twice, large,
            "{}: large allocations at {horizon} s and at twice that",
            spec.name
        );
    }
}
