//! Allocations per executed event, counted.
//!
//! The model's hot events and the continuations its layers hand one
//! another are allocation-free callbacks (DESIGN §8g), so a run should
//! allocate far less often than it dispatches events. Host time cannot pin
//! that (it spreads 10–20% between runs of one binary); an allocation
//! count can, since it is deterministic for one toolchain. This binary
//! counts every allocation through a global allocator of its own, so it
//! holds this one test: another test running beside it would be counted
//! too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use kus_core::prelude::*;
use kus_scenario::Scenario;
use kus_workloads::microbench::{Microbench, MicrobenchConfig};

/// Forwards to [`System`], counting allocations (not reallocations).
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only other effect is a relaxed
// atomic increment, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per executed event the figure cells may make. With a boxed
/// closure for nearly every event they made 1.37–1.70 (1.36 over the
/// whole `figures-fast` benchmark workload); with the callbacks they make
/// 0.17–0.34.
const FIGURE_BUDGET: f64 = 0.5;

/// The same for a traced serving world, whose trace log and serving
/// machinery allocate on top of the model: 3.33 per event with boxed
/// closures, 0.82 with the callbacks.
const SERVING_BUDGET: f64 = 1.0;

/// Runs `run` and returns its report with the allocations it made, from
/// the dataset build to the harvest.
fn counted(run: impl FnOnce() -> RunReport) -> (RunReport, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let report = run();
    (report, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// A fast-quality figure cell: the microbenchmark at the paper's work
/// count on the idealized 1 µs device, 250 iterations per fiber.
fn figure_cell(mechanism: Mechanism, fibers: usize) -> RunReport {
    let cfg = PlatformConfig::paper_default()
        .without_replay_device()
        .mechanism(mechanism)
        .device_latency(Span::from_us(1))
        .fibers_per_core(fibers);
    let mut w = Microbench::new(MicrobenchConfig {
        work_count: 100,
        mlp: 1,
        iters_per_fiber: 250,
        writes_per_iter: 0,
    });
    Platform::try_new(cfg).expect("valid config").run(&mut w)
}

#[test]
fn hot_paths_allocate_less_than_once_per_event() {
    // Fig. 2's on-demand cell, Fig. 3's prefetch cell at the 10-LFB wall
    // and Fig. 7's software-queue cell at 16 threads.
    for (mechanism, fibers) in
        [(Mechanism::OnDemand, 1), (Mechanism::Prefetch, 10), (Mechanism::SoftwareQueue, 16)]
    {
        let (r, allocations) = counted(|| figure_cell(mechanism, fibers));
        let per_event = allocations as f64 / r.sim_events as f64;
        println!("{mechanism}: {allocations} allocations over {} events, {per_event:.3} per event", r.sim_events);
        assert!(
            per_event <= FIGURE_BUDGET,
            "{mechanism}: {per_event:.3} allocations per event exceed {FIGURE_BUDGET} \
             ({allocations} over {} events)",
            r.sim_events
        );
    }

    let sc = Scenario::from_toml(include_str!("../scenarios/calm-poisson.toml"))
        .expect("shipped world parses");
    let exp = sc.experiment().expect("valid experiment");
    let (r, allocations) = counted(|| exp.run());
    assert!(r.trace.is_some(), "serving worlds are traced");
    let per_event = allocations as f64 / r.sim_events as f64;
    println!("{}: {allocations} allocations over {} events, {per_event:.3} per event", sc.name(), r.sim_events);
    assert!(
        per_event <= SERVING_BUDGET,
        "{}: {per_event:.3} allocations per event exceed {SERVING_BUDGET} ({allocations} over {} events)",
        sc.name(),
        r.sim_events
    );
}
