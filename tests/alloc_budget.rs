//! The PM commit path allocates only what it keeps.
//!
//! The simulator's own cost bounds how much fuzzing and sweeping a CI run
//! can afford, and allocation is a large part of it. This test runs the
//! hot-stock load on a PM node, counts the allocations the simulation
//! makes per committed transaction once it is warm, and fails if that
//! count grows past a budget (DESIGN.md §3, "Allocation discipline").
//!
//! The counting allocator below counts only on this test's thread (the
//! simulation runs on it), so the harness's other threads cannot disturb
//! the number. It forwards every call to the system allocator unchanged.
//!
//! This file holds the only `unsafe` in first-party code: a
//! `#[global_allocator]` has no safe form. The lint below keeps every
//! unsafe operation in it inside an `unsafe` block with its own SAFETY
//! comment.
#![deny(unsafe_op_in_unsafe_fn)]

use simcore::time::MILLIS;
use simcore::{DurableStore, SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use txnkit::scenario::{build_ods, AuditMode, OdsParams};
use workload::{install_workload, WorkloadConfig};

struct ThreadCounting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread's locals may already be gone while it exits.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell`, so touching it allocates nothing and cannot recurse.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` was returned by `System` for this `layout`, and the
        // caller guarantees `new_size` is non-zero and does not overflow.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: ThreadCounting = ThreadCounting;

/// Allocations made on this thread while `f` runs.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCS.with(Cell::get) - before
}

/// Allocations per commit on the warm PM commit path: 63.8 measured, in
/// release and debug builds alike, of which about 40 are the message
/// envelopes (one or two boxes per event). The count is deterministic, but
/// a toolchain's collections may grow differently, so the budget leaves
/// about 10%: six allocations per commit. That catches a return of
/// per-write copies on the write path (with them it read 114.9), not one
/// stray clone; the printed number is the finer signal.
const BUDGET_PER_COMMIT: f64 = 70.0;

#[test]
fn pm_commit_path_stays_within_its_allocation_budget() {
    const DRIVERS: u32 = 2;
    const TXNS_PER_DRIVER: u64 = 600;
    const WARM_COMMITS: u64 = 200;
    let mut store = DurableStore::new();
    let mut node = build_ods(
        &mut store,
        OdsParams {
            audit: AuditMode::HardwareNpmu,
            ..OdsParams::pm(0x0D5B11)
        },
    );
    // Zero-think hot-stock clients issuing one 4 KB insert per
    // transaction, started `warmup` after boot.
    let load = WorkloadConfig::hot_stock(DRIVERS, 1, TXNS_PER_DRIVER);
    let warmup = load.warmup;
    let (view, machine) = (node.view(), node.machine.clone());
    let stats = install_workload(&mut node.sim, &machine, &view, load);
    let committed = || stats.lock().committed;
    let step = SimDuration::from_nanos(MILLIS / 4);

    // Warm: every table, pool and scratch buffer on the path reaches its
    // steady size before anything is counted.
    node.sim.run_until(SimTime::ZERO + warmup);
    while committed() < WARM_COMMITS {
        node.sim.run_for(step);
    }
    let warm = committed();
    let allocs = allocations_in(|| {
        while !stats.lock().done() {
            node.sim.run_for(step);
        }
    });
    let commits = committed() - warm;
    assert_eq!(committed(), DRIVERS as u64 * TXNS_PER_DRIVER);

    let per_commit = allocs as f64 / commits as f64;
    println!("{allocs} allocations over {commits} commits: {per_commit:.1} per commit");
    assert!(
        per_commit <= BUDGET_PER_COMMIT,
        "{per_commit:.1} allocations per commit, budget {BUDGET_PER_COMMIT}"
    );
}
