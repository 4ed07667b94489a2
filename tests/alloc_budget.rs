//! The PM commit path allocates only what it keeps, and recovery holds
//! only what it returns.
//!
//! The simulator's own cost bounds how much fuzzing and sweeping a CI run
//! can afford, and allocation is a large part of it. The first test runs
//! the hot-stock load on a PM node, counts the allocations the simulation
//! makes per committed transaction once it is warm, and fails if that
//! count grows past a budget (DESIGN.md §3, "Allocation discipline"). The
//! second redoes a long trail and holds the live heap it peaks at, above
//! its input, to a budget per record (DESIGN.md §5, "Partitioning &
//! recovery merge").
//!
//! The counting allocator below counts only on the thread that switched
//! it on (each test's own), so the harness's other threads cannot disturb
//! the numbers. It forwards every call to the system allocator unchanged.
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
use txnkit::audit::AuditRecord;
use txnkit::recovery::redo_scan_partitioned;
use txnkit::scenario::{build_ods, AuditMode, OdsParams};
use txnkit::{PartitionId, TxnId};
use workload::{install_workload, WorkloadConfig};

struct ThreadCounting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated less bytes freed while counting: below zero once
    /// more was freed than allocated since counting began.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The highest `LIVE` reached.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Count `allocs` allocations that grow the live heap by `grow` bytes.
fn count(allocs: u64, grow: i64) {
    // `try_with`: a thread's locals may already be gone while it exits.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + allocs));
            let _ = LIVE.try_with(|live| {
                live.set(live.get() + grow);
                let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
            });
        }
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a const-initialized
// thread-local `Cell`, so touching it allocates nothing and cannot recurse.
unsafe impl GlobalAlloc for ThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, -(layout.size() as i64));
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(1, layout.size() as i64);
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, new_size as i64 - layout.size() as i64);
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

/// What `f` returns, and the peak of the live heap on this thread while
/// it ran, above what was live when it began.
fn peak_heap_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    LIVE.with(|live| live.set(0));
    PEAK.with(|peak| peak.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, PEAK.with(Cell::get) as u64)
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

/// Live heap redo may peak at per record read, above its input trails.
/// Recovery streams its trails: two passes over the windows, keeping
/// outcome sets and the redone tables, and nothing of the history itself.
/// Measured: 34.6 B per record, about what the tables and sets it returns
/// hold. A redo that decoded every window into a `Vec` and merged those
/// into a second one peaked at 225.2 B per record on this trail.
const REDO_PEAK_PER_RECORD: f64 = 64.0;

#[test]
fn redo_holds_outcomes_and_tables_not_a_decoded_history() {
    const TXNS: u64 = 6_000;
    const INSERTS: u64 = 8;
    // Hot-stock-shaped transactions on two partitions: eight inserts, each
    // a descriptor of an 8-byte body with its own key, then a commit. Each
    // record is written at the start of its slot, so zero gaps follow.
    let mut trails = [Vec::new(), Vec::new()];
    for t in 0..TXNS {
        let (txn, trail) = (TxnId(t), &mut trails[(t % 2) as usize]);
        let mut append = |rec: AuditRecord, slot: usize| {
            let at = trail.len();
            trail.extend_from_slice(&rec.encode());
            trail.resize(at + slot, 0);
        };
        for k in 0..INSERTS {
            let body = (t * INSERTS + k).to_le_bytes();
            let insert = AuditRecord::Insert {
                txn,
                partition: PartitionId {
                    file: 0,
                    part: (t % 2) as u32,
                },
                key: t * INSERTS + k,
                virtual_len: 4096,
                body_crc: pmm::meta::crc32(&body),
                body: body.to_vec().into(),
            };
            append(insert, 128);
        }
        append(AuditRecord::Commit { txn }, 64);
    }
    let refs: Vec<&[u8]> = trails.iter().map(Vec::as_slice).collect();

    let (recovered, peak) = peak_heap_in(|| redo_scan_partitioned(&refs));
    let records = recovered.records_scanned;
    assert_eq!(records, TXNS * (INSERTS + 1));
    assert_eq!(recovered.committed.len() as u64, TXNS);
    let per_record = peak as f64 / records as f64;
    println!(
        "redo of {records} records peaked {peak} B above its input: {per_record:.1} B per record"
    );
    assert!(
        per_record <= REDO_PEAK_PER_RECORD,
        "{per_record:.1} B per record, budget {REDO_PEAK_PER_RECORD}"
    );
}
