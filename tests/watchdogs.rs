//! Per-operation watchdogs leave the event queue with their operation.
//!
//! Every PM insert stands a `PmWriteTimeout` over each mirrored chain, and
//! an `nsk::requests::Retry` over its audit delta (DP2) and over each TMF
//! sub-operation; the retry timers are due 900 ms out. While nothing
//! fails, none of them has anything to do — and none of them may still be
//! standing in the queue once the operation it guarded has completed.

use simcore::fault::{Fault, FaultPlan};
use simcore::time::MILLIS;
use simcore::{DurableStore, SimDuration, SimTime};
use txnkit::scenario::{build_ods, AuditMode, OdsNode, OdsParams};
use workload::{install_workload, SharedWorkloadStats, WorkloadConfig};

/// Zero-think hot-stock clients issuing one 4 KB insert per transaction,
/// started 1.1 s after boot.
fn install_drivers(node: &mut OdsNode, drivers: u32, txns: u64) -> SharedWorkloadStats {
    let (view, machine) = (node.view(), node.machine.clone());
    install_workload(
        &mut node.sim,
        &machine,
        &view,
        WorkloadConfig::hot_stock(drivers, 1, txns),
    )
}

#[test]
fn fault_free_pm_run_leaves_no_watchdog_standing() {
    const DRIVERS: u32 = 2;
    const TXNS_PER_DRIVER: u64 = 1_100;
    let mut store = DurableStore::new();
    let mut node = build_ods(
        &mut store,
        OdsParams {
            audit: AuditMode::HardwareNpmu,
            ..OdsParams::pm(0x0D5B11)
        },
    );
    let drivers = install_drivers(&mut node, DRIVERS, TXNS_PER_DRIVER);
    let warmup = SimDuration::from_millis(1100);

    // Sample the queue every quarter millisecond of the run (≈ 0.7 s:
    // shorter than one retry delay, so a timer left to stand until due
    // would still be there at the last commit).
    node.sim.run_until(SimTime::ZERO + warmup);
    let mut deepest = 0;
    while !drivers.lock().done() {
        node.sim.run_for(SimDuration::from_nanos(MILLIS / 4));
        deepest = deepest.max(node.sim.pending_events());
    }
    let commits = drivers.lock().committed;
    assert_eq!(commits, DRIVERS as u64 * TXNS_PER_DRIVER);

    // Standing work is what the clients have in flight plus the node's
    // periodic ticks — tens of events, independent of how many commits
    // went by (13 here). Left standing until due, the two 900 ms retry
    // timers of every commit make it 4,443.
    let bound = 32 * DRIVERS as usize;
    assert!(
        deepest <= bound,
        "standing queue reached {deepest} events over {commits} commits (bound {bound})"
    );
}

/// The trail writer's region-create `Retry` is the one re-drive no other
/// test makes fire: the ADPs' first region-create RPC dies in a boot-time
/// outage of both fabrics, and only the re-send 500 ms later can bring the
/// trails up.
#[test]
fn region_create_lost_at_boot_is_redriven_by_its_retry_timer() {
    let outage = |fabric| Fault::FabricDown {
        fabric,
        from: SimTime::ZERO,
        to: SimTime(100 * MILLIS),
    };
    let mut store = DurableStore::new();
    let mut node = build_ods(
        &mut store,
        OdsParams {
            audit: AuditMode::HardwareNpmu,
            fault_plan: FaultPlan::none().with(outage(0)).with(outage(1)),
            ..OdsParams::pm(7)
        },
    );
    let drivers = install_drivers(&mut node, 1, 50);
    node.sim.run_until(SimTime(400 * MILLIS));
    let lost = node.net.lock().stats.unreachable;
    assert!(lost > 0, "the outage dropped nothing");
    node.sim.run_until(SimTime(3_000 * MILLIS));
    let d = drivers.lock();
    assert!(d.done(), "trail never came up: {} commits", d.committed);
    assert_eq!(d.committed, 50);
}
