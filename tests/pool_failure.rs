//! Acceptance test for the scale-out PM pool: on a 4-member pool with
//! one audit trail per member, one half of ONE member dies mid-hot-stock
//! run. The workload completes (degraded writes on the wounded member, full
//! mirroring everywhere else), only that member resilvers, and no other
//! member's mirror ever leaves Healthy.

use pmem::verify_mirrors;
use simcore::fault::{Fault, FaultPlan};
use simcore::time::{MILLIS, SECS};
use simcore::{DurableStore, SimTime};
use txnkit::scenario::{build_ods, AuditMode, OdsParams};
use workload::{install_workload, WorkloadConfig};

#[test]
fn one_member_half_dies_others_stay_healthy() {
    let volumes = 4u32;
    let wounded = 2u32;
    let drivers = 2u32;
    let records_per_driver = 512u64;
    let inserts_per_txn = 8u32;

    // Drivers start at t = 1.1 s (warmup); member 2's "b" half dies under
    // its audit trail at 1.2 s and revives, stale, at 1.6 s.
    // `PoolNpmuDown` is member-local — the other three pairs never fault.
    let outage = Fault::PoolNpmuDown {
        volume: wounded,
        half: 1,
        from: SimTime(1200 * MILLIS),
        to: SimTime(1600 * MILLIS),
    };
    let mut store = DurableStore::new();
    let mut node = build_ods(
        &mut store,
        OdsParams {
            audit: AuditMode::HardwareNpmu,
            fault_plan: FaultPlan::none().with(outage),
            ..OdsParams::pm_pool(0x9001f, volumes)
        },
    );
    let pmm = node.pmm.clone().expect("PM mode has a PMM");
    let pool = node.pm_pool.clone();
    assert_eq!(pool.len(), volumes as usize);

    let (view, machine) = (node.view(), node.machine.clone());
    let driver_stats = install_workload(
        &mut node.sim,
        &machine,
        &view,
        WorkloadConfig::hot_stock(drivers, inserts_per_txn, records_per_driver),
    );

    // Run until the workload finishes AND the wounded member resilvered.
    let ceiling = SimTime(600 * SECS);
    loop {
        let workload_done = driver_stats.lock().done();
        let resilvered = pmm.vol_stats[wounded as usize].lock().resilvers_completed >= 1;
        if workload_done && resilvered {
            break;
        }
        let now = node.sim.now();
        assert!(
            now < ceiling,
            "run did not finish: workload_done={workload_done} resilvered={resilvered}"
        );
        node.sim.run_until(SimTime(now.as_nanos() + 200 * MILLIS));
    }
    // Grace period for in-flight tails (final metadata writes, last
    // verify chunks) to land.
    let now = node.sim.now();
    node.sim.run_until(SimTime(now.as_nanos() + SECS));

    // Every acked commit survived the member-local outage.
    let (committed, inserted) = {
        let s = driver_stats.lock();
        (s.committed, s.inserted_records)
    };
    assert_eq!(inserted, drivers as u64 * records_per_driver);
    assert_eq!(
        committed,
        drivers as u64 * records_per_driver / inserts_per_txn as u64
    );

    // The four audit trails really landed one per member: during the run
    // every member's pair carried region windows beyond metadata.
    for (v, (a, b)) in pool.iter().enumerate() {
        assert!(
            a.att.lock().len() > 1 && b.att.lock().len() > 1,
            "member {v} carries no trail extent"
        );
    }

    // Failure isolation: exactly the wounded member degraded and
    // resilvered; the other members' mirrors never left Healthy.
    for (v, vs) in pmm.vol_stats.iter().enumerate() {
        let s = *vs.lock();
        if v == wounded as usize {
            assert_eq!(s.degraded_events, 1, "member {v}: {s:?}");
            assert_eq!(s.resilvers_started, 1, "member {v}: {s:?}");
            assert_eq!(s.resilvers_completed, 1, "member {v}: {s:?}");
            assert!(s.resilver_bytes_copied > 0, "member {v}: {s:?}");
        } else {
            assert_eq!(s.degraded_events, 0, "member {v}: {s:?}");
            assert_eq!(s.resilvers_started, 0, "member {v}: {s:?}");
        }
    }
    // The pool aggregate matches the single wounded member.
    let agg = *pmm.stats.lock();
    assert_eq!(agg.degraded_events, 1, "{agg:?}");
    assert_eq!(agg.resilvers_completed, 1, "{agg:?}");

    // §1.3 scrubber on every member: metadata and every trail extent
    // byte-identical on both halves after the online resilver.
    for (v, (a, b)) in pool.iter().enumerate() {
        let report = verify_mirrors(&a.mem, &b.mem, 8);
        assert!(
            report.is_clean(),
            "member {v} mirrors diverged after resilver: {report:?}"
        );
    }
}
