//! Acceptance test for NPMU mirror-failure tolerance: one mirror half
//! dies mid-hot-stock run, the workload completes in degraded mode with
//! every acked commit intact, the PMM resilvers the revived half online,
//! and the §1.3 scrubber finds the mirrors byte-identical afterward.

use pmem::oracle::{Expect, Snapshot, Trails};
use simcore::fault::{Fault, FaultPlan};
use simcore::time::{MILLIS, SECS};
use simcore::{DurableStore, SimTime};
use txnkit::scenario::{build_ods, AuditMode, OdsParams};
use workload::{install_workload, SharedWorkloadStats, WorkloadConfig};

#[test]
fn npmu_half_dies_mid_run_workload_survives_and_resilvers() {
    let drivers = 2u32;
    let records_per_driver = 512u64;
    let inserts_per_txn = 8u32;

    // The drivers start working at t = 1.1 s (warmup); the mirror half
    // hosting the audit regions' "b" copies dies under them at 1.2 s and
    // revives, stale, at 1.6 s.
    let outage = Fault::NpmuDown {
        volume_half: 1,
        from: SimTime(1200 * MILLIS),
        to: SimTime(1600 * MILLIS),
    };
    let mut store = DurableStore::new();
    let params = OdsParams {
        audit: AuditMode::HardwareNpmu,
        fault_plan: FaultPlan::none().with(outage),
        ..OdsParams::pm(0x51ee9)
    };
    let site = [Trails::node(&params)];
    let mut node = build_ods(&mut store, params);
    let pmm = node.pmm.clone().expect("PM mode has a PMM");

    let (view, machine) = (node.view(), node.machine.clone());
    let driver_stats = install_workload(
        &mut node.sim,
        &machine,
        &view,
        WorkloadConfig::hot_stock(drivers, inserts_per_txn, records_per_driver),
    );

    // Run until the workload finishes AND the PMM has resilvered.
    let ceiling = SimTime(600 * SECS);
    loop {
        let workload_done = driver_stats.lock().done();
        let resilvered = pmm.stats.lock().resilvers_completed >= 1;
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

    // The drivers completed their full scripted load in degraded mode,
    // nothing lost or re-issued.
    let (acked, inserted) = {
        let s = driver_stats.lock();
        (s.committed_ids.clone(), s.inserted_records)
    };
    assert_eq!(inserted, drivers as u64 * records_per_driver);
    assert_eq!(
        acked.len() as u64,
        drivers as u64 * records_per_driver / inserts_per_txn as u64
    );

    // The PMM saw the failure, degraded, and resilvered online while the
    // workload kept writing.
    let stats = *pmm.stats.lock();
    assert_eq!(stats.degraded_events, 1, "{stats:?}");
    assert_eq!(stats.resilvers_started, 1, "{stats:?}");
    assert_eq!(stats.resilvers_completed, 1, "{stats:?}");
    assert!(stats.resilver_bytes_copied > 0, "{stats:?}");

    // The repair moved its payload device to device and verified by
    // digests: no chunk crossed the PMM's ports.
    let ns = node.net.lock().stats;
    assert!(ns.rdma_copies > 0, "no NPMU→NPMU copy commands: {ns:?}");
    assert_eq!(ns.rdma_copy_bytes, stats.resilver_bytes_copied, "{ns:?}");
    assert!(ns.rdma_scrubs > 0, "no batched scrub commands: {ns:?}");

    // The repair wrote whole chunks to the revived half, but a copied
    // page keeps only its nonzero words: that half holds about what its
    // survivor holds, which took the same records as they were written.
    let held = |h: char| {
        let img = store.get::<npmu::NvImage>(&format!("npmu:pm-{h}"));
        img.expect("both halves exist").lock().held_bytes()
    };
    let (survivor, revived) = (held('a'), held('b'));
    assert!(
        revived * 10 <= survivor * 11,
        "the revived half holds {revived} bytes, its survivor {survivor}"
    );

    // Power loss after the repair: every acked commit redoes whole from
    // the images, and the §1.3 scrubber finds metadata and every region
    // byte identical on both halves.
    drop(node);
    store.reset_volatile();
    let expect = Expect {
        resilvered: true,
        ..Expect::finished(&acked, inserts_per_txn)
    };
    let report = Snapshot::read(&store, &site).check(&expect);
    report.assert_clean("after the resilver");
}

/// Both mirror halves are down at once (overlapping windows): every PM
/// write of the outage fails on both legs. The audit log may not treat
/// such a completion as durable — no watermark moves, no `AppendDone` or
/// commit is released — and must re-drive the same payload until a half
/// answers. Half 1's window nests inside half 0's, so half 1 is the
/// survivor holding the whole acknowledged history.
#[test]
fn both_halves_down_acks_nothing_until_a_half_is_back() {
    let drivers = 2u32;
    let records_per_driver = 512u64;
    let inserts_per_txn = 8u32;
    let both_down = (SimTime(1250 * MILLIS), SimTime(1450 * MILLIS));
    let plan = FaultPlan::none()
        .with(Fault::NpmuDown {
            volume_half: 0,
            from: SimTime(1200 * MILLIS),
            to: SimTime(1500 * MILLIS),
        })
        .with(Fault::NpmuDown {
            volume_half: 1,
            from: both_down.0,
            to: both_down.1,
        });
    let mut store = DurableStore::new();
    let params = OdsParams {
        audit: AuditMode::HardwareNpmu,
        fault_plan: plan,
        ..OdsParams::pm(0xB07D)
    };
    let site = [Trails::node(&params)];
    let mut node = build_ods(&mut store, params);
    let (view, machine) = (node.view(), node.machine.clone());
    let driver_stats = install_workload(
        &mut node.sim,
        &machine,
        &view,
        WorkloadConfig::hot_stock(drivers, inserts_per_txn, records_per_driver),
    );
    let progress = |stats: &SharedWorkloadStats| -> (u64, u64) {
        let s = stats.lock();
        (s.committed, s.inserted_records)
    };

    // Acks already on their way when the second half died get a
    // millisecond to reach the drivers; from then to the end of the
    // window nothing at all is acknowledged.
    node.sim.run_until(SimTime(both_down.0.as_nanos() + MILLIS));
    let frozen = progress(&driver_stats);
    assert!(frozen.0 > 0, "the outage must hit a running workload");
    node.sim.run_until(both_down.1);
    assert_eq!(progress(&driver_stats), frozen, "acked during the outage");
    let (redrives, rejected) = {
        let ts = node.stats.lock();
        (ts.pm_redrives, ts.pm_fenced + ts.pm_write_faults)
    };
    assert!(redrives > 0, "the failed writes must be re-driven");
    assert_eq!(rejected, 0, "an outage is not a rejection");

    // The workload then completes on the survivor.
    while !driver_stats.lock().done() {
        let now = node.sim.now();
        assert!(now < SimTime(600 * SECS), "workload did not finish");
        node.sim.run_until(SimTime(now.as_nanos() + 200 * MILLIS));
    }
    let want_txns = drivers as u64 * records_per_driver / inserts_per_txn as u64;
    assert_eq!(
        progress(&driver_stats),
        (want_txns, drivers as u64 * records_per_driver)
    );
    let now = node.sim.now();
    node.sim.run_until(SimTime(now.as_nanos() + SECS));
    let acked = driver_stats.lock().committed_ids.clone();
    drop(node);
    store.reset_volatile();

    // Every acked commit redoes from the images: from `b`, the survivor
    // holding the whole acknowledged history, wherever the PMM's durable
    // health still marks `a` stale; from either half once it is repaired.
    let expect = Expect::finished(&acked, inserts_per_txn);
    let report = Snapshot::read(&store, &site).check(&expect);
    report.assert_clean("after both halves were down");
    let inflight = &report.recovery.shards[0].inflight;
    assert!(inflight.is_empty(), "completed run leaves no inflight");
}
