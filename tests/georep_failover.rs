//! # Geo-replication: log shipping, the failover drill, and WAN determinism
//!
//! Three properties of the DR pipeline, end to end through the simulated
//! primary (workload → DP2s/TMF → partitioned PM audit trails), the WAN
//! link, and the replica site's standby PM pool:
//!
//! 1. **Eager shipping converges to RPO = 0**: once the workload
//!    quiesces and the pipe drains, every partition's replica trail is
//!    byte-identical to the primary's through the full durable
//!    watermark, and a partitioned redo scan of the *replica* trails
//!    recovers every transaction the primary acknowledged.
//! 2. **The failover drill fences the old primary**: after the WAN is
//!    severed and the pool epoch-fenced, the revived/zombie primary's
//!    trail writes take `AccessViolation` at the NPMU (device-level
//!    rejection, counted), the ADPs freeze (no more acks), and the
//!    replica's shipped prefix is still byte-identical — a zombie can
//!    stall itself but never corrupt the survivor's view.
//! 3. **Replication through WAN partitions is deterministic**: same
//!    seed, same flap windows ⇒ bit-identical replica trail images and
//!    identical shipper/replica counters, so DR experiments are
//!    replayable like every other experiment in this repo.

mod common;

use common::{read_region, try_read_region};
use simcore::time::{MILLIS, SECS};
use simcore::{DurableStore, SimTime};
use txnkit::adp::{parse_ctrl_cell, PM_CTRL_BYTES};
use txnkit::recovery::redo_scan_partitioned;
use txnkit::scenario::{build_georep, GeorepNode, GeorepParams};
use workload::{install_workload, run_to_completion, Keys, ThinkTime, WorkloadConfig};

const CLIENTS: u64 = 8;
const TXNS_PER_CLIENT: u64 = 6;
const PARTS: usize = 4; // OdsParams::pm default: one audit partition per CPU

fn start_workload(node: &mut GeorepNode, seed: u64) -> workload::SharedWorkloadStats {
    let (view, machine) = (node.node.view(), node.node.machine.clone());
    install_workload(
        &mut node.node.sim,
        &machine,
        &view,
        WorkloadConfig {
            think: ThinkTime::Zero,
            keys: Keys::Disjoint,
            track_txns: true,
            records_per_client: TXNS_PER_CLIENT * 4,
            run_for: None,
            inserts_per_txn: 4,
            ..WorkloadConfig::new(seed, CLIENTS)
        },
    )
}

/// Primary/replica watermarks and trail prefixes for one partition, read
/// offline from the durable device images (the crash view).
fn site_watermarks(store: &mut DurableStore, part: usize) -> (u64, u64, Vec<u8>, Vec<u8>) {
    let region = format!("adp{part}.audit");
    let p_raw = try_read_region(store, "npmu:pm-a", &region, 0)
        .unwrap_or_else(|| panic!("{region} missing on primary image"));
    let r_raw = try_read_region(store, "npmu:drpm-a", &region, 0)
        .unwrap_or_else(|| panic!("{region} missing on replica image"));
    let (p_wm, _) = parse_ctrl_cell(&p_raw);
    let (r_wm, _) = parse_ctrl_cell(&r_raw);
    (
        p_wm,
        r_wm,
        p_raw[PM_CTRL_BYTES as usize..].to_vec(),
        r_raw[PM_CTRL_BYTES as usize..].to_vec(),
    )
}

#[test]
fn eager_shipping_converges_to_rpo_zero() {
    let mut store = DurableStore::new();
    let mut node = build_georep(&mut store, GeorepParams::pm(0x6E01));
    let stats = start_workload(&mut node, 0x6E01);
    run_to_completion(&mut node.node.sim, &stats, SimTime(60 * SECS));
    // Drain: the last durable publications notify the shipper, the final
    // batches cross the WAN, the replica persists and acks.
    let t = node.node.sim.now();
    node.node
        .sim
        .run_until(SimTime(t.as_nanos() + 500 * MILLIS));

    let committed_ids = stats.lock().committed_ids.clone();
    assert_eq!(committed_ids.len() as u64, CLIENTS * TXNS_PER_CLIENT);
    let ship = node.shipper_stats.lock().clone();
    assert_eq!(ship.parts.len(), PARTS);
    assert_eq!(
        ship.rpo_bytes(),
        0,
        "drained eager pipe still exposed: {:?}",
        ship.parts
    );
    assert!(ship.batches_shipped > 0 && ship.acks > 0);
    drop(node);
    store.reset_volatile();

    // Every partition: replica watermark == primary watermark, trail
    // prefixes byte-identical (the shipped image IS the primary image).
    let mut replica_trails: Vec<Vec<u8>> = Vec::new();
    for part in 0..PARTS {
        let (p_wm, r_wm, p_trail, r_trail) = site_watermarks(&mut store, part);
        assert_eq!(p_wm, r_wm, "partition {part} watermark lag after drain");
        assert!(r_wm > 0, "partition {part} saw no traffic");
        assert!(
            r_wm <= p_trail.len() as u64,
            "test assumes an unwrapped trail"
        );
        assert_eq!(
            &p_trail[..r_wm as usize],
            &r_trail[..r_wm as usize],
            "partition {part} replica trail diverges from primary"
        );
        replica_trails.push(r_trail);
    }

    // The replica alone recovers every acknowledged transaction: redo
    // over the *standby* trails yields the workload's committed set.
    let refs: Vec<&[u8]> = replica_trails.iter().map(|t| t.as_slice()).collect();
    let rec = redo_scan_partitioned(&refs);
    for txn in &committed_ids {
        assert!(
            rec.committed.contains(txn),
            "acked {txn:?} not recoverable at the DR site (RPO != 0)"
        );
    }
}

#[test]
fn failover_drill_fences_the_old_primary() {
    let mut store = DurableStore::new();
    let mut params = GeorepParams::pm(0x6E02);
    // Disaster at 1.6 s (mid-workload), dead-primary declaration and
    // epoch fence 100 ms later.
    params.sever_at = Some(simcore::SimDuration::from_nanos(1_600 * MILLIS));
    params.fence_at = Some(simcore::SimDuration::from_nanos(1_700 * MILLIS));
    let mut node = build_georep(&mut store, params);
    let (view, machine) = (node.node.view(), node.node.machine.clone());
    // Open-ended load so the zombie primary is still appending when the
    // fence lands.
    let stats = install_workload(
        &mut node.node.sim,
        &machine,
        &view,
        WorkloadConfig {
            think: ThinkTime::Zero,
            keys: Keys::Disjoint,
            run_for: Some(simcore::SimDuration::from_nanos(2_000 * MILLIS)),
            inserts_per_txn: 4,
            ..WorkloadConfig::new(0x6E02, CLIENTS)
        },
    );
    node.node.sim.run_until(SimTime(4 * SECS));

    // The drill ran on schedule and the fence round-tripped: epoch
    // persisted on every pool member, then engaged, then acked.
    let drill = *node.drill.lock();
    assert_eq!(drill.severed_at_ns, 1_600 * MILLIS);
    assert!(drill.fence_acked_at_ns > drill.fence_sent_at_ns);
    assert!(drill.fence_ok, "pool rejected the drill's fence epoch");

    // The zombie kept writing: the devices rejected it (fenced_ops) and
    // the ADPs froze (pm_fenced counts AccessViolation completions).
    let fenced_ops: u64 = node
        .node
        .pm_pool
        .iter()
        .flat_map(|(a, b)| [a, b])
        .map(|h| h.stats.lock().fenced_ops)
        .sum();
    assert!(fenced_ops > 0, "no post-fence write reached a device");
    assert!(
        node.node.stats.lock().pm_fenced > 0,
        "no ADP observed the fence"
    );
    // Workload progress stalled at the fence: commits need trail flushes.
    assert!(
        stats.lock().committed > 0,
        "nothing committed before the drill"
    );

    // The replica's shipped prefix is intact and byte-identical — the
    // zombie stalled, it did not corrupt.
    drop(node);
    store.reset_volatile();
    let mut any_shipped = false;
    for part in 0..PARTS {
        let (p_wm, r_wm, p_trail, r_trail) = site_watermarks(&mut store, part);
        assert!(r_wm <= p_wm, "replica ahead of a fenced primary");
        assert_eq!(
            &p_trail[..r_wm as usize],
            &r_trail[..r_wm as usize],
            "partition {part} replica prefix diverges"
        );
        any_shipped |= r_wm > 0;
    }
    assert!(any_shipped, "nothing replicated before the disaster");
}

#[test]
fn wan_partition_replication_is_deterministic() {
    let run = || {
        let mut store = DurableStore::new();
        let mut params = GeorepParams::pm(0x6E03);
        // The link flaps twice mid-workload: batches and acks die on the
        // wire, the retry timers rewind and re-ship.
        params.wan.down_windows = vec![
            (SimTime(1_200 * MILLIS), SimTime(1_350 * MILLIS)),
            (SimTime(1_450 * MILLIS), SimTime(1_550 * MILLIS)),
        ];
        params.wan.one_way_delay = simcore::SimDuration::from_nanos(5 * MILLIS);
        let mut node = build_georep(&mut store, params);
        // Sustained load (not a burst) so trail traffic spans both flaps.
        let (view, machine) = (node.node.view(), node.node.machine.clone());
        let stats = install_workload(
            &mut node.node.sim,
            &machine,
            &view,
            WorkloadConfig {
                think: ThinkTime::Zero,
                keys: Keys::Disjoint,
                run_for: Some(simcore::SimDuration::from_nanos(600 * MILLIS)),
                inserts_per_txn: 4,
                ..WorkloadConfig::new(0x6E03, CLIENTS)
            },
        );
        run_to_completion(&mut node.node.sim, &stats, SimTime(60 * SECS));
        let t = node.node.sim.now();
        node.node.sim.run_until(SimTime(t.as_nanos() + SECS));

        let ship = node.shipper_stats.lock().clone();
        let rep = *node.replica_stats.lock();
        let wan = node.wan.lock().stats;
        let dispatched = node.node.sim.dispatched();
        drop(node);
        store.reset_volatile();
        let mut images = Vec::new();
        for part in 0..PARTS {
            images.push(read_region(
                &mut store,
                "npmu:drpm-a",
                &format!("adp{part}.audit"),
                0,
            ));
        }
        (
            (
                dispatched,
                ship.batches_shipped,
                ship.rewinds,
                ship.wan_drops,
                rep.batches_applied,
                rep.stale,
                rep.gaps,
                wan.dropped,
            ),
            images,
        )
    };
    let (a, a_images) = run();
    let (b, b_images) = run();
    assert_eq!(
        a, b,
        "WAN-partitioned replication counters not reproducible"
    );
    for part in 0..PARTS {
        assert!(
            a_images[part] == b_images[part],
            "partition {part} replica image not reproducible"
        );
    }
    // The flaps actually bit: losses happened and were repaired.
    assert!(a.7 > 0, "no WAN drops — windows missed the traffic");
    assert!(a.2 > 0, "no rewinds — loss recovery never exercised");
    assert!(a.4 > 0, "replica applied nothing");
}

#[test]
fn lazy_partitions_catch_up_on_the_poll_timer() {
    let mut store = DurableStore::new();
    let mut params = GeorepParams::pm(0x6E04);
    params.eager_partitions = 0; // every partition cold: timer-driven only
    params.lazy_interval = simcore::SimDuration::from_nanos(20 * MILLIS);
    let mut node = build_georep(&mut store, params);
    let stats = start_workload(&mut node, 0x6E04);
    run_to_completion(&mut node.node.sim, &stats, SimTime(60 * SECS));
    let t = node.node.sim.now();
    node.node.sim.run_until(SimTime(t.as_nanos() + SECS));

    // No subscriptions, yet the quiesced pipe still drains to zero lag —
    // the ctrl-cell poll finds the watermark the publications would have
    // pushed.
    let ship = node.shipper_stats.lock().clone();
    assert_eq!(
        ship.rpo_bytes(),
        0,
        "lazy poll never caught up: {:?}",
        ship.parts
    );
    assert!(ship.batches_shipped > 0);
    drop(node);
    store.reset_volatile();
    for part in 0..PARTS {
        let (p_wm, r_wm, p_trail, r_trail) = site_watermarks(&mut store, part);
        assert_eq!(p_wm, r_wm, "partition {part} lagged");
        assert_eq!(&p_trail[..r_wm as usize], &r_trail[..r_wm as usize]);
    }
}

/// A member-scoped fault names one device at one site. The DR pool's
/// volume ids follow the primary pool's, so taking the primary's member 0
/// half `a` down must leave both DR halves untouched, the replica applying
/// throughout, and the drained pipe where the fault-free control ends: at
/// RPO 0 with every acknowledged transaction recoverable at the DR site.
#[test]
fn member_scoped_primary_fault_stays_at_the_primary_site() {
    use simcore::fault::{Fault, FaultPlan};
    let run = |outage: bool| {
        let mut store = DurableStore::new();
        let mut params = GeorepParams::pm(0x6E05);
        if outage {
            params.base.fault_plan = FaultPlan::none().with(Fault::PoolNpmuDown {
                volume: 0,
                half: 0,
                from: SimTime(1_200 * MILLIS),
                to: SimTime(1_300 * MILLIS),
            });
        }
        let mut node = build_georep(&mut store, params);
        let (view, machine) = (node.node.view(), node.node.machine.clone());
        // Sustained load so trail traffic spans the outage.
        let stats = install_workload(
            &mut node.node.sim,
            &machine,
            &view,
            WorkloadConfig {
                think: ThinkTime::Zero,
                keys: Keys::Disjoint,
                track_txns: true,
                run_for: Some(simcore::SimDuration::from_nanos(600 * MILLIS)),
                inserts_per_txn: 4,
                ..WorkloadConfig::new(0x6E05, CLIENTS)
            },
        );
        run_to_completion(&mut node.node.sim, &stats, SimTime(60 * SECS));
        let t = node.node.sim.now();
        node.node.sim.run_until(SimTime(t.as_nanos() + SECS));

        let epochs = |h: &npmu::NpmuHandle| h.stats.lock().failure_epochs;
        let (pa, pb) = &node.node.pm_pool[0];
        let (da, db) = &node.dr_pool[0];
        let seen = (epochs(pa), epochs(pb), epochs(da), epochs(db));
        let rpo = node.shipper_stats.lock().rpo_bytes();
        let applied = node.replica_stats.lock().batches_applied;
        let committed = stats.lock().committed_ids.clone();
        drop(node);
        store.reset_volatile();
        let mut replica_trails = Vec::new();
        for part in 0..PARTS {
            let (p_wm, r_wm, _, r_trail) = site_watermarks(&mut store, part);
            assert_eq!(p_wm, r_wm, "partition {part} lags after the drain");
            replica_trails.push(r_trail);
        }
        let refs: Vec<&[u8]> = replica_trails.iter().map(|t| t.as_slice()).collect();
        let rec = redo_scan_partitioned(&refs);
        let lost = committed
            .iter()
            .filter(|t| !rec.committed.contains(t))
            .count();
        (seen, rpo, applied, committed.len(), lost)
    };
    let (seen, rpo, applied, committed, lost) = run(true);
    assert_eq!(
        seen,
        (1, 0, 0, 0),
        "failure epochs on (pm-a, pm-b, drpm-a, drpm-b): one outage, one device"
    );
    let (control_seen, control_rpo, control_applied, control_committed, control_lost) = run(false);
    assert_eq!(control_seen, (0, 0, 0, 0));
    assert!(
        applied > 0 && control_applied > 0,
        "replica applied nothing"
    );
    assert!(committed > 0 && control_committed > 0);
    assert_eq!((rpo, lost), (0, 0), "outage run did not drain to RPO 0");
    assert_eq!((control_rpo, control_lost), (0, 0));
}
