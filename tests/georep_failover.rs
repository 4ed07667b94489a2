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

use pmem::oracle::{Expect, Snapshot, Trails};
use simcore::time::{MILLIS, SECS};
use simcore::{DurableStore, SimDuration, SimTime};
use txnkit::scenario::{build_georep, GeorepNode, GeorepParams, OdsParams};
use txnkit::TxnId;
use workload::WorkloadConfig;
use workload::{install_workload, run_to_completion, Keys, SharedWorkloadStats, ThinkTime};

const CLIENTS: u64 = 8;
const TXNS_PER_CLIENT: u64 = 6;
const PARTS: usize = 4; // OdsParams::pm default: one audit partition per CPU

/// Start zero-think clients: a burst of `TXNS_PER_CLIENT` transactions
/// each, or with `for_ms` a load sustained that long (so trail traffic
/// spans a fault).
fn start_workload(node: &mut GeorepNode, seed: u64, for_ms: Option<u64>) -> SharedWorkloadStats {
    let (view, machine) = (node.node.view(), node.node.machine.clone());
    let cfg = WorkloadConfig {
        think: ThinkTime::Zero,
        keys: Keys::Disjoint,
        records_per_client: if for_ms.is_some() {
            0
        } else {
            TXNS_PER_CLIENT * 4
        },
        run_for: for_ms.map(|ms| SimDuration::from_nanos(ms * MILLIS)),
        inserts_per_txn: 4,
        ..WorkloadConfig::new(seed, CLIENTS)
    };
    install_workload(&mut node.node.sim, &machine, &view, cfg)
}

/// Run the clients out, then give the pipe `drain_ms` to drain.
fn drain(node: &mut GeorepNode, stats: &SharedWorkloadStats, drain_ms: u64) {
    run_to_completion(&mut node.node.sim, stats, SimTime(60 * SECS));
    let t = node.node.sim.now();
    node.node
        .sim
        .run_until(SimTime(t.as_nanos() + drain_ms * MILLIS));
}

/// Power loss: what the clients saw acked, and the node's recipe.
fn power_cut(
    store: &mut DurableStore,
    node: GeorepNode,
    stats: &SharedWorkloadStats,
) -> (Vec<TxnId>, OdsParams) {
    let cut = (stats.lock().committed_ids.clone(), node.node.params.clone());
    drop(node);
    store.reset_volatile();
    cut
}

/// The two sites' trails after power loss: the primary held to the
/// acked-commit invariants and the replica to being a bit-identical
/// prefix of it. Returns each partition's `(primary, replica)` watermark
/// and the replica's snapshot.
fn check_sites(
    store: &DurableStore,
    base: &OdsParams,
    acked: &[TxnId],
) -> (Vec<(u64, u64)>, Snapshot) {
    let primary = Snapshot::read(store, &[Trails::node(base)]);
    let replica = Snapshot::read(store, &[Trails::replica(base)]);
    let expect = Expect {
        acked,
        inserts: 4,
        replica: Some(&replica),
        ..Expect::default()
    };
    primary.check(&expect).assert_clean("primary site");
    let watermarks = primary.shards[0]
        .iter()
        .zip(&replica.shards[0])
        .map(|(p, r)| (p.watermark(), r.watermark()))
        .collect::<Vec<_>>();
    assert_eq!(watermarks.len(), PARTS);
    (watermarks, replica)
}

/// The replica alone recovers every acknowledged transaction (RPO 0).
fn assert_rpo_zero(replica: &Snapshot, acked: &[TxnId]) {
    replica
        .check(&Expect::finished(acked, 4))
        .assert_clean("DR site");
}

#[test]
fn eager_shipping_converges_to_rpo_zero() {
    let mut store = DurableStore::new();
    let mut node = build_georep(&mut store, GeorepParams::pm(0x6E01));
    let stats = start_workload(&mut node, 0x6E01, None);
    // Drain: the last durable publications notify the shipper, the final
    // batches cross the WAN, the replica persists and acks.
    drain(&mut node, &stats, 500);
    let ship = node.shipper_stats.lock().clone();
    assert_eq!(ship.parts.len(), PARTS);
    assert_eq!(
        ship.rpo_bytes(),
        0,
        "drained eager pipe still exposed: {:?}",
        ship.parts
    );
    assert!(ship.batches_shipped > 0 && ship.acks > 0);
    let (acked, base) = power_cut(&mut store, node, &stats);
    assert_eq!(acked.len() as u64, CLIENTS * TXNS_PER_CLIENT);

    // Every partition: replica watermark == primary watermark, the trail
    // prefixes byte-identical (the shipped image IS the primary image),
    // and redo over the *standby* trails alone yields the workload's
    // committed set.
    let (watermarks, replica) = check_sites(&store, &base, &acked);
    for (part, (p_wm, r_wm)) in watermarks.into_iter().enumerate() {
        assert_eq!(p_wm, r_wm, "partition {part} watermark lag after drain");
        assert!(r_wm > 0, "partition {part} saw no traffic");
    }
    assert_rpo_zero(&replica, &acked);
}

#[test]
fn failover_drill_fences_the_old_primary() {
    let mut store = DurableStore::new();
    let mut params = GeorepParams::pm(0x6E02);
    // Disaster at 1.6 s (mid-workload), dead-primary declaration and
    // epoch fence 100 ms later.
    params.sever_at = Some(SimDuration::from_nanos(1_600 * MILLIS));
    params.fence_at = Some(SimDuration::from_nanos(1_700 * MILLIS));
    let mut node = build_georep(&mut store, params);
    // Open-ended load so the zombie primary is still appending when the
    // fence lands.
    let stats = start_workload(&mut node, 0x6E02, Some(2_000));
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
    // zombie stalled, it did not corrupt — and the primary's images still
    // redo every commit it acknowledged.
    let (acked, base) = power_cut(&mut store, node, &stats);
    let (watermarks, _) = check_sites(&store, &base, &acked);
    assert!(
        watermarks.iter().any(|&(_, r_wm)| r_wm > 0),
        "nothing replicated before the disaster"
    );
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
        params.wan.one_way_delay = SimDuration::from_nanos(5 * MILLIS);
        let mut node = build_georep(&mut store, params);
        let stats = start_workload(&mut node, 0x6E03, Some(600));
        drain(&mut node, &stats, 1_000);

        let ship = node.shipper_stats.lock().clone();
        let rep = *node.replica_stats.lock();
        let wan = node.wan.lock().stats;
        let dispatched = node.node.sim.dispatched();
        let (_, base) = power_cut(&mut store, node, &stats);
        let images = Snapshot::read(&store, &[Trails::replica(&base)]).shards;
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
    assert!(a_images == b_images, "replica images not reproducible");
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
    params.lazy_interval = SimDuration::from_nanos(20 * MILLIS);
    let mut node = build_georep(&mut store, params);
    let stats = start_workload(&mut node, 0x6E04, None);
    drain(&mut node, &stats, 1_000);

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
    let (acked, base) = power_cut(&mut store, node, &stats);
    let (watermarks, _) = check_sites(&store, &base, &acked);
    for (part, (p_wm, r_wm)) in watermarks.into_iter().enumerate() {
        assert_eq!(p_wm, r_wm, "partition {part} lagged");
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
        let stats = start_workload(&mut node, 0x6E05, Some(600));
        drain(&mut node, &stats, 1_000);

        let epochs = |h: &npmu::NpmuHandle| h.stats.lock().failure_epochs;
        let (pa, pb) = &node.node.pm_pool[0];
        let (da, db) = &node.dr_pool[0];
        let seen = (epochs(pa), epochs(pb), epochs(da), epochs(db));
        let rpo = node.shipper_stats.lock().rpo_bytes();
        let applied = node.replica_stats.lock().batches_applied;
        let (acked, base) = power_cut(&mut store, node, &stats);
        let (watermarks, replica) = check_sites(&store, &base, &acked);
        for (part, (p_wm, r_wm)) in watermarks.into_iter().enumerate() {
            assert_eq!(p_wm, r_wm, "partition {part} lags after the drain");
        }
        assert_rpo_zero(&replica, &acked);
        (seen, rpo, applied, acked.len())
    };
    let (seen, rpo, applied, committed) = run(true);
    assert_eq!(
        seen,
        (1, 0, 0, 0),
        "failure epochs on (pm-a, pm-b, drpm-a, drpm-b): one outage, one device"
    );
    let (control_seen, control_rpo, control_applied, control_committed) = run(false);
    assert_eq!(control_seen, (0, 0, 0, 0));
    assert!(
        applied > 0 && control_applied > 0,
        "replica applied nothing"
    );
    assert!(committed > 0 && control_committed > 0);
    assert_eq!(rpo, 0, "outage run did not drain to RPO 0");
    assert_eq!(control_rpo, 0);
}

/// A trail subscription lives in the ADP primary alone. When `$ADP0`'s
/// primary dies under sustained load, the shipper must subscribe again to
/// the backup the takeover promotes: otherwise partition 0 stops shipping
/// while the shipper's own accounting still reads RPO 0.
#[test]
fn an_adp_takeover_keeps_its_partition_shipping() {
    use simcore::fault::{Fault, FaultPlan};
    let mut store = DurableStore::new();
    let mut params = GeorepParams::pm(0x6E06);
    params.base.fault_plan = FaultPlan::none().with(Fault::KillProcess {
        name: "$ADP0".into(),
        at: SimTime(1_200 * MILLIS),
    });
    let mut node = build_georep(&mut store, params);
    let stats = start_workload(&mut node, 0x6E06, Some(800));
    drain(&mut node, &stats, 1_000);
    assert_eq!(node.shipper_stats.lock().rpo_bytes(), 0);
    let (acked, base) = power_cut(&mut store, node, &stats);
    let (watermarks, replica) = check_sites(&store, &base, &acked);
    for (part, (p_wm, r_wm)) in watermarks.into_iter().enumerate() {
        assert_eq!(p_wm, r_wm, "partition {part} stopped shipping");
    }
    assert_rpo_zero(&replica, &acked);
}
