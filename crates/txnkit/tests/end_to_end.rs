//! End-to-end transaction-processing tests over the full simulated node:
//! driver → TMF → DP2s → ADPs → (disk | persistent memory), including
//! recovery and failover.

use bytes::Bytes;
use nsk::machine::CpuId;
use nsk::Monitor;
use simcore::fault::{Fault, FaultPlan};
use simcore::time::SECS;
use simcore::{Actor, Ctx, DurableStore, Msg, Shared, SimDuration, SimTime};
use simnet::{EndpointId, NetDelivery};
use std::sync::Arc;
use txnkit::scenario::{build_ods, AuditMode, OdsNode, OdsParams};
use txnkit::types::*;
use txnkit::TxnClient;

/// What the driver does with each transaction.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Outcome {
    Commit,
    Abort,
}

#[derive(Default)]
struct DriverResults {
    committed: u64,
    aborted: u64,
    deadlocks: u64,
    /// (txn response ns) per committed txn.
    responses: Vec<u64>,
    reads_found: u64,
    reads_missing: u64,
    done_at_ns: u64,
    /// Successful inserts whose `InsertDone` said durable-on-ack / not.
    inserts_durable: u64,
    inserts_to_flush: u64,
    /// Data-trail flush points the commits carried: per committed txn,
    /// one per distinct trail a not-yet-durable insert reached.
    flush_points: u64,
}

struct TestDriver {
    client: TxnClient,
    machine: nsk::machine::SharedMachine,
    ep: EndpointId,
    cpu: CpuId,
    partition_of: Arc<dyn Fn(u32) -> (PartitionId, String)>,
    txns: u64,
    inserts_per_txn: u32,
    payload: Vec<u8>,
    outcome: Outcome,
    /// Read back each inserted key after resolution, verifying presence
    /// (commit) or absence (abort).
    verify_reads: bool,
    key_base: u64,
    // run state
    cur: u64,
    txn: Option<TxnId>,
    txn_started_ns: u64,
    inserts_done: u32,
    /// Tokens acknowledged this txn (guards duplicate acks from retries).
    acked: simcore::hash::FastSet<u64>,
    /// Trails this txn's not-yet-durable inserts reached.
    trails_to_flush: std::collections::BTreeSet<String>,
    reads_pending: u32,
    results: Shared<DriverResults>,
}

impl TestDriver {
    fn begin_next(&mut self, ctx: &mut Ctx<'_>) {
        if self.cur >= self.txns {
            self.results.lock().done_at_ns = ctx.now().as_nanos();
            return;
        }
        self.txn_started_ns = ctx.now().as_nanos();
        self.client.begin(ctx, self.cur);
    }

    fn key_for(&self, txn_idx: u64, i: u32) -> u64 {
        self.key_base + txn_idx * self.inserts_per_txn as u64 + i as u64
    }

    fn issue_inserts(&mut self, ctx: &mut Ctx<'_>) {
        self.inserts_done = 0;
        self.acked.clear();
        self.trails_to_flush.clear();
        for i in 0..self.inserts_per_txn {
            self.issue_insert(ctx, i);
        }
    }

    fn issue_insert(&mut self, ctx: &mut Ctx<'_>, i: u32) {
        let txn = self.txn.unwrap();
        let (part, dp2) = (self.partition_of)(i);
        let key = self.key_for(self.cur, i);
        let body = Bytes::from(self.payload.clone());
        let vlen = body.len() as u32;
        self.client
            .insert(ctx, &dp2, txn, part, key, body, vlen, i as u64);
    }

    fn resolve(&mut self, ctx: &mut Ctx<'_>) {
        let txn = self.txn.unwrap();
        match self.outcome {
            Outcome::Commit => {
                self.client.commit(ctx, txn);
            }
            Outcome::Abort => {
                self.client.abort(ctx, txn);
            }
        }
    }

    fn after_resolution(&mut self, ctx: &mut Ctx<'_>) {
        if self.verify_reads {
            // Give aborts a moment to reach DP2s, then read back.
            self.reads_pending = self.inserts_per_txn;
            let cur = self.cur;
            for i in 0..self.inserts_per_txn {
                let (part, dp2) = (self.partition_of)(i);
                let key = self.key_for(cur, i);
                let machine = self.machine.clone();
                // Delay the read slightly so TxnResolved lands first.
                let _ = &machine;
                let token = i as u64;
                // Reads go direct; small stagger via repeated sends.
                nsk::proc::send_to_process(
                    ctx,
                    &self.machine.clone(),
                    self.ep,
                    self.cpu,
                    &dp2,
                    32,
                    ReadReq {
                        partition: part,
                        key,
                        token,
                    },
                );
            }
        } else {
            self.cur += 1;
            self.txn = None;
            self.begin_next(ctx);
        }
    }
}

impl Actor for TestDriver {
    fn name(&self) -> &str {
        "driver"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<simcore::actor::Start>() {
            // Let the node finish booting (PM regions etc.).
            ctx.send_self(SimDuration::from_millis(1200), Kickoff);
            return;
        }
        if msg.is::<Kickoff>() {
            self.begin_next(ctx);
            return;
        }
        if let Ok((_, delivery)) = msg.take::<NetDelivery>() {
            let payload = match delivery.payload.downcast::<TxnBegun>() {
                Ok(b) => {
                    self.txn = Some(b.txn);
                    self.issue_inserts(ctx);
                    return;
                }
                Err(p) => p,
            };
            let payload = match payload.downcast::<InsertDone>() {
                Ok(done) => {
                    if self.client.note_insert_done(&done) {
                        if !self.acked.insert(done.token) {
                            return; // duplicate ack from a retried insert
                        }
                        if let InsertResult::Ok { adp, .. } = &done.result {
                            let mut r = self.results.lock();
                            if done.durable {
                                r.inserts_durable += 1;
                            } else {
                                r.inserts_to_flush += 1;
                                self.trails_to_flush.insert(adp.clone());
                            }
                        }
                        self.inserts_done += 1;
                        if self.inserts_done == self.inserts_per_txn {
                            if self.outcome == Outcome::Commit {
                                self.results.lock().flush_points +=
                                    self.trails_to_flush.len() as u64;
                            }
                            self.resolve(ctx);
                        }
                    } else {
                        // Deadlock victim: abort and redo this txn.
                        self.results.lock().deadlocks += 1;
                        let txn = done.txn;
                        self.client.abort(ctx, txn);
                    }
                    return;
                }
                Err(p) => p,
            };
            let payload = match payload.downcast::<TxnCommitted>() {
                Ok(_c) => {
                    let mut r = self.results.lock();
                    r.committed += 1;
                    r.responses.push(ctx.now().as_nanos() - self.txn_started_ns);
                    drop(r);
                    self.after_resolution(ctx);
                    return;
                }
                Err(p) => p,
            };
            let payload = match payload.downcast::<TxnAborted>() {
                Ok(_a) => {
                    self.results.lock().aborted += 1;
                    if self.outcome == Outcome::Abort {
                        self.after_resolution(ctx);
                    } else {
                        // Deadlock retry: re-run the same txn index.
                        self.txn = None;
                        self.begin_next(ctx);
                    }
                    return;
                }
                Err(p) => p,
            };
            if let Ok(rd) = payload.downcast::<ReadDone>() {
                {
                    let mut r = self.results.lock();
                    if rd.found.is_some() {
                        r.reads_found += 1;
                    } else {
                        r.reads_missing += 1;
                    }
                }
                self.reads_pending -= 1;
                if self.reads_pending == 0 {
                    self.cur += 1;
                    self.txn = None;
                    self.begin_next(ctx);
                }
            }
        }
    }
}

struct Kickoff;

#[allow(clippy::too_many_arguments)]
fn spawn_driver(
    node: &mut OdsNode,
    name: &str,
    cpu: CpuId,
    txns: u64,
    inserts_per_txn: u32,
    payload_len: usize,
    outcome: Outcome,
    verify_reads: bool,
    key_base: u64,
) -> Shared<DriverResults> {
    let results = Shared::new(DriverResults::default());
    let machine = node.machine.clone();
    let pm: std::collections::HashMap<PartitionId, String> = node.partition_map.clone();
    let files = node.params.files;
    let parts = node.params.parts_per_file;
    let partition_of = Arc::new(move |i: u32| {
        let part = PartitionId {
            file: i % files,
            part: (i / files) % parts,
        };
        (part, pm[&part].clone())
    });
    let r2 = results.clone();
    let tmf = node.tmf.clone();
    let machine2 = machine.clone();
    nsk::machine::install_primary(&mut node.sim, &machine, name, cpu, move |ep| {
        Box::new(TestDriver {
            client: TxnClient::new(machine2.clone(), ep, cpu, tmf),
            machine: machine2,
            ep,
            cpu,
            partition_of,
            txns,
            inserts_per_txn,
            payload: vec![0xD7; payload_len],
            outcome,
            verify_reads,
            key_base,
            cur: 0,
            txn: None,
            txn_started_ns: 0,
            inserts_done: 0,
            acked: simcore::hash::FastSet::default(),
            trails_to_flush: std::collections::BTreeSet::new(),
            reads_pending: 0,
            results: r2,
        })
    });
    results
}

#[test]
fn disk_baseline_commits_and_recovery_rebuilds_tables() {
    let mut store = DurableStore::new();
    let mut node = build_ods(&mut store, OdsParams::baseline(101));
    let results = spawn_driver(
        &mut node,
        "$drv",
        CpuId(0),
        10,
        8,
        128,
        Outcome::Commit,
        false,
        1_000,
    );
    node.sim.run_until(SimTime(120 * SECS));
    let r = results.lock();
    assert_eq!(r.committed, 10, "all txns commit");
    drop(r);
    let stats = node.stats.lock();
    assert_eq!(stats.txns_committed, 10);
    assert_eq!(stats.inserts, 80);
    assert!(stats.audit_volume_writes > 0);
    assert_eq!(stats.pm_writes, 0);
    // Baseline flush latency is milliseconds (disk on the commit path).
    assert!(
        stats.flush_latency.mean() > 1_000_000.0,
        "flush mean {}ns",
        stats.flush_latency.mean()
    );
    drop(stats);

    // Recovery: scan all four audit trails (ADP0 also holds the master
    // records) and rebuild; every committed key must reappear.
    let trails: Vec<Vec<u8>> = (0..4)
        .map(|cpu| {
            let media = store
                .get::<simdisk::SparseMedia>(&format!("disk:$AUDIT{cpu}"))
                .unwrap();
            let m = media.lock();
            m.read(0, m.high_water() as usize)
        })
        .collect();
    let refs: Vec<&[u8]> = trails.iter().map(|t| t.as_slice()).collect();
    let rec = txnkit::recovery::redo_scan_partitioned(&refs);
    assert_eq!(rec.committed.len(), 10);
    assert!(rec.inflight.is_empty());
    let total_keys: usize = rec.tables.values().map(|t| t.len()).sum();
    assert_eq!(total_keys, 80, "all committed inserts redone");
}

#[test]
fn pm_mode_commits_with_much_lower_flush_latency() {
    let run = |params: OdsParams| {
        let mut store = DurableStore::new();
        let mut node = build_ods(&mut store, params);
        let results = spawn_driver(
            &mut node,
            "$drv",
            CpuId(0),
            12,
            8,
            128,
            Outcome::Commit,
            false,
            50_000,
        );
        node.sim.run_until(SimTime(200 * SECS));
        assert_eq!(results.lock().committed, 12);
        let s = node.stats.lock();
        (
            s.flush_latency.mean(),
            s.pm_writes,
            s.audit_volume_writes,
            s.adp_checkpoints,
        )
    };
    let (disk_mean, disk_pm_writes, disk_vol_writes, disk_ckpts) = run(OdsParams::baseline(77));
    let (pm_mean, pm_pm_writes, pm_vol_writes, pm_ckpts) = run(OdsParams::pm(77));
    assert_eq!(disk_pm_writes, 0);
    assert!(disk_vol_writes > 0);
    assert!(disk_ckpts > 0, "the disk ADP checkpoints to its backup");
    assert!(pm_pm_writes > 0, "PM mode must write PM");
    assert_eq!(pm_vol_writes, 0, "PM mode must not touch audit volumes");
    assert_eq!(pm_ckpts, 0, "the PM ADP has no checkpoint path");
    assert!(
        pm_mean * 5.0 < disk_mean,
        "PM flush {pm_mean}ns !≪ disk {disk_mean}ns"
    );
}

#[test]
fn pm_pool_mode_places_one_whole_trail_per_member() {
    // Same PM-mode workload, but the audit regions live on a 4-member
    // scale-out pool with one audit partition per member. Each ADP places
    // its trail `Solo`: one capacity-balanced extent, so the control cell
    // shares an ordered channel with all of its trail's data and the four
    // partitions — not stripes — spread the audit load over the pool.
    let mut store = DurableStore::new();
    let mut node = build_ods(&mut store, OdsParams::pm_pool(83, 4));
    let results = spawn_driver(
        &mut node,
        "$drv",
        CpuId(0),
        12,
        8,
        128,
        Outcome::Commit,
        false,
        50_000,
    );
    node.sim.run_until(SimTime(200 * SECS));
    assert_eq!(results.lock().committed, 12);
    assert!(node.stats.lock().pm_writes > 0);
    assert_eq!(node.pm_pool.len(), 4);
    // The pool-wide region table, as member 0's durable metadata has it.
    let img = node.pm_pool[0].0.mem.lock();
    let pool = pmm::MetaStore::recover(|off, len| img.read(off, len))
        .pool
        .expect("pool member carries the region table");
    let mut members: Vec<u32> = (0..4)
        .map(|i| {
            let region = pool.find(&format!("adp{i}.audit")).expect("trail region");
            assert_eq!(region.map.extents.len(), 1, "adp{i}.audit is striped");
            region.map.extents[0].volume
        })
        .collect();
    members.sort_unstable();
    assert_eq!(members, [0, 1, 2, 3], "one trail per member");
}

#[test]
fn aborted_transactions_are_undone() {
    let mut store = DurableStore::new();
    let mut node = build_ods(&mut store, OdsParams::baseline(55));
    let results = spawn_driver(
        &mut node,
        "$drv",
        CpuId(1),
        5,
        4,
        64,
        Outcome::Abort,
        true,
        9_000,
    );
    node.sim.run_until(SimTime(120 * SECS));
    let r = results.lock();
    assert_eq!(r.aborted, 5);
    assert_eq!(
        r.reads_missing,
        20,
        "aborted inserts must vanish: {r:?}",
        r = (r.reads_found, r.reads_missing)
    );
    assert_eq!(r.reads_found, 0);
    drop(r);
    assert_eq!(node.stats.lock().txns_aborted, 5);
}

#[test]
fn adp_failover_mid_run_loses_no_committed_work() {
    let mut store = DurableStore::new();
    let mut node = build_ods(&mut store, OdsParams::baseline(66));
    // Kill ADP1's primary 3 seconds in; its backup (cpu 2) takes over.
    Monitor::install(
        &mut node.sim,
        &node.machine,
        FaultPlan::none().with(Fault::KillProcess {
            name: "$ADP1".into(),
            at: SimTime(3 * SECS),
        }),
    );
    let results = spawn_driver(
        &mut node,
        "$drv",
        CpuId(0),
        40,
        8,
        64,
        Outcome::Commit,
        false,
        70_000,
    );
    node.sim.run_until(SimTime(400 * SECS));
    assert_eq!(
        results.lock().committed,
        40,
        "all txns must commit across the ADP takeover"
    );
}

#[test]
fn identical_seeds_give_identical_runs() {
    let run = |seed| {
        let mut store = DurableStore::new();
        let mut node = build_ods(&mut store, OdsParams::baseline(seed));
        let results = spawn_driver(
            &mut node,
            "$drv",
            CpuId(0),
            6,
            8,
            64,
            Outcome::Commit,
            false,
            1,
        );
        // Bounded run: DP2 destage timers tick forever, so idle never
        // arrives; the workload is long done by 300 simulated seconds.
        node.sim.run_until(SimTime(300 * SECS));
        let r = results.lock();
        (r.committed, r.responses.clone(), r.done_at_ns)
    };
    assert_eq!(run(31), run(31));
    assert_ne!(run(31).2, run(32).2, "different seeds should differ");
}

#[test]
fn two_drivers_on_disjoint_keys_both_complete() {
    let mut store = DurableStore::new();
    let mut node = build_ods(&mut store, OdsParams::pm(88));
    let r1 = spawn_driver(
        &mut node,
        "$drv1",
        CpuId(0),
        8,
        8,
        64,
        Outcome::Commit,
        false,
        0,
    );
    let r2 = spawn_driver(
        &mut node,
        "$drv2",
        CpuId(1),
        8,
        8,
        64,
        Outcome::Commit,
        false,
        1 << 32,
    );
    node.sim.run_until(SimTime(200 * SECS));
    assert_eq!(r1.lock().committed, 8);
    assert_eq!(r2.lock().committed, 8);
    assert_eq!(node.stats.lock().txns_committed, 16);
}

#[test]
fn pm_adp_failover_recovers_exact_position_from_control_cell() {
    // The PM-mode ADP keeps no backup checkpoints; the takeover must
    // recover the durable watermark from the control cell in the region.
    let mut store = DurableStore::new();
    let mut node = build_ods(&mut store, OdsParams::pm(67));
    Monitor::install(
        &mut node.sim,
        &node.machine,
        FaultPlan::none().with(Fault::KillProcess {
            name: "$ADP2".into(),
            at: SimTime(3 * SECS),
        }),
    );
    let results = spawn_driver(
        &mut node,
        "$drv",
        CpuId(0),
        60,
        8,
        64,
        Outcome::Commit,
        false,
        90_000,
    );
    node.sim.run_until(SimTime(400 * SECS));
    assert_eq!(
        results.lock().committed,
        60,
        "all txns must commit across the PM-mode ADP takeover"
    );
    // No data checkpoints were ever sent in PM mode.
    assert_eq!(node.stats.lock().adp_checkpoints, 0);
}

#[test]
fn group_commit_window_shapes_baseline_commit_latency() {
    // The baseline's commit latency is dominated by the group-commit
    // window plus the mechanical flush; shrinking the window to zero must
    // visibly reduce it (at the cost of more, smaller audit writes).
    let run = |window_ns: u64| {
        let mut params = OdsParams::baseline(21);
        params.txn.group_commit_window_ns = window_ns;
        let mut store = DurableStore::new();
        let mut node = build_ods(&mut store, params);
        let results = spawn_driver(
            &mut node,
            "$drv",
            CpuId(0),
            12,
            8,
            64,
            Outcome::Commit,
            false,
            5,
        );
        node.sim.run_until(SimTime(120 * SECS));
        assert_eq!(results.lock().committed, 12);
        let s = node.stats.lock();
        (s.flush_latency.mean(), s.audit_volume_writes)
    };
    let (windowed_mean, windowed_writes) = run(8_000_000);
    let (eager_mean, eager_writes) = run(0);
    assert!(
        windowed_mean > eager_mean + 4_000_000.0,
        "window must add visible latency: {windowed_mean} vs {eager_mean}"
    );
    assert!(
        eager_writes >= windowed_writes,
        "eager flushing can't do fewer device writes"
    );
}

#[test]
fn dp2_failover_mid_run_loses_no_committed_work() {
    // Kill a DP2 primary mid-load: its backup (holding every checkpointed
    // insert) takes over; requests lost in the window are retried by the
    // driver; all transactions still commit.
    let mut store = DurableStore::new();
    let mut node = build_ods(&mut store, OdsParams::baseline(91));
    Monitor::install(
        &mut node.sim,
        &node.machine,
        FaultPlan::none().with(Fault::KillProcess {
            name: "$DP2-1".into(),
            at: SimTime(3 * SECS),
        }),
    );
    let results = spawn_driver(
        &mut node,
        "$drv",
        CpuId(0),
        50,
        8,
        64,
        Outcome::Commit,
        false,
        40_000,
    );
    node.sim.run_until(SimTime(400 * SECS));
    assert_eq!(
        results.lock().committed,
        50,
        "all txns must commit across the DP2 takeover"
    );
    // The promoted backup serves reads for records inserted before the
    // kill (checkpointed state survived).
    let m = node.machine.lock();
    assert!(m.resolve("$DP2-1").is_some());
}

#[test]
fn whole_cpu_failure_mid_run_recovers() {
    // Kill CPU 2 outright: the ADP2 and DP2-2 primaries die together (and
    // CPU 2's hosted backups disappear). Their backups on CPU 3 take
    // over; the workload completes.
    let mut store = DurableStore::new();
    let mut node = build_ods(&mut store, OdsParams::baseline(93));
    Monitor::install(
        &mut node.sim,
        &node.machine,
        FaultPlan::none().with(Fault::KillCpu {
            cpu: 2,
            at: SimTime(3 * SECS),
        }),
    );
    let results = spawn_driver(
        &mut node,
        "$drv",
        CpuId(0),
        40,
        8,
        64,
        Outcome::Commit,
        false,
        60_000,
    );
    node.sim.run_until(SimTime(400 * SECS));
    assert_eq!(
        results.lock().committed,
        40,
        "all txns must commit across a whole-CPU failure"
    );
    let m = node.machine.lock();
    assert!(!m.cpu_alive(CpuId(2)));
    // The services formerly on CPU 2 now answer from their backups.
    assert_ne!(m.resolve("$ADP2").unwrap().cpu, CpuId(2));
    assert_ne!(m.resolve("$DP2-2").unwrap().cpu, CpuId(2));
}

/// A primary that parks work on a `CheckpointAck` must learn that its
/// backup died: killing CPU 1 takes out backups (and primaries nothing
/// here uses) at every instant of a 7 ms window, including the instants
/// where a DP2, TMF or disk-ADP checkpoint is on its way to a backup
/// there. Every step must still commit the whole workload.
#[test]
fn a_dead_backup_never_strands_work_parked_on_its_checkpoint_ack() {
    const TXNS: u64 = 400;
    let mut stuck: Vec<(u64, u64)> = Vec::new();
    for step in 0..700u64 {
        let mut params = OdsParams::baseline(93);
        params.txn.group_commit_window_ns = 0;
        let mut store = DurableStore::new();
        let mut node = build_ods(&mut store, params);
        Monitor::install(
            &mut node.sim,
            &node.machine,
            FaultPlan::none().with(Fault::KillCpu {
                cpu: 1,
                at: SimTime(2 * SECS + step * 10_000),
            }),
        );
        let results = spawn_driver(
            &mut node,
            "$drv",
            CpuId(0),
            TXNS,
            1,
            64,
            Outcome::Commit,
            false,
            70_000,
        );
        node.sim.run_until(SimTime(60 * SECS));
        let committed = results.lock().committed;
        if committed != TXNS {
            stuck.push((step, committed));
        }
    }
    assert!(
        stuck.is_empty(),
        "(step, commits) that never finished: {stuck:?}"
    );
}

/// The flush elision is decided by the data on the append ack, not by the
/// backend's name. Every PM arm acks an append only from a published
/// watermark, so every ack covers its own records and no `FlushReq` is
/// ever sent; the buffered disk trail's acks never do, so each commit
/// still pays one flush per data trail plus the master's and waits for
/// the group commit.
#[test]
fn flush_round_trips_are_elided_exactly_when_the_ack_proves_durability() {
    let run = |params: OdsParams| {
        let mut store = DurableStore::new();
        let mut node = build_ods(&mut store, params);
        let results = spawn_driver(
            &mut node,
            "$drv",
            CpuId(0),
            12,
            8,
            128,
            Outcome::Commit,
            false,
            50_000,
        );
        node.sim.run_until(SimTime(200 * SECS));
        let r = results.lock();
        assert_eq!(r.committed, 12);
        let s = node.stats.lock();
        assert_eq!(s.pm_ctrl_writes, s.pm_batches, "a cell left its chain");
        (
            s.flush_reqs,
            r.flush_points,
            r.inserts_durable,
            r.inserts_to_flush,
            s.flush_latency.min(),
        )
    };

    let pm_arms: Vec<(&str, OdsParams)> = {
        let with = |f: &dyn Fn(&mut OdsParams)| {
            let mut p = OdsParams::pm(77);
            f(&mut p);
            p
        };
        vec![
            ("pmp", OdsParams::pm(77)),
            ("npmu", with(&|p| p.audit = AuditMode::HardwareNpmu)),
            ("pool", OdsParams::pm_pool(77, 2)),
            (
                "flush-on-read",
                with(&|p| p.txn.pm_persist_mode = simnet::PersistMode::FlushOnRead),
            ),
            (
                "nic-ack",
                with(&|p| p.txn.pm_persist_mode = simnet::PersistMode::NicAck),
            ),
        ]
    };
    for (arm, params) in pm_arms {
        let (flush_reqs, flush_points, durable, to_flush, _) = run(params);
        assert_eq!(flush_reqs, 0, "{arm}: a PM commit sent a FlushReq");
        assert_eq!((durable, to_flush), (96, 0), "{arm}");
        assert_eq!(flush_points, 0, "{arm}");
    }

    let window = OdsParams::baseline(77).txn.group_commit_window_ns;
    let (flush_reqs, flush_points, durable, to_flush, fastest) = run(OdsParams::baseline(77));
    assert_eq!((durable, to_flush), (0, 96), "a disk ack proved durability");
    assert!(flush_points >= 12, "every commit names a trail to flush");
    assert_eq!(flush_reqs, flush_points + 12, "data trails + one master");
    assert!(
        fastest > window,
        "a disk commit ({fastest} ns) did not wait out the group-commit window"
    );
}

// ---------------------------------------------------------------------
// One row, observed: the instant its insert is acknowledged, and what the
// owning DP2 pair answers for it before and after a takeover.
// ---------------------------------------------------------------------

#[derive(Default)]
struct RowSeen {
    insert_done_at: Option<u64>,
    committed: bool,
    /// `ReadDone::found` per scripted read, in script order.
    reads: Vec<Option<Option<(u32, u32)>>>,
}

/// One transaction with one insert into `part`, committed; then a point
/// read of that row at each instant of `read_at`.
struct RowProbe {
    client: TxnClient,
    machine: nsk::machine::SharedMachine,
    ep: EndpointId,
    cpu: CpuId,
    dp2: String,
    part: PartitionId,
    key: u64,
    body: Bytes,
    virtual_len: u32,
    read_at: Vec<SimTime>,
    seen: Shared<RowSeen>,
}

struct ReadNow(u64);

impl Actor for RowProbe {
    fn name(&self) -> &str {
        "row-probe"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<simcore::actor::Start>() {
            ctx.send_self(SimDuration::from_millis(1200), Kickoff);
            for (i, at) in self.read_at.iter().enumerate() {
                ctx.send_self(SimDuration::from_nanos(at.as_nanos()), ReadNow(i as u64));
            }
            return;
        }
        if msg.is::<Kickoff>() {
            self.client.begin(ctx, 0);
            return;
        }
        let msg = match msg.take::<ReadNow>() {
            Ok((_, ReadNow(token))) => {
                nsk::proc::send_to_process(
                    ctx,
                    &self.machine.clone(),
                    self.ep,
                    self.cpu,
                    &self.dp2,
                    32,
                    ReadReq {
                        partition: self.part,
                        key: self.key,
                        token,
                    },
                );
                return;
            }
            Err(m) => m,
        };
        let Ok((_, delivery)) = msg.take::<NetDelivery>() else {
            return;
        };
        let payload = match delivery.payload.downcast::<TxnBegun>() {
            Ok(b) => {
                let (dp2, body) = (self.dp2.clone(), self.body.clone());
                self.client.insert(
                    ctx,
                    &dp2,
                    b.txn,
                    self.part,
                    self.key,
                    body,
                    self.virtual_len,
                    0,
                );
                return;
            }
            Err(p) => p,
        };
        let payload = match payload.downcast::<InsertDone>() {
            Ok(done) => {
                self.seen.lock().insert_done_at = Some(ctx.now().as_nanos());
                assert!(self.client.note_insert_done(&done));
                self.client.commit(ctx, done.txn);
                return;
            }
            Err(p) => p,
        };
        let payload = match payload.downcast::<TxnCommitted>() {
            Ok(_) => {
                self.seen.lock().committed = true;
                return;
            }
            Err(p) => p,
        };
        if let Ok(rd) = payload.downcast::<ReadDone>() {
            self.seen.lock().reads[rd.token as usize] = Some(rd.found);
        }
    }
}

fn spawn_row_probe(
    node: &mut OdsNode,
    part: PartitionId,
    key: u64,
    body: &[u8],
    virtual_len: u32,
    read_at: Vec<SimTime>,
) -> Shared<RowSeen> {
    let seen = Shared::new(RowSeen {
        reads: vec![None; read_at.len()],
        ..RowSeen::default()
    });
    let (machine, tmf, seen2) = (node.machine.clone(), node.tmf.clone(), seen.clone());
    let dp2 = node.partition_map[&part].clone();
    let body = Bytes::from(body.to_vec());
    let cpu = CpuId(0);
    nsk::machine::install_primary(&mut node.sim, &node.machine, "$probe", cpu, move |ep| {
        Box::new(RowProbe {
            client: TxnClient::new(machine.clone(), ep, cpu, tmf),
            machine,
            ep,
            cpu,
            dp2,
            part,
            key,
            body,
            virtual_len,
            read_at,
            seen: seen2,
        })
    });
    seen
}

fn kill_primary_at(node: &mut OdsNode, name: &str, at: SimTime) {
    Monitor::install(
        &mut node.sim,
        &node.machine,
        FaultPlan::none().with(Fault::KillProcess {
            name: name.into(),
            at,
        }),
    );
}

/// The stored image is computed once: what the primary put in its table
/// is what it checkpointed, so the promoted backup answers a read exactly
/// as the primary did — also for a body longer than its `virtual_len`.
#[test]
fn a_promoted_dp2_backup_reads_back_the_record_the_primary_stored() {
    let body = [0xA7u8; 128];
    let part = PartitionId { file: 2, part: 1 };
    let mut store = DurableStore::new();
    let mut node = build_ods(&mut store, OdsParams::pm(41));
    let dp2 = node.partition_map[&part].clone();
    kill_primary_at(&mut node, &dp2, SimTime(3 * SECS));
    let seen = spawn_row_probe(
        &mut node,
        part,
        9,
        &body,
        16,
        vec![SimTime(2 * SECS), SimTime(4 * SECS)],
    );
    node.sim.run_until(SimTime(5 * SECS));
    let seen = seen.lock();
    assert!(seen.committed);
    let stored = Some((128, pmm::meta::crc32(&body)));
    assert_eq!(seen.reads[0], Some(stored), "read from the primary");
    assert_eq!(seen.reads[1], Some(stored), "read from the promoted backup");
}

/// Checkpoint-before-externalize and log-before-externalize both hold
/// with the two legs overlapped: kill the DP2 primary the instant the
/// client sees `InsertDone`, and the promoted backup has the row *and*
/// the trail has the delta — wherever the DP2 sits relative to the
/// transaction's log writer.
#[test]
fn an_acknowledged_insert_is_at_the_backup_and_on_the_trail() {
    let body = [0x3Cu8; 64];
    for cpu in 0..4 {
        let part = PartitionId { file: 1, part: cpu };
        let key = 500 + cpu as u64;
        let run = |kill_at: Option<SimTime>| {
            let mut store = DurableStore::new();
            let mut node = build_ods(
                &mut store,
                OdsParams {
                    audit: AuditMode::HardwareNpmu,
                    ..OdsParams::pm(43)
                },
            );
            assert!(node.params.txn.dp2_checkpoint);
            let dp2 = node.partition_map[&part].clone();
            if let Some(at) = kill_at {
                kill_primary_at(&mut node, &dp2, at);
            }
            let read_at = kill_at.map(|t| SimTime(t.as_nanos() + SECS));
            let seen = spawn_row_probe(&mut node, part, key, &body, 64, Vec::from_iter(read_at));
            node.sim.run_until(SimTime(4 * SECS));
            let trails: Vec<Vec<u8>> = (0..node.adps.len())
                .map(|i| {
                    let img = store.get::<npmu::NvImage>("npmu:pm-a").unwrap();
                    let img = img.lock();
                    let meta = pmm::MetaStore::recover(|off, len| img.read(off, len));
                    let region = meta.find(&format!("adp{i}.audit")).unwrap();
                    let image = img.read(region.base, region.len as usize);
                    txnkit::trail::split_image(image).1
                })
                .collect();
            let seen = std::mem::take(&mut *seen.lock());
            (seen, trails)
        };

        // Pass 1, undisturbed: the instant the client sees `InsertDone`.
        let (seen, _) = run(None);
        let done_at = SimTime(seen.insert_done_at.expect("insert acknowledged"));
        // Pass 2: the primary dies at that very instant.
        let (seen, trails) = run(Some(done_at));
        assert_eq!(seen.insert_done_at, Some(done_at.as_nanos()));
        assert_eq!(
            seen.reads[0],
            Some(Some((64, pmm::meta::crc32(&body)))),
            "cpu {cpu}: the promoted backup lacks the acknowledged row"
        );
        let on_trail = trails.iter().flat_map(|t| txnkit::audit::scan(t)).any(
            |(_, r)| matches!(r, txnkit::audit::AuditRecord::Insert { key: k, .. } if k == key),
        );
        assert!(
            on_trail,
            "cpu {cpu}: the trail lacks the acknowledged delta"
        );
        // The delta was durable on its ack, so the commit needed nothing
        // more from the dead DP2 and went through.
        assert!(seen.committed, "cpu {cpu}");
    }
}
