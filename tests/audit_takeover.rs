//! Acceptance tests for the partitioned PM audit subsystem under failure
//! and backlog:
//!
//! * an ADP partition's primary is killed mid-run; the backup must
//!   recover the exact durable position from the PM control cell — no
//!   acknowledged append is lost and no commit is double-counted — and
//!   offline recovery over the per-partition trails (merged by LSN)
//!   rebuilds exactly the acknowledged history;
//! * an ADP primary is killed between a commit record's append and its
//!   ack; the TMF re-drives it, the new primary's ack proves the record
//!   durable from the watermark it recovered, and the commit completes
//!   without a single `FlushReq` — and is redone after power loss;
//! * a burst of appends arriving behind the chain in flight coalesces
//!   into wide chains, each publishing everything it carries with its one
//!   control cell — on a single-volume pool and on a four-member one.

use bytes::Bytes;
use npmu::NpmuConfig;
use nsk::machine::{install_primary, CpuId, Machine, MachineConfig, SharedMachine};
use nsk::Monitor;
use pmem::oracle::{Expect, Snapshot, Trails};
use pmem::{install_audit_partitions, install_pm_pool};
use simcore::actor::Start;
use simcore::fault::{Fault, FaultPlan};
use simcore::time::{MILLIS, SECS};
use simcore::{Actor, Ctx, DurableStore, Msg, Shared, Sim, SimDuration, SimTime};
use simnet::{EndpointId, NetDelivery};
use txnkit::scenario::{build_ods, AuditMode, OdsNode, OdsParams};
use txnkit::{AppendDone, AuditAppend, FlushDone, FlushReq, Lsn, TxnConfig};
use workload::{install_workload, SharedWorkloadStats, WorkloadConfig};

/// The hot-stock load a node runs: `drivers` order streams, each
/// inserting `records_per_driver` rows `inserts_per_txn` at a time.
#[derive(Clone, Copy)]
struct Load {
    drivers: u32,
    records_per_driver: u64,
    inserts_per_txn: u32,
}

impl Load {
    fn records(&self) -> u64 {
        self.drivers as u64 * self.records_per_driver
    }

    fn txns(&self) -> u64 {
        self.records() / self.inserts_per_txn as u64
    }
}

/// Two drivers keeping eight inserts each in flight: the ADPs always
/// have a chain posted and appends staged behind it.
const BUSY: Load = Load {
    drivers: 2,
    records_per_driver: 384,
    inserts_per_txn: 8,
};

/// A PM-audit node with `partitions` audit partitions (0 = one per CPU),
/// `load`'s hot-stock drivers starting at t = 1.1 s, and the primary of
/// `victim` scheduled to die at `kill_at`. PM-mode ADPs keep no backup
/// checkpoints: the takeover must recover the durable watermark from the
/// control cell alone.
fn hot_stock_node(
    store: &mut DurableStore,
    partitions: u32,
    load: Load,
    victim: &str,
    kill_at: SimTime,
) -> (OdsNode, SharedWorkloadStats) {
    let mut node = build_ods(
        store,
        OdsParams {
            audit: AuditMode::HardwareNpmu,
            audit_partitions: partitions,
            ..OdsParams::pm(0xAD17)
        },
    );
    Monitor::install(
        &mut node.sim,
        &node.machine,
        FaultPlan::none().with(Fault::KillProcess {
            name: victim.into(),
            at: kill_at,
        }),
    );
    let (view, machine) = (node.view(), node.machine.clone());
    let driver_stats = install_workload(
        &mut node.sim,
        &machine,
        &view,
        WorkloadConfig::hot_stock(load.drivers, load.inserts_per_txn, load.records_per_driver),
    );
    (node, driver_stats)
}

/// Run the workload out, then hold the takeover to the contract: exactly
/// the acknowledged work, once; then cut power and hand the images to the
/// recovery oracle: a well-formed control cell on the victim's trail, and
/// offline redo over the per-partition trails rebuilding the whole history
/// on mirror halves that hold the same bytes.
fn finish_and_check_history(
    store: &mut DurableStore,
    mut node: OdsNode,
    load: Load,
    driver_stats: &SharedWorkloadStats,
    victim: usize,
) {
    let ceiling = SimTime(600 * SECS);
    while !driver_stats.lock().done() {
        let now = node.sim.now();
        assert!(now < ceiling, "workload did not finish after ADP takeover");
        node.sim.run_until(SimTime(now.as_nanos() + 200 * MILLIS));
    }
    // Grace period for in-flight trail tails to land.
    let now = node.sim.now();
    node.sim.run_until(SimTime(now.as_nanos() + SECS));

    // Exactly the acknowledged work, once: nothing lost to the takeover,
    // nothing re-acknowledged after it.
    let (acked, inserted) = {
        let s = driver_stats.lock();
        (s.committed_ids.clone(), s.inserted_records)
    };
    assert_eq!(inserted, load.records());
    assert_eq!(acked.len() as u64, load.txns());
    // The killed partition's name still resolves: the backup took over.
    assert!(node
        .machine
        .lock()
        .resolve(&format!("$ADP{victim}"))
        .is_some());
    {
        let s = node.stats.lock();
        assert_eq!(s.adp_checkpoints, 0, "PM mode sends no data checkpoints");
        assert!(s.pm_ctrl_writes > 0);
        assert_eq!(s.txns_committed, load.txns());
        // Every append ack — the re-driven ones from the new primary
        // included — proved its own records durable.
        assert_eq!(s.flush_reqs, 0, "a PM commit sent a FlushReq");
    }
    let site = [Trails::node(&node.params)];
    drop(node);
    store.reset_volatile();

    // Every acknowledged commit (and only complete history) is rebuilt,
    // including the partition that failed over mid-run — a hole left in
    // its trail by the takeover would stop the scan short of them.
    let expect = Expect {
        resilvered: true,
        ..Expect::finished(&acked, load.inserts_per_txn)
    };
    let snapshot = Snapshot::read(store, &site);
    let report = snapshot.check(&expect);
    report.assert_clean("after the ADP takeover");
    let rec = &report.recovery.shards[0];
    assert!(rec.inflight.is_empty(), "completed run leaves no inflight");
    let keys: usize = rec.tables.values().map(|t| t.len()).sum();
    assert_eq!(keys as u64, inserted, "all committed inserts redone");
    // The control cell the takeover read back is well-formed (a CRC-valid
    // slot) and covers the partition's durable appends.
    let wm = snapshot.shards[0][victim].halves[0].watermark;
    assert!(wm > 0, "partition {victim} published no valid watermark");
}

#[test]
fn adp_primary_killed_mid_pipeline_loses_no_acknowledged_append() {
    // Partition 1's primary dies at 1.3 s with appends in flight.
    let mut store = DurableStore::new();
    let (node, driver_stats) = hot_stock_node(&mut store, 0, BUSY, "$ADP1", SimTime(1300 * MILLIS));
    finish_and_check_history(&mut store, node, BUSY, &driver_stats, 1);
}

/// The primary dies *between posting a chain that carries its own
/// control cell and that chain's completion*. Both mirrored chains are
/// already on the fabric, so data and cell still land; nobody was acked.
/// The new primary must read that cell back and continue right behind
/// it — re-driven (never-acked) work is appended after, not into, the
/// orphaned batch, so the trail has no hole and the counts stay exact.
#[test]
fn adp_primary_killed_between_chain_post_and_completion() {
    // Pass 1 finds the instant: the first chain posted after the drivers
    // are in full swing. (The kill is scheduled past the end of
    // the run, so both passes are event-for-event identical up to it.)
    let (posted_at, sw_overhead_ns) = {
        let mut store = DurableStore::new();
        let (mut node, _drivers) =
            hot_stock_node(&mut store, 1, BUSY, "$ADP0", SimTime(599 * SECS));
        node.sim.run_until(SimTime(1200 * MILLIS));
        let before = node.stats.lock().pm_batches;
        while node.stats.lock().pm_batches == before {
            assert!(node.sim.now() < SimTime(2 * SECS), "no chain posted");
            let next = node.sim.dispatched() + 1;
            node.sim.run_until_dispatched(next);
        }
        let sw_overhead_ns = node.net.lock().cfg.sw_overhead_ns;
        (node.sim.now(), sw_overhead_ns)
    };
    // Half the initiator's software overhead after the post, neither
    // mirror leg has even left its port — whatever the chain's size and
    // however the ports are shared: posted, not completed.
    let kill_at = SimTime(posted_at.as_nanos() + sw_overhead_ns / 2);
    let mut store = DurableStore::new();
    let (mut node, driver_stats) = hot_stock_node(&mut store, 1, BUSY, "$ADP0", kill_at);
    node.sim.run_until(SimTime(kill_at.as_nanos() - 1));
    let (a, b) = node.pm_pool[0].clone();
    let fences = a.stats.lock().flushes + b.stats.lock().flushes;
    // The ADP is the only poster of fenced chains: one per mirror half
    // for every batch.
    let posted = 2 * node.stats.lock().pm_batches;
    assert!(posted > 0, "the victim never posted a chain");
    // Fewer fences served than posted: a chain is in flight at the kill.
    assert!(fences < posted, "nothing in flight: {fences} of {posted}");
    finish_and_check_history(&mut store, node, BUSY, &driver_stats, 0);
}

/// The primary dies *between a commit record's append and its ack*. The
/// TMF never hears back, re-drives the append, and the new primary —
/// whose watermark came from the control cell — acks it as durable: the
/// commit goes from its record's append straight to hardened, no `FlushReq`
/// anywhere, and power loss right after the run loses nothing.
#[test]
fn adp_primary_killed_between_a_commit_append_and_its_ack() {
    // One driver, one insert per transaction, one trail: the trail then
    // alternates delta, commit record, delta, … so the 2n-th staged
    // append is the n-th commit record (no checkpoint mark before 64).
    const ONE_BY_ONE: Load = Load {
        drivers: 1,
        records_per_driver: 24,
        inserts_per_txn: 1,
    };
    const NTH: u64 = 9;
    // Pass 1 finds the instant the ADP posts the chain for that record.
    let staged_at = {
        let mut store = DurableStore::new();
        let (mut node, _drivers) =
            hot_stock_node(&mut store, 1, ONE_BY_ONE, "$ADP0", SimTime(599 * SECS));
        while node.stats.lock().pm_writes < 2 * NTH {
            assert!(
                node.sim.now() < SimTime(2 * SECS),
                "commit {NTH} never staged"
            );
            let next = node.sim.dispatched() + 1;
            node.sim.run_until_dispatched(next);
        }
        assert_eq!(node.stats.lock().audit_deltas, NTH);
        node.sim.now()
    };
    // 20 µs later the chain is on the wire: appended, not acknowledged.
    let kill_at = SimTime(staged_at.as_nanos() + 20_000);
    let mut store = DurableStore::new();
    let (mut node, driver_stats) = hot_stock_node(&mut store, 1, ONE_BY_ONE, "$ADP0", kill_at);
    node.sim.run_until(kill_at);
    assert_eq!(node.stats.lock().pm_writes, 2 * NTH, "record staged");
    assert_eq!(node.stats.lock().txns_committed, NTH - 1, "not acked");
    finish_and_check_history(&mut store, node, ONE_BY_ONE, &driver_stats, 0);
}

// ---------------------------------------------------------------------
// Burst coalescing
// ---------------------------------------------------------------------

const BURST: u64 = 48;
const RECORD_BYTES: usize = 2048;
const REGION_LEN: u64 = 1 << 20;

#[derive(Default)]
struct BurstResults {
    appends_done: u64,
    flushed: bool,
}

/// Fires `BURST` appends at one partition in a single instant, then
/// flushes through the last LSN once they are all acknowledged.
struct BurstClient {
    machine: SharedMachine,
    ep: EndpointId,
    cpu: CpuId,
    adp: String,
    max_lsn: Lsn,
    results: Shared<BurstResults>,
}

struct Kickoff;

impl Actor for BurstClient {
    fn name(&self) -> &str {
        "burst-client"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Start>() {
            ctx.send_self(SimDuration::from_millis(200), Kickoff);
            return;
        }
        if msg.is::<Kickoff>() {
            for seq in 0..BURST {
                let machine = self.machine.clone();
                nsk::proc::send_to_process(
                    ctx,
                    &machine,
                    self.ep,
                    self.cpu,
                    &self.adp,
                    RECORD_BYTES as u32 + 16,
                    AuditAppend {
                        records: Bytes::from(vec![0xB5u8; RECORD_BYTES]),
                        virtual_len: RECORD_BYTES as u32,
                        token: seq,
                    },
                );
            }
            return;
        }
        if let Ok((_, delivery)) = msg.take::<NetDelivery>() {
            let payload = match delivery.payload.downcast::<AppendDone>() {
                Ok(done) => {
                    self.max_lsn = self.max_lsn.max(done.lsn_end);
                    let mut r = self.results.lock();
                    r.appends_done += 1;
                    let all = r.appends_done == BURST;
                    drop(r);
                    if all {
                        let machine = self.machine.clone();
                        nsk::proc::send_to_process(
                            ctx,
                            &machine,
                            self.ep,
                            self.cpu,
                            &self.adp,
                            32,
                            FlushReq {
                                upto: self.max_lsn,
                                token: 0,
                            },
                        );
                    }
                    return;
                }
                Err(p) => p,
            };
            if payload.downcast::<FlushDone>().is_ok() {
                self.results.lock().flushed = true;
            }
        }
    }
}

#[test]
fn burst_appends_coalesce_batches_and_watermark_publication() {
    // The trail is one extent on one member whatever the pool's size, so
    // the cell rides every chain on a four-member pool too.
    for volumes in [1, 4] {
        burst_coalesces(volumes);
    }
}

fn burst_coalesces(volumes: u32) {
    let mut store = DurableStore::new();
    let mut sim = Sim::with_seed(23);
    let net = simnet::Network::new(simnet::FabricConfig::default());
    let machine = Machine::new(
        MachineConfig {
            cpus: 2,
            ..MachineConfig::default()
        },
        net,
    );
    let cap = (REGION_LEN + pmm::META_BYTES) * 3 + (64 << 20);
    let pool = install_pm_pool(
        &mut sim,
        &mut store,
        &machine,
        "pm",
        NpmuConfig::hardware(cap),
        volumes,
        CpuId(1),
        Some(CpuId(0)),
    );
    let stats = txnkit::stats::shared();
    let adps = install_audit_partitions(
        &mut sim,
        &machine,
        &pool.pmm_name,
        1,
        1,
        REGION_LEN,
        true,
        TxnConfig::pm_enabled(),
        stats.clone(),
    );
    let results: Shared<BurstResults> = Shared::new(BurstResults::default());
    let machine2 = machine.clone();
    let adp = adps[0].clone();
    let results2 = results.clone();
    install_primary(&mut sim, &machine, "$burst", CpuId(1), move |ep| {
        Box::new(BurstClient {
            machine: machine2,
            ep,
            cpu: CpuId(1),
            adp,
            max_lsn: Lsn(0),
            results: results2,
        })
    });
    sim.run_until(SimTime(30 * SECS));

    let r = results.lock();
    assert_eq!(r.appends_done, BURST, "every append acknowledged");
    assert!(r.flushed, "flush through the last LSN answered");
    drop(r);

    // The burst arrives faster than the mirrored 2 KB writes drain, so
    // appends stage up behind the chain in flight and leave together:
    // fewer chains than appends, each publishing all it carries.
    let s = stats.lock();
    assert_eq!(s.pm_writes, BURST);
    assert_eq!(s.pm_ctrl_writes, s.pm_batches, "{volumes} volumes");
    assert!(
        s.pm_batches < BURST,
        "{volumes} volumes: {} chains for {BURST} appends",
        s.pm_batches
    );
}
