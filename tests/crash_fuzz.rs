//! Whole-commit crash-point fuzzer.
//!
//! Deterministically replays a small commit workload and injects a power
//! loss at sampled event boundaries — dropping the `Sim` at dispatch `k`
//! and resetting the durable store's volatile side is exactly "the
//! lights went out between event `k` and `k+1`" — then hands the
//! surviving device images to the recovery oracle (`pmem::oracle`). One
//! sweep runs over every topology:
//!
//! * a node in each remote-persistence mode, under the hot-stock load.
//!   `PersistFlush` / `FlushOnRead` (honest) must break no invariant at
//!   any point: every acked commit redoes whole, recovery invents nothing
//!   the uncrashed replay does not commit, the mirror halves agree up to
//!   the lower published watermark. `NicAck` (optimistic) acknowledges at
//!   NIC-ack, while the bytes still sit in the NPMU's volatile ingress
//!   buffer — the sweep must catch at least one point where an acked
//!   commit is gone, the whole reason the honest modes exist;
//! * a 2-shard cluster running a cross-shard mix: a crash anywhere inside
//!   the two-phase window (participant data, `Prepared` records, the
//!   coordinator's commit record, decision fan-out) must never leave a
//!   half-committed transaction, and must land in-doubt at least once.
//!
//! On the node arms a rotating subset of points also tears a control-cell
//! write (a partial-byte overwrite of the slot the next publication would
//! target, applied to a copy of the recovered cell) and checks the
//! double-buffered cell still parses to the previously published
//! watermark — never a garbage LSN.
//!
//! Every run sweeps 2,340 points: 700 per persistence mode plus 240
//! cross-shard. Each arm's uncrashed probe also pins the shape of the
//! path being fuzzed: no `FlushReq` (commits harden on their append
//! acks), no standalone flush verb, every chain carrying its own cell.

use pmem::oracle::{Expect, Snapshot, Trails};
use pmem::NpmuHandle;
use simcore::time::{MILLIS, SECS};
use simcore::{DurableStore, Sim, SimTime};
use simnet::{PersistMode, SharedNetwork};
use txnkit::adp::{encode_ctrl_slot, parse_ctrl_cell, PM_CTRL_BYTES, PM_CTRL_SLOT_BYTES};
use txnkit::scenario::{build_cluster, build_ods, ClusterParams};
use txnkit::{SharedTxnStats, TxnId};
use workload::{install_workload, Keys, SharedWorkloadStats, ThinkTime, WorkloadConfig};

/// Wide modelled ingress-drain latency so the ack-vs-persist window of
/// `NicAck` spans many event boundaries (the real window is ~µs; the
/// invariants are window-size independent).
const DRAIN_NS: u64 = MILLIS;

/// Where the sweep cuts power.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Arm {
    /// One node, four audit partitions: 96 hot-stock records, 8 per
    /// transaction.
    Node(PersistMode),
    /// Two shards, four partitions each: 8 clients × 3 transactions of 4
    /// disjoint-key inserts, 60% cross-shard.
    CrossShard,
}

/// One build of an arm: the simulation, its driver's stats, and what the
/// probe and the oracle look at once it stops.
struct Rig {
    sim: Sim,
    driver: SharedWorkloadStats,
    txn: SharedTxnStats,
    net: SharedNetwork,
    pools: Vec<(NpmuHandle, NpmuHandle)>,
    site: Vec<Trails>,
}

impl Arm {
    /// `(seeds, points, inserts per transaction, transactions, the fuzz
    /// window's opening ms)`: the window opens just before the first
    /// commits (the zero-think cross-shard burst right at the 1.1 s warmup).
    fn shape(self) -> (&'static [u64], usize, u32, u64, u64) {
        match self {
            Arm::Node(_) => (&[0xF0_0D, 0x5EED], 700, 8, 12, 1120),
            Arm::CrossShard => (&[0xC0DE], 240, 4, 24, 1099),
        }
    }

    fn build(self, store: &mut DurableStore, seed: u64) -> Rig {
        let (_, _, inserts, txns, _) = self.shape();
        // A cluster's per-node recipe is the hardware-NPMU PM node.
        let mut base = ClusterParams::pm(seed, 2).base;
        base.pm_ingress_drain_ns = Some(DRAIN_NS);
        let Arm::Node(mode) = self else {
            let params = ClusterParams { shards: 2, base };
            let site = Trails::cluster(&params);
            let mut node = build_cluster(store, params);
            let (view, machine) = (node.view(), node.machine.clone());
            let load = WorkloadConfig {
                pools_per_shard: 1,
                think: ThinkTime::Zero,
                cross_shard_fraction: 0.6,
                keys: Keys::Disjoint,
                records_per_client: 3 * inserts as u64,
                run_for: None,
                inserts_per_txn: inserts,
                ..WorkloadConfig::new(seed, 8)
            };
            let driver = install_workload(&mut node.sim, &machine, &view, load);
            let pools = node.shards.into_iter().flat_map(|s| s.pm_pool).collect();
            let (sim, txn, net) = (node.sim, node.stats, node.net);
            return Rig {
                sim,
                driver,
                txn,
                net,
                pools,
                site,
            };
        };
        base.txn.pm_persist_mode = mode;
        let site = vec![Trails::node(&base)];
        let mut node = build_ods(store, base);
        let (view, machine) = (node.view(), node.machine.clone());
        let load = WorkloadConfig::hot_stock(1, inserts, txns * inserts as u64);
        let driver = install_workload(&mut node.sim, &machine, &view, load);
        let (sim, txn, net, pools) = (node.sim, node.stats, node.net, node.pm_pool);
        Rig {
            sim,
            driver,
            txn,
            net,
            pools,
            site,
        }
    }
}

/// Run the workload to completion once, uncrashed: the dispatch window
/// worth fuzzing (from just before the first commits to the last
/// acknowledgement) and the ground-truth committed set.
fn probe(arm: Arm, seed: u64) -> (u64, u64, Vec<TxnId>) {
    let (_, _, _, txns, opens_ms) = arm.shape();
    let mut store = DurableStore::new();
    let mut rig = arm.build(&mut store, seed);
    rig.sim.run_until(SimTime(opens_ms * MILLIS));
    let d_lo = rig.sim.dispatched();
    while !rig.driver.lock().done() {
        let now = rig.sim.now();
        assert!(now < SimTime(60 * SECS), "probe workload did not finish");
        rig.sim.run_until(SimTime(now.as_nanos() + 10 * MILLIS));
    }
    let d_hi = rig.sim.dispatched();
    assert!(d_hi > d_lo);
    let driver = rig.driver.lock();
    assert_eq!(
        driver.committed, txns,
        "probe must commit the whole workload"
    );
    if arm == Arm::CrossShard {
        assert!(driver.cross_shard_committed > 0, "probe ran no 2PC");
    }
    let ts = rig.txn.lock();
    // Every arm acks appends only from a published watermark, so every
    // commit in the sweep — 2PC prepares included — hardened on its
    // append acks alone: the crash points all sample the flush-less path.
    assert_eq!(ts.flush_reqs, 0, "a PM commit sent a FlushReq");
    // The sweep exercises the one publication path there is: every chain
    // carries the cell that publishes it, fenced in-chain under
    // `PersistFlush` — there is no standalone flush verb to fall back on.
    assert!(ts.pm_batches > 0, "the probe posted no chain");
    assert_eq!(ts.pm_ctrl_writes, ts.pm_batches);
    assert_eq!(rig.net.lock().stats.rdma_flushes, 0);
    let fences = rig.pools.iter().flat_map(|(a, b)| [a, b]);
    let fenced = fences.map(|h| h.stats.lock().flushes).sum::<u64>() > 0;
    assert_eq!(
        fenced,
        !matches!(arm, Arm::Node(m) if m != PersistMode::PersistFlush)
    );
    (d_lo, d_hi, driver.committed_ids.clone())
}

/// Tear an `off`-byte write of the next watermark publication into a copy
/// of a recovered control cell. The
/// double-buffered cell must still parse to the previously published
/// watermark — never a garbage LSN. The tear goes into a *copy*: a cell
/// is only ever written as the last link behind its data, so "cell whole,
/// data absent" is not a state the store can reach, and left in the image
/// it would hand the oracle a watermark no chain ever wrote.
fn torn_cell_violation(cell: &[u8], off: usize) -> Option<String> {
    let mut cell = cell.to_vec();
    cell.resize(PM_CTRL_BYTES as usize, 0);
    let (wm, slot) = parse_ctrl_cell(&cell);
    let target = slot.map(|s| 1 - s).unwrap_or(0) * PM_CTRL_SLOT_BYTES as usize;
    let next = wm + 4096;
    let mut write = [0u8; PM_CTRL_SLOT_BYTES as usize];
    write[..12].copy_from_slice(&encode_ctrl_slot(next));
    cell[target..target + off].copy_from_slice(&write[..off]);
    let (wm2, _) = parse_ctrl_cell(&cell);
    // A tear short of the 12 payload bytes (wm + crc) must fall back to
    // the surviving slot; a tear at >= 12 bytes delivered the whole
    // logical cell (only pad was cut), so the new watermark legitimately
    // wins. Anything else is a garbage LSN.
    let ok = if off < 12 { wm2 == wm } else { wm2 == next };
    (!ok).then(|| {
        format!(
            "torn watermark write ({off} bytes) parsed to garbage watermark {wm2} \
             (prev {wm}, next {next})"
        )
    })
}

#[derive(Default)]
struct Sweep {
    points: usize,
    points_with_acks: usize,
    /// Acked transactions recovery did not redo, summed over the points.
    lost: usize,
    /// Points whose recovery resolved a prepared transaction from its
    /// coordinator's trail (commit or presumed abort).
    indoubt_points: usize,
    violations: Vec<String>,
}

/// Cut power at `points` evenly spaced dispatch boundaries of each seed's
/// fuzz window, recover offline and hold each recovery to the oracle.
fn sweep(arm: Arm) -> Sweep {
    let (seeds, points, inserts, _, _) = arm.shape();
    let mut out = Sweep::default();
    let per_seed = points / seeds.len();
    for (si, &seed) in seeds.iter().enumerate() {
        let (d_lo, d_hi, truth) = probe(arm, seed);
        for i in 0..per_seed {
            let k = d_lo + (d_hi - d_lo) * i as u64 / per_seed as u64;
            let mut store = DurableStore::new();
            let (acked, site) = {
                let mut rig = arm.build(&mut store, seed);
                rig.sim.run_until_dispatched(k);
                let acked = rig.driver.lock().committed_ids.clone();
                (acked, rig.site)
                // Sim dropped here == power loss at the event boundary.
            };
            store.reset_volatile();
            let snapshot = Snapshot::read(&store, &site);
            // Every 5th node point also tears the next watermark write
            // into partition 0's cell on half `a`, cycling through all
            // intra-slot byte offsets 1..=15.
            if matches!(arm, Arm::Node(_)) && i % 5 == 0 {
                let off = (si + i / 5) % 15 + 1;
                let cell = &snapshot.shards[0][0].halves[0].cell;
                let torn = torn_cell_violation(cell, off);
                out.violations.extend(torn.map(|v| format!("k={k}: {v}")));
            }
            let expect = Expect {
                acked: &acked,
                truth: Some(&truth),
                inserts,
                ..Expect::default()
            };
            let report = snapshot.check(&expect);
            out.points += 1;
            out.points_with_acks += usize::from(!acked.is_empty());
            out.lost += report.lost();
            let r = &report.recovery;
            out.indoubt_points +=
                usize::from(!r.indoubt_committed.is_empty() || !r.indoubt_aborted.is_empty());
            // NicAck promises nothing past the torn-cell parse.
            if arm != Arm::Node(PersistMode::NicAck) {
                out.violations
                    .extend(report.violations.iter().map(|v| format!("k={k}: {v:?}")));
            }
        }
    }
    assert!(
        out.points_with_acks > out.points / 4,
        "{arm:?}: too few crash points landed after commits started ({} of {})",
        out.points_with_acks,
        out.points
    );
    assert!(
        out.violations.is_empty(),
        "{arm:?}: {} violations:\n{}",
        out.violations.len(),
        out.violations.join("\n")
    );
    println!(
        "{arm:?}: {} points, {} with acks, {} acked commits lost, {} in doubt",
        out.points, out.points_with_acks, out.lost, out.indoubt_points
    );
    out
}

#[test]
fn persist_flush_never_loses_an_acked_commit_at_any_crash_point() {
    assert_eq!(sweep(Arm::Node(PersistMode::PersistFlush)).lost, 0);
}

#[test]
fn flush_on_read_never_loses_an_acked_commit_at_any_crash_point() {
    assert_eq!(sweep(Arm::Node(PersistMode::FlushOnRead)).lost, 0);
}

#[test]
fn nic_ack_demonstrably_loses_acked_commits_under_crash() {
    let s = sweep(Arm::Node(PersistMode::NicAck));
    assert!(
        s.lost >= 1,
        "NicAck never lost an acked commit across {} crash points — \
         the ingress-buffer model is not observable",
        s.points
    );
}

#[test]
fn cross_shard_2pc_never_half_commits_at_any_crash_point() {
    let s = sweep(Arm::CrossShard);
    assert_eq!(s.lost, 0);
    // The sweep must actually exercise in-doubt resolution: crashes
    // between a participant's Prepared record and the decision becoming
    // durable.
    assert!(
        s.indoubt_points >= 1,
        "no crash point left an in-doubt transaction; the 2PC window was not sampled"
    );
}
