//! Whole-commit crash-point fuzzer.
//!
//! Deterministically replays a small hot-stock commit workload and
//! injects a power loss at sampled event boundaries — dropping the `Sim`
//! at dispatch `k` and resetting the durable store's volatile side is
//! exactly "the lights went out between event `k` and `k+1`" — then runs
//! offline recovery over the surviving NPMU images and checks the
//! crash-visibility contract of each remote-persistence mode:
//!
//! * `PersistFlush` / `FlushOnRead` (honest): every transaction the
//!   driver saw acknowledged as committed redoes from the NPMU images
//!   alone; every recovered-committed transaction is complete (no
//!   half-applied work); the mirror halves agree byte-for-byte up to the
//!   published watermark.
//! * `NicAck` (optimistic): commits are acknowledged at NIC-ack, while
//!   the bytes still sit in the NPMU's volatile ingress buffer — the
//!   fuzzer must catch at least one crash point where an acknowledged
//!   commit is gone after recovery. That observable loss is the whole
//!   reason the honest modes exist.
//!
//! A rotating subset of points additionally tears a control-cell write
//! (a partial-byte overwrite of the slot the next publication would
//! target, applied to a copy of the recovered cell) and checks the
//! double-buffered cell still parses to the previously published
//! watermark — never a garbage LSN.
//!
//! `FUZZ_FULL=1` widens the sweep to ≥ 2000 injected points across the
//! three modes; the default is a ~200-point smoke sized for CI. Each
//! arm's uncrashed probe also pins the shape of the path being fuzzed:
//! no `FlushReq` on any PM arm (commits harden on their append acks), no
//! standalone flush verb, every chain carrying its own cell.

mod common;

use common::{try_read_region, try_read_region_sized};
use simcore::time::{MILLIS, SECS};
use simcore::{DurableStore, SimTime};
use simnet::PersistMode;
use std::collections::HashMap;
use txnkit::adp::{encode_ctrl_slot, parse_ctrl_cell, PM_CTRL_BYTES, PM_CTRL_SLOT_BYTES};
use txnkit::audit::{scan, AuditRecord};
use txnkit::recovery::redo_scan_partitioned;
use txnkit::scenario::{build_ods, AuditMode, OdsNode, OdsParams};
use txnkit::TxnId;

const INSERTS_PER_TXN: u32 = 8;
const RECORDS: u64 = 96; // 12 transactions end-to-end
const N_TRAILS: u32 = 4;
/// Wide modelled ingress-drain latency so the ack-vs-persist window of
/// `NicAck` spans many event boundaries (the real window is ~µs; the
/// invariants are window-size independent).
const DRAIN_NS: u64 = MILLIS;

fn points_per_mode() -> usize {
    if std::env::var("FUZZ_FULL").is_ok_and(|v| v == "1") {
        700 // 3 modes × 700 = 2100 injected power-loss points
    } else {
        70 // smoke: 3 × 70 = 210
    }
}

fn build_node(
    store: &mut DurableStore,
    mode: PersistMode,
    seed: u64,
) -> (OdsNode, SharedWorkloadStats) {
    let mut params = OdsParams {
        audit: AuditMode::HardwareNpmu,
        ..OdsParams::pm(seed)
    };
    params.txn.pm_persist_mode = mode;
    params.pm_ingress_drain_ns = Some(DRAIN_NS);
    let mut node = build_ods(store, params);
    let (view, machine) = (node.view(), node.machine.clone());
    let stats = install_workload(
        &mut node.sim,
        &machine,
        &view,
        WorkloadConfig::hot_stock(1, INSERTS_PER_TXN, RECORDS),
    );
    (node, stats)
}

/// Run the workload to completion once, uncrashed, and learn the dispatch
/// window worth fuzzing: from just before the first commits to the last
/// acknowledgement.
fn probe(mode: PersistMode, seed: u64) -> (u64, u64) {
    let mut store = DurableStore::new();
    let (mut node, stats) = build_node(&mut store, mode, seed);
    node.sim.run_until(SimTime(1120 * MILLIS));
    let d_lo = node.sim.dispatched();
    while !stats.lock().done() {
        let now = node.sim.now();
        assert!(now < SimTime(60 * SECS), "probe workload did not finish");
        node.sim.run_until(SimTime(now.as_nanos() + 10 * MILLIS));
    }
    let d_hi = node.sim.dispatched();
    assert_eq!(
        stats.lock().committed,
        RECORDS / INSERTS_PER_TXN as u64,
        "probe must commit the whole workload"
    );
    let ts = node.stats.lock();
    // Every arm acks appends only from a published watermark, so every
    // commit in the sweep hardened on its append acks alone: the crash
    // points below all sample the flush-less commit path.
    assert_eq!(ts.flush_reqs, 0, "a PM commit sent a FlushReq");
    // The sweep exercises the one publication path there is: every chain
    // carries the cell that publishes it, fenced in-chain under
    // `PersistFlush` — there is no standalone flush verb to fall back on.
    assert!(ts.pm_batches > 0, "the probe posted no chain");
    assert_eq!(ts.pm_ctrl_writes, ts.pm_batches);
    assert_eq!(node.net.lock().stats.rdma_flushes, 0);
    let fences: u64 = node
        .pm_pool
        .iter()
        .flat_map(|(a, b)| [a, b])
        .map(|h| h.stats.lock().flushes)
        .sum();
    assert_eq!(fences > 0, mode == PersistMode::PersistFlush);
    drop(ts);
    assert!(d_hi > d_lo);
    (d_lo, d_hi)
}

struct PointOutcome {
    acked: u64,
    lost: u64,
    violations: Vec<String>,
}

/// Cut power at dispatch boundary `k` of a fresh deterministic replay,
/// recover offline, and evaluate every invariant the mode promises.
/// `torn_offset` additionally tears an `off`-byte write into a copy of
/// partition 0's recovered control cell.
fn crash_point(mode: PersistMode, seed: u64, k: u64, torn_offset: Option<usize>) -> PointOutcome {
    let mut store = DurableStore::new();
    let acked;
    {
        let (mut node, stats) = build_node(&mut store, mode, seed);
        node.sim.run_until_dispatched(k);
        acked = stats.lock().committed;
        // Sim dropped here == power loss at the event boundary.
    }
    store.reset_volatile();

    let mut violations: Vec<String> = Vec::new();

    // Torn watermark write: the next publication tears mid-slot. The
    // double-buffered cell must still parse to the previously published
    // watermark — never a garbage LSN. The tear goes into a *copy* of the
    // cell: a cell is only ever written as the last link behind its data,
    // so "cell whole, data absent" is not a state the store can reach,
    // and left in the image it would hand the mirror check below a
    // watermark no chain ever wrote.
    if let Some(off) = torn_offset {
        if let Some(img) = store.get::<npmu::NvImage>("npmu:pm-a") {
            let img = img.lock();
            let meta = pmm::MetaStore::recover(|o, l| img.read(o, l));
            if let Some(region) = meta.find("adp0.audit") {
                let mut cell = img.read(region.base, PM_CTRL_BYTES as usize);
                let (wm, slot) = parse_ctrl_cell(&cell);
                let target = slot.map(|s| 1 - s).unwrap_or(0) * PM_CTRL_SLOT_BYTES as usize;
                let next = wm + 4096;
                let mut write = [0u8; PM_CTRL_SLOT_BYTES as usize];
                write[..12].copy_from_slice(&encode_ctrl_slot(next));
                cell[target..target + off].copy_from_slice(&write[..off]);
                let (wm2, _) = parse_ctrl_cell(&cell);
                // A tear short of the 12 payload bytes (wm + crc) must
                // fall back to the surviving slot; a tear at >= 12 bytes
                // delivered the whole logical cell (only pad was cut), so
                // the new watermark legitimately wins. Anything else is a
                // garbage LSN.
                let ok = if off < 12 { wm2 == wm } else { wm2 == next };
                if !ok {
                    violations.push(format!(
                        "k={k}: torn watermark write ({off} bytes) parsed to garbage \
                         watermark {wm2} (prev {wm}, next {next})"
                    ));
                }
            }
        }
    }

    // Offline recovery from one surviving mirror, like a recovery tool.
    let trails: Vec<Vec<u8>> = (0..N_TRAILS)
        .filter_map(|i| {
            try_read_region(
                &mut store,
                "npmu:pm-a",
                &format!("adp{i}.audit"),
                PM_CTRL_BYTES,
            )
        })
        .collect();
    let refs: Vec<&[u8]> = trails.iter().map(|t| t.as_slice()).collect();
    let rec = redo_scan_partitioned(&refs);
    let lost = acked.saturating_sub(rec.committed.len() as u64);

    if mode != PersistMode::NicAck {
        if lost > 0 {
            violations.push(format!(
                "k={k}: {lost} acked commits unrecoverable ({} acked, {} redone)",
                acked,
                rec.committed.len()
            ));
        }
        // Atomicity: every recovered-committed txn carries its full
        // insert set — a durable commit record never outruns the data
        // records it covers (WAL across partitioned trails).
        let mut counts: HashMap<TxnId, u32> = HashMap::new();
        for t in &trails {
            for (_, r) in scan(t) {
                if let AuditRecord::Insert { txn, .. } = r {
                    *counts.entry(txn).or_default() += 1;
                }
            }
        }
        for txn in &rec.committed {
            let n = counts.get(txn).copied().unwrap_or(0);
            if n != INSERTS_PER_TXN {
                violations.push(format!(
                    "k={k}: committed {txn:?} half-applied: {n}/{INSERTS_PER_TXN} inserts"
                ));
            }
        }
        // Mirror reconciliation: both halves agree byte-for-byte up to
        // the (lower) published watermark.
        for i in 0..N_TRAILS {
            let name = format!("adp{i}.audit");
            let (Some((mut a, len)), Some((mut b, _))) = (
                try_read_region_sized(&mut store, "npmu:pm-a", &name, 0),
                try_read_region_sized(&mut store, "npmu:pm-b", &name, 0),
            ) else {
                continue;
            };
            let (wa, _) = parse_ctrl_cell(&a);
            let (wb, _) = parse_ctrl_cell(&b);
            let wm = wa.min(wb) as usize;
            let cap = len as usize - PM_CTRL_BYTES as usize;
            if wm > cap {
                continue; // wrapped trail: prefix compare is not meaningful
            }
            // Each half was read up to its last written block; past it
            // the region reads as zeros.
            let end = PM_CTRL_BYTES as usize + wm;
            for half in [&mut a, &mut b] {
                half.resize(half.len().max(end), 0);
            }
            let pa = &a[PM_CTRL_BYTES as usize..end];
            let pb = &b[PM_CTRL_BYTES as usize..end];
            if pa != pb {
                violations.push(format!(
                    "k={k}: partition {i} mirrors diverge below wm {wm}"
                ));
            }
        }
    }

    PointOutcome {
        acked,
        lost,
        violations,
    }
}

struct ModeReport {
    points: usize,
    points_with_acks: usize,
    total_lost: u64,
    violations: Vec<String>,
}

fn fuzz_mode(mode: PersistMode) -> ModeReport {
    let per_mode = points_per_mode();
    let seeds: &[u64] = &[0xF0_0D, 0x5EED];
    let per_seed = per_mode.div_ceil(seeds.len());
    let mut report = ModeReport {
        points: 0,
        points_with_acks: 0,
        total_lost: 0,
        violations: Vec::new(),
    };
    for (si, &seed) in seeds.iter().enumerate() {
        let (d_lo, d_hi) = probe(mode, seed);
        for i in 0..per_seed {
            let k = d_lo + (d_hi - d_lo) * i as u64 / per_seed as u64;
            // Every 5th point also tears the next watermark write,
            // cycling through all intra-slot byte offsets 1..=15.
            let torn = (i % 5 == 0).then_some((si + i / 5) % 15 + 1);
            let out = crash_point(mode, seed, k, torn);
            report.points += 1;
            if out.acked > 0 {
                report.points_with_acks += 1;
            }
            report.total_lost += out.lost;
            report.violations.extend(out.violations);
        }
    }
    assert!(
        report.points >= per_mode,
        "swept {} of {per_mode} points",
        report.points
    );
    assert!(
        report.points_with_acks > report.points / 4,
        "too few crash points landed after commits started ({} of {})",
        report.points_with_acks,
        report.points
    );
    report
}

#[test]
fn persist_flush_never_loses_an_acked_commit_at_any_crash_point() {
    let report = fuzz_mode(PersistMode::PersistFlush);
    assert!(
        report.violations.is_empty(),
        "{} violations:\n{}",
        report.violations.len(),
        report.violations.join("\n")
    );
    assert_eq!(report.total_lost, 0);
}

#[test]
fn flush_on_read_never_loses_an_acked_commit_at_any_crash_point() {
    let report = fuzz_mode(PersistMode::FlushOnRead);
    assert!(
        report.violations.is_empty(),
        "{} violations:\n{}",
        report.violations.len(),
        report.violations.join("\n")
    );
    assert_eq!(report.total_lost, 0);
}

#[test]
fn nic_ack_demonstrably_loses_acked_commits_under_crash() {
    let report = fuzz_mode(PersistMode::NicAck);
    // The torn-cell invariant still holds in NicAck (the only invariant
    // checked for the optimistic mode).
    assert!(
        report.violations.is_empty(),
        "{} violations:\n{}",
        report.violations.len(),
        report.violations.join("\n")
    );
    assert!(
        report.total_lost >= 1,
        "NicAck never lost an acked commit across {} crash points — \
         the ingress-buffer model is not observable",
        report.points
    );
}

// ---------------------------------------------------------------------
// Cross-shard 2PC variant
// ---------------------------------------------------------------------
//
// The same power-loss discipline pointed at a 2-shard cluster running a
// cross-shard mix: a crash at any event boundary inside the two-phase
// window (participant data flushes, Prepared records, the coordinator's
// commit record, decision fan-out) must never yield a *half-committed*
// cross-shard transaction — a shard applying work for a transaction the
// cluster aborted, or a committed transaction missing part of its insert
// set — and in `PersistFlush` never loses an acknowledged commit.

use txnkit::recovery::redo_scan_sharded;
use txnkit::scenario::{build_cluster, ClusterNode, ClusterParams};
use workload::{
    install_workload, run_to_completion, Keys, SharedWorkloadStats, ThinkTime, WorkloadConfig,
};

const XS_SHARDS: u32 = 2;
const XS_TRAILS: u32 = 4; // audit partitions per shard (one per CPU)
const XS_INSERTS: u32 = 4;
const XS_CLIENTS: u64 = 8;
const XS_TXNS_PER_CLIENT: u64 = 3;

fn xs_points() -> usize {
    if std::env::var("FUZZ_FULL").is_ok_and(|v| v == "1") {
        240
    } else {
        60
    }
}

fn build_xs_cluster(store: &mut DurableStore, seed: u64) -> (ClusterNode, SharedWorkloadStats) {
    let mut params = ClusterParams::pm(seed, XS_SHARDS);
    params.base.pm_ingress_drain_ns = Some(DRAIN_NS);
    let mut node = build_cluster(store, params);
    let (view, machine) = (node.view(), node.machine.clone());
    let stats = install_workload(
        &mut node.sim,
        &machine,
        &view,
        WorkloadConfig {
            pools_per_shard: 1,
            think: ThinkTime::Zero,
            cross_shard_fraction: 0.6,
            keys: Keys::Disjoint,
            track_txns: true,
            records_per_client: XS_TXNS_PER_CLIENT * XS_INSERTS as u64,
            run_for: None,
            inserts_per_txn: XS_INSERTS,
            ..WorkloadConfig::new(seed, XS_CLIENTS)
        },
    );
    (node, stats)
}

/// Uncrashed replay: the fuzz window plus the ground-truth committed set.
fn xs_probe(seed: u64) -> (u64, u64, std::collections::HashSet<TxnId>) {
    let mut store = DurableStore::new();
    let (mut node, stats) = build_xs_cluster(&mut store, seed);
    // With zero think the whole workload runs in a burst right after the
    // 1.1 s warmup, so anchor the window at workload onset rather than a
    // fixed later instant — otherwise the sweep samples mostly trailing
    // maintenance events.
    node.sim.run_until(SimTime(1099 * MILLIS));
    let d_lo = node.sim.dispatched();
    run_to_completion(&mut node.sim, &stats, SimTime(120 * SECS));
    let d_hi = node.sim.dispatched();
    println!(
        "xs probe: window {d_lo}..{d_hi} dispatches, done at {:?}",
        node.sim.now()
    );
    let s = stats.lock();
    assert_eq!(
        s.committed,
        XS_CLIENTS * XS_TXNS_PER_CLIENT,
        "disjoint-key probe must commit everything"
    );
    assert!(s.cross_shard_committed > 0, "probe ran no cross-shard txns");
    // Neither coordinators nor participants flushed: every prepare and
    // every commit record hardened on its append ack.
    assert_eq!(node.stats.lock().flush_reqs, 0, "a PM 2PC sent a FlushReq");
    (d_lo, d_hi, s.committed_ids.iter().copied().collect())
}

/// Read every audit trail of every shard from one surviving mirror half.
fn xs_trails(store: &mut DurableStore) -> Vec<Vec<Vec<u8>>> {
    (0..XS_SHARDS)
        .map(|s| {
            (0..XS_TRAILS)
                .filter_map(|i| {
                    try_read_region(
                        store,
                        &ClusterNode::npmu_store_key(s, 0, 'a'),
                        &format!("adp{i}.audit"),
                        PM_CTRL_BYTES,
                    )
                })
                .collect()
        })
        .collect()
}

#[test]
fn cross_shard_2pc_never_half_commits_at_any_crash_point() {
    let seed = 0xC0DE;
    let (d_lo, d_hi, replay_committed) = xs_probe(seed);
    let mut violations: Vec<String> = Vec::new();
    let points = xs_points();
    let mut points_with_acks = 0usize;
    let mut indoubt_commit_points = 0usize;
    let mut indoubt_abort_points = 0usize;
    for i in 0..points {
        let k = d_lo + (d_hi - d_lo) * i as u64 / points as u64;
        let mut store = DurableStore::new();
        let acked: Vec<TxnId> = {
            let (mut node, stats) = build_xs_cluster(&mut store, seed);
            node.sim.run_until_dispatched(k);
            let s = stats.lock();
            s.committed_ids.clone()
            // Sim dropped here == power loss at the event boundary.
        };
        store.reset_volatile();
        let shard_trails = xs_trails(&mut store);
        let refs: Vec<Vec<&[u8]>> = shard_trails
            .iter()
            .map(|s| s.iter().map(|t| t.as_slice()).collect())
            .collect();
        let rec = redo_scan_sharded(&refs);

        if !acked.is_empty() {
            points_with_acks += 1;
        }
        if !rec.indoubt_committed.is_empty() {
            indoubt_commit_points += 1;
        }
        if !rec.indoubt_aborted.is_empty() {
            indoubt_abort_points += 1;
        }

        // PersistFlush: every acked commit redoes from the images alone.
        for txn in &acked {
            if !rec.committed.contains(txn) {
                violations.push(format!("k={k}: acked {txn:?} unrecoverable"));
            }
        }
        // The global verdict is single-valued.
        for txn in rec.committed.intersection(&rec.aborted) {
            violations.push(format!("k={k}: {txn:?} both committed and aborted"));
        }
        // Ground truth: recovery never invents a commit the uncrashed
        // replay would not have produced.
        for txn in &rec.committed {
            if !replay_committed.contains(txn) {
                violations.push(format!("k={k}: {txn:?} committed but not in replay"));
            }
        }
        // Atomicity across shards: a committed transaction carries its
        // full insert set (disjoint keys ⇒ count distinct keys; duplicate
        // records from sub-op retries are idempotent), and no shard
        // applies a record of a transaction the cluster did not commit.
        let mut keys_of: HashMap<TxnId, std::collections::HashSet<u64>> = HashMap::new();
        let mut txn_of_key: HashMap<u64, TxnId> = HashMap::new();
        for shard in &shard_trails {
            for t in shard {
                for (_, r) in scan(t) {
                    if let AuditRecord::Insert { txn, key, .. } = r {
                        keys_of.entry(txn).or_default().insert(key);
                        txn_of_key.insert(key, txn);
                    }
                }
            }
        }
        for txn in &rec.committed {
            let n = keys_of.get(txn).map(|s| s.len()).unwrap_or(0);
            if n != XS_INSERTS as usize {
                violations.push(format!(
                    "k={k}: committed {txn:?} half-applied: {n}/{XS_INSERTS} inserts"
                ));
            }
        }
        for (si, shard) in rec.shards.iter().enumerate() {
            for table in shard.tables.values() {
                for key in table.keys() {
                    let owner = txn_of_key.get(key).copied();
                    if owner.is_none_or(|t| !rec.committed.contains(&t)) {
                        violations.push(format!(
                            "k={k}: shard {si} applied key {key} of non-committed {owner:?}"
                        ));
                    }
                }
            }
        }
    }
    assert!(
        violations.is_empty(),
        "{} violations:\n{}",
        violations.len(),
        violations.join("\n")
    );
    assert!(
        points_with_acks > points / 4,
        "too few crash points landed after commits started ({points_with_acks} of {points})"
    );
    // The sweep must actually exercise in-doubt resolution: crashes between
    // a participant's Prepared record and the decision becoming durable.
    assert!(
        indoubt_commit_points + indoubt_abort_points >= 1,
        "no crash point left an in-doubt transaction; the 2PC window was not sampled"
    );
    println!(
        "cross-shard sweep: {points} points, {points_with_acks} with acks, \
         {indoubt_commit_points} with in-doubt commits, {indoubt_abort_points} with presumed aborts"
    );
}
