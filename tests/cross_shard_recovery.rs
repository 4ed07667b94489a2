//! Acceptance: cross-shard recovery after coordinator and participant
//! TMF deaths.
//!
//! A 2-shard cluster (process-pair backups disabled, so a killed TMF
//! stays dead) runs a continuous high-cross-shard closed-loop workload.
//! At several instants inside the burst — when two-phase transactions
//! sit in every phase: data flushes issued (mid-prepare), `Prepared`
//! hardened but undecided, decision fan-out in flight (mid-commit) — one
//! shard's TMF is killed. From the perspective of shard-0-coordinated
//! transactions, killing `$TMF-s0` is a *coordinator* death and killing
//! `$TMF-s1` is a *participant* death; each test exercises one victim
//! (and, symmetrically, the opposite role for the other shard's
//! transactions). The cluster then soldiers on, power is cut, and
//! offline sharded recovery over the surviving NPMU images must resolve
//! every in-doubt transaction consistently:
//!
//! * every commit acknowledged to a client redoes from the images alone
//!   (`PersistFlush`: the coordinator's commit record was durable before
//!   the ack);
//! * the global verdict is single-valued — no shard applies work for a
//!   transaction the cluster aborted, and a committed transaction
//!   carries its full insert set on every shard it touched;
//! * recovery never invents a commit: the recovered-committed set is a
//!   subset of what a deterministic uncrashed replay of the same seed
//!   commits.

mod common;

use common::try_read_region;
use nsk::Monitor;
use simcore::fault::{Fault, FaultPlan};
use simcore::time::{MILLIS, SECS};
use simcore::{DurableStore, SimTime};
use std::collections::{HashMap, HashSet};
use txnkit::adp::PM_CTRL_BYTES;
use txnkit::audit::{scan, AuditRecord};
use txnkit::recovery::redo_scan_sharded;
use txnkit::scenario::{build_cluster, ClusterNode, ClusterParams};
use txnkit::TxnId;
use workload::{
    install_workload, run_to_completion, Keys, SharedWorkloadStats, ThinkTime, WorkloadConfig,
};

const SHARDS: u32 = 2;
const TRAILS: u32 = 4;
const CLIENTS: u64 = 16;
const TXNS_PER_CLIENT: u64 = 6;
const INSERTS: u32 = 4;

/// Build the cluster + workload with a TMF kill scheduled at `at`.
fn build(
    store: &mut DurableStore,
    seed: u64,
    victim: &str,
    at: SimTime,
) -> (ClusterNode, SharedWorkloadStats) {
    let mut params = ClusterParams::pm(seed, SHARDS);
    params.base.backups = false; // a killed TMF stays dead
                                 // Wide modelled ingress-drain latency stretches the burst across the
                                 // kill instants, so each kill lands while two-phase transactions are
                                 // genuinely in flight (the real window is ~µs; the recovery contract
                                 // is window-size independent).
    params.base.pm_ingress_drain_ns = Some(MILLIS);
    let mut node = build_cluster(store, params);
    Monitor::install(
        &mut node.sim,
        &node.machine,
        FaultPlan::none().with(Fault::KillProcess {
            name: victim.into(),
            at,
        }),
    );
    let (view, machine) = (node.view(), node.machine.clone());
    let stats = install_workload(
        &mut node.sim,
        &machine,
        &view,
        WorkloadConfig {
            pools_per_shard: 1,
            think: ThinkTime::Zero,
            cross_shard_fraction: 0.9,
            keys: Keys::Disjoint,
            track_txns: true,
            records_per_client: TXNS_PER_CLIENT * INSERTS as u64,
            run_for: None,
            inserts_per_txn: INSERTS,
            ..WorkloadConfig::new(seed, CLIENTS)
        },
    );
    (node, stats)
}

/// Ground truth: the same seed with the kill scheduled long after the
/// workload finishes (the pre-kill event prefix is identical, so any
/// transaction the crashed run could legitimately commit appears here).
fn replay_committed(seed: u64, victim: &str) -> HashSet<TxnId> {
    let mut store = DurableStore::new();
    let (mut node, stats) = build(&mut store, seed, victim, SimTime(600 * SECS));
    run_to_completion(&mut node.sim, &stats, SimTime(300 * SECS));
    let s = stats.lock();
    assert_eq!(
        s.committed,
        CLIENTS * TXNS_PER_CLIENT,
        "disjoint-key replay must commit every transaction"
    );
    assert!(s.cross_shard_committed > 0);
    // On PM every insert was durable on its append ack, so no prepare
    // carried a flush point and no TMF sent a `FlushReq` — yet every
    // participant still hardened `Prepared` on its own trail before it
    // voted: wherever a shard holds a delta of a transaction another
    // shard coordinates, it holds that transaction's `Prepared` too.
    {
        let t = node.stats.lock();
        assert_eq!(t.flush_reqs, 0);
        assert_eq!(t.twopc_prepares, s.cross_shard_committed);
    }
    for (shard, shard_trails) in trails(&mut store).iter().enumerate() {
        let records: Vec<AuditRecord> = shard_trails
            .iter()
            .flat_map(|t| scan(t))
            .map(|(_, r)| r)
            .collect();
        let prepared: HashSet<TxnId> = records
            .iter()
            .filter_map(|r| match r {
                AuditRecord::Prepared { txn } => Some(*txn),
                _ => None,
            })
            .collect();
        for r in &records {
            if let AuditRecord::Insert { txn, .. } = r {
                assert!(
                    txn.coordinator_shard() == shard as u32 || prepared.contains(txn),
                    "shard {shard} voted on {txn:?} without a Prepared record"
                );
            }
        }
    }
    s.committed_ids.iter().copied().collect()
}

/// Read every audit trail of every shard from one surviving mirror half.
fn trails(store: &mut DurableStore) -> Vec<Vec<Vec<u8>>> {
    (0..SHARDS)
        .map(|s| {
            (0..TRAILS)
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

/// Kill `victim` at several instants inside the burst, then verify the
/// offline recovery contract after a final power loss.
fn kill_and_recover(victim: &str, seed: u64) {
    let replay = replay_committed(seed, victim);
    let mut indoubt_resolved = 0usize;
    let mut inflight_undone = 0usize;
    // The zero-think burst spans ~1.102–1.130 s (just after the 1.1 s
    // warmup); these instants land early, mid and late in it, while
    // prepares, commit records and decision fan-outs for different
    // transactions are all in flight.
    for &kill_ms in &[1104u64, 1112, 1122] {
        let mut store = DurableStore::new();
        let acked: Vec<TxnId> = {
            let (mut node, stats) = build(&mut store, seed, victim, SimTime(kill_ms * MILLIS));
            // Survivors finish what they can; clients whose coordinator
            // or participant died hang — bounded run, then power loss.
            node.sim.run_until(SimTime(8 * SECS));
            let s = stats.lock();
            s.committed_ids.clone()
        };
        store.reset_volatile();
        let shard_trails = trails(&mut store);
        let refs: Vec<Vec<&[u8]>> = shard_trails
            .iter()
            .map(|s| s.iter().map(|t| t.as_slice()).collect())
            .collect();
        let rec = redo_scan_sharded(&refs);
        indoubt_resolved += rec.indoubt_committed.len() + rec.indoubt_aborted.len();
        inflight_undone += rec.shards.iter().map(|s| s.inflight.len()).sum::<usize>();

        assert!(
            !acked.is_empty(),
            "kill at {kill_ms} ms landed before any commit was acknowledged"
        );
        for txn in &acked {
            assert!(
                rec.committed.contains(txn),
                "kill at {kill_ms} ms: acked {txn:?} did not survive recovery"
            );
        }
        assert!(
            rec.committed.is_disjoint(&rec.aborted),
            "kill at {kill_ms} ms: a transaction is both committed and aborted"
        );
        for txn in &rec.committed {
            assert!(
                replay.contains(txn),
                "kill at {kill_ms} ms: recovery invented commit {txn:?}"
            );
        }
        // Atomicity: committed transactions carry their full insert set
        // (disjoint keys, so distinct-key count identifies completeness
        // even under idempotent sub-op retries), and no shard applies a
        // record of a transaction the cluster did not commit.
        let mut keys_of: HashMap<TxnId, HashSet<u64>> = HashMap::new();
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
            assert_eq!(
                keys_of.get(txn).map(|s| s.len()).unwrap_or(0),
                INSERTS as usize,
                "kill at {kill_ms} ms: committed {txn:?} is half-applied"
            );
        }
        for (si, shard) in rec.shards.iter().enumerate() {
            for table in shard.tables.values() {
                for key in table.keys() {
                    let owner = txn_of_key.get(key).copied();
                    assert!(
                        owner.is_some_and(|t| rec.committed.contains(&t)),
                        "kill at {kill_ms} ms: shard {si} applied key {key} of \
                         non-committed {owner:?}"
                    );
                }
            }
        }
    }
    // The sweep must actually have interrupted the two-phase window:
    // prepared-but-undecided participants resolved via the coordinator
    // trail, or mid-prepare work undone by presumed abort.
    assert!(
        indoubt_resolved + inflight_undone >= 1,
        "no kill instant left 2PC state for recovery to resolve"
    );
    println!(
        "{victim}: {indoubt_resolved} in-doubt resolved, {inflight_undone} in-flight undone \
         across kill instants"
    );
}

/// Coordinator death (for shard-0-coordinated transactions): participants
/// hold `Prepared` state with no decision arriving; recovery consults the
/// dead coordinator's surviving trail.
#[test]
fn coordinator_tmf_death_leaves_no_half_committed_transactions() {
    kill_and_recover("$TMF-s0", 0x2BC0);
}

/// Participant death (for shard-0-coordinated transactions): prepares
/// never ack, the coordinator never reaches its commit point, and the
/// participant's own coordinated transactions leave shard 0 in-doubt.
#[test]
fn participant_tmf_death_leaves_no_half_committed_transactions() {
    kill_and_recover("$TMF-s1", 0x2BC1);
}
