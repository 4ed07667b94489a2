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

use pmem::oracle::{Expect, Snapshot, Trails};
use simcore::fault::{Fault, FaultPlan};
use simcore::time::{MILLIS, SECS};
use simcore::{DurableStore, SimTime};
use txnkit::audit::{scan, AuditRecord};
use txnkit::scenario::{build_cluster, ClusterNode, ClusterParams};
use txnkit::TxnId;
use workload::{
    install_workload, run_to_completion, Keys, SharedWorkloadStats, ThinkTime, WorkloadConfig,
};

const SHARDS: u32 = 2;
const CLIENTS: u64 = 16;
const TXNS_PER_CLIENT: u64 = 6;
const INSERTS: u32 = 4;

/// The cluster with `victim` killed at `at`. Process-pair backups are
/// off, so a killed TMF stays dead. A wide modelled ingress-drain latency
/// stretches the burst across the kill instants, so each kill lands while
/// two-phase transactions are genuinely in flight (the real window is
/// ~µs; the recovery contract is window-size independent).
fn params(seed: u64, victim: &str, at: SimTime) -> ClusterParams {
    let mut params = ClusterParams::pm(seed, SHARDS);
    params.base.backups = false;
    params.base.pm_ingress_drain_ns = Some(MILLIS);
    let name = victim.into();
    params.base.fault_plan = FaultPlan::none().with(Fault::KillProcess { name, at });
    params
}

/// Build the cluster + workload with a TMF kill scheduled at `at`.
fn build(
    store: &mut DurableStore,
    seed: u64,
    victim: &str,
    at: SimTime,
) -> (ClusterNode, SharedWorkloadStats) {
    let mut node = build_cluster(store, params(seed, victim, at));
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
fn replay_committed(seed: u64, victim: &str) -> Vec<TxnId> {
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
    let site = Trails::cluster(&params(seed, victim, SimTime(600 * SECS)));
    for (shard, trails) in Snapshot::read(&store, &site).shards.iter().enumerate() {
        let records: Vec<AuditRecord> = trails
            .iter()
            .flat_map(|t| scan(t.bytes()))
            .map(|(_, r)| r)
            .collect();
        let prepared = |t: TxnId| records.contains(&AuditRecord::Prepared { txn: t });
        for r in &records {
            if let AuditRecord::Insert { txn, .. } = *r {
                assert!(
                    txn.coordinator_shard() == shard as u32 || prepared(txn),
                    "shard {shard} voted on {txn:?} without a Prepared record"
                );
            }
        }
    }
    s.committed_ids.clone()
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
        assert!(
            !acked.is_empty(),
            "kill at {kill_ms} ms landed before any commit was acknowledged"
        );
        let site = Trails::cluster(&params(seed, victim, SimTime::ZERO));
        let report = Snapshot::read(&store, &site).check(&Expect {
            acked: &acked,
            truth: Some(&replay),
            inserts: INSERTS,
            ..Expect::default()
        });
        report.assert_clean(&format!("{victim} killed at {kill_ms} ms"));
        let rec = &report.recovery;
        indoubt_resolved += rec.indoubt_committed.len() + rec.indoubt_aborted.len();
        inflight_undone += rec.shards.iter().map(|s| s.inflight.len()).sum::<usize>();
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
