//! DP2's insert pipeline against a scripted log writer and a scripted
//! backup: the audit delta and the checkpoint leave together, and
//! `InsertDone` leaves when *that insert's* `AppendDone` and *its own*
//! `CheckpointAck` are both in — whichever order they arrive in, and
//! whatever other inserts' acks arrive in between.

use bytes::Bytes;
use nsk::machine::{install_backup, install_primary, CpuId, Machine, MachineConfig, SharedMachine};
use nsk::proc::{Checkpoint, CheckpointAck};
use simcore::actor::Start;
use simcore::time::SECS;
use simcore::{Actor, Ctx, Msg, Shared, Sim, SimDuration, SimTime};
use simnet::{EndpointId, FabricConfig, NetDelivery, Network, SharedNetwork};
use std::collections::HashMap;
use txnkit::{
    install_dp2, AppendDone, AuditAppend, InsertDone, InsertReq, InsertResult, Lsn, PartitionId,
    TxnConfig, TxnId,
};

const MS: u64 = 1_000_000;
const PART: PartitionId = PartitionId { file: 0, part: 0 };

/// What the test observed, all in simulated ns.
#[derive(Default)]
struct Seen {
    /// key → when its delta reached the log writer.
    delta_at: HashMap<u64, u64>,
    /// Arrival times of checkpoints at the backup, in order.
    ckpt_at: Vec<u64>,
    /// key → (when the client saw `InsertDone`, its `durable` flag).
    done: HashMap<u64, (u64, bool)>,
}
type SharedSeen = Shared<Seen>;

/// Log writer: acks the append for `key` after `delay[key]`, claiming it
/// durable iff `durable[key]`.
struct ScriptedAdp {
    net: SharedNetwork,
    ep: EndpointId,
    script: HashMap<u64, (u64, bool)>,
    next_lsn: u64,
    seen: SharedSeen,
}

struct AckLater {
    to: EndpointId,
    done: AppendDone,
}

impl Actor for ScriptedAdp {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.take::<AckLater>() {
            Ok((_, a)) => {
                simnet::send_net_msg(ctx, &self.net, self.ep, a.to, 32, a.done);
                return;
            }
            Err(m) => m,
        };
        let Ok((_, d)) = msg.take::<NetDelivery>() else {
            return;
        };
        let Ok(app) = d.payload.downcast::<AuditAppend>() else {
            return;
        };
        let key = match txnkit::audit::scan(&app.records).first() {
            Some((_, txnkit::audit::AuditRecord::Insert { key, .. })) => *key,
            other => panic!("DP2 sent something other than an insert delta: {other:?}"),
        };
        self.seen.lock().delta_at.insert(key, ctx.now().as_nanos());
        let (delay, durable) = self.script[&key];
        let lsn_start = self.next_lsn;
        self.next_lsn += app.virtual_len as u64;
        let done = AppendDone {
            token: app.token,
            lsn_start: Lsn(lsn_start),
            lsn_end: Lsn(self.next_lsn),
            durable_upto: Lsn(if durable { self.next_lsn } else { lsn_start }),
        };
        ctx.send_self(
            SimDuration::from_nanos(delay),
            AckLater {
                to: d.from_ep,
                done,
            },
        );
    }
}

/// Backup: acks the n-th checkpoint it receives after `delays[n]`.
struct ScriptedBackup {
    net: SharedNetwork,
    ep: EndpointId,
    delays: Vec<u64>,
    seen: SharedSeen,
}

struct CkptAckLater {
    to: EndpointId,
    seq: u64,
}

impl Actor for ScriptedBackup {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.take::<CkptAckLater>() {
            Ok((_, a)) => {
                let ack = CheckpointAck { seq: a.seq };
                simnet::send_net_msg(ctx, &self.net, self.ep, a.to, 16, ack);
                return;
            }
            Err(m) => m,
        };
        let Ok((_, d)) = msg.take::<NetDelivery>() else {
            return;
        };
        let Ok(ck) = d.payload.downcast::<Checkpoint>() else {
            return;
        };
        let n = {
            let mut seen = self.seen.lock();
            seen.ckpt_at.push(ctx.now().as_nanos());
            seen.ckpt_at.len() - 1
        };
        ctx.send_self(
            SimDuration::from_nanos(self.delays[n]),
            CkptAckLater {
                to: d.from_ep,
                seq: ck.seq,
            },
        );
    }
}

/// Sends one insert per key at `send_at`, each in its own transaction.
struct Client {
    machine: SharedMachine,
    ep: EndpointId,
    cpu: CpuId,
    keys: Vec<u64>,
    send_at: u64,
    seen: SharedSeen,
}

struct Go;

impl Actor for Client {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Start>() {
            ctx.send_self(SimDuration::from_nanos(self.send_at), Go);
            return;
        }
        if msg.is::<Go>() {
            for &key in &self.keys {
                let machine = self.machine.clone();
                nsk::proc::send_to_process(
                    ctx,
                    &machine,
                    self.ep,
                    self.cpu,
                    "$DP2",
                    64 + 4096,
                    InsertReq {
                        txn: TxnId(key),
                        partition: PART,
                        key,
                        body: Bytes::from(key.to_le_bytes().to_vec()),
                        virtual_len: 4096,
                        token: key,
                    },
                );
            }
            return;
        }
        if let Ok((_, d)) = msg.take::<NetDelivery>() {
            if let Ok(done) = d.payload.downcast::<InsertDone>() {
                assert!(matches!(done.result, InsertResult::Ok { .. }));
                let at = ctx.now().as_nanos();
                let prev = self.seen.lock().done.insert(done.token, (at, done.durable));
                assert!(prev.is_none(), "insert {} answered twice", done.token);
            }
        }
    }
}

/// One DP2 primary on CPU 0 between a scripted log writer (CPU 2), a
/// scripted backup (CPU 1) and a client (CPU 3) that sends every key of
/// `adp_script` at t = 1 ms. Runs one simulated second.
fn run(adp_script: &[(u64, u64, bool)], ckpt_delays: &[u64], cfg: TxnConfig) -> Seen {
    let mut sim = Sim::with_seed(7);
    let net = Network::new(FabricConfig::default());
    let machine = Machine::new(MachineConfig::default(), net.clone());
    let seen: SharedSeen = Shared::default();
    let (net2, seen2) = (net.clone(), seen.clone());
    let script: HashMap<u64, (u64, bool)> = adp_script
        .iter()
        .map(|&(k, d, dur)| (k, (d, dur)))
        .collect();
    install_primary(&mut sim, &machine, "$ADP", CpuId(2), move |ep| {
        Box::new(ScriptedAdp {
            net: net2,
            ep,
            script,
            next_lsn: 0,
            seen: seen2,
        })
    });
    install_dp2(
        &mut sim,
        &machine,
        "$DP2",
        CpuId(0),
        None,
        vec![PART],
        vec!["$ADP".into()],
        Vec::new(),
        cfg,
        txnkit::stats::shared(),
    );
    let (net2, seen2, delays) = (net.clone(), seen.clone(), ckpt_delays.to_vec());
    install_backup(&mut sim, &machine, "$DP2", CpuId(1), move |ep| {
        Box::new(ScriptedBackup {
            net: net2,
            ep,
            delays,
            seen: seen2,
        })
    });
    let (machine2, seen2) = (machine.clone(), seen.clone());
    let keys: Vec<u64> = adp_script.iter().map(|&(k, _, _)| k).collect();
    install_primary(&mut sim, &machine, "$client", CpuId(3), move |ep| {
        Box::new(Client {
            machine: machine2,
            ep,
            cpu: CpuId(3),
            keys,
            send_at: MS,
            seen: seen2,
        })
    });
    sim.run_until(SimTime(SECS));
    let out = std::mem::take(&mut *seen.lock());
    out
}

/// Within `slack` after `t`: the reply left the moment the later ack was
/// in, plus one small-message leg back to the client.
fn just_after(at: u64, t: u64) -> bool {
    const SLACK: u64 = 100_000;
    at >= t && at < t + SLACK
}

#[test]
fn delta_and_checkpoint_leave_together() {
    let seen = run(&[(1, MS, true)], &[MS], TxnConfig::default());
    // The backup got the checkpoint while the log writer still held the
    // ack back — it was not sent in answer to `AppendDone`.
    let (delta, ckpt) = (seen.delta_at[&1], seen.ckpt_at[0]);
    assert!(ckpt < delta + MS, "checkpoint waited for the append ack");
    // Same event, same transmit port, delta posted first.
    assert!(delta < ckpt, "delta {delta} must lead checkpoint {ckpt}");
    assert!(ckpt - delta < 100_000, "posted {} ns apart", ckpt - delta);
}

#[test]
fn reply_waits_for_both_acks_in_either_order() {
    // Append ack long after the checkpoint ack…
    let seen = run(&[(1, 5 * MS, true)], &[MS], TxnConfig::default());
    let sent = seen.delta_at[&1];
    assert!(
        just_after(seen.done[&1].0, sent + 5 * MS),
        "{seen:?}",
        seen = seen.done
    );
    // …and checkpoint ack long after the append ack.
    let seen = run(&[(1, MS, true)], &[5 * MS], TxnConfig::default());
    let sent = seen.ckpt_at[0];
    assert!(
        just_after(seen.done[&1].0, sent + 5 * MS),
        "{seen:?}",
        seen = seen.done
    );
}

/// Two inserts in flight, acks crossing: append acks arrive 1 then 2,
/// checkpoint acks arrive 2 then 1. Each reply waits for its OWN pair of
/// acks — insert 1 (appended at 1 ms) must not be released by insert 2's
/// checkpoint ack at 2 ms, nor insert 2 by insert 1's at 3 ms.
#[test]
fn acks_in_opposite_orders_release_only_their_own_insert() {
    let seen = run(
        &[(1, MS, true), (2, 4 * MS, false)],
        &[3 * MS, 2 * MS],
        TxnConfig::default(),
    );
    let (c1, c2) = (seen.ckpt_at[0], seen.ckpt_at[1]);
    let (d1, d2) = (seen.delta_at[&1], seen.delta_at[&2]);
    // The crossing really happened as scripted.
    assert!(d1 + MS < d2 + 4 * MS, "append acks: 1 then 2");
    assert!(c2 + 2 * MS < c1 + 3 * MS, "checkpoint acks: 2 then 1");
    assert!(
        d1 + MS < c2 + 2 * MS,
        "insert 1 appended before any ckpt ack"
    );
    let (done1, done2) = (seen.done[&1].0, seen.done[&2].0);
    assert!(
        just_after(done1, c1 + 3 * MS),
        "1: {done1} vs {}",
        c1 + 3 * MS
    );
    assert!(
        just_after(done2, d2 + 4 * MS),
        "2: {done2} vs {}",
        d2 + 4 * MS
    );
    // The append ack's durability verdict rides on each reply unchanged.
    assert!(seen.done[&1].1, "insert 1's ack proved it durable");
    assert!(!seen.done[&2].1, "insert 2's ack did not");
}

#[test]
fn without_checkpointing_the_append_ack_alone_releases_the_reply() {
    let cfg = TxnConfig {
        dp2_checkpoint: false,
        ..TxnConfig::default()
    };
    let seen = run(&[(1, MS, true)], &[], cfg);
    assert!(seen.ckpt_at.is_empty());
    assert!(just_after(seen.done[&1].0, seen.delta_at[&1] + MS));
}
