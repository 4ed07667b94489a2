//! TMF — the transaction monitor facility.
//!
//! "The log writer coordinates its I/O operations with the transaction
//! monitor, which keeps track of transactions as they enter and leave the
//! system... and ensures that the changes related to that transaction sent
//! to the log writer by the database writers are flushed to permanent
//! media before the transaction is committed. It also notates transaction
//! states (e.g., commit or abort) in the audit trail." (§1.2)
//!
//! The commit protocol — a commit's coordinator, and a participant of
//! another shard's cross-shard commit — is [`crate::twopc`]'s two pure
//! machines. This actor is their shell: it owns the pair, the CPU charge,
//! the sends, the stats and the checkpoint marks, and it splits a commit's
//! work by owning shard. Its sub-operations are re-sent until answered
//! through [`nsk::requests`].

use crate::audit::AuditRecord;
use crate::config::TxnConfig;
use crate::shard::ShardDirectory;
use crate::stats::SharedTxnStats;
use crate::twopc::{Answer, Coordinator, Out, Owner, Participant, ShardWork, SubKind};
use crate::types::*;
use bytes::BytesMut;
use nsk::machine::{CpuId, SharedMachine};
use nsk::pair::{Died, Inbound, Pair, Role};
use nsk::requests::{Requests, Retry};
use simcore::hash::FastMap;
use simcore::{Actor, Ctx, Msg, Sim, SimTime, Wait};
use simnet::{EndpointId, NetDelivery};
use std::sync::Arc;

/// Size of the commit/abort record in the master trail, bytes.
const COMMIT_RECORD_BYTES: u32 = 64;
/// The TMF appends a fuzzy `CheckpointMark` (listing in-flight txns) to
/// the master trail every this many commits — the recovery scan's
/// starting hint.
const CHECKPOINT_MARK_EVERY: u64 = 64;

/// A commit this TMF coordinates, and whom to answer.
struct Commit {
    coord: Coordinator,
    driver_ep: EndpointId,
    started_ns: u64,
}

/// The decision checkpoint. What it protects is the backup's `next_txn`
/// high-water mark: a promoted backup allocates past every id its primary
/// decided on, so ids are skipped, never reused. It leaves beside the
/// commit record, so it may reach the backup before the record is durable
/// (or for a commit whose record never becomes durable): that only skips
/// an id.
#[derive(Clone, Copy)]
struct TmfCkpt {
    committed_txn: TxnId,
}

pub struct TmfProc {
    /// The pair; a checkpoint's waiter is the token of the commit whose
    /// decision it carries.
    pair: Pair<u64>,
    cfg: TxnConfig,
    /// This TMF's shard id (encoded into allocated TxnIds).
    shard: u32,
    /// Cluster directory for cross-shard routing. A standalone node's has
    /// one shard, so everything there is local.
    directory: Arc<ShardDirectory>,
    /// ADPs holding the master audit trail (commit/abort records), one
    /// per audit partition: a transaction's commit record goes to
    /// `master_adps[txn.audit_partition(len)]` — the same mapping the
    /// DP2s use for deltas, so the whole txn lives on one trail. Empty
    /// skips master-trail I/O entirely.
    master_adps: Vec<String>,
    stats: SharedTxnStats,
    next_txn: u64,
    commits: FastMap<u64, Commit>, // token → commit
    next_token: u64,
    /// Participant role: transactions this shard holds prepared.
    prepared: FastMap<TxnId, Participant>,
    /// Sub-operations in flight, by token, each re-sent on its retry
    /// timer until answered; the fire-and-forget appends' tokens too.
    subs: Requests<(Owner, SubKind)>,
    /// The machines' outputs, carried out in order (kept for its buffer).
    outs: Vec<Out>,
    commits_since_mark: u64,
    /// Trail records are encoded here and copied out once, at their size.
    scratch: BytesMut,
}

impl TmfProc {
    /// The master-trail partition a transaction's records route to.
    fn master_for(&self, txn: TxnId) -> Option<&str> {
        if self.master_adps.is_empty() {
            return None;
        }
        Some(&self.master_adps[txn.audit_partition(self.master_adps.len())])
    }

    fn charge_cpu(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now().as_nanos();
        self.pair
            .machine
            .lock()
            .cpu_work(self.pair.cpu, now, self.cfg.commit_cpu_ns);
    }

    fn send_proc<M: 'static>(&self, ctx: &mut Ctx<'_>, to: &str, bytes: u32, msg: M) {
        nsk::proc::send_to_process(
            ctx,
            &self.pair.machine,
            self.pair.ep,
            self.pair.cpu,
            to,
            bytes,
            msg,
        );
    }

    fn send_net<M: 'static>(&self, ctx: &mut Ctx<'_>, to: EndpointId, bytes: u32, msg: M) {
        let net = self.pair.net.clone();
        simnet::send_net_msg(ctx, &net, self.pair.ep, to, bytes, msg);
    }

    /// Append `rec` to `txn`'s master-trail partition under `token`,
    /// padded to at least `min_virt` virtual bytes. No master trail, no
    /// append.
    fn append_record(
        &mut self,
        ctx: &mut Ctx<'_>,
        txn: TxnId,
        rec: &AuditRecord,
        min_virt: u32,
        token: u64,
    ) {
        if self.master_adps.is_empty() {
            return;
        }
        let records = rec.encode_in(&mut self.scratch);
        let virtual_len = (records.len() as u32).max(min_virt);
        let master = self.master_for(txn).expect("master adp");
        let msg = AuditAppend {
            records,
            virtual_len,
            token,
        };
        self.send_proc(ctx, master, virtual_len, msg);
    }

    /// Ask `adp` to make its trail durable through `upto`.
    fn send_flush(&self, ctx: &mut Ctx<'_>, adp: &str, upto: Lsn, sub: u64) {
        self.stats.lock().flush_reqs += 1;
        self.send_proc(ctx, adp, 24, FlushReq { upto, token: sub });
    }

    /// Fire-and-forget trail append (abort/outcome records): the token is
    /// never registered, so its `AppendDone` is ignored.
    fn orphan_append(&mut self, ctx: &mut Ctx<'_>, rec: &AuditRecord, txn: TxnId) {
        if self.master_adps.is_empty() {
            return;
        }
        let sub = self.subs.token();
        self.append_record(ctx, txn, rec, 0, sub);
    }

    /// Register sub-operation `kind` of `owner` under its retry timer, and
    /// send it.
    fn start_sub(&mut self, ctx: &mut Ctx<'_>, owner: Owner, kind: SubKind) {
        let sub = self.subs.token();
        self.subs
            .issue(sub, (owner, kind), |d, r| ctx.arm_timer(d, r));
        self.send_sub(ctx, sub);
    }

    /// Send sub-operation `sub` if it is still unanswered — the one place
    /// a sub-operation leaves the TMF, first issue and re-drive alike.
    fn send_sub(&mut self, ctx: &mut Ctx<'_>, sub: u64) {
        let Some(&(owner, ref kind)) = self.subs.get(sub) else {
            return;
        };
        let txn = owner.txn;
        match kind {
            SubKind::Flush { adp, upto } => self.send_flush(ctx, adp, *upto, sub),
            SubKind::Harden { flush: None } => {
                let rec = match owner.commit {
                    Some(_) => AuditRecord::Commit { txn },
                    None => AuditRecord::Prepared { txn },
                };
                self.append_record(ctx, txn, &rec, COMMIT_RECORD_BYTES, sub);
            }
            SubKind::Harden { flush: Some(upto) } => {
                if let Some(master) = self.master_for(txn) {
                    self.send_flush(ctx, master, *upto, sub);
                }
            }
            SubKind::Prepare {
                peer,
                work: (flush_points, involved_dp2),
            } => {
                let msg = PrepareTxn {
                    txn,
                    coord: self.pair.name.clone(),
                    flush_points: flush_points.clone(),
                    involved_dp2: involved_dp2.clone(),
                    token: sub,
                };
                self.send_proc(ctx, self.directory.tmf(*peer), 64, msg);
            }
            SubKind::Decision { peer } => {
                let msg = DecisionTxn {
                    txn,
                    committed: true,
                    token: sub,
                };
                self.send_proc(ctx, self.directory.tmf(*peer), 24, msg);
            }
        }
    }

    /// `answer` came back for sub-operation `sub`: retire it and hand the
    /// answer to its owner, if that is still here. An answer meant for a
    /// dead primary names a token of another incarnation: it finds nothing.
    fn answered(&mut self, ctx: &mut Ctx<'_>, sub: u64, answer: Answer) {
        let Some((owner, kind)) = self.subs.answer(sub, |t| ctx.disarm(t)) else {
            return;
        };
        let mut outs = std::mem::take(&mut self.outs);
        match owner.commit {
            Some(token) => {
                let backup = self.pair.has_backup();
                if let Some(c) = self.commits.get_mut(&token) {
                    c.coord.answered(&kind, answer, backup, &mut outs);
                }
            }
            None => {
                if let Some(p) = self.prepared.get_mut(&owner.txn) {
                    p.answered(&kind, answer, &mut outs);
                }
            }
        }
        self.run(ctx, owner, outs);
    }

    /// Commit `token`'s decision checkpoint is done with.
    fn ckpt_done(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(c) = self.commits.get_mut(&token) else {
            return;
        };
        let mut outs = std::mem::take(&mut self.outs);
        c.coord.ckpt_done(&mut outs);
        let txn = c.coord.txn();
        self.run(ctx, Owner::coordinator(token, txn), outs);
    }

    /// Carry out `owner`'s machine outputs, in order.
    fn run(&mut self, ctx: &mut Ctx<'_>, owner: Owner, mut outs: Vec<Out>) {
        // Only a coordinator's outputs name its commit token.
        let (txn, token) = (owner.txn, owner.commit.unwrap_or_default());
        for out in outs.drain(..) {
            match out {
                Out::Sub(kind) => self.start_sub(ctx, owner, kind),
                Out::Checkpoint => {
                    self.stats.lock().tmf_checkpoints += 1;
                    let wire = crate::config::CHECKPOINT_OVERHEAD_BYTES;
                    let ck = TmfCkpt { committed_txn: txn };
                    self.pair.send_checkpoint(ctx, Some(token), wire, ck);
                }
                Out::Externalize => self.externalize(ctx, token),
                Out::Vote => {
                    self.stats.lock().twopc_prepares += 1;
                    self.vote(ctx, txn);
                }
                Out::Record { committed } => {
                    let rec = if committed {
                        AuditRecord::Commit { txn }
                    } else {
                        AuditRecord::Abort { txn }
                    };
                    self.orphan_append(ctx, &rec, txn);
                }
                Out::Resolve { dp2, committed } => {
                    for dp2 in &dp2 {
                        self.send_proc(ctx, dp2, 24, TxnResolved { txn, committed });
                    }
                }
            }
        }
        self.outs = outs;
    }

    /// Append a fuzzy checkpoint mark to EVERY master-trail partition
    /// (async): the §3.4 recovery hint that bounds the tail a scan must
    /// examine — each trail gets its own mark so every per-partition scan
    /// is bounded independently.
    fn maybe_checkpoint_mark(&mut self, ctx: &mut Ctx<'_>) {
        if self.master_adps.is_empty() {
            return;
        }
        self.commits_since_mark += 1;
        if self.commits_since_mark < CHECKPOINT_MARK_EVERY {
            return;
        }
        self.commits_since_mark = 0;
        // Canonical order: `commits` is a hash map, and its iteration
        // order must never leak into durable bytes — identical runs have
        // to produce bit-identical trails (the determinism suite and the
        // DR site's byte-compare both depend on it). A fixed-key map's
        // order is reproducible, but it is an accident of the hasher.
        let mut active: Vec<TxnId> = self.commits.values().map(|c| c.coord.txn()).collect();
        active.sort_unstable();
        let records = AuditRecord::CheckpointMark {
            active_txns: active,
        }
        .encode_in(&mut self.scratch);
        let virt = records.len() as u32;
        for master in &self.master_adps {
            // Fire-and-forget orphan append (like abort records).
            let msg = AuditAppend {
                records: records.clone(),
                virtual_len: virt,
                token: self.subs.token(),
            };
            self.send_proc(ctx, master, virt, msg);
        }
    }

    /// Commit `token` is durable and its decision checkpointed: reply. It
    /// leaves `commits` here, before the mark that would list it.
    fn externalize(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let c = self.commits.remove(&token).expect("externalized commit");
        {
            let mut s = self.stats.lock();
            s.txns_committed += 1;
            if c.coord.cross_shard() {
                s.cross_shard_commits += 1;
            }
            s.flush_latency.record(ctx.now().as_nanos() - c.started_ns);
        }
        let txn = c.coord.txn();
        self.send_net(ctx, c.driver_ep, 32, TxnCommitted { txn });
        self.maybe_checkpoint_mark(ctx);
    }

    /// Participant: vote yes on `txn` to its coordinator.
    fn vote(&self, ctx: &mut Ctx<'_>, txn: TxnId) {
        let p = &self.prepared[&txn];
        let ack = PrepareAck {
            txn,
            token: p.coord_token,
        };
        self.send_proc(ctx, &p.coord, 24, ack);
    }

    fn begin(&mut self, ctx: &mut Ctx<'_>, driver_ep: EndpointId, token: u64) {
        self.charge_cpu(ctx);
        let txn = TxnId::compose(self.shard, self.next_txn);
        self.next_txn += 1;
        self.send_net(ctx, driver_ep, 24, TxnBegun { token, txn });
    }

    fn commit(&mut self, ctx: &mut Ctx<'_>, driver_ep: EndpointId, req: CommitTxn) {
        self.charge_cpu(ctx);
        let CommitTxn {
            txn,
            flush_points: mut local_flush,
            involved_dp2: mut local_dp2,
        } = req;
        // Split the commit's work by owning shard: what stays local stays
        // in the request's own vectors.
        let mut remote: FastMap<u32, ShardWork> = FastMap::default();
        let (dir, shard) = (&self.directory, self.shard);
        for (adp, lsn) in local_flush.extract_if(.., |(a, _)| dir.shard_of(a) != shard) {
            let work = remote.entry(dir.shard_of(&adp)).or_default();
            work.0.push((adp, lsn));
        }
        for dp2 in local_dp2.extract_if(.., |d| dir.shard_of(d) != shard) {
            remote.entry(dir.shard_of(&dp2)).or_default().1.push(dp2);
        }
        let token = self.next_token;
        self.next_token += 1;
        let (master_trail, backup) = (!self.master_adps.is_empty(), self.pair.has_backup());
        let mut outs = std::mem::take(&mut self.outs);
        let coord = Coordinator::new(
            txn,
            local_flush,
            local_dp2,
            remote,
            master_trail,
            backup,
            &mut outs,
        );
        let started_ns = ctx.now().as_nanos();
        let commit = Commit {
            coord,
            driver_ep,
            started_ns,
        };
        self.commits.insert(token, commit);
        self.run(ctx, Owner::coordinator(token, txn), outs);
    }

    /// Abort record to the txn's master-trail partition (async, no flush
    /// wait: aborts need not be durable before replying). Cross-shard
    /// aborts only happen before any prepare exists, so notifying the
    /// involved DP2s directly — names resolve cluster-wide — is
    /// sufficient; participant trails hold no prepared state to clean up.
    fn abort(&mut self, ctx: &mut Ctx<'_>, driver_ep: EndpointId, req: AbortTxn) {
        self.charge_cpu(ctx);
        let txn = req.txn;
        self.stats.lock().txns_aborted += 1;
        self.orphan_append(ctx, &AuditRecord::Abort { txn }, txn);
        let committed = false;
        for dp2 in &req.involved_dp2 {
            self.send_proc(ctx, dp2, 24, TxnResolved { txn, committed });
        }
        self.send_net(ctx, driver_ep, 24, TxnAborted { txn });
    }

    /// Participant: a coordinator asks this shard to prepare `req.txn` —
    /// or asks again, and is answered at once if the vote is in.
    fn prepare(&mut self, ctx: &mut Ctx<'_>, req: PrepareTxn) {
        self.charge_cpu(ctx);
        let txn = req.txn;
        if let Some(p) = self.prepared.get_mut(&txn) {
            if p.again(req.coord, req.token) {
                self.vote(ctx, txn);
            }
            return;
        }
        let mut outs = std::mem::take(&mut self.outs);
        let master_trail = !self.master_adps.is_empty();
        let p = Participant::new(
            req.coord,
            req.token,
            req.flush_points,
            req.involved_dp2,
            master_trail,
            &mut outs,
        );
        self.prepared.insert(txn, p);
        self.run(ctx, Owner::participant(txn), outs);
    }

    /// Participant: the decision arrived. Acked even when it is a
    /// duplicate (the first ack was lost).
    fn decision(&mut self, ctx: &mut Ctx<'_>, coord_ep: EndpointId, d: DecisionTxn) {
        self.charge_cpu(ctx);
        if let Some(p) = self.prepared.remove(&d.txn) {
            self.stats.lock().twopc_decisions += 1;
            let mut outs = std::mem::take(&mut self.outs);
            p.decided(d.committed, &mut outs);
            self.run(ctx, Owner::participant(d.txn), outs);
        }
        self.send_net(ctx, coord_ep, 16, DecisionAck { token: d.token });
    }
}

impl Actor for TmfProc {
    fn name(&self) -> &str {
        &self.pair.name
    }

    /// Each sub-operation in flight, on the ADP or peer TMF that owes its
    /// answer, and each decision checkpoint on the backup's ack; a
    /// coordinator's since its commit arrived.
    fn waits(&self, out: &mut Vec<Wait>) {
        if !self.pair.is_primary() {
            return;
        }
        let commit = |token: &u64| self.commits.get(token);
        for (_, (owner, kind)) in self.subs.live() {
            let (what, on) = match kind {
                SubKind::Flush { adp, .. } => ("flush", adp.as_str()),
                SubKind::Harden { .. } => ("harden", self.master_for(owner.txn).unwrap_or("")),
                SubKind::Prepare { peer, .. } => ("prepare", self.directory.tmf(*peer)),
                SubKind::Decision { peer } => ("decision ack", self.directory.tmf(*peer)),
            };
            let since = owner.commit.as_ref().and_then(commit);
            out.push(Wait {
                what,
                on: on.to_string(),
                id: owner.txn.0,
                since: since.map(|c| SimTime(c.started_ns)),
            });
        }
        let txn = |token: &u64| commit(token).map_or(*token, |c| c.coord.txn().0);
        self.pair.checkpoint_waits(txn, out);
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<simcore::actor::Start>() {
            self.pair.watch(ctx);
            return;
        }

        // Re-drive a sub-operation that got no answer (e.g. its ADP failed
        // over and the new primary never saw it, or a peer TMF's reply was
        // lost to a takeover).
        let msg = match msg.take::<Retry>() {
            Ok((_, r)) => {
                if self.subs.get(r.token).is_some() {
                    self.send_sub(ctx, r.token);
                    self.subs.rearm(r, |d, r| ctx.arm_timer(d, r));
                }
                return;
            }
            Err(m) => m,
        };

        let msg = match self.pair.take_died(msg) {
            Ok(Died::BackupLost(tokens)) => {
                for token in tokens {
                    self.ckpt_done(ctx, token);
                }
                return;
            }
            Ok(Died::Promote | Died::Ignore) => return,
            Err(m) => m,
        };

        let Ok((_, delivery)) = msg.take::<NetDelivery>() else {
            return;
        };
        let NetDelivery { from_ep, payload } = delivery;
        let payload = match self.pair.recv(ctx, from_ep, payload) {
            // Backup: track the committed-txn high-water mark.
            Inbound::Checkpoint(ck) => {
                if let Ok(st) = ck.downcast::<TmfCkpt>() {
                    self.next_txn = self.next_txn.max(st.committed_txn.sequence() + 1);
                }
                return;
            }
            Inbound::Released(token) => return self.ckpt_done(ctx, token),
            Inbound::Acked => return,
            Inbound::Other(p) => p,
        };
        if !self.pair.is_primary() {
            return;
        }
        // Requests cost the TMF's CPU; answers to its sub-operations do not.
        let payload = match payload.downcast::<BeginTxn>() {
            Ok(req) => return self.begin(ctx, from_ep, req.token),
            Err(p) => p,
        };
        let payload = match payload.downcast::<CommitTxn>() {
            Ok(req) => return self.commit(ctx, from_ep, *req),
            Err(p) => p,
        };
        let payload = match payload.downcast::<AbortTxn>() {
            Ok(req) => return self.abort(ctx, from_ep, *req),
            Err(p) => p,
        };
        let payload = match payload.downcast::<PrepareTxn>() {
            Ok(req) => return self.prepare(ctx, *req),
            Err(p) => p,
        };
        let payload = match payload.downcast::<DecisionTxn>() {
            Ok(d) => return self.decision(ctx, from_ep, *d),
            Err(p) => p,
        };
        let answer = if let Some(ack) = payload.downcast_ref::<PrepareAck>() {
            (ack.token, Answer::Voted)
        } else if let Some(ack) = payload.downcast_ref::<DecisionAck>() {
            (ack.token, Answer::DecisionAcked)
        } else if let Some(done) = payload.downcast_ref::<AppendDone>() {
            let covers = done.is_durable();
            let end = done.lsn_end;
            (done.token, Answer::Appended { covers, end })
        } else if let Some(done) = payload.downcast_ref::<FlushDone>() {
            (done.token, Answer::Flushed)
        } else {
            return;
        };
        self.answered(ctx, answer.0, answer.1);
    }
}

/// Install the TMF pair. `master_adps` names the ADPs that harden commit
/// records, one per audit partition — records route by transaction hash;
/// a single entry routes everything there; empty skips master-trail I/O.
/// `shard`/`directory` place this TMF in a cluster; a standalone node is
/// shard 0 of a one-TMF directory (unregistered names resolve to shard 0,
/// so every commit stays on the fast path).
#[allow(clippy::too_many_arguments)]
pub fn install_tmf(
    sim: &mut Sim,
    machine: &SharedMachine,
    name: &str,
    cpu: CpuId,
    backup_cpu: Option<CpuId>,
    master_adps: Vec<String>,
    shard: u32,
    directory: Arc<ShardDirectory>,
    cfg: TxnConfig,
    stats: SharedTxnStats,
) {
    let mk = |role: Role, on_cpu: CpuId| {
        let cfg2 = cfg.clone();
        let stats2 = stats.clone();
        let master2 = master_adps.clone();
        let dir2 = directory.clone();
        move |ep: EndpointId| -> Box<dyn Actor> {
            Box::new(TmfProc {
                pair: Pair::new(role, name, machine, ep, on_cpu),
                cfg: cfg2,
                shard,
                directory: dir2,
                master_adps: master2,
                stats: stats2,
                next_txn: 1,
                commits: FastMap::default(),
                next_token: 0,
                prepared: FastMap::default(),
                subs: Requests::new(role, crate::config::SUB_RETRY),
                outs: Vec::new(),
                commits_since_mark: 0,
                scratch: BytesMut::new(),
            })
        }
    };
    nsk::machine::install_primary(sim, machine, name, cpu, mk(Role::Primary, cpu));
    if let Some(bcpu) = backup_cpu {
        nsk::machine::install_backup(sim, machine, name, bcpu, mk(Role::Backup, bcpu));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A participant votes by name, so a vote meant for a dead coordinator
    /// reaches its promoted backup, whose first sub-operation is a prepare
    /// too: the vote names the dead primary's token 0, of another
    /// incarnation than the backup's first token.
    #[test]
    fn a_vote_meant_for_a_dead_primary_retires_nothing_at_its_backup() {
        let mut subs = Requests::<_, ()>::new(Role::Backup, crate::config::SUB_RETRY);
        let (token, txn) = (subs.token(), TxnId::compose(0, 9));
        let work = Default::default();
        let prepare = SubKind::Prepare { peer: 1, work };
        subs.issue(token, (Owner::coordinator(0, txn), prepare), |_, _| ());
        let stale = subs.answer(0, |()| ());
        assert!(stale.is_none(), "a stale vote retired a prepare");
        assert!(subs.answer(token, |()| ()).is_some());
    }
}
