//! TMF — the transaction monitor facility.
//!
//! "The log writer coordinates its I/O operations with the transaction
//! monitor, which keeps track of transactions as they enter and leave the
//! system... and ensures that the changes related to that transaction sent
//! to the log writer by the database writers are flushed to permanent
//! media before the transaction is committed. It also notates transaction
//! states (e.g., commit or abort) in the audit trail." (§1.2)
//!
//! Single-shard commit pipeline (the fast path — unchanged from the
//! single-node system):
//!
//! 1. flush every involved data trail through the transaction's high LSN
//!    there (parallel `FlushReq` fan-out) — for the flush points the
//!    commit still carries: an insert whose append ack already proved its
//!    delta durable left none;
//! 2. append and checkpoint together: the event that makes the decision
//!    sends the commit record to the *master* trail and the decision
//!    checkpoint to the TMF backup (record first: it is the longer leg,
//!    and both share the TMF's transmit port — DP2's rule for its delta
//!    and its checkpoint). The record is flushed only if the append ack
//!    does not already cover it — the paper's "completion time of at
//!    least one – and typically more than one – disk I/O... included in
//!    the response time of every transaction" (§2), and its PM answer
//!    "the database log is persistent immediately" (§4.2);
//! 3. externalize once both legs are done — the record durable, the
//!    checkpoint acknowledged or released by a lost backup, in either
//!    order (`CommitJoin`): reply to the driver, notify DP2s to release
//!    locks.
//!
//! The rule is the same at every append: *append; flush only if the ack
//! does not already cover it*. It is decided from the ack's own
//! `durable_upto` ([`AppendDone::is_durable`]), never from the backend's
//! name: a skipped `FlushReq` would have been answered at once from the
//! watermark the ack was released from. `FlushReq`/`FlushDone` and the
//! flush phases remain because the buffered disk trail needs them.
//!
//! Cross-shard commits run presumed-abort two-phase commit on top of the
//! same machinery. The coordinator (the txn's home TMF) splits the
//! commit's flush points by owning shard: local ones flush as above while
//! [`PrepareTxn`] goes to each participant shard's TMF, which flushes its
//! data trails, hardens a `Prepared` record on its own master trail (a
//! participant with no flush points left still does), and answers
//! [`PrepareAck`]. Only when every local flush AND every prepare ack is in
//! does the coordinator harden its commit record — that record becoming
//! durable is the cluster-wide commit point. Decisions then fan out as
//! [`DecisionTxn`] (retried until [`DecisionAck`]); participants log a
//! local outcome record, resolve their DP2s and forget the prepared
//! state. Recovery resolves a `Prepared`-but-undecided participant by
//! consulting the coordinator shard's trail: commit iff the decision
//! record is there, else presumed abort (see `recovery::redo_scan_sharded`).

use crate::audit::AuditRecord;
use crate::config::TxnConfig;
use crate::shard::ShardDirectory;
use crate::stats::SharedTxnStats;
use crate::types::*;
use bytes::BytesMut;
use nsk::machine::{CpuId, SharedMachine};
use nsk::pair::{Died, Inbound, Pair, Role};
use simcore::hash::FastMap;
use simcore::{Actor, Ctx, Msg, Sim, TimerId};
use simnet::{EndpointId, NetDelivery};
use std::sync::Arc;

/// Size of the commit/abort record in the master trail, bytes.
const COMMIT_RECORD_BYTES: u32 = 64;
/// The TMF appends a fuzzy `CheckpointMark` (listing in-flight txns) to
/// the master trail every this many commits — the recovery scan's
/// starting hint.
const CHECKPOINT_MARK_EVERY: u64 = 64;

/// Per-participant-shard slice of a commit: the (ADP, LSN) flush points
/// and DP2 names whose data that shard must harden before it prepares.
type ShardWork = (Vec<(String, Lsn)>, Vec<String>);

/// What an outstanding sub-operation is, for retry across ADP takeovers
/// (a takeover loses the old primary's buffered waiters, so the TMF
/// re-drives; duplicate commit records in the trail are harmless).
enum SubKind {
    DataFlush {
        adp: String,
        upto: Lsn,
    },
    MasterAppend {
        txn: TxnId,
    },
    /// `txn` keeps the flush routed to the same master-trail partition
    /// its commit record was appended to.
    MasterFlush {
        txn: TxnId,
        upto: Lsn,
    },
    /// Coordinator → participant prepare, retried until `PrepareAck`
    /// (idempotent at the participant).
    Prepare {
        peer: u32,
        txn: TxnId,
        flush_points: Vec<(String, Lsn)>,
        involved_dp2: Vec<String>,
    },
    /// Coordinator → participant decision, retried until `DecisionAck`.
    Decision {
        peer: u32,
        txn: TxnId,
        committed: bool,
    },
    /// Participant-side data-trail flush for a prepare.
    PrepDataFlush {
        txn: TxnId,
        adp: String,
        upto: Lsn,
    },
    /// Participant-side `Prepared` record append.
    PrepAppend {
        txn: TxnId,
    },
    /// Participant-side `Prepared` record flush.
    PrepFlush {
        txn: TxnId,
        upto: Lsn,
    },
}

/// Retry timer for a sub-operation, disarmed when its token retires.
/// `attempt` counts the retries already fired, driving the capped
/// exponential backoff.
struct SubRetry {
    sub: u64,
    attempt: u32,
}

enum CommitPhase {
    /// Waiting for local data-trail flush acks and participant prepare
    /// acks (both counts must reach zero).
    Phase1 { flushes: u32, prepares: u32 },
    /// Decided: the commit record and the decision checkpoint are out.
    Decided(CommitJoin),
}

/// A decided commit's two legs, joined (DP2's `PendingInsert` shape):
/// the commit is externalized once its record is durable and its decision
/// checkpoint is done with, in whichever order the two land.
#[derive(Clone, Copy)]
struct CommitJoin {
    /// The commit record is durable: its append ack covered it, or the
    /// `MasterFlush` behind that ack came back. Without a master trail
    /// there is no record to wait for.
    durable: bool,
    /// The decision checkpoint is at the backup, not yet acknowledged.
    awaiting_ckpt: bool,
}

/// One leg of a decided commit.
enum Leg {
    /// The commit record is durable.
    Record,
    /// The decision checkpoint was acknowledged — or never will be: a
    /// lost backup released it. This clears the checkpoint leg only; the
    /// record may still be on its way to durability.
    Ckpt,
}

impl CommitJoin {
    /// The decision is made: a record leg only with a master trail, a
    /// checkpoint leg only with a backup.
    fn new(master_trail: bool, backup: bool) -> Self {
        CommitJoin {
            durable: !master_trail,
            awaiting_ckpt: backup,
        }
    }

    fn done(&self) -> bool {
        self.durable && !self.awaiting_ckpt
    }

    /// `leg` is done: whether the commit can be externalized now.
    fn finish(&mut self, leg: Leg) -> bool {
        match leg {
            Leg::Record => self.durable = true,
            Leg::Ckpt => self.awaiting_ckpt = false,
        }
        self.done()
    }
}

/// Finish `leg` of commit `token`: its state, taken out of `commits`, once
/// both legs are done. Taking it out is what makes a commit externalize
/// exactly once — a duplicate or late leg finds nothing.
fn finish_leg(
    commits: &mut FastMap<u64, CommitState>,
    token: u64,
    leg: Leg,
) -> Option<CommitState> {
    let CommitPhase::Decided(join) = &mut commits.get_mut(&token)?.phase else {
        return None;
    };
    if join.finish(leg) {
        commits.remove(&token)
    } else {
        None
    }
}

struct CommitState {
    txn: TxnId,
    driver_ep: EndpointId,
    /// This shard's DP2s only; remote DP2s resolve via their shard's TMF.
    involved_dp2: Vec<String>,
    /// Participant shards (empty = single-shard fast path).
    participants: Vec<u32>,
    phase: CommitPhase,
    started_ns: u64,
}

/// Participant-side state for a transaction this shard prepared (or is
/// preparing). Lives until the coordinator's decision arrives.
struct PrepState {
    coord: String,
    /// Coordinator's sub-operation token, echoed in `PrepareAck`.
    coord_token: u64,
    involved_dp2: Vec<String>,
    /// Local data-trail flushes still outstanding.
    flushes_left: u32,
    /// `Prepared` record appended (guards re-append on late flush acks).
    appended: bool,
    /// `Prepared` record flushed: this shard is now in-doubt.
    durable: bool,
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
    commits: FastMap<u64, CommitState>, // token → state
    next_token: u64,
    /// flush/append tokens → (commit token, what it was, for retry, the
    /// [`SubRetry`] standing over it).
    subop: FastMap<u64, (u64, SubKind, TimerId)>,
    next_subop: u64,
    /// Participant role: transactions this shard holds in prepared state.
    prepared: FastMap<TxnId, PrepState>,
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

    fn sub_token(&mut self, ctx: &mut Ctx<'_>, commit_token: u64, kind: SubKind) -> u64 {
        let t = self.next_subop;
        self.next_subop += 1;
        let retry = ctx.arm_timer(
            crate::config::sub_retry_delay(0),
            SubRetry { sub: t, attempt: 0 },
        );
        self.subop.insert(t, (commit_token, kind, retry));
        t
    }

    /// A sub-operation was answered: its token and its retry timer go.
    fn retire_sub(&mut self, ctx: &mut Ctx<'_>, sub: u64) -> Option<(u64, SubKind)> {
        let (commit_token, kind, retry) = self.subop.remove(&sub)?;
        ctx.disarm(retry);
        Some((commit_token, kind))
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

    /// Ask `adp` to make its trail durable through `upto` — the one place
    /// a `FlushReq` leaves the TMF, first issue and re-drive alike.
    fn send_flush(&self, ctx: &mut Ctx<'_>, adp: &str, upto: Lsn, sub: u64) {
        self.stats.lock().flush_reqs += 1;
        self.send_proc(ctx, adp, 24, FlushReq { upto, token: sub });
    }

    /// Fire-and-forget trail append (abort/outcome records, marks): the
    /// token is never registered, so its `AppendDone` is ignored.
    fn orphan_append(&mut self, ctx: &mut Ctx<'_>, rec: &AuditRecord, txn: TxnId) {
        if self.master_adps.is_empty() {
            return;
        }
        let sub = self.next_subop;
        self.next_subop += 1;
        self.append_record(ctx, txn, rec, 0, sub);
    }

    /// Register sub-operation `kind` of commit `commit_token` and send
    /// it.
    fn start_sub(&mut self, ctx: &mut Ctx<'_>, commit_token: u64, kind: SubKind) {
        let sub = self.sub_token(ctx, commit_token, kind);
        self.send_sub(ctx, sub);
    }

    /// Send sub-operation `sub` as it is registered — the one place a
    /// sub-operation leaves the TMF, first issue and re-drive alike.
    fn send_sub(&mut self, ctx: &mut Ctx<'_>, sub: u64) {
        let Some((_, kind, _)) = self.subop.get(&sub) else {
            return;
        };
        match kind {
            SubKind::DataFlush { adp, upto } | SubKind::PrepDataFlush { adp, upto, .. } => {
                self.send_flush(ctx, adp, *upto, sub);
            }
            SubKind::MasterAppend { txn } => {
                let txn = *txn;
                let rec = AuditRecord::Commit { txn };
                self.append_record(ctx, txn, &rec, COMMIT_RECORD_BYTES, sub);
            }
            SubKind::PrepAppend { txn } => {
                let txn = *txn;
                let rec = AuditRecord::Prepared { txn };
                self.append_record(ctx, txn, &rec, COMMIT_RECORD_BYTES, sub);
            }
            SubKind::MasterFlush { txn, upto } | SubKind::PrepFlush { txn, upto } => {
                if let Some(master) = self.master_for(*txn) {
                    self.send_flush(ctx, master, *upto, sub);
                }
            }
            SubKind::Prepare {
                peer,
                txn,
                flush_points,
                involved_dp2,
            } => {
                let msg = PrepareTxn {
                    txn: *txn,
                    coord: self.pair.name.clone(),
                    flush_points: flush_points.clone(),
                    involved_dp2: involved_dp2.clone(),
                    token: sub,
                };
                self.send_proc(ctx, self.directory.tmf(*peer), 64, msg);
            }
            SubKind::Decision {
                peer,
                txn,
                committed,
            } => {
                let msg = DecisionTxn {
                    txn: *txn,
                    committed: *committed,
                    token: sub,
                };
                self.send_proc(ctx, self.directory.tmf(*peer), 24, msg);
            }
        }
    }

    /// Re-drive a sub-operation that got no answer (e.g. its ADP failed
    /// over and the new primary never saw it, or a peer TMF's reply was
    /// lost to a takeover).
    fn reissue(&mut self, ctx: &mut Ctx<'_>, sub: u64, attempt: u32) {
        if !self.subop.contains_key(&sub) {
            return;
        }
        self.send_sub(ctx, sub);
        let next = attempt + 1;
        let retry = ctx.arm_timer(
            crate::config::sub_retry_delay(next),
            SubRetry { sub, attempt: next },
        );
        if let Some(entry) = self.subop.get_mut(&sub) {
            entry.2 = retry;
        }
    }

    /// A phase-1 local data flush completed.
    fn phase1_flush_done(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some(state) = self.commits.get_mut(&token) {
            if let CommitPhase::Phase1 { flushes, .. } = &mut state.phase {
                *flushes = flushes.saturating_sub(1);
            }
        }
        self.maybe_advance_phase1(ctx, token);
    }

    /// A participant's prepare ack arrived.
    fn phase1_prepare_done(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if let Some(state) = self.commits.get_mut(&token) {
            if let CommitPhase::Phase1 { prepares, .. } = &mut state.phase {
                *prepares = prepares.saturating_sub(1);
            }
        }
        self.maybe_advance_phase1(ctx, token);
    }

    /// When every local flush and every prepare ack is in, the commit is
    /// decided: harden its record on the txn's master-trail partition —
    /// that record becoming durable is the cluster-wide commit point — and
    /// checkpoint the decision to the backup, both in this event.
    fn maybe_advance_phase1(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(state) = self.commits.get_mut(&token) else {
            return;
        };
        match state.phase {
            CommitPhase::Phase1 {
                flushes: 0,
                prepares: 0,
            } => {}
            _ => return,
        }
        let txn = state.txn;
        let master_trail = !self.master_adps.is_empty();
        let backup = self.pair.has_backup();
        let join = CommitJoin::new(master_trail, backup);
        state.phase = CommitPhase::Decided(join);
        // Record first: the longer leg, and both share the transmit port.
        if master_trail {
            self.start_sub(ctx, token, SubKind::MasterAppend { txn });
        }
        if backup {
            self.stats.lock().tmf_checkpoints += 1;
            let wire = crate::config::CHECKPOINT_OVERHEAD_BYTES;
            let ck = TmfCkpt { committed_txn: txn };
            self.pair.send_checkpoint(ctx, Some(token), wire, ck);
        }
        if join.done() {
            let state = self.commits.remove(&token).expect("decided commit");
            self.externalize(ctx, token, state);
        }
    }

    /// Leg `leg` of commit `token` is done; externalize once both are.
    fn leg_done(&mut self, ctx: &mut Ctx<'_>, token: u64, leg: Leg) {
        if let Some(state) = finish_leg(&mut self.commits, token, leg) {
            self.externalize(ctx, token, state);
        }
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
        let mut active: Vec<TxnId> = self.commits.values().map(|c| c.txn).collect();
        active.sort_unstable();
        let records = AuditRecord::CheckpointMark {
            active_txns: active,
        }
        .encode_in(&mut self.scratch);
        let virt = records.len() as u32;
        for master in &self.master_adps {
            // Fire-and-forget orphan append (like abort records).
            let sub = self.next_subop;
            self.next_subop += 1;
            let msg = AuditAppend {
                records: records.clone(),
                virtual_len: virt,
                token: sub,
            };
            self.send_proc(ctx, master, virt, msg);
        }
    }

    /// Commit `token` is durable and its decision checkpointed: reply, and
    /// resolve it everywhere else. `state` is already out of `commits`.
    fn externalize(&mut self, ctx: &mut Ctx<'_>, token: u64, state: CommitState) {
        let net = self.pair.net.clone();
        {
            let mut s = self.stats.lock();
            s.txns_committed += 1;
            if !state.participants.is_empty() {
                s.cross_shard_commits += 1;
            }
            s.flush_latency
                .record(ctx.now().as_nanos() - state.started_ns);
        }
        simnet::send_net_msg(
            ctx,
            &net,
            self.pair.ep,
            state.driver_ep,
            32,
            TxnCommitted { txn: state.txn },
        );
        self.maybe_checkpoint_mark(ctx);
        // Decision fan-out to participant shards (retried until acked;
        // off the response path — the decision record is already durable).
        for &peer in &state.participants {
            let kind = SubKind::Decision {
                peer,
                txn: state.txn,
                committed: true,
            };
            self.start_sub(ctx, token, kind);
        }
        // Post-commit lock release at every locally-involved DP2 (off the
        // response path).
        for dp2 in &state.involved_dp2 {
            self.send_proc(
                ctx,
                dp2,
                24,
                TxnResolved {
                    txn: state.txn,
                    committed: true,
                },
            );
        }
    }

    // --- participant (prepare) side -----------------------------------

    /// All local data flushes for a prepare are in: harden the `Prepared`
    /// record on this shard's master trail.
    fn prep_append(&mut self, ctx: &mut Ctx<'_>, txn: TxnId) {
        let Some(st) = self.prepared.get_mut(&txn) else {
            return;
        };
        if st.appended {
            return;
        }
        st.appended = true;
        if self.master_adps.is_empty() {
            // No master trail to prepare on (degenerate config): the
            // shard holds no in-doubt state, ack immediately.
            self.prep_durable(ctx, txn);
            return;
        }
        self.start_sub(ctx, 0, SubKind::PrepAppend { txn });
    }

    /// The `Prepared` record is durable: this shard is in-doubt; vote yes.
    fn prep_durable(&mut self, ctx: &mut Ctx<'_>, txn: TxnId) {
        let Some(st) = self.prepared.get_mut(&txn) else {
            return;
        };
        st.durable = true;
        self.stats.lock().twopc_prepares += 1;
        let token = st.coord_token;
        let st = &self.prepared[&txn];
        self.send_proc(ctx, &st.coord, 24, PrepareAck { txn, token });
    }
}

impl Actor for TmfProc {
    fn name(&self) -> &str {
        &self.pair.name
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<simcore::actor::Start>() {
            self.pair.watch(ctx);
            return;
        }

        let msg = match msg.take::<SubRetry>() {
            Ok((_, r)) => {
                if self.pair.is_primary() {
                    self.reissue(ctx, r.sub, r.attempt);
                }
                return;
            }
            Err(m) => m,
        };

        let msg = match self.pair.take_died(msg) {
            Ok(Died::BackupLost(tokens)) => {
                for token in tokens {
                    self.leg_done(ctx, token, Leg::Ckpt);
                }
                return;
            }
            Ok(Died::Promote | Died::Ignore) => return,
            Err(m) => m,
        };

        if let Ok((_, delivery)) = msg.take::<NetDelivery>() {
            let NetDelivery { from_ep, payload } = delivery;

            let payload = match self.pair.recv(ctx, from_ep, payload) {
                // Backup: track the committed-txn high-water mark.
                Inbound::Checkpoint(ck) => {
                    if let Ok(st) = ck.downcast::<TmfCkpt>() {
                        self.next_txn = self.next_txn.max(st.committed_txn.sequence() + 1);
                    }
                    return;
                }
                Inbound::Released(token) => {
                    self.leg_done(ctx, token, Leg::Ckpt);
                    return;
                }
                Inbound::Acked => return,
                Inbound::Other(p) => p,
            };

            if !self.pair.is_primary() {
                return;
            }

            let payload = match payload.downcast::<BeginTxn>() {
                Ok(req) => {
                    self.charge_cpu(ctx);
                    let txn = TxnId::compose(self.shard, self.next_txn);
                    self.next_txn += 1;
                    let net = self.pair.net.clone();
                    simnet::send_net_msg(
                        ctx,
                        &net,
                        self.pair.ep,
                        from_ep,
                        24,
                        TxnBegun {
                            token: req.token,
                            txn,
                        },
                    );
                    return;
                }
                Err(p) => p,
            };

            let payload = match payload.downcast::<CommitTxn>() {
                Ok(req) => {
                    self.charge_cpu(ctx);
                    let CommitTxn {
                        txn,
                        flush_points: mut local_flush,
                        involved_dp2: mut local_dp2,
                    } = *req;
                    // Split the commit's work by owning shard: what stays
                    // local stays in the request's own vectors.
                    let mut remote: FastMap<u32, ShardWork> = FastMap::default();
                    let (dir, shard) = (&self.directory, self.shard);
                    for (adp, lsn) in local_flush.extract_if(.., |(a, _)| dir.shard_of(a) != shard)
                    {
                        remote
                            .entry(dir.shard_of(&adp))
                            .or_default()
                            .0
                            .push((adp, lsn));
                    }
                    for dp2 in local_dp2.extract_if(.., |d| dir.shard_of(d) != shard) {
                        remote.entry(dir.shard_of(&dp2)).or_default().1.push(dp2);
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    let mut participants: Vec<u32> = remote.keys().copied().collect();
                    participants.sort_unstable();
                    let state = CommitState {
                        txn,
                        driver_ep: from_ep,
                        involved_dp2: local_dp2,
                        participants: participants.clone(),
                        phase: CommitPhase::Phase1 {
                            flushes: local_flush.len() as u32,
                            prepares: participants.len() as u32,
                        },
                        started_ns: ctx.now().as_nanos(),
                    };
                    self.commits.insert(token, state);
                    for (adp, upto) in local_flush {
                        self.start_sub(ctx, token, SubKind::DataFlush { adp, upto });
                    }
                    for peer in participants {
                        let (flush_points, involved_dp2) = remote.remove(&peer).unwrap_or_default();
                        let kind = SubKind::Prepare {
                            peer,
                            txn,
                            flush_points,
                            involved_dp2,
                        };
                        self.start_sub(ctx, token, kind);
                    }
                    // Read-only (nothing to flush anywhere): advances
                    // straight through phase 1.
                    self.maybe_advance_phase1(ctx, token);
                    return;
                }
                Err(p) => p,
            };

            let payload = match payload.downcast::<AbortTxn>() {
                Ok(req) => {
                    self.charge_cpu(ctx);
                    let req = *req;
                    self.stats.lock().txns_aborted += 1;
                    // Abort record to the txn's master-trail partition
                    // (async, no flush wait: aborts need not be durable
                    // before replying). Cross-shard aborts only happen
                    // before any prepare exists, so notifying the
                    // involved DP2s directly — names resolve cluster-wide
                    // — is sufficient; participant trails hold no
                    // prepared state to clean up.
                    self.orphan_append(ctx, &AuditRecord::Abort { txn: req.txn }, req.txn);
                    for dp2 in &req.involved_dp2 {
                        self.send_proc(
                            ctx,
                            dp2,
                            24,
                            TxnResolved {
                                txn: req.txn,
                                committed: false,
                            },
                        );
                    }
                    let net = self.pair.net.clone();
                    simnet::send_net_msg(
                        ctx,
                        &net,
                        self.pair.ep,
                        from_ep,
                        24,
                        TxnAborted { txn: req.txn },
                    );
                    return;
                }
                Err(p) => p,
            };

            // --- participant: prepare request from a coordinator ---
            let payload = match payload.downcast::<PrepareTxn>() {
                Ok(req) => {
                    self.charge_cpu(ctx);
                    let req = *req;
                    if let Some(st) = self.prepared.get_mut(&req.txn) {
                        // Coordinator retry: refresh the ack token; re-ack
                        // immediately if already durable.
                        st.coord = req.coord;
                        st.coord_token = req.token;
                        if st.durable {
                            let ack = PrepareAck {
                                txn: req.txn,
                                token: req.token,
                            };
                            let st = &self.prepared[&req.txn];
                            self.send_proc(ctx, &st.coord, 24, ack);
                        }
                        return;
                    }
                    self.prepared.insert(
                        req.txn,
                        PrepState {
                            coord: req.coord,
                            coord_token: req.token,
                            involved_dp2: req.involved_dp2,
                            flushes_left: req.flush_points.len() as u32,
                            appended: false,
                            durable: false,
                        },
                    );
                    if req.flush_points.is_empty() {
                        self.prep_append(ctx, req.txn);
                    } else {
                        for (adp, upto) in req.flush_points {
                            let kind = SubKind::PrepDataFlush {
                                txn: req.txn,
                                adp,
                                upto,
                            };
                            self.start_sub(ctx, 0, kind);
                        }
                    }
                    return;
                }
                Err(p) => p,
            };

            // --- coordinator: a participant voted yes ---
            let payload = match payload.downcast::<PrepareAck>() {
                Ok(ack) => {
                    // (Tokens are unique: an ack naming any other kind of
                    // sub-operation is not ours to retire.)
                    let prepare = matches!(
                        self.subop.get(&ack.token),
                        Some((_, SubKind::Prepare { .. }, _))
                    );
                    if prepare {
                        if let Some((token, _)) = self.retire_sub(ctx, ack.token) {
                            self.phase1_prepare_done(ctx, token);
                        }
                    }
                    return;
                }
                Err(p) => p,
            };

            // --- participant: the decision arrived ---
            let payload = match payload.downcast::<DecisionTxn>() {
                Ok(d) => {
                    self.charge_cpu(ctx);
                    let d = *d;
                    if let Some(st) = self.prepared.remove(&d.txn) {
                        self.stats.lock().twopc_decisions += 1;
                        // Local outcome record: recovery on this shard
                        // resolves the txn without consulting the
                        // coordinator once this lands.
                        let rec = if d.committed {
                            AuditRecord::Commit { txn: d.txn }
                        } else {
                            AuditRecord::Abort { txn: d.txn }
                        };
                        self.orphan_append(ctx, &rec, d.txn);
                        for dp2 in &st.involved_dp2 {
                            self.send_proc(
                                ctx,
                                dp2,
                                24,
                                TxnResolved {
                                    txn: d.txn,
                                    committed: d.committed,
                                },
                            );
                        }
                    }
                    // Ack even for duplicates (the first ack was lost).
                    let net = self.pair.net.clone();
                    simnet::send_net_msg(
                        ctx,
                        &net,
                        self.pair.ep,
                        from_ep,
                        16,
                        DecisionAck { token: d.token },
                    );
                    return;
                }
                Err(p) => p,
            };

            // --- coordinator: decision delivered, stop retrying ---
            let payload = match payload.downcast::<DecisionAck>() {
                Ok(ack) => {
                    self.retire_sub(ctx, ack.token);
                    return;
                }
                Err(p) => p,
            };

            let payload = match payload.downcast::<AppendDone>() {
                Ok(done) => {
                    let Some((token, kind)) = self.retire_sub(ctx, done.token) else {
                        return;
                    };
                    // Append; flush only if the ack does not already
                    // cover it.
                    match kind {
                        SubKind::MasterAppend { txn } if self.commits.contains_key(&token) => {
                            if done.is_durable() {
                                self.leg_done(ctx, token, Leg::Record);
                            } else {
                                let upto = done.lsn_end;
                                self.start_sub(ctx, token, SubKind::MasterFlush { txn, upto });
                            }
                        }
                        SubKind::PrepAppend { txn } => {
                            if done.is_durable() {
                                self.prep_durable(ctx, txn);
                            } else {
                                let upto = done.lsn_end;
                                self.start_sub(ctx, 0, SubKind::PrepFlush { txn, upto });
                            }
                        }
                        _ => {}
                    }
                    return;
                }
                Err(p) => p,
            };

            if let Ok(done) = payload.downcast::<FlushDone>() {
                if let Some((token, kind)) = self.retire_sub(ctx, done.token) {
                    match kind {
                        SubKind::DataFlush { .. } => self.phase1_flush_done(ctx, token),
                        SubKind::MasterFlush { .. } => self.leg_done(ctx, token, Leg::Record),
                        SubKind::PrepDataFlush { txn, .. } => {
                            let advance = match self.prepared.get_mut(&txn) {
                                Some(st) => {
                                    st.flushes_left = st.flushes_left.saturating_sub(1);
                                    st.flushes_left == 0 && !st.appended
                                }
                                None => false,
                            };
                            if advance {
                                self.prep_append(ctx, txn);
                            }
                        }
                        SubKind::PrepFlush { txn, .. } => self.prep_durable(ctx, txn),
                        _ => {}
                    }
                }
            }
        }
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
                subop: FastMap::default(),
                next_subop: 0,
                prepared: FastMap::default(),
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
    use nsk::pair::PairCore;

    /// What reaches a decided commit, as the TMF's handler hears it.
    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Ev {
        /// The master append's ack; `durable`: it covers the record.
        AppendAck { durable: bool },
        /// The `MasterFlush` behind a non-durable append ack came back.
        FlushAck,
        /// An ack of the decision checkpoint's seq (a second one is a
        /// duplicate; one after `BackupLost` is late).
        CkptAck,
        /// The backup died.
        BackupLost,
    }

    /// Every distinct order of `evs` in which a `FlushAck` follows the
    /// non-durable append ack it was sent for.
    fn orders(evs: &[Ev]) -> Vec<Vec<Ev>> {
        if evs.is_empty() {
            return vec![vec![]];
        }
        let mut out = Vec::new();
        for (i, &ev) in evs.iter().enumerate() {
            if evs[..i].contains(&ev) {
                continue;
            }
            let mut rest = evs.to_vec();
            rest.remove(i);
            if ev == Ev::FlushAck && rest.contains(&Ev::AppendAck { durable: false }) {
                continue;
            }
            for mut tail in orders(&rest) {
                tail.insert(0, ev);
                out.push(tail);
            }
        }
        out
    }

    /// One commit decided with (or without) a master trail and a backup,
    /// then `events` fed through `PairCore` and the join the way the
    /// handler feeds them. Asserts at every step that the commit is
    /// externalized at most once, never before its record is durable, and
    /// as soon as both legs are done.
    fn run(master_trail: bool, backup: bool, events: &[Ev]) {
        const TOKEN: u64 = 7;
        let mut core = PairCore::<u64>::new(Role::Primary);
        let mut commits = FastMap::default();
        let join = CommitJoin::new(master_trail, backup);
        let state = CommitState {
            txn: TxnId::compose(0, 1),
            driver_ep: EndpointId(0),
            involved_dp2: Vec::new(),
            participants: Vec::new(),
            phase: CommitPhase::Decided(join),
            started_ns: 0,
        };
        commits.insert(TOKEN, state);
        let seq = backup.then(|| core.park(TOKEN));
        let (mut durable, mut ckpt_done) = (!master_trail, !backup);
        let mut externalized = 0;
        if join.done() {
            commits.remove(&TOKEN);
            externalized += 1;
        }
        let why = format!("master trail {master_trail}, backup {backup}, {events:?}");
        for &ev in events {
            let released: Vec<CommitState> = match ev {
                Ev::AppendAck { durable: false } => Vec::new(),
                Ev::AppendAck { durable: true } | Ev::FlushAck => {
                    durable = true;
                    finish_leg(&mut commits, TOKEN, Leg::Record)
                        .into_iter()
                        .collect()
                }
                Ev::CkptAck => {
                    let waiter = seq.and_then(|s| core.acked(s));
                    ckpt_done |= waiter.is_some();
                    waiter
                        .and_then(|t| finish_leg(&mut commits, t, Leg::Ckpt))
                        .into_iter()
                        .collect()
                }
                Ev::BackupLost => {
                    let Died::BackupLost(waiters) = core.died(false) else {
                        panic!("a primary's backup died: {why}");
                    };
                    ckpt_done = true;
                    waiters
                        .into_iter()
                        .filter_map(|t| finish_leg(&mut commits, t, Leg::Ckpt))
                        .collect()
                }
            };
            for state in released {
                assert_eq!(state.txn, TxnId::compose(0, 1));
                assert!(durable, "externalized before durable after {ev:?}: {why}");
                externalized += 1;
            }
            assert!(externalized <= 1, "externalized twice: {why}");
            let due = u32::from(durable && ckpt_done);
            assert_eq!(externalized, due, "after {ev:?}: {why}");
        }
        assert_eq!(externalized, 1, "never externalized: {why}");
    }

    #[test]
    fn a_decided_commit_externalizes_once_both_legs_are_done_in_any_order() {
        use Ev::*;
        let mut orders_run = 0;
        for master_trail in [false, true] {
            let records: &[&[Ev]] = if master_trail {
                &[
                    &[AppendAck { durable: true }],
                    &[AppendAck { durable: false }, FlushAck],
                ]
            } else {
                &[&[]]
            };
            for backup in [false, true] {
                // Every checkpoint outcome: acked, lost, both (either
                // order: a late ack), acked twice, and all three.
                let ckpts: &[&[Ev]] = &[
                    &[CkptAck],
                    &[BackupLost],
                    &[CkptAck, BackupLost],
                    &[CkptAck, CkptAck],
                    &[CkptAck, CkptAck, BackupLost],
                ];
                for record in records {
                    for ckpt in ckpts {
                        for order in orders(&[*record, *ckpt].concat()) {
                            run(master_trail, backup, &order);
                            orders_run += 1;
                        }
                    }
                }
                if !backup {
                    run(master_trail, backup, records[0]);
                }
            }
        }
        // Per backup setting: 8 orders of the checkpoint outcomes alone,
        // 25 with a durable append ack among them, 54 with an ack and the
        // flush behind it.
        assert_eq!(orders_run, 2 * (8 + 25 + 54));
    }
}
