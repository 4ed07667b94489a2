//! DP2 — the database writer process pair.
//!
//! "The database writer mutates the data stored on data volumes on behalf
//! of transactions. To ensure durability of those changes, it sends them
//! off to a log writer..." (§1.2). As on NonStop, each DP2 owns a set of
//! partitions, runs its own lock manager over them, checkpoints each
//! applied change to its backup *before externalizing* the reply, and
//! destages dirty records to its data volume in the background — keeping
//! data-volume I/O off the commit path (the commit path is the ADP's).
//!
//! §3.4's two per-row actions — the audit delta to the log writer and the
//! checkpoint to the backup — are independent, so an applied insert posts
//! both in the same event (delta first: it is the longer leg and the two
//! share this CPU's transmit port) and [`InsertDone`] leaves when the
//! [`AppendDone`] *and* that insert's own checkpoint ack are in. The
//! append ack's durability verdict rides along on the reply, so a commit
//! flushes only what its acks did not already prove durable.
//!
//! The pair protocol is [`nsk::pair`]'s; a DP2 parks each insert's op on
//! its checkpoint, and a pair without a backup does not checkpoint. Each
//! delta is re-sent until its first append ack through [`nsk::requests`],
//! under the insert's op as its token.

use crate::config::TxnConfig;
use crate::lock::{Acquire, LockManager, LockMode};
use crate::stats::SharedTxnStats;
use crate::types::*;
use bytes::BytesMut;
use nsk::machine::{CpuId, SharedMachine};
use nsk::pair::{Died, Inbound, Pair, Role};
use nsk::requests::{Requests, Retry};
use simcore::hash::{FastMap, FastSet};
use simcore::{Actor, ActorId, Ctx, Msg, Sim, SimDuration, TimerId, Wait};
use simdisk::DiskWrite;
use simnet::{EndpointId, NetDelivery};

/// Lock wait limit before a waiter is victimized (coarse deadlock
/// backstop on top of cycle detection). In a sharded cluster this is also
/// the backstop for *distributed* deadlocks — wait cycles that thread
/// through two shards' lock managers, which no single shard's cycle
/// detector can see. The victim aborts before its coordinator prepares,
/// so the timeout never unwinds a prepared participant.
const LOCK_TIMEOUT: SimDuration = SimDuration::from_secs(2);
/// Dirty-page destage interval (background writes to data volumes).
const DESTAGE_INTERVAL: SimDuration = SimDuration::from_millis(200);
/// Fabric traffic class for the DP2→ADP delta appends, which carry full
/// record images: bandwidth-bearing but still latency-relevant, so they
/// ride the middle `Audit` class, above background `Bulk` movers.
const PM_AUDIT_CLASS: simnet::TrafficClass = simnet::TrafficClass::Audit;

/// A stored record: logical length + payload CRC (content stays compact
/// at benchmark scale; tests use `virtual_len == body.len()`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoredRecord {
    pub virtual_len: u32,
    pub crc: u32,
}

/// Checkpoint delta: one applied insert.
#[derive(Clone)]
struct Dp2Ckpt {
    partition: PartitionId,
    key: u64,
    rec: StoredRecord,
}

/// Stage-2 continuation after the insert's CPU cost elapsed.
struct StagedInsert {
    req: InsertReq,
    from_ep: EndpointId,
}

/// Background destage tick.
struct DestageTick;

/// Lock-wait timeout: the coarse victimization backstop, [`LOCK_TIMEOUT`]
/// after the wait began. The per-DP2 wait-for graph catches local
/// cycles eagerly, but a distributed deadlock spanning DP2s (or shards,
/// under cross-shard 2PC) is invisible to it — the timer is what breaks
/// those. Disarmed when the wait ends any other way.
struct LockTimeout {
    txn: TxnId,
    key: u64,
}

/// An insert parked on a lock, with the [`LockTimeout`] armed for its
/// wait.
struct Parked {
    op: u64,
    timeout: TimerId,
}

struct PendingInsert {
    req: InsertReq,
    from_ep: EndpointId,
    /// The stored image, computed once: the table, the audit delta and the
    /// backup's checkpoint all carry this same `(virtual_len, crc)`.
    rec: StoredRecord,
    /// The first append ack: where the delta ends on its trail, and
    /// whether that ack already proved it durable.
    appended: Option<(Lsn, bool)>,
    /// Its own checkpoint is at the backup, not yet acknowledged.
    awaiting_ckpt: bool,
}

pub struct Dp2Proc {
    /// The pair; a checkpoint's waiter is the op of the insert it protects.
    pair: Pair<u64>,
    cfg: TxnConfig,
    partitions: FastSet<PartitionId>,
    /// Audit partitions: a transaction's deltas go to
    /// `adps[txn.audit_partition(adps.len())]`, the same mapping the TMF
    /// uses for its commit record, so each txn lives on one trail.
    adps: Vec<String>,
    data_volumes: Vec<ActorId>,
    next_vol: usize,
    stats: SharedTxnStats,
    /// Point-inserted, point-read and point-removed only — never walked,
    /// so the hasher's order cannot reach the event trace.
    table: FastMap<PartitionId, FastMap<u64, StoredRecord>>,
    locks: LockManager,
    /// Undo log: keys inserted per txn (undo of insert = delete).
    txn_writes: FastMap<TxnId, Vec<(PartitionId, u64)>>,
    /// Inserts in flight past the lock stage, keyed by op token.
    pending: FastMap<u64, PendingInsert>,
    /// Audit deltas no append ack has answered, by op, each re-sent on
    /// its retry timer (an ADP takeover loses them); the ops' numbering.
    appends: Requests<TxnId>,
    /// Inserts parked on a lock, by the (txn, key) wait they belong to.
    parked: FastMap<(TxnId, u64), Vec<Parked>>,
    /// Ops staged but not yet applied (waiting on lock) keep their request
    /// here too, keyed by op.
    staged: FastMap<u64, (InsertReq, EndpointId)>,
    dirty_bytes: u64,
    dirty_records: u64,
    data_file_offset: u64,
    next_tag: u64,
    /// Audit deltas are encoded here and copied out once, at their size.
    scratch: BytesMut,
}

impl Dp2Proc {
    /// The ADP partition a transaction's audit work routes to.
    fn adp_for(&self, txn: TxnId) -> &str {
        &self.adps[txn.audit_partition(self.adps.len())]
    }

    /// Apply a locked insert: mutate the table, then post the audit delta
    /// and the backup checkpoint together.
    fn apply_insert(&mut self, ctx: &mut Ctx<'_>, op: u64) {
        let (req, from_ep) = self.staged.remove(&op).expect("staged insert");
        let rec = StoredRecord {
            virtual_len: req.virtual_len.max(req.body.len() as u32),
            crc: pmm::meta::crc32(&req.body),
        };
        self.table
            .entry(req.partition)
            .or_default()
            .insert(req.key, rec);
        self.txn_writes
            .entry(req.txn)
            .or_default()
            .push((req.partition, req.key));
        self.dirty_bytes += rec.virtual_len as u64;
        self.dirty_records += 1;
        {
            let mut s = self.stats.lock();
            s.inserts += 1;
            s.audit_deltas += 1;
        }
        let txn = req.txn;
        self.pending.insert(
            op,
            PendingInsert {
                req,
                from_ep,
                rec,
                appended: None,
                awaiting_ckpt: false,
            },
        );
        // Delta first: the longer leg, and both share the transmit port.
        self.send_audit_delta(ctx, op);
        self.send_checkpoint(ctx, op);
        self.appends.issue(op, txn, |d, r| ctx.arm_timer(d, r));
    }

    /// Locks were granted: apply every insert that was parked on them.
    fn unpark(&mut self, ctx: &mut Ctx<'_>, granted: Vec<(TxnId, u64)>) {
        for (txn, key) in granted {
            for p in self.parked.remove(&(txn, key)).unwrap_or_default() {
                ctx.disarm(p.timeout);
                self.apply_insert(ctx, p.op);
            }
        }
    }

    /// Build and send the audit record for a pending insert. Re-sent on
    /// retry after an ADP takeover; a duplicate insert record in the trail
    /// is idempotent under redo.
    fn send_audit_delta(&mut self, ctx: &mut Ctx<'_>, op: u64) {
        let Some(p) = self.pending.get(&op) else {
            return;
        };
        let req = &p.req;
        let audit = crate::audit::AuditRecord::Insert {
            txn: req.txn,
            partition: req.partition,
            key: req.key,
            virtual_len: p.rec.virtual_len,
            body_crc: p.rec.crc,
            body: req.body.clone(),
        };
        let records = audit.encode_in(&mut self.scratch);
        // The trail's virtual size carries the full record image.
        let virt = crate::audit::insert_trail_len(req.body.len(), p.rec.virtual_len) as u32;
        // Delta appends carry full record images — the bandwidth-bearing
        // arm of the commit path. They ride the audit class so the fabric
        // can arbitrate them against the TMF's commit-record control ops.
        nsk::proc::send_to_process_class(
            ctx,
            &self.pair.machine,
            self.pair.ep,
            self.pair.cpu,
            self.adp_for(req.txn),
            virt,
            PM_AUDIT_CLASS,
            AuditAppend {
                records,
                virtual_len: virt,
                token: op,
            },
        );
    }

    /// Checkpoint a pending insert to the backup (a pair without one does
    /// not checkpoint). The reply waits for this checkpoint's own ack.
    fn send_checkpoint(&mut self, ctx: &mut Ctx<'_>, op: u64) {
        if !(self.cfg.dp2_checkpoint && self.pair.has_backup()) {
            return;
        }
        let Some(p) = self.pending.get_mut(&op) else {
            return;
        };
        p.awaiting_ckpt = true;
        let ck = Dp2Ckpt {
            partition: p.req.partition,
            key: p.req.key,
            rec: p.rec,
        };
        let wire = crate::config::CHECKPOINT_OVERHEAD_BYTES + p.rec.virtual_len;
        self.stats.lock().dbw_checkpoints += 1;
        self.pair.send_checkpoint(ctx, Some(op), wire, ck);
    }

    /// Audit append confirmed (the first ack counts; a retried append may
    /// be acknowledged twice).
    fn after_append(&mut self, ctx: &mut Ctx<'_>, done: &AppendDone) {
        let op = done.token;
        if self.appends.answer(op, |t| ctx.disarm(t)).is_none() {
            return;
        }
        if let Some(p) = self.pending.get_mut(&op) {
            p.appended = Some((done.lsn_end, done.is_durable()));
        }
        self.maybe_reply(ctx, op);
    }

    /// `op`'s checkpoint is acknowledged — or never will be.
    fn after_checkpoint(&mut self, ctx: &mut Ctx<'_>, op: u64) {
        if let Some(p) = self.pending.get_mut(&op) {
            p.awaiting_ckpt = false;
        }
        self.maybe_reply(ctx, op);
    }

    /// Externalize the insert once its delta is appended AND its
    /// checkpoint acknowledged — in whichever order the two arrived.
    fn maybe_reply(&mut self, ctx: &mut Ctx<'_>, op: u64) {
        let Some(p) = self.pending.get(&op) else {
            return;
        };
        let Some((lsn, durable)) = p.appended else {
            return;
        };
        if p.awaiting_ckpt {
            return;
        }
        let p = self.pending.remove(&op).expect("pending insert");
        let adp = self.adp_for(p.req.txn).to_string();
        self.reply(
            ctx,
            p.from_ep,
            &p.req,
            InsertResult::Ok { adp, lsn },
            durable,
        );
    }

    /// Answer insert `req` with `result`: its append's, or a failure (a
    /// lock victim, or misrouted) for one never applied.
    fn reply(
        &self,
        ctx: &mut Ctx<'_>,
        to: EndpointId,
        req: &InsertReq,
        result: InsertResult,
        durable: bool,
    ) {
        let (txn, token) = (req.txn, req.token);
        let done = InsertDone {
            txn,
            token,
            result,
            durable,
        };
        simnet::send_net_msg(ctx, &self.pair.net, self.pair.ep, to, 48, done);
    }

    fn destage(&mut self, ctx: &mut Ctx<'_>) {
        if self.dirty_records == 0 {
            return;
        }
        if self.data_volumes.is_empty() {
            self.dirty_records = 0;
            self.dirty_bytes = 0;
            return;
        }
        let vol = self.data_volumes[self.next_vol % self.data_volumes.len()];
        self.next_vol += 1;
        // Coalesced sequential write of all dirty records; §3.4 counts one
        // persistence action per record.
        self.stats.lock().data_volume_writes += self.dirty_records;
        let tag = self.next_tag;
        self.next_tag += 1;
        let me = ctx.self_id();
        ctx.send(
            vol,
            SimDuration::ZERO,
            DiskWrite {
                offset: self.data_file_offset,
                data: bytes::Bytes::new(),
                advisory_len: self.dirty_bytes.min(u32::MAX as u64) as u32,
                tag,
                reply_to: me,
            },
        );
        self.data_file_offset += self.dirty_bytes;
        self.dirty_records = 0;
        self.dirty_bytes = 0;
    }
}

impl Actor for Dp2Proc {
    fn name(&self) -> &str {
        &self.pair.name
    }

    /// Each insert whose audit delta no append ack has answered, on its
    /// ADP; each insert parked on a lock; each insert checkpoint on the
    /// backup's ack. The id is the transaction's.
    fn waits(&self, out: &mut Vec<Wait>) {
        if !self.pair.is_primary() {
            return;
        }
        out.extend(self.appends.live().into_iter().map(|(_, txn)| Wait {
            what: "append",
            on: self.adp_for(*txn).to_string(),
            id: txn.0,
            since: None,
        }));
        let mut locks: Vec<_> = self.parked.iter().collect();
        locks.sort_unstable_by_key(|(&wait, _)| wait);
        for (&(txn, key), parked) in locks {
            out.extend(parked.iter().map(|_| Wait {
                what: "lock",
                on: format!("key {key}"),
                id: txn.0,
                since: None,
            }));
        }
        let txn = |op: &u64| self.pending.get(op).map_or(*op, |p| p.req.txn.0);
        self.pair.checkpoint_waits(txn, out);
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<simcore::actor::Start>() {
            self.pair.watch(ctx);
            if self.pair.is_primary() {
                ctx.send_self(DESTAGE_INTERVAL, DestageTick);
            }
            return;
        }

        let msg = match msg.take::<Retry>() {
            Ok((_, r)) => {
                if self.appends.get(r.token).is_some() {
                    self.send_audit_delta(ctx, r.token);
                    self.appends.rearm(r, |d, r| ctx.arm_timer(d, r));
                }
                return;
            }
            Err(m) => m,
        };

        let msg = match msg.take::<LockTimeout>() {
            Ok((_, t)) => {
                if !self.pair.is_primary() {
                    return;
                }
                // Still parked after the full wait? Victimize the whole
                // (txn, key) wait: every parked op answers Deadlock and
                // the waiter entry leaves the lock queue (possibly
                // unblocking whoever was queued behind it).
                let Some(ops) = self.parked.remove(&(t.txn, t.key)) else {
                    return;
                };
                {
                    let mut s = self.stats.lock();
                    s.deadlocks += 1;
                    s.lock_timeouts += 1;
                }
                for p in ops {
                    // The other ops of this wait each armed their own.
                    ctx.disarm(p.timeout);
                    if let Some((req, from_ep)) = self.staged.remove(&p.op) {
                        self.reply(ctx, from_ep, &req, InsertResult::Deadlock, false);
                    }
                }
                let granted = self.locks.cancel_wait(t.txn, t.key);
                self.unpark(ctx, granted);
                return;
            }
            Err(m) => m,
        };

        if msg.is::<DestageTick>() {
            if self.pair.is_primary() {
                self.destage(ctx);
                ctx.send_self(DESTAGE_INTERVAL, DestageTick);
            }
            return;
        }

        let msg = match self.pair.take_died(msg) {
            Ok(Died::Promote) => {
                ctx.send_self(DESTAGE_INTERVAL, DestageTick);
                return;
            }
            // Released in op order: a lock-parked insert checkpoints after
            // later ops, so its seq is not its op.
            Ok(Died::BackupLost(mut ops)) => {
                ops.sort_unstable();
                for op in ops {
                    self.after_checkpoint(ctx, op);
                }
                return;
            }
            Ok(Died::Ignore) => return,
            Err(m) => m,
        };

        let msg = match msg.take::<StagedInsert>() {
            Ok((_, st)) => {
                let op = self.appends.token();
                let txn = st.req.txn;
                let key = st.req.key;
                if !self.partitions.contains(&st.req.partition) {
                    let wrong = InsertResult::WrongPartition;
                    self.reply(ctx, st.from_ep, &st.req, wrong, false);
                    return;
                }
                self.staged.insert(op, (st.req, st.from_ep));
                match self.locks.acquire(txn, key, LockMode::Exclusive) {
                    Acquire::Granted => self.apply_insert(ctx, op),
                    Acquire::Queued => {
                        let timeout = ctx.arm_timer(LOCK_TIMEOUT, LockTimeout { txn, key });
                        self.parked
                            .entry((txn, key))
                            .or_default()
                            .push(Parked { op, timeout });
                    }
                    Acquire::Deadlock => {
                        let (req, from_ep) = self.staged.remove(&op).unwrap();
                        self.stats.lock().deadlocks += 1;
                        self.reply(ctx, from_ep, &req, InsertResult::Deadlock, false);
                    }
                }
                return;
            }
            Err(m) => m,
        };

        if let Ok((_, delivery)) = msg.take::<NetDelivery>() {
            let NetDelivery { from_ep, payload } = delivery;

            let payload = match self.pair.recv(ctx, from_ep, payload) {
                // Backup side: apply checkpointed inserts.
                Inbound::Checkpoint(ck) => {
                    if let Ok(delta) = ck.downcast::<Dp2Ckpt>() {
                        self.table
                            .entry(delta.partition)
                            .or_default()
                            .insert(delta.key, delta.rec);
                    }
                    return;
                }
                Inbound::Released(op) => {
                    self.after_checkpoint(ctx, op);
                    return;
                }
                Inbound::Acked => return,
                Inbound::Other(p) => p,
            };

            if !self.pair.is_primary() {
                return;
            }

            let payload = match payload.downcast::<InsertReq>() {
                Ok(req) => {
                    // Charge the insert's CPU cost, then continue.
                    let now = ctx.now().as_nanos();
                    let queue = self.pair.machine.lock().cpu_work(
                        self.pair.cpu,
                        now,
                        self.cfg.insert_cpu_ns,
                    );
                    ctx.send_self(
                        SimDuration::from_nanos(queue + self.cfg.insert_cpu_ns),
                        StagedInsert { req: *req, from_ep },
                    );
                    return;
                }
                Err(p) => p,
            };

            let payload = match payload.downcast::<AppendDone>() {
                Ok(done) => {
                    self.after_append(ctx, &done);
                    return;
                }
                Err(p) => p,
            };

            let payload = match payload.downcast::<TxnResolved>() {
                Ok(res) => {
                    if let Some(writes) = self.txn_writes.remove(&res.txn) {
                        if !res.committed {
                            for (part, key) in &writes {
                                if let Some(t) = self.table.get_mut(part) {
                                    t.remove(key);
                                }
                            }
                        }
                    }
                    let granted = self.locks.release_all(res.txn);
                    self.unpark(ctx, granted);
                    return;
                }
                Err(p) => p,
            };

            if let Ok(req) = payload.downcast::<ReadReq>() {
                let now = ctx.now().as_nanos();
                self.pair
                    .machine
                    .lock()
                    .cpu_work(self.pair.cpu, now, 50_000);
                let found = self
                    .table
                    .get(&req.partition)
                    .and_then(|t| t.get(&req.key))
                    .map(|r| (r.virtual_len, r.crc));
                let token = req.token;
                let done = ReadDone { token, found };
                simnet::send_net_msg(ctx, &self.pair.net, self.pair.ep, from_ep, 32, done);
            }
        }
    }
}

/// Install a DP2 pair owning `partitions`, logging to the `adps` audit
/// partitions (deltas route by transaction hash; a single entry routes
/// everything to that ADP), with zero or more data volumes for background
/// destage (round-robin).
#[allow(clippy::too_many_arguments)]
pub fn install_dp2(
    sim: &mut Sim,
    machine: &SharedMachine,
    name: &str,
    cpu: CpuId,
    backup_cpu: Option<CpuId>,
    partitions: Vec<PartitionId>,
    adps: Vec<String>,
    data_volumes: Vec<ActorId>,
    cfg: TxnConfig,
    stats: SharedTxnStats,
) {
    assert!(!adps.is_empty(), "DP2 needs at least one audit partition");
    let parts: FastSet<PartitionId> = partitions.into_iter().collect();
    let mk = |role: Role, on_cpu: CpuId| {
        let adps2 = adps.clone();
        let cfg2 = cfg.clone();
        let stats2 = stats.clone();
        let parts2 = parts.clone();
        let vols2 = data_volumes.clone();
        move |ep: EndpointId| -> Box<dyn Actor> {
            Box::new(Dp2Proc {
                pair: Pair::new(role, name, machine, ep, on_cpu),
                cfg: cfg2,
                partitions: parts2,
                adps: adps2,
                data_volumes: vols2,
                next_vol: 0,
                stats: stats2,
                table: FastMap::default(),
                locks: LockManager::new(),
                txn_writes: FastMap::default(),
                pending: FastMap::default(),
                appends: Requests::new(role, crate::config::SUB_RETRY),
                parked: FastMap::default(),
                staged: FastMap::default(),
                dirty_bytes: 0,
                dirty_records: 0,
                data_file_offset: 0,
                next_tag: 0,
                scratch: BytesMut::new(),
            })
        }
    };
    nsk::machine::install_primary(sim, machine, name, cpu, mk(Role::Primary, cpu));
    if let Some(bcpu) = backup_cpu {
        nsk::machine::install_backup(sim, machine, name, bcpu, mk(Role::Backup, bcpu));
    }
}
