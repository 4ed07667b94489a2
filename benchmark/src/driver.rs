//! The benchmark's own load generator: one closed-loop driver actor per
//! worker CPU, each multiplexing virtual clients over `txnkit::TxnClient`.
//! Every transaction is stamped, in simulated ns, at begin sent, begun,
//! each insert issued/done, commit sent and settled.

use crate::plan::{Plan, Spec, ISSUE_CPU_NS, RECORD_BYTES, WARMUP_TXNS};
use bytes::Bytes;
use nsk::machine::{CpuId, SharedMachine};
use parking_lot::Mutex;
use simcore::actor::Start;
use simcore::{Actor, Ctx, Msg, Sim, SimDuration};
use simnet::NetDelivery;
use std::collections::HashMap;
use std::sync::Arc;
use txnkit::{
    InsertDone, InsertResult, PartitionId, TxnAborted, TxnBegun, TxnClient, TxnCommitted, TxnId,
};

/// One settled transaction, in simulated ns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnRec {
    pub txn: TxnId,
    /// Home shard and index into that shard's plan.
    pub shard: u32,
    pub plan_idx: u32,
    /// Order in which the transaction was started, from 1.
    pub begin_seq: u32,
    pub cross: bool,
    pub committed: bool,
    pub begin_sent: u64,
    pub begun: u64,
    pub first_issue: u64,
    pub last_done: u64,
    pub commit_sent: u64,
    pub settled: u64,
}

/// One acknowledged insert: where its audit delta landed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsertAck {
    pub at: u64,
    /// Index into `RunLog::adps`.
    pub adp: u16,
    /// End of the delta in that ADP's virtual LSN space.
    pub lsn_end: u64,
}

/// One insert span (traced runs only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsertSpan {
    /// `TxnRec::begin_seq` of the owning transaction.
    pub begin_seq: u32,
    pub issued: u64,
    pub done: u64,
}

/// What the drivers record, shared with the harness. Events are handled in
/// simulated-time order on one thread, so every vector is time-ordered and
/// identical across repetitions.
#[derive(Default, Debug, PartialEq)]
pub struct RunLog {
    /// Settle order.
    pub txns: Vec<TxnRec>,
    pub acks: Vec<InsertAck>,
    /// ADP process names in order of first acknowledgement.
    pub adps: Vec<String>,
    pub insert_spans: Vec<InsertSpan>,
    /// Transactions started so far (drawn from the shared budget).
    pub started: u64,
    /// Inserts that came back other than `Ok`, and sends that found no
    /// route.
    pub insert_failures: u64,
    pub send_failures: u64,
    pub clients_live: u32,
    /// Per shard: next unplanned transaction.
    next_plan: Vec<usize>,
}

impl RunLog {
    pub fn done(&self) -> bool {
        self.clients_live == 0
    }

    pub fn unsettled(&self) -> u64 {
        self.started - self.txns.len() as u64
    }

    fn adp_index(&mut self, name: &str) -> u16 {
        match self.adps.iter().position(|a| a == name) {
            Some(i) => i as u16,
            None => {
                self.adps.push(name.to_string());
                (self.adps.len() - 1) as u16
            }
        }
    }
}

pub type SharedRunLog = Arc<Mutex<RunLog>>;

struct ThinkDone {
    slot: u32,
}

struct IssueNext {
    slot: u32,
    i: u32,
}

/// One virtual client's in-flight state.
#[derive(Default)]
struct Slot {
    plan_idx: usize,
    begin_seq: u32,
    txn: Option<TxnId>,
    outstanding: u32,
    failed: bool,
    begin_sent: u64,
    begun: u64,
    first_issue: u64,
    last_done: u64,
    commit_sent: u64,
    issued_at: Vec<u64>,
    done: bool,
}

struct Driver {
    name: String,
    client: TxnClient,
    cpu: CpuId,
    machine: SharedMachine,
    shard: u32,
    spec: Spec,
    plan: Arc<Plan>,
    /// Partition -> owning DP2 process name.
    dp2_of: Arc<HashMap<PartitionId, String>>,
    slots: Vec<Slot>,
    /// Start stagger per slot.
    stagger_ns: Vec<u64>,
    by_txn: HashMap<TxnId, u32>,
    trace: bool,
    log: SharedRunLog,
}

impl Driver {
    fn retire(&mut self, ctx: &mut Ctx<'_>, slot: u32) {
        let s = &mut self.slots[slot as usize];
        if s.done {
            return;
        }
        s.done = true;
        let mut log = self.log.lock();
        log.clients_live -= 1;
        if log.clients_live == 0 {
            // Everything settled: stop the run loop mid-slice instead of
            // idling to the slice boundary.
            ctx.halt();
        }
    }

    fn begin_next(&mut self, ctx: &mut Ctx<'_>, slot: u32) {
        let now = ctx.now().as_nanos();
        let sp = &self.plan.shards[self.shard as usize];
        let drawn = {
            let mut log = self.log.lock();
            let over_budget = self.plan.budget.is_some_and(|b| log.started >= b);
            let over_deadline = self.plan.deadline_ns.is_some_and(|d| now >= d);
            let next = log.next_plan[self.shard as usize];
            if over_budget || over_deadline || next >= sp.txns() {
                None
            } else {
                log.next_plan[self.shard as usize] += 1;
                log.started += 1;
                Some((next, log.started as u32))
            }
        };
        let Some((plan_idx, begin_seq)) = drawn else {
            self.retire(ctx, slot);
            return;
        };
        let s = &mut self.slots[slot as usize];
        s.plan_idx = plan_idx;
        s.begin_seq = begin_seq;
        s.begin_sent = now;
        s.issued_at.clear();
        if !self.client.begin(ctx, slot as u64) {
            self.log.lock().send_failures += 1;
        }
    }

    /// Charge the issue cost on this driver's CPU, then issue insert `i`.
    fn schedule_issue(&mut self, ctx: &mut Ctx<'_>, slot: u32, i: u32) {
        let now = ctx.now().as_nanos();
        let queue = self.machine.lock().cpu_work(self.cpu, now, ISSUE_CPU_NS);
        ctx.send_self(
            SimDuration::from_nanos(queue + ISSUE_CPU_NS),
            IssueNext { slot, i },
        );
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>, slot: u32, i: u32) {
        let now = ctx.now().as_nanos();
        let n = self.spec.inserts;
        let s = &mut self.slots[slot as usize];
        let Some(txn) = s.txn else { return };
        if i == 0 {
            s.first_issue = now;
        }
        s.issued_at.push(now);
        let ins =
            self.plan.shards[self.shard as usize].inserts[s.plan_idx * n as usize + i as usize];
        let dp2 = &self.dp2_of[&ins.partition];
        let body = Bytes::from(ins.key.to_le_bytes().to_vec());
        // The token carries the insert's index so its span can be closed.
        let token = ((i as u64) << 32) | slot as u64;
        if !self.client.insert(
            ctx,
            dp2,
            txn,
            ins.partition,
            ins.key,
            body,
            RECORD_BYTES,
            token,
        ) {
            self.log.lock().send_failures += 1;
        }
        if i + 1 < n {
            self.schedule_issue(ctx, slot, i + 1);
        }
    }

    fn on_insert_done(&mut self, ctx: &mut Ctx<'_>, done: InsertDone) {
        let now = ctx.now().as_nanos();
        let slot = (done.token & 0xffff_ffff) as u32;
        let i = (done.token >> 32) as usize;
        let ok = self.client.note_insert_done(&done);
        let s = &mut self.slots[slot as usize];
        if s.txn != Some(done.txn) {
            return;
        }
        {
            let mut log = self.log.lock();
            match &done.result {
                InsertResult::Ok { adp, lsn } => {
                    let adp = log.adp_index(adp);
                    log.acks.push(InsertAck {
                        at: now,
                        adp,
                        lsn_end: lsn.0,
                    });
                }
                _ => log.insert_failures += 1,
            }
            if self.trace {
                log.insert_spans.push(InsertSpan {
                    begin_seq: s.begin_seq,
                    issued: s.issued_at[i],
                    done: now,
                });
            }
        }
        s.failed |= !ok;
        s.outstanding -= 1;
        if s.outstanding > 0 {
            return;
        }
        s.last_done = now;
        s.commit_sent = now;
        let sent = if s.failed {
            self.client.abort(ctx, done.txn)
        } else {
            self.client.commit(ctx, done.txn)
        };
        if !sent {
            self.log.lock().send_failures += 1;
        }
    }

    fn on_settled(&mut self, ctx: &mut Ctx<'_>, txn: TxnId, committed: bool) {
        let Some(slot) = self.by_txn.remove(&txn) else {
            return;
        };
        let now = ctx.now().as_nanos();
        let s = &mut self.slots[slot as usize];
        s.txn = None;
        let sp = &self.plan.shards[self.shard as usize];
        let think = sp.think_ns[s.plan_idx];
        let warmed = {
            let mut log = self.log.lock();
            log.txns.push(TxnRec {
                txn,
                shard: self.shard,
                plan_idx: s.plan_idx as u32,
                begin_seq: s.begin_seq,
                cross: sp.cross[s.plan_idx],
                committed,
                begin_sent: s.begin_sent,
                begun: s.begun,
                first_issue: s.first_issue,
                last_done: s.last_done,
                commit_sent: s.commit_sent,
                settled: now,
            });
            log.txns.len() as u64 == WARMUP_TXNS
        };
        if warmed {
            // The harness starts the measured phase at exactly this event.
            ctx.halt();
        }
        if think == 0 {
            self.begin_next(ctx, slot);
        } else {
            ctx.send_self(SimDuration::from_nanos(think), ThinkDone { slot });
        }
    }
}

impl Actor for Driver {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Start>() {
            for slot in 0..self.slots.len() as u32 {
                let at = crate::plan::BOOT_NS + self.stagger_ns[slot as usize];
                ctx.send_self(SimDuration::from_nanos(at), ThinkDone { slot });
            }
            return;
        }
        let msg = match msg.take::<ThinkDone>() {
            Ok((_, ThinkDone { slot })) => return self.begin_next(ctx, slot),
            Err(m) => m,
        };
        let msg = match msg.take::<IssueNext>() {
            Ok((_, IssueNext { slot, i })) => return self.issue(ctx, slot, i),
            Err(m) => m,
        };
        let Ok((_, delivery)) = msg.take::<NetDelivery>() else {
            return;
        };
        let payload = match delivery.payload.downcast::<TxnBegun>() {
            Ok(b) => {
                let slot = b.token as u32;
                let s = &mut self.slots[slot as usize];
                s.txn = Some(b.txn);
                s.begun = ctx.now().as_nanos();
                s.outstanding = self.spec.inserts;
                s.failed = false;
                self.by_txn.insert(b.txn, slot);
                return self.schedule_issue(ctx, slot, 0);
            }
            Err(p) => p,
        };
        let payload = match payload.downcast::<InsertDone>() {
            Ok(done) => return self.on_insert_done(ctx, *done),
            Err(p) => p,
        };
        let payload = match payload.downcast::<TxnCommitted>() {
            Ok(c) => return self.on_settled(ctx, c.txn, true),
            Err(p) => p,
        };
        if let Ok(a) = payload.downcast::<TxnAborted>() {
            self.on_settled(ctx, a.txn, false);
        }
    }
}

/// Where one shard's drivers run and whom they talk to.
pub struct ShardTarget {
    pub tmf: String,
    /// First worker CPU of the shard.
    pub cpu_base: u32,
    pub worker_cpus: u32,
}

/// Install the drivers: clients are split evenly over shards, then
/// round-robin over each shard's worker CPUs (one driver actor per CPU
/// that has clients).
pub fn install_drivers(
    sim: &mut Sim,
    machine: &SharedMachine,
    spec: &Spec,
    plan: &Arc<Plan>,
    targets: &[ShardTarget],
    dp2_of: HashMap<PartitionId, String>,
    trace: bool,
) -> SharedRunLog {
    let log: SharedRunLog = Arc::new(Mutex::new(RunLog {
        clients_live: spec.clients,
        next_plan: vec![0; targets.len()],
        ..RunLog::default()
    }));
    let dp2_of = Arc::new(dp2_of);
    let per_shard = spec.clients / targets.len() as u32;
    assert_eq!(per_shard * targets.len() as u32, spec.clients);
    for (shard, t) in targets.iter().enumerate() {
        for c in 0..t.worker_cpus.min(per_shard) {
            let n = (per_shard - c).div_ceil(t.worker_cpus) as usize;
            let first = shard as u32 * per_shard + c;
            let stagger_ns = (0..n)
                .map(|k| plan.start_stagger_ns[(first + k as u32 * t.worker_cpus) as usize])
                .collect();
            let cpu = CpuId(t.cpu_base + c);
            let name = format!("$drv-s{shard}c{c}");
            let (m2, m3) = (machine.clone(), machine.clone());
            let (spec, plan, dp2_of, log) = (*spec, plan.clone(), dp2_of.clone(), log.clone());
            let tmf = t.tmf.clone();
            nsk::machine::install_primary(sim, machine, &name.clone(), cpu, move |ep| {
                Box::new(Driver {
                    name,
                    client: TxnClient::new(m2, ep, cpu, tmf),
                    cpu,
                    machine: m3,
                    shard: shard as u32,
                    spec,
                    plan,
                    dp2_of,
                    slots: (0..n).map(|_| Slot::default()).collect(),
                    stagger_ns,
                    by_txn: HashMap::new(),
                    trace,
                    log,
                })
            });
        }
    }
    log
}
