//! The ADP — audit data process (log writer) — as a process pair over a
//! pluggable `AuditLog` backend.
//!
//! "To test the utility of persistent memory, we modified NSK's audit data
//! process (ADP)... Our modified ADP synchronously writes database log
//! data to persistent memory. Therefore, the database log is persistent
//! immediately, and transactions can commit faster than if the log data
//! had to be flushed to disk at commit time. For scaling audit throughput,
//! multiple ADPs can be configured per node." (§4.2)
//!
//! The actor in this module owns only what every backend shares — the
//! process pair ([`nsk::pair`]), the LSN space, the durable watermark,
//! and the queue of commit flush waiters. The durable-trail *discipline*
//! lives behind the `AuditLog` trait:
//!
//! * `disk::DiskLog` (baseline): buffered appends checkpointed to the
//!   backup before each ack, group-commit flushes to the audit volume.
//! * `pm::PmLog` (the paper's ADP): the host of [`crate::trail`]'s
//!   writer — one ordered PM write chain in flight, carrying every staged
//!   append and the control cell that publishes them; no backup
//!   checkpoints at all.
//!
//! Scaling past one ADP is the scenario layer's job: §4.2's "multiple
//! ADPs can be configured per node" installs N independent pairs, each
//! owning its own trail region, with DP2/TMF routing audit work by
//! transaction hash (see `scenario::OdsParams::audit_partitions`).
//!
//! LSNs are *virtual* byte offsets (records may be carried as compact
//! descriptors at benchmark scale — see `simnet::rdma_write_sized`).

pub(crate) mod disk;
pub(crate) mod pm;

use crate::config::TxnConfig;
use crate::stats::SharedTxnStats;
use crate::types::*;
use nsk::machine::{CpuId, SharedMachine};
use nsk::pair::{Died, Inbound, Pair, Role};
use simcore::{Actor, ActorId, Ctx, Msg, Sim, SimTime, Wait};
use simnet::{EndpointId, NetDelivery};
use std::any::Any;

/// The trail format's readers outside this crate know these names here.
pub use crate::trail::{parse_ctrl_cell, PM_CTRL_BYTES};

/// Fabric traffic class for commit-critical PM ops: the ADP's trail
/// chains (each carries the control cell that releases commit acks), its
/// boot/takeover reads, and the geo-replication shipper's trail reads.
/// Pinned through to the fabric's per-class schedulers when QoS is on.
pub(crate) const PM_COMMIT_CLASS: simnet::TrafficClass = simnet::TrafficClass::Commit;

/// Where the trail becomes durable.
#[derive(Clone)]
pub enum AuditBackend {
    /// Buffered appends + sequential flushes to a disk audit volume.
    Disk { volume: ActorId },
    /// Immediate synchronous mirrored writes to a PM region.
    Pm {
        pmm: String,
        region: String,
        region_len: u64,
    },
}

/// An append whose ack waits on its data checkpoint (the disk trail's
/// checkpoint-before-externalize), released by the checkpoint's ack or
/// the backup's death.
pub(crate) struct HeldAck {
    pub to: EndpointId,
    pub token: u64,
    pub lsn_start: u64,
    pub lsn_end: u64,
}

/// State every audit backend shares, handed to [`AuditLog`] methods so
/// backends stay free of process-pair plumbing.
pub(crate) struct AdpShared {
    pub pair: Pair<HeldAck>,
    pub cfg: TxnConfig,
    pub stats: SharedTxnStats,
    /// Next virtual byte offset to assign.
    pub next_lsn: u64,
    /// The trail is provably recoverable through here.
    pub durable_upto: u64,
    /// (requester ep, token, upto, arrival ns) — answered once durable.
    pub waiters: Vec<(EndpointId, u64, u64, u64)>,
    /// Geo-replication subscribers: `(ep, tag)` pushed a [`TrailAdvance`]
    /// at every durable-watermark publication.
    pub trail_subs: Vec<(EndpointId, u64)>,
    /// Watermark already announced to subscribers (coalesces notifies).
    last_trail_note: u64,
    next_tag: u64,
}

impl AdpShared {
    pub fn charge_cpu(&mut self, ctx: &mut Ctx<'_>, cost: u64) {
        let now = ctx.now().as_nanos();
        self.pair.machine.lock().cpu_work(self.pair.cpu, now, cost);
    }

    pub fn alloc_tag(&mut self) -> u64 {
        let t = self.next_tag;
        self.next_tag += 1;
        t
    }

    /// Acknowledge one append back to its requester, stamped with the
    /// durable watermark as it stands now: a requester whose records it
    /// covers needs no flush.
    pub fn send_append_done(
        &mut self,
        ctx: &mut Ctx<'_>,
        to: EndpointId,
        token: u64,
        lsn_start: u64,
        lsn_end: u64,
    ) {
        let net = self.pair.net.clone();
        simnet::send_net_msg(
            ctx,
            &net,
            self.pair.ep,
            to,
            32,
            AppendDone {
                token,
                lsn_start: Lsn(lsn_start),
                lsn_end: Lsn(lsn_end),
                durable_upto: Lsn(self.durable_upto),
            },
        );
    }

    /// Answer every flush waiter covered by the durable watermark.
    pub fn answer_waiters(&mut self, ctx: &mut Ctx<'_>) {
        let durable = self.durable_upto;
        let net = self.pair.net.clone();
        let mut still = Vec::new();
        for (ep, token, upto, at) in self.waiters.drain(..) {
            if upto <= durable {
                simnet::send_net_msg(
                    ctx,
                    &net,
                    self.pair.ep,
                    ep,
                    32,
                    FlushDone {
                        token,
                        durable_upto: Lsn(durable),
                    },
                );
            } else {
                still.push((ep, token, upto, at));
            }
        }
        self.waiters = still;
        self.notify_trail_subs(ctx);
    }

    /// Push the durable watermark to geo-replication subscribers. Called
    /// from every publication point (`answer_waiters` runs on each), and
    /// coalesced: a watermark is announced once.
    pub fn notify_trail_subs(&mut self, ctx: &mut Ctx<'_>) {
        if self.trail_subs.is_empty() || self.durable_upto <= self.last_trail_note {
            return;
        }
        self.last_trail_note = self.durable_upto;
        let net = self.pair.net.clone();
        let note: Vec<(EndpointId, u64)> = self.trail_subs.clone();
        for (ep, tag) in note {
            simnet::send_net_msg(
                ctx,
                &net,
                self.pair.ep,
                ep,
                32,
                TrailAdvance {
                    tag,
                    durable_upto: Lsn(self.durable_upto),
                },
            );
        }
    }
}

/// A durable audit-trail backend. One instance lives in each half of the
/// ADP pair; the actor shell routes messages here and owns promotion.
pub(crate) trait AuditLog {
    /// Bring the trail up as primary — called on primary start AND on
    /// backup promotion (takeover must recover the durable position from
    /// whatever the discipline persisted: backup shadow or PM cell).
    fn open(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>);

    /// Accept one append (primary only).
    fn append(
        &mut self,
        sh: &mut AdpShared,
        ctx: &mut Ctx<'_>,
        from_ep: EndpointId,
        app: AuditAppend,
    );

    /// A flush waiter was queued for an LSN beyond the durable watermark,
    /// or held acks were released; push durability forward if the
    /// discipline requires a kick (disk group commit does, PM answers from
    /// the chain in flight).
    fn flush_queued(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>);

    /// Timers and IO completions addressed to this actor. Return the
    /// message if it is not this backend's.
    fn on_msg(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>, msg: Msg) -> Option<Msg>;

    /// What the trail's writes in flight wait on ([`Actor::waits`]).
    fn waits(&self, out: &mut Vec<Wait>);

    /// Backup side: apply a checkpoint from the primary. Only the disk
    /// discipline checkpoints at all.
    fn apply_checkpoint(&mut self, _sh: &mut AdpShared, _ck: Box<dyn Any>) {}

    /// Network payloads other than appends, flushes and pair traffic
    /// (region acks). Return the payload if not consumed.
    fn on_net(
        &mut self,
        _sh: &mut AdpShared,
        _ctx: &mut Ctx<'_>,
        payload: Box<dyn Any>,
    ) -> Option<Box<dyn Any>> {
        Some(payload)
    }
}

pub struct AdpProc {
    sh: AdpShared,
    log: Box<dyn AuditLog>,
}

impl Actor for AdpProc {
    fn name(&self) -> &str {
        &self.sh.pair.name
    }

    /// The trail's writes in flight, on their devices; each flush waiter
    /// on the first of them (nothing in flight leaves it waiting on the
    /// trail itself); each held ack on the backup's checkpoint ack.
    fn waits(&self, out: &mut Vec<Wait>) {
        if !self.sh.pair.is_primary() {
            return;
        }
        let first = out.len();
        self.log.waits(out);
        let on = out.get(first).map_or_else(
            || format!("{} trail, nothing in flight", self.sh.pair.name),
            |w| w.on.clone(),
        );
        out.extend(self.sh.waiters.iter().map(|&(_, _, upto, arrival)| Wait {
            what: "durable",
            on: on.clone(),
            id: upto,
            since: Some(SimTime(arrival)),
        }));
        self.sh.pair.checkpoint_waits(|held| held.lsn_end, out);
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<simcore::actor::Start>() {
            self.sh.pair.watch(ctx);
            if self.sh.pair.is_primary() {
                self.log.open(&mut self.sh, ctx);
            }
            return;
        }

        let msg = match self.sh.pair.take_died(msg) {
            Ok(Died::Promote) => {
                self.log.open(&mut self.sh, ctx);
                return;
            }
            // No data checkpoint in flight will be acknowledged: ack the
            // appends that waited on one, as an unpaired primary does.
            Ok(Died::BackupLost(held)) => {
                for h in held {
                    self.sh
                        .send_append_done(ctx, h.to, h.token, h.lsn_start, h.lsn_end);
                }
                self.log.flush_queued(&mut self.sh, ctx);
                return;
            }
            Ok(Died::Ignore) => return,
            Err(m) => m,
        };

        // Backend timers and IO completions.
        let Some(msg) = self.log.on_msg(&mut self.sh, ctx, msg) else {
            return;
        };

        if let Ok((_, delivery)) = msg.take::<NetDelivery>() {
            let NetDelivery { from_ep, payload } = delivery;

            let payload = match self.sh.pair.recv(ctx, from_ep, payload) {
                Inbound::Checkpoint(ck) => {
                    self.log.apply_checkpoint(&mut self.sh, ck);
                    return;
                }
                // The append's data is at the backup: externalize its ack.
                Inbound::Released(h) => {
                    self.sh
                        .send_append_done(ctx, h.to, h.token, h.lsn_start, h.lsn_end);
                    self.log.flush_queued(&mut self.sh, ctx);
                    return;
                }
                Inbound::Acked => return,
                Inbound::Other(p) => p,
            };

            // Region acks, … — backend-specific.
            let Some(payload) = self.log.on_net(&mut self.sh, ctx, payload) else {
                return;
            };

            if !self.sh.pair.is_primary() {
                return;
            }

            // Geo-replication subscriptions (eager log shipping).
            let payload = match payload.downcast::<SubscribeTrail>() {
                Ok(sub) => {
                    self.sh.trail_subs.push((from_ep, sub.tag));
                    // Announce the current position straight away so the
                    // subscriber starts from the live watermark instead
                    // of waiting for the next append.
                    let net = self.sh.pair.net.clone();
                    simnet::send_net_msg(
                        ctx,
                        &net,
                        self.sh.pair.ep,
                        from_ep,
                        32,
                        TrailAdvance {
                            tag: sub.tag,
                            durable_upto: Lsn(self.sh.durable_upto),
                        },
                    );
                    return;
                }
                Err(p) => p,
            };

            // Appends.
            let payload = match payload.downcast::<AuditAppend>() {
                Ok(app) => {
                    self.log.append(&mut self.sh, ctx, from_ep, *app);
                    return;
                }
                Err(p) => p,
            };

            // Flush requests.
            if let Ok(req) = payload.downcast::<FlushReq>() {
                let req = *req;
                if req.upto.0 <= self.sh.durable_upto {
                    let net = self.sh.pair.net.clone();
                    simnet::send_net_msg(
                        ctx,
                        &net,
                        self.sh.pair.ep,
                        from_ep,
                        32,
                        FlushDone {
                            token: req.token,
                            durable_upto: Lsn(self.sh.durable_upto),
                        },
                    );
                } else {
                    self.sh
                        .waiters
                        .push((from_ep, req.token, req.upto.0, ctx.now().as_nanos()));
                    self.log.flush_queued(&mut self.sh, ctx);
                }
            }
        }
    }
}

/// Install an ADP pair named `name` with the given backend.
#[allow(clippy::too_many_arguments)]
fn install_adp(
    sim: &mut Sim,
    machine: &SharedMachine,
    name: &str,
    cpu: CpuId,
    backup_cpu: Option<CpuId>,
    backend: AuditBackend,
    cfg: TxnConfig,
    stats: SharedTxnStats,
) {
    let mk = |role: Role, on_cpu: CpuId| {
        let cfg2 = cfg.clone();
        let stats2 = stats.clone();
        let backend2 = backend.clone();
        move |ep: EndpointId| -> Box<dyn Actor> {
            let log: Box<dyn AuditLog> = match &backend2 {
                AuditBackend::Disk { volume } => Box::new(disk::DiskLog::new(*volume)),
                AuditBackend::Pm {
                    pmm,
                    region,
                    region_len,
                } => Box::new(pm::PmLog::new(
                    machine.clone(),
                    ep,
                    on_cpu,
                    pmm.clone(),
                    region.clone(),
                    *region_len,
                    cfg2.pm_persist_mode,
                    PM_COMMIT_CLASS,
                )),
            };
            Box::new(AdpProc {
                sh: AdpShared {
                    pair: Pair::new(role, name, machine, ep, on_cpu),
                    cfg: cfg2,
                    stats: stats2,
                    next_lsn: 0,
                    durable_upto: 0,
                    waiters: Vec::new(),
                    trail_subs: Vec::new(),
                    last_trail_note: 0,
                    next_tag: 0,
                },
                log,
            })
        }
    };
    nsk::machine::install_primary(sim, machine, name, cpu, mk(Role::Primary, cpu));
    if let Some(bcpu) = backup_cpu {
        nsk::machine::install_backup(sim, machine, name, bcpu, mk(Role::Backup, bcpu));
    }
}

/// Install `n` independent ADP pairs — §4.2's "multiple ADPs can be
/// configured per node". `partition(sim, i)` names pair `i` and gives its
/// backend (spawning a disk volume if it needs one); primaries go round
/// robin over the worker CPUs `cpu0..cpu0 + cpus`, each backup on the CPU
/// after its primary. Returns the process names in partition order.
#[allow(clippy::too_many_arguments)]
pub fn install_adp_pairs(
    sim: &mut Sim,
    machine: &SharedMachine,
    n: u32,
    cpu0: u32,
    cpus: u32,
    backups: bool,
    mut partition: impl FnMut(&mut Sim, u32) -> (String, AuditBackend),
    cfg: &TxnConfig,
    stats: &SharedTxnStats,
) -> Vec<String> {
    (0..n)
        .map(|i| {
            let (name, backend) = partition(sim, i);
            install_adp(
                sim,
                machine,
                &name,
                CpuId(cpu0 + i % cpus),
                backups.then(|| CpuId(cpu0 + (i + 1) % cpus)),
                backend,
                cfg.clone(),
                stats.clone(),
            );
            name
        })
        .collect()
}
