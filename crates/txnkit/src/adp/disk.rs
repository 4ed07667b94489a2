//! Disk audit backend (baseline): appends are buffered, and — process-
//! pair rule: checkpoint *before externalizing* — each append is
//! checkpointed to the backup **before** `AppendDone` is sent (§2's "high
//! volume of check-point traffic between process pairs" on insert-heavy
//! loads). Durability happens at flush time: a sequential write to the
//! audit volume, gated by the group-commit window that amortizes the
//! mechanical cost. On takeover the backup rebuilds the unflushed buffer
//! from its shadow copy, so no acknowledged append is lost.

use super::{AdpShared, AuditLog, Role};
use crate::types::*;
use bytes::{Bytes, BytesMut};
use nsk::proc::{Checkpoint, CheckpointAck};
use simcore::{ActorId, Ctx, Msg, SimDuration};
use simdisk::{DiskWrite, DiskWriteDone};
use simnet::EndpointId;
use std::any::Any;
use std::collections::BTreeMap;

/// Buffered trail bytes that trigger an immediate flush regardless of the
/// group-commit window.
const GROUP_COMMIT_BYTES: u64 = 192 * 1024;

/// Data checkpoint: an append's bytes, shipped to the backup before the
/// append is acknowledged.
#[derive(Clone)]
struct AdpDataCkpt {
    lsn_start: u64,
    virt: u64,
    records: Bytes,
    next_lsn: u64,
}

/// Position checkpoint after a flush (prunes the shadow).
#[derive(Clone, Copy)]
struct AdpFlushCkpt {
    durable_upto: u64,
    next_lsn: u64,
}

/// Group-commit window expiry: force a flush for waiting commits.
struct GroupTimer;

struct FlushState {
    end_lsn: u64,
    outstanding: u32,
}

/// An append waiting for its backup checkpoint ack.
struct PendingAppend {
    from_ep: EndpointId,
    token: u64,
    lsn_start: u64,
    lsn_end: u64,
}

pub(crate) struct DiskLog {
    volume: ActorId,
    buffer: BytesMut,
    buffer_virtual: u64,
    buffer_base: u64,
    flush: Option<FlushState>,
    /// The window expiry (ns) the latest [`GroupTimer`] was armed for.
    /// Every append ack and flush request inside one window computes the
    /// same expiry; one timer per expiry is enough.
    group_timer_due: u64,
    /// Appends awaiting backup ckpt ack, keyed by ckpt seq.
    pending_appends: BTreeMap<u64, PendingAppend>,
    /// Backup's shadow of unflushed appends: lsn_start → (virt, bytes).
    shadow: BTreeMap<u64, (u64, Bytes)>,
    next_ckpt: u64,
}

impl DiskLog {
    pub fn new(volume: ActorId) -> Self {
        DiskLog {
            volume,
            buffer: BytesMut::new(),
            buffer_virtual: 0,
            buffer_base: 0,
            flush: None,
            group_timer_due: 0,
            pending_appends: BTreeMap::new(),
            shadow: BTreeMap::new(),
            next_ckpt: 0,
        }
    }

    fn maybe_flush(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>) {
        if self.flush.is_some() || self.buffer_virtual == 0 {
            return;
        }
        if !sh
            .waiters
            .iter()
            .any(|(_, _, upto, _)| *upto > sh.durable_upto)
        {
            return;
        }
        // Group commit: hold the flush until the oldest waiter aged past
        // the window or the buffer is big enough to amortize the device.
        let window = sh.cfg.group_commit_window_ns;
        if window > 0 && self.buffer_virtual < GROUP_COMMIT_BYTES {
            let now = ctx.now().as_nanos();
            let oldest = sh
                .waiters
                .iter()
                .filter(|(_, _, upto, _)| *upto > sh.durable_upto)
                .map(|(_, _, _, at)| *at)
                .min()
                .unwrap();
            let due = oldest + window;
            if now < due {
                if self.group_timer_due != due {
                    self.group_timer_due = due;
                    ctx.send_self(SimDuration::from_nanos(due - now), GroupTimer);
                }
                return;
            }
        }
        let data = self.buffer.split().freeze();
        let virt = self.buffer_virtual;
        let base = self.buffer_base;
        self.buffer_virtual = 0;
        self.buffer_base = sh.next_lsn;
        let tag = sh.alloc_tag();
        sh.stats.lock().audit_volume_writes += 1;
        let me = ctx.self_id();
        ctx.send(
            self.volume,
            SimDuration::ZERO,
            DiskWrite {
                offset: base,
                data,
                advisory_len: virt as u32,
                tag,
                reply_to: me,
            },
        );
        self.flush = Some(FlushState {
            end_lsn: base + virt,
            outstanding: 1,
        });
    }

    fn flush_done(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>) {
        let Some(fl) = self.flush.take() else { return };
        sh.durable_upto = sh.durable_upto.max(fl.end_lsn);
        // Position checkpoint (small, async): lets the backup prune its
        // shadow and track the durable point.
        if sh.has_backup() {
            let seq = self.next_ckpt;
            self.next_ckpt += 1;
            let ck = AdpFlushCkpt {
                durable_upto: sh.durable_upto,
                next_lsn: sh.next_lsn,
            };
            let machine = sh.machine.clone();
            let name = sh.name.clone();
            nsk::proc::send_to_backup(
                ctx,
                &machine,
                sh.ep,
                sh.cpu,
                &name,
                32,
                Checkpoint {
                    seq,
                    payload: Box::new(ck),
                },
            );
        }
        sh.answer_waiters(ctx);
        self.maybe_flush(sh, ctx);
    }
}

impl AuditLog for DiskLog {
    fn open(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>) {
        let _ = ctx;
        // Fresh primary: nothing to do. Takeover: rebuild the unflushed
        // buffer from the shadow — every acknowledged append is here,
        // because the data checkpoint preceded the ack.
        self.buffer.clear();
        self.buffer_virtual = 0;
        self.buffer_base = sh.durable_upto;
        let mut lsn = sh.durable_upto;
        for (start, (virt, bytes)) in self.shadow.clone() {
            if start + virt <= sh.durable_upto {
                continue;
            }
            debug_assert!(start >= lsn, "shadow gap");
            self.buffer.extend_from_slice(&bytes);
            self.buffer_virtual += virt;
            lsn = start + virt;
        }
        sh.next_lsn = sh.next_lsn.max(lsn);
    }

    fn append(
        &mut self,
        sh: &mut AdpShared,
        ctx: &mut Ctx<'_>,
        from_ep: EndpointId,
        app: AuditAppend,
    ) {
        sh.charge_cpu(ctx, sh.cfg.append_cpu_ns);
        let lsn_start = sh.next_lsn;
        let virt = app.virtual_len.max(app.records.len() as u32) as u64;
        sh.next_lsn += virt;
        self.buffer.extend_from_slice(&app.records);
        self.buffer_virtual += virt;

        if sh.has_backup() {
            // Checkpoint the audit data before externalizing the ack.
            let seq = self.next_ckpt;
            self.next_ckpt += 1;
            sh.stats.lock().adp_checkpoints += 1;
            self.pending_appends.insert(
                seq,
                PendingAppend {
                    from_ep,
                    token: app.token,
                    lsn_start,
                    lsn_end: sh.next_lsn,
                },
            );
            let ck = AdpDataCkpt {
                lsn_start,
                virt,
                records: app.records.clone(),
                next_lsn: sh.next_lsn,
            };
            let machine = sh.machine.clone();
            let name = sh.name.clone();
            let wire = crate::config::CHECKPOINT_OVERHEAD_BYTES + virt as u32;
            nsk::proc::send_to_backup(
                ctx,
                &machine,
                sh.ep,
                sh.cpu,
                &name,
                wire,
                Checkpoint {
                    seq,
                    payload: Box::new(ck),
                },
            );
        } else {
            let lsn_end = sh.next_lsn;
            sh.send_append_done(ctx, from_ep, app.token, lsn_start, lsn_end);
        }
    }

    fn flush_queued(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>) {
        self.maybe_flush(sh, ctx);
    }

    fn backup_lost(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>) {
        // No data checkpoint in flight will be acknowledged: ack the
        // appends that waited on one, as an unpaired primary does.
        for (_, p) in std::mem::take(&mut self.pending_appends) {
            sh.send_append_done(ctx, p.from_ep, p.token, p.lsn_start, p.lsn_end);
        }
        self.maybe_flush(sh, ctx);
    }

    fn on_msg(
        &mut self,
        sh: &mut AdpShared,
        ctx: &mut Ctx<'_>,
        role: Role,
        msg: Msg,
    ) -> Option<Msg> {
        if msg.is::<GroupTimer>() {
            if role == Role::Primary {
                self.maybe_flush(sh, ctx);
            }
            return None;
        }
        match msg.take::<DiskWriteDone>() {
            Ok((_, _done)) => {
                if let Some(fl) = &mut self.flush {
                    fl.outstanding = fl.outstanding.saturating_sub(1);
                    if fl.outstanding == 0 {
                        self.flush_done(sh, ctx);
                    }
                }
                None
            }
            Err(m) => Some(m),
        }
    }

    fn on_net(
        &mut self,
        sh: &mut AdpShared,
        ctx: &mut Ctx<'_>,
        _role: Role,
        from_ep: EndpointId,
        payload: Box<dyn Any>,
    ) -> Option<Box<dyn Any>> {
        // Backup: apply checkpoints.
        let payload = match payload.downcast::<Checkpoint>() {
            Ok(ck) => {
                let ck = *ck;
                let leftover = match ck.payload.downcast::<AdpDataCkpt>() {
                    Ok(data) => {
                        self.shadow
                            .insert(data.lsn_start, (data.virt, data.records.clone()));
                        sh.next_lsn = sh.next_lsn.max(data.next_lsn);
                        None
                    }
                    Err(p) => Some(p),
                };
                if let Some(p) = leftover {
                    if let Ok(fl) = p.downcast::<AdpFlushCkpt>() {
                        sh.durable_upto = sh.durable_upto.max(fl.durable_upto);
                        sh.next_lsn = sh.next_lsn.max(fl.next_lsn);
                        let durable = sh.durable_upto;
                        self.shadow
                            .retain(|start, (virt, _)| start + *virt > durable);
                    }
                }
                let net = sh.net.clone();
                simnet::send_net_msg(ctx, &net, sh.ep, from_ep, 16, CheckpointAck { seq: ck.seq });
                return None;
            }
            Err(p) => p,
        };

        // Primary: data-ckpt acks release append acknowledgements.
        match payload.downcast::<CheckpointAck>() {
            Ok(ack) => {
                if let Some(p) = self.pending_appends.remove(&ack.seq) {
                    sh.send_append_done(ctx, p.from_ep, p.token, p.lsn_start, p.lsn_end);
                    self.maybe_flush(sh, ctx);
                }
                None
            }
            Err(p) => Some(p),
        }
    }
}
