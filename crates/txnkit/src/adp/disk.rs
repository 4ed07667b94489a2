//! Disk audit backend (baseline): appends are buffered, and — process-
//! pair rule: checkpoint *before externalizing* — each append is
//! checkpointed to the backup **before** `AppendDone` is sent (§2's "high
//! volume of check-point traffic between process pairs" on insert-heavy
//! loads). Durability happens at flush time: a sequential write to the
//! audit volume, gated by the group-commit window that amortizes the
//! mechanical cost. On takeover the backup rebuilds the unflushed buffer
//! from its shadow copy, so no acknowledged append is lost.

use super::{AdpShared, AuditLog, HeldAck};
use crate::types::*;
use bytes::{Bytes, BytesMut};
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
    /// Backup's shadow of unflushed appends: lsn_start → (virt, bytes).
    shadow: BTreeMap<u64, (u64, Bytes)>,
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
            shadow: BTreeMap::new(),
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
        if sh.pair.has_backup() {
            let ck = AdpFlushCkpt {
                durable_upto: sh.durable_upto,
                next_lsn: sh.next_lsn,
            };
            sh.pair.send_checkpoint(ctx, None, 32, ck);
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

        if sh.pair.has_backup() {
            // Checkpoint the audit data before externalizing the ack.
            sh.stats.lock().adp_checkpoints += 1;
            let held = HeldAck {
                to: from_ep,
                token: app.token,
                lsn_start,
                lsn_end: sh.next_lsn,
            };
            let ck = AdpDataCkpt {
                lsn_start,
                virt,
                records: app.records.clone(),
                next_lsn: sh.next_lsn,
            };
            let wire = crate::config::CHECKPOINT_OVERHEAD_BYTES + virt as u32;
            sh.pair.send_checkpoint(ctx, Some(held), wire, ck);
        } else {
            let lsn_end = sh.next_lsn;
            sh.send_append_done(ctx, from_ep, app.token, lsn_start, lsn_end);
        }
    }

    fn flush_queued(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>) {
        self.maybe_flush(sh, ctx);
    }

    fn on_msg(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>, msg: Msg) -> Option<Msg> {
        if msg.is::<GroupTimer>() {
            if sh.pair.is_primary() {
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

    fn apply_checkpoint(&mut self, sh: &mut AdpShared, ck: Box<dyn Any>) {
        let ck = match ck.downcast::<AdpDataCkpt>() {
            Ok(data) => {
                self.shadow
                    .insert(data.lsn_start, (data.virt, data.records.clone()));
                sh.next_lsn = sh.next_lsn.max(data.next_lsn);
                return;
            }
            Err(ck) => ck,
        };
        if let Ok(fl) = ck.downcast::<AdpFlushCkpt>() {
            sh.durable_upto = sh.durable_upto.max(fl.durable_upto);
            sh.next_lsn = sh.next_lsn.max(fl.next_lsn);
            let durable = sh.durable_upto;
            self.shadow
                .retain(|start, (virt, _)| start + *virt > durable);
        }
    }
}
