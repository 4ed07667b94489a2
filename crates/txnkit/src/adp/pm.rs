//! PM audit backend (the paper's ADP), **pipelined**: every append is
//! written to the mirrored PM region immediately — "the database log is
//! persistent immediately" — but instead of serializing one control-cell
//! round trip per append, the trail keeps a bounded ring of in-flight
//! *batches*:
//!
//! * Appends are assigned LSNs on arrival and staged; whenever the ring
//!   has a free slot, every staged append is submitted as ONE batched
//!   mirrored write ([`pmclient::PmLib::write_batch`] — one fan-out per
//!   pipeline flush, not K round trips).
//! * Batches may complete out of order; the contiguous data watermark
//!   only advances as the ring head completes, so it never covers a gap.
//! * Watermark publication is **coalesced**: at most one 16-byte control
//!   cell write is in flight, and when it completes it covers *every*
//!   append finished since the previous one. Acks and commit-flush
//!   answers are released only from the acked (published) watermark.
//! * When nothing older is in flight or unpublished, the cell naming a
//!   batch's own end rides as the **last link of that batch's chain**:
//!   the device applies a chain in order and the library closes it with
//!   the persist fence, so trail data, watermark and durability arrive in
//!   ONE fabric round trip. A cell is only ever posted behind the data it
//!   names, on the same ordered channel to the same device.
//! * A publishing chain is never overtaken: appends arriving behind one
//!   stay staged and leave together as the next chain when it completes.
//!   Posting them at once, un-chained, would cost a data round trip plus
//!   a standalone publication queued behind it — never sooner than the
//!   rest of the chain in flight plus one round trip — so the ring only
//!   fills past one batch where the cell cannot ride (a striped trail
//!   whose data sits on another member volume than the cell).
//! * A write that no mirror half took is **re-driven** verbatim — same
//!   offsets, same cell slot — and never advances a watermark: the
//!   completion is the only durability signal there is. A write the
//!   device *rejects* (fence, out of bounds) freezes the log instead.
//!
//! There is **no backup checkpoint at all** — exactly the redundancy
//! §3.4 says PM eliminates. Takeover recovers the exact durable position
//! by reading the control cell back: acks only ever followed a
//! *completed* cell write, so a torn or stale cell can only under-report
//! unacknowledged work, never lose an acknowledged append.

use super::{AdpShared, AuditLog, Role};
use crate::types::*;
use bytes::Bytes;
use nsk::machine::{CpuId, SharedMachine};
use pmclient::{
    PmAppendComplete, PmAppendTimeout, PmClientConfig, PmLib, PmReadTimeout, PmWriteComplete,
    PmWriteTimeout,
};
use pmm::msgs::CreateRegionAck;
use simcore::{Ctx, Msg, SimDuration};
use simnet::{
    EndpointId, PersistMode, RdmaAppendDone, RdmaReadDone, RdmaStatus, RdmaWriteDone, TrafficClass,
};
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};

/// Bytes reserved at the base of a PM trail region for the control cell.
/// The cell is double-buffered: two 16 B slots at offsets 0 and 16,
/// written alternately so a torn slot write can never destroy the last
/// valid watermark.
pub const PM_CTRL_BYTES: u64 = 64;

/// One control-cell slot: `watermark u64 LE + crc32(watermark) u32 LE +
/// 4 B pad`.
pub const PM_CTRL_SLOT_BYTES: u64 = 16;

/// Parse the double-buffered control cell (both 16 B slots). Returns the
/// highest CRC-valid watermark — 0 when neither slot is valid (fresh
/// region, or both torn) — and the slot index holding it.
pub fn parse_ctrl_cell(raw: &[u8]) -> (u64, Option<usize>) {
    let mut best = 0u64;
    let mut slot = None;
    for s in 0..2usize {
        let base = s * PM_CTRL_SLOT_BYTES as usize;
        if raw.len() < base + 12 {
            continue;
        }
        let v = u64::from_le_bytes(raw[base..base + 8].try_into().unwrap());
        let crc = u32::from_le_bytes(raw[base + 8..base + 12].try_into().unwrap());
        if pmm::meta::crc32(&v.to_le_bytes()) == crc && (slot.is_none() || v > best) {
            best = v;
            slot = Some(s);
        }
    }
    (best, slot)
}

/// Split one append of `virt` virtual bytes at trail position
/// `lsn_start` into ≤ 2 circular-trail segments: `(region_off,
/// record_byte_range, wire_len)` per segment. All positions and lengths
/// are computed in `u64` — a trail's virtual length passes 4 GiB in
/// long-running populations, and narrowing them would silently wrap the
/// stream a geo-replica ships from this trail. Only the fabric's
/// per-write size field is `u32`, and that conversion is checked: a
/// single segment wider than `u32::MAX` fails loudly instead of
/// corrupting the trail.
pub(crate) fn split_trail_parts(
    lsn_start: u64,
    cap: u64,
    virt: u64,
    records_len: usize,
) -> Vec<(u64, std::ops::Range<usize>, u32)> {
    let wire = |len: u64| -> u32 {
        u32::try_from(len).expect("trail segment exceeds the u32 wire-size field")
    };
    let pos = lsn_start % cap;
    let off = PM_CTRL_BYTES + pos;
    if pos + virt <= cap {
        return vec![(off, 0..records_len, wire(virt))];
    }
    let first = cap - pos;
    let cut = usize::try_from(first)
        .unwrap_or(records_len)
        .min(records_len);
    vec![
        (off, 0..cut, wire(first)),
        (PM_CTRL_BYTES, cut..records_len, wire(virt - first)),
    ]
}

/// Retry timer for PM region creation at startup/takeover. `attempt`
/// counts the RPCs already sent, driving the capped exponential backoff.
struct RegionRetry {
    attempt: u32,
}

/// An append whose CPU cost has been queued on the host CPU; the trail
/// work happens when the CPU gets to it (appends serialize on their
/// ADP's processor — the §4.2 reason "multiple ADPs can be configured
/// per node" to scale audit throughput).
struct CpuStaged {
    from_ep: EndpointId,
    app: AuditAppend,
}

/// Pacing timer for re-driving a write that failed on every mirror half.
struct Redrive {
    token: u64,
}

/// One `(region offset, payload, wire length)` part of a library write.
type Part = (u64, Bytes, u32);

/// What a completed PmLib token was for.
enum TokenKind {
    /// A batched data write (ring entry).
    Batch,
    /// The standalone coalesced control-cell write.
    Ctrl,
    /// The boot/takeover control-cell read.
    BootRead,
}

/// The ack owed for one append once a covering control write lands.
struct AckSlot {
    from_ep: EndpointId,
    token: u64,
    lsn_start: u64,
    lsn_end: u64,
}

/// An append staged for the next pipeline submission: its trail writes
/// (≤ 2 segments when the circular trail wraps) and the ack it owes.
struct StagedAppend {
    slot: AckSlot,
    parts: Vec<Part>,
}

/// One in-flight batched write in the pipeline ring. The payload is kept
/// so a failed round can be re-driven verbatim.
struct Batch {
    write_token: u64,
    lsn_end: u64,
    slots: Vec<AckSlot>,
    parts: Vec<Part>,
    /// The control-cell slot naming `lsn_end` that rides as the last link
    /// of this batch's chain: its completion publishes it.
    publish: Option<Part>,
    done: bool,
}

/// The standalone control-cell write in flight.
struct CtrlWrite {
    token: u64,
    watermark: u64,
    part: Part,
}

/// The single in-flight device-side append (`pm_offload_append`). The
/// devices assign the durable offsets themselves, so at most one append
/// may be outstanding: two concurrent appends could land in opposite
/// orders on the two mirrors. The batch keeps its payload so a failed
/// round can be re-driven verbatim.
struct OffloadBatch {
    data: Bytes,
    wire_len: u32,
    slots: Vec<AckSlot>,
}

pub(crate) struct PmLog {
    lib: PmLib,
    region_name: String,
    region_id: Option<u64>,
    region_len: u64,
    /// Reading the control cell during takeover/boot.
    ctrl_read_pending: bool,
    ready: bool,
    /// Appends with LSNs assigned, waiting for a ring slot.
    staged: VecDeque<StagedAppend>,
    /// In-flight batches, in submission (= LSN) order.
    ring: VecDeque<Batch>,
    /// All data writes complete through here (ring-head contiguous).
    data_watermark: u64,
    /// A control write covering this watermark has completed (acked
    /// appends and flush answers come from this).
    acked_watermark: u64,
    ctrl_write_inflight: Option<CtrlWrite>,
    /// Which control-cell slot the NEXT publication targets (the other
    /// slot holds the last published watermark).
    ctrl_slot: usize,
    /// Data durable (watermark-covered), waiting for a control write to
    /// publish it; LSN-ordered.
    awaiting_ctrl: VecDeque<AckSlot>,
    /// PmLib token → purpose.
    tokens: BTreeMap<u64, TokenKind>,
    /// Appends received before the region/cell were ready.
    boot_pending: Vec<(EndpointId, AuditAppend)>,
    /// Fabric class the trail data batches ride (control ops use the
    /// library's default class — see [`PmLog::new`]).
    audit_class: TrafficClass,
    /// Fabric class for commit-gating ops (control cell / device appends).
    commit_class: TrafficClass,
    /// Device-side append mode: the NPMUs own the tail pointer, there is
    /// no control cell, and acks are released straight from the mirrored
    /// append completion (`min` over the halves' durable tails).
    offload: bool,
    /// The single in-flight device append (offload mode).
    offload_inflight: Option<OffloadBatch>,
    /// A trail write was *rejected* by the device. Nothing is submitted,
    /// acked or re-driven past this point. Normally that is an engaged
    /// write fence: this ADP is a fenced-off old primary, the replica
    /// site owns the trail now, and any ack we sent would be a durability
    /// lie. Any other rejection is a fault no retry can cure.
    fenced: bool,
}

impl PmLog {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        machine: SharedMachine,
        ep: EndpointId,
        cpu: CpuId,
        pmm: String,
        region_name: String,
        region_len: u64,
        persist_mode: PersistMode,
        commit_class: TrafficClass,
        audit_class: TrafficClass,
        offload: bool,
    ) -> Self {
        PmLog {
            // Control-cell publications and boot reads ride the commit
            // class (they gate commit acks); trail data batches ride the
            // audit class via `write_batch_class`.
            lib: PmLib::new(machine, ep, cpu, pmm).with_config(PmClientConfig {
                persist_mode,
                traffic_class: commit_class,
                ..PmClientConfig::default()
            }),
            audit_class,
            commit_class,
            offload,
            offload_inflight: None,
            region_name,
            region_id: None,
            region_len,
            ctrl_read_pending: false,
            ready: false,
            staged: VecDeque::new(),
            ring: VecDeque::new(),
            data_watermark: 0,
            acked_watermark: 0,
            ctrl_write_inflight: None,
            ctrl_slot: 0,
            awaiting_ctrl: VecDeque::new(),
            tokens: BTreeMap::new(),
            boot_pending: Vec::new(),
            fenced: false,
        }
    }

    /// Did the device *reject* this write (or is the log frozen already)?
    /// If so, freeze the log: count it, and never submit, ack or re-drive
    /// again. A rejection is a *logical* status — the library does not
    /// fail it over — so it surfaces here intact: `AccessViolation` is an
    /// engaged write fence; anything else (`OutOfBounds`) means the trail
    /// addressed bytes the region does not own, which re-posting the same
    /// payload cannot cure, so it is traced and counted instead of being
    /// retried forever. Availability errors are not rejections.
    fn check_rejected(
        &mut self,
        sh: &mut AdpShared,
        ctx: &mut Ctx<'_>,
        status: RdmaStatus,
    ) -> bool {
        match status {
            RdmaStatus::Ok | RdmaStatus::DeviceFailed | RdmaStatus::Unreachable => {}
            RdmaStatus::AccessViolation => {
                self.fenced = true;
                sh.stats.lock().pm_fenced += 1;
            }
            RdmaStatus::OutOfBounds => {
                self.fenced = true;
                sh.stats.lock().pm_write_faults += 1;
                ctx.trace("adp: PM trail write rejected (OutOfBounds), log frozen");
            }
        }
        self.fenced
    }

    fn trail_capacity(&self) -> u64 {
        self.region_len - PM_CTRL_BYTES
    }

    fn start_region(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>, attempt: u32) {
        let (region, region_len) = (self.region_name.clone(), self.region_len);
        self.lib.create_region(ctx, &region, region_len, true, 0);
        ctx.send_self(sh.cfg.region_retry_delay(attempt), RegionRetry { attempt });
    }

    /// Submit staged appends while the pipeline ring has room. Each
    /// submission takes EVERY currently staged append in one batched
    /// write — the deeper the backlog, the wider the batch.
    fn pump(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>) {
        if self.fenced {
            return;
        }
        if self.offload {
            self.pump_offload(sh, ctx);
            return;
        }
        while self.ring.len() < sh.cfg.pm_pipeline_depth as usize && !self.staged.is_empty() {
            // Never overtake a publishing chain: what is staged leaves as
            // the next chain, with its own cell, when this one completes.
            if self.ring.front().is_some_and(|b| b.publish.is_some()) {
                return;
            }
            let mut parts: Vec<Part> = Vec::new();
            let mut slots: Vec<AckSlot> = Vec::new();
            let mut lsn_end = 0;
            while let Some(s) = self.staged.pop_front() {
                lsn_end = s.slot.lsn_end;
                parts.extend(s.parts);
                slots.push(s.slot);
            }
            // With nothing older in flight or unpublished, everything
            // below this batch is already published, so the cell may name
            // the batch's own end and ride as the last link of its chain
            // — if the library can keep the two on one ordered channel.
            let mut publish = None;
            if self.ring.is_empty()
                && self.ctrl_write_inflight.is_none()
                && self.awaiting_ctrl.is_empty()
            {
                debug_assert_eq!(self.data_watermark, self.acked_watermark);
                publish = Some(self.ctrl_part(lsn_end));
            }
            let tok = sh.alloc_tag();
            self.tokens.insert(tok, TokenKind::Batch);
            if !self.post_batch(ctx, &parts, publish.as_ref(), tok) {
                publish = None;
            }
            let mut st = sh.stats.lock();
            st.pm_batches += 1;
            if publish.is_some() {
                self.ctrl_slot ^= 1;
                st.pm_ctrl_writes += 1;
                st.pm_ctrl_chained += 1;
            }
            drop(st);
            self.ring.push_back(Batch {
                write_token: tok,
                lsn_end,
                slots,
                parts,
                publish,
                done: false,
            });
        }
    }

    /// Post one batch: trail data rides the audit class — unless the
    /// library chains the batch's own publication behind it: a chain that
    /// gates commit acks rides the commit class, as device appends do.
    /// Says whether the cell was chained (it is not posted otherwise).
    fn post_batch(
        &mut self,
        ctx: &mut Ctx<'_>,
        parts: &[Part],
        publish: Option<&Part>,
        token: u64,
    ) -> bool {
        let region = self.region_id.expect("region ready");
        let publish = publish.map(|cell| (cell, self.commit_class));
        self.lib
            .write_batch_publish(ctx, region, parts, publish, token, self.audit_class)
    }

    /// The control-cell slot the next publication targets, encoding
    /// `watermark`. Slots alternate so a torn write to one leaves the
    /// other — holding the last published watermark — intact; the caller
    /// flips `ctrl_slot` once it commits to posting the part.
    fn ctrl_part(&self, watermark: u64) -> Part {
        let mut cell = Vec::with_capacity(PM_CTRL_SLOT_BYTES as usize);
        cell.extend_from_slice(&watermark.to_le_bytes());
        cell.extend_from_slice(&pmm::meta::crc32(&watermark.to_le_bytes()).to_le_bytes());
        let off = self.ctrl_slot as u64 * PM_CTRL_SLOT_BYTES;
        (off, Bytes::from(cell), PM_CTRL_SLOT_BYTES as u32)
    }

    /// Submit the next device-side append (offload mode): ONE mirrored
    /// append in flight, coalescing every staged append into it. The ack
    /// carries the device's new durable tail, which directly releases the
    /// covered appends — no control-cell round trip follows.
    fn pump_offload(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>) {
        if self.fenced || self.offload_inflight.is_some() || self.staged.is_empty() {
            return;
        }
        let mut data: Vec<u8> = Vec::new();
        let mut slots: Vec<AckSlot> = Vec::new();
        let mut wire_len = 0u32;
        while let Some(s) = self.staged.pop_front() {
            for (_, bytes, w) in s.parts {
                data.extend_from_slice(&bytes);
                wire_len += w;
            }
            slots.push(s.slot);
        }
        let batch = OffloadBatch {
            data: Bytes::from(data),
            wire_len,
            slots,
        };
        self.issue_offload(sh, ctx, batch);
    }

    fn issue_offload(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>, batch: OffloadBatch) {
        let tok = sh.alloc_tag();
        self.tokens.insert(tok, TokenKind::Batch);
        sh.stats.lock().pm_batches += 1;
        let region = self.region_id.expect("region ready");
        self.lib.append_class(
            ctx,
            region,
            0,
            self.trail_capacity(),
            batch.data.clone(),
            batch.wire_len,
            tok,
            self.commit_class,
        );
        self.offload_inflight = Some(batch);
    }

    /// A device append (or the boot tail probe) completed.
    fn append_complete(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>, c: PmAppendComplete) {
        match self.tokens.remove(&c.token) {
            Some(TokenKind::BootRead) => {
                // Boot/takeover tail probe: the shorter durable prefix of
                // the mirrored pair is the recovered watermark. Acked
                // appends always had both (healthy) halves' tails past
                // their end, so min() can only under-report unacked work.
                self.ctrl_read_pending = false;
                self.ready = true;
                let wm = c.tail;
                self.data_watermark = self.data_watermark.max(wm);
                self.acked_watermark = self.acked_watermark.max(wm);
                sh.next_lsn = sh.next_lsn.max(wm);
                sh.durable_upto = sh.durable_upto.max(wm);
                let pending: Vec<(EndpointId, AuditAppend)> = self.boot_pending.drain(..).collect();
                for (ep, app) in pending {
                    self.append(sh, ctx, ep, app);
                }
                sh.answer_waiters(ctx);
            }
            Some(TokenKind::Batch) => {
                let Some(batch) = self.offload_inflight.take() else {
                    return;
                };
                if self.check_rejected(sh, ctx, c.status) {
                    // Frozen: the batch dies unacked, nothing re-drives.
                    return;
                }
                if c.status != RdmaStatus::Ok {
                    // Zero halves acked (both down or unreachable):
                    // re-drive the same payload. The per-leg write
                    // timeout paces the retries, and the min-tail ack
                    // math stays correct even if one half silently
                    // persisted the earlier attempt.
                    sh.stats.lock().pm_redrives += 1;
                    self.issue_offload(sh, ctx, batch);
                    return;
                }
                // The devices' durable tails cover the whole batch:
                // release every ack straight from the append completion.
                self.data_watermark = self.data_watermark.max(c.tail);
                self.acked_watermark = self.acked_watermark.max(c.tail);
                sh.durable_upto = sh.durable_upto.max(c.tail);
                for a in batch.slots {
                    sh.send_append_done(ctx, a.from_ep, a.token, a.lsn_start, a.lsn_end);
                }
                sh.answer_waiters(ctx);
                self.pump_offload(sh, ctx);
            }
            _ => {}
        }
    }

    /// A PmLib write completed (batch or control).
    fn write_done(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>, c: PmWriteComplete) {
        let token = c.token;
        if self.check_rejected(sh, ctx, c.status) {
            // Rejected (or already frozen): the write's covered appends
            // are never acked and the pipeline stays parked.
            self.tokens.remove(&token);
            return;
        }
        if c.status != RdmaStatus::Ok {
            // No mirror half took the write (down, unreachable, timed
            // out): nothing it carried is durable, so no watermark moves
            // and no ack is released. Re-drive the same payload after the
            // library's timeout (the token stays registered until then).
            sh.stats.lock().pm_redrives += 1;
            let pace = self.lib.config().write_timeout;
            ctx.send_self(pace, Redrive { token });
            return;
        }
        match self.tokens.remove(&token) {
            Some(TokenKind::Ctrl) => {
                // Control write completed: everything through the written
                // watermark is now provably recoverable — release every
                // append it covers (coalesced publication).
                let covered = self.ctrl_write_inflight.take().map_or(0, |w| w.watermark);
                self.publish(sh, ctx, covered);
                self.maybe_write_ctrl(sh, ctx);
            }
            Some(TokenKind::Batch) => {
                if let Some(b) = self.ring.iter_mut().find(|b| b.write_token == token) {
                    b.done = true;
                }
                // Advance the contiguous data watermark from the ring
                // head; a completed batch behind an incomplete one waits.
                while self.ring.front().is_some_and(|b| b.done) {
                    let b = self.ring.pop_front().unwrap();
                    self.data_watermark = self.data_watermark.max(b.lsn_end);
                    self.awaiting_ctrl.extend(b.slots);
                    if b.publish.is_some() {
                        // Its own cell rode the chain behind the data:
                        // data, watermark and fence landed together.
                        self.publish(sh, ctx, b.lsn_end);
                    }
                }
                self.pump(sh, ctx);
                self.maybe_write_ctrl(sh, ctx);
            }
            Some(TokenKind::BootRead) | None => {}
        }
    }

    /// A cell naming `covered` is durable: everything through it is now
    /// provably recoverable — release every append it covers and answer
    /// the flush waiters.
    fn publish(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>, covered: u64) {
        self.acked_watermark = self.acked_watermark.max(covered);
        sh.durable_upto = sh.durable_upto.max(covered);
        while self
            .awaiting_ctrl
            .front()
            .is_some_and(|a| a.lsn_end <= self.acked_watermark)
        {
            let a = self.awaiting_ctrl.pop_front().unwrap();
            sh.send_append_done(ctx, a.from_ep, a.token, a.lsn_start, a.lsn_end);
        }
        sh.answer_waiters(ctx);
    }

    /// The pacing timer of a failed write fired: post the same payload to
    /// the same offsets (and the same cell slot) under the same token.
    fn redrive(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.fenced {
            return;
        }
        if let Some(i) = self.ring.iter().position(|b| b.write_token == token) {
            let (parts, publish) = (self.ring[i].parts.clone(), self.ring[i].publish.clone());
            let chained = self.post_batch(ctx, &parts, publish.as_ref(), token);
            debug_assert_eq!(chained, publish.is_some(), "stripe map moved under a batch");
        } else if let Some(w) = self.ctrl_write_inflight.as_ref() {
            if w.token == token {
                let region = self.region_id.expect("region ready");
                let part = std::slice::from_ref(&w.part);
                self.lib.write_batch(ctx, region, part, token);
            }
        }
    }

    /// Keep at most one control write in flight while the acked watermark
    /// lags the data watermark; one cell write covers every append
    /// completed since the previous one.
    fn maybe_write_ctrl(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>) {
        if self.fenced
            || self.ctrl_write_inflight.is_some()
            || self.data_watermark <= self.acked_watermark
        {
            return;
        }
        let watermark = self.data_watermark;
        let part = self.ctrl_part(watermark);
        self.ctrl_slot ^= 1;
        let token = sh.alloc_tag();
        self.tokens.insert(token, TokenKind::Ctrl);
        sh.stats.lock().pm_ctrl_writes += 1;
        let region = self.region_id.expect("region ready");
        self.lib
            .write_batch(ctx, region, std::slice::from_ref(&part), token);
        self.ctrl_write_inflight = Some(CtrlWrite {
            token,
            watermark,
            part,
        });
    }

    /// Boot/takeover: region acked → read the control cell.
    fn region_ready(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>, info: pmm::msgs::RegionInfo) {
        if self.region_id.is_none() {
            self.region_len = info.len;
            self.region_id = Some(info.region_id);
            self.lib.adopt(info);
        }
        if !self.ready && !self.ctrl_read_pending {
            let tok = sh.alloc_tag();
            self.tokens.insert(tok, TokenKind::BootRead);
            self.ctrl_read_pending = true;
            let region = self.region_id.unwrap();
            if self.offload {
                // Offload mode: the devices own the tail. Probe both
                // halves' durable append cells and recover the shorter
                // prefix instead of reading a host-managed control cell.
                self.lib.probe_tail_class(
                    ctx,
                    region,
                    0,
                    self.trail_capacity(),
                    tok,
                    self.commit_class,
                );
            } else {
                self.lib
                    .read(ctx, region, 0, 2 * PM_CTRL_SLOT_BYTES as u32, tok);
            }
        }
    }

    fn ctrl_read_done(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>, data: &[u8]) {
        // Fresh region, or both slots torn → 0: covered appends were acked
        // only after a *completed* cell write, so a torn cell can only
        // under-report unacknowledged work. With one valid slot, the next
        // write must target the OTHER slot so the survivor is preserved.
        let (wm, slot) = parse_ctrl_cell(data);
        self.ctrl_slot = slot.map(|s| 1 - s).unwrap_or(0);
        self.ctrl_read_pending = false;
        self.ready = true;
        self.data_watermark = self.data_watermark.max(wm);
        self.acked_watermark = self.acked_watermark.max(wm);
        sh.next_lsn = sh.next_lsn.max(wm);
        sh.durable_upto = sh.durable_upto.max(wm);
        // Drain appends that arrived during boot.
        let pending: Vec<(EndpointId, AuditAppend)> = self.boot_pending.drain(..).collect();
        for (ep, app) in pending {
            self.append(sh, ctx, ep, app);
        }
        sh.answer_waiters(ctx);
    }

    /// The CPU got to an append: assign its LSNs, stage its trail writes
    /// and submit with the next pipeline flush (immediately, if the ring
    /// has room).
    fn stage_append(
        &mut self,
        sh: &mut AdpShared,
        ctx: &mut Ctx<'_>,
        from_ep: EndpointId,
        app: AuditAppend,
    ) {
        if self.fenced {
            // A fenced old primary accepts no new trail work: the append
            // is dropped unacked (its requester will time out / abort).
            return;
        }
        let lsn_start = sh.next_lsn;
        let virt = (app.virtual_len as u64).max(app.records.len() as u64);
        sh.next_lsn += virt;
        let lsn_end = sh.next_lsn;

        // Stage the records for the circular trail (≤ 2 segments when the
        // trail wraps). In offload mode the device assigns the offsets
        // (and handles the wrap) itself, so the records stage whole.
        let cap = self.trail_capacity();
        let mut parts: Vec<Part> = Vec::new();
        if self.offload {
            let wire = u32::try_from(virt).expect("append exceeds the u32 wire-size field");
            parts.push((PM_CTRL_BYTES + (lsn_start % cap), app.records.clone(), wire));
        } else {
            for (off, range, wire) in split_trail_parts(lsn_start, cap, virt, app.records.len()) {
                parts.push((off, app.records.slice(range), wire));
            }
        }
        // One persistence action per appended row (§3.4 accounting); the
        // mirrored legs, wrap segments and batching are below the API.
        sh.stats.lock().pm_writes += 1;
        self.staged.push_back(StagedAppend {
            slot: AckSlot {
                from_ep,
                token: app.token,
                lsn_start,
                lsn_end,
            },
            parts,
        });
        self.pump(sh, ctx);
    }
}

impl AuditLog for PmLog {
    fn open(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>) {
        // Boot and takeover are the same: (re)open the region and recover
        // the exact durable position from the PM control cell; no shadow
        // state is needed.
        self.start_region(sh, ctx, 0);
    }

    fn append(
        &mut self,
        sh: &mut AdpShared,
        ctx: &mut Ctx<'_>,
        from_ep: EndpointId,
        app: AuditAppend,
    ) {
        // Buffer until the region + control cell are available.
        if !self.ready {
            self.boot_pending.push((from_ep, app));
            return;
        }
        // Charge the append's CPU cost and process once the CPU gets to
        // it: queue delays grow monotonically, so arrival (= LSN) order
        // is preserved while the processor, not the fabric, bounds one
        // partition's append rate.
        let now = ctx.now().as_nanos();
        let queue = sh
            .machine
            .lock()
            .cpu_work(sh.cpu, now, sh.cfg.append_cpu_ns);
        ctx.send_self(
            SimDuration::from_nanos(queue + sh.cfg.append_cpu_ns),
            CpuStaged { from_ep, app },
        );
    }

    fn flush_queued(&mut self, _sh: &mut AdpShared, _ctx: &mut Ctx<'_>) {
        // The trail is persistent immediately; the waiter is answered as
        // soon as a control write covering its LSN completes.
    }
    fn on_msg(
        &mut self,
        sh: &mut AdpShared,
        ctx: &mut Ctx<'_>,
        role: Role,
        msg: Msg,
    ) -> Option<Msg> {
        let msg = match msg.take::<RegionRetry>() {
            Ok((_, r)) => {
                if role == Role::Primary && !self.ready {
                    self.start_region(sh, ctx, r.attempt + 1);
                }
                return None;
            }
            Err(m) => m,
        };

        let msg = match msg.take::<CpuStaged>() {
            Ok((_, s)) => {
                if role == Role::Primary {
                    if self.ready {
                        self.stage_append(sh, ctx, s.from_ep, s.app);
                    } else {
                        self.boot_pending.push((s.from_ep, s.app));
                    }
                }
                return None;
            }
            Err(m) => m,
        };

        let msg = match msg.take::<Redrive>() {
            Ok((_, r)) => {
                if role == Role::Primary {
                    self.redrive(ctx, r.token);
                }
                return None;
            }
            Err(m) => m,
        };

        // Device-append completion / timeout (offload mode).
        let msg = match msg.take::<RdmaAppendDone>() {
            Ok((_, done)) => {
                if let Some(c) = self.lib.on_rdma_append_done(ctx, &done) {
                    self.append_complete(sh, ctx, c);
                }
                return None;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<PmAppendTimeout>() {
            Ok((_, t)) => {
                if let Some(c) = self.lib.on_append_timeout(ctx, &t) {
                    self.append_complete(sh, ctx, c);
                }
                return None;
            }
            Err(m) => m,
        };

        // Write completion (via the client library).
        let msg = match msg.take::<RdmaWriteDone>() {
            Ok((_, done)) => {
                if let Some(c) = self.lib.on_rdma_write_done(ctx, &done) {
                    self.write_done(sh, ctx, c);
                }
                return None;
            }
            Err(m) => m,
        };

        // Write timeout: legs that never answered fail over to the
        // survivor (degraded completion) inside the library.
        let msg = match msg.take::<PmWriteTimeout>() {
            Ok((_, t)) => {
                if let Some(c) = self.lib.on_write_timeout(ctx, &t) {
                    self.write_done(sh, ctx, c);
                }
                return None;
            }
            Err(m) => m,
        };

        // Read completions: a forcing read finishing a write's persist
        // phase (FlushOnRead mode) is claimed first; anything else is the
        // control-cell boot read.
        let msg = match msg.take::<RdmaReadDone>() {
            Ok((_, done)) => {
                if let Some(c) = self.lib.on_persist_read_done(ctx, &done) {
                    self.write_done(sh, ctx, c);
                } else if let Some(c) = self.lib.on_rdma_read_done(ctx, done) {
                    self.tokens.remove(&c.token);
                    self.ctrl_read_done(sh, ctx, &c.data);
                }
                return None;
            }
            Err(m) => m,
        };

        match msg.take::<PmReadTimeout>() {
            Ok((_, t)) => {
                if let Some(c) = self.lib.on_read_timeout(ctx, &t) {
                    self.tokens.remove(&c.token);
                    self.ctrl_read_done(sh, ctx, &c.data);
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
        role: Role,
        _from_ep: EndpointId,
        payload: Box<dyn Any + Send>,
    ) -> Option<Box<dyn Any + Send>> {
        match payload.downcast::<CreateRegionAck>() {
            Ok(ack) => {
                if let Ok(info) = ack.result {
                    if role == Role::Primary {
                        self.region_ready(sh, ctx, info);
                    }
                }
                None
            }
            Err(p) => Some(p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trail positions past 4 GiB must not wrap: the split is computed in
    /// u64 end to end, with only the per-segment wire length narrowed
    /// (checked) to u32. Exercises both sides of the 4 GiB boundary and a
    /// wrap whose first segment alone exceeds what a u32 position could
    /// have represented.
    #[test]
    fn split_preserves_positions_past_4gib() {
        const GIB: u64 = 1 << 30;
        let cap = 6 * GIB;

        // No wrap, start beyond 4 GiB: offset must keep the full position.
        let parts = split_trail_parts(5 * GIB, cap, 1024, 1024);
        assert_eq!(parts, vec![(PM_CTRL_BYTES + 5 * GIB, 0..1024usize, 1024)]);

        // Second lap of the trail (virtual LSN 11 GiB → position 5 GiB).
        let parts = split_trail_parts(11 * GIB, cap, 512, 512);
        assert_eq!(parts, vec![(PM_CTRL_BYTES + 5 * GIB, 0..512usize, 512)]);

        // Wrap across the capacity boundary at a > 4 GiB position: the
        // first segment starts past 4 GiB, the remainder restarts at the
        // trail base, and the wire lengths partition the append exactly.
        let start = 6 * GIB - 100;
        let parts = split_trail_parts(start, cap, 300, 300);
        assert_eq!(
            parts,
            vec![
                (PM_CTRL_BYTES + start, 0..100usize, 100),
                (PM_CTRL_BYTES, 100..300usize, 200),
            ]
        );

        // Virtual-length appends (records shorter than virt) still split
        // by trail geometry, clamping the byte ranges to the real payload.
        let parts = split_trail_parts(6 * GIB - 64, cap, 4096, 32);
        assert_eq!(
            parts,
            vec![
                (PM_CTRL_BYTES + 6 * GIB - 64, 0..32usize, 64),
                (PM_CTRL_BYTES, 32..32usize, 4032),
            ]
        );
    }

    #[test]
    #[should_panic(expected = "wire-size field")]
    fn oversized_segment_fails_loudly_instead_of_wrapping() {
        // A single segment wider than u32::MAX cannot be expressed on the
        // wire; it must panic, not truncate.
        split_trail_parts(0, 1 << 40, (1 << 32) + 8, 0);
    }
}
