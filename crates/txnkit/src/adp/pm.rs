//! PM audit backend (the paper's ADP): every append is written to the
//! mirrored PM region immediately — "the database log is persistent
//! immediately" — and there is exactly one way it gets there:
//!
//! * Appends are assigned LSNs on arrival and staged. With nothing in
//!   flight, every staged append leaves as ONE ordered write chain
//!   ([`pmclient::PmLib::write_batch_publish`]) whose last link is the
//!   16-byte control cell naming the chain's own end. The device applies a
//!   chain in order and the library closes it with the persist fence, so
//!   trail data, watermark and durability arrive in ONE fabric round trip.
//! * The trail region is placed [`PlacementHint::Solo`]: one extent on one
//!   member volume, so data and cell always share one ordered channel. A
//!   single writer's bytes all leave through its own transmit port, so
//!   striping one trail would buy no bandwidth; partitions, not stripes,
//!   spread audit load over the pool's members.
//! * At most one chain is in flight. Appends arriving behind it stay
//!   staged and leave together as the next chain when it completes —
//!   coalescing is the throughput mechanism. The chain's completion is the
//!   only durability signal there is: it publishes the watermark, releases
//!   every covered ack and answers the commit-flush waiters.
//! * A chain that no mirror half took is **re-driven** verbatim — same
//!   offsets, same cell slot — and never advances the watermark. A chain
//!   the device *rejects* (fence, out of bounds) freezes the log instead.
//!
//! There is **no backup checkpoint at all** — exactly the redundancy
//! §3.4 says PM eliminates. Takeover recovers the exact durable position
//! by reading the control cell back: acks only ever followed a
//! *completed* chain, so a torn or stale cell can only under-report
//! unacknowledged work, never lose an acknowledged append.

use super::{AdpShared, AuditLog};
use crate::types::*;
use bytes::Bytes;
use nsk::machine::{CpuId, SharedMachine};
use pmclient::{PmClientConfig, PmLib, PmReadTimeout, PmWriteComplete, PmWriteTimeout};
use pmm::msgs::CreateRegionAck;
use pmm::PlacementHint;
use simcore::{Ctx, Msg, SimDuration, TimerId};
use simnet::{EndpointId, PersistMode, RdmaReadDone, RdmaStatus, RdmaWriteDone, TrafficClass};
use std::any::Any;
use std::collections::VecDeque;

/// Bytes reserved at the base of a PM trail region for the control cell.
/// The cell is double-buffered: two 16 B slots at offsets 0 and 16,
/// written alternately so a torn slot write can never destroy the last
/// valid watermark.
pub const PM_CTRL_BYTES: u64 = 64;

/// One control-cell slot: `watermark u64 LE + crc32(watermark) u32 LE +
/// 4 B pad`.
pub const PM_CTRL_SLOT_BYTES: u64 = 16;

/// Encode one control-cell slot's payload: `watermark u64 LE +
/// crc32(watermark) u32 LE`. A write of it is sized
/// [`PM_CTRL_SLOT_BYTES`]; the pad is never read.
pub fn encode_ctrl_slot(watermark: u64) -> [u8; 12] {
    let wm = watermark.to_le_bytes();
    let mut cell = [0u8; 12];
    cell[..8].copy_from_slice(&wm);
    cell[8..].copy_from_slice(&pmm::meta::crc32(&wm).to_le_bytes());
    cell
}

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
/// `lsn_start` into ≤ 2 circular-trail segments, yielded in trail order:
/// `(region_off, record_byte_range, wire_len)` per segment. All positions
/// and lengths are computed in `u64` — a trail's virtual length passes
/// 4 GiB in long-running populations, and narrowing them would silently
/// wrap the stream a geo-replica ships from this trail. Only the fabric's
/// per-write size field is `u32`, and that conversion is checked: a
/// single segment wider than `u32::MAX` fails loudly instead of
/// corrupting the trail.
pub(crate) fn split_trail_parts(
    lsn_start: u64,
    cap: u64,
    virt: u64,
    records_len: usize,
) -> impl Iterator<Item = (u64, std::ops::Range<usize>, u32)> {
    let wire = |len: u64| -> u32 {
        u32::try_from(len).expect("trail segment exceeds the u32 wire-size field")
    };
    let pos = lsn_start % cap;
    let off = PM_CTRL_BYTES + pos;
    let segments = if pos + virt <= cap {
        [Some((off, 0..records_len, wire(virt))), None]
    } else {
        let first = cap - pos;
        let cut = usize::try_from(first)
            .unwrap_or(records_len)
            .min(records_len);
        [
            Some((off, 0..cut, wire(first))),
            Some((PM_CTRL_BYTES, cut..records_len, wire(virt - first))),
        ]
    };
    segments.into_iter().flatten()
}

/// Retry timer for PM region creation at startup/takeover, disarmed once
/// the log is ready. `attempt` counts the RPCs already sent, driving the
/// capped exponential backoff.
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

/// Pacing timer for re-driving a chain that failed on every mirror half.
struct Redrive;

/// One `(region offset, payload, wire length)` part of a library write.
type Part = (u64, Bytes, u32);

/// The ack owed for one append once a chain covering it completes.
struct AckSlot {
    from_ep: EndpointId,
    token: u64,
    lsn_start: u64,
    lsn_end: u64,
}

/// An append staged for the next chain: its trail writes (the second is
/// there only when the circular trail wraps) and the ack it owes.
struct StagedAppend {
    slot: AckSlot,
    parts: [Option<Part>; 2],
}

/// The chain in flight. The payload is kept so a failed round can be
/// re-driven verbatim; once the chain completes, its emptied `slots` and
/// `parts` carry the next one.
struct Chain {
    token: u64,
    lsn_end: u64,
    slots: Vec<AckSlot>,
    parts: Vec<Part>,
    /// The control-cell slot naming `lsn_end`, the chain's last link.
    cell: Part,
}

pub(crate) struct PmLog {
    lib: PmLib,
    region_name: String,
    region_id: Option<u64>,
    region_len: u64,
    /// Reading the control cell during takeover/boot.
    ctrl_read_pending: bool,
    ready: bool,
    /// The [`RegionRetry`] standing over region creation until `ready`.
    region_retry: Option<TimerId>,
    /// Appends with LSNs assigned, waiting for the next chain.
    staged: VecDeque<StagedAppend>,
    inflight: Option<Chain>,
    /// The last completed chain's vectors, emptied, for the next `pump`.
    spare: (Vec<Part>, Vec<AckSlot>),
    /// Which control-cell slot the NEXT chain targets (the other slot
    /// holds the last published watermark).
    ctrl_slot: usize,
    /// Appends received before the region/cell were ready.
    boot_pending: Vec<(EndpointId, AuditAppend)>,
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
    ) -> Self {
        PmLog {
            // Every op of this library gates commit acks — each trail
            // chain carries the cell that releases them — so they all
            // ride the commit class.
            lib: PmLib::new(machine, ep, cpu, pmm).with_config(PmClientConfig {
                persist_mode,
                traffic_class: commit_class,
                ..PmClientConfig::default()
            }),
            region_name,
            region_id: None,
            region_len,
            ctrl_read_pending: false,
            ready: false,
            region_retry: None,
            staged: VecDeque::new(),
            inflight: None,
            spare: (Vec::new(), Vec::new()),
            ctrl_slot: 0,
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

    fn start_region(&mut self, ctx: &mut Ctx<'_>, attempt: u32) {
        let (region, region_len) = (self.region_name.clone(), self.region_len);
        // One extent on one member: the cell must share an ordered
        // channel with every byte of trail data it names.
        self.lib
            .create_region_placed(ctx, &region, region_len, true, PlacementHint::Solo, 0);
        let delay = crate::config::region_retry_delay(attempt);
        self.region_retry = Some(ctx.arm_timer(delay, RegionRetry { attempt }));
    }

    /// With nothing in flight, post EVERY currently staged append as one
    /// chain closed by the cell naming its end — the deeper the backlog,
    /// the wider the chain.
    fn pump(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>) {
        if self.fenced || self.inflight.is_some() || self.staged.is_empty() {
            return;
        }
        let (mut parts, mut slots) = std::mem::take(&mut self.spare);
        let mut lsn_end = 0;
        while let Some(s) = self.staged.pop_front() {
            lsn_end = s.slot.lsn_end;
            parts.extend(s.parts.into_iter().flatten());
            slots.push(s.slot);
        }
        self.inflight = Some(Chain {
            token: sh.alloc_tag(),
            lsn_end,
            slots,
            parts,
            cell: self.ctrl_part(lsn_end),
        });
        self.ctrl_slot ^= 1;
        self.post_inflight(ctx);
        let mut st = sh.stats.lock();
        st.pm_batches += 1;
        st.pm_ctrl_writes += 1;
    }

    /// Post the chain in flight: the same payload to the same offsets
    /// (and the same cell slot) under the same token, every time.
    fn post_inflight(&mut self, ctx: &mut Ctx<'_>) {
        let Some(chain) = &self.inflight else {
            return;
        };
        let region = self.region_id.expect("region ready");
        let class = self.lib.config().traffic_class;
        self.lib.write_batch_publish(
            ctx,
            region,
            &chain.parts,
            Some(&chain.cell),
            chain.token,
            class,
        );
    }

    /// The control-cell slot the next chain targets, encoding
    /// `watermark`. Slots alternate so a torn write to one leaves the
    /// other — holding the last published watermark — intact; the caller
    /// flips `ctrl_slot` once it commits to posting the part.
    fn ctrl_part(&self, watermark: u64) -> Part {
        let off = self.ctrl_slot as u64 * PM_CTRL_SLOT_BYTES;
        (
            off,
            Bytes::copy_from_slice(&encode_ctrl_slot(watermark)),
            PM_CTRL_SLOT_BYTES as u32,
        )
    }

    /// The chain in flight completed.
    fn write_done(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>, c: PmWriteComplete) {
        if self.check_rejected(sh, ctx, c.status) {
            // Rejected (or already frozen): the chain's appends are never
            // acked and the log stays parked.
            return;
        }
        if c.status != RdmaStatus::Ok {
            // No mirror half took the chain (down, unreachable, timed
            // out): nothing it carried is durable, so the watermark does
            // not move and no ack is released. Re-drive the same payload
            // after the library's timeout.
            sh.stats.lock().pm_redrives += 1;
            let pace = self.lib.config().write_timeout;
            ctx.send_self(pace, Redrive);
            return;
        }
        let Some(mut chain) = self.inflight.take() else {
            return;
        };
        // Its cell rode behind the data: data, watermark and fence landed
        // together, so everything through `lsn_end` is provably
        // recoverable — release every append the chain carried.
        sh.durable_upto = sh.durable_upto.max(chain.lsn_end);
        for a in chain.slots.drain(..) {
            sh.send_append_done(ctx, a.from_ep, a.token, a.lsn_start, a.lsn_end);
        }
        chain.parts.clear();
        self.spare = (chain.parts, chain.slots);
        sh.answer_waiters(ctx);
        self.pump(sh, ctx);
    }

    /// Boot/takeover: region acked → read the control cell.
    fn region_ready(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>, info: pmm::msgs::RegionInfo) {
        if self.region_id.is_none() {
            self.region_len = info.len;
            self.region_id = Some(info.region_id);
            self.lib.adopt(info);
        }
        if !self.ready && !self.ctrl_read_pending {
            self.ctrl_read_pending = true;
            let (region, tok) = (self.region_id.unwrap(), sh.alloc_tag());
            self.lib
                .read(ctx, region, 0, 2 * PM_CTRL_SLOT_BYTES as u32, tok);
        }
    }

    fn ctrl_read_done(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>, data: &[u8]) {
        // Fresh region, or both slots torn → 0: covered appends were acked
        // only after a *completed* chain, so a torn cell can only
        // under-report unacknowledged work. With one valid slot, the next
        // write must target the OTHER slot so the survivor is preserved.
        let (wm, slot) = parse_ctrl_cell(data);
        self.ctrl_slot = slot.map(|s| 1 - s).unwrap_or(0);
        self.ctrl_read_pending = false;
        self.ready = true;
        if let Some(retry) = self.region_retry.take() {
            ctx.disarm(retry);
        }
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
    /// and submit with the next chain (immediately, if none is in
    /// flight).
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
        // trail wraps).
        let cap = self.trail_capacity();
        let mut parts = [None, None];
        let segments = split_trail_parts(lsn_start, cap, virt, app.records.len());
        for (part, (off, range, wire)) in parts.iter_mut().zip(segments) {
            *part = Some((off, app.records.slice(range), wire));
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
    fn open(&mut self, _sh: &mut AdpShared, ctx: &mut Ctx<'_>) {
        // Boot and takeover are the same: (re)open the region and recover
        // the exact durable position from the PM control cell; no shadow
        // state is needed.
        self.start_region(ctx, 0);
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
            .pair
            .machine
            .lock()
            .cpu_work(sh.pair.cpu, now, sh.cfg.append_cpu_ns);
        ctx.send_self(
            SimDuration::from_nanos(queue + sh.cfg.append_cpu_ns),
            CpuStaged { from_ep, app },
        );
    }

    fn flush_queued(&mut self, _sh: &mut AdpShared, _ctx: &mut Ctx<'_>) {
        // The trail is persistent immediately; the waiter is answered as
        // soon as a chain covering its LSN completes.
    }
    fn on_msg(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>, msg: Msg) -> Option<Msg> {
        let msg = match msg.take::<RegionRetry>() {
            Ok((_, r)) => {
                if sh.pair.is_primary() && !self.ready {
                    self.start_region(ctx, r.attempt + 1);
                }
                return None;
            }
            Err(m) => m,
        };

        let msg = match msg.take::<CpuStaged>() {
            Ok((_, s)) => {
                if sh.pair.is_primary() {
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

        // The pacing timer of a failed chain fired.
        let msg = match msg.take::<Redrive>() {
            Ok(_) => {
                if sh.pair.is_primary() && !self.fenced {
                    self.post_inflight(ctx);
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
                    self.ctrl_read_done(sh, ctx, &c.data);
                }
                return None;
            }
            Err(m) => m,
        };

        match msg.take::<PmReadTimeout>() {
            Ok((_, t)) => {
                if let Some(c) = self.lib.on_read_timeout(ctx, &t) {
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
        payload: Box<dyn Any>,
    ) -> Option<Box<dyn Any>> {
        match payload.downcast::<CreateRegionAck>() {
            Ok(ack) => {
                if let Ok(info) = ack.result {
                    if sh.pair.is_primary() {
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
        let split = |start, virt, len| split_trail_parts(start, cap, virt, len).collect::<Vec<_>>();
        let parts = split(5 * GIB, 1024, 1024);
        assert_eq!(parts, vec![(PM_CTRL_BYTES + 5 * GIB, 0..1024usize, 1024)]);

        // Second lap of the trail (virtual LSN 11 GiB → position 5 GiB).
        let parts = split(11 * GIB, 512, 512);
        assert_eq!(parts, vec![(PM_CTRL_BYTES + 5 * GIB, 0..512usize, 512)]);

        // Wrap across the capacity boundary at a > 4 GiB position: the
        // first segment starts past 4 GiB, the remainder restarts at the
        // trail base, and the wire lengths partition the append exactly.
        let start = 6 * GIB - 100;
        let parts = split(start, 300, 300);
        assert_eq!(
            parts,
            vec![
                (PM_CTRL_BYTES + start, 0..100usize, 100),
                (PM_CTRL_BYTES, 100..300usize, 200),
            ]
        );

        // Virtual-length appends (records shorter than virt) still split
        // by trail geometry, clamping the byte ranges to the real payload.
        let parts = split(6 * GIB - 64, 4096, 32);
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
        split_trail_parts(0, 1 << 40, (1 << 32) + 8, 0).for_each(drop);
    }
}
