//! # The PM audit trail: its format and its one writer
//!
//! A PM trail region is a control cell of [`PM_CTRL_BYTES`] — two
//! [`PM_CTRL_SLOT_BYTES`] slots written in turn, the higher valid one the
//! watermark the trail is durable through — then a ring holding virtual
//! LSN `l` at `l mod cap` ([`split_trail_parts`]). This module is the
//! format's one home, and holds the trail's one writer in two layers:
//!
//! * [`TrailCore`] is pure. With nothing in flight it cuts every staged
//!   append into one chain, closed by the cell naming the chain's end in
//!   the slot the last published watermark is not in. A completion
//!   publishes that end and releases the chain's acks, or fails — the
//!   same parts and slot are re-driven — or is rejected, which freezes
//!   the trail: nothing is posted, acked or re-driven again.
//! * `TrailWriter` is the shell around one core per region, sharing one
//!   `PmLib`: it creates each region `Solo` (the cell shares an ordered
//!   channel with every byte it names) under a capped-backoff
//!   `RegionRetry`, boots the core from the cell read back, posts chains
//!   on the library's traffic class, routes the completions and paces
//!   re-drives.
//!
//! Its hosts are the ADP (`adp::pm::PmLog`) and the DR replica
//! (`georep::ReplicaApply`). Acks only ever follow a completed chain, so
//! a torn or stale cell under-reports unacked work, never loses an ack.

use bytes::Bytes;
use pmclient::{PmLib, PmReadComplete, PmReadTimeout, PmWriteComplete, PmWriteTimeout};
use pmm::msgs::CreateRegionAck;
use pmm::PlacementHint;
use simcore::{Ctx, Msg, TimerId};
use simnet::{RdmaReadDone, RdmaStatus, RdmaWriteDone};
use std::ops::Range;

/// Bytes reserved at the base of a PM trail region for the control cell.
/// The cell is double-buffered: two 16 B slots at offsets 0 and 16,
/// written alternately so a torn slot write can never destroy the last
/// valid watermark.
pub const PM_CTRL_BYTES: u64 = 64;

/// One control-cell slot: `watermark u64 LE + crc32(watermark) u32 LE +
/// 4 B pad`.
pub const PM_CTRL_SLOT_BYTES: u64 = 16;

/// The length of a read of the whole control cell (both slots).
pub const CELL_READ_LEN: u32 = 2 * PM_CTRL_SLOT_BYTES as u32;

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

/// The watermark a control cell publishes (0 if neither slot is valid).
pub fn watermark(cell: &[u8]) -> u64 {
    parse_ctrl_cell(cell).0
}

/// The ring capacity of a trail region `region_len` bytes long.
pub fn capacity(region_len: u64) -> u64 {
    region_len.saturating_sub(PM_CTRL_BYTES)
}

/// Split a region's image, read from its base, into its control cell and
/// its ring.
pub fn split_image(mut image: Vec<u8>) -> (Vec<u8>, Vec<u8>) {
    let ring = image.split_off(image.len().min(PM_CTRL_BYTES as usize));
    (image, ring)
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
pub fn split_trail_parts(
    lsn_start: u64,
    cap: u64,
    virt: u64,
    records_len: usize,
) -> impl Iterator<Item = (u64, Range<usize>, u32)> {
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

/// The `(region offset, length)` spans holding the ring's bytes for the
/// `len` LSNs from `lsn_start`, in LSN order (two when they wrap).
pub fn ring_spans(lsn_start: u64, cap: u64, len: u64) -> impl Iterator<Item = (u64, u32)> {
    split_trail_parts(lsn_start, cap, len, 0).map(|(off, _, wire)| (off, wire))
}

/// One `(region offset, payload, wire length)` part of a chain.
pub type Part = (u64, Bytes, u32);

/// A chain's completion, as the core folds it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Completion {
    /// The chain is durable: the trail is published through `watermark`,
    /// and [`TrailCore::released`] holds the acks it carried.
    Published(u64),
    /// No mirror half took it: re-drive [`TrailCore::inflight`] as it is.
    Failed,
    /// The device rejected it, or the trail is frozen already.
    Rejected,
}

/// The chain in flight: kept whole so a failed round is re-driven
/// verbatim.
struct Chain<A> {
    parts: Vec<Part>,
    acks: Vec<A>,
    cell: Part,
    end: u64,
}

/// The trail writer's pure state: what is staged, what is in flight, and
/// which cell slot the next chain writes. `A` is the ack a host owes for
/// one staged append once a chain covering it completes.
pub struct TrailCore<A> {
    cap: u64,
    /// The staged appends' parts, in LSN order, and their acks.
    parts: Vec<Part>,
    acks: Vec<A>,
    /// The end of everything staged, in flight or published.
    staged_end: u64,
    chain: Option<Chain<A>>,
    /// The acks the last published chain released, until the next chain.
    released: Vec<A>,
    /// The last published chain's parts vector, emptied, for the next
    /// staging: a chain allocates no vector once the trail is warm.
    spare: Vec<Part>,
    /// The cell slot the next chain writes; the other one holds the last
    /// published watermark.
    slot: usize,
    durable: u64,
    frozen: bool,
}

impl<A> TrailCore<A> {
    /// A core for a ring of `cap` bytes, before its cell is read.
    pub fn new(cap: u64) -> Self {
        TrailCore {
            cap,
            parts: Vec::new(),
            acks: Vec::new(),
            staged_end: 0,
            chain: None,
            released: Vec::new(),
            spare: Vec::new(),
            slot: 0,
            durable: 0,
            frozen: false,
        }
    }

    /// Boot from the cell read back from the region: returns the
    /// watermark it publishes and the slot the next chain writes — the
    /// one the watermark is not in, so a torn write cannot destroy it.
    pub fn boot(&mut self, cell: &[u8]) -> (u64, usize) {
        let (wm, slot) = parse_ctrl_cell(cell);
        self.slot = slot.map_or(0, |s| 1 - s);
        self.durable = self.durable.max(wm);
        self.staged_end = self.staged_end.max(wm);
        (wm, self.slot)
    }

    /// Stage one append of `virt` virtual bytes at `lsn_start`, carrying
    /// `bytes` (at most `virt` of them), owing `ack` once it is durable.
    pub fn stage(&mut self, lsn_start: u64, virt: u64, bytes: Bytes, ack: A) {
        let segments = split_trail_parts(lsn_start, self.cap, virt, bytes.len());
        for (off, range, wire) in segments {
            self.parts.push((off, bytes.slice(range), wire));
        }
        self.acks.push(ack);
        self.staged_end = lsn_start + virt;
    }

    /// With nothing in flight, the trail not frozen and something staged,
    /// cut everything staged into the next chain and return it: its parts
    /// and the cell naming its end, the chain's last link.
    pub fn next_chain(&mut self) -> Option<(&[Part], &Part)> {
        if self.frozen || self.chain.is_some() || self.acks.is_empty() {
            return None;
        }
        self.released.clear();
        let acks = std::mem::replace(&mut self.acks, std::mem::take(&mut self.released));
        let parts = std::mem::replace(&mut self.parts, std::mem::take(&mut self.spare));
        let cell = Bytes::copy_from_slice(&encode_ctrl_slot(self.staged_end));
        let off = self.slot as u64 * PM_CTRL_SLOT_BYTES;
        self.slot ^= 1;
        self.chain = Some(Chain {
            parts,
            acks,
            cell: (off, cell, PM_CTRL_SLOT_BYTES as u32),
            end: self.staged_end,
        });
        self.inflight()
    }

    /// The chain in flight, exactly as it was first cut; none once the
    /// trail is frozen, so nothing is re-driven past a rejection.
    pub fn inflight(&self) -> Option<(&[Part], &Part)> {
        let chain = self.chain.as_ref().filter(|_| !self.frozen);
        chain.map(|c| (&c.parts[..], &c.cell))
    }

    /// Fold the completion of the chain in flight. Only `Ok` publishes;
    /// `AccessViolation` (an engaged write fence) and `OutOfBounds` (bytes
    /// the region does not own, which no re-post cures) freeze the trail;
    /// anything else leaves the chain to be re-driven.
    pub fn complete(&mut self, status: RdmaStatus) -> Option<Completion> {
        if self.frozen {
            return Some(Completion::Rejected);
        }
        match status {
            RdmaStatus::AccessViolation | RdmaStatus::OutOfBounds => {
                self.frozen = true;
                Some(Completion::Rejected)
            }
            RdmaStatus::DeviceFailed | RdmaStatus::Unreachable => Some(Completion::Failed),
            RdmaStatus::Ok => {
                let mut c = self.chain.take()?;
                self.durable = self.durable.max(c.end);
                c.parts.clear();
                self.spare = c.parts;
                self.released = c.acks;
                Some(Completion::Published(self.durable))
            }
        }
    }

    /// The acks the last published chain carried.
    pub fn released(&self) -> &[A] {
        &self.released
    }

    /// The end of everything staged so far: where the next append goes.
    pub fn staged_end(&self) -> u64 {
        self.staged_end
    }

    /// The published watermark.
    pub fn durable(&self) -> u64 {
        self.durable
    }

    pub fn capacity(&self) -> u64 {
        self.cap
    }

    pub fn frozen(&self) -> bool {
        self.frozen
    }
}

/// Retry timer over trail `trail`'s region creation, disarmed once its
/// cell is read. `attempt` counts the RPCs already sent, driving the
/// capped exponential backoff.
struct RegionRetry {
    trail: usize,
    attempt: u32,
}

/// Pacing timer for re-driving trail `trail`'s chain after no mirror half
/// took it.
struct Redrive {
    trail: usize,
}

/// What a trail's host hears from the [`TrailWriter`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum TrailEvent {
    /// The cell was read back: the trail is ready, published through
    /// `watermark`.
    Booted { trail: usize, watermark: u64 },
    /// A chain completed: its core's `released` holds its acks.
    Published { trail: usize, watermark: u64 },
    /// A chain failed and will be re-driven after the write timeout.
    Failed,
    /// A chain came back `status` on a frozen (now or before) trail.
    Rejected { status: RdmaStatus },
}

struct Trail<A> {
    name: String,
    len: u64,
    region: Option<u64>,
    /// The [`RegionRetry`] standing until the cell is read.
    retry: Option<TimerId>,
    reading: bool,
    ready: bool,
    core: TrailCore<A>,
}

/// The shell around one [`TrailCore`] per trail region, sharing one
/// `PmLib`; trail `i` is also every library token it uses.
pub(crate) struct TrailWriter<A> {
    lib: PmLib,
    trails: Vec<Trail<A>>,
}

impl<A> TrailWriter<A> {
    /// A writer over the regions `(name, length)`, posting on `lib`'s
    /// traffic class.
    pub fn new(lib: PmLib, regions: impl IntoIterator<Item = (String, u64)>) -> Self {
        let trails = regions.into_iter().map(|(name, len)| Trail {
            name,
            len,
            region: None,
            retry: None,
            reading: false,
            ready: false,
            core: TrailCore::new(capacity(len)),
        });
        TrailWriter {
            lib,
            trails: trails.collect(),
        }
    }

    pub fn ready(&self, trail: usize) -> bool {
        self.trails[trail].ready
    }

    pub fn core(&self, trail: usize) -> &TrailCore<A> {
        &self.trails[trail].core
    }

    pub fn core_mut(&mut self, trail: usize) -> &mut TrailCore<A> {
        &mut self.trails[trail].core
    }

    /// Create (or open) trail `trail`'s region, one extent on one member,
    /// and stand the retry over it.
    pub fn open(&mut self, ctx: &mut Ctx<'_>, trail: usize, attempt: u32) {
        let t = &mut self.trails[trail];
        self.lib
            .create_region_placed(ctx, &t.name, t.len, true, PlacementHint::Solo, trail as u64);
        let delay = crate::config::region_retry_delay(attempt);
        t.retry = Some(ctx.arm_timer(delay, RegionRetry { trail, attempt }));
    }

    /// A region ack: adopt the region and read its cell back, once.
    pub fn on_region_ack(&mut self, ctx: &mut Ctx<'_>, ack: &CreateRegionAck) {
        let trail = ack.token as usize;
        let (Some(t), Ok(info)) = (self.trails.get_mut(trail), &ack.result) else {
            return;
        };
        if t.region.is_none() {
            t.region = Some(info.region_id);
            t.core = TrailCore::new(capacity(info.len));
            self.lib.adopt(info.clone());
        }
        if let (false, false, Some(region)) = (t.ready, t.reading, t.region) {
            t.reading = true;
            self.lib.read(ctx, region, 0, CELL_READ_LEN, trail as u64);
        }
    }

    /// Post trail `trail`'s next chain, if the core cuts one. Returns
    /// whether it did.
    pub fn pump(&mut self, ctx: &mut Ctx<'_>, trail: usize) -> bool {
        let t = &mut self.trails[trail];
        let Some(region) = t.region else {
            return false;
        };
        let Some((parts, cell)) = t.core.next_chain() else {
            return false;
        };
        let class = self.lib.config().traffic_class;
        self.lib
            .write_batch_publish(ctx, region, parts, Some(cell), trail as u64, class);
        true
    }

    /// Route a message: the writer's own timers and the library's
    /// completions. Anything else is handed back.
    pub fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) -> Result<Option<TrailEvent>, Msg> {
        let msg = match msg.take::<RegionRetry>() {
            Ok((_, r)) => {
                if !self.trails[r.trail].ready {
                    self.open(ctx, r.trail, r.attempt + 1);
                }
                return Ok(None);
            }
            Err(m) => m,
        };
        let msg = match msg.take::<Redrive>() {
            Ok((_, r)) => {
                let t = &self.trails[r.trail];
                if let (Some(region), Some((parts, cell))) = (t.region, t.core.inflight()) {
                    let class = self.lib.config().traffic_class;
                    let token = r.trail as u64;
                    self.lib
                        .write_batch_publish(ctx, region, parts, Some(cell), token, class);
                }
                return Ok(None);
            }
            Err(m) => m,
        };
        let msg = match msg.take::<RdmaWriteDone>() {
            Ok((_, done)) => {
                let c = self.lib.on_rdma_write_done(ctx, &done);
                return Ok(c.and_then(|c| self.written(ctx, c)));
            }
            Err(m) => m,
        };
        // Legs that never answered fail over to the survivor (a degraded
        // completion) inside the library.
        let msg = match msg.take::<PmWriteTimeout>() {
            Ok((_, t)) => {
                let c = self.lib.on_write_timeout(ctx, &t);
                return Ok(c.and_then(|c| self.written(ctx, c)));
            }
            Err(m) => m,
        };
        // A forcing read finishing a chain's persist phase (FlushOnRead)
        // is claimed first; any other read is a cell read.
        let msg = match msg.take::<RdmaReadDone>() {
            Ok((_, done)) => {
                if let Some(c) = self.lib.on_persist_read_done(ctx, &done) {
                    return Ok(self.written(ctx, c));
                }
                let c = self.lib.on_rdma_read_done(ctx, done);
                return Ok(c.map(|c| self.booted(ctx, c)));
            }
            Err(m) => m,
        };
        match msg.take::<PmReadTimeout>() {
            Ok((_, t)) => {
                let c = self.lib.on_read_timeout(ctx, &t);
                Ok(c.map(|c| self.booted(ctx, c)))
            }
            Err(m) => Err(m),
        }
    }

    fn written(&mut self, ctx: &mut Ctx<'_>, c: PmWriteComplete) -> Option<TrailEvent> {
        let trail = c.token as usize;
        let t = self.trails.get_mut(trail)?;
        Some(match t.core.complete(c.status)? {
            Completion::Published(watermark) => TrailEvent::Published { trail, watermark },
            Completion::Failed => {
                let pace = self.lib.config().write_timeout;
                ctx.send_self(pace, Redrive { trail });
                TrailEvent::Failed
            }
            Completion::Rejected => TrailEvent::Rejected { status: c.status },
        })
    }

    /// The cell came back (a failed read reads as a fresh cell).
    fn booted(&mut self, ctx: &mut Ctx<'_>, c: PmReadComplete) -> TrailEvent {
        let trail = c.token as usize;
        let t = &mut self.trails[trail];
        let (watermark, _) = t.core.boot(&c.data);
        t.reading = false;
        t.ready = true;
        if let Some(retry) = t.retry.take() {
            ctx.disarm(retry);
        }
        TrailEvent::Booted { trail, watermark }
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
