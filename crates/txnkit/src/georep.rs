//! # Geo-replication: audit-trail log shipping to a disaster-recovery site
//!
//! The paper's §5 sketches exactly this growth path: "the persistent
//! memory abstraction ... can be extended transparently to remote
//! replicas", with the audit trail as the shipping unit — the trail is
//! already the total order the primary's recovery replays, so a replica
//! holding a byte-identical prefix of every partition's trail can take
//! over with the same partitioned redo scan a local restart uses.
//!
//! Two actors implement the pipe:
//!
//! * [`LogShipper`] (primary site) tails each audit partition's PM trail
//!   region *past its published durable watermark* — it reads the same
//!   control cell recovery reads, so it can never ship bytes the primary
//!   might still lose — and streams LSN-contiguous [`ShipBatch`]es over
//!   the WAN. Hot partitions subscribe to the ADP's watermark
//!   publications ([`crate::types::SubscribeTrail`]) and ship *eagerly*;
//!   cold partitions poll on a lazy timer (the PotionDB-style hot/cold
//!   split: eager buckets buy low RPO where it matters, lazy buckets
//!   save WAN bandwidth where it does not). A subscription lives in the
//!   ADP primary alone, so the shipper watches each hot partition's ADP
//!   pair and subscribes again to the primary a takeover promotes.
//! * [`ReplicaApply`] (DR site) owns a standby mirror of every trail
//!   region on the replica's own PM pool, written by the ADP's own trail
//!   writer ([`crate::trail`]). Every arriving batch is CRC-checked and
//!   contiguity-checked against what the replica has staged
//!   ([`validate_batch`] — a pure, panic-free function; the WAN is an
//!   adversary), staged at the same virtual offsets, and *acknowledged
//!   only once the chain carrying it — data, then the standby cell —
//!   persists*: the ack is a durability receipt, so primary-side RPO
//!   accounting (`acked`-vs-`durable` gap) is honest.
//!
//! Failover is epoch-fenced: the drill controller severs the WAN,
//! declares the primary dead, and sends the primary PMM a
//! [`pmm::msgs::FencePool`] with a strictly higher pool epoch. The PMM
//! persists the epoch on every member and engages each NPMU's
//! device-wide write fence — a revived primary ADP takes
//! `AccessViolation` on its next trail write and freezes (see
//! `adp::pm`), so the replica's divergent future can never be corrupted
//! by a zombie's acks. RPO/RTO are then *measured*, not asserted: see
//! the `georep` bench and `tests/georep_failover.rs`.

use crate::config::TxnConfig;
use crate::trail::{self, TrailCore, TrailEvent, TrailWriter};
use crate::types::{SubscribeTrail, TrailAdvance};
use bytes::Bytes;
use nsk::machine::{CpuId, SharedMachine, WatchTarget};
use nsk::ProcessDied;
use pmclient::{PmClientConfig, PmLib, PmReadTimeout};
use simcore::{Actor, ActorId, Ctx, Msg, Shared, Sim, SimDuration, TimerId};
use simnet::{EndpointId, NetDelivery, RdmaReadDone, RdmaStatus, SharedWanLink, TrafficClass};

// ---------------------------------------------------------------------
// WAN protocol
// ---------------------------------------------------------------------

/// One LSN-contiguous slice of a partition's audit trail, shipped
/// primary → replica. `payload` is the raw trail *image* bytes for
/// `[start_lsn, end_lsn)` (virtual offsets; the image may embed compact
/// record descriptors — shipping the image keeps the replica trail
/// byte-identical to the primary's, which is what makes replica-side
/// redo identical to primary-side redo).
#[derive(Clone, Debug)]
pub struct ShipBatch {
    pub partition: u32,
    pub start_lsn: u64,
    pub end_lsn: u64,
    pub payload: Bytes,
    /// CRC over `payload` — WAN transfer integrity, checked on apply.
    pub crc: u32,
    /// Where the ack goes (the shipper actor).
    pub reply_to: ActorId,
}

/// Replica → primary receipt: the standby trail is durable (data AND
/// control cell) through `applied_upto`. Also the repair signal — on a
/// gap, duplicate or corrupt batch the replica acks its *current*
/// watermark, telling the shipper where to rewind.
#[derive(Clone, Copy, Debug)]
pub struct ShipAck {
    pub partition: u32,
    pub applied_upto: u64,
}

/// Wire-size overhead modelled per WAN message beyond the payload.
const WAN_HDR_BYTES: u64 = 64;

// ---------------------------------------------------------------------
// Replica-side batch validation (pure, panic-free)
// ---------------------------------------------------------------------

/// What the replica should do with an arriving batch, given the end of
/// what it has staged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchVerdict {
    /// Stage `payload[skip..]` at virtual offset `applied`, extending the
    /// staged end to `end_lsn`.
    Apply { skip: u64 },
    /// Entirely at or behind the staged end (a WAN-delayed duplicate, or
    /// a re-ship of a batch still in flight): drop, re-ack the current
    /// watermark.
    Stale,
    /// Starts past the staged end (an earlier batch was lost): drop,
    /// re-ack so the shipper rewinds.
    Gap,
    /// Internally inconsistent — bad CRC, length/span mismatch, span
    /// wider than the trail, zero/negative span. Drop; never apply any
    /// prefix of it.
    Corrupt,
}

/// Classify `batch` against the end of what the replica has staged,
/// `applied`, for a trail of `cap` circular bytes.
///
/// This function is deliberately total: every field of `batch` is
/// attacker-controlled (bit flips, truncation, duplication, reordering
/// are all in the WAN's fault model) and the apply path must never
/// panic, never apply a partial or torn batch, and never move the
/// staged end except for a fully-validated contiguous extension.
pub fn validate_batch(applied: u64, cap: u64, batch: &ShipBatch) -> BatchVerdict {
    let Some(span) = batch.end_lsn.checked_sub(batch.start_lsn) else {
        return BatchVerdict::Corrupt; // end < start
    };
    if span == 0 || cap == 0 || span > cap {
        return BatchVerdict::Corrupt;
    }
    if span != batch.payload.len() as u64 {
        // The header promises bytes the payload does not carry (or
        // carries extra) — truncation or header damage.
        return BatchVerdict::Corrupt;
    }
    if pmm::meta::crc32(&batch.payload) != batch.crc {
        return BatchVerdict::Corrupt;
    }
    if batch.end_lsn <= applied {
        return BatchVerdict::Stale;
    }
    if batch.start_lsn > applied {
        return BatchVerdict::Gap;
    }
    // start ≤ applied < end: apply the unseen suffix. skip < span, so
    // the payload slice below is always in bounds.
    BatchVerdict::Apply {
        skip: applied - batch.start_lsn,
    }
}

// ---------------------------------------------------------------------
// Shared observability
// ---------------------------------------------------------------------

#[derive(Clone, Copy, Debug, Default)]
pub struct GeorepPartStats {
    /// Primary's published durable watermark, as last seen.
    pub durable: u64,
    /// Shipped and replica-acknowledged through here.
    pub acked: u64,
}

#[derive(Clone, Debug, Default)]
pub struct ShipperStats {
    pub batches_shipped: u64,
    pub bytes_shipped: u64,
    /// Batches offered to a down WAN (dropped whole, later re-shipped).
    pub wan_drops: u64,
    pub acks: u64,
    /// Retry-timer rewinds (lost batch or lost ack re-driven).
    pub rewinds: u64,
    pub parts: Vec<GeorepPartStats>,
}

impl ShipperStats {
    /// Acked-but-unshipped exposure right now, summed over partitions —
    /// the live RPO-bytes reading.
    pub fn rpo_bytes(&self) -> u64 {
        self.parts.iter().map(|p| p.durable - p.acked).sum()
    }
}

#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicaStats {
    pub batches_applied: u64,
    pub bytes_applied: u64,
    pub stale: u64,
    pub gaps: u64,
    pub corrupt: u64,
}

pub type SharedShipperStats = Shared<ShipperStats>;
pub type SharedReplicaStats = Shared<ReplicaStats>;

/// Drill timeline recorded by the [`GeorepController`].
#[derive(Clone, Copy, Debug, Default)]
pub struct DrillRecord {
    pub severed_at_ns: u64,
    pub fence_sent_at_ns: u64,
    /// 0 until the primary PMM acknowledges the epoch fence.
    pub fence_acked_at_ns: u64,
    pub fence_ok: bool,
}

pub type SharedDrillRecord = Shared<DrillRecord>;

// ---------------------------------------------------------------------
// Log shipper (primary site)
// ---------------------------------------------------------------------

/// Per-partition shipping knobs.
#[derive(Clone, Debug)]
pub struct ShipperConfig {
    /// Partition count == primary audit partitions; partition `i` ships
    /// eagerly iff `i < eager_partitions`.
    pub eager_partitions: u32,
    /// Cold-partition poll interval.
    pub lazy_interval: SimDuration,
    /// Re-ship pace when a batch or its ack is lost to the WAN.
    pub retry_interval: SimDuration,
}

/// Largest single batch (bytes of trail span). Sized so one batch's local
/// read — and the replica's mirrored write — serializes in a couple of
/// milliseconds at ServerNet bandwidth, well inside the DR libraries'
/// relaxed timeouts.
const MAX_BATCH: u64 = 256 << 10;

impl Default for ShipperConfig {
    fn default() -> Self {
        ShipperConfig {
            eager_partitions: u32::MAX,
            lazy_interval: SimDuration::from_millis(50),
            retry_interval: SimDuration::from_millis(20),
        }
    }
}

struct ShipperPart {
    region: String,
    region_id: Option<u64>,
    cap: u64,
    eager: bool,
    /// Primary's published durable watermark (control cell / notify).
    durable: u64,
    /// Replica-acknowledged (durable at the DR site) through here.
    acked: u64,
    /// Shipped through here; `> acked` means a batch awaits its ack.
    sent: u64,
    /// The trail span `[start, end)` being read; the read's token is
    /// `2 × partition`.
    reading: Option<(u64, u64)>,
    ship_inflight: bool,
    /// The [`RetryTick`] standing over the batch in flight.
    ship_retry: Option<TimerId>,
    /// A control-cell poll is in flight, token `2 × partition + 1`.
    ctrl_read_inflight: bool,
    subscribed: bool,
}

struct BootTick;
struct LazyTick {
    part: usize,
}
struct RetryTick {
    part: usize,
    expect: u64,
}
/// Re-drive a partition whose *local* trail read failed (transient
/// device error or timeout) — distinct from the WAN-loss retry above.
struct ReadRetryTick {
    part: usize,
}
/// Try [`LogShipper::resubscribe`] again.
struct Resubscribe {
    part: usize,
}

pub struct LogShipper {
    name: String,
    machine: SharedMachine,
    ep: EndpointId,
    cpu: CpuId,
    lib: PmLib,
    cfg: ShipperConfig,
    parts: Vec<ShipperPart>,
    region_len: u64,
    adp_names: Vec<String>,
    wan: SharedWanLink,
    replica: ActorId,
    stats: SharedShipperStats,
}

impl LogShipper {
    fn publish_part_stats(&self) {
        let mut s = self.stats.lock();
        s.parts = self
            .parts
            .iter()
            .map(|p| GeorepPartStats {
                durable: p.durable,
                acked: p.acked,
            })
            .collect();
    }

    fn boot(&mut self, ctx: &mut Ctx<'_>) {
        for i in 0..self.parts.len() {
            let (region, len) = (self.parts[i].region.clone(), self.region_len);
            self.lib.create_region(ctx, &region, len, true, i as u64);
        }
        // Regions may not exist yet (the ADPs create them on *their*
        // boot): retry until every partition is adopted.
        if self.parts.iter().any(|p| p.region_id.is_none()) {
            ctx.send_self(SimDuration::from_millis(5), BootTick);
        }
    }

    fn part_adopted(&mut self, ctx: &mut Ctx<'_>, i: usize) {
        if self.parts[i].eager && !self.parts[i].subscribed {
            self.parts[i].subscribed = true;
            let machine = self.machine.clone();
            let adp = self.adp_names[i].clone();
            nsk::proc::send_to_process(
                ctx,
                &machine,
                self.ep,
                self.cpu,
                &adp,
                32,
                SubscribeTrail { tag: i as u64 },
            );
        } else if !self.parts[i].eager {
            // Stagger cold polls so they don't beat in lockstep.
            let jitter = SimDuration::from_nanos(
                self.cfg.lazy_interval.as_nanos() * (i as u64 + 1) / (self.parts.len() as u64 + 1),
            );
            ctx.send_self(jitter, LazyTick { part: i });
        }
    }

    /// Subscribe partition `i` again after its ADP primary died, to the
    /// backup the takeover promotes. The backup hears of the death at the
    /// same instant as this shipper, in either order, and until it has
    /// promoted itself the name still resolves to the dead primary: so
    /// while a live backup waits, this waits too.
    fn resubscribe(&mut self, ctx: &mut Ctx<'_>, i: usize) {
        let backup = self.machine.lock().resolve_backup(&self.adp_names[i]);
        match backup {
            Some(b) if ctx.is_alive(b.actor) => {
                ctx.send_self(SimDuration::from_micros(1), Resubscribe { part: i })
            }
            _ => self.part_adopted(ctx, i),
        }
    }

    /// Cold-path poll: refresh the partition's published watermark from
    /// its control cell, then ship anything new.
    fn poll_ctrl(&mut self, ctx: &mut Ctx<'_>, i: usize) {
        let p = &mut self.parts[i];
        let Some(region) = p.region_id else { return };
        if p.ctrl_read_inflight {
            return;
        }
        p.ctrl_read_inflight = true;
        let tok = 2 * i as u64 + 1;
        self.lib.read(ctx, region, 0, trail::CELL_READ_LEN, tok);
    }

    /// Ship the next contiguous span if the watermark is ahead and the
    /// pipe is free (one batch in flight per partition).
    fn try_ship(&mut self, ctx: &mut Ctx<'_>, i: usize) {
        let p = &mut self.parts[i];
        let Some(region) = p.region_id else { return };
        if p.reading.is_some() || p.ship_inflight || p.durable <= p.sent {
            return;
        }
        let start = p.sent;
        let end = p.durable.min(start + MAX_BATCH);
        p.reading = Some((start, end));
        // The trail is circular: a span crossing the wrap reads as two
        // scatter-gather parts, concatenated by the library in order.
        let spans: Vec<(u64, u32)> = trail::ring_spans(start, p.cap, end - start).collect();
        self.lib
            .read_batch_class(ctx, region, &spans, 2 * i as u64, TrafficClass::Bulk);
    }

    fn data_read_done(&mut self, ctx: &mut Ctx<'_>, i: usize, start: u64, end: u64, data: Bytes) {
        if end <= self.parts[i].acked {
            // Acked while the read was in flight (stale rewind): skip.
            self.try_ship(ctx, i);
            return;
        }
        let crc = pmm::meta::crc32(&data);
        let batch = ShipBatch {
            partition: i as u32,
            start_lsn: start,
            end_lsn: end,
            payload: data,
            crc,
            reply_to: ctx.self_id(),
        };
        let bytes = batch.payload.len() as u64 + WAN_HDR_BYTES;
        let delay = self.wan.lock().transfer(ctx.now(), bytes);
        match delay {
            Some(d) => {
                ctx.send(self.replica, d, batch);
                let mut s = self.stats.lock();
                s.batches_shipped += 1;
                s.bytes_shipped += end - start;
            }
            None => {
                // WAN down: the batch dies here; the retry timer below
                // rewinds and re-ships once the link returns.
                self.stats.lock().wan_drops += 1;
            }
        }
        self.parts[i].sent = end;
        self.parts[i].ship_inflight = true;
        self.parts[i].ship_retry = Some(ctx.arm_timer(
            self.cfg.retry_interval,
            RetryTick {
                part: i,
                expect: end,
            },
        ));
    }

    fn on_ack(&mut self, ctx: &mut Ctx<'_>, ack: ShipAck) {
        let i = ack.partition as usize;
        if i >= self.parts.len() {
            return;
        }
        self.stats.lock().acks += 1;
        let p = &mut self.parts[i];
        p.acked = p.acked.max(ack.applied_upto);
        // Either way the batch in flight is answered.
        if let Some(retry) = p.ship_retry.take() {
            ctx.disarm(retry);
        }
        if ack.applied_upto >= p.sent {
            p.ship_inflight = false;
        } else {
            // The replica refused (gap/corrupt) or is behind: rewind to
            // its authoritative watermark and re-ship from there.
            p.sent = ack.applied_upto;
            p.ship_inflight = false;
            self.stats.lock().rewinds += 1;
        }
        self.publish_part_stats();
        self.try_ship(ctx, i);
    }
}

impl Actor for LogShipper {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<simcore::actor::Start>() {
            let me = ctx.self_id();
            let mut machine = self.machine.lock();
            for (p, adp) in self.parts.iter().zip(&self.adp_names) {
                if p.eager {
                    machine.watch(WatchTarget::Process(adp.clone()), me);
                }
            }
            drop(machine);
            self.boot(ctx);
            return;
        }
        // An ADP primary died: its pair's backup is promoted knowing no
        // subscriber.
        let msg = match msg.take::<ProcessDied>() {
            Ok((_, died)) => {
                let part = self.adp_names.iter().position(|n| *n == died.name);
                if let Some(i) = part.filter(|&i| died.was_primary && self.parts[i].subscribed) {
                    self.parts[i].subscribed = false;
                    self.resubscribe(ctx, i);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<Resubscribe>() {
            Ok((_, r)) => return self.resubscribe(ctx, r.part),
            Err(m) => m,
        };
        let msg = match msg.take::<BootTick>() {
            Ok(_) => {
                if self.parts.iter().any(|p| p.region_id.is_none()) {
                    self.boot(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<LazyTick>() {
            Ok((_, t)) => {
                self.poll_ctrl(ctx, t.part);
                ctx.send_self(self.cfg.lazy_interval, LazyTick { part: t.part });
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<RetryTick>() {
            Ok((_, t)) => {
                let p = &mut self.parts[t.part];
                if p.acked < t.expect && p.sent == t.expect && p.ship_inflight {
                    // The batch (or its ack) was lost: rewind and
                    // re-drive from the replica's last receipt.
                    p.sent = p.acked;
                    p.ship_inflight = false;
                    self.stats.lock().rewinds += 1;
                    self.try_ship(ctx, t.part);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<ReadRetryTick>() {
            Ok((_, t)) => {
                self.try_ship(ctx, t.part);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<ShipAck>() {
            Ok((_, ack)) => {
                self.on_ack(ctx, ack);
                return;
            }
            Err(m) => m,
        };
        // PmLib read completions.
        let msg = match msg.take::<RdmaReadDone>() {
            Ok((_, done)) => {
                if let Some(c) = self.lib.on_rdma_read_done(ctx, done) {
                    self.read_complete(ctx, c.token, c.status, c.data);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<PmReadTimeout>() {
            Ok((_, t)) => {
                if let Some(c) = self.lib.on_read_timeout(ctx, &t) {
                    self.read_complete(ctx, c.token, c.status, c.data);
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok((_, delivery)) = msg.take::<NetDelivery>() {
            let NetDelivery { payload, .. } = delivery;
            let payload = match payload.downcast::<pmm::msgs::CreateRegionAck>() {
                Ok(ack) => {
                    let i = ack.token as usize;
                    if let (true, Ok(info)) = (i < self.parts.len(), ack.result) {
                        if self.parts[i].region_id.is_none() {
                            self.parts[i].region_id = Some(info.region_id);
                            self.lib.adopt(info);
                            self.part_adopted(ctx, i);
                        }
                    }
                    return;
                }
                Err(p) => p,
            };
            if let Ok(note) = payload.downcast::<TrailAdvance>() {
                let i = note.tag as usize;
                if i < self.parts.len() {
                    self.parts[i].durable = self.parts[i].durable.max(note.durable_upto.0);
                    self.publish_part_stats();
                    self.try_ship(ctx, i);
                }
            }
        }
    }
}

impl LogShipper {
    fn read_complete(&mut self, ctx: &mut Ctx<'_>, token: u64, status: RdmaStatus, data: Bytes) {
        let part = (token / 2) as usize;
        let Some(p) = self.parts.get_mut(part) else {
            return;
        };
        if token % 2 == 1 {
            p.ctrl_read_inflight = false;
            if status == RdmaStatus::Ok {
                p.durable = p.durable.max(trail::watermark(&data));
                self.publish_part_stats();
            }
            self.try_ship(ctx, part);
        } else if let Some((start, end)) = p.reading.take() {
            if status == RdmaStatus::Ok {
                self.data_read_done(ctx, part, start, end, data);
            } else {
                // Transient local read failure: release the slot and
                // re-drive on a timer — progress must not depend on the
                // primary publishing another watermark.
                ctx.send_self(self.cfg.retry_interval, ReadRetryTick { part });
            }
        }
    }
}

// ---------------------------------------------------------------------
// Replica apply (DR site)
// ---------------------------------------------------------------------

/// The DR site's host of the trail writer ([`crate::trail`]), one trail
/// per shipped partition: batches in, [`ShipAck`]s out.
pub struct ReplicaApply {
    name: String,
    writer: TrailWriter<()>,
    /// Batches that arrived before their trail's cell was read back.
    boot_pending: Vec<Vec<ShipBatch>>,
    wan: SharedWanLink,
    /// Shipper actor, learned from the first batch (acks go back here).
    shipper: Option<ActorId>,
    stats: SharedReplicaStats,
}

/// Classify `batch` against what `core` has staged — not what it has
/// published, or a batch re-shipped while its first copy is still in
/// flight would be staged twice — and stage it if it extends that.
pub(crate) fn intake(core: &mut TrailCore<()>, batch: &ShipBatch) -> BatchVerdict {
    let end = core.staged_end();
    let verdict = validate_batch(end, core.capacity(), batch);
    if let BatchVerdict::Apply { skip } = verdict {
        let data = batch.payload.slice(skip as usize..);
        core.stage(end, data.len() as u64, data, ());
    }
    verdict
}

impl ReplicaApply {
    /// Receipt for partition `part`: its standby trail is durable through
    /// the watermark its cell publishes.
    fn send_ack(&mut self, ctx: &mut Ctx<'_>, part: usize) {
        let Some(shipper) = self.shipper else { return };
        let ack = ShipAck {
            partition: part as u32,
            applied_upto: self.writer.core(part).durable(),
        };
        if let Some(d) = self.wan.lock().transfer(ctx.now(), WAN_HDR_BYTES) {
            ctx.send(shipper, d, ack);
        }
        // A WAN-lost ack is re-driven by the shipper's retry timer: the
        // re-shipped batch classifies Stale and re-acks.
    }

    fn apply(&mut self, ctx: &mut Ctx<'_>, i: usize, batch: ShipBatch) {
        let verdict = intake(self.writer.core_mut(i), &batch);
        let mut s = self.stats.lock();
        match verdict {
            BatchVerdict::Apply { skip } => {
                s.batches_applied += 1;
                s.bytes_applied += batch.payload.len() as u64 - skip;
                drop(s);
                // Acked when the chain carrying it publishes.
                self.writer.pump(ctx, i);
                return;
            }
            BatchVerdict::Stale => s.stale += 1,
            BatchVerdict::Gap => s.gaps += 1,
            BatchVerdict::Corrupt => s.corrupt += 1,
        }
        drop(s);
        self.send_ack(ctx, i);
    }

    fn on_trail(&mut self, ctx: &mut Ctx<'_>, event: TrailEvent) {
        match event {
            // Takeover-identical boot: the standby cell is the applied
            // watermark; batches that waited for it go in now.
            TrailEvent::Booted { trail, .. } => {
                for batch in std::mem::take(&mut self.boot_pending[trail]) {
                    self.apply(ctx, trail, batch);
                }
            }
            // Durable receipt: only now does the primary count these
            // bytes as off-site.
            TrailEvent::Published { trail, .. } => {
                self.send_ack(ctx, trail);
                self.writer.pump(ctx, trail);
            }
            // The writer re-drives a failed chain; the standby pool is
            // never fenced.
            TrailEvent::Failed | TrailEvent::Rejected { .. } => {}
        }
    }
}

impl Actor for ReplicaApply {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<simcore::actor::Start>() {
            for i in 0..self.boot_pending.len() {
                self.writer.open(ctx, i, 0);
            }
            return;
        }
        let msg = match msg.take::<ShipBatch>() {
            Ok((_, batch)) => {
                self.shipper = Some(batch.reply_to);
                let i = batch.partition as usize;
                if i < self.boot_pending.len() {
                    if self.writer.ready(i) {
                        self.apply(ctx, i, batch);
                    } else {
                        self.boot_pending[i].push(batch);
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match self.writer.on_msg(ctx, msg) {
            Ok(event) => {
                if let Some(e) = event {
                    self.on_trail(ctx, e);
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok((_, delivery)) = msg.take::<NetDelivery>() {
            if let Ok(ack) = delivery.payload.downcast::<pmm::msgs::CreateRegionAck>() {
                self.writer.on_region_ack(ctx, &ack);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Drill controller
// ---------------------------------------------------------------------

struct SeverTick;
struct FenceTick;

/// Drives the failover drill timeline: sever the WAN at `sever_at`,
/// then (modelling the DR site's witness declaring the primary dead
/// after a detection timeout) epoch-fence the primary pool at
/// `fence_at` and record the ack time. The fence request travels the
/// surviving administrative path to the primary's PMM — the drill
/// models a site whose *WAN replication link* is cut and whose storage
/// must be fenced before the replica serves, not a site vaporized
/// beyond reach.
pub struct GeorepController {
    name: String,
    machine: SharedMachine,
    ep: EndpointId,
    cpu: CpuId,
    pmm: String,
    wan: SharedWanLink,
    sever_at: Option<SimDuration>,
    fence_at: Option<SimDuration>,
    fence_epoch: u64,
    record: SharedDrillRecord,
}

impl Actor for GeorepController {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<simcore::actor::Start>() {
            if let Some(at) = self.sever_at {
                ctx.send_self(at, SeverTick);
            }
            if let Some(at) = self.fence_at {
                ctx.send_self(at, FenceTick);
            }
            return;
        }
        let msg = match msg.take::<SeverTick>() {
            Ok(_) => {
                self.wan.lock().sever();
                self.record.lock().severed_at_ns = ctx.now().as_nanos();
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<FenceTick>() {
            Ok(_) => {
                self.record.lock().fence_sent_at_ns = ctx.now().as_nanos();
                let machine = self.machine.clone();
                nsk::proc::send_to_process(
                    ctx,
                    &machine,
                    self.ep,
                    self.cpu,
                    &self.pmm.clone(),
                    64,
                    pmm::msgs::FencePool {
                        epoch: self.fence_epoch,
                        token: 1,
                    },
                );
                return;
            }
            Err(m) => m,
        };
        if let Ok((_, delivery)) = msg.take::<NetDelivery>() {
            if let Ok(ack) = delivery.payload.downcast::<pmm::msgs::FencePoolAck>() {
                let mut r = self.record.lock();
                r.fence_acked_at_ns = ctx.now().as_nanos();
                r.fence_ok = ack.result.is_ok();
            }
        }
    }
}

// ---------------------------------------------------------------------
// Installation
// ---------------------------------------------------------------------

/// Everything `build_georep` wires beyond the primary node.
pub struct GeorepHandles {
    pub shipper_stats: SharedShipperStats,
    pub replica_stats: SharedReplicaStats,
    pub drill: SharedDrillRecord,
}

/// Install the shipper + replica pair (and optionally the drill
/// controller) into an already-built simulation. `adp_names[i]` owns
/// trail region `regions[i]` (same name on both sites' PMM namespaces).
#[allow(clippy::too_many_arguments)]
pub fn install_georep(
    sim: &mut Sim,
    machine: &SharedMachine,
    primary_pmm: &str,
    replica_pmm: &str,
    adp_names: &[String],
    regions: &[String],
    region_len: u64,
    txn: &TxnConfig,
    wan: SharedWanLink,
    shipper_cpu: CpuId,
    replica_cpu: CpuId,
    cfg: ShipperConfig,
    drill: Option<(SimDuration, SimDuration, u64)>,
) -> GeorepHandles {
    let shipper_stats: SharedShipperStats = Shared::new(ShipperStats::default());
    let replica_stats: SharedReplicaStats = Shared::new(ReplicaStats::default());
    let record: SharedDrillRecord = Shared::new(DrillRecord::default());
    let cap = trail::capacity(region_len);

    // Replica first: the shipper needs its actor id as the WAN target.
    let (replica_actor, _) = {
        let (m2, st2, wan2) = (machine.clone(), replica_stats.clone(), wan.clone());
        let regions2: Vec<String> = regions.to_vec();
        let (pmm2, txn2) = (replica_pmm.to_string(), txn.clone());
        nsk::machine::install_primary(sim, machine, "$GEO-APPLY", replica_cpu, move |ep| {
            // Every DR op is bulk: the replica gates no commit.
            let lib = PmLib::new(m2, ep, replica_cpu, pmm2).with_config(PmClientConfig {
                persist_mode: txn2.pm_persist_mode,
                traffic_class: TrafficClass::Bulk,
                // Bulk DR transfers serialize for milliseconds at
                // ServerNet bandwidth; the default timeouts are tuned
                // for 4 KB commit ops and would declare a healthy
                // device unreachable mid-batch.
                write_timeout: SimDuration::from_millis(50),
                read_timeout: SimDuration::from_millis(50),
                ..PmClientConfig::default()
            });
            Box::new(ReplicaApply {
                name: "$GEO-APPLY".into(),
                boot_pending: vec![Vec::new(); regions2.len()],
                writer: TrailWriter::new(lib, regions2.into_iter().map(|r| (r, region_len))),
                wan: wan2,
                shipper: None,
                stats: st2,
            })
        })
    };

    {
        let (m2, st2, wan2) = (machine.clone(), shipper_stats.clone(), wan.clone());
        let regions2: Vec<String> = regions.to_vec();
        let adps2: Vec<String> = adp_names.to_vec();
        let (pmm2, txn2, cfg2) = (primary_pmm.to_string(), txn.clone(), cfg.clone());
        nsk::machine::install_primary(sim, machine, "$GEO-SHIP", shipper_cpu, move |ep| {
            Box::new(LogShipper {
                name: "$GEO-SHIP".into(),
                machine: m2.clone(),
                ep,
                cpu: shipper_cpu,
                lib: PmLib::new(m2, ep, shipper_cpu, pmm2).with_config(PmClientConfig {
                    persist_mode: txn2.pm_persist_mode,
                    traffic_class: crate::adp::PM_COMMIT_CLASS,
                    // Same relaxed timeouts as the replica: a batch read
                    // is a multi-millisecond bulk transfer, not a 4 KB
                    // commit op.
                    write_timeout: SimDuration::from_millis(50),
                    read_timeout: SimDuration::from_millis(50),
                    ..PmClientConfig::default()
                }),
                parts: regions2
                    .iter()
                    .enumerate()
                    .map(|(i, r)| ShipperPart {
                        region: r.clone(),
                        region_id: None,
                        cap,
                        eager: (i as u32) < cfg2.eager_partitions,
                        durable: 0,
                        acked: 0,
                        sent: 0,
                        reading: None,
                        ship_inflight: false,
                        ship_retry: None,
                        ctrl_read_inflight: false,
                        subscribed: false,
                    })
                    .collect(),
                region_len,
                adp_names: adps2,
                wan: wan2,
                replica: replica_actor,
                cfg: cfg2,
                stats: st2,
            })
        });
    }

    if let Some((sever_at, fence_at, epoch)) = drill {
        let (m2, wan2, rec2) = (machine.clone(), wan.clone(), record.clone());
        let pmm2 = primary_pmm.to_string();
        nsk::machine::install_primary(sim, machine, "$GEO-CTL", shipper_cpu, move |ep| {
            Box::new(GeorepController {
                name: "$GEO-CTL".into(),
                machine: m2,
                ep,
                cpu: shipper_cpu,
                pmm: pmm2,
                wan: wan2,
                sever_at: Some(sever_at),
                fence_at: Some(fence_at),
                fence_epoch: epoch,
                record: rec2,
            })
        });
    }

    GeorepHandles {
        shipper_stats,
        replica_stats,
        drill: record,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch(start: u64, end: u64, payload: Vec<u8>) -> ShipBatch {
        let payload = Bytes::from(payload);
        let crc = pmm::meta::crc32(&payload);
        ShipBatch {
            partition: 0,
            start_lsn: start,
            end_lsn: end,
            payload,
            crc,
            reply_to: ActorId(0),
        }
    }

    #[test]
    fn verdicts_cover_the_contiguity_cases() {
        let cap = 1 << 20;
        // Fresh extension.
        assert_eq!(
            validate_batch(100, cap, &batch(100, 164, vec![7; 64])),
            BatchVerdict::Apply { skip: 0 }
        );
        // Overlapping re-ship: apply only the unseen suffix.
        assert_eq!(
            validate_batch(132, cap, &batch(100, 164, vec![7; 64])),
            BatchVerdict::Apply { skip: 32 }
        );
        // Entirely behind (duplicate).
        assert_eq!(
            validate_batch(200, cap, &batch(100, 164, vec![7; 64])),
            BatchVerdict::Stale
        );
        // Starts ahead (a batch was lost).
        assert_eq!(
            validate_batch(50, cap, &batch(100, 164, vec![7; 64])),
            BatchVerdict::Gap
        );
    }

    /// A batch re-shipped while its first copy is still staged — cut into
    /// a chain or not, but not yet published — is a duplicate: staged
    /// again, its bytes would land twice, the second copy at LSNs past
    /// the first.
    #[test]
    fn a_batch_reshipped_while_its_first_copy_is_staged_is_stale() {
        let mut core = TrailCore::new(1 << 20);
        let b = batch(0, 64, vec![7; 64]);
        assert_eq!(intake(&mut core, &b), BatchVerdict::Apply { skip: 0 });
        assert_eq!(intake(&mut core, &b), BatchVerdict::Stale);
        assert!(core.next_chain().is_some());
        assert_eq!(intake(&mut core, &b), BatchVerdict::Stale);
        assert_eq!((core.staged_end(), core.durable()), (64, 0));
        // The next batch extends what is staged, not what is published.
        let next = batch(64, 96, vec![8; 32]);
        assert_eq!(intake(&mut core, &next), BatchVerdict::Apply { skip: 0 });
        assert_eq!(
            core.complete(RdmaStatus::Ok),
            Some(trail::Completion::Published(64))
        );
        assert_eq!(core.staged_end(), 96);
    }

    #[test]
    fn corrupt_batches_never_classify_as_apply() {
        let cap = 1 << 20;
        // Bit-flipped payload.
        let mut b = batch(0, 64, vec![7; 64]);
        let mut raw = b.payload.to_vec();
        raw[13] ^= 0x40;
        b.payload = Bytes::from(raw);
        assert_eq!(validate_batch(0, cap, &b), BatchVerdict::Corrupt);
        // Truncated payload under an intact header.
        let mut b = batch(0, 64, vec![7; 64]);
        b.payload = b.payload.slice(..32);
        assert_eq!(validate_batch(0, cap, &b), BatchVerdict::Corrupt);
        // Inverted span.
        assert_eq!(
            validate_batch(0, cap, &batch(64, 0, vec![])),
            BatchVerdict::Corrupt
        );
        // Empty span.
        assert_eq!(
            validate_batch(0, cap, &batch(64, 64, vec![])),
            BatchVerdict::Corrupt
        );
        // Span wider than the trail.
        assert_eq!(
            validate_batch(0, 64, &batch(0, 128, vec![7; 128])),
            BatchVerdict::Corrupt
        );
    }
}
