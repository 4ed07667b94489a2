//! The PMM process-pair actor: one process pair managing a *pool* of
//! mirrored NPMU member volumes behind a single region namespace.
//!
//! Request pipeline for a *mutating* operation (create/delete/fence):
//!
//! 1. mutate the in-memory pool namespace and the derived per-member
//!    region tables, bump the pool epoch and every member's epoch;
//! 2. RDMA-write each member's encoded metadata (which embeds a replica
//!    of the pool namespace) to the alternate slot of **both** of that
//!    member's mirrors, wait for all hardware acks (the metadata is now
//!    durable and self-consistent on every member);
//! 3. checkpoint the new state to the backup, wait for its ack (NonStop
//!    discipline: checkpoint *before externalizing state changes*);
//! 4. program/revoke ATT windows as needed and reply to the client.
//!
//! Opens and closes touch only ATT hardware state (volatile by design —
//! after a power loss clients must reopen), so they skip step 2.
//!
//! The backup applies checkpoints and watches the primary; when the
//! primary dies it is promoted ([`nsk::pair`]) and continues service with
//! the checkpointed state. Requests in flight at the moment of failure
//! are lost — clients retry, exactly as NSK message clients do across a
//! takeover.
//!
//! # Per-member mirror failure and online resilvering
//!
//! Every member volume runs its *own* durable health state machine
//! ([`HealthState`]): `Healthy → Degraded → Resilvering → Healthy`. A
//! half failing on member 2 degrades member 2 only; members 0, 1 and 3
//! keep both mirrors and stay Healthy — failure domains are per member,
//! which is what makes the pool scale fault containment along with
//! bandwidth.
//!
//! *Detection.* Two independent paths per member: the PMM's own
//! metadata-write legs (a NACK or timeout from one half is first-hand
//! evidence), and client [`ReportMirrorFailure`] hints (now carrying the
//! member volume), which the PMM confirms with a probe read before
//! acting. While a member is degraded, its metadata writes go to the
//! survivor only, and a probe read is sent to the dead half on a timer.
//!
//! *Resilvering.* When a dead half answers a probe, the PMM repairs it
//! **online** — clients keep writing (to both halves again) throughout,
//! and the other members serve their stripes undisturbed — *by exception*
//! and *on the devices*: both halves digest every allocated chunk
//! (coalesced `rdma_scrub` commands, 8 bytes back per chunk) and the
//! survivor pushes only the chunks whose digests differ straight to the
//! revived half (`rdma_copy`, NPMU→NPMU) — no payload byte crosses the
//! PMM's ports. A chunk that digests equal leaves the run for good: from
//! then on every foreground write lands on both halves, so the only
//! writer that can move the revived half backwards is the resilver's own
//! copy (stale by its round trip), and a copied chunk is always digested
//! again. The verify after a copy therefore looks at what was just copied
//! and at what mismatched for the first time beside it, never at
//! everything; after the first pass (whose mismatches *are* the outage) a
//! chunk is re-copied only when two looks running disagreed. The one
//! signal that a foreground leg did not land — a client
//! [`ReportMirrorFailure`] naming the half under repair — voids the clean
//! marks: the whole range is digested once more before the member is
//! declared healthy with a metadata write to both of its mirrors. Work is
//! proportional to what diverged (plus one scan of what is allocated); a
//! blank replacement half mismatches everywhere and is copied whole
//! through the same path.
//!
//! # Placement and striping
//!
//! Region creation consults the pool's [`PlacementPolicy`]: small
//! regions land whole on the member with the most free space (capacity
//! balancing), large ones are striped in fixed-size chunks across
//! members so aggregate write bandwidth scales with the pool. The stripe
//! map is part of the durable pool namespace and is handed to clients in
//! the create/open ack — the PMM stays off the data path.

use crate::alloc;
use crate::bulk::{BulkRun, Chunk, Phase, Step, SCRUB_BATCH};
use crate::meta::{HealthState, MetaStore, RegionMeta, VolumeMeta, META_BYTES, SLOT_BYTES};
use crate::msgs::*;
use npmu::att::{AttEntry, CpuFilter};
use npmu::device::NpmuHandle;
use nsk::machine::{CpuId, SharedMachine};
use nsk::pair::{Died, Inbound, Pair, Role};
use pmpool::{
    stripe_extent_lens, Extent, Placement, PlacementPolicy, PoolMeta, PoolRegionMeta, StripeMap,
};
use simcore::{Actor, Ctx, Msg, Shared, Sim, SimDuration, TimerId};
use simnet::{
    rdma_copy, rdma_read, rdma_scrub, rdma_write, send_net_msg, EndpointId, NetDelivery,
    RdmaCopyDone, RdmaReadDone, RdmaScrubDone, RdmaStatus, RdmaWriteDone, TrafficClass,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// CPU cost charged per management op, ns.
const OP_CPU_NS: u64 = 15_000;
/// Probe reads with no answer by then count as failed (silent-drop
/// devices never NACK).
const PROBE_TIMEOUT: SimDuration = SimDuration::from_millis(5);
/// Metadata slot writes with unanswered legs by then treat those legs as
/// failed (and degrade the member volume).
const META_WRITE_TIMEOUT: SimDuration = SimDuration::from_millis(5);
/// Bulk-transfer window: how many units the engine keeps in flight at
/// once per run — chunks being copied device to device, or coalesced
/// scrub runs being digested — pipelining the source device's port and
/// scan engine.
const TRANSFER_WINDOW: u32 = 8;
/// A bulk step (device copy or scrub) with no answer by then aborts its
/// run (a resilver back to Degraded). Per-op watchdogs stretch this by the
/// worst-case queueing behind a full window: port time for a copy, device
/// scan time for a digest.
const RESILVER_STEP_TIMEOUT: SimDuration = SimDuration::from_millis(10);

#[derive(Clone, Debug)]
pub struct PmmConfig {
    /// While a member is degraded, how often to probe its dead half.
    pub probe_interval: SimDuration,
    /// Resilver granularity, bytes: the unit of a device copy and of a
    /// device digest.
    pub resilver_chunk: u32,
    /// How new regions are laid out across pool members.
    pub placement: PlacementPolicy,
}

impl Default for PmmConfig {
    fn default() -> Self {
        PmmConfig {
            probe_interval: SimDuration::from_millis(50),
            resilver_chunk: 256 * 1024,
            placement: PlacementPolicy::default(),
        }
    }
}

/// Counters for failure handling and resilvering, shared with
/// the test / bench harness via [`PmmHandle::stats`] (pool aggregate) and
/// [`PmmHandle::vol_stats`] (per member volume).
#[derive(Clone, Copy, Debug, Default)]
pub struct PmmStats {
    /// Healthy → Degraded transitions.
    pub degraded_events: u64,
    /// Client `ReportMirrorFailure` messages received.
    pub failure_reports: u64,
    /// Probe reads issued to a dead half.
    pub probes_sent: u64,
    /// Metadata-write legs lost to a failed mirror.
    pub meta_leg_failures: u64,
    /// Bytes copied survivor → revived across all resilver passes.
    pub resilver_bytes_copied: u64,
    /// Bytes the devices digested for resilver verify passes, both halves
    /// counted (a chunk looked at once adds twice its length).
    pub resilver_bytes_digested: u64,
    /// Verify passes that did not end their run: each found a mismatch
    /// (and is followed by a copy or a second look) or had its clean
    /// marks voided.
    pub resilver_extra_passes: u64,
    /// Resilvers started / completed.
    pub resilvers_started: u64,
    pub resilvers_completed: u64,
    /// Virtual timestamps of the last resilver start / completion.
    pub resilver_started_ns: u64,
    pub resilver_completed_ns: u64,
    /// Times a resilver copy was denied fabric
    /// admission by the QoS token bucket and backed off.
    pub bulk_throttle_waits: u64,
}

pub type SharedPmmStats = Shared<PmmStats>;

/// State checkpointed from primary to backup (whole-state: it is small).
#[derive(Clone)]
struct PmmCkpt {
    pool: PoolMeta,
    vols_meta: Vec<VolumeMeta>,
    open_cpus: BTreeMap<u64, BTreeSet<u32>>,
}

/// What a pending op still waits for, and how to finish it.
struct PendingOp {
    waiting_writes: u32,
    /// The [`MetaWriteTimeout`] standing over those writes.
    write_timeout: Option<TimerId>,
    waiting_ckpt: bool,
    reply_to_ep: EndpointId,
    reply: PendingReply,
    /// ATT programming to perform when the op commits.
    att_actions: Vec<AttAction>,
}

impl PendingOp {
    /// An op that will wait for its metadata writes, then program ATT and
    /// send `reply` to `reply_to_ep`.
    fn new(reply_to_ep: EndpointId, reply: PendingReply, att_actions: Vec<AttAction>) -> Self {
        PendingOp {
            waiting_writes: 0,
            write_timeout: None,
            waiting_ckpt: false,
            reply_to_ep,
            reply,
            att_actions,
        }
    }
}

enum PendingReply {
    Create(u64, Result<RegionInfo, PmError>),
    Delete(u64, Result<(), PmError>),
    /// Epoch fence (token, new epoch): engage every member's device
    /// write fence once the epoch bump is durable, then ack.
    Fence(u64, u64),
    /// Internal state-machine transition (health changes): no client ack.
    Internal,
}

enum AttAction {
    /// (Re)program every extent window of a region for its CPU set.
    MapRegion { region_id: u64 },
    /// Remove windows at `(member volume, device base)` pairs.
    UnmapExtents(Vec<(usize, u64)>),
}

// --- self-addressed timers -------------------------------------------------
// The three `*Timeout`s each stand over one operation and are disarmed
// where it is answered; the tick and the back-off always act when due.

/// Periodic revival probe while a member is degraded.
struct ProbeTick {
    vol: usize,
}
/// A probe read got no answer.
struct ProbeTimeout {
    rid: u64,
}
/// A metadata slot write has unanswered legs.
struct MetaWriteTimeout {
    token: u64,
}
/// A bulk step (device copy or scrub) got no answer.
struct BulkStepTimeout {
    rid: u64,
}
/// The QoS token bucket denied a copy chunk; retry member `vol`'s
/// resilver admission.
struct BulkBackoff {
    vol: usize,
}

/// Why a probe read was sent.
#[derive(Clone, Copy)]
enum ProbeKind {
    /// Confirm a client failure report before degrading.
    Confirm { half: u8 },
    /// Check a dead half for revival.
    Revival { half: u8 },
}

/// Which engine step an RDMA op id belongs to (offsets are device
/// offsets, the same on both halves).
enum BulkOp {
    /// One device-to-device copy of the chunk queued at `off`.
    Copy { off: u64, len: u32 },
    /// One half's digests of the scrub run queued at `off` (party 0 is
    /// the survivor, 1 the revived half).
    Scrub { off: u64, len: u64, party: usize },
}

struct ResilverRun {
    half: u8,
    since_epoch: u64,
    dirty_upto: u64,
    /// The engine: survivor → revived copies, both halves' digests.
    bulk: BulkRun,
    /// Offsets of chunks whose next mismatch is copied rather than looked
    /// at again: every chunk in a full-range pass (that mismatch is the
    /// outage), afterwards the chunks the previous pass found divergent
    /// and left alone — a chunk is re-copied only once two passes
    /// running have disagreed about it.
    suspects: BTreeSet<u64>,
    /// What the verify after the copy in progress looks at: the chunks
    /// being copied and the first-time mismatches found beside them.
    recheck: Vec<Chunk>,
    /// A client reported a failed write leg to the half under repair:
    /// chunks that digested equal may have diverged since.
    voided: bool,
}

/// One mirrored member volume of the pool, with its own durable
/// metadata, health machine and resilver state.
struct VolState {
    npmu_a: NpmuHandle,
    npmu_b: NpmuHandle,
    meta: VolumeMeta,
    resilver: Option<ResilverRun>,
    probe_tick_armed: bool,
    stats: SharedPmmStats,
}

/// Handle returned by [`install_pmm_pool`].
#[derive(Clone)]
pub struct PmmHandle {
    pub name: String,
    pub primary_cpu: CpuId,
    pub backup_cpu: Option<CpuId>,
    /// Member 0's mirrors (the pre-pool single-volume fields).
    pub npmu_a: NpmuHandle,
    pub npmu_b: NpmuHandle,
    /// Every member's mirrored pair, in pool order.
    pub volumes: Vec<(NpmuHandle, NpmuHandle)>,
    /// Pool-aggregate counters.
    pub stats: SharedPmmStats,
    /// Per-member counters, in pool order.
    pub vol_stats: Vec<SharedPmmStats>,
}

pub struct PmmProc {
    /// The pair; a checkpoint's waiter is the token of the op it protects.
    pair: Pair<u64>,
    cfg: PmmConfig,
    /// PMM CPUs (primary + backup): always allowed through region ATT
    /// windows — a device checks the *commanding* CPU before a copy or a
    /// scrub reads region bytes on the manager's behalf.
    att_cpus: Vec<u32>,
    /// Pool members, index = member volume id.
    vols: Vec<VolState>,
    /// The pool-wide region namespace (replicated into every member's
    /// durable metadata).
    pool: PoolMeta,
    open_cpus: BTreeMap<u64, BTreeSet<u32>>,
    pending: BTreeMap<u64, PendingOp>,
    next_op: u64,
    /// RDMA op id → (pending op token, member volume, mirror half).
    rdma_ops: BTreeMap<u64, (u64, usize, u8)>,
    next_rdma: u64,
    /// Outstanding probe reads, each with its [`ProbeTimeout`].
    probes: BTreeMap<u64, (usize, ProbeKind, TimerId)>,
    /// Outstanding device copies and scrubs of every member's resilver,
    /// by member, each with its [`BulkStepTimeout`].
    bulk_ops: BTreeMap<u64, (usize, BulkOp, TimerId)>,
    /// Pool-aggregate counters (every member's events also land here).
    stats: SharedPmmStats,
}

// --- pool ↔ member-metadata derivation (also used at install) -------------

/// Rebuild one member's region table from the pool namespace: every
/// extent the member holds becomes a local `RegionMeta`. Striped regions
/// appear under `name#<slot>` so per-member tables stay unique by name.
fn apply_pool_to_member(pool: &PoolMeta, volume: u32, meta: &mut VolumeMeta) {
    meta.next_region_id = pool.next_region_id;
    meta.regions = pool
        .regions
        .iter()
        .flat_map(|r| {
            let n = r.map.extents.len();
            r.map
                .extents
                .iter()
                .enumerate()
                .filter(move |(_, e)| e.volume == volume)
                .map(move |(slot, e)| RegionMeta {
                    id: r.id,
                    name: if n == 1 {
                        r.name.clone()
                    } else {
                        format!("{}#{slot}", r.name)
                    },
                    base: e.base,
                    len: e.len,
                    owner_cpu: r.owner_cpu,
                })
        })
        .collect();
}

/// Recover the pool namespace from the members' recovered metadata: the
/// replica with the highest pool epoch wins. Pre-pool images (no pool
/// trailer anywhere) are upgraded in place: member 0's region table
/// becomes a namespace of solo extents on volume 0.
fn recover_pool(metas: &[VolumeMeta]) -> PoolMeta {
    if let Some(best) = metas
        .iter()
        .filter_map(|m| m.pool.as_ref())
        .max_by_key(|p| p.epoch)
    {
        return best.clone();
    }
    let m0 = &metas[0];
    PoolMeta {
        epoch: m0.epoch,
        next_region_id: m0.next_region_id,
        regions: m0
            .regions
            .iter()
            .map(|r| PoolRegionMeta {
                id: r.id,
                name: r.name.clone(),
                len: r.len,
                owner_cpu: r.owner_cpu,
                map: StripeMap::solo(0, r.base, r.len),
            })
            .collect(),
    }
}

impl PmmProc {
    fn device_capacity(&self, vol: usize) -> u64 {
        self.vols[vol].npmu_a.mem.lock().capacity()
    }

    fn charge_cpu(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now().as_nanos();
        self.pair
            .machine
            .lock()
            .cpu_work(self.pair.cpu, now, OP_CPU_NS);
    }

    fn half_ep(&self, vol: usize, half: u8) -> EndpointId {
        if half == 0 {
            self.vols[vol].npmu_a.ep
        } else {
            self.vols[vol].npmu_b.ep
        }
    }

    /// Update a counter on both the pool aggregate and the member's own
    /// stats block.
    fn vol_stat(&self, vol: usize, f: impl Fn(&mut PmmStats)) {
        f(&mut self.stats.lock());
        f(&mut self.vols[vol].stats.lock());
    }

    /// Metadata write targets for a member's current health: both halves
    /// when healthy or resilvering (the revived device must converge),
    /// the survivor only while degraded.
    fn meta_write_halves(&self, vol: usize) -> Vec<u8> {
        match self.vols[vol].meta.health {
            HealthState::Degraded { half, .. } => vec![1 - half],
            _ => vec![0, 1],
        }
    }

    /// Write the current metadata of the given members durably (each to
    /// its health-appropriate halves, with the pool namespace embedded);
    /// returns the pending-op token the request is parked under.
    fn start_meta_write(&mut self, ctx: &mut Ctx<'_>, mut op: PendingOp, targets: &[usize]) -> u64 {
        let token = self.next_op;
        self.next_op += 1;
        let mut total_legs = 0u32;
        let mut writes: Vec<(usize, u8, u64, bytes::Bytes)> = Vec::new();
        for &vol in targets {
            self.vols[vol].meta.pool = Some(self.pool.clone());
            let buf = self.vols[vol].meta.encode();
            debug_assert!(buf.len() as u64 <= SLOT_BYTES);
            let slot = MetaStore::slot_for_epoch(self.vols[vol].meta.epoch);
            let data = bytes::Bytes::from(buf);
            for half in self.meta_write_halves(vol) {
                total_legs += 1;
                writes.push((vol, half, slot, data.clone()));
            }
        }
        op.waiting_writes = total_legs;
        for (vol, half, slot, data) in writes {
            let rid = self.next_rdma;
            self.next_rdma += 1;
            self.rdma_ops.insert(rid, (token, vol, half));
            let net = self.pair.net.clone();
            rdma_write(
                ctx,
                &net,
                self.pair.ep,
                self.half_ep(vol, half),
                slot,
                data,
                rid,
                TrafficClass::Commit,
            );
        }
        op.write_timeout = Some(ctx.arm_timer(META_WRITE_TIMEOUT, MetaWriteTimeout { token }));
        self.pending.insert(token, op);
        token
    }

    /// All member indices, for pool-wide metadata writes.
    fn all_vols(&self) -> Vec<usize> {
        (0..self.vols.len()).collect()
    }

    /// A namespace mutation happened: bump the pool epoch, re-derive
    /// every member's region table, bump every member's epoch (their
    /// embedded pool replicas all change), and raise the resilver bound
    /// of any member that is missing a half.
    fn commit_namespace_change(&mut self) {
        self.pool.epoch += 1;
        for v in 0..self.vols.len() {
            apply_pool_to_member(&self.pool, v as u32, &mut self.vols[v].meta);
            self.vols[v].meta.epoch += 1;
            let high = self.alloc_high_water(v);
            match &mut self.vols[v].meta.health {
                HealthState::Degraded { dirty_upto, .. }
                | HealthState::Resilvering { dirty_upto, .. } => {
                    *dirty_upto = (*dirty_upto).max(high);
                }
                HealthState::Healthy => {}
            }
        }
    }

    /// Checkpoint the whole state, `waiter` parked on the ack.
    fn send_ckpt(&mut self, ctx: &mut Ctx<'_>, waiter: Option<u64>, approx_bytes: u32) {
        let ckpt = PmmCkpt {
            pool: self.pool.clone(),
            vols_meta: self.vols.iter().map(|v| v.meta.clone()).collect(),
            open_cpus: self.open_cpus.clone(),
        };
        self.pair.send_checkpoint(ctx, waiter, approx_bytes, ckpt);
    }

    /// Step an op forward once its durable writes landed: checkpoint, or
    /// commit straight away if there is no backup.
    fn after_writes(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.pair.has_backup() {
            if let Some(op) = self.pending.get_mut(&token) {
                op.waiting_ckpt = true;
            }
            self.send_ckpt(ctx, Some(token), 1024);
        } else {
            self.commit(ctx, token);
        }
    }

    /// An op's checkpoint is acknowledged, or lost its reader with the
    /// backup: either way the op no longer waits on it.
    fn checkpoint_done(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(op) = self.pending.get_mut(&token) else {
            return;
        };
        op.waiting_ckpt = false;
        if op.waiting_writes == 0 {
            self.commit(ctx, token);
        }
    }

    /// Finish an op: program ATT, send the reply.
    fn commit(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let Some(op) = self.pending.remove(&token) else {
            return;
        };
        for action in &op.att_actions {
            match action {
                AttAction::MapRegion { region_id } => self.program_region_att(*region_id),
                AttAction::UnmapExtents(list) => {
                    for &(vol, base) in list {
                        self.vols[vol].npmu_a.att.lock().unmap(base);
                        self.vols[vol].npmu_b.att.lock().unmap(base);
                    }
                }
            }
        }
        let net = self.pair.net.clone();
        match op.reply {
            PendingReply::Create(tok, result) => {
                send_net_msg(
                    ctx,
                    &net,
                    self.pair.ep,
                    op.reply_to_ep,
                    128,
                    CreateRegionAck { token: tok, result },
                );
            }
            PendingReply::Delete(tok, result) => {
                send_net_msg(
                    ctx,
                    &net,
                    self.pair.ep,
                    op.reply_to_ep,
                    64,
                    DeleteRegionAck { token: tok, result },
                );
            }
            PendingReply::Fence(tok, epoch) => {
                // The epoch bump is durable on every member: drop the
                // portcullis. The PMM's own endpoint stays exempt so
                // metadata writes, probes and resilvers keep working;
                // peer-DMA (resilver copies) passes via the peer set.
                for v in &self.vols {
                    for h in [&v.npmu_a, &v.npmu_b] {
                        let mut f = h.write_fence.lock();
                        f.engaged = true;
                        f.exempt.insert(self.pair.ep);
                    }
                }
                send_net_msg(
                    ctx,
                    &net,
                    self.pair.ep,
                    op.reply_to_ep,
                    64,
                    FencePoolAck {
                        token: tok,
                        result: Ok(epoch),
                    },
                );
            }
            PendingReply::Internal => {}
        }
    }

    /// (Re)program every extent window of a region, on both mirrors of
    /// each extent's member, from `open_cpus`. The PMM's own CPUs are
    /// always included: the copies and scrubs it commands during resilvers
    /// read region bytes under its identity.
    fn program_region_att(&mut self, region_id: u64) {
        let Some(r) = self.pool.find_by_id(region_id) else {
            return;
        };
        let extents = r.map.extents.clone();
        let mut cpus: Vec<u32> = self
            .open_cpus
            .get(&region_id)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default();
        for c in &self.att_cpus {
            if !cpus.contains(c) {
                cpus.push(*c);
            }
        }
        for e in extents {
            let vol = &self.vols[e.volume as usize];
            for att in [&vol.npmu_a.att, &vol.npmu_b.att] {
                let mut att = att.lock();
                att.unmap(e.base);
                att.map(AttEntry {
                    nva_base: e.base,
                    len: e.len,
                    phys_base: e.base,
                    allowed: CpuFilter::Only(cpus.clone()),
                });
            }
        }
    }

    fn region_info(&self, r: &PoolRegionMeta) -> RegionInfo {
        RegionInfo {
            region_id: r.id,
            len: r.len,
            map: r.map.clone(),
            volumes: r
                .map
                .volumes()
                .into_iter()
                .map(|v| VolumeEps {
                    volume: v,
                    primary_ep: self.vols[v as usize].npmu_a.ep,
                    mirror_ep: self.vols[v as usize].npmu_b.ep,
                })
                .collect(),
        }
    }

    fn client_cpu(&self, from_ep: EndpointId) -> u32 {
        self.pair
            .machine
            .lock()
            .cpu_of_ep(from_ep)
            .map(|c| c.0)
            .unwrap_or(0)
    }

    // --- per-member mirror-health state machine --------------------------

    /// A member's allocation high-water mark: nothing above it was ever
    /// allocated on that member, so nothing above it can have diverged.
    fn alloc_high_water(&self, vol: usize) -> u64 {
        self.vols[vol]
            .meta
            .regions
            .iter()
            .map(|r| r.base + r.len)
            .max()
            .unwrap_or(META_BYTES)
    }

    /// First-hand or confirmed evidence that a member's `half` is down:
    /// record the degraded state durably (on that member's survivor) and
    /// start probing. Other members are untouched.
    fn go_degraded(&mut self, ctx: &mut Ctx<'_>, vol: usize, half: u8) {
        match self.vols[vol].meta.health {
            HealthState::Healthy => {}
            HealthState::Degraded { .. } | HealthState::Resilvering { .. } => {
                // Already handling a half of this member; a failure of
                // the *other* half while one is out means total mirror
                // loss on the member — keep the original state.
                return;
            }
        }
        self.vol_stat(vol, |s| s.degraded_events += 1);
        self.vols[vol].meta.epoch += 1;
        self.vols[vol].meta.health = HealthState::Degraded {
            half,
            since_epoch: self.vols[vol].meta.epoch,
            dirty_upto: self.alloc_high_water(vol),
        };
        // If the half comes back before it is resilvered, its contents
        // are stale: fence client reads off it now (writes stay open).
        self.update_read_fence(vol);
        let op = self.internal_op();
        self.start_meta_write(ctx, op, &[vol]);
        self.arm_probe_tick(ctx, vol);
    }

    fn internal_op(&self) -> PendingOp {
        PendingOp::new(self.pair.ep, PendingReply::Internal, Vec::new())
    }

    fn arm_probe_tick(&mut self, ctx: &mut Ctx<'_>, vol: usize) {
        if self.vols[vol].probe_tick_armed {
            return;
        }
        self.vols[vol].probe_tick_armed = true;
        ctx.send_self(self.cfg.probe_interval, ProbeTick { vol });
    }

    /// Small read against a member half's metadata window (always mapped
    /// for the PMM CPUs) to ask "are you alive?".
    fn send_probe(&mut self, ctx: &mut Ctx<'_>, vol: usize, kind: ProbeKind) {
        let half = match kind {
            ProbeKind::Confirm { half } | ProbeKind::Revival { half } => half,
        };
        let rid = self.next_rdma;
        self.next_rdma += 1;
        self.vol_stat(vol, |s| s.probes_sent += 1);
        let net = self.pair.net.clone();
        rdma_read(
            ctx,
            &net,
            self.pair.ep,
            self.half_ep(vol, half),
            0,
            64,
            rid,
            TrafficClass::Commit,
        );
        let timeout = ctx.arm_timer(PROBE_TIMEOUT, ProbeTimeout { rid });
        self.probes.insert(rid, (vol, kind, timeout));
    }

    fn on_probe_result(&mut self, ctx: &mut Ctx<'_>, vol: usize, kind: ProbeKind, ok: bool) {
        match kind {
            ProbeKind::Confirm { half } => {
                if !ok {
                    self.go_degraded(ctx, vol, half);
                }
            }
            ProbeKind::Revival { half } => {
                let degraded_this_half = matches!(
                    self.vols[vol].meta.health,
                    HealthState::Degraded { half: h, .. } if h == half
                );
                if !degraded_this_half {
                    return;
                }
                if ok {
                    self.begin_resilver(ctx, vol);
                } else {
                    self.arm_probe_tick(ctx, vol);
                }
            }
        }
    }

    /// A member's dead half answered: find what diverged and copy it back
    /// while foreground writes (to every member) continue.
    fn begin_resilver(&mut self, ctx: &mut Ctx<'_>, vol: usize) {
        let HealthState::Degraded {
            half,
            since_epoch,
            dirty_upto,
        } = self.vols[vol].meta.health
        else {
            return;
        };
        let now = ctx.now().as_nanos();
        self.vol_stat(vol, |s| {
            s.resilvers_started += 1;
            s.resilver_started_ns = now;
        });
        self.vols[vol].meta.epoch += 1;
        self.vols[vol].meta.health = HealthState::Resilvering {
            half,
            since_epoch,
            dirty_upto,
            pass: 0,
        };
        // From here this member's metadata writes go to both halves
        // again, so the revived device's slots converge.
        let op = self.internal_op();
        self.start_meta_write(ctx, op, &[vol]);
        // Region windows may be unmapped after a cold restart; make sure
        // the PMM CPUs can reach every extent before copying.
        let ids: Vec<u64> = self.pool.regions.iter().map(|r| r.id).collect();
        for id in ids {
            self.program_region_att(id);
        }
        // The revived half is stale until a verify pass is clean: keep
        // the client read fence armed (reads fail over to the survivor)
        // while foreground writes converge it.
        self.update_read_fence(vol);
        let queue = self.resilver_chunks(vol, dirty_upto);
        self.vols[vol].resilver = Some(ResilverRun {
            half,
            since_epoch,
            dirty_upto,
            suspects: queue.iter().map(|&(off, _)| off).collect(),
            bulk: BulkRun::new(
                Phase::Verify,
                queue,
                TRANSFER_WINDOW,
                self.cfg.resilver_chunk,
            ),
            recheck: Vec::new(),
            voided: false,
        });
        self.bulk_pump(ctx, vol);
    }

    /// Arm or lift the stale-half read fence from the member's health: a
    /// Degraded/Resilvering member's failed half serves reads only to the
    /// PMM CPUs (probe/resilver traffic) until it verifies clean, so
    /// clients can never observe pre-failure bytes through an open
    /// window. Writes stay open — foreground mirrored writes keep
    /// converging the half. The fence is volatile ATT state, so this is
    /// re-applied on restart/takeover by `resume_health`.
    fn update_read_fence(&mut self, vol: usize) {
        let fenced_half = match self.vols[vol].meta.health {
            HealthState::Degraded { half, .. } | HealthState::Resilvering { half, .. } => {
                Some(half)
            }
            HealthState::Healthy => None,
        };
        for half in [0u8, 1u8] {
            let att = if half == 0 {
                &self.vols[vol].npmu_a.att
            } else {
                &self.vols[vol].npmu_b.att
            };
            let fence = if Some(half) == fenced_half {
                Some(CpuFilter::Only(self.att_cpus.clone()))
            } else {
                None
            };
            att.lock().set_read_fence(fence);
        }
    }

    /// Per-op watchdog for a device copy of `len` payload bytes: the
    /// configured step timeout plus worst-case port queueing behind a full
    /// window of chunk transfers ahead of it. The payload rides source →
    /// destination on the pair's own link, so what an op really waits
    /// behind is its own run's window; the `active_members` factor dates
    /// from chunks funneling through the PMM's NIC and is kept as slack —
    /// a watchdog sized too tightly makes concurrent resilvers time out,
    /// abort and restart each other forever, and ROADMAP item 6 derives
    /// every deadline from the model in one place.
    fn step_timeout(&self, len: u32) -> SimDuration {
        let wire = simnet::latency::wire_ns(&self.pair.net.lock().cfg, len);
        let window = TRANSFER_WINDOW as u64;
        let active = self.vols.iter().filter(|v| v.resilver.is_some()).count() as u64;
        SimDuration::from_nanos(
            RESILVER_STEP_TIMEOUT.as_nanos() + (window * active.max(1) + 2) * wire,
        )
    }

    /// Per-op watchdog for a scrub. Its bytes never cross the wire; what
    /// it waits for is the device's scan engine, behind up to a full
    /// window of scrubs of [`SCRUB_BATCH`] chunks — the largest this
    /// engine issues. Every device scans for itself, so concurrent runs
    /// do not stretch each other here.
    fn digest_timeout(&self) -> SimDuration {
        let window = TRANSFER_WINDOW as u64;
        let unit = SCRUB_BATCH as u64 * self.cfg.resilver_chunk as u64;
        SimDuration::from_nanos(
            RESILVER_STEP_TIMEOUT.as_nanos() + (window + 1) * npmu::digest_ns(unit),
        )
    }

    /// `len` bytes from `base` up, cut into `resilver_chunk` pieces.
    fn chunks(&self, base: u64, len: u64) -> impl Iterator<Item = Chunk> {
        let chunk = self.cfg.resilver_chunk.max(1) as u64;
        (0..len.div_ceil(chunk)).map(move |i| {
            let at = i * chunk;
            (base + at, chunk.min(len - at) as u32)
        })
    }

    /// Chunk list covering every allocated byte of the member's extents
    /// below `dirty_upto`.
    fn resilver_chunks(&self, vol: usize, dirty_upto: u64) -> VecDeque<Chunk> {
        let mut regions: Vec<(u64, u64)> = self.vols[vol]
            .meta
            .regions
            .iter()
            .filter(|r| r.base < dirty_upto)
            .map(|r| (r.base, r.len.min(dirty_upto - r.base)))
            .collect();
        regions.sort_unstable();
        regions
            .into_iter()
            .flat_map(|(base, len)| self.chunks(base, len))
            .collect()
    }

    // --- the resilver's pump over the bulk engine ---------------------------

    fn bulk_mut(&mut self, vol: usize) -> Option<&mut BulkRun> {
        self.vols[vol].resilver.as_mut().map(|r| &mut r.bulk)
    }

    /// The two halves of member `vol`'s run, `(survivor, revived)`: a copy
    /// goes from the first to the second at the same device offset, a
    /// verify digests both.
    fn parties(&self, vol: usize) -> (EndpointId, EndpointId) {
        let run = self.vols[vol].resilver.as_ref();
        let half = run.expect("pumped without a run").half;
        (self.half_ep(vol, 1 - half), self.half_ep(vol, half))
    }

    /// Member `vol`'s run is over: its ops still in flight answer to nobody.
    fn forget_bulk_ops(&mut self, ctx: &mut Ctx<'_>, vol: usize) {
        self.bulk_ops.retain(|_, (v, _, timeout)| {
            if *v == vol {
                ctx.disarm(*timeout);
            }
            *v != vol
        });
    }

    /// A bulk step is on the wire under `rid`: track it and stand a
    /// watchdog over it.
    fn track_bulk_op(
        &mut self,
        ctx: &mut Ctx<'_>,
        rid: u64,
        vol: usize,
        op: BulkOp,
        timeout: SimDuration,
    ) {
        let timeout = ctx.arm_timer(timeout, BulkStepTimeout { rid });
        self.bulk_ops.insert(rid, (vol, op, timeout));
    }

    /// A bulk step was answered: its entry and its watchdog go.
    fn retire_bulk_op(&mut self, ctx: &mut Ctx<'_>, rid: u64) -> Option<(usize, BulkOp)> {
        let (vol, op, timeout) = self.bulk_ops.remove(&rid)?;
        ctx.disarm(timeout);
        Some((vol, op))
    }

    /// Drive member `vol`'s resilver: keep up to [`TRANSFER_WINDOW`] units
    /// in flight, and apply its transition rule each time a phase has
    /// drained *and* the window emptied. Every byte moves device to device
    /// (the survivor pushes a chunk straight to the revived half; bulk
    /// admission is bought first) and every comparison is of digests the
    /// devices took themselves — the PMM's ports carry 64-byte commands
    /// and 8 bytes per chunk back.
    fn bulk_pump(&mut self, ctx: &mut Ctx<'_>, vol: usize) {
        let chunk = self.cfg.resilver_chunk.max(1);
        let now_ns = ctx.now().as_nanos();
        let (net, me) = (self.pair.net.clone(), self.pair.ep);
        let class = TrafficClass::Bulk;
        loop {
            let Some(run) = self.bulk_mut(vol) else {
                return;
            };
            let admit = |bytes| net.lock().try_bulk_admission(bytes, now_ns);
            match run.next(admit) {
                Step::Wait => return,
                Step::Backoff { wait_ns, arm } => {
                    self.vol_stat(vol, |s| s.bulk_throttle_waits += 1);
                    if arm {
                        let wait = SimDuration::from_nanos(wait_ns.max(1));
                        ctx.send_self(wait, BulkBackoff { vol });
                    }
                    return;
                }
                Step::Copy { off, len } => {
                    let (src, dst) = self.parties(vol);
                    let timeout = self.step_timeout(len);
                    let rid = self.next_rdma;
                    self.next_rdma += 1;
                    rdma_copy(ctx, &net, me, src, off, len, dst, off, rid, class);
                    self.track_bulk_op(ctx, rid, vol, BulkOp::Copy { off, len }, timeout);
                }
                Step::Scrub { off, len } => {
                    let timeout = self.digest_timeout();
                    let (survivor, revived) = self.parties(vol);
                    for (party, ep) in [survivor, revived].into_iter().enumerate() {
                        let rid = self.next_rdma;
                        self.next_rdma += 1;
                        rdma_scrub(ctx, &net, me, ep, off, len, chunk, rid, class);
                        let op = BulkOp::Scrub { off, len, party };
                        self.track_bulk_op(ctx, rid, vol, op, timeout);
                    }
                }
                Step::Transition(drained) => {
                    if !self.resilver_transition(ctx, vol, drained) {
                        return;
                    }
                }
            }
        }
    }

    /// A device-to-device copy was acknowledged (or refused).
    fn on_copy_done(&mut self, ctx: &mut Ctx<'_>, vol: usize, op: BulkOp, status: RdmaStatus) {
        let BulkOp::Copy { off, len } = op else {
            return;
        };
        if status != RdmaStatus::Ok {
            self.abort_resilver(ctx, vol);
            return;
        }
        if !self.bulk_mut(vol).is_some_and(|run| run.copy_done(off)) {
            return;
        }
        self.vol_stat(vol, |s| s.resilver_bytes_copied += len as u64);
        self.bulk_pump(ctx, vol);
    }

    /// One half's digest vector for a scrub run arrived. The run leaves
    /// the window once both halves have answered.
    fn on_scrub_done(&mut self, ctx: &mut Ctx<'_>, vol: usize, op: BulkOp, done: RdmaScrubDone) {
        let BulkOp::Scrub { off, len, party } = op else {
            return;
        };
        if done.status != RdmaStatus::Ok {
            self.abort_resilver(ctx, vol);
            return;
        }
        self.vol_stat(vol, |s| s.resilver_bytes_digested += len);
        if self
            .bulk_mut(vol)
            .is_some_and(|run| run.scrub_done(off, party, done.digests))
        {
            self.bulk_pump(ctx, vol);
        }
    }

    /// The resilver's transition rule; `false` once the run has ended.
    fn resilver_transition(&mut self, ctx: &mut Ctx<'_>, vol: usize, drained: Phase) -> bool {
        let Some(run) = &mut self.vols[vol].resilver else {
            return false;
        };
        if drained == Phase::Copy {
            // Copy done: look again at what was copied (a copy is stale by
            // its own round trip) and at the first-time mismatches set
            // aside beside it. What digested equal stays out of the run.
            let recheck = std::mem::take(&mut run.recheck);
            run.bulk.start(Phase::Verify, recheck.into());
            return true;
        }
        let divergent = run.bulk.take_divergent();
        if divergent.is_empty() {
            if !std::mem::take(&mut run.voided) {
                self.finish_resilver(ctx, vol);
                return false;
            }
            // Nothing left that differs, but a foreground leg to this half
            // was reported lost since the run began: start over on the
            // whole range.
            let dirty_upto = run.dirty_upto;
            let queue = self.resilver_chunks(vol, dirty_upto);
            if let Some(run) = &mut self.vols[vol].resilver {
                run.suspects = queue.iter().map(|&(off, _)| off).collect();
                run.bulk.start(Phase::Verify, queue);
            }
        } else {
            // One mismatch is weak evidence once the outage itself has
            // been copied: a foreground write caught between the two
            // digests, or data rewritten in place (a log's control cell)
            // that the last copy left stale on the revived half and the
            // foreground is about to rewrite on both. Either heals by
            // itself, and a re-copy — itself stale by a chunk round trip —
            // only manufactures the next mismatch. So look again at a
            // chunk that mismatched for the first time, and re-copy only
            // what mismatched twice running.
            let (confirmed, fresh): (Vec<_>, Vec<_>) = divergent
                .iter()
                .copied()
                .partition(|(off, _)| run.suspects.contains(off));
            run.suspects = fresh.iter().map(|&(off, _)| off).collect();
            if confirmed.is_empty() {
                run.bulk.start(Phase::Verify, fresh.into());
            } else {
                run.recheck = divergent;
                run.bulk.start(Phase::Copy, confirmed.into());
            }
        }
        if let HealthState::Resilvering { pass, .. } = &mut self.vols[vol].meta.health {
            *pass += 1;
        }
        self.vol_stat(vol, |s| s.resilver_extra_passes += 1);
        true
    }

    /// A member's revived half (or, catastrophically, its survivor)
    /// stopped answering mid-resilver: drop that member back to Degraded
    /// and resume probing. Other members are unaffected.
    fn abort_resilver(&mut self, ctx: &mut Ctx<'_>, vol: usize) {
        let Some(run) = self.vols[vol].resilver.take() else {
            return;
        };
        self.forget_bulk_ops(ctx, vol);
        self.vols[vol].meta.epoch += 1;
        self.vols[vol].meta.health = HealthState::Degraded {
            half: run.half,
            since_epoch: run.since_epoch,
            dirty_upto: run.dirty_upto,
        };
        let op = self.internal_op();
        self.start_meta_write(ctx, op, &[vol]);
        self.arm_probe_tick(ctx, vol);
    }

    /// A verify pass found the member's mirrors identical: declare it
    /// Healthy with a metadata write to both of its halves.
    fn finish_resilver(&mut self, ctx: &mut Ctx<'_>, vol: usize) {
        self.vols[vol].resilver = None;
        self.forget_bulk_ops(ctx, vol);
        let now = ctx.now().as_nanos();
        self.vol_stat(vol, |s| {
            s.resilvers_completed += 1;
            s.resilver_completed_ns = now;
        });
        self.vols[vol].meta.epoch += 1;
        self.vols[vol].meta.health = HealthState::Healthy;
        // Both halves verified identical: clients may read either again.
        self.update_read_fence(vol);
        let op = self.internal_op();
        self.start_meta_write(ctx, op, &[vol]);
    }

    /// Resume failure handling from durable/checkpointed health after a
    /// (re)start or takeover, member by member. A Resilvering member
    /// restarts as Degraded: the copy progress was volatile, and the
    /// probe path re-enters the resilver cleanly.
    fn resume_health(&mut self, ctx: &mut Ctx<'_>) {
        for vol in 0..self.vols.len() {
            match self.vols[vol].meta.health {
                HealthState::Healthy => {}
                HealthState::Degraded { .. } => self.arm_probe_tick(ctx, vol),
                HealthState::Resilvering {
                    half,
                    since_epoch,
                    dirty_upto,
                    ..
                } => {
                    self.vols[vol].meta.health = HealthState::Degraded {
                        half,
                        since_epoch,
                        dirty_upto,
                    };
                    self.arm_probe_tick(ctx, vol);
                }
            }
            // The read fence is volatile ATT state: re-arm it for members
            // recovered into Degraded (and lift any stale one otherwise).
            self.update_read_fence(vol);
        }
    }

    /// A metadata write leg to a member's `half` failed (NACK or timeout).
    fn on_meta_leg_failed(&mut self, ctx: &mut Ctx<'_>, vol: usize, half: u8) {
        self.vol_stat(vol, |s| s.meta_leg_failures += 1);
        match self.vols[vol].meta.health {
            HealthState::Healthy => self.go_degraded(ctx, vol, half),
            HealthState::Resilvering { half: h, .. } if h == half => {
                // The revived device failed again mid-resilver.
                self.abort_resilver(ctx, vol);
            }
            _ => {}
        }
    }

    // --- placement -------------------------------------------------------

    /// The member with the most free space.
    fn most_free_vol(&self) -> Option<usize> {
        (0..self.vols.len())
            .max_by_key(|&v| alloc::free_bytes(&self.vols[v].meta, self.device_capacity(v)))
    }

    /// The `slots` members with the most free space, in pool order.
    fn stripe_members(&self, slots: usize) -> Vec<usize> {
        let mut by_free: Vec<usize> = (0..self.vols.len()).collect();
        by_free.sort_by_key(|&v| {
            std::cmp::Reverse(alloc::free_bytes(
                &self.vols[v].meta,
                self.device_capacity(v),
            ))
        });
        let mut m: Vec<usize> = by_free.into_iter().take(slots).collect();
        m.sort_unstable();
        m
    }

    /// Resolve a placement decision into a concrete stripe map, finding
    /// space on the chosen members (no state is mutated — all extents
    /// are found before the caller commits). `None` when it can't fit.
    fn place(&self, placement: Placement, len: u64) -> Option<StripeMap> {
        match placement {
            Placement::Balanced => {
                let v = self.most_free_vol()?;
                let base = alloc::find_space(&self.vols[v].meta, self.device_capacity(v), len)?;
                Some(StripeMap::solo(v as u32, base, len))
            }
            Placement::OnVolume(v) => {
                let v = v as usize;
                if v >= self.vols.len() {
                    return None;
                }
                let base = alloc::find_space(&self.vols[v].meta, self.device_capacity(v), len)?;
                Some(StripeMap::solo(v as u32, base, len))
            }
            Placement::Striped { unit } => {
                // Chunks are ATT-window sized: align the unit up so every
                // extent starts on an allocation boundary.
                let unit = unit.max(1).div_ceil(alloc::ALLOC_ALIGN) * alloc::ALLOC_ALIGN;
                let chunks = len.div_ceil(unit);
                let slots = (self.vols.len() as u64).min(chunks) as usize;
                if slots <= 1 {
                    return self.place(Placement::Balanced, len);
                }
                let members = self.stripe_members(slots);
                let lens = stripe_extent_lens(len, unit, slots);
                let mut extents = Vec::with_capacity(slots);
                for (slot, &v) in members.iter().enumerate() {
                    let base =
                        alloc::find_space(&self.vols[v].meta, self.device_capacity(v), lens[slot])?;
                    extents.push(Extent {
                        volume: v as u32,
                        base,
                        len: lens[slot],
                    });
                }
                Some(StripeMap::striped(unit, extents))
            }
        }
    }

    fn handle_request(
        &mut self,
        ctx: &mut Ctx<'_>,
        from_ep: EndpointId,
        payload: Box<dyn std::any::Any>,
    ) {
        self.charge_cpu(ctx);
        let net = self.pair.net.clone();
        let payload = match payload.downcast::<CreateRegion>() {
            Ok(req) => {
                let req = *req;
                let reject = |ctx: &mut Ctx<'_>, e: PmError| {
                    send_net_msg(
                        ctx,
                        &net,
                        self.pair.ep,
                        from_ep,
                        128,
                        CreateRegionAck {
                            token: req.token,
                            result: Err(e),
                        },
                    );
                };
                if let Some(existing) = self.pool.find(&req.name).cloned() {
                    let result = if req.open_if_exists {
                        // Treat as open.
                        let cpu = self.client_cpu(from_ep);
                        self.open_cpus.entry(existing.id).or_default().insert(cpu);
                        self.program_region_att(existing.id);
                        Ok(self.region_info(&existing))
                    } else {
                        Err(PmError::AlreadyExists)
                    };
                    send_net_msg(
                        ctx,
                        &net,
                        self.pair.ep,
                        from_ep,
                        128,
                        CreateRegionAck {
                            token: req.token,
                            result,
                        },
                    );
                    return;
                }
                let len = req.len.max(1);
                let placement = self
                    .cfg
                    .placement
                    .decide(req.placement, len, self.vols.len());
                let Some(map) = self.place(placement, len) else {
                    reject(ctx, PmError::NoSpace);
                    return;
                };
                let cpu = self.client_cpu(from_ep);
                let id = self.pool.next_region_id;
                self.pool.next_region_id += 1;
                self.pool.regions.push(PoolRegionMeta {
                    id,
                    name: req.name.clone(),
                    len,
                    owner_cpu: cpu,
                    map,
                });
                self.commit_namespace_change();
                let info = self
                    .pool
                    .find_by_id(id)
                    .map(|r| self.region_info(r))
                    .expect("region was just pushed");
                // Creating also opens for the creator (convenience the
                // client library relies on).
                self.open_cpus.entry(id).or_default().insert(cpu);
                let targets = self.all_vols();
                self.start_meta_write(
                    ctx,
                    PendingOp::new(
                        from_ep,
                        PendingReply::Create(req.token, Ok(info)),
                        vec![AttAction::MapRegion { region_id: id }],
                    ),
                    &targets,
                );
                return;
            }
            Err(p) => p,
        };

        let payload = match payload.downcast::<OpenRegion>() {
            Ok(req) => {
                let req = *req;
                let result = match self.pool.find(&req.name).cloned() {
                    Some(r) => {
                        let cpu = self.client_cpu(from_ep);
                        self.open_cpus.entry(r.id).or_default().insert(cpu);
                        self.program_region_att(r.id);
                        Ok(self.region_info(&r))
                    }
                    None => Err(PmError::NotFound),
                };
                // Open state is volatile (ATT hardware) but still
                // checkpointed so a takeover preserves mappings knowledge.
                if self.pair.has_backup() {
                    self.send_ckpt(ctx, None, 512);
                }
                send_net_msg(
                    ctx,
                    &net,
                    self.pair.ep,
                    from_ep,
                    128,
                    OpenRegionAck {
                        token: req.token,
                        result,
                    },
                );
                return;
            }
            Err(p) => p,
        };

        let payload = match payload.downcast::<CloseRegion>() {
            Ok(req) => {
                let req = *req;
                let cpu = self.client_cpu(from_ep);
                let removed = self
                    .open_cpus
                    .get_mut(&req.region_id)
                    .map(|set| set.remove(&cpu))
                    .unwrap_or(false);
                let result = if removed {
                    self.program_region_att(req.region_id);
                    Ok(())
                } else {
                    Err(PmError::NotOpen)
                };
                send_net_msg(
                    ctx,
                    &net,
                    self.pair.ep,
                    from_ep,
                    64,
                    CloseRegionAck {
                        token: req.token,
                        result,
                    },
                );
                return;
            }
            Err(p) => p,
        };

        let payload = match payload.downcast::<DeleteRegion>() {
            Ok(req) => {
                let req = *req;
                let Some(r) = self.pool.find(&req.name).cloned() else {
                    send_net_msg(
                        ctx,
                        &net,
                        self.pair.ep,
                        from_ep,
                        64,
                        DeleteRegionAck {
                            token: req.token,
                            result: Err(PmError::NotFound),
                        },
                    );
                    return;
                };
                let unmaps: Vec<(usize, u64)> = r
                    .map
                    .extents
                    .iter()
                    .map(|e| (e.volume as usize, e.base))
                    .collect();
                self.pool.regions.retain(|x| x.id != r.id);
                self.commit_namespace_change();
                self.open_cpus.remove(&r.id);
                let targets = self.all_vols();
                self.start_meta_write(
                    ctx,
                    PendingOp::new(
                        from_ep,
                        PendingReply::Delete(req.token, Ok(())),
                        vec![AttAction::UnmapExtents(unmaps)],
                    ),
                    &targets,
                );
                return;
            }
            Err(p) => p,
        };

        let payload = match payload.downcast::<ReportMirrorFailure>() {
            Ok(rep) => {
                let vol = rep.volume as usize;
                if vol >= self.vols.len() {
                    return;
                }
                self.vol_stat(vol, |s| s.failure_reports += 1);
                if self.vols[vol].meta.health.is_healthy() {
                    // A hint, not proof: confirm with our own probe before
                    // recording a durable state change.
                    self.send_probe(ctx, vol, ProbeKind::Confirm { half: rep.half });
                } else if let Some(run) = self.vols[vol]
                    .resilver
                    .as_mut()
                    .filter(|run| run.half == rep.half)
                {
                    // A foreground leg to the half under repair did not
                    // land — the one way a chunk that already digested
                    // equal can diverge again. The run looks at the whole
                    // range once more before it ends.
                    run.voided = true;
                }
                return;
            }
            Err(p) => p,
        };

        if let Ok(req) = payload.downcast::<FencePool>() {
            let req = *req;
            if req.epoch <= self.pool.epoch {
                // Stale fence (a replayed or out-of-order takeover):
                // epochs only move forward.
                send_net_msg(
                    ctx,
                    &net,
                    self.pair.ep,
                    from_ep,
                    64,
                    FencePoolAck {
                        token: req.token,
                        result: Err(PmError::Busy),
                    },
                );
                return;
            }
            // Persist the new epoch on every member's metadata FIRST,
            // then engage the device fences at commit: a fence that
            // engaged before the epoch was durable could be silently
            // lost to a PMM restart, un-fencing a dead primary.
            self.pool.epoch = req.epoch;
            for v in 0..self.vols.len() {
                apply_pool_to_member(&self.pool, v as u32, &mut self.vols[v].meta);
                self.vols[v].meta.epoch += 1;
            }
            let targets = self.all_vols();
            self.start_meta_write(
                ctx,
                PendingOp::new(from_ep, PendingReply::Fence(req.token, req.epoch), vec![]),
                &targets,
            );
        }
    }
}

impl Actor for PmmProc {
    fn name(&self) -> &str {
        &self.pair.name
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<simcore::actor::Start>() {
            self.pair.watch(ctx);
            if self.pair.is_primary() {
                // Cold start with durable Degraded/Resilvering members:
                // resume probing their dead halves.
                self.resume_health(ctx);
            }
            return;
        }

        let msg = match self.pair.take_died(msg) {
            // Takeover: resume failure handling from the checkpointed health.
            Ok(Died::Promote) => {
                self.resume_health(ctx);
                return;
            }
            Ok(Died::BackupLost(tokens)) => {
                for token in tokens {
                    self.checkpoint_done(ctx, token);
                }
                return;
            }
            Ok(Died::Ignore) => return,
            Err(m) => m,
        };

        // Revival probe tick (only meaningful while that member is degraded).
        let msg = match msg.take::<ProbeTick>() {
            Ok((_, t)) => {
                self.vols[t.vol].probe_tick_armed = false;
                if self.pair.is_primary() {
                    if let HealthState::Degraded { half, .. } = self.vols[t.vol].meta.health {
                        self.send_probe(ctx, t.vol, ProbeKind::Revival { half });
                    }
                }
                return;
            }
            Err(m) => m,
        };

        let msg = match msg.take::<ProbeTimeout>() {
            Ok((_, t)) => {
                if let Some((vol, kind, _)) = self.probes.remove(&t.rid) {
                    self.on_probe_result(ctx, vol, kind, false);
                }
                return;
            }
            Err(m) => m,
        };

        let msg = match msg.take::<MetaWriteTimeout>() {
            Ok((_, t)) => {
                // Any legs of this op still unanswered have silently
                // dropped: count them failed and let the op proceed on
                // the acks it has.
                let stale: Vec<(u64, usize, u8)> = self
                    .rdma_ops
                    .iter()
                    .filter(|(_, (tok, _, _))| *tok == t.token)
                    .map(|(rid, (_, vol, half))| (*rid, *vol, *half))
                    .collect();
                if stale.is_empty() {
                    return;
                }
                for (rid, vol, half) in stale {
                    self.rdma_ops.remove(&rid);
                    self.on_meta_leg_failed(ctx, vol, half);
                    if let Some(op) = self.pending.get_mut(&t.token) {
                        op.waiting_writes = op.waiting_writes.saturating_sub(1);
                    }
                }
                let finished = self
                    .pending
                    .get(&t.token)
                    .map(|op| op.waiting_writes == 0 && !op.waiting_ckpt)
                    .unwrap_or(false);
                if finished {
                    self.after_writes(ctx, t.token);
                }
                return;
            }
            Err(m) => m,
        };

        let msg = match msg.take::<BulkStepTimeout>() {
            Ok((_, t)) => {
                if let Some((vol, _, _)) = self.bulk_ops.remove(&t.rid) {
                    self.abort_resilver(ctx, vol);
                }
                return;
            }
            Err(m) => m,
        };

        // Bulk-admission backoff expiry: retry the resilver's pump.
        let msg = match msg.take::<BulkBackoff>() {
            Ok((_, t)) => {
                if let Some(run) = self.bulk_mut(t.vol) {
                    run.backoff_expired();
                    self.bulk_pump(ctx, t.vol);
                }
                return;
            }
            Err(m) => m,
        };

        // Metadata slot write acks.
        let msg = match msg.take::<RdmaWriteDone>() {
            Ok((_, done)) => {
                if let Some((token, vol, half)) = self.rdma_ops.remove(&done.op_id) {
                    if done.status != RdmaStatus::Ok {
                        // The member is still consistent (other mirror +
                        // old slot), but the half is now suspect: degrade
                        // or abort a resilver accordingly.
                        self.on_meta_leg_failed(ctx, vol, half);
                    }
                    let finished = {
                        if let Some(op) = self.pending.get_mut(&token) {
                            op.waiting_writes = op.waiting_writes.saturating_sub(1);
                            if op.waiting_writes == 0 {
                                // Every leg answered: nothing to time out.
                                if let Some(timeout) = op.write_timeout.take() {
                                    ctx.disarm(timeout);
                                }
                            }
                            op.waiting_writes == 0
                        } else {
                            false
                        }
                    };
                    if finished {
                        self.after_writes(ctx, token);
                    }
                }
                return;
            }
            Err(m) => m,
        };

        // Probe answers.
        let msg = match msg.take::<RdmaReadDone>() {
            Ok((_, done)) => {
                if let Some((vol, kind, timeout)) = self.probes.remove(&done.op_id) {
                    ctx.disarm(timeout);
                    self.on_probe_result(ctx, vol, kind, done.status == RdmaStatus::Ok);
                }
                return;
            }
            Err(m) => m,
        };

        // Device-to-device copy acks.
        let msg = match msg.take::<RdmaCopyDone>() {
            Ok((_, done)) => {
                if let Some((vol, op)) = self.retire_bulk_op(ctx, done.op_id) {
                    self.on_copy_done(ctx, vol, op, done.status);
                }
                return;
            }
            Err(m) => m,
        };

        // Device scrub digests.
        let msg = match msg.take::<RdmaScrubDone>() {
            Ok((_, done)) => {
                if let Some((vol, op)) = self.retire_bulk_op(ctx, done.op_id) {
                    self.on_scrub_done(ctx, vol, op, done);
                }
                return;
            }
            Err(m) => m,
        };

        if let Ok((_, delivery)) = msg.take::<NetDelivery>() {
            let NetDelivery { from_ep, payload } = delivery;
            let payload = match self.pair.recv(ctx, from_ep, payload) {
                // Backup side: adopt the primary's whole state.
                Inbound::Checkpoint(ck) => {
                    if let Ok(state) = ck.downcast::<PmmCkpt>() {
                        self.pool = state.pool;
                        self.open_cpus = state.open_cpus;
                        if state.vols_meta.len() == self.vols.len() {
                            for (v, m) in state.vols_meta.into_iter().enumerate() {
                                self.vols[v].meta = m;
                            }
                        }
                    }
                    return;
                }
                Inbound::Released(token) => {
                    self.checkpoint_done(ctx, token);
                    return;
                }
                Inbound::Acked => return,
                Inbound::Other(p) => p,
            };
            // Client requests.
            if self.pair.is_primary() {
                self.handle_request(ctx, from_ep, payload);
            }
        }
    }
}

/// Install a PMM pair (primary required, backup optional) managing a
/// pool of mirrored member volumes. Metadata ATT windows are mapped for
/// the PMM CPUs on every half, each member's newest valid metadata is
/// recovered from its mirrors, the pool namespace is recovered from the
/// best replica across members (pre-pool images are upgraded to a
/// 1-member namespace), and the pair is registered as process `name`.
#[allow(clippy::too_many_arguments)]
pub fn install_pmm_pool(
    sim: &mut Sim,
    machine: &SharedMachine,
    name: &str,
    volumes: &[(NpmuHandle, NpmuHandle)],
    primary_cpu: CpuId,
    backup_cpu: Option<CpuId>,
    cfg: PmmConfig,
) -> PmmHandle {
    assert!(!volumes.is_empty(), "a pool needs at least one member");

    // Metadata windows: PMM CPUs only, on every member half.
    let mut meta_cpus = vec![primary_cpu.0];
    if let Some(b) = backup_cpu {
        meta_cpus.push(b.0);
    }
    for (a, b) in volumes {
        for h in [a, b] {
            let mut att = h.att.lock();
            att.unmap(0);
            att.map(AttEntry {
                nva_base: 0,
                len: META_BYTES,
                phys_base: 0,
                allowed: CpuFilter::Only(meta_cpus.clone()),
            });
        }
    }

    // Device-to-device resilver copy: a member's survivor DMAs into its
    // revived twin, so each half registers the other as its one peer
    // (peer writes skip the CPU filter but not window bounds).
    for (a, b) in volumes {
        a.dma_peers.lock().insert(b.ep);
        b.dma_peers.lock().insert(a.ep);
    }

    // Recover each member: per-device two-slot recovery, then
    // best-of-mirrors. Then the pool namespace: the replica with the
    // highest pool epoch wins, and every member's region table is
    // rederived from it (so a member that missed the last namespace
    // write converges before service starts).
    let mut metas: Vec<VolumeMeta> = volumes
        .iter()
        .map(|(a, b)| {
            let rec_a = {
                let mem = a.mem.lock();
                MetaStore::recover(|off, len| mem.read(off, len))
            };
            let rec_b = {
                let mem = b.mem.lock();
                MetaStore::recover(|off, len| mem.read(off, len))
            };
            if rec_a.epoch >= rec_b.epoch {
                rec_a
            } else {
                rec_b
            }
        })
        .collect();
    let pool = recover_pool(&metas);
    for (v, m) in metas.iter_mut().enumerate() {
        apply_pool_to_member(&pool, v as u32, m);
    }

    let stats: SharedPmmStats = Shared::new(PmmStats::default());
    let vol_stats: Vec<SharedPmmStats> = volumes
        .iter()
        .map(|_| Shared::new(PmmStats::default()))
        .collect();

    let mk = |role: Role, cpu: CpuId| {
        let cfg2 = cfg.clone();
        let att_cpus = meta_cpus.clone();
        let stats2 = stats.clone();
        let pool2 = pool.clone();
        let vols: Vec<VolState> = volumes
            .iter()
            .zip(metas.iter())
            .zip(vol_stats.iter())
            .map(|(((a, b), meta), vs)| VolState {
                npmu_a: a.clone(),
                npmu_b: b.clone(),
                meta: meta.clone(),
                resilver: None,
                probe_tick_armed: false,
                stats: vs.clone(),
            })
            .collect();
        move |ep: EndpointId| -> Box<dyn Actor> {
            Box::new(PmmProc {
                pair: Pair::new(role, name, machine, ep, cpu),
                cfg: cfg2,
                att_cpus,
                vols,
                pool: pool2,
                open_cpus: BTreeMap::new(),
                pending: BTreeMap::new(),
                next_op: 0,
                rdma_ops: BTreeMap::new(),
                next_rdma: 0,
                probes: BTreeMap::new(),
                bulk_ops: BTreeMap::new(),
                stats: stats2,
            })
        }
    };

    nsk::machine::install_primary(
        sim,
        machine,
        name,
        primary_cpu,
        mk(Role::Primary, primary_cpu),
    );
    if let Some(bcpu) = backup_cpu {
        nsk::machine::install_backup(sim, machine, name, bcpu, mk(Role::Backup, bcpu));
    }

    PmmHandle {
        name: name.to_string(),
        primary_cpu,
        backup_cpu,
        npmu_a: volumes[0].0.clone(),
        npmu_b: volumes[0].1.clone(),
        volumes: volumes.to_vec(),
        stats,
        vol_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool_with(regions: Vec<PoolRegionMeta>) -> PoolMeta {
        PoolMeta {
            epoch: 7,
            next_region_id: regions.len() as u64,
            regions,
        }
    }

    fn empty_meta() -> VolumeMeta {
        VolumeMeta {
            epoch: 0,
            next_region_id: 0,
            regions: Vec::new(),
            health: HealthState::Healthy,
            pool: None,
        }
    }

    #[test]
    fn member_tables_derive_from_pool() {
        let pool = pool_with(vec![
            PoolRegionMeta {
                id: 0,
                name: "solo".into(),
                len: 4096,
                owner_cpu: 3,
                map: StripeMap::solo(1, META_BYTES, 4096),
            },
            PoolRegionMeta {
                id: 1,
                name: "wide".into(),
                len: 16384,
                owner_cpu: 4,
                map: StripeMap::striped(
                    8192,
                    vec![
                        Extent {
                            volume: 0,
                            base: META_BYTES,
                            len: 8192,
                        },
                        Extent {
                            volume: 1,
                            base: META_BYTES + 4096,
                            len: 8192,
                        },
                    ],
                ),
            },
        ]);
        let mut m0 = empty_meta();
        let mut m1 = empty_meta();
        apply_pool_to_member(&pool, 0, &mut m0);
        apply_pool_to_member(&pool, 1, &mut m1);
        assert_eq!(m0.regions.len(), 1);
        assert_eq!(m0.regions[0].name, "wide#0");
        assert_eq!(m0.regions[0].id, 1);
        assert_eq!(m1.regions.len(), 2);
        assert_eq!(m1.regions[0].name, "solo");
        assert_eq!(m1.regions[1].name, "wide#1");
        assert_eq!(m1.regions[1].base, META_BYTES + 4096);
        assert_eq!(m0.next_region_id, 2);
    }

    #[test]
    fn pool_recovery_prefers_highest_epoch_replica() {
        let old = pool_with(vec![]);
        let mut new = pool_with(vec![]);
        new.epoch = 9;
        new.next_region_id = 5;
        let mut m0 = empty_meta();
        m0.pool = Some(old);
        let mut m1 = empty_meta();
        m1.pool = Some(new.clone());
        let rec = recover_pool(&[m0, m1]);
        assert_eq!(rec, new);
    }

    #[test]
    fn pre_pool_image_upgrades_to_solo_namespace() {
        let mut m0 = empty_meta();
        m0.epoch = 12;
        m0.next_region_id = 1;
        m0.regions.push(RegionMeta {
            id: 0,
            name: "legacy".into(),
            base: META_BYTES,
            len: 8192,
            owner_cpu: 2,
        });
        let rec = recover_pool(&[m0]);
        assert_eq!(rec.epoch, 12);
        assert_eq!(rec.next_region_id, 1);
        assert_eq!(rec.regions.len(), 1);
        assert_eq!(rec.regions[0].map, StripeMap::solo(0, META_BYTES, 8192));
        assert!(!rec.regions[0].map.is_striped());
    }
}
