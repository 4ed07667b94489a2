//! The NPMU device actor: validates inbound RDMA against its ATT, stages
//! it in a volatile ingress buffer, acks, and drains the buffer to the
//! memory array shortly after — with no "device CPU" in the data path for
//! the hardware variant, and a small extra processing delay for the
//! process-hosted PMP prototype.
//!
//! The ingress buffer is the honesty knob Kashyap et al. demand: an RDMA
//! ack only proves the bytes reached the NIC, not the array. The buffer
//! is actor state, so a power loss (dropping the `Sim`) loses exactly the
//! acked-but-undrained bytes. A normal read drains the buffer first
//! (reads cannot pass posted writes — the read-after-write flush trick),
//! a write chain's trailing persist fence drains it, at its own latency,
//! before the chain's one ack, and a scrub deliberately does **not**: it
//! digests the persisted array alone, so a verify can never mistake
//! buffered-but-volatile bytes for good media. A digest is not free in
//! device time either: it occupies the one scan engine at
//! [`DIGEST_BW_BPS`], and its reply leaves when the scan ends.

use crate::att::{AttError, AttTable, SharedAtt};
use crate::memory::NvImage;
use bytes::Bytes;
use nsk::machine::SharedMachine;
use simcore::durable::{DurableStore, Image};
use simcore::{Actor, ActorId, Ctx, Msg, Shared, Sim, SimDuration};
use simnet::{
    rdma_write, reply_rdma_copy, reply_rdma_read, reply_rdma_scrub, reply_rdma_write, EndpointId,
    InboundRdmaCopy, InboundRdmaRead, InboundRdmaScrub, InboundRdmaWrite, RdmaStatus,
    RdmaWriteDone, SharedNetwork,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Rate at which the device digests its own array, bytes per second: a
/// 2004 NIC scanning battery-backed DRAM. A scrub holds the device's one
/// scan engine for [`digest_ns`] of its length, and its reply leaves when
/// the scan is done.
pub const DIGEST_BW_BPS: u64 = 1_000_000_000;

/// Device time to digest `len` bytes at [`DIGEST_BW_BPS`], ns.
pub fn digest_ns(len: u64) -> u64 {
    (len as u128 * 1_000_000_000 / DIGEST_BW_BPS as u128) as u64
}

/// Hardware NPMU or the paper's process-based prototype.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NpmuKind {
    /// Real device: non-volatile, NIC applies RDMA directly.
    Hardware,
    /// Persistent Memory Process (§4.2): an NSK process mimicking the
    /// device. Volatile, and slightly slower (process-level handling).
    Pmp,
}

/// How a failed device answers inbound RDMA during a down window.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FailureMode {
    /// The NIC survives enough to NACK: initiators get a prompt
    /// [`RdmaStatus::DeviceFailed`] completion.
    #[default]
    Nack,
    /// The device goes dark: inbound ops are swallowed and the initiator
    /// must detect the failure by timeout.
    SilentDrop,
}

#[derive(Clone, Debug)]
pub struct NpmuConfig {
    pub capacity: u64,
    pub kind: NpmuKind,
    /// Extra per-op processing for the PMP variant, ns. The paper found
    /// hardware "slightly faster" than the PMP; this is that delta.
    pub pmp_extra_ns: u64,
    /// Which mirror half this device is, for [`Fault::NpmuDown`] matching.
    /// `None` infers it from the conventional `-a`/`-b` name suffix at
    /// install time (and leaves the device un-faultable otherwise).
    ///
    /// [`Fault::NpmuDown`]: simcore::fault::Fault::NpmuDown
    pub mirror_half: Option<u8>,
    /// Which pool member volume this device belongs to, for
    /// [`Fault::PoolNpmuDown`] matching. Single-volume setups leave the
    /// default `0`.
    ///
    /// [`Fault::PoolNpmuDown`]: simcore::fault::Fault::PoolNpmuDown
    pub volume_id: u32,
    /// Behaviour while inside a down window.
    pub fail_mode: FailureMode,
    /// Dwell time of an acked write in the volatile ingress buffer before
    /// it reaches the array, ns. Bytes younger than this at power loss
    /// are gone — the window [`simnet::PersistMode`] exists to close.
    pub ingress_drain_ns: u64,
    /// Device-side cost of a write chain's persist fence (drain + fence),
    /// ns, paid before the chain's [`simnet::RdmaWriteDone`] ack.
    pub flush_ns: u64,
}

impl NpmuConfig {
    pub fn hardware(capacity: u64) -> Self {
        NpmuConfig {
            capacity,
            kind: NpmuKind::Hardware,
            pmp_extra_ns: 0,
            mirror_half: None,
            volume_id: 0,
            fail_mode: FailureMode::Nack,
            ingress_drain_ns: 1_500,
            flush_ns: 500,
        }
    }

    pub fn pmp(capacity: u64) -> Self {
        NpmuConfig {
            capacity,
            kind: NpmuKind::Pmp,
            pmp_extra_ns: 4_000,
            mirror_half: None,
            volume_id: 0,
            fail_mode: FailureMode::Nack,
            ingress_drain_ns: 1_500,
            flush_ns: 500,
        }
    }

    pub fn with_half(mut self, half: u8) -> Self {
        self.mirror_half = Some(half);
        self
    }

    pub fn with_volume(mut self, volume: u32) -> Self {
        self.volume_id = volume;
        self
    }

    pub fn with_fail_mode(mut self, mode: FailureMode) -> Self {
        self.fail_mode = mode;
        self
    }

    pub fn with_ingress_drain_ns(mut self, ns: u64) -> Self {
        self.ingress_drain_ns = ns;
        self
    }
}

#[derive(Default, Debug, Clone, Copy)]
pub struct NpmuStats {
    /// Writes applied: one per accepted chain link.
    pub writes: u64,
    pub reads: u64,
    pub bytes_written: u64,
    pub bytes_read: u64,
    pub access_violations: u64,
    /// Writes rejected because the device-wide write fence was
    /// engaged (an epoch fence from a disaster-recovery takeover).
    pub fenced_ops: u64,
    /// Persist fences served (one per accepted fenced write chain).
    pub flushes: u64,
    /// Device-local scrub commands served: ranges digested chunk by chunk
    /// from media, 8 bytes per chunk crossing the wire.
    pub scrubs: u64,
    /// Device-to-device copy commands served as the *source* device.
    pub copies: u64,
    /// Bytes moved NPMU→NPMU on behalf of copy commands.
    pub copy_bytes: u64,
    /// Bytes that were acked into the ingress buffer and then lost to a
    /// down window before reaching the array. Nonzero here means a
    /// `NicAck`-mode client was lied to.
    pub ingress_lost_bytes: u64,
    /// Ops NACKed or dropped because the device was in a down window.
    pub failed_ops: u64,
    /// Distinct down windows this device has entered (failure epochs).
    pub failure_epochs: u64,
    /// Sim time (ns) the current/most recent down window was first
    /// observed by an inbound op.
    pub last_failed_at_ns: u64,
}

pub type SharedNpmuStats = Shared<NpmuStats>;

/// Endpoints this device accepts *peer-DMA* writes from (other NPMUs
/// doing device-to-device resilver copies). Shared so the PMM can
/// register pool members as mutual peers after install.
pub type SharedDmaPeers = Shared<BTreeSet<EndpointId>>;

/// Device-wide *write fence*: when engaged, writes from any initiator
/// outside the `exempt` set (and outside the peer-DMA set) are rejected
/// with `AccessViolation`. Reads still serve.
///
/// This is the enforcement half of an epoch fence: after a
/// disaster-recovery takeover bumps the pool epoch, the PMM engages the
/// fence on every member so a revived old-primary ADP cannot mutate
/// trails the replica site has already taken over. The PMM's own
/// endpoints stay exempt so metadata checkpoints keep working.
#[derive(Default)]
pub struct WriteFence {
    pub engaged: bool,
    pub exempt: BTreeSet<EndpointId>,
}

pub type SharedWriteFence = Shared<WriteFence>;

/// Everything a scenario needs to talk to an installed NPMU.
#[derive(Clone)]
pub struct NpmuHandle {
    pub actor: ActorId,
    pub ep: EndpointId,
    pub att: SharedAtt,
    pub mem: Image<NvImage>,
    pub stats: SharedNpmuStats,
    pub kind: NpmuKind,
    pub dma_peers: SharedDmaPeers,
    pub write_fence: SharedWriteFence,
}

/// PMP-only: an op whose device-side processing is delayed.
struct DeferredWrite(InboundRdmaWrite);
struct DeferredRead(InboundRdmaRead);
struct DeferredScrub(InboundRdmaScrub);
struct DeferredCopy(InboundRdmaCopy);

/// Self-timer: ingress entries whose dwell expired are due on the array.
struct DrainTick;

/// Self-timer: the scan engine has finished a scrub's range; its digests
/// (taken when the command arrived) may leave.
struct ScanDone(InboundRdmaScrub, Vec<u64>);

pub struct Npmu {
    name: String,
    cfg: NpmuConfig,
    mem: Image<NvImage>,
    att: SharedAtt,
    net: SharedNetwork,
    /// For resolving which CPU an initiating endpoint lives on (access
    /// control). `None` disables the CPU filter dimension (treat as cpu 0).
    machine: Option<SharedMachine>,
    ep: EndpointId,
    stats: SharedNpmuStats,
    /// Were we inside a down window at the last inbound op? Edge-detects
    /// window entry so `failure_epochs` counts windows, not ops.
    was_down: bool,
    /// Volatile ingress buffer: acked writes waiting to reach the array,
    /// FIFO, as `(apply_at_ns, phys, data)`. Lives in actor state, so a
    /// power loss (dropping the `Sim`) loses exactly these bytes.
    ingress: VecDeque<(u64, u64, Bytes)>,
    /// Outbound device-to-device copies awaiting the destination's write
    /// ack, keyed by our local write op-id → the orchestrator's command.
    pending_copies: BTreeMap<u64, InboundRdmaCopy>,
    /// Local op-id space for the outbound copy writes above.
    next_copy_op: u64,
    /// When the scan engine finishes the digests accepted so far, ns:
    /// digests queue behind one another, they do not overlap.
    scan_busy_until: u64,
    dma_peers: SharedDmaPeers,
    write_fence: SharedWriteFence,
}

impl Npmu {
    /// Build and spawn an NPMU, registering its memory in the durable
    /// store under `npmu:<name>` — durable for hardware, volatile for a
    /// PMP (so a power loss wipes exactly the PMP).
    pub fn install(
        sim: &mut Sim,
        store: &mut DurableStore,
        net: &SharedNetwork,
        machine: Option<&SharedMachine>,
        name: &str,
        cfg: NpmuConfig,
    ) -> NpmuHandle {
        let key = format!("npmu:{name}");
        let cap = cfg.capacity;
        let mut cfg = cfg;
        if cfg.mirror_half.is_none() {
            cfg.mirror_half = match name {
                n if n.ends_with("-a") => Some(0),
                n if n.ends_with("-b") => Some(1),
                _ => None,
            };
        }
        let mem: Image<NvImage> = match cfg.kind {
            NpmuKind::Hardware => store.get_or_insert_with(&key, move || NvImage::new(cap)),
            NpmuKind::Pmp => store.get_or_insert_volatile(&key, move || NvImage::new(cap)),
        };
        let att = AttTable::shared();
        let stats: SharedNpmuStats = Shared::new(NpmuStats::default());
        let dma_peers: SharedDmaPeers = Shared::new(BTreeSet::new());
        let write_fence: SharedWriteFence = Shared::new(WriteFence::default());
        let ep = net.lock().attach(ActorId(u32::MAX));
        // Mirror half `a` lives on fabric X, half `b` on Y.
        net.lock()
            .set_home_fabric(ep, cfg.mirror_half.unwrap_or(0) & 1);
        let actor = sim.spawn(Npmu {
            name: name.to_string(),
            cfg: cfg.clone(),
            mem: mem.clone(),
            att: att.clone(),
            net: net.clone(),
            machine: machine.cloned(),
            ep,
            stats: stats.clone(),
            was_down: false,
            ingress: VecDeque::new(),
            pending_copies: BTreeMap::new(),
            next_copy_op: 0,
            scan_busy_until: 0,
            dma_peers: dma_peers.clone(),
            write_fence: write_fence.clone(),
        });
        net.lock().rebind(ep, actor);
        NpmuHandle {
            actor,
            ep,
            att,
            mem,
            stats,
            kind: cfg.kind,
            dma_peers,
            write_fence,
        }
    }

    /// Does the engaged write fence bar this initiator? Peer devices
    /// (resilver DMA) and exempt endpoints (the managing PMMs) pass.
    fn fenced(&self, from_ep: EndpointId) -> bool {
        let f = self.write_fence.lock();
        f.engaged && !f.exempt.contains(&from_ep) && !self.dma_peers.lock().contains(&from_ep)
    }

    fn initiator_cpu(&self, from_ep: EndpointId) -> u32 {
        self.machine
            .as_ref()
            .and_then(|m| m.lock().cpu_of_ep(from_ep))
            .map(|c| c.0)
            .unwrap_or(0)
    }

    /// Is this device inside a planned down window right now? Checked at
    /// op-processing time, so a device "revives" simply by the window
    /// ending — its memory still holds whatever it had at window entry
    /// (stale relative to the survivor until a resilver repairs it).
    fn down_now(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let down = self.down_raw(ctx.now());
        if down && !self.was_down {
            let mut s = self.stats.lock();
            s.failure_epochs += 1;
            s.last_failed_at_ns = ctx.now().as_nanos();
        }
        if down {
            // Device failure is a power event for the volatile buffer:
            // acked-but-undrained bytes are gone, never silently applied
            // after revival (a resilver verify must see the divergence).
            self.wipe_ingress();
        }
        self.was_down = down;
        down
    }

    /// Down-window membership without the edge-detection side effects
    /// (used by timer-driven paths that are not "inbound ops").
    fn down_raw(&self, now: simcore::SimTime) -> bool {
        let Some(half) = self.cfg.mirror_half else {
            return false;
        };
        self.net
            .lock()
            .fault_plan
            .member_npmu_down_at(self.cfg.volume_id, half, now)
    }

    /// Apply buffered writes whose dwell has expired (FIFO: `apply_at` is
    /// monotone, so the prefix test preserves write order).
    fn drain_due(&mut self, now_ns: u64) {
        let mut mem = self.mem.lock();
        while let Some((at, _, _)) = self.ingress.front() {
            if *at > now_ns {
                break;
            }
            let (_, phys, data) = self.ingress.pop_front().unwrap();
            mem.write(phys, &data);
        }
    }

    /// Force the whole buffer to the array (read-after-write or a persist
    /// fence: both act as a persist barrier for everything acked so far).
    fn drain_all(&mut self) {
        let mut mem = self.mem.lock();
        while let Some((_, phys, data)) = self.ingress.pop_front() {
            mem.write(phys, &data);
        }
    }

    /// Discard the buffer (device failure), accounting the loss. The
    /// failure is a power event for *all* volatile device state: any
    /// in-flight device-to-device copies die with it, and the copy
    /// orchestrator recovers by step timeout.
    fn wipe_ingress(&mut self) {
        self.pending_copies.clear();
        if self.ingress.is_empty() {
            return;
        }
        let lost: u64 = self.ingress.iter().map(|(_, _, d)| d.len() as u64).sum();
        self.ingress.clear();
        self.stats.lock().ingress_lost_bytes += lost;
    }

    /// Apply one inbound write chain. A rejected link rejects the chain
    /// whole and leaves none of its links staged; accepted links enter
    /// the ingress FIFO in chain order, which is what keeps the array a
    /// prefix of the chain across a power cut. A trailing
    /// fence drains the whole buffer — every earlier acked write too —
    /// and the one ack leaves after the device-side flush cost.
    fn do_write(&mut self, ctx: &mut Ctx<'_>, w: InboundRdmaWrite) {
        let net = self.net.clone();
        if self.down_now(ctx) {
            self.stats.lock().failed_ops += 1;
            if self.cfg.fail_mode == FailureMode::Nack {
                reply_rdma_write(ctx, &net, &w, RdmaStatus::DeviceFailed, 0);
            }
            return;
        }
        if self.fenced(w.from_ep) {
            self.stats.lock().fenced_ops += 1;
            reply_rdma_write(ctx, &net, &w, RdmaStatus::AccessViolation, 0);
            return;
        }
        let cpu = self.initiator_cpu(w.from_ep);
        // A registered peer device has no initiating CPU: window bounds
        // apply, the CPU filter does not (device-to-device resilver
        // payload writes land through the same open windows the PMM
        // restricted to itself).
        let peer = self.dma_peers.lock().contains(&w.from_ep);
        // Validate each link's on-wire span, not its (possibly compact)
        // payload: a zero-length translate at a window boundary matches
        // the preceding window and fails on the wrong entry's permissions.
        // A link that passes is staged in the volatile ingress buffer at
        // once: the ack of an unfenced chain proves arrival, not
        // durability, and the bytes reach the array only at the drain tick
        // (or a forcing read/fence). A rejected link takes the links staged
        // before it back out, so the chain is rejected whole.
        let apply_at = ctx.now().as_nanos() + self.cfg.ingress_drain_ns;
        let staged_before = self.ingress.len();
        let verdict = {
            let att = self.att.lock();
            w.links.iter().try_for_each(|l| {
                let phys = if peer {
                    att.translate_peer(l.addr, l.span())
                } else {
                    att.translate(l.addr, l.span(), cpu)
                }?;
                self.ingress.push_back((apply_at, phys, l.data.clone()));
                Ok(())
            })
        };
        if let Err(e) = verdict {
            self.ingress.truncate(staged_before);
            self.stats.lock().access_violations += 1;
            let status = match e {
                AttError::Unmapped => RdmaStatus::OutOfBounds,
                AttError::Forbidden => RdmaStatus::AccessViolation,
            };
            reply_rdma_write(ctx, &net, &w, status, 0);
            return;
        }
        {
            let mut s = self.stats.lock();
            s.writes += w.links.len() as u64;
            s.bytes_written += w.links.iter().map(|l| l.data.len() as u64).sum::<u64>();
            s.flushes += u64::from(w.fence);
        }
        if w.fence || self.cfg.ingress_drain_ns == 0 {
            self.drain_all();
        } else {
            ctx.send_self(
                SimDuration::from_nanos(self.cfg.ingress_drain_ns),
                DrainTick,
            );
        }
        let persist_ns = if w.fence { self.cfg.flush_ns } else { 0 };
        reply_rdma_write(ctx, &net, &w, RdmaStatus::Ok, persist_ns);
    }

    fn do_read(&mut self, ctx: &mut Ctx<'_>, r: InboundRdmaRead) {
        if self.down_now(ctx) {
            self.stats.lock().failed_ops += 1;
            if self.cfg.fail_mode == FailureMode::Nack {
                let net = self.net.clone();
                let ep = self.ep;
                reply_rdma_read(ctx, &net, ep, &r, RdmaStatus::DeviceFailed, Bytes::new());
            }
            return;
        }
        // Reads cannot pass posted writes: serving a read forces the whole
        // ingress buffer to the array first. This is the Kashyap
        // read-after-write trick [`simnet::PersistMode::FlushOnRead`]
        // relies on.
        self.drain_all();
        let cpu = self.initiator_cpu(r.from_ep);
        let net = self.net.clone();
        let ep = self.ep;
        let verdict = self.att.lock().translate_read(r.addr, r.len as u64, cpu);
        match verdict {
            Ok(phys) => {
                let data = self.mem.lock().read(phys, r.len as usize);
                let mut s = self.stats.lock();
                s.reads += 1;
                s.bytes_read += r.len as u64;
                drop(s);
                reply_rdma_read(ctx, &net, ep, &r, RdmaStatus::Ok, Bytes::from(data));
            }
            Err(e) => {
                self.stats.lock().access_violations += 1;
                let status = match e {
                    AttError::Unmapped => RdmaStatus::OutOfBounds,
                    AttError::Forbidden => RdmaStatus::AccessViolation,
                };
                reply_rdma_read(ctx, &net, ep, &r, status, Bytes::new());
            }
        }
    }

    /// Queue a digest of `len` bytes on the scan engine; returns how long
    /// from now its result is ready.
    fn scan(&mut self, now_ns: u64, len: u64) -> u64 {
        self.scan_busy_until = self.scan_busy_until.max(now_ns) + digest_ns(len);
        self.scan_busy_until - now_ns
    }

    /// Device-local scrub: digest `ceil(len / chunk)` consecutive chunks
    /// ([`NvImage::digest`]) and reply with the 8-byte digests — a verify
    /// pass moves O(digests), not O(bytes). Deliberately **no drain**: the
    /// persisted array alone is digested. Draining (or hashing the
    /// buffer) would let a verify bless acked-but-volatile bytes as good
    /// media — exactly the bug a `PoolNpmuDown` + `FailureMode::SilentDrop`
    /// window used to be able to hide. The digests are taken on arrival;
    /// the reply leaves when the scan engine gets through the range
    /// ([`ScanDone`]), holding no port in the meantime.
    fn do_scrub(&mut self, ctx: &mut Ctx<'_>, r: InboundRdmaScrub) {
        let net = self.net.clone();
        let ep = self.ep;
        if self.down_now(ctx) {
            self.stats.lock().failed_ops += 1;
            if self.cfg.fail_mode == FailureMode::Nack {
                reply_rdma_scrub(ctx, &net, ep, &r, RdmaStatus::DeviceFailed, Vec::new());
            }
            return;
        }
        let cpu = self.initiator_cpu(r.from_ep);
        // Translate chunk-by-chunk, not the run as a whole: a coalesced
        // scrub command may span adjacent regions (separate ATT windows)
        // even though each `chunk`-strided piece sits inside one window.
        let chunk = r.chunk.max(1) as u64;
        let n = r.len.div_ceil(chunk);
        let mut digests = Vec::with_capacity(n as usize);
        for i in 0..n {
            let off = i * chunk;
            let l = chunk.min(r.len - off);
            let verdict = self.att.lock().translate_read(r.addr + off, l, cpu);
            match verdict {
                Ok(phys) => digests.push(self.mem.lock().digest(phys, l)),
                Err(e) => {
                    self.stats.lock().access_violations += 1;
                    let status = match e {
                        AttError::Unmapped => RdmaStatus::OutOfBounds,
                        AttError::Forbidden => RdmaStatus::AccessViolation,
                    };
                    reply_rdma_scrub(ctx, &net, ep, &r, status, Vec::new());
                    return;
                }
            }
        }
        let mut s = self.stats.lock();
        s.scrubs += 1;
        s.bytes_read += r.len;
        drop(s);
        let scan_ns = self.scan(ctx.now().as_nanos(), r.len);
        ctx.send_self(SimDuration::from_nanos(scan_ns), ScanDone(r, digests));
    }

    /// Device-to-device copy, serving as the *source*: read the range
    /// locally, write it straight to the destination NPMU (the payload
    /// crosses the fabric exactly once), relay the destination's ack to
    /// the orchestrator on [`RdmaWriteDone`].
    fn do_copy(&mut self, ctx: &mut Ctx<'_>, c: InboundRdmaCopy) {
        if self.down_now(ctx) {
            self.stats.lock().failed_ops += 1;
            if self.cfg.fail_mode == FailureMode::Nack {
                let net = self.net.clone();
                reply_rdma_copy(ctx, &net, &c, RdmaStatus::DeviceFailed);
            }
            return;
        }
        // A copy reads acked data: force the ingress buffer down first,
        // like any read.
        self.drain_all();
        let cpu = self.initiator_cpu(c.from_ep);
        let net = self.net.clone();
        let verdict = self
            .att
            .lock()
            .translate_read(c.src_addr, c.len as u64, cpu);
        match verdict {
            Ok(phys) => {
                let data = self.mem.lock().read(phys, c.len as usize);
                {
                    let mut s = self.stats.lock();
                    s.copies += 1;
                    s.copy_bytes += c.len as u64;
                    s.bytes_read += c.len as u64;
                }
                let op = self.next_copy_op;
                self.next_copy_op += 1;
                let (ep, dst_ep, dst_addr, class) = (self.ep, c.dst_ep, c.dst_addr, c.class);
                self.pending_copies.insert(op, c);
                rdma_write(
                    ctx,
                    &net,
                    ep,
                    dst_ep,
                    dst_addr,
                    Bytes::from(data),
                    op,
                    class,
                );
            }
            Err(e) => {
                self.stats.lock().access_violations += 1;
                let status = match e {
                    AttError::Unmapped => RdmaStatus::OutOfBounds,
                    AttError::Forbidden => RdmaStatus::AccessViolation,
                };
                reply_rdma_copy(ctx, &net, &c, status);
            }
        }
    }
}

impl Actor for Npmu {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<simcore::actor::Start>() {
            return;
        }
        let msg = match msg.take::<InboundRdmaWrite>() {
            Ok((_, w)) => {
                match self.cfg.kind {
                    NpmuKind::Hardware => self.do_write(ctx, w),
                    NpmuKind::Pmp => ctx.send_self(
                        SimDuration::from_nanos(self.cfg.pmp_extra_ns),
                        DeferredWrite(w),
                    ),
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<InboundRdmaRead>() {
            Ok((_, r)) => {
                match self.cfg.kind {
                    NpmuKind::Hardware => self.do_read(ctx, r),
                    NpmuKind::Pmp => ctx.send_self(
                        SimDuration::from_nanos(self.cfg.pmp_extra_ns),
                        DeferredRead(r),
                    ),
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<InboundRdmaScrub>() {
            Ok((_, r)) => {
                match self.cfg.kind {
                    NpmuKind::Hardware => self.do_scrub(ctx, r),
                    NpmuKind::Pmp => ctx.send_self(
                        SimDuration::from_nanos(self.cfg.pmp_extra_ns),
                        DeferredScrub(r),
                    ),
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<InboundRdmaCopy>() {
            Ok((_, c)) => {
                match self.cfg.kind {
                    NpmuKind::Hardware => self.do_copy(ctx, c),
                    NpmuKind::Pmp => ctx.send_self(
                        SimDuration::from_nanos(self.cfg.pmp_extra_ns),
                        DeferredCopy(c),
                    ),
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<RdmaWriteDone>() {
            Ok((_, d)) => {
                // The destination's ack for one of our outbound
                // device-to-device copy writes: relay the outcome to the
                // orchestrator. (Unknown op-ids mean the copy state died
                // in a down window; the orchestrator times out.)
                if let Some(req) = self.pending_copies.remove(&d.op_id) {
                    if self.down_raw(ctx.now()) {
                        self.stats.lock().failed_ops += 1;
                    } else {
                        let net = self.net.clone();
                        reply_rdma_copy(ctx, &net, &req, d.status);
                    }
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<DrainTick>() {
            Ok((_, DrainTick)) => {
                // A failed device loses its buffer instead of draining it.
                if self.down_raw(ctx.now()) {
                    self.wipe_ingress();
                } else {
                    self.drain_due(ctx.now().as_nanos());
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<DeferredWrite>() {
            Ok((_, DeferredWrite(w))) => {
                self.do_write(ctx, w);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<DeferredRead>() {
            Ok((_, DeferredRead(r))) => {
                self.do_read(ctx, r);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<ScanDone>() {
            Ok((_, ScanDone(r, digests))) => {
                // A device that failed mid-scan lost the scan with the rest
                // of its volatile state; the orchestrator times out.
                if self.down_raw(ctx.now()) {
                    self.stats.lock().failed_ops += 1;
                } else {
                    let net = self.net.clone();
                    reply_rdma_scrub(ctx, &net, self.ep, &r, RdmaStatus::Ok, digests);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<DeferredScrub>() {
            Ok((_, DeferredScrub(r))) => {
                self.do_scrub(ctx, r);
                return;
            }
            Err(m) => m,
        };
        if let Ok((_, DeferredCopy(c))) = msg.take::<DeferredCopy>() {
            self.do_copy(ctx, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::att::{AttEntry, CpuFilter};
    use simcore::actor::Start;
    use simcore::{Sim, SimTime};
    use simnet::{
        rdma_read, rdma_write, rdma_write_chain, ChainLink, FabricConfig, Network, RdmaReadDone,
        RdmaWriteDone,
    };

    fn link(addr: u64, data: Vec<u8>) -> ChainLink {
        ChainLink {
            addr,
            wire_len: data.len() as u32,
            data: Bytes::from(data),
        }
    }

    struct Client {
        net: SharedNetwork,
        ep: EndpointId,
        dev: EndpointId,
        ops: Vec<(u64, u64, Vec<u8>)>, // (op_id, addr, data) writes then one read
        read: Option<(u64, u64, u32)>,
        /// One scrub `(op_id, addr, len, chunk)`.
        scrub: Option<(u64, u64, u32, u32)>,
        /// One write chain `(op_id, links, fence)`, posted after `ops`.
        chain: Option<(u64, Vec<ChainLink>, bool)>,
        log: Shared<Vec<String>>,
        /// Issue the ops this long after spawn (to land inside/outside a
        /// planned fault window).
        delay: SimDuration,
    }

    /// Timer marker for a delayed client start.
    struct Kick;

    /// Completion time a log line ends with, as `@<ns>`.
    fn ts(line: &str) -> u64 {
        line.rsplit('@').next().unwrap().parse().unwrap()
    }

    impl Actor for Client {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if msg.is::<Start>() {
                ctx.send_self(self.delay, Kick);
                return;
            }
            if msg.is::<Kick>() {
                use simnet::TrafficClass::Commit;
                for (id, addr, data) in self.ops.drain(..) {
                    let net = self.net.clone();
                    rdma_write(
                        ctx,
                        &net,
                        self.ep,
                        self.dev,
                        addr,
                        Bytes::from(data),
                        id,
                        Commit,
                    );
                }
                if let Some((id, addr, len)) = self.read.take() {
                    let net = self.net.clone();
                    rdma_read(ctx, &net, self.ep, self.dev, addr, len, id, Commit);
                }
                if let Some((id, addr, len, chunk)) = self.scrub.take() {
                    let net = self.net.clone();
                    let (ep, dev) = (self.ep, self.dev);
                    simnet::rdma_scrub(ctx, &net, ep, dev, addr, len as u64, chunk, id, Commit);
                }
                if let Some((id, links, fence)) = self.chain.take() {
                    let net = self.net.clone();
                    rdma_write_chain(ctx, &net, self.ep, self.dev, links, fence, id, Commit);
                }
                return;
            }
            let msg = match msg.take::<RdmaWriteDone>() {
                Ok((_, d)) => {
                    self.log.lock().push(format!(
                        "w{}:{:?}@{}",
                        d.op_id,
                        d.status,
                        ctx.now().as_nanos()
                    ));
                    return;
                }
                Err(m) => m,
            };
            let msg = match msg.take::<RdmaReadDone>() {
                Ok((_, d)) => {
                    self.log.lock().push(format!(
                        "r{}:{:?}:{}@{}",
                        d.op_id,
                        d.status,
                        d.data.len(),
                        ctx.now().as_nanos()
                    ));
                    return;
                }
                Err(m) => m,
            };
            if let Ok((_, d)) = msg.take::<simnet::RdmaScrubDone>() {
                self.log.lock().push(format!(
                    "c{}:{:?}:{:#x?}@{}",
                    d.op_id,
                    d.status,
                    d.digests,
                    ctx.now().as_nanos()
                ));
            }
        }
    }

    fn setup(
        kind: NpmuKind,
    ) -> (
        Sim,
        DurableStore,
        NpmuHandle,
        Shared<Vec<String>>,
        SharedNetwork,
        EndpointId,
    ) {
        let mut sim = Sim::with_seed(11);
        let mut store = DurableStore::new();
        let net = Network::new(FabricConfig::default());
        let cfg = match kind {
            NpmuKind::Hardware => NpmuConfig::hardware(1 << 20),
            NpmuKind::Pmp => NpmuConfig::pmp(1 << 20),
        };
        let h = Npmu::install(&mut sim, &mut store, &net, None, "pm0", cfg);
        h.att.lock().map(AttEntry {
            nva_base: 0x1000,
            len: 0x1000,
            phys_base: 0,
            allowed: CpuFilter::Any,
        });
        let client_ep = net.lock().attach(ActorId(u32::MAX));
        (sim, store, h, Shared::new(Vec::new()), net, client_ep)
    }

    fn spawn_client(
        sim: &mut Sim,
        net: &SharedNetwork,
        ep: EndpointId,
        dev: EndpointId,
        ops: Vec<(u64, u64, Vec<u8>)>,
        read: Option<(u64, u64, u32)>,
        log: Shared<Vec<String>>,
    ) {
        spawn_client_at(sim, net, ep, dev, ops, read, log, SimDuration::ZERO);
    }

    #[allow(clippy::too_many_arguments)]
    fn spawn_client_at(
        sim: &mut Sim,
        net: &SharedNetwork,
        ep: EndpointId,
        dev: EndpointId,
        ops: Vec<(u64, u64, Vec<u8>)>,
        read: Option<(u64, u64, u32)>,
        log: Shared<Vec<String>>,
        delay: SimDuration,
    ) {
        let a = sim.spawn(Client {
            net: net.clone(),
            ep,
            dev,
            ops,
            read,
            scrub: None,
            chain: None,
            log,
            delay,
        });
        net.lock().rebind(ep, a);
    }

    #[test]
    fn mapped_write_lands_in_memory() {
        let (mut sim, _store, h, log, net, cep) = setup(NpmuKind::Hardware);
        spawn_client(
            &mut sim,
            &net,
            cep,
            h.ep,
            vec![(1, 0x1100, vec![0x5A; 256])],
            None,
            log.clone(),
        );
        sim.run_until_idle();
        assert!(log.lock()[0].starts_with("w1:Ok"));
        // nva 0x1100 → phys 0x100.
        assert_eq!(h.mem.lock().read(0x100, 4), vec![0x5A; 4]);
        assert_eq!(h.stats.lock().writes, 1);
    }

    #[test]
    fn unmapped_write_rejected_without_touching_memory() {
        let (mut sim, _store, h, log, net, cep) = setup(NpmuKind::Hardware);
        spawn_client(
            &mut sim,
            &net,
            cep,
            h.ep,
            vec![(1, 0x9000, vec![1; 64])],
            None,
            log.clone(),
        );
        sim.run_until_idle();
        assert!(log.lock()[0].starts_with("w1:OutOfBounds"));
        assert_eq!(h.stats.lock().access_violations, 1);
        assert_eq!(h.mem.lock().writes(), 0);
    }

    #[test]
    fn read_returns_written_data() {
        let (mut sim, _store, h, log, net, cep) = setup(NpmuKind::Hardware);
        h.mem.lock().write(0x20, &[7u8; 64]);
        spawn_client(
            &mut sim,
            &net,
            cep,
            h.ep,
            vec![],
            Some((9, 0x1020, 64)),
            log.clone(),
        );
        sim.run_until_idle();
        assert!(log.lock()[0].starts_with("r9:Ok:64@"));
    }

    #[test]
    fn pmp_slower_than_hardware() {
        let run = |kind| {
            let (mut sim, _s, h, log, net, cep) = setup(kind);
            spawn_client(
                &mut sim,
                &net,
                cep,
                h.ep,
                vec![(1, 0x1000, vec![1; 512])],
                None,
                log.clone(),
            );
            sim.run_until_idle();
            let entry = log.lock()[0].clone();
            ts(&entry)
        };
        let hw = run(NpmuKind::Hardware);
        let pmp = run(NpmuKind::Pmp);
        // Paper §4.2: hardware NPMU slightly faster than the PMP.
        assert!(pmp > hw, "pmp {pmp} !> hw {hw}");
        assert!(pmp - hw < 20_000, "delta should be small: {}", pmp - hw);
    }

    #[test]
    fn down_window_nacks_then_revives_with_stale_contents() {
        use simcore::fault::{Fault, FaultPlan};

        let mut sim = Sim::with_seed(21);
        let mut store = DurableStore::new();
        let net = Network::new(FabricConfig::default());
        let cfg = NpmuConfig::hardware(1 << 20).with_half(1);
        let h = Npmu::install(&mut sim, &mut store, &net, None, "pm-b", cfg);
        h.att.lock().map(AttEntry {
            nva_base: 0x1000,
            len: 0x1000,
            phys_base: 0,
            allowed: CpuFilter::Any,
        });
        net.lock().fault_plan = FaultPlan::none().with(Fault::NpmuDown {
            volume_half: 1,
            from: SimTime(simcore::time::SECS),
            to: SimTime(2 * simcore::time::SECS),
        });
        let log = Shared::new(Vec::new());
        let secs = simcore::time::SECS;

        // Three clients scripted up front: before, during, and after the
        // [1 s, 2 s) window.
        let cep = net.lock().attach(ActorId(u32::MAX));
        spawn_client(
            &mut sim,
            &net,
            cep,
            h.ep,
            vec![(1, 0x1000, vec![0x11; 64])],
            None,
            log.clone(),
        );
        let cep2 = net.lock().attach(ActorId(u32::MAX));
        spawn_client_at(
            &mut sim,
            &net,
            cep2,
            h.ep,
            vec![(2, 0x1000, vec![0x22; 64])],
            Some((3, 0x1000, 16)),
            log.clone(),
            SimDuration::from_nanos(secs + secs / 2),
        );
        let cep3 = net.lock().attach(ActorId(u32::MAX));
        spawn_client_at(
            &mut sim,
            &net,
            cep3,
            h.ep,
            vec![(4, 0x1000, vec![0x44; 64])],
            None,
            log.clone(),
            SimDuration::from_nanos(2 * secs + secs / 2),
        );

        sim.run_until(SimTime(2 * secs));
        {
            let l = log.lock();
            assert!(l[0].starts_with("w1:Ok"), "{:?}", *l);
            assert!(l[1].starts_with("w2:DeviceFailed"), "{:?}", *l);
            assert!(l[2].starts_with("r3:DeviceFailed:0@"), "{l:?}");
        }
        assert_eq!(h.mem.lock().read(0, 4), vec![0x11; 4], "stale data kept");
        let s = *h.stats.lock();
        assert_eq!(s.failed_ops, 2);
        assert_eq!(s.failure_epochs, 1);
        assert!(s.last_failed_at_ns >= secs && s.last_failed_at_ns < 2 * secs);

        // After the window: device acks again, same (previously stale) array.
        sim.run_until_idle();
        assert!(log.lock()[3].starts_with("w4:Ok"));
        assert_eq!(h.mem.lock().read(0, 4), vec![0x44; 4]);
        assert_eq!(h.stats.lock().failure_epochs, 1, "one window, one epoch");
    }

    #[test]
    fn silent_drop_swallows_ops_without_reply() {
        use simcore::fault::{Fault, FaultPlan};

        let mut sim = Sim::with_seed(22);
        let mut store = DurableStore::new();
        let net = Network::new(FabricConfig::default());
        let cfg = NpmuConfig::hardware(1 << 20)
            .with_half(0)
            .with_fail_mode(FailureMode::SilentDrop);
        let h = Npmu::install(&mut sim, &mut store, &net, None, "pm-a", cfg);
        h.att.lock().map(AttEntry {
            nva_base: 0x1000,
            len: 0x1000,
            phys_base: 0,
            allowed: CpuFilter::Any,
        });
        net.lock().fault_plan = FaultPlan::none().with(Fault::NpmuDown {
            volume_half: 0,
            from: SimTime(0),
            to: SimTime(simcore::time::SECS),
        });
        let log = Shared::new(Vec::new());
        let cep = net.lock().attach(ActorId(u32::MAX));
        spawn_client(
            &mut sim,
            &net,
            cep,
            h.ep,
            vec![(1, 0x1000, vec![9; 32])],
            None,
            log.clone(),
        );
        sim.run_until(SimTime(simcore::time::SECS / 2));
        assert!(log.lock().is_empty(), "no completion must arrive");
        assert_eq!(h.stats.lock().failed_ops, 1);
        assert_eq!(h.mem.lock().writes(), 0);
    }

    #[test]
    fn half_inferred_from_name_suffix() {
        let mut sim = Sim::with_seed(23);
        let mut store = DurableStore::new();
        let net = Network::new(FabricConfig::default());
        let a = Npmu::install(
            &mut sim,
            &mut store,
            &net,
            None,
            "vol-a",
            NpmuConfig::hardware(4096),
        );
        // Down window for half 0 must hit "vol-a" even though the config
        // never set mirror_half explicitly.
        use simcore::fault::{Fault, FaultPlan};
        net.lock().fault_plan = FaultPlan::none().with(Fault::NpmuDown {
            volume_half: 0,
            from: SimTime(0),
            to: SimTime(simcore::time::SECS),
        });
        a.att.lock().map(AttEntry {
            nva_base: 0,
            len: 4096,
            phys_base: 0,
            allowed: CpuFilter::Any,
        });
        let log = Shared::new(Vec::new());
        let cep = net.lock().attach(ActorId(u32::MAX));
        spawn_client(
            &mut sim,
            &net,
            cep,
            a.ep,
            vec![(1, 0, vec![1; 8])],
            None,
            log.clone(),
        );
        sim.run_until_idle();
        assert!(log.lock()[0].starts_with("w1:DeviceFailed"));
    }

    #[test]
    fn pool_window_hits_only_matching_member() {
        use simcore::fault::{Fault, FaultPlan};

        let mut sim = Sim::with_seed(24);
        let mut store = DurableStore::new();
        let net = Network::new(FabricConfig::default());
        // Two pool members, both half "a": only volume 1 is faulted.
        let v0 = Npmu::install(
            &mut sim,
            &mut store,
            &net,
            None,
            "pool0-a",
            NpmuConfig::hardware(4096).with_volume(0),
        );
        let v1 = Npmu::install(
            &mut sim,
            &mut store,
            &net,
            None,
            "pool1-a",
            NpmuConfig::hardware(4096).with_volume(1),
        );
        net.lock().fault_plan = FaultPlan::none().with(Fault::PoolNpmuDown {
            volume: 1,
            half: 0,
            from: SimTime(0),
            to: SimTime(simcore::time::SECS),
        });
        for h in [&v0, &v1] {
            h.att.lock().map(AttEntry {
                nva_base: 0,
                len: 4096,
                phys_base: 0,
                allowed: CpuFilter::Any,
            });
        }
        let log = Shared::new(Vec::new());
        let cep0 = net.lock().attach(ActorId(u32::MAX));
        spawn_client(
            &mut sim,
            &net,
            cep0,
            v0.ep,
            vec![(1, 0, vec![1; 8])],
            None,
            log.clone(),
        );
        let cep1 = net.lock().attach(ActorId(u32::MAX));
        spawn_client(
            &mut sim,
            &net,
            cep1,
            v1.ep,
            vec![(2, 0, vec![2; 8])],
            None,
            log.clone(),
        );
        sim.run_until(SimTime(simcore::time::SECS / 2));
        let l = log.lock().clone();
        assert!(l.iter().any(|e| e.starts_with("w1:Ok")), "{l:?}");
        assert!(l.iter().any(|e| e.starts_with("w2:DeviceFailed")), "{l:?}");
        assert_eq!(v0.stats.lock().failure_epochs, 0);
        assert_eq!(v1.stats.lock().failure_epochs, 1);
    }

    /// A slow-drain device plus one writer; returns everything needed to
    /// poke at the ingress-buffer window.
    fn setup_slow_drain(
        name: &str,
        data: Vec<u8>,
    ) -> (
        Sim,
        DurableStore,
        NpmuHandle,
        Shared<Vec<String>>,
        SharedNetwork,
    ) {
        let mut sim = Sim::with_seed(31);
        let mut store = DurableStore::new();
        let net = Network::new(FabricConfig::default());
        let cfg = NpmuConfig::hardware(1 << 20).with_ingress_drain_ns(simcore::time::SECS);
        let h = Npmu::install(&mut sim, &mut store, &net, None, name, cfg);
        h.att.lock().map(AttEntry {
            nva_base: 0x1000,
            len: 0x1000,
            phys_base: 0,
            allowed: CpuFilter::Any,
        });
        let log = Shared::new(Vec::new());
        let cep = net.lock().attach(ActorId(u32::MAX));
        spawn_client(
            &mut sim,
            &net,
            cep,
            h.ep,
            vec![(1, 0x1000, data)],
            None,
            log.clone(),
        );
        (sim, store, h, log, net)
    }

    #[test]
    fn ack_does_not_imply_durability_before_drain() {
        let (mut sim, mut store, h, log, _net) = setup_slow_drain("pm0", vec![0xAB; 64]);
        sim.run_until(SimTime(simcore::time::SECS / 2));
        assert!(log.lock()[0].starts_with("w1:Ok"), "{:?}", *log.lock());
        assert_eq!(h.mem.lock().read(0, 4), vec![0; 4], "still in ingress");
        // Power loss while the acked bytes sit in the buffer: gone.
        drop(sim);
        store.reset_volatile();
        let mut sim2 = Sim::with_seed(32);
        let net2 = Network::new(FabricConfig::default());
        let h2 = Npmu::install(
            &mut sim2,
            &mut store,
            &net2,
            None,
            "pm0",
            NpmuConfig::hardware(1 << 20),
        );
        assert_eq!(h2.mem.lock().read(0, 4), vec![0; 4], "acked write lost");
    }

    #[test]
    fn read_after_write_forces_buffer_to_array() {
        let (mut sim, _store, h, log, net) = setup_slow_drain("pm0", vec![0x5C; 64]);
        let cep2 = net.lock().attach(ActorId(u32::MAX));
        spawn_client_at(
            &mut sim,
            &net,
            cep2,
            h.ep,
            vec![],
            Some((2, 0x1000, 16)),
            log.clone(),
            SimDuration::from_nanos(100_000),
        );
        sim.run_until(SimTime(simcore::time::SECS / 2));
        assert!(
            log.lock().iter().any(|l| l.starts_with("r2:Ok:16@")),
            "{:?}",
            *log.lock()
        );
        // Long before the 1 s dwell expired, the read drained the buffer.
        assert_eq!(h.mem.lock().read(0, 4), vec![0x5C; 4]);
    }

    /// Spawn a client that posts one scrub `(op_id, addr, len, chunk)`
    /// `delay_ns` after start.
    fn spawn_scrub(
        sim: &mut Sim,
        net: &SharedNetwork,
        dev: EndpointId,
        scrub: (u64, u64, u32, u32),
        log: Shared<Vec<String>>,
        delay_ns: u64,
    ) {
        let ep = net.lock().attach(ActorId(u32::MAX));
        let a = sim.spawn(Client {
            net: net.clone(),
            ep,
            dev,
            ops: vec![],
            read: None,
            scrub: Some(scrub),
            chain: None,
            log,
            delay: SimDuration::from_nanos(delay_ns),
        });
        net.lock().rebind(ep, a);
    }

    #[test]
    fn scrub_hashes_persisted_array_not_ingress() {
        let (mut sim, _store, h, log, net) = setup_slow_drain("pm0", vec![0x77; 64]);
        spawn_scrub(
            &mut sim,
            &net,
            h.ep,
            (3, 0x1000, 64, 64),
            log.clone(),
            100_000,
        );
        sim.run_until(SimTime(simcore::time::SECS / 2));
        // The scrub saw zeros: buffered bytes are not media.
        let zeros = [crate::checksum64(&[0u8; 64])];
        let expect = format!("c3:Ok:{zeros:#x?}@");
        assert!(
            log.lock().iter().any(|l| l.starts_with(&expect)),
            "{:?}",
            *log.lock()
        );
        assert_eq!(h.mem.lock().read(0, 4), vec![0; 4], "scrub must not drain");
    }

    /// An 8 MiB device with a 4 KiB window at `0x1000` and a 4 MiB one at
    /// `0x10_0000` for scrubs to range over, on a jitter-free fabric (so
    /// runs that post different ops stay comparable to the nanosecond).
    fn setup_scan_window() -> (Sim, NpmuHandle, Shared<Vec<String>>, SharedNetwork) {
        let mut sim = Sim::with_seed(11);
        let mut store = DurableStore::new();
        let net = Network::new(FabricConfig {
            jitter_frac: 0.0,
            ..FabricConfig::default()
        });
        let cfg = NpmuConfig::hardware(8 << 20);
        let h = Npmu::install(&mut sim, &mut store, &net, None, "pm0", cfg);
        for (nva_base, len) in [(0x1000, 0x1000), (0x10_0000, 4 << 20)] {
            h.att.lock().map(AttEntry {
                nva_base,
                len,
                phys_base: nva_base,
                allowed: CpuFilter::Any,
            });
        }
        (sim, h, Shared::new(Vec::new()), net)
    }

    /// A digest holds the device's one scan engine for `len /
    /// DIGEST_BW_BPS`: its reply is late by exactly that, and a digest
    /// that arrives while another is scanning waits for it.
    #[test]
    fn digest_reply_pays_scan_time_and_digests_queue() {
        // Completion times of scrubs `(len, posted_at_ns)`, by op.
        let done_at = |digests: &[(u32, u64)]| -> Vec<u64> {
            let (mut sim, h, log, net) = setup_scan_window();
            for (op, &(len, at)) in digests.iter().enumerate() {
                let scrub = (op as u64, 0x10_0000, len, len);
                spawn_scrub(&mut sim, &net, h.ep, scrub, log.clone(), at);
            }
            sim.run_until_idle();
            let mut log = log.lock().clone();
            log.sort();
            assert!(log.iter().all(|l| l.contains(":Ok:")), "{log:?}");
            log.iter().map(|l| ts(l)).collect()
        };
        let (big, small) = (256 << 10, 64 << 10);
        // One byte: the same one-digest reply, next to no scan.
        let free = done_at(&[(1, 0)])[0] - digest_ns(1);
        let alone = done_at(&[(big, 0)])[0];
        assert_eq!(alone - free, digest_ns(big as u64));
        assert_eq!(digest_ns(big as u64), 262_144, "1 GB/s: a byte a ns");
        // Posted 10 us later, well inside the first one's 262 us scan.
        let both = done_at(&[(big, 0), (small, 10_000)]);
        assert_eq!(both[0], alone);
        assert_eq!(both[1] - both[0], digest_ns(small as u64));
    }

    /// A scan occupies the scan engine, not the transmit port: a read
    /// posted while a long scrub is scanning completes exactly when it
    /// would on an idle device. (A digest reply that reserved the port
    /// for the end of its scan closed it from *now* — the port's busy
    /// horizon — and every read reply queued behind nothing.)
    #[test]
    fn read_behind_a_scanning_scrub_is_not_delayed() {
        let read_done_at = |scrub: Option<u32>| -> u64 {
            let (mut sim, h, log, net) = setup_scan_window();
            if let Some(len) = scrub {
                spawn_scrub(
                    &mut sim,
                    &net,
                    h.ep,
                    (1, 0x10_0000, len, len),
                    log.clone(),
                    0,
                );
            }
            let cep = net.lock().attach(ActorId(u32::MAX));
            let read = Some((2, 0x1000, 4096));
            let at = SimDuration::from_nanos(50_000);
            spawn_client_at(&mut sim, &net, cep, h.ep, vec![], read, log.clone(), at);
            sim.run_until_idle();
            let log = log.lock();
            let line = log.iter().find(|l| l.starts_with("r2:Ok:4096@"));
            ts(line.unwrap_or_else(|| panic!("{log:?}")))
        };
        let scan = 4 << 20;
        let idle = read_done_at(None);
        assert!(
            digest_ns(scan as u64) > 10 * idle,
            "the scan outlasts the read"
        );
        assert_eq!(read_done_at(Some(scan)), idle);
    }

    /// Spawn a client that posts one write chain `delay_ns` after start.
    fn spawn_chain(
        sim: &mut Sim,
        net: &SharedNetwork,
        dev: EndpointId,
        chain: (u64, Vec<ChainLink>, bool),
        log: Shared<Vec<String>>,
        delay_ns: u64,
    ) {
        let ep = net.lock().attach(ActorId(u32::MAX));
        let a = sim.spawn(Client {
            net: net.clone(),
            ep,
            dev,
            ops: vec![],
            read: None,
            scrub: None,
            chain: Some(chain),
            log,
            delay: SimDuration::from_nanos(delay_ns),
        });
        net.lock().rebind(ep, a);
    }

    /// One acked 64 B write sitting in a slow-drain ingress buffer, then a
    /// two-link chain; returns the device and the chain's ack time.
    fn run_chain_behind_buffered_write(fence: bool) -> (NpmuHandle, u64) {
        let (mut sim, _store, h, log, net) = setup_slow_drain("pm0", vec![0xEE; 64]);
        let chain = vec![link(0x1100, vec![0xA1; 32]), link(0x1200, vec![0xA2; 16])];
        spawn_chain(
            &mut sim,
            &net,
            h.ep,
            (7, chain, fence),
            log.clone(),
            100_000,
        );
        sim.run_until(SimTime(simcore::time::SECS / 2));
        let l = log.lock().clone();
        assert!(
            l[0].starts_with("w1:Ok") && l[1].starts_with("w7:Ok"),
            "{l:?}"
        );
        (h, ts(&l[1]))
    }

    #[test]
    fn fenced_chain_persists_itself_and_every_earlier_acked_write() {
        let (h, fenced_at) = run_chain_behind_buffered_write(true);
        // Long before the 1 s dwell: the earlier acked write and both links.
        assert_eq!(h.mem.lock().read(0, 4), vec![0xEE; 4]);
        assert_eq!(h.mem.lock().read(0x100, 4), vec![0xA1; 4]);
        assert_eq!(h.mem.lock().read(0x200, 4), vec![0xA2; 4]);
        let s = *h.stats.lock();
        assert_eq!((s.writes, s.flushes, s.bytes_written), (3, 1, 64 + 48));

        // Unfenced, the same chain acks from the buffer — nothing on the
        // array — and the fence's only cost is the device-side flush.
        let (h, unfenced_at) = run_chain_behind_buffered_write(false);
        assert_eq!(h.mem.lock().writes(), 0, "acked, still volatile");
        assert_eq!(h.stats.lock().flushes, 0);
        assert_eq!(fenced_at - unfenced_at, 500);
    }

    #[test]
    fn rejected_link_rejects_the_chain_and_stages_nothing() {
        let (mut sim, _store, h, log, net, _cep) = setup(NpmuKind::Hardware);
        // Second link runs off the end of the only mapped window.
        let chain = vec![link(0x1100, vec![1; 32]), link(0x1FF0, vec![2; 32])];
        spawn_chain(&mut sim, &net, h.ep, (1, chain, true), log.clone(), 0);
        // A good fenced write afterwards drains the whole ingress buffer:
        // the rejected chain's first link must not be in it.
        let good = vec![link(0x1200, vec![3; 16])];
        spawn_chain(&mut sim, &net, h.ep, (2, good, true), log.clone(), 100_000);
        sim.run_until_idle();
        let l = log.lock().clone();
        assert!(
            l[0].starts_with("w1:OutOfBounds") && l[1].starts_with("w2:Ok"),
            "{l:?}"
        );
        assert_eq!(h.mem.lock().read(0x100, 32), vec![0; 32], "never acked");
        assert_eq!(h.mem.lock().read(0x200, 16), vec![3; 16]);
        let s = *h.stats.lock();
        assert_eq!(
            (s.writes, s.flushes, s.bytes_written, s.access_violations),
            (1, 1, 16, 1)
        );
    }

    #[test]
    fn down_or_write_fenced_device_nacks_the_chain_whole() {
        use simcore::fault::{Fault, FaultPlan};
        let chain = || vec![link(0x1100, vec![1; 32]), link(0x1200, vec![2; 32])];

        let (mut sim, _store, h, log, net) = setup_slow_drain("pm-a", vec![0xEE; 64]);
        net.lock().fault_plan = FaultPlan::none().with(Fault::NpmuDown {
            volume_half: 0,
            from: SimTime(90_000),
            to: SimTime(simcore::time::SECS),
        });
        spawn_chain(
            &mut sim,
            &net,
            h.ep,
            (7, chain(), true),
            log.clone(),
            100_000,
        );
        sim.run_until_idle();
        assert!(
            log.lock()[1].starts_with("w7:DeviceFailed"),
            "{:?}",
            *log.lock()
        );
        assert_eq!(h.mem.lock().writes(), 0);

        let (mut sim, _store, h, log, net, _cep) = setup(NpmuKind::Hardware);
        h.write_fence.lock().engaged = true;
        spawn_chain(&mut sim, &net, h.ep, (7, chain(), true), log.clone(), 0);
        sim.run_until_idle();
        assert!(
            log.lock()[0].starts_with("w7:AccessViolation"),
            "{:?}",
            *log.lock()
        );
        assert_eq!(h.mem.lock().writes(), 0);
        assert_eq!(h.stats.lock().fenced_ops, 1);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// A power cut at any instant leaves the array holding a prefix
        /// of the links posted so far, in post order — never link `k+1`
        /// without link `k` — and the prefix ends on a chain boundary (a
        /// chain is staged and drained whole). It covers every chain
        /// whose fenced ack had been delivered, and all posted before it.
        #[test]
        fn power_cut_leaves_a_prefix_of_the_posted_chains(
            chains in proptest::collection::vec(
                (proptest::collection::vec(1usize..64, 1..5), proptest::prelude::any::<bool>()),
                2..7,
            ),
            cut_us in 8u64..60,
        ) {
            let mut sim = Sim::with_seed(11);
            let mut store = DurableStore::new();
            let net = Network::new(FabricConfig::default());
            // Dwell of four post intervals: several chains share the buffer.
            let cfg = NpmuConfig::hardware(1 << 20).with_ingress_drain_ns(20_000);
            let h = Npmu::install(&mut sim, &mut store, &net, None, "pm0", cfg.clone());
            h.att.lock().map(AttEntry {
                nva_base: 0x1000,
                len: 0x1000,
                phys_base: 0,
                allowed: CpuFilter::Any,
            });
            // Chain `i` is posted at `5 i` us; its links fill disjoint 64 B
            // cells, in post order, with the cell's 1-based index.
            let log = Shared::new(Vec::new());
            let mut cells: Vec<(usize, usize)> = Vec::new(); // (chain, len)
            for (i, (lens, fence)) in chains.iter().enumerate() {
                let links = lens
                    .iter()
                    .map(|&n| {
                        cells.push((i, n));
                        let c = cells.len() as u64;
                        link(0x1000 + 64 * (c - 1), vec![c as u8; n])
                    })
                    .collect();
                let post = (i as u64 + 1, links, *fence);
                spawn_chain(&mut sim, &net, h.ep, post, log.clone(), 5_000 * i as u64);
            }
            sim.run_until(SimTime(cut_us * 1_000));
            // Power loss: the ingress buffer is gone, the array survives.
            drop(sim);
            store.reset_volatile();
            let mut sim2 = Sim::with_seed(12);
            let net2 = Network::new(FabricConfig::default());
            let h2 = Npmu::install(&mut sim2, &mut store, &net2, None, "pm0", cfg);
            let on_array: Vec<bool> = cells
                .iter()
                .enumerate()
                .map(|(c, &(_, n))| {
                    let got = h2.mem.lock().read(64 * c as u64, n);
                    assert!(got == vec![c as u8 + 1; n] || got == vec![0; n], "torn link");
                    got[0] != 0
                })
                .collect();
            let k = on_array.iter().take_while(|&&b| b).count();
            proptest::prop_assert!(on_array[k..].iter().all(|&b| !b), "not a prefix: {:?}", on_array);
            proptest::prop_assert!(
                k == 0 || k == cells.len() || cells[k - 1].0 != cells[k].0,
                "prefix ends inside a chain: {:?}",
                on_array
            );
            for (i, (_, fence)) in chains.iter().enumerate() {
                let acked = log.lock().iter().any(|l| l.starts_with(&format!("w{}:Ok", i + 1)));
                if *fence && acked {
                    let through = cells.iter().rposition(|&(c, _)| c == i).unwrap();
                    proptest::prop_assert!(k > through, "fenced ack {} not durable", i + 1);
                }
            }
        }
    }

    #[test]
    fn down_window_wipes_ingress_buffer() {
        use simcore::fault::{Fault, FaultPlan};
        let (mut sim, _store, h, log, net) = setup_slow_drain("pm-a", vec![0xDD; 64]);
        // Window opens well after the write acks but before its 1 s drain
        // dwell expires: the buffered bytes must be lost, never applied.
        net.lock().fault_plan = FaultPlan::none().with(Fault::NpmuDown {
            volume_half: 0,
            from: SimTime(500_000),
            to: SimTime(2 * simcore::time::SECS),
        });
        sim.run_until_idle();
        assert!(log.lock()[0].starts_with("w1:Ok"), "{:?}", *log.lock());
        assert_eq!(
            h.mem.lock().read(0, 4),
            vec![0; 4],
            "buffer wiped, not drained"
        );
        assert_eq!(h.stats.lock().ingress_lost_bytes, 64);
    }

    /// Posts one device-to-device copy command `(op, src, len, dst_ep,
    /// dst_addr)` at start; the completion lands in the shared log as
    /// `y{op}:{status}`.
    struct CopyClient {
        net: SharedNetwork,
        ep: EndpointId,
        dev: EndpointId,
        copy: (u64, u64, u32, EndpointId, u64),
        log: Shared<Vec<String>>,
    }

    impl Actor for CopyClient {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            use simnet::TrafficClass::Commit;
            if msg.is::<Start>() {
                let (id, src, len, dst_ep, dst_addr) = self.copy;
                let net = self.net.clone();
                simnet::rdma_copy(
                    ctx, &net, self.ep, self.dev, src, len, dst_ep, dst_addr, id, Commit,
                );
            } else if let Ok((_, d)) = msg.take::<simnet::RdmaCopyDone>() {
                self.log.lock().push(format!("y{}:{:?}", d.op_id, d.status));
            }
        }
    }

    fn spawn_copy(sim: &mut Sim, c: CopyClient) {
        let (net, ep) = (c.net.clone(), c.ep);
        let a = sim.spawn(c);
        net.lock().rebind(ep, a);
    }

    #[test]
    fn device_scrub_digests_match_host_digest_per_chunk() {
        let (mut sim, _store, h, log, net, _cep) = setup(NpmuKind::Hardware);
        let data: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(7) % 251) as u8)
            .collect();
        h.mem.lock().write(0x100, &data);
        spawn_scrub(&mut sim, &net, h.ep, (5, 0x1100, 300, 128), log.clone(), 0);
        sim.run_until_idle();
        // Three chunks: 128 + 128 + a short 44 B tail chunk.
        let expect: Vec<u64> = [&data[..128], &data[128..256], &data[256..300]]
            .map(crate::checksum64)
            .to_vec();
        let want = format!("c5:Ok:{expect:#x?}@");
        assert!(
            log.lock().iter().any(|l| l.starts_with(&want)),
            "{:?}",
            *log.lock()
        );
        assert_eq!(h.stats.lock().scrubs, 1);
    }

    /// Two chunks that differ only in a leading self-checksummed cell
    /// (`x ‖ crc32(x)`, the control-cell slot format) must digest
    /// differently — a plain CRC-32 of the chunk cannot tell them apart.
    #[test]
    fn scrub_digest_sees_a_divergent_watermark_cell() {
        use simcore::checksum::crc32;
        let chunk = |x: u64| {
            let mut c = x.to_le_bytes().to_vec();
            c.extend_from_slice(&crc32(&x.to_le_bytes()).to_le_bytes());
            c.extend_from_slice(&[0x5A; 104]);
            c
        };
        let (a, b) = (chunk(1_005_454), chunk(1_050_638));
        assert_eq!(crc32(&a), crc32(&b), "the blind spot being avoided");
        assert_ne!(crate::checksum64(&a), crate::checksum64(&b));
    }

    #[test]
    fn device_copy_moves_bytes_peer_to_peer_past_cpu_filter() {
        let (mut sim, mut store, h, log, net, cep) = setup(NpmuKind::Hardware);
        let h2 = Npmu::install(
            &mut sim,
            &mut store,
            &net,
            None,
            "pm1",
            NpmuConfig::hardware(1 << 20),
        );
        // The destination window admits no initiator CPU at all — only
        // the DMA-peer path can land bytes there.
        h2.att.lock().map(AttEntry {
            nva_base: 0x1000,
            len: 0x1000,
            phys_base: 0,
            allowed: CpuFilter::Only(vec![99]),
        });
        h2.dma_peers.lock().insert(h.ep);
        h.mem.lock().write(0x200, &[0xAB; 64]);
        spawn_copy(
            &mut sim,
            CopyClient {
                net: net.clone(),
                ep: cep,
                dev: h.ep,
                copy: (7, 0x1200, 64, h2.ep, 0x1300),
                log: log.clone(),
            },
        );
        sim.run_until_idle();
        assert!(
            log.lock().contains(&"y7:Ok".to_string()),
            "{:?}",
            *log.lock()
        );
        assert_eq!(h2.mem.lock().read(0x300, 64), vec![0xAB; 64]);
        assert_eq!(h.stats.lock().copies, 1);
        assert_eq!(h.stats.lock().copy_bytes, 64);
    }

    #[test]
    fn device_copy_rejected_when_destination_is_not_a_registered_peer() {
        let (mut sim, mut store, h, log, net, cep) = setup(NpmuKind::Hardware);
        let h2 = Npmu::install(
            &mut sim,
            &mut store,
            &net,
            None,
            "pm1",
            NpmuConfig::hardware(1 << 20),
        );
        h2.att.lock().map(AttEntry {
            nva_base: 0x1000,
            len: 0x1000,
            phys_base: 0,
            allowed: CpuFilter::Only(vec![99]),
        });
        // No dma_peers registration: the source's write is an ordinary
        // initiator write and the CPU filter rejects it.
        h.mem.lock().write(0x200, &[0xCD; 32]);
        spawn_copy(
            &mut sim,
            CopyClient {
                net: net.clone(),
                ep: cep,
                dev: h.ep,
                copy: (8, 0x1200, 32, h2.ep, 0x1300),
                log: log.clone(),
            },
        );
        sim.run_until_idle();
        assert!(
            log.lock().contains(&"y8:AccessViolation".to_string()),
            "{:?}",
            *log.lock()
        );
        assert_eq!(h2.mem.lock().read(0x300, 4), vec![0; 4]);
    }

    #[test]
    fn hardware_survives_power_loss_pmp_does_not() {
        for (kind, survives) in [(NpmuKind::Hardware, true), (NpmuKind::Pmp, false)] {
            let (mut sim, mut store, h, log, net, cep) = setup(kind);
            spawn_client(
                &mut sim,
                &net,
                cep,
                h.ep,
                vec![(1, 0x1000, vec![0xCC; 128])],
                None,
                log.clone(),
            );
            sim.run_until(SimTime(simcore::time::SECS));
            // Power loss: drop the sim, reset volatile store entries,
            // reinstall the device in a fresh sim.
            drop(sim);
            store.reset_volatile();
            let mut sim2 = Sim::with_seed(12);
            let net2 = Network::new(FabricConfig::default());
            let cfg = match kind {
                NpmuKind::Hardware => NpmuConfig::hardware(1 << 20),
                NpmuKind::Pmp => NpmuConfig::pmp(1 << 20),
            };
            let h2 = Npmu::install(&mut sim2, &mut store, &net2, None, "pm0", cfg);
            let data = h2.mem.lock().read(0, 4);
            if survives {
                assert_eq!(data, vec![0xCC; 4], "hardware NPMU must persist");
            } else {
                assert_eq!(data, vec![0; 4], "PMP memory must be lost");
            }
            let _ = h;
        }
    }
}
