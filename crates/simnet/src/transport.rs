//! In-flight message and RDMA event types, and the issue/complete helpers.
//!
//! The flow for a synchronous RDMA write (the paper's §3.3 access
//! architecture) is:
//!
//! ```text
//! initiator actor --rdma_write()--> [queue+wire latency] --> device actor
//!     receives InboundRdmaWrite, validates its ATT, applies to memory,
//!     calls reply_rdma_write() --> [ack latency] --> initiator actor
//!     receives RdmaWriteDone { status }
//! ```
//!
//! The *data reaches the device at arrival time*, not at issue time: a
//! power loss while the transfer is in flight leaves the device memory
//! untouched, which is precisely the window the PMM's self-consistent
//! metadata has to tolerate. Whether the arrived bytes are *durable* at
//! ack time is the device's business — an NPMU models a volatile ingress
//! buffer, so durability depends on the client's [`PersistMode`].
//!
//! ## Two completion paths
//!
//! Every operation carries a [`TrafficClass`]. With QoS disabled (the
//! default) the op follows the legacy analytic path: one delivery event
//! whose latency folds in software overhead, port horizons and wire time
//! — bit-identical to the pre-QoS model. With QoS enabled
//! ([`crate::QosConfig`] on the network) the serialization moves to the
//! *target-side port*, which becomes an honest store-and-forward stage
//! arbitrated by the per-class [`crate::qos::PortScheduler`] inside a
//! lazily-spawned fabric-arbiter actor: inbound requests queue at the
//! target's rx port, read-reply data at the device's tx port, and a
//! resilver can no longer ride for free underneath commit traffic.
//! Uncontended latency is identical in both paths (the wire time is paid
//! once either way); only *queueing* differs — which is the point.
//!
//! ## Which port a leg leaves through
//!
//! Both paths share the issue side (`issue_leg`): a leg rides the
//! fabric its *target* is homed on (the other one while that is down —
//! see [`crate::network`]) and reserves the initiator's transmit port on
//! that fabric only. Two chains posted in one event to the two halves of
//! a mirror therefore serialize their bytes side by side, not one behind
//! the other; two legs to the same target always share a port and keep
//! their issue order. A device's data reply (read, scrub)
//! returns on the fabric its request arrived on.

use crate::latency;
use crate::network::{EndpointId, PortDir, SharedNetwork};
use crate::qos::{PortScheduler, TrafficClass};
use bytes::Bytes;
use simcore::actor::Start;
use simcore::hash::FastMap;
use simcore::{Actor, ActorId, Ctx, EventSlot, Msg, SimDuration};
use std::any::Any;
use std::rc::Rc;

/// When a remote persistent write is actually *durable*, as opposed to
/// merely acknowledged. Kashyap et al. ("Correct, Fast Remote
/// Persistence") showed that an RDMA NIC-level ack does **not** imply the
/// bytes reached persistent media: they can sit in NIC/PCIe ingress
/// buffers and vanish at power loss. Devices here model that buffer, and
/// clients pick one of three disciplines with distinct latency and
/// crash-visibility semantics:
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum PersistMode {
    /// Trust the NIC ack (the optimistic legacy behaviour): lowest
    /// latency, but bytes still in the ingress buffer are LOST on power
    /// loss — an acknowledged commit can evaporate.
    NicAck,
    /// Issue a small RDMA read after the writes: reads cannot pass
    /// posted writes, so the read's completion proves the buffer was
    /// forced to the array (Kashyap's read-after-write trick). One extra
    /// round trip, no special device verb required.
    FlushOnRead,
    /// Close each write chain with a persist fence: the device drains its
    /// ingress buffer and pays its flush cost before the one ack, whose
    /// arrival proves persistence. No extra round trip. The honest
    /// default for commit-critical writers.
    #[default]
    PersistFlush,
}

/// Outcome of an RDMA operation, as seen by the initiator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RdmaStatus {
    /// Hardware ack received: the data is in the remote NIC with a valid
    /// CRC (for an NPMU: it is persistent).
    Ok,
    /// The target NIC's translation table rejected the address range for
    /// this initiator.
    AccessViolation,
    /// Address range not mapped at the target.
    OutOfBounds,
    /// Both fabrics down or target endpoint detached.
    Unreachable,
    /// The target device is in a failure window and NACKed the op (an
    /// NPMU mirror half that is down but still electrically present).
    /// Data was **not** applied; initiators treat this like a timeout
    /// and fall back to the surviving mirror.
    DeviceFailed,
}

/// An IPC message delivered to the actor bound to the target endpoint.
pub struct NetDelivery {
    pub from_ep: EndpointId,
    pub payload: Box<dyn Any>,
}

/// One write of an ordered chain: `data` lands at network virtual
/// address `addr` within the target's exposed space.
#[derive(Clone, Debug)]
pub struct ChainLink {
    pub addr: u64,
    pub data: Bytes,
    /// On-wire span of the link, ≥ `data.len()` (compact descriptors
    /// carry fewer payload bytes than they cover). The target must
    /// validate/translate this span, not `data.len()`: a compact write
    /// starting exactly on a translation-window boundary would otherwise
    /// zero-length-match the *preceding* window and bounce off its
    /// permissions.
    pub wire_len: u32,
}

impl ChainLink {
    /// Bytes this link occupies on the wire and in the target's
    /// translation check.
    pub fn span(&self) -> u64 {
        (self.wire_len as u64).max(self.data.len() as u64)
    }
}

/// An ordered chain of RDMA writes arriving at a device actor, posted
/// with one doorbell and answered with one [`RdmaWriteDone`]. The target
/// applies the links strictly in order — after a power cut its media hold
/// a prefix of them, never link *k+1* without link *k* — and rejects the
/// chain whole if any link fails validation. A plain write is the
/// one-link, unfenced chain.
pub struct InboundRdmaWrite {
    pub from_ep: EndpointId,
    /// Actor to notify with [`RdmaWriteDone`].
    pub reply_to: ActorId,
    pub op_id: u64,
    /// Shared, not owned: a mirrored write posts one chain to both halves
    /// of a pair, the way a real initiator posts one registered buffer
    /// twice.
    pub links: Rc<[ChainLink]>,
    /// Trailing persist fence: the target must have every link — and,
    /// its ingress being FIFO, every write it acknowledged earlier — on
    /// persistent media before it answers.
    pub fence: bool,
    /// Class the request travelled in; replies inherit it.
    pub class: TrafficClass,
}

/// An RDMA read request arriving at a device actor.
pub struct InboundRdmaRead {
    pub from_ep: EndpointId,
    pub reply_to: ActorId,
    pub op_id: u64,
    pub addr: u64,
    pub len: u32,
    pub class: TrafficClass,
    /// Fabric the request arrived on; the reply returns on it.
    pub fabric: u8,
}

/// A device-local scrub command arriving at a device actor: digest
/// `ceil(len / chunk)` consecutive chunks of the addressed range locally
/// and reply with one 8-byte digest per chunk. Real arrays scrub mirrors
/// exactly this way — the NIC's checksum engine reads the media locally
/// and only the digests cross the wire, so a verify pass ships
/// O(digests), not O(bytes).
pub struct InboundRdmaScrub {
    pub from_ep: EndpointId,
    pub reply_to: ActorId,
    pub op_id: u64,
    pub addr: u64,
    pub len: u64,
    /// Digest granularity; the final chunk may be short.
    pub chunk: u32,
    pub class: TrafficClass,
    /// Fabric the request arrived on; the reply returns on it.
    pub fabric: u8,
}

/// A device-to-device copy command arriving at the *source* device: read
/// `len` bytes at `src_addr` locally, write them straight to `dst_ep` at
/// `dst_addr` (the payload crosses the fabric exactly once, NPMU→NPMU),
/// then ack the orchestrator. The PMM keeps its transfer window and
/// bulk-admission gate; the data path stays off its ports.
pub struct InboundRdmaCopy {
    pub from_ep: EndpointId,
    pub reply_to: ActorId,
    pub op_id: u64,
    pub src_addr: u64,
    pub len: u32,
    pub dst_ep: EndpointId,
    pub dst_addr: u64,
    pub class: TrafficClass,
}

/// Write completion, delivered to the initiator. For a fenced chain
/// `Ok` means every link, and every write the target acknowledged before
/// it, is on persistent media.
#[derive(Clone, Debug)]
pub struct RdmaWriteDone {
    pub op_id: u64,
    pub status: RdmaStatus,
}

/// Read completion (with data), delivered to the initiator.
#[derive(Clone, Debug)]
pub struct RdmaReadDone {
    pub op_id: u64,
    pub status: RdmaStatus,
    pub data: Bytes,
}

/// Scrub completion: one 64-bit content digest per chunk of the scrubbed
/// range, in address order.
#[derive(Clone, Debug)]
pub struct RdmaScrubDone {
    pub op_id: u64,
    pub status: RdmaStatus,
    pub digests: Vec<u64>,
}

/// Device-to-device copy completion, delivered to the orchestrator once
/// the destination device acked the payload write.
#[derive(Clone, Copy, Debug)]
pub struct RdmaCopyDone {
    pub op_id: u64,
    pub status: RdmaStatus,
}

/// How long an initiator waits before declaring an op unreachable when the
/// fabric cannot carry it at all.
const UNREACHABLE_TIMEOUT_NS: u64 = 1_000_000; // 1 ms

/// Where one issued leg goes and when.
enum Issued {
    /// Legacy analytic path: deliver the payload to `target` after `ns`.
    Legacy { target: ActorId, ns: u64 },
    /// QoS path: the payload reaches the target-side port after `pre_ns`
    /// (software overhead + initiator tx queueing + failover + jitter);
    /// wire time is then paid under arbitration at that port.
    Qos { target: ActorId, pre_ns: u64 },
}

/// Compute the common issue-side latency: route, CRC retransmits, port
/// occupancy, wire time. The leg rides the fabric [`Network::route`]
/// picks for its target and reserves only that fabric's transmit port at
/// the initiator. A failover penalty delays the reservation itself, so
/// later legs on that port queue behind the switch instead of passing it.
/// Under a perturbation seed the leg also takes [`Ctx::jitter_ns`].
/// Returns the fabric ridden too, or `None` if the op cannot be carried.
///
/// [`Network::route`]: crate::network::Network::route
fn issue_leg(
    ctx: &mut Ctx<'_>,
    net: &SharedNetwork,
    from_ep: EndpointId,
    to_ep: EndpointId,
    len: u32,
    class: TrafficClass,
) -> Option<(Issued, u8)> {
    let now = ctx.now();
    let mut n = net.lock();
    let target = n.actor_of(to_ep)?;
    let (fabric, failover_ns) = n.route(from_ep, to_ep, now)?;

    let corruption = n.fault_plan.corruption_rate_at(now);
    let wire = latency::wire_ns(&n.cfg, len);
    let sw = n.cfg.sw_overhead_ns;
    let ready = now.as_nanos() + sw + failover_ns;
    let tx_queue = failover_ns + n.reserve_tx(from_ep, fabric, ready, wire);
    let qos_on = n.qos.enabled;
    let base = if qos_on {
        // Serialization is paid at the target's scheduled port; the issue
        // side charges software overhead and its own tx-port queueing (any
        // failover penalty included). End-to-end this equals the legacy
        // path when the target port is idle — the wire is charged exactly
        // once.
        sw + tx_queue
    } else {
        let nic = n.cfg.target_nic_ns;
        let rx_queue = n.reserve_rx(to_ep, now.as_nanos() + sw + tx_queue + wire, nic);
        latency::one_way_ns(&n.cfg, len) + tx_queue + rx_queue
    };
    n.count_class_bytes(class, len.max(1) as u64);
    n.stats.fabric_ops[fabric as usize] += 1;
    n.stats.fabric_bytes[fabric as usize] += len.max(1) as u64;
    let retr_pen = n.cfg.retransmit_penalty_ns;
    let jfrac = n.cfg.jitter_frac;
    drop(n);

    // CRC-detected corruption forces retransmission (hardware handles it;
    // the initiator just sees added latency). Cap retries defensively.
    let mut extra = 0u64;
    if corruption > 0.0 {
        let mut tries = 0;
        while tries < 8 && ctx.rng().chance(corruption) {
            extra += retr_pen;
            tries += 1;
        }
        if tries > 0 {
            net.lock().stats.retransmits += tries;
        }
    }

    let total = ctx.rng().jitter((base + extra) as f64, jfrac) as u64 + ctx.jitter_ns();
    let issued = if qos_on {
        Issued::Qos {
            target,
            pre_ns: total,
        }
    } else {
        Issued::Legacy { target, ns: total }
    };
    Some((issued, fabric))
}

/// The typed payload a scheduled port eventually releases.
enum QosPayload {
    Write(InboundRdmaWrite),
    Read(InboundRdmaRead),
    Scrub(InboundRdmaScrub),
    Copy(InboundRdmaCopy),
    Ipc(NetDelivery),
    ReadDone(RdmaReadDone),
    ScrubDone(RdmaScrubDone),
}

/// A transfer arriving at a scheduled port (sent to the arbiter actor).
struct QosArrive {
    ep: EndpointId,
    dir: PortDir,
    class: TrafficClass,
    bytes: u64,
    /// Latency added after the final segment leaves the port: target-NIC
    /// processing for requests, the hardware ack for replies.
    tail_ns: u64,
    /// Final recipient of the payload.
    target: ActorId,
    payload: QosPayload,
}

/// A served segment finished serializing; the port may dispatch the next.
struct SegDone {
    ep: EndpointId,
    dir: PortDir,
}

/// Per-port scheduler state inside the arbiter.
struct PortState {
    sched: PortScheduler<(ActorId, u64, QosPayload)>,
    busy_until_ns: u64,
    /// The `SegDone` of a segment that left the scheduler empty, reserved
    /// instead of sent: delivered, it would find nothing to serve. An
    /// arrival while the port is still busy fills it — the port then
    /// frees exactly when and in the order it would have — and a serve
    /// replaces it.
    idle_done: Option<EventSlot>,
}

/// The fabric arbiter: one actor per `Sim` owning every scheduled port.
/// Spawned lazily on the first QoS-routed operation; all arbitration
/// logic lives in the pure [`PortScheduler`], this actor only converts
/// segments to wire time and forwards completed payloads.
struct FabricArbiter {
    net: SharedNetwork,
    ports: FastMap<(EndpointId, PortDir), PortState>,
}

impl FabricArbiter {
    fn serve(&mut self, ctx: &mut Ctx<'_>, key: (EndpointId, PortDir)) {
        let now = ctx.now().as_nanos();
        let Some(port) = self.ports.get_mut(&key) else {
            return;
        };
        if port.busy_until_ns > now || port.sched.is_empty() {
            return;
        }
        let Some(seg) = port.sched.next_segment(now) else {
            return;
        };
        let dur = {
            let n = self.net.lock();
            latency::wire_ns(&n.cfg, seg.bytes.min(u32::MAX as u64) as u32)
        };
        port.busy_until_ns = now + dur;
        if let Some(w) = seg.first_wait_ns {
            self.net.lock().record_port_wait(seg.class, w, 0);
        }
        let free_in = SimDuration::from_nanos(dur);
        port.idle_done = if port.sched.is_empty() {
            Some(ctx.reserve(free_in))
        } else {
            ctx.send_self(
                free_in,
                SegDone {
                    ep: key.0,
                    dir: key.1,
                },
            );
            None
        };
        if let Some((target, tail_ns, payload)) = seg.done {
            let d = SimDuration::from_nanos(dur + tail_ns);
            match payload {
                QosPayload::Write(p) => ctx.send(target, d, p),
                QosPayload::Read(p) => ctx.send(target, d, p),
                QosPayload::Scrub(p) => ctx.send(target, d, p),
                QosPayload::Copy(p) => ctx.send(target, d, p),
                QosPayload::Ipc(p) => ctx.send(target, d, p),
                QosPayload::ReadDone(p) => ctx.send(target, d, p),
                QosPayload::ScrubDone(p) => ctx.send(target, d, p),
            }
        }
    }
}

impl Actor for FabricArbiter {
    fn name(&self) -> &str {
        "fabric-arbiter"
    }
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Start>() {
            return;
        }
        let msg = match msg.take::<QosArrive>() {
            Ok((_, a)) => {
                let key = (a.ep, a.dir);
                let (policy, quantum) = {
                    let n = self.net.lock();
                    (n.qos.policy, n.qos.quantum_bytes)
                };
                let port = self.ports.entry(key).or_insert_with(|| PortState {
                    sched: PortScheduler::new(policy, quantum),
                    busy_until_ns: 0,
                    idle_done: None,
                });
                let now = ctx.now().as_nanos();
                port.sched
                    .enqueue(a.class, a.bytes, now, (a.target, a.tail_ns, a.payload));
                if port.busy_until_ns > now {
                    if let Some(slot) = port.idle_done.take() {
                        let me = ctx.self_id();
                        ctx.send_reserved(
                            slot,
                            me,
                            SegDone {
                                ep: a.ep,
                                dir: a.dir,
                            },
                        );
                    }
                }
                let depth = port.sched.depth(a.class) as u64;
                self.net.lock().record_port_wait(a.class, 0, depth);
                self.serve(ctx, key);
                return;
            }
            Err(m) => m,
        };
        if let Ok((_, s)) = msg.take::<SegDone>() {
            self.serve(ctx, (s.ep, s.dir));
        }
    }
}

/// The arbiter for this network, spawning it on first use.
fn ensure_arbiter(ctx: &mut Ctx<'_>, net: &SharedNetwork) -> ActorId {
    if let Some(a) = net.lock().arbiter {
        return a;
    }
    let a = ctx.spawn(Box::new(FabricArbiter {
        net: net.clone(),
        ports: FastMap::default(),
    }));
    net.lock().arbiter = Some(a);
    a
}

/// Route one leg to the target-side scheduled port.
#[allow(clippy::too_many_arguments)]
fn qos_route(
    ctx: &mut Ctx<'_>,
    net: &SharedNetwork,
    ep: EndpointId,
    dir: PortDir,
    class: TrafficClass,
    bytes: u64,
    tail_ns: u64,
    pre_ns: u64,
    target: ActorId,
    payload: QosPayload,
) {
    let arb = ensure_arbiter(ctx, net);
    ctx.send(
        arb,
        SimDuration::from_nanos(pre_ns),
        QosArrive {
            ep,
            dir,
            class,
            bytes,
            tail_ns,
            target,
            payload,
        },
    );
}

/// Send an IPC message (`payload`) from `from_ep` to the actor bound to
/// `to_ep`. `wire_len` is the modelled on-wire size of the payload.
/// Returns `false` if the message was dropped (no live fabric / endpoint) —
/// callers model their own timeout/retry, as the NSK message system does.
/// Control-plane IPC rides [`TrafficClass::Commit`]; bandwidth-bearing
/// senders use [`send_net_msg_class`].
pub fn send_net_msg<T: Any>(
    ctx: &mut Ctx<'_>,
    net: &SharedNetwork,
    from_ep: EndpointId,
    to_ep: EndpointId,
    wire_len: u32,
    payload: T,
) -> bool {
    send_net_msg_class(
        ctx,
        net,
        from_ep,
        to_ep,
        wire_len,
        TrafficClass::Commit,
        payload,
    )
}

/// As [`send_net_msg`], with an explicit traffic class.
pub fn send_net_msg_class<T: Any>(
    ctx: &mut Ctx<'_>,
    net: &SharedNetwork,
    from_ep: EndpointId,
    to_ep: EndpointId,
    wire_len: u32,
    class: TrafficClass,
    payload: T,
) -> bool {
    match issue_leg(ctx, net, from_ep, to_ep, wire_len, class) {
        Some((issued, _)) => {
            let nic = {
                let mut n = net.lock();
                n.stats.msgs += 1;
                n.stats.msg_bytes += wire_len as u64;
                n.cfg.target_nic_ns
            };
            let delivery = NetDelivery {
                from_ep,
                payload: Box::new(payload),
            };
            match issued {
                Issued::Legacy { target, ns } => {
                    ctx.send(target, SimDuration::from_nanos(ns), delivery)
                }
                Issued::Qos { target, pre_ns } => qos_route(
                    ctx,
                    net,
                    to_ep,
                    PortDir::Rx,
                    class,
                    wire_len.max(1) as u64,
                    nic,
                    pre_ns,
                    target,
                    QosPayload::Ipc(delivery),
                ),
            }
            true
        }
        None => {
            net.lock().stats.unreachable += 1;
            false
        }
    }
}

/// Issue an RDMA write. Completion arrives at the *calling actor* as
/// [`RdmaWriteDone`] with the given `op_id`.
#[allow(clippy::too_many_arguments)]
pub fn rdma_write(
    ctx: &mut Ctx<'_>,
    net: &SharedNetwork,
    from_ep: EndpointId,
    to_ep: EndpointId,
    addr: u64,
    data: Bytes,
    op_id: u64,
    class: TrafficClass,
) {
    let len = data.len() as u32;
    rdma_write_sized(ctx, net, from_ep, to_ep, addr, data, len, op_id, class)
}

/// As [`rdma_write`], but with an explicit on-wire length that may exceed
/// `data.len()`. Simulation-scale workloads carry compact descriptors in
/// `data` while paying the latency/bandwidth of the full `wire_len` — the
/// timing model sees the paper's 4 KB records without the host allocating
/// them. `wire_len` must be ≥ `data.len()`.
#[allow(clippy::too_many_arguments)]
pub fn rdma_write_sized(
    ctx: &mut Ctx<'_>,
    net: &SharedNetwork,
    from_ep: EndpointId,
    to_ep: EndpointId,
    addr: u64,
    data: Bytes,
    wire_len: u32,
    op_id: u64,
    class: TrafficClass,
) {
    debug_assert!(wire_len as usize >= data.len());
    let link = ChainLink {
        addr,
        data,
        wire_len,
    };
    rdma_write_chain(ctx, net, from_ep, to_ep, [link], false, op_id, class)
}

/// Post an ordered chain of writes with one doorbell, optionally closed
/// by a persist fence. The chain pays one software overhead, the wire
/// time of its summed link spans, one target-NIC pass and one
/// [`RdmaWriteDone`]; under QoS it is one scheduled unit of the summed
/// bytes in `class`. [`rdma_write`] and [`rdma_write_sized`] are its
/// one-link, unfenced case. `links` may be an `Rc<[ChainLink]>` already
/// posted elsewhere (the other half of a mirror): the chain is shared,
/// never copied.
#[allow(clippy::too_many_arguments)]
pub fn rdma_write_chain(
    ctx: &mut Ctx<'_>,
    net: &SharedNetwork,
    from_ep: EndpointId,
    to_ep: EndpointId,
    links: impl Into<Rc<[ChainLink]>>,
    fence: bool,
    op_id: u64,
    class: TrafficClass,
) {
    let links = links.into();
    assert!(!links.is_empty(), "empty write chain");
    let span: u64 = links.iter().map(ChainLink::span).sum();
    let len = u32::try_from(span).expect("write chain exceeds the u32 wire-size field");
    match issue_leg(ctx, net, from_ep, to_ep, len, class) {
        Some((issued, _)) => {
            let nic = {
                let mut n = net.lock();
                n.stats.rdma_writes += 1;
                n.stats.rdma_write_bytes += span;
                n.cfg.target_nic_ns
            };
            let reply_to = ctx.self_id();
            let inbound = InboundRdmaWrite {
                from_ep,
                reply_to,
                op_id,
                links,
                fence,
                class,
            };
            match issued {
                Issued::Legacy { target, ns } => {
                    ctx.send(target, SimDuration::from_nanos(ns), inbound)
                }
                Issued::Qos { target, pre_ns } => qos_route(
                    ctx,
                    net,
                    to_ep,
                    PortDir::Rx,
                    class,
                    span.max(1),
                    nic,
                    pre_ns,
                    target,
                    QosPayload::Write(inbound),
                ),
            }
        }
        None => {
            net.lock().stats.unreachable += 1;
            ctx.send_self(
                SimDuration::from_nanos(UNREACHABLE_TIMEOUT_NS),
                RdmaWriteDone {
                    op_id,
                    status: RdmaStatus::Unreachable,
                },
            );
        }
    }
}

/// Issue an RDMA read of `len` bytes. Completion arrives as [`RdmaReadDone`].
/// The request leg is small (a descriptor); the data pays wire time on the
/// device's transmit port in the reply.
#[allow(clippy::too_many_arguments)]
pub fn rdma_read(
    ctx: &mut Ctx<'_>,
    net: &SharedNetwork,
    from_ep: EndpointId,
    to_ep: EndpointId,
    addr: u64,
    len: u32,
    op_id: u64,
    class: TrafficClass,
) {
    match issue_leg(ctx, net, from_ep, to_ep, 64, class) {
        Some((issued, fabric)) => {
            let nic = {
                let mut n = net.lock();
                n.stats.rdma_reads += 1;
                n.stats.rdma_read_bytes += len as u64;
                n.cfg.target_nic_ns
            };
            let reply_to = ctx.self_id();
            let inbound = InboundRdmaRead {
                from_ep,
                reply_to,
                op_id,
                addr,
                len,
                class,
                fabric,
            };
            match issued {
                Issued::Legacy { target, ns } => {
                    ctx.send(target, SimDuration::from_nanos(ns), inbound)
                }
                Issued::Qos { target, pre_ns } => qos_route(
                    ctx,
                    net,
                    to_ep,
                    PortDir::Rx,
                    class,
                    64,
                    nic,
                    pre_ns,
                    target,
                    QosPayload::Read(inbound),
                ),
            }
        }
        None => {
            net.lock().stats.unreachable += 1;
            ctx.send_self(
                SimDuration::from_nanos(UNREACHABLE_TIMEOUT_NS),
                RdmaReadDone {
                    op_id,
                    status: RdmaStatus::Unreachable,
                    data: Bytes::new(),
                },
            );
        }
    }
}

/// Called by a device actor to complete an inbound write chain: sends
/// the hardware ack back to the initiator. Acks are tiny priority control
/// packets in real fabrics; they ride outside the schedulers in both
/// modes. `persist_ns` is the device-side cost of a trailing persist
/// fence, paid before the ack leaves (modelled as reply delay, like a
/// real verb's completion ordering); `0` for an unfenced chain.
pub fn reply_rdma_write(
    ctx: &mut Ctx<'_>,
    net: &SharedNetwork,
    req: &InboundRdmaWrite,
    status: RdmaStatus,
    persist_ns: u64,
) {
    let ack_ns = {
        let n = net.lock();
        n.cfg.ack_ns
    };
    ctx.send(
        req.reply_to,
        SimDuration::from_nanos(ack_ns + persist_ns),
        RdmaWriteDone {
            op_id: req.op_id,
            status,
        },
    );
}

/// Called by a device actor to complete an inbound read: sends the data
/// back, paying wire time on the device's transmit port — under QoS, that
/// port is scheduled and the reply rides the request's class.
pub fn reply_rdma_read(
    ctx: &mut Ctx<'_>,
    net: &SharedNetwork,
    device_ep: EndpointId,
    req: &InboundRdmaRead,
    status: RdmaStatus,
    data: Bytes,
) {
    let now = ctx.now();
    let done = RdmaReadDone {
        op_id: req.op_id,
        status,
        data,
    };
    let bytes = done.data.len().max(1) as u64;
    let (qos_on, ack_ns) = {
        let mut n = net.lock();
        n.count_class_bytes(req.class, bytes);
        n.stats.fabric_bytes[req.fabric as usize] += bytes;
        (n.qos.enabled, n.cfg.ack_ns)
    };
    if qos_on {
        qos_route(
            ctx,
            net,
            device_ep,
            PortDir::Tx,
            req.class,
            bytes,
            ack_ns,
            0,
            req.reply_to,
            QosPayload::ReadDone(done),
        );
        return;
    }
    let ns = {
        let mut n = net.lock();
        let wire = latency::wire_ns(&n.cfg, done.data.len() as u32);
        let q = n.reserve_tx(device_ep, req.fabric, now.as_nanos(), wire);
        wire + q + n.cfg.ack_ns
    };
    ctx.send(req.reply_to, SimDuration::from_nanos(ns), done);
}

/// Issue a batched device-local scrub: the target digests
/// `ceil(len / chunk)` chunks locally and only the per-chunk digests come
/// back. Completion arrives as [`RdmaScrubDone`].
#[allow(clippy::too_many_arguments)]
pub fn rdma_scrub(
    ctx: &mut Ctx<'_>,
    net: &SharedNetwork,
    from_ep: EndpointId,
    to_ep: EndpointId,
    addr: u64,
    len: u64,
    chunk: u32,
    op_id: u64,
    class: TrafficClass,
) {
    match issue_leg(ctx, net, from_ep, to_ep, 64, class) {
        Some((issued, fabric)) => {
            let nic = {
                let mut n = net.lock();
                n.stats.rdma_scrubs += 1;
                n.cfg.target_nic_ns
            };
            let reply_to = ctx.self_id();
            let inbound = InboundRdmaScrub {
                from_ep,
                reply_to,
                op_id,
                addr,
                len,
                chunk,
                class,
                fabric,
            };
            match issued {
                Issued::Legacy { target, ns } => {
                    ctx.send(target, SimDuration::from_nanos(ns), inbound)
                }
                Issued::Qos { target, pre_ns } => qos_route(
                    ctx,
                    net,
                    to_ep,
                    PortDir::Rx,
                    class,
                    64,
                    nic,
                    pre_ns,
                    target,
                    QosPayload::Scrub(inbound),
                ),
            }
        }
        None => {
            net.lock().stats.unreachable += 1;
            ctx.send_self(
                SimDuration::from_nanos(UNREACHABLE_TIMEOUT_NS),
                RdmaScrubDone {
                    op_id,
                    status: RdmaStatus::Unreachable,
                    digests: Vec::new(),
                },
            );
        }
    }
}

/// Issue a device-to-device copy command to the *source* device: a 64 B
/// descriptor asking it to move `len` bytes at `src_addr` directly to
/// `dst_ep`/`dst_addr`. The payload pays its wire time on the
/// source-device→destination-device path (the device issues a plain
/// [`rdma_write`]); the orchestrator's ports carry only the command and
/// the [`RdmaCopyDone`] ack.
#[allow(clippy::too_many_arguments)]
pub fn rdma_copy(
    ctx: &mut Ctx<'_>,
    net: &SharedNetwork,
    from_ep: EndpointId,
    to_ep: EndpointId,
    src_addr: u64,
    len: u32,
    dst_ep: EndpointId,
    dst_addr: u64,
    op_id: u64,
    class: TrafficClass,
) {
    match issue_leg(ctx, net, from_ep, to_ep, 64, class) {
        Some((issued, _)) => {
            let nic = {
                let mut n = net.lock();
                n.stats.rdma_copies += 1;
                n.stats.rdma_copy_bytes += len as u64;
                n.cfg.target_nic_ns
            };
            let reply_to = ctx.self_id();
            let inbound = InboundRdmaCopy {
                from_ep,
                reply_to,
                op_id,
                src_addr,
                len,
                dst_ep,
                dst_addr,
                class,
            };
            match issued {
                Issued::Legacy { target, ns } => {
                    ctx.send(target, SimDuration::from_nanos(ns), inbound)
                }
                Issued::Qos { target, pre_ns } => qos_route(
                    ctx,
                    net,
                    to_ep,
                    PortDir::Rx,
                    class,
                    64,
                    nic,
                    pre_ns,
                    target,
                    QosPayload::Copy(inbound),
                ),
            }
        }
        None => {
            net.lock().stats.unreachable += 1;
            ctx.send_self(
                SimDuration::from_nanos(UNREACHABLE_TIMEOUT_NS),
                RdmaCopyDone {
                    op_id,
                    status: RdmaStatus::Unreachable,
                },
            );
        }
    }
}

/// Called by a device actor to complete an inbound scrub, once its scan
/// has ended: only the packed 8-byte digests cross the wire back, on the
/// device's transmit port (scheduled under QoS, in the request's class).
pub fn reply_rdma_scrub(
    ctx: &mut Ctx<'_>,
    net: &SharedNetwork,
    device_ep: EndpointId,
    req: &InboundRdmaScrub,
    status: RdmaStatus,
    digests: Vec<u64>,
) {
    let now = ctx.now();
    let bytes = (8 * digests.len()).max(1) as u64;
    let done = RdmaScrubDone {
        op_id: req.op_id,
        status,
        digests,
    };
    let (qos_on, ack_ns) = {
        let mut n = net.lock();
        n.count_class_bytes(req.class, bytes);
        n.stats.fabric_bytes[req.fabric as usize] += bytes;
        (n.qos.enabled, n.cfg.ack_ns)
    };
    if qos_on {
        qos_route(
            ctx,
            net,
            device_ep,
            PortDir::Tx,
            req.class,
            bytes,
            ack_ns,
            0,
            req.reply_to,
            QosPayload::ScrubDone(done),
        );
        return;
    }
    let ns = {
        let mut n = net.lock();
        let wire = latency::wire_ns(&n.cfg, bytes as u32);
        let q = n.reserve_tx(device_ep, req.fabric, now.as_nanos(), wire);
        wire + q + n.cfg.ack_ns
    };
    ctx.send(req.reply_to, SimDuration::from_nanos(ns), done);
}

/// Called by the *source* device actor to complete a copy command once
/// the destination acked the payload write. A tiny control ack, outside
/// the schedulers like write acks.
pub fn reply_rdma_copy(
    ctx: &mut Ctx<'_>,
    net: &SharedNetwork,
    req: &InboundRdmaCopy,
    status: RdmaStatus,
) {
    let ack_ns = {
        let n = net.lock();
        n.cfg.ack_ns
    };
    ctx.send(
        req.reply_to,
        SimDuration::from_nanos(ack_ns),
        RdmaCopyDone {
            op_id: req.op_id,
            status,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FabricConfig;
    use crate::network::Network;
    use crate::qos::{QosConfig, SchedPolicy};
    use simcore::actor::Start;
    use simcore::{Actor, Msg, Shared, Sim};

    /// Echo device: applies writes to a buffer, serves reads from it.
    struct Device {
        net: SharedNetwork,
        ep: EndpointId,
        mem: Shared<Vec<u8>>,
    }

    impl Actor for Device {
        fn name(&self) -> &str {
            "device"
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if msg.is::<Start>() {
                return;
            }
            let msg = match msg.take::<InboundRdmaWrite>() {
                Ok((_, w)) => {
                    let mut mem = self.mem.lock();
                    let fits = |l: &ChainLink| l.addr as usize + l.data.len() <= mem.len();
                    if !w.links.iter().all(fits) {
                        reply_rdma_write(ctx, &self.net, &w, RdmaStatus::OutOfBounds, 0);
                    } else {
                        for l in w.links.iter() {
                            let at = l.addr as usize;
                            mem[at..at + l.data.len()].copy_from_slice(&l.data);
                        }
                        reply_rdma_write(ctx, &self.net, &w, RdmaStatus::Ok, 0);
                    }
                    return;
                }
                Err(m) => m,
            };
            if let Ok((_, r)) = msg.take::<InboundRdmaRead>() {
                let mem = self.mem.lock();
                let end = r.addr as usize + r.len as usize;
                let data = Bytes::copy_from_slice(&mem[r.addr as usize..end]);
                reply_rdma_read(ctx, &self.net, self.ep, &r, RdmaStatus::Ok, data);
            }
        }
    }

    struct Host {
        net: SharedNetwork,
        ep: EndpointId,
        dev_ep: EndpointId,
        events: Shared<Vec<(u64, String)>>,
    }

    impl Actor for Host {
        fn name(&self) -> &str {
            "host"
        }
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if msg.is::<Start>() {
                let data = Bytes::from(vec![0xABu8; 4096]);
                rdma_write(
                    ctx,
                    &self.net.clone(),
                    self.ep,
                    self.dev_ep,
                    16,
                    data,
                    1,
                    TrafficClass::Commit,
                );
                return;
            }
            let msg = match msg.take::<RdmaWriteDone>() {
                Ok((_, done)) => {
                    self.events
                        .lock()
                        .push((ctx.now().as_nanos(), format!("w{:?}", done.status)));
                    if done.status == RdmaStatus::Ok {
                        rdma_read(
                            ctx,
                            &self.net.clone(),
                            self.ep,
                            self.dev_ep,
                            16,
                            4096,
                            2,
                            TrafficClass::Commit,
                        );
                    }
                    return;
                }
                Err(m) => m,
            };
            if let Ok((_, done)) = msg.take::<RdmaReadDone>() {
                let ok = done.data.iter().all(|&b| b == 0xAB);
                self.events
                    .lock()
                    .push((ctx.now().as_nanos(), format!("r{:?}:{ok}", done.status)));
            }
        }
    }

    #[allow(clippy::type_complexity)]
    fn setup_with(
        qos: QosConfig,
    ) -> (
        Sim,
        SharedNetwork,
        Shared<Vec<u8>>,
        Shared<Vec<(u64, String)>>,
    ) {
        let mut sim = Sim::with_seed(99);
        let net = Network::with_qos(FabricConfig::default(), qos);
        let mem = Shared::new(vec![0u8; 1 << 16]);
        let events = Shared::new(Vec::new());

        // Pre-allocate endpoint ids, then spawn actors and bind.
        let (dev_ep, host_ep) = {
            let mut n = net.lock();
            let d = n.attach(simcore::ActorId(u32::MAX)); // placeholder
            let h = n.attach(simcore::ActorId(u32::MAX));
            (d, h)
        };
        let dev = sim.spawn(Device {
            net: net.clone(),
            ep: dev_ep,
            mem: mem.clone(),
        });
        let host = sim.spawn(Host {
            net: net.clone(),
            ep: host_ep,
            dev_ep,
            events: events.clone(),
        });
        {
            let mut n = net.lock();
            n.rebind(dev_ep, dev);
            n.rebind(host_ep, host);
        }
        (sim, net, mem, events)
    }

    #[allow(clippy::type_complexity)]
    fn setup() -> (
        Sim,
        SharedNetwork,
        Shared<Vec<u8>>,
        Shared<Vec<(u64, String)>>,
    ) {
        setup_with(QosConfig::disabled())
    }

    #[test]
    fn write_then_read_roundtrip() {
        let (mut sim, net, mem, events) = setup();
        sim.run_until_idle();
        let ev = events.lock();
        assert_eq!(ev.len(), 2, "{ev:?}");
        assert_eq!(ev[0].1, "wOk");
        assert_eq!(ev[1].1, "rOk:true");
        // Write latency in the paper's "10s of microseconds" band.
        assert!(ev[0].0 > 10_000 && ev[0].0 < 100_000, "t={}", ev[0].0);
        assert_eq!(&mem.lock()[16..20], &[0xAB; 4]);
        let stats = net.lock().stats;
        assert_eq!(stats.rdma_writes, 1);
        assert_eq!(stats.rdma_reads, 1);
        assert_eq!(stats.rdma_write_bytes, 4096);
    }

    #[test]
    fn detached_device_is_unreachable() {
        let (mut sim, net, _mem, events) = setup();
        {
            let mut n = net.lock();
            n.detach(EndpointId(0));
        }
        sim.run_until_idle();
        let ev = events.lock();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].1, "wUnreachable");
        assert_eq!(net.lock().stats.unreachable, 1);
    }

    #[test]
    fn corruption_adds_retransmit_latency_but_still_succeeds() {
        use simcore::fault::{Fault, FaultPlan};
        use simcore::time::SECS;
        let (mut sim_clean, _net, _m, ev_clean) = setup();
        sim_clean.run_until_idle();
        let t_clean = ev_clean.lock()[0].0;

        let (mut sim, net, _mem, events) = setup();
        net.lock().fault_plan = FaultPlan::none().with(Fault::PacketCorruption {
            rate: 0.99,
            from: simcore::SimTime(0),
            to: simcore::SimTime(SECS),
        });
        sim.run_until_idle();
        let ev = events.lock();
        assert_eq!(ev[0].1, "wOk");
        assert!(
            ev[0].0 > t_clean,
            "retransmits should add latency: {} !> {}",
            ev[0].0,
            t_clean
        );
        assert!(net.lock().stats.retransmits > 0);
    }

    #[test]
    fn ipc_message_delivery() {
        struct Receiver {
            got: Shared<Vec<String>>,
        }
        impl Actor for Receiver {
            fn handle(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
                if let Ok((_, d)) = msg.take::<NetDelivery>() {
                    if let Ok(s) = d.payload.downcast::<String>() {
                        self.got.lock().push(*s);
                    }
                }
            }
        }
        struct Sender {
            net: SharedNetwork,
            ep: EndpointId,
            to: EndpointId,
        }
        impl Actor for Sender {
            fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
                if msg.is::<Start>() {
                    let net = self.net.clone();
                    let sent = send_net_msg(ctx, &net, self.ep, self.to, 128, "hello".to_string());
                    assert!(sent);
                }
            }
        }

        let mut sim = Sim::with_seed(5);
        let net = Network::new(FabricConfig::default());
        let got = Shared::new(Vec::new());
        let (rx_ep, tx_ep) = {
            let mut n = net.lock();
            (n.attach(ActorId(u32::MAX)), n.attach(ActorId(u32::MAX)))
        };
        let rx = sim.spawn(Receiver { got: got.clone() });
        let tx = sim.spawn(Sender {
            net: net.clone(),
            ep: tx_ep,
            to: rx_ep,
        });
        {
            let mut n = net.lock();
            n.rebind(rx_ep, rx);
            n.rebind(tx_ep, tx);
        }
        sim.run_until_idle();
        assert_eq!(&*got.lock(), &["hello".to_string()]);
        assert_eq!(net.lock().stats.msgs, 1);
    }

    /// With no contention and no jitter, the scheduled path must produce
    /// the exact same end-to-end latency as the legacy analytic path: the
    /// wire is charged once either way, only *where* it queues moves.
    #[test]
    fn qos_uncontended_latency_matches_legacy() {
        let cfg = FabricConfig {
            jitter_frac: 0.0,
            ..FabricConfig::default()
        };
        for qos in [QosConfig::disabled(), QosConfig::drr(0.9)] {
            let enabled = qos.enabled;
            let mut sim = Sim::with_seed(99);
            let net = Network::with_qos(cfg.clone(), qos);
            let mem = Shared::new(vec![0u8; 1 << 16]);
            let events = Shared::new(Vec::new());
            let (dev_ep, host_ep) = {
                let mut n = net.lock();
                (
                    n.attach(simcore::ActorId(u32::MAX)),
                    n.attach(simcore::ActorId(u32::MAX)),
                )
            };
            let dev = sim.spawn(Device {
                net: net.clone(),
                ep: dev_ep,
                mem: mem.clone(),
            });
            let host = sim.spawn(Host {
                net: net.clone(),
                ep: host_ep,
                dev_ep,
                events: events.clone(),
            });
            {
                let mut n = net.lock();
                n.rebind(dev_ep, dev);
                n.rebind(host_ep, host);
            }
            sim.run_until_idle();
            let ev = events.lock();
            assert_eq!(ev.len(), 2, "qos={enabled}: {ev:?}");
            // 4 KB write: sw 10000 + wire (4096*8ns + 8*200) + nic 1500
            // + ack 2000 = 47868 ns in both modes.
            let expected = {
                let wire = latency::wire_ns(&cfg, 4096);
                cfg.sw_overhead_ns + wire + cfg.target_nic_ns + cfg.ack_ns
            };
            assert_eq!(
                ev[0].0, expected,
                "qos={enabled}: write latency diverged from analytic path"
            );
        }
    }

    /// A chain is one op: one software overhead, the wire time of its
    /// summed spans, one NIC pass, one ack — on both completion paths —
    /// counted once with its links' bytes summed.
    #[test]
    fn chain_is_priced_and_counted_as_one_op_of_summed_bytes() {
        struct ChainHost {
            net: SharedNetwork,
            ep: EndpointId,
            dev_ep: EndpointId,
            done_at: Shared<Vec<u64>>,
        }
        impl Actor for ChainHost {
            fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
                if msg.is::<Start>() {
                    let links = vec![
                        ChainLink {
                            addr: 64,
                            data: Bytes::from(vec![0xCDu8; 32]),
                            wire_len: 4096,
                        },
                        ChainLink {
                            addr: 0,
                            data: Bytes::from(vec![0xEFu8; 16]),
                            wire_len: 16,
                        },
                    ];
                    let net = self.net.clone();
                    let class = TrafficClass::Commit;
                    rdma_write_chain(ctx, &net, self.ep, self.dev_ep, links, true, 1, class);
                    return;
                }
                if let Ok((_, done)) = msg.take::<RdmaWriteDone>() {
                    assert_eq!(done.status, RdmaStatus::Ok);
                    self.done_at.lock().push(ctx.now().as_nanos());
                }
            }
        }

        let cfg = FabricConfig {
            jitter_frac: 0.0,
            ..FabricConfig::default()
        };
        for qos in [QosConfig::disabled(), QosConfig::drr(0.9)] {
            let mut sim = Sim::with_seed(3);
            let net = Network::with_qos(cfg.clone(), qos);
            let mem = Shared::new(vec![0u8; 1 << 16]);
            let done_at = Shared::new(Vec::new());
            let (dev_ep, host_ep) = {
                let mut n = net.lock();
                (n.attach(ActorId(u32::MAX)), n.attach(ActorId(u32::MAX)))
            };
            let dev = sim.spawn(Device {
                net: net.clone(),
                ep: dev_ep,
                mem: mem.clone(),
            });
            let host = sim.spawn(ChainHost {
                net: net.clone(),
                ep: host_ep,
                dev_ep,
                done_at: done_at.clone(),
            });
            {
                let mut n = net.lock();
                n.rebind(dev_ep, dev);
                n.rebind(host_ep, host);
            }
            sim.run_until_idle();
            let expected = cfg.sw_overhead_ns
                + latency::wire_ns(&cfg, 4096 + 16)
                + cfg.target_nic_ns
                + cfg.ack_ns;
            assert_eq!(*done_at.lock(), vec![expected]);
            assert_eq!(&mem.lock()[64..68], &[0xCD; 4]);
            assert_eq!(&mem.lock()[0..4], &[0xEF; 4]);
            let stats = net.lock().stats;
            assert_eq!((stats.rdma_writes, stats.rdma_write_bytes), (1, 4096 + 16));
            let commit = net.lock().class_totals()[TrafficClass::Commit.idx()];
            assert_eq!((commit.ops, commit.bytes), (1, 4096 + 16));
        }
    }

    /// Under QoS the target rx port serializes honestly: two concurrent
    /// 64 KiB writes from different initiators cannot both complete in
    /// one wire time, and with DRR a commit write overtakes queued bulk.
    #[test]
    fn scheduled_port_serializes_and_drr_prioritizes_commit() {
        struct MultiHost {
            net: SharedNetwork,
            ep: EndpointId,
            dev_ep: EndpointId,
            class: TrafficClass,
            bytes: usize,
            done_at: Shared<Vec<(TrafficClass, u64)>>,
        }
        impl Actor for MultiHost {
            fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
                if msg.is::<Start>() {
                    let data = Bytes::from(vec![0u8; self.bytes]);
                    rdma_write(
                        ctx,
                        &self.net.clone(),
                        self.ep,
                        self.dev_ep,
                        0,
                        data,
                        1,
                        self.class,
                    );
                    return;
                }
                if let Ok((_, done)) = msg.take::<RdmaWriteDone>() {
                    assert_eq!(done.status, RdmaStatus::Ok);
                    self.done_at.lock().push((self.class, ctx.now().as_nanos()));
                }
            }
        }

        let run = |policy: SchedPolicy| -> Vec<(TrafficClass, u64)> {
            let cfg = FabricConfig {
                jitter_frac: 0.0,
                ..FabricConfig::default()
            };
            let mut qos = QosConfig::drr(1.0);
            qos.policy = policy;
            let mut sim = Sim::with_seed(7);
            let net = Network::with_qos(cfg, qos);
            let mem = Shared::new(vec![0u8; 1 << 20]);
            let done_at = Shared::new(Vec::new());
            let dev_ep = net.lock().attach(simcore::ActorId(u32::MAX));
            let dev = sim.spawn(Device {
                net: net.clone(),
                ep: dev_ep,
                mem: mem.clone(),
            });
            net.lock().rebind(dev_ep, dev);
            // Two bulk initiators then one commit initiator, all firing
            // at t=0 into the same device port.
            for (class, bytes) in [
                (TrafficClass::Bulk, 64 << 10),
                (TrafficClass::Bulk, 64 << 10),
                (TrafficClass::Commit, 4096),
            ] {
                let ep = net.lock().attach(simcore::ActorId(u32::MAX));
                let h = sim.spawn(MultiHost {
                    net: net.clone(),
                    ep,
                    dev_ep,
                    class,
                    bytes,
                    done_at: done_at.clone(),
                });
                net.lock().rebind(ep, h);
            }
            sim.run_until_idle();
            let v = done_at.lock().clone();
            v
        };

        let fifo = run(SchedPolicy::Fifo);
        let drr = run(SchedPolicy::Drr);
        let commit_done = |v: &[(TrafficClass, u64)]| {
            v.iter()
                .find(|(c, _)| *c == TrafficClass::Commit)
                .map(|&(_, t)| t)
                .unwrap()
        };
        // FIFO: the commit (issued from the highest endpoint id, arriving
        // last) drains behind ~128 KiB of bulk — over a millisecond.
        // DRR: it overtakes within one bulk quantum.
        let fifo_t = commit_done(&fifo);
        let drr_t = commit_done(&drr);
        assert!(
            fifo_t > 1_000_000,
            "fifo commit should queue behind bulk: {fifo_t}"
        );
        assert!(
            drr_t < 300_000,
            "drr commit should overtake queued bulk: {drr_t}"
        );
        // Everything still completes in both policies (conservation).
        assert_eq!(fifo.len(), 3);
        assert_eq!(drr.len(), 3);
    }

    /// An uncontended scheduled leg is two events — the arrival at the
    /// arbiter and the delivery — not three: the segment that empties its
    /// port reserves its `SegDone` instead of sending it. Write request,
    /// read request and read reply each ride a scheduled port here, so
    /// the QoS run dispatches the legacy run's events plus the arbiter's
    /// `Start` and one arrival per leg.
    #[test]
    fn uncontended_scheduled_legs_dispatch_two_events_each() {
        let dispatched = |qos| {
            let (mut sim, _net, _mem, events) = setup_with(qos);
            sim.run_until_idle();
            assert_eq!(events.lock().len(), 2);
            sim.dispatched()
        };
        let legacy = dispatched(QosConfig::disabled());
        let scheduled = dispatched(QosConfig::drr(0.9));
        assert_eq!(scheduled, legacy + 1 + 3);
    }

    /// 4 KiB writes from separate initiators into one device port, each
    /// posted its `delays` entry (ns) after start: their completion times
    /// and the run's dispatch count.
    fn staggered_writes(delays: &[u64]) -> (Vec<u64>, u64) {
        struct Go;
        struct Staggered {
            net: SharedNetwork,
            ep: EndpointId,
            dev_ep: EndpointId,
            delay: u64,
            done_at: Shared<Vec<(EndpointId, u64)>>,
        }
        impl Actor for Staggered {
            fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
                if msg.is::<Start>() {
                    ctx.send_self(SimDuration::from_nanos(self.delay), Go);
                } else if msg.is::<Go>() {
                    let data = Bytes::from(vec![0u8; 4096]);
                    let net = self.net.clone();
                    let class = TrafficClass::Commit;
                    rdma_write(ctx, &net, self.ep, self.dev_ep, 0, data, 1, class);
                } else if let Ok((_, done)) = msg.take::<RdmaWriteDone>() {
                    assert_eq!(done.status, RdmaStatus::Ok);
                    self.done_at.lock().push((self.ep, ctx.now().as_nanos()));
                }
            }
        }

        let cfg = FabricConfig {
            jitter_frac: 0.0,
            ..FabricConfig::default()
        };
        let mut sim = Sim::with_seed(11);
        let net = Network::with_qos(cfg, QosConfig::drr(0.9));
        let done_at = Shared::new(Vec::new());
        let dev_ep = net.lock().attach(ActorId(u32::MAX));
        let dev = sim.spawn(Device {
            net: net.clone(),
            ep: dev_ep,
            mem: Shared::new(vec![0u8; 1 << 16]),
        });
        net.lock().rebind(dev_ep, dev);
        let mut eps = Vec::new();
        for &delay in delays {
            let ep = net.lock().attach(ActorId(u32::MAX));
            let h = sim.spawn(Staggered {
                net: net.clone(),
                ep,
                dev_ep,
                delay,
                done_at: done_at.clone(),
            });
            net.lock().rebind(ep, h);
            eps.push(ep);
        }
        sim.run_until_idle();
        let done = done_at.lock();
        let at = |ep| done.iter().find(|&&(e, _)| e == ep).expect("write done").1;
        (eps.into_iter().map(at).collect(), sim.dispatched())
    }

    /// A write arriving while the port still serializes another fills the
    /// reserved `SegDone` and is served the instant the port frees, as if
    /// the `SegDone` had been sent; one arriving after the port went idle
    /// is served at once and leaves the stale slot unfilled.
    #[test]
    fn an_arrival_behind_a_reserved_segdone_is_served_when_the_port_frees() {
        let cfg = FabricConfig::default();
        let wire = latency::wire_ns(&cfg, 4096);
        let (sw, nic, ack) = (cfg.sw_overhead_ns, cfg.target_nic_ns, cfg.ack_ns);
        let alone = sw + wire + nic + ack;

        let (done, contended) = staggered_writes(&[0, wire / 2]);
        assert_eq!(done, vec![alone, sw + 2 * wire + nic + ack]);
        let (done, idle) = staggered_writes(&[0, 2 * wire]);
        assert_eq!(done, vec![alone, 2 * wire + alone]);
        // The queued write needed the first one's `SegDone`; the idle
        // port's second write did not.
        assert_eq!(contended, idle + 1);
    }

    /// Two equal chains posted in one event, one to a device homed on X
    /// and one to a device homed on Y, leave through separate transmit
    /// ports: they complete together (within jitter). With either fabric
    /// down they share the survivor's port and complete exactly one wire
    /// time apart. Measured on the second pair, after the first absorbed
    /// the one-off path switch.
    #[test]
    fn mirror_legs_overlap_on_two_fabrics_and_serialize_on_one() {
        use simcore::fault::{Fault, FaultPlan};
        use simcore::time::SECS;
        const SPAN: u32 = 4096 + 16;

        struct PairHost {
            net: SharedNetwork,
            ep: EndpointId,
            halves: [EndpointId; 2],
            outstanding: u32,
            rounds_left: u32,
            /// `(posted_at, [done_at; 2])` of the last round.
            last: Shared<(u64, [u64; 2])>,
        }
        impl PairHost {
            fn post_pair(&mut self, ctx: &mut Ctx<'_>) {
                self.last.lock().0 = ctx.now().as_nanos();
                for (half, &to) in self.halves.iter().enumerate() {
                    let links = vec![ChainLink {
                        addr: 0,
                        data: Bytes::from(vec![7u8; 32]),
                        wire_len: SPAN,
                    }];
                    let (net, class) = (self.net.clone(), TrafficClass::Commit);
                    rdma_write_chain(ctx, &net, self.ep, to, links, true, half as u64, class);
                }
                self.outstanding = 2;
                self.rounds_left -= 1;
            }
        }
        impl Actor for PairHost {
            fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
                if msg.is::<Start>() {
                    self.post_pair(ctx);
                } else if let Ok((_, done)) = msg.take::<RdmaWriteDone>() {
                    assert_eq!(done.status, RdmaStatus::Ok);
                    self.last.lock().1[done.op_id as usize] = ctx.now().as_nanos();
                    self.outstanding -= 1;
                    if self.outstanding == 0 && self.rounds_left > 0 {
                        self.post_pair(ctx);
                    }
                }
            }
        }

        // Returns each half's completion latency in the second round.
        let run = |jitter_frac: f64, qos: QosConfig, down: Option<u8>| -> [u64; 2] {
            let cfg = FabricConfig {
                jitter_frac,
                ..FabricConfig::default()
            };
            let mut sim = Sim::with_seed(11);
            let net = Network::with_qos(cfg, qos);
            if let Some(fabric) = down {
                net.lock().fault_plan = FaultPlan::none().with(Fault::FabricDown {
                    fabric,
                    from: simcore::SimTime(0),
                    to: simcore::SimTime(SECS),
                });
            }
            let mut halves = [EndpointId(0); 2];
            for (half, slot) in halves.iter_mut().enumerate() {
                let ep = net.lock().attach(ActorId(u32::MAX));
                net.lock().set_home_fabric(ep, half as u8);
                let dev = sim.spawn(Device {
                    net: net.clone(),
                    ep,
                    mem: Shared::new(vec![0u8; 1 << 16]),
                });
                net.lock().rebind(ep, dev);
                *slot = ep;
            }
            let last = Shared::new((0, [0; 2]));
            let ep = net.lock().attach(ActorId(u32::MAX));
            let host = sim.spawn(PairHost {
                net: net.clone(),
                ep,
                halves,
                outstanding: 0,
                rounds_left: 2,
                last: last.clone(),
            });
            net.lock().rebind(ep, host);
            sim.run_until_idle();
            let stats = net.lock().stats;
            match down {
                None => assert_eq!((stats.failovers, stats.fabric_ops), (0, [2, 2])),
                Some(0) => assert_eq!((stats.failovers, stats.fabric_ops), (1, [0, 4])),
                Some(_) => assert_eq!((stats.failovers, stats.fabric_ops), (1, [4, 0])),
            }
            let (posted, done) = *last.lock();
            done.map(|t| t - posted)
        };

        let cfg = FabricConfig::default();
        let wire = latency::wire_ns(&cfg, SPAN);
        let alone = cfg.sw_overhead_ns + wire + cfg.target_nic_ns + cfg.ack_ns;
        for qos in [QosConfig::disabled, || QosConfig::drr(0.9)] {
            assert_eq!(run(0.0, qos(), None), [alone, alone]);
            let [a, b] = run(cfg.jitter_frac, qos(), None);
            let band = (2.0 * cfg.jitter_frac * alone as f64) as u64;
            assert!(a.abs_diff(b) <= band, "legs {a} and {b} ns apart");
            for fabric in [0, 1] {
                assert_eq!(run(0.0, qos(), Some(fabric)), [alone, alone + wire]);
            }
        }
    }

    /// Per-class byte accounting exists on the legacy path too.
    #[test]
    fn class_byte_totals_counted_without_scheduler() {
        let (mut sim, net, _mem, _events) = setup();
        sim.run_until_idle();
        let totals = net.lock().class_totals();
        let c = TrafficClass::Commit.idx();
        // One 4 KiB write request + one read (64 B request + 4 KiB reply).
        assert!(totals[c].bytes >= 4096 + 64 + 4096, "{totals:?}");
        assert!(totals[c].ops >= 3);
        assert_eq!(totals[TrafficClass::Bulk.idx()].bytes, 0);
    }
}
