//! The embeddable PM client library.

use bytes::Bytes;
use nsk::machine::{CpuId, SharedMachine};
use nsk::requests::Backoff;
use pmm::msgs::*;
use pmm::{Frag, PlacementHint};
use simcore::hash::FastMap;
use simcore::{Ctx, SimDuration, SimTime, TimerId, Wait};
use simnet::{
    rdma_read, rdma_write_chain, ChainLink, EndpointId, PersistMode, RdmaReadDone, RdmaStatus,
    RdmaWriteDone, SharedNetwork, TrafficClass,
};
use std::rc::Rc;

/// One member's write chain, built once and shared by every leg that
/// carries it.
type Chain = Rc<[ChainLink]>;

/// How writes are replicated across each member's mirrored NPMU pair.
///
/// The paper's API is `ParallelBoth`. The alternatives exist for the
/// ablation study (DESIGN.md §3, ablation 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MirrorPolicy {
    /// Issue to both mirrors at once; complete when both ack (paper).
    ParallelBoth,
    /// Write primary, then mirror — half the fabric pressure, double the
    /// latency.
    SequentialBoth,
    /// No replication (loses NPMU-failure tolerance; lower bound).
    PrimaryOnly,
}

/// How reads are routed across each member's mirrored NPMU pair. Reads
/// need only one copy, so routing is a bandwidth decision: a member's
/// two halves have independent ports, and spreading reads across them
/// doubles a member's read bandwidth. Suspect/degraded state always
/// overrides the policy — reads go to the surviving half, and failover
/// semantics are unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadRouting {
    /// Every read targets the primary half (legacy behaviour).
    PrimaryOnly,
    /// Alternate healthy halves per read — mirror-balanced bandwidth.
    RoundRobin,
    /// Route to the half with the lowest observed read RTT (EWMA over
    /// per-half round-trip samples); explores round-robin until both
    /// halves have samples.
    Adaptive,
}

/// Client-side tunables. The timeouts cover the *silent-drop* failure
/// mode: a NACKing device answers immediately and an unreachable endpoint
/// is detected by the transport, but a device that swallows ops without
/// replying is only caught by the library's own timer. Defaults sit well
/// above the transport's unreachable timeout so the cheaper detections
/// fire first.
#[derive(Clone, Copy, Debug)]
pub struct PmClientConfig {
    /// A mirrored write that has not fully completed by then fails the
    /// silent legs over to the survivor.
    pub write_timeout: SimDuration,
    /// A read that got no reply by then fails over to the other mirror.
    pub read_timeout: SimDuration,
    /// Retry backoff for PMM RPCs that got no ack (e.g. across a PMM
    /// takeover).
    pub rpc_retry: Backoff,
    /// In-flight window per read run: how many stripe fragments a
    /// multi-fragment read (or [`PmLib::read_batch`]) keeps outstanding
    /// at once. 1 restores lock-step issue; the default pipelines the
    /// fabric.
    pub read_window: u32,
    /// When a mirrored write is considered *persistent* (see
    /// [`PersistMode`]). The default is the optimistic `NicAck` the paper
    /// assumes — an RDMA ack counts as durable; honest deployments (the
    /// ODS wiring) opt into `PersistFlush`, which closes each chain with
    /// a persist fence (no extra round trip), or `FlushOnRead`, which
    /// pays a forcing read per touched device half before the write
    /// completes.
    pub persist_mode: PersistMode,
    /// Fabric traffic class every op from this library instance rides
    /// unless a per-op `_class` variant overrides it. Defaults to
    /// [`TrafficClass::Commit`] — the PM library's callers are
    /// latency-critical unless they say otherwise.
    pub traffic_class: TrafficClass,
}

impl Default for PmClientConfig {
    fn default() -> Self {
        PmClientConfig {
            write_timeout: SimDuration::from_millis(5),
            read_timeout: SimDuration::from_millis(5),
            rpc_retry: Backoff::new(
                SimDuration::from_millis(200),
                SimDuration::from_millis(1600),
            ),
            read_window: 8,
            persist_mode: PersistMode::NicAck,
            traffic_class: TrafficClass::Commit,
        }
    }
}

/// Completion of a mirrored persistent write: when `status == Ok`, the
/// data is persistent on every *answering* mirror of every member volume
/// the write touched. `degraded` is set when some mirror half failed
/// (NACK/unreachable/timeout) and part of the write completed against a
/// survivor alone — data IS persistent, but with no redundancy there
/// until that member is resilvered.
#[derive(Clone, Copy, Debug)]
pub struct PmWriteComplete {
    pub token: u64,
    pub status: RdmaStatus,
    pub degraded: bool,
}

/// Completion of a region read. `degraded` is set when any fragment was
/// served by failing over to the other mirror half of its member.
#[derive(Clone, Debug)]
pub struct PmReadComplete {
    pub token: u64,
    pub status: RdmaStatus,
    pub data: Bytes,
    pub degraded: bool,
}

/// Self-addressed timer armed per mirrored write and disarmed when the
/// write retires; the owning actor feeds it to
/// [`PmLib::on_write_timeout`]. One that fires as its write completes
/// finds nothing there and is ignored.
#[derive(Clone, Copy, Debug)]
pub struct PmWriteTimeout {
    pub wid: u64,
}

/// Self-addressed timer armed per read fragment attempt and disarmed
/// when the attempt is answered or its run retires; feed to
/// [`PmLib::on_read_timeout`].
#[derive(Clone, Copy, Debug)]
pub struct PmReadTimeout {
    pub rid: u64,
}

/// One member volume's share of a batched write: every stripe fragment
/// the batch lands on that volume, posted as ONE ordered chain per mirror
/// half. A device answers a chain whole, so acks, persistence and
/// failures are tracked per `(member, half)`, not per fragment.
struct MemberState {
    volume: u32,
    /// Where `FlushOnRead` aims this member's forcing read: device
    /// offset and length of its first fragment.
    probe: (u64, u32),
    /// Bitmask of halves whose chain acked `Ok` (bit `1 << half`).
    acked_halves: u8,
    /// Bitmask of halves proven *persistent*: by the ack of a fenced
    /// chain (`PersistFlush`) or by a forcing read (`FlushOnRead`).
    /// `NicAck` never sets it.
    persisted_halves: u8,
    /// Chains lost to *availability* errors (device NACK, unreachable,
    /// timeout) — survivable as long as one half of the member acks.
    avail_failed: u32,
    /// For SequentialBoth: the mirror half's endpoint and chain, fired
    /// after the primary decides. The chain is the one the primary got.
    next_leg: Option<(EndpointId, Chain)>,
}

struct WriteState {
    token: u64,
    region_id: u64,
    /// Worst *logical* error seen (access violation / out of bounds) —
    /// these fail the write outright; retrying a mirror cannot help.
    logical_error: Option<RdmaStatus>,
    avail_status: RdmaStatus,
    /// Outstanding chains: (rdma op id, member index, half).
    pending: Vec<(u64, usize, u8)>,
    members: Vec<MemberState>,
    /// True once the forcing-read phase (`FlushOnRead`) has been launched.
    persist_phase: bool,
    /// Outstanding forcing reads, by rdma op id.
    persist_pending: Vec<u64>,
    /// A forcing read failed: the write may still complete (another half
    /// persisted), but only degraded.
    persist_failed: bool,
    /// Class every chain of this write (including forcing reads and late
    /// sequential mirror chains) rides.
    class: TrafficClass,
    /// The [`PmWriteTimeout`] armed when the write was issued, and those
    /// armed later beside it (the persist phase's, a late sequential
    /// leg's — rare paths, so the common one allocates nothing). All are
    /// disarmed together when the write retires, never earlier: each
    /// keeps the deadline it was armed with.
    watchdog: Option<TimerId>,
    late_watchdogs: Vec<TimerId>,
}

impl WriteState {
    /// The state of a new write, built on a retired one's vectors (their
    /// capacity is what is kept) when there is one.
    fn new(spare: Option<WriteState>, token: u64, region_id: u64, class: TrafficClass) -> Self {
        let (pending, members, persist_pending, late_watchdogs) = match spare {
            Some(s) => (s.pending, s.members, s.persist_pending, s.late_watchdogs),
            None => Default::default(),
        };
        debug_assert!(pending.is_empty() && members.is_empty());
        debug_assert!(persist_pending.is_empty() && late_watchdogs.is_empty());
        WriteState {
            token,
            region_id,
            logical_error: None,
            avail_status: RdmaStatus::Ok,
            pending,
            members,
            persist_phase: false,
            persist_pending,
            persist_failed: false,
            class,
            watchdog: None,
            late_watchdogs,
        }
    }

    /// Append one part's stripe fragments to their members' chains,
    /// opening a chain for a member volume first seen. `chains` is
    /// scratch kept across writes: entry `i` is member `i`'s chain, and
    /// entries past the members of this write are empty. The payload may
    /// be shorter than the wire span (compact descriptor): slice what
    /// exists, keep the wire length.
    fn link_frags(&mut self, chains: &mut Vec<Vec<ChainLink>>, frags: &[Frag], data: &Bytes) {
        for frag in frags {
            let mi = match self.members.iter().position(|m| m.volume == frag.volume) {
                Some(mi) => mi,
                None => {
                    self.members.push(MemberState {
                        volume: frag.volume,
                        probe: (frag.dev_off, frag.len),
                        acked_halves: 0,
                        persisted_halves: 0,
                        avail_failed: 0,
                        next_leg: None,
                    });
                    if chains.len() < self.members.len() {
                        chains.push(Vec::new());
                    }
                    self.members.len() - 1
                }
            };
            let lo = frag.buf_off.min(data.len());
            let hi = (frag.buf_off + frag.len as usize).min(data.len());
            chains[mi].push(ChainLink {
                addr: frag.dev_off,
                data: data.slice(lo..hi),
                wire_len: frag.len,
            });
        }
    }
}

/// One stripe fragment of a read, with its own half selection and
/// one-shot failover.
struct ReadPart {
    volume: u32,
    dev_off: u64,
    len: u32,
    /// Where this fragment's bytes land in the reassembled buffer.
    buf_off: usize,
    /// Half this attempt targets.
    half: u8,
    /// Bitmask of halves already tried (0 = not yet issued; the half is
    /// picked at issue time from fresh suspect/routing state).
    tried: u8,
    /// When the current attempt went on the wire (RTT observation).
    issued_ns: u64,
    data: Option<Bytes>,
}

struct ReadRun {
    token: u64,
    region_id: u64,
    total: usize,
    /// True once any fragment failed over.
    degraded: bool,
    outstanding: u32,
    /// Fragments in flight right now (windowed issue; a failover
    /// re-issue keeps its slot).
    inflight: u32,
    /// Next fragment the window pump has not issued yet.
    next_unissued: usize,
    parts: Vec<ReadPart>,
    /// Class every fragment of this read (including failover re-issues)
    /// rides.
    class: TrafficClass,
}

/// What the library knows of one member volume's two halves
/// (`[primary, mirror]`) for a region it has open.
#[derive(Default)]
struct HalfState {
    /// Set on availability failure (which also fires a one-shot
    /// [`ReportMirrorFailure`] to the PMM), cleared when that half
    /// answers `Ok` again.
    suspect: [bool; 2],
    /// When each half was last suspected (sim ns) — breaks the tie when
    /// *both* halves are suspect: reads go to the least-recently-suspected
    /// half rather than silently to half 0.
    suspected_at: [u64; 2],
    /// Halves whose *contents* may be stale: set when a half is
    /// suspected (its data diverges while it is out) or when a read is
    /// rejected by the PMM's resilver read fence. A successful write
    /// clears `suspect` but not this — only a successful *read* on the
    /// half (fence lifted, resilver verified clean) does. Balanced
    /// routing avoids stale halves, probing them every
    /// [`PmLib::STALE_PROBE_PERIOD`]th read.
    stale: [bool; 2],
    /// Read sequence counter (round-robin + stale probe cadence).
    read_seq: u64,
}

/// The client library state, embedded in a process actor.
pub struct PmLib {
    machine: SharedMachine,
    net: SharedNetwork,
    ep: EndpointId,
    cpu: CpuId,
    pmm_name: String,
    policy: MirrorPolicy,
    read_routing: ReadRouting,
    cfg: PmClientConfig,
    next_rdma: u64,
    /// RDMA op id → (write id, member index, half).
    rdma_map: FastMap<u64, (u64, usize, u8)>,
    writes: FastMap<u64, WriteState>,
    next_write: u64,
    reads: FastMap<u64, ReadRun>,
    next_read: u64,
    /// RDMA op id → (read run id, part index, the attempt's watchdog).
    read_map: FastMap<u64, (u64, usize, TimerId)>,
    /// `FlushOnRead` forcing-read op id → (write id, member index, half).
    persist_map: FastMap<u64, (u64, usize, u8)>,
    /// Regions opened through this library instance.
    regions: FastMap<u64, RegionInfo>,
    /// What is known of each (region, member volume)'s two halves.
    halves: FastMap<(u64, u32), HalfState>,
    /// Per-(member volume, half) read round-trip EWMA, ns (adaptive
    /// routing).
    rtt_ewma: FastMap<(u32, u8), f64>,
    /// Retired writes, their vectors emptied but not freed: the next
    /// write starts from one instead of allocating.
    spare_writes: Vec<WriteState>,
    /// Scratch of the write path, kept across writes for its capacity:
    /// one part's stripe fragments, and each member's chain while it is
    /// built.
    frags: Vec<Frag>,
    chains: Vec<Vec<ChainLink>>,
}

impl PmLib {
    /// The PMM this library asks for regions.
    pub fn pmm_name(&self) -> &str {
        &self.pmm_name
    }

    /// Each leg in flight — a write chain, a forcing read, a read — on
    /// the device it went to (its actor, where the network still binds
    /// its endpoint), under the write's or read's token.
    pub fn waits(&self, out: &mut Vec<Wait>) {
        let net = self.net.lock();
        let device = |region: u64, volume: u32, half: u8| {
            let eps = self.regions.get(&region).and_then(|r| r.eps_for(volume));
            let Some(eps) = eps else {
                return format!("volume {volume} half {half}");
            };
            let ep = if half == 0 {
                eps.primary_ep
            } else {
                eps.mirror_ep
            };
            net.actor_of(ep)
                .map_or(format!("{ep:?}"), |actor| format!("{actor:?}"))
        };
        let mut writes: Vec<_> = self.writes.iter().collect();
        writes.sort_unstable_by_key(|(&wid, _)| wid);
        for (_, w) in writes {
            let legs = w
                .pending
                .iter()
                .map(|&(_, mi, half)| ("write chain", mi, half));
            let persist = w
                .persist_pending
                .iter()
                .filter_map(|op| self.persist_map.get(op));
            let legs = legs.chain(persist.map(|&(_, mi, half)| ("forcing read", mi, half)));
            out.extend(legs.map(|(what, mi, half)| Wait {
                what,
                on: device(w.region_id, w.members[mi].volume, half),
                id: w.token,
                since: None,
            }));
        }
        let mut reads: Vec<_> = self.read_map.values().collect();
        reads.sort_unstable_by_key(|&&(run, part, _)| (run, part));
        for &(run, part, _) in reads {
            let Some(r) = self.reads.get(&run) else {
                continue;
            };
            let p = &r.parts[part];
            out.push(Wait {
                what: "read",
                on: device(r.region_id, p.volume, p.half),
                id: r.token,
                since: Some(SimTime(p.issued_ns)),
            });
        }
    }

    pub fn new(
        machine: SharedMachine,
        ep: EndpointId,
        cpu: CpuId,
        pmm_name: impl Into<String>,
    ) -> Self {
        let net = machine.lock().net.clone();
        PmLib {
            machine,
            net,
            ep,
            cpu,
            pmm_name: pmm_name.into(),
            policy: MirrorPolicy::ParallelBoth,
            read_routing: ReadRouting::PrimaryOnly,
            cfg: PmClientConfig::default(),
            next_rdma: 0,
            rdma_map: FastMap::default(),
            writes: FastMap::default(),
            next_write: 0,
            reads: FastMap::default(),
            next_read: 0,
            read_map: FastMap::default(),
            persist_map: FastMap::default(),
            regions: FastMap::default(),
            halves: FastMap::default(),
            rtt_ewma: FastMap::default(),
            spare_writes: Vec::new(),
            frags: Vec::new(),
            chains: Vec::new(),
        }
    }

    /// Every this-many reads of a (region, member) with a stale half,
    /// one read probes the stale half to discover the resilver finishing
    /// (the PMM lifts the read fence); a fence rejection just fails the
    /// probe over to the fresh half.
    const STALE_PROBE_PERIOD: u64 = 16;

    /// EWMA smoothing factor for per-half read RTT observations.
    const RTT_ALPHA: f64 = 0.3;

    pub fn with_policy(mut self, policy: MirrorPolicy) -> Self {
        self.policy = policy;
        self
    }

    pub fn with_read_routing(mut self, routing: ReadRouting) -> Self {
        self.read_routing = routing;
        self
    }

    pub fn with_config(mut self, cfg: PmClientConfig) -> Self {
        self.cfg = cfg;
        self
    }

    pub fn policy(&self) -> MirrorPolicy {
        self.policy
    }

    pub fn config(&self) -> &PmClientConfig {
        &self.cfg
    }

    /// Ask the PMM to create (or, with `open_if_exists`, open) a region
    /// with default (`Auto`) placement. The ack arrives at the owning
    /// actor as a `NetDelivery` carrying [`CreateRegionAck`]; pass the
    /// result to [`Self::adopt`].
    pub fn create_region(
        &mut self,
        ctx: &mut Ctx<'_>,
        name: &str,
        len: u64,
        open_if_exists: bool,
        token: u64,
    ) -> bool {
        self.create_region_placed(
            ctx,
            name,
            len,
            open_if_exists,
            PlacementHint::default(),
            token,
        )
    }

    /// As [`Self::create_region`], with an explicit placement hint (pin
    /// to a member volume, force striping, …).
    pub fn create_region_placed(
        &mut self,
        ctx: &mut Ctx<'_>,
        name: &str,
        len: u64,
        open_if_exists: bool,
        placement: PlacementHint,
        token: u64,
    ) -> bool {
        nsk::proc::send_to_process(
            ctx,
            &self.machine,
            self.ep,
            self.cpu,
            &self.pmm_name,
            128,
            CreateRegion {
                name: name.to_string(),
                len,
                open_if_exists,
                placement,
                token,
            },
        )
    }

    /// Ask the PMM to open an existing region ([`OpenRegionAck`] arrives).
    pub fn open_region(&mut self, ctx: &mut Ctx<'_>, name: &str, token: u64) -> bool {
        nsk::proc::send_to_process(
            ctx,
            &self.machine,
            self.ep,
            self.cpu,
            &self.pmm_name,
            96,
            OpenRegion {
                name: name.to_string(),
                token,
            },
        )
    }

    /// Ask the PMM to close a region.
    pub fn close_region(&mut self, ctx: &mut Ctx<'_>, region_id: u64, token: u64) -> bool {
        self.regions.remove(&region_id);
        self.halves.retain(|&(rid, _), _| rid != region_id);
        nsk::proc::send_to_process(
            ctx,
            &self.machine,
            self.ep,
            self.cpu,
            &self.pmm_name,
            64,
            CloseRegion { region_id, token },
        )
    }

    /// Register an opened region so reads/writes can target it.
    pub fn adopt(&mut self, info: RegionInfo) {
        self.regions.insert(info.region_id, info);
    }

    pub fn region(&self, id: u64) -> Option<&RegionInfo> {
        self.regions.get(&id)
    }

    /// Persistent write of `data` at `offset` within the region.
    /// Completion surfaces through [`Self::on_rdma_write_done`].
    ///
    /// Panics if the region was not adopted or the range is out of bounds
    /// — both are client bugs the real library would fail fast on too.
    pub fn write(
        &mut self,
        ctx: &mut Ctx<'_>,
        region_id: u64,
        offset: u64,
        data: Bytes,
        token: u64,
    ) {
        let wire_len = data.len() as u32;
        self.write_sized(ctx, region_id, offset, data, wire_len, token)
    }

    /// As [`Self::write`], with an explicit on-wire length ≥ `data.len()`
    /// (see `simnet::rdma_write_sized`): benchmark scenarios carry compact
    /// descriptors but pay full-size transfer latency.
    ///
    /// The write is split along the region's stripe map: each fragment is
    /// mirrored onto its member volume's NPMU pair independently and the
    /// client-level completion folds over all fragments of all members.
    pub fn write_sized(
        &mut self,
        ctx: &mut Ctx<'_>,
        region_id: u64,
        offset: u64,
        data: Bytes,
        wire_len: u32,
        token: u64,
    ) {
        let part = [(offset, data, wire_len)];
        let class = self.cfg.traffic_class;
        self.write_batch_publish(ctx, region_id, &part, None, token, class)
    }

    /// Batched persistent write riding `class`: every `(offset, data,
    /// wire_len)` part is submitted in ONE fan-out under a single
    /// completion, timeout and token — the trail writer's primitive. The
    /// parts' stripe fragments are grouped by member volume and each group
    /// is posted as one ordered write chain per mirror half, links in part
    /// order — under `PersistFlush` closed by a persist fence, so data and
    /// durability arrive in the chain's one round trip. The write
    /// completes (possibly degraded) only when every member's chain is
    /// persistent on at least one answering mirror.
    ///
    /// An optional *publish part* is ordered after all the data — a
    /// watermark cell naming the batch's bytes. A device applies a chain
    /// strictly in order, so the part rides as the last link of the data's
    /// chain. One ordered channel means one member volume: panics unless
    /// the data and the publish part all land on the same member (a region
    /// placed `Solo` or `OnVolume` always does).
    pub fn write_batch_publish(
        &mut self,
        ctx: &mut Ctx<'_>,
        region_id: u64,
        parts: &[(u64, Bytes, u32)],
        publish: Option<&(u64, Bytes, u32)>,
        token: u64,
        class: TrafficClass,
    ) {
        assert!(!parts.is_empty(), "empty batch");
        let info = self.regions.get(&region_id).expect("region not adopted");
        let wid = self.next_write;
        self.next_write += 1;

        let mut st = WriteState::new(self.spare_writes.pop(), token, region_id, class);
        // One chain per touched member, links in part order.
        for (offset, data, wire_len) in parts.iter().chain(publish) {
            let span = (*wire_len as u64).max(data.len() as u64);
            assert!(offset + span <= info.len, "write beyond region");
            self.frags.clear();
            info.map.split_into(*offset, span, &mut self.frags);
            st.link_frags(&mut self.chains, &self.frags, data);
        }
        assert!(
            publish.is_none() || st.members.len() == 1,
            "publish part must share one member volume with its data"
        );
        // Each member's chain is built once; every leg that carries it
        // shares it.
        let mut legs = Vec::new();
        for (mi, m) in st.members.iter_mut().enumerate() {
            let links: Chain = self.chains[mi].drain(..).collect();
            let eps = *info
                .eps_for(m.volume)
                .expect("stripe map volume missing endpoints");
            match self.policy {
                MirrorPolicy::ParallelBoth => {
                    legs.push((mi, eps.primary_ep, 0, links.clone()));
                    legs.push((mi, eps.mirror_ep, 1, links));
                }
                MirrorPolicy::SequentialBoth => {
                    m.next_leg = Some((eps.mirror_ep, links.clone()));
                    legs.push((mi, eps.primary_ep, 0, links));
                }
                MirrorPolicy::PrimaryOnly => legs.push((mi, eps.primary_ep, 0, links)),
            }
        }
        self.writes.insert(wid, st);
        for (mi, dev, half, links) in legs {
            self.issue_chain(ctx, wid, mi, dev, half, links, class);
        }
        self.arm_write_timeout(ctx, wid);
    }

    fn arm_write_timeout(&mut self, ctx: &mut Ctx<'_>, wid: u64) {
        let timer = ctx.arm_timer(self.cfg.write_timeout, PmWriteTimeout { wid });
        let st = self.writes.get_mut(&wid).expect("write registered");
        match st.watchdog {
            None => st.watchdog = Some(timer),
            Some(_) => st.late_watchdogs.push(timer),
        }
    }

    /// Post one member's chain to one mirror half. `PersistFlush` closes
    /// it with a persist fence; the other modes post it unfenced.
    #[allow(clippy::too_many_arguments)]
    fn issue_chain(
        &mut self,
        ctx: &mut Ctx<'_>,
        wid: u64,
        member: usize,
        dev: EndpointId,
        half: u8,
        links: Chain,
        class: TrafficClass,
    ) {
        let rid = self.next_rdma;
        self.next_rdma += 1;
        self.rdma_map.insert(rid, (wid, member, half));
        self.writes
            .get_mut(&wid)
            .expect("write registered")
            .pending
            .push((rid, member, half));
        let fence = self.cfg.persist_mode == PersistMode::PersistFlush;
        let net = self.net.clone();
        rdma_write_chain(ctx, &net, self.ep, dev, links, fence, rid, class);
    }

    /// Read `len` bytes at `offset`. Reads need not be replicated, so one
    /// half of each member serves, chosen per fragment by the library's
    /// [`ReadRouting`] (suspect state always overrides the policy). On an
    /// error or timeout a fragment fails over to its other half once;
    /// fragments land in one reassembled buffer. Completion surfaces via
    /// [`Self::on_rdma_read_done`].
    pub fn read(&mut self, ctx: &mut Ctx<'_>, region_id: u64, offset: u64, len: u32, token: u64) {
        self.read_batch(ctx, region_id, &[(offset, len)], token)
    }

    /// Batched scatter-gather read: every `(offset, len)` part is
    /// submitted under ONE completion, window and token — the read-side
    /// mirror of [`Self::write_batch_publish`]. Parts' stripe fragments are
    /// concatenated in argument order into the completion's single
    /// buffer. At most `read_window` fragments are on the wire at once;
    /// each completion immediately issues the next, so a bulk read
    /// pipelines the fabric instead of paying one round trip per
    /// fragment.
    pub fn read_batch(
        &mut self,
        ctx: &mut Ctx<'_>,
        region_id: u64,
        spans: &[(u64, u32)],
        token: u64,
    ) {
        let class = self.cfg.traffic_class;
        self.read_batch_class(ctx, region_id, spans, token, class)
    }

    /// As [`Self::read_batch`], riding an explicit [`TrafficClass`]
    /// (recovery scans and other bulk readers tag themselves `Bulk`).
    pub fn read_batch_class(
        &mut self,
        ctx: &mut Ctx<'_>,
        region_id: u64,
        spans: &[(u64, u32)],
        token: u64,
        class: TrafficClass,
    ) {
        assert!(!spans.is_empty(), "empty batch");
        let info = self.regions.get(&region_id).expect("region not adopted");
        let mut parts = Vec::new();
        let mut buf_base = 0usize;
        for &(offset, len) in spans {
            assert!(offset + len as u64 <= info.len, "read beyond region");
            for frag in info.map.split(offset, len as u64) {
                parts.push(ReadPart {
                    volume: frag.volume,
                    dev_off: frag.dev_off,
                    len: frag.len,
                    buf_off: buf_base + frag.buf_off,
                    half: 0,
                    tried: 0,
                    issued_ns: 0,
                    data: None,
                });
            }
            buf_base += len as usize;
        }
        let run_id = self.next_read;
        self.next_read += 1;
        let n = parts.len();
        self.reads.insert(
            run_id,
            ReadRun {
                token,
                region_id,
                total: buf_base,
                degraded: false,
                outstanding: n as u32,
                inflight: 0,
                next_unissued: 0,
                parts,
                class,
            },
        );
        self.pump_reads(ctx, run_id);
    }

    /// Issue fragments of a run until its window is full or every
    /// fragment is on the wire.
    fn pump_reads(&mut self, ctx: &mut Ctx<'_>, run_id: u64) {
        let window = self.cfg.read_window.max(1);
        loop {
            let part = {
                let Some(r) = self.reads.get_mut(&run_id) else {
                    return;
                };
                if r.next_unissued >= r.parts.len() || r.inflight >= window {
                    return;
                }
                let p = r.next_unissued;
                r.next_unissued += 1;
                r.inflight += 1;
                p
            };
            self.issue_read_part(ctx, run_id, part);
        }
    }

    /// Route one fragment read: suspect state first (never target a
    /// half known to be failing; both-suspect picks the
    /// least-recently-suspected half), then stale-avoidance, then the
    /// configured routing policy across the healthy halves.
    fn pick_read_half(&mut self, ctx: &mut Ctx<'_>, region_id: u64, volume: u32) -> u8 {
        let st = self.halves.entry((region_id, volume)).or_default();
        let s = st.suspect;
        if s[0] && s[1] {
            // Nowhere healthy to go: a real library still has to issue
            // somewhere. Prefer the half that failed longest ago (most
            // likely to have recovered) instead of silently picking the
            // primary, and leave a trace for diagnosis.
            let at = st.suspected_at;
            ctx.trace("pmclient: degraded read, both halves suspect");
            return if at[0] <= at[1] { 0 } else { 1 };
        }
        if s[0] {
            return 1;
        }
        if s[1] {
            return 0;
        }
        st.read_seq += 1;
        let (seq, stale) = (st.read_seq, st.stale);
        if stale[0] != stale[1] {
            // One half is converging behind the PMM's read fence: serve
            // from the fresh half, but probe the stale one periodically
            // to notice the fence lifting.
            let stale_half = if stale[0] { 0u8 } else { 1u8 };
            let probe = self.read_routing != ReadRouting::PrimaryOnly
                && seq % Self::STALE_PROBE_PERIOD == 0;
            return if probe { stale_half } else { 1 - stale_half };
        }
        match self.read_routing {
            ReadRouting::PrimaryOnly => 0,
            ReadRouting::RoundRobin => (seq & 1) as u8,
            ReadRouting::Adaptive => {
                match (
                    self.rtt_ewma.get(&(volume, 0)),
                    self.rtt_ewma.get(&(volume, 1)),
                ) {
                    (Some(a), Some(b)) => u8::from(b < a),
                    // Explore until both halves have RTT samples.
                    _ => (seq & 1) as u8,
                }
            }
        }
    }

    fn issue_read_part(&mut self, ctx: &mut Ctx<'_>, run_id: u64, part: usize) {
        let (region_id, volume, first_issue, class) = {
            let r = &self.reads[&run_id];
            let p = &r.parts[part];
            (r.region_id, p.volume, p.tried == 0, r.class)
        };
        if first_issue {
            let half = self.pick_read_half(ctx, region_id, volume);
            let p = &mut self.reads.get_mut(&run_id).unwrap().parts[part];
            p.half = half;
            p.tried = 1 << half;
        }
        let (half, dev_off, len) = {
            let p = &mut self.reads.get_mut(&run_id).unwrap().parts[part];
            p.issued_ns = ctx.now().as_nanos();
            (p.half, p.dev_off, p.len)
        };
        let info = &self.regions[&region_id];
        let eps = info
            .eps_for(volume)
            .expect("stripe map volume missing endpoints");
        let dev = if half == 0 {
            eps.primary_ep
        } else {
            eps.mirror_ep
        };
        let rid = self.next_rdma;
        self.next_rdma += 1;
        let net = self.net.clone();
        rdma_read(ctx, &net, self.ep, dev, dev_off, len, rid, class);
        let timer = ctx.arm_timer(self.cfg.read_timeout, PmReadTimeout { rid });
        self.read_map.insert(rid, (run_id, part, timer));
    }

    /// `true` for errors that mean "this half is unavailable" rather than
    /// "this request is malformed".
    fn is_availability_error(status: RdmaStatus) -> bool {
        matches!(status, RdmaStatus::DeviceFailed | RdmaStatus::Unreachable)
    }

    /// Record half `half` of member `volume` as suspect for `region_id`;
    /// on the edge, report to the PMM (fire-and-forget — the PMM confirms
    /// with its own probe).
    fn mark_suspect(&mut self, ctx: &mut Ctx<'_>, region_id: u64, volume: u32, half: u8) {
        // A failing half's contents diverge while it is out: even after
        // it answers again, don't trust its reads until one succeeds
        // directly (the PMM fences reads off it until resilvered).
        let st = self.halves.entry((region_id, volume)).or_default();
        st.stale[half as usize] = true;
        st.suspected_at[half as usize] = ctx.now().as_nanos();
        if std::mem::replace(&mut st.suspect[half as usize], true) {
            return;
        }
        nsk::proc::send_to_process(
            ctx,
            &self.machine,
            self.ep,
            self.cpu,
            &self.pmm_name,
            32,
            ReportMirrorFailure {
                region_id,
                volume,
                half,
            },
        );
    }

    fn clear_suspect(&mut self, region_id: u64, volume: u32, half: u8) {
        if let Some(st) = self.halves.get_mut(&(region_id, volume)) {
            st.suspect[half as usize] = false;
        }
    }

    /// A read served directly by this half proves its contents current
    /// (the PMM only lifts the read fence once the resilver verified the
    /// mirrors identical).
    fn clear_stale(&mut self, region_id: u64, volume: u32, half: u8) {
        if let Some(st) = self.halves.get_mut(&(region_id, volume)) {
            st.stale[half as usize] = false;
        }
    }

    /// Suspect bookkeeping for one answer (chain ack or forcing read)
    /// from `half` of a write's member: `Ok` proves the half is back, an
    /// availability error marks it suspect. A no-op once the write has
    /// retired (e.g. a late answer racing the timeout path).
    fn note_half_answer(
        &mut self,
        ctx: &mut Ctx<'_>,
        wid: u64,
        member: usize,
        half: u8,
        status: RdmaStatus,
    ) {
        let Some(st) = self.writes.get(&wid) else {
            return;
        };
        let (region_id, volume) = (st.region_id, st.members[member].volume);
        if status == RdmaStatus::Ok {
            self.clear_suspect(region_id, volume, half);
        } else if Self::is_availability_error(status) {
            self.mark_suspect(ctx, region_id, volume, half);
        }
    }

    /// Feed an [`RdmaWriteDone`] received by the owning actor. Returns the
    /// client-level completion once the write's fate is decided, else
    /// `None`.
    pub fn on_rdma_write_done(
        &mut self,
        ctx: &mut Ctx<'_>,
        done: &RdmaWriteDone,
    ) -> Option<PmWriteComplete> {
        let (wid, member, half) = self.rdma_map.remove(&done.op_id)?;
        self.note_half_answer(ctx, wid, member, half, done.status);
        let fenced = self.cfg.persist_mode == PersistMode::PersistFlush;
        let st = self.writes.get_mut(&wid)?;
        st.pending.retain(|&(rid, _, _)| rid != done.op_id);
        let m = &mut st.members[member];
        match done.status {
            RdmaStatus::Ok => {
                m.acked_halves |= 1 << half;
                if fenced {
                    // The chain carried its own persist fence: the one
                    // ack proves arrival and durability together.
                    m.persisted_halves |= 1 << half;
                }
            }
            s if Self::is_availability_error(s) => {
                m.avail_failed += 1;
                st.avail_status = s;
            }
            s => {
                if st.logical_error.is_none() {
                    st.logical_error = Some(s);
                }
            }
        }
        // Sequential policy: fire the member's mirror chain once its
        // primary decided — including after an availability failure, so
        // the survivor can still make the member persistent (degraded).
        if let Some((dev, links)) = m.next_leg.take() {
            if st.logical_error.is_none() {
                let class = st.class;
                self.issue_chain(ctx, wid, member, dev, 1, links, class);
                return None;
            }
        }
        self.try_complete_write(ctx, wid)
    }

    /// Feed a [`PmWriteTimeout`] timer. Chains still outstanding are
    /// treated as availability failures (silent-drop devices never
    /// answer); if every member has at least one acked half, the write
    /// completes degraded.
    pub fn on_write_timeout(
        &mut self,
        ctx: &mut Ctx<'_>,
        t: &PmWriteTimeout,
    ) -> Option<PmWriteComplete> {
        let st = self.writes.get_mut(&t.wid)?;
        if st.pending.is_empty()
            && st.members.iter().all(|m| m.next_leg.is_none())
            && st.persist_pending.is_empty()
        {
            return None; // completion already in flight elsewhere
        }
        let region_id = st.region_id;
        let stale: Vec<(u64, usize, u8)> = std::mem::take(&mut st.pending);
        // Forcing reads that never answered count as availability
        // failures on their half: the data may be on the array, but
        // nothing proved it, so the mode's contract says we cannot claim
        // it.
        let stale_persist: Vec<u64> = std::mem::take(&mut st.persist_pending);
        if !stale_persist.is_empty() {
            st.persist_failed = true;
        }
        st.avail_status = RdmaStatus::Unreachable;
        let mut to_suspect = Vec::with_capacity(stale.len());
        for &(rid, member, half) in &stale {
            st.members[member].avail_failed += 1;
            to_suspect.push((st.members[member].volume, half));
            self.rdma_map.remove(&rid);
        }
        for rid in stale_persist {
            if let Some((_, member, half)) = self.persist_map.remove(&rid) {
                to_suspect.push((st.members[member].volume, half));
            }
        }
        // A sequential write may time out before some members' mirror
        // chains were ever issued; fire them now against the survivors
        // and give them one more timeout interval.
        let next: Vec<(usize, (EndpointId, Chain))> = st
            .members
            .iter_mut()
            .enumerate()
            .filter_map(|(mi, m)| m.next_leg.take().map(|l| (mi, l)))
            .collect();
        let class = st.class;
        for (volume, half) in to_suspect {
            self.mark_suspect(ctx, region_id, volume, half);
        }
        if !next.is_empty() {
            for (member, (dev, links)) in next {
                self.issue_chain(ctx, t.wid, member, dev, 1, links, class);
            }
            self.arm_write_timeout(ctx, t.wid);
            return None;
        }
        self.try_complete_write(ctx, t.wid)
    }

    fn try_complete_write(&mut self, ctx: &mut Ctx<'_>, wid: u64) -> Option<PmWriteComplete> {
        let Some(st) = self.writes.get(&wid) else {
            // Duplicate/stale completion (e.g. a late chain racing the
            // timeout path): the write already completed — ignore it
            // rather than panic, but leave a trace for diagnosis.
            ctx.trace("pmclient: stale write completion ignored");
            return None;
        };
        if !st.pending.is_empty()
            || st.members.iter().any(|m| m.next_leg.is_some())
            || !st.persist_pending.is_empty()
        {
            return None;
        }
        // Chains settled. `FlushOnRead` interposes a forcing read per
        // touched device half before the write may complete, so the
        // completion means "on the array", not "in a NIC buffer".
        // (`PersistFlush` chains carried their own fence.)
        if self.cfg.persist_mode == PersistMode::FlushOnRead
            && !st.persist_phase
            && st.logical_error.is_none()
            && st.members.iter().all(|m| m.acked_halves != 0)
        {
            self.begin_persist_phase(ctx, wid);
            return None;
        }
        let mut st = self.writes.remove(&wid)?;
        for &timer in st.watchdog.iter().chain(&st.late_watchdogs) {
            ctx.disarm(timer);
        }
        // Purge op-id entries still pointing at the retired write.
        self.rdma_map.retain(|_, &mut (w, _, _)| w != wid);
        let persistent = match self.cfg.persist_mode {
            // Optimistic: an RDMA ack counts as durable (the paper's
            // assumption; honest only for a device with no volatile
            // ingress buffer).
            PersistMode::NicAck => st.members.iter().all(|m| m.acked_halves != 0),
            // Honest: every member's chain proved on the array of at
            // least one answering mirror.
            _ => st.members.iter().all(|m| m.persisted_halves != 0),
        };
        let (status, degraded) = if let Some(err) = st.logical_error {
            (err, false)
        } else if persistent {
            // Every fragment is persistent on at least one answering
            // mirror; this preserves the API contract ("when the call
            // returns the data is either persistent or the call will
            // return in error"), at reduced redundancy where a half
            // failed.
            (
                RdmaStatus::Ok,
                st.members.iter().any(|m| m.avail_failed > 0) || st.persist_failed,
            )
        } else {
            (st.avail_status, false)
        };
        let token = st.token;
        st.pending.clear();
        st.members.clear();
        st.persist_pending.clear();
        st.late_watchdogs.clear();
        self.spare_writes.push(st);
        Some(PmWriteComplete {
            token,
            status,
            degraded,
        })
    }

    /// Launch the `FlushOnRead` persist phase of a write: one small read
    /// per `(member volume, half)` that acked its chain, aimed at one of
    /// the half's just-written fragments — "reads cannot pass posted
    /// writes" is the persist barrier.
    fn begin_persist_phase(&mut self, ctx: &mut Ctx<'_>, wid: u64) {
        let st = self.writes.get_mut(&wid).expect("write registered");
        st.persist_phase = true;
        let (region_id, class) = (st.region_id, st.class);
        let mut targets: Vec<(usize, u8, u32, u64, u32)> = Vec::new();
        for (mi, m) in st.members.iter().enumerate() {
            for half in 0..2u8 {
                if m.acked_halves & (1 << half) != 0 {
                    targets.push((mi, half, m.volume, m.probe.0, m.probe.1.min(8)));
                }
            }
        }
        let info = self.regions.get(&region_id).expect("region not adopted");
        for (member, half, volume, dev_off, read_len) in targets {
            let eps = *info
                .eps_for(volume)
                .expect("stripe map volume missing endpoints");
            let dev = if half == 0 {
                eps.primary_ep
            } else {
                eps.mirror_ep
            };
            let rid = self.next_rdma;
            self.next_rdma += 1;
            self.persist_map.insert(rid, (wid, member, half));
            self.writes
                .get_mut(&wid)
                .expect("write registered")
                .persist_pending
                .push(rid);
            rdma_read(ctx, &self.net, self.ep, dev, dev_off, read_len, rid, class);
        }
        // Give the forcing reads their own timeout interval.
        self.arm_write_timeout(ctx, wid);
    }

    /// Intercept a persist-phase forcing read (`FlushOnRead` mode). Call
    /// this *before* [`Self::on_rdma_read_done`] for every `RdmaReadDone`;
    /// it returns `None` without consuming ops it does not own.
    pub fn on_persist_read_done(
        &mut self,
        ctx: &mut Ctx<'_>,
        done: &RdmaReadDone,
    ) -> Option<PmWriteComplete> {
        let (wid, member, half) = self.persist_map.remove(&done.op_id)?;
        self.note_half_answer(ctx, wid, member, half, done.status);
        let st = self.writes.get_mut(&wid)?;
        st.persist_pending.retain(|&r| r != done.op_id);
        if done.status == RdmaStatus::Ok {
            st.members[member].persisted_halves |= 1 << half;
        } else {
            st.persist_failed = true;
            if st.avail_status == RdmaStatus::Ok {
                st.avail_status = done.status;
            }
        }
        self.try_complete_write(ctx, wid)
    }

    /// Feed an [`RdmaReadDone`]; returns the client completion if the op
    /// belonged to this library and the whole read is final (a failed
    /// fragment fails over to its other mirror half and returns `None`
    /// here).
    pub fn on_rdma_read_done(
        &mut self,
        ctx: &mut Ctx<'_>,
        done: RdmaReadDone,
    ) -> Option<PmReadComplete> {
        let (run_id, part, timer) = self.read_map.remove(&done.op_id)?;
        ctx.disarm(timer);
        let r = self.reads.get_mut(&run_id)?;
        let (region_id, volume, half, issued_ns) = {
            let p = &r.parts[part];
            (r.region_id, p.volume, p.half, p.issued_ns)
        };
        if done.status == RdmaStatus::Ok {
            r.parts[part].data = Some(done.data);
            r.outstanding -= 1;
            r.inflight = r.inflight.saturating_sub(1);
            self.clear_suspect(region_id, volume, half);
            self.clear_stale(region_id, volume, half);
            // Per-half RTT observation feeding adaptive routing.
            let rtt = ctx.now().as_nanos().saturating_sub(issued_ns) as f64;
            self.rtt_ewma
                .entry((volume, half))
                .and_modify(|e| *e += Self::RTT_ALPHA * (rtt - *e))
                .or_insert(rtt);
            self.pump_reads(ctx, run_id);
            return self.try_complete_read(ctx, run_id);
        }
        if Self::is_availability_error(done.status) {
            self.mark_suspect(ctx, region_id, volume, half);
        } else {
            // A rejection through an open window means the PMM re-fenced
            // this half (resilver in progress): its contents are stale,
            // not its port. Route around it until a probe read succeeds.
            self.halves.entry((region_id, volume)).or_default().stale[half as usize] = true;
        }
        self.fail_over_part(ctx, run_id, part, done.status)
    }

    /// Feed a [`PmReadTimeout`] timer; treated as an availability error on
    /// the fragment's targeted half.
    pub fn on_read_timeout(
        &mut self,
        ctx: &mut Ctx<'_>,
        t: &PmReadTimeout,
    ) -> Option<PmReadComplete> {
        let (run_id, part, _) = self.read_map.remove(&t.rid)?;
        let r = self.reads.get(&run_id)?;
        let (region_id, volume, half) = {
            let p = &r.parts[part];
            (r.region_id, p.volume, p.half)
        };
        self.mark_suspect(ctx, region_id, volume, half);
        self.fail_over_part(ctx, run_id, part, RdmaStatus::Unreachable)
    }

    fn fail_over_part(
        &mut self,
        ctx: &mut Ctx<'_>,
        run_id: u64,
        part: usize,
        status: RdmaStatus,
    ) -> Option<PmReadComplete> {
        let r = self.reads.get_mut(&run_id)?;
        let other = 1 - r.parts[part].half;
        if r.parts[part].tried & (1 << other) == 0 {
            r.parts[part].half = other;
            r.parts[part].tried |= 1 << other;
            r.degraded = true;
            self.issue_read_part(ctx, run_id, part);
            return None;
        }
        // This fragment exhausted both halves: the whole read fails. Drop
        // the run and orphan its other in-flight fragments (their
        // completions no-op via the removed `read_map` entries).
        let r = self.reads.remove(&run_id)?;
        self.forget_read_ops(ctx, run_id);
        Some(PmReadComplete {
            token: r.token,
            status,
            data: Bytes::new(),
            degraded: r.degraded,
        })
    }

    /// Purge any op-id entry still pointing at a retired run (a fragment
    /// orphaned by a failed sibling, a leg re-issued while its original
    /// was still tracked) so the completion map can't grow without bound,
    /// and take its watchdog with it.
    fn forget_read_ops(&mut self, ctx: &mut Ctx<'_>, run_id: u64) {
        self.read_map.retain(|_, &mut (rn, _, timer)| {
            if rn == run_id {
                ctx.disarm(timer);
            }
            rn != run_id
        });
    }

    fn try_complete_read(&mut self, ctx: &mut Ctx<'_>, run_id: u64) -> Option<PmReadComplete> {
        if self.reads.get(&run_id)?.outstanding > 0 {
            return None;
        }
        let mut r = self.reads.remove(&run_id)?;
        self.forget_read_ops(ctx, run_id);
        let data = match &mut r.parts[..] {
            // One fragment covering the run is the run: pass it through.
            [ReadPart {
                buf_off: 0,
                data: Some(d),
                ..
            }] if d.len() == r.total => std::mem::take(d),
            parts => {
                let mut buf = vec![0u8; r.total];
                for p in parts {
                    let d = p.data.as_ref().expect("all fragments complete");
                    buf[p.buf_off..p.buf_off + d.len()].copy_from_slice(d);
                }
                Bytes::from(buf)
            }
        };
        Some(PmReadComplete {
            token: r.token,
            status: RdmaStatus::Ok,
            data,
            degraded: r.degraded,
        })
    }

    /// True when no read or write is in flight *and* every per-op
    /// completion map has been purged — the invariant a long-lived
    /// client relies on to not leak tracking state across runs.
    pub fn quiesced(&self) -> bool {
        self.writes.is_empty()
            && self.reads.is_empty()
            && self.rdma_map.is_empty()
            && self.read_map.is_empty()
            && self.persist_map.is_empty()
    }

    /// Test-only: inject suspect state directly (no PMM report), with an
    /// explicit suspicion timestamp — lets tests stage the both-suspect
    /// tie-break deterministically.
    #[cfg(test)]
    pub(crate) fn force_suspect_at(&mut self, region_id: u64, volume: u32, half: u8, at_ns: u64) {
        let st = self.halves.entry((region_id, volume)).or_default();
        st.suspect[half as usize] = true;
        st.suspected_at[half as usize] = at_ns;
    }
}
