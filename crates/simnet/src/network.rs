//! The shared network state: endpoint registry, dual-fabric routing and
//! health, port occupancy (bandwidth contention) and traffic statistics.
//!
//! ## Two fabrics, two transmit ports
//!
//! ServerNet is a *dual* network: every endpoint has a port on fabric X
//! and a port on fabric Y, and both carry traffic in steady state. Each
//! endpoint has a **home fabric** — an NPMU's mirror half `a` lives on X
//! and half `b` on Y ([`Network::set_home_fabric`]), everything else on X
//! — and a leg is routed **by its target**: it rides the target's home
//! fabric while that fabric is up and the other one while it is not
//! ([`Network::route`]). At the initiator it reserves only that fabric's
//! transmit horizon, so the two legs of a mirrored write overlap instead
//! of queueing behind each other on one port; with either fabric down
//! both legs share the survivor's port and serialize again.
//!
//! Routing depends on the target and on fabric health, never on load, so
//! every `(initiator, target)` pair rides one fabric between health edges
//! and its legs leave one port in issue order — per-path FIFO, which
//! read-after-write persistence and the PMM's copy→verify sequencing rely
//! on. A health edge moves a path to the other port: the switch costs
//! `failover_penalty_ns` once per path per edge (not per op), and the
//! moved path's first leg waits for what the initiator already queued on
//! the port it leaves, so a switch cannot overtake either.
//!
//! `Network` is shared ([`SharedNetwork`], a [`simcore::Shared`]) between
//! all actors in one simulation. A simulation is one thread, so the handle
//! carries no lock: parameter sweeps run whole simulations on worker
//! threads, each building its own network.

use crate::config::FabricConfig;
use crate::qos::{ClassStats, QosConfig, TokenBucket, TrafficClass, CLASS_COUNT};
use crate::transport::PortState;
use simcore::fault::FaultPlan;
use simcore::hash::{FastMap, FastSet};
use simcore::{ActorId, Shared, SimTime};

/// Which side of an endpoint's link a transfer occupies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Receive side: inbound requests serialize here under QoS.
    Rx,
    /// Transmit side: read-reply data serializes here under QoS.
    Tx,
}

/// Identifies a ServerNet endpoint (one per CPU and one per device NIC).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(pub u32);

impl std::fmt::Debug for EndpointId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

/// ServerNet is dual: fabric 0 is X, fabric 1 is Y.
pub const FABRICS: usize = 2;

/// Traffic counters, cheap enough to keep always-on.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetStats {
    pub msgs: u64,
    pub msg_bytes: u64,
    pub rdma_writes: u64,
    pub rdma_write_bytes: u64,
    pub rdma_reads: u64,
    pub rdma_read_bytes: u64,
    /// Standalone flush verbs. The verb is gone — a persist fence now
    /// rides the write chain it closes — so this reads 0; the field stays
    /// for artifact readers.
    pub rdma_flushes: u64,
    /// Device-side appends. The verb is gone — an ordered, fenced write
    /// chain that carries its own watermark cell does the same job in the
    /// same one round trip — so both counters read 0; the fields stay for
    /// artifact readers.
    pub rdma_appends: u64,
    pub rdma_append_bytes: u64,
    /// Batched device-local scrub commands: the device digests a range
    /// chunk by chunk and replies with 8 bytes per chunk, not the data.
    pub rdma_scrubs: u64,
    /// Device-to-device copy commands; bytes are the payload each
    /// command moves NPMU→NPMU.
    pub rdma_copies: u64,
    pub rdma_copy_bytes: u64,
    pub retransmits: u64,
    /// Path switches: one per `(initiator, target)` path per fabric-health
    /// edge that moves it (onto the survivor, and back home).
    pub failovers: u64,
    pub unreachable: u64,
    /// Legs (messages and RDMA requests) carried per fabric, `[X, Y]`.
    pub fabric_ops: [u64; FABRICS],
    /// Bytes carried per fabric, `[X, Y]`: request legs at their on-wire
    /// length plus the data a device sends back.
    pub fabric_bytes: [u64; FABRICS],
}

pub struct Network {
    pub cfg: FabricConfig,
    endpoints: Vec<Option<ActorId>>,
    /// Per-endpoint, per-fabric transmit-port reservation horizon, ns.
    tx_busy: Vec<[u64; FABRICS]>,
    /// Per-endpoint receive-port reservation horizon, ns.
    rx_busy: Vec<u64>,
    /// Per-endpoint home fabric: where legs *to* this endpoint ride.
    home: Vec<u8>,
    /// `(initiator, target)` paths currently off the target's home fabric
    /// (failover state, per path). Empty whenever both fabrics are up and
    /// every path has failed back.
    detoured: FastSet<(u32, u32)>,
    pub fault_plan: FaultPlan,
    pub stats: NetStats,
    /// Fabric QoS configuration (see [`crate::qos`]); disabled keeps the
    /// legacy analytic transport path bit-identical.
    pub qos: QosConfig,
    /// The lazily-spawned fabric arbiter actor, once QoS traffic exists.
    /// Per-`Sim`: a `Network` reused across simulator instances must call
    /// [`Network::reset_qos_runtime`].
    pub(crate) arbiter: Option<ActorId>,
    /// Token bucket pacing bulk movers, built on first use from
    /// `qos.bulk_share` of the link rate.
    pub(crate) bulk_bucket: Option<TokenBucket>,
    /// Every scheduled port's state, shared by the arbiter and the legs
    /// that grant themselves at issue (see [`crate::transport`]).
    /// Per-`Sim`, like `arbiter`.
    pub(crate) ports: FastMap<(EndpointId, PortDir), PortState>,
    /// Per-class totals across every port (bytes always counted, even on
    /// the legacy path; waits/depths only exist with the scheduler on).
    class_totals: [ClassStats; CLASS_COUNT],
}

pub type SharedNetwork = Shared<Network>;

impl Network {
    pub fn new(cfg: FabricConfig) -> SharedNetwork {
        Self::with_qos(cfg, QosConfig::disabled())
    }

    /// A network with fabric QoS installed from the start.
    pub fn with_qos(cfg: FabricConfig, qos: QosConfig) -> SharedNetwork {
        Shared::new(Network {
            cfg,
            endpoints: Vec::new(),
            tx_busy: Vec::new(),
            rx_busy: Vec::new(),
            home: Vec::new(),
            detoured: FastSet::default(),
            fault_plan: FaultPlan::none(),
            stats: NetStats::default(),
            qos,
            arbiter: None,
            bulk_bucket: None,
            ports: FastMap::default(),
            class_totals: [ClassStats::default(); CLASS_COUNT],
        })
    }

    /// Forget per-`Sim` QoS runtime state (arbiter id, bucket fill, the
    /// ports with their grants and arrivals in flight) so the network can
    /// be reused with a freshly built simulator.
    pub fn reset_qos_runtime(&mut self) {
        self.arbiter = None;
        self.bulk_bucket = None;
        self.ports.clear();
    }

    /// Ask to move `bytes` of bulk-class traffic now. `Ok` debits the
    /// bucket; `Err(wait_ns)` tells the mover how long to back off. Always
    /// `Ok` when QoS is disabled or `bulk_share ≥ 1` (no pacing).
    pub fn try_bulk_admission(&mut self, bytes: u64, now_ns: u64) -> Result<(), u64> {
        if !self.qos.enabled || self.qos.bulk_share >= 1.0 {
            return Ok(());
        }
        let (share, burst, bw) = (
            self.qos.bulk_share,
            self.qos.bulk_burst_bytes,
            self.cfg.link_bw_bps,
        );
        self.bulk_bucket
            .get_or_insert_with(|| TokenBucket::new((bw as f64 * share) as u64, burst))
            .try_take(bytes, now_ns)
    }

    /// Count `bytes` of class traffic (both transport paths call this at
    /// issue time, so class byte totals exist even without the scheduler).
    pub(crate) fn count_class_bytes(&mut self, class: TrafficClass, bytes: u64) {
        self.class_totals[class.idx()].bytes += bytes;
        self.class_totals[class.idx()].ops += 1;
        crate::qos::global_record(
            class,
            &ClassStats {
                ops: 1,
                bytes,
                ..ClassStats::default()
            },
        );
    }

    /// Record a scheduler observation for one class at some port:
    /// queueing wait and depth high-water marks (bytes are counted at
    /// issue time).
    pub(crate) fn record_port_wait(&mut self, class: TrafficClass, wait_ns: u64, depth: u64) {
        let t = &mut self.class_totals[class.idx()];
        t.max_wait_ns = t.max_wait_ns.max(wait_ns);
        t.peak_depth = t.peak_depth.max(depth);
        crate::qos::global_record(
            class,
            &ClassStats {
                max_wait_ns: wait_ns,
                peak_depth: depth,
                ..ClassStats::default()
            },
        );
    }

    /// Per-class totals across all ports of this network.
    pub fn class_totals(&self) -> [ClassStats; CLASS_COUNT] {
        self.class_totals
    }

    /// Allocate a fresh endpoint bound to `actor`.
    pub fn attach(&mut self, actor: ActorId) -> EndpointId {
        let id = EndpointId(self.endpoints.len() as u32);
        self.endpoints.push(Some(actor));
        self.tx_busy.push([0; FABRICS]);
        self.rx_busy.push(0);
        self.home.push(0);
        id
    }

    /// Home `ep` on `fabric` (0 = X, the default; 1 = Y): legs to it ride
    /// that fabric while it is up. Set once at install, before traffic.
    pub fn set_home_fabric(&mut self, ep: EndpointId, fabric: u8) {
        assert!((fabric as usize) < FABRICS, "no fabric {fabric}");
        self.home[ep.0 as usize] = fabric;
    }

    /// Re-bind an endpoint to a different actor (used when a device model
    /// is rebuilt after recovery, keeping its network identity).
    pub fn rebind(&mut self, ep: EndpointId, actor: ActorId) {
        self.endpoints[ep.0 as usize] = Some(actor);
    }

    /// Detach an endpoint (device failure): traffic to it is dropped.
    pub fn detach(&mut self, ep: EndpointId) {
        if let Some(slot) = self.endpoints.get_mut(ep.0 as usize) {
            *slot = None;
        }
    }

    pub fn actor_of(&self, ep: EndpointId) -> Option<ActorId> {
        self.endpoints.get(ep.0 as usize).copied().flatten()
    }

    pub fn endpoint_count(&self) -> usize {
        self.endpoints.len()
    }

    /// Reserve the transmit port of `ep` on `fabric` for `dur_ns` starting
    /// no earlier than `now_ns`; returns the queueing delay incurred.
    pub fn reserve_tx(&mut self, ep: EndpointId, fabric: u8, now_ns: u64, dur_ns: u64) -> u64 {
        Self::reserve(
            &mut self.tx_busy[ep.0 as usize][fabric as usize],
            now_ns,
            dur_ns,
        )
    }

    /// Reserve the receive port of `ep`; returns the queueing delay.
    pub fn reserve_rx(&mut self, ep: EndpointId, now_ns: u64, dur_ns: u64) -> u64 {
        Self::reserve(&mut self.rx_busy[ep.0 as usize], now_ns, dur_ns)
    }

    fn reserve(busy: &mut u64, now_ns: u64, dur_ns: u64) -> u64 {
        let start = (*busy).max(now_ns);
        *busy = start + dur_ns;
        start - now_ns
    }

    /// Route a leg `from → to` at `now`: the target's home fabric if it is
    /// up, else the other one. Returns `(fabric, penalty_ns)`, or `None`
    /// with both fabrics down. `penalty_ns` is the failover penalty, charged
    /// only on the leg that moves this path between fabrics; that leg also
    /// inherits the horizon of the port the path leaves, so it cannot
    /// overtake what the initiator queued there.
    pub fn route(&mut self, from: EndpointId, to: EndpointId, now: SimTime) -> Option<(u8, u64)> {
        let home = self.home[to.0 as usize];
        let fabric = if !self.fault_plan.fabric_down_at(home, now) {
            home
        } else if !self.fault_plan.fabric_down_at(home ^ 1, now) {
            home ^ 1
        } else {
            return None;
        };
        let path = (from.0, to.0);
        let switched = if fabric != home {
            self.detoured.insert(path)
        } else {
            !self.detoured.is_empty() && self.detoured.remove(&path)
        };
        if !switched {
            return Some((fabric, 0));
        }
        self.stats.failovers += 1;
        let tx = &mut self.tx_busy[from.0 as usize];
        tx[fabric as usize] = tx[fabric as usize].max(tx[(fabric ^ 1) as usize]);
        Some((fabric, self.cfg.failover_penalty_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::fault::Fault;
    use simcore::time::SECS;

    fn net() -> SharedNetwork {
        Network::new(FabricConfig::default())
    }

    #[test]
    fn attach_assigns_sequential_ids() {
        let n = net();
        let mut n = n.lock();
        let a = n.attach(ActorId(10));
        let b = n.attach(ActorId(11));
        assert_eq!(a, EndpointId(0));
        assert_eq!(b, EndpointId(1));
        assert_eq!(n.actor_of(a), Some(ActorId(10)));
        assert_eq!(n.actor_of(b), Some(ActorId(11)));
    }

    #[test]
    fn detach_and_rebind() {
        let n = net();
        let mut n = n.lock();
        let a = n.attach(ActorId(1));
        n.detach(a);
        assert_eq!(n.actor_of(a), None);
        n.rebind(a, ActorId(2));
        assert_eq!(n.actor_of(a), Some(ActorId(2)));
    }

    #[test]
    fn unknown_endpoint_resolves_to_none() {
        let n = net();
        assert_eq!(n.lock().actor_of(EndpointId(99)), None);
    }

    #[test]
    fn tx_reservation_serializes() {
        let n = net();
        let mut n = n.lock();
        let ep = n.attach(ActorId(0));
        assert_eq!(n.reserve_tx(ep, 0, 1000, 500), 0);
        // Second transfer at the same instant queues behind the first.
        assert_eq!(n.reserve_tx(ep, 0, 1000, 500), 500);
        // A transfer after the port drained sees no delay.
        assert_eq!(n.reserve_tx(ep, 0, 10_000, 500), 0);
    }

    #[test]
    fn each_fabric_has_its_own_tx_port_and_rx_is_independent() {
        let n = net();
        let mut n = n.lock();
        let ep = n.attach(ActorId(0));
        assert_eq!(n.reserve_tx(ep, 0, 0, 1000), 0);
        assert_eq!(n.reserve_tx(ep, 1, 0, 1000), 0);
        assert_eq!(n.reserve_rx(ep, 0, 1000), 0);
        assert_eq!(n.reserve_tx(ep, 1, 0, 1000), 1000);
    }

    #[test]
    fn legs_ride_their_targets_home_fabric() {
        let n = net();
        let mut n = n.lock();
        let cpu = n.attach(ActorId(0));
        let a = n.attach(ActorId(1));
        let b = n.attach(ActorId(2));
        n.set_home_fabric(b, 1);
        // Alternating targets alternate fabrics and never pay a penalty.
        for t in 0..4 {
            assert_eq!(n.route(cpu, a, SimTime(t)), Some((0, 0)));
            assert_eq!(n.route(cpu, b, SimTime(t)), Some((1, 0)));
            assert_eq!(n.route(b, cpu, SimTime(t)), Some((0, 0)));
        }
        assert_eq!(n.stats.failovers, 0);
    }

    #[test]
    fn fabric_failover_is_per_path_and_total_outage_is_unreachable() {
        let n = net();
        let mut n = n.lock();
        let cpu = n.attach(ActorId(0));
        let a = n.attach(ActorId(1));
        let b = n.attach(ActorId(2));
        n.set_home_fabric(b, 1);
        n.fault_plan = FaultPlan::none()
            .with(Fault::FabricDown {
                fabric: 0,
                from: SimTime(0),
                to: SimTime(SECS),
            })
            .with(Fault::FabricDown {
                fabric: 1,
                from: SimTime(SECS / 2),
                to: SimTime(SECS),
            });
        let pen = n.cfg.failover_penalty_ns;
        // X down: the path to `a` moves to Y and pays the penalty once;
        // the path to `b` was on Y all along.
        assert_eq!(n.route(cpu, a, SimTime(1)), Some((1, pen)));
        assert_eq!(n.route(cpu, a, SimTime(2)), Some((1, 0)));
        assert_eq!(n.route(cpu, b, SimTime(3)), Some((1, 0)));
        assert_eq!(n.stats.failovers, 1);
        // Another initiator's path to `a` is its own path.
        assert_eq!(n.route(b, a, SimTime(4)), Some((1, pen)));
        assert_eq!(n.stats.failovers, 2);
        // Both down.
        assert!(n.route(cpu, a, SimTime(SECS / 2 + 1)).is_none());
        assert!(n.route(cpu, b, SimTime(SECS / 2 + 1)).is_none());
        // After the window each moved path fails back once; the path
        // that never moved pays nothing.
        assert_eq!(n.route(cpu, a, SimTime(SECS + 1)), Some((0, pen)));
        assert_eq!(n.route(cpu, a, SimTime(SECS + 2)), Some((0, 0)));
        assert_eq!(n.route(cpu, b, SimTime(SECS + 3)), Some((1, 0)));
        assert_eq!(n.stats.failovers, 3);
    }

    #[test]
    fn a_path_switch_inherits_the_horizon_of_the_port_it_leaves() {
        let n = net();
        let mut n = n.lock();
        let cpu = n.attach(ActorId(0));
        let a = n.attach(ActorId(1));
        n.fault_plan = FaultPlan::none().with(Fault::FabricDown {
            fabric: 0,
            from: SimTime(100),
            to: SimTime(SECS),
        });
        // A long transfer is queued on X, then X dies: the next leg on
        // this path leaves Y's port no earlier than X's horizon.
        assert_eq!(n.route(cpu, a, SimTime(0)), Some((0, 0)));
        assert_eq!(n.reserve_tx(cpu, 0, 0, 500_000), 0);
        let (fabric, _) = n.route(cpu, a, SimTime(200)).unwrap();
        assert_eq!(fabric, 1);
        assert_eq!(n.reserve_tx(cpu, 1, 200, 10), 500_000 - 200);
    }
}
