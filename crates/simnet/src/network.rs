//! The shared network state: endpoint registry, dual-fabric health, port
//! occupancy (bandwidth contention) and traffic statistics.
//!
//! `Network` is shared (`Arc<Mutex<..>>`) between all actors in one
//! simulation. The simulation itself is single-threaded, so the mutex is
//! uncontended; it exists because whole simulations run on worker threads
//! during parameter sweeps and the handle must be `Send + Sync`.

use crate::config::FabricConfig;
use crate::qos::{ClassStats, QosConfig, TokenBucket, TrafficClass, CLASS_COUNT};
use parking_lot::Mutex;
use simcore::fault::FaultPlan;
use simcore::{ActorId, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

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

/// Traffic counters, cheap enough to keep always-on.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetStats {
    pub msgs: u64,
    pub msg_bytes: u64,
    pub rdma_writes: u64,
    pub rdma_write_bytes: u64,
    pub rdma_reads: u64,
    pub rdma_read_bytes: u64,
    /// Checksum ("scrub") reads: the device digests a range and replies
    /// with 8 bytes instead of the data.
    pub rdma_crc_reads: u64,
    /// Standalone flush verbs. The verb is gone — a persist fence now
    /// rides the write chain it closes — so this reads 0; the field stays
    /// for artifact readers.
    pub rdma_flushes: u64,
    /// Device-side atomic appends (near-device offload verb 1); the
    /// byte counter tracks virtual record bytes, probes count 0.
    pub rdma_appends: u64,
    pub rdma_append_bytes: u64,
    /// Batched device-local scrub commands (offload verb 2).
    pub rdma_scrubs: u64,
    /// Device-to-device copy commands (offload verb 3); bytes are the
    /// payload each command moves NPMU→NPMU.
    pub rdma_copies: u64,
    pub rdma_copy_bytes: u64,
    pub retransmits: u64,
    pub failovers: u64,
    pub unreachable: u64,
}

pub struct Network {
    pub cfg: FabricConfig,
    endpoints: Vec<Option<ActorId>>,
    /// Per-endpoint transmit-port reservation horizon, ns.
    tx_busy: Vec<u64>,
    /// Per-endpoint receive-port reservation horizon, ns.
    rx_busy: Vec<u64>,
    /// Which fabric the last op used (for failover-penalty accounting).
    last_fabric: u8,
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
    /// Per-class totals across every port (bytes always counted, even on
    /// the legacy path; waits/depths only exist with the scheduler on).
    class_totals: [ClassStats; CLASS_COUNT],
    /// Per-(endpoint, direction, class) counters under the scheduler.
    port_class: HashMap<(u32, PortDir, TrafficClass), ClassStats>,
}

pub type SharedNetwork = Arc<Mutex<Network>>;

impl Network {
    pub fn new(cfg: FabricConfig) -> SharedNetwork {
        Self::with_qos(cfg, QosConfig::disabled())
    }

    /// A network with fabric QoS installed from the start.
    pub fn with_qos(cfg: FabricConfig, qos: QosConfig) -> SharedNetwork {
        Arc::new(Mutex::new(Network {
            cfg,
            endpoints: Vec::new(),
            tx_busy: Vec::new(),
            rx_busy: Vec::new(),
            last_fabric: 0,
            fault_plan: FaultPlan::none(),
            stats: NetStats::default(),
            qos,
            arbiter: None,
            bulk_bucket: None,
            class_totals: [ClassStats::default(); CLASS_COUNT],
            port_class: HashMap::new(),
        }))
    }

    /// Forget per-`Sim` QoS runtime state (arbiter id, bucket fill) so the
    /// network can be reused with a freshly built simulator.
    pub fn reset_qos_runtime(&mut self) {
        self.arbiter = None;
        self.bulk_bucket = None;
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

    /// Record a scheduler observation for one (port, class): queueing wait
    /// and depth high-water marks (bytes are counted at issue time).
    pub(crate) fn record_port_wait(
        &mut self,
        ep: u32,
        dir: PortDir,
        class: TrafficClass,
        wait_ns: u64,
        depth: u64,
    ) {
        let e = self.port_class.entry((ep, dir, class)).or_default();
        e.max_wait_ns = e.max_wait_ns.max(wait_ns);
        e.peak_depth = e.peak_depth.max(depth);
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

    /// Per-(endpoint, direction, class) scheduler counters, sorted for
    /// deterministic iteration.
    pub fn port_class_stats(&self) -> Vec<((u32, PortDir, TrafficClass), ClassStats)> {
        let mut v: Vec<_> = self.port_class.iter().map(|(k, s)| (*k, *s)).collect();
        v.sort_by_key(|((ep, dir, class), _)| (*ep, *dir as u8, *class));
        v
    }

    /// Allocate a fresh endpoint bound to `actor`.
    pub fn attach(&mut self, actor: ActorId) -> EndpointId {
        let id = EndpointId(self.endpoints.len() as u32);
        self.endpoints.push(Some(actor));
        self.tx_busy.push(0);
        self.rx_busy.push(0);
        id
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

    /// Reserve the transmit port of `ep` for `dur_ns` starting no earlier
    /// than `now_ns`; returns the queueing delay incurred.
    pub fn reserve_tx(&mut self, ep: EndpointId, now_ns: u64, dur_ns: u64) -> u64 {
        Self::reserve(&mut self.tx_busy, ep, now_ns, dur_ns)
    }

    /// Reserve the receive port of `ep`; returns the queueing delay.
    pub fn reserve_rx(&mut self, ep: EndpointId, now_ns: u64, dur_ns: u64) -> u64 {
        Self::reserve(&mut self.rx_busy, ep, now_ns, dur_ns)
    }

    fn reserve(busy: &mut [u64], ep: EndpointId, now_ns: u64, dur_ns: u64) -> u64 {
        let b = &mut busy[ep.0 as usize];
        let start = (*b).max(now_ns);
        *b = start + dur_ns;
        start - now_ns
    }

    /// Choose a live fabric at `now`. Returns `(fabric, extra_ns)` where
    /// `extra_ns` is the failover penalty if we had to switch paths, or
    /// `None` if both fabrics are down.
    pub fn pick_fabric(&mut self, now: SimTime) -> Option<(u8, u64)> {
        let x_down = self.fault_plan.fabric_down_at(0, now);
        let y_down = self.fault_plan.fabric_down_at(1, now);
        let pick = match (x_down, y_down) {
            (false, _) => 0,
            (true, false) => 1,
            (true, true) => return None,
        };
        let penalty = if pick != self.last_fabric {
            self.stats.failovers += 1;
            self.cfg.failover_penalty_ns
        } else {
            0
        };
        self.last_fabric = pick;
        Some((pick, penalty))
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
        assert_eq!(n.reserve_tx(ep, 1000, 500), 0);
        // Second transfer at the same instant queues behind the first.
        assert_eq!(n.reserve_tx(ep, 1000, 500), 500);
        // A transfer after the port drained sees no delay.
        assert_eq!(n.reserve_tx(ep, 10_000, 500), 0);
    }

    #[test]
    fn rx_and_tx_ports_independent() {
        let n = net();
        let mut n = n.lock();
        let ep = n.attach(ActorId(0));
        assert_eq!(n.reserve_tx(ep, 0, 1000), 0);
        assert_eq!(n.reserve_rx(ep, 0, 1000), 0);
    }

    #[test]
    fn fabric_failover_and_total_outage() {
        let n = net();
        let mut n = n.lock();
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
        // X down: pick Y, pay failover penalty (last used was X).
        let (fab, pen) = n.pick_fabric(SimTime(1)).unwrap();
        assert_eq!(fab, 1);
        assert!(pen > 0);
        assert_eq!(n.stats.failovers, 1);
        // Still on Y: no penalty.
        let (fab, pen) = n.pick_fabric(SimTime(2)).unwrap();
        assert_eq!(fab, 1);
        assert_eq!(pen, 0);
        // Both down.
        assert!(n.pick_fabric(SimTime(SECS / 2 + 1)).is_none());
        // After the window, X is preferred again (penalty for switching).
        let (fab, pen) = n.pick_fabric(SimTime(SECS + 1)).unwrap();
        assert_eq!(fab, 0);
        assert!(pen > 0);
    }
}
