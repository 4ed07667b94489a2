//! Scenario builder: wires a complete simulated ODS node — machine, fabric,
//! disks, NPMUs, PMM, TMF, ADPs, DP2s — in either the disk-audit baseline
//! or the PM-enabled configuration of §4.2/§4.3.
//!
//! The default topology mirrors the paper's benchmark system: a 4-CPU
//! S86000 (plus a 5th CPU hosting the PMP in PM mode), one ADP per CPU
//! with one auxiliary audit volume each, four database files each
//! partitioned four ways across the CPUs' DP2s, and 16 data volumes.

use crate::adp::AuditBackend;
use crate::config::TxnConfig;
use crate::dp2::install_dp2;
use crate::shard::ShardDirectory;
use crate::stats::{self, SharedTxnStats};
use crate::tmf::install_tmf;
use crate::types::PartitionId;
use npmu::{Npmu, NpmuConfig, NpmuHandle};
use nsk::machine::{CpuId, Machine, MachineConfig, SharedMachine};
use nsk::Monitor;
use pmm::{install_pmm_pool, PmmConfig, PmmHandle};
use simcore::fault::FaultPlan;
use simcore::{DurableStore, Sim, SimConfig};
use simdisk::{DiskConfig, DiskVolume, SharedDiskStats, SparseMedia};
use simnet::{FabricConfig, Network, SharedNetwork};
use std::collections::HashMap;
use std::sync::Arc;

/// Durability backend for the audit trail.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuditMode {
    /// Disk audit volumes, write-through (baseline).
    Disk,
    /// PM regions on a PMP pair hosted on an extra CPU (the paper's
    /// prototype: "we ran a PMP on a 5th CPU").
    Pmp,
    /// PM regions on hardware NPMUs (§4.2 notes hardware is slightly
    /// faster than the PMP).
    HardwareNpmu,
}

#[derive(Clone)]
pub struct OdsParams {
    pub seed: u64,
    /// Worker CPUs (ADP/DP2/TMF hosts). The paper's S86000 has 4.
    pub cpus: u32,
    /// Database files (4 in the hot-stock benchmark).
    pub files: u32,
    /// Partitions per file (4 — one per CPU).
    pub parts_per_file: u32,
    pub audit: AuditMode,
    pub txn: TxnConfig,
    pub audit_disk: DiskConfig,
    pub data_disk: DiskConfig,
    pub fabric: FabricConfig,
    /// Install backup halves of every process pair.
    pub backups: bool,
    /// Declarative faults for the run (armed via the NSK monitor before
    /// any process starts, so fault experiments are reproducible).
    pub fault_plan: FaultPlan,
    /// PM region size per ADP (circular trail).
    pub pm_region_len: u64,
    /// Member volumes (mirrored NPMU pairs) in the PM pool. 1 is the
    /// paper's single-pair prototype; more scale out write bandwidth
    /// behind the same PMM namespace.
    pub pm_volumes: u32,
    /// Independent audit partitions (ADP process pairs) in PM modes.
    /// 0 means "one per CPU" (the paper's topology). Disk mode always
    /// installs one ADP per CPU regardless. DP2s and the TMF route a
    /// transaction's trail work by `TxnId::audit_partition`, so each
    /// partition owns a disjoint slice of the audit stream with its own
    /// PM trail region — one extent on one pool member, so partitions
    /// (not stripes) spread the audit load over the pool.
    pub audit_partitions: u32,
    /// Data volumes per DP2 (paper: 16 volumes / 4 DP2s = 4).
    pub data_volumes_per_dp2: u32,
    /// Override the NPMUs' modelled ingress-buffer drain latency, ns
    /// (`None` keeps the device default). The recovery matrix's `NicAck`
    /// control widens this so the ack-vs-persist window spans many event
    /// boundaries.
    pub pm_ingress_drain_ns: Option<u64>,
    /// Fabric QoS configuration (per-class port scheduling + bulk
    /// admission). The default keeps QoS off — the legacy analytic
    /// completion path, bit-identical to pre-QoS runs.
    pub qos: simnet::QosConfig,
    /// PMM policy knobs (probe cadence, bulk-mover chunking and window,
    /// placement).
    pub pmm: PmmConfig,
    /// Additional CPUs beyond the worker set (and the PM manager CPU in
    /// PM modes) — hosts for site-level extras like the DR replica's PMM
    /// and apply process. 0 for a plain node.
    pub extra_cpus: u32,
}

impl OdsParams {
    pub fn baseline(seed: u64) -> Self {
        OdsParams {
            seed,
            cpus: 4,
            files: 4,
            parts_per_file: 4,
            audit: AuditMode::Disk,
            txn: TxnConfig::default(),
            audit_disk: DiskConfig::audit_volume(),
            data_disk: DiskConfig::data_volume(),
            fabric: FabricConfig::default(),
            backups: true,
            fault_plan: FaultPlan::none(),
            pm_region_len: 8 << 20,
            pm_volumes: 1,
            data_volumes_per_dp2: 4,
            audit_partitions: 0,
            pm_ingress_drain_ns: None,
            qos: simnet::QosConfig::disabled(),
            pmm: PmmConfig::default(),
            extra_cpus: 0,
        }
    }

    pub fn pm(seed: u64) -> Self {
        OdsParams {
            audit: AuditMode::Pmp,
            txn: TxnConfig::pm_enabled(),
            ..OdsParams::baseline(seed)
        }
    }

    /// PM configuration backed by a scale-out pool of `volumes` mirrored
    /// NPMU pairs behind one PMM namespace.
    pub fn pm_pool(seed: u64, volumes: u32) -> Self {
        OdsParams {
            pm_volumes: volumes.max(1),
            // Scale audit partitions with the pool so trail bandwidth
            // grows with member volumes: one partition per member, each
            // trail whole on its own.
            audit_partitions: volumes.max(1),
            ..OdsParams::pm(seed)
        }
    }
}

/// ADP pairs per node: one per CPU in disk mode (and in PM modes when
/// `audit_partitions` is 0), else `audit_partitions`.
pub fn adp_count(base: &OdsParams) -> u32 {
    if base.audit == AuditMode::Disk || base.audit_partitions == 0 {
        base.cpus
    } else {
        base.audit_partitions
    }
}

/// Everything a driver or harness needs to talk to the built node.
pub struct OdsNode {
    pub sim: Sim,
    pub machine: SharedMachine,
    pub net: SharedNetwork,
    pub stats: SharedTxnStats,
    pub tmf: String,
    /// ADP process names: one per CPU in disk mode, one per audit
    /// partition in PM modes.
    pub adps: Vec<String>,
    /// Partition → owning DP2 process name.
    pub partition_map: HashMap<PartitionId, String>,
    pub dp2s: Vec<String>,
    pub audit_volume_stats: Vec<SharedDiskStats>,
    pub data_volume_stats: Vec<SharedDiskStats>,
    /// Every pool member's NPMU pair, in pool order (empty in disk mode).
    pub pm_pool: Vec<(NpmuHandle, NpmuHandle)>,
    /// PMM handle (PM modes only): mirror-health stats for fault tests.
    pub pmm: Option<PmmHandle>,
    pub params: OdsParams,
}

/// CPUs one shard occupies: its workers, plus in PM modes the extra CPU
/// that hosts the PM manager (the paper's 5th-CPU PMP).
fn shard_cpus(base: &OdsParams) -> u32 {
    match base.audit {
        AuditMode::Disk => base.cpus,
        _ => base.cpus + 1,
    }
}

/// How a shard's processes and devices are named. A standalone node
/// keeps the pre-sharding names — committed durable images, the
/// benchmark and some forty call sites know them — and a cluster's shards
/// carry their index so the names stay unique inside one simulation.
/// Offline recovery tools find a shard's durable images by these names.
#[derive(Clone, Copy)]
pub enum Names {
    Node,
    Shard(u32),
}

impl Names {
    fn shard(self) -> u32 {
        match self {
            Names::Node => 0,
            Names::Shard(s) => s,
        }
    }

    fn tmf(self) -> String {
        match self {
            Names::Node => "$TMF".into(),
            Names::Shard(s) => format!("$TMF-s{s}"),
        }
    }

    fn pmm(self) -> String {
        match self {
            Names::Node => "$PMM".into(),
            Names::Shard(s) => format!("$PMM-s{s}"),
        }
    }

    /// The ADP pair writing audit partition `i`.
    pub fn adp(self, i: u32) -> String {
        match self {
            Names::Node => format!("$ADP{i}"),
            Names::Shard(s) => format!("$ADP-s{s}p{i}"),
        }
    }

    fn dp2(self, c: u32) -> String {
        match self {
            Names::Node => format!("$DP2-{c}"),
            Names::Shard(s) => format!("$DP2-s{s}c{c}"),
        }
    }

    /// Pool member `v`'s device pair is `<this>-a` / `<this>-b`. A node's
    /// member 0 is plain `pm`, so its images survive a change in pool size.
    pub fn npmu(self, v: u32) -> String {
        match self {
            Names::Node if v == 0 => "pm".into(),
            Names::Node => format!("pm{v}"),
            Names::Shard(s) => format!("pm-s{s}m{v}"),
        }
    }

    pub fn audit_volume(self, i: u32) -> String {
        match self {
            Names::Node => format!("$AUDIT{i}"),
            Names::Shard(s) => format!("$AUDIT-s{s}i{i}"),
        }
    }

    fn data_volume(self, c: u32, v: u32) -> String {
        match self {
            Names::Node => format!("$DATA{c}-{v}"),
            Names::Shard(s) => format!("$DATA-s{s}c{c}-{v}"),
        }
    }
}

/// Install one PM pool — `volumes` mirrored NPMU pairs of the kind
/// `base.audit` names, each sized for every trail region of a node, with
/// fault-plan volume ids `first_volume..` — and the PMM pair managing it.
#[allow(clippy::too_many_arguments)]
fn install_pool(
    sim: &mut Sim,
    store: &mut DurableStore,
    machine: &SharedMachine,
    base: &OdsParams,
    volumes: u32,
    first_volume: u32,
    device_name: impl Fn(u32) -> String,
    pmm_name: &str,
    pmm_cpu: CpuId,
    pmm_backup_cpu: Option<CpuId>,
) -> (Vec<(NpmuHandle, NpmuHandle)>, PmmHandle) {
    let net = machine.lock().net.clone();
    let trail_regions = base.cpus.max(adp_count(base));
    let cap = (base.pm_region_len + pmm::META_BYTES) * (trail_regions as u64 + 2) + (64 << 20);
    let kind = match base.audit {
        AuditMode::Pmp => NpmuConfig::pmp(cap),
        _ => NpmuConfig::hardware(cap),
    };
    let kind = match base.pm_ingress_drain_ns {
        Some(ns) => kind.with_ingress_drain_ns(ns),
        None => kind,
    };
    let pool: Vec<_> = (0..volumes)
        .map(|v| {
            let dev = kind.clone().with_volume(first_volume + v);
            let [a, b] = ["a", "b"].map(|half| {
                let name = format!("{}-{half}", device_name(v));
                Npmu::install(sim, store, &net, Some(machine), &name, dev.clone())
            });
            (a, b)
        })
        .collect();
    let pmm = install_pmm_pool(
        sim,
        machine,
        pmm_name,
        &pool,
        pmm_cpu,
        pmm_backup_cpu,
        base.pmm.clone(),
    );
    (pool, pmm)
}

/// The simulation a builder starts from, and what accumulates in it as
/// shards are installed.
struct World {
    sim: Sim,
    machine: SharedMachine,
    net: SharedNetwork,
    stats: SharedTxnStats,
    partition_map: HashMap<PartitionId, String>,
    audit_volume_stats: Vec<SharedDiskStats>,
    data_volume_stats: Vec<SharedDiskStats>,
}

impl World {
    fn new(base: &OdsParams, cpus: u32) -> World {
        let mut sim = Sim::new(SimConfig {
            seed: base.seed,
            ..SimConfig::default()
        });
        let net = Network::with_qos(base.fabric.clone(), base.qos);
        let machine = Machine::new(
            MachineConfig {
                cpus,
                ..MachineConfig::default()
            },
            net.clone(),
        );
        // Arm the fault plan before anything spawns: devices and fabrics
        // consult it per-op, and timed kills are scheduled deterministically.
        Monitor::install(&mut sim, &machine, base.fault_plan.clone());
        World {
            sim,
            machine,
            net,
            stats: stats::shared(),
            // std-hashed: it becomes the public `partition_map` fields.
            #[allow(clippy::disallowed_methods)]
            partition_map: HashMap::new(),
            audit_volume_stats: Vec::new(),
            data_volume_stats: Vec::new(),
        }
    }

    /// Install one node's worth of processes on CPUs `cpu0..`: PM pool and
    /// PMM (PM modes), audit partitions, data volumes and DP2s, TMF. A
    /// standalone node is the one-shard case (`Names::Node`, a directory of
    /// one TMF).
    fn build_shard(
        &mut self,
        store: &mut DurableStore,
        base: &OdsParams,
        names: Names,
        cpu0: u32,
        directory: Arc<ShardDirectory>,
    ) -> ShardHandle {
        let shard = names.shard();
        let scpu = |c: u32| CpuId(cpu0 + c);
        let backup_on = |c: u32| base.backups.then(|| scpu(c % base.cpus));
        let pm = base.audit != AuditMode::Disk;

        let pmm_name = names.pmm();
        let (pm_pool, pmm) = if pm {
            let volumes = base.pm_volumes.max(1);
            let (pool, pmm) = install_pool(
                &mut self.sim,
                store,
                &self.machine,
                base,
                volumes,
                shard * volumes,
                |v| names.npmu(v),
                &pmm_name,
                scpu(base.cpus), // the extra CPU
                backup_on(0),
            );
            (pool, Some(pmm))
        } else {
            (Vec::new(), None)
        };

        // Disk mode keeps the paper's one-ADP-per-CPU topology; PM modes
        // install `audit_partitions` independent ADP pairs, each owning its
        // own PM trail region (partitions default to one per CPU).
        let adps = crate::adp::install_adp_pairs(
            &mut self.sim,
            &self.machine,
            adp_count(base),
            cpu0,
            base.cpus,
            base.backups,
            |sim, i| {
                let backend = if pm {
                    AuditBackend::Pm {
                        pmm: pmm_name.clone(),
                        region: format!("adp{i}.audit"),
                        region_len: base.pm_region_len,
                    }
                } else {
                    let volume = names.audit_volume(i);
                    let media =
                        store.get_or_insert_with(&format!("disk:{volume}"), SparseMedia::new);
                    let vol = DiskVolume::new(volume, base.audit_disk.clone(), media);
                    self.audit_volume_stats.push(vol.stats());
                    AuditBackend::Disk {
                        volume: sim.spawn(vol),
                    }
                };
                (names.adp(i), backend)
            },
            &base.txn,
            &self.stats,
        );

        // One DP2 per CPU, owning one partition of every file. Files are
        // numbered globally: shard `s` owns `[s * files, (s + 1) * files)`.
        let mut dp2s = Vec::new();
        for c in 0..base.cpus {
            let name = names.dp2(c);
            let mut vols = Vec::new();
            for v in 0..base.data_volumes_per_dp2 {
                let volume = names.data_volume(c, v);
                let media = store.get_or_insert_with(&format!("disk:{volume}"), SparseMedia::new);
                let vol = DiskVolume::new(volume, base.data_disk.clone(), media);
                self.data_volume_stats.push(vol.stats());
                vols.push(self.sim.spawn(vol));
            }
            let mut parts = Vec::new();
            if c < base.parts_per_file {
                for file in 0..base.files {
                    let part = PartitionId {
                        file: shard * base.files + file,
                        part: c,
                    };
                    parts.push(part);
                    self.partition_map.insert(part, name.clone());
                }
            }
            // Disk mode keeps the classic CPU-affine trail (each DP2 logs to
            // its own CPU's ADP); PM modes route every audit site by
            // transaction hash across all partitions.
            let dp2_adps = if pm {
                adps.clone()
            } else {
                vec![adps[c as usize].clone()]
            };
            install_dp2(
                &mut self.sim,
                &self.machine,
                &name,
                scpu(c),
                backup_on(c + 1),
                parts,
                dp2_adps,
                vols,
                base.txn.clone(),
                self.stats.clone(),
            );
            dp2s.push(name);
        }

        // The master trail is routed by txn hash across partitions (disk
        // mode keeps the single ADP0 master trail).
        let tmf = names.tmf();
        let master_adps = if pm {
            adps.clone()
        } else {
            vec![adps[0].clone()]
        };
        install_tmf(
            &mut self.sim,
            &self.machine,
            &tmf,
            scpu(0),
            backup_on(1),
            master_adps,
            shard,
            directory,
            base.txn.clone(),
            self.stats.clone(),
        );

        ShardHandle {
            tmf,
            adps,
            dp2s,
            pm_pool,
            pmm,
        }
    }
}

/// Build the node into a fresh simulation around `store` (the durable
/// world that persists across power loss).
pub fn build_ods(store: &mut DurableStore, params: OdsParams) -> OdsNode {
    let mut world = World::new(&params, shard_cpus(&params) + params.extra_cpus);
    let directory = Arc::new(ShardDirectory::new(vec![Names::Node.tmf()]));
    let shard = world.build_shard(store, &params, Names::Node, 0, directory);
    OdsNode {
        sim: world.sim,
        machine: world.machine,
        net: world.net,
        stats: world.stats,
        tmf: shard.tmf,
        adps: shard.adps,
        partition_map: world.partition_map,
        dp2s: shard.dp2s,
        audit_volume_stats: world.audit_volume_stats,
        data_volume_stats: world.data_volume_stats,
        pmm: shard.pmm,
        pm_pool: shard.pm_pool,
        params,
    }
}

// ---------------------------------------------------------------------
// Geo-replicated pair: primary node + DR replica site
// ---------------------------------------------------------------------

/// Parameters for a geo-replicated deployment: one full primary node
/// plus a reduced DR site (standby PM pool + replica apply process)
/// joined by a [`simnet::WanLink`], with an optional failover drill on a
/// fixed timeline.
#[derive(Clone)]
pub struct GeorepParams {
    /// Primary-node topology. Must be a PM audit mode (log shipping
    /// tails PM trail regions).
    pub base: OdsParams,
    pub wan: simnet::WanConfig,
    /// Audit partitions `0..eager_partitions` ship on every watermark
    /// publication; the rest poll lazily. `u32::MAX` ⇒ all eager.
    pub eager_partitions: u32,
    /// Cold-partition poll interval.
    pub lazy_interval: simcore::SimDuration,
    /// Drill: sever the WAN at this instant.
    pub sever_at: Option<simcore::SimDuration>,
    /// Drill: epoch-fence the primary pool at this instant (the DR
    /// witness's dead-primary declaration).
    pub fence_at: Option<simcore::SimDuration>,
    /// Fence epoch — must exceed any epoch the primary's own failover
    /// machinery has burned; a generation well above normal churn.
    pub fence_epoch: u64,
}

impl GeorepParams {
    pub fn pm(seed: u64) -> Self {
        GeorepParams {
            // Hardware NPMUs, not the PMP prototype: a DR drill reads
            // the *durable* device images after simulated power loss,
            // and a PMP's memory is process DRAM (volatile).
            base: OdsParams {
                audit: AuditMode::HardwareNpmu,
                txn: TxnConfig::pm_enabled(),
                extra_cpus: 2,
                ..OdsParams::baseline(seed)
            },
            wan: simnet::WanConfig::default(),
            eager_partitions: u32::MAX,
            lazy_interval: simcore::SimDuration::from_millis(50),
            sever_at: None,
            fence_at: None,
            fence_epoch: 1 << 20,
        }
    }
}

/// The DR site's standby pool: one member, images `npmu:drpm-a` / `-b`.
pub const DR_POOL: &str = "drpm";

/// A built geo-replicated pair. The replica site lives in the same
/// simulation (separate CPUs, separate NPMU pair, separate PMM
/// namespace) — the only coupling is the WAN link.
pub struct GeorepNode {
    pub node: OdsNode,
    pub wan: simnet::SharedWanLink,
    /// The DR site's standby NPMU pair.
    pub dr_pool: Vec<(NpmuHandle, NpmuHandle)>,
    pub dr_pmm: PmmHandle,
    pub shipper_stats: crate::georep::SharedShipperStats,
    pub replica_stats: crate::georep::SharedReplicaStats,
    pub drill: crate::georep::SharedDrillRecord,
}

/// Build a primary node plus its DR replica site around `store`.
pub fn build_georep(store: &mut DurableStore, params: GeorepParams) -> GeorepNode {
    assert!(
        params.base.audit != AuditMode::Disk,
        "geo-replication ships PM audit trails; use a PM audit mode"
    );
    let mut base = params.base.clone();
    // CPU cpus+1 hosts the replica PMM, cpus+2 the replica apply process
    // (the shipper shares the primary's PM-manager CPU at `cpus`).
    base.extra_cpus = base.extra_cpus.max(2);
    let cpus = base.cpus;
    let mut node = build_ods(store, base);

    // --- DR site: standby NPMU pair + its own PMM namespace. Its fault
    //     plan volume ids follow the primary pool's, so a member-scoped
    //     fault names a device at one site only. ---
    let (dr_pool, dr_pmm) = install_pool(
        &mut node.sim,
        store,
        &node.machine,
        &node.params,
        1,
        node.params.pm_volumes.max(1),
        |_| DR_POOL.into(),
        "$PMM-dr",
        CpuId(cpus + 1),
        None,
    );

    // --- WAN + shipper/replica/drill ---
    let wan = simnet::WanLink::shared(params.wan.clone());
    let regions: Vec<String> = (0..node.adps.len())
        .map(|i| format!("adp{i}.audit"))
        .collect();
    let handles = crate::georep::install_georep(
        &mut node.sim,
        &node.machine,
        "$PMM",
        "$PMM-dr",
        &node.adps,
        &regions,
        node.params.pm_region_len,
        &node.params.txn,
        wan.clone(),
        CpuId(cpus),
        CpuId(cpus + 2),
        crate::georep::ShipperConfig {
            eager_partitions: params.eager_partitions,
            lazy_interval: params.lazy_interval,
            // A batch is not lost until it has had a full ship round
            // trip to arrive: rewinding on a fixed short timer would
            // re-ship in-flight data on long-haul links. Keep the
            // floor for LAN-ish delays, scale with the WAN RTT.
            retry_interval: crate::georep::ShipperConfig::default().retry_interval.max(
                simcore::SimDuration::from_nanos(4 * params.wan.one_way_delay.as_nanos()),
            ),
        },
        match (params.sever_at, params.fence_at) {
            (Some(s), Some(f)) => Some((s, f, params.fence_epoch)),
            _ => None,
        },
    );

    GeorepNode {
        node,
        wan,
        dr_pool,
        dr_pmm,
        shipper_stats: handles.shipper_stats,
        replica_stats: handles.replica_stats,
        drill: handles.drill,
    }
}

// ---------------------------------------------------------------------
// Sharded cluster
// ---------------------------------------------------------------------

/// Parameters for a sharded multi-node cluster: `shards` complete ODS
/// nodes (each with the `base` per-node topology) in one simulation,
/// joined by the shared fabric and a [`ShardDirectory`] so their TMFs can
/// run cross-shard two-phase commit.
#[derive(Clone)]
pub struct ClusterParams {
    /// Node count. MUST be a power of two (the shard-routing hash masks).
    pub shards: u32,
    /// Per-node topology. `base.files` database files live on EVERY
    /// shard, renumbered globally as `shard * files + file`.
    pub base: OdsParams,
}

impl ClusterParams {
    /// PM-audit cluster (hardware NPMUs, one mirrored pair per shard).
    pub fn pm(seed: u64, shards: u32) -> Self {
        assert!(shards.is_power_of_two());
        ClusterParams {
            shards,
            base: OdsParams {
                audit: AuditMode::HardwareNpmu,
                txn: TxnConfig::pm_enabled(),
                ..OdsParams::baseline(seed)
            },
        }
    }
}

/// One shard's process names and device handles.
pub struct ShardHandle {
    pub tmf: String,
    pub adps: Vec<String>,
    pub dp2s: Vec<String>,
    /// Mirrored NPMU pairs backing this shard's audit regions (PM modes).
    pub pm_pool: Vec<(NpmuHandle, NpmuHandle)>,
    pub pmm: Option<PmmHandle>,
}

/// A built cluster: one simulation, `shards.len()` nodes.
pub struct ClusterNode {
    pub sim: Sim,
    pub machine: SharedMachine,
    pub net: SharedNetwork,
    pub stats: SharedTxnStats,
    pub shards: Vec<ShardHandle>,
    pub directory: Arc<ShardDirectory>,
    /// Global partition → owning DP2 name (files renumbered per shard).
    pub partition_map: HashMap<PartitionId, String>,
    pub audit_volume_stats: Vec<SharedDiskStats>,
    pub params: ClusterParams,
}

/// What a workload driver needs to route requests: shard-count, TMF
/// names, and the global partition map. Constructible from a cluster or a
/// single node (`shards == 1`).
#[derive(Clone)]
pub struct ClusterView {
    pub shards: u32,
    pub tmfs: Vec<String>,
    pub partition_map: HashMap<PartitionId, String>,
    /// Files per shard.
    pub files: u32,
    pub parts_per_file: u32,
    /// First worker CPU of each shard (driver actors colocate here).
    pub shard_cpu_base: Vec<u32>,
    /// Worker CPUs per shard.
    pub cpus_per_shard: u32,
}

impl ClusterView {
    fn new(
        base: &OdsParams,
        tmfs: Vec<String>,
        partition_map: &HashMap<PartitionId, String>,
    ) -> ClusterView {
        let shards = tmfs.len() as u32;
        ClusterView {
            shards,
            tmfs,
            partition_map: partition_map.clone(),
            files: base.files,
            parts_per_file: base.parts_per_file,
            shard_cpu_base: (0..shards).map(|s| s * shard_cpus(base)).collect(),
            cpus_per_shard: base.cpus,
        }
    }
}

impl ClusterNode {
    pub fn view(&self) -> ClusterView {
        let tmfs = self.shards.iter().map(|s| s.tmf.clone()).collect();
        ClusterView::new(&self.params.base, tmfs, &self.partition_map)
    }

    /// Store key of a shard's member-`v` NPMU half (`'a'`/`'b'`), for
    /// offline trail reads in recovery tests.
    pub fn npmu_store_key(shard: u32, volume: u32, half: char) -> String {
        format!("npmu:{}-{half}", Names::Shard(shard).npmu(volume))
    }
}

impl OdsNode {
    /// Single-node view for the workload driver.
    pub fn view(&self) -> ClusterView {
        ClusterView::new(&self.params, vec![self.tmf.clone()], &self.partition_map)
    }

    /// Convenience for tests: route a partition to its DP2 name.
    pub fn dp2_of(&self, partition: PartitionId) -> &str {
        self.partition_map
            .get(&partition)
            .map(|s| s.as_str())
            .expect("unmapped partition")
    }
}

/// Build a sharded cluster into a fresh simulation around `store`. Every
/// shard gets its own TMF, DP2s, audit partitions, PMM namespace and
/// mirrored NPMU pair(s), with globally-unique process and device names
/// (`$TMF-s{s}`, `$ADP-s{s}p{i}`, `$DP2-s{s}c{c}`, `pm-s{s}m{v}-{a,b}`);
/// the shared [`ShardDirectory`] tells each TMF which shard owns which
/// ADP/DP2, enabling the cross-shard 2PC path.
pub fn build_cluster(store: &mut DurableStore, params: ClusterParams) -> ClusterNode {
    assert!(params.shards.is_power_of_two() && params.shards >= 1);
    let base = &params.base;
    let cpus_per_shard = shard_cpus(base);
    let mut world = World::new(base, params.shards * cpus_per_shard);

    // Names into the directory first: every TMF needs it at install time.
    let shard_names = || (0..params.shards).map(Names::Shard);
    let mut directory = ShardDirectory::new(shard_names().map(Names::tmf).collect());
    for names in shard_names() {
        for i in 0..adp_count(base) {
            directory.register(names.adp(i), names.shard());
        }
        for c in 0..base.cpus {
            directory.register(names.dp2(c), names.shard());
        }
    }
    let directory = Arc::new(directory);

    let shards = shard_names()
        .map(|names| {
            let cpu0 = names.shard() * cpus_per_shard;
            world.build_shard(store, base, names, cpu0, directory.clone())
        })
        .collect();

    ClusterNode {
        sim: world.sim,
        machine: world.machine,
        net: world.net,
        stats: world.stats,
        shards,
        directory,
        partition_map: world.partition_map,
        audit_volume_stats: world.audit_volume_stats,
        params,
    }
}
