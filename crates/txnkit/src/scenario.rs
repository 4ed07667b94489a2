//! Scenario builder: wires a complete simulated ODS node — machine, fabric,
//! disks, NPMUs, PMM, TMF, ADPs, DP2s — in either the disk-audit baseline
//! or the PM-enabled configuration of §4.2/§4.3.
//!
//! The default topology mirrors the paper's benchmark system: a 4-CPU
//! S86000 (plus a 5th CPU hosting the PMP in PM mode), one ADP per CPU
//! with one auxiliary audit volume each, four database files each
//! partitioned four ways across the CPUs' DP2s, and 16 data volumes.

use crate::adp::{install_adp, AuditBackend};
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
use simcore::{ActorId, DurableStore, Sim, SimConfig};
use simdisk::{DiskConfig, DiskVolume, SharedDiskStats, SparseMedia};
use simnet::{FabricConfig, Network, SharedNetwork};
use std::collections::HashMap;

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
    /// (`None` keeps the device default). The crash-point fuzzer widens
    /// this so the ack-vs-persist window spans many event boundaries.
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

/// Resolved audit-partition count for PM modes (0 ⇒ one per CPU).
fn effective_audit_partitions(params: &OdsParams) -> u32 {
    if params.audit_partitions == 0 {
        params.cpus
    } else {
        params.audit_partitions
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
    /// Member 0's NPMU pair (PM modes only) — the pre-pool field.
    pub npmus: Option<(NpmuHandle, NpmuHandle)>,
    /// Every pool member's NPMU pair, in pool order (empty in disk mode).
    pub pm_pool: Vec<(NpmuHandle, NpmuHandle)>,
    /// PMM handle (PM modes only): mirror-health stats for fault tests.
    pub pmm: Option<PmmHandle>,
    pub params: OdsParams,
}

/// Build the node into a fresh simulation around `store` (the durable
/// world that persists across power loss).
pub fn build_ods(store: &mut DurableStore, params: OdsParams) -> OdsNode {
    let mut sim = Sim::new(SimConfig {
        seed: params.seed,
        ..SimConfig::default()
    });
    let net = Network::with_qos(params.fabric.clone(), params.qos);
    // PM modes host the PM devices' manager on an extra CPU, like the
    // paper's 5th-CPU PMP.
    let total_cpus = match params.audit {
        AuditMode::Disk => params.cpus,
        _ => params.cpus + 1,
    } + params.extra_cpus;
    let machine = Machine::new(
        MachineConfig {
            cpus: total_cpus,
            ..MachineConfig::default()
        },
        net.clone(),
    );
    let stats = stats::shared();

    // Arm the fault plan before anything spawns: devices and fabrics
    // consult it per-op, and timed kills are scheduled deterministically.
    Monitor::install(&mut sim, &machine, params.fault_plan.clone());

    // --- PM devices + PMM (PM modes only) ---
    let (pm_pool, pmm) = match params.audit {
        AuditMode::Disk => (Vec::new(), None),
        mode => {
            let drain = params.pm_ingress_drain_ns;
            let kind_cfg = |cap| {
                let c = match mode {
                    AuditMode::Pmp => NpmuConfig::pmp(cap),
                    _ => NpmuConfig::hardware(cap),
                };
                match drain {
                    Some(ns) => c.with_ingress_drain_ns(ns),
                    None => c,
                }
            };
            let trail_regions = params.cpus.max(effective_audit_partitions(&params));
            let cap =
                (params.pm_region_len + pmm::META_BYTES) * (trail_regions as u64 + 2) + (64 << 20);
            let mut pool = Vec::new();
            for v in 0..params.pm_volumes.max(1) {
                // Member 0 keeps the pre-pool "pm-{a,b}" names so durable
                // device images survive a change in pool size.
                let (an, bn) = if v == 0 {
                    ("pm-a".to_string(), "pm-b".to_string())
                } else {
                    (format!("pm{v}-a"), format!("pm{v}-b"))
                };
                let dev = kind_cfg(cap).with_volume(v);
                let a = Npmu::install(&mut sim, store, &net, Some(&machine), &an, dev.clone());
                let b = Npmu::install(&mut sim, store, &net, Some(&machine), &bn, dev);
                pool.push((a, b));
            }
            let pm_cpu = CpuId(params.cpus); // the extra CPU
            let pmm = install_pmm_pool(
                &mut sim,
                &machine,
                "$PMM",
                &pool,
                pm_cpu,
                if params.backups { Some(CpuId(0)) } else { None },
                params.pmm.clone(),
            );
            (pool, Some(pmm))
        }
    };

    // --- audit trail processes ---
    //
    // Disk mode keeps the paper's one-ADP-per-CPU topology; PM modes
    // install `audit_partitions` independent ADP pairs, each owning its
    // own PM trail region (partitions default to one per CPU).
    let n_adps = match params.audit {
        AuditMode::Disk => params.cpus,
        _ => effective_audit_partitions(&params),
    };
    let mut adps = Vec::new();
    let mut audit_volume_stats = Vec::new();
    for i in 0..n_adps {
        let name = format!("$ADP{i}");
        let backend = match params.audit {
            AuditMode::Disk => {
                let media = store.get_or_insert_with(&format!("disk:$AUDIT{i}"), SparseMedia::new);
                let vol = DiskVolume::new(format!("$AUDIT{i}"), params.audit_disk.clone(), media);
                audit_volume_stats.push(vol.stats());
                let vol_actor = sim.spawn(vol);
                AuditBackend::Disk { volume: vol_actor }
            }
            _ => AuditBackend::Pm {
                pmm: "$PMM".into(),
                region: format!("adp{i}.audit"),
                region_len: params.pm_region_len,
            },
        };
        install_adp(
            &mut sim,
            &machine,
            &name,
            CpuId(i % params.cpus),
            if params.backups {
                Some(CpuId((i + 1) % params.cpus))
            } else {
                None
            },
            backend,
            params.txn.clone(),
            stats.clone(),
        );
        adps.push(name);
    }

    // --- data volumes + DP2s, one DP2 per CPU owning one partition of
    //     every file ---
    let mut partition_map = HashMap::new();
    let mut dp2s = Vec::new();
    let mut data_volume_stats = Vec::new();
    for cpu in 0..params.cpus {
        let name = format!("$DP2-{cpu}");
        let mut vols = Vec::new();
        for v in 0..params.data_volumes_per_dp2 {
            let media = store.get_or_insert_with(&format!("disk:$DATA{cpu}-{v}"), SparseMedia::new);
            let vol = DiskVolume::new(format!("$DATA{cpu}-{v}"), params.data_disk.clone(), media);
            data_volume_stats.push(vol.stats());
            vols.push(sim.spawn(vol));
        }
        let mut parts = Vec::new();
        for file in 0..params.files {
            let part = PartitionId { file, part: cpu };
            if cpu < params.parts_per_file {
                parts.push(part);
                partition_map.insert(part, name.clone());
            }
        }
        // Disk mode keeps the classic CPU-affine trail (each DP2 logs to
        // its own CPU's ADP); PM modes route every audit site by
        // transaction hash across all partitions.
        let dp2_adps = match params.audit {
            AuditMode::Disk => vec![format!("$ADP{cpu}")],
            _ => adps.clone(),
        };
        install_dp2(
            &mut sim,
            &machine,
            &name,
            CpuId(cpu),
            if params.backups {
                Some(CpuId((cpu + 1) % params.cpus))
            } else {
                None
            },
            parts,
            dp2_adps,
            vols,
            params.txn.clone(),
            stats.clone(),
        );
        dp2s.push(name);
    }

    // --- TMF, master trail routed by txn hash across partitions (disk
    //     mode keeps the single ADP0 master trail) ---
    let master_adps = match params.audit {
        AuditMode::Disk => vec!["$ADP0".to_string()],
        _ => adps.clone(),
    };
    install_tmf(
        &mut sim,
        &machine,
        "$TMF",
        CpuId(0),
        if params.backups { Some(CpuId(1)) } else { None },
        master_adps,
        0,
        None,
        params.txn.clone(),
        stats.clone(),
    );

    OdsNode {
        sim,
        machine,
        net,
        stats,
        tmf: "$TMF".into(),
        adps,
        partition_map,
        dp2s,
        audit_volume_stats,
        data_volume_stats,
        pmm,
        npmus: pm_pool.first().cloned(),
        pm_pool,
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

    // --- DR site: standby NPMU pair + its own PMM namespace ---
    let trail_regions = node
        .params
        .cpus
        .max(effective_audit_partitions(&node.params));
    let cap =
        (node.params.pm_region_len + pmm::META_BYTES) * (trail_regions as u64 + 2) + (64 << 20);
    let dev = match node.params.audit {
        AuditMode::Pmp => NpmuConfig::pmp(cap),
        _ => NpmuConfig::hardware(cap),
    };
    let a = Npmu::install(
        &mut node.sim,
        store,
        &node.net,
        Some(&node.machine),
        "drpm-a",
        dev.clone(),
    );
    let b = Npmu::install(
        &mut node.sim,
        store,
        &node.net,
        Some(&node.machine),
        "drpm-b",
        dev,
    );
    let dr_pool = vec![(a, b)];
    let dr_pmm = install_pmm_pool(
        &mut node.sim,
        &node.machine,
        "$PMM-dr",
        &dr_pool,
        CpuId(cpus + 1),
        None,
        node.params.pmm.clone(),
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
        {
            let defaults = crate::georep::ShipperConfig::default();
            crate::georep::ShipperConfig {
                eager_partitions: params.eager_partitions,
                lazy_interval: params.lazy_interval,
                // A batch is not lost until it has had a full ship round
                // trip to arrive: rewinding on a fixed short timer would
                // re-ship in-flight data on long-haul links. Keep the
                // floor for LAN-ish delays, scale with the WAN RTT.
                retry_interval: defaults
                    .retry_interval
                    .max(simcore::SimDuration::from_nanos(
                        4 * params.wan.one_way_delay.as_nanos(),
                    )),
                ..defaults
            }
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
    pub directory: std::sync::Arc<ShardDirectory>,
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

impl ClusterNode {
    pub fn view(&self) -> ClusterView {
        let base = &self.params.base;
        let pm_extra = match base.audit {
            AuditMode::Disk => 0,
            _ => 1,
        };
        ClusterView {
            shards: self.params.shards,
            tmfs: self.shards.iter().map(|s| s.tmf.clone()).collect(),
            partition_map: self.partition_map.clone(),
            files: base.files,
            parts_per_file: base.parts_per_file,
            shard_cpu_base: (0..self.params.shards)
                .map(|s| s * (base.cpus + pm_extra))
                .collect(),
            cpus_per_shard: base.cpus,
        }
    }

    /// Store key of a shard's member-`v` NPMU half (`'a'`/`'b'`), for
    /// offline trail reads in recovery tests.
    pub fn npmu_store_key(shard: u32, volume: u32, half: char) -> String {
        format!("npmu:pm-s{shard}m{volume}-{half}")
    }
}

impl OdsNode {
    /// Single-node view for the workload driver.
    pub fn view(&self) -> ClusterView {
        ClusterView {
            shards: 1,
            tmfs: vec![self.tmf.clone()],
            partition_map: self.partition_map.clone(),
            files: self.params.files,
            parts_per_file: self.params.parts_per_file,
            shard_cpu_base: vec![0],
            cpus_per_shard: self.params.cpus,
        }
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
    let mut sim = Sim::new(SimConfig {
        seed: base.seed,
        ..SimConfig::default()
    });
    let net = Network::with_qos(base.fabric.clone(), base.qos);
    let pm_extra = match base.audit {
        AuditMode::Disk => 0,
        _ => 1,
    };
    let cpus_per_shard = base.cpus + pm_extra;
    let machine = Machine::new(
        MachineConfig {
            cpus: params.shards * cpus_per_shard,
            ..MachineConfig::default()
        },
        net.clone(),
    );
    let stats = stats::shared();
    Monitor::install(&mut sim, &machine, base.fault_plan.clone());

    // Pass 1: names into the directory (TMFs need it at install time).
    let mut directory =
        ShardDirectory::new((0..params.shards).map(|s| format!("$TMF-s{s}")).collect());
    let n_adps = match base.audit {
        AuditMode::Disk => base.cpus,
        _ => effective_audit_partitions(base),
    };
    for s in 0..params.shards {
        for i in 0..n_adps {
            directory.register(format!("$ADP-s{s}p{i}"), s);
        }
        for c in 0..base.cpus {
            directory.register(format!("$DP2-s{s}c{c}"), s);
        }
    }
    let directory = std::sync::Arc::new(directory);

    let mut shards = Vec::new();
    let mut partition_map = HashMap::new();
    let mut audit_volume_stats = Vec::new();
    for s in 0..params.shards {
        let cpu0 = s * cpus_per_shard;
        let scpu = |c: u32| CpuId(cpu0 + c);

        // --- PM devices + per-shard PMM namespace ---
        let pmm_name = format!("$PMM-s{s}");
        let (pm_pool, pmm) = match base.audit {
            AuditMode::Disk => (Vec::new(), None),
            mode => {
                let kind_cfg = |cap| {
                    let c = match mode {
                        AuditMode::Pmp => NpmuConfig::pmp(cap),
                        _ => NpmuConfig::hardware(cap),
                    };
                    match base.pm_ingress_drain_ns {
                        Some(ns) => c.with_ingress_drain_ns(ns),
                        None => c,
                    }
                };
                let trail_regions = base.cpus.max(n_adps);
                let cap = (base.pm_region_len + pmm::META_BYTES) * (trail_regions as u64 + 2)
                    + (64 << 20);
                let mut pool = Vec::new();
                for v in 0..base.pm_volumes.max(1) {
                    let an = format!("pm-s{s}m{v}-a");
                    let bn = format!("pm-s{s}m{v}-b");
                    let dev = kind_cfg(cap).with_volume(s * base.pm_volumes.max(1) + v);
                    let a = Npmu::install(&mut sim, store, &net, Some(&machine), &an, dev.clone());
                    let b = Npmu::install(&mut sim, store, &net, Some(&machine), &bn, dev);
                    pool.push((a, b));
                }
                let pmm = install_pmm_pool(
                    &mut sim,
                    &machine,
                    &pmm_name,
                    &pool,
                    scpu(base.cpus),
                    if base.backups { Some(scpu(0)) } else { None },
                    base.pmm.clone(),
                );
                (pool, Some(pmm))
            }
        };

        // --- audit partitions ---
        let mut adps = Vec::new();
        for i in 0..n_adps {
            let name = format!("$ADP-s{s}p{i}");
            let backend = match base.audit {
                AuditMode::Disk => {
                    let media = store
                        .get_or_insert_with(&format!("disk:$AUDIT-s{s}i{i}"), SparseMedia::new);
                    let vol =
                        DiskVolume::new(format!("$AUDIT-s{s}i{i}"), base.audit_disk.clone(), media);
                    audit_volume_stats.push(vol.stats());
                    AuditBackend::Disk {
                        volume: sim.spawn(vol),
                    }
                }
                _ => AuditBackend::Pm {
                    pmm: pmm_name.clone(),
                    region: format!("adp{i}.audit"),
                    region_len: base.pm_region_len,
                },
            };
            install_adp(
                &mut sim,
                &machine,
                &name,
                scpu(i % base.cpus),
                if base.backups {
                    Some(scpu((i + 1) % base.cpus))
                } else {
                    None
                },
                backend,
                base.txn.clone(),
                stats.clone(),
            );
            adps.push(name);
        }

        // --- data volumes + DP2s ---
        let mut dp2s = Vec::new();
        for c in 0..base.cpus {
            let name = format!("$DP2-s{s}c{c}");
            let mut vols = Vec::new();
            for v in 0..base.data_volumes_per_dp2 {
                let media =
                    store.get_or_insert_with(&format!("disk:$DATA-s{s}c{c}-{v}"), SparseMedia::new);
                let vol =
                    DiskVolume::new(format!("$DATA-s{s}c{c}-{v}"), base.data_disk.clone(), media);
                vols.push(sim.spawn(vol));
            }
            let mut parts = Vec::new();
            for file in 0..base.files {
                // Files renumbered globally: shard s owns files
                // [s*files, (s+1)*files).
                let part = PartitionId {
                    file: s * base.files + file,
                    part: c,
                };
                if c < base.parts_per_file {
                    parts.push(part);
                    partition_map.insert(part, name.clone());
                }
            }
            let dp2_adps = match base.audit {
                AuditMode::Disk => vec![format!("$ADP-s{s}p{c}")],
                _ => adps.clone(),
            };
            install_dp2(
                &mut sim,
                &machine,
                &name,
                scpu(c),
                if base.backups {
                    Some(scpu((c + 1) % base.cpus))
                } else {
                    None
                },
                parts,
                dp2_adps,
                vols,
                base.txn.clone(),
                stats.clone(),
            );
            dp2s.push(name);
        }

        // --- shard TMF, wired into the cluster directory ---
        let tmf = format!("$TMF-s{s}");
        let master_adps = match base.audit {
            AuditMode::Disk => vec![adps[0].clone()],
            _ => adps.clone(),
        };
        install_tmf(
            &mut sim,
            &machine,
            &tmf,
            scpu(0),
            if base.backups {
                Some(scpu(1 % base.cpus))
            } else {
                None
            },
            master_adps,
            s,
            Some(directory.clone()),
            base.txn.clone(),
            stats.clone(),
        );

        shards.push(ShardHandle {
            tmf,
            adps,
            dp2s,
            pm_pool,
            pmm,
        });
    }

    ClusterNode {
        sim,
        machine,
        net,
        stats,
        shards,
        directory,
        partition_map,
        audit_volume_stats,
        params,
    }
}

/// Convenience for tests: route a partition to its DP2 name.
impl OdsNode {
    pub fn dp2_of(&self, partition: PartitionId) -> &str {
        self.partition_map
            .get(&partition)
            .map(|s| s.as_str())
            .expect("unmapped partition")
    }

    /// Audit-trail media images (disk mode), for recovery tests.
    pub fn audit_media(
        &self,
        store: &mut DurableStore,
        cpu: u32,
    ) -> Option<simcore::durable::Image<SparseMedia>> {
        store.get::<SparseMedia>(&format!("disk:$AUDIT{cpu}"))
    }

    /// All spawned volume actor ids are private; the harness reads media
    /// through the durable store instead.
    pub fn placeholder(&self) -> ActorId {
        ActorId(u32::MAX)
    }
}
