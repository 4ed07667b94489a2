//! Scenario construction through the crates' public builders, flattened
//! into one shape for the harness, and the counter probe that reads every
//! public stats handle from outside.

use crate::driver::{install_drivers, ShardTarget, SharedRunLog};
use crate::plan::{Plan, Scenario, Spec};
use crate::reader::{install_tail_reader, SharedReads};
use npmu::NpmuHandle;
use nsk::machine::{CpuId, SharedMachine};
use pmm::PmmHandle;
use simcore::fault::{Fault, FaultPlan};
use simcore::{DurableStore, Sim, SimTime};
use simdisk::SharedDiskStats;
use simnet::{QosConfig, SharedNetwork, TrafficClass};
use std::sync::Arc;
use std::time::Instant;
use txnkit::scenario::{build_cluster, build_ods, AuditMode, ClusterNode, OdsParams};
use txnkit::SharedTxnStats;

/// Where one audit trail lives in the durable store.
#[derive(Clone, Debug)]
pub enum TrailLoc {
    /// A circular PM region on the `a` half of a mirrored pair.
    Pm { device_key: String, region: String },
    /// A disk audit volume's media image.
    Disk { media_key: String },
}

/// One shard's audit trails: ADP process names and, index for index,
/// where each one's trail is. All the oracle needs once the rig is gone.
#[derive(Clone, Debug)]
pub struct ShardTrails {
    pub adps: Vec<String>,
    pub locs: Vec<TrailLoc>,
}

pub struct ShardRig {
    pub tmf: String,
    pub cpu_base: u32,
    pub trails: ShardTrails,
    pub pool: Vec<(NpmuHandle, NpmuHandle)>,
    pub pmm: Option<PmmHandle>,
}

pub struct Rig {
    pub sim: Sim,
    pub machine: SharedMachine,
    pub net: SharedNetwork,
    pub stats: SharedTxnStats,
    pub shards: Vec<ShardRig>,
    pub audit_disks: Vec<SharedDiskStats>,
    pub worker_cpus: u32,
    pub total_cpus: u32,
    pub log: SharedRunLog,
    pub reads: Option<SharedReads>,
    /// Host ns spent constructing the scenario and installing the load.
    pub build_host_ns: u64,
    pub install_host_ns: u64,
}

fn single_node_params(spec: &Spec, plan: &Plan, seed: u64) -> OdsParams {
    let mut p = match spec.scenario {
        Scenario::DiskNode => pmem::s86000_baseline(seed),
        _ => pmem::s86000_pm_hardware(seed),
    };
    if spec.scenario == Scenario::PmNodeRepair {
        p.qos = QosConfig::drr(0.9);
        // One audit partition. The PMM re-runs its verify pass over the
        // whole allocated range until one sees no racing write, so the pass
        // count is a chaotic function of the seed; with the preset's four
        // 8 MiB trails each pass digests 2 x 32 MiB on the host and the
        // passes alone moved host time by +-40% between seeds. One trail
        // keeps the same layers contending and the host time steady.
        p.audit_partitions = 1;
        p.fault_plan = plan
            .outages
            .iter()
            .fold(FaultPlan::none(), |fp, &(half, from, to)| {
                fp.with(Fault::NpmuDown {
                    volume_half: half,
                    from: SimTime(from),
                    to: SimTime(to),
                })
            });
    }
    p
}

/// Build the workload's system around `store`, install the drivers (and
/// the tail reader), and return it unbooted at simulated time 0.
pub fn build(
    store: &mut DurableStore,
    spec: &Spec,
    plan: &Arc<Plan>,
    seed: u64,
    trace: bool,
) -> Rig {
    /// What either builder yields, in one shape.
    struct Built {
        sim: Sim,
        machine: SharedMachine,
        net: SharedNetwork,
        stats: SharedTxnStats,
        shards: Vec<ShardRig>,
        audit_disks: Vec<SharedDiskStats>,
        dp2_of: std::collections::HashMap<txnkit::PartitionId, String>,
        base: OdsParams,
    }
    let t_build = Instant::now();
    let built = match spec.scenario {
        Scenario::Cluster => {
            let node = build_cluster(store, pmem::s86000_cluster(seed, spec.shards()));
            let view = node.view();
            let shards = node
                .shards
                .into_iter()
                .enumerate()
                .map(|(s, h)| ShardRig {
                    tmf: h.tmf,
                    cpu_base: view.shard_cpu_base[s],
                    trails: ShardTrails {
                        locs: (0..h.adps.len())
                            .map(|i| TrailLoc::Pm {
                                device_key: ClusterNode::npmu_store_key(s as u32, 0, 'a'),
                                region: format!("adp{i}.audit"),
                            })
                            .collect(),
                        adps: h.adps,
                    },
                    pool: h.pm_pool,
                    pmm: h.pmm,
                })
                .collect();
            Built {
                sim: node.sim,
                machine: node.machine,
                net: node.net,
                stats: node.stats,
                shards,
                audit_disks: node.audit_volume_stats,
                dp2_of: node.partition_map,
                base: node.params.base,
            }
        }
        _ => {
            let node = build_ods(store, single_node_params(spec, plan, seed));
            let locs = (0..node.adps.len())
                .map(|i| match node.params.audit {
                    AuditMode::Disk => TrailLoc::Disk {
                        media_key: format!("disk:$AUDIT{i}"),
                    },
                    _ => TrailLoc::Pm {
                        device_key: "npmu:pm-a".into(),
                        region: format!("adp{i}.audit"),
                    },
                })
                .collect();
            let shard = ShardRig {
                tmf: node.tmf,
                cpu_base: 0,
                trails: ShardTrails {
                    adps: node.adps,
                    locs,
                },
                pool: node.pm_pool,
                pmm: node.pmm,
            };
            Built {
                sim: node.sim,
                machine: node.machine,
                net: node.net,
                stats: node.stats,
                shards: vec![shard],
                audit_disks: node.audit_volume_stats,
                dp2_of: node.partition_map,
                base: node.params,
            }
        }
    };
    let Built {
        mut sim,
        machine,
        net,
        stats,
        shards,
        audit_disks,
        dp2_of,
        base,
    } = built;
    let build_host_ns = t_build.elapsed().as_nanos() as u64;
    let t_install = Instant::now();
    assert_eq!(
        (base.files, base.parts_per_file),
        (crate::plan::FILES, crate::plan::PARTS_PER_FILE),
        "the plan's partition layout no longer matches the presets"
    );
    let targets: Vec<ShardTarget> = shards
        .iter()
        .map(|s| ShardTarget {
            tmf: s.tmf.clone(),
            cpu_base: s.cpu_base,
            worker_cpus: base.cpus,
        })
        .collect();
    let log = install_drivers(&mut sim, &machine, spec, plan, &targets, dp2_of, trace);
    let reads = (spec.scenario == Scenario::PmNodeRepair).then(|| {
        // On the PM manager's CPU, where the shipper would run.
        let pmm = shards[0].pmm.as_ref().expect("PM scenario has a PMM");
        install_tail_reader(
            &mut sim,
            &machine,
            &pmm.name,
            "adp0.audit",
            CpuId(base.cpus),
            plan.deadline_ns.expect("repair runs for a fixed span"),
        )
    });
    let total_cpus = machine.lock().cfg.cpus;
    Rig {
        sim,
        machine,
        net,
        stats,
        shards,
        audit_disks,
        worker_cpus: base.cpus,
        total_cpus,
        log,
        reads,
        build_host_ns,
        install_host_ns: t_install.elapsed().as_nanos() as u64,
    }
}

impl Rig {
    /// Worker CPU ids (the ones that host TMF, ADPs, DP2s and drivers).
    pub fn worker_cpu_ids(&self) -> Vec<u32> {
        self.shards
            .iter()
            .flat_map(|s| s.cpu_base..s.cpu_base + self.worker_cpus)
            .collect()
    }

    /// Read every public counter, as `(key, value)` in a fixed order. Taken
    /// at slice boundaries; metrics are differences between two probes.
    pub fn probe(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = Vec::with_capacity(96);
        let mut put = |k: &str, v: u64| out.push((k.to_string(), v));
        put("sim.now_ns", self.sim.now().as_nanos());
        put("sim.events", self.sim.dispatched());
        {
            let log = self.log.lock();
            put("drv.started", log.started);
            put("drv.settled", log.txns.len() as u64);
        }
        {
            let t = self.stats.lock();
            put("txn.committed", t.txns_committed);
            put("txn.aborted", t.txns_aborted);
            put("txn.inserts", t.inserts);
            put("txn.deadlocks", t.deadlocks);
            put("txn.lock_timeouts", t.lock_timeouts);
            put("txn.dbw_checkpoints", t.dbw_checkpoints);
            put("txn.adp_checkpoints", t.adp_checkpoints);
            put("txn.tmf_checkpoints", t.tmf_checkpoints);
            put("txn.audit_deltas", t.audit_deltas);
            put("txn.data_volume_writes", t.data_volume_writes);
            put("txn.audit_volume_writes", t.audit_volume_writes);
            put("txn.pm_writes", t.pm_writes);
            put("txn.pm_ctrl_writes", t.pm_ctrl_writes);
            put("txn.pm_batches", t.pm_batches);
            put("txn.cross_shard_commits", t.cross_shard_commits);
            put("txn.twopc_prepares", t.twopc_prepares);
            put("txn.flush_count", t.flush_latency.count());
            put(
                "txn.flush_sum_ns",
                (t.flush_latency.mean() * t.flush_latency.count() as f64).round() as u64,
            );
        }
        {
            let net = self.net.lock();
            let n = net.stats;
            put("net.msgs", n.msgs);
            put("net.msg_bytes", n.msg_bytes);
            put("net.rdma_writes", n.rdma_writes);
            put("net.rdma_write_bytes", n.rdma_write_bytes);
            put("net.rdma_reads", n.rdma_reads);
            put("net.rdma_read_bytes", n.rdma_read_bytes);
            put("net.rdma_flushes", n.rdma_flushes);
            put("net.rdma_appends", n.rdma_appends);
            put("net.rdma_append_bytes", n.rdma_append_bytes);
            put("net.retransmits", n.retransmits);
            put("net.unreachable", n.unreachable);
            let totals = net.class_totals();
            for class in TrafficClass::ALL {
                let c = totals[class.idx()];
                let l = class.label();
                put(&format!("net.{l}.ops"), c.ops);
                put(&format!("net.{l}.bytes"), c.bytes);
                put(&format!("net.{l}.max_wait_ns"), c.max_wait_ns);
                put(&format!("net.{l}.peak_depth"), c.peak_depth);
            }
        }
        {
            let m = self.machine.lock();
            for cpu in 0..self.total_cpus {
                put(&format!("cpu.{cpu}.work_ns"), m.cpu_work_total(CpuId(cpu)));
            }
        }
        let mut dev = npmu::NpmuStats::default();
        let mut trail_bytes = 0;
        for (a, b) in self.shards.iter().flat_map(|s| s.pool.iter()) {
            trail_bytes += a.stats.lock().bytes_written;
            for h in [a, b] {
                let s = h.stats.lock();
                dev.writes += s.writes;
                dev.reads += s.reads;
                dev.flushes += s.flushes;
                dev.bytes_written += s.bytes_written;
                dev.bytes_read += s.bytes_read;
                dev.failed_ops += s.failed_ops;
                dev.ingress_lost_bytes += s.ingress_lost_bytes;
            }
        }
        put("npmu.writes", dev.writes);
        put("npmu.reads", dev.reads);
        put("npmu.flushes", dev.flushes);
        put("npmu.bytes_written", dev.bytes_written);
        put("npmu.bytes_read", dev.bytes_read);
        put("npmu.failed_ops", dev.failed_ops);
        put("npmu.ingress_lost_bytes", dev.ingress_lost_bytes);
        put("npmu.half_a_bytes_written", trail_bytes);
        let mut pm = pmm::PmmStats::default();
        for h in self.shards.iter().filter_map(|s| s.pmm.as_ref()) {
            let p = *h.stats.lock();
            pm.degraded_events += p.degraded_events;
            pm.failure_reports += p.failure_reports;
            pm.resilver_bytes_copied += p.resilver_bytes_copied;
            pm.resilver_extra_passes += p.resilver_extra_passes;
            pm.resilvers_started += p.resilvers_started;
            pm.resilvers_completed += p.resilvers_completed;
            pm.bulk_throttle_waits += p.bulk_throttle_waits;
        }
        put("pmm.degraded_events", pm.degraded_events);
        put("pmm.failure_reports", pm.failure_reports);
        put("pmm.resilver_bytes_copied", pm.resilver_bytes_copied);
        put("pmm.resilver_extra_passes", pm.resilver_extra_passes);
        put("pmm.resilvers_started", pm.resilvers_started);
        put("pmm.resilvers_completed", pm.resilvers_completed);
        put("pmm.bulk_throttle_waits", pm.bulk_throttle_waits);
        let (mut w, mut bytes, mut seq, mut rnd) = (0, 0, 0, 0);
        for d in &self.audit_disks {
            let d = d.lock();
            w += d.writes;
            bytes += d.bytes_written;
            seq += d.sequential_ios;
            rnd += d.random_ios;
        }
        put("disk.audit.writes", w);
        put("disk.audit.bytes_written", bytes);
        put("disk.audit.sequential_ios", seq);
        put("disk.audit.random_ios", rnd);
        out
    }
}
