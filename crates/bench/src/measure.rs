//! Micro-latency measurement rigs: closed-loop clients against one disk
//! volume or one PM volume, with the attachment-variant models used by
//! T1 and the ablations.

use bytes::Bytes;
use npmu::NpmuConfig;
use nsk::machine::{CpuId, Machine, MachineConfig, SharedMachine};
use pmclient::{MirrorPolicy, PmLib, PmReadTimeout, PmWriteTimeout};
use pmem::install_pm_system;
use pmm::msgs::CreateRegionAck;
use simcore::actor::Start;
use simcore::fault::{Fault, FaultPlan};
use simcore::time::SECS;
use simcore::{Actor, Ctx, DurableStore, Histogram, Msg, Shared, Sim, SimDuration, SimTime};
use simdisk::{DiskConfig, DiskVolume, DiskWrite, DiskWriteDone, SparseMedia};
use simnet::{
    EndpointId, FabricConfig, NetDelivery, Network, RdmaReadDone, RdmaWriteDone, FABRICS,
};

/// How the PM device is reached (T1 rows + ablations A2/A3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PmPathVariant {
    /// The paper's architecture: host-initiated RDMA straight to the NPMU.
    Direct,
    /// Ablation A2: every access brokered by the PMM process (the
    /// storage-adapter usage model §4.1 argues against): two extra message
    /// hops plus manager CPU per op.
    ViaManager,
    /// Ablation A3 / §3.2: PM behind a second-level block stack: driver
    /// stack overhead per op, block-granular read-modify-write for
    /// sub-block writes.
    StorageStack,
}

#[derive(Clone)]
pub struct MeasureOpts {
    pub n: u32,
    pub size: u32,
    pub fabric: FabricConfig,
    pub device: NpmuConfig,
    pub policy: MirrorPolicy,
    pub variant: PmPathVariant,
    pub seed: u64,
    /// Take this fabric (0 = X, 1 = Y) down for the whole run.
    pub fabric_down: Option<u8>,
}

impl MeasureOpts {
    pub fn pm_default(n: u32, size: u32) -> Self {
        MeasureOpts {
            n,
            size,
            fabric: FabricConfig::default(),
            device: NpmuConfig::hardware(64 << 20),
            policy: MirrorPolicy::ParallelBoth,
            variant: PmPathVariant::Direct,
            seed: 7,
            fabric_down: None,
        }
    }
}

// ---------------------------------------------------------------------
// Disk rig
// ---------------------------------------------------------------------

struct DiskClient {
    disk: simcore::ActorId,
    n: u32,
    size: u32,
    sequential: bool,
    issued: u32,
    offset: u64,
    started_ns: u64,
    hist: Shared<Histogram>,
}

impl DiskClient {
    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        if self.issued >= self.n {
            return;
        }
        self.started_ns = ctx.now().as_nanos();
        let off = if self.sequential {
            self.offset
        } else {
            // Scatter widely to defeat the sequential detector.
            ctx.rng().below(1 << 34)
        };
        self.offset += self.size as u64;
        self.issued += 1;
        let me = ctx.self_id();
        ctx.send(
            self.disk,
            SimDuration::ZERO,
            DiskWrite {
                offset: off,
                data: Bytes::from(vec![0u8; 16]),
                advisory_len: self.size,
                tag: self.issued as u64,
                reply_to: me,
            },
        );
    }
}

impl Actor for DiskClient {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Start>() {
            self.issue(ctx);
            return;
        }
        if msg.take::<DiskWriteDone>().is_ok() {
            self.hist
                .lock()
                .record(ctx.now().as_nanos() - self.started_ns);
            self.issue(ctx);
        }
    }
}

/// Closed-loop durable-write latency against one disk volume.
pub fn measure_disk_write(cfg: DiskConfig, size: u32, n: u32, sequential: bool) -> Histogram {
    let mut sim = Sim::with_seed(11);
    let media = Shared::new(SparseMedia::new());
    let vol = DiskVolume::new("$BENCH", cfg, media);
    let disk = sim.spawn(vol);
    let hist = Shared::new(Histogram::new());
    sim.spawn(DiskClient {
        disk,
        n,
        size,
        sequential,
        issued: 0,
        offset: 0,
        started_ns: 0,
        hist: hist.clone(),
    });
    sim.run_until(SimTime(3600 * SECS));
    let h = hist.lock().clone();
    h
}

// ---------------------------------------------------------------------
// PM rig
// ---------------------------------------------------------------------

/// Relay actor standing in for PMM-brokered access (A2): charges manager
/// CPU and bounces the token back.
struct Broker {
    machine: SharedMachine,
    cpu: CpuId,
    ep: EndpointId,
}

struct BrokerReq {
    token: u64,
}
struct BrokerAck {
    #[allow(dead_code)]
    token: u64,
}

impl Actor for Broker {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Start>() {
            return;
        }
        if let Ok((_, d)) = msg.take::<NetDelivery>() {
            if let Ok(req) = d.payload.downcast::<BrokerReq>() {
                let now = ctx.now().as_nanos();
                self.machine.lock().cpu_work(self.cpu, now, 30_000);
                let net = self.machine.lock().net.clone();
                simnet::send_net_msg(
                    ctx,
                    &net,
                    self.ep,
                    d.from_ep,
                    32,
                    BrokerAck { token: req.token },
                );
            }
        }
    }
}

struct PmClientRig {
    lib: PmLib,
    machine: SharedMachine,
    ep: EndpointId,
    cpu: CpuId,
    opts: MeasureOpts,
    region: Option<u64>,
    issued: u32,
    started_ns: u64,
    hist: Shared<Histogram>,
    /// Per-fabric byte counters as the first measured write is issued.
    bytes_before: Shared<[u64; FABRICS]>,
    /// StorageStack: a pending sub-block write waiting on its RMW read.
    rmw_pending: bool,
}

struct StackDelayDone;

impl PmClientRig {
    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        if self.issued >= self.opts.n {
            return;
        }
        self.started_ns = ctx.now().as_nanos();
        match self.opts.variant {
            PmPathVariant::Direct => self.fire_write(ctx),
            PmPathVariant::ViaManager => {
                let token = self.issued as u64;
                let machine = self.machine.clone();
                nsk::proc::send_to_process(
                    ctx,
                    &machine,
                    self.ep,
                    self.cpu,
                    "$BROKER",
                    32,
                    BrokerReq { token },
                );
            }
            PmPathVariant::StorageStack => {
                // Driver/block-stack overhead before the op reaches the
                // interconnect (§3.2: "100s of microseconds").
                ctx.send_self(SimDuration::from_micros(220), StackDelayDone);
            }
        }
    }

    fn fire_write(&mut self, ctx: &mut Ctx<'_>) {
        let region = self.region.expect("region open");
        let off = (self.issued as u64 * self.opts.size.max(4096) as u64) % (32 << 20);
        self.issued += 1;
        self.lib.write_sized(
            ctx,
            region,
            off,
            Bytes::from(vec![0u8; 16]),
            self.opts.size,
            self.issued as u64,
        );
    }

    fn fire_rmw_read(&mut self, ctx: &mut Ctx<'_>) {
        let region = self.region.expect("region open");
        let off = (self.issued as u64 * 4096) % (32 << 20);
        self.rmw_pending = true;
        self.lib.read(ctx, region, off, 4096, 999_999);
    }
}

impl Actor for PmClientRig {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Start>() {
            self.lib.create_region(ctx, "bench", 48 << 20, true, 0);
            return;
        }
        if msg.is::<StackDelayDone>() {
            // Block stacks write whole blocks: a sub-block write first
            // reads the containing block (read-modify-write).
            if self.opts.size < 4096 {
                self.fire_rmw_read(ctx);
            } else {
                self.fire_write(ctx);
            }
            return;
        }
        let msg = match msg.take::<RdmaWriteDone>() {
            Ok((_, done)) => {
                if self.lib.on_rdma_write_done(ctx, &done).is_some() {
                    self.hist
                        .lock()
                        .record(ctx.now().as_nanos() - self.started_ns);
                    self.issue(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<PmWriteTimeout>() {
            Ok((_, t)) => {
                if self.lib.on_write_timeout(ctx, &t).is_some() {
                    self.hist
                        .lock()
                        .record(ctx.now().as_nanos() - self.started_ns);
                    self.issue(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<PmReadTimeout>() {
            Ok((_, t)) => {
                let _ = self.lib.on_read_timeout(ctx, &t);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<RdmaReadDone>() {
            Ok((_, done)) => {
                if self.lib.on_rdma_read_done(ctx, done).is_some() && self.rmw_pending {
                    self.rmw_pending = false;
                    // Now write the (whole) modified block.
                    let region = self.region.expect("region open");
                    let off = (self.issued as u64 * 4096) % (32 << 20);
                    self.issued += 1;
                    self.lib.write_sized(
                        ctx,
                        region,
                        off,
                        Bytes::from(vec![0u8; 16]),
                        4096,
                        self.issued as u64,
                    );
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok((_, d)) = msg.take::<NetDelivery>() {
            let payload = match d.payload.downcast::<CreateRegionAck>() {
                Ok(ack) => {
                    if let Ok(info) = ack.result {
                        self.region = Some(info.region_id);
                        self.lib.adopt(info);
                        *self.bytes_before.lock() =
                            self.machine.lock().net.lock().stats.fabric_bytes;
                        self.issue(ctx);
                    }
                    return;
                }
                Err(p) => p,
            };
            if payload.downcast::<BrokerAck>().is_ok() {
                self.fire_write(ctx);
            }
        }
    }
}

/// Closed-loop persistent-write latency through the PM access path.
pub fn measure_pm_write(opts: MeasureOpts) -> Histogram {
    measure_pm_write_fabrics(opts).0
}

/// As [`measure_pm_write`], also returning the bytes each fabric
/// (`[X, Y]`) carried for the measured writes, set-up traffic excluded.
pub fn measure_pm_write_fabrics(opts: MeasureOpts) -> (Histogram, [u64; FABRICS]) {
    let mut sim = Sim::with_seed(opts.seed);
    let mut store = DurableStore::new();
    let net = Network::new(opts.fabric.clone());
    if let Some(fabric) = opts.fabric_down {
        net.lock().fault_plan = FaultPlan::none().with(Fault::FabricDown {
            fabric,
            from: SimTime(0),
            to: SimTime(u64::MAX),
        });
    }
    let machine = Machine::new(
        MachineConfig {
            cpus: 4,
            ..MachineConfig::default()
        },
        net.clone(),
    );
    let sys = install_pm_system(
        &mut sim,
        &mut store,
        &machine,
        "bench",
        opts.device.clone(),
        CpuId(0),
        Some(CpuId(1)),
    );

    if opts.variant == PmPathVariant::ViaManager {
        let m2 = machine.clone();
        nsk::machine::install_primary(&mut sim, &machine, "$BROKER", CpuId(0), move |ep| {
            Box::new(Broker {
                machine: m2,
                cpu: CpuId(0),
                ep,
            })
        });
    }

    let hist = Shared::new(Histogram::new());
    let h2 = hist.clone();
    let bytes_before = Shared::new([0; FABRICS]);
    let b2 = bytes_before.clone();
    let m3 = machine.clone();
    let pmm_name = sys.pmm_name.clone();
    let opts2 = opts.clone();
    nsk::machine::install_primary(&mut sim, &machine, "$RIG", CpuId(2), move |ep| {
        Box::new(PmClientRig {
            lib: PmLib::new(m3.clone(), ep, CpuId(2), pmm_name).with_policy(opts2.policy),
            machine: m3,
            ep,
            cpu: CpuId(2),
            opts: opts2,
            region: None,
            issued: 0,
            started_ns: 0,
            hist: h2,
            bytes_before: b2,
            rmw_pending: false,
        })
    });

    sim.run_until(SimTime(3600 * SECS));
    let h = hist.lock().clone();
    assert_eq!(h.count(), opts.n as u64, "rig did not complete");
    let (before, after) = (*bytes_before.lock(), net.lock().stats.fabric_bytes);
    (h, [after[0] - before[0], after[1] - before[1]])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_random_write_through_is_milliseconds() {
        let h = measure_disk_write(DiskConfig::audit_volume(), 4096, 50, false);
        assert_eq!(h.count(), 50);
        assert!(h.mean() > 2_000_000.0, "mean {}", h.mean());
    }

    #[test]
    fn pm_direct_is_tens_of_microseconds() {
        let h = measure_pm_write(MeasureOpts::pm_default(50, 4096));
        assert!(
            (10_000.0..120_000.0).contains(&h.mean()),
            "mean {}",
            h.mean()
        );
    }

    #[test]
    fn attachment_ordering_matches_paper() {
        // direct < via-manager < storage-stack < disk.
        let direct = measure_pm_write(MeasureOpts::pm_default(40, 4096)).mean();
        let broker = measure_pm_write(MeasureOpts {
            variant: PmPathVariant::ViaManager,
            ..MeasureOpts::pm_default(40, 4096)
        })
        .mean();
        let stack = measure_pm_write(MeasureOpts {
            variant: PmPathVariant::StorageStack,
            ..MeasureOpts::pm_default(40, 4096)
        })
        .mean();
        let disk = measure_disk_write(DiskConfig::audit_volume(), 4096, 40, false).mean();
        assert!(direct < broker, "direct {direct} !< broker {broker}");
        assert!(broker < stack, "broker {broker} !< stack {stack}");
        assert!(stack < disk, "stack {stack} !< disk {disk}");
    }

    #[test]
    fn sub_block_write_pays_rmw_on_storage_stack() {
        let small = measure_pm_write(MeasureOpts {
            variant: PmPathVariant::StorageStack,
            ..MeasureOpts::pm_default(30, 64)
        })
        .mean();
        let direct_small = measure_pm_write(MeasureOpts::pm_default(30, 64)).mean();
        // Byte-grained direct access dodges the read-modify-write.
        assert!(small > 2.0 * direct_small, "{small} vs {direct_small}");
    }
}
