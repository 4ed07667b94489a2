//! Scale-out pool bandwidth rig: many pipelined writer clients against a
//! striped region on an N-member PM pool.
//!
//! The bottleneck under test is the *device*, not the clients: each NPMU
//! ingests one op per `target_nic_ns`, so a single mirrored pair caps the
//! aggregate small-write rate no matter how many clients push. Striping a
//! region across members multiplies that ceiling; this rig measures how
//! close to linear the multiplication is (ROADMAP scale-out item; the
//! paper's §5 "networks of persistent memory units").

use bytes::Bytes;
use npmu::NpmuConfig;
use nsk::machine::{CpuId, Machine, MachineConfig};
use pmclient::{PmLib, PmWriteTimeout};
use pmem::install_pm_pool;
use pmm::msgs::{CreateRegionAck, OpenRegionAck};
use pmm::PlacementHint;
use simcore::actor::Start;
use simcore::hash::FastMap;
use simcore::time::{MILLIS, SECS};
use simcore::{Actor, Ctx, DurableStore, Histogram, Msg, Shared, Sim, SimTime};
use simnet::{FabricConfig, NetDelivery, Network, RdmaWriteDone};

/// Stripe unit the rig assumes (the placement policy default).
const STRIPE_UNIT: u64 = 64 << 10;

#[derive(Clone)]
pub struct PoolBwOpts {
    /// Pool members (mirrored NPMU pairs).
    pub volumes: u32,
    /// Concurrent writer clients, each a process with its own endpoint.
    pub clients: u32,
    pub ops_per_client: u32,
    /// Outstanding writes per client (pipelining keeps the devices fed).
    pub depth: u32,
    /// Bytes per persistent write (small, audit-record-like actions).
    pub op_bytes: u32,
    /// Logical region length; crosses the stripe threshold so the region
    /// fans out over every member.
    pub region_len: u64,
    pub fabric: FabricConfig,
    pub seed: u64,
}

impl PoolBwOpts {
    pub fn defaults(volumes: u32) -> Self {
        PoolBwOpts {
            volumes,
            clients: 8,
            ops_per_client: 4_000,
            depth: 16,
            op_bytes: 64,
            region_len: 4 << 20,
            fabric: FabricConfig::default(),
            seed: 42,
        }
    }
}

#[derive(Default)]
struct SharedRun {
    first_issue_ns: u64,
    last_done_ns: u64,
    ops: u64,
    errors: u64,
    degraded: u64,
    hist: Histogram,
}

/// Outcome of one pool bandwidth run.
pub struct PoolBwResult {
    pub volumes: u32,
    pub clients: u32,
    pub ops: u64,
    pub errors: u64,
    pub degraded: u64,
    pub bytes: u64,
    pub elapsed_ns: u64,
    pub hist: Histogram,
}

impl PoolBwResult {
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 * 1e9 / self.elapsed_ns.max(1) as f64
    }

    pub fn mb_per_sec(&self) -> f64 {
        self.bytes as f64 * 1e9 / self.elapsed_ns.max(1) as f64 / 1e6
    }
}

struct PoolWriter {
    lib: PmLib,
    idx: u32,
    opts: PoolBwOpts,
    region: Option<u64>,
    total_stripes: u64,
    issued: u32,
    completed: u32,
    /// token → issue time (pipelined, so one start time per op).
    inflight: FastMap<u64, u64>,
    shared: Shared<SharedRun>,
}

impl PoolWriter {
    /// Writers pin themselves to member `idx % volumes` by only touching
    /// stripes that land there — even load, no cross-member skew.
    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        if self.issued >= self.opts.ops_per_client {
            return;
        }
        let region = self.region.expect("region adopted");
        let i = self.issued as u64;
        self.issued += 1;
        let member = (self.idx % self.opts.volumes) as u64;
        let stripe = (member + i * self.opts.volumes as u64) % self.total_stripes;
        let off = stripe * STRIPE_UNIT;
        self.inflight.insert(i, ctx.now().as_nanos());
        self.lib.write(
            ctx,
            region,
            off,
            Bytes::from(vec![0xA5u8; self.opts.op_bytes as usize]),
            i,
        );
    }

    fn adopt_and_go(&mut self, ctx: &mut Ctx<'_>, info: pmm::RegionInfo) {
        self.region = Some(info.region_id);
        self.lib.adopt(info);
        {
            let mut s = self.shared.lock();
            let now = ctx.now().as_nanos();
            if s.first_issue_ns == 0 || now < s.first_issue_ns {
                s.first_issue_ns = now;
            }
        }
        for _ in 0..self.opts.depth {
            self.issue(ctx);
        }
    }

    fn complete(&mut self, ctx: &mut Ctx<'_>, c: pmclient::PmWriteComplete) {
        let now = ctx.now().as_nanos();
        let start = self.inflight.remove(&c.token).unwrap_or(now);
        {
            let mut s = self.shared.lock();
            s.hist.record(now - start);
            s.ops += 1;
            if c.status != simnet::RdmaStatus::Ok {
                s.errors += 1;
            }
            if c.degraded {
                s.degraded += 1;
            }
            if now > s.last_done_ns {
                s.last_done_ns = now;
            }
        }
        self.completed += 1;
        self.issue(ctx);
    }
}

impl Actor for PoolWriter {
    fn name(&self) -> &str {
        "pool-writer"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Start>() {
            // `open_if_exists` makes the create a barrier-free rendezvous:
            // the first client places the striped region, the rest open it.
            self.lib.create_region_placed(
                ctx,
                "poolbw",
                self.opts.region_len,
                true,
                PlacementHint::Striped { unit: STRIPE_UNIT },
                self.idx as u64,
            );
            return;
        }
        let msg = match msg.take::<RdmaWriteDone>() {
            Ok((_, done)) => {
                if let Some(c) = self.lib.on_rdma_write_done(ctx, &done) {
                    self.complete(ctx, c);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<PmWriteTimeout>() {
            Ok((_, t)) => {
                if let Some(c) = self.lib.on_write_timeout(ctx, &t) {
                    self.complete(ctx, c);
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok((_, d)) = msg.take::<NetDelivery>() {
            let payload = match d.payload.downcast::<CreateRegionAck>() {
                Ok(ack) => {
                    self.adopt_and_go(ctx, ack.result.expect("create striped region"));
                    return;
                }
                Err(p) => p,
            };
            if let Ok(ack) = payload.downcast::<OpenRegionAck>() {
                self.adopt_and_go(ctx, ack.result.expect("open striped region"));
            }
        }
    }
}

/// Run the pool write-bandwidth workload and report aggregate throughput.
pub fn measure_pool_write_bw(opts: PoolBwOpts) -> PoolBwResult {
    let mut sim = Sim::with_seed(opts.seed);
    let mut store = DurableStore::new();
    let net = Network::new(opts.fabric.clone());
    let machine = Machine::new(
        MachineConfig {
            cpus: opts.clients + 2,
            ..MachineConfig::default()
        },
        net,
    );
    // Every member holds its stripe share plus metadata; one size fits
    // every pool width tested.
    let cap = opts.region_len + (1 << 20);
    let pool = install_pm_pool(
        &mut sim,
        &mut store,
        &machine,
        "poolbw",
        NpmuConfig::hardware(cap),
        opts.volumes,
        CpuId(opts.clients),
        Some(CpuId(opts.clients + 1)),
    );

    let shared = Shared::new(SharedRun::default());
    for idx in 0..opts.clients {
        let m = machine.clone();
        let pmm_name = pool.pmm_name.clone();
        let o = opts.clone();
        let sh = shared.clone();
        let total_stripes = (opts.region_len / STRIPE_UNIT).max(1);
        nsk::machine::install_primary(
            &mut sim,
            &machine,
            &format!("$W{idx}"),
            CpuId(idx),
            move |ep| {
                Box::new(PoolWriter {
                    lib: PmLib::new(m.clone(), ep, CpuId(idx), pmm_name.clone()),
                    idx,
                    opts: o.clone(),
                    region: None,
                    total_stripes,
                    issued: 0,
                    completed: 0,
                    inflight: FastMap::default(),
                    shared: sh.clone(),
                })
            },
        );
    }

    let total = opts.clients as u64 * opts.ops_per_client as u64;
    let ceiling = SimTime(120 * SECS);
    loop {
        if shared.lock().ops >= total {
            break;
        }
        let now = sim.now();
        assert!(
            now < ceiling,
            "pool bw run stalled: {}/{total} ops\n{}",
            shared.lock().ops,
            sim.stalled()
        );
        sim.run_until(SimTime(now.as_nanos() + 200 * MILLIS));
    }

    let s = shared.lock();
    PoolBwResult {
        volumes: opts.volumes,
        clients: opts.clients,
        ops: s.ops,
        errors: s.errors,
        degraded: s.degraded,
        bytes: s.ops * opts.op_bytes as u64,
        elapsed_ns: s.last_done_ns.saturating_sub(s.first_issue_ns).max(1),
        hist: s.hist.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(volumes: u32) -> PoolBwResult {
        measure_pool_write_bw(PoolBwOpts {
            ops_per_client: 1_500,
            ..PoolBwOpts::defaults(volumes)
        })
    }

    #[test]
    fn pool_write_bandwidth_scales_near_linearly() {
        // The ISSUE acceptance bar: 4 members must deliver at least 3x the
        // aggregate write bandwidth of 1 member for small mirrored writes.
        let one = quick(1);
        let four = quick(4);
        assert_eq!(one.errors, 0, "clean run");
        assert_eq!(four.errors, 0, "clean run");
        let speedup = four.ops_per_sec() / one.ops_per_sec();
        assert!(
            speedup >= 3.0,
            "4-volume speedup {speedup:.2}x < 3x ({:.0} vs {:.0} ops/s)",
            four.ops_per_sec(),
            one.ops_per_sec()
        );
    }

    #[test]
    fn two_members_beat_one() {
        let one = quick(1);
        let two = quick(2);
        assert!(
            two.ops_per_sec() > 1.5 * one.ops_per_sec(),
            "{:.0} vs {:.0}",
            two.ops_per_sec(),
            one.ops_per_sec()
        );
    }
}
