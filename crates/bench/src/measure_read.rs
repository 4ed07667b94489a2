//! Read-path bandwidth rig: pipelined reader clients against a striped
//! region on an N-member PM pool (experiment T9).
//!
//! Two workloads share the rig:
//!
//! * **small ops** — batches of 4 KiB spans, latency-bound at shallow
//!   windows: the in-flight window hides round trips, so ops/s scales
//!   with `read_window` until a device port saturates;
//! * **bulk** — 1 MiB reads striped across every member, wire-bound:
//!   the window keeps every fragment port busy and *mirror-balanced
//!   routing* doubles the port count, so MB/s scales with both knobs.
//!
//! The rig reads a freshly created region (PM reads of unwritten bytes
//! return zeros — contents are irrelevant to the transfer timing).

use npmu::NpmuConfig;
use nsk::machine::{CpuId, Machine, MachineConfig};
use pmclient::{PmClientConfig, PmLib, PmReadTimeout, ReadRouting};
use pmem::install_pm_pool;
use pmm::msgs::{CreateRegionAck, OpenRegionAck};
use pmm::PlacementHint;
use simcore::actor::Start;
use simcore::time::{MILLIS, SECS};
use simcore::{Actor, Ctx, DurableStore, Histogram, Msg, Shared, Sim, SimDuration, SimTime};
use simnet::{FabricConfig, NetDelivery, Network, RdmaReadDone};

/// Stripe unit the rig assumes (the placement policy default).
const STRIPE_UNIT: u64 = 64 << 10;
/// Small-ops span size.
const OP_BYTES: u32 = 4096;
/// Spans per small-ops batch.
const OPS_PER_BATCH: u32 = 16;
/// Bulk read size: 16 stripes, so a 4-member pool serves 4 stripes per
/// member per read.
const BULK_BYTES: u32 = 1 << 20;

/// Which read workload a run measures.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum ReadWorkload {
    /// Batches of 16 × 4 KiB spans (throughput in ops/s).
    SmallOps,
    /// One 1 MiB span per batch (throughput in MB/s).
    Bulk,
}

#[derive(Clone)]
pub struct ReadBwOpts {
    /// Pool members (mirrored NPMU pairs).
    pub volumes: u32,
    /// Concurrent reader clients. Two by default: few enough that a
    /// window-1 primary-only run is latency-bound (the speedup under
    /// test), many enough to exercise concurrent runs.
    pub clients: u32,
    pub batches_per_client: u32,
    /// In-flight fragment window per read run ([`PmClientConfig`]).
    pub window: u32,
    /// `true` → round-robin mirror-balanced routing; `false` → all reads
    /// on the primary half.
    pub balanced: bool,
    pub workload: ReadWorkload,
    pub region_len: u64,
    pub fabric: FabricConfig,
    pub seed: u64,
}

impl ReadBwOpts {
    pub fn defaults(workload: ReadWorkload, window: u32, balanced: bool) -> Self {
        ReadBwOpts {
            volumes: 4,
            clients: 2,
            batches_per_client: match workload {
                ReadWorkload::SmallOps => 250,
                ReadWorkload::Bulk => 24,
            },
            window,
            balanced,
            workload,
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
    batches: u64,
    ops: u64,
    bytes: u64,
    errors: u64,
    hist: Histogram,
}

/// Outcome of one read bandwidth run.
pub struct ReadBwResult {
    pub volumes: u32,
    pub clients: u32,
    pub window: u32,
    pub balanced: bool,
    pub ops: u64,
    pub bytes: u64,
    pub errors: u64,
    pub elapsed_ns: u64,
    pub hist: Histogram,
}

impl ReadBwResult {
    pub fn ops_per_sec(&self) -> f64 {
        self.ops as f64 * 1e9 / self.elapsed_ns.max(1) as f64
    }

    pub fn mb_per_sec(&self) -> f64 {
        self.bytes as f64 * 1e9 / self.elapsed_ns.max(1) as f64 / 1e6
    }
}

struct PoolReader {
    lib: PmLib,
    idx: u32,
    opts: ReadBwOpts,
    region: Option<u64>,
    issued: u32,
    issue_ns: u64,
    shared: Shared<SharedRun>,
}

impl PoolReader {
    /// One batch at a time per client; the window engine inside the
    /// library provides the fragment-level pipelining under test.
    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        if self.issued >= self.opts.batches_per_client {
            return;
        }
        let region = self.region.expect("region adopted");
        let b = self.issued as u64;
        self.issued += 1;
        self.issue_ns = ctx.now().as_nanos();
        let spans: Vec<(u64, u32)> = match self.opts.workload {
            ReadWorkload::SmallOps => (0..OPS_PER_BATCH as u64)
                .map(|k| {
                    let off = ((self.idx as u64
                        + (b * OPS_PER_BATCH as u64 + k) * self.opts.clients as u64)
                        * OP_BYTES as u64)
                        % (self.opts.region_len - OP_BYTES as u64)
                        / OP_BYTES as u64
                        * OP_BYTES as u64;
                    (off, OP_BYTES)
                })
                .collect(),
            ReadWorkload::Bulk => {
                let slots = self.opts.region_len / BULK_BYTES as u64;
                let off =
                    ((self.idx as u64 + b * self.opts.clients as u64) % slots) * BULK_BYTES as u64;
                vec![(off, BULK_BYTES)]
            }
        };
        self.lib.read_batch(ctx, region, &spans, b);
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
        self.issue(ctx);
    }

    fn complete(&mut self, ctx: &mut Ctx<'_>, c: pmclient::PmReadComplete) {
        let now = ctx.now().as_nanos();
        {
            let mut s = self.shared.lock();
            s.hist.record(now - self.issue_ns);
            s.batches += 1;
            s.bytes += c.data.len() as u64;
            s.ops += match self.opts.workload {
                ReadWorkload::SmallOps => OPS_PER_BATCH as u64,
                ReadWorkload::Bulk => 1,
            };
            if c.status != simnet::RdmaStatus::Ok {
                s.errors += 1;
            }
            if now > s.last_done_ns {
                s.last_done_ns = now;
            }
        }
        self.issue(ctx);
    }
}

impl Actor for PoolReader {
    fn name(&self) -> &str {
        "pool-reader"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Start>() {
            // `open_if_exists` makes the create a barrier-free rendezvous:
            // the first client places the striped region, the rest open it.
            self.lib.create_region_placed(
                ctx,
                "readbw",
                self.opts.region_len,
                true,
                PlacementHint::Striped { unit: STRIPE_UNIT },
                self.idx as u64,
            );
            return;
        }
        let msg = match msg.take::<RdmaReadDone>() {
            Ok((_, done)) => {
                if let Some(c) = self.lib.on_rdma_read_done(ctx, done) {
                    self.complete(ctx, c);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<PmReadTimeout>() {
            Ok((_, t)) => {
                if let Some(c) = self.lib.on_read_timeout(ctx, &t) {
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

/// Run the read workload and report aggregate throughput.
pub fn measure_pool_read_bw(opts: ReadBwOpts) -> ReadBwResult {
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
    let cap = opts.region_len + (1 << 20);
    let pool = install_pm_pool(
        &mut sim,
        &mut store,
        &machine,
        "readbw",
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
        let routing = if opts.balanced {
            ReadRouting::RoundRobin
        } else {
            ReadRouting::PrimaryOnly
        };
        let cfg = PmClientConfig {
            read_window: opts.window,
            // Deep windows queue fragments several wire-times behind the
            // port; keep the silent-drop watchdog well clear of that.
            read_timeout: SimDuration::from_millis(50),
            ..PmClientConfig::default()
        };
        nsk::machine::install_primary(
            &mut sim,
            &machine,
            &format!("$R{idx}"),
            CpuId(idx),
            move |ep| {
                Box::new(PoolReader {
                    lib: PmLib::new(m.clone(), ep, CpuId(idx), pmm_name.clone())
                        .with_read_routing(routing)
                        .with_config(cfg),
                    idx,
                    opts: o.clone(),
                    region: None,
                    issued: 0,
                    issue_ns: 0,
                    shared: sh.clone(),
                })
            },
        );
    }

    let total = opts.clients as u64 * opts.batches_per_client as u64;
    let ceiling = SimTime(120 * SECS);
    loop {
        if shared.lock().batches >= total {
            break;
        }
        let now = sim.now();
        assert!(
            now < ceiling,
            "read bw run stalled: {}/{total} batches\n{}",
            shared.lock().batches,
            sim.stalled()
        );
        sim.run_until(SimTime(now.as_nanos() + 200 * MILLIS));
    }

    let s = shared.lock();
    ReadBwResult {
        volumes: opts.volumes,
        clients: opts.clients,
        window: opts.window,
        balanced: opts.balanced,
        ops: s.ops,
        bytes: s.bytes,
        errors: s.errors,
        elapsed_ns: s.last_done_ns.saturating_sub(s.first_issue_ns).max(1),
        hist: s.hist.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: ReadWorkload, window: u32, balanced: bool) -> ReadBwResult {
        let mut o = ReadBwOpts::defaults(workload, window, balanced);
        o.batches_per_client = match workload {
            ReadWorkload::SmallOps => 60,
            ReadWorkload::Bulk => 8,
        };
        measure_pool_read_bw(o)
    }

    #[test]
    fn windowed_balanced_reads_beat_lock_step_primary_by_2x() {
        // The ISSUE acceptance bar, on both workloads: window 8 +
        // balanced ≥ 2× window 1 + primary-only on a healthy 4-member
        // pool.
        let base = quick(ReadWorkload::SmallOps, 1, false);
        let best = quick(ReadWorkload::SmallOps, 8, true);
        assert_eq!(base.errors + best.errors, 0, "clean runs");
        let speedup = best.ops_per_sec() / base.ops_per_sec();
        assert!(
            speedup >= 2.0,
            "small-op speedup {speedup:.2}x < 2x ({:.0} vs {:.0} ops/s)",
            best.ops_per_sec(),
            base.ops_per_sec()
        );
        let base = quick(ReadWorkload::Bulk, 1, false);
        let best = quick(ReadWorkload::Bulk, 8, true);
        assert_eq!(base.errors + best.errors, 0, "clean runs");
        let speedup = best.mb_per_sec() / base.mb_per_sec();
        assert!(
            speedup >= 2.0,
            "bulk speedup {speedup:.2}x < 2x ({:.0} vs {:.0} MB/s)",
            best.mb_per_sec(),
            base.mb_per_sec()
        );
    }

    #[test]
    fn balanced_routing_helps_at_depth() {
        // At window 8 the bulk workload is port-bound: doubling the ports
        // (mirror-balanced) must add real bandwidth.
        let primary = quick(ReadWorkload::Bulk, 8, false);
        let balanced = quick(ReadWorkload::Bulk, 8, true);
        assert!(
            balanced.mb_per_sec() > 1.3 * primary.mb_per_sec(),
            "{:.0} vs {:.0} MB/s",
            balanced.mb_per_sec(),
            primary.mb_per_sec()
        );
    }
}
