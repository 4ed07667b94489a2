//! Scale-out PM pool demo: four mirrored NPMU pairs behind one PMM
//! namespace, a region striped across all of them, a client streaming
//! mirrored writes — and one half of ONE member failing mid-stream.
//!
//! The workload keeps completing (degraded on the wounded member, fully
//! mirrored everywhere else), the PMM resilvers just that member online,
//! and afterwards every pair's halves verify byte-identical.
//!
//! Run: `cargo run --release --example scale_out`

use bytes::Bytes;
use nsk::machine::{CpuId, Machine, MachineConfig};
use nsk::Monitor;
use pmem::{install_pm_pool, verify_mirrors, NpmuConfig, PmLib};
use pmm::msgs::CreateRegionAck;
use pmm::PlacementHint;
use simcore::actor::Start;
use simcore::fault::{Fault, FaultPlan};
use simcore::time::{MILLIS, SECS};
use simcore::{Actor, Ctx, DurableStore, Msg, Shared, Sim, SimTime};
use simnet::{FabricConfig, NetDelivery, Network, RdmaStatus, RdmaWriteDone};

const VOLUMES: u32 = 4;
const STRIPE_UNIT: u64 = 64 << 10;
const REGION_LEN: u64 = 4 << 20;
/// Keep writing until this virtual time, so the stream straddles the
/// member outage below.
const STOP_AT_NS: u64 = 400 * MILLIS;
const DEPTH: u32 = 8;

#[derive(Default)]
struct Progress {
    issued: u64,
    ok: u64,
    degraded: u64,
    errors: u64,
    done: bool,
}

struct StreamWriter {
    lib: PmLib,
    region: Option<u64>,
    inflight: u32,
    seq: u64,
    shared: Shared<Progress>,
}

impl StreamWriter {
    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        if ctx.now().as_nanos() >= STOP_AT_NS {
            if self.inflight == 0 {
                self.shared.lock().done = true;
            }
            return;
        }
        let region = self.region.expect("region adopted");
        let i = self.seq;
        self.seq += 1;
        // Walk the stripes round-robin so every pool member sees traffic,
        // sliding forward inside each stripe so records don't overwrite.
        let stripes = REGION_LEN / STRIPE_UNIT;
        let off = (i % stripes) * STRIPE_UNIT + ((i / stripes) % (STRIPE_UNIT / 64)) * 64;
        self.inflight += 1;
        self.shared.lock().issued += 1;
        self.lib
            .write(ctx, region, off, Bytes::from(vec![i as u8; 64]), i);
    }

    fn complete(&mut self, ctx: &mut Ctx<'_>, c: pmclient::PmWriteComplete) {
        self.inflight -= 1;
        {
            let mut s = self.shared.lock();
            if c.status == RdmaStatus::Ok {
                s.ok += 1;
            } else {
                s.errors += 1;
            }
            if c.degraded {
                s.degraded += 1;
            }
        }
        self.issue(ctx);
    }
}

impl Actor for StreamWriter {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Start>() {
            self.lib.create_region_placed(
                ctx,
                "ledger",
                REGION_LEN,
                false,
                PlacementHint::Striped { unit: STRIPE_UNIT },
                0,
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
        let msg = match msg.take::<pmclient::PmWriteTimeout>() {
            Ok((_, t)) => {
                if let Some(c) = self.lib.on_write_timeout(ctx, &t) {
                    self.complete(ctx, c);
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok((_, d)) = msg.take::<NetDelivery>() {
            if let Ok(ack) = d.payload.downcast::<CreateRegionAck>() {
                let info = ack.result.expect("create striped region");
                println!(
                    "  region {} striped over {} members (unit {} KiB)",
                    info.region_id,
                    info.map.extents.len(),
                    info.map.stripe_unit >> 10,
                );
                self.region = Some(info.region_id);
                self.lib.adopt(info);
                for _ in 0..DEPTH {
                    self.issue(ctx);
                }
            }
        }
    }
}

fn main() {
    let wounded = 1u32;
    let mut sim = Sim::with_seed(7);
    let mut store = DurableStore::new();
    let net = Network::new(FabricConfig::default());
    let machine = Machine::new(MachineConfig::default(), net);

    // One half of member 1 dies at t = 50 ms and revives, stale, at 250 ms
    // — strictly member-local, the other three pairs never fault.
    Monitor::install(
        &mut sim,
        &machine,
        FaultPlan::none().with(Fault::PoolNpmuDown {
            volume: wounded,
            half: 1,
            from: SimTime(50 * MILLIS),
            to: SimTime(250 * MILLIS),
        }),
    );

    let pool = install_pm_pool(
        &mut sim,
        &mut store,
        &machine,
        "pool",
        NpmuConfig::hardware(8 << 20),
        VOLUMES,
        CpuId(0),
        Some(CpuId(1)),
    );

    let shared = Shared::new(Progress::default());
    let sh = shared.clone();
    let m2 = machine.clone();
    let pmm_name = pool.pmm_name.clone();
    nsk::machine::install_primary(&mut sim, &machine, "$app", CpuId(2), move |ep| {
        Box::new(StreamWriter {
            lib: PmLib::new(m2, ep, CpuId(2), pmm_name),
            region: None,
            inflight: 0,
            seq: 0,
            shared: sh,
        })
    });

    println!("--- scale-out pool: {VOLUMES} mirrored members, one striped region ---");
    let ceiling = SimTime(30 * SECS);
    loop {
        let done = shared.lock().done;
        let resilvered = pool.pmm.vol_stats[wounded as usize]
            .lock()
            .resilvers_completed
            >= 1;
        if done && resilvered {
            break;
        }
        let now = sim.now();
        assert!(
            now < ceiling,
            "demo stalled: done={done} resilvered={resilvered}"
        );
        sim.run_until(SimTime(now.as_nanos() + 100 * MILLIS));
    }
    // Let in-flight tails (metadata writes, verify chunks) land.
    let now = sim.now();
    sim.run_until(SimTime(now.as_nanos() + SECS));

    let p = shared.lock();
    println!(
        "  writes: {} issued, {} ok ({} degraded during the outage), {} errors",
        p.issued, p.ok, p.degraded, p.errors
    );
    assert_eq!(p.errors, 0, "no write may fail — mirrors absorb the fault");
    assert!(p.degraded > 0, "the outage window must be exercised");

    for (v, vs) in pool.pmm.vol_stats.iter().enumerate() {
        let s = *vs.lock();
        println!(
            "  member {v}: degraded_events={} resilvers={} bytes_copied={}",
            s.degraded_events, s.resilvers_completed, s.resilver_bytes_copied
        );
        if v == wounded as usize {
            assert_eq!(s.degraded_events, 1);
            assert_eq!(s.resilvers_completed, 1);
        } else {
            assert_eq!(s.degraded_events, 0, "member {v} must stay healthy");
        }
    }

    for (v, (a, b)) in pool.volumes.iter().enumerate() {
        let report = verify_mirrors(&a.mem, &b.mem, 8);
        assert!(report.is_clean(), "member {v} diverged: {report:?}");
    }
    println!(
        "scale-out OK: member {wounded} failed and resilvered online; \
         all {VOLUMES} members' mirrors verify byte-identical"
    );
}
