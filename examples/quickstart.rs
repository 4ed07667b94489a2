//! Quickstart: the persistent-memory access architecture end to end.
//!
//! Builds a simulated node with a mirrored NPMU pair and its PMM process
//! pair, creates a PM region, writes to it with the synchronous mirrored
//! client API, power-fails the whole machine, rebuilds, and reads the
//! data back through a fresh client.
//!
//! Run: `cargo run --release --example quickstart`

use bytes::Bytes;
use nsk::machine::{CpuId, Machine, MachineConfig, SharedMachine};
use pmem::{install_pm_system, NpmuConfig, PmLib};
use pmm::msgs::{CreateRegionAck, OpenRegionAck};
use simcore::actor::Start;
use simcore::time::SECS;
use simcore::{Actor, Ctx, DurableStore, Msg, Shared, Sim, SimTime};
use simnet::{FabricConfig, NetDelivery, Network, RdmaReadDone, RdmaWriteDone};

/// What the demo client should do this boot.
enum Phase {
    /// First boot: create the region and persist a message.
    WriteMessage,
    /// After the power loss: open the region and read it back.
    ReadBack,
}

struct DemoClient {
    lib: PmLib,
    phase: Phase,
    region: Option<u64>,
    log: Shared<Vec<String>>,
}

impl Actor for DemoClient {
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Start>() {
            match self.phase {
                Phase::WriteMessage => {
                    self.lib.create_region(ctx, "greeting", 64 * 1024, false, 0);
                }
                Phase::ReadBack => {
                    self.lib.open_region(ctx, "greeting", 0);
                }
            }
            return;
        }
        let msg = match msg.take::<RdmaWriteDone>() {
            Ok((_, done)) => {
                if let Some(c) = self.lib.on_rdma_write_done(ctx, &done) {
                    self.log.lock().push(format!(
                        "write complete at {}: {:?} (durable on both mirrors)",
                        ctx.now(),
                        c.status
                    ));
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<RdmaReadDone>() {
            Ok((_, done)) => {
                if let Some(c) = self.lib.on_rdma_read_done(ctx, done) {
                    let text = String::from_utf8_lossy(&c.data)
                        .trim_end_matches('\0')
                        .to_string();
                    self.log
                        .lock()
                        .push(format!("read back after power loss: {text:?}"));
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok((_, d)) = msg.take::<NetDelivery>() {
            let payload = match d.payload.downcast::<CreateRegionAck>() {
                Ok(ack) => {
                    let info = ack.result.expect("create failed");
                    self.log.lock().push(format!(
                        "region created: id={} len={}",
                        info.region_id, info.len
                    ));
                    self.region = Some(info.region_id);
                    self.lib.adopt(info);
                    self.lib.write(
                        ctx,
                        self.region.unwrap(),
                        0,
                        Bytes::from_static(b"Hello, persistent world!"),
                        1,
                    );
                    return;
                }
                Err(p) => p,
            };
            if let Ok(ack) = payload.downcast::<OpenRegionAck>() {
                let info = ack.result.expect("open failed");
                self.region = Some(info.region_id);
                self.lib.adopt(info);
                self.lib.read(ctx, self.region.unwrap(), 0, 24, 2);
            }
        }
    }
}

fn boot(
    store: &mut DurableStore,
    phase: Phase,
    seed: u64,
) -> (Sim, SharedMachine, Shared<Vec<String>>) {
    let mut sim = Sim::with_seed(seed);
    let net = Network::new(FabricConfig::default());
    let machine = Machine::new(MachineConfig::default(), net);
    let sys = install_pm_system(
        &mut sim,
        store,
        &machine,
        "demo",
        NpmuConfig::hardware(16 << 20),
        CpuId(0),
        Some(CpuId(1)),
    );
    let log = Shared::new(Vec::new());
    let log2 = log.clone();
    let m2 = machine.clone();
    let pmm_name = sys.pmm_name.clone();
    nsk::machine::install_primary(&mut sim, &machine, "$app", CpuId(2), move |ep| {
        Box::new(DemoClient {
            lib: PmLib::new(m2, ep, CpuId(2), pmm_name),
            phase,
            region: None,
            log: log2,
        })
    });
    (sim, machine, log)
}

fn main() {
    // The durable world: NPMU contents live here across "reboots".
    let mut store = DurableStore::new();

    println!("--- boot 1: create region, write message ---");
    let (mut sim, _machine, log) = boot(&mut store, Phase::WriteMessage, 1);
    sim.run_until(SimTime(5 * SECS));
    for line in log.lock().iter() {
        println!("  {line}");
    }

    println!("--- power loss! (simulation dropped, volatile state gone) ---");
    store.reset_volatile();

    println!("--- boot 2: recover metadata, open region, read back ---");
    let (mut sim, _machine, log) = boot(&mut store, Phase::ReadBack, 2);
    sim.run_until(SimTime(5 * SECS));
    for line in log.lock().iter() {
        println!("  {line}");
    }

    let ok = log
        .lock()
        .iter()
        .any(|l| l.contains("Hello, persistent world!"));
    assert!(ok, "message must survive the power loss");
    println!("quickstart OK: data survived power loss via mirrored NPMUs + PMM metadata");
}
