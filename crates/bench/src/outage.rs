//! A process that makes a mirror-half outage leave divergence behind.
//!
//! The PMM's resilver copies only the chunks whose two halves digest
//! differently, so a bench or test that wants a repair of a given size
//! has to diverge that many chunks while the half is out — a 4 KB poke
//! repairs in one chunk however large the region around it. The writer
//! creates a scratch region and, at a given instant inside the outage,
//! writes one small block into every `stride` bytes of its first `span`
//! bytes: each resilver chunk holding a block now differs between the
//! halves and must be copied whole, at a few KB of fabric traffic — the
//! foreground under test barely notices the writer itself.

use bytes::Bytes;
use nsk::machine::{CpuId, SharedMachine};
use pmclient::{PmLib, PmWriteTimeout};
use pmm::msgs::CreateRegionAck;
use pmm::PlacementHint;
use simcore::actor::Start;
use simcore::{Actor, Ctx, Msg, Sim, SimDuration, SimTime};
use simnet::{NetDelivery, RdmaWriteDone};

/// Bytes per block written.
const BLOCK: usize = 64;
/// Blocks per `write_batch_publish`: keeps one batch's chain short on the wire.
const BATCH: u64 = 64;

/// What an [`install`]ed writer does.
#[derive(Clone, Debug)]
pub struct OutageWrites {
    /// Scratch region created at start, `len` bytes laid out by `placement`.
    pub region: &'static str,
    pub len: u64,
    pub placement: PlacementHint,
    /// When to write — inside the outage window.
    pub at: SimTime,
    /// One block at every multiple of `stride` below `span`. A stride of
    /// one resilver chunk diverges `span / stride` chunks.
    pub span: u64,
    pub stride: u64,
}

struct Go;

struct OutageWriter {
    lib: PmLib,
    spec: OutageWrites,
    region: Option<u64>,
    /// Region offset of the next block.
    next: u64,
}

impl OutageWriter {
    /// Post the next batch of blocks; the one after goes on its completion.
    fn post(&mut self, ctx: &mut Ctx<'_>) {
        let Some(id) = self.region else {
            return;
        };
        let block = Bytes::from(vec![0xD6u8; BLOCK]);
        let parts: Vec<(u64, Bytes, u32)> = (0..BATCH)
            .map(|i| self.next + i * self.spec.stride)
            .take_while(|&off| off < self.spec.span)
            .map(|off| (off, block.clone(), BLOCK as u32))
            .collect();
        if parts.is_empty() {
            return;
        }
        self.next += BATCH * self.spec.stride;
        let class = self.lib.config().traffic_class;
        self.lib
            .write_batch_publish(ctx, id, &parts, None, 0, class);
    }
}

impl Actor for OutageWriter {
    fn name(&self) -> &str {
        "outage-writer"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Start>() {
            let (name, len, placement) = (self.spec.region, self.spec.len, self.spec.placement);
            self.lib
                .create_region_placed(ctx, name, len, false, placement, 0);
            return;
        }
        if msg.is::<Go>() {
            self.post(ctx);
            return;
        }
        let msg = match msg.take::<RdmaWriteDone>() {
            Ok((_, done)) => {
                if self.lib.on_rdma_write_done(ctx, &done).is_some() {
                    self.post(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<PmWriteTimeout>() {
            Ok((_, t)) => {
                if self.lib.on_write_timeout(ctx, &t).is_some() {
                    self.post(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok((_, d)) = msg.take::<NetDelivery>() {
            if let Ok(ack) = d.payload.downcast::<CreateRegionAck>() {
                let info = ack.result.expect("scratch region create failed");
                self.region = Some(info.region_id);
                self.lib.adopt(info);
                let wait = self.spec.at.as_nanos().saturating_sub(ctx.now().as_nanos());
                ctx.send_self(SimDuration::from_nanos(wait), Go);
            }
        }
    }
}

/// Install an outage writer as process `$outage-writer` on `cpu`, talking
/// to the PMM named `pmm_name`.
pub fn install(
    sim: &mut Sim,
    machine: &SharedMachine,
    cpu: CpuId,
    pmm_name: &str,
    spec: OutageWrites,
) {
    assert!(spec.stride >= BLOCK as u64 && spec.span <= spec.len);
    let (m2, pmm_name) = (machine.clone(), pmm_name.to_string());
    nsk::machine::install_primary(sim, machine, "$outage-writer", cpu, move |ep| {
        Box::new(OutageWriter {
            lib: PmLib::new(m2, ep, cpu, &pmm_name),
            spec,
            region: None,
            next: 0,
        })
    });
}
