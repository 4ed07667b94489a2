//! A benchmark-owned bulk reader for `repair_under_load`: opens the first
//! audit partition's PM region by name, as the geo-replication shipper
//! does, and issues one 256 KiB read every 20 ms through `pmclient::PmLib`
//! with adaptive mirror routing. Its reads share pmclient, the fabric ports
//! and the NPMUs with commit writes and resilver copies.

use nsk::machine::{CpuId, SharedMachine};
use parking_lot::Mutex;
use pmclient::{PmClientConfig, PmLib, PmReadComplete, PmReadTimeout, ReadRouting};
use pmm::msgs::OpenRegionAck;
use simcore::actor::Start;
use simcore::{Actor, Ctx, Msg, Sim, SimDuration};
use simnet::{NetDelivery, RdmaReadDone, RdmaStatus, TrafficClass};
use std::sync::Arc;

pub const READ_BYTES: u32 = 256 << 10;
const READ_PERIOD_NS: u64 = 20_000_000;
const OPEN_RETRY_NS: u64 = 50_000_000;

/// One tail read, simulated ns; `done == 0` means it never completed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReadRec {
    pub issued: u64,
    pub done: u64,
    pub ok: bool,
}

pub type SharedReads = Arc<Mutex<Vec<ReadRec>>>;

struct Tick;
struct OpenRetry;

struct TailReader {
    lib: PmLib,
    region: String,
    region_id: Option<u64>,
    region_len: u64,
    outstanding: bool,
    deadline_ns: u64,
    reads: SharedReads,
}

impl TailReader {
    fn complete(&mut self, ctx: &mut Ctx<'_>, c: PmReadComplete) {
        self.outstanding = false;
        let mut reads = self.reads.lock();
        let r = &mut reads[c.token as usize];
        r.done = ctx.now().as_nanos();
        r.ok = c.status == RdmaStatus::Ok && c.data.len() == READ_BYTES as usize;
    }

    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now().as_nanos();
        if now >= self.deadline_ns {
            return;
        }
        ctx.send_self(SimDuration::from_nanos(READ_PERIOD_NS), Tick);
        let (Some(id), false) = (self.region_id, self.outstanding) else {
            return;
        };
        let token = {
            let mut reads = self.reads.lock();
            reads.push(ReadRec {
                issued: now,
                done: 0,
                ok: false,
            });
            reads.len() as u64 - 1
        };
        // Walk the region so successive reads touch different blocks.
        let windows = self.region_len / READ_BYTES as u64;
        let offset = (token % windows) * READ_BYTES as u64;
        self.outstanding = true;
        self.lib.read_batch(ctx, id, &[(offset, READ_BYTES)], token);
    }
}

impl Actor for TailReader {
    fn name(&self) -> &str {
        "$tailrd"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Start>() {
            ctx.send_self(SimDuration::from_nanos(crate::plan::BOOT_NS), OpenRetry);
            return;
        }
        if msg.is::<OpenRetry>() {
            if self.region_id.is_none() {
                let region = self.region.clone();
                self.lib.open_region(ctx, &region, 0);
                ctx.send_self(SimDuration::from_nanos(OPEN_RETRY_NS), OpenRetry);
            }
            return;
        }
        if msg.is::<Tick>() {
            return self.tick(ctx);
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
        if let Ok((_, delivery)) = msg.take::<NetDelivery>() {
            if let Ok(ack) = delivery.payload.downcast::<OpenRegionAck>() {
                if let (None, Ok(info)) = (self.region_id, ack.result) {
                    self.region_id = Some(info.region_id);
                    self.region_len = info.len;
                    self.lib.adopt(info);
                    self.tick(ctx);
                }
            }
        }
    }
}

/// Install the reader on `cpu`; it stops issuing at `deadline_ns`.
pub fn install_tail_reader(
    sim: &mut Sim,
    machine: &SharedMachine,
    pmm_name: &str,
    region: &str,
    cpu: CpuId,
    deadline_ns: u64,
) -> SharedReads {
    let reads: SharedReads = Arc::new(Mutex::new(Vec::new()));
    let (m2, r2) = (machine.clone(), reads.clone());
    let (pmm_name, region) = (pmm_name.to_string(), region.to_string());
    nsk::machine::install_primary(sim, machine, "$tailrd", cpu, move |ep| {
        Box::new(TailReader {
            lib: PmLib::new(m2, ep, cpu, pmm_name)
                .with_read_routing(ReadRouting::Adaptive)
                .with_config(PmClientConfig {
                    // A bulk reader, like the shipper: it must not ride
                    // the commit class, and a 256 KiB transfer queued
                    // behind resilver chunks outlasts the 5 ms default
                    // (tuned for 4 KB commit ops) on a healthy device.
                    traffic_class: TrafficClass::Bulk,
                    read_timeout: SimDuration::from_millis(50),
                    ..PmClientConfig::default()
                }),
            region,
            region_id: None,
            region_len: 0,
            outstanding: false,
            deadline_ns,
            reads: r2,
        })
    });
    reads
}
