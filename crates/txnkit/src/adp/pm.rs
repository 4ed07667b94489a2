//! PM audit backend (the paper's ADP): every append is written to the
//! mirrored PM region immediately — "the database log is persistent
//! immediately" — by the one trail writer ([`crate::trail`]), which this
//! module hosts. Appends are charged their CPU cost, assigned LSNs and
//! staged; with nothing in flight, every staged append leaves as ONE
//! ordered chain closed by the control cell naming its end, so trail
//! data, watermark and durability arrive in ONE fabric round trip, on the
//! commit class. Appends arriving behind it leave together as the next
//! chain — coalescing is the throughput mechanism — and the chain's
//! completion is the only durability signal: it publishes the watermark,
//! releases every covered ack and answers the commit-flush waiters.
//!
//! There is **no backup checkpoint at all** — exactly the redundancy
//! §3.4 says PM eliminates. Takeover recovers the exact durable position
//! by reading the control cell back.

use super::{AdpShared, AuditLog};
use crate::trail::{TrailEvent, TrailWriter};
use crate::types::*;
use nsk::machine::{CpuId, SharedMachine};
use pmclient::{PmClientConfig, PmLib};
use pmm::msgs::CreateRegionAck;
use simcore::{Ctx, Msg, SimDuration};
use simnet::{EndpointId, PersistMode, RdmaStatus, TrafficClass};
use std::any::Any;

/// An append whose CPU cost has been queued on the host CPU; the trail
/// work happens when the CPU gets to it (appends serialize on their
/// ADP's processor — the §4.2 reason "multiple ADPs can be configured
/// per node" to scale audit throughput).
struct CpuStaged {
    from_ep: EndpointId,
    app: AuditAppend,
}

/// The ack owed for one append once a chain covering it completes.
struct AckSlot {
    from_ep: EndpointId,
    token: u64,
    lsn_start: u64,
    lsn_end: u64,
}

/// The ADP's host of the one trail writer ([`crate::trail`]): it assigns
/// LSNs, charges the CPU and answers DP2 and the flush waiters; the writer
/// owns the region, the chain in flight and the cell.
pub(crate) struct PmLog {
    writer: TrailWriter<AckSlot>,
    /// Appends received before the region/cell were ready.
    boot_pending: Vec<(EndpointId, AuditAppend)>,
}

impl PmLog {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        machine: SharedMachine,
        ep: EndpointId,
        cpu: CpuId,
        pmm: String,
        region_name: String,
        region_len: u64,
        persist_mode: PersistMode,
        commit_class: TrafficClass,
    ) -> Self {
        // Every op of this library gates commit acks — each trail chain
        // carries the cell that releases them — so they all ride the
        // commit class.
        let lib = PmLib::new(machine, ep, cpu, pmm).with_config(PmClientConfig {
            persist_mode,
            traffic_class: commit_class,
            ..PmClientConfig::default()
        });
        PmLog {
            writer: TrailWriter::new(lib, [(region_name, region_len)]),
            boot_pending: Vec::new(),
        }
    }

    /// Post the next chain if the writer cuts one: every staged append,
    /// closed by the cell naming its end — the deeper the backlog, the
    /// wider the chain.
    fn pump(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>) {
        if self.writer.pump(ctx, 0) {
            let mut st = sh.stats.lock();
            st.pm_batches += 1;
            st.pm_ctrl_writes += 1;
        }
    }

    fn on_trail(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>, event: TrailEvent) {
        match event {
            // Boot/takeover: the cell is the exact durable position.
            TrailEvent::Booted { watermark, .. } => {
                sh.next_lsn = sh.next_lsn.max(watermark);
                sh.durable_upto = sh.durable_upto.max(watermark);
                let pending = std::mem::take(&mut self.boot_pending);
                for (ep, app) in pending {
                    self.append(sh, ctx, ep, app);
                }
                sh.answer_waiters(ctx);
            }
            // The chain's cell rode behind its data: everything through
            // its end is provably recoverable — release every append the
            // chain carried.
            TrailEvent::Published { watermark, .. } => {
                sh.durable_upto = sh.durable_upto.max(watermark);
                for a in self.writer.core(0).released() {
                    sh.send_append_done(ctx, a.from_ep, a.token, a.lsn_start, a.lsn_end);
                }
                sh.answer_waiters(ctx);
                self.pump(sh, ctx);
            }
            // No mirror half took the chain: nothing it carried is
            // durable, and the writer re-drives it after the timeout.
            TrailEvent::Failed => sh.stats.lock().pm_redrives += 1,
            // Frozen: the chain's appends are never acked. A fence means
            // this ADP is a fenced-off old primary whose acks would be a
            // durability lie; any other rejection no retry can cure.
            TrailEvent::Rejected { status } => match status {
                RdmaStatus::AccessViolation => sh.stats.lock().pm_fenced += 1,
                RdmaStatus::OutOfBounds => {
                    sh.stats.lock().pm_write_faults += 1;
                    ctx.trace("adp: PM trail write rejected (OutOfBounds), log frozen");
                }
                _ => {}
            },
        }
    }

    /// The CPU got to an append: assign its LSNs, stage its trail writes
    /// and submit with the next chain (immediately, if none is in
    /// flight).
    fn stage_append(
        &mut self,
        sh: &mut AdpShared,
        ctx: &mut Ctx<'_>,
        from_ep: EndpointId,
        app: AuditAppend,
    ) {
        if self.writer.core(0).frozen() {
            // A fenced old primary accepts no new trail work: the append
            // is dropped unacked (its requester will time out / abort).
            return;
        }
        let lsn_start = sh.next_lsn;
        let virt = (app.virtual_len as u64).max(app.records.len() as u64);
        sh.next_lsn += virt;
        let ack = AckSlot {
            from_ep,
            token: app.token,
            lsn_start,
            lsn_end: sh.next_lsn,
        };
        // One persistence action per appended row (§3.4 accounting); the
        // mirrored legs, wrap segments and batching are below the API.
        sh.stats.lock().pm_writes += 1;
        self.writer
            .core_mut(0)
            .stage(lsn_start, virt, app.records, ack);
        self.pump(sh, ctx);
    }
}

impl AuditLog for PmLog {
    fn open(&mut self, _sh: &mut AdpShared, ctx: &mut Ctx<'_>) {
        // Boot and takeover are the same: (re)open the region and recover
        // the exact durable position from the PM control cell; no shadow
        // state is needed.
        self.writer.open(ctx, 0, 0);
    }

    fn append(
        &mut self,
        sh: &mut AdpShared,
        ctx: &mut Ctx<'_>,
        from_ep: EndpointId,
        app: AuditAppend,
    ) {
        // Buffer until the region + control cell are available.
        if !self.writer.ready(0) {
            self.boot_pending.push((from_ep, app));
            return;
        }
        // Charge the append's CPU cost and process once the CPU gets to
        // it: queue delays grow monotonically, so arrival (= LSN) order
        // is preserved while the processor, not the fabric, bounds one
        // partition's append rate.
        let now = ctx.now().as_nanos();
        let queue = sh
            .pair
            .machine
            .lock()
            .cpu_work(sh.pair.cpu, now, sh.cfg.append_cpu_ns);
        ctx.send_self(
            SimDuration::from_nanos(queue + sh.cfg.append_cpu_ns),
            CpuStaged { from_ep, app },
        );
    }

    fn flush_queued(&mut self, _sh: &mut AdpShared, _ctx: &mut Ctx<'_>) {
        // The trail is persistent immediately; the waiter is answered as
        // soon as a chain covering its LSN completes.
    }

    fn on_msg(&mut self, sh: &mut AdpShared, ctx: &mut Ctx<'_>, msg: Msg) -> Option<Msg> {
        let msg = match msg.take::<CpuStaged>() {
            Ok((_, s)) => {
                if sh.pair.is_primary() {
                    if self.writer.ready(0) {
                        self.stage_append(sh, ctx, s.from_ep, s.app);
                    } else {
                        self.boot_pending.push((s.from_ep, s.app));
                    }
                }
                return None;
            }
            Err(m) => m,
        };
        // The writer's timers and the library's completions.
        match self.writer.on_msg(ctx, msg) {
            Ok(event) => {
                if let Some(e) = event {
                    self.on_trail(sh, ctx, e);
                }
                None
            }
            Err(m) => Some(m),
        }
    }

    fn on_net(
        &mut self,
        sh: &mut AdpShared,
        ctx: &mut Ctx<'_>,
        payload: Box<dyn Any>,
    ) -> Option<Box<dyn Any>> {
        match payload.downcast::<CreateRegionAck>() {
            Ok(ack) => {
                if sh.pair.is_primary() {
                    self.writer.on_region_ack(ctx, &ack);
                }
                None
            }
            Err(p) => Some(p),
        }
    }
}
