//! End-to-end tests of the full PM access architecture:
//! client library ↔ PMM pair ↔ mirrored NPMUs over the fabric.

use crate::{MirrorPolicy, PmClientConfig, PmLib, PmReadTimeout, PmWriteTimeout, ReadRouting};
use bytes::Bytes;
use npmu::{Npmu, NpmuConfig};
use nsk::machine::{CpuId, Machine, MachineConfig, SharedMachine};
use nsk::requests::Backoff;
use nsk::Monitor;
use pmm::msgs::*;
use pmm::{install_pmm_pool, PmmConfig, PmmHandle};
use simcore::actor::Start;
use simcore::fault::{Fault, FaultPlan};
use simcore::time::SECS;
use simcore::{Actor, Ctx, DurableStore, Msg, Shared, Sim, SimDuration, SimTime};
use simnet::{FabricConfig, NetDelivery, Network, RdmaReadDone, RdmaStatus, RdmaWriteDone};

/// One scripted client step.
#[derive(Clone)]
enum Step {
    Create {
        name: String,
        len: u64,
    },
    /// Create with an explicit placement hint (pool scenarios).
    CreatePlaced {
        name: String,
        len: u64,
        placement: pmm::PlacementHint,
    },
    Open {
        name: String,
    },
    /// Batched write whose last part is a publish part, chained behind
    /// the data.
    WriteBatch {
        region_idx: usize,
        parts: Vec<(u64, Vec<u8>)>,
    },
    Write {
        region_idx: usize,
        offset: u64,
        data: Vec<u8>,
        expect: RdmaStatus,
    },
    Read {
        region_idx: usize,
        offset: u64,
        len: u32,
        expect: Option<Vec<u8>>,
    },
    /// Scatter-gather read: all spans under one token/completion.
    ReadBatch {
        region_idx: usize,
        spans: Vec<(u64, u32)>,
        expect: Option<Vec<u8>>,
    },
    Delete {
        name: String,
    },
    /// Close the region on this CPU (`opened[region_idx]` keeps its info,
    /// so a later `RawWrite` can aim at the window it no longer has).
    Close {
        region_idx: usize,
    },
    /// A bare `rdma_write` to the region's base on its primary half,
    /// around the library: only the device's ATT decides.
    RawWrite {
        region_idx: usize,
    },
    /// Let virtual time pass (e.g. into or out of a fault window).
    Delay {
        dur: SimDuration,
    },
    /// Synchronous: tell the PMM a write leg to `half` of the region's
    /// first member failed, as the library does on a NACK or timeout.
    ReportFailure {
        region_idx: usize,
        half: u8,
    },
    /// Synchronous: log whether the library has quiesced (no in-flight
    /// ops AND all completion maps purged — the leak invariant).
    CheckQuiesced,
    /// Synchronous test hook: mark a mirror half suspect as of `at_ns`
    /// without going through a real failure (stages the both-suspect
    /// tie-break deterministically).
    ForceSuspect {
        region_idx: usize,
        half: u8,
        at_ns: u64,
    },
}

struct RetryTick;
/// Marks the end of a `Step::Delay`.
struct DelayDone {
    pos: usize,
}

/// Scripted client process: runs steps sequentially, one at a time,
/// retrying PMM RPCs that get no answer (e.g. across a takeover).
struct TestClient {
    lib: PmLib,
    steps: Vec<Step>,
    pos: usize,
    opened: Vec<RegionInfo>,
    waiting: bool,
    retry_attempt: u32,
    log: Shared<Vec<String>>,
    machine: SharedMachine,
    ep: simnet::EndpointId,
    cpu: CpuId,
}

impl TestClient {
    fn fire(&mut self, ctx: &mut Ctx<'_>) {
        if self.pos >= self.steps.len() {
            return;
        }
        self.waiting = true;
        let tok = self.pos as u64;
        match self.steps[self.pos].clone() {
            Step::Create { name, len } => {
                self.lib.create_region(ctx, &name, len, false, tok);
            }
            Step::CreatePlaced {
                name,
                len,
                placement,
            } => {
                self.lib
                    .create_region_placed(ctx, &name, len, false, placement, tok);
            }
            Step::Open { name } => {
                self.lib.open_region(ctx, &name, tok);
            }
            Step::WriteBatch { region_idx, parts } => {
                let id = self.opened[region_idx].region_id;
                let parts: Vec<(u64, Bytes, u32)> = parts
                    .into_iter()
                    .map(|(off, d)| (off, Bytes::from(d.clone()), d.len() as u32))
                    .collect();
                let (publish, data) = parts.split_last().expect("publish part");
                let class = self.lib.config().traffic_class;
                self.lib
                    .write_batch_publish(ctx, id, data, Some(publish), tok, class);
            }
            Step::Write {
                region_idx,
                offset,
                data,
                ..
            } => {
                let id = self.opened[region_idx].region_id;
                self.lib.write(ctx, id, offset, Bytes::from(data), tok);
            }
            Step::Read {
                region_idx,
                offset,
                len,
                ..
            } => {
                let id = self.opened[region_idx].region_id;
                self.lib.read(ctx, id, offset, len, tok);
            }
            Step::ReadBatch {
                region_idx, spans, ..
            } => {
                let id = self.opened[region_idx].region_id;
                self.lib.read_batch(ctx, id, &spans, tok);
            }
            Step::ReportFailure { region_idx, half } => {
                let info = &self.opened[region_idx];
                let report = ReportMirrorFailure {
                    region_id: info.region_id,
                    volume: info.volumes[0].volume,
                    half,
                };
                let m = self.lib_machine();
                nsk::proc::send_to_process(
                    ctx,
                    &m,
                    self.lib_ep(),
                    self.lib_cpu(),
                    "$PMM",
                    32,
                    report,
                );
                self.log
                    .lock()
                    .push(format!("report[{tok}]@{}", ctx.now().as_nanos()));
                self.advance(ctx);
            }
            Step::CheckQuiesced => {
                self.log
                    .lock()
                    .push(format!("quiesced:{}", self.lib.quiesced()));
                self.advance(ctx);
            }
            Step::ForceSuspect {
                region_idx,
                half,
                at_ns,
            } => {
                let info = &self.opened[region_idx];
                let (id, vol) = (info.region_id, info.volumes[0].volume);
                self.lib.force_suspect_at(id, vol, half, at_ns);
                self.advance(ctx);
            }
            Step::Delete { name } => {
                let machine_name = name;
                // Deletes go through the raw RPC (lib has no delete sugar).
                let m = self.lib_machine();
                nsk::proc::send_to_process(
                    ctx,
                    &m,
                    self.lib_ep(),
                    self.lib_cpu(),
                    "$PMM",
                    64,
                    DeleteRegion {
                        name: machine_name,
                        token: tok,
                    },
                );
            }
            Step::Close { region_idx } => {
                let id = self.opened[region_idx].region_id;
                self.lib.close_region(ctx, id, tok);
            }
            Step::RawWrite { region_idx } => {
                let info = &self.opened[region_idx];
                let net = self.machine.lock().net.clone();
                simnet::rdma_write(
                    ctx,
                    &net,
                    self.ep,
                    info.volumes[0].primary_ep,
                    info.nva_base(),
                    Bytes::from(vec![9u8; 32]),
                    tok,
                    simnet::TrafficClass::Commit,
                );
            }
            Step::Delay { dur } => {
                ctx.send_self(dur, DelayDone { pos: self.pos });
            }
        }
    }

    fn advance(&mut self, ctx: &mut Ctx<'_>) {
        self.pos += 1;
        self.waiting = false;
        self.retry_attempt = 0;
        self.fire(ctx);
    }

    fn log_write_completion(&mut self, ctx: &mut Ctx<'_>, c: &crate::PmWriteComplete) {
        let expect = match &self.steps[c.token as usize] {
            Step::Write { expect, .. } => *expect,
            _ => RdmaStatus::Ok,
        };
        self.log.lock().push(format!(
            "write[{}]:{:?}:{}{}@{}",
            c.token,
            c.status,
            if c.status == expect {
                "asexpected"
            } else {
                "UNEXPECTED"
            },
            if c.degraded { ":degraded" } else { "" },
            ctx.now().as_nanos()
        ));
    }

    // Small accessors so Delete can use the raw path.
    fn lib_machine(&self) -> SharedMachine {
        self.machine.clone()
    }
    fn lib_ep(&self) -> simnet::EndpointId {
        self.ep
    }
    fn lib_cpu(&self) -> CpuId {
        self.cpu
    }
}

impl Actor for TestClient {
    fn name(&self) -> &str {
        "test-client"
    }
    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Start>() {
            self.fire(ctx);
            let delay = self.lib.config().rpc_retry.delay(0);
            ctx.send_self(delay, RetryTick);
            return;
        }
        if msg.is::<RetryTick>() {
            // Re-send a stalled RPC step (write/read completions always
            // arrive; RPCs can be lost across a PMM takeover). Retries
            // back off exponentially up to the configured cap.
            if self.waiting {
                if let Some(
                    Step::Create { .. }
                    | Step::CreatePlaced { .. }
                    | Step::Open { .. }
                    | Step::Delete { .. },
                ) = self.steps.get(self.pos)
                {
                    self.retry_attempt += 1;
                    self.fire(ctx);
                }
            }
            if self.pos < self.steps.len() {
                let delay = self.lib.config().rpc_retry.delay(self.retry_attempt);
                ctx.send_self(delay, RetryTick);
            }
            return;
        }
        let msg = match msg.take::<DelayDone>() {
            Ok((_, d)) => {
                if self.waiting && d.pos == self.pos {
                    self.log.lock().push(format!("delay[{}]:done", d.pos));
                    self.advance(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<PmWriteTimeout>() {
            Ok((_, t)) => {
                if let Some(c) = self.lib.on_write_timeout(ctx, &t) {
                    self.log.lock().push(format!(
                        "write[{}]:{:?}:timeout@{}",
                        c.token,
                        c.status,
                        ctx.now().as_nanos()
                    ));
                    self.advance(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<PmReadTimeout>() {
            Ok((_, t)) => {
                if let Some(c) = self.lib.on_read_timeout(ctx, &t) {
                    self.log
                        .lock()
                        .push(format!("read[{}]:{:?}:timeout", c.token, c.status));
                    self.advance(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<RdmaWriteDone>() {
            Ok((_, done)) => {
                if let Some(c) = self.lib.on_rdma_write_done(ctx, &done) {
                    self.log_write_completion(ctx, &c);
                    self.advance(ctx);
                } else if let Some(Step::RawWrite { .. }) = self.steps.get(self.pos) {
                    self.log
                        .lock()
                        .push(format!("raw[{}]:{:?}", self.pos, done.status));
                    self.advance(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<RdmaReadDone>() {
            Ok((_, done)) => {
                // Persist-phase forcing reads (FlushOnRead) complete a
                // *write*, not a read.
                if let Some(c) = self.lib.on_persist_read_done(ctx, &done) {
                    self.log_write_completion(ctx, &c);
                    self.advance(ctx);
                    return;
                }
                if let Some(c) = self.lib.on_rdma_read_done(ctx, done) {
                    let verdict = match &self.steps[c.token as usize] {
                        Step::Read {
                            expect: Some(e), ..
                        }
                        | Step::ReadBatch {
                            expect: Some(e), ..
                        } => {
                            if c.data.as_ref() == &e[..] {
                                "match"
                            } else {
                                "MISMATCH"
                            }
                        }
                        _ => "nocheck",
                    };
                    self.log.lock().push(format!(
                        "read[{}]:{:?}:{}{}@{}",
                        c.token,
                        c.status,
                        verdict,
                        if c.degraded { ":degraded" } else { "" },
                        ctx.now().as_nanos()
                    ));
                    self.advance(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok((_, delivery)) = msg.take::<NetDelivery>() {
            let payload = match delivery.payload.downcast::<CreateRegionAck>() {
                Ok(ack) => {
                    if !self.waiting || ack.token != self.pos as u64 {
                        return; // stale duplicate from a retry
                    }
                    match ack.result {
                        Ok(info) => {
                            self.lib.adopt(info.clone());
                            self.opened.push(info);
                            self.log.lock().push(format!("create[{}]:ok", ack.token));
                        }
                        Err(e) => self
                            .log
                            .lock()
                            .push(format!("create[{}]:err:{:?}", ack.token, e)),
                    }
                    self.advance(ctx);
                    return;
                }
                Err(p) => p,
            };
            let payload = match payload.downcast::<OpenRegionAck>() {
                Ok(ack) => {
                    if !self.waiting || ack.token != self.pos as u64 {
                        return;
                    }
                    match ack.result {
                        Ok(info) => {
                            self.lib.adopt(info.clone());
                            self.opened.push(info);
                            self.log.lock().push(format!("open[{}]:ok", ack.token));
                        }
                        Err(e) => self
                            .log
                            .lock()
                            .push(format!("open[{}]:err:{:?}", ack.token, e)),
                    }
                    self.advance(ctx);
                    return;
                }
                Err(p) => p,
            };
            let payload = match payload.downcast::<DeleteRegionAck>() {
                Ok(ack) => {
                    if !self.waiting || ack.token != self.pos as u64 {
                        return;
                    }
                    self.log
                        .lock()
                        .push(format!("delete[{}]:{:?}", ack.token, ack.result.is_ok()));
                    self.advance(ctx);
                    return;
                }
                Err(p) => p,
            };
            if let Ok(ack) = payload.downcast::<CloseRegionAck>() {
                if self.waiting && ack.token == self.pos as u64 {
                    self.log
                        .lock()
                        .push(format!("close[{}]:{:?}", ack.token, ack.result));
                    self.advance(ctx);
                }
            }
        }
    }
}

/// A built scenario.
struct Scenario {
    sim: Sim,
    machine: SharedMachine,
    pmm: PmmHandle,
}

fn build(store: &mut DurableStore, seed: u64, backup: bool) -> Scenario {
    build_faulty(
        store,
        seed,
        backup,
        FaultPlan::none(),
        PmmConfig::default(),
        npmu::FailureMode::Nack,
    )
}

/// Like [`build`], with a fault plan armed (via the NSK monitor) and
/// custom PMM tuning / device failure mode.
fn build_faulty(
    store: &mut DurableStore,
    seed: u64,
    backup: bool,
    plan: FaultPlan,
    pmm_cfg: PmmConfig,
    fail_mode: npmu::FailureMode,
) -> Scenario {
    let mut sim = Sim::with_seed(seed);
    let net = Network::new(FabricConfig::default());
    let machine = Machine::new(
        MachineConfig {
            cpus: 6,
            ..MachineConfig::default()
        },
        net.clone(),
    );
    let dev = NpmuConfig::hardware(16 << 20).with_fail_mode(fail_mode);
    let a = Npmu::install(&mut sim, store, &net, Some(&machine), "pm-a", dev.clone());
    let b = Npmu::install(&mut sim, store, &net, Some(&machine), "pm-b", dev);
    let pmm = install_pmm_pool(
        &mut sim,
        &machine,
        "$PMM",
        &[(a, b)],
        CpuId(0),
        if backup { Some(CpuId(1)) } else { None },
        pmm_cfg,
    );
    Monitor::install(&mut sim, &machine, plan);
    Scenario { sim, machine, pmm }
}

fn spawn_client(
    sc: &mut Scenario,
    cpu: CpuId,
    steps: Vec<Step>,
    policy: MirrorPolicy,
) -> Shared<Vec<String>> {
    spawn_client_custom(sc, cpu, steps, policy, |lib| lib)
}

/// As [`spawn_client`], with a hook to tweak the library before install
/// (read routing, window size, timeouts …).
fn spawn_client_custom(
    sc: &mut Scenario,
    cpu: CpuId,
    steps: Vec<Step>,
    policy: MirrorPolicy,
    customize: impl FnOnce(PmLib) -> PmLib + 'static,
) -> Shared<Vec<String>> {
    let log = Shared::new(Vec::new());
    let machine = sc.machine.clone();
    let log2 = log.clone();
    nsk::machine::install_primary(
        &mut sc.sim,
        &machine.clone(),
        &format!("$client-cpu{}", cpu.0),
        cpu,
        move |ep| {
            Box::new(TestClient {
                lib: customize(PmLib::new(machine.clone(), ep, cpu, "$PMM").with_policy(policy)),
                steps,
                pos: 0,
                opened: Vec::new(),
                waiting: false,
                retry_attempt: 0,
                log: log2,
                machine: machine.clone(),
                ep,
                cpu,
            })
        },
    );
    log
}

#[test]
fn create_write_read_roundtrip_with_mirroring() {
    let mut store = DurableStore::new();
    let mut sc = build(&mut store, 42, true);
    let payload = vec![0xA5u8; 4096];
    let log = spawn_client(
        &mut sc,
        CpuId(2),
        vec![
            Step::Create {
                name: "audit0".into(),
                len: 1 << 20,
            },
            Step::Write {
                region_idx: 0,
                offset: 8192,
                data: payload.clone(),
                expect: RdmaStatus::Ok,
            },
            Step::Read {
                region_idx: 0,
                offset: 8192,
                len: 4096,
                expect: Some(payload),
            },
        ],
        MirrorPolicy::ParallelBoth,
    );
    sc.sim.run_until(SimTime(20 * SECS));
    let log = log.lock();
    assert_eq!(log.len(), 3, "{log:?}");
    assert!(log[0].contains("ok"));
    assert!(log[1].contains("Ok:asexpected"));
    assert!(log[2].contains("Ok:match"));
    // Both mirrors carry the data at the same physical offset.
    let info_base = {
        let m = sc.pmm.npmu_a.mem.lock();
        // Region was the first allocation: base = META_BYTES.

        m.read(pmm::META_BYTES + 8192, 4)
    };
    assert_eq!(info_base, vec![0xA5; 4]);
    let mirror = sc.pmm.npmu_b.mem.lock().read(pmm::META_BYTES + 8192, 4);
    assert_eq!(mirror, vec![0xA5; 4]);
}

#[test]
fn access_control_blocks_cpu_that_did_not_open() {
    let mut store = DurableStore::new();
    let mut sc = build(&mut store, 43, true);
    // Client A creates (and thus opens) on cpu 2.
    let log_a = spawn_client(
        &mut sc,
        CpuId(2),
        vec![Step::Create {
            name: "locked".into(),
            len: 1 << 16,
        }],
        MirrorPolicy::ParallelBoth,
    );
    sc.sim.run_until(SimTime(5 * SECS));
    assert!(log_a.lock()[0].contains("ok"));

    // Client B on cpu 3 *opens* (allowed) then a third on cpu 4 writes
    // without opening — rejected by the ATT.
    let log_b = spawn_client(
        &mut sc,
        CpuId(3),
        vec![
            Step::Open {
                name: "locked".into(),
            },
            Step::Write {
                region_idx: 0,
                offset: 0,
                data: vec![1; 64],
                expect: RdmaStatus::Ok,
            },
        ],
        MirrorPolicy::ParallelBoth,
    );
    sc.sim.run_until(SimTime(10 * SECS));
    let lb = log_b.lock();
    assert!(lb[0].contains("ok"), "{lb:?}");
    assert!(lb[1].contains("Ok:asexpected"), "{lb:?}");
    drop(lb);

    // cpu 4 steals the region info by opening, then closing, then writing:
    // after close its CPU is out of the filter, so the write must fail.
    // (Simpler equivalent: spawn a client that opens on cpu 4 but we
    // revoke by closing; covered in pmm close test. Here: unopened CPU.)
    let log_c = spawn_client(
        &mut sc,
        CpuId(4),
        vec![
            Step::Open {
                name: "locked".into(),
            },
            Step::Write {
                region_idx: 0,
                offset: 0,
                data: vec![2; 64],
                expect: RdmaStatus::Ok,
            },
        ],
        MirrorPolicy::ParallelBoth,
    );
    sc.sim.run_until(SimTime(20 * SECS));
    assert!(log_c.lock()[1].contains("Ok:asexpected"));
}

/// §3's region API is create / open / close / delete; close is the one
/// with no other caller in the tree. Closing takes the calling CPU out of
/// the region's ATT window on the devices, so a write from that endpoint
/// that the window admitted a moment ago is now an access violation; a
/// second close finds nothing open; re-opening restores access.
#[test]
fn close_revokes_the_closing_cpus_window_until_it_reopens() {
    let mut store = DurableStore::new();
    let mut sc = build(&mut store, 46, true);
    let log = spawn_client(
        &mut sc,
        CpuId(2),
        vec![
            Step::Create {
                name: "c".into(),
                len: 1 << 16,
            },
            Step::RawWrite { region_idx: 0 },
            Step::Close { region_idx: 0 },
            Step::RawWrite { region_idx: 0 },
            Step::Close { region_idx: 0 },
            Step::Open { name: "c".into() },
            Step::RawWrite { region_idx: 1 },
            Step::Write {
                region_idx: 1,
                offset: 64,
                data: vec![7; 64],
                expect: RdmaStatus::Ok,
            },
        ],
        MirrorPolicy::ParallelBoth,
    );
    sc.sim.run_until(SimTime(20 * SECS));
    let log = log.lock();
    assert_eq!(log.len(), 8, "{log:?}");
    assert_eq!(log[0], "create[0]:ok");
    assert_eq!(log[1], "raw[1]:Ok", "an open region admits its CPU");
    assert_eq!(log[2], "close[2]:Ok(())");
    assert_eq!(log[3], "raw[3]:AccessViolation", "the window is gone");
    assert_eq!(log[4], "close[4]:Err(NotOpen)");
    assert_eq!(log[5], "open[5]:ok");
    assert_eq!(log[6], "raw[6]:Ok", "re-opened");
    assert!(log[7].contains("Ok:asexpected"), "{log:?}");
}

#[test]
fn write_without_any_mapping_is_rejected() {
    // A region is created by cpu 2; a client on cpu 5 fabricates access by
    // adopting the region info without opening. The ATT must reject.
    let mut store = DurableStore::new();
    let mut sc = build(&mut store, 44, false);
    let log_a = spawn_client(
        &mut sc,
        CpuId(2),
        vec![Step::Create {
            name: "private".into(),
            len: 1 << 16,
        }],
        MirrorPolicy::ParallelBoth,
    );
    sc.sim.run_until(SimTime(5 * SECS));
    assert!(log_a.lock()[0].contains("ok"));

    // Forged client: open gives it the info, but we test the *filter* by
    // writing from an unopened CPU via a raw write actor.
    struct Forger {
        machine: SharedMachine,
        ep: simnet::EndpointId,
        dev: simnet::EndpointId,
        nva: u64,
        log: Shared<Vec<String>>,
    }
    impl Actor for Forger {
        fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            if msg.is::<Start>() {
                let net = self.machine.lock().net.clone();
                simnet::rdma_write(
                    ctx,
                    &net,
                    self.ep,
                    self.dev,
                    self.nva,
                    Bytes::from(vec![9u8; 32]),
                    1,
                    simnet::TrafficClass::Commit,
                );
                return;
            }
            if let Ok((_, d)) = msg.take::<RdmaWriteDone>() {
                self.log.lock().push(format!("{:?}", d.status));
            }
        }
    }
    let flog = Shared::new(Vec::new());
    let machine = sc.machine.clone();
    let dev = sc.pmm.npmu_a.ep;
    let flog2 = flog.clone();
    nsk::machine::install_primary(
        &mut sc.sim,
        &machine.clone(),
        "$forger",
        CpuId(5),
        move |ep| {
            Box::new(Forger {
                machine: machine.clone(),
                ep,
                dev,
                nva: pmm::META_BYTES, // the region's base
                log: flog2,
            })
        },
    );
    sc.sim.run_until(SimTime(10 * SECS));
    assert_eq!(flog.lock()[0], "AccessViolation");
}

#[test]
fn pmm_failover_preserves_service_and_regions() {
    let mut store = DurableStore::new();
    let mut sc = build(&mut store, 45, true);
    // Kill the PMM primary at t=3s, between the client's operations.
    Monitor::install(
        &mut sc.sim,
        &sc.machine,
        FaultPlan::none().with(Fault::KillProcess {
            name: "$PMM".into(),
            at: SimTime(3 * SECS),
        }),
    );
    let data = vec![0x77u8; 1024];
    let log = spawn_client(
        &mut sc,
        CpuId(2),
        vec![
            Step::Create {
                name: "ft".into(),
                len: 1 << 18,
            },
            // Data-path op during/after the failover window: unaffected,
            // since the PMM is not on the data path.
            Step::Write {
                region_idx: 0,
                offset: 0,
                data: data.clone(),
                expect: RdmaStatus::Ok,
            },
            Step::Read {
                region_idx: 0,
                offset: 0,
                len: 1024,
                expect: Some(data),
            },
            // Management op after the takeover: served by the promoted
            // backup (requires checkpointed metadata).
            Step::Open { name: "ft".into() },
        ],
        MirrorPolicy::ParallelBoth,
    );
    sc.sim.run_until(SimTime(30 * SECS));
    let log = log.lock();
    assert_eq!(log.len(), 4, "{log:?}");
    assert!(log[3].contains("ok"), "open after takeover failed: {log:?}");
}

#[test]
fn metadata_survives_power_loss() {
    let mut store = DurableStore::new();
    let payload = vec![0x3Cu8; 512];
    {
        let mut sc = build(&mut store, 46, true);
        let log = spawn_client(
            &mut sc,
            CpuId(2),
            vec![
                Step::Create {
                    name: "durable-region".into(),
                    len: 1 << 16,
                },
                Step::Write {
                    region_idx: 0,
                    offset: 256,
                    data: payload.clone(),
                    expect: RdmaStatus::Ok,
                },
            ],
            MirrorPolicy::ParallelBoth,
        );
        sc.sim.run_until(SimTime(10 * SECS));
        assert_eq!(log.lock().len(), 2);
        // Power loss: sim dropped here.
    }
    store.reset_volatile();
    // Reboot: fresh sim, same durable store. The PMM must recover the
    // region table from NPMU metadata; the client reopens and reads.
    let mut sc = build(&mut store, 47, true);
    let log = spawn_client(
        &mut sc,
        CpuId(2),
        vec![
            Step::Open {
                name: "durable-region".into(),
            },
            Step::Read {
                region_idx: 0,
                offset: 256,
                len: 512,
                expect: Some(payload),
            },
        ],
        MirrorPolicy::ParallelBoth,
    );
    sc.sim.run_until(SimTime(10 * SECS));
    let log = log.lock();
    assert_eq!(log.len(), 2, "{log:?}");
    assert!(log[0].contains("ok"), "{log:?}");
    assert!(log[1].contains("match"), "{log:?}");
}

/// Latency of a steady-state mirrored 4 KB write under `policy`, jitter
/// off: the second of two back-to-back writes, so the first has absorbed
/// any one-off path switch the fault plan causes.
fn steady_write_ns(policy: MirrorPolicy, plan: FaultPlan) -> u64 {
    let mut store = DurableStore::new();
    let mut sc = build_faulty(
        &mut store,
        48,
        false,
        plan,
        PmmConfig::default(),
        npmu::FailureMode::Nack,
    );
    sc.machine.lock().net.lock().cfg.jitter_frac = 0.0;
    let write = |offset| Step::Write {
        region_idx: 0,
        offset,
        data: vec![1; 4096],
        expect: RdmaStatus::Ok,
    };
    let create = Step::Create {
        name: "r".into(),
        len: 1 << 16,
    };
    let steps = vec![create, write(0), write(4096)];
    let log = spawn_client(&mut sc, CpuId(2), steps, policy);
    sc.sim.run_until_idle();
    let log = log.lock();
    assert_eq!(log.len(), 3, "{log:?}");
    // Write-completion timestamps are appended as "@<ns>"; the second
    // write is posted in the event that completes the first.
    let at = |line: &String| line.rsplit('@').next().unwrap().parse::<u64>().unwrap();
    at(&log[2]) - at(&log[1])
}

/// The two legs of a parallel mirrored write ride separate fabrics, so
/// mirroring costs no serial wire time over writing one half; writing the
/// halves one after the other still costs a whole second round trip.
#[test]
fn sequential_mirroring_slower_than_parallel() {
    let wire = simnet::latency::wire_ns(&FabricConfig::default(), 4096);
    let par = steady_write_ns(MirrorPolicy::ParallelBoth, FaultPlan::none());
    let seq = steady_write_ns(MirrorPolicy::SequentialBoth, FaultPlan::none());
    let one = steady_write_ns(MirrorPolicy::PrimaryOnly, FaultPlan::none());
    assert!(seq > par, "seq {seq} !> par {par}");
    assert!(seq >= 2 * one, "seq {seq} is not two round trips of {one}");
    assert!(par >= one, "par {par} < one {one}");
    assert!(
        par < one + wire,
        "par {par} vs one {one}: a wire time {wire}"
    );
}

/// With either fabric down both legs share the survivor's transmit port:
/// the second leg queues one wire time behind the first, as it did when
/// every endpoint had a single port.
#[test]
fn parallel_mirroring_serializes_on_one_port_with_a_fabric_down() {
    let wire = simnet::latency::wire_ns(&FabricConfig::default(), 4096);
    for fabric in [0, 1] {
        let outage = || {
            FaultPlan::none().with(Fault::FabricDown {
                fabric,
                from: SimTime(0),
                to: SimTime(3600 * SECS),
            })
        };
        let par = steady_write_ns(MirrorPolicy::ParallelBoth, outage());
        let one = steady_write_ns(MirrorPolicy::PrimaryOnly, outage());
        assert!(
            par >= one + wire,
            "fabric {fabric} down: par {par} vs one {one}, wire {wire}"
        );
    }
}

/// A PMM primary that parks an op on a `CheckpointAck` must learn that
/// its backup died. Kill the backup's CPU at every instant of a burst of
/// namespace RPCs — including those where a checkpoint is on its way to
/// it — with client retries off: every RPC of every step is answered.
#[test]
fn a_dead_pmm_backup_never_strands_an_rpc_parked_on_its_checkpoint_ack() {
    const REGIONS: usize = 6;
    let steps: Vec<Step> = (0..REGIONS)
        .flat_map(|i| {
            let name = format!("r{i}");
            [
                Step::Create {
                    name: name.clone(),
                    len: 1 << 16,
                },
                Step::Open { name },
            ]
        })
        .collect();
    // Unfaulted pass: how long the burst takes.
    let burst_ns = {
        let mut store = DurableStore::new();
        let mut sc = build(&mut store, 61, true);
        let log = spawn_client(&mut sc, CpuId(2), steps.clone(), MirrorPolicy::ParallelBoth);
        while log.lock().len() < 2 * REGIONS {
            let next = sc.sim.dispatched() + 1;
            sc.sim.run_until_dispatched(next);
        }
        sc.sim.now().as_nanos()
    };
    let answered_with_backup_killed_at = |at: SimTime| {
        let plan = FaultPlan::none().with(Fault::KillCpu { cpu: 1, at });
        let mut store = DurableStore::new();
        let mut sc = build_faulty(
            &mut store,
            61,
            true,
            plan,
            PmmConfig::default(),
            npmu::FailureMode::Nack,
        );
        let never = SimDuration::from_secs(3600);
        let log = spawn_client_custom(
            &mut sc,
            CpuId(2),
            steps.clone(),
            MirrorPolicy::ParallelBoth,
            move |lib| {
                let cfg = PmClientConfig {
                    rpc_retry: Backoff::new(never, never),
                    ..*lib.config()
                };
                lib.with_config(cfg)
            },
        );
        sc.sim.run_until(SimTime(10 * SECS));
        let answered = log.lock().iter().filter(|l| l.ends_with(":ok")).count();
        answered
    };
    let stuck: Vec<(u64, usize)> = (0..=burst_ns / 10_000)
        .filter_map(|step| {
            let answered = answered_with_backup_killed_at(SimTime(step * 10_000));
            (answered != 2 * REGIONS).then_some((step, answered))
        })
        .collect();
    assert!(
        stuck.is_empty(),
        "(step, RPCs answered of {}) that never finished: {stuck:?}",
        2 * REGIONS
    );
}

#[test]
fn create_duplicate_rejected_and_open_if_exists_accepted() {
    let mut store = DurableStore::new();
    let mut sc = build(&mut store, 50, false);
    let log = spawn_client(
        &mut sc,
        CpuId(2),
        vec![
            Step::Create {
                name: "dup".into(),
                len: 1 << 16,
            },
            Step::Create {
                name: "dup".into(),
                len: 1 << 16,
            },
        ],
        MirrorPolicy::ParallelBoth,
    );
    sc.sim.run_until(SimTime(10 * SECS));
    let log = log.lock();
    assert!(log[0].contains("ok"), "{log:?}");
    assert!(log[1].contains("err:AlreadyExists"), "{log:?}");
}

#[test]
fn volume_exhaustion_returns_no_space() {
    let mut store = DurableStore::new();
    let mut sc = build(&mut store, 51, false);
    // Devices are 16 MB; ask for more than the data area.
    let log = spawn_client(
        &mut sc,
        CpuId(2),
        vec![
            Step::Create {
                name: "big".into(),
                len: 14 << 20,
            },
            Step::Create {
                name: "toobig".into(),
                len: 4 << 20,
            },
        ],
        MirrorPolicy::ParallelBoth,
    );
    sc.sim.run_until(SimTime(10 * SECS));
    let log = log.lock();
    assert!(log[0].contains("ok"), "{log:?}");
    assert!(log[1].contains("err:NoSpace"), "{log:?}");
}

#[test]
fn delete_frees_space_and_unmaps() {
    let mut store = DurableStore::new();
    let mut sc = build(&mut store, 52, false);
    let log = spawn_client(
        &mut sc,
        CpuId(2),
        vec![
            Step::Create {
                name: "victim".into(),
                len: 12 << 20,
            },
            Step::Delete {
                name: "victim".into(),
            },
            // Space reclaimed: an allocation of the same size fits again.
            Step::Create {
                name: "reuse".into(),
                len: 12 << 20,
            },
            // And the deleted name is open-able no more.
            Step::Open {
                name: "victim".into(),
            },
        ],
        MirrorPolicy::ParallelBoth,
    );
    sc.sim.run_until(SimTime(20 * SECS));
    let log = log.lock();
    assert!(log[0].contains("ok"), "{log:?}");
    assert!(log[1].contains("true"), "delete must succeed: {log:?}");
    assert!(log[2].contains("ok"), "space must be reclaimed: {log:?}");
    assert!(log[3].contains("err:NotFound"), "{log:?}");
}

#[test]
fn open_unknown_region_not_found() {
    let mut store = DurableStore::new();
    let mut sc = build(&mut store, 53, false);
    let log = spawn_client(
        &mut sc,
        CpuId(2),
        vec![Step::Open {
            name: "ghost".into(),
        }],
        MirrorPolicy::ParallelBoth,
    );
    sc.sim.run_until(SimTime(10 * SECS));
    assert!(log.lock()[0].contains("err:NotFound"));
}

// --- mirror-failure tolerance ----------------------------------------------

/// Read every byte of a region from both device images and compare.
fn mirror_halves_equal(pmm: &PmmHandle, base: u64, len: u64) -> bool {
    let a = pmm.npmu_a.mem.lock().read(base, len as usize);
    let b = pmm.npmu_b.mem.lock().read(base, len as usize);
    a == b
}

#[test]
fn write_completes_degraded_when_mirror_half_down() {
    let mut store = DurableStore::new();
    let plan = FaultPlan::none().with(Fault::NpmuDown {
        volume_half: 1,
        from: SimTime(0),
        to: SimTime(100 * SECS),
    });
    let mut sc = build_faulty(
        &mut store,
        60,
        true,
        plan,
        PmmConfig::default(),
        npmu::FailureMode::Nack,
    );
    let payload = vec![0x5Au8; 4096];
    let log = spawn_client(
        &mut sc,
        CpuId(2),
        vec![
            Step::Create {
                name: "deg".into(),
                len: 1 << 20,
            },
            Step::Write {
                region_idx: 0,
                offset: 0,
                data: payload.clone(),
                expect: RdmaStatus::Ok,
            },
            Step::Read {
                region_idx: 0,
                offset: 0,
                len: 4096,
                expect: Some(payload.clone()),
            },
        ],
        MirrorPolicy::ParallelBoth,
    );
    sc.sim.run_until(SimTime(5 * SECS));
    let log = log.lock();
    assert_eq!(log.len(), 3, "{log:?}");
    assert!(log[0].contains("ok"), "{log:?}");
    // The paper's contract holds — the call returned success — but the
    // completion is flagged degraded: only the survivor holds the bytes.
    assert!(log[1].contains("Ok:asexpected:degraded"), "{log:?}");
    assert!(log[2].contains("Ok:match"), "{log:?}");
    // Survivor has the data; the dead half was never touched.
    let a = sc.pmm.npmu_a.mem.lock().read(pmm::META_BYTES, 4);
    let b = sc.pmm.npmu_b.mem.lock().read(pmm::META_BYTES, 4);
    assert_eq!(a, vec![0x5A; 4]);
    assert_ne!(b, vec![0x5A; 4]);
    // The PMM learned about the failure from its own metadata legs.
    let stats = sc.pmm.stats.lock();
    assert_eq!(stats.degraded_events, 1);
    assert!(stats.meta_leg_failures > 0);
}

#[test]
fn read_fails_over_to_mirror_when_primary_half_dies() {
    let mut store = DurableStore::new();
    // Healthy while the region is created and written; the primary half
    // then dies and the first (unsuspecting) read must fail over.
    let plan = FaultPlan::none().with(Fault::NpmuDown {
        volume_half: 0,
        from: SimTime(2 * SECS),
        to: SimTime(100 * SECS),
    });
    let mut sc = build_faulty(
        &mut store,
        61,
        true,
        plan,
        PmmConfig::default(),
        npmu::FailureMode::Nack,
    );
    let payload = vec![0xC3u8; 2048];
    let log = spawn_client(
        &mut sc,
        CpuId(2),
        vec![
            Step::Create {
                name: "fo".into(),
                len: 1 << 20,
            },
            Step::Write {
                region_idx: 0,
                offset: 512,
                data: payload.clone(),
                expect: RdmaStatus::Ok,
            },
            Step::Delay {
                dur: SimDuration::from_millis(3000),
            },
            Step::Read {
                region_idx: 0,
                offset: 512,
                len: 2048,
                expect: Some(payload),
            },
        ],
        MirrorPolicy::ParallelBoth,
    );
    sc.sim.run_until(SimTime(10 * SECS));
    let log = log.lock();
    assert_eq!(log.len(), 4, "{log:?}");
    assert!(log[1].contains("Ok:asexpected"), "{log:?}");
    assert!(!log[1].contains("degraded"), "write was healthy: {log:?}");
    // The read hit the dead primary, failed over, and still returned the
    // data — flagged degraded.
    assert!(log[3].contains("Ok:match:degraded"), "{log:?}");
    // The client's failure report made the PMM probe and degrade.
    let stats = sc.pmm.stats.lock();
    assert!(stats.failure_reports >= 1, "{stats:?}");
    assert_eq!(stats.degraded_events, 1, "{stats:?}");
}

#[test]
fn silent_drop_half_completes_write_via_timeout() {
    let mut store = DurableStore::new();
    let plan = FaultPlan::none().with(Fault::NpmuDown {
        volume_half: 1,
        from: SimTime(0),
        to: SimTime(100 * SECS),
    });
    let mut sc = build_faulty(
        &mut store,
        62,
        false,
        plan,
        PmmConfig::default(),
        npmu::FailureMode::SilentDrop,
    );
    let log = spawn_client(
        &mut sc,
        CpuId(2),
        vec![
            Step::Create {
                name: "drop".into(),
                len: 1 << 18,
            },
            Step::Write {
                region_idx: 0,
                offset: 0,
                data: vec![7u8; 1024],
                expect: RdmaStatus::Ok,
            },
        ],
        MirrorPolicy::ParallelBoth,
    );
    sc.sim.run_until(SimTime(5 * SECS));
    let log = log.lock();
    assert_eq!(log.len(), 2, "{log:?}");
    assert!(log[0].contains("ok"), "{log:?}");
    // No NACK ever arrives; the client's own timer fires and the write
    // completes against the survivor's ack.
    assert!(
        log[1].contains("Ok") && log[1].contains("timeout"),
        "{log:?}"
    );
    assert_eq!(sc.pmm.stats.lock().degraded_events, 1);
}

#[test]
fn pmm_resilvers_revived_half_and_mirrors_converge() {
    let mut store = DurableStore::new();
    // Mirror half down for a window mid-run: writes land degraded on the
    // survivor, then the half revives with stale contents and the PMM
    // copies it back to parity.
    let plan = FaultPlan::none().with(Fault::NpmuDown {
        volume_half: 1,
        from: SimTime(2_000_000), // 2 ms
        to: SimTime(50_000_000),  // 50 ms
    });
    let mut sc = build_faulty(
        &mut store,
        63,
        true,
        plan,
        PmmConfig::default(),
        npmu::FailureMode::Nack,
    );
    let healthy = vec![0x11u8; 4096];
    let degraded = vec![0x22u8; 4096];
    let log = spawn_client(
        &mut sc,
        CpuId(2),
        vec![
            Step::Create {
                name: "rs".into(),
                len: 2 << 20,
            },
            Step::Write {
                region_idx: 0,
                offset: 0,
                data: healthy.clone(),
                expect: RdmaStatus::Ok,
            },
            Step::Delay {
                dur: SimDuration::from_millis(4),
            },
            // Inside the outage: survivor-only.
            Step::Write {
                region_idx: 0,
                offset: 8192,
                data: degraded.clone(),
                expect: RdmaStatus::Ok,
            },
        ],
        MirrorPolicy::ParallelBoth,
    );
    sc.sim.run_until(SimTime(5 * SECS));
    let log = log.lock();
    assert_eq!(log.len(), 4, "{log:?}");
    assert!(log[3].contains("Ok:asexpected:degraded"), "{log:?}");
    let stats = *sc.pmm.stats.lock();
    assert_eq!(stats.degraded_events, 1, "{stats:?}");
    assert!(stats.probes_sent >= 1, "{stats:?}");
    assert_eq!(stats.resilvers_started, 1, "{stats:?}");
    assert_eq!(stats.resilvers_completed, 1, "{stats:?}");
    // Both halves digested the whole allocated range (one 2 MB region),
    // and only the chunk the outage dirtied was copied back.
    assert!(stats.resilver_bytes_digested >= 2 * (2 << 20), "{stats:?}");
    assert_eq!(
        stats.resilver_bytes_copied,
        PmmConfig::default().resilver_chunk as u64,
        "{stats:?}"
    );
    // Both the degraded-era write and the full region are now mirrored.
    let b = sc.pmm.npmu_b.mem.lock().read(pmm::META_BYTES + 8192, 4096);
    assert_eq!(b, degraded);
    assert!(mirror_halves_equal(&sc.pmm, pmm::META_BYTES, 2 << 20));
}

#[test]
fn write_during_resilvering_lands_on_both_halves() {
    let mut store = DurableStore::new();
    let plan = FaultPlan::none().with(Fault::NpmuDown {
        volume_half: 1,
        from: SimTime(2_000_000), // 2 ms
        to: SimTime(10_000_000),  // 10 ms
    });
    // Tiny chunks + a big region dirtied end to end inside the outage
    // stretch the resilver so a foreground write provably overlaps it; a
    // fast probe finds the revival quickly.
    let cfg = PmmConfig {
        probe_interval: SimDuration::from_millis(10),
        resilver_chunk: 4096,
        ..PmmConfig::default()
    };
    let mut sc = build_faulty(&mut store, 64, true, plan, cfg, npmu::FailureMode::Nack);
    let during = vec![0x99u8; 4096];
    let log = spawn_client(
        &mut sc,
        CpuId(2),
        vec![
            Step::Create {
                name: "online".into(),
                len: 4 << 20,
            },
            Step::Delay {
                dur: SimDuration::from_millis(4),
            },
            // Inside the outage: makes the volume degraded, and every one
            // of its 1024 chunks divergent (one chain, 64 B a chunk).
            Step::WriteBatch {
                region_idx: 0,
                parts: (0..1024).map(|i| (i * 4096, vec![1u8; 64])).collect(),
            },
            // Past revival (10 ms) and probe (≤ ~20 ms), well inside the
            // multi-millisecond chunk-by-chunk resilver of 4 MB.
            Step::Delay {
                dur: SimDuration::from_millis(20),
            },
            Step::Write {
                region_idx: 0,
                offset: 2 << 20,
                data: during.clone(),
                expect: RdmaStatus::Ok,
            },
        ],
        MirrorPolicy::ParallelBoth,
    );
    sc.sim.run_until(SimTime(5 * SECS));
    let log = log.lock();
    assert_eq!(log.len(), 5, "{log:?}");
    assert!(log[2].contains("degraded"), "{log:?}");
    // The during-resilver write was *not* degraded: both halves acked.
    assert!(log[4].contains("Ok:asexpected"), "{log:?}");
    assert!(!log[4].contains("degraded"), "{log:?}");
    let write_ns: u64 = log[4].rsplit('@').next().unwrap().parse().unwrap();
    let stats = *sc.pmm.stats.lock();
    assert_eq!(stats.resilvers_completed, 1, "{stats:?}");
    assert!(
        stats.resilver_started_ns < write_ns && write_ns < stats.resilver_completed_ns,
        "write at {write_ns} must land inside the resilver window \
         [{}, {}]",
        stats.resilver_started_ns,
        stats.resilver_completed_ns
    );
    // It reached both halves — directly, not via the copy.
    let a = sc
        .pmm
        .npmu_a
        .mem
        .lock()
        .read(pmm::META_BYTES + (2 << 20), 4096);
    let b = sc
        .pmm
        .npmu_b
        .mem
        .lock()
        .read(pmm::META_BYTES + (2 << 20), 4096);
    assert_eq!(a, during);
    assert_eq!(b, during);
    assert!(mirror_halves_equal(&sc.pmm, pmm::META_BYTES, 4 << 20));
}

/// A resilver must converge *under* a writer that rewrites a small cell
/// in place (a log's watermark cell), not only once the writer goes
/// quiet. A chunk copy is stale by its own round trip, so right after a
/// re-copy the revived half holds an older cell than the survivor; the
/// foreground rewrites it on both halves a moment later. A verify that
/// re-copied on that first mismatch would manufacture the next one and
/// never finish (and, the mirror legs landing together, no other chunk
/// would diverge by chance to break the rhythm).
#[test]
fn resilver_converges_under_a_cell_rewritten_in_place() {
    const CELL_WRITES: usize = 6000;
    let mut store = DurableStore::new();
    let plan = FaultPlan::none().with(Fault::NpmuDown {
        volume_half: 1,
        from: SimTime(2_000_000),
        to: SimTime(10_000_000),
    });
    let cfg = PmmConfig {
        probe_interval: SimDuration::from_millis(10),
        ..PmmConfig::default()
    };
    let mut sc = build_faulty(&mut store, 65, true, plan, cfg, npmu::FailureMode::Nack);
    // One resilver chunk, so nothing else is verified (or found divergent
    // by chance) between the cell's copy and its verify.
    let region_len = PmmConfig::default().resilver_chunk as u64;
    let mut steps = vec![
        Step::Create {
            name: "trail".into(),
            len: region_len,
        },
        Step::Delay {
            dur: SimDuration::from_millis(4),
        },
    ];
    // Back to back, one cell write every ~15 µs: through the outage (the
    // first one degrades the volume), the revival probe and the resilver.
    // The cell has two slots written alternately, like the ADP's.
    steps.extend((0..CELL_WRITES).map(|i| Step::Write {
        region_idx: 0,
        offset: 16 * (i as u64 % 2),
        data: (i as u128).to_le_bytes().to_vec(),
        expect: RdmaStatus::Ok,
    }));
    let log = spawn_client(&mut sc, CpuId(2), steps, MirrorPolicy::ParallelBoth);
    sc.sim.run_until(SimTime(5 * SECS));
    let log = log.lock();
    assert_eq!(log.len(), 2 + CELL_WRITES);
    let at = |line: &String| line.rsplit('@').next().unwrap().parse::<u64>().unwrap();
    let (first_write_ns, last_write_ns) = (at(&log[2]), at(log.last().unwrap()));
    let stats = *sc.pmm.stats.lock();
    assert_eq!(stats.resilvers_completed, 1, "{stats:?}");
    assert!(
        first_write_ns < stats.resilver_started_ns && stats.resilver_completed_ns < last_write_ns,
        "the resilver [{}, {}] must finish while the cell is still being \
         rewritten [{first_write_ns}, {last_write_ns}]",
        stats.resilver_started_ns,
        stats.resilver_completed_ns
    );
    assert!(mirror_halves_equal(&sc.pmm, pmm::META_BYTES, region_len));
}

/// Outage over 2–10 ms with a 10 ms probe, as the tests below use it.
fn short_outage_cfg() -> (FaultPlan, PmmConfig) {
    let plan = FaultPlan::none().with(Fault::NpmuDown {
        volume_half: 1,
        from: SimTime(2_000_000),
        to: SimTime(10_000_000),
    });
    let cfg = PmmConfig {
        probe_interval: SimDuration::from_millis(10),
        ..PmmConfig::default()
    };
    (plan, cfg)
}

/// Repair is proportional to divergence: of a 12 MiB region, the three
/// chunks rewritten inside the outage are copied, and digesting is
/// bounded by one look at everything allocated plus at most four at what
/// was copied (after a copy: a look, and a second before any re-copy).
#[test]
fn resilver_copies_only_the_chunks_an_outage_dirtied() {
    const REGION: u64 = 12 << 20;
    let chunk = PmmConfig::default().resilver_chunk as u64;
    let mut store = DurableStore::new();
    let (plan, cfg) = short_outage_cfg();
    let mut sc = build_faulty(&mut store, 67, true, plan, cfg, npmu::FailureMode::Nack);
    let mut steps = vec![
        Step::Create {
            name: "sparse".into(),
            len: REGION,
        },
        Step::Delay {
            dur: SimDuration::from_millis(4),
        },
    ];
    steps.extend([3, 17, 40].map(|c| Step::Write {
        region_idx: 0,
        offset: c * chunk + 100,
        data: vec![0xE7; 4096],
        expect: RdmaStatus::Ok,
    }));
    let log = spawn_client(&mut sc, CpuId(2), steps, MirrorPolicy::ParallelBoth);
    sc.sim.run_until(SimTime(5 * SECS));
    assert!(log.lock()[4].contains("Ok:asexpected:degraded"));
    let stats = *sc.pmm.stats.lock();
    assert_eq!(stats.resilvers_completed, 1, "{stats:?}");
    assert_eq!(stats.resilver_bytes_copied, 3 * chunk, "{stats:?}");
    assert!(
        stats.resilver_bytes_digested <= 2 * (REGION + 4 * stats.resilver_bytes_copied),
        "{stats:?}"
    );
    assert!(stats.resilver_bytes_digested >= 2 * REGION, "{stats:?}");
    assert!(mirror_halves_equal(&sc.pmm, pmm::META_BYTES, REGION));
}

/// A half that comes back *blank* (the device was replaced) is repaired
/// by the same path: every chunk that holds data mismatches and is
/// copied, and the mirrors end byte-equal.
#[test]
fn blank_replacement_half_is_copied_whole() {
    const CHUNKS: u64 = 8;
    let chunk = PmmConfig::default().resilver_chunk as u64;
    let mut store = DurableStore::new();
    let plan = FaultPlan::none().with(Fault::NpmuDown {
        volume_half: 1,
        from: SimTime(40_000_000),
        to: SimTime(50_000_000),
    });
    let cfg = PmmConfig {
        probe_interval: SimDuration::from_millis(10),
        ..PmmConfig::default()
    };
    let mut sc = build_faulty(&mut store, 68, true, plan, cfg, npmu::FailureMode::Nack);
    let mut steps = vec![Step::Create {
        name: "full".into(),
        len: CHUNKS * chunk,
    }];
    // Mirrored, ~2 ms on the wire each: every chunk holds data.
    steps.extend((0..CHUNKS).map(|c| Step::Write {
        region_idx: 0,
        offset: c * chunk,
        data: (0..chunk).map(|i| (i % 251) as u8 + 1).collect(),
        expect: RdmaStatus::Ok,
    }));
    steps.push(Step::Delay {
        dur: SimDuration::from_millis(25),
    });
    // Inside the outage: the PMM learns of it.
    steps.push(Step::Write {
        region_idx: 0,
        offset: 0,
        data: vec![0xB1; 512],
        expect: RdmaStatus::Ok,
    });
    let log = spawn_client(&mut sc, CpuId(2), steps, MirrorPolicy::ParallelBoth);
    // Mid-outage, swap half "b" for a blank device.
    sc.sim.run_until(SimTime(48_000_000));
    assert!(
        log.lock()
            .last()
            .unwrap()
            .contains("Ok:asexpected:degraded"),
        "{log:?}"
    );
    let cap = sc.pmm.npmu_b.mem.lock().capacity();
    *sc.pmm.npmu_b.mem.lock() = npmu::NvImage::new(cap);
    sc.sim.run_until(SimTime(5 * SECS));
    let stats = *sc.pmm.stats.lock();
    assert_eq!(stats.resilvers_completed, 1, "{stats:?}");
    assert_eq!(stats.resilver_bytes_copied, CHUNKS * chunk, "{stats:?}");
    assert!(mirror_halves_equal(
        &sc.pmm,
        pmm::META_BYTES,
        CHUNKS * chunk
    ));
}

/// The clean marks rest on every foreground write reaching both halves.
/// A client report that a leg to the half under repair failed says one
/// did not: the run digests the whole range once more — exactly once —
/// before it declares the member healthy.
#[test]
fn failure_report_mid_resilver_voids_the_clean_marks() {
    const REGION: u64 = 4 << 20;
    let run = |report: bool| {
        let mut store = DurableStore::new();
        let (plan, cfg) = short_outage_cfg();
        let mut sc = build_faulty(&mut store, 69, true, plan, cfg, npmu::FailureMode::Nack);
        let mut steps = vec![
            Step::Create {
                name: "void".into(),
                len: REGION,
            },
            Step::Delay {
                dur: SimDuration::from_millis(4),
            },
            Step::Write {
                region_idx: 0,
                offset: 0,
                data: vec![0x3C; 4096],
                expect: RdmaStatus::Ok,
            },
        ];
        if report {
            // Past revival and probe, into the ~10 ms the repair takes.
            steps.push(Step::Delay {
                dur: SimDuration::from_millis(14),
            });
            steps.push(Step::ReportFailure {
                region_idx: 0,
                half: 1,
            });
        }
        let log = spawn_client(&mut sc, CpuId(2), steps, MirrorPolicy::ParallelBoth);
        sc.sim.run_until(SimTime(5 * SECS));
        let stats = *sc.pmm.stats.lock();
        assert_eq!(stats.resilvers_started, 1, "{stats:?}");
        assert_eq!(stats.resilvers_completed, 1, "{stats:?}");
        assert!(mirror_halves_equal(&sc.pmm, pmm::META_BYTES, REGION));
        let reported_at = report.then(|| ts(log.lock().last().unwrap()));
        (stats, reported_at)
    };
    let (quiet, _) = run(false);
    let (voided, reported_at) = run(true);
    let at = reported_at.unwrap();
    assert!(
        voided.resilver_started_ns < at && at < quiet.resilver_completed_ns,
        "report at {at} must land inside the repair [{}, {}]",
        voided.resilver_started_ns,
        quiet.resilver_completed_ns
    );
    assert_eq!(voided.resilver_bytes_copied, quiet.resilver_bytes_copied);
    assert_eq!(
        voided.resilver_bytes_digested,
        quiet.resilver_bytes_digested + 2 * REGION,
        "one more look at the whole range, on both halves"
    );
    assert_eq!(
        voided.resilver_extra_passes,
        quiet.resilver_extra_passes + 1
    );
}

#[test]
fn degraded_state_survives_power_loss_and_resilver_resumes() {
    let mut store = DurableStore::new();
    let payload = vec![0xABu8; 4096];
    {
        // Half 1 stays down for the whole first boot: the volume ends the
        // run durably Degraded.
        let plan = FaultPlan::none().with(Fault::NpmuDown {
            volume_half: 1,
            from: SimTime(0),
            to: SimTime(1000 * SECS),
        });
        let mut sc = build_faulty(
            &mut store,
            65,
            true,
            plan,
            PmmConfig::default(),
            npmu::FailureMode::Nack,
        );
        let log = spawn_client(
            &mut sc,
            CpuId(2),
            vec![
                Step::Create {
                    name: "boot".into(),
                    len: 1 << 20,
                },
                Step::Write {
                    region_idx: 0,
                    offset: 0,
                    data: payload.clone(),
                    expect: RdmaStatus::Ok,
                },
            ],
            MirrorPolicy::ParallelBoth,
        );
        sc.sim.run_until(SimTime(2 * SECS));
        assert!(log.lock()[1].contains("degraded"));
        assert_eq!(sc.pmm.stats.lock().resilvers_started, 0);
    }
    store.reset_volatile();
    // Reboot with both devices healthy. The PMM recovers the Degraded
    // state from the survivor's metadata, probes, and resilvers.
    let mut sc = build(&mut store, 66, true);
    sc.sim.run_until(SimTime(2 * SECS));
    let stats = *sc.pmm.stats.lock();
    assert_eq!(stats.resilvers_started, 1, "{stats:?}");
    assert_eq!(stats.resilvers_completed, 1, "{stats:?}");
    let b = sc.pmm.npmu_b.mem.lock().read(pmm::META_BYTES, 4096);
    assert_eq!(b, payload, "degraded-era write must reach the revived half");
    assert!(mirror_halves_equal(&sc.pmm, pmm::META_BYTES, 1 << 20));
}

// --- batched reads, windowing and routing ----------------------------------

/// Completion timestamp appended to a log line as "@<ns>".
fn ts(line: &str) -> u64 {
    line.rsplit('@').next().unwrap().parse().unwrap()
}

#[test]
fn read_batch_reassembles_spans_in_argument_order_and_quiesces() {
    let mut store = DurableStore::new();
    let mut sc = build(&mut store, 70, false);
    let p1 = vec![0x11u8; 4096];
    let p2 = vec![0x22u8; 4096];
    // Spans submitted high-offset first: the completion buffer must be
    // concatenated in argument order, not offset order.
    let mut expect = p2.clone();
    expect.extend_from_slice(&p1);
    let log = spawn_client(
        &mut sc,
        CpuId(2),
        vec![
            Step::Create {
                name: "batch".into(),
                len: 1 << 20,
            },
            Step::Write {
                region_idx: 0,
                offset: 0,
                data: p1.clone(),
                expect: RdmaStatus::Ok,
            },
            Step::Write {
                region_idx: 0,
                offset: 16384,
                data: p2.clone(),
                expect: RdmaStatus::Ok,
            },
            Step::ReadBatch {
                region_idx: 0,
                spans: vec![(16384, 4096), (0, 4096)],
                expect: Some(expect),
            },
            Step::CheckQuiesced,
        ],
        MirrorPolicy::ParallelBoth,
    );
    sc.sim.run_until(SimTime(10 * SECS));
    let log = log.lock();
    assert_eq!(log.len(), 5, "{log:?}");
    assert!(log[3].contains("Ok:match"), "{log:?}");
    // Satellite invariant: once the run retires, every completion map
    // (read_map, rdma_map) has been purged — nothing leaks across runs.
    assert_eq!(log[4], "quiesced:true", "{log:?}");
}

/// A read of one fragment hands back the device's reply as is: written
/// bytes where they were written, zeros around them, at the run's length.
#[test]
fn one_fragment_read_returns_the_devices_bytes() {
    let mut store = DurableStore::new();
    let mut sc = build(&mut store, 72, false);
    let pattern: Vec<u8> = (0..5000u32).map(|i| (i * 7 % 251) as u8).collect();
    let mut expect = vec![0u8; 12 << 10];
    expect[100..100 + pattern.len()].copy_from_slice(&pattern);
    let log = spawn_client(
        &mut sc,
        CpuId(2),
        vec![
            Step::Create {
                name: "one".into(),
                len: 1 << 20,
            },
            Step::Write {
                region_idx: 0,
                offset: 4096 + 100,
                data: pattern,
                expect: RdmaStatus::Ok,
            },
            Step::Read {
                region_idx: 0,
                offset: 4096,
                len: 12 << 10,
                expect: Some(expect),
            },
            Step::CheckQuiesced,
        ],
        MirrorPolicy::ParallelBoth,
    );
    sc.sim.run_until(SimTime(10 * SECS));
    let log = log.lock();
    assert_eq!(log.len(), 4, "{log:?}");
    assert!(log[2].contains("Ok:match"), "{log:?}");
    assert_eq!(log[3], "quiesced:true", "{log:?}");
}

#[test]
fn read_window_pipelines_small_fragments() {
    // 16 × 64 B spans are latency-bound (sw overhead ≫ wire time), so a
    // window of 8 overlaps round trips that window 1 pays serially.
    let run = |window: u32| -> u64 {
        let mut store = DurableStore::new();
        let mut sc = build(&mut store, 71, false);
        let payload = vec![0x5Cu8; 1024];
        let spans: Vec<(u64, u32)> = (0..16).map(|i| (i * 64, 64)).collect();
        let log = spawn_client_custom(
            &mut sc,
            CpuId(2),
            vec![
                Step::Create {
                    name: "win".into(),
                    len: 1 << 20,
                },
                Step::Write {
                    region_idx: 0,
                    offset: 0,
                    data: payload.clone(),
                    expect: RdmaStatus::Ok,
                },
                Step::ReadBatch {
                    region_idx: 0,
                    spans,
                    expect: Some(payload),
                },
                Step::CheckQuiesced,
            ],
            MirrorPolicy::ParallelBoth,
            move |lib| {
                lib.with_config(PmClientConfig {
                    read_window: window,
                    ..PmClientConfig::default()
                })
            },
        );
        sc.sim.run_until_idle();
        let log = log.lock();
        assert_eq!(log.len(), 4, "{log:?}");
        assert!(log[2].contains("Ok:match"), "{log:?}");
        assert_eq!(log[3], "quiesced:true", "{log:?}");
        ts(&log[2]) - ts(&log[1])
    };
    let d1 = run(1);
    let d8 = run(8);
    assert!(
        d1 >= 3 * d8,
        "window 8 ({d8} ns) must pipeline ≥3× over lock-step ({d1} ns)"
    );
}

#[test]
fn balanced_routing_doubles_bulk_read_bandwidth() {
    // 8 × 128 KiB spans are wire-bound: with every read on the primary
    // half they serialize on one device port; round-robin (and adaptive
    // exploration) spreads them across both halves' ports.
    let run = |routing: ReadRouting| -> u64 {
        let mut store = DurableStore::new();
        let mut sc = build(&mut store, 72, false);
        let spans: Vec<(u64, u32)> = (0..8).map(|i| (i * (128 << 10), 128 << 10)).collect();
        let log = spawn_client_custom(
            &mut sc,
            CpuId(2),
            vec![
                Step::Create {
                    name: "bal".into(),
                    len: 2 << 20,
                },
                Step::Write {
                    region_idx: 0,
                    offset: 0,
                    data: vec![9u8; 64],
                    expect: RdmaStatus::Ok,
                },
                Step::ReadBatch {
                    region_idx: 0,
                    spans,
                    expect: None,
                },
            ],
            MirrorPolicy::ParallelBoth,
            move |lib| lib.with_read_routing(routing),
        );
        sc.sim.run_until_idle();
        let log = log.lock();
        assert_eq!(log.len(), 3, "{log:?}");
        assert!(log[2].contains("Ok:nocheck"), "{log:?}");
        ts(&log[2]) - ts(&log[1])
    };
    let primary = run(ReadRouting::PrimaryOnly);
    let balanced = run(ReadRouting::RoundRobin);
    let adaptive = run(ReadRouting::Adaptive);
    assert!(
        primary * 2 >= balanced * 3,
        "round-robin ({balanced} ns) must beat primary-only ({primary} ns) by ≥1.5×"
    );
    assert!(
        primary * 10 >= adaptive * 14,
        "adaptive ({adaptive} ns) must beat primary-only ({primary} ns) by ≥1.4×"
    );
}

#[test]
fn both_suspect_reads_go_to_least_recently_suspected_half() {
    // Half 0 dies at t=2 s and stays down. Suspect state is injected
    // directly (no failure reports, so the PMM never fences anything):
    // with BOTH halves suspect the library must route to the half that
    // was suspected longest ago — not silently to half 0.
    let mut store = DurableStore::new();
    let plan = FaultPlan::none().with(Fault::NpmuDown {
        volume_half: 0,
        from: SimTime(2 * SECS),
        to: SimTime(100 * SECS),
    });
    let mut sc = build_faulty(
        &mut store,
        73,
        false,
        plan,
        PmmConfig::default(),
        npmu::FailureMode::Nack,
    );
    let payload = vec![0x7Du8; 2048];
    let log = spawn_client(
        &mut sc,
        CpuId(2),
        vec![
            Step::Create {
                name: "bs".into(),
                len: 1 << 20,
            },
            Step::Write {
                region_idx: 0,
                offset: 0,
                data: payload.clone(),
                expect: RdmaStatus::Ok,
            },
            Step::Delay {
                dur: SimDuration::from_millis(2500),
            },
            // Half 1 suspected longest ago → it gets the read. It is
            // alive, so the read serves directly (no failover).
            Step::ForceSuspect {
                region_idx: 0,
                half: 1,
                at_ns: 1,
            },
            Step::ForceSuspect {
                region_idx: 0,
                half: 0,
                at_ns: 2,
            },
            Step::Read {
                region_idx: 0,
                offset: 0,
                len: 2048,
                expect: Some(payload.clone()),
            },
            // Tie-break reversed: half 0 is now least-recently-suspected,
            // gets the read, NACKs (it is down) and the read fails over.
            Step::ForceSuspect {
                region_idx: 0,
                half: 0,
                at_ns: 10,
            },
            Step::ForceSuspect {
                region_idx: 0,
                half: 1,
                at_ns: 20,
            },
            Step::Read {
                region_idx: 0,
                offset: 0,
                len: 2048,
                expect: Some(payload),
            },
            Step::CheckQuiesced,
        ],
        MirrorPolicy::ParallelBoth,
    );
    sc.sim.run_until(SimTime(10 * SECS));
    let log = log.lock();
    assert_eq!(log.len(), 6, "{log:?}");
    // First read: routed to the live, least-recently-suspected half 1 —
    // served directly, NOT via failover.
    assert!(log[3].contains("Ok:match"), "{log:?}");
    assert!(!log[3].contains("degraded"), "{log:?}");
    // Second read: routed to dead half 0 first, failed over to half 1.
    assert!(log[4].contains("Ok:match:degraded"), "{log:?}");
    assert_eq!(log[5], "quiesced:true", "{log:?}");
}

// --- persistence modes ------------------------------------------------------

use simnet::PersistMode;

fn mode_cfg(mode: PersistMode) -> PmClientConfig {
    PmClientConfig {
        persist_mode: mode,
        ..PmClientConfig::default()
    }
}

#[test]
fn flush_modes_complete_ok_and_pay_extra_latency() {
    let run = |mode: PersistMode| -> (u64, u64) {
        let mut store = DurableStore::new();
        let mut sc = build(&mut store, 80, false);
        let log = spawn_client_custom(
            &mut sc,
            CpuId(2),
            vec![
                Step::Create {
                    name: "pm".into(),
                    len: 1 << 18,
                },
                Step::Write {
                    region_idx: 0,
                    offset: 0,
                    data: vec![0x42; 2048],
                    expect: RdmaStatus::Ok,
                },
                Step::CheckQuiesced,
            ],
            MirrorPolicy::ParallelBoth,
            move |lib| lib.with_config(mode_cfg(mode)),
        );
        sc.sim.run_until_idle();
        let log = log.lock();
        assert_eq!(log.len(), 3, "{log:?}");
        assert!(log[1].contains("Ok:asexpected"), "{log:?}");
        assert!(!log[1].contains("degraded"), "{log:?}");
        assert_eq!(log[2], "quiesced:true", "{log:?}");
        let flushes = sc.pmm.npmu_a.stats.lock().flushes + sc.pmm.npmu_b.stats.lock().flushes;
        let net = sc.machine.lock().net.clone();
        assert_eq!(net.lock().stats.rdma_flushes, 0, "no standalone flush verb");
        (ts(&log[1]), flushes)
    };
    let (nic, f_nic) = run(PersistMode::NicAck);
    let (fread, f_read) = run(PersistMode::FlushOnRead);
    let (flush, f_flush) = run(PersistMode::PersistFlush);
    // Only `PersistFlush` chains carry the device persist fence: one per
    // touched half.
    assert_eq!(f_nic, 0);
    assert_eq!(f_read, 0);
    assert_eq!(f_flush, 2, "one fence per touched half");
    // Honesty costs something in both flush modes — but the fence rides
    // the chain's own round trip (device flush cost only), while the
    // forcing read pays a second one.
    assert!(flush > nic, "PersistFlush {flush} !> NicAck {nic}");
    assert!(fread > flush, "FlushOnRead {fread} !> PersistFlush {flush}");
    assert!(
        flush - nic < 5_000,
        "fence cost a round trip: {}",
        flush - nic
    );
}

#[test]
fn persist_flush_write_degrades_when_half_down() {
    let mut store = DurableStore::new();
    let plan = FaultPlan::none().with(Fault::NpmuDown {
        volume_half: 1,
        from: SimTime(0),
        to: SimTime(100 * SECS),
    });
    let mut sc = build_faulty(
        &mut store,
        81,
        false,
        plan,
        PmmConfig::default(),
        npmu::FailureMode::Nack,
    );
    let log = spawn_client_custom(
        &mut sc,
        CpuId(2),
        vec![
            Step::Create {
                name: "deg".into(),
                len: 1 << 18,
            },
            Step::Write {
                region_idx: 0,
                offset: 0,
                data: vec![0x21; 1024],
                expect: RdmaStatus::Ok,
            },
            Step::CheckQuiesced,
        ],
        MirrorPolicy::ParallelBoth,
        |lib| lib.with_config(mode_cfg(PersistMode::PersistFlush)),
    );
    sc.sim.run_until(SimTime(5 * SECS));
    let log = log.lock();
    assert_eq!(log.len(), 3, "{log:?}");
    // One half NACKed its fenced chain whole: the write completes Ok
    // (the survivor's ack proved its chain persistent) but degraded.
    assert!(log[1].contains("Ok:asexpected:degraded"), "{log:?}");
    assert_eq!(log[2], "quiesced:true", "{log:?}");
    assert_eq!(sc.pmm.npmu_a.stats.lock().flushes, 1);
    assert_eq!(sc.pmm.npmu_b.stats.lock().flushes, 0);
    let a = sc.pmm.npmu_a.mem.lock().read(pmm::META_BYTES, 4);
    assert_eq!(a, vec![0x21; 4]);
}

/// Two-member pool (4 devices), no faults.
fn build_pool2(store: &mut DurableStore, seed: u64) -> Scenario {
    build_pool2_faulty(store, seed, FaultPlan::none())
}

fn build_pool2_faulty(store: &mut DurableStore, seed: u64, plan: FaultPlan) -> Scenario {
    let mut sim = Sim::with_seed(seed);
    let net = Network::new(FabricConfig::default());
    let machine = Machine::new(
        MachineConfig {
            cpus: 6,
            ..MachineConfig::default()
        },
        net.clone(),
    );
    let volumes: Vec<_> = (0..2u32)
        .map(|v| {
            let dev = NpmuConfig::hardware(16 << 20).with_volume(v);
            let mut half = |h: &str| {
                let name = format!("pool{v}-{h}");
                Npmu::install(&mut sim, store, &net, Some(&machine), &name, dev.clone())
            };
            (half("a"), half("b"))
        })
        .collect();
    let pmm = pmm::install_pmm_pool(
        &mut sim,
        &machine,
        "$PMM",
        &volumes,
        CpuId(0),
        None,
        PmmConfig::default(),
    );
    Monitor::install(&mut sim, &machine, plan);
    Scenario { sim, machine, pmm }
}

/// A `Solo` region lives whole on one member of the pool, so a batch
/// whose data straddles what would be a stripe-unit boundary still goes
/// out as ONE fenced chain per mirror half, publish part last — and the
/// other member sees nothing.
#[test]
fn solo_region_batch_is_one_fenced_chain_per_half_cell_last() {
    const UNIT: u64 = 64 << 10;
    let mut store = DurableStore::new();
    let mut sc = build_pool2(&mut store, 83);
    let log = spawn_client_custom(
        &mut sc,
        CpuId(2),
        vec![
            Step::CreatePlaced {
                name: "trail".into(),
                len: 8 * UNIT,
                placement: pmm::PlacementHint::Solo,
            },
            Step::WriteBatch {
                region_idx: 0,
                parts: vec![
                    (UNIT - 256, vec![0xD1; 512]),
                    (2 * UNIT + 4096, vec![0xD2; 512]),
                    (0, vec![0xC1; 16]),
                ],
            },
            Step::CheckQuiesced,
        ],
        MirrorPolicy::ParallelBoth,
        |lib| lib.with_config(mode_cfg(PersistMode::PersistFlush)),
    );
    sc.sim.run_until_idle();
    let log = log.lock();
    assert!(log[1].contains("write[1]:Ok:asexpected"), "{log:?}");
    assert_eq!(log[2], "quiesced:true", "{log:?}");
    // Only client chains carry a fence (the PMM's metadata writes do
    // not), so fences count chains: ONE per half on the member holding
    // the region, none on the other.
    let fences = |v: &(npmu::NpmuHandle, npmu::NpmuHandle)| {
        (v.0.stats.lock().flushes, v.1.stats.lock().flushes)
    };
    let (holder, other) = match fences(&sc.pmm.volumes[0]) {
        (0, 0) => (&sc.pmm.volumes[1], &sc.pmm.volumes[0]),
        _ => (&sc.pmm.volumes[0], &sc.pmm.volumes[1]),
    };
    assert_eq!(fences(holder), (1, 1));
    assert_eq!(fences(other), (0, 0));
    // The extent starts right after the metadata: the cell landed behind
    // data on both sides of the would-be stripe boundary.
    for h in [&holder.0, &holder.1] {
        let mem = h.mem.lock();
        assert_eq!(mem.read(pmm::META_BYTES, 16), vec![0xC1; 16]);
        assert_eq!(mem.read(pmm::META_BYTES + UNIT - 256, 512), vec![0xD1; 512]);
        assert_eq!(
            mem.read(pmm::META_BYTES + 2 * UNIT + 4096, 4),
            vec![0xD2; 4]
        );
    }
}

/// One ordered channel means one member volume: on a striped region a
/// publish part on another member than its data cannot be ordered behind
/// it, and the library refuses instead of posting it un-chained.
#[test]
#[should_panic(expected = "publish part must share one member volume")]
fn publish_part_on_another_member_than_its_data_panics() {
    const UNIT: u64 = 64 << 10;
    let mut store = DurableStore::new();
    let mut sc = build_pool2(&mut store, 83);
    spawn_client_custom(
        &mut sc,
        CpuId(2),
        vec![
            Step::CreatePlaced {
                name: "trail".into(),
                len: 8 * UNIT,
                placement: pmm::PlacementHint::Striped { unit: UNIT },
            },
            // Data in stripe chunk 1 (member 1), "cell" on member 0.
            Step::WriteBatch {
                region_idx: 0,
                parts: vec![(UNIT + 4096, vec![0xD3; 512]), (0, vec![0xC2; 16])],
            },
        ],
        MirrorPolicy::ParallelBoth,
        |lib| lib.with_config(mode_cfg(PersistMode::PersistFlush)),
    );
    sc.sim.run_until_idle();
}

#[test]
fn pmm_takeover_mid_degradation_still_resilvers() {
    let mut store = DurableStore::new();
    // Half 1 down until t=3 s; the PMM primary is killed at t=1 s while
    // the volume is degraded. The promoted backup must pick up the
    // checkpointed health state and run the resilver after revival.
    let plan = FaultPlan::none()
        .with(Fault::NpmuDown {
            volume_half: 1,
            from: SimTime(0),
            to: SimTime(3 * SECS),
        })
        .with(Fault::KillProcess {
            name: "$PMM".into(),
            at: SimTime(SECS),
        });
    let mut sc = build_faulty(
        &mut store,
        67,
        true,
        plan,
        PmmConfig::default(),
        npmu::FailureMode::Nack,
    );
    let payload = vec![0xEEu8; 2048];
    let log = spawn_client(
        &mut sc,
        CpuId(2),
        vec![
            Step::Create {
                name: "tk".into(),
                len: 1 << 20,
            },
            Step::Write {
                region_idx: 0,
                offset: 4096,
                data: payload.clone(),
                expect: RdmaStatus::Ok,
            },
        ],
        MirrorPolicy::ParallelBoth,
    );
    sc.sim.run_until(SimTime(10 * SECS));
    assert!(log.lock()[1].contains("degraded"));
    let stats = *sc.pmm.stats.lock();
    assert_eq!(stats.resilvers_completed, 1, "{stats:?}");
    let b = sc.pmm.npmu_b.mem.lock().read(pmm::META_BYTES + 4096, 2048);
    assert_eq!(b, payload);
    assert!(mirror_halves_equal(&sc.pmm, pmm::META_BYTES, 1 << 20));
}
