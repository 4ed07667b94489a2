//! Acceptance tests for the mirror-balanced read path under resilvering:
//!
//! * balanced reads issued concurrently with an online resilver must
//!   never observe pre-failure (stale) bytes — the PMM's ATT read fence
//!   forces them onto the fresh half until the verify pass passes;
//! * if the surviving half dies mid-resilver, reads complete in error —
//!   they neither hang nor return stale bytes.

use bytes::Bytes;
use npmu::{Npmu, NpmuConfig};
use nsk::machine::{CpuId, Machine, MachineConfig, SharedMachine};
use nsk::Monitor;
use pm_bench::outage::{self, OutageWrites};
use pmclient::{MirrorPolicy, PmLib, PmReadTimeout, PmWriteTimeout, ReadRouting};
use pmm::msgs::{CreateRegionAck, RegionInfo};
use pmm::{install_pmm_pool, PmmConfig, PmmHandle};
use simcore::actor::Start;
use simcore::fault::{Fault, FaultPlan};
use simcore::time::{MILLIS, SECS};
use simcore::{Actor, Ctx, DurableStore, Msg, Shared, Sim, SimDuration, SimTime};
use simnet::{FabricConfig, NetDelivery, Network, RdmaReadDone, RdmaStatus, RdmaWriteDone};

const REGION_LEN: u64 = 8 << 20;
/// Resilver chunk size in both tests.
const CHUNK: u32 = 64 << 10;
const BLOCK: u32 = 4096;
const PATTERN_A: u8 = 0xAA;
const PATTERN_B: u8 = 0xB7;

#[derive(Default, Debug)]
struct ReaderStats {
    reads_issued: u64,
    reads_ok: u64,
    reads_err: u64,
    /// Ok reads whose bytes did NOT match the latest acked write — the
    /// stale-read count the fence must keep at zero.
    mismatches: u64,
    /// Completion times (ns) of Ok reads, for overlap assertions.
    ok_ns: Vec<u64>,
    writes_done: u64,
}

type SharedReaderStats = Shared<ReaderStats>;

#[derive(Clone, Copy, PartialEq)]
enum Stage {
    Creating,
    WriteHealthy,
    WaitOutage,
    WriteDegraded,
    ReadLoop,
}

struct Tick;
struct OutageReached;

/// Scripted client: create → write A (healthy) → write B over it inside
/// the outage → hammer single-block reads on a fixed cadence, checking
/// every Ok completion against the latest acked contents (B).
struct Reader {
    lib: PmLib,
    stage: Stage,
    region: Option<RegionInfo>,
    outstanding: bool,
    next_tok: u64,
    degraded_write_at: SimDuration,
    read_interval: SimDuration,
    stop_reads_at: u64,
    stats: SharedReaderStats,
}

impl Reader {
    fn expect(&self) -> u8 {
        PATTERN_B
    }

    fn issue_read(&mut self, ctx: &mut Ctx<'_>) {
        let id = self.region.as_ref().unwrap().region_id;
        let tok = self.next_tok;
        self.next_tok += 1;
        self.outstanding = true;
        self.stats.lock().reads_issued += 1;
        self.lib.read(ctx, id, 0, BLOCK, tok);
    }

    fn on_read_complete(&mut self, ctx: &mut Ctx<'_>, status: RdmaStatus, data: &[u8]) {
        self.outstanding = false;
        let mut st = self.stats.lock();
        if status == RdmaStatus::Ok {
            st.reads_ok += 1;
            st.ok_ns.push(ctx.now().as_nanos());
            if data.len() != BLOCK as usize || data.iter().any(|&b| b != self.expect()) {
                st.mismatches += 1;
            }
        } else {
            st.reads_err += 1;
        }
    }

    fn on_write_complete(&mut self, ctx: &mut Ctx<'_>) {
        self.stats.lock().writes_done += 1;
        match self.stage {
            Stage::WriteHealthy => {
                self.stage = Stage::WaitOutage;
                let now = ctx.now().as_nanos();
                let wait = self.degraded_write_at.as_nanos().saturating_sub(now).max(1);
                ctx.send_self(SimDuration::from_nanos(wait), OutageReached);
            }
            Stage::WriteDegraded => {
                self.stage = Stage::ReadLoop;
                ctx.send_self(self.read_interval, Tick);
            }
            _ => {}
        }
    }
}

impl Actor for Reader {
    fn name(&self) -> &str {
        "resilver-reader"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Start>() {
            self.lib.create_region(ctx, "rd", REGION_LEN, false, 0);
            return;
        }
        if msg.is::<OutageReached>() {
            if self.stage == Stage::WaitOutage {
                self.stage = Stage::WriteDegraded;
                let id = self.region.as_ref().unwrap().region_id;
                self.lib
                    .write(ctx, id, 0, Bytes::from(vec![PATTERN_B; BLOCK as usize]), 2);
            }
            return;
        }
        if msg.is::<Tick>() {
            if self.stage == Stage::ReadLoop && ctx.now().as_nanos() < self.stop_reads_at {
                if !self.outstanding {
                    self.issue_read(ctx);
                }
                ctx.send_self(self.read_interval, Tick);
            }
            return;
        }
        let msg = match msg.take::<PmWriteTimeout>() {
            Ok((_, t)) => {
                if self.lib.on_write_timeout(ctx, &t).is_some() {
                    self.on_write_complete(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<PmReadTimeout>() {
            Ok((_, t)) => {
                if let Some(c) = self.lib.on_read_timeout(ctx, &t) {
                    self.on_read_complete(ctx, c.status, &c.data);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<RdmaWriteDone>() {
            Ok((_, done)) => {
                if self.lib.on_rdma_write_done(ctx, &done).is_some() {
                    self.on_write_complete(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<RdmaReadDone>() {
            Ok((_, done)) => {
                if let Some(c) = self.lib.on_rdma_read_done(ctx, done) {
                    self.on_read_complete(ctx, c.status, &c.data);
                }
                return;
            }
            Err(m) => m,
        };
        if let Ok((_, delivery)) = msg.take::<NetDelivery>() {
            if let Ok(ack) = delivery.payload.downcast::<CreateRegionAck>() {
                let info = ack.result.expect("create must succeed");
                self.lib.adopt(info.clone());
                self.region = Some(info);
                self.stage = Stage::WriteHealthy;
                let id = self.region.as_ref().unwrap().region_id;
                self.lib
                    .write(ctx, id, 0, Bytes::from(vec![PATTERN_A; BLOCK as usize]), 1);
            }
        }
    }
}

struct Scenario {
    sim: Sim,
    machine: SharedMachine,
    pmm: PmmHandle,
}

/// Both tests take half 1 out over 10–30 ms. The reader's one block
/// would repair in a single chunk, so an outage writer dirties every
/// chunk of an 8 MiB scratch region beside it: ≈ 17 ms of scan and
/// ≈ 75 ms of copy for the reads (and the second fault) to land in.
fn build(store: &mut DurableStore, seed: u64, plan: FaultPlan) -> Scenario {
    let cfg = PmmConfig {
        probe_interval: SimDuration::from_millis(5),
        resilver_chunk: CHUNK,
        ..PmmConfig::default()
    };
    let mut sim = Sim::with_seed(seed);
    let net = Network::new(FabricConfig::default());
    let machine = Machine::new(
        MachineConfig {
            cpus: 6,
            ..MachineConfig::default()
        },
        net.clone(),
    );
    let dev = NpmuConfig::hardware(32 << 20).with_fail_mode(npmu::FailureMode::Nack);
    let a = Npmu::install(&mut sim, store, &net, Some(&machine), "pm-a", dev.clone());
    let b = Npmu::install(&mut sim, store, &net, Some(&machine), "pm-b", dev);
    let pmm = install_pmm_pool(&mut sim, &machine, "$PMM", &[(a, b)], CpuId(0), None, cfg);
    Monitor::install(&mut sim, &machine, plan);
    let writes = OutageWrites {
        region: "scratch",
        len: REGION_LEN,
        placement: pmm::PlacementHint::Auto,
        at: SimTime(12 * MILLIS),
        span: REGION_LEN,
        stride: CHUNK as u64,
    };
    outage::install(&mut sim, &machine, CpuId(3), "$PMM", writes);
    Scenario { sim, machine, pmm }
}

fn spawn_reader(sc: &mut Scenario, stop_reads_at_ns: u64) -> SharedReaderStats {
    let stats: SharedReaderStats = Shared::new(ReaderStats::default());
    let st2 = stats.clone();
    let machine = sc.machine.clone();
    nsk::machine::install_primary(
        &mut sc.sim,
        &machine.clone(),
        "$reader",
        CpuId(2),
        move |ep| {
            Box::new(Reader {
                lib: PmLib::new(machine.clone(), ep, CpuId(2), "$PMM")
                    .with_policy(MirrorPolicy::ParallelBoth)
                    .with_read_routing(ReadRouting::RoundRobin),
                stage: Stage::Creating,
                region: None,
                outstanding: false,
                next_tok: 10,
                degraded_write_at: SimDuration::from_millis(12),
                read_interval: SimDuration::from_nanos(200_000),
                stop_reads_at: stop_reads_at_ns,
                stats: st2,
            })
        },
    );
    stats
}

#[test]
fn balanced_reads_during_resilver_never_observe_stale_bytes() {
    // Half 1 dies at 10 ms and revives, stale, at 30 ms: the degraded-era
    // write (pattern B) exists only on half 0 until the resilver copies
    // it over. Balanced reads run across the whole revival + resilver;
    // the read fence must keep every Ok completion on fresh bytes.
    let plan = FaultPlan::none().with(Fault::NpmuDown {
        volume_half: 1,
        from: SimTime(10 * MILLIS),
        to: SimTime(30 * MILLIS),
    });
    let mut store = DurableStore::new();
    let mut sc = build(&mut store, 0xbead, plan);
    let stats = spawn_reader(&mut sc, 150 * MILLIS);
    sc.sim.run_until(SimTime(2 * SECS));

    let pmm_stats = *sc.pmm.stats.lock();
    assert_eq!(pmm_stats.degraded_events, 1, "{pmm_stats:?}");
    assert_eq!(pmm_stats.resilvers_started, 1, "{pmm_stats:?}");
    assert_eq!(pmm_stats.resilvers_completed, 1, "{pmm_stats:?}");

    let st = stats.lock();
    assert_eq!(st.writes_done, 2, "{st:?}");
    assert_eq!(st.mismatches, 0, "stale bytes observed: {st:?}");
    assert_eq!(st.reads_issued, st.reads_ok + st.reads_err, "{st:?}");
    // The survivor always held the data, so no read had to fail outright.
    assert_eq!(st.reads_err, 0, "{st:?}");
    assert!(st.reads_ok > 100, "{st:?}");
    // Reads genuinely overlapped the resilver (copy + verify window).
    let during = st
        .ok_ns
        .iter()
        .filter(|&&ns| pmm_stats.resilver_started_ns < ns && ns < pmm_stats.resilver_completed_ns)
        .count();
    assert!(
        during > 10,
        "only {during} reads inside the resilver window [{}, {}]: {st:?}",
        pmm_stats.resilver_started_ns,
        pmm_stats.resilver_completed_ns
    );
    // And the mirrors converged under them.
    let report = pmem::verify_mirrors(&sc.pmm.npmu_a.mem, &sc.pmm.npmu_b.mem, 8);
    assert!(report.is_clean(), "mirrors diverged: {report:?}");
}

#[test]
fn survivor_death_mid_resilver_fails_reads_cleanly() {
    // Half 1 is out 10–30 ms; the resilver onto it starts ~35 ms, has
    // found what diverged by ~52 ms and needs ~75 ms to copy it — and the
    // SURVIVOR (half 0) dies at 70 ms, mid-copy. The resilver must abort,
    // and client reads must complete in error: no hangs, and never stale
    // pattern-A bytes.
    let plan = FaultPlan::none()
        .with(Fault::NpmuDown {
            volume_half: 1,
            from: SimTime(10 * MILLIS),
            to: SimTime(30 * MILLIS),
        })
        .with(Fault::NpmuDown {
            volume_half: 0,
            from: SimTime(70 * MILLIS),
            to: SimTime(10 * SECS),
        });
    let mut store = DurableStore::new();
    let mut sc = build(&mut store, 0xdead, plan);
    let stats = spawn_reader(&mut sc, 200 * MILLIS);
    sc.sim.run_until(SimTime(2 * SECS));

    let pmm_stats = *sc.pmm.stats.lock();
    assert!(pmm_stats.resilvers_started >= 1, "{pmm_stats:?}");
    assert_eq!(
        pmm_stats.resilvers_completed, 0,
        "resilver cannot complete without its source: {pmm_stats:?}"
    );
    // It died mid-copy: part of what diverged had been copied, not all.
    assert!(
        0 < pmm_stats.resilver_bytes_copied && pmm_stats.resilver_bytes_copied < REGION_LEN,
        "{pmm_stats:?}"
    );

    let st = stats.lock();
    assert_eq!(st.mismatches, 0, "stale bytes observed: {st:?}");
    // Every read issued reached a completion — none hung.
    assert_eq!(st.reads_issued, st.reads_ok + st.reads_err, "{st:?}");
    // Reads succeeded while the survivor lived, then failed cleanly once
    // both halves were gone (dead survivor + fenced stale half).
    assert!(st.reads_ok > 10, "{st:?}");
    assert!(st.reads_err > 10, "{st:?}");
    // No Ok read arrived once the survivor was gone: the fence kept the
    // stale half closed. Replies served just before the cut can drain
    // several ms late (queued behind 64 KiB resilver bulk replies on the
    // device port), hence the generous grace bound.
    let late_ok = st.ok_ns.iter().filter(|&&ns| ns > 85 * MILLIS).count();
    assert_eq!(late_ok, 0, "{st:?}");
}
