//! The recovery matrix: topology × persistence mode × fabric QoS × fault.
//! A cell runs 60 ms of disjoint-key load (8 clients, 4 inserts per
//! transaction, after the 1.1 s warmup) under its fault twice: to its
//! healed end — repairs done, a DR pipe drained — where it is cut with
//! every invariant of `pmem::oracle` on; then cutting the *live* store at
//! every distinct boundary of its repair and of its fault window, held to
//! what the first run committed. `Snapshot::read` reads only non-volatile
//! images, which is what a power cut there leaves; a verdict is a function
//! of those bytes and the acked set, so a cut is taken only where the
//! acked count or [`Trails::media_writes`] moved. One cut in
//! [`REPLAY_EVERY`], and every failing one, is replayed from scratch — the
//! `Sim` dropped, the store's volatile side reset — to the same verdict.

// Each test binary that includes the harness uses part of it.
#![allow(dead_code)]

use nsk::machine::{SharedMachine, WatchTarget};
use nsk::ProcessDied;
use pmem::oracle::{Expect, Report, Snapshot, Trails};
use pmem::{NpmuHandle, PmmHandle, PmmStats};
use simcore::fault::{Fault, FaultPlan};
use simcore::time::MILLIS;
use simcore::{DurableStore, Sim, SimDuration, SimTime};
use simnet::{PersistMode, QosConfig, SharedNetwork};
use std::collections::BTreeSet;
use txnkit::georep::SharedShipperStats;
use txnkit::scenario::{build_cluster, build_georep, build_ods, AuditMode};
use txnkit::scenario::{ClusterParams, GeorepParams, OdsNode, OdsParams};
use txnkit::{Lsn, SharedTxnStats, TxnId};
use workload::{install_workload, Keys, SharedWorkloadStats, ThinkTime, WorkloadConfig};
use FaultKind::*;
use PersistMode::*;
use Topology::*;

const SEED: u64 = 0x3A7C;
const INSERTS: u32 = 4;
/// The fault window, inside the workload's 1.1–1.16 s of load.
const FAULT_FROM: SimTime = SimTime(1_120 * MILLIS);
const FAULT_TO: SimTime = SimTime(1_150 * MILLIS);
/// Where [`KillUnderFabricX`] kills: 2 ms into the outage, inside the
/// 5 ms `PmWriteTimeout` of every leg issued as fabric X went down.
const KILL_UNDER_X: SimTime = SimTime(1_122 * MILLIS);
/// No cell's run, repair or drain may pass this.
const CEILING: SimTime = SimTime(20_000 * MILLIS);
/// A cell replays at least one of every this many cuts from scratch.
pub const REPLAY_EVERY: usize = 64;

/// A node with 1 audit partition, the same with rings that lap about five
/// times, a node with 4, a pool, a cluster, a DR pair, the disk baseline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topology {
    Node1,
    Lapped,
    Node4,
    Pool4,
    Cluster2,
    Georep,
    Disk,
}

/// What goes wrong. Its window is 30 ms of the load unless said otherwise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    NoFault,
    /// Member 0's half `b` down, then repaired.
    NpmuHalfDown,
    FabricXDown,
    FabricYDown,
    /// The `$ADP0` primary killed; the window ends at the first commit
    /// acked through the new primary, past its first publication.
    PrimaryKill,
    /// The TMF's backup killed alone.
    BackupKill,
    WanLoss,
    /// The half down again for 50 ms from its repair's first event.
    OutageMidResilver,
    /// Fabric X down and the `$ADP0` primary killed 2 ms into it, with
    /// [`PrimaryKill`]'s window: a new owner adopts the trail.
    KillUnderFabricX,
}

pub const TOPOLOGIES: [Topology; 7] = [Node1, Lapped, Node4, Pool4, Cluster2, Georep, Disk];
/// Two honest modes, then `NicAck` at [`NIC_ACK`], a negative control.
pub const MODES: [PersistMode; 3] = [PersistFlush, FlushOnRead, NicAck];
pub const NIC_ACK: usize = 2;
/// QoS off, or DRR arbitration with 90% bulk admission.
pub const DRR: [bool; 2] = [false, true];
pub const FAULTS: [FaultKind; 9] = [
    NoFault,
    NpmuHalfDown,
    FabricXDown,
    FabricYDown,
    PrimaryKill,
    BackupKill,
    WanLoss,
    OutageMidResilver,
    KillUnderFabricX,
];

/// One cell, as an index into each axis above.
pub type Cell = [usize; 4];

/// Where a cell's second run cuts: through its repair, or its window too.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cuts {
    Ends,
    Window,
}

pub fn all_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for t in 0..TOPOLOGIES.len() {
        for m in 0..NIC_ACK {
            for q in 0..DRR.len() {
                cells.extend((0..FAULTS.len()).map(|f| [t, m, q, f]));
            }
        }
    }
    cells
}

/// Why the cell cannot run, if it cannot.
pub fn not_applicable([t, m, _, f]: Cell) -> Option<&'static str> {
    let disk = TOPOLOGIES[t] == Disk;
    match FAULTS[f] {
        WanLoss if TOPOLOGIES[t] != Georep => Some("WAN loss: no WAN on a single site"),
        _ if disk && m > 0 => Some("disk audit: no remote-persistence mode to vary"),
        NpmuHalfDown | OutageMidResilver if disk => Some("disk audit: no NPMU to fail"),
        _ => None,
    }
}

/// The pairs of values from two different axes a cell holds.
pub fn pairs_of(c: Cell) -> Vec<[(usize, usize); 2]> {
    let mut out = Vec::new();
    for a in 0..4 {
        out.extend((a + 1..4).map(|b| [(a, c[a]), (b, c[b])]));
    }
    out
}

/// A fixed pairwise-covering subset of the product, greedily: the
/// runnable cell holding the most pairs not yet held, until every pair
/// some runnable cell holds is held; then one N/A cell for each pair only
/// such a cell holds (disk × `FlushOnRead`, a node × WAN loss), so its
/// reason is printed.
pub fn pairwise() -> Vec<Cell> {
    let (all, mut held, mut chosen) = (all_cells(), Vec::new(), Vec::new());
    for runnable in [true, false] {
        loop {
            let new = |c: &Cell| pairs_of(*c).iter().filter(|p| !held.contains(*p)).count();
            let best = all
                .iter()
                .filter(|c| not_applicable(**c).is_none() == runnable)
                .max_by_key(|c| (new(c), std::cmp::Reverse(**c)))
                .filter(|c| new(c) > 0);
            let Some(&c) = best else { break };
            held.extend(pairs_of(c));
            chosen.push(c);
        }
    }
    chosen
}

/// A built cell: its simulation, handles, trails (per shard) and DR copies.
struct Rig {
    sim: Sim,
    machine: SharedMachine,
    driver: SharedWorkloadStats,
    pmms: Vec<PmmHandle>,
    pools: Vec<(NpmuHandle, NpmuHandle)>,
    shipper: Option<SharedShipperStats>,
    txn: SharedTxnStats,
    net: SharedNetwork,
    trails: Vec<Trails>,
    replica: Option<Trails>,
}

/// The driver's acked commits, and where each one's records begin; a
/// cut's report, and the DR site's snapshot it read.
type Acks = (Vec<TxnId>, Vec<(TxnId, String, Lsn)>);
type Cut = (Report, Option<Snapshot>);

impl Rig {
    fn pmm_stat(&self, f: impl Fn(&PmmStats) -> u64) -> u64 {
        self.pmms.iter().map(|p| f(&p.stats.lock())).sum()
    }

    /// Run in 10 ms slices until `done`, failing past the ceiling.
    fn run_until(&mut self, what: &str, done: impl Fn(&Rig) -> bool) -> Result<(), String> {
        while !done(self) {
            let now = self.sim.now();
            if now >= CEILING {
                return Err(self.stalled(what));
            }
            self.sim.run_until(SimTime(now.as_nanos() + 10 * MILLIS));
        }
        Ok(())
    }

    /// Dispatch one event, failing past the ceiling or on an empty queue.
    fn step(&mut self, what: &str) -> Result<(), String> {
        match self.sim.now() < CEILING && self.sim.step() {
            true => Ok(()),
            false => Err(self.stalled(what)),
        }
    }

    /// Why `what` was not reached: who waits on whom, with the registry's
    /// view of each process ([`simcore::Sim::stalled`]).
    fn stalled(&self, what: &str) -> String {
        let stall = self.sim.stalled();
        let stall = stall.render(|name| self.machine.lock().describe(name));
        format!("{what} not reached by {CEILING:?}\n{stall}")
    }

    /// Kill the backup of pair `name` alone, as the fault monitor kills a
    /// backup whose CPU dies: its watchers hear after the detection delay.
    fn kill_backup(&mut self, name: &str) {
        let (backup, watchers, detection) = {
            let m = self.machine.lock();
            let backup = m.resolve_backup(name).expect("pair has a backup");
            let watchers = m.watchers_of(&WatchTarget::Process(name.into()));
            (backup, watchers, m.cfg.detection_delay_ns)
        };
        self.sim.kill(backup.actor);
        self.machine.lock().mark_process_dead(name, backup.actor);
        for w in watchers {
            let (name, was_primary) = (name.into(), false);
            let died = ProcessDied { name, was_primary };
            self.sim.post(w, SimDuration::from_nanos(detection), died);
        }
    }

    fn acks(&self) -> Acks {
        let d = self.driver.lock();
        (d.committed_ids.clone(), d.acked_at.clone())
    }

    /// Power loss: every actor goes with the `Sim`; the handles stay.
    fn power_loss(&mut self, store: &mut DurableStore) {
        self.sim = Sim::with_seed(SEED);
        store.reset_volatile();
    }

    /// Hold what `store` holds of the trails now to the oracle, as a cut
    /// with `acks` given, `truth` what an uncrashed run commits and, if
    /// `healed`, every repair done; the report, and the DR snapshot read.
    fn cut(&self, store: &DurableStore, acks: &Acks, truth: &[TxnId], healed: bool) -> Cut {
        let replica = self.replica.as_ref();
        let replica = replica.map(|r| Snapshot::read(store, std::slice::from_ref(r)));
        let expect = Expect {
            acked: &acks.0,
            truth: Some(truth),
            inserts: INSERTS,
            acked_at: &acks.1,
            replica: replica.as_ref(),
            resilvered: healed && !self.pools.is_empty(),
        };
        (Snapshot::read(store, &self.trails).check(&expect), replica)
    }

    /// How a fault-free PM cell's healed run strays from the path the cuts
    /// sample: commits (2PC prepares too) harden on append acks, a chain
    /// carries its cell, no flush verb exists, fences go with the mode.
    fn off_path(&self, mode: PersistMode) -> Option<String> {
        let ts = self.txn.lock();
        let (chains, cells) = (ts.pm_batches, ts.pm_ctrl_writes);
        let halves = self.pools.iter().flat_map(|(a, b)| [a, b]);
        let fenced = halves.map(|h| h.stats.lock().flushes).sum::<u64>() > 0;
        let (flushes, fence) = (self.net.lock().stats.rdma_flushes, mode == PersistFlush);
        [
            (ts.flush_reqs == 0, "a commit sent a FlushReq"),
            (chains > 0, "no chain was posted"),
            (cells == chains, "a chain without its cell"),
            (flushes == 0, "a standalone flush verb"),
            (fenced == fence, "fences off the mode"),
        ]
        .into_iter()
        .find_map(|(ok, why)| (!ok).then(|| format!("path shape: {why}")))
    }
}

/// How many mirror repairs the cell's fault needs.
fn repairs(c: Cell) -> u64 {
    u64::from(matches!(FAULTS[c[3]], NpmuHalfDown | OutageMidResilver))
}

/// `(ADP 0, TMF)`: the pairs the kills aim at.
fn victims(c: Cell) -> (&'static str, &'static str) {
    match TOPOLOGIES[c[0]] {
        Cluster2 => ("$ADP-s0p0", "$TMF-s0"),
        _ => ("$ADP0", "$TMF"),
    }
}

/// Build the cell's site under its fault plan and start its workload.
fn build(c: Cell, store: &mut DurableStore) -> Rig {
    let (topology, lapped) = (TOPOLOGIES[c[0]], TOPOLOGIES[c[0]] == Lapped);
    let mut base = match topology {
        Pool4 => OdsParams::pm_pool(SEED, 4),
        Disk => OdsParams::baseline(SEED),
        _ => OdsParams::pm(SEED),
    };
    if topology != Disk {
        base.audit = AuditMode::HardwareNpmu;
    }
    if matches!(topology, Node1 | Lapped) {
        base.audit_partitions = 1;
    }
    // A trail region holds a cell's load in one lap, and a repair scans a
    // quarter of the default 8 MiB; a lapped cell's holds about a fifth.
    base.pm_region_len = if lapped { 256 << 10 } else { 2 << 20 };
    base.txn.pm_persist_mode = MODES[c[1]];
    if c[1] == NIC_ACK {
        // A 1 ms drain stretches the ack-before-durable gap over many dispatches.
        base.pm_ingress_drain_ns = Some(MILLIS);
    }
    let (drr, off) = (QosConfig::drr(0.9), QosConfig::disabled());
    base.qos = if DRR[c[2]] { drr } else { off };
    let (from, to, victim) = (FAULT_FROM, FAULT_TO, victims(c).0.to_string());
    let fabric = |fabric| Fault::FabricDown { fabric, from, to };
    let kill = |at| Fault::KillProcess { name: victim, at };
    let faults = match FAULTS[c[3]] {
        NpmuHalfDown | OutageMidResilver => vec![half_down(from, to)],
        FabricXDown => vec![fabric(0)],
        FabricYDown => vec![fabric(1)],
        PrimaryKill => vec![kill(from)],
        KillUnderFabricX => vec![fabric(0), kill(KILL_UNDER_X)],
        NoFault | BackupKill | WanLoss => vec![],
    };
    base.fault_plan = faults.into_iter().fold(FaultPlan::none(), FaultPlan::with);
    let replica = (TOPOLOGIES[c[0]] == Georep).then(|| Trails::replica(&base));
    let mean_ns = 4 * MILLIS;
    let load = WorkloadConfig {
        think: ThinkTime::Exponential { mean_ns },
        keys: Keys::Disjoint,
        inserts_per_txn: INSERTS,
        run_for: Some(SimDuration::from_millis(60)),
        cross_shard_fraction: 0.3,
        ..WorkloadConfig::new(SEED, 8)
    };
    let node = |node: OdsNode, shipper, replica| Rig {
        trails: vec![Trails::node(&node.params)],
        replica,
        driver: Default::default(),
        pmms: node.pmm.iter().cloned().collect(),
        shipper,
        txn: node.stats,
        net: node.net,
        pools: node.pm_pool,
        machine: node.machine,
        sim: node.sim,
    };
    let (mut rig, view) = match TOPOLOGIES[c[0]] {
        Cluster2 => {
            let params = ClusterParams { shards: 2, base };
            let trails = Trails::cluster(&params);
            let cluster = build_cluster(store, params);
            let (view, shards) = (cluster.view(), cluster.shards.iter());
            let rig = Rig {
                trails,
                replica,
                driver: Default::default(),
                pmms: shards.clone().filter_map(|s| s.pmm.clone()).collect(),
                shipper: None,
                pools: shards.flat_map(|s| s.pm_pool.clone()).collect(),
                txn: cluster.stats,
                net: cluster.net,
                machine: cluster.machine,
                sim: cluster.sim,
            };
            (rig, view)
        }
        Georep => {
            let mut params = GeorepParams {
                base,
                ..GeorepParams::pm(SEED)
            };
            if FAULTS[c[3]] == WanLoss {
                params.wan.down_windows = vec![(from, to)];
            }
            let georep = build_georep(store, params);
            let view = georep.node.view();
            (node(georep.node, Some(georep.shipper_stats), replica), view)
        }
        _ => {
            let ods = build_ods(store, base);
            let view = ods.view();
            (node(ods, None, replica), view)
        }
    };
    rig.driver = install_workload(&mut rig.sim, &rig.machine, &view, load);
    rig
}

/// Member 0's half `b` down for `[from, to)`.
fn half_down(from: SimTime, to: SimTime) -> Fault {
    Fault::PoolNpmuDown {
        volume: 0,
        half: 1,
        from,
        to,
    }
}

/// Build the cell and inject the faults its plan cannot hold.
fn start(c: Cell, store: &mut DurableStore) -> Result<Rig, String> {
    let mut rig = build(c, store);
    match FAULTS[c[3]] {
        BackupKill => {
            rig.sim.run_until(FAULT_FROM);
            rig.kill_backup(victims(c).1);
        }
        OutageMidResilver => {
            // The half goes down again at the first event of its repair:
            // the devices consult the network's plan on every op.
            while rig.pmm_stat(|s| s.resilvers_started) == 0 {
                rig.step("the first repair")?;
            }
            let (now, mut net) = (rig.sim.now(), rig.net.lock());
            let again = half_down(now, SimTime(now.as_nanos() + 50 * MILLIS));
            net.fault_plan = net.fault_plan.clone().with(again);
        }
        _ => {}
    }
    Ok(rig)
}

/// Whether the fault window closed, asked after each dispatch in it.
fn window_closed(c: Cell, rig: &Rig) -> Box<dyn FnMut(&Rig) -> bool> {
    if !matches!(FAULTS[c[3]], PrimaryKill | KillUnderFabricX) {
        return Box::new(|r: &Rig| r.sim.now() >= FAULT_TO);
    }
    let victim = victims(c).0;
    let primary = |r: &Rig| r.machine.lock().resolve(victim).map(|p| p.actor);
    let through = move |r: &Rig| {
        let acked = r.driver.lock();
        acked.acked_at.iter().filter(|a| a.1 == victim).count()
    };
    // Commits acked through the victim when its backup took over.
    let (old, mut promoted) = (primary(rig), None);
    Box::new(move |r: &Rig| {
        if promoted.is_none() && primary(r) != old {
            promoted = Some(through(r));
        }
        promoted.is_some_and(|n| through(r) > n || r.driver.lock().done())
    })
}

/// A cell's acked commits; its cuts, the acked commits they lost, the cuts
/// taken for an ack alone (no media write since the last) that lost one,
/// the cuts that resolved an in-doubt 2PC; replays, disagreeing replays.
#[derive(Debug, Default)]
pub struct Outcome {
    pub acked: usize,
    pub cuts: usize,
    pub lost: usize,
    pub lost_at_ack: usize,
    pub indoubt: usize,
    pub replays: usize,
    pub disagreed: usize,
    pub failures: Vec<String>,
}

/// A report's explanation after `at`, if it names a violation.
fn failure(report: &Report, at: &str) -> Option<String> {
    (!report.violations.is_empty()).then(|| format!("{at}{}", report.explain()))
}

/// Run the cell to its healed end — the workload done, every repair
/// complete, a DR pipe drained — and cut power there; the commits it
/// acked, which are all it committed.
fn healed_run(c: Cell, out: &mut Outcome) -> Result<Vec<TxnId>, String> {
    let (mut store, repairs) = (DurableStore::new(), repairs(c));
    let mut rig = start(c, &mut store)?;
    rig.run_until("workload end", |r| r.driver.lock().done())?;
    rig.run_until("repair and drain", |r| {
        let drained = r.shipper.as_ref().is_none_or(|s| s.lock().rpo_bytes() == 0);
        drained && r.pmm_stat(|s| s.resilvers_completed) >= repairs
    })?;
    let now = rig.sim.now();
    rig.sim.run_until(SimTime(now.as_nanos() + 100 * MILLIS));
    if rig.pmm_stat(|s| s.degraded_events) < repairs {
        return Err("the outage never degraded the mirror".into());
    }
    if FAULTS[c[3]] == OutageMidResilver && rig.pmm_stat(|s| s.resilvers_started) < 2 {
        return Err("the second outage did not restart the repair".into());
    }
    if FAULTS[c[3]] == NoFault && TOPOLOGIES[c[0]] != Disk {
        out.failures.extend(rig.off_path(MODES[c[1]]));
    }
    let acks = rig.acks();
    if acks.0.is_empty() {
        return Err("nothing acknowledged".into());
    }
    rig.power_loss(&mut store);
    let (report, replica) = rig.cut(&store, &acks, &acks.0, true);
    out.failures.extend(failure(&report, ""));
    if let Some(replica) = &replica {
        // Drained: the DR site alone recovers every acked commit.
        let expect = Expect {
            acked_at: &acks.1,
            ..Expect::finished(&acks.0, INSERTS)
        };
        out.failures
            .extend(failure(&replica.check(&expect), "at the DR site: "));
    }
    // Only a ring small enough to lap overwrites acked commits.
    out.acked = acks.0.len();
    if (report.overwritten > 0) != (TOPOLOGIES[c[0]] == Lapped) {
        let lapped = format!("{} acked commits overwritten by a lap", report.overwritten);
        out.failures.push(lapped);
    }
    Ok(acks.0)
}

/// Run the cell to its healed end and cut power there; then run it again,
/// cutting power at every distinct boundary of its repair and, for
/// [`Cuts::Window`], of its fault window, and replay a sample of the cuts.
pub fn run_cell(c: Cell, cuts: Cuts) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (truth, repairs) = (healed_run(c, &mut out)?, repairs(c));
    if cuts == Cuts::Ends && repairs == 0 {
        return Ok(out);
    }
    let mut store = DurableStore::new();
    let mut rig = start(c, &mut store)?;
    rig.sim.run_until(FAULT_FROM);
    let (mut closed, mut last, mut replays) = (window_closed(c, &rig), None, Vec::new());
    // What a cut's recovery concluded: what it broke and what it committed.
    let verdict = |r: &Report| {
        let committed: BTreeSet<TxnId> = r.recovery.committed.iter().copied().collect();
        (r.violations.clone(), committed)
    };
    loop {
        let in_window = cuts == Cuts::Window && !closed(&rig);
        let unrepaired = rig.pmm_stat(|s| s.resilvers_completed) < repairs;
        if !in_window && !unrepaired {
            break;
        }
        let repairing = unrepaired && rig.pmm_stat(|s| s.resilvers_started) >= repairs;
        let trails = rig.trails.iter().chain(&rig.replica);
        let acked = rig.driver.lock().committed_ids.len();
        let key = (in_window || repairing)
            .then(|| (acked, trails.map(|t| t.media_writes(&store)).sum::<u64>()));
        if key.is_some() && key != last {
            let k = rig.sim.dispatched();
            let (report, _) = rig.cut(&store, &rig.acks(), &truth, false);
            let ack_alone = last.is_some_and(|(_, writes)| Some(writes) == key.map(|k| k.1));
            last = key;
            out.lost += report.lost();
            out.lost_at_ack += usize::from(ack_alone && report.lost() > 0);
            let r = &report.recovery;
            let indoubt = !r.indoubt_committed.is_empty() || !r.indoubt_aborted.is_empty();
            out.indoubt += usize::from(indoubt);
            let failed = failure(&report, &format!("cut at {k}: "));
            if out.cuts.is_multiple_of(REPLAY_EVERY) || failed.is_some() {
                replays.push((k, verdict(&report)));
            }
            out.failures.extend(failed);
            out.cuts += 1;
        }
        rig.step("the window's and the repair's end")?;
    }
    for (k, seen) in replays {
        // From scratch to dispatch `k`, then power loss.
        let mut store = DurableStore::new();
        let mut rig = start(c, &mut store)?;
        rig.sim.run_until_dispatched(k);
        let acks = rig.acks();
        rig.power_loss(&mut store);
        out.replays += 1;
        if verdict(&rig.cut(&store, &acks, &truth, false).0) != seen {
            out.disagreed += 1;
            out.failures.push(format!("cut at {k}: a replay disagrees"));
        }
    }
    Ok(out)
}

/// Run `cells`, print their table, fail if any did, and sum their cuts.
pub fn run_matrix(cells: &[Cell], cuts: Cuts) -> Outcome {
    let (mut ran, mut failed, mut sum) = (0, Vec::new(), Outcome::default());
    for &c in cells {
        let row = match not_applicable(c) {
            Some(why) => format!("N/A: {why}"),
            None => {
                ran += 1;
                let o = run_cell(c, cuts).unwrap_or_else(|why| Outcome {
                    failures: vec![why],
                    ..Outcome::default()
                });
                (sum.cuts, sum.replays) = (sum.cuts + o.cuts, sum.replays + o.replays);
                sum.indoubt += o.indoubt;
                if o.failures.is_empty() {
                    format!("ok ({} acked, {} cuts)", o.acked, o.cuts)
                } else {
                    failed.push(c);
                    format!(
                        "FAILED:\n{}",
                        o.failures[..o.failures.len().min(3)].join("\n")
                    )
                }
            }
        };
        let [t, m, q, f] = c;
        let qos = if DRR[q] { "drr" } else { "off" };
        let (t, m, f) = (TOPOLOGIES[t], MODES[m], FAULTS[f]);
        let (t, m, f) = (format!("{t:?}"), format!("{m:?}"), format!("{f:?}"));
        println!("{t:<8} {m:<12} {qos:<3} {f:<17} {row}");
    }
    let (na, n, cuts, replays) = (cells.len() - ran, failed.len(), sum.cuts, sum.replays);
    let doubt = sum.indoubt;
    println!("{ran} ran, {na} N/A, {n} failed; {cuts} cuts, {replays} replayed, {doubt} in doubt");
    assert!(failed.is_empty(), "failed cells: {failed:?}");
    sum
}
