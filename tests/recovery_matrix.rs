//! The recovery matrix: topology × persistence mode × fabric QoS × fault.
//!
//! Every cell runs one harness: a short disjoint-key workload (8 clients,
//! 4 inserts per transaction, 60 ms of load after the 1.1 s warmup)
//! under its fault, then heals — every mirror repair done, a DR pipe
//! drained — cuts power and hands the device images to `pmem::oracle`:
//! every acked commit redone whole, nothing invented, one 2PC verdict,
//! mirror halves that agree and are byte-equal after the repair, and a DR
//! replica that is a bit-identical prefix and alone recovers every acked
//! commit — every one, or on a lapped ring every one a lap did not
//! overwrite (the oracle counts those; only the lapped cells have any). A
//! cell whose fault needs a mirror repair also runs again and
//! cuts power halfway through the repair, while the PMM's durable health
//! still marks the repaired half stale: every commit acked by then must
//! redo from the survivor.
//!
//! * topology: a node with 1 audit partition, the same node with trail
//!   rings small enough to lap about five times, a node with 4, a
//!   4-volume pool, a 2-shard cluster, a geo-replicated pair, the disk
//!   baseline;
//! * persistence mode: `PersistFlush`, `FlushOnRead`;
//! * QoS: `QosConfig::disabled()`, DRR with 90% bulk admission;
//! * fault: none, one NPMU half down (member 0, half `b`), fabric X down,
//!   fabric Y down, the `$ADP0` primary killed, the TMF's backup killed
//!   alone, WAN loss, and the same half down again while its first
//!   repair runs.
//!
//! A cell that cannot run returns its reason and the table prints it; no
//! cell is ever just missing. Tier-1 runs a fixed subset that holds every
//! pair of axis values at least once; the whole product is `#[ignore]`d
//! and run by `cargo test --release --test recovery_matrix -- --ignored`.

use nsk::machine::{SharedMachine, WatchTarget};
use nsk::ProcessDied;
use pmem::oracle::{Expect, Report, Snapshot, Trails};
use pmem::{PmmHandle, PmmStats};
use simcore::fault::{Fault, FaultPlan};
use simcore::time::MILLIS;
use simcore::{DurableStore, Sim, SimDuration, SimTime};
use simnet::{PersistMode, QosConfig};
use txnkit::georep::SharedShipperStats;
use txnkit::scenario::{build_cluster, build_georep, build_ods, AuditMode};
use txnkit::scenario::{ClusterParams, GeorepParams, OdsParams};
use txnkit::{Lsn, TxnId};
use workload::{install_workload, Keys, SharedWorkloadStats, ThinkTime, WorkloadConfig};
use FaultKind::*;
use Topology::*;

const SEED: u64 = 0x3A7C;
const INSERTS: u32 = 4;
/// The fault window, inside the workload's 1.1–1.16 s of load.
const FAULT_FROM: SimTime = SimTime(1_120 * MILLIS);
const FAULT_TO: SimTime = SimTime(1_150 * MILLIS);
/// No cell's run, repair or drain may pass this.
const CEILING: SimTime = SimTime(20_000 * MILLIS);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Topology {
    Node1,
    Lapped,
    Node4,
    Pool4,
    Cluster2,
    Georep,
    Disk,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FaultKind {
    NoFault,
    NpmuHalfDown,
    FabricXDown,
    FabricYDown,
    PrimaryKill,
    BackupKill,
    WanLoss,
    OutageMidResilver,
}

const TOPOLOGIES: [Topology; 7] = [Node1, Lapped, Node4, Pool4, Cluster2, Georep, Disk];
const MODES: [PersistMode; 2] = [PersistMode::PersistFlush, PersistMode::FlushOnRead];
/// QoS off, or DRR arbitration.
const DRR: [bool; 2] = [false, true];
const FAULTS: [FaultKind; 8] = [
    NoFault,
    NpmuHalfDown,
    FabricXDown,
    FabricYDown,
    PrimaryKill,
    BackupKill,
    WanLoss,
    OutageMidResilver,
];

/// One cell, as an index into each axis above.
type Cell = [usize; 4];

fn all_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for t in 0..TOPOLOGIES.len() {
        for m in 0..MODES.len() {
            for q in 0..DRR.len() {
                cells.extend((0..FAULTS.len()).map(|f| [t, m, q, f]));
            }
        }
    }
    cells
}

/// Why the cell cannot run, if it cannot.
fn not_applicable([t, m, _, f]: Cell) -> Option<&'static str> {
    let disk = TOPOLOGIES[t] == Disk;
    match FAULTS[f] {
        WanLoss if TOPOLOGIES[t] != Georep => Some("WAN loss: no WAN on a single site"),
        _ if disk && m > 0 => Some("disk audit: no remote-persistence mode to vary"),
        NpmuHalfDown | OutageMidResilver if disk => Some("disk audit: no NPMU to fail"),
        _ => None,
    }
}

/// The pairs of values from two different axes a cell holds.
fn pairs_of(c: Cell) -> Vec<[(usize, usize); 2]> {
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
fn pairwise() -> Vec<Cell> {
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

/// One built cell: the simulation and the handles the harness watches.
struct Rig {
    sim: Sim,
    machine: SharedMachine,
    driver: SharedWorkloadStats,
    /// The site's PM managers (one per shard; none on disk).
    pmms: Vec<PmmHandle>,
    shipper: Option<SharedShipperStats>,
}

impl Rig {
    fn pmm_stat(&self, f: impl Fn(&PmmStats) -> u64) -> u64 {
        self.pmms.iter().map(|p| f(&p.stats.lock())).sum()
    }

    /// Step until `done`, failing past the ceiling: in 10 ms slices, or
    /// one event at a time where the dispatch that makes it true counts.
    fn run_until(&mut self, what: &str, done: impl Fn(&Rig) -> bool) -> Result<(), String> {
        self.step_until(what, 10 * MILLIS, done)
    }

    fn step_until(
        &mut self,
        what: &str,
        slice: u64,
        done: impl Fn(&Rig) -> bool,
    ) -> Result<(), String> {
        while !done(self) {
            let now = self.sim.now();
            if now >= CEILING {
                return Err(format!("{what} not reached by {CEILING:?}"));
            }
            match slice {
                0 => self.sim.run_until_dispatched(self.sim.dispatched() + 1),
                _ => self.sim.run_until(SimTime(now.as_nanos() + slice)),
            };
        }
        Ok(())
    }

    /// Kill the backup of process pair `name` alone, as the fault monitor
    /// kills a backup whose CPU dies: the actor goes, the registry forgets
    /// it, and the pair's watchers hear of it after the detection delay.
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
            let died = ProcessDied {
                name: name.into(),
                was_primary: false,
            };
            self.sim.post(w, SimDuration::from_nanos(detection), died);
        }
    }
}

/// `(ADP 0, TMF)`: the pairs the kills aim at.
fn victims(c: Cell) -> (&'static str, &'static str) {
    match TOPOLOGIES[c[0]] {
        Cluster2 => ("$ADP-s0p0", "$TMF-s0"),
        _ => ("$ADP0", "$TMF"),
    }
}

/// Build the cell's site under its fault plan and start its workload;
/// also where its trails and its DR copies live.
fn build(c: Cell, store: &mut DurableStore) -> (Rig, Vec<Trails>, Option<Trails>) {
    let hw = |base| OdsParams {
        audit: AuditMode::HardwareNpmu,
        ..base
    };
    let mut base = match TOPOLOGIES[c[0]] {
        Node1 | Lapped => OdsParams {
            audit_partitions: 1,
            ..hw(OdsParams::pm(SEED))
        },
        Node4 | Cluster2 | Georep => hw(OdsParams::pm(SEED)),
        Pool4 => hw(OdsParams::pm_pool(SEED, 4)),
        Disk => OdsParams::baseline(SEED),
    };
    // Trail regions hold a cell's load in one lap, and a repair scans
    // only a quarter of the default 8 MiB; a lapped cell's ring holds
    // about a fifth of its load.
    base.pm_region_len = match TOPOLOGIES[c[0]] {
        Lapped => 256 << 10,
        _ => 2 << 20,
    };
    base.txn.pm_persist_mode = MODES[c[1]];
    base.qos = match DRR[c[2]] {
        true => QosConfig::drr(0.9),
        false => QosConfig::disabled(),
    };
    let (from, to) = (FAULT_FROM, FAULT_TO);
    let fault = match FAULTS[c[3]] {
        NpmuHalfDown | OutageMidResilver => Some(Fault::PoolNpmuDown {
            volume: 0,
            half: 1,
            from,
            to,
        }),
        FabricXDown => Some(Fault::FabricDown {
            fabric: 0,
            from,
            to,
        }),
        FabricYDown => Some(Fault::FabricDown {
            fabric: 1,
            from,
            to,
        }),
        PrimaryKill => Some(Fault::KillProcess {
            name: victims(c).0.into(),
            at: from,
        }),
        _ => None,
    };
    base.fault_plan = fault.into_iter().fold(FaultPlan::none(), FaultPlan::with);
    let cluster = ClusterParams {
        shards: 2,
        base: base.clone(),
    };
    let site = match TOPOLOGIES[c[0]] {
        Cluster2 => Trails::cluster(&cluster),
        _ => vec![Trails::node(&base)],
    };
    let replica = (TOPOLOGIES[c[0]] == Georep).then(|| Trails::replica(&base));
    let load = WorkloadConfig {
        think: ThinkTime::Exponential {
            mean_ns: 4 * MILLIS,
        },
        keys: Keys::Disjoint,
        inserts_per_txn: INSERTS,
        run_for: Some(SimDuration::from_millis(60)),
        cross_shard_fraction: 0.3,
        ..WorkloadConfig::new(SEED, 8)
    };
    let (mut sim, machine, view, pmms, shipper) = match TOPOLOGIES[c[0]] {
        Cluster2 => {
            let node = build_cluster(store, cluster);
            let pmms = node.shards.iter().filter_map(|s| s.pmm.clone()).collect();
            let view = node.view();
            (node.sim, node.machine, view, pmms, None)
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
            let (node, shipper) = (georep.node, Some(georep.shipper_stats));
            let (view, pmms) = (node.view(), node.pmm.into_iter().collect());
            (node.sim, node.machine, view, pmms, shipper)
        }
        _ => {
            let node = build_ods(store, base);
            let (view, pmms) = (node.view(), node.pmm.into_iter().collect());
            (node.sim, node.machine, view, pmms, None)
        }
    };
    let driver = install_workload(&mut sim, &machine, &view, load);
    let rig = Rig {
        sim,
        machine,
        driver,
        pmms,
        shipper,
    };
    (rig, site, replica)
}

/// Build the cell and inject the faults its plan cannot hold.
fn start(c: Cell, store: &mut DurableStore) -> Result<(Rig, Vec<Trails>, Option<Trails>), String> {
    let (mut rig, site, replica) = build(c, store);
    match FAULTS[c[3]] {
        BackupKill => {
            rig.sim.run_until(FAULT_FROM);
            rig.kill_backup(victims(c).1);
        }
        OutageMidResilver => {
            // The half goes down again at the first event of its repair:
            // the devices consult the network's plan on every op.
            rig.step_until("the first repair", 0, |r| {
                r.pmm_stat(|s| s.resilvers_started) > 0
            })?;
            let now = rig.sim.now();
            let net = rig.machine.lock().net.clone();
            let mut net = net.lock();
            net.fault_plan = net.fault_plan.clone().with(Fault::PoolNpmuDown {
                volume: 0,
                half: 1,
                from: now,
                to: SimTime(now.as_nanos() + 50 * MILLIS),
            });
        }
        _ => {}
    }
    Ok((rig, site, replica))
}

/// Run the cell's workload under its fault, heal, cut power and run the
/// oracle; where the fault needs a mirror repair, run the cell again and
/// cut power halfway through the repair too. The acked commit count and
/// how many of them a lap overwrote, or how the cell failed: the
/// oracle's explanation of each failed cut.
fn run_cell(c: Cell) -> Result<(usize, usize), String> {
    let mut store = DurableStore::new();
    let (mut rig, site, replica) = start(c, &mut store)?;
    // Heal: every mirror repaired, the DR pipe drained.
    let repairs = u64::from(matches!(FAULTS[c[3]], NpmuHalfDown | OutageMidResilver));
    let repairing = |r: &Rig| r.pmm_stat(|s| s.resilvers_started) >= repairs;
    rig.step_until("the repair", 0, repairing)?;
    let repair_from = rig.sim.dispatched();
    let repaired = |r: &Rig| r.pmm_stat(|s| s.resilvers_completed) >= repairs;
    rig.step_until("the repair's end", 0, repaired)?;
    let mid_repair = (repair_from + rig.sim.dispatched()) / 2;
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
    let (acked, acked_at) = acks(&rig);
    drop(rig); // power loss
    store.reset_volatile();

    let replica = replica.map(|r| Snapshot::read(&store, &[r]));
    let expect = Expect {
        acked: &acked,
        truth: Some(&acked),
        inserts: INSERTS,
        acked_at: &acked_at,
        replica: replica.as_ref(),
        resilvered: TOPOLOGIES[c[0]] != Disk,
    };
    let report = Snapshot::read(&store, &site).check(&expect);
    let mut failures: Vec<String> = failure(&report).into_iter().collect();
    if let Some(replica) = &replica {
        // Drained: the DR site alone recovers every acked commit.
        let at_dr = Expect {
            replica: None,
            resilvered: false,
            ..expect
        };
        let at_dr = failure(&replica.check(&at_dr));
        failures.extend(at_dr.map(|why| format!("at the DR site: {why}")));
    }
    // Only a ring small enough to lap overwrites acked commits.
    if (report.overwritten > 0) != (TOPOLOGIES[c[0]] == Lapped) {
        let n = report.overwritten;
        failures.push(format!("{n} acked commits overwritten by a lap"));
    }
    if repairs > 0 && failures.is_empty() {
        failures.extend(cut_at(c, mid_repair, &acked)?);
    }
    match (acked.len(), failures.is_empty()) {
        (0, _) => Err("nothing acknowledged".into()),
        (n, true) => Ok((n, report.overwritten)),
        _ => Err(failures.join("\n")),
    }
}

/// The driver's acked commits, and where each one's records begin.
fn acks(rig: &Rig) -> (Vec<TxnId>, Vec<(TxnId, String, Lsn)>) {
    let d = rig.driver.lock();
    (d.committed_ids.clone(), d.acked_at.clone())
}

/// A report's explanation, if it names a violation.
fn failure(report: &Report) -> Option<String> {
    (!report.violations.is_empty()).then(|| report.explain())
}

/// Run the cell again to dispatch `k` and cut power there, mid-repair:
/// the PMM's durable health keeps recovery off the half under repair, so
/// every commit acked by then redoes from the survivor, and nothing the
/// healed run did not commit.
fn cut_at(c: Cell, k: u64, truth: &[TxnId]) -> Result<Option<String>, String> {
    let mut store = DurableStore::new();
    let (mut rig, site, replica) = start(c, &mut store)?;
    rig.sim.run_until_dispatched(k);
    let (acked, acked_at) = acks(&rig);
    drop(rig);
    store.reset_volatile();
    let replica = replica.map(|r| Snapshot::read(&store, &[r]));
    let expect = Expect {
        acked: &acked,
        truth: Some(truth),
        inserts: INSERTS,
        acked_at: &acked_at,
        replica: replica.as_ref(),
        resilvered: false,
    };
    let report = Snapshot::read(&store, &site).check(&expect);
    Ok(failure(&report).map(|why| format!("cut mid-repair: {why}")))
}

/// Run `cells`, print the cell table, and fail if any cell did.
fn run_matrix(cells: &[Cell]) {
    let (mut ran, mut failed) = (0, Vec::new());
    for &c in cells {
        let outcome = match not_applicable(c) {
            Some(reason) => format!("N/A: {reason}"),
            None => {
                ran += 1;
                run_cell(c).map_or_else(
                    |why| {
                        failed.push(c);
                        format!("FAILED: {why}")
                    },
                    |(acked, lapped)| match lapped {
                        0 => format!("ok ({acked} acked)"),
                        n => format!("ok ({acked} acked, {n} of them overwritten by a lap)"),
                    },
                )
            }
        };
        let [t, m, q, f] = c;
        let qos = if DRR[q] { "drr" } else { "off" };
        let (t, m, f) = (
            format!("{:?}", TOPOLOGIES[t]),
            format!("{:?}", MODES[m]),
            format!("{:?}", FAULTS[f]),
        );
        println!("{t:<8} {m:<12} {qos:<3} {f:<17} {outcome}");
    }
    let na = cells.len() - ran;
    println!(
        "{ran} cells ran, {na} not applicable, {} failed",
        failed.len()
    );
    assert!(failed.is_empty(), "failed cells: {failed:?}");
}

#[test]
fn pairwise_cells_recover_every_acked_commit() {
    let cells = pairwise();
    // Every pair of axis values the product holds, the subset holds.
    for p in all_cells().into_iter().flat_map(pairs_of) {
        let held = cells.iter().any(|&c| pairs_of(c).contains(&p));
        assert!(held, "pair {p:?} not covered");
    }
    run_matrix(&cells);
}

#[test]
#[ignore = "the full product; ci.sh runs it in release"]
fn every_cell_recovers_every_acked_commit() {
    run_matrix(&all_cells());
}
