//! One repetition of one workload: build, boot, warm up, run the measured
//! phase in fixed simulated-time slices while timing each on the host,
//! then cut the power and run the oracle.

use crate::driver::{RunLog, TxnRec};
use crate::oracle::{self, OracleReport};
use crate::plan::{Plan, Scenario, Spec, WARMUP_TXNS};
use crate::reader::ReadRec;
use crate::rig::{self, Rig, ShardTrails};
use crate::{alloc, stats};
use simcore::{DurableStore, RunOutcome, SimTime};
use std::sync::Arc;
use std::time::Instant;

/// Simulated time after which a phase that has not finished is stuck.
const SIM_CEILING_NS: u64 = 6_000_000_000_000;

/// One slice of the measured phase.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    pub sim_start: u64,
    pub sim_end: u64,
    /// Host ns since the repetition started, and spent in the slice.
    pub host_start: u64,
    pub host_ns: u64,
    pub events: u64,
}

/// One completed resilver, simulated ns.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Resilver {
    pub started: u64,
    pub completed: u64,
}

pub struct Rep {
    /// Host ns of `setup.build`, `setup.install` and `setup.warmup` (the
    /// simulated boot and the warm-up transactions).
    pub setup_host: [u64; 3],
    /// Simulated time the measured phase started and the last transaction
    /// settled.
    pub t0: u64,
    pub t_end: u64,
    pub slices: Vec<Slice>,
    pub worker_cpus: Vec<u32>,
    pub log: RunLog,
    pub reads: Vec<ReadRec>,
    pub resilvers: Vec<Resilver>,
    /// Probe keys and one row per slice boundary (row 0 at `t0`); traced
    /// repetitions only.
    pub probe_keys: Vec<String>,
    pub probe_rows: Vec<Vec<u64>>,
    /// Quantised histogram readings that have no counter form:
    /// `(flush_p95_ns, audit_write_p50_ns)`.
    pub histo: (u64, u64),
    /// Allocations and bytes during the measured phase (traced only).
    pub allocs: (u64, u64),
    pub oracle: OracleReport,
}

impl Rep {
    pub fn setup_s(&self) -> f64 {
        self.setup_host.iter().sum::<u64>() as f64 / 1e9
    }

    pub fn slice_host(&self) -> Vec<u64> {
        self.slices.iter().map(|s| s.host_ns).collect()
    }

    /// Transactions settled after the warm-up.
    pub fn measured(&self) -> &[TxnRec] {
        &self.log.txns[(WARMUP_TXNS as usize).min(self.log.txns.len())..]
    }

    /// Simulated metrics a user would see: `(p50_ns, p99_ns, commits/s)`.
    pub fn sim_metrics(&self) -> (u64, u64, f64) {
        let mut resp: Vec<u64> = self
            .measured()
            .iter()
            .filter(|t| t.committed)
            .map(|t| t.settled - t.begin_sent)
            .collect();
        let span_s = (self.t_end - self.t0) as f64 / 1e9;
        (
            stats::percentile(&mut resp, 0.50),
            stats::percentile(&mut resp, 0.99),
            resp.len() as f64 / span_s,
        )
    }
}

/// Scenario construction, install, simulated boot and warm-up: everything
/// before the first measured slice. Returns the host ns of `setup.build`,
/// `setup.install` and `setup.warmup`.
fn set_up(
    store: &mut DurableStore,
    spec: &Spec,
    plan: &Arc<Plan>,
    seed: u64,
    trace: bool,
) -> (Rig, [u64; 3]) {
    let mut rig = rig::build(store, spec, plan, seed, trace);
    let t = Instant::now();
    match rig.sim.run_until(SimTime(SIM_CEILING_NS)) {
        RunOutcome::Halted => {}
        other => panic!("warm-up ended {other:?} at {}", rig.sim.now()),
    }
    assert_eq!(rig.log.lock().txns.len() as u64, WARMUP_TXNS);
    let spans = [
        rig.build_host_ns,
        rig.install_host_ns,
        t.elapsed().as_nanos() as u64,
    ];
    (rig, spans)
}

/// Set up and throw away: one more sample of the set-up cost, in seconds.
pub fn setup_only(spec: &Spec, plan: &Arc<Plan>, seed: u64) -> f64 {
    let mut store = DurableStore::new();
    let (_rig, spans) = set_up(&mut store, spec, plan, seed, false);
    spans.iter().sum::<u64>() as f64 / 1e9
}

pub fn run_rep(spec: &Spec, plan: &Arc<Plan>, seed: u64, trace: bool) -> Rep {
    let rep_start = Instant::now();
    let mut store = DurableStore::new();
    let (mut rig, setup_host) = set_up(&mut store, spec, plan, seed, trace);

    // --- measured phase ---
    let t0 = rig.sim.now().as_nanos();
    let mut probe_keys = Vec::new();
    let mut probe_rows = Vec::new();
    if trace {
        let (keys, row): (Vec<_>, Vec<_>) = rig.probe().into_iter().unzip();
        probe_keys = keys;
        probe_rows.push(row);
        alloc::set_enabled(true);
    }
    let allocs0 = alloc::totals();
    let mut slices = Vec::new();
    let mut resilvers: Vec<Resilver> = Vec::new();
    let mut seen_completed = rig.shards[0]
        .pmm
        .as_ref()
        .map_or(0, |p| p.stats.lock().resilvers_completed);
    loop {
        let sim_start = rig.sim.now().as_nanos();
        let events0 = rig.sim.dispatched();
        let host_start = rep_start.elapsed().as_nanos() as u64;
        let t = Instant::now();
        let outcome = rig.sim.run_until(SimTime(sim_start + plan.slice_ns));
        let host_ns = t.elapsed().as_nanos() as u64;
        slices.push(Slice {
            sim_start,
            sim_end: rig.sim.now().as_nanos(),
            host_start,
            host_ns,
            events: rig.sim.dispatched() - events0,
        });
        if trace {
            alloc::set_enabled(false);
            probe_rows.push(rig.probe().into_iter().map(|(_, v)| v).collect());
            // One resilver per second and slices far shorter: every
            // start/complete pair is seen before the next overwrites it.
            if let Some(p) = rig.shards[0].pmm.as_ref() {
                let p = *p.stats.lock();
                if p.resilvers_completed > seen_completed {
                    seen_completed = p.resilvers_completed;
                    resilvers.push(Resilver {
                        started: p.resilver_started_ns,
                        completed: p.resilver_completed_ns,
                    });
                }
            }
            alloc::set_enabled(true);
        }
        match outcome {
            RunOutcome::Halted if rig.log.lock().done() => break,
            RunOutcome::TimeLimit => {}
            other => panic!("measured phase ended {other:?} at {}", rig.sim.now()),
        }
        assert!(
            rig.sim.now().as_nanos() < SIM_CEILING_NS,
            "measured phase did not finish"
        );
    }
    alloc::set_enabled(false);
    let allocs1 = alloc::totals();

    let histo = (
        rig.stats.lock().flush_latency.p95(),
        rig.audit_disks
            .first()
            .map_or(0, |d| d.lock().latency.p50()),
    );
    let worker_cpus = rig.worker_cpu_ids();
    let pmm_final = rig.shards[0].pmm.as_ref().map(|p| *p.stats.lock());
    let shard_trails: Vec<ShardTrails> = rig.shards.iter().map(|s| s.trails.clone()).collect();
    let log = std::mem::take(&mut *rig.log.lock());
    let reads = rig
        .reads
        .as_ref()
        .map(|r| std::mem::take(&mut *r.lock()))
        .unwrap_or_default();
    let t_end = log.txns.last().map_or(t0, |t| t.settled);

    // --- power loss, then recovery from the durable store alone ---
    drop(rig);
    let mut oracle = oracle::check(&mut store, spec, plan, &shard_trails, &log);
    if spec.scenario == Scenario::PmNodeRepair {
        let done = pmm_final.map_or(0, |p| p.resilvers_completed);
        if done != plan.outages.len() as u64 {
            oracle.violate(format!(
                "{done} of {} resilvers completed",
                plan.outages.len()
            ));
        }
        oracle::check_mirrors(&store, "npmu:pm-a", "npmu:pm-b", &mut oracle);
    }

    Rep {
        setup_host,
        t0,
        t_end,
        slices,
        worker_cpus,
        log,
        reads,
        resilvers,
        probe_keys,
        probe_rows,
        histo,
        allocs: (allocs1.0 - allocs0.0, allocs1.1 - allocs0.1),
        oracle,
    }
}

/// What must be identical between two repetitions of the same run. On a
/// mismatch, names the first slice that diverged.
pub fn divergence(a: &Rep, b: &Rep) -> Option<String> {
    for (i, (x, y)) in a.slices.iter().zip(&b.slices).enumerate() {
        if (x.sim_start, x.sim_end, x.events) != (y.sim_start, y.sim_end, y.events) {
            return Some(format!(
                "slice {i} diverges: sim [{}, {}] {} events vs sim [{}, {}] {} events",
                x.sim_start, x.sim_end, x.events, y.sim_start, y.sim_end, y.events
            ));
        }
    }
    if a.slices.len() != b.slices.len() {
        return Some(format!(
            "slice counts diverge: {} vs {}",
            a.slices.len(),
            b.slices.len()
        ));
    }
    if a.log.txns != b.log.txns || a.log.acks != b.log.acks {
        let i = a.log.txns.iter().zip(&b.log.txns).position(|(x, y)| x != y);
        return Some(format!(
            "equal per-slice event counts but transaction records diverge (first at {i:?})"
        ));
    }
    if a.reads != b.reads {
        return Some("tail reads diverge".into());
    }
    if a.sim_metrics() != b.sim_metrics() {
        return Some("simulated metrics diverge".into());
    }
    None
}
