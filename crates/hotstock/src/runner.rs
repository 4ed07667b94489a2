//! Scenario runner: builds the node, spawns drivers, runs to completion,
//! collects the measurements behind Figures 1 and 2.

use crate::driver::{HotStockDriver, SharedDriverStats};
use nsk::machine::CpuId;
use simcore::fault::FaultPlan;
use simcore::time::SECS;
use simcore::{DurableStore, Histogram, SimDuration, SimTime};
use txnkit::scenario::{build_ods, AuditMode, OdsNode, OdsParams};
use txnkit::stats::TxnStats;

/// Transaction size (degree of boxcarring), per the paper:
/// "128K – 32 4Kbyte inserts per transaction; 64K – 16; 32K – 8".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxnSize {
    K32,
    K64,
    K128,
}

impl TxnSize {
    pub fn inserts_per_txn(self) -> u32 {
        match self {
            TxnSize::K32 => 8,
            TxnSize::K64 => 16,
            TxnSize::K128 => 32,
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            TxnSize::K32 => "32k",
            TxnSize::K64 => "64k",
            TxnSize::K128 => "128k",
        }
    }

    pub const ALL: [TxnSize; 3] = [TxnSize::K32, TxnSize::K64, TxnSize::K128];
}

#[derive(Clone, Debug)]
pub struct HotStockParams {
    pub seed: u64,
    /// 1–4 hot stocks.
    pub drivers: u32,
    pub txn_size: TxnSize,
    /// Records per driver; the paper uses 32000. Scaled-down runs keep
    /// the shape (fixed work per driver, same commit cadence).
    pub records_per_driver: u64,
    pub audit: AuditMode,
    /// Logical record size (paper: 4 KB).
    pub record_bytes: u32,
    /// Fabric QoS configuration for the node (default: QoS off — the
    /// legacy analytic completion path).
    pub qos: simnet::QosConfig,
    /// Declarative faults armed before the run starts (e.g. an
    /// `NpmuDown` window so a resilver races the foreground commits).
    pub fault_plan: FaultPlan,
}

impl HotStockParams {
    pub fn paper(drivers: u32, txn_size: TxnSize, audit: AuditMode) -> Self {
        HotStockParams {
            seed: 0x1234,
            drivers,
            txn_size,
            records_per_driver: 32_000,
            audit,
            record_bytes: 4096,
            qos: simnet::QosConfig::disabled(),
            fault_plan: FaultPlan::none(),
        }
    }

    /// A scaled-down variant for tests and criterion benches.
    pub fn scaled(drivers: u32, txn_size: TxnSize, audit: AuditMode, records: u64) -> Self {
        HotStockParams {
            records_per_driver: records,
            ..HotStockParams::paper(drivers, txn_size, audit)
        }
    }
}

/// Results of one hot-stock run.
pub struct HotStockResult {
    pub params: HotStockParams,
    /// Wall (virtual) time from first driver start to last driver done.
    pub elapsed: SimDuration,
    /// Pooled transaction response-time distribution across drivers, ns.
    pub response: Histogram,
    pub committed_txns: u64,
    pub inserted_records: u64,
    /// Snapshot of the node's persistence-action accounting.
    pub txn_stats: TxnStatsSnapshot,
    /// PMM mirror-health counters at the end of the run (PM modes only):
    /// resilver progress/rate and bulk admission throttling for QoS
    /// isolation experiments.
    pub pmm_stats: Option<pmm::PmmStats>,
}

/// Copyable snapshot of `TxnStats` counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct TxnStatsSnapshot {
    pub dbw_checkpoints: u64,
    pub audit_deltas: u64,
    pub adp_checkpoints: u64,
    pub data_volume_writes: u64,
    pub audit_volume_writes: u64,
    pub pm_writes: u64,
    pub pm_ctrl_writes: u64,
    pub tmf_checkpoints: u64,
    pub inserts: u64,
    pub flush_mean_ns: f64,
    pub flush_p95_ns: u64,
}

impl TxnStatsSnapshot {
    fn from(s: &TxnStats) -> Self {
        TxnStatsSnapshot {
            dbw_checkpoints: s.dbw_checkpoints,
            audit_deltas: s.audit_deltas,
            adp_checkpoints: s.adp_checkpoints,
            data_volume_writes: s.data_volume_writes,
            audit_volume_writes: s.audit_volume_writes,
            pm_writes: s.pm_writes,
            pm_ctrl_writes: s.pm_ctrl_writes,
            tmf_checkpoints: s.tmf_checkpoints,
            inserts: s.inserts,
            flush_mean_ns: s.flush_latency.mean(),
            flush_p95_ns: s.flush_latency.p95(),
        }
    }

    /// §3.4's enumeration: persistence/copy actions per inserted row.
    pub fn actions_per_insert(&self) -> f64 {
        if self.inserts == 0 {
            return 0.0;
        }
        (self.dbw_checkpoints
            + self.audit_deltas
            + self.adp_checkpoints
            + self.data_volume_writes
            + self.audit_volume_writes
            + self.pm_writes) as f64
            / self.inserts as f64
    }
}

/// Execute one hot-stock configuration to completion.
pub fn run_hot_stock(params: HotStockParams) -> HotStockResult {
    run_hot_stock_with(params, |_| {})
}

/// As [`run_hot_stock`], with `setup` called on the freshly built node
/// before the drivers are installed — the place to add a process of the
/// caller's own beside them.
pub fn run_hot_stock_with(
    params: HotStockParams,
    setup: impl FnOnce(&mut OdsNode),
) -> HotStockResult {
    let mut store = DurableStore::new();
    let ods = match params.audit {
        AuditMode::Disk => OdsParams::baseline(params.seed),
        _ => OdsParams {
            audit: params.audit,
            ..OdsParams::pm(params.seed)
        },
    };
    let ods = OdsParams {
        qos: params.qos,
        fault_plan: params.fault_plan.clone(),
        ..ods
    };
    let mut node = build_ods(&mut store, ods);
    setup(&mut node);

    // PM regions must exist before the drivers start hammering; the ADP
    // creates them in its first ~100 ms. One second of warmup mirrors a
    // freshly started system either way.
    let warmup = SimDuration::from_millis(1100);

    let mut driver_stats: Vec<SharedDriverStats> = Vec::new();
    let tmf = node.tmf.clone();
    let partition_map = node.partition_map.clone();
    let (files, parts, cpus) = (
        node.params.files,
        node.params.parts_per_file,
        node.params.cpus,
    );
    let issue_cpu_ns = node.params.txn.issue_cpu_ns;
    for d in 0..params.drivers {
        // Paper: drivers are application processes; spread them over the
        // worker CPUs like the TPC-style harness does.
        let cpu = CpuId(d % cpus);
        let machine = node.machine.clone();
        let st = HotStockDriver::install(
            &mut node.sim,
            &machine,
            tmf.clone(),
            partition_map.clone(),
            files,
            parts,
            d,
            cpu,
            params.record_bytes,
            params.txn_size.inserts_per_txn(),
            params.records_per_driver,
            warmup,
            issue_cpu_ns,
        );
        driver_stats.push(st);
    }

    // Run until every driver reports done AND any resilver the fault plan
    // provoked has finished (bounded by a generous ceiling).
    let ceiling = SimTime(3_600 * SECS);
    loop {
        let done = driver_stats.iter().all(|s| s.lock().done);
        let resilvers_settled = node.pmm.as_ref().is_none_or(|p| {
            let s = p.stats.lock();
            s.resilvers_completed >= s.resilvers_started
        });
        if done && resilvers_settled {
            break;
        }
        let now = node.sim.now();
        if now >= ceiling {
            panic!("hot-stock run exceeded the 1h simulated ceiling");
        }
        if std::env::var_os("HOTSTOCK_DEBUG").is_some() {
            let d = driver_stats.iter().filter(|s| s.lock().done).count();
            let ps = node.pmm.as_ref().map(|p| *p.stats.lock());
            eprintln!(
                "hotstock: t={:.2}s drivers_done={d}/{} pmm={ps:?}",
                now.as_nanos() as f64 / SECS as f64,
                driver_stats.len(),
            );
        }
        node.sim.run_until(SimTime(now.as_nanos() + 5 * SECS));
    }

    let mut response = Histogram::new();
    let mut committed = 0;
    let mut inserted = 0;
    let mut first_start = u64::MAX;
    let mut last_finish = 0u64;
    for st in &driver_stats {
        let s = st.lock();
        response.merge(&s.response);
        committed += s.committed_txns;
        inserted += s.inserted_records;
        first_start = first_start.min(s.started_ns);
        last_finish = last_finish.max(s.finished_ns);
    }
    let txn_stats = TxnStatsSnapshot::from(&node.stats.lock());
    let pmm_stats = node.pmm.as_ref().map(|p| *p.stats.lock());

    HotStockResult {
        params,
        elapsed: SimDuration::from_nanos(last_finish.saturating_sub(first_start)),
        response,
        committed_txns: committed,
        inserted_records: inserted,
        txn_stats,
        pmm_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(drivers: u32, size: TxnSize, audit: AuditMode) -> HotStockResult {
        run_hot_stock(HotStockParams::scaled(drivers, size, audit, 128))
    }

    #[test]
    fn completes_and_accounts_correctly() {
        let r = quick(2, TxnSize::K32, AuditMode::Disk);
        assert_eq!(r.inserted_records, 256);
        assert_eq!(r.committed_txns, 2 * 128 / 8);
        assert!(r.elapsed > SimDuration::ZERO);
        assert!(r.response.count() == r.committed_txns);
        assert_eq!(r.txn_stats.inserts, 256);
        assert!(r.txn_stats.audit_volume_writes > 0);
        assert_eq!(r.txn_stats.pm_writes, 0);
    }

    #[test]
    fn pm_beats_disk_on_response_time_at_small_boxcar() {
        let disk = quick(1, TxnSize::K32, AuditMode::Disk);
        let pm = quick(1, TxnSize::K32, AuditMode::Pmp);
        assert_eq!(pm.txn_stats.audit_volume_writes, 0);
        assert!(pm.txn_stats.pm_writes > 0);
        let speedup = disk.response.mean() / pm.response.mean();
        assert!(
            speedup > 1.3,
            "PM response speedup {speedup:.2} should exceed 1.3 (fig 1 shape)"
        );
    }

    #[test]
    fn pm_elapsed_insensitive_to_boxcarring() {
        // Figure 2's claim: "For a PM enabled ADP, the throughput is
        // virtually unaffected by the amount of boxcarring."
        let small = quick(1, TxnSize::K32, AuditMode::Pmp);
        let large = quick(1, TxnSize::K128, AuditMode::Pmp);
        let ratio = small.elapsed.as_nanos() as f64 / large.elapsed.as_nanos() as f64;
        assert!(
            ratio < 1.8,
            "PM elapsed ratio 32k/128k = {ratio:.2}, should be near 1"
        );
        // While the disk baseline degrades sharply as boxcarring shrinks.
        let dsmall = quick(1, TxnSize::K32, AuditMode::Disk);
        let dlarge = quick(1, TxnSize::K128, AuditMode::Disk);
        let dratio = dsmall.elapsed.as_nanos() as f64 / dlarge.elapsed.as_nanos() as f64;
        assert!(
            dratio > ratio,
            "disk must degrade more than PM: disk {dratio:.2} vs pm {ratio:.2}"
        );
    }

    #[test]
    fn hardware_npmu_slightly_faster_than_pmp() {
        let pmp = quick(1, TxnSize::K32, AuditMode::Pmp);
        let hw = quick(1, TxnSize::K32, AuditMode::HardwareNpmu);
        assert!(
            hw.response.mean() < pmp.response.mean(),
            "hw {} !< pmp {}",
            hw.response.mean(),
            pmp.response.mean()
        );
        // "slightly": within 20%.
        assert!(hw.response.mean() > pmp.response.mean() * 0.8);
    }

    #[test]
    fn four_drivers_complete() {
        let r = quick(4, TxnSize::K64, AuditMode::Pmp);
        assert_eq!(r.inserted_records, 4 * 128);
    }
}
