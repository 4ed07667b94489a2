//! The paper's §4.3 hot-stock benchmark, as a [`ClientPool`] preset.
//!
//! "This test consists of up to 4 driver processes. Each driver represents
//! a single hotly-traded stock. The drivers each insert 32000 4K records.
//! The database consists of 4 files, each distributed across 4 disk
//! volumes (a total of 16 disk volumes were used). During each transaction
//! each driver performs a number of asynchronous inserts into each file.
//! The transactions are committed between subsequent iterations to
//! simulate the regulatory ordering constraints."
//!
//! The regulatory constraint is the §2 *Hot Stock problem*: a driver may
//! not issue its next boxcar until the previous one committed, so commit
//! response time divides directly into per-stock throughput. A driver is
//! therefore one zero-think client in a pool of its own
//! ([`WorkloadConfig::hot_stock`]), and [`run_hot_stock`] builds the
//! S86000-like node, runs the drivers to completion and returns the
//! measurements Figures 1 and 2 are drawn from.
//!
//! [`ClientPool`]: crate::driver::ClientPool

use crate::dist::ThinkTime;
use crate::driver::{install_workload, Keys, WorkloadConfig};
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

/// The seed every hot-stock figure runs on.
const SEED: u64 = 0x1234;

impl WorkloadConfig {
    /// §4.3's load: `drivers` hot stocks, each one zero-think client in a
    /// pool of its own (so driver `d` runs on worker CPU `d % cpus`),
    /// issuing `inserts_per_txn` 4 KB inserts per transaction with
    /// [`Keys::Sequential`] keys until it has inserted `records` (the
    /// paper: 32,000). Issuing one insert costs the driver 1 ms of CPU,
    /// which serializes its issue loop — §2: "the issue rate (thereby the
    /// throughput) of a single application server thread is inversely
    /// related to the response time of database operations".
    pub fn hot_stock(drivers: u32, inserts_per_txn: u32, records: u64) -> Self {
        WorkloadConfig {
            pools_per_shard: drivers,
            think: ThinkTime::Zero,
            inserts_per_txn,
            keys: Keys::Sequential,
            records_per_client: records,
            run_for: None,
            issue_cpu_ns: 1_000_000,
            ..WorkloadConfig::new(SEED, drivers as u64)
        }
    }
}

/// The node a hot-stock run measures: the disk baseline, or the
/// PM-enabled node with `audit`'s device.
pub fn node(audit: AuditMode) -> OdsParams {
    match audit {
        AuditMode::Disk => OdsParams::baseline(SEED),
        _ => OdsParams {
            audit,
            ..OdsParams::pm(SEED)
        },
    }
}

/// Results of one hot-stock run.
pub struct HotStockResult {
    /// Simulated time from the drivers' start to the last one's finish.
    pub elapsed: SimDuration,
    /// Pooled transaction response-time distribution across drivers, ns.
    pub response: Histogram,
    pub committed_txns: u64,
    pub inserted_records: u64,
    /// The node's persistence-action accounting at the end of the run.
    pub txn_stats: TxnStats,
    /// PMM mirror-health counters at the end of the run (PM modes only):
    /// resilver progress/rate and bulk admission throttling for QoS
    /// isolation experiments.
    pub pmm_stats: Option<pmm::PmmStats>,
}

/// Run `load` on a node built from `ods` to completion.
pub fn run_hot_stock(ods: OdsParams, load: WorkloadConfig) -> HotStockResult {
    run_hot_stock_with(ods, load, |_| {})
}

/// As [`run_hot_stock`], with `setup` called on the freshly built node
/// before the drivers are installed — the place to add a process of the
/// caller's own beside them.
pub fn run_hot_stock_with(
    ods: OdsParams,
    load: WorkloadConfig,
    setup: impl FnOnce(&mut OdsNode),
) -> HotStockResult {
    let mut store = DurableStore::new();
    let mut node = build_ods(&mut store, ods);
    setup(&mut node);
    let (view, machine) = (node.view(), node.machine.clone());
    let stats = install_workload(&mut node.sim, &machine, &view, load);

    // Run until every driver is done AND any resilver the fault plan
    // provoked has finished (bounded by a generous ceiling).
    let ceiling = SimTime(3_600 * SECS);
    loop {
        let resilvers_settled = node.pmm.as_ref().is_none_or(|p| {
            let s = p.stats.lock();
            s.resilvers_completed >= s.resilvers_started
        });
        if stats.lock().done() && resilvers_settled {
            break;
        }
        let now = node.sim.now();
        assert!(
            now < ceiling,
            "hot-stock run exceeded the 1h simulated ceiling"
        );
        node.sim.run_until(SimTime(now.as_nanos() + 5 * SECS));
    }

    let s = std::mem::take(&mut *stats.lock());
    let txn_stats = std::mem::take(&mut *node.stats.lock());
    HotStockResult {
        elapsed: SimDuration::from_nanos(s.finished_ns.saturating_sub(s.started_ns)),
        response: s.response,
        committed_txns: s.committed,
        inserted_records: s.inserted_records,
        txn_stats,
        pmm_stats: node.pmm.as_ref().map(|p| *p.stats.lock()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 400 records at 32 per transaction: twelve full boxcars and a last
    /// one of 16.
    fn run(drivers: u32, size: TxnSize, audit: AuditMode) -> HotStockResult {
        run_hot_stock(
            node(audit),
            WorkloadConfig::hot_stock(drivers, size.inserts_per_txn(), 400),
        )
    }

    #[test]
    fn completes_and_accounts_correctly() {
        let r = run(2, TxnSize::K128, AuditMode::Disk);
        assert_eq!(r.inserted_records, 2 * 400);
        assert_eq!(r.committed_txns, 2 * 13);
        assert!(r.elapsed > SimDuration::ZERO);
        assert_eq!(r.response.count(), r.committed_txns);
        assert_eq!(r.txn_stats.inserts, 2 * 400);
        assert_eq!(r.txn_stats.txns_committed, 2 * 13);
        assert!(r.txn_stats.audit_volume_writes > 0);
        assert_eq!(r.txn_stats.pm_writes, 0);
    }

    #[test]
    fn four_drivers_complete() {
        let r = run(4, TxnSize::K128, AuditMode::Pmp);
        assert_eq!(r.inserted_records, 4 * 400);
        assert_eq!(r.committed_txns, 4 * 13);
        assert_eq!(r.txn_stats.inserts, 4 * 400);
    }
}
