//! The headline fault-tolerance property, end to end: a transaction the
//! PM-enabled node has acknowledged as committed survives a whole-node
//! power loss — its audit records and commit record are recoverable from
//! the NPMU images alone.

use pmem::oracle::{Expect, Snapshot, Trails};
use simcore::time::SECS;
use simcore::{DurableStore, SimTime};
use txnkit::audit::{scan, AuditRecord};
use txnkit::scenario::{build_ods, AuditMode, OdsParams};
use txnkit::TxnId;
use workload::{install_workload, WorkloadConfig};

/// Run one hot-stock driver (8 inserts per transaction, more records
/// than will finish) on a node built from `params` until `cut`, and
/// return what it saw acknowledged. Dropping the node is the power loss.
fn run_until_cut(store: &mut DurableStore, params: OdsParams, cut: SimTime) -> Vec<TxnId> {
    let mut node = build_ods(store, params);
    let (view, machine) = (node.view(), node.machine.clone());
    let stats = install_workload(
        &mut node.sim,
        &machine,
        &view,
        WorkloadConfig::hot_stock(1, 8, 10_000),
    );
    node.sim.run_until(cut);
    let acked = stats.lock().committed_ids.clone();
    assert!(acked.len() > 50, "want a meaningful prefix committed");
    acked
}

#[test]
fn committed_transactions_survive_power_loss() {
    // PM on *hardware* NPMUs: contents survive power loss (a PMP's would
    // not — the paper's prototype traded that away knowingly).
    let params = OdsParams {
        audit: AuditMode::HardwareNpmu,
        ..OdsParams::pm(777)
    };
    // Ground truth: the same run a second longer. Anything durable at the
    // cut has been acknowledged by then.
    let truth = run_until_cut(&mut DurableStore::new(), params.clone(), SimTime(5 * SECS));
    // Power fails 4 seconds in, mid-workload.
    let mut store = DurableStore::new();
    let acked = run_until_cut(&mut store, params.clone(), SimTime(4 * SECS));
    store.reset_volatile();

    // Recovery, offline, from the four trails on the NPMU images alone
    // (ADP0's region holds both its data records and commit records):
    // every acknowledged commit redone with its 8 inserts from either
    // half, nothing invented.
    let snapshot = Snapshot::read(&store, &[Trails::node(&params)]);
    let report = snapshot.check(&Expect {
        acked: &acked,
        truth: Some(&truth),
        inserts: 8,
        ..Expect::default()
    });
    report.assert_clean("power loss at 4 s");

    // The mirror pair agrees: both halves hold the same written trails.
    for t in &snapshot.shards[0] {
        let [a, b] = &t.halves[..] else {
            panic!("{} is not mirrored", t.name)
        };
        assert_eq!(
            a.trail, b.trail,
            "{}: mirrors must hold identical trails",
            t.name
        );
    }

    // The master trail carries periodic fuzzy checkpoint marks — the
    // recovery hint that bounds a tail scan (T3's constant-MTTR story).
    let marks = scan(snapshot.shards[0][0].bytes())
        .iter()
        .filter(|(_, r)| matches!(r, AuditRecord::CheckpointMark { .. }))
        .count();
    assert!(
        marks >= 1,
        "expected fuzzy checkpoint marks in the master trail ({} commits)",
        acked.len()
    );
}

#[test]
fn pmp_trails_do_not_survive_power_loss() {
    // Negative control: the PMP prototype is volatile — after power loss
    // its memory is gone, exactly as §4.2 concedes.
    let mut store = DurableStore::new();
    {
        let mut node = build_ods(&mut store, OdsParams::pm(778));
        node.sim.run_until(SimTime(3 * SECS));
    }
    store.reset_volatile();
    let img = store.get::<npmu::NvImage>("npmu:pm-a").expect("image");
    let img = img.lock();
    let meta = pmm::MetaStore::recover(|off, len| img.read(off, len));
    assert!(
        meta.regions.is_empty(),
        "PMP image must be blank after power loss"
    );
}

#[test]
fn volatile_write_cache_violates_audit_durability() {
    // Negative control for the baseline's configuration choice: §2 —
    // "the completion time of at least one ... disk I/O [is] included in
    // the response time of every transaction that obeys the benchmark
    // ACID properties". Putting the audit trail on a *volatile* write
    // cache makes commits fast and WRONG: acknowledged commits evaporate
    // at power loss.
    use simdisk::{DiskConfig, WriteCachePolicy};
    let mut params = OdsParams::baseline(2222);
    params.audit_disk = DiskConfig {
        cache: WriteCachePolicy::Volatile,
        destage_delay_ns: 2_000_000_000, // 2 s destage lag
        ..DiskConfig::default()
    };
    // No group-commit wait needed: the (volatile) cache answers fast.
    params.txn.group_commit_window_ns = 0;
    let mut store = DurableStore::new();
    let acked = run_until_cut(&mut store, params.clone(), SimTime(4 * SECS));
    // Power loss: the controller cache dies with the machine.
    store.reset_volatile();

    let report = Snapshot::read(&store, &[Trails::node(&params)]).check(&Expect {
        acked: &acked,
        inserts: 8,
        ..Expect::default()
    });
    assert!(
        report.lost() > 0,
        "volatile cache must lose acknowledged commits: recovered {} of {}",
        report.recovery.committed.len(),
        acked.len()
    );
}
