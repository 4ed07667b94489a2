//! The headline fault-tolerance property, end to end: a transaction the
//! PM-enabled node has acknowledged as committed survives a whole-node
//! power loss — its audit records and commit record are recoverable from
//! the NPMU images alone.

mod common;

use common::read_region;
use simcore::time::SECS;
use simcore::{DurableStore, SimTime};
use txnkit::recovery::redo_scan_partitioned;
use txnkit::scenario::{build_ods, AuditMode, OdsParams};
use workload::{install_workload, WorkloadConfig};

#[test]
fn committed_transactions_survive_power_loss() {
    let mut store = DurableStore::new();
    let committed;
    {
        // PM on *hardware* NPMUs: contents survive power loss (a PMP's
        // would not — the paper's prototype traded that away knowingly).
        let mut node = build_ods(
            &mut store,
            OdsParams {
                audit: AuditMode::HardwareNpmu,
                ..OdsParams::pm(777)
            },
        );
        let (view, machine) = (node.view(), node.machine.clone());
        let stats = install_workload(
            &mut node.sim,
            &machine,
            &view,
            // More records than will finish: we cut power mid-stream.
            WorkloadConfig::hot_stock(1, 8, 10_000),
        );
        // Power fails 4 seconds in, mid-workload.
        node.sim.run_until(SimTime(4 * SECS));
        committed = stats.lock().committed;
        assert!(committed > 50, "want a meaningful prefix committed");
        // Sim dropped here == power loss.
    }
    store.reset_volatile();

    // Recovery, offline: read the four data trails and the master trail
    // (ADP0's region holds both its data records and the commit records)
    // straight from a surviving mirror, then redo.
    let trails: Vec<Vec<u8>> = (0..4)
        .map(|i| read_region(&mut store, "npmu:pm-a", &format!("adp{i}.audit"), 64))
        .collect();
    let refs: Vec<&[u8]> = trails.iter().map(|t| t.as_slice()).collect();
    let rec = redo_scan_partitioned(&refs);

    assert!(
        rec.committed.len() as u64 >= committed,
        "every acknowledged commit must be recoverable: found {} < acked {}",
        rec.committed.len(),
        committed
    );
    // The acknowledged commits' inserts are all redone (8 per txn).
    let keys: usize = rec.tables.values().map(|t| t.len()).sum();
    assert!(
        keys as u64 >= committed * 8,
        "redo rebuilt {keys} keys for {committed} acked txns"
    );

    // The master trail carries periodic fuzzy checkpoint marks — the
    // recovery hint that bounds a tail scan (T3's constant-MTTR story).
    let marks = txnkit::audit::scan(&trails[0])
        .iter()
        .filter(|(_, r)| matches!(r, txnkit::audit::AuditRecord::CheckpointMark { .. }))
        .count();
    assert!(
        marks >= 1,
        "expected fuzzy checkpoint marks in the master trail ({committed} commits)"
    );

    // The mirror pair agrees (both devices hold the same trail bytes).
    let mirror: Vec<Vec<u8>> = (0..4)
        .map(|i| read_region(&mut store, "npmu:pm-b", &format!("adp{i}.audit"), 64))
        .collect();
    for (a, b) in trails.iter().zip(mirror.iter()) {
        assert_eq!(a, b, "mirrors must hold identical trails");
    }
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
    let mut store = DurableStore::new();
    let acked;
    {
        let mut params = OdsParams::baseline(2222);
        params.audit_disk = DiskConfig {
            cache: WriteCachePolicy::Volatile,
            destage_delay_ns: 2_000_000_000, // 2 s destage lag
            ..DiskConfig::default()
        };
        // No group-commit wait needed: the (volatile) cache answers fast.
        params.txn.group_commit_window_ns = 0;
        let mut node = build_ods(&mut store, params);
        let (view, machine) = (node.view(), node.machine.clone());
        let stats = install_workload(
            &mut node.sim,
            &machine,
            &view,
            WorkloadConfig::hot_stock(1, 8, 10_000),
        );
        node.sim.run_until(SimTime(4 * SECS));
        acked = stats.lock().committed;
        assert!(acked > 50);
        // Power loss: the controller cache dies with the machine.
    }
    store.reset_volatile();

    let trails: Vec<Vec<u8>> = (0..4)
        .map(|cpu| {
            let media = store
                .get::<simdisk::SparseMedia>(&format!("disk:$AUDIT{cpu}"))
                .unwrap();
            let m = media.lock();
            m.read(0, m.high_water() as usize)
        })
        .collect();
    let refs: Vec<&[u8]> = trails.iter().map(|t| t.as_slice()).collect();
    let rec = redo_scan_partitioned(&refs);
    assert!(
        (rec.committed.len() as u64) < acked,
        "volatile cache must lose acknowledged commits: recovered {} of {acked}",
        rec.committed.len()
    );
}
