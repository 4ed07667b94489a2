//! Guard-rail tests for the paper's qualitative results: if a refactor
//! breaks a figure's *shape*, these fail before anyone re-runs the full
//! harness.

use txnkit::scenario::AuditMode;
use workload::{hot_stock, run_hot_stock, HotStockResult, TxnSize, WorkloadConfig};

fn cell(drivers: u32, size: TxnSize, audit: AuditMode) -> HotStockResult {
    run_hot_stock(
        hot_stock::node(audit),
        WorkloadConfig::hot_stock(drivers, size.inserts_per_txn(), 400),
    )
}

#[test]
fn fig1_speedup_band_and_trends() {
    let speedup = |drivers, size| {
        let d = cell(drivers, size, AuditMode::Disk);
        let p = cell(drivers, size, AuditMode::Pmp);
        d.response.mean() / p.response.mean()
    };
    let s32_1 = speedup(1, TxnSize::K32);
    let s32_4 = speedup(4, TxnSize::K32);
    let s128_1 = speedup(1, TxnSize::K128);

    // Paper: "Response time was up to 3.5 times better with a PM enabled
    // ADP" — the 32k/1-driver cell is the peak, in the 2.5–4 band.
    assert!(
        (2.5..4.2).contains(&s32_1),
        "peak speedup {s32_1:.2} outside the paper's band"
    );
    // "The benefit of PM was greatest with the more common 1-2 hot-stock
    // case, though there was improvement even with 3 or 4 hot stocks."
    assert!(s32_4 > 1.5, "4-driver speedup {s32_4:.2} lost the benefit");
    assert!(
        s32_1 >= s32_4 * 0.95,
        "benefit should not grow with drivers"
    );
    // Speedup shrinks as boxcarring grows, but stays > 1.
    assert!(s128_1 > 1.2 && s128_1 < s32_1, "128k speedup {s128_1:.2}");
}

#[test]
fn fig2_pm_flat_baseline_collapses() {
    let el = |size, audit| cell(1, size, audit).elapsed.as_nanos() as f64;
    let disk_ratio = el(TxnSize::K32, AuditMode::Disk) / el(TxnSize::K128, AuditMode::Disk);
    let pm_ratio = el(TxnSize::K32, AuditMode::Pmp) / el(TxnSize::K128, AuditMode::Pmp);
    // "as the amount of boxcarring decreases, throughput drops off
    // sharply" (disk) vs "virtually unaffected" (PM).
    assert!(
        disk_ratio > 1.8,
        "disk degradation {disk_ratio:.2} too mild"
    );
    assert!(pm_ratio < 1.35, "PM degradation {pm_ratio:.2} not flat");
    assert!(disk_ratio > 1.6 * pm_ratio);
}

#[test]
fn t2_pm_eliminates_adp_side_persistence() {
    let d = cell(1, TxnSize::K64, AuditMode::Disk).txn_stats;
    let p = cell(1, TxnSize::K64, AuditMode::Pmp).txn_stats;
    // Baseline: one ADP backup checkpoint per insert (process-pair rule),
    // plus audit volume writes.
    assert!(d.adp_checkpoints as f64 / d.inserts as f64 > 0.95);
    assert!(d.audit_volume_writes > 0);
    assert_eq!(d.pm_writes, 0);
    // PM: no ADP checkpoints, no audit volumes — only PM writes.
    assert_eq!(p.adp_checkpoints, 0);
    assert_eq!(p.audit_volume_writes, 0);
    assert!(p.pm_writes > 0);
    assert!(
        p.actions_per_insert() < d.actions_per_insert(),
        "pm {p:.2?} !< disk {d:.2?}",
        p = p.actions_per_insert(),
        d = d.actions_per_insert()
    );
}

#[test]
fn t4_hardware_slightly_faster_than_pmp() {
    let pmp = cell(1, TxnSize::K32, AuditMode::Pmp);
    let hw = cell(1, TxnSize::K32, AuditMode::HardwareNpmu);
    assert!(hw.response.mean() < pmp.response.mean());
    assert!(
        hw.response.mean() > pmp.response.mean() * 0.75,
        "should be *slightly* faster, not wildly"
    );
}
