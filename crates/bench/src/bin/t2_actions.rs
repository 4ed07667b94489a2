//! T2 — persistence/copy actions per inserted row (§3.4): the baseline's
//! five-way redundancy ("first from the database writer primary to backup,
//! then as audit 'delta' from the database writer to the log writer, then
//! again from the log writer to its backup, from the database writer to
//! data volumes and from the log writer to log volumes") vs the single
//! synchronous PM write.

use pm_bench::{json, Table};
use txnkit::scenario::AuditMode;
use txnkit::stats::TxnStats;
use workload::{hot_stock, run_hot_stock, TxnSize, WorkloadConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let records = 1000;
    let disk = run_hot_stock(
        hot_stock::node(AuditMode::Disk),
        WorkloadConfig::hot_stock(1, TxnSize::K64.inserts_per_txn(), records),
    );
    let pm = run_hot_stock(
        hot_stock::node(AuditMode::Pmp),
        WorkloadConfig::hot_stock(1, TxnSize::K64.inserts_per_txn(), records),
    );

    #[allow(clippy::type_complexity)]
    let rows: [(&str, fn(&TxnStats) -> u64); 6] = [
        ("DBW primary -> backup checkpoint", |s| s.dbw_checkpoints),
        ("DBW -> ADP audit delta", |s| s.audit_deltas),
        ("ADP primary -> backup checkpoint", |s| s.adp_checkpoints),
        ("DBW -> data volume write", |s| s.data_volume_writes),
        ("ADP -> audit volume write", |s| s.audit_volume_writes),
        ("ADP -> PM synchronous write", |s| s.pm_writes),
    ];

    let keys = [
        "dbw_checkpoint",
        "audit_delta",
        "adp_checkpoint",
        "data_volume_write",
        "audit_volume_write",
        "pm_sync_write",
    ];
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut t = Table::new(&["persistence action", "baseline/insert", "pm/insert"]);
    for ((label, get), key) in rows.into_iter().zip(keys) {
        let base = get(&disk.txn_stats) as f64 / disk.txn_stats.inserts as f64;
        let pmr = get(&pm.txn_stats) as f64 / pm.txn_stats.inserts as f64;
        t.row(&[label.to_string(), format!("{base:.3}"), format!("{pmr:.3}")]);
        metrics.push((format!("baseline_{key}_per_insert"), base));
        metrics.push((format!("pm_{key}_per_insert"), pmr));
    }
    t.row(&[
        "(info) PM control-cell writes".into(),
        format!(
            "{:.3}",
            disk.txn_stats.pm_ctrl_writes as f64 / disk.txn_stats.inserts as f64
        ),
        format!(
            "{:.3}",
            pm.txn_stats.pm_ctrl_writes as f64 / pm.txn_stats.inserts as f64
        ),
    ]);
    t.row(&[
        "TOTAL (measured, prototype scope)".into(),
        format!("{:.3}", disk.txn_stats.actions_per_insert()),
        format!("{:.3}", pm.txn_stats.actions_per_insert()),
    ]);
    // §3.4's *envisioned* persistence architecture goes further than the
    // prototype (which only re-targets the ADP): rows become persistent
    // "once when they enter the database writer, by synchronously writing
    // to the NPMU", eliminating the DBW checkpoint, the audit delta as a
    // durability action, both backup checkpoints and both volume writes.
    t.row(&[
        "TOTAL (envisioned arch., computed)".into(),
        format!("{:.3}", disk.txn_stats.actions_per_insert()),
        "1.000".into(),
    ]);
    metrics.push((
        "baseline_total_per_insert".into(),
        disk.txn_stats.actions_per_insert(),
    ));
    metrics.push((
        "pm_total_per_insert".into(),
        pm.txn_stats.actions_per_insert(),
    ));
    metrics.push(("pm_envisioned_total_per_insert".into(), 1.0));
    t.print("T2: persistence/copy actions per inserted row (paper §3.4)");
    println!(
        "paper: baseline repeats persistence ~5x per row; PM makes rows durable once\n\
         (note: the audit delta message itself remains — data must still reach the\n\
         log writer — but every redundant durability action downstream collapses\n\
         into the mirrored PM write, and the flush is amortized across the boxcar)"
    );

    if json::wants_json(&args) {
        let path = json::emit("t2_actions", &metrics).expect("write json");
        println!("json: {}", path.display());
    }
}
