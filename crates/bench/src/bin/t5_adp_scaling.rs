//! T5 — audit throughput scaling (§4.2): "For scaling audit throughput,
//! multiple ADPs can be configured per node." We sweep the node's
//! CPU/ADP count under a fixed 4-driver insert-heavy load and report
//! aggregate insert throughput.

use pm_bench::Table;
use txnkit::scenario::{AuditMode, OdsParams};
use workload::{hot_stock, run_hot_stock, WorkloadConfig};

/// Aggregate inserts/s of 4 drivers × 600 records in 32k transactions.
fn run(cpus: u32, audit: AuditMode) -> f64 {
    let ods = OdsParams {
        seed: 0xBEEF,
        cpus,
        parts_per_file: cpus,
        ..hot_stock::node(audit)
    };
    let r = run_hot_stock(ods, WorkloadConfig::hot_stock(4, 8, 600));
    r.inserted_records as f64 / r.elapsed.as_secs_f64()
}

fn main() {
    let mut t = Table::new(&["adps_per_node", "disk_inserts_per_s", "pm_inserts_per_s"]);
    for cpus in [1u32, 2, 4] {
        let disk = run(cpus, AuditMode::Disk);
        let pm = run(cpus, AuditMode::Pmp);
        t.row(&[
            cpus.to_string(),
            format!("{:.0}", disk),
            format!("{:.0}", pm),
        ]);
    }
    t.print("T5: aggregate insert throughput vs ADP count (4 drivers, 32k txns)");
    println!("paper: audit throughput scales with ADPs per node (both modes should rise)");
}
