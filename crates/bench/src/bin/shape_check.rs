//! Calibration matrix: the full (txn size × drivers × mode) grid in one
//! screen — the tool used to tune DESIGN.md §16's constants against the
//! paper's shapes. `fig1`/`fig2` produce the publication tables; this
//! prints the raw grid.

use txnkit::scenario::AuditMode;
use workload::{hot_stock, run_hot_stock, TxnSize, WorkloadConfig};
fn main() {
    let recs = 2000;
    for size in TxnSize::ALL {
        for drivers in [1u32, 2, 4] {
            let d = run_hot_stock(
                hot_stock::node(AuditMode::Disk),
                WorkloadConfig::hot_stock(drivers, size.inserts_per_txn(), recs),
            );
            let p = run_hot_stock(
                hot_stock::node(AuditMode::Pmp),
                WorkloadConfig::hot_stock(drivers, size.inserts_per_txn(), recs),
            );
            println!(
                "size={} drivers={} | disk: rt={:.2}ms el={:.1}s | pm: rt={:.2}ms el={:.1}s | speedup_rt={:.2} el_ratio={:.2}",
                size.label(), drivers,
                d.response.mean()/1e6, d.elapsed.as_secs_f64(),
                p.response.mean()/1e6, p.elapsed.as_secs_f64(),
                d.response.mean()/p.response.mean(),
                d.elapsed.as_nanos() as f64 / p.elapsed.as_nanos() as f64,
            );
        }
    }
}
