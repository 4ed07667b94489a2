//! Figure 2 — "PM eliminates the need to boxcar": total elapsed time vs
//! transaction size for 1 and 2 drivers, with and without PM. The paper's
//! reading: "the throughput with large boxcar sizes is fine for the
//! standard ADP, but as the amount of boxcarring decreases, throughput
//! drops off sharply. For a PM enabled ADP, the throughput is virtually
//! unaffected by the amount of boxcarring."
//!
//! Usage: `cargo run --release -p pm-bench --bin fig2 [--full]`

use pm_bench::{records_per_driver, Table};
use txnkit::scenario::AuditMode;
use workload::{hot_stock, run_hot_stock, TxnSize, WorkloadConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let records = records_per_driver(&args);
    eprintln!("fig2: {records} records/driver (use --full for 32000)");

    let mut jobs = Vec::new();
    for size in TxnSize::ALL {
        for drivers in [1u32, 2] {
            for mode in [AuditMode::Disk, AuditMode::Pmp] {
                jobs.push((size, drivers, mode));
            }
        }
    }
    let results: Vec<((TxnSize, u32, AuditMode), f64)> = crossbeam::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|&(size, drivers, mode)| {
                s.spawn(move |_| {
                    let r = run_hot_stock(
                        hot_stock::node(mode),
                        WorkloadConfig::hot_stock(drivers, size.inserts_per_txn(), records),
                    );
                    ((size, drivers, mode), r.elapsed.as_secs_f64())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
    .unwrap();

    let elapsed_of = |size: TxnSize, drivers: u32, mode: AuditMode| -> f64 {
        results
            .iter()
            .find(|((s, d, m), _)| *s == size && *d == drivers && *m == mode)
            .unwrap()
            .1
    };

    let mut t = Table::new(&[
        "txn_size",
        "1drv_no_pm_s",
        "2drv_no_pm_s",
        "1drv_pm_s",
        "2drv_pm_s",
    ]);
    for size in TxnSize::ALL {
        t.row(&[
            size.label().to_string(),
            format!("{:.2}", elapsed_of(size, 1, AuditMode::Disk)),
            format!("{:.2}", elapsed_of(size, 2, AuditMode::Disk)),
            format!("{:.2}", elapsed_of(size, 1, AuditMode::Pmp)),
            format!("{:.2}", elapsed_of(size, 2, AuditMode::Pmp)),
        ]);
    }
    t.print("Figure 2: total elapsed time (s) vs transaction size");

    // The headline ratios.
    let no_pm_degrade = elapsed_of(TxnSize::K32, 1, AuditMode::Disk)
        / elapsed_of(TxnSize::K128, 1, AuditMode::Disk);
    let pm_degrade =
        elapsed_of(TxnSize::K32, 1, AuditMode::Pmp) / elapsed_of(TxnSize::K128, 1, AuditMode::Pmp);
    println!("degradation 32k vs 128k (1 driver): no-PM {no_pm_degrade:.2}x, PM {pm_degrade:.2}x");
}
