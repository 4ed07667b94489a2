//! Figure 1 — "PM improves response time drastically": response-time
//! speedup with a PM-enabled ADP vs transaction size (degree of
//! boxcarring), one series per driver count (1–4 hot stocks).
//!
//! Usage: `cargo run --release -p pm-bench --bin fig1 [--full]`
//! (`--full` = the paper's 32000 records per driver; default 2000, same
//! shape at 1/16 the events).

use pm_bench::{records_per_driver, Table};
use txnkit::scenario::AuditMode;
use workload::{hot_stock, run_hot_stock, TxnSize, WorkloadConfig};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let records = records_per_driver(&args);
    eprintln!("fig1: {records} records/driver (use --full for 32000)");

    // Sweep (size × drivers × mode) across worker threads: every run is
    // an independent simulation.
    let mut jobs = Vec::new();
    for size in TxnSize::ALL {
        for drivers in 1..=4u32 {
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
                    ((size, drivers, mode), r.response.mean())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
    .unwrap();

    let mean_of = |size: TxnSize, drivers: u32, mode: AuditMode| -> f64 {
        results
            .iter()
            .find(|((s, d, m), _)| *s == size && *d == drivers && *m == mode)
            .unwrap()
            .1
    };

    let mut t = Table::new(&[
        "txn_size",
        "1_driver",
        "2_drivers",
        "3_drivers",
        "4_drivers",
    ]);
    for size in TxnSize::ALL {
        let mut row = vec![size.label().to_string()];
        for drivers in 1..=4u32 {
            let disk = mean_of(size, drivers, AuditMode::Disk);
            let pm = mean_of(size, drivers, AuditMode::Pmp);
            row.push(format!("{:.2}", disk / pm));
        }
        t.row(&row);
    }
    t.print("Figure 1: response-time speedup with PM (disk RT / PM RT)");

    // Supporting absolute numbers.
    let mut abs = Table::new(&["txn_size", "drivers", "disk_rt_ms", "pm_rt_ms"]);
    for size in TxnSize::ALL {
        for drivers in 1..=4u32 {
            abs.row(&[
                size.label().to_string(),
                drivers.to_string(),
                format!("{:.2}", mean_of(size, drivers, AuditMode::Disk) / 1e6),
                format!("{:.2}", mean_of(size, drivers, AuditMode::Pmp) / 1e6),
            ]);
        }
    }
    abs.print("Figure 1 (supporting): mean transaction response time");
}
