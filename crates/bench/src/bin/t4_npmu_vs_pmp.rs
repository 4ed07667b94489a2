//! T4 — hardware NPMU vs the PMP prototype (§4.2): "We have since
//! verified this claim, and have found that a true hardware PMU is
//! actually slightly faster than the PMPs used in the experiments."

use pm_bench::{measure_pm_write, MeasureOpts, Table};
use pmem::NpmuConfig;
use txnkit::scenario::AuditMode;
use workload::{hot_stock, run_hot_stock, TxnSize, WorkloadConfig};

fn main() {
    const N: u32 = 300;
    let mut t = Table::new(&["device", "size_B", "write_mean_us", "write_p95_us"]);
    for size in [64u32, 512, 4096] {
        let hw = measure_pm_write(MeasureOpts::pm_default(N, size));
        let pmp = measure_pm_write(MeasureOpts {
            device: NpmuConfig::pmp(64 << 20),
            ..MeasureOpts::pm_default(N, size)
        });
        t.row(&[
            "hardware NPMU".into(),
            size.to_string(),
            format!("{:.1}", hw.mean() / 1e3),
            format!("{:.1}", hw.p95() as f64 / 1e3),
        ]);
        t.row(&[
            "PMP prototype".into(),
            size.to_string(),
            format!("{:.1}", pmp.mean() / 1e3),
            format!("{:.1}", pmp.p95() as f64 / 1e3),
        ]);
    }
    t.print("T4: persistent-write latency, hardware NPMU vs PMP");

    // End-to-end check on the benchmark workload.
    let pmp = run_hot_stock(
        hot_stock::node(AuditMode::Pmp),
        WorkloadConfig::hot_stock(1, TxnSize::K32.inserts_per_txn(), 1000),
    );
    let hw = run_hot_stock(
        hot_stock::node(AuditMode::HardwareNpmu),
        WorkloadConfig::hot_stock(1, TxnSize::K32.inserts_per_txn(), 1000),
    );
    println!(
        "hot-stock 32k mean response: PMP {:.2} ms, hardware {:.2} ms ({:.1}% faster)",
        pmp.response.mean() / 1e6,
        hw.response.mean() / 1e6,
        100.0 * (pmp.response.mean() - hw.response.mean()) / pmp.response.mean()
    );
    println!("paper: hardware \"slightly faster\" — expect single-digit percent");
}
