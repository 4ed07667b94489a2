//! Scaled-down figure runs under criterion, so `cargo bench` exercises
//! every paper experiment end to end. Each iteration runs a complete
//! deterministic simulation; the figure binaries (`fig1`, `fig2`, …)
//! produce the actual tables.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use txnkit::scenario::AuditMode;
use workload::{hot_stock, run_hot_stock, TxnSize, WorkloadConfig};

fn bench_fig1_cell(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig1_cell");
    g.sample_size(10);
    for mode in [AuditMode::Disk, AuditMode::Pmp] {
        let label = match mode {
            AuditMode::Disk => "disk",
            _ => "pm",
        };
        g.bench_function(format!("32k_1driver_{label}"), |b| {
            b.iter(|| {
                let r = run_hot_stock(
                    hot_stock::node(mode),
                    WorkloadConfig::hot_stock(1, TxnSize::K32.inserts_per_txn(), 64),
                );
                black_box(r.response.mean())
            })
        });
    }
    g.finish();
}

fn bench_fig2_cell(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig2_cell");
    g.sample_size(10);
    g.bench_function("128k_2drivers_pm", |b| {
        b.iter(|| {
            let r = run_hot_stock(
                hot_stock::node(AuditMode::Pmp),
                WorkloadConfig::hot_stock(2, TxnSize::K128.inserts_per_txn(), 64),
            );
            black_box(r.elapsed.as_nanos())
        })
    });
    g.finish();
}

fn bench_t1_paths(c: &mut Criterion) {
    use pm_bench::{measure_disk_write, measure_pm_write, MeasureOpts};
    let mut g = c.benchmark_group("t1_path");
    g.sample_size(10);
    g.bench_function("pm_direct_50_writes", |b| {
        b.iter(|| black_box(measure_pm_write(MeasureOpts::pm_default(50, 4096)).mean()))
    });
    g.bench_function("disk_50_writes", |b| {
        b.iter(|| {
            black_box(
                measure_disk_write(simdisk::DiskConfig::audit_volume(), 4096, 50, false).mean(),
            )
        })
    });
    g.finish();
}

fn bench_t3_recovery(c: &mut Criterion) {
    use txnkit::recovery::{mttr_disk_scan, mttr_pm_scan, mttr_pm_with_tcb};
    c.bench_function("t3_mttr_model", |b| {
        b.iter(|| {
            let d = mttr_disk_scan(64 << 20, 16_000, &simdisk::DiskConfig::default());
            let p = mttr_pm_scan(64 << 20, 16_000, &simnet::FabricConfig::default());
            let t = mttr_pm_with_tcb(2 << 20, 500, &simnet::FabricConfig::default());
            black_box((d, p, t))
        })
    });
}

criterion_group!(
    benches,
    bench_fig1_cell,
    bench_fig2_cell,
    bench_t1_paths,
    bench_t3_recovery
);
criterion_main!(benches);
