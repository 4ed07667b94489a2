//! Criterion benchmark of the end-to-end transaction path: how many
//! simulated transactions per wall-clock second the full node sustains —
//! the practical limit on experiment scale.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use txnkit::scenario::AuditMode;
use workload::{hot_stock, run_hot_stock, TxnSize, WorkloadConfig};

fn bench_txn_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("txn_path");
    g.sample_size(10);
    // 64 records at 8/txn = 8 transactions end-to-end per iteration.
    g.throughput(Throughput::Elements(8));
    for (label, mode) in [("disk", AuditMode::Disk), ("pm", AuditMode::Pmp)] {
        g.bench_function(format!("8_txns_{label}"), |b| {
            b.iter(|| {
                let r = run_hot_stock(
                    hot_stock::node(mode),
                    WorkloadConfig::hot_stock(1, TxnSize::K32.inserts_per_txn(), 64),
                );
                black_box(r.committed_txns)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_txn_path);
criterion_main!(benches);
