//! The paper's motivating telco workload (§1): "ODS for telecommunication
//! companies support the insertion of tens of thousands of call-data
//! records per second... neither lose transactions nor corrupt their
//! data."
//!
//! Call-data-record ingest on the PM-enabled node: three switches, each
//! one zero-think client of the hot-stock preset, stream 512-byte CDRs
//! in transactions of eight.
//!
//! Run: `cargo run --release --example telco_cdr`

use txnkit::scenario::OdsParams;
use workload::{run_hot_stock, WorkloadConfig};

fn main() {
    let (switches, per_switch) = (3u32, 800u64);
    println!(
        "ingesting {} CDRs from {switches} switches into the PM-enabled node...",
        switches as u64 * per_switch
    );
    let r = run_hot_stock(
        OdsParams::pm(0x7E1C0),
        WorkloadConfig {
            record_bytes: 512,
            ..WorkloadConfig::hot_stock(switches, 8, per_switch)
        },
    );
    assert_eq!(r.inserted_records, switches as u64 * per_switch);
    let span = r.elapsed.as_secs_f64();
    println!(
        "done: {} CDRs in {} transactions over {span:.2}s = {:.0} CDRs/s sustained (4-CPU node)",
        r.inserted_records,
        r.committed_txns,
        r.inserted_records as f64 / span
    );
    println!(
        "commit response: mean {:.2} ms; commit-path flush: mean {:.0} us (PM)",
        r.response.mean() / 1e6,
        r.txn_stats.flush_latency.mean() / 1e3
    );
    println!(
        "\n§1's target — tens of thousands of CDR inserts/s — is reached by scaling\n\
         out: NonStop nodes add CPUs (more DP2/ADP pairs) and nodes (up to 256),\n\
         and §4.2: \"for scaling audit throughput, multiple ADPs can be configured\n\
         per node\" (see the t5_adp_scaling harness)."
    );
}
