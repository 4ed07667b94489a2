//! T3 — MTTR by recovery strategy (§3.4/§1.3): fine-grained PM state
//! "reduces uncertainty regarding the state of the database, and
//! eliminates costly heuristic searching of audit trail information,
//! leading to shorter MTTR".
//!
//! Three strategies over the same crash state:
//!   1. disk scan  — read & redo the whole trail from the audit volume;
//!   2. PM scan    — same scan over RDMA from the NPMU;
//!   3. PM + TCBs  — read the persistent TCB table, scan only the tail
//!      past the last checkpoint mark.
//!
//! The redo pass itself is validated against a generated trail.

use bytes::{Bytes, BytesMut};
use pm_bench::{json, Table};
use simdisk::DiskConfig;
use simnet::FabricConfig;
use txnkit::audit::AuditRecord;
use txnkit::recovery::{mttr_disk_scan, mttr_pm_scan, mttr_pm_with_tcb, redo_scan_partitioned};
use txnkit::types::{PartitionId, TxnId};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let disk = DiskConfig::audit_volume();
    let fabric = FabricConfig::default();
    let mut metrics: Vec<(String, f64)> = Vec::new();

    let mut t = Table::new(&[
        "trail_MB",
        "records",
        "disk_scan_s",
        "pm_scan_s",
        "pm_tcb_s",
        "tcb_speedup_vs_disk",
    ]);
    for mb in [16u64, 64, 256, 1024] {
        let bytes = mb << 20;
        let records = bytes / 4096; // 4 KB records
                                    // TCB recovery scans only the tail after the last fuzzy
                                    // checkpoint mark: with marks every 4 MB, the expected tail is
                                    // 2 MB regardless of trail length — that is the whole point.
        let tail_bytes = 2 << 20;
        let tail_records = tail_bytes / 4096;
        let d = mttr_disk_scan(bytes, records, &disk);
        let p = mttr_pm_scan(bytes, records, &fabric);
        let c = mttr_pm_with_tcb(tail_bytes, tail_records, &fabric);
        metrics.push((format!("mb{mb}_disk_scan_s"), d.as_secs_f64()));
        metrics.push((format!("mb{mb}_pm_scan_s"), p.as_secs_f64()));
        metrics.push((format!("mb{mb}_pm_tcb_s"), c.as_secs_f64()));
        metrics.push((
            format!("mb{mb}_tcb_speedup_vs_disk"),
            d.as_nanos() as f64 / c.as_nanos() as f64,
        ));
        t.row(&[
            mb.to_string(),
            records.to_string(),
            format!("{:.2}", d.as_secs_f64()),
            format!("{:.2}", p.as_secs_f64()),
            format!("{:.3}", c.as_secs_f64()),
            format!("{:.0}x", d.as_nanos() as f64 / c.as_nanos() as f64),
        ]);
    }
    t.print("T3: recovery time (MTTR) by strategy");

    // Correctness spot check: generate a trail with a known outcome mix,
    // run the actual redo pass, verify the rebuilt table.
    let mut trail = BytesMut::new();
    let mut committed_keys = 0u64;
    for txn in 1..=200u64 {
        for i in 0..4u64 {
            AuditRecord::Insert {
                txn: TxnId(txn),
                partition: PartitionId {
                    file: 0,
                    part: (txn % 4) as u32,
                },
                key: txn * 10 + i,
                virtual_len: 4096,
                body_crc: 0,
                body: Bytes::new(),
            }
            .encode_into(&mut trail);
        }
        match txn % 10 {
            9 => {
                AuditRecord::Abort { txn: TxnId(txn) }.encode_into(&mut trail);
            }
            8 => { /* left in flight */ }
            _ => {
                AuditRecord::Commit { txn: TxnId(txn) }.encode_into(&mut trail);
                committed_keys += 4;
            }
        }
    }
    let rec = redo_scan_partitioned(&[&trail]);
    let rebuilt: usize = rec.tables.values().map(|t| t.len()).sum();
    println!(
        "redo validation: {} committed txns, {} in flight, {} aborted, {} keys rebuilt (expected {})",
        rec.committed.len(),
        rec.inflight.len(),
        rec.aborted.len(),
        rebuilt,
        committed_keys
    );
    assert_eq!(rebuilt as u64, committed_keys);
    println!(
        "paper: shorter MTTR \"is the mantra for both better availability and data integrity\""
    );
    if json::wants_json(&args) {
        let path = json::emit("t3_mttr", &metrics).expect("write json");
        println!("wrote {}", path.display());
    }
}
