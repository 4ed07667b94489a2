//! Ablation A4 — the group-commit window (DESIGN.md §3 note): the
//! baseline's standard remedy for log-device latency, and the mechanism
//! behind Figure 2's boxcarring sensitivity. Sweeping the window shows
//! the latency/throughput trade PM dissolves (PM runs with window = 0 and
//! pays nothing for it).

use pm_bench::Table;
use txnkit::scenario::{AuditMode, OdsParams};
use workload::{hot_stock, run_hot_stock, WorkloadConfig};

struct RunOut {
    rt_ms: f64,
    elapsed_s: f64,
    audit_writes: u64,
}

fn run(window_ms: u64, audit: AuditMode) -> RunOut {
    let mut ods = OdsParams {
        seed: 0xA4,
        ..hot_stock::node(audit)
    };
    ods.txn.group_commit_window_ns = window_ms * 1_000_000;
    // Four concurrent drivers: group commit only coalesces when multiple
    // commits overlap at an ADP.
    let r = run_hot_stock(ods, WorkloadConfig::hot_stock(4, 8, 400));
    RunOut {
        rt_ms: r.response.mean() / 1e6,
        elapsed_s: r.elapsed.as_secs_f64(),
        audit_writes: r.txn_stats.audit_volume_writes,
    }
}

fn main() {
    let mut t = Table::new(&[
        "window_ms",
        "disk_rt_ms",
        "disk_elapsed_s",
        "disk_audit_ios",
    ]);
    for w in [0u64, 2, 4, 8, 16] {
        let d = run(w, AuditMode::Disk);
        t.row(&[
            w.to_string(),
            format!("{:.2}", d.rt_ms),
            format!("{:.2}", d.elapsed_s),
            d.audit_writes.to_string(),
        ]);
    }
    t.print("A4: group-commit window sweep (disk baseline, 4 drivers, 32k txns)");

    let pm = run(0, AuditMode::Pmp);
    println!(
        "PM reference (no window needed): rt {:.2} ms, elapsed {:.2} s, 0 audit-volume I/Os",
        pm.rt_ms, pm.elapsed_s
    );
    println!(
        "the trade: shrinking the window cuts commit latency but multiplies\n\
         mechanical log I/Os; PM sidesteps the dilemma entirely (§3.4)."
    );
}
