//! T12 — Fabric QoS isolation: hot-stock commits racing an online
//! resilver, swept over scheduler policy × bulk admission share.
//!
//! The paper's premise is that remote persistence keeps commits fast
//! *while* the system repairs itself. This bench quantifies the "while":
//! one mirror half dies briefly under a hot-stock run and revives stale,
//! and the PMM's resilver then fights the foreground commit traffic for
//! the stale half's link. The resilver copies only what diverged, and
//! 100 ms of hot-stock commits diverge a handful of chunks — so an
//! outage writer dirties a 24 MiB scratch region inside the window, which
//! keeps the repair at the ≈ 300 ms the arms were calibrated on. Arms:
//!
//! * `base`      — hot-stock alone (no fault), DRR scheduling: the
//!   commit-p99 yardstick.
//! * `alone`     — resilver alone (no drivers): the standalone repair
//!   rate yardstick (~113 MB/s on the Gen2 fabric).
//! * `fifo`      — combined, class-blind FIFO ports (QoS off with
//!   contention modelled honestly): commits queue behind 256 KiB resilver
//!   chunks and p99 collapses.
//! * `drr50/90`  — combined, deficit-round-robin + bulk admission at
//!   50% / 90% of link bandwidth.
//! * `strict90`  — combined, strict commit priority over DRR, 90% share.
//!
//! Acceptance: `drr90` commit p99 ≤ 2× `base` while its resilver rate
//! sustains ≥ 80% of `alone`; `fifo` p99 demonstrably unbounded.
//!
//! Usage: `cargo run --release -p pm-bench --bin qos_isolation [--json] [--records N]`

use nsk::machine::CpuId;
use pm_bench::outage::{self, OutageWrites};
use pm_bench::Table;
use simcore::fault::{Fault, FaultPlan};
use simcore::time::{MILLIS, SECS};
use simcore::SimTime;
use simnet::QosConfig;
use txnkit::scenario::{AuditMode, OdsParams};
use workload::{hot_stock, run_hot_stock_with, TxnSize, WorkloadConfig};

/// One mirror half dies at 1.15 s (drivers start at 1.1 s) and revives,
/// stale, at 1.25 s; the PMM's next probe round starts the resilver.
fn outage() -> FaultPlan {
    FaultPlan::none().with(Fault::NpmuDown {
        volume_half: 1,
        from: SimTime(1150 * MILLIS),
        to: SimTime(1250 * MILLIS),
    })
}

/// Every resilver chunk of a 24 MiB scratch region, dirtied 10 ms into
/// the outage: ≈ 220 ms of copy on top of the ≈ 60 ms scan.
fn divergence() -> OutageWrites {
    OutageWrites {
        region: "scratch",
        len: 24 << 20,
        placement: pmm::PlacementHint::Solo,
        at: SimTime(1160 * MILLIS),
        span: 24 << 20,
        stride: pmm::PmmConfig::default().resilver_chunk as u64,
    }
}

struct Arm {
    label: &'static str,
    p50_us: f64,
    p99_us: f64,
    resilver_mb_s: f64,
    throttle_waits: f64,
    /// Per-arm fabric counters (process stats reset between arms).
    fabric: Vec<(String, f64)>,
}

fn take_fabric(prefix: &str) -> Vec<(String, f64)> {
    pm_bench::json::fabric_metrics()
        .into_iter()
        .map(|(k, v)| (format!("{prefix}_{k}"), v))
        .collect()
}

fn resilver_rate(stats: &pmm::PmmStats) -> f64 {
    if stats.resilvers_completed == 0 {
        return 0.0;
    }
    let dur_ns = stats.resilver_completed_ns - stats.resilver_started_ns;
    stats.resilver_bytes_copied as f64 / (1 << 20) as f64 / (dur_ns as f64 / SECS as f64)
}

/// Hot-stock (32K txns) racing the outage-provoked resilver.
fn combined(label: &'static str, qos: QosConfig, drivers: u32, records: u64, faulted: bool) -> Arm {
    simnet::qos::reset_process_stats();
    let t0 = std::time::Instant::now();
    eprintln!("qos_isolation: arm {label} ({drivers} drivers x {records} records)...");
    let ods = OdsParams {
        qos,
        fault_plan: if faulted { outage() } else { FaultPlan::none() },
        ..hot_stock::node(AuditMode::HardwareNpmu)
    };
    let load = WorkloadConfig::hot_stock(drivers, TxnSize::K32.inserts_per_txn(), records);
    let r = run_hot_stock_with(ods, load, |node| {
        if faulted {
            let machine = node.machine.clone();
            outage::install(&mut node.sim, &machine, CpuId(1), "$PMM", divergence());
        }
    });
    eprintln!(
        "qos_isolation: arm {label} done in {:.1}s wall ({:.2}s simulated)",
        t0.elapsed().as_secs_f64(),
        r.elapsed.as_nanos() as f64 / SECS as f64,
    );
    let pmm = r.pmm_stats.expect("PM mode has a PMM");
    if faulted {
        assert!(
            pmm.resilvers_completed >= 1,
            "{label}: outage did not provoke a resilver: {pmm:?}"
        );
    }
    Arm {
        label,
        p50_us: r.response.p50() as f64 / 1_000.0,
        p99_us: r.response.p99() as f64 / 1_000.0,
        resilver_mb_s: resilver_rate(&pmm),
        throttle_waits: pmm.bulk_throttle_waits as f64,
        fabric: take_fabric(label),
    }
}

/// The resilver with no foreground load: the standalone rate yardstick,
/// run unthrottled (FIFO ports, no admission cap) so it shows the repair
/// engine's full capability. The one driver a hot-stock run needs
/// commits a handful of transactions and is done before the half
/// revives, so the resilver has the links to itself.
fn resilver_alone() -> f64 {
    let arm = combined("alone", QosConfig::fifo(), 1, 64, true);
    arm.resilver_mb_s
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Enough driver work (~2000 txns/driver) to keep commits flowing for
    // the whole ~300 ms resilver window; --full matches the paper load.
    // Default keeps the run short enough (~2.4 s simulated) that the
    // ~300 ms resilver window covers >10% of commits — whole-run p99
    // then reflects the contention. Much longer runs dilute the window
    // out of the 99th percentile entirely.
    let records = if let Some(i) = args.iter().position(|a| a == "--records") {
        args[i + 1].parse().expect("--records N")
    } else {
        2_000
    };
    eprintln!("qos_isolation: {records} records/driver (use --records N to scale)");

    // Arms run sequentially so the process-wide fabric counters can be
    // reset and attributed per arm.
    let alone_mb_s = resilver_alone();
    let arms = vec![
        combined("base", QosConfig::drr(0.9), 2, records, false),
        combined("fifo", QosConfig::fifo(), 2, records, true),
        combined("drr50", QosConfig::drr(0.5), 2, records, true),
        combined("drr90", QosConfig::drr(0.9), 2, records, true),
        combined("strict90", QosConfig::strict_commit(0.9), 2, records, true),
    ];
    let base_p99 = arms[0].p99_us;

    let mut t = Table::new(&[
        "arm",
        "commit_p50_us",
        "commit_p99_us",
        "p99_vs_base",
        "resilver_MB_s",
        "vs_alone",
        "bulk_throttles",
    ]);
    for a in &arms {
        t.row(&[
            a.label.to_string(),
            format!("{:.1}", a.p50_us),
            format!("{:.1}", a.p99_us),
            format!("{:.2}x", a.p99_us / base_p99),
            if a.resilver_mb_s > 0.0 {
                format!("{:.0}", a.resilver_mb_s)
            } else {
                "-".into()
            },
            if a.resilver_mb_s > 0.0 {
                format!("{:.0}%", 100.0 * a.resilver_mb_s / alone_mb_s)
            } else {
                "-".into()
            },
            format!("{:.0}", a.throttle_waits),
        ]);
    }
    t.print(&format!(
        "T12: commit p99 vs online resilver (standalone resilver {alone_mb_s:.0} MB/s)"
    ));

    let drr90 = arms.iter().find(|a| a.label == "drr90").unwrap();
    let fifo = arms.iter().find(|a| a.label == "fifo").unwrap();
    if records == 2_000 {
        // Smoke contract at the calibrated default scale (ci.sh runs this
        // binary): the isolation claims of DESIGN.md §9 must hold.
        assert!(
            drr90.p99_us <= 2.0 * base_p99,
            "QoS-on commit p99 {:.0}us exceeds 2x uncontended {:.0}us",
            drr90.p99_us,
            base_p99
        );
        assert!(
            drr90.resilver_mb_s >= 0.8 * alone_mb_s,
            "QoS-on resilver {:.0} MB/s below 80% of standalone {:.0} MB/s",
            drr90.resilver_mb_s,
            alone_mb_s
        );
        assert!(
            fifo.p99_us > 2.0 * base_p99,
            "FIFO p99 {:.0}us should exceed 2x uncontended {:.0}us",
            fifo.p99_us,
            base_p99
        );
    }
    println!(
        "QoS on (drr90): commit p99 {:.2}x of uncontended while the resilver \
         holds {:.0}% of its standalone rate; QoS off (fifo): p99 {:.2}x",
        drr90.p99_us / base_p99,
        100.0 * drr90.resilver_mb_s / alone_mb_s,
        fifo.p99_us / base_p99,
    );

    if pm_bench::json::wants_json(&args) {
        let mut metrics: Vec<(String, f64)> = vec![("resilver_alone_mb_s".to_string(), alone_mb_s)];
        for a in &arms {
            metrics.push((format!("{}_commit_p50_us", a.label), a.p50_us));
            metrics.push((format!("{}_commit_p99_us", a.label), a.p99_us));
            if a.resilver_mb_s > 0.0 {
                metrics.push((format!("{}_resilver_mb_s", a.label), a.resilver_mb_s));
            }
            metrics.push((format!("{}_bulk_throttle_waits", a.label), a.throttle_waits));
            metrics.extend(a.fabric.iter().cloned());
        }
        metrics.push(("qos_on_p99_ratio".to_string(), drr90.p99_us / base_p99));
        metrics.push(("qos_off_p99_ratio".to_string(), fifo.p99_us / base_p99));
        metrics.push((
            "qos_on_resilver_frac".to_string(),
            drr90.resilver_mb_s / alone_mb_s,
        ));
        let path = pm_bench::json::emit("qos_isolation", &metrics).expect("write json");
        println!("wrote {}", path.display());
    }
}
