//! Acceptance test for fabric QoS isolation: a hot-stock run races an
//! online resilver (one mirror half dies briefly and revives stale, and
//! an outage writer dirties 24 MiB of scratch chunks meanwhile, so there
//! is ≈ 300 ms of repair to race — the commits alone diverge a handful).
//!
//! With QoS on (DRR arbitration + bulk admission at 90% of the link),
//! commit p99 stays bounded (≤ 2× the uncontended run), the resilver
//! completes at a healthy rate, and the mirrors verify byte-identical.
//! With QoS "off" — contention modelled honestly but class-blind FIFO
//! ports and no admission pacing — commit p99 demonstrably blows up:
//! commits queue behind whole 256 KiB resilver chunks.

use nsk::machine::CpuId;
use pm_bench::outage::{self, OutageWrites};
use pmem::verify_mirrors;
use simcore::fault::{Fault, FaultPlan};
use simcore::time::{MILLIS, SECS};
use simcore::{DurableStore, SimTime};
use simnet::QosConfig;
use txnkit::scenario::{build_ods, AuditMode, OdsParams};
use workload::{install_workload, WorkloadConfig};

const DRIVERS: u32 = 2;
const RECORDS_PER_DRIVER: u64 = 2_000;
const INSERTS_PER_TXN: u32 = 8;

struct ArmResult {
    p99_ns: u64,
    resilvers_completed: u64,
    resilver_rate_mb_s: f64,
    mirrors_clean: bool,
}

/// One hot-stock run; `faulted` injects the mirror-half outage under the
/// drivers (they start at 1.1 s) so the PMM resilvers mid-run.
fn run_arm(qos: QosConfig, faulted: bool) -> ArmResult {
    let fault_plan = if faulted {
        FaultPlan::none().with(Fault::NpmuDown {
            volume_half: 1,
            from: SimTime(1150 * MILLIS),
            to: SimTime(1250 * MILLIS),
        })
    } else {
        FaultPlan::none()
    };
    let mut store = DurableStore::new();
    let mut node = build_ods(
        &mut store,
        OdsParams {
            audit: AuditMode::HardwareNpmu,
            qos,
            fault_plan,
            ..OdsParams::pm(0x9005)
        },
    );
    let pmm = node.pmm.clone().expect("PM mode has a PMM");
    let (npmu_a, npmu_b) = node.pm_pool[0].clone();
    if faulted {
        let machine = node.machine.clone();
        let spec = OutageWrites {
            region: "scratch",
            len: 24 << 20,
            placement: pmm::PlacementHint::Solo,
            at: SimTime(1160 * MILLIS),
            span: 24 << 20,
            stride: node.params.pmm.resilver_chunk as u64,
        };
        outage::install(&mut node.sim, &machine, CpuId(1), "$PMM", spec);
    }

    let (view, machine) = (node.view(), node.machine.clone());
    let driver_stats = install_workload(
        &mut node.sim,
        &machine,
        &view,
        WorkloadConfig::hot_stock(DRIVERS, INSERTS_PER_TXN, RECORDS_PER_DRIVER),
    );

    let ceiling = SimTime(600 * SECS);
    loop {
        let workload_done = driver_stats.lock().done();
        let resilvers_settled = {
            let s = pmm.stats.lock();
            !faulted || (s.resilvers_completed >= 1 && s.resilvers_completed >= s.resilvers_started)
        };
        if workload_done && resilvers_settled {
            break;
        }
        let now = node.sim.now();
        assert!(
            now < ceiling,
            "run did not finish: workload_done={workload_done} resilvers_settled={resilvers_settled}"
        );
        node.sim.run_until(SimTime(now.as_nanos() + 200 * MILLIS));
    }
    // Grace period for in-flight tails (final metadata writes, last
    // verify chunks) to land before the mirror scrub.
    let now = node.sim.now();
    node.sim.run_until(SimTime(now.as_nanos() + SECS));

    // Every acked commit survived regardless of the outage.
    let inserted = driver_stats.lock().inserted_records;
    assert_eq!(inserted, DRIVERS as u64 * RECORDS_PER_DRIVER);

    let response = std::mem::take(&mut driver_stats.lock().response);
    let s = *pmm.stats.lock();
    // Copy rate: the repair time less what the devices spent digesting
    // (the halves scan side by side, and never while a copy is moving).
    let rate = if s.resilvers_completed > 0 {
        let dur_ns = s.resilver_completed_ns - s.resilver_started_ns;
        let copy_ns = dur_ns - npmu::digest_ns(s.resilver_bytes_digested / 2);
        s.resilver_bytes_copied as f64 / (1 << 20) as f64 / (copy_ns as f64 / SECS as f64)
    } else {
        0.0
    };
    ArmResult {
        p99_ns: response.p99(),
        resilvers_completed: s.resilvers_completed,
        resilver_rate_mb_s: rate,
        mirrors_clean: verify_mirrors(&npmu_a.mem, &npmu_b.mem, 8).is_clean(),
    }
}

#[test]
fn qos_bounds_commit_p99_under_online_resilver() {
    let base = run_arm(QosConfig::drr(0.9), false);
    let on = run_arm(QosConfig::drr(0.9), true);

    // The resilver completed online and repaired the mirror bit-exactly.
    assert_eq!(on.resilvers_completed, 1);
    assert!(on.mirrors_clean, "mirrors diverged after QoS-on resilver");
    // The copy held a healthy rate (admission cap is 90% of the 125 MB/s
    // link).
    assert!(
        on.resilver_rate_mb_s > 80.0,
        "resilver rate {:.0} MB/s under QoS",
        on.resilver_rate_mb_s
    );
    // Commit p99 stayed bounded: within 2x of the uncontended run.
    assert!(
        on.p99_ns <= 2 * base.p99_ns,
        "QoS-on p99 {} ns vs base {} ns",
        on.p99_ns,
        base.p99_ns
    );
}

#[test]
fn fifo_ports_let_resilver_wreck_commit_p99() {
    let base = run_arm(QosConfig::drr(0.9), false);
    let off = run_arm(QosConfig::fifo(), true);

    // The repair still finishes (nothing deadlocks) and the mirrors are
    // clean — FIFO hurts latency, not correctness.
    assert_eq!(off.resilvers_completed, 1);
    assert!(off.mirrors_clean, "mirrors diverged after FIFO resilver");
    // But commits queued behind whole resilver chunks: p99 demonstrably
    // unbounded relative to the 2x contract QoS holds.
    assert!(
        off.p99_ns > 2 * base.p99_ns,
        "FIFO p99 {} ns vs base {} ns — expected >2x degradation",
        off.p99_ns,
        base.p99_ns
    );
}
