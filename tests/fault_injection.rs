//! Fault injection under load: the workload must complete — degraded,
//! never wrong — through packet corruption, a fabric outage, and the
//! mirrors must stay byte-identical through it all (§1.3 data integrity).

use simcore::fault::{Fault, FaultPlan};
use simcore::time::SECS;
use simcore::{DurableStore, SimTime};
use txnkit::scenario::{build_ods, AuditMode, OdsParams};
use workload::{hot_stock, install_workload, run_hot_stock, TxnSize, WorkloadConfig};

#[test]
fn workload_completes_under_packet_corruption() {
    // A 2% CRC-corruption storm for the whole run: ServerNet detects and
    // retransmits in hardware; everything completes, just slower.
    let clean = run_hot_stock(
        hot_stock::node(AuditMode::Pmp),
        WorkloadConfig::hot_stock(1, TxnSize::K32.inserts_per_txn(), 200),
    );

    let mut store = DurableStore::new();
    let mut node = build_ods(&mut store, OdsParams::pm(4242));
    node.net.lock().fault_plan = FaultPlan::none().with(Fault::PacketCorruption {
        rate: 0.02,
        from: SimTime(0),
        to: SimTime(3600 * SECS),
    });
    let (view, machine) = (node.view(), node.machine.clone());
    let stats = install_workload(
        &mut node.sim,
        &machine,
        &view,
        WorkloadConfig::hot_stock(1, 8, 200),
    );
    node.sim.run_until(SimTime(600 * SECS));
    let s = stats.lock();
    assert!(s.done(), "run must complete under corruption");
    assert_eq!(s.inserted_records, 200);
    let net = node.net.lock();
    assert!(net.stats.retransmits > 0, "corruption must be exercised");
    drop(net);
    drop(s);
    let noisy_mean = stats.lock().response.mean();
    assert!(
        noisy_mean > clean.response.mean(),
        "retransmissions should cost latency: {noisy_mean} vs {}",
        clean.response.mean()
    );
}

/// One fabric down for 1.5 s mid-run: every path homed on it fails over
/// to the survivor and back, once per edge — not once per op — and the
/// workload completes with the mirrors byte-identical.
fn workload_survives_fabric_outage(fabric: u8, seed: u64) {
    let mut store = DurableStore::new();
    let mut node = build_ods(&mut store, OdsParams::pm(seed));
    node.net.lock().fault_plan = FaultPlan::none().with(Fault::FabricDown {
        fabric,
        from: SimTime(3 * SECS / 2),
        to: SimTime(3 * SECS),
    });
    let (view, machine) = (node.view(), node.machine.clone());
    let stats = install_workload(
        &mut node.sim,
        &machine,
        &view,
        WorkloadConfig::hot_stock(1, 8, 3000),
    );
    node.sim.run_until(SimTime(3 * SECS / 2));
    let before = node.net.lock().stats;
    assert_eq!(before.failovers, 0, "no path switches with both fabrics up");
    node.sim.run_until(SimTime(3 * SECS));
    let during = node.net.lock().stats;
    node.sim.run_until(SimTime(600 * SECS));
    assert!(stats.lock().done());
    assert_eq!(stats.lock().inserted_records, 3000);

    let (net, endpoints) = {
        let n = node.net.lock();
        (n.stats, n.endpoint_count() as u64)
    };
    // Nothing rode the dead fabric during the window ...
    let dead = fabric as usize;
    assert_eq!(during.fabric_ops[dead], before.fabric_ops[dead]);
    let carried = during.fabric_ops[dead ^ 1] - before.fabric_ops[dead ^ 1];
    assert!(carried > 1000, "the outage must fall under load: {carried}");
    // ... and each affected path switched once going in and once coming
    // back: paths are (initiator, target) pairs, so a few dozen at most,
    // against thousands of ops carried on the survivor meanwhile.
    let moved = during.failovers;
    assert!(moved > 0, "the outage must have forced path failovers");
    assert!(moved <= endpoints * (endpoints - 1), "{moved} switches");
    assert!(moved * 20 < carried, "{moved} switches for {carried} ops");
    assert_eq!(net.failovers, 2 * moved, "every moved path failed back");
    assert_eq!(net.unreachable, 0);

    let (a, b) = &node.pm_pool[0];
    let report = pmem::verify_mirrors(&a.mem, &b.mem, 16);
    assert!(report.is_clean(), "{:?}", report.discrepancies);
}

#[test]
fn workload_survives_fabric_x_outage() {
    // Every CPU and mirror half `a` is homed on X: all of it moves to Y.
    workload_survives_fabric_outage(0, 4343);
}

#[test]
fn workload_survives_fabric_y_outage() {
    // Only mirror half `b` is homed on Y: its writers' legs join the
    // half-`a` legs on X's ports.
    workload_survives_fabric_outage(1, 4343);
}

#[test]
fn mirrors_byte_identical_after_workload() {
    // §1.3 duplicate-and-compare: after a full PM workload, scrub the
    // mirrored pair — every region byte-identical.
    let mut store = DurableStore::new();
    let mut node = build_ods(
        &mut store,
        OdsParams {
            audit: AuditMode::HardwareNpmu,
            ..OdsParams::pm(909)
        },
    );
    let (view, machine) = (node.view(), node.machine.clone());
    let stats = install_workload(
        &mut node.sim,
        &machine,
        &view,
        WorkloadConfig::hot_stock(1, 8, 400),
    );
    node.sim.run_until(SimTime(600 * SECS));
    assert!(stats.lock().done());

    let (a, b) = &node.pm_pool[0];
    let report = pmem::verify_mirrors(&a.mem, &b.mem, 16);
    assert!(
        report.is_clean(),
        "mirror scrub found: {:?}",
        report.discrepancies
    );
    assert!(report.regions_checked >= 4, "all ADP regions scrubbed");
    assert!(report.bytes_compared > 0);

    // Inject silent corruption into one mirror; the scrubber must catch it.
    b.mem.lock().write(pmm::META_BYTES + 4096 + 77, &[0x5A]);
    let report = pmem::verify_mirrors(&a.mem, &b.mem, 16);
    assert!(!report.is_clean(), "injected SDC must be detected");
}
