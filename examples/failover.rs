//! Fault tolerance: process-pair takeover under load.
//!
//! Runs the transactional workload while killing, mid-run, the primary of
//! an ADP (log writer) and then the primary of the PMM — and shows that
//! every transaction still commits and no acknowledged data is lost.
//!
//! Run: `cargo run --release --example failover`

use nsk::Monitor;
use simcore::fault::{Fault, FaultPlan};
use simcore::time::SECS;
use simcore::{DurableStore, SimTime};
use txnkit::scenario::{build_ods, OdsParams};
use workload::{install_workload, WorkloadConfig};

fn main() {
    let mut store = DurableStore::new();
    let mut node = build_ods(&mut store, OdsParams::pm(0xFA11));

    // Faults: kill ADP1's primary at t=1.5s and the PMM primary at t=2s,
    // while the driver is mid-stream.
    Monitor::install(
        &mut node.sim,
        &node.machine,
        FaultPlan::none()
            .with(Fault::KillProcess {
                name: "$ADP1".into(),
                at: SimTime(3 * SECS / 2),
            })
            .with(Fault::KillProcess {
                name: "$PMM".into(),
                at: SimTime(2 * SECS),
            }),
    );

    let records = 3000u64;
    let (view, machine) = (node.view(), node.machine.clone());
    let stats = install_workload(
        &mut node.sim,
        &machine,
        &view,
        WorkloadConfig::hot_stock(1, 8, records),
    );

    println!("running {records} inserts with ADP + PMM primaries killed mid-run...");
    loop {
        if stats.lock().done() {
            break;
        }
        let now = node.sim.now();
        assert!(now < SimTime(30 * SECS), "run stalled: failover broken?");
        node.sim.run_until(SimTime(now.as_nanos() + SECS));
        let s = stats.lock();
        println!(
            "  t={:>4.0}s committed={:>4} txns inserted={:>5} records",
            now.as_secs_f64(),
            s.committed,
            s.inserted_records
        );
    }

    let s = stats.lock();
    println!(
        "\ndone at t={:.1}s: {} transactions committed, {} records inserted — none lost",
        s.finished_ns as f64 / 1e9,
        s.committed,
        s.inserted_records
    );
    assert_eq!(s.inserted_records, records);

    // The machine registry now resolves both names to the promoted backups.
    let m = node.machine.lock();
    println!(
        "post-takeover primaries: $ADP1 -> {:?} (cpu {:?}), $PMM -> {:?} (cpu {:?})",
        m.resolve("$ADP1").unwrap().actor,
        m.resolve("$ADP1").unwrap().cpu,
        m.resolve("$PMM").unwrap().actor,
        m.resolve("$PMM").unwrap().cpu,
    );
    println!(
        "\n§4: \"the fault detection and message re-routing capabilities of NSK...\n\
         allow a backup process to take over from its primary in a second or less\"."
    );
}
