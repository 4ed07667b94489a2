//! Perturbation seeds 1–3 (`SimConfig::perturb`: events due at one
//! instant for different actors leave in a seeded order, fabric legs take
//! up to 1 ns of seeded jitter — other legal schedules of the same model)
//! over an ADP takeover on a geo-replicated pair and the whole recovery
//! product at its healed end and through its repairs (`matrix/mod.rs`).
//! A failure here is a store bug; fix it, never drop the seed.
//!
//! The first one: the fault monitor tells `$ADP0`'s backup and the georep
//! shipper of the primary's death at one instant, and a shipper that
//! heard first subscribed again to the dead primary — partition 0 stopped
//! shipping while its RPO read 0. The seed comes from `SIM_PERTURB`, read
//! whenever a `Sim` is built, so this binary holds one test that sets it
//! for the whole process.

mod matrix;

use matrix::{all_cells, run_matrix, Cuts};
use pmem::oracle::{Expect, Snapshot, Trails};
use simcore::fault::{Fault, FaultPlan};
use simcore::time::{MILLIS, SECS};
use simcore::{DurableStore, SimDuration, SimTime};
use txnkit::scenario::{build_georep, GeorepParams};
use workload::{install_workload, run_to_completion, Keys, ThinkTime, WorkloadConfig};

#[test]
fn perturbed_schedules_keep_shipping_and_recover_every_cell() {
    for perturb in 1..=3 {
        std::env::set_var("SIM_PERTURB", perturb.to_string());
        // Kill `$ADP0`'s primary under load: the shipper follows the new
        // primary, drains to RPO 0, and the DR site recovers every commit.
        let mut store = DurableStore::new();
        let mut params = GeorepParams::pm(0x6E06);
        params.base.fault_plan = FaultPlan::none().with(Fault::KillProcess {
            name: "$ADP0".into(),
            at: SimTime(1_200 * MILLIS),
        });
        let mut node = build_georep(&mut store, params);
        let (view, machine) = (node.node.view(), node.node.machine.clone());
        let load = WorkloadConfig {
            think: ThinkTime::Zero,
            keys: Keys::Disjoint,
            run_for: Some(SimDuration::from_millis(800)),
            inserts_per_txn: 4,
            ..WorkloadConfig::new(0x6E06, 8)
        };
        let stats = install_workload(&mut node.node.sim, &machine, &view, load);
        run_to_completion(&mut node.node.sim, &stats, SimTime(60 * SECS));
        let t = node.node.sim.now().as_nanos();
        node.node.sim.run_until(SimTime(t + SECS));
        assert_eq!(node.shipper_stats.lock().rpo_bytes(), 0);
        let (acked, base) = (stats.lock().committed_ids.clone(), node.node.params.clone());
        drop(node); // power loss
        store.reset_volatile();
        let replica = Snapshot::read(&store, &[Trails::replica(&base)]);
        let report = replica.check(&Expect::finished(&acked, 4));
        report.assert_clean(&format!("DR site, SIM_PERTURB={perturb}"));
        println!("SIM_PERTURB={perturb}:");
        run_matrix(&all_cells(), Cuts::Ends);
    }
    std::env::remove_var("SIM_PERTURB");
}
