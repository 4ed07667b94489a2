//! # An ADP takeover keeps its partition shipping in every tie order
//!
//! When `$ADP0`'s primary dies, the fault monitor tells the pair's backup
//! and the geo-replication shipper at the same instant. The backup
//! promotes itself; the shipper subscribes again to whoever is primary.
//! In schedule order the backup always hears first, so a shipper that
//! subscribed by name at once always found the new primary. Under a
//! perturbation seed (`SimConfig::perturb`) the shipper may hear first,
//! and a subscription sent then went to the dead primary: partition 0
//! stopped shipping while the shipper's accounting read RPO 0.
//!
//! The perturbation seed comes from `SIM_PERTURB`, read whenever a `Sim`
//! is built, so this binary holds this one test: it sets the variable for
//! its whole process.

use pmem::oracle::{Expect, Snapshot, Trails};
use simcore::fault::{Fault, FaultPlan};
use simcore::time::{MILLIS, SECS};
use simcore::{DurableStore, SimDuration, SimTime};
use txnkit::scenario::{build_georep, GeorepParams};
use workload::{install_workload, run_to_completion, Keys, ThinkTime, WorkloadConfig};

#[test]
fn an_adp_takeover_keeps_shipping_whichever_watcher_hears_first() {
    for perturb in 1..=3 {
        std::env::set_var("SIM_PERTURB", perturb.to_string());
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
        let what = format!("DR site, SIM_PERTURB={perturb}");
        replica
            .check(&Expect::finished(&acked, 4))
            .assert_clean(&what);
    }
    std::env::remove_var("SIM_PERTURB");
}
