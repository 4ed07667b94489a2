//! Cross-crate determinism: identical seeds must produce bit-identical
//! experiment results — the property that makes every figure in
//! EXPERIMENTS.md reproducible.

use pmem::oracle::{Snapshot, Trail, Trails};
use simcore::fault::{Fault, FaultPlan};
use simcore::time::{MILLIS, SECS};
use simcore::{Checksum64, DurableStore, SimTime};
use txnkit::scenario::{AuditMode, OdsParams};
use workload::{hot_stock, install_workload, run_hot_stock, WorkloadConfig};

/// A site's trails as a power cut leaves them: each half's raw region,
/// control cell included, up to its last written block (a disk volume:
/// its media), so unpublished tails are compared too.
fn trails_at_cut(store: &mut DurableStore, site: &[Trails]) -> Vec<Vec<Trail>> {
    store.reset_volatile();
    Snapshot::read(store, site).shards
}

/// Digest of half `a`'s raw trails, as the pinned digests cover them.
fn digest(shards: &[Vec<Trail>]) -> u64 {
    let mut d = Checksum64::default();
    for h in shards.iter().flatten().map(|t| &t.halves[0]) {
        d.update(&h.cell);
        d.update(&h.trail);
    }
    d.finish()
}

fn run_sig(seed: u64, audit: AuditMode) -> (u64, u64, f64, u64) {
    let r = run_hot_stock(
        OdsParams {
            seed,
            ..hot_stock::node(audit)
        },
        WorkloadConfig::hot_stock(2, 8, 200),
    );
    (
        r.committed_txns,
        r.elapsed.as_nanos(),
        r.response.mean(),
        r.response.max(),
    )
}

#[test]
fn hot_stock_runs_are_reproducible() {
    for audit in [AuditMode::Disk, AuditMode::Pmp] {
        let a = run_sig(1234, audit);
        let b = run_sig(1234, audit);
        assert_eq!(a, b, "mode {audit:?} not deterministic");
    }
}

#[test]
fn different_seeds_differ() {
    let a = run_sig(1, AuditMode::Pmp);
    let b = run_sig(2, AuditMode::Pmp);
    assert_eq!(a.0, b.0, "same committed count");
    assert_ne!(
        (a.1, a.2),
        (b.1, b.2),
        "different seeds should perturb timings"
    );
}

#[test]
fn faulty_runs_are_reproducible() {
    // Same seed + the same non-trivial fault plan (a fabric outage AND an
    // NPMU mirror-down window, overlapping) must yield an identical event
    // trace: every retry, failover, probe, and resilver chunk lands on
    // the same virtual nanosecond in both runs.
    let plan = || {
        FaultPlan::none()
            .with(Fault::FabricDown {
                fabric: 0,
                from: SimTime(1300 * MILLIS),
                to: SimTime(1450 * MILLIS),
            })
            .with(Fault::NpmuDown {
                volume_half: 1,
                from: SimTime(1200 * MILLIS),
                to: SimTime(1800 * MILLIS),
            })
    };
    let run = || {
        let mut store = simcore::DurableStore::new();
        let mut node = txnkit::scenario::build_ods(
            &mut store,
            txnkit::scenario::OdsParams {
                audit: AuditMode::HardwareNpmu,
                fault_plan: plan(),
                ..txnkit::scenario::OdsParams::pm(4242)
            },
        );
        // A hot-stock driver so PM traffic actually crosses the fault
        // windows (detection, degraded writes, resilver).
        let (view, machine) = (node.view(), node.machine.clone());
        let st = install_workload(
            &mut node.sim,
            &machine,
            &view,
            WorkloadConfig::hot_stock(1, 8, 256),
        );
        node.sim.run_until(SimTime(8 * SECS));
        let pmm = node.pmm.as_ref().unwrap();
        let stats = *pmm.stats.lock();
        let failovers = node.net.lock().stats.failovers;
        let s = st.lock();
        (
            node.sim.dispatched(),
            stats.degraded_events,
            stats.probes_sent,
            stats.resilver_bytes_copied,
            stats.resilver_started_ns,
            stats.resilver_completed_ns,
            s.committed,
            s.finished_ns,
            failovers,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "fault-plan run not deterministic");
    // The plan actually bit: the volume degraded and resilvered, and
    // paths moved off fabric X and back.
    assert!(a.1 >= 1, "NPMU window had no effect: {a:?}");
    assert!(a.5 > a.4, "no resilver completed: {a:?}");
    assert!(a.8 >= 2, "fabric window had no effect: {a:?}");
}

#[test]
fn partitioned_audit_runs_are_reproducible() {
    // The partitioned audit path — txn-hash routing across ADPs, one
    // coalescing chain in flight per partition, each trail whole on its
    // own pool member — must stay bit-deterministic.
    let run = || {
        let mut store = simcore::DurableStore::new();
        let mut node = txnkit::scenario::build_ods(
            &mut store,
            txnkit::scenario::OdsParams {
                audit: AuditMode::HardwareNpmu,
                ..txnkit::scenario::OdsParams::pm_pool(7117, 4)
            },
        );
        let (view, machine) = (node.view(), node.machine.clone());
        let st = install_workload(
            &mut node.sim,
            &machine,
            &view,
            WorkloadConfig::hot_stock(1, 8, 256),
        );
        node.sim.run_until(SimTime(8 * SECS));
        let s = st.lock();
        let t = node.stats.lock();
        (
            node.sim.dispatched(),
            s.committed,
            s.finished_ns,
            t.pm_writes,
            t.pm_batches,
            t.pm_ctrl_writes,
        )
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "partitioned-audit run not deterministic");
    assert!(a.1 > 0 && a.3 > 0, "workload did not exercise the trail");
}

#[test]
fn node_boot_is_reproducible() {
    let run = || {
        let mut store = simcore::DurableStore::new();
        let mut node = txnkit::scenario::build_ods(&mut store, txnkit::scenario::OdsParams::pm(99));
        node.sim
            .run_until(simcore::SimTime(simcore::time::SECS * 3));
        node.sim.dispatched()
    };
    assert_eq!(run(), run());
}

#[test]
fn sharded_workload_runs_are_reproducible() {
    // The closed-loop workload driver over the 2PC cluster: same seed
    // must give identical commit/abort/cross-shard counts AND bit-
    // identical per-shard audit-trail images — the property that makes
    // the T11 matrix and the cross-shard crash sweeps replayable.
    use txnkit::scenario::{build_cluster, ClusterParams};
    use workload::{install_workload, run_to_completion, ThinkTime, WorkloadConfig};

    let run = || {
        let mut store = DurableStore::new();
        let params = ClusterParams::pm(0xDE7E, 2);
        let site = Trails::cluster(&params);
        let mut node = build_cluster(&mut store, params);
        let (view, machine) = (node.view(), node.machine.clone());
        let stats = install_workload(
            &mut node.sim,
            &machine,
            &view,
            WorkloadConfig {
                pools_per_shard: 2,
                think: ThinkTime::Exponential {
                    mean_ns: 2 * MILLIS,
                },
                cross_shard_fraction: 0.3,
                records_per_client: 4 * 8, // four transactions of 8 inserts
                run_for: None,
                ..WorkloadConfig::new(0xDE7E, 24)
            },
        );
        run_to_completion(&mut node.sim, &stats, SimTime(120 * SECS));
        let dispatched = node.sim.dispatched();
        let s = stats.lock();
        let counts = (
            dispatched,
            s.committed,
            s.aborted,
            s.cross_shard_committed,
            s.committed_ids.clone(),
            s.response.mean(),
        );
        drop(s);
        drop(node);
        (counts, trails_at_cut(&mut store, &site))
    };
    let (counts_a, trails_a) = run();
    let (counts_b, trails_b) = run();
    assert_eq!(counts_a, counts_b, "workload counts not deterministic");
    assert!(counts_a.1 > 0, "workload committed nothing");
    assert!(counts_a.3 > 0, "no cross-shard transactions ran");
    assert!(
        trails_a == trails_b,
        "audit trail images differ between runs"
    );
    assert!(
        trails_a
            .iter()
            .flatten()
            .any(|t| !t.halves[0].trail.is_empty()),
        "no trail bytes were persisted"
    );
}

#[test]
fn parallel_sweep_matches_serial() {
    // What `fig1`/`fig2` rely on: a simulation is one thread, and its
    // actors and handles are not `Send`, so a parallel sweep builds each
    // simulation inside its own worker thread. Built there, it must be the
    // simulation built anywhere else: same dispatches, same commits, same
    // durable trail bytes.
    use txnkit::scenario::{build_ods, OdsParams};
    use workload::{install_workload, run_to_completion, ThinkTime, WorkloadConfig};

    const SEED: u64 = 0x5EED;
    fn run() -> (u64, u64, u64) {
        let mut store = DurableStore::new();
        let params = OdsParams {
            audit: AuditMode::HardwareNpmu,
            ..OdsParams::pm(SEED)
        };
        let site = [Trails::node(&params)];
        let mut node = build_ods(&mut store, params);
        let (view, machine) = (node.view(), node.machine.clone());
        let stats = install_workload(
            &mut node.sim,
            &machine,
            &view,
            WorkloadConfig {
                think: ThinkTime::Zero,
                records_per_client: 6 * 4,
                run_for: None,
                inserts_per_txn: 4,
                ..WorkloadConfig::new(SEED, 8)
            },
        );
        run_to_completion(&mut node.sim, &stats, SimTime(60 * SECS));
        let (dispatched, committed) = (node.sim.dispatched(), stats.lock().committed);
        drop((node, machine, stats));
        let trails = digest(&trails_at_cut(&mut store, &site));
        (trails, dispatched, committed)
    }

    let serial = run();
    assert_eq!(serial.2, 48, "every transaction committed");
    let parallel: Vec<(u64, u64, u64)> = crossbeam::thread::scope(|s| {
        let workers: Vec<_> = (0..2).map(|_| s.spawn(|_| run())).collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    })
    .unwrap();
    assert_eq!(
        parallel,
        vec![serial; 2],
        "(trail digest, dispatched, committed)"
    );
}

#[test]
fn single_node_is_the_one_shard_cluster() {
    // `build_ods` is one call of the shard recipe `build_cluster` loops
    // over, under the pre-sharding names. So a node and a one-shard
    // cluster of the same topology are the same simulation: the same
    // workload dispatches event for event and leaves byte-identical
    // trails, under different device names.
    use txnkit::scenario::{build_cluster, build_ods, ClusterParams, ClusterView};
    use workload::{install_workload, run_to_completion, ThinkTime, WorkloadConfig};

    const SEED: u64 = 0x0451;
    let run = |sim: &mut simcore::Sim, machine: &nsk::machine::SharedMachine, view: ClusterView| {
        let stats = install_workload(
            sim,
            machine,
            &view,
            WorkloadConfig {
                think: ThinkTime::Zero,
                records_per_client: 6 * 4,
                run_for: None,
                inserts_per_txn: 4,
                ..WorkloadConfig::new(SEED, 8)
            },
        );
        run_to_completion(sim, &stats, SimTime(60 * SECS));
        let s = stats.lock();
        (
            sim.dispatched(),
            s.finished_ns,
            s.committed,
            s.response.mean(),
        )
    };
    let params = ClusterParams::pm(SEED, 1);

    let mut node_store = DurableStore::new();
    let mut node = build_ods(&mut node_store, params.base.clone());
    let (view, machine) = (node.view(), node.machine.clone());
    let as_node = run(&mut node.sim, &machine, view);
    drop((node, machine));
    let node_trails = trails_at_cut(&mut node_store, &[Trails::node(&params.base)]);

    let mut cluster_store = DurableStore::new();
    let site = Trails::cluster(&params);
    let mut cluster = build_cluster(&mut cluster_store, params);
    let (view, machine) = (cluster.view(), cluster.machine.clone());
    let as_cluster = run(&mut cluster.sim, &machine, view);
    drop((cluster, machine));
    let cluster_trails = trails_at_cut(&mut cluster_store, &site);

    assert_eq!(
        as_node, as_cluster,
        "(dispatched, finished, committed, mean response)"
    );
    assert_eq!(as_node.2, 48, "every transaction committed");
    for (a, b) in node_trails[0].iter().zip(&cluster_trails[0]) {
        assert!(
            a == b,
            "{} differs between node and one-shard cluster",
            a.name
        );
    }
}

/// One fault against a node carrying two hot-stock drivers on CPUs 2
/// and 3, run to 4 s: `(dispatched, (commits, every driver done, last
/// finish ns), trail-image digest)`. A driver whose request died with a
/// primary never finishes (nothing re-drives a lost reply), so with
/// neither driver done the finish time reads 0.
fn takeover_run(base: OdsParams, fault: Fault) -> (u64, (u64, bool, u64), u64) {
    let mut store = DurableStore::new();
    let params = OdsParams {
        fault_plan: FaultPlan::none().with(fault),
        pm_region_len: 1 << 20,
        ..base
    };
    let site = [Trails::node(&params)];
    let mut node = txnkit::scenario::build_ods(&mut store, params);
    let disk = node.params.audit == AuditMode::Disk;
    // Either budget runs the undisturbed load to about 2.2 s (PM) or
    // 3.0 s (disk): past every fault and its 400 ms detection.
    let records = if disk { 512 } else { 1024 };
    let (mut view, machine) = (node.view(), node.machine.clone());
    // Off CPU 1, which one of the faults kills.
    view.shard_cpu_base[0] = 2;
    let stats = install_workload(
        &mut node.sim,
        &machine,
        &view,
        WorkloadConfig::hot_stock(2, 8, records),
    );
    node.sim.run_until(SimTime(4 * SECS));
    let dispatched = node.sim.dispatched();
    let drivers = {
        let s = stats.lock();
        (s.committed, s.done(), s.finished_ns)
    };
    drop(node);
    (
        dispatched,
        drivers,
        digest(&trails_at_cut(&mut store, &site)),
    )
}

#[test]
fn takeovers_keep_their_schedule() {
    // Every process pair's takeover, and a backup lost under parked
    // checkpoints, pinned to the event: the four primaries die at fixed
    // instants, and CPU 1 (the TMF's, `$DP2-0`'s and `$ADP0`'s backups)
    // dies while checkpoints are on their way there:
    // - PM, 1.501165 s: a TMF decision checkpoint is on its way to the dead
    //   CPU while its commit record is still in flight to the master trail
    //   (decided 1.501160 s, durable 1.501219 s); the commit waits for
    //   `BackupLost` 400 ms later;
    // - disk, 1.50467 s: two decision checkpoints are on their way there
    //   and both records wait out the group commit; `$ADP0`, its own
    //   backup gone too, holds the master append until its `BackupLost`,
    //   so the TMF's `BackupLost` lands ~10 ms *before* the records are
    //   durable and must not externalize them;
    // - disk, 1.51535 s: a DP2 insert's checkpoint is on its way there
    //   beside the `$ADP0` append checkpoint of its delta.
    // The literals were taken from one run; a change to the pair protocol
    // or the commit path that moves any message by a nanosecond moves them.
    // The trail digest is `Checksum64` over each PM trail up to its last
    // written block (each disk trail up to its high water), so a change
    // to that function moves the last literal of every row too.
    let kill = |name: &str, ms: u64| Fault::KillProcess {
        name: name.into(),
        at: SimTime(ms * MILLIS),
    };
    let cpu1 = |ns: u64| Fault::KillCpu {
        cpu: 1,
        at: SimTime(ns),
    };
    let pm = OdsParams {
        audit: AuditMode::HardwareNpmu,
        ..OdsParams::pm(0x7A4E)
    };
    let disk = OdsParams::baseline(0x7A4E);
    let runs = [
        (
            &pm,
            kill("$TMF", 1500),
            (11503, (94, false, 0), 5079481480833276432),
        ),
        (
            &pm,
            kill("$DP2-0", 1600),
            (22478, (188, false, 2117127792), 5676903632757811524),
        ),
        (
            &pm,
            kill("$ADP0", 1700),
            (30533, (256, true, 3065672617), 12294410604440157272),
        ),
        (
            &pm,
            kill("$PMM", 1800),
            (30500, (256, true, 2169413509), 6156968513316966160),
        ),
        (
            &pm,
            cpu1(1_501_165_000),
            (20210, (175, false, 2505928137), 16403225150398762877),
        ),
        (
            &disk,
            kill("$TMF", 1500),
            (3173, (26, false, 0), 14082333683238535100),
        ),
        (
            &disk,
            kill("$DP2-0", 1600),
            (9349, (81, false, 2935036733), 10205077505263003367),
        ),
        (
            &disk,
            kill("$ADP0", 1700),
            (13483, (128, true, 3883145084), 5153163538395916706),
        ),
        (
            &disk,
            cpu1(1_504_670_000),
            (11072, (128, true, 3411609620), 11754654112277986043),
        ),
        (
            &disk,
            cpu1(1_515_350_000),
            (3286, (28, false, 0), 7335015414533378212),
        ),
    ];
    for (base, fault, want) in runs {
        let got = takeover_run(base.clone(), fault.clone());
        assert_eq!(got, want, "{:?} node, {fault:?}", base.audit);
    }
}
