//! T14: geo-replicated disaster recovery — measured RPO and RTO.
//!
//! A full primary node ships its audit-trail partitions over a WAN link
//! to a standby PM pool (DESIGN.md §11). The drill: sustained load, a
//! fiber cut mid-run, a dead-primary declaration 100 ms later that
//! epoch-fences the primary pool. Both recovery objectives are then
//! *measured from the durable images*, never asserted from wishful
//! counters:
//!
//! * **RPO** — bytes and committed transactions the primary had made
//!   durable that the replica cannot recover (primary watermark minus
//!   replica watermark at the end, plus a redo-scan diff of the two
//!   sites' trails);
//! * **RTO** — detection window + fence round trip + the replica's
//!   partitioned redo scan over its standby trails
//!   ([`txnkit::recovery::mttr_pm_scan_partitioned`]).
//!
//! Arms: eager (ship on every watermark publication) vs lazy (50 ms
//! control-cell polling) across one-way WAN delays of 2/10/40 ms, plus a
//! drained no-disaster control per mode that must converge to RPO = 0.
//!
//! Acceptance (asserted below): the drained controls reach RPO 0 with
//! byte-identical prefixes; every drill's replica prefix matches the
//! primary byte-for-byte (a lagging replica is fine, a diverging one
//! never is); eager RPO ≤ lazy RPO at 2/10 ms, where the WAN pipe is
//! not the bottleneck; and the fence round-trips against the primary
//! pool. At 40 ms the bandwidth-delay product flips the ordering —
//! shipping is stop-and-wait per partition, so eager's many small
//! RTT-gated transfers drain slower than lazy's 50 ms batches. The
//! bench reports that crossover rather than asserting it away; both
//! modes just have to stay under a loose backlog sanity ceiling.
//!
//! Each drill also runs at plan seeds [`SWEEP_SEEDS`], and every
//! `*_rpo_bytes` and `*_rto_ms` key gets a `*_median` beside it: where
//! the fixed sever instant lands in the stop-and-wait shipping cycle
//! moves with the seed, so one seed's RPO and RTO swing by several
//! percent with a change that only shifts that phase.

use pm_bench::{json, Table};
use pmem::oracle::{Expect, Snapshot, Trails};
use simcore::time::{MILLIS, SECS};
use simcore::{DurableStore, SimTime};
use simnet::FabricConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use txnkit::recovery::mttr_pm_scan_partitioned;
use txnkit::scenario::{build_georep, GeorepParams};
use workload::{install_workload, Keys, ThinkTime, WorkloadConfig};

const CLIENTS: u64 = 8;
const SEVER_MS: u64 = 1_450;
const FENCE_MS: u64 = 1_550;
/// Plan seeds every drill is also run at, for the medians.
const SWEEP_SEEDS: std::ops::RangeInclusive<u64> = 1..=3;
/// Threads the runs are spread over.
const THREADS: usize = 2;

struct DrillOutcome {
    rpo_bytes: u64,
    rpo_commits: u64,
    /// End-state replica watermarks (scan input for the RTO model).
    replica_bytes: Vec<u64>,
    /// Records the replica's redo scan reads.
    replica_records: u64,
    fence_rtt_ns: u64,
    shipped: u64,
    rewinds: u64,
}

fn run_arm(seed: u64, eager: bool, delay_ms: u64, drill: bool) -> DrillOutcome {
    let mut store = DurableStore::new();
    let mut params = GeorepParams::pm(seed);
    params.wan.one_way_delay = simcore::SimDuration::from_nanos(delay_ms * MILLIS);
    if !eager {
        params.eager_partitions = 0;
    }
    if drill {
        params.sever_at = Some(simcore::SimDuration::from_nanos(SEVER_MS * MILLIS));
        params.fence_at = Some(simcore::SimDuration::from_nanos(FENCE_MS * MILLIS));
    }
    let base = params.base.clone();
    let mut node = build_georep(&mut store, params);
    let (view, machine) = (node.node.view(), node.node.machine.clone());
    let stats = install_workload(
        &mut node.node.sim,
        &machine,
        &view,
        WorkloadConfig {
            // Moderate, bounded-lag load. Two ceilings matter: at full
            // closed-loop throttle trail production saturates the shared
            // fabric, and shipping is stop-and-wait per partition, so a
            // 40 ms WAN caps drain at MAX_BATCH/RTT ≈ 2.9 MB/s/partition.
            // Past either ceiling RPO measures backlog accumulation, not
            // the shipping mode. Think time keeps production below both
            // so the arms measure what they claim to.
            think: ThinkTime::Exponential {
                mean_ns: 6 * MILLIS,
            },
            keys: Keys::Disjoint,
            run_for: Some(simcore::SimDuration::from_nanos(600 * MILLIS)),
            inserts_per_txn: 4,
            ..WorkloadConfig::new(seed, CLIENTS)
        },
    );
    node.node.sim.run_until(SimTime(3 * SECS));

    let ship = node.shipper_stats.lock().clone();
    let rec = *node.drill.lock();
    if drill {
        assert!(rec.fence_ok, "primary pool rejected the drill fence");
        assert!(rec.fence_acked_at_ns > rec.fence_sent_at_ns);
    }
    let acked = stats.lock().committed_ids.clone();
    drop(node);
    // The disaster (or the end of the run): volatile state gone, device
    // images are all that is left of either site. The primary must still
    // redo every commit it acknowledged, and every replica trail must be
    // a byte-identical prefix of its primary's (a lagging replica is
    // fine, a diverging one never is).
    store.reset_volatile();
    let primary = Snapshot::read(&store, &[Trails::node(&base)]);
    let replica = Snapshot::read(&store, &[Trails::replica(&base)]);
    let report = primary.check(&Expect {
        acked: &acked,
        inserts: 4,
        replica: Some(&replica),
        ..Expect::default()
    });
    report.assert_clean("primary site");
    let watermarks =
        |s: &Snapshot| -> Vec<u64> { s.shards[0].iter().map(|t| t.watermark()).collect() };
    let replica_bytes = watermarks(&replica);
    let rpo_bytes = watermarks(&primary)
        .iter()
        .zip(&replica_bytes)
        .map(|(p, r)| p - r)
        .sum();
    let r_rec = replica.recover();
    let rpo_commits = report
        .recovery
        .committed
        .iter()
        .filter(|t| !r_rec.committed.contains(t))
        .count() as u64;
    DrillOutcome {
        rpo_bytes,
        rpo_commits,
        replica_bytes,
        replica_records: r_rec.shards[0].records_scanned,
        fence_rtt_ns: rec.fence_acked_at_ns.saturating_sub(rec.fence_sent_at_ns),
        shipped: ship.batches_shipped,
        rewinds: ship.rewinds,
    }
}

/// RTO = detection window + fence round trip + replica scan, in ms.
fn rto_ms(o: &DrillOutcome, fabric: &FabricConfig) -> f64 {
    let scan = mttr_pm_scan_partitioned(&o.replica_bytes, o.replica_records, fabric, 8);
    let rto_ns = (FENCE_MS - SEVER_MS) * MILLIS + o.fence_rtt_ns + scan.as_nanos();
    rto_ns as f64 / MILLIS as f64
}

/// `f` of every job, in order, computed on [`THREADS`] threads that
/// each take the next job when done with one. The fabric totals every
/// run adds to are sums and maxima, so they do not depend on which
/// thread ran what.
fn on_threads<J: Sync, T: Send>(jobs: &[J], f: impl Fn(&J) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(i) else {
                            return mine;
                        };
                        mine.push((i, f(job)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    done.sort_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, t)| t).collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let delays: &[u64] = &[2, 10, 40];
    let fabric = GeorepParams::pm(0).base.fabric.clone();

    let mut t = Table::new(&[
        "mode",
        "wan_delay",
        "rpo_bytes",
        "rpo_commits",
        "rto_ms",
        "rpo_bytes_median",
        "rto_ms_median",
        "shipped",
        "rewinds",
    ]);
    let mut metrics: Vec<(String, f64)> = Vec::new();

    // `(eager, delay_ms, drill)` of each control, then of each drill.
    let modes = [("eager", true), ("lazy", false)];
    let mut arms: Vec<(bool, u64, bool)> = modes.map(|(_, eager)| (eager, 2, false)).to_vec();
    for (_, eager) in modes {
        arms.extend(delays.iter().map(|&d| (eager, d, true)));
    }
    let drills = &arms[modes.len()..];
    // The sweep first: the fabric totals the artifact carries are the
    // drill's own seed's, counted from the reset on.
    let swept = on_threads(
        &SWEEP_SEEDS
            .flat_map(|seed| drills.iter().map(move |&a| (a, seed)))
            .collect::<Vec<_>>(),
        |&((eager, d, _), seed)| {
            let o = run_arm(seed, eager, d, true);
            (o.rpo_bytes as f64, rto_ms(&o, &fabric))
        },
    );
    // A drill's runs lie `drills.len()` apart in `swept`, one per seed.
    let median = |arm: usize, of: fn(&(f64, f64)) -> f64| {
        let mut v: Vec<f64> = swept
            .iter()
            .skip(arm)
            .step_by(drills.len())
            .map(of)
            .collect();
        v.sort_by(f64::total_cmp);
        (v[(v.len() - 1) / 2] + v[v.len() / 2]) / 2.0
    };
    simnet::qos::reset_process_stats();
    let mut outcomes =
        on_threads(&arms, |&(eager, d, drill)| run_arm(0x714A, eager, d, drill)).into_iter();

    // Drained controls: quiesce + drain must reach RPO 0 in both modes.
    for (mode, _) in modes {
        let c = outcomes.next().unwrap();
        assert_eq!(
            c.rpo_bytes, 0,
            "{mode} drained control left RPO exposure ({} bytes)",
            c.rpo_bytes
        );
        assert_eq!(c.rpo_commits, 0, "{mode} drained control lost commits");
        t.row(&[
            mode.to_string(),
            "2ms (drained)".into(),
            "0".into(),
            "0".into(),
            "-".into(),
            "-".into(),
            "-".into(),
            c.shipped.to_string(),
            c.rewinds.to_string(),
        ]);
        metrics.push((format!("{mode}_drained_rpo_bytes"), 0.0));
    }

    let mut eager_rpo = vec![0u64; delays.len()];
    let mut arm = 0..;
    for (mode, eager) in modes {
        for (di, &d) in delays.iter().enumerate() {
            let o = outcomes.next().unwrap();
            let rto_ms = rto_ms(&o, &fabric);
            let arm = arm.next().unwrap();
            let (rpo_median, rto_median) = (median(arm, |x| x.0), median(arm, |x| x.1));
            if eager {
                eager_rpo[di] = o.rpo_bytes;
            } else if d < 40 {
                // Below the bandwidth-delay crossover, eager's only
                // exposure is the in-flight window; lazy adds up to one
                // poll interval of staleness on top.
                assert!(
                    eager_rpo[di] <= o.rpo_bytes,
                    "{d}ms: eager RPO {} bytes exceeds lazy {} bytes",
                    eager_rpo[di],
                    o.rpo_bytes
                );
            }
            // Any arm blowing past this is accumulating unbounded
            // backlog, not measuring a shipping mode.
            assert!(
                o.rpo_bytes < 16 << 20,
                "{mode} {d}ms: RPO {} bytes — shipper backlogged",
                o.rpo_bytes
            );
            t.row(&[
                mode.to_string(),
                format!("{d}ms"),
                o.rpo_bytes.to_string(),
                o.rpo_commits.to_string(),
                format!("{rto_ms:.2}"),
                format!("{rpo_median:.0}"),
                format!("{rto_median:.2}"),
                o.shipped.to_string(),
                o.rewinds.to_string(),
            ]);
            metrics.push((format!("{mode}_d{d}ms_rpo_bytes"), o.rpo_bytes as f64));
            metrics.push((format!("{mode}_d{d}ms_rpo_bytes_median"), rpo_median));
            metrics.push((format!("{mode}_d{d}ms_rpo_commits"), o.rpo_commits as f64));
            metrics.push((format!("{mode}_d{d}ms_rto_ms"), rto_ms));
            metrics.push((format!("{mode}_d{d}ms_rto_ms_median"), rto_median));
        }
    }
    t.print("T14 geo-replication: RPO / RTO by shipping mode and WAN delay");
    println!(
        "RPO is measured offline from the two sites' durable images \
         (watermark gap + redo-scan diff); RTO is the detection window \
         plus the measured fence round trip plus the replica's partitioned \
         redo scan over exactly the bytes its standby trails hold. Eager \
         shipping pays WAN bandwidth continuously to keep the in-flight \
         window as the only exposure; lazy polling trades up to one poll \
         interval of extra RPO for batched transfers. Past the \
         bandwidth-delay crossover (40 ms here) that trade reverses: \
         stop-and-wait shipping gates each partition at one batch per \
         round trip, and lazy's larger batches drain the same production \
         with fewer round trips. The medians are over plan seeds {}–{}: \
         where the fixed sever instant lands in the shipping cycle moves \
         with the seed.",
        SWEEP_SEEDS.start(),
        SWEEP_SEEDS.end()
    );

    if json::wants_json(&args) {
        let path = json::emit("georep", &metrics).expect("write json");
        println!("wrote {}", path.display());
    }
}
