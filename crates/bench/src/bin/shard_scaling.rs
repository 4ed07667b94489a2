//! T11: shard scaling — aggregate commit throughput and p99 response of
//! the sharded transaction layer vs node count, at three cross-shard
//! mixes.
//!
//! Each point builds an N-node cluster (every node a full PM-enabled
//! S86000: own TMF, DP2s, audit partitions and mirrored NPMU pair) and
//! saturates it with a closed-loop workload of zero-think clients
//! proportional to the node count. Single-shard transactions ride the
//! unchanged fast path; a configurable fraction deliberately inserts
//! into a remote shard, which forces the coordinating TMF through the
//! two-phase prepare/decide exchange with the participant shard's TMF.
//! The table therefore shows both the near-linear capacity growth at 0%
//! cross-shard and what the 2PC tax does to it at 10% and 50%.
//!
//! A final row models a large client population (100k modelled sessions
//! with exponential think times offering ~60% of the measured 4-node
//! capacity) to show the closed-loop driver holds throughput and p99
//! without deadline collapse at population scale.
//!
//! Acceptance (asserted below): >= 2.5x aggregate commits/s at 4 nodes
//! vs 1 node with 10% cross-shard transactions; the population row
//! achieves >= 85% of its offered load with p99 under 100 ms.

use pm_bench::{json, Table};
use pmem::s86000_cluster;
use simcore::time::SECS;
use simcore::{DurableStore, SimDuration, SimTime};
use txnkit::scenario::build_cluster;
use workload::{install_workload, run_to_completion, Keys, ThinkTime, WorkloadConfig};

struct Point {
    commits_per_sec: f64,
    p99_us: f64,
    cross_committed: u64,
    aborted: u64,
}

fn run_point(nodes: u32, cross_pct: u32, cfg_tweak: impl FnOnce(&mut WorkloadConfig)) -> Point {
    let mut store = DurableStore::new();
    let mut node = build_cluster(&mut store, s86000_cluster(0x7A11 + nodes as u64, nodes));
    let (view, machine) = (node.view(), node.machine.clone());
    let mut cfg = WorkloadConfig {
        pools_per_shard: 4,
        think: ThinkTime::Zero,
        cross_shard_fraction: cross_pct as f64 / 100.0,
        // Record-capture style: every insert is a fresh record, so the
        // matrix measures system capacity rather than hot-key queueing.
        keys: Keys::Disjoint,
        issue_cpu_ns: 5_000,
        ..WorkloadConfig::new(0xBEE7 + cross_pct as u64, 48 * nodes as u64)
    };
    cfg_tweak(&mut cfg);
    let stats = install_workload(&mut node.sim, &machine, &view, cfg);
    run_to_completion(&mut node.sim, &stats, SimTime(600 * SECS));
    let s = stats.lock();
    Point {
        commits_per_sec: s.commits_per_sec(),
        p99_us: s.response.p99() as f64 / 1_000.0,
        cross_committed: s.cross_shard_committed,
        aborted: s.aborted,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let run_ms: u64 = if full { 1_500 } else { 400 };
    let nodes: &[u32] = &[1, 2, 4, 8];
    let crosses = [0u32, 10, 50];

    let mut t = Table::new(&[
        "nodes",
        "cross",
        "commits_per_s",
        "p99_us",
        "vs_1node",
        "aborted",
    ]);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut speedup_4_at_10 = 0.0;
    let mut cap_4_at_10 = 0.0;
    for &cross in &crosses {
        let mut base: Option<f64> = None;
        for &n in nodes {
            let p = run_point(n, cross, |c| {
                c.run_for = Some(SimDuration::from_millis(run_ms));
            });
            let speedup = base.map(|b| p.commits_per_sec / b).unwrap_or(1.0);
            if base.is_none() {
                base = Some(p.commits_per_sec);
            }
            if n > 1 && cross > 0 {
                assert!(
                    p.cross_committed > 0,
                    "{n}-node {cross}% point committed no cross-shard txns"
                );
            }
            t.row(&[
                n.to_string(),
                format!("{cross}%"),
                format!("{:.0}", p.commits_per_sec),
                format!("{:.0}", p.p99_us),
                format!("{speedup:.2}x"),
                p.aborted.to_string(),
            ]);
            metrics.push((format!("n{n}_x{cross}_commits_per_sec"), p.commits_per_sec));
            metrics.push((format!("n{n}_x{cross}_p99_us"), p.p99_us));
            metrics.push((format!("n{n}_x{cross}_speedup"), speedup));
            if n == 4 && cross == 10 {
                speedup_4_at_10 = speedup;
                cap_4_at_10 = p.commits_per_sec;
            }
        }
    }
    t.print("T11 shard scaling: aggregate commits/s vs node count and cross-shard mix");
    println!(
        "each node adds a full commit pipeline (TMF, DP2s, audit partitions, \
         its own PM pair), so single-shard capacity grows with nodes; \
         cross-shard transactions pay one prepare round trip per participant \
         before the coordinator's commit record, taxing but not serializing \
         the fleet"
    );

    // Population row: 100k modelled clients offering ~60% of the measured
    // 4-node capacity through exponential think times.
    let clients: u64 = 100_000;
    let offered = 0.6 * cap_4_at_10;
    let think_ns = (clients as f64 * 1e9 / offered) as u64;
    let p = run_point(4, 10, |c| {
        c.clients = clients;
        c.think = ThinkTime::Exponential { mean_ns: think_ns };
        c.run_for = Some(SimDuration::from_millis(if full { 2_000 } else { 800 }));
    });
    println!(
        "population: {clients} clients, offered {:.0}/s -> achieved {:.0}/s, p99 {:.1} ms",
        offered,
        p.commits_per_sec,
        p.p99_us / 1_000.0
    );
    metrics.push(("mc_clients".into(), clients as f64));
    metrics.push(("mc_offered_tps".into(), offered));
    metrics.push(("mc_commits_per_sec".into(), p.commits_per_sec));
    metrics.push(("mc_p99_us".into(), p.p99_us));

    assert!(
        speedup_4_at_10 >= 2.5,
        "4 nodes at 10% cross-shard must give >= 2.5x one node, got {speedup_4_at_10:.2}x"
    );
    assert!(
        p.commits_per_sec >= 0.85 * offered,
        "population run achieved {:.0}/s of {:.0}/s offered",
        p.commits_per_sec,
        offered
    );
    assert!(
        p.p99_us < 100_000.0,
        "population p99 {:.0} us breaches the 100 ms deadline",
        p.p99_us
    );

    if json::wants_json(&args) {
        let path = json::emit("shard_scaling", &metrics).expect("write json");
        println!("wrote {}", path.display());
    }
}
