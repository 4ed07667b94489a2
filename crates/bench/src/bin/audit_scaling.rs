//! T8: audit-partition scaling — commit throughput of the partitioned,
//! pipelined PM audit subsystem vs a single ADP on the same pool.
//!
//! The workload is the audit half of a commit, isolated from the DP2
//! insert path so the trail is the bottleneck under test: closed-loop
//! clients append a 64-byte commit record to the partition chosen by
//! `TxnId::audit_partition` and flush it (append → `AppendDone` →
//! `FlushReq` → `FlushDone` = one hardened commit). Every point runs on
//! the *same* 4-volume pool; only the number of ADP process pairs in
//! front of it varies, so the table isolates what partitioning the trail
//! (and pipelining each partition's writes) buys over one serialized
//! trail writer.
//!
//! Acceptance (asserted below): 4 partitions ≥ 2× the single-ADP
//! commit rate, with p99 commit latency no worse.

use bytes::Bytes;
use npmu::NpmuConfig;
use nsk::machine::{install_primary, CpuId, Machine, MachineConfig, SharedMachine};
use pm_bench::{json, Table};
use pmem::{install_audit_partitions, install_pm_pool};
use simcore::actor::Start;
use simcore::time::{MILLIS, SECS};
use simcore::{Actor, Ctx, DurableStore, Histogram, Msg, Shared, Sim, SimDuration, SimTime};
use simnet::{EndpointId, NetDelivery};
use txnkit::{AppendDone, AuditAppend, FlushDone, FlushReq, TxnConfig, TxnId};

const WORKER_CPUS: u32 = 4;
const POOL_VOLUMES: u32 = 4;
const REGION_LEN: u64 = 8 << 20;
// One commit record per commit (the TMF's `COMMIT_RECORD_BYTES`).
const RECORD_BYTES: usize = 64;

#[derive(Default)]
struct BenchResults {
    committed: u64,
    started_ns: u64,
    done_at_ns: u64,
    latency: Histogram,
}

type SharedResults = Shared<BenchResults>;

/// One closed-loop commit source: append a commit record to the hashed
/// partition, flush it, repeat.
struct Appender {
    machine: SharedMachine,
    ep: EndpointId,
    cpu: CpuId,
    adps: Vec<String>,
    id: u64,
    commits: u64,
    seq: u64,
    commit_started_ns: u64,
    results: SharedResults,
}

struct Kickoff;

impl Appender {
    fn current_adp(&self) -> String {
        let txn = TxnId(self.id * 1_000_000 + self.seq);
        self.adps[txn.audit_partition(self.adps.len())].clone()
    }

    fn begin_commit(&mut self, ctx: &mut Ctx<'_>) {
        if self.seq >= self.commits {
            self.results.lock().done_at_ns = ctx.now().as_nanos();
            return;
        }
        self.commit_started_ns = ctx.now().as_nanos();
        let adp = self.current_adp();
        let machine = self.machine.clone();
        nsk::proc::send_to_process(
            ctx,
            &machine,
            self.ep,
            self.cpu,
            &adp,
            RECORD_BYTES as u32 + 16,
            AuditAppend {
                records: Bytes::from(vec![0xC0u8; RECORD_BYTES]),
                virtual_len: RECORD_BYTES as u32,
                token: self.seq,
            },
        );
    }
}

impl Actor for Appender {
    fn name(&self) -> &str {
        "appender"
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<Start>() {
            // Let the partitions' regions boot before timing starts.
            ctx.send_self(SimDuration::from_millis(200), Kickoff);
            return;
        }
        if msg.is::<Kickoff>() {
            self.results.lock().started_ns = ctx.now().as_nanos();
            self.begin_commit(ctx);
            return;
        }
        if let Ok((_, delivery)) = msg.take::<NetDelivery>() {
            let payload = match delivery.payload.downcast::<AppendDone>() {
                Ok(done) => {
                    let adp = self.current_adp();
                    let machine = self.machine.clone();
                    nsk::proc::send_to_process(
                        ctx,
                        &machine,
                        self.ep,
                        self.cpu,
                        &adp,
                        32,
                        FlushReq {
                            upto: done.lsn_end,
                            token: done.token,
                        },
                    );
                    return;
                }
                Err(p) => p,
            };
            if payload.downcast::<FlushDone>().is_ok() {
                let mut r = self.results.lock();
                r.committed += 1;
                r.latency
                    .record(ctx.now().as_nanos() - self.commit_started_ns);
                drop(r);
                self.seq += 1;
                self.begin_commit(ctx);
            }
        }
    }
}

struct Point {
    commits_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
}

fn run_point(partitions: u32, clients: u64, commits_per_client: u64) -> Point {
    let mut store = DurableStore::new();
    let mut sim = Sim::with_seed(11);
    let net = simnet::Network::new(simnet::FabricConfig::default());
    let machine = Machine::new(
        MachineConfig {
            cpus: WORKER_CPUS + 1,
            ..MachineConfig::default()
        },
        net,
    );
    // Room for every partition's trail region plus metadata, per member.
    let cap = (REGION_LEN + pmm::META_BYTES) * (WORKER_CPUS as u64 + 2) + (64 << 20);
    let pool = install_pm_pool(
        &mut sim,
        &mut store,
        &machine,
        "pm",
        NpmuConfig::hardware(cap),
        POOL_VOLUMES,
        CpuId(WORKER_CPUS),
        Some(CpuId(0)),
    );
    let stats = txnkit::stats::shared();
    let adps = install_audit_partitions(
        &mut sim,
        &machine,
        &pool.pmm_name,
        partitions,
        WORKER_CPUS,
        REGION_LEN,
        true,
        TxnConfig::pm_enabled(),
        stats.clone(),
    );
    let results: SharedResults = Shared::new(BenchResults::default());
    for c in 0..clients {
        let cpu = CpuId((c % WORKER_CPUS as u64) as u32);
        let machine2 = machine.clone();
        let adps2 = adps.clone();
        let results2 = results.clone();
        install_primary(&mut sim, &machine, &format!("$APP{c}"), cpu, move |ep| {
            Box::new(Appender {
                machine: machine2,
                ep,
                cpu,
                adps: adps2,
                id: c,
                commits: commits_per_client,
                seq: 0,
                commit_started_ns: 0,
                results: results2,
            })
        });
    }
    let target = clients * commits_per_client;
    let ceiling = SimTime(600 * SECS);
    while results.lock().committed < target {
        let now = sim.now();
        assert!(
            now < ceiling,
            "audit_scaling point never completed\n{}",
            sim.stalled()
        );
        sim.run_until(SimTime(now.as_nanos() + 200 * MILLIS));
    }
    let r = results.lock();
    let elapsed_ns = r.done_at_ns.saturating_sub(r.started_ns).max(1);
    Point {
        commits_per_sec: r.committed as f64 * SECS as f64 / elapsed_ns as f64,
        p50_us: r.latency.quantile(0.50) as f64 / 1_000.0,
        p99_us: r.latency.quantile(0.99) as f64 / 1_000.0,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let (clients, commits) = if full { (16, 1000) } else { (16, 200) };

    let mut t = Table::new(&["partitions", "commits_per_s", "p50_us", "p99_us", "speedup"]);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut base: Option<Point> = None;
    let mut bar = (0.0, 0.0, 0.0); // (speedup@4, p99@4, p99@1)
    for &parts in &[1u32, 2, 4] {
        let p = run_point(parts, clients, commits);
        let speedup = base
            .as_ref()
            .map(|b| p.commits_per_sec / b.commits_per_sec)
            .unwrap_or(1.0);
        t.row(&[
            parts.to_string(),
            format!("{:.0}", p.commits_per_sec),
            format!("{:.1}", p.p50_us),
            format!("{:.1}", p.p99_us),
            format!("{speedup:.2}x"),
        ]);
        metrics.push((format!("p{parts}_commits_per_sec"), p.commits_per_sec));
        metrics.push((format!("p{parts}_p50_us"), p.p50_us));
        metrics.push((format!("p{parts}_p99_us"), p.p99_us));
        metrics.push((format!("p{parts}_speedup"), speedup));
        if parts == 4 {
            bar.0 = speedup;
            bar.1 = p.p99_us;
        }
        if base.is_none() {
            bar.2 = p.p99_us;
            base = Some(p);
        }
    }
    t.print("T8 audit scaling: partitioned pipelined PM trail vs single ADP (4-volume pool)");
    println!(
        "one ADP caps at 1/append_cpu_ns commits/s; partitioning the trail by \
         txn hash puts independent pipelined writers on separate CPUs, so the \
         commit rate scales with partitions until the pool itself saturates"
    );
    assert!(
        bar.0 >= 2.0,
        "4-partition audit must be >= 2x single-ADP commit rate, got {:.2}x",
        bar.0
    );
    assert!(
        bar.1 <= bar.2,
        "4-partition p99 ({:.1} us) must be no worse than single-ADP p99 ({:.1} us)",
        bar.1,
        bar.2
    );
    if json::wants_json(&args) {
        let path = json::emit("audit_scaling", &metrics).expect("write json");
        println!("wrote {}", path.display());
    }
}
