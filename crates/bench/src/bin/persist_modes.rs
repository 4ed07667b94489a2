//! T10: remote-persistence modes — commit latency and throughput of the
//! PM audit path under each persistence mode.
//!
//! The workload is the hardened-commit loop of `audit_scaling` (append a
//! 64-byte commit record, flush it, repeat), so the table isolates what
//! each mode's persist point costs at the commit boundary:
//!
//! * `NicAck` — ack at the NPMU's ingress buffer (the optimistic
//!   assumption the recovery matrix's negative control proves lossy): no
//!   persist point at all.
//! * `FlushOnRead` — a forcing RDMA read per mirror half drags the
//!   buffered bytes onto the array before the ack: one extra round trip.
//! * `PersistFlush` — each write chain ends in a persist fence, so the
//!   device drains and pays its flush cost before the chain's one ack:
//!   no extra round trip.
//!
//! In every mode a chain carries its own control-cell slot as its last
//! link, so the uncontended commit is one fabric round trip (two under
//! `FlushOnRead`); appends that arrive behind a chain in flight wait for
//! it and leave together as the next one.
//!
//! Acceptance (asserted below): honest modes cost no less than `NicAck`
//! but never collapse throughput (≥ 40% of the NicAck rate);
//! `PersistFlush` stays within 10% of `NicAck`'s p50 and under
//! `FlushOnRead`'s.

use bytes::Bytes;
use npmu::NpmuConfig;
use nsk::machine::{install_primary, CpuId, Machine, MachineConfig, SharedMachine};
use pm_bench::{json, Table};
use pmem::{install_audit_partitions, install_pm_pool};
use simcore::actor::Start;
use simcore::time::{MILLIS, SECS};
use simcore::{Actor, Ctx, DurableStore, Histogram, Msg, Shared, Sim, SimDuration, SimTime};
use simnet::{EndpointId, NetDelivery, PersistMode};
use txnkit::{AppendDone, AuditAppend, FlushDone, FlushReq, TxnConfig, TxnId};

const WORKER_CPUS: u32 = 4;
const PARTITIONS: u32 = 2;
const REGION_LEN: u64 = 8 << 20;
const RECORD_BYTES: usize = 64;

#[derive(Default)]
struct BenchResults {
    committed: u64,
    started_ns: u64,
    done_at_ns: u64,
    latency: Histogram,
}

type SharedResults = Shared<BenchResults>;

/// One closed-loop commit source (append → flush → repeat).
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

fn run_point(mode: PersistMode, clients: u64, commits_per_client: u64) -> Point {
    let mut store = DurableStore::new();
    let mut sim = Sim::with_seed(29);
    let net = simnet::Network::new(simnet::FabricConfig::default());
    let machine = Machine::new(
        MachineConfig {
            cpus: WORKER_CPUS + 1,
            ..MachineConfig::default()
        },
        net,
    );
    let cap = (REGION_LEN + pmm::META_BYTES) * (PARTITIONS as u64 + 2) + (64 << 20);
    let pool = install_pm_pool(
        &mut sim,
        &mut store,
        &machine,
        "pm",
        NpmuConfig::hardware(cap),
        1,
        CpuId(WORKER_CPUS),
        Some(CpuId(0)),
    );
    let stats = txnkit::stats::shared();
    let adps = install_audit_partitions(
        &mut sim,
        &machine,
        &pool.pmm_name,
        PARTITIONS,
        WORKER_CPUS,
        REGION_LEN,
        true,
        TxnConfig {
            pm_persist_mode: mode,
            ..TxnConfig::pm_enabled()
        },
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
            "persist_modes point never completed\n{}",
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

fn mode_key(mode: PersistMode) -> &'static str {
    match mode {
        PersistMode::NicAck => "nicack",
        PersistMode::FlushOnRead => "flushonread",
        PersistMode::PersistFlush => "persistflush",
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let (clients, commits) = if full { (8, 600) } else { (8, 150) };

    let mut t = Table::new(&["mode", "commits_per_s", "p50_us", "p99_us"]);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut measure = |mode: PersistMode| {
        let p = run_point(mode, clients, commits);
        let k = mode_key(mode);
        t.row(&[
            k.to_string(),
            format!("{:.0}", p.commits_per_sec),
            format!("{:.1}", p.p50_us),
            format!("{:.1}", p.p99_us),
        ]);
        metrics.push((format!("{k}_commits_per_sec"), p.commits_per_sec));
        metrics.push((format!("{k}_p50_us"), p.p50_us));
        metrics.push((format!("{k}_p99_us"), p.p99_us));
        p
    };
    let nic = measure(PersistMode::NicAck);
    let fread = measure(PersistMode::FlushOnRead);
    let flush = measure(PersistMode::PersistFlush);
    t.print("T10 persistence modes: commit latency/throughput by mode");
    println!(
        "NicAck acks at the ingress buffer (fast, lossy under power failure); \
         FlushOnRead and PersistFlush only ack once the bytes are proven on \
         the array: FlushOnRead by one forcing round trip per mirror half, \
         PersistFlush by a fence on the write chain itself (device flush \
         cost only)"
    );

    for (m, h) in [
        (PersistMode::FlushOnRead, &fread),
        (PersistMode::PersistFlush, &flush),
    ] {
        assert!(
            h.p50_us >= nic.p50_us,
            "{} p50 ({:.1} us) below NicAck ({:.1} us): the persist \
             round trip went missing",
            mode_key(m),
            h.p50_us,
            nic.p50_us
        );
        assert!(
            h.commits_per_sec >= 0.4 * nic.commits_per_sec,
            "{} throughput collapsed: {:.0}/s vs NicAck {:.0}/s",
            mode_key(m),
            h.commits_per_sec,
            nic.commits_per_sec
        );
    }
    println!(
        "honesty costs {:+.1}% p50 with the in-chain fence, {:+.1}% with a forcing read",
        100.0 * (flush.p50_us / nic.p50_us - 1.0),
        100.0 * (fread.p50_us / nic.p50_us - 1.0),
    );
    assert!(
        flush.p50_us <= 1.10 * nic.p50_us && flush.p50_us < fread.p50_us,
        "the in-chain fence must cost a device flush, not a round trip \
         (persistflush {:.1} us, nicack {:.1} us, flushonread {:.1} us)",
        flush.p50_us,
        nic.p50_us,
        fread.p50_us
    );
    if json::wants_json(&args) {
        let path = json::emit("persist_modes", &metrics).expect("write json");
        println!("wrote {}", path.display());
    }
}
