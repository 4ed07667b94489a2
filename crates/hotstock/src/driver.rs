//! The hot-stock driver process: one hotly-traded stock's order stream.

use bytes::Bytes;
use nsk::machine::{CpuId, SharedMachine};
use simcore::hash::FastMap;
use simcore::{Actor, Ctx, Histogram, Msg, Shared, SimDuration};
use simnet::{EndpointId, NetDelivery};
use txnkit::types::*;
use txnkit::TxnClient;

/// Per-driver measurements, filled in as the run progresses.
#[derive(Default)]
pub struct DriverStats {
    pub committed_txns: u64,
    pub inserted_records: u64,
    pub response: Histogram,
    pub started_ns: u64,
    pub finished_ns: u64,
    pub done: bool,
}

pub type SharedDriverStats = Shared<DriverStats>;

struct Kickoff;

/// Issue the i-th insert of the current boxcar (the driver's own
/// per-insert CPU cost serializes the issue loop — §2: "the issue rate
/// (thereby the throughput) of a single application server thread is
/// inversely related to the response time of database operations").
struct IssueNext {
    i: u32,
    n: u32,
}

/// Driver actor: begin → `inserts_per_txn` asynchronous inserts spread
/// round-robin over the files → commit → next iteration (the regulatory
/// ordering constraint), until `total_records` are inserted.
pub struct HotStockDriver {
    name: String,
    client: TxnClient,
    cpu: CpuId,
    /// Stock index (0..4): keys are namespaced per stock.
    stock: u32,
    files: u32,
    parts_per_file: u32,
    /// Partition → DP2 name (from the scenario).
    dp2_of: FastMap<PartitionId, String>,
    record_bytes: u32,
    inserts_per_txn: u32,
    total_records: u64,
    /// Startup delay before the first transaction (node boot time).
    warmup: SimDuration,
    /// Client-side CPU cost to issue one insert, ns.
    issue_cpu_ns: u64,
    machine: SharedMachine,
    // run state
    inserted: u64,
    txn: Option<TxnId>,
    txn_started_ns: u64,
    outstanding: u32,
    stats: SharedDriverStats,
    _ep: EndpointId,
}

impl HotStockDriver {
    #[allow(clippy::too_many_arguments)]
    pub fn install(
        sim: &mut simcore::Sim,
        machine: &SharedMachine,
        tmf: String,
        partition_map: std::collections::HashMap<PartitionId, String>,
        files: u32,
        parts_per_file: u32,
        stock: u32,
        cpu: CpuId,
        record_bytes: u32,
        inserts_per_txn: u32,
        total_records: u64,
        warmup: SimDuration,
        issue_cpu_ns: u64,
    ) -> SharedDriverStats {
        let stats: SharedDriverStats = Shared::new(DriverStats::default());
        let stats2 = stats.clone();
        let machine2 = machine.clone();
        let machine3 = machine.clone();
        let parts = parts_per_file;
        let name = format!("$driver{stock}");
        let dp2_of = partition_map.into_iter().collect();
        nsk::machine::install_primary(sim, machine, &name.clone(), cpu, move |ep| {
            Box::new(HotStockDriver {
                name,
                client: TxnClient::new(machine2, ep, cpu, tmf),
                cpu,
                stock,
                files,
                parts_per_file: parts,
                dp2_of,
                record_bytes,
                inserts_per_txn,
                total_records,
                warmup,
                issue_cpu_ns,
                machine: machine3,
                inserted: 0,
                txn: None,
                txn_started_ns: 0,
                outstanding: 0,
                stats: stats2,
                _ep: ep,
            })
        });
        stats
    }

    fn begin_next(&mut self, ctx: &mut Ctx<'_>) {
        if self.inserted >= self.total_records {
            let mut s = self.stats.lock();
            s.finished_ns = ctx.now().as_nanos();
            s.done = true;
            return;
        }
        self.txn_started_ns = ctx.now().as_nanos();
        self.client.begin(ctx, self.inserted);
    }

    fn issue_boxcar(&mut self, ctx: &mut Ctx<'_>) {
        let n = self
            .inserts_per_txn
            .min((self.total_records - self.inserted) as u32);
        self.outstanding = n;
        self.issue_one(ctx, 0, n);
    }

    fn issue_one(&mut self, ctx: &mut Ctx<'_>, i: u32, n: u32) {
        let txn = self.txn.unwrap();
        // Spread inserts across all files ("inserts into each file")
        // and across the partitions/CPUs, as the benchmark's 16-volume
        // layout does: asynchronous inserts parallelize over DP2s while
        // the *issue* loop serializes on the driver's CPU.
        let file = i % self.files;
        let part = PartitionId {
            file,
            part: (self.stock + i / self.files) % self.parts_per_file,
        };
        let dp2 = &self.dp2_of[&part];
        let key = ((self.stock as u64) << 48) | (self.inserted + i as u64);
        // Compact body: 16 descriptor bytes standing in for a 4 KB
        // record (full size travels through the timing model).
        let body = Bytes::copy_from_slice(&key.to_le_bytes());
        self.client
            .insert(ctx, dp2, txn, part, key, body, self.record_bytes, i as u64);
        if i + 1 < n {
            let now = ctx.now().as_nanos();
            let queue = self
                .machine
                .lock()
                .cpu_work(self.cpu, now, self.issue_cpu_ns);
            ctx.send_self(
                SimDuration::from_nanos(queue + self.issue_cpu_ns),
                IssueNext { i: i + 1, n },
            );
        }
    }
}

impl Actor for HotStockDriver {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<simcore::actor::Start>() {
            ctx.send_self(self.warmup, Kickoff);
            return;
        }
        if msg.is::<Kickoff>() {
            self.stats.lock().started_ns = ctx.now().as_nanos();
            self.begin_next(ctx);
            return;
        }
        let msg = match msg.take::<IssueNext>() {
            Ok((_, IssueNext { i, n })) => {
                self.issue_one(ctx, i, n);
                return;
            }
            Err(m) => m,
        };
        if let Ok((_, delivery)) = msg.take::<NetDelivery>() {
            let payload = match delivery.payload.downcast::<TxnBegun>() {
                Ok(b) => {
                    self.txn = Some(b.txn);
                    self.issue_boxcar(ctx);
                    return;
                }
                Err(p) => p,
            };
            let payload = match payload.downcast::<InsertDone>() {
                Ok(done) => {
                    if self.client.note_insert_done(&done) {
                        self.outstanding -= 1;
                        if self.outstanding == 0 {
                            let txn = self.txn.unwrap();
                            self.client.commit(ctx, txn);
                        }
                    } else {
                        // Hot-stock drivers use disjoint keys: a deadlock
                        // would be a harness bug.
                        panic!("unexpected insert failure: {:?}", done.result);
                    }
                    return;
                }
                Err(p) => p,
            };
            if let Ok(_c) = payload.downcast::<TxnCommitted>() {
                let committed = self
                    .inserts_per_txn
                    .min((self.total_records - self.inserted) as u32);
                self.inserted += committed as u64;
                {
                    let mut s = self.stats.lock();
                    s.committed_txns += 1;
                    s.inserted_records += committed as u64;
                    s.response
                        .record(ctx.now().as_nanos() - self.txn_started_ns);
                }
                self.txn = None;
                self.begin_next(ctx);
            }
        }
        let _ = self.cpu;
    }
}
