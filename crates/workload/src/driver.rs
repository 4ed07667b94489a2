//! Closed-loop client pools.
//!
//! The paper's motivating workloads (telco call-detail capture, online
//! trading) are driven by *millions* of concurrent sessions, each issuing
//! a transaction, pausing for a think time, and issuing the next. One
//! simulated actor per session would melt the event loop, so each
//! [`ClientPool`] actor multiplexes thousands of **virtual clients**:
//! every client is a tiny state machine (think → begin → inserts → commit
//! → think) whose timers and replies are routed back to its slot through
//! request tokens. The pacing-relevant costs — the per-insert CPU charge
//! on the pool's host CPU and the fabric round trips — are still modelled
//! per operation, so a pool behaves like that many real clients sharing
//! an application server.
//!
//! Each pool is homed on one shard: its clients begin/commit at that
//! shard's TMF (which coordinates cross-shard transactions via 2PC) and
//! draw their keys from the shard's slice of the key space, except for a
//! configurable [`WorkloadConfig::cross_shard_fraction`] of transactions
//! that deliberately touch a remote shard.

use crate::dist::{Rng64, ThinkTime, Zipf};
use bytes::Bytes;
use nsk::machine::{CpuId, SharedMachine};
use simcore::hash::FastMap;
use simcore::{Actor, Ctx, Histogram, Msg, Shared, Sim, SimDuration, SimTime};
use simnet::NetDelivery;
use std::sync::Arc;
use txnkit::audit::insert_trail_len;
use txnkit::scenario::ClusterView;
use txnkit::shard::{shard_of_key, splitmix64};
use txnkit::types::*;
use txnkit::TxnClient;

/// How a transaction's inserts choose their keys and partitions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Keys {
    /// Customer ids from the Zipfian draw, each placed by its hash: hot
    /// customers contend for locks, and some transactions abort.
    Zipfian,
    /// A globally unique key per insert, placed by its hash: no lock
    /// contention and no aborts — what crash/recovery harnesses that
    /// account for every record use.
    Disjoint,
    /// §4.3's layout, unique too: a client's n-th record is key
    /// `client << 48 | n`, and a transaction's i-th insert goes to file
    /// `i % files`, partition `(client + i / files) % parts_per_file` of
    /// its shard ("inserts into each file", spread over the DP2s).
    Sequential,
}

/// Closed-loop workload parameters.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    pub seed: u64,
    /// Total modelled clients across the cluster (split evenly over
    /// shards, then over each shard's pools).
    pub clients: u64,
    /// Multiplexer actors per shard (each pins one worker CPU).
    pub pools_per_shard: u32,
    pub think: ThinkTime,
    /// Customer-row universe for the Zipfian key draw.
    pub customers: u64,
    /// Zipfian skew (YCSB default 0.99).
    pub zipf_theta: f64,
    /// Fraction of transactions that deliberately insert into a remote
    /// shard (forcing the 2PC path). Ignored on single-shard clusters.
    pub cross_shard_fraction: f64,
    pub inserts_per_txn: u32,
    /// Logical record size (travels through the timing model).
    pub record_bytes: u32,
    /// How inserts choose their keys and partitions.
    pub keys: Keys,
    /// Records each client attempts, `inserts_per_txn` per transaction
    /// and the rest in a last, shorter one; 0 means "until `run_for`
    /// elapses".
    pub records_per_client: u64,
    /// Stop issuing new transactions this long after warmup.
    pub run_for: Option<SimDuration>,
    /// Boot delay before the first transaction.
    pub warmup: SimDuration,
    /// Client-side CPU cost to issue one insert (an app-server issuing
    /// ops on behalf of many sessions, cheaper than the paper's
    /// heavyweight per-process drivers).
    pub issue_cpu_ns: u64,
}

impl WorkloadConfig {
    pub fn new(seed: u64, clients: u64) -> Self {
        WorkloadConfig {
            seed,
            clients,
            pools_per_shard: 2,
            think: ThinkTime::Exponential {
                mean_ns: 100_000_000,
            },
            customers: 100_000,
            zipf_theta: 0.99,
            cross_shard_fraction: 0.0,
            inserts_per_txn: 8,
            record_bytes: 4096,
            keys: Keys::Zipfian,
            records_per_client: 0,
            run_for: Some(SimDuration::from_millis(2_000)),
            warmup: SimDuration::from_millis(1_100),
            issue_cpu_ns: 20_000,
        }
    }
}

/// Aggregated workload measurements (all pools share one).
#[derive(Default)]
pub struct WorkloadStats {
    pub committed: u64,
    pub aborted: u64,
    /// Committed transactions that spanned more than one shard.
    pub cross_shard_committed: u64,
    pub inserted_records: u64,
    /// Client-observed response time (begin → committed), ns.
    pub response: Histogram,
    /// Acknowledged-committed transaction ids, in ack order (crash and
    /// fault tests hold offline recovery to them).
    pub committed_ids: Vec<TxnId>,
    /// Where each acknowledged transaction's audit begins: per ADP its
    /// inserts went to, the lowest LSN one of them starts at, in ack
    /// order. Recovery owes a commit only while a lap has not overwritten
    /// its records (`pmem::oracle::Expect::acked_at`).
    pub acked_at: Vec<(TxnId, String, Lsn)>,
    pub started_ns: u64,
    pub finished_ns: u64,
    pools: u32,
    pools_done: u32,
}

impl WorkloadStats {
    pub fn done(&self) -> bool {
        self.pools > 0 && self.pools_done == self.pools
    }

    /// Committed transactions per second of measured (post-warmup) time.
    pub fn commits_per_sec(&self) -> f64 {
        let dur = self.finished_ns.saturating_sub(self.started_ns);
        if dur == 0 {
            return 0.0;
        }
        self.committed as f64 * 1e9 / dur as f64
    }
}

pub type SharedWorkloadStats = Shared<WorkloadStats>;

const THINK_SALT: u64 = 0x7468_696e_6b21_0000; // "think!"

/// One virtual client's in-flight state.
struct VClient {
    /// Global client id (stable across runs — part of the RNG stream).
    id: u64,
    /// Transactions attempted so far (the RNG stream index).
    seq: u64,
    txn: Option<TxnId>,
    /// This attempt's inserts: (partition, key).
    plan: Vec<(PartitionId, u64)>,
    cross: bool,
    outstanding: u32,
    failed: bool,
    /// This attempt's acked inserts: per ADP, the lowest LSN one starts at.
    acked_at: Vec<(String, Lsn)>,
    started_ns: u64,
    done: bool,
}

struct ThinkDone {
    slot: u32,
}

struct IssueNext {
    slot: u32,
    i: u32,
}

/// A pool of virtual clients homed on one shard.
pub struct ClientPool {
    name: String,
    client: TxnClient,
    cpu: CpuId,
    machine: SharedMachine,
    home: u32,
    view: Arc<ClusterView>,
    cfg: Arc<WorkloadConfig>,
    /// The customer draw ([`Keys::Zipfian`] only).
    zipf: Option<Zipf>,
    slots: Vec<VClient>,
    by_txn: FastMap<TxnId, u32>,
    live: u32,
    /// Absolute ns after which no new transactions start.
    stop_at_ns: Option<u64>,
    stats: SharedWorkloadStats,
}

impl ClientPool {
    /// Derive the home partition of a key on a given shard: stable per
    /// key (a customer row lives in one place), independent bits from
    /// the shard-routing hash.
    fn place(view: &ClusterView, shard: u32, key: u64) -> PartitionId {
        let h = splitmix64(key.rotate_left(17) ^ 0x9e6d_7a1b_3c58_f042);
        PartitionId {
            file: shard * view.files + (h % view.files as u64) as u32,
            part: ((h >> 32) % view.parts_per_file as u64) as u32,
        }
    }

    /// Draw a key routed to `target` (bounded rejection sampling over the
    /// Zipfian customer draw, or over a salt field for disjoint keys).
    fn key_for_shard(&self, rng: &mut Rng64, target: u32, unique: u64) -> u64 {
        let shards = self.view.shards;
        let Some(zipf) = &self.zipf else {
            // Unique key: | salt 16 | client 28 | counter 20 |; vary the
            // salt until the routing hash lands on the target shard.
            for salt in 0u64..(1 << 16) {
                let k = (salt << 48) | unique;
                if shard_of_key(k, shards) == target {
                    return k;
                }
            }
            unreachable!("no salt routes to shard {target}");
        };
        // Contended key = customer id: resample the Zipfian until the
        // customer's home shard matches (hot customers keep a fixed
        // home, like warehouses). Expected tries = shard count.
        let mut last = 0;
        for _ in 0..4096 {
            last = zipf.sample(rng) + 1; // avoid key 0
            if shard_of_key(last, shards) == target {
                return last;
            }
        }
        last
    }

    /// Build the slot's next transaction plan from its private stream:
    /// `inserts_per_txn` inserts, or what is left of the record budget.
    fn build_plan(&mut self, slot: u32) {
        let view = self.view.clone();
        let cfg = self.cfg.clone();
        let (id, seq) = {
            let s = &self.slots[slot as usize];
            (s.id, s.seq)
        };
        let done = seq * cfg.inserts_per_txn as u64;
        let n = match cfg.records_per_client {
            0 => cfg.inserts_per_txn,
            budget => cfg.inserts_per_txn.min((budget - done) as u32),
        };
        let mut rng = Rng64::for_txn(cfg.seed, id, seq);
        let cross = view.shards > 1 && rng.next_f64() < cfg.cross_shard_fraction;
        let remote = if cross {
            let mut r = rng.below(view.shards as u64 - 1) as u32;
            if r >= self.home {
                r += 1;
            }
            Some(r)
        } else {
            None
        };
        let mut plan = std::mem::take(&mut self.slots[slot as usize].plan);
        plan.clear();
        for i in 0..n {
            // The last insert of a cross-shard transaction goes remote.
            let target = match remote {
                Some(r) if i + 1 == n => r,
                _ => self.home,
            };
            let record = done + i as u64;
            plan.push(if cfg.keys == Keys::Sequential {
                let part = PartitionId {
                    file: target * view.files + i % view.files,
                    part: (id as u32 + i / view.files) % view.parts_per_file,
                };
                (part, (id << 48) | record)
            } else {
                let key = self.key_for_shard(&mut rng, target, (id << 20) | (record & 0xf_ffff));
                (Self::place(&view, target, key), key)
            });
        }
        let s = &mut self.slots[slot as usize];
        s.plan = plan;
        s.cross = cross;
        s.seq += 1;
    }

    /// Schedule the slot's next wake-up, clamped to the issuing deadline:
    /// a client mid-think at the deadline wakes exactly then (and retires)
    /// instead of parking the pool for the tail of a long think draw.
    fn schedule_think(&mut self, ctx: &mut Ctx<'_>, slot: u32, think_ns: u64) {
        let now = ctx.now().as_nanos();
        let delay = match self.stop_at_ns {
            Some(d) if now + think_ns > d => d.saturating_sub(now),
            _ => think_ns,
        };
        ctx.send_self(SimDuration::from_nanos(delay), ThinkDone { slot });
    }

    /// Think, then begin the slot's next transaction; a zero think begins
    /// it in this event.
    fn think_then_next(&mut self, ctx: &mut Ctx<'_>, slot: u32) {
        let s = &self.slots[slot as usize];
        let mut rng = Rng64::for_txn(self.cfg.seed ^ THINK_SALT, s.id, s.seq);
        match self.cfg.think.sample_ns(&mut rng) {
            0 => self.begin_next(ctx, slot),
            think => self.schedule_think(ctx, slot, think),
        }
    }

    fn finish_client(&mut self, ctx: &mut Ctx<'_>, slot: u32) {
        let s = &mut self.slots[slot as usize];
        if s.done {
            return;
        }
        s.done = true;
        self.live -= 1;
        if self.live == 0 {
            let mut st = self.stats.lock();
            st.pools_done += 1;
            st.finished_ns = st.finished_ns.max(ctx.now().as_nanos());
        }
    }

    fn begin_next(&mut self, ctx: &mut Ctx<'_>, slot: u32) {
        let now = ctx.now().as_nanos();
        let over_deadline = self.stop_at_ns.map(|d| now >= d).unwrap_or(false);
        let budget = self.cfg.records_per_client;
        let exhausted =
            budget > 0 && self.slots[slot as usize].seq * self.cfg.inserts_per_txn as u64 >= budget;
        if over_deadline || exhausted {
            self.finish_client(ctx, slot);
            return;
        }
        self.build_plan(slot);
        self.slots[slot as usize].started_ns = now;
        self.client.begin(ctx, slot as u64);
    }

    fn issue_one(&mut self, ctx: &mut Ctx<'_>, slot: u32, i: u32) {
        let s = &self.slots[slot as usize];
        let (txn, (part, key), n) = (s.txn.unwrap(), s.plan[i as usize], s.plan.len() as u32);
        // Compact body: the key's 8 bytes stand in for the record (its
        // full size travels through the timing model).
        let body = Bytes::copy_from_slice(&key.to_le_bytes());
        let dp2 = &self.view.partition_map[&part];
        self.client.insert(
            ctx,
            dp2,
            txn,
            part,
            key,
            body,
            self.cfg.record_bytes,
            slot as u64,
        );
        if i + 1 < n {
            let now = ctx.now().as_nanos();
            let queue = self
                .machine
                .lock()
                .cpu_work(self.cpu, now, self.cfg.issue_cpu_ns);
            ctx.send_self(
                SimDuration::from_nanos(queue + self.cfg.issue_cpu_ns),
                IssueNext { slot, i: i + 1 },
            );
        }
    }

    fn txn_settled(&mut self, ctx: &mut Ctx<'_>, txn: TxnId, committed: bool) {
        let Some(slot) = self.by_txn.remove(&txn) else {
            return;
        };
        {
            let s = &mut self.slots[slot as usize];
            s.txn = None;
            let inserted = s.plan.len() as u64;
            let cross = s.cross;
            let started = s.started_ns;
            let mut st = self.stats.lock();
            if committed {
                st.committed += 1;
                st.inserted_records += inserted;
                if cross {
                    st.cross_shard_committed += 1;
                }
                st.committed_ids.push(txn);
                let acked_at = s.acked_at.drain(..);
                st.acked_at
                    .extend(acked_at.map(|(adp, lsn)| (txn, adp, lsn)));
                st.response.record(ctx.now().as_nanos() - started);
            } else {
                st.aborted += 1;
            }
        }
        self.think_then_next(ctx, slot);
    }
}

impl Actor for ClientPool {
    fn name(&self) -> &str {
        &self.name
    }

    fn handle(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        if msg.is::<simcore::actor::Start>() {
            // Stagger client arrivals across one think time so a cold
            // start doesn't issue every first transaction at once. A pool
            // of one client has nobody to stagger against: it starts when
            // the warmup ends.
            let warmup = self.cfg.warmup;
            self.stop_at_ns = self.cfg.run_for.map(|d| warmup.as_nanos() + d.as_nanos());
            let stagger = self.slots.len() > 1;
            for slot in 0..self.slots.len() as u32 {
                // A think-time draw plus up to 2 ms of uniform stagger, so
                // even zero-think saturation runs ramp up instead of
                // issuing every first begin on the same instant.
                let jitter = if stagger {
                    let id = self.slots[slot as usize].id;
                    let mut rng = Rng64::for_txn(self.cfg.seed ^ THINK_SALT, id, u64::MAX);
                    self.cfg.think.sample_ns(&mut rng) + rng.below(2_000_000)
                } else {
                    0
                };
                self.schedule_think(ctx, slot, warmup.as_nanos() + jitter);
            }
            return;
        }
        let msg = match msg.take::<ThinkDone>() {
            Ok((_, ThinkDone { slot })) => {
                self.begin_next(ctx, slot);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.take::<IssueNext>() {
            Ok((_, IssueNext { slot, i })) => {
                self.issue_one(ctx, slot, i);
                return;
            }
            Err(m) => m,
        };
        if let Ok((_, delivery)) = msg.take::<NetDelivery>() {
            let payload = match delivery.payload.downcast::<TxnBegun>() {
                Ok(b) => {
                    let slot = b.token as u32;
                    {
                        let s = &mut self.slots[slot as usize];
                        s.txn = Some(b.txn);
                        s.outstanding = s.plan.len() as u32;
                        s.failed = false;
                        s.acked_at.clear();
                    }
                    self.by_txn.insert(b.txn, slot);
                    self.issue_one(ctx, slot, 0);
                    return;
                }
                Err(p) => p,
            };
            let payload = match payload.downcast::<InsertDone>() {
                Ok(done) => {
                    let slot = done.token as u32;
                    let ok = self.client.note_insert_done(&done);
                    // The body is the key's 8 bytes (`issue_one`): the
                    // record starts its trail footprint below its ack.
                    let footprint = insert_trail_len(8, self.cfg.record_bytes);
                    let act = {
                        let s = &mut self.slots[slot as usize];
                        if s.txn != Some(done.txn) {
                            return; // stale reply from an aborted attempt
                        }
                        if let InsertResult::Ok { adp, lsn } = done.result {
                            let start = Lsn(lsn.0.saturating_sub(footprint));
                            match s.acked_at.iter_mut().find(|(a, _)| *a == adp) {
                                Some((_, l)) => *l = (*l).min(start),
                                None => s.acked_at.push((adp, start)),
                            }
                        }
                        if !ok {
                            s.failed = true;
                        }
                        s.outstanding -= 1;
                        if s.outstanding == 0 {
                            Some((done.txn, s.failed))
                        } else {
                            None
                        }
                    };
                    if let Some((txn, failed)) = act {
                        if failed {
                            self.client.abort(ctx, txn);
                        } else {
                            self.client.commit(ctx, txn);
                        }
                    }
                    return;
                }
                Err(p) => p,
            };
            let payload = match payload.downcast::<TxnCommitted>() {
                Ok(c) => {
                    self.txn_settled(ctx, c.txn, true);
                    return;
                }
                Err(p) => p,
            };
            if let Ok(a) = payload.downcast::<TxnAborted>() {
                self.txn_settled(ctx, a.txn, false);
            }
        }
        let _ = self.home;
    }
}

/// Install the workload over a cluster (or single-node) view. Clients are
/// split evenly across shards, then across each shard's pools; every pool
/// is pinned to one of its home shard's worker CPUs.
pub fn install_workload(
    sim: &mut Sim,
    machine: &SharedMachine,
    view: &ClusterView,
    cfg: WorkloadConfig,
) -> SharedWorkloadStats {
    assert!(view.shards >= 1 && cfg.pools_per_shard >= 1);
    assert!(cfg.inserts_per_txn >= 1);
    let stats: SharedWorkloadStats = Shared::new(WorkloadStats {
        started_ns: cfg.warmup.as_nanos(),
        ..WorkloadStats::default()
    });
    let view = Arc::new(view.clone());
    let cfg = Arc::new(cfg);
    let zipf = (cfg.keys == Keys::Zipfian).then(|| Zipf::new(cfg.customers, cfg.zipf_theta));
    let mut next_client = 0u64;
    let mut pools = 0u32;
    for shard in 0..view.shards {
        // Even split with the remainder spread over the leading shards.
        let per_shard = cfg.clients / view.shards as u64
            + if (shard as u64) < cfg.clients % view.shards as u64 {
                1
            } else {
                0
            };
        for p in 0..cfg.pools_per_shard {
            let n = per_shard / cfg.pools_per_shard as u64
                + if (p as u64) < per_shard % cfg.pools_per_shard as u64 {
                    1
                } else {
                    0
                };
            if n == 0 {
                continue;
            }
            let slots: Vec<VClient> = (0..n)
                .map(|k| VClient {
                    id: next_client + k,
                    seq: 0,
                    txn: None,
                    plan: Vec::new(),
                    cross: false,
                    outstanding: 0,
                    failed: false,
                    acked_at: Vec::new(),
                    started_ns: 0,
                    done: false,
                })
                .collect();
            next_client += n;
            let cpu = CpuId(view.shard_cpu_base[shard as usize] + p % view.cpus_per_shard);
            let name = format!("$pool-s{shard}p{p}");
            let tmf = view.tmfs[shard as usize].clone();
            let (m2, m3) = (machine.clone(), machine.clone());
            let (v2, c2, st2, z2) = (view.clone(), cfg.clone(), stats.clone(), zipf.clone());
            let live = slots.len() as u32;
            nsk::machine::install_primary(sim, machine, &name.clone(), cpu, move |ep| {
                Box::new(ClientPool {
                    name,
                    client: TxnClient::new(m2, ep, cpu, tmf),
                    cpu,
                    machine: m3,
                    home: shard,
                    view: v2,
                    cfg: c2,
                    zipf: z2,
                    slots,
                    by_txn: FastMap::default(),
                    live,
                    stop_at_ns: None,
                    stats: st2,
                })
            });
            pools += 1;
        }
    }
    stats.lock().pools = pools;
    stats
}

/// Drive the simulation until every pool reports done (bounded).
pub fn run_to_completion(sim: &mut Sim, stats: &SharedWorkloadStats, ceiling: SimTime) {
    loop {
        if stats.lock().done() {
            return;
        }
        let now = sim.now();
        assert!(now < ceiling, "workload exceeded the simulated ceiling");
        sim.run_until(SimTime(now.as_nanos() + 2_000_000_000));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SECS;
    use simcore::DurableStore;
    use txnkit::scenario::{build_cluster, build_ods, ClusterParams, OdsParams};

    fn quick_cfg(seed: u64, clients: u64) -> WorkloadConfig {
        WorkloadConfig {
            think: ThinkTime::Exponential { mean_ns: 5_000_000 },
            records_per_client: 4 * 8, // four transactions of 8 inserts
            run_for: None,
            customers: 10_000,
            ..WorkloadConfig::new(seed, clients)
        }
    }

    #[test]
    fn single_node_closed_loop_completes() {
        let mut store = DurableStore::new();
        let mut node = build_ods(&mut store, OdsParams::pm(11));
        let (view, machine) = (node.view(), node.machine.clone());
        let stats = install_workload(
            &mut node.sim,
            &machine,
            &view,
            WorkloadConfig {
                cross_shard_fraction: 0.5, // ignored: one shard
                ..quick_cfg(11, 40)
            },
        );
        run_to_completion(&mut node.sim, &stats, SimTime(600 * SECS));
        let s = stats.lock();
        assert_eq!(s.committed + s.aborted, 40 * 4);
        assert!(s.committed > 0);
        assert_eq!(s.cross_shard_committed, 0);
        assert_eq!(s.response.count(), s.committed);
        assert_eq!(node.stats.lock().cross_shard_commits, 0);
    }

    #[test]
    fn cross_shard_transactions_commit_via_2pc() {
        let mut store = DurableStore::new();
        let mut node = build_cluster(&mut store, ClusterParams::pm(12, 2));
        let (view, machine) = (node.view(), node.machine.clone());
        let stats = install_workload(
            &mut node.sim,
            &machine,
            &view,
            WorkloadConfig {
                cross_shard_fraction: 0.5,
                keys: Keys::Disjoint, // no aborts: every txn must commit
                ..quick_cfg(12, 32)
            },
        );
        run_to_completion(&mut node.sim, &stats, SimTime(600 * SECS));
        let s = stats.lock();
        assert_eq!(s.committed, 32 * 4, "disjoint keys must all commit");
        assert!(
            s.cross_shard_committed > 10,
            "cross-shard commits {} too few",
            s.cross_shard_committed
        );
        let t = node.stats.lock();
        assert_eq!(t.cross_shard_commits, s.cross_shard_committed);
        assert!(t.twopc_prepares >= s.cross_shard_committed);
        assert!(t.twopc_decisions >= s.cross_shard_committed);
    }

    #[test]
    fn contended_keys_exercise_locks_without_losing_transactions() {
        let mut store = DurableStore::new();
        let mut node = build_cluster(&mut store, ClusterParams::pm(13, 2));
        let (view, machine) = (node.view(), node.machine.clone());
        let stats = install_workload(
            &mut node.sim,
            &machine,
            &view,
            WorkloadConfig {
                cross_shard_fraction: 0.2,
                customers: 50, // brutal skew: force conflicts
                ..quick_cfg(13, 24)
            },
        );
        run_to_completion(&mut node.sim, &stats, SimTime(600 * SECS));
        let s = stats.lock();
        // Every attempt settles one way or the other — nothing hangs.
        assert_eq!(s.committed + s.aborted, 24 * 4);
        assert!(s.committed > 0);
    }
}
