//! Workload definitions and the seeded plan: every key, think time and
//! cross-shard choice of a run is generated here, up front, from `--seed`.
//! The program under test receives only the generated inputs.

use txnkit::{shard_of_key, PartitionId};

/// Default seed; results in the README are quoted for it.
pub const DEFAULT_SEED: u64 = 0x0D5B11;
/// Held-out seed: never used while tuning, quoted beside every claim.
pub const HELD_OUT_SEED: u64 = 0x5EED02;
/// `run_seconds` of `BENCHMARK.json`: the `--seconds` value the frozen
/// workload sizes below are quoted for. Other values scale the fixed work
/// linearly.
pub const REF_SECONDS: u64 = 12;
/// Settled transactions run before measurement starts.
pub const WARMUP_TXNS: u64 = 1_000;
/// Simulated boot: process pairs open their regions and volumes first.
pub const BOOT_NS: u64 = 1_100_000_000;
/// Driver-side CPU charged per insert (an application server issuing on
/// behalf of many sessions).
pub const ISSUE_CPU_NS: u64 = 20_000;
/// Logical record size; travels through the timing model.
pub const RECORD_BYTES: u32 = 4096;

/// Which system a workload runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scenario {
    /// One node, hardware NPMU audit (`pmem::s86000_pm_hardware`).
    PmNode,
    /// One node, disk audit with group commit (`OdsParams::baseline`).
    DiskNode,
    /// Two PM shards joined by 2PC (`pmem::s86000_cluster`).
    Cluster,
    /// `PmNode` with the scheduled transport, periodic mirror-half outages
    /// (online resilvers) and a bulk tail reader.
    PmNodeRepair,
}

/// How much work a run does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Work {
    /// Closed loop over a shared budget of this many measured transactions
    /// at `REF_SECONDS`.
    Txns(u64),
    /// Think-paced population for a fixed simulated span: this many
    /// one-second degrade/resilver cycles at `REF_SECONDS`.
    Cycles(u64),
}

#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub scenario: Scenario,
    /// Virtual clients in total (split evenly over shards, then round-robin
    /// over each shard's worker CPUs).
    pub clients: u32,
    pub inserts: u32,
    /// Share of transactions whose last insert goes to the other shard.
    pub cross_frac: f64,
    /// Mean of the exponential think time; 0 is a zero-think closed loop.
    pub think_mean_ns: u64,
    pub work: Work,
    /// Length of one host-timing slice of the measured phase, simulated
    /// ns. For fixed work it is quoted at `REF_SECONDS` and scaled with the
    /// work, so a run keeps about 300 slices.
    pub slice_ns: u64,
    /// Slices per window of the host-time estimator (see
    /// `stats::windowed_median_total`).
    pub window_slices: usize,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "trade_pm",
        why: "2 zero-think clients, 1x4KB insert per txn on PM audit: latency is the sum of blocking stages, so a PM-path change shows",
        scenario: Scenario::PmNode,
        clients: 2,
        inserts: 1,
        cross_frac: 0.0,
        think_mean_ns: 0,
        work: Work::Txns(80_000),
        slice_ns: 112_000_000,
        window_slices: 20,
    },
    Spec {
        name: "trade_disk",
        why: "same load on disk audit with 8 ms group commit: the paper's baseline and the bypass, PM-path changes predict no change here",
        scenario: Scenario::DiskNode,
        clients: 2,
        inserts: 1,
        cross_frac: 0.0,
        think_mean_ns: 0,
        work: Work::Txns(100_000),
        slice_ns: 3_500_000_000,
        window_slices: 20,
    },
    Spec {
        name: "oltp_saturated",
        why: "2 shards, 32 zero-think clients, 8x4KB inserts, 10% cross-shard 2PC: throughput-bound on DP2 CPU, heaviest event load",
        scenario: Scenario::Cluster,
        clients: 32,
        inserts: 8,
        cross_frac: 0.10,
        think_mean_ns: 0,
        work: Work::Txns(20_000),
        slice_ns: 22_000_000,
        window_slices: 20,
    },
    Spec {
        name: "repair_under_load",
        why: "40 think-paced clients under DRR QoS, a mirror-half outage and online resilver every second, a 256 KiB tail reader: one link, three users",
        scenario: Scenario::PmNodeRepair,
        clients: 40,
        inserts: 1,
        cross_frac: 0.0,
        think_mean_ns: 20_000_000,
        work: Work::Cycles(16),
        slice_ns: 25_000_000,
        // One outage/resilver cycle per window.
        window_slices: 40,
    },
];

pub fn workload(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    pub fn shards(&self) -> u32 {
        if self.scenario == Scenario::Cluster {
            2
        } else {
            1
        }
    }
}

/// splitmix64 sequence generator: the benchmark's only source of randomness.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn exponential_ns(&mut self, mean_ns: u64) -> u64 {
        if mean_ns == 0 {
            return 0;
        }
        let u = 1.0 - self.next_f64(); // (0, 1]
        (-u.ln() * mean_ns as f64) as u64
    }
}

fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// One planned insert.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlannedInsert {
    pub partition: PartitionId,
    pub key: u64,
}

/// One shard's queue of planned transactions; its clients draw from it in
/// simulated-time order.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardPlan {
    /// `inserts` entries per transaction, flattened.
    pub inserts: Vec<PlannedInsert>,
    /// Whether transaction `i` touches the other shard.
    pub cross: Vec<bool>,
    /// Think time after transaction `i` settles.
    pub think_ns: Vec<u64>,
}

impl ShardPlan {
    pub fn txns(&self) -> usize {
        self.cross.len()
    }
}

/// Everything a run consumes, derived from `(spec, seed, seconds)`.
#[derive(Clone, Debug, PartialEq)]
pub struct Plan {
    pub shards: Vec<ShardPlan>,
    /// Per client: delay after boot before its first transaction.
    pub start_stagger_ns: Vec<u64>,
    /// Fixed work: transactions to settle in total (warm-up included).
    /// `None` for a think-paced span.
    pub budget: Option<u64>,
    /// Think-paced span: absolute simulated time after which no transaction
    /// starts, and the outage windows `(half, from_ns, to_ns)`.
    pub deadline_ns: Option<u64>,
    pub outages: Vec<(u8, u64, u64)>,
    pub slice_ns: u64,
}

/// The scenario's partition layout, fixed by the presets the benchmark
/// uses (4 files x 4 partitions per node).
pub const FILES: u32 = 4;
pub const PARTS_PER_FILE: u32 = 4;

/// A key's home partition on `shard`: stable per key, independent bits from
/// the shard-routing hash.
fn place(shard: u32, key: u64) -> PartitionId {
    let h = mix(key.rotate_left(17) ^ 0x9e6d_7a1b_3c58_f042);
    PartitionId {
        file: shard * FILES + (h % FILES as u64) as u32,
        part: ((h >> 32) % PARTS_PER_FILE as u64) as u32,
    }
}

/// A globally unique key that routes to `target`: `| salt 16 | serial 48 |`.
/// Uniqueness comes from the serial; the salt is drawn from the seed and
/// then stepped until the routing hash lands on the target shard.
fn unique_key(rng: &mut SplitMix64, serial: u64, shards: u32, target: u32) -> u64 {
    let salt0 = rng.next_u64() & 0xffff;
    for step in 0..(1u64 << 16) {
        let key = (((salt0 + step) & 0xffff) << 48) | serial;
        if shard_of_key(key, shards) == target {
            return key;
        }
    }
    unreachable!("no salt routes serial {serial} to shard {target}");
}

/// Scale a size quoted for `REF_SECONDS` to `seconds` (`quick` divides by
/// 20), never below `floor`.
fn scaled(n: u64, seconds: u64, quick: bool, floor: u64) -> u64 {
    let n = n * seconds / REF_SECONDS / if quick { 20 } else { 1 };
    n.max(floor)
}

impl Plan {
    pub fn generate(spec: &Spec, seed: u64, seconds: u64, quick: bool) -> Plan {
        let shards = spec.shards();
        let mut rng = SplitMix64::new(seed ^ mix(spec.name.len() as u64 ^ 0xB0A7));
        let start_stagger_ns = (0..spec.clients)
            .map(|_| rng.exponential_ns(spec.think_mean_ns) + rng.next_u64() % 2_000_000)
            .collect();

        let (budget, deadline_ns, outages, planned, slice_ns) = match spec.work {
            Work::Txns(n) => {
                let n = scaled(n, seconds, quick, 2_000);
                let slice = scaled(spec.slice_ns, seconds, quick, 1_000_000);
                // Closed loop over a shared budget: any shard may end up
                // serving a little more than its even share.
                let total = WARMUP_TXNS + n;
                (Some(total), None, Vec::new(), total + total / 8, slice)
            }
            Work::Cycles(c) => {
                let cycles = scaled(c, seconds, quick, 1);
                // Outage k takes one mirror half down for 100 ms, one per
                // second, alternating halves; the span ends 2 s after the
                // last one starts so its resilver completes inside it.
                let first = 2_500_000_000u64;
                let outages: Vec<(u8, u64, u64)> = (0..cycles)
                    .map(|k| {
                        let from = first + k * 1_000_000_000;
                        ((k % 2) as u8, from, from + 100_000_000)
                    })
                    .collect();
                let deadline = first + (cycles - 1) * 1_000_000_000 + 2_000_000_000;
                let offered =
                    spec.clients as u64 * (deadline - BOOT_NS) / spec.think_mean_ns.max(1);
                (
                    None,
                    Some(deadline),
                    outages,
                    offered * 3 / 2 + 4_096,
                    spec.slice_ns,
                )
            }
        };

        let per_shard = planned.div_ceil(shards as u64);
        let mut serial = 1u64; // key 0 is never used
        let shards_plan = (0..shards)
            .map(|home| {
                let mut sp = ShardPlan {
                    inserts: Vec::with_capacity((per_shard * spec.inserts as u64) as usize),
                    cross: Vec::with_capacity(per_shard as usize),
                    think_ns: Vec::with_capacity(per_shard as usize),
                };
                for _ in 0..per_shard {
                    let cross = shards > 1 && rng.next_f64() < spec.cross_frac;
                    for i in 0..spec.inserts {
                        // The last insert of a cross-shard transaction
                        // goes to the other shard.
                        let target = if cross && i + 1 == spec.inserts {
                            (home + 1) % shards
                        } else {
                            home
                        };
                        let key = unique_key(&mut rng, serial, shards, target);
                        serial += 1;
                        sp.inserts.push(PlannedInsert {
                            partition: place(target, key),
                            key,
                        });
                    }
                    sp.cross.push(cross);
                    sp.think_ns.push(rng.exponential_ns(spec.think_mean_ns));
                }
                sp
            })
            .collect();

        Plan {
            shards: shards_plan,
            start_stagger_ns,
            budget,
            deadline_ns,
            outages,
            slice_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn same_seed_gives_identical_plan_and_other_seed_differs() {
        for spec in &WORKLOADS {
            let a = Plan::generate(spec, DEFAULT_SEED, REF_SECONDS, true);
            let b = Plan::generate(spec, DEFAULT_SEED, REF_SECONDS, true);
            let c = Plan::generate(spec, HELD_OUT_SEED, REF_SECONDS, true);
            assert_eq!(a, b, "{}", spec.name);
            assert_ne!(a, c, "{}", spec.name);
        }
    }

    #[test]
    fn keys_are_unique_and_route_to_their_partition_shard() {
        let spec = workload("oltp_saturated").unwrap();
        let plan = Plan::generate(spec, 7, REF_SECONDS, true);
        let mut seen = HashSet::new();
        let mut crossed = 0;
        for (home, sp) in plan.shards.iter().enumerate() {
            assert_eq!(sp.inserts.len(), sp.txns() * spec.inserts as usize);
            for (t, txn) in sp.inserts.chunks(spec.inserts as usize).enumerate() {
                for (i, ins) in txn.iter().enumerate() {
                    assert!(seen.insert(ins.key), "duplicate key");
                    let shard = shard_of_key(ins.key, 2);
                    assert_eq!(ins.partition.file / FILES, shard);
                    let remote = sp.cross[t] && i + 1 == txn.len();
                    assert_eq!(shard as usize == home, !remote);
                }
                crossed += sp.cross[t] as usize;
            }
        }
        let total: usize = plan.shards.iter().map(|s| s.txns()).sum();
        let frac = crossed as f64 / total as f64;
        assert!((0.07..0.13).contains(&frac), "cross fraction {frac}");
    }

    #[test]
    fn repair_span_covers_every_outage_and_scales_down() {
        let spec = workload("repair_under_load").unwrap();
        let full = Plan::generate(spec, 1, REF_SECONDS, false);
        let Work::Cycles(c) = spec.work else { panic!() };
        assert_eq!(full.outages.len() as u64, c);
        let last = full.outages.last().unwrap();
        assert!(full.deadline_ns.unwrap() >= last.2 + 1_500_000_000);
        assert!(full.outages.windows(2).all(|w| w[0].0 != w[1].0));
        let quick = Plan::generate(spec, 1, REF_SECONDS, true);
        assert_eq!(quick.outages.len(), 1);
        assert!(quick.budget.is_none());
    }
}
