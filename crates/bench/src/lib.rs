//! # pm-bench — harnesses that regenerate the paper's figures and claims
//!
//! One binary per experiment (see DESIGN.md §12):
//!
//! | binary            | reproduces |
//! |-------------------|------------|
//! | `fig1`            | Figure 1 — response-time speedup vs transaction size, 1–4 drivers |
//! | `fig2`            | Figure 2 — elapsed time vs transaction size, {1,2} drivers × {PM, no-PM} |
//! | `t1_latency`      | §3.2/§3.3 — durable-write latency by attachment |
//! | `t2_actions`      | §3.4 — persistence actions per inserted row |
//! | `t3_mttr`         | §3.4 — recovery time (MTTR) by strategy |
//! | `t4_npmu_vs_pmp`  | §4.2 — hardware NPMU vs PMP prototype |
//! | `t5_adp_scaling`  | §4.2 — audit throughput vs ADPs per node |
//! | `pool_scaling`    | DESIGN.md §4 — aggregate write bandwidth vs pool members |
//! | `resilver_mttr`   | DESIGN.md §3, §10 — redundancy-repair time vs allocated and diverged bytes; pool-wide device-to-device repair (T6) |
//! | `audit_scaling`   | DESIGN.md §5 — commit rate vs audit partitions (T8) |
//! | `read_scaling`    | DESIGN.md §6 — read throughput vs window × routing (T9) |
//! | `persist_modes`   | DESIGN.md §7 — commit latency by persistence mode (T10) |
//! | `shard_scaling`   | DESIGN.md §8 — sharded txn throughput, 2PC tax, population load (T11) |
//! | `qos_isolation`   | DESIGN.md §9 — commit p99 vs online resilver by QoS policy (T12) |
//! | `georep`          | DESIGN.md §11 — geo-replication: RPO/RTO by shipping mode × WAN delay (T14) |
//! | `ablations`       | DESIGN.md ablations A1–A3 |
//!
//! Each binary prints a CSV block (machine-readable) and an aligned text
//! table (human-readable). Scale: the hot-stock figures default to 2000
//! records/driver (≈ 1/16 of the paper's 32000, same shape); pass
//! `--full` for the paper-scale run.

pub mod json;
pub mod measure;
pub mod measure_pool;
pub mod measure_read;
pub mod outage;
pub mod table;

pub use measure::{
    measure_disk_write, measure_pm_write, measure_pm_write_fabrics, MeasureOpts, PmPathVariant,
};
pub use measure_pool::{measure_pool_write_bw, PoolBwOpts, PoolBwResult};
pub use measure_read::{measure_pool_read_bw, ReadBwOpts, ReadBwResult, ReadWorkload};
pub use table::Table;

/// Records per driver for scaled vs full figure runs.
pub fn records_per_driver(args: &[String]) -> u64 {
    if args.iter().any(|a| a == "--full") {
        32_000
    } else {
        2_000
    }
}
