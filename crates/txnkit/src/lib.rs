//! # txnkit — the transaction-processing substrate
//!
//! §1.2 of the paper names the components a transaction-processing system
//! is built from, and §4 names their NonStop incarnations; this crate
//! implements all of them:
//!
//! * **database writer** (NonStop **DP2**, [`dp2`]): a process pair that
//!   mutates data "on behalf of transactions", sends redo/undo deltas to
//!   the log writer, checkpoints to its backup before externalizing, and
//!   lazily writes dirty data to data volumes (off the commit path);
//! * **log writer** (NonStop **ADP**, [`adp`]): a process pair that
//!   appends the audit trail and flushes it to durable media before a
//!   transaction can commit. Its durable backend is pluggable — **disk
//!   audit volumes** (the baseline) or a **persistent-memory region**
//!   (the paper's modification: "Our modified ADP synchronously writes
//!   database log data to persistent memory. Therefore, the database log
//!   is persistent immediately, and transactions can commit faster");
//! * **transaction monitor** (NonStop **TMF**, [`tmf`]): tracks
//!   transactions "as they enter and leave the system", drives commit
//!   (flush every involved audit trail through the transaction's high
//!   LSN, then make the commit record itself durable) and abort;
//! * a **lock manager** ([`lock`]) providing the §1.1 concurrency control
//!   (shared/exclusive locks with wait queues and deadlock detection);
//! * the **audit trail** format ([`audit`]): self-describing, CRC-guarded
//!   redo/undo records that "explicitly record the changes made to the
//!   database by each transaction, and implicitly record the serial order
//!   in which the transactions committed";
//! * **recovery** ([`recovery`]): the redo/undo scan that rebuilds state
//!   from durable media after a crash, with the MTTR accounting used by
//!   experiment T3.
//!
//! Every persistence action is counted in [`stats::TxnStats`] — that
//! accounting is experiment T2's reproduction of §3.4's claim that PM
//! collapses the baseline's five persistence actions per inserted row.

pub mod adp;
pub mod audit;
pub mod client;
pub mod config;
pub mod dp2;
pub mod georep;
pub mod lock;
pub mod recovery;
pub mod scenario;
pub mod shard;
pub mod stats;
pub mod tmf;
pub mod trail;
pub mod twopc;
pub mod types;

pub use adp::{install_adp_pairs, AuditBackend};
pub use client::TxnClient;
pub use config::TxnConfig;
pub use dp2::install_dp2;
pub use scenario::{
    build_cluster, build_ods, AuditMode, ClusterNode, ClusterParams, ClusterView, OdsNode,
    OdsParams, ShardHandle,
};
pub use shard::{shard_of_key, ShardDirectory};
pub use stats::{SharedTxnStats, TxnStats};
pub use tmf::install_tmf;
pub use types::*;
