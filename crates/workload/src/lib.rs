//! # workload — closed-loop multi-client load generation
//!
//! §1 of the paper frames online data stores as systems facing "millions
//! of users" whose sessions each issue short transactions. This crate
//! models that offered load honestly, in the closed-loop style of the
//! classic TPC harnesses:
//!
//! * **virtual clients** ([`driver::ClientPool`]): each pool actor
//!   multiplexes thousands of client state machines, so a run can model
//!   hundreds of thousands of concurrent sessions without one actor per
//!   session;
//! * **think times** ([`dist::ThinkTime`]): exponential (memoryless
//!   device traffic, e.g. call-detail records) or log-normal (human
//!   pacing) gaps between a response and the next request — what turns a
//!   client population into an arrival rate;
//! * **hot-key skew** ([`dist::Zipf`]): the YCSB Zipfian over a customer
//!   universe, so a handful of customers draw most traffic and exercise
//!   the lock manager;
//! * **cross-shard transactions**: a configurable fraction of
//!   transactions insert into a remote shard, forcing the TMF's
//!   two-phase commit path on a [`txnkit::scenario::build_cluster`]
//!   topology;
//! * **the paper's hot-stock benchmark** ([`hot_stock`]): the same pool,
//!   one zero-think client per stock with a record budget, run to
//!   completion on one node.
//!
//! Sampling is counter-based ([`dist::Rng64::for_txn`]): a client's n-th
//! transaction draws from a stream keyed by (seed, client, n), so runs
//! are deterministic per seed regardless of event interleaving.

pub mod dist;
pub mod driver;
pub mod hot_stock;

pub use dist::{Rng64, ThinkTime, Zipf};
pub use driver::{
    install_workload, run_to_completion, Keys, SharedWorkloadStats, WorkloadConfig, WorkloadStats,
};
pub use hot_stock::{run_hot_stock, run_hot_stock_with, HotStockResult, TxnSize};
