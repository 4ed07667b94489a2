//! # hotstock — the paper's §4.3 benchmark
//!
//! "This test consists of up to 4 driver processes. Each driver represents
//! a single hotly-traded stock. The drivers each insert 32000 4K records.
//! The database consists of 4 files, each distributed across 4 disk
//! volumes (a total of 16 disk volumes were used). During each transaction
//! each driver performs a number of asynchronous inserts into each file.
//! The transactions are committed between subsequent iterations to
//! simulate the regulatory ordering constraints."
//!
//! The regulatory constraint is the §2 *Hot Stock problem*: a driver may
//! not issue its next boxcar until the previous one committed, so commit
//! response time divides directly into per-stock throughput.
//!
//! [`run_hot_stock`] builds the S86000-like node (via
//! `txnkit::scenario::build_ods`), spawns the drivers and returns the
//! measurements Figures 1 and 2 are drawn from.

pub mod driver;
pub mod runner;

pub use driver::HotStockDriver;
pub use runner::{run_hot_stock, run_hot_stock_with, HotStockParams, HotStockResult, TxnSize};
