//! # ods-pm — umbrella crate
//!
//! Reproduction of Mehra & Fineberg, "Fast and Flexible Persistence"
//! (IPDPS 2004). See `README.md` for the guided tour, `DESIGN.md` for the
//! system inventory, and `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! The two entry points most users want:
//!
//! * [`pmem`] — the persistent-memory architecture (devices, manager,
//!   client library, presets, the recovery oracle);
//! * [`workload`] — the client driver: closed-loop client pools, and the
//!   paper's hot-stock benchmark ([`workload::hot_stock`]), runnable at
//!   any scale.

pub use pmem;
pub use txnkit;
pub use workload;
