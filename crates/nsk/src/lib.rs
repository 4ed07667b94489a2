//! # nsk — a NonStop-kernel-like substrate
//!
//! The paper's prototype runs on HP NonStop servers (§4): clusters of up to
//! 16 MIPS processors per node with **no shared memory**, where processes
//! communicate by messages over the redundant ServerNet fabric, and where
//! critical services run as **process pairs** — a primary that checkpoints
//! state changes to a backup "always before externalizing state changes",
//! so the backup can take over "in a second or less" without losing
//! committed data.
//!
//! This crate reproduces the pieces of NSK those experiments depend on:
//!
//! * a [`Machine`]: CPU topology, per-CPU compute-time accounting, and a
//!   process registry that resolves *names* to the current primary — the
//!   indirection that makes client traffic survive a takeover;
//! * message IPC: same-CPU messages at local dispatch cost, cross-CPU
//!   messages over the `simnet` fabric (each process owns a ServerNet
//!   endpoint, mirroring NSK's network-addressed services);
//! * process-pair plumbing, written once in [`pair`]: the protocol as a
//!   pure state machine ([`pair::PairCore`]) and the shell that puts it
//!   on the wire ([`pair::Pair`]: own-name watch, promotion, checkpoints
//!   to the current backup and their acks);
//! * a fault [`monitor::Monitor`] actor that executes a declarative
//!   `FaultPlan` — killing CPUs or processes, detaching their endpoints,
//!   and notifying registered watchers after the configured failure
//!   detection delay.
//!
//! One simplification vs. real NonStop: we model a single node (the S86000
//! used in §4.3 is one node). The endpoint namespace is flat, so a
//! multi-node scenario is just more CPUs with longer link latencies.

pub mod machine;
pub mod monitor;
pub mod pair;
pub mod proc;

pub use machine::{CpuId, Machine, MachineConfig, SharedMachine};
pub use monitor::Monitor;
pub use proc::{send_to_process, Checkpoint, CheckpointAck, CpuDied, ProcessDied};
