//! # npmu — the Network Persistent Memory Unit device model
//!
//! The NPMU is the paper's §3.3/§4.1 device: non-volatile RAM behind a
//! ServerNet NIC, accessed by **host-initiated RDMA** with *no CPU on the
//! device in the data path*. The NIC's address-translation hardware maps a
//! contiguous range of *network virtual addresses* to physical memory when
//! a region is opened, and "enforces a limited form of access control,
//! allowing the PMM to specify which CPUs have access to a specific range".
//!
//! Two variants are modelled, matching §4.2:
//!
//! * [`NpmuKind::Hardware`] — true NPMU: contents survive power loss;
//! * [`NpmuKind::Pmp`] — the paper's prototype, a "Persistent Memory
//!   Process": an ordinary NSK process exposing its DRAM to ServerNet.
//!   Same access architecture, **volatile**, and slightly slower than the
//!   hardware device (the paper verified hardware "is actually slightly
//!   faster than the PMPs used in the experiments").
//!
//! The memory array ([`memory::NvImage`]) lives in the simulation's
//! `DurableStore`: durable for hardware, registered volatile for a PMP, so
//! a simulated power loss erases exactly the right one.

pub mod att;
pub mod device;
pub mod memory;

pub use att::{AttEntry, AttTable, CpuFilter, SharedAtt};
pub use device::{
    digest_ns, FailureMode, Npmu, NpmuConfig, NpmuHandle, NpmuKind, NpmuStats, SharedDmaPeers,
    SharedNpmuStats, SharedWriteFence, WriteFence, DIGEST_BW_BPS,
};
pub use memory::{checksum64, NvImage};
