//! # simnet — a ServerNet-like RDMA system-area-network model
//!
//! The paper's persistent-memory architecture rests on three properties of
//! HP ServerNet (§3.3, §4):
//!
//! 1. **memory-semantic, host-initiated RDMA** — an initiator reads or
//!    writes a 32-bit *network virtual address* exposed by a target NIC,
//!    with no CPU on the target involved;
//! 2. **low, predictable latency** — 10–20 µs of software overhead per
//!    operation depending on ServerNet generation, plus wire time;
//! 3. **hardware acknowledgement** — "when a ServerNet transfer completes
//!    without error, the packet is guaranteed to have arrived in the remote
//!    NIC with a correct CRC", which is what makes a *synchronous* write
//!    API meaningful ("when the call returns the data is either persistent
//!    or the call will return in error").
//!
//! This crate models exactly that: an endpoint registry, a calibrated
//! latency model with per-port bandwidth occupancy, dual fabrics (X/Y)
//! that both carry traffic — one transmit port per fabric, legs routed by
//! their target's home fabric, per-path failover — CRC-error
//! retransmission, and typed in-flight message/RDMA events delivered
//! through the `simcore` engine.
//!
//! What it deliberately does *not* model: routing topology and per-switch
//! hops (the S86000 is a single chassis; port serialization dominates), and
//! per-packet event scheduling (a transfer is one event whose latency
//! accounts for segmentation — see [`latency`]).
//!
//! Address *translation* and access control live at the target NIC in real
//! hardware; here they live in the device actors (`npmu` crate) that own
//! the memory, which receive [`InboundRdmaWrite`]/[`InboundRdmaRead`]
//! events and answer with completions.

pub mod config;
pub mod latency;
pub mod network;
pub mod qos;
pub mod transport;
pub mod wan;

pub use config::{FabricConfig, ServerNetGen};
pub use network::{EndpointId, NetStats, Network, PortDir, SharedNetwork, FABRICS};
pub use qos::{ClassStats, QosConfig, SchedPolicy, TrafficClass, CLASS_COUNT};
pub use transport::{
    rdma_copy, rdma_read, rdma_scrub, rdma_write, rdma_write_chain, rdma_write_sized,
    reply_rdma_copy, reply_rdma_read, reply_rdma_scrub, reply_rdma_write, send_net_msg,
    send_net_msg_class, ChainLink, InboundRdmaCopy, InboundRdmaRead, InboundRdmaScrub,
    InboundRdmaWrite, NetDelivery, PersistMode, RdmaCopyDone, RdmaReadDone, RdmaScrubDone,
    RdmaStatus, RdmaWriteDone,
};
pub use wan::{SharedWanLink, WanConfig, WanLink, WanStats};
