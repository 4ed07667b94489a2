//! # pmclient — the client access library for network persistent memory
//!
//! The paper's final architecture component (§4.1): "Clients access PM
//! volumes... Once regions have been created, they may be opened by one or
//! more clients... the client API performs ServerNet RDMA read or write
//! operations directly to the NPMU device... To preserve data integrity
//! the API writes data to both the primary and mirror NPMUs; reads need
//! not be replicated. API operations are typically synchronous... when the
//! call returns the data is either persistent or the call will return in
//! error."
//!
//! In the event-driven simulation, "synchronous" means the owning process
//! actor parks its state machine until the completion arrives. [`PmLib`]
//! is the embeddable library: it issues PMM RPCs and mirrored RDMA, tracks
//! outstanding operations, and folds the per-mirror completions into one
//! client-visible completion with the combined status.

pub mod lib_impl;

pub use lib_impl::{
    MirrorPolicy, PmClientConfig, PmLib, PmReadComplete, PmReadTimeout, PmWriteComplete,
    PmWriteTimeout, ReadRouting,
};
pub use simnet::PersistMode;

#[cfg(test)]
mod tests;
