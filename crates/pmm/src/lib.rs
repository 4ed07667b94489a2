//! # pmm — the Persistent Memory Manager
//!
//! "To allow memory-like client access to PM, while still providing data
//! persistence, the NPMU must be managed like a storage device. Therefore,
//! our architecture uses a Persistent Memory Manager (PMM) process pair for
//! all management functions... Each PMM pair controls a mirrored pair of
//! NPMUs." (§4.1)
//!
//! The PMM owns:
//!
//! * **volumes** — mirrored NPMU pairs, analogous to disk volumes. One
//!   PMM pair now manages a *pool* of member volumes behind a single
//!   region namespace ([`install_pmm_pool`]), each member with its own
//!   durable metadata and its own Healthy → Degraded → Resilvering
//!   health machine;
//! * **regions** — the PM analog of files: named, contiguous allocations
//!   created/opened/closed/deleted by client RPC;
//! * **durable, self-consistent metadata** — the region table, serialized
//!   with an epoch + CRC into *two alternating slots* at the base of each
//!   NPMU, so that a torn metadata write can never destroy the last good
//!   copy ([`meta`]);
//! * **ATT programming** — on open, the PMM maps the region's network
//!   virtual addresses on both mirrors and restricts them to the opening
//!   CPU; on close it revokes.
//!
//! Crucially, the PMM is **not on the data path**: once a region is open,
//! clients RDMA straight to the NPMUs. The pair exists so management
//! survives process/CPU failure — and because ATT state lives in the
//! device NICs, *in-flight client I/O keeps working while the PMM fails
//! over* (the device-manager/device separation §4 credits ServerNet for).

pub mod alloc;
pub mod bulk;
pub mod manager;
pub mod meta;
pub mod msgs;

pub use manager::{install_pmm_pool, PmmConfig, PmmHandle, PmmStats, SharedPmmStats};
pub use meta::{HealthState, MetaStore, RegionMeta, VolumeMeta, META_BYTES};
pub use msgs::*;
// Pool shapes clients and harnesses need to route I/O and place regions.
pub use pmpool::{Extent, Frag, PlacementHint, PlacementPolicy, PoolMeta, StripeMap};
