//! # pmem — the paper's persistent-memory architecture, as one façade
//!
//! This crate assembles the pieces of Mehra & Fineberg's IPDPS 2004
//! persistent-memory system into the API a downstream user starts from:
//!
//! * [`install_pm_system`] — wire a mirrored NPMU pair plus its PMM
//!   process pair into a simulated node (§4.1's three deployment pieces:
//!   devices, manager, client library — the client side is
//!   `pmclient::PmLib`, re-exported here);
//! * presets ([`presets`]) — the S86000-like ODS configurations the
//!   evaluation uses, both the disk-audit baseline and the PM-enabled
//!   variant;
//! * [`integrity`] — the §1.3 duplicate-and-compare scrubber over a
//!   mirrored NPMU pair (silent-data-corruption detection);
//! * [`oracle`] — the acked-commit invariants every crash and fault test
//!   holds offline recovery to.
//!
//! Re-exports give one-stop access to the full stack.

pub mod integrity;
pub mod oracle;
pub mod presets;
pub mod system;

pub use integrity::{verify_mirrors, Discrepancy, MirrorReport};
pub use presets::{s86000_baseline, s86000_cluster, s86000_pm, s86000_pm_hardware, s86000_pm_pool};
pub use system::{install_audit_partitions, install_pm_pool, install_pm_system, PmPoolSystem};

// One-stop re-exports of the architecture's components.
pub use npmu::{AttEntry, AttTable, CpuFilter, Npmu, NpmuConfig, NpmuHandle, NpmuKind, NvImage};
pub use pmclient::{
    MirrorPolicy, PmClientConfig, PmLib, PmReadComplete, PmReadTimeout, PmWriteComplete,
    PmWriteTimeout,
};
pub use pmm::{
    install_pmm_pool, Extent, HealthState, PlacementHint, PlacementPolicy, PmmConfig, PmmHandle,
    PmmStats, RegionInfo, StripeMap, VolumeEps,
};
