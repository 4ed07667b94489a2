//! Client ↔ PMM RPC message types.
//!
//! "Regions are created by the PMM in response to 'create' messages sent
//! from the client API to the PMM process. Once regions have been created,
//! they may be opened by one or more clients." (§4.1)

use pmpool::{PlacementHint, StripeMap};
use simnet::EndpointId;

/// Errors a PMM can return.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PmError {
    AlreadyExists,
    NotFound,
    NoSpace,
    NotOpen,
    /// The request conflicts with the pool's state (a [`FencePool`] whose
    /// epoch is not newer than the pool's).
    Busy,
}

/// The mirrored NPMU endpoints of one pool member volume.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VolumeEps {
    pub volume: u32,
    /// Endpoint of the member's primary NPMU (reads go here).
    pub primary_ep: EndpointId,
    /// Endpoint of the member's mirror NPMU (writes replicate here too).
    pub mirror_ep: EndpointId,
}

/// Everything a client needs to RDMA to an open region: the stripe map
/// (logical offset → member volume + device address, identical on both
/// halves of each member) and the endpoint pair of every member the map
/// touches. The PMM stays off the data path — clients route each
/// fragment themselves.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionInfo {
    pub region_id: u64,
    pub len: u64,
    pub map: StripeMap,
    pub volumes: Vec<VolumeEps>,
}

impl RegionInfo {
    /// Base network virtual address of the first extent. For unstriped
    /// regions this is *the* region base (the pre-pool `nva_base` field).
    pub fn nva_base(&self) -> u64 {
        self.map.extents[0].base
    }

    /// Endpoints of the member volume serving `volume`.
    pub fn eps_for(&self, volume: u32) -> Option<&VolumeEps> {
        self.volumes.iter().find(|v| v.volume == volume)
    }
}

/// Create a named region of `len` bytes. Idempotent create is available
/// via `open_if_exists`: if the region already exists, behave like open.
#[derive(Clone, Debug)]
pub struct CreateRegion {
    pub name: String,
    pub len: u64,
    pub open_if_exists: bool,
    /// Where the region's bytes should land on the pool (ignored — i.e.
    /// effectively `Auto` resolved to a single extent — on 1-volume pools).
    pub placement: PlacementHint,
    /// Client-chosen token echoed in the ack (for request matching).
    pub token: u64,
}

#[derive(Clone, Debug)]
pub struct CreateRegionAck {
    pub token: u64,
    pub result: Result<RegionInfo, PmError>,
}

/// Open an existing region for the calling CPU.
#[derive(Clone, Debug)]
pub struct OpenRegion {
    pub name: String,
    pub token: u64,
}

#[derive(Clone, Debug)]
pub struct OpenRegionAck {
    pub token: u64,
    pub result: Result<RegionInfo, PmError>,
}

/// Revoke the calling CPU's mapping of a region.
#[derive(Clone, Debug)]
pub struct CloseRegion {
    pub region_id: u64,
    pub token: u64,
}

#[derive(Clone, Debug)]
pub struct CloseRegionAck {
    pub token: u64,
    pub result: Result<(), PmError>,
}

/// Delete a region (must exist; frees its space on every member).
#[derive(Clone, Debug)]
pub struct DeleteRegion {
    pub name: String,
    pub token: u64,
}

#[derive(Clone, Debug)]
pub struct DeleteRegionAck {
    pub token: u64,
    pub result: Result<(), PmError>,
}

/// Fire-and-forget client report: RDMA to one mirror half of a member
/// volume failed (NACK or timeout) while the other half answered. The
/// PMM treats this as a failure-detection hint — it confirms with its
/// own probe before transitioning that member's durable health state —
/// and, when the half named is the one being resilvered, as notice that
/// a foreground write missed it: chunks the resilver already found equal
/// are digested once more. No ack is sent; clients dedupe on the
/// suspect-state edge and the PMM also detects failures through its own
/// metadata writes.
#[derive(Clone, Copy, Debug)]
pub struct ReportMirrorFailure {
    pub region_id: u64,
    /// Which pool member the failing device belongs to.
    pub volume: u32,
    /// 0 = primary ("a"), 1 = mirror ("b").
    pub half: u8,
}

/// Epoch-fence the whole pool (disaster-recovery takeover). Sent by the
/// takeover controller once the replica site declares the primary dead:
/// the PMM bumps the pool epoch to `epoch` (rejected if not strictly
/// newer), persists it on every member's metadata, then engages each
/// NPMU's device-wide write fence — so a revived old-primary ADP, still
/// holding pre-takeover region mappings, takes `AccessViolation` on
/// every write/append instead of silently diverging the trails.
#[derive(Clone, Copy, Debug)]
pub struct FencePool {
    pub epoch: u64,
    pub token: u64,
}

#[derive(Clone, Copy, Debug)]
pub struct FencePoolAck {
    pub token: u64,
    /// `Err(Busy)` if the requested epoch is not newer than the pool's.
    pub result: Result<u64, PmError>,
}
