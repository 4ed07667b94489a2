//! Durable, self-consistent volume metadata.
//!
//! The paper (§3.1): persistent memory "provides durable, self-consistent
//! metadata in order to ensure continued access to data after power loss or
//! soft failures"; (§4.1): "The metadata must be kept consistent at all
//! times in order to facilitate recovery should the system fail. The
//! metadata essentially consist of information describing allocated
//! portions of persistent memory (e.g., owner, access rights, physical
//! location in PM, etc)."
//!
//! Self-consistency is achieved with a classic two-slot shadow scheme: the
//! first [`META_BYTES`] of every NPMU hold two [`SLOT_BYTES`] slots. An
//! update serializes the whole table with a monotonically increasing epoch
//! and a CRC-32, and writes it to slot `epoch % 2`. A crash can tear at
//! most the slot being written; recovery reads both slots and adopts the
//! valid one with the highest epoch. Mirroring adds a second device with
//! the same layout.

/// Bytes reserved at the base of each NPMU for metadata.
pub const META_BYTES: u64 = 64 * 1024;
/// Each of the two metadata slots.
pub const SLOT_BYTES: u64 = META_BYTES / 2;

const MAGIC: u32 = 0x504D_4D31; // "PMM1"

/// One allocated region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegionMeta {
    pub id: u64,
    pub name: String,
    /// Physical base offset within each NPMU (mirrors share the layout).
    pub base: u64,
    pub len: u64,
    /// CPU that created the region ("owner" in the paper's metadata list).
    pub owner_cpu: u32,
}

/// Mirror health of the volume — durable, so a PMM takeover (or reboot)
/// resumes failure handling where the previous primary left off.
///
/// The cycle is `Healthy → Degraded → Resilvering → Healthy`:
/// - **Degraded**: one half stopped answering. Writes complete against the
///   survivor; the PMM stops writing metadata to the dead half and probes
///   it for revival.
/// - **Resilvering**: the dead half answered a probe. The PMM copies the
///   survivor's contents back chunk by chunk while foreground writes
///   continue (they go to both halves again), then verifies the mirrors
///   before declaring the volume healthy.
///
/// `dirty_upto` bounds the device range the resilver must copy: the
/// volume's allocation high-water mark when the half failed, raised if
/// regions are created while degraded. Anything above it was never
/// allocated, so it cannot have diverged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum HealthState {
    #[default]
    Healthy,
    Degraded {
        /// The failed half (0 = primary "a", 1 = mirror "b").
        half: u8,
        /// Metadata epoch when the failure was recorded.
        since_epoch: u64,
        /// Allocation high-water mark (device offset) to resilver up to.
        dirty_upto: u64,
    },
    Resilvering {
        half: u8,
        since_epoch: u64,
        dirty_upto: u64,
        /// Completed copy passes (a pass that finds divergence re-runs).
        pass: u32,
    },
}

impl HealthState {
    /// The half currently considered failed/stale, if any.
    pub fn suspect_half(&self) -> Option<u8> {
        match self {
            HealthState::Healthy => None,
            HealthState::Degraded { half, .. } | HealthState::Resilvering { half, .. } => {
                Some(*half)
            }
        }
    }

    pub fn is_healthy(&self) -> bool {
        matches!(self, HealthState::Healthy)
    }
}

/// The full durable state of one PM volume.
///
/// When the volume is a member of a scale-out pool, `pool` carries a
/// replica of the pool-wide region table ([`pmpool::PoolMeta`]) inside
/// the member's CRC-protected slot. Every member gets a copy on each
/// namespace mutation; recovery adopts the highest-epoch replica found
/// on any member and rederives the per-member extent lists from it, so
/// a crash between member writes converges on the newest table that
/// became durable anywhere. Pre-pool images decode with `pool: None`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VolumeMeta {
    pub epoch: u64,
    pub next_region_id: u64,
    pub regions: Vec<RegionMeta>,
    pub health: HealthState,
    pub pool: Option<pmpool::PoolMeta>,
}

impl VolumeMeta {
    pub fn find(&self, name: &str) -> Option<&RegionMeta> {
        self.regions.iter().find(|r| r.name == name)
    }

    pub fn find_by_id(&self, id: u64) -> Option<&RegionMeta> {
        self.regions.iter().find(|r| r.id == id)
    }

    /// Serialize for a slot write: header(magic, epoch, len, crc) + body.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64 + self.regions.len() * 48);
        put_u64(&mut body, self.next_region_id);
        put_u32(&mut body, self.regions.len() as u32);
        for r in &self.regions {
            put_u64(&mut body, r.id);
            put_u64(&mut body, r.base);
            put_u64(&mut body, r.len);
            put_u32(&mut body, r.owner_cpu);
            let name = r.name.as_bytes();
            put_u32(&mut body, name.len() as u32);
            body.extend_from_slice(name);
        }
        // Health trailer (appended after the region list so images written
        // before mirror-failure tracking still decode — see `decode`).
        match self.health {
            HealthState::Healthy => body.push(0),
            HealthState::Degraded {
                half,
                since_epoch,
                dirty_upto,
            } => {
                body.push(1);
                body.push(half);
                put_u64(&mut body, since_epoch);
                put_u64(&mut body, dirty_upto);
            }
            HealthState::Resilvering {
                half,
                since_epoch,
                dirty_upto,
                pass,
            } => {
                body.push(2);
                body.push(half);
                put_u64(&mut body, since_epoch);
                put_u64(&mut body, dirty_upto);
                put_u32(&mut body, pass);
            }
        }
        // Pool trailer (tag 3): the pool-wide region table replica. Also
        // optional, so single-volume images stay decodable either way.
        if let Some(pool) = &self.pool {
            let pb = pool.to_bytes();
            body.push(3);
            put_u32(&mut body, pb.len() as u32);
            body.extend_from_slice(&pb);
        }
        let mut out = Vec::with_capacity(body.len() + 20);
        put_u32(&mut out, MAGIC);
        put_u64(&mut out, self.epoch);
        put_u32(&mut out, body.len() as u32);
        // The CRC covers the epoch as well as the body, so no header
        // field that recovery decisions depend on is unprotected.
        let mut guarded = Vec::with_capacity(8 + body.len());
        guarded.extend_from_slice(&self.epoch.to_le_bytes());
        guarded.extend_from_slice(&body);
        put_u32(&mut out, crc32(&guarded));
        out.extend_from_slice(&body);
        assert!(
            out.len() as u64 <= SLOT_BYTES,
            "metadata exceeds slot size ({} regions)",
            self.regions.len()
        );
        out
    }

    /// Try to decode a slot image; `None` if torn/invalid.
    pub fn decode(buf: &[u8]) -> Option<VolumeMeta> {
        let mut c = Cursor { buf, pos: 0 };
        if c.u32()? != MAGIC {
            return None;
        }
        let epoch = c.u64()?;
        let len = c.u32()? as usize;
        let crc = c.u32()?;
        let body = c.slice(len)?;
        let mut guarded = Vec::with_capacity(8 + body.len());
        guarded.extend_from_slice(&epoch.to_le_bytes());
        guarded.extend_from_slice(body);
        if crc32(&guarded) != crc {
            return None;
        }
        let mut c = Cursor { buf: body, pos: 0 };
        let next_region_id = c.u64()?;
        // A region is at least id, base, len, owner and name length.
        let n = c.count(32)?;
        let mut regions = Vec::with_capacity(n);
        for _ in 0..n {
            let id = c.u64()?;
            let base = c.u64()?;
            let len = c.u64()?;
            let owner_cpu = c.u32()?;
            let name_len = c.u32()? as usize;
            let name = String::from_utf8(c.slice(name_len)?.to_vec()).ok()?;
            regions.push(RegionMeta {
                id,
                name,
                base,
                len,
                owner_cpu,
            });
        }
        // Pre-health images end here; treat a missing trailer as Healthy.
        let health = match c.u8() {
            None | Some(0) => HealthState::Healthy,
            Some(1) => HealthState::Degraded {
                half: c.u8()?,
                since_epoch: c.u64()?,
                dirty_upto: c.u64()?,
            },
            Some(2) => HealthState::Resilvering {
                half: c.u8()?,
                since_epoch: c.u64()?,
                dirty_upto: c.u64()?,
                pass: c.u32()?,
            },
            Some(_) => return None,
        };
        let pool = match c.u8() {
            None => None,
            Some(3) => {
                let n = c.u32()? as usize;
                Some(pmpool::PoolMeta::from_bytes(c.slice(n)?)?)
            }
            Some(_) => return None,
        };
        Some(VolumeMeta {
            epoch,
            next_region_id,
            regions,
            health,
            pool,
        })
    }
}

/// Reads/writes the two-slot scheme against raw device bytes.
pub struct MetaStore;

impl MetaStore {
    /// Which slot the *next* write (at `epoch`) goes to.
    pub fn slot_for_epoch(epoch: u64) -> u64 {
        (epoch % 2) * SLOT_BYTES
    }

    /// Recover the newest valid metadata from a device image's first
    /// [`META_BYTES`]. Returns a default (empty, epoch 0) for a blank
    /// device — creating a volume on a fresh NPMU needs no format step.
    pub fn recover(read_slot: impl Fn(u64, usize) -> Vec<u8>) -> VolumeMeta {
        let a = VolumeMeta::decode(&read_slot(0, SLOT_BYTES as usize));
        let b = VolumeMeta::decode(&read_slot(SLOT_BYTES, SLOT_BYTES as usize));
        match (a, b) {
            (Some(x), Some(y)) => {
                if x.epoch >= y.epoch {
                    x
                } else {
                    y
                }
            }
            (Some(x), None) => x,
            (None, Some(y)) => y,
            (None, None) => VolumeMeta::default(),
        }
    }
}

fn put_u32(v: &mut Vec<u8>, x: u32) {
    v.extend_from_slice(&x.to_le_bytes());
}
fn put_u64(v: &mut Vec<u8>, x: u64) {
    v.extend_from_slice(&x.to_le_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn slice(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        self.slice(1).map(|s| s[0])
    }
    fn u32(&mut self) -> Option<u32> {
        self.slice(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }
    fn u64(&mut self) -> Option<u64> {
        self.slice(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }
    /// A u32 item count, refused when that many items of at least
    /// `min_item` bytes each cannot fit in what is left: a hostile count
    /// never sizes an allocation.
    fn count(&mut self, min_item: usize) -> Option<usize> {
        let n = self.u32()? as usize;
        (n.checked_mul(min_item)? <= self.buf.len() - self.pos).then_some(n)
    }
}

/// CRC-32 (IEEE 802.3). Shared tree-wide in [`simcore::checksum`]; this
/// re-export keeps the long-standing `pmm::meta::crc32` path working.
pub use simcore::checksum::crc32;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> VolumeMeta {
        VolumeMeta {
            epoch: 7,
            next_region_id: 3,
            regions: vec![
                RegionMeta {
                    id: 1,
                    name: "adp0.audit".into(),
                    base: META_BYTES,
                    len: 1 << 20,
                    owner_cpu: 0,
                },
                RegionMeta {
                    id: 2,
                    name: "tcb".into(),
                    base: META_BYTES + (1 << 20),
                    len: 4096,
                    owner_cpu: 3,
                },
            ],
            health: HealthState::Healthy,
            pool: None,
        }
    }

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let m = sample();
        let buf = m.encode();
        let back = VolumeMeta::decode(&buf).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn decode_rejects_corruption_anywhere() {
        let m = sample();
        let buf = m.encode();
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            // The CRC covers epoch and body; the only survivable flips are
            // in the magic/len fields that change nothing decodable — and
            // those fail magic or bounds checks. Nothing may decode.
            assert!(
                VolumeMeta::decode(&bad).is_none(),
                "byte {i} silently corrupted"
            );
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let buf = sample().encode();
        for cut in [0, 1, 10, buf.len() - 1] {
            assert!(VolumeMeta::decode(&buf[..cut]).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn recover_picks_highest_valid_epoch() {
        let mut img = vec![0u8; META_BYTES as usize];
        let mut m = sample();
        m.epoch = 4;
        let e4 = m.encode();
        img[MetaStore::slot_for_epoch(4) as usize..][..e4.len()].copy_from_slice(&e4);
        m.epoch = 5;
        m.regions.pop();
        let e5 = m.encode();
        img[MetaStore::slot_for_epoch(5) as usize..][..e5.len()].copy_from_slice(&e5);

        let rec = MetaStore::recover(|off, len| img[off as usize..off as usize + len].to_vec());
        assert_eq!(rec.epoch, 5);
        assert_eq!(rec.regions.len(), 1);
    }

    #[test]
    fn recover_falls_back_when_newest_is_torn() {
        let mut img = vec![0u8; META_BYTES as usize];
        let mut m = sample();
        m.epoch = 4;
        let e4 = m.encode();
        img[MetaStore::slot_for_epoch(4) as usize..][..e4.len()].copy_from_slice(&e4);
        m.epoch = 5;
        let e5 = m.encode();
        // Torn write: only half of the epoch-5 slot arrives.
        let half = e5.len() / 2;
        img[MetaStore::slot_for_epoch(5) as usize..][..half].copy_from_slice(&e5[..half]);

        let rec = MetaStore::recover(|off, len| img[off as usize..off as usize + len].to_vec());
        assert_eq!(rec.epoch, 4, "must fall back to the last good slot");
        assert_eq!(rec.regions.len(), 2);
    }

    #[test]
    fn recover_blank_device_is_empty_volume() {
        let img = vec![0u8; META_BYTES as usize];
        let rec = MetaStore::recover(|off, len| img[off as usize..off as usize + len].to_vec());
        assert_eq!(rec, VolumeMeta::default());
    }

    #[test]
    fn slots_alternate() {
        assert_eq!(MetaStore::slot_for_epoch(0), 0);
        assert_eq!(MetaStore::slot_for_epoch(1), SLOT_BYTES);
        assert_eq!(MetaStore::slot_for_epoch(2), 0);
    }

    #[test]
    fn health_states_roundtrip() {
        for health in [
            HealthState::Healthy,
            HealthState::Degraded {
                half: 1,
                since_epoch: 9,
                dirty_upto: 3 << 20,
            },
            HealthState::Resilvering {
                half: 0,
                since_epoch: 9,
                dirty_upto: 5 << 20,
                pass: 2,
            },
        ] {
            let mut m = sample();
            m.health = health;
            let back = VolumeMeta::decode(&m.encode()).unwrap();
            assert_eq!(back, m);
            assert_eq!(back.health.suspect_half(), health.suspect_half());
        }
    }

    #[test]
    fn decode_pre_health_image_defaults_to_healthy() {
        // An image serialized before the health trailer existed: rebuild
        // one by encoding and stripping the trailer, then fixing up the
        // length and CRC the way the old writer would have produced them.
        let m = sample();
        let full = m.encode();
        let body_len = u32::from_le_bytes(full[12..16].try_into().unwrap()) as usize;
        let old_body = &full[20..20 + body_len - 1]; // drop the 1-byte Healthy tag
        let mut out = Vec::new();
        out.extend_from_slice(&full[..8]); // magic + first half of epoch
        out.extend_from_slice(&full[8..12]); // rest of epoch
        out.extend_from_slice(&(old_body.len() as u32).to_le_bytes());
        let mut guarded = Vec::new();
        guarded.extend_from_slice(&m.epoch.to_le_bytes());
        guarded.extend_from_slice(old_body);
        out.extend_from_slice(&crc32(&guarded).to_le_bytes());
        out.extend_from_slice(old_body);
        let back = VolumeMeta::decode(&out).unwrap();
        assert_eq!(back.health, HealthState::Healthy);
        assert_eq!(back.regions, m.regions);
    }

    #[test]
    fn pool_trailer_roundtrips_and_is_crc_protected() {
        use pmpool::{PoolMeta, PoolRegionMeta, StripeMap};
        let mut m = sample();
        m.pool = Some(PoolMeta {
            epoch: 11,
            next_region_id: 3,
            regions: vec![PoolRegionMeta {
                id: 1,
                name: "adp0.audit".into(),
                len: 1 << 20,
                owner_cpu: 0,
                map: StripeMap::solo(0, META_BYTES, 1 << 20),
            }],
        });
        let buf = m.encode();
        assert_eq!(VolumeMeta::decode(&buf).unwrap(), m);
        // Any single-byte flip inside the pool trailer must fail decode
        // (the trailer rides inside the slot CRC).
        for i in 0..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            assert!(VolumeMeta::decode(&bad).is_none(), "byte {i}");
        }
    }

    #[test]
    fn find_helpers() {
        let m = sample();
        assert_eq!(m.find("tcb").unwrap().id, 2);
        assert!(m.find("nope").is_none());
        assert_eq!(m.find_by_id(1).unwrap().name, "adp0.audit");
    }
}
