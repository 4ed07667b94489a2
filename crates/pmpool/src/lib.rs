//! # pmpool — the scale-out PM pool namespace
//!
//! The paper's scalability claim (§1, §5) is that *any number* of NPMUs
//! hang off the ServerNet fabric and clients reach them all directly via
//! RDMA. This crate holds the data model that turns "one mirrored NPMU
//! pair" into "N mirrored pairs behind one region namespace":
//!
//! * [`StripeMap`] — how a region's logical bytes spread over member
//!   volumes: a single extent for small regions, chunked striping for
//!   large ones. The map is delivered to clients in the open ack and
//!   drives client-side routing, keeping the PMM off the data path.
//! * [`PoolMeta`] / [`PoolRegionMeta`] — the pool-wide region table,
//!   replicated durably into every member volume's two-slot shadow
//!   metadata (highest epoch replica wins at recovery).
//! * [`PlacementPolicy`] / [`PlacementHint`] — where a new region's
//!   bytes land: capacity-balanced for small regions, striped across the
//!   members for large ones.
//!
//! The crate is deliberately dependency-free: the PMM (`pmm`), client
//! library (`pmclient`) and benches all share these types without
//! dragging the simulator in.

/// One contiguous piece of a region on one member volume.
///
/// `base` is the device offset on *both* halves of that member's
/// mirrored NPMU pair (mirrors share the layout), and doubles as the
/// network virtual address of the extent (regions are identity-mapped).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Extent {
    /// Member volume index within the pool.
    pub volume: u32,
    /// Device offset / network virtual address of the extent base.
    pub base: u64,
    /// Extent length in bytes.
    pub len: u64,
}

/// One fragment of a logical `[off, off+len)` range after routing
/// through a [`StripeMap`]: `len` bytes live at `dev_off` on `volume`,
/// and correspond to `buf_off..buf_off+len` of the caller's buffer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frag {
    pub volume: u32,
    /// Index of the extent serving this fragment.
    pub slot: usize,
    pub dev_off: u64,
    pub len: u32,
    pub buf_off: usize,
}

/// How a region's logical address space maps onto member volumes.
///
/// `stripe_unit == 0` (or a single extent) means the region is one
/// contiguous extent. Otherwise logical chunk `c = off / stripe_unit`
/// lives on extent `c % extents.len()`, at chunk index `c / n` within
/// that extent — classic RAID-0 chunking across mirrored members.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct StripeMap {
    pub stripe_unit: u64,
    pub extents: Vec<Extent>,
}

impl StripeMap {
    /// A single-extent map (small / unstriped regions).
    pub fn solo(volume: u32, base: u64, len: u64) -> StripeMap {
        StripeMap {
            stripe_unit: 0,
            extents: vec![Extent { volume, base, len }],
        }
    }

    /// Striped map: chunk `i` of `unit` bytes on `extents[i % n]`.
    /// `extents[s].len` must equal [`stripe_extent_lens`]`(len, unit, n)[s]`.
    pub fn striped(unit: u64, extents: Vec<Extent>) -> StripeMap {
        assert!(
            unit > 0 && extents.len() > 1,
            "striping needs unit + >1 extents"
        );
        StripeMap {
            stripe_unit: unit,
            extents,
        }
    }

    pub fn is_striped(&self) -> bool {
        self.stripe_unit > 0 && self.extents.len() > 1
    }

    /// Total mapped bytes.
    pub fn total_len(&self) -> u64 {
        self.extents.iter().map(|e| e.len).sum()
    }

    /// Member volumes serving this map, in slot order.
    pub fn volumes(&self) -> Vec<u32> {
        self.extents.iter().map(|e| e.volume).collect()
    }

    /// Resolve one logical offset to `(volume, device offset)`.
    pub fn locate(&self, off: u64) -> (u32, u64) {
        if !self.is_striped() {
            let e = &self.extents[0];
            return (e.volume, e.base + off);
        }
        let n = self.extents.len() as u64;
        let u = self.stripe_unit;
        let chunk = off / u;
        let e = &self.extents[(chunk % n) as usize];
        (e.volume, e.base + (chunk / n) * u + off % u)
    }

    /// Split a logical `[off, off+len)` range into per-extent fragments,
    /// in logical order. Each fragment stays inside one stripe chunk, so
    /// it is contiguous on its device.
    pub fn split(&self, off: u64, len: u64) -> Vec<Frag> {
        let mut frags = Vec::new();
        self.split_into(off, len, &mut frags);
        frags
    }

    /// As [`Self::split`], appending the fragments to `frags` — a hot
    /// caller passes one buffer it clears and reuses across writes.
    pub fn split_into(&self, off: u64, len: u64, frags: &mut Vec<Frag>) {
        assert!(off + len <= self.total_len(), "range beyond region");
        if len == 0 {
            return;
        }
        if !self.is_striped() {
            let e = &self.extents[0];
            frags.push(Frag {
                volume: e.volume,
                slot: 0,
                dev_off: e.base + off,
                len: len as u32,
                buf_off: 0,
            });
            return;
        }
        let n = self.extents.len() as u64;
        let u = self.stripe_unit;
        let mut cur = off;
        let end = off + len;
        while cur < end {
            let chunk = cur / u;
            let chunk_end = (chunk + 1) * u;
            let take = chunk_end.min(end) - cur;
            let slot = (chunk % n) as usize;
            let e = &self.extents[slot];
            frags.push(Frag {
                volume: e.volume,
                slot,
                dev_off: e.base + (chunk / n) * u + cur % u,
                len: take as u32,
                buf_off: (cur - off) as usize,
            });
            cur += take;
        }
    }
}

/// Per-slot extent lengths for striping `len` bytes in `unit` chunks
/// over `n` slots: slot `s` holds chunks `s, s+n, s+2n, …`.
pub fn stripe_extent_lens(len: u64, unit: u64, n: usize) -> Vec<u64> {
    assert!(unit > 0 && n > 0);
    let mut lens = vec![0u64; n];
    let chunks = len.div_ceil(unit);
    for c in 0..chunks {
        let sz = unit.min(len - c * unit);
        lens[(c % n as u64) as usize] += sz;
    }
    lens
}

// ---------------------------------------------------------------------
// Durable pool metadata
// ---------------------------------------------------------------------

/// One region in the pool namespace: name, logical length, owner, and
/// the stripe map placing its bytes on member volumes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoolRegionMeta {
    pub id: u64,
    pub name: String,
    pub len: u64,
    pub owner_cpu: u32,
    pub map: StripeMap,
}

/// The pool-wide region table. Replicated into every member volume's
/// shadow metadata; recovery adopts the highest-epoch replica, so a
/// crash between member writes converges on the newest table that
/// became durable anywhere.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolMeta {
    pub epoch: u64,
    pub next_region_id: u64,
    pub regions: Vec<PoolRegionMeta>,
}

impl PoolMeta {
    pub fn find(&self, name: &str) -> Option<&PoolRegionMeta> {
        self.regions.iter().find(|r| r.name == name)
    }

    pub fn find_by_id(&self, id: u64) -> Option<&PoolRegionMeta> {
        self.regions.iter().find(|r| r.id == id)
    }

    /// Serialize (no framing/CRC of its own: the bytes ride inside the
    /// member metadata slot, which is CRC-protected as a whole).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut b = Vec::with_capacity(64 + self.regions.len() * 64);
        put_u64(&mut b, self.epoch);
        put_u64(&mut b, self.next_region_id);
        put_u32(&mut b, self.regions.len() as u32);
        for r in &self.regions {
            put_u64(&mut b, r.id);
            put_u64(&mut b, r.len);
            put_u32(&mut b, r.owner_cpu);
            let name = r.name.as_bytes();
            put_u32(&mut b, name.len() as u32);
            b.extend_from_slice(name);
            put_u64(&mut b, r.map.stripe_unit);
            put_u32(&mut b, r.map.extents.len() as u32);
            for e in &r.map.extents {
                put_u32(&mut b, e.volume);
                put_u64(&mut b, e.base);
                put_u64(&mut b, e.len);
            }
        }
        b
    }

    /// Decode bytes produced by [`Self::to_bytes`]; `None` on any
    /// structural inconsistency.
    pub fn from_bytes(buf: &[u8]) -> Option<PoolMeta> {
        let mut c = Cursor { buf, pos: 0 };
        let epoch = c.u64()?;
        let next_region_id = c.u64()?;
        // A region is at least id, len, owner, name length, stripe unit
        // and extent count; an extent is volume, base and len.
        let n = c.count(36)?;
        let mut regions = Vec::with_capacity(n);
        for _ in 0..n {
            let id = c.u64()?;
            let len = c.u64()?;
            let owner_cpu = c.u32()?;
            let name_len = c.u32()? as usize;
            let name = String::from_utf8(c.slice(name_len)?.to_vec()).ok()?;
            let stripe_unit = c.u64()?;
            let ne = c.count(20)?;
            let mut extents = Vec::with_capacity(ne);
            for _ in 0..ne {
                extents.push(Extent {
                    volume: c.u32()?,
                    base: c.u64()?,
                    len: c.u64()?,
                });
            }
            if extents.is_empty() {
                return None;
            }
            regions.push(PoolRegionMeta {
                id,
                name,
                len,
                owner_cpu,
                map: StripeMap {
                    stripe_unit,
                    extents,
                },
            });
        }
        if c.pos != buf.len() {
            return None;
        }
        Some(PoolMeta {
            epoch,
            next_region_id,
            regions,
        })
    }
}

// ---------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------

/// Client request for where a new region's bytes should land.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PlacementHint {
    /// Let the pool's [`PlacementPolicy`] decide (the normal case).
    #[default]
    Auto,
    /// Pin the region to one member volume.
    OnVolume(u32),
    /// Stripe across all members with the given chunk size (0 = the
    /// policy's default unit).
    Striped { unit: u64 },
    /// Force a single extent (capacity-balanced), regardless of size.
    Solo,
}

/// The pool's shape decision for a new region (volume selection for the
/// balanced case happens in the PMM, which knows per-member free space).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// One extent on the member with the most free space.
    Balanced,
    /// One extent on the named member.
    OnVolume(u32),
    /// Chunked stripe across all members.
    Striped { unit: u64 },
}

/// Placement policy: small regions go whole onto the emptiest member
/// (capacity balancing); regions at or above `stripe_threshold` are
/// striped in `stripe_unit` chunks across every member so their
/// bandwidth scales with the pool.
#[derive(Clone, Copy, Debug)]
pub struct PlacementPolicy {
    pub stripe_threshold: u64,
    pub stripe_unit: u64,
}

impl Default for PlacementPolicy {
    fn default() -> Self {
        PlacementPolicy {
            stripe_threshold: 1 << 20,
            stripe_unit: 64 << 10,
        }
    }
}

impl PlacementPolicy {
    /// Resolve a hint into a concrete placement for a `len`-byte region
    /// on an `n_volumes`-member pool.
    pub fn decide(&self, hint: PlacementHint, len: u64, n_volumes: usize) -> Placement {
        match hint {
            PlacementHint::OnVolume(v) => Placement::OnVolume(v),
            PlacementHint::Solo => Placement::Balanced,
            PlacementHint::Striped { unit } => {
                if n_volumes > 1 {
                    Placement::Striped {
                        unit: if unit == 0 { self.stripe_unit } else { unit },
                    }
                } else {
                    Placement::Balanced
                }
            }
            PlacementHint::Auto => {
                if n_volumes > 1 && len >= self.stripe_threshold {
                    Placement::Striped {
                        unit: self.stripe_unit,
                    }
                } else {
                    Placement::Balanced
                }
            }
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

#[cfg(test)]
mod tests {
    use super::*;

    fn striped_map(len: u64, unit: u64, n: usize) -> StripeMap {
        let lens = stripe_extent_lens(len, unit, n);
        let extents = lens
            .iter()
            .enumerate()
            .map(|(v, &l)| Extent {
                volume: v as u32,
                base: 0x10000 * (v as u64 + 1),
                len: l,
            })
            .collect();
        StripeMap::striped(unit, extents)
    }

    #[test]
    fn solo_map_routes_identity() {
        let m = StripeMap::solo(2, 0x4000, 4096);
        assert!(!m.is_striped());
        assert_eq!(m.locate(0), (2, 0x4000));
        assert_eq!(m.locate(100), (2, 0x4000 + 100));
        let frags = m.split(16, 64);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].volume, 2);
        assert_eq!(frags[0].dev_off, 0x4010);
        assert_eq!(frags[0].len, 64);
        assert_eq!(frags[0].buf_off, 0);
    }

    #[test]
    fn stripe_extent_lens_cover_region() {
        // 10 chunks of 4K over 4 slots: 3,3,2,2 chunks.
        let lens = stripe_extent_lens(40 << 10, 4 << 10, 4);
        assert_eq!(lens, vec![12 << 10, 12 << 10, 8 << 10, 8 << 10]);
        // Partial final chunk lands on slot (chunks-1) % n.
        let lens = stripe_extent_lens(10_000, 4096, 3);
        assert_eq!(lens.iter().sum::<u64>(), 10_000);
        assert_eq!(lens[2], 10_000 - 2 * 4096);
    }

    #[test]
    fn striped_locate_round_robins_chunks() {
        let m = striped_map(64 << 10, 4 << 10, 4);
        // Chunk 0 → slot 0, chunk 1 → slot 1, chunk 4 → slot 0 chunk-idx 1.
        assert_eq!(m.locate(0).0, 0);
        assert_eq!(m.locate(4 << 10).0, 1);
        assert_eq!(m.locate(15 << 10).0, 3);
        let (v, d) = m.locate(16 << 10);
        assert_eq!(v, 0);
        assert_eq!(d, 0x10000 + (4 << 10));
        // Offset within a chunk is preserved.
        let (v, d) = m.locate((4 << 10) + 17);
        assert_eq!(v, 1);
        assert_eq!(d, 0x20000 + 17);
    }

    #[test]
    fn split_walks_chunk_boundaries() {
        let m = striped_map(64 << 10, 4 << 10, 2);
        // 10K starting 1K before a chunk boundary: 1K + 4K + 4K + 1K.
        let frags = m.split((4 << 10) - 1024, 10 << 10);
        assert_eq!(frags.len(), 4);
        assert_eq!(frags[0].len, 1024);
        assert_eq!(frags[0].volume, 0);
        assert_eq!(frags[1].len, 4 << 10);
        assert_eq!(frags[1].volume, 1);
        assert_eq!(frags[2].len, 4 << 10);
        assert_eq!(frags[2].volume, 0);
        assert_eq!(frags[3].len, 1024);
        assert_eq!(frags[3].volume, 1);
        // Buffer offsets are cumulative and cover the range.
        assert_eq!(frags[0].buf_off, 0);
        assert_eq!(frags[1].buf_off, 1024);
        assert_eq!(frags[2].buf_off, 1024 + (4 << 10));
        assert_eq!(frags[3].buf_off, 1024 + (8 << 10));
        let total: u64 = frags.iter().map(|f| f.len as u64).sum();
        assert_eq!(total, 10 << 10);
    }

    #[test]
    fn split_agrees_with_locate_everywhere() {
        let m = striped_map(40 << 10, 4 << 10, 3);
        for off in [0u64, 1, 4095, 4096, 8191, 20_000, (40 << 10) - 1] {
            let (v, d) = m.locate(off);
            let f = &m.split(off, 1)[0];
            assert_eq!((f.volume, f.dev_off), (v, d), "off={off}");
        }
        // A full-region split covers every byte exactly once.
        let frags = m.split(0, 40 << 10);
        let mut cursor = 0usize;
        for f in &frags {
            assert_eq!(f.buf_off, cursor);
            cursor += f.len as usize;
        }
        assert_eq!(cursor, 40 << 10);
    }

    #[test]
    fn split_into_appends_what_split_returns() {
        let m = striped_map(40 << 10, 4 << 10, 3);
        let mut buf = m.split(0, 100);
        let head = buf.clone();
        m.split_into(4000, 9000, &mut buf);
        assert_eq!(buf[..head.len()], head[..]);
        assert_eq!(buf[head.len()..], m.split(4000, 9000)[..]);
        m.split_into(7, 0, &mut buf);
        assert_eq!(buf.len(), head.len() + m.split(4000, 9000).len());
    }

    #[test]
    fn pool_meta_roundtrip() {
        let m = PoolMeta {
            epoch: 9,
            next_region_id: 4,
            regions: vec![
                PoolRegionMeta {
                    id: 1,
                    name: "audit0".into(),
                    len: 8 << 20,
                    owner_cpu: 2,
                    map: striped_map(8 << 20, 64 << 10, 4),
                },
                PoolRegionMeta {
                    id: 3,
                    name: "tcb".into(),
                    len: 4096,
                    owner_cpu: 0,
                    map: StripeMap::solo(1, 0x8000, 4096),
                },
            ],
        };
        let b = m.to_bytes();
        assert_eq!(PoolMeta::from_bytes(&b).unwrap(), m);
        assert_eq!(m.find("tcb").unwrap().id, 3);
        assert_eq!(m.find_by_id(1).unwrap().name, "audit0");
    }

    #[test]
    fn pool_meta_rejects_truncation_and_trailing_junk() {
        let m = PoolMeta {
            epoch: 1,
            next_region_id: 2,
            regions: vec![PoolRegionMeta {
                id: 1,
                name: "r".into(),
                len: 64,
                owner_cpu: 0,
                map: StripeMap::solo(0, 0, 64),
            }],
        };
        let b = m.to_bytes();
        for cut in [0, 1, b.len() / 2, b.len() - 1] {
            assert!(PoolMeta::from_bytes(&b[..cut]).is_none(), "cut={cut}");
        }
        let mut padded = b.clone();
        padded.push(0);
        assert!(PoolMeta::from_bytes(&padded).is_none());
    }

    #[test]
    fn placement_policy_decides_by_size_and_hint() {
        let p = PlacementPolicy::default();
        assert_eq!(p.decide(PlacementHint::Auto, 4096, 4), Placement::Balanced);
        assert_eq!(
            p.decide(PlacementHint::Auto, 8 << 20, 4),
            Placement::Striped { unit: 64 << 10 }
        );
        // A 1-volume pool never stripes.
        assert_eq!(
            p.decide(PlacementHint::Auto, 8 << 20, 1),
            Placement::Balanced
        );
        assert_eq!(
            p.decide(PlacementHint::Striped { unit: 0 }, 4096, 2),
            Placement::Striped { unit: 64 << 10 }
        );
        assert_eq!(
            p.decide(PlacementHint::Striped { unit: 8192 }, 4096, 2),
            Placement::Striped { unit: 8192 }
        );
        assert_eq!(
            p.decide(PlacementHint::OnVolume(3), 8 << 20, 4),
            Placement::OnVolume(3)
        );
        assert_eq!(
            p.decide(PlacementHint::Solo, 8 << 20, 4),
            Placement::Balanced
        );
    }
}
