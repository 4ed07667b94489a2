//! A persistent lock table: fixed-grain, in-place durable lock records.
//!
//! §3.4: "being able to update indices, lock tables and transaction
//! control blocks at a fine grain reduces uncertainty regarding the state
//! of the database" — after a failure, recovery reads the lock table
//! straight out of PM instead of inferring lock state from an audit scan.
//!
//! Layout: a slot array hashed by lock key (open addressing, linear
//! probing). Each 32-byte slot: `key u64 | holder u64 | mode u32 |
//! state u32 | crc u32 | pad`. Every mutation is one slot-sized write; a
//! torn slot fails its CRC and is treated as free (the lock is simply not
//! held — safe, because a crashed holder's transaction will be undone by
//! recovery anyway).

use crate::medium::{le_u32, le_u64, PmMedium};
use crate::redo::crc32;

const SLOT: u64 = 32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PmLockMode {
    Shared,
    Exclusive,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PmLockRecord {
    pub key: u64,
    pub holder: u64,
    pub mode: PmLockMode,
}

/// The persistent lock table handle.
pub struct PmLockTable {
    base: u64,
    slots: u64,
}

impl PmLockTable {
    pub fn required_len(slots: u64) -> u64 {
        slots * SLOT
    }

    /// Format (zero) a table of `slots` entries at `base`.
    pub fn format<M: PmMedium>(medium: &mut M, base: u64, slots: u64) -> PmLockTable {
        assert!(slots >= 4);
        medium.write(base, &vec![0u8; (slots * SLOT) as usize]);
        PmLockTable { base, slots }
    }

    /// Re-open after a crash; torn slots read as free.
    pub fn open(base: u64, slots: u64) -> PmLockTable {
        PmLockTable { base, slots }
    }

    fn slot_bytes(rec: &PmLockRecord) -> [u8; SLOT as usize] {
        let mut b = [0u8; SLOT as usize];
        b[..8].copy_from_slice(&rec.key.to_le_bytes());
        b[8..16].copy_from_slice(&rec.holder.to_le_bytes());
        let mode = match rec.mode {
            PmLockMode::Shared => 1u32,
            PmLockMode::Exclusive => 2,
        };
        b[16..20].copy_from_slice(&mode.to_le_bytes());
        b[20..24].copy_from_slice(&1u32.to_le_bytes()); // state: held
        let crc = crc32(&b[..24]);
        b[24..28].copy_from_slice(&crc.to_le_bytes());
        b
    }

    fn read_slot<M: PmMedium>(&self, medium: &M, idx: u64) -> Option<PmLockRecord> {
        let off = self.base + idx * SLOT;
        if off + SLOT > medium.len() {
            return None; // table extends past a (truncated) region image
        }
        let raw = medium.read(off, SLOT as usize);
        let state = le_u32(&raw, 20)?;
        if state != 1 {
            return None;
        }
        let crc = le_u32(&raw, 24)?;
        if crc32(raw.get(..24)?) != crc {
            return None; // torn: treated as free
        }
        let mode = match le_u32(&raw, 16)? {
            1 => PmLockMode::Shared,
            2 => PmLockMode::Exclusive,
            _ => return None,
        };
        Some(PmLockRecord {
            key: le_u64(&raw, 0)?,
            holder: le_u64(&raw, 8)?,
            mode,
        })
    }

    fn probe_seq(&self, key: u64) -> impl Iterator<Item = u64> + '_ {
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.slots;
        (0..self.slots).map(move |i| (h + i) % self.slots)
    }

    /// Durably record a lock grant. Returns false if the table is full or
    /// an incompatible holder exists (the volatile lock manager is the
    /// arbiter; this is the durable shadow, so conflicts indicate a bug —
    /// surfaced rather than panicking so tests can probe it).
    pub fn record_grant<M: PmMedium>(
        &self,
        medium: &mut M,
        key: u64,
        holder: u64,
        mode: PmLockMode,
    ) -> bool {
        let mut free_slot = None;
        for idx in self.probe_seq(key) {
            match self.read_slot(medium, idx) {
                Some(r) if r.key == key => {
                    if r.holder == holder {
                        // Re-grant/upgrade in place.
                        let rec = PmLockRecord { key, holder, mode };
                        medium.write(self.base + idx * SLOT, &Self::slot_bytes(&rec));
                        return true;
                    }
                    if r.mode == PmLockMode::Exclusive || mode == PmLockMode::Exclusive {
                        return false;
                    }
                    // Shared with a different holder: keep probing for a
                    // free slot to record this additional sharer.
                }
                Some(_) => {}
                None => {
                    if free_slot.is_none() {
                        free_slot = Some(idx);
                    }
                    // An empty slot ends the probe chain for lookups, but
                    // sharers may live beyond deleted slots; we keep this
                    // simple: first free slot terminates the search.
                    break;
                }
            }
        }
        let Some(idx) = free_slot else { return false };
        let rec = PmLockRecord { key, holder, mode };
        medium.write(self.base + idx * SLOT, &Self::slot_bytes(&rec));
        true
    }

    /// Durably release every lock `holder` holds. Returns released count.
    pub fn release_holder<M: PmMedium>(&self, medium: &mut M, holder: u64) -> usize {
        let mut n = 0;
        for idx in 0..self.slots {
            if let Some(r) = self.read_slot(medium, idx) {
                if r.holder == holder {
                    medium.write(self.base + idx * SLOT, &[0u8; SLOT as usize]);
                    n += 1;
                }
            }
        }
        n
    }

    /// Who holds `key`, if anyone (first matching slot).
    pub fn holders_of<M: PmMedium>(&self, medium: &M, key: u64) -> Vec<PmLockRecord> {
        let mut out = Vec::new();
        for idx in self.probe_seq(key) {
            match self.read_slot(medium, idx) {
                Some(r) if r.key == key => out.push(r),
                Some(_) => continue,
                None => break,
            }
        }
        out
    }

    /// All held locks (recovery's view).
    pub fn all<M: PmMedium>(&self, medium: &M) -> Vec<PmLockRecord> {
        (0..self.slots)
            .filter_map(|i| self.read_slot(medium, i))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::{TornWriter, VecMedium};

    fn fresh(slots: u64) -> (VecMedium, PmLockTable) {
        let mut m = VecMedium::new(PmLockTable::required_len(slots) + 64);
        let t = PmLockTable::format(&mut m, 0, slots);
        (m, t)
    }

    #[test]
    fn grant_lookup_release() {
        let (mut m, t) = fresh(64);
        assert!(t.record_grant(&mut m, 42, 7, PmLockMode::Exclusive));
        let h = t.holders_of(&m, 42);
        assert_eq!(h.len(), 1);
        assert_eq!(h[0].holder, 7);
        assert_eq!(t.release_holder(&mut m, 7), 1);
        assert!(t.holders_of(&m, 42).is_empty());
    }

    #[test]
    fn exclusive_conflict_detected() {
        let (mut m, t) = fresh(64);
        assert!(t.record_grant(&mut m, 1, 10, PmLockMode::Exclusive));
        assert!(!t.record_grant(&mut m, 1, 11, PmLockMode::Exclusive));
        assert!(!t.record_grant(&mut m, 1, 11, PmLockMode::Shared));
    }

    #[test]
    fn upgrade_in_place() {
        let (mut m, t) = fresh(64);
        assert!(t.record_grant(&mut m, 5, 9, PmLockMode::Shared));
        assert!(t.record_grant(&mut m, 5, 9, PmLockMode::Exclusive));
        assert_eq!(t.holders_of(&m, 5)[0].mode, PmLockMode::Exclusive);
    }

    #[test]
    fn survives_reopen() {
        let (mut m, t) = fresh(64);
        t.record_grant(&mut m, 100, 3, PmLockMode::Exclusive);
        let _ = t;
        let t2 = PmLockTable::open(0, 64);
        assert_eq!(t2.all(&m).len(), 1);
        assert_eq!(t2.holders_of(&m, 100)[0].holder, 3);
    }

    #[test]
    fn torn_grant_reads_as_free() {
        let (m, t) = fresh(64);
        let mut torn = TornWriter::new(m);
        torn.crash_after(10); // tear the slot write
        t.record_grant(&mut torn, 77, 1, PmLockMode::Exclusive);
        assert!(torn.crashed);
        let m = torn.into_inner();
        let t2 = PmLockTable::open(0, 64);
        assert!(t2.holders_of(&m, 77).is_empty(), "torn slot must be free");
        assert!(t2.all(&m).is_empty());
    }

    #[test]
    fn many_keys_probe_correctly() {
        let (mut m, t) = fresh(256);
        for k in 0..100u64 {
            assert!(t.record_grant(&mut m, k, k + 1000, PmLockMode::Exclusive));
        }
        assert_eq!(t.all(&m).len(), 100);
        for k in 0..100u64 {
            assert_eq!(t.holders_of(&m, k)[0].holder, k + 1000, "key {k}");
        }
    }
}
