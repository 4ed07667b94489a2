//! Persistent transaction control blocks (TCBs).
//!
//! The MTTR argument of §3.4: if the transaction monitor keeps each
//! transaction's control block in PM — updated at fine grain as the
//! transaction moves through begin → active → committing → resolved —
//! then recovery *reads* the set of in-flight transactions directly
//! instead of reconstructing it by scanning the audit trail ("eliminates
//! costly heuristic searching of audit trail information"). Experiment T3
//! quantifies the resulting MTTR gap.
//!
//! Layout: slot array indexed by `txn % slots`; each 48-byte slot:
//! `txn u64 | state u32 | pad u32 | first_lsn u64 | last_lsn u64 |
//! crc u32 | pad`. One slot-sized write per state change; torn slots fail
//! CRC and read as empty (the transaction is then resolved by the
//! trail-tail scan, bounded by the checkpoint mark).

use crate::medium::{le_u32, le_u64, PmMedium};
use crate::redo::crc32;

const SLOT: u64 = 48;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcbState {
    Active,
    Committing,
    Committed,
    Aborted,
}

impl TcbState {
    fn code(self) -> u32 {
        match self {
            TcbState::Active => 1,
            TcbState::Committing => 2,
            TcbState::Committed => 3,
            TcbState::Aborted => 4,
        }
    }
    fn from_code(c: u32) -> Option<TcbState> {
        Some(match c {
            1 => TcbState::Active,
            2 => TcbState::Committing,
            3 => TcbState::Committed,
            4 => TcbState::Aborted,
            _ => return None,
        })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tcb {
    pub txn: u64,
    pub state: TcbState,
    /// Trail extent of this transaction's audit records.
    pub first_lsn: u64,
    pub last_lsn: u64,
}

/// The persistent TCB table.
pub struct TcbTable {
    base: u64,
    slots: u64,
}

impl TcbTable {
    pub fn required_len(slots: u64) -> u64 {
        slots * SLOT
    }

    pub fn format<M: PmMedium>(medium: &mut M, base: u64, slots: u64) -> TcbTable {
        assert!(slots >= 2);
        medium.write(base, &vec![0u8; (slots * SLOT) as usize]);
        TcbTable { base, slots }
    }

    pub fn open(base: u64, slots: u64) -> TcbTable {
        TcbTable { base, slots }
    }

    fn slot_of(&self, txn: u64) -> u64 {
        self.base + (txn % self.slots) * SLOT
    }

    fn encode(tcb: &Tcb) -> [u8; SLOT as usize] {
        let mut b = [0u8; SLOT as usize];
        b[..8].copy_from_slice(&tcb.txn.to_le_bytes());
        b[8..12].copy_from_slice(&tcb.state.code().to_le_bytes());
        b[16..24].copy_from_slice(&tcb.first_lsn.to_le_bytes());
        b[24..32].copy_from_slice(&tcb.last_lsn.to_le_bytes());
        let crc = crc32(&b[..32]);
        b[32..36].copy_from_slice(&crc.to_le_bytes());
        b
    }

    /// Durable fine-grained update: one small write.
    pub fn put<M: PmMedium>(&self, medium: &mut M, tcb: Tcb) {
        medium.write(self.slot_of(tcb.txn), &Self::encode(&tcb));
    }

    /// Clear a resolved transaction's slot.
    pub fn clear<M: PmMedium>(&self, medium: &mut M, txn: u64) {
        medium.write(self.slot_of(txn), &[0u8; SLOT as usize]);
    }

    /// Decode one slot image; short or CRC-failing images read as empty
    /// (torn update: the transaction is then resolved by the trail-tail
    /// scan), never as a panic.
    fn decode_slot(raw: &[u8]) -> Option<Tcb> {
        let txn = le_u64(raw, 0)?;
        if txn == 0 {
            return None;
        }
        let crc = le_u32(raw, 32)?;
        if crc32(raw.get(..32)?) != crc {
            return None;
        }
        let state = TcbState::from_code(le_u32(raw, 8)?)?;
        Some(Tcb {
            txn,
            state,
            first_lsn: le_u64(raw, 16)?,
            last_lsn: le_u64(raw, 24)?,
        })
    }

    pub fn get<M: PmMedium>(&self, medium: &M, txn: u64) -> Option<Tcb> {
        let off = self.slot_of(txn);
        if off + SLOT > medium.len() {
            return None; // table extends past a (truncated) region image
        }
        let raw = medium.read(off, SLOT as usize);
        Self::decode_slot(&raw).filter(|t| t.txn == txn)
    }

    /// Recovery's question: which transactions were unresolved, and what
    /// trail extent must be examined for them? Returns the unresolved
    /// TCBs and the minimal trail LSN a tail scan must start from.
    pub fn recovery_view<M: PmMedium>(&self, medium: &M) -> (Vec<Tcb>, Option<u64>) {
        let mut unresolved = Vec::new();
        for i in 0..self.slots {
            let off = self.base + i * SLOT;
            if off + SLOT > medium.len() {
                break; // truncated image: remaining slots unreadable
            }
            let raw = medium.read(off, SLOT as usize);
            let Some(tcb) = Self::decode_slot(&raw) else {
                continue; // empty or torn update: resolved by the tail scan
            };
            if matches!(tcb.state, TcbState::Active | TcbState::Committing) {
                unresolved.push(tcb);
            }
        }
        let scan_from = unresolved.iter().map(|t| t.first_lsn).min();
        (unresolved, scan_from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::{TornWriter, VecMedium};

    fn fresh(slots: u64) -> (VecMedium, TcbTable) {
        let mut m = VecMedium::new(TcbTable::required_len(slots) + 64);
        let t = TcbTable::format(&mut m, 0, slots);
        (m, t)
    }

    #[test]
    fn lifecycle_updates_in_place() {
        let (mut m, t) = fresh(16);
        t.put(
            &mut m,
            Tcb {
                txn: 9,
                state: TcbState::Active,
                first_lsn: 100,
                last_lsn: 100,
            },
        );
        t.put(
            &mut m,
            Tcb {
                txn: 9,
                state: TcbState::Committing,
                first_lsn: 100,
                last_lsn: 900,
            },
        );
        assert_eq!(t.get(&m, 9).unwrap().state, TcbState::Committing);
        t.put(
            &mut m,
            Tcb {
                txn: 9,
                state: TcbState::Committed,
                first_lsn: 100,
                last_lsn: 900,
            },
        );
        assert_eq!(t.get(&m, 9).unwrap().state, TcbState::Committed);
        t.clear(&mut m, 9);
        assert!(t.get(&m, 9).is_none());
    }

    #[test]
    fn recovery_view_reports_unresolved_and_scan_start() {
        let (mut m, t) = fresh(16);
        t.put(
            &mut m,
            Tcb {
                txn: 1,
                state: TcbState::Committed,
                first_lsn: 0,
                last_lsn: 50,
            },
        );
        t.put(
            &mut m,
            Tcb {
                txn: 2,
                state: TcbState::Active,
                first_lsn: 60,
                last_lsn: 90,
            },
        );
        t.put(
            &mut m,
            Tcb {
                txn: 3,
                state: TcbState::Committing,
                first_lsn: 30,
                last_lsn: 95,
            },
        );
        let (unresolved, from) = t.recovery_view(&m);
        assert_eq!(unresolved.len(), 2);
        assert_eq!(from, Some(30), "scan starts at oldest unresolved extent");
    }

    #[test]
    fn torn_update_reads_empty() {
        let (m, t) = fresh(16);
        let mut torn = TornWriter::new(m);
        torn.crash_after(20);
        t.put(
            &mut torn,
            Tcb {
                txn: 5,
                state: TcbState::Active,
                first_lsn: 1,
                last_lsn: 2,
            },
        );
        assert!(torn.crashed);
        let m = torn.into_inner();
        let t2 = TcbTable::open(0, 16);
        assert!(t2.get(&m, 5).is_none());
        let (unresolved, from) = t2.recovery_view(&m);
        assert!(unresolved.is_empty());
        assert_eq!(from, None);
    }

    #[test]
    fn slot_reuse_by_modulo() {
        let (mut m, t) = fresh(4);
        t.put(
            &mut m,
            Tcb {
                txn: 1,
                state: TcbState::Active,
                first_lsn: 0,
                last_lsn: 0,
            },
        );
        // txn 5 maps to the same slot; a real TMF clears before reuse.
        t.put(
            &mut m,
            Tcb {
                txn: 5,
                state: TcbState::Active,
                first_lsn: 7,
                last_lsn: 7,
            },
        );
        assert!(t.get(&m, 1).is_none(), "overwritten");
        assert_eq!(t.get(&m, 5).unwrap().first_lsn, 7);
    }
}
