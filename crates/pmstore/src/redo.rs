//! Redo-log micro-transactions over a PM region.
//!
//! The paper (§3.4): "PM also supports transactional updating of
//! persistent stores, with an access architecture not dissimilar to the
//! mmap() and msync() primitives of memory-mapped files." This module is
//! that primitive: atomically apply a set of `(offset, bytes)` writes to a
//! region so that a crash at *any* write prefix leaves either the old or
//! the new state recoverable — never a hybrid.
//!
//! Protocol (each step is a separate medium write; torn writes are always
//! prefixes):
//!
//! 1. write the log body (`magic | seq | n | crc | records…`);
//! 2. write the commit cell (`seq | crc(seq)`) — the *linearization
//!    point*: a valid cell pointing at a valid body means committed;
//! 3. apply the records to their home offsets (idempotent absolute
//!    writes);
//! 4. invalidate the commit cell.
//!
//! Recovery inspects the cell: valid + matching body → replay (crash
//! during step 3) then invalidate; anything else → discard (crash before
//! the linearization point, or after step 4 with a torn invalidation).

use crate::medium::PmMedium;

const MAGIC: u32 = 0x504D_5458; // "PMTX"
const CELL_BYTES: u64 = 16;

/// CRC-32 (IEEE 802.3). The shared implementation lives in
/// [`simcore::checksum`]; re-exported so the historical
/// `pmstore::redo::crc32` path (and the identical `pmm::meta::crc32`)
/// stay valid.
pub use simcore::checksum::crc32;

/// Transaction-log manager for one log area within a region.
pub struct PmTx {
    log_base: u64,
    log_len: u64,
    next_seq: u64,
}

impl PmTx {
    /// Adopt a (fresh) log area. Use [`PmTx::recover`] after a crash.
    pub fn create(log_base: u64, log_len: u64) -> Self {
        assert!(log_len > CELL_BYTES + 20, "log area too small");
        PmTx {
            log_base,
            log_len,
            next_seq: 1,
        }
    }

    fn body_base(&self) -> u64 {
        self.log_base + CELL_BYTES
    }

    /// Max total bytes of staged data per transaction.
    pub fn capacity(&self) -> u64 {
        self.log_len - CELL_BYTES - 20
    }

    /// Atomically apply `writes`. Panics if the staged set exceeds
    /// [`Self::capacity`] or targets the log area itself.
    pub fn run<M: PmMedium>(&mut self, medium: &mut M, writes: &[(u64, &[u8])]) {
        let seq = self.next_seq;
        self.next_seq += 1;

        // Serialize the body.
        let mut body = Vec::new();
        let mut payload = Vec::new();
        for (off, data) in writes {
            let end = self.log_base + self.log_len;
            assert!(
                *off + data.len() as u64 <= self.log_base || *off >= end,
                "transaction write overlaps its own log"
            );
            payload.extend_from_slice(&off.to_le_bytes());
            payload.extend_from_slice(&(data.len() as u32).to_le_bytes());
            payload.extend_from_slice(data);
        }
        assert!(payload.len() as u64 <= self.capacity(), "tx too large");
        body.extend_from_slice(&MAGIC.to_le_bytes());
        body.extend_from_slice(&seq.to_le_bytes());
        body.extend_from_slice(&(writes.len() as u32).to_le_bytes());
        body.extend_from_slice(&crc32(&payload).to_le_bytes());
        body.extend_from_slice(&payload);

        // 1. body
        medium.write(self.body_base(), &body);
        // 2. commit cell (linearization point)
        let mut cell = [0u8; CELL_BYTES as usize];
        cell[..8].copy_from_slice(&seq.to_le_bytes());
        cell[8..12].copy_from_slice(&crc32(&seq.to_le_bytes()).to_le_bytes());
        medium.write(self.log_base, &cell);
        // 3. apply home writes
        for (off, data) in writes {
            medium.write(*off, data);
        }
        // 4. invalidate
        medium.write(self.log_base, &[0u8; CELL_BYTES as usize]);
    }

    /// Post-crash recovery of a log area: replay a committed-but-unapplied
    /// transaction if present. Returns the manager (with the right next
    /// sequence number) and whether a replay happened.
    pub fn recover<M: PmMedium>(medium: &mut M, log_base: u64, log_len: u64) -> (Self, bool) {
        let mut me = PmTx::create(log_base, log_len);
        let cell = medium.read(log_base, CELL_BYTES as usize);
        let seq = u64::from_le_bytes(cell[..8].try_into().unwrap());
        let cell_crc = u32::from_le_bytes(cell[8..12].try_into().unwrap());
        if seq == 0 || crc32(&seq.to_le_bytes()) != cell_crc {
            // Not committed (or torn cell after full apply): scavenge the
            // body header for the sequence high-water mark so we never
            // reuse a sequence number.
            let hdr = medium.read(log_base + CELL_BYTES, 16);
            let m = u32::from_le_bytes(hdr[..4].try_into().unwrap());
            if m == MAGIC {
                let body_seq = u64::from_le_bytes(hdr[4..12].try_into().unwrap());
                me.next_seq = body_seq + 1;
            }
            return (me, false);
        }
        // Cell valid: the body must match and validate.
        let hdr = medium.read(log_base + CELL_BYTES, 20);
        let m = u32::from_le_bytes(hdr[..4].try_into().unwrap());
        let body_seq = u64::from_le_bytes(hdr[4..12].try_into().unwrap());
        let n = u32::from_le_bytes(hdr[12..16].try_into().unwrap());
        let crc = u32::from_le_bytes(hdr[16..20].try_into().unwrap());
        if m != MAGIC || body_seq != seq {
            me.next_seq = seq + 1;
            medium.write(log_base, &[0u8; CELL_BYTES as usize]);
            return (me, false);
        }
        // Read the payload (bounded by the log area).
        let max_payload = (log_len - CELL_BYTES - 20) as usize;
        let payload = medium.read(log_base + CELL_BYTES + 20, max_payload);
        // Walk n records; validate CRC over exactly the consumed prefix.
        let mut pos = 0usize;
        let mut recs: Vec<(u64, Vec<u8>)> = Vec::new();
        let mut ok = true;
        for _ in 0..n {
            if pos + 12 > payload.len() {
                ok = false;
                break;
            }
            let off = u64::from_le_bytes(payload[pos..pos + 8].try_into().unwrap());
            let len = u32::from_le_bytes(payload[pos + 8..pos + 12].try_into().unwrap()) as usize;
            if pos + 12 + len > payload.len() {
                ok = false;
                break;
            }
            recs.push((off, payload[pos + 12..pos + 12 + len].to_vec()));
            pos += 12 + len;
        }
        if !ok || crc32(&payload[..pos]) != crc {
            // Committed cell but torn body cannot happen under the
            // protocol; treat defensively as uncommitted.
            me.next_seq = seq + 1;
            medium.write(log_base, &[0u8; CELL_BYTES as usize]);
            return (me, false);
        }
        for (off, data) in &recs {
            medium.write(*off, data);
        }
        medium.write(log_base, &[0u8; CELL_BYTES as usize]);
        me.next_seq = seq + 1;
        (me, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::{TornWriter, VecMedium};

    const LOG: u64 = 1024;
    const LOG_LEN: u64 = 1024;

    #[test]
    fn commit_applies_all_writes() {
        let mut m = VecMedium::new(4096);
        let mut tx = PmTx::create(LOG, LOG_LEN);
        tx.run(&mut m, &[(0, b"hello"), (100, b"world")]);
        assert_eq!(m.read(0, 5), b"hello");
        assert_eq!(m.read(100, 5), b"world");
        // Log invalidated afterward.
        assert_eq!(m.read(LOG, 8), [0; 8]);
    }

    #[test]
    #[should_panic(expected = "overlaps its own log")]
    fn writing_into_log_area_panics() {
        let mut m = VecMedium::new(4096);
        let mut tx = PmTx::create(LOG, LOG_LEN);
        tx.run(&mut m, &[(LOG + 8, b"x")]);
    }

    #[test]
    #[should_panic(expected = "tx too large")]
    fn oversized_tx_panics() {
        let mut m = VecMedium::new(1 << 20);
        let mut tx = PmTx::create(LOG, 64);
        let big = vec![0u8; 64];
        tx.run(&mut m, &[(0, &big)]);
    }

    /// The core crash-consistency property: crash at every possible byte
    /// budget during a transaction; recovery must produce either the old
    /// or the new state, never a mix.
    #[test]
    fn crash_at_every_point_is_atomic() {
        let old_a = [0xAAu8; 32];
        let old_b = [0xBBu8; 32];
        let new_a = [0x11u8; 32];
        let new_b = [0x22u8; 32];

        // Measure the total bytes a full commit writes.
        let total = {
            let mut m = VecMedium::new(4096);
            m.write(0, &old_a);
            m.write(200, &old_b);
            let base = m.bytes_written;
            let mut tx = PmTx::create(LOG, LOG_LEN);
            tx.run(&mut m, &[(0, &new_a), (200, &new_b)]);
            m.bytes_written - base
        };

        for crash_at in 0..=total {
            let mut m = VecMedium::new(4096);
            m.write(0, &old_a);
            m.write(200, &old_b);
            let mut torn = TornWriter::new(m);
            torn.crash_after(crash_at);
            let mut tx = PmTx::create(LOG, LOG_LEN);
            tx.run(&mut torn, &[(0, &new_a), (200, &new_b)]);
            let mut m = torn.into_inner();
            let (_tx2, _replayed) = PmTx::recover(&mut m, LOG, LOG_LEN);
            let a = m.read(0, 32);
            let b = m.read(200, 32);
            let is_old = a == old_a && b == old_b;
            let is_new = a == new_a && b == new_b;
            assert!(
                is_old || is_new,
                "crash_at={crash_at}: hybrid state a={:02x?} b={:02x?}",
                &a[..4],
                &b[..4]
            );
        }
    }

    #[test]
    fn sequence_numbers_survive_recovery() {
        let mut m = VecMedium::new(4096);
        let mut tx = PmTx::create(LOG, LOG_LEN);
        tx.run(&mut m, &[(0, b"one")]);
        tx.run(&mut m, &[(0, b"two")]);
        let (tx2, replayed) = PmTx::recover(&mut m, LOG, LOG_LEN);
        assert!(!replayed, "clean shutdown needs no replay");
        assert!(tx2.next_seq >= 3, "seq must not regress: {}", tx2.next_seq);
    }

    #[test]
    fn recover_blank_log() {
        let mut m = VecMedium::new(4096);
        let (tx, replayed) = PmTx::recover(&mut m, LOG, LOG_LEN);
        assert!(!replayed);
        assert_eq!(tx.next_seq, 1);
    }

    #[test]
    fn replay_is_idempotent() {
        // Simulate crash right after the commit cell (before any apply).
        let mut m = VecMedium::new(4096);
        let pre_apply_budget = {
            let mut probe = VecMedium::new(4096);
            let before = probe.bytes_written;
            let mut tx = PmTx::create(LOG, LOG_LEN);
            tx.run(&mut probe, &[(0, b"data!")]);
            // body + cell = total - apply(5) - invalidate(16)
            (probe.bytes_written - before) - 5 - 16
        };
        let mut torn = TornWriter::new(std::mem::replace(&mut m, VecMedium::new(1)));
        torn.crash_after(pre_apply_budget);
        let mut tx = PmTx::create(LOG, LOG_LEN);
        tx.run(&mut torn, &[(0, b"data!")]);
        let mut m = torn.into_inner();
        let (_, replayed) = PmTx::recover(&mut m, LOG, LOG_LEN);
        assert!(replayed);
        assert_eq!(m.read(0, 5), b"data!");
        // Recovering again finds a clean log.
        let (_, replayed2) = PmTx::recover(&mut m, LOG, LOG_LEN);
        assert!(!replayed2);
        assert_eq!(m.read(0, 5), b"data!");
    }
}
