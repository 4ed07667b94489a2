//! The audit-trail record format.
//!
//! "This record of changes is called the database audit trail. It
//! explicitly records the changes made to the database by each
//! transaction, and implicitly records the serial order in which the
//! transactions committed." (§1.2)
//!
//! Records are length-prefixed and CRC-guarded so a recovery scan can walk
//! the trail from any record boundary and stop cleanly at a torn tail.
//! Insert records carry the record's *virtual* length (its logical size —
//! the timing model's byte count) and a CRC of the payload, plus the
//! payload itself when content fidelity matters (tests, small runs).

use crate::types::{Lsn, PartitionId, TxnId};
use bytes::{BufMut, Bytes, BytesMut};
use std::borrow::Cow;

const MAGIC: u8 = 0xAD;

/// One audit record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditRecord {
    /// Redo (and implicitly undo: delete) for an insert.
    Insert {
        txn: TxnId,
        partition: PartitionId,
        key: u64,
        virtual_len: u32,
        body_crc: u32,
        body: Bytes,
    },
    Commit {
        txn: TxnId,
    },
    Abort {
        txn: TxnId,
    },
    /// Recovery-scan starting hint (fuzzy checkpoint marker).
    CheckpointMark {
        active_txns: Vec<TxnId>,
    },
    /// 2PC participant vote: this shard's work for `txn` is durable and
    /// the shard is in-doubt. Recovery resolves a `Prepared` transaction
    /// with no later local outcome record by consulting the coordinator
    /// shard's trail ([`TxnId::coordinator_shard`]): commit iff a `Commit`
    /// record exists there, else presumed abort.
    Prepared {
        txn: TxnId,
    },
}

impl AuditRecord {
    fn type_tag(&self) -> u8 {
        match self {
            AuditRecord::Insert { .. } => 1,
            AuditRecord::Commit { .. } => 2,
            AuditRecord::Abort { .. } => 3,
            AuditRecord::CheckpointMark { .. } => 4,
            AuditRecord::Prepared { .. } => 5,
        }
    }

    /// Append the encoded record to `out`. Layout:
    /// `magic u8 | type u8 | body_len u32 | crc u32 | body`. The body is
    /// written in place and the header patched behind it, so encoding
    /// into a buffer with room allocates nothing.
    pub fn encode_into(&self, out: &mut BytesMut) {
        let start = out.len();
        out.put_u8(MAGIC);
        out.put_u8(self.type_tag());
        out.put_u32_le(0);
        out.put_u32_le(0);
        let body_at = out.len();
        match self {
            AuditRecord::Insert {
                txn,
                partition,
                key,
                virtual_len,
                body_crc,
                body: payload,
            } => {
                out.put_u64_le(txn.0);
                out.put_u32_le(partition.file);
                out.put_u32_le(partition.part);
                out.put_u64_le(*key);
                out.put_u32_le(*virtual_len);
                out.put_u32_le(*body_crc);
                out.put_u32_le(payload.len() as u32);
                out.put_slice(payload);
            }
            AuditRecord::Commit { txn }
            | AuditRecord::Abort { txn }
            | AuditRecord::Prepared { txn } => {
                out.put_u64_le(txn.0);
            }
            AuditRecord::CheckpointMark { active_txns } => {
                out.put_u32_le(active_txns.len() as u32);
                for t in active_txns {
                    out.put_u64_le(t.0);
                }
            }
        }
        let body_len = (out.len() - body_at) as u32;
        let crc = pmm::meta::crc32(&out[body_at..]);
        out[start + 2..start + 6].copy_from_slice(&body_len.to_le_bytes());
        out[start + 6..body_at].copy_from_slice(&crc.to_le_bytes());
    }

    /// The encoded record at exactly its size, built in `scratch` (left
    /// empty for the next record): one allocation, where [`Self::encode`]
    /// makes two.
    pub fn encode_in(&self, scratch: &mut BytesMut) -> Bytes {
        self.encode_into(scratch);
        let records = Bytes::copy_from_slice(scratch);
        scratch.clear();
        records
    }

    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::new();
        self.encode_into(&mut b);
        b.freeze()
    }

    /// Encoded size without building the buffer.
    pub fn encoded_len(&self) -> usize {
        10 + match self {
            AuditRecord::Insert { body, .. } => 36 + body.len(),
            AuditRecord::Commit { .. }
            | AuditRecord::Abort { .. }
            | AuditRecord::Prepared { .. } => 8,
            AuditRecord::CheckpointMark { active_txns } => 4 + 8 * active_txns.len(),
        }
    }

    /// Decode one record from the front of `buf`. Returns the record and
    /// bytes consumed, or `None` for a torn/invalid/short prefix. Total:
    /// no byte string panics it, and whatever it accepts re-encodes to
    /// exactly the bytes consumed.
    pub fn decode(buf: &[u8]) -> Option<(AuditRecord, usize)> {
        let le_u32 = |b: &[u8], o: usize| -> Option<u32> {
            Some(u32::from_le_bytes(b.get(o..o + 4)?.try_into().ok()?))
        };
        let le_u64 = |b: &[u8], o: usize| -> Option<u64> {
            Some(u64::from_le_bytes(b.get(o..o + 8)?.try_into().ok()?))
        };
        if *buf.first()? != MAGIC {
            return None;
        }
        let tag = *buf.get(1)?;
        let body_len = le_u32(buf, 2)? as usize;
        let crc = le_u32(buf, 6)?;
        let body = buf.get(10..10usize.checked_add(body_len)?)?;
        // Lengths before contents, and before the checksum: a body's
        // length follows from its tag and, for the variable records, a
        // count inside it. A lapped or torn trail offers garbage headers
        // whose `body_len` can span megabytes of the slice; they are
        // turned away here instead of being checksummed first.
        let want = match tag {
            1 => 36usize.checked_add(le_u32(body, 32)? as usize)?,
            2 | 3 | 5 => 8,
            4 => (le_u32(body, 0)? as usize).checked_mul(8)?.checked_add(4)?,
            _ => return None,
        };
        if body_len != want || pmm::meta::crc32(body) != crc {
            return None;
        }
        let rec = match tag {
            1 => AuditRecord::Insert {
                txn: TxnId(le_u64(body, 0)?),
                partition: PartitionId {
                    file: le_u32(body, 8)?,
                    part: le_u32(body, 12)?,
                },
                key: le_u64(body, 16)?,
                virtual_len: le_u32(body, 24)?,
                body_crc: le_u32(body, 28)?,
                body: Bytes::copy_from_slice(&body[36..]),
            },
            2 => AuditRecord::Commit {
                txn: TxnId(le_u64(body, 0)?),
            },
            3 => AuditRecord::Abort {
                txn: TxnId(le_u64(body, 0)?),
            },
            4 => AuditRecord::CheckpointMark {
                active_txns: body[4..]
                    .chunks_exact(8)
                    .map(|c| TxnId(u64::from_le_bytes(c.try_into().expect("8-byte chunk"))))
                    .collect(),
            },
            _ => AuditRecord::Prepared {
                txn: TxnId(le_u64(body, 0)?),
            },
        };
        Some((rec, 10 + body_len))
    }
}

/// The trail bytes an insert record occupies: its encoded image for a
/// `body_len`-byte payload ([`AuditRecord::encoded_len`]), or its logical
/// `virtual_len` if larger. The trail's LSN advances by this much; past
/// the image the rest stays a zero gap.
pub fn insert_trail_len(body_len: usize, virtual_len: u32) -> u64 {
    (10 + 36 + body_len as u64).max(u64::from(virtual_len))
}

/// A trail's bytes in LSN order: `bytes[i]` lies at LSN `base + i`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Window<'a> {
    pub base: u64,
    pub bytes: &'a [u8],
}

impl<'a> From<&'a [u8]> for Window<'a> {
    /// A trail read from LSN 0.
    fn from(bytes: &'a [u8]) -> Self {
        Window { base: 0, bytes }
    }
}

/// The published window of a trail ring. LSN `l` lies at offset
/// `l mod cap` of `ring` (a region's bytes past its control cell; a
/// byte past its end reads as zero), so the last `cap` LSNs below
/// `watermark` are the ones the ring still holds: the window is
/// `[watermark − cap, watermark)`, returned as its base LSN and its bytes
/// in LSN order (borrowed until the ring has lapped). A ring of no
/// capacity holds nothing past its prefix.
pub fn ring_window(ring: &[u8], watermark: u64, cap: u64) -> (u64, Cow<'_, [u8]>) {
    if watermark <= cap || cap == 0 {
        let end = ring.len().min(watermark as usize);
        return (0, Cow::Borrowed(&ring[..end]));
    }
    let base = watermark - cap;
    let at = (base % cap) as usize;
    let mut bytes = vec![0u8; cap as usize];
    let (head, tail) = bytes.split_at_mut(cap as usize - at);
    for (to, from) in [(head, at), (tail, 0)] {
        let have = ring.get(from..).unwrap_or_default();
        let n = have.len().min(to.len());
        to[..n].copy_from_slice(&have[..n]);
    }
    (base, Cow::Owned(bytes))
}

/// The records of a trail window, in LSN order, and how the read went.
#[derive(Clone, Debug, Default)]
pub struct TrailScan {
    pub records: Vec<(Lsn, AuditRecord)>,
    /// Non-zero bytes a lapped window's read passed over: the fragment at
    /// its floor, and older laps' leftovers in the gaps appends leave.
    pub skipped: u64,
    /// Where a non-zero byte did not decode and stopped the read (a torn
    /// record); `None` when it read its window to the end.
    pub stopped_at: Option<Lsn>,
}

/// Read a trail window one record per `next()`, yielding `(lsn, record)`
/// until the window ends or a torn/invalid record stops it (the recovery
/// stop point). Once it returns `None`, [`Records::skipped`] and
/// [`Records::stopped_at`] say how the read went.
///
/// LSNs advance by *virtual* record length, which can exceed the encoded
/// length (compact descriptors at benchmark scale, padded commit
/// records). Only the encoded bytes are written, so the first lap leaves
/// zero gaps between records, which the reader skips 32 bytes a step;
/// there a *non-zero* undecodable position is a torn record and stops the
/// read. A lapped window (`base > 0`) opens on the tail of a record whose
/// head the ring overwrote, and its gaps still hold older laps' bytes.
/// Everything below the watermark was published whole, so there an
/// undecodable byte is such a leftover, never a torn record: it is
/// skipped.
#[derive(Clone, Debug)]
pub struct Records<'a> {
    window: Window<'a>,
    pos: usize,
    /// Non-zero bytes a lapped window's read passed over so far.
    pub skipped: u64,
    /// Where a non-zero byte did not decode and stopped the read.
    pub stopped_at: Option<Lsn>,
}

impl<'a> Records<'a> {
    pub fn new(window: Window<'a>) -> Self {
        Records {
            window,
            pos: 0,
            skipped: 0,
            stopped_at: None,
        }
    }
}

impl Iterator for Records<'_> {
    type Item = (Lsn, AuditRecord);

    fn next(&mut self) -> Option<(Lsn, AuditRecord)> {
        let Window { base, bytes } = self.window;
        loop {
            self.pos = skip_zeros(bytes, self.pos);
            let rest = bytes.get(self.pos..).filter(|r| !r.is_empty())?;
            match AuditRecord::decode(rest) {
                Some((rec, used)) => {
                    let lsn = Lsn(base + self.pos as u64);
                    self.pos += used;
                    return Some((lsn, rec));
                }
                None if base > 0 => {
                    self.skipped += 1;
                    self.pos += 1;
                }
                None => {
                    self.stopped_at = Some(Lsn(self.pos as u64));
                    self.pos = bytes.len();
                    return None;
                }
            }
        }
    }
}

/// The first non-zero byte of `bytes` at or after `pos` (`bytes.len()` if
/// none). Zeros are passed over 32 bytes a step (a fold the compiler
/// vectorizes), then one byte a step inside the first block that is not
/// all zero: a benchmark trail is mostly the zero gaps behind compact
/// descriptors.
fn skip_zeros(bytes: &[u8], mut pos: usize) -> usize {
    while let Some(block) = bytes.get(pos..).and_then(<[u8]>::first_chunk::<32>) {
        if block.iter().fold(0, |any, &b| any | b) != 0 {
            break;
        }
        pos += 32;
    }
    let rest = bytes.get(pos..).unwrap_or_default();
    pos + rest.iter().position(|&b| b != 0).unwrap_or(rest.len())
}

/// Read a whole trail window into a `Vec` ([`Records`]).
pub fn scan_window(window: Window<'_>) -> TrailScan {
    let mut read = Records::new(window);
    let records = read.by_ref().collect();
    TrailScan {
        records,
        skipped: read.skipped,
        stopped_at: read.stopped_at,
    }
}

/// Walk a trail image from offset 0, yielding `(lsn, record)` until the
/// first torn/invalid record: the unlapped case of [`scan_window`].
pub fn scan(trail: &[u8]) -> Vec<(Lsn, AuditRecord)> {
    Records::new(trail.into()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trail::{split_trail_parts, PM_CTRL_BYTES};

    fn insert_rec(txn: u64, key: u64, payload: &[u8]) -> AuditRecord {
        AuditRecord::Insert {
            txn: TxnId(txn),
            partition: PartitionId { file: 1, part: 2 },
            key,
            virtual_len: 4096,
            body_crc: pmm::meta::crc32(payload),
            body: Bytes::copy_from_slice(payload),
        }
    }

    #[test]
    fn roundtrip_all_variants() {
        let recs = vec![
            insert_rec(9, 77, b"hello"),
            AuditRecord::Commit { txn: TxnId(9) },
            AuditRecord::Abort { txn: TxnId(10) },
            AuditRecord::CheckpointMark {
                active_txns: vec![TxnId(1), TxnId(2)],
            },
            AuditRecord::Prepared {
                txn: TxnId::compose(3, 44),
            },
        ];
        let mut scratch = BytesMut::new();
        for r in recs {
            let enc = r.encode();
            assert_eq!(enc.len(), r.encoded_len());
            assert_eq!(r.encode_in(&mut scratch), enc);
            assert!(scratch.is_empty());
            let (back, used) = AuditRecord::decode(&enc).unwrap();
            assert_eq!(back, r);
            assert_eq!(used, enc.len());
        }
    }

    #[test]
    fn scan_reads_stream_and_stops_at_torn_tail() {
        let mut trail = BytesMut::new();
        insert_rec(1, 10, b"a").encode_into(&mut trail);
        insert_rec(1, 11, b"b").encode_into(&mut trail);
        AuditRecord::Commit { txn: TxnId(1) }.encode_into(&mut trail);
        let full = trail.len();
        // A torn third of the next record.
        let torn = insert_rec(2, 12, b"ccc").encode();
        trail.put_slice(&torn[..torn.len() / 3]);

        let recs = scan(&trail);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[0].0, Lsn(0));
        assert!(matches!(recs[2].1, AuditRecord::Commit { .. }));
        assert!(recs[2].0 .0 < full as u64);
    }

    #[test]
    fn decode_rejects_bitflips() {
        let enc = insert_rec(3, 4, b"payload").encode();
        for i in 0..enc.len() {
            let mut bad = enc.to_vec();
            bad[i] ^= 0x10;
            if let Some((rec, _)) = AuditRecord::decode(&bad) {
                // The only tolerated flips are in the header length/crc
                // fields that happen to still validate — CRC makes that
                // astronomically unlikely; assert equality if it decodes.
                assert_eq!(rec, insert_rec(3, 4, b"payload"), "flip at {i}");
            }
        }
    }

    #[test]
    fn decode_empty_and_garbage() {
        assert!(AuditRecord::decode(&[]).is_none());
        assert!(AuditRecord::decode(&[0u8; 64]).is_none());
        let mut junk = vec![MAGIC, 99];
        junk.extend_from_slice(&[0u8; 32]);
        assert!(AuditRecord::decode(&junk).is_none());
    }

    /// PR 11's finding: a lapped PM trail offered `AD 04 00 00 00 00 00 00
    /// 00 00` — a checkpoint mark with an empty body whose CRC (0) is
    /// valid — and the count field was read before any length check. A
    /// body's length is judged against its tag before, and apart from,
    /// the checksum: wrong for the tag means rejected even when the CRC
    /// over that span is valid, so a garbage `body_len` is never what
    /// decides how many bytes get checksummed.
    #[test]
    fn decode_rejects_a_wrong_length_whose_crc_is_valid() {
        let framed = |tag: u8, body: &[u8]| {
            let mut rec = vec![MAGIC, tag];
            rec.extend_from_slice(&(body.len() as u32).to_le_bytes());
            rec.extend_from_slice(&pmm::meta::crc32(body).to_le_bytes());
            rec.extend_from_slice(body);
            rec
        };
        for tag in 1..=5u8 {
            assert_eq!(framed(tag, &[]), [MAGIC, tag, 0, 0, 0, 0, 0, 0, 0, 0]);
            assert!(
                AuditRecord::decode(&framed(tag, &[])).is_none(),
                "tag {tag}"
            );
        }
        // Too long, too short, and a count that disagrees with the length.
        let one_txn_in_20 = [&1u32.to_le_bytes()[..], &[0; 16]].concat();
        for (tag, body) in [
            (2u8, vec![0; 9]),
            (3, vec![0; 16]),
            (5, vec![0; 7]),
            (4, vec![0; 3]),
            (4, one_txn_in_20),
            (1, vec![0; 35]),
        ] {
            assert!(
                AuditRecord::decode(&framed(tag, &body)).is_none(),
                "tag {tag}"
            );
        }
        // Control: the right length under the same framing decodes.
        assert_eq!(
            AuditRecord::decode(&framed(2, &7u64.to_le_bytes())),
            Some((AuditRecord::Commit { txn: TxnId(7) }, 18))
        );
    }

    mod props {
        use super::*;
        use proptest::prelude::*;

        fn any_record() -> impl Strategy<Value = AuditRecord> {
            prop_oneof![
                (
                    any::<u64>(),
                    any::<u32>(),
                    any::<u64>(),
                    proptest::collection::vec(any::<u8>(), 0..40)
                )
                    .prop_map(|(txn, part, key, payload)| AuditRecord::Insert {
                        txn: TxnId(txn),
                        partition: PartitionId { file: part, part },
                        key,
                        virtual_len: part,
                        body_crc: pmm::meta::crc32(&payload),
                        body: Bytes::from(payload),
                    }),
                any::<u64>().prop_map(|t| AuditRecord::Commit { txn: TxnId(t) }),
                any::<u64>().prop_map(|t| AuditRecord::Abort { txn: TxnId(t) }),
                any::<u64>().prop_map(|t| AuditRecord::Prepared { txn: TxnId(t) }),
                proptest::collection::vec(any::<u64>(), 0..6).prop_map(|v| {
                    AuditRecord::CheckpointMark {
                        active_txns: v.into_iter().map(TxnId).collect(),
                    }
                }),
            ]
        }

        /// Whatever `decode` accepts re-encodes to exactly the prefix it
        /// consumed; everything else is `None`, never a panic.
        fn check_total(buf: &[u8]) {
            if let Some((rec, used)) = AuditRecord::decode(buf) {
                assert!(used <= buf.len());
                assert_eq!(&rec.encode()[..], &buf[..used]);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            #[test]
            fn decode_any_bytes_is_total(
                raw in proptest::collection::vec(any::<u8>(), 0..96),
                tag in 0u8..8,
                claim in 0u32..80,
            ) {
                check_total(&raw);
                // The same bytes behind a header whose magic, tag and CRC
                // are all valid for the claimed length: only the length
                // logic stands between garbage and the field reads.
                let body = &raw[..(claim as usize).min(raw.len())];
                let mut framed = vec![MAGIC, tag];
                framed.extend_from_slice(&claim.to_le_bytes());
                framed.extend_from_slice(&pmm::meta::crc32(body).to_le_bytes());
                framed.extend_from_slice(&raw);
                check_total(&framed);
            }

            #[test]
            fn decode_survives_mutated_records(
                rec in any_record(),
                at in any::<u32>(),
                with in any::<u8>(),
                cut in any::<u32>(),
                tail in proptest::collection::vec(any::<u8>(), 0..16),
            ) {
                let mut enc = rec.encode().to_vec();
                let (back, used) = AuditRecord::decode(&enc).expect("canonical");
                prop_assert_eq!(&back, &rec);
                prop_assert_eq!(used, enc.len());
                // Trailing bytes are not consumed; truncations are torn.
                enc.extend_from_slice(&tail);
                check_total(&enc);
                prop_assert!(AuditRecord::decode(&enc[..cut as usize % used]).is_none());
                let i = at as usize % enc.len();
                enc[i] = with;
                check_total(&enc);
            }
        }
    }

    #[test]
    fn scan_empty_trail() {
        assert!(scan(&[]).is_empty());
        assert!(scan(&[0u8; 1000]).is_empty());
    }

    #[test]
    fn lsns_are_byte_offsets() {
        let mut trail = BytesMut::new();
        let r1 = insert_rec(1, 1, b"x");
        let r2 = AuditRecord::Commit { txn: TxnId(1) };
        r1.encode_into(&mut trail);
        r2.encode_into(&mut trail);
        let recs = scan(&trail);
        assert_eq!(recs[1].0, Lsn(r1.encoded_len() as u64));
    }

    /// Read a trail ring's published window ([`ring_window`]).
    fn scan_ring(ring: &[u8], watermark: u64, cap: u64) -> TrailScan {
        let (base, bytes) = ring_window(ring, watermark, cap);
        scan_window(Window {
            base,
            bytes: &bytes,
        })
    }

    /// A trail ring of `cap` bytes after `recs` were appended from LSN 0,
    /// each `virt` virtual bytes long, laid out as the ADP lays its
    /// appends: [`split_trail_parts`]. Returns the ring and the watermark.
    fn ring_of(recs: &[AuditRecord], virt: u64, cap: u64) -> (Vec<u8>, u64) {
        let (mut ring, mut lsn) = (vec![0u8; cap as usize], 0);
        for r in recs {
            let enc = r.encode();
            for (off, part, _) in split_trail_parts(lsn, cap, virt, enc.len()) {
                let at = (off - PM_CTRL_BYTES) as usize;
                ring[at..at + part.len()].copy_from_slice(&enc[part]);
            }
            lsn += virt;
        }
        (ring, lsn)
    }

    #[test]
    fn scan_reads_a_record_wrapped_across_the_ring_end() {
        // Four 60-byte appends fill 240 of 256 bytes: the fifth record's
        // first 16 bytes land at the ring's end, the rest at offset 0.
        let recs: Vec<_> = (0..5).map(|k| insert_rec(1, k, b"x")).collect();
        let (ring, wm) = ring_of(&recs, 60, 256);
        assert_eq!(wm, 300);
        let enc = recs[4].encode();
        assert_eq!(ring[240..], enc[..16], "first segment at the ring's end");
        assert_eq!(ring[..enc.len() - 16], enc[16..], "second at offset 0");
        let scan = scan_ring(&ring, wm, 256);
        let lsns: Vec<u64> = scan.records.iter().map(|(l, _)| l.0).collect();
        assert_eq!(lsns, [60, 120, 180, 240]);
        assert_eq!(scan.records[3].1, recs[4]);
        // The floor (LSN 44) cuts record 0, whose head the wrap
        // overwrote: its last bytes are skipped, not a stop.
        assert!(scan.skipped > 0);
        assert_eq!(scan.stopped_at, None);
        // Read in physical order the ring offers the fragment first.
        assert!(scan_window(ring[..].into()).records.is_empty());
    }

    #[test]
    fn a_lapped_ring_reads_its_window_in_lsn_order() {
        // Ten 64-byte appends on a 256-byte ring: two and a half laps.
        // The window is the last four, each at its virtual LSN.
        let recs: Vec<_> = (0..10).map(|k| insert_rec(k, k, b"x")).collect();
        let (ring, wm) = ring_of(&recs, 64, 256);
        let (base, window) = ring_window(&ring, wm, 256);
        assert_eq!((base, window.len()), (384, 256));
        let scan = scan_ring(&ring, wm, 256);
        let want: Vec<_> = (6..10)
            .map(|k| (Lsn(64 * k), recs[k as usize].clone()))
            .collect();
        assert_eq!(scan.records, want);
        assert_eq!((scan.skipped, scan.stopped_at), (0, None));
        // Unlapped, the window is the published prefix, borrowed.
        let (base, window) = ring_window(&ring, 200, 256);
        assert!(matches!(window, Cow::Borrowed(b) if b.len() == 200) && base == 0);
    }

    #[test]
    fn older_laps_left_in_the_gaps_are_skipped_not_a_stop() {
        // A lap of inserts, then a lap of commits padded to the same 64
        // bytes: each commit leaves the tail of an older insert behind it.
        let mut recs: Vec<_> = (0..4).map(|k| insert_rec(1, k, b"payload")).collect();
        recs.extend((0..4).map(|t| AuditRecord::Commit { txn: TxnId(t) }));
        let (ring, wm) = ring_of(&recs, 64, 256);
        let scan = scan_ring(&ring, wm, 256);
        assert_eq!(scan.records.len(), 4, "every commit of the window");
        assert!(scan.skipped > 0);
        assert_eq!(scan.stopped_at, None);
        // The same bytes unlapped are a torn record: the scan stops.
        let torn = scan_window(ring[..].into());
        assert_eq!(torn.records.len(), 1);
        assert_eq!(torn.stopped_at, Some(Lsn(18)));
    }

    /// The reader as it was before it skipped zeros a block at a time: one
    /// byte per step. The reference the zero-skip tests hold it to.
    fn bytewise(window: Window<'_>) -> TrailScan {
        let Window { base, bytes } = window;
        let mut out = TrailScan::default();
        let mut pos = 0usize;
        while pos < bytes.len() {
            if bytes[pos] == 0 {
                pos += 1;
                continue;
            }
            match AuditRecord::decode(&bytes[pos..]) {
                Some((rec, used)) => {
                    out.records.push((Lsn(base + pos as u64), rec));
                    pos += used;
                }
                None if base > 0 => {
                    out.skipped += 1;
                    pos += 1;
                }
                None => {
                    out.stopped_at = Some(Lsn(pos as u64));
                    break;
                }
            }
        }
        out
    }

    /// The streaming reader and the bytewise one agree on `window`;
    /// returns what they read.
    fn read_as_bytewise(window: Window<'_>) -> TrailScan {
        let (got, want) = (scan_window(window), bytewise(window));
        assert_eq!(got.records, want.records);
        assert_eq!(
            (got.skipped, got.stopped_at),
            (want.skipped, want.stopped_at)
        );
        got
    }

    /// Every offset of a 32-byte block, and so of each word in it.
    #[test]
    fn records_at_every_offset_of_a_block_are_found() {
        let (first, second) = (
            insert_rec(1, 1, b"x"),
            AuditRecord::Commit { txn: TxnId(1) },
        );
        for lead in 0..=32usize {
            for gap in 0..=33usize {
                let mut bytes = vec![0u8; lead];
                bytes.extend_from_slice(&first.encode());
                bytes.resize(bytes.len() + gap, 0);
                let at = bytes.len() as u64;
                bytes.extend_from_slice(&second.encode());
                let scan = read_as_bytewise(bytes[..].into());
                let lsns: Vec<u64> = scan.records.iter().map(|(l, _)| l.0).collect();
                assert_eq!(lsns, [lead as u64, at], "lead {lead}, gap {gap}");
                assert_eq!(scan.stopped_at, None);
            }
        }
    }

    #[test]
    fn a_window_ending_inside_a_sub_block_zero_run_reads_to_its_end() {
        let rec = AuditRecord::Commit { txn: TxnId(5) }.encode();
        for zeros in 1..32usize {
            for lead in 0..32usize {
                let mut bytes = vec![0u8; lead];
                bytes.extend_from_slice(&rec);
                bytes.resize(bytes.len() + zeros, 0);
                let scan = read_as_bytewise(bytes[..].into());
                assert_eq!((scan.records.len(), scan.stopped_at), (1, None));
                // A torn byte inside the same short run stops the read
                // there, at the same LSN either way.
                let torn = bytes.len() - 1;
                bytes[torn] = MAGIC;
                let scan = read_as_bytewise(bytes[..].into());
                assert_eq!(scan.stopped_at, Some(Lsn(torn as u64)));
                // Lapped, the same byte is a leftover: skipped.
                let lapped = read_as_bytewise(Window {
                    base: 64,
                    bytes: &bytes,
                });
                assert_eq!((lapped.skipped, lapped.stopped_at), (1, None));
            }
        }
    }

    #[test]
    fn a_lapped_window_skips_older_lap_bytes_in_its_gaps_as_bytewise_does() {
        // Inserts of mixed sizes, then commits padded to fewer bytes than
        // an insert: the commits' gaps hold the tails of older inserts at
        // every offset of a word.
        let mut recs: Vec<_> = (0..7)
            .map(|k| insert_rec(k, k, &b"payload-of-some-length"[..k as usize * 3]))
            .collect();
        recs.extend((0..9).map(|t| AuditRecord::Commit { txn: TxnId(t) }));
        for virt in [64u64, 67, 71, 77] {
            let (ring, wm) = ring_of(&recs, virt, 256);
            let (base, window) = ring_window(&ring, wm, 256);
            assert!(base > 0, "virt {virt}: the ring lapped");
            let scan = read_as_bytewise(Window {
                base,
                bytes: &window,
            });
            assert!(scan.skipped > 0, "virt {virt}");
            assert_eq!(scan.stopped_at, None);
        }
    }
}
