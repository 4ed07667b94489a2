//! The device's memory array.
//!
//! Fixed logical capacity, sparse physical representation (4 KB blocks) so
//! simulating a multi-hundred-megabyte NPMU doesn't allocate it all.
//! Includes the partial-write primitive the crash-consistency tests use:
//! ServerNet delivers packets in order, so a transfer interrupted by power
//! loss applies a *prefix* at packet granularity — never interleaved
//! fragments.

use simcore::hash::FastMap;

const BLOCK: u64 = 4096;
/// What an absent block reads as.
static ZERO_BLOCK: [u8; BLOCK as usize] = [0; BLOCK as usize];

/// 64-bit content checksum used by the device-side scrub: the NIC
/// digests a range locally so mirror comparison ships 8 bytes instead of
/// the chunk. The implementation is shared tree-wide in
/// [`simcore::checksum`]; this re-export keeps existing call sites.
pub use simcore::checksum::checksum64;
use simcore::checksum::Checksum64;

/// Non-volatile memory image of one NPMU.
pub struct NvImage {
    capacity: u64,
    /// Block number → block. Only ever looked up by point.
    blocks: FastMap<u64, Box<[u8; BLOCK as usize]>>,
    writes: u64,
    bytes_written: u64,
}

impl NvImage {
    pub fn new(capacity: u64) -> Self {
        NvImage {
            capacity,
            blocks: FastMap::default(),
            writes: 0,
            bytes_written: 0,
        }
    }

    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Write `data` at `offset`. Panics if out of range — the ATT layer
    /// rejects such requests before they get here, so reaching this is a
    /// device-model bug.
    pub fn write(&mut self, offset: u64, data: &[u8]) {
        assert!(
            offset + data.len() as u64 <= self.capacity,
            "NvImage write beyond capacity"
        );
        let mut off = offset;
        let mut rest = data;
        while !rest.is_empty() {
            let blk = off / BLOCK;
            let in_blk = (off % BLOCK) as usize;
            let n = rest.len().min(BLOCK as usize - in_blk);
            let block = self
                .blocks
                .entry(blk)
                .or_insert_with(|| Box::new([0u8; BLOCK as usize]));
            block[in_blk..in_blk + n].copy_from_slice(&rest[..n]);
            off += n as u64;
            rest = &rest[n..];
        }
        self.writes += 1;
        self.bytes_written += data.len() as u64;
    }

    /// Apply only the first `applied` bytes of a write — the power-loss
    /// torn-write model (packet-prefix semantics).
    pub fn partial_write(&mut self, offset: u64, data: &[u8], applied: usize) {
        let applied = applied.min(data.len());
        if applied > 0 {
            self.write(offset, &data[..applied]);
        }
    }

    /// `len` bytes at `offset`. Each byte is written once: copied from
    /// its block, or zero where the block is absent.
    pub fn read(&self, offset: u64, len: usize) -> Vec<u8> {
        assert!(
            offset + len as u64 <= self.capacity,
            "NvImage read beyond capacity"
        );
        let mut out = Vec::with_capacity(len);
        let mut off = offset;
        while out.len() < len {
            let in_blk = (off % BLOCK) as usize;
            let n = (len - out.len()).min(BLOCK as usize - in_blk);
            let block = self
                .blocks
                .get(&(off / BLOCK))
                .map_or(&ZERO_BLOCK, |b| &**b);
            out.extend_from_slice(&block[in_blk..in_blk + n]);
            off += n as u64;
        }
        out
    }

    /// How many of the `len` bytes at `offset` reach the end of the last
    /// block ever written there (clamped to the range): past them the
    /// range reads as zeros, so a reader that zero-pads need not read
    /// further. A scan of the whole block index — meant for offline
    /// readers of an image, not for the device's data path.
    pub fn written_extent(&self, offset: u64, len: u64) -> u64 {
        let end = offset + len;
        self.blocks
            .keys()
            .map(|&blk| (blk + 1) * BLOCK)
            .filter(|&blk_end| blk_end > offset && blk_end - BLOCK < end)
            .max()
            .map_or(0, |blk_end| blk_end.min(end) - offset)
    }

    /// [`checksum64`] of `len` bytes at `offset`, computed over the
    /// sparse blocks where they lie: nothing is copied out, and an absent
    /// block digests as the zeros it reads as. Deliberately NOT a CRC-32:
    /// every watermark cell in the system is stored as `x ‖ crc32(x)`, and
    /// the CRC of a message followed by its own CRC is a constant — a CRC
    /// digest of a chunk that starts with such a cell is the same for
    /// every `x`, so mirrors diverging only in a cell would verify clean.
    pub fn digest(&self, offset: u64, len: u64) -> u64 {
        assert!(
            offset + len <= self.capacity,
            "NvImage digest beyond capacity"
        );
        let mut sum = Checksum64::default();
        let mut off = offset;
        let end = offset + len;
        while off < end {
            let in_blk = (off % BLOCK) as usize;
            let n = (end - off).min(BLOCK - in_blk as u64) as usize;
            let block = self
                .blocks
                .get(&(off / BLOCK))
                .map_or(&ZERO_BLOCK, |b| &**b);
            sum.update(&block[in_blk..in_blk + n]);
            off += n as u64;
        }
        sum.finish()
    }

    pub fn writes(&self) -> u64 {
        self.writes
    }

    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_zero_fill() {
        let mut m = NvImage::new(1 << 20);
        m.write(4000, b"persist");
        assert_eq!(m.read(4000, 7), b"persist");
        assert_eq!(m.read(0, 4), vec![0; 4]);
    }

    #[test]
    fn spans_blocks() {
        let mut m = NvImage::new(1 << 20);
        let data: Vec<u8> = (0..9000u32).map(|i| (i % 256) as u8).collect();
        m.write(4095, &data);
        assert_eq!(m.read(4095, 9000), data);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn write_beyond_capacity_panics() {
        let mut m = NvImage::new(100);
        m.write(96, &[0; 8]);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn read_beyond_capacity_panics() {
        let m = NvImage::new(100);
        let _ = m.read(64, 64);
    }

    #[test]
    fn partial_write_applies_prefix_only() {
        let mut m = NvImage::new(1 << 16);
        m.write(0, &[0xEE; 16]);
        m.partial_write(0, &[0x11; 16], 5);
        let r = m.read(0, 16);
        assert_eq!(&r[..5], &[0x11; 5]);
        assert_eq!(&r[5..], &[0xEE; 11]);
    }

    #[test]
    fn partial_write_zero_is_noop() {
        let mut m = NvImage::new(1 << 16);
        m.partial_write(0, &[1; 8], 0);
        assert_eq!(m.read(0, 8), vec![0; 8]);
        assert_eq!(m.writes(), 0);
    }

    #[test]
    fn partial_write_clamps_to_len() {
        let mut m = NvImage::new(1 << 16);
        m.partial_write(0, &[1; 8], 100);
        assert_eq!(m.read(0, 8), vec![1; 8]);
    }

    proptest::proptest! {
        /// The in-place digest is the digest of what a read returns, at
        /// any alignment, across block edges and over absent blocks.
        #[test]
        fn digest_matches_checksum_of_read(
            writes in proptest::collection::vec(
                (0u64..60_000, proptest::collection::vec(proptest::prelude::any::<u8>(), 1..6000)),
                0..4,
            ),
            off in 0u64..40_000,
            len in 0u64..25_000,
        ) {
            let mut m = NvImage::new(1 << 16);
            for (at, data) in &writes {
                let n = data.len().min((m.capacity() - at) as usize);
                m.write(*at, &data[..n]);
            }
            proptest::prop_assert_eq!(m.digest(off, len), checksum64(&m.read(off, len as usize)));
        }
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn digest_beyond_capacity_panics() {
        let m = NvImage::new(100);
        let _ = m.digest(64, 64);
    }

    #[test]
    fn written_extent_ends_at_the_last_written_block_in_range() {
        let mut m = NvImage::new(1 << 20);
        assert_eq!(m.written_extent(0, 1 << 20), 0);
        m.write(5000, &[7; 10]);
        m.write(40_000, &[0; 1]);
        // The block holding 40_000 ends at 40_960; it counts although
        // only a zero was written to it.
        assert_eq!(m.written_extent(0, 1 << 20), 40_960);
        assert_eq!(m.written_extent(100, 1 << 16), 40_860);
        // Clamped to the range, and blind to blocks outside it.
        assert_eq!(m.written_extent(4096, 1000), 1000);
        assert_eq!(m.written_extent(8192, 4096), 0);
        assert_eq!(m.written_extent(41_000, 1000), 0);
    }

    proptest::proptest! {
        /// Reading only the written extent and zero-padding to the range
        /// gives exactly what reading the whole range gives.
        #[test]
        fn written_extent_padded_reads_as_the_whole_range(
            writes in proptest::collection::vec((0u64..60_000, 1usize..6000), 0..4),
            off in 0u64..40_000,
            len in 0u64..25_000,
        ) {
            let mut m = NvImage::new(1 << 16);
            for &(at, n) in &writes {
                let n = n.min((m.capacity() - at) as usize);
                m.write(at, &vec![0xA5; n]);
            }
            let mut padded = m.read(off, m.written_extent(off, len) as usize);
            padded.resize(len as usize, 0);
            proptest::prop_assert_eq!(padded, m.read(off, len as usize));
        }
    }

    #[test]
    fn accounting() {
        let mut m = NvImage::new(1 << 16);
        m.write(0, &[1; 10]);
        m.write(100, &[2; 20]);
        assert_eq!(m.writes(), 2);
        assert_eq!(m.bytes_written(), 30);
    }
}
