//! The device's memory array: a [`PageStore`] of the device's capacity,
//! which allocates only what was written. Its `partial_write` is the torn-
//! write model: ServerNet delivers packets in order, so a transfer cut by
//! power loss applies a *prefix* at packet granularity.

/// The scrub's 64-bit content checksum (shared tree-wide in
/// [`simcore::checksum`]); re-exported for existing call sites.
pub use simcore::checksum::checksum64;
use simcore::pages::PageStore;

/// Non-volatile memory image of one NPMU, under its own type, which the
/// `DurableStore` looks images up by.
pub struct NvImage(PageStore);

impl NvImage {
    pub fn new(capacity: u64) -> Self {
        NvImage(PageStore::new(capacity))
    }
}

impl std::ops::Deref for NvImage {
    type Target = PageStore;
    fn deref(&self) -> &PageStore {
        &self.0
    }
}

impl std::ops::DerefMut for NvImage {
    fn deref_mut(&mut self) -> &mut PageStore {
        &mut self.0
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
