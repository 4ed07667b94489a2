//! The platter image, held in the simulation's `DurableStore` so contents
//! survive power loss. Never-written ranges read as zeros, like a freshly
//! formatted volume.

use simcore::pages::PageStore;

/// A disk's platter: an unbounded [`PageStore`] under its own type, which
/// the `DurableStore` looks images up by.
#[derive(Default, Clone)]
pub struct SparseMedia(PageStore);

impl SparseMedia {
    pub fn new() -> Self {
        Self::default()
    }
}

impl std::ops::Deref for SparseMedia {
    type Target = PageStore;
    fn deref(&self) -> &PageStore {
        &self.0
    }
}

impl std::ops::DerefMut for SparseMedia {
    fn deref_mut(&mut self) -> &mut PageStore {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_reads_zero() {
        let m = SparseMedia::new();
        assert_eq!(m.read(12345, 8), vec![0u8; 8]);
    }

    #[test]
    fn write_read_roundtrip_within_block() {
        let mut m = SparseMedia::new();
        m.write(100, b"hello");
        assert_eq!(m.read(100, 5), b"hello");
        assert_eq!(m.read(99, 7), b"\0hello\0");
    }

    #[test]
    fn write_spanning_blocks() {
        let mut m = SparseMedia::new();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        m.write(4090, &data);
        assert_eq!(m.read(4090, data.len()), data);
        // Bytes 4090..14090 touch blocks 0..=3.
        assert_eq!(m.blocks_used(), 4);
    }

    #[test]
    fn overwrite_is_last_writer_wins() {
        let mut m = SparseMedia::new();
        m.write(0, &[1; 16]);
        m.write(8, &[2; 16]);
        let r = m.read(0, 24);
        assert_eq!(&r[..8], &[1; 8]);
        assert_eq!(&r[8..24], &[2; 16]);
    }

    #[test]
    fn high_water_and_accounting() {
        let mut m = SparseMedia::new();
        m.write(1000, &[0xFF; 24]);
        assert_eq!(m.high_water(), 1024);
        assert_eq!(m.bytes_written(), 24);
        m.write(10, &[1; 4]);
        assert_eq!(m.high_water(), 1024);
        assert_eq!(m.bytes_written(), 28);
    }
}
