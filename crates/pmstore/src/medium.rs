//! The abstract persistent region, and test backings with fault injection.

/// A byte-addressable persistent region.
///
/// Writes are assumed to apply *in order, front to back* (ServerNet
/// delivers packets in order), so a crash can leave a torn write that is
/// always a clean **prefix** of the intended bytes. Crash-consistency
/// proofs in this crate rely only on that prefix property plus CRCs.
pub trait PmMedium {
    fn len(&self) -> u64;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    fn read(&self, off: u64, len: usize) -> Vec<u8>;
    fn write(&mut self, off: u64, data: &[u8]);
}

/// Little-endian u32 at `at`, or `None` when the slice is short: a torn
/// or short record image fails its parse instead of aborting recovery.
pub(crate) fn le_u32(raw: &[u8], at: usize) -> Option<u32> {
    Some(u32::from_le_bytes(raw.get(at..at + 4)?.try_into().ok()?))
}

/// Little-endian u64 at `at`, or `None` when the slice is short.
pub(crate) fn le_u64(raw: &[u8], at: usize) -> Option<u64> {
    Some(u64::from_le_bytes(raw.get(at..at + 8)?.try_into().ok()?))
}

/// Plain in-memory backing.
#[derive(Clone)]
pub struct VecMedium {
    buf: Vec<u8>,
    pub bytes_written: u64,
}

impl VecMedium {
    pub fn new(len: u64) -> Self {
        VecMedium {
            buf: vec![0; len as usize],
            bytes_written: 0,
        }
    }
}

impl PmMedium for VecMedium {
    fn len(&self) -> u64 {
        self.buf.len() as u64
    }
    fn read(&self, off: u64, len: usize) -> Vec<u8> {
        self.buf[off as usize..off as usize + len].to_vec()
    }
    fn write(&mut self, off: u64, data: &[u8]) {
        self.buf[off as usize..off as usize + data.len()].copy_from_slice(data);
        self.bytes_written += data.len() as u64;
    }
}

/// A medium wrapper that *crashes* after a budget of bytes: the write that
/// exhausts the budget is applied only as a prefix, and every later write
/// is dropped. Drives the crash-consistency property tests: for every
/// possible crash point, recovery must see either the old or the new
/// state — never a hybrid that validates.
pub struct TornWriter<M: PmMedium> {
    pub inner: M,
    budget: Option<u64>,
    pub crashed: bool,
}

impl<M: PmMedium> TornWriter<M> {
    pub fn new(inner: M) -> Self {
        TornWriter {
            inner,
            budget: None,
            crashed: false,
        }
    }

    /// Crash after `bytes` more bytes have been written.
    pub fn crash_after(&mut self, bytes: u64) {
        self.budget = Some(bytes);
        self.crashed = false;
    }

    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<M: PmMedium> PmMedium for TornWriter<M> {
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn read(&self, off: u64, len: usize) -> Vec<u8> {
        self.inner.read(off, len)
    }
    fn write(&mut self, off: u64, data: &[u8]) {
        if self.crashed {
            return;
        }
        match &mut self.budget {
            None => self.inner.write(off, data),
            Some(b) => {
                if (data.len() as u64) <= *b {
                    *b -= data.len() as u64;
                    self.inner.write(off, data);
                } else {
                    let keep = *b as usize;
                    if keep > 0 {
                        self.inner.write(off, &data[..keep]);
                    }
                    *b = 0;
                    self.crashed = true;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_medium_roundtrip() {
        let mut m = VecMedium::new(64);
        m.write(10, b"abc");
        assert_eq!(m.read(10, 3), b"abc");
        assert_eq!(m.bytes_written, 3);
    }

    #[test]
    fn torn_writer_applies_prefix_then_drops() {
        let mut t = TornWriter::new(VecMedium::new(64));
        t.crash_after(5);
        t.write(0, &[1, 1, 1]); // 3 bytes, budget 2 left
        t.write(10, &[2, 2, 2, 2]); // only 2 bytes land
        assert!(t.crashed);
        t.write(20, &[3, 3]); // dropped
        let m = t.into_inner();
        assert_eq!(m.read(0, 3), vec![1, 1, 1]);
        assert_eq!(m.read(10, 4), vec![2, 2, 0, 0]);
        assert_eq!(m.read(20, 2), vec![0, 0]);
    }

    #[test]
    fn torn_writer_without_budget_passes_through() {
        let mut t = TornWriter::new(VecMedium::new(16));
        t.write(0, &[9; 16]);
        assert!(!t.crashed);
        assert_eq!(t.read(0, 16), vec![9; 16]);
    }

    #[test]
    fn torn_writer_exact_budget_boundary() {
        let mut t = TornWriter::new(VecMedium::new(16));
        t.crash_after(4);
        t.write(0, &[1; 4]); // exactly exhausts budget without crashing
        assert!(!t.crashed);
        t.write(4, &[2; 1]); // this one crashes with 0 prefix
        assert!(t.crashed);
        assert_eq!(t.read(0, 5), vec![1, 1, 1, 1, 0]);
    }
}
