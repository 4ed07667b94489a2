//! Adapter: an NPMU memory window as a `pmstore::PmMedium`.
//!
//! The paper's long-term vision (§5.1) is PM "completely integrated into
//! the memory hierarchy" — persistent data structures updated in place.
//! In the simulation, the device's memory image is shared state
//! (`Image<NvImage>`); this adapter exposes one region window of it with
//! `PmMedium` semantics so every `pmstore` structure — heap, B-tree,
//! lock table, TCBs, redo log — runs unchanged against the device.
//!
//! Note on fidelity: going through the adapter models the *state*, not
//! the fabric latency — it is the device-local view used for recovery and
//! for structure-level experiments. Timed access goes through
//! `pmclient::PmLib` RDMA as usual.

use npmu::NvImage;
use pmstore::PmMedium;
use simcore::durable::Image;

/// A `[base, base+len)` window of an NPMU image, as a persistent medium.
#[derive(Clone)]
pub struct NvMedium {
    image: Image<NvImage>,
    base: u64,
    len: u64,
}

impl NvMedium {
    pub fn new(image: Image<NvImage>, base: u64, len: u64) -> Self {
        assert!(
            base + len <= image.lock().capacity(),
            "window exceeds device capacity"
        );
        NvMedium { image, base, len }
    }
}

impl PmMedium for NvMedium {
    fn len(&self) -> u64 {
        self.len
    }

    fn read(&self, off: u64, len: usize) -> Vec<u8> {
        assert!(off + len as u64 <= self.len, "read beyond window");
        self.image.lock().read(self.base + off, len)
    }

    fn write(&mut self, off: u64, data: &[u8]) {
        assert!(off + data.len() as u64 <= self.len, "write beyond window");
        self.image.lock().write(self.base + off, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmstore::{PmBTree, PmQueue};
    use simcore::Shared;

    fn device(capacity: u64) -> Image<NvImage> {
        Shared::new(NvImage::new(capacity))
    }

    #[test]
    fn window_offsets_are_relative() {
        let img = device(1 << 20);
        let mut w = NvMedium::new(img.clone(), 4096, 8192);
        w.write(0, b"hello");
        assert_eq!(w.read(0, 5), b"hello");
        // Landed at device offset base+0.
        assert_eq!(img.lock().read(4096, 5), b"hello");
    }

    #[test]
    #[should_panic(expected = "beyond window")]
    fn out_of_window_write_panics() {
        let img = device(1 << 20);
        let mut w = NvMedium::new(img, 0, 64);
        w.write(60, &[0; 8]);
    }

    #[test]
    fn btree_lives_on_the_device_and_survives_reopen() {
        let img = device(4 << 20);
        let mut w = NvMedium::new(img.clone(), 0, 2 << 20);
        let mut t = PmBTree::format(&mut w, 0, 2 << 20);
        for k in 0..200u64 {
            t.insert(&mut w, k, k * 7).unwrap();
        }
        let _ = t;
        drop(w);
        // "Power loss": only the image survives; reopen through a fresh
        // adapter and recover.
        let mut w2 = NvMedium::new(img, 0, 2 << 20);
        let t2 = PmBTree::recover(&mut w2, 0, 2 << 20).unwrap();
        t2.check(&w2);
        assert_eq!(t2.get(&w2, 123).unwrap(), Some(861));
        assert_eq!(t2.len(&w2).unwrap(), 200);
    }

    #[test]
    fn queue_on_device() {
        let img = device(1 << 20);
        let mut w = NvMedium::new(img, 1024, PmQueue::required_len(16, 32) + 64);
        let q = PmQueue::format(&mut w, 0, 16, 32);
        assert!(q.enqueue(&mut w, b"order-1"));
        assert_eq!(q.dequeue(&mut w).unwrap(), b"order-1");
    }
}
