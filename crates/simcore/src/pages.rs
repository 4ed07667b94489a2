//! The byte store behind every device image (an NPMU's array, a disk's
//! platter): sparse, byte-exact, and sized by what was written.
//!
//! Pages of 4 KiB are keyed by page number. A page holds exactly the span
//! its writes covered, allocated to that length — a 64-byte control cell
//! keeps 64 bytes — until a write would stretch the span past half a page:
//! then the page is full, one block written by a plain copy, as in a block
//! store. What no page holds reads as zeros, like a fresh medium.

use crate::checksum::Checksum64;
use crate::hash::FastMap;

const PAGE: usize = 4096;
static ZEROS: [u8; PAGE] = [0; PAGE];

/// Sparse byte store with write accounting, unbounded or of a fixed
/// capacity; an access past the capacity panics (a device-model bug).
#[derive(Default, Clone)]
pub struct PageStore {
    capacity: Option<u64>,
    /// Page number → block, for pages written past half: a point lookup.
    full: FastMap<u64, Box<[u8; PAGE]>>,
    /// Page number → `(start, bytes)`, the bytes from `start` of the rest.
    spans: FastMap<u64, (usize, Box<[u8]>)>,
    writes: u64,
    bytes_written: u64,
    high_water: u64,
}

impl PageStore {
    pub fn new(capacity: u64) -> Self {
        let capacity = Some(capacity);
        PageStore {
            capacity,
            ..Self::default()
        }
    }

    pub fn capacity(&self) -> u64 {
        self.capacity.unwrap_or(u64::MAX)
    }

    pub fn write(&mut self, offset: u64, data: &[u8]) {
        let mut rest = data;
        for (page, at, n) in self.pieces(offset, data.len() as u64, "write") {
            self.put(page, at, &rest[..n]);
            rest = &rest[n..];
        }
        self.writes += 1;
        self.bytes_written += data.len() as u64;
        self.high_water = self.high_water.max(offset + data.len() as u64);
    }

    /// Apply only the first `applied` bytes of a write — the power-loss
    /// torn-write model (packet-prefix semantics).
    pub fn partial_write(&mut self, offset: u64, data: &[u8], applied: usize) {
        let applied = applied.min(data.len());
        if applied > 0 {
            self.write(offset, &data[..applied]);
        }
    }

    /// Copy `src` to byte `at` of `page`.
    fn put(&mut self, page: u64, at: usize, src: &[u8]) {
        let end = at + src.len();
        if let Some(block) = self.full.get_mut(&page) {
            return block[at..end].copy_from_slice(src);
        }
        let (start, bytes) = self.spans.entry(page).or_insert((at, Box::default()));
        let (s, e) = (*start, *start + bytes.len());
        let (lo, hi) = (s.min(at), e.max(end));
        if hi - lo > PAGE / 2 {
            let mut block = Box::new([0; PAGE]);
            block[s..e].copy_from_slice(bytes);
            block[at..end].copy_from_slice(src);
            self.spans.remove(&page);
            self.full.insert(page, block);
            return;
        }
        if (lo, hi) != (s, e) {
            let mut grown = vec![0; hi - lo].into_boxed_slice();
            grown[s - lo..e - lo].copy_from_slice(bytes);
            (*start, *bytes) = (lo, grown);
        }
        bytes[at - *start..end - *start].copy_from_slice(src);
    }

    /// Hand `f` the `len` bytes at `offset` in order, zeros where unwritten.
    fn visit(&self, offset: u64, len: u64, mut f: impl FnMut(&[u8])) {
        for (page, at, n) in self.pieces(offset, len, "read") {
            let end = at + n;
            if let Some(block) = self.full.get(&page) {
                f(&block[at..end]);
                continue;
            }
            // An absent page is an empty span.
            let (s, bytes) = self
                .spans
                .get(&page)
                .map_or((at, &[][..]), |(s, b)| (*s, b));
            let (lo, hi) = (at.clamp(s, s + bytes.len()), end.clamp(s, s + bytes.len()));
            f(&ZEROS[at..lo.clamp(at, end)]);
            f(&bytes[lo - s..hi - s]);
            f(&ZEROS[hi.clamp(at, end)..end]);
        }
    }

    pub fn read(&self, offset: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        self.visit(offset, len as u64, |s| out.extend_from_slice(s));
        out
    }

    /// [`checksum64`](crate::checksum64) of `len` bytes at `offset`,
    /// computed where they lie. Not a CRC-32 on purpose: the CRC of a
    /// watermark cell `x ‖ crc32(x)` is a constant, so mirrors diverging
    /// only in such a cell would verify clean.
    pub fn digest(&self, offset: u64, len: u64) -> u64 {
        let mut sum = Checksum64::default();
        self.visit(offset, len, |s| sum.update(s));
        sum.finish()
    }

    /// How many of the `len` bytes at `offset` reach the end of the last
    /// page written there: the rest reads as zeros. Scans the whole index.
    pub fn written_extent(&self, offset: u64, len: u64) -> u64 {
        let (end, page) = (offset + len, PAGE as u64);
        let pages = self.full.keys().chain(self.spans.keys());
        let page_ends = pages.map(|&p| (p + 1) * page);
        (page_ends.filter(|&p_end| p_end > offset && p_end - page < end))
            .max()
            .map_or(0, |p_end| p_end.min(end) - offset)
    }

    pub fn writes(&self) -> u64 {
        self.writes
    }

    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Highest byte offset ever written + 1 (media "high-water mark").
    pub fn high_water(&self) -> u64 {
        self.high_water
    }

    /// Number of distinct 4 KiB pages touched.
    pub fn blocks_used(&self) -> usize {
        self.full.len() + self.spans.len()
    }

    /// `(page, offset in page, length)` of each page `len` bytes at `offset` touch.
    fn pieces(&self, offset: u64, len: u64, op: &str) -> impl Iterator<Item = (u64, usize, usize)> {
        assert!(offset + len <= self.capacity(), "{op} beyond capacity");
        let (mut off, end, page) = (offset, offset + len, PAGE as u64);
        std::iter::from_fn(move || {
            let (at, n) = (off, (end - off).min(page - off % page));
            off += n;
            (n > 0).then_some((at / page, (at % page) as usize, n as usize))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum64;
    use proptest::prelude::*;

    /// Bytes the pages hold: each span's length, a whole page when full.
    fn resident(s: &PageStore) -> usize {
        s.full.len() * PAGE + s.spans.values().map(|(_, b)| b.len()).sum::<usize>()
    }

    #[test]
    fn a_small_write_per_page_keeps_only_its_bytes() {
        let mut s = PageStore::new(64 << 20);
        for page in 0..1000 {
            s.write(page * 4096 + 1000, &[0xAB; 64]);
        }
        assert_eq!(s.blocks_used(), 1000);
        assert!(resident(&s) <= 128 * 1000, "{} bytes", resident(&s));
        // A second small write grows the span to cover both, exactly.
        s.write(1200, &[1; 8]);
        assert_eq!(resident(&s), 64 * 1000 + 144);
        // One that would stretch it past half a page makes it full.
        s.write(3500, &[2; 8]);
        assert_eq!(resident(&s), 64 * 999 + PAGE);
        let page = s.read(0, PAGE);
        assert_eq!(
            (page[999], &page[1000..1064], page[1064]),
            (0, &[0xAB; 64][..], 0)
        );
        assert_eq!(
            (&page[1200..1208], &page[3500..3508]),
            (&[1; 8][..], &[2; 8][..])
        );
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// `Some(k)`: a `partial_write` applying `k` bytes (mod len + 1).
        Write(u64, Vec<u8>, Option<usize>),
        Read(u64, u64),
        Digest(u64, u64),
        Extent(u64, u64),
    }

    const CAP: u64 = 16 * PAGE as u64;

    /// Offsets near page edges; lengths that grow a span, cross an edge
    /// or fill a page.
    fn at() -> impl Strategy<Value = u64> {
        (0..16u64, -80i64..80).prop_map(|(p, d)| (p * PAGE as u64).saturating_add_signed(d) % CAP)
    }
    fn range() -> impl Strategy<Value = (u64, u64)> {
        (at(), 0u64..10_000).prop_map(|(o, n)| (o, n.min(CAP - o)))
    }
    fn op() -> impl Strategy<Value = Op> {
        let data = prop_oneof![
            proptest::collection::vec(any::<u8>(), 1..200),
            proptest::collection::vec(any::<u8>(), 1..9000),
        ];
        prop_oneof![
            (
                at(),
                data,
                prop_oneof![Just(None), any::<usize>().prop_map(Some)]
            )
                .prop_map(|(o, d, k)| Op::Write(o, d, k)),
            range().prop_map(|(o, n)| Op::Read(o, n)),
            range().prop_map(|(o, n)| Op::Digest(o, n)),
            range().prop_map(|(o, n)| Op::Extent(o, n)),
        ]
    }

    proptest! {
        /// Against a flat array and the set of pages ever written, every
        /// read, digest and extent agrees, and so does the accounting.
        #[test]
        fn behaves_as_a_flat_array(ops in proptest::collection::vec(op(), 1..60)) {
            let mut s = PageStore::new(CAP);
            let mut flat = vec![0u8; CAP as usize];
            let mut touched = std::collections::BTreeSet::new();
            let (mut writes, mut bytes, mut high) = (0, 0, 0);
            for op in ops {
                match op {
                    Op::Write(o, mut d, partial) => {
                        d.truncate((CAP - o) as usize);
                        let k = partial.map_or(d.len(), |k| k % (d.len() + 1));
                        match partial {
                            Some(_) => s.partial_write(o, &d, k),
                            None => s.write(o, &d),
                        }
                        flat[o as usize..][..k].copy_from_slice(&d[..k]);
                        touched.extend((o..o + k as u64).map(|b| b / PAGE as u64));
                        if k > 0 {
                            (writes, bytes) = (writes + 1, bytes + k as u64);
                            high = high.max(o + k as u64);
                        }
                    }
                    Op::Read(o, n) => {
                        prop_assert_eq!(s.read(o, n as usize), &flat[o as usize..][..n as usize]);
                    }
                    Op::Digest(o, n) => {
                        prop_assert_eq!(s.digest(o, n), checksum64(&flat[o as usize..][..n as usize]));
                    }
                    Op::Extent(o, n) => {
                        let page = PAGE as u64;
                        let want = (touched.iter().map(|p| (p + 1) * page))
                            .filter(|&e| e > o && e - page < o + n)
                            .max()
                            .map_or(0, |e| e.min(o + n) - o);
                        prop_assert_eq!(s.written_extent(o, n), want);
                    }
                }
            }
            prop_assert_eq!((s.writes(), s.bytes_written(), s.high_water()), (writes, bytes, high));
            prop_assert_eq!(s.blocks_used(), touched.len());
            prop_assert!(resident(&s) <= touched.len() * PAGE);
        }
    }

    #[test]
    #[should_panic(expected = "write beyond capacity")]
    fn a_write_past_the_capacity_panics() {
        PageStore::new(100).write(96, &[0; 8]);
    }

    #[test]
    fn an_unbounded_store_reads_zeros_anywhere() {
        let s = PageStore::default();
        assert_eq!(s.read(u64::MAX - 8, 8), vec![0; 8]);
        assert_eq!(s.capacity(), u64::MAX);
    }
}
