//! The byte store behind every device image (an NPMU's array, a disk's
//! platter): sparse, byte-exact, and sized by what was written.
//!
//! Pages of 4 KiB are keyed by page number. A page holds the runs its
//! writes covered — disjoint byte ranges, each with its own bytes, so a
//! 64-byte control cell keeps 64 bytes and a lapped trail page keeps its
//! descriptors, not the gaps between them — until more than half of its
//! bytes have been written: then the page is full, one block written by a
//! plain copy, as in a block store. A write that covers a whole page
//! replaces it with the spans of its nonzero 8-byte words — runs while
//! they fill at most half the page, a block otherwise — so a copied or
//! rewritten page is as sparse as its contents. What no page holds reads
//! as zeros, like a fresh medium.

use crate::checksum::Checksum64;
use crate::hash::FastMap;
use std::ops::Range;

const PAGE: usize = 4096;

static ZEROS: [u8; PAGE] = [0; PAGE];

/// Sparse byte store with write accounting, unbounded or of a fixed
/// capacity; an access past the capacity panics (a device-model bug).
#[derive(Default, Clone)]
pub struct PageStore {
    capacity: Option<u64>,
    /// Page number → block, for pages more than half written: a point lookup.
    full: FastMap<u64, Box<[u8; PAGE]>>,
    /// Page number → its runs, for the rest.
    runs: FastMap<u64, Runs>,
    writes: u64,
    bytes_written: u64,
    high_water: u64,
}

/// A page that is not full: a log of its writes, oldest first, each a
/// record of `at: u16`, `len: u16` and the `len` bytes; where two overlap
/// the later wins. A write appends its record until the log would pass
/// twice the bytes the last compaction kept (at least 512, at most half
/// a page); then the log and the write are compacted — if any two
/// overlap, rewritten as the page's maximal runs in offset order, else
/// left as the disjoint runs they are. So a write costs amortised O(1),
/// the written bytes the log holds stay within twice the page's distinct
/// bytes plus 512, and a page goes full exactly when its distinct bytes
/// pass half.
#[derive(Default, Clone)]
struct Runs {
    /// The records, then room for more.
    log: Box<[u8]>,
    /// Log bytes in use.
    len: u16,
    /// Distinct bytes at the last compaction.
    compacted: u16,
    /// Log length at the last compaction, if the log was then disjoint
    /// runs and the page one that rewrites bytes (or its lone first
    /// record); else 0. Only a log of that length is searched for a run
    /// that can take a write in place.
    tail: u16,
}

// A page of runs fills a 32-byte map bucket: the bucket's width is paid
// on every lookup.
const _: () = assert!(std::mem::size_of::<(u64, Runs)>() == 32);

impl Runs {
    /// Log length up to which a write appends rather than compacts.
    fn limit(&self) -> usize {
        limit(self.compacted as usize)
    }

    /// `(offset in page, where its bytes lie in the log)` of the record
    /// that starts at byte `start` of the log.
    fn record(&self, start: usize) -> Option<(usize, Range<usize>)> {
        if start >= self.len as usize {
            return None;
        }
        let head = &self.log[start..start + 4];
        let at = u16::from_le_bytes([head[0], head[1]]) as usize;
        let len = u16::from_le_bytes([head[2], head[3]]) as usize;
        Some((at, start + 4..start + 4 + len))
    }

    /// Each record, oldest first.
    fn records(&self) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
        let mut next = 0;
        std::iter::from_fn(move || {
            let (at, r) = self.record(next)?;
            next = r.end;
            Some((at, r))
        })
    }

    /// The page's `out.len()` bytes from `at` copied into `out`, which
    /// holds zeros: each record's part of them, in order.
    fn read(&self, at: usize, out: &mut [u8]) {
        let end = at + out.len();
        for (a, r) in self.records() {
            let (from, to) = (a.max(at), (a + r.len()).min(end));
            if from < to {
                out[from - at..to - at]
                    .copy_from_slice(&self.log[r.start + from - a..][..to - from]);
            }
        }
    }

    /// The page as it reads: every record copied in order over zeros.
    fn image(&self) -> [u8; PAGE] {
        let mut img = [0; PAGE];
        for (at, r) in self.records() {
            img[at..at + r.len()].copy_from_slice(&self.log[r]);
        }
        img
    }

    /// Copy `src` over the bytes at `at` in place if nothing was appended
    /// since a compaction that found rewritten bytes and one run holds
    /// them all: a page of cells rewritten in turn grows no log, and a
    /// page that has only ever taken fresh bytes is not searched.
    fn overwrite(&mut self, at: usize, src: &[u8]) -> bool {
        if self.len != self.tail {
            return false;
        }
        let end = at + src.len();
        let hit = self.records().find(|(a, r)| *a <= at && end <= a + r.len());
        let Some((a, r)) = hit else {
            return false;
        };
        self.log[r.start + at - a..][..src.len()].copy_from_slice(src);
        true
    }

    /// Write the record of `bytes` at `at` to the log at `len`, growing
    /// the log to `room` bytes first if it cannot hold it. Returns where
    /// the record ends.
    fn put(&mut self, len: usize, at: usize, bytes: &[u8], room: usize) -> usize {
        let need = 4 + bytes.len();
        if self.log.len() < len + need {
            // A `realloc`: the allocator may grow the block where it lies.
            let mut log = std::mem::take(&mut self.log).into_vec();
            let room = room.max(len + need);
            log.reserve_exact(room - log.len());
            log.resize(room, 0);
            self.log = log.into_boxed_slice();
        }
        let record = &mut self.log[len..len + need];
        record[..2].copy_from_slice(&(at as u16).to_le_bytes());
        record[2..4].copy_from_slice(&(bytes.len() as u16).to_le_bytes());
        record[4..].copy_from_slice(bytes);
        len + need
    }

    /// Append the record of a write. A page's first two writes take
    /// exactly their records (most pages never take a third); a later one
    /// that finds the log full takes room up to the limit, so a page
    /// moves its log about once between compactions.
    fn append(&mut self, at: usize, src: &[u8]) {
        let len = self.len as usize;
        // At most one record: nothing, a first write, or one run.
        let lone = len <= 4 + self.compacted as usize;
        self.len = self.put(len, at, src, if lone { 0 } else { self.limit() }) as u16;
        if len == 0 {
            // One record is a compacted log.
            (self.compacted, self.tail) = (src.len() as u16, self.len);
        }
    }

    /// Compact the log with `src` at `at` written last. Returns the whole
    /// page instead when that makes more than half of it written.
    fn compact(&mut self, at: usize, src: &[u8]) -> Option<[u8; PAGE]> {
        let mut mask = [0u64; PAGE / 64];
        let mut overlap = false;
        let records = self.records().map(|(a, r)| (a, r.len()));
        for (a, len) in records.chain([(at, src.len())]) {
            let (mut b, end) = (a, a + len);
            while b < end {
                let n = (64 - b % 64).min(end - b);
                let bits = (u64::MAX >> (64 - n)) << (b % 64);
                overlap |= mask[b / 64] & bits != 0;
                mask[b / 64] |= bits;
                b += n;
            }
        }
        let distinct = mask.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        if distinct <= PAGE / 2 && !overlap {
            // No byte was written twice: the records are the runs already.
            let len = self.put(self.len as usize, at, src, limit(distinct));
            (self.len, self.compacted, self.tail) = (len as u16, distinct as u16, 0);
            return None;
        }
        let mut img = self.image();
        img[at..at + src.len()].copy_from_slice(src);
        if distinct > PAGE / 2 {
            return Some(img);
        }
        // Rewrite the log as the page's runs, where it lies if it fits.
        let mut len = 0;
        for (s, e) in set_runs(&mask) {
            len = self.put(len, s, &img[s..e], limit(distinct));
        }
        (self.len, self.compacted, self.tail) = (len as u16, distinct as u16, len as u16);
        None
    }
}

/// Log length up to which a page that last compacted to `distinct` bytes
/// appends: twice them, at least 512, at most half a page.
fn limit(distinct: usize) -> usize {
    (2 * distinct).clamp(512, PAGE / 2)
}

/// `(start, end)` of each maximal run of set bits in a page's byte mask.
fn set_runs(mask: &[u64; PAGE / 64]) -> impl Iterator<Item = (usize, usize)> + '_ {
    // The first bit at or after `from` that is set (`want`) or clear;
    // PAGE if none is.
    let find = move |from: usize, want: bool| {
        if from == PAGE {
            return PAGE;
        }
        let word = |w: usize| if want { mask[w] } else { !mask[w] };
        let mut w = from / 64;
        let mut bits = word(w) & (u64::MAX << (from % 64));
        while bits == 0 {
            w += 1;
            if w == mask.len() {
                return PAGE;
            }
            bits = word(w);
        }
        w * 64 + bits.trailing_zeros() as usize
    };
    let mut at = 0;
    std::iter::from_fn(move || {
        let start = find(at, true);
        at = find(start, false);
        (start < PAGE).then_some((start, at))
    })
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
        if src.len() == PAGE {
            return self.replace(page, src);
        }
        if let Some(block) = self.full.get_mut(&page) {
            return block[at..at + src.len()].copy_from_slice(src);
        }
        let runs = self.runs.entry(page).or_default();
        if runs.overwrite(at, src) {
            return;
        }
        if runs.len as usize + 4 + src.len() <= runs.limit() {
            return runs.append(at, src);
        }
        if let Some(block) = runs.compact(at, src) {
            self.runs.remove(&page);
            self.full.insert(page, Box::new(block));
        }
    }

    /// Make `page` hold `src`, a whole page: its nonzero 8-byte words as
    /// runs, found word by word, while they are at most half of it; else
    /// a block.
    fn replace(&mut self, page: u64, src: &[u8]) {
        let mut mask = [0u64; PAGE / 64];
        for (w, word) in src.chunks_exact(8).enumerate() {
            let nonzero = u64::from_ne_bytes(word.try_into().unwrap()) != 0;
            mask[w / 8] |= (nonzero as u64 * 0xFF) << (w % 8 * 8);
        }
        let distinct = mask.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        if distinct > PAGE / 2 {
            if let Some(block) = self.full.get_mut(&page) {
                return block.copy_from_slice(src);
            }
            self.runs.remove(&page);
            self.full.insert(page, Box::new(src.try_into().unwrap()));
            return;
        }
        self.full.remove(&page);
        let room = set_runs(&mask).map(|(s, e)| 4 + e - s).sum();
        let mut runs = Runs::default();
        let mut len = 0;
        for (s, e) in set_runs(&mask) {
            len = runs.put(len, s, &src[s..e], room);
        }
        (runs.len, runs.compacted, runs.tail) = (len as u16, distinct as u16, len as u16);
        self.runs.insert(page, runs);
    }

    /// The `len` bytes at `offset`, zeros where unwritten: each page's
    /// block or runs copied straight into a zeroed buffer.
    pub fn read(&self, offset: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        let mut rest = &mut out[..];
        for (page, at, n) in self.pieces(offset, len as u64, "read") {
            let (piece, tail) = std::mem::take(&mut rest).split_at_mut(n);
            rest = tail;
            if let Some(block) = self.full.get(&page) {
                piece.copy_from_slice(&block[at..at + n]);
            } else if let Some(runs) = self.runs.get(&page) {
                runs.read(at, piece);
            }
        }
        out
    }

    /// [`checksum64`](crate::checksum64) of `len` bytes at `offset`,
    /// computed where they lie, a page of runs as its image. Not a CRC-32
    /// on purpose: the CRC of a watermark cell `x ‖ crc32(x)` is a
    /// constant, so mirrors diverging only in such a cell would verify
    /// clean.
    pub fn digest(&self, offset: u64, len: u64) -> u64 {
        let mut sum = Checksum64::default();
        for (page, at, n) in self.pieces(offset, len, "read") {
            let end = at + n;
            if let Some(block) = self.full.get(&page) {
                sum.update(&block[at..end]);
            } else if let Some(runs) = self.runs.get(&page) {
                sum.update(&runs.image()[at..end]);
            } else {
                sum.update(&ZEROS[at..end]);
            }
        }
        sum.finish()
    }

    /// How many of the `len` bytes at `offset` reach the end of the last
    /// page written there: the rest reads as zeros. Looks up the range's
    /// pages from its end down — from the high water's page, if that is
    /// lower — and stops at the first one written.
    pub fn written_extent(&self, offset: u64, len: u64) -> u64 {
        let (end, page) = (offset + len, PAGE as u64);
        let top = end.min(self.high_water.div_ceil(page) * page);
        if top <= offset {
            return 0;
        }
        let written = |p: &u64| self.full.contains_key(p) || self.runs.contains_key(p);
        (offset / page..=(top - 1) / page)
            .rev()
            .find(written)
            .map_or(0, |p| ((p + 1) * page).min(end) - offset)
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
        self.full.len() + self.runs.len()
    }

    /// Bytes the pages hold: each page's run bytes (record headers
    /// aside), a whole page when full.
    pub fn held_bytes(&self) -> usize {
        let runs = self.runs.values().flat_map(Runs::records);
        self.full.len() * PAGE + runs.map(|(_, r)| r.len()).sum::<usize>()
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

    #[test]
    fn a_small_write_per_page_keeps_only_its_bytes() {
        let mut s = PageStore::new(64 << 20);
        for page in 0..1000 {
            s.write(page * 4096 + 1000, &[0xAB; 64]);
        }
        assert_eq!(s.blocks_used(), 1000);
        assert_eq!(s.held_bytes(), 64 * 1000);
        // A second small write adds its own run, not the gap before it.
        s.write(1200, &[1; 8]);
        assert_eq!(s.held_bytes(), 64 * 1000 + 8);
        // The page holds up to half its bytes as runs ...
        s.write(2000, &[2; 1976]);
        s.write(3500, &[3; 8]);
        assert_eq!((s.full.len(), s.held_bytes()), (0, 64 * 999 + 2048));
        // ... and goes full with the next distinct byte.
        s.write(0, &[4]);
        assert_eq!((s.full.len(), s.held_bytes()), (1, 64 * 999 + PAGE));
        let page = s.read(0, PAGE);
        assert_eq!(
            (page[0], page[1], page[999], &page[1000..1064], page[1064]),
            (4, 0, 0, &[0xAB; 64][..], 0)
        );
        assert_eq!(
            (
                &page[1200..1208],
                &page[2000..3500],
                &page[3500..3508],
                page[3976]
            ),
            (&[1; 8][..], &[2; 1500][..], &[3; 8][..], 0)
        );
    }

    #[test]
    fn a_whole_page_write_keeps_its_nonzero_words() {
        let mut s = PageStore::new(16 * PAGE as u64);
        // A copied page of sparse records: 100-byte records 1 KiB apart,
        // each ending mid-word, and a nonzero word of one set bit.
        let mut page = [0u8; PAGE];
        for r in 0..4 {
            page[r * 1024..][..100].fill(0xC7);
        }
        page[4000] = 1;
        s.write(0, &page);
        assert_eq!((s.full.len(), s.held_bytes()), (0, 4 * 104 + 8));
        assert!(s.read(0, PAGE) == page);
        // Whole pages: all zeros; just above and just below half nonzero.
        let words = |k: usize| {
            let mut p = [0u8; PAGE];
            (0..k).for_each(|w| p[16 * w % PAGE + 16 * w / PAGE * 8] = 0x5A);
            p
        };
        s.write(PAGE as u64, &[0; PAGE]);
        s.write(2 * PAGE as u64, &words(257));
        s.write(3 * PAGE as u64, &words(256));
        assert_eq!((s.blocks_used(), s.full.len()), (4, 1));
        assert_eq!(s.held_bytes(), 4 * 104 + 8 + PAGE + 256 * 8);
        assert_eq!(s.written_extent(0, 5 * PAGE as u64), 4 * PAGE as u64);
        // A block rewritten sparse drops the bytes under its zero words.
        s.write(2 * PAGE as u64, &page);
        assert_eq!(s.full.len(), 0);
        assert!(s.read(2 * PAGE as u64, PAGE) == page);
        assert_eq!(s.held_bytes(), 2 * (4 * 104 + 8) + 256 * 8);
        let flat = [&page[..], &[0; PAGE], &page, &words(256)].concat();
        assert!(s.read(0, 4 * PAGE) == flat);
        assert_eq!(
            s.digest(100, 4 * PAGE as u64 - 200),
            checksum64(&flat[100..4 * PAGE - 100])
        );
    }

    /// A PM trail: 52-byte records at a 4,136-byte stride around a 1 MiB
    /// ring, ten laps, so every page takes about ten runs at offsets that
    /// differ from lap to lap. No page's distinct bytes reach half of it.
    #[test]
    fn a_lapped_ring_keeps_its_runs() {
        const RING: u64 = 1 << 20;
        let mut s = PageStore::new(RING);
        let (mut flat, mut written) = (vec![0; RING as usize], vec![false; RING as usize]);
        for i in 0..10 * RING / 4136 {
            let at = i * 4136 % RING;
            let len = 52.min(RING - at) as usize;
            let record = [i as u8 | 1; 52];
            s.write(at, &record[..len]);
            flat[at as usize..][..len].copy_from_slice(&record[..len]);
            written[at as usize..][..len].fill(true);
        }
        let distinct = written.iter().filter(|&&w| w).count();
        assert_eq!((s.blocks_used(), s.full.len()), (256, 0));
        assert!(
            s.held_bytes() <= 2 * distinct + 512 * s.blocks_used(),
            "{} bytes held for {distinct} distinct",
            s.held_bytes()
        );
        assert!(s.read(0, RING as usize) == flat);
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
    /// A page of `k` nonzero 8-byte words among zero ones, placed by
    /// `seed` side by side or scattered; every third holds one nonzero
    /// byte among zeros.
    fn page(k: usize, seed: u64) -> Vec<u8> {
        let words = PAGE / 8;
        let stride = if seed & 1 == 0 {
            1
        } else {
            (seed >> 32) as usize | 1
        };
        let mut page = vec![0; PAGE];
        for i in 0..k {
            let w = (seed as usize / 2 + i * stride) % words;
            let v = match i % 3 {
                0 => 1u64 << (seed.wrapping_add(i as u64) % 64),
                _ => seed.wrapping_mul(2 * i as u64 + 1) | 1,
            };
            page[w * 8..][..8].copy_from_slice(&v.to_le_bytes());
        }
        page
    }
    /// Page-aligned writes of one to three pages, each all zeros, just
    /// below or above half nonzero, or anything up to all nonzero.
    fn pages() -> impl Strategy<Value = (u64, Vec<u8>)> {
        let words = prop_oneof![Just(0usize), 254..259usize, 0..513usize, Just(512usize)];
        let fills = proptest::collection::vec((words, any::<u64>()), 1..4);
        (0..16u64, fills).prop_map(|(p, fills)| {
            let data = fills.iter().flat_map(|&(k, seed)| page(k, seed));
            (p * PAGE as u64, data.collect())
        })
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
            pages().prop_map(|(o, d)| Op::Write(o, d, None)),
            range().prop_map(|(o, n)| Op::Read(o, n)),
            range().prop_map(|(o, n)| Op::Digest(o, n)),
            range().prop_map(|(o, n)| Op::Extent(o, n)),
        ]
    }

    /// Mark in `held` the bytes a write of `d` at `o` leaves the pages
    /// holding: a page it covers whole, its nonzero 8-byte words alone;
    /// any other, what it held and the bytes written.
    fn cover(held: &mut [bool], o: usize, d: &[u8]) {
        held[o..o + d.len()].fill(true);
        for p in o.div_ceil(PAGE)..(o + d.len()) / PAGE {
            for (w, word) in d[p * PAGE - o..][..PAGE].chunks(8).enumerate() {
                held[p * PAGE + w * 8..][..8].fill(word.iter().any(|&b| b != 0));
            }
        }
    }

    /// The reference `written_extent`: a scan of the whole page index.
    fn scanned_extent(s: &PageStore, offset: u64, len: u64) -> u64 {
        let (end, page) = (offset + len, PAGE as u64);
        let pages = s.full.keys().chain(s.runs.keys());
        let page_ends = pages.map(|&p| (p + 1) * page);
        (page_ends.filter(|&p_end| p_end > offset && p_end - page < end))
            .max()
            .map_or(0, |p_end| p_end.min(end) - offset)
    }

    proptest! {
        /// Over random sets of written pages — sparse, full, or a lone
        /// byte — and random ranges, looking down from the range's end
        /// finds what scanning the whole index finds.
        #[test]
        fn written_extent_matches_a_scan_of_the_index(
            pages in proptest::collection::vec((0u64..256, 0usize..PAGE, 1usize..PAGE + 1), 0..40),
            ranges in proptest::collection::vec((0u64..257 * PAGE as u64, 0u64..64 * PAGE as u64), 1..40),
        ) {
            let cap = 256 * PAGE as u64;
            let mut s = PageStore::new(cap);
            for (p, at, n) in pages {
                let n = n.min(PAGE - at);
                s.write(p * PAGE as u64 + at as u64, &vec![0xA5; n]);
            }
            for (o, n) in ranges {
                let (o, n) = (o.min(cap), n.min(cap - o.min(cap)));
                prop_assert_eq!(s.written_extent(o, n), scanned_extent(&s, o, n), "range {}+{}", o, n);
            }
        }

        /// Against a flat array and the set of pages ever written, every
        /// read, digest and extent agrees, and so does the accounting.
        /// Whole-page writes carry zero words: all-zero pages, pages just
        /// either side of half nonzero, blocks rewritten sparse.
        #[test]
        fn behaves_as_a_flat_array(ops in proptest::collection::vec(op(), 1..60)) {
            let mut s = PageStore::new(CAP);
            let mut flat = vec![0u8; CAP as usize];
            let mut touched = std::collections::BTreeSet::new();
            let mut held = vec![false; CAP as usize];
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
                        cover(&mut held, o as usize, &d[..k]);
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
            prop_assert!(s.held_bytes() <= touched.len() * PAGE);
            // A page that is not full holds at most twice its distinct
            // bytes plus 512, and a full page has more than half held.
            let distinct = |page: u64| held[page as usize * PAGE..][..PAGE].iter().filter(|&&h| h).count();
            for (&page, runs) in &s.runs {
                let (distinct, held) = (distinct(page), runs.records().map(|(_, r)| r.len()).sum::<usize>());
                prop_assert!(distinct <= PAGE / 2 && held <= 2 * distinct + 512, "page {}: {} held, {} distinct", page, held, distinct);
            }
            for &page in s.full.keys() {
                prop_assert!(distinct(page) > PAGE / 2, "page {}: full with {} distinct", page, distinct(page));
            }
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
