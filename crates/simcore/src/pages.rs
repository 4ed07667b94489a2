//! The byte store behind every device image (an NPMU's array, a disk's
//! platter): sparse, byte-exact, and sized by what was written.
//!
//! Pages of 4 KiB are keyed by page number. A page holds the runs its
//! writes covered — disjoint byte ranges, each with its own bytes, so a
//! 64-byte control cell keeps 64 bytes and a lapped trail page keeps its
//! descriptors, not the gaps between them — until more than half of its
//! bytes have been written: then the page is full, one block written by a
//! plain copy, as in a block store, and it stays a block when a span's
//! zeros later cover part of it. A write that covers a whole page
//! replaces it with the spans of its nonzero 8-byte words — runs while
//! they fill at most half the page, a block otherwise — so a copied or
//! rewritten page is as sparse as its contents. What no page holds reads
//! as zeros, like a fresh medium.
//!
//! A write lands with its whole span ([`PageStore::write_span`]): its
//! payload, then zeros to the span's end, which a page of runs holds as
//! nothing — the runs they cover are cut out of its log — and a block
//! holds as zero bytes; each page the span touches is marked written. So
//! a compact append's virtual tail reads as zeros, and a lapped trail
//! page holds one lap's descriptors, not every lap's.

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
    /// Page number → page, for every page written: one lookup finds it.
    pages: FastMap<u64, Page>,
    writes: u64,
    bytes_written: u64,
    high_water: u64,
}

/// A written page: its runs, or a block once more than half of it has
/// been written.
#[derive(Clone)]
enum Page {
    Runs(Runs),
    Block(Box<[u8; PAGE]>),
}

impl Default for Page {
    fn default() -> Self {
        Page::Runs(Runs::default())
    }
}

// A page fills a 32-byte map bucket, as a page of runs alone would: the
// bucket's width is paid on every lookup.
const _: () = assert!(std::mem::size_of::<(u64, Page)>() == 32);

/// A page that is not full: a log of its writes, oldest first, each a
/// record of `at: u16`, `len: u16` and the `len` bytes; where two overlap
/// the later wins. A write appends its record until the log would pass
/// twice the bytes the last compaction kept (at least 512, at most half
/// a page); then the log and the write are compacted — if any two
/// overlap, rewritten as the page's maximal runs in offset order, else
/// left as the disjoint runs they are. So a write costs amortised O(1),
/// the written bytes the log holds stay within twice the page's distinct
/// bytes plus 512, and a page goes full when its distinct bytes pass
/// half. A block stays a block when a span's zeros cover part of it: it
/// may hold fewer distinct bytes than that until a write covers it whole.
/// A span's zeros cut a page's log in place ([`Runs::trim`]).
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

    /// Cut the bytes of `zeros` out of every record, in place, in one walk
    /// of the log: a record inside the range goes and one across an end
    /// of it is cut short. A record across both ends would become two, so
    /// the log is rewritten instead as the page's runs less the range
    /// ([`Runs::clear`]). The records left are held to the bound a
    /// compaction keeps: if they lie in offset order, each past the last,
    /// they are disjoint runs and their bytes are the page's distinct
    /// bytes; otherwise the page's distinct bytes are not known, and a log
    /// holding more than 512 bytes is compacted.
    fn trim(&mut self, zeros: Range<usize>) {
        let (z0, z1) = (zeros.start, zeros.end);
        let (mut r, mut w, len) = (0, 0, self.len as usize);
        let (mut cut, mut held, mut sorted, mut last) = (false, 0, true, 0);
        while let Some((a, bytes)) = self.record(r) {
            let b = a + bytes.len();
            if a < z0 && z1 < b {
                // Close the gap the walk left, then clear the range.
                self.log.copy_within(r..len, w);
                self.len = (w + len - r) as u16;
                return self.clear(zeros);
            }
            // What is left of the record: all of it, one end, or nothing.
            let (s, e) = if a < z0 {
                (a, b.min(z0))
            } else {
                (a.max(z1), b)
            };
            if (s, e) == (a, b) {
                if w < r {
                    self.log.copy_within(r..bytes.end, w);
                }
                w += bytes.end - r;
            } else {
                cut = true;
                if s < e {
                    self.log
                        .copy_within(bytes.start + s - a..bytes.start + e - a, w + 4);
                    self.log[w..w + 2].copy_from_slice(&(s as u16).to_le_bytes());
                    self.log[w + 2..w + 4].copy_from_slice(&((e - s) as u16).to_le_bytes());
                    w += 4 + e - s;
                }
            }
            if s < e {
                (held, sorted, last) = (held + e - s, sorted && last <= s, e);
            }
            r = bytes.end;
        }
        if !cut {
            return;
        }
        let runs = self.tail == self.len;
        self.len = w as u16;
        if sorted {
            (self.compacted, self.tail) = (held as u16, if runs { w as u16 } else { 0 });
        } else {
            (self.compacted, self.tail) = (0, 0);
            if held > 512 {
                self.compact(0, &[]);
            }
        }
    }

    /// Rewrite the log as the page's runs less the bytes of `zeros`: what
    /// a trim does when a record lies across both ends of them. Kept out
    /// of line, so that the page image it builds does not widen every
    /// trim's stack frame.
    #[cold]
    #[inline(never)]
    fn clear(&mut self, zeros: Range<usize>) {
        let (mut mask, _) = self.mask(0..0);
        words(zeros, |i, bits| mask[i] &= !bits);
        let img = self.image();
        self.rewrite(&mask, &img);
    }

    /// The bytes the records and `extra` cover, as a page's byte mask, and
    /// whether any byte is covered twice.
    fn mask(&self, extra: Range<usize>) -> ([u64; PAGE / 64], bool) {
        let mut mask = [0u64; PAGE / 64];
        let mut overlap = false;
        let records = self.records().map(|(a, r)| a..a + r.len());
        for range in records.chain([extra]) {
            words(range, |i, bits| {
                overlap |= mask[i] & bits != 0;
                mask[i] |= bits;
            });
        }
        (mask, overlap)
    }

    /// Compact the log with `src` at `at` written last (nothing, if `src`
    /// is empty). Returns the whole page instead when that makes more
    /// than half of it written. Out of line, as [`Runs::clear`] is, for
    /// its page image: a page compacts once per log's worth of appends.
    #[inline(never)]
    fn compact(&mut self, at: usize, src: &[u8]) -> Option<[u8; PAGE]> {
        let (mask, overlap) = self.mask(at..at + src.len());
        let distinct = mask.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        if distinct <= PAGE / 2 && !overlap {
            // No byte was written twice: the records are the runs already.
            let len = match src {
                [] => self.len as usize,
                _ => self.put(self.len as usize, at, src, limit(distinct)),
            };
            (self.len, self.compacted, self.tail) = (len as u16, distinct as u16, 0);
            return None;
        }
        let mut img = self.image();
        img[at..at + src.len()].copy_from_slice(src);
        if distinct > PAGE / 2 {
            return Some(img);
        }
        self.rewrite(&mask, &img);
        None
    }

    /// Rewrite the log as the runs of `mask` (at most half a page), their
    /// bytes taken from `img`, where the log lies if it fits.
    fn rewrite(&mut self, mask: &[u64; PAGE / 64], img: &[u8; PAGE]) {
        let distinct = mask.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        let mut len = 0;
        for (s, e) in set_runs(mask) {
            len = self.put(len, s, &img[s..e], limit(distinct));
        }
        (self.len, self.compacted, self.tail) = (len as u16, distinct as u16, len as u16);
    }
}

/// Log length up to which a page that last compacted to `distinct` bytes
/// appends: twice them, at least 512, at most half a page.
fn limit(distinct: usize) -> usize {
    (2 * distinct).clamp(512, PAGE / 2)
}

/// Call `f` with `(word, bits)` for each word of a page's byte mask that
/// `range` covers.
fn words(range: Range<usize>, mut f: impl FnMut(usize, u64)) {
    let mut b = range.start;
    while b < range.end {
        let n = (64 - b % 64).min(range.end - b);
        f(b / 64, (u64::MAX >> (64 - n)) << (b % 64));
        b += n;
    }
}

/// `(start, end)` of each maximal run of set bits in a page's byte mask.
fn set_runs(mask: &[u64; PAGE / 64]) -> impl Iterator<Item = (usize, usize)> + Clone + '_ {
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
        self.write_span(offset, data, data.len() as u64);
    }

    /// Write `data` at `offset`, then zeros to `offset + span` (a span
    /// shorter than `data` is `data`'s): the whole span lands, as one
    /// write. Each page it covers is visited once, with one map lookup,
    /// and marked written. The zeros cut the runs under them out of the
    /// page's log, so a page of runs holds none of the bytes they cover;
    /// a block takes them as bytes; and a page covered whole — payload
    /// and zeros together — keeps only its nonzero words.
    pub fn write_span(&mut self, offset: u64, data: &[u8], span: u64) {
        let span = span.max(data.len() as u64);
        let mut rest = data;
        for (page, at, n) in self.pieces(offset, span, "write") {
            let (src, tail) = rest.split_at(rest.len().min(n));
            self.put(page, at, src, at + n);
            rest = tail;
        }
        self.writes += 1;
        self.bytes_written += span;
        self.high_water = self.high_water.max(offset + span);
    }

    /// Apply only the first `applied` bytes of a write — the power-loss
    /// torn-write model (packet-prefix semantics).
    pub fn partial_write(&mut self, offset: u64, data: &[u8], applied: usize) {
        let applied = applied.min(data.len());
        if applied > 0 {
            self.write(offset, &data[..applied]);
        }
    }

    /// Copy `src` to byte `at` of `page`, then zeros up to byte `end`.
    fn put(&mut self, page: u64, at: usize, src: &[u8], end: usize) {
        if end - at == PAGE {
            return self.replace(page, src);
        }
        let zeros = at + src.len()..end;
        let slot = self.pages.entry(page).or_default();
        let runs = match slot {
            Page::Runs(runs) => runs,
            Page::Block(block) => {
                block[at..at + src.len()].copy_from_slice(src);
                return block[zeros].fill(0);
            }
        };
        if !zeros.is_empty() {
            runs.trim(zeros);
        }
        if src.is_empty() || runs.overwrite(at, src) {
            return;
        }
        if runs.len as usize + 4 + src.len() <= runs.limit() {
            return runs.append(at, src);
        }
        if let Some(block) = runs.compact(at, src) {
            *slot = Page::Block(Box::new(block));
        }
    }

    /// Make `page` hold `src` followed by zeros, a whole page: its nonzero
    /// 8-byte words as runs, found word by word, while they are at most
    /// half of it; else a block.
    fn replace(&mut self, page: u64, src: &[u8]) {
        let mut mask = [0u64; PAGE / 64];
        let mut words = src.chunks_exact(8);
        let mut w = 0;
        let mut mark = |word: u64| {
            mask[w / 8] |= ((word != 0) as u64 * 0xFF) << (w % 8 * 8);
            w += 1;
        };
        for word in &mut words {
            mark(u64::from_ne_bytes(word.try_into().unwrap()));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0; 8];
            last[..rest.len()].copy_from_slice(rest);
            mark(u64::from_ne_bytes(last));
        }
        let distinct = mask.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        let slot = self.pages.entry(page).or_default();
        if distinct > PAGE / 2 {
            if let Page::Block(block) = slot {
                block[..src.len()].copy_from_slice(src);
                return block[src.len()..].fill(0);
            }
            let mut block = Box::new([0; PAGE]);
            block[..src.len()].copy_from_slice(src);
            *slot = Page::Block(block);
            return;
        }
        // A word's run ends at the payload's end: past it is zeros.
        let runs = set_runs(&mask).map(|(s, e)| (s, e.min(src.len())));
        let room = runs.clone().map(|(s, e)| 4 + e - s).sum();
        let mut fresh = Runs::default();
        let mut len = 0;
        for (s, e) in runs {
            len = fresh.put(len, s, &src[s..e], room);
        }
        (fresh.len, fresh.compacted, fresh.tail) = (len as u16, distinct as u16, len as u16);
        *slot = Page::Runs(fresh);
    }

    /// The `len` bytes at `offset`, zeros where unwritten: each page's
    /// block or runs copied straight into a zeroed buffer.
    pub fn read(&self, offset: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0; len];
        let mut rest = &mut out[..];
        for (page, at, n) in self.pieces(offset, len as u64, "read") {
            let (piece, tail) = std::mem::take(&mut rest).split_at_mut(n);
            rest = tail;
            match self.pages.get(&page) {
                Some(Page::Runs(runs)) => runs.read(at, piece),
                Some(Page::Block(block)) => piece.copy_from_slice(&block[at..at + n]),
                None => {}
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
            match self.pages.get(&page) {
                Some(Page::Runs(runs)) => sum.update(&runs.image()[at..end]),
                Some(Page::Block(block)) => sum.update(&block[at..end]),
                None => sum.update(&ZEROS[at..end]),
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
        (offset / page..=(top - 1) / page)
            .rev()
            .find(|p| self.pages.contains_key(p))
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
        self.pages.len()
    }

    /// Bytes the pages hold: each page's run bytes (record headers
    /// aside), a whole page when full.
    pub fn held_bytes(&self) -> usize {
        let held = |page: &Page| match page {
            Page::Runs(runs) => runs.records().map(|(_, r)| r.len()).sum(),
            Page::Block(_) => PAGE,
        };
        self.pages.values().map(held).sum()
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

    /// How many pages are blocks.
    fn blocks(s: &PageStore) -> usize {
        let block = |p: &&Page| matches!(p, Page::Block(_));
        s.pages.values().filter(block).count()
    }

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
        assert_eq!((blocks(&s), s.held_bytes()), (0, 64 * 999 + 2048));
        // ... and goes full with the next distinct byte.
        s.write(0, &[4]);
        assert_eq!((blocks(&s), s.held_bytes()), (1, 64 * 999 + PAGE));
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
        assert_eq!((blocks(&s), s.held_bytes()), (0, 4 * 104 + 8));
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
        assert_eq!((s.blocks_used(), blocks(&s)), (4, 1));
        assert_eq!(s.held_bytes(), 4 * 104 + 8 + PAGE + 256 * 8);
        assert_eq!(s.written_extent(0, 5 * PAGE as u64), 4 * PAGE as u64);
        // A block rewritten sparse drops the bytes under its zero words.
        s.write(2 * PAGE as u64, &page);
        assert_eq!(blocks(&s), 0);
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
        assert_eq!((s.blocks_used(), blocks(&s)), (256, 0));
        assert!(
            s.held_bytes() <= 2 * distinct + 512 * s.blocks_used(),
            "{} bytes held for {distinct} distinct",
            s.held_bytes()
        );
        assert!(s.read(0, RING as usize) == flat);
    }

    /// The same ring written as a trail writes it: each append a 52-byte
    /// descriptor whose span runs to the next one's, so the ring is
    /// covered lap after lap. Lapped ten times, the pages hold the last
    /// lap's descriptors and nothing of the nine before, and read as the
    /// last lap wrote them.
    #[test]
    fn a_lapped_ring_of_compact_appends_holds_one_lap() {
        const RING: u64 = 1 << 20;
        const SPAN: u64 = 4136;
        let mut s = PageStore::new(RING);
        let mut flat = vec![0; RING as usize];
        for i in 0..10 * RING / SPAN {
            let record = [i as u8 | 1; 52];
            let at = i * SPAN % RING;
            // An append that passes the ring's end wraps to its start.
            let first = SPAN.min(RING - at);
            let (head, tail) = record.split_at(52.min(first as usize));
            s.write_span(at, head, first);
            s.write_span(0, tail, SPAN - first);
            flat[at as usize..][..first as usize].fill(0);
            flat[at as usize..][..head.len()].copy_from_slice(head);
            flat[..(SPAN - first) as usize].fill(0);
            flat[..tail.len()].copy_from_slice(tail);
        }
        let lap = RING.div_ceil(SPAN) as usize * 52;
        assert_eq!((s.blocks_used(), blocks(&s)), (256, 0));
        assert!(
            s.held_bytes() <= lap,
            "{} bytes held, one lap is {lap}",
            s.held_bytes()
        );
        assert!(s.read(0, RING as usize) == flat);
    }

    /// Zeros that cut a page's distinct bytes down under a log of
    /// rewrites leave it holding what a compaction keeps: the records
    /// left overlap, so they are compacted to the runs they cover.
    #[test]
    fn zeros_under_a_log_of_rewrites_compact_it() {
        let mut s = PageStore::new(PAGE as u64);
        s.write(0, &[1; 1000]);
        for v in 2..11 {
            s.write(1500, &[v; 100]);
        }
        assert_eq!(s.held_bytes(), 1900);
        s.write_span(0, &[], 1000);
        assert_eq!(s.held_bytes(), 100);
        let page = s.read(0, PAGE);
        assert!(page[..1500].iter().all(|&b| b == 0) && page[1500..1600] == [10; 100]);
    }

    /// Zeros inside records that overlap are cleared by rewriting the
    /// page's runs, and the records past them are kept: the log is not
    /// walked past its end, however many records the zeros lie inside.
    #[test]
    fn zeros_inside_overlapping_records_keep_the_records_after_them() {
        let mut s = PageStore::new(PAGE as u64);
        s.write(0, &[1; 100]);
        s.write(0, &[2; 101]);
        s.write(200, &[3]);
        s.write(300, &[4; 10]);
        s.write_span(50, &[], 1);
        let page = s.read(0, PAGE);
        assert_eq!(
            (&page[..50], page[50], &page[51..101]),
            (&[2; 50][..], 0, &[2; 50][..])
        );
        assert_eq!(
            (page[101], page[200], &page[300..310]),
            (0, 3, &[4; 10][..])
        );
        assert_eq!(s.held_bytes(), 100 + 1 + 10);
        // A record across both ends of the zeros, with no overlap.
        s.write_span(305, &[], 2);
        assert_eq!(&s.read(300, 10)[..], &[4, 4, 4, 4, 4, 0, 0, 4, 4, 4]);
        assert_eq!(s.held_bytes(), 100 + 1 + 8);
    }

    #[derive(Clone, Debug)]
    enum Op {
        /// `Some(k)`: a `partial_write` applying `k` bytes (mod len + 1).
        Write(u64, Vec<u8>, Option<usize>),
        /// A `write_span` of the bytes and this many zeros past them.
        Span(u64, Vec<u8>, u64),
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
            (
                at(),
                proptest::collection::vec(any::<u8>(), 0..300),
                prop_oneof![0u64..64, 0u64..3 * PAGE as u64],
            )
                .prop_map(|(o, d, zeros)| Op::Span(o, d, zeros)),
            range().prop_map(|(o, n)| Op::Read(o, n)),
            range().prop_map(|(o, n)| Op::Digest(o, n)),
            range().prop_map(|(o, n)| Op::Extent(o, n)),
        ]
    }

    /// Mark in `held` the bytes a write of `d` at `o` leaves the pages
    /// holding, `d`'s trailing zeros past `payload` as a span writes them:
    /// a page it covers whole, its nonzero 8-byte words alone; any other,
    /// what it held and the payload, less the zeros. Returns the pages
    /// it covers in part.
    fn cover(held: &mut [bool], o: usize, d: &[u8], payload: usize) -> [usize; 2] {
        held[o..o + payload].fill(true);
        held[o + payload..o + d.len()].fill(false);
        for p in o.div_ceil(PAGE)..(o + d.len()) / PAGE {
            for (w, word) in d[p * PAGE - o..][..PAGE].chunks(8).enumerate() {
                held[p * PAGE + w * 8..][..8].fill(word.iter().any(|&b| b != 0));
            }
        }
        [o / PAGE, (o + d.len()).saturating_sub(1) / PAGE]
    }

    /// The reference `written_extent`: a scan of the whole page index.
    fn scanned_extent(s: &PageStore, offset: u64, len: u64) -> u64 {
        let (end, page) = (offset + len, PAGE as u64);
        let page_ends = s.pages.keys().map(|&p| (p + 1) * page);
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

        /// Writes and spans piled up in one page's first bytes, so that
        /// zeros land inside several records that overlap, and records of
        /// a byte or two follow them: the page reads as a flat array
        /// after each.
        #[test]
        fn zeros_among_piled_up_records_read_as_a_flat_array(
            ops in proptest::collection::vec((0u8..4, 0usize..160, 1usize..80, 0usize..24), 1..40),
        ) {
            let mut s = PageStore::new(PAGE as u64);
            let mut flat = [0u8; PAGE];
            for (i, (kind, at, n, zeros)) in ops.into_iter().enumerate() {
                let byte = i as u8 | 1;
                // A write of `n` bytes or of one or two, or a span of up
                // to two bytes and then `zeros` zeros.
                let (n, zeros) = match kind {
                    0 | 1 => (n, 0),
                    2 => (n % 2 + 1, 0),
                    _ => (n % 3, zeros + 1),
                };
                s.write_span(at as u64, &vec![byte; n], (n + zeros) as u64);
                flat[at..at + n].fill(byte);
                flat[at + n..at + n + zeros].fill(0);
                prop_assert!(s.read(0, 256) == flat[..256], "after op {}", i);
            }
        }

        /// Against a flat array and the set of pages ever written, every
        /// read, digest and extent agrees, and so does the accounting.
        /// Whole-page writes carry zero words: all-zero pages, pages just
        /// either side of half nonzero, blocks rewritten sparse. A span
        /// write is its payload followed by zeros to its end.
        #[test]
        fn behaves_as_a_flat_array(ops in proptest::collection::vec(op(), 1..60)) {
            let mut s = PageStore::new(CAP);
            let mut flat = vec![0u8; CAP as usize];
            let mut touched = std::collections::BTreeSet::<u64>::new();
            let mut held = vec![false; CAP as usize];
            // Pages a span's zeros covered in part: a block keeps them.
            let mut zeroed = std::collections::BTreeSet::<usize>::new();
            let (mut writes, mut bytes, mut high) = (0, 0, 0);
            for op in ops {
                // What a write leaves the flat array, how much of it is
                // payload, and whether the store counts it as a write.
                let (o, d, k, counts) = match op {
                    Op::Write(o, mut d, partial) => {
                        d.truncate((CAP - o) as usize);
                        let k = partial.map_or(d.len(), |k| k % (d.len() + 1));
                        match partial {
                            Some(_) => s.partial_write(o, &d, k),
                            None => s.write(o, &d),
                        }
                        d.truncate(k);
                        (o, d, k, k > 0)
                    }
                    Op::Span(o, mut d, zeros) => {
                        d.truncate((CAP - o) as usize);
                        let span = (d.len() as u64 + zeros).min(CAP - o);
                        s.write_span(o, &d, span);
                        let k = d.len();
                        d.resize(span as usize, 0);
                        (o, d, k, true)
                    }
                    Op::Read(o, n) => {
                        prop_assert_eq!(s.read(o, n as usize), &flat[o as usize..][..n as usize]);
                        continue;
                    }
                    Op::Digest(o, n) => {
                        prop_assert_eq!(s.digest(o, n), checksum64(&flat[o as usize..][..n as usize]));
                        continue;
                    }
                    Op::Extent(o, n) => {
                        let page = PAGE as u64;
                        let want = (touched.iter().map(|p| (p + 1) * page))
                            .filter(|&e| e > o && e - page < o + n)
                            .max()
                            .map_or(0, |e| e.min(o + n) - o);
                        prop_assert_eq!(s.written_extent(o, n), want);
                        continue;
                    }
                };
                let n = d.len();
                flat[o as usize..][..n].copy_from_slice(&d);
                touched.extend((o..o + n as u64).map(|b| b / PAGE as u64));
                let whole = (o as usize).div_ceil(PAGE)..(o as usize + n) / PAGE;
                zeroed.retain(|p| !whole.contains(p));
                let part = cover(&mut held, o as usize, &d, k);
                if k < n {
                    zeroed.extend(part.into_iter().filter(|p| !whole.contains(p)));
                }
                if counts {
                    (writes, bytes) = (writes + 1, bytes + n as u64);
                    high = high.max(o + n as u64);
                }
            }
            prop_assert_eq!((s.writes(), s.bytes_written(), s.high_water()), (writes, bytes, high));
            prop_assert_eq!(s.blocks_used(), touched.len());
            prop_assert!(s.held_bytes() <= touched.len() * PAGE);
            // A page that is not full holds at most twice its distinct
            // bytes plus 512, and a full page has more than half held
            // unless a span's zeros covered part of it since.
            let distinct = |page: u64| held[page as usize * PAGE..][..PAGE].iter().filter(|&&h| h).count();
            for (&page, p) in &s.pages {
                match p {
                    Page::Runs(runs) => {
                        let (distinct, held) = (distinct(page), runs.records().map(|(_, r)| r.len()).sum::<usize>());
                        prop_assert!(distinct <= PAGE / 2 && held <= 2 * distinct + 512, "page {}: {} held, {} distinct", page, held, distinct);
                    }
                    Page::Block(_) => {
                        let ok = distinct(page) > PAGE / 2 || zeroed.contains(&(page as usize));
                        prop_assert!(ok, "page {}: full with {} distinct", page, distinct(page));
                    }
                }
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
