//! Shared content checksums.
//!
//! Three subsystems independently grew the same integrity primitives —
//! the NPMU's device-side scrub digest, the PMM metadata slot CRC and
//! the ADP control-cell CRC (which calls `pmm::meta::crc32`, this CRC
//! re-exported). They live here now so every durable cell format in the
//! tree hashes bytes the same way.

/// CRC-32 (IEEE 802.3), table-driven. Known vector:
/// `crc32(b"123456789") == 0xCBF4_3926`.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    });
    let mut c = !0u32;
    for &b in data {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Streaming 64-bit content checksum used by device-side scrub digests:
/// the NIC hashes a range locally so mirror comparison ships 8 bytes
/// instead of the chunk. Whole little-endian words take one multiply
/// each (the rotate carries a word's high bits back down, which a bare
/// FNV multiply never does); the 0–7 bytes left at [`finish`] are folded
/// FNV-1a style. Word `i` goes to lane `i mod 4`, so four independent
/// multiply chains run side by side over each 32-byte stride instead of
/// one serial chain; the lanes start from different seeds, which is what
/// tells a word in one lane from the same word in its neighbour once
/// [`finish`] combines them. Words and strides are cut relative to the
/// start of the stream, so the digest does not depend on how the bytes
/// were split across [`update`] calls. Digests are never stored: the
/// function may change.
///
/// [`update`]: Checksum64::update
/// [`finish`]: Checksum64::finish
#[derive(Clone, Debug)]
pub struct Checksum64 {
    lanes: [u64; LANES],
    /// The stream's last `tail_len` (< 32) bytes, not yet a whole stride.
    tail: [u8; STRIDE],
    tail_len: usize,
}

const LANES: usize = 4;
const STRIDE: usize = 8 * LANES;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Odd 64-bit multiplier for whole words (2^64 / golden ratio).
const WORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
/// One seed per lane: the FNV offset, then steps of the word multiplier.
const LANE_SEEDS: [u64; LANES] = [
    FNV_OFFSET,
    FNV_OFFSET ^ WORD_MUL,
    FNV_OFFSET ^ WORD_MUL.wrapping_mul(2),
    FNV_OFFSET ^ WORD_MUL.wrapping_mul(3),
];

impl Default for Checksum64 {
    fn default() -> Self {
        Checksum64 {
            lanes: LANE_SEEDS,
            tail: [0; STRIDE],
            tail_len: 0,
        }
    }
}

impl Checksum64 {
    fn word(h: u64, w: &[u8]) -> u64 {
        (h ^ u64::from_le_bytes(w.try_into().expect("an 8-byte word")))
            .wrapping_mul(WORD_MUL)
            .rotate_left(29)
    }

    fn stride(lanes: &mut [u64; LANES], s: &[u8]) {
        for (lane, w) in lanes.iter_mut().zip(s.chunks_exact(8)) {
            *lane = Self::word(*lane, w);
        }
    }

    /// Spread a lane's last word over all 64 bits before the lanes are
    /// XORed: a difference still sitting in one bit of two lanes would
    /// otherwise cancel.
    fn avalanche(mut h: u64) -> u64 {
        h ^= h >> 32;
        h = h.wrapping_mul(WORD_MUL);
        h ^ (h >> 29)
    }

    pub fn update(&mut self, mut data: &[u8]) {
        if self.tail_len > 0 {
            let n = data.len().min(STRIDE - self.tail_len);
            self.tail[self.tail_len..self.tail_len + n].copy_from_slice(&data[..n]);
            self.tail_len += n;
            data = &data[n..];
            if self.tail_len < STRIDE {
                return;
            }
            Self::stride(&mut self.lanes, &self.tail);
            self.tail_len = 0;
        }
        // `stride` written out: the four chains stay in registers, and
        // unoptimized test builds do not pay for the iterator adaptors.
        let mut strides = data.chunks_exact(STRIDE);
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for s in &mut strides {
            a = Self::word(a, &s[..8]);
            b = Self::word(b, &s[8..16]);
            c = Self::word(c, &s[16..24]);
            d = Self::word(d, &s[24..]);
        }
        self.lanes = [a, b, c, d];
        let rest = strides.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    pub fn finish(&self) -> u64 {
        let tail = &self.tail[..self.tail_len];
        let mut lanes = self.lanes;
        // The tail's whole words (at most three) go to the lanes they
        // would have in a full stride; the bytes after them are folded.
        Self::stride(&mut lanes, tail);
        let h = lanes.iter().fold(0, |h, &l| h ^ Self::avalanche(l));
        tail[tail.len() / 8 * 8..]
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
    }
}

/// One-shot [`Checksum64`] of `data`.
pub fn checksum64(data: &[u8]) -> u64 {
    let mut c = Checksum64::default();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn checksum64_discriminates_and_is_stable() {
        assert_ne!(checksum64(b""), checksum64(&[0]));
        assert_ne!(checksum64(&[0; 32]), checksum64(&[0; 40]));
        assert_ne!(checksum64(b"abc"), checksum64(b"abd"));
        assert_eq!(checksum64(b"abc"), checksum64(b"abc"));
    }

    /// Two words differing only in their top bit: a multiply alone moves
    /// bits upward only, so the pair would cancel without the rotate.
    #[test]
    fn checksum64_high_bit_flips_in_two_words_do_not_cancel() {
        let mut flipped = [0u8; 16];
        flipped[7] = 0x80;
        flipped[15] = 0x80;
        assert_ne!(checksum64(&[0u8; 16]), checksum64(&flipped));
    }

    /// Words in neighbouring lanes are told apart by the lanes' seeds: the
    /// lanes are combined symmetrically, so in a first stride (whole, or
    /// still in the tail) two swapped words would digest alike without
    /// distinct seeds.
    #[test]
    fn checksum64_swapped_words_in_neighbouring_lanes_differ() {
        let data: Vec<u8> = (0..32u8).collect();
        for i in 0..3 {
            let mut swapped = data.clone();
            let (a, b) = swapped.split_at_mut(8 * (i + 1));
            a[8 * i..].swap_with_slice(&mut b[..8]);
            assert_ne!(
                checksum64(&data),
                checksum64(&swapped),
                "words {i} and {}",
                i + 1
            );
        }
    }

    proptest::proptest! {
        /// Fed in any pieces — empty ones, sub-word ones and ones that
        /// straddle a 32-byte stride included — the streaming digest
        /// equals the one-shot digest of the whole.
        #[test]
        fn checksum64_is_split_invariant(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
            cuts in proptest::collection::vec(0usize..40, 0..80),
            wide in proptest::collection::vec(0usize..300, 0..4),
        ) {
            let mut c = Checksum64::default();
            let mut rest = &data[..];
            for n in cuts.into_iter().chain(wide) {
                let (piece, tail) = rest.split_at(n.min(rest.len()));
                c.update(piece);
                rest = tail;
            }
            c.update(rest);
            proptest::prop_assert_eq!(c.finish(), checksum64(&data));
        }
    }
}
