//! Shared content checksums.
//!
//! Three subsystems independently grew the same integrity primitives —
//! the NPMU's device-side scrub digest, the PMM metadata slot CRC and
//! the ADP control-cell CRC (via `pmstore`'s redo cell). They live here
//! now so every durable cell format in the tree hashes bytes the same
//! way, including the device-resident append tail pointer introduced
//! with the near-device offload surface.

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
/// FNV-1a style. Words are cut relative to the start of the stream, so
/// the digest does not depend on how the bytes were split across
/// [`update`] calls. Digests are never stored: the function may change.
///
/// [`update`]: Checksum64::update
/// [`finish`]: Checksum64::finish
#[derive(Clone, Debug)]
pub struct Checksum64 {
    h: u64,
    /// The stream's last `tail_len` (< 8) bytes, not yet a whole word.
    tail: [u8; 8],
    tail_len: usize,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Odd 64-bit multiplier for whole words (2^64 / golden ratio).
const WORD_MUL: u64 = 0x9e37_79b9_7f4a_7c15;

impl Default for Checksum64 {
    fn default() -> Self {
        Checksum64 {
            h: FNV_OFFSET,
            tail: [0; 8],
            tail_len: 0,
        }
    }
}

impl Checksum64 {
    fn word(h: u64, w: [u8; 8]) -> u64 {
        (h ^ u64::from_le_bytes(w))
            .wrapping_mul(WORD_MUL)
            .rotate_left(29)
    }

    pub fn update(&mut self, mut data: &[u8]) {
        if self.tail_len > 0 {
            let n = data.len().min(8 - self.tail_len);
            self.tail[self.tail_len..self.tail_len + n].copy_from_slice(&data[..n]);
            self.tail_len += n;
            data = &data[n..];
            if self.tail_len < 8 {
                return;
            }
            self.h = Self::word(self.h, self.tail);
            self.tail_len = 0;
        }
        let mut words = data.chunks_exact(8);
        let mut h = self.h;
        for w in &mut words {
            h = Self::word(h, w.try_into().expect("chunks_exact(8)"));
        }
        self.h = h;
        let rest = words.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    pub fn finish(&self) -> u64 {
        self.tail[..self.tail_len]
            .iter()
            .fold(self.h, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
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
        assert_eq!(checksum64(b""), 0xcbf2_9ce4_8422_2325);
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

    proptest::proptest! {
        /// Fed in any pieces — empty ones and sub-word ones included —
        /// the streaming digest equals the one-shot digest of the whole.
        #[test]
        fn checksum64_is_split_invariant(
            data in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..300),
            cuts in proptest::collection::vec(0usize..8, 0..80),
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
