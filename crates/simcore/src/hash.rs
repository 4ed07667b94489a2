//! Fixed-key hash maps for simulation state.
//!
//! Every map in a simulation is keyed by ids and names the program made
//! itself (actor and endpoint ids, transaction ids, partition ids,
//! process names from config), never by input from outside, so SipHash's
//! flooding resistance buys nothing here — and std's `RandomState` seeds
//! it afresh per process and per map, which is both a cost on every event
//! and a way for iteration order to leak into durable bytes (DESIGN.md
//! §11). [`FastHasher`] is one multiply per word, and one more to finish,
//! with a fixed key: the same key hashes the same in every process, and
//! two maps filled in the same order iterate in the same order.
//!
//! Order-sensitive code still sorts before it iterates: a map's order is
//! reproducible, not meaningful.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd 64-bit multiplier (the one rustc's own `FxHasher` uses).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Multiply-rotate word hasher: each word is xored into the state, which
/// is multiplied by the odd constant `K` and rotated. A 64-bit product's
/// bit `j` depends only on the input's bits `0..=j`, so keys that differ
/// only high up (a shard id in the top bits) would share their low bits —
/// where the table takes its bucket index. [`Hasher::finish`] therefore
/// folds a last full 128-bit product (high half xor low half), whose every
/// bit depends on every bit of the state.
#[derive(Clone, Copy, Default)]
pub struct FastHasher {
    h: u64,
}

impl FastHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.h = (self.h ^ word).wrapping_mul(K).rotate_left(26);
    }
}

impl Hasher for FastHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("chunks_exact(8)")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let mut last = [0u8; 8];
            last[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(last));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add(i as u64);
        self.add((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        let p = self.h as u128 * K as u128;
        (p as u64) ^ (p >> 64) as u64
    }
}

/// `HashMap` hashed by [`FastHasher`]. Build with `FastMap::default()`.
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FastHasher>>;
/// `HashSet` hashed by [`FastHasher`]. Build with `FastSet::default()`.
pub type FastSet<T> = HashSet<T, BuildHasherDefault<FastHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    fn fill<M: Extend<(u64, u64)> + Default>() -> M {
        let mut m = M::default();
        m.extend((0..200u64).map(|i| (i.wrapping_mul(0x9e37_79b9), i)));
        m
    }

    /// Two maps filled alike iterate alike — std's do not, because each
    /// `RandomState` draws new keys.
    #[test]
    fn maps_filled_in_the_same_order_iterate_in_the_same_order() {
        let (a, b): (FastMap<u64, u64>, FastMap<u64, u64>) = (fill(), fill());
        assert!(a.iter().eq(b.iter()));
        let (a, b): (HashMap<u64, u64>, HashMap<u64, u64>) = (fill(), fill());
        assert!(!a.iter().eq(b.iter()), "std maps drew the same keys");
    }

    /// The hash of a key is a constant of the program, not of the process.
    #[test]
    fn hash_of_a_key_is_golden() {
        let build = BuildHasherDefault::<FastHasher>::default();
        assert_eq!(build.hash_one((7u32, 42u64)), 0xdccd_e6fe_e819_c6d0);
        assert_eq!(
            build.hash_one("$DP2-0"),
            build.hash_one(String::from("$DP2-0"))
        );
    }

    #[test]
    fn distinct_small_keys_spread_over_low_bits() {
        let build = BuildHasherDefault::<FastHasher>::default();
        // Block numbers, ids, 4 KB-aligned offsets and ids in the top
        // bits alike: the bucket index (low bits) must not collapse. 256
        // random hashes fill ~162 of 256 buckets; without the fold every
        // key of stride 2^48 lands in bucket 0.
        for stride in [1u64, 8, 4096, 1 << 48] {
            let buckets: FastSet<u64> = (0..256u64)
                .map(|i| build.hash_one(i * stride) & 0xff)
                .collect();
            assert!(buckets.len() > 100, "stride {stride}: {}", buckets.len());
        }
    }
}
