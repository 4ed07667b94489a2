//! Shard routing for the multi-node transaction layer.
//!
//! Data ownership is hash-partitioned across N simulated nodes ("shards"),
//! each running its own TMF, DP2s, ADP audit partitions and PM pool. A
//! transaction whose work stays on its home shard keeps the single-node
//! fast path; one that touches a remote shard is driven through the
//! TMF-coordinated two-phase commit in [`crate::tmf`].

use simcore::hash::FastMap;

/// Route a key to one of `shards` shards. `shards` MUST be a power of two
/// (asserted): masking a finalized splitmix64 hash makes every key map to
/// exactly one shard, and growth from `n` to `2n` can only move a key from
/// shard `s` to `s` or `s + n` — a key never migrates between two
/// pre-existing shards, which is what keeps directory growth cheap.
pub fn shard_of_key(key: u64, shards: u32) -> u32 {
    assert!(
        shards.is_power_of_two(),
        "shard count must be a power of two"
    );
    (splitmix64(key) & (shards as u64 - 1)) as u32
}

/// splitmix64 finalizer: a cheap, well-mixed 64→64 bit hash.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Cluster name directory, shared (read-only) by every TMF. Built once by
/// the scenario layer; lets a coordinator split a commit's flush points
/// and involved DP2s by owning shard and find each shard's TMF peer.
#[derive(Debug, Default)]
pub struct ShardDirectory {
    /// TMF process name per shard (index = shard id).
    pub tmfs: Vec<String>,
    /// Owning shard of every ADP and DP2 process name in the cluster.
    shard_of: FastMap<String, u32>,
}

impl ShardDirectory {
    pub fn new(tmfs: Vec<String>) -> Self {
        ShardDirectory {
            tmfs,
            shard_of: FastMap::default(),
        }
    }

    pub fn shards(&self) -> u32 {
        self.tmfs.len() as u32
    }

    /// Register a process (ADP or DP2) as owned by `shard`.
    pub fn register(&mut self, name: impl Into<String>, shard: u32) {
        self.shard_of.insert(name.into(), shard);
    }

    /// Owning shard of a process name; unknown names default to shard 0
    /// (the single-node legacy namespace).
    pub fn shard_of(&self, name: &str) -> u32 {
        self.shard_of.get(name).copied().unwrap_or(0)
    }

    pub fn tmf(&self, shard: u32) -> &str {
        &self.tmfs[shard as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_maps_to_exactly_one_shard() {
        for shards in [1u32, 2, 4, 8, 16] {
            for k in 0..2000u64 {
                let s = shard_of_key(k, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of_key(k, shards), "routing is a function");
            }
        }
    }

    #[test]
    fn doubling_only_splits_in_place() {
        for k in 0..5000u64 {
            for n in [1u32, 2, 4] {
                let s = shard_of_key(k, n);
                let s2 = shard_of_key(k, 2 * n);
                assert!(s2 == s || s2 == s + n, "key {k}: {s} -> {s2} at {n}x2");
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        shard_of_key(1, 3);
    }

    #[test]
    fn hash_spreads_keys() {
        let n = 8u32;
        let mut counts = vec![0u32; n as usize];
        for k in 0..8000u64 {
            counts[shard_of_key(k, n) as usize] += 1;
        }
        for (s, c) in counts.iter().enumerate() {
            assert!((700..=1300).contains(c), "shard {s} got {c} of 8000 keys");
        }
    }

    #[test]
    fn directory_lookups() {
        let mut d = ShardDirectory::new(vec!["$TMF-s0".into(), "$TMF-s1".into()]);
        d.register("$ADP-s1p0", 1);
        d.register("$DP2-s0c2", 0);
        assert_eq!(d.shards(), 2);
        assert_eq!(d.shard_of("$ADP-s1p0"), 1);
        assert_eq!(d.shard_of("$DP2-s0c2"), 0);
        assert_eq!(d.shard_of("$UNKNOWN"), 0);
        assert_eq!(d.tmf(1), "$TMF-s1");
    }
}
