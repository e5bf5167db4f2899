//! Keyspace partitioning: mapping keys onto independent protocol instances.
//!
//! The paper's fine-granularity argument (§1) is that a keyspace should not be
//! serialized through one replicated object: non-conflicting commands on different
//! keys can safely agree in *parallel*, one protocol instance (one round counter,
//! one quorum at a time) per key range. This module provides the routing half of
//! that design — a [`ShardId`] newtype and the [`HashPartitioner`] — while the
//! protocol half (one replica per shard, envelope multiplexing) lives in the core
//! crate's sharding engine.
//!
//! Routing must be **deterministic and identical on every replica**: if two
//! replicas disagreed on which shard owns a key, they would submit commands for the
//! same key to different protocol instances and per-key linearizability would be
//! lost. The partitioner therefore avoids any per-process randomness: it uses a
//! fixed-seed FNV-1a hash, not the process-seeded `RandomState` of the standard
//! library.

use std::hash::{Hash, Hasher};

use serde::{Deserialize, Serialize};

/// Identifies one shard: one independent protocol instance over a key range.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct ShardId(pub u32);

impl ShardId {
    /// Creates a shard id from a raw index.
    pub const fn new(id: u32) -> Self {
        ShardId(id)
    }

    /// Returns the raw index value.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Returns the raw index as a `usize` (for indexing shard vectors).
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// 64-bit FNV-1a, used instead of the standard library's `DefaultHasher` because the
/// routing hash must be identical across processes and runs (no random seeding).
#[derive(Debug, Clone)]
struct Fnv1a(u64);

impl Fnv1a {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    fn new() -> Self {
        Fnv1a(Self::OFFSET_BASIS)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }
}

/// Uniform hash partitioning: `shard = fnv1a(key) mod shards`.
///
/// Spreads a uniform workload evenly without any tuning. Rebalancing changes only
/// the shard count, so a [`HashPartitioner`] is the whole key→shard assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HashPartitioner {
    shards: u32,
}

impl HashPartitioner {
    /// Creates a hash partitioner over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: u32) -> Self {
        assert!(shards > 0, "a keyspace needs at least one shard");
        HashPartitioner { shards }
    }

    /// Number of shards this partitioner routes onto (at least 1).
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Returns the shard owning `key`, always smaller than
    /// [`HashPartitioner::shards`].
    pub fn shard_of<K: Hash + ?Sized>(&self, key: &K) -> ShardId {
        let mut hasher = Fnv1a::new();
        key.hash(&mut hasher);
        ShardId((hasher.finish() % u64::from(self.shards)) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_partitioner_is_deterministic_and_in_range() {
        let partitioner = HashPartitioner::new(8);
        assert_eq!(partitioner.shards(), 8);
        for key in 0u64..1000 {
            let shard = partitioner.shard_of(&key);
            assert!(shard.as_u32() < 8);
            assert_eq!(shard, partitioner.shard_of(&key), "routing must be stable");
        }
    }

    #[test]
    fn hash_partitioner_spreads_a_uniform_keyspace() {
        let partitioner = HashPartitioner::new(4);
        let mut counts = [0u32; 4];
        for key in 0u64..4000 {
            counts[partitioner.shard_of(&key).as_usize()] += 1;
        }
        for (shard, &count) in counts.iter().enumerate() {
            assert!(
                (600..=1400).contains(&count),
                "shard {shard} owns {count} of 4000 uniform keys"
            );
        }
    }

    #[test]
    fn hash_partitioner_works_for_string_keys() {
        let partitioner = HashPartitioner::new(3);
        let shard = partitioner.shard_of("alice");
        assert!(shard.as_u32() < 3);
        assert_eq!(shard, partitioner.shard_of("alice"));
    }

    #[test]
    fn single_shard_routes_everything_to_shard_zero() {
        let partitioner = HashPartitioner::new(1);
        for key in 0u64..100 {
            assert_eq!(partitioner.shard_of(&key), ShardId(0));
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let _ = HashPartitioner::new(0);
    }

    #[test]
    fn shard_id_accessors_and_display() {
        let shard = ShardId::new(7);
        assert_eq!(shard.as_u32(), 7);
        assert_eq!(shard.as_usize(), 7);
        assert_eq!(shard.to_string(), "s7");
    }
}
