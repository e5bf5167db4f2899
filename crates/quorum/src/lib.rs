//! # quorum — cluster membership and keyspace partitioning
//!
//! The paper's system model (§2.1) assumes a fixed process set `Π` and a quorum
//! system over it whose quorums pairwise intersect; progress requires that at
//! least one quorum stays alive and connected. The protocol uses one quorum
//! system: any `⌊n/2⌋ + 1` processes form a quorum (the paper's evaluation runs it
//! with `n = 3`).
//!
//! The [`Membership`] type describes the replica group and its quorum size
//! ([`Membership::quorum_size`]), and the [`shard`] module partitions a keyspace
//! across independent protocol instances (one quorum per shard) with a
//! [`HashPartitioner`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod membership;
pub mod shard;

pub use membership::Membership;
pub use shard::{HashPartitioner, ShardId};
