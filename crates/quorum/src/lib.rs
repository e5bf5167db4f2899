//! # quorum — quorum systems and cluster membership
//!
//! The paper's system model (§2.1) assumes a fixed quorum system `QS` over the process
//! set `Π`: a set of process subsets with pairwise non-empty intersection. Progress
//! requires that at least one quorum stays alive and connected.
//!
//! This crate provides the [`QuorumSystem`] trait and the one construction the
//! protocol uses: [`MajorityQuorum`] — any `⌊n/2⌋ + 1` processes form a quorum
//! (the paper's evaluation runs it with `n = 3`).
//!
//! The [`Membership`] type describes the replica group itself, and the [`shard`]
//! module partitions a keyspace across independent protocol instances (one quorum
//! per shard) via the [`Partitioner`] trait.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod majority;
mod membership;
pub mod shard;

pub use majority::MajorityQuorum;
pub use membership::Membership;
pub use shard::{EpochPartitioner, HashPartitioner, Partitioner, RangePartitioner, ShardId};

use std::collections::BTreeSet;

/// A process identifier inside a quorum system.
///
/// The replication crates instantiate this with `crdt::ReplicaId`'s raw value, but the
/// quorum machinery is independent of any particular id type.
pub trait ProcessId: Copy + Ord + core::fmt::Debug {}

impl<T: Copy + Ord + core::fmt::Debug> ProcessId for T {}

/// A quorum system over a fixed set of processes.
///
/// Implementations must guarantee the *intersection property*: any two quorums share
/// at least one process. All correctness arguments of the replication protocol
/// (Lemmas 3.4–3.7 in the paper) rely on it.
pub trait QuorumSystem<P: ProcessId> {
    /// Returns the full process set `Π`.
    fn processes(&self) -> &[P];

    /// Returns `true` iff `acks` contains a quorum.
    ///
    /// `acks` may contain processes outside `Π`; they are ignored.
    fn is_quorum(&self, acks: &BTreeSet<P>) -> bool;

    /// Number of processes in the system.
    fn len(&self) -> usize {
        self.processes().len()
    }

    /// Returns `true` if the system has no processes.
    fn is_empty(&self) -> bool {
        self.processes().is_empty()
    }

    /// Size of the smallest quorum (used for sizing acknowledgement waits).
    fn min_quorum_size(&self) -> usize;

    /// Maximum number of simultaneous crash failures that still leaves some quorum
    /// fully alive.
    fn fault_tolerance(&self) -> usize {
        let n = self.len();
        n.saturating_sub(self.min_quorum_size())
    }
}

/// Exhaustively verifies the quorum intersection property for small process sets.
///
/// Intended for tests: enumerates all subsets (so it is exponential in `n`) and checks
/// that every pair of quorums intersects.
///
/// # Panics
///
/// Panics if the process set has more than 16 members (the check would be too slow).
pub fn verify_intersection<P: ProcessId, Q: QuorumSystem<P>>(system: &Q) -> bool {
    let processes = system.processes();
    assert!(processes.len() <= 16, "exhaustive check limited to 16 processes");
    let n = processes.len();
    let mut quorums: Vec<BTreeSet<P>> = Vec::new();
    for mask in 0u32..(1 << n) {
        let subset: BTreeSet<P> =
            (0..n).filter(|i| mask & (1 << i) != 0).map(|i| processes[i]).collect();
        if system.is_quorum(&subset) {
            quorums.push(subset);
        }
    }
    for (i, a) in quorums.iter().enumerate() {
        for b in &quorums[i + 1..] {
            if a.intersection(b).next().is_none() {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersection_checker_accepts_majorities() {
        let system = MajorityQuorum::new(vec![0u64, 1, 2, 3, 4]);
        assert!(verify_intersection(&system));
    }

    #[test]
    fn intersection_checker_detects_broken_systems() {
        /// A deliberately broken "quorum" system where any single process is a quorum.
        struct Broken {
            processes: Vec<u64>,
        }
        impl QuorumSystem<u64> for Broken {
            fn processes(&self) -> &[u64] {
                &self.processes
            }
            fn is_quorum(&self, acks: &BTreeSet<u64>) -> bool {
                !acks.is_empty()
            }
            fn min_quorum_size(&self) -> usize {
                1
            }
        }
        let broken = Broken { processes: vec![0, 1, 2] };
        assert!(!verify_intersection(&broken));
    }
}
