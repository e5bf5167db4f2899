//! Dynamic resharding: epoch-stamped rebalance plans and lattice-join state handoff.
//!
//! The paper's log-less replication makes resharding unusually cheap: a shard's
//! entire replicated value is one lattice element, so *moving* a key range is one
//! join at the destination — there is no log to truncate, snapshot, or replay. This
//! module provides the agreement and bookkeeping half of that design; the routing
//! and traffic machinery lives in [`crate::RouterCore`].
//!
//! # How a rebalance runs
//!
//! 1. **Agree on a plan.** A coordinator replica commits a proposed shard count for
//!    the next epoch on a dedicated *control shard* — an ordinary protocol instance
//!    replicating [`ControlState`], a `LatticeMap<epoch, GSet<shard count>>`. The
//!    lattice resolves racing coordinators: concurrent proposals for the same epoch
//!    join into one set, and [`winning_shards`] picks the same winner everywhere. A
//!    linearizable read after the commit tells the coordinator the agreed
//!    [`RebalancePlan`], which it then gossips.
//! 2. **Install and hand off.** A replica installing a plan (from gossip or from an
//!    epoch bounce) grows its protocol-instance table, then **copies**: every key of
//!    every old shard that the new partitioner routes elsewhere has its sub-state
//!    joined into the destination instance's acceptor. Stale copies left behind at
//!    the source are harmless lower bounds — lattice join absorbs them if the key
//!    ever moves back — so nothing is deleted.
//! 3. **Fence and re-home.** From installation on, protocol messages stamped with
//!    an older epoch are answered with the plan instead of being processed (their
//!    data would bypass the copy), and messages from newer epochs are deferred until
//!    the plan arrives. In-flight commands are re-homed: already-applied updates
//!    re-replicate via a *resync* instance on the key's new owner, unapplied and
//!    read commands are simply resubmitted there.
//!
//! Per-key linearizability across the transition follows from quorum intersection:
//! an update committed at epoch `e` was joined by a quorum of source-shard acceptors
//! *before* each of them fenced, so the same quorum's handoff copies carry it into
//! the destination shard, and any epoch-`e+1` read quorum intersects it there.

use crdt::{GSet, LatticeMap};
use serde::{Deserialize, Serialize};

/// The agreed outcome of one rebalance: the keyspace of `epoch` is hash-partitioned
/// over `shards` protocol instances.
///
/// A plan is self-contained (it names its epoch and the full new assignment), so a
/// single plan message suffices to bring an arbitrarily stale replica to the current
/// partitioning — there is no need to replay intermediate epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RebalancePlan {
    /// The partitioning generation this plan creates.
    pub epoch: u64,
    /// Number of hash-partitioned shards at that epoch.
    pub shards: u32,
}

/// The lattice replicated by the control shard: proposed shard counts per epoch.
///
/// Racing coordinators may commit different proposals for the same epoch; the set
/// join keeps all of them and [`winning_shards`] resolves the race deterministically,
/// so every replica that reads the control shard derives the same plan.
pub type ControlState = LatticeMap<u64, GSet<u32>>;

/// Deterministic winner among racing shard-count proposals for one epoch: the
/// largest count (growth is preferred over shrinkage when operators disagree).
pub fn winning_shards<'a, I: IntoIterator<Item = &'a u32>>(proposals: I) -> Option<u32> {
    proposals.into_iter().copied().max()
}

/// Counters describing a replica's view of past and ongoing rebalances
/// (observability; see [`crate::ShardedReplica::rebalance_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebalanceStats {
    /// Plans installed (epoch advances) at this replica.
    pub plans_installed: u64,
    /// Keys whose sub-state was copied to a different shard during installs.
    pub keys_moved: u64,
    /// Old-epoch protocol messages answered with the current plan instead of being
    /// processed (the epoch fence at work).
    pub epoch_bounces: u64,
    /// Future-epoch protocol messages buffered until their plan was installed.
    pub messages_deferred: u64,
    /// In-flight commands re-homed onto their new owner shard during installs.
    pub commands_rehomed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn winning_shards_is_the_maximum_proposal() {
        assert_eq!(winning_shards([&4u32, &8, &2]), Some(8));
        assert_eq!(winning_shards([] as [&u32; 0]), None);
    }

    #[test]
    fn plans_survive_the_wire_format() {
        let plan = RebalancePlan { epoch: 7, shards: 16 };
        let bytes = wire::to_vec(&plan).unwrap();
        let decoded: RebalancePlan = wire::from_slice(&bytes).unwrap();
        assert_eq!(decoded, plan);
    }
}
