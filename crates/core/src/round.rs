//! Rounds: the only per-replica protocol state besides the CRDT payload.
//!
//! A round is a pair of a round *number* and a round *id* (paper §3.2, "Conventions").
//! Round numbers order concurrent query requests; round ids make every request's round
//! unique. The acceptor stores exactly one round — this is the "memory overhead of a
//! single counter" the paper advertises.

use crdt::ReplicaId;
use serde::{Deserialize, Serialize};

/// Round identifier.
///
/// Besides proposer-generated ids, two reserved ids exist:
///
/// * [`RoundId::Bottom`] — the initial id of every acceptor; proposers can never
///   generate it (paper line 26: "an ID that cannot be generated by proposers").
/// * [`RoundId::Write`] — the marker an acceptor installs whenever its payload is
///   modified by an update or a merge (paper lines 30 and 34, `r_id ← write`). This
///   invalidates any in-flight proposal, which is what Update Stability relies on.
///   An update that rides its cycle's query sends no `MERGE`: its state reaches
///   the acceptors in the query's incremental `PREPARE`, whose new round
///   `(number + 1, id)` invalidates every earlier proposal the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RoundId {
    /// Initial id, smaller than every other id.
    Bottom,
    /// Marker installed by updates and merges.
    Write,
    /// Id generated by a proposer: a per-proposer sequence number plus the proposer id.
    Proposer {
        /// Sequence number local to the proposer.
        seq: u64,
        /// The proposer that generated the id.
        proposer: ReplicaId,
    },
}

impl RoundId {
    /// Creates a proposer-generated round id.
    pub fn proposer(seq: u64, proposer: ReplicaId) -> Self {
        RoundId::Proposer { seq, proposer }
    }
}

/// A protocol round: `(number, id)`, totally ordered by number first, then id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Round {
    /// The round number used to order concurrent requests.
    pub number: u64,
    /// The unique id of the request that installed this round.
    pub id: RoundId,
}

impl Round {
    /// The initial round `(0, ⊥)` every acceptor starts with.
    pub const ZERO: Round = Round { number: 0, id: RoundId::Bottom };

    /// Creates a round from a number and id.
    pub fn new(number: u64, id: RoundId) -> Self {
        Round { number, id }
    }

    /// Returns a copy of this round with the id replaced by the write marker.
    #[must_use]
    pub fn with_write_marker(self) -> Self {
        Round { number: self.number, id: RoundId::Write }
    }
}

/// The round carried by a `PREPARE` message.
///
/// Proposers either fix a concrete round (a *fixed prepare*) or leave the round number
/// undefined (`⊥`, an *incremental prepare*), in which case every acceptor derives the
/// round `(own number + 1, id)` locally. Incremental prepares are always accepted and
/// are the key to the protocol's eventual liveness (§3.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrepareRound {
    /// Incremental prepare: round number is `⊥`, only the id is fixed.
    Incremental {
        /// The unique id the proposer chose for this request.
        id: RoundId,
    },
    /// Fixed prepare: the full round is chosen by the proposer.
    Fixed(Round),
}

impl PrepareRound {
    /// Returns the round id regardless of the prepare flavour.
    pub fn id(&self) -> RoundId {
        match self {
            PrepareRound::Incremental { id } => *id,
            PrepareRound::Fixed(round) => round.id,
        }
    }

    /// Returns `true` for incremental prepares.
    pub fn is_incremental(&self) -> bool {
        matches!(self, PrepareRound::Incremental { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(seq: u64, replica: u64) -> RoundId {
        RoundId::proposer(seq, ReplicaId::new(replica))
    }

    #[test]
    fn rounds_order_by_number_then_id() {
        let low = Round::new(1, pid(5, 0));
        let high = Round::new(2, pid(0, 0));
        assert!(low < high);

        let a = Round::new(3, pid(1, 0));
        let b = Round::new(3, pid(1, 1));
        assert!(a < b, "equal numbers fall back to id ordering");
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn bottom_is_smallest_id() {
        assert!(RoundId::Bottom < RoundId::Write);
        assert!(RoundId::Write < pid(0, 0));
        assert!(Round::ZERO < Round::new(0, RoundId::Write));
    }

    #[test]
    fn write_marker_preserves_number() {
        let round = Round::new(7, pid(3, 2));
        let marked = round.with_write_marker();
        assert_eq!(marked.number, 7);
        assert_eq!(marked.id, RoundId::Write);
        assert_ne!(marked, round);
    }

    #[test]
    fn prepare_round_accessors() {
        let incremental = PrepareRound::Incremental { id: pid(1, 0) };
        assert!(incremental.is_incremental());
        assert_eq!(incremental.id(), pid(1, 0));

        let fixed = PrepareRound::Fixed(Round::new(9, pid(2, 1)));
        assert!(!fixed.is_incremental());
        assert_eq!(fixed.id(), pid(2, 1));
    }

    #[test]
    fn proposer_ids_are_unique_per_sequence_and_replica() {
        assert_ne!(pid(1, 0), pid(2, 0));
        assert_ne!(pid(1, 0), pid(1, 1));
        assert_eq!(pid(1, 0), pid(1, 0));
    }
}
