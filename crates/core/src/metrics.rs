//! Protocol metrics: the learning-path counters.
//!
//! A command's own record is its [`crate::ClientResponse`]: whether it
//! completed and how many round trips it took (Figure 3 is built from those).
//! What a response cannot show is *how* a query instance learned its state,
//! and what it cost in retries and `NACK`s; that is what is counted here.

/// Counters collected by one replica's proposer role.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Queries answered from a *consistent quorum* (single round trip, paper case a).
    pub queries_consistent_quorum: u64,
    /// Queries answered by a successful *vote* (two round trips, paper case b).
    pub queries_by_vote: u64,
    /// Prepare phases that had to be retried (paper case c or after a NACK).
    pub prepare_retries: u64,
    /// NACK messages received for a query instance still in flight.
    pub nacks_received: u64,
}

impl Metrics {
    /// Merges another metrics record into this one (used to aggregate across
    /// replicas).
    pub fn merge(&mut self, other: &Metrics) {
        self.queries_consistent_quorum += other.queries_consistent_quorum;
        self.queries_by_vote += other.queries_by_vote;
        self.prepare_retries += other.prepare_retries;
        self.nacks_received += other.nacks_received;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_every_counter() {
        let mut a = Metrics {
            queries_consistent_quorum: 1,
            queries_by_vote: 2,
            prepare_retries: 3,
            nacks_received: 4,
        };
        let b = Metrics {
            queries_consistent_quorum: 10,
            queries_by_vote: 20,
            prepare_retries: 30,
            nacks_received: 40,
        };
        a.merge(&b);
        assert_eq!(
            a,
            Metrics {
                queries_consistent_quorum: 11,
                queries_by_vote: 22,
                prepare_retries: 33,
                nacks_received: 44,
            }
        );
    }
}
