//! Protocol metrics: round-trip accounting and learning-path counters.
//!
//! Figure 3 of the paper plots the cumulative distribution of round trips needed to
//! process reads; these metrics are the source of that distribution in our harness.

use std::collections::BTreeMap;

/// Counters collected by one replica's proposer role.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Completed update commands.
    pub updates_completed: u64,
    /// Completed query commands.
    pub queries_completed: u64,
    /// Queries answered from a *consistent quorum* (single round trip, paper case a).
    pub queries_consistent_quorum: u64,
    /// Queries answered by a successful *vote* (two round trips, paper case b).
    pub queries_by_vote: u64,
    /// Prepare phases that had to be retried (paper case c or after a NACK).
    pub prepare_retries: u64,
    /// NACK messages received.
    pub nacks_received: u64,
    /// Queries that exhausted `max_query_retries` and failed.
    pub queries_failed: u64,
    /// Histogram: number of queries that needed exactly `k` round trips.
    pub query_round_trips: BTreeMap<u32, u64>,
    /// Histogram: number of updates that needed exactly `k` round trips (always 1
    /// unless retransmissions were required).
    pub update_round_trips: BTreeMap<u32, u64>,
}

impl Metrics {
    /// Creates an empty metrics record.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records a completed query that needed `round_trips` round trips.
    pub fn record_query(&mut self, round_trips: u32, learned_by_vote: bool) {
        self.queries_completed += 1;
        if learned_by_vote {
            self.queries_by_vote += 1;
        } else {
            self.queries_consistent_quorum += 1;
        }
        *self.query_round_trips.entry(round_trips).or_insert(0) += 1;
    }

    /// Records a completed update that needed `round_trips` round trips.
    pub fn record_update(&mut self, round_trips: u32) {
        self.updates_completed += 1;
        *self.update_round_trips.entry(round_trips).or_insert(0) += 1;
    }

    /// Fraction of completed queries that needed at most `max_round_trips` round
    /// trips. Returns 1.0 when no queries completed.
    pub fn query_fraction_within(&self, max_round_trips: u32) -> f64 {
        if self.queries_completed == 0 {
            return 1.0;
        }
        let within: u64 = self
            .query_round_trips
            .iter()
            .filter(|(&rt, _)| rt <= max_round_trips)
            .map(|(_, &count)| count)
            .sum();
        within as f64 / self.queries_completed as f64
    }

    /// Merges another metrics record into this one (used to aggregate across
    /// replicas).
    pub fn merge(&mut self, other: &Metrics) {
        self.updates_completed += other.updates_completed;
        self.queries_completed += other.queries_completed;
        self.queries_consistent_quorum += other.queries_consistent_quorum;
        self.queries_by_vote += other.queries_by_vote;
        self.prepare_retries += other.prepare_retries;
        self.nacks_received += other.nacks_received;
        self.queries_failed += other.queries_failed;
        for (&rt, &count) in &other.query_round_trips {
            *self.query_round_trips.entry(rt).or_insert(0) += count;
        }
        for (&rt, &count) in &other.update_round_trips {
            *self.update_round_trips.entry(rt).or_insert(0) += count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query_fractions() {
        let mut metrics = Metrics::new();
        assert_eq!(metrics.query_fraction_within(2), 1.0);
        metrics.record_query(1, false);
        metrics.record_query(2, true);
        metrics.record_query(5, true);
        metrics.record_update(1);

        assert_eq!(metrics.queries_completed, 3);
        assert_eq!(metrics.queries_consistent_quorum, 1);
        assert_eq!(metrics.queries_by_vote, 2);
        assert_eq!(metrics.updates_completed, 1);
        assert!((metrics.query_fraction_within(2) - 2.0 / 3.0).abs() < 1e-9);
        assert!((metrics.query_fraction_within(5) - 1.0).abs() < 1e-9);
        assert_eq!(metrics.query_round_trips[&1], 1);
        assert_eq!(metrics.update_round_trips[&1], 1);
    }

    #[test]
    fn merge_aggregates_counters_and_histograms() {
        let mut a = Metrics::new();
        a.record_query(1, false);
        a.prepare_retries = 2;
        let mut b = Metrics::new();
        b.record_query(1, false);
        b.record_query(3, true);
        b.nacks_received = 4;

        a.merge(&b);
        assert_eq!(a.queries_completed, 3);
        assert_eq!(a.query_round_trips[&1], 2);
        assert_eq!(a.query_round_trips[&3], 1);
        assert_eq!(a.prepare_retries, 2);
        assert_eq!(a.nacks_received, 4);
    }
}
