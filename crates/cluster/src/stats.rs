//! Latency, throughput, and bytes-on-the-wire statistics.
//!
//! The paper reports medians, 95th percentiles with 99 % confidence intervals, and
//! throughput aggregated over 1 s intervals. This module provides the corresponding
//! aggregation machinery for the simulator, plus the encoded-bytes accounting
//! ([`WireMetrics`]) behind the full-vs-delta payload comparison.

use std::collections::BTreeMap;

/// Message count and total encoded bytes for one message kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindBytes {
    /// Number of messages recorded.
    pub messages: u64,
    /// Sum of their encoded sizes in bytes.
    pub bytes: u64,
}

/// Encoded bytes-on-the-wire, broken down by message kind (`MERGE`, `ACK`, …).
///
/// The protocol cores are sans-io and never encode anything; the simulator
/// encodes each message it puts on its virtual network and counts it here (see
/// [`crate::SimConfig::measure_wire_bytes`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireMetrics {
    /// Per-kind message counts and byte totals, keyed by the `&'static str`
    /// kinds [`crate::SimNode::wire_kind`] names — recording never allocates a
    /// key.
    pub per_kind: BTreeMap<&'static str, KindBytes>,
}

impl WireMetrics {
    /// Records one encoded message of the given kind.
    pub fn record(&mut self, kind: &'static str, bytes: u64) {
        let entry = self.per_kind.entry(kind).or_default();
        entry.messages += 1;
        entry.bytes += bytes;
    }

    /// Number of messages recorded under one exact kind key (0 if none recorded).
    pub fn messages_for(&self, kind: &str) -> u64 {
        self.per_kind.get(kind).map_or(0, |entry| entry.messages)
    }

    /// Total encoded bytes for a message kind *including* payload sub-kinds:
    /// `"MERGE"` matches `"MERGE"`, `"MERGE:full"`, and `"MERGE:delta"` (state-bearing
    /// kinds are suffixed with the payload representation so full and delta bytes
    /// stay separable).
    pub fn bytes_for_kind(&self, kind: &str) -> u64 {
        self.matching(kind).map(|entry| entry.bytes).sum()
    }

    /// Number of messages for a kind including payload sub-kinds (see
    /// [`WireMetrics::bytes_for_kind`]).
    pub fn messages_for_kind(&self, kind: &str) -> u64 {
        self.matching(kind).map(|entry| entry.messages).sum()
    }

    fn matching<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a KindBytes> + 'a {
        self.per_kind.iter().filter_map(move |(&key, entry)| {
            let matches = key == kind
                || (key.len() > kind.len()
                    && key.starts_with(kind)
                    && key.as_bytes()[kind.len()] == b':');
            matches.then_some(entry)
        })
    }

    /// Total encoded bytes across all message kinds.
    pub fn total_bytes(&self) -> u64 {
        self.per_kind.values().map(|entry| entry.bytes).sum()
    }

    /// Returns `true` if no message has been recorded.
    pub fn is_empty(&self) -> bool {
        self.per_kind.is_empty()
    }
}

/// Relative byte reduction of `candidate` versus `baseline` for one message kind
/// (payload sub-kinds like `"MERGE:full"` / `"MERGE:delta"` are aggregated).
///
/// Returns a fraction in `[-∞, 1]`: `0.5` means the candidate shipped half the bytes
/// the baseline did for this kind. Returns `0.0` when the baseline recorded nothing.
pub fn wire_reduction(baseline: &WireMetrics, candidate: &WireMetrics, kind: &str) -> f64 {
    let base = baseline.bytes_for_kind(kind);
    if base == 0 {
        return 0.0;
    }
    1.0 - candidate.bytes_for_kind(kind) as f64 / base as f64
}

/// A collection of latency samples (microseconds).
#[derive(Debug, Clone, Default)]
pub struct LatencyStats {
    samples_us: Vec<u64>,
    sorted: bool,
}

impl LatencyStats {
    /// Creates an empty collection.
    pub fn new() -> Self {
        LatencyStats::default()
    }

    /// Records one latency sample in microseconds.
    pub fn record(&mut self, latency_us: u64) {
        self.samples_us.push(latency_us);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples_us.len()
    }

    /// Returns `true` if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_us.is_empty()
    }

    fn sorted_samples(&mut self) -> &[u64] {
        if !self.sorted {
            self.samples_us.sort_unstable();
            self.sorted = true;
        }
        &self.samples_us
    }

    /// Returns the `q`-quantile (0.0–1.0) in microseconds, or `None` if empty.
    pub fn quantile(&mut self, q: f64) -> Option<u64> {
        let samples = self.sorted_samples();
        if samples.is_empty() {
            return None;
        }
        let clamped = q.clamp(0.0, 1.0);
        let rank = ((samples.len() - 1) as f64 * clamped).round() as usize;
        Some(samples[rank])
    }

    /// Median latency in microseconds.
    pub fn median_us(&mut self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// 95th-percentile latency in microseconds (the statistic of Figures 2 and 4).
    pub fn p95_us(&mut self) -> Option<u64> {
        self.quantile(0.95)
    }

    /// Merges another collection into this one.
    pub fn merge(&mut self, other: &LatencyStats) {
        self.samples_us.extend_from_slice(&other.samples_us);
        self.sorted = false;
    }
}

/// Throughput and tail latency aggregated per wall-clock interval (Figure 4's x-axis).
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalStats {
    /// Interval start (milliseconds since the start of the run).
    pub start_ms: u64,
    /// Operations completed in the interval.
    pub operations: u64,
    /// 95th-percentile read latency in the interval (µs), if any reads completed.
    pub read_p95_us: Option<u64>,
    /// 95th-percentile update latency in the interval (µs), if any updates completed.
    pub update_p95_us: Option<u64>,
}

/// Builder that buckets completions into fixed-size intervals.
#[derive(Debug)]
pub struct IntervalSeries {
    interval_ms: u64,
    buckets: Vec<(LatencyStats, LatencyStats)>,
}

impl IntervalSeries {
    /// Creates a series with the given interval length covering `duration_ms`.
    pub fn new(interval_ms: u64, duration_ms: u64) -> Self {
        assert!(interval_ms > 0, "interval must be positive");
        let count = (duration_ms / interval_ms + 1) as usize;
        IntervalSeries {
            interval_ms,
            buckets: vec![(LatencyStats::new(), LatencyStats::new()); count],
        }
    }

    /// Records a completion at `at_ms` with the given latency.
    pub fn record(&mut self, at_ms: u64, latency_us: u64, is_read: bool) {
        let index = ((at_ms / self.interval_ms) as usize).min(self.buckets.len().saturating_sub(1));
        if let Some((reads, updates)) = self.buckets.get_mut(index) {
            if is_read {
                reads.record(latency_us);
            } else {
                updates.record(latency_us);
            }
        }
    }

    /// Produces the per-interval statistics.
    pub fn finish(mut self) -> Vec<IntervalStats> {
        self.buckets
            .iter_mut()
            .enumerate()
            .map(|(i, (reads, updates))| IntervalStats {
                start_ms: i as u64 * self.interval_ms,
                operations: (reads.len() + updates.len()) as u64,
                read_p95_us: reads.p95_us(),
                update_p95_us: updates.p95_us(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_distribution() {
        let mut stats = LatencyStats::new();
        for v in 1..=100u64 {
            stats.record(v);
        }
        assert_eq!(stats.len(), 100);
        // Nearest-rank interpolation: rank = round(99 * 0.5) = 50 → the 51st sample.
        assert_eq!(stats.median_us(), Some(51));
        assert_eq!(stats.p95_us(), Some(95));
        assert_eq!(stats.quantile(0.99), Some(99));
        assert_eq!(stats.quantile(0.0), Some(1));
        assert_eq!(stats.quantile(1.0), Some(100));
    }

    #[test]
    fn empty_stats_return_none() {
        let mut stats = LatencyStats::new();
        assert!(stats.is_empty());
        assert_eq!(stats.median_us(), None);
    }

    #[test]
    fn merge_combines_samples() {
        let mut a = LatencyStats::new();
        a.record(10);
        let mut b = LatencyStats::new();
        b.record(30);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.quantile(1.0), Some(30));
    }

    #[test]
    fn interval_series_buckets_by_time() {
        let mut series = IntervalSeries::new(1000, 3000);
        series.record(100, 5, true);
        series.record(1500, 10, false);
        series.record(1700, 20, true);
        series.record(2999, 7, true);
        let intervals = series.finish();
        assert_eq!(intervals.len(), 4);
        assert_eq!(intervals[0].operations, 1);
        assert_eq!(intervals[1].operations, 2);
        assert_eq!(intervals[1].read_p95_us, Some(20));
        assert_eq!(intervals[1].update_p95_us, Some(10));
        assert_eq!(intervals[2].operations, 1);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_panics() {
        let _ = IntervalSeries::new(0, 100);
    }

    #[test]
    fn wire_metrics_record_per_kind() {
        let mut metrics = WireMetrics::default();
        assert!(metrics.is_empty());
        metrics.record("MERGE", 100);
        metrics.record("MERGE", 50);
        metrics.record("MERGED", 2);
        assert_eq!(metrics.bytes_for_kind("MERGE"), 150);
        assert_eq!(metrics.messages_for("MERGE"), 2);
        assert_eq!(metrics.total_bytes(), 152);
        assert_eq!(metrics.bytes_for_kind("VOTE"), 0);
    }

    #[test]
    fn kind_lookup_aggregates_payload_sub_kinds() {
        let mut metrics = WireMetrics::default();
        metrics.record("MERGE:full", 100);
        metrics.record("MERGE:delta", 6);
        metrics.record("MERGED", 2);
        assert_eq!(metrics.bytes_for_kind("MERGE"), 106);
        assert_eq!(metrics.messages_for_kind("MERGE"), 2);
        assert_eq!(metrics.bytes_for_kind("MERGED"), 2, "exact keys still match");
        assert!(!metrics.per_kind.contains_key("MERGE"), "sub-kinds keep their own keys");
    }

    #[test]
    fn wire_reduction_compares_byte_totals() {
        let mut baseline = WireMetrics::default();
        baseline.record("MERGE", 1000);
        let mut candidate = WireMetrics::default();
        candidate.record("MERGE", 250);
        assert!((wire_reduction(&baseline, &candidate, "MERGE") - 0.75).abs() < 1e-12);
        assert_eq!(wire_reduction(&candidate, &baseline, "VOTE"), 0.0, "no baseline bytes");
    }
}
