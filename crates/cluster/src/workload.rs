//! Closed-loop workload generation (the Basho-Bench role in the paper's evaluation).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A read/update mix, e.g. "95 % reads".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadMix {
    /// Fraction of operations that are reads (0.0–1.0).
    pub read_fraction: f64,
}

impl WorkloadMix {
    /// Creates a mix with the given read fraction.
    ///
    /// # Panics
    ///
    /// Panics if the fraction is outside `[0, 1]`.
    pub fn reads(read_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&read_fraction), "read fraction must be within [0, 1]");
        WorkloadMix { read_fraction }
    }
}

/// Per-client deterministic operation generator.
#[derive(Debug)]
pub struct ClientWorkload {
    mix: WorkloadMix,
    rng: StdRng,
}

impl ClientWorkload {
    /// Creates a generator for one client.
    pub fn new(mix: WorkloadMix, seed: u64) -> Self {
        ClientWorkload { mix, rng: StdRng::seed_from_u64(seed) }
    }

    /// Decides whether the next operation is a read.
    pub fn next_is_read(&mut self) -> bool {
        self.rng.gen_bool(self.mix.read_fraction)
    }

    /// Picks the key of the next operation, uniformly over `0..keyspace`
    /// (multi-key workloads for the sharded engine).
    pub fn next_key(&mut self, keyspace: u64) -> u64 {
        if keyspace <= 1 {
            return 0;
        }
        self.rng.gen_range(0..keyspace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_constructors() {
        assert_eq!(WorkloadMix::reads(1.0).read_fraction, 1.0);
        assert_eq!(WorkloadMix::reads(0.0).read_fraction, 0.0);
        assert_eq!(WorkloadMix::reads(0.9).read_fraction, 0.9);
    }

    #[test]
    #[should_panic(expected = "within [0, 1]")]
    fn out_of_range_fraction_panics() {
        let _ = WorkloadMix::reads(1.5);
    }

    #[test]
    fn generator_respects_the_mix_statistically() {
        let mut workload = ClientWorkload::new(WorkloadMix::reads(0.9), 1);
        let reads = (0..10_000).filter(|_| workload.next_is_read()).count();
        assert!((8_800..=9_200).contains(&reads), "observed {reads} reads out of 10000");
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let mut a = ClientWorkload::new(WorkloadMix::reads(0.5), 9);
        let mut b = ClientWorkload::new(WorkloadMix::reads(0.5), 9);
        let seq_a: Vec<bool> = (0..100).map(|_| a.next_is_read()).collect();
        let seq_b: Vec<bool> = (0..100).map(|_| b.next_is_read()).collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn extreme_mixes_are_degenerate() {
        let mut reads_only = ClientWorkload::new(WorkloadMix::reads(1.0), 2);
        assert!((0..100).all(|_| reads_only.next_is_read()));
        let mut updates_only = ClientWorkload::new(WorkloadMix::reads(0.0), 3);
        assert!((0..100).all(|_| !updates_only.next_is_read()));
    }
}
