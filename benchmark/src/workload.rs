//! The seeded command stream. The system under test only ever sees the
//! generated commands, never the seed.

/// One client operation: an increment of, or a read of, the counter at `key`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub key: u64,
    pub read: bool,
}

/// An endless stream of operations drawn from `(seed, keys, read_pct)`.
///
/// Key and op type come from two separate draws of one xorshift64* stream, so
/// every key sees both reads and updates (fig9/fig10 in `crates/bench` derive
/// both from the parity of one counter, which leaves half the keys read-only).
#[derive(Clone, Debug)]
pub struct Generator {
    state: u64,
    keys: u64,
    read_pct: u64,
}

impl Generator {
    pub fn new(seed: u64, keys: u64, read_pct: u64) -> Self {
        assert!(keys > 0, "a workload needs at least one key");
        assert!(read_pct <= 100, "read share is a percentage");
        // splitmix64 of the seed: xorshift must not start at zero, and nearby
        // seeds (1, 2, 3, ...) must not give nearby streams.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Generator { state: if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z }, keys, read_pct }
    }

    fn draw(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        // The high bits of xorshift64* are the good ones.
        x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 16
    }
}

impl Iterator for Generator {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        let key = self.draw() % self.keys;
        let read = self.draw() % 100 < self.read_pct;
        Some(Op { key, read })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<Op> = Generator::new(7, 64, 50).take(10_000).collect();
        let b: Vec<Op> = Generator::new(7, 64, 50).take(10_000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seed_different_stream() {
        let a: Vec<Op> = Generator::new(1, 64, 50).take(10_000).collect();
        let b: Vec<Op> = Generator::new(2, 64, 50).take(10_000).collect();
        assert_ne!(a, b);
        let same = a.iter().zip(&b).filter(|(x, y)| x == y).count();
        assert!(same < 500, "streams of seeds 1 and 2 agree on {same} of 10000 ops");
    }

    #[test]
    fn every_key_is_both_read_and_updated() {
        for seed in [0, 1, 2, u64::MAX] {
            let mut reads = [0u32; 64];
            let mut updates = [0u32; 64];
            for op in Generator::new(seed, 64, 50).take(10_000) {
                if op.read {
                    reads[op.key as usize] += 1;
                } else {
                    updates[op.key as usize] += 1;
                }
            }
            assert!(reads.iter().all(|&n| n > 0), "seed {seed}: a key is never read");
            assert!(updates.iter().all(|&n| n > 0), "seed {seed}: a key is never updated");
        }
    }

    #[test]
    fn read_share_is_honoured() {
        let reads = Generator::new(3, 1, 90).take(100_000).filter(|op| op.read).count();
        assert!((89_000..=91_000).contains(&reads), "{reads} reads of 100000 at 90%");
        assert!(Generator::new(3, 8, 0).take(1_000).all(|op| !op.read));
        assert!(Generator::new(3, 8, 100).take(1_000).all(|op| op.read));
    }
}
