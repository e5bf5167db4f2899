//! The correctness gate: every reply of a run goes into a per-key history
//! that `cluster::check_keyed_history` must accept.

use std::collections::BTreeMap;

use cluster::{check_keyed_history, HistoryOp, OpKind};

/// `check_counter_history` compares every read with every operation of its
/// key, so its cost is `reads × (reads + increments)` per key: quadratic, and
/// minutes on the one-key workload's 10⁵ reads. A run may spend this many
/// comparisons, shared evenly among its keys; a key that would need more has
/// its reads thinned to every n-th one (all increments stay, so each kept
/// read is still checked against its exact bounds; dropping reads from a
/// linearizable history leaves a linearizable history).
const COMPARISONS_PER_RUN: u64 = 300_000_000;

pub struct Verdict {
    /// Commands of the keys whose history the checker rejected.
    pub rejected_commands: u64,
    pub reads: u64,
    pub reads_checked: u64,
    /// First violation, for the report.
    pub violation: Option<String>,
}

pub fn check(history: &[(u64, HistoryOp)]) -> Verdict {
    check_within(history, COMPARISONS_PER_RUN)
}

fn check_within(history: &[(u64, HistoryOp)], comparisons: u64) -> Verdict {
    let mut per_key: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for (key, op) in history {
        let (reads, increments) = per_key.entry(*key).or_default();
        match op.kind {
            OpKind::Read(_) => *reads += 1,
            OpKind::Increment(_) => *increments += 1,
        }
    }
    let budget = comparisons / per_key.len().max(1) as u64;
    let stride: BTreeMap<u64, u64> = per_key
        .iter()
        .map(|(&key, &(reads, increments))| (key, read_stride(reads, increments, budget)))
        .collect();
    let mut seen: BTreeMap<u64, u64> = BTreeMap::new();
    let thinned: Vec<(u64, HistoryOp)> = history
        .iter()
        .filter(|(key, op)| match op.kind {
            OpKind::Increment(_) => true,
            OpKind::Read(_) => {
                let nth = seen.entry(*key).or_insert(0);
                *nth += 1;
                (*nth - 1).is_multiple_of(stride[key])
            }
        })
        .cloned()
        .collect();
    let reads: u64 = per_key.values().map(|&(reads, _)| reads).sum();
    let reads_checked =
        thinned.iter().filter(|(_, op)| matches!(op.kind, OpKind::Read(_))).count() as u64;

    // The checker stops at the first bad key; keep going so every rejected
    // key's commands are counted.
    let mut remaining = thinned;
    let mut rejected_commands = 0;
    let mut violation = None;
    while let Err((key, found)) = check_keyed_history(&remaining) {
        let (reads, increments) = per_key[&key];
        rejected_commands += reads + increments;
        violation.get_or_insert_with(|| format!("key {key}: {found}"));
        remaining.retain(|(other, _)| *other != key);
    }
    Verdict { rejected_commands, reads, reads_checked, violation }
}

/// The smallest n such that checking every n-th read of a key stays within
/// `budget` comparisons.
fn read_stride(reads: u64, increments: u64, budget: u64) -> u64 {
    let mut stride = 1;
    while (reads / stride) * (reads / stride + increments) > budget {
        stride += 1;
    }
    stride
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inc(invoked_us: u64, responded_us: u64) -> HistoryOp {
        HistoryOp { invoked_us, responded_us, kind: OpKind::Increment(1) }
    }

    fn read(invoked_us: u64, responded_us: u64, value: i64) -> HistoryOp {
        HistoryOp { invoked_us, responded_us, kind: OpKind::Read(value) }
    }

    #[test]
    fn accepts_a_linearizable_history() {
        let history =
            vec![(1, inc(0, 10)), (1, read(20, 30, 1)), (2, read(0, 5, 0)), (2, inc(6, 9))];
        let verdict = check(&history);
        assert_eq!(verdict.rejected_commands, 0);
        assert_eq!((verdict.reads, verdict.reads_checked), (2, 2));
        assert!(verdict.violation.is_none());
    }

    #[test]
    fn counts_every_command_of_every_rejected_key() {
        let history = vec![
            (1, inc(0, 10)),
            (1, read(20, 30, 0)), // missed a completed increment
            (2, inc(0, 10)),
            (2, read(20, 30, 1)),
            (3, read(0, 5, 7)), // value from nowhere
        ];
        let verdict = check(&history);
        assert_eq!(verdict.rejected_commands, 3);
        assert!(verdict.violation.unwrap().starts_with("key 1:"));
    }

    #[test]
    fn stride_keeps_the_work_within_budget() {
        assert_eq!(read_stride(100, 100, 40_000_000), 1);
        let stride = read_stride(180_000, 20_000, 40_000_000);
        assert!(stride > 1);
        let kept = 180_000 / stride;
        assert!(kept * (kept + 20_000) <= 40_000_000);
        let looser = 180_000 / (stride - 1);
        assert!(looser * (looser + 20_000) > 40_000_000);
    }

    #[test]
    fn a_thinned_history_still_catches_a_stale_read() {
        // 2000 reads after one completed increment, all stale: with a budget
        // that keeps only some of the reads, the violation is still found.
        let mut history = vec![(0, inc(0, 10))];
        history.extend((0..2000).map(|i| (0, read(20 + i, 21 + i, 0))));
        let verdict = check_within(&history, 300_000);
        assert!(verdict.reads_checked < verdict.reads);
        assert_eq!(verdict.rejected_commands, 2001);
    }
}
