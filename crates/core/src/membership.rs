//! Static cluster membership.
//!
//! The paper's system model (§2.1) assumes a fixed process set `Π` and a quorum
//! system over it whose quorums pairwise intersect; progress requires that at
//! least one quorum stays alive and connected. The protocol uses one quorum
//! system: any `⌊n/2⌋ + 1` processes form a quorum (the paper's evaluation runs it
//! with `n = 3`).

use serde::{Deserialize, Serialize};

/// A fixed replica group: the process set `Π` of the paper's system model.
///
/// Membership is static (the paper does not consider reconfiguration); the type
/// provides iteration helpers and the size of the group's majority quorums.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Membership<P: Ord> {
    members: Vec<P>,
}

impl<P: Copy + Ord> Membership<P> {
    /// Creates a membership from the given members (deduplicated, sorted).
    ///
    /// # Panics
    ///
    /// Panics if `members` is empty.
    pub fn new(members: Vec<P>) -> Self {
        assert!(!members.is_empty(), "a replica group needs at least one member");
        let mut members = members;
        members.sort();
        members.dedup();
        Membership { members }
    }

    /// Returns all members in sorted order.
    pub fn members(&self) -> &[P] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if there are no members (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Returns `true` if `process` belongs to the group.
    pub fn contains(&self, process: &P) -> bool {
        self.members.binary_search(process).is_ok()
    }

    /// Iterates over the members excluding `process` (e.g. "all remote acceptors").
    pub fn others(&self, process: P) -> impl Iterator<Item = P> + '_ {
        self.members.iter().copied().filter(move |p| *p != process)
    }

    /// How many members form a quorum: any strict majority, `⌊n/2⌋ + 1`.
    ///
    /// Two such quorums always share a member — the intersection property all
    /// correctness arguments of the protocol (Lemmas 3.4–3.7 in the paper) rest
    /// on — and `⌊(n-1)/2⌋` members may crash with a quorum still alive.
    pub fn quorum_size(&self) -> usize {
        self.members.len() / 2 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_are_sorted_and_deduplicated() {
        let membership = Membership::new(vec![3u64, 1, 2, 1]);
        assert_eq!(membership.members(), &[1, 2, 3]);
        assert_eq!(membership.len(), 3);
        assert!(!membership.is_empty());
        assert!(membership.contains(&2));
        assert!(!membership.contains(&9));
    }

    #[test]
    fn others_excludes_self() {
        let membership = Membership::new(vec![0u64, 1, 2]);
        let others: Vec<u64> = membership.others(1).collect();
        assert_eq!(others, vec![0, 2]);
    }

    #[test]
    fn majority_quorum_from_membership() {
        assert_eq!(Membership::new(vec![0u64, 1, 2]).quorum_size(), 2);
        assert_eq!(Membership::new(vec![1u64, 1, 2, 2, 3]).quorum_size(), 2, "duplicates");
        for n in 1..=16u64 {
            let quorum = Membership::new((0..n).collect()).quorum_size() as u64;
            assert!(2 * quorum > n, "two quorums of {quorum} out of {n} may be disjoint");
            assert_eq!(n - quorum, (n - 1) / 2, "crashes a group of {n} must tolerate");
        }
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_membership_panics() {
        let _ = Membership::<u64>::new(vec![]);
    }
}
