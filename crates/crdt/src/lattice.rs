//! Join semilattices: the algebraic foundation of state-based CRDTs.
//!
//! A join semilattice is a set equipped with a partial order `⊑` and a least upper
//! bound (`⊔`, "join") for every pair of elements (Definition 1 in the paper). All
//! payload states of state-based CRDTs live in such a lattice, and the replication
//! protocol only ever moves states *upwards* by joining them, which is what makes a
//! logless, in-place replicated state machine possible.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

/// A join semilattice.
///
/// Implementations must satisfy the semilattice laws (checked by property tests for
/// every CRDT in this crate):
///
/// * **idempotence** — `x ⊔ x = x`
/// * **commutativity** — `x ⊔ y = y ⊔ x`
/// * **associativity** — `(x ⊔ y) ⊔ z = x ⊔ (y ⊔ z)`
/// * **consistency with the order** — `x ⊑ x ⊔ y` and `y ⊑ x ⊔ y`, and
///   `x ⊑ y ⇒ x ⊔ y = y`.
///
/// The provided methods derive from `join` and `leq`, and must agree with them
/// where a type overrides one: [`Lattice::join_report`] returns `x ⊔ y` with the
/// flags `(y ⋢ x, x ⊑ y)`, [`Lattice::equivalent`] is `x ⊑ y ∧ y ⊑ x`, and
/// [`Lattice::partial_order`] classifies the same two `leq`s.
///
/// # Example
///
/// ```
/// use crdt::{Lattice, Max};
///
/// let mut a = Max::new(3u64);
/// let b = Max::new(7u64);
/// a.join(&b);
/// assert_eq!(a.get(), 7);
/// assert!(Max::new(3u64).leq(&a));
/// ```
pub trait Lattice: Clone + fmt::Debug {
    /// Replaces `self` with the least upper bound `self ⊔ other`.
    fn join(&mut self, other: &Self);

    /// Returns `true` iff `self ⊑ other` in the lattice's partial order.
    fn leq(&self, other: &Self) -> bool;

    /// Replaces `self` with `self ⊔ other` and reports how the two compared, as
    /// `(grew, covered)`: `grew` iff `other ⋢ self` (so `self` grew), `covered`
    /// iff the old `self ⊑ other`. The two were equivalent exactly when
    /// `!grew && covered`.
    ///
    /// This is the order a join learns anyway: a proposer that joins each reply
    /// into the LUB it gathers learns from the same walk whether the reply equals
    /// that LUB (paper Algorithm 2, lines 11–15). The default is two `leq`s and a
    /// `join`; types whose join is one walk over their parts override it to report
    /// from that walk.
    ///
    /// ```
    /// use crdt::{Lattice, Max};
    ///
    /// let mut a = Max::new(3u64);
    /// assert_eq!(a.join_report(&Max::new(3)), (false, true), "equal");
    /// assert_eq!(a.join_report(&Max::new(1)), (false, false), "other below");
    /// assert_eq!(a.join_report(&Max::new(7)), (true, true), "other above");
    /// assert_eq!(a.get(), 7);
    /// ```
    fn join_report(&mut self, other: &Self) -> (bool, bool) {
        let grew = !other.leq(self);
        let covered = self.leq(other);
        self.join(other);
        (grew, covered)
    }

    /// Returns the least upper bound of `self` and `other` by value.
    #[must_use]
    fn joined(mut self, other: &Self) -> Self
    where
        Self: Sized,
    {
        self.join(other);
        self
    }

    /// Returns `true` iff the two states are equivalent (`x ⊑ y ∧ y ⊑ x`).
    ///
    /// Equivalent states answer every query identically (paper §2.2).
    fn equivalent(&self, other: &Self) -> bool {
        self.leq(other) && other.leq(self)
    }

    /// Compares two states in the lattice's partial order.
    ///
    /// Returns `None` when the states are incomparable (concurrent).
    fn partial_order(&self, other: &Self) -> Option<Ordering> {
        match (self.leq(other), other.leq(self)) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (false, false) => None,
        }
    }
}

/// Max lattice over a totally ordered type: join is `max`, order is `<=`.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct Max<T>(T);

impl<T: Ord + Clone + fmt::Debug> Max<T> {
    /// Wraps `value` as a max-lattice element.
    pub fn new(value: T) -> Self {
        Max(value)
    }

    /// Returns the wrapped value.
    pub fn get(&self) -> T {
        self.0.clone()
    }
}

impl<T: Ord + Clone + fmt::Debug> Lattice for Max<T> {
    fn join(&mut self, other: &Self) {
        if other.0 > self.0 {
            self.0 = other.0.clone();
        }
    }

    fn leq(&self, other: &Self) -> bool {
        self.0 <= other.0
    }
}

/// Grow-only set lattice: join is set union, order is set inclusion.
impl<T: Ord + Clone + fmt::Debug> Lattice for BTreeSet<T> {
    fn join(&mut self, other: &Self) {
        for item in other {
            if !self.contains(item) {
                self.insert(item.clone());
            }
        }
    }

    fn leq(&self, other: &Self) -> bool {
        self.is_subset(other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_joins_to_maximum() {
        let mut a = Max::new(10u32);
        a.join(&Max::new(3));
        assert_eq!(a.get(), 10);
        a.join(&Max::new(42));
        assert_eq!(a.get(), 42);
        assert!(Max::new(10u32).leq(&a));
        assert!(!a.leq(&Max::new(10u32)));
    }

    #[test]
    fn set_lattice_is_union_and_inclusion() {
        let mut a: BTreeSet<u32> = [1, 2].into_iter().collect();
        let b: BTreeSet<u32> = [2, 3].into_iter().collect();
        assert!(!a.leq(&b));
        a.join(&b);
        assert_eq!(a, [1, 2, 3].into_iter().collect());
        assert!(b.leq(&a));
    }

    #[test]
    fn partial_order_classification() {
        let small = Max::new(1u8);
        let large = Max::new(2u8);
        assert_eq!(small.partial_order(&large), Some(Ordering::Less));
        assert_eq!(large.partial_order(&small), Some(Ordering::Greater));
        assert_eq!(small.partial_order(&small), Some(Ordering::Equal));
        assert!(small.equivalent(&small));
    }

    #[test]
    fn joined_returns_by_value() {
        let joined = Max::new(1u8).joined(&Max::new(5));
        assert_eq!(joined.get(), 5);
    }
}
