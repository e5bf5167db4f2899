//! Join semilattices: the algebraic foundation of state-based CRDTs.
//!
//! A join semilattice is a set equipped with a partial order `⊑` and a least upper
//! bound (`⊔`, "join") for every pair of elements (Definition 1 in the paper). All
//! payload states of state-based CRDTs live in such a lattice, and the replication
//! protocol only ever moves states *upwards* by joining them, which is what makes a
//! logless, in-place replicated state machine possible.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
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

    /// Returns `true` iff the two states are comparable (`x ⊑ y ∨ y ⊑ x`).
    fn comparable(&self, other: &Self) -> bool {
        self.leq(other) || other.leq(self)
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

/// Computes the least upper bound of an iterator of lattice states.
///
/// Returns `None` for an empty iterator, mirroring that a LUB of the empty set is the
/// (not always representable) bottom element.
///
/// # Example
///
/// ```
/// use crdt::{lub, Max};
///
/// let states = vec![Max::new(1), Max::new(9), Max::new(4)];
/// assert_eq!(lub(states.iter().cloned()).unwrap().get(), 9);
/// ```
pub fn lub<L, I>(states: I) -> Option<L>
where
    L: Lattice,
    I: IntoIterator<Item = L>,
{
    let mut iter = states.into_iter();
    let mut acc = iter.next()?;
    for state in iter {
        acc.join(&state);
    }
    Some(acc)
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

    /// Returns a reference to the wrapped value.
    pub fn as_inner(&self) -> &T {
        &self.0
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

/// Min lattice over a totally ordered type: join is `min`, order is reversed `<=`.
///
/// This is the dual of [`Max`]; it is useful for monotonically *shrinking* quantities
/// such as "earliest deadline seen".
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
pub struct Min<T>(T);

impl<T: Ord + Clone + fmt::Debug> Min<T> {
    /// Wraps `value` as a min-lattice element.
    pub fn new(value: T) -> Self {
        Min(value)
    }

    /// Returns the wrapped value.
    pub fn get(&self) -> T {
        self.0.clone()
    }
}

impl<T: Ord + Clone + fmt::Debug> Lattice for Min<T> {
    fn join(&mut self, other: &Self) {
        if other.0 < self.0 {
            self.0 = other.0.clone();
        }
    }

    fn leq(&self, other: &Self) -> bool {
        other.0 <= self.0
    }
}

/// Boolean "or" lattice: `false ⊑ true`, join is logical or.
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
pub struct Flag(bool);

impl Flag {
    /// Creates a flag with the given initial value.
    pub fn new(value: bool) -> Self {
        Flag(value)
    }

    /// Returns `true` once the flag has been raised anywhere.
    pub fn is_set(&self) -> bool {
        self.0
    }

    /// Raises the flag (monotone update).
    pub fn set(&mut self) {
        self.0 = true;
    }
}

impl Lattice for Flag {
    fn join(&mut self, other: &Self) {
        self.0 |= other.0;
    }

    fn leq(&self, other: &Self) -> bool {
        !self.0 || other.0
    }
}

impl Lattice for () {
    fn join(&mut self, _other: &Self) {}

    fn leq(&self, _other: &Self) -> bool {
        true
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

/// Pointwise map lattice: join merges keys and joins values of common keys; a missing
/// key is treated as bottom.
///
/// Both operations are one ordered walk over the two maps side by side, never a
/// lookup per key.
impl<K: Ord + Clone + fmt::Debug, V: Lattice> Lattice for BTreeMap<K, V> {
    fn join(&mut self, other: &Self) {
        let mut missing = Vec::new();
        let mut mine = self.iter_mut().peekable();
        for (key, value) in other {
            while mine.next_if(|(existing, _)| *existing < key).is_some() {}
            match mine.peek_mut() {
                Some((existing, held)) if *existing == key => held.join(value),
                _ => missing.push((key.clone(), value.clone())),
            }
        }
        self.extend(missing);
    }

    fn leq(&self, other: &Self) -> bool {
        let mut theirs = other.iter().peekable();
        self.iter().all(|(key, value)| {
            while theirs.next_if(|(existing, _)| *existing < key).is_some() {}
            theirs.peek().is_some_and(|(existing, held)| *existing == key && value.leq(held))
        })
    }
}

/// Option lattice: `None` is bottom, `Some(x) ⊔ Some(y) = Some(x ⊔ y)`.
impl<T: Lattice> Lattice for Option<T> {
    fn join(&mut self, other: &Self) {
        match (self.as_mut(), other) {
            (Some(a), Some(b)) => a.join(b),
            (None, Some(b)) => *self = Some(b.clone()),
            (_, None) => {}
        }
    }

    fn leq(&self, other: &Self) -> bool {
        match (self, other) {
            (None, _) => true,
            (Some(_), None) => false,
            (Some(a), Some(b)) => a.leq(b),
        }
    }
}

/// Product lattice: componentwise join and order.
impl<A: Lattice, B: Lattice> Lattice for (A, B) {
    fn join(&mut self, other: &Self) {
        self.0.join(&other.0);
        self.1.join(&other.1);
    }

    fn leq(&self, other: &Self) -> bool {
        self.0.leq(&other.0) && self.1.leq(&other.1)
    }
}

/// Three-way product lattice.
impl<A: Lattice, B: Lattice, C: Lattice> Lattice for (A, B, C) {
    fn join(&mut self, other: &Self) {
        self.0.join(&other.0);
        self.1.join(&other.1);
        self.2.join(&other.2);
    }

    fn leq(&self, other: &Self) -> bool {
        self.0.leq(&other.0) && self.1.leq(&other.1) && self.2.leq(&other.2)
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
    fn min_is_dual_of_max() {
        let mut a = Min::new(10u32);
        a.join(&Min::new(3));
        assert_eq!(a.get(), 3);
        assert!(Min::new(10u32).leq(&a));
        assert!(!a.leq(&Min::new(10u32)));
    }

    #[test]
    fn flag_latches() {
        let mut f = Flag::default();
        assert!(!f.is_set());
        f.join(&Flag::new(true));
        assert!(f.is_set());
        f.join(&Flag::new(false));
        assert!(f.is_set());
        assert!(Flag::new(false).leq(&Flag::new(true)));
        assert!(!Flag::new(true).leq(&Flag::new(false)));
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
    fn map_lattice_is_pointwise() {
        let mut a: BTreeMap<&str, Max<u64>> = BTreeMap::new();
        a.insert("x", Max::new(1));
        a.insert("y", Max::new(5));
        let mut b = BTreeMap::new();
        b.insert("y", Max::new(2));
        b.insert("z", Max::new(9));

        a.join(&b);
        assert_eq!(a["x"].get(), 1);
        assert_eq!(a["y"].get(), 5);
        assert_eq!(a["z"].get(), 9);
        assert!(b.leq(&a));
        assert!(!a.leq(&b));
    }

    #[test]
    fn option_lattice_treats_none_as_bottom() {
        let mut a: Option<Max<u8>> = None;
        assert!(a.leq(&None));
        a.join(&Some(Max::new(4)));
        assert_eq!(a, Some(Max::new(4)));
        assert!(None::<Max<u8>>.leq(&a));
        assert!(!a.leq(&None));
    }

    #[test]
    fn tuple_lattice_is_componentwise() {
        let mut a = (Max::new(1u8), Flag::new(false));
        let b = (Max::new(0u8), Flag::new(true));
        assert!(!a.leq(&b));
        assert!(!b.leq(&a));
        assert!(a.partial_order(&b).is_none());
        a.join(&b);
        assert_eq!(a.0.get(), 1);
        assert!(a.1.is_set());
    }

    #[test]
    fn partial_order_classification() {
        let small = Max::new(1u8);
        let large = Max::new(2u8);
        assert_eq!(small.partial_order(&large), Some(Ordering::Less));
        assert_eq!(large.partial_order(&small), Some(Ordering::Greater));
        assert_eq!(small.partial_order(&small), Some(Ordering::Equal));
        assert!(small.equivalent(&small));
        assert!(small.comparable(&large));
    }

    #[test]
    fn lub_of_iterator() {
        assert_eq!(lub(Vec::<Max<u8>>::new()), None);
        let states = vec![Max::new(3u8), Max::new(1), Max::new(7)];
        assert_eq!(lub(states).unwrap().get(), 7);
    }

    #[test]
    fn joined_returns_by_value() {
        let joined = Max::new(1u8).joined(&Max::new(5));
        assert_eq!(joined.get(), 5);
    }
}
