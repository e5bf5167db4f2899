//! Counter CRDTs: the grow-only counter (G-Counter) of Algorithm 1 and the
//! increment/decrement PN-Counter built from two G-Counters.

use std::fmt;

use serde::de::{Deserializer, MapAccess, Visitor};
use serde::ser::{SerializeMap, Serializer};
use serde::{Deserialize, Serialize};

use crate::crdt::Crdt;
use crate::lattice::Lattice;
use crate::replica::ReplicaId;

/// Grow-only counter (G-Counter), the running example of the paper (Algorithm 1).
///
/// The payload is one non-negative slot per replica; a replica increments only its own
/// slot, `merge` takes the pointwise maximum, and the counter value is the sum of all
/// slots.
///
/// # Layout
///
/// Algorithm 1 declares the payload as `integer[n]`, and that is how it is held: the
/// slots are one flat list of `(replica, count)` pairs, ascending by replica and
/// unique, stored inside the counter itself for up to four replicas and in one
/// heap buffer beyond that. The protocol puts a whole keyspace of
/// counters in every state-bearing message, so what a counter costs to build, copy
/// and walk is what a replica pays per message: an inline counter is created, cloned
/// and decoded without touching the allocator, `join` / `leq` / `delta_since` are one
/// merge walk over two sorted lists, and an in-place decode overwrites the resident
/// slots. On the wire the slots are a map in ascending replica order.
///
/// # Example
///
/// ```
/// use crdt::{GCounter, Lattice, ReplicaId};
///
/// let mut a = GCounter::new();
/// let mut b = GCounter::new();
/// a.increment(ReplicaId::new(0), 2);
/// b.increment(ReplicaId::new(1), 3);
/// a.join(&b);
/// assert_eq!(a.value(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct GCounter {
    slots: Slots,
}

impl GCounter {
    /// Creates a zero counter.
    pub fn new() -> Self {
        GCounter::default()
    }

    /// Adds `amount` to the slot of `replica` (adding 0 makes no slot).
    pub fn increment(&mut self, replica: ReplicaId, amount: u64) {
        match self.slots.position(replica) {
            Ok(index) => self.slots.as_mut_slice()[index].1 += amount,
            Err(_) if amount == 0 => {}
            Err(index) => self.slots.insert(index, (replica, amount)),
        }
    }

    /// Returns the counter value (sum of all slots).
    pub fn value(&self) -> u64 {
        self.slots.as_slice().iter().map(|&(_, count)| count).sum()
    }

    /// Returns the slot of a single replica.
    pub fn slot(&self, replica: ReplicaId) -> u64 {
        self.slots.position(replica).map_or(0, |index| self.slots.as_slice()[index].1)
    }

    /// Number of replicas that have contributed at least one increment.
    pub fn contributors(&self) -> usize {
        self.slots.as_slice().iter().filter(|&&(_, count)| count > 0).count()
    }

    /// Every slot of `self` next to what `other` holds for the same replica (zero
    /// when it has no such slot): one walk over both sorted lists, where a lookup
    /// per slot would be quadratic.
    fn paired_with<'a>(
        &'a self,
        other: &'a GCounter,
    ) -> impl Iterator<Item = (ReplicaId, u64, u64)> + 'a {
        let mut theirs = other.slots.as_slice().iter().peekable();
        self.slots.as_slice().iter().map(move |&(replica, count)| {
            while theirs.next_if(|slot| slot.0 < replica).is_some() {}
            let held = theirs.peek().filter(|slot| slot.0 == replica).map_or(0, |slot| slot.1);
            (replica, count, held)
        })
    }

    /// The slots of `self` that exceed `known`'s, as a counter of their own (the
    /// body of [`crate::DeltaCrdt::delta_since`]).
    pub(crate) fn grown_since(&self, known: &GCounter) -> GCounter {
        let mut delta = GCounter::new();
        for (replica, count, held) in self.paired_with(known) {
            if count > held {
                delta.slots.push((replica, count));
            }
        }
        delta
    }
}

impl Lattice for GCounter {
    fn join(&mut self, other: &Self) {
        self.join_report(other);
    }

    fn leq(&self, other: &Self) -> bool {
        self.paired_with(other).all(|(_, count, held)| count <= held)
    }

    /// The join's one walk, comparing each slot as it takes the maximum. A zero
    /// slot of `other`'s is no slot: the join adds none, so equal counters are
    /// held alike whatever the join order.
    fn join_report(&mut self, other: &Self) -> (bool, bool) {
        let (mut grew, mut covered) = (false, true);
        // `at` only moves forward: both lists ascend, so the slot of each of
        // `other`'s replicas lies at or after the previous one's.
        let mut at = 0;
        for &(replica, count) in other.slots.as_slice().iter().filter(|slot| slot.1 > 0) {
            let slots = self.slots.as_mut_slice();
            while at < slots.len() && slots[at].0 < replica {
                covered &= slots[at].1 == 0;
                at += 1;
            }
            match slots.get_mut(at) {
                Some(slot) if slot.0 == replica => {
                    grew |= count > slot.1;
                    covered &= slot.1 <= count;
                    slot.1 = slot.1.max(count);
                }
                _ => {
                    grew = true;
                    self.slots.insert(at, (replica, count));
                }
            }
            at += 1;
        }
        covered &= self.slots.as_slice()[at..].iter().all(|&(_, count)| count == 0);
        (grew, covered)
    }
}

/// How many replicas' slots a counter holds inline; a counter with more
/// contributors keeps its slots in one heap buffer instead. Four covers the
/// three-replica groups of the paper's evaluation and this repository's
/// benchmark with one to spare, in 72 bytes a counter (rustc 1.95).
const INLINE_SLOTS: usize = 4;

/// One counter slot: a replica and its count.
type Slot = (ReplicaId, u64);

/// A counter's slots: ascending by replica, one per replica. Every method keeps
/// that; [`Slots::insert`] and [`Slots::push`] trust their caller for the position.
#[derive(Clone)]
enum Slots {
    /// The first `len` of `slots` are live.
    Inline { len: u8, slots: [Slot; INLINE_SLOTS] },
    /// More slots than fit inline — or fewer, in a buffer that once held more.
    Heap(Vec<Slot>),
}

impl Default for Slots {
    fn default() -> Self {
        Slots::Inline { len: 0, slots: [(ReplicaId::new(0), 0); INLINE_SLOTS] }
    }
}

impl Slots {
    fn as_slice(&self) -> &[Slot] {
        match self {
            Slots::Inline { len, slots } => &slots[..usize::from(*len)],
            Slots::Heap(slots) => slots,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Slot] {
        match self {
            Slots::Inline { len, slots } => &mut slots[..usize::from(*len)],
            Slots::Heap(slots) => slots,
        }
    }

    fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Where `replica`'s slot is (`Ok`) or would be inserted (`Err`).
    fn position(&self, replica: ReplicaId) -> Result<usize, usize> {
        self.as_slice().binary_search_by_key(&replica, |slot| slot.0)
    }

    /// Inserts `slot` at `index`, which the caller has found to be its place in
    /// the order.
    fn insert(&mut self, index: usize, slot: Slot) {
        match self {
            Slots::Inline { len, slots } if usize::from(*len) < slots.len() => {
                let live = usize::from(*len);
                slots.copy_within(index..live, index + 1);
                slots[index] = slot;
                *len += 1;
            }
            Slots::Inline { slots, .. } => {
                let mut spilled = Vec::with_capacity(2 * slots.len());
                spilled.extend_from_slice(slots);
                spilled.insert(index, slot);
                *self = Slots::Heap(spilled);
            }
            Slots::Heap(slots) => slots.insert(index, slot),
        }
    }

    /// Appends `slot`, whose replica the caller knows to exceed every one held.
    fn push(&mut self, slot: Slot) {
        self.insert(self.len(), slot);
    }

    /// Sets `replica`'s slot to `count`, whether or not it has one.
    fn put(&mut self, replica: ReplicaId, count: u64) {
        match self.position(replica) {
            Ok(index) => self.as_mut_slice()[index].1 = count,
            Err(index) => self.insert(index, (replica, count)),
        }
    }

    fn truncate(&mut self, keep: usize) {
        match self {
            Slots::Inline { len, .. } => *len = (*len).min(u8::try_from(keep).unwrap_or(u8::MAX)),
            Slots::Heap(slots) => slots.truncate(keep),
        }
    }
}

/// By content: where the slots are stored is not part of a counter's value.
impl PartialEq for Slots {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Slots {}

impl fmt::Debug for Slots {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.as_slice().iter().map(|(replica, count)| (replica, count)))
            .finish()
    }
}

/// On the wire the slots are a map from replica to count, ascending.
impl Serialize for Slots {
    /// Inlined into a map's entry loop whatever else its crate holds: left to the
    /// inliner, a change elsewhere in this crate once made a 256-key encode call
    /// out once per counter and once more per slot.
    #[inline]
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(self.len()))?;
        for (replica, count) in self.as_slice() {
            map.serialize_entry(replica, count)?;
        }
        map.end()
    }
}

impl<'de> Deserialize<'de> for Slots {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut slots = Slots::default();
        Self::deserialize_in_place(deserializer, &mut slots)?;
        Ok(slots)
    }

    /// Overwrites the resident slots with the decoded ones, keeping `place`'s
    /// storage. The encoder emits ascending replicas, so the decoded entries land
    /// on the resident slots one after the other; an encoding that is not
    /// ascending — a peer is free to send anything — is sorted in as a map decode
    /// would (the last duplicate wins). `place` holds sorted, unique slots when
    /// this returns, also with an error.
    fn deserialize_in_place<D: Deserializer<'de>>(
        deserializer: D,
        place: &mut Self,
    ) -> Result<(), D::Error> {
        struct SlotsVisitor<'a>(&'a mut Slots);

        impl<'de> Visitor<'de> for SlotsVisitor<'_> {
            type Value = ();

            fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
                formatter.write_str("a map from replica to count")
            }

            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<(), A::Error> {
                // The first `filled` slots are decoded ones, sorted and unique;
                // whatever lies behind them is what `place` held before.
                let mut filled = 0;
                let outcome = loop {
                    let (replica, count) = match map.next_entry::<ReplicaId, u64>() {
                        Ok(Some(entry)) => entry,
                        Ok(None) => break Ok(()),
                        Err(error) => break Err(error),
                    };
                    let slots = self.0.as_mut_slice();
                    if filled > 0 && slots[filled - 1].0 >= replica {
                        self.0.truncate(filled);
                        self.0.put(replica, count);
                        filled = self.0.len();
                        continue;
                    }
                    match slots.get_mut(filled) {
                        Some(slot) => *slot = (replica, count),
                        None => self.0.push((replica, count)),
                    }
                    filled += 1;
                };
                self.0.truncate(filled);
                outcome
            }
        }

        deserializer.deserialize_map(SlotsVisitor(place))
    }
}

/// Update commands accepted by [`GCounter`] when used as a replicated state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CounterUpdate {
    /// Add the given amount to the counter.
    Increment(u64),
}

/// Query commands accepted by counter CRDTs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum CounterQuery {
    /// Read the current counter value.
    #[default]
    Value,
}

impl Crdt for GCounter {
    type Update = CounterUpdate;
    type Query = CounterQuery;
    type Output = i64;

    fn apply(&mut self, replica: ReplicaId, update: &Self::Update) {
        match update {
            CounterUpdate::Increment(amount) => self.increment(replica, *amount),
        }
    }

    fn query(&self, _query: &Self::Query) -> Self::Output {
        self.value() as i64
    }
}

/// Positive-negative counter supporting increments and decrements.
///
/// Implemented as a product of two G-Counters (one for increments, one for
/// decrements); its value is the difference of the two.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PNCounter {
    pub(crate) increments: GCounter,
    pub(crate) decrements: GCounter,
}

impl PNCounter {
    /// Creates a zero counter.
    pub fn new() -> Self {
        PNCounter::default()
    }

    /// Adds `amount` to the counter on behalf of `replica`.
    pub fn increment(&mut self, replica: ReplicaId, amount: u64) {
        self.increments.increment(replica, amount);
    }

    /// Subtracts `amount` from the counter on behalf of `replica`.
    pub fn decrement(&mut self, replica: ReplicaId, amount: u64) {
        self.decrements.increment(replica, amount);
    }

    /// Returns the counter value (increments minus decrements).
    pub fn value(&self) -> i64 {
        self.increments.value() as i64 - self.decrements.value() as i64
    }
}

impl Lattice for PNCounter {
    fn join(&mut self, other: &Self) {
        self.increments.join(&other.increments);
        self.decrements.join(&other.decrements);
    }

    fn leq(&self, other: &Self) -> bool {
        self.increments.leq(&other.increments) && self.decrements.leq(&other.decrements)
    }
}

/// Update commands accepted by [`PNCounter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PnUpdate {
    /// Add the given amount.
    Increment(u64),
    /// Subtract the given amount.
    Decrement(u64),
}

impl Crdt for PNCounter {
    type Update = PnUpdate;
    type Query = CounterQuery;
    type Output = i64;

    fn apply(&mut self, replica: ReplicaId, update: &Self::Update) {
        match update {
            PnUpdate::Increment(amount) => self.increment(replica, *amount),
            PnUpdate::Decrement(amount) => self.decrement(replica, *amount),
        }
    }

    fn query(&self, _query: &Self::Query) -> Self::Output {
        self.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(id: u64) -> ReplicaId {
        ReplicaId::new(id)
    }

    #[test]
    fn gcounter_sums_slots() {
        let mut counter = GCounter::new();
        counter.increment(r(0), 1);
        counter.increment(r(0), 2);
        counter.increment(r(1), 10);
        assert_eq!(counter.value(), 13);
        assert_eq!(counter.slot(r(0)), 3);
        assert_eq!(counter.slot(r(2)), 0);
        assert_eq!(counter.contributors(), 2);
    }

    #[test]
    fn gcounter_holds_a_few_slots_inline_and_spills_beyond() {
        assert!(std::mem::size_of::<GCounter>() <= 80);
        // Replicas arrive out of order; the slots stay sorted either side of the
        // spill, and where they are stored never shows.
        let mut counter = GCounter::new();
        let mut expected = Vec::new();
        for (count, replica) in [5, 1, 9, 3, 7, 0, 8].into_iter().enumerate() {
            counter.increment(r(replica), replica + 1);
            expected.push((r(replica), replica + 1));
            expected.sort();
            assert_eq!(counter.slots.as_slice(), expected);
            let inline = matches!(counter.slots, Slots::Inline { .. });
            assert_eq!(inline, count < INLINE_SLOTS, "after {} slots", count + 1);
        }
        let mut small = GCounter::new();
        small.increment(r(1), 2);
        let mut shrunk = counter.clone();
        shrunk.slots.truncate(0);
        shrunk.increment(r(1), 2);
        assert!(matches!(shrunk.slots, Slots::Heap(_)));
        assert_eq!(shrunk, small);
        assert!(small.leq(&counter) && !counter.leq(&small));
        assert_eq!(small.clone().joined(&counter), counter);
        assert_eq!(counter.clone().joined(&small), counter);
    }

    #[test]
    fn gcounter_join_keeps_maximum_per_slot() {
        let mut a = GCounter::new();
        a.increment(r(0), 5);
        a.increment(r(1), 1);
        let mut b = GCounter::new();
        b.increment(r(0), 3);
        b.increment(r(2), 7);

        let joined = a.clone().joined(&b);
        assert_eq!(joined.slot(r(0)), 5);
        assert_eq!(joined.slot(r(1)), 1);
        assert_eq!(joined.slot(r(2)), 7);
        assert_eq!(joined.value(), 13);
        assert!(a.leq(&joined));
        assert!(b.leq(&joined));
        assert!(!joined.leq(&a));
    }

    #[test]
    fn gcounter_concurrent_states_are_incomparable() {
        let mut a = GCounter::new();
        a.increment(r(0), 1);
        let mut b = GCounter::new();
        b.increment(r(1), 1);
        assert!(!a.leq(&b));
        assert!(!b.leq(&a));
        assert!(a.partial_order(&b).is_none());
    }

    #[test]
    fn gcounter_as_crdt_state_machine() {
        let mut counter = GCounter::default();
        counter.apply(r(0), &CounterUpdate::Increment(4));
        counter.apply(r(1), &CounterUpdate::Increment(1));
        assert_eq!(counter.query(&CounterQuery::Value), 5);
    }

    #[test]
    fn gcounter_join_merges_update_sets() {
        // Validity (Theorem 3.1) depends on joins merging the update sets of both
        // operands: applying {+1 at r0} and {+2 at r1} then joining must be the same
        // as applying both to one replica chain.
        let mut a = GCounter::new();
        a.apply(r(0), &CounterUpdate::Increment(1));
        let mut b = GCounter::new();
        b.apply(r(1), &CounterUpdate::Increment(2));
        let joined = a.joined(&b);
        assert_eq!(joined.value(), 3);
    }

    #[test]
    fn pncounter_value_can_go_negative() {
        let mut counter = PNCounter::new();
        counter.increment(r(0), 2);
        counter.decrement(r(1), 5);
        assert_eq!(counter.value(), -3);
    }

    #[test]
    fn pncounter_join_is_componentwise() {
        let mut a = PNCounter::new();
        a.increment(r(0), 2);
        let mut b = PNCounter::new();
        b.decrement(r(1), 1);
        let joined = a.clone().joined(&b);
        assert_eq!(joined.value(), 1);
        assert!(a.leq(&joined));
        assert!(b.leq(&joined));
    }

    #[test]
    fn pncounter_as_crdt_state_machine() {
        let mut counter = PNCounter::default();
        counter.apply(r(0), &PnUpdate::Increment(10));
        counter.apply(r(1), &PnUpdate::Decrement(4));
        assert_eq!(counter.query(&CounterQuery::Value), 6);
    }

    #[test]
    fn decrement_is_monotone_in_the_lattice() {
        // A decrement shrinks the *value* but still grows the lattice state, which is
        // exactly why PN-Counters work as state-based CRDTs.
        let mut counter = PNCounter::new();
        counter.increment(r(0), 1);
        let before = counter.clone();
        counter.decrement(r(0), 1);
        assert!(before.leq(&counter));
        assert!(!counter.leq(&before));
        assert_eq!(counter.value(), 0);
    }
}
