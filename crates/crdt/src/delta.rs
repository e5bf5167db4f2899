//! Delta-state CRDTs: small payloads for the protocol's state-bearing messages.
//!
//! The paper's related-work section points to Almeida et al. ("Efficient state-based
//! CRDTs by delta-mutation") as the standard answer to large payload states: instead
//! of shipping the full state, a replica ships a small *delta* that, when joined into
//! any state containing the pre-state, has the same effect as shipping the full state.
//! A delta is a state of the same lattice, merged with the same join.
//!
//! Deltas are protocol payloads (`crdt_paxos_core::Payload::Delta`): with
//! `ProtocolConfig::payload_mode` set to `DeltaWhenPossible`, a proposer tracks the
//! last state each peer is known to hold (learned from `MERGED`/`ACK`/`NACK`
//! replies) and ships [`DeltaCrdt::delta_since`] deltas in `MERGE`/`PREPARE`/`VOTE`
//! messages, falling back to the full state on first contact, retries, and
//! retransmissions. The protocol diffs states rather than recording mutations,
//! because acceptor states also grow through remote joins that no local mutator
//! observed; the delta-mutators ([`GCounter::increment_delta`],
//! [`ORSet::insert_delta`], [`ORSet::remove_delta`]) return the delta of a single
//! mutation.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::counter::{GCounter, PNCounter};
use crate::gset::{GSet, TwoPhaseSet};
use crate::lattice::Lattice;
use crate::ormap::{paired, LatticeMap};
use crate::orset::{ORSet, Tag};
use crate::register::LwwRegister;
use crate::replica::ReplicaId;

/// A lattice whose states can be diffed into deltas.
///
/// Implementations must guarantee, for every pair of states `s` (self) and `k`
/// (known):
///
/// ```text
/// k ⊔ s.delta_since(k) = k ⊔ s
/// ```
///
/// Because join is monotone, this implies the property the protocol relies on: for
/// **any** state `s'` with `k ⊑ s'`, joining the delta yields `s' ⊔ delta ⊒ s` — the
/// receiver ends up containing everything the sender had, exactly as if the full
/// state had been shipped.
pub trait DeltaCrdt: Lattice {
    /// Computes the delta covering everything in `self` that is not already
    /// reflected in `known` (a state the receiver is known to contain).
    fn delta_since(&self, known: &Self) -> Self;
}

impl DeltaCrdt for GCounter {
    fn delta_since(&self, known: &Self) -> GCounter {
        self.grown_since(known)
    }
}

impl GCounter {
    /// Delta-mutator for increments: returns a single-slot counter that carries just
    /// this replica's new slot value.
    #[must_use = "the returned delta must be applied or shipped"]
    pub fn increment_delta(&mut self, replica: ReplicaId, amount: u64) -> GCounter {
        self.increment(replica, amount);
        let mut delta = GCounter::new();
        delta.increment(replica, self.slot(replica));
        delta
    }
}

impl DeltaCrdt for PNCounter {
    fn delta_since(&self, known: &Self) -> PNCounter {
        PNCounter {
            increments: self.increments.delta_since(&known.increments),
            decrements: self.decrements.delta_since(&known.decrements),
        }
    }
}

impl<T> DeltaCrdt for GSet<T>
where
    T: Ord + Clone + fmt::Debug,
{
    fn delta_since(&self, known: &Self) -> GSet<T> {
        GSet { elements: self.elements.difference(&known.elements).cloned().collect() }
    }
}

impl<T> DeltaCrdt for TwoPhaseSet<T>
where
    T: Ord + Clone + fmt::Debug,
{
    fn delta_since(&self, known: &Self) -> TwoPhaseSet<T> {
        TwoPhaseSet {
            added: self.added.difference(&known.added).cloned().collect(),
            removed: self.removed.difference(&known.removed).cloned().collect(),
        }
    }
}

impl<T> DeltaCrdt for ORSet<T>
where
    T: Ord + Clone + fmt::Debug,
{
    fn delta_since(&self, known: &Self) -> ORSet<T> {
        let mut delta = ORSet::default();
        for (value, tags) in &self.entries {
            let missing: BTreeSet<Tag> = match known.entries.get(value) {
                Some(known_tags) => tags.difference(known_tags).copied().collect(),
                None => tags.clone(),
            };
            if !missing.is_empty() {
                delta.entries.insert(value.clone(), missing);
            }
        }
        delta.tombstones = self.tombstones.difference(&known.tombstones).copied().collect();
        for (&replica, &counter) in &self.counters {
            if counter > known.counters.get(&replica).copied().unwrap_or(0) {
                delta.counters.insert(replica, counter);
            }
        }
        delta
    }
}

impl<T> ORSet<T>
where
    T: Ord + Clone + fmt::Debug,
{
    /// Delta-mutator for inserts: returns an OR-Set that carries only the freshly
    /// minted tag (and the minting replica's counter).
    #[must_use = "the returned delta must be applied or shipped"]
    pub fn insert_delta(&mut self, replica: ReplicaId, value: T) -> ORSet<T> {
        let counter = self.counters.entry(replica).or_insert(0);
        *counter += 1;
        let sequence = *counter;
        let tag = Tag { replica, sequence };
        self.entries.entry(value.clone()).or_default().insert(tag);

        let mut delta = ORSet::default();
        delta.entries.insert(value, BTreeSet::from([tag]));
        delta.counters.insert(replica, sequence);
        delta
    }

    /// Delta-mutator for removals: returns an OR-Set carrying only the new tombstones
    /// (and the removed element's tags so peers learn which tags were observed).
    #[must_use = "the returned delta must be applied or shipped"]
    pub fn remove_delta(&mut self, value: &T) -> ORSet<T> {
        let observed = self.entries.get(value).cloned().unwrap_or_default();
        for tag in &observed {
            self.tombstones.insert(*tag);
        }

        let mut delta = ORSet::default();
        if !observed.is_empty() {
            delta.entries.insert(value.clone(), observed.clone());
            delta.tombstones = observed;
        }
        delta
    }
}

impl<T> DeltaCrdt for LwwRegister<T>
where
    T: Clone + fmt::Debug + PartialEq,
{
    fn delta_since(&self, known: &Self) -> LwwRegister<T> {
        if self.leq(known) {
            LwwRegister::default()
        } else {
            self.clone()
        }
    }
}

impl<K, V> DeltaCrdt for LatticeMap<K, V>
where
    K: Ord + Clone + fmt::Debug,
    V: DeltaCrdt + Default,
{
    /// Per-key deltas: only the keys whose nested value actually grew are shipped.
    fn delta_since(&self, known: &Self) -> Self {
        let delta = paired(&self.entries, &known.entries)
            .filter_map(|(key, value, held)| match held {
                Some(held) if value.leq(held) => None,
                Some(held) => Some((key.clone(), value.delta_since(held))),
                None => Some((key.clone(), value.delta_since(&V::default()))),
            })
            .collect();
        LatticeMap { entries: Arc::new(delta) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(id: u64) -> ReplicaId {
        ReplicaId::new(id)
    }

    /// Checks the `delta_since` law `k ⊔ s.delta_since(k) = k ⊔ s` for one pair.
    fn assert_delta_law<C: DeltaCrdt>(state: &C, known: &C) {
        let mut via_delta = known.clone();
        via_delta.join(&state.delta_since(known));
        let via_full = known.clone().joined(state);
        assert!(
            via_delta.equivalent(&via_full),
            "delta law violated: {via_delta:?} != {via_full:?}"
        );
    }

    #[test]
    fn gcounter_delta_has_full_mutation_effect() {
        let mut source = GCounter::new();
        source.increment(r(0), 1);

        // A replica that already has the pre-state...
        let mut replica = source.clone();

        let delta = source.increment_delta(r(0), 4);
        replica.join(&delta);
        assert_eq!(replica.value(), source.value());
        assert_eq!(replica, source);
    }

    #[test]
    fn gcounter_delta_is_small() {
        let mut source = GCounter::new();
        for id in 0..10 {
            source.increment(r(id), 100);
        }
        let delta = source.increment_delta(r(3), 1);
        assert_eq!(delta.contributors(), 1, "delta only carries the mutated slot");
    }

    #[test]
    fn gcounter_delta_since_carries_only_grown_slots() {
        let mut known = GCounter::new();
        for id in 0..64 {
            known.increment(r(id), 10);
        }
        let mut state = known.clone();
        state.increment(r(3), 5);
        let delta = state.delta_since(&known);
        assert_eq!(delta.contributors(), 1);
        assert_delta_law(&state, &known);
        // A receiver that is already ahead ends up with the join, not a regression.
        let mut ahead = known.clone();
        ahead.increment(r(7), 1);
        assert_delta_law(&state, &known);
        let mut ahead_joined = ahead.clone();
        ahead_joined.join(&delta);
        assert!(state.leq(&ahead_joined) && ahead.leq(&ahead_joined));
    }

    #[test]
    fn orset_insert_delta_converges() {
        let mut source: ORSet<&str> = ORSet::new();
        let mut replica: ORSet<&str> = ORSet::new();

        let delta = source.insert_delta(r(0), "a");
        replica.join(&delta);
        assert!(replica.contains(&"a"));

        let delta = source.remove_delta(&"a");
        replica.join(&delta);
        assert!(!replica.contains(&"a"));
        assert_eq!(replica.elements(), source.elements());
    }

    #[test]
    fn orset_delta_stream_equivalent_to_state_sync() {
        let mut source: ORSet<u32> = ORSet::new();
        let mut via_deltas: ORSet<u32> = ORSet::new();
        for i in 0u32..20 {
            let delta = source.insert_delta(r(u64::from(i % 3)), i);
            via_deltas.join(&delta);
            if i % 4 == 0 {
                let delta = source.remove_delta(&i);
                via_deltas.join(&delta);
            }
        }
        assert_eq!(via_deltas.elements(), source.elements());
    }

    #[test]
    fn orset_mutator_deltas_are_single_element() {
        // The delta of one insert must not scale with the size of the whole set.
        let mut source: ORSet<u32> = ORSet::new();
        for i in 0..100 {
            let _ = source.insert_delta(r(0), i);
        }
        let delta = source.insert_delta(r(1), 1000);
        assert_eq!(delta.elements().len(), 1);
        assert_eq!(delta.tombstone_count(), 0);

        let delta = source.remove_delta(&5);
        assert_eq!(delta.tombstone_count(), 1, "only the removed element's tag");
    }

    #[test]
    fn orset_delta_since_diffs_tags_tombstones_and_counters() {
        let mut known: ORSet<&str> = ORSet::new();
        known.insert(r(0), "a");
        known.insert(r(1), "b");
        let mut state = known.clone();
        state.insert(r(0), "c");
        state.remove(&"b");
        let delta = state.delta_since(&known);
        assert_eq!(delta.elements().len(), 1, "only the new element's live tag");
        assert_eq!(delta.tombstone_count(), 1, "only the new tombstone");
        assert_delta_law(&state, &known);
    }

    #[test]
    fn delta_law_holds_for_sets_and_counters() {
        let mut k1: GSet<u32> = [1, 2, 3].into_iter().collect();
        let mut s1 = k1.clone();
        s1.insert(9);
        assert_eq!(s1.delta_since(&k1).len(), 1);
        assert_delta_law(&s1, &k1);
        k1.insert(99);
        assert_delta_law(&s1, &k1);

        let mut k2: TwoPhaseSet<u32> = TwoPhaseSet::new();
        k2.insert(1);
        let mut s2 = k2.clone();
        s2.remove(1);
        s2.insert(2);
        assert_delta_law(&s2, &k2);

        let mut k3 = PNCounter::new();
        k3.increment(r(0), 5);
        let mut s3 = k3.clone();
        s3.decrement(r(1), 2);
        assert_delta_law(&s3, &k3);
    }

    #[test]
    fn delta_law_holds_for_registers() {
        use crate::register::LwwStamp;

        let mut k: LwwRegister<&str> = LwwRegister::new();
        k.set(LwwStamp::new(1, r(0)), "old");
        let mut s = k.clone();
        s.set(LwwStamp::new(2, r(1)), "new");
        assert_delta_law(&s, &k);
        // Nothing new: the delta is the empty register.
        assert_eq!(k.delta_since(&s), LwwRegister::default());
    }

    #[test]
    fn lattice_map_delta_is_per_key() {
        let mut known: LatticeMap<&str, GCounter> = LatticeMap::new();
        for key in ["a", "b", "c", "d"] {
            known.update(key, |c| c.increment(r(0), 10));
        }
        let mut state = known.clone();
        state.update("b", |c| c.increment(r(1), 1));
        state.update("new", |c| c.increment(r(2), 7));

        let delta = state.delta_since(&known);
        assert_eq!(delta.len(), 2, "unchanged keys are not shipped");
        assert!(delta.get(&"b").is_some() && delta.get(&"new").is_some());
        assert_delta_law(&state, &known);
    }
}
