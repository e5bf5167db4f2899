//! Composable map of lattices (grow-only key set, pointwise-joined values).
//!
//! `LatticeMap<K, V>` embeds any lattice `V` under every key and is itself a lattice,
//! which makes it the natural building block for replicated key-value stores on top of
//! the protocol (each key can hold a counter, a set, a register, or a nested map).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::crdt::Crdt;
use crate::lattice::{first_growth, join_from, Lattice};
use crate::replica::ReplicaId;

/// A map from keys to nested lattice values.
///
/// Keys are grow-only; a key's value evolves monotonically in the nested lattice.
///
/// # Snapshots
///
/// The protocol puts the whole map in every state-bearing message and keeps
/// snapshots of it per in-flight instance, so `clone` is a reference-count bump:
/// clones share one allocation, and a map copies its entries only when it is about
/// to **grow** while another clone still reads them (copy-on-write). An operation
/// that grows nothing — joining a state `⊑ self`, an empty delta — leaves the
/// allocation shared. A snapshot therefore never changes under its holder, and
/// holding one costs a deep copy only if the original grows in the meantime.
///
/// # Example
///
/// ```
/// use crdt::{GCounter, Lattice, LatticeMap, ReplicaId};
///
/// let mut m: LatticeMap<&str, GCounter> = LatticeMap::new();
/// m.update("clicks", |c| c.increment(ReplicaId::new(0), 1));
/// m.update("views", |c| c.increment(ReplicaId::new(0), 5));
/// assert_eq!(m.get(&"views").unwrap().value(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatticeMap<K: Ord, V> {
    /// Shared with every clone; written only through `Arc::make_mut`, and only by
    /// an operation that may grow the map.
    pub(crate) entries: Arc<BTreeMap<K, V>>,
}

impl<K: Ord, V> Default for LatticeMap<K, V> {
    fn default() -> Self {
        LatticeMap { entries: Arc::new(BTreeMap::new()) }
    }
}

impl<K, V> LatticeMap<K, V>
where
    K: Ord + Clone + fmt::Debug,
    V: Lattice + Default,
{
    /// Creates an empty map.
    pub fn new() -> Self {
        LatticeMap::default()
    }

    /// Returns the value stored under `key`, if present.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.entries.get(key)
    }

    /// Applies a monotone mutation to the value under `key`, inserting the bottom
    /// value first if the key is new.
    pub fn update<F: FnOnce(&mut V)>(&mut self, key: K, mutate: F) {
        mutate(Arc::make_mut(&mut self.entries).entry(key).or_default());
    }

    /// Joins `value` into the entry under `key`.
    pub fn merge_entry(&mut self, key: K, value: &V) {
        if self.entries.get(&key).is_some_and(|held| value.leq(held)) {
            return;
        }
        Arc::make_mut(&mut self.entries).entry(key).or_default().join(value);
    }

    /// Number of keys present.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the map has no keys.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter()
    }

    /// Returns all keys in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.keys()
    }
}

impl<K, V> Lattice for LatticeMap<K, V>
where
    K: Ord + Clone + fmt::Debug,
    V: Lattice,
{
    fn join(&mut self, other: &Self) {
        if Arc::ptr_eq(&self.entries, &other.entries) {
            return;
        }
        // One walk: read-only up to the first entry that grows `self` (none: the
        // allocation stays shared), un-share, then join the rest in place.
        if let Some(from) = first_growth(&self.entries, &other.entries) {
            join_from(Arc::make_mut(&mut self.entries), &other.entries, from);
        }
    }

    fn leq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.entries, &other.entries) || self.entries.leq(&other.entries)
    }
}

impl<K, V> FromIterator<(K, V)> for LatticeMap<K, V>
where
    K: Ord + Clone + fmt::Debug,
    V: Lattice,
{
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut entries: BTreeMap<K, V> = BTreeMap::new();
        for (key, value) in iter {
            match entries.get_mut(&key) {
                Some(existing) => existing.join(&value),
                None => {
                    entries.insert(key, value);
                }
            }
        }
        LatticeMap { entries: Arc::new(entries) }
    }
}

/// Update commands for a [`LatticeMap`] whose values are themselves CRDTs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MapUpdate<K, U> {
    /// Apply a nested update to the value stored under `key`.
    Apply {
        /// The key to update (inserted with a bottom value if missing).
        key: K,
        /// The nested CRDT update.
        update: U,
    },
}

/// Query commands for a [`LatticeMap`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MapQuery<K, Q> {
    /// Run a nested query against the value under `key`.
    Get {
        /// The key to query.
        key: K,
        /// The nested CRDT query.
        query: Q,
    },
    /// Return the number of keys.
    Len,
    /// Return all keys.
    Keys,
}

/// Query results for a [`LatticeMap`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MapOutput<K, O> {
    /// Nested query result; `None` if the key is absent.
    Value(Option<O>),
    /// Number of keys.
    Len(u64),
    /// All keys in sorted order.
    Keys(Vec<K>),
}

impl<K, V> Crdt for LatticeMap<K, V>
where
    K: Ord + Clone + fmt::Debug + Send + 'static,
    V: Crdt,
{
    type Update = MapUpdate<K, V::Update>;
    type Query = MapQuery<K, V::Query>;
    type Output = MapOutput<K, V::Output>;

    fn apply(&mut self, replica: ReplicaId, update: &Self::Update) {
        match update {
            MapUpdate::Apply { key, update } => {
                Arc::make_mut(&mut self.entries)
                    .entry(key.clone())
                    .or_default()
                    .apply(replica, update);
            }
        }
    }

    fn query(&self, query: &Self::Query) -> Self::Output {
        match query {
            MapQuery::Get { key, query } => {
                MapOutput::Value(self.entries.get(key).map(|value| value.query(query)))
            }
            MapQuery::Len => MapOutput::Len(self.entries.len() as u64),
            MapQuery::Keys => MapOutput::Keys(self.entries.keys().cloned().collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::{CounterQuery, CounterUpdate, GCounter};
    use crate::gset::GSet;

    fn r(id: u64) -> ReplicaId {
        ReplicaId::new(id)
    }

    #[test]
    fn update_and_get() {
        let mut map: LatticeMap<&str, GCounter> = LatticeMap::new();
        assert!(map.is_empty());
        map.update("a", |c| c.increment(r(0), 2));
        map.update("a", |c| c.increment(r(1), 1));
        map.update("b", |c| c.increment(r(0), 7));
        assert_eq!(map.get(&"a").unwrap().value(), 3);
        assert_eq!(map.get(&"b").unwrap().value(), 7);
        assert_eq!(map.get(&"missing"), None);
        assert_eq!(map.len(), 2);
        assert_eq!(map.keys().count(), 2);
    }

    #[test]
    fn join_is_pointwise_on_nested_lattices() {
        let mut a: LatticeMap<&str, GCounter> = LatticeMap::new();
        a.update("x", |c| c.increment(r(0), 1));
        let mut b: LatticeMap<&str, GCounter> = LatticeMap::new();
        b.update("x", |c| c.increment(r(1), 2));
        b.update("y", |c| c.increment(r(1), 4));

        let joined = a.clone().joined(&b);
        assert_eq!(joined.get(&"x").unwrap().value(), 3);
        assert_eq!(joined.get(&"y").unwrap().value(), 4);
        assert!(a.leq(&joined));
        assert!(b.leq(&joined));
        assert!(!joined.leq(&a));
    }

    #[test]
    fn nested_sets_compose() {
        let mut carts: LatticeMap<String, GSet<String>> = LatticeMap::new();
        carts.update("alice".to_string(), |cart| cart.insert("milk".to_string()));
        carts.update("alice".to_string(), |cart| cart.insert("eggs".to_string()));
        carts.update("bob".to_string(), |cart| cart.insert("beer".to_string()));
        assert_eq!(carts.get(&"alice".to_string()).unwrap().len(), 2);
        assert_eq!(carts.get(&"bob".to_string()).unwrap().len(), 1);
    }

    #[test]
    fn crdt_interface_routes_nested_commands() {
        let mut map: LatticeMap<String, GCounter> = LatticeMap::default();
        map.apply(
            r(0),
            &MapUpdate::Apply { key: "hits".to_string(), update: CounterUpdate::Increment(2) },
        );
        map.apply(
            r(1),
            &MapUpdate::Apply { key: "hits".to_string(), update: CounterUpdate::Increment(3) },
        );
        assert_eq!(
            map.query(&MapQuery::Get { key: "hits".to_string(), query: CounterQuery::Value }),
            MapOutput::Value(Some(5))
        );
        assert_eq!(
            map.query(&MapQuery::Get { key: "none".to_string(), query: CounterQuery::Value }),
            MapOutput::Value(None)
        );
        assert_eq!(map.query(&MapQuery::Len), MapOutput::Len(1));
        assert_eq!(map.query(&MapQuery::Keys), MapOutput::Keys(vec!["hits".to_string()]));
    }

    #[test]
    fn from_iterator_joins_duplicate_keys() {
        let mut c1 = GCounter::new();
        c1.increment(r(0), 1);
        let mut c2 = GCounter::new();
        c2.increment(r(1), 2);
        let map: LatticeMap<&str, GCounter> = vec![("k", c1), ("k", c2)].into_iter().collect();
        assert_eq!(map.get(&"k").unwrap().value(), 3);
    }

    #[test]
    fn merge_entry_joins_value() {
        let mut map: LatticeMap<&str, GCounter> = LatticeMap::new();
        let mut c = GCounter::new();
        c.increment(r(0), 5);
        map.merge_entry("k", &c);
        map.merge_entry("k", &c);
        assert_eq!(map.get(&"k").unwrap().value(), 5);
    }
}
