//! Composable map of lattices (grow-only key set, pointwise-joined values).
//!
//! `LatticeMap<K, V>` embeds any lattice `V` under every key and is itself a lattice,
//! which makes it the natural building block for replicated key-value stores on top of
//! the protocol (each key can hold a counter, a set, a register, or a nested map).
//!
//! The entries are one sorted run of `(key, value)` pairs behind a shared `Arc`, so
//! every operation that looks at the whole map — join, order check, delta, encode,
//! decode — is one pass over contiguous memory, and a snapshot is a reference count.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use serde::de::{self, DeserializeSeed, Deserializer, InPlaceSeed, MapAccess, SeqAccess, Visitor};
use serde::ser::{SerializeMap, SerializeStruct, Serializer};
use serde::{Deserialize, Serialize};

use crate::crdt::Crdt;
use crate::lattice::Lattice;
use crate::replica::ReplicaId;

/// A map from keys to nested lattice values.
///
/// Keys are grow-only; a key's value evolves monotonically in the nested lattice.
///
/// # Layout
///
/// The entries are one vector of `(key, value)` pairs, ascending by key and unique,
/// so `join`, `join_report`, `leq`, `equivalent` and `delta_since` are each one merge
/// walk over two sorted runs and a lookup is a binary search. On the wire the
/// entries are a map in ascending key order; a decoded map is sorted and unique
/// whatever a peer sent (out-of-order keys are sorted in, and of duplicate keys the
/// last one wins, as a map decode would), and an in-place decode overwrites the
/// resident entries one after the other.
///
/// # Snapshots
///
/// The protocol puts the whole map in every state-bearing message and keeps
/// snapshots of it per in-flight instance, so `clone` is a reference-count bump:
/// clones share one allocation, and a map copies its entries only when it is about
/// to **grow** while another clone still reads them (copy-on-write, one contiguous
/// copy). An operation that grows nothing — joining a state `⊑ self`, an empty
/// delta — leaves the allocation shared. A snapshot therefore never changes under
/// its holder, and holding one costs a copy only if the original grows in the
/// meantime.
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
#[derive(Clone, PartialEq, Eq)]
pub struct LatticeMap<K: Ord, V> {
    /// Ascending by key, one entry per key. Shared with every clone; written only
    /// through `Arc::make_mut`, and only by an operation that may grow the map.
    pub(crate) entries: Arc<Vec<(K, V)>>,
}

impl<K: Ord, V> Default for LatticeMap<K, V> {
    fn default() -> Self {
        LatticeMap { entries: Arc::new(Vec::new()) }
    }
}

impl<K: Ord, V> LatticeMap<K, V> {
    /// Where `key`'s entry is (`Ok`) or would be inserted (`Err`).
    fn position(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(held, _)| held.cmp(key))
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
        self.position(key).ok().map(|index| &self.entries[index].1)
    }

    /// Applies a monotone mutation to the value under `key`, inserting the bottom
    /// value first if the key is new.
    pub fn update<F: FnOnce(&mut V)>(&mut self, key: K, mutate: F) {
        mutate(self.value_mut(key));
    }

    /// Joins `value` into the entry under `key`.
    pub fn merge_entry(&mut self, key: K, value: &V) {
        if self.get(&key).is_some_and(|held| value.leq(held)) {
            return;
        }
        self.value_mut(key).join(value);
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
        self.entries.iter().map(|(key, value)| (key, value))
    }

    /// Returns all keys in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(key, _)| key)
    }

    /// The value under `key`, inserted as bottom first if the key is new. Un-shares
    /// the entries.
    fn value_mut(&mut self, key: K) -> &mut V {
        let index = self.position(&key);
        let entries = Arc::make_mut(&mut self.entries);
        let index = index.unwrap_or_else(|index| {
            entries.insert(index, (key, V::default()));
            index
        });
        &mut entries[index].1
    }
}

/// Every entry of `mine` beside the value `theirs` holds under the same key, if it
/// holds one: one walk over both sorted runs, where a lookup per entry would be a
/// search per key.
pub(crate) fn paired<'a, K: Ord, V>(
    mine: &'a [(K, V)],
    theirs: &'a [(K, V)],
) -> impl Iterator<Item = (&'a K, &'a V, Option<&'a V>)> + 'a {
    let mut at = 0;
    mine.iter().map(move |(key, value)| {
        while theirs.get(at).is_some_and(|(held, _)| held < key) {
            at += 1;
        }
        let held = theirs.get(at).filter(|(held, _)| held == key).map(|(_, held)| held);
        (key, value, held)
    })
}

/// Folds the sorted, unique run `incoming` into the sorted, unique `entries`: `fold`
/// for a key both hold, a clone for a key `entries` lacks. The key set is
/// grow-only, so missing keys are rare; they are merged in by one sorted pass after
/// the walk, not inserted one at a time.
fn merge_in<K: Ord + Clone, V: Clone>(
    entries: &mut Vec<(K, V)>,
    incoming: &[(K, V)],
    mut fold: impl FnMut(&mut V, &V),
) {
    let Some((first, _)) = incoming.first() else {
        return;
    };
    let mut at = entries.partition_point(|(held, _)| held < first);
    let mut absent = 0;
    for (key, value) in incoming {
        while entries.get(at).is_some_and(|(held, _)| held < key) {
            at += 1;
        }
        match entries.get_mut(at) {
            Some((held, slot)) if held == key => fold(slot, value),
            _ => absent += 1,
        }
    }
    if absent == 0 {
        return;
    }
    let len = entries.len();
    let held = std::mem::replace(entries, Vec::with_capacity(len + absent));
    let mut incoming = incoming.iter().peekable();
    for (key, value) in held {
        while let Some((new, value)) = incoming.next_if(|(new, _)| *new < key) {
            entries.push((new.clone(), value.clone()));
        }
        // Folded in by the walk above.
        incoming.next_if(|(new, _)| *new == key);
        entries.push((key, value));
    }
    entries.extend(incoming.map(|(new, value)| (new.clone(), value.clone())));
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
        // Read-only up to the first entry of `other` that grows `self` (none: the
        // allocation stays shared), then un-share and join the rest in place.
        let from = paired(&other.entries, &self.entries)
            .position(|(_, value, held)| !held.is_some_and(|held| value.leq(held)));
        if let Some(from) = from {
            let entries = Arc::make_mut(&mut self.entries);
            merge_in(entries, &other.entries[from..], V::join);
        }
    }

    fn leq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.entries, &other.entries)
            || (self.entries.len() <= other.entries.len()
                && paired(&self.entries, &other.entries)
                    .all(|(_, value, held)| held.is_some_and(|held| value.leq(held))))
    }

    /// One walk: read-only — one `partial_order` per value — up to the first
    /// entry of `other` that grows `self`, and from there the join's own
    /// un-share and merge, which reports through each value's `join_report`.
    fn join_report(&mut self, other: &Self) -> (bool, bool) {
        if Arc::ptr_eq(&self.entries, &other.entries) {
            return (false, true);
        }
        // `self ⊑ other` also needs every key of `self` in `other`: count those met.
        let (len, mut met) = (self.entries.len(), 0);
        let mut covered = len <= other.entries.len();
        let mut from = None;
        for (index, (_, value, held)) in paired(&other.entries, &self.entries).enumerate() {
            match held.map(|held| held.partial_order(value)) {
                Some(Some(Ordering::Equal)) => met += 1,
                Some(Some(Ordering::Greater)) => {
                    met += 1;
                    covered = false;
                }
                _ => {
                    from = Some(index);
                    break;
                }
            }
        }
        if let Some(from) = from {
            let entries = Arc::make_mut(&mut self.entries);
            let fold = |held: &mut V, value: &V| {
                met += 1;
                covered &= held.join_report(value).1;
            };
            merge_in(entries, &other.entries[from..], fold);
        }
        (from.is_some(), covered && met == len)
    }

    /// One walk: equivalent maps hold the same keys, so their entries pair up in
    /// place.
    fn equivalent(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.entries, &other.entries)
            || (self.entries.len() == other.entries.len()
                && self.entries.iter().zip(other.entries.iter()).all(
                    |((key, value), (other_key, other_value))| {
                        key == other_key && value.equivalent(other_value)
                    },
                ))
    }
}

impl<K, V> FromIterator<(K, V)> for LatticeMap<K, V>
where
    K: Ord + Clone + fmt::Debug,
    V: Lattice,
{
    /// Duplicate keys are joined.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        let mut entries: Vec<(K, V)> = iter.into_iter().collect();
        entries.sort_by(|(a, _), (b, _)| a.cmp(b));
        entries.dedup_by(|(key, value), (kept, held)| {
            let duplicate = key == kept;
            if duplicate {
                held.join(value);
            }
            duplicate
        });
        LatticeMap { entries: Arc::new(entries) }
    }
}

/// The entries as the map they stand for: how they print and how they are encoded.
struct AsMap<'a, K, V>(&'a [(K, V)]);

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for AsMap<'_, K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.0.iter().map(|(key, value)| (key, value))).finish()
    }
}

/// Out of line, so that the loop over the entries is one function whatever its
/// callers inline: folded into a message's encode, an unrelated change to this
/// crate once tipped the inliner into calling out per counter slot, and a 256-key
/// encode took twice as long.
impl<K: Serialize, V: Serialize> Serialize for AsMap<'_, K, V> {
    #[inline(never)]
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(self.0.len()))?;
        for (key, value) in self.0 {
            map.serialize_entry(key, value)?;
        }
        map.end()
    }
}

/// As a struct with one map-valued field, `entries`.
impl<K: Ord + fmt::Debug, V: fmt::Debug> fmt::Debug for LatticeMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LatticeMap").field("entries", &AsMap(&self.entries)).finish()
    }
}

/// As a struct with one map-valued field, `entries`, in ascending key order.
impl<K: Ord + Serialize, V: Serialize> Serialize for LatticeMap<K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut state = serializer.serialize_struct("LatticeMap", 1)?;
        state.serialize_field("entries", &AsMap(&self.entries))?;
        state.end()
    }
}

impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for LatticeMap<K, V> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let mut map = LatticeMap::default();
        Self::deserialize_in_place(deserializer, &mut map)?;
        Ok(map)
    }

    /// Overwrites the resident entries while `place` is their only holder; entries
    /// another clone still reads are left to it, and `place` gets freshly decoded
    /// ones. `place` holds sorted, unique entries when this returns, also with an
    /// error.
    fn deserialize_in_place<D: Deserializer<'de>>(
        deserializer: D,
        place: &mut Self,
    ) -> Result<(), D::Error> {
        deserializer.deserialize_struct(
            "LatticeMap",
            &["entries"],
            EntriesPlace(&mut place.entries),
        )
    }
}

/// Decodes into a map's entries: as the visitor of the struct around them (its one
/// field) and as the seed, and then the visitor, of that field.
struct EntriesPlace<'a, K, V>(&'a mut Arc<Vec<(K, V)>>);

impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Visitor<'de> for EntriesPlace<'_, K, V> {
    type Value = ();

    fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        formatter.write_str("LatticeMap")
    }

    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<(), A::Error> {
        match seq.next_element_seed(self)? {
            Some(()) => Ok(()),
            None => Err(de::Error::custom("invalid length 0, expected LatticeMap")),
        }
    }

    fn visit_map<A: MapAccess<'de>>(self, map: A) -> Result<(), A::Error> {
        match Arc::get_mut(self.0) {
            Some(entries) => decode_entries(entries, map),
            None => {
                let mut fresh = Vec::new();
                decode_entries(&mut fresh, map)?;
                *self.0 = Arc::new(fresh);
                Ok(())
            }
        }
    }
}

impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> DeserializeSeed<'de>
    for EntriesPlace<'_, K, V>
{
    type Value = ();

    fn deserialize<D: Deserializer<'de>>(self, deserializer: D) -> Result<(), D::Error> {
        deserializer.deserialize_map(self)
    }
}

/// At most this much is reserved on the word of a length prefix: a peer is free to
/// announce more entries than it sends.
const MAX_RESERVE_BYTES: usize = 1 << 20;

/// Overwrites `entries` with the decoded map. The encoder emits ascending keys, so
/// each decoded entry lands on the next resident one, its value decoded in place; an
/// encoding that is not ascending is sorted in as a map decode would (the last
/// duplicate wins) by one sort after the decode, never an insert per key. `entries`
/// is sorted and unique when this returns, also with an error.
fn decode_entries<'de, K, V, A>(entries: &mut Vec<(K, V)>, map: A) -> Result<(), A::Error>
where
    K: Deserialize<'de> + Ord,
    V: Deserialize<'de>,
    A: MapAccess<'de>,
{
    let announced = map.size_hint().unwrap_or(0);
    let cap = MAX_RESERVE_BYTES / std::mem::size_of::<(K, V)>().max(1);
    entries.reserve(announced.min(cap).saturating_sub(entries.len()));
    // The first `filled` entries are decoded ones, sorted and unique; whatever lies
    // behind them is what the resident held before, dropped however the decode ends.
    let mut filled = 0;
    let outcome = overwrite(entries, &mut filled, map);
    entries.truncate(filled);
    outcome
}

/// The body of [`decode_entries`], free to return early.
fn overwrite<'de, K, V, A>(
    entries: &mut Vec<(K, V)>,
    filled: &mut usize,
    mut map: A,
) -> Result<(), A::Error>
where
    K: Deserialize<'de> + Ord,
    V: Deserialize<'de>,
    A: MapAccess<'de>,
{
    while let Some(key) = map.next_key::<K>()? {
        if *filled > 0 && entries[*filled - 1].0 >= key {
            entries.truncate(*filled);
            let outcome = sort_in_rest(entries, key, &mut map);
            *filled = entries.len();
            return outcome;
        }
        match entries.get_mut(*filled) {
            Some((held, value)) => {
                *held = key;
                map.next_value_seed(InPlaceSeed(value))?;
            }
            None => {
                let value = map.next_value::<V>()?;
                entries.push((key, value));
            }
        }
        *filled += 1;
    }
    Ok(())
}

/// The rest of a decode whose keys stopped ascending at `key`: appends every entry
/// still to come behind the sorted ones, then sorts once. An insert per key would
/// shift the run each time, quadratic in what a peer sends. `entries` is sorted and
/// unique when this returns, also with an error. Kept out of line: the encoder
/// never takes this path.
#[cold]
#[inline(never)]
fn sort_in_rest<'de, K, V, A>(
    entries: &mut Vec<(K, V)>,
    key: K,
    map: &mut A,
) -> Result<(), A::Error>
where
    K: Deserialize<'de> + Ord,
    V: Deserialize<'de>,
    A: MapAccess<'de>,
{
    let append = || {
        entries.push((key, map.next_value::<V>()?));
        while let Some(entry) = map.next_entry::<K, V>()? {
            entries.push(entry);
        }
        Ok(())
    };
    let outcome = append();
    sort_keeping_last(entries);
    outcome
}

/// Sorts `entries` by key and keeps, of equal keys, the one that came last: the
/// sort is stable, so that one is last among its equals.
#[cold]
#[inline(never)]
fn sort_keeping_last<K: Ord, V>(entries: &mut Vec<(K, V)>) {
    entries.sort_by(|(a, _), (b, _)| a.cmp(b));
    entries.dedup_by(|(later, value), (kept, held)| {
        let duplicate = later == kept;
        if duplicate {
            std::mem::swap(value, held);
        }
        duplicate
    });
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
            MapUpdate::Apply { key, update } => self.value_mut(key.clone()).apply(replica, update),
        }
    }

    fn query(&self, query: &Self::Query) -> Self::Output {
        match query {
            MapQuery::Get { key, query } => {
                MapOutput::Value(self.get(key).map(|value| value.query(query)))
            }
            MapQuery::Len => MapOutput::Len(self.len() as u64),
            MapQuery::Keys => MapOutput::Keys(self.keys().cloned().collect()),
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

    #[test]
    fn debug_output_is_a_struct_around_a_map() {
        let mut map: LatticeMap<&str, GCounter> = LatticeMap::new();
        map.update("b", |c| c.increment(r(1), 2));
        map.update("a", |_| {});
        assert_eq!(
            format!("{map:?}"),
            "LatticeMap { entries: {\"a\": GCounter { slots: {} }, \
             \"b\": GCounter { slots: {ReplicaId(1): 2} }} }"
        );
    }
}
