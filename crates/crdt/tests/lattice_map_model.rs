//! `LatticeMap` against the map it stands for.
//!
//! A `LatticeMap` keeps its entries in one sorted vector; what it means is a map
//! from key to value, and that map — a `BTreeMap`, kept here and nowhere else — is
//! the reference every operation is held to: reads, order, join, delta, growth,
//! construction, equality, bytes and `Debug`, over key sets that overlap,
//! interleave or are disjoint, with operands that share one allocation. Then the
//! inputs a peer is free to send: keys out of order, keys twice, an empty map, a
//! map cut off mid-entry or announcing more entries than it has, decoded fresh and
//! in place over residents that are longer, shorter or shared, against a plain map
//! decode of the same bytes.

use std::collections::BTreeMap;

use crdt::{CounterUpdate, Crdt, DeltaCrdt, GCounter, Lattice, LatticeMap, MapUpdate, ReplicaId};
use proptest::prelude::*;

type Kv = LatticeMap<u8, GCounter>;

/// The reference: a map from key to counter. As for `LatticeMap`, a key one map
/// lacks is not bottom to the order — `a ⊑ b` needs every key of `a` in `b`.
type Model = BTreeMap<u8, GCounter>;

type Entries = Vec<(u8, GCounter)>;

/// A counter with no zero-valued slot, over six replicas (more than a counter
/// holds inline). Without zero slots two counters are equivalent only if equal,
/// so a join that skips entries `⊑` the receiver's is the model's join exactly.
fn counter_strategy() -> impl Strategy<Value = GCounter> {
    proptest::collection::vec((0u64..6, 1u64..20), 0..6).prop_map(|increments| {
        let mut counter = GCounter::new();
        for (replica, amount) in increments {
            counter.increment(ReplicaId::new(replica), amount);
        }
        counter
    })
}

/// Entries in any order, keys possibly repeated: what `FromIterator` is handed.
fn entries_strategy(
    keys: std::ops::Range<u8>,
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Entries> {
    proptest::collection::vec((keys, counter_strategy()), len)
}

/// Two maps' entries. The first map's keys are even; the second's are even too
/// (overlapping), odd (interleaved) or above them all (disjoint).
fn pair_strategy() -> impl Strategy<Value = (Entries, Entries)> {
    (entries_strategy(0..12, 0..10), entries_strategy(0..12, 0..10), 0u8..3).prop_map(
        |(a, b, shape)| {
            let even = |entries: Entries| -> Entries {
                entries.into_iter().map(|(key, value)| (2 * key, value)).collect()
            };
            let shift = [0, 1, 100][usize::from(shape)];
            let b = even(b).into_iter().map(|(key, value)| (key + shift, value)).collect();
            (even(a), b)
        },
    )
}

fn map_of(entries: &Entries) -> Kv {
    entries.iter().cloned().collect()
}

/// Duplicate keys are joined, as `FromIterator` joins them.
fn model_of(entries: &Entries) -> Model {
    let mut model = Model::new();
    for (key, value) in entries {
        model.entry(*key).or_default().join(value);
    }
    model
}

fn model_leq(a: &Model, b: &Model) -> bool {
    a.iter().all(|(key, value)| b.get(key).is_some_and(|held| value.leq(held)))
}

fn model_join(a: &Model, b: &Model) -> Model {
    let mut joined = a.clone();
    for (key, value) in b {
        joined.entry(*key).or_default().join(value);
    }
    joined
}

fn model_delta_since(state: &Model, known: &Model) -> Model {
    state
        .iter()
        .filter_map(|(key, value)| match known.get(key) {
            Some(held) if value.leq(held) => None,
            Some(held) => Some((*key, value.delta_since(held))),
            None => Some((*key, value.delta_since(&GCounter::new()))),
        })
        .collect()
}

fn assert_sorted_unique(map: &Kv) {
    let keys: Vec<u8> = map.keys().copied().collect();
    assert!(keys.windows(2).all(|pair| pair[0] < pair[1]), "keys not sorted and unique: {keys:?}");
}

/// `map` is `model`: same entries, same lookups, same bytes, same `Debug`.
fn assert_models(map: &Kv, model: &Model) {
    assert_sorted_unique(map);
    let held: Model = map.iter().map(|(key, value)| (*key, value.clone())).collect();
    assert_eq!(&held, model);
    assert_eq!((map.len(), map.is_empty()), (model.len(), model.is_empty()));
    for key in 0..=u8::MAX {
        assert_eq!(map.get(&key), model.get(&key), "lookup of {key}");
    }
    assert_eq!(wire::to_vec(map).unwrap(), wire::to_vec(model).unwrap());
    assert_eq!(format!("{map:?}"), format!("LatticeMap {{ entries: {model:?} }}"));
}

/// Whether two maps read their entries from one allocation: the values they hand
/// out live at the same addresses. (Vacuously false for empty maps.)
fn share_entries(a: &Kv, b: &Kv) -> bool {
    match (a.iter().next(), b.iter().next()) {
        (Some((_, x)), Some((_, y))) => std::ptr::eq(x, y),
        _ => false,
    }
}

/// Every way a map grows, or is asked to and need not.
#[derive(Debug, Clone)]
enum Op {
    Update(u8, u64, u64),
    Apply(u8, u64, u64),
    MergeEntry(u8, GCounter),
    Join(Entries),
    /// Join a sparse map, the shape of a delta.
    JoinDelta(Entries),
    /// Join a clone of itself: the operands share their entries.
    JoinAlias,
}

impl Op {
    fn run(&self, map: &mut Kv) {
        match self {
            Op::Update(key, replica, amount) => {
                map.update(*key, |counter| counter.increment(ReplicaId::new(*replica), *amount))
            }
            Op::Apply(key, replica, amount) => map.apply(
                ReplicaId::new(*replica),
                &MapUpdate::Apply { key: *key, update: CounterUpdate::Increment(*amount) },
            ),
            Op::MergeEntry(key, value) => map.merge_entry(*key, value),
            Op::Join(entries) | Op::JoinDelta(entries) => map.join(&map_of(entries)),
            Op::JoinAlias => {
                let alias = map.clone();
                map.join(&alias);
            }
        }
    }

    fn run_model(&self, model: &mut Model) {
        match self {
            Op::Update(key, replica, amount) | Op::Apply(key, replica, amount) => {
                model.entry(*key).or_default().increment(ReplicaId::new(*replica), *amount)
            }
            Op::MergeEntry(key, value) => model.entry(*key).or_default().join(value),
            Op::Join(entries) | Op::JoinDelta(entries) => {
                *model = model_join(model, &model_of(entries))
            }
            Op::JoinAlias => {}
        }
    }

    /// Whether the op must leave the entries shared when it grows nothing.
    /// Updates un-share unconditionally.
    fn shares_unless_it_grows(&self) -> bool {
        !matches!(self, Op::Update(..) | Op::Apply(..))
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let keyed = || (0u8..24, 0u64..6, 1u64..20);
    prop_oneof![
        keyed().prop_map(|(key, replica, amount)| Op::Update(key, replica, amount)),
        keyed().prop_map(|(key, replica, amount)| Op::Apply(key, replica, amount)),
        (0u8..24, counter_strategy()).prop_map(|(key, value)| Op::MergeEntry(key, value)),
        entries_strategy(0..24, 0..6).prop_map(Op::Join),
        entries_strategy(0..24, 0..3).prop_map(Op::JoinDelta),
        Just(Op::JoinAlias),
    ]
}

/// The bytes of a map whose length prefix announces `entries.len() + extra`
/// entries and whose entries follow in the order given.
fn encode_entries(entries: &[(u8, GCounter)], extra: usize) -> Vec<u8> {
    let mut bytes = wire::to_vec(&((entries.len() + extra) as u64)).unwrap();
    for entry in entries {
        bytes.extend(wire::to_vec(entry).unwrap());
    }
    bytes
}

/// Decodes `bytes` fresh and in place over a unique and a shared copy of each
/// resident; every decode must succeed iff a plain map decode does, and then
/// agree with it. Whatever happens, a map is left sorted and unique, and a shared
/// resident's other holder is left alone.
fn assert_decodes_like_a_map(bytes: &[u8], residents: &[&Entries]) {
    let reference = wire::from_slice::<Model>(bytes);
    let check = |decoded: Result<(), wire::Error>, map: &Kv| {
        assert_sorted_unique(map);
        match (&reference, decoded) {
            (Ok(model), Ok(())) => assert_models(map, model),
            (Err(_), Err(_)) => {}
            (reference, decoded) => panic!("map decode {reference:?}, LatticeMap {decoded:?}"),
        }
    };
    match wire::from_slice::<Kv>(bytes) {
        Ok(map) => check(Ok(()), &map),
        Err(error) => check(Err(error), &Kv::default()),
    }
    for resident in residents {
        let mut unique = map_of(resident);
        check(wire::from_slice_in_place(bytes, &mut unique), &unique);

        let holder = map_of(resident);
        let mut shared = holder.clone();
        check(wire::from_slice_in_place(bytes, &mut shared), &shared);
        assert_models(&holder, &model_of(resident));
    }
}

proptest! {
    /// Reads, order, equivalence, equality, join, delta, a delta joined back and
    /// construction from unsorted, duplicated entries: all as the model has them.
    #[test]
    fn lattice_map_matches_its_model((a_entries, b_entries) in pair_strategy()) {
        let (a, b) = (map_of(&a_entries), map_of(&b_entries));
        let (a_model, b_model) = (model_of(&a_entries), model_of(&b_entries));
        assert_models(&a, &a_model);
        assert_models(&b, &b_model);

        let joined_model = model_join(&a_model, &b_model);
        let joined = a.clone().joined(&b);
        assert_models(&joined, &joined_model);
        assert_models(&b.clone().joined(&a), &joined_model);
        for (x, x_model) in [(&a, &a_model), (&b, &b_model), (&joined, &joined_model)] {
            for (y, y_model) in [(&a, &a_model), (&b, &b_model), (&joined, &joined_model)] {
                prop_assert_eq!(x.leq(y), model_leq(x_model, y_model));
                prop_assert_eq!(
                    x.equivalent(y),
                    model_leq(x_model, y_model) && model_leq(y_model, x_model)
                );
                prop_assert_eq!(x == y, x_model == y_model);
                assert_models(&x.delta_since(y), &model_delta_since(x_model, y_model));
                assert_models(&y.clone().joined(&x.delta_since(y)), &model_join(y_model, x_model));
            }
        }
    }

    /// A history of growth, one step at a time against the model. A snapshot
    /// taken before each step never moves, and a step that grows nothing —
    /// joining a state `⊑ self`, a clone of itself, an entry already covered, an
    /// empty delta — leaves the entries shared with it.
    #[test]
    fn lattice_map_grows_as_its_model(
        start in entries_strategy(0..24, 0..12),
        ops in proptest::collection::vec(op_strategy(), 1..16),
    ) {
        let (mut map, mut model) = (map_of(&start), model_of(&start));
        for op in &ops {
            let (snapshot, before) = (map.clone(), model.clone());
            op.run(&mut map);
            op.run_model(&mut model);
            assert_models(&map, &model);
            assert_models(&snapshot, &before);
            if model == before && op.shares_unless_it_grows() && !before.is_empty() {
                prop_assert!(share_entries(&map, &snapshot), "{op:?} grew nothing, yet copied");
            }
            if model != before {
                prop_assert!(!share_entries(&map, &snapshot));
            }
        }
        // A clone joined, compared and diffed against itself stays one allocation.
        let alias = map.clone();
        prop_assert!(map.leq(&alias) && map.equivalent(&alias));
        prop_assert!(map.delta_since(&alias).is_empty());
        map.join(&alias);
        prop_assert!(map.is_empty() || share_entries(&map, &alias));
    }

    /// Entries in any order, keys repeated, a length prefix that may overstate
    /// the entries, bytes that may stop anywhere — decoded fresh and in place
    /// over a longer resident, a shorter one and an empty one, unique and
    /// shared: always what a map decode makes of the same bytes.
    #[test]
    fn hostile_encodings_decode_as_a_map_would(
        entries in entries_strategy(0..16, 0..12),
        extra in 0usize..3,
        cut in proptest::option::of(any::<u16>()),
        longer in entries_strategy(0..40, 16..24),
        shorter in entries_strategy(0..40, 1..3),
    ) {
        let mut bytes = encode_entries(&entries, extra);
        if let Some(cut) = cut {
            bytes.truncate(usize::from(cut) % (bytes.len() + 1));
        }
        assert_decodes_like_a_map(&bytes, &[&longer, &shorter, &Vec::new()]);
    }
}

fn r(id: u64) -> ReplicaId {
    ReplicaId::new(id)
}

fn counter(slots: &[(u64, u64)]) -> GCounter {
    let mut counter = GCounter::new();
    for &(replica, count) in slots {
        counter.increment(r(replica), count);
    }
    counter
}

/// Residents for the hand-built cases: longer than any of them, and shorter.
fn residents() -> (Entries, Entries) {
    let longer =
        (0..20).map(|key| (key * 3, counter(&[(0, 1), (1, u64::from(key) + 1)]))).collect();
    (longer, vec![(50, counter(&[(2, 9)]))])
}

#[test]
fn descending_and_repeated_keys_decode_sorted_and_the_last_duplicate_wins() {
    let entries = vec![
        (9, counter(&[(0, 1)])),
        (3, counter(&[(1, 2)])),
        (9, counter(&[(2, 3)])),
        (1, counter(&[(0, 4)])),
        (3, counter(&[(0, 5)])),
    ];
    let bytes = encode_entries(&entries, 0);
    let (longer, shorter) = residents();
    assert_decodes_like_a_map(&bytes, &[&longer, &shorter, &Vec::new()]);

    let map: Kv = wire::from_slice(&bytes).unwrap();
    assert_eq!(map.keys().copied().collect::<Vec<_>>(), [1, 3, 9]);
    assert_eq!(map.get(&9), Some(&counter(&[(2, 3)])));
    assert_eq!(map.get(&3), Some(&counter(&[(0, 5)])));
    // Re-encoded: ascending, one entry per key.
    assert_eq!(wire::to_vec(&map).unwrap(), [3, 1, 1, 0, 4, 3, 1, 0, 5, 9, 1, 2, 3]);
}

/// A peer may send a few million keys in one frame, in any order. Sorting them in
/// one at a time would shift the run once per key — quadratic, minutes for this
/// map — where one sort after the decode takes milliseconds.
#[test]
fn a_large_descending_map_decodes_in_n_log_n() {
    const KEYS: u64 = 200_000;
    let mut entries: Vec<(u64, GCounter)> =
        (0..KEYS).rev().map(|key| (key, GCounter::new())).collect();
    // Every 1 000th key again, later and larger: the last duplicate wins.
    entries.extend((0..KEYS / 1_000).rev().map(|n| (n * 1_000, counter(&[(1, n + 1)]))));
    let mut bytes = wire::to_vec(&(entries.len() as u64)).unwrap();
    for entry in &entries {
        bytes.extend(wire::to_vec(entry).unwrap());
    }
    let reference: BTreeMap<u64, GCounter> = wire::from_slice(&bytes).unwrap();
    let expected: Vec<(u64, GCounter)> = reference.into_iter().collect();

    let started = std::time::Instant::now();
    let fresh: LatticeMap<u64, GCounter> = wire::from_slice(&bytes).unwrap();
    let mut place: LatticeMap<u64, GCounter> =
        (0..16).map(|key| (key, counter(&[(0, 1)]))).collect();
    wire::from_slice_in_place(&bytes, &mut place).unwrap();
    let elapsed = started.elapsed();

    for map in [&fresh, &place] {
        let held: Vec<(u64, GCounter)> = map.iter().map(|(k, v)| (*k, v.clone())).collect();
        assert!(held == expected, "decoded map differs from a map decode of the same bytes");
    }
    assert!(elapsed < std::time::Duration::from_secs(10), "two decodes took {elapsed:?}");
}

#[test]
fn an_empty_map_empties_any_resident() {
    let (longer, shorter) = residents();
    assert_decodes_like_a_map(&[0], &[&longer, &shorter, &Vec::new()]);
    let mut place = map_of(&longer);
    wire::from_slice_in_place(&[0], &mut place).unwrap();
    assert!(place.is_empty());
}

#[test]
fn a_map_cut_off_mid_entry_fails_and_leaves_a_sorted_map() {
    let entries: Entries = (0..6).map(|key| (key * 2, counter(&[(0, 7), (1, 8)]))).collect();
    let bytes = encode_entries(&entries, 0);
    let (longer, shorter) = residents();
    for cut in 1..bytes.len() {
        assert!(wire::from_slice::<Kv>(&bytes[..cut]).is_err(), "cut at {cut}");
        assert_decodes_like_a_map(&bytes[..cut], &[&longer, &shorter, &Vec::new()]);
    }
    // After a failed decode the resident still takes a whole map.
    let mut place = map_of(&longer);
    assert!(wire::from_slice_in_place::<Kv>(&bytes[..bytes.len() / 2], &mut place).is_err());
    wire::from_slice_in_place(&bytes, &mut place).unwrap();
    assert_models(&place, &model_of(&entries));
}
