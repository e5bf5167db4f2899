//! Property-based tests of the join-semilattice laws for every CRDT in the crate.
//!
//! Definition 2 of the paper requires the join to be idempotent, commutative, and
//! associative, and the update functions to be monotone (`s ⊑ u(s)`). These laws are
//! exactly what the safety proofs of the replication protocol rely on, so we check
//! them exhaustively with proptest-generated states.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crdt::{
    CounterUpdate, Crdt, DeltaCrdt, GCounter, GSet, GSetUpdate, Lattice, LatticeMap, LwwRegister,
    LwwStamp, MapUpdate, Max, ORSet, ORSetUpdate, PNCounter, PnUpdate, ReplicaId, TwoPhaseSet,
    TwoPhaseSetUpdate,
};
use proptest::prelude::*;

const REPLICAS: u64 = 4;

fn replica_strategy() -> impl Strategy<Value = ReplicaId> {
    (0..REPLICAS).prop_map(ReplicaId::new)
}

/// Builds a random G-Counter by replaying random increments.
fn gcounter_strategy() -> impl Strategy<Value = GCounter> {
    proptest::collection::vec((replica_strategy(), 0u64..20), 0..12).prop_map(|ops| {
        let mut counter = GCounter::new();
        for (replica, amount) in ops {
            counter.increment(replica, amount);
        }
        counter
    })
}

fn pncounter_strategy() -> impl Strategy<Value = PNCounter> {
    proptest::collection::vec((replica_strategy(), 0u64..20, proptest::bool::ANY), 0..12).prop_map(
        |ops| {
            let mut counter = PNCounter::new();
            for (replica, amount, is_increment) in ops {
                if is_increment {
                    counter.increment(replica, amount);
                } else {
                    counter.decrement(replica, amount);
                }
            }
            counter
        },
    )
}

fn gset_strategy() -> impl Strategy<Value = GSet<u8>> {
    proptest::collection::btree_set(any::<u8>(), 0..10).prop_map(|set| set.into_iter().collect())
}

fn twophase_strategy() -> impl Strategy<Value = TwoPhaseSet<u8>> {
    proptest::collection::vec((any::<u8>(), proptest::bool::ANY), 0..12).prop_map(|ops| {
        let mut set = TwoPhaseSet::new();
        for (value, add) in ops {
            if add {
                set.insert(value);
            } else {
                set.remove(value);
            }
        }
        set
    })
}

fn orset_strategy() -> impl Strategy<Value = ORSet<u8>> {
    proptest::collection::vec((replica_strategy(), any::<u8>(), proptest::bool::ANY), 0..12)
        .prop_map(|ops| {
            let mut set = ORSet::new();
            for (replica, value, add) in ops {
                if add {
                    set.insert(replica, value);
                } else {
                    set.remove(&value);
                }
            }
            set
        })
}

fn lww_strategy() -> impl Strategy<Value = LwwRegister<u8>> {
    proptest::collection::vec((0u64..50, replica_strategy(), any::<u8>()), 0..6).prop_map(|ops| {
        let mut register = LwwRegister::new();
        for (time, replica, value) in ops {
            register.set(LwwStamp::new(time, replica), value);
        }
        register
    })
}

fn map_strategy() -> impl Strategy<Value = LatticeMap<u8, Max<u16>>> {
    proptest::collection::vec((any::<u8>(), any::<u16>()), 0..10)
        .prop_map(|entries| entries.into_iter().map(|(k, v)| (k, Max::new(v))).collect())
}

/// The map the protocol replicates per shard: delta-capable values under small keys,
/// so that independently drawn maps overlap.
type Kv = LatticeMap<u8, GCounter>;

fn kv_strategy() -> impl Strategy<Value = Kv> {
    proptest::collection::vec((0u8..12, gcounter_strategy()), 0..10)
        .prop_map(|entries| entries.into_iter().collect())
}

/// Every way a [`Kv`] grows.
#[derive(Debug, Clone)]
enum KvOp {
    Apply(u8, ReplicaId, u64),
    Update(u8, ReplicaId, u64),
    MergeEntry(u8, GCounter),
    /// A delta is a `Kv` too, so this is also how one is applied.
    Join(Kv),
    JoinReport(Kv),
}

impl KvOp {
    fn run(&self, map: &mut Kv) {
        match self {
            KvOp::Apply(key, replica, amount) => map.apply(
                *replica,
                &MapUpdate::Apply { key: *key, update: CounterUpdate::Increment(*amount) },
            ),
            KvOp::Update(key, replica, amount) => {
                map.update(*key, |counter| counter.increment(*replica, *amount))
            }
            KvOp::MergeEntry(key, value) => map.merge_entry(*key, value),
            KvOp::Join(other) => map.join(other),
            KvOp::JoinReport(other) => {
                map.join_report(other);
            }
        }
    }
}

fn kv_op_strategy() -> impl Strategy<Value = KvOp> {
    let keyed = || (0u8..12, replica_strategy(), 0u64..20);
    prop_oneof![
        keyed().prop_map(|(key, replica, amount)| KvOp::Apply(key, replica, amount)),
        keyed().prop_map(|(key, replica, amount)| KvOp::Update(key, replica, amount)),
        (0u8..12, gcounter_strategy()).prop_map(|(key, value)| KvOp::MergeEntry(key, value)),
        kv_strategy().prop_map(KvOp::Join),
        kv_strategy().prop_map(KvOp::JoinReport),
    ]
}

/// A copy of `map` that shares nothing with it: what `clone` was before snapshots
/// shared their entries, and the model the shared ones are checked against.
fn deep_copy(map: &Kv) -> Kv {
    map.iter().map(|(key, value)| (*key, value.clone())).collect()
}

/// Whether two maps read their entries from one allocation: the values they hand
/// out live at the same addresses. (Vacuously false for empty maps.)
fn share_entries(a: &Kv, b: &Kv) -> bool {
    match (a.iter().next(), b.iter().next()) {
        (Some((_, x)), Some((_, y))) => std::ptr::eq(x, y),
        _ => false,
    }
}

/// What a G-Counter was before its slots went flat, and the reference the flat one
/// is held to: a map from replica to count.
type CounterModel = BTreeMap<ReplicaId, u64>;

/// A counter and its model, built by the same increments over `width` replicas.
/// Widths run from 1 to 12, so the counters sit on both sides of what one holds
/// inline (four slots); a zero increment to a replica without a slot leaves
/// none behind, in the counter or the model.
fn modelled_counter_strategy() -> impl Strategy<Value = (GCounter, CounterModel)> {
    (1u64..13, proptest::collection::vec((0u64..12, 0u64..20), 0..20)).prop_map(|(width, ops)| {
        let (mut counter, mut model) = (GCounter::new(), CounterModel::new());
        for (replica, amount) in ops {
            let replica = ReplicaId::new(replica % width);
            counter.increment(replica, amount);
            if amount > 0 || model.contains_key(&replica) {
                *model.entry(replica).or_insert(0) += amount;
            }
        }
        (counter, model)
    })
}

/// A counter built by increments of which a third add 0, and a map of such
/// counters under few keys.
fn zero_heavy_counter_strategy() -> impl Strategy<Value = GCounter> {
    proptest::collection::vec((replica_strategy(), 0u64..3), 0..6).prop_map(|ops| {
        let mut counter = GCounter::new();
        for (replica, amount) in ops {
            counter.increment(replica, amount);
        }
        counter
    })
}

fn zero_heavy_kv_strategy() -> impl Strategy<Value = Kv> {
    proptest::collection::vec((0u8..4, zero_heavy_counter_strategy()), 0..6)
        .prop_map(|entries| entries.into_iter().collect())
}

/// Joins `a` and `b` in both orders, through `join` and through `join_report`,
/// and asserts all four are `==` and encode to the same bytes.
fn assert_joined_alike<L: Lattice + PartialEq + serde::Serialize>(a: &L, b: &L) {
    let ab = a.clone().joined(b);
    let ba = b.clone().joined(a);
    let (mut ab_reported, mut ba_reported) = (a.clone(), b.clone());
    ab_reported.join_report(b);
    ba_reported.join_report(a);
    let bytes = wire::to_vec(&ab).unwrap();
    for (order, joined) in
        [("b ⊔ a", &ba), ("a ⊔ b reported", &ab_reported), ("b ⊔ a reported", &ba_reported)]
    {
        assert_eq!(joined, &ab, "{order} is held unlike a ⊔ b");
        assert_eq!(wire::to_vec(joined).unwrap(), bytes, "{order} encodes unlike a ⊔ b");
    }
}

/// The counter the model stands for, rebuilt from its bytes.
fn counter_of(model: &CounterModel) -> GCounter {
    wire::from_slice(&wire::to_vec(model).expect("encode model")).expect("decode counter")
}

fn model_leq(a: &CounterModel, b: &CounterModel) -> bool {
    a.iter().all(|(replica, &count)| count <= b.get(replica).copied().unwrap_or(0))
}

fn model_join(a: &CounterModel, b: &CounterModel) -> CounterModel {
    let mut joined = a.clone();
    for (&replica, &count) in b {
        let slot = joined.entry(replica).or_insert(0);
        *slot = (*slot).max(count);
    }
    joined
}

fn model_delta_since(state: &CounterModel, known: &CounterModel) -> CounterModel {
    state
        .iter()
        .filter(|(replica, &count)| count > known.get(replica).copied().unwrap_or(0))
        .map(|(&replica, &count)| (replica, count))
        .collect()
}

/// Asserts the semilattice laws for three arbitrary states of one lattice type.
fn assert_lattice_laws<L: Lattice + PartialEq>(a: &L, b: &L, c: &L) {
    // Idempotence: a ⊔ a ≡ a
    let aa = a.clone().joined(a);
    assert!(aa.equivalent(a), "join must be idempotent");

    // Commutativity: a ⊔ b ≡ b ⊔ a
    let ab = a.clone().joined(b);
    let ba = b.clone().joined(a);
    assert!(ab.equivalent(&ba), "join must be commutative");

    // Associativity: (a ⊔ b) ⊔ c ≡ a ⊔ (b ⊔ c)
    let ab_c = a.clone().joined(b).joined(c);
    let a_bc = a.clone().joined(&b.clone().joined(c));
    assert!(ab_c.equivalent(&a_bc), "join must be associative");

    // The join is an upper bound of both operands.
    assert!(a.leq(&ab), "a ⊑ a ⊔ b");
    assert!(b.leq(&ab), "b ⊑ a ⊔ b");

    // Consistency of the order with the join: a ⊑ b ⇒ a ⊔ b ≡ b.
    if a.leq(b) {
        assert!(a.clone().joined(b).equivalent(b));
    }

    // Reflexivity and antisymmetry-up-to-equivalence of ⊑.
    assert!(a.leq(a));
    if a.leq(b) && b.leq(a) {
        assert!(a.equivalent(b));
    }

    // join_report is the join, and reports the order it joined across:
    // (y ⋢ x, x ⊑ y) — also between states ordered by construction, which
    // independent draws rarely are.
    for (x, y) in [(a, b), (&ab, a), (a, &ab), (&ab, b)] {
        let mut reported = x.clone();
        assert_eq!(reported.join_report(y), (!y.leq(x), x.leq(y)), "join_report's flags");
        assert_eq!(reported, x.clone().joined(y), "join_report must join");
    }

    // partial_order agrees with leq.
    match a.partial_order(b) {
        Some(std::cmp::Ordering::Less) => assert!(a.leq(b) && !b.leq(a)),
        Some(std::cmp::Ordering::Greater) => assert!(b.leq(a) && !a.leq(b)),
        Some(std::cmp::Ordering::Equal) => assert!(a.equivalent(b)),
        None => assert!(!a.leq(b) && !b.leq(a)),
    }
}

macro_rules! lattice_law_tests {
    ($name:ident, $strategy:expr) => {
        proptest! {
            #[test]
            fn $name((a, b, c) in ($strategy, $strategy, $strategy)) {
                assert_lattice_laws(&a, &b, &c);
            }
        }
    };
}

lattice_law_tests!(gcounter_lattice_laws, gcounter_strategy());
lattice_law_tests!(pncounter_lattice_laws, pncounter_strategy());
lattice_law_tests!(gset_lattice_laws, gset_strategy());
lattice_law_tests!(twophase_lattice_laws, twophase_strategy());
lattice_law_tests!(orset_lattice_laws, orset_strategy());
lattice_law_tests!(lww_lattice_laws, lww_strategy());
lattice_law_tests!(map_lattice_laws, map_strategy());
lattice_law_tests!(kv_lattice_laws, kv_strategy());

proptest! {
    /// The flat counter is the map it replaced, observably: same reads, same
    /// order, same join and delta, same equality and the same bytes.
    #[test]
    fn gcounter_matches_its_map_model(
        (a, a_model) in modelled_counter_strategy(),
        (b, b_model) in modelled_counter_strategy(),
    ) {
        prop_assert_eq!(a.value(), a_model.values().sum::<u64>());
        prop_assert_eq!(a.contributors(), a_model.values().filter(|&&count| count > 0).count());
        for replica in (0..13).map(ReplicaId::new) {
            prop_assert_eq!(a.slot(replica), a_model.get(&replica).copied().unwrap_or(0));
        }
        prop_assert_eq!(a.leq(&b), model_leq(&a_model, &b_model));
        prop_assert_eq!(a == b, a_model == b_model);
        prop_assert_eq!(&a, &counter_of(&a_model));
        prop_assert_eq!(&a.clone().joined(&b), &counter_of(&model_join(&a_model, &b_model)));
        prop_assert_eq!(&a.delta_since(&b), &counter_of(&model_delta_since(&a_model, &b_model)));
        prop_assert_eq!(wire::to_vec(&a).unwrap(), wire::to_vec(&a_model).unwrap());
        prop_assert_eq!(format!("{a:?}"), format!("GCounter {{ slots: {a_model:?} }}"));
    }

    /// Zero increments make no slot and a join takes no zero slot, so equal
    /// states are held alike whatever order they were joined in: counters, and
    /// maps of counters (whose joins skip a value `⊑` the held one, so a zero
    /// slot would stay or not by the order of the joins).
    #[test]
    fn joins_in_either_order_are_held_and_encoded_alike(
        a in zero_heavy_counter_strategy(),
        b in zero_heavy_counter_strategy(),
        x in zero_heavy_kv_strategy(),
        y in zero_heavy_kv_strategy(),
    ) {
        let absent = ReplicaId::new(REPLICAS);
        let mut grown = a.clone();
        grown.increment(absent, 0);
        prop_assert_eq!(&grown, &a);
        // A zero slot a peer sent is not taken by a join, reported or not.
        let zero = counter_of(&CounterModel::from([(absent, 0)]));
        prop_assert_eq!(&a.clone().joined(&zero), &a);
        prop_assert_eq!(grown.join_report(&zero), (false, a.leq(&zero)));
        prop_assert_eq!(&grown, &a);
        assert_joined_alike(&a, &b);
        assert_joined_alike(&x, &y);
        // Either side's counter under one key, the other's absent or equal.
        let one = Kv::from_iter([(0, a.clone())]);
        assert_joined_alike(&one, &Kv::from_iter([(0, a.clone().joined(&b))]));
        assert_joined_alike(&one, &Kv::from_iter([(1, b)]));
    }

    /// An in-place decode leaves exactly what a fresh decode builds, whatever the
    /// resident held: fewer slots, more, a spilled buffer, or a counter that
    /// another handle still reads (which must not move).
    #[test]
    fn gcounter_in_place_decode_matches_a_fresh_one(
        (incoming, _) in modelled_counter_strategy(),
        (resident, _) in modelled_counter_strategy(),
    ) {
        let bytes = wire::to_vec(&incoming).unwrap();
        let fresh: GCounter = wire::from_slice(&bytes).unwrap();
        prop_assert_eq!(&fresh, &incoming);

        let mut place = resident.clone();
        wire::from_slice_in_place(&bytes, &mut place).unwrap();
        prop_assert_eq!(&place, &fresh);
        // And back: the resident that just took `incoming`'s shape takes its own
        // again, crossing the inline capacity the other way.
        wire::from_slice_in_place(&wire::to_vec(&resident).unwrap(), &mut place).unwrap();
        prop_assert_eq!(&place, &resident);

        let mut shared = Arc::new(resident.clone());
        let reader = Arc::clone(&shared);
        wire::from_slice_in_place(&bytes, &mut shared).unwrap();
        prop_assert_eq!(&*shared, &fresh);
        prop_assert_eq!(&*reader, &resident);

        // A frame cut short fails, and the resident it was aimed at still decodes.
        if bytes.len() > 1 {
            let mut place = resident;
            prop_assert!(wire::from_slice_in_place::<GCounter>(&bytes[..bytes.len() - 1], &mut place).is_err());
            wire::from_slice_in_place(&bytes, &mut place).unwrap();
            prop_assert_eq!(&place, &fresh);
        }
    }

    /// Snapshot isolation: clones share their entries, yet whatever grows one of them
    /// never shows in the other — both behave exactly like deep copies.
    #[test]
    fn kv_snapshots_are_isolated(
        start in kv_strategy(),
        ops in proptest::collection::vec((proptest::bool::ANY, kv_op_strategy()), 1..12),
    ) {
        let (mut left, mut left_model) = (start.clone(), deep_copy(&start));
        let (mut right, mut right_model) = (left.clone(), deep_copy(&start));
        for (on_left, op) in &ops {
            let (side, model) =
                if *on_left { (&mut left, &mut left_model) } else { (&mut right, &mut right_model) };
            // A snapshot taken mid-history shares with its side and must not move
            // when the side does.
            let snapshot = side.clone();
            let expected = deep_copy(&snapshot);
            op.run(side);
            op.run(model);
            prop_assert_eq!(&snapshot, &expected);
            prop_assert_eq!(&left, &left_model);
            prop_assert_eq!(&right, &right_model);
        }
    }

    /// The lattice and delta laws hold when operands alias one allocation.
    #[test]
    fn kv_laws_hold_across_aliased_operands(a in kv_strategy(), b in kv_strategy(), op in kv_op_strategy()) {
        assert_lattice_laws(&a, &a.clone(), &b);
        assert_lattice_laws(&a.clone(), &b, &a);
        let mut joined = a.clone();
        joined.join(&a.clone());
        prop_assert_eq!(&joined, &deep_copy(&a));
        prop_assert_eq!(joined.join_report(&a.clone()), (false, true));
        prop_assert_eq!(joined.join_report(&deep_copy(&a)), (false, true));
        prop_assert_eq!(&joined, &deep_copy(&a));

        // k ⊔ s.delta_since(k) = k ⊔ s, with s grown from a clone of k.
        let known = a.clone();
        let mut state = known.clone();
        op.run(&mut state);
        let delta = state.delta_since(&known);
        prop_assert!(known.clone().joined(&delta).equivalent(&known.clone().joined(&state)));
        prop_assert_eq!(&known, &deep_copy(&a));
        prop_assert!(a.delta_since(&a.clone()).is_empty());
    }

    /// No growth, no copy: joining anything `⊑ self`, an empty delta included,
    /// leaves the allocation shared with earlier snapshots; the first operation that
    /// does grow the map un-shares it and leaves the snapshot as it was.
    #[test]
    fn kv_shares_until_it_grows(a in kv_strategy(), b in kv_strategy(), key in 0u8..12) {
        let mut state = a.clone().joined(&b);
        state.update(key, |counter| counter.increment(ReplicaId::new(0), 1));
        let snapshot = state.clone();
        prop_assert!(share_entries(&state, &snapshot));

        state.join(&a);
        state.join(&b);
        state.join(&snapshot);
        state.join(&deep_copy(&snapshot));
        prop_assert!(!state.join_report(&a).0 && !state.join_report(&b).0);
        prop_assert_eq!(state.join_report(&snapshot), (false, true));
        prop_assert_eq!(state.join_report(&deep_copy(&snapshot)), (false, true));
        state.join(&Kv::default());
        state.join(&state.delta_since(&snapshot));
        let held = state.get(&key).expect("just updated").clone();
        state.merge_entry(key, &held);
        prop_assert!(share_entries(&state, &snapshot), "nothing grew, yet the entries were copied");

        let expected = deep_copy(&snapshot);
        state.update(key, |counter| counter.increment(ReplicaId::new(1), 1));
        prop_assert!(!share_entries(&state, &snapshot));
        prop_assert_eq!(&snapshot, &expected);
        prop_assert!(snapshot.leq(&state) && !state.leq(&snapshot));
    }

    /// Update functions must be monotone: s ⊑ u(s) (Definition 3).
    #[test]
    fn gcounter_updates_are_monotone(
        counter in gcounter_strategy(),
        replica in replica_strategy(),
        amount in 0u64..50,
    ) {
        let before = counter.clone();
        let mut after = counter;
        after.apply(replica, &CounterUpdate::Increment(amount));
        prop_assert!(before.leq(&after));
    }

    #[test]
    fn pncounter_updates_are_monotone(
        counter in pncounter_strategy(),
        replica in replica_strategy(),
        amount in 0u64..50,
        increment in proptest::bool::ANY,
    ) {
        let before = counter.clone();
        let mut after = counter;
        let update = if increment { PnUpdate::Increment(amount) } else { PnUpdate::Decrement(amount) };
        after.apply(replica, &update);
        prop_assert!(before.leq(&after));
    }

    #[test]
    fn gset_updates_are_monotone(set in gset_strategy(), replica in replica_strategy(), value in any::<u8>()) {
        let before = set.clone();
        let mut after = set;
        after.apply(replica, &GSetUpdate::Insert(value));
        prop_assert!(before.leq(&after));
    }

    #[test]
    fn twophase_updates_are_monotone(
        set in twophase_strategy(),
        replica in replica_strategy(),
        value in any::<u8>(),
        add in proptest::bool::ANY,
    ) {
        let before = set.clone();
        let mut after = set;
        let update = if add { TwoPhaseSetUpdate::Insert(value) } else { TwoPhaseSetUpdate::Remove(value) };
        after.apply(replica, &update);
        prop_assert!(before.leq(&after));
    }

    #[test]
    fn orset_updates_are_monotone(
        set in orset_strategy(),
        replica in replica_strategy(),
        value in any::<u8>(),
        add in proptest::bool::ANY,
    ) {
        let before = set.clone();
        let mut after = set;
        let update = if add { ORSetUpdate::Insert(value) } else { ORSetUpdate::Remove(value) };
        after.apply(replica, &update);
        prop_assert!(before.leq(&after));
    }

    /// Convergence: applying two sets of updates on separate replicas and joining in
    /// either order yields equivalent states (strong eventual consistency).
    #[test]
    fn gcounter_replicas_converge(
        ops_a in proptest::collection::vec((0u64..REPLICAS, 0u64..10), 0..10),
        ops_b in proptest::collection::vec((0u64..REPLICAS, 0u64..10), 0..10),
    ) {
        let mut a = GCounter::new();
        for (replica, amount) in &ops_a {
            a.increment(ReplicaId::new(*replica), *amount);
        }
        let mut b = GCounter::new();
        // Offset replica ids so the two replicas' slots overlap only partially.
        for (replica, amount) in &ops_b {
            b.increment(ReplicaId::new((*replica + 1) % REPLICAS), *amount);
        }
        let ab = a.clone().joined(&b);
        let ba = b.joined(&a);
        prop_assert!(ab.equivalent(&ba));
        prop_assert_eq!(ab.value(), ba.value());
    }

    /// Joining merges update sets: the merged counter value equals the sum of both
    /// replicas' contributions when their slots are disjoint.
    #[test]
    fn gcounter_disjoint_slots_sum(increments_a in 0u64..100, increments_b in 0u64..100) {
        let mut a = GCounter::new();
        a.increment(ReplicaId::new(0), increments_a);
        let mut b = GCounter::new();
        b.increment(ReplicaId::new(1), increments_b);
        prop_assert_eq!(a.joined(&b).value(), increments_a + increments_b);
    }

    /// OR-Set convergence under arbitrary interleavings of per-replica histories.
    #[test]
    fn orset_replicas_converge(
        ops in proptest::collection::vec((0u64..REPLICAS, any::<u8>(), proptest::bool::ANY), 0..24),
    ) {
        // Apply each op at its owning replica, then join everything pairwise in two
        // different orders; results must agree on membership.
        let mut replicas: Vec<ORSet<u8>> = (0..REPLICAS).map(|_| ORSet::new()).collect();
        for (replica, value, add) in &ops {
            let idx = *replica as usize;
            if *add {
                replicas[idx].insert(ReplicaId::new(*replica), *value);
            } else {
                replicas[idx].remove(value);
            }
        }
        let forward = replicas.iter().fold(ORSet::new(), |acc, r| acc.joined(r));
        let backward = replicas.iter().rev().fold(ORSet::new(), |acc, r| acc.joined(r));
        let forward_elems: BTreeSet<u8> = forward.elements();
        let backward_elems: BTreeSet<u8> = backward.elements();
        prop_assert_eq!(forward_elems, backward_elems);
    }
}
