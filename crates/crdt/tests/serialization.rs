//! Round-trip serialization tests: every CRDT payload must survive the wire codec,
//! because the networked deployment ships full payload states in protocol messages.

use std::collections::BTreeMap;

use crdt::{
    GCounter, GSet, Lattice, LatticeMap, LwwRegister, LwwStamp, Max, ORSet, PNCounter, ReplicaId,
    TwoPhaseSet,
};
use proptest::prelude::*;
use serde::{de::DeserializeOwned, Serialize};

fn wire_roundtrip<T: Serialize + DeserializeOwned + PartialEq + std::fmt::Debug>(value: &T) {
    let bytes = wire::to_vec(value).expect("serialize");
    let back: T = wire::from_slice(&bytes).expect("deserialize");
    assert_eq!(&back, value);
}

fn r(id: u64) -> ReplicaId {
    ReplicaId::new(id)
}

#[test]
fn gcounter_roundtrip() {
    let mut counter = GCounter::new();
    counter.increment(r(0), 10);
    counter.increment(r(2), 3);
    wire_roundtrip(&counter);
}

#[test]
fn pncounter_roundtrip() {
    let mut counter = PNCounter::new();
    counter.increment(r(0), 10);
    counter.decrement(r(1), 4);
    wire_roundtrip(&counter);
}

#[test]
fn sets_roundtrip() {
    let gset: GSet<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
    wire_roundtrip(&gset);

    let mut twop: TwoPhaseSet<u32> = TwoPhaseSet::new();
    twop.insert(1);
    twop.remove(1);
    twop.insert(2);
    wire_roundtrip(&twop);

    let mut orset: ORSet<String> = ORSet::new();
    orset.insert(r(0), "x".to_string());
    orset.insert(r(1), "y".to_string());
    orset.remove(&"x".to_string());
    wire_roundtrip(&orset);
}

#[test]
fn registers_roundtrip() {
    let mut lww: LwwRegister<String> = LwwRegister::new();
    lww.set(LwwStamp::new(5, r(1)), "value".to_string());
    wire_roundtrip(&lww);
}

#[test]
fn map_roundtrip() {
    let mut map: LatticeMap<String, Max<u64>> = LatticeMap::new();
    map.update("a".to_string(), |m| m.join(&Max::new(10)));
    map.update("b".to_string(), |m| m.join(&Max::new(2)));
    wire_roundtrip(&map);
}

#[test]
fn empty_payloads_roundtrip() {
    wire_roundtrip(&GCounter::new());
    wire_roundtrip(&PNCounter::new());
    wire_roundtrip(&GSet::<u8>::new());
    wire_roundtrip(&ORSet::<u8>::new());
    wire_roundtrip(&LwwRegister::<u8>::new());
}

/// The bytes of one three-slot counter and one three-key map of counters, pinned:
/// how a counter holds its slots is its own business, what it puts on the wire is
/// every peer's. (A map is its length, then key/value pairs ascending; integers are
/// LEB128 varints.)
#[test]
fn counter_wire_format_is_pinned() {
    let mut counter = GCounter::new();
    counter.increment(r(7), 1);
    counter.increment(r(0), 10);
    counter.increment(r(2), 300);
    let golden = [3, 0, 10, 2, 172, 2, 7, 1];
    assert_eq!(wire::to_vec(&counter).unwrap(), golden);
    assert_eq!(wire::from_slice::<GCounter>(&golden).unwrap(), counter);

    let mut map: LatticeMap<u64, GCounter> = LatticeMap::new();
    map.update(200, |value| {
        value.increment(r(2), 128);
        value.increment(r(1), 5);
    });
    map.update(70_000, |_| {});
    map.update(1, |value| value.increment(r(0), 10));
    let golden = [3, 1, 1, 0, 10, 200, 1, 2, 1, 5, 2, 128, 1, 240, 162, 4, 0];
    assert_eq!(wire::to_vec(&map).unwrap(), golden);
    assert_eq!(wire::from_slice::<LatticeMap<u64, GCounter>>(&golden).unwrap(), map);
}

/// Decodes `bytes` as a counter three ways — fresh, in place over an empty
/// resident, in place over a resident with slots of its own — and returns the one
/// value they must agree on.
fn decode_counter(bytes: &[u8]) -> GCounter {
    let fresh: GCounter = wire::from_slice(bytes).expect("decode");
    let mut empty = GCounter::new();
    wire::from_slice_in_place(bytes, &mut empty).expect("decode in place");
    assert_eq!(empty, fresh);
    let mut resident = GCounter::new();
    for replica in [1, 3, 5, 8, 13, 21] {
        resident.increment(r(replica), 99);
    }
    wire::from_slice_in_place(bytes, &mut resident).expect("decode over a resident");
    assert_eq!(resident, fresh);
    fresh
}

/// What the counter's decode must agree with on any input: a plain map decode.
fn decode_as_map(bytes: &[u8]) -> BTreeMap<ReplicaId, u64> {
    wire::from_slice(bytes).expect("decode as a map")
}

fn assert_same_slots(counter: &GCounter, map: &BTreeMap<ReplicaId, u64>) {
    assert_eq!(wire::to_vec(counter).unwrap(), wire::to_vec(map).unwrap());
    assert_eq!(counter.value(), map.values().sum::<u64>());
}

#[test]
fn descending_slots_decode_sorted() {
    let bytes = [3, 7, 1, 2, 44, 0, 10];
    let counter = decode_counter(&bytes);
    assert_same_slots(&counter, &decode_as_map(&bytes));
    assert_eq!((counter.slot(r(0)), counter.slot(r(2)), counter.slot(r(7))), (10, 44, 1));
    assert_eq!(wire::to_vec(&counter).unwrap(), [3, 0, 10, 2, 44, 7, 1]);
}

#[test]
fn duplicated_slots_keep_the_last_value() {
    // Replica 2 three times (once out of order), replica 5 twice in a row; a
    // zero-valued duplicate is a value like any other.
    let bytes = [6, 2, 9, 5, 1, 5, 0, 2, 4, 9, 3, 2, 7];
    let counter = decode_counter(&bytes);
    assert_same_slots(&counter, &decode_as_map(&bytes));
    assert_eq!((counter.slot(r(2)), counter.slot(r(5)), counter.slot(r(9))), (7, 0, 3));
    assert_eq!(counter.contributors(), 2);
    assert_eq!(wire::to_vec(&counter).unwrap(), [3, 2, 7, 5, 0, 9, 3]);
}

#[test]
fn more_slots_than_fit_inline_decode_in_any_order() {
    // Nine entries over seven replicas, neither sorted nor unique: more than a
    // counter holds inline.
    let bytes = [9, 6, 1, 5, 2, 4, 3, 3, 4, 2, 5, 1, 6, 0, 7, 4, 8, 6, 9];
    let counter = decode_counter(&bytes);
    assert_same_slots(&counter, &decode_as_map(&bytes));
    assert_eq!(wire::to_vec(&counter).unwrap(), [7, 0, 7, 1, 6, 2, 5, 3, 4, 4, 8, 5, 2, 6, 9]);
    // Equality is by content, wherever the slots are stored: the same counter
    // built slot by slot, and a spilled resident overwritten with two slots.
    let mut built = GCounter::new();
    for (replica, count) in [(6, 9), (0, 7), (3, 4), (1, 6), (5, 2), (2, 5), (4, 8)] {
        built.increment(r(replica), count);
    }
    assert_eq!(built, counter);
    let mut shrunk = counter;
    wire::from_slice_in_place(&[2, 1, 1, 3, 3], &mut shrunk).unwrap();
    let mut small = GCounter::new();
    small.increment(r(1), 1);
    small.increment(r(3), 3);
    assert_eq!(shrunk, small);
    assert_eq!(small, shrunk);
}

proptest! {
    #[test]
    fn gcounter_roundtrip_prop(ops in proptest::collection::vec((0u64..5, 0u64..50), 0..16)) {
        let mut counter = GCounter::new();
        for (replica, amount) in ops {
            counter.increment(ReplicaId::new(replica), amount);
        }
        let bytes = wire::to_vec(&counter).unwrap();
        let back: GCounter = wire::from_slice(&bytes).unwrap();
        prop_assert_eq!(back, counter);
    }

    #[test]
    fn orset_roundtrip_prop(ops in proptest::collection::vec((0u64..4, any::<u8>(), proptest::bool::ANY), 0..16)) {
        let mut set = ORSet::new();
        for (replica, value, add) in ops {
            if add {
                set.insert(ReplicaId::new(replica), value);
            } else {
                set.remove(&value);
            }
        }
        let bytes = wire::to_vec(&set).unwrap();
        let back: ORSet<u8> = wire::from_slice(&bytes).unwrap();
        prop_assert_eq!(back.elements(), set.elements());
        prop_assert!(back.equivalent(&set));
    }

    /// Serialization must not lose lattice information: joining a decoded copy back
    /// into the original must not change the original (the copy is ⊑ the original).
    #[test]
    fn decoding_preserves_lattice_order(ops in proptest::collection::vec((0u64..4, 0u64..20), 0..12)) {
        let mut counter = GCounter::new();
        for (replica, amount) in ops {
            counter.increment(ReplicaId::new(replica), amount);
        }
        let decoded: GCounter = wire::from_slice(&wire::to_vec(&counter).unwrap()).unwrap();
        prop_assert!(decoded.leq(&counter) && counter.leq(&decoded));
    }
}
