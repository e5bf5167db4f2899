//! `Serialize`/`Deserialize` impls for the std types used in this workspace.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hash};
use std::marker::PhantomData;
use std::sync::Arc;

use crate::de::{self, Deserialize, Deserializer, InPlaceSeed, MapAccess, SeqAccess, Visitor};
use crate::ser::{
    Serialize, SerializeMap as _, SerializeSeq as _, SerializeTuple as _, Serializer,
};

macro_rules! primitive_impl {
    ($ty:ty, $serialize:ident, $deserialize:ident, $visit:ident, $expect:literal) => {
        impl Serialize for $ty {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                serializer.$serialize(*self)
            }
        }

        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                struct PrimitiveVisitor;

                impl<'de> Visitor<'de> for PrimitiveVisitor {
                    type Value = $ty;

                    fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
                        formatter.write_str($expect)
                    }

                    fn $visit<E: de::Error>(self, v: $ty) -> Result<$ty, E> {
                        Ok(v)
                    }
                }

                deserializer.$deserialize(PrimitiveVisitor)
            }
        }
    };
}

primitive_impl!(bool, serialize_bool, deserialize_bool, visit_bool, "a boolean");
primitive_impl!(i8, serialize_i8, deserialize_i8, visit_i8, "an i8");
primitive_impl!(i16, serialize_i16, deserialize_i16, visit_i16, "an i16");
primitive_impl!(i32, serialize_i32, deserialize_i32, visit_i32, "an i32");
primitive_impl!(i64, serialize_i64, deserialize_i64, visit_i64, "an i64");
primitive_impl!(i128, serialize_i128, deserialize_i128, visit_i128, "an i128");
primitive_impl!(u8, serialize_u8, deserialize_u8, visit_u8, "a u8");
primitive_impl!(u16, serialize_u16, deserialize_u16, visit_u16, "a u16");
primitive_impl!(u32, serialize_u32, deserialize_u32, visit_u32, "a u32");
primitive_impl!(u64, serialize_u64, deserialize_u64, visit_u64, "a u64");
primitive_impl!(u128, serialize_u128, deserialize_u128, visit_u128, "a u128");
primitive_impl!(f32, serialize_f32, deserialize_f32, visit_f32, "an f32");
primitive_impl!(f64, serialize_f64, deserialize_f64, visit_f64, "an f64");
primitive_impl!(char, serialize_char, deserialize_char, visit_char, "a char");

impl Serialize for usize {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_u64(*self as u64)
    }
}

impl<'de> Deserialize<'de> for usize {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let value = u64::deserialize(deserializer)?;
        usize::try_from(value).map_err(|_| de::Error::custom("u64 out of range for usize"))
    }
}

impl Serialize for str {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl Serialize for String {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self)
    }
}

impl<'de> Deserialize<'de> for String {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct StringVisitor;

        impl<'de> Visitor<'de> for StringVisitor {
            type Value = String;

            fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
                formatter.write_str("a string")
            }

            fn visit_str<E: de::Error>(self, v: &str) -> Result<String, E> {
                Ok(v.to_owned())
            }

            fn visit_string<E: de::Error>(self, v: String) -> Result<String, E> {
                Ok(v)
            }
        }

        deserializer.deserialize_string(StringVisitor)
    }

    fn deserialize_in_place<D: Deserializer<'de>>(
        deserializer: D,
        place: &mut Self,
    ) -> Result<(), D::Error> {
        struct StringInPlaceVisitor<'a>(&'a mut String);

        impl<'a, 'de> Visitor<'de> for StringInPlaceVisitor<'a> {
            type Value = ();

            fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
                formatter.write_str("a string")
            }

            fn visit_str<E: de::Error>(self, v: &str) -> Result<(), E> {
                self.0.clear();
                self.0.push_str(v);
                Ok(())
            }

            fn visit_string<E: de::Error>(self, v: String) -> Result<(), E> {
                *self.0 = v;
                Ok(())
            }
        }

        deserializer.deserialize_string(StringInPlaceVisitor(place))
    }
}

impl<'de: 'a, 'a> Deserialize<'de> for &'a str {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct StrVisitor;

        impl<'de> Visitor<'de> for StrVisitor {
            type Value = &'de str;

            fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
                formatter.write_str("a borrowed string")
            }

            fn visit_borrowed_str<E: de::Error>(self, v: &'de str) -> Result<&'de str, E> {
                Ok(v)
            }
        }

        deserializer.deserialize_str(StrVisitor)
    }
}

impl<'de: 'a, 'a> Deserialize<'de> for &'a [u8] {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct BytesVisitor;

        impl<'de> Visitor<'de> for BytesVisitor {
            type Value = &'de [u8];

            fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
                formatter.write_str("borrowed bytes")
            }

            fn visit_borrowed_bytes<E: de::Error>(self, v: &'de [u8]) -> Result<&'de [u8], E> {
                Ok(v)
            }
        }

        deserializer.deserialize_bytes(BytesVisitor)
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Box<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        T::deserialize(deserializer).map(Box::new)
    }

    fn deserialize_in_place<D: Deserializer<'de>>(
        deserializer: D,
        place: &mut Self,
    ) -> Result<(), D::Error> {
        T::deserialize_in_place(deserializer, &mut **place)
    }
}

/// `Arc<T>` is transparent on the wire: it encodes exactly as `T` does.
impl<T: Serialize + ?Sized> Serialize for Arc<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        (**self).serialize(serializer)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Arc<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        T::deserialize(deserializer).map(Arc::new)
    }

    /// Rewrites the pointee in place while `place` is its only handle; a
    /// pointee other handles still read is left to them and `place` gets a
    /// freshly decoded one.
    fn deserialize_in_place<D: Deserializer<'de>>(
        deserializer: D,
        place: &mut Self,
    ) -> Result<(), D::Error> {
        match Arc::get_mut(place) {
            Some(inner) => T::deserialize_in_place(deserializer, inner),
            None => {
                *place = Arc::new(T::deserialize(deserializer)?);
                Ok(())
            }
        }
    }
}

impl Serialize for () {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_unit()
    }
}

impl<'de> Deserialize<'de> for () {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct UnitVisitor;

        impl<'de> Visitor<'de> for UnitVisitor {
            type Value = ();

            fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
                formatter.write_str("a unit")
            }

            fn visit_unit<E: de::Error>(self) -> Result<(), E> {
                Ok(())
            }
        }

        deserializer.deserialize_unit(UnitVisitor)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            Some(value) => serializer.serialize_some(value),
            None => serializer.serialize_none(),
        }
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Option<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct OptionVisitor<T>(PhantomData<T>);

        impl<'de, T: Deserialize<'de>> Visitor<'de> for OptionVisitor<T> {
            type Value = Option<T>;

            fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
                formatter.write_str("an option")
            }

            fn visit_none<E: de::Error>(self) -> Result<Self::Value, E> {
                Ok(None)
            }

            fn visit_unit<E: de::Error>(self) -> Result<Self::Value, E> {
                Ok(None)
            }

            fn visit_some<D: Deserializer<'de>>(
                self,
                deserializer: D,
            ) -> Result<Self::Value, D::Error> {
                T::deserialize(deserializer).map(Some)
            }
        }

        deserializer.deserialize_option(OptionVisitor(PhantomData))
    }

    fn deserialize_in_place<D: Deserializer<'de>>(
        deserializer: D,
        place: &mut Self,
    ) -> Result<(), D::Error> {
        struct OptionInPlaceVisitor<'a, T>(&'a mut Option<T>);

        impl<'a, 'de, T: Deserialize<'de>> Visitor<'de> for OptionInPlaceVisitor<'a, T> {
            type Value = ();

            fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
                formatter.write_str("an option")
            }

            fn visit_none<E: de::Error>(self) -> Result<(), E> {
                *self.0 = None;
                Ok(())
            }

            fn visit_unit<E: de::Error>(self) -> Result<(), E> {
                *self.0 = None;
                Ok(())
            }

            fn visit_some<D: Deserializer<'de>>(self, deserializer: D) -> Result<(), D::Error> {
                match self.0 {
                    Some(inner) => T::deserialize_in_place(deserializer, inner),
                    None => {
                        *self.0 = Some(T::deserialize(deserializer)?);
                        Ok(())
                    }
                }
            }
        }

        deserializer.deserialize_option(OptionInPlaceVisitor(place))
    }
}

impl<T: Serialize> Serialize for [T] {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(self.len()))?;
        for element in self {
            seq.serialize_element(element)?;
        }
        seq.end()
    }
}

struct SeqVisitor<C>(PhantomData<C>);

macro_rules! seq_impl {
    ($ty:ident <T $(: $bound:ident $(+ $bound2:ident)*)?>, $insert:ident) => {
        impl<T: Serialize> Serialize for $ty<T> {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                let mut seq = serializer.serialize_seq(Some(self.len()))?;
                for element in self {
                    seq.serialize_element(element)?;
                }
                seq.end()
            }
        }

        impl<'de, T> Visitor<'de> for SeqVisitor<$ty<T>>
        where
            T: Deserialize<'de> $(+ $bound $(+ $bound2)*)?,
        {
            type Value = $ty<T>;

            fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
                formatter.write_str("a sequence")
            }

            fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Self::Value, A::Error> {
                let mut out = $ty::new();
                while let Some(element) = seq.next_element()? {
                    out.$insert(element);
                }
                Ok(out)
            }
        }

        impl<'de, T> Deserialize<'de> for $ty<T>
        where
            T: Deserialize<'de> $(+ $bound $(+ $bound2)*)?,
        {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                deserializer.deserialize_seq(SeqVisitor::<$ty<T>>(PhantomData))
            }
        }
    };
}

seq_impl!(BTreeSet<T: Ord>, insert);

impl<T: Serialize> Serialize for Vec<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        self.as_slice().serialize(serializer)
    }
}

impl<'de, T: Deserialize<'de>> Visitor<'de> for SeqVisitor<Vec<T>> {
    type Value = Vec<T>;

    fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        formatter.write_str("a sequence")
    }

    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<Self::Value, A::Error> {
        let mut out = Vec::with_capacity(seq.size_hint().unwrap_or(0).min(4096));
        while let Some(element) = seq.next_element()? {
            out.push(element);
        }
        Ok(out)
    }
}

impl<'de, T: Deserialize<'de>> Deserialize<'de> for Vec<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.deserialize_seq(SeqVisitor::<Vec<T>>(PhantomData))
    }

    fn deserialize_in_place<D: Deserializer<'de>>(
        deserializer: D,
        place: &mut Self,
    ) -> Result<(), D::Error> {
        deserializer.deserialize_seq(VecInPlaceVisitor(place))
    }
}

/// In-place decode for `Vec`: reuse existing slots (recursing into
/// `deserialize_in_place` on each), then push extras or truncate stale tails.
pub struct VecInPlaceVisitor<'a, T>(pub &'a mut Vec<T>);

impl<'a, 'de, T: Deserialize<'de>> Visitor<'de> for VecInPlaceVisitor<'a, T> {
    type Value = ();

    fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        formatter.write_str("a sequence")
    }

    fn visit_seq<A: SeqAccess<'de>>(self, mut seq: A) -> Result<(), A::Error> {
        let mut filled = 0;
        while filled < self.0.len() {
            if seq.next_element_seed(InPlaceSeed(&mut self.0[filled]))?.is_none() {
                self.0.truncate(filled);
                return Ok(());
            }
            filled += 1;
        }
        while let Some(element) = seq.next_element()? {
            self.0.push(element);
        }
        Ok(())
    }
}

impl<T: Serialize> Serialize for HashSet<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut seq = serializer.serialize_seq(Some(self.len()))?;
        for element in self {
            seq.serialize_element(element)?;
        }
        seq.end()
    }
}

impl<'de, T: Deserialize<'de> + Eq + Hash> Deserialize<'de> for HashSet<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        Vec::<T>::deserialize(deserializer).map(|elements| elements.into_iter().collect())
    }
}

impl<K: Serialize, V: Serialize> Serialize for BTreeMap<K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(self.len()))?;
        for (key, value) in self {
            map.serialize_entry(key, value)?;
        }
        map.end()
    }
}

impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Deserialize<'de> for BTreeMap<K, V> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct MapVisitor<K, V>(PhantomData<(K, V)>);

        impl<'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Visitor<'de> for MapVisitor<K, V> {
            type Value = BTreeMap<K, V>;

            fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
                formatter.write_str("a map")
            }

            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Self::Value, A::Error> {
                let mut out = BTreeMap::new();
                while let Some((key, value)) = map.next_entry()? {
                    out.insert(key, value);
                }
                Ok(out)
            }
        }

        deserializer.deserialize_map(MapVisitor(PhantomData))
    }

    fn deserialize_in_place<D: Deserializer<'de>>(
        deserializer: D,
        place: &mut Self,
    ) -> Result<(), D::Error> {
        struct MapInPlaceVisitor<'a, K, V>(&'a mut BTreeMap<K, V>);

        impl<'a, 'de, K: Deserialize<'de> + Ord, V: Deserialize<'de>> Visitor<'de>
            for MapInPlaceVisitor<'a, K, V>
        {
            type Value = ();

            fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
                formatter.write_str("a map")
            }

            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<(), A::Error> {
                // Fast path: the wire format emits entries in ascending key
                // order, so when the incoming keys track the resident ones we
                // can decode every value straight into its existing node.
                let mut matched = 0usize;
                let mut pending: Option<K> = None;
                {
                    let mut slots = self.0.iter_mut();
                    while let Some(key) = map.next_key::<K>()? {
                        match slots.next() {
                            Some((existing, slot)) if *existing == key => {
                                map.next_value_seed(InPlaceSeed(slot))?;
                                matched += 1;
                            }
                            _ => {
                                pending = Some(key);
                                break;
                            }
                        }
                    }
                }
                // The matched prefix holds the smallest resident keys, so any
                // stale residents are all larger and pop off the tail.
                while self.0.len() > matched {
                    self.0.pop_last();
                }
                if let Some(key) = pending {
                    self.0.insert(key, map.next_value()?);
                    while let Some((key, value)) = map.next_entry()? {
                        self.0.insert(key, value);
                    }
                }
                Ok(())
            }
        }

        deserializer.deserialize_map(MapInPlaceVisitor(place))
    }
}

impl<K: Serialize, V: Serialize, H: BuildHasher> Serialize for HashMap<K, V, H> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(self.len()))?;
        for (key, value) in self {
            map.serialize_entry(key, value)?;
        }
        map.end()
    }
}

impl<'de, K, V> Deserialize<'de> for HashMap<K, V>
where
    K: Deserialize<'de> + Eq + Hash,
    V: Deserialize<'de>,
{
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct MapVisitor<K, V>(PhantomData<(K, V)>);

        impl<'de, K, V> Visitor<'de> for MapVisitor<K, V>
        where
            K: Deserialize<'de> + Eq + Hash,
            V: Deserialize<'de>,
        {
            type Value = HashMap<K, V>;

            fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
                formatter.write_str("a map")
            }

            fn visit_map<A: MapAccess<'de>>(self, mut map: A) -> Result<Self::Value, A::Error> {
                let mut out = HashMap::new();
                while let Some((key, value)) = map.next_entry()? {
                    out.insert(key, value);
                }
                Ok(out)
            }
        }

        deserializer.deserialize_map(MapVisitor(PhantomData))
    }
}

macro_rules! tuple_impl {
    ($len:expr => $(($idx:tt $name:ident $field:ident))+) => {
        impl<$($name: Serialize),+> Serialize for ($($name,)+) {
            fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
                let mut tuple = serializer.serialize_tuple($len)?;
                $(tuple.serialize_element(&self.$idx)?;)+
                tuple.end()
            }
        }

        impl<'de, $($name: Deserialize<'de>),+> Deserialize<'de> for ($($name,)+) {
            fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
                struct TupleVisitor<$($name),+>(PhantomData<($($name,)+)>);

                impl<'de, $($name: Deserialize<'de>),+> Visitor<'de> for TupleVisitor<$($name),+> {
                    type Value = ($($name,)+);

                    fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
                        write!(formatter, "a tuple of length {}", $len)
                    }

                    fn visit_seq<A: SeqAccess<'de>>(
                        self,
                        mut seq: A,
                    ) -> Result<Self::Value, A::Error> {
                        $(
                            let $field = match seq.next_element()? {
                                Some(value) => value,
                                None => return Err(de::Error::invalid_length($idx, &self)),
                            };
                        )+
                        Ok(($($field,)+))
                    }
                }

                deserializer.deserialize_tuple($len, TupleVisitor(PhantomData))
            }
        }
    };
}

tuple_impl!(1 => (0 T0 t0));
tuple_impl!(2 => (0 T0 t0) (1 T1 t1));
tuple_impl!(3 => (0 T0 t0) (1 T1 t1) (2 T2 t2));
tuple_impl!(4 => (0 T0 t0) (1 T1 t1) (2 T2 t2) (3 T3 t3));
tuple_impl!(5 => (0 T0 t0) (1 T1 t1) (2 T2 t2) (3 T3 t3) (4 T4 t4));
tuple_impl!(6 => (0 T0 t0) (1 T1 t1) (2 T2 t2) (3 T3 t3) (4 T4 t4) (5 T5 t5));

impl<T> Serialize for PhantomData<T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_unit_struct("PhantomData")
    }
}

impl<'de, T> Deserialize<'de> for PhantomData<T> {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        struct PhantomVisitor<T>(PhantomData<T>);

        impl<'de, T> Visitor<'de> for PhantomVisitor<T> {
            type Value = PhantomData<T>;

            fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
                formatter.write_str("a unit struct")
            }

            fn visit_unit<E: de::Error>(self) -> Result<Self::Value, E> {
                Ok(PhantomData)
            }
        }

        deserializer.deserialize_unit_struct("PhantomData", PhantomVisitor(PhantomData))
    }
}
