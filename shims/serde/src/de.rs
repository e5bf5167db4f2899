//! Deserialization half of the serde data model.

use std::fmt::{self, Display};
use std::marker::PhantomData;

/// Errors produced by a [`Deserializer`].
pub trait Error: Sized + std::error::Error {
    /// Builds an error from an arbitrary message.
    fn custom<T: Display>(msg: T) -> Self;

    /// A sequence or map had too few elements.
    fn invalid_length(len: usize, expected: &dyn Expected) -> Self {
        Error::custom(format_args!("invalid length {len}, expected {expected}"))
    }

    /// An unknown enum variant index or name was encountered.
    fn unknown_variant(variant: &str, expected: &'static [&'static str]) -> Self {
        Error::custom(format_args!("unknown variant {variant}, expected one of {expected:?}"))
    }

    /// A struct field was missing.
    fn missing_field(field: &'static str) -> Self {
        Error::custom(format_args!("missing field {field}"))
    }
}

/// Something that can describe what a [`Visitor`] expected (used in errors).
pub trait Expected {
    /// Writes the expectation, e.g. "a sequence of integers".
    fn fmt(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result;
}

impl<'de, T: Visitor<'de>> Expected for T {
    fn fmt(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.expecting(formatter)
    }
}

impl Display for dyn Expected + '_ {
    fn fmt(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        Expected::fmt(self, formatter)
    }
}

/// A data structure that can be deserialized from any serde data format.
pub trait Deserialize<'de>: Sized {
    /// Deserializes `Self` with the given deserializer.
    fn deserialize<D>(deserializer: D) -> Result<Self, D::Error>
    where
        D: Deserializer<'de>;

    /// Deserializes into an existing `place`, reusing its allocations where
    /// the impl knows how (upstream serde's in-place API: the default builds a
    /// fresh value and overwrites; containers override to decode into their
    /// existing capacity, which is what makes the steady-state decode path
    /// allocation-free).
    fn deserialize_in_place<D>(deserializer: D, place: &mut Self) -> Result<(), D::Error>
    where
        D: Deserializer<'de>,
    {
        *place = Self::deserialize(deserializer)?;
        Ok(())
    }
}

/// A type deserializable without borrowing from the input.
pub trait DeserializeOwned: for<'de> Deserialize<'de> {}

impl<T> DeserializeOwned for T where T: for<'de> Deserialize<'de> {}

/// Stateful deserialization entry point (subset: the stateless blanket impl).
pub trait DeserializeSeed<'de>: Sized {
    /// The produced value.
    type Value;

    /// Deserializes the value with this seed.
    fn deserialize<D>(self, deserializer: D) -> Result<Self::Value, D::Error>
    where
        D: Deserializer<'de>;
}

impl<'de, T: Deserialize<'de>> DeserializeSeed<'de> for PhantomData<T> {
    type Value = T;

    #[inline]
    fn deserialize<D>(self, deserializer: D) -> Result<T, D::Error>
    where
        D: Deserializer<'de>,
    {
        T::deserialize(deserializer)
    }
}

/// A seed that decodes into an existing slot via
/// [`Deserialize::deserialize_in_place`] instead of producing a value. Lets
/// sequence/map/struct impls thread "reuse this allocation" through the
/// `next_element_seed`/`next_value_seed` plumbing.
pub struct InPlaceSeed<'a, T>(pub &'a mut T);

impl<'a, 'de, T: Deserialize<'de>> DeserializeSeed<'de> for InPlaceSeed<'a, T> {
    type Value = ();

    fn deserialize<D>(self, deserializer: D) -> Result<(), D::Error>
    where
        D: Deserializer<'de>,
    {
        T::deserialize_in_place(deserializer, self.0)
    }
}

macro_rules! unsupported {
    ($($method:ident)*) => {$(
        /// Hints the format to deserialize this shape (unsupported by default).
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, Self::Error> {
            let _ = visitor;
            Err(Error::custom(concat!(stringify!($method), " is not supported by this deserializer")))
        }
    )*};
}

/// A serde data format that can deserialize supported data structures.
///
/// Every method has an erroring default so partial value-deserializers (such as
/// the enum discriminant deserializer) stay small; real formats override all of
/// them.
pub trait Deserializer<'de>: Sized {
    /// Error produced on failure.
    type Error: Error;

    unsupported! {
        deserialize_any deserialize_bool
        deserialize_i8 deserialize_i16 deserialize_i32 deserialize_i64 deserialize_i128
        deserialize_u8 deserialize_u16 deserialize_u32 deserialize_u64 deserialize_u128
        deserialize_f32 deserialize_f64 deserialize_char
        deserialize_str deserialize_string deserialize_bytes deserialize_byte_buf
        deserialize_option deserialize_unit deserialize_seq deserialize_map
        deserialize_identifier deserialize_ignored_any
    }

    /// Deserializes a unit struct.
    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error> {
        let _ = name;
        self.deserialize_unit(visitor)
    }

    /// Deserializes a newtype struct.
    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        visitor: V,
    ) -> Result<V::Value, Self::Error> {
        let _ = name;
        visitor.visit_newtype_struct(self)
    }

    /// Deserializes a tuple of known length.
    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error> {
        let _ = (len, visitor);
        Err(Error::custom("deserialize_tuple is not supported by this deserializer"))
    }

    /// Deserializes a tuple struct.
    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error> {
        let _ = name;
        self.deserialize_tuple(len, visitor)
    }

    /// Deserializes a struct.
    fn deserialize_struct<V: Visitor<'de>>(
        self,
        name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error> {
        let _ = (name, fields, visitor);
        Err(Error::custom("deserialize_struct is not supported by this deserializer"))
    }

    /// Deserializes an enum.
    fn deserialize_enum<V: Visitor<'de>>(
        self,
        name: &'static str,
        variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error> {
        let _ = (name, variants, visitor);
        Err(Error::custom("deserialize_enum is not supported by this deserializer"))
    }

    /// Whether the format is human readable.
    fn is_human_readable(&self) -> bool {
        true
    }
}

macro_rules! visit_forward {
    ($($method:ident: $ty:ty => $target:ident,)*) => {$(
        /// Visits one value of the named primitive type.
        fn $method<E: Error>(self, v: $ty) -> Result<Self::Value, E> {
            self.$target(v as _)
        }
    )*};
}

macro_rules! visit_unsupported {
    ($($method:ident: $ty:ty,)*) => {$(
        /// Visits one value of the named primitive type.
        fn $method<E: Error>(self, v: $ty) -> Result<Self::Value, E> {
            let _ = v;
            Err(Error::custom(format_args!(
                "unexpected {}, expected {}", stringify!($method), ExpectedDisplay(&self)
            )))
        }
    )*};
}

struct ExpectedDisplay<'a, T>(&'a T);

impl<T: Expected> Display for ExpectedDisplay<'_, T> {
    fn fmt(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        Expected::fmt(self.0, formatter)
    }
}

/// Walks the serde data model, producing a value.
pub trait Visitor<'de>: Sized {
    /// The produced value.
    type Value;

    /// Describes what this visitor expects (used in error messages).
    fn expecting(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result;

    visit_forward! {
        visit_i8: i8 => visit_i64,
        visit_i16: i16 => visit_i64,
        visit_i32: i32 => visit_i64,
        visit_u8: u8 => visit_u64,
        visit_u16: u16 => visit_u64,
        visit_u32: u32 => visit_u64,
        visit_f32: f32 => visit_f64,
    }

    visit_unsupported! {
        visit_bool: bool,
        visit_i64: i64,
        visit_i128: i128,
        visit_u64: u64,
        visit_u128: u128,
        visit_f64: f64,
        visit_char: char,
    }

    /// Visits a string slice.
    fn visit_str<E: Error>(self, v: &str) -> Result<Self::Value, E> {
        let _ = v;
        Err(Error::custom(format_args!("unexpected string, expected {}", ExpectedDisplay(&self))))
    }

    /// Visits a string borrowed from the input.
    fn visit_borrowed_str<E: Error>(self, v: &'de str) -> Result<Self::Value, E> {
        self.visit_str(v)
    }

    /// Visits an owned string.
    fn visit_string<E: Error>(self, v: String) -> Result<Self::Value, E> {
        self.visit_str(&v)
    }

    /// Visits a byte slice.
    fn visit_bytes<E: Error>(self, v: &[u8]) -> Result<Self::Value, E> {
        let _ = v;
        Err(Error::custom(format_args!("unexpected bytes, expected {}", ExpectedDisplay(&self))))
    }

    /// Visits a byte slice borrowed from the input.
    fn visit_borrowed_bytes<E: Error>(self, v: &'de [u8]) -> Result<Self::Value, E> {
        self.visit_bytes(v)
    }

    /// Visits an owned byte buffer.
    fn visit_byte_buf<E: Error>(self, v: Vec<u8>) -> Result<Self::Value, E> {
        self.visit_bytes(&v)
    }

    /// Visits an absent optional.
    fn visit_none<E: Error>(self) -> Result<Self::Value, E> {
        Err(Error::custom(format_args!("unexpected None, expected {}", ExpectedDisplay(&self))))
    }

    /// Visits a present optional.
    fn visit_some<D: Deserializer<'de>>(self, deserializer: D) -> Result<Self::Value, D::Error> {
        let _ = deserializer;
        Err(Error::custom(format_args!("unexpected Some, expected {}", ExpectedDisplay(&self))))
    }

    /// Visits a unit value.
    fn visit_unit<E: Error>(self) -> Result<Self::Value, E> {
        Err(Error::custom(format_args!("unexpected unit, expected {}", ExpectedDisplay(&self))))
    }

    /// Visits a newtype struct.
    fn visit_newtype_struct<D: Deserializer<'de>>(
        self,
        deserializer: D,
    ) -> Result<Self::Value, D::Error> {
        let _ = deserializer;
        Err(Error::custom(format_args!("unexpected newtype, expected {}", ExpectedDisplay(&self))))
    }

    /// Visits a sequence.
    fn visit_seq<A: SeqAccess<'de>>(self, seq: A) -> Result<Self::Value, A::Error> {
        let _ = seq;
        Err(Error::custom(format_args!("unexpected sequence, expected {}", ExpectedDisplay(&self))))
    }

    /// Visits a map.
    fn visit_map<A: MapAccess<'de>>(self, map: A) -> Result<Self::Value, A::Error> {
        let _ = map;
        Err(Error::custom(format_args!("unexpected map, expected {}", ExpectedDisplay(&self))))
    }

    /// Visits an enum.
    fn visit_enum<A: EnumAccess<'de>>(self, data: A) -> Result<Self::Value, A::Error> {
        let _ = data;
        Err(Error::custom(format_args!("unexpected enum, expected {}", ExpectedDisplay(&self))))
    }
}

/// Access to the elements of a sequence.
pub trait SeqAccess<'de> {
    /// Error produced on failure.
    type Error: Error;

    /// Deserializes the next element with a seed.
    fn next_element_seed<T: DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, Self::Error>;

    /// Deserializes the next element.
    #[inline]
    fn next_element<T: Deserialize<'de>>(&mut self) -> Result<Option<T>, Self::Error> {
        self.next_element_seed(PhantomData)
    }

    /// Number of remaining elements, if known.
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// Access to the entries of a map.
pub trait MapAccess<'de> {
    /// Error produced on failure.
    type Error: Error;

    /// Deserializes the next key with a seed.
    fn next_key_seed<K: DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, Self::Error>;

    /// Deserializes the next value with a seed.
    fn next_value_seed<V: DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, Self::Error>;

    /// Deserializes the next key.
    #[inline]
    fn next_key<K: Deserialize<'de>>(&mut self) -> Result<Option<K>, Self::Error> {
        self.next_key_seed(PhantomData)
    }

    /// Deserializes the next value.
    #[inline]
    fn next_value<V: Deserialize<'de>>(&mut self) -> Result<V, Self::Error> {
        self.next_value_seed(PhantomData)
    }

    /// Deserializes the next entry.
    #[inline]
    fn next_entry<K: Deserialize<'de>, V: Deserialize<'de>>(
        &mut self,
    ) -> Result<Option<(K, V)>, Self::Error> {
        match self.next_key()? {
            Some(key) => Ok(Some((key, self.next_value()?))),
            None => Ok(None),
        }
    }

    /// Number of remaining entries, if known.
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// Access to the variant of an enum.
pub trait EnumAccess<'de>: Sized {
    /// Error produced on failure.
    type Error: Error;
    /// Accessor for the variant's contents.
    type Variant: VariantAccess<'de, Error = Self::Error>;

    /// Deserializes the variant discriminant with a seed.
    fn variant_seed<V: DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self::Variant), Self::Error>;

    /// Deserializes the variant discriminant.
    #[inline]
    fn variant<V: Deserialize<'de>>(self) -> Result<(V, Self::Variant), Self::Error> {
        self.variant_seed(PhantomData)
    }
}

/// Access to the contents of one enum variant.
pub trait VariantAccess<'de>: Sized {
    /// Error produced on failure.
    type Error: Error;

    /// Consumes a unit variant.
    fn unit_variant(self) -> Result<(), Self::Error>;

    /// Deserializes a newtype variant with a seed.
    fn newtype_variant_seed<T: DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, Self::Error>;

    /// Deserializes a newtype variant.
    #[inline]
    fn newtype_variant<T: Deserialize<'de>>(self) -> Result<T, Self::Error> {
        self.newtype_variant_seed(PhantomData)
    }

    /// Deserializes a tuple variant.
    fn tuple_variant<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, Self::Error>;

    /// Deserializes a struct variant.
    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, Self::Error>;
}

/// Conversion of a plain value into a deserializer yielding it.
pub trait IntoDeserializer<'de, E: Error> {
    /// The resulting deserializer.
    type Deserializer: Deserializer<'de, Error = E>;

    /// Wraps the value.
    fn into_deserializer(self) -> Self::Deserializer;
}

/// Deserializer yielding one `u32` (used for enum discriminants).
pub struct U32Deserializer<E> {
    value: u32,
    marker: PhantomData<E>,
}

impl<'de, E: Error> IntoDeserializer<'de, E> for u32 {
    type Deserializer = U32Deserializer<E>;

    fn into_deserializer(self) -> U32Deserializer<E> {
        U32Deserializer { value: self, marker: PhantomData }
    }
}

impl<'de, E: Error> Deserializer<'de> for U32Deserializer<E> {
    type Error = E;

    fn deserialize_any<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
        visitor.visit_u32(self.value)
    }

    fn deserialize_u8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
        match u8::try_from(self.value) {
            Ok(v) => visitor.visit_u8(v),
            Err(_) => Err(Error::custom("u32 out of range for u8")),
        }
    }

    fn deserialize_u16<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
        match u16::try_from(self.value) {
            Ok(v) => visitor.visit_u16(v),
            Err(_) => Err(Error::custom("u32 out of range for u16")),
        }
    }

    fn deserialize_u32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
        visitor.visit_u32(self.value)
    }

    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
        visitor.visit_u64(u64::from(self.value))
    }

    fn deserialize_identifier<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, E> {
        visitor.visit_u32(self.value)
    }
}
