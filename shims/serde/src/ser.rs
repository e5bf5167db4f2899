//! Serialization half of the serde data model.

use std::fmt::Display;

/// Errors produced by a [`Serializer`].
pub trait Error: Sized + std::error::Error {
    /// Builds an error from an arbitrary message.
    fn custom<T: Display>(msg: T) -> Self;
}

/// A data structure that can be serialized into any serde data format.
pub trait Serialize {
    /// Serializes `self` with the given serializer.
    fn serialize<S>(&self, serializer: S) -> Result<S::Ok, S::Error>
    where
        S: Serializer;
}

/// A serde data format that can serialize any supported data structure.
pub trait Serializer: Sized {
    /// Output produced on success.
    type Ok;
    /// Error produced on failure.
    type Error: Error;

    /// Compound serializer for sequences.
    type SerializeSeq: SerializeSeq<Ok = Self::Ok, Error = Self::Error>;
    /// Compound serializer for tuples.
    type SerializeTuple: SerializeTuple<Ok = Self::Ok, Error = Self::Error>;
    /// Compound serializer for tuple structs.
    type SerializeTupleStruct: SerializeTupleStruct<Ok = Self::Ok, Error = Self::Error>;
    /// Compound serializer for tuple enum variants.
    type SerializeTupleVariant: SerializeTupleVariant<Ok = Self::Ok, Error = Self::Error>;
    /// Compound serializer for maps.
    type SerializeMap: SerializeMap<Ok = Self::Ok, Error = Self::Error>;
    /// Compound serializer for structs.
    type SerializeStruct: SerializeStruct<Ok = Self::Ok, Error = Self::Error>;
    /// Compound serializer for struct enum variants.
    type SerializeStructVariant: SerializeStructVariant<Ok = Self::Ok, Error = Self::Error>;

    /// Serializes a `bool`.
    fn serialize_bool(self, v: bool) -> Result<Self::Ok, Self::Error>;
    /// Serializes an `i8`.
    fn serialize_i8(self, v: i8) -> Result<Self::Ok, Self::Error>;
    /// Serializes an `i16`.
    fn serialize_i16(self, v: i16) -> Result<Self::Ok, Self::Error>;
    /// Serializes an `i32`.
    fn serialize_i32(self, v: i32) -> Result<Self::Ok, Self::Error>;
    /// Serializes an `i64`.
    fn serialize_i64(self, v: i64) -> Result<Self::Ok, Self::Error>;
    /// Serializes an `i128`.
    fn serialize_i128(self, v: i128) -> Result<Self::Ok, Self::Error> {
        let _ = v;
        Err(Error::custom("i128 is not supported by this serializer"))
    }
    /// Serializes a `u8`.
    fn serialize_u8(self, v: u8) -> Result<Self::Ok, Self::Error>;
    /// Serializes a `u16`.
    fn serialize_u16(self, v: u16) -> Result<Self::Ok, Self::Error>;
    /// Serializes a `u32`.
    fn serialize_u32(self, v: u32) -> Result<Self::Ok, Self::Error>;
    /// Serializes a `u64`.
    fn serialize_u64(self, v: u64) -> Result<Self::Ok, Self::Error>;
    /// Serializes a `u128`.
    fn serialize_u128(self, v: u128) -> Result<Self::Ok, Self::Error> {
        let _ = v;
        Err(Error::custom("u128 is not supported by this serializer"))
    }
    /// Serializes an `f32`.
    fn serialize_f32(self, v: f32) -> Result<Self::Ok, Self::Error>;
    /// Serializes an `f64`.
    fn serialize_f64(self, v: f64) -> Result<Self::Ok, Self::Error>;
    /// Serializes a `char`.
    fn serialize_char(self, v: char) -> Result<Self::Ok, Self::Error>;
    /// Serializes a string slice.
    fn serialize_str(self, v: &str) -> Result<Self::Ok, Self::Error>;
    /// Serializes raw bytes.
    fn serialize_bytes(self, v: &[u8]) -> Result<Self::Ok, Self::Error>;
    /// Serializes `None`.
    fn serialize_none(self) -> Result<Self::Ok, Self::Error>;
    /// Serializes `Some(value)`.
    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<Self::Ok, Self::Error>;
    /// Serializes `()`.
    fn serialize_unit(self) -> Result<Self::Ok, Self::Error>;
    /// Serializes a unit struct.
    fn serialize_unit_struct(self, name: &'static str) -> Result<Self::Ok, Self::Error>;
    /// Serializes a unit enum variant.
    fn serialize_unit_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
    ) -> Result<Self::Ok, Self::Error>;
    /// Serializes a newtype struct.
    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        name: &'static str,
        value: &T,
    ) -> Result<Self::Ok, Self::Error>;
    /// Serializes a newtype enum variant.
    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
        value: &T,
    ) -> Result<Self::Ok, Self::Error>;
    /// Begins serializing a sequence.
    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq, Self::Error>;
    /// Begins serializing a tuple.
    fn serialize_tuple(self, len: usize) -> Result<Self::SerializeTuple, Self::Error>;
    /// Begins serializing a tuple struct.
    fn serialize_tuple_struct(
        self,
        name: &'static str,
        len: usize,
    ) -> Result<Self::SerializeTupleStruct, Self::Error>;
    /// Begins serializing a tuple enum variant.
    fn serialize_tuple_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<Self::SerializeTupleVariant, Self::Error>;
    /// Begins serializing a map.
    fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap, Self::Error>;
    /// Begins serializing a struct.
    fn serialize_struct(
        self,
        name: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStruct, Self::Error>;
    /// Begins serializing a struct enum variant.
    fn serialize_struct_variant(
        self,
        name: &'static str,
        variant_index: u32,
        variant: &'static str,
        len: usize,
    ) -> Result<Self::SerializeStructVariant, Self::Error>;

    /// Whether the format is human readable.
    fn is_human_readable(&self) -> bool {
        true
    }
}

/// Incremental serialization of a sequence.
pub trait SerializeSeq {
    /// Output produced on success.
    type Ok;
    /// Error produced on failure.
    type Error: Error;

    /// Serializes one element.
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
    /// Finishes the sequence.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Incremental serialization of a tuple.
pub trait SerializeTuple {
    /// Output produced on success.
    type Ok;
    /// Error produced on failure.
    type Error: Error;

    /// Serializes one element.
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
    /// Finishes the tuple.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Incremental serialization of a tuple struct.
pub trait SerializeTupleStruct {
    /// Output produced on success.
    type Ok;
    /// Error produced on failure.
    type Error: Error;

    /// Serializes one field.
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
    /// Finishes the tuple struct.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Incremental serialization of a tuple enum variant.
pub trait SerializeTupleVariant {
    /// Output produced on success.
    type Ok;
    /// Error produced on failure.
    type Error: Error;

    /// Serializes one field.
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
    /// Finishes the variant.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Incremental serialization of a map.
pub trait SerializeMap {
    /// Output produced on success.
    type Ok;
    /// Error produced on failure.
    type Error: Error;

    /// Serializes one key.
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<(), Self::Error>;
    /// Serializes one value.
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<(), Self::Error>;
    /// Serializes one key-value entry.
    #[inline]
    fn serialize_entry<K: Serialize + ?Sized, V: Serialize + ?Sized>(
        &mut self,
        key: &K,
        value: &V,
    ) -> Result<(), Self::Error> {
        self.serialize_key(key)?;
        self.serialize_value(value)
    }
    /// Finishes the map.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Incremental serialization of a struct.
pub trait SerializeStruct {
    /// Output produced on success.
    type Ok;
    /// Error produced on failure.
    type Error: Error;

    /// Serializes one named field.
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Self::Error>;
    /// Finishes the struct.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}

/// Incremental serialization of a struct enum variant.
pub trait SerializeStructVariant {
    /// Output produced on success.
    type Ok;
    /// Error produced on failure.
    type Error: Error;

    /// Serializes one named field.
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        key: &'static str,
        value: &T,
    ) -> Result<(), Self::Error>;
    /// Finishes the variant.
    fn end(self) -> Result<Self::Ok, Self::Error>;
}
