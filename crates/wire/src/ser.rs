//! Serde serializer for the wire format.

use serde::ser::{self, Serialize};

use crate::error::{Error, Result};
use crate::varint;

/// Serializes `value` into a freshly allocated byte vector.
///
/// # Errors
///
/// Returns an error if the value cannot be represented in the wire format, for example
/// an iterator-backed sequence whose length is unknown up front.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), wire::Error> {
/// let bytes = wire::to_vec(&(1u8, "two".to_string()))?;
/// let back: (u8, String) = wire::from_slice(&bytes)?;
/// assert_eq!(back.0, 1);
/// # Ok(())
/// # }
/// ```
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(64);
    to_writer(value, &mut out)?;
    Ok(out)
}

/// Serializes `value`, appending the encoded bytes to `out`.
///
/// # Errors
///
/// Same error conditions as [`to_vec`].
pub fn to_writer<T: Serialize + ?Sized>(value: &T, out: &mut Vec<u8>) -> Result<()> {
    let mut serializer = Serializer { out };
    value.serialize(&mut serializer)
}

/// Streaming serializer writing into a borrowed byte vector.
///
/// The one output type is a plain `Vec<u8>`: the format is append-only, and a
/// vector's push is the cheapest append there is. The framing codec reaches its
/// batch buffer's vector through `bytes::BytesMut::append_with`, so frames are
/// still serialized straight into the recycled batch allocation.
///
/// Most callers should use [`to_vec`] or [`to_writer`]; the type is public so that
/// higher layers can reuse buffers.
#[derive(Debug)]
pub struct Serializer<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> Serializer<'a> {
    /// Creates a serializer that appends to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> Self {
        Serializer { out }
    }

    #[inline]
    fn write_len(&mut self, len: usize) {
        varint::encode_u64(len as u64, self.out);
    }
}

// Nothing below is generic over the output any more, so a method without a type
// parameter is compiled here, not in the crate that serializes: `#[inline]` on
// each of them keeps a whole message's encode one inlined function downstream
// (without it the encode of a 2.5 KB frame measured half again as slow).
impl<'a, 'b> ser::Serializer for &'a mut Serializer<'b> {
    type Ok = ();
    type Error = Error;

    type SerializeSeq = Compound<'a, 'b>;
    type SerializeTuple = Compound<'a, 'b>;
    type SerializeTupleStruct = Compound<'a, 'b>;
    type SerializeTupleVariant = Compound<'a, 'b>;
    type SerializeMap = Compound<'a, 'b>;
    type SerializeStruct = Compound<'a, 'b>;
    type SerializeStructVariant = Compound<'a, 'b>;

    #[inline]
    fn serialize_bool(self, v: bool) -> Result<()> {
        self.out.push(u8::from(v));
        Ok(())
    }

    #[inline]
    fn serialize_i8(self, v: i8) -> Result<()> {
        self.serialize_i64(i64::from(v))
    }

    #[inline]
    fn serialize_i16(self, v: i16) -> Result<()> {
        self.serialize_i64(i64::from(v))
    }

    #[inline]
    fn serialize_i32(self, v: i32) -> Result<()> {
        self.serialize_i64(i64::from(v))
    }

    #[inline]
    fn serialize_i64(self, v: i64) -> Result<()> {
        varint::encode_i64(v, self.out);
        Ok(())
    }

    #[inline]
    fn serialize_i128(self, v: i128) -> Result<()> {
        varint::encode_i128(v, self.out);
        Ok(())
    }

    #[inline]
    fn serialize_u8(self, v: u8) -> Result<()> {
        self.serialize_u64(u64::from(v))
    }

    #[inline]
    fn serialize_u16(self, v: u16) -> Result<()> {
        self.serialize_u64(u64::from(v))
    }

    #[inline]
    fn serialize_u32(self, v: u32) -> Result<()> {
        self.serialize_u64(u64::from(v))
    }

    #[inline]
    fn serialize_u64(self, v: u64) -> Result<()> {
        varint::encode_u64(v, self.out);
        Ok(())
    }

    #[inline]
    fn serialize_u128(self, v: u128) -> Result<()> {
        varint::encode_u128(v, self.out);
        Ok(())
    }

    #[inline]
    fn serialize_f32(self, v: f32) -> Result<()> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    #[inline]
    fn serialize_f64(self, v: f64) -> Result<()> {
        self.out.extend_from_slice(&v.to_le_bytes());
        Ok(())
    }

    #[inline]
    fn serialize_char(self, v: char) -> Result<()> {
        self.serialize_u32(v as u32)
    }

    #[inline]
    fn serialize_str(self, v: &str) -> Result<()> {
        self.write_len(v.len());
        self.out.extend_from_slice(v.as_bytes());
        Ok(())
    }

    #[inline]
    fn serialize_bytes(self, v: &[u8]) -> Result<()> {
        self.write_len(v.len());
        self.out.extend_from_slice(v);
        Ok(())
    }

    #[inline]
    fn serialize_none(self) -> Result<()> {
        self.out.push(0);
        Ok(())
    }

    fn serialize_some<T: Serialize + ?Sized>(self, value: &T) -> Result<()> {
        self.out.push(1);
        value.serialize(self)
    }

    #[inline]
    fn serialize_unit(self) -> Result<()> {
        Ok(())
    }

    #[inline]
    fn serialize_unit_struct(self, _name: &'static str) -> Result<()> {
        Ok(())
    }

    #[inline]
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<()> {
        self.serialize_u32(variant_index)
    }

    fn serialize_newtype_struct<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<()> {
        value.serialize(self)
    }

    fn serialize_newtype_variant<T: Serialize + ?Sized>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<()> {
        varint::encode_u64(u64::from(variant_index), self.out);
        value.serialize(self)
    }

    #[inline]
    fn serialize_seq(self, len: Option<usize>) -> Result<Self::SerializeSeq> {
        let len = len.ok_or(Error::UnknownLength)?;
        self.write_len(len);
        Ok(Compound { ser: self })
    }

    #[inline]
    fn serialize_tuple(self, _len: usize) -> Result<Self::SerializeTuple> {
        Ok(Compound { ser: self })
    }

    #[inline]
    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeTupleStruct> {
        Ok(Compound { ser: self })
    }

    #[inline]
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeTupleVariant> {
        varint::encode_u64(u64::from(variant_index), self.out);
        Ok(Compound { ser: self })
    }

    #[inline]
    fn serialize_map(self, len: Option<usize>) -> Result<Self::SerializeMap> {
        let len = len.ok_or(Error::UnknownLength)?;
        self.write_len(len);
        Ok(Compound { ser: self })
    }

    #[inline]
    fn serialize_struct(self, _name: &'static str, _len: usize) -> Result<Self::SerializeStruct> {
        Ok(Compound { ser: self })
    }

    #[inline]
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Self::SerializeStructVariant> {
        varint::encode_u64(u64::from(variant_index), self.out);
        Ok(Compound { ser: self })
    }

    #[inline]
    fn is_human_readable(&self) -> bool {
        false
    }
}

/// Helper used for all compound serialization flavours (sequences, maps, structs…).
///
/// Its methods only forward to the element's own `serialize`, and each is
/// `#[inline]`, so a message's encode stays one loop nest: the inliner left to
/// itself has called out once per map entry and once per counter slot.
#[derive(Debug)]
pub struct Compound<'a, 'b> {
    ser: &'a mut Serializer<'b>,
}

impl<'a, 'b> ser::SerializeSeq for Compound<'a, 'b> {
    type Ok = ();
    type Error = Error;

    #[inline]
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut *self.ser)
    }

    #[inline]
    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<'a, 'b> ser::SerializeTuple for Compound<'a, 'b> {
    type Ok = ();
    type Error = Error;

    #[inline]
    fn serialize_element<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut *self.ser)
    }

    #[inline]
    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<'a, 'b> ser::SerializeTupleStruct for Compound<'a, 'b> {
    type Ok = ();
    type Error = Error;

    #[inline]
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut *self.ser)
    }

    #[inline]
    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<'a, 'b> ser::SerializeTupleVariant for Compound<'a, 'b> {
    type Ok = ();
    type Error = Error;

    #[inline]
    fn serialize_field<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut *self.ser)
    }

    #[inline]
    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<'a, 'b> ser::SerializeMap for Compound<'a, 'b> {
    type Ok = ();
    type Error = Error;

    #[inline]
    fn serialize_key<T: Serialize + ?Sized>(&mut self, key: &T) -> Result<()> {
        key.serialize(&mut *self.ser)
    }

    #[inline]
    fn serialize_value<T: Serialize + ?Sized>(&mut self, value: &T) -> Result<()> {
        value.serialize(&mut *self.ser)
    }

    #[inline]
    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<'a, 'b> ser::SerializeStruct for Compound<'a, 'b> {
    type Ok = ();
    type Error = Error;

    #[inline]
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<()> {
        value.serialize(&mut *self.ser)
    }

    #[inline]
    fn end(self) -> Result<()> {
        Ok(())
    }
}

impl<'a, 'b> ser::SerializeStructVariant for Compound<'a, 'b> {
    type Ok = ();
    type Error = Error;

    #[inline]
    fn serialize_field<T: Serialize + ?Sized>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<()> {
        value.serialize(&mut *self.ser)
    }

    #[inline]
    fn end(self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_length_sequences_are_rejected() {
        struct Unsized;
        impl Serialize for Unsized {
            fn serialize<S: ser::Serializer>(
                &self,
                serializer: S,
            ) -> std::result::Result<S::Ok, S::Error> {
                use serde::ser::SerializeSeq;
                let mut seq = serializer.serialize_seq(None)?;
                seq.serialize_element(&1u8)?;
                seq.end()
            }
        }
        assert!(matches!(to_vec(&Unsized), Err(Error::UnknownLength)));
    }

    #[test]
    fn buffers_can_be_reused() {
        let mut buf = Vec::new();
        to_writer(&1u8, &mut buf).unwrap();
        to_writer(&2u8, &mut buf).unwrap();
        assert_eq!(buf, vec![1, 2]);
    }
}
