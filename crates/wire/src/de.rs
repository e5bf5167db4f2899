//! Serde deserializer for the wire format.

use serde::de::{self, DeserializeSeed, IntoDeserializer, Visitor};
use serde::Deserialize;

use crate::error::{Error, Result};
use crate::varint;

/// Deserializes a value of type `T` from `input`, requiring the whole slice is consumed.
///
/// # Errors
///
/// Returns [`Error::TrailingBytes`] if bytes remain after decoding, plus any decoding
/// error such as [`Error::UnexpectedEof`] or [`Error::InvalidUtf8`].
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), wire::Error> {
/// let bytes = wire::to_vec(&vec![1u16, 2, 3])?;
/// let back: Vec<u16> = wire::from_slice(&bytes)?;
/// assert_eq!(back, [1, 2, 3]);
/// # Ok(())
/// # }
/// ```
pub fn from_slice<'de, T: Deserialize<'de>>(input: &'de [u8]) -> Result<T> {
    let mut deserializer = Deserializer::new(input);
    let value = T::deserialize(&mut deserializer)?;
    if deserializer.input.is_empty() {
        Ok(value)
    } else {
        Err(Error::TrailingBytes(deserializer.input.len()))
    }
}

/// Deserializes a value of type `T` from a refcounted [`Bytes`](bytes::Bytes)
/// view, borrowing string and byte fields from it instead of copying them.
///
/// The decoded value may borrow from `input` (via `&str` / `&[u8]` fields), so
/// it cannot outlive the view — but the view itself is a cheap `Arc` slice of
/// the transport read buffer, which is exactly what makes the inbound path
/// copy-free: socket bytes are written once and then only ever aliased.
///
/// # Errors
///
/// Identical to [`from_slice`]: the same bytes produce the same value or the
/// same error whether decoded borrowed or owned.
pub fn from_bytes<'de, T: Deserialize<'de>>(input: &'de bytes::Bytes) -> Result<T> {
    from_slice(input)
}

/// Deserializes from `input` into an existing `place`, reusing its resident
/// heap allocations (`String` capacity, `Vec` slots, map nodes) instead of
/// building a fresh value.
///
/// On the steady-state inbound path every frame carries the same message
/// shape, so decoding into a per-worker scratch value allocates nothing.
///
/// # Errors
///
/// Identical to [`from_slice`]. On error `place` may hold a partially
/// overwritten value and should not be interpreted until the next successful
/// decode.
pub fn from_slice_in_place<'de, T: Deserialize<'de>>(
    input: &'de [u8],
    place: &mut T,
) -> Result<()> {
    let mut deserializer = Deserializer::new(input);
    T::deserialize_in_place(&mut deserializer, place)?;
    if deserializer.input.is_empty() {
        Ok(())
    } else {
        Err(Error::TrailingBytes(deserializer.input.len()))
    }
}

/// [`from_slice_in_place`] over a refcounted [`Bytes`](bytes::Bytes) view.
///
/// # Errors
///
/// Identical to [`from_slice`].
pub fn from_bytes_in_place<'de, T: Deserialize<'de>>(
    input: &'de bytes::Bytes,
    place: &mut T,
) -> Result<()> {
    from_slice_in_place(input, place)
}

/// Streaming deserializer reading from a byte slice.
#[derive(Debug)]
pub struct Deserializer<'de> {
    input: &'de [u8],
}

// Everything below is `#[inline]` for the serializer's reason (see `ser.rs`):
// the byte-level helpers are not generic, so without the hint they stay calls
// into this crate from the one that decodes, once per field of every entry.
impl<'de> Deserializer<'de> {
    /// Creates a deserializer over `input`.
    #[inline]
    pub fn new(input: &'de [u8]) -> Self {
        Deserializer { input }
    }

    /// Returns the number of not-yet-consumed bytes.
    pub fn remaining(&self) -> usize {
        self.input.len()
    }

    #[inline]
    fn take_byte(&mut self) -> Result<u8> {
        let (&first, rest) = self.input.split_first().ok_or(Error::UnexpectedEof)?;
        self.input = rest;
        Ok(first)
    }

    #[inline]
    fn take_bytes(&mut self, len: usize) -> Result<&'de [u8]> {
        if self.input.len() < len {
            return Err(Error::UnexpectedEof);
        }
        let (head, rest) = self.input.split_at(len);
        self.input = rest;
        Ok(head)
    }

    #[inline]
    fn read_len(&mut self) -> Result<usize> {
        let len = varint::decode_u64(&mut self.input)?;
        usize::try_from(len).map_err(|_| Error::LengthOverflow(len))
    }

    #[inline]
    fn read_u64(&mut self) -> Result<u64> {
        varint::decode_u64(&mut self.input)
    }

    #[inline]
    fn read_i64(&mut self) -> Result<i64> {
        varint::decode_i64(&mut self.input)
    }
}

macro_rules! deserialize_unsigned {
    ($method:ident, $visit:ident, $ty:ty) => {
        #[inline]
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
            let value = self.read_u64()?;
            let narrowed = <$ty>::try_from(value).map_err(|_| {
                Error::Message(format!("value {value} out of range for {}", stringify!($ty)))
            })?;
            visitor.$visit(narrowed)
        }
    };
}

macro_rules! deserialize_signed {
    ($method:ident, $visit:ident, $ty:ty) => {
        #[inline]
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
            let value = self.read_i64()?;
            let narrowed = <$ty>::try_from(value).map_err(|_| {
                Error::Message(format!("value {value} out of range for {}", stringify!($ty)))
            })?;
            visitor.$visit(narrowed)
        }
    };
}

impl<'de> de::Deserializer<'de> for &mut Deserializer<'de> {
    type Error = Error;

    #[inline]
    fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value> {
        Err(Error::NotSelfDescribing)
    }

    #[inline]
    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        match self.take_byte()? {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            other => Err(Error::InvalidBool(other)),
        }
    }

    deserialize_unsigned!(deserialize_u8, visit_u8, u8);
    deserialize_unsigned!(deserialize_u16, visit_u16, u16);
    deserialize_unsigned!(deserialize_u32, visit_u32, u32);
    deserialize_signed!(deserialize_i8, visit_i8, i8);
    deserialize_signed!(deserialize_i16, visit_i16, i16);
    deserialize_signed!(deserialize_i32, visit_i32, i32);

    #[inline]
    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        visitor.visit_u64(self.read_u64()?)
    }

    #[inline]
    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        visitor.visit_i64(self.read_i64()?)
    }

    #[inline]
    fn deserialize_u128<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        visitor.visit_u128(varint::decode_u128(&mut self.input)?)
    }

    #[inline]
    fn deserialize_i128<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        visitor.visit_i128(varint::decode_i128(&mut self.input)?)
    }

    #[inline]
    fn deserialize_f32<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let bytes = self.take_bytes(4)?;
        visitor.visit_f32(f32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    #[inline]
    fn deserialize_f64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let bytes = self.take_bytes(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(bytes);
        visitor.visit_f64(f64::from_le_bytes(raw))
    }

    #[inline]
    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let value = self.read_u64()?;
        let code = u32::try_from(value).map_err(|_| Error::InvalidChar(u32::MAX))?;
        let c = char::from_u32(code).ok_or(Error::InvalidChar(code))?;
        visitor.visit_char(c)
    }

    #[inline]
    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let len = self.read_len()?;
        let bytes = self.take_bytes(len)?;
        let text = std::str::from_utf8(bytes).map_err(|_| Error::InvalidUtf8)?;
        visitor.visit_borrowed_str(text)
    }

    #[inline]
    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        self.deserialize_str(visitor)
    }

    #[inline]
    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let len = self.read_len()?;
        let bytes = self.take_bytes(len)?;
        visitor.visit_borrowed_bytes(bytes)
    }

    #[inline]
    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        self.deserialize_bytes(visitor)
    }

    #[inline]
    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        match self.take_byte()? {
            0 => visitor.visit_none(),
            1 => visitor.visit_some(self),
            other => Err(Error::InvalidOptionTag(other)),
        }
    }

    #[inline]
    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        visitor.visit_unit()
    }

    #[inline]
    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value> {
        visitor.visit_unit()
    }

    #[inline]
    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value> {
        visitor.visit_newtype_struct(self)
    }

    #[inline]
    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let len = self.read_len()?;
        visitor.visit_seq(CountedAccess { de: self, remaining: len })
    }

    #[inline]
    fn deserialize_tuple<V: Visitor<'de>>(self, len: usize, visitor: V) -> Result<V::Value> {
        visitor.visit_seq(CountedAccess { de: self, remaining: len })
    }

    #[inline]
    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value> {
        self.deserialize_tuple(len, visitor)
    }

    #[inline]
    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value> {
        let len = self.read_len()?;
        visitor.visit_map(CountedAccess { de: self, remaining: len })
    }

    #[inline]
    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        self.deserialize_tuple(fields.len(), visitor)
    }

    #[inline]
    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        visitor.visit_enum(EnumAccess { de: self })
    }

    #[inline]
    fn deserialize_identifier<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value> {
        Err(Error::NotSelfDescribing)
    }

    #[inline]
    fn deserialize_ignored_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value> {
        Err(Error::NotSelfDescribing)
    }

    #[inline]
    fn is_human_readable(&self) -> bool {
        false
    }
}

struct CountedAccess<'a, 'de> {
    de: &'a mut Deserializer<'de>,
    remaining: usize,
}

impl<'a, 'de> de::SeqAccess<'de> for CountedAccess<'a, 'de> {
    type Error = Error;

    #[inline]
    fn next_element_seed<T: DeserializeSeed<'de>>(&mut self, seed: T) -> Result<Option<T::Value>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    #[inline]
    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

impl<'a, 'de> de::MapAccess<'de> for CountedAccess<'a, 'de> {
    type Error = Error;

    #[inline]
    fn next_key_seed<K: DeserializeSeed<'de>>(&mut self, seed: K) -> Result<Option<K::Value>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    #[inline]
    fn next_value_seed<V: DeserializeSeed<'de>>(&mut self, seed: V) -> Result<V::Value> {
        seed.deserialize(&mut *self.de)
    }

    #[inline]
    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

struct EnumAccess<'a, 'de> {
    de: &'a mut Deserializer<'de>,
}

impl<'a, 'de> de::EnumAccess<'de> for EnumAccess<'a, 'de> {
    type Error = Error;
    type Variant = VariantAccess<'a, 'de>;

    #[inline]
    fn variant_seed<V: DeserializeSeed<'de>>(self, seed: V) -> Result<(V::Value, Self::Variant)> {
        let index = self.de.read_u64()?;
        let index = u32::try_from(index).map_err(|_| Error::LengthOverflow(index))?;
        let value = seed.deserialize(index.into_deserializer())?;
        Ok((value, VariantAccess { de: self.de }))
    }
}

struct VariantAccess<'a, 'de> {
    de: &'a mut Deserializer<'de>,
}

impl<'a, 'de> de::VariantAccess<'de> for VariantAccess<'a, 'de> {
    type Error = Error;

    #[inline]
    fn unit_variant(self) -> Result<()> {
        Ok(())
    }

    #[inline]
    fn newtype_variant_seed<T: DeserializeSeed<'de>>(self, seed: T) -> Result<T::Value> {
        seed.deserialize(self.de)
    }

    #[inline]
    fn tuple_variant<V: Visitor<'de>>(self, len: usize, visitor: V) -> Result<V::Value> {
        de::Deserializer::deserialize_tuple(self.de, len, visitor)
    }

    #[inline]
    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value> {
        de::Deserializer::deserialize_tuple(self.de, fields.len(), visitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::to_vec;

    #[test]
    fn deserializer_reports_remaining_bytes() {
        let bytes = to_vec(&(1u8, 2u8)).unwrap();
        let mut de = Deserializer::new(&bytes);
        assert_eq!(de.remaining(), 2);
        let _: u8 = Deserialize::deserialize(&mut de).unwrap();
        assert_eq!(de.remaining(), 1);
    }

    #[test]
    fn out_of_range_narrowing_is_an_error() {
        let bytes = to_vec(&300u64).unwrap();
        let err = from_slice::<u8>(&bytes).unwrap_err();
        assert!(matches!(err, Error::Message(_)));
    }

    #[test]
    fn char_validation() {
        // 0xD800 is a surrogate and not a valid char.
        let bytes = to_vec(&0xD800u32).unwrap();
        let err = from_slice::<char>(&bytes).unwrap_err();
        assert!(matches!(err, Error::InvalidChar(0xD800)));
    }

    #[test]
    fn borrowed_str_deserialization() {
        let bytes = to_vec(&"borrowed".to_string()).unwrap();
        let text: &str = from_slice(&bytes).unwrap();
        assert_eq!(text, "borrowed");
    }
}
