//! # wire — compact binary serde format and framing
//!
//! `wire` is the serialization substrate used by the networked deployment of the
//! CRDT Paxos reproduction. It provides:
//!
//! * a compact, non-self-describing binary [serde](https://serde.rs) format
//!   ([`to_vec`], [`from_slice`]) using LEB128 variable-length integers,
//! * length-prefixed message framing ([`framing`]) for stream transports such as TCP.
//!
//! The format is intentionally small and predictable: protocol messages carry a CRDT
//! payload plus a single round counter (the paper's key message-size claim), so the
//! codec adds only a few bytes of overhead per message.
//!
//! ## Example
//!
//! ```
//! # use serde::{Serialize, Deserialize};
//! # fn main() -> Result<(), wire::Error> {
//! #[derive(Serialize, Deserialize, PartialEq, Debug)]
//! struct Ping { seq: u64, payload: Vec<u32> }
//!
//! let msg = Ping { seq: 7, payload: vec![1, 2, 3] };
//! let bytes = wire::to_vec(&msg)?;
//! let back: Ping = wire::from_slice(&bytes)?;
//! assert_eq!(msg, back);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod de;
mod error;
pub mod framing;
mod ser;
pub mod varint;

pub use de::{from_bytes, from_bytes_in_place, from_slice, from_slice_in_place, Deserializer};
pub use error::{Error, Result};
pub use ser::{to_vec, to_writer, Serializer};
/// What [`to_vec`] and [`to_writer`] accept, re-exported so a caller that only
/// measures encoded sizes can bound on it without its own `serde` dependency.
pub use serde::Serialize;

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    fn roundtrip<T>(value: &T) -> T
    where
        T: Serialize + for<'de> Deserialize<'de>,
    {
        let bytes = to_vec(value).expect("serialize");
        from_slice(&bytes).expect("deserialize")
    }

    #[derive(Serialize, Deserialize, Debug, PartialEq, Clone)]
    enum Sample {
        Unit,
        NewType(u64),
        Tuple(u8, String),
        Struct { a: i64, b: Vec<bool> },
    }

    #[derive(Serialize, Deserialize, Debug, PartialEq, Clone)]
    struct Nested {
        name: String,
        values: BTreeMap<String, Vec<i32>>,
        flag: Option<Sample>,
        raw: Vec<u8>,
        pair: (u16, i16),
    }

    #[test]
    fn roundtrip_primitives() {
        assert!(roundtrip(&true));
        assert!(!roundtrip(&false));
        assert_eq!(roundtrip(&0u8), 0u8);
        assert_eq!(roundtrip(&255u8), 255u8);
        assert_eq!(roundtrip(&u64::MAX), u64::MAX);
        assert_eq!(roundtrip(&i64::MIN), i64::MIN);
        assert_eq!(roundtrip(&-1i32), -1i32);
        assert_eq!(roundtrip(&3.5f64), 3.5f64);
        assert_eq!(roundtrip(&f32::NEG_INFINITY), f32::NEG_INFINITY);
        assert_eq!(roundtrip(&'λ'), 'λ');
        assert_eq!(roundtrip(&u128::MAX), u128::MAX);
        assert_eq!(roundtrip(&i128::MIN), i128::MIN);
    }

    #[test]
    fn roundtrip_strings_and_collections() {
        assert_eq!(roundtrip(&String::new()), String::new());
        assert_eq!(roundtrip(&"hello κόσμε".to_string()), "hello κόσμε");
        assert_eq!(roundtrip(&vec![1u64, 2, 3]), vec![1u64, 2, 3]);
        let mut map = BTreeMap::new();
        map.insert("a".to_string(), 1u32);
        map.insert("b".to_string(), 2u32);
        assert_eq!(roundtrip(&map), map);
        assert_eq!(roundtrip(&Some(42u8)), Some(42u8));
        assert_eq!(roundtrip(&Option::<u8>::None), None);
    }

    #[test]
    fn roundtrip_enums_and_structs() {
        for sample in [
            Sample::Unit,
            Sample::NewType(99),
            Sample::Tuple(3, "x".into()),
            Sample::Struct { a: -7, b: vec![true, false] },
        ] {
            assert_eq!(roundtrip(&sample), sample);
        }

        let mut values = BTreeMap::new();
        values.insert("k".to_string(), vec![-1, 0, 1]);
        let nested = Nested {
            name: "nested".into(),
            values,
            flag: Some(Sample::NewType(1)),
            raw: vec![0, 255, 128],
            pair: (65535, -32768),
        };
        assert_eq!(roundtrip(&nested), nested);
    }

    #[test]
    fn in_place_decode_matches_owned() {
        let mut values = BTreeMap::new();
        values.insert("k".to_string(), vec![-1, 0, 1]);
        values.insert("z".to_string(), vec![9]);
        let nested = Nested {
            name: "nested".into(),
            values,
            flag: Some(Sample::NewType(1)),
            raw: vec![0, 255, 128],
            pair: (65535, -32768),
        };
        let bytes = to_vec(&nested).unwrap();

        // Scratch with different shape everywhere: stale map keys, longer
        // strings, a different enum variant, mismatched vec lengths.
        let mut stale = BTreeMap::new();
        stale.insert("k".to_string(), vec![7; 10]);
        stale.insert("stale-key".to_string(), vec![]);
        let mut place = Nested {
            name: "a much longer resident name".into(),
            values: stale,
            flag: Some(Sample::Struct { a: 0, b: vec![true] }),
            raw: vec![1],
            pair: (0, 0),
        };
        from_slice_in_place(&bytes, &mut place).unwrap();
        assert_eq!(place, nested);

        // Same-variant enum re-decode goes field-wise.
        let mut place = Sample::Tuple(1, "resident".into());
        let target = Sample::Tuple(2, "bb".into());
        from_slice_in_place(&to_vec(&target).unwrap(), &mut place).unwrap();
        assert_eq!(place, target);

        // Variant switch falls back to owned construction.
        let target = Sample::Unit;
        from_slice_in_place(&to_vec(&target).unwrap(), &mut place).unwrap();
        assert_eq!(place, target);
    }

    #[test]
    fn compactness_small_values() {
        // A tiny message should stay tiny: varints keep small integers to one byte.
        #[derive(Serialize)]
        struct Small {
            a: u64,
            b: u64,
            c: bool,
        }
        let bytes = to_vec(&Small { a: 1, b: 2, c: true }).unwrap();
        assert_eq!(bytes.len(), 3);
    }

    #[test]
    fn deserialize_rejects_trailing_bytes() {
        let mut bytes = to_vec(&7u64).unwrap();
        bytes.push(0);
        let err = from_slice::<u64>(&bytes).unwrap_err();
        assert!(matches!(err, Error::TrailingBytes(_)));
    }

    #[test]
    fn deserialize_rejects_truncated_input() {
        let bytes = to_vec(&"hello world".to_string()).unwrap();
        let err = from_slice::<String>(&bytes[..bytes.len() - 1]).unwrap_err();
        assert!(matches!(err, Error::UnexpectedEof));
    }

    #[test]
    fn invalid_bool_is_rejected() {
        let err = from_slice::<bool>(&[7]).unwrap_err();
        assert!(matches!(err, Error::InvalidBool(7)));
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        // length 2, bytes 0xff 0xff is invalid UTF-8
        let err = from_slice::<String>(&[2, 0xff, 0xff]).unwrap_err();
        assert!(matches!(err, Error::InvalidUtf8));
    }

    #[test]
    fn option_tag_validation() {
        let err = from_slice::<Option<u8>>(&[2, 0]).unwrap_err();
        assert!(matches!(err, Error::InvalidOptionTag(2)));
    }
}
