//! LEB128 variable-length integer encoding.
//!
//! Unsigned integers are encoded 7 bits at a time, least-significant group first, with
//! the high bit of each byte acting as a continuation flag. Signed integers are
//! zig-zag mapped to unsigned integers first so that small negative numbers stay small.

use crate::error::{Error, Result};

/// Maximum number of bytes a `u64` varint may occupy.
pub const MAX_VARINT64_LEN: usize = 10;
/// Maximum number of bytes a `u128` varint may occupy.
pub const MAX_VARINT128_LEN: usize = 19;

/// Appends `value` to `out` as an unsigned LEB128 varint.
///
/// One and two bytes (tags, lengths, ids and counts below 16 384: nearly every
/// integer of a protocol message) are appended as a unit, inlined into the
/// serializer; anything longer goes through [`encode_u128`]'s stack buffer.
#[inline]
pub fn encode_u64(value: u64, out: &mut Vec<u8>) {
    if value < 0x80 {
        out.push(value as u8);
    } else if value < 0x4000 {
        out.extend_from_slice(&[value as u8 | 0x80, (value >> 7) as u8]);
    } else {
        encode_u128(u128::from(value), out);
    }
}

/// Appends `value` to `out` as an unsigned LEB128 varint (128-bit variant).
///
/// The groups are assembled on the stack and appended with one write, so the
/// vector is grown and bounds-checked once per integer, not once per byte.
pub fn encode_u128(mut value: u128, out: &mut Vec<u8>) {
    let mut bytes = [0u8; MAX_VARINT128_LEN];
    let mut len = 0;
    while value >= 0x80 {
        bytes[len] = value as u8 | 0x80;
        value >>= 7;
        len += 1;
    }
    bytes[len] = value as u8;
    out.extend_from_slice(&bytes[..=len]);
}

/// Appends `value` to `out` using zig-zag + LEB128 encoding.
pub fn encode_i64(value: i64, out: &mut Vec<u8>) {
    encode_u64(zigzag_encode_64(value), out);
}

/// Appends `value` to `out` using zig-zag + LEB128 encoding (128-bit variant).
pub fn encode_i128(value: i128, out: &mut Vec<u8>) {
    encode_u128(zigzag_encode_128(value), out);
}

/// Decodes an unsigned varint from the front of `input`, advancing the slice.
///
/// The mirror of [`encode_u64`]: one- and two-byte varints are read in place,
/// inlined into the deserializer; anything longer, and every malformed or
/// truncated input, goes through the out-of-line loop.
///
/// # Errors
///
/// Returns [`Error::UnexpectedEof`] if the input ends mid-varint and
/// [`Error::VarintOverflow`] if more than [`MAX_VARINT64_LEN`] bytes are used.
#[inline]
pub fn decode_u64(input: &mut &[u8]) -> Result<u64> {
    let bytes = *input;
    match *bytes {
        [first, ref rest @ ..] if first < 0x80 => {
            *input = rest;
            Ok(u64::from(first))
        }
        [first, second, ref rest @ ..] if second < 0x80 => {
            *input = rest;
            Ok(u64::from(first & 0x7f) | u64::from(second) << 7)
        }
        _ => decode_u64_loop(input),
    }
}

/// [`decode_u64`] one byte at a time, with every bounds and overflow check.
#[inline(never)]
fn decode_u64_loop(input: &mut &[u8]) -> Result<u64> {
    let mut result: u64 = 0;
    let mut shift = 0u32;
    for i in 0..MAX_VARINT64_LEN {
        let byte = *input.get(i).ok_or(Error::UnexpectedEof)?;
        let low = u64::from(byte & 0x7f);
        if shift >= 64 || (shift == 63 && low > 1) {
            return Err(Error::VarintOverflow);
        }
        result |= low << shift;
        if byte & 0x80 == 0 {
            *input = &input[i + 1..];
            return Ok(result);
        }
        shift += 7;
    }
    Err(Error::VarintOverflow)
}

/// Decodes an unsigned 128-bit varint from the front of `input`, advancing the slice.
///
/// # Errors
///
/// Returns [`Error::UnexpectedEof`] if the input ends mid-varint and
/// [`Error::VarintOverflow`] if more than [`MAX_VARINT128_LEN`] bytes are used.
pub fn decode_u128(input: &mut &[u8]) -> Result<u128> {
    let mut result: u128 = 0;
    let mut shift = 0u32;
    for i in 0..MAX_VARINT128_LEN {
        let byte = *input.get(i).ok_or(Error::UnexpectedEof)?;
        let low = u128::from(byte & 0x7f);
        if shift >= 128 || (shift == 126 && low > 3) {
            return Err(Error::VarintOverflow);
        }
        result |= low << shift;
        if byte & 0x80 == 0 {
            *input = &input[i + 1..];
            return Ok(result);
        }
        shift += 7;
    }
    Err(Error::VarintOverflow)
}

/// Decodes a zig-zag encoded signed varint from the front of `input`.
///
/// # Errors
///
/// Same error conditions as [`decode_u64`].
pub fn decode_i64(input: &mut &[u8]) -> Result<i64> {
    Ok(zigzag_decode_64(decode_u64(input)?))
}

/// Decodes a zig-zag encoded signed 128-bit varint from the front of `input`.
///
/// # Errors
///
/// Same error conditions as [`decode_u128`].
pub fn decode_i128(input: &mut &[u8]) -> Result<i128> {
    Ok(zigzag_decode_128(decode_u128(input)?))
}

/// Maps a signed integer to an unsigned integer so small magnitudes encode compactly.
pub fn zigzag_encode_64(value: i64) -> u64 {
    ((value << 1) ^ (value >> 63)) as u64
}

/// Inverse of [`zigzag_encode_64`].
pub fn zigzag_decode_64(value: u64) -> i64 {
    ((value >> 1) as i64) ^ -((value & 1) as i64)
}

/// Maps a signed 128-bit integer to an unsigned integer.
pub fn zigzag_encode_128(value: i128) -> u128 {
    ((value << 1) ^ (value >> 127)) as u128
}

/// Inverse of [`zigzag_encode_128`].
pub fn zigzag_decode_128(value: u128) -> i128 {
    ((value >> 1) as i128) ^ -((value & 1) as i128)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_u64(value: u64, width: usize) -> u64 {
        let mut buf = Vec::new();
        encode_u64(value, &mut buf);
        assert_eq!(buf.len(), width, "{value} encodes in {width} bytes");
        let mut slice = buf.as_slice();
        let decoded = decode_u64(&mut slice).unwrap();
        assert!(slice.is_empty());
        decoded
    }

    #[test]
    fn u64_roundtrip_boundaries() {
        for (value, width) in [
            (0, 1),
            (1, 1),
            (127, 1),
            (128, 2),
            (255, 2),
            (256, 2),
            (16383, 2),
            (16384, 3),
            (u32::MAX as u64, 5),
            (u64::MAX - 1, 10),
            (u64::MAX, 10),
        ] {
            assert_eq!(roundtrip_u64(value, width), value);
        }
    }

    #[test]
    fn i64_roundtrip_boundaries() {
        for value in [0, 1, -1, 63, -64, 64, -65, i64::MAX, i64::MIN] {
            let mut buf = Vec::new();
            encode_i64(value, &mut buf);
            let mut slice = buf.as_slice();
            assert_eq!(decode_i64(&mut slice).unwrap(), value);
            assert!(slice.is_empty());
        }
    }

    #[test]
    fn u128_roundtrip_boundaries() {
        for value in [0u128, 1, u64::MAX as u128, u128::MAX - 1, u128::MAX] {
            let mut buf = Vec::new();
            encode_u128(value, &mut buf);
            let mut slice = buf.as_slice();
            assert_eq!(decode_u128(&mut slice).unwrap(), value);
        }
    }

    #[test]
    fn i128_roundtrip_boundaries() {
        for value in [0i128, -1, 1, i128::MAX, i128::MIN] {
            let mut buf = Vec::new();
            encode_i128(value, &mut buf);
            let mut slice = buf.as_slice();
            assert_eq!(decode_i128(&mut slice).unwrap(), value);
        }
    }

    #[test]
    fn small_values_use_one_byte() {
        for value in 0..128u64 {
            let mut buf = Vec::new();
            encode_u64(value, &mut buf);
            assert_eq!(buf.len(), 1);
        }
    }

    #[test]
    fn zigzag_orders_small_magnitudes_first() {
        assert_eq!(zigzag_encode_64(0), 0);
        assert_eq!(zigzag_encode_64(-1), 1);
        assert_eq!(zigzag_encode_64(1), 2);
        assert_eq!(zigzag_encode_64(-2), 3);
        assert_eq!(zigzag_decode_64(zigzag_encode_64(i64::MIN)), i64::MIN);
    }

    #[test]
    fn truncated_varint_is_eof() {
        let mut buf = Vec::new();
        encode_u64(u64::MAX, &mut buf);
        let mut slice = &buf[..buf.len() - 1];
        assert_eq!(decode_u64(&mut slice).unwrap_err(), Error::UnexpectedEof);
    }

    #[test]
    fn overlong_varint_is_rejected() {
        // 11 continuation bytes cannot be a valid u64 varint.
        let bytes = [0x80u8; 11];
        let mut slice = &bytes[..];
        assert_eq!(decode_u64(&mut slice).unwrap_err(), Error::VarintOverflow);
    }

    /// `decode_u64` as one loop, before it had fast paths: the reference.
    fn reference_decode_u64(input: &mut &[u8]) -> Result<u64> {
        let mut result: u64 = 0;
        let mut shift = 0u32;
        for i in 0..MAX_VARINT64_LEN {
            let byte = *input.get(i).ok_or(Error::UnexpectedEof)?;
            let low = u64::from(byte & 0x7f);
            if shift >= 64 || (shift == 63 && low > 1) {
                return Err(Error::VarintOverflow);
            }
            result |= low << shift;
            if byte & 0x80 == 0 {
                *input = &input[i + 1..];
                return Ok(result);
            }
            shift += 7;
        }
        Err(Error::VarintOverflow)
    }

    /// Decodes `bytes` both ways: the same value or error, the same rest.
    fn assert_decodes_as_the_reference(bytes: &[u8]) {
        let (mut fast, mut reference) = (bytes, bytes);
        let decoded = decode_u64(&mut fast);
        assert_eq!(decoded, reference_decode_u64(&mut reference), "{bytes:02x?}");
        assert_eq!(fast, reference, "rest of {bytes:02x?}");
    }

    #[test]
    fn every_one_and_two_byte_input_decodes_as_the_reference() {
        for first in 0..=u8::MAX {
            assert_decodes_as_the_reference(&[first]);
            for trailing in [0x00, 0x80] {
                assert_decodes_as_the_reference(&[first, trailing]);
            }
            for second in 0..=u8::MAX {
                assert_decodes_as_the_reference(&[first, second]);
                for trailing in [0x00, 0x80] {
                    assert_decodes_as_the_reference(&[first, second, trailing]);
                }
            }
        }
    }

    #[test]
    fn long_truncated_non_canonical_and_overflowing_inputs_decode_as_the_reference() {
        // Every truncation of each group-count boundary, and each followed by
        // a byte that is not its own.
        let mut boundaries = vec![0, u64::MAX - 1, u64::MAX];
        for bits in (7..64).step_by(7) {
            boundaries.extend([(1u64 << bits) - 1, 1 << bits]);
        }
        for value in boundaries {
            let mut bytes = Vec::new();
            encode_u64(value, &mut bytes);
            for len in 0..=bytes.len() {
                assert_decodes_as_the_reference(&bytes[..len]);
            }
            bytes.push(0x80);
            assert_decodes_as_the_reference(&bytes);
        }
        let ten = |last: u8, fill: u8| {
            let mut bytes = vec![fill; 9];
            bytes.push(last);
            bytes
        };
        let cases: Vec<Vec<u8>> = vec![
            // Non-canonical: zero-valued groups a canonical encoder would drop.
            vec![0x80, 0x00],
            vec![0xff, 0x80, 0x00],
            vec![0x80, 0x80, 0x80, 0x00, 0x2a],
            ten(0x00, 0x80),
            // The 10-byte maximum: u64::MAX and 1 << 63.
            ten(0x01, 0xff),
            ten(0x01, 0x80),
            // Overflow: more than one bit in the tenth byte, or an eleventh byte.
            ten(0x02, 0xff),
            ten(0x7f, 0x80),
            ten(0xff, 0xff),
            vec![0x80; 11],
            [ten(0x80, 0x80), vec![0x00]].concat(),
        ];
        for bytes in cases {
            assert_decodes_as_the_reference(&bytes);
        }
    }

    #[test]
    fn varint_with_excess_high_bits_is_rejected() {
        // 10th byte may only contribute one bit for u64.
        let bytes = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
        let mut slice = &bytes[..];
        assert_eq!(decode_u64(&mut slice).unwrap_err(), Error::VarintOverflow);
    }
}
