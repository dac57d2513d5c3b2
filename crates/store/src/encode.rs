//! Column codecs: varints, delta-of-delta timestamps, Gorilla XOR floats,
//! zigzag-delta integers, bit-packed booleans, length-prefixed strings.
//!
//! All encoders are deterministic functions of their input — two runs over
//! the same rows produce byte-identical output, which is what makes chunk
//! files reproducible across same-seed experiments.

use crate::error::{StoreError, StoreResult};
use crate::row::ColumnValue;

// ---------------------------------------------------------------- varint

/// Append a LEB128 varint.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8 & 0x7F) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Read a LEB128 varint, advancing `pos`.
pub(crate) fn get_uvarint(data: &[u8], pos: &mut usize) -> StoreResult<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *data
            .get(*pos)
            .ok_or_else(|| StoreError::Decode("varint ran off the end".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(StoreError::Decode("varint too long".into()));
        }
        v |= ((b & 0x7F) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Zigzag-encode a signed value so small magnitudes stay small.
pub(crate) fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub(crate) fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a zigzag varint.
pub fn put_ivarint(out: &mut Vec<u8>, v: i64) {
    put_uvarint(out, zigzag(v));
}

/// Read a zigzag varint.
pub(crate) fn get_ivarint(data: &[u8], pos: &mut usize) -> StoreResult<i64> {
    Ok(unzigzag(get_uvarint(data, pos)?))
}

/// Append a length-prefixed byte string.
pub(crate) fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_uvarint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Read a length-prefixed byte string, advancing `pos`.
pub(crate) fn get_bytes<'a>(data: &'a [u8], pos: &mut usize) -> StoreResult<&'a [u8]> {
    let len = get_uvarint(data, pos)? as usize;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= data.len())
        .ok_or_else(|| StoreError::Decode("length-prefixed bytes ran off the end".into()))?;
    let out = &data[*pos..end];
    *pos = end;
    Ok(out)
}

/// [`get_bytes`] that must be UTF-8.
pub(crate) fn get_str<'a>(data: &'a [u8], pos: &mut usize) -> StoreResult<&'a str> {
    std::str::from_utf8(get_bytes(data, pos)?)
        .map_err(|_| StoreError::Decode("string not UTF-8".into()))
}

// ---------------------------------------------------------------- bit IO

/// MSB-first bit writer over a byte vector.
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits already used in the last byte (0..8).
    used: u8,
}

impl BitWriter {
    /// Empty writer.
    pub fn new() -> BitWriter {
        BitWriter {
            bytes: Vec::new(),
            used: 8,
        }
    }

    /// Append one bit.
    pub(crate) fn push_bit(&mut self, bit: bool) {
        self.push_bits(bit as u64, 1);
    }

    /// Append the low `n` bits of `v`, most significant first, filling
    /// the rest of the current byte (up to eight bits) per step.
    pub fn push_bits(&mut self, v: u64, n: u8) {
        let mut left = n;
        while left > 0 {
            if self.used == 8 {
                self.bytes.push(0);
                self.used = 0;
            }
            let room = 8 - self.used;
            let take = room.min(left);
            let piece = (v >> (left - take)) as u8 & (0xFF >> (8 - take));
            *self.bytes.last_mut().expect("byte pushed above") |= piece << (room - take);
            self.used += take;
            left -= take;
        }
    }

    /// Finish and return the byte buffer.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

impl Default for BitWriter {
    fn default() -> Self {
        BitWriter::new()
    }
}

/// MSB-first bit reader.
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> BitReader<'a> {
        BitReader { bytes, pos: 0 }
    }

    /// Next bit.
    pub(crate) fn read_bit(&mut self) -> StoreResult<bool> {
        Ok(self.read_bits(1)? == 1)
    }

    /// Next `n` bits as the low bits of a u64, taking the rest of the
    /// current byte (up to eight bits) per step.
    pub fn read_bits(&mut self, n: u8) -> StoreResult<u64> {
        let mut v = 0u64;
        let mut left = n;
        while left > 0 {
            let byte = *self
                .bytes
                .get(self.pos / 8)
                .ok_or_else(|| StoreError::Decode("bit stream ran off the end".into()))?;
            let room = 8 - (self.pos % 8) as u8;
            let take = room.min(left);
            let piece = (byte >> (room - take)) & (0xFF >> (8 - take));
            v = (v << take) | piece as u64;
            self.pos += take as usize;
            left -= take;
        }
        Ok(v)
    }
}

// ------------------------------------------------- delta-of-delta stamps

/// Encode timestamps as first value + first delta + delta-of-deltas, all
/// zigzag varints. Regular sampling collapses to one byte per stamp.
pub fn encode_timestamps(ts: &[i64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ts.len() + 8);
    if ts.is_empty() {
        return out;
    }
    put_ivarint(&mut out, ts[0]);
    if ts.len() == 1 {
        return out;
    }
    let mut prev_delta = ts[1].wrapping_sub(ts[0]);
    put_ivarint(&mut out, prev_delta);
    for w in ts[1..].windows(2) {
        let delta = w[1].wrapping_sub(w[0]);
        put_ivarint(&mut out, delta.wrapping_sub(prev_delta));
        prev_delta = delta;
    }
    out
}

/// Refuse a `count` that `data` cannot hold at `per_byte` items per byte,
/// so a block header's count never sizes an allocation by itself.
pub(crate) fn check_count(count: usize, data: &[u8], per_byte: usize) -> StoreResult<()> {
    if count > data.len().saturating_mul(per_byte) {
        return Err(StoreError::Decode(format!(
            "count {count} exceeds what {} bytes can hold",
            data.len()
        )));
    }
    Ok(())
}

/// Decode `count` timestamps produced by [`encode_timestamps`].
pub(crate) fn decode_timestamps(data: &[u8], count: usize) -> StoreResult<Vec<i64>> {
    check_count(count, data, 1)?;
    let mut out = Vec::with_capacity(count);
    if count == 0 {
        return Ok(out);
    }
    let mut pos = 0;
    let first = get_ivarint(data, &mut pos)?;
    out.push(first);
    if count == 1 {
        return Ok(out);
    }
    let mut delta = get_ivarint(data, &mut pos)?;
    let mut cur = first.wrapping_add(delta);
    out.push(cur);
    for _ in 2..count {
        let dod = get_ivarint(data, &mut pos)?;
        delta = delta.wrapping_add(dod);
        cur = cur.wrapping_add(delta);
        out.push(cur);
    }
    Ok(out)
}

// ---------------------------------------------------------- Gorilla XOR

/// Gorilla-compress a float column: first value raw, then XOR with the
/// previous value, reusing the previous leading/trailing-zero window when
/// it still fits (control bit 0) or emitting a fresh 5+6-bit window.
pub fn encode_f64(values: &[f64]) -> Vec<u8> {
    let mut w = BitWriter::new();
    let mut prev = 0u64;
    let mut prev_lead: u8 = 0xFF; // invalid: force a fresh window first
    let mut prev_sig: u8 = 0;
    for (i, v) in values.iter().enumerate() {
        let bits = v.to_bits();
        if i == 0 {
            w.push_bits(bits, 64);
            prev = bits;
            continue;
        }
        let xor = prev ^ bits;
        prev = bits;
        if xor == 0 {
            w.push_bit(false);
            continue;
        }
        w.push_bit(true);
        let lead = (xor.leading_zeros() as u8).min(31);
        let trail = xor.trailing_zeros() as u8;
        let sig = 64 - lead - trail;
        let fits = prev_lead != 0xFF && lead >= prev_lead && {
            let prev_trail = 64 - prev_lead - prev_sig;
            trail >= prev_trail
        };
        if fits {
            w.push_bit(false);
            let prev_trail = 64 - prev_lead - prev_sig;
            w.push_bits(xor >> prev_trail, prev_sig);
        } else {
            w.push_bit(true);
            w.push_bits(lead as u64, 5);
            // sig ∈ 1..=64 stored as sig-1 in 6 bits.
            w.push_bits((sig - 1) as u64, 6);
            w.push_bits(xor >> trail, sig);
            prev_lead = lead;
            prev_sig = sig;
        }
    }
    w.into_bytes()
}

/// Decode `count` floats produced by [`encode_f64`].
pub fn decode_f64(data: &[u8], count: usize) -> StoreResult<Vec<f64>> {
    check_count(count, data, 8)?;
    let mut r = BitReader::new(data);
    let mut out = Vec::with_capacity(count);
    if count == 0 {
        return Ok(out);
    }
    let mut prev = r.read_bits(64)?;
    out.push(f64::from_bits(prev));
    let mut lead: u8 = 0;
    let mut sig: u8 = 0;
    for _ in 1..count {
        if !r.read_bit()? {
            out.push(f64::from_bits(prev));
            continue;
        }
        if r.read_bit()? {
            lead = r.read_bits(5)? as u8;
            sig = r.read_bits(6)? as u8 + 1;
        }
        if lead + sig > 64 {
            return Err(StoreError::Decode("gorilla window exceeds 64 bits".into()));
        }
        let trail = 64 - lead - sig;
        let xor = r.read_bits(sig)? << trail;
        prev ^= xor;
        out.push(f64::from_bits(prev));
    }
    Ok(out)
}

// ----------------------------------------------------- non-float columns

/// Encode a homogeneous value column (`values` must all match `tag`).
pub fn encode_values(tag: u8, values: &[ColumnValue]) -> Vec<u8> {
    match tag {
        0 => {
            let floats: Vec<f64> = values
                .iter()
                .map(|v| match v {
                    ColumnValue::F64(x) => *x,
                    _ => unreachable!("mixed column"),
                })
                .collect();
            encode_f64(&floats)
        }
        1 => {
            let mut out = Vec::new();
            let mut prev = 0i64;
            for v in values {
                let ColumnValue::I64(x) = v else {
                    unreachable!("mixed column")
                };
                put_ivarint(&mut out, x.wrapping_sub(prev));
                prev = *x;
            }
            out
        }
        2 => {
            let mut w = BitWriter::new();
            for v in values {
                let ColumnValue::Bool(b) = v else {
                    unreachable!("mixed column")
                };
                w.push_bit(*b);
            }
            w.into_bytes()
        }
        _ => {
            let mut out = Vec::new();
            for v in values {
                let ColumnValue::Str(s) = v else {
                    unreachable!("mixed column")
                };
                put_bytes(&mut out, s.as_bytes());
            }
            out
        }
    }
}

/// Decode `count` values of type `tag` produced by [`encode_values`].
pub fn decode_values(tag: u8, data: &[u8], count: usize) -> StoreResult<Vec<ColumnValue>> {
    match tag {
        0 => Ok(decode_f64(data, count)?
            .into_iter()
            .map(ColumnValue::F64)
            .collect()),
        1 => {
            check_count(count, data, 1)?;
            let mut out = Vec::with_capacity(count);
            let mut pos = 0;
            let mut prev = 0i64;
            for _ in 0..count {
                prev = prev.wrapping_add(get_ivarint(data, &mut pos)?);
                out.push(ColumnValue::I64(prev));
            }
            Ok(out)
        }
        2 => {
            check_count(count, data, 8)?;
            let mut r = BitReader::new(data);
            (0..count)
                .map(|_| r.read_bit().map(ColumnValue::Bool))
                .collect()
        }
        3 => {
            check_count(count, data, 1)?;
            let mut out = Vec::with_capacity(count);
            let mut pos = 0;
            for _ in 0..count {
                out.push(ColumnValue::Str(get_str(data, &mut pos)?.to_string()));
            }
            Ok(out)
        }
        t => Err(StoreError::Decode(format!("bad value type tag {t}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varints_roundtrip() {
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            buf.clear();
            put_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_uvarint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123456] {
            buf.clear();
            put_ivarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_ivarint(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn truncated_varint_errors() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 1 << 40);
        buf.truncate(2);
        let mut pos = 0;
        assert!(get_uvarint(&buf, &mut pos).is_err());
    }

    #[test]
    fn bit_io_roundtrip() {
        let mut w = BitWriter::new();
        w.push_bits(0b1011, 4);
        w.push_bit(true);
        w.push_bits(0xDEADBEEF, 32);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert!(r.read_bit().unwrap());
        assert_eq!(r.read_bits(32).unwrap(), 0xDEADBEEF);
    }

    #[test]
    fn regular_timestamps_compress_to_about_a_byte() {
        let ts: Vec<i64> = (0..1000).map(|i| 1_000_000 + i * 500).collect();
        let enc = encode_timestamps(&ts);
        assert!(enc.len() < 1010, "got {} bytes", enc.len());
        assert_eq!(decode_timestamps(&enc, ts.len()).unwrap(), ts);
    }

    #[test]
    fn irregular_timestamps_roundtrip() {
        let ts = vec![i64::MIN, -5, 0, 3, 3, 1_000_000_000_000, i64::MAX];
        let enc = encode_timestamps(&ts);
        assert_eq!(decode_timestamps(&enc, ts.len()).unwrap(), ts);
        assert!(decode_timestamps(&[], 0).unwrap().is_empty());
    }

    #[test]
    fn gorilla_roundtrip_and_compresses_smooth_series() {
        let vals: Vec<f64> = (0..500).map(|i| 20.0 + (i as f64) * 0.25).collect();
        let enc = encode_f64(&vals);
        assert_eq!(decode_f64(&enc, vals.len()).unwrap(), vals);
        assert!(
            enc.len() < vals.len() * 8 / 2,
            "only compressed to {} bytes",
            enc.len()
        );
        // Constant series: ~1 bit per value after the first.
        let flat = vec![42.5f64; 400];
        let enc = encode_f64(&flat);
        assert!(enc.len() < 8 + 400 / 8 + 2);
        assert_eq!(decode_f64(&enc, flat.len()).unwrap(), flat);
    }

    #[test]
    fn gorilla_handles_hostile_values() {
        let vals = vec![
            0.0,
            -0.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1.0,
            1.0,
            -1.0,
        ];
        let enc = encode_f64(&vals);
        let dec = decode_f64(&enc, vals.len()).unwrap();
        for (a, b) in vals.iter().zip(&dec) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn value_columns_roundtrip() {
        let ints: Vec<ColumnValue> = [3i64, 4, 4, -100, i64::MAX]
            .iter()
            .map(|&v| ColumnValue::I64(v))
            .collect();
        assert_eq!(
            decode_values(1, &encode_values(1, &ints), ints.len()).unwrap(),
            ints
        );
        let bools: Vec<ColumnValue> = [true, false, true, true, false, false, true, false, true]
            .iter()
            .map(|&b| ColumnValue::Bool(b))
            .collect();
        assert_eq!(
            decode_values(2, &encode_values(2, &bools), bools.len()).unwrap(),
            bools
        );
        let strs: Vec<ColumnValue> = ["", "a", "hello world", "τιμή"]
            .iter()
            .map(|s| ColumnValue::Str(s.to_string()))
            .collect();
        assert_eq!(
            decode_values(3, &encode_values(3, &strs), strs.len()).unwrap(),
            strs
        );
    }

    #[test]
    fn hostile_counts_error_before_allocating() {
        let count = (u64::MAX >> 1) as usize;
        let payload = [1u8, 2, 3];
        assert!(matches!(
            decode_timestamps(&payload, count),
            Err(StoreError::Decode(_))
        ));
        assert!(matches!(
            decode_f64(&payload, count),
            Err(StoreError::Decode(_))
        ));
        for tag in 0..=3 {
            assert!(matches!(
                decode_values(tag, &payload, count),
                Err(StoreError::Decode(_))
            ));
        }
        // The bound is exact: 24 bools fit three bytes, 25 do not.
        assert!(decode_values(2, &payload, 24).is_ok());
        assert!(decode_values(2, &payload, 25).is_err());
    }

    #[test]
    fn corrupt_columns_error_not_panic() {
        assert!(decode_values(7, &[], 0).is_err());
        assert!(decode_values(3, &[200, 1, 2], 1).is_err()); // length overflow
        assert!(decode_f64(&[1, 2, 3], 4).is_err()); // too short
    }
}
