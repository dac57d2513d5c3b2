//! Column codecs: varints, delta-of-delta timestamps, Gorilla XOR floats,
//! zigzag-delta integers, bit-packed booleans, length-prefixed strings.
//!
//! Each column has one encoder and one decoder, and both keep their state
//! in the open. The decoder is a validating cursor (`TsCursor`,
//! `ValueCursor`) that can say where its column ended after any cell —
//! the last timestamp and delta; the last value, the Gorilla window — and
//! how many bits that took, and the encoder (`TsEncoder`, `ValueEncoder`)
//! restarts from exactly that end state over a copy of those bits, so
//! compaction copies a column's untouched prefix and appends to it
//! instead of decoding and re-encoding it. Encoding a whole column is a
//! restart from nothing, decoding one a collect over its cursor. An
//! encoder keeps its buffer from one column to the next.
//!
//! The bit I/O under the float and bool columns is word-wide: the writer
//! fills a 64-bit accumulator and spills it a whole word at a time, the
//! reader cuts each field out of the 64-bit window at its position.
//!
//! All encoders are deterministic functions of their input — two runs over
//! the same rows produce byte-identical output, which is what makes chunk
//! files reproducible across same-seed experiments — and a resumed encoder
//! writes what one that saw every value would.

use crate::error::{StoreError, StoreResult};
use crate::row::{ColumnValue, CELL_FOOTPRINT};

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

// ---------------------------------------------------------------- bit IO

/// A mask of the low `n` (at most 64) bits.
fn low_bits(n: u32) -> u64 {
    u64::MAX.checked_shr(64 - n).unwrap_or(0)
}

/// MSB-first bit writer: pushes fill a 64-bit accumulator, which spills
/// into the byte vector a whole word at a time. `BitWriter::default()` is
/// the restart of an empty stream.
#[derive(Default)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Bits not spilled yet: the low `pending` bits (fewer than 64).
    acc: u64,
    pending: u32,
}

impl BitWriter {
    /// Re-open, in this writer's buffer, the stream made of the first
    /// `bits` (at most `8 * from.len()`) bits of `from` — a partial last
    /// byte included, anything after it dropped — so that pushes continue
    /// it. Whatever the writer held goes.
    pub fn restart(&mut self, from: &[u8], bits: usize) {
        let (full, part) = (bits / 8, (bits % 8) as u32);
        self.bytes.clear();
        self.bytes.extend_from_slice(&from[..full]);
        self.acc = match part {
            0 => 0,
            _ => u64::from(from[full] >> (8 - part)),
        };
        self.pending = part;
    }

    /// Append one bit.
    pub(crate) fn push_bit(&mut self, bit: bool) {
        self.push_bits(bit as u64, 1);
    }

    /// Append the low `n` (at most 64) bits of `v`, most significant first.
    pub fn push_bits(&mut self, v: u64, n: u8) {
        let n = u32::from(n);
        let v = v & low_bits(n);
        let room = 64 - self.pending;
        if n < room {
            self.acc = (self.acc << n) | v;
            self.pending += n;
            return;
        }
        // Fill the accumulator, spill it, keep what did not fit.
        let rest = n - room;
        let word = match room {
            64 => v,
            _ => (self.acc << room) | (v >> rest),
        };
        self.bytes.extend_from_slice(&word.to_be_bytes());
        self.acc = v & low_bits(rest);
        self.pending = rest;
    }

    /// Finish (the last byte zero-padded) and return the byte buffer.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.pad();
        self.bytes
    }

    /// Spill the bits still pending, the last byte zero-padded: the
    /// stream ends here.
    fn pad(&mut self) {
        if self.pending > 0 {
            let word = self.acc << (64 - self.pending);
            let used = self.pending.div_ceil(8) as usize;
            self.bytes.extend_from_slice(&word.to_be_bytes()[..used]);
            (self.acc, self.pending) = (0, 0);
        }
    }
}

/// MSB-first bit reader: each read cuts its field out of the 64-bit
/// window that starts at the current bit.
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Bits read so far.
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

    /// Next `n` (at most 64) bits as the low bits of a u64.
    pub fn read_bits(&mut self, n: u8) -> StoreResult<u64> {
        let end = self.pos + usize::from(n);
        if end > self.bytes.len().saturating_mul(8) {
            return Err(StoreError::Decode("bit stream ran off the end".into()));
        }
        let v = match n {
            0 => 0,
            n => self.window() >> (64 - n),
        };
        self.pos = end;
        Ok(v)
    }

    /// The 64 bits from the current one on, zeros past the end. Called
    /// only with at least one bit left.
    fn window(&self) -> u64 {
        let (at, shift) = (self.pos / 8, (self.pos % 8) as u32);
        let word = match self.bytes.get(at..at + 8) {
            Some(word) => u64::from_be_bytes(word.try_into().expect("8 bytes")),
            None => {
                let tail = &self.bytes[at..];
                let packed = tail.iter().fold(0, |w, &b| (w << 8) | u64::from(b));
                packed << (8 * (8 - tail.len()))
            }
        };
        let next = self.bytes.get(at + 8).map_or(0, |&b| u64::from(b));
        (word << shift) | ((next << shift) >> 8)
    }
}

// ------------------------------------------------- delta-of-delta stamps

/// Where a timestamp column ended: what [`TsEncoder`] needs to continue it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct TsEnd {
    /// Stamps so far.
    pub(crate) count: usize,
    /// The last stamp.
    pub(crate) last: i64,
    /// The last delta (0 before the second stamp).
    delta: i64,
    /// Bytes the stamps so far take.
    bytes: usize,
}

/// Delta-of-delta timestamp encoder: the first stamp, then each delta
/// minus the one before it (the first minus 0), all zigzag varints.
/// Regular sampling collapses to one byte per stamp.
#[derive(Default)]
pub(crate) struct TsEncoder {
    out: Vec<u8>,
    end: TsEnd,
}

impl TsEncoder {
    /// Continue the column whose first `end.bytes` bytes `from` holds and
    /// which ended there at `end`, in this encoder's buffer.
    pub(crate) fn restart(&mut self, from: &[u8], end: TsEnd) {
        self.out.clear();
        self.out.extend_from_slice(&from[..end.bytes]);
        self.end = end;
    }

    /// Append one stamp.
    pub(crate) fn push(&mut self, t: i64) {
        let end = &mut self.end;
        if end.count == 0 {
            put_ivarint(&mut self.out, t);
        } else {
            let delta = t.wrapping_sub(end.last);
            put_ivarint(&mut self.out, delta.wrapping_sub(end.delta));
            end.delta = delta;
        }
        end.last = t;
        end.count += 1;
    }

    /// Where the column ends now.
    pub(crate) fn end(&self) -> TsEnd {
        TsEnd {
            bytes: self.out.len(),
            ..self.end
        }
    }

    /// The encoded column.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.out
    }
}

/// Encode a timestamp column: a `TsEncoder` over every stamp.
pub fn encode_timestamps(ts: &[i64]) -> Vec<u8> {
    let mut stamps = TsEncoder {
        out: Vec::with_capacity(ts.len() + 8),
        end: TsEnd::default(),
    };
    ts.iter().for_each(|&t| stamps.push(t));
    stamps.out
}

/// The one decoder of a timestamp column: a cursor that validates as it
/// goes and can say where the column ended.
pub(crate) struct TsCursor<'a> {
    data: &'a [u8],
    pos: usize,
    end: TsEnd,
}

impl<'a> TsCursor<'a> {
    /// Cursor over a column of `count` stamps; a count `data` cannot hold
    /// is refused.
    pub(crate) fn new(data: &'a [u8], count: usize) -> StoreResult<TsCursor<'a>> {
        check_count(count, data, 1)?;
        Ok(TsCursor {
            data,
            pos: 0,
            end: TsEnd::default(),
        })
    }

    /// Decode the next stamp.
    pub(crate) fn step(&mut self) -> StoreResult<i64> {
        let v = get_ivarint(self.data, &mut self.pos)?;
        let end = &mut self.end;
        if end.count == 0 {
            end.last = v;
        } else {
            end.delta = end.delta.wrapping_add(v);
            end.last = end.last.wrapping_add(end.delta);
        }
        end.count += 1;
        Ok(end.last)
    }

    /// Where the column ends after the stamps stepped so far.
    pub(crate) fn end(&self) -> TsEnd {
        TsEnd {
            bytes: self.pos,
            ..self.end
        }
    }
}

// ---------------------------------------------------------- value columns

/// Where a value column ended: what [`ValueEncoder`] needs to continue it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ValueEnd {
    /// Values so far.
    count: usize,
    /// The last value's bits: an f64's, an i64's, a bool's 0 or 1.
    last: u64,
    /// The Gorilla window last opened: leading zeros, significant bits.
    window: Option<(u8, u8)>,
    /// Bits the values so far take (whole bytes for int and string
    /// columns).
    bits: usize,
}

/// Value-column encoder for every type. Floats are Gorilla-XOR
/// compressed: the first value raw, then its XOR with the previous one —
/// `0` when equal; `10` and the significant bits when they fit the open
/// window; `11`, a fresh window (5-bit leading-zero count, 6-bit length
/// minus one) and the bits otherwise. Ints are zigzag deltas from the
/// previous (the first from 0), bools one bit each, strings
/// length-prefixed.
#[derive(Default)]
pub(crate) struct ValueEncoder {
    out: BitWriter,
    end: ValueEnd,
}

impl ValueEncoder {
    /// Continue the column whose first `end.bits` bits `from` holds and
    /// which ended there at `end`, in this encoder's buffer.
    pub(crate) fn restart(&mut self, from: &[u8], end: ValueEnd) {
        self.out.restart(from, end.bits);
        self.end = end;
    }

    /// Append one value of the column's type.
    pub(crate) fn push(&mut self, value: &ColumnValue) {
        let (out, end) = (&mut self.out, &mut self.end);
        match value {
            ColumnValue::F64(x) => push_gorilla(out, end, x.to_bits()),
            ColumnValue::I64(x) => {
                put_ivarint(&mut out.bytes, x.wrapping_sub(end.last as i64));
                end.last = *x as u64;
            }
            ColumnValue::Bool(b) => out.push_bit(*b),
            ColumnValue::Str(s) => put_bytes(&mut out.bytes, s.as_bytes()),
        }
        end.count += 1;
    }

    /// The encoded column, ended: the next push needs a restart.
    pub(crate) fn finish(&mut self) -> &[u8] {
        self.out.pad();
        &self.out.bytes
    }

    /// The encoded column.
    fn into_bytes(self) -> Vec<u8> {
        self.out.into_bytes()
    }
}

/// Append float `bits` to a Gorilla column that ended at `end`.
fn push_gorilla(out: &mut BitWriter, end: &mut ValueEnd, bits: u64) {
    let xor = end.last ^ bits;
    end.last = bits;
    if end.count == 0 {
        return out.push_bits(bits, 64);
    }
    if xor == 0 {
        return out.push_bit(false);
    }
    let lead = (xor.leading_zeros() as u8).min(31);
    let trail = xor.trailing_zeros() as u8;
    match end.window {
        Some((open_lead, sig)) if lead >= open_lead && trail >= 64 - open_lead - sig => {
            out.push_bits(0b10, 2);
            out.push_bits(xor >> (64 - open_lead - sig), sig);
        }
        _ => {
            let sig = 64 - lead - trail;
            let window = (0b11 << 11) | (u64::from(lead) << 6) | u64::from(sig - 1);
            out.push_bits(window, 13);
            out.push_bits(xor >> trail, sig);
            end.window = Some((lead, sig));
        }
    }
}

/// Gorilla-compress a float column: a `ValueEncoder` over every value.
pub fn encode_f64(values: &[f64]) -> Vec<u8> {
    let mut floats = ValueEncoder::default();
    values
        .iter()
        .for_each(|&v| floats.push(&ColumnValue::F64(v)));
    floats.into_bytes()
}

/// Encode a homogeneous value column (`values` must all match `tag`).
pub fn encode_values(tag: u8, values: &[ColumnValue]) -> Vec<u8> {
    debug_assert!(values.iter().all(|v| v.type_tag() == tag), "mixed column");
    let mut column = ValueEncoder::default();
    values.iter().for_each(|v| column.push(v));
    column.into_bytes()
}

/// The one decoder of a value column of any type: a cursor that validates
/// as it goes and can say where the column ended.
pub(crate) struct ValueCursor<'a> {
    tag: u8,
    bits: BitReader<'a>,
    /// Byte position (int and string columns).
    pos: usize,
    end: ValueEnd,
    /// The last string read.
    text: &'a str,
}

impl<'a> ValueCursor<'a> {
    /// Cursor over a column of `count` values of type `tag`; a bad tag, or
    /// a count `data` cannot hold, is refused.
    pub(crate) fn new(tag: u8, data: &'a [u8], count: usize) -> StoreResult<ValueCursor<'a>> {
        let per_byte = match ColumnValue::check_tag(tag)? {
            0 | 2 => 8,
            _ => 1,
        };
        check_count(count, data, per_byte)?;
        Ok(ValueCursor {
            tag,
            bits: BitReader::new(data),
            pos: 0,
            end: ValueEnd::default(),
            text: "",
        })
    }

    /// Decode the next value.
    pub(crate) fn step(&mut self) -> StoreResult<()> {
        let (bits, end) = (&mut self.bits, &mut self.end);
        end.last = match self.tag {
            0 => step_gorilla(bits, end)?,
            1 => (end.last as i64).wrapping_add(get_ivarint(bits.bytes, &mut self.pos)?) as u64,
            2 => bits.read_bits(1)?,
            _ => {
                self.text = get_str(bits.bytes, &mut self.pos)?;
                0
            }
        };
        end.count += 1;
        Ok(())
    }

    /// The value `step` decoded last.
    pub(crate) fn value(&self) -> ColumnValue {
        let last = self.end.last;
        match self.tag {
            0 => ColumnValue::F64(f64::from_bits(last)),
            1 => ColumnValue::I64(last as i64),
            2 => ColumnValue::Bool(last == 1),
            _ => ColumnValue::Str(self.text.to_string()),
        }
    }

    /// [`ColumnValue::raw_footprint`] of that value, without building it.
    pub(crate) fn raw_footprint(&self) -> usize {
        CELL_FOOTPRINT + self.text.len()
    }

    /// Where the column ends after the values stepped so far.
    pub(crate) fn end(&self) -> ValueEnd {
        let bits = match self.tag {
            0 | 2 => self.bits.pos,
            _ => self.pos * 8,
        };
        ValueEnd { bits, ..self.end }
    }
}

/// Decode the next float of a Gorilla column that ended at `end`.
fn step_gorilla(bits: &mut BitReader<'_>, end: &mut ValueEnd) -> StoreResult<u64> {
    if end.count == 0 {
        return bits.read_bits(64);
    }
    if !bits.read_bit()? {
        return Ok(end.last);
    }
    if bits.read_bit()? {
        let lead = bits.read_bits(5)? as u8;
        let sig = bits.read_bits(6)? as u8 + 1;
        if lead + sig > 64 {
            return Err(StoreError::Decode("gorilla window exceeds 64 bits".into()));
        }
        end.window = Some((lead, sig));
    }
    let (lead, sig) = end
        .window
        .ok_or_else(|| StoreError::Decode("gorilla window reused before one opened".into()))?;
    Ok(end.last ^ (bits.read_bits(sig)? << (64 - lead - sig)))
}

/// Decode `count` floats produced by [`encode_f64`].
pub fn decode_f64(data: &[u8], count: usize) -> StoreResult<Vec<f64>> {
    let mut floats = ValueCursor::new(0, data, count)?;
    (0..count)
        .map(|_| {
            floats.step()?;
            Ok(f64::from_bits(floats.end.last))
        })
        .collect()
}

/// Decode `count` values of type `tag` produced by [`encode_values`].
pub fn decode_values(tag: u8, data: &[u8], count: usize) -> StoreResult<Vec<ColumnValue>> {
    let mut values = ValueCursor::new(tag, data, count)?;
    (0..count)
        .map(|_| {
            values.step()?;
            Ok(values.value())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decode `count` timestamps produced by [`encode_timestamps`].
    fn decode_timestamps(data: &[u8], count: usize) -> StoreResult<Vec<i64>> {
        let mut stamps = TsCursor::new(data, count)?;
        (0..count).map(|_| stamps.step()).collect()
    }

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
        let mut w = BitWriter::default();
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
    fn gorilla_window_reused_before_one_opened_is_an_error() {
        // `1.0` raw, then control bits `10`: reuse a window none opened.
        let mut data = 1.0f64.to_bits().to_be_bytes().to_vec();
        data.push(0x80);
        assert!(matches!(decode_f64(&data, 2), Err(StoreError::Decode(_))));
        assert!(matches!(
            decode_values(0, &data, 2),
            Err(StoreError::Decode(_))
        ));
        // The same stream opening a window first (`11`, lead 0, sig 1)
        // and then reusing it decodes.
        let mut w = BitWriter::default();
        w.push_bits(1.0f64.to_bits(), 64);
        w.push_bits(0b11, 2);
        w.push_bits(0, 5);
        w.push_bits(0, 6);
        w.push_bits(1, 1);
        w.push_bits(0b10, 2);
        w.push_bits(1, 1);
        let back = decode_f64(&w.into_bytes(), 3).unwrap();
        assert_eq!(back[1].to_bits(), 1.0f64.to_bits() ^ (1 << 63));
        assert_eq!(back[2], 1.0);
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
    fn encoders_resume_where_their_cursors_end() {
        let ts: Vec<i64> = vec![-7, 0, 500, 1000, 1001, 1_000_000, i64::MAX];
        let floats: Vec<ColumnValue> = [20.0, 20.0, 20.25, -0.0, f64::MAX, 1.5, 1.5]
            .iter()
            .map(|&v| ColumnValue::F64(v))
            .collect();
        let ints: Vec<ColumnValue> = (0..7).map(|i| ColumnValue::I64(i * i - 9)).collect();
        let bools: Vec<ColumnValue> = (0..7).map(|i| ColumnValue::Bool(i % 3 == 0)).collect();
        let strs: Vec<ColumnValue> = (0..7).map(|i| ColumnValue::Str("ab".repeat(i))).collect();
        // From a column of the first `cut` cells, and from the middle of
        // the whole column, where the bits after the cut are live.
        let (mut stamps, mut values) = (TsEncoder::default(), ValueEncoder::default());
        for (cut, whole) in (0..=ts.len()).flat_map(|cut| [(cut, false), (cut, true)]) {
            let n = if whole { ts.len() } else { cut };
            let from = encode_timestamps(&ts[..n]);
            let mut cursor = TsCursor::new(&from, n).unwrap();
            for _ in 0..cut {
                cursor.step().unwrap();
            }
            stamps.restart(&from, cursor.end());
            ts[cut..].iter().for_each(|&t| stamps.push(t));
            assert_eq!(stamps.bytes(), encode_timestamps(&ts), "stamps {cut}");
            for (tag, column) in [(0, &floats), (1, &ints), (2, &bools), (3, &strs)] {
                let from = encode_values(tag, &column[..n]);
                let mut cursor = ValueCursor::new(tag, &from, n).unwrap();
                (0..cut).for_each(|_| cursor.step().unwrap());
                values.restart(&from, cursor.end());
                column[cut..].iter().for_each(|v| values.push(v));
                let want = encode_values(tag, column);
                assert_eq!(values.finish(), want, "type {tag} at {cut} of {n}");
            }
        }
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
