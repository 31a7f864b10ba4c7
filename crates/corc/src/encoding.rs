//! Primitive binary encodings: little-endian scalars, LEB128 varints,
//! zigzag integers, run-length encoding, and value (de)serialization.
//!
//! Two readers share the grammar. [`ByteReader`] owns a `Bytes` buffer
//! and serves the footer, statistics and Bloom-filter parsers, which
//! run once per file. [`SliceReader`] borrows the chunk as `&[u8]` with
//! a cursor and is the per-value decode path: one bounds check per
//! varint byte, fixed-width runs taken as one checked sub-slice.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use bytes::{Buf, BufMut, Bytes, BytesMut};
use hive_common::{HiveError, Result, Value};

/// Append-only binary writer.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: BytesMut,
}

impl ByteWriter {
    /// A new empty writer.
    pub fn new() -> Self {
        ByteWriter {
            buf: BytesMut::new(),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish and return the accumulated buffer.
    pub fn finish(self) -> Bytes {
        self.buf.freeze()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    pub fn put_i128(&mut self, v: i128) {
        self.buf.put_i128_le(v);
    }

    pub fn put_slice(&mut self, s: &[u8]) {
        self.buf.put_slice(s);
    }

    /// LEB128 unsigned varint.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.put_u8(byte);
                break;
            }
            self.buf.put_u8(byte | 0x80);
        }
    }

    /// Zigzag-encoded signed varint.
    pub fn put_varint_signed(&mut self, v: i64) {
        self.put_varint(zigzag_encode(v));
    }

    /// Length-prefixed byte string.
    pub fn put_bytes(&mut self, s: &[u8]) {
        self.put_varint(s.len() as u64);
        self.put_slice(s);
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Sequential binary reader over a `Bytes` buffer.
#[derive(Debug)]
pub struct ByteReader {
    buf: Bytes,
}

impl ByteReader {
    /// Wrap a buffer for reading.
    pub fn new(buf: Bytes) -> Self {
        ByteReader { buf }
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    fn need(&self, n: usize) -> Result<()> {
        if self.buf.remaining() < n {
            Err(HiveError::Format(format!(
                "unexpected end of buffer: need {n}, have {}",
                self.buf.remaining()
            )))
        } else {
            Ok(())
        }
    }

    pub fn get_u8(&mut self) -> Result<u8> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    /// A varint count of items at least `min_bytes` long each. A count
    /// the bytes left cannot hold is corrupt, and fails before it sizes
    /// an allocation.
    pub fn get_count(&mut self, min_bytes: usize) -> Result<usize> {
        let n = usize::try_from(self.get_varint()?).unwrap_or(usize::MAX);
        self.need(n.saturating_mul(min_bytes))?;
        Ok(n)
    }

    pub fn get_u32(&mut self) -> Result<u32> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    pub fn get_u64(&mut self) -> Result<u64> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    pub fn get_f64(&mut self) -> Result<f64> {
        self.need(8)?;
        Ok(self.buf.get_f64_le())
    }

    pub fn get_i128(&mut self) -> Result<i128> {
        self.need(16)?;
        Ok(self.buf.get_i128_le())
    }

    /// LEB128 unsigned varint.
    pub fn get_varint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err(HiveError::Format("varint too long".into()));
            }
        }
    }

    /// Zigzag-encoded signed varint.
    pub fn get_varint_signed(&mut self) -> Result<i64> {
        Ok(zigzag_decode(self.get_varint()?))
    }

    /// Length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Bytes> {
        let len = self.get_varint()? as usize;
        self.need(len)?;
        Ok(self.buf.split_to(len))
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let b = self.get_bytes()?;
        String::from_utf8(b.to_vec())
            .map_err(|_| HiveError::Format("invalid UTF-8 in string".into()))
    }
}

/// Map signed to unsigned preserving small magnitudes.
pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Run-length encode a signed integer sequence.
///
/// Stream grammar: repeated `(control, payload)` where `control` is a
/// varint `n`; if the low bit is 0 the run is `n >> 1` repeats of one
/// zigzag varint; if 1 it is `n >> 1` literal zigzag varints.
pub fn rle_encode_i64(values: &[i64], w: &mut ByteWriter) {
    let mut i = 0;
    while i < values.len() {
        // Measure the run starting at i.
        let mut run = 1;
        while i + run < values.len() && values[i + run] == values[i] {
            run += 1;
        }
        if run >= 3 {
            w.put_varint((run as u64) << 1);
            w.put_varint_signed(values[i]);
            i += run;
        } else {
            // Collect a literal run until the next >=3 repeat.
            let start = i;
            i += run;
            while i < values.len() {
                let mut r = 1;
                while i + r < values.len() && values[i + r] == values[i] {
                    r += 1;
                }
                if r >= 3 {
                    break;
                }
                i += r;
            }
            let lit = &values[start..i];
            w.put_varint(((lit.len() as u64) << 1) | 1);
            for &v in lit {
                w.put_varint_signed(v);
            }
        }
    }
}

/// Borrowing cursor over one encoded chunk. Every read is checked
/// against the slice: a short or corrupt buffer is a
/// [`HiveError::Format`], never a panic or an over-read.
#[derive(Debug)]
pub struct SliceReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

#[cold]
fn short_buffer(need: usize, have: usize) -> HiveError {
    HiveError::Format(format!(
        "unexpected end of buffer: need {need}, have {have}"
    ))
}

impl<'a> SliceReader<'a> {
    /// Wrap a chunk for reading.
    pub fn new(buf: &'a [u8]) -> Self {
        SliceReader { buf, pos: 0 }
    }

    /// Remaining unread bytes.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    #[inline]
    pub fn get_u8(&mut self) -> Result<u8> {
        match self.buf.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(short_buffer(1, 0)),
        }
    }

    /// The next `n` bytes as one sub-slice (one length check).
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return Err(short_buffer(n, self.remaining()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// LEB128 unsigned varint.
    #[inline]
    pub fn get_varint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.get_u8()?;
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift >= 64 {
                return Err(HiveError::Format("varint too long".into()));
            }
        }
    }

    /// Zigzag-encoded signed varint.
    #[inline]
    pub fn get_varint_signed(&mut self) -> Result<i64> {
        Ok(zigzag_decode(self.get_varint()?))
    }

    /// Length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let len = self.get_varint()?;
        let len = usize::try_from(len).map_err(|_| short_buffer(usize::MAX, self.remaining()))?;
        std::str::from_utf8(self.take(len)?)
            .map(str::to_owned)
            .map_err(|_| HiveError::Format("invalid UTF-8 in string".into()))
    }
}

/// Decode a [`rle_encode_i64`] stream of exactly `count` values straight
/// into the target width: `conv` maps each decoded integer (once per
/// run, once per literal) and may reject it.
pub fn rle_decode<T: Copy>(
    r: &mut SliceReader<'_>,
    count: usize,
    conv: impl Fn(i64) -> Result<T>,
) -> Result<Vec<T>> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let control = r.get_varint()?;
        let n = (control >> 1) as usize;
        if n == 0 || n > count - out.len() {
            return Err(HiveError::Format("corrupt RLE stream".into()));
        }
        if control & 1 == 0 {
            let v = conv(r.get_varint_signed()?)?;
            out.resize(out.len() + n, v);
        } else {
            for _ in 0..n {
                out.push(conv(r.get_varint_signed()?)?);
            }
        }
    }
    Ok(out)
}

/// [`rle_decode`] at full width.
pub fn rle_decode_i64(r: &mut SliceReader<'_>, count: usize) -> Result<Vec<i64>> {
    rle_decode(r, count, Ok)
}

/// Value tags for stats serialization.
const TAG_NULL: u8 = 0;
const TAG_BOOL: u8 = 1;
const TAG_INT: u8 = 2;
const TAG_BIGINT: u8 = 3;
const TAG_DOUBLE: u8 = 4;
const TAG_DECIMAL: u8 = 5;
const TAG_STRING: u8 = 6;
const TAG_DATE: u8 = 7;
const TAG_TIMESTAMP: u8 = 8;

/// Serialize one scalar [`Value`] with a type tag.
pub fn write_value(w: &mut ByteWriter, v: &Value) {
    match v {
        Value::Null => w.put_u8(TAG_NULL),
        Value::Boolean(b) => {
            w.put_u8(TAG_BOOL);
            w.put_u8(*b as u8);
        }
        Value::Int(x) => {
            w.put_u8(TAG_INT);
            w.put_varint_signed(*x as i64);
        }
        Value::BigInt(x) => {
            w.put_u8(TAG_BIGINT);
            w.put_varint_signed(*x);
        }
        Value::Double(x) => {
            w.put_u8(TAG_DOUBLE);
            w.put_f64(*x);
        }
        Value::Decimal(u, s) => {
            w.put_u8(TAG_DECIMAL);
            w.put_i128(*u);
            w.put_u8(*s);
        }
        Value::String(s) => {
            w.put_u8(TAG_STRING);
            w.put_str(s);
        }
        Value::Date(d) => {
            w.put_u8(TAG_DATE);
            w.put_varint_signed(*d as i64);
        }
        Value::Timestamp(t) => {
            w.put_u8(TAG_TIMESTAMP);
            w.put_varint_signed(*t);
        }
    }
}

/// Deserialize one scalar [`Value`].
pub fn read_value(r: &mut ByteReader) -> Result<Value> {
    Ok(match r.get_u8()? {
        TAG_NULL => Value::Null,
        TAG_BOOL => Value::Boolean(r.get_u8()? != 0),
        TAG_INT => Value::Int(r.get_varint_signed()? as i32),
        TAG_BIGINT => Value::BigInt(r.get_varint_signed()?),
        TAG_DOUBLE => Value::Double(r.get_f64()?),
        TAG_DECIMAL => {
            let u = r.get_i128()?;
            let s = r.get_u8()?;
            Value::Decimal(u, s)
        }
        TAG_STRING => Value::String(r.get_str()?),
        TAG_DATE => Value::Date(r.get_varint_signed()? as i32),
        TAG_TIMESTAMP => Value::Timestamp(r.get_varint_signed()?),
        t => return Err(HiveError::Format(format!("unknown value tag {t}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        let mut w = ByteWriter::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            w.put_varint(v);
        }
        let mut r = ByteReader::new(w.finish());
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            assert_eq!(r.get_varint().unwrap(), v);
        }
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn slice_reader_matches_byte_reader_and_rejects_overlong_varints() {
        let mut w = ByteWriter::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            w.put_varint(v);
        }
        w.put_str("héllo");
        let bytes = w.finish();
        let mut r = SliceReader::new(&bytes);
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            assert_eq!(r.get_varint().unwrap(), v);
        }
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.remaining(), 0);
        assert!(matches!(r.get_u8(), Err(HiveError::Format(_))));
        // Ten continuation bytes: more than 64 bits of payload.
        let overlong = [0x80u8; 11];
        assert!(matches!(
            SliceReader::new(&overlong).get_varint(),
            Err(HiveError::Format(_))
        ));
        // A length prefix past the end of the buffer.
        assert!(matches!(
            SliceReader::new(&[0x05, b'a']).get_str(),
            Err(HiveError::Format(_))
        ));
    }

    #[test]
    fn zigzag() {
        for v in [0i64, -1, 1, -2, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
    }

    #[test]
    fn rle_round_trip_runs_and_literals() {
        let cases: Vec<Vec<i64>> = vec![
            vec![],
            vec![5],
            vec![7; 1000],
            vec![1, 2, 3, 4, 5],
            vec![1, 1, 1, 2, 3, 3, 3, 3, 9, -4, -4, -4, 0],
            (0..500).map(|i| i % 7).collect(),
        ];
        for vals in cases {
            let mut w = ByteWriter::new();
            rle_encode_i64(&vals, &mut w);
            let bytes = w.finish();
            let mut r = SliceReader::new(&bytes);
            assert_eq!(rle_decode_i64(&mut r, vals.len()).unwrap(), vals);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn rle_compresses_runs() {
        let vals = vec![42i64; 10_000];
        let mut w = ByteWriter::new();
        rle_encode_i64(&vals, &mut w);
        assert!(w.len() < 10, "run of 10k identical values should be tiny");
    }

    #[test]
    fn rle_rejects_corrupt_count() {
        let mut w = ByteWriter::new();
        w.put_varint(1000 << 1); // run of 1000
        w.put_varint_signed(1);
        let bytes = w.finish();
        assert!(rle_decode_i64(&mut SliceReader::new(&bytes), 10).is_err());
    }

    #[test]
    fn value_round_trip() {
        let vals = vec![
            Value::Null,
            Value::Boolean(true),
            Value::Int(-5),
            Value::BigInt(1 << 40),
            Value::Double(3.5),
            Value::Decimal(12345, 2),
            Value::String("héllo".into()),
            Value::Date(17000),
            Value::Timestamp(1_500_000_000_000_000),
        ];
        let mut w = ByteWriter::new();
        for v in &vals {
            write_value(&mut w, v);
        }
        let mut r = ByteReader::new(w.finish());
        for v in &vals {
            assert_eq!(&read_value(&mut r).unwrap(), v);
        }
    }
}
