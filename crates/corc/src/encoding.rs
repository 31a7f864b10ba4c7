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
use std::ops::RangeInclusive;

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

/// Longest literal run the encoder writes (ORC RLEv2's cap): one outlier
/// widens at most this many values.
const MAX_LITERAL_RUN: usize = 512;

/// Run-length encode a signed integer sequence.
///
/// Stream grammar: repeated `(control, payload)` where `control` is a
/// varint `n`. If its low bit is 0 the run is `n >> 1` repeats of one
/// zigzag varint. If it is 1 the run is `n >> 1` literals, bit-packed
/// against a frame of reference (ORC RLEv2's `DIRECT` run): the base (the
/// run's minimum, a zigzag varint), a width byte `w` in `0..=64`, then
/// `ceil(n·w / 8)` bytes holding each `value − base` as a `w`-bit field,
/// packed LSB-first. A width of 0 is a run of the base alone.
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
            for lit in values[start..i].chunks(MAX_LITERAL_RUN) {
                put_packed_run(lit, w);
            }
        }
    }
}

/// Bytes of `n` packed `width`-bit fields; `None` past `usize`.
fn packed_len(n: usize, width: u32) -> Option<usize> {
    Some(n.checked_mul(width as usize)?.div_ceil(8))
}

/// One literal run: control, base, width, then the packed offsets.
fn put_packed_run(lit: &[i64], w: &mut ByteWriter) {
    let base = lit.iter().copied().min().unwrap_or(0);
    let offset = |v: i64| (v as u64).wrapping_sub(base as u64);
    let span = lit.iter().map(|&v| offset(v)).max().unwrap_or(0);
    let width = u64::BITS - span.leading_zeros();
    w.put_varint(((lit.len() as u64) << 1) | 1);
    w.put_varint_signed(base);
    w.put_u8(width as u8);
    if width == 0 {
        return;
    }
    // Fields enter `acc` above the `bits` still pending and leave it a
    // whole little-endian word at a time.
    let (mut acc, mut bits) = (0u128, 0u32);
    for &v in lit {
        acc |= u128::from(offset(v)) << bits;
        bits += width;
        if bits >= 64 {
            w.put_u64(acc as u64);
            acc >>= 64;
            bits -= 64;
        }
    }
    w.put_slice(&acc.to_le_bytes()[..bits.div_ceil(8) as usize]);
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

/// A column's integer type, as a run decodes into it: `narrow` takes a
/// value already checked to lie in the column's domain (see
/// [`rle_decode_into`]) to the column's width.
pub trait RunTarget: Copy {
    fn narrow(v: i64) -> Self;
}

macro_rules! run_target {
    ($($t:ty: $v:ident => $narrow:expr),*) => {$(
        impl RunTarget for $t {
            #[inline]
            fn narrow($v: i64) -> $t {
                $narrow
            }
        }
    )*};
}
run_target!(i64: v => v, i32: v => v as i32, u32: v => v as u32, bool: v => v != 0);

/// Every `i64`: the domain of a column as wide as the stream.
pub const ANY_I64: RangeInclusive<i64> = i64::MIN..=i64::MAX;

#[cold]
fn out_of_domain(v: i64, domain: &RangeInclusive<i64>) -> HiveError {
    HiveError::Format(format!(
        "decoded value {v} outside the column's range {}..={}",
        domain.start(),
        domain.end()
    ))
}

/// Decode a [`rle_encode_i64`] stream of exactly `count` values onto the
/// end of `out`. Every value must lie in `domain` (a column narrower
/// than `i64`, a dictionary's codes), or the chunk is a typed error: a
/// repeat run checks its one value, a packed run checks once when its
/// frame of reference (`base ..= base + mask`) lies inside `domain`, and
/// value by value otherwise. A packed run costs one length check for its
/// whole body, and its values are written once, never pre-filled.
pub fn rle_decode_into<T: RunTarget>(
    r: &mut SliceReader<'_>,
    count: usize,
    domain: RangeInclusive<i64>,
    out: &mut Vec<T>,
) -> Result<()> {
    let end = out.len().saturating_add(count);
    out.reserve(count);
    while out.len() < end {
        let control = r.get_varint()?;
        let n = usize::try_from(control >> 1).unwrap_or(usize::MAX);
        if n == 0 || n > end - out.len() {
            return Err(HiveError::Format("corrupt RLE stream".into()));
        }
        if control & 1 == 0 {
            let v = r.get_varint_signed()?;
            if !domain.contains(&v) {
                return Err(out_of_domain(v, &domain));
            }
            out.resize(out.len() + n, T::narrow(v));
            continue;
        }
        let base = r.get_varint_signed()?;
        let width = u32::from(r.get_u8()?);
        if width > 64 {
            return Err(HiveError::Format(format!(
                "packed run width {width} above 64"
            )));
        }
        let len = packed_len(n, width).ok_or_else(|| short_buffer(usize::MAX, r.remaining()))?;
        unpack(r.take(len)?, n, width, base, &domain, out)?;
    }
    Ok(())
}

/// [`rle_decode_into`] a new vector, at full width.
pub fn rle_decode_i64(r: &mut SliceReader<'_>, count: usize) -> Result<Vec<i64>> {
    let mut out = Vec::new();
    rle_decode_into(r, count, ANY_I64, &mut out)?;
    Ok(out)
}

/// Fields unpacked per pass: a stack block the conversion then reads.
const BLOCK: usize = 256;

/// Append the `n` `width`-bit fields of `body` (exactly long enough for
/// them), each added to `base`, checked against `domain` and narrowed.
/// Whole groups of eight take the kernel for their width; the last
/// `n mod 8` fields, and every field wider than 56 bits, are read one at
/// a time.
fn unpack<T: RunTarget>(
    body: &[u8],
    n: usize,
    width: u32,
    base: i64,
    domain: &RangeInclusive<i64>,
    out: &mut Vec<T>,
) -> Result<()> {
    // `base + lo ..= base + hi` lies in `domain` (and so wraps nowhere).
    let spans_inside = |lo: u64, hi: u64| {
        i128::from(*domain.start()) <= i128::from(base) + i128::from(lo)
            && i128::from(base) + i128::from(hi) <= i128::from(*domain.end())
    };
    let mask = u64::MAX.checked_shr(64 - width).unwrap_or(0);
    let frame_fits = *domain == ANY_I64 || spans_inside(0, mask);
    if width == 0 {
        if !frame_fits {
            return Err(out_of_domain(base, domain));
        }
        out.resize(out.len() + n, T::narrow(base));
        return Ok(());
    }
    let value = |f: u64| base.wrapping_add(f as i64);
    let w = width as usize;
    let whole = if w <= 56 { n / 8 * 8 } else { 0 };
    if whole > 0 {
        let mut block = [0u64; BLOCK];
        let mut first = 0;
        while first < whole {
            let fields = &mut block[..(whole - first).min(BLOCK)];
            unpack_groups(width, &body[first / 8 * w..], fields);
            if !frame_fits {
                // The block's least and greatest fields decide it; past
                // them, find the value the way the wrapping sum lands.
                let (lo, hi) =
                    (fields.iter()).fold((u64::MAX, 0), |(lo, hi), &f| (lo.min(f), hi.max(f)));
                if !spans_inside(lo, hi) {
                    let mut values = fields.iter().map(|&f| value(f));
                    if let Some(v) = values.find(|v| !domain.contains(v)) {
                        return Err(out_of_domain(v, domain));
                    }
                }
            }
            out.extend(fields.iter().map(|&f| T::narrow(value(f))));
            first += fields.len();
        }
    }
    // The little-endian word at byte `at`, zero past the body's end.
    let word = |at: usize| {
        let mut le = [0u8; 8];
        let tail = body.get(at..).unwrap_or_default();
        let k = tail.len().min(8);
        le[..k].copy_from_slice(&tail[..k]);
        u64::from_le_bytes(le)
    };
    for i in whole..n {
        let bit = i * w;
        let (at, shift) = (bit / 8, (bit % 8) as u32);
        let mut field = word(at) >> shift;
        if shift + width > 64 {
            // A field over 56 bits can reach into a ninth byte.
            field |= word(at + 8) << (64 - shift);
        }
        let v = value(field & mask);
        if !frame_fits && !domain.contains(&v) {
            return Err(out_of_domain(v, domain));
        }
        out.push(T::narrow(v));
    }
    Ok(())
}

/// Unpack `out.len() / 8` groups of eight `W`-bit fields from the front
/// of `body`. Eight fields are exactly `W` bytes, so a group is one
/// length check, and with `W` a constant every shift and mask is one.
fn groups<const W: usize>(body: &[u8], out: &mut [u64]) {
    let mask = u64::MAX >> (64 - W);
    let (bytes, _) = body.as_chunks::<W>();
    let (fields, _) = out.as_chunks_mut::<8>();
    for (group, fields) in bytes.iter().zip(fields) {
        for (j, field) in fields.iter_mut().enumerate() {
            // Field `j` starts `j·W` bits in and, at most 56 bits wide,
            // lies in the eight bytes from its first one (or in what is
            // left of the group).
            let (at, shift) = (j * W / 8, j * W % 8);
            let end = (at + 8).min(W);
            let mut le = [0u8; 8];
            le[..end - at].copy_from_slice(&group[at..end]);
            *field = (u64::from_le_bytes(le) >> shift) & mask;
        }
    }
}

/// [`groups`] for a width in `1..=56`, chosen once per block: one
/// instance per width, whatever the column type.
fn unpack_groups(width: u32, body: &[u8], out: &mut [u64]) {
    macro_rules! by_width {
        ($($w:literal)*) => {
            match width {
                $($w => groups::<$w>(body, out),)*
                _ => {}
            }
        };
    }
    by_width!(
        1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20 21 22 23 24 25 26 27 28
        29 30 31 32 33 34 35 36 37 38 39 40 41 42 43 44 45 46 47 48 49 50 51 52 53 54 55 56
    );
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

    /// `n` values whose offsets from `base` span exactly `width` bits
    /// (the first is the base, the last the base plus the widest offset),
    /// `base` pulled down so that no value wraps.
    fn run_of_width(width: u32, base: i64, raw: &[u64]) -> (i64, Vec<i64>) {
        let mask = u64::MAX.checked_shr(64 - width).unwrap_or(0);
        let hi = i64::MAX as i128 - mask as i128;
        let base = (base as i128).clamp(i64::MIN as i128, hi) as i64;
        let mut vals: Vec<i64> = (raw.iter())
            .map(|&r| base.wrapping_add((r & mask) as i64))
            .collect();
        let n = vals.len();
        vals[0] = base;
        if n > 1 {
            vals[n - 1] = base.wrapping_add(mask as i64);
        }
        (base, vals)
    }

    /// Run lengths that end inside a group of eight and on one: short
    /// runs, runs up to the encoder's cap, and the last groups below it.
    fn run_len() -> impl proptest::prelude::Strategy<Value = usize> {
        proptest::prop_oneof![1usize..=17, 505usize..=512, 1usize..=512]
    }

    /// `len` seeded raw offsets.
    fn raw_offsets(seed: u64, len: usize) -> Vec<u64> {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..len).map(|_| rng.next_u64()).collect()
    }

    proptest::proptest! {
        /// Packed runs of every width round-trip through the decoder, at
        /// lengths that end inside and on a group of eight, over the
        /// whole `i64` range (width 64 spans `MIN..=MAX`); the run
        /// carries its frame of reference and the width it needs, and
        /// its body is exactly `ceil(n·width / 8)` bytes and ends the
        /// buffer, so the last whole group ends within a group's width
        /// of the slice's end and the fields after it are the tail's.
        /// The same values through `rle_encode_i64` (which may cut
        /// repeats out of them) decode to themselves too.
        #[test]
        fn packed_runs_round_trip_at_every_width(
            width in 0u32..=64,
            len in run_len(),
            base in proptest::prelude::any::<i64>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let (base, vals) = run_of_width(width, base, &raw_offsets(seed, len));
            let want_width = if vals.len() > 1 { width } else { 0 };
            let mut w = ByteWriter::new();
            put_packed_run(&vals, &mut w);
            let bytes = w.finish();
            let mut r = SliceReader::new(&bytes);
            proptest::prop_assert_eq!(r.get_varint().unwrap(), ((vals.len() as u64) << 1) | 1);
            proptest::prop_assert_eq!(r.get_varint_signed().unwrap(), base);
            proptest::prop_assert_eq!(u32::from(r.get_u8().unwrap()), want_width);
            proptest::prop_assert_eq!(r.remaining(), (vals.len() * want_width as usize).div_ceil(8));
            let got = rle_decode_i64(&mut SliceReader::new(&bytes), vals.len()).unwrap();
            proptest::prop_assert_eq!(got, vals.clone());

            let mut w = ByteWriter::new();
            rle_encode_i64(&vals, &mut w);
            let bytes = w.finish();
            let mut r = SliceReader::new(&bytes);
            proptest::prop_assert_eq!(rle_decode_i64(&mut r, vals.len()).unwrap(), vals);
            proptest::prop_assert_eq!(r.remaining(), 0);
        }
    }

    /// Every width from 1 to 64 at every length from 1 to 17 and from
    /// 505 to 512, each run the last bytes of its buffer, against a
    /// decode that reads the body one bit at a time.
    #[test]
    fn packed_runs_equal_a_bit_by_bit_decode_at_every_width_and_tail() {
        for width in 1..=64u32 {
            for n in (1..=17).chain(505..=512) {
                let (base, vals) = run_of_width(
                    width,
                    -7,
                    &raw_offsets(u64::from(width) * 1000 + n as u64, n),
                );
                let mut w = ByteWriter::new();
                put_packed_run(&vals, &mut w);
                let bytes = w.finish();
                let mut r = SliceReader::new(&bytes);
                r.get_varint().unwrap();
                r.get_varint_signed().unwrap();
                // One value packs at width 0.
                let w = r.get_u8().unwrap() as usize;
                assert_eq!(w, if n > 1 { width as usize } else { 0 });
                let body = r.take(r.remaining()).unwrap();
                assert_eq!(body.len(), (n * w).div_ceil(8));
                let by_bits: Vec<i64> = (0..n)
                    .map(|i| {
                        let field = (0..w).fold(0u64, |f, b| {
                            let bit = i * w + b;
                            f | u64::from((body[bit / 8] >> (bit % 8)) & 1) << b
                        });
                        base.wrapping_add(field as i64)
                    })
                    .collect();
                assert_eq!(by_bits, vals, "width {width}, {n} values");
                let got = rle_decode_i64(&mut SliceReader::new(&bytes), n).unwrap();
                assert_eq!(got, vals, "width {width}, {n} values");
            }
        }
    }

    #[test]
    fn literal_runs_are_cut_at_the_cap_and_pack_small_offsets() {
        // Distinct values, no repeats: literal runs of at most the cap,
        // each 10 bits a value for offsets below 1024.
        let vals: Vec<i64> = (0..2000).map(|i| 1_000_000 + (i * 7919) % 1000).collect();
        let mut w = ByteWriter::new();
        rle_encode_i64(&vals, &mut w);
        let bytes = w.finish();
        assert!(bytes.len() < 2000 * 10 / 8 + 4 * 8, "{} bytes", bytes.len());
        let mut r = SliceReader::new(&bytes);
        let mut runs = 0;
        let mut left = vals.len();
        while r.remaining() > 0 {
            let n = (r.get_varint().unwrap() >> 1) as usize;
            assert!(n <= MAX_LITERAL_RUN);
            r.get_varint_signed().unwrap();
            let width = r.get_u8().unwrap() as usize;
            assert_eq!(width, 10);
            r.take((n * width).div_ceil(8)).unwrap();
            left -= n;
            runs += 1;
        }
        assert_eq!((left, runs), (0, 2000usize.div_ceil(MAX_LITERAL_RUN)));
        assert_eq!(
            rle_decode_i64(&mut SliceReader::new(&bytes), vals.len()).unwrap(),
            vals
        );
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
