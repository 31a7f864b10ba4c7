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

/// Decode a [`rle_encode_i64`] stream of exactly `count` values straight
/// into the target width: `conv` maps each decoded integer (once per
/// repeat run, once per literal) and may reject it. A packed run costs
/// one length check for its whole body.
pub fn rle_decode<T: Copy>(
    r: &mut SliceReader<'_>,
    count: usize,
    conv: impl Fn(i64) -> Result<T>,
) -> Result<Vec<T>> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let control = r.get_varint()?;
        let n = usize::try_from(control >> 1).unwrap_or(usize::MAX);
        if n == 0 || n > count - out.len() {
            return Err(HiveError::Format("corrupt RLE stream".into()));
        }
        if control & 1 == 0 {
            let v = conv(r.get_varint_signed()?)?;
            out.resize(out.len() + n, v);
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
        unpack(r.take(len)?, n, width, base, &mut out, &conv)?;
    }
    Ok(out)
}

/// Append the `n` `width`-bit fields of `body` (exactly long enough for
/// them), each added to `base` and mapped by `conv`.
fn unpack<T: Copy>(
    body: &[u8],
    n: usize,
    width: u32,
    base: i64,
    out: &mut Vec<T>,
    conv: &impl Fn(i64) -> Result<T>,
) -> Result<()> {
    // The base is the run's least value, so it converts for any run a
    // writer produced; it also fills the slots until they are written.
    let start = out.len();
    out.resize(start + n, conv(base)?);
    if width == 0 {
        return Ok(());
    }
    let slots = &mut out[start..];
    let mask = u64::MAX >> (64 - width);
    let width = width as usize;
    // The little-endian word at byte `at`, zero past the body's end.
    let word = |at: usize| {
        let mut le = [0u8; 8];
        let tail = body.get(at..).unwrap_or_default();
        let k = tail.len().min(8);
        le[..k].copy_from_slice(&tail[..k]);
        u64::from_le_bytes(le)
    };
    // Up to 56 bits, a field lies in the eight bytes from its first one,
    // and every field whose eight bytes are in the body reads as one
    // load.
    let whole = match (width <= 56, body.len().checked_sub(8)) {
        (true, Some(last)) => n.min(last * 8 / width + 1),
        _ => 0,
    };
    for (i, slot) in slots[..whole].iter_mut().enumerate() {
        let bit = i * width;
        let at = bit / 8;
        let w = <[u8; 8]>::try_from(&body[at..at + 8]).map_or(0, u64::from_le_bytes);
        *slot = conv(base.wrapping_add(((w >> (bit % 8)) & mask) as i64))?;
    }
    for (i, slot) in slots.iter_mut().enumerate().skip(whole) {
        let bit = i * width;
        let (at, shift) = (bit / 8, (bit % 8) as u32);
        let mut field = word(at) >> shift;
        if shift as usize + width > 64 {
            // A field over 56 bits can reach into a ninth byte.
            field |= word(at + 8) << (64 - shift);
        }
        *slot = conv(base.wrapping_add((field & mask) as i64))?;
    }
    Ok(())
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

    proptest::proptest! {
        /// Packed runs of every width class round-trip through the
        /// decoder, at lengths that end inside and on byte boundaries,
        /// over the whole `i64` range (width 64 spans `MIN..=MAX`); the
        /// run carries its frame of reference and the width it needs,
        /// and its body is exactly `ceil(n·width / 8)` bytes. The same
        /// values through `rle_encode_i64` (which may cut repeats out of
        /// them) decode to themselves too.
        #[test]
        fn packed_runs_round_trip_at_every_width(
            width in proptest::prelude::Strategy::prop_map(0usize..8, |i| [0u32, 1, 7, 13, 31, 33, 63, 64][i]),
            base in proptest::prelude::any::<i64>(),
            raw in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..80),
        ) {
            let (base, vals) = run_of_width(width, base, &raw);
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
