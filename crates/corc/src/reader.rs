//! The corc file reader: footer parsing, sarg-driven row-group
//! selection, and ranged per-chunk column reads.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::bloom::BloomFilter;
use crate::encoding::{rle_decode_into, ByteReader, RunTarget, SliceReader, ANY_I64};
use crate::sarg::{SearchArgument, TruthValue};
use crate::spares::{buffer, Spare, Spares};
use crate::stats::ColumnStatistics;
use crate::writer::{ChunkMeta, RowGroupMeta};
use crate::{DECIMAL_PACKED, DECIMAL_RAW, MAGIC, OLD_MAGICS};
use bytes::Bytes;
use hive_common::{
    BitSet, ColumnVector, DataType, DecVals, Field, FileId, HiveError, Result, Schema, VectorBatch,
};
use hive_dfs::{DfsPath, DistFs};
use std::ops::RangeInclusive;

/// Parsed footer of a corc file.
#[derive(Debug, Clone)]
pub struct Footer {
    schema: Schema,
    row_group_size: usize,
    total_rows: u64,
    row_groups: Vec<RowGroupMeta>,
}

/// An open corc file backed by the simulated DFS.
///
/// `open` reads only the footer; data is fetched with ranged reads per
/// `(row group, column)` chunk, so the I/O meter reflects projection and
/// row-group skipping exactly.
///
/// The handle is `Sync` + cheaply `Clone` (a DFS handle plus an
/// `Arc`-shared footer), so the morsel-parallel scanner can hand one
/// clone to each worker thread and read disjoint chunks concurrently.
#[derive(Debug, Clone)]
pub struct CorcFile {
    fs: DistFs,
    path: DfsPath,
    file_id: FileId,
    file_len: u64,
    footer: std::sync::Arc<Footer>,
    /// First decoded dictionary per column, shared across every chunk
    /// of this file handle whose dictionary has identical contents —
    /// so the LLAP cache sees one `Arc` (and charges its bytes once)
    /// for all row groups of a column.
    dict_memo: std::sync::Arc<
        std::sync::Mutex<std::collections::HashMap<usize, std::sync::Arc<Vec<String>>>>,
    >,
}

const _: () = {
    // Compile-time guard: parallel scan workers share clones of this
    // handle across threads.
    fn _assert<T: Send + Sync + Clone>() {}
    fn _corc_file() {
        _assert::<CorcFile>();
    }
};

impl CorcFile {
    /// Open a file: fetches and parses the footer only.
    pub fn open(fs: &DistFs, path: &DfsPath) -> Result<Self> {
        let meta = fs.stat(path)?;
        if meta.len < 8 {
            return Err(HiveError::Format(format!("file too short: {path}")));
        }
        let tail = fs.read_range(path, meta.len - 8, 8)?;
        let mut tr = ByteReader::new(tail);
        let footer_len = tr.get_u32()? as u64;
        check_magic(&mut tr, path.as_str())?;
        if footer_len + 8 > meta.len {
            return Err(HiveError::Format(format!(
                "corrupt footer length in {path}"
            )));
        }
        let footer_bytes = fs.read_range(path, meta.len - 8 - footer_len, footer_len)?;
        let footer = parse_footer(footer_bytes)?;
        Ok(CorcFile {
            fs: fs.clone(),
            path: path.clone(),
            file_id: meta.file_id,
            file_len: meta.len,
            footer: std::sync::Arc::new(footer),
            dict_memo: Default::default(),
        })
    }

    /// The file schema.
    pub fn schema(&self) -> &Schema {
        &self.footer.schema
    }

    /// Stable file identity (LLAP cache key component).
    pub fn file_id(&self) -> FileId {
        self.file_id
    }

    /// File length in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// The file path.
    pub fn path(&self) -> &DfsPath {
        &self.path
    }

    /// Total row count.
    pub fn num_rows(&self) -> u64 {
        self.footer.total_rows
    }

    /// Number of row groups.
    pub fn row_group_count(&self) -> usize {
        self.footer.row_groups.len()
    }

    /// Rows in row group `rg`.
    // invariant: callers enumerate `rg` from `row_group_count()` /
    // `selected_row_groups()` of this same footer, so the index is in
    // range by construction.
    pub fn row_group_rows(&self, rg: usize) -> u64 {
        self.footer.row_groups[rg].row_count
    }

    /// Per-row-group column statistics.
    // invariant: `rg` from footer enumeration (see `row_group_rows`);
    // `col` from this file's schema.
    pub fn column_stats(&self, rg: usize, col: usize) -> &ColumnStatistics {
        &self.footer.row_groups[rg].chunks[col].stats
    }

    /// Per-row-group column Bloom filter, when one was written.
    pub fn column_bloom(&self, rg: usize, col: usize) -> Option<&BloomFilter> {
        self.footer.row_groups[rg].chunks[col].bloom.as_ref()
    }

    /// File-level statistics for a column (merged across row groups).
    pub fn file_column_stats(&self, col: usize) -> ColumnStatistics {
        let mut acc = ColumnStatistics::new();
        for rg in &self.footer.row_groups {
            acc.merge(&rg.chunks[col].stats);
        }
        acc
    }

    /// Row groups the sarg cannot disprove — the paper's "skip reading
    /// entire row groups" pushdown.
    pub fn selected_row_groups(&self, sarg: &SearchArgument) -> Vec<usize> {
        (0..self.row_group_count())
            .filter(|&rg| {
                sarg.evaluate(
                    |c| Some(self.column_stats(rg, c)),
                    |c| self.column_bloom(rg, c),
                ) != TruthValue::No
            })
            .collect()
    }

    /// Byte range of one `(row group, column)` chunk within the file;
    /// a typed error (not a panic) for out-of-range coordinates, which
    /// can reach here via an external cache key rather than footer
    /// enumeration.
    pub fn chunk_range(&self, rg: usize, col: usize) -> Result<(u64, u64)> {
        let c = self
            .footer
            .row_groups
            .get(rg)
            .and_then(|g| g.chunks.get(col))
            .ok_or_else(|| {
                HiveError::Format(format!(
                    "chunk (rg={rg}, col={col}) out of range for {}",
                    self.path
                ))
            })?;
        Ok((c.offset, c.len))
    }

    /// Fetch and decode one column chunk (a ranged DFS read),
    /// materializing strings (`Str`).
    pub fn read_column_chunk(&self, rg: usize, col: usize) -> Result<ColumnVector> {
        let bytes = self.fetch_chunk_bytes(rg, col)?;
        self.decode_column_chunk(bytes, rg, col)
    }

    /// Fetch and decode one column chunk keeping dictionary-encoded
    /// string chunks in their encoded form (`Dict` with an `Arc`'d
    /// dictionary shared across this file's chunks of the column).
    pub fn read_column_chunk_encoded(&self, rg: usize, col: usize) -> Result<ColumnVector> {
        self.read_column_chunk_encoded_with(rg, col, None)
    }

    /// [`CorcFile::read_column_chunk_encoded`] into a buffer from
    /// `spares` when one fits (the LLAP cache's miss path).
    pub fn read_column_chunk_encoded_with(
        &self,
        rg: usize,
        col: usize,
        spares: Option<&Spares>,
    ) -> Result<ColumnVector> {
        let bytes = self.fetch_chunk_bytes(rg, col)?;
        self.decode_chunk_inner(bytes, rg, col, true, spares)
    }

    fn fetch_chunk_bytes(&self, rg: usize, col: usize) -> Result<Bytes> {
        let (offset, len) = self.chunk_range(rg, col)?;
        self.fs.read_range(&self.path, offset, len)
    }

    /// Decode a previously-fetched chunk (LLAP's cache path: the cache
    /// stores decoded chunks; on miss it fetches bytes then decodes).
    pub fn decode_column_chunk(&self, bytes: Bytes, rg: usize, col: usize) -> Result<ColumnVector> {
        self.decode_chunk_inner(bytes, rg, col, false, None)
    }

    /// Encoded-form counterpart of [`CorcFile::decode_column_chunk`].
    pub fn decode_column_chunk_encoded(
        &self,
        bytes: Bytes,
        rg: usize,
        col: usize,
    ) -> Result<ColumnVector> {
        self.decode_chunk_inner(bytes, rg, col, true, None)
    }

    fn decode_chunk_inner(
        &self,
        bytes: Bytes,
        rg: usize,
        col: usize,
        keep_dict: bool,
        spares: Option<&Spares>,
    ) -> Result<ColumnVector> {
        let rows = self
            .footer
            .row_groups
            .get(rg)
            .ok_or_else(|| {
                HiveError::Format(format!("row group {rg} out of range for {}", self.path))
            })?
            .row_count as usize;
        let dt = &self.footer.schema.field(col).data_type;
        let decoded = decode_column(&bytes, dt, rows, keep_dict, spares)?;
        if !keep_dict {
            return Ok(decoded);
        }
        Ok(self.share_dict(col, decoded))
    }

    /// Swap a freshly-decoded dictionary for the memoized per-column
    /// `Arc` when the contents match (first decode wins), so identical
    /// dictionaries across row groups collapse to one allocation.
    fn share_dict(&self, col: usize, decoded: ColumnVector) -> ColumnVector {
        let ColumnVector::Dict { codes, dict, nulls } = decoded else {
            return decoded;
        };
        let mut memo = self.dict_memo.lock().unwrap_or_else(|p| p.into_inner());
        let dict = match memo.get(&col) {
            Some(m) if **m == *dict => m.clone(),
            Some(_) => dict,
            None => {
                memo.insert(col, dict.clone());
                dict
            }
        };
        ColumnVector::Dict { codes, dict, nulls }
    }

    /// Read a whole row group restricted to `projection` columns.
    pub fn read_row_group(&self, rg: usize, projection: &[usize]) -> Result<VectorBatch> {
        let cols = projection
            .iter()
            .map(|&c| self.read_column_chunk(rg, c))
            .collect::<Result<Vec<_>>>()?;
        VectorBatch::new(self.footer.schema.project(projection), cols)
    }

    /// Read the entire file (all row groups, all columns).
    pub fn read_all(&self) -> Result<VectorBatch> {
        let proj: Vec<usize> = (0..self.footer.schema.len()).collect();
        let mut out = VectorBatch::empty(&self.footer.schema)?;
        for rg in 0..self.row_group_count() {
            out.append(&self.read_row_group(rg, &proj)?)?;
        }
        Ok(out)
    }

    /// Read the entire file keeping string chunks dictionary-encoded
    /// (the compactor's read side of the encoded re-write path).
    pub fn read_all_encoded(&self) -> Result<VectorBatch> {
        let proj: Vec<usize> = (0..self.footer.schema.len()).collect();
        let mut out = VectorBatch::empty(&self.footer.schema)?;
        for rg in 0..self.row_group_count() {
            let cols = proj
                .iter()
                .map(|&c| self.read_column_chunk_encoded(rg, c))
                .collect::<Result<Vec<_>>>()?;
            out.append(&VectorBatch::new(self.footer.schema.clone(), cols)?)?;
        }
        Ok(out)
    }
}

/// Read the trailing magic: this layout's, or a typed error naming why
/// the file cannot be read.
fn check_magic(tr: &mut ByteReader, what: &str) -> Result<()> {
    let mut magic = [0u8; 4];
    for b in magic.iter_mut() {
        *b = tr.get_u8()?;
    }
    match &magic {
        m if m == MAGIC => Ok(()),
        m => Err(HiveError::Format(
            match OLD_MAGICS.iter().find(|(old, _)| *old == m) {
                Some((_, layout)) => {
                    format!("{what} has the {layout}, which this reader does not decode")
                }
                None => format!("bad magic in {what}"),
            },
        )),
    }
}

pub(crate) fn parse_footer(bytes: Bytes) -> Result<Footer> {
    let mut r = ByteReader::new(bytes);
    let nfields = r.get_count(1)?;
    let mut fields = Vec::with_capacity(nfields);
    for _ in 0..nfields {
        let name = r.get_str()?;
        let dt = read_data_type(&mut r)?;
        let nullable = r.get_u8()? != 0;
        fields.push(Field {
            name,
            data_type: dt,
            nullable,
        });
    }
    let schema = Schema::new(fields);
    let row_group_size = r.get_varint()? as usize;
    let total_rows = r.get_varint()?;
    let ngroups = r.get_count(1)?;
    let mut row_groups = Vec::with_capacity(ngroups);
    for _ in 0..ngroups {
        let row_count = r.get_varint()?;
        let mut chunks = Vec::with_capacity(schema.len());
        for _ in 0..schema.len() {
            let offset = r.get_u64()?;
            let len = r.get_u64()?;
            let stats = ColumnStatistics::read(&mut r)?;
            let bloom = if r.get_u8()? == 1 {
                Some(BloomFilter::read(&mut r)?)
            } else {
                None
            };
            chunks.push(ChunkMeta {
                offset,
                len,
                stats,
                bloom,
            });
        }
        row_groups.push(RowGroupMeta { row_count, chunks });
    }
    Ok(Footer {
        schema,
        row_group_size,
        total_rows,
        row_groups,
    })
}

impl Footer {
    /// Rows per row group as written.
    pub fn row_group_size(&self) -> usize {
        self.row_group_size
    }
}

fn read_data_type(r: &mut ByteReader) -> Result<DataType> {
    Ok(match r.get_u8()? {
        0 => DataType::Boolean,
        1 => DataType::Int,
        2 => DataType::BigInt,
        3 => DataType::Double,
        4 => {
            let p = r.get_u8()?;
            let s = r.get_u8()?;
            DataType::decimal(p.into(), s.into()).map_err(HiveError::Format)?
        }
        5 => DataType::String,
        6 => DataType::Date,
        7 => DataType::Timestamp,
        t => return Err(HiveError::Format(format!("unknown type tag {t}"))),
    })
}

/// Decode one column chunk given its type and row count. With
/// `keep_dict`, dictionary-encoded string chunks come back as
/// `ColumnVector::Dict` (codes + shared dictionary) instead of
/// materializing one `String` per row.
///
/// The chunk is read as a slice with a cursor ([`SliceReader`]):
/// run-length streams decode straight into the column's width and
/// fixed-width values are one length check plus `chunks_exact`. Every
/// length read from the chunk is bounded by `rows` or by the bytes
/// left before anything is allocated for it. An INT or DATE value
/// outside `i32`, like a dictionary code outside the dictionary, is a
/// typed error. Value buffers come from `spares` when given.
pub(crate) fn decode_column(
    bytes: &[u8],
    dt: &DataType,
    rows: usize,
    keep_dict: bool,
    spares: Option<&Spares>,
) -> Result<ColumnVector> {
    let mut r = SliceReader::new(bytes);
    // Null section.
    let nulls = match r.get_u8()? {
        0 => None,
        1 => {
            let count = r.get_varint()?;
            let mut b = BitSet::new(rows);
            let mut pos = 0u64;
            for _ in 0..count {
                // First entry is absolute, the rest are deltas.
                pos = pos
                    .checked_add(r.get_varint()?)
                    .filter(|&p| p < rows as u64)
                    .ok_or_else(|| HiveError::Format("null position out of range".into()))?;
                b.set(pos as usize);
            }
            Some(b)
        }
        t => return Err(HiveError::Format(format!("bad null section tag {t}"))),
    };
    // `rows` fixed-width little-endian values as one checked sub-slice.
    fn fixed<'a>(r: &mut SliceReader<'a>, rows: usize, width: usize) -> Result<&'a [u8]> {
        let len = rows
            .checked_mul(width)
            .ok_or_else(|| HiveError::Format("row count overflows chunk length".into()))?;
        r.take(len)
    }
    // `rows` integers of a column whose values lie in `domain`.
    fn ints<T: RunTarget + Spare>(
        r: &mut SliceReader<'_>,
        rows: usize,
        domain: RangeInclusive<i64>,
        spares: Option<&Spares>,
    ) -> Result<Vec<T>> {
        let mut v = buffer(spares, rows);
        rle_decode_into(r, rows, domain, &mut v)?;
        Ok(v)
    }
    const I32: RangeInclusive<i64> = i32::MIN as i64..=i32::MAX as i64;
    Ok(match dt {
        DataType::Boolean => {
            let mut v = Vec::with_capacity(rows);
            rle_decode_into(&mut r, rows, ANY_I64, &mut v)?;
            ColumnVector::Boolean(v, nulls)
        }
        DataType::Int => ColumnVector::Int(ints(&mut r, rows, I32, spares)?, nulls),
        DataType::Date => ColumnVector::Date(ints(&mut r, rows, I32, spares)?, nulls),
        DataType::BigInt => ColumnVector::BigInt(ints(&mut r, rows, ANY_I64, spares)?, nulls),
        DataType::Timestamp => ColumnVector::Timestamp(ints(&mut r, rows, ANY_I64, spares)?, nulls),
        DataType::Double => {
            let mut v = buffer(spares, rows);
            v.extend(fixed(&mut r, rows, 8)?.chunks_exact(8).map(|c| {
                let mut le = [0u8; 8];
                le.copy_from_slice(c);
                f64::from_le_bytes(le)
            }));
            ColumnVector::Double(v, nulls)
        }
        DataType::Decimal(_, s) => {
            let v = match r.get_u8()? {
                DECIMAL_PACKED => DecVals::Narrow(ints(&mut r, rows, ANY_I64, spares)?),
                DECIMAL_RAW => DecVals::Wide(
                    fixed(&mut r, rows, 16)?
                        .chunks_exact(16)
                        .map(|c| {
                            let mut le = [0u8; 16];
                            le.copy_from_slice(c);
                            i128::from_le_bytes(le)
                        })
                        .collect(),
                ),
                t => return Err(HiveError::Format(format!("bad decimal encoding tag {t}"))),
            };
            ColumnVector::Decimal(v, *s, nulls)
        }
        DataType::String => match r.get_u8()? {
            1 => {
                // Every entry costs at least its length byte.
                let dict_len = usize::try_from(r.get_varint()?)
                    .ok()
                    .filter(|&n| n <= r.remaining())
                    .ok_or_else(|| HiveError::Format("dictionary longer than its chunk".into()))?;
                let mut dict = Vec::with_capacity(dict_len);
                for _ in 0..dict_len {
                    dict.push(r.get_str()?);
                }
                // Codes index the dictionary (`dict_len` is at most the
                // chunk's length, far below `i64::MAX`); they outlive the
                // decode only when the chunk stays encoded.
                let domain = 0..=dict.len() as i64 - 1;
                let codes: Vec<u32> = ints(&mut r, rows, domain, spares.filter(|_| keep_dict))?;
                if keep_dict {
                    // Codes were range-checked as they decoded.
                    ColumnVector::Dict {
                        codes,
                        dict: std::sync::Arc::new(dict),
                        nulls,
                    }
                } else {
                    let v = codes.iter().map(|&c| dict[c as usize].clone()).collect();
                    ColumnVector::Str(v, nulls)
                }
            }
            0 => {
                let mut v = Vec::with_capacity(rows);
                for _ in 0..rows {
                    v.push(r.get_str()?);
                }
                ColumnVector::Str(v, nulls)
            }
            t => return Err(HiveError::Format(format!("bad string encoding tag {t}"))),
        },
        t => {
            return Err(HiveError::Format(format!(
                "unsupported column type in file: {t}"
            )))
        }
    })
}

/// Parse a corc file held fully in memory (tests / tooling).
pub fn parse_in_memory(bytes: &Bytes) -> Result<(Footer, Bytes)> {
    if bytes.len() < 8 {
        return Err(HiveError::Format("file too short".into()));
    }
    let tail = bytes.slice(bytes.len() - 8..);
    let mut tr = ByteReader::new(tail);
    let footer_len = tr.get_u32()? as usize;
    check_magic(&mut tr, "in-memory file")?;
    let footer = parse_footer(bytes.slice(bytes.len() - 8 - footer_len..bytes.len() - 8))?;
    Ok((footer, bytes.clone()))
}

/// Re-encode helper used by compaction tests: round-trip a batch through
/// the format in memory.
pub fn round_trip(batch: &VectorBatch, opts: crate::writer::WriterOptions) -> Result<VectorBatch> {
    let bytes = crate::writer::write_batch_to_bytes(batch, opts)?;
    let (footer, all) = parse_in_memory(&bytes)?;
    let mut out = VectorBatch::empty(&footer.schema)?;
    for rg in &footer.row_groups {
        let mut cols = Vec::new();
        for (ci, c) in rg.chunks.iter().enumerate() {
            let chunk = all.slice(c.offset as usize..(c.offset + c.len) as usize);
            cols.push(decode_column(
                &chunk,
                &footer.schema.field(ci).data_type,
                rg.row_count as usize,
                false,
                None,
            )?);
        }
        out.append(&VectorBatch::new(footer.schema.clone(), cols)?)?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{rle_encode_i64, ByteWriter};
    use crate::writer::{encode_column, CorcWriter, WriterOptions};
    use hive_common::Row;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};
    use std::sync::Arc;

    /// The `ByteReader` decoder `decode_column` replaced, kept as the
    /// reference the slice decoder is checked against value for value.
    mod reference {
        use super::*;

        fn rle_decode_i64(r: &mut ByteReader, count: usize) -> Result<Vec<i64>> {
            let mut out = Vec::with_capacity(count);
            while out.len() < count {
                let control = r.get_varint()?;
                let n = (control >> 1) as usize;
                if n == 0 || out.len() + n > count {
                    return Err(HiveError::Format("corrupt RLE stream".into()));
                }
                if control & 1 == 0 {
                    let v = r.get_varint_signed()?;
                    out.resize(out.len() + n, v);
                    continue;
                }
                // A packed run, read one bit at a time.
                let base = r.get_varint_signed()?;
                let width = r.get_u8()? as usize;
                if width > 64 {
                    return Err(HiveError::Format("packed run too wide".into()));
                }
                let mut body = Vec::new();
                for _ in 0..(n * width).div_ceil(8) {
                    body.push(r.get_u8()?);
                }
                for i in 0..n {
                    let mut field = 0u64;
                    for b in 0..width {
                        let bit = i * width + b;
                        field |= u64::from((body[bit / 8] >> (bit % 8)) & 1) << b;
                    }
                    out.push(base.wrapping_add(field as i64));
                }
            }
            Ok(out)
        }

        /// INT and DATE values, each of which must fit `i32`.
        fn narrow(ints: Vec<i64>) -> Result<Vec<i32>> {
            ints.into_iter()
                .map(|v| {
                    i32::try_from(v).map_err(|_| HiveError::Format(format!("{v} is not an i32")))
                })
                .collect()
        }

        pub fn decode_column(
            bytes: Bytes,
            dt: &DataType,
            rows: usize,
            keep_dict: bool,
        ) -> Result<ColumnVector> {
            let mut r = ByteReader::new(bytes);
            let nulls = match r.get_u8()? {
                0 => None,
                1 => {
                    let count = r.get_varint()? as usize;
                    let mut b = BitSet::new(rows);
                    let mut pos = 0u64;
                    for i in 0..count {
                        let delta = r.get_varint()?;
                        pos = if i == 0 { delta } else { pos + delta };
                        if pos as usize >= rows {
                            return Err(HiveError::Format("null position out of range".into()));
                        }
                        b.set(pos as usize);
                    }
                    Some(b)
                }
                t => return Err(HiveError::Format(format!("bad null section tag {t}"))),
            };
            Ok(match dt {
                DataType::Boolean => {
                    let ints = rle_decode_i64(&mut r, rows)?;
                    ColumnVector::Boolean(ints.into_iter().map(|v| v != 0).collect(), nulls)
                }
                DataType::Int => ColumnVector::Int(narrow(rle_decode_i64(&mut r, rows)?)?, nulls),
                DataType::Date => ColumnVector::Date(narrow(rle_decode_i64(&mut r, rows)?)?, nulls),
                DataType::BigInt => ColumnVector::BigInt(rle_decode_i64(&mut r, rows)?, nulls),
                DataType::Timestamp => {
                    ColumnVector::Timestamp(rle_decode_i64(&mut r, rows)?, nulls)
                }
                DataType::Double => {
                    let mut v = Vec::with_capacity(rows);
                    for _ in 0..rows {
                        v.push(r.get_f64()?);
                    }
                    ColumnVector::Double(v, nulls)
                }
                DataType::Decimal(_, s) => {
                    let v = match r.get_u8()? {
                        DECIMAL_PACKED => DecVals::Narrow(rle_decode_i64(&mut r, rows)?),
                        DECIMAL_RAW => {
                            let mut v = Vec::with_capacity(rows);
                            for _ in 0..rows {
                                v.push(r.get_i128()?);
                            }
                            DecVals::Wide(v)
                        }
                        t => return Err(HiveError::Format(format!("bad decimal tag {t}"))),
                    };
                    ColumnVector::Decimal(v, *s, nulls)
                }
                DataType::String => match r.get_u8()? {
                    1 => {
                        let dict_len = r.get_varint()? as usize;
                        let mut dict = Vec::with_capacity(dict_len.min(r.remaining()));
                        for _ in 0..dict_len {
                            dict.push(r.get_str()?);
                        }
                        let idx = rle_decode_i64(&mut r, rows)?;
                        if keep_dict {
                            let mut codes = Vec::with_capacity(rows);
                            for i in idx {
                                if i < 0 || i as usize >= dict.len() {
                                    return Err(HiveError::Format(
                                        "dictionary index out of range".into(),
                                    ));
                                }
                                codes.push(i as u32);
                            }
                            ColumnVector::dict_from_codes(codes, std::sync::Arc::new(dict), nulls)?
                        } else {
                            let mut v = Vec::with_capacity(rows);
                            for i in idx {
                                let s = dict.get(i as usize).ok_or_else(|| {
                                    HiveError::Format("dictionary index out of range".into())
                                })?;
                                v.push(s.clone());
                            }
                            ColumnVector::Str(v, nulls)
                        }
                    }
                    0 => {
                        let mut v = Vec::with_capacity(rows);
                        for _ in 0..rows {
                            v.push(r.get_str()?);
                        }
                        ColumnVector::Str(v, nulls)
                    }
                    t => return Err(HiveError::Format(format!("bad string encoding tag {t}"))),
                },
                t => {
                    return Err(HiveError::Format(format!(
                        "unsupported column type in file: {t}"
                    )))
                }
            })
        }
    }

    const TYPES: [DataType; 8] = [
        DataType::Boolean,
        DataType::Int,
        DataType::BigInt,
        DataType::Double,
        DataType::Decimal(38, 4),
        DataType::String,
        DataType::Date,
        DataType::Timestamp,
    ];

    /// `rows` integers with the run structure `shape` names: 0 all
    /// equal, 1 all distinct, 2 runs of exactly two, 3 runs of exactly
    /// three (the encoder's run threshold), 4 random runs with
    /// `i64::MIN`/`MAX` mixed in, 5 distinct offsets of a random packed
    /// width (0 to 64 bits) from the base.
    fn shaped_ints(rng: &mut StdRng, rows: usize, shape: usize) -> Vec<i64> {
        let base = rng.gen_range(-1000i64..1000);
        let width = rng.gen_range(0..=64u32);
        (0..rows)
            .map(|i| match shape {
                0 => base,
                1 => base + i as i64,
                2 => base + (i / 2) as i64,
                3 => base + (i / 3) as i64,
                5 => {
                    base.wrapping_add((rng.next_u64().checked_shr(64 - width).unwrap_or(0)) as i64)
                }
                _ => match rng.gen_range(0..10) {
                    0 => i64::MIN,
                    1 => i64::MAX,
                    2..=5 => base,
                    _ => rng.gen_range(i64::MIN..i64::MAX),
                },
            })
            .collect()
    }

    fn random_column(
        rng: &mut StdRng,
        dt: &DataType,
        rows: usize,
        shape: usize,
        null_pct: u32,
    ) -> ColumnVector {
        let ints = shaped_ints(rng, rows, shape);
        let nulls = (null_pct > 0).then(|| {
            let mut b = BitSet::new(rows);
            for i in 0..rows {
                if rng.gen_range(0..100) < null_pct {
                    b.set(i);
                }
            }
            b
        });
        match dt {
            DataType::Boolean => {
                ColumnVector::Boolean(ints.iter().map(|v| v & 1 == 1).collect(), nulls)
            }
            DataType::Int => ColumnVector::Int(ints.iter().map(|&v| v as i32).collect(), nulls),
            DataType::Date => ColumnVector::Date(ints.iter().map(|&v| v as i32).collect(), nulls),
            DataType::BigInt => ColumnVector::BigInt(ints, nulls),
            DataType::Timestamp => ColumnVector::Timestamp(ints, nulls),
            DataType::Double => ColumnVector::Double(
                ints.iter()
                    .map(|&v| match v {
                        i64::MIN => f64::NAN,
                        i64::MAX => -0.0,
                        v => v as f64 * 0.25,
                    })
                    .collect(),
                nulls,
            ),
            // Shape 4 spreads past `i64` (a raw chunk); every other
            // shape's values fit it (a packed run), its extremes included.
            DataType::Decimal(_, s) => ColumnVector::Decimal(
                ints.iter()
                    .map(|&v| match (shape, v) {
                        (4, i64::MIN) => i128::MIN,
                        (4, i64::MAX) => i128::MAX,
                        (4, v) => v as i128 * 1_000_003,
                        (_, v) => v as i128,
                    })
                    .collect::<Vec<i128>>()
                    .into(),
                *s,
                nulls,
            ),
            _ => ColumnVector::Str(ints.iter().map(|v| format!("s{v}é")).collect(), nulls),
        }
    }

    /// Bit-exact column equality (`NaN == NaN`, `-0.0 != 0.0`, a `Dict`
    /// only equals a `Dict`, and decimals are held at one width).
    fn assert_same(a: &ColumnVector, b: &ColumnVector, what: &str) {
        assert_eq!(
            std::mem::discriminant(a),
            std::mem::discriminant(b),
            "{what}"
        );
        match (a, b) {
            (ColumnVector::Decimal(x, ..), ColumnVector::Decimal(y, ..)) => {
                assert_eq!(x.is_narrow(), y.is_narrow(), "{what}");
                assert_eq!(a, b, "{what}");
            }
            (ColumnVector::Double(x, xn), ColumnVector::Double(y, yn)) => {
                let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(x), bits(y), "{what}");
                assert_eq!(xn, yn, "{what}");
            }
            (
                ColumnVector::Dict {
                    codes: xc,
                    dict: xd,
                    nulls: xn,
                },
                ColumnVector::Dict {
                    codes: yc,
                    dict: yd,
                    nulls: yn,
                },
            ) => {
                assert_eq!((xc, &**xd, xn), (yc, &**yd, yn), "{what}");
            }
            _ => assert_eq!(a, b, "{what}"),
        }
    }

    /// Every encoded chunk the cases below produce, with what decodes it:
    /// each `DataType` x null density x run structure, strings both
    /// dictionary-encoded and direct.
    fn encoded_chunks(rng: &mut StdRng, rows: usize) -> Vec<(DataType, usize, Bytes)> {
        let mut out = Vec::new();
        for dt in &TYPES {
            for null_pct in [0, 10, 90] {
                for shape in 0..6 {
                    let ratios: &[f64] = if *dt == DataType::String {
                        &[1.0, 0.0] // dictionary, direct
                    } else {
                        &[0.5]
                    };
                    let col = random_column(rng, dt, rows, shape, null_pct);
                    for &ratio in ratios {
                        let mut w = ByteWriter::new();
                        encode_column(&col, &mut w, ratio).unwrap();
                        out.push((dt.clone(), rows, w.finish()));
                    }
                }
            }
        }
        out
    }

    #[test]
    fn slice_decode_equals_reference_decode() {
        let mut rng = StdRng::seed_from_u64(0xc0dec);
        // Decimal chunks seen as (packed, raw).
        let mut decimals = (0, 0);
        for rows in [0, 1, 2, 3, 7, 64, 65, 300, 5000] {
            for (dt, rows, bytes) in encoded_chunks(&mut rng, rows) {
                for keep_dict in [false, true] {
                    let want =
                        reference::decode_column(bytes.clone(), &dt, rows, keep_dict).unwrap();
                    let got = decode_column(&bytes, &dt, rows, keep_dict, None).unwrap();
                    assert_eq!(got.len(), rows);
                    assert_same(&got, &want, &format!("{dt} rows={rows} keep={keep_dict}"));
                    if let ColumnVector::Decimal(v, ..) = &got {
                        let seen = if v.is_narrow() {
                            &mut decimals.0
                        } else {
                            &mut decimals.1
                        };
                        *seen += 1;
                    }
                }
            }
        }
        assert!(decimals.0 > 0 && decimals.1 > 0, "{decimals:?}");
    }

    /// Byte-level fuzz of the chunk decoder: every prefix truncation
    /// and 1 000 seeded single-byte mutations of each encoded chunk
    /// decode to `Ok` (of exactly `rows` values) or `HiveError::Format`.
    /// A panic, an over-read (slice index out of range) or an
    /// allocation sized by a corrupt length would abort the test. The
    /// reference decoder accepts exactly the same chunks, to the same
    /// values: a value a column cannot hold is rejected by both.
    #[test]
    fn decode_fuzz_truncations_and_mutations_end_typed() {
        let mut rng = StdRng::seed_from_u64(0xf022);
        let check = |bytes: &[u8], dt: &DataType, rows: usize, what: &str| {
            for keep_dict in [false, true] {
                let want =
                    reference::decode_column(Bytes::from(bytes.to_vec()), dt, rows, keep_dict);
                match (decode_column(bytes, dt, rows, keep_dict, None), want) {
                    (Ok(col), Ok(want)) => {
                        assert_eq!(col.len(), rows, "{what}");
                        assert_same(&col, &want, what);
                    }
                    (Err(HiveError::Format(_)), Err(_)) => {}
                    (got, want) => panic!("{what}: {got:?}, the reference {want:?}"),
                }
            }
        };
        for (dt, rows, bytes) in encoded_chunks(&mut rng, 40) {
            for cut in 0..bytes.len() {
                check(&bytes[..cut], &dt, rows, &format!("{dt} cut at {cut}"));
            }
            let mut buf = bytes.to_vec();
            for _ in 0..1000 {
                let at = rng.gen_range(0..buf.len());
                let old = buf[at];
                buf[at] = rng.gen_range(0..=255u8);
                check(&buf, &dt, rows, &format!("{dt} byte {at} -> {}", buf[at]));
                buf[at] = old;
            }
        }
    }

    /// A decode into spares that held other values gives the bytes a
    /// fresh decode gives, for every type, with and without NULLs; the
    /// types a decode fills from spares (INT, DATE, BIGINT, TIMESTAMP,
    /// DOUBLE, a packed DECIMAL, dictionary codes) take one.
    #[test]
    fn decoding_into_dirty_spares_equals_a_fresh_decode() {
        let mut rng = StdRng::seed_from_u64(0x5a7e);
        let mut taken = 0;
        for rows in [1, 7, 300, 5000] {
            for (dt, rows, bytes) in encoded_chunks(&mut rng, rows) {
                for keep_dict in [false, true] {
                    let fresh = decode_column(&bytes, &dt, rows, keep_dict, None).unwrap();
                    let spares = Spares::new(1 << 20);
                    spares.keep(ColumnVector::Int(vec![-1; rows], None));
                    spares.keep(ColumnVector::BigInt(vec![i64::MIN; rows], None));
                    spares.keep(ColumnVector::Double(vec![f64::NAN; rows], None));
                    spares.keep(
                        ColumnVector::dict_from_codes(
                            vec![0; rows],
                            Arc::new(vec!["x".into()]),
                            None,
                        )
                        .unwrap(),
                    );
                    let shelved = spares.bytes();
                    let got = decode_column(&bytes, &dt, rows, keep_dict, Some(&spares)).unwrap();
                    let what = format!("{dt} rows={rows} keep={keep_dict}");
                    assert_same(&got, &fresh, &what);
                    let fills = match &got {
                        ColumnVector::Str(..) | ColumnVector::Boolean(..) => false,
                        ColumnVector::Decimal(v, ..) => v.is_narrow(),
                        _ => true,
                    };
                    assert_eq!(spares.bytes() < shelved, fills, "{what}");
                    taken += usize::from(fills);
                }
            }
        }
        assert!(taken > 100, "{taken}");
    }

    /// An INT or DATE chunk holding a value outside `i32` is `Format`,
    /// never a wrapped number: in a repeat run, in a packed run, below
    /// `i32::MIN`, and at width 0. A packed run whose frame passes
    /// `i32::MAX` while each of its values fits decodes. BIGINT and
    /// TIMESTAMP hold every one of them, and the reference agrees.
    #[test]
    fn int_and_date_values_past_i32_are_format_errors() {
        let max = i32::MAX as i64;
        let chunk = |control: u64, base: i64, packed: &[u8]| {
            let mut w = ByteWriter::new();
            w.put_u8(0); // no nulls
            w.put_varint(control);
            w.put_varint_signed(base);
            w.put_slice(packed);
            w.finish()
        };
        let bad = [
            chunk(3 << 1, max + 1, &[]),
            chunk(3 << 1, i32::MIN as i64 - 1, &[]),
            // Fields 0, 3, 1 at width 2: the middle one is MAX + 2.
            chunk((3 << 1) | 1, max - 1, &[2, 0b01_11_00]),
            chunk((3 << 1) | 1, max + 5, &[0]),
        ];
        // Fields 0, 1, 1 at width 2: a frame up to MAX + 2, values to MAX.
        let fits = chunk((3 << 1) | 1, max - 1, &[2, 0b01_01_00]);
        for dt in [DataType::Int, DataType::Date] {
            for bytes in &bad {
                let got = decode_column(bytes, &dt, 3, false, None);
                assert!(
                    matches!(got, Err(HiveError::Format(_))),
                    "{dt} {bytes:?}: {got:?}"
                );
                assert!(reference::decode_column(bytes.clone(), &dt, 3, false).is_err());
            }
            let got = decode_column(&fits, &dt, 3, false, None).unwrap();
            let want = vec![i32::MAX - 1, i32::MAX, i32::MAX];
            let want = match dt {
                DataType::Int => ColumnVector::Int(want, None),
                _ => ColumnVector::Date(want, None),
            };
            assert_eq!(got, want);
        }
        for dt in [DataType::BigInt, DataType::Timestamp] {
            for bytes in bad.iter().chain([&fits]) {
                let got = decode_column(bytes, &dt, 3, false, None).unwrap();
                let want = reference::decode_column(bytes.clone(), &dt, 3, false).unwrap();
                assert_eq!(got, want, "{dt}");
            }
        }
    }

    /// Hand-craft a dictionary-encoded string chunk whose index stream
    /// holds a code past the dictionary: both the encoded and the
    /// materialized decode paths must fail with a Format error rather
    /// than panic or fabricate data.
    #[test]
    fn out_of_range_dictionary_code_is_a_format_error() {
        let mut w = ByteWriter::new();
        w.put_u8(0); // no nulls
        w.put_u8(1); // dictionary encoding
        w.put_varint(2); // two entries
        w.put_str("a");
        w.put_str("b");
        rle_encode_i64(&[0, 5, 1], &mut w); // code 5 is out of range
        let bytes = w.finish();
        for keep_dict in [true, false] {
            let err = decode_column(&bytes, &DataType::String, 3, keep_dict, None)
                .expect_err("out-of-range code must not decode");
            assert!(
                matches!(err, HiveError::Format(_)),
                "{keep_dict}: unexpected error {err:?}"
            );
        }
    }

    /// A packed run wider than 64 bits, one whose body is shorter than
    /// its `n·width` bits, and a file in the v1 layout each fail as
    /// `Format` — never a panic, an over-read or made-up values.
    #[test]
    fn malformed_packed_runs_and_v1_files_are_format_errors() {
        let chunk = |width: u8, body: &[u8]| {
            let mut w = ByteWriter::new();
            w.put_u8(0); // no nulls
            w.put_varint((4 << 1) | 1); // four packed literals
            w.put_varint_signed(-3);
            w.put_u8(width);
            w.put_slice(body);
            w.finish()
        };
        let int_types = [
            DataType::Boolean,
            DataType::Int,
            DataType::BigInt,
            DataType::Date,
            DataType::Timestamp,
        ];
        // Four 13-bit fields are 52 bits: seven bytes.
        let whole = chunk(13, &[0xff; 7]);
        let got = decode_column(&whole, &DataType::BigInt, 4, false, None).unwrap();
        assert_eq!(got, ColumnVector::BigInt(vec![8188; 4], None));
        for (width, body) in [
            (65u8, &[0u8; 40][..]),
            (255, &[0; 40]),
            (13, &[0xff; 6]),
            (64, &[0; 31]),
        ] {
            let bytes = chunk(width, body);
            for dt in &int_types {
                match decode_column(&bytes, dt, 4, false, None) {
                    Err(HiveError::Format(_)) => {}
                    other => panic!("width {width}, {} body bytes, {dt}: {other:?}", body.len()),
                }
                assert!(reference::decode_column(bytes.clone(), dt, 4, false).is_err());
            }
        }

        // The earlier layouts (v1, and v2 with its raw decimals) are
        // told apart by their magics.
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let batch = VectorBatch::new(schema, vec![ColumnVector::Int(vec![1, 5, 9], None)]).unwrap();
        let file = crate::writer::write_batch_to_bytes(&batch, WriterOptions::default()).unwrap();
        let fs = DistFs::new();
        for (magic, layout) in crate::OLD_MAGICS {
            let mut old = file.to_vec();
            let n = old.len();
            old[n - 4..].copy_from_slice(magic);
            let old = Bytes::from(old);
            let path = DfsPath::new(format!("/t/{layout}"));
            fs.create(&path, old.clone()).unwrap();
            for err in [
                CorcFile::open(&fs, &path).unwrap_err(),
                parse_in_memory(&old).unwrap_err(),
            ] {
                assert!(
                    matches!(&err, HiveError::Format(m) if m.contains(layout)),
                    "{err:?}"
                );
            }
        }
        assert!(crate::OLD_MAGICS.iter().any(|(m, _)| *m == b"COR2"));
    }

    /// Decimal chunks round-trip through files at both widths: values
    /// that all fit `i64` (its extremes included) come back as a packed
    /// run and a narrow column, one value past `i64` either way keeps
    /// the whole chunk raw and wide — whatever width the written column
    /// held them at.
    #[test]
    fn decimal_chunks_pack_at_the_i64_edges_and_fall_back_past_them() {
        let schema = Schema::new(vec![Field::new("d", DataType::Decimal(38, 2))]);
        let edges = vec![i64::MIN as i128, -1, 0, 7, i64::MAX as i128];
        let cases: Vec<(Vec<i128>, bool)> = vec![
            (edges.clone(), true),
            ([edges.clone(), vec![i64::MAX as i128 + 1]].concat(), false),
            ([vec![i64::MIN as i128 - 1], edges.clone()].concat(), false),
        ];
        for (vals, narrow) in cases {
            let mut nulls = BitSet::new(vals.len());
            nulls.set(1);
            for held in [DecVals::from(vals.clone()), DecVals::Wide(vals.clone())] {
                let col = ColumnVector::Decimal(held, 2, Some(nulls.clone()));
                let batch = VectorBatch::new(schema.clone(), vec![col.clone()]).unwrap();
                let bytes =
                    crate::writer::write_batch_to_bytes(&batch, WriterOptions::default()).unwrap();
                let (footer, all) = parse_in_memory(&bytes).unwrap();
                let meta = &footer.row_groups[0].chunks[0];
                let chunk = &all[meta.offset as usize..(meta.offset + meta.len) as usize];
                let got = decode_column(
                    chunk,
                    &footer.schema.field(0).data_type,
                    vals.len(),
                    false,
                    None,
                )
                .unwrap();
                let ColumnVector::Decimal(got_vals, 2, _) = &got else {
                    panic!("{got:?}");
                };
                assert_eq!(got_vals.is_narrow(), narrow, "{vals:?}");
                assert_eq!(got, col, "{vals:?}");
                // A packed chunk is the tag plus a run, far below 16
                // bytes a value.
                assert_eq!(narrow, meta.len < 16 * vals.len() as u64, "{vals:?}");
            }
        }
    }

    /// A footer declaring a DECIMAL no parser accepts — precision 0 or
    /// above 38, or a scale above the precision — is `Format`.
    #[test]
    fn impossible_decimal_types_in_a_footer_are_format_errors() {
        for (p, s, ok) in [
            (38u8, 38u8, true),
            (1, 0, true),
            (0, 0, false),
            (39, 2, false),
            (5, 9, false),
            (38, 60, false),
        ] {
            let mut w = crate::encoding::ByteWriter::new();
            w.put_u8(4);
            w.put_u8(p);
            w.put_u8(s);
            let got = read_data_type(&mut ByteReader::new(w.finish()));
            match got {
                Ok(dt) => assert!(ok && dt == DataType::Decimal(p, s), "({p},{s})"),
                Err(HiveError::Format(_)) => assert!(!ok, "({p},{s})"),
                Err(e) => panic!("({p},{s}): {e:?}"),
            }
        }
    }

    /// Encoded chunks of one column share a single memoized dictionary
    /// Arc across row groups — the identity the LLAP cache charges once.
    #[test]
    fn encoded_chunks_share_one_dictionary_arc() {
        let schema = Schema::new(vec![Field::new("s", DataType::String)]);
        let rows: Vec<Row> = (0..100)
            .map(|i| Row::new(vec![hive_common::Value::String(format!("v{}", i % 4))]))
            .collect();
        let batch = VectorBatch::from_rows(&schema, &rows).unwrap();
        let fs = DistFs::new();
        let path = DfsPath::new("/t/shared_dict");
        let mut w = CorcWriter::new(
            schema,
            WriterOptions {
                row_group_size: 25,
                ..Default::default()
            },
        )
        .unwrap();
        w.write_batch(&batch).unwrap();
        fs.create(&path, w.finish().unwrap()).unwrap();

        let f = CorcFile::open(&fs, &path).unwrap();
        assert!(f.row_group_count() > 1);
        let dicts: Vec<std::sync::Arc<Vec<String>>> = (0..f.row_group_count())
            .map(|rg| {
                let col = f.read_column_chunk_encoded(rg, 0).unwrap();
                let (_, dict, _) = col.dict_parts().expect("chunk should stay encoded");
                dict.clone()
            })
            .collect();
        for d in &dicts[1..] {
            assert!(
                std::sync::Arc::ptr_eq(&dicts[0], d),
                "row-group dictionaries were not memoized into one Arc"
            );
        }
    }
}
