//! The corc file writer.

use crate::bloom::BloomFilter;
use crate::encoding::ByteWriter;
use crate::stats::{ChunkEncoding, ColumnStatistics};
use crate::{DECIMAL_PACKED, DECIMAL_RAW, DEFAULT_ROW_GROUP_SIZE, MAGIC};
use bytes::Bytes;
use hive_common::{ColumnVector, DataType, HiveError, Result, Schema, VectorBatch};

/// Options controlling file layout.
#[derive(Debug, Clone)]
pub struct WriterOptions {
    /// Rows per row group (the skipping/caching granule).
    pub row_group_size: usize,
    /// Columns (by index) to build per-row-group Bloom filters for.
    pub bloom_columns: Vec<usize>,
    /// Bloom filter false-positive probability.
    pub bloom_fpp: f64,
    /// Dictionary-encode a string chunk when
    /// `distinct values ≤ rows × ratio` (ORC's distinct-ratio
    /// heuristic); set to `0.0` to force plain encoding.
    pub dictionary_ratio: f64,
}

impl Default for WriterOptions {
    fn default() -> Self {
        WriterOptions {
            row_group_size: DEFAULT_ROW_GROUP_SIZE,
            bloom_columns: Vec::new(),
            bloom_fpp: 0.02,
            dictionary_ratio: 0.5,
        }
    }
}

/// Metadata for one column chunk within a row group.
#[derive(Debug, Clone)]
pub(crate) struct ChunkMeta {
    pub offset: u64,
    pub len: u64,
    pub stats: ColumnStatistics,
    pub bloom: Option<BloomFilter>,
}

/// Metadata for one row group.
#[derive(Debug, Clone)]
pub(crate) struct RowGroupMeta {
    pub row_count: u64,
    pub chunks: Vec<ChunkMeta>,
}

/// Streaming writer producing a corc file as a byte buffer.
///
/// Batches are buffered and cut into fixed-size row groups; each column
/// of each row group is encoded independently so readers can fetch
/// exactly the `(row group, column)` chunks a query needs.
#[derive(Debug)]
pub struct CorcWriter {
    schema: Schema,
    opts: WriterOptions,
    data: ByteWriter,
    row_groups: Vec<RowGroupMeta>,
    pending: VectorBatch,
    total_rows: u64,
}

impl CorcWriter {
    /// Start writing a file with the given schema.
    pub fn new(schema: Schema, opts: WriterOptions) -> Result<Self> {
        for f in schema.fields() {
            if !f.data_type.is_atomic() {
                return Err(HiveError::Format(format!(
                    "cannot store non-atomic column {} ({})",
                    f.name, f.data_type
                )));
            }
        }
        let pending = VectorBatch::empty(&schema)?;
        Ok(CorcWriter {
            schema,
            opts,
            data: ByteWriter::new(),
            row_groups: Vec::new(),
            pending,
            total_rows: 0,
        })
    }

    /// Append a batch (must match the file schema's column types).
    pub fn write_batch(&mut self, batch: &VectorBatch) -> Result<()> {
        self.pending.append(batch)?;
        while self.pending.num_rows() >= self.opts.row_group_size {
            let idx: Vec<u32> = (0..self.opts.row_group_size as u32).collect();
            let group = self.pending.take(&idx);
            let rest: Vec<u32> =
                (self.opts.row_group_size as u32..self.pending.num_rows() as u32).collect();
            self.pending = self.pending.take(&rest);
            self.flush_group(&group)?;
        }
        Ok(())
    }

    fn flush_group(&mut self, group: &VectorBatch) -> Result<()> {
        let mut chunks = Vec::with_capacity(group.num_columns());
        for (ci, col) in group.columns().iter().enumerate() {
            let offset = self.data.len() as u64;
            let encoding = encode_column(col, &mut self.data, self.opts.dictionary_ratio)?;
            let len = self.data.len() as u64 - offset;
            let mut stats = ColumnStatistics::new();
            stats.update_column(col);
            stats.encoding = encoding;
            let bloom = if self.opts.bloom_columns.contains(&ci) {
                let mut b = BloomFilter::new(col.len(), self.opts.bloom_fpp);
                for i in 0..col.len() {
                    b.insert(&col.get(i));
                }
                Some(b)
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
        self.total_rows += group.num_rows() as u64;
        self.row_groups.push(RowGroupMeta {
            row_count: group.num_rows() as u64,
            chunks,
        });
        Ok(())
    }

    /// Finish the file and return its bytes.
    pub fn finish(mut self) -> Result<Bytes> {
        if self.pending.num_rows() > 0 {
            let last = std::mem::replace(&mut self.pending, VectorBatch::empty(&self.schema)?);
            self.flush_group(&last)?;
        }
        let mut w = self.data;
        let footer_start = w.len() as u64;
        write_footer(
            &mut w,
            &self.schema,
            self.opts.row_group_size,
            self.total_rows,
            &self.row_groups,
        );
        let footer_len = w.len() as u64 - footer_start;
        w.put_u32(footer_len as u32);
        w.put_slice(MAGIC);
        Ok(w.finish())
    }
}

/// Convenience: write a whole batch as one file.
pub fn write_batch_to_bytes(batch: &VectorBatch, opts: WriterOptions) -> Result<Bytes> {
    let mut w = CorcWriter::new(batch.schema().clone(), opts)?;
    w.write_batch(batch)?;
    w.finish()
}

pub(crate) fn write_footer(
    w: &mut ByteWriter,
    schema: &Schema,
    row_group_size: usize,
    total_rows: u64,
    row_groups: &[RowGroupMeta],
) {
    w.put_varint(schema.len() as u64);
    for f in schema.fields() {
        w.put_str(&f.name);
        write_data_type(w, &f.data_type);
        w.put_u8(f.nullable as u8);
    }
    w.put_varint(row_group_size as u64);
    w.put_varint(total_rows);
    w.put_varint(row_groups.len() as u64);
    for rg in row_groups {
        w.put_varint(rg.row_count);
        for c in &rg.chunks {
            w.put_u64(c.offset);
            w.put_u64(c.len);
            c.stats.write(w);
            match &c.bloom {
                Some(b) => {
                    w.put_u8(1);
                    b.write(w);
                }
                None => w.put_u8(0),
            }
        }
    }
}

pub(crate) fn write_data_type(w: &mut ByteWriter, dt: &DataType) {
    match dt {
        DataType::Boolean => w.put_u8(0),
        DataType::Int => w.put_u8(1),
        DataType::BigInt => w.put_u8(2),
        DataType::Double => w.put_u8(3),
        DataType::Decimal(p, s) => {
            w.put_u8(4);
            w.put_u8(*p);
            w.put_u8(*s);
        }
        DataType::String => w.put_u8(5),
        DataType::Date => w.put_u8(6),
        DataType::Timestamp => w.put_u8(7),
        // invariant: `CorcWriter::new` validates the schema and rejects
        // every non-atomic type before any encode runs, so this arm is
        // unreachable for writers constructed through the public API.
        _ => unreachable!("non-atomic types rejected at writer construction"),
    }
}

/// Encode a string chunk: dictionary (sorted, deduped, RLE indexes)
/// when the distinct ratio clears the threshold, else plain. Both the
/// `Str` and `Dict` writer arms funnel through here so the bytes are
/// identical regardless of the in-memory representation.
fn encode_str_values(vals: &[&String], w: &mut ByteWriter, dictionary_ratio: f64) -> ChunkEncoding {
    let mut dict: Vec<&String> = vals.to_vec();
    dict.sort_unstable();
    dict.dedup();
    if !vals.is_empty() && (dict.len() as f64) <= (vals.len() as f64) * dictionary_ratio {
        w.put_u8(1); // dictionary encoding
        w.put_varint(dict.len() as u64);
        for s in &dict {
            w.put_str(s);
        }
        let indexes: Vec<i64> = vals
            .iter()
            // invariant: `dict` was built from these exact values
            // (sorted + deduped just above), so every value is present
            // in the search.
            .map(|s| dict.binary_search(s).expect("value in its own dictionary") as i64)
            .collect();
        crate::encoding::rle_encode_i64(&indexes, w);
        ChunkEncoding::Dictionary
    } else {
        w.put_u8(0); // plain encoding
        for s in vals {
            w.put_str(s);
        }
        ChunkEncoding::Plain
    }
}

/// Encode one column chunk. Layout: null-bitmap section then typed data.
/// Returns the physical encoding chosen (recorded in stripe stats).
pub(crate) fn encode_column(
    col: &ColumnVector,
    w: &mut ByteWriter,
    dictionary_ratio: f64,
) -> Result<ChunkEncoding> {
    // Null section: 0 = no nulls, 1 = varint-delta positions list.
    let null_positions: Vec<u64> = (0..col.len())
        .filter(|&i| col.is_null(i))
        .map(|i| i as u64)
        .collect();
    if null_positions.is_empty() {
        w.put_u8(0);
    } else {
        w.put_u8(1);
        w.put_varint(null_positions.len() as u64);
        let mut prev = 0u64;
        for p in &null_positions {
            w.put_varint(p - prev);
            prev = *p;
        }
    }
    match col {
        ColumnVector::Boolean(v, _) => {
            let ints: Vec<i64> = v.iter().map(|&b| b as i64).collect();
            crate::encoding::rle_encode_i64(&ints, w);
        }
        ColumnVector::Int(v, _) | ColumnVector::Date(v, _) => {
            let ints: Vec<i64> = v.iter().map(|&x| x as i64).collect();
            crate::encoding::rle_encode_i64(&ints, w);
        }
        ColumnVector::BigInt(v, _) | ColumnVector::Timestamp(v, _) => {
            crate::encoding::rle_encode_i64(v, w);
        }
        ColumnVector::Double(v, _) => {
            for &x in v {
                w.put_f64(x);
            }
        }
        // A tag, then the values as a packed integer run when every
        // one fits `i64` (whatever width the column held them at), or
        // raw when one does not.
        ColumnVector::Decimal(v, _, _) => match v.narrowed() {
            Some(narrow) => {
                w.put_u8(DECIMAL_PACKED);
                crate::encoding::rle_encode_i64(&narrow, w);
            }
            None => {
                w.put_u8(DECIMAL_RAW);
                for &x in v.to_wide().iter() {
                    w.put_i128(x);
                }
            }
        },
        ColumnVector::Str(v, _) => {
            let vals: Vec<&String> = v.iter().collect();
            return Ok(encode_str_values(&vals, w, dictionary_ratio));
        }
        // Already-encoded columns write without materializing a String
        // per row: the per-row view borrows straight from the shared
        // dictionary (the compactor's corc re-write path).
        ColumnVector::Dict { codes, dict, .. } => {
            let vals: Vec<&String> = codes.iter().map(|&c| &dict[c as usize]).collect();
            return Ok(encode_str_values(&vals, w, dictionary_ratio));
        }
    }
    Ok(ChunkEncoding::Plain)
}
