//! # hive-corc
//!
//! A columnar file format modeled on Apache ORC (the paper's Section 2
//! and [39]): data is laid out in **row groups** (default 10k rows) of
//! per-column encoded streams, with per-row-group min/max statistics and
//! optional Bloom filters in the file footer.
//!
//! The format supports the two pushdowns the paper's I/O elevator relies
//! on (Section 5.1): **projection** (only requested column streams are
//! read) and **sargable predicates** (row groups whose statistics or
//! Bloom filters disprove the predicate are skipped without reading
//! data). Both pushdowns operate through ranged DFS reads, so the I/O
//! meter observes exactly the bytes a real columnar reader would fetch.
//!
//! The stripe level of real ORC is collapsed: row groups are the unit of
//! both skipping and caching (LLAP chunks are `(file, column, row group)`).

pub mod bloom;
pub mod encoding;
pub mod reader;
pub mod sarg;
pub mod spares;
pub mod stats;
pub mod writer;

pub use bloom::BloomFilter;
pub use reader::CorcFile;
pub use sarg::{ColumnPredicate, KeyFilter, SearchArgument, TruthValue};
pub use spares::Spares;
pub use stats::ColumnStatistics;
pub use writer::{CorcWriter, WriterOptions};

/// Default rows per row group (ORC's index stride).
pub const DEFAULT_ROW_GROUP_SIZE: usize = 10_000;

/// Magic bytes identifying a corc file, and with them its layout
/// version: `COR3` files pack literal integer runs into bit fields
/// ([`encoding::rle_encode_i64`]), and decimal chunks whose values all
/// fit `i64` are such runs too ([`DECIMAL_PACKED`]).
pub const MAGIC: &[u8; 4] = b"COR3";

/// The magics of earlier layouts, each with what this one changed. No
/// decoder for them is kept: such a file is a typed format error.
pub(crate) const OLD_MAGICS: [(&[u8; 4], &str); 2] = [
    (b"CORC", "v1 corc layout (varint literal runs)"),
    (b"COR2", "v2 corc layout (raw 16-byte decimals)"),
];

/// A decimal chunk's data starts with one of these tags: the unscaled
/// values as one [`encoding::rle_encode_i64`] stream (every value fits
/// `i64`), or as raw little-endian `i128`s.
pub(crate) const DECIMAL_PACKED: u8 = 0;
pub(crate) const DECIMAL_RAW: u8 = 1;
