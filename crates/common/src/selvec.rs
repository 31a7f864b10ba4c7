//! Selection vectors: late filtering without compaction.
//!
//! A [`SelVec`] names the visible rows of a [`VectorBatch`] — either
//! every row (`All`, the common fast case carrying just a length) or an
//! explicit index list (`Idx`). Operators pass `(batch, sel)` pairs
//! ([`SelBatch`]) down the pipeline so a selective filter over a wide
//! scan drops rows by *narrowing the selection* instead of copying
//! every surviving column (the paper's §5.1 emphasis on operating
//! directly over cached columnar data). Compaction —
//! [`SelBatch::compact`], a single [`VectorBatch::take`] — happens only
//! at true pipeline breakers: hash-join build sides, union/set-op
//! buffers, and the final output choke point in the driver (the same
//! place dictionary codes decode).
//!
//! `Idx` indices are unique but not necessarily ascending: Sort emits
//! its output permutation as a selection, so downstream consumers must
//! not assume ordering.

use crate::error::{HiveError, Result};
use crate::vector::VectorBatch;
use serde::{Deserialize, Serialize};

/// Ordered row indices into a batch, with a cheap "all rows" variant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SelVec {
    /// Every row of a batch with this many rows, in order.
    All(usize),
    /// An explicit list of row indices (unique; order is significant
    /// and may be a non-identity permutation after Sort).
    Idx(Vec<u32>),
}

impl SelVec {
    /// The identity selection over `n` rows.
    pub fn all(n: usize) -> SelVec {
        SelVec::All(n)
    }

    /// Number of selected rows.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            SelVec::All(n) => *n,
            SelVec::Idx(v) => v.len(),
        }
    }

    /// True when no rows are selected.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True for the `All` variant (identity over the underlying batch).
    /// An `Idx` that happens to enumerate every row in order still
    /// answers false — callers use this only as a fast-path hint.
    #[inline]
    pub fn is_all(&self) -> bool {
        matches!(self, SelVec::All(_))
    }

    /// Underlying row index of selected position `pos`.
    #[inline]
    pub fn index(&self, pos: usize) -> usize {
        match self {
            SelVec::All(_) => pos,
            SelVec::Idx(v) => v[pos] as usize,
        }
    }

    /// Iterate the underlying row indices in selection order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).map(move |p| self.index(p))
    }

    /// The explicit index list; `None` for `All`.
    #[inline]
    pub fn as_indices(&self) -> Option<&[u32]> {
        match self {
            SelVec::All(_) => None,
            SelVec::Idx(v) => Some(v),
        }
    }

    /// Materialize as an index list (allocates for `All`).
    pub fn to_indices(&self) -> Vec<u32> {
        match self {
            SelVec::All(n) => (0..*n as u32).collect(),
            SelVec::Idx(v) => v.clone(),
        }
    }

    /// Narrow this selection to `positions` *within it*: position `p`
    /// of the result is `self.index(positions[p])`. This is how a
    /// filter over an already-filtered batch stays index-based.
    pub fn compose(&self, positions: &[u32]) -> SelVec {
        match self {
            SelVec::All(_) => SelVec::Idx(positions.to_vec()),
            SelVec::Idx(v) => SelVec::Idx(positions.iter().map(|&p| v[p as usize]).collect()),
        }
    }

    /// Keep only the first `k` selected positions (LIMIT).
    pub fn truncate(self, k: usize) -> SelVec {
        if k >= self.len() {
            return self;
        }
        match self {
            SelVec::All(_) => SelVec::Idx((0..k as u32).collect()),
            SelVec::Idx(mut v) => {
                v.truncate(k);
                SelVec::Idx(v)
            }
        }
    }
}

/// A batch plus the selection naming its visible rows. The unit of data
/// flow between pipeline operators; `batch` columns are `Arc`-shared so
/// passing a `SelBatch` copies no column data.
#[derive(Debug, Clone, PartialEq)]
pub struct SelBatch {
    pub batch: VectorBatch,
    pub sel: SelVec,
}

impl SelBatch {
    /// Pair a batch with a selection; every index must be in range.
    pub fn new(batch: VectorBatch, sel: SelVec) -> Result<SelBatch> {
        let n = batch.num_rows();
        let ok = match &sel {
            SelVec::All(m) => *m == n,
            SelVec::Idx(v) => v.iter().all(|&i| (i as usize) < n),
        };
        if !ok {
            return Err(HiveError::Execution(format!(
                "selection out of range for batch of {n} rows"
            )));
        }
        Ok(SelBatch { batch, sel })
    }

    /// Wrap a batch with the identity selection.
    pub fn from_batch(batch: VectorBatch) -> SelBatch {
        let sel = SelVec::All(batch.num_rows());
        SelBatch { batch, sel }
    }

    /// Visible row count.
    #[inline]
    pub fn num_rows(&self) -> usize {
        self.sel.len()
    }

    /// The batch schema.
    pub fn schema(&self) -> &crate::schema::Schema {
        self.batch.schema()
    }

    /// True when the selection is the identity (`All`).
    pub fn is_compact(&self) -> bool {
        self.sel.is_all()
    }

    /// Materialize the selected rows: free for `All`, one gather for
    /// `Idx`. The only place selection vectors turn into copies.
    pub fn compact(self) -> VectorBatch {
        match self.sel {
            SelVec::All(_) => self.batch,
            SelVec::Idx(idx) => self.batch.take(&idx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Field, Schema};
    use crate::types::DataType;
    use crate::vector::ColumnVector;

    fn batch(n: i32) -> VectorBatch {
        let schema = Schema::new(vec![Field::new("x", DataType::Int)]);
        VectorBatch::new(schema, vec![ColumnVector::Int((0..n).collect(), None)]).unwrap()
    }

    #[test]
    fn all_is_identity() {
        let s = SelVec::all(4);
        assert_eq!(s.len(), 4);
        assert!(s.is_all());
        assert_eq!(s.index(3), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        assert_eq!(s.to_indices(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn compose_maps_through_existing_selection() {
        let s = SelVec::Idx(vec![5, 7, 9, 11]);
        let narrowed = s.compose(&[0, 2]);
        assert_eq!(narrowed, SelVec::Idx(vec![5, 9]));
        let from_all = SelVec::all(10).compose(&[3, 1]);
        assert_eq!(from_all, SelVec::Idx(vec![3, 1]));
    }

    #[test]
    fn truncate_limits_positions() {
        assert_eq!(SelVec::all(5).truncate(2), SelVec::Idx(vec![0, 1]));
        assert_eq!(SelVec::all(5).truncate(9), SelVec::All(5));
        assert_eq!(
            SelVec::Idx(vec![4, 2, 0]).truncate(2),
            SelVec::Idx(vec![4, 2])
        );
    }

    #[test]
    fn compact_gathers_only_for_idx() {
        let b = batch(4);
        let all = SelBatch::from_batch(b.clone()).compact();
        assert_eq!(all, b);
        let sb = SelBatch::new(b.clone(), SelVec::Idx(vec![3, 1])).unwrap();
        assert_eq!(sb.num_rows(), 2);
        let c = sb.compact();
        assert_eq!(c.num_rows(), 2);
        assert_eq!(c.column(0), &ColumnVector::Int(vec![3, 1], None));
    }

    #[test]
    fn out_of_range_selection_rejected() {
        let b = batch(2);
        assert!(SelBatch::new(b.clone(), SelVec::Idx(vec![2])).is_err());
        assert!(SelBatch::new(b, SelVec::All(3)).is_err());
    }
}
