//! Dictionary-aware key handling shared by the hash operators.
//!
//! GROUP BY, window partitioning and (with translation) hash joins key
//! rows by [`KeyPart`]s: a dictionary-encoded string column contributes
//! its `u32` code — hashed and compared without cloning the string —
//! while every other column contributes the scalar value, exactly as
//! the pre-dictionary code did with `Vec<Value>` keys.

use hive_common::{hash, BitSet, ColumnVector, Value};
use std::sync::Arc;

/// One component of a grouping/partition key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum KeyPart {
    /// SQL NULL (all NULLs group together, as `Value::Null` did).
    Null,
    /// Dictionary code; only comparable against codes produced by the
    /// same [`KeyReader`] (one column's code space).
    Code(u32),
    /// Any non-dictionary value.
    Val(Value),
}

/// Per-column key accessor: resolves each row to a [`KeyPart`].
pub(crate) struct KeyReader<'a> {
    col: &'a ColumnVector,
    #[allow(clippy::type_complexity)]
    dict: Option<(&'a [u32], &'a Arc<Vec<String>>, Option<&'a BitSet>)>,
}

impl<'a> KeyReader<'a> {
    pub fn new(col: &'a ColumnVector) -> Self {
        // The code fast path requires distinct dictionary entries —
        // equal strings under different codes would split a group. All
        // engine-produced dictionaries are deduplicated; this guard
        // keeps hand-built columns correct rather than fast.
        let dict = col.dict_parts().filter(|(_, d, _)| {
            let mut seen = std::collections::HashSet::with_capacity(d.len());
            d.iter().all(|s| seen.insert(s.as_str()))
        });
        KeyReader { col, dict }
    }

    /// The key part for row `i`.
    #[inline]
    pub fn part(&self, i: usize) -> KeyPart {
        match &self.dict {
            Some((codes, _, nulls)) => {
                if nulls.is_some_and(|n| n.get(i)) {
                    KeyPart::Null
                } else {
                    KeyPart::Code(codes[i])
                }
            }
            None => {
                let v = self.col.get(i);
                if v.is_null() {
                    KeyPart::Null
                } else {
                    KeyPart::Val(v)
                }
            }
        }
    }

    /// The code fast path's parts, when active: per-row codes, the null
    /// bitmap, and the dictionary size (codes are dense below it).
    pub fn dict_codes(&self) -> Option<(&'a [u32], Option<&'a BitSet>, usize)> {
        self.dict
            .as_ref()
            .map(|(codes, d, nulls)| (*codes, *nulls, d.len()))
    }

    /// Append row `i`'s canonical key-part encoding (the flat-table key
    /// bytes, see [`hive_common::hash`]): the dictionary code on the
    /// code fast path, otherwise the cell's canonical value bytes.
    #[inline]
    pub fn encode_part_at(&self, i: usize, out: &mut Vec<u8>) {
        match &self.dict {
            Some((codes, _, nulls)) => {
                if nulls.is_some_and(|n| n.get(i)) {
                    out.push(hash::TAG_NULL);
                } else {
                    hash::encode_code(codes[i], out);
                }
            }
            None => crate::rawtable::encode_cell(self.col, i, out),
        }
    }

    /// Fold row `i`'s key-part encoding into an in-progress FNV-1a
    /// state — the column-wise hash combine step. The dict-code fast
    /// path folds five fixed bytes from a stack buffer; other columns
    /// encode into `scratch` (cleared and reused, allocation-free after
    /// warm-up) and fold that.
    #[inline]
    pub fn fold_part_at(&self, i: usize, h: u64, scratch: &mut Vec<u8>) -> u64 {
        match &self.dict {
            Some((codes, _, nulls)) => {
                if nulls.is_some_and(|n| n.get(i)) {
                    hash::fnv1a_extend(h, &[hash::TAG_NULL])
                } else {
                    let mut buf = [hash::TAG_CODE, 0, 0, 0, 0];
                    buf[1..].copy_from_slice(&codes[i].to_le_bytes());
                    hash::fnv1a_extend(h, &buf)
                }
            }
            None => {
                scratch.clear();
                crate::rawtable::encode_cell(self.col, i, scratch);
                hash::fnv1a_extend(h, scratch)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parts_follow_the_column_representation() {
        let dict = Arc::new(vec!["a".to_string(), "b".to_string()]);
        let mut nulls = BitSet::new(3);
        nulls.set(2);
        let col = ColumnVector::dict_from_codes(vec![1, 0, 0], dict, Some(nulls)).unwrap();
        let r = KeyReader::new(&col);
        assert_eq!(r.part(0), KeyPart::Code(1));
        assert_eq!(r.part(2), KeyPart::Null);
        assert_eq!(r.dict_codes().map(|(_, _, len)| len), Some(2));

        let plain = ColumnVector::Int(vec![7, 8], None);
        let rp = KeyReader::new(&plain);
        assert_eq!(rp.part(1), KeyPart::Val(Value::Int(8)));
        assert!(rp.dict_codes().is_none());
    }

    #[test]
    fn duplicate_dictionary_entries_disable_code_path() {
        // Two codes for the same string must still land in one group.
        let dict = Arc::new(vec!["x".to_string(), "x".to_string()]);
        let col = ColumnVector::dict_from_codes(vec![0, 1], dict, None).unwrap();
        let r = KeyReader::new(&col);
        assert_eq!(r.part(0), r.part(1));
        assert_eq!(r.part(0), KeyPart::Val(Value::String("x".into())));
    }
}
