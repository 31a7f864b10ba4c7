//! Window peer comparison's view of an ORDER BY key column.
//!
//! Rows are peers when every order key's [`KeyPart`] is equal. The key
//! layer classifies the column ([`KeyCol`]): a dictionary-encoded string
//! column over a duplicate-free dictionary contributes its `u32` code,
//! every other column the scalar value.

use crate::keys::KeyCol;
use hive_common::Value;

/// One component of a window ORDER BY key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum KeyPart {
    /// SQL NULL (all NULLs group together, as `Value::Null` did).
    Null,
    /// Dictionary code; only comparable against codes of the same
    /// column (one code space).
    Code(u32),
    /// Any non-dictionary value.
    Val(Value),
}

impl KeyCol<'_> {
    /// The key part for row `i` of a column classified by
    /// [`KeyCol::group`].
    #[inline]
    pub(crate) fn part(&self, i: usize) -> KeyPart {
        match self.codes() {
            Some(codes) => {
                if self.nulls().is_some_and(|n| n.get(i)) {
                    KeyPart::Null
                } else {
                    KeyPart::Code(codes.at(i))
                }
            }
            None => {
                let v = self.col().get(i);
                if v.is_null() {
                    KeyPart::Null
                } else {
                    KeyPart::Val(v)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::{BitSet, ColumnVector};
    use std::sync::Arc;

    #[test]
    fn parts_follow_the_column_representation() {
        let dict = Arc::new(vec!["a".to_string(), "b".to_string()]);
        let mut nulls = BitSet::new(3);
        nulls.set(2);
        let col = ColumnVector::dict_from_codes(vec![1, 0, 0], dict, Some(nulls)).unwrap();
        let r = KeyCol::group(&col);
        assert_eq!(r.part(0), KeyPart::Code(1));
        assert_eq!(r.part(2), KeyPart::Null);
        assert_eq!(r.codes().map(|c| c.space), Some(2));

        let plain = ColumnVector::Int(vec![7, 8], None);
        let rp = KeyCol::group(&plain);
        assert_eq!(rp.part(1), KeyPart::Val(Value::Int(8)));
        assert!(rp.codes().is_none());
    }

    #[test]
    fn duplicate_dictionary_entries_disable_code_path() {
        // Two codes for the same string must still land in one group.
        let dict = Arc::new(vec!["x".to_string(), "x".to_string()]);
        let col = ColumnVector::dict_from_codes(vec![0, 1], dict, None).unwrap();
        let r = KeyCol::group(&col);
        assert_eq!(r.part(0), r.part(1));
        assert_eq!(r.part(0), KeyPart::Val(Value::String("x".into())));
    }
}
