//! Decode output buffers taken back from evicted cache entries.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use hive_common::{ColumnVector, DecVals};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Cleared typed buffers a chunk decode fills instead of allocating.
///
/// The LLAP cache owns one and gives it the columns of the victims no
/// query still holds (paper §5.1: the cache manages its own memory); a
/// miss decodes into one of them. A buffer is handed out only when its
/// capacity is in `[rows, 2·rows)`, so a chunk decoded into it holds at
/// most twice what the cache charges for it (`approx_bytes` counts
/// length). The shelves keep at most `cap_bytes` of capacity; a buffer
/// past that is freed. They are ordered by element type and capacity,
/// so a take costs O(log n) however many buffers wait.
#[derive(Debug)]
pub struct Spares {
    cap_bytes: usize,
    shelves: Mutex<Shelves>,
}

#[derive(Debug, Default)]
struct Shelves {
    /// Buffers by `(Spare::KIND, capacity)`, the last kept on top.
    by_fit: BTreeMap<(u8, usize), Vec<Buf>>,
    bytes: usize,
}

/// A value buffer of one of the element types a decode fills.
#[derive(Debug)]
pub(crate) enum Buf {
    I32(Vec<i32>),
    I64(Vec<i64>),
    U32(Vec<u32>),
    F64(Vec<f64>),
}

/// An element type the spares keep buffers of.
pub(crate) trait Spare: Sized {
    const KIND: u8;
    fn wrap(v: Vec<Self>) -> Buf;
    fn unwrap(b: Buf) -> Option<Vec<Self>>;
}

macro_rules! spare {
    ($t:ty, $kind:literal, $variant:ident) => {
        impl Spare for $t {
            const KIND: u8 = $kind;
            fn wrap(v: Vec<$t>) -> Buf {
                Buf::$variant(v)
            }
            fn unwrap(b: Buf) -> Option<Vec<$t>> {
                match b {
                    Buf::$variant(v) => Some(v),
                    _ => None,
                }
            }
        }
    };
}
spare!(i32, 0, I32);
spare!(i64, 1, I64);
spare!(u32, 2, U32);
spare!(f64, 3, F64);

impl Spares {
    /// Empty shelves holding at most `cap_bytes` of buffers.
    pub fn new(cap_bytes: usize) -> Self {
        Spares {
            cap_bytes,
            shelves: Mutex::default(),
        }
    }

    /// Bytes of capacity on the shelves.
    pub fn bytes(&self) -> usize {
        self.lock().bytes
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Shelves> {
        self.shelves.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Keep `col`'s value buffer, cleared, when it is one a decode
    /// fills (INT, DATE, BIGINT, TIMESTAMP, DOUBLE, a narrow DECIMAL,
    /// dictionary codes) and fits under the cap; the rest of `col` is
    /// freed, after the shelves are unlocked.
    pub fn keep(&self, col: ColumnVector) {
        match col {
            ColumnVector::Int(v, _) | ColumnVector::Date(v, _) => self.shelve(v),
            ColumnVector::BigInt(v, _)
            | ColumnVector::Timestamp(v, _)
            | ColumnVector::Decimal(DecVals::Narrow(v), ..) => self.shelve(v),
            ColumnVector::Double(v, _) => self.shelve(v),
            ColumnVector::Dict { codes, .. } => self.shelve(codes),
            _ => {}
        }
    }

    fn shelve<T: Spare>(&self, mut v: Vec<T>) {
        let bytes = v.capacity() * std::mem::size_of::<T>();
        let mut s = self.lock();
        if bytes == 0 || s.bytes + bytes > self.cap_bytes {
            return;
        }
        v.clear();
        s.bytes += bytes;
        let fit = (T::KIND, v.capacity());
        s.by_fit.entry(fit).or_default().push(T::wrap(v));
    }

    /// An empty buffer for `rows` values: the most recently kept spare
    /// of the least capacity in `[rows, 2·rows)`, or a new allocation.
    pub(crate) fn take<T: Spare>(&self, rows: usize) -> Vec<T> {
        let taken = {
            let mut s = self.lock();
            let fits = (T::KIND, rows)..(T::KIND, rows.saturating_mul(2));
            let fit = s.by_fit.range(fits).next().map(|(&fit, _)| fit);
            let taken = fit.and_then(|fit| {
                let same = s.by_fit.get_mut(&fit)?;
                let v = same.pop();
                if same.is_empty() {
                    s.by_fit.remove(&fit);
                }
                v.and_then(T::unwrap)
            });
            if let Some(v) = &taken {
                s.bytes -= v.capacity() * std::mem::size_of::<T>();
            }
            taken
        };
        taken.unwrap_or_else(|| Vec::with_capacity(rows))
    }
}

/// A buffer for `rows` values: from `spares` when there are any.
pub(crate) fn buffer<T: Spare>(spares: Option<&Spares>, rows: usize) -> Vec<T> {
    match spares {
        Some(s) => s.take(rows),
        None => Vec::with_capacity(rows),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn takes_only_a_close_fit_and_keeps_under_the_cap() {
        let spares = Spares::new(64 * 8);
        spares.keep(ColumnVector::BigInt(Vec::with_capacity(40), None));
        spares.keep(ColumnVector::Int(vec![1; 10], None));
        // 40 i64s and 10 i32s: 360 bytes; 40 more i64s would pass 512.
        spares.keep(ColumnVector::Timestamp(Vec::with_capacity(40), None));
        assert_eq!(spares.bytes(), 40 * 8 + 10 * 4);
        // Capacity 40 serves 21..=40 rows, and only as i64s.
        assert_eq!(spares.take::<i64>(20).capacity(), 20);
        assert_eq!(spares.take::<u32>(30).capacity(), 30);
        let v = spares.take::<i64>(21);
        assert!(v.is_empty() && v.capacity() == 40);
        assert_eq!(spares.bytes(), 10 * 4);
        let v = spares.take::<i32>(10);
        assert!(v.is_empty() && v.capacity() == 10);
        assert_eq!(spares.bytes(), 0);
        // Nothing is kept of a column a decode never fills.
        spares.keep(ColumnVector::Str(vec!["a".into()], None));
        assert_eq!(spares.bytes(), 0);
    }
}
