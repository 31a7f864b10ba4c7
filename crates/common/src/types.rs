//! The SQL type system.
//!
//! Mirrors the atomic types Hive supports (Section 3.1 of the paper);
//! the nested types (STRUCT/ARRAY/MAP) are represented but only atomic
//! types flow through the vectorized engine.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A SQL data type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// BOOLEAN
    Boolean,
    /// INT (32-bit signed)
    Int,
    /// BIGINT (64-bit signed)
    BigInt,
    /// DOUBLE (64-bit IEEE float)
    Double,
    /// DECIMAL(precision, scale): precision `1..=38`, scale at most the
    /// precision ([`DataType::decimal`]). A column holds its unscaled
    /// values as `i64` or `i128`, by content ([`crate::DecVals`]).
    Decimal(u8, u8),
    /// STRING / VARCHAR (length constraints are not enforced).
    String,
    /// DATE stored as days since the epoch (1970-01-01).
    Date,
    /// TIMESTAMP stored as microseconds since the epoch.
    Timestamp,
    /// STRUCT<name: type, ...> — catalog-representable, not vectorized.
    Struct(Vec<(String, DataType)>),
    /// ARRAY<type> — catalog-representable, not vectorized.
    Array(Box<DataType>),
    /// MAP<key, value> — catalog-representable, not vectorized.
    Map(Box<DataType>, Box<DataType>),
    /// The type of NULL literals before coercion.
    Null,
}

impl DataType {
    /// DECIMAL(`precision`, `scale`), or why it is no type: the precision
    /// must lie in `1..=38` (the digits an `i128` holds) and the scale
    /// may not exceed it.
    pub fn decimal(precision: u64, scale: u64) -> std::result::Result<DataType, String> {
        match (u8::try_from(precision), u8::try_from(scale)) {
            (Ok(p @ 1..=38), Ok(s)) if s <= p => Ok(DataType::Decimal(p, s)),
            _ if !(1..=38).contains(&precision) => {
                Err(format!("DECIMAL precision {precision} outside 1..=38"))
            }
            _ => Err(format!(
                "DECIMAL scale {scale} above its precision {precision}"
            )),
        }
    }

    /// True for types the vectorized engine can process.
    pub fn is_atomic(&self) -> bool {
        !matches!(
            self,
            DataType::Struct(_) | DataType::Array(_) | DataType::Map(_, _)
        )
    }

    /// True for types usable in arithmetic.
    pub fn is_numeric(&self) -> bool {
        matches!(
            self,
            DataType::Int | DataType::BigInt | DataType::Double | DataType::Decimal(_, _)
        )
    }

    /// True for integer-family types.
    pub fn is_integer(&self) -> bool {
        matches!(self, DataType::Int | DataType::BigInt)
    }

    /// The common supertype two operands coerce to, if any.
    ///
    /// The lattice is: Int < BigInt < Decimal < Double; Date < Timestamp;
    /// Null coerces to anything; identical types coerce to themselves.
    pub fn common_supertype(a: &DataType, b: &DataType) -> Option<DataType> {
        use DataType::*;
        if a == b {
            return Some(a.clone());
        }
        match (a, b) {
            (Null, t) | (t, Null) => Some(t.clone()),
            (Int, BigInt) | (BigInt, Int) => Some(BigInt),
            (Int, Double) | (Double, Int) | (BigInt, Double) | (Double, BigInt) => Some(Double),
            (Decimal(_, _), Double) | (Double, Decimal(_, _)) => Some(Double),
            (Int, Decimal(p, s)) | (Decimal(p, s), Int) => Some(Decimal((*p).max(10 + *s), *s)),
            (BigInt, Decimal(p, s)) | (Decimal(p, s), BigInt) => {
                Some(Decimal((*p).max(19 + *s).min(38), *s))
            }
            (Decimal(p1, s1), Decimal(p2, s2)) => {
                let s = (*s1).max(*s2);
                let int_digits = (p1 - s1).max(p2 - s2);
                Some(Decimal((int_digits + s).min(38), s))
            }
            (Date, Timestamp) | (Timestamp, Date) => Some(Timestamp),
            (String, Date) | (Date, String) => Some(Date),
            (String, Timestamp) | (Timestamp, String) => Some(Timestamp),
            // Hive-style lenient string/number comparisons go through double.
            (String, t) | (t, String) if t.is_numeric() => Some(Double),
            _ => None,
        }
    }

    /// Result type of an arithmetic operation between two types.
    pub fn arithmetic_result(a: &DataType, b: &DataType) -> Option<DataType> {
        let t = Self::common_supertype(a, b)?;
        t.is_numeric().then_some(t)
    }

    /// Approximate in-memory width of one value, used by the cost model.
    pub fn approx_width(&self) -> usize {
        match self {
            DataType::Boolean => 1,
            DataType::Int | DataType::Date => 4,
            DataType::BigInt | DataType::Double | DataType::Timestamp => 8,
            DataType::Decimal(_, _) => 16,
            DataType::String => 24,
            DataType::Struct(fs) => fs.iter().map(|(_, t)| t.approx_width()).sum(),
            DataType::Array(t) | DataType::Map(_, t) => 8 * t.approx_width(),
            DataType::Null => 1,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataType::Boolean => write!(f, "BOOLEAN"),
            DataType::Int => write!(f, "INT"),
            DataType::BigInt => write!(f, "BIGINT"),
            DataType::Double => write!(f, "DOUBLE"),
            DataType::Decimal(p, s) => write!(f, "DECIMAL({p},{s})"),
            DataType::String => write!(f, "STRING"),
            DataType::Date => write!(f, "DATE"),
            DataType::Timestamp => write!(f, "TIMESTAMP"),
            DataType::Struct(fs) => {
                write!(f, "STRUCT<")?;
                for (i, (n, t)) in fs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{n}: {t}")?;
                }
                write!(f, ">")
            }
            DataType::Array(t) => write!(f, "ARRAY<{t}>"),
            DataType::Map(k, v) => write!(f, "MAP<{k}, {v}>"),
            DataType::Null => write!(f, "NULL"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn supertype_lattice() {
        use DataType::*;
        assert_eq!(DataType::common_supertype(&Int, &BigInt), Some(BigInt));
        assert_eq!(DataType::common_supertype(&Int, &Double), Some(Double));
        assert_eq!(
            DataType::common_supertype(&Decimal(7, 2), &Decimal(10, 4)),
            Some(Decimal(10, 4))
        );
        assert_eq!(DataType::common_supertype(&Null, &String), Some(String));
        assert_eq!(
            DataType::common_supertype(&Date, &Timestamp),
            Some(Timestamp)
        );
        assert_eq!(DataType::common_supertype(&Boolean, &Int), None);
    }

    #[test]
    fn string_number_comparison_goes_through_double() {
        assert_eq!(
            DataType::common_supertype(&DataType::String, &DataType::Int),
            Some(DataType::Double)
        );
    }

    #[test]
    fn display_round_trips_common_types() {
        assert_eq!(DataType::Decimal(7, 2).to_string(), "DECIMAL(7,2)");
        assert_eq!(
            DataType::Array(Box::new(DataType::Int)).to_string(),
            "ARRAY<INT>"
        );
    }

    #[test]
    fn atomic_and_numeric_flags() {
        assert!(DataType::Decimal(10, 2).is_numeric());
        assert!(!DataType::String.is_numeric());
        assert!(DataType::String.is_atomic());
        assert!(!DataType::Array(Box::new(DataType::Int)).is_atomic());
    }
}
