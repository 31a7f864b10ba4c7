//! Scalar values and value-level operations.

use crate::dates;
use crate::error::{HiveError, Result};
use crate::types::DataType;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// A single scalar SQL value.
///
/// `Decimal` carries its own scale so values are self-describing;
/// arithmetic rescales operands to a common scale.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL NULL.
    Null,
    Boolean(bool),
    Int(i32),
    BigInt(i64),
    Double(f64),
    /// Unscaled integer plus scale: `Decimal(12345, 2)` is `123.45`.
    Decimal(i128, u8),
    String(String),
    /// Days since 1970-01-01.
    Date(i32),
    /// Microseconds since 1970-01-01T00:00:00.
    Timestamp(i64),
}

impl Value {
    /// The data type of this value (`DataType::Null` for NULL).
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Boolean(_) => DataType::Boolean,
            Value::Int(_) => DataType::Int,
            Value::BigInt(_) => DataType::BigInt,
            Value::Double(_) => DataType::Double,
            Value::Decimal(_, s) => DataType::Decimal(38, *s),
            Value::String(_) => DataType::String,
            Value::Date(_) => DataType::Date,
            Value::Timestamp(_) => DataType::Timestamp,
        }
    }

    /// True iff this is SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view as f64, if the value is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::BigInt(v) => Some(*v as f64),
            Value::Double(v) => Some(*v),
            Value::Decimal(u, s) => Some(dec_to_f64(*u, *s)),
            _ => None,
        }
    }

    /// Integer view as i64, if the value is integral (or an integral date).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v as i64),
            Value::BigInt(v) => Some(*v),
            Value::Date(v) => Some(*v as i64),
            Value::Timestamp(v) => Some(*v),
            Value::Boolean(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// String view, if the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Cast this value to `target`, following Hive's lenient cast rules
    /// (failed string→number casts yield NULL rather than erroring).
    pub fn cast_to(&self, target: &DataType) -> Result<Value> {
        use DataType as T;
        if self.is_null() {
            return Ok(Value::Null);
        }
        let out = match (self, target) {
            (v, t) if v.data_type() == *t => v.clone(),
            (Value::Int(v), T::BigInt) => Value::BigInt(*v as i64),
            (Value::Int(v), T::Double) => Value::Double(*v as f64),
            (Value::Int(v), T::Decimal(_, s)) => Value::Decimal(*v as i128 * pow10(*s), *s),
            (Value::Int(v), T::String) => Value::String(v.to_string()),
            (Value::Int(v), T::Boolean) => Value::Boolean(*v != 0),
            (Value::BigInt(v), T::Int) => Value::Int(*v as i32),
            (Value::BigInt(v), T::Double) => Value::Double(*v as f64),
            (Value::BigInt(v), T::Decimal(_, s)) => Value::Decimal(*v as i128 * pow10(*s), *s),
            (Value::BigInt(v), T::String) => Value::String(v.to_string()),
            (Value::BigInt(v), T::Timestamp) => Value::Timestamp(*v),
            (Value::Double(v), T::Int) => Value::Int(*v as i32),
            (Value::Double(v), T::BigInt) => Value::BigInt(*v as i64),
            (Value::Double(v), T::Decimal(_, s)) => {
                Value::Decimal((*v * pow10(*s) as f64).round() as i128, *s)
            }
            (Value::Double(v), T::String) => Value::String(format_double(*v)),
            (Value::Decimal(u, s), T::Double) => Value::Double(*u as f64 / pow10(*s) as f64),
            (Value::Decimal(u, s), T::Int) => Value::Int((u / pow10(*s)) as i32),
            (Value::Decimal(u, s), T::BigInt) => Value::BigInt((u / pow10(*s)) as i64),
            (Value::Decimal(u, s), T::Decimal(_, s2)) => Value::Decimal(rescale(*u, *s, *s2), *s2),
            (Value::Decimal(u, s), T::String) => Value::String(format_decimal(*u, *s)),
            (Value::Boolean(b), T::Int) => Value::Int(*b as i32),
            (Value::Boolean(b), T::String) => Value::String(b.to_string()),
            (Value::String(s), T::Int) => s
                .trim()
                .parse::<i32>()
                .map(Value::Int)
                .unwrap_or(Value::Null),
            (Value::String(s), T::BigInt) => s
                .trim()
                .parse::<i64>()
                .map(Value::BigInt)
                .unwrap_or(Value::Null),
            (Value::String(s), T::Double) => s
                .trim()
                .parse::<f64>()
                .map(Value::Double)
                .unwrap_or(Value::Null),
            (Value::String(s), T::Decimal(_, sc)) => parse_decimal(s, *sc)
                .map(|u| Value::Decimal(u, *sc))
                .unwrap_or(Value::Null),
            (Value::String(s), T::Date) => {
                dates::parse_date(s).map(Value::Date).unwrap_or(Value::Null)
            }
            (Value::String(s), T::Timestamp) => dates::parse_timestamp(s)
                .map(Value::Timestamp)
                .unwrap_or(Value::Null),
            (Value::String(s), T::Boolean) => match s.to_ascii_lowercase().as_str() {
                "true" => Value::Boolean(true),
                "false" => Value::Boolean(false),
                _ => Value::Null,
            },
            (Value::Date(d), T::Timestamp) => Value::Timestamp(*d as i64 * 86_400_000_000),
            (Value::Date(d), T::String) => Value::String(dates::format_date(*d)),
            (Value::Timestamp(t), T::Date) => Value::Date(t.div_euclid(86_400_000_000) as i32),
            (Value::Timestamp(t), T::String) => Value::String(dates::format_timestamp(*t)),
            (Value::Timestamp(t), T::BigInt) => Value::BigInt(*t),
            (v, t) => {
                return Err(HiveError::Execution(format!(
                    "cannot cast {} to {t}",
                    v.data_type()
                )))
            }
        };
        Ok(out)
    }

    /// SQL comparison: returns `None` when either side is NULL, following
    /// three-valued logic. Values of different numeric types compare by
    /// numeric value; strings compare lexically.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        use Value::*;
        if self.is_null() || other.is_null() {
            return None;
        }
        match (self, other) {
            (Boolean(a), Boolean(b)) => Some(a.cmp(b)),
            (String(a), String(b)) => Some(a.cmp(b)),
            (Date(a), Date(b)) => Some(a.cmp(b)),
            (Timestamp(a), Timestamp(b)) => Some(a.cmp(b)),
            (Date(a), Timestamp(b)) => Some((*a as i64 * 86_400_000_000).cmp(b)),
            (Timestamp(a), Date(b)) => Some(a.cmp(&(*b as i64 * 86_400_000_000))),
            (Decimal(u1, s1), Decimal(u2, s2)) => {
                let s = (*s1).max(*s2);
                Some(rescale(*u1, *s1, s).cmp(&rescale(*u2, *s2, s)))
            }
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (BigInt(a), BigInt(b)) => Some(a.cmp(b)),
            (Int(a), BigInt(b)) => Some((*a as i64).cmp(b)),
            (BigInt(a), Int(b)) => Some(a.cmp(&(*b as i64))),
            (Decimal(u, s), Int(b)) => Some(u.cmp(&(*b as i128 * pow10(*s)))),
            (Int(a), Decimal(u, s)) => Some((*a as i128 * pow10(*s)).cmp(u)),
            (Decimal(u, s), BigInt(b)) => Some(u.cmp(&(*b as i128 * pow10(*s)))),
            (BigInt(a), Decimal(u, s)) => Some((*a as i128 * pow10(*s)).cmp(u)),
            _ => {
                let a = self.as_f64()?;
                let b = other.as_f64()?;
                a.partial_cmp(&b)
            }
        }
    }

    /// Total order used by ORDER BY and sort operators: NULLs sort last
    /// (Hive's default `nulls last` for ascending order).
    pub fn total_cmp_nulls_last(&self, other: &Value) -> Ordering {
        match (self.is_null(), other.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Greater,
            (false, true) => Ordering::Less,
            (false, false) => self.sql_cmp(other).unwrap_or(Ordering::Equal),
        }
    }

    /// Equality under SQL semantics but with NULL == NULL, used by
    /// GROUP BY / DISTINCT grouping.
    pub fn group_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (a, b) if a.is_null() || b.is_null() => false,
            (a, b) => a.sql_cmp(b) == Some(Ordering::Equal),
        }
    }

    /// Add two numeric values with type promotion.
    pub fn add(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, "+", |a, b| a.checked_add(b), |a, b| a + b)
    }

    /// Subtract with type promotion.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        numeric_binop(self, other, "-", |a, b| a.checked_sub(b), |a, b| a - b)
    }

    /// Multiply with type promotion. Decimal scales add.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        match (self, other) {
            (Value::Decimal(u1, s1), Value::Decimal(u2, s2)) => {
                let s = (*s1 + *s2).min(18);
                let raw = u1.checked_mul(*u2).ok_or_else(decimal_mul_overflow)?; // scale s1+s2
                Ok(Value::Decimal(rescale(raw, s1 + s2, s), s))
            }
            // Decimal × integer keeps the decimal's scale.
            (Value::Decimal(u, s), other_v) | (other_v, Value::Decimal(u, s))
                if other_v.data_type().is_integer() =>
            {
                let y = other_v.as_i64().ok_or_else(decimal_mul_overflow)? as i128;
                u.checked_mul(y)
                    .map(|v| Value::Decimal(v, *s))
                    .ok_or_else(decimal_mul_overflow)
            }
            _ => numeric_binop(self, other, "*", |a, b| a.checked_mul(b), |a, b| a * b),
        }
    }

    /// Divide. Integer division by zero yields NULL (Hive semantics).
    /// Integer/integer division produces DOUBLE, matching Hive's `/`.
    pub fn div(&self, other: &Value) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        let b = other
            .as_f64()
            .ok_or_else(|| HiveError::Execution("non-numeric divisor".into()))?;
        if b == 0.0 {
            return Ok(Value::Null);
        }
        let a = self
            .as_f64()
            .ok_or_else(|| HiveError::Execution("non-numeric dividend".into()))?;
        Ok(Value::Double(a / b))
    }

    /// Modulo; NULL on zero divisor.
    pub fn rem(&self, other: &Value) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        match (self.as_i64(), other.as_i64()) {
            (Some(a), Some(b)) => Ok(if b == 0 {
                Value::Null
            } else {
                Value::BigInt(a % b)
            }),
            _ => {
                let a = self
                    .as_f64()
                    .ok_or_else(|| HiveError::Execution("non-numeric modulo operand".into()))?;
                let b = other
                    .as_f64()
                    .ok_or_else(|| HiveError::Execution("non-numeric modulo operand".into()))?;
                Ok(if b == 0.0 {
                    Value::Null
                } else {
                    Value::Double(a % b)
                })
            }
        }
    }

    /// Arithmetic negation.
    pub fn neg(&self) -> Result<Value> {
        match self {
            Value::Null => Ok(Value::Null),
            Value::Int(v) => Ok(Value::Int(-v)),
            Value::BigInt(v) => Ok(Value::BigInt(-v)),
            Value::Double(v) => Ok(Value::Double(-v)),
            Value::Decimal(u, s) => Ok(Value::Decimal(-u, *s)),
            v => Err(HiveError::Execution(format!(
                "cannot negate {}",
                v.data_type()
            ))),
        }
    }

    /// A stable hash for grouping/shuffling. NULL hashes to a fixed value;
    /// numeric types hash by normalized numeric value so `INT 1` and
    /// `BIGINT 1` land in the same group/partition.
    pub fn hash_value<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => NULL_HASH_MARKER.hash(state),
            Value::Boolean(b) => (*b as i64).hash(state),
            Value::Int(v) => (*v as i64).hash(state),
            Value::BigInt(v) => v.hash(state),
            Value::Double(v) => {
                if v.fract() == 0.0 && v.abs() < 9e18 {
                    (*v as i64).hash(state)
                } else {
                    v.to_bits().hash(state)
                }
            }
            Value::Decimal(u, s) => {
                // Normalize to integer when possible for cross-type grouping.
                let p = pow10(*s);
                if u % p == 0 {
                    ((u / p) as i64).hash(state)
                } else {
                    u.hash(state);
                    s.hash(state);
                }
            }
            Value::String(v) => v.hash(state),
            Value::Date(v) => (*v as i64).hash(state),
            Value::Timestamp(v) => v.hash(state),
        }
    }
}

/// Sentinel hashed in place of NULL so all NULLs land in one group.
const NULL_HASH_MARKER: i64 = 0x6e75_6c6c; // "null"

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.group_eq(other)
    }
}
impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.hash_value(state)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Boolean(b) => write!(f, "{b}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::BigInt(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{}", format_double(*v)),
            Value::Decimal(u, s) => write!(f, "{}", format_decimal(*u, *s)),
            Value::String(s) => write!(f, "{s}"),
            Value::Date(d) => write!(f, "{}", dates::format_date(*d)),
            Value::Timestamp(t) => write!(f, "{}", dates::format_timestamp(*t)),
        }
    }
}

fn decimal_mul_overflow() -> HiveError {
    HiveError::Execution("decimal overflow in *".into())
}

/// Raise 10 to `s` as i128.
pub fn pow10(s: u8) -> i128 {
    10i128.pow(s as u32)
}

/// A decimal as `f64`: the unscaled integer converted, then *divided*
/// by `10^scale` (a reciprocal multiply rounds differently). Every
/// decimal-to-double conversion goes through here. An unscaled value
/// that fits `i64` converts through `i64` — the same correctly rounded
/// `f64` as the `i128` conversion, bit for bit, without its software
/// routine.
#[inline]
pub fn dec_to_f64(unscaled: i128, scale: u8) -> f64 {
    let x = match i64::try_from(unscaled) {
        Ok(small) => small as f64,
        Err(_) => unscaled as f64,
    };
    x / 10f64.powi(scale as i32)
}

/// Change a decimal's scale, rounding half away from zero when reducing.
pub fn rescale(unscaled: i128, from: u8, to: u8) -> i128 {
    use std::cmp::Ordering::*;
    match from.cmp(&to) {
        Equal => unscaled,
        Less => unscaled * pow10(to - from),
        Greater => {
            let f = pow10(from - to);
            let q = unscaled / f;
            let r = unscaled % f;
            if r.abs() * 2 >= f {
                q + unscaled.signum()
            } else {
                q
            }
        }
    }
}

/// Parse a decimal literal like `-123.456` into an unscaled i128 at `scale`.
pub fn parse_decimal(s: &str, scale: u8) -> Option<i128> {
    let s = s.trim();
    let (neg, s) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s.strip_prefix('+').unwrap_or(s)),
    };
    let (int_part, frac_part) = match s.split_once('.') {
        Some((i, f)) => (i, f),
        None => (s, ""),
    };
    if int_part.is_empty() && frac_part.is_empty() {
        return None;
    }
    if !int_part.chars().all(|c| c.is_ascii_digit())
        || !frac_part.chars().all(|c| c.is_ascii_digit())
    {
        return None;
    }
    let int_v: i128 = if int_part.is_empty() {
        0
    } else {
        int_part.parse().ok()?
    };
    let mut frac_digits = frac_part.to_string();
    // Parse at the literal's own scale, then rescale (rounding) to target.
    let lit_scale = frac_digits.len().min(30) as u8;
    frac_digits.truncate(lit_scale as usize);
    let frac_v: i128 = if frac_digits.is_empty() {
        0
    } else {
        frac_digits.parse().ok()?
    };
    let unscaled_lit = int_v * pow10(lit_scale) + frac_v;
    let v = rescale(unscaled_lit, lit_scale, scale);
    Some(if neg { -v } else { v })
}

/// Format a decimal unscaled value at `scale` (e.g. `(12345, 2)` → `123.45`).
pub fn format_decimal(unscaled: i128, scale: u8) -> String {
    if scale == 0 {
        return unscaled.to_string();
    }
    let p = pow10(scale);
    let sign = if unscaled < 0 { "-" } else { "" };
    let a = unscaled.unsigned_abs();
    let p = p as u128;
    format!("{sign}{}.{:0width$}", a / p, a % p, width = scale as usize)
}

/// Format a double the way Hive prints it (integral values keep `.0`).
pub fn format_double(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn numeric_binop(
    a: &Value,
    b: &Value,
    op: &str,
    int_op: impl Fn(i128, i128) -> Option<i128>,
    f_op: impl Fn(f64, f64) -> f64,
) -> Result<Value> {
    use Value::*;
    if a.is_null() || b.is_null() {
        return Ok(Null);
    }
    match (a, b) {
        (Int(x), Int(y)) => int_op(*x as i128, *y as i128)
            .map(|v| Int(v as i32))
            .ok_or_else(|| HiveError::Execution(format!("integer overflow in {op}"))),
        (Int(x), BigInt(y)) | (BigInt(y), Int(x)) => int_op(*x as i128, *y as i128)
            .map(|v| BigInt(v as i64))
            .ok_or_else(|| HiveError::Execution(format!("integer overflow in {op}"))),
        (BigInt(x), BigInt(y)) => int_op(*x as i128, *y as i128)
            .map(|v| BigInt(v as i64))
            .ok_or_else(|| HiveError::Execution(format!("integer overflow in {op}"))),
        (Decimal(u1, s1), Decimal(u2, s2)) => {
            let s = (*s1).max(*s2);
            int_op(rescale(*u1, *s1, s), rescale(*u2, *s2, s))
                .map(|v| Decimal(v, s))
                .ok_or_else(|| HiveError::Execution(format!("decimal overflow in {op}")))
        }
        (Decimal(u, s), Int(y)) | (Int(y), Decimal(u, s)) if op != "-" => {
            int_op(*u, *y as i128 * pow10(*s))
                .map(|v| Decimal(v, *s))
                .ok_or_else(|| HiveError::Execution(format!("decimal overflow in {op}")))
        }
        (Decimal(u, s), BigInt(y)) | (BigInt(y), Decimal(u, s)) if op != "-" => {
            int_op(*u, *y as i128 * pow10(*s))
                .map(|v| Decimal(v, *s))
                .ok_or_else(|| HiveError::Execution(format!("decimal overflow in {op}")))
        }
        _ => {
            let x = a
                .as_f64()
                .ok_or_else(|| HiveError::Execution(format!("non-numeric operand to {op}")))?;
            let y = b
                .as_f64()
                .ok_or_else(|| HiveError::Execution(format!("non-numeric operand to {op}")))?;
            Ok(Double(f_op(x, y)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn h(v: &Value) -> u64 {
        let mut s = DefaultHasher::new();
        v.hash_value(&mut s);
        s.finish()
    }

    #[test]
    fn decimal_parse_and_format_round_trip() {
        assert_eq!(parse_decimal("123.45", 2), Some(12345));
        assert_eq!(parse_decimal("-0.5", 2), Some(-50));
        assert_eq!(parse_decimal("7", 2), Some(700));
        assert_eq!(parse_decimal("1.239", 2), Some(124)); // rounds
        assert_eq!(parse_decimal("abc", 2), None);
        assert_eq!(format_decimal(12345, 2), "123.45");
        assert_eq!(format_decimal(-50, 2), "-0.50");
        assert_eq!(format_decimal(7, 0), "7");
    }

    #[test]
    fn rescale_rounds_half_away_from_zero() {
        assert_eq!(rescale(125, 2, 1), 13);
        assert_eq!(rescale(-125, 2, 1), -13);
        assert_eq!(rescale(124, 2, 1), 12);
        assert_eq!(rescale(12, 1, 3), 1200);
    }

    #[test]
    fn arithmetic_promotes_types() {
        let a = Value::Int(2);
        let b = Value::BigInt(3);
        assert_eq!(a.add(&b).unwrap(), Value::BigInt(5));
        let c = Value::Decimal(250, 2); // 2.50
        assert_eq!(a.add(&c).unwrap(), Value::Decimal(450, 2));
        assert_eq!(a.mul(&c).unwrap(), Value::Decimal(500, 2));
        // int / int -> double (Hive semantics)
        assert_eq!(
            Value::Int(7).div(&Value::Int(2)).unwrap(),
            Value::Double(3.5)
        );
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        assert!(Value::Null.add(&Value::Int(1)).unwrap().is_null());
        assert!(Value::Int(1).mul(&Value::Null).unwrap().is_null());
        assert!(Value::Int(1).div(&Value::Int(0)).unwrap().is_null());
        assert!(Value::Int(1).rem(&Value::Int(0)).unwrap().is_null());
    }

    #[test]
    fn sql_cmp_three_valued() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(
            Value::Int(1).sql_cmp(&Value::BigInt(1)),
            Some(std::cmp::Ordering::Equal)
        );
        assert_eq!(
            Value::Decimal(150, 2).sql_cmp(&Value::Decimal(2, 0)),
            Some(std::cmp::Ordering::Less)
        );
        assert_eq!(
            Value::Date(10).sql_cmp(&Value::Timestamp(10 * 86_400_000_000)),
            Some(std::cmp::Ordering::Equal)
        );
    }

    #[test]
    fn nulls_sort_last() {
        let mut vals = vec![Value::Null, Value::Int(2), Value::Int(1)];
        vals.sort_by(|a, b| a.total_cmp_nulls_last(b));
        assert_eq!(vals, vec![Value::Int(1), Value::Int(2), Value::Null]);
    }

    #[test]
    fn cross_type_numeric_hash_agrees() {
        assert_eq!(h(&Value::Int(42)), h(&Value::BigInt(42)));
        assert_eq!(h(&Value::Int(42)), h(&Value::Double(42.0)));
        assert_eq!(h(&Value::Int(42)), h(&Value::Decimal(4200, 2)));
        assert_eq!(h(&Value::Null), h(&Value::Null));
    }

    #[test]
    fn lenient_string_casts_yield_null() {
        assert!(Value::String("xyz".into())
            .cast_to(&DataType::Int)
            .unwrap()
            .is_null());
        assert_eq!(
            Value::String(" 12 ".into())
                .cast_to(&DataType::Int)
                .unwrap(),
            Value::Int(12)
        );
    }

    #[test]
    fn date_timestamp_casts() {
        let d = Value::Date(1);
        let ts = d.cast_to(&DataType::Timestamp).unwrap();
        assert_eq!(ts, Value::Timestamp(86_400_000_000));
        assert_eq!(ts.cast_to(&DataType::Date).unwrap(), Value::Date(1));
        // Negative timestamps floor toward negative infinity.
        assert_eq!(
            Value::Timestamp(-1).cast_to(&DataType::Date).unwrap(),
            Value::Date(-1)
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Decimal(12345, 2).to_string(), "123.45");
        assert_eq!(Value::Double(3.0).to_string(), "3.0");
        assert_eq!(Value::Null.to_string(), "NULL");
    }
}
