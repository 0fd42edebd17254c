//! SQL values and column types.

use crate::error::{DbError, DbResult};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ColType {
    /// 64-bit signed integer (`INTEGER`).
    Integer,
    /// 64-bit float (`REAL`, `FLOAT`, `DOUBLE`).
    Real,
    /// UTF-8 string (`TEXT`, `VARCHAR`).
    Text,
    /// Boolean (`BOOLEAN`).
    Boolean,
}

impl ColType {
    /// SQL name of the type.
    pub fn sql_name(self) -> &'static str {
        match self {
            ColType::Integer => "INTEGER",
            ColType::Real => "REAL",
            ColType::Text => "TEXT",
            ColType::Boolean => "BOOLEAN",
        }
    }
}

impl fmt::Display for ColType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.sql_name())
    }
}

/// A SQL value.
///
/// NULL semantics are simplified and documented: comparisons involving
/// `Null` are false (use `IS NULL`), aggregates skip NULLs, and for
/// grouping/index purposes NULLs compare equal to each other. Floats hash
/// and group by their bit pattern.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// Absent value.
    Null,
    /// Integer.
    Int(i64),
    /// Floating point.
    Float(f64),
    /// String.
    Text(String),
    /// Boolean.
    Bool(bool),
}

impl Value {
    /// Does this value inhabit the given column type? `Null` fits any type;
    /// `Int` fits `Real` columns (widening).
    pub fn fits(&self, ty: ColType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Int(_), ColType::Integer)
                | (Value::Int(_), ColType::Real)
                | (Value::Float(_), ColType::Real)
                | (Value::Text(_), ColType::Text)
                | (Value::Bool(_), ColType::Boolean)
        )
    }

    /// Coerce for storage in a column of the given type (widens ints into
    /// real columns so all stored reals are `Float`).
    pub fn coerce(self, ty: ColType) -> DbResult<Value> {
        match (self, ty) {
            (Value::Null, _) => Ok(Value::Null),
            (Value::Int(v), ColType::Integer) => Ok(Value::Int(v)),
            (Value::Int(v), ColType::Real) => Ok(Value::Float(v as f64)),
            (Value::Float(v), ColType::Real) => Ok(Value::Float(v)),
            (Value::Text(s), ColType::Text) => Ok(Value::Text(s)),
            (Value::Bool(b), ColType::Boolean) => Ok(Value::Bool(b)),
            (v, ty) => Err(DbError::Semantic(format!(
                "value {v} does not fit column type {ty}"
            ))),
        }
    }

    /// True if this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view (ints widen to f64); `None` for non-numeric values.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Integer view; `None` for non-integers.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    /// SQL comparison. Returns `None` when either side is NULL or the types
    /// are incomparable (the caller treats that as "unknown" = false).
    pub fn compare(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Text(a), Value::Text(b)) => Some(a.cmp(b)),
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total order used by ORDER BY: NULLs first, then by value; used only
    /// for sorting, where a deterministic order is required.
    pub fn sort_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        fn rank(v: &Value) -> u8 {
            match v {
                Null => 0,
                Bool(_) => 1,
                Int(_) | Float(_) => 2,
                Text(_) => 3,
            }
        }
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Text(a), Text(b)) => a.cmp(b),
            (Bool(a), Bool(b)) => a.cmp(b),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Approximate wire size in bytes (used by the network cost model).
    pub fn wire_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Int(_) => 8,
            Value::Float(_) => 8,
            Value::Bool(_) => 1,
            Value::Text(s) => 4 + s.len(),
        }
    }
}

/// Equality for grouping, hashing and index keys: NULL == NULL and floats
/// compare by bits. (Filter comparisons go through [`Value::compare`]
/// instead, which returns `None` for NULL.)
impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Text(a), Value::Text(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Int(v) => {
                1u8.hash(state);
                v.hash(state);
            }
            Value::Float(v) => {
                2u8.hash(state);
                v.to_bits().hash(state);
            }
            Value::Text(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            Value::Bool(b) => {
                4u8.hash(state);
                b.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Text(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Text(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Text(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// A stored row.
pub type Row = Vec<Value>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_and_coerce() {
        assert!(Value::Int(1).fits(ColType::Real));
        assert!(!Value::Float(1.0).fits(ColType::Integer));
        assert_eq!(
            Value::Int(2).coerce(ColType::Real).unwrap(),
            Value::Float(2.0)
        );
        assert!(Value::Text("x".into()).coerce(ColType::Integer).is_err());
        assert_eq!(Value::Null.coerce(ColType::Text).unwrap(), Value::Null);
    }

    #[test]
    fn compare_null_is_unknown() {
        assert_eq!(Value::Null.compare(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).compare(&Value::Null), None);
    }

    #[test]
    fn compare_mixed_numerics() {
        assert_eq!(
            Value::Int(2).compare(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(3.0).compare(&Value::Int(3)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn grouping_equality_treats_null_equal() {
        assert_eq!(Value::Null, Value::Null);
        assert_ne!(Value::Null, Value::Int(0));
    }

    #[test]
    fn sort_cmp_is_total() {
        let mut vals = [
            Value::Text("b".into()),
            Value::Null,
            Value::Int(5),
            Value::Float(2.5),
            Value::Bool(true),
            Value::Int(1),
        ];
        vals.sort_by(|a, b| a.sort_cmp(b));
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Int(1));
        assert_eq!(vals[3], Value::Float(2.5));
        assert_eq!(vals[4], Value::Int(5));
        assert_eq!(vals[5], Value::Text("b".into()));
    }

    #[test]
    fn wire_size_counts_text_length() {
        assert_eq!(Value::Text("abcd".into()).wire_size(), 8);
        assert_eq!(Value::Int(1).wire_size(), 8);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Text("a".into()).to_string(), "'a'");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(false).to_string(), "FALSE");
    }
}
