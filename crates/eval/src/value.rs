//! Runtime values of the ASL interpreter.

use asl_core::intern::Symbol;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A reference to a data-model object: interned class name plus arena
/// index. `ObjRef` is 8 bytes and `Copy`-cheap to clone; comparing two
/// references is two integer compares (no string traffic on the hot path).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjRef {
    /// The object's class (as named in the ASL data model), interned.
    pub class: Symbol,
    /// Arena index within that class.
    pub index: u32,
}

impl fmt::Display for ObjRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.class, self.index)
    }
}

/// A runtime value. Two words wide — every payload is at most one — so the
/// `EvalResult<Value>` every IR node returns is as small; the two
/// heap-backed variants hold a shared pointer, so moving a value through
/// frames, caches and hoisted cells never copies text or elements.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// Boolean.
    Bool(bool),
    /// String (shared: a clone is a reference count).
    Str(Arc<String>),
    /// `DateTime` (microseconds since the epoch).
    DateTime(i64),
    /// Enum variant: (enum name, variant name), both interned — comparing
    /// enum tags is an integer compare.
    Enum(Symbol, Symbol),
    /// Object reference.
    Obj(ObjRef),
    /// A set of values (objects in practice), shared: a clone is a
    /// reference count, never the elements.
    Set(Arc<Vec<Value>>),
    /// Absent object reference (e.g. the parent of a root region). ASL has
    /// no null literal; `Null` only arises from the data and compares
    /// unequal to everything except itself.
    Null,
}

impl Value {
    /// Object helper. Accepts a pre-interned [`Symbol`] (free) or a string
    /// (interned on the spot).
    #[inline]
    pub fn obj(class: impl Into<Symbol>, index: u32) -> Value {
        Value::Obj(ObjRef {
            class: class.into(),
            index,
        })
    }

    /// A `Region` reference from a perfdata id.
    #[inline]
    pub fn region(id: perfdata::RegionId) -> Value {
        Value::obj(crate::cosy_model::syms().region, id.0)
    }

    /// A `TestRun` reference from a perfdata id.
    #[inline]
    pub fn run(id: perfdata::TestRunId) -> Value {
        Value::obj(crate::cosy_model::syms().test_run, id.0)
    }

    /// A `FunctionCall` reference from a perfdata id.
    #[inline]
    pub fn call(id: perfdata::CallId) -> Value {
        Value::obj(crate::cosy_model::syms().function_call, id.0)
    }

    /// Numeric view (int widens to float).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Set view.
    pub fn as_set(&self) -> Option<&[Value]> {
        match self {
            Value::Set(v) => Some(v),
            _ => None,
        }
    }

    /// ASL equality (`==`): numerics compare by value, objects by identity,
    /// `Null` equals only `Null`.
    pub fn asl_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => *a as f64 == *b,
            (a, b) => a == b,
        }
    }

    /// ASL ordering for `<`, `<=`, `>`, `>=`, MIN/MAX aggregates.
    pub fn asl_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => a.partial_cmp(b),
            (Value::Int(a), Value::Float(b)) => (*a as f64).partial_cmp(b),
            (Value::Float(a), Value::Int(b)) => a.partial_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::DateTime(a), Value::DateTime(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Float(_) => "float",
            Value::Bool(_) => "bool",
            Value::Str(_) => "String",
            Value::DateTime(_) => "DateTime",
            Value::Enum(..) => "enum",
            Value::Obj(_) => "object",
            Value::Set(_) => "set",
            Value::Null => "null",
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Str(s) => write!(f, "\"{s}\""),
            Value::DateTime(t) => write!(f, "DateTime({t})"),
            Value::Enum(_, v) => write!(f, "{v}"),
            Value::Obj(o) => write!(f, "{o}"),
            Value::Set(items) => {
                write!(f, "{{")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "}}")
            }
            Value::Null => write!(f, "null"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_value_and_its_result_are_two_words() {
        // Every node execution returns one of these by value.
        assert_eq!(std::mem::size_of::<Value>(), 16);
        assert_eq!(std::mem::size_of::<crate::error::EvalResult<Value>>(), 16);
    }

    #[test]
    fn asl_eq_mixed_numerics() {
        assert!(Value::Int(3).asl_eq(&Value::Float(3.0)));
        assert!(!Value::Int(3).asl_eq(&Value::Float(3.5)));
    }

    #[test]
    fn object_identity_equality() {
        assert!(Value::obj("Region", 1).asl_eq(&Value::obj("Region", 1)));
        assert!(!Value::obj("Region", 1).asl_eq(&Value::obj("Region", 2)));
        assert!(!Value::obj("Region", 1).asl_eq(&Value::obj("TestRun", 1)));
    }

    #[test]
    fn null_equals_only_null() {
        assert!(Value::Null.asl_eq(&Value::Null));
        assert!(!Value::Null.asl_eq(&Value::obj("Region", 0)));
        assert!(!Value::Null.asl_eq(&Value::Int(0)));
    }

    #[test]
    fn ordering_covers_datetimes() {
        assert_eq!(
            Value::DateTime(5).asl_cmp(&Value::DateTime(9)),
            Some(Ordering::Less)
        );
        assert_eq!(Value::obj("A", 0).asl_cmp(&Value::obj("A", 1)), None);
    }
}
