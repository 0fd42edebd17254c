//! Shared ASL operator semantics.
//!
//! Both evaluation engines — the tree-walking [`crate::Interpreter`]
//! (the reference oracle) and the compiled-IR executor in
//! [`crate::compile`](mod@crate::compile) — delegate every value-level operation here, so the
//! two paths cannot drift apart: same numeric promotion rules, same
//! error kinds, same messages.

use crate::error::{EvalError, EvalErrorKind, EvalResult};
use crate::interp::ObjectModel;
use crate::value::Value;
use asl_core::ast::{AggOp, BinOp, UnOp};

/// "`op` applied to `<type>`" type error.
pub fn type_err(op: &str, v: &Value) -> EvalError {
    EvalError::new(
        EvalErrorKind::Type,
        format!("{op} applied to {}", v.type_name()),
    )
}

/// Coerce both operands to numbers or fail with the operator's message.
pub fn both_numbers(l: &Value, r: &Value, op: &str) -> EvalResult<(f64, f64)> {
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => Ok((a, b)),
        _ => Err(EvalError::new(
            EvalErrorKind::Type,
            format!(
                "operator `{op}` requires numbers, found {} and {}",
                l.type_name(),
                r.type_name()
            ),
        )),
    }
}

/// Unary operator semantics.
pub fn unary(op: UnOp, v: &Value) -> EvalResult<Value> {
    match op {
        UnOp::Neg => match v {
            Value::Int(x) => Ok(Value::Int(x.wrapping_neg())),
            Value::Float(x) => Ok(Value::Float(-x)),
            other => Err(EvalError::new(
                EvalErrorKind::Type,
                format!("cannot negate {}", other.type_name()),
            )),
        },
        UnOp::Not => match v {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            other => Err(EvalError::new(
                EvalErrorKind::Type,
                format!("NOT applied to {}", other.type_name()),
            )),
        },
    }
}

/// What a scalar kernel yields: a number or a truth value, unboxed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar {
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
    /// A truth value.
    Bool(bool),
}

impl From<Scalar> for Value {
    fn from(s: Scalar) -> Value {
        match s {
            Scalar::Int(x) => Value::Int(x),
            Scalar::Float(x) => Value::Float(x),
            Scalar::Bool(b) => Value::Bool(b),
        }
    }
}

/// An operand of the scalar kernels: a number, unboxed. A truth value is
/// not one; the general rules of [`binary_strict`] decide over it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// An integer.
    Int(i64),
    /// A float.
    Float(f64),
}

impl Number {
    /// `v` as a number, if it is one.
    pub fn of(v: &Value) -> Option<Number> {
        match v {
            Value::Int(x) => Some(Number::Int(*x)),
            Value::Float(x) => Some(Number::Float(*x)),
            _ => None,
        }
    }

    /// The number widened to a float.
    fn as_f64(self) -> f64 {
        match self {
            Number::Int(x) => x as f64,
            Number::Float(x) => x,
        }
    }
}

/// `op` over two numbers: [`int_binary`] over two integers,
/// [`float_binary`] over any other pair, widened.
#[inline]
pub fn numeric_binary(op: BinOp, a: Number, b: Number) -> Option<Scalar> {
    match (a, b) {
        (Number::Int(a), Number::Int(b)) => int_binary(op, a, b),
        (a, b) => float_binary(op, a.as_f64(), b.as_f64()),
    }
}

/// Does `ord` satisfy the comparison `op`? `None` for an operator that is
/// not an ordering.
fn holds(op: BinOp, ord: std::cmp::Ordering) -> Option<bool> {
    match op {
        BinOp::Lt => Some(ord.is_lt()),
        BinOp::Le => Some(ord.is_le()),
        BinOp::Gt => Some(ord.is_gt()),
        BinOp::Ge => Some(ord.is_ge()),
        _ => None,
    }
}

/// `op` over two integers. Arithmetic wraps on overflow, as `SUM` does;
/// `/` yields a float. `None` where the general rules of
/// [`binary_strict`] decide: a zero divisor, and `AND`/`OR`.
#[inline]
pub fn int_binary(op: BinOp, a: i64, b: i64) -> Option<Scalar> {
    Some(match op {
        BinOp::Add => Scalar::Int(a.wrapping_add(b)),
        BinOp::Sub => Scalar::Int(a.wrapping_sub(b)),
        BinOp::Mul => Scalar::Int(a.wrapping_mul(b)),
        BinOp::Mod if b != 0 => Scalar::Int(a.wrapping_rem(b)),
        BinOp::Div if b != 0 => Scalar::Float(a as f64 / b as f64),
        BinOp::Eq => Scalar::Bool(a == b),
        BinOp::Ne => Scalar::Bool(a != b),
        _ => Scalar::Bool(holds(op, a.cmp(&b))?),
    })
}

/// `op` over two numbers, at least one of them a float, both widened to
/// `f64`. `None` where the general rules of [`binary_strict`] decide: a
/// zero divisor, a NaN to order, `%`, and `AND`/`OR`.
#[inline]
pub fn float_binary(op: BinOp, a: f64, b: f64) -> Option<Scalar> {
    Some(match op {
        BinOp::Add => Scalar::Float(a + b),
        BinOp::Sub => Scalar::Float(a - b),
        BinOp::Mul => Scalar::Float(a * b),
        BinOp::Div if b != 0.0 => Scalar::Float(a / b),
        BinOp::Eq => Scalar::Bool(a == b),
        BinOp::Ne => Scalar::Bool(a != b),
        _ => Scalar::Bool(holds(op, a.partial_cmp(&b)?)?),
    })
}

/// Strict (non-short-circuit) binary operator semantics: comparisons,
/// arithmetic, `%`. `AND`/`OR` must be handled by the caller (they
/// short-circuit and must not evaluate both operands first). Operands
/// come by reference: the engines evaluate them into place and nothing
/// here needs to own them. Numbers go through the scalar kernels
/// ([`numeric_binary`]), which the compiled evaluator also runs over its
/// unboxed lanes; what they leave open — a zero divisor, a
/// NaN to order, operands of other types — the general rules below decide.
pub fn binary_strict(op: BinOp, l: &Value, r: &Value) -> EvalResult<Value> {
    let kernel = match (Number::of(l), Number::of(r)) {
        (Some(a), Some(b)) => numeric_binary(op, a, b),
        _ => None,
    };
    if let Some(v) = kernel {
        return Ok(v.into());
    }
    match op {
        BinOp::Eq => Ok(Value::Bool(l.asl_eq(r))),
        BinOp::Ne => Ok(Value::Bool(!l.asl_eq(r))),
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
            let ord = l.asl_cmp(r).ok_or_else(|| {
                EvalError::new(
                    EvalErrorKind::Type,
                    format!("cannot order {} and {}", l.type_name(), r.type_name()),
                )
            })?;
            Ok(Value::Bool(holds(op, ord).expect("an ordering")))
        }
        // Two numbers reach here only with a zero divisor.
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            both_numbers(l, r, op.symbol())?;
            Err(EvalError::new(EvalErrorKind::DivByZero, "division by zero"))
        }
        BinOp::Mod => match (l, r) {
            (Value::Int(_), Value::Int(_)) => {
                Err(EvalError::new(EvalErrorKind::DivByZero, "modulo by zero"))
            }
            _ => Err(EvalError::new(
                EvalErrorKind::Type,
                "`%` requires integer operands",
            )),
        },
        BinOp::And | BinOp::Or => unreachable!("logical operators short-circuit in the caller"),
    }
}

/// Fold one more argument into the n-ary `MAX(a, b, …)`/`MIN(a, b, …)`
/// builtin: incomparable values keep the current best (matching the
/// interpreter's historical behavior — the checker rules them out anyway).
pub fn fold_builtin_minmax(is_max: bool, best: Option<Value>, v: Value) -> Option<Value> {
    Some(match best {
        None => v,
        Some(b) => {
            let keep_new = match v.asl_cmp(&b) {
                Some(std::cmp::Ordering::Greater) => is_max,
                Some(std::cmp::Ordering::Less) => !is_max,
                _ => false,
            };
            if keep_new {
                v
            } else {
                b
            }
        }
    })
}

/// Streaming state of a quantified aggregate (`SUM(v WHERE x IN s AND p)`):
/// both engines [`push`](Aggregator::push) each element's value as they
/// produce it and [`finish`](Aggregator::finish) after the last, so no
/// engine collects the values first.
///
/// Floats accumulate left to right from `0.0`, exactly as a loop over the
/// collected values would. A value the operator cannot take is remembered,
/// not raised: the engine goes on evaluating the remaining elements (whose
/// own errors come first, as they did when the values were collected) and
/// `finish` raises the first such type error.
pub struct Aggregator {
    op: AggOp,
    count: usize,
    /// `SUM`/`AVG`: the sum so far.
    sum: NumSum,
    /// `MIN`/`MAX`: the extremum so far.
    best: Option<Value>,
    /// First value the operator could not take.
    failed: Option<EvalError>,
}

impl Aggregator {
    /// An empty aggregate.
    pub fn new(op: AggOp) -> Self {
        Aggregator {
            op,
            count: 0,
            sum: NumSum::new(),
            best: None,
            failed: None,
        }
    }

    /// Fold in the next element's value.
    pub fn push(&mut self, v: Value) {
        self.count += 1;
        if self.failed.is_some() {
            return;
        }
        match self.op {
            AggOp::Count => {}
            AggOp::Sum | AggOp::Avg => {
                if !self.sum.push(&v) {
                    self.failed = Some(EvalError::new(
                        EvalErrorKind::Type,
                        format!("{} over {} value", self.op.keyword(), v.type_name()),
                    ))
                }
            }
            AggOp::Min | AggOp::Max => {
                let Some(best) = &self.best else {
                    self.best = Some(v);
                    return;
                };
                match v.asl_cmp(best) {
                    Some(std::cmp::Ordering::Greater) if self.op == AggOp::Max => {
                        self.best = Some(v)
                    }
                    Some(std::cmp::Ordering::Less) if self.op == AggOp::Min => self.best = Some(v),
                    Some(_) => {}
                    None => {
                        self.failed = Some(EvalError::new(
                            EvalErrorKind::Type,
                            "MIN/MAX over incomparable values",
                        ))
                    }
                }
            }
        }
    }

    /// The aggregate over everything pushed.
    pub fn finish(self) -> EvalResult<Value> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        let empty = || {
            EvalError::new(
                EvalErrorKind::EmptySet,
                format!("{} of an empty set", self.op.keyword()),
            )
        };
        match self.op {
            AggOp::Count => Ok(Value::Int(self.count as i64)),
            // Empty sums are zero — `SUM(tt.Time WHERE …)` over a region
            // without matching typed timings must yield 0 so the
            // condition `> 0` is simply false (paper's SyncCost).
            AggOp::Sum => Ok(match self.sum.total() {
                Number::Int(x) => Value::Int(x),
                Number::Float(x) => Value::Float(x),
            }),
            AggOp::Avg if self.count == 0 => Err(empty()),
            AggOp::Avg => Ok(Value::Float(self.sum.float_sum / self.count as f64)),
            AggOp::Min | AggOp::Max => self.best.ok_or_else(empty),
        }
    }
}

/// A `SUM` of numbers, unboxed: an integer while every value is one
/// (wrapping on overflow), and beside it the float total, accumulated left
/// to right from `0.0` as a loop over the values would.
#[derive(Debug, Clone, Copy)]
pub struct NumSum {
    all_int: bool,
    int_sum: i64,
    float_sum: f64,
}

impl Default for NumSum {
    fn default() -> Self {
        NumSum::new()
    }
}

impl NumSum {
    /// The empty sum: the integer 0.
    pub const fn new() -> Self {
        NumSum {
            all_int: true,
            int_sum: 0,
            float_sum: 0.0,
        }
    }

    /// Fold in `v`; `false`, leaving the sum as it was, if `v` is not a
    /// number.
    #[inline]
    pub fn push(&mut self, v: &Value) -> bool {
        match *v {
            Value::Int(x) => {
                self.int_sum = self.int_sum.wrapping_add(x);
                self.float_sum += x as f64;
            }
            Value::Float(x) => {
                self.all_int = false;
                self.float_sum += x;
            }
            _ => return false,
        }
        true
    }

    /// The sum: an integer if every value was one.
    #[inline]
    pub fn total(self) -> Number {
        match self.all_int {
            true => Number::Int(self.int_sum),
            false => Number::Float(self.float_sum),
        }
    }
}

/// Attribute access on an arbitrary value: objects delegate to the data
/// source, everything else reproduces the interpreter's error messages.
pub fn attr_on<M: ObjectModel>(data: &M, v: &Value, attr: &str) -> EvalResult<Value> {
    match v {
        Value::Obj(obj) => data.attr(obj, attr),
        Value::Null => Err(EvalError::new(
            EvalErrorKind::Type,
            format!("attribute `{attr}` accessed on a null reference"),
        )),
        other => Err(EvalError::new(
            EvalErrorKind::Type,
            format!("attribute `{attr}` accessed on {} value", other.type_name()),
        )),
    }
}
