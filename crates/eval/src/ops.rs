//! Shared ASL operator semantics.
//!
//! Both evaluation engines — the tree-walking [`crate::Interpreter`]
//! (the reference oracle) and the compiled-IR executor in
//! [`crate::compile`] — delegate every value-level operation here, so the
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
            Value::Int(x) => Ok(Value::Int(-x)),
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

/// Strict (non-short-circuit) binary operator semantics: comparisons,
/// arithmetic, `%`. `AND`/`OR` must be handled by the caller (they
/// short-circuit and must not evaluate both operands first). Operands
/// come by reference: the engines evaluate them into place and nothing
/// here needs to own them.
pub fn binary_strict(op: BinOp, l: &Value, r: &Value) -> EvalResult<Value> {
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
            let b = match op {
                BinOp::Lt => ord == std::cmp::Ordering::Less,
                BinOp::Le => ord != std::cmp::Ordering::Greater,
                BinOp::Gt => ord == std::cmp::Ordering::Greater,
                BinOp::Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Bool(b))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul => match (l, r) {
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                _ => unreachable!(),
            })),
            _ => {
                let (a, b) = both_numbers(l, r, op.symbol())?;
                Ok(Value::Float(match op {
                    BinOp::Add => a + b,
                    BinOp::Sub => a - b,
                    BinOp::Mul => a * b,
                    _ => unreachable!(),
                }))
            }
        },
        // `/` always yields float (see the checker's documented rule).
        BinOp::Div => {
            let (a, b) = both_numbers(l, r, "/")?;
            if b == 0.0 {
                return Err(EvalError::new(EvalErrorKind::DivByZero, "division by zero"));
            }
            Ok(Value::Float(a / b))
        }
        BinOp::Mod => match (l, r) {
            (Value::Int(a), Value::Int(b)) => {
                if *b == 0 {
                    Err(EvalError::new(EvalErrorKind::DivByZero, "modulo by zero"))
                } else {
                    Ok(Value::Int(a % b))
                }
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
    /// `SUM`: every value so far was an `Int` (the sum stays integral).
    all_int: bool,
    int_sum: i64,
    float_sum: f64,
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
            all_int: true,
            int_sum: 0,
            float_sum: 0.0,
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
                match v {
                    Value::Int(x) => self.int_sum = self.int_sum.wrapping_add(x),
                    _ => self.all_int = false,
                }
                match v.as_f64() {
                    Some(x) => self.float_sum += x,
                    None => {
                        self.failed = Some(EvalError::new(
                            EvalErrorKind::Type,
                            format!("{} over {} value", self.op.keyword(), v.type_name()),
                        ))
                    }
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
            AggOp::Sum if self.all_int => Ok(Value::Int(self.int_sum)),
            AggOp::Sum => Ok(Value::Float(self.float_sum)),
            AggOp::Avg if self.count == 0 => Err(empty()),
            AggOp::Avg => Ok(Value::Float(self.float_sum / self.count as f64)),
            AggOp::Min | AggOp::Max => self.best.ok_or_else(empty),
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
