//! Constant folding over the AST, with the engines' short-circuit
//! semantics.
//!
//! It answers one question — "does this expression fold to a
//! constant?" — conservatively: `None` means "don't know", and a lint
//! that consumes a "don't know" must stay quiet. `constant-condition`
//! reports what it folds, and `unreachable-arm` uses it to choose its
//! wording. Every other semantic fact (intervals, units, guard
//! implication) comes from the `kojak-flow` interpreter over the IR.

use asl_core::ast::{BinOp, Expr, ExprKind, Specification, UnOp};
use std::collections::HashMap;

/// A folded compile-time constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Const {
    /// An integer value.
    Int(i64),
    /// A float value.
    Float(f64),
    /// A boolean value.
    Bool(bool),
}

impl Const {
    /// Numeric view (`int` widens to `float`).
    pub fn as_f64(self) -> Option<f64> {
        match self {
            Const::Int(v) => Some(v as f64),
            Const::Float(v) => Some(v),
            Const::Bool(_) => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(self) -> Option<bool> {
        match self {
            Const::Bool(b) => Some(b),
            _ => None,
        }
    }
}

/// Folds expressions over the spec's global constants (themselves folded
/// once, in declaration order, at construction).
pub struct Folder {
    consts: HashMap<String, Const>,
}

impl Folder {
    /// Fold the spec's global constants.
    pub fn new(spec: &Specification) -> Self {
        let mut f = Folder {
            consts: HashMap::new(),
        };
        for c in &spec.constants {
            if let Some(v) = f.fold(&c.value) {
                f.consts.insert(c.name.name.clone(), v);
            }
        }
        f
    }

    /// Fold `e` to a constant, or `None` if any part is not statically
    /// known. Arithmetic that would fail at runtime (division by zero,
    /// integer overflow) folds to `None` — the div-by-zero lint reports
    /// it separately.
    pub fn fold(&self, e: &Expr) -> Option<Const> {
        match &e.kind {
            ExprKind::IntLit(v) => Some(Const::Int(*v)),
            ExprKind::FloatLit(v) => Some(Const::Float(*v)),
            ExprKind::BoolLit(b) => Some(Const::Bool(*b)),
            ExprKind::Var(n) => self.consts.get(n).copied(),
            ExprKind::Unary(UnOp::Neg, i) => match self.fold(i)? {
                Const::Int(v) => v.checked_neg().map(Const::Int),
                Const::Float(v) => Some(Const::Float(-v)),
                Const::Bool(_) => None,
            },
            ExprKind::Unary(UnOp::Not, i) => self.fold(i)?.as_bool().map(|b| Const::Bool(!b)),
            ExprKind::Binary(op, l, r) => self.fold_binary(*op, l, r),
            _ => None,
        }
    }

    fn fold_binary(&self, op: BinOp, l: &Expr, r: &Expr) -> Option<Const> {
        // AND/OR mirror the engines' short-circuit: a folded-true OR (or
        // folded-false AND) left side decides the result without the right.
        if op == BinOp::And || op == BinOp::Or {
            let lv = self.fold(l).and_then(Const::as_bool);
            match (op, lv) {
                (BinOp::And, Some(false)) => return Some(Const::Bool(false)),
                (BinOp::Or, Some(true)) => return Some(Const::Bool(true)),
                (_, Some(_)) => return self.fold(r).and_then(Const::as_bool).map(Const::Bool),
                (_, None) => return None,
            }
        }
        let lv = self.fold(l)?;
        let rv = self.fold(r)?;
        if op.is_arithmetic() {
            return fold_arith(op, lv, rv);
        }
        if op.is_comparison() {
            return fold_cmp(op, lv, rv);
        }
        None
    }
}

fn fold_arith(op: BinOp, l: Const, r: Const) -> Option<Const> {
    if let (Const::Int(a), Const::Int(b)) = (l, r) {
        return match op {
            BinOp::Add => a.checked_add(b).map(Const::Int),
            BinOp::Sub => a.checked_sub(b).map(Const::Int),
            BinOp::Mul => a.checked_mul(b).map(Const::Int),
            BinOp::Div => a.checked_div(b).map(Const::Int),
            BinOp::Mod => a.checked_rem(b).map(Const::Int),
            _ => None,
        };
    }
    let (a, b) = (l.as_f64()?, r.as_f64()?);
    match op {
        BinOp::Add => Some(Const::Float(a + b)),
        BinOp::Sub => Some(Const::Float(a - b)),
        BinOp::Mul => Some(Const::Float(a * b)),
        BinOp::Div if b != 0.0 => Some(Const::Float(a / b)),
        BinOp::Mod if b != 0.0 => Some(Const::Float(a % b)),
        _ => None,
    }
}

fn fold_cmp(op: BinOp, l: Const, r: Const) -> Option<Const> {
    if let (Const::Bool(a), Const::Bool(b)) = (l, r) {
        return match op {
            BinOp::Eq => Some(Const::Bool(a == b)),
            BinOp::Ne => Some(Const::Bool(a != b)),
            _ => None,
        };
    }
    let (a, b) = (l.as_f64()?, r.as_f64()?);
    let out = match op {
        BinOp::Eq => a == b,
        BinOp::Ne => a != b,
        BinOp::Lt => a < b,
        BinOp::Le => a <= b,
        BinOp::Gt => a > b,
        BinOp::Ge => a >= b,
        _ => return None,
    };
    Some(Const::Bool(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asl_core::parse;

    fn spec_with(consts: &str) -> Specification {
        parse(consts).expect("test spec parses")
    }

    fn fold_expr(folder: &Folder, src: &str) -> Option<Const> {
        // Wrap in a throwaway constant to reuse the expression parser.
        let spec = parse(&format!("float __X__ = {src};")).expect("expr parses");
        folder.fold(&spec.constants[0].value)
    }

    #[test]
    fn folds_constants_and_arithmetic() {
        let spec = spec_with("float T = 0.25; int N = 4;");
        let f = Folder::new(&spec);
        assert_eq!(fold_expr(&f, "T * 2.0"), Some(Const::Float(0.5)));
        assert_eq!(fold_expr(&f, "N + 1"), Some(Const::Int(5)));
        assert_eq!(fold_expr(&f, "N > 3"), Some(Const::Bool(true)));
        assert_eq!(fold_expr(&f, "1 / 0"), None);
    }

    #[test]
    fn short_circuit_logic() {
        let f = Folder::new(&spec_with(""));
        // `x` is unknown, but the left side decides.
        assert_eq!(fold_expr(&f, "FALSE AND x > 0"), Some(Const::Bool(false)));
        assert_eq!(fold_expr(&f, "TRUE OR x > 0"), Some(Const::Bool(true)));
        assert_eq!(fold_expr(&f, "TRUE AND x > 0"), None);
    }
}
