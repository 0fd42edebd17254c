//! The product abstract domain: three-valued booleans, numeric
//! intervals with open bounds / nonzero-ness / integrality, the
//! unit/dimension lattice, and the combined per-value abstraction
//! [`AbsVal`].
//!
//! Everything here is deliberately conservative: `Unknown`/top never
//! justifies a finding, and every "proven" claim must survive the
//! soundness property test (`tests/soundness.rs`), which checks flow
//! verdicts against both runtime backends.
//!
//! Interval bounds are `f64` and abstract operators mirror the engine's
//! own `f64` arithmetic on those bounds. IEEE addition and
//! multiplication are monotone and correctly rounded, so a bound
//! computed here is a value the runtime can actually attain — in
//! particular a lower bound that comes out strictly positive proves the
//! runtime value is nonzero, which is the claim the div-by-zero triage
//! rests on.

use asl_core::ast::BinOp;
use asl_core::types::Type;
use std::fmt;

/// Three-valued truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tri {
    /// Provably false.
    False,
    /// Provably true.
    True,
    /// Not decided by the analysis.
    Unknown,
}

impl Tri {
    /// Lift a concrete boolean.
    pub fn of(b: bool) -> Tri {
        if b {
            Tri::True
        } else {
            Tri::False
        }
    }

    /// Engine-faithful `AND`: the engines short-circuit, so a false left
    /// operand decides the result even when the right is undecidable
    /// (and a false *right* operand decides it when the left is known to
    /// evaluate — which abstractly we may assume, since a left-side
    /// runtime error makes the whole conjunction error, not true).
    pub fn and(self, o: Tri) -> Tri {
        match (self, o) {
            (Tri::False, _) | (_, Tri::False) => Tri::False,
            (Tri::True, Tri::True) => Tri::True,
            _ => Tri::Unknown,
        }
    }

    /// Engine-faithful `OR` (dual of [`Tri::and`]).
    pub fn or(self, o: Tri) -> Tri {
        match (self, o) {
            (Tri::True, _) | (_, Tri::True) => Tri::True,
            (Tri::False, Tri::False) => Tri::False,
            _ => Tri::Unknown,
        }
    }

    /// Logical negation (`Unknown` stays `Unknown`).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Tri {
        match self {
            Tri::False => Tri::True,
            Tri::True => Tri::False,
            Tri::Unknown => Tri::Unknown,
        }
    }
}

/// A numeric interval with open/closed bounds, an extra nonzero-ness
/// bit, and an integrality bit. `lo`/`hi` are `-inf`/`+inf` when
/// unbounded. The concretization is `{ v in [lo, hi] }` minus the open
/// endpoints, minus `{0}` when `nonzero`, intersected with the integers
/// when `int_only`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Itv {
    /// Lower bound (`-inf` = unbounded).
    pub lo: f64,
    /// Upper bound (`+inf` = unbounded).
    pub hi: f64,
    /// The lower bound itself is excluded.
    pub lo_open: bool,
    /// The upper bound itself is excluded.
    pub hi_open: bool,
    /// The value is provably not zero (beyond what the bounds say).
    pub nonzero: bool,
    /// Only integer values are possible.
    pub int_only: bool,
}

impl Itv {
    /// The full float line.
    pub fn top() -> Itv {
        Itv {
            lo: f64::NEG_INFINITY,
            hi: f64::INFINITY,
            lo_open: false,
            hi_open: false,
            nonzero: false,
            int_only: false,
        }
    }

    /// All integers.
    pub fn int_top() -> Itv {
        Itv {
            int_only: true,
            ..Itv::top()
        }
    }

    /// The singleton `{v}`.
    pub fn exact(v: f64, int_only: bool) -> Itv {
        Itv {
            lo: v,
            hi: v,
            lo_open: false,
            hi_open: false,
            nonzero: false,
            int_only,
        }
    }

    /// `[lo, +inf)` (or `(lo, +inf)` when `open`).
    pub fn at_least(lo: f64, open: bool, int_only: bool) -> Itv {
        Itv {
            lo,
            hi: f64::INFINITY,
            lo_open: open,
            hi_open: false,
            nonzero: false,
            int_only,
        }
    }

    /// `(-inf, hi]` (or `(-inf, hi)` when `open`).
    pub fn at_most(hi: f64, open: bool, int_only: bool) -> Itv {
        Itv {
            lo: f64::NEG_INFINITY,
            hi,
            lo_open: false,
            hi_open: open,
            nonzero: false,
            int_only,
        }
    }

    /// Tighten the representation: integer intervals get closed integral
    /// bounds, and the `nonzero` bit is folded into a zero-touching
    /// lower/upper bound where that is exact.
    pub fn norm(mut self) -> Itv {
        if self.int_only {
            if self.lo.is_finite() {
                let mut l = self.lo.ceil();
                if self.lo_open && l == self.lo {
                    l += 1.0;
                }
                self.lo = l;
                self.lo_open = false;
            }
            if self.hi.is_finite() {
                let mut h = self.hi.floor();
                if self.hi_open && h == self.hi {
                    h -= 1.0;
                }
                self.hi = h;
                self.hi_open = false;
            }
        }
        if self.nonzero {
            if self.lo == 0.0 && !self.lo_open {
                if self.int_only {
                    self.lo = 1.0;
                } else {
                    self.lo_open = true;
                }
            }
            if self.hi == 0.0 && !self.hi_open {
                if self.int_only {
                    self.hi = -1.0;
                } else {
                    self.hi_open = true;
                }
            }
        }
        self
    }

    /// Is the concretization empty?
    pub fn is_empty(&self) -> bool {
        let s = self.norm();
        s.lo > s.hi || (s.lo == s.hi && (s.lo_open || s.hi_open || (s.nonzero && s.lo == 0.0)))
    }

    /// Is the concretization exactly `{0}`?
    pub fn is_exact_zero(&self) -> bool {
        self.lo == 0.0 && self.hi == 0.0 && !self.lo_open && !self.hi_open && !self.nonzero
    }

    /// Does the concretization contain `0`?
    pub fn contains_zero(&self) -> bool {
        !self.excludes_zero()
    }

    /// Is `0` provably outside the concretization?
    pub fn excludes_zero(&self) -> bool {
        if self.nonzero {
            return true;
        }
        let below = self.lo > 0.0 || (self.lo == 0.0 && self.lo_open);
        let above = self.hi < 0.0 || (self.hi == 0.0 && self.hi_open);
        below || above
    }

    /// The single value, if the interval is a finite singleton.
    pub fn as_exact(&self) -> Option<f64> {
        (self.lo == self.hi && !self.lo_open && !self.hi_open && self.lo.is_finite())
            .then_some(self.lo)
    }

    /// Least upper bound.
    pub fn join(&self, o: &Itv) -> Itv {
        let (lo, lo_open) = match self.lo.partial_cmp(&o.lo) {
            Some(std::cmp::Ordering::Less) => (self.lo, self.lo_open),
            Some(std::cmp::Ordering::Greater) => (o.lo, o.lo_open),
            _ => (self.lo, self.lo_open && o.lo_open),
        };
        let (hi, hi_open) = match self.hi.partial_cmp(&o.hi) {
            Some(std::cmp::Ordering::Greater) => (self.hi, self.hi_open),
            Some(std::cmp::Ordering::Less) => (o.hi, o.hi_open),
            _ => (self.hi, self.hi_open && o.hi_open),
        };
        Itv {
            lo,
            hi,
            lo_open,
            hi_open,
            nonzero: self.nonzero && o.nonzero,
            int_only: self.int_only && o.int_only,
        }
    }

    /// Greatest lower bound.
    pub fn meet(&self, o: &Itv) -> Itv {
        let (lo, lo_open) = match self.lo.partial_cmp(&o.lo) {
            Some(std::cmp::Ordering::Greater) => (self.lo, self.lo_open),
            Some(std::cmp::Ordering::Less) => (o.lo, o.lo_open),
            _ => (self.lo, self.lo_open || o.lo_open),
        };
        let (hi, hi_open) = match self.hi.partial_cmp(&o.hi) {
            Some(std::cmp::Ordering::Less) => (self.hi, self.hi_open),
            Some(std::cmp::Ordering::Greater) => (o.hi, o.hi_open),
            _ => (self.hi, self.hi_open || o.hi_open),
        };
        Itv {
            lo,
            hi,
            lo_open,
            hi_open,
            nonzero: self.nonzero || o.nonzero,
            int_only: self.int_only || o.int_only,
        }
        .norm()
    }

    /// Is every value of `self` a value of `other`? (Solution-set
    /// containment — the core of guard implication.)
    pub fn subset_of(&self, other: &Itv) -> bool {
        if self.is_empty() {
            return true;
        }
        let a = self.norm();
        let b = other.norm();
        let lo_ok = b.lo < a.lo
            || (b.lo == a.lo && (!b.lo_open || a.lo_open))
            || (b.lo == f64::NEG_INFINITY && a.lo == f64::NEG_INFINITY);
        let hi_ok = b.hi > a.hi
            || (b.hi == a.hi && (!b.hi_open || a.hi_open))
            || (b.hi == f64::INFINITY && a.hi == f64::INFINITY);
        let nz_ok = !b.nonzero || a.excludes_zero();
        let int_ok = !b.int_only || a.int_only;
        lo_ok && hi_ok && nz_ok && int_ok
    }

    /// Widening: a bound that moved since `prev` goes straight to
    /// infinity (guarantees fixpoint termination).
    pub fn widen(&self, prev: &Itv) -> Itv {
        let mut w = *self;
        if self.lo < prev.lo {
            w.lo = f64::NEG_INFINITY;
            w.lo_open = false;
        }
        if self.hi > prev.hi {
            w.hi = f64::INFINITY;
            w.hi_open = false;
        }
        w
    }

    /// The interval as integer arithmetic leaves it: integer `+`, `-`,
    /// `*` and negation wrap at the bounds of `i64`, so an integer result
    /// that may leave them may be any integer.
    pub fn wrap_i64(self) -> Itv {
        let i64_range = -2f64.powi(63)..2f64.powi(63);
        let inside = i64_range.contains(&self.lo) && i64_range.contains(&self.hi);
        if self.int_only && !inside {
            Itv::int_top()
        } else {
            self
        }
    }

    /// Abstract negation.
    pub fn neg(&self) -> Itv {
        Itv {
            lo: -self.hi,
            hi: -self.lo,
            lo_open: self.hi_open,
            hi_open: self.lo_open,
            nonzero: self.nonzero,
            int_only: self.int_only,
        }
    }

    /// Abstract addition.
    pub fn add(&self, o: &Itv) -> Itv {
        Itv {
            lo: self.lo + o.lo,
            hi: self.hi + o.hi,
            lo_open: self.lo_open || o.lo_open,
            hi_open: self.hi_open || o.hi_open,
            nonzero: false,
            int_only: self.int_only && o.int_only,
        }
        .nan_guard()
    }

    /// Abstract subtraction.
    pub fn sub(&self, o: &Itv) -> Itv {
        self.add(&o.neg())
    }

    /// Abstract multiplication (bound products; degrades to top when a
    /// `0 × inf` corner would make a bound undefined).
    pub fn mul(&self, o: &Itv) -> Itv {
        let ps = [
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        ];
        if ps.iter().any(|p| p.is_nan()) {
            return if self.int_only && o.int_only {
                Itv::int_top()
            } else {
                Itv::top()
            };
        }
        let lo = ps.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = ps.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Itv {
            lo,
            hi,
            // Open-bound bookkeeping through products is subtle; drop it.
            lo_open: false,
            hi_open: false,
            nonzero: self.int_only && o.int_only && self.nonzero && o.nonzero,
            int_only: self.int_only && o.int_only,
        }
    }

    /// Abstract division (`/` always yields float). Only the easy sign
    /// fact is kept: nonnegative over provably-positive is nonnegative.
    pub fn div(&self, o: &Itv) -> Itv {
        let nonneg = self.lo >= 0.0 && o.lo >= 0.0 && o.excludes_zero();
        if nonneg {
            Itv::at_least(0.0, false, false)
        } else {
            Itv::top()
        }
    }

    fn nan_guard(self) -> Itv {
        if self.lo.is_nan() || self.hi.is_nan() {
            if self.int_only {
                Itv::int_top()
            } else {
                Itv::top()
            }
        } else {
            self
        }
    }
}

/// Decide a comparison between two intervals, when the bounds allow it.
pub fn cmp_tri(op: BinOp, a: &Itv, b: &Itv) -> Tri {
    let a = a.norm();
    let b = b.norm();
    // a provably below b: every a-value < every b-value.
    let lt = a.hi < b.lo || (a.hi == b.lo && (a.hi_open || b.lo_open) && a.hi.is_finite());
    // a provably at-or-below b.
    let le = a.hi <= b.lo && a.hi.is_finite();
    // Mirrors.
    let gt = b.hi < a.lo || (b.hi == a.lo && (b.hi_open || a.lo_open) && b.hi.is_finite());
    let ge = b.hi <= a.lo && b.hi.is_finite();
    match op {
        BinOp::Lt => {
            if lt {
                Tri::True
            } else if ge {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        BinOp::Le => {
            if lt || le {
                Tri::True
            } else if gt {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        BinOp::Gt => {
            if gt {
                Tri::True
            } else if lt || le {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        BinOp::Ge => {
            if gt || ge {
                Tri::True
            } else if lt {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        BinOp::Eq => match (a.as_exact(), b.as_exact()) {
            (Some(x), Some(y)) => Tri::of(x == y),
            _ => {
                if a.meet(&b).is_empty() {
                    Tri::False
                } else {
                    Tri::Unknown
                }
            }
        },
        BinOp::Ne => cmp_tri(BinOp::Eq, &a, &b).not(),
        _ => Tri::Unknown,
    }
}

/// The unit/dimension lattice: `Unknown` (top — no claim), `Scalar`
/// (provably dimensionless: literals and folded constants), or a
/// derived dimension vector over time/count/bytes. The all-zero
/// dimension (e.g. time divided by time) is a *ratio* — dimensionless,
/// but distinct from `Scalar` because it was derived from measured
/// quantities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// No claim about the unit (never produces a finding).
    Unknown,
    /// Provably dimensionless (literal or folded constant).
    Scalar,
    /// A dimension vector of exponents.
    Dim {
        /// Exponent of seconds.
        time: i8,
        /// Exponent of counts.
        count: i8,
        /// Exponent of bytes.
        bytes: i8,
    },
}

impl Unit {
    /// Plain time (seconds¹).
    pub fn time() -> Unit {
        Unit::Dim {
            time: 1,
            count: 0,
            bytes: 0,
        }
    }

    /// Plain count.
    pub fn count() -> Unit {
        Unit::Dim {
            time: 0,
            count: 1,
            bytes: 0,
        }
    }

    /// Plain bytes.
    pub fn bytes() -> Unit {
        Unit::Dim {
            time: 0,
            count: 0,
            bytes: 1,
        }
    }

    /// The dimensionless ratio (all exponents zero).
    pub fn ratio() -> Unit {
        Unit::Dim {
            time: 0,
            count: 0,
            bytes: 0,
        }
    }

    /// Unit of a product.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, o: Unit) -> Unit {
        match (self, o) {
            (Unit::Scalar, u) | (u, Unit::Scalar) => u,
            (
                Unit::Dim {
                    time: a,
                    count: b,
                    bytes: c,
                },
                Unit::Dim {
                    time: d,
                    count: e,
                    bytes: f,
                },
            ) => Unit::Dim {
                time: a.saturating_add(d),
                count: b.saturating_add(e),
                bytes: c.saturating_add(f),
            },
            _ => Unit::Unknown,
        }
    }

    /// Unit of a quotient.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, o: Unit) -> Unit {
        let inv = match o {
            Unit::Scalar => Unit::Scalar,
            Unit::Dim { time, count, bytes } => Unit::Dim {
                time: time.saturating_neg(),
                count: count.saturating_neg(),
                bytes: bytes.saturating_neg(),
            },
            Unit::Unknown => Unit::Unknown,
        };
        self.mul(inv)
    }

    /// Is adding/subtracting these two units a provable mismatch?
    /// Only two *known, different* dimensions mismatch; `Scalar` and
    /// `Unknown` never do (the threshold-literal idiom `X > 0.25` must
    /// stay quiet).
    pub fn add_sub_mismatch(self, o: Unit) -> bool {
        matches!((self, o), (Unit::Dim { .. }, Unit::Dim { .. }) if self != o)
    }

    /// Unit of a sum/difference: a known dimension wins over `Scalar`;
    /// a mismatch or any `Unknown` degrades to `Unknown`.
    pub fn add_sub(self, o: Unit) -> Unit {
        match (self, o) {
            (Unit::Scalar, u) | (u, Unit::Scalar) => u,
            (a, b) if a == b => a,
            _ => Unit::Unknown,
        }
    }

    /// Join for fixpoints: equal units stay, anything else is `Unknown`.
    pub fn join(self, o: Unit) -> Unit {
        if self == o {
            self
        } else {
            Unit::Unknown
        }
    }
}

impl fmt::Display for Unit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Unit::Unknown => write!(f, "unknown"),
            Unit::Scalar => write!(f, "dimensionless"),
            Unit::Dim { time, count, bytes } => {
                let dims = [("time", *time), ("count", *count), ("bytes", *bytes)];
                let part = |e: i8, name: &str| match e.abs() {
                    1 => name.to_string(),
                    n => format!("{name}^{n}"),
                };
                let num: Vec<String> = dims
                    .iter()
                    .filter(|(_, e)| *e > 0)
                    .map(|(n, e)| part(*e, n))
                    .collect();
                let den: Vec<String> = dims
                    .iter()
                    .filter(|(_, e)| *e < 0)
                    .map(|(n, e)| part(*e, n))
                    .collect();
                match (num.is_empty(), den.is_empty()) {
                    (true, true) => write!(f, "ratio"),
                    (false, true) => write!(f, "{}", num.join("·")),
                    (true, false) => write!(f, "1/{}", den.join("·")),
                    (false, false) => write!(f, "{}/{}", num.join("·"), den.join("·")),
                }
            }
        }
    }
}

/// The abstract value of one expression: the product of the interval,
/// unit, boolean, object-class and set-cardinality components.
#[derive(Debug, Clone, PartialEq)]
pub enum AbsVal {
    /// Unreachable / not yet computed (fixpoint seed; strict in every
    /// operator).
    Bottom,
    /// A number.
    Num {
        /// Value range.
        itv: Itv,
        /// Inferred unit.
        unit: Unit,
    },
    /// A boolean.
    Bool(Tri),
    /// An object reference of a (possibly unknown) class.
    Obj {
        /// Static class name, when known.
        class: Option<String>,
    },
    /// A set of objects: cardinality bounds plus element class.
    Set {
        /// Cardinality range (integers ≥ 0).
        card: Itv,
        /// Element class name, when known.
        class: Option<String>,
    },
    /// Strings, enums, datetimes, unknown values — no claims.
    Other,
}

impl AbsVal {
    /// Numeric view.
    pub fn as_num(&self) -> Option<(Itv, Unit)> {
        match self {
            AbsVal::Num { itv, unit } => Some((*itv, *unit)),
            _ => None,
        }
    }

    /// The most general value of a static type.
    pub fn top_of(ty: &Type) -> AbsVal {
        match ty {
            Type::Int => AbsVal::Num {
                itv: Itv::int_top(),
                unit: Unit::Unknown,
            },
            Type::Float => AbsVal::Num {
                itv: Itv::top(),
                unit: Unit::Unknown,
            },
            Type::Bool => AbsVal::Bool(Tri::Unknown),
            Type::Class(c) => AbsVal::Obj {
                class: Some(c.clone()),
            },
            Type::Set(elem) => AbsVal::Set {
                card: Itv::at_least(0.0, false, true),
                class: match elem.as_ref() {
                    Type::Class(c) => Some(c.clone()),
                    _ => None,
                },
            },
            _ => AbsVal::Other,
        }
    }

    /// Least upper bound (`Bottom` is the identity; incompatible shapes
    /// go to `Other`).
    pub fn join(&self, o: &AbsVal) -> AbsVal {
        match (self, o) {
            (AbsVal::Bottom, v) | (v, AbsVal::Bottom) => v.clone(),
            (AbsVal::Num { itv: a, unit: ua }, AbsVal::Num { itv: b, unit: ub }) => AbsVal::Num {
                itv: a.join(b),
                unit: ua.join(*ub),
            },
            (AbsVal::Bool(a), AbsVal::Bool(b)) => {
                AbsVal::Bool(if a == b { *a } else { Tri::Unknown })
            }
            (AbsVal::Obj { class: a }, AbsVal::Obj { class: b }) => AbsVal::Obj {
                class: if a == b { a.clone() } else { None },
            },
            (AbsVal::Set { card: a, class: ca }, AbsVal::Set { card: b, class: cb }) => {
                AbsVal::Set {
                    card: a.join(b),
                    class: if ca == cb { ca.clone() } else { None },
                }
            }
            (AbsVal::Other, AbsVal::Other) => AbsVal::Other,
            _ => AbsVal::Other,
        }
    }

    /// Join with widening on the numeric components (for the function
    /// summary fixpoint).
    pub fn widen_from(&self, prev: &AbsVal) -> AbsVal {
        match (self, prev) {
            (AbsVal::Num { itv, unit }, AbsVal::Num { itv: p, .. }) => AbsVal::Num {
                itv: itv.widen(p),
                unit: *unit,
            },
            (AbsVal::Set { card, class }, AbsVal::Set { card: p, .. }) => AbsVal::Set {
                card: card.widen(p),
                class: class.clone(),
            },
            _ => self.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_zero_reasoning() {
        let count = Itv::at_least(0.0, false, true);
        assert!(count.contains_zero());
        let positive = count.meet(&Itv::at_least(0.0, true, false));
        assert!(positive.excludes_zero());
        assert_eq!(positive.norm().lo, 1.0, "int (0,inf) normalizes to [1,inf)");
        assert!(Itv::exact(0.0, false).is_exact_zero());
    }

    #[test]
    fn interval_implication() {
        let gt100 = Itv::at_least(100.0, true, false);
        let gt10 = Itv::at_least(10.0, true, false);
        assert!(gt100.subset_of(&gt10));
        assert!(!gt10.subset_of(&gt100));
        let ge1 = Itv::at_least(1.0, false, false);
        assert!(ge1.subset_of(&Itv::at_least(0.5, true, false)));
        assert!(!ge1.subset_of(&Itv::at_least(1.0, true, false)));
    }

    #[test]
    fn interval_comparison_decides() {
        let nonneg = Itv::at_least(0.0, false, true);
        let zero = Itv::exact(0.0, true);
        // COUNT(...) < 0 is provably false.
        assert_eq!(cmp_tri(BinOp::Lt, &nonneg, &zero), Tri::False);
        assert_eq!(cmp_tri(BinOp::Ge, &nonneg, &zero), Tri::True);
        assert_eq!(cmp_tri(BinOp::Gt, &nonneg, &zero), Tri::Unknown);
    }

    #[test]
    fn unit_lattice() {
        let t = Unit::time();
        let c = Unit::count();
        assert!(t.add_sub_mismatch(c));
        assert!(
            !t.add_sub_mismatch(Unit::Scalar),
            "threshold idiom stays quiet"
        );
        assert!(!t.add_sub_mismatch(Unit::Unknown));
        assert_eq!(t.div(t), Unit::ratio());
        assert_eq!(Unit::Scalar.mul(t), t);
        assert_eq!(t.div(c).to_string(), "time/count");
        assert_eq!(Unit::ratio().to_string(), "ratio");
    }

    #[test]
    fn widening_terminates_growth() {
        let a = Itv::exact(1.0, true);
        let b = Itv {
            lo: 1.0,
            hi: 5.0,
            ..Itv::exact(1.0, true)
        };
        let w = b.widen(&a);
        assert_eq!(w.hi, f64::INFINITY);
        assert_eq!(w.lo, 1.0);
    }
}
