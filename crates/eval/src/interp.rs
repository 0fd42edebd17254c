//! The expression and property interpreter.

use crate::error::{EvalError, EvalErrorKind, EvalResult};
use crate::value::{ObjRef, Value};
use asl_core::ast::*;
use asl_core::check::CheckedSpec;
use std::collections::HashMap;

/// Maximum user-function call depth.
const MAX_CALL_DEPTH: usize = 64;

/// A data source able to answer attribute lookups on objects of the ASL
/// data model.
pub trait ObjectModel {
    /// The value of `obj.attr`.
    fn attr(&self, obj: &ObjRef, attr: &str) -> EvalResult<Value>;

    /// Number of objects of a class, if the source can enumerate them.
    /// Object ids are then `0..extent`. Required by the generic relational
    /// loader in `asl-sql`; defaults to "cannot enumerate".
    fn extent(&self, _class: &str) -> Option<usize> {
        None
    }

    /// Lend the elements of the set attribute `obj.set_attr` to `each`,
    /// **in set order**, without materializing the set — all of them, or
    /// with a [`SetFilter`] only those it keeps, which a data source with a
    /// secondary index answers in O(matches). `each` returns `Ok(false)`
    /// to stop the visit early; its errors end the visit and are returned.
    ///
    /// `None` (the default) lends nothing: the caller reads the attribute
    /// through [`attr`](ObjectModel::attr), scans the materialized set and
    /// tests each element itself. An implementation must decide that
    /// **before the first visit** — a filter whose second key
    /// ([`SetFilter::among`]) it cannot answer is asked again without one
    /// — visit exactly what the scan and the test would keep, in the order
    /// they would, and fail where the attribute access would: the compiled
    /// evaluator relies on this for interpreter equivalence (an order
    /// that differs moves the last bits of a float `SUM`).
    fn visit_set(
        &self,
        _obj: &ObjRef,
        _set_attr: &str,
        _filter: Option<SetFilter<'_>>,
        _each: &mut dyn FnMut(ObjRef) -> EvalResult<bool>,
    ) -> Option<EvalResult<()>> {
        None
    }
}

/// Which elements of a set [`ObjectModel::visit_set`] is asked for: those
/// whose `elem_attr` equals `key` and — with a second key — whose
/// `among.0` equals one of the values `among.1`. Equality is
/// [`Value::asl_eq`], so a value of another type than the attribute's
/// matches nothing.
#[derive(Debug, Clone, Copy)]
pub struct SetFilter<'a> {
    /// The element attribute compared with `key`.
    pub elem_attr: &'a str,
    /// The value `elem_attr` must equal.
    pub key: &'a Value,
    /// The second key `(attribute, values)`: the lowered form of a
    /// selecting predicate `x.A == c₁ OR x.A == c₂ …` over constants, which
    /// is then not executed. A source that lends the first key but not
    /// this one answers `None`.
    pub among: Option<(&'a str, &'a [Value])>,
}

impl<T: ObjectModel + ?Sized> ObjectModel for &T {
    fn attr(&self, obj: &ObjRef, attr: &str) -> EvalResult<Value> {
        (**self).attr(obj, attr)
    }

    fn extent(&self, class: &str) -> Option<usize> {
        (**self).extent(class)
    }

    fn visit_set(
        &self,
        obj: &ObjRef,
        set_attr: &str,
        filter: Option<SetFilter<'_>>,
        each: &mut dyn FnMut(ObjRef) -> EvalResult<bool>,
    ) -> Option<EvalResult<()>> {
        (**self).visit_set(obj, set_attr, filter, each)
    }
}

/// The result of evaluating a property in one context.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyOutcome {
    /// Property name.
    pub property: String,
    /// Whether any condition held.
    pub holds: bool,
    /// Per-condition results `(condition id, value)`, in declaration order.
    pub fired: Vec<(Option<String>, bool)>,
    /// Confidence in `[0, 1]`; zero when the property does not hold.
    pub confidence: f64,
    /// Severity; zero when the property does not hold.
    pub severity: f64,
}

impl PropertyOutcome {
    fn not_holding(property: &str, fired: Vec<(Option<String>, bool)>) -> Self {
        PropertyOutcome {
            property: property.to_string(),
            holds: false,
            fired,
            confidence: 0.0,
            severity: 0.0,
        }
    }
}

/// Variable environment: a stack of frames.
#[derive(Debug, Default)]
struct Env {
    frames: Vec<HashMap<String, Value>>,
    depth: usize,
}

impl Env {
    fn new() -> Self {
        Env {
            frames: vec![HashMap::new()],
            depth: 0,
        }
    }

    fn push(&mut self) {
        self.frames.push(HashMap::new());
    }

    fn pop(&mut self) {
        self.frames.pop();
    }

    fn bind(&mut self, name: impl Into<String>, v: Value) {
        self.frames
            .last_mut()
            .expect("env has a frame")
            .insert(name.into(), v);
    }

    fn lookup(&self, name: &str) -> Option<&Value> {
        self.frames.iter().rev().find_map(|f| f.get(name))
    }
}

/// The ASL interpreter: evaluates expressions, functions and properties of
/// a checked specification against an [`ObjectModel`].
///
/// `M` is owned; pass a reference (e.g. `&CosyData`) when the data source
/// should stay shared — `ObjectModel` is implemented for references.
pub struct Interpreter<'a, M: ObjectModel> {
    spec: &'a CheckedSpec,
    data: M,
    consts: HashMap<String, Value>,
}

impl<'a, M: ObjectModel> Interpreter<'a, M> {
    /// Create an interpreter; global constants are evaluated eagerly (in
    /// declaration order, earlier constants visible to later ones).
    pub fn new(spec: &'a CheckedSpec, data: M) -> EvalResult<Self> {
        let mut interp = Interpreter {
            spec,
            data,
            consts: HashMap::new(),
        };
        for c in &spec.spec.constants {
            let mut env = Env::new();
            let v = interp.eval(&c.value, &mut env)?;
            interp.consts.insert(c.name.name.clone(), v);
        }
        Ok(interp)
    }

    /// The checked specification this interpreter runs.
    pub fn spec(&self) -> &CheckedSpec {
        self.spec
    }

    /// Evaluate a standalone expression with the given variable bindings.
    pub fn eval_expr(&self, expr: &Expr, bindings: &[(&str, Value)]) -> EvalResult<Value> {
        let mut env = Env::new();
        for (n, v) in bindings {
            env.bind(*n, v.clone());
        }
        self.eval(expr, &mut env)
    }

    /// Call a user-defined helper function by name.
    pub fn call_function(&self, name: &str, args: &[Value]) -> EvalResult<Value> {
        let mut env = Env::new();
        self.call(name, args.to_vec(), &mut env)
    }

    /// Evaluate a property in the context given by `args` (one value per
    /// declared parameter).
    pub fn eval_property(&self, name: &str, args: &[Value]) -> EvalResult<PropertyOutcome> {
        let prop = self.spec.property(name).ok_or_else(|| {
            EvalError::new(EvalErrorKind::Unknown, format!("unknown property `{name}`"))
        })?;
        if args.len() != prop.params.len() {
            return Err(EvalError::new(
                EvalErrorKind::Type,
                format!(
                    "property `{name}` expects {} arguments, got {}",
                    prop.params.len(),
                    args.len()
                ),
            ));
        }
        let mut env = Env::new();
        for (p, v) in prop.params.iter().zip(args.iter()) {
            env.bind(p.name.name.clone(), v.clone());
        }
        for l in &prop.lets {
            let v = self.eval(&l.value, &mut env)?;
            env.bind(l.name.name.clone(), v);
        }

        let mut fired = Vec::with_capacity(prop.conditions.len());
        let mut holds = false;
        for c in &prop.conditions {
            let v = self.eval(&c.expr, &mut env)?;
            let b = v.as_bool().ok_or_else(|| {
                EvalError::new(
                    EvalErrorKind::Type,
                    format!("condition evaluated to {}, expected bool", v.type_name()),
                )
            })?;
            holds |= b;
            fired.push((c.id.as_ref().map(|i| i.name.clone()), b));
        }
        if !holds {
            return Ok(PropertyOutcome::not_holding(name, fired));
        }

        let applicable = |guard: &Option<Ident>| -> bool {
            match guard {
                None => true,
                Some(g) => fired
                    .iter()
                    .any(|(id, b)| *b && id.as_deref() == Some(g.name.as_str())),
            }
        };
        let eval_arms = |spec: &ArmSpec, env: &mut Env| -> EvalResult<f64> {
            let mut best: Option<f64> = None;
            for arm in &spec.arms {
                if !applicable(&arm.guard) {
                    continue;
                }
                let v = self.eval(&arm.expr, env)?;
                let x = v.as_f64().ok_or_else(|| {
                    EvalError::new(
                        EvalErrorKind::Type,
                        format!("arm evaluated to {}, expected number", v.type_name()),
                    )
                })?;
                best = Some(match best {
                    None => x,
                    Some(b) => b.max(x),
                });
            }
            Ok(best.unwrap_or(0.0))
        };

        let confidence = eval_arms(&prop.confidence, &mut env)?.clamp(0.0, 1.0);
        let severity = eval_arms(&prop.severity, &mut env)?;
        Ok(PropertyOutcome {
            property: name.to_string(),
            holds: true,
            fired,
            confidence,
            severity,
        })
    }

    // ---- core evaluation ---------------------------------------------------

    fn call(&self, name: &str, args: Vec<Value>, env: &mut Env) -> EvalResult<Value> {
        let func = self.spec.spec.function(name).ok_or_else(|| {
            EvalError::new(EvalErrorKind::Unknown, format!("unknown function `{name}`"))
        })?;
        if args.len() != func.params.len() {
            return Err(EvalError::new(
                EvalErrorKind::Type,
                format!(
                    "function `{name}` expects {} arguments, got {}",
                    func.params.len(),
                    args.len()
                ),
            ));
        }
        if env.depth >= MAX_CALL_DEPTH {
            return Err(EvalError::new(
                EvalErrorKind::Recursion,
                format!("call depth limit exceeded in `{name}`"),
            ));
        }
        // Functions see only their parameters (and globals), not the
        // caller's scope: evaluate in a fresh environment.
        let mut inner = Env::new();
        inner.depth = env.depth + 1;
        for (p, v) in func.params.iter().zip(args) {
            inner.bind(p.name.name.clone(), v);
        }
        self.eval(&func.body, &mut inner)
    }

    fn eval(&self, e: &Expr, env: &mut Env) -> EvalResult<Value> {
        // Tag bubbling errors with the deepest expression span that saw
        // them (`or_span` keeps the first, i.e. innermost, attachment).
        self.eval_inner(e, env).map_err(|err| err.or_span(e.span))
    }

    fn eval_inner(&self, e: &Expr, env: &mut Env) -> EvalResult<Value> {
        match &e.kind {
            ExprKind::IntLit(v) => Ok(Value::Int(*v)),
            ExprKind::FloatLit(v) => Ok(Value::Float(*v)),
            ExprKind::StrLit(s) => Ok(Value::Str(s.clone().into())),
            ExprKind::BoolLit(b) => Ok(Value::Bool(*b)),
            ExprKind::Var(name) => {
                if let Some(v) = env.lookup(name) {
                    Ok(v.clone())
                } else if let Some(v) = self.consts.get(name) {
                    Ok(v.clone())
                } else if let Some(owner) = self.spec.model.variant_owner.get(name) {
                    Ok(Value::Enum(
                        asl_core::Symbol::intern(owner),
                        asl_core::Symbol::intern(name),
                    ))
                } else {
                    Err(EvalError::new(
                        EvalErrorKind::Unknown,
                        format!("unknown variable `{name}`"),
                    ))
                }
            }
            ExprKind::Attr(base, attr) => {
                let b = self.eval(base, env)?;
                crate::ops::attr_on(&self.data, &b, &attr.name)
            }
            ExprKind::Call(name, args) => {
                if name.name == "MAX" || name.name == "MIN" {
                    let is_max = name.name == "MAX";
                    let mut best: Option<Value> = None;
                    for a in args {
                        let v = self.eval(a, env)?;
                        best = crate::ops::fold_builtin_minmax(is_max, best, v);
                    }
                    return best.ok_or_else(|| {
                        EvalError::new(
                            EvalErrorKind::Type,
                            format!("{} requires at least one argument", name.name),
                        )
                    });
                }
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval(a, env)?);
                }
                self.call(&name.name, vals, env)
            }
            ExprKind::Unary(op, inner) => {
                let v = self.eval(inner, env)?;
                crate::ops::unary(*op, &v)
            }
            ExprKind::Binary(op, lhs, rhs) => self.eval_binary(*op, lhs, rhs, env),
            ExprKind::SetComp {
                binder,
                source,
                pred,
            } => {
                let src = self.eval(source, env)?;
                let items = src.as_set().ok_or_else(|| {
                    EvalError::new(
                        EvalErrorKind::Type,
                        format!("comprehension source is {}", src.type_name()),
                    )
                })?;
                let items = items.to_vec();
                let mut out = Vec::new();
                env.push();
                for item in items {
                    env.bind(binder.name.clone(), item.clone());
                    let keep = self.eval(pred, env)?;
                    match keep.as_bool() {
                        Some(true) => out.push(item),
                        Some(false) => {}
                        None => {
                            env.pop();
                            return Err(EvalError::new(
                                EvalErrorKind::Type,
                                "comprehension predicate is not boolean",
                            ));
                        }
                    }
                }
                env.pop();
                Ok(Value::Set(out.into()))
            }
            ExprKind::Unique(inner) => {
                let v = self.eval(inner, env)?;
                let items = v.as_set().ok_or_else(|| {
                    EvalError::new(
                        EvalErrorKind::Type,
                        format!("UNIQUE applied to {}", v.type_name()),
                    )
                })?;
                match items.len() {
                    1 => Ok(items[0].clone()),
                    0 => Err(EvalError::new(
                        EvalErrorKind::EmptySet,
                        "UNIQUE of an empty set",
                    )),
                    n => Err(EvalError::new(
                        EvalErrorKind::Ambiguous,
                        format!("UNIQUE of a set with {n} elements"),
                    )),
                }
            }
            ExprKind::Aggregate {
                op,
                value,
                binder,
                source,
                pred,
            } => {
                let src = self.eval(source, env)?;
                let items = src.as_set().ok_or_else(|| {
                    EvalError::new(
                        EvalErrorKind::Type,
                        format!("aggregate source is {}", src.type_name()),
                    )
                })?;
                let items = items.to_vec();
                let mut agg = crate::ops::Aggregator::new(*op);
                env.push();
                for item in items {
                    env.bind(binder.name.clone(), item);
                    if let Some(p) = pred {
                        let keep = self.eval(p, env)?;
                        if !keep.as_bool().unwrap_or(false) {
                            continue;
                        }
                    }
                    agg.push(self.eval(value, env)?);
                }
                env.pop();
                agg.finish()
            }
            ExprKind::Quantifier {
                q,
                binder,
                source,
                pred,
            } => {
                let src = self.eval(source, env)?;
                let items = src.as_set().ok_or_else(|| {
                    EvalError::new(
                        EvalErrorKind::Type,
                        format!("quantifier source is {}", src.type_name()),
                    )
                })?;
                let items = items.to_vec();
                env.push();
                let mut result = matches!(q, Quant::Forall);
                for item in items {
                    env.bind(binder.name.clone(), item);
                    let b = self.eval(pred, env)?.as_bool().unwrap_or(false);
                    match q {
                        Quant::Exists if b => {
                            result = true;
                            break;
                        }
                        Quant::Forall if !b => {
                            result = false;
                            break;
                        }
                        _ => {}
                    }
                }
                env.pop();
                Ok(Value::Bool(result))
            }
            ExprKind::CountSet(inner) => {
                let v = self.eval(inner, env)?;
                let items = v.as_set().ok_or_else(|| {
                    EvalError::new(
                        EvalErrorKind::Type,
                        format!("COUNT applied to {}", v.type_name()),
                    )
                })?;
                Ok(Value::Int(items.len() as i64))
            }
        }
    }

    fn eval_binary(&self, op: BinOp, lhs: &Expr, rhs: &Expr, env: &mut Env) -> EvalResult<Value> {
        use crate::ops::type_err;
        // Short-circuit logic first.
        match op {
            BinOp::And => {
                let l = self.eval(lhs, env)?;
                if !l.as_bool().ok_or_else(|| type_err("AND", &l))? {
                    return Ok(Value::Bool(false));
                }
                let r = self.eval(rhs, env)?;
                Ok(Value::Bool(r.as_bool().ok_or_else(|| type_err("AND", &r))?))
            }
            BinOp::Or => {
                let l = self.eval(lhs, env)?;
                if l.as_bool().ok_or_else(|| type_err("OR", &l))? {
                    return Ok(Value::Bool(true));
                }
                let r = self.eval(rhs, env)?;
                Ok(Value::Bool(r.as_bool().ok_or_else(|| type_err("OR", &r))?))
            }
            _ => {
                let l = self.eval(lhs, env)?;
                let r = self.eval(rhs, env)?;
                crate::ops::binary_strict(op, &l, &r)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asl_core::parse_and_check;

    /// A tiny hand-rolled object model: two "Point" objects with X/Y and a
    /// "Cloud" owning them.
    struct Points;

    impl ObjectModel for Points {
        fn attr(&self, obj: &ObjRef, attr: &str) -> EvalResult<Value> {
            match (obj.class.as_str(), obj.index, attr) {
                ("Cloud", 0, "Points") => Ok(Value::Set(
                    vec![
                        Value::obj("Point", 0),
                        Value::obj("Point", 1),
                        Value::obj("Point", 2),
                    ]
                    .into(),
                )),
                ("Point", i, "X") => Ok(Value::Float([1.0, 2.0, 3.0][i as usize])),
                ("Point", i, "Y") => Ok(Value::Int([10, 20, 30][i as usize])),
                _ => Err(EvalError::new(
                    EvalErrorKind::Unknown,
                    format!("no attribute {attr} on {obj}"),
                )),
            }
        }
    }

    const MODEL: &str = r#"
        class Cloud { setof Point Points; }
        class Point { float X; int Y; }
    "#;

    fn interp_src(extra: &str) -> (CheckedSpec,) {
        let src = format!("{MODEL}\n{extra}");
        (parse_and_check(&src).unwrap_or_else(|d| panic!("{}", d.render(&src))),)
    }

    fn eval_with_cloud(expr_fn: &str) -> EvalResult<Value> {
        let (spec,) = interp_src(expr_fn);
        let interp = Interpreter::new(&spec, &Points).unwrap();
        interp.call_function("F", &[Value::obj("Cloud", 0)])
    }

    #[test]
    fn sum_aggregate_over_objects() {
        let v = eval_with_cloud("float F(Cloud c) = SUM(p.X WHERE p IN c.Points);").unwrap();
        assert_eq!(v, Value::Float(6.0));
    }

    #[test]
    fn sum_with_predicate() {
        let v = eval_with_cloud("float F(Cloud c) = SUM(p.X WHERE p IN c.Points AND p.Y > 10);")
            .unwrap();
        assert_eq!(v, Value::Float(5.0));
    }

    #[test]
    fn empty_sum_is_zero() {
        let v = eval_with_cloud("float F(Cloud c) = SUM(p.X WHERE p IN c.Points AND p.Y > 99);")
            .unwrap();
        assert_eq!(v.as_f64().unwrap(), 0.0);
    }

    #[test]
    fn min_max_aggregates() {
        let v = eval_with_cloud("float F(Cloud c) = MAX(p.X WHERE p IN c.Points);").unwrap();
        assert_eq!(v, Value::Float(3.0));
        let v = eval_with_cloud("int F(Cloud c) = MIN(p.Y WHERE p IN c.Points);").unwrap();
        assert_eq!(v, Value::Int(10));
    }

    #[test]
    fn min_of_empty_set_is_empty_error() {
        let e = eval_with_cloud("float F(Cloud c) = MIN(p.X WHERE p IN c.Points AND p.Y > 99);")
            .unwrap_err();
        assert_eq!(e.kind, EvalErrorKind::EmptySet);
    }

    #[test]
    fn comprehension_and_unique() {
        let v =
            eval_with_cloud("Point F(Cloud c) = UNIQUE({p IN c.Points WITH p.X == 2.0});").unwrap();
        assert_eq!(v, Value::obj("Point", 1));
    }

    #[test]
    fn unique_ambiguous_error() {
        let e = eval_with_cloud("Point F(Cloud c) = UNIQUE({p IN c.Points WITH p.X > 0.0});")
            .unwrap_err();
        assert_eq!(e.kind, EvalErrorKind::Ambiguous);
    }

    #[test]
    fn unique_empty_error_is_not_applicable() {
        let e = eval_with_cloud("Point F(Cloud c) = UNIQUE({p IN c.Points WITH p.X > 9.0});")
            .unwrap_err();
        assert!(e.is_not_applicable());
    }

    #[test]
    fn count_and_quantifiers() {
        let v = eval_with_cloud("int F(Cloud c) = COUNT(c.Points);").unwrap();
        assert_eq!(v, Value::Int(3));
        let v =
            eval_with_cloud("bool F(Cloud c) = EXISTS(p IN c.Points WITH p.X == 3.0);").unwrap();
        assert_eq!(v, Value::Bool(true));
        let v = eval_with_cloud("bool F(Cloud c) = FORALL(p IN c.Points WITH p.X > 0.0);").unwrap();
        assert_eq!(v, Value::Bool(true));
        let v = eval_with_cloud("bool F(Cloud c) = FORALL(p IN c.Points WITH p.X > 1.5);").unwrap();
        assert_eq!(v, Value::Bool(false));
    }

    #[test]
    fn division_by_zero_is_error() {
        let e = eval_with_cloud("float F(Cloud c) = 1.0 / (COUNT(c.Points) - 3);").unwrap_err();
        assert_eq!(e.kind, EvalErrorKind::DivByZero);
    }

    #[test]
    fn constants_are_evaluated_once() {
        let (spec,) = interp_src("float Threshold = 0.25;\nfloat F(Cloud c) = Threshold * 4.0;");
        let interp = Interpreter::new(&spec, &Points).unwrap();
        let v = interp
            .call_function("F", &[Value::obj("Cloud", 0)])
            .unwrap();
        assert_eq!(v, Value::Float(1.0));
    }

    #[test]
    fn nary_max_builtin() {
        let v = eval_with_cloud("float F(Cloud c) = MAX(1.0, 5.0, 3.0);").unwrap();
        assert_eq!(v, Value::Float(5.0));
    }

    #[test]
    fn property_with_guarded_arms() {
        let (spec,) = interp_src(
            r#"
            PROPERTY HotCloud(Cloud c) {
                CONDITION: (big) COUNT(c.Points) > 2 OR (small) COUNT(c.Points) > 0;
                CONFIDENCE: MAX((big) -> 1, (small) -> 0.4);
                SEVERITY: MAX((big) -> SUM(p.X WHERE p IN c.Points), (small) -> 0.1);
            }
            "#,
        );
        let interp = Interpreter::new(&spec, &Points).unwrap();
        let o = interp
            .eval_property("HotCloud", &[Value::obj("Cloud", 0)])
            .unwrap();
        assert!(o.holds);
        // Both conditions fire; MAX picks the larger values.
        assert_eq!(o.confidence, 1.0);
        assert_eq!(o.severity, 6.0);
        assert_eq!(o.fired.len(), 2);
        assert!(o.fired.iter().all(|(_, b)| *b));
    }

    #[test]
    fn property_not_holding_has_zero_severity() {
        let (spec,) = interp_src(
            r#"
            PROPERTY Never(Cloud c) {
                CONDITION: COUNT(c.Points) > 100;
                CONFIDENCE: 1;
                SEVERITY: 42;
            }
            "#,
        );
        let interp = Interpreter::new(&spec, &Points).unwrap();
        let o = interp
            .eval_property("Never", &[Value::obj("Cloud", 0)])
            .unwrap();
        assert!(!o.holds);
        assert_eq!(o.severity, 0.0);
        assert_eq!(o.confidence, 0.0);
    }

    #[test]
    fn guard_only_fires_on_true_condition() {
        let (spec,) = interp_src(
            r#"
            PROPERTY Guarded(Cloud c) {
                CONDITION: (yes) COUNT(c.Points) > 0 OR (no) COUNT(c.Points) > 100;
                CONFIDENCE: MAX((yes) -> 0.8, (no) -> 1);
                SEVERITY: MAX((yes) -> 1.5, (no) -> 99);
            }
            "#,
        );
        let interp = Interpreter::new(&spec, &Points).unwrap();
        let o = interp
            .eval_property("Guarded", &[Value::obj("Cloud", 0)])
            .unwrap();
        assert!(o.holds);
        assert_eq!(o.confidence, 0.8);
        assert_eq!(o.severity, 1.5);
    }

    #[test]
    fn confidence_clamped_to_unit_interval() {
        let (spec,) = interp_src(
            r#"
            PROPERTY Overconfident(Cloud c) {
                CONDITION: TRUE;
                CONFIDENCE: 7;
                SEVERITY: 1;
            }
            "#,
        );
        let interp = Interpreter::new(&spec, &Points).unwrap();
        let o = interp
            .eval_property("Overconfident", &[Value::obj("Cloud", 0)])
            .unwrap();
        assert_eq!(o.confidence, 1.0);
    }

    #[test]
    fn functions_do_not_see_caller_scope() {
        // `G` must not resolve `c` from `F`'s scope.
        let src = format!(
            "{MODEL}\nfloat G(Point p) = p.X;\nfloat F(Cloud c) = SUM(G(p) WHERE p IN c.Points);"
        );
        let spec = parse_and_check(&src).unwrap();
        let interp = Interpreter::new(&spec, &Points).unwrap();
        let v = interp
            .call_function("F", &[Value::obj("Cloud", 0)])
            .unwrap();
        assert_eq!(v, Value::Float(6.0));
    }

    #[test]
    fn wrong_arity_property_call() {
        let (spec,) =
            interp_src("PROPERTY P(Cloud c) { CONDITION: TRUE; CONFIDENCE: 1; SEVERITY: 1; }");
        let interp = Interpreter::new(&spec, &Points).unwrap();
        let e = interp.eval_property("P", &[]).unwrap_err();
        assert_eq!(e.kind, EvalErrorKind::Type);
    }
}
