//! Semantic analysis: resolves the data model, checks helper functions and
//! property declarations, and exposes a reusable expression type inferencer.

use crate::ast::*;
use crate::diag::Diagnostics;
use crate::span::Span;
use crate::types::*;
use std::collections::{HashMap, HashSet};

/// A type-checked specification: the AST plus resolved [`Model`] metadata.
#[derive(Debug, Clone)]
pub struct CheckedSpec {
    /// The underlying syntax tree.
    pub spec: Specification,
    /// Resolved class/enum/function/property metadata.
    pub model: Model,
    /// Warnings recorded on the success path (e.g. confidence constants
    /// outside `[0, 1]`). Never contains errors — those fail [`check`].
    pub warnings: Diagnostics,
}

impl CheckedSpec {
    /// Convenience lookup of a property declaration.
    pub fn property(&self, name: &str) -> Option<&PropertyDecl> {
        self.spec.property(name)
    }

    /// Properties in declaration order.
    pub fn properties(&self) -> &[PropertyDecl] {
        &self.spec.properties
    }
}

/// Type-check a parsed specification.
pub fn check(spec: &Specification) -> Result<CheckedSpec, Diagnostics> {
    let mut decls = Collector {
        model: Model::default(),
        diags: Diagnostics::new(),
    };
    decls.collect_declarations(spec);
    if decls.diags.has_errors() {
        return Err(decls.diags);
    }
    let mut cx = Infer {
        model: &decls.model,
        diags: decls.diags,
    };
    cx.check_bodies(spec);
    let diags = cx.diags;
    if diags.has_errors() {
        Err(diags)
    } else {
        Ok(CheckedSpec {
            spec: spec.clone(),
            model: decls.model,
            warnings: diags,
        })
    }
}

/// Lexical scope used during expression typing. Public for
/// [`infer_expr_type`], which `kojak-lint` calls with the scope of the
/// position it asks about.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    frames: Vec<HashMap<String, Type>>,
}

impl Scope {
    /// A scope with one empty frame.
    pub fn new() -> Self {
        Scope {
            frames: vec![HashMap::new()],
        }
    }

    /// Push a fresh frame.
    pub fn push(&mut self) {
        self.frames.push(HashMap::new());
    }

    /// Pop the innermost frame.
    pub fn pop(&mut self) {
        self.frames.pop();
    }

    /// Bind a variable in the innermost frame.
    pub fn bind(&mut self, name: impl Into<String>, ty: Type) {
        self.frames
            .last_mut()
            .expect("scope has at least one frame")
            .insert(name.into(), ty);
    }

    /// Look up a variable, innermost frame first.
    pub fn lookup(&self, name: &str) -> Option<&Type> {
        self.frames.iter().rev().find_map(|f| f.get(name))
    }
}

/// Pass 1: builds the [`Model`], the only place one is constructed.
struct Collector {
    model: Model,
    diags: Diagnostics,
}

/// Pass 2 and [`infer_expr_type`]: types expressions against a finished
/// model it only borrows.
struct Infer<'m> {
    model: &'m Model,
    diags: Diagnostics,
}

fn resolve_type(model: &Model, diags: &mut Diagnostics, t: &TypeExpr) -> Type {
    let (TypeExprKind::Named(n) | TypeExprKind::Setof(n)) = &t.kind;
    match (model.named_type(n), &t.kind) {
        (Some(ty), TypeExprKind::Named(_)) => ty,
        (Some(ty), TypeExprKind::Setof(_)) => Type::Set(Box::new(ty)),
        (None, _) => {
            diags.error(t.span, format!("unknown type `{n}`"));
            Type::Error
        }
    }
}

impl Collector {
    // ---- pass 1: declarations -------------------------------------------

    fn collect_declarations(&mut self, spec: &Specification) {
        // Enums first (their names may appear as attribute types).
        for e in &spec.enums {
            if self.model.enums.contains_key(&e.name.name)
                || self.model.classes.contains_key(&e.name.name)
            {
                self.diags
                    .error(e.name.span, format!("duplicate type name `{}`", e.name));
                continue;
            }
            let mut variants = Vec::new();
            for v in &e.variants {
                if variants.contains(&v.name) {
                    self.diags.error(
                        v.span,
                        format!("duplicate variant `{}` in enum `{}`", v, e.name),
                    );
                    continue;
                }
                if let Some(owner) = self.model.variant_owner.get(&v.name) {
                    self.diags.error(
                        v.span,
                        format!(
                            "variant `{}` already declared in enum `{owner}`; \
                             variant names must be globally unique because they are \
                             referenced unqualified",
                            v
                        ),
                    );
                    continue;
                }
                self.model
                    .variant_owner
                    .insert(v.name.clone(), e.name.name.clone());
                variants.push(v.name.clone());
            }
            self.model.enums.insert(
                e.name.name.clone(),
                EnumInfo {
                    name: e.name.name.clone(),
                    variants,
                },
            );
        }

        // Class headers.
        for c in &spec.classes {
            if self.model.classes.contains_key(&c.name.name)
                || self.model.enums.contains_key(&c.name.name)
            {
                self.diags
                    .error(c.name.span, format!("duplicate type name `{}`", c.name));
                continue;
            }
            self.model.classes.insert(
                c.name.name.clone(),
                ClassInfo {
                    name: c.name.name.clone(),
                    base: c.base.as_ref().map(|b| b.name.clone()),
                    own_attrs: Vec::new(),
                },
            );
        }

        // Validate bases + detect cycles.
        for c in &spec.classes {
            if let Some(base) = &c.base {
                if !self.model.classes.contains_key(&base.name) {
                    self.diags.error(
                        base.span,
                        format!("unknown base class `{}` for `{}`", base, c.name),
                    );
                    if let Some(ci) = self.model.classes.get_mut(&c.name.name) {
                        ci.base = None;
                    }
                }
            }
        }
        self.detect_inheritance_cycles(spec);

        // Class attributes (types can now be resolved).
        for c in &spec.classes {
            let mut seen = HashSet::new();
            let mut attrs = Vec::new();
            for a in &c.attrs {
                if !seen.insert(a.name.name.clone()) {
                    self.diags.error(
                        a.name.span,
                        format!("duplicate attribute `{}` in class `{}`", a.name, c.name),
                    );
                    continue;
                }
                let ty = self.resolve_type(&a.ty);
                attrs.push(AttrInfo {
                    name: a.name.name.clone(),
                    ty,
                    declared_in: c.name.name.clone(),
                });
            }
            // Shadowing an inherited attribute is an error.
            if let Some(base) = self
                .model
                .classes
                .get(&c.name.name)
                .and_then(|ci| ci.base.clone())
            {
                for a in &attrs {
                    if self.model.attr(&base, &a.name).is_some() {
                        self.diags.error(
                            c.span,
                            format!(
                                "attribute `{}` of class `{}` shadows an inherited attribute",
                                a.name, c.name
                            ),
                        );
                    }
                }
            }
            if let Some(ci) = self.model.classes.get_mut(&c.name.name) {
                ci.own_attrs = attrs;
            }
        }

        // Constant signatures.
        for c in &spec.constants {
            if self.model.constants.contains_key(&c.name.name) {
                self.diags
                    .error(c.name.span, format!("duplicate constant `{}`", c.name));
                continue;
            }
            let ty = self.resolve_type(&c.ty);
            self.model.constants.insert(c.name.name.clone(), ty);
        }

        // Function signatures.
        for f in &spec.functions {
            if self.model.functions.contains_key(&f.name.name) {
                self.diags
                    .error(f.name.span, format!("duplicate function `{}`", f.name));
                continue;
            }
            let params = f
                .params
                .iter()
                .map(|p| (p.name.name.clone(), self.resolve_type(&p.ty)))
                .collect();
            let ret = self.resolve_type(&f.ret_ty);
            self.model.functions.insert(
                f.name.name.clone(),
                FnSig {
                    name: f.name.name.clone(),
                    params,
                    ret,
                },
            );
        }

        // Property signatures.
        for p in &spec.properties {
            if self.model.properties.contains_key(&p.name.name) {
                self.diags
                    .error(p.name.span, format!("duplicate property `{}`", p.name));
                continue;
            }
            let params = p
                .params
                .iter()
                .map(|pa| (pa.name.name.clone(), self.resolve_type(&pa.ty)))
                .collect();
            let mut condition_ids = Vec::new();
            for c in &p.conditions {
                if let Some(id) = &c.id {
                    if condition_ids.contains(&id.name) {
                        self.diags.error(
                            id.span,
                            format!(
                                "duplicate condition identifier `{}` in property `{}`",
                                id, p.name
                            ),
                        );
                    } else {
                        condition_ids.push(id.name.clone());
                    }
                }
            }
            self.model.properties.insert(
                p.name.name.clone(),
                PropSig {
                    name: p.name.name.clone(),
                    params,
                    condition_ids,
                },
            );
        }
    }

    fn detect_inheritance_cycles(&mut self, spec: &Specification) {
        for c in &spec.classes {
            let mut seen = HashSet::new();
            let mut cur = Some(c.name.name.clone());
            while let Some(name) = cur {
                if !seen.insert(name.clone()) {
                    self.diags.error(
                        c.name.span,
                        format!("inheritance cycle involving class `{}`", c.name),
                    );
                    // Break the cycle so later passes terminate.
                    if let Some(ci) = self.model.classes.get_mut(&c.name.name) {
                        ci.base = None;
                    }
                    break;
                }
                cur = self.model.classes.get(&name).and_then(|ci| ci.base.clone());
            }
        }
    }

    fn resolve_type(&mut self, t: &TypeExpr) -> Type {
        resolve_type(&self.model, &mut self.diags, t)
    }
}

impl Infer<'_> {
    // ---- pass 2: bodies ---------------------------------------------------

    fn check_bodies(&mut self, spec: &Specification) {
        let model = self.model;
        for c in &spec.constants {
            let declared = &model.constants[&c.name.name];
            let mut scope = Scope::new();
            let inferred = self.infer(&c.value, &mut scope);
            if !model.assignable(&inferred, declared) {
                self.diags.error(
                    c.value.span,
                    format!(
                        "constant `{}` declares type `{declared}` but its value has type `{inferred}`",
                        c.name
                    ),
                );
            }
        }

        for f in &spec.functions {
            let sig = &model.functions[&f.name.name];
            let mut scope = Scope::new();
            for (name, ty) in &sig.params {
                scope.bind(name.clone(), ty.clone());
            }
            let body_ty = self.infer(&f.body, &mut scope);
            if !model.assignable(&body_ty, &sig.ret) {
                self.diags.error(
                    f.body.span,
                    format!(
                        "function `{}` declares return type `{}` but its body has type `{}`",
                        f.name, sig.ret, body_ty
                    ),
                );
            }
        }

        for p in &spec.properties {
            self.check_property(p);
        }
    }

    fn check_property(&mut self, p: &PropertyDecl) {
        let sig = &self.model.properties[&p.name.name];
        let mut scope = Scope::new();
        for (name, ty) in &sig.params {
            scope.bind(name.clone(), ty.clone());
        }

        for l in &p.lets {
            let declared = resolve_type(self.model, &mut self.diags, &l.ty);
            let inferred = self.infer(&l.value, &mut scope);
            if !self.model.assignable(&inferred, &declared) {
                self.diags.error(
                    l.value.span,
                    format!(
                        "LET binding `{}` declares type `{declared}` but its value has type `{inferred}`",
                        l.name
                    ),
                );
            }
            scope.bind(l.name.name.clone(), declared);
        }

        for c in &p.conditions {
            let t = self.infer(&c.expr, &mut scope);
            if t != Type::Bool && t != Type::Error {
                self.diags.error(
                    c.expr.span,
                    format!("condition must be boolean, found `{t}`"),
                );
            }
        }

        self.check_arm_spec(&p.confidence, sig, &mut scope, "CONFIDENCE", true);
        self.check_arm_spec(&p.severity, sig, &mut scope, "SEVERITY", false);

        // Guarded arms require at least one labelled condition to exist.
        let any_guard = p
            .confidence
            .arms
            .iter()
            .chain(p.severity.arms.iter())
            .any(|a| a.guard.is_some());
        if any_guard && sig.condition_ids.is_empty() {
            self.diags.error(
                p.span,
                format!(
                    "property `{}` uses guarded arms but declares no condition identifiers",
                    p.name
                ),
            );
        }
    }

    fn check_arm_spec(
        &mut self,
        spec: &ArmSpec,
        sig: &PropSig,
        scope: &mut Scope,
        section: &str,
        is_confidence: bool,
    ) {
        for arm in &spec.arms {
            if let Some(g) = &arm.guard {
                if !sig.condition_ids.contains(&g.name) {
                    self.diags.error(
                        g.span,
                        format!(
                            "{section} arm guard `({})` does not name a declared condition id; \
                             declared ids: [{}]",
                            g,
                            sig.condition_ids.join(", ")
                        ),
                    );
                }
            }
            let t = self.infer(&arm.expr, scope);
            if !t.is_numeric() && t != Type::Error {
                self.diags.error(
                    arm.expr.span,
                    format!("{section} expression must be numeric, found `{t}`"),
                );
            }
            if is_confidence {
                if let ExprKind::FloatLit(v) = arm.expr.kind {
                    if !(0.0..=1.0).contains(&v) {
                        self.diags.warning(
                            arm.expr.span,
                            format!("confidence constant {v} lies outside [0, 1]"),
                        );
                    }
                }
                if let ExprKind::IntLit(v) = arm.expr.kind {
                    if !(0..=1).contains(&v) {
                        self.diags.warning(
                            arm.expr.span,
                            format!("confidence constant {v} lies outside [0, 1]"),
                        );
                    }
                }
            }
        }
        if spec.arms.len() > 1 && !spec.is_max {
            self.diags.error(
                spec.span,
                format!("{section} with multiple arms must use the MAX(...) combiner"),
            );
        }
    }

    // ---- expression typing -------------------------------------------------

    fn infer(&mut self, e: &Expr, scope: &mut Scope) -> Type {
        match &e.kind {
            ExprKind::IntLit(_) => Type::Int,
            ExprKind::FloatLit(_) => Type::Float,
            ExprKind::StrLit(_) => Type::Str,
            ExprKind::BoolLit(_) => Type::Bool,
            ExprKind::Var(name) => {
                if let Some(t) = scope.lookup(name) {
                    t.clone()
                } else if let Some(t) = self.model.constants.get(name) {
                    t.clone()
                } else if let Some(owner) = self.model.variant_owner.get(name) {
                    Type::Enum(owner.clone())
                } else {
                    self.diags
                        .error(e.span, format!("unknown variable `{name}`"));
                    Type::Error
                }
            }
            ExprKind::Attr(base, attr) => {
                let bt = self.infer(base, scope);
                match bt {
                    Type::Class(cname) => match self.model.attr(&cname, &attr.name) {
                        Some(a) => a.ty.clone(),
                        None => {
                            self.diags.error(
                                attr.span,
                                format!("class `{cname}` has no attribute `{}`", attr.name),
                            );
                            Type::Error
                        }
                    },
                    Type::Set(_) => {
                        self.diags.error(
                            attr.span,
                            format!(
                                "cannot access attribute `{}` on a set; \
                                 use a comprehension or UNIQUE first",
                                attr.name
                            ),
                        );
                        Type::Error
                    }
                    Type::Error => Type::Error,
                    other => {
                        self.diags
                            .error(attr.span, format!("type `{other}` has no attributes"));
                        Type::Error
                    }
                }
            }
            ExprKind::Call(name, args) => self.infer_call(e.span, name, args, scope),
            ExprKind::Unary(op, inner) => {
                let t = self.infer(inner, scope);
                match op {
                    UnOp::Neg => {
                        if !t.is_numeric() {
                            self.diags.error(inner.span, format!("cannot negate `{t}`"));
                            Type::Error
                        } else {
                            t
                        }
                    }
                    UnOp::Not => {
                        if t != Type::Bool && t != Type::Error {
                            self.diags
                                .error(inner.span, format!("NOT requires bool, found `{t}`"));
                        }
                        Type::Bool
                    }
                }
            }
            ExprKind::Binary(op, lhs, rhs) => {
                let lt = self.infer(lhs, scope);
                let rt = self.infer(rhs, scope);
                self.infer_binary(e.span, *op, lt, rt)
            }
            ExprKind::SetComp {
                binder,
                source,
                pred,
            } => {
                let st = self.infer(source, scope);
                let elem = match st {
                    Type::Set(t) => *t,
                    Type::Error => Type::Error,
                    other => {
                        self.diags.error(
                            source.span,
                            format!("comprehension source must be a set, found `{other}`"),
                        );
                        Type::Error
                    }
                };
                scope.push();
                scope.bind(binder.name.clone(), elem.clone());
                let pt = self.infer(pred, scope);
                scope.pop();
                if pt != Type::Bool && pt != Type::Error {
                    self.diags.error(
                        pred.span,
                        format!("comprehension predicate must be boolean, found `{pt}`"),
                    );
                }
                Type::Set(Box::new(elem))
            }
            ExprKind::Unique(inner) => {
                let t = self.infer(inner, scope);
                match t {
                    Type::Set(elem) => *elem,
                    Type::Error => Type::Error,
                    other => {
                        self.diags.error(
                            inner.span,
                            format!("UNIQUE requires a set, found `{other}`"),
                        );
                        Type::Error
                    }
                }
            }
            ExprKind::Aggregate {
                op,
                value,
                binder,
                source,
                pred,
            } => {
                let st = self.infer(source, scope);
                let elem = match st {
                    Type::Set(t) => *t,
                    Type::Error => Type::Error,
                    other => {
                        self.diags.error(
                            source.span,
                            format!("aggregate source must be a set, found `{other}`"),
                        );
                        Type::Error
                    }
                };
                scope.push();
                scope.bind(binder.name.clone(), elem);
                let vt = self.infer(value, scope);
                if let Some(p) = pred {
                    let pt = self.infer(p, scope);
                    if pt != Type::Bool && pt != Type::Error {
                        self.diags.error(
                            p.span,
                            format!("aggregate predicate must be boolean, found `{pt}`"),
                        );
                    }
                }
                scope.pop();
                match op {
                    AggOp::Count => Type::Int,
                    AggOp::Avg => {
                        self.require_numeric(value.span, &vt, "AVG");
                        Type::Float
                    }
                    AggOp::Sum => {
                        self.require_numeric(value.span, &vt, "SUM");
                        if vt == Type::Int {
                            Type::Int
                        } else {
                            Type::Float
                        }
                    }
                    AggOp::Min | AggOp::Max => {
                        if !vt.is_ordered() {
                            self.diags.error(
                                value.span,
                                format!(
                                    "{}/{} require an ordered value, found `{vt}`",
                                    "MIN", "MAX"
                                ),
                            );
                            Type::Error
                        } else {
                            vt
                        }
                    }
                }
            }
            ExprKind::Quantifier {
                binder,
                source,
                pred,
                ..
            } => {
                let st = self.infer(source, scope);
                let elem = match st {
                    Type::Set(t) => *t,
                    Type::Error => Type::Error,
                    other => {
                        self.diags.error(
                            source.span,
                            format!("quantifier source must be a set, found `{other}`"),
                        );
                        Type::Error
                    }
                };
                scope.push();
                scope.bind(binder.name.clone(), elem);
                let pt = self.infer(pred, scope);
                scope.pop();
                if pt != Type::Bool && pt != Type::Error {
                    self.diags.error(
                        pred.span,
                        format!("quantifier predicate must be boolean, found `{pt}`"),
                    );
                }
                Type::Bool
            }
            ExprKind::CountSet(inner) => {
                let t = self.infer(inner, scope);
                if !matches!(t, Type::Set(_) | Type::Error) {
                    self.diags
                        .error(inner.span, format!("COUNT requires a set, found `{t}`"));
                }
                Type::Int
            }
        }
    }

    fn require_numeric(&mut self, span: Span, t: &Type, what: &str) {
        if !t.is_numeric() {
            self.diags.error(
                span,
                format!("{what} requires a numeric value, found `{t}`"),
            );
        }
    }

    fn infer_call(&mut self, span: Span, name: &Ident, args: &[Expr], scope: &mut Scope) -> Type {
        // n-ary numeric builtins produced by the parser for MAX(a,b,...).
        if name.name == "MAX" || name.name == "MIN" {
            if args.is_empty() {
                self.diags.error(
                    span,
                    format!("{} requires at least one argument", name.name),
                );
                return Type::Error;
            }
            let mut out = Type::Int;
            for a in args {
                let t = self.infer(a, scope);
                if !t.is_numeric() {
                    self.diags.error(
                        a.span,
                        format!("{} arguments must be numeric, found `{t}`", name.name),
                    );
                    return Type::Error;
                }
                if t == Type::Float {
                    out = Type::Float;
                }
            }
            return out;
        }

        let model = self.model;
        let Some(sig) = model.functions.get(&name.name) else {
            self.diags
                .error(name.span, format!("unknown function `{}`", name.name));
            for a in args {
                let _ = self.infer(a, scope);
            }
            return Type::Error;
        };
        if args.len() != sig.params.len() {
            self.diags.error(
                span,
                format!(
                    "function `{}` expects {} argument(s), got {}",
                    name.name,
                    sig.params.len(),
                    args.len()
                ),
            );
        }
        for (a, (pname, pty)) in args.iter().zip(sig.params.iter()) {
            let at = self.infer(a, scope);
            if !model.assignable(&at, pty) {
                self.diags.error(
                    a.span,
                    format!(
                        "argument `{pname}` of `{}` expects `{pty}`, found `{at}`",
                        name.name
                    ),
                );
            }
        }
        sig.ret.clone()
    }

    fn infer_binary(&mut self, span: Span, op: BinOp, lt: Type, rt: Type) -> Type {
        use BinOp::*;
        if lt == Type::Error || rt == Type::Error {
            return match op {
                Add | Sub | Mul | Mod => Type::Error,
                Div => Type::Float,
                _ => Type::Bool,
            };
        }
        match op {
            Add | Sub | Mul => {
                if lt.is_numeric() && rt.is_numeric() {
                    if lt == Type::Int && rt == Type::Int {
                        Type::Int
                    } else {
                        Type::Float
                    }
                } else {
                    self.diags.error(
                        span,
                        format!(
                            "operator `{}` requires numeric operands, found `{lt}` and `{rt}`",
                            op.symbol()
                        ),
                    );
                    Type::Error
                }
            }
            // `/` always yields float: severities are ratios (paper §4.2).
            Div => {
                if lt.is_numeric() && rt.is_numeric() {
                    Type::Float
                } else {
                    self.diags.error(
                        span,
                        format!("operator `/` requires numeric operands, found `{lt}` and `{rt}`"),
                    );
                    Type::Error
                }
            }
            Mod => {
                if lt == Type::Int && rt == Type::Int {
                    Type::Int
                } else {
                    self.diags.error(
                        span,
                        format!("operator `%` requires int operands, found `{lt}` and `{rt}`"),
                    );
                    Type::Error
                }
            }
            Eq | Ne => {
                let ok = (lt.is_numeric() && rt.is_numeric())
                    || lt == rt
                    || match (&lt, &rt) {
                        (Type::Class(a), Type::Class(b)) => {
                            self.model.is_subclass(a, b) || self.model.is_subclass(b, a)
                        }
                        _ => false,
                    };
                if !ok {
                    self.diags
                        .error(span, format!("cannot compare `{lt}` with `{rt}`"));
                }
                Type::Bool
            }
            Lt | Le | Gt | Ge => {
                let ok = (lt.is_numeric() && rt.is_numeric()) || (lt == rt && lt.is_ordered());
                if !ok {
                    self.diags.error(
                        span,
                        format!(
                            "operator `{}` requires ordered operands of compatible type, \
                             found `{lt}` and `{rt}`",
                            op.symbol()
                        ),
                    );
                }
                Type::Bool
            }
            And | Or => {
                if lt != Type::Bool || rt != Type::Bool {
                    self.diags.error(
                        span,
                        format!(
                            "operator `{}` requires boolean operands, found `{lt}` and `{rt}`",
                            op.symbol()
                        ),
                    );
                }
                Type::Bool
            }
        }
    }
}

/// Standalone expression type inference against a checked model.
///
/// `kojak-lint`'s performance rules use this to make type-directed
/// decisions without re-running the whole checker. The model is only read —
/// a call costs what typing `expr` costs, whatever the size of the spec.
/// Returns `Err` with diagnostics if the expression does not type-check in
/// the given scope.
pub fn infer_expr_type(model: &Model, expr: &Expr, scope: &mut Scope) -> Result<Type, Diagnostics> {
    let mut cx = Infer {
        model,
        diags: Diagnostics::new(),
    };
    let t = cx.infer(expr, scope);
    if cx.diags.has_errors() {
        Err(cx.diags)
    } else {
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse, parse_expr};

    const MODEL: &str = r#"
        enum TimingType { Barrier, IoRead, IoWrite }
        class TestRun { int NoPe; int Clockspeed; }
        class Region  {
            setof TotalTiming TotTimes;
            setof TypedTiming TypTimes;
        }
        class TotalTiming { TestRun Run; float Excl; float Incl; float Ovhd; }
        class TypedTiming { TestRun Run; TimingType Type; float Time; }
    "#;

    fn checked(extra: &str) -> CheckedSpec {
        let src = format!("{MODEL}\n{extra}");
        match parse(&src).and_then(|s| check(&s)) {
            Ok(c) => c,
            Err(d) => panic!("check failed:\n{}", d.render(&src)),
        }
    }

    fn check_err(extra: &str) -> Diagnostics {
        let src = format!("{MODEL}\n{extra}");
        parse(&src)
            .and_then(|s| check(&s))
            .err()
            .unwrap_or_else(|| panic!("expected check error for:\n{extra}"))
    }

    #[test]
    fn paper_model_checks_clean() {
        let c = checked("");
        assert_eq!(c.model.classes.len(), 4);
        assert_eq!(c.model.enums.len(), 1);
        assert_eq!(c.model.attr("TotalTiming", "Incl").unwrap().ty, Type::Float);
    }

    #[test]
    fn paper_functions_check() {
        let c = checked(
            r#"
            TotalTiming Summary(Region r, TestRun t) =
                UNIQUE({s IN r.TotTimes WITH s.Run == t});
            float Duration(Region r, TestRun t) = Summary(r, t).Incl;
            "#,
        );
        assert_eq!(c.model.functions["Duration"].ret, Type::Float);
        assert_eq!(
            c.model.functions["Summary"].ret,
            Type::Class("TotalTiming".into())
        );
    }

    #[test]
    fn sync_cost_property_checks() {
        let c = checked(
            r#"
            TotalTiming Summary(Region r, TestRun t) =
                UNIQUE({s IN r.TotTimes WITH s.Run == t});
            float Duration(Region r, TestRun t) = Summary(r, t).Incl;
            Property SyncCost(Region r, TestRun t, Region Basis) {
                LET float Barrier2 = SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run==t
                        AND tt.Type == Barrier);
                IN CONDITION: Barrier2 > 0; CONFIDENCE: 1;
                SEVERITY: Barrier2 / Duration(Basis,t);
            }
            "#,
        );
        assert_eq!(c.model.properties["SyncCost"].params.len(), 3);
    }

    #[test]
    fn enum_variant_resolves_as_value() {
        let c = checked("");
        let e = parse_expr("Barrier").unwrap();
        let mut scope = Scope::new();
        assert_eq!(
            infer_expr_type(&c.model, &e, &mut scope).unwrap(),
            Type::Enum("TimingType".into())
        );
    }

    /// The sweep over every body of the real suite lives where the suite
    /// can be named: `tests/inference.rs` of the root package.
    #[test]
    fn standalone_inference_only_reads_the_model() {
        let c = checked("float T = 0.25;");
        let before = c.model.clone();
        let mut scope = Scope::new();
        scope.bind("r", Type::Class("Region".into()));

        let good = parse_expr("SUM(s.Incl WHERE s IN r.TotTimes AND s.Incl > T)").unwrap();
        let ty = infer_expr_type(&c.model, &good, &mut scope).unwrap();
        assert_eq!(ty, Type::Float);

        let bad = parse_expr("T + r.TotTimes").unwrap();
        let diags = infer_expr_type(&c.model, &bad, &mut scope).unwrap_err();
        let d = diags.iter().next().unwrap();
        assert!(d.message.contains("numeric operands"), "{}", d.message);
        assert_eq!(d.span, bad.span, "the diagnostic points at the expression");
        assert_ne!(d.span, Span::default());

        assert_eq!(c.model, before);
    }

    #[test]
    fn unknown_attribute_is_error() {
        let d = check_err("float F(Region r) = r.Nope;");
        assert!(d.to_string().contains("no attribute"));
    }

    #[test]
    fn unknown_type_is_error() {
        let d = check_err("class X { Mystery m; }");
        assert!(d.to_string().contains("unknown type"));
    }

    #[test]
    fn condition_must_be_bool() {
        let d = check_err("Property P(Region r) { CONDITION: 1 + 2; CONFIDENCE: 1; SEVERITY: 1; }");
        assert!(d.to_string().contains("boolean"));
    }

    #[test]
    fn severity_must_be_numeric() {
        let d =
            check_err("Property P(Region r) { CONDITION: TRUE; CONFIDENCE: 1; SEVERITY: TRUE; }");
        assert!(d.to_string().contains("numeric"));
    }

    #[test]
    fn guard_must_reference_declared_condition() {
        let d = check_err(
            r#"Property P(Region r) {
                CONDITION: (a) TRUE;
                CONFIDENCE: MAX((a) -> 1, (zz) -> 0.5);
                SEVERITY: 1;
            }"#,
        );
        assert!(d.to_string().contains("zz"));
    }

    #[test]
    fn duplicate_condition_id_is_error() {
        let d = check_err(
            r#"Property P(Region r) {
                CONDITION: (a) TRUE OR (a) FALSE;
                CONFIDENCE: 1;
                SEVERITY: 1;
            }"#,
        );
        assert!(d.to_string().contains("duplicate condition identifier"));
    }

    #[test]
    fn let_type_mismatch_is_error() {
        let d = check_err(
            r#"Property P(Region r, TestRun t) {
                LET int X = UNIQUE({s IN r.TotTimes WITH s.Run == t});
                IN CONDITION: TRUE; CONFIDENCE: 1; SEVERITY: 1;
            }"#,
        );
        assert!(d.to_string().contains("LET binding"));
    }

    #[test]
    fn int_widens_to_float() {
        checked("float F(TestRun t) = t.NoPe;");
    }

    #[test]
    fn float_does_not_narrow_to_int() {
        let d = check_err("int F(TotalTiming s) = s.Incl;");
        assert!(d.to_string().contains("return type"));
    }

    #[test]
    fn inheritance_cycle_detected() {
        let src = "class A extends B { } class B extends A { }";
        let d = parse(src).and_then(|s| check(&s)).unwrap_err();
        assert!(d.to_string().contains("cycle"));
    }

    #[test]
    fn duplicate_class_is_error() {
        let d = check_err("class Region { int x; }");
        assert!(d.to_string().contains("duplicate type name"));
    }

    #[test]
    fn variant_collision_across_enums_is_error() {
        let d = check_err("enum Other { Barrier }");
        assert!(d.to_string().contains("globally unique"));
    }

    #[test]
    fn class_comparison_requires_related_types() {
        let d = check_err("bool F(Region r, TestRun t) = r == t;");
        assert!(d.to_string().contains("cannot compare"));
    }

    #[test]
    fn subclass_comparison_allowed() {
        checked(
            "class Special extends Region { int Extra; } \
             bool F(Special s, Region r) = s == r;",
        );
    }

    #[test]
    fn confidence_constant_range_warning() {
        // Warnings do not fail the check but are recorded.
        let src = format!(
            "{MODEL}\nProperty P(Region r) {{ CONDITION: TRUE; CONFIDENCE: 3; SEVERITY: 1; }}"
        );
        let spec = parse(&src).unwrap();
        let res = check(&spec);
        let checked = res.unwrap();
        assert_eq!(checked.warnings.len(), 1);
        let w = checked.warnings.iter().next().unwrap();
        assert!(w.message.contains("outside [0, 1]"), "{}", w.message);
        assert_ne!(w.span, Span::default(), "warning must carry a real span");
    }

    #[test]
    fn attribute_on_set_is_helpful_error() {
        let d = check_err("float F(Region r) = r.TotTimes.Incl;");
        assert!(d.to_string().contains("UNIQUE"));
    }

    #[test]
    fn multiple_unguarded_arms_require_max() {
        // Constructed directly in AST form this cannot come from the parser
        // (the parser only builds multi-arm specs with is_max). Check via
        // a guarded MAX referencing declared ids.
        checked(
            r#"Property P(Region r) {
                CONDITION: (a) TRUE OR (b) FALSE;
                CONFIDENCE: MAX((a) -> 1, (b) -> 0.5);
                SEVERITY: MAX((a) -> 2, (b) -> 1);
            }"#,
        );
    }

    #[test]
    fn aggregate_value_must_be_numeric_for_sum() {
        let d = check_err("float F(Region r) = SUM(s.Run WHERE s IN r.TotTimes);");
        assert!(d.to_string().contains("numeric"));
    }

    #[test]
    fn count_returns_int() {
        let c = checked("int F(Region r) = COUNT(r.TotTimes);");
        assert_eq!(c.model.functions["F"].ret, Type::Int);
    }

    #[test]
    fn constants_type_checked_and_visible() {
        let c = checked("float T = 0.25;\nbool F(TotalTiming s) = s.Incl > T;");
        assert_eq!(c.model.constants["T"], Type::Float);
    }

    #[test]
    fn constant_type_mismatch_is_error() {
        let d = check_err("int T = 1.5;");
        assert!(d.to_string().contains("constant"));
    }

    #[test]
    fn duplicate_constant_is_error() {
        let d = check_err("float T = 1.0; float T = 2.0;");
        assert!(d.to_string().contains("duplicate constant"));
    }

    #[test]
    fn constant_widening_int_to_float() {
        checked("float T = 3;");
    }
}
