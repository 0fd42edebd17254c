//! Performance lints grounded in the compiled-IR lowering rules.
//!
//! These rules reuse `asl_eval::compile::shape` — the *exact* predicate
//! decomposition the compiler performs — so a lint fires precisely when
//! the compiled engine would (or would fail to) use an indexed load, and
//! `asl_eval::native_index` to know which `(class, set, attr)` triples
//! the COSY store can actually serve in O(matches).

use super::{bind_params, decl_ty, uses_var, LintCx, LintRule};
use crate::Finding;
use asl_core::ast::{BinOp, Expr, ExprKind, Ident, Param};
use asl_core::check::{infer_expr_type, Scope};
use asl_core::types::{Model, Type};
use asl_core::Span;
use asl_eval::compile::shape::{and_conjuncts, eq_filter_conjunct, indexed_filter};
use asl_eval::native_index;

/// The one scoped walk the three rules share: every expression of the spec
/// is visited once, with the lexical type scope of its position and the
/// binders of the set constructs around it. The checker is asked for a
/// type once per construct source, once per filtered base and once per
/// binder-dependent attribute.
struct Walk<'a> {
    model: &'a Model,
    scope: Scope,
    /// Binders of the enclosing set constructs, outermost first.
    binders: Vec<&'a str>,
    /// The declaration being walked (`property X`, `function F`, …).
    owner: String,
    out: Vec<Finding>,
}

/// Every performance finding of the spec, computed by the first of the
/// three rules to run and shared through the context.
fn findings<'c>(cx: &'c LintCx<'_>) -> &'c [Finding] {
    cx.perf.get_or_init(|| {
        let model = cx.model();
        let spec = &cx.spec.spec;
        let mut w = Walk {
            model,
            scope: Scope::new(),
            binders: Vec::new(),
            owner: String::new(),
            out: Vec::new(),
        };
        for c in &spec.constants {
            w.enter(format!("constant {}", c.name.name), &[]);
            w.expr(&c.value);
        }
        for fun in &spec.functions {
            w.enter(format!("function {}", fun.name.name), &fun.params);
            w.expr(&fun.body);
        }
        for p in &spec.properties {
            w.enter(format!("property {}", p.name.name), &p.params);
            for l in &p.lets {
                w.expr(&l.value);
                w.scope.bind(&l.name.name, decl_ty(model, &l.ty));
            }
            for c in &p.conditions {
                w.expr(&c.expr);
            }
            for arm in p.confidence.arms.iter().chain(p.severity.arms.iter()) {
                w.expr(&arm.expr);
            }
        }
        w.out
    })
}

/// The findings of one rule, out of the shared walk.
fn emit(rule: &'static str, cx: &LintCx<'_>, out: &mut Vec<Finding>) {
    out.extend(findings(cx).iter().filter(|f| f.rule == rule).cloned());
}

impl<'a> Walk<'a> {
    /// Start a declaration: a fresh scope holding its parameters.
    fn enter(&mut self, owner: String, params: &[Param]) {
        self.owner = owner;
        self.scope = Scope::new();
        bind_params(self.model, &mut self.scope, params);
    }

    fn finding(&mut self, rule: &'static str, span: Span, message: String) {
        self.out.push(Finding {
            rule,
            message,
            span,
            owner: self.owner.clone(),
            ..Finding::default()
        });
    }

    fn expr(&mut self, e: &'a Expr) {
        match &e.kind {
            ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::BoolLit(_)
            | ExprKind::Var(_) => {}
            ExprKind::Attr(base, _) => self.attr(e, base, None),
            ExprKind::Call(_, args) => {
                for a in args {
                    self.expr(a);
                }
            }
            ExprKind::Unary(_, inner) | ExprKind::Unique(inner) | ExprKind::CountSet(inner) => {
                self.expr(inner)
            }
            ExprKind::Binary(_, l, r) => {
                self.expr(l);
                self.expr(r);
            }
            ExprKind::SetComp {
                binder,
                source,
                pred,
            } => {
                self.filtered(binder, source, Some(pred));
                self.construct(binder, source, [None, Some(pred)]);
            }
            ExprKind::Aggregate {
                value,
                binder,
                source,
                pred,
                ..
            } => {
                self.filtered(binder, source, pred.as_deref());
                self.construct(binder, source, [Some(value), pred.as_deref()]);
            }
            // `FORALL`/`EXISTS` never use the indexed filter.
            ExprKind::Quantifier {
                binder,
                source,
                pred,
                ..
            } => self.construct(binder, source, [None, Some(pred)]),
        }
    }

    /// Walk a set construct: its source in the surrounding scope, its
    /// bodies with the binder bound to the source's element type
    /// (`Type::Error`, which rules treat as "unknown", when inference
    /// fails).
    fn construct(&mut self, binder: &'a Ident, source: &'a Expr, bodies: [Option<&'a Expr>; 2]) {
        let ty = infer_expr_type(self.model, source, &mut self.scope).ok();
        let elem = match &ty {
            Some(Type::Set(elem)) => (**elem).clone(),
            _ => Type::Error,
        };
        match &source.kind {
            ExprKind::Attr(base, _) => self.attr(source, base, ty),
            _ => self.expr(source),
        }
        self.scope.push();
        self.scope.bind(&binder.name, elem);
        self.binders.push(&binder.name);
        for body in bodies.into_iter().flatten() {
            self.expr(body);
        }
        self.binders.pop();
        self.scope.pop();
    }

    /// `per-element-set-clone` at the attribute access `e`, attributed to
    /// the outermost enclosing binder it reads; `ty` is its type when the
    /// caller already asked for it.
    fn attr(&mut self, e: &'a Expr, base: &'a Expr, ty: Option<Type>) {
        if let Some(binder) = self.binders.iter().copied().find(|b| uses_var(e, b)) {
            let ty = ty.or_else(|| infer_expr_type(self.model, e, &mut self.scope).ok());
            if matches!(ty, Some(Type::Set(_))) {
                self.finding(
                    "per-element-set-clone",
                    e.span,
                    format!(
                        "set-valued attribute `{}` depends on binder `{binder}` and is \
                         materialized (cloned) on every iteration; hoist it or \
                         restructure the loop if the set is large",
                        asl_core::pretty::print_expr(e),
                    ),
                );
            }
        }
        self.expr(base);
    }

    /// `residual-filter-scan` and `full-scan-where-indexed` at a construct
    /// the compiler's `lower_source` extraction applies to: which of the
    /// two can fire is decided by whether the first conjunct is extracted
    /// *and* natively served.
    fn filtered(&mut self, binder: &'a Ident, source: &'a Expr, pred: Option<&'a Expr>) {
        let (ExprKind::Attr(base, set_attr), Some(pred)) = (&source.kind, pred) else {
            return;
        };
        let Ok(Type::Class(class)) = infer_expr_type(self.model, base, &mut self.scope) else {
            return;
        };
        let b = &binder.name;
        let sa = &set_attr.name;
        let served = indexed_filter(b, source, Some(pred))
            .filter(|f| native_index(&class, f.set_attr, f.elem_attr));
        if let Some(f) = served {
            for r in &f.residual {
                let Some((attr, n_keys)) = eq_membership(r, b) else {
                    continue;
                };
                let keys = if n_keys == 1 {
                    "…".to_string()
                } else {
                    format!("one of {n_keys} keys")
                };
                self.finding(
                    "residual-filter-scan",
                    r.span,
                    format!(
                        "`{b}.{attr} == {keys}` runs per element after the indexed \
                         `{b}.{ea} ==` load: `{class}.{sa}` has no ({ea}, {attr}) \
                         two-key index, so the residual filter scans every match",
                        ea = f.elem_attr,
                    ),
                );
            }
            return;
        }
        // Not served (a second servable conjunct behind a served first one
        // is the two-key case above): any servable conjunct is a lost
        // indexed load. One finding per construct is enough.
        for (i, conj) in and_conjuncts(pred).into_iter().enumerate() {
            let Some((attr, _)) = eq_filter_conjunct(conj, b) else {
                continue;
            };
            if !native_index(&class, sa, attr) {
                continue;
            }
            let why = if i == 0 {
                // First conjunct, but extraction still failed (e.g. a
                // non-simple key): unreachable today, kept for safety.
                "the compiler could not extract it".to_string()
            } else {
                format!(
                    "it is conjunct {} — only the first conjunct is extracted",
                    i + 1
                )
            };
            self.finding(
                "full-scan-where-indexed",
                conj.span,
                format!(
                    "this construct scans `{class}.{sa}` in full although \
                     `{b}.{attr} ==` could be served by the indexed load; {why}. \
                     Move it to the front of the predicate",
                ),
            );
            return;
        }
    }
}

/// Recognize a per-element equality *membership* filter on one attribute
/// of the binder: either a single `b.Attr == key` conjunct or an `OR`
/// chain of such comparisons over the same attribute
/// (`b.Type == PtpSend OR b.Type == PtpRecv OR …`). Returns the
/// attribute and the number of compared keys.
fn eq_membership<'e>(e: &'e Expr, binder: &str) -> Option<(&'e str, usize)> {
    if let Some((attr, _key)) = eq_filter_conjunct(e, binder) {
        return Some((attr, 1));
    }
    if let ExprKind::Binary(BinOp::Or, l, r) = &e.kind {
        let (la, ln) = eq_membership(l, binder)?;
        let (ra, rn) = eq_membership(r, binder)?;
        if la == ra {
            return Some((la, ln + rn));
        }
    }
    None
}

/// `residual-filter-scan`: the compiler extracts an indexed
/// `b.Attr == key` load the store serves natively, but the predicate
/// carries a *second* equality filter on another attribute that must run
/// per element — a two-key filter (e.g. `Run == t AND Type == Barrier`)
/// the store has no composite index for.
pub struct ResidualFilterScan;

impl LintRule for ResidualFilterScan {
    fn name(&self) -> &'static str {
        "residual-filter-scan"
    }

    fn description(&self) -> &'static str {
        "two-key equality filter: indexed load plus a per-element residual equality"
    }

    fn run(&self, cx: &LintCx<'_>, out: &mut Vec<Finding>) {
        emit(self.name(), cx, out);
    }
}

/// `full-scan-where-indexed`: the predicate contains an equality
/// conjunct the store could serve with an indexed load, but its position
/// keeps the compiler from extracting it — the construct scans the whole
/// set even though a `FilterEq` load exists.
pub struct FullScanWhereIndexed;

impl LintRule for FullScanWhereIndexed {
    fn name(&self) -> &'static str {
        "full-scan-where-indexed"
    }

    fn description(&self) -> &'static str {
        "full scan although an equality conjunct could use the indexed load"
    }

    fn run(&self, cx: &LintCx<'_>, out: &mut Vec<Finding>) {
        emit(self.name(), cx, out);
    }
}

/// `per-element-set-clone`: a set-valued attribute load that depends on
/// a construct's binder is re-materialized (cloned out of the store) on
/// every iteration of that construct. Binder-independent set loads are
/// hoisted and cached by the compiler; binder-dependent ones cannot be.
pub struct PerElementSetClone;

impl LintRule for PerElementSetClone {
    fn name(&self) -> &'static str {
        "per-element-set-clone"
    }

    fn description(&self) -> &'static str {
        "set-valued attribute materialized on every loop iteration"
    }

    fn run(&self, cx: &LintCx<'_>, out: &mut Vec<Finding>) {
        emit(self.name(), cx, out);
    }
}
