//! The lint-rule framework and the rule registry.
//!
//! Every rule implements [`LintRule`] and pushes [`Finding`]s with the
//! most precise [`asl_core::Span`] it can attribute — that span drives
//! both the caret snippet of the text renderer and the line/column of
//! the JSON output, so rules must never fall back to `Span::default()`
//! when the AST offers a real location.

pub mod arms;
pub mod divzero;
pub mod perf;
pub mod shadow;
pub mod subsume;
pub mod units;
pub mod unused;

use crate::fold::Folder;
use crate::Finding;
use asl_core::ast::{Expr, ExprKind, Param, TypeExpr, TypeExprKind};
use asl_core::check::{CheckedSpec, Scope};
use asl_core::types::{Model, Type};
use std::cell::OnceCell;

/// Shared context handed to every rule: the checked spec, the constant
/// folder (built once over the spec's global constants), and the
/// abstract-interpretation results over its compiled IR.
pub struct LintCx<'a> {
    /// The type-checked specification under analysis.
    pub spec: &'a CheckedSpec,
    /// Constant folder over the spec's global constants.
    pub folder: Folder,
    /// Flow results over the compiled IR: the facts every semantic rule
    /// (div-by-zero triage, arm reachability and overlap, units,
    /// subsumption) reads.
    pub flow: &'a flow::FlowReport,
    /// The performance rules' findings, from the one walk they share
    /// (see [`perf`]); filled by whichever of them runs first.
    perf: OnceCell<Vec<Finding>>,
}

impl<'a> LintCx<'a> {
    /// Build the context over a spec and its flow results.
    pub fn new(spec: &'a CheckedSpec, flow: &'a flow::FlowReport) -> Self {
        LintCx {
            folder: Folder::new(&spec.spec),
            spec,
            flow,
            perf: OnceCell::new(),
        }
    }

    /// The resolved data-model metadata.
    pub fn model(&self) -> &Model {
        &self.spec.model
    }
}

/// A single lint rule.
pub trait LintRule {
    /// Stable kebab-case rule name (used by `allow(...)` directives and
    /// the JSON output).
    fn name(&self) -> &'static str;
    /// One-line description for `--help`-style listings.
    fn description(&self) -> &'static str;
    /// Run the rule, appending findings.
    fn run(&self, cx: &LintCx<'_>, out: &mut Vec<Finding>);
}

/// All registered rules, in a stable order.
pub fn all() -> Vec<Box<dyn LintRule>> {
    vec![
        Box::new(unused::UnusedConstant),
        Box::new(unused::UnusedFunction),
        Box::new(unused::UnusedType),
        Box::new(shadow::Shadowing),
        Box::new(arms::ConstantCondition),
        Box::new(arms::UnreachableArm),
        Box::new(arms::OverlappingArms),
        Box::new(divzero::PossibleDivByZero),
        Box::new(units::UnitMismatchRule),
        Box::new(subsume::SubsumedProperty),
        Box::new(perf::ResidualFilterScan),
        Box::new(perf::FullScanWhereIndexed),
        Box::new(perf::PerElementSetClone),
    ]
}

/// Pre-order walk over every sub-expression, without scope tracking.
pub(crate) fn walk_expr<'e>(e: &'e Expr, f: &mut impl FnMut(&'e Expr)) {
    f(e);
    match &e.kind {
        ExprKind::IntLit(_)
        | ExprKind::FloatLit(_)
        | ExprKind::StrLit(_)
        | ExprKind::BoolLit(_)
        | ExprKind::Var(_) => {}
        ExprKind::Attr(base, _) => walk_expr(base, f),
        ExprKind::Call(_, args) => {
            for a in args {
                walk_expr(a, f);
            }
        }
        ExprKind::Unary(_, inner) | ExprKind::Unique(inner) | ExprKind::CountSet(inner) => {
            walk_expr(inner, f)
        }
        ExprKind::Binary(_, l, r) => {
            walk_expr(l, f);
            walk_expr(r, f);
        }
        ExprKind::SetComp { source, pred, .. } => {
            walk_expr(source, f);
            walk_expr(pred, f);
        }
        ExprKind::Aggregate {
            value,
            source,
            pred,
            ..
        } => {
            walk_expr(source, f);
            walk_expr(value, f);
            if let Some(p) = pred {
                walk_expr(p, f);
            }
        }
        ExprKind::Quantifier { source, pred, .. } => {
            walk_expr(source, f);
            walk_expr(pred, f);
        }
    }
}

/// Resolve a syntactic type annotation against the model.
pub(crate) fn decl_ty(model: &Model, te: &TypeExpr) -> Type {
    match &te.kind {
        TypeExprKind::Named(n) => model.named_type(n).unwrap_or(Type::Error),
        TypeExprKind::Setof(n) => model
            .named_type(n)
            .map(|t| Type::Set(Box::new(t)))
            .unwrap_or(Type::Error),
    }
}

/// Bind declaration parameters into the current scope frame.
pub(crate) fn bind_params(model: &Model, scope: &mut Scope, params: &[Param]) {
    for p in params {
        scope.bind(&p.name.name, decl_ty(model, &p.ty));
    }
}

/// Does `e` reference the variable `name` freely (i.e. not under a
/// construct that rebinds the same name)?
pub(crate) fn uses_var(e: &Expr, name: &str) -> bool {
    match &e.kind {
        ExprKind::Var(n) => n == name,
        ExprKind::IntLit(_)
        | ExprKind::FloatLit(_)
        | ExprKind::StrLit(_)
        | ExprKind::BoolLit(_) => false,
        ExprKind::Attr(base, _) => uses_var(base, name),
        ExprKind::Call(_, args) => args.iter().any(|a| uses_var(a, name)),
        ExprKind::Unary(_, inner) | ExprKind::Unique(inner) | ExprKind::CountSet(inner) => {
            uses_var(inner, name)
        }
        ExprKind::Binary(_, l, r) => uses_var(l, name) || uses_var(r, name),
        ExprKind::SetComp {
            binder,
            source,
            pred,
        } => uses_var(source, name) || (binder.name != name && uses_var(pred, name)),
        ExprKind::Aggregate {
            value,
            binder,
            source,
            pred,
            ..
        } => {
            uses_var(source, name)
                || (binder.name != name
                    && (uses_var(value, name)
                        || pred.as_deref().is_some_and(|p| uses_var(p, name))))
        }
        ExprKind::Quantifier {
            binder,
            source,
            pred,
            ..
        } => uses_var(source, name) || (binder.name != name && uses_var(pred, name)),
    }
}
