//! Dead-declaration lints: unused constants, helper functions and types.
//!
//! The type rule is deliberately *bidirectional*: a class counts as used
//! when it is reachable from any type annotation (parameter, `LET`,
//! constant, function return) **or** when it is connected to a used class
//! through an attribute or the inheritance chain — in either direction.
//! The root container of a data model (e.g. the paper's `Program`, which
//! holds `ProgVersion`s but is named by no property parameter) must not
//! be flagged; only fully isolated declarations are dead.

use super::{walk_expr, LintCx, LintRule};
use crate::Finding;
use asl_core::ast::{Expr, ExprKind, Specification, TypeExprKind};
use asl_core::types::Type;
use std::collections::HashSet;

/// Who owns an expression body, for self-reference accounting.
#[derive(Clone, Copy, PartialEq)]
enum Owner<'a> {
    Const(&'a str),
    Func(&'a str),
    Prop(&'a str),
}

/// Visit every expression body of the spec with its owning declaration.
fn for_each_body<'s>(spec: &'s Specification, f: &mut impl FnMut(Owner<'s>, &'s Expr)) {
    for c in &spec.constants {
        f(Owner::Const(&c.name.name), &c.value);
    }
    for fun in &spec.functions {
        f(Owner::Func(&fun.name.name), &fun.body);
    }
    for p in &spec.properties {
        let owner = Owner::Prop(&p.name.name);
        for l in &p.lets {
            f(owner, &l.value);
        }
        for c in &p.conditions {
            f(owner, &c.expr);
        }
        for arm in p.confidence.arms.iter().chain(p.severity.arms.iter()) {
            f(owner, &arm.expr);
        }
    }
}

/// `unused-constant`: a global constant no expression ever reads.
pub struct UnusedConstant;

impl LintRule for UnusedConstant {
    fn name(&self) -> &'static str {
        "unused-constant"
    }

    fn description(&self) -> &'static str {
        "global constant that no expression references"
    }

    fn run(&self, cx: &LintCx<'_>, out: &mut Vec<Finding>) {
        let spec = &cx.spec.spec;
        let constants = &cx.model().constants;
        let mut used: HashSet<&str> = HashSet::new();
        for_each_body(spec, &mut |owner, body| {
            walk_expr(body, &mut |e| {
                if let ExprKind::Var(n) = &e.kind {
                    if owner != Owner::Const(n.as_str()) && constants.contains_key(n) {
                        used.insert(n.as_str());
                    }
                }
            });
        });
        for c in &spec.constants {
            if !used.contains(c.name.name.as_str()) {
                out.push(Finding {
                    rule: self.name(),
                    message: format!("constant `{}` is never referenced", c.name.name),
                    span: c.name.span,
                    owner: format!("constant {}", c.name.name),
                    ..Finding::default()
                });
            }
        }
    }
}

/// `unused-function`: a helper function nothing calls (a function whose
/// only caller is itself is equally dead).
pub struct UnusedFunction;

impl LintRule for UnusedFunction {
    fn name(&self) -> &'static str {
        "unused-function"
    }

    fn description(&self) -> &'static str {
        "helper function never called from outside its own definition"
    }

    fn run(&self, cx: &LintCx<'_>, out: &mut Vec<Finding>) {
        let spec = &cx.spec.spec;
        let functions = &cx.model().functions;
        let mut called: HashSet<&str> = HashSet::new();
        let mut self_called: HashSet<&str> = HashSet::new();
        for_each_body(spec, &mut |owner, body| {
            walk_expr(body, &mut |e| {
                if let ExprKind::Call(name, _) = &e.kind {
                    if functions.contains_key(&name.name) {
                        if owner == Owner::Func(name.name.as_str()) {
                            self_called.insert(name.name.as_str());
                        } else {
                            called.insert(name.name.as_str());
                        }
                    }
                }
            });
        });
        for f in &spec.functions {
            let name = f.name.name.as_str();
            if called.contains(name) {
                continue;
            }
            let message = if self_called.contains(name) {
                format!("helper function `{name}` is only called from its own definition")
            } else {
                format!("helper function `{name}` is never called")
            };
            out.push(Finding {
                rule: self.name(),
                message,
                span: f.name.span,
                owner: format!("function {name}"),
                ..Finding::default()
            });
        }
    }
}

/// `unused-type`: a class or enum connected to nothing.
pub struct UnusedType;

impl UnusedType {
    /// Named class/enum inside a semantic type, looking through `setof`.
    fn named(t: &Type) -> Option<&str> {
        match t {
            Type::Class(n) | Type::Enum(n) => Some(n),
            Type::Set(inner) => Self::named(inner),
            _ => None,
        }
    }
}

impl LintRule for UnusedType {
    fn name(&self) -> &'static str {
        "unused-type"
    }

    fn description(&self) -> &'static str {
        "class or enum not connected to any property, function, constant or used type"
    }

    fn run(&self, cx: &LintCx<'_>, out: &mut Vec<Finding>) {
        let spec = &cx.spec.spec;
        let model = cx.model();
        let mut used: HashSet<String> = HashSet::new();

        // Anchors: every syntactic type annotation in the spec.
        let mut anchor = |kind: &TypeExprKind| {
            let (TypeExprKind::Named(n) | TypeExprKind::Setof(n)) = kind;
            if model.classes.contains_key(n) || model.enums.contains_key(n) {
                used.insert(n.clone());
            }
        };
        for c in &spec.constants {
            anchor(&c.ty.kind);
        }
        for f in &spec.functions {
            anchor(&f.ret_ty.kind);
            for p in &f.params {
                anchor(&p.ty.kind);
            }
        }
        for p in &spec.properties {
            for param in &p.params {
                anchor(&param.ty.kind);
            }
            for l in &p.lets {
                anchor(&l.ty.kind);
            }
        }

        // An enum is anchored by any reference to one of its variants.
        for_each_body(spec, &mut |_, body| {
            walk_expr(body, &mut |e| {
                if let ExprKind::Var(n) = &e.kind {
                    if let Some(owner) = model.variant_owner.get(n) {
                        used.insert(owner.clone());
                    }
                }
            });
        });

        // Grow to a fixpoint along attribute and inheritance edges, in
        // both directions: a used class marks its attribute types and its
        // whole inheritance chain; a class holding an attribute of a used
        // type is a live container and is marked too.
        loop {
            let mut grew = false;
            for (cname, ci) in &model.classes {
                let class_used = used.contains(cname);
                for a in &ci.own_attrs {
                    if let Some(n) = Self::named(&a.ty) {
                        if class_used && used.insert(n.to_string()) {
                            grew = true;
                        }
                        if !class_used && used.contains(n) && used.insert(cname.clone()) {
                            grew = true;
                        }
                    }
                }
                if let Some(base) = &ci.base {
                    if used.contains(cname) && used.insert(base.clone()) {
                        grew = true;
                    }
                    if used.contains(base) && used.insert(cname.clone()) {
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }

        for c in &spec.classes {
            if !used.contains(&c.name.name) {
                out.push(Finding {
                    rule: self.name(),
                    message: format!(
                        "class `{}` is never used: no declaration names it and it shares \
                         no attribute or inheritance edge with a used type",
                        c.name.name
                    ),
                    span: c.name.span,
                    owner: format!("class {}", c.name.name),
                    ..Finding::default()
                });
            }
        }
        for e in &spec.enums {
            if !used.contains(&e.name.name) {
                out.push(Finding {
                    rule: self.name(),
                    message: format!(
                        "enum `{}` is never used: no declaration names it and none of \
                         its variants is referenced",
                        e.name.name
                    ),
                    span: e.name.span,
                    owner: format!("enum {}", e.name.name),
                    ..Finding::default()
                });
            }
        }
    }
}
