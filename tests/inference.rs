//! `infer_expr_type` agrees with `check()`, and only reads the model.
//!
//! Every expression body of the standard suite and of every spec under
//! `examples/specs/`, typed on its own under the lexical scope of its
//! position, must come back at the type the checker accepted it at: a
//! constant, function body or `LET` value assignable to its declared type,
//! a condition boolean, a confidence or severity arm numeric.

use kojak::asl_core::ast::{Param, TypeExpr, TypeExprKind};
use kojak::asl_core::check::{infer_expr_type, Scope};
use kojak::asl_core::parse_and_check;
use kojak::asl_core::types::{Model, Type};
use kojak::cosy::suite::standard_suite_source;
use std::path::Path;

fn declared(model: &Model, te: &TypeExpr) -> Type {
    let (TypeExprKind::Named(n) | TypeExprKind::Setof(n)) = &te.kind;
    let named = model
        .named_type(n)
        .expect("a checked spec names known types");
    match te.kind {
        TypeExprKind::Named(_) => named,
        TypeExprKind::Setof(_) => Type::Set(Box::new(named)),
    }
}

fn scope_of(model: &Model, params: &[Param]) -> Scope {
    let mut scope = Scope::new();
    for p in params {
        scope.bind(&p.name.name, declared(model, &p.ty));
    }
    scope
}

/// Type every body of `source` on its own; returns how many there were.
fn bodies_infer_as_checked(source: &str) -> usize {
    let checked = parse_and_check(source).unwrap_or_else(|d| panic!("{}", d.render(source)));
    let model = &checked.model;
    let before = model.clone();
    let mut bodies = 0;
    let mut infer = |what: &str, expr, scope: &mut Scope, accepts: &dyn Fn(&Type) -> bool| {
        let ty = infer_expr_type(model, expr, scope)
            .unwrap_or_else(|d| panic!("{what} no longer types:\n{}", d.render(source)));
        assert!(accepts(&ty), "{what} inferred as `{ty}`");
        bodies += 1;
    };
    let spec = &checked.spec;
    for c in &spec.constants {
        let want = declared(model, &c.ty);
        let what = format!("constant {}", c.name.name);
        infer(&what, &c.value, &mut Scope::new(), &|t| {
            model.assignable(t, &want)
        });
    }
    for f in &spec.functions {
        let want = declared(model, &f.ret_ty);
        let what = format!("function {}", f.name.name);
        infer(&what, &f.body, &mut scope_of(model, &f.params), &|t| {
            model.assignable(t, &want)
        });
    }
    for p in &spec.properties {
        let mut scope = scope_of(model, &p.params);
        for l in &p.lets {
            let want = declared(model, &l.ty);
            let what = format!("LET {} of {}", l.name.name, p.name.name);
            infer(&what, &l.value, &mut scope, &|t| model.assignable(t, &want));
            scope.bind(&l.name.name, want);
        }
        for c in &p.conditions {
            let what = format!("a condition of {}", p.name.name);
            infer(&what, &c.expr, &mut scope, &|t| *t == Type::Bool);
        }
        for arm in p.confidence.arms.iter().chain(&p.severity.arms) {
            let what = format!("an arm of {}", p.name.name);
            infer(&what, &arm.expr, &mut scope, &|t| t.is_numeric());
        }
    }
    assert_eq!(*model, before, "inference wrote to the model");
    bodies
}

#[test]
fn every_body_infers_at_the_type_the_checker_accepted() {
    let suite = standard_suite_source();
    // 3 constants, 2 helpers, 12 properties with their LETs and arms.
    assert!(bodies_infer_as_checked(&suite) > 50);

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/specs");
    let mut user_specs = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "asl") {
            let body = std::fs::read_to_string(&path).unwrap();
            bodies_infer_as_checked(&format!("{suite}\n{body}"));
            user_specs += 1;
        }
    }
    assert!(user_specs > 0, "no spec under {dir:?}");
}
