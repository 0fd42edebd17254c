//! ASL expression → SQL expression compilation.
//!
//! The compiler lowers a type-checked ASL expression, in a given binding
//! environment, into a [`SqlExpr`] scalar. The key representations:
//!
//! * **objects** are their integer ids — a context parameter becomes a
//!   literal, an object attribute becomes a foreign-key column or a scalar
//!   subquery;
//! * **sets** stay symbolic until consumed: a [`SetQuery`] holds the element
//!   table, a fresh alias and accumulated predicates; `UNIQUE`, aggregates,
//!   comprehensions and quantifiers turn it into (correlated) subqueries;
//! * **user functions and LET bindings** are inlined by compiling their
//!   bodies in an environment that binds parameters to already-compiled
//!   values — exactly the "translation of the property description into
//!   executable code" automated away from the §5 tool developer.
//!
//! Documented semantic deltas vs the interpreter (`asl-eval`), both benign
//! for the reproduced experiments: empty `MIN`/`MAX`/`AVG` yield SQL `NULL`
//! (the interpreter raises *not applicable*), and `UNIQUE` of an empty set
//! yields `NULL` (comparisons with `NULL` are false, so the affected
//! condition simply does not hold — the same contexts are reported as
//! problems either way; see the cross-backend tests).

use crate::error::{SqlGenError, SqlGenResult};
use crate::schema::{AttrBinding, SchemaInfo};
use asl_core::ast::{AggOp, BinOp, Expr, ExprKind, Quant, UnOp};
use asl_core::check::CheckedSpec;
use reldb::sql::ast::{AggFunc, SelectItem, SelectStmt, SqlBinOp, SqlExpr, TableRef};
use reldb::value::Value;
use std::collections::HashMap;

const MAX_INLINE_DEPTH: usize = 64;

/// A symbolic set: rows of `class` (aliased) satisfying `preds`.
#[derive(Debug, Clone, PartialEq)]
pub struct SetQuery {
    /// Element class (and table name).
    pub class: String,
    /// The row alias bound for this set.
    pub alias: String,
    /// Accumulated predicates over the alias (and outer aliases).
    pub preds: Vec<SqlExpr>,
}

/// A compiled ASL value.
#[derive(Debug, Clone, PartialEq)]
pub enum CVal {
    /// A scalar SQL expression (number, bool, string, datetime, enum text).
    Scalar(SqlExpr),
    /// An object, represented by an id-valued SQL expression.
    Obj {
        /// The object's class.
        class: String,
        /// Id-valued expression.
        expr: SqlExpr,
    },
    /// A bound row variable (comprehension/aggregate binder).
    Row {
        /// The row's class.
        class: String,
        /// The SQL alias it is bound to.
        alias: String,
    },
    /// A symbolic set.
    Set(SetQuery),
}

impl CVal {
    /// View as an id-valued expression (objects and rows).
    fn as_id_expr(&self) -> Option<SqlExpr> {
        match self {
            CVal::Obj { expr, .. } => Some(expr.clone()),
            CVal::Row { alias, .. } => Some(SqlExpr::col(Some(alias), "id")),
            _ => None,
        }
    }

    /// View as a scalar expression (scalars, objects-as-ids, rows-as-ids).
    fn as_scalar(&self) -> Option<SqlExpr> {
        match self {
            CVal::Scalar(e) => Some(e.clone()),
            _ => self.as_id_expr(),
        }
    }
}

/// The expression compiler. One instance per property compilation; fresh
/// aliases are drawn from an internal counter.
pub struct ExprCompiler<'a> {
    spec: &'a CheckedSpec,
    schema: &'a SchemaInfo,
    next_alias: usize,
    const_cache: HashMap<String, SqlExpr>,
}

impl<'a> ExprCompiler<'a> {
    /// Create a compiler for a checked spec and its generated schema.
    pub fn new(spec: &'a CheckedSpec, schema: &'a SchemaInfo) -> Self {
        ExprCompiler {
            spec,
            schema,
            next_alias: 0,
            const_cache: HashMap::new(),
        }
    }

    fn fresh_alias(&mut self) -> String {
        self.next_alias += 1;
        format!("t{}", self.next_alias)
    }

    /// Build `SELECT <item> FROM <set.class> <set.alias> WHERE <preds>`.
    fn set_select(&self, set: &SetQuery, item: SqlExpr) -> SelectStmt {
        let where_ = set
            .preds
            .iter()
            .cloned()
            .reduce(|a, b| SqlExpr::Binary(SqlBinOp::And, Box::new(a), Box::new(b)));
        SelectStmt {
            items: vec![SelectItem {
                expr: item,
                alias: None,
            }],
            from: Some(TableRef {
                table: set.class.clone(),
                alias: Some(set.alias.clone()),
            }),
            where_,
            ..Default::default()
        }
    }

    /// Build `SELECT alias.column FROM class alias WHERE alias.id = expr`,
    /// fusing with `expr` when it is already an unordered subquery on
    /// `class` that selects `inner_alias.id` — the shape produced by
    /// `UNIQUE` and inlined helper functions.
    fn object_column_select(&mut self, class: &str, expr: SqlExpr, column: &str) -> SelectStmt {
        if let SqlExpr::Subquery(inner) = &expr {
            if let (Some(from), [item], true) = (
                &inner.from,
                inner.items.as_slice(),
                inner.order_by.is_empty(),
            ) {
                let visible = from.visible_name();
                if item.expr == SqlExpr::col(Some(visible), "id") && from.table == class {
                    let mut fused = (**inner).clone();
                    fused.items = vec![SelectItem {
                        expr: SqlExpr::col(Some(visible), column),
                        alias: None,
                    }];
                    return fused;
                }
            }
        }
        let alias = self.fresh_alias();
        let set = SetQuery {
            class: class.to_string(),
            alias: alias.clone(),
            preds: vec![SqlExpr::Binary(
                SqlBinOp::Eq,
                Box::new(SqlExpr::col(Some(&alias), "id")),
                Box::new(expr),
            )],
        };
        self.set_select(&set, SqlExpr::col(Some(&alias), column))
    }

    /// Compile an attribute access on an object or row value.
    fn compile_attr(&mut self, base: CVal, attr: &str) -> SqlGenResult<CVal> {
        let class = match &base {
            CVal::Obj { class, .. } | CVal::Row { class, .. } => class.clone(),
            other => {
                return Err(SqlGenError::Unsupported(format!(
                    "attribute `{attr}` on non-object value {other:?}"
                )))
            }
        };
        let binding = self
            .schema
            .binding(&class, attr)
            .ok_or_else(|| SqlGenError::UnknownName(format!("{class}.{attr}")))?
            .clone();
        match (binding, base) {
            // Row: direct column references.
            (AttrBinding::ScalarColumn { column }, CVal::Row { alias, .. }) => {
                Ok(CVal::Scalar(SqlExpr::col(Some(&alias), &column)))
            }
            (AttrBinding::ObjectFk { column, target }, CVal::Row { alias, .. }) => Ok(CVal::Obj {
                class: target,
                expr: SqlExpr::col(Some(&alias), &column),
            }),
            // Object (id expression): scalar subquery against the class
            // table. When the id expression is itself a single-table
            // id-selecting subquery (the shape `UNIQUE(...)` and inlined
            // helpers produce), fuse the two into one SELECT.
            (AttrBinding::ScalarColumn { column }, CVal::Obj { expr, .. }) => {
                let sel = self.object_column_select(&class, expr, &column);
                Ok(CVal::Scalar(SqlExpr::Subquery(Box::new(sel))))
            }
            (AttrBinding::ObjectFk { column, target }, CVal::Obj { expr, .. }) => {
                let sel = self.object_column_select(&class, expr, &column);
                Ok(CVal::Obj {
                    class: target,
                    expr: SqlExpr::Subquery(Box::new(sel)),
                })
            }
            // Scalar/FK bindings only apply to object-like bases, which is
            // guaranteed by the class extraction above.
            (AttrBinding::ScalarColumn { .. } | AttrBinding::ObjectFk { .. }, other) => {
                unreachable!("attribute base must be an object or row, got {other:?}")
            }
            // setof: a symbolic set of target rows owned by the base object.
            (
                AttrBinding::SetOwner {
                    target,
                    owner_column,
                },
                base,
            ) => {
                let owner_id = base.as_id_expr().expect("object or row");
                let alias = self.fresh_alias();
                Ok(CVal::Set(SetQuery {
                    class: target,
                    alias: alias.clone(),
                    preds: vec![SqlExpr::Binary(
                        SqlBinOp::Eq,
                        Box::new(SqlExpr::col(Some(&alias), &owner_column)),
                        Box::new(owner_id),
                    )],
                }))
            }
        }
    }

    /// Compile an expression in an environment of bound names.
    pub fn compile(
        &mut self,
        e: &Expr,
        env: &HashMap<String, CVal>,
        depth: usize,
    ) -> SqlGenResult<CVal> {
        if depth > MAX_INLINE_DEPTH {
            return Err(SqlGenError::Unsupported(
                "function inlining exceeded the depth limit (recursive helper?)".into(),
            ));
        }
        match &e.kind {
            ExprKind::IntLit(v) => Ok(CVal::Scalar(SqlExpr::Lit(Value::Int(*v)))),
            ExprKind::FloatLit(v) => Ok(CVal::Scalar(SqlExpr::Lit(Value::Float(*v)))),
            ExprKind::StrLit(s) => Ok(CVal::Scalar(SqlExpr::Lit(Value::Text(s.clone())))),
            ExprKind::BoolLit(b) => Ok(CVal::Scalar(SqlExpr::Lit(Value::Bool(*b)))),
            ExprKind::Var(name) => {
                if let Some(v) = env.get(name) {
                    return Ok(v.clone());
                }
                if let Some(c) = self.const_cache.get(name) {
                    return Ok(CVal::Scalar(c.clone()));
                }
                if let Some(decl) = self.spec.spec.constant(name) {
                    let empty = HashMap::new();
                    let compiled = self.compile(&decl.value, &empty, depth + 1)?;
                    let scalar = compiled.as_scalar().ok_or_else(|| {
                        SqlGenError::Unsupported(format!("constant `{name}` is not scalar"))
                    })?;
                    self.const_cache.insert(name.clone(), scalar.clone());
                    return Ok(CVal::Scalar(scalar));
                }
                if self.spec.model.variant_owner.contains_key(name) {
                    // Enum variants are stored as their name text.
                    return Ok(CVal::Scalar(SqlExpr::Lit(Value::Text(name.clone()))));
                }
                Err(SqlGenError::UnknownName(name.clone()))
            }
            ExprKind::Attr(base, attr) => {
                // `UNIQUE(set).attr` compiles to a single scalar subquery.
                if let ExprKind::Unique(inner) = &base.kind {
                    let set = self.compile_set(inner, env, depth)?;
                    // Compile the attribute as if on a row of the set.
                    let row = CVal::Row {
                        class: set.class.clone(),
                        alias: set.alias.clone(),
                    };
                    let val = self.compile_attr(row, &attr.name)?;
                    return match val {
                        CVal::Scalar(item) => Ok(CVal::Scalar(SqlExpr::Subquery(Box::new(
                            self.set_select(&set, item),
                        )))),
                        CVal::Obj { class, expr } => Ok(CVal::Obj {
                            class,
                            expr: SqlExpr::Subquery(Box::new(self.set_select(&set, expr))),
                        }),
                        CVal::Set(_) | CVal::Row { .. } => Err(SqlGenError::Unsupported(
                            "set-valued attribute of UNIQUE(...) in scalar position".into(),
                        )),
                    };
                }
                let b = self.compile(base, env, depth)?;
                self.compile_attr(b, &attr.name)
            }
            ExprKind::Call(name, args) => {
                if name.name == "MAX" || name.name == "MIN" {
                    let func = if name.name == "MAX" {
                        "GREATEST"
                    } else {
                        "LEAST"
                    };
                    let mut compiled = Vec::with_capacity(args.len());
                    for a in args {
                        let v = self.compile(a, env, depth)?;
                        compiled.push(v.as_scalar().ok_or_else(|| {
                            SqlGenError::Unsupported("non-scalar MAX/MIN argument".into())
                        })?);
                    }
                    return Ok(CVal::Scalar(SqlExpr::Func {
                        name: func.to_string(),
                        args: compiled,
                    }));
                }
                let func = self
                    .spec
                    .spec
                    .function(&name.name)
                    .ok_or_else(|| SqlGenError::UnknownName(name.name.clone()))?;
                // Inline: bind compiled arguments as the parameter values.
                let mut inner = HashMap::new();
                for (p, a) in func.params.iter().zip(args) {
                    inner.insert(p.name.name.clone(), self.compile(a, env, depth)?);
                }
                // NOTE: the body is cloned so `self` is free for recursion.
                let body = func.body.clone();
                self.compile(&body, &inner, depth + 1)
            }
            ExprKind::Unary(op, inner) => {
                let v = self.compile(inner, env, depth)?;
                let s = v
                    .as_scalar()
                    .ok_or_else(|| SqlGenError::Unsupported("unary op on set".into()))?;
                Ok(CVal::Scalar(match op {
                    UnOp::Neg => SqlExpr::Neg(Box::new(s)),
                    UnOp::Not => SqlExpr::Not(Box::new(s)),
                }))
            }
            ExprKind::Binary(op, lhs, rhs) => {
                let l = self.compile(lhs, env, depth)?;
                let r = self.compile(rhs, env, depth)?;
                let (ls, rs) = (
                    l.as_scalar().ok_or_else(|| {
                        SqlGenError::Unsupported("set operand of a binary operator".into())
                    })?,
                    r.as_scalar().ok_or_else(|| {
                        SqlGenError::Unsupported("set operand of a binary operator".into())
                    })?,
                );
                let sql_op = match op {
                    BinOp::Add => SqlBinOp::Add,
                    BinOp::Sub => SqlBinOp::Sub,
                    BinOp::Mul => SqlBinOp::Mul,
                    BinOp::Div => SqlBinOp::Div,
                    BinOp::Mod => SqlBinOp::Mod,
                    BinOp::Eq => SqlBinOp::Eq,
                    BinOp::Ne => SqlBinOp::Neq,
                    BinOp::Lt => SqlBinOp::Lt,
                    BinOp::Le => SqlBinOp::Le,
                    BinOp::Gt => SqlBinOp::Gt,
                    BinOp::Ge => SqlBinOp::Ge,
                    BinOp::And => SqlBinOp::And,
                    BinOp::Or => SqlBinOp::Or,
                };
                Ok(CVal::Scalar(SqlExpr::Binary(
                    sql_op,
                    Box::new(ls),
                    Box::new(rs),
                )))
            }
            ExprKind::SetComp { .. } => Ok(CVal::Set(self.compile_set(e, env, depth)?)),
            ExprKind::Unique(inner) => {
                let set = self.compile_set(inner, env, depth)?;
                let id = SqlExpr::col(Some(&set.alias), "id");
                let sel = self.set_select(&set, id);
                Ok(CVal::Obj {
                    class: set.class,
                    expr: SqlExpr::Subquery(Box::new(sel)),
                })
            }
            ExprKind::Aggregate {
                op,
                value,
                binder,
                source,
                pred,
            } => {
                let mut set = self.compile_set(source, env, depth)?;
                let mut inner = env.clone();
                inner.insert(
                    binder.name.clone(),
                    CVal::Row {
                        class: set.class.clone(),
                        alias: set.alias.clone(),
                    },
                );
                if let Some(p) = pred {
                    let pv = self.compile(p, &inner, depth)?;
                    set.preds.push(pv.as_scalar().ok_or_else(|| {
                        SqlGenError::Unsupported("non-scalar aggregate predicate".into())
                    })?);
                }
                let vv = self.compile(value, &inner, depth)?;
                let item = vv
                    .as_scalar()
                    .ok_or_else(|| SqlGenError::Unsupported("non-scalar aggregate value".into()))?;
                let func = match op {
                    AggOp::Sum => AggFunc::Sum,
                    AggOp::Min => AggFunc::Min,
                    AggOp::Max => AggFunc::Max,
                    AggOp::Avg => AggFunc::Avg,
                    AggOp::Count => AggFunc::Count,
                };
                let agg = SqlExpr::Agg {
                    func,
                    arg: Some(Box::new(item)),
                };
                // Empty SUM/COUNT must be 0 to match the interpreter.
                let agg = if matches!(op, AggOp::Sum) {
                    SqlExpr::Func {
                        name: "COALESCE".to_string(),
                        args: vec![agg, SqlExpr::Lit(Value::Int(0))],
                    }
                } else {
                    agg
                };
                let sel = self.set_select(&set, agg);
                Ok(CVal::Scalar(SqlExpr::Subquery(Box::new(sel))))
            }
            ExprKind::Quantifier {
                q,
                binder,
                source,
                pred,
            } => {
                let mut set = self.compile_set(source, env, depth)?;
                let mut inner = env.clone();
                inner.insert(
                    binder.name.clone(),
                    CVal::Row {
                        class: set.class.clone(),
                        alias: set.alias.clone(),
                    },
                );
                let pv = self.compile(pred, &inner, depth)?;
                let ps = pv.as_scalar().ok_or_else(|| {
                    SqlGenError::Unsupported("non-scalar quantifier predicate".into())
                })?;
                match q {
                    Quant::Exists => {
                        set.preds.push(ps);
                        let sel = self.set_select(&set, SqlExpr::Lit(Value::Int(1)));
                        Ok(CVal::Scalar(SqlExpr::Exists(Box::new(sel))))
                    }
                    Quant::Forall => {
                        // FORALL p == NOT EXISTS (NOT p)
                        set.preds.push(SqlExpr::Not(Box::new(ps)));
                        let sel = self.set_select(&set, SqlExpr::Lit(Value::Int(1)));
                        Ok(CVal::Scalar(SqlExpr::Not(Box::new(SqlExpr::Exists(
                            Box::new(sel),
                        )))))
                    }
                }
            }
            ExprKind::CountSet(inner) => {
                let set = self.compile_set(inner, env, depth)?;
                let sel = self.set_select(
                    &set,
                    SqlExpr::Agg {
                        func: AggFunc::Count,
                        arg: None,
                    },
                );
                Ok(CVal::Scalar(SqlExpr::Subquery(Box::new(sel))))
            }
        }
    }

    /// Compile an expression that must denote a set.
    fn compile_set(
        &mut self,
        e: &Expr,
        env: &HashMap<String, CVal>,
        depth: usize,
    ) -> SqlGenResult<SetQuery> {
        match &e.kind {
            ExprKind::SetComp {
                binder,
                source,
                pred,
            } => {
                let mut set = self.compile_set(source, env, depth)?;
                let mut inner = env.clone();
                inner.insert(
                    binder.name.clone(),
                    CVal::Row {
                        class: set.class.clone(),
                        alias: set.alias.clone(),
                    },
                );
                let pv = self.compile(pred, &inner, depth)?;
                set.preds.push(pv.as_scalar().ok_or_else(|| {
                    SqlGenError::Unsupported("non-scalar comprehension predicate".into())
                })?);
                Ok(set)
            }
            _ => match self.compile(e, env, depth)? {
                CVal::Set(s) => Ok(s),
                other => Err(SqlGenError::Unsupported(format!(
                    "expected a set expression, compiled to {other:?}"
                ))),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::generate_schema;
    use asl_core::parse_and_check;
    use asl_core::parser::parse_expr;
    use asl_eval::COSY_DATA_MODEL;
    use reldb::sql::render::render_expr;

    fn compile_str(expr: &str, env: &[(&str, CVal)]) -> String {
        let spec = parse_and_check(COSY_DATA_MODEL).unwrap();
        let schema = generate_schema(&spec.model).unwrap();
        let mut cx = ExprCompiler::new(&spec, &schema);
        let e = parse_expr(expr).unwrap();
        let mut map = HashMap::new();
        for (k, v) in env {
            map.insert(k.to_string(), v.clone());
        }
        let v = cx.compile(&e, &map, 0).unwrap();
        render_expr(&v.as_scalar().expect("scalar result"))
    }

    fn region_param(id: i64) -> CVal {
        CVal::Obj {
            class: "Region".into(),
            expr: SqlExpr::Lit(Value::Int(id)),
        }
    }

    fn run_param(id: i64) -> CVal {
        CVal::Obj {
            class: "TestRun".into(),
            expr: SqlExpr::Lit(Value::Int(id)),
        }
    }

    #[test]
    fn scalar_attribute_on_object_param() {
        let sql = compile_str("t.NoPe", &[("t", run_param(3))]);
        assert_eq!(sql, "(SELECT t1.NoPe FROM TestRun t1 WHERE t1.id = 3)");
    }

    #[test]
    fn sum_aggregate_with_enum_filter() {
        let sql = compile_str(
            "SUM(tt.Time WHERE tt IN r.TypTimes AND tt.Run==t AND tt.Type == Barrier)",
            &[("r", region_param(5)), ("t", run_param(2))],
        );
        assert!(sql.contains("COALESCE(SUM(t1.Time), 0)"), "{sql}");
        assert!(sql.contains("t1.TypTimes_owner = 5"), "{sql}");
        assert!(sql.contains("t1.Run_id = 2"), "{sql}");
        assert!(sql.contains("t1.Type = 'Barrier'"), "{sql}");
    }

    #[test]
    fn unique_attribute_is_single_subquery() {
        let sql = compile_str(
            "UNIQUE({s IN r.TotTimes WITH s.Run == t}).Incl",
            &[("r", region_param(1)), ("t", run_param(0))],
        );
        assert_eq!(
            sql,
            "(SELECT t1.Incl FROM TotalTiming t1 WHERE t1.TotTimes_owner = 1 AND t1.Run_id = 0)"
        );
    }

    #[test]
    fn function_inlining() {
        // Duration(r, t) inlines Summary and the attribute access.
        let sql = compile_str(
            "Duration(r, t)",
            &[("r", region_param(7)), ("t", run_param(1))],
        );
        assert!(sql.contains("SELECT t1.Incl FROM TotalTiming t1"), "{sql}");
        assert!(sql.contains("t1.TotTimes_owner = 7"), "{sql}");
    }

    #[test]
    fn nested_min_aggregate_correlates() {
        // From SublinearSpeedup: the run with the fewest PEs.
        let sql = compile_str(
            "MIN(s.Run.NoPe WHERE s IN r.TotTimes)",
            &[("r", region_param(4))],
        );
        // The inner attribute chain s.Run.NoPe becomes a correlated
        // subquery against TestRun keyed by s's FK.
        assert!(sql.contains("MIN((SELECT"), "{sql}");
        assert!(
            sql.contains("t2.NoPe FROM TestRun t2 WHERE t2.id = t1.Run_id"),
            "{sql}"
        );
    }

    #[test]
    fn arithmetic_and_comparison() {
        let sql = compile_str(
            "Duration(r,t) - Duration(r,t) > 0",
            &[("r", region_param(0)), ("t", run_param(0))],
        );
        assert!(sql.ends_with("> 0"), "{sql}");
    }

    #[test]
    fn exists_quantifier() {
        let sql = compile_str(
            "EXISTS(s IN r.TotTimes WITH s.Incl > 10.0)",
            &[("r", region_param(2))],
        );
        assert!(
            sql.starts_with("EXISTS (SELECT 1 FROM TotalTiming"),
            "{sql}"
        );
        assert!(sql.contains("t1.Incl > 1e1"), "{sql}");
    }

    #[test]
    fn forall_is_not_exists_not() {
        let sql = compile_str(
            "FORALL(s IN r.TotTimes WITH s.Incl >= 0.0)",
            &[("r", region_param(2))],
        );
        assert!(sql.starts_with("NOT EXISTS"), "{sql}");
        assert!(sql.contains("NOT t1.Incl >= 0e0"), "{sql}");
    }

    #[test]
    fn count_set() {
        let sql = compile_str("COUNT(r.TotTimes)", &[("r", region_param(9))]);
        assert_eq!(
            sql,
            "(SELECT COUNT(*) FROM TotalTiming t1 WHERE t1.TotTimes_owner = 9)"
        );
    }

    #[test]
    fn nary_max_uses_greatest() {
        let sql = compile_str("MAX(1, 2, 3)", &[]);
        assert_eq!(sql, "GREATEST(1, 2, 3)");
    }

    #[test]
    fn object_equality_compares_ids() {
        let sql = compile_str(
            "EXISTS(s IN r.TotTimes WITH s.Run == t)",
            &[("r", region_param(1)), ("t", run_param(6))],
        );
        assert!(sql.contains("t1.Run_id = 6"), "{sql}");
    }

    #[test]
    fn unknown_variable_is_error() {
        let spec = parse_and_check(COSY_DATA_MODEL).unwrap();
        let schema = generate_schema(&spec.model).unwrap();
        let mut cx = ExprCompiler::new(&spec, &schema);
        let e = parse_expr("mystery + 1").unwrap();
        assert!(matches!(
            cx.compile(&e, &HashMap::new(), 0),
            Err(SqlGenError::UnknownName(_))
        ));
    }
}
