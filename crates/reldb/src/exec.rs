//! Query execution: expression evaluation, the table scan, whole-set
//! aggregates, ordering and projection.
//!
//! ## Dialect notes (documented simplifications)
//!
//! * `/` always produces a float (ASL severities are ratios; the generated
//!   SQL relies on this).
//! * Comparisons involving NULL are **false** (no three-valued logic); use
//!   `IS NULL`. NULL in a boolean context is false.
//! * Aggregates skip NULLs; `COUNT(*)` counts rows; `SUM`/`MIN`/`MAX` of an
//!   empty set are NULL, `COUNT` is 0.
//! * A SELECT whose items contain an aggregate produces one row over the
//!   whole filtered row set; a bare column of the scanned table has no
//!   value there and is an error.
//! * Correlated scalar subqueries are re-evaluated per outer row (no
//!   memoization) — the honest cost model for the paper's client-vs-SQL
//!   work-distribution experiment.

use crate::db::Database;
use crate::error::{DbError, DbResult};
use crate::plan::{plan_scan, Layout, ScanPlan};
use crate::sql::ast::*;
use crate::value::{Row, Value};
use std::cmp::Ordering;

/// Execution statistics, accumulated across subqueries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows read from storage (after index narrowing).
    pub rows_scanned: u64,
    /// Rows produced by the top-level statement.
    pub rows_output: u64,
    /// Number of index point lookups performed.
    pub index_lookups: u64,
}

/// Outer-row context stack for correlated subqueries.
#[derive(Default)]
pub struct Frames<'a> {
    stack: Vec<(&'a Layout, &'a [Value])>,
}

impl<'a> Frames<'a> {
    /// Empty context (top-level statement).
    pub fn new() -> Self {
        Frames { stack: Vec::new() }
    }

    /// The frames a subquery of an expression over `input` sees: a row
    /// becomes the innermost frame, a row set adds nothing.
    fn with(&self, layout: &'a Layout, input: Input<'a>) -> Frames<'a> {
        let mut stack = self.stack.clone();
        if let Input::Row(row) = input {
            stack.push((layout, row));
        }
        Frames { stack }
    }

    fn resolve(&self, table: Option<&str>, column: &str) -> Option<Value> {
        for (layout, row) in self.stack.iter().rev() {
            if let Some(slot) = layout.slot(table, column) {
                return Some(row[slot].clone());
            }
        }
        None
    }
}

/// Truthiness in a boolean context: NULL is false, non-boolean is an error.
fn truthy(v: &Value) -> DbResult<bool> {
    match v {
        Value::Bool(b) => Ok(*b),
        Value::Null => Ok(false),
        other => Err(DbError::Eval(format!(
            "expected a boolean condition, found {other}"
        ))),
    }
}

fn numeric_binop(op: SqlBinOp, a: &Value, b: &Value) -> DbResult<Value> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    let (x, y) = match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => (x, y),
        _ => {
            return Err(DbError::Eval(format!(
                "arithmetic on non-numeric values {a} and {b}"
            )))
        }
    };
    let both_int = matches!((a, b), (Value::Int(_), Value::Int(_)));
    Ok(match op {
        SqlBinOp::Add => {
            if both_int {
                Value::Int(a.as_i64().unwrap() + b.as_i64().unwrap())
            } else {
                Value::Float(x + y)
            }
        }
        SqlBinOp::Sub => {
            if both_int {
                Value::Int(a.as_i64().unwrap() - b.as_i64().unwrap())
            } else {
                Value::Float(x - y)
            }
        }
        SqlBinOp::Mul => {
            if both_int {
                Value::Int(a.as_i64().unwrap() * b.as_i64().unwrap())
            } else {
                Value::Float(x * y)
            }
        }
        // Dialect: division always yields float.
        SqlBinOp::Div => {
            if y == 0.0 {
                return Err(DbError::Eval("division by zero".into()));
            }
            Value::Float(x / y)
        }
        SqlBinOp::Mod => {
            let (xi, yi) = match (a.as_i64(), b.as_i64()) {
                (Some(xi), Some(yi)) => (xi, yi),
                _ => return Err(DbError::Eval("`%` requires integers".into())),
            };
            if yi == 0 {
                return Err(DbError::Eval("modulo by zero".into()));
            }
            Value::Int(xi % yi)
        }
        _ => unreachable!("comparison handled elsewhere"),
    })
}

fn scalar_function(name: &str, args: &[Value]) -> DbResult<Value> {
    match (name, args) {
        ("COALESCE", vs) => Ok(vs
            .iter()
            .find(|v| !v.is_null())
            .cloned()
            .unwrap_or(Value::Null)),
        ("GREATEST" | "LEAST", vs) if !vs.is_empty() => {
            let want_greater = name == "GREATEST";
            let mut best: Option<&Value> = None;
            for v in vs {
                if v.is_null() {
                    return Ok(Value::Null);
                }
                best = Some(match best {
                    None => v,
                    Some(b) => match v.compare(b) {
                        Some(Ordering::Greater) if want_greater => v,
                        Some(Ordering::Less) if !want_greater => v,
                        None => {
                            return Err(DbError::Eval(
                                "GREATEST/LEAST over incomparable values".into(),
                            ))
                        }
                        _ => b,
                    },
                });
            }
            Ok(best.expect("non-empty").clone())
        }
        (name, args) => Err(DbError::Eval(format!(
            "unknown function {name}/{}",
            args.len()
        ))),
    }
}

/// What an expression is evaluated over.
#[derive(Debug, Clone, Copy)]
pub enum Input<'a> {
    /// One row of the layout's table (empty for a table-less SELECT and
    /// for `INSERT` values).
    Row(&'a [Value]),
    /// The whole filtered row set — the items of an aggregate query.
    /// Aggregate calls fold over it.
    Set(&'a [Row]),
}

/// Fold one aggregate call over a row set.
fn aggregate(
    db: &Database,
    func: AggFunc,
    arg: Option<&SqlExpr>,
    layout: &Layout,
    rows: &[Row],
    frames: &Frames<'_>,
    stats: &mut ExecStats,
) -> DbResult<Value> {
    // COUNT(*)
    let Some(arg) = arg else {
        return Ok(Value::Int(rows.len() as i64));
    };
    let mut vals = Vec::with_capacity(rows.len());
    for row in rows {
        let v = eval_expr(db, arg, layout, Input::Row(row), frames, stats)?;
        if !v.is_null() {
            vals.push(v);
        }
    }
    let float_sum = |vals: &[Value]| -> DbResult<f64> {
        let mut acc = 0.0;
        for v in vals {
            acc += v
                .as_f64()
                .ok_or_else(|| DbError::Eval(format!("{} of non-numeric {v}", func.name())))?;
        }
        Ok(acc)
    };
    match func {
        AggFunc::Count => Ok(Value::Int(vals.len() as i64)),
        AggFunc::Sum | AggFunc::Avg if vals.is_empty() => Ok(Value::Null),
        AggFunc::Sum if vals.iter().all(|v| matches!(v, Value::Int(_))) => {
            Ok(Value::Int(vals.iter().filter_map(Value::as_i64).sum()))
        }
        AggFunc::Sum => Ok(Value::Float(float_sum(&vals)?)),
        AggFunc::Avg => Ok(Value::Float(float_sum(&vals)? / vals.len() as f64)),
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<Value> = None;
            for v in vals {
                best = Some(match best {
                    None => v,
                    Some(b) => match v.compare(&b) {
                        Some(Ordering::Less) if func == AggFunc::Min => v,
                        Some(Ordering::Greater) if func == AggFunc::Max => v,
                        None => {
                            return Err(DbError::Eval("MIN/MAX over incomparable values".into()))
                        }
                        _ => b,
                    },
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
    }
}

/// Evaluate an expression over one row or, for the items of an aggregate
/// query, over the whole row set.
pub fn eval_expr(
    db: &Database,
    e: &SqlExpr,
    layout: &Layout,
    input: Input<'_>,
    frames: &Frames<'_>,
    stats: &mut ExecStats,
) -> DbResult<Value> {
    match e {
        SqlExpr::Lit(v) => Ok(v.clone()),
        SqlExpr::Col { table, column } => match (layout.slot(table.as_deref(), column), input) {
            (Some(slot), Input::Row(row)) => Ok(row[slot].clone()),
            (Some(_), Input::Set(_)) => Err(DbError::Semantic(format!(
                "column `{column}` outside an aggregate call in an aggregate query"
            ))),
            (None, _) => frames.resolve(table.as_deref(), column).ok_or_else(|| {
                DbError::Semantic(format!(
                    "unknown column `{}{column}`",
                    table
                        .as_deref()
                        .map(|t| format!("{t}."))
                        .unwrap_or_default()
                ))
            }),
        },
        SqlExpr::Neg(inner) => {
            let v = eval_expr(db, inner, layout, input, frames, stats)?;
            match v {
                Value::Null => Ok(Value::Null),
                Value::Int(i) => Ok(Value::Int(-i)),
                Value::Float(f) => Ok(Value::Float(-f)),
                other => Err(DbError::Eval(format!("cannot negate {other}"))),
            }
        }
        SqlExpr::Not(inner) => {
            let v = eval_expr(db, inner, layout, input, frames, stats)?;
            Ok(Value::Bool(!truthy(&v)?))
        }
        SqlExpr::Binary(op, a, b) => match op {
            SqlBinOp::And => {
                let va = eval_expr(db, a, layout, input, frames, stats)?;
                if !truthy(&va)? {
                    return Ok(Value::Bool(false));
                }
                let vb = eval_expr(db, b, layout, input, frames, stats)?;
                Ok(Value::Bool(truthy(&vb)?))
            }
            SqlBinOp::Or => {
                let va = eval_expr(db, a, layout, input, frames, stats)?;
                if truthy(&va)? {
                    return Ok(Value::Bool(true));
                }
                let vb = eval_expr(db, b, layout, input, frames, stats)?;
                Ok(Value::Bool(truthy(&vb)?))
            }
            SqlBinOp::Eq
            | SqlBinOp::Neq
            | SqlBinOp::Lt
            | SqlBinOp::Le
            | SqlBinOp::Gt
            | SqlBinOp::Ge => {
                let va = eval_expr(db, a, layout, input, frames, stats)?;
                let vb = eval_expr(db, b, layout, input, frames, stats)?;
                let r = match va.compare(&vb) {
                    None => false, // dialect: unknown is false
                    Some(ord) => match op {
                        SqlBinOp::Eq => ord == Ordering::Equal,
                        SqlBinOp::Neq => ord != Ordering::Equal,
                        SqlBinOp::Lt => ord == Ordering::Less,
                        SqlBinOp::Le => ord != Ordering::Greater,
                        SqlBinOp::Gt => ord == Ordering::Greater,
                        SqlBinOp::Ge => ord != Ordering::Less,
                        _ => unreachable!(),
                    },
                };
                Ok(Value::Bool(r))
            }
            _ => {
                let va = eval_expr(db, a, layout, input, frames, stats)?;
                let vb = eval_expr(db, b, layout, input, frames, stats)?;
                numeric_binop(*op, &va, &vb)
            }
        },
        SqlExpr::IsNull(inner) => {
            let v = eval_expr(db, inner, layout, input, frames, stats)?;
            Ok(Value::Bool(v.is_null()))
        }
        SqlExpr::InList(x, list) => {
            let vx = eval_expr(db, x, layout, input, frames, stats)?;
            for item in list {
                let vi = eval_expr(db, item, layout, input, frames, stats)?;
                if vx.compare(&vi) == Some(Ordering::Equal) {
                    return Ok(Value::Bool(true));
                }
            }
            Ok(Value::Bool(false))
        }
        SqlExpr::Agg { func, arg } => match input {
            Input::Set(rows) => aggregate(db, *func, arg.as_deref(), layout, rows, frames, stats),
            Input::Row(_) => Err(DbError::Semantic(
                "aggregate used outside the SELECT list".into(),
            )),
        },
        SqlExpr::Func { name, args } => {
            let mut vals = Vec::with_capacity(args.len());
            for a in args {
                vals.push(eval_expr(db, a, layout, input, frames, stats)?);
            }
            scalar_function(name, &vals)
        }
        SqlExpr::Subquery(sub) => {
            let (_, rows) = run_select(db, sub, &frames.with(layout, input), stats)?;
            match rows.len() {
                0 => Ok(Value::Null),
                1 => {
                    if rows[0].len() != 1 {
                        Err(DbError::Semantic(
                            "scalar subquery must return one column".into(),
                        ))
                    } else {
                        Ok(rows[0][0].clone())
                    }
                }
                n => Err(DbError::Eval(format!("scalar subquery returned {n} rows"))),
            }
        }
        SqlExpr::Exists(sub) => {
            let (_, rows) = run_select(db, sub, &frames.with(layout, input), stats)?;
            Ok(Value::Bool(!rows.is_empty()))
        }
    }
}

/// Scan the FROM table according to its plan, producing the rows that pass
/// every predicate (cloned values).
fn scan_table(
    db: &Database,
    plan: &ScanPlan,
    frames: &Frames<'_>,
    stats: &mut ExecStats,
) -> DbResult<Vec<Row>> {
    let table = db
        .table(&plan.table)
        .ok_or_else(|| DbError::Catalog(format!("unknown table `{}`", plan.table)))?;
    let layout = &plan.layout;

    let candidates: Vec<&Row> = if let Some(lookup) = &plan.index {
        stats.index_lookups += 1;
        // The key expression references no columns of this table: evaluate
        // it once against the outer frames (correlated point lookup).
        let key = eval_expr(db, &lookup.key, layout, Input::Row(&[]), frames, stats)?;
        if key.is_null() {
            Vec::new() // x = NULL matches nothing
        } else {
            // Coerce to the column's storage type so Int keys find Float
            // columns and vice versa.
            let ty = table.schema.columns[lookup.column].ty;
            match key.coerce(ty) {
                Ok(key) => {
                    let ix = table
                        .index_on(lookup.column)
                        .expect("planner verified index");
                    ix.get(&key)
                        .iter()
                        .filter_map(|id| table.get(*id))
                        .collect()
                }
                // Incomparable type (e.g. text key on an integer column):
                // equality can never hold.
                Err(_) => Vec::new(),
            }
        }
    } else {
        table.rows().iter().collect()
    };
    stats.rows_scanned += candidates.len() as u64;

    let mut out = Vec::new();
    'rows: for row in candidates {
        for p in &plan.predicates {
            let v = eval_expr(db, p, layout, Input::Row(row), frames, stats)?;
            if !truthy(&v)? {
                continue 'rows;
            }
        }
        out.push(row.clone());
    }
    Ok(out)
}

/// Run a SELECT statement. Returns `(column_names, rows)`.
pub fn run_select(
    db: &Database,
    sel: &SelectStmt,
    frames: &Frames<'_>,
    stats: &mut ExecStats,
) -> DbResult<(Vec<String>, Vec<Row>)> {
    // ---- FROM / WHERE ----------------------------------------------------
    let plan = plan_scan(db, sel)?;
    let no_table = Layout::default();
    let (layout, rows) = match &plan {
        Some(plan) => (&plan.layout, scan_table(db, plan, frames, stats)?),
        // One empty row for a table-less SELECT; a WHERE is evaluated on it.
        None => {
            let mut rows = vec![Vec::new()];
            if let Some(w) = &sel.where_ {
                let v = eval_expr(db, w, &no_table, Input::Row(&[]), frames, stats)?;
                if !truthy(&v)? {
                    rows.clear();
                }
            }
            (&no_table, rows)
        }
    };

    // ---- projection ------------------------------------------------------
    let columns: Vec<String> = sel
        .items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            item.alias.clone().unwrap_or_else(|| match &item.expr {
                SqlExpr::Col { column, .. } => column.clone(),
                SqlExpr::Agg { func, .. } => func.name().to_string(),
                _ => format!("col{}", i + 1),
            })
        })
        .collect();

    // An aggregate query produces one row over the whole set, any other
    // query one row per input row.
    let inputs: Vec<Input<'_>> = if sel.items.iter().any(|i| i.expr.contains_aggregate()) {
        vec![Input::Set(&rows)]
    } else {
        rows.iter().map(|r| Input::Row(r)).collect()
    };

    // Produce (output_row, sort_keys). An ORDER BY expression naming an
    // output column sorts by it, anything else is evaluated on the input.
    let mut produced: Vec<(Row, Vec<Value>)> = Vec::with_capacity(inputs.len());
    for input in inputs {
        let mut out = Vec::with_capacity(sel.items.len());
        for item in &sel.items {
            out.push(eval_expr(db, &item.expr, layout, input, frames, stats)?);
        }
        let mut keys = Vec::with_capacity(sel.order_by.len());
        for oe in &sel.order_by {
            let output_slot = match oe {
                SqlExpr::Col {
                    table: None,
                    column,
                } => columns.iter().position(|c| c.eq_ignore_ascii_case(column)),
                _ => None,
            };
            keys.push(match output_slot {
                Some(slot) => out[slot].clone(),
                None => eval_expr(db, oe, layout, input, frames, stats)?,
            });
        }
        produced.push((out, keys));
    }

    if !sel.order_by.is_empty() {
        produced.sort_by(|(_, ka), (_, kb)| {
            ka.iter()
                .zip(kb)
                .map(|(a, b)| a.sort_cmp(b))
                .find(|ord| *ord != Ordering::Equal)
                .unwrap_or(Ordering::Equal)
        });
    }

    let rows: Vec<Row> = produced.into_iter().map(|(r, _)| r).collect();
    stats.rows_output += rows.len() as u64;
    Ok((columns, rows))
}
