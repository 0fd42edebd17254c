//! SQL abstract syntax tree.

use crate::value::{ColType, Value};

/// A full SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `CREATE TABLE`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions: (name, type, not_null, primary_key).
        columns: Vec<(String, ColType, bool, bool)>,
    },
    /// `CREATE INDEX name ON table (column)`.
    CreateIndex {
        /// Index name (informational).
        name: String,
        /// Table to index.
        table: String,
        /// Column to index.
        column: String,
    },
    /// `INSERT INTO`.
    Insert {
        /// Target table.
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// One expression row per VALUES tuple.
        values: Vec<Vec<SqlExpr>>,
    },
    /// `SELECT`.
    Select(Box<SelectStmt>),
}

/// A table reference with an optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Table name.
    pub table: String,
    /// Alias (defaults to the table name).
    pub alias: Option<String>,
}

impl TableRef {
    /// The name this table is visible as.
    pub fn visible_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// One item of the SELECT list: `expr [AS alias]`.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    /// The expression.
    pub expr: SqlExpr,
    /// Output column name.
    pub alias: Option<String>,
}

/// A SELECT statement over at most one table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStmt {
    /// Output items.
    pub items: Vec<SelectItem>,
    /// The FROM table (`None` for table-less `SELECT 1`).
    pub from: Option<TableRef>,
    /// WHERE predicate.
    pub where_: Option<SqlExpr>,
    /// ORDER BY expressions (ascending).
    pub order_by: Vec<SqlExpr>,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SqlBinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `=`
    Eq,
    /// `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `AND`
    And,
    /// `OR`
    Or,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT`
    Count,
    /// `SUM`
    Sum,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
    /// `AVG`
    Avg,
}

impl AggFunc {
    /// SQL name.
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        }
    }
}

/// A SQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlExpr {
    /// Literal value.
    Lit(Value),
    /// Column reference, optionally qualified.
    Col {
        /// Table qualifier (alias).
        table: Option<String>,
        /// Column name.
        column: String,
    },
    /// Unary minus.
    Neg(Box<SqlExpr>),
    /// `NOT`.
    Not(Box<SqlExpr>),
    /// Binary operation.
    Binary(SqlBinOp, Box<SqlExpr>, Box<SqlExpr>),
    /// `expr IS NULL`.
    IsNull(Box<SqlExpr>),
    /// `expr IN (e1, e2, …)`.
    InList(Box<SqlExpr>, Vec<SqlExpr>),
    /// Aggregate call. `arg == None` means `COUNT(*)`.
    Agg {
        /// Which aggregate.
        func: AggFunc,
        /// The aggregated expression.
        arg: Option<Box<SqlExpr>>,
    },
    /// Scalar function call (`COALESCE`, `GREATEST`, `LEAST`).
    Func {
        /// Uppercased function name.
        name: String,
        /// Arguments.
        args: Vec<SqlExpr>,
    },
    /// Scalar subquery `(SELECT …)`; must return at most one row/column.
    Subquery(Box<SelectStmt>),
    /// `EXISTS (SELECT …)`.
    Exists(Box<SelectStmt>),
}

impl SqlExpr {
    /// Column reference helper.
    pub fn col(table: Option<&str>, column: &str) -> SqlExpr {
        SqlExpr::Col {
            table: table.map(str::to_string),
            column: column.to_string(),
        }
    }

    /// Does `pred` hold for this expression or one of its sub-expressions?
    /// Subqueries are leaves: their bodies have their own scope.
    pub fn any(&self, pred: &impl Fn(&SqlExpr) -> bool) -> bool {
        pred(self)
            || match self {
                SqlExpr::Lit(_)
                | SqlExpr::Col { .. }
                | SqlExpr::Subquery(_)
                | SqlExpr::Exists(_) => false,
                SqlExpr::Neg(e) | SqlExpr::Not(e) | SqlExpr::IsNull(e) => e.any(pred),
                SqlExpr::Binary(_, a, b) => a.any(pred) || b.any(pred),
                SqlExpr::InList(e, list) => e.any(pred) || list.iter().any(|l| l.any(pred)),
                SqlExpr::Agg { arg, .. } => arg.as_deref().is_some_and(|a| a.any(pred)),
                SqlExpr::Func { args, .. } => args.iter().any(|a| a.any(pred)),
            }
    }

    /// Does this expression contain an aggregate call (outside subqueries)?
    pub fn contains_aggregate(&self) -> bool {
        self.any(&|e| matches!(e, SqlExpr::Agg { .. }))
    }

    /// Split a conjunction into its conjuncts.
    pub fn conjuncts(self) -> Vec<SqlExpr> {
        match self {
            SqlExpr::Binary(SqlBinOp::And, a, b) => {
                let mut out = a.conjuncts();
                out.extend(b.conjuncts());
                out
            }
            other => vec![other],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_flatten() {
        let e = SqlExpr::Binary(
            SqlBinOp::And,
            Box::new(SqlExpr::Binary(
                SqlBinOp::And,
                Box::new(SqlExpr::Lit(Value::Bool(true))),
                Box::new(SqlExpr::Lit(Value::Bool(false))),
            )),
            Box::new(SqlExpr::Lit(Value::Int(1))),
        );
        assert_eq!(e.conjuncts().len(), 3);
    }

    #[test]
    fn contains_aggregate_stops_at_subquery() {
        let sub = SelectStmt {
            items: vec![SelectItem {
                expr: SqlExpr::Agg {
                    func: AggFunc::Count,
                    arg: None,
                },
                alias: None,
            }],
            ..Default::default()
        };
        let e = SqlExpr::Subquery(Box::new(sub));
        assert!(!e.contains_aggregate());
        let direct = SqlExpr::Agg {
            func: AggFunc::Sum,
            arg: Some(Box::new(SqlExpr::col(None, "x"))),
        };
        assert!(direct.contains_aggregate());
    }

    #[test]
    fn visible_name_prefers_alias() {
        let t = TableRef {
            table: "Region".into(),
            alias: Some("r".into()),
        };
        assert_eq!(t.visible_name(), "r");
        let t2 = TableRef {
            table: "Region".into(),
            alias: None,
        };
        assert_eq!(t2.visible_name(), "Region");
    }
}
