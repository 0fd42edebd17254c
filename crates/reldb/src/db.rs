//! The database: catalog of tables plus statement dispatch.

use crate::error::{DbError, DbResult};
use crate::exec::{eval_expr, run_select, ExecStats, Frames, Input};
use crate::plan::Layout;
use crate::schema::{ColumnDef, TableSchema};
use crate::sql::ast::*;
use crate::sql::parser::parse_statement;
use crate::table::Table;
use crate::value::{Row, Value};
use std::collections::BTreeMap;

/// Result of executing one statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResult {
    /// Output column names (SELECT only).
    pub columns: Vec<String>,
    /// Result rows (SELECT only).
    pub rows: Vec<Row>,
    /// Rows inserted (INSERT only).
    pub affected: u64,
    /// Execution statistics.
    pub stats: ExecStats,
}

impl QueryResult {
    /// The single value of a one-row/one-column result.
    pub fn scalar(&self) -> Option<&Value> {
        if self.rows.len() == 1 && self.rows[0].len() == 1 {
            Some(&self.rows[0][0])
        } else {
            None
        }
    }

    /// Approximate wire size of the result rows in bytes.
    pub fn wire_size(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.iter().map(Value::wire_size).sum::<usize>())
            .sum()
    }
}

/// An in-memory relational database.
#[derive(Debug, Clone, Default)]
pub struct Database {
    /// Tables keyed by lowercase name (lookups are case-insensitive).
    tables: BTreeMap<String, Table>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// Look up a table (case-insensitive).
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(&name.to_ascii_lowercase())
    }

    /// Mutable table lookup (case-insensitive).
    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables.get_mut(&name.to_ascii_lowercase())
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables
            .values()
            .map(|t| t.schema.name.as_str())
            .collect()
    }

    /// Create a table from a schema (programmatic API used by `asl-sql`).
    pub fn create_table(&mut self, schema: TableSchema) -> DbResult<()> {
        let key = schema.name.to_ascii_lowercase();
        if self.tables.contains_key(&key) {
            return Err(DbError::Catalog(format!(
                "table `{}` already exists",
                schema.name
            )));
        }
        self.tables.insert(key, Table::new(schema));
        Ok(())
    }

    /// Bulk-insert pre-built rows (fast path for loaders; all constraint
    /// checks still apply).
    pub fn insert_rows(&mut self, table: &str, rows: Vec<Row>) -> DbResult<u64> {
        let t = self
            .table_mut(table)
            .ok_or_else(|| DbError::Catalog(format!("unknown table `{table}`")))?;
        let mut n = 0;
        for row in rows {
            t.insert(row)?;
            n += 1;
        }
        Ok(n)
    }

    /// Execute any SQL statement.
    pub fn execute(&mut self, sql: &str) -> DbResult<QueryResult> {
        let stmt = parse_statement(sql)?;
        self.execute_stmt(stmt)
    }

    /// Execute a SELECT without requiring `&mut self`.
    pub fn query(&self, sql: &str) -> DbResult<QueryResult> {
        match parse_statement(sql)? {
            Stmt::Select(sel) => self.select(&sel),
            _ => Err(DbError::Semantic(
                "query() accepts SELECT statements only".into(),
            )),
        }
    }

    /// Run a parsed SELECT.
    pub fn select(&self, sel: &SelectStmt) -> DbResult<QueryResult> {
        let mut stats = ExecStats::default();
        let (columns, rows) = run_select(self, sel, &Frames::new(), &mut stats)?;
        Ok(QueryResult {
            columns,
            rows,
            affected: 0,
            stats,
        })
    }

    /// Execute a parsed statement.
    pub fn execute_stmt(&mut self, stmt: Stmt) -> DbResult<QueryResult> {
        match stmt {
            Stmt::CreateTable { name, columns } => {
                let mut defs = Vec::new();
                let mut pk = None;
                for (i, (cname, ty, not_null, is_pk)) in columns.into_iter().enumerate() {
                    if is_pk {
                        if pk.is_some() {
                            return Err(DbError::Catalog(
                                "multiple PRIMARY KEY columns are not supported".into(),
                            ));
                        }
                        pk = Some(i);
                    }
                    defs.push(if not_null {
                        ColumnDef::not_null(cname, ty)
                    } else {
                        ColumnDef::new(cname, ty)
                    });
                }
                self.create_table(TableSchema::new(name, defs, pk)?)?;
                Ok(QueryResult::default())
            }
            Stmt::CreateIndex { table, column, .. } => {
                let t = self
                    .table_mut(&table)
                    .ok_or_else(|| DbError::Catalog(format!("unknown table `{table}`")))?;
                let col = t.schema.column_index(&column).ok_or_else(|| {
                    DbError::Catalog(format!("unknown column `{column}` in `{table}`"))
                })?;
                t.create_index(col)?;
                Ok(QueryResult::default())
            }
            Stmt::Insert {
                table,
                columns,
                values,
            } => {
                let mut stats = ExecStats::default();
                // Evaluate value expressions first (no row context).
                let empty_layout = Layout::default();
                let schema = self
                    .table(&table)
                    .ok_or_else(|| DbError::Catalog(format!("unknown table `{table}`")))?
                    .schema
                    .clone();
                let col_map: Vec<usize> = match &columns {
                    None => (0..schema.arity()).collect(),
                    Some(cols) => {
                        let mut m = Vec::with_capacity(cols.len());
                        for c in cols {
                            m.push(schema.column_index(c).ok_or_else(|| {
                                DbError::Catalog(format!("unknown column `{c}` in `{table}`"))
                            })?);
                        }
                        m
                    }
                };
                let mut built = Vec::with_capacity(values.len());
                for tuple in values {
                    if tuple.len() != col_map.len() {
                        return Err(DbError::Semantic(format!(
                            "INSERT expects {} values per row, got {}",
                            col_map.len(),
                            tuple.len()
                        )));
                    }
                    let mut row = vec![Value::Null; schema.arity()];
                    for (expr, &slot) in tuple.iter().zip(col_map.iter()) {
                        row[slot] = eval_expr(
                            self,
                            expr,
                            &empty_layout,
                            Input::Row(&[]),
                            &Frames::new(),
                            &mut stats,
                        )?;
                    }
                    built.push(row);
                }
                let n = self.insert_rows(&table, built)?;
                Ok(QueryResult {
                    affected: n,
                    stats,
                    ..Default::default()
                })
            }
            Stmt::Select(sel) => self.select(&sel),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE run (id INTEGER PRIMARY KEY, nope INTEGER NOT NULL)")
            .unwrap();
        db.execute("CREATE TABLE timing (id INTEGER PRIMARY KEY, run_id INTEGER, region TEXT, incl REAL, ovhd REAL)")
            .unwrap();
        db.execute("INSERT INTO run (id, nope) VALUES (1, 2), (2, 8), (3, 32)")
            .unwrap();
        db.execute(
            "INSERT INTO timing (id, run_id, region, incl, ovhd) VALUES \
             (1, 1, 'main', 10.0, 0.5), (2, 2, 'main', 14.0, 1.5), (3, 3, 'main', 30.0, 6.0), \
             (4, 1, 'loop', 8.0, 0.25), (5, 2, 'loop', 11.0, 1.2), (6, 3, 'loop', 24.0, 5.0)",
        )
        .unwrap();
        db
    }

    #[test]
    fn select_where_and_projection() {
        let db = setup();
        let r = db
            .query("SELECT region, incl FROM timing WHERE run_id = 2 ORDER BY incl")
            .unwrap();
        assert_eq!(r.columns, vec!["region", "incl"]);
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0], Value::Text("loop".into()));
    }

    #[test]
    fn aggregate_over_the_whole_row_set() {
        let db = setup();
        let r = db.query("SELECT MIN(nope), MAX(nope) FROM run").unwrap();
        assert_eq!(r.rows[0], vec![Value::Int(2), Value::Int(32)]);
    }

    #[test]
    fn count_on_empty_table() {
        let mut db = Database::new();
        db.execute("CREATE TABLE e (x INTEGER)").unwrap();
        let r = db.query("SELECT COUNT(*) FROM e").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(0));
        // MIN of empty set is NULL.
        let r = db.query("SELECT MIN(x) FROM e").unwrap();
        assert_eq!(r.rows[0][0], Value::Null);
    }

    #[test]
    fn scalar_subquery_uncorrelated() {
        let db = setup();
        let r = db
            .query(
                "SELECT region FROM timing WHERE run_id = \
                 (SELECT id FROM run WHERE nope = (SELECT MIN(nope) FROM run))",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn correlated_subquery() {
        let db = setup();
        // Regions whose inclusive time in their run exceeds the average
        // inclusive time of that run... simplified: timing rows whose incl
        // is the max among rows of the same run.
        let r = db
            .query(
                "SELECT t.id FROM timing t WHERE t.incl = \
                 (SELECT MAX(u.incl) FROM timing u WHERE u.run_id = t.run_id) \
                 ORDER BY t.id",
            )
            .unwrap();
        let ids: Vec<i64> = r.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![1, 2, 3]); // the 'main' rows
    }

    #[test]
    fn exists_subquery() {
        let db = setup();
        let r = db
            .query(
                "SELECT r.id FROM run r WHERE EXISTS \
                 (SELECT 1 FROM timing t WHERE t.run_id = r.id AND t.incl > 20)",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(3));
    }

    #[test]
    fn index_lookup_reduces_scanned_rows() {
        let db = setup();
        let by_pk = db.query("SELECT incl FROM timing WHERE id = 3").unwrap();
        assert_eq!(by_pk.stats.rows_scanned, 1);
        assert_eq!(by_pk.stats.index_lookups, 1);
        let full = db.query("SELECT incl FROM timing WHERE incl > 0").unwrap();
        assert_eq!(full.stats.rows_scanned, 6);
    }

    #[test]
    fn division_yields_float() {
        let db = Database::new();
        let r = db.query("SELECT 3 / 2").unwrap();
        assert_eq!(r.rows[0][0], Value::Float(1.5));
    }

    #[test]
    fn division_by_zero_is_error() {
        let db = Database::new();
        assert!(db.query("SELECT 1 / 0").is_err());
    }

    #[test]
    fn insert_type_mismatch_is_error() {
        let mut db = setup();
        assert!(db
            .execute("INSERT INTO run (id, nope) VALUES (9, 'not a number')")
            .is_err());
    }

    #[test]
    fn duplicate_pk_via_sql_is_error() {
        let mut db = setup();
        let err = db
            .execute("INSERT INTO run (id, nope) VALUES (1, 99)")
            .unwrap_err();
        assert!(matches!(err, DbError::Constraint(_)));
    }

    #[test]
    fn order_by_source_expression() {
        let db = setup();
        // ORDER BY an expression that is not in the select list.
        let r = db
            .query("SELECT region FROM timing WHERE run_id = 3 ORDER BY ovhd")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Text("loop".into()));
    }

    #[test]
    fn arithmetic_in_projection() {
        let db = setup();
        let r = db
            .query("SELECT incl - ovhd AS pure FROM timing WHERE id = 1")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Float(9.5));
    }

    #[test]
    fn table_less_select() {
        let db = Database::new();
        let r = db.query("SELECT 1 + 1, 'x'").unwrap();
        assert_eq!(r.rows[0], vec![Value::Int(2), Value::Text("x".into())]);
        assert!(db.query("SELECT 1 WHERE 1 = 2").unwrap().rows.is_empty());
    }

    #[test]
    fn in_list_filter() {
        let db = setup();
        let r = db
            .query("SELECT id FROM run WHERE nope IN (2, 32) ORDER BY id")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn aggregate_arithmetic() {
        let db = setup();
        let r = db
            .query("SELECT SUM(incl) - SUM(ovhd) FROM timing WHERE run_id = 1")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Float(18.0 - 0.75));
    }

    #[test]
    fn unknown_column_is_error() {
        let db = setup();
        assert!(db.query("SELECT zzz FROM run").is_err());
    }

    #[test]
    fn greatest_and_least() {
        let db = Database::new();
        let r = db
            .query("SELECT GREATEST(1, 5, 3), LEAST(2.5, 2, 9)")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Int(5));
        assert_eq!(r.rows[0][1], Value::Int(2));
        // NULL poisons the result (SQL GREATEST semantics).
        let r = db.query("SELECT GREATEST(1, NULL)").unwrap();
        assert_eq!(r.rows[0][0], Value::Null);
    }

    #[test]
    fn coalesce_picks_first_non_null() {
        let db = setup();
        let r = db
            .query(
                "SELECT COALESCE(NULL, NULL, 7), COALESCE(SUM(incl), 0) FROM timing WHERE id < 0",
            )
            .unwrap();
        assert_eq!(r.rows[0], vec![Value::Int(7), Value::Int(0)]);
    }

    #[test]
    fn scalar_subquery_with_several_rows_is_error() {
        let db = setup();
        let err = db.query("SELECT (SELECT id FROM run)").unwrap_err();
        assert!(matches!(err, DbError::Eval(_)), "{err}");
    }

    #[test]
    fn bare_column_in_aggregate_query_is_error() {
        let db = setup();
        let err = db
            .query("SELECT region, SUM(incl) FROM timing")
            .unwrap_err();
        assert!(matches!(err, DbError::Semantic(_)), "{err}");
        // Outer columns are values, not columns of the aggregated set.
        let r = db
            .query("SELECT (SELECT SUM(t.incl) / r.nope FROM timing t WHERE t.run_id = r.id) FROM run r WHERE id = 1")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Float(9.0));
    }

    /// Syntax outside the frozen grammar is refused with a typed error and
    /// touches nothing.
    #[test]
    fn removed_syntax_is_refused_typed() {
        let mut db = setup();
        let before = db.clone();
        for sql in [
            "UPDATE timing SET ovhd = 0 WHERE id = 1",
            "DELETE FROM timing WHERE id = 1",
            "DROP TABLE timing",
            "SELECT t.id FROM timing t JOIN run r ON t.run_id = r.id",
            "SELECT t.id FROM timing t INNER JOIN run r ON t.run_id = r.id",
            "SELECT timing.id FROM timing, run",
            "SELECT SUM(incl) FROM timing GROUP BY region",
            "SELECT SUM(incl) FROM timing HAVING SUM(incl) > 0",
            "SELECT id FROM timing LIMIT 1",
            "SELECT id FROM timing ORDER BY incl DESC",
            "SELECT id FROM timing ORDER BY incl ASC",
            "SELECT * FROM timing",
            "SELECT DISTINCT region FROM timing",
            "SELECT COUNT(DISTINCT region) FROM timing",
            "SELECT id FROM timing WHERE ovhd IS NOT NULL",
            "SELECT id FROM timing WHERE id NOT IN (1)",
            "SELECT UPPER('a')",
            "SELECT ABS(-1), LENGTH('a'), LOWER('A'), ROUND(1.5)",
        ] {
            let err = db.execute(sql).unwrap_err();
            assert!(matches!(err, DbError::Parse(_)), "`{sql}`: {err}");
            assert_eq!(db.query(sql).unwrap_err(), err, "`{sql}` via query()");
        }
        assert_eq!(db.table_names(), before.table_names());
        for name in before.table_names() {
            assert_eq!(db.table(name), before.table(name), "table `{name}`");
        }
    }

    #[test]
    fn is_null_filters() {
        let mut db = Database::new();
        db.execute("CREATE TABLE n (id INTEGER PRIMARY KEY, x INTEGER)")
            .unwrap();
        db.execute("INSERT INTO n (id, x) VALUES (1, 10), (2, NULL), (3, 30)")
            .unwrap();
        let r = db.query("SELECT id FROM n WHERE x IS NULL").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(2));
        let r = db.query("SELECT COUNT(x) FROM n").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(2)); // COUNT skips NULLs
                                                 // Comparisons with NULL are false in this dialect.
        let r = db
            .query("SELECT id FROM n WHERE x > 0 ORDER BY id")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
    }
}
