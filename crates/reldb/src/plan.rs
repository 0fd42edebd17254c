//! Logical planning: the row layout of the FROM table, predicate ordering
//! and index selection.
//!
//! A SELECT reads at most one table. The planner splits its WHERE clause
//! into conjuncts, turns one `col = key` conjunct into a hash-index point
//! lookup when an index exists and the key does not depend on the scanned
//! row, and orders the rest so that conjuncts containing subqueries run
//! last — a correlated subquery is then evaluated only for rows the plain
//! filters let through.

use crate::db::Database;
use crate::error::{DbError, DbResult};
use crate::sql::ast::*;
use crate::table::Table;

/// The column layout of a FROM table: a column reference is a slot of this
/// table, or else it belongs to an outer query (see
/// [`crate::exec::Frames`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layout {
    /// The name the table is visible as (its alias if one was given).
    pub table: String,
    /// Column names in slot order.
    pub columns: Vec<String>,
}

impl Layout {
    /// The layout of `table`, visible as `visible`.
    pub fn of(table: &Table, visible: &str) -> Layout {
        Layout {
            table: visible.to_string(),
            columns: table
                .schema
                .columns
                .iter()
                .map(|c| c.name.clone())
                .collect(),
        }
    }

    /// Resolve a column reference to a slot. A qualified reference must
    /// name this table; `None` means the reference is not to this table.
    pub fn slot(&self, table: Option<&str>, column: &str) -> Option<usize> {
        if table.is_some_and(|t| !t.eq_ignore_ascii_case(&self.table)) {
            return None;
        }
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(column))
    }

    /// Does `e` read a column of this table (outside subqueries)?
    fn reads(&self, e: &SqlExpr) -> bool {
        e.any(&|e| match e {
            SqlExpr::Col { table, column } => self.slot(table.as_deref(), column).is_some(),
            _ => false,
        })
    }
}

/// Does `e` contain a subquery or an aggregate call?
fn is_opaque(e: &SqlExpr) -> bool {
    e.any(&|e| {
        matches!(
            e,
            SqlExpr::Subquery(_) | SqlExpr::Exists(_) | SqlExpr::Agg { .. }
        )
    })
}

/// An index-assisted point lookup on a scan. The key expression contains no
/// columns of the scanned table — it is a literal or references outer rows
/// only, so it is constant for the duration of one scan and evaluated when
/// the scan starts (this is how correlated subqueries hit indexes, as the
/// paper's production databases did).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexLookup {
    /// Column index within the table schema.
    pub column: usize,
    /// The key expression (no references to the scanned table).
    pub key: SqlExpr,
}

/// The planned access path of the FROM table.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanPlan {
    /// The scanned table's real name.
    pub table: String,
    /// Its row layout.
    pub layout: Layout,
    /// Optional index point lookup replacing the full scan.
    pub index: Option<IndexLookup>,
    /// The WHERE conjuncts the index did not consume: plain filters first,
    /// conjuncts with subqueries after them.
    pub predicates: Vec<SqlExpr>,
}

/// Plan the FROM/WHERE part of a SELECT (`None` for a table-less SELECT).
pub fn plan_scan(db: &Database, sel: &SelectStmt) -> DbResult<Option<ScanPlan>> {
    let Some(from) = &sel.from else {
        return Ok(None);
    };
    let table = db
        .table(&from.table)
        .ok_or_else(|| DbError::Catalog(format!("unknown table `{}`", from.table)))?;
    let layout = Layout::of(table, from.visible_name());

    // `col = key`, either way round, with an index on `col` and a key that
    // is constant during the scan.
    let as_lookup = |col: &SqlExpr, key: &SqlExpr| -> Option<IndexLookup> {
        let SqlExpr::Col { table: t, column } = col else {
            return None;
        };
        let column = layout.slot(t.as_deref(), column)?;
        if layout.reads(key) || is_opaque(key) {
            return None;
        }
        table.index_on(column)?;
        Some(IndexLookup {
            column,
            key: key.clone(),
        })
    };

    let mut index = None;
    let mut plain = Vec::new();
    let mut opaque = Vec::new();
    for c in sel.where_.iter().flat_map(|w| w.clone().conjuncts()) {
        if is_opaque(&c) {
            opaque.push(c);
            continue;
        }
        if index.is_none() {
            if let SqlExpr::Binary(SqlBinOp::Eq, a, b) = &c {
                if let Some(l) = as_lookup(a, b).or_else(|| as_lookup(b, a)) {
                    index = Some(l);
                    continue; // consumed by the index
                }
            }
        }
        plain.push(c);
    }
    plain.append(&mut opaque);

    Ok(Some(ScanPlan {
        table: from.table.clone(),
        layout,
        index,
        predicates: plain,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::Database;
    use crate::sql::parser::parse_statement;
    use crate::value::Value;

    fn db() -> Database {
        let mut db = Database::new();
        db.execute("CREATE TABLE region (id INTEGER PRIMARY KEY, fn_id INTEGER, name TEXT)")
            .unwrap();
        db.execute("CREATE TABLE timing (id INTEGER PRIMARY KEY, region_id INTEGER, run_id INTEGER, incl REAL)")
            .unwrap();
        db.execute("CREATE INDEX t_r ON timing (region_id)")
            .unwrap();
        db
    }

    fn plan(db: &Database, sql: &str) -> ScanPlan {
        match parse_statement(sql).unwrap() {
            Stmt::Select(sel) => plan_scan(db, &sel).unwrap().expect("FROM table"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn layout_resolves_through_the_alias_only() {
        let db = db();
        let p = plan(&db, "SELECT id FROM timing t");
        assert_eq!(p.layout.slot(Some("t"), "incl"), Some(3));
        assert_eq!(p.layout.slot(None, "INCL"), Some(3));
        // The real name is hidden behind the alias: `timing.incl` is an
        // outer reference here (the shape of a self-correlated subquery).
        assert_eq!(p.layout.slot(Some("timing"), "incl"), None);
        assert_eq!(p.layout.slot(None, "zzz"), None);
    }

    #[test]
    fn index_lookup_selected_for_pk() {
        let db = db();
        let p = plan(&db, "SELECT name FROM region WHERE id = 7");
        let lookup = p.index.as_ref().unwrap();
        assert_eq!(lookup.column, 0);
        assert_eq!(lookup.key, SqlExpr::Lit(Value::Int(7)));
        assert!(p.predicates.is_empty());
    }

    #[test]
    fn correlated_key_gets_index_lookup() {
        // An outer (unresolvable) reference as the key: the shape of every
        // correlated subquery the ASL compiler generates.
        let db = db();
        let p = plan(&db, "SELECT incl FROM timing WHERE region_id = ctx.id");
        let lookup = p.index.as_ref().unwrap();
        assert_eq!(lookup.column, 1);
        assert!(matches!(lookup.key, SqlExpr::Col { .. }));
    }

    #[test]
    fn secondary_index_used_and_other_filters_kept() {
        let db = db();
        let p = plan(
            &db,
            "SELECT incl FROM timing WHERE incl > 0 AND 2 = region_id",
        );
        assert_eq!(p.index.as_ref().unwrap().column, 1);
        assert_eq!(p.predicates.len(), 1); // incl > 0 remains
    }

    #[test]
    fn key_reading_the_scanned_row_is_not_a_lookup() {
        let db = db();
        let p = plan(&db, "SELECT incl FROM timing WHERE region_id = run_id");
        assert!(p.index.is_none());
        assert_eq!(p.predicates.len(), 1);
    }

    #[test]
    fn subquery_predicates_run_after_plain_filters() {
        let db = db();
        let p = plan(
            &db,
            "SELECT name FROM region WHERE fn_id = (SELECT MIN(region_id) FROM timing) AND name = 'main'",
        );
        assert!(p.index.is_none());
        assert_eq!(p.predicates.len(), 2);
        assert!(!is_opaque(&p.predicates[0]));
        assert!(is_opaque(&p.predicates[1]));
    }

    #[test]
    fn unknown_table_is_a_catalog_error() {
        let db = db();
        let Stmt::Select(sel) = parse_statement("SELECT 1 FROM nowhere").unwrap() else {
            panic!()
        };
        assert!(matches!(plan_scan(&db, &sel), Err(DbError::Catalog(_))));
    }
}
