//! A cost-charging connection to a shared database.

use crate::db::{Database, QueryResult};
use crate::error::{DbError, DbResult};
use crate::remote::clock::VirtualClock;
use crate::remote::profiles::{ApiBinding, BackendProfile};
use crate::sql::ast::Stmt;
use crate::sql::parser::parse_statement;
use crate::value::Row;
use parking_lot::RwLock;
use std::sync::Arc;

/// A database shared by several connections (the paper's COSY clients all
/// talk to one server).
pub type SharedDb = Arc<RwLock<Database>>;

/// Wrap a database for sharing.
pub fn share(db: Database) -> SharedDb {
    Arc::new(RwLock::new(db))
}

/// A client connection with a backend profile, an API binding and a virtual
/// clock. Every statement charges the clock with the modeled cost of the
/// 1999-era system; see [`super::profiles`].
pub struct Connection {
    db: SharedDb,
    /// The backend cost profile.
    pub profile: BackendProfile,
    /// The client API binding.
    pub binding: ApiBinding,
    clock: VirtualClock,
}

impl Connection {
    /// Open a connection.
    pub fn connect(db: SharedDb, profile: BackendProfile, binding: ApiBinding) -> Self {
        Connection {
            db,
            profile,
            binding,
            clock: VirtualClock::new(),
        }
    }

    /// Simulated seconds spent so far on this connection.
    pub fn elapsed(&self) -> f64 {
        self.clock.elapsed()
    }

    /// Reset the virtual clock.
    pub fn reset_clock(&mut self) {
        self.clock.reset();
    }

    /// Execute any statement, charging modeled costs.
    ///
    /// * DDL: one round trip + parse.
    /// * INSERT: round trip + parse + per-row server execution + one API
    ///   call marshalling all inserted values.
    /// * SELECT: round trip + parse + query base + per-scanned-row cost +
    ///   batched result transfer (bytes + per-value marshalling).
    pub fn execute(&mut self, sql: &str) -> DbResult<QueryResult> {
        let stmt = parse_statement(sql)?;
        let p = &self.profile;
        match &stmt {
            Stmt::Select(sel) => {
                let result = self.db.read().select(sel)?;
                let values = result.rows.len() * result.columns.len().max(1);
                let cost = p.network_rtt
                    + p.stmt_parse
                    + p.query_base
                    + p.row_scan * result.stats.rows_scanned as f64
                    + p.row_fetch * result.rows.len() as f64
                    + p.byte_transfer * result.wire_size() as f64
                    + self.binding.call_cost(values);
                self.clock.advance(cost);
                Ok(result)
            }
            Stmt::Insert { values, .. } => {
                let inserted_values: usize = values.iter().map(Vec::len).sum();
                let result = self.db.write().execute_stmt(stmt.clone())?;
                let cost = p.network_rtt
                    + p.stmt_parse
                    + p.insert_exec * result.affected as f64
                    + self.binding.call_cost(inserted_values);
                self.clock.advance(cost);
                Ok(result)
            }
            Stmt::CreateTable { .. } | Stmt::CreateIndex { .. } => {
                let result = self.db.write().execute_stmt(stmt.clone())?;
                self.clock
                    .advance(p.network_rtt + p.stmt_parse + self.binding.call_cost(0));
                Ok(result)
            }
        }
    }

    /// Execute a SELECT and return a **record-at-a-time cursor**: the query
    /// runs server-side now (round trip + parse + base + scan cost); each
    /// [`Cursor::fetch`] then pays one round trip, the server row
    /// materialization, and the API marshalling for that row — the access
    /// pattern behind the paper's "fetching a record from the Oracle server
    /// takes about 1 ms".
    pub fn open_cursor(&mut self, sql: &str) -> DbResult<Cursor<'_>> {
        let Stmt::Select(sel) = parse_statement(sql)? else {
            return Err(DbError::Semantic("cursors require a SELECT".into()));
        };
        let result = self.db.read().select(&sel)?;
        let p = &self.profile;
        self.clock.advance(
            p.network_rtt
                + p.stmt_parse
                + p.query_base
                + p.row_scan * result.stats.rows_scanned as f64
                + self.binding.call_cost(0),
        );
        let columns = result.columns.clone();
        Ok(Cursor {
            conn: self,
            columns,
            rows: result.rows.into_iter(),
        })
    }
}

/// A record-at-a-time cursor over a completed server-side query.
pub struct Cursor<'a> {
    conn: &'a mut Connection,
    /// Result column names.
    pub columns: Vec<String>,
    rows: std::vec::IntoIter<Row>,
}

impl Cursor<'_> {
    /// Fetch the next record, paying the per-record round-trip and
    /// marshalling cost.
    pub fn fetch(&mut self) -> Option<Row> {
        let row = self.rows.next()?;
        let p = &self.conn.profile;
        let cost = p.network_rtt
            + p.row_fetch
            + p.byte_transfer
                * row
                    .iter()
                    .map(crate::value::Value::wire_size)
                    .sum::<usize>() as f64
            + self.conn.binding.call_cost(row.len());
        self.conn.clock.advance(cost);
        Some(row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn test_db() -> SharedDb {
        let mut db = Database::new();
        db.execute(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, a INTEGER, b REAL, c TEXT, d REAL, e REAL)",
        )
        .unwrap();
        for i in 0..200 {
            db.execute(&format!(
                "INSERT INTO t (id, a, b, c, d, e) VALUES ({i}, {}, 1.5, 'x', 2.5, 3.5)",
                i % 10
            ))
            .unwrap();
        }
        share(db)
    }

    #[test]
    fn insert_charges_profile_costs() {
        let db = share(Database::new());
        db.write()
            .execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x REAL)")
            .unwrap();
        let mut conn = Connection::connect(db, BackendProfile::oracle7(), ApiBinding::jdbc());
        conn.execute("INSERT INTO t (id, x) VALUES (1, 2.0)")
            .unwrap();
        let one = conn.elapsed();
        assert!(
            one > 1.5e-3,
            "oracle insert should cost > 1.5 ms, got {one}"
        );
        conn.execute("INSERT INTO t (id, x) VALUES (2, 2.0)")
            .unwrap();
        assert!((conn.elapsed() - 2.0 * one).abs() < 1e-9);
    }

    #[test]
    fn access_inserts_are_much_cheaper() {
        let mk = |profile, binding| {
            let db = share(Database::new());
            db.write()
                .execute("CREATE TABLE t (id INTEGER PRIMARY KEY, x REAL)")
                .unwrap();
            let mut conn = Connection::connect(db, profile, binding);
            for i in 0..100 {
                conn.execute(&format!("INSERT INTO t (id, x) VALUES ({i}, 1.0)"))
                    .unwrap();
            }
            conn.elapsed()
        };
        let oracle = mk(BackendProfile::oracle7(), ApiBinding::jdbc());
        let access = mk(BackendProfile::msaccess(), ApiBinding::native_c());
        let ratio = oracle / access;
        assert!((12.0..30.0).contains(&ratio), "oracle/access = {ratio}");
    }

    #[test]
    fn cursor_fetch_costs_about_1ms_on_oracle_jdbc() {
        let db = test_db();
        let mut conn = Connection::connect(db, BackendProfile::oracle7(), ApiBinding::jdbc());
        let mut cur = conn.open_cursor("SELECT a, b, c, d, e FROM t").unwrap();
        // Fetch 100 records and check the per-record cost.
        let t0 = cur.conn.elapsed();
        for _ in 0..100 {
            cur.fetch().unwrap();
        }
        let per_fetch = (cur.conn.elapsed() - t0) / 100.0;
        assert!(
            (0.7e-3..1.3e-3).contains(&per_fetch),
            "per fetch = {per_fetch}"
        );
    }

    #[test]
    fn jdbc_vs_native_on_bulk_select() {
        let run = |binding: ApiBinding| {
            let db = test_db();
            let mut conn = Connection::connect(db, BackendProfile::oracle7(), binding);
            let mut cur = conn.open_cursor("SELECT a, b, c, d, e FROM t").unwrap();
            while cur.fetch().is_some() {}
            conn.elapsed()
        };
        let jdbc = run(ApiBinding::jdbc());
        let native = run(ApiBinding::native_c());
        let ratio = jdbc / native;
        assert!((2.0..4.0).contains(&ratio), "jdbc/native = {ratio}");
    }

    #[test]
    fn select_batched_is_cheaper_than_cursor() {
        let db = test_db();
        let mut c1 = Connection::connect(db.clone(), BackendProfile::oracle7(), ApiBinding::jdbc());
        c1.execute("SELECT a, b, c, d, e FROM t").unwrap();
        let batched = c1.elapsed();
        let mut c2 = Connection::connect(db, BackendProfile::oracle7(), ApiBinding::jdbc());
        let mut cur = c2.open_cursor("SELECT a, b, c, d, e FROM t").unwrap();
        while cur.fetch().is_some() {}
        let row_at_a_time = c2.elapsed();
        assert!(
            row_at_a_time > batched * 2.0,
            "cursor {row_at_a_time} vs batched {batched}"
        );
    }

    #[test]
    fn shared_database_sees_writes_from_other_connection() {
        let db = share(Database::new());
        let mut a = Connection::connect(db.clone(), BackendProfile::mssql7(), ApiBinding::jdbc());
        let mut b = Connection::connect(db, BackendProfile::mssql7(), ApiBinding::jdbc());
        a.execute("CREATE TABLE s (x INTEGER)").unwrap();
        a.execute("INSERT INTO s (x) VALUES (42)").unwrap();
        let r = b.execute("SELECT x FROM s").unwrap();
        assert_eq!(r.rows[0][0], Value::Int(42));
    }

    #[test]
    fn in_db_aggregate_is_cheaper_than_client_side_fetch() {
        // The §5 claim: translating conditions into SQL beats fetching the
        // data and evaluating in the tool.
        let db = test_db();
        // SQL-side: one aggregate query returning one row.
        let mut sqlside =
            Connection::connect(db.clone(), BackendProfile::oracle7(), ApiBinding::jdbc());
        sqlside.execute("SELECT SUM(b) FROM t WHERE a = 3").unwrap();
        let sql_cost = sqlside.elapsed();
        // Client-side: fetch every row, evaluate locally.
        let mut client = Connection::connect(db, BackendProfile::oracle7(), ApiBinding::jdbc());
        let mut cur = client.open_cursor("SELECT a, b FROM t").unwrap();
        let mut sum = 0.0;
        while let Some(row) = cur.fetch() {
            if row[0] == Value::Int(3) {
                sum += row[1].as_f64().unwrap();
            }
        }
        assert!(sum > 0.0);
        let client_cost = client.elapsed();
        assert!(
            client_cost > sql_cost * 10.0,
            "client {client_cost} vs sql {sql_cost}"
        );
    }
}
