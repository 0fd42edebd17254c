//! # `reldb` — embedded relational database substrate
//!
//! The paper's COSY prototype stores Apprentice performance data in a
//! relational database (§3) and evaluates ASL property conditions as SQL
//! queries (§5), reporting experiments with Oracle 7, MS Access, MS SQL
//! Server and Postgres over JDBC. None of those 1999 systems is available
//! here, so this crate provides both halves of the substitution (README,
//! "SQL path (frozen paper reproduction)"):
//!
//! 1. **A real embedded relational engine**, written from scratch and
//!    frozen at the SQL the reproduction sends (the grammar is listed in
//!    [`sql`]): typed columns, append-only row storage, hash indexes, a
//!    hand-written SQL parser, a planner with index selection for literal
//!    and correlated keys, and an executor for single-table `SELECT`s with
//!    correlated subqueries, whole-set aggregates and ordering ([`sql`],
//!    [`plan`], [`exec`], [`db`]).
//! 2. **A virtual-clock cost model** ([`remote`]) reproducing the *economics*
//!    of the paper's client/server setups: per-statement parse cost,
//!    per-row server cost, network round trips, and API-binding overhead
//!    (JDBC-like vs native C-like). The paper's measured ratios — Oracle ≈2×
//!    slower than MS SQL/Postgres on insertion, local MS Access ≈20× faster
//!    than Oracle, JDBC 2–4× slower than C, ~1 ms per record fetch — emerge
//!    from these per-operation microcosts.
//!
//! ```
//! use reldb::db::Database;
//!
//! let mut db = Database::new();
//! db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, name TEXT, x REAL)").unwrap();
//! db.execute("INSERT INTO t (id, name, x) VALUES (1, 'a', 1.5), (2, 'b', 2.5)").unwrap();
//! let r = db.execute("SELECT name, x * 2 AS d FROM t WHERE id = 2").unwrap();
//! assert_eq!(r.rows.len(), 1);
//! assert_eq!(r.rows[0][0], reldb::value::Value::Text("b".into()));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod db;
pub mod error;
pub mod exec;
pub mod plan;
pub mod remote;
pub mod schema;
pub mod sql;
pub mod table;
pub mod value;

pub use db::{Database, QueryResult};
pub use error::DbError;
pub use value::Value;
