//! SQL front-end: lexer, AST and recursive-descent parser.
//!
//! The grammar is frozen at what `asl-sql` can emit plus the literal SQL
//! of the experiments, examples and tests (§5 of the paper: property
//! conditions and severities translated into SQL). A new form needs an
//! experiment that sends it:
//!
//! * `CREATE TABLE name (col TYPE [PRIMARY KEY|NOT NULL], …)`
//! * `CREATE INDEX name ON table (column)`
//! * `INSERT INTO t [(cols)] VALUES (…), (…)`
//! * `SELECT items [FROM t [alias]] [WHERE e] [ORDER BY e, …]` — one table
//!   at most, ascending order only
//!
//! Expressions: literals, `[alias.]column`, `+ - * / %`, unary minus,
//! `= <> < <= > >=`, `AND`/`OR`/`NOT`, `IS NULL`, `IN (list)`, scalar
//! subqueries `(SELECT …)` and `EXISTS (…)` (both may be correlated), the
//! aggregates `COUNT/SUM/MIN/MAX/AVG` (plus `COUNT(*)`) over the whole row
//! set, and the scalar functions `COALESCE`, `GREATEST`, `LEAST`.
//!
//! Everything else — `UPDATE`, `DELETE`, `DROP`, joins, `GROUP BY`,
//! `HAVING`, `LIMIT`, `DESC`, `SELECT *`, `DISTINCT`, `IS NOT NULL`,
//! `NOT IN` — is refused with [`crate::DbError::Parse`]; its words stay
//! reserved.

pub mod ast;
pub mod lexer;
pub mod parser;
pub mod render;

pub use ast::*;
pub use parser::parse_statement;
pub use render::{render_expr, render_select, render_value};
