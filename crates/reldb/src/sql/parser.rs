//! Recursive-descent SQL parser.

use crate::error::{DbError, DbResult};
use crate::sql::ast::*;
use crate::sql::lexer::{lex_sql, SqlToken};
use crate::value::{ColType, Value};

/// Parse a single SQL statement (an optional trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> DbResult<Stmt> {
    let tokens = lex_sql(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat(&SqlToken::Semi);
    p.expect(&SqlToken::Eof)?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<SqlToken>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &SqlToken {
        &self.tokens[self.pos]
    }

    fn peek_at(&self, n: usize) -> &SqlToken {
        let i = (self.pos + n).min(self.tokens.len() - 1);
        &self.tokens[i]
    }

    fn bump(&mut self) -> SqlToken {
        let t = self.tokens[self.pos].clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &SqlToken) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &SqlToken) -> DbResult<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn at_word(&self, w: &str) -> bool {
        matches!(self.peek(), SqlToken::Word(x) if x == w)
    }

    fn eat_word(&mut self, w: &str) -> bool {
        if self.at_word(w) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_word(&mut self, w: &str) -> DbResult<()> {
        if self.eat_word(w) {
            Ok(())
        } else {
            Err(DbError::Parse(format!(
                "expected `{w}`, found {:?}",
                self.peek()
            )))
        }
    }

    /// An identifier: a non-keyword word or a quoted identifier.
    fn ident(&mut self) -> DbResult<String> {
        match self.bump() {
            SqlToken::Word(w) if !crate::sql::lexer::is_keyword(&w) => Ok(w),
            SqlToken::QuotedIdent(w) => Ok(w),
            other => Err(DbError::Parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    fn statement(&mut self) -> DbResult<Stmt> {
        if self.at_word("CREATE") {
            self.bump();
            if self.eat_word("TABLE") {
                self.create_table()
            } else if self.eat_word("INDEX") {
                self.create_index()
            } else {
                Err(DbError::Parse(
                    "expected TABLE or INDEX after CREATE".into(),
                ))
            }
        } else if self.eat_word("INSERT") {
            self.insert()
        } else if self.at_word("SELECT") {
            Ok(Stmt::Select(Box::new(self.select()?)))
        } else {
            Err(DbError::Parse(format!(
                "expected a statement, found {:?}",
                self.peek()
            )))
        }
    }

    fn col_type(&mut self) -> DbResult<ColType> {
        match self.bump() {
            SqlToken::Word(w) => match w.as_str() {
                "INTEGER" | "INT" => Ok(ColType::Integer),
                "REAL" | "FLOAT" | "DOUBLE" => Ok(ColType::Real),
                "TEXT" => Ok(ColType::Text),
                "VARCHAR" => {
                    // Optional length: VARCHAR(80).
                    if self.eat(&SqlToken::LParen) {
                        self.bump(); // length literal
                        self.expect(&SqlToken::RParen)?;
                    }
                    Ok(ColType::Text)
                }
                "BOOLEAN" => Ok(ColType::Boolean),
                other => Err(DbError::Parse(format!("unknown column type `{other}`"))),
            },
            other => Err(DbError::Parse(format!(
                "expected column type, found {other:?}"
            ))),
        }
    }

    fn create_table(&mut self) -> DbResult<Stmt> {
        let name = self.ident()?;
        self.expect(&SqlToken::LParen)?;
        let mut columns = Vec::new();
        loop {
            let cname = self.ident()?;
            let ty = self.col_type()?;
            let mut not_null = false;
            let mut pk = false;
            loop {
                if self.eat_word("PRIMARY") {
                    self.expect_word("KEY")?;
                    pk = true;
                    not_null = true;
                } else if self.eat_word("NOT") {
                    self.expect_word("NULL")?;
                    not_null = true;
                } else {
                    break;
                }
            }
            columns.push((cname, ty, not_null, pk));
            if !self.eat(&SqlToken::Comma) {
                break;
            }
        }
        self.expect(&SqlToken::RParen)?;
        Ok(Stmt::CreateTable { name, columns })
    }

    fn create_index(&mut self) -> DbResult<Stmt> {
        let name = self.ident()?;
        self.expect_word("ON")?;
        let table = self.ident()?;
        self.expect(&SqlToken::LParen)?;
        let column = self.ident()?;
        self.expect(&SqlToken::RParen)?;
        Ok(Stmt::CreateIndex {
            name,
            table,
            column,
        })
    }

    fn insert(&mut self) -> DbResult<Stmt> {
        self.expect_word("INTO")?;
        let table = self.ident()?;
        let columns = if self.eat(&SqlToken::LParen) {
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.eat(&SqlToken::Comma) {
                    break;
                }
            }
            self.expect(&SqlToken::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_word("VALUES")?;
        let mut values = Vec::new();
        loop {
            self.expect(&SqlToken::LParen)?;
            let mut row = Vec::new();
            if !self.eat(&SqlToken::RParen) {
                loop {
                    row.push(self.expr()?);
                    if !self.eat(&SqlToken::Comma) {
                        break;
                    }
                }
                self.expect(&SqlToken::RParen)?;
            }
            values.push(row);
            if !self.eat(&SqlToken::Comma) {
                break;
            }
        }
        Ok(Stmt::Insert {
            table,
            columns,
            values,
        })
    }

    fn table_ref(&mut self) -> DbResult<TableRef> {
        let table = self.ident()?;
        // Optional alias: `Region r` or `Region AS r`. `eat_word` consumes
        // the AS; either way the alias identifier is next.
        let has_alias = self.eat_word("AS")
            || matches!(self.peek(), SqlToken::Word(w) if !crate::sql::lexer::is_keyword(w));
        let alias = if has_alias { Some(self.ident()?) } else { None };
        Ok(TableRef { table, alias })
    }

    /// Parse a SELECT statement body (assumes the SELECT keyword is next).
    pub(crate) fn select(&mut self) -> DbResult<SelectStmt> {
        self.expect_word("SELECT")?;
        let mut items = Vec::new();
        loop {
            let expr = self.expr()?;
            let has_alias = self.eat_word("AS")
                || matches!(self.peek(), SqlToken::Word(w) if !crate::sql::lexer::is_keyword(w));
            let alias = if has_alias { Some(self.ident()?) } else { None };
            items.push(SelectItem { expr, alias });
            if !self.eat(&SqlToken::Comma) {
                break;
            }
        }
        let from = if self.eat_word("FROM") {
            Some(self.table_ref()?)
        } else {
            None
        };
        let where_ = if self.eat_word("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_word("ORDER") {
            self.expect_word("BY")?;
            loop {
                order_by.push(self.expr()?);
                if !self.eat(&SqlToken::Comma) {
                    break;
                }
            }
        }
        Ok(SelectStmt {
            items,
            from,
            where_,
            order_by,
        })
    }

    // ---- expressions, precedence climbing --------------------------------

    fn expr(&mut self) -> DbResult<SqlExpr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> DbResult<SqlExpr> {
        let mut lhs = self.and_expr()?;
        while self.eat_word("OR") {
            let rhs = self.and_expr()?;
            lhs = SqlExpr::Binary(SqlBinOp::Or, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> DbResult<SqlExpr> {
        let mut lhs = self.not_expr()?;
        while self.eat_word("AND") {
            let rhs = self.not_expr()?;
            lhs = SqlExpr::Binary(SqlBinOp::And, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> DbResult<SqlExpr> {
        if self.eat_word("NOT") {
            Ok(SqlExpr::Not(Box::new(self.not_expr()?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> DbResult<SqlExpr> {
        let lhs = self.additive()?;
        if self.eat_word("IS") {
            self.expect_word("NULL")?;
            return Ok(SqlExpr::IsNull(Box::new(lhs)));
        }
        if self.eat_word("IN") {
            self.expect(&SqlToken::LParen)?;
            let mut list = Vec::new();
            loop {
                list.push(self.expr()?);
                if !self.eat(&SqlToken::Comma) {
                    break;
                }
            }
            self.expect(&SqlToken::RParen)?;
            return Ok(SqlExpr::InList(Box::new(lhs), list));
        }
        let op = match self.peek() {
            SqlToken::Eq => Some(SqlBinOp::Eq),
            SqlToken::Neq => Some(SqlBinOp::Neq),
            SqlToken::Lt => Some(SqlBinOp::Lt),
            SqlToken::Le => Some(SqlBinOp::Le),
            SqlToken::Gt => Some(SqlBinOp::Gt),
            SqlToken::Ge => Some(SqlBinOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.additive()?;
            Ok(SqlExpr::Binary(op, Box::new(lhs), Box::new(rhs)))
        } else {
            Ok(lhs)
        }
    }

    fn additive(&mut self) -> DbResult<SqlExpr> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                SqlToken::Plus => SqlBinOp::Add,
                SqlToken::Minus => SqlBinOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.multiplicative()?;
            lhs = SqlExpr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> DbResult<SqlExpr> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek() {
                SqlToken::Star => SqlBinOp::Mul,
                SqlToken::Slash => SqlBinOp::Div,
                SqlToken::Percent => SqlBinOp::Mod,
                _ => break,
            };
            self.bump();
            let rhs = self.unary()?;
            lhs = SqlExpr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn unary(&mut self) -> DbResult<SqlExpr> {
        if self.eat(&SqlToken::Minus) {
            Ok(SqlExpr::Neg(Box::new(self.unary()?)))
        } else {
            self.primary()
        }
    }

    fn agg_func(word: &str) -> Option<AggFunc> {
        Some(match word {
            "COUNT" => AggFunc::Count,
            "SUM" => AggFunc::Sum,
            "MIN" => AggFunc::Min,
            "MAX" => AggFunc::Max,
            "AVG" => AggFunc::Avg,
            _ => None?,
        })
    }

    fn primary(&mut self) -> DbResult<SqlExpr> {
        match self.peek().clone() {
            SqlToken::Int(v) => {
                self.bump();
                Ok(SqlExpr::Lit(Value::Int(v)))
            }
            SqlToken::Float(v) => {
                self.bump();
                Ok(SqlExpr::Lit(Value::Float(v)))
            }
            SqlToken::Str(s) => {
                self.bump();
                Ok(SqlExpr::Lit(Value::Text(s)))
            }
            SqlToken::LParen => {
                self.bump();
                // Subquery or parenthesized expression.
                if self.at_word("SELECT") {
                    let sub = self.select()?;
                    self.expect(&SqlToken::RParen)?;
                    Ok(SqlExpr::Subquery(Box::new(sub)))
                } else {
                    let e = self.expr()?;
                    self.expect(&SqlToken::RParen)?;
                    Ok(e)
                }
            }
            SqlToken::Word(w) => {
                match w.as_str() {
                    "NULL" => {
                        self.bump();
                        return Ok(SqlExpr::Lit(Value::Null));
                    }
                    "TRUE" => {
                        self.bump();
                        return Ok(SqlExpr::Lit(Value::Bool(true)));
                    }
                    "FALSE" => {
                        self.bump();
                        return Ok(SqlExpr::Lit(Value::Bool(false)));
                    }
                    "EXISTS" => {
                        self.bump();
                        self.expect(&SqlToken::LParen)?;
                        let sub = self.select()?;
                        self.expect(&SqlToken::RParen)?;
                        return Ok(SqlExpr::Exists(Box::new(sub)));
                    }
                    _ => {}
                }
                if let Some(func) = Self::agg_func(&w) {
                    self.bump();
                    self.expect(&SqlToken::LParen)?;
                    if func == AggFunc::Count && self.eat(&SqlToken::Star) {
                        self.expect(&SqlToken::RParen)?;
                        return Ok(SqlExpr::Agg { func, arg: None });
                    }
                    let arg = self.expr()?;
                    self.expect(&SqlToken::RParen)?;
                    return Ok(SqlExpr::Agg {
                        func,
                        arg: Some(Box::new(arg)),
                    });
                }
                // Scalar function call?
                let known_scalar = ["COALESCE", "GREATEST", "LEAST"];
                let upper = w.to_ascii_uppercase();
                if known_scalar.contains(&upper.as_str())
                    && matches!(self.peek_at(1), SqlToken::LParen)
                {
                    self.bump();
                    self.bump(); // (
                    let mut args = Vec::new();
                    if !self.eat(&SqlToken::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat(&SqlToken::Comma) {
                                break;
                            }
                        }
                        self.expect(&SqlToken::RParen)?;
                    }
                    return Ok(SqlExpr::Func { name: upper, args });
                }
                // Column reference (possibly qualified).
                if crate::sql::lexer::is_keyword(&w) {
                    return Err(DbError::Parse(format!(
                        "unexpected keyword `{w}` in expression"
                    )));
                }
                self.bump();
                if self.eat(&SqlToken::Dot) {
                    let column = self.ident()?;
                    Ok(SqlExpr::Col {
                        table: Some(w),
                        column,
                    })
                } else {
                    Ok(SqlExpr::Col {
                        table: None,
                        column: w,
                    })
                }
            }
            SqlToken::QuotedIdent(w) => {
                self.bump();
                if self.eat(&SqlToken::Dot) {
                    let column = self.ident()?;
                    Ok(SqlExpr::Col {
                        table: Some(w),
                        column,
                    })
                } else {
                    Ok(SqlExpr::Col {
                        table: None,
                        column: w,
                    })
                }
            }
            other => Err(DbError::Parse(format!(
                "expected expression, found {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(sql: &str) -> Stmt {
        parse_statement(sql).unwrap_or_else(|e| panic!("parse of `{sql}` failed: {e}"))
    }

    #[test]
    fn parse_create_table() {
        let s =
            parse_ok("CREATE TABLE Region (id INTEGER PRIMARY KEY, name TEXT NOT NULL, x REAL)");
        match s {
            Stmt::CreateTable { name, columns } => {
                assert_eq!(name, "Region");
                assert_eq!(columns.len(), 3);
                assert!(columns[0].3); // pk
                assert!(columns[1].2); // not null
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_insert_multi_row() {
        let s = parse_ok("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')");
        match s {
            Stmt::Insert {
                table,
                columns,
                values,
            } => {
                assert_eq!(table, "t");
                assert_eq!(columns.unwrap(), vec!["a", "b"]);
                assert_eq!(values.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_select_with_every_clause() {
        let s = parse_ok(
            "SELECT r.id, SUM(t.Time) AS total FROM TypedTiming t \
             WHERE t.run_id = 3 AND t.ty = 'Barrier' ORDER BY total, r.id",
        );
        match s {
            Stmt::Select(sel) => {
                assert_eq!(sel.items.len(), 2);
                assert_eq!(sel.items[1].alias.as_deref(), Some("total"));
                assert_eq!(sel.from.unwrap().alias.as_deref(), Some("t"));
                assert!(sel.where_.is_some());
                assert_eq!(sel.order_by.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_count_star() {
        let s = parse_ok("SELECT COUNT(*), COUNT(a) FROM t");
        match s {
            Stmt::Select(sel) => {
                assert!(matches!(sel.items[0].expr, SqlExpr::Agg { arg: None, .. }));
                assert!(matches!(
                    sel.items[1].expr,
                    SqlExpr::Agg { arg: Some(_), .. }
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_scalar_subquery() {
        let s = parse_ok("SELECT (SELECT MIN(NoPe) FROM TestRun) AS m FROM t");
        match s {
            Stmt::Select(sel) => assert!(matches!(sel.items[0].expr, SqlExpr::Subquery(_))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_exists_in_and_is_null() {
        parse_ok("SELECT a FROM t WHERE EXISTS (SELECT b FROM u WHERE u.x = t.a)");
        let s = parse_ok("SELECT a FROM t WHERE a IN (1, 2, 3) AND b IS NULL");
        match s {
            Stmt::Select(sel) => {
                let parts = sel.where_.unwrap().conjuncts();
                assert!(matches!(parts[0], SqlExpr::InList(..)));
                assert!(matches!(parts[1], SqlExpr::IsNull(_)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parse_precedence() {
        let s = parse_ok("SELECT 1 + 2 * 3 FROM t");
        match s {
            Stmt::Select(sel) => match &sel.items[0].expr {
                SqlExpr::Binary(SqlBinOp::Add, _, rhs) => {
                    assert!(matches!(**rhs, SqlExpr::Binary(SqlBinOp::Mul, _, _)));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reserved_word_as_identifier_fails() {
        assert!(parse_statement("SELECT SELECT FROM t").is_err());
        assert!(parse_statement("CREATE TABLE table (a INTEGER)").is_err());
    }

    #[test]
    fn quoted_identifier_allows_keywords() {
        parse_ok("SELECT \"Group\" FROM t");
    }

    #[test]
    fn table_less_select() {
        let s = parse_ok("SELECT 1 + 1");
        match s {
            Stmt::Select(sel) => assert!(sel.from.is_none()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn trailing_semicolon_ok() {
        parse_ok("SELECT 1;");
    }

    #[test]
    fn garbage_after_statement_fails() {
        assert!(parse_statement("SELECT 1 extra garbage +").is_err());
    }
}
