//! Rendering of SQL AST nodes back to SQL text.
//!
//! Used by the ASL→SQL compiler (`asl-sql`), which builds [`SelectStmt`]
//! trees programmatically and ships them to a [`crate::remote::Connection`]
//! as statement strings. Rendered output re-parses to an equivalent tree
//! (tested below).

use crate::sql::ast::*;
use crate::value::Value;
use std::fmt::Write;

/// Render an identifier, quoting it when it collides with a keyword.
pub fn quote_ident(name: &str) -> String {
    if crate::sql::lexer::is_keyword(&name.to_ascii_uppercase()) {
        format!("\"{name}\"")
    } else {
        name.to_string()
    }
}

/// Render a value as a SQL literal.
pub fn render_value(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Int(i) => i.to_string(),
        // `{:e}` keeps the shortest round-trip form and always carries an
        // exponent so the lexer reads it back as a float.
        Value::Float(f) => {
            if f.is_finite() {
                format!("{f:e}")
            } else {
                "NULL".to_string()
            }
        }
        Value::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        Value::Text(s) => format!("'{}'", s.replace('\'', "''")),
    }
}

fn prec(e: &SqlExpr) -> u8 {
    match e {
        SqlExpr::Binary(SqlBinOp::Or, _, _) => 1,
        SqlExpr::Binary(SqlBinOp::And, _, _) => 2,
        SqlExpr::Not(_) => 3,
        SqlExpr::Binary(
            SqlBinOp::Eq
            | SqlBinOp::Neq
            | SqlBinOp::Lt
            | SqlBinOp::Le
            | SqlBinOp::Gt
            | SqlBinOp::Ge,
            _,
            _,
        ) => 4,
        SqlExpr::IsNull(..) | SqlExpr::InList(..) => 4,
        SqlExpr::Binary(SqlBinOp::Add | SqlBinOp::Sub, _, _) => 5,
        SqlExpr::Binary(SqlBinOp::Mul | SqlBinOp::Div | SqlBinOp::Mod, _, _) => 6,
        SqlExpr::Neg(_) => 7,
        _ => 10,
    }
}

fn op_text(op: SqlBinOp) -> &'static str {
    match op {
        SqlBinOp::Add => "+",
        SqlBinOp::Sub => "-",
        SqlBinOp::Mul => "*",
        SqlBinOp::Div => "/",
        SqlBinOp::Mod => "%",
        SqlBinOp::Eq => "=",
        SqlBinOp::Neq => "<>",
        SqlBinOp::Lt => "<",
        SqlBinOp::Le => "<=",
        SqlBinOp::Gt => ">",
        SqlBinOp::Ge => ">=",
        SqlBinOp::And => "AND",
        SqlBinOp::Or => "OR",
    }
}

fn render_child(out: &mut String, child: &SqlExpr, parent: u8, tight: bool) {
    let cp = prec(child);
    let need = if tight { cp <= parent } else { cp < parent };
    if need {
        out.push('(');
        render_expr_into(out, child);
        out.push(')');
    } else {
        render_expr_into(out, child);
    }
}

fn render_expr_into(out: &mut String, e: &SqlExpr) {
    match e {
        SqlExpr::Lit(v) => out.push_str(&render_value(v)),
        SqlExpr::Col { table, column } => {
            if let Some(t) = table {
                let _ = write!(out, "{}.", quote_ident(t));
            }
            out.push_str(&quote_ident(column));
        }
        SqlExpr::Neg(inner) => {
            out.push('-');
            render_child(out, inner, prec(e), true);
        }
        SqlExpr::Not(inner) => {
            out.push_str("NOT ");
            render_child(out, inner, prec(e), true);
        }
        SqlExpr::Binary(op, a, b) => {
            let p = prec(e);
            render_child(out, a, p, false);
            let _ = write!(out, " {} ", op_text(*op));
            render_child(out, b, p, true);
        }
        SqlExpr::IsNull(inner) => {
            render_child(out, inner, prec(e), true);
            out.push_str(" IS NULL");
        }
        SqlExpr::InList(x, list) => {
            render_child(out, x, prec(e), true);
            out.push_str(" IN (");
            for (i, item) in list.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_expr_into(out, item);
            }
            out.push(')');
        }
        SqlExpr::Agg { func, arg } => {
            let _ = write!(out, "{}(", func.name());
            match arg {
                None => out.push('*'),
                Some(a) => render_expr_into(out, a),
            }
            out.push(')');
        }
        SqlExpr::Func { name, args } => {
            let _ = write!(out, "{name}(");
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                render_expr_into(out, a);
            }
            out.push(')');
        }
        SqlExpr::Subquery(sel) => {
            out.push('(');
            out.push_str(&render_select(sel));
            out.push(')');
        }
        SqlExpr::Exists(sel) => {
            out.push_str("EXISTS (");
            out.push_str(&render_select(sel));
            out.push(')');
        }
    }
}

/// Render an expression to SQL text.
pub fn render_expr(e: &SqlExpr) -> String {
    let mut s = String::new();
    render_expr_into(&mut s, e);
    s
}

fn render_table_ref(t: &TableRef) -> String {
    match &t.alias {
        Some(a) if a != &t.table => {
            format!("{} {}", quote_ident(&t.table), quote_ident(a))
        }
        _ => quote_ident(&t.table),
    }
}

/// Render a SELECT statement to SQL text.
pub fn render_select(sel: &SelectStmt) -> String {
    let mut out = String::from("SELECT ");
    for (i, item) in sel.items.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        render_expr_into(&mut out, &item.expr);
        if let Some(a) = &item.alias {
            let _ = write!(out, " AS {a}");
        }
    }
    if let Some(from) = &sel.from {
        let _ = write!(out, " FROM {}", render_table_ref(from));
    }
    if let Some(w) = &sel.where_ {
        let _ = write!(out, " WHERE {}", render_expr(w));
    }
    for (i, e) in sel.order_by.iter().enumerate() {
        out.push_str(if i == 0 { " ORDER BY " } else { ", " });
        render_expr_into(&mut out, e);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parser::parse_statement;

    fn roundtrip(sql: &str) {
        let stmt1 = parse_statement(sql).unwrap();
        let Stmt::Select(sel1) = &stmt1 else {
            panic!("expected SELECT")
        };
        let rendered = render_select(sel1);
        let stmt2 = parse_statement(&rendered)
            .unwrap_or_else(|e| panic!("reparse of `{rendered}` failed: {e}"));
        let Stmt::Select(sel2) = &stmt2 else {
            panic!("expected SELECT")
        };
        assert_eq!(
            render_select(sel2),
            rendered,
            "rendering must be a fixpoint for `{sql}`"
        );
    }

    #[test]
    fn roundtrip_basic_select() {
        roundtrip("SELECT a, b + 1 AS c FROM t u WHERE x > 2 AND y = 'z' ORDER BY c, u.a");
        roundtrip("SELECT COUNT(*), COALESCE(SUM(x), 0) FROM t WHERE a IN (1, 2) AND b IS NULL");
    }

    #[test]
    fn roundtrip_subqueries() {
        roundtrip("SELECT (SELECT MIN(x) FROM u WHERE u.k = t.k) FROM t");
        roundtrip("SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.a = t.a)");
    }

    #[test]
    fn roundtrip_precedence() {
        roundtrip("SELECT (1 + 2) * 3, 1 + 2 * 3 FROM t");
        roundtrip("SELECT a FROM t WHERE NOT (x = 1 OR y = 2) AND z = 3");
    }

    #[test]
    fn float_literals_roundtrip_exactly() {
        for v in [1.5, 0.1, 1e-9, 123456.789, -2.5e10] {
            let lit = render_value(&Value::Float(v));
            let parsed = parse_statement(&format!("SELECT {lit}"))
                .unwrap_or_else(|e| panic!("`{lit}`: {e}"));
            let Stmt::Select(sel) = parsed else { panic!() };
            let got = match &sel.items[0].expr {
                SqlExpr::Lit(Value::Float(f)) => *f,
                SqlExpr::Neg(inner) => match &**inner {
                    SqlExpr::Lit(Value::Float(f)) => -*f,
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            };
            assert_eq!(got, v, "float {v} did not roundtrip");
        }
    }

    #[test]
    fn string_escaping_roundtrips() {
        assert_eq!(render_value(&Value::Text("it's".into())), "'it''s'");
        roundtrip("SELECT 'it''s' FROM t");
    }
}
