//! SQL tokenizer.

use crate::error::{DbError, DbResult};

/// SQL token. Keywords are recognized case-insensitively and normalized to
/// uppercase in [`SqlToken::Word`].
#[derive(Debug, Clone, PartialEq)]
pub enum SqlToken {
    /// Keyword or identifier (keywords uppercased; identifiers preserved).
    Word(String),
    /// Quoted identifier: `"Region"` (case preserved, never a keyword).
    QuotedIdent(String),
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal `'…'` with `''` escaping.
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `*`
    Star,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `=`
    Eq,
    /// `<>` or `!=`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `;`
    Semi,
    /// End of input.
    Eof,
}

/// The reserved words that are never treated as identifiers. The words of
/// syntax outside the frozen grammar (`JOIN`, `GROUP`, `LIMIT`, `UPDATE`, …)
/// stay reserved so the parser refuses them with a typed error instead of
/// reading them as a table or column alias.
pub const KEYWORDS: &[&str] = &[
    "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT", "ASC", "DESC", "AS",
    "JOIN", "INNER", "LEFT", "ON", "AND", "OR", "NOT", "NULL", "IS", "IN", "EXISTS", "DISTINCT",
    "CREATE", "TABLE", "INDEX", "PRIMARY", "KEY", "INSERT", "INTO", "VALUES", "UPDATE", "SET",
    "DELETE", "DROP", "TRUE", "FALSE", "INTEGER", "INT", "REAL", "FLOAT", "DOUBLE", "TEXT",
    "VARCHAR", "BOOLEAN", "COUNT", "SUM", "MIN", "MAX", "AVG", "CASE", "WHEN", "THEN", "ELSE",
    "END", "BETWEEN", "LIKE", "UNION", "ALL",
];

/// Is this (uppercased) word a reserved keyword?
pub fn is_keyword(w: &str) -> bool {
    KEYWORDS.contains(&w)
}

/// Tokenize a SQL string.
pub fn lex_sql(src: &str) -> DbResult<Vec<SqlToken>> {
    let b = src.as_bytes();
    let mut i = 0usize;
    let mut out = Vec::new();
    while i < b.len() {
        let c = b[i];
        match c {
            b' ' | b'\t' | b'\r' | b'\n' => i += 1,
            b'-' if b.get(i + 1) == Some(&b'-') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'(' => {
                out.push(SqlToken::LParen);
                i += 1;
            }
            b')' => {
                out.push(SqlToken::RParen);
                i += 1;
            }
            b',' => {
                out.push(SqlToken::Comma);
                i += 1;
            }
            b'.' => {
                out.push(SqlToken::Dot);
                i += 1;
            }
            b'*' => {
                out.push(SqlToken::Star);
                i += 1;
            }
            b'+' => {
                out.push(SqlToken::Plus);
                i += 1;
            }
            b'-' => {
                out.push(SqlToken::Minus);
                i += 1;
            }
            b'/' => {
                out.push(SqlToken::Slash);
                i += 1;
            }
            b'%' => {
                out.push(SqlToken::Percent);
                i += 1;
            }
            b';' => {
                out.push(SqlToken::Semi);
                i += 1;
            }
            b'=' => {
                out.push(SqlToken::Eq);
                i += 1;
            }
            b'!' if b.get(i + 1) == Some(&b'=') => {
                out.push(SqlToken::Neq);
                i += 2;
            }
            b'<' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(SqlToken::Le);
                    i += 2;
                } else if b.get(i + 1) == Some(&b'>') {
                    out.push(SqlToken::Neq);
                    i += 2;
                } else {
                    out.push(SqlToken::Lt);
                    i += 1;
                }
            }
            b'>' => {
                if b.get(i + 1) == Some(&b'=') {
                    out.push(SqlToken::Ge);
                    i += 2;
                } else {
                    out.push(SqlToken::Gt);
                    i += 1;
                }
            }
            b'\'' => {
                i += 1;
                let mut s = String::new();
                loop {
                    match b.get(i) {
                        Some(b'\'') if b.get(i + 1) == Some(&b'\'') => {
                            s.push('\'');
                            i += 2;
                        }
                        Some(b'\'') => {
                            i += 1;
                            break;
                        }
                        Some(&ch) => {
                            s.push(ch as char);
                            i += 1;
                        }
                        None => return Err(DbError::Parse("unterminated string literal".into())),
                    }
                }
                out.push(SqlToken::Str(s));
            }
            b'"' => {
                i += 1;
                let start = i;
                while i < b.len() && b[i] != b'"' {
                    i += 1;
                }
                if i >= b.len() {
                    return Err(DbError::Parse("unterminated quoted identifier".into()));
                }
                out.push(SqlToken::QuotedIdent(src[start..i].to_string()));
                i += 1;
            }
            b'0'..=b'9' => {
                let start = i;
                while i < b.len() && b[i].is_ascii_digit() {
                    i += 1;
                }
                let mut is_float = false;
                if i < b.len() && b[i] == b'.' && b.get(i + 1).is_some_and(u8::is_ascii_digit) {
                    is_float = true;
                    i += 1;
                    while i < b.len() && b[i].is_ascii_digit() {
                        i += 1;
                    }
                }
                if i < b.len() && (b[i] == b'e' || b[i] == b'E') {
                    let save = i;
                    i += 1;
                    if i < b.len() && (b[i] == b'+' || b[i] == b'-') {
                        i += 1;
                    }
                    if i < b.len() && b[i].is_ascii_digit() {
                        is_float = true;
                        while i < b.len() && b[i].is_ascii_digit() {
                            i += 1;
                        }
                    } else {
                        i = save;
                    }
                }
                let text = &src[start..i];
                if is_float {
                    out.push(SqlToken::Float(text.parse().map_err(|_| {
                        DbError::Parse(format!("bad float literal `{text}`"))
                    })?));
                } else {
                    out.push(SqlToken::Int(text.parse().map_err(|_| {
                        DbError::Parse(format!("bad integer literal `{text}`"))
                    })?));
                }
            }
            c if c.is_ascii_alphabetic() || c == b'_' => {
                let start = i;
                while i < b.len() && (b[i].is_ascii_alphanumeric() || b[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                let upper = word.to_ascii_uppercase();
                if is_keyword(&upper) {
                    out.push(SqlToken::Word(upper));
                } else {
                    out.push(SqlToken::Word(word.to_string()));
                }
            }
            other => {
                return Err(DbError::Parse(format!(
                    "unexpected character `{}` in SQL",
                    other as char
                )))
            }
        }
    }
    out.push(SqlToken::Eof);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lexes_select() {
        let t = lex_sql("SELECT a, b FROM t WHERE x >= 1.5").unwrap();
        assert_eq!(t[0], SqlToken::Word("SELECT".into()));
        assert!(t.contains(&SqlToken::Ge));
        assert!(t.contains(&SqlToken::Float(1.5)));
    }

    #[test]
    fn keywords_case_insensitive_identifiers_preserved() {
        let t = lex_sql("select TotTimes from Region").unwrap();
        assert_eq!(t[0], SqlToken::Word("SELECT".into()));
        assert_eq!(t[1], SqlToken::Word("TotTimes".into()));
        assert_eq!(t[3], SqlToken::Word("Region".into()));
    }

    #[test]
    fn string_escaping() {
        let t = lex_sql("'it''s'").unwrap();
        assert_eq!(t[0], SqlToken::Str("it's".into()));
    }

    #[test]
    fn quoted_identifiers() {
        let t = lex_sql("\"Group\"").unwrap();
        assert_eq!(t[0], SqlToken::QuotedIdent("Group".into()));
    }

    #[test]
    fn comments_skipped() {
        let t = lex_sql("SELECT 1 -- trailing\n, 2").unwrap();
        assert!(t.contains(&SqlToken::Int(2)));
    }

    #[test]
    fn neq_aliases() {
        assert!(lex_sql("a <> b").unwrap().contains(&SqlToken::Neq));
        assert!(lex_sql("a != b").unwrap().contains(&SqlToken::Neq));
    }

    #[test]
    fn unterminated_string_is_error() {
        assert!(lex_sql("'oops").is_err());
    }

    #[test]
    fn number_then_dot_word() {
        // `1.x` is int, dot, word — not a float.
        let t = lex_sql("1.x").unwrap();
        assert_eq!(t[0], SqlToken::Int(1));
        assert_eq!(t[1], SqlToken::Dot);
    }
}
