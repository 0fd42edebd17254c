//! Row storage with hash indexes.

use crate::error::{DbError, DbResult};
use crate::schema::TableSchema;
use crate::value::{Row, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A secondary (or primary) hash index over one column.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct HashIndex {
    /// Indexed column.
    pub column: usize,
    /// Enforce uniqueness (primary keys).
    pub unique: bool,
    /// Value → row indexes.
    map: HashMap<Value, Vec<usize>>,
}

impl HashIndex {
    /// New empty index on a column.
    pub fn new(column: usize, unique: bool) -> Self {
        HashIndex {
            column,
            unique,
            map: HashMap::new(),
        }
    }

    fn insert(&mut self, key: Value, row: usize) -> DbResult<()> {
        let display = if self.unique {
            key.to_string()
        } else {
            String::new()
        };
        let slot = self.map.entry(key).or_default();
        if self.unique && !slot.is_empty() {
            return Err(DbError::Constraint(format!(
                "duplicate key {display} for unique index"
            )));
        }
        slot.push(row);
        Ok(())
    }

    /// Row indexes matching `key`.
    pub fn get(&self, key: &Value) -> &[usize] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

/// A table: schema, rows and indexes. Rows are append-only, so a row's
/// position is its stable id.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table {
    /// The table schema.
    pub schema: TableSchema,
    rows: Vec<Row>,
    indexes: Vec<HashIndex>,
}

impl Table {
    /// Create an empty table; a unique index is created for the primary key.
    pub fn new(schema: TableSchema) -> Self {
        let mut indexes = Vec::new();
        if let Some(pk) = schema.primary_key {
            indexes.push(HashIndex::new(pk, true));
        }
        Table {
            schema,
            rows: Vec::new(),
            indexes,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Add a secondary index on a column (backfills existing rows).
    pub fn create_index(&mut self, column: usize) -> DbResult<()> {
        if column >= self.schema.arity() {
            return Err(DbError::Catalog(format!(
                "index column {column} out of range for `{}`",
                self.schema.name
            )));
        }
        if self.indexes.iter().any(|ix| ix.column == column) {
            return Ok(()); // idempotent
        }
        let mut ix = HashIndex::new(column, false);
        for (i, row) in self.rows.iter().enumerate() {
            ix.insert(row[column].clone(), i)?;
        }
        self.indexes.push(ix);
        Ok(())
    }

    /// Find an index on `column`.
    pub fn index_on(&self, column: usize) -> Option<&HashIndex> {
        self.indexes.iter().find(|ix| ix.column == column)
    }

    /// Validate and insert a row; returns its stable row id.
    pub fn insert(&mut self, row: Row) -> DbResult<usize> {
        if row.len() != self.schema.arity() {
            return Err(DbError::Semantic(format!(
                "table `{}` expects {} values, got {}",
                self.schema.name,
                self.schema.arity(),
                row.len()
            )));
        }
        let mut coerced = Vec::with_capacity(row.len());
        for (v, c) in row.into_iter().zip(self.schema.columns.iter()) {
            if v.is_null() && !c.nullable {
                return Err(DbError::Constraint(format!(
                    "column `{}` of `{}` is NOT NULL",
                    c.name, self.schema.name
                )));
            }
            coerced.push(v.coerce(c.ty)?);
        }
        if let Some(pk) = self.schema.primary_key {
            if coerced[pk].is_null() {
                return Err(DbError::Constraint(format!(
                    "primary key of `{}` cannot be NULL",
                    self.schema.name
                )));
            }
            if let Some(ix) = self.index_on(pk) {
                if !ix.get(&coerced[pk]).is_empty() {
                    return Err(DbError::Constraint(format!(
                        "duplicate primary key {} in `{}`",
                        coerced[pk], self.schema.name
                    )));
                }
            }
        }
        let id = self.rows.len();
        for ix in &mut self.indexes {
            ix.insert(coerced[ix.column].clone(), id)?;
        }
        self.rows.push(coerced);
        Ok(id)
    }

    /// Fetch a row by id.
    pub fn get(&self, id: usize) -> Option<&Row> {
        self.rows.get(id)
    }

    /// All rows, in insertion (= id) order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::ColType;

    fn table() -> Table {
        Table::new(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::not_null("id", ColType::Integer),
                    ColumnDef::new("name", ColType::Text),
                    ColumnDef::new("x", ColType::Real),
                ],
                Some(0),
            )
            .unwrap(),
        )
    }

    #[test]
    fn insert_and_get() {
        let mut t = table();
        let id = t
            .insert(vec![Value::Int(1), Value::Text("a".into()), Value::Int(3)])
            .unwrap();
        // Int widened to Float in a REAL column.
        assert_eq!(t.get(id).unwrap()[2], Value::Float(3.0));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::Null, Value::Null])
            .unwrap();
        let err = t
            .insert(vec![Value::Int(1), Value::Null, Value::Null])
            .unwrap_err();
        assert!(matches!(err, DbError::Constraint(_)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn not_null_enforced() {
        let mut t = table();
        let err = t
            .insert(vec![Value::Null, Value::Null, Value::Null])
            .unwrap_err();
        assert!(matches!(err, DbError::Constraint(_)));
    }

    #[test]
    fn arity_checked() {
        let mut t = table();
        assert!(t.insert(vec![Value::Int(1)]).is_err());
    }

    #[test]
    fn pk_index_lookup() {
        let mut t = table();
        for i in 0..100 {
            t.insert(vec![Value::Int(i), Value::Null, Value::Null])
                .unwrap();
        }
        let ix = t.index_on(0).unwrap();
        assert_eq!(ix.get(&Value::Int(42)).len(), 1);
        assert_eq!(ix.get(&Value::Int(1000)).len(), 0);
        assert_eq!(ix.distinct_keys(), 100);
    }

    #[test]
    fn secondary_index_backfills() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::Text("a".into()), Value::Null])
            .unwrap();
        t.insert(vec![Value::Int(2), Value::Text("a".into()), Value::Null])
            .unwrap();
        t.create_index(1).unwrap();
        assert_eq!(
            t.index_on(1).unwrap().get(&Value::Text("a".into())).len(),
            2
        );
    }
}
