//! Generic loader: populate a generated schema from any object model.
//!
//! This is the paper's "performance data supply tools are extended such
//! that the information can be inserted into the database" (§5), made
//! automatic: the loader walks the checked data model, enumerates each
//! class's objects through [`ObjectModel::extent`], reads every attribute,
//! and emits rows. Two paths:
//!
//! * [`load_store`] — direct bulk insertion into an embedded
//!   [`Database`] (used by tests and the analysis backends);
//! * [`insert_statements`] — the same rows as row-at-a-time `INSERT`
//!   statements, replayed through a [`reldb::remote::Connection`] by
//!   experiment E2 to reproduce the §5 insertion-cost comparison.

use crate::error::{SqlGenError, SqlGenResult};
use crate::schema::{AttrBinding, SchemaInfo};
use asl_core::types::{Model, Type};
use asl_eval::{ObjRef, ObjectModel, Value as EvalValue};
use reldb::sql::render::render_value;
use reldb::value::{Row, Value};
use reldb::Database;
use std::collections::HashMap;

/// Convert an interpreter value into a SQL storage value.
pub(crate) fn to_sql_value(v: &EvalValue) -> SqlGenResult<Value> {
    Ok(match v {
        EvalValue::Int(i) => Value::Int(*i),
        EvalValue::Float(f) => Value::Float(*f),
        EvalValue::Bool(b) => Value::Bool(*b),
        EvalValue::Str(s) => Value::Text(s.to_string()),
        EvalValue::DateTime(t) => Value::Int(*t),
        EvalValue::Enum(_, variant) => Value::Text(variant.as_str().to_string()),
        EvalValue::Obj(o) => Value::Int(o.index as i64),
        EvalValue::Null => Value::Null,
        EvalValue::Set(_) => {
            return Err(SqlGenError::Data(
                "set value in scalar column position".into(),
            ))
        }
    })
}

/// Build all rows for the schema from the data source.
///
/// Returns `(table name, rows)` pairs in schema order. Owner columns are
/// filled in a second pass by walking every `setof` attribute.
pub fn build_rows<M: ObjectModel>(
    schema: &SchemaInfo,
    model: &Model,
    data: &M,
) -> SqlGenResult<Vec<(String, Vec<Row>)>> {
    let mut tables: Vec<(String, Vec<Row>)> = Vec::new();
    let mut table_index: HashMap<String, usize> = HashMap::new();

    // Pass 1: scalar + FK columns.
    for ts in &schema.tables {
        let class = &ts.name;
        let n = data.extent(class).ok_or_else(|| {
            SqlGenError::Data(format!("data source cannot enumerate class `{class}`"))
        })?;
        let class_sym: asl_core::Symbol = class.as_str().into();
        let mut rows = Vec::with_capacity(n);
        for id in 0..n {
            let obj = ObjRef {
                class: class_sym,
                index: id as u32,
            };
            let mut row = vec![Value::Null; ts.arity()];
            row[0] = Value::Int(id as i64);
            for attr in model.all_attrs(class) {
                if matches!(attr.ty, Type::Set(_)) {
                    continue; // handled via owner columns in pass 2
                }
                let Some(binding) = schema.binding(class, &attr.name) else {
                    continue;
                };
                let col = match binding {
                    AttrBinding::ScalarColumn { column } | AttrBinding::ObjectFk { column, .. } => {
                        ts.column_index(column).expect("generated column exists")
                    }
                    AttrBinding::SetOwner { .. } => continue,
                };
                let v = data
                    .attr(&obj, &attr.name)
                    .map_err(|e| SqlGenError::Data(e.to_string()))?;
                row[col] = to_sql_value(&v)?;
            }
            rows.push(row);
        }
        table_index.insert(class.clone(), tables.len());
        tables.push((class.clone(), rows));
    }

    // Pass 2: owner columns from `setof` attributes.
    for ts in &schema.tables {
        let class = &ts.name;
        let class_sym: asl_core::Symbol = class.as_str().into();
        for attr in model.all_attrs(class) {
            let Type::Set(_) = attr.ty else { continue };
            let Some(AttrBinding::SetOwner {
                target,
                owner_column,
            }) = schema.binding(class, &attr.name)
            else {
                continue;
            };
            let target_ts = schema.table(target).expect("target table exists");
            let owner_col = target_ts
                .column_index(owner_column)
                .expect("owner column exists");
            let n = data.extent(class).expect("extent checked in pass 1");
            for id in 0..n {
                let obj = ObjRef {
                    class: class_sym,
                    index: id as u32,
                };
                let members = data
                    .attr(&obj, &attr.name)
                    .map_err(|e| SqlGenError::Data(e.to_string()))?;
                let EvalValue::Set(members) = members else {
                    return Err(SqlGenError::Data(format!(
                        "attribute `{}.{}` did not yield a set",
                        class, attr.name
                    )));
                };
                let ti = table_index[target];
                for m in members.iter() {
                    let EvalValue::Obj(mref) = m else {
                        return Err(SqlGenError::Data("non-object set member".into()));
                    };
                    tables[ti].1[mref.index as usize][owner_col] = Value::Int(id as i64);
                }
            }
        }
    }

    Ok(tables)
}

/// Load the data source directly into the database (bulk path).
/// Returns the number of rows inserted.
pub fn load_store<M: ObjectModel>(
    db: &mut Database,
    schema: &SchemaInfo,
    model: &Model,
    data: &M,
) -> SqlGenResult<u64> {
    let mut total = 0;
    for (table, rows) in build_rows(schema, model, data)? {
        total += db.insert_rows(&table, rows)?;
    }
    Ok(total)
}

/// Render the same rows as row-at-a-time `INSERT` statements — the transfer
/// pattern of the paper's tool, used by the E2 insertion experiment.
pub fn insert_statements<M: ObjectModel>(
    schema: &SchemaInfo,
    model: &Model,
    data: &M,
) -> SqlGenResult<Vec<String>> {
    let mut out = Vec::new();
    for (table, rows) in build_rows(schema, model, data)? {
        let ts = schema.table(&table).expect("table exists");
        let cols: Vec<String> = ts
            .columns
            .iter()
            .map(|c| reldb::sql::render::quote_ident(&c.name))
            .collect();
        let col_list = cols.join(", ");
        for row in rows {
            let vals: Vec<String> = row.iter().map(render_value).collect();
            out.push(format!(
                "INSERT INTO {table} ({col_list}) VALUES ({})",
                vals.join(", ")
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::generate_schema;
    use apprentice_sim::{archetypes, simulate_program, MachineModel};
    use asl_core::parse_and_check;
    use asl_eval::{CosyData, COSY_DATA_MODEL};
    use perfdata::Store;

    fn simulated_db() -> (Store, Database, SchemaInfo) {
        let mut store = Store::new();
        let model = archetypes::stencil3d(3);
        let machine = MachineModel::t3e_900();
        simulate_program(&mut store, &model, &machine, &[1, 4]);
        let spec = parse_and_check(COSY_DATA_MODEL).unwrap();
        let schema = generate_schema(&spec.model).unwrap();
        let mut db = Database::new();
        schema.create_all(&mut db).unwrap();
        let data = CosyData::new(&store);
        load_store(&mut db, &schema, &spec.model, &data).unwrap();
        (store, db, schema)
    }

    #[test]
    fn row_counts_match_store() {
        let (store, db, _) = simulated_db();
        assert_eq!(db.table("Region").unwrap().len(), store.regions.len());
        assert_eq!(
            db.table("TotalTiming").unwrap().len(),
            store.total_timings.len()
        );
        assert_eq!(db.table("TestRun").unwrap().len(), store.runs.len());
    }

    #[test]
    fn owner_columns_reconstruct_membership() {
        let (store, db, _) = simulated_db();
        // Every region's TotTimes set must equal the rows with its owner id.
        for (i, region) in store.regions.iter().enumerate() {
            let r = db
                .query(&format!(
                    "SELECT COUNT(*) FROM TotalTiming WHERE TotTimes_owner = {i}"
                ))
                .unwrap();
            assert_eq!(
                r.rows[0][0],
                Value::Int(region.tot_times.len() as i64),
                "region {i}"
            );
        }
    }

    #[test]
    fn fk_columns_match_store() {
        let (store, db, _) = simulated_db();
        let r = db
            .query("SELECT id, Run_id FROM TotalTiming ORDER BY id")
            .unwrap();
        for row in &r.rows {
            let id = row[0].as_i64().unwrap() as usize;
            assert_eq!(
                row[1].as_i64().unwrap() as u32,
                store.total_timings[id].run.0
            );
        }
    }

    #[test]
    fn timing_values_survive_roundtrip() {
        let (store, db, _) = simulated_db();
        let r = db
            .query("SELECT id, Incl, Excl, Ovhd FROM TotalTiming ORDER BY id")
            .unwrap();
        for row in &r.rows {
            let id = row[0].as_i64().unwrap() as usize;
            let t = &store.total_timings[id];
            assert_eq!(row[1].as_f64().unwrap(), t.incl);
            assert_eq!(row[2].as_f64().unwrap(), t.excl);
            assert_eq!(row[3].as_f64().unwrap(), t.ovhd);
        }
    }

    #[test]
    fn enum_values_stored_as_text() {
        let (store, db, _) = simulated_db();
        let r = db.query("SELECT Type FROM TypedTiming").unwrap();
        let names: std::collections::BTreeSet<&str> =
            r.rows.iter().map(|row| row[0].as_str().unwrap()).collect();
        assert!(!names.is_empty());
        for name in names {
            assert!(
                perfdata::TimingType::from_name(name).is_some(),
                "bad enum text {name}"
            );
        }
        drop(store);
    }

    #[test]
    fn insert_statements_replay_identically() {
        let (store, db, schema) = simulated_db();
        let spec = parse_and_check(COSY_DATA_MODEL).unwrap();
        let data = CosyData::new(&store);
        let stmts = insert_statements(&schema, &spec.model, &data).unwrap();
        let mut db2 = Database::new();
        schema.create_all(&mut db2).unwrap();
        for s in &stmts {
            db2.execute(s).unwrap();
        }
        // Spot-check equality of an aggregate across both load paths.
        for table in ["TotalTiming", "TypedTiming", "CallTiming"] {
            let q = format!("SELECT COUNT(*) FROM {table}");
            assert_eq!(db.query(&q).unwrap().rows, db2.query(&q).unwrap().rows);
        }
        let q = "SELECT SUM(Incl) FROM TotalTiming";
        let a = db.query(q).unwrap().rows[0][0].as_f64().unwrap();
        let b = db2.query(q).unwrap().rows[0][0].as_f64().unwrap();
        assert!((a - b).abs() < 1e-9, "{a} vs {b}");
    }

    #[test]
    fn null_parent_region_loads_as_null() {
        let (_, db, _) = simulated_db();
        let r = db
            .query("SELECT COUNT(*) FROM Region WHERE ParentRegion_id IS NULL")
            .unwrap();
        // One root region per function (incl. runtime routines have no
        // regions, so: one per model function).
        assert!(r.rows[0][0].as_i64().unwrap() >= 2);
    }
}
